"""Independent answer checks for every benchmark job.

The expected values come from closed forms or from small models of the
groups written here (exponent sums for abelian groups, the affine action
x -> -x, x -> 1 - x on Z/i for the dihedral group of order 2i), never
from the package's own oracles.  Only certificate re-verification uses
the package, because that is the check the package itself promises.
"""

from __future__ import annotations

import json

from workloads import AB, XY, SignedPerm, commutator, parse_rendered, pres_text, render

ALPHABET = (1, -1, 2, -2)  # the package's letter order: x < x^-1 < y < y^-1


def abelian_model(orders):
    def start():
        return (0,) * len(orders)

    def step(state, x):
        sums = list(state)
        sums[abs(x) - 1] += 1 if x > 0 else -1
        return tuple(sums)

    def trivial(state):
        return all(s == 0 if o == 0 else s % o == 0 for s, o in zip(state, orders))

    return start, step, trivial


def dihedral_model(i):
    # a acts as x -> -x and b as x -> 1 - x; ab is a translation of order i.
    maps = {1: (-1, 0), 2: (-1, 1)}

    def start():
        return (1, 0)

    def step(state, x):
        eps, t = maps[abs(x)]  # both generators are involutions
        return (eps * state[0], (eps * state[1] + t) % i)

    def trivial(state):
        return state == (1, 0)

    return start, step, trivial


GROUPS = {
    "z2": (abelian_model((0, 0)), XY),
    "zz3": (abelian_model((0, 3)), XY),
    "dihedral5": (dihedral_model(5), AB),
    "dihedral8": (dihedral_model(8), AB),
}


def is_trivial(group: str, sigma: SignedPerm, letters) -> bool:
    """Triviality of a word over the permuted presentation."""
    (start, step, trivial), _ = GROUPS[group]
    state = start()
    for x in sigma.inverse_word(letters):
        state = step(state, x)
    return trivial(state)


def expected_ball(group: str, sigma: SignedPerm, radius: int) -> list[str]:
    """Trivial reduced words of length <= radius in length-lex order, rendered."""
    (start, step, trivial), names = GROUPS[group]
    back = {x: sigma.inverse_word((x,))[0] for x in ALPHABET}
    shell = [((), start())]
    members = []
    for length in range(radius + 1):
        if length:
            shell = [(w + (x,), step(s, back[x])) for w, s in shell
                     for x in ALPHABET if not (w and w[-1] == -x)]
        members.extend(render(w, names) for w, s in shell if trivial(s))
    return members


class Checker:
    """Checks job outcomes; caches expected balls across repetitions."""

    def __init__(self, sigma: SignedPerm):
        self.sigma = sigma
        self.balls: dict = {}

    def check(self, job, outcome) -> list[str]:
        """Problems found with one job's outcome; empty when it is correct."""
        if outcome["error"]:
            return [f"exception: {outcome['error'].strip().splitlines()[-1]}"]
        if outcome["exit"] != 0:
            return [f"exit code {outcome['exit']}: {outcome['stderr'].strip()[:200]}"]
        try:
            data = json.loads(outcome["stdout"])
        except json.JSONDecodeError as exc:
            return [f"stdout is not JSON: {exc}"]
        return getattr(self, "_" + job.check["type"])(job.check, data, job.argv)

    def _dehn(self, spec, data, argv):
        problems = []
        names = GROUPS[spec["group"]][1]
        rows = {row["n"]: row for row in data["rows"]}
        for n, value in spec["values"].items():
            row = rows.get(n)
            if row is None or row["value"] != value or row["exact"] is not True:
                problems.append(f"delta({n}) = {row and row['value']}, expected {value}")
                continue
            if value > 0 and not row["witnesses"]:
                problems.append(f"delta({n}) has no witness")
            for text in row["witnesses"]:
                letters = parse_rendered(text, names)
                if len(letters) > n or not is_trivial(spec["group"], self.sigma, letters):
                    problems.append(f"witness {text!r} at n={n} is not a trivial word of length <= n")
        return problems

    def _converge(self, spec, data, argv):
        problems = []
        got = {row["i"]: (row["kind"], row["lambda"]) for row in data["rows"]}
        lam_max = spec["lambda_max"]
        for i in spec["indices"]:
            # Dihedral of order 2i and the infinite dihedral group first
            # differ at (ab)^i, of length 2i.
            want = ("exact", 2 * i - 1) if lam_max >= 2 * i else ("at_most", lam_max)
            if got.get(i) != want:
                problems.append(f"distance at i={i} is {got.get(i)}, expected {want}")
        if data["lambda_non_decreasing"] is not True:
            problems.append("lambda_non_decreasing is not true")
        return problems

    def _dist(self, spec, data, argv):
        i, lam_max = spec["i"], spec["lambda_max"]
        # Z x Z/i and Z x Z first differ at the i-th power of the finite generator.
        want = ("exact", i - 1) if lam_max >= i else ("at_most", lam_max)
        got = (data["kind"], data["lambda"])
        return [] if got == want else [f"distance {got}, expected {want}"]

    def _rel_ball(self, spec, data, argv):
        key = (spec["group"], spec["radius"])
        if key not in self.balls:
            self.balls[key] = expected_ball(spec["group"], self.sigma, spec["radius"])
        want = self.balls[key]
        if data["count"] != len(want) or data["members"] != want:
            return [f"ball {key} has {data['count']} members, expected {len(want)}"]
        return []

    def _theorem(self, spec, data, argv):
        status = data["summary"]["status"]
        return [] if status == "verified" else [f"verify-theorem status {status!r}"]

    def _area(self, spec, data, argv):
        from markedgroups import Certificate, parse_presentation, parse_word, verify_certificate

        problems = []
        if data["value"] != spec["value"] or data["exact"] is not True:
            problems.append(f"area {data['value']}, expected {spec['value']}")
        pres = parse_presentation(pres_text([commutator(1, 2)], XY, self.sigma))
        word = parse_word(argv[argv.index("-w") + 1], pres.gen_names)
        cert = Certificate.from_json(pres, data["certificate"])
        if cert.size != data["value"] or not verify_certificate(pres, word, cert):
            problems.append("certificate does not re-verify")
        return problems
