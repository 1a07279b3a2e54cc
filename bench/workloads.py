"""Workload definitions: seeded inputs, CLI job lists and expected answers.

Every workload is a fixed list of CLI jobs over a few small groups.  The
seed draws one signed permutation of the generators (``x -> y^-1``,
``y -> x`` and so on) and applies it to every presentation, manifest,
word and oracle spec the benchmark writes.  A signed permutation is an
automorphism of the free group that preserves word length, so Dehn
values, areas, distances and ball sizes are the same for every seed,
and the search work differs only in tie-breaking order.

This module uses only the standard library and never imports the
package, so the expected answers do not depend on the code under test.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

WORKLOADS = ("dehn_sweep", "ball_scan", "theorem_harness", "area_deep")

# Dehn value of the dihedral member i=5 at n=6 with length cap 16 (the
# same value as under the default cap of 26).  There is no closed form to
# check against, so the value the package computed when this benchmark
# was written is fixed here.
DIHEDRAL5_DELTA6 = 3

# (a, b) for the area_deep words [x^a, y^b]; the cap is 2(a+b)+2.
AREA_DEEP_WORDS = ((3, 3), (2, 4))


@dataclass(frozen=True)
class SignedPerm:
    """Generator j (1-based) maps to signs[j-1] * (perm[j-1] + 1)."""

    perm: tuple[int, ...]
    signs: tuple[int, ...]

    @classmethod
    def draw(cls, seed: int, ngens: int = 2) -> "SignedPerm":
        rng = random.Random(seed)
        perm = list(range(ngens))
        rng.shuffle(perm)
        return cls(tuple(perm), tuple(rng.choice((1, -1)) for _ in range(ngens)))

    def letter(self, x: int) -> int:
        j = abs(x) - 1
        image = self.signs[j] * (self.perm[j] + 1)
        return image if x > 0 else -image

    def word(self, letters) -> tuple[int, ...]:
        return tuple(self.letter(x) for x in letters)

    def inverse_word(self, letters) -> tuple[int, ...]:
        back = {self.letter(s * (j + 1)): s * (j + 1) for j in range(len(self.perm)) for s in (1, -1)}
        return tuple(back[x] for x in letters)

    def orders(self, orders: tuple[int, ...]) -> tuple[int, ...]:
        """Generator orders after the map; signs do not change an order."""
        out = [0] * len(orders)
        for j, order in enumerate(orders):
            out[self.perm[j]] = order
        return tuple(out)


def render(letters, names) -> str:
    """Word text in the package grammar; runs collapse to powers, e.g. ``x y^-2``."""
    if not letters:
        return "1"
    parts = []
    i = 0
    while i < len(letters):
        j = i
        while j < len(letters) and letters[j] == letters[i]:
            j += 1
        name = names[abs(letters[i]) - 1]
        power = (j - i) if letters[i] > 0 else -(j - i)
        parts.append(name if power == 1 else f"{name}^{power}")
        i = j
    return " ".join(parts)


def parse_rendered(text: str, names) -> tuple[int, ...]:
    """Inverse of :func:`render` (the form the package prints words in)."""
    if text == "1":
        return ()
    out = []
    for token in text.split():
        name, _, power = token.partition("^")
        k = int(power) if power else 1
        g = names.index(name) + 1
        out.extend([g if k > 0 else -g] * abs(k))
    return tuple(out)


def commutator(x: int, y: int) -> tuple[int, ...]:
    return (x, y, -x, -y)


XY = ("x", "y")
AB = ("a", "b")


def pres_text(relators, names, sigma: SignedPerm) -> str:
    rels = "; ".join(render(sigma.word(r), names) for r in relators)
    return f"gens: {' '.join(names)}\nrels: {rels}\n"


def z2_delta(n: int) -> int:
    """Dehn function of Z^2 = <x, y | [x, y]>: floor(m/2) * ceil(m/2), m = floor(n/2)."""
    m = n // 2
    return (m // 2) * ((m + 1) // 2)


@dataclass(frozen=True)
class Job:
    argv: list[str]
    check: dict  # what the answer must be; see checks.py


def _dihedral_manifest(sigma: SignedPerm) -> dict:
    a, b = sigma.letter(1), sigma.letter(2)
    rels = f"{render((a, a), AB)}; {render((b, b), AB)}; ({render((a, b), AB)})^$i"
    return {
        "name": "dihedral",
        "valid_i": 2,
        "notes": "dihedral family under a seeded signed generator permutation",
        "limit": {"presentation": "dihedral_limit.pres", "oracle": "rewriting:involutions"},
        "member_template": {"presentation": f"gens: a b\nrels: {rels}", "oracle": "coset"},
    }


def _zxz_manifest(sigma: SignedPerm) -> dict:
    y = sigma.letter(2)
    rels = f"{render(sigma.word(commutator(1, 2)), XY)}; {XY[abs(y) - 1]}^$i"
    return {
        "name": "zxz",
        "valid_i": 2,
        "notes": "Z x Z/i under a seeded signed generator permutation",
        "limit": {"presentation": "zxz_limit.pres", "oracle": "abelian:0,0"},
        "member_template": {
            "presentation": f"gens: x y\nrels: {rels}",
            "oracle": "abelian:" + ",".join("$i" if o else "0" for o in sigma.orders((0, 1))),
        },
    }


def input_texts(sigma: SignedPerm) -> dict[str, str]:
    """Every presentation and manifest any workload uses, by file name."""
    return {
        "z2.pres": pres_text([commutator(1, 2)], XY, sigma),
        "zz3.pres": pres_text([commutator(1, 2), (2, 2, 2)], XY, sigma),
        "dihedral5.pres": pres_text([(1, 1), (2, 2), (1, 2) * 5], AB, sigma),
        "dihedral_limit.pres": pres_text([(1, 1), (2, 2)], AB, sigma),
        "zxz_limit.pres": pres_text([commutator(1, 2)], XY, sigma),
        "dihedral.json": json.dumps(_dihedral_manifest(sigma), indent=2),
        "zxz.json": json.dumps(_zxz_manifest(sigma), indent=2),
    }


def jobs(workload: str, sigma: SignedPerm, workdir: Path) -> list[Job]:
    """The workload's CLI job list over the input files in ``workdir``.

    argv excludes the program name.  The result cache is a new directory
    under ``workdir``, empty until the first job writes to it.
    """
    common = ["--format", "json", "--cache-dir", str(workdir / "cache")]
    p = {name: str(workdir / name) for name in input_texts(sigma)}
    out: list[Job] = []
    if workload == "dehn_sweep":
        out.append(Job(
            ["dehn", "-p", p["z2.pres"], "--oracle", "abelian:0,0", "--n", "4,6,8",
             "--length-cap", "10", "--workers", "1", *common],
            {"type": "dehn", "group": "z2", "values": {n: z2_delta(n) for n in (4, 6, 8)}},
        ))
        out.append(Job(
            ["dehn", "-p", p["dihedral5.pres"], "--oracle", "coset", "--n", "6",
             "--length-cap", "16", "--workers", "1", *common],
            {"type": "dehn", "group": "dihedral5", "values": {6: DIHEDRAL5_DELTA6}},
        ))
    elif workload == "ball_scan":
        # dist stops at the first word the two groups disagree on.  For zxz
        # that word is a power of the finite-order generator, whose place
        # in length-lex order moves when the seed swaps x and y (79k or
        # 197k decides at lambda_max 10).  Scanning to 9 < i finishes the
        # ball, so every seed does the same work.
        out.append(Job(
            ["converge", "--family", p["dihedral.json"], "--i", "3..6", "--lambda-max", "8", *common],
            {"type": "converge", "family": "dihedral", "indices": [3, 4, 5, 6], "lambda_max": 8},
        ))
        out.append(Job(
            ["rel-ball", "--family", p["dihedral.json"], "--i", "8", "--radius", "9", *common],
            {"type": "rel_ball", "group": "dihedral8", "radius": 9},
        ))
        out.append(Job(
            ["dist", "--family", p["zxz.json"], "--i", "10", "--lambda-max", "9", *common],
            {"type": "dist", "family": "zxz", "i": 10, "lambda_max": 9},
        ))
        x, y = XY[abs(sigma.letter(1)) - 1], XY[abs(sigma.letter(2)) - 1]
        out.append(Job(
            ["rel-ball", "-p", p["zz3.pres"], "--oracle", f"product:{x}=abelian:0;{y}=abelian:3",
             "--radius", "8", *common],
            {"type": "rel_ball", "group": "zz3", "radius": 8},
        ))
    elif workload == "theorem_harness":
        for family, indices, radii in (("dihedral", "6", "4,6"), ("zxz", "3..6", "2,4")):
            out.append(Job(
                ["verify-theorem", "--family", p[f"{family}.json"], "--i", indices, "--n", radii,
                 "--workers", "2", *common],
                {"type": "theorem"},
            ))
    elif workload == "area_deep":
        for a, b in AREA_DEEP_WORDS:
            word = sigma.word((1,) * a + (2,) * b + (-1,) * a + (-2,) * b)
            out.append(Job(
                ["area", "-p", p["z2.pres"], "-w", render(word, XY),
                 "--length-cap", str(2 * (a + b) + 2), *common],
                {"type": "area", "value": a * b},
            ))
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return out
