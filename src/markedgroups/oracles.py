"""Word-problem deciders for marked presentations.

Triviality of a word in a group is only semidecidable in general, so
every decider here carries an explicit soundness domain: the class of
presentations on which its verdicts are exact.  :func:`build_oracle`
refuses an oracle it can show is outside that domain, for a top-level
spec and a product part alike: one that calls a relator nontrivial, or
one whose kind's own precondition fails (every generator square a
relator for ``rewriting``, one order per generator for ``abelian``),
or a ``coset`` enumeration that does not complete
(:class:`CosetLimitExceeded`).  Every refusal is a ValueError and names
the whole spec, even a product part's; one raised while building starts with
``oracle spec '<spec>': ``.  It looks no further: ``abelian:0,0`` on two
generators without relators is built, and calls their commutator
trivial.  Every oracle answers through :meth:`Oracle.decide`, which
returns True iff the word is trivial; an oracle that cannot tell raises
:class:`UnknownVerdictError` instead of guessing.  Only the generic
fallback (bounded derivation search, sound everywhere) and a product
with such a part can raise it.

Every exact oracle except a product with an inexact part is also a state
automaton over the signed generators:

    start(ngens)             ``initial``, the state of the empty word, or
                             None when the oracle has no automaton (then
                             consumers fall back to deciding words one by
                             one)
    step(state, letter)      the state after one more letter
    identity_distance(state) a consistent lower bound on the letters
                             needed to get back to the identity: one step
                             changes it by at most 1, and it is 0 exactly
                             when the word read so far is trivial

States are hashable.  Folding ``step`` over any word, reduced or not,
reaches a state at distance 0 exactly when the word is trivial; that fold
is the default ``decide``, the only word rule of the coset and rewriting
oracles.  The states, oracle by oracle: the exponent vector reduced
modulo the orders (abelian), the row index with distances from one
breadth-first search over the table (coset), the stack normal form
(rewriting), the reduced word (free) and the tuple of component states
(product).

Each kind sets ``ngens``, the generator count of the marking it was
built for, and ``initial``.  :meth:`Oracle.start` is the one marking
check: every walk and every ``decide`` goes through it, so a word on
another generator count raises ValueError.

Oracle spec strings (used by family registries, manifests and the CLI):

    abelian:0,5              exponent sums, 0 meaning infinite order
    coset[:max_cosets]       complete coset table (finite groups), of at
                             most 10000 cosets unless given
    rewriting:involutions    stack normal form of free products of Z/2
    derivation[:len,nodes]   bounded derivation search, semidecider
    free                     no relators: only the empty word is trivial
    product:x=SPEC;y=SPEC    componentwise over a generator partition, each
                             part against the relators on its generators
"""

from __future__ import annotations

from .area import AreaNotFound, Caps, area_search
from .coset import CayleyTable, CosetLimitExceeded, coset_enumerate
from .presentations import Presentation
from .words import Word, free_reduce

__all__ = [
    "Oracle",
    "AbelianOracle",
    "CosetTableOracle",
    "RewritingOracle",
    "BoundedDerivationOracle",
    "FreeOracle",
    "ProductOracle",
    "UnknownVerdictError",
    "CosetLimitExceeded",
    "build_oracle",
]


class UnknownVerdictError(RuntimeError):
    """An exact answer was required but the oracle ran out of budget."""

    def __init__(self, word: Word, oracle: "Oracle"):
        super().__init__(
            f"oracle {oracle.spec!r} returned unknown for a word of length {len(word)}; "
            "raise the caps or use an exact oracle"
        )
        self.word = word
        self.oracle = oracle


class Oracle:
    """Base decider; immutable after construction, decide() is pure."""

    spec: str
    soundness: str
    ngens: int
    initial = None

    def decide(self, w: Word) -> bool:
        """Fold ``step`` over ``w``: trivial iff the state ends at distance 0."""
        state = self.start(w.ngens)
        if state is None:
            raise NotImplementedError
        for x in w.letters:
            state = self.step(state, x)
        return self.identity_distance(state) == 0

    def start(self, ngens: int):
        """State of the empty word over ``ngens`` generators; None: no automaton.

        Raises ValueError unless ``ngens`` is the generator count the
        oracle was built for.
        """
        if ngens != self.ngens:
            raise ValueError(f"oracle {self.spec!r} reads words on {self.ngens} generator(s), not {ngens}")
        return self.initial

    def step(self, state, letter: int):
        """State after reading one more letter."""
        raise NotImplementedError

    def identity_distance(self, state) -> int:
        """Consistent lower bound on the letters back to the identity; 0 iff trivial."""
        raise NotImplementedError


class AbelianOracle(Oracle):
    """Exact for abelian groups with the given generator orders.

    ``orders[j]`` is the order of the j-th generator, 0 meaning infinite;
    a word is trivial iff every exponent sum vanishes modulo its order.
    """

    def __init__(self, orders: tuple[int, ...]):
        if not orders:
            raise ValueError("orders vector must be nonempty")
        for o in orders:
            if o < 0 or o == 1:
                raise ValueError(f"invalid generator order {o}; use 0 or >= 2")
        self.orders = tuple(orders)
        self.ngens = len(orders)
        self.initial = (0,) * self.ngens
        self.spec = "abelian:" + ",".join(str(o) for o in orders)
        self.soundness = (
            "abelian groups presented by all pairwise commutators plus "
            f"generator power relators with orders {orders}"
        )

    def decide(self, w: Word) -> bool:
        self.start(w.ngens)
        for j, order in enumerate(self.orders, start=1):
            total = w.exponent_sum(j)
            if (total != 0) if order == 0 else (total % order != 0):
                return False
        return True

    def step(self, state: tuple[int, ...], letter: int) -> tuple[int, ...]:
        j = abs(letter) - 1
        e = state[j] + (1 if letter > 0 else -1)
        if self.orders[j]:
            e %= self.orders[j]
        return state[:j] + (e,) + state[j + 1 :]

    def identity_distance(self, state: tuple[int, ...]) -> int:
        return sum(min(e, o - e) if o else abs(e) for e, o in zip(state, self.orders))


class CosetTableOracle(Oracle):
    """Exact for finite groups: trace words through the regular action."""

    def __init__(self, table: CayleyTable, spec: str | None = None):
        self.table = table
        self.distances = table.distances()
        self.ngens, self.initial = table.ngens, 0
        self.spec = spec or "coset"
        self.soundness = f"the finite group with {table.cosets} elements given by its presentation"

    def step(self, state: int, letter: int) -> int:
        return self.table.act(state, letter)

    def identity_distance(self, state: int) -> int:
        return self.distances[state]


class RewritingOracle(Oracle):
    """Exact for free products of order-2 groups, e.g. the infinite dihedral group.

    The rules x^-1 -> x and xx -> 1, one pair per generator, are
    confluent and terminating, so every word has a unique normal form:
    map each letter to its generator, then cancel adjacent equal letters
    in one stack pass.  The state is that stack.
    """

    def __init__(self, ngens: int) -> None:
        self.ngens, self.initial = ngens, ()
        self.spec = "rewriting:involutions"
        self.soundness = "free products of order-2 groups (every relator a generator square)"

    def step(self, state: tuple[int, ...], letter: int) -> tuple[int, ...]:
        g = abs(letter)
        return state[:-1] if state and state[-1] == g else state + (g,)

    def identity_distance(self, state: tuple[int, ...]) -> int:
        return len(state)


class FreeOracle(Oracle):
    """Exact for presentations with no relators: trivial means empty."""

    def __init__(self, ngens: int) -> None:
        self.ngens, self.initial = ngens, ()
        self.spec = "free"
        self.soundness = "free groups (presentations with an empty relator list)"

    def decide(self, w: Word) -> bool:
        self.start(w.ngens)
        return not w.letters

    def step(self, state: tuple[int, ...], letter: int) -> tuple[int, ...]:
        return state[:-1] if state and state[-1] == -letter else state + (letter,)

    def identity_distance(self, state: tuple[int, ...]) -> int:
        return len(state)


class BoundedDerivationOracle(Oracle):
    """Semidecider: search for a derivation within caps.

    Sound for every presentation; never answers nontrivial, because the
    search can only exhaust its budget, and then it raises.
    """

    def __init__(self, pres: Presentation, caps: Caps):
        self.pres = pres
        self.caps = caps
        self.ngens = pres.ngens
        self.spec = f"derivation:{caps.length_cap},{caps.node_cap}"
        self.soundness = "any presentation; a trivial verdict rests on a derivation found within the caps"

    def decide(self, w: Word) -> bool:
        self.start(w.ngens)
        if not w.letters:
            return True
        if self.pres.relators and len(w) <= self.caps.length_cap:
            try:
                area_search(self.pres, w, self.caps.length_cap, self.caps.node_cap)
                return True
            except AreaNotFound:
                pass
        raise UnknownVerdictError(w, self)


class ProductOracle(Oracle):
    """Componentwise decision over a generator partition.

    Valid only when the group is the direct product of the subgroups
    generated by each part; each component word is the projection of the
    input onto that part's generators.  ``gen_names`` names the
    generators of the whole marking, so the spec round-trips.
    """

    def __init__(self, components: tuple[tuple[Oracle, tuple[int, ...]], ...], gen_names: tuple[str, ...]):
        ngens = len(gen_names)
        seen: set[int] = set()
        for _, part in components:
            for g in part:
                if not 1 <= g <= ngens or g in seen:
                    raise ValueError("parts must partition the generators")
                seen.add(g)
        if len(seen) != ngens:
            raise ValueError("parts must cover every generator")
        # refuses a part whose oracle reads another generator count
        initials = tuple(oracle.start(len(part)) for oracle, part in components)
        self.initial = None if None in initials else initials
        self.components = components
        # letter -> (component index, signed letter of the component's marking)
        self.routes = {
            x: (k, j if x > 0 else -j)
            for k, (_, part) in enumerate(components)
            for j, g in enumerate(part, start=1)
            for x in (g, -g)
        }
        self.ngens = ngens
        self.spec = "product:" + ";".join(
            f"{','.join(gen_names[g - 1] for g in part)}={oracle.spec}" for oracle, part in components
        )
        self.soundness = "direct products split along the declared generator partition"

    def decide(self, w: Word) -> bool:
        self.start(w.ngens)
        routed = [self.routes[x] for x in w.letters]
        unknown = False
        for k, (oracle, part) in enumerate(self.components):
            projected = free_reduce(x for j, x in routed if j == k)
            try:
                if not oracle.decide(Word(len(part), projected)):
                    return False
            except UnknownVerdictError:
                unknown = True
        if unknown:
            raise UnknownVerdictError(w, self)
        return True

    def step(self, state: tuple, letter: int) -> tuple:
        k, x = self.routes[letter]
        return state[:k] + (self.components[k][0].step(state[k], x),) + state[k + 1 :]

    def identity_distance(self, state: tuple) -> int:
        return sum(oracle.identity_distance(s) for (oracle, _), s in zip(self.components, state))


def build_oracle(spec: str, pres: Presentation) -> Oracle:
    """Construct an oracle from its spec string, against a presentation.

    Each spec branch, a product part's included, first refuses its
    kind's unmet precondition (see the module doc); then an oracle that
    calls a relator of ``pres`` nontrivial is refused (ValueError).
    """
    spec = spec.strip()
    try:
        oracle = _from_spec(spec, pres)
    except ValueError as err:
        raise type(err)(f"oracle spec {spec!r}: {err}") from None
    for r in pres.relators:
        try:
            trivial = oracle.decide(r)
        except UnknownVerdictError:
            continue
        if not trivial:
            raise ValueError(
                f"oracle spec {spec!r} calls the relator {pres.word_str(r)} nontrivial: "
                f"it is exact only for {oracle.soundness}"
            )
    return oracle


def _from_spec(spec: str, pres: Presentation) -> Oracle:
    head, _, rest = spec.partition(":")

    def ints(count: int, usage: str) -> list[int]:
        """The ``count`` comma-separated integers of the field; ValueError naming ``usage``."""
        try:
            values = [int(part) for part in rest.split(",")]
            if len(values) == count:
                return values
        except ValueError:
            pass
        raise ValueError(f"{head} takes {usage}, got {rest!r}")

    if head == "abelian":
        return AbelianOracle(tuple(ints(pres.ngens, "one integer order per generator")))
    if head == "coset":
        max_cosets = ints(1, "one integer 'max_cosets'")[0] if rest else 10000
        return CosetTableOracle(coset_enumerate(pres, max_cosets), spec=f"coset:{max_cosets}")
    if head == "rewriting":
        if rest != "involutions":
            raise ValueError(f"rewriting takes 'involutions', got {rest!r}")
        relators = {r.letters for r in pres.relators}
        for g, name in enumerate(pres.gen_names, start=1):
            if (g, g) not in relators and (-g, -g) not in relators:
                raise ValueError(f"rewriting needs the relator {name}^2, which is missing")
        return RewritingOracle(pres.ngens)
    if head == "derivation":
        length_cap, node_cap = ints(2, "two integers 'length_cap,node_cap'") if rest else (16, 50000)
        if length_cap < 0 or node_cap < 1:
            raise ValueError("derivation needs length_cap >= 0 and node_cap >= 1")
        return BoundedDerivationOracle(pres, Caps(length_cap, node_cap))
    if head == "free":
        return FreeOracle(pres.ngens)
    if head == "product":
        components = []
        for item in rest.split(";"):
            names, _, sub = item.partition("=")
            part = []
            for name in (n.strip() for n in names.split(",")):
                if name not in pres.gen_names:
                    raise ValueError(f"unknown generator {name!r} (the presentation has {', '.join(pres.gen_names)})")
                part.append(pres.gen_names.index(name) + 1)
            # the relators on this part's letters alone, in the part's marking
            index = {x: j if x > 0 else -j for j, g in enumerate(part, start=1) for x in (g, -g)}
            sub_pres = Presentation(
                tuple(pres.gen_names[g - 1] for g in part),
                tuple(
                    Word(len(part), tuple(index[x] for x in r.letters))
                    for r in pres.relators
                    if all(x in index for x in r.letters)
                ),
            )
            components.append((_from_spec(sub.strip(), sub_pres), tuple(part)))
        return ProductOracle(tuple(components), pres.gen_names)
    raise ValueError(f"unknown kind {head!r}")

