"""Freely reduced words over a fixed marked generating tuple.

A letter is a nonzero signed integer: ``+j`` is the j-th generator and
``-j`` its inverse (1-based, ``j <= ngens``).  Every constructor reduces
its input, so a :class:`Word` is always freely reduced and two words are
equal iff their letter tuples are equal.

All enumeration and tie-breaking uses a single total order on letters,
``g1 < g1^-1 < g2 < g2^-1 < ...``.  It is written down once, as the code
of :func:`letters_to_str`: one character per letter, ``chr(2j - 1)`` for
``gj`` and ``chr(2j)`` for ``gj^-1``.  Words are ordered by length first,
then by their codes ("length-lex", :func:`letters_key`).  This makes
every stream and every report reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

__all__ = [
    "Word",
    "signed_letters",
    "make_word",
    "free_reduce",
    "conjugate",
    "enumerate_ball",
    "shell",
    "ball_size",
    "word_to_str",
]


def free_reduce(letters: Iterable[int]) -> tuple[int, ...]:
    """Cancel adjacent inverse pairs until none remain.

    Free reduction is confluent, so the result does not depend on the
    order in which cancellations are performed.
    """
    out: list[int] = []
    for x in letters:
        if out and out[-1] == -x:
            out.pop()
        else:
            out.append(x)
    return tuple(out)


def invert_letters(letters: tuple[int, ...]) -> tuple[int, ...]:
    """Inverse of a letter sequence: reverse and flip signs."""
    return tuple(-x for x in reversed(letters))


def _splice(prefix: tuple[int, ...], move: tuple[int, ...], suffix: tuple[int, ...]) -> tuple[int, ...]:
    # prefix, move and suffix are each reduced, so cancellation happens
    # only at the two seams and cascades; single pass, no full rescan.
    out = list(prefix)
    i, n = 0, len(move)
    while i < n and out and out[-1] == -move[i]:
        out.pop()
        i += 1
    out.extend(move[i:])
    j, ns = 0, len(suffix)
    while j < ns and out and out[-1] == -suffix[j]:
        out.pop()
        j += 1
    out.extend(suffix[j:])
    return tuple(out)


def signed_letters(ngens: int) -> tuple[int, ...]:
    """The signed letters of ``ngens`` generators in the documented letter order."""
    return tuple(x for g in range(1, ngens + 1) for x in (g, -g))


def letters_key(letters: tuple[int, ...]) -> tuple[int, str]:
    """Length-lex sort key for a raw letter tuple: its length, then its code."""
    return (len(letters), letters_to_str(letters))


def letters_to_str(letters: tuple[int, ...]) -> str:
    """The one letter code: one character per letter, in the letter order.

    ``x`` becomes ``chr(2*x - 1)`` and ``x^-1`` becomes ``chr(2*x)``, so
    ``(len(s), s)`` sorts length-lex and no code is 0, which is left free
    to mark a position past either end of a word.
    """
    return "".join([chr(2 * x - 1 if x > 0 else -2 * x) for x in letters])


def str_to_letters(s: str) -> tuple[int, ...]:
    """Inverse of :func:`letters_to_str`."""
    return tuple([(c + 1) // 2 if c & 1 else -(c // 2) for c in map(ord, s)])


def _check_letters(ngens: int, letters: Iterable[int]) -> None:
    for x in letters:
        if not isinstance(x, int) or x == 0 or abs(x) > ngens:
            raise ValueError(f"letter {x!r} out of range for {ngens} generator(s)")


@dataclass(frozen=True)
class Word:
    """A freely reduced word; the identity is the empty letter tuple.

    Instances are immutable values: safe to share, hash and use as dict
    keys.  Construct via :func:`make_word` when the input may need
    reduction; the constructor itself insists on already-reduced input.
    """

    ngens: int
    letters: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if self.ngens < 1:
            raise ValueError("a marked group needs at least one generator")
        _check_letters(self.ngens, self.letters)
        for i in range(len(self.letters) - 1):
            if self.letters[i] == -self.letters[i + 1]:
                raise ValueError("letters not freely reduced; use make_word()")

    @classmethod
    def _trusted(cls, ngens: int, letters: tuple[int, ...]) -> "Word":
        """A word from letters known to be reduced and in range; skips validation."""
        w = object.__new__(cls)
        object.__setattr__(w, "ngens", ngens)
        object.__setattr__(w, "letters", letters)
        return w

    def __len__(self) -> int:
        return len(self.letters)

    def __mul__(self, other: "Word") -> "Word":
        if self.ngens != other.ngens:
            raise ValueError("cannot multiply words over different markings")
        return Word(self.ngens, free_reduce(self.letters + other.letters))

    def inverse(self) -> "Word":
        return Word(self.ngens, invert_letters(self.letters))

    def exponent_sum(self, gen: int) -> int:
        """Signed number of occurrences of generator ``gen`` (1-based)."""
        if not 1 <= gen <= self.ngens:
            raise ValueError(f"generator {gen} out of range")
        return sum(1 if x == gen else -1 if x == -gen else 0 for x in self.letters)

    @property
    def is_cyclically_reduced(self) -> bool:
        return len(self.letters) < 2 or self.letters[0] != -self.letters[-1]


def make_word(ngens: int, letters: Iterable[int]) -> Word:
    """Build a word from a raw signed-index sequence, reducing it."""
    raw = tuple(letters)
    _check_letters(ngens, raw)
    return Word(ngens, free_reduce(raw))


def conjugate(u: Word, w: Word) -> Word:
    """Reduced form of ``u * w * u^-1``."""
    if u.ngens != w.ngens:
        raise ValueError("cannot conjugate words over different markings")
    return Word(u.ngens, free_reduce(u.letters + w.letters + invert_letters(u.letters)))


def shell(ngens: int, length: int) -> Iterator[tuple[int, ...]]:
    """Stream the reduced letter tuples of exactly the given length.

    Tuples appear in lexicographic order of the documented letter order,
    so chaining shells by increasing length yields length-lex order.
    Memory use is O(length): each shell is generated from the previous
    one lazily.
    """
    if length < 0:
        raise ValueError("length must be nonnegative")
    if length == 0:
        yield ()
        return
    alphabet = signed_letters(ngens)
    for prev in shell(ngens, length - 1):
        last = prev[-1] if prev else 0
        for x in alphabet:
            if x != -last:
                yield prev + (x,)


def enumerate_ball(ngens: int, radius: int) -> Iterator[Word]:
    """Every reduced word of length <= radius, once, in length-lex order."""
    if radius < 0:
        raise ValueError("radius must be nonnegative")
    if ngens < 1:
        raise ValueError("need at least one generator")
    # shell yields reduced, in-range tuples, so validation is skipped
    for length in range(radius + 1):
        for letters in shell(ngens, length):
            yield Word._trusted(ngens, letters)


def ball_size(ngens: int, radius: int) -> int:
    """Closed form 1 + sum_k 2m(2m-1)^(k-1) for the ball cardinality."""
    m = 2 * ngens
    return 1 + sum(m * (m - 1) ** (k - 1) for k in range(1, radius + 1))


def word_to_str(w: Word, names: tuple[str, ...]) -> str:
    """Render a word against generator names; the identity prints as ``1``.

    Runs of one letter collapse to a power, e.g. ``x y^-2``.  The output
    re-parses to the same word under the shared word grammar.
    """
    if len(names) != w.ngens:
        raise ValueError("name tuple does not match the word's marking")
    if not w.letters:
        return "1"
    parts: list[str] = []
    i = 0
    ls = w.letters
    while i < len(ls):
        j = i
        while j < len(ls) and ls[j] == ls[i]:
            j += 1
        count = j - i
        name = names[abs(ls[i]) - 1]
        power = count if ls[i] > 0 else -count
        parts.append(name if power == 1 else f"{name}^{power}")
        i = j
    return " ".join(parts)
