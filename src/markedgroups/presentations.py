"""Finite group presentations over a marked alphabet.

The presentation file format is line oriented (UTF-8, ``#`` starts a
comment):

    gens: x y          # generator names; declaration order IS the marking
    rels: [x,y]; y^3   # `;`-separated relator expressions; may be empty

Word grammar, shared by relators and command-line word arguments:

* generators are identifiers, juxtaposition multiplies: ``x y``;
* ``^k`` is a power for any nonzero integer k: ``x^-1``, ``(a b)^3``;
* an uppercase single letter is the inverse of the matching lowercase
  single-letter generator: ``X`` for ``x^-1``;
* a run of single-letter names may be written without spaces: ``abA``;
* ``[u,v]`` is the commutator ``u v u^-1 v^-1``;
* ``1`` is the identity.

:func:`parse_presentation` reduces relators freely and cyclically, drops
duplicates, and rejects a relator that reduces to the empty word;
:class:`Presentation` refuses a relator that is empty, not cyclically
reduced or a duplicate.  Parse errors pass 0-based offsets, which
:class:`PresentationSyntaxError` reports as 1-based columns; a relator's
own errors point at its first non-blank character.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .words import (
    Word,
    free_reduce,
    invert_letters,
    letters_key,
    word_to_str,
)

__all__ = [
    "Presentation",
    "PresentationSyntaxError",
    "parse_presentation",
    "parse_word",
    "read_presentation",
    "max_relator_length",
    "symmetrize",
    "splice_symmetries",
    "apply_symmetry",
]

_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*$")
_TOKEN_RE = re.compile(r"(?P<ws>\s+)|(?P<name>[A-Za-z_][A-Za-z0-9_]*)|(?P<int>-?\d+)|(?P<sym>[\^\(\)\[\],])")


class PresentationSyntaxError(ValueError):
    """Syntax error with source position, 1-based line and column."""

    def __init__(self, message: str, line: int, offset: int):
        self.line, self.column = line, offset + 1
        super().__init__(f"line {line}, column {self.column}: {message}")


def _tokenize(text: str, line: int, col_base: int) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise PresentationSyntaxError(
                f"unexpected character {text[pos]!r}", line, col_base + pos
            )
        pos = m.end()
        kind = m.lastgroup
        if kind != "ws":
            tokens.append((kind, m.group(), col_base + m.start()))
    return tokens


class _WordParser:
    """Recursive-descent parser for the word grammar above."""

    def __init__(self, tokens, gen_names: tuple[str, ...], line: int, end_col: int):
        self.tokens = tokens
        self.pos = 0
        self.names = gen_names
        self.index = {name: j + 1 for j, name in enumerate(gen_names)}
        self.line = line
        self.end_col = end_col

    def _peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def _next(self):
        tok = self._peek()
        if tok is None:
            raise PresentationSyntaxError("unexpected end of expression", self.line, self.end_col)
        self.pos += 1
        return tok

    def _error(self, message, tok=None):
        col = tok[2] if tok else self.end_col
        raise PresentationSyntaxError(message, self.line, col)

    def _letter_for(self, char: str, tok) -> int:
        if char in self.index:
            return self.index[char]
        if char.isupper() and char.lower() in self.index and len(char.lower()) == 1:
            return -self.index[char.lower()]
        self._error(f"unknown generator {char!r}", tok)

    def parse(self, stop=()) -> list[int]:
        letters: list[int] = []
        while True:
            tok = self._peek()
            if tok is None or (tok[0] == "sym" and tok[1] in stop):
                return letters
            letters.extend(self._factor())

    def _factor(self) -> list[int]:
        tok = self._next()
        kind, text, _ = tok
        prefix: list[int] = []
        if kind == "name":
            if text in self.index:
                atom = [self.index[text]]
            elif len(text) == 1:
                atom = [self._letter_for(text, tok)]
            else:
                # split a multi-letter token into single-character names;
                # a trailing power binds to the last character only
                chars = [self._letter_for(c, tok) for c in text]
                prefix, atom = chars[:-1], [chars[-1]]
        elif kind == "int" and text == "1":
            atom = []
        elif kind == "sym" and text == "(":
            atom = self.parse(stop=(")",))
            closing = self._next()
            if closing[1] != ")":
                self._error("expected ')'", closing)
        elif kind == "sym" and text == "[":
            u = self.parse(stop=(",",))
            comma = self._next()
            if comma[1] != ",":
                self._error("expected ',' in commutator", comma)
            v = self.parse(stop=("]",))
            closing = self._next()
            if closing[1] != "]":
                self._error("expected ']'", closing)
            atom = u + v + list(invert_letters(tuple(u))) + list(invert_letters(tuple(v)))
        else:
            self._error(f"unexpected token {text!r}", tok)
        nxt = self._peek()
        if nxt is not None and nxt[0] == "sym" and nxt[1] == "^":
            self._next()
            power_tok = self._next()
            if power_tok[0] != "int":
                self._error("expected an integer exponent", power_tok)
            k = int(power_tok[1])
            if k == 0:
                self._error("zero exponent is not allowed", power_tok)
            base = atom if k > 0 else list(invert_letters(tuple(atom)))
            try:
                atom = base * abs(k)
            except (OverflowError, MemoryError):
                # Python refuses a count past an index, or a list past the
                # address space, before it allocates anything
                self._error("exponent too large to expand", power_tok)
        return prefix + atom


def parse_word(text: str, gen_names: tuple[str, ...], line: int = 1, col_base: int = 0) -> Word:
    """Parse a word expression against the given marking."""
    tokens = _tokenize(text, line, col_base)
    parser = _WordParser(tokens, gen_names, line, col_base + len(text))
    try:
        letters = parser.parse()
    except RecursionError:
        raise PresentationSyntaxError("expression nested too deeply", line, col_base) from None
    if parser.pos != len(tokens):
        parser._error(f"unexpected token {tokens[parser.pos][1]!r}", tokens[parser.pos])
    return Word(len(gen_names), free_reduce(letters))


def _cyclic_reduce(letters: tuple[int, ...]) -> tuple[int, ...]:
    while len(letters) >= 2 and letters[0] == -letters[-1]:
        letters = letters[1:-1]
    return letters


@dataclass(frozen=True)
class Presentation:
    """Generator names plus cyclically reduced relators.

    The declaration order of the generators is the marking; permuting it
    gives a different marked group.
    """

    gen_names: tuple[str, ...]
    relators: tuple[Word, ...]

    def __post_init__(self) -> None:
        if not self.gen_names:
            raise ValueError("a presentation needs at least one generator")
        seen = set()
        for gname in self.gen_names:
            if not _NAME_RE.match(gname):
                raise ValueError(f"invalid generator name {gname!r}")
            if gname in seen:
                raise ValueError(f"duplicate generator name {gname!r}")
            seen.add(gname)
        rel_seen = set()
        for r in self.relators:
            if r.ngens != self.ngens:
                raise ValueError("relator marking does not match the presentation")
            if not r.letters:
                raise ValueError("empty relator")
            if not r.is_cyclically_reduced:
                raise ValueError(f"relator {r.letters} is not cyclically reduced")
            if r in rel_seen:
                raise ValueError(f"duplicate relator {r.letters}")
            rel_seen.add(r)

    @property
    def ngens(self) -> int:
        return len(self.gen_names)

    def word_str(self, w: Word) -> str:
        return word_to_str(w, self.gen_names)

    def to_text(self) -> str:
        """Canonical file form; parses back to an equal presentation."""
        rels = "; ".join(self.word_str(r) for r in self.relators)
        return f"gens: {' '.join(self.gen_names)}\nrels: {rels}\n"


def parse_presentation(text: str) -> Presentation:
    """Parse the two-line presentation format described in the module doc."""
    meaningful: list[tuple[int, str]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.split("#", 1)[0].rstrip()
        if stripped.strip():
            meaningful.append((lineno, stripped))
    if not meaningful:
        raise PresentationSyntaxError("missing 'gens:' line", 1, 0)
    lineno, gens_line = meaningful[0]
    if not gens_line.lstrip().startswith("gens:"):
        raise PresentationSyntaxError("expected 'gens:'", lineno, 0)
    field = gens_line.split(":", 1)[1]
    names: tuple[str, ...] = ()
    for m in re.finditer(r"\S+", field):
        gname, col = m.group(), len(gens_line) - len(field) + m.start()
        if not _NAME_RE.match(gname):
            raise PresentationSyntaxError(f"invalid generator name {gname!r}", lineno, col)
        if gname in names:
            raise PresentationSyntaxError(f"duplicate generator name {gname!r}", lineno, col)
        names += (gname,)
    if not names:
        raise PresentationSyntaxError("no generators declared", lineno, len(gens_line))
    if len(meaningful) < 2:
        raise PresentationSyntaxError("missing 'rels:' line", lineno + 1, 0)
    rel_lineno, rels_line = meaningful[1]
    if not rels_line.lstrip().startswith("rels:"):
        raise PresentationSyntaxError("expected 'rels:'", rel_lineno, 0)
    if len(meaningful) > 2:
        extra_lineno, _ = meaningful[2]
        raise PresentationSyntaxError("unexpected extra line", extra_lineno, 0)
    body = rels_line.split(":", 1)[1]
    col_base = len(rels_line) - len(body)
    relators: list[Word] = []
    cursor = 0
    for chunk in body.split(";"):
        relator = chunk.lstrip()
        start = col_base + cursor + len(chunk) - len(relator)
        cursor += len(chunk) + 1
        if not relator:
            continue
        w = parse_word(relator, names, line=rel_lineno, col_base=start)
        if not w.letters:
            raise PresentationSyntaxError("relator reduces to the empty word", rel_lineno, start)
        relators.append(Word(len(names), _cyclic_reduce(w.letters)))
    return Presentation(names, tuple(dict.fromkeys(relators)))


def read_presentation(path) -> Presentation:
    """Parse the UTF-8 presentation file at ``path``; a ValueError names the path.

    A leading byte-order mark, as some editors write, is skipped.
    """
    try:
        with open(path, encoding="utf-8-sig") as handle:
            return parse_presentation(handle.read())
    except ValueError as err:  # a syntax error, or bytes that are not UTF-8
        raise ValueError(f"{path}: {err}") from None


def max_relator_length(pres: Presentation) -> int | None:
    """Longest relator length, or None when there are no relators.

    A None here means downstream machinery that needs the constant must
    refuse rather than guess.
    """
    if not pres.relators:
        return None
    return max(len(r) for r in pres.relators)


def symmetrize(pres: Presentation) -> tuple[tuple[tuple[int, ...], int, int, int], ...]:
    """Closure of the relator set under inversion and rotation, as splice moves.

    Each move is ``(letters, relator index, sign, rotation)``: the letters
    are ``rho[rotation:] + rho[:rotation]`` with ``rho`` the relator, or
    its inverse when the sign is -1.  Moves are unique by letters, sorted
    by :func:`~markedgroups.words.letters_key`, and keep the first origin
    in (index, sign=+1 first, rotation) order when several coincide.
    """
    origin: dict[tuple[int, ...], tuple[int, int, int]] = {}
    for idx, rel in enumerate(pres.relators):
        for sign in (1, -1):
            rho = rel.letters if sign == 1 else invert_letters(rel.letters)
            for t in range(len(rho)):
                origin.setdefault(rho[t:] + rho[:t], (idx, sign, t))
    return tuple((mv, *origin[mv]) for mv in sorted(origin, key=letters_key))


# Bounds the maps tried per class in a Dehn sweep; all 384 signed permutations
# of four generators fit.  See splice_symmetries.
_SYMMETRY_LIMIT = 1024


def splice_symmetries(pres: Presentation) -> tuple[tuple[int, ...], ...]:
    """Signed generator permutations that map the symmetrized relators onto themselves.

    A symmetry is the tuple of signed images of generators ``1..ngens``.
    Each one maps splice edges to splice edges and keeps word lengths, so
    it preserves cap-restricted areas.  Generators are assigned in index
    order; a partial map is dropped as soon as a move whose generators
    are all assigned has an image outside the move set.  The identity
    comes first.  Enumeration stops after ``_SYMMETRY_LIMIT`` maps (only
    reachable when few relators constrain many generators); callers that
    take the least image under the maps found still stay in the orbit.
    """
    moves = {mv for mv, *_ in symmetrize(pres)}
    k = pres.ngens
    # Moves are checked once their largest generator index is assigned.
    checks: list[list[tuple[int, ...]]] = [[] for _ in range(k + 1)]
    for mv in moves:
        checks[max(abs(x) for x in mv)].append(mv)
    images = [0] * k
    used = [False] * (k + 1)
    found: list[tuple[int, ...]] = []

    def extend(g: int) -> None:
        if g > k:
            found.append(tuple(images))
            return
        for h in range(1, k + 1):
            if used[h]:
                continue
            used[h] = True
            for image in (h, -h):
                images[g - 1] = image
                if all(apply_symmetry(images, mv) in moves for mv in checks[g]):
                    extend(g + 1)
                if len(found) >= _SYMMETRY_LIMIT:
                    return
            used[h] = False

    extend(1)
    return tuple(found)


def apply_symmetry(sym, letters: tuple[int, ...]) -> tuple[int, ...]:
    """Image of a raw letter tuple under a symmetry from :func:`splice_symmetries`.

    ``sym[j - 1]`` is the image of generator ``j``; inverse letters map to
    the inverse of that image.
    """
    return tuple(sym[x - 1] if x > 0 else -sym[-x - 1] for x in letters)
