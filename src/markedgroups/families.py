"""Registry of parametric convergent sequences of marked groups.

Each family pairs a finitely presented limit with a member template
parametrised by an index i, plus exact word-problem oracles for both
sides.  Members and limit share the marking, and every member in the
valid range is a quotient of the limit (more relations, same marking).

The built-in families cover three distinct regimes:

* cyclicZ: Z/iZ converging to Z; the limit is free, so the inequality
  harness refuses it (L undefined) and it serves distance and Dehn
  demonstrations only.
* zxz: Z x Z/iZ converging to Z x Z, an abelian limit with nonzero
  Dehn values.
* dihedral: finite dihedral groups converging to the infinite dihedral
  group, non-abelian members with a rewriting-system limit oracle.

User-defined families load from a JSON manifest; see load_manifest.
A member that cannot be built from its template raises ValueError
naming ``family '<name>' member <i>``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from string import Template

from .oracles import Oracle, build_oracle
from .presentations import Presentation, parse_presentation, read_presentation

__all__ = ["FamilySpec", "builtin_families", "get_family", "load_manifest"]


@dataclass(frozen=True)
class FamilySpec:
    name: str
    valid_i: int
    limit_pres: Presentation
    limit_oracle_spec: str
    member_pres_template: str  # presentation text with $i
    member_oracle_template: str

    def limit(self) -> tuple[Presentation, Oracle]:
        return self.limit_pres, build_oracle(self.limit_oracle_spec, self.limit_pres)

    def member(self, i: int) -> tuple[Presentation, Oracle]:
        if i < self.valid_i:
            raise ValueError(f"family {self.name!r} requires i >= {self.valid_i}, got {i}")
        try:
            text = Template(self.member_pres_template).substitute(i=i)
            spec = Template(self.member_oracle_template).substitute(i=i)
            pres = parse_presentation(text)
        except KeyError as exc:
            raise ValueError(
                f"family {self.name!r}: unknown placeholder ${exc.args[0]} in the member "
                "template; only $i is substituted"
            ) from None
        except ValueError as err:  # a syntax error in the member text, or a placeholder such as $5
            raise ValueError(f"family {self.name!r} member {i}: {err}") from None
        return pres, build_oracle(spec, pres)


def builtin_families() -> tuple[FamilySpec, ...]:
    cyclic = FamilySpec(
        name="cyclicZ",
        valid_i=2,
        limit_pres=parse_presentation("gens: x\nrels:"),
        limit_oracle_spec="abelian:0",
        member_pres_template="gens: x\nrels: x^$i",
        member_oracle_template="abelian:$i",
    )
    zxz = FamilySpec(
        name="zxz",
        valid_i=2,
        limit_pres=parse_presentation("gens: x y\nrels: [x,y]"),
        limit_oracle_spec="abelian:0,0",
        member_pres_template="gens: x y\nrels: [x,y]; y^$i",
        member_oracle_template="abelian:0,$i",
    )
    dihedral = FamilySpec(
        name="dihedral",
        valid_i=2,
        limit_pres=parse_presentation("gens: a b\nrels: a^2; b^2"),
        limit_oracle_spec="rewriting:involutions",
        member_pres_template="gens: a b\nrels: a^2; b^2; (a b)^$i",
        member_oracle_template="coset",
    )
    return (cyclic, zxz, dihedral)


def get_family(name: str) -> FamilySpec:
    """Look up a built-in family, or load the manifest at a ``.json`` path."""
    builtins = builtin_families()
    for spec in builtins:
        if spec.name == name:
            return spec
    if name.endswith(".json"):
        return load_manifest(name)
    known = ", ".join(spec.name for spec in builtins)
    raise ValueError(f"unknown family {name!r} (built-ins: {known})")


def load_manifest(path: str | Path) -> FamilySpec:
    """Load a user-defined family.

    Manifest shape (JSON):

        {
          "name": "...",
          "valid_i": 2,
          "limit": {"presentation": "file.pres", "oracle": "abelian:0,0"},
          "member_template": {"presentation": "gens: ...\nrels: ... $i",
                              "oracle": "abelian:0,$i"}
        }

    The limit presentation is a file path relative to the manifest; the
    member presentation is inline text with $i substituted.  Other keys,
    such as "notes", are ignored, and so is a leading UTF-8 byte-order
    mark, in the manifest as in the limit file.  A manifest that is not
    shaped like this raises ValueError naming what is wrong; an error in
    the limit file names that file.
    """
    path = Path(path)
    try:
        data = json.loads(path.read_text(encoding="utf-8-sig"))
    except (ValueError, RecursionError) as err:  # bad syntax or UTF-8, or nested too deeply
        raise ValueError(f"manifest {path}: not valid JSON: {err}") from None

    def field(*keys):
        value = data
        for depth, key in enumerate(keys):
            if not isinstance(value, dict):
                where = ".".join(keys[:depth]) or "the document"
                raise ValueError(f"manifest {path}: {where} must be a JSON object")
            if key not in value:
                raise ValueError(f"manifest {path}: missing key {'.'.join(keys[:depth + 1])!r}")
            value = value[key]
        if not isinstance(value, str):
            raise ValueError(f"manifest {path}: {'.'.join(keys)} must be a string")
        return value

    name = field("name")
    valid_i = data.get("valid_i", 2)
    if type(valid_i) is not int:  # bool is an int subclass, and JSON true is no integer
        raise ValueError(f"manifest {path}: valid_i must be an integer")
    return FamilySpec(
        name=name,
        valid_i=valid_i,
        limit_pres=read_presentation(path.parent / field("limit", "presentation")),
        limit_oracle_spec=field("limit", "oracle"),
        member_pres_template=field("member_template", "presentation"),
        member_oracle_template=field("member_template", "oracle"),
    )
