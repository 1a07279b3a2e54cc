"""Desk-scale computations on marked groups.

Exact integer arithmetic throughout: reduced words in a free group,
finite presentations, word-problem oracles with declared soundness
domains, word areas with verifiable certificates, relation balls and
the marked-group distance, Dehn-function tables, and a harness for the
inequality relating member and limit Dehn values along a convergent
family.
"""

from .area import (
    AreaNotFound,
    AreaResult,
    Caps,
    Certificate,
    area_exact_small,
    area_search,
    compose_certificates,
    expand_certificate,
    verify_certificate,
)
from .coset import CayleyTable, coset_enumerate
from .dehn import (
    CorollaryReport,
    DehnValue,
    TheoremReport,
    WorkerDied,
    compute_K,
    corollary_check,
    dehn,
    quotient_check,
    theorem_check,
    verify_family,
)
from .families import FamilySpec, builtin_families, get_family, load_manifest
from .oracles import (
    AbelianOracle,
    BoundedDerivationOracle,
    CosetLimitExceeded,
    CosetTableOracle,
    FreeOracle,
    Oracle,
    ProductOracle,
    RewritingOracle,
    UnknownVerdictError,
    build_oracle,
)
from .presentations import (
    Presentation,
    PresentationSyntaxError,
    max_relator_length,
    parse_presentation,
    parse_word,
    symmetrize,
)
from .space import MarkedDistance, RelationBall, convergence_report, distance, rel_ball
from .words import (
    Word,
    ball_size,
    conjugate,
    enumerate_ball,
    free_reduce,
    make_word,
    shell,
    word_to_str,
)

__version__ = "0.2.0"
