"""nvcalc: exact computation in the piecewise dyadic-substitution groups nV.

The package provides, entirely with exact arithmetic:

- ``dyadic_core``: standard dyadic rectangles in the half-open unit cube,
  their intersections, corners, and enumeration by depth.
- ``element_algebra``: group elements as finite piecewise prefix-substitution
  maps — composition, inverse, equality, supports, affinity tests, reduction.
  A piece table's domains are one pattern (a partition of the cube into
  rectangles) and its ranges are the other.
- ``words_generators``: the named generator families, a word language with a
  parser, the machine-checked relation suite, and the finite-generation and
  fixed-rectangle premise checks.
- ``ends_cocycle``: the subgroup of maps fixing the left half-cube, the coset
  family parameterized by image rectangles, depth-truncated symmetric
  differences with stabilization verdicts, cocycle-identity consistency
  checks, corner-grid probes, and the properness bound check.
- ``cli``: a deterministic command-line front end with JSON/text reports.
"""

__version__ = "0.1.0"

from nvcalc.dyadic_core import (  # noqa: F401
    Rect,
    corner_projections,
    enumerate_rects,
    halve,
    rect_Il,
    rect_Ir,
)
from nvcalc.element_algebra import (  # noqa: F401
    AffinePiece,
    Element,
    apply,
    compose,
    element_from_json,
    element_to_json,
    equals,
    expansion,
    identity,
    inverse,
    is_affine_on,
    is_identity,
    is_identity_on,
    random_element,
    simplify,
    support,
    validate,
)
from nvcalc.words_generators import (  # noqa: F401
    GenSymbol,
    Word,
    corollary_checks,
    eval_word,
    format_word,
    make_C,
    make_pi,
    make_pibar,
    make_X,
    parse_word,
    premise_checks,
    relation_suite,
)
from nvcalc.ends_cocycle import (  # noqa: F401
    CosetRep,
    TruncatedCocycle,
    cocycle_identity_check,
    complement_partition,
    coset_eq,
    coset_of,
    coset_translate,
    f_P_probe,
    in_X,
    properness_bound_check,
    sym_diff_truncated,
)
