"""Residue-class toolkit for 3x3 magic squares of squares.

Prime contexts with quadratic-residue tables (fp), zero-center residue
grids mod p with their classification, orbits and counting bound (residue),
integer three-square progressions and the modular coverage report (congrua),
integer-side grid analysis (intgrid), and a pruned exhaustive search
(search). The `residuum` command exposes everything for batch use.
"""

__version__ = "0.1.0"

from . import errors
from .congrua import (
    Coverage,
    SquareProgression,
    TABLE_ROUTE_PRIMES,
    ap_to_unit_triple,
    congruum_triple,
    construct,
    construct_mod20,
    construct_mod24,
    coverage_status,
    eligible_params,
    sweep_congrua,
)
from .fp import (
    PrimeContext,
    factorize,
    is_prime,
    legendre,
    make_context,
    primes_up_to,
    sqrt_mod,
    two_squares,
)
from .intgrid import (
    CenterReport,
    IntGrid,
    Mod2Class,
    admissible_center_check,
    has_even_center_line,
    is_distinct,
    is_magic,
    is_square_entried,
    klein_group_table,
    mod2_classify,
    parametric_magic,
    reduce_primitive,
    residue_class_of,
    total_is_triple_center,
)
from .residue import (
    ClassKind,
    ResidueGrid,
    UnitTriple,
    classify,
    consecutive_triples,
    count_bound,
    enumerate_all,
    gen_nontrivial,
    gen_trivial_corner,
    gen_trivial_midedge,
    generated_classes,
    is_magic_class,
    line_sums,
    magic_sum,
    naive_enumerate,
    orbit,
    run_count,
    triple_from_member,
)
from .search import (
    SearchReport,
    naive_center_enumeration,
    pair_decompositions,
    primitive_subset,
    search_msos,
)
