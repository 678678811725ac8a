"""Residue-class toolkit for 3x3 magic squares of squares.

Prime fields with their square-root tables (fp), zero-center residue
grids mod p with their classification and counting bound (residue),
integer three-square progressions and the modular coverage report (congrua),
integer-side grid analysis (intgrid), and a pruned exhaustive search
(search). The `residuum` command exposes everything for batch use.

Each name below is imported from its submodule on first use (PEP 562), so
that importing the package, or a command that needs only some of it, does
not load every submodule.
"""

__version__ = "0.1.0"

_SUBMODULES = ("congrua", "errors", "fp", "grid_ops", "intgrid", "residue", "search")

# exported name -> the submodule that defines it
_EXPORTS = {
    name: module
    for module, names in {
        "congrua": """SquareProgression TABLE_ROUTE_PRIMES ap_to_unit_triple
            congruum_triple construct construct_mod20 construct_mod24 coverage_status
            eligible_params sweep_congrua""",
        "fp": """factorize is_prime legendre make_context primes_up_to sqrt_mod two_square_splits
            two_squares""",
        "intgrid": """CenterReport IntGrid PARITY_PATTERNS admissible_center_check
            is_distinct is_magic is_square_entried mod2_classify reduce_primitive""",
        "residue": """ResidueGrid UnitTriple classify consecutive_triples count_bound
            enumerate_all gen_nontrivial gen_trivial_corner gen_trivial_midedge is_magic_class
            line_sums magic_sum run_count runs_from_split triple_from_member""",
        "search": "SearchReport pair_decompositions search_msos",
    }.items()
    for name in names.split()
}

# what `from residuum import *` binds: every submodule and exported name
__all__ = [*_SUBMODULES, *_EXPORTS]


def __getattr__(name: str):
    from importlib import import_module

    if name in _SUBMODULES:
        return import_module(f"{__name__}.{name}")
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f"{__name__}.{_EXPORTS[name]}"), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
