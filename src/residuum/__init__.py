"""Residue-class toolkit for 3x3 magic squares of squares.

Prime fields with their square-root tables (fp), zero-center residue
grids mod p with their classification and counting bound (residue),
integer three-square progressions and the modular coverage report (congrua),
integer-side grid analysis (intgrid), and a pruned exhaustive search
(search). The `residuum` command exposes everything for batch use.

Each name is imported from the submodule that defines it, as in
`from residuum.search import search_msos`. Importing the package itself
loads no submodule.
"""

__version__ = "0.1.0"
