"""Index maps for 3x3 grids stored as flat row-major 9-tuples, and their rows."""

LINES = (
    (0, 1, 2), (3, 4, 5), (6, 7, 8),   # rows
    (0, 3, 6), (1, 4, 7), (2, 5, 8),   # columns
    (0, 4, 8), (2, 4, 6),              # main diagonal, anti-diagonal
)

# The four lines passing through the center cell.
CENTER_LINES = ((3, 4, 5), (1, 4, 7), (0, 4, 8), (2, 4, 6))

CENTER = 4
CORNERS = (0, 2, 6, 8)
MID_EDGES = (1, 3, 5, 7)

IDENTITY = (0, 1, 2, 3, 4, 5, 6, 7, 8)
ROT90 = (6, 3, 0, 7, 4, 1, 8, 5, 2)            # clockwise quarter turn
ROT180 = (8, 7, 6, 5, 4, 3, 2, 1, 0)
ROT270 = (2, 5, 8, 1, 4, 7, 0, 3, 6)
FLIP_ROWS = (6, 7, 8, 3, 4, 5, 0, 1, 2)        # reflect about the horizontal axis
FLIP_COLS = (2, 1, 0, 5, 4, 3, 8, 7, 6)
TRANSPOSE = (0, 3, 6, 1, 4, 7, 2, 5, 8)        # reflect about the main diagonal
ANTI_TRANSPOSE = (8, 5, 2, 7, 4, 1, 6, 3, 0)   # reflect about the anti-diagonal

ROTATIONS = (IDENTITY, ROT90, ROT180, ROT270)
DIHEDRAL = ROTATIONS + (FLIP_ROWS, FLIP_COLS, TRANSPOSE, ANTI_TRANSPOSE)


def permute(cells, index_map):
    return tuple(cells[i] for i in index_map)


def rows_of(cells) -> list[list]:
    """The three rows of a flat row-major grid, each a list."""
    return [list(cells[0:3]), list(cells[3:6]), list(cells[6:9])]
