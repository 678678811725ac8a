"""Index maps for 3x3 grids stored as flat row-major 9-tuples, and their rows."""

LINES = (
    (0, 1, 2), (3, 4, 5), (6, 7, 8),   # rows
    (0, 3, 6), (1, 4, 7), (2, 5, 8),   # columns
    (0, 4, 8), (2, 4, 6),              # main diagonal, anti-diagonal
)

CENTER = 4
CORNERS = (0, 2, 6, 8)
MID_EDGES = (1, 3, 5, 7)


def rows_of(cells) -> list[list]:
    """The three rows of a flat row-major grid, each a list."""
    return [list(cells[0:3]), list(cells[3:6]), list(cells[6:9])]
