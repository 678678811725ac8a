"""Exception types shared across the package: one class for each way a caller
handles an error, so that the class alone decides a command's exit code.

- `ResiduumError`, the base class: an input the mathematics refuses, such as
  a value that is not a square mod p or a grid that is not magic. Exit 1.
- `UsageError`: an argument the command does not take, such as a p that is
  not prime, is of the wrong form mod 4, or is past a ceiling. Exit 2.
- `ParseError`: a grid file that cannot be read. Exit 3.
- `NotCovered`: a prime that a construction route does not reach, or a
  progression that does not map into the squares mod p; `construct` and the
  progression sweep catch it and report the prime as uncovered.

The base class is a `ValueError`, so each of them is one too.
"""


class ResiduumError(ValueError):
    """Base class for every error this package raises on purpose."""


class UsageError(ResiduumError):
    pass


class ParseError(ResiduumError):
    pass


class NotCovered(ResiduumError):
    pass
