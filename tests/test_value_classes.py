"""The contract of the library's immutable value classes: no attribute can be
set, equal fields make equal objects with equal hashes, construction by
keyword and by position agree, bad fields raise the documented exception
(through `_replace` too), instances pickle, and the repr names every
field."""

import pickle

import pytest

from residuum.cli import OutputDocument
from residuum.congrua import Coverage, CoverageStatus, SquareProgression
from residuum.errors import BadParameters, UnexpectedPattern
from residuum.fp import make_context
from residuum.intgrid import CenterReport, IntGrid, Mod2Class
from residuum.residue import UnitTriple
from residuum.search import SearchReport

LO_SHU = IntGrid((4, 9, 2, 3, 5, 7, 8, 1, 6))

# class -> (valid fields, fields the constructor refuses or None, the exception, repr)
CASES = {
    SquareProgression: (
        dict(x=17, y=13, z=7, d=120),
        dict(x=17, y=13, z=7, d=121),
        BadParameters,
        "SquareProgression(x=17, y=13, z=7, d=120, primitive=True)",
    ),
    CoverageStatus: (
        dict(p=29, status=Coverage.COVERED_BOTH),
        None,
        None,
        "CoverageStatus(p=29, status=<Coverage.COVERED_BOTH: 'covered_both'>)",
    ),
    IntGrid: (
        dict(cells=LO_SHU.cells),
        dict(cells=LO_SHU.cells[:8]),
        ValueError,
        "IntGrid([4, 9, 2] / [3, 5, 7] / [8, 1, 6])",
    ),
    CenterReport: (
        dict(e=5, verdicts=((5, "admissible"),)),
        None,
        None,
        "CenterReport(e=5, verdicts=((5, 'admissible'),), warning=None)",
    ),
    Mod2Class: (
        dict(bits=(1, 1, 0, 1, 0, 1, 0, 1, 1)),
        dict(bits=(1,) * 9),
        UnexpectedPattern,
        "Mod2Class(bits=(1, 1, 0, 1, 0, 1, 0, 1, 1))",
    ),
    UnitTriple: (
        dict(context=make_context(29), alpha=8, beta=11, gamma=2),
        dict(context=make_context(29), alpha=8, beta=11, gamma=29),
        ValueError,
        "UnitTriple(context=PrimeContext(p=29), alpha=8, beta=11, gamma=2)",
    ),
    SearchReport: (
        dict(e_range=(5, 5), primitive_only=True, near_miss_threshold=7, pruned_centers=0,
             candidates_tested=1, hits=(LO_SHU,), near_misses=()),
        None,
        None,
        "SearchReport(e_range=(5, 5), primitive_only=True, near_miss_threshold=7, "
        "pruned_centers=0, candidates_tested=1, "
        "hits=(IntGrid([4, 9, 2] / [3, 5, 7] / [8, 1, 6]),), near_misses=())",
    ),
    OutputDocument: (
        dict(command="table", parameters={"max": 5}, results={"rows": []}),
        None,
        None,
        "OutputDocument(command='table', parameters={'max': 5}, results={'rows': []}, "
        "tool_version='0.1.0')",
    ),
}


@pytest.mark.parametrize("cls", CASES, ids=lambda c: c.__name__)
def test_value_class_contract(cls):
    fields, bad, error, text = CASES[cls]
    a = cls(**fields)
    b = cls(*fields.values())
    assert a == b and a is not b
    if cls is not OutputDocument:  # its dict fields are unhashable
        assert hash(a) == hash(b)
    assert repr(a) == text
    for name in (next(iter(fields)), "extra"):
        with pytest.raises(AttributeError):
            setattr(a, name, None)
    if bad is not None:
        with pytest.raises(error):
            cls(**bad)
        with pytest.raises(error):
            a._replace(**bad)
    if cls is not UnitTriple:  # its context compares by identity
        assert pickle.loads(pickle.dumps(a)) == a
