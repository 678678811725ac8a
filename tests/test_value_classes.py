"""The contract of the library's immutable value classes: no attribute can be
set, equal fields make equal objects, with equal hashes where every field is
hashable, construction by keyword and by position agree, bad fields raise
the documented exception (through `_replace` too), instances pickle, and
the repr names every field. No class holds a root table, so none builds one
when it is copied; the table make_context keeps is read-only."""

import copy
import pickle

import pytest

from residuum.cli import OutputDocument
from residuum.congrua import SquareProgression, construct
from residuum.errors import BadParameters, NonSquareCell
from residuum.fp import make_context
from residuum.intgrid import CenterReport, IntGrid
from residuum.residue import ResidueGrid, UnitTriple
from residuum.search import SearchReport

LO_SHU = IntGrid((4, 9, 2, 3, 5, 7, 8, 1, 6))

# class -> (valid fields, fields the constructor refuses or None, the exception, repr)
CASES = {
    ResidueGrid: (
        dict(p=29, vals=(0, 1, 28, 28, 0, 1, 1, 28, 0)),
        dict(p=29, vals=(2, 0, 0, 0, 0, 0, 0, 0, 0)),  # 2 is not a square
        NonSquareCell,
        "ResidueGrid(p=29, [0, 1, 28] / [28, 0, 1] / [1, 28, 0])",
    ),
    SquareProgression: (
        dict(x=17, y=13, z=7),
        dict(x=17, y=13, z=8),
        BadParameters,
        "SquareProgression(x=17, y=13, z=7)",
    ),
    IntGrid: (
        dict(cells=LO_SHU.cells),
        dict(cells=LO_SHU.cells[:8]),
        ValueError,
        "IntGrid([4, 9, 2] / [3, 5, 7] / [8, 1, 6])",
    ),
    CenterReport: (
        dict(verdicts=((5, "admissible"),)),
        None,
        None,
        "CenterReport(verdicts=((5, 'admissible'),), warning=None)",
    ),
    UnitTriple: (
        dict(p=29, alpha=8, beta=11, gamma=2),
        dict(p=29, alpha=8, beta=11, gamma=29),
        ValueError,
        "UnitTriple(p=29, alpha=8, beta=11, gamma=2)",
    ),
    SearchReport: (
        dict(pruned_centers=0, candidates_tested=1, hits=(LO_SHU,), near_misses=()),
        None,
        None,
        "SearchReport(pruned_centers=0, candidates_tested=1, "
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
    if cls is not OutputDocument:  # dict fields are unhashable
        assert hash(a) == hash(b)
    assert repr(a) == text
    for name in (*fields, "extra"):
        with pytest.raises(AttributeError):
            setattr(a, name, None)
    if bad is not None:
        with pytest.raises(error):
            cls(**bad)
        with pytest.raises(error):
            a._replace(**bad)
    assert pickle.loads(pickle.dumps(a)) == a


def test_fields_are_only_what_cannot_be_derived():
    # a progression's difference and primitivity follow from x, y, z; the
    # search range, the prune switch, the threshold and the center root are
    # the caller's own arguments
    assert SquareProgression._fields == ("x", "y", "z")
    assert SearchReport._fields == ("pruned_centers", "candidates_tested", "hits", "near_misses")
    assert CenterReport._fields == ("verdicts", "warning")
    assert UnitTriple._fields == ("p", "alpha", "beta", "gamma")


def test_a_cached_context_cannot_be_changed():
    root = make_context(13)
    try:
        for a in range(13):
            with pytest.raises(TypeError):
                root[a] = 17
        assert make_context(13) is root
        assert list(root) == [0, 1, 0, 4, 2, 0, 0, 0, 0, 3, 6, 0, 5]
    finally:
        make_context.cache_clear()  # so a table that took a write is not read again


def test_a_triple_copies_without_building_a_context():
    triple = construct(29)[2]
    make_context.cache_clear()
    for twin in (pickle.loads(pickle.dumps(triple)), copy.deepcopy(triple)):
        assert type(twin) is UnitTriple and twin == triple
    # make_context builds every root table, so none was built
    assert make_context.cache_info().misses == 0
