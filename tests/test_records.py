"""The ten record types: read-only tuples without a __dict__, compared and
hashed field by field, and validated however they are constructed."""

import math

import pytest

from sconvexlab import DomainError
from sconvexlab.bounds import BoundReport, Theorem
from sconvexlab.funcmodel import CertResult, FuncHandle, GenConfig, PowerSum
from sconvexlab.harness import CaseRow, SuiteConfig, SuiteReport
from sconvexlab.means import OrderedInterval
from sconvexlab.means_bounds import Se4Discrepancy

_PS = PowerSum([(1.0, 2.0)])
_DPS = _PS.derivative()
_ROW = CaseRow(0, "se2", 1.0, 2.0, 0.5, None, 0.1, 0.2, 0.1, "ok")


def _sides(f, a, b, s, q):
    return 0.0, 1.0


# Each record's constructor arguments; two calls with them give equal fields.
RECORDS = [
    (OrderedInterval, (1.0, 2.0)),
    (PowerSum, ([(1.0, 2.0), (0.5, -0.5)],)),
    (FuncHandle, (_PS, _DPS)),
    (CertResult, (False, (1.0, 2.0, 0.5, 1.5, 1.4), 9261)),
    (GenConfig, ()),
    (SuiteConfig, (7, 3, 1e-9)),
    (SuiteReport, ("bounds:se2", 7, 1, 0, (_ROW,), (), 0, 0.1, (), 1.5)),
    (BoundReport, ("se2", 1.0, 2.0, 0.5, None, 0.1, 0.2, 0.1, True)),
    (Theorem, ("x", False, "f", False, _sides)),
    (Se4Discrepancy, (1.0, 2.0, -0.5, 0.5)),
]


@pytest.mark.parametrize("cls, args", RECORDS, ids=[cls.__name__ for cls, _ in RECORDS])
def test_record_is_read_only_and_fieldwise(cls, args):
    first, second = cls(*args), cls(*args)
    for name in first._fields:
        with pytest.raises(AttributeError):
            setattr(first, name, None)
    assert not hasattr(first, "__dict__")
    assert first == second and hash(first) == hash(second)
    assert repr(first).startswith(f"{cls.__name__}(")


@pytest.mark.parametrize("build", [
    lambda: SuiteConfig(seed=-1),
    lambda: GenConfig(max_terms=0),
    lambda: OrderedInterval(a=3.0, b=1.0),
    lambda: PowerSum([(math.inf, 1.0)]),
], ids=["SuiteConfig", "GenConfig", "OrderedInterval", "PowerSum"])
def test_keyword_construction_validates(build):
    with pytest.raises(DomainError):
        build()
