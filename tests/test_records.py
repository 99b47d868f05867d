"""The result records are NamedTuples, except the Ideal, a frozen
dataclass because it is a Subset: a verdict is falsy when it fails, and
no record takes an assignment, to a field or to a new name."""

import pytest

from clalg.fixtures import linear_candidate
from clalg.ideals import Ideal, classify, zero_downset
from clalg.laws import Verdict
from clalg.quotient import build_quotient, congruence_from_ideal, theorem_suite
from clalg.search import SearchConfig, run_search
from clalg.validator import validate


def test_verdict_is_truthy_iff_it_passes():
    assert bool(Verdict("x", False)) is False
    assert bool(Verdict("x", True)) is True
    assert not Verdict("x", False, ("kind", 0), "detail", True)


def _records():
    report = validate(linear_candidate())
    alg = report.algebra
    ideal = zero_downset(alg)
    theorems = theorem_suite(alg, ideal)
    search = run_search(SearchConfig(size=2))
    return [report.lattice, ideal, classify(alg, ideal), congruence_from_ideal(alg, ideal),
            build_quotient(alg, ideal), theorems.claims[0], theorems, search.rows[0], search,
            report.flags, report]


def test_every_record_kind_is_covered():
    assert [type(r).__name__ for r in _records()] == [
        "Verdict", "Ideal", "IdealClassification", "Congruence", "QuotientAlgebra",
        "ClaimResult", "TheoremReport", "CensusRow", "SearchResult", "StructuralFlags",
        "ValidationReport"]


@pytest.mark.parametrize("record", _records(), ids=lambda r: type(r).__name__)
def test_records_refuse_assignment(record):
    # a dataclass has no `_fields`: an Ideal is tried on its `bits`
    field = "bits" if isinstance(record, Ideal) else record._fields[0]
    with pytest.raises(AttributeError):
        setattr(record, field, None)
    with pytest.raises(AttributeError):
        record.extra = None
