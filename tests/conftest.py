from collections import Counter

import pytest

import clalg.ideals
import clalg.identities
import clalg.quotient
import clalg.search
import clalg.validator
from clalg.core import AlgebraCandidate, OrderRelation
from clalg.fixtures import LINEAR_CLA, NONLINEAR_CLA, linear_candidate, nonlinear_candidate
from clalg.laws import first_violation
from clalg.search import SearchConfig, run_search
from clalg.validator import seal

# every package module that runs laws.first_violation
SCANNING = (clalg.validator, clalg.identities, clalg.ideals, clalg.quotient, clalg.search)


@pytest.fixture
def linear5_candidate():
    return linear_candidate()


@pytest.fixture
def linear5():
    return seal(linear_candidate())


@pytest.fixture
def one_element():
    """The only CL-algebra on one element: bot = zero = one = top."""
    return seal(AlgebraCandidate("one", ("e0",), OrderRelation(1, (1,)),
                                 ((0,),), ((0,),), 0, 0, 0))


@pytest.fixture
def nonlinear6():
    return nonlinear_candidate()


@pytest.fixture
def ex1_path(tmp_path):
    p = tmp_path / "linear5.cla"
    p.write_text(LINEAR_CLA, encoding="utf-8")
    return p


@pytest.fixture
def ex2_path(tmp_path):
    p = tmp_path / "nonlinear6.cla"
    p.write_text(NONLINEAR_CLA, encoding="utf-8")
    return p


@pytest.fixture(scope="session")
def census():
    """All CL-algebras up to isomorphism for sizes 2..5, keyed by size."""
    return {n: run_search(SearchConfig(size=n)).algebras for n in range(2, 6)}


@pytest.fixture(scope="session")
def census_2_6(census):
    """The 133 CL-algebras of sizes 2..6, smallest first."""
    algebras = [alg for n in sorted(census) for alg in census[n]]
    return algebras + list(run_search(SearchConfig(size=6)).algebras)


@pytest.fixture
def scans(monkeypatch):
    """A Counter of the package's first_violation calls, through every
    module of SCANNING: per call, (law,) once; per entry scanned,
    (law, kind, found) by its number of violation calls, where `found`
    says whether the entry found its violation.  A scan that raises
    counts its call only."""
    counts = Counter()

    def counting(law, entries, ctx, detail=""):
        counts[law,] += 1
        entries = tuple(entries)
        calls, found = [0] * len(entries), [False] * len(entries)

        def counted(index, entry):
            def violation(c, *point):
                extra = entry.violation(c, *point)
                calls[index] += 1
                found[index] = extra is not None
                return extra
            return entry._replace(violation=violation)

        verdict = first_violation(law, tuple(counted(*item) for item in enumerate(entries)),
                                  ctx, detail)
        for entry, number, hit in zip(entries, calls, found):
            if number:
                counts[law, entry.kind, hit] += number
        return verdict

    for module in SCANNING:
        monkeypatch.setattr(module, "first_violation", counting)
    return counts
