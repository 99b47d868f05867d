"""The per-algebra memo of congruences, quotients and ideal
classifications changes no result: a warm algebra answers exactly as a
fresh copy does, each fact is computed once per (algebra, ideal), and
failures are raised afresh instead of being kept."""

import sys
import threading
from collections import Counter
from dataclasses import replace

import pytest

import clalg.ideals
import clalg.quotient
from clalg.core import memoised
from clalg.ideals import (
    all_ideals,
    classify,
    is_distributive_ideal,
    is_implicative,
    is_prime,
    zero_downset,
)
from clalg.quotient import (
    QuotientInvalid,
    build_quotient,
    check_order_criterion,
    congruence_from_ideal,
    theorem_suite,
)

MEMOISED = (congruence_from_ideal, build_quotient, classify)
# the witness-bearing verdicts keep no memo entry; a warm algebra still
# answers them as a fresh copy does
VERDICTS = (is_prime, is_distributive_ideal, is_implicative)


def test_warm_algebra_answers_as_a_fresh_copy(census_2_6):
    pairs = 0
    for alg in census_2_6:
        for ideal in all_ideals(alg):
            warm = [fn(alg, ideal) for fn in MEMOISED]
            warm_report = theorem_suite(alg, ideal)
            # a second call is served from the memo
            assert all(fn(alg, ideal) is value for fn, value in zip(MEMOISED, warm))
            fresh = [fn(replace(alg), ideal) for fn in MEMOISED]
            assert fresh == warm, (alg.name, ideal.bits)
            verdicts = [fn(alg, ideal) for fn in VERDICTS]
            assert verdicts == [fn(replace(alg), ideal) for fn in VERDICTS], (alg.name, ideal.bits)
            assert theorem_suite(replace(alg), ideal) == warm_report == theorem_suite(alg, ideal)
            pairs += 1
    assert len(census_2_6) == 133 and pairs == 318


def test_each_fact_is_computed_once_per_ideal(census_2_6, monkeypatch, scans):
    validate = clalg.quotient.validate
    monkeypatch.setattr(clalg.quotient, "validate",
                        lambda cand: scans.update(["validate"]) or validate(cand))

    pairs = zero_downsets = 0
    for alg in map(replace, census_2_6):  # fresh copies: empty memos
        for ideal in all_ideals(alg):
            classify(alg, ideal)
            cong = congruence_from_ideal(alg, ideal)
            build_quotient(alg, ideal, cong)
            theorem_suite(alg, ideal)
            check_order_criterion(alg, ideal, alg.zero, alg.one)
            build_quotient(alg, ideal)
            theorem_suite(alg, ideal)
            pairs += 1
            zero_downsets += ideal.bits == alg.order.dn[alg.zero]
    assert scans["congruence",] == pairs, scans
    # the zero-downset quotient of a sealed algebra is that algebra
    # renamed, not validated again
    assert (pairs, zero_downsets) == (318, 133)
    assert scans["validate"] == pairs - zero_downsets, scans


def test_failed_quotient_is_raised_afresh(nonlinear6, scans):
    # the zero-downset quotient of the defective fixture fails its order
    # cross-check; every call must run that check again
    ideal = zero_downset(nonlinear6)
    first = theorem_suite(nonlinear6, ideal)
    second = theorem_suite(nonlinear6, ideal)
    assert not first.quotient_valid and first == second
    blocked = [c.verdict for c in second.claims if c.status == "blocked"]
    assert blocked == [c.verdict for c in first.claims if c.status == "blocked"]
    for _ in range(2):
        with pytest.raises(QuotientInvalid) as exc:
            build_quotient(nonlinear6, ideal)
        assert exc.value.witness == ("order_criterion", 2, 4, True, False)
    assert scans["congruence",] == 1 and scans["order_criterion",] == 4


def test_threads_sharing_an_algebra_agree(census):
    # the memo takes no lock: a race may compute an entry twice, but
    # every thread must still get the single-threaded answer
    algebras = [replace(alg) for n in (4, 5) for alg in census[n]]
    expected = {(alg.name, ideal.bits): theorem_suite(replace(alg), ideal)
                for alg in algebras for ideal in all_ideals(alg)}
    results, errors = [], []

    def work():
        try:
            results.append({(alg.name, ideal.bits): theorem_suite(alg, ideal)
                            for alg in algebras for ideal in all_ideals(alg)})
        except Exception as exc:  # reported below, with the thread's result missing
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=work) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert not errors and results == [expected] * 4


def test_value_tables_are_built_once_per_algebra(census_2_6, monkeypatch):
    builds = Counter()
    for name in ("_sums", "_prime_partners", "_distributive_values", "_implicative_values"):
        build = getattr(clalg.ideals, name).__wrapped__

        def counted(alg, build=build, name=name):
            builds[name, alg.name] += 1
            return build(alg)
        monkeypatch.setattr(clalg.ideals, name, memoised(counted))
    algebras = list(map(replace, census_2_6))  # fresh copies: empty memos
    for alg in algebras:
        for ideal in all_ideals(alg):
            classify(alg, ideal)
            theorem_suite(alg, ideal)
    # every algebra has an ideal, and finding and classifying it reads all
    # four tables
    assert len(builds) == 4 * len({alg.name for alg in algebras}) == 4 * 133
    assert set(builds.values()) == {1}
