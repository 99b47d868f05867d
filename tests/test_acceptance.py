"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every stated runtime bound is asserted with time.perf_counter.
"""

import random
import time
from collections import Counter
from dataclasses import replace

from oracles import (
    oracle_census,
    oracle_ideal_closure,
    oracle_ideals,
    oracle_validate,
    orders_isomorphic,
)

from clalg.core import OrderRelation
from clalg.fileformat import export_dot, parse_algebra, serialize_algebra
from clalg.fixtures import LINEAR_CLA, NONLINEAR_CLA, linear_candidate, nonlinear_candidate
from clalg.identities import run_identity_suite
from clalg.ideals import (
    Subset,
    all_ideals,
    certify_ideal,
    generated_ideal,
    is_distributive_ideal,
    is_ideal,
    is_prime,
)
from clalg.quotient import theorem_suite
from clalg.search import SearchConfig, enumerate_lattices, render_search_result, run_search
from clalg.validator import validate


def _report(name):
    print(f"ACCEPTANCE: {name}: PASS")


def test_ideal_recognition():
    t0 = time.perf_counter()
    ex2 = nonlinear_candidate()
    assert is_ideal(ex2, Subset.from_names(ex2, "bot,0,1,b")).ok
    assert is_ideal(ex2, Subset.from_names(ex2, "bot,0,1")).ok
    assert time.perf_counter() - t0 < 1.0
    _report("ideal recognition on the non-linear fixture")


def test_prime_classification_with_exact_witness_values():
    ex1 = validate(linear_candidate()).algebra
    assert is_prime(ex1, certify_ideal(ex1, Subset.from_names(ex1, "bot,a,0,1"))).ok

    ex2 = nonlinear_candidate()
    verdict = is_prime(ex2, certify_ideal(ex2, Subset.from_names(ex2, "bot,0,1")))
    assert not verdict.ok
    x, y, nxy, nyx = verdict.witness
    rendered = [ex2.name_of(i) for i in (x, y, nxy, nyx)]
    # the failing pair involves a, and both computed values are exactly a
    assert "a" in rendered[:2]
    assert rendered[2] == "a" and rendered[3] == "a"
    _report("prime classification with witness values a, a")


def test_distributive_classification():
    ex1 = validate(linear_candidate()).algebra
    ideal = certify_ideal(ex1, Subset.from_names(ex1, "bot,a,0,1"))
    t0 = time.perf_counter()
    assert is_distributive_ideal(ex1, ideal).ok  # exhaustive over 125 triples
    assert time.perf_counter() - t0 < 1.0
    _report("distributive classification on the linear fixture")


def test_validator_oracle_agreement_on_mutations(census):
    rng = random.Random(20260810)
    fixtures = [linear_candidate(), nonlinear_candidate()]

    def agree(cand):
        report = validate(cand)
        oracle = oracle_validate(cand)
        for verdict, axiom in (
            (report.lattice, oracle.lattice),
            (report.monoid, oracle.monoid),
            (report.residuation, oracle.residuation),
            (report.involution, oracle.involution),
        ):
            assert verdict.ok == axiom.ok
            assert verdict.skipped == axiom.skipped
            assert verdict.witness == axiom.first
        return report

    for cand in fixtures:
        agree(cand)
    for k in range(1000):
        base = fixtures[k % 2]
        n = base.n
        which = rng.choice(("mult", "imp"))
        table = base.mult_table if which == "mult" else base.imp_table
        rows = [list(r) for r in table]
        rows[rng.randrange(n)][rng.randrange(n)] = rng.randrange(n)
        agree(replace(base, **{f"{which}_table": tuple(tuple(r) for r in rows)}))
    # then orders: 1 or 2 bits of the up masks toggled, which reaches the
    # order laws' witnesses as well as the missing meets and joins
    bases = fixtures + [alg.as_candidate() for n in (3, 4, 5) for alg in census[n]]
    kinds = Counter()
    for _ in range(1000):
        base = rng.choice(bases)
        up = list(base.order.up)
        for _ in range(rng.choice((1, 2))):
            up[rng.randrange(base.n)] ^= 1 << rng.randrange(base.n)
        lattice = agree(replace(base, order=OrderRelation(base.n, tuple(up)))).lattice
        kinds[lattice.witness and lattice.witness[0]] += 1
    assert {"reflexivity", "antisymmetry", "transitivity", "no_join", "no_meet"} <= set(kinds)
    _report(f"validator/oracle agreement on fixtures, 1000 table and 1000 order mutants "
            f"(lattice witnesses {dict(sorted(kinds.items(), key=str))})")


def _validated_universe(census):
    algebras = []
    for cand in (linear_candidate(), nonlinear_candidate()):
        report = validate(cand)
        if report.algebra is not None:
            algebras.append(report.algebra)
    for n in sorted(census):
        algebras.extend(census[n])
    return algebras


def test_quotient_theorem_suite(census):
    t0 = time.perf_counter()
    checked = 0
    for alg in _validated_universe(census):
        for ideal in all_ideals(alg):
            report = theorem_suite(alg, ideal)
            assert report.congruence.certificate.ok, (alg.name, ideal.bits)
            assert report.quotient_valid, (alg.name, ideal.bits)
            for claim in report.claims:
                assert claim.status in ("holds", "vacuous"), (
                    alg.name, ideal.bits, claim)
            if ideal.bits == alg.order.dn[alg.zero]:
                singleton = [c for c in report.claims
                             if c.claim == "zero_downset_singleton_classes"][0]
                assert singleton.status == "holds"
            checked += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    _report(f"quotient theorem suite over {checked} certified ideals "
            f"({elapsed:.1f}s)")


def test_identity_suite(census):
    failures = []
    total = 0
    for alg in _validated_universe(census):
        total += 1
        report = run_identity_suite(alg)
        failures.extend(
            (alg.name, k.value, v.witness) for k, v in report.items() if not v.ok
        )
    assert len(report) == 17
    assert failures == []
    _report(f"identity suite: 17 laws on {total} sealed algebras, zero failures")


def test_enumeration_oracle_equivalence():
    rng = random.Random(1837)
    for cand in (linear_candidate(), nonlinear_candidate()):
        assert [i.bits for i in all_ideals(cand)] == oracle_ideals(cand)
        for _ in range(100):
            seed = rng.randrange(1 << cand.n)
            got = generated_ideal(cand, Subset(cand.n, seed)).bits
            assert got == oracle_ideal_closure(cand, seed)
    _report("ideal enumeration and generation match the subset-filter oracle")


def test_census_reproducibility():
    t0 = time.perf_counter()
    for n in (2, 3, 4):
        reps, counts, _ = oracle_census(n)
        lattices = enumerate_lattices(n)
        rows = {r.lattice_index: r.count for r in run_search(SearchConfig(size=n)).rows}
        for oi, rep in enumerate(reps):
            matches = [si for si, lat in enumerate(lattices)
                       if orders_isomorphic(rep, lat.up)]
            assert len(matches) == 1
            assert rows[matches[0]] == counts[oi], (n, oi)

    t4 = time.perf_counter()
    out1 = render_search_result(run_search(SearchConfig(size=4)))
    assert time.perf_counter() - t4 < 10.0  # the n=4 run itself
    out2 = render_search_result(run_search(SearchConfig(size=4)))
    assert out1 == out2  # byte-identical canonical output

    t6 = time.perf_counter()
    render_search_result(run_search(SearchConfig(size=6)))
    assert time.perf_counter() - t6 < 300.0
    _report(f"census matches the naive oracle and is reproducible "
            f"({time.perf_counter() - t0:.1f}s total)")


def test_format_round_trip_and_dot_edges():
    for text, edges in ((LINEAR_CLA, 4), (NONLINEAR_CLA, 6)):
        cand = parse_algebra(text)
        assert serialize_algebra(cand) == text
        assert parse_algebra(serialize_algebra(cand)) == cand
        assert export_dot(cand).count(" -> ") == edges
    _report("format round-trip and DOT edge counts (4 and 6)")
