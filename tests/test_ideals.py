import random
import time
from collections import Counter
from dataclasses import replace
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from oracles import lukasiewicz_product, oracle_ideal_closure, oracle_ideals
from test_whole_table import _mutants

from clalg.core import AlgebraCandidate, NotALattice, OrderRelation
from clalg.ideals import (
    EmptySubset,
    NotAnIdeal,
    Subset,
    ZeroMissing,
    all_ideals,
    certify_ideal,
    classify,
    generated_ideal,
    is_affine,
    is_distributive_ideal,
    is_ideal,
    is_implicative,
    is_prime,
    zero_downset,
)
from clalg.laws import Verdict
from clalg.validator import is_idempotent, seal, validate


def subset(alg, names):
    return Subset.from_names(alg, names)


def test_subset_basics(linear5):
    s = subset(linear5, "bot,0")
    assert s.bits == 0b00011
    assert 0 in s and 1 in s and 3 not in s
    assert s.members() == (0, 1)
    assert len(s) == 2
    assert s.render(linear5) == "{bot,0}"
    assert Subset.universe(5).bits == 31
    with pytest.raises(ValueError):
        Subset(3, 0b1000)


def test_is_ideal_fixture_examples(nonlinear6):
    assert is_ideal(nonlinear6, subset(nonlinear6, "bot,0,1,b")).ok
    assert is_ideal(nonlinear6, subset(nonlinear6, "bot,0,1")).ok
    bad = is_ideal(nonlinear6, subset(nonlinear6, "bot,0,b"))
    # b+b = ~(b*b) = ~0 = 1 escapes the subset
    assert bad.witness == ("plus_not_closed", 4, 4, 2)


def test_is_ideal_down_closure_witness(linear5):
    bad = is_ideal(linear5, subset(linear5, "bot,0,1"))
    # plus-closure holds but a <= 1 is missing
    assert bad.witness == ("not_down_closed", 3, 2)


def test_empty_subset_raises(linear5):
    with pytest.raises(EmptySubset):
        is_ideal(linear5, Subset(5, 0))


def test_generated_ideal_examples(linear5, nonlinear6):
    assert generated_ideal(linear5, Subset(5, 0)).bits == 0b00011  # {bot,0}
    assert generated_ideal(linear5, subset(linear5, "top")).bits == 31
    assert generated_ideal(nonlinear6, subset(nonlinear6, "b")).bits == 0b010111


def test_all_ideals_fixtures(linear5, nonlinear6):
    assert [i.bits for i in all_ideals(linear5)] == [3, 15, 31]
    assert [i.bits for i in all_ideals(nonlinear6)] == [3, 7, 23, 63]
    # the universe is always improper-ideal last
    assert all_ideals(linear5)[-1].bits == 31


def test_all_ideals_equal_subset_filter_oracle(linear5, nonlinear6):
    for alg in (linear5, nonlinear6):
        assert [i.bits for i in all_ideals(alg)] == oracle_ideals(alg)


def test_certify_rejects_non_ideal(linear5):
    with pytest.raises(NotAnIdeal):
        certify_ideal(linear5, subset(linear5, "bot,a"))


def test_prime_examples(linear5, nonlinear6):
    prime = certify_ideal(linear5, subset(linear5, "bot,a,0,1"))
    assert is_prime(linear5, prime).ok

    not_prime = certify_ideal(nonlinear6, subset(nonlinear6, "bot,0,1"))
    verdict = is_prime(nonlinear6, not_prime)
    x, y, nxy, nyx = verdict.witness
    # both residual negations evaluate to a, and a is outside the ideal
    assert (nonlinear6.name_of(nxy), nonlinear6.name_of(nyx)) == ("a", "a")
    assert nonlinear6.name_of(y) == "a"

    assert is_prime(linear5, certify_ideal(linear5, Subset.universe(5))).ok


def test_every_chain_ideal_is_prime(linear5):
    for ideal in all_ideals(linear5):
        assert is_prime(linear5, ideal).ok


def test_distributive_examples(linear5):
    prime = certify_ideal(linear5, subset(linear5, "bot,a,0,1"))
    assert is_distributive_ideal(linear5, prime).ok
    assert is_distributive_ideal(linear5, certify_ideal(linear5, Subset.universe(5))).ok


def test_distributive_reduces_on_distributive_lattices(linear5):
    # on a chain both lattice sides coincide, so membership of w * ~w
    # for every w decides the classification
    for ideal in all_ideals(linear5):
        reduced = all(
            ideal.bits >> linear5.mult(w, linear5.neg(w)) & 1
            for w in range(linear5.n)
        )
        assert reduced == is_distributive_ideal(linear5, ideal).ok


def test_implicative(linear5):
    verdict = is_implicative(linear5, subset(linear5, "bot,0"))
    # fails at x = y = a, z = 0: both premises land in {bot,0} but
    # ~(a->0) = a does not
    assert verdict.witness == (3, 3, 1, 3)
    assert is_implicative(linear5, Subset.universe(5)).ok
    with pytest.raises(ZeroMissing):
        is_implicative(linear5, subset(linear5, "bot"))


def test_idempotent_algebras_have_implicative_ideals(census):
    hit = 0
    for algs in census.values():
        for alg in algs:
            if not is_idempotent(alg):
                continue
            hit += 1
            for ideal in all_ideals(alg):
                assert is_implicative(alg, ideal).ok, (alg.name, ideal.bits)
    assert hit > 0  # the census does contain idempotent algebras


def test_affine(linear5, census):
    prime = certify_ideal(linear5, subset(linear5, "bot,a,0,1"))
    assert not is_affine(linear5, prime)  # top*0 = top falls outside
    assert is_affine(linear5, certify_ideal(linear5, Subset.universe(5)))
    two = census[2][0]  # top == one, so top*0 = 0 lies in every ideal
    for ideal in all_ideals(two):
        assert is_affine(two, ideal)


def test_zero_downset(linear5, nonlinear6, one_element):
    assert zero_downset(linear5).bits == 0b00011
    assert zero_downset(nonlinear6).bits == 0b000011
    assert zero_downset(one_element).bits == 1


def test_zero_downset_always_certifies(census):
    for algs in census.values():
        for alg in algs:
            zero_downset(alg)  # NotAnIdeal would mean a validator bug


def test_classify(linear5, nonlinear6):
    prime = certify_ideal(linear5, subset(linear5, "bot,a,0,1"))
    flags = classify(linear5, prime)
    assert (flags.is_prime, flags.is_distributive) == (True, True)
    assert (flags.is_affine, flags.is_zero_downset) == (False, False)
    assert flags.is_implicative  # computed exhaustively over 125 triples

    np = classify(nonlinear6, certify_ideal(nonlinear6, subset(nonlinear6, "bot,0,1")))
    assert not np.is_prime
    assert classify(linear5, zero_downset(linear5)).is_zero_downset

    universe = classify(linear5, certify_ideal(linear5, Subset.universe(5)))
    assert universe.is_prime and universe.is_distributive
    assert universe.is_implicative and universe.is_affine
    assert not universe.is_zero_downset


def test_ideal_witnesses_replay(linear5, nonlinear6):
    from clalg.replay import confirm_witness

    cases = [
        (nonlinear6, is_ideal(nonlinear6, subset(nonlinear6, "bot,0,b")), "bot,0,b"),
        (linear5, is_ideal(linear5, subset(linear5, "bot,0,1")), "bot,0,1"),
        (nonlinear6,
         is_prime(nonlinear6, certify_ideal(nonlinear6, subset(nonlinear6, "bot,0,1"))),
         "bot,0,1"),
        (linear5, is_implicative(linear5, subset(linear5, "bot,0")), "bot,0"),
    ]
    for alg, verdict, names in cases:
        assert not verdict.ok
        assert confirm_witness(alg, verdict, ideal_bits=subset(alg, names).bits)


def test_no_point_outside_a_domain_violates(linear5, nonlinear6):
    # replay re-evaluates a violation at the witnessed point without asking
    # whether it lies in the entry's domain, so off its domain every
    # violation returns None and no made-up witness is confirmed
    from clalg import ideals, quotient
    from clalg.replay import LAWS, confirm_witness

    outside = Counter()
    for alg in (linear5, nonlinear6):
        for ideal in all_ideals(alg):
            for tag, (context, entries) in LAWS.items():
                try:
                    ctx = context(alg, ideal.bits)
                except (quotient.NotACongruence, quotient.QuotientInvalid):
                    # no quotient for a claim to read: replay refuses its
                    # witnesses before any point is evaluated
                    assert tag in quotient.CLAIMS and alg is nonlinear6, tag
                    continue
                for entry in entries:
                    coordinates = [range(alg.n)] * entry.arity
                    if entry is ideals._CLOSED:  # the closure kind comes first
                        coordinates[0] = tuple(ideals._CLOSURE)
                    domain = set(entry.domain(ctx))
                    points = [p for p in product(*coordinates) if p not in domain]
                    bad = [p for p in points if entry.violation(ctx, *p) is not None]
                    assert not bad, (tag, entry.kind, alg.name, ideal.bits, bad[:3])
                    outside[tag, entry.kind] += len(points)
    assert outside["ideal", "zero_missing"] and outside["ideal", None], outside
    assert outside["zero_downset_singleton_classes", None], outside
    assert set(quotient.CLAIMS) <= {tag for tag, _kind in outside}
    bits = subset(linear5, "bot,0").bits
    for witness in (("zero_missing", 4), ("plus_not_closed", 2, 2, 2)):
        assert not confirm_witness(linear5, Verdict("ideal", False, witness), bits), witness


def test_classification_is_recomputed_not_inherited(linear5):
    small = certify_ideal(linear5, subset(linear5, "bot,0"))
    large = certify_ideal(linear5, subset(linear5, "bot,a,0,1"))
    assert small.bits & large.bits == small.bits
    # both evaluations run the full pair scan independently
    assert is_prime(linear5, small).ok
    assert is_prime(linear5, large).ok


def test_negated_implication_lands_in_every_ideal(linear5):
    # whenever x <= y, ~(x->y) is below zero and hence in any ideal
    for ideal in all_ideals(linear5):
        for x in range(linear5.n):
            for y in range(linear5.n):
                if linear5.leq(x, y):
                    assert linear5.neg(linear5.imp(x, y)) in ideal


def test_generated_equals_oracle_closure_examples(linear5, nonlinear6):
    for alg in (linear5, nonlinear6):
        for seed in range(1 << alg.n):
            got = generated_ideal(alg, Subset(alg.n, seed)).bits
            assert got == oracle_ideal_closure(alg, seed), (alg.name, seed)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 63))
def test_generated_ideal_is_least_superset(seed):
    from clalg.fixtures import nonlinear_candidate

    alg = nonlinear_candidate()
    ideal = generated_ideal(alg, Subset(alg.n, seed))
    assert ideal.bits & seed == seed
    assert is_ideal(alg, ideal).ok
    assert ideal.bits == oracle_ideal_closure(alg, seed)


# --- every ideal is principal where every join exists -------------------------

def lukasiewicz(ks):
    """The product of the Łukasiewicz chains L_k, k in `ks`, sealed."""
    plain = lukasiewicz_product(ks)
    n = plain.n
    return seal(AlgebraCandidate("L" + "_".join(map(str, ks)), tuple(f"e{i}" for i in range(n)),
                                 OrderRelation(n, plain.order.up), plain.mult_table,
                                 plain.imp_table, plain.bot, plain.zero, plain.one))


@pytest.mark.parametrize("ks", [(64,), (8, 8), (4, 4, 4), (2,) * 6])
def test_large_products_list_their_ideals_at_once(ks):
    # each finite MV-chain is simple, so a product of m of them has 2^m
    # ideals; 2^6 has M(6) = 7,828,354 down-sets, and 64 elements
    alg = lukasiewicz(ks)
    start = time.process_time()
    ideals = all_ideals(alg)
    assert time.process_time() - start < 1.0
    assert len(ideals) == 2 ** len(ks)
    for ideal in ideals:
        certify_ideal(alg, ideal)
    # the least ideal containing x is the meet of the listed ones
    for x in range(0, alg.n, 7):
        least = (1 << alg.n) - 1
        for ideal in ideals:
            if x in ideal:
                least &= ideal.bits
        assert generated_ideal(alg, Subset(alg.n, 1 << x)).bits == least, x


def _commutative(alg):
    mult = alg.mult_table
    return all(mult[x][y] == mult[y][x] for x in range(alg.n) for y in range(x))


def _collapsed(alg):
    """`alg` with its first cover lo < hi whose collapse keeps every join
    turned into hi <= lo as well: a preorder, no longer a partial order."""
    up = alg.order.up
    for lo, hi in alg.order.covers:
        order = OrderRelation(alg.n, tuple(u | up[lo] if u >> hi & 1 else u for u in up))
        cand = replace(alg.as_candidate(), order=order)
        if cand.lattice_with_imp:
            return [cand]
    return []


def test_ideals_are_the_principal_ones_on_any_order_with_every_join(census_2_6):
    # the principal characterisation uses the order alone: on the census,
    # on candidates that are no CL-algebras and on preorders, the ideals
    # and the least ideal over every seed are the subset filter's
    # (the closure law reads the pairs x <= y by index, the oracle both
    # orders, so the mutants keep a commutative fusion table)
    rng = random.Random(36)
    mutants = [m for alg in census_2_6 for m in _mutants(alg, rng, count=2)
               if _commutative(m) and validate(m).algebra is None]
    preorders = [p for alg in census_2_6 for p in _collapsed(alg)]
    assert len(mutants) > 200 and len(preorders) > 100
    for alg in census_2_6 + mutants + preorders:
        assert alg.lattice_with_imp
        expected = oracle_ideals(alg)
        assert [i.bits for i in all_ideals(alg)] == expected, (alg.order.up, alg.mult_table)
        for seed in range(1 << alg.n):
            least = (1 << alg.n) - 1
            for bits in expected:
                if bits & seed == seed:
                    least &= bits
            assert generated_ideal(alg, Subset(alg.n, seed)).bits == least, (alg.order.up, seed)


def test_all_ideals_scans_the_down_sets_where_a_bound_is_missing(linear5, nonlinear6):
    # no meet of the two minimal elements: the down-sets are filtered; no
    # join of two maximal elements: the scan raises at that pair
    def order(alg, covers):
        return replace(alg.as_candidate(), order=OrderRelation.from_covers(alg.n, covers))

    for alg, expected in ((linear5, [2, 7, 15, 31]), (nonlinear6, [2, 7, 15, 31, 63])):
        chain = [(x, x + 1) for x in range(2, alg.n - 1)]
        cand = order(alg, [(0, 2), (1, 2)] + chain)
        assert not cand.lattice_with_imp
        assert [i.bits for i in all_ideals(cand)] == expected
    vee = order(linear5, [(0, x) for x in range(1, linear5.n)])
    with pytest.raises(NotALattice, match="no join for elements 1 and 4"):
        all_ideals(vee)


def test_all_ideals_keeps_equivalent_elements_together(linear5, census_2_6):
    # where a meet is missing the down-sets are scanned, and an element
    # with an equivalent partner enters with its whole class
    cand = replace(linear5.as_candidate(), order=OrderRelation(5, (29, 30, 28, 24, 24)))
    assert not cand.lattice_with_imp
    assert [i.bits for i in all_ideals(cand)] == oracle_ideals(cand) == [2, 7, 31]
    rng, preorders = random.Random(37), []
    for alg in census_2_6:  # seeded preorders: an equivalent pair, a meet missing, every join
        for _ in range(20):
            covers = [(x, y) for x in range(alg.n) for y in range(alg.n)
                      if x != y and rng.random() < 0.3]
            order = OrderRelation.from_covers(alg.n, covers)
            if (any(u & d & ~(1 << x) for x, (u, d) in enumerate(zip(order.up, order.dn)))
                    and any(None in row for row in order.glbs)
                    and not any(None in row for row in order.lubs)):
                preorders.append(replace(alg.as_candidate(), order=order))
                break
    assert len(preorders) > 100
    for cand in preorders:
        assert [i.bits for i in all_ideals(cand)] == oracle_ideals(cand), cand.order.up
