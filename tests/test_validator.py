import random
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from oracles import oracle_validate

import clalg.validator
from clalg.core import AlgebraCandidate, FiniteCLAlgebra, OrderRelation
from clalg.fixtures import linear_candidate, nonlinear_candidate
from clalg.laws import Verdict
from clalg.validator import (
    EquivalenceBroken,
    NotACLAlgebra,
    is_distributive_lattice,
    is_idempotent,
    is_linear,
    is_residuated_lattice,
    seal,
    validate,
)


def test_linear_fixture_promotes(linear5_candidate):
    report = validate(linear5_candidate)
    assert report.passed
    assert isinstance(report.algebra, FiniteCLAlgebra)
    assert report.top == 4
    f = report.flags
    assert (f.is_linear, f.is_distributive_lattice) == (True, True)
    assert (f.is_idempotent, f.is_residuated_lattice) == (False, False)


def test_nonlinear_fixture_fails_residuation(nonlinear6):
    report = validate(nonlinear6)
    assert report.lattice.ok and report.monoid.ok and report.involution.ok
    assert not report.residuation.ok
    # first adjunction failure: 1 <= b->0 = b, yet 1*b = b is not below 0
    assert report.residuation.witness == ("adjunction", 2, 4, 1)
    assert report.algebra is None


def _agree(cand):
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


def test_oracle_agreement_on_fixtures():
    assert _agree(linear_candidate()).passed
    assert not _agree(nonlinear_candidate()).passed


def test_check_lattice_antichain_reports_no_join():
    order = OrderRelation(2, (0b01, 0b10))
    cand = AlgebraCandidate(
        name="pair", elements=("p", "q"), order=order,
        mult_table=((0, 1), (1, 1)), imp_table=None, bot=0, zero=0, one=0,
    )
    verdict = validate(cand).lattice
    assert verdict.witness == ("no_join", 0, 1, ())


def test_check_lattice_wrong_bot():
    order = OrderRelation.from_covers(2, [(0, 1)])
    cand = AlgebraCandidate(
        name="upside", elements=("lo", "hi"), order=order,
        mult_table=((0, 0), (0, 1)), imp_table=None, bot=1, zero=0, one=1,
    )
    assert validate(cand).lattice.witness == ("bot_not_least", 0)


def test_check_monoid_left_projection_fails_commutativity():
    order = OrderRelation.from_covers(2, [(0, 1)])
    cand = AlgebraCandidate(
        name="proj", elements=("x", "y"), order=order,
        mult_table=((0, 0), (1, 1)), imp_table=None, bot=0, zero=0, one=1,
    )
    assert validate(cand).monoid.witness == ("commutativity", 0, 1)


def test_check_monoid_unit_witness():
    order = OrderRelation.from_covers(2, [(0, 1)])
    cand = AlgebraCandidate(
        name="allbot", elements=("x", "y"), order=order,
        mult_table=((0, 0), (0, 0)), imp_table=None, bot=0, zero=0, one=1,
    )
    assert validate(cand).monoid.witness == ("unit", 1)


def test_check_monoid_associativity_witness():
    order = OrderRelation.from_covers(3, [(0, 1), (1, 2)])
    mult = ((1, 0, 0), (0, 0, 1), (0, 1, 2))  # commutative, unit 2, broken assoc
    cand = AlgebraCandidate(
        name="brokeassoc", elements=("x", "y", "z"), order=order,
        mult_table=mult, imp_table=None, bot=0, zero=0, one=2,
    )
    assert validate(cand).monoid.witness == ("associativity", 0, 0, 1)


def test_check_residuation_witness(linear5_candidate, nonlinear6):
    assert validate(linear5_candidate).residuation.ok
    verdict = validate(nonlinear6).residuation
    assert (verdict.law, verdict.ok) == ("residuation", False)
    assert verdict.witness == ("adjunction", 2, 4, 1)


def test_check_involution_witness(linear5_candidate):
    rows = [list(r) for r in linear5_candidate.imp_table]
    rows[3][1] = 4  # ~a now top, and ~top = bot != a
    cand = replace(linear5_candidate, imp_table=tuple(tuple(r) for r in rows))
    assert validate(cand).involution.witness == ("involution", 3)


def test_validate_derives_missing_implication(linear5_candidate):
    bare = replace(linear5_candidate, imp_table=None)
    report = validate(bare)
    assert report.passed
    assert report.algebra.imp_table == linear5_candidate.imp_table
    assert bare.imp_table is None  # the input is never mutated


def test_validate_underivable_marks_involution_skipped():
    covers = [(0, 1), (0, 2), (0, 3), (1, 4), (2, 4), (3, 4)]
    order = OrderRelation.from_covers(5, covers)
    meet = order.glbs
    cand = AlgebraCandidate(
        name="m3", elements=("o", "p", "q", "r", "i"), order=order,
        mult_table=meet, imp_table=None, bot=0, zero=0, one=4,
    )
    report = validate(cand)
    assert report.residuation.witness == ("no_residual", 1, 0, (2, 3))
    assert report.involution.skipped
    assert not report.passed


def test_seal_raises_with_report(nonlinear6):
    with pytest.raises(NotACLAlgebra) as exc:
        seal(nonlinear6)
    assert not exc.value.report.residuation.ok


def test_validate_is_deterministic_and_idempotent(linear5):
    again = validate(linear5.as_candidate())
    assert again.passed
    assert again.top == linear5.top
    assert again.algebra.mult_table == linear5.mult_table
    assert again.algebra.imp_table == linear5.imp_table


def test_is_residuated_lattice(linear5, census):
    assert is_residuated_lattice(linear5) is False  # top and one differ
    two = census[2][0]
    assert two.top == two.one
    assert is_residuated_lattice(two) is True
    # sealing does not compute the flags, so this is where the
    # integrality cross-check (EquivalenceBroken) meets every census algebra
    for algs in census.values():
        for alg in algs:
            assert is_residuated_lattice(alg) is (alg.top == alg.one)


def test_equivalence_broken_on_tampered_algebra(linear5):
    # force top == one on tables whose fusion is not integral
    fake = FiniteCLAlgebra(
        linear5.name, linear5.elements, linear5.order, linear5.mult_table,
        linear5.imp_table, linear5.bot, linear5.zero, linear5.one, top=linear5.one,
    )
    with pytest.raises(EquivalenceBroken):
        is_residuated_lattice(fake)


def test_equivalence_broken_on_integral_algebra_with_another_top(census):
    # force top != one on tables whose fusion is integral
    alg = next(alg for n in sorted(census) for alg in census[n] if alg.top == alg.one)
    assert is_residuated_lattice(alg)
    fake = FiniteCLAlgebra(
        alg.name, alg.elements, alg.order, alg.mult_table,
        alg.imp_table, alg.bot, alg.zero, alg.one, top=alg.bot,
    )
    with pytest.raises(EquivalenceBroken, match="top != one"):
        is_residuated_lattice(fake)


def test_structural_predicates(linear5, nonlinear6):
    assert is_linear(linear5)
    assert is_distributive_lattice(linear5)  # chains are distributive
    assert not is_idempotent(linear5)  # a*a = 0
    assert not is_linear(nonlinear6)


def test_linear_census_algebras_are_distributive(census):
    # total orders always pass the distributivity scan
    for algs in census.values():
        for alg in algs:
            if is_linear(alg):
                assert is_distributive_lattice(alg)


@settings(max_examples=60, deadline=None)
@given(st.randoms(use_true_random=False))
def test_mutation_agreement_with_oracle(rand: random.Random):
    base = linear_candidate() if rand.random() < 0.5 else nonlinear_candidate()
    n = base.n
    which = rand.choice(("mult", "imp"))
    table = base.mult_table if which == "mult" else base.imp_table
    rows = [list(r) for r in table]
    rows[rand.randrange(n)][rand.randrange(n)] = rand.randrange(n)
    mutated = tuple(tuple(r) for r in rows)
    cand = replace(base, **{f"{which}_table": mutated})
    report = _agree(cand)
    # every reported witness must reproduce its violation when replayed
    from clalg.replay import confirm_witness

    for verdict in report.verdicts:
        assert confirm_witness(cand, verdict)


def test_no_residual_witness_replays():
    from clalg.replay import confirm_witness

    covers = [(0, 1), (0, 2), (0, 3), (1, 4), (2, 4), (3, 4)]
    order = OrderRelation.from_covers(5, covers)
    meet = order.glbs
    cand = AlgebraCandidate(
        name="m3", elements=("o", "p", "q", "r", "i"), order=order,
        mult_table=meet, imp_table=None, bot=0, zero=0, one=4,
    )
    report = validate(cand)
    assert confirm_witness(cand, report.residuation)


def test_replay_refuses_a_witness_no_law_declares(nonlinear6):
    # an unknown law, and a kind no entry of a known law carries
    from clalg.replay import confirm_witness

    report = validate(nonlinear6)
    assert not report.residuation and confirm_witness(nonlinear6, report.residuation)
    for law, witness in (("no_such_law", ("adjunction", 0, 0, 0)), ("lattice", ("no_kind", 0))):
        assert confirm_witness(nonlinear6, Verdict(law, False, witness)) is False


def test_equivalence_broken_on_an_element_above_imp_bot_bot(linear5_candidate, monkeypatch):
    # with the four laws stubbed to pass, linear5 with imp(bot, bot)
    # lowered to a reaches the consistency check in validate itself
    for law in ("LATTICE", "MONOID", "RESIDUATION", "INVOLUTION"):
        monkeypatch.setattr(clalg.validator, law, ())
    cand = linear5_candidate
    rows = [list(row) for row in cand.imp_table]
    a = rows[cand.bot][cand.bot] = cand.index("a")
    lowered = replace(cand, imp_table=tuple(map(tuple, rows)))
    assert validate(cand).algebra is not None  # the stubs pass the unchanged tables
    above = next(x for x in range(cand.n) if not cand.leq(x, a))  # the first not below a
    with pytest.raises(EquivalenceBroken, match=fr"{above} is not below imp\(bot, bot\) = {a}"):
        validate(lowered)


def test_replay_refuses_a_point_outside_the_universe(linear5, monkeypatch):
    # made-up witnesses on linear5 whose point leaves the universe, or
    # whose closure kind no entry declares, are refused, not raised on
    from clalg import replay
    from clalg.laws import Law, cube

    bits = linear5.order.dn[linear5.zero]  # {bot, 0}
    for law, witness in (("ideal", ("sum_not_closed", 0, 0, 0)),
                         ("congruence", ("mult", 9, 9, 9, 9)),
                         ("lattice", ("transitivity", 7, 0, 0)),
                         ("P2_5", (9, 0, 0)),
                         ("lattice", ("transitivity", -1, 0, 0)),
                         ("ideal", ("plus_not_closed", 0, -5, 0)),
                         ("P2_5", ("plus_not_closed", 0, 0)),
                         ("P2_5", (0, 0))):  # a point short of the entry's arity
        assert replay.confirm_witness(linear5, Verdict(law, False, witness), bits) is False
    # such a point never reaches the violation: a probe that confirms
    # every point it is asked about is asked only inside the universe
    asked = []
    probe = Law("probe", cube(1), lambda alg, x: asked.append(x) or (), lambda alg: False)
    monkeypatch.setitem(replay.LAWS, "probe", (lambda alg, _bits: alg, (probe,)))
    for x in (0, linear5.n - 1, linear5.n, -1, -linear5.n, 64):
        confirmed = replay.confirm_witness(linear5, Verdict("probe", False, ("probe", x)))
        assert confirmed is (x in range(linear5.n)), x
    assert asked == [0, linear5.n - 1]


def test_replay_refuses_a_witness_on_an_ideal_without_its_bits(linear5):
    # the laws of an ideal and of its congruence read the ideal bits, so
    # without them a witness, even a true one, is refused, not raised on
    from clalg import replay
    from clalg.ideals import Subset, is_ideal

    bits = Subset.from_names(linear5, "bot,0,1").bits
    verdict = is_ideal(linear5, Subset(linear5.n, bits))
    assert replay.confirm_witness(linear5, verdict, bits) is True
    assert replay.confirm_witness(linear5, verdict) is False
    for law, witness in (("ideal", ("zero_missing", linear5.zero)),
                         ("congruence", ("mult", 0, 0, 0, 0)),
                         ("prime", (0, 0, 0, 0))):
        assert replay.confirm_witness(linear5, Verdict(law, False, witness)) is False, law


def test_replay_refuses_a_made_up_claim_witness(linear5, nonlinear6):
    # a claim's context is built from the ideal bits: where they give no
    # congruence or no valid quotient there is nothing to replay
    from clalg import replay
    from clalg.ideals import Subset, zero_downset

    prime = Subset.from_names(linear5, "bot,0,a,1").bits
    no_congruence = Subset.from_names(nonlinear6, "bot,0,1").bits
    no_quotient = zero_downset(nonlinear6).bits
    for claim, witness in (("prime_ideal_linear_quotient", (0, 1)),
                           ("affine_ideal_residuated_quotient", (2, 3)),
                           ("distributive_ideal_distributive_quotient", (0, 1, 2)),
                           ("zero_downset_singleton_classes", (0, 1))):
        verdict = Verdict(claim, False, witness)
        assert replay.confirm_witness(linear5, verdict, prime) is False, claim
        outside = verdict._replace(witness=(linear5.n,) + witness[1:])
        assert replay.confirm_witness(linear5, outside, prime) is False, claim
        for bits in (no_congruence, no_quotient):
            assert replay.confirm_witness(nonlinear6, verdict, bits) is False, (claim, bits)
    # modulo the prime ideal 0, 1 and a share a class, so (0, a) is a witness
    assert replay.confirm_witness(linear5, Verdict("zero_downset_singleton_classes", False,
                                                   (1, 3)), prime) is True


def test_replay_refuses_a_closure_kind_that_is_no_string(linear5):
    from clalg import replay

    bits = linear5.order.dn[linear5.zero]
    for witness in (([1], 0, 1, 2), ({}, 0, 0, 0), (("plus_not_closed",), 0, 0, 0)):
        for ideal_bits in (bits, None):
            verdict = Verdict("ideal", False, witness)
            assert replay.confirm_witness(linear5, verdict, ideal_bits) is False, witness
