import pytest

from clalg.core import FiniteCLAlgebra
from clalg.identities import IDENTITIES, UnknownIdentity, check_identity, run_identity_suite
from clalg.laws import first_violation, formula_law

# the suite order, which `clalg identities` prints
SUITE_ORDER = [
    "P2_1", "P2_2", "P2_3", "P2_4", "P2_5", "P2_6", "P2_7", "P2_8", "P2_9",
    "P2_10", "P2_11", "P2_12", "P2_13", "P2_14", "P2_15", "P2_16", "LEMMA_MEET_IMP",
]


def test_suite_has_seventeen_laws():
    assert len(IDENTITIES) == 17


def test_all_pass_on_linear_fixture(linear5):
    report = run_identity_suite(linear5)
    assert len(report) == 17
    assert all(v.ok for v in report.values())


def test_all_pass_on_one_element(one_element):
    assert all(v.ok for v in run_identity_suite(one_element).values())


def test_meta_check_census(census):
    # every validator-sealed algebra must satisfy every derived law;
    # a failure here is a validator bug, not a property of the algebra
    for algs in census.values():
        for alg in algs:
            report = run_identity_suite(alg)
            bad = [k for k, v in report.items() if not v.ok]
            assert not bad, (alg.name, bad)


def test_unit_implication_row(linear5):
    # 1->x = x reproduces the identity row
    assert check_identity(linear5, "P2_6").ok
    assert all(linear5.imp(linear5.one, x) == x for x in range(linear5.n))


def test_top_law_matches_sealed_top(linear5):
    assert check_identity(linear5, "P2_2").ok
    assert linear5.imp(linear5.bot, linear5.bot) == linear5.top


def test_dual_fusion_instance(linear5):
    # at (a, a): ~a->a and ~(~a * ~a) both come out as 1
    a = 3
    assert linear5.neg(a) == a
    assert linear5.imp(linear5.neg(a), a) == 2
    assert linear5.plus(a, a) == 2
    assert check_identity(linear5, "P2_14").ok


def test_negation_constants(linear5):
    assert check_identity(linear5, "P2_15").ok
    assert check_identity(linear5, "P2_16").ok
    assert linear5.neg(linear5.top) == linear5.bot


def test_check_identity_accepts_tag_strings(linear5):
    assert check_identity(linear5, "LEMMA_MEET_IMP").ok


def test_unknown_identity():
    with pytest.raises(UnknownIdentity):
        check_identity(None, "P2_99")


def _force_seal(cand):
    # test-only: wrap defective tables in the sealed type to drive the
    # identity scanners into their witness paths
    return FiniteCLAlgebra(
        cand.name, cand.elements, cand.order, cand.mult_table,
        cand.imp_table, cand.bot, cand.zero, cand.one, top=cand.derived_top(),
    )


def test_witnesses_on_defective_tables(nonlinear6):
    forced = _force_seal(nonlinear6)
    v7 = check_identity(forced, "P2_7")
    assert v7.witness == (1, 2, 4, 4)  # 0<=1, b<=b, but imp(1,b) not<= imp(0,b)
    v9 = check_identity(forced, "P2_9")
    assert v9.witness == (4, 2)  # b*(b->1) = b is not below 1
    report = run_identity_suite(forced)
    failing = sorted(k for k, v in report.items() if not v.ok)
    assert failing == [
        "LEMMA_MEET_IMP", "P2_1", "P2_10", "P2_11", "P2_12",
        "P2_4", "P2_5", "P2_7", "P2_9",
    ]


def test_report_keys_are_identity_ids(linear5):
    report = run_identity_suite(linear5)
    assert list(report) == SUITE_ORDER
    for ident, verdict in report.items():
        assert verdict.law == ident


def test_guarded_laws_hold_vacuously_where_guard_fails(census):
    # spot-check: in the two-element algebra 1 = top, so the guard of
    # the join/fusion comparison only admits x = y = 1
    two = census[2][0]
    assert check_identity(two, "P2_4").ok
    assert check_identity(two, "P2_3").ok


def test_identity_witnesses_replay(nonlinear6):
    from clalg.replay import confirm_witness

    forced = _force_seal(nonlinear6)
    for ident, verdict in run_identity_suite(forced).items():
        assert confirm_witness(forced, verdict), ident


@pytest.mark.parametrize("formula", ["x*(y", "x <= ", "x $ y", "x,y", "x == y z", "xy <= x",
                                     "__import__ == x", "", "x <= y iff", "iff x <= y"])
def test_formula_outside_the_grammar_is_rejected(formula):
    with pytest.raises(ValueError):
        formula_law(formula, lambda A: False)


def _scan(formula, alg):
    # holds is always False, so every point is scanned
    return first_violation("law", (formula_law(formula, lambda A: False),), alg)


@pytest.mark.parametrize("formula", ["x|y&z == x|(y&z)", "x->y->z == x->(y->z)",
                                     "x<=y, y<=x iff x == y"])
def test_precedence_and_associativity_group_as_written_out(census, formula):
    # & binds tighter than |, and -> associates to the right; no formula
    # of the suite has an unparenthesised -> chain.  iff, as implies,
    # takes a whole condition on each side: "x<=y and (y<=x iff x == y)"
    # would fail wherever x <= y fails
    assert all(_scan(formula, alg) for algs in census.values() for alg in algs)


def test_the_other_grouping_fails_on_the_three_chain(census):
    assert not any(_scan("x|y&z == (x|y)&z", alg) for alg in census[3])
