import random
from dataclasses import replace
from itertools import chain, product

import pytest

from oracles import oracle_congruence, oracle_congruence_certificate
from test_identities import _force_seal

import clalg.quotient
import clalg.validator
from clalg.core import (
    AlgebraCandidate,
    FiniteCLAlgebra,
    ImplicationAbsent,
    NotALattice,
    OrderRelation,
)
from clalg.ideals import Ideal, Subset, all_ideals, certify_ideal, zero_downset
from clalg.laws import Verdict
from clalg.quotient import (
    NotACongruence,
    QuotientInvalid,
    build_quotient,
    check_order_criterion,
    class_of,
    _related,
    congruence_from_ideal,
    theorem_suite,
)
from clalg.replay import confirm_witness
from clalg.search import SearchConfig, canonical_form, run_search
from clalg.validator import is_linear


def ideal_of(alg, names):
    return certify_ideal(alg, Subset.from_names(alg, names))


def test_zero_downset_gives_identity_partition(linear5):
    cong = congruence_from_ideal(linear5, zero_downset(linear5))
    assert [c.bits for c in cong.classes] == [1, 2, 4, 8, 16]
    assert cong.certificate.ok
    assert class_of(cong, 2).bits == 4


def test_universe_ideal_collapses_everything(linear5):
    universe = certify_ideal(linear5, Subset.universe(5))
    cong = congruence_from_ideal(linear5, universe)
    assert len(cong.classes) == 1
    quot = build_quotient(linear5, universe)
    assert quot.algebra.n == 1
    assert quot.algebra.top == quot.algebra.one


def test_quotient_by_zero_downset_is_isomorphic_to_base(linear5):
    quot = build_quotient(linear5, zero_downset(linear5))
    assert quot.algebra.n == linear5.n
    assert canonical_form(quot.algebra) == canonical_form(linear5)
    assert quot.algebra.elements == ("[bot]", "[0]", "[1]", "[a]", "[top]")


def test_prime_ideal_quotient_is_linear(linear5):
    prime = ideal_of(linear5, "bot,a,0,1")
    cong = congruence_from_ideal(linear5, prime)
    assert [c.bits for c in cong.classes] == [1, 14, 16]  # {bot},{0,1,a},{top}
    quot = build_quotient(linear5, prime)
    assert quot.algebra.n == 3
    assert is_linear(quot.algebra)
    # zero and one collapse into the middle class
    assert quot.algebra.zero == quot.algebra.one == 1
    assert quot.projection[2] == quot.projection[3] == 1


def test_projection_is_a_homomorphism(linear5):
    for ideal in all_ideals(linear5):
        quot = build_quotient(linear5, ideal)
        q = quot.algebra
        proj = quot.projection
        for x in range(linear5.n):
            assert q.neg(proj[x]) == proj[linear5.neg(x)]
            for y in range(linear5.n):
                assert q.meet(proj[x], proj[y]) == proj[linear5.meet(x, y)]
                assert q.join(proj[x], proj[y]) == proj[linear5.join(x, y)]
                assert q.mult(proj[x], proj[y]) == proj[linear5.mult(x, y)]
                assert q.imp(proj[x], proj[y]) == proj[linear5.imp(x, y)]


def test_order_criterion_biconditional(linear5):
    zd = zero_downset(linear5)
    assert check_order_criterion(linear5, zd, 1, 3) == (True, True)  # 0 <= a
    for x in range(linear5.n):
        assert check_order_criterion(linear5, zd, x, x) == (True, True)
    universe = certify_ideal(linear5, Subset.universe(5))
    for x in range(linear5.n):
        for y in range(linear5.n):
            assert check_order_criterion(linear5, universe, x, y) == (True, True)
    for ideal in all_ideals(linear5):
        for x in range(linear5.n):
            for y in range(linear5.n):
                left, right = check_order_criterion(linear5, ideal, x, y)
                assert left == right, (ideal.bits, x, y)


def test_congruence_matches_oracle(linear5, nonlinear6):
    for alg in (linear5, nonlinear6):
        for ideal in all_ideals(alg):
            cong = congruence_from_ideal(alg, ideal)
            rel, equivalence, classes = oracle_congruence(alg, ideal.bits)
            assert equivalence
            assert [c.bits for c in cong.classes] == classes


def test_nonlinear_branch_ideal_certifies_and_collapses(nonlinear6):
    # {bot,0,1,b} glues the chain segment {0,1,b} into one class and the
    # quotient becomes a valid four-element diamond
    ideal = ideal_of(nonlinear6, "bot,0,1,b")
    cong = congruence_from_ideal(nonlinear6, ideal)
    assert [c.bits for c in cong.classes] == [1, 22, 8, 32]
    assert cong.certificate.ok
    quot = build_quotient(nonlinear6, ideal)
    assert quot.algebra.n == 4
    assert not is_linear(quot.algebra)


def test_nonlinear_small_ideal_breaks_compatibility(nonlinear6):
    # 0 and 1 are congruent mod {bot,0,1} but 0*b and 1*b are not
    ideal = ideal_of(nonlinear6, "bot,0,1")
    cong = congruence_from_ideal(nonlinear6, ideal)
    assert cong.certificate.witness == ("mult", 1, 2, 4, 4)
    with pytest.raises(NotACongruence):
        build_quotient(nonlinear6, ideal)


def test_replay_refuses_a_quad_outside_the_related_pairs(linear5):
    # modulo the zero down-set 1*1 = 1 and top*1 = top lie in different
    # classes, but 1 and top are not related, so (1, top, 1, 1) is no witness
    ideal = zero_downset(linear5)
    assert congruence_from_ideal(linear5, ideal).certificate.ok
    fake = Verdict("congruence", False, ("mult", 2, 4, 2, 2))
    assert confirm_witness(linear5, fake, ideal.bits) is False


def test_nonlinear_zero_downset_quotient_reported_invalid(nonlinear6):
    # singleton classes reproduce the defective base tables; the order
    # criterion cross-check catches the disagreement instead of sealing
    ideal = zero_downset(nonlinear6)
    cong = congruence_from_ideal(nonlinear6, ideal)
    assert all(len(c) == 1 for c in cong.classes)
    assert cong.certificate.ok
    with pytest.raises(QuotientInvalid) as exc:
        build_quotient(nonlinear6, ideal)
    assert exc.value.witness == ("order_criterion", 2, 4, True, False)


def _non_transitive_candidate():
    order = OrderRelation.from_covers(3, [(0, 1), (1, 2)])
    mult = ((0, 0, 0), (0, 1, 0), (0, 0, 2))
    imp = ((2, 2, 2), (0, 2, 2), (0, 2, 2))  # ~p0=p2, ~p1=p0, ~p2=p0
    return AlgebraCandidate(
        name="crooked", elements=("p0", "p1", "p2"), order=order,
        mult_table=mult, imp_table=imp, bot=0, zero=0, one=1,
    )


def test_not_equivalence_is_reported_never_repaired():
    cand = _non_transitive_candidate()
    ideal = certify_ideal(cand, Subset(3, 0b001))
    with pytest.raises(NotACongruence) as exc:
        congruence_from_ideal(cand, ideal)
    assert exc.value.certificate.witness == ("transitivity", 0, 1, 2)


def test_theorem_suite_on_linear_fixture(linear5):
    prime = ideal_of(linear5, "bot,a,0,1")
    report = theorem_suite(linear5, prime)
    assert report.quotient_valid and report.ok
    statuses = {c.claim: c.status for c in report.claims}
    assert statuses == {
        "distributive_ideal_distributive_quotient": "holds",
        "prime_ideal_linear_quotient": "holds",
        "affine_ideal_residuated_quotient": "vacuous",
        "zero_downset_singleton_classes": "vacuous",
    }

    zd = theorem_suite(linear5, zero_downset(linear5))
    assert {c.claim: c.status for c in zd.claims}["zero_downset_singleton_classes"] == "holds"

    universe = theorem_suite(linear5, certify_ideal(linear5, Subset.universe(5)))
    assert {c.claim: c.status for c in universe.claims}[
        "affine_ideal_residuated_quotient"] == "holds"


def test_theorem_suite_surfaces_invalid_quotient(nonlinear6):
    report = theorem_suite(nonlinear6, zero_downset(nonlinear6))
    assert not report.quotient_valid
    assert not report.ok
    statuses = {c.claim: c.status for c in report.claims}
    assert statuses["zero_downset_singleton_classes"] == "holds"
    # the quotient-dependent claims were all vacuous for this ideal
    assert statuses["prime_ideal_linear_quotient"] == "vacuous"


def test_zero_downset_claim_is_violated_by_a_fat_class(census):
    # the 3-element chain with zero moved to its top: the zero-downset is
    # the universe, whose one congruence class holds every element
    cand = replace(census[3][0].as_candidate(), zero=2)
    report = theorem_suite(cand, certify_ideal(cand, Subset.universe(3)))
    claim = {c.claim: c for c in report.claims}["zero_downset_singleton_classes"]
    assert (claim.status, claim.verdict.witness) == ("violated", (0, 1))
    assert confirm_witness(cand, claim.verdict, 0b111)
    assert not report.ok


def test_theorem_suite_across_census(census):
    for algs in census.values():
        for alg in algs:
            for ideal in all_ideals(alg):
                report = theorem_suite(alg, ideal)
                assert report.congruence.certificate.ok, (alg.name, ideal.bits)
                assert report.quotient_valid, (alg.name, ideal.bits)
                bad = [c for c in report.claims if c.status not in ("holds", "vacuous")]
                assert not bad, (alg.name, ideal.bits, bad)


def test_quotient_extremes_across_census(census):
    # the universe ideal collapses to one element; the zero-downset
    # reproduces the algebra itself up to isomorphism
    for n, algs in census.items():
        if n > 4:
            continue
        for alg in algs:
            universe = certify_ideal(alg, Subset.universe(alg.n))
            assert build_quotient(alg, universe).algebra.n == 1
            zd = build_quotient(alg, zero_downset(alg))
            assert canonical_form(zd.algebra) == canonical_form(alg)


def test_zero_downset_quotient_of_a_sealed_algebra_is_it_renamed(census, monkeypatch):
    # equal to the quotient validated from scratch, which the unsealed
    # copy still builds, and sharing the base's order and its bound tables
    calls = []
    validate = clalg.quotient.validate
    monkeypatch.setattr(clalg.quotient, "validate",
                        lambda cand: calls.append(cand) or validate(cand))
    algebras = [alg for n in sorted(census) for alg in census[n]]
    for alg in algebras + list(run_search(SearchConfig(size=6)).algebras):
        alg = replace(alg)  # an empty memo
        ideal = zero_downset(alg)
        renamed = build_quotient(alg, ideal).algebra
        assert calls == [], alg.name
        validated = build_quotient(alg.as_candidate(), ideal).algebra
        assert len(calls) == 1 and calls.pop().elements == renamed.elements
        assert renamed == validated and type(renamed) is FiniteCLAlgebra, alg.name
        assert renamed.order is alg.order and renamed.elements == tuple(
            f"[{name}]" for name in alg.elements)
    with pytest.raises(TypeError):
        clalg.validator.renamed(alg.as_candidate(), "copy", alg.elements)



def test_renamed_quotient_builds_no_class_candidate(census_2_6, monkeypatch):
    # the renamed quotient is recognised before any class table is built:
    # no candidate (counted by exact class; the renamed copy is sealed)
    # and no validation
    algebras = [replace(alg) for alg in census_2_6]  # empty memos
    ideals = [zero_downset(alg) for alg in algebras]
    built, calls = [], []
    post_init = AlgebraCandidate.__post_init__
    monkeypatch.setattr(AlgebraCandidate, "__post_init__",
                        lambda self: built.append(type(self)) or post_init(self))
    monkeypatch.setattr(clalg.quotient, "validate", calls.append)
    for alg, ideal in zip(algebras, ideals):
        assert build_quotient(alg, ideal).algebra.order is alg.order
    assert len(algebras) == 133 and calls == []
    assert built.count(AlgebraCandidate) == 0 and built.count(FiniteCLAlgebra) == 133


def _by_definition(alg, cong, name):
    """The quotient as the general construction defines it: each class
    table read at the representatives, the class order by class meets,
    sealed by validate."""
    reps, cidx = cong.representatives(), cong.class_index

    def table(rows):
        return tuple(tuple(cidx[rows[r][s]] for s in reps) for r in reps)

    meets = table(alg.order.glbs)
    return clalg.validator.seal(AlgebraCandidate(
        name, tuple(f"[{alg.elements[r]}]" for r in reps),
        OrderRelation.from_leq(len(reps), [[v == i for v in row] for i, row in enumerate(meets)]),
        table(alg.mult_table), table(alg.imp_table), cidx[alg.bot], cidx[alg.zero], cidx[alg.one]))


def test_quotient_by_the_whole_algebra_is_the_general_one(census_2_6, monkeypatch, scans):
    # the one-class quotient is the one the general construction gives
    # (name, elements, tables, designations and top), still sealed by
    # validate, without composing a class table or scanning a point of
    # the order criterion
    composed, validated = [], []
    compose, validate = clalg.quotient.compose, clalg.quotient.validate
    monkeypatch.setattr(clalg.quotient, "compose",
                        lambda row, idx: composed.append(idx) or compose(row, idx))
    monkeypatch.setattr(clalg.quotient, "validate",
                        lambda cand: validated.append(cand) or validate(cand))
    for alg in map(replace, census_2_6):  # empty memos
        universe = certify_ideal(alg, Subset.universe(alg.n))
        quot = build_quotient(alg, universe).algebra
        name = f"{alg.name}_mod_{'_'.join(alg.elements)}"
        expected = _by_definition(alg, congruence_from_ideal(alg, universe), name)
        assert quot == expected and quot.validated == expected.validated, alg.name
        assert (quot.elements, quot.tables()) == ((f"[{alg.elements[0]}]",), (
            (1,), ((0,),), ((0,),), 0, 0, 0)), alg.name
    assert len(census_2_6) == len(validated) == scans["order_criterion",] == 133
    assert composed == [] and not [key for key in scans if key[0] == "order_criterion"
                                   and len(key) == 3], scans


def test_related_modulo_the_whole_algebra_is_the_literal_relation(census, nonlinear6):
    # every pair related, as the literal definition gives, on sealed
    # algebras, mutants and defective tables; without an implication
    # table it raises as any other ideal's relation does
    rng = random.Random(35)
    algebras = [alg for n in sorted(census) for alg in census[n]]
    for cand in [nonlinear6] + [m for alg in algebras for m in (alg, *_mutants(alg, rng, 2))]:
        full = (1 << cand.n) - 1
        rel, equivalence, classes = oracle_congruence(cand, full)
        assert _related(cand, full) == (cand, full, rel, [0] * cand.n)
        assert equivalence and classes == [full]
        no_imp = replace(cand.as_candidate(), imp_table=None)
        for bits in (full, 1 << cand.zero):
            with pytest.raises(ImplicationAbsent, match="neither supplied nor derived"):
                _related(no_imp, bits)


def test_a_sealed_copy_with_other_tables_is_validated_again(linear5, monkeypatch):
    # replace() carries over the record of the tables validate passed,
    # so a copy with other tables is validated like any candidate: with
    # mult(1, 1) set to the top it fails, and a seal forced by the tests
    # passes but is validated all the same
    calls = []
    validate = clalg.quotient.validate
    monkeypatch.setattr(clalg.quotient, "validate",
                        lambda cand: calls.append(cand) or validate(cand))
    rows = [list(row) for row in linear5.mult_table]
    rows[1][1] = linear5.top
    forged = replace(linear5, mult_table=tuple(map(tuple, rows)))
    with pytest.raises(QuotientInvalid) as exc:
        build_quotient(forged, zero_downset(forged))
    assert not exc.value.report.monoid and not exc.value.report.residuation
    forced, copy = _force_seal(linear5), replace(linear5)
    assert (build_quotient(forced, zero_downset(forced)).algebra
            == build_quotient(copy, zero_downset(copy)).algebra)
    assert len(calls) == 2 and calls[1].mult_table == linear5.mult_table

def _mutants(alg, rng, count=6):
    """`count` copies of `alg`, each with one mult cell (and its mirror)
    or one imp cell changed."""
    n = alg.n
    base = alg.as_candidate()
    for _ in range(count):
        which = rng.choice(("mult", "imp"))
        rows = [list(r) for r in getattr(base, f"{which}_table")]
        x, y = rng.randrange(n), rng.randrange(n)
        v = rng.choice([v for v in range(n) if v != rows[x][y]])
        rows[x][y] = v
        if which == "mult":
            rows[y][x] = v
        yield replace(base, **{f"{which}_table": tuple(tuple(r) for r in rows)})


def test_certificate_matches_oracle_on_mutants(census):
    # every zero-containing down-set of seeded mutants of the census
    # algebras of sizes 3..6, so that the certificate fails often
    rng = random.Random(8)
    algebras = [alg for n in (3, 4, 5) for alg in census[n]]
    algebras += run_search(SearchConfig(size=6)).algebras
    checked = failing = broken = 0
    for alg in algebras:
        for cand in _mutants(alg, rng):
            n, dn = cand.n, cand.order.dn
            for bits in range(1 << n):
                if not bits >> cand.zero & 1 or any(
                        dn[y] & ~bits for y in range(n) if bits >> y & 1):
                    continue
                rel, equivalence, _classes = oracle_congruence(cand, bits)
                try:
                    cong = congruence_from_ideal(cand, Ideal(n, bits))
                except NotACongruence as exc:
                    # no equivalence: the first failing reflexivity, else
                    # transitivity, point is the witness, and it replays
                    cert = exc.certificate
                    assert not equivalence, (cand.name, bits)
                    assert cert.witness == next(chain(
                        (("reflexivity", x) for x in range(n) if not rel[x] >> x & 1),
                        (("transitivity", x, y, z) for x, y, z in product(range(n), repeat=3)
                         if rel[x] >> y & rel[y] >> z & 1 and not rel[x] >> z & 1))), cert
                    assert confirm_witness(cand, cert, bits)
                    broken += 1
                    continue
                assert equivalence, (cand.name, bits)
                ok, witness = oracle_congruence_certificate(cand, bits)
                cert = cong.certificate
                assert (cert.ok, cert.witness) == (ok, witness), (cand.mult_table,
                                                                  cand.imp_table, bits)
                assert confirm_witness(cand, cert, bits)
                checked += 1
                failing += not ok
    assert checked > 2000 and failing > 500 and broken, (checked, failing, broken)


def test_missing_join_is_raised_at_the_quad_scan_pair():
    # the 3-element Lukasiewicz tables on the "V" order p0 < p1, p0 < p2:
    # p1 and p2 have no join.  Modulo {p0, p2} the classes are {p0, p2}
    # and {p1}; the scan of quads (x, x', y, y') asks for join(p2, p1) at
    # (p0, p2, p1, p1) before its quads ever ask for join(p1, p2)
    cand = AlgebraCandidate(
        name="vee", elements=("p0", "p1", "p2"),
        order=OrderRelation.from_covers(3, [(0, 1), (0, 2)]),
        mult_table=((0, 0, 0), (0, 0, 1), (0, 1, 2)),
        imp_table=((2, 2, 2), (1, 2, 2), (0, 1, 2)), bot=0, zero=0, one=2,
    )
    with pytest.raises(NotALattice) as exc:
        congruence_from_ideal(cand, Ideal(3, 0b101))
    assert (exc.value.x, exc.value.y, exc.value.kind) == (2, 1, "join")
