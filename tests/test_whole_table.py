"""The whole-table tests that let a law skip its point scan (laws.Law.holds,
required of every entry) change no result: every verdict and witness
matches an independent oracle, each entry answers exactly as its plain
scan, `_plain` (the same exception at the same pair where the order is
no lattice or not transitive), and, counted by the `scans` fixture, no
passing check scans a point on census algebras, the cubic ones
included."""

import random
from collections import Counter
from dataclasses import replace
from itertools import product

import pytest

from oracles import (
    ORACLE_IDENTITIES,
    oracle_distributive_ideal,
    oracle_identity,
    oracle_implicative,
    oracle_prime,
)
from test_identities import _force_seal

import clalg.ideals
import clalg.identities
import clalg.quotient
import clalg.validator
from clalg.core import AlgebraCandidate, AlgebraError, ImplicationAbsent, NotALattice, OrderRelation
from clalg.ideals import (
    DISTRIBUTIVE_IDEAL,
    IDEAL,
    IMPLICATIVE,
    PRIME,
    Ideal,
    IdealClassification,
    Subset,
    all_ideals,
    certify_ideal,
    classify,
    is_affine,
    is_distributive_ideal,
    is_ideal,
    is_implicative,
    is_prime,
)
from clalg.identities import IDENTITIES, check_identity, run_identity_suite
from clalg.laws import Law, Verdict, associates, compose, distributes, first_violation
from clalg.quotient import CONGRUENCE, ORDER_CRITERION, _Related, _related, theorem_suite
from clalg.search import SearchConfig, run_search
from clalg.validator import (
    DISTRIBUTIVE_LATTICE,
    EquivalenceBroken,
    INTEGRAL,
    INVOLUTION,
    LATTICE,
    MONOID,
    RESIDUATION,
    TOTAL,
    _imp_or_derive,
    is_distributive_lattice,
    is_linear,
    is_residuated_lattice,
    validate,
)


def _mutants(alg, rng, count=6):
    """`count` copies of `alg` with one change each: a mult cell and its
    mirror, a mult cell alone, an imp cell, zero or one."""
    n = alg.n
    base = alg.as_candidate()
    for _ in range(count):
        which = rng.choice(("mult", "mult_one_cell", "imp", "zero", "one"))
        if which in ("zero", "one"):
            yield replace(base, **{which: rng.choice([v for v in range(n)
                                                       if v != getattr(base, which)])})
            continue
        table = "imp" if which == "imp" else "mult"
        rows = [list(r) for r in getattr(base, f"{table}_table")]
        x, y = rng.randrange(n), rng.randrange(n)
        rows[x][y] = v = rng.choice([v for v in range(n) if v != rows[x][y]])
        if which == "mult":
            rows[y][x] = v
        yield replace(base, **{f"{table}_table": tuple(tuple(r) for r in rows)})


@pytest.fixture(scope="module")
def sealed_and_mutants(census):
    rng = random.Random(11)
    algebras = [alg for n in sorted(census) for alg in census[n]]
    return algebras + [_force_seal(m) for alg in algebras for m in _mutants(alg, rng)]


def _zero_subsets(alg):
    return [bits for bits in range(1 << alg.n) if bits >> alg.zero & 1]


def test_identities_match_the_oracle_on_mutants(sealed_and_mutants):
    failing = Counter()
    for alg in sealed_and_mutants:
        for ident in IDENTITIES:
            verdict = check_identity(alg, ident)
            expected = oracle_identity(alg, ident)
            assert (verdict.ok, verdict.witness) == expected, (alg.mult_table, alg.imp_table,
                                                               alg.zero, alg.one, ident)
            failing[ident] += not verdict.ok
    assert set(ORACLE_IDENTITIES) == set(IDENTITIES)
    # every identity of arity >= 2 fails somewhere, so its scan is compared too
    assert all(failing[ident] for ident, (_ctx, (law,)) in clalg.identities.LAWS.items()
               if law.arity >= 2), failing


def test_special_ideals_match_the_oracle_on_mutants(sealed_and_mutants):
    checks = (
        (lambda alg, s: is_prime(alg, Ideal(s.n, s.bits)), oracle_prime),
        (lambda alg, s: is_distributive_ideal(alg, Ideal(s.n, s.bits)), oracle_distributive_ideal),
        (is_implicative, oracle_implicative),
    )
    outcomes = Counter()
    for alg in sealed_and_mutants:
        dn = alg.order.dn
        for bits in _zero_subsets(alg):
            if any(dn[y] & ~bits for y in Subset(alg.n, bits)):
                continue  # down-sets only, as ideals are
            for index, (check, oracle) in enumerate(checks):
                verdict = check(alg, Subset(alg.n, bits))
                assert (verdict.ok, verdict.witness) == oracle(alg, bits), (
                    alg.mult_table, alg.imp_table, alg.zero, bits, verdict.law)
                outcomes[index, verdict.ok] += 1
    assert all(outcomes[index, ok] for index in range(3) for ok in (True, False)), outcomes


# --- the fast domain against the plain one -------------------------------

def _orders(n):
    """Orders on which the whole-table tests must fall through: an
    antichain, a cyclic relation (x <= x+1 mod n, not transitive), a
    chain without its transitive pairs, a chain whose top is not below
    itself (transitive, not reflexive) and a "V" with no joins."""
    yield OrderRelation(n, tuple(1 << x for x in range(n)))
    yield OrderRelation(n, tuple(1 << x | 1 << (x + 1) % n for x in range(n)))
    yield OrderRelation(n, tuple(1 << x | (1 << x + 1 if x + 1 < n else 0) for x in range(n)))
    yield OrderRelation(n, tuple((1 << n) - (1 << x) for x in range(n - 1)) + (0,))
    yield OrderRelation.from_covers(n, [(0, x) for x in range(1, n)])



def test_lattice_with_imp_holds_on_census_algebras_and_fixtures(census_2_6, linear5, nonlinear6):
    assert len(census_2_6) == 133
    assert all(alg.lattice_with_imp for alg in census_2_6 + [linear5, nonlinear6])


def test_lattice_with_imp_fails_where_the_tests_fall_through(census):
    # the orders above, the chain whose top is not below itself among
    # them, and a candidate without an implication table
    for alg in (alg for n in (3, 4, 5) for alg in census[n]):
        cand = alg.as_candidate()
        assert cand.lattice_with_imp and not replace(cand, imp_table=None).lattice_with_imp
        for order in _orders(alg.n):
            assert not replace(cand, order=order).lattice_with_imp, order.up

def _partitions(n, rng):
    """Equivalences as one class mask per element: all singletons, one
    class, and two seeded ones."""
    yield [1 << x for x in range(n)]
    yield [(1 << n) - 1] * n
    for _ in range(2):
        labels = [rng.randrange(n) for _ in range(n)]
        yield [sum(1 << y for y, w in enumerate(labels) if w == v) for v in labels]


def _contexts(cand, rng):
    """(entries, context) for each law with a whole-table test."""
    yield from ((entries, cand) for entries in (LATTICE, MONOID, INTEGRAL, DISTRIBUTIVE_LATTICE))
    yield TOTAL, cand.order
    for resolved in (_imp_or_derive(cand), _imp_or_derive(replace(cand, imp_table=None))):
        yield from ((entries, resolved) for entries in (RESIDUATION, INVOLUTION))
    forced = _force_seal(cand)
    yield from ((laws, forced) for _ctx, laws in clalg.identities.LAWS.values())
    subsets = _zero_subsets(cand)
    for bits in rng.sample(subsets, min(6, len(subsets))):
        yield from ((entries, (cand, bits))
                    for entries in (PRIME, DISTRIBUTIVE_IDEAL, IMPLICATIVE, IDEAL))
        # the relation the subset really induces, an equivalence or not
        yield CONGRUENCE + ORDER_CRITERION, _related(cand, bits)
    yield IDEAL, (cand, rng.choice([bits for bits in range(1, 1 << cand.n)
                                    if not bits >> cand.zero & 1]))
    for rel in _partitions(cand.n, rng):
        bits = rng.choice(_zero_subsets(cand))
        rep = [(m & -m).bit_length() - 1 for m in rel]  # the least of each class
        yield CONGRUENCE + ORDER_CRITERION, _Related(cand, bits, rel, rep)
    # the whole universe: as the ideal, with the relation it induces; as
    # one class over a smaller ideal; and as both on the tables without
    # an implication table, where the scans raise ImplicationAbsent
    full, no_imp = (1 << cand.n) - 1, replace(cand, imp_table=None)
    one_class = [full] * cand.n, [0] * cand.n
    yield CONGRUENCE + ORDER_CRITERION, _related(cand, full)
    yield CONGRUENCE + ORDER_CRITERION, _Related(cand, rng.choice(_zero_subsets(cand)[:-1]),
                                                 *one_class)
    yield CONGRUENCE + ORDER_CRITERION, _Related(no_imp, full, *one_class)
    yield from ((entries, (ctx_cand, full)) for ctx_cand in (cand, no_imp)
                for entries in (PRIME, DISTRIBUTIVE_IDEAL, IMPLICATIVE, IDEAL))


def _declared_laws():
    """Every tuple of law entries a package module declares."""
    for module in (clalg.validator, clalg.identities, clalg.ideals, clalg.quotient):
        for value in vars(module).values():
            if isinstance(value, tuple) and value and all(isinstance(e, Law) for e in value):
                yield value
    yield from (entries for _ctx, entries in clalg.identities.LAWS.values())


def _plain(entry):
    """`entry` with a test that never passes: its plain scan."""
    return entry._replace(holds=lambda ctx: False)


def _outcome(entry, ctx):
    try:
        verdict = first_violation("law", (entry,), ctx)
    except Exception as exc:  # the exception is the outcome compared
        return type(exc), str(exc), vars(exc)
    return verdict.ok, verdict.witness, verdict.detail


def _unscannable(ctx):
    raise AssertionError("the domain was scanned")


def test_law_holds_skips_the_scan_only_where_it_passes():
    with pytest.raises(TypeError, match="holds"):  # every entry carries its test
        Law("entry", _unscannable, lambda ctx, x: None)
    entry = Law("entry", _unscannable, lambda ctx, x: None, lambda ctx: True)
    assert first_violation("law", (entry,), 5) == Verdict("law", True)
    with pytest.raises(AssertionError, match="the domain was scanned"):
        first_violation("law", (_plain(entry),), 5)
    # behind a failing test the verdict is the scan's, witness included
    odd = Law("odd", lambda n: ((x,) for x in range(n)), lambda n, x: () if x % 2 else None,
              lambda n: n < 2)
    for n, plain in ((5, Verdict("law", False, ("odd", 1))), (1, Verdict("law", True))):
        assert first_violation("law", (odd,), n) == first_violation("law", (_plain(odd),), n)
        assert first_violation("law", (_plain(odd),), n) == plain


def test_fast_domains_answer_as_the_plain_scan(census):
    rng = random.Random(12)
    candidates = list(_plain_scan_candidates(census, rng))
    taken = Counter()
    for cand in candidates:
        for entries, ctx in _contexts(cand, rng):
            for entry in entries:
                fast = _outcome(entry, ctx)
                assert fast == _outcome(_plain(entry), ctx), (
                    cand.name, entry.kind, cand.order.up, cand.mult_table, cand.imp_table)
                taken[entry.holds, entry.holds(ctx)] += 1
    # every whole-table test the package declares is compared, and each
    # both passed and fell through somewhere
    tests = {entry.holds for entries in _declared_laws() for entry in entries}
    assert {holds for holds, _passed in taken} == tests and len(tests) == 45
    assert all(taken[holds, True] and taken[holds, False] for holds in tests)


def _residuated_by_scan(alg):
    """is_residuated_lattice as the integral law's scan decides it."""
    integral = first_violation("integral", INTEGRAL, alg)
    if integral.ok != (alg.top == alg.one):
        raise EquivalenceBroken(0, 0, "")
    return integral.ok


def test_flags_answer_as_their_laws_scans(census_2_6):
    # the linear, distributive-lattice and integral flags read their
    # laws' tests, not the scans; on the census, seeded mutants and the
    # fall-through orders they give each scan's truth, or raise what it
    # raises (NotALattice at the same pair, EquivalenceBroken)
    rng = random.Random(35)
    algebras = [_force_seal(cand) for alg in census_2_6 for cand in (
        alg, *_mutants(alg, rng, count=2),
        *(replace(alg, order=order) for order in _orders(alg.n)))]
    outcomes = Counter()
    for alg in algebras:
        for flag, plain in (
                (is_linear, lambda A: first_violation("linear", TOTAL, A.order).ok),
                (is_distributive_lattice,
                 lambda A: first_violation("distributive_lattice", DISTRIBUTIVE_LATTICE, A).ok),
                (is_residuated_lattice, _residuated_by_scan)):
            expected, got = (_outcome_of(f, alg) for f in (plain, flag))
            assert got == expected, (flag.__name__, alg.order.up, alg.mult_table, alg.top)
            outcomes[flag, expected] += 1
    assert len(algebras) == 133 * 8
    assert {(flag, result) for flag, (result, *_rest) in outcomes} == {
        (flag, result) for flag in (is_linear, is_distributive_lattice, is_residuated_lattice)
        for result in (True, False)} | {(is_distributive_lattice, NotALattice),
                                        (is_residuated_lattice, EquivalenceBroken)}, outcomes


def _outcome_of(fn, alg):
    """(fn(alg),), or the exception raised: NotALattice with its pair,
    EquivalenceBroken alone (its message is the flag's own)."""
    try:
        return (fn(alg),)
    except NotALattice as exc:
        return NotALattice, str(exc)
    except EquivalenceBroken:
        return (EquivalenceBroken,)


def test_missing_meet_is_raised_at_the_scan_pair(census):
    # the tables of a 4-element algebra on a "V" order: the whole-table
    # tests cannot decide, and the scans raise where they always did
    alg = census[4][0]
    cand = replace(alg.as_candidate(), order=OrderRelation.from_covers(4, [(0, 1), (0, 2), (0, 3)]))
    for entries, ctx in ((DISTRIBUTIVE_LATTICE, cand),
                         (DISTRIBUTIVE_IDEAL, (cand, 1 << cand.zero))):
        plain = _outcome(_plain(entries[0]), ctx)
        assert plain[0].__name__ == "NotALattice"
        assert _outcome(entries[0], ctx) == plain


# --- the fast path is taken -------------------------------------------------

def _scanned(scans):
    """The entries `scans` counted, found violation or not."""
    return {key: count for key, count in scans.items() if len(key) == 3}


def _passing(scans):
    """The entries `scans` counted that found no violation."""
    return {key: count for key, count in _scanned(scans).items() if not key[2]}


def test_passing_verdicts_on_census_algebras_run_no_scan(census, nonlinear6, scans):
    algebras = [replace(alg) for n in sorted(census) for alg in census[n]]  # empty memos
    ideals = 0
    checks = (is_prime, is_distributive_ideal, is_implicative)
    for alg in algebras:
        # validate and the identity suite, cubic scans included
        assert validate(alg.as_candidate()).algebra == alg
        assert all(run_identity_suite(alg).values())
        assert not _scanned(scans), (alg.name, scans)
        # the flags read their laws' tests alone, holding or not
        for flag in (is_linear, is_residuated_lattice, is_distributive_lattice):
            flag(alg)
            assert not _scanned(scans), (alg.name, flag.__name__, scans)
        for ideal in all_ideals(alg):
            for check in checks:
                verdict = check(alg, ideal)
                assert bool(_scanned(scans)) != verdict.ok, (alg.name, ideal.bits, verdict, scans)
                scans.clear()
            # the congruence certificate, the order criterion, the
            # quotient's validation and the distributive-quotient claim
            assert theorem_suite(alg, ideal).ok
            assert not _scanned(scans), (alg.name, ideal.bits, scans)
            ideals += 1
    assert (len(algebras), ideals) == (33, 75)
    # the counting reaches the scans: a defective table set runs them
    validate(nonlinear6)
    run_identity_suite(_force_seal(nonlinear6))
    assert {("residuation", "adjunction", True), ("P2_7", None, True),
            ("P2_1", None, True)} <= scans.keys(), scans


def test_no_passing_check_scans_points(census_2_6, linear5, nonlinear6, monkeypatch, scans):
    for n in range(2, 7):
        assert run_search(SearchConfig(size=n)).algebras
    ideals = 0
    # fresh copies (empty memos); the defective fixture forced into the
    # sealed type, so its identities are scanned too
    for alg in [replace(alg) for alg in census_2_6 + [linear5]] + [_force_seal(nonlinear6)]:
        sealed = alg.name != "nonlinear6"
        report = validate(alg.as_candidate())
        assert (report.algebra == alg) is sealed and (report.flags is None) is not sealed
        assert all(run_identity_suite(alg).values()) is sealed
        for ideal in all_ideals(alg):
            certify_ideal(alg, ideal)
            is_prime(alg, ideal)
            is_distributive_ideal(alg, ideal)
            is_implicative(alg, ideal)
            # raises where no congruence is induced
            outcome = _raised(theorem_suite, alg, ideal)
            assert not sealed or outcome.ok, (alg.name, ideal.bits, outcome)
            ideals += 1
    assert ideals == 318 + 3 + 4
    assert not _passing(scans), _passing(scans)
    # the counting reaches the scans: the defective fixture runs them ...
    assert {("residuation", "adjunction", True), ("P2_7", None, True),
            ("P2_1", None, True)} <= scans.keys(), scans
    # ... and so do tests that cannot pass
    monkeypatch.setattr(clalg.validator, "LATTICE", tuple(map(_plain, LATTICE)))
    assert validate(linear5.as_candidate()).lattice
    assert _passing(scans).keys() == {("lattice", entry.kind, False) for entry in LATTICE}


def _plain_scan_candidates(census, rng):
    """Census algebras of sizes 3..5, mutants drawn from `rng`,
    fall-through orders and the Lukasiewicz tables on two defective
    orders."""
    for alg in (alg for n in (3, 4, 5) for alg in census[n]):
        yield alg.as_candidate()
        yield from _mutants(alg, rng, count=3)
        yield from (replace(alg.as_candidate(), order=order) for order in _orders(alg.n))
    # the 3-element Lukasiewicz tables on 0 <= 1 <= 2 without 0 <= 2: mult
    # and imp are monotone in each argument, yet P2_7 fails at (1, 2, 1, 2)
    l3 = AlgebraCandidate(
        "l3_intransitive", ("p0", "p1", "p2"), OrderRelation(3, (0b011, 0b110, 0b100)),
        ((0, 0, 0), (0, 0, 1), (0, 1, 2)), ((2, 2, 2), (1, 2, 2), (0, 1, 2)), 0, 0, 2)
    yield l3
    # the same tables with p1 and p2 below each other: not antisymmetric
    yield replace(l3, name="l3_preorder", order=OrderRelation(3, (0b111, 0b110, 0b110)))


def test_fast_ideal_domains_answer_as_the_plain_scan_on_every_subset(census):
    taken = Counter()
    for cand in _plain_scan_candidates(census, random.Random(12)):
        for bits in _zero_subsets(cand):
            for entry in PRIME + DISTRIBUTIVE_IDEAL + IMPLICATIVE:
                fast = _outcome(entry, (cand, bits))
                assert fast == _outcome(_plain(entry), (cand, bits)), (
                    cand.name, bits, cand.order.up, cand.mult_table, cand.imp_table)
                taken[entry.holds, entry.holds((cand, bits))] += 1
    assert len(taken) == 6, taken  # each test both passed and fell through


# the whole-table tests whose answer `classify` and `all_ideals` read
# directly, without a scan behind a failing one (ideals._passes)
READ_DIRECTLY = (PRIME[0], DISTRIBUTIVE_IDEAL[0], IMPLICATIVE[0], clalg.ideals._CLOSED)


def test_tests_read_directly_are_exact_both_ways(census_2_6):
    # a test too strict is still a legal Law.holds, yet read directly it
    # would report a law failing where it holds
    rng = random.Random(13)
    candidates = [m for alg in census_2_6 for m in (alg, *_mutants(alg, rng, count=4))]
    assert all(cand.lattice_with_imp for cand in candidates)
    answers = Counter()
    for cand in candidates:
        for bits in _zero_subsets(cand):
            for entry in READ_DIRECTLY:
                holds = entry.holds((cand, bits))
                assert holds is first_violation("law", (_plain(entry),), (cand, bits)).ok, (
                    cand.name, bits, cand.mult_table, cand.imp_table, cand.zero, entry.kind)
                answers[entry.holds, holds] += 1
    assert len(answers) == 2 * len(READ_DIRECTLY), answers


def _classify_by_scans(alg, ideal):
    """The flags as the truth of the witness-bearing verdicts."""
    return IdealClassification(
        is_prime(alg, ideal).ok, is_distributive_ideal(alg, ideal).ok,
        is_implicative(alg, ideal).ok, is_affine(alg, ideal),
        ideal.bits == alg.order.dn[alg.zero])


def _ideals_by_scans(alg):
    """The zero-containing down-sets that pass the closure scan, scanned
    in the order `all_ideals` takes them."""
    closed = (_plain(clalg.ideals._CLOSED),)
    found = [bits for bits in clalg.ideals._down_sets(alg)
             if bits >> alg.zero & 1 and first_violation("ideal", closed, (alg, bits))]
    return [Ideal(alg.n, bits) for bits in sorted(found)]


def _raised(fn, *args):
    try:
        return fn(*args)
    except AlgebraError as exc:  # the exception is the outcome compared
        return type(exc), str(exc), vars(exc)


def test_flags_and_ideals_raise_as_the_scans_where_tests_cannot_decide(census):
    # no implication table, and the "V" order with no joins
    raised = Counter()
    for alg in (alg for n in (3, 4, 5) for alg in census[n]):
        base = alg.as_candidate()
        v_order = OrderRelation.from_covers(alg.n, [(0, x) for x in range(1, alg.n)])
        for cand in (replace(base, imp_table=None), replace(base, order=v_order)):
            assert not cand.lattice_with_imp
            assert _raised(all_ideals, cand) == _raised(_ideals_by_scans, cand), cand.name
            for bits in _zero_subsets(cand):
                ideal = Ideal(cand.n, bits)
                outcome = _raised(classify, cand, ideal)
                assert outcome == _raised(_classify_by_scans, cand, ideal), (cand.name, bits)
                raised[None if isinstance(outcome, IdealClassification) else outcome[0]] += 1
    assert raised[ImplicationAbsent] and raised[NotALattice] and raised[None], raised


def test_flags_and_ideals_run_no_ideal_scan_on_census_algebras(census_2_6, scans):
    ideals = 0
    for alg in map(replace, census_2_6):  # fresh copies: empty memos
        for ideal in all_ideals(alg):
            classify(alg, ideal)
            theorem_suite(alg, ideal)
            ideals += 1
    assert ideals == 318
    assert not {key[0] for key in scans} & {"prime", "distributive_ideal", "implicative", "ideal"}
    # the counting reaches the ideal scans
    is_ideal(alg, ideal)
    is_prime(alg, ideal)
    is_distributive_ideal(alg, ideal)
    is_implicative(alg, ideal)
    assert [scans[law,] for law in ("prime", "distributive_ideal", "implicative", "ideal")] == [1] * 4


# --- the byte kernel against reading row by row --------------------------

def _associates_by_rows(t, mult, s):
    """t(mult(x, y), z) == t(x, s(y, z)), one row of z per (x, y): the
    reference the byte kernel is compared with."""
    return all(t[v] == compose(t[x], s[y]) for x, row in enumerate(mult) for y, v in enumerate(row))


def _distributes_by_rows(f, g):
    """f(x, g(y, z)) == g(f(x, y), f(x, z)), one row of z per (x, y)."""
    return all(compose(row, g[y]) == compose(g[v], row) for row in f for y, v in enumerate(row))


def _violations(law, *tables):
    """Every (x, y, z) at which `law` (associates or distributes) fails,
    scanned literally."""
    n = len(tables[0])
    if law is associates:
        t, mult, s = tables
        fails = lambda x, y, z: t[mult[x][y]][z] != t[x][s[y][z]]
    else:
        f, g = tables
        fails = lambda x, y, z: f[x][g[y][z]] != g[f[x][y]][f[x][z]]
    return [p for p in product(range(n), repeat=3) if fails(*p)]


REFERENCE = {associates: _associates_by_rows, distributes: _distributes_by_rows}


def _table(n, entry):
    return tuple(tuple(entry(x, y) for y in range(n)) for x in range(n))


def _lukasiewicz(n, rng):
    """The n-element Lukasiewicz chain relabelled by a seeded permutation:
    (leq as 0/1 rows, mult, imp, meet, join); every law below holds."""
    m = n - 1
    pi = list(range(n))
    rng.shuffle(pi)
    inv = sorted(range(n), key=pi.__getitem__)

    def relabelled(op):
        return _table(n, lambda x, y: pi[op(inv[x], inv[y])])

    return (_table(n, lambda x, y: int(inv[x] <= inv[y])),
            relabelled(lambda a, b: max(0, a + b - m)), relabelled(lambda a, b: min(m, m - a + b)),
            relabelled(min), relabelled(max))


def _instances(leq, mult, imp, meet, join):
    """(law, tables) for every use of the kernel on an algebra's tables:
    associativity, adjunction and P2_8; P2_1, LEMMA_MEET_IMP and the
    distributive-lattice flag, with meet and join swapped too."""
    return ((associates, (mult, mult, mult)), (associates, (leq, mult, imp)),
            (associates, (imp, mult, imp)), (distributes, (mult, join)),
            (distributes, (imp, meet)), (distributes, (meet, join)), (distributes, (join, meet)))


def _mutant(tables, rng):
    """`tables` with one seeded entry of one table changed (n > 1)."""
    k = rng.randrange(len(tables))
    rows = [list(r) for r in tables[k]]
    n = len(rows)
    x, y = rng.randrange(n), rng.randrange(n)
    rows[x][y] = rng.choice([v for v in range(n) if v != rows[x][y]])
    return tables[:k] + (tuple(map(tuple, rows)),) + tables[k + 1:]


def _last_point_only(law, n):
    """Tables at which `law` fails at (n-1, n-1, n-1) alone, n >= 3."""
    m = n - 1
    if law is associates:
        return (_table(n, lambda x, w: int(x == w == m)), _table(n, lambda x, y: m * (x == m)),
                _table(n, lambda y, z: m * (z == m and y != m)))
    return (_table(n, lambda x, w: w if x < m else m * (w == m)),
            _table(n, lambda y, z: 1 if y == z == m else z))


# each whole-table test run on the byte kernel -> its reference
CONVERTED = (
    (clalg.validator._associative,
     lambda A: _associates_by_rows(A.mult_table, A.mult_table, A.mult_table)),
    (clalg.validator._adjoint,
     lambda A: _associates_by_rows(A.order.matrix, A.mult_table, A.imp_table)),
    (IDENTITIES["P2_8"][1],
     lambda A: _associates_by_rows(A.imp_table, A.mult_table, A.imp_table)),
    (IDENTITIES["P2_1"][1],
     lambda A: _distributes_by_rows(A.mult_table, A.order.lubs)),
    (IDENTITIES["LEMMA_MEET_IMP"][1],
     lambda A: _distributes_by_rows(A.imp_table, A.order.glbs)),
    (DISTRIBUTIVE_LATTICE[0].holds,
     lambda A: _distributes_by_rows(A.order.glbs, A.order.lubs)),
    (IDENTITIES["P2_5"][1], lambda A: all(
        A.order.all_leq(compose(A.mult_table[v], A.imp_table[y]), row)
        for row in A.imp_table for y, v in enumerate(row))),
)


@pytest.mark.parametrize("n", [1, 2, 7, 8, 64])
def test_whole_table_tests_answer_as_reading_row_by_row(n):
    rng = random.Random(n)
    leq, mult, imp, *_ = _lukasiewicz(n, rng)
    # no test reads bot, zero or one
    chain = AlgebraCandidate(f"l{n}", tuple(f"e{i}" for i in range(n)),
                             OrderRelation.from_leq(n, leq), mult, imp, 0, 0, 0)
    candidates = [chain] + [replace(chain, mult_table=m, imp_table=i)
                            for m, i in (_mutant((mult, imp), rng) for _ in range(8 if n > 1 else 0))]
    outcomes = Counter()
    for cand in candidates:
        for test, reference in CONVERTED:
            assert test(cand) is reference(cand), (n, cand.mult_table, cand.imp_table)
            outcomes[test, test(cand)] += 1
    assert all(outcomes[test, True] for test, _reference in CONVERTED), outcomes


def _prime_partners_by_rows(alg):
    """partners[a]: the mask of ~(y->x) over the pairs with ~(x->y) == a,
    one row and one column per x."""
    negs = alg.negs
    partners = [0] * alg.n
    for row, col in zip(alg.imp_table, zip(*alg.imp_table)):
        for a, b in zip(compose(negs, row), compose(negs, col)):
            partners[a] |= 1 << b
    return tuple(partners)


def _distributive_values_by_rows(alg):
    """The mask of every value of ((x|y) & (x|z)) * ~(x | (y&z)), one row
    of z per (x, y)."""
    meets, negs = alg.order.glbs, alg.negs
    factors = set()
    for row in alg.order.lubs:  # row[z] = x|z
        for y, v in enumerate(row):  # v = x|y
            factors.update(zip(compose(meets[v], row), compose(negs, compose(row, meets[y]))))
    values = 0
    for a, b in factors:
        values |= 1 << alg.mult_table[a][b]
    return values


def _implicative_values_by_rows(alg):
    """values[a][b]: the mask of ~(x->z) over the triples with
    ~(x->(y->z)) == a and ~(x->y) == b, one row of z per (x, y)."""
    imp, negs = alg.imp_table, alg.negs
    values = [[0] * alg.n for _ in range(alg.n)]
    for row in imp:  # row[z] = x->z
        detached = compose(negs, row)
        for y, v in enumerate(row):  # v = x->y
            for a, w in zip(compose(negs, compose(row, imp[y])), detached):
                values[a][negs[v]] |= 1 << w
    return tuple(map(tuple, values))


# each ideal value table built from byte planes -> its reference
VALUE_TABLES = (
    (clalg.ideals._prime_partners, _prime_partners_by_rows),
    (clalg.ideals._distributive_values, _distributive_values_by_rows),
    (clalg.ideals._implicative_values, _implicative_values_by_rows),
)


@pytest.mark.parametrize("n", [1, 2, 7, 8, 64])
def test_ideal_value_tables_answer_as_reading_row_by_row(n):
    rng = random.Random(31 + n)
    leq, mult, imp, *_ = _lukasiewicz(n, rng)
    chain = AlgebraCandidate(f"l{n}", tuple(f"e{i}" for i in range(n)),
                             OrderRelation.from_leq(n, leq), mult, imp, 0, 0, 0)
    # a zero other than the chain's bottom changes every negation
    candidates = [chain] + [replace(chain, mult_table=m, imp_table=i, zero=rng.randrange(n))
                            for m, i in (_mutant((mult, imp), rng) for _ in range(8 if n > 1 else 0))]
    seen = {table: set() for table, _reference in VALUE_TABLES}
    for cand in candidates:
        for table, reference in VALUE_TABLES:
            built = table(cand)
            assert built == reference(cand), (n, cand.mult_table, cand.imp_table, cand.zero)
            seen[table].add(built)
    # the mutants change every table, so more than one is compared
    assert n == 1 or all(len(built) > 1 for built in seen.values()), seen


@pytest.mark.parametrize("n", [1, 2, 7, 8, 64])
def test_byte_kernel_answers_as_reading_row_by_row(n):
    rng = random.Random(17 + n)
    cases = []
    for _ in range(2):
        for law, tables in _instances(*_lukasiewicz(n, rng)):
            cases.append((law, tables, True))
            cases += [(law, _mutant(tables, rng), None) for _ in range(4 if n > 1 else 0)]
    cases += [(law, tuple(_table(n, lambda x, y: rng.randrange(n)) for _ in range(arity)), None)
              for law, arity in ((associates, 3), (distributes, 2)) for _ in range(4)]
    if n >= 3:
        cases += [(law, _last_point_only(law, n), False) for law in (associates, distributes)]
    outcomes = Counter()
    for law, tables, expected in cases:
        answer = law(*tables)
        assert answer is REFERENCE[law](*tables), (law.__name__, tables)
        assert expected in (None, answer), (law.__name__, tables)
        if expected is False:
            assert _violations(law, *tables) == [(n - 1,) * 3]
        outcomes[law, answer] += 1
    assert all(outcomes[law, True] for law in REFERENCE), outcomes
    assert n == 1 or all(outcomes[law, False] for law in REFERENCE), outcomes


def test_byte_kernel_answers_as_reading_row_by_row_on_every_two_element_table():
    tables = list(product(product((0, 1), repeat=2), repeat=2))
    for law, arity in ((associates, 3), (distributes, 2)):
        for args in product(tables, repeat=arity):
            assert law(*args) is REFERENCE[law](*args), (law.__name__, args)
