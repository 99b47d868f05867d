import random
from collections import Counter
from dataclasses import replace
from types import SimpleNamespace

import pytest
from hypothesis import given, strategies as st
from oracles import _glb_scan, _lub_scan
from test_whole_table import _orders

from clalg.core import (
    MAX_UNIVERSE,
    AlgebraCandidate,
    FiniteCLAlgebra,
    ImplicationAbsent,
    NoResidual,
    NotALattice,
    OrderRelation,
    cached_value,
    derive_implication,
    iter_bits,
)
from clalg.fileformat import export_dot, parse_algebra, serialize_algebra
from clalg.fixtures import LINEAR_CLA, NONLINEAR_CLA
from clalg.identities import run_identity_suite
from clalg.laws import compose
from clalg.search import enumerate_lattices
from clalg.validator import seal

# element indices in the fixtures (declaration order)
B, Z, U, A, T = 0, 1, 2, 3, 4  # linear5: bot 0 1 a top
B2, Z2, U2, A2, BB, T2 = 0, 1, 2, 3, 4, 5  # nonlinear6: bot 0 1 a b top


def _bits_one_by_one(mask):
    return [i for i in range(mask.bit_length()) if mask >> i & 1]


def test_iter_bits():
    assert list(iter_bits(0)) == []
    assert list(iter_bits(0b101001)) == [0, 3, 5]
    # below 256 the bits come from a table, above from a loop: both sides
    # of the seam, every 12-bit mask and random masks up to 64 bits
    rng = random.Random(65)
    masks = [*range(1 << 12), 255, 256, 1 << 63, (1 << 64) - 1,
             *(rng.getrandbits(rng.randint(1, 64)) for _ in range(3000))]
    for mask in masks:
        assert list(iter_bits(mask)) == _bits_one_by_one(mask), mask
    # a negative int has infinitely many set bits
    for mask in (-1, -256, -(1 << 64)):
        with pytest.raises(ValueError, match="negative mask"):
            next(iter_bits(mask))


def test_order_from_covers_is_closed(linear5_candidate):
    order = linear5_candidate.order
    # chain bot < 0 < a < 1 < top
    assert order.leq(B, T) and order.leq(Z, U) and order.leq(Z, A)
    assert not order.leq(U, A)
    assert all(order.leq(x, x) for x in range(order.n))


def test_covers_recovered(linear5_candidate, nonlinear6):
    assert linear5_candidate.order.covers == ((B, Z), (Z, A), (U, T), (A, U))
    assert nonlinear6.order.covers == (
        (B2, Z2), (B2, A2), (Z2, U2), (U2, BB), (A2, T2), (BB, T2)
    )


def _cached_names(cls):
    return {name for name, attr in vars(cls).items() if isinstance(attr, cached_value)}


def _counting(monkeypatch, classes):
    """Counter of (value name, id of instance) over every computation of a
    cached value of `classes`."""
    reads = Counter()
    for cls in classes:
        for name in _cached_names(cls):
            def counted(obj, func=vars(cls)[name].func, name=name):
                reads[name, id(obj)] += 1
                return func(obj)
            monkeypatch.setattr(vars(cls)[name], "func", counted)
    return reads


def test_covers_are_built_once_per_order(monkeypatch):
    # the identity suite reads the Hasse edges twice, and writing the file
    # and the DOT text read them again
    reads = _counting(monkeypatch, [OrderRelation])
    linear, nonlinear = seal(parse_algebra(LINEAR_CLA)), parse_algebra(NONLINEAR_CLA)
    run_identity_suite(linear)
    for alg in (linear, nonlinear):
        serialize_algebra(alg)
        export_dot(alg)
        assert alg.order.covers is alg.order.covers
    assert {key: count for key, count in reads.items() if key[0] == "covers"} == {
        ("covers", id(linear.order)): 1, ("covers", id(nonlinear.order)): 1}


def test_cached_values_are_per_instance_and_computed_once(monkeypatch):
    reads = _counting(monkeypatch, [OrderRelation, AlgebraCandidate])
    first, second = parse_algebra(LINEAR_CLA), parse_algebra(LINEAR_CLA)
    pairs = [(first.order, second.order, name) for name in _cached_names(OrderRelation)]
    pairs += [(first, second, name) for name in _cached_names(AlgebraCandidate)]
    assert len(pairs) == 11
    for _ in range(2):
        for a, b, name in pairs:
            assert getattr(a, name) == getattr(b, name)
    # each instance computed each value once and keeps it in its own __dict__
    assert reads == Counter({(name, id(obj)): 1 for a, b, name in pairs for obj in (a, b)})
    assert all(vars(obj)[name] is getattr(obj, name) for a, b, name in pairs for obj in (a, b))
    assert first.memo is not second.memo


def test_leq_examples(linear5_candidate, nonlinear6):
    assert linear5_candidate.leq(Z, A)  # 0 <= a on the chain
    assert not nonlinear6.leq(A2, BB)  # a is on its own branch


def test_meet_join_examples(nonlinear6):
    assert nonlinear6.join(A2, U2) == T2
    assert nonlinear6.meet(A2, BB) == B2
    assert all(nonlinear6.meet(x, x) == x for x in range(nonlinear6.n))


def test_mult_imp_lookups(linear5):
    assert linear5.mult(A, A) == Z  # a*a = 0
    assert linear5.imp(A, Z) == A  # a->0 = a
    assert all(linear5.mult(linear5.one, x) == x for x in range(linear5.n))


def test_neg(linear5, nonlinear6):
    assert linear5.neg(Z) == U  # ~0 = 1
    assert nonlinear6.neg(A2) == A2  # ~a = a
    assert all(linear5.neg(linear5.neg(x)) == x for x in range(linear5.n))


def test_plus(linear5, nonlinear6):
    assert linear5.plus(A, A) == U  # ~(a*a) = ~0 = 1
    assert all(linear5.plus(Z, x) == x for x in range(linear5.n))
    assert nonlinear6.plus(U2, BB) == U2  # ~(0*b) = ~0 = 1


def test_derived_top(linear5):
    assert linear5.derived_top() == T == linear5.top


def test_derive_implication_matches_printed_linear(linear5_candidate):
    # the residuation-forced table reproduces the supplied one entrywise
    derived = derive_implication(linear5_candidate.order, linear5_candidate.mult_table)
    assert derived == linear5_candidate.imp_table
    assert derived[B][B] == T


def test_derive_implication_mismatches_nonlinear(nonlinear6):
    # the supplied table disagrees with the forced residual at exactly
    # these six entries, each of which the derivation puts at b
    derived = derive_implication(nonlinear6.order, nonlinear6.mult_table)
    diffs = {
        (x, y)
        for x in range(nonlinear6.n)
        for y in range(nonlinear6.n)
        if derived[x][y] != nonlinear6.imp_table[x][y]
    }
    assert diffs == {(Z2, Z2), (Z2, U2), (Z2, BB), (A2, A2), (BB, U2), (BB, BB)}
    assert all(derived[x][y] == BB for x, y in diffs)


def test_derive_implication_one_element():
    order = OrderRelation.from_covers(1, [])
    assert derive_implication(order, ((0,),)) == ((0,),)


def _antichain2():
    order = OrderRelation(2, (0b01, 0b10))
    return AlgebraCandidate(
        name="pair", elements=("p", "q"), order=order,
        mult_table=((0, 0), (0, 1)), imp_table=None, bot=0, zero=0, one=1,
    )


def test_not_a_lattice_witness():
    cand = _antichain2()
    with pytest.raises(NotALattice) as exc:
        cand.meet(0, 1)
    assert (exc.value.x, exc.value.y, exc.value.kind) == (0, 1, "meet")
    assert exc.value.frontier == ()


def _m3_candidate():
    # bot, three atoms, top: a lattice with no residual for meet-fusion
    covers = [(0, 1), (0, 2), (0, 3), (1, 4), (2, 4), (3, 4)]
    order = OrderRelation.from_covers(5, covers)
    meet = order.glbs
    return AlgebraCandidate(
        name="m3", elements=("o", "p", "q", "r", "i"), order=order,
        mult_table=meet, imp_table=None, bot=0, zero=0, one=4,
    )


def test_no_residual_witness():
    cand = _m3_candidate()
    with pytest.raises(NoResidual) as exc:
        derive_implication(cand.order, cand.mult_table)
    assert (exc.value.x, exc.value.y) == (1, 0)
    assert exc.value.frontier == (2, 3)  # an antichain of maximal candidates


def test_implication_absent(monkeypatch, linear5_candidate):
    reads = _counting(monkeypatch, [AlgebraCandidate])
    bare = replace(linear5_candidate, imp_table=None)
    for _ in range(2):
        with pytest.raises(ImplicationAbsent):
            bare.neg(0)
    # negs caches nothing when it raises, so each read raises afresh
    assert "negs" not in vars(bare)
    assert reads["negs", id(bare)] == 2


def test_universe_cap():
    n = MAX_UNIVERSE + 1
    order = OrderRelation.from_covers(n, [(i, i + 1) for i in range(n - 1)])
    row = tuple(range(n))
    with pytest.raises(ValueError):
        AlgebraCandidate(
            name="big", elements=tuple(f"e{i}" for i in range(n)), order=order,
            mult_table=tuple(row for _ in range(n)), imp_table=None,
            bot=0, zero=0, one=0,
        )


def test_up_masks_outside_the_universe_are_rejected():
    # a bit at or beyond n, a negative mask, too few masks, too many
    for n, up in ((2, (0b101, 0b10)), (2, (0b01, -1)), (2, (0b01,)), (1, (0b1, 0b1))):
        with pytest.raises(ValueError):
            OrderRelation(n, up)
    assert OrderRelation(2, (0b11, 0b10)).dn == (0b01, 0b11)


def test_duplicate_names_rejected():
    order = OrderRelation.from_covers(2, [(0, 1)])
    with pytest.raises(ValueError):
        AlgebraCandidate(
            name="dup", elements=("x", "x"), order=order,
            mult_table=((0, 0), (0, 1)), imp_table=None, bot=0, zero=0, one=1,
        )


_CHAIN2 = dict(name="c2", elements=("x", "y"), order=OrderRelation.from_covers(2, [(0, 1)]),
               mult_table=((0, 0), (0, 1)), imp_table=((1, 1), (0, 1)), bot=0, zero=0, one=1)


@pytest.mark.parametrize("fields, message", [
    (dict(mult_table=((0, 0),)), "mult table must have 2 rows"),
    (dict(mult_table=((0, 0), (0,))), "mult table rows must have 2 entries"),
    (dict(imp_table=((1, 1), (0, 2))), "imp table entry 2 out of range"),
    (dict(elements=(), order=OrderRelation(0, ()), mult_table=(), imp_table=None),
     "universe must be non-empty"),
    (dict(elements=("x", "y z")), "bad element name 'y z'"),
    (dict(elements=("", "y")), "bad element name ''"),
    (dict(order=OrderRelation.from_covers(3, [(0, 1)])), "order size does not match universe"),
    (dict(zero=2), "zero index 2 out of range"),
    (dict(bot=-1), "bot index -1 out of range"),
    (dict(elements=("a!", "y")), "bad element name 'a!'"),
    (dict(elements=("x", 'a"b')), "bad element name 'a\"b'"),
    (dict(name="my alg"), "bad algebra name 'my alg'"),
])
def test_malformed_candidate_is_rejected(fields, message):
    with pytest.raises(ValueError) as exc:
        AlgebraCandidate(**{**_CHAIN2, **fields})
    assert str(exc.value) == message


@pytest.mark.parametrize("fields, message", [
    (dict(imp_table=None), "a sealed algebra requires an implication table"),
    (dict(top=2), "top index out of range"),
])
def test_malformed_sealed_algebra_is_rejected(fields, message):
    assert FiniteCLAlgebra(**_CHAIN2, top=1).top == 1
    with pytest.raises(ValueError) as exc:
        FiniteCLAlgebra(**{**_CHAIN2, "top": 1, **fields})
    assert str(exc.value) == message


@given(st.integers(2, 6).flatmap(
    lambda n: st.tuples(st.just(n), st.lists(
        st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=12))))
def test_cover_closure_is_reflexive_transitive(args):
    n, covers = args
    order = OrderRelation.from_covers(n, covers)
    assert all(order.leq(x, x) for x in range(n))
    for x in range(n):
        for y in range(n):
            for z in range(n):
                if order.leq(x, y) and order.leq(y, z):
                    assert order.leq(x, z)
    # dn is the transpose of up
    for x in range(n):
        for y in range(n):
            assert order.leq(x, y) == bool(order.dn[y] >> x & 1)


def _bounds_by_scan(order):
    cand = SimpleNamespace(n=order.n, order=order)
    pairs = [(x, y) for x in range(order.n) for y in range(order.n)]
    return ([_glb_scan(cand, x, y) for x, y in pairs], [_lub_scan(cand, x, y) for x, y in pairs])


def test_looked_up_bounds_match_the_scan():
    orders = [lat for n in range(2, 9) for lat in enumerate_lattices(n)]
    orders += [order for n in range(2, 7) for order in _orders(n)]
    # a cyclic preorder (1 and 2 above each other, a back edge), and a
    # transitive relation that is not reflexive (0 is not below itself)
    orders.append(OrderRelation.from_covers(4, [(0, 1), (1, 2), (2, 1), (2, 3)]))
    orders.append(OrderRelation(3, (0b110, 0b110, 0b100)))
    for order in orders:
        glbs, lubs = _bounds_by_scan(order)
        assert [g for row in order.glbs for g in row] == glbs, order.up
        assert [g for row in order.lubs for g in row] == lubs, order.up


@pytest.mark.parametrize("length", [0, 1, 2, 64])
def test_compose_reads_a_row_through_indices(length):
    # one itemgetter call, still a tuple for fewer than two indices
    rng = random.Random(length)
    row = tuple(rng.randrange(64) for _ in range(64))
    idx = tuple(rng.randrange(64) for _ in range(length))
    for r in (row, bytes(row)):
        cases = ((idx, idx), (range(length), range(length)), ((i for i in idx), idx),
                 (bytes(idx), idx))
        for given, read in cases:
            got = compose(r, given)
            assert got == tuple(r[i] for i in read) and type(got) is tuple, (r, given)


def test_all_leq_is_a_scan_up_to_the_shorter_side():
    rng = random.Random(5)
    orders = [lat for n in range(2, 7) for lat in enumerate_lattices(n)] + [OrderRelation(1, (1,))]
    orders += [order for n in range(2, 6) for order in _orders(n)]
    outcomes = Counter()
    for order in orders:
        n = order.n
        for _ in range(6):
            lhs = [rng.randrange(n) for _ in range(rng.randrange(12))]
            rhs = [rng.randrange(n) for _ in range(rng.randrange(12))]
            if rng.random() < 0.5:  # mostly true, so both answers are met
                rhs = [v if order.leq(u, v) else u for u, v in zip(lhs, rhs)] + rhs[len(lhs):]
            expected = all(order.leq(u, v) for u, v in zip(lhs, rhs))
            for left, right in ((lhs, rhs), (tuple(lhs), bytes(rhs)), (bytes(lhs), iter(rhs))):
                assert order.all_leq(left, right) is expected, (order.up, lhs, rhs)
            outcomes[expected, len(lhs) == len(rhs)] += 1
    assert order.all_leq((), ()) and order.all_leq([0], ()) and order.all_leq((), [0])
    assert len(outcomes) == 4, outcomes
