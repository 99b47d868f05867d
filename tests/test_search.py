import hashlib
from collections import Counter
from dataclasses import replace
from itertools import product

import pytest

import clalg.search
from oracles import (
    oracle_census,
    oracle_dfs_count,
    oracle_fusion_tables,
    oracle_lattice_classes,
    oracle_order_maps,
    orders_isomorphic,
)

from clalg.core import AlgebraCandidate, NotALattice, OrderRelation
from clalg.search import (
    SearchConfig,
    SearchStats,
    SizeOutOfRange,
    _completions,
    _fusion_tables,
    _involutions,
    _order_maps,
    canonical_form,
    enumerate_lattices,
    render_search_result,
    run_search,
)
from clalg.validator import NotACLAlgebra, seal, validate


@pytest.mark.parametrize("n,count", [(2, 1), (3, 1), (4, 2), (5, 5), (6, 15)])
def test_lattice_counts(n, count):
    assert len(enumerate_lattices(n)) == count


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_lattices_match_poset_filter_oracle(n):
    ours = enumerate_lattices(n)
    reps = oracle_lattice_classes(n)
    assert len(ours) == len(reps)
    for rep in reps:
        assert sum(1 for lat in ours if orders_isomorphic(rep, lat.up)) == 1


# sha256 of the up masks of enumerate_lattices(n), in order: the
# key-ordered labeling must find the same lattices in the same order
LATTICES_SHA256 = {
    6: "1d0de6b8ba1572854d2cc81976ee09580e3f1c33828d6c691ba7fa92409d003f",
    7: "c2b296ea54eba0ce0685b9fc631dbc4bc52512715626e23e4e6c00d12157c261",
    8: "21fd938549890067d838ffd93e26ec3bf03faace669c03bdf26558616d265db1",
}


@pytest.mark.parametrize("n", sorted(LATTICES_SHA256))
def test_lattice_list_is_pinned(n):
    ups = repr([lat.up for lat in enumerate_lattices(n)])
    assert hashlib.sha256(ups.encode()).hexdigest() == LATTICES_SHA256[n]


def test_size_bounds():
    with pytest.raises(SizeOutOfRange):
        enumerate_lattices(1)
    with pytest.raises(SizeOutOfRange):
        enumerate_lattices(9)
    with pytest.raises(SizeOutOfRange):
        run_search(SearchConfig(size=0))


def _raw_completions(order, one):
    """The raw (zero, mult, imp) triples run_search keys for one unit."""
    return list(_completions(order, one, _involutions(order),
                             _order_maps(order, reverse=False), Counter()))


def test_complete_one_element_lattice(one_element):
    assert one_element.n == 1 and one_element.top == 0


def test_complete_two_chain():
    chain = OrderRelation.from_covers(2, [(0, 1)])
    # one=top: zero=bot only, zero=top is ruled out by the involution
    assert [zero for zero, _mult, _imp in _raw_completions(chain, 1)] == [0]
    assert _raw_completions(chain, 0) == []  # the unit cannot be bot


def test_completions_contain_the_linear_fixture(linear5):
    found = run_search(SearchConfig(size=5, lattice=linear5.order)).algebras
    target = canonical_form(linear5)
    assert any(canonical_form(alg) == target for alg in found)


def test_every_emitted_algebra_revalidates(census):
    for algs in census.values():
        for alg in algs:
            report = validate(alg.as_candidate())
            assert report.passed


def test_canonical_form_is_relabeling_invariant(linear5):
    perm = (2, 0, 4, 1, 3)  # new index of each old element
    inv = [0] * 5
    for old, new in enumerate(perm):
        inv[new] = old
    relabeled = seal(
        linear5.as_candidate().__class__(
            name="shuffled",
            elements=tuple(linear5.elements[inv[i]] for i in range(5)),
            order=OrderRelation.from_leq(
                5,
                [[linear5.leq(inv[x], inv[y]) for y in range(5)] for x in range(5)],
            ),
            mult_table=tuple(
                tuple(perm[linear5.mult(inv[x], inv[y])] for y in range(5))
                for x in range(5)
            ),
            imp_table=tuple(
                tuple(perm[linear5.imp(inv[x], inv[y])] for y in range(5))
                for x in range(5)
            ),
            bot=perm[linear5.bot],
            zero=perm[linear5.zero],
            one=perm[linear5.one],
        )
    )
    assert canonical_form(relabeled) == canonical_form(linear5)


def test_canonical_forms_distinguish(census):
    two = census[2][0]
    three = census[3]
    forms = {canonical_form(a) for a in (two, *three)}
    assert len(forms) == 3


def test_canonical_form_equality_is_isomorphism(census):
    from oracles import algebras_isomorphic

    algs = list(census[4])
    # census output is already one representative per class
    for i, a in enumerate(algs):
        for b in algs[i + 1:]:
            assert canonical_form(a) != canonical_form(b)
            assert not algebras_isomorphic(a, b)
    # raw completions on the diamond include isomorphic duplicates
    # (swapping the atoms is an automorphism); equality of forms must
    # coincide with brute-force isomorphism on every pair
    from clalg.core import OrderRelation

    diamond = OrderRelation.from_covers(4, [(0, 1), (0, 2), (1, 3), (2, 3)])
    raw = [AlgebraCandidate(f"raw{one}_{k}", ("e0", "e1", "e2", "e3"), diamond,
                            mult, imp, 0, zero, one)
           for one in range(4)
           for k, (zero, mult, imp) in enumerate(_raw_completions(diamond, one))]
    assert len(raw) > len({canonical_form(a) for a in raw})
    for i, a in enumerate(raw):
        for b in raw[i + 1:]:
            same = canonical_form(a) == canonical_form(b)
            assert same == algebras_isomorphic(a, b), (a.name, b.name)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_census_rows_equal_second_enumerator(n):
    # a stdlib-only DFS over every (zero, one) pair, with no negation
    # first, no rotation law and no orbit reduction
    rows = run_search(SearchConfig(size=n, max_results=0)).rows
    assert [oracle_dfs_count(lat.up) for lat in enumerate_lattices(n)] == [
        row.count for row in rows]


def _rotation_law_holds(up, mult, sigma):
    n = len(up)
    return all((up[mult[x][y]] >> sigma[w] & 1) == (up[mult[x][w]] >> sigma[y] & 1)
               for x, y, w in product(range(n), repeat=3))


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_fusion_tables_equal_oracle(n):
    # the raw DFS output, before dedup could hide a lost table: the
    # oracle's tables (pruned by monotonicity, associativity and join
    # distribution) that satisfy the rotation law, in the same order
    for lat in enumerate_lattices(n):
        for one in range(n):
            if one == lat.least():
                continue
            tables = oracle_fusion_tables(lat.up, one)
            for sigma in _involutions(lat):
                assert _fusion_tables(lat, one, sigma, Counter()) == [
                    t for t in tables if _rotation_law_holds(lat.up, t, sigma)], (lat.up, one, sigma)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_order_maps_equal_permutation_scan(n):
    for lat in enumerate_lattices(n):
        assert _order_maps(lat, reverse=False) == oracle_order_maps(lat.up, reverse=False)
        assert _involutions(lat) == [
            s for s in oracle_order_maps(lat.up, reverse=True)
            if all(s[s[x]] == x for x in range(n))]


def test_rotation_law_holds_on_the_census(census):
    # x*y <= ~w iff x*w <= ~y, with ~w = w -> zero read from the table
    algebras = [a for algs in census.values() for a in algs]
    algebras += run_search(SearchConfig(size=6)).algebras
    for alg in algebras:
        neg = [alg.imp_table[w][alg.zero] for w in range(alg.n)]
        mult = alg.mult_table
        for x, y, w in product(range(alg.n), repeat=3):
            assert alg.leq(mult[x][y], neg[w]) == alg.leq(mult[x][w], neg[y]), (alg.name, x, y, w)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_census_equals_naive_oracle(n):
    reps, counts, _ = oracle_census(n)
    lattices = enumerate_lattices(n)
    result = run_search(SearchConfig(size=n))
    by_index = {row.lattice_index: row.count for row in result.rows}
    assert len(reps) == len(lattices)
    for oi, rep in enumerate(reps):
        matches = [si for si, lat in enumerate(lattices) if orders_isomorphic(rep, lat.up)]
        assert len(matches) == 1
        assert by_index[matches[0]] == counts[oi], (n, oi)


def test_census_counts_frozen(census):
    # cross-checked against the naive oracle for n <= 4 above; the
    # larger sizes are pinned so regressions show up loudly
    assert len(census[2]) == 1
    assert len(census[3]) == 2
    assert len(census[4]) == 9
    assert len(census[5]) == 21


def test_search_output_is_deterministic():
    first = render_search_result(run_search(SearchConfig(size=4)))
    second = render_search_result(run_search(SearchConfig(size=4)))
    assert first == second


def test_count_only_matches_full_rows():
    full = run_search(SearchConfig(size=4))
    counted = run_search(SearchConfig(size=4, max_results=0))
    assert counted.rows == full.rows
    assert counted.algebras == ()
    assert counted.stats == full.stats


def test_size_six_census_is_pinned():
    rows = run_search(SearchConfig(size=6, max_results=0)).rows
    assert len(rows) == 15  # OEIS A006966
    assert sum(row.count for row in rows) == 100


def test_size_eight_census_is_pinned():
    result = run_search(SearchConfig(size=8))
    assert len(result.rows) == 222  # OEIS A006966
    assert result.total == 1392
    text = render_search_result(result)
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "4c82575cbdae74826b9999527355bff28ac44acdf37efeb314f2c80b1c2692a3")


# every count of a census run repeats exactly; nodes are the partial
# tables that passed every check, full ones included
SEARCH_STATS = {
    4: SearchStats(lattices=2, with_involution=2, roots=7, nodes=37,
                   values_checked=31, tables=9, keys=9),
    5: SearchStats(lattices=5, with_involution=3, roots=13, nodes=160,
                   values_checked=160, tables=22, keys=21),
    6: SearchStats(lattices=15, with_involution=7, roots=44, nodes=1297,
                   values_checked=1387, tables=110, keys=100),
}


@pytest.mark.parametrize("n", sorted(SEARCH_STATS))
def test_search_stats_are_pinned(n):
    stats = run_search(SearchConfig(size=n, max_results=0)).stats
    assert stats == SEARCH_STATS[n]
    assert stats.dedup_hits == {4: 0, 5: 1, 6: 10}[n]


def test_max_results_caps_list():
    result = run_search(SearchConfig(size=4, max_results=3))
    assert len(result.algebras) == 3
    assert result.total == 9  # the census itself is not truncated
    with pytest.raises(ValueError):
        SearchConfig(size=4, max_results=-1)


@pytest.mark.parametrize("max_results", [None, 0, 1])
def test_one_full_validation_per_key(monkeypatch, max_results):
    # every key is sealed, and seal reaches validate through the
    # validator module
    calls = []

    def counting_validate(cand):
        calls.append(cand.name)
        return validate(cand)

    monkeypatch.setattr("clalg.validator.validate", counting_validate)
    result = run_search(SearchConfig(size=5, max_results=max_results))
    assert result.total == 21
    if max_results == 1:
        assert [a.name for a in result.algebras] == ["cl5_l0_0"]
    assert sorted(calls) == sorted(f"cl5_l{row.lattice_index}_{k}"
                                   for row in result.rows for k in range(row.count))


@pytest.mark.parametrize("max_results", [None, 0, 1])
def test_raw_tables_are_keyed_without_candidates(monkeypatch, max_results):
    # one candidate rebuilt from each of the 21 keys and one sealed
    # algebra per key, whether emitted or only validated: the 22 raw
    # tables are keyed as they come, and none is built as a candidate
    built = []
    post_init = AlgebraCandidate.__post_init__

    def counting_post_init(self):
        built.append(type(self).__name__)
        post_init(self)

    monkeypatch.setattr(AlgebraCandidate, "__post_init__", counting_post_init)
    result = run_search(SearchConfig(size=5, max_results=max_results))
    assert (result.total, result.stats.tables) == (21, 22)
    assert sorted(Counter(built).items()) == [("AlgebraCandidate", 21), ("FiniteCLAlgebra", 21)]


def _counting(monkeypatch, name, record):
    """Wrap clalg.search.<name>, recording the order's up masks and the
    other arguments of each call."""
    fn = getattr(clalg.search, name)

    def counted(order, *args, **kwargs):
        record.append((order.up, *args, *kwargs.values()))
        return fn(order, *args, **kwargs)

    monkeypatch.setattr(clalg.search, name, counted)


def test_lattice_symmetries_are_computed_once(monkeypatch):
    lattices = enumerate_lattices(6)
    with_sigma = [lat.up for lat in lattices if _involutions(lat)]
    assert 0 < len(with_sigma) < len(lattices)
    maps, involutions = [], []
    _counting(monkeypatch, "_order_maps", maps)
    _counting(monkeypatch, "_involutions", involutions)
    assert run_search(SearchConfig(size=6)).total == 100
    assert [up for up, reverse in maps if not reverse] == with_sigma
    assert [up for (up,) in involutions] == [lat.up for lat in lattices]


def test_lattice_without_involution_costs_nothing_more(monkeypatch):
    # bottom, two atoms, their join and a top above it: the dual has a
    # single atom, so no order-reversing involution exists
    lat = OrderRelation.from_covers(5, [(0, 1), (0, 2), (1, 3), (2, 3), (3, 4)])
    assert _involutions(lat) == []
    maps, dfs = [], []
    _counting(monkeypatch, "_order_maps", maps)
    _counting(monkeypatch, "_fusion_tables", dfs)
    result = run_search(SearchConfig(size=5, lattice=lat))
    assert [row.count for row in result.rows] == [0]
    assert result.algebras == ()
    assert [reverse for _up, reverse in maps] == [True]  # listing the involutions only
    assert dfs == []


def test_fixed_lattice_config(linear5):
    result = run_search(SearchConfig(size=5, lattice=linear5.order))
    assert len(result.rows) == 1
    full = run_search(SearchConfig(size=5, max_results=0))
    chain_rows = [
        row for row, lat in zip(full.rows, enumerate_lattices(5))
        if orders_isomorphic(lat.up, linear5.order.up)
    ]
    assert len(chain_rows) == 1
    assert result.rows[0].count == chain_rows[0].count == 8
    with pytest.raises(ValueError):
        run_search(SearchConfig(size=4, lattice=linear5.order))
    with pytest.raises(NotALattice):  # two maximal elements, no top
        run_search(SearchConfig(size=3, lattice=OrderRelation.from_covers(3, [(0, 1), (0, 2)])))


@pytest.mark.parametrize("up", [(3, 3), (5, 6, 7)])
def test_order_that_is_not_antisymmetric_is_rejected(up):
    # a 2-cycle, and a 3-element relation with 0 <= 2 <= 0
    order = OrderRelation(len(up), up)
    with pytest.raises(ValueError, match="antisymmetric"):
        run_search(SearchConfig(size=order.n, lattice=order))


@pytest.mark.parametrize("up", [(15, 6, 12, 10), (31, 2, 6, 14, 26)])
def test_order_that_is_not_transitive_is_rejected(up):
    # the cycle 1 <= 2 <= 3 <= 1, and 4 <= 3 <= 2 without 4 <= 2: both
    # antisymmetric, with a least element; the first would count 0
    # algebras, the second die in seal
    order = OrderRelation(len(up), up)
    with pytest.raises(ValueError, match="transitive"):
        run_search(SearchConfig(size=order.n, lattice=order))


def test_fixed_lattice_without_a_least_element_is_rejected():
    # a two-element antichain: antisymmetric, with no least element
    with pytest.raises(ValueError) as exc:
        run_search(SearchConfig(size=2, lattice=OrderRelation(2, (0b01, 0b10))))
    assert str(exc.value) == "order has no least element"


def test_rejected_completion_is_loud(monkeypatch):
    # a finished table the validator rejects is an error, not a skip
    monkeypatch.setattr("clalg.validator.validate",
                        lambda cand: validate(replace(cand, imp_table=cand.mult_table)))
    with pytest.raises(NotACLAlgebra) as exc:
        run_search(SearchConfig(size=3))
    assert not exc.value.report.residuation.ok


def test_identity_and_quotient_mass_checks_run_in_search_tests(census):
    # every emitted algebra is sealed, so downstream modules accept it
    for algs in census.values():
        for alg in algs:
            assert alg.imp_table is not None
            assert alg.order.leq(alg.bot, alg.top)


# sha256 of render_search_result per size: any rewrite of the search
# must reproduce the census byte for byte
CENSUS_SHA256 = {
    2: "e4d093ed985822d592cd30698463f532283d030714fb3f7eba74c0797c6600eb",
    3: "486376c75f2888763860bde43d4b36edae331f4d6960ba068a7ce2b9aea74989",
    4: "62962bb0d87608855847237f22581c7772fec05362dbe90dcf674720bc257132",
    5: "021916b06b1240d01266a669607e7d770a3ae75663bc5f805de8d8e97889250a",
    6: "20359275cb302c5bffd9cfa63e5db0d09a2a3faf73368ae0168769a8e92270e7",
    7: "db7bbef92736eaee5d50571d84f5b545a80785393efc69663c7a5a9dad2c1f7a",
}


@pytest.mark.parametrize("n", sorted(CENSUS_SHA256))
def test_census_text_is_pinned(n):
    text = render_search_result(run_search(SearchConfig(size=n)))
    assert hashlib.sha256(text.encode()).hexdigest() == CENSUS_SHA256[n]


def _content(alg):
    return (alg.elements, alg.order.up, alg.mult_table, alg.imp_table,
            alg.bot, alg.zero, alg.one, alg.top)


def test_census_rows_do_not_depend_on_lattice_labeling(census):
    perm = (0, 3, 1, 4, 2)  # new index of each old element
    start = 0
    for row, lat in zip(run_search(SearchConfig(size=5, max_results=0)).rows,
                        enumerate_lattices(5)):
        relabeled = OrderRelation.from_leq(
            5, [[lat.leq(perm.index(x), perm.index(y)) for y in range(5)] for x in range(5)])
        assert relabeled.up != lat.up
        fixed = run_search(SearchConfig(size=5, lattice=relabeled))
        expected = census[5][start:start + row.count]
        assert [_content(a) for a in fixed.algebras] == [_content(a) for a in expected]
        assert [a.name for a in fixed.algebras] == [
            f"cl5_l0_{k}" for k in range(row.count)]
        start += row.count
