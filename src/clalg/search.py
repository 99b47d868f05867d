"""Exhaustive enumeration of CL-algebras up to isomorphism.

Lattices are generated with a naturally-labeled DFS: element 0 is the
bottom, element n-1 the top, and each element's key (longest chain
from the bottom, down-set size) is at least its predecessor's.  Sorting
a lattice's elements by key is a linear extension, since x < y makes
both parts larger, so every lattice has such a labeling, and each of
its prefixes is a down-set, hence meet-closed; a finite
meet-semilattice with a top is a lattice, so the incremental meet check
loses nothing.  Each lattice is then canonically relabeled and
deduplicated.

Completions are involution-first.  A CL-algebra's negation x -> zero
is an order-reversing involution sigma of the lattice with zero =
sigma(one), so run_search lists each lattice's order-reversing
involutions once, and a lattice without one counts 0 and costs nothing
more.  Otherwise its automorphisms are listed once, for one unit per
automorphism orbit and, per unit, one sigma per class under
conjugation by the automorphisms fixing it.  Per (one, sigma) a
backtracking search fills a commutative fusion table: the unit row is
fixed, the bottom row is forced to bottom (residuation plus the least
element leave no other choice) and commutativity halves the table.
Each cell is checked once, when it is set, against the filled cells.
The rotation law x*y <= sigma(w) iff x*w <= sigma(y) (both say
x*y*w <= zero) against a filled x*w bounds the new value alone: it
must lie in the down-set of sigma(w) or outside it.  So the law is one
mask of allowed values per cell, an AND of down-set masks built before
any value is tried.  Each allowed value is then checked for
associativity on the filled triples that read it; those in which the
new cell is the outer product (p*q)*r, with p*q one of its indices,
are found through an index of the filled cells by value.
Monotonicity and join distribution need no check: every finished
table satisfies the rotation law, and with w = sigma(z) the law reads
x*y <= z iff y <= sigma(x*sigma(z)), so each map y -> x*y is
residuated, hence monotone and join-preserving.  On a finished table
the rotation law makes sigma the negation and x -> y =
sigma(x * sigma(y)) the residual, so the implication is read off
sigma.  run_search keys each finished table as it comes, raw, with no
algebra built for it, and runs the full validator once per key, on
the algebra rebuilt from it, which checks every isomorphism class it
counts.

Isomorphism handling: one encoding (order, designated elements,
tables) is minimized over all permutations consistent with an
iso-invariant coloring (refined from order, table and designation
profiles until stable, or until discrete, where no round can split a
class), so equal encodings mean isomorphic via a bijection preserving
order, both tables, bot, zero and one.  Lattices are keyed
by their order alone, algebras by all of it.  Each lattice's census is
the sorted set of its algebras' keys, and each algebra is emitted as
rebuilt from its key, named cl{n}_l{lattice}_{rank}: the order, the
labeling and the names of the output are independent of discovery
order.  The result records are NamedTuples, cheaper to build at import
than dataclasses; SearchConfig, which checks its bounds, is one.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import groupby, islice, permutations, product
from typing import NamedTuple

from .core import (
    AlgebraCandidate,
    AlgebraError,
    FiniteCLAlgebra,
    NotALattice,
    OrderRelation,
    Table,
    iter_bits,
)
from .fileformat import serialize_algebra
from .laws import first_violation
from .validator import LATTICE, seal

SIZE_MIN = 2
SIZE_MAX = 8

_ANTISYMMETRY = tuple(law for law in LATTICE if law.kind == "antisymmetry")


class SizeOutOfRange(AlgebraError):
    pass


def _check_size(n: int) -> None:
    if not SIZE_MIN <= n <= SIZE_MAX:
        raise SizeOutOfRange(f"size must be in [{SIZE_MIN}, {SIZE_MAX}], got {n}")


@dataclass(frozen=True)
class SearchConfig:
    size: int
    max_results: int | None = None
    lattice: OrderRelation | None = None

    def __post_init__(self):
        if self.max_results is not None and self.max_results < 0:
            raise ValueError(f"max_results must be >= 0, got {self.max_results}")


class CensusRow(NamedTuple):
    size: int
    lattice_index: int
    count: int


class SearchStats(NamedTuple):
    """What one run_search did, in counts that repeat exactly: the
    lattices listed and those with an order-reversing involution, the
    (one, sigma) roots of the fusion-table DFS, its nodes (partial
    tables that passed every check so far, full ones included) and the
    values the rotation law allowed and associativity then checked,
    the raw tables found and the canonical keys they gave."""

    lattices: int = 0
    with_involution: int = 0
    roots: int = 0
    nodes: int = 0
    values_checked: int = 0
    tables: int = 0
    keys: int = 0

    @property
    def dedup_hits(self) -> int:
        """Raw tables whose key an earlier table of the lattice gave."""
        return self.tables - self.keys


class SearchResult(NamedTuple):
    rows: tuple[CensusRow, ...]
    algebras: tuple[FiniteCLAlgebra, ...]
    stats: SearchStats

    @property
    def total(self) -> int:
        return sum(r.count for r in self.rows)


def _color_consistent_perms(colors):
    """Permutations pi (new index -> old element) listing elements in
    nondecreasing color, all arrangements within equal-color blocks."""
    ordered = sorted(range(len(colors)), key=lambda i: (colors[i], i))
    blocks = [tuple(b) for _c, b in groupby(ordered, key=colors.__getitem__)]
    for parts in product(*[permutations(b) for b in blocks]):
        yield tuple(x for part in parts for x in part)


def _least_encoding(order: OrderRelation, marks: tuple[int, ...] = (),
                    tables: tuple = ()) -> tuple:
    """Least (n, up masks, marked elements, row-major tables) over the
    relabelings consistent with an iso-invariant coloring.

    Colors start from each element's down- and up-set sizes and the
    marks it carries, and are refined by the colors strictly below and
    above it and in its table rows until stable, so equal encodings mean
    a bijection preserving the order, the marks and every table.  A
    discrete coloring (n colors) is stable, as no round can split it,
    so refinement stops there without running another round.
    """
    n = order.n
    dn, up = order.dn, order.up

    def ranks(keys):
        rank = {k: r for r, k in enumerate(sorted(set(keys)))}
        return [rank[k] for k in keys]

    col = ranks([(dn[i].bit_count(), up[i].bit_count(), *(i == m for m in marks))
                 for i in range(n)])
    while max(col) < n - 1:
        new = ranks([
            (col[i], tuple(sorted(col[j] for j in iter_bits(dn[i] & ~(1 << i)))),
             tuple(sorted(col[j] for j in iter_bits(up[i] & ~(1 << i)))),
             *(tuple(sorted((col[j], col[t[i][j]]) for j in range(n))) for t in tables))
            for i in range(n)
        ])
        if max(new) == max(col):  # no class split: the ranks are unchanged
            break
        col = new

    best = None
    for pi in _color_consistent_perms(col):
        pos = [0] * n
        for newi, old in enumerate(pi):
            pos[old] = newi
        masks = []
        for old_i in pi:
            mask = 0
            for old in iter_bits(order.up[old_i]):
                mask |= 1 << pos[old]
            masks.append(mask)
        enc = (n, tuple(masks), *(pos[m] for m in marks),
               *(tuple(pos[t[x][y]] for x in pi for y in pi) for t in tables))
        if best is None or enc < best:
            best = enc
    return best


def enumerate_lattices(n: int) -> list[OrderRelation]:
    """All lattices on n elements up to order-isomorphism, canonically
    relabeled and sorted."""
    _check_size(n)
    seen = set()
    for dnmasks in _natural_lattice_downmasks(n):
        up = OrderRelation(n, dnmasks).dn  # the transpose of the down masks
        seen.add(_least_encoding(OrderRelation(n, up)))
    return [OrderRelation(n, masks) for _n, masks in sorted(seen)]


def _natural_lattice_downmasks(n: int):
    """Yield dn-mask tuples of the naturally labeled lattices on n
    elements whose labels ascend by key (height, down-set size).  No
    lattice is lost: sorting its elements by key lists each x before
    every y > x (both parts of the key grow), a labeling yielded.  The
    top needs no test: its key is the largest, and it adds no meet."""
    dn = [1]
    keys = [(0, 1)]

    def meets_ok(my):
        for x in range(len(dn)):
            lb = dn[x] & my
            if not any(lb & ~dn[g] == 0 for g in iter_bits(lb)):
                return False
        return True

    def rec(i):
        if i == n - 1:
            yield (*dn, (1 << n) - 1)
            return
        for mask in range(1, 1 << i, 2):  # bottom always below: bit 0 set
            if any(dn[j] & ~mask for j in iter_bits(mask)):
                continue  # not a down-set
            key = (1 + max(keys[j][0] for j in iter_bits(mask)), mask.bit_count() + 1)
            if key >= keys[-1] and meets_ok(mask | 1 << i):
                dn.append(mask | 1 << i)
                keys.append(key)
                yield from rec(i + 1)
                keys.pop()
                dn.pop()

    yield from rec(1)


def canonical_form(alg: AlgebraCandidate) -> tuple:
    """Isomorphism-invariant key of a (sealed or unvalidated) algebra:
    (n, up masks, bot, zero, one, mult, imp), tables row-major.

    Equal keys mean there is a bijection preserving order, mult, imp,
    bot, zero and one.  run_search keys its raw tables by the same
    encoding and emits the algebras rebuilt from their keys.
    """
    return _least_encoding(alg.order, (alg.bot, alg.zero, alg.one),
                           (alg.mult_table, alg.imp_table))


def _candidate_from_key(key: tuple, name: str,
                        orders: dict[tuple, OrderRelation]) -> AlgebraCandidate:
    """The unvalidated algebra a canonical key encodes, in that
    labeling; `orders` shares one OrderRelation (and its meet/join
    tables) per order encoding."""
    n, up, bot, zero, one, mult, imp = key

    def rows(flat):
        return tuple(flat[i:i + n] for i in range(0, n * n, n))

    return AlgebraCandidate(
        name=name, elements=tuple(f"e{i}" for i in range(n)),
        order=orders.get(up) or orders.setdefault(up, OrderRelation(n, up)),
        mult_table=rows(mult), imp_table=rows(imp),
        bot=bot, zero=zero, one=one,
    )


def _order_maps(order: OrderRelation, reverse: bool) -> list[tuple[int, ...]]:
    """Every bijection p with x <= y iff p(x) <= p(y) (automorphisms),
    or iff p(y) <= p(x) when `reverse` (dual automorphisms), found by
    backtracking over the images of 0, 1, ... in turn."""
    n = order.n
    up, dn = order.up, order.dn
    # p(x) has x's down-set size, or its up-set size when reversing
    want = [(up if reverse else dn)[x].bit_count() for x in range(n)]
    p: list[int] = []
    out = []

    def fits(x, c):
        for j, pj in enumerate(p):
            lo, hi = up[pj] >> c & 1, up[c] >> pj & 1
            if reverse:
                lo, hi = hi, lo
            if (up[j] >> x & 1, up[x] >> j & 1) != (lo, hi):
                return False
        return True

    def rec(x):
        if x == n:
            out.append(tuple(p))
            return
        for c in range(n):
            if c not in p and dn[c].bit_count() == want[x] and fits(x, c):
                p.append(c)
                rec(x + 1)
                p.pop()

    rec(0)
    return out


def _involutions(order: OrderRelation) -> list[tuple[int, ...]]:
    """The order-reversing involutions of the lattice: the only tables a
    CL-algebra's negation x -> zero can have."""
    return [s for s in _order_maps(order, reverse=True)
            if all(s[s[x]] == x for x in range(order.n))]


def _orbit_reps(items, images) -> list:
    """The first item of each orbit, in the order of `items`;
    images(item) lists the item's orbit."""
    seen: set = set()
    reps = []
    for item in items:
        if item not in seen:
            reps.append(item)
            seen.update(images(item))
    return reps


def _fusion_tables(order: OrderRelation, one: int, sigma: tuple[int, ...],
                   counts: Counter) -> list[Table]:
    """Every commutative, associative fusion table on the lattice with
    unit `one` that satisfies the rotation law x*y <= sigma(w) iff
    x*w <= sigma(y), by backtracking over the cells outside the unit and
    bottom rows, in row-major order, each cell's values ascending.

    Each cell is checked once, when it is set, against the cells already
    filled.  The rotation law against a filled cell of its rows bounds
    the new value alone, so it is applied first, as a mask of the values
    allowed; only those are set and checked for associativity, which
    reads the filled cells holding x or y, for a new cell x*y, from
    `at`, an index of the filled cells by value.  The tables are also
    monotone and distribute over joins, so neither is checked: each
    satisfies the rotation law, which with w = sigma(z) reads x*y <= z
    iff y <= sigma(x*sigma(z)), so each map y -> x*y has a residual,
    and a residuated map is monotone and preserves joins.
    `counts` gains the DFS nodes and the values checked.
    """
    n = order.n
    bot = order.least()
    # bit v of dn_neg[c] is set iff v <= sigma(c)
    dn_neg = [order.dn[sigma[c]] for c in range(n)]

    tab: list[list[int | None]] = [[None] * n for _ in range(n)]
    for x in range(n):
        tab[bot][x] = tab[x][bot] = bot
        tab[one][x] = tab[x][one] = x
    # at[w] lists the filled cells (p, q) that hold w, both ways round
    at: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for p, q in product(range(n), repeat=2):
        if tab[p][q] is not None:
            at[tab[p][q]].append((p, q))

    cells = [
        (x, y)
        for x in range(n)
        for y in range(x, n)
        if x != bot and x != one and y != bot and y != one
    ]
    tables: list[Table] = []
    nodes = checked = 0

    def allowed(x, y):
        """The values x*y may take by the rotation law against the filled
        cells of rows x and y: for x*c filled, x*y <= sigma(c) iff
        x*c <= sigma(y), both saying x*y*c <= zero.  The preset rows
        satisfy the law for every order-reversing involution (one's row
        by x <= sigma(y) iff y <= sigma(x), bot's row and column
        trivially), so checking each new cell covers every pair of
        filled cells."""
        mask = (1 << n) - 1
        for row, other in ((tab[x], y), (tab[y], x)) if x != y else ((tab[x], x),):
            below = dn_neg[other]
            for c, w in enumerate(row):
                if w is not None:
                    mask &= dn_neg[c] if below >> w & 1 else ~dn_neg[c]
        return mask

    def associative(x, y, v):
        """Whether x*y = y*x = v, just written, keeps (p*q)*r = p*(q*r)
        on the filled triples that read the new cell."""
        # the table is symmetric, so the triple (r, q, p) states the same
        # equation, and the new cell is either the inner product p*q (one
        # pass on a diagonal cell, where both orders are (x, x)) ...
        rowv = tab[v]
        for p, q in ((x, y), (y, x)) if x != y else ((x, x),):
            rowp = tab[p]
            for r, qr in enumerate(tab[q]):
                a = rowv[r]
                if a is not None and qr is not None and rowp[qr] not in (None, a):
                    return False
        # ... or the outer product: p*q is x or y, and r the other one
        for pq in (x, y) if x != y else (x,):
            r = x + y - pq
            for p, q in at[pq]:
                qr = tab[q][r]
                if qr is not None and tab[p][qr] not in (None, v):
                    return False
        return True

    def dfs(k):
        nonlocal nodes, checked
        nodes += 1
        if k == len(cells):
            tables.append(tuple(tuple(row) for row in tab))
            return
        x, y = cells[k]
        mask = allowed(x, y)
        checked += mask.bit_count()
        new = [(x, y), (y, x)] if x != y else [(x, y)]
        for v in iter_bits(mask):
            tab[x][y] = tab[y][x] = v
            at[v] += new
            if associative(x, y, v):
                dfs(k + 1)
            del at[v][-len(new):]
        tab[x][y] = tab[y][x] = None

    dfs(0)
    counts["nodes"] += nodes
    counts["values_checked"] += checked
    return tables


def _check_lattice(order: OrderRelation) -> None:
    """Raise ValueError for an order that is not antisymmetric, not a
    preorder or has no least element, NotALattice for one without all
    joins."""
    verdict = first_violation("antisymmetry", _ANTISYMMETRY, order)
    if not verdict:
        raise ValueError(f"order is not antisymmetric: {verdict.witness}")
    if not order.is_preorder:
        raise ValueError("order is not reflexive and transitive")
    if order.least() is None:
        raise ValueError("order has no least element")
    for x, row in enumerate(order.lubs):
        if None in row:
            raise NotALattice(x, row.index(None), "join")


def _completions(order: OrderRelation, one: int, involutions: list[tuple[int, ...]],
                 autos: list[tuple[int, ...]], counts: Counter):
    """Yield the raw (zero, mult, imp) of each fusion table with unit
    `one` and sigma, for one sigma per class of `involutions` under
    conjugation by the `autos` fixing one: zero = sigma(one) and
    x -> y = sigma(x * sigma(y)).  Nothing is validated or built here;
    run_search keys each triple.  `counts` gains the roots searched,
    the DFS work and the tables."""
    n = order.n
    if one == order.least():
        return  # the unit row must be the identity, the bottom row constant
    # each automorphism p fixing one, with p's inverse listed as a sequence
    stabilizer = [(p, sorted(range(n), key=p.__getitem__)) for p in autos if p[one] == one]

    def conjugates(sigma):  # p sigma p^-1
        return [tuple(p[sigma[x]] for x in inverse) for p, inverse in stabilizer]

    for sigma in _orbit_reps(involutions, conjugates):
        counts["roots"] += 1
        tables = _fusion_tables(order, one, sigma, counts)
        counts["tables"] += len(tables)
        for mult in tables:
            yield sigma[one], mult, tuple(tuple(sigma[mult[x][sigma[y]]] for y in range(n))
                                          for x in range(n))


def run_search(config: SearchConfig) -> SearchResult:
    """Census over all lattices of the configured size (or the fixed
    one): per lattice, the sorted set of canonical keys of its
    completions.  The algebra each key encodes is sealed once, so every
    counted class is a CL-algebra; the first max_results are emitted and
    the rest kept nowhere.  The result carries the run's SearchStats."""
    n = config.size
    _check_size(n)
    if config.lattice is not None:
        if config.lattice.n != n:
            raise ValueError("fixed lattice size does not match config size")
        _check_lattice(config.lattice)
        lattices = [config.lattice]
    else:
        lattices = enumerate_lattices(n)

    rows = []
    named: list[tuple[str, tuple]] = []
    counts = Counter(lattices=len(lattices))
    for li, lat in enumerate(lattices):
        keys: set[tuple] = set()
        involutions = _involutions(lat)
        if involutions:
            counts["with_involution"] += 1
            autos = _order_maps(lat, reverse=False)
            bot = lat.least()
            for one in _orbit_reps(range(n), lambda u: [p[u] for p in autos]):
                # the tuple canonical_form builds for an algebra
                keys.update(_least_encoding(lat, (bot, zero, one), (mult, imp))
                            for zero, mult, imp in _completions(lat, one, involutions,
                                                                autos, counts))
        counts["keys"] += len(keys)
        rows.append(CensusRow(n, li, len(keys)))
        named += [(f"cl{n}_l{li}_{k}", key) for k, key in enumerate(sorted(keys))]
    orders: dict[tuple, OrderRelation] = {}
    sealed = (seal(_candidate_from_key(key, name, orders)) for name, key in named)
    algebras = tuple(islice(sealed, config.max_results))
    for _alg in sealed:  # sealed, not kept
        pass
    return SearchResult(rows=tuple(rows), algebras=algebras, stats=SearchStats(**counts))


def render_search_result(result: SearchResult) -> str:
    """Canonical text form of a census; identical across repeated runs."""
    lines = [
        f"size {r.size} lattice {r.lattice_index} count {r.count}"
        for r in result.rows
    ]
    lines.append(f"total {result.total}")
    for alg in result.algebras:
        lines.append("")
        lines.append(serialize_algebra(alg).rstrip("\n"))
    return "\n".join(lines) + "\n"
