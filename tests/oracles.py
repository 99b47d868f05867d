"""Independent brute-force reference implementations, used only by tests.

Everything here expands quantifiers literally over raw table entries and
order masks, with no reuse of the package's derived operations; the only
shared surface is reading the candidate's fields, and nothing here
imports the package.  The one pruned search, `oracle_fusion_tables`,
feeds the second census enumerator `oracle_dfs_count`, which accepts
only tables that pass the literal all-axiom test.  Scan orders mirror
the documented validator contract so that first witnesses are
comparable.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import permutations, product


def bits_of(mask: int):
    out = []
    i = 0
    while mask:
        if mask & 1:
            out.append(i)
        mask >>= 1
        i += 1
    return out


def _leq(cand, x, y):
    return bool(cand.order.up[x] >> y & 1)


def _glb_scan(cand, x, y):
    n = cand.n
    lowers = [z for z in range(n) if _leq(cand, z, x) and _leq(cand, z, y)]
    best = [g for g in lowers if all(_leq(cand, z, g) for z in lowers)]
    return best[0] if best else None


def _lub_scan(cand, x, y):
    n = cand.n
    uppers = [z for z in range(n) if _leq(cand, x, z) and _leq(cand, y, z)]
    best = [g for g in uppers if all(_leq(cand, g, z) for z in uppers)]
    return best[0] if best else None


def _maximal(cand, members):
    return tuple(m for m in members
                 if not any(o != m and _leq(cand, m, o) for o in members))


def _minimal(cand, members):
    return tuple(m for m in members
                 if not any(o != m and _leq(cand, o, m) for o in members))


@dataclass
class AxiomResult:
    ok: bool
    witnesses: list = field(default_factory=list)
    skipped: bool = False

    @property
    def first(self):
        return self.witnesses[0] if self.witnesses else None


@dataclass
class OracleResult:
    lattice: AxiomResult
    monoid: AxiomResult
    residuation: AxiomResult
    involution: AxiomResult

    @property
    def promoted(self) -> bool:
        return (self.lattice.ok and self.monoid.ok
                and self.residuation.ok and self.involution.ok)


def oracle_lattice(cand) -> AxiomResult:
    n = cand.n
    ws = []
    for x in range(n):
        if not _leq(cand, x, x):
            ws.append(("reflexivity", x))
    for x in range(n):
        for y in range(x + 1, n):
            if _leq(cand, x, y) and _leq(cand, y, x):
                ws.append(("antisymmetry", x, y))
    for x, y, z in product(range(n), repeat=3):
        if _leq(cand, x, y) and _leq(cand, y, z) and not _leq(cand, x, z):
            ws.append(("transitivity", x, y, z))
    for x in range(n):
        for y in range(x, n):
            if _lub_scan(cand, x, y) is None:
                uppers = [z for z in range(n) if _leq(cand, x, z) and _leq(cand, y, z)]
                ws.append(("no_join", x, y, _minimal(cand, uppers)))
    for x in range(n):
        for y in range(x, n):
            if _glb_scan(cand, x, y) is None:
                lowers = [z for z in range(n) if _leq(cand, z, x) and _leq(cand, z, y)]
                ws.append(("no_meet", x, y, _maximal(cand, lowers)))
    for x in range(n):
        if not _leq(cand, cand.bot, x):
            ws.append(("bot_not_least", x))
    return AxiomResult(not ws, ws)


def oracle_monoid(cand) -> AxiomResult:
    n = cand.n
    t = cand.mult_table
    ws = []
    for x in range(n):
        for y in range(x + 1, n):
            if t[x][y] != t[y][x]:
                ws.append(("commutativity", x, y))
    for x in range(n):
        if t[cand.one][x] != x or t[x][cand.one] != x:
            ws.append(("unit", x))
    for x, y, z in product(range(n), repeat=3):
        if t[t[x][y]][z] != t[x][t[y][z]]:
            ws.append(("associativity", x, y, z))
    return AxiomResult(not ws, ws)


def oracle_derive_imp(cand):
    """Literal residual table, or (None, failures) when impossible."""
    n = cand.n
    t = cand.mult_table
    rows = []
    failures = []
    for x in range(n):
        row = []
        for y in range(n):
            s = [z for z in range(n) if _leq(cand, t[x][z], y)]
            best = [g for g in s if all(_leq(cand, z, g) for z in s)]
            if not best:
                failures.append(("no_residual", x, y, _maximal(cand, s)))
                row.append(None)
            else:
                row.append(best[0])
        rows.append(row)
    if failures:
        return None, failures
    return rows, []


def oracle_validate(cand) -> OracleResult:
    lattice = oracle_lattice(cand)
    monoid = oracle_monoid(cand)

    imp = cand.imp_table
    if imp is None:
        imp, failures = oracle_derive_imp(cand)
        if imp is None:
            return OracleResult(
                lattice, monoid,
                AxiomResult(False, failures),
                AxiomResult(False, [], skipped=True),
            )

    n = cand.n
    t = cand.mult_table
    res_ws = []
    for x, y, z in product(range(n), repeat=3):
        if _leq(cand, t[x][y], z) != _leq(cand, x, imp[y][z]):
            res_ws.append(("adjunction", x, y, z))
    inv_ws = []
    for x in range(n):
        if imp[imp[x][cand.zero]][cand.zero] != x:
            inv_ws.append(("involution", x))
    return OracleResult(
        lattice, monoid,
        AxiomResult(not res_ws, res_ws),
        AxiomResult(not inv_ws, inv_ws),
    )


def _plus_literal(cand, x, y):
    imp = cand.imp_table
    t = cand.mult_table
    z = cand.zero
    return imp[t[imp[x][z]][imp[y][z]]][z]


def oracle_is_ideal_mask(cand, mask: int) -> bool:
    if not mask:
        return False
    if not mask >> cand.zero & 1:
        return False
    members = bits_of(mask)
    for x in members:
        for y in members:
            if not mask >> _plus_literal(cand, x, y) & 1:
                return False
            j = _lub_scan(cand, x, y)
            if j is None or not mask >> j & 1:
                return False
    for y in members:
        for x in range(cand.n):
            if _leq(cand, x, y) and not mask >> x & 1:
                return False
    return True


def oracle_ideals(cand) -> list[int]:
    """Filter every non-empty subset; ascending bit patterns."""
    return [m for m in range(1, 1 << cand.n) if oracle_is_ideal_mask(cand, m)]


def oracle_ideal_closure(cand, seed_mask: int) -> int:
    """Intersection of all ideals containing the seed (universe if none)."""
    out = (1 << cand.n) - 1
    for m in oracle_ideals(cand):
        if m & seed_mask == seed_mask:
            out &= m
    return out


def oracle_congruence(cand, ideal_mask: int):
    """(relation masks, equivalence_ok, classes) by the literal definition."""
    n = cand.n
    t = cand.mult_table
    imp = cand.imp_table
    z = cand.zero
    rel = []
    for x in range(n):
        mask = 0
        for y in range(n):
            if (ideal_mask >> t[x][imp[y][z]] & 1
                    and ideal_mask >> t[y][imp[x][z]] & 1):
                mask |= 1 << y
        rel.append(mask)
    equivalence = all(rel[x] >> x & 1 for x in range(n))
    for x in range(n):
        for y in range(n):
            if rel[x] >> y & 1:
                if not rel[y] >> x & 1:
                    equivalence = False
                for w in range(n):
                    if rel[y] >> w & 1 and not rel[x] >> w & 1:
                        equivalence = False
    classes = []
    if equivalence:
        seen = 0
        for x in range(n):
            if not seen >> x & 1:
                classes.append(rel[x])
                seen |= rel[x]
    return rel, equivalence, classes


def oracle_congruence_certificate(cand, ideal_mask: int):
    """(ok, witness) of the literal compatibility scan: quads (x, x', y,
    y') over related pairs, lexicographically, for meet, join, mult and
    imp, then pairs (x, x') for neg.  Assumes the relation is an
    equivalence."""
    n = cand.n
    rel = oracle_congruence(cand, ideal_mask)[0]
    pairs = [(x, x1) for x in range(n) for x1 in range(n) if rel[x] >> x1 & 1]
    ops = (
        ("meet", [[_glb_scan(cand, x, y) for y in range(n)] for x in range(n)]),
        ("join", [[_lub_scan(cand, x, y) for y in range(n)] for x in range(n)]),
        ("mult", cand.mult_table),
        ("imp", cand.imp_table),
    )
    for kind, table in ops:
        for x, x1 in pairs:
            for y, y1 in pairs:
                if not rel[table[x][y]] >> table[x1][y1] & 1:
                    return False, (kind, x, x1, y, y1)
    imp, z = cand.imp_table, cand.zero
    for x, x1 in pairs:
        if not rel[imp[x][z]] >> imp[x1][z] & 1:
            return False, ("neg", x, x1)
    return True, None


# --- derived identities and special ideals ----------------------------------

class _Literal:
    """The operations of a candidate read literally off its fields: the
    order masks, the two tables and zero; meet and join by scanning
    bounds, once per pair (None where there is no unique one)."""

    def __init__(self, cand):
        self.c = cand
        self.n = cand.n
        self.bot, self.zero, self.one = cand.bot, cand.zero, cand.one
        self.top = cand.imp_table[cand.bot][cand.bot]
        pairs = list(product(range(cand.n), repeat=2))
        self.meets = {p: _glb_scan(cand, *p) for p in pairs}
        self.joins = {p: _lub_scan(cand, *p) for p in pairs}

    def leq(self, x, y):
        return _leq(self.c, x, y)

    def meet(self, x, y):
        return self.meets[x, y]

    def join(self, x, y):
        return self.joins[x, y]

    def mult(self, x, y):
        return self.c.mult_table[x][y]

    def imp(self, x, y):
        return self.c.imp_table[x][y]

    def neg(self, x):
        return self.c.imp_table[x][self.zero]


def _implies(guard, claim):
    return not guard or claim()


# tag -> (arity, the law at one point); a guarded law holds where its
# guard fails
ORACLE_IDENTITIES = {
    "P2_1": (3, lambda o, x, y, z:
             o.mult(x, o.join(y, z)) == o.join(o.mult(x, y), o.mult(x, z))),
    "P2_2": (1, lambda o, y: o.leq(y, o.imp(o.bot, o.bot))),
    "P2_3": (2, lambda o, x, y: _implies(
        o.leq(x, o.one) and o.leq(y, o.one), lambda: o.leq(o.mult(x, y), o.meet(x, y)))),
    "P2_4": (2, lambda o, x, y: _implies(
        o.leq(o.one, x) and o.leq(o.one, y), lambda: o.leq(o.join(x, y), o.mult(x, y)))),
    "P2_5": (3, lambda o, x, y, z: o.leq(o.mult(o.imp(x, y), o.imp(y, z)), o.imp(x, z))),
    "P2_6": (1, lambda o, x: o.imp(o.one, x) == x),
    "P2_7": (4, lambda o, x, x1, y, y1: _implies(
        o.leq(x, x1) and o.leq(y, y1),
        lambda: o.leq(o.mult(x, y), o.mult(x1, y1)) and o.leq(o.imp(x1, y), o.imp(x, y1)))),
    "P2_8": (3, lambda o, x, y, z: o.imp(x, o.imp(y, z)) == o.imp(o.mult(x, y), z)),
    "P2_9": (2, lambda o, x, y: o.leq(o.mult(x, o.imp(x, y)), y)),
    "P2_10": (2, lambda o, x, y: _implies(o.leq(x, y), lambda: o.leq(o.neg(y), o.neg(x)))),
    "P2_11": (2, lambda o, x, y: o.join(x, y) == o.neg(o.meet(o.neg(x), o.neg(y)))),
    "P2_12": (2, lambda o, x, y: o.meet(x, y) == o.neg(o.join(o.neg(x), o.neg(y)))),
    "P2_13": (2, lambda o, x, y: o.imp(x, y) == o.neg(o.mult(x, o.neg(y)))),
    "P2_14": (2, lambda o, x, y: o.imp(o.neg(x), y) == o.neg(o.mult(o.neg(x), o.neg(y)))),
    "P2_15": (0, lambda o: o.neg(o.top) == o.bot),
    "P2_16": (0, lambda o: o.mult(o.neg(o.top), o.top) == o.bot),
    "LEMMA_MEET_IMP": (3, lambda o, x, y, z:
                       o.meet(o.imp(z, x), o.imp(z, y)) == o.imp(z, o.meet(x, y))),
}


def oracle_identity(cand, tag):
    """(ok, first failing point) of one identity over all tuples of its
    arity, lexicographically; top is imp(bot, bot).  Needs a lattice
    order (a missing meet or join reads as None)."""
    arity, law = ORACLE_IDENTITIES[tag]
    o = _Literal(cand)
    for point in product(range(cand.n), repeat=arity):
        if not law(o, *point):
            return False, point
    return True, None


def oracle_prime(cand, mask: int):
    """(ok, (x, y, ~(x->y), ~(y->x))) at the first x <= y (by index)
    where neither value lies in `mask`."""
    o = _Literal(cand)
    for x in range(cand.n):
        for y in range(x, cand.n):
            nxy, nyx = o.neg(o.imp(x, y)), o.neg(o.imp(y, x))
            if not (mask >> nxy & 1 or mask >> nyx & 1):
                return False, (x, y, nxy, nyx)
    return True, None


def oracle_distributive_ideal(cand, mask: int):
    """(ok, (x, y, z, w)) at the first triple whose value
    w = ((x|y) & (x|z)) * ~(x | (y&z)) is outside `mask`."""
    o = _Literal(cand)
    for x, y, z in product(range(cand.n), repeat=3):
        w = o.mult(o.meet(o.join(x, y), o.join(x, z)), o.neg(o.join(x, o.meet(y, z))))
        if not mask >> w & 1:
            return False, (x, y, z, w)
    return True, None


def oracle_implicative(cand, mask: int):
    """(ok, (x, y, z, ~(x->z))) at the first triple with ~(x->(y->z))
    and ~(x->y) in `mask` and ~(x->z) outside it."""
    o = _Literal(cand)
    for x, y, z in product(range(cand.n), repeat=3):
        w = o.neg(o.imp(x, z))
        if (mask >> o.neg(o.imp(x, o.imp(y, z))) & 1 and mask >> o.neg(o.imp(x, y)) & 1
                and not mask >> w & 1):
            return False, (x, y, z, w)
    return True, None


# --- naive model enumeration -------------------------------------------------

def oracle_posets_naturally_labeled(n: int):
    """Upper-triangular strict relations that are transitive; as up-masks."""
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    out = []
    for choice in range(1 << len(pairs)):
        rel = [[False] * n for _ in range(n)]
        for k, (i, j) in enumerate(pairs):
            if choice >> k & 1:
                rel[i][j] = True
        ok = True
        for a, b, c in product(range(n), repeat=3):
            if rel[a][b] and rel[b][c] and not rel[a][c]:
                ok = False
                break
        if not ok:
            continue
        up = tuple(
            (1 << i) | sum(1 << j for j in range(n) if rel[i][j]) for i in range(n)
        )
        out.append(up)
    return out


def _down_masks(up: tuple[int, ...]) -> list[int]:
    n = len(up)
    dn = [0] * n
    for x in range(n):
        for y in range(n):
            if up[x] >> y & 1:
                dn[y] |= 1 << x
    return dn


def _up_is_lattice(up: tuple[int, ...]) -> bool:
    n = len(up)
    dn = _down_masks(up)
    for x in range(n):
        for y in range(n):
            lb = dn[x] & dn[y]
            if not any(lb & ~dn[g] == 0 for g in bits_of(lb)):
                return False
            ub = up[x] & up[y]
            if not any(ub & ~up[g] == 0 for g in bits_of(ub)):
                return False
    return True


def orders_isomorphic(up_a: tuple[int, ...], up_b: tuple[int, ...]) -> bool:
    n = len(up_a)
    if len(up_b) != n:
        return False
    for perm in permutations(range(n)):
        if all(
            (up_a[x] >> y & 1) == (up_b[perm[x]] >> perm[y] & 1)
            for x in range(n)
            for y in range(n)
        ):
            return True
    return False


def oracle_lattice_classes(n: int) -> list[tuple[int, ...]]:
    """Isomorphism-class representatives of all n-element lattices."""
    reps: list[tuple[int, ...]] = []
    for up in oracle_posets_naturally_labeled(n):
        if not _up_is_lattice(up):
            continue
        if not any(orders_isomorphic(up, r) for r in reps):
            reps.append(up)
    return reps


def algebras_isomorphic(a, b) -> bool:
    """Brute-force isomorphism over all permutations: order, both tables,
    and the three designated elements must be preserved."""
    n = a.n
    if b.n != n:
        return False
    for perm in permutations(range(n)):
        if perm[a.bot] != b.bot or perm[a.zero] != b.zero or perm[a.one] != b.one:
            continue
        if not all(
            (a.order.up[x] >> y & 1) == (b.order.up[perm[x]] >> perm[y] & 1)
            for x in range(n) for y in range(n)
        ):
            continue
        if not all(
            perm[a.mult_table[x][y]] == b.mult_table[perm[x]][perm[y]]
            for x in range(n) for y in range(n)
        ):
            continue
        if not all(
            perm[a.imp_table[x][y]] == b.imp_table[perm[x]][perm[y]]
            for x in range(n) for y in range(n)
        ):
            continue
        return True
    return False


def _oracle_is_cl_table(up, dn, mult, zero, one, bot_unchecked=None) -> bool:
    """Literal all-axiom test of one complete commutative table (the order
    is assumed to be a lattice already)."""
    n = len(up)
    for x in range(n):
        if mult[one][x] != x:
            return False
    for x, y, z in product(range(n), repeat=3):
        if mult[mult[x][y]][z] != mult[x][mult[y][z]]:
            return False
    # derive the residual literally
    imp = [[None] * n for _ in range(n)]
    for x in range(n):
        for y in range(n):
            s = [z for z in range(n) if dn[y] >> mult[x][z] & 1]
            best = [g for g in s if all(up[z] >> g & 1 for z in s)]
            if not best:
                return False
            imp[x][y] = best[0]
    for x, y, z in product(range(n), repeat=3):
        if (dn[z] >> mult[x][y] & 1) != (dn[imp[y][z]] >> x & 1):
            return False
    for x in range(n):
        if imp[imp[x][zero]][zero] != x:
            return False
    return True


@dataclass(frozen=True)
class PlainOrder:
    up: tuple[int, ...]


@dataclass(frozen=True)
class PlainAlgebra:
    """The fields of an algebra that the oracles read, as plain data."""

    order: PlainOrder
    mult_table: tuple[tuple[int, ...], ...]
    imp_table: tuple[tuple[int, ...], ...]
    bot: int
    zero: int
    one: int

    @property
    def n(self) -> int:
        return len(self.order.up)


def _literal_imp(up, dn, mult):
    """x -> y as the greatest z with x*z <= y, read literally."""
    n = len(up)
    rows = []
    for x in range(n):
        row = []
        for y in range(n):
            s = [z for z in range(n) if dn[y] >> mult[x][z] & 1]
            row.append([g for g in s if all(up[z] >> g & 1 for z in s)][0])
        rows.append(tuple(row))
    return tuple(rows)


def oracle_census(n: int):
    """Naive census: for each lattice class, every (zero, one) placement
    and every commutative table with the unit row fixed, validated
    literally and bucketed by isomorphism.

    Returns (lattice_reps, counts, algebras_per_lattice) where algebras
    are PlainAlgebra records of the class representatives.
    """
    reps = oracle_lattice_classes(n)
    counts = []
    all_found = []
    for up in reps:
        dn = _down_masks(up)
        bot = [x for x in range(n) if up[x] == (1 << n) - 1][0]
        found = []
        cells_base = [(x, y) for x in range(n) for y in range(x, n)]
        for one in range(n):
            cells = [(x, y) for x, y in cells_base if x != one and y != one]
            for zero in range(n):
                for assignment in product(range(n), repeat=len(cells)):
                    mult = [[None] * n for _ in range(n)]
                    for x in range(n):
                        mult[one][x] = mult[x][one] = x
                    for (x, y), v in zip(cells, assignment):
                        mult[x][y] = mult[y][x] = v
                    if not _oracle_is_cl_table(up, dn, mult, zero, one):
                        continue
                    cand = PlainAlgebra(
                        order=PlainOrder(tuple(up)),
                        mult_table=tuple(tuple(r) for r in mult),
                        imp_table=_literal_imp(up, dn, mult),
                        bot=bot, zero=zero, one=one,
                    )
                    if not any(algebras_isomorphic(cand, other) for other in found):
                        found.append(cand)
        counts.append(len(found))
        all_found.append(found)
    return reps, counts, all_found


def oracle_order_maps(up: tuple[int, ...], reverse: bool) -> list[tuple[int, ...]]:
    """Every permutation p, in lexicographic order, with x <= y iff
    p(x) <= p(y), or iff p(y) <= p(x) when `reverse`."""
    n = len(up)
    return [p for p in permutations(range(n))
            if all((up[x] >> y & 1) == (up[p[y]] >> p[x] & 1 if reverse else up[p[x]] >> p[y] & 1)
                   for x in range(n) for y in range(n))]


def oracle_fusion_tables(up: tuple[int, ...], one: int) -> list[tuple[tuple[int, ...], ...]]:
    """Every finished commutative fusion table on one labeled lattice
    with the given unit, in the order a backtracking search finds them:
    unit row fixed, bottom row bottom, the cells (x, y), x <= y, outside
    those rows filled in turn with the values 0, 1, ..., pruned by
    monotonicity, partial associativity and partial join-distribution.
    """
    n = len(up)
    bot = [x for x in range(n) if up[x] == (1 << n) - 1][0]
    join = [[[g for g in bits_of(up[x] & up[y]) if up[x] & up[y] & ~up[g] == 0][0]
             for y in range(n)] for x in range(n)]
    tab = [[None] * n for _ in range(n)]
    for x in range(n):
        tab[bot][x] = tab[x][bot] = bot
        tab[one][x] = tab[x][one] = x
    cells = [(x, y) for x in range(n) for y in range(x, n)
             if tab[x][y] is None]
    tables = []

    def monotone(x, y, v):
        for p, q in product(range(n), repeat=2):
            w = tab[p][q]
            if w is None:
                continue
            if up[p] >> x & 1 and up[q] >> y & 1 and not up[w] >> v & 1:
                return False
            if up[x] >> p & 1 and up[y] >> q & 1 and not up[v] >> w & 1:
                return False
        return True

    def consistent():
        for p in range(n):
            row = tab[p]
            for q in range(n):
                pq = row[q]
                if pq is None:
                    continue
                for r in range(n):
                    qr, pr = tab[q][r], row[r]
                    if qr is not None and None not in (tab[pq][r], row[qr]) \
                            and tab[pq][r] != row[qr]:
                        return False  # (p*q)*r != p*(q*r)
                    pj = row[join[q][r]]
                    if pr is not None and pj is not None and pj != join[pq][pr]:
                        return False  # p*(q v r) != p*q v p*r
        return True

    def dfs(k):
        if k == len(cells):
            tables.append(tuple(tuple(row) for row in tab))
            return
        x, y = cells[k]
        for v in range(n):
            if monotone(x, y, v):
                tab[x][y] = tab[y][x] = v
                if consistent():
                    dfs(k + 1)
                tab[x][y] = tab[y][x] = None

    dfs(0)
    return tables


def oracle_dfs_count(up: tuple[int, ...]) -> int:
    """Isomorphism classes of CL-algebras on one labeled lattice, by a
    second enumerator that shares no code with the package's search.

    Per unit, `oracle_fusion_tables` lists the finished tables.  Every
    one is tried against every zero with the literal all-axiom test, and
    the survivors are keyed by their least encoding over the lattice's
    automorphisms (an isomorphism between two algebras on one labeled
    lattice is one of them), found by scanning all permutations.
    """
    n = len(up)
    dn = _down_masks(up)
    bot = [x for x in range(n) if up[x] == (1 << n) - 1][0]
    autos = oracle_order_maps(up, reverse=False)
    keys = set()
    for one in range(n):
        if n > 1 and one == bot:
            continue
        for mult in oracle_fusion_tables(up, one):
            imp = _literal_imp(up, dn, mult)
            for zero in range(n):
                if any(imp[imp[x][zero]][zero] != x for x in range(n)):
                    continue  # cheap involution filter before the literal test
                if not _oracle_is_cl_table(up, dn, mult, zero, one):
                    continue
                keys.add(min(
                    (p[zero], p[one], tuple(p[mult[x][y]] for x in inv for y in inv))
                    for p in autos
                    for inv in [sorted(range(n), key=p.__getitem__)]))
    return len(keys)
