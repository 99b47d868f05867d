"""Checks computed apart from the program under test.

Everything here works on a plain `Raw` record (names, cover edges, an
explicit order matrix, the fusion and implication tables and the three
designated elements) and expands every quantifier literally.  Nothing
from `clalg.validator`, `clalg.ideals` or `clalg.replay` is used; the
only contact with the package is reading the fields of objects it
returns, in `raw_from_candidate`.

Axiom witnesses follow the scan order documented in the validator's
module docstring, so the first witness found here must equal the one
the program reports.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property
from itertools import permutations, product

Table = tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class Raw:
    """An algebra file's content: exactly what the `.cla` text says."""

    name: str
    names: tuple[str, ...]
    covers: tuple[tuple[int, int], ...]
    mult: Table
    imp: Table | None
    bot: int
    zero: int
    one: int

    @property
    def n(self) -> int:
        return len(self.names)

    @cached_property
    def leq(self) -> tuple[tuple[bool, ...], ...]:
        """leq[x][y] iff x <= y in the closure of the cover edges."""
        return closure(self.n, self.covers)


def closure(n: int, covers) -> tuple[tuple[bool, ...], ...]:
    """Reflexive-transitive closure of an edge list (Warshall)."""
    rel = [[x == y for y in range(n)] for x in range(n)]
    for lo, hi in covers:
        rel[lo][hi] = True
    for k in range(n):
        for i in range(n):
            if rel[i][k]:
                ri, rk = rel[i], rel[k]
                for j in range(n):
                    if rk[j]:
                        ri[j] = True
    return tuple(tuple(r) for r in rel)


def hasse(leq) -> tuple[tuple[int, int], ...]:
    """Covering pairs of a partial order, sorted."""
    n = len(leq)
    out = []
    for x in range(n):
        for y in range(n):
            if x == y or not leq[x][y]:
                continue
            if not any(z not in (x, y) and leq[x][z] and leq[z][y] for z in range(n)):
                out.append((x, y))
    return tuple(out)


def is_antisymmetric(leq) -> bool:
    n = len(leq)
    return not any(leq[x][y] and leq[y][x] for x in range(n) for y in range(x + 1, n))


def raw_from_candidate(cand) -> Raw:
    """Read an `AlgebraCandidate`'s fields into a `Raw`, covers as Hasse edges."""
    n = len(cand.elements)
    leq = tuple(tuple(bool(cand.order.up[x] >> y & 1) for y in range(n)) for x in range(n))
    raw = Raw(cand.name, tuple(cand.elements), hasse(leq), tuple(map(tuple, cand.mult_table)),
              None if cand.imp_table is None else tuple(map(tuple, cand.imp_table)),
              cand.bot, cand.zero, cand.one)
    if raw.leq != leq:
        raise ValueError(f"{cand.name}: order is not the closure of its Hasse edges")
    return raw


# ---------------------------------------------------------------- text

def to_text(raw: Raw) -> str:
    """The `.cla` text of `raw`, cover lines exactly as stored."""
    nm = raw.names
    out = [f"algebra {raw.name}", "elements: " + " ".join(nm),
           f"bot: {nm[raw.bot]}", f"zero: {nm[raw.zero]}", f"one: {nm[raw.one]}"]
    out += [f"cover: {nm[lo]} {nm[hi]}" for lo, hi in raw.covers]
    out.append("mult:")
    out += [" ".join(nm[v] for v in row) for row in raw.mult]
    if raw.imp is not None:
        out.append("imp:")
        out += [" ".join(nm[v] for v in row) for row in raw.imp]
    out.append("end")
    return "\n".join(out) + "\n"


def from_text(text: str) -> Raw:
    """Read a well-formed `.cla` text (the files this benchmark writes)."""
    lines = [ln.split("#", 1)[0].strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln]
    name = lines[0].split()[1]
    names = tuple(lines[1].split(":", 1)[1].split())
    idx = {nm: i for i, nm in enumerate(names)}
    bot, zero, one = (idx[lines[k].split(":", 1)[1].strip()] for k in (2, 3, 4))
    pos = 5
    covers = []
    while lines[pos].startswith("cover:"):
        lo, hi = lines[pos].split(":", 1)[1].split()
        covers.append((idx[lo], idx[hi]))
        pos += 1
    n = len(names)

    def table(at):
        return tuple(tuple(idx[c] for c in lines[at + 1 + r].split()) for r in range(n))

    mult = table(pos)
    pos += n + 1
    imp = None
    if lines[pos] == "imp:":
        imp = table(pos)
        pos += n + 1
    if lines[pos] != "end":
        raise ValueError(f"unexpected line {lines[pos]!r}")
    return Raw(name, names, tuple(covers), mult, imp, bot, zero, one)


# ---------------------------------------------------------------- lattice ops

def _least(leq, members):
    for g in members:
        if all(leq[g][h] for h in members):
            return g
    return None


def _greatest(leq, members):
    for g in members:
        if all(leq[h][g] for h in members):
            return g
    return None


def _minimal(leq, members):
    return tuple(m for m in members if not any(h != m and leq[h][m] for h in members))


def _maximal(leq, members):
    return tuple(m for m in members if not any(h != m and leq[m][h] for h in members))


def join(leq, x, y):
    n = len(leq)
    return _least(leq, [g for g in range(n) if leq[x][g] and leq[y][g]])


def meet(leq, x, y):
    n = len(leq)
    return _greatest(leq, [g for g in range(n) if leq[g][x] and leq[g][y]])


# ---------------------------------------------------------------- axioms

def derive_imp(raw: Raw):
    """(table, None) or (None, no-residual witness), scanning (x, y) lexicographically."""
    leq, t, n = raw.leq, raw.mult, raw.n
    rows = []
    for x in range(n):
        row = []
        for y in range(n):
            s = [z for z in range(n) if leq[t[x][z]][y]]
            g = _greatest(leq, s)
            if g is None:
                return None, ("no_residual", x, y, _maximal(leq, s))
            row.append(g)
        rows.append(tuple(row))
    return tuple(rows), None


def lattice_witness(raw: Raw):
    leq, n = raw.leq, raw.n
    for x in range(n):
        if not leq[x][x]:
            return ("reflexivity", x)
    for x in range(n):
        for y in range(x + 1, n):
            if leq[x][y] and leq[y][x]:
                return ("antisymmetry", x, y)
    for x, y, z in product(range(n), repeat=3):
        if leq[x][y] and leq[y][z] and not leq[x][z]:
            return ("transitivity", x, y, z)
    for x in range(n):
        for y in range(x, n):
            ub = [g for g in range(n) if leq[x][g] and leq[y][g]]
            if _least(leq, ub) is None:
                return ("no_join", x, y, _minimal(leq, ub))
    for x in range(n):
        for y in range(x, n):
            lb = [g for g in range(n) if leq[g][x] and leq[g][y]]
            if _greatest(leq, lb) is None:
                return ("no_meet", x, y, _maximal(leq, lb))
    for x in range(n):
        if not leq[raw.bot][x]:
            return ("bot_not_least", x)
    return None


def monoid_witness(raw: Raw):
    t, n, e = raw.mult, raw.n, raw.one
    for x in range(n):
        for y in range(x + 1, n):
            if t[x][y] != t[y][x]:
                return ("commutativity", x, y)
    for x in range(n):
        if t[e][x] != x or t[x][e] != x:
            return ("unit", x)
    for x, y, z in product(range(n), repeat=3):
        if t[t[x][y]][z] != t[x][t[y][z]]:
            return ("associativity", x, y, z)
    return None


def axiom_verdicts(raw: Raw) -> list[tuple[str, str, tuple | None]]:
    """[(law, status, witness)] for lattice, monoid, residuation, involution."""
    out = []
    for law, w in (("lattice", lattice_witness(raw)), ("monoid", monoid_witness(raw))):
        out.append((law, "pass" if w is None else "fail", w))
    imp = raw.imp
    if imp is None:
        imp, w = derive_imp(raw)
        if imp is None:
            out.append(("residuation", "fail", w))
            out.append(("involution", "skipped", None))
            return out
    leq, t, n = raw.leq, raw.mult, raw.n
    w = next((("adjunction", x, y, z) for x, y, z in product(range(n), repeat=3)
              if leq[t[x][y]][z] != leq[x][imp[y][z]]), None)
    out.append(("residuation", "pass" if w is None else "fail", w))
    w = next((("involution", x) for x in range(n) if imp[imp[x][raw.zero]][raw.zero] != x), None)
    out.append(("involution", "pass" if w is None else "fail", w))
    return out


def is_cl_algebra(raw: Raw) -> bool:
    return all(status == "pass" for _law, status, _w in axiom_verdicts(raw))


def with_imp(raw: Raw) -> Raw:
    """`raw` with its implication table, derived by residuation when absent."""
    if raw.imp is not None:
        return raw
    imp, w = derive_imp(raw)
    if imp is None:
        raise ValueError(f"{raw.name}: no residual at {w}")
    return replace(raw, imp=imp)


# ---------------------------------------------------------------- ideals

def _neg(raw: Raw, x: int) -> int:
    return raw.imp[x][raw.zero]


def ideals(raw: Raw) -> list[int]:
    """Every ideal of a CL-algebra as a bit mask, by testing all 2^n subsets."""
    leq, t, n = raw.leq, raw.mult, raw.n
    neg = [_neg(raw, x) for x in range(n)]
    joins = [[join(leq, x, y) for y in range(n)] for x in range(n)]
    found = []
    for mask in range(1 << n):
        if not mask >> raw.zero & 1:
            continue
        mem = [x for x in range(n) if mask >> x & 1]
        if any(not mask >> neg[t[neg[x]][neg[y]]] & 1 or not mask >> joins[x][y] & 1
               for x in mem for y in mem):
            continue
        if any(leq[x][y] and not mask >> x & 1 for y in mem for x in range(n)):
            continue
        found.append(mask)
    return found


def congruence_classes(raw: Raw, ideal: int) -> list[int]:
    """Classes of x ~ y iff x*~y and y*~x lie in the ideal, as bit masks by least member."""
    t, n = raw.mult, raw.n
    neg = [_neg(raw, x) for x in range(n)]
    rel = [sum(1 << y for y in range(n)
               if ideal >> t[x][neg[y]] & 1 and ideal >> t[y][neg[x]] & 1) for x in range(n)]
    classes = []
    for x in range(n):
        if not any(c >> x & 1 for c in classes):
            classes.append(rel[x])
    return classes


def homomorphism_witness(base: Raw, quotient: Raw, proj) -> tuple | None:
    """First (op, x, y) where projecting does not commute with meet, join, mult, imp or neg."""
    bl, ql, n = base.leq, quotient.leq, base.n
    ops = (
        ("meet", lambda r, l, x, y: meet(l, x, y)),
        ("join", lambda r, l, x, y: join(l, x, y)),
        ("mult", lambda r, l, x, y: r.mult[x][y]),
        ("imp", lambda r, l, x, y: r.imp[x][y]),
        ("neg", lambda r, l, x, y: _neg(r, x)),
    )
    for tag, op in ops:
        for x, y in product(range(n), repeat=2):
            if proj[op(base, bl, x, y)] != op(quotient, ql, proj[x], proj[y]):
                return (tag, x, y)
    return None


# ---------------------------------------------------------------- isomorphism

def _fixed_maps(a: Raw, b: Raw):
    """Bijections a -> b that send bot, zero and one to their counterparts."""
    fixed = {}
    for u, v in ((a.bot, b.bot), (a.zero, b.zero), (a.one, b.one)):
        if fixed.setdefault(u, v) != v:
            return
    if len(set(fixed.values())) != len(fixed):
        return
    free_a = [x for x in range(a.n) if x not in fixed]
    free_b = [y for y in range(b.n) if y not in fixed.values()]
    for image in permutations(free_b):
        p = [0] * a.n
        for u, v in fixed.items():
            p[u] = v
        for u, v in zip(free_a, image):
            p[u] = v
        yield p


def isomorphic(a: Raw, b: Raw) -> bool:
    """True iff some bijection preserves order, fusion, implication, bot, zero and one."""
    if a.n != b.n:
        return False
    n = a.n
    al, bl, at, bt = a.leq, b.leq, a.mult, b.mult
    ai, bi = with_imp(a).imp, with_imp(b).imp
    for p in _fixed_maps(a, b):
        if all(al[x][y] == bl[p[x]][p[y]] and p[at[x][y]] == bt[p[x]][p[y]]
               and p[ai[x][y]] == bi[p[x]][p[y]] for x in range(n) for y in range(n)):
            return True
    return False


def encode(raw: Raw, pi) -> tuple:
    """Encoding of `raw` relabelled so that new index i is old element pi[i]."""
    n = raw.n
    pos = [0] * n
    for new, old in enumerate(pi):
        pos[old] = new
    leq, t, imp = raw.leq, raw.mult, raw.imp
    return (
        tuple(leq[pi[x]][pi[y]] for x in range(n) for y in range(n)),
        pos[raw.bot], pos[raw.zero], pos[raw.one],
        tuple(pos[t[pi[x]][pi[y]]] for x in range(n) for y in range(n)),
        tuple(pos[imp[pi[x]][pi[y]]] for x in range(n) for y in range(n)),
    )


def canonical(raw: Raw) -> tuple[tuple, tuple[int, ...]]:
    """(least encoding, relabelling giving it) over every relabelling of
    `raw`; isomorphic algebras have the same least encoding."""
    raw = with_imp(raw)
    return min((encode(raw, p), p) for p in permutations(range(raw.n)))


def relabel(raw: Raw, pi, names: tuple[str, ...]) -> Raw:
    """`raw` with new index i holding old element pi[i], named names[i];
    covers become Hasse edges."""
    n = raw.n
    pos = [0] * n
    for new, old in enumerate(pi):
        pos[old] = new
    leq = raw.leq
    new_leq = tuple(tuple(leq[pi[x]][pi[y]] for y in range(n)) for x in range(n))

    def table(tab):
        if tab is None:
            return None
        return tuple(tuple(pos[tab[pi[x]][pi[y]]] for y in range(n)) for x in range(n))

    return Raw(raw.name, names, hasse(new_leq), table(raw.mult), table(raw.imp),
               pos[raw.bot], pos[raw.zero], pos[raw.one])


# ---------------------------------------------------------------- small census

def _labelled_lattices(n: int):
    """Every lattice order on 0..n-1, by trying every relation."""
    pairs = [(x, y) for x in range(n) for y in range(n) if x != y]
    for bits in range(1 << len(pairs)):
        covers = [p for i, p in enumerate(pairs) if bits >> i & 1]
        leq = [[x == y for y in range(n)] for x in range(n)]
        for x, y in covers:
            leq[x][y] = True
        if any(leq[x][y] and leq[y][z] and not leq[x][z]
               for x, y, z in product(range(n), repeat=3)):
            continue
        if not is_antisymmetric(leq):
            continue
        if all(join(leq, x, y) is not None and meet(leq, x, y) is not None
               for x in range(n) for y in range(n)):
            yield tuple(map(tuple, leq))


def brute_force_census(n: int) -> int:
    """Number of CL-algebras of size n up to isomorphism, with no pruning
    beyond two consequences of the axioms: `one` is the fusion unit and
    bot is absorbing (x*bot <= z for all z by residuation)."""
    lattice_keys = {}
    for leq in _labelled_lattices(n):
        key = min(tuple(leq[p[x]][p[y]] for x in range(n) for y in range(n))
                  for p in permutations(range(n)))
        lattice_keys.setdefault(key, leq)
    found = set()
    for leq in lattice_keys.values():
        covers = hasse(leq)
        bot = next(x for x in range(n) if all(leq[x]))
        for zero, one in product(range(n), repeat=2):
            if one == bot:
                continue
            free = [x for x in range(n) if x not in (bot, one)]
            cells = [(x, y) for i, x in enumerate(free) for y in free[i:]]
            for values in product(range(n), repeat=len(cells)):
                t = [[None] * n for _ in range(n)]
                for x in range(n):
                    t[bot][x] = t[x][bot] = bot
                    t[one][x] = t[x][one] = x
                for (x, y), v in zip(cells, values):
                    t[x][y] = t[y][x] = v
                raw = Raw("c", tuple(f"e{i}" for i in range(n)), covers,
                          tuple(map(tuple, t)), None, bot, zero, one)
                imp, _w = derive_imp(raw)
                if imp is None:
                    continue
                raw = replace(raw, imp=imp)
                if is_cl_algebra(raw):
                    found.add(canonical(raw)[0])
    return len(found)
