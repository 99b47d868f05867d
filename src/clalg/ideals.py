"""Ideals of a finite CL-algebra: recognition, generation, enumeration,
and the special-ideal classifications.

An ideal is a subset that contains zero, is closed under the derived
addition x+y = ~(~x * ~y) and under binary join, and is downward closed.
Recognition scans the three conditions in that order and reports the
lexicographically first violation.

All operations here only need total tables and a lattice order; they
deliberately accept unvalidated candidates so that defective printed
table sets can still be analysed and reported on (classification flags
are only meaningful theorems on sealed algebras).  `Subset` validates
its bits, and `Ideal` is a `Subset` whose conditions were verified, so
both are dataclasses; `IdealClassification` is a NamedTuple, cheaper to
build at import.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations_with_replacement
from operator import getitem
from typing import NamedTuple

from .core import AlgebraCandidate, AlgebraError, iter_bits, memoised
from .laws import Law, Verdict, cube, first_violation, translation


class EmptySubset(AlgebraError):
    pass


class ZeroMissing(AlgebraError):
    pass


class NotAnIdeal(AlgebraError):
    def __init__(self, verdict: Verdict):
        self.verdict = verdict
        super().__init__(f"not an ideal: {verdict.witness}")


@dataclass(frozen=True)
class Subset:
    """A subset of an n-element universe as a bit mask."""

    n: int
    bits: int

    def __post_init__(self):
        if self.bits >> self.n:
            raise ValueError("subset has bits beyond the universe")

    @classmethod
    def from_names(cls, alg: AlgebraCandidate, names) -> "Subset":
        """From a comma-separated string or iterable of names."""
        if isinstance(names, str):
            names = [t for t in names.split(",") if t]
        bits = 0
        for nm in names:
            bits |= 1 << alg.index(nm)
        return cls(alg.n, bits)

    @classmethod
    def universe(cls, n: int) -> "Subset":
        return cls(n, (1 << n) - 1)

    def __contains__(self, i: int) -> bool:
        return bool(self.bits >> i & 1)

    def __iter__(self):
        return iter_bits(self.bits)

    def __len__(self) -> int:
        return self.bits.bit_count()

    @property
    def is_empty(self) -> bool:
        return self.bits == 0

    def members(self) -> tuple[int, ...]:
        return tuple(iter_bits(self.bits))

    def render(self, alg: AlgebraCandidate) -> str:
        return "{" + ",".join(alg.elements[i] for i in iter_bits(self.bits)) + "}"


@dataclass(frozen=True)
class Ideal(Subset):
    """A subset whose three ideal conditions have been verified."""


class IdealClassification(NamedTuple):
    is_prime: bool
    is_distributive: bool
    is_implicative: bool
    is_affine: bool
    is_zero_downset: bool


_CLOSURE = {"plus_not_closed": "plus", "join_not_closed": "join"}


def _member_pairs(c):
    """Member pairs x <= y, each tried under plus and then join."""
    pairs = combinations_with_replacement(iter_bits(c[1]), 2)
    return ((kind, x, y) for x, y in pairs for kind in _CLOSURE)


def _not_closed(c, kind, x, y):
    """The sum or join outside the members, for members x <= y by index
    and a kind `_CLOSURE` declares."""
    alg, bits = c
    if kind not in _CLOSURE or x > y or not bits >> x & bits >> y & 1:
        return None
    v = getattr(alg, _CLOSURE[kind])(x, y)
    return None if bits >> v & 1 else (v,)


def _not_down_closed(c, x, y):
    alg, bits = c
    return () if alg.leq(x, y) and bits >> y & 1 and not bits >> x & 1 else None


# the closure scan's whole-table test (laws.Law.holds), built and read like
# the value tables of the prime, distributive and implicative ideals below
@memoised
def _sums(alg: AlgebraCandidate) -> tuple[tuple[int, ...], ...]:
    """sums[x][v]: the mask of the y >= x (by index) with x+y == v or
    x|y == v, the member pairs the closure scan reads."""
    n, negs, mult = alg.n, alg.negs, alg.mult_table
    sums = []
    for x, lub in enumerate(alg.order.lubs):
        row, times_nx = [0] * n, mult[negs[x]]  # x+y = ~(~x * ~y)
        for y in range(x, n):
            row[negs[times_nx[negs[y]]]] |= 1 << y
            row[lub[y]] |= 1 << y
        sums.append(tuple(row))
    return tuple(sums)


def _closed_holds(c) -> bool:
    """No member x has a member y >= x summing or joining to an outsider;
    run only where `lattice_with_imp` holds (laws.Law.holds)."""
    alg, bits = c
    if not alg.lattice_with_imp:
        return False
    sums, outside = _sums(alg), tuple(iter_bits(~bits & (1 << alg.n) - 1))
    return not any(sums[x][v] & bits for x in iter_bits(bits) for v in outside)


def _down_closed(c) -> bool:
    """dn[y] lies inside the members for every member y."""
    alg, bits = c
    dn = alg.order.dn
    return not any(dn[y] & ~bits for y in iter_bits(bits))


# read on (algebra, member bits); the closure kind is the first
# coordinate of its point
_CLOSED = Law(None, _member_pairs, _not_closed, holds=_closed_holds)
IDEAL = (
    Law("zero_missing", lambda c: ((c[0].zero,),),
        lambda c, z: None if z != c[0].zero or c[1] >> z & 1 else (),
        holds=lambda c: bool(c[1] >> c[0].zero & 1)),
    _CLOSED,
    Law("not_down_closed", lambda c: cube(2)(c[0]), _not_down_closed, holds=_down_closed),
)


def is_ideal(alg: AlgebraCandidate, s: Subset) -> Verdict:
    """Check the three ideal conditions on a non-empty subset.

    Witness kinds: zero_missing(zero); plus_not_closed(x, y, value) and
    join_not_closed(x, y, value) over member pairs x <= y; then
    not_down_closed(x, y) for the first x <= y with y in, x out.
    """
    if s.is_empty:
        raise EmptySubset("an ideal must be non-empty")
    return first_violation("ideal", IDEAL, (alg, s.bits))


def certify_ideal(alg: AlgebraCandidate, s: Subset) -> Ideal:
    verdict = is_ideal(alg, s)
    if not verdict:
        raise NotAnIdeal(verdict)
    return Ideal(s.n, s.bits)


def generated_ideal(alg: AlgebraCandidate, s: Subset) -> Ideal:
    """Least ideal containing s: add zero, then close downward and under
    plus and join until a fixed point (the universe is finite)."""
    dn = alg.order.dn
    bits = s.bits | 1 << alg.zero
    while True:
        grown = bits
        for y in iter_bits(bits):
            grown |= dn[y]
        mem = tuple(iter_bits(grown))
        for i, x in enumerate(mem):
            for y in mem[i:]:
                grown |= 1 << alg.plus(x, y)
                grown |= 1 << alg.join(x, y)
        if grown == bits:
            return certify_ideal(alg, Subset(alg.n, bits))
        bits = grown


def _down_sets(alg: AlgebraCandidate) -> list[int]:
    """All downward-closed subsets, via include/exclude DFS along a
    linear extension (so down-closure prunes instead of filtering)."""
    dn = alg.order.dn
    ext = sorted(range(alg.n), key=lambda i: (dn[i].bit_count(), i))
    out: list[int] = []

    def rec(pos: int, included: int) -> None:
        if pos == len(ext):
            out.append(included)
            return
        e = ext[pos]
        rec(pos + 1, included)
        if dn[e] & ~included == 1 << e:
            rec(pos + 1, included | 1 << e)

    rec(0, 0)
    return out


def all_ideals(alg: AlgebraCandidate) -> list[Ideal]:
    """Every ideal, in ascending bit-pattern order.

    Enumerates down-sets of the order and keeps those containing zero
    that are closed under plus and join.
    """
    zero_bit = 1 << alg.zero
    found = []
    for bits in _down_sets(alg):
        if not bits & zero_bit:
            continue
        if _passes("ideal", (_CLOSED,), (alg, bits)):
            found.append(Ideal(alg.n, bits))
    found.sort(key=lambda ideal: ideal.bits)
    return found


def zero_downset(alg: AlgebraCandidate) -> Ideal:
    """The ideal {x : x <= zero}; certification failing here means the
    order or tables are inconsistent, so NotAnIdeal propagates."""
    return certify_ideal(alg, Subset(alg.n, alg.order.dn[alg.zero]))


def _prime(c, x, y):
    alg, bits = c
    nxy = alg.neg(alg.imp(x, y))
    nyx = alg.neg(alg.imp(y, x))
    return (nxy, nyx) if not (bits >> nxy & 1 or bits >> nyx & 1) else None


def _distributive(c, x, y, z):
    alg, bits = c
    lhs = alg.meet(alg.join(x, y), alg.join(x, z))
    w = alg.mult(lhs, alg.neg(alg.join(x, alg.meet(y, z))))
    return None if bits >> w & 1 else (w,)


def _implicative(c, x, y, z):
    alg, bits = c
    if not bits >> alg.neg(alg.imp(x, alg.imp(y, z))) & 1:
        return None
    if not bits >> alg.neg(alg.imp(x, y)) & 1:
        return None
    w = alg.neg(alg.imp(x, z))
    return None if bits >> w & 1 else (w,)


# the exact whole-table tests of the laws below (laws.Law.holds), run only
# where `lattice_with_imp` holds.  Each reads a table of the values its
# law needs, built once per algebra (core.memoised) from byte planes
# (laws module docstring) as bit masks, so a test is a few mask lookups
# per ideal.  Where `lattice_with_imp` holds each table covers exactly
# the points its scan reads, so a test is exact both ways there and
# `classify` reads it alone as the flag (`_passes`); the verdicts below
# scan only behind a failing test, for the witness

@memoised
def _prime_partners(alg: AlgebraCandidate) -> tuple[int, ...]:
    """partners[a]: the mask of ~(y->x) over the pairs with ~(x->y) == a."""
    n = alg.n
    negated = b"".join(map(bytes, alg.imp_table)).translate(translation(alg.negs))
    partners = [0] * n
    # negated[x::n] is the column x: ~(y->x) over y
    for a, b in set(zip(negated, b"".join(negated[x::n] for x in range(n)))):
        partners[a] |= 1 << b
    return tuple(partners)


def _prime_holds(c) -> bool:
    alg, bits = c
    return alg.lattice_with_imp and not any(
        p & ~bits for a, p in enumerate(_prime_partners(alg)) if not bits >> a & 1)


@memoised
def _distributive_values(alg: AlgebraCandidate) -> int:
    """The mask of every value of ((x|y) & (x|z)) * ~(x | (y&z))."""
    meets, mult = tuple(map(bytes, alg.order.glbs)), alg.mult_table
    flat, through, negs = b"".join(meets), tuple(map(translation, meets)), translation(alg.negs)
    values = set()
    for row in map(bytes, alg.order.lubs):  # row[z] = x|z
        lhs = b"".join(row.translate(through[v]) for v in row)  # v = x|y
        values.update(map(getitem, map(mult.__getitem__, lhs),
                          flat.translate(translation(row.translate(negs)))))
    return sum(1 << v for v in values)


def _distributive_holds(c) -> bool:
    alg, bits = c
    return alg.lattice_with_imp and not _distributive_values(alg) & ~bits


@memoised
def _implicative_values(alg: AlgebraCandidate) -> tuple[tuple[int, ...], ...]:
    """values[a][b]: the mask of ~(x->z) over the triples with
    ~(x->(y->z)) == a and ~(x->y) == b."""
    n, negs = alg.n, translation(alg.negs)
    imp = tuple(map(bytes, alg.imp_table))
    flat, ys = b"".join(imp), b"".join(bytes((y,)) * n for y in range(n))  # ys[y*n+z] = y
    triples = set()
    for row in imp:  # row[z] = x->z
        detached = row.translate(negs)  # ~(x->z)
        through = translation(detached)
        triples.update(zip(flat.translate(through), ys.translate(through), detached * n))
    values = [[0] * n for _ in range(n)]
    for a, b, w in triples:
        values[a][b] |= 1 << w
    return tuple(map(tuple, values))


def _implicative_holds(c) -> bool:
    alg, bits = c
    if not alg.lattice_with_imp:
        return False
    if bits == (1 << alg.n) - 1:
        return True  # every ~(x->z) is a member
    values, members = _implicative_values(alg), tuple(iter_bits(bits))
    return not any(values[a][b] & ~bits for a in members for b in members)


# read on (algebra, ideal bits); witnesses carry the point and the
# computed values that miss the ideal
PRIME = (Law(None, lambda c: cube(2)(c[0]), _prime, holds=_prime_holds),)
DISTRIBUTIVE_IDEAL = (Law(None, lambda c: cube(3)(c[0]), _distributive, holds=_distributive_holds),)
IMPLICATIVE = (Law(None, lambda c: cube(3)(c[0]), _implicative, holds=_implicative_holds),)


def is_prime(alg: AlgebraCandidate, ideal: Ideal) -> Verdict:
    """For every pair, ~(x->y) or ~(y->x) must land in the ideal.

    The witness carries the first failing pair together with both
    computed values, (x, y, ~(x->y), ~(y->x)).  All pairs are scanned;
    the law is symmetric in (x, y), so that pair has x <= y by index.
    """
    return first_violation("prime", PRIME, (alg, ideal.bits))


def is_distributive_ideal(alg: AlgebraCandidate, ideal: Ideal) -> Verdict:
    """((x|y) & (x|z)) * ~(x | (y&z)) must land in the ideal, all triples."""
    return first_violation("distributive_ideal", DISTRIBUTIVE_IDEAL, (alg, ideal.bits))


def _with_zero(alg: AlgebraCandidate, s: Subset) -> tuple:
    """The implicative law's context; raises ZeroMissing without zero."""
    if alg.zero not in s:
        raise ZeroMissing("an implicative ideal must contain zero")
    return (alg, s.bits)


def is_implicative(alg: AlgebraCandidate, s: Subset) -> Verdict:
    """Detachment on negated implications, over a zero-containing subset.

    Stated for subsets, not only certified ideals, matching the two-part
    definition; callers wanting ideal-hood check that separately.
    """
    return first_violation("implicative", IMPLICATIVE, _with_zero(alg, s))


def is_affine(alg: AlgebraCandidate, ideal: Ideal) -> bool:
    return alg.mult(alg.derived_top(), alg.zero) in ideal


def _passes(law: str, entries: tuple[Law, ...], ctx) -> bool:
    """Whether `law` holds, without its witness: where `lattice_with_imp`
    holds, the entries' whole-table tests, exact both ways there (laws
    module docstring); elsewhere the scan, raising what it raises."""
    if ctx[0].lattice_with_imp:
        return all(entry.holds(ctx) for entry in entries)
    return first_violation(law, entries, ctx).ok


@memoised
def classify(alg: AlgebraCandidate, ideal: Ideal) -> IdealClassification:
    """The flags alone, each as its verdict's truth (`_passes`)."""
    ctx = (alg, ideal.bits)
    return IdealClassification(
        is_prime=_passes("prime", PRIME, ctx),
        is_distributive=_passes("distributive_ideal", DISTRIBUTIVE_IDEAL, ctx),
        is_implicative=_passes("implicative", IMPLICATIVE, _with_zero(alg, ideal)),
        is_affine=is_affine(alg, ideal),
        is_zero_downset=ideal.bits == alg.order.dn[alg.zero],
    )


def _context(alg, ideal_bits):
    return (alg, ideal_bits)


# law -> (context from the algebra and the ideal bits; entries)
LAWS = {
    "ideal": (_context, IDEAL),
    "prime": (_context, PRIME),
    "distributive_ideal": (_context, DISTRIBUTIVE_IDEAL),
    "implicative": (_context, IMPLICATIVE),
}
