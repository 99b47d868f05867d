"""Carriers for finite CL-algebra candidates.

A candidate bundles a finite universe with a partial order, a fusion
table, an optional implication table, and designated elements bot, zero
and one.  Nothing here assumes the axioms hold or runs a law: a candidate
may be an arbitrary (even inconsistent) table set, and the validator
module is the only place that decides whether it is an actual CL-algebra.

Universe elements are dense indices 0..n-1; display names are kept
alongside for parsing and reporting.  Subsets of the universe and order
rows are bit masks, which caps the universe at MAX_UNIVERSE elements so
every subset fits in one machine word.  `iter_bits` reads the members
of a mask below 256 from a table of bit tuples built at import, so the
masks of a universe of up to 8 elements are walked at C speed.  Values
derived from an immutable instance are cached on it by `cached_value`,
which takes no lock: they are pure, so threads that race on a first
read compute equal values.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from functools import reduce, wraps
from operator import getitem
from typing import Iterable, Iterator

from .laws import compose

MAX_UNIVERSE = 64
# the algebra and element names, as the file format reads them
NAME = re.compile(r"[A-Za-z0-9_\[\]]+")

Table = tuple[tuple[int, ...], ...]


class AlgebraError(Exception):
    """Base class for structural errors raised by algebra operations."""


class NotALattice(AlgebraError):
    """A pair of elements without a unique meet or join."""

    def __init__(self, x: int, y: int, kind: str, frontier: tuple[int, ...] = ()):
        self.x = x
        self.y = y
        self.kind = kind  # "meet" or "join"
        self.frontier = frontier
        super().__init__(f"no {kind} for elements {x} and {y}")


class ImplicationAbsent(AlgebraError):
    """An operation needed an implication table and none is available."""


class NoResidual(AlgebraError):
    """Some set {z : mult(x, z) <= y} has no unique maximum.

    `frontier` holds the maximal elements of the set (an antichain,
    empty when the set itself is empty); no implication table satisfying
    residuation can exist for the given fusion table.
    """

    def __init__(self, x: int, y: int, frontier: tuple[int, ...]):
        self.x = x
        self.y = y
        self.frontier = frontier
        super().__init__(f"residual undefined at ({x}, {y}); maximal candidates {frontier}")


# _BITS[m] holds the set bits of m, ascending, for every byte m: each step
# doubles the table, its upper half being the lower half with bit i added
_BITS = reduce(lambda table, i: table + tuple(bits + (i,) for bits in table), range(8), ((),))


def iter_bits(mask: int) -> Iterator[int]:
    """Indices of the set bits of `mask`, ascending; ValueError on a
    negative mask, whose set bits never end."""
    if 0 <= mask < 256:
        return iter(_BITS[mask])
    if mask < 0:
        raise ValueError(f"negative mask {mask}")
    return _lowest_first(mask)


def _lowest_first(mask: int) -> Iterator[int]:
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class cached_value:
    """`functools.cached_property` without its lock: the first read calls
    `func` and stores the value in the instance `__dict__`, which then
    shadows this non-data descriptor, also on a frozen dataclass.  A call
    that raises stores nothing.  Before Python 3.12 the stdlib version
    takes one RLock per property, shared by every instance, on each first
    read; this class can go once requires-python reaches 3.12."""

    def __init__(self, func):
        self.func = func
        self.__doc__ = func.__doc__

    def __set_name__(self, owner, name):
        self.name = name

    def __get__(self, instance, owner=None):
        if instance is None:
            return self
        value = instance.__dict__[self.name] = self.func(instance)
        return value


@dataclass(frozen=True)
class OrderRelation:
    """A relation stored as per-element up-set bit masks.

    up[x] has bit y set iff x <= y; there must be n masks, each a subset
    of the n elements (ValueError otherwise).  The relation is not
    required to be a partial order, let alone a lattice; defective
    relations are kept representable so the validator can report them
    with witnesses.
    """

    n: int
    up: tuple[int, ...]

    def __post_init__(self):
        up = self.up
        if len(up) != self.n or up and (min(up) < 0 or max(up) >> self.n):
            raise ValueError(f"order needs {self.n} up masks, each a subset of "
                             f"{self.n} elements: {up}")

    @classmethod
    def from_covers(cls, n: int, covers: list[tuple[int, int]] | tuple) -> "OrderRelation":
        """Reflexive-transitive closure of a covering (Hasse) edge list."""
        up = [1 << i for i in range(n)]
        changed = True
        while changed:
            changed = False
            for lo, hi in covers:
                merged = up[lo] | up[hi]
                if merged != up[lo]:
                    up[lo] = merged
                    changed = True
        return cls(n, tuple(up))

    @classmethod
    def from_leq(cls, n: int, leq) -> "OrderRelation":
        """Build from any truthy n x n matrix; the diagonal is forced on."""
        up = []
        for x in range(n):
            mask = 1 << x
            for y in range(n):
                if leq[x][y]:
                    mask |= 1 << y
            up.append(mask)
        return cls(n, tuple(up))

    @cached_value
    def dn(self) -> tuple[int, ...]:
        """dn[y] has bit x set iff x <= y."""
        dn = [0] * self.n
        for x, mask in enumerate(self.up):
            for y in iter_bits(mask):
                dn[y] |= 1 << x
        return tuple(dn)

    def leq(self, x: int, y: int) -> bool:
        return bool(self.up[x] >> y & 1)

    @cached_value
    def matrix(self) -> tuple[tuple[int, ...], ...]:
        """matrix[x][y] is 1 if x <= y, else 0."""
        return tuple(tuple(u >> y & 1 for y in range(self.n)) for u in self.up)

    def all_leq(self, lhs: Iterable[int], rhs: Iterable[int]) -> bool:
        """lhs[i] <= rhs[i] at every i (up to the shorter of the two): the
        matrix rows lhs selects, read at rhs, in two C-level calls, so an
        order test calls it once on its whole sides (laws module docstring)."""
        return 0 not in map(getitem, compose(self.matrix, lhs), rhs)

    @cached_value
    def is_transitive(self) -> bool:
        up = self.up
        return all(up[y] & ~ux == 0 for ux in up for y in iter_bits(ux))

    @cached_value
    def is_preorder(self) -> bool:
        """Reflexive and transitive."""
        return all(u >> x & 1 for x, u in enumerate(self.up)) and self.is_transitive

    @cached_value
    def has_meets_and_joins(self) -> bool:
        """Every pair has a unique meet and a unique join."""
        return not any(None in row for row in self.glbs + self.lubs)

    @cached_value
    def glbs(self) -> tuple[tuple[int | None, ...], ...]:
        """glbs[x][y] is the greatest lower bound, or None when it does
        not exist uniquely.

        On a reflexive, transitive relation it is looked up: if g lies
        in dn[x] & dn[y], transitivity puts dn[g] inside that set, so g
        is above all of it exactly when dn[g] equals it, and the
        greatest is the least-index g with that down-set.  Any other
        relation scans each pair's lower bounds."""
        return self._bounds(self.dn, self.greatest_in)

    @cached_value
    def lubs(self) -> tuple[tuple[int | None, ...], ...]:
        """Least upper bounds, as `glbs` with the order reversed."""
        return self._bounds(self.up, self.least_in)

    def _bounds(self, masks: tuple[int, ...], pick) -> tuple[tuple[int | None, ...], ...]:
        """pick(masks[x] & masks[y]) at every pair; see `glbs`."""
        if self.is_preorder:
            at: dict[int, int] = {}
            for g, m in enumerate(masks):
                at.setdefault(m, g)
            return tuple(tuple(at.get(mx & my) for my in masks) for mx in masks)
        return tuple(tuple(pick(mx & my) for my in masks) for mx in masks)

    def maximal_in(self, mask: int) -> tuple[int, ...]:
        """Elements of `mask` with nothing of `mask` strictly above them."""
        return tuple(m for m in iter_bits(mask) if self.up[m] & mask == 1 << m)

    def minimal_in(self, mask: int) -> tuple[int, ...]:
        return tuple(m for m in iter_bits(mask) if self.dn[m] & mask == 1 << m)

    def greatest_in(self, mask: int) -> int | None:
        """The element of `mask` above all of `mask`, or None."""
        for g in iter_bits(mask):
            if mask & ~self.dn[g] == 0:
                return g
        return None

    def least_in(self, mask: int) -> int | None:
        """The element of `mask` below all of `mask`, or None."""
        for g in iter_bits(mask):
            if mask & ~self.up[g] == 0:
                return g
        return None

    def least(self) -> int | None:
        return self.least_in((1 << self.n) - 1)

    @cached_value
    def covers(self) -> tuple[tuple[int, int], ...]:
        """Hasse edges (lo, hi), sorted by (lo, hi), built once per order;
        an element equivalent to lo or hi does not lie between them, so
        the edges of a cyclic order close to the same relation."""
        out = []
        for lo in range(self.n):
            for hi in iter_bits(self.up[lo] & ~(1 << lo)):
                between = self.up[lo] & self.dn[hi] & ~self.dn[lo] & ~self.up[hi]
                if between == 0:
                    out.append((lo, hi))
        return tuple(out)


def _check_table(label: str, table, n: int) -> None:
    if len(table) != n:
        raise ValueError(f"{label} table must have {n} rows")
    for row in table:
        if len(row) != n:
            raise ValueError(f"{label} table rows must have {n} entries")
        for v in row:
            if not 0 <= v < n:
                raise ValueError(f"{label} table entry {v} out of range")


@dataclass(frozen=True)
class AlgebraCandidate:
    """An unvalidated finite algebra: universe, order, tables, designations.

    `imp_table` may be None; the validator derives it from residuation
    when possible.  Instances are immutable and all operations are pure;
    what is cached on an instance (`negs`, `lattice_with_imp`, `memo`)
    is a function of its fields.
    """

    name: str
    elements: tuple[str, ...]
    order: OrderRelation
    mult_table: Table
    imp_table: Table | None
    bot: int
    zero: int
    one: int

    def __post_init__(self):
        n = len(self.elements)
        if n == 0:
            raise ValueError("universe must be non-empty")
        if n > MAX_UNIVERSE:
            raise ValueError(f"universe exceeds {MAX_UNIVERSE} elements")
        if len(set(self.elements)) != n:
            raise ValueError("element names must be pairwise distinct")
        if not NAME.fullmatch(self.name):
            raise ValueError(f"bad algebra name {self.name!r}")
        for nm in self.elements:
            if not NAME.fullmatch(nm):
                raise ValueError(f"bad element name {nm!r}")
        if self.order.n != n:
            raise ValueError("order size does not match universe")
        _check_table("mult", self.mult_table, n)
        if self.imp_table is not None:
            _check_table("imp", self.imp_table, n)
        for label, v in (("bot", self.bot), ("zero", self.zero), ("one", self.one)):
            if not 0 <= v < n:
                raise ValueError(f"{label} index {v} out of range")

    @property
    def n(self) -> int:
        return len(self.elements)

    @cached_value
    def memo(self) -> dict:
        """Results of pure functions of this algebra and its ideals, keyed
        by (function, *ideal bits); see `memoised`.  Not a field, so it is
        not compared, hashed or carried over by `replace`."""
        return {}

    def index(self, name: str) -> int:
        try:
            return self.elements.index(name)
        except ValueError:
            raise KeyError(f"unknown element {name!r}") from None

    def name_of(self, x: int) -> str:
        return self.elements[x]

    def leq(self, x: int, y: int) -> bool:
        return bool(self.order.up[x] >> y & 1)

    def meet(self, x: int, y: int) -> int:
        g = self.order.glbs[x][y]
        if g is None:
            lb = self.order.dn[x] & self.order.dn[y]
            raise NotALattice(x, y, "meet", self.order.maximal_in(lb))
        return g

    def join(self, x: int, y: int) -> int:
        g = self.order.lubs[x][y]
        if g is None:
            ub = self.order.up[x] & self.order.up[y]
            raise NotALattice(x, y, "join", self.order.minimal_in(ub))
        return g

    def mult(self, x: int, y: int) -> int:
        return self.mult_table[x][y]

    def imp(self, x: int, y: int) -> int:
        if self.imp_table is None:
            raise ImplicationAbsent("implication table neither supplied nor derived")
        return self.imp_table[x][y]

    @cached_value
    def negs(self) -> tuple[int, ...]:
        """negs[x] is ~x = x -> zero; raises ImplicationAbsent (and
        caches nothing) without an implication table."""
        return tuple(self.imp(x, self.zero) for x in range(self.n))

    def neg(self, x: int) -> int:
        return self.negs[x]

    @cached_value
    def lattice_with_imp(self) -> bool:
        """The order is a preorder with every meet and join, and an
        implication table is present: where every whole-table test outside
        the validator can decide (laws.Law.holds)."""
        return (self.imp_table is not None and self.order.is_preorder
                and self.order.has_meets_and_joins)

    def tables(self) -> tuple:
        """Every field a verdict reads: up masks, both tables, bot, zero
        and one."""
        return (self.order.up, self.mult_table, self.imp_table, self.bot, self.zero, self.one)

    def plus(self, x: int, y: int) -> int:
        return self.neg(self.mult(self.neg(x), self.neg(y)))

    def derived_top(self) -> int:
        return self.imp(self.bot, self.bot)

    def as_candidate(self) -> "AlgebraCandidate":
        return AlgebraCandidate(
            self.name, self.elements, self.order, self.mult_table,
            self.imp_table, self.bot, self.zero, self.one,
        )


@dataclass(frozen=True)
class FiniteCLAlgebra(AlgebraCandidate):
    """A candidate that passed all four axiom checks, plus its top element.

    Construct these through validator.validate / validator.seal only;
    the extra field is trusted by every downstream module.  `validated`
    is the `tables()` that validate passed, None on an instance it did
    not build; `replace` copies it unchanged, so a copy with other
    tables no longer matches it.  It is not compared or hashed.
    """

    top: int = 0
    validated: tuple | None = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        super().__post_init__()
        if self.imp_table is None:
            raise ValueError("a sealed algebra requires an implication table")
        if not 0 <= self.top < self.n:
            raise ValueError("top index out of range")


def memoised(fn):
    """`fn(alg, *ideals)` computed once per algebra and ideal bits, kept
    in `alg.memo` under (fn, *ideal bits).  A call that raises stores
    nothing, so it raises afresh every time.  Two threads may both
    compute a missing entry; both get the same value."""
    @wraps(fn)
    def remembered(alg, *ideals):
        key = (fn, *[ideal.bits for ideal in ideals])
        memo = alg.memo
        if key not in memo:
            memo[key] = fn(alg, *ideals)
        return memo[key]
    return remembered


def residual(order: OrderRelation, mult_table: Table, x: int, y: int) -> int:
    """The greatest z with mult(x, z) <= y; raises NoResidual, with the
    maximal elements of that set as frontier, when there is none."""
    s = 0
    for z, v in enumerate(mult_table[x]):
        if order.up[v] >> y & 1:
            s |= 1 << z
    g = order.greatest_in(s)
    if g is None:
        raise NoResidual(x, y, order.maximal_in(s))
    return g


def derive_implication(order: OrderRelation, mult_table: Table) -> Table:
    """Compute the residuation-forced implication table.

    Entry (x, y) is the unique maximum of {z : mult(x, z) <= y}.  Raises
    NoResidual at the first (x, y), in lexicographic order, where that
    maximum does not exist; the witness carries the maximal elements of
    the set as an antichain.
    """
    n = order.n
    return tuple(tuple(residual(order, mult_table, x, y) for y in range(n)) for x in range(n))
