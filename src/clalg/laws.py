"""Laws as data, and the one first-violation scan every checker runs.

A law is an ordered list of `Law` entries.  Each entry names a witness
kind, the points to scan (in the documented contract order) and a
violation function that returns None where the law holds at a point,
or else the extra witness values (a computed value, a frontier, or
nothing).  The witness of the first violation is the kind tag (when
the entry has one), the point and the extra values, so replay can
re-evaluate the same violation function at the same point.
"""

from __future__ import annotations

from dataclasses import dataclass
from inspect import signature
from itertools import combinations, combinations_with_replacement, product
from typing import Callable, Iterable, NamedTuple


@dataclass(frozen=True)
class Verdict:
    """Outcome of one check; truthy iff the property holds.

    `witness` is the lexicographically first violating tuple.  Its first
    entry is a kind tag, the rest are element indices (plus, for some
    kinds, a computed value or an antichain tuple) so the violation can
    be replayed against the tables.  `skipped` marks a check that could
    not run at all (no implication table and none derivable).
    """

    law: str
    ok: bool
    witness: tuple | None = None
    detail: str = ""
    skipped: bool = False

    def __bool__(self) -> bool:
        return self.ok


class Law(NamedTuple):
    """One witness kind of a law: where to look and what fails there.

    `kind` is None for witnesses without a tag.  `detail` is the
    verdict's detail on a violation, or a function of (context, *point)
    computing it.
    """

    kind: str | None
    domain: Callable[[object], Iterable[tuple]]
    violation: Callable[..., tuple | None]
    detail: str | Callable[..., str] = ""

    @property
    def arity(self) -> int:
        """Number of witness entries that locate the point."""
        return len(signature(self.violation).parameters) - 1


def first_violation(law: str, laws: Iterable[Law], ctx, detail: str = "") -> Verdict:
    """Scan `laws` in order over `ctx`; the verdict carries the first
    violation's witness, or passes with `detail`."""
    for entry in laws:
        violation = entry.violation
        for point in entry.domain(ctx):
            extra = violation(ctx, *point)
            if extra is not None:
                witness = point + extra if entry.kind is None else (entry.kind, *point, *extra)
                note = entry.detail(ctx, *point) if callable(entry.detail) else entry.detail
                return Verdict(law, False, witness, note or detail)
    return Verdict(law, True, None, detail)


def ascending_pairs(ctx) -> Iterable[tuple]:
    """(x, y) with x < y."""
    return combinations(range(ctx.n), 2)


def rising_pairs(ctx) -> Iterable[tuple]:
    """(x, y) with x <= y."""
    return combinations_with_replacement(range(ctx.n), 2)


def cube(arity: int) -> Callable[[object], Iterable[tuple]]:
    """All `arity`-tuples of elements, lexicographically."""
    return lambda ctx: product(range(ctx.n), repeat=arity)
