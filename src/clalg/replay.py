"""Witness replay: confirm a reported violation directly from the tables.

Every fail verdict in this package carries a witness tuple built by
laws.first_violation from a declared law entry: the entry's kind tag
(if any), the point, and the extra values the violation returned.
confirm_witness finds that entry by the verdict's law and the tag,
re-evaluates its violation function at the witnessed point and returns
True when the same extra values come back, from a context built of the
algebra and the ideal bits alone.  A made-up witness is refused, not
raised on: one whose tag no entry declares, or whose point is short or
has an element index outside the universe, is never evaluated.  The
CLI --replay flag drives this over every witness it prints but a
violated theorem claim's, which indexes quotient classes and which no
law declares.
"""

from __future__ import annotations

from . import identities, ideals, quotient, validator
from .core import AlgebraCandidate
from .laws import Verdict

LAWS = {**validator.LAWS, **ideals.LAWS, **quotient.LAWS, **identities.LAWS}


def confirm_witness(alg: AlgebraCandidate, verdict: Verdict,
                    ideal_bits: int | None = None) -> bool:
    """Re-check one verdict's witness against the tables.

    `ideal_bits` is required for the laws of an ideal and of the
    congruence it induces.  Pass verdicts and skipped verdicts confirm
    trivially (there is nothing to replay).
    """
    if verdict.ok or verdict.skipped or verdict.witness is None:
        return True
    if verdict.law not in LAWS:
        return False
    context, laws = LAWS[verdict.law]
    w = verdict.witness
    by_kind = {e.kind: e for e in laws}
    entry = by_kind.get(w[0] if w else None, by_kind.get(None))
    if entry is None:
        return False
    start = 0 if entry.kind is None else 1
    point, extra = w[start:start + entry.arity], w[start + entry.arity:]
    # a point's coordinates are element indices, after the closure kind
    # that the untagged ideal entry puts first (its violation refuses an
    # undeclared kind itself)
    elements = point[1:] if entry is ideals._CLOSED else point
    if len(point) < entry.arity or not all(v in range(alg.n) for v in elements):
        return False
    return entry.violation(context(alg, ideal_bits), *point) == extra
