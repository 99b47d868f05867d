"""Derived-law suite checked exhaustively on sealed algebras.

Every law is a theorem of the four axioms, so on any algebra the
validator promoted the whole suite must pass; a failure here means the
validator itself is broken.  That cross-check is wired into the tests.

Guarded laws (P2_3, P2_4, P2_7, P2_10) are checked as implications and
hold vacuously where the guard fails; P2_7 is scanned only where its
guard holds, which gives the same first witness.  P2_1 is the binary
form of join distribution; the finite n-ary case folds out of it.
P2_10 is the antitone law x <= y implies neg(y) <= neg(x), the
(y, 0)-instance of P2_7's implication part.
"""

from __future__ import annotations

from enum import Enum
from functools import wraps

from .core import AlgebraError, FiniteCLAlgebra, iter_bits
from .laws import Law, Verdict, cube, first_violation


class UnknownIdentity(AlgebraError):
    pass


class IdentityId(str, Enum):
    P2_1 = "P2_1"
    P2_2 = "P2_2"
    P2_3 = "P2_3"
    P2_4 = "P2_4"
    P2_5 = "P2_5"
    P2_6 = "P2_6"
    P2_7 = "P2_7"
    P2_8 = "P2_8"
    P2_9 = "P2_9"
    P2_10 = "P2_10"
    P2_11 = "P2_11"
    P2_12 = "P2_12"
    P2_13 = "P2_13"
    P2_14 = "P2_14"
    P2_15 = "P2_15"
    P2_16 = "P2_16"
    LEMMA_MEET_IMP = "LEMMA_MEET_IMP"


def _p2_1(A, x, y, z):
    return A.mult(x, A.join(y, z)) == A.join(A.mult(x, y), A.mult(x, z))


def _p2_2(A, y):
    return A.leq(y, A.imp(A.bot, A.bot))


def _p2_3(A, x, y):
    if not (A.leq(x, A.one) and A.leq(y, A.one)):
        return True
    return A.leq(A.mult(x, y), A.meet(x, y))


def _p2_4(A, x, y):
    if not (A.leq(A.one, x) and A.leq(A.one, y)):
        return True
    return A.leq(A.join(x, y), A.mult(x, y))


def _p2_5(A, x, y, z):
    return A.leq(A.mult(A.imp(x, y), A.imp(y, z)), A.imp(x, z))


def _p2_6(A, x):
    return A.imp(A.one, x) == x


def _p2_7(A, x, x1, y, y1):
    if not (A.leq(x, x1) and A.leq(y, y1)):
        return True
    return A.leq(A.mult(x, y), A.mult(x1, y1)) and A.leq(A.imp(x1, y), A.imp(x, y1))


def _p2_8(A, x, y, z):
    return A.imp(x, A.imp(y, z)) == A.imp(A.mult(x, y), z)


def _p2_9(A, x, y):
    return A.leq(A.mult(x, A.imp(x, y)), y)


def _p2_10(A, x, y):
    if not A.leq(x, y):
        return True
    return A.leq(A.neg(y), A.neg(x))


def _p2_11(A, x, y):
    return A.join(x, y) == A.neg(A.meet(A.neg(x), A.neg(y)))


def _p2_12(A, x, y):
    return A.meet(x, y) == A.neg(A.join(A.neg(x), A.neg(y)))


def _p2_13(A, x, y):
    return A.imp(x, y) == A.neg(A.mult(x, A.neg(y)))


def _p2_14(A, x, y):
    return A.imp(A.neg(x), y) == A.neg(A.mult(A.neg(x), A.neg(y)))


def _p2_15(A):
    return A.neg(A.top) == A.bot


def _p2_16(A):
    return A.mult(A.neg(A.top), A.top) == A.bot


def _lemma_meet_imp(A, x, y, z):
    return A.meet(A.imp(z, x), A.imp(z, y)) == A.imp(z, A.meet(x, y))


# tag -> (arity, instance predicate, human formula)
IDENTITIES: dict[IdentityId, tuple[int, object, str]] = {
    IdentityId.P2_1: (3, _p2_1, "x*(y|z) == (x*y)|(x*z)"),
    IdentityId.P2_2: (1, _p2_2, "y <= bot->bot"),
    IdentityId.P2_3: (2, _p2_3, "x,y <= 1 implies x*y <= x&y"),
    IdentityId.P2_4: (2, _p2_4, "1 <= x,y implies x|y <= x*y"),
    IdentityId.P2_5: (3, _p2_5, "(x->y)*(y->z) <= x->z"),
    IdentityId.P2_6: (1, _p2_6, "1->x == x"),
    IdentityId.P2_7: (4, _p2_7, "x<=x1, y<=y1 implies x*y <= x1*y1 and x1->y <= x->y1"),
    IdentityId.P2_8: (3, _p2_8, "x->(y->z) == (x*y)->z"),
    IdentityId.P2_9: (2, _p2_9, "x*(x->y) <= y"),
    IdentityId.P2_10: (2, _p2_10, "x <= y implies ~y <= ~x"),
    IdentityId.P2_11: (2, _p2_11, "x|y == ~(~x & ~y)"),
    IdentityId.P2_12: (2, _p2_12, "x&y == ~(~x | ~y)"),
    IdentityId.P2_13: (2, _p2_13, "x->y == ~(x * ~y)"),
    IdentityId.P2_14: (2, _p2_14, "~x->y == ~(~x * ~y)"),
    IdentityId.P2_15: (0, _p2_15, "~top == bot"),
    IdentityId.P2_16: (0, _p2_16, "~top * top == bot"),
    IdentityId.LEMMA_MEET_IMP: (3, _lemma_meet_imp, "(z->x)&(z->y) == z->(x&y)"),
}


def lookup_identity(tag) -> IdentityId:
    if isinstance(tag, IdentityId):
        return tag
    try:
        return IdentityId(tag)
    except ValueError:
        raise UnknownIdentity(f"unknown identity tag {tag!r}") from None


def _violation(pred):
    """The predicate as a violation function with the predicate's signature."""
    @wraps(pred)
    def violation(A, *point):
        return None if pred(A, *point) else ()
    return violation


def _p2_7_points(A):
    """(x, x1, y, y1) with x <= x1 and y <= y1, lexicographically: the
    points where P2_7's guard holds, so its first violation is the same
    as over all of cube(4)."""
    up = A.order.up
    rising = [(x, x1) for x in range(A.n) for x1 in iter_bits(up[x])]
    return (p + q for p in rising for q in rising)


# identities scanned over fewer points than all tuples of their arity
_DOMAINS = {IdentityId.P2_7: _p2_7_points}

# law -> (context from the algebra, ideal bits and class index; entries):
# each identity is one untagged law over the tuples of its arity
LAWS = {
    ident.value: (lambda alg, *_: alg,
                  (Law(None, _DOMAINS.get(ident, cube(arity)), _violation(pred)),))
    for ident, (arity, pred, _formula) in IDENTITIES.items()
}


def check_identity(alg: FiniteCLAlgebra, tag) -> Verdict:
    """Quantify the tagged law over all element tuples of its arity.

    Returns a pass verdict or the lexicographically first counterexample
    tuple.  `alg` must be validator-sealed.
    """
    ident = lookup_identity(tag)
    _ctx, laws = LAWS[ident.value]
    return first_violation(ident.value, laws, alg, IDENTITIES[ident][2])


def run_identity_suite(alg: FiniteCLAlgebra) -> dict[IdentityId, Verdict]:
    return {ident: check_identity(alg, ident) for ident in IdentityId}


def suite_passed(report: dict[IdentityId, Verdict]) -> bool:
    return all(v.ok for v in report.values())
