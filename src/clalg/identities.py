"""Derived-law suite checked exhaustively on sealed algebras.

Each identity is declared once, in `IDENTITIES`: its tag (a plain
string, in suite order) maps to its formula and its whole-table test.
The formula is the law: laws.formula_law compiles it into the scanned
violation, over the tuples of its variables in alphabetical order, and
it is the verdict's detail.  `LAWS`, the entries that checking and
replay read, is built from the table.

Every law is a theorem of the four axioms, so on any algebra the
validator promoted the whole suite must pass; a failure here means the
validator itself is broken.  That cross-check is wired into the tests.

Guarded laws (P2_3, P2_4, P2_7, P2_10) are checked as implications and
hold vacuously where the guard fails.  P2_1 is the binary form of join
distribution; the finite n-ary case folds out of it.  P2_10 is the
antitone law x <= y implies neg(y) <= neg(x), the (y, 0)-instance of
P2_7's implication part.

Every identity is scanned only where its exact whole-table test
(laws.Law.holds) fails, for the witness, which is always the first of
the full scan.  Each test runs only where `lattice_with_imp` holds
(a preorder with every meet and join, and an implication table), and
falls through to the scan elsewhere.  The cubic tests run as byte
planes (laws module docstring): the equations through laws.associates
and laws.distributes, P2_5 as its planes joined.  Each order test
(P2_3, P2_4, P2_5, P2_7, P2_9) calls `all_leq` once, on its whole
sides.  P2_7's test is monotonicity of mult in each argument and of imp
(antitone in the first): then x*y <= x1*y <= x1*y1 and x1->y <= x->y
<= x->y1 chain.  The tests of P2_7 and P2_10 read only the cover pairs:
on a preorder every x <= x1 is reflexive or a chain of covers
(OrderRelation.covers), and comparisons of whole rows chain along it.
The negation laws P2_11..P2_14 compare whole tables as bytes.
"""

from __future__ import annotations

from itertools import chain, repeat

from .core import AlgebraError, FiniteCLAlgebra
from .laws import (Verdict, associates, compose, distributes, first_violation, formula_law,
                   translation)


class UnknownIdentity(AlgebraError):
    pass


def _negated(table, negs) -> bytes:
    """~row[~y] at every (row, y) of `table`, the rows joined as bytes."""
    negs = bytes(negs)
    return b"".join(map(negs.translate, map(translation, table))).translate(translation(negs))


def _monotone(A) -> bool:
    """P2_7 at every point (module docstring): the rows each cover
    (lo, hi) compares, all joined; imp's rows compare the other way."""
    mult, imp = A.mult_table, A.imp_table
    mult_cols, imp_cols = tuple(zip(*mult)), tuple(zip(*imp))
    lo, hi = tuple(zip(*A.order.covers)) or ((), ())
    lhs = compose(mult, lo) + compose(mult_cols, lo) + compose(imp, hi) + compose(imp_cols, lo)
    rhs = compose(mult, hi) + compose(mult_cols, hi) + compose(imp, lo) + compose(imp_cols, hi)
    return A.order.all_leq(chain.from_iterable(lhs), chain.from_iterable(rhs))


def _chains(A) -> bool:
    """P2_5 at every point, one plane (y, z) per x (laws module
    docstring): mult[x->y][y->z] against the row x->z repeated n times."""
    mult, imp = tuple(map(translation, A.mult_table)), tuple(map(bytes, A.imp_table))
    lhs = b"".join(imp[y].translate(mult[v]) for row in imp for y, v in enumerate(row))
    return A.order.all_leq(lhs, b"".join(row * A.n for row in imp))


def _leq_on(A, members, lhs, rhs) -> bool:
    """lhs(x, y) <= rhs(x, y) for x, y in `members`."""
    def side(table):
        return chain.from_iterable(map(compose, compose(table, members), repeat(members)))
    return A.order.all_leq(side(lhs), side(rhs))


# tag -> (formula, exact whole-table test), in suite order
IDENTITIES = {
    "P2_1": ("x*(y|z) == (x*y)|(x*z)", lambda A: distributes(A.mult_table, A.order.lubs)),
    "P2_2": ("y <= bot->bot", lambda A: A.order.dn[A.imp(A.bot, A.bot)] == (1 << A.n) - 1),
    "P2_3": ("x,y <= 1 implies x*y <= x&y", lambda A: _leq_on(
        A, [x for x in range(A.n) if A.leq(x, A.one)], A.mult_table, A.order.glbs)),
    "P2_4": ("1 <= x,y implies x|y <= x*y", lambda A: _leq_on(
        A, [x for x in range(A.n) if A.leq(A.one, x)], A.order.lubs, A.mult_table)),
    "P2_5": ("(x->y)*(y->z) <= x->z", _chains),
    "P2_6": ("1->x == x", lambda A: A.imp_table[A.one] == tuple(range(A.n))),
    "P2_7": ("x<=x1, y<=y1 implies x*y <= x1*y1 and x1->y <= x->y1", _monotone),
    "P2_8": ("x->(y->z) == (x*y)->z",
             lambda A: associates(A.imp_table, A.mult_table, A.imp_table)),
    "P2_9": ("x*(x->y) <= y", lambda A: A.order.all_leq(
        chain.from_iterable(map(compose, A.mult_table, A.imp_table)), tuple(range(A.n)) * A.n)),
    "P2_10": ("x <= y implies ~y <= ~x", lambda A: all(
        A.order.matrix[A.negs[y]][A.negs[x]] for x, y in A.order.covers)),
    "P2_11": ("x|y == ~(~x & ~y)", lambda A: bytes(chain.from_iterable(A.order.lubs))
              == _negated(compose(A.order.glbs, A.negs), A.negs)),
    "P2_12": ("x&y == ~(~x | ~y)", lambda A: bytes(chain.from_iterable(A.order.glbs))
              == _negated(compose(A.order.lubs, A.negs), A.negs)),
    "P2_13": ("x->y == ~(x * ~y)", lambda A: bytes(chain.from_iterable(A.imp_table))
              == _negated(A.mult_table, A.negs)),
    "P2_14": ("~x->y == ~(~x * ~y)", lambda A: bytes(chain.from_iterable(
        compose(A.imp_table, A.negs))) == _negated(compose(A.mult_table, A.negs), A.negs)),
    "P2_15": ("~top == bot", lambda A: A.negs[A.top] == A.bot),
    "P2_16": ("~top * top == bot", lambda A: A.mult_table[A.negs[A.top]][A.top] == A.bot),
    "LEMMA_MEET_IMP": ("(z->x)&(z->y) == z->(x&y)",
                       lambda A: distributes(A.imp_table, A.order.glbs)),
}


# law -> (context from the algebra and the ideal bits; entries); each
# test runs where lattice_with_imp holds (module docstring)
LAWS = {
    tag: (lambda alg, _ideal_bits: alg,
          (formula_law(formula, lambda A, holds=holds: A.lattice_with_imp and holds(A)),))
    for tag, (formula, holds) in IDENTITIES.items()
}


def check_identity(alg: FiniteCLAlgebra, tag: str) -> Verdict:
    """Quantify the tagged law over all element tuples of its arity.

    Returns a pass verdict or the lexicographically first counterexample
    tuple.  `alg` must be validator-sealed.
    """
    if tag not in IDENTITIES:
        raise UnknownIdentity(f"unknown identity tag {tag!r}")
    return first_violation(tag, LAWS[tag][1], alg, IDENTITIES[tag][0])


def run_identity_suite(alg: FiniteCLAlgebra) -> dict[str, Verdict]:
    """Every identity's verdict, keyed by tag in suite order."""
    return {tag: check_identity(alg, tag) for tag in IDENTITIES}
