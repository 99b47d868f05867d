"""Axiom checks for algebra candidates, with first-witness reporting.

Every check runs its quantifiers in ascending element-index order,
nested left to right, over all tuples, and stops at the first
violation; the scan orders below are part of the module contract (the
test-suite replays them against an independent brute-force oracle and
expects witness-for-witness agreement).  Each pair law is symmetric in
(x, y), so its first witness has x <= y (x < y for antisymmetry and
commutativity, never violated on the diagonal):

  lattice:  reflexivity x; antisymmetry (x, y); transitivity (x, y, z);
            missing joins (x, y); missing meets likewise; declared bot
            not least.
  monoid:   commutativity (x, y); unit x; associativity (x, y, z).
  residuation: without a derivable implication table, (x, y) whose
            residual does not exist; else (x, y, z) on the
            biconditional x*y <= z iff x <= y->z.
  involution: x on ~~x == x.

Each law is declared once below as a list of laws.Law entries, each
point axiom as its formula (laws.formula_law); validate and
replay.confirm_witness both read those declarations.  Every entry
scans only where its exact whole-table test (laws.Law.holds) fails,
for the witness, which is that of the full scan.  The linear (TOTAL,
read on the order), integral and distributive-lattice flags read their
laws' tests alone, exact where they are read, and seek no witness: the
integral law is scanned only for the message of EquivalenceBroken, and
the distributive one only where a meet or join is missing, so that it
raises NotALattice at the same pair.  Checks never mutate the
candidate; a derived implication table is attached to the returned
report/algebra only.  The report and its
flags are NamedTuples, cheaper to build at import than dataclasses.
"""

from __future__ import annotations

from dataclasses import replace
from itertools import chain
from typing import NamedTuple

from .core import (
    AlgebraCandidate,
    FiniteCLAlgebra,
    NoResidual,
    NotALattice,
    derive_implication,
    iter_bits,
    residual,
)
from .laws import (
    Law,
    Verdict,
    associates,
    compose,
    cube,
    distributes,
    first_violation,
    formula_law,
)


class StructuralFlags(NamedTuple):
    is_linear: bool
    is_distributive_lattice: bool
    is_idempotent: bool
    is_residuated_lattice: bool


class ValidationReport(NamedTuple):
    """All four axiom verdicts; `algebra` is set on promotion, and `top`
    and `flags` are read from it (the flags are computed when read)."""

    lattice: Verdict
    monoid: Verdict
    residuation: Verdict
    involution: Verdict
    algebra: FiniteCLAlgebra | None = None

    @property
    def top(self) -> int | None:
        return None if self.algebra is None else self.algebra.top

    @property
    def flags(self) -> StructuralFlags | None:
        alg = self.algebra
        if alg is None:
            return None
        return StructuralFlags(is_linear(alg), is_distributive_lattice(alg),
                               is_idempotent(alg), is_residuated_lattice(alg))

    @property
    def passed(self) -> bool:
        return bool(self.lattice and self.monoid and self.residuation and self.involution)

    @property
    def verdicts(self) -> tuple[Verdict, ...]:
        return (self.lattice, self.monoid, self.residuation, self.involution)


class NotACLAlgebra(Exception):
    """seal() was asked to promote a candidate that fails an axiom."""

    def __init__(self, report: ValidationReport):
        self.report = report
        failed = [v.law for v in report.verdicts if not v.ok]
        super().__init__(f"candidate fails: {', '.join(failed)}")


class EquivalenceBroken(Exception):
    """A consequence of the axioms failed on an algebra that passed them:
    integrality disagreed with top == one, or an element is not below
    imp(bot, bot)."""

    def __init__(self, x: int, y: int, detail: str):
        self.x = x
        self.y = y
        super().__init__(detail)


def _no_bound(op):
    """Violation of "x and y have a join (meet)": the frontier of bounds."""
    def violation(A, x, y):
        try:
            getattr(A, op)(x, y)
        except NotALattice as exc:
            return (exc.frontier,)
        return None
    return violation


def _antisymmetric(A) -> bool:
    """No x is equivalent to another element: up[x] & dn[x] holds no
    bit but x.  Read on a candidate, or on a bare order
    (search._check_lattice)."""
    order = getattr(A, "order", A)
    return all(u & d & ~(1 << x) == 0 for x, (u, d) in enumerate(zip(order.up, order.dn)))


def _axiom(kind: str, formula: str, holds, detail="") -> Law:
    """The law `formula` states (laws.formula_law), its witnesses tagged `kind`."""
    return formula_law(formula, holds)._replace(kind=kind, detail=detail)


LATTICE = (
    _axiom("reflexivity", "x <= x", lambda A: all(u >> x & 1 for x, u in enumerate(A.order.up))),
    _axiom("antisymmetry", "x<=y, y<=x implies x == y", _antisymmetric),
    _axiom("transitivity", "x<=y, y<=z implies x<=z", lambda A: A.order.is_transitive),
    Law("no_join", cube(2), _no_bound("join"), holds=lambda A: A.order.has_meets_and_joins),
    Law("no_meet", cube(2), _no_bound("meet"), holds=lambda A: A.order.has_meets_and_joins),
    _axiom("bot_not_least", "bot <= x", lambda A: A.order.up[A.bot] == (1 << A.n) - 1),
)


def _associative(A) -> bool:
    """t(t(x, y), z) == t(x, t(y, z)), as bytes (laws.associates)."""
    t = A.mult_table
    return associates(t, t, t)


def _unital(A) -> bool:
    """Row one and column one of mult are both the identity."""
    t, one, identity = A.mult_table, A.one, tuple(range(A.n))
    return t[one] == identity and tuple(row[one] for row in t) == identity


MONOID = (
    _axiom("commutativity", "x*y == y*x", lambda A: A.mult_table == tuple(zip(*A.mult_table))),
    _axiom("unit", "1*x, x*1 == x", _unital),
    _axiom("associativity", "(x*y)*z == x*(y*z)", _associative),
)


def _adjoint(A) -> bool:
    """mult(x, y) <= z exactly where x <= imp(y, z), reading <= as 0/1
    rows, as bytes (laws.associates)."""
    imp = A.imp_table
    return imp is not None and associates(A.order.matrix, A.mult_table, imp)


def _adjunction_detail(A, x, y, z) -> str:
    if A.leq(A.mult(x, y), z):
        return "mult(x,y) <= z but not x <= imp(y,z)"
    return "x <= imp(y,z) but not mult(x,y) <= z"


def _no_residual(A, x, y):
    try:
        residual(A.order, A.mult_table, x, y)
    except NoResidual as exc:
        return (exc.frontier,)
    return None


# read on the candidate with its implication table resolved by
# _imp_or_derive: no_residual is scanned only where no table exists
RESIDUATION = (
    Law("no_residual", lambda A: () if A.imp_table is not None else cube(2)(A), _no_residual,
        lambda A: A.imp_table is not None, "no implication table can satisfy residuation"),
    _axiom("adjunction", "x*y <= z iff x <= y->z", _adjoint, _adjunction_detail),
)

INVOLUTION = (_axiom("involution", "~~x == x", lambda A: (
    A.imp_table is not None and compose(A.negs, A.negs) == tuple(range(A.n)))),)


def _imp_or_derive(cand: AlgebraCandidate) -> AlgebraCandidate:
    """The candidate carrying the implication table the residuation and
    involution laws read: its own, else the derived one; without a table
    when none is derivable."""
    if cand.imp_table is not None:
        return cand
    try:
        return replace(cand, imp_table=derive_implication(cand.order, cand.mult_table))
    except NoResidual:
        return cand


def validate(cand: AlgebraCandidate) -> ValidationReport:
    """Run the four axiom checks and, on all-pass, seal the algebra.

    Always returns the full report.  When the candidate has no
    implication table, one is derived first; if derivation is impossible
    the residuation verdict carries the no-residual witness and the
    involution check is marked skipped.  Raises EquivalenceBroken if an
    element of an algebra that passes is not below imp(bot, bot).
    """
    lattice = first_violation("lattice", LATTICE, cand)
    monoid = first_violation("monoid", MONOID, cand)
    resolved = _imp_or_derive(cand)
    residuation = first_violation("residuation", RESIDUATION, resolved)
    if resolved.imp_table is None:
        involution = Verdict(
            "involution", False, None,
            "not checkable: implication neither supplied nor derivable",
            skipped=True,
        )
        return ValidationReport(lattice, monoid, residuation, involution)
    involution = first_violation("involution", INVOLUTION, resolved)
    report = ValidationReport(lattice, monoid, residuation, involution)
    if not report.passed:
        return report

    top = resolved.derived_top()
    # forced by the axioms: bot is absorbing for mult, hence x <= imp(bot, bot)
    for x in iter_bits(~cand.order.dn[top] & (1 << cand.n) - 1):
        raise EquivalenceBroken(x, top, f"{x} is not below imp(bot, bot) = {top}")
    sealed = FiniteCLAlgebra(
        cand.name, cand.elements, cand.order, cand.mult_table,
        resolved.imp_table, cand.bot, cand.zero, cand.one, top, resolved.tables(),
    )
    return ValidationReport(lattice, monoid, residuation, involution, sealed)


def renamed(alg: FiniteCLAlgebra, name: str, elements: tuple[str, ...]) -> FiniteCLAlgebra:
    """The sealed `alg` under a new name and element names, sharing its
    order; no verdict reads a name, so it stays sealed."""
    if not isinstance(alg, FiniteCLAlgebra):
        raise TypeError(f"{alg.name} is not a sealed algebra")
    return replace(alg, name=name, elements=elements)


def seal(cand: AlgebraCandidate) -> FiniteCLAlgebra:
    """validate() and return the sealed algebra, or raise NotACLAlgebra."""
    report = validate(cand)
    if report.algebra is None:
        raise NotACLAlgebra(report)
    return report.algebra


# mult's rows joined, against each x repeated n times, in one all_leq call
INTEGRAL = (formula_law("x*y <= x", lambda A: A.order.all_leq(
    chain.from_iterable(A.mult_table), sorted(tuple(range(A.n)) * A.n))),)


def is_residuated_lattice(alg: FiniteCLAlgebra) -> bool:
    """True iff top == one, cross-checked against integrality of mult.

    The two conditions are equivalent on any sealed algebra; a
    discrepancy is an internal-consistency failure and raises
    EquivalenceBroken rather than returning a guess.
    """
    integral = INTEGRAL[0].holds(alg)  # exact on any order
    top_is_one = alg.top == alg.one
    if top_is_one and not integral:
        x, y = first_violation("integral", INTEGRAL, alg).witness
        raise EquivalenceBroken(x, y, f"top == one but mult({x},{y}) is not below {x}")
    if not top_is_one and integral:
        raise EquivalenceBroken(
            alg.one, alg.top,
            "mult is integral everywhere but top != one",
        )
    return top_is_one


def is_idempotent(alg: AlgebraCandidate) -> bool:
    return all(alg.mult(x, x) == x for x in range(alg.n))


# a total order, read on the order: the witness is the first incomparable
# pair (x, y) off the diagonal, so x < y; its test, exact on any order:
# up[x] | dn[x] holds every element but perhaps x
TOTAL = (
    Law(None, cube(2), lambda o, x, y: None if x == y or o.leq(x, y) or o.leq(y, x) else (),
        holds=lambda o: all(u | d | 1 << x == (1 << o.n) - 1
                            for x, (u, d) in enumerate(zip(o.up, o.dn)))),
)


def is_linear(alg: AlgebraCandidate) -> bool:
    """TOTAL's test alone: it is exact, so no witness is sought."""
    return TOTAL[0].holds(alg.order)


DISTRIBUTIVE_LATTICE = (formula_law("x&(y|z) == (x&y)|(x&z)", lambda A: (
    A.order.has_meets_and_joins and distributes(A.order.glbs, A.order.lubs))),)


def is_distributive_lattice(alg: AlgebraCandidate) -> bool:
    """The law's test where every meet and join exists, exact there;
    elsewhere its scan, which raises NotALattice at the first pair
    without one."""
    if alg.order.has_meets_and_joins:
        return DISTRIBUTIVE_LATTICE[0].holds(alg)
    return first_violation("distributive_lattice", DISTRIBUTIVE_LATTICE, alg).ok


def _context(alg, _ideal_bits):
    return alg


# the laws whose witnesses are replayed -> (the context their violations
# read, built from the algebra and the ideal bits a witness is replayed
# against; entries)
LAWS = {
    "lattice": (_context, LATTICE),
    "monoid": (_context, MONOID),
    "residuation": (lambda alg, _ideal_bits: _imp_or_derive(alg), RESIDUATION),
    "involution": (lambda alg, _ideal_bits: _imp_or_derive(alg), INVOLUTION),
}
