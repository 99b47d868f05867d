"""Ideal-induced congruences and quotient algebras.

x and y are congruent modulo an ideal I when x * ~y and y * ~x both lie
in I.  Nothing is taken on trust: one law, `CONGRUENCE`, certifies that
the relation is an equivalence compatible with every operation, the
quotient is rebuilt from class representatives and re-validated from
scratch, and the class order derived from meets is cross-checked
against the membership criterion ~(x->y) in I.  Each of those
verifications can fail on defective candidates, and each failure is a
first-class reported result rather than an internal error; every
witness but a violated theorem claim's is a law's, replayed from the
algebra and the ideal alone.  Only a quotient whose tables are the ones
a sealed base passed validation with (every class a singleton, as
modulo the zero down-set, and the base's tables unchanged since;
FiniteCLAlgebra.validated) is not re-validated: no verdict reads a
name, so it is the base renamed (validator.renamed).  It is recognised
right after the order criterion, from the classes and the base alone,
before any class table is built.  At the other end, modulo the whole
universe, every pair is related and there is one class: the relation
is read off no table cell, the order criterion holds at every pair
(both sides are 1) and every class table is ((0,),), so only the
one-element candidate is built and validated.  Every other quotient
reads its class tables through laws.compose, one call per row.

The laws read the relation as one mask per element, rel[x], symmetric
by construction; `CONGRUENCE` checks reflexivity, transitivity, then
meet, join, mult and imp compatibility.  A symmetric relation is an
equivalence exactly when x ~ x and rel[r] == rel[x] for r = min rel[x]:
for y ~ x, r ~ y, so r' = min rel[y] <= r, and r' ~ r, so r <= r';
then rel[y] == rel[x].  On an equivalence a binary operation is
compatible exactly when cls(op(x, y)) == cls(op(r x, r y)) for all (x,
y), r the class representative: x ~ x' and y ~ y' give op(x, y) ~ op(r
x, r y) = op(r x', r y') ~ op(x', y'), and the test is itself
compatibility at x' = r x, y' = r y.  So this O(n^2) test decides pass
or fail (it is False on any other relation), and the O(n^4) scan of
related quads runs only on a failing operation, to find the
lexicographically first violating quad as the witness.  The test runs
only where `lattice_with_imp` holds; there no call raises, so it skips
the pairs of representatives, where both sides are the same call, and
passes at once on a single class.  Compatibility with ~x = x -> 0
follows from that of imp at y = y' = 0, so neg needs no entry of its
own.

Classes are named after their minimal-index representative in brackets,
and quotient elements are ordered by ascending representative index.

The congruence and the quotient by an ideal are kept in the algebra's
memo (`core.memoised`), as is the ideal's classification, whose prime,
distributive and affine flags guard the theorems, so `theorem_suite`,
`check_order_criterion` and `ideals.classify` compute each of them once
per algebra and ideal.  The flags come from the whole-table tests alone
(laws module docstring); no witness of a failing flag is sought.  A
construction that fails (NotACongruence, QuotientInvalid) is not kept:
every call raises it afresh.  The result records are NamedTuples,
cheaper to build at import than dataclasses.
"""

from __future__ import annotations

from itertools import compress
from operator import and_
from typing import NamedTuple

from .core import (
    AlgebraCandidate,
    AlgebraError,
    FiniteCLAlgebra,
    OrderRelation,
    iter_bits,
    memoised,
)
from .ideals import Ideal, Subset, classify
from .laws import Law, Verdict, compose, cube, first_violation
from .validator import DISTRIBUTIVE_LATTICE, TOTAL, ValidationReport, renamed, validate


class NotACongruence(AlgebraError):
    """The ideal induces no congruence: `certificate` is the congruence
    law's failing verdict, at an equivalence or a compatibility entry."""

    def __init__(self, certificate: Verdict):
        self.certificate = certificate
        super().__init__(f"congruence fails: {certificate.witness}")


class QuotientInvalid(AlgebraError):
    """The quotient construction failed; carries either the failing
    validation report with the class-level candidate it is about, or an
    order-criterion mismatch witness."""

    def __init__(self, detail: str, report: ValidationReport | None = None,
                 witness: tuple | None = None, candidate: AlgebraCandidate | None = None):
        self.report = report
        self.witness = witness
        self.candidate = candidate
        super().__init__(detail)


class Congruence(NamedTuple):
    """Partition induced by an ideal, plus the congruence law's verdict,
    whose equivalence entries pass.  Each operation, in the order meet,
    join, mult, imp, passes or fails by its class-level test; on a
    failure, argument tuples (x, x', y, y') are scanned lexicographically
    over related pairs, and the first incompatibility is the witness
    (module docstring)."""

    classes: tuple[Subset, ...]
    class_index: tuple[int, ...]
    certificate: Verdict

    def representatives(self) -> tuple[int, ...]:
        return tuple(cls.members()[0] for cls in self.classes)

    def related(self, alg: AlgebraCandidate, ideal_bits: int) -> _Related:
        """The laws' context, read off the classes, not built again: an
        equivalence, so rep[x] is the least member of x's class."""
        rel = [self.classes[k].bits for k in self.class_index]
        return _Related(alg, ideal_bits, rel, [(m & -m).bit_length() - 1 for m in rel])


class _Related(NamedTuple):
    """What the laws read: the algebra, the ideal, the relation it
    induces (rel[x] the mask of the elements related to x) and rep[x] =
    min rel[x], or None where the relation is no equivalence."""

    alg: AlgebraCandidate
    ideal_bits: int
    rel: list[int]
    rep: list[int] | None


def _related(alg: AlgebraCandidate, ideal_bits: int) -> _Related:
    """x ~ y iff x * ~y and y * ~x lie in the ideal (inside[x][y] is 1
    where x * ~y does); its equivalence is decided once, here.  Modulo
    the whole universe every pair is related, read off no table cell."""
    negs, full = alg.negs, (1 << alg.n) - 1  # negs raises ImplicationAbsent
    if ideal_bits == full:
        return _Related(alg, ideal_bits, [full] * alg.n, [0] * alg.n)
    inside = [[ideal_bits >> row[v] & 1 for v in negs] for row in alg.mult_table]
    bits = [1 << y for y in range(alg.n)]
    rel = [sum(compress(bits, map(and_, r, c))) for r, c in zip(inside, zip(*inside))]
    rep = [(m & -m).bit_length() - 1 for m in rel]
    equivalence = all(m >> x & 1 and rel[r] == m for x, (m, r) in enumerate(zip(rel, rep)))
    return _Related(alg, ideal_bits, rel, rep if equivalence else None)


@memoised
def congruence_from_ideal(alg: AlgebraCandidate, ideal: Ideal) -> Congruence:
    """Run the congruence law on the relation and partition the universe;
    a relation that is no equivalence has no partition, so its failing
    verdict raises NotACongruence."""
    ctx = _related(alg, ideal.bits)
    certificate = first_violation("congruence", CONGRUENCE, ctx)
    if ctx.rep is None:
        raise NotACongruence(certificate)
    reps = [x for x, r in enumerate(ctx.rep) if r == x]
    return Congruence(tuple(Subset(alg.n, ctx.rel[r]) for r in reps),
                      tuple(map(reps.index, ctx.rep)), certificate)


def _pairs(c: _Related) -> list[tuple[int, int]]:
    """The related pairs (x, x'), lexicographically."""
    return [(x, x1) for x, m in enumerate(c.rel) for x1 in iter_bits(m)]


def _class_level(op: str):
    """The class-level test of `op` (module docstring)."""
    def holds(c: _Related) -> bool:
        rel, rep = c.rel, c.rep
        if rep is None or not c.alg.lattice_with_imp:
            return False
        if rel[0] == (1 << len(rel)) - 1:
            return True  # a single class
        fn = getattr(c.alg, op)
        moved = [x for x, r in enumerate(rep) if r != x]
        return all(rel[fn(x, y)] >> fn(r, rep[y]) & 1
                   for x, r in enumerate(rep) for y in (moved if r == x else range(len(rep))))
    return holds


def _quads(c: _Related):
    """Quads (x, x', y, y') over related pairs, lexicographically,
    generated lazily, only to find the first violating one."""
    pairs = _pairs(c)
    return (p + q for p in pairs for q in pairs)


def _compatible(op: str):
    """Violation of "x ~ x' and y ~ y' give op(x, y) ~ op(x', y')"; an
    unrelated pair violates nothing, so no replay confirms one."""
    def violation(c, x, x1, y, y1):
        fn, rel = getattr(c.alg, op), c.rel
        related = rel[x] >> x1 & rel[y] >> y1 & 1
        return () if related and not rel[fn(x, y)] >> fn(x1, y1) & 1 else None
    return violation


# "x ~ x", "x ~ y and y ~ z give x ~ z", then compatibility
CONGRUENCE = (
    Law("reflexivity", lambda c: ((x,) for x in range(len(c.rel))),
        lambda c, x: None if c.rel[x] >> x & 1 else (),
        holds=lambda c: c.rep is not None or all(m >> x & 1 for x, m in enumerate(c.rel))),
    Law("transitivity", lambda c: (p + (z,) for p in _pairs(c) for z in range(len(c.rel))),
        lambda c, x, y, z: () if c.rel[x] >> y & c.rel[y] >> z & ~c.rel[x] >> z & 1 else None,
        holds=lambda c: (c.rep is not None
                         or all(c.rel[y] & ~m == 0 for m in c.rel for y in iter_bits(m)))),
) + tuple(Law(op, _quads, _compatible(op), holds=_class_level(op))
          for op in ("meet", "join", "mult", "imp"))


def _order_sides(c: _Related, x: int, y: int) -> tuple[bool, bool]:
    """(class(x) <= class(y), ~(x->y) in I), by the class of the meet."""
    alg = c.alg
    return bool(c.rel[x] >> alg.meet(x, y) & 1), bool(c.ideal_bits >> alg.neg(alg.imp(x, y)) & 1)


def _order_mismatch(c, x, y):
    sides = _order_sides(c, x, y)
    return None if sides[0] == sides[1] else sides


def _order_agrees(c: _Related) -> bool:
    """meet(x, y) is related to x exactly where ~(x->y) is in the ideal,
    read off the tables; run only where `lattice_with_imp` holds.  With
    the whole universe as the ideal and as every class, both sides are
    1 at every pair."""
    alg = c.alg
    if not alg.lattice_with_imp:
        return False
    full = (1 << alg.n) - 1
    if c.ideal_bits == full and c.rel.count(full) == alg.n:
        return True
    neg_in = [c.ideal_bits >> v & 1 for v in alg.negs]
    rows = zip(c.rel, alg.order.glbs, alg.imp_table)
    return all(m >> v & 1 == neg_in[w] for m, meets, imp in rows for v, w in zip(meets, imp))


ORDER_CRITERION = (
    Law("order_criterion", lambda c: cube(2)(c.alg), _order_mismatch, holds=_order_agrees),
)


def class_of(cong: Congruence, x: int) -> Subset:
    return cong.classes[cong.class_index[x]]


class QuotientAlgebra(NamedTuple):
    """The sealed class-level algebra plus the projection onto it."""

    base: AlgebraCandidate
    congruence: Congruence
    algebra: FiniteCLAlgebra  # elements are the congruence classes

    @property
    def projection(self) -> tuple[int, ...]:
        return self.congruence.class_index


def build_quotient(alg: AlgebraCandidate, ideal: Ideal,
                   cong: Congruence | None = None) -> QuotientAlgebra:
    """Construct and re-validate the quotient by a certified ideal (a
    sealed base whose validated tables it has is renamed instead; module
    docstring).

    Raises NotACongruence when the ideal induces no congruence,
    and QuotientInvalid when the class order disagrees with the
    membership criterion or the class tables fail full validation.
    The quotient is kept in `alg.memo` for the congruence it was built
    from; a `cong` other than the ideal's own is built afresh.
    """
    if cong is None:
        cong = congruence_from_ideal(alg, ideal)
    if not cong.certificate:
        raise NotACongruence(cong.certificate)
    key = (_sealed_quotient, ideal.bits)
    quot = alg.memo.get(key)
    if quot is None or quot.congruence != cong:
        quot = alg.memo[key] = _sealed_quotient(alg, ideal, cong)
    return quot


def _sealed_quotient(alg: AlgebraCandidate, ideal: Ideal, cong: Congruence) -> QuotientAlgebra:
    # cross-check the meet-derived order against the membership criterion,
    # which reads only the base and the relation
    mismatch = first_violation("order_criterion", ORDER_CRITERION, cong.related(alg, ideal.bits))
    if not mismatch:
        x, y = mismatch.witness[1:3]
        raise QuotientInvalid(
            f"class order disagrees with ideal-membership criterion at "
            f"({alg.name_of(x)}, {alg.name_of(y)})",
            witness=mismatch.witness,
        )

    cidx = cong.class_index
    reps = cong.representatives()
    name = f"{alg.name}_mod_{'_'.join(alg.elements[i] for i in ideal)}"
    names = tuple(f"[{alg.elements[r]}]" for r in reps)
    if len(reps) == alg.n and alg.tables() == getattr(alg, "validated", None):
        # every class a singleton over the tables the sealed base passed with
        return QuotientAlgebra(base=alg, congruence=cong, algebra=renamed(alg, name, names))

    def class_table(table):
        """The class of table[r][r'] over representatives r, r'."""
        return tuple(compose(cidx, compose(row, reps)) for row in compose(table, reps))

    if len(reps) == 1:  # one class: every class table is the one cell 0
        meets = mult = imp = ((0,),)
    else:
        meets, mult, imp = map(class_table, (alg.order.glbs, alg.mult_table, alg.imp_table))
    q_leq = [[v == i for v in row] for i, row in enumerate(meets)]
    q_cand = AlgebraCandidate(
        name=name,
        elements=names,
        order=OrderRelation.from_leq(len(reps), q_leq),
        mult_table=mult,
        imp_table=imp,
        bot=cidx[alg.bot],
        zero=cidx[alg.zero],
        one=cidx[alg.one],
    )
    report = validate(q_cand)
    if report.algebra is None:
        raise QuotientInvalid("quotient tables fail validation", report=report, candidate=q_cand)
    return QuotientAlgebra(base=alg, congruence=cong, algebra=report.algebra)


def check_order_criterion(alg: AlgebraCandidate, ideal: Ideal,
                          x: int, y: int) -> tuple[bool, bool]:
    """Evaluate both sides of: class(x) <= class(y) iff ~(x->y) in I.

    Returned as (left, right) so callers can assert the biconditional.
    """
    return _order_sides(congruence_from_ideal(alg, ideal).related(alg, ideal.bits), x, y)


class ClaimResult(NamedTuple):
    claim: str
    status: str  # "holds" | "violated" | "vacuous" | "blocked"
    witness: tuple | None = None


class TheoremReport(NamedTuple):
    congruence: Congruence
    quotient_valid: bool
    claims: tuple[ClaimResult, ...]

    @property
    def ok(self) -> bool:
        return self.quotient_valid and all(c.status in ("holds", "vacuous") for c in self.claims)


def theorem_suite(alg: AlgebraCandidate, ideal: Ideal) -> TheoremReport:
    """Evaluate the four quotient theorems on one concrete instance:

      distributive ideal  -> quotient lattice is distributive
      prime ideal         -> quotient order is total
      affine ideal        -> quotient top == one
      I == {x : x <= 0}   -> every congruence class is a singleton

    Each claim reports holds, violated (with witness), or vacuous; when
    the quotient itself cannot be built the quotient-dependent claims
    are reported as blocked instead of raising.
    """
    cong = congruence_from_ideal(alg, ideal)
    if not cong.certificate:
        raise NotACongruence(cong.certificate)

    flags = classify(alg, ideal)

    quotient = None
    blocked_witness = None
    try:
        quotient = build_quotient(alg, ideal, cong)
    except QuotientInvalid as exc:
        blocked_witness = exc.witness

    claims = []

    def quotient_claim(name: str, guard: bool, evaluate) -> None:
        if not guard:
            claims.append(ClaimResult(name, "vacuous"))
        elif quotient is None:
            claims.append(ClaimResult(name, "blocked", blocked_witness))
        else:
            witness = evaluate(quotient.algebra)
            status = "holds" if witness is None else "violated"
            claims.append(ClaimResult(name, status, witness))

    quotient_claim(
        "distributive_ideal_distributive_quotient", flags.is_distributive,
        lambda q: first_violation("distributive_lattice", DISTRIBUTIVE_LATTICE, q).witness,
    )
    quotient_claim(
        "prime_ideal_linear_quotient", flags.is_prime,
        lambda q: first_violation("linear", TOTAL, q.order).witness,
    )
    quotient_claim(
        "affine_ideal_residuated_quotient", flags.is_affine,
        lambda q: None if q.top == q.one else (q.top, q.one),
    )

    if not flags.is_zero_downset:
        claims.append(ClaimResult("zero_downset_singleton_classes", "vacuous"))
    else:
        fat = next((c for c in cong.classes if len(c) > 1), None)
        if fat is None:
            claims.append(ClaimResult("zero_downset_singleton_classes", "holds"))
        else:
            claims.append(ClaimResult(
                "zero_downset_singleton_classes", "violated", ("class", fat.bits)
            ))

    return TheoremReport(
        congruence=cong,
        quotient_valid=quotient is not None,
        claims=tuple(claims),
    )


# law -> (context from the algebra and the ideal bits; entries)
LAWS = {"congruence": (_related, CONGRUENCE), "order_criterion": (_related, ORDER_CRITERION)}
