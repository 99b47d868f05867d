"""Ideal-induced congruences and quotient algebras.

x and y are congruent modulo an ideal I when x * ~y and y * ~x both lie
in I.  Nothing is taken on trust: one law, `CONGRUENCE`, certifies that
the relation is an equivalence compatible with every operation, the
quotient is rebuilt from class representatives and re-validated from
scratch, and the class order derived from meets is cross-checked
against the membership criterion ~(x->y) in I.  Each of those
verifications can fail on defective candidates, and each failure is a
first-class reported result rather than an internal error; every
witness is a law's, a theorem claim's included (`CLAIMS`), replayed
from the algebra and the ideal alone.  Only a quotient whose tables are
the ones a sealed base passed validation with (every class a singleton,
as modulo the zero down-set, and the base's tables unchanged since;
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
from types import SimpleNamespace
from typing import NamedTuple

from .core import (AlgebraCandidate, AlgebraError, FiniteCLAlgebra, OrderRelation, iter_bits,
                   memoised)
from .ideals import Ideal, Subset, classify
from .laws import Law, Verdict, compose, cube, first_violation
from .validator import DISTRIBUTIVE_LATTICE, INTEGRAL, TOTAL, ValidationReport, renamed, validate


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
        return tuple((c.bits & -c.bits).bit_length() - 1 for c in self.classes)

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


def _class_view(quotient: FiniteCLAlgebra, cong: Congruence) -> SimpleNamespace:
    """The quotient's order, meet, join and mult read on the base
    elements, each standing for its class (cidx[x]), a value given as
    its class's representative: a quotient law's violation reads it
    unchanged.  As representatives ascend with their classes, its first
    violating base point is the quotient's first witness with each
    class replaced by its representative."""
    cidx, reps = cong.class_index, cong.representatives()

    def on(op):
        return lambda x, y: reps[op(cidx[x], cidx[y])]
    return SimpleNamespace(quotient=quotient, n=len(cidx), meet=on(quotient.meet),
                           join=on(quotient.join), mult=on(quotient.mult),
                           leq=lambda x, y: quotient.leq(cidx[x], cidx[y]))


def _on_classes(alg: AlgebraCandidate, ideal_bits: int) -> SimpleNamespace:
    """The quotient claims' context, the memoised quotient's class view;
    raises what build_quotient raises."""
    quot = build_quotient(alg, Ideal(alg.n, ideal_bits))
    return _class_view(quot.algebra, quot.congruence)


def _on_quotient(laws: tuple[Law, ...], read=lambda q: q) -> tuple[Law, ...]:
    """`laws` of the quotient algebra (of its order, through `read`) read
    on its class view: each entry's whole-table test reads the quotient."""
    return tuple(e._replace(holds=lambda c, test=e.holds: test(read(c.quotient))) for e in laws)


# "x ~ y implies x == y", read on the relation: the witness is the first
# related pair of distinct elements
SINGLETON_CLASSES = (
    Law(None, _pairs, lambda c, x, y: () if x != y and c.rel[x] >> y & 1 else None,
        holds=lambda c: all(m == 1 << x for x, m in enumerate(c.rel))),
)

# theorem claim -> (the classification flag that guards it, the context
# its law reads, built from the algebra and the ideal bits; entries)
CLAIMS = {
    "distributive_ideal_distributive_quotient":
        ("is_distributive", _on_classes, _on_quotient(DISTRIBUTIVE_LATTICE)),
    "prime_ideal_linear_quotient":
        ("is_prime", _on_classes, _on_quotient(TOTAL, lambda q: q.order)),
    "affine_ideal_residuated_quotient": ("is_affine", _on_classes, _on_quotient(INTEGRAL)),
    "zero_downset_singleton_classes": ("is_zero_downset", _related, SINGLETON_CLASSES),
}


class ClaimResult(NamedTuple):
    claim: str
    status: str  # "holds" | "violated" | "vacuous" | "blocked"
    verdict: Verdict  # the claim law's, or the order criterion's where it blocks


class TheoremReport(NamedTuple):
    congruence: Congruence
    quotient_valid: bool
    claims: tuple[ClaimResult, ...]

    @property
    def ok(self) -> bool:
        return self.quotient_valid and all(c.status in ("holds", "vacuous") for c in self.claims)


def theorem_suite(alg: AlgebraCandidate, ideal: Ideal) -> TheoremReport:
    """Evaluate the four quotient theorems on one concrete instance, each
    the law of its name (`CLAIMS`):

      distributive ideal  -> quotient lattice is distributive
      prime ideal         -> quotient order is total
      affine ideal        -> quotient is integral (x*y <= x: top == one)
      I == {x : x <= 0}   -> every congruence class is a singleton

    A claim whose guard fails is vacuous; any other holds or is violated
    by its law's verdict.  When the quotient cannot be built, the claims
    on it are blocked instead of raising, with the order criterion's
    verdict: its mismatch, or a pass where the class tables fail
    validation.  Raises NotACongruence as build_quotient does.
    """
    cong = congruence_from_ideal(alg, ideal)
    contexts = {_related: cong.related(alg, ideal.bits)}
    try:
        contexts[_on_classes] = _class_view(build_quotient(alg, ideal, cong).algebra, cong)
    except QuotientInvalid as exc:
        blocked = Verdict("order_criterion", exc.witness is None, exc.witness)
    flags = classify(alg, ideal)
    claims = []
    for claim, (flag, context, laws) in CLAIMS.items():
        if not getattr(flags, flag):
            claims.append(ClaimResult(claim, "vacuous", Verdict(claim, True)))
        elif context not in contexts:
            claims.append(ClaimResult(claim, "blocked", blocked))
        else:
            verdict = first_violation(claim, laws, contexts[context])
            claims.append(ClaimResult(claim, "holds" if verdict else "violated", verdict))
    return TheoremReport(cong, _on_classes in contexts, tuple(claims))


# law -> (context from the algebra and the ideal bits; entries)
LAWS = {"congruence": (_related, CONGRUENCE), "order_criterion": (_related, ORDER_CRITERION),
        **{claim: (context, laws) for claim, (_flag, context, laws) in CLAIMS.items()}}
