"""Laws as data, and the one first-violation scan every checker runs.

A law is an ordered list of `Law` entries.  Each entry names a witness
kind, the points to scan (in the documented contract order) and a
violation function that returns None where the law holds at a point,
or else the extra witness values (a computed value, a frontier, or
nothing).  The witness of the first violation is the kind tag (when
the entry has one), the point and the extra values, so replay can
re-evaluate the same violation function at the same point.  `Verdict`,
like the package's other result records, is a NamedTuple: a frozen
dataclass is generated afresh at every import, at several times the cost.

Every entry carries an exact test on the whole structure (`Law.holds`,
a required field), and `first_violation` skips the entry exactly when
it is True, so a check scans an entry's points only behind a failing
test, for the witness.  The test returns True only where no point of
the domain violates, on any context, sealed algebra or not, and False
wherever it cannot decide.  The validator's tests decide the structures
they check (a reflexive, antisymmetric or transitive order, every meet
and join, an implication table), and those of a total order and of an
ideal's zero and down-closure read only the order's masks; every other
test first asks `AlgebraCandidate.lattice_with_imp` (a preorder with
every meet and join, and an implication table) and returns False where
it fails.  When the test passes the scan skips the entry; otherwise it
scans all its points in order.  So a scan that runs finds the same
first witness, or raises the same exception at the same point, as the
plain scan (a test always False).  That asks exactness in one direction
only: a test too strict merely runs a scan that passes.  The tests of
the ideal laws (prime, distributive, implicative and the plus/join
closure) are exact both ways where `lattice_with_imp` holds, and no
scan of them raises there; `ideals.classify` (so
`quotient.theorem_suite`, which reads its flags) and
`ideals.all_ideals` (on the at most n principal down-sets, `ideals`
module docstring) rely on that, reading the test alone as the law's
truth and scanning only where `lattice_with_imp` fails.

The cubic whole-table tests run on byte strings, one plane (y, z) per
x: the equations (`associates`, `distributes`), P2_5's comparison and
the value tables of the prime, distributive and implicative ideals.
Every table entry is an element, below MAX_UNIVERSE = 64, so a row fits
in `bytes`, and two C-level primitives cover a plane: a table read
through a row, `flat.translate(translation(row))`, gives row[T[y][z]]
for the table T's rows joined in `flat`; the rows a row selects,
`b"".join(map(rows.__getitem__, row))`, give T[row[y]][z].  So a test
makes about 2n long calls where reading row by row makes n^2 short
ones.  The byte views are built inside each call and kept nowhere.
The rule holds for the two kernels under every test as well: `compose`
reads a row through indices in one `operator.itemgetter` call, and
`OrderRelation.all_leq` maps `operator.getitem` over the order's 0/1
rows, so each order test (a test comparing sides by <=) builds its
whole left and right sides and calls `all_leq` once.

A point law is stated once, as its formula (`formula_law`), in the
notation of the residuated-lattice literature: `~` binds tightest, then
`*`, `&`, `|` and `->` (right-associative), over variables (a letter
and optional digits, such as `x` or `y1`) and the constants `bot`,
`top`, `0` and `1`.  Terms are compared by `<=` or `==`; a comma list
compares each term on one side with each on the other (`x,y <= 1`), or
joins comparisons (`x<=x1, y<=y1`), as `and` does; `implies` and `iff`
bind loosest, to the right, with a whole condition on each side.  The
formula is compiled once into `lambda A, <variables>: None if
<expression> else ()`, the variables in alphabetical order, read
through the context's `mult`, `meet`, `join`, `imp`, `neg` and `leq`.
"""

from __future__ import annotations

import re
from itertools import chain, product
from operator import itemgetter
from typing import Callable, Iterable, NamedTuple


class Verdict(NamedTuple):
    """Outcome of one check; truthy iff the property holds (a tuple
    with entries would always be).

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

    `kind` is None for witnesses without a tag.  `holds` is the entry's
    exact whole-table test: True only where no point of `domain`
    violates, and then the scan skips the entry (module docstring).
    `detail` is the verdict's detail on a violation, or a function of
    (context, *point) computing it.
    """

    kind: str | None
    domain: Callable[[object], Iterable[tuple]]
    violation: Callable[..., tuple | None]
    holds: Callable[[object], bool]
    detail: str | Callable[..., str] = ""

    @property
    def arity(self) -> int:
        """Number of witness entries that locate the point: the positional
        parameters of the violation after the context."""
        return self.violation.__code__.co_argcount - 1


def first_violation(law: str, laws: Iterable[Law], ctx, detail: str = "") -> Verdict:
    """Scan `laws` in order over `ctx`; the verdict carries the first
    violation's witness, or passes with `detail`."""
    for entry in laws:
        if entry.holds(ctx):
            continue
        violation = entry.violation
        for point in entry.domain(ctx):
            extra = violation(ctx, *point)
            if extra is not None:
                witness = point + extra if entry.kind is None else (entry.kind, *point, *extra)
                note = entry.detail(ctx, *point) if callable(entry.detail) else entry.detail
                return Verdict(law, False, witness, note or detail)
    return Verdict(law, True, None, detail)


def compose(row, idx: Iterable[int]) -> tuple:
    """(row[i] for i in idx) as a tuple, for a tuple or bytes `row`: one
    table row read through another, in one itemgetter call (module
    docstring); itemgetter returns no tuple for fewer than two indices."""
    idx = tuple(idx)
    return itemgetter(*idx)(row) if len(idx) > 1 else tuple(row[i] for i in idx)


def translation(row: Iterable[int]) -> bytes:
    """`row` as a `bytes.translate` table: byte v maps to row[v]; the
    one byte primitive of the whole-table tests (module docstring)."""
    return bytes(row).ljust(256, b"\0")


def associates(t, mult, s) -> bool:
    """t(mult(x, y), z) == t(x, s(y, z)) for all x, y, z, for tables
    given as rows; as bytes, one plane (y, z) per x (module docstring):
    the rows of t that mult's row x selects, joined, against s read
    through t's row x."""
    t = tuple(map(bytes, t))
    flat = bytes(chain.from_iterable(s))
    return all(b"".join(map(t.__getitem__, row)) == flat.translate(translation(tx))
               for tx, row in zip(t, mult))


def distributes(f, g) -> bool:
    """f(x, g(y, z)) == g(f(x, y), f(x, z)) for all x, y, z, for tables
    f and g given as rows; as bytes, one plane (y, z) per x (module
    docstring): g read through f's row x, against f's row x read
    through the row of g at each of its values."""
    g = tuple(map(bytes, g))
    flat, through = b"".join(g), tuple(map(translation, g))
    return all(flat.translate(translation(fx)) == b"".join(fx.translate(through[v]) for v in fx)
               for fx in map(bytes, f))


def cube(arity: int) -> Callable[[object], Iterable[tuple]]:
    """All `arity`-tuples of elements, lexicographically."""
    return lambda ctx: product(range(ctx.n), repeat=arity)


# binary operator -> (binding power, context method); `~` binds at 5
_BINARY = {"*": (4, "mult"), "&": (3, "meet"), "|": (2, "join"), "->": (1, "imp")}
_CONSTANTS = {"bot": "A.bot", "top": "A.top", "0": "A.zero", "1": "A.one"}
_RELATIONS = ("<=", "==")


def formula_law(formula: str, holds: Callable[[object], bool]) -> Law:
    """The untagged law over all tuples of its variables that `formula`
    states (module docstring), skipped where `holds` passes.  Any token
    or phrase outside the grammar raises ValueError."""
    tokens, names, at = re.findall(r"->|<=|==|\w+|\S", formula) + [""], set(), 0

    def take(*expected: str) -> str:
        nonlocal at
        token = tokens[at]
        if expected and token not in expected:
            raise ValueError(f"{formula!r}: unexpected {token or 'end'!r}")
        at += 1
        return token

    def term(power: int = 0) -> str:
        token = take()
        if token == "~":
            left = f"A.neg({term(5)})"
        elif token == "(":
            left = term()
            take(")")
        elif token in _CONSTANTS:
            left = _CONSTANTS[token]
        elif re.fullmatch(r"[a-z]\d*", token):
            names.add(token)
            left = token
        else:
            raise ValueError(f"{formula!r}: unexpected {token or 'end'!r}")
        while tokens[at] in _BINARY and _BINARY[tokens[at]][0] > power:
            bp, method = _BINARY[take()]  # a lower bound on the right: -> nests there
            left = f"A.{method}({left}, {term(bp - (method == 'imp'))})"
        return left

    def comparison() -> str:
        nonlocal at
        lhs = [term()]
        while tokens[at] == ",":
            take()
            lhs.append(term())
        relation, rhs = take(*_RELATIONS), [term()]
        while tokens[at] == ",":
            start = at
            take()
            item = term()
            if tokens[at] in _RELATIONS:  # the term opens the next comparison
                at = start
                break
            rhs.append(item)
        return " and ".join(f"A.leq({a}, {b})" if relation == "<=" else f"{a} == {b}"
                            for a in lhs for b in rhs)

    def condition() -> str:
        parts = [comparison()]
        while tokens[at] in (",", "and"):
            take()
            parts.append(comparison())
        both, link = " and ".join(parts), take("implies", "iff", "")
        if link == "iff":
            return f"({both}) == ({condition()})"
        return f"not ({both}) or {condition()}" if link else both

    body = condition()
    variables = ", ".join(["A", *sorted(names)])
    violation = eval(f"lambda {variables}: None if {body} else ()", {"__builtins__": {}})
    return Law(None, cube(len(names)), violation, holds)
