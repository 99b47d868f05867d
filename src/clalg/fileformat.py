"""The `.cla` algebra file format, plus DOT export.

Grammar (line oriented, `#` starts a comment, sections in this order):

    algebra NAME
    elements: id id ...
    bot: id
    zero: id
    one: id
    cover: lo hi          # one line per Hasse edge, zero or more
    mult:
    <n rows of n ids>
    imp:                  # optional, same shape as mult
    <n rows of n ids>
    end

Identifiers are runs of ASCII letters, digits, `_`, `[` and `]`
(`core.NAME`, the only names a candidate takes, a quotient's `[rep]`
classes among them).  serialize_algebra emits the canonical form of
this grammar (covers sorted by index pair), so parse o serialize is the
identity on parsed values and on canonically written files.  The order
need not be antisymmetric: elements that are each below the other get
a cover edge in both directions, so a cyclic order is written as edges
whose closure is the same relation.
"""

from __future__ import annotations

from operator import itemgetter

from .core import MAX_UNIVERSE, NAME, AlgebraCandidate, OrderRelation


class ParseError(Exception):
    def __init__(self, line: int, message: str):
        self.line = line
        self.message = message
        super().__init__(f"line {line}: {message}")


def parse_algebra(text: str) -> AlgebraCandidate:
    # the comment-stripped, non-blank lines with their 1-based numbers, then
    # an end marker at the last line's number: a missing line is reported there
    lines = [(no, body) for no, raw in enumerate(text.splitlines(), start=1)
             if (body := raw.split("#", 1)[0].strip())]
    lines.append((lines[-1][0] if lines else 1, None))
    pos = 0

    def take(keyword: str) -> tuple[int, list[str]]:
        """The next line, which must start with `keyword`: its number and
        the tokens after the keyword."""
        nonlocal pos
        no, body = lines[pos]
        if not (body or "").startswith(keyword):
            raise ParseError(no, "algebra NAME required" if keyword == "algebra "
                             else f"{keyword} required")
        pos += 1
        return no, body[len(keyword):].split()

    def indices(no: int, names: list[str]) -> tuple[int, ...]:
        """The indices of one or more names; of several unknown names the
        first is reported, as itemgetter looks them up in order."""
        try:
            found = itemgetter(*names)(index)
        except KeyError as exc:
            raise ParseError(no, f"unknown element {exc.args[0]!r}") from None
        return found if len(names) > 1 else (found,)

    no, toks = take("algebra ")
    if len(toks) != 1 or not NAME.fullmatch(toks[0]):
        raise ParseError(no, f"algebra name must be a single {NAME.pattern} token")
    name = toks[0]

    no, names = take("elements:")
    if not names:
        raise ParseError(no, "at least one element required")
    if len(names) > MAX_UNIVERSE:
        raise ParseError(no, f"universe exceeds {MAX_UNIVERSE} elements")
    index: dict[str, int] = {}
    for nm in names:
        if not NAME.fullmatch(nm):
            raise ParseError(no, f"bad element name {nm!r}")
        if nm in index:
            raise ParseError(no, f"duplicate element name {nm!r}")
        index[nm] = len(index)
    n = len(names)

    def one_name(keyword: str) -> int:
        no, toks = take(keyword)
        if len(toks) != 1:
            raise ParseError(no, f"{keyword} takes exactly one element name")
        return indices(no, toks)[0]

    bot, zero, one = one_name("bot:"), one_name("zero:"), one_name("one:")

    covers = []
    while (lines[pos][1] or "").startswith("cover:"):
        no, toks = take("cover:")
        if len(toks) != 2:
            raise ParseError(no, "cover: takes exactly two element names")
        covers.append(indices(no, toks))

    def table(keyword: str) -> tuple[tuple[int, ...], ...]:
        nonlocal pos
        no, toks = take(keyword)
        if toks:
            raise ParseError(no, f"{keyword} header takes no entries")
        rows = []
        for r in range(1, n + 1):
            no, body = lines[pos]
            if body is None:
                raise ParseError(no, f"{keyword} row {r} missing")
            pos += 1
            cells = body.split()
            if len(cells) != n:
                raise ParseError(no, f"{keyword} row {r} has {len(cells)} entries, expected {n}")
            rows.append(indices(no, cells))
        return tuple(rows)

    mult = table("mult:")
    imp = table("imp:") if (lines[pos][1] or "").startswith("imp:") else None

    no, body = lines[pos]
    if body != "end":
        raise ParseError(no, "end required")
    no, body = lines[pos + 1]
    if body is not None:
        raise ParseError(no, f"unexpected content after end: {body!r}")

    return AlgebraCandidate(
        name=name, elements=tuple(names), order=OrderRelation.from_covers(n, covers),
        mult_table=mult, imp_table=imp, bot=bot, zero=zero, one=one,
    )


def serialize_algebra(cand: AlgebraCandidate) -> str:
    names = cand.elements
    out = [f"algebra {cand.name}"]
    out.append("elements: " + " ".join(names))
    out.append(f"bot: {names[cand.bot]}")
    out.append(f"zero: {names[cand.zero]}")
    out.append(f"one: {names[cand.one]}")
    for lo, hi in cand.order.covers:
        out.append(f"cover: {names[lo]} {names[hi]}")
    out.append("mult:")
    for row in cand.mult_table:
        out.append(" ".join(names[v] for v in row))
    if cand.imp_table is not None:
        out.append("imp:")
        for row in cand.imp_table:
            out.append(" ".join(names[v] for v in row))
    out.append("end")
    return "\n".join(out) + "\n"


def export_dot(alg) -> str:
    """DOT text of the Hasse diagram, covering edges only, bottom-up.

    `alg` is an AlgebraCandidate, a FiniteCLAlgebra, or a
    quotient.QuotientAlgebra (detected by its `algebra` attribute, in
    which case class member sets are annotated on the nodes).
    """
    members = ()
    if hasattr(alg, "algebra") and hasattr(alg, "congruence"):
        members = [" = " + cls.render(alg.base) for cls in alg.congruence.classes]
        alg = alg.algebra

    names = alg.elements
    tags: dict[int, list[str]] = {}
    for label, x in (("bot", alg.bot), ("zero", alg.zero), ("one", alg.one)):
        tags.setdefault(x, []).append(label)
    top = getattr(alg, "top", None)
    if top is not None:
        tags.setdefault(top, []).append("top")

    out = [f'digraph "{alg.name}" {{', "  rankdir=BT;"]
    for i, nm in enumerate(names):
        label = nm
        if i in tags:
            label += " (" + ",".join(tags[i]) + ")"
        if members:
            label += members[i]
        out.append(f'  "{nm}" [label="{label}"];')
    for lo, hi in alg.order.covers:
        out.append(f'  "{names[lo]}" -> "{names[hi]}";')
    out.append("}")
    return "\n".join(out) + "\n"
