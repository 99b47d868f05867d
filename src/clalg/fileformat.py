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

from .core import MAX_UNIVERSE, NAME, AlgebraCandidate, OrderRelation


class ParseError(Exception):
    def __init__(self, line: int, message: str):
        self.line = line
        self.message = message
        super().__init__(f"line {line}: {message}")


class _Lines:
    """Comment-stripped, non-blank lines with their 1-based numbers."""

    def __init__(self, text: str):
        self.items = []
        for no, raw in enumerate(text.splitlines(), start=1):
            body = raw.split("#", 1)[0].strip()
            if body:
                self.items.append((no, body))
        self.pos = 0
        self.last_no = self.items[-1][0] if self.items else 1

    def peek(self):
        if self.pos < len(self.items):
            return self.items[self.pos]
        return (self.last_no, None)

    def take(self):
        item = self.peek()
        if item[1] is not None:
            self.pos += 1
        return item


def _expect_header(lines: _Lines, keyword: str) -> tuple[int, list[str]]:
    no, body = lines.peek()
    if body is None or not body.startswith(keyword):
        raise ParseError(no, f"{keyword} required")
    lines.take()
    return no, body[len(keyword):].split()


def parse_algebra(text: str) -> AlgebraCandidate:
    lines = _Lines(text)

    no, body = lines.take()
    if body is None or not body.startswith("algebra "):
        raise ParseError(no, "algebra NAME required")
    name_parts = body.split()
    if len(name_parts) != 2 or not NAME.fullmatch(name_parts[1]):
        raise ParseError(no, f"algebra name must be a single {NAME.pattern} token")
    name = name_parts[1]

    no, names = _expect_header(lines, "elements:")
    if not names:
        raise ParseError(no, "at least one element required")
    if len(names) > MAX_UNIVERSE:
        raise ParseError(no, f"universe exceeds {MAX_UNIVERSE} elements")
    seen = set()
    for nm in names:
        if not NAME.fullmatch(nm):
            raise ParseError(no, f"bad element name {nm!r}")
        if nm in seen:
            raise ParseError(no, f"duplicate element name {nm!r}")
        seen.add(nm)
    index = {nm: i for i, nm in enumerate(names)}
    n = len(names)

    def one_name(keyword: str) -> int:
        lno, toks = _expect_header(lines, keyword)
        if len(toks) != 1:
            raise ParseError(lno, f"{keyword} takes exactly one element name")
        if toks[0] not in index:
            raise ParseError(lno, f"unknown element {toks[0]!r}")
        return index[toks[0]]

    bot = one_name("bot:")
    zero = one_name("zero:")
    one = one_name("one:")

    covers = []
    while True:
        lno, body = lines.peek()
        if body is None or not body.startswith("cover:"):
            break
        lines.take()
        toks = body[len("cover:"):].split()
        if len(toks) != 2:
            raise ParseError(lno, "cover: takes exactly two element names")
        for t in toks:
            if t not in index:
                raise ParseError(lno, f"unknown element {t!r}")
        covers.append((index[toks[0]], index[toks[1]]))

    def table(keyword: str):
        lno, toks = _expect_header(lines, keyword)
        if toks:
            raise ParseError(lno, f"{keyword} header takes no entries")
        rows = []
        for r in range(n):
            rno, body = lines.take()
            if body is None:
                raise ParseError(rno, f"{keyword} row {r + 1} missing")
            cells = body.split()
            if len(cells) != n:
                raise ParseError(
                    rno, f"{keyword} row {r + 1} has {len(cells)} entries, expected {n}"
                )
            for c in cells:
                if c not in index:
                    raise ParseError(rno, f"unknown element {c!r}")
            rows.append(tuple(index[c] for c in cells))
        return tuple(rows)

    mult = table("mult:")

    imp = None
    lno, body = lines.peek()
    if body is not None and body.startswith("imp:"):
        imp = table("imp:")

    lno, body = lines.peek()
    if body != "end":
        raise ParseError(lno, "end required")
    lines.take()
    lno, body = lines.peek()
    if body is not None:
        raise ParseError(lno, f"unexpected content after end: {body!r}")

    order = OrderRelation.from_covers(n, covers)
    return AlgebraCandidate(
        name=name, elements=tuple(names), order=order,
        mult_table=mult, imp_table=imp, bot=bot, zero=zero, one=one,
    )


def serialize_algebra(cand: AlgebraCandidate) -> str:
    names = cand.elements
    out = [f"algebra {cand.name}"]
    out.append("elements: " + " ".join(names))
    out.append(f"bot: {names[cand.bot]}")
    out.append(f"zero: {names[cand.zero]}")
    out.append(f"one: {names[cand.one]}")
    for lo, hi in cand.order.covers():
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
    for lo, hi in alg.order.covers():
        out.append(f'  "{names[lo]}" -> "{names[hi]}";')
    out.append("}")
    return "\n".join(out) + "\n"
