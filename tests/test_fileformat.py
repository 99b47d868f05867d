import pytest
from hypothesis import given, settings, strategies as st

from clalg.core import AlgebraCandidate, OrderRelation
from clalg.fileformat import ParseError, export_dot, parse_algebra, serialize_algebra
from clalg.fixtures import LINEAR_CLA, NONLINEAR_CLA
from clalg.ideals import Subset, all_ideals, certify_ideal
from clalg.quotient import build_quotient
from clalg.validator import is_linear


def test_parse_linear_structure():
    cand = parse_algebra(LINEAR_CLA)
    assert cand.name == "linear5"
    assert cand.elements == ("bot", "0", "1", "a", "top")
    assert (cand.bot, cand.zero, cand.one) == (0, 1, 2)
    assert is_linear(cand)
    assert cand.mult_table[3][3] == 1  # a*a = 0
    assert cand.imp_table[3][1] == 3  # a->0 = a


def test_parse_nonlinear_structure():
    cand = parse_algebra(NONLINEAR_CLA)
    assert cand.n == 6
    assert not is_linear(cand)
    assert len(cand.order.covers) == 6


# every line names a single element
ONE_ELEMENT_CLA = ("algebra one\nelements: e0\nbot: e0\nzero: e0\none: e0\n"
                   "mult:\ne0\nimp:\ne0\nend\n")


@pytest.mark.parametrize("text", [LINEAR_CLA, NONLINEAR_CLA, ONE_ELEMENT_CLA])
def test_round_trip_value_and_text(text):
    cand = parse_algebra(text)
    assert serialize_algebra(cand) == text  # fixtures are canonically written
    assert parse_algebra(serialize_algebra(cand)) == cand


def test_round_trip_without_imp():
    text = LINEAR_CLA.split("imp:")[0] + "end\n"
    cand = parse_algebra(text)
    assert cand.imp_table is None
    assert parse_algebra(serialize_algebra(cand)) == cand


def test_comments_and_blank_lines_are_ignored():
    text = "# header comment\n\n" + LINEAR_CLA.replace(
        "zero: 0", "zero: 0   # designated"
    )
    assert parse_algebra(text) == parse_algebra(LINEAR_CLA)


def _expect_error(text, fragment, line=None):
    with pytest.raises(ParseError) as exc:
        parse_algebra(text)
    assert fragment in exc.value.message
    if line is not None:
        assert exc.value.line == line


def test_parse_errors():
    _expect_error("", "algebra NAME required")
    _expect_error("algebra x\nelements: a a\nbot: a\nzero: a\none: a\nmult:\na\nend\n",
                  "duplicate element name", line=2)
    _expect_error("algebra x\nelements: a b!\n", "bad element name")
    missing_one = LINEAR_CLA.replace("one: 1\n", "")
    _expect_error(missing_one, "one: required", line=5)
    _expect_error(LINEAR_CLA.replace("cover: bot 0", "cover: bot zz"),
                  "unknown element 'zz'", line=6)
    _expect_error(LINEAR_CLA.replace("cover: bot 0", "cover: bot"),
                  "exactly two element names")
    ragged = LINEAR_CLA.replace("bot 0 1 a top\nbot 0 a 0 top",
                                "bot 0 1 a top\nbot 0 a 0")
    _expect_error(ragged, "has 4 entries, expected 5")
    _expect_error(LINEAR_CLA.replace("end\n", ""), "end required")
    _expect_error(LINEAR_CLA + "trailing\n", "unexpected content after end")
    _expect_error(LINEAR_CLA.replace("mult:", "mul:"), "mult: required")


@pytest.mark.parametrize("old, new, line, message", [
    ("algebra linear5", "algebra linear 5", 1,
     r"algebra name must be a single [A-Za-z0-9_\[\]]+ token"),
    ("algebra linear5", "algebra b!", 1,
     r"algebra name must be a single [A-Za-z0-9_\[\]]+ token"),
    ("elements: bot 0 1 a top", "elements: [bot] 0 1 a{b} top", 2,
     "bad element name 'a{b}'"),
    ("elements: bot 0 1 a top", "elements:", 2, "at least one element required"),
    ("elements: bot 0 1 a top", "elements: " + " ".join(f"e{i}" for i in range(65)), 2,
     "universe exceeds 64 elements"),
    ("zero: 0", "zero: 0 1", 4, "zero: takes exactly one element name"),
    ("one: 1", "one: zz", 5, "unknown element 'zz'"),
    ("mult:", "mult: bot", 10, "mult: header takes no entries"),
    ("imp:\ntop top top top top\nbot 1 1 1 top\nbot 0 1 a top\nbot a 1 1 top\n"
     "bot bot bot bot top\nend\n", "imp:\ntop top top top top\n", 17, "imp: row 2 missing"),
    # a missing line is reported at the last line read, an empty text at line 1
    ("end\n", "", 21, "end required"),
    ("end\n", "end\n\n# after\nend trailing\n", 25, "unexpected content after end: 'end trailing'"),
    (LINEAR_CLA[LINEAR_CLA.index("bot:"):], "", 2, "bot: required"),
    (LINEAR_CLA[LINEAR_CLA.index("bot 0 a 0 top"):], "", 13, "mult: row 4 missing"),
    (LINEAR_CLA, "", 1, "algebra NAME required"),
    (LINEAR_CLA, "# comments only\n\n# and blanks\n", 1, "algebra NAME required"),
    ("bot 0 0 0 top", "bot 0 zz 0 top", 12, "unknown element 'zz'"),
    ("cover: bot 0", "cover: zz", 6, "cover: takes exactly two element names"),
    ("bot 0 a 0 top", "bot 0 a 0", 14, "mult: row 4 has 4 entries, expected 5"),
    ("bot 0 a 0 top", "bot 0 a 0 zz top", 14, "mult: row 4 has 6 entries, expected 5"),
    ("elements: bot 0 1 a top", "elements: bot 0 bot a! top", 2, "duplicate element name 'bot'"),
    ("imp:", "imp: top", 16, "imp: header takes no entries"),
    ("end", "end extra", 22, "end required"),
    ("cover: 1 top\n", "cover: 1 top\nbot: bot\n", 9, "mult: required"),
    ("bot: bot", "bot: zz", 3, "unknown element 'zz'"),
    ("cover: bot 0", "cover: bot zz", 6, "unknown element 'zz'"),
    # of two unknown names in a row, the first is reported
    ("bot 0 0 0 top", "bot yy 0 zz top", 12, "unknown element 'yy'"),
])
def test_parse_error_names_line_and_fault(old, new, line, message):
    assert old in LINEAR_CLA
    with pytest.raises(ParseError) as exc:
        parse_algebra(LINEAR_CLA.replace(old, new))
    assert (exc.value.line, exc.value.message) == (line, message)


def test_quotients_read_back_as_printed(census):
    # a quotient's elements are named [rep] after its classes, and a quotient
    # of a quotient is named after the first quotient
    firsts = [build_quotient(alg, ideal).algebra
              for n in sorted(census) for alg in census[n] for ideal in all_ideals(alg)]
    seconds = [build_quotient(q, ideal).algebra for q in firsts for ideal in all_ideals(q)]
    assert (len(firsts), len(seconds)) == (75, 126)
    assert "cl5_l4_7_mod_e0_e1_e2_e3_e4_mod_[e0]" in {q.name for q in seconds}
    for q in firsts + seconds:
        assert parse_algebra(serialize_algebra(q)) == q.as_candidate(), q.name


def test_error_line_numbers_point_at_the_offender():
    bad = LINEAR_CLA.replace("imp:\ntop top top top top",
                             "imp:\ntop top top top zz")
    with pytest.raises(ParseError) as exc:
        parse_algebra(bad)
    assert exc.value.line == 17
    assert "unknown element 'zz'" in exc.value.message


def test_export_dot_edge_counts(linear5_candidate, nonlinear6):
    dot1 = export_dot(linear5_candidate)
    dot2 = export_dot(nonlinear6)
    assert dot1.count(" -> ") == 4
    assert dot2.count(" -> ") == 6
    assert '"bot" [label="bot (bot)"]' in dot1
    assert '"0" [label="0 (zero)"]' in dot1
    assert '"1" [label="1 (one)"]' in dot1


def test_export_dot_marks_top_on_sealed(linear5):
    dot = export_dot(linear5)
    assert '"top" [label="top (top)"]' in dot


def test_export_dot_quotient(linear5):
    ideal = certify_ideal(linear5, Subset.from_names(linear5, "bot,a,0,1"))
    quot = build_quotient(linear5, ideal)
    dot = export_dot(quot)
    assert dot.count(" -> ") == 2  # three-class chain
    assert '"[0]" [label="[0] (zero,one) = {0,1,a}"]' in dot


names_st = st.integers(1, 5).map(lambda n: tuple(f"e{i}" for i in range(n)))


@st.composite
def candidates(draw):
    names = draw(names_st)
    n = len(names)
    covers = draw(st.lists(
        st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda p: p[0] < p[1]),
        max_size=8,
    ))

    def table():
        return tuple(
            tuple(draw(st.integers(0, n - 1)) for _ in range(n)) for _ in range(n)
        )

    return AlgebraCandidate(
        name=draw(st.sampled_from(["g1", "g2", "zed"])),
        elements=names,
        order=OrderRelation.from_covers(n, covers),
        mult_table=table(),
        imp_table=table() if draw(st.booleans()) else None,
        bot=draw(st.integers(0, n - 1)),
        zero=draw(st.integers(0, n - 1)),
        one=draw(st.integers(0, n - 1)),
    )


@settings(max_examples=60, deadline=None)
@given(candidates())
def test_round_trip_random_candidates(cand):
    assert parse_algebra(serialize_algebra(cand)) == cand


@st.composite
def edge_lists(draw):
    n = draw(st.integers(1, 6))
    node = st.integers(0, n - 1)
    return n, draw(st.lists(st.tuples(node, node), max_size=10))


@settings(max_examples=200, deadline=None)
@given(edge_lists())
def test_round_trip_keeps_any_closed_order(case):
    # edges in both directions make a cycle: the order is only a preorder
    n, edges = case
    cand = AlgebraCandidate(
        name="g", elements=tuple(f"e{i}" for i in range(n)),
        order=OrderRelation.from_covers(n, edges),
        mult_table=((0,) * n,) * n, imp_table=None, bot=0, zero=0, one=0,
    )
    assert parse_algebra(serialize_algebra(cand)).order == cand.order


LINEAR_LINES = LINEAR_CLA.splitlines()
JUNK = st.one_of(st.text(max_size=16), st.sampled_from(LINEAR_LINES))


@st.composite
def mangled_texts(draw):
    """LINEAR_CLA with lines replaced, inserted or dropped, or its lines
    shuffled together with arbitrary strings."""
    if draw(st.booleans()):
        return "\n".join(draw(st.lists(JUNK, max_size=30)))
    lines = list(LINEAR_LINES)
    for _ in range(draw(st.integers(1, 4))):
        i = draw(st.integers(0, len(lines) - 1))
        edit = draw(st.sampled_from(("replace", "insert", "drop")))
        if edit == "drop":
            del lines[i]
        else:
            lines[i:i + (edit == "replace")] = [draw(JUNK)]
    return "\n".join(lines) + "\n"


@settings(max_examples=300, deadline=None)
@given(mangled_texts())
def test_parser_fuzz_yields_candidate_or_parse_error(text):
    try:
        cand = parse_algebra(text)
    except ParseError:
        return
    assert isinstance(cand, AlgebraCandidate)
