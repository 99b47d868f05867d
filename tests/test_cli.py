import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import clalg
from clalg.cli import _build_parser, run_command
from clalg.core import ImplicationAbsent
from clalg.fileformat import parse_algebra, serialize_algebra
from clalg.fixtures import LINEAR_CLA, NONLINEAR_CLA
from clalg.quotient import ClaimResult, theorem_suite
from clalg.search import SearchConfig, run_search


def run(capsys, *argv):
    code = run_command(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_validate_linear(capsys, ex1_path):
    code, out, _ = run(capsys, "validate", str(ex1_path))
    assert code == 0
    assert out.count(": pass") == 4
    assert "result: CL-algebra" in out
    assert "top: top" in out


def test_validate_nonlinear_prints_witness(capsys, ex2_path):
    code, out, _ = run(capsys, "validate", str(ex2_path))
    assert code == 1
    assert "check residuation: FAIL" in out
    assert "['adjunction', '1', 'b', '0']" in out


def test_validate_json_schema(capsys, ex1_path):
    code, out, _ = run(capsys, "validate", str(ex1_path), "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["schema_version"] == 1
    assert payload["command"][0] == "validate"
    assert payload["exit_code"] == 0
    assert [v["status"] for v in payload["verdicts"]] == ["pass"] * 4
    assert payload["flags"]["is_linear"] is True
    assert "timing_ms" in payload
    assert list(payload)[:2] == ["schema_version", "command"]


def test_json_records_keep_their_field_order(capsys, ex1_path, ex2_path):
    _, out, _ = run(capsys, "validate", str(ex1_path), "--json")
    assert list(json.loads(out)["flags"]) == [
        "is_linear", "is_distributive_lattice", "is_idempotent", "is_residuated_lattice"]
    _, out, _ = run(capsys, "ideals", str(ex2_path), "--classify", "--json")
    assert [list(entry["classification"]) for entry in json.loads(out)["ideals"]] == [[
        "is_prime", "is_distributive", "is_implicative", "is_affine", "is_zero_downset"]] * 4


def test_replay_confirms_witnesses(capsys, ex2_path):
    code, out, _ = run(capsys, "validate", str(ex2_path), "--replay")
    assert code == 1
    assert "replay=confirmed" in out


def test_unreproducible_witness_is_reported_and_fails(capsys, monkeypatch, ex2_path):
    monkeypatch.setattr("clalg.cli.confirm_witness", lambda *args: False)
    code, out, _ = run(capsys, "validate", str(ex2_path), "--replay", "--json")
    assert code == 1
    assert [v.get("replay") for v in json.loads(out)["verdicts"]] == [
        None, None, "NOT REPRODUCIBLE", None]
    code, out, _ = run(capsys, "validate", str(ex2_path), "--replay")
    assert code == 1
    assert ("check residuation: FAIL  witness=['adjunction', '1', 'b', '0']"
            "  [x <= imp(y,z) but not mult(x,y) <= z]  replay=NOT REPRODUCIBLE") in out


def test_derive_imp(capsys, ex1_path, ex2_path):
    code, out, _ = run(capsys, "derive-imp", str(ex1_path))
    assert code == 0
    assert "matches the derived table" in out

    code, out, _ = run(capsys, "derive-imp", str(ex2_path), "--json")
    assert code == 1
    payload = json.loads(out)
    assert len(payload["mismatches"]) == 6
    assert all(m["derived"] == "b" for m in payload["mismatches"])


def test_identities_command(capsys, ex1_path, ex2_path):
    code, out, _ = run(capsys, "identities", str(ex1_path))
    assert code == 0
    assert out.count(": pass") == 17
    assert "17/17" in out

    code, out, _ = run(capsys, "identities", str(ex2_path))
    assert code == 1
    assert "not a CL-algebra" in out


def test_ideals_listing_and_classification(capsys, ex2_path):
    code, out, _ = run(capsys, "ideals", str(ex2_path))
    assert code == 0
    assert "4 ideals" in out
    assert "ideal {bot,0,1}" in out

    code, out, _ = run(capsys, "ideals", str(ex2_path), "--classify")
    assert code == 0
    line = next(l for l in out.splitlines() if l.startswith("ideal {bot,0,1} "))
    assert "is_prime=False" in line


def test_ideals_generate(capsys, ex2_path):
    code, out, _ = run(capsys, "ideals", str(ex2_path), "--generate", "b")
    assert code == 0
    assert "generated ideal: {bot,0,1,b}" in out


def test_quotient_verify(capsys, ex1_path):
    code, out, _ = run(capsys, "quotient", str(ex1_path), "--ideal", "bot,0", "--verify")
    assert code == 0
    assert "5 classes" in out
    assert "check congruence: pass" in out.splitlines()
    assert "passes validation" in out


def test_quotient_incompatible_ideal(capsys, ex2_path):
    code, out, _ = run(capsys, "quotient", str(ex2_path), "--ideal", "bot,0,1", "--replay")
    assert code == 1
    assert ("check congruence: FAIL  witness=['mult', '0', '1', 'b', 'b']  replay=confirmed"
            in out.splitlines())


def test_quotient_invalid_reported(capsys, ex2_path):
    code, out, _ = run(capsys, "quotient", str(ex2_path), "--ideal", "bot,0", "--verify")
    assert code == 1
    assert "quotient invalid" in out


def test_quotient_dot_output(capsys, ex1_path, tmp_path):
    target = tmp_path / "q.dot"
    code, out, _ = run(capsys, "quotient", str(ex1_path), "--ideal", "bot,0,a,1",
                       "--dot", str(target))
    assert code == 0
    text = target.read_text()
    assert text.count(" -> ") == 2
    assert "[bot]" in text


def test_theorems_command(capsys, ex1_path, ex2_path):
    code, out, _ = run(capsys, "theorems", str(ex1_path), "--ideal", "bot,0,a,1")
    assert code == 0
    assert "prime_ideal_linear_quotient: holds" in out

    code, out, _ = run(capsys, "theorems", str(ex2_path), "--ideal", "bot,0")
    assert code == 1
    assert "quotient valid: False" in out


def test_violated_zero_downset_claim_is_printed(capsys, tmp_path):
    chain = run_search(SearchConfig(size=3)).algebras[0]
    assert chain.name == "cl3_l0_0"
    path = tmp_path / "zero_at_top.cla"
    path.write_text(serialize_algebra(chain).replace("zero: e0", "zero: e2"), encoding="utf-8")
    witness = ["class", "{e0,e1,e2}"]
    code, out, _ = run(capsys, "theorems", str(path), "--ideal", "e0,e1,e2")
    assert code == 1
    assert f"claim zero_downset_singleton_classes: violated  witness={witness}" in out
    code, out, _ = run(capsys, "theorems", str(path), "--ideal", "e0,e1,e2", "--json")
    claims = json.loads(out)["theorems"]["claims"]
    assert code == 1 and claims[-1] == {"claim": "zero_downset_singleton_classes",
                                        "status": "violated", "witness": witness}


def test_printed_quotient_reads_back(capsys, ex1_path):
    code, out, _ = run(capsys, "quotient", str(ex1_path), "--ideal", "bot,0,a,1",
                       "--verify", "--json")
    assert code == 0
    assert parse_algebra(json.loads(out)["quotient"]["text"]).elements == ("[bot]", "[0]", "[top]")


def test_violated_quotient_claim_names_its_classes(capsys, monkeypatch, ex1_path):
    # no census algebra or small mutant violates a quotient claim, so one is
    # stubbed in: its witness indexes quotient classes, printed as [rep]
    def violated(alg, ideal):
        report = theorem_suite(alg, ideal)
        claims = list(report.claims)
        claims[1] = ClaimResult("prime_ideal_linear_quotient", "violated", (2, 0))
        return report._replace(claims=tuple(claims))

    monkeypatch.setattr("clalg.cli.theorem_suite", violated)
    code, out, _ = run(capsys, "theorems", str(ex1_path), "--ideal", "bot,0,a,1", "--json")
    assert code == 1
    assert json.loads(out)["theorems"]["claims"][1] == {
        "claim": "prime_ideal_linear_quotient", "status": "violated",
        "witness": ["[top]", "[bot]"]}
    code, out, _ = run(capsys, "theorems", str(ex1_path), "--ideal", "bot,0,a,1")
    assert code == 1
    assert "claim prime_ideal_linear_quotient: violated  witness=['[top]', '[bot]']" in out


def test_search_command(capsys):
    code, out, _ = run(capsys, "search", "--size", "3")
    assert code == 0
    assert "size 3 lattice 0 count 2" in out
    assert "total 2" in out
    assert out.count("algebra cl3_") == 2

    code, out2, _ = run(capsys, "search", "--size", "3", "--count-only")
    assert code == 0
    assert "total 2" in out2
    assert "algebra" not in out2


def test_search_json_is_stable(capsys):
    _, out1, _ = run(capsys, "search", "--size", "3", "--json")
    _, out2, _ = run(capsys, "search", "--size", "3", "--json")
    a, b = json.loads(out1), json.loads(out2)
    a.pop("timing_ms"), b.pop("timing_ms")
    assert a == b
    assert a["stats"] == {"lattices": 1, "with_involution": 1, "roots": 2, "nodes": 4,
                          "values_checked": 2, "tables": 2, "keys": 2, "dedup_hits": 0}


def test_export_dot_command(capsys, ex2_path, tmp_path):
    code, out, _ = run(capsys, "export-dot", str(ex2_path))
    assert code == 0
    assert out.count(" -> ") == 6

    target = tmp_path / "h.dot"
    code, out, _ = run(capsys, "export-dot", str(ex2_path), "-o", str(target))
    assert code == 0
    assert target.read_text().count(" -> ") == 6


def test_parse_error_exit_2(capsys, tmp_path):
    bad = tmp_path / "bad.cla"
    bad.write_text("algebra x\nelements: a\n", encoding="utf-8")
    code, _, err = run(capsys, "validate", str(bad))
    assert code == 2
    assert "line 2" in err or "line 3" in err


def test_usage_errors_exit_2(capsys, ex1_path):
    assert run(capsys, "validate")[0] == 2  # missing file argument
    assert run(capsys, "search", "--size", "11")[0] == 2
    assert run(capsys, "search", "--size", "3", "--max-results", "-1")[0] == 2
    assert run(capsys, "quotient", str(ex1_path), "--ideal", "bot,zz")[0] == 2
    assert run(capsys, "validate", "/nonexistent/x.cla")[0] == 2
    assert run(capsys)[0] == 2  # no subcommand
    assert run(capsys, "frobnicate", str(ex1_path))[0] == 2
    # an unknown option after a subcommand is reported with that subcommand's usage
    code, _, err = run(capsys, "validate", str(ex1_path), "--bogus")
    assert code == 2
    assert "usage: clalg validate" in err
    assert "unrecognized arguments: --bogus" in err


def test_every_subcommand_has_a_handler():
    # run_command parses with the subcommand's own parser, so each one must
    # name the function that runs it
    _parser, subcommands = _build_parser()
    handlers = {name: sub.get_default("handler") for name, sub in subcommands.items()}
    assert all(callable(h) for h in handlers.values()), handlers
    assert len(set(handlers.values())) == len(handlers) == 8


def test_missing_file_message(capsys, tmp_path):
    code, _, err = run(capsys, "validate", "/nonexistent/x.cla")
    assert code == 2
    assert "cannot read" in err
    code, out, err = run(capsys, "validate", str(tmp_path))  # a directory
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: cannot read {tmp_path}: ")


def test_undecodable_file_is_usage_error(capsys, tmp_path):
    bad = tmp_path / "latin.cla"
    bad.write_bytes(b"\xff\xfe algebra x\n")
    code, out, err = run(capsys, "validate", str(bad))
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: cannot read {bad}: ")


@pytest.mark.parametrize("command", [
    ["validate"], ["ideals"], ["quotient", "--ideal", "bot,0,1,a"], ["export-dot"],
])
def test_byte_order_mark_is_skipped(capsys, tmp_path, ex1_path, command):
    # some editors start a UTF-8 file with a byte-order mark, and some end
    # lines with CRLF or a lone CR; each reads as the plain file
    name, *options = command
    expected = run(capsys, name, str(ex1_path), *options)
    assert expected[0] == 0
    text = LINEAR_CLA.encode("utf-8")
    crlf = text.replace(b"\n", b"\r\n")
    for variant, data in [("bom", b"\xef\xbb\xbf" + text), ("crlf", crlf),
                          ("bom_crlf", b"\xef\xbb\xbf" + crlf),
                          ("cr", text.replace(b"\n", b"\r"))]:
        path = tmp_path / f"linear5_{variant}.cla"
        path.write_bytes(data)
        assert run(capsys, name, str(path), *options) == expected, variant
    # a parse error is reported at the line number of the LF file
    broken = text.replace(b"one: 1", b"one: zz")
    lf, bom_crlf = tmp_path / "broken_lf.cla", tmp_path / "broken_bom_crlf.cla"
    lf.write_bytes(broken)
    bom_crlf.write_bytes(b"\xef\xbb\xbf" + broken.replace(b"\n", b"\r\n"))
    reported = (2, "", "error: line 5: unknown element 'zz'\n")
    assert run(capsys, name, str(lf), *options) == reported
    assert run(capsys, name, str(bom_crlf), *options) == reported


@pytest.mark.parametrize("argv", [
    ["export-dot", "{file}", "-o", "{target}"],
    ["quotient", "{file}", "--ideal", "bot,0", "--dot", "{target}"],
], ids=["export-dot", "quotient"])
def test_unwritable_output_is_usage_error(capsys, ex1_path, tmp_path, argv):
    target = tmp_path / "missing" / "x.dot"
    code, out, err = run(capsys, *(a.format(file=ex1_path, target=target) for a in argv))
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: cannot write {target}: ")


def test_empty_ideal_list_is_usage_error(capsys, ex1_path):
    code, _, err = run(capsys, "quotient", str(ex1_path), "--ideal", "")
    assert code == 2


def test_underivable_implication_is_property_failure(capsys, tmp_path):
    # meet-fusion on the diamond with three atoms has no residual
    text = (
        "algebra m3\n"
        "elements: o p q r i\n"
        "bot: o\nzero: o\none: i\n"
        "cover: o p\ncover: o q\ncover: o r\n"
        "cover: p i\ncover: q i\ncover: r i\n"
        "mult:\n"
        "o o o o o\n"
        "o p o o p\n"
        "o o q o q\n"
        "o o o r r\n"
        "o p q r i\n"
        "end\n"
    )
    f = tmp_path / "m3.cla"
    f.write_text(text, encoding="utf-8")
    code, _, err = run(capsys, "ideals", str(f))
    assert code == 1
    assert "property failure" in err


def test_theorems_blocked_witness_names_base_elements(capsys, tmp_path):
    # the order-criterion mismatch (x, y, left, right) names base
    # elements and keeps its two bools; x and y are not quotient classes
    alg = next(a for a in run_search(SearchConfig(size=6)).algebras if a.name == "cl6_l4_0")
    text = serialize_algebra(alg).replace("mult:", "cover: e1 e2\nmult:", 1)
    path = tmp_path / "mutant.cla"
    path.write_text(text, encoding="utf-8")
    code, out, _ = run(capsys, "theorems", str(path), "--ideal", "e0,e1", "--json")
    assert code == 1
    claim = json.loads(out)["theorems"]["claims"][0]
    assert claim["status"] == "blocked"
    assert claim["witness"] == ["order_criterion", "e1", "e2", True, False]
    code, out, _ = run(capsys, "theorems", str(path), "--ideal", "e0,e1")
    assert code == 1
    assert "witness=['order_criterion', 'e1', 'e2', True, False]" in out


def _without_imp(text):
    return text.split("imp:")[0] + "end\n"


_ASSOC_BROKEN = LINEAR_CLA.replace("bot 0 a 0 top", "bot 0 a top top", 1)  # a*a = top

# every subcommand on each variant must report, never raise
CONTRACT_VARIANTS = {
    "no_imp": _without_imp(LINEAR_CLA),
    "cyclic_order": LINEAR_CLA.replace("cover: a 1\n", "cover: a 1\ncover: a 0\n"),
    "dropped_cover": LINEAR_CLA.replace("cover: a 1\n", ""),
    "assoc_broken": _ASSOC_BROKEN,
    "assoc_broken_no_imp": _without_imp(_ASSOC_BROKEN),
    "nonlinear6": NONLINEAR_CLA,
}

CONTRACT_COMMANDS = {
    "validate": ["--replay"],
    "derive-imp": ["--replay"],
    "identities": ["--replay"],
    "ideals": ["--classify", "--replay"],
    "quotient": ["--ideal", "bot,0", "--verify", "--replay"],
    "theorems": ["--ideal", "bot,0", "--replay"],
    "search": None,
    "export-dot": ["--replay"],
}

# a known fault, not mended yet: quotient and theorems read the
# implication table without deriving it, so without `imp:` they raise
_NEEDS_IMP = pytest.mark.xfail(strict=True, raises=ImplicationAbsent)

CONTRACT_CASES = [
    pytest.param(variant, command, id=f"{command}-{variant}", marks=_NEEDS_IMP
                 if variant.endswith("no_imp") and command in ("quotient", "theorems") else ())
    for variant in CONTRACT_VARIANTS
    for command in CONTRACT_COMMANDS
]


def _replays(value):
    if isinstance(value, dict):
        for key, item in value.items():
            yield from [item] if key == "replay" else _replays(item)
    elif isinstance(value, list):
        for item in value:
            yield from _replays(item)


@pytest.mark.parametrize("variant,command", CONTRACT_CASES)
def test_every_subcommand_reports_on_every_variant(capsys, tmp_path, variant, command):
    assert CONTRACT_VARIANTS[variant] != LINEAR_CLA
    path = tmp_path / f"{variant}.cla"
    path.write_text(CONTRACT_VARIANTS[variant], encoding="utf-8")
    args = CONTRACT_COMMANDS[command]
    argv = ["search", "--size", "2"] if args is None else [command, str(path), *args]
    code, out, _ = run(capsys, *argv, "--json")
    assert code in (0, 1, 2)
    if out:
        payload = json.loads(out)
        assert out == json.dumps(payload) + "\n"
        assert all(r == "confirmed" for r in _replays(payload))


def _outcome(capsys, argv):
    code, out, err = run(capsys, *argv)
    if "--json" in argv and code != 2:
        payload = json.loads(out)
        payload.pop("timing_ms")
        out = payload
    return code, out, err


@pytest.mark.parametrize("steps", [
    [(["ideals", "{nonlinear}", "--classify", "--generate", "b", "--json"], 0),
     (["ideals", "{nonlinear}", "--json"], 0)],
    [(["quotient", "{linear}"], 2),
     (["quotient", "{linear}", "--ideal", "bot,0", "--verify"], 0)],
    [(["--help"], 0),
     (["search", "--size", "3", "--count-only", "--json"], 0)],
], ids=["generate-then-list", "usage-error-then-quotient", "help-then-search"])
def test_shared_parser_leaks_nothing_between_calls(capsys, ex1_path, ex2_path, steps):
    calls = [[a.format(linear=ex1_path, nonlinear=ex2_path) for a in argv] for argv, _ in steps]
    alone = []
    for argv in calls:
        _build_parser.cache_clear()
        alone.append(_outcome(capsys, argv))
    assert [code for code, _out, _err in alone] == [code for _, code in steps]
    _build_parser.cache_clear()
    assert [_outcome(capsys, argv) for argv in calls] == alone
    if calls[0][0] == "ideals":
        assert "generated" in alone[0][1]
        assert "generated" not in alone[1][1]


def test_parser_is_built_once(monkeypatch, ex1_path):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    run_command(["validate", str(ex1_path)])
    built.clear()
    for _ in range(10):
        run_command(["validate", str(ex1_path), "--json"])
    assert built == []


def test_importing_cli_builds_no_parser():
    src = str(Path(clalg.__file__).resolve().parents[1])
    probe = (
        "import argparse, sys\n"
        f"sys.path.insert(0, {src!r})\n"
        "built = []\n"
        "init = argparse.ArgumentParser.__init__\n"
        "def counting_init(self, *args, **kwargs):\n"
        "    built.append(1)\n"
        "    init(self, *args, **kwargs)\n"
        "argparse.ArgumentParser.__init__ = counting_init\n"
        "import clalg.cli\n"
        "print(len(built))\n"
    )
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                         check=True, timeout=60).stdout
    assert out == "0\n"


def test_reader_closing_the_pipe_ends_the_run_quietly():
    # the size-7 census prints about 135 KB, more than a pipe holds, so the
    # program is still writing when the reader goes away after one line
    env = {**os.environ, "PYTHONPATH": str(Path(clalg.__file__).resolve().parents[1])}
    with subprocess.Popen([sys.executable, "-m", "clalg.cli", "search", "--size", "7"],
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env) as proc:
        first = proc.stdout.readline()
        proc.stdout.close()
        try:
            _, err = proc.communicate(timeout=60)
        finally:
            proc.kill()
    assert first.startswith(b"size 7 ")
    assert b"Traceback" not in err, err.decode()
    assert proc.returncode == 141


# census algebra cl4_l1_2 with mult(e0, e0) changed from e0 to e1:
# modulo {e0,e1,e2} the classes are [e0], [e1] = {e1,e2} and [e3],
# and the class tables fail associativity and adjunction
_CL4_MUTANT = (
    "algebra cl4_l1_2\n"
    "elements: e0 e1 e2 e3\n"
    "bot: e0\nzero: e1\none: e2\n"
    "cover: e0 e1\ncover: e1 e2\ncover: e2 e3\n"
    "mult:\n"
    "e1 e0 e0 e0\n"
    "e0 e1 e1 e3\n"
    "e0 e1 e2 e3\n"
    "e0 e3 e3 e3\n"
    "imp:\n"
    "e3 e3 e3 e3\n"
    "e0 e2 e2 e3\n"
    "e0 e1 e2 e3\n"
    "e0 e0 e0 e3\n"
    "end\n"
)


def test_failing_quotient_is_reported_and_replayed_on_its_classes(capsys, tmp_path):
    path = tmp_path / "mutant.cla"
    path.write_text(_CL4_MUTANT, encoding="utf-8")
    code, out, _ = run(capsys, "quotient", str(path), "--ideal", "e0,e1,e2",
                       "--verify", "--replay", "--json")
    assert code == 1
    quotient = json.loads(out)["quotient"]
    assert quotient["error"] == "quotient tables fail validation"
    failed = [(v["witness"], v["replay"]) for v in quotient["verdicts"] if v["status"] == "fail"]
    assert failed == [(["associativity", "[e0]", "[e0]", "[e3]"], "confirmed"),
                      (["adjunction", "[e0]", "[e0]", "[e0]"], "confirmed")]


def test_failing_quotient_verdicts_are_printed(capsys, tmp_path):
    path = tmp_path / "mutant.cla"
    path.write_text(_CL4_MUTANT, encoding="utf-8")
    code, out, _ = run(capsys, "quotient", str(path), "--ideal", "e0,e1,e2",
                       "--verify", "--replay")
    assert code == 1
    lines = out.splitlines()
    at = lines.index("quotient invalid: quotient tables fail validation")
    assert lines[at + 1:] == [
        "  check monoid: FAIL  witness=['associativity', '[e0]', '[e0]', '[e3]']"
        "  replay=confirmed",
        "  check residuation: FAIL  witness=['adjunction', '[e0]', '[e0]', '[e0]']"
        "  [x <= imp(y,z) but not mult(x,y) <= z]  replay=confirmed",
        "exit: 1",
    ]


_CHAIN3 = (
    "algebra cl3_l0_0\n"
    "elements: e0 e1 e2\n"
    "bot: e0\n"
    "zero: e0\n"
    "one: e2\n"
    "cover: e0 e1\n"
    "cover: e1 e2\n"
    "mult:\n"
    "e0 e0 e0\n"
    "e0 e0 e1\n"
    "e0 e1 e2\n"
    "imp:\n"
    "e2 e2 e2\n"
    "e1 e2 e2\n"
    "e0 e1 e2\n"
    "end\n"
)

# with mult(e0,e2) = mult(e2,e0) = e1, e0 is not related to itself modulo {e0}
_CHAIN3_IRREFLEXIVE = _CHAIN3.replace("mult:\ne0 e0 e0\ne0 e0 e1\ne0 e1 e2",
                                      "mult:\ne0 e0 e1\ne0 e0 e1\ne1 e1 e2")


def _certificate(payload):
    return [payload["congruence"]["certificate"]]


# law witnesses that quotient, theorems and derive-imp print, each row
# keyed by its command (and what it shows, after a colon): a quotient's
# order-criterion mismatch, the same mismatch blocking theorem claims, a
# missing residual and a failed congruence, printed alike by quotient and
# theorems
_LAW_WITNESSES = {
    "quotient": (NONLINEAR_CLA, ["--ideal", "bot,0", "--verify"],
                 lambda payload: [payload["quotient"]],
                 ["order_criterion", "1", "b", True, False]),
    "quotient:reflexivity": (_CHAIN3_IRREFLEXIVE, ["--ideal", "e0"], _certificate,
                             ["reflexivity", "e0"]),
    "theorems": (_CHAIN3.replace("e2 e2 e2", "e2 e0 e2"), ["--ideal", "e0"],
                 lambda payload: [c for c in payload["theorems"]["claims"]
                                  if c["status"] == "blocked"],
                 ["order_criterion", "e0", "e1", True, False]),
    "theorems:mult": (NONLINEAR_CLA, ["--ideal", "bot,0,1"], _certificate,
                      ["mult", "0", "1", "b", "b"]),
    "derive-imp": (_without_imp(_CHAIN3).replace("e0 e0 e1\ne0 e1 e2", "e0 e0 e1\ne1 e1 e2"),
                   [], lambda payload: [payload], ["no_residual", "e2", "e0", []]),
}


def _law_witness_run(capsys, tmp_path, row, *flags):
    text, args, entries, _ = _LAW_WITNESSES[row]
    command = row.partition(":")[0]
    path = tmp_path / "witness.cla"
    path.write_text(text, encoding="utf-8")
    code, out, _ = run(capsys, command, str(path), *args, "--json", *flags)
    assert code == 1
    human_code, human, _ = run(capsys, command, str(path), *args, *flags)
    assert human_code == 1
    return entries(json.loads(out)), human


@pytest.mark.parametrize("row", sorted(_LAW_WITNESSES))
def test_law_witnesses_are_replayed(capsys, tmp_path, row):
    witness = _LAW_WITNESSES[row][3]
    entries, human = _law_witness_run(capsys, tmp_path, row)
    assert entries and all(e["witness"] == witness and "replay" not in e for e in entries)
    assert "replay=" not in human
    entries, human = _law_witness_run(capsys, tmp_path, row, "--replay")
    assert all(e["witness"] == witness and e["replay"] == "confirmed" for e in entries)
    assert human.count("replay=confirmed") == len(entries)


@pytest.mark.parametrize("row", sorted(_LAW_WITNESSES))
def test_unreproducible_law_witness_is_reported_and_fails(capsys, monkeypatch, tmp_path, row):
    monkeypatch.setattr("clalg.cli.confirm_witness", lambda *args: False)
    entries, human = _law_witness_run(capsys, tmp_path, row, "--replay")
    assert entries and all(e["replay"] == "NOT REPRODUCIBLE" for e in entries)
    assert human.count("replay=NOT REPRODUCIBLE") == len(entries)


def test_not_an_equivalence_witness_is_printed_by_name(capsys, tmp_path):
    path = tmp_path / "unit_broken.cla"
    path.write_text(_CHAIN3_IRREFLEXIVE, encoding="utf-8")
    code, out, _ = run(capsys, "quotient", str(path), "--ideal", "e0", "--json")
    assert code == 1
    assert json.loads(out)["congruence"] == {"certificate": {
        "check": "congruence", "status": "fail", "witness": ["reflexivity", "e0"]}}
    code, out, _ = run(capsys, "quotient", str(path), "--ideal", "e0")
    assert code == 1
    assert out.splitlines() == ["check congruence: FAIL  witness=['reflexivity', 'e0']", "exit: 1"]
