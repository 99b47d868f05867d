"""Command-line driver.

Subcommands: validate, derive-imp, identities, ideals, quotient,
theorems, search, export-dot.  Exit codes: 0 all requested checks pass,
1 a checked property fails (witnesses printed), 2 parse or usage error,
including an input file that cannot be read or decoded as UTF-8 (a
leading byte-order mark is skipped) and an -o/--dot path that cannot be
written.  Run as a program (`main`), a reader that closes standard
output early ends the run quietly with exit status 141 (128 + SIGPIPE,
as a shell reports a process that SIGPIPE ended).

`run_command` builds its argument parsers once per process, on first
use (not at import), and parses each call once: argv goes straight to
the parser of the subcommand that argv[0] names, and only anything else
(no argv, -h, an unknown name) to the top-level parser.  After the
build the parsers are only read, so concurrent calls may share them.

Machine-readable (--json) and human output are rendered from the same
payload structure, so they cannot diverge.  --json prints the report as
one JSON line; `clalg ... --json | python -m json.tool` indents it.
--replay re-checks each printed witness of a law against the tables
before reporting it: every verdict's, the congruence's (one verdict
line, printed alike by quotient and theorems), derive-imp's missing
residual and the quotient's order-criterion mismatch, also where it
blocks a theorem claim.  The one witness that is no law, and is not
replayed, is a violated theorem claim's.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import time
from dataclasses import replace

from .core import AlgebraCandidate, NoResidual, NotALattice, derive_implication
from .fileformat import ParseError, export_dot, parse_algebra, serialize_algebra
from .identities import run_identity_suite
from .ideals import (
    EmptySubset,
    NotAnIdeal,
    Subset,
    all_ideals,
    certify_ideal,
    classify,
    generated_ideal,
)
from .quotient import (
    NotACongruence,
    QuotientInvalid,
    build_quotient,
    congruence_from_ideal,
    theorem_suite,
)
from .replay import confirm_witness
from .search import SIZE_MAX, SIZE_MIN, SearchConfig, render_search_result, run_search
from .validator import Verdict, validate

SCHEMA_VERSION = 1


class _Usage(Exception):
    pass


def _render_index(alg: AlgebraCandidate, value) -> object:
    """A witness as printed: element indices become names, tuples lists."""
    if isinstance(value, tuple):
        return [_render_index(alg, v) for v in value]
    if isinstance(value, int) and not isinstance(value, bool):
        return alg.name_of(value)
    return value


class _Run:
    """Collects payload entries; replays witnesses under --replay."""

    def __init__(self, args, command: list[str]):
        self.args = args
        self.payload: dict = {
            "schema_version": SCHEMA_VERSION,
            "command": command,
        }
        self.human: list[str] = []
        self.exit_code = 0
        self.alg: AlgebraCandidate | None = None  # the parsed file argument

    def fail(self):
        self.exit_code = max(self.exit_code, 1)

    def witnessed(self, entry: dict, alg, verdict: Verdict, ideal_bits=None) -> dict:
        """`entry` with the verdict's witness as printed, its detail and,
        under --replay, whether the tables reproduce the witness."""
        entry["witness"] = _render_index(alg, verdict.witness)
        if verdict.detail:
            entry["detail"] = verdict.detail
        if verdict.witness is not None and self.args.replay:
            ok = confirm_witness(alg, verdict, ideal_bits)
            entry["replay"] = "confirmed" if ok else "NOT REPRODUCIBLE"
            if not ok:
                self.fail()
        return entry

    def verdict_entry(self, alg, verdict: Verdict, ideal_bits=None) -> dict:
        if not verdict.ok:
            self.fail()
        status = "skipped" if verdict.skipped else ("pass" if verdict.ok else "fail")
        return self.witnessed({"check": verdict.law, "status": status}, alg, verdict, ideal_bits)

    def verdicts(self, alg, verdicts) -> list[dict]:
        """The entries of `verdicts`, their lines added to the human report."""
        entries = [self.verdict_entry(alg, v) for v in verdicts]
        self.human.extend(self.render_verdict_line(e) for e in entries)
        return entries

    def render_verdict_line(self, entry: dict) -> str:
        status = entry["status"]
        line = f"check {entry['check']}: {'pass' if status == 'pass' else status.upper()}"
        if entry.get("witness") is not None:
            line += f"  witness={entry['witness']}"
        if entry.get("detail"):
            line += f"  [{entry['detail']}]"
        return line + _replay_note(entry)


def _replay_note(entry: dict) -> str:
    return f"  replay={entry['replay']}" if entry.get("replay") else ""


def _pairs(record: dict) -> str:
    return " ".join(f"{k}={v}" for k, v in record.items())


def _read_candidate(path: str) -> AlgebraCandidate:
    try:
        with open(path, "rb") as f:
            text = f.read().decode("utf-8-sig")
    except (OSError, UnicodeDecodeError) as exc:
        raise _Usage(f"cannot read {path}: {exc}") from exc
    return parse_algebra(text)


def _write_text(path: str, text: str) -> None:
    try:
        with open(path, "w", encoding="utf-8") as f:
            f.write(text)
    except OSError as exc:
        raise _Usage(f"cannot write {path}: {exc}") from exc


def _ideal_subset(alg: AlgebraCandidate, names: str) -> Subset:
    try:
        return Subset.from_names(alg, names)
    except KeyError as exc:
        raise _Usage(str(exc)) from None


def _cmd_validate(run: _Run) -> None:
    alg = run.alg
    report = validate(alg)
    run.human.append(f"algebra {alg.name} ({alg.n} elements)")
    run.payload["verdicts"] = run.verdicts(alg, report.verdicts)
    run.payload["promoted"] = report.algebra is not None
    if report.algebra is not None:
        run.payload["top"] = alg.name_of(report.top)
        run.payload["flags"] = report.flags._asdict()
        run.human.append(f"top: {alg.name_of(report.top)}")
        run.human.append("flags: " + _pairs(run.payload["flags"]))
        run.human.append("result: CL-algebra")
    else:
        run.human.append("result: not a CL-algebra")


def _cmd_derive_imp(run: _Run) -> None:
    alg = run.alg
    try:
        derived = derive_implication(alg.order, alg.mult_table)
    except NoResidual as exc:
        run.payload["derived"] = None
        run.witnessed(run.payload, alg, Verdict(
            "residuation", False, ("no_residual", exc.x, exc.y, exc.frontier)))
        run.human.append(f"no residual implication exists: witness={run.payload['witness']}"
                         + _replay_note(run.payload))
        run.fail()
        return
    rows = [[alg.name_of(v) for v in row] for row in derived]
    run.payload["derived"] = rows
    run.human.append("derived implication table:")
    run.human.extend("  " + " ".join(r) for r in rows)
    if alg.imp_table is not None:
        mismatches = [
            {
                "x": alg.name_of(x),
                "y": alg.name_of(y),
                "supplied": alg.name_of(alg.imp_table[x][y]),
                "derived": alg.name_of(derived[x][y]),
            }
            for x in range(alg.n)
            for y in range(alg.n)
            if alg.imp_table[x][y] != derived[x][y]
        ]
        run.payload["mismatches"] = mismatches
        if mismatches:
            run.fail()
            run.human.append(f"{len(mismatches)} mismatches against the supplied table:")
            run.human.extend(
                f"  at ({m['x']},{m['y']}): supplied {m['supplied']}, derived {m['derived']}"
                for m in mismatches
            )
        else:
            run.human.append("supplied table matches the derived table")


def _cmd_identities(run: _Run) -> None:
    alg = run.alg
    report = validate(alg)
    if report.algebra is None:
        run.human.append(f"algebra {alg.name} is not a CL-algebra; identities not run")
        run.payload["verdicts"] = run.verdicts(alg, report.verdicts)
        run.fail()
        return
    sealed = report.algebra
    suite = run_identity_suite(sealed)
    run.human.append(f"algebra {alg.name}: identity suite")
    entries = run.payload["identities"] = run.verdicts(sealed, suite.values())
    passed = sum(1 for e in entries if e["status"] == "pass")
    run.human.append(f"result: {passed}/{len(entries)} identities hold")


def _cmd_ideals(run: _Run) -> None:
    alg = run.alg
    if alg.imp_table is None:
        alg = replace(alg, imp_table=derive_implication(alg.order, alg.mult_table))
    generate = run.args.generate
    if generate is None:
        ideals = all_ideals(alg)
    else:
        ideals = [generated_ideal(alg, _ideal_subset(alg, generate))]
    entries, flags = [], []
    for ideal in ideals:
        entry = {"ideal": ideal.render(alg)}
        if run.args.classify:
            entry["classification"] = classify(alg, ideal)._asdict()
        entries.append(entry)
        flags.append("  " + _pairs(entry["classification"]) if run.args.classify else "")
    if generate is not None:
        run.payload["generated"] = entries[0]
        run.human.append(f"generated ideal: {entries[0]['ideal']}")
        run.human.extend(f for f in flags if f)
        return
    run.payload["ideals"] = entries
    run.human.append(f"algebra {alg.name}: {len(entries)} ideals")
    run.human.extend(f"ideal {e['ideal']}{f}" for e, f in zip(entries, flags))


def _certified(run: _Run, alg: AlgebraCandidate, names: str):
    subset = _ideal_subset(alg, names)
    try:
        return certify_ideal(alg, subset)
    except NotAnIdeal as exc:
        entry = run.verdict_entry(alg, exc.verdict, ideal_bits=subset.bits)
    run.payload["ideal_check"] = entry
    run.human.append(f"{subset.render(alg)} is not an ideal")
    run.human.append(run.render_verdict_line(entry))
    run.fail()
    return None


def _certificate(run: _Run, ideal, verdict: Verdict, congruence: dict) -> bool:
    """Report the congruence law's verdict modulo `ideal` as the payload's
    "congruence", `congruence` with its "certificate" entry added, and
    as a verdict line; whether the law holds."""
    entry = congruence["certificate"] = run.verdict_entry(run.alg, verdict, ideal.bits)
    run.payload["congruence"] = congruence
    run.human.append(run.render_verdict_line(entry))
    return verdict.ok


def _cmd_quotient(run: _Run) -> None:
    alg = run.alg
    ideal = _certified(run, alg, run.args.ideal)
    if ideal is None:
        return
    try:
        cong = congruence_from_ideal(alg, ideal)
    except NotACongruence as exc:  # no equivalence, so no classes
        _certificate(run, ideal, exc.certificate, {})
        return
    classes = [cls.render(alg) for cls in cong.classes]
    run.human.append(f"congruence modulo {ideal.render(alg)}: {len(classes)} classes")
    for r, cls in zip(cong.representatives(), classes):
        run.human.append(f"  [{alg.name_of(r)}] = {cls}")
    if not _certificate(run, ideal, cong.certificate, {"classes": classes}):
        return
    if not (run.args.verify or run.args.dot):
        return
    try:
        quot = build_quotient(alg, ideal, cong)
    except QuotientInvalid as exc:
        detail: dict = {"error": str(exc)}
        if exc.witness is not None:
            run.witnessed(detail, alg, Verdict("order_criterion", False, exc.witness), ideal.bits)
        run.human.append(f"quotient invalid: {exc}" + _replay_note(detail))
        if exc.report is not None:
            detail["verdicts"] = [run.verdict_entry(exc.candidate, v) for v in exc.report.verdicts]
            run.human.extend("  " + run.render_verdict_line(entry)
                             for entry in detail["verdicts"] if entry["status"] != "pass")
        run.payload["quotient"] = detail
        run.fail()
        return
    qalg = quot.algebra
    text = serialize_algebra(qalg)
    run.payload["quotient"] = {"elements": list(qalg.elements), "valid": True, "text": text}
    run.human.append(f"quotient algebra ({qalg.n} classes) passes validation")
    if run.args.verify:
        run.human.extend("  " + ln for ln in text.rstrip().splitlines())
    if run.args.dot:
        _write_text(run.args.dot, export_dot(quot))
        run.human.append(f"DOT written to {run.args.dot}")


def _cmd_theorems(run: _Run) -> None:
    alg = run.alg
    ideal = _certified(run, alg, run.args.ideal)
    if ideal is None:
        return
    try:
        report = theorem_suite(alg, ideal)
    except NotACongruence as exc:
        _certificate(run, ideal, exc.certificate, {})
        return
    cong = report.congruence
    class_names = [f"[{alg.name_of(r)}]" for r in cong.representatives()]

    def claim_entry(c):
        # claim witnesses index quotient classes, except a blocked claim's
        # order-criterion mismatch (replayed) and the singleton claim's subset mask
        entry = {"claim": c.claim, "status": c.status, "witness": c.witness}
        if c.status == "blocked":
            return run.witnessed(entry, alg, Verdict("order_criterion", False, c.witness),
                                 ideal.bits)
        if c.witness is not None and c.claim == "zero_downset_singleton_classes":
            entry["witness"] = [c.witness[0], Subset(alg.n, c.witness[1]).render(alg)]
        elif c.witness is not None:
            entry["witness"] = [class_names[i] if isinstance(i, int) else i for i in c.witness]
        return entry

    claims = [claim_entry(c) for c in report.claims]
    run.payload["theorems"] = {
        "ideal": ideal.render(alg),
        "certificate": "pass",  # theorem_suite raised on a failing one
        "quotient_valid": report.quotient_valid,
        "claims": claims,
    }
    run.human.append(f"theorem suite for ideal {ideal.render(alg)}")
    run.human.append(f"quotient valid: {report.quotient_valid}")
    for c in claims:
        line = f"claim {c['claim']}: {c['status']}"
        if c["witness"]:
            line += f"  witness={c['witness']}"
        run.human.append(line + _replay_note(c))
    if not report.ok:
        run.fail()


def _cmd_search(run: _Run) -> None:
    try:
        config = SearchConfig(
            size=run.args.size,
            max_results=0 if run.args.count_only else run.args.max_results,
        )
    except ValueError as exc:
        raise _Usage(str(exc)) from None
    result = run_search(config)
    text = render_search_result(result)
    run.payload["census"] = [
        {"size": r.size, "lattice": r.lattice_index, "count": r.count}
        for r in result.rows
    ]
    run.payload["total"] = result.total
    run.payload["stats"] = {**result.stats._asdict(), "dedup_hits": result.stats.dedup_hits}
    if not run.args.count_only:
        run.payload["algebras"] = [serialize_algebra(a) for a in result.algebras]
    run.human.extend(text.rstrip("\n").splitlines())


def _cmd_export_dot(run: _Run) -> None:
    alg = run.alg
    text = export_dot(alg)
    run.payload["dot"] = text
    if run.args.output:
        _write_text(run.args.output, text)
        run.human.append(f"DOT written to {run.args.output}")
    else:
        run.human.extend(text.rstrip("\n").splitlines())


# built on the first run_command call, not at import: building costs far
# more than a parse, and parse_args only reads the parsers
@functools.cache
def _build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The top-level parser and its map of subcommand name to parser; each
    subcommand's parser sets `handler`, the function that runs it."""
    parser = argparse.ArgumentParser(
        prog="clalg",
        description="Finite CL-algebra workbench: validate tables, compute "
                    "ideals and quotients, and enumerate models.",
    )
    sub = parser.add_subparsers(dest="cmd", required=True)

    def add(name, handler, summary, file=True):
        p = sub.add_parser(name, help=summary)
        p.set_defaults(handler=handler)
        if file:
            p.add_argument("file", help="algebra file (.cla)")
            p.add_argument("--json", action="store_true",
                           help="emit the machine-readable report")
            p.add_argument("--replay", action="store_true",
                           help="re-check every printed law witness against the tables")
        return p

    add("validate", _cmd_validate, "run the four axiom checks")
    add("derive-imp", _cmd_derive_imp, "derive the implication table from residuation")
    add("identities", _cmd_identities, "check the derived-law suite")

    p = add("ideals", _cmd_ideals, "enumerate (or generate) ideals")
    p.add_argument("--classify", action="store_true", help="classify each ideal")
    p.add_argument("--generate", metavar="LIST",
                   help="comma-separated element names to generate from")

    p = add("quotient", _cmd_quotient, "congruence and quotient by an ideal")
    p.add_argument("--ideal", metavar="LIST", required=True,
                   help="comma-separated element names of the ideal")
    p.add_argument("--verify", action="store_true",
                   help="build the quotient and print its validated tables")
    p.add_argument("--dot", metavar="PATH", help="write the quotient Hasse diagram")

    p = add("theorems", _cmd_theorems, "check the quotient theorems for an ideal")
    p.add_argument("--ideal", metavar="LIST", required=True)

    p = add("search", _cmd_search, "enumerate CL-algebras up to isomorphism", file=False)
    p.add_argument("--size", type=int, required=True, choices=range(SIZE_MIN, SIZE_MAX + 1),
                   metavar="N", help=f"universe size ({SIZE_MIN}..{SIZE_MAX})")
    p.add_argument("--count-only", action="store_true")
    p.add_argument("--max-results", type=int, metavar="K")
    p.add_argument("--json", action="store_true")

    p = add("export-dot", _cmd_export_dot, "emit the Hasse diagram as DOT")
    p.add_argument("-o", "--output", metavar="PATH")

    return parser, sub.choices


def run_command(argv: list[str]) -> int:
    parser, subcommands = _build_parser()
    try:
        if argv and argv[0] in subcommands:
            args = subcommands[argv[0]].parse_args(argv[1:])
        else:
            args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2

    run = _Run(args, list(argv))
    t0 = time.perf_counter()
    try:
        if "file" in args:
            run.alg = _read_candidate(args.file)
            run.payload["algebra"] = run.alg.name
        args.handler(run)
    except (ParseError, _Usage, EmptySubset) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (NoResidual, NotALattice) as exc:
        # the candidate's own structure blocks the requested computation
        print(f"property failure: {exc}", file=sys.stderr)
        return 1
    run.payload["timing_ms"] = round((time.perf_counter() - t0) * 1000.0, 3)
    run.payload["exit_code"] = run.exit_code

    if args.json:
        print(json.dumps(run.payload))
    else:
        for line in run.human:
            print(line)
        print(f"exit: {run.exit_code}")
    return run.exit_code


def main() -> None:
    try:
        code = run_command(sys.argv[1:])
        sys.stdout.flush()  # a closed pipe raises here, inside the try
    except BrokenPipeError:
        # the reader is gone: point stdout at devnull so that the flush at
        # interpreter exit raises nothing either (the Python documentation's
        # note on SIGPIPE)
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        sys.exit(141)
    sys.exit(code)


if __name__ == "__main__":
    main()
