"""The three workloads: census, analysis and triage.

Each workload has four steps:

  prepare(program, seed)  once per process, untimed: build the inputs
                          and whatever the checks need from them;
  setup(program)          timed as set-up, after a fresh import;
  run_pass(program, st, res)
                          timed: one pass over every input, recording in
                          `res` the start and end of each operation and
                          the raw outputs;
  check(outputs)          untimed: compare the outputs with computations
                          made apart from the program (first pass), or
                          with the first pass (later passes).

A pass attempts the same operations in the same order every time.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import shutil
import time
from dataclasses import dataclass, field

import inputs
import oracle

# OEIS A006966: lattices on n unlabelled elements
LATTICES = {2: 1, 3: 1, 4: 2, 5: 5, 6: 15}
# CL-algebras of size 5 and 6 up to isomorphism; see README for the
# command that regenerates them
REFERENCE_TOTALS = {5: 21, 6: 100}
BRUTE_FORCE_MAX = 4
IDENTITY_COUNT = 17


@dataclass
class PassResult:
    spans: list[tuple[float, float]] = field(default_factory=list)  # one per attempted operation
    latency: list[bool] = field(default_factory=list)  # which spans are latency samples
    failed: list[tuple[str | None, str]] = field(default_factory=list)  # (fault, error)
    outputs: object = None

    def add(self, t0: float, latency: bool) -> None:
        """Record an operation that started at t0 and has just ended."""
        self.spans.append((t0, time.thread_time()))
        self.latency.append(latency)


# ---------------------------------------------------------------- census

class Census:
    """`run_search` for every size 2..6; the seed sets the order of sizes."""

    name = "census"
    tail_percentile = 50  # five operations a pass: no tail to speak of

    def prepare(self, program, seed: int) -> None:
        self.rng = random.Random(seed)
        self.totals = {n: oracle.brute_force_census(n) for n in range(2, BRUTE_FORCE_MAX + 1)}
        self.totals.update(REFERENCE_TOTALS)
        self.first = None

    def setup(self, program):
        return None

    def run_pass(self, program, _state, res: PassResult) -> None:
        sizes = list(inputs.SIZES)
        self.rng.shuffle(sizes)
        run_search, config = program.search.run_search, program.search.SearchConfig
        res.outputs = {}
        spans = {}
        for n in sizes:
            t0 = time.thread_time()
            res.outputs[n] = run_search(config(size=n))
            spans[n] = (t0, time.thread_time())
        # operations are listed in one order every pass
        res.spans += [spans[n] for n in inputs.SIZES]
        res.latency += [True] * len(inputs.SIZES)

    def check(self, outputs) -> list[str]:
        digest = {n: (tuple((r.size, r.lattice_index, r.count) for r in out.rows),
                      tuple(oracle.raw_from_candidate(a) for a in out.algebras))
                  for n, out in outputs.items()}
        if self.first is not None:
            return [] if digest == self.first else ["census output differs between passes"]
        self.first = digest
        errors = []
        for n, (rows, algebras) in sorted(digest.items()):
            if len(rows) != LATTICES[n]:
                errors.append(f"size {n}: {len(rows)} lattices, expected {LATTICES[n]}")
            total = sum(count for _s, _l, count in rows)
            if total != self.totals[n] or len(algebras) != total:
                errors.append(f"size {n}: total {total}, {len(algebras)} algebras, "
                              f"expected {self.totals[n]}")
            errors += [f"size {n}: {a.name} fails an axiom" for a in algebras
                       if not oracle.is_cl_algebra(a)]
            errors += [f"size {n}: {a.name} is isomorphic to {b.name}"
                       for i, a in enumerate(algebras) for b in algebras[i + 1:]
                       if oracle.isomorphic(a, b)]
        return errors


# ---------------------------------------------------------------- analysis

class Analysis:
    """The library pipeline on every CL-algebra of sizes 2..6, relabelled."""

    name = "analysis"
    tail_percentile = 90

    def prepare(self, program, seed: int) -> None:
        census = inputs.canonical_census(program.search.run_search, program.search.SearchConfig)
        self.inputs = inputs.analysis_inputs(census, seed)
        self.ideals = [oracle.ideals(raw) for raw in self.inputs]
        self.first = None

    def setup(self, program):
        """Build each input as a candidate and write it as `.cla` text."""
        core, serialize = program.core, program.fileformat.serialize_algebra
        texts = []
        for raw in self.inputs:
            cand = core.AlgebraCandidate(
                raw.name, raw.names, core.OrderRelation.from_covers(raw.n, list(raw.covers)),
                raw.mult, raw.imp, raw.bot, raw.zero, raw.one)
            texts.append(serialize(cand))
        return texts

    def run_pass(self, program, texts, res: PassResult) -> None:
        parse = program.fileformat.parse_algebra
        validate = program.validator.validate
        suite = program.identities.run_identity_suite
        all_ideals, classify = program.ideals.all_ideals, program.ideals.classify
        q = program.quotient
        res.outputs = []
        for text in texts:
            t0 = time.thread_time()
            try:
                report = validate(parse(text))
                alg = report.algebra
                verdicts, per_ideal = {}, []
                if alg is not None:  # else check() reports the valid algebra not promoted
                    verdicts = suite(alg)
                    for ideal in all_ideals(alg):
                        flags = classify(alg, ideal)
                        cong = q.congruence_from_ideal(alg, ideal)
                        quot = q.build_quotient(alg, ideal, cong)
                        per_ideal.append((ideal, flags, cong, quot, q.theorem_suite(alg, ideal)))
            except Exception as exc:  # a failed operation, counted and reported
                res.add(t0, False)
                res.failed.append((None, f"{type(exc).__name__}: {exc}"))
                res.outputs.append(None)
                continue
            res.add(t0, True)
            res.outputs.append((text, report, verdicts, per_ideal))

    def check(self, outputs) -> list[str]:
        digest = [None if out is None else self._digest(*out) for out in outputs]
        if self.first is not None:
            return [] if digest == self.first else ["analysis output differs between passes"]
        self.first = digest
        errors = []
        for raw, ideals, d in zip(self.inputs, self.ideals, digest):
            if d is None:
                continue
            text, promoted, oks, per_ideal = d
            if oracle.from_text(text) != raw:
                errors.append(f"{raw.name}: serialized input does not read back as written")
            if not promoted:
                errors.append(f"{raw.name}: valid algebra not promoted")
            if len(oks) != IDENTITY_COUNT or not all(oks):
                errors.append(f"{raw.name}: identity suite {oks}")
            if [bits for bits, *_rest in per_ideal] != ideals:
                errors.append(f"{raw.name}: all_ideals differs from the subset scan")
            for bits, classes, proj, qraw, claims in per_ideal:
                where = f"{raw.name} mod {bits:#x}"
                if list(classes) != oracle.congruence_classes(raw, bits):
                    errors.append(f"{where}: congruence classes differ")
                if not oracle.is_cl_algebra(qraw):
                    errors.append(f"{where}: quotient fails an axiom")
                elif oracle.homomorphism_witness(raw, qraw, proj) is not None:
                    errors.append(f"{where}: projection is not a homomorphism")
                if any(status not in ("holds", "vacuous") for status in claims):
                    errors.append(f"{where}: theorem claims {claims}")
        return errors

    @staticmethod
    def _digest(text, report, verdicts, per_ideal):
        return (
            text,
            report.algebra is not None,
            tuple(v.ok for v in verdicts.values()),
            tuple((ideal.bits, tuple(c.bits for c in cong.classes), tuple(quot.projection),
                   oracle.raw_from_candidate(quot.algebra),
                   tuple(c.status for c in theorems.claims))
                  for ideal, _flags, cong, quot, theorems in per_ideal),
        )


# ---------------------------------------------------------------- triage

class Triage:
    """In-process CLI calls on the fixtures, seeded defective variants of
    the census algebras and fixed probes for the known faults."""

    name = "triage"
    tail_percentile = 99

    def prepare(self, program, seed: int) -> None:
        census = inputs.canonical_census(program.search.run_search, program.search.SearchConfig)
        fixtures = {"linear": program.fixtures.LINEAR_CLA,
                    "nonlinear": program.fixtures.NONLINEAR_CLA}
        self.texts, self.ops = inputs.triage_inputs(census, fixtures, seed)
        self.workdir = os.path.join(".bench_build", f"triage-{os.getpid()}")
        os.makedirs(self.workdir, exist_ok=True)
        for name, text in self.texts.items():
            with open(os.path.join(self.workdir, name), "w", encoding="utf-8") as fh:
                fh.write(text)
        self.expect_cache: dict[str, dict] = {}
        self.first = None

    workdir = None

    def close(self) -> None:
        if self.workdir is not None:
            shutil.rmtree(self.workdir, ignore_errors=True)

    def setup(self, program):
        return None

    def run_pass(self, program, _state, res: PassResult) -> None:
        run_command = program.cli.run_command
        parse, serialize = program.fileformat.parse_algebra, program.fileformat.serialize_algebra
        # the exception the two no-`imp:` faults raise; any other is unexpected
        absent = program.core.ImplicationAbsent
        res.outputs = []
        for op in self.ops:
            t0 = time.thread_time()
            try:
                if op.command == "round-trip":
                    cand = parse(self.texts[op.file])
                    same = parse(serialize(cand)) == cand
                    res.add(t0, False)
                    res.outputs.append(same)
                    if not same:
                        res.failed.append((op.fault, f"round trip changed {op.file}"))
                    continue
                argv = [op.command, os.path.join(self.workdir, op.file), "--json", *op.args]
                out, err = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = run_command(argv)
            except Exception as exc:  # a failed operation, counted and reported
                res.add(t0, False)
                fault = op.fault if isinstance(exc, absent) and op.command != "round-trip" else None
                res.failed.append((fault, f"{op.command} {op.file}: {type(exc).__name__}: {exc}"))
                res.outputs.append(None)
                continue
            res.add(t0, True)
            res.outputs.append((code, out.getvalue()))

    def check(self, outputs) -> list[str]:
        digest = [(out[0], _without_timing(out[1])) if isinstance(out, tuple) else out
                  for out in outputs]
        if self.first is not None:
            return [] if digest == self.first else ["triage output differs between passes"]
        self.first = digest
        errors = []
        for op, out in zip(self.ops, digest):
            if out is None or op.command == "round-trip":
                continue
            code, payload = out
            where = f"{op.command} {op.file} {' '.join(op.args)}"
            if code not in (0, 1, 2):
                errors.append(f"{where}: exit code {code}")
                continue
            if payload is None:
                errors.append(f"{where}: no JSON report (exit {code})")
                continue
            if any(r != "confirmed" for r in _replays(payload)):
                errors.append(f"{where}: replay not confirmed")
            errors += [f"{where}: {e}" for e in self._check_call(op, code, payload)]
        return errors

    def _expect(self, file: str) -> dict:
        e = self.expect_cache.get(file)
        if e is None:
            raw = oracle.from_text(self.texts[file])
            verdicts = oracle.axiom_verdicts(raw)
            e = {"raw": raw, "verdicts": verdicts,
                 "valid": all(s == "pass" for _l, s, _w in verdicts),
                 "lattice": verdicts[0][1] == "pass"}
            self.expect_cache[file] = e
        return e

    def _check_call(self, op, code, payload) -> list[str]:
        e = self._expect(op.file)
        raw, valid = e["raw"], e["valid"]
        errors = []
        if op.command == "validate" or (op.command == "identities" and not valid):
            want = [[law, status, _render(raw, w)] for law, status, w in e["verdicts"]]
            got = [[v["check"], v["status"], v["witness"]] for v in payload.get("verdicts", [])]
            if got != want:
                errors.append(f"verdicts {got} != {want}")
            if code != (0 if valid else 1):
                errors.append(f"exit {code} but the axioms {'hold' if valid else 'fail'}")
        elif op.command == "identities":
            ids = payload.get("identities", [])
            if code != 0 or len(ids) != IDENTITY_COUNT or any(i["status"] != "pass" for i in ids):
                errors.append("identity suite does not pass on a valid algebra")
        elif op.command == "derive-imp":
            imp, w = oracle.derive_imp(raw)
            if imp is None:
                if code != 1 or payload.get("witness") != _render(raw, w):
                    errors.append(f"derive-imp: {payload.get('witness')} != {_render(raw, w)}")
            else:
                rows = [[raw.names[v] for v in row] for row in imp]
                want_code = 0 if raw.imp in (None, imp) else 1
                if payload.get("derived") != rows or code != want_code:
                    errors.append("derive-imp table or exit code differs")
        elif op.command == "ideals" and e["lattice"] and oracle.derive_imp(raw)[0] is not None:
            full = oracle.with_imp(raw)
            masks = oracle.ideals(full)
            if "--generate" in op.args:
                x = raw.names.index(op.args[op.args.index("--generate") + 1])
                least = min((m for m in masks if m >> x & 1), key=int.bit_count)
                if payload.get("generated", {}).get("ideal") != _subset(raw, least):
                    errors.append("generated ideal differs from the least containing ideal")
            elif [i["ideal"] for i in payload.get("ideals", [])] != [_subset(raw, m) for m in masks]:
                errors.append("ideal list differs from the subset scan")
        elif op.command == "quotient" and valid:
            ideal = _mask_of(raw, op.args[op.args.index("--ideal") + 1])
            classes = [_subset(raw, c) for c in oracle.congruence_classes(raw, ideal)]
            cong = payload.get("congruence", {})
            quot = payload.get("quotient", {})
            if code != 0 or cong.get("classes") != classes:
                errors.append("congruence classes differ from the direct computation")
            elif not quot.get("valid") or not oracle.is_cl_algebra(oracle.from_text(quot["text"])):
                errors.append("quotient fails an axiom")
        elif op.command == "theorems" and valid:
            claims = payload.get("theorems", {}).get("claims", [])
            if code != 0 or any(c["status"] not in ("holds", "vacuous") for c in claims):
                errors.append(f"theorem claims {claims}")
        elif op.command == "export-dot":
            if code != 0:
                errors.append(f"export-dot exit {code}")
            elif oracle.is_antisymmetric(raw.leq):
                want = {(raw.names[lo], raw.names[hi]) for lo, hi in oracle.hasse(raw.leq)}
                got = {tuple(part.strip().strip(";").strip('"') for part in line.split("->"))
                       for line in payload["dot"].splitlines() if "->" in line}
                if got != want:
                    errors.append("DOT edges differ from the Hasse diagram")
        return errors


def _render(raw, witness):
    """A witness as the CLI prints it: element indices become names."""
    if witness is None:
        return None
    out = []
    for part in witness:
        if isinstance(part, str):
            out.append(part)
        elif isinstance(part, tuple):
            out.append([raw.names[p] for p in part])
        else:
            out.append(raw.names[part])
    return out


def _subset(raw, mask) -> str:
    return "{" + ",".join(raw.names[i] for i in range(raw.n) if mask >> i & 1) + "}"


def _mask_of(raw, names: str) -> int:
    return sum(1 << raw.names.index(nm) for nm in names.split(",") if nm)


def _without_timing(stdout: str):
    try:
        payload = json.loads(stdout)
    except ValueError:
        return None
    payload.pop("timing_ms", None)
    return payload


def _replays(value):
    if isinstance(value, dict):
        for k, v in value.items():
            if k == "replay":
                yield v
            else:
                yield from _replays(v)
    elif isinstance(value, list):
        for v in value:
            yield from _replays(v)


WORKLOADS = {w.name: w for w in (Census, Analysis, Triage)}
