"""Span tracing around the calls into each `clalg` module.

`install` replaces the public functions of a freshly imported `clalg`
with wrappers, in every module namespace they are called from, for the
life of that import only; the program's files are never touched.  Each
call becomes a span (name, start, end, parent span) kept in compact
arrays in memory.  `Tracer.reduce` turns the spans of one pass into
per-layer figures at the end of the pass: a span's self time is its
duration minus the time of its direct child spans.
"""

from __future__ import annotations

import time
from array import array
from collections import Counter


def _add_len(key):
    def count(counts, result):
        counts[key] += len(result)
    return count


def _count_unique(counts, result):
    counts["search.unique"] += result.total


def _count_promoted(counts, report):
    counts["validator.promoted"] += report.algebra is not None


def _count_built(counts, _result):
    counts["quotient.built"] += 1


# (module, attribute, span name, counter on the result); a function is
# wrapped in each namespace it is looked up from
WRAPPED = (
    ("search", "run_search", "search.run", _count_unique),
    ("search", "enumerate_lattices", "search.lattices", _add_len("search.lattices")),
    ("search", "complete_to_cl", "search.complete", _add_len("search.sealed")),
    ("search", "canonical_form", "search.canonical", None),
    ("search", "validate", "validator.validate", _count_promoted),
    ("validator", "validate", "validator.validate", _count_promoted),
    ("quotient", "validate", "validator.validate", _count_promoted),
    ("cli", "validate", "validator.validate", _count_promoted),
    ("validator", "is_linear", "validator.flags", None),
    ("validator", "is_distributive_lattice", "validator.flags", None),
    ("validator", "is_idempotent", "validator.flags", None),
    ("validator", "is_residuated_lattice", "validator.flags", None),
    ("search", "derive_implication", "core.derive_implication", None),
    ("validator", "derive_implication", "core.derive_implication", None),
    ("cli", "derive_implication", "core.derive_implication", None),
    ("identities", "run_identity_suite", "identities.suite", None),
    ("cli", "run_identity_suite", "identities.suite", None),
    ("ideals", "all_ideals", "ideals.all_ideals", _add_len("ideals.found")),
    ("cli", "all_ideals", "ideals.all_ideals", _add_len("ideals.found")),
    ("ideals", "classify", "ideals.classify", None),
    ("cli", "classify", "ideals.classify", None),
    ("cli", "is_ideal", "ideals.checks", None),
    ("cli", "certify_ideal", "ideals.checks", None),
    ("cli", "generated_ideal", "ideals.checks", None),
    ("quotient", "is_prime", "ideals.checks", None),
    ("quotient", "is_distributive_ideal", "ideals.checks", None),
    ("quotient", "is_affine", "ideals.checks", None),
    ("quotient", "congruence_from_ideal", "quotient.congruence", None),
    ("cli", "congruence_from_ideal", "quotient.congruence", None),
    ("quotient", "build_quotient", "quotient.build", _count_built),
    ("cli", "build_quotient", "quotient.build", _count_built),
    ("quotient", "theorem_suite", "quotient.theorems", None),
    ("cli", "theorem_suite", "quotient.theorems", None),
    ("fileformat", "parse_algebra", "fileformat.parse", None),
    ("cli", "parse_algebra", "fileformat.parse", None),
    ("fileformat", "serialize_algebra", "fileformat.serialize", None),
    ("cli", "serialize_algebra", "fileformat.serialize", None),
    ("replay", "confirm_witness", "replay.confirm", None),
    ("cli", "confirm_witness", "replay.confirm", None),
    ("cli", "run_command", "cli.run_command", None),
)

# AlgebraCandidate methods, wrapped on the class
WRAPPED_METHODS = (
    ("meet", "core.lattice_ops"),
    ("join", "core.lattice_ops"),
)


class Tracer:
    """Spans of one pass, in parallel arrays indexed by span number."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.counts: Counter = Counter()
        self.reset()

    def reset(self) -> None:
        self.span_name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack: list[int] = []
        self.counts.clear()

    def wrap(self, span: str, fn, count=None):
        nid = self._ids.setdefault(span, len(self._ids))
        if nid == len(self.names):
            self.names.append(span)
        clock = time.perf_counter
        tracer = self

        def traced(*args, **kwargs):
            stack, end = tracer.stack, tracer.end
            idx = len(end)
            tracer.span_name.append(nid)
            tracer.parent.append(stack[-1] if stack else -1)
            end.append(0.0)
            stack.append(idx)
            tracer.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if count is not None:
                count(tracer.counts, result)
            return result

        return traced

    def reduce(self) -> dict[str, dict]:
        """Per span name: calls, inclusive and self seconds."""
        total = len(self.end)
        child = array("d", bytes(8 * total))
        k = len(self.names)
        calls = [0] * k
        incl = [0.0] * k
        own = [0.0] * k
        names, parents, start, end = self.span_name, self.parent, self.start, self.end
        # children start after their parent, so a reverse scan sees
        # every child before its parent
        for i in range(total - 1, -1, -1):
            d = end[i] - start[i]
            nid = names[i]
            calls[nid] += 1
            incl[nid] += d
            own[nid] += d - child[i]
            p = parents[i]
            if p >= 0:
                child[p] += d
        return {name: {"calls": calls[nid], "incl_s": incl[nid], "self_s": own[nid]}
                for nid, name in enumerate(self.names)}


def install(tracer: Tracer, program) -> list[str]:
    """Wrap the program's functions; returns the names that were missing."""
    missing = []
    for module_name, attr, span, count in WRAPPED:
        module = getattr(program, module_name)
        fn = getattr(module, attr, None)
        if fn is None:
            missing.append(f"{module_name}.{attr}")
            continue
        setattr(module, attr, tracer.wrap(span, fn, count))
    cls = program.core.AlgebraCandidate
    for attr, span in WRAPPED_METHODS:
        setattr(cls, attr, tracer.wrap(span, getattr(cls, attr)))
    return missing
