"""Workload inputs: the census algebras in a canonical labelling, seeded
relabellings of them, and the triage file set (seeded defective variants
plus fixed probes for the known faults).

The seed enters only through `random.Random(seed)`; equal seeds give
equal inputs.  The census algebras are first brought to a canonical
labelling computed here (`oracle.canonical`), so the inputs do not
depend on which representative or labelling the program's census emits.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace

import oracle
from oracle import Raw

SIZES = (2, 3, 4, 5, 6)

# variant kinds for the triage workload, one per census algebra in turn
VARIANTS = ("mult", "imp", "noimp", "mult_noimp", "drop_edge", "add_edge")

# faults of the program that the fixed probes exercise
FAULT_QUOTIENT_NO_IMP = "quotient-theorems-without-imp"
FAULT_REPLAY_NO_IMP = "replay-without-imp"
FAULT_CYCLIC_ROUND_TRIP = "round-trip-cyclic-order"


def canonical_census(run_search, config_cls) -> dict[int, list[Raw]]:
    """The program's census per size, each algebra canonically relabelled."""
    out = {}
    for n in SIZES:
        algebras = []
        for alg in run_search(config_cls(size=n)).algebras:
            raw = oracle.raw_from_candidate(alg)
            algebras.append(oracle.relabel(raw, oracle.canonical(raw)[1], _names(n)))
        algebras.sort(key=lambda r: oracle.encode(r, range(n)))
        out[n] = [replace(r, name=f"a{n}_{k}") for k, r in enumerate(algebras)]
    return out


def _names(n: int) -> tuple[str, ...]:
    return tuple(f"x{i}" for i in range(n))


def shuffled(raw: Raw, rng: random.Random) -> Raw:
    """A uniformly random relabelling of `raw`."""
    pi = list(range(raw.n))
    rng.shuffle(pi)
    return oracle.relabel(raw, pi, _names(raw.n))


def analysis_inputs(census: dict[int, list[Raw]], seed: int) -> list[Raw]:
    rng = random.Random(seed)
    return [shuffled(raw, rng) for n in SIZES for raw in census[n]]


# ---------------------------------------------------------------- triage

@dataclass(frozen=True)
class Op:
    """One triage operation on one file.

    `command` is a CLI subcommand, or "round-trip" for a
    serialize-then-parse of the parsed file.  `fault` names the known
    fault a fixed probe exercises; seeded operations carry None.
    """

    command: str
    file: str
    args: tuple[str, ...] = ()
    fault: str | None = None


def _set_cell(tab, x, y, v, mirror):
    rows = [list(r) for r in tab]
    rows[x][y] = v
    if mirror:
        rows[y][x] = v
    return tuple(map(tuple, rows))


def mutate(raw: Raw, kind: str, rng: random.Random) -> Raw:
    n = raw.n
    name = f"{raw.name}_{kind}"
    if kind in ("mult", "mult_noimp"):
        # one cell of the commutative fusion table, with its mirror
        x, y = rng.choice([(x, y) for x in range(n) for y in range(x, n)])
        v = rng.choice([v for v in range(n) if v != raw.mult[x][y]])
        raw = replace(raw, mult=_set_cell(raw.mult, x, y, v, True))
        return replace(raw, name=name, imp=raw.imp if kind == "mult" else None)
    if kind == "imp":
        x, y = rng.randrange(n), rng.randrange(n)
        v = rng.choice([v for v in range(n) if v != raw.imp[x][y]])
        return replace(raw, name=name, imp=_set_cell(raw.imp, x, y, v, False))
    if kind == "noimp":
        return replace(raw, name=name, imp=None)
    if kind == "drop_edge":
        gone = rng.randrange(len(raw.covers))
        return replace(raw, name=name, covers=raw.covers[:gone] + raw.covers[gone + 1:])
    if kind == "add_edge":
        # an edge a -> b with a not already below b: a cycle when b <= a
        leq = raw.leq
        a, b = rng.choice([(a, b) for a in range(n) for b in range(n) if not leq[a][b]])
        return replace(raw, name=name, covers=raw.covers + ((a, b),))
    raise ValueError(kind)


_VARIANT_OPS = {
    "mult": (("validate", "--replay"), ("identities", "--replay"), ("derive-imp",), ("round-trip",)),
    "imp": (("validate", "--replay"), ("identities", "--replay"), ("derive-imp",), ("round-trip",)),
    "noimp": (("validate", "--replay"), ("derive-imp",), ("ideals", "--classify"), ("round-trip",)),
    # no --replay here: which files hit FAULT_REPLAY_NO_IMP depends on the seed
    "mult_noimp": (("validate",), ("identities",), ("derive-imp",), ("round-trip",)),
    "drop_edge": (("validate", "--replay"), ("derive-imp",), ("export-dot",), ("round-trip",)),
    # no round trip here: which files hit FAULT_CYCLIC_ROUND_TRIP depends on the seed
    "add_edge": (("validate", "--replay"), ("derive-imp",), ("export-dot",)),
}


def _ideal_arg(raw: Raw, mask: int) -> str:
    return ",".join(raw.names[i] for i in range(raw.n) if mask >> i & 1)


def _zero_downset(raw: Raw) -> int:
    return sum(1 << x for x in range(raw.n) if raw.leq[x][raw.zero])


def _first_associativity_break(raw: Raw) -> Raw:
    n = raw.n
    for x in range(n):
        for y in range(x, n):
            for v in range(n):
                if v == raw.mult[x][y]:
                    continue
                cand = replace(raw, mult=_set_cell(raw.mult, x, y, v, True))
                w = oracle.monoid_witness(cand)
                if w is not None and w[0] == "associativity":
                    return cand
    raise ValueError(f"{raw.name}: no single cell breaks associativity")


def _full_ops(raw: Raw, ideal: int, generate: str | None = None) -> list[Op]:
    f = raw.name + ".cla"
    ideal_args = ("--ideal", _ideal_arg(raw, ideal))
    ideals_args = ("--classify",) if generate is None else ("--classify", "--generate", generate)
    return [
        Op("validate", f, ("--replay",)),
        Op("identities", f, ("--replay",)),
        Op("ideals", f, ideals_args),
        Op("quotient", f, ideal_args + ("--verify", "--replay")),
        Op("theorems", f, ideal_args),
        Op("round-trip", f),
    ]


def triage_inputs(census: dict[int, list[Raw]], fixture_texts: dict[str, str],
                  seed: int) -> tuple[dict[str, str], list[Op]]:
    """(file name -> text, operations); the fixed probes come first."""
    texts: dict[str, str] = {}
    ops: list[Op] = []

    def add(raw: Raw) -> Raw:
        texts[raw.name + ".cla"] = oracle.to_text(raw)
        return raw

    # the bundled fixtures, as shipped
    fixtures = []
    for _key, text in sorted(fixture_texts.items()):
        raw = oracle.from_text(text)
        texts[raw.name + ".cla"] = text
        fixtures.append(raw)
        ops += _full_ops(raw, _zero_downset(raw))
        ops += [Op("derive-imp", raw.name + ".cla"), Op("export-dot", raw.name + ".cla")]

    linear = next(r for r in fixtures if oracle.is_cl_algebra(r))
    probes = [linear] + census[4]
    for raw in probes:
        # a valid file without imp: quotient and theorems need the table
        bare = add(replace(raw, name=f"{raw.name}_noimp_fixed", imp=None))
        z = _ideal_arg(bare, _zero_downset(bare))
        ops.append(Op("quotient", bare.name + ".cla", ("--ideal", z, "--verify", "--replay"),
                      FAULT_QUOTIENT_NO_IMP))
        ops.append(Op("theorems", bare.name + ".cla", ("--ideal", z), FAULT_QUOTIENT_NO_IMP))
    for raw in census[4]:
        # associativity broken, imp dropped: replay of residuation/involution witnesses
        broken = add(replace(_first_associativity_break(raw), name=f"{raw.name}_assoc_noimp",
                             imp=None))
        for command in ("validate", "identities"):
            ops.append(Op(command, broken.name + ".cla", ("--replay",), FAULT_REPLAY_NO_IMP))
    cyclic = [Raw("cycle3", ("a", "b", "c"), ((1, 0), (0, 2), (2, 0)),
                  ((1, 1, 1), (1, 1, 1), (1, 1, 1)), None, 1, 1, 0)]
    for raw in probes:
        for k, (lo, hi) in enumerate(raw.covers):
            cyclic.append(replace(raw, name=f"{raw.name}_cycle{k}",
                                  covers=raw.covers + ((hi, lo),)))
    for raw in cyclic:
        ops.append(Op("round-trip", add(raw).name + ".cla", (), FAULT_CYCLIC_ROUND_TRIP))

    # seeded: every census algebra of size >= 3, relabelled, plus one variant
    rng = random.Random(seed)
    bases = [raw for n in SIZES if n >= 3 for raw in census[n]]
    for i, raw in enumerate(bases):
        base = add(shuffled(raw, rng))
        ideal = rng.choice(oracle.ideals(base))
        generate = rng.choice(base.names) if i % 2 else None
        ops += _full_ops(base, ideal, generate=generate)
        kind = VARIANTS[i % len(VARIANTS)]
        variant = add(mutate(base, kind, rng))
        for command, *args in _VARIANT_OPS[kind]:
            ops.append(Op(command, variant.name + ".cla", tuple(args)))
    return texts, ops
