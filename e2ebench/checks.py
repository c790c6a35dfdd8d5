"""Independent correctness checks for the benchmark's outputs.

Each check takes the plain-data outputs a workload reported (see
:mod:`workloads`) and returns ``{operation: reason}`` for every
operation whose output is wrong.  The references are computed by other
code than the code under test: the reference engine
(:func:`repro.sim.engine.simulate`) for anything the fastpath produced,
the fastpath for what the engine produced, and the paper's published
Table 2.  Every check holds for any seed.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Dict, Iterable, List, Mapping, Sequence

#: The paper's Table 2: cycle time (ns) -> (read, write, recovery)
#: cycles for the base memory with 4-word blocks.
PAPER_TABLE2 = {
    20.0: (14, 10, 6),
    24.0: (13, 10, 5),
    28.0: (12, 9, 5),
    32.0: (11, 9, 4),
    36.0: (10, 8, 4),
    40.0: (10, 8, 3),
    48.0: (9, 8, 3),
    52.0: (9, 7, 3),
    60.0: (8, 7, 2),
}

Failures = Dict[str, str]


def geometric_mean(values: Sequence[float]) -> float:
    """The paper's reduction over the trace suite, written out here so
    the check does not call the code it checks."""
    return math.exp(sum(math.log(v) for v in values) / len(values))


def _fail(failures: Failures, ops: Iterable[str], reason: str) -> None:
    for op in ops:
        failures.setdefault(op, reason)


def stats_invariants(stats, label: str) -> List[str]:
    """Problems with one run's stats: measured cycles must cover every
    measured couplet, and execution time is cycles x cycle time."""
    problems = []
    if stats.cycles < stats.n_couplets:
        problems.append(
            f"{label}: {stats.cycles} cycles < {stats.n_couplets} couplets"
        )
    if stats.execution_time_ns != stats.cycles * stats.cycle_ns:
        problems.append(f"{label}: execution ns != cycles x cycle ns")
    return problems


# -- references ----------------------------------------------------------
def engine_cell(config, traces, seed: int) -> Dict:
    """Engine cycles per trace and their geometric-mean execution time."""
    from repro.sim.engine import simulate

    runs = [simulate(config, trace, seed=seed) for trace in traces]
    problems = []
    for trace, stats in zip(traces, runs):
        problems += stats_invariants(stats, trace.name)
    return {
        "cycles": [s.cycles for s in runs],
        "execution_ns": geometric_mean(
            [s.cycles * config.cycle_ns for s in runs]
        ),
        "problems": problems,
    }


def cell_config(cell: Mapping):
    """The organization and timing one sampled grid cell stands for, built
    from the paper's parameters (§2 base system, §5 memory variations)."""
    from repro.core.policy import ReplacementKind
    from repro.core.timing import MemoryTiming
    from repro.sim.config import baseline_config

    if cell["kind"] == "speed_size":
        return baseline_config(
            cache_size_bytes=cell["size_each"], block_words=4,
            assoc=cell["assoc"], cycle_ns=cell["cycle_ns"],
            replacement=ReplacementKind.RANDOM, write_buffer_depth=4,
            memory=MemoryTiming(),
        )
    memory = (
        MemoryTiming()
        .with_latency_ns(cell["latency_ns"])
        .with_transfer_rate(cell["rate"])
    )
    return baseline_config(
        cache_size_bytes=cell["size_each"], block_words=cell["block_words"],
        cycle_ns=cell["cycle_ns"], write_buffer_depth=4, memory=memory,
    )


def reference_cells(cells: Sequence[Mapping], suite, seed: int) -> List[Dict]:
    traces = list(suite.values())
    return [
        dict(engine_cell(cell_config(cell), traces, seed), cell=dict(cell))
        for cell in cells
    ]


def check_cells(cells: Sequence[Mapping], references: Sequence[Dict],
                failures: Failures) -> None:
    """Each reported cell equals the engine's geometric mean exactly."""
    for cell, ref in zip(cells, references):
        if any(cell[k] != v for k, v in ref["cell"].items()):
            raise ValueError(f"reference computed for {ref['cell']}, "
                             f"not for {cell}")
        if ref["problems"]:
            _fail(failures, cell["ops"], "; ".join(ref["problems"]))
        if cell["execution_ns"] != ref["execution_ns"]:
            _fail(
                failures, cell["ops"],
                f"{cell['label']}: reported {cell['execution_ns']!r} ns, "
                f"engine {ref['execution_ns']!r} ns",
            )


# -- paper-all -----------------------------------------------------------
def reference_sec6(sec6: Mapping, suite, seed: int) -> Dict[str, float]:
    """§6's no-L2 points recomputed by the fastpath."""
    from repro.experiments.multilevel import DEFAULT_TRACE_SUBSET
    from repro.sim.config import baseline_config
    from repro.sim.fastpath import fast_simulate

    traces = [suite[name] for name in DEFAULT_TRACE_SUBSET]
    out = {}
    for label in sec6["execution"]:
        total_kb, where = label.split("@")
        if where != "mem":
            continue
        config = baseline_config(
            cache_size_bytes=int(total_kb[:-2]) * 1024 // 2,
            cycle_ns=sec6["cycle_ns"],
        )
        out[label] = geometric_mean([
            fast_simulate(config, trace, seed=seed).execution_time_ns
            for trace in traces
        ])
    return out


def _non_increasing(values: Sequence[float]) -> bool:
    return all(b <= a for a, b in zip(values, values[1:]))


def check_paper_all(outputs: Mapping, references: Mapping) -> Failures:
    failures: Failures = {}
    for op, reason in outputs["errors"].items():
        failures[op] = reason
    table2 = {float(k): tuple(v) for k, v in outputs["table2"].items()}
    if table2 != PAPER_TABLE2:
        failures.setdefault("table2", "differs from the paper's Table 2")
    # Direct-mapped caches of one block size refine each other's sets,
    # so a larger cache holds a superset: no miss ratio may rise.
    for side, values in outputs["fig3_1"].items():
        if not _non_increasing(values):
            failures.setdefault(
                "fig3_1", f"{side} miss ratio rises with size: {values}"
            )
    check_cells(outputs["cells"], references["cells"], failures)
    for label, expected in references["sec6"].items():
        got = outputs["sec6"]["execution"].get(label)
        if got != expected:
            failures.setdefault(
                "sec6", f"{label}: reported {got!r} ns, fastpath {expected!r}"
            )
    return failures


# -- reprice-warm --------------------------------------------------------
def check_reprice(outputs: Mapping, references: Mapping) -> Failures:
    failures: Failures = {}
    for sweep, misses in outputs["misses"].items():
        if misses:
            _fail(failures, outputs["sweep_ops"][sweep],
                  f"{misses} pass-cache miss(es) in the timed {sweep} sweep")
    check_cells(outputs["cells"], references["cells"], failures)
    return failures


# -- campaign-cold -------------------------------------------------------
def reference_campaign(samples: Mapping, suite, seed: int) -> Dict[str, Dict]:
    """Engine stats, as plain data, for each sampled campaign run."""
    from repro.sim.config import baseline_config
    from repro.sim.engine import simulate

    out = {}
    for run_id, sample in samples.items():
        config = baseline_config(
            cache_size_bytes=sample["size_each"], block_words=4, assoc=1,
            cycle_ns=sample["cycle_ns"],
        )
        stats = simulate(config, suite[sample["trace"]], seed=seed)
        out[run_id] = {
            "stats": dataclasses.asdict(stats),
            "problems": stats_invariants(stats, run_id),
        }
    return out


def _stats_diff(stored: Mapping, expected: Mapping) -> List[str]:
    """Fields where two stats documents differ (a missing field counts)."""
    return sorted(
        k for k in set(stored) | set(expected)
        if stored.get(k) != expected.get(k)
    )


def check_campaign(outputs: Mapping, references: Mapping) -> Failures:
    failures: Failures = {}
    ops, warm_ops = outputs["ops"], outputs["warm_ops"]
    cold_ops = [op for op in ops if op not in set(warm_ops)]
    if outputs["rc_run"] != 0:
        _fail(failures, cold_ops, f"campaign run exited {outputs['rc_run']}")
    if outputs["rc_fsck"] != 0:
        _fail(failures, cold_ops,
              f"campaign fsck exited {outputs['rc_fsck']}")
    if outputs["rc_warm"] != 0:
        _fail(failures, warm_ops,
              f"warm campaign run exited {outputs['rc_warm']}")
    if outputs["cache_rewritten"]:
        _fail(failures, warm_ops,
              f"{len(outputs['cache_rewritten'])} pass-cache miss(es) "
              "in the warm re-run")
    for op in ops:
        status = outputs["manifest"].get(op)
        if status != "ok":
            failures.setdefault(op, f"manifest status {status!r}")
    for op, pair in outputs["warm_pairs"].items():
        diff = _stats_diff(pair["warm"], pair["cold"])
        if diff:
            failures.setdefault(
                op, f"warm result differs from the cold one in {diff}"
            )
    for op, ref in references.items():
        if ref["problems"]:
            failures.setdefault(op, "; ".join(ref["problems"]))
        diff = _stats_diff(outputs["samples"][op]["stats"], ref["stats"])
        if diff:
            failures.setdefault(
                op, f"stored result differs from the engine in {diff}"
            )
    return failures
