"""The benchmark's three workloads.

Each workload is built from its seed alone and has these phases:

* ``setup()`` — per-round preparation, reported in ``setup_s``: the
  trace-suite build (repeated, see :mod:`worker`);
* ``prepare()`` — per-run preparation in its own process before the
  rounds, added to ``setup_s``: filling the pass cache the
  ``reprice-warm`` rounds read (a no-op elsewhere);
* ``run(tracer)`` — the timed phase, calling only public entry points
  of ``repro.experiments``, ``repro.core.sweep``, ``repro.sim.passcache``
  and the ``repro-sim`` CLI with every setting passed explicitly;
* ``outputs()`` — the plain-data results the checks in :mod:`checks`
  compare against independent references (``references()``).  The
  engine references depend on the seed alone, so a run computes them
  once (``engine_references()``, after ``prepare``) and every round
  checks its own outputs against them.

An *operation* is one experiment (``paper-all``), one (organization,
trace) stream priced (``reprice-warm``) or one campaign run, cold or
warm (``campaign-cold``).
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from pathlib import Path
from typing import Dict, List, Optional

import checks

#: Trace length of each workload, in references per trace (the RISC
#: traces add a warm prefix of roughly 12% on top).
PAPER_LENGTH = 10_000
REPRICE_LENGTH = 80_000
CAMPAIGN_LENGTH = 10_000

#: Campaign grid: per-cache sizes (KB) x cycle times (ns).
CAMPAIGN_SIZES_KB = (4, 16, 64, 256)
CAMPAIGN_CYCLES_NS = (20.0, 40.0, 80.0)

#: The size (KB) whose row of the grid the warm campaign re-runs, and
#: the prefix of the warm re-run's operations.
CAMPAIGN_WARM_SIZE_KB = 16
WARM = "warm:"

#: Campaign worker processes running at once.  One: with two, the
#: pool's ``Process.start`` in one thread can reap a child another
#: thread is joining, and ``CampaignExecutor._execute_attempt`` then
#: takes the live-worker timeout branch with ``timeout_s=None`` and
#: raises ``TypeError`` (about one 96-run round in ten on a 2-vCPU
#: host).  Each run still
#: gets its own isolated worker process.
CAMPAIGN_JOBS = 1

#: §5's block-size sweep holds each cache at 64 KB.
BLOCKSIZE_CACHE_EACH = 64 * 1024


def measured_refs(trace) -> int:
    return len(trace) - trace.warm_boundary


class Workload:
    name = ""

    def __init__(self, seed: int, tmp: Path, length: Optional[int] = None,
                 shared: Optional[Path] = None):
        self.seed = seed
        self.tmp = tmp
        #: Directory shared by every round of one run.
        self.shared = shared or tmp
        self.length = length or self.default_length
        self.suite = None

    def setup(self) -> None:
        """Build the trace suite from nothing: every memo of
        ``repro.trace.suite`` is emptied first, so repeated set-ups in
        one process each pay for a full build."""
        from repro.trace import suite as suite_module

        for value in vars(suite_module).values():
            if callable(getattr(value, "cache_clear", None)):
                value.cache_clear()
        self.suite = suite_module.build_suite(length=self.length,
                                              seed=self.seed)

    def prepare(self) -> None:
        """Per-run preparation (runs after ``setup`` in its own process)."""

    def design_refs(self) -> int:
        """Measured references x design points the workload asks for."""
        raise NotImplementedError

    def engine_references(self) -> Dict:
        """The seed's engine references, computed once per run."""
        path = self.shared / "references.json"
        if not path.exists():
            path.write_text(json.dumps(self.compute_engine_references()))
        return json.loads(path.read_text())

    def references(self, outputs: Dict) -> Dict:
        return self.engine_references()

    def check(self) -> Dict[str, str]:
        outputs = self.outputs()
        return self.check_fn(outputs, self.references(outputs))


# -- paper-all -------------------------------------------------------------
class PaperAll(Workload):
    """Every registered experiment, in registry order, single-process."""

    name = "paper-all"
    default_length = PAPER_LENGTH
    check_fn = staticmethod(checks.check_paper_all)

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        from repro.experiments import ExperimentSettings
        from repro.trace.suite import ALL_TRACES

        self.settings = ExperimentSettings(
            trace_length=self.length, trace_names=ALL_TRACES, seed=self.seed,
            full=False, n_jobs=1, pass_cache_dir="", stack_pass=False,
            sample="",
        )
        from repro.experiments import list_experiments

        self.ops = list_experiments()
        self.results = {}
        self.errors: Dict[str, str] = {}

    def run(self, tracer) -> None:
        from repro.experiments import run_experiment

        for experiment_id in self.ops:
            span = (tracer.span(f"experiments.{experiment_id}")
                    if tracer else contextlib.nullcontext())
            try:
                with span:
                    result = run_experiment(experiment_id, self.settings)
            except Exception as exc:  # counted as a failed operation
                self.errors[experiment_id] = f"{type(exc).__name__}: {exc}"
                continue
            if not result.ok:
                self.errors[experiment_id] = result.text
            self.results[experiment_id] = result

    def sampled_cells(self) -> List[Dict]:
        """Seed-chosen cells of the fig3_1 grid, the assoc-2 grid and the
        fig5_2 block-size curves."""
        s = self.settings
        rng = random.Random(self.seed)
        cells = []
        for assoc, op, k in ((1, "fig3_1", 2), (2, "fig4_2", 1)):
            for size in rng.sample(s.sizes_each_bytes, k):
                cells.append({
                    "kind": "speed_size", "assoc": assoc, "size_each": size,
                    "cycle_ns": rng.choice(s.cycle_times_ns), "ops": [op],
                })
        cells.append({
            "kind": "blocksize", "size_each": BLOCKSIZE_CACHE_EACH,
            "block_words": rng.choice(s.block_sizes_words),
            "latency_ns": rng.choice(s.latencies_ns),
            "rate": rng.choice(s.transfer_rates),
            "cycle_ns": 40.0, "ops": ["fig5_2"],
        })
        return cells

    def outputs(self) -> Dict:
        from repro.experiments import blocksize_curves, speed_size_grid
        from repro.units import quantize_ns

        cells = self.sampled_cells()
        for cell in cells:
            if cell["kind"] == "speed_size":
                grid = speed_size_grid(self.settings, assoc=cell["assoc"])
                i = grid.size_index(2 * cell["size_each"])
                j = grid.cycle_index(cell["cycle_ns"])
                cell["execution_ns"] = float(grid.execution_ns[i, j])
                cell["label"] = (f"assoc {cell['assoc']} "
                                 f"{cell['size_each']}B@{cell['cycle_ns']}ns")
            else:
                key = (quantize_ns(cell["latency_ns"], cell["cycle_ns"]),
                       cell["rate"])
                curve = blocksize_curves(self.settings)[key]
                k = list(curve.block_sizes_words).index(cell["block_words"])
                cell["execution_ns"] = float(curve.execution_ns[k])
                cell["label"] = (f"{cell['block_words']}W "
                                 f"{cell['latency_ns']}ns x{cell['rate']}")
        data = {eid: r.data for eid, r in self.results.items()}
        return {
            "errors": dict(self.errors),
            "table2": {
                str(k): list(v)
                for k, v in data.get("table2", {}).get("computed", {}).items()
            },
            "fig3_1": {
                side: list(data.get("fig3_1", {}).get(f"{side}_miss_ratio", []))
                for side in ("read", "load", "ifetch")
            },
            "cells": cells,
            "sec6": {
                "cycle_ns": data.get("sec6", {}).get("cycle_ns", 0.0),
                "execution": dict(data.get("sec6", {}).get("execution", {})),
            },
        }

    def compute_engine_references(self) -> Dict:
        return {"cells": checks.reference_cells(
            self.sampled_cells(), self.suite, self.seed
        )}

    def references(self, outputs: Dict) -> Dict:
        return dict(
            self.engine_references(),
            sec6=checks.reference_sec6(outputs["sec6"], self.suite, self.seed),
        )

    def design_refs(self) -> int:
        """Distinct (organization, timing, trace) points the 16
        experiments ask for, each weighted by its trace's measured refs.

        The grids are read off the settings and the experiments' fixed
        parameters; a point several experiments share counts once.
        """
        from repro.experiments.fig5_1 import LATENCY_NS
        from repro.experiments.multilevel import DEFAULT_TRACE_SUBSET

        s = self.settings
        names = list(self.suite)
        points = set()

        def add(org, timing, traces=names):
            points.update((org, timing, t) for t in traces)

        for assoc in s.assocs:
            for size in s.sizes_each_bytes:
                for cycle in s.cycle_times_ns:
                    add((size, 4, assoc, False), ("base", cycle))
        # fig3_1's family comparison at the second size, 40 ns.
        add((s.sizes_each_bytes[1], 4, 1, False), ("base", 40.0))
        for block in s.block_sizes_words:
            for latency in s.latencies_ns:
                for rate in s.transfer_rates:
                    add((BLOCKSIZE_CACHE_EACH, block, 1, False),
                        (latency, rate, 40.0))
            add((BLOCKSIZE_CACHE_EACH, block, 1, False),
                (LATENCY_NS, 1.0, 40.0))
        for size in (2048, 8192, 32768):  # sec6's L1 ladder at 20 ns
            for l2 in (False, True):
                add((size, 4, 1, l2), ("base", 20.0), DEFAULT_TRACE_SUBSET)
        base_cycles = (20.0, 28.0, 40.0, 60.0, 80.0)  # scaling's clocks
        for size in s.sizes_each_bytes[:4]:
            for cycle in base_cycles:
                add((size, 4, 1, False), ("base", cycle))
                add((size, 4, 1, False), ("half", cycle / 2))
                add((size, 4, 1, False), ("base", cycle / 2))
        refs = {name: measured_refs(t) for name, t in self.suite.items()}
        return sum(refs[t] for _org, _timing, t in points)


# -- reprice-warm ----------------------------------------------------------
class RepriceWarm(Workload):
    """§3's speed-size and §5's block-size sweeps over the paper-scale
    axes, every functional pass read from a pass cache set-up filled."""

    name = "reprice-warm"
    default_length = REPRICE_LENGTH
    check_fn = staticmethod(checks.check_reprice)

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        from repro.experiments import ExperimentSettings

        # Paper-scale timing axes over the default (reduced) organizations.
        full, reduced = (
            ExperimentSettings(
                trace_length=self.length, seed=self.seed, full=scale,
                n_jobs=1, pass_cache_dir="", stack_pass=False, sample="",
            )
            for scale in (True, False)
        )
        self.sizes = reduced.sizes_each_bytes
        self.cycles = full.cycle_times_ns
        self.blocks = reduced.block_sizes_words
        self.latencies = full.latencies_ns
        self.rates = full.transfer_rates
        self.cache_dir = self.shared / "passes"
        self.misses = {}

    def _pass_jobs(self):
        from repro.core.policy import ReplacementKind
        from repro.core.timing import MemoryTiming
        from repro.sim.config import baseline_config

        traces = list(self.suite.values())
        configs = [
            baseline_config(
                cache_size_bytes=size, block_words=4, assoc=1,
                replacement=ReplacementKind.RANDOM, write_buffer_depth=4,
                memory=MemoryTiming(),
            )
            for size in self.sizes
        ] + [
            baseline_config(
                cache_size_bytes=BLOCKSIZE_CACHE_EACH, block_words=block,
                cycle_ns=40.0, write_buffer_depth=4,
            )
            for block in self.blocks
        ]
        return [(c, t, self.seed) for c in configs for t in traces]

    def prepare(self) -> None:
        from repro.core.sweep import run_functional_passes
        from repro.sim.passcache import PassCache

        run_functional_passes(
            self._pass_jobs(), cache=PassCache(self.cache_dir),
            strategy="stack",
        )

    @property
    def sweep_ops(self) -> Dict[str, List[str]]:
        names = list(self.suite)
        return {
            "speed_size": [f"ss:{s}:{t}" for s in self.sizes for t in names],
            "blocksize": [f"bs:{b}:{t}" for b in self.blocks for t in names],
        }

    @property
    def ops(self) -> List[str]:
        ops = self.sweep_ops
        return ops["speed_size"] + ops["blocksize"]

    def run(self, tracer) -> None:
        from repro.core.sweep import run_blocksize_sweep, run_speed_size_sweep
        from repro.sim.passcache import PassCache

        cache = PassCache(self.cache_dir)
        self.grid = run_speed_size_sweep(
            self.suite, self.sizes, self.cycles, assoc=1, seed=self.seed,
            n_jobs=1, pass_cache=cache, use_replay_kernel=True,
            replay_jobs=1, functional_strategy="scalar",
        )
        self.misses["speed_size"] = cache.counters.misses
        self.curves = run_blocksize_sweep(
            self.suite, self.blocks, self.latencies, self.rates,
            cache_size_each_bytes=BLOCKSIZE_CACHE_EACH, cycle_ns=40.0,
            seed=self.seed, n_jobs=1, pass_cache=cache,
            use_replay_kernel=True, replay_jobs=1,
            functional_strategy="scalar",
        )
        self.misses["blocksize"] = (
            cache.counters.misses - self.misses["speed_size"]
        )

    def sampled_cells(self) -> List[Dict]:
        rng = random.Random(self.seed)
        names = list(self.suite)
        cells = []
        for size in rng.sample(self.sizes, 1):
            cells.append({
                "kind": "speed_size", "assoc": 1, "size_each": size,
                "cycle_ns": rng.choice(self.cycles),
                "ops": [f"ss:{size}:{t}" for t in names],
            })
        block = rng.choice(self.blocks)
        cells.append({
            "kind": "blocksize", "size_each": BLOCKSIZE_CACHE_EACH,
            "block_words": block, "latency_ns": rng.choice(self.latencies),
            "rate": rng.choice(self.rates), "cycle_ns": 40.0,
            "ops": [f"bs:{block}:{t}" for t in names],
        })
        return cells

    def outputs(self) -> Dict:
        from repro.units import quantize_ns

        cells = self.sampled_cells()
        for cell in cells:
            if cell["kind"] == "speed_size":
                i = self.grid.size_index(2 * cell["size_each"])
                j = self.grid.cycle_index(cell["cycle_ns"])
                cell["execution_ns"] = float(self.grid.execution_ns[i, j])
                cell["label"] = f"{cell['size_each']}B@{cell['cycle_ns']}ns"
            else:
                key = (quantize_ns(cell["latency_ns"], 40.0), cell["rate"])
                curve = self.curves[key]
                k = list(curve.block_sizes_words).index(cell["block_words"])
                cell["execution_ns"] = float(curve.execution_ns[k])
                cell["label"] = (f"{cell['block_words']}W "
                                 f"{cell['latency_ns']}ns x{cell['rate']}")
        return {
            "misses": dict(self.misses),
            "sweep_ops": self.sweep_ops,
            "cells": cells,
        }

    def compute_engine_references(self) -> Dict:
        return {"cells": checks.reference_cells(
            self.sampled_cells(), self.suite, self.seed
        )}

    def design_refs(self) -> int:
        per_suite = sum(measured_refs(t) for t in self.suite.values())
        points = (len(self.sizes) * len(self.cycles)
                  + len(self.blocks) * len(self.latencies) * len(self.rates))
        return points * per_suite


# -- campaign-cold ---------------------------------------------------------
class CampaignCold(Workload):
    """``repro-sim campaign run`` of a (size x cycle time) grid into a
    fresh results directory and pass cache, then ``campaign fsck``, then
    a warm re-run of one size's row into a second fresh results
    directory that reads every pass from the cache the cold run wrote."""

    name = "campaign-cold"
    default_length = CAMPAIGN_LENGTH
    check_fn = staticmethod(checks.check_campaign)

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.results_dir = self.tmp / "campaign"
        self.warm_dir = self.tmp / "campaign-warm"
        self.cache_dir = self.tmp / "campaign-passes"
        self.log = io.StringIO()

    def _grid(self):
        from repro.sim.config import baseline_config

        return [
            (size_kb, cycle, baseline_config(
                cache_size_bytes=size_kb * 1024, block_words=4, assoc=1,
                cycle_ns=cycle,
            ))
            for size_kb in CAMPAIGN_SIZES_KB
            for cycle in CAMPAIGN_CYCLES_NS
        ]

    def _runs(self):
        from repro.sim.campaign import run_id

        return [
            (run_id(config, trace), size_kb, cycle, trace.name)
            for size_kb, cycle, config in self._grid()
            for trace in self.suite.values()
        ]

    def _warm_runs(self):
        return [run for run in self._runs() if run[1] == CAMPAIGN_WARM_SIZE_KB]

    @property
    def ops(self) -> List[str]:
        return ([run[0] for run in self._runs()]
                + [WARM + run[0] for run in self._warm_runs()])

    def _campaign(self, directory: Path, sizes_kb) -> int:
        from repro.cli import main

        return main([
            "campaign", "run", str(directory),
            "--sizes-kb", ",".join(str(s) for s in sizes_kb),
            "--cycles-ns", ",".join(f"{c:g}" for c in CAMPAIGN_CYCLES_NS),
            "--length", str(self.length), "--seed", str(self.seed),
            "--jobs", str(CAMPAIGN_JOBS),
            "--pass-cache", str(self.cache_dir), "--backend", "pool",
        ])

    def _cache_entries(self) -> Dict[str, tuple]:
        """Every pass-cache entry with its inode and mtime: a miss in
        the warm re-run rewrites an entry (atomically, so under a new
        inode) or adds one."""
        return {
            p.name: (p.stat().st_ino, p.stat().st_mtime_ns)
            for p in self.cache_dir.glob("*.json")
        }

    def run(self, tracer) -> None:
        from repro.cli import main

        with contextlib.redirect_stdout(self.log), \
                contextlib.redirect_stderr(self.log):
            self.rc_run = self._campaign(self.results_dir, CAMPAIGN_SIZES_KB)
            self.rc_fsck = main(["campaign", "fsck", str(self.results_dir)])
            cold_entries = self._cache_entries()
            self.rc_warm = self._campaign(self.warm_dir,
                                          [CAMPAIGN_WARM_SIZE_KB])
        self.cache_rewritten = sorted(
            name for name, entry in self._cache_entries().items()
            if cold_entries.get(name) != entry
        )

    def results_bytes(self) -> int:
        return sum(
            p.stat().st_size
            for d in (self.results_dir, self.warm_dir)
            for p in d.rglob("*") if p.is_file()
        )

    def sampled_runs(self) -> Dict[str, Dict]:
        """Seed-chosen runs the reference engine re-checks: four of the
        cold grid and two of the warm re-run."""
        rng = random.Random(self.seed)
        return {
            prefix + rid: {"size_each": size_kb * 1024, "cycle_ns": cycle,
                           "trace": trace}
            for prefix, runs, k in (("", self._runs(), 4),
                                    (WARM, self._warm_runs(), 2))
            for rid, size_kb, cycle, trace in rng.sample(runs, k)
        }

    def outputs(self) -> Dict:
        import dataclasses

        from repro.errors import ReproError
        from repro.sim.campaign import Campaign
        from repro.sim.resilience import CampaignManifest

        campaigns = {"": Campaign(self.results_dir),
                     WARM: Campaign(self.warm_dir)}

        def stored(op: str) -> Dict:
            prefix = WARM if op.startswith(WARM) else ""
            try:
                return dataclasses.asdict(
                    campaigns[prefix].load(op[len(prefix):]))
            except ReproError as exc:
                return {"error": str(exc)}

        manifest = {}
        for prefix, campaign in campaigns.items():
            runs = CampaignManifest.load(campaign.manifest_path).runs
            manifest.update(
                (prefix + rid, rec.status) for rid, rec in runs.items()
            )
        warm_ops = [WARM + run[0] for run in self._warm_runs()]
        return {
            "ops": self.ops,
            "warm_ops": warm_ops,
            "rc_run": self.rc_run,
            "rc_fsck": self.rc_fsck,
            "rc_warm": self.rc_warm,
            "cache_rewritten": list(self.cache_rewritten),
            "manifest": manifest,
            "samples": {
                op: dict(sample, stats=stored(op))
                for op, sample in self.sampled_runs().items()
            },
            "warm_pairs": {
                op: {"warm": stored(op), "cold": stored(op[len(WARM):])}
                for op in warm_ops
            },
        }

    def compute_engine_references(self) -> Dict:
        return checks.reference_campaign(
            self.sampled_runs(), self.suite, self.seed
        )

    def design_refs(self) -> int:
        """The grid's design points; the warm re-run asks for points of
        the grid again, so they count once."""
        per_suite = sum(measured_refs(t) for t in self.suite.values())
        return len(self._grid()) * per_suite


WORKLOADS = {w.name: w for w in (PaperAll, RepriceWarm, CampaignCold)}
