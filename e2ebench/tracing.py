"""Span tracing for the benchmark's traced pass.

The traced pass wraps the public entry points of each simulator layer
(named after its module) with spans: name, start, end and parent span.
Spans stay in memory; a forked campaign worker writes its own spans to
``<spill_dir>/spans-<pid>.jsonl`` when its outermost span closes, since
pool workers leave through ``os._exit`` and never run exit hooks.
:func:`layer_metrics` turns the spans and the counters the wrappers
keep into the per-layer metrics of ``BENCHMARK.json``.

Nothing under ``src/`` changes: the wrappers are installed by
rebinding module attributes (and class attributes for methods) in the
benchmark's own worker process, so the untraced pass runs the program
exactly as shipped.
"""

from __future__ import annotations

import importlib
import itertools
import json
import os
import sys
import threading
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Dict, List, Optional

#: The ``repro.core`` analysis modules whose public functions count
#: towards ``core.analysis_s``.
ANALYSIS_MODULES = (
    "repro.core.equal_performance",
    "repro.core.associativity",
    "repro.core.blocksize",
    "repro.core.penalty",
)

#: Span names whose self time is reported as ``<metric>``.
SELF_TIME_METRICS = {
    "trace.build": "trace.build_s",
    "cpu.pair": "cpu.pair_s",
    "fastpath.pass": "fastpath.pass_s",
    "stackpass.walk": "stackpass.walk_s",
    "replay.kernel": "replay.kernel_s",
    "replay.scalar": "replay.scalar_s",
    "passcache.get": "passcache.get_s",
    "passcache.put": "passcache.put_s",
    "engine.run": "engine.run_s",
    "sweep.speed_size": "sweep.speed_size_s",
    "sweep.blocksize": "sweep.blocksize_s",
    "core.analysis": "core.analysis_s",
    "campaign.run": "campaign.run_s",
    "campaign.fsck": "campaign.fsck_s",
}

#: Counters every traced run reports, zero when the layer never ran.
COUNT_METRICS = (
    "trace.build_calls",
    "cpu.pair_calls",
    "fastpath.pass_calls",
    "fastpath.unique_passes",
    "fastpath.refs_walked",
    "stackpass.calls",
    "stackpass.streams",
    "replay.kernel_calls",
    "replay.points_priced",
    "replay.vectorized_events",
    "replay.scalar_events",
    "replay.scalar_calls",
    "passcache.hits",
    "passcache.misses",
    "passcache.bytes_read",
    "passcache.puts",
    "passcache.bytes_written",
    "engine.runs",
    "sweep.calls",
    "campaign.results_bytes",
)


class Tracer:
    """In-memory span and counter store with function wrappers."""

    def __init__(self, spill_dir: Optional[Path] = None) -> None:
        self.pid = os.getpid()
        self.enabled = True
        self.spill_dir = spill_dir
        #: ``(span id, name, parent id, start, end, pid)`` tuples.
        self.spans: List[tuple] = []
        self.counts: Counter = Counter()
        #: Distinct functional-pass keys (``fastpath.unique_passes``).
        self.pass_keys: set = set()
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._owner = self.pid

    def _claim_process(self) -> None:
        """In a freshly forked worker, drop the counters and the span
        stack inherited from the parent, so the worker's spans are roots
        and its spill holds only its own work."""
        pid = os.getpid()
        if self._owner != pid:
            self._owner = pid
            self.counts = Counter()
            self.pass_keys = set()
            self._local = threading.local()

    # -- spans -----------------------------------------------------------
    def _stack(self) -> List[str]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield
            return
        stack = self._stack()
        pid = os.getpid()
        span_id = f"{pid}-{next(self._ids)}"
        parent = stack[-1] if stack else None
        stack.append(span_id)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append((span_id, name, parent, start, end, pid))
            if not stack and pid != self.pid:
                self._spill(pid)

    def _spill(self, pid: int) -> None:
        """Write a forked worker's spans and counters to its spill file."""
        if self.spill_dir is None:
            return
        own = [s for s in self.spans if s[5] == pid]
        self.spans = [s for s in self.spans if s[5] != pid]
        record = {
            "spans": own,
            "counts": dict(self.counts),
            "pass_keys": sorted(self.pass_keys),
        }
        self.counts = Counter()
        self.pass_keys = set()
        with open(self.spill_dir / f"spans-{pid}.jsonl", "a") as handle:
            handle.write(json.dumps(record) + "\n")

    def absorb_spills(self) -> None:
        """Fold every forked worker's spilled spans and counters in."""
        if self.spill_dir is None or not self.spill_dir.is_dir():
            return
        for path in sorted(self.spill_dir.glob("spans-*.jsonl")):
            for line in path.read_text().splitlines():
                record = json.loads(line)
                self.spans.extend(tuple(s) for s in record["spans"])
                self.counts.update(record["counts"])
                self.pass_keys.update(record["pass_keys"])

    # -- wrappers --------------------------------------------------------
    def _wrap(self, original: Callable, name: str,
              before: Optional[Callable] = None,
              after: Optional[Callable] = None) -> Callable:
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return original(*args, **kwargs)
            tracer._claim_process()
            state = before(args, kwargs) if before else None
            # Counters update inside the span, so a forked worker's
            # spill (when its outermost span closes) includes them.
            with tracer.span(name):
                result = original(*args, **kwargs)
                if after:
                    after(tracer, args, kwargs, result, state)
            return result

        wrapper.__wrapped__ = original
        wrapper.__name__ = getattr(original, "__name__", name)
        wrapper.__doc__ = getattr(original, "__doc__", None)
        return wrapper

    def wrap_function(self, module_name: str, attr: str, name: str,
                      before: Optional[Callable] = None,
                      after: Optional[Callable] = None) -> None:
        """Wrap ``module.attr`` and every ``from module import attr``
        binding already made in a loaded ``repro`` module."""
        module = importlib.import_module(module_name)
        original = getattr(module, attr)
        wrapper = self._wrap(original, name, before, after)
        for loaded in list(sys.modules.values()):
            if not getattr(loaded, "__name__", "").startswith("repro"):
                continue
            for key, value in list(vars(loaded).items()):
                if value is original:
                    setattr(loaded, key, wrapper)

    def wrap_method(self, cls, attr: str, name: str,
                    before: Optional[Callable] = None,
                    after: Optional[Callable] = None) -> None:
        setattr(cls, attr,
                self._wrap(cls.__dict__[attr], name, before, after))


# -- counter hooks -------------------------------------------------------
def _arg(args, kwargs, index: int, key: str):
    return args[index] if len(args) > index else kwargs.get(key)


def _count(name: str) -> Callable:
    def after(tracer, args, kwargs, result, state):
        tracer.counts[name] += 1
    return after


def _after_pass(tracer, args, kwargs, result, state):
    config = _arg(args, kwargs, 0, "config")
    trace = _arg(args, kwargs, 1, "trace")
    seed = _arg(args, kwargs, 3, "seed") or 0
    l1 = config.l1
    tracer.counts["fastpath.pass_calls"] += 1
    tracer.counts["fastpath.refs_walked"] += len(trace)
    tracer.pass_keys.add(repr((
        l1.i_geometry, l1.d_geometry, l1.policy,
        trace.content_fingerprint(), seed,
    )))


def _after_stack(tracer, args, kwargs, result, state):
    tracer.counts["stackpass.calls"] += 1
    tracer.counts["stackpass.streams"] += len(result)


def _before_grid(args, kwargs):
    stats = args[0].stats
    return stats.vectorized_events, stats.scalar_events


def _after_grid(tracer, args, kwargs, result, state):
    stats = args[0].stats
    tracer.counts["replay.kernel_calls"] += 1
    tracer.counts["replay.points_priced"] += len(_arg(args, kwargs, 1, "points"))
    # Event-grid cells priced by the prefix-sum path and by the exact
    # scalar state machine for contended stretches.
    tracer.counts["replay.vectorized_events"] += (
        stats.vectorized_events - state[0])
    tracer.counts["replay.scalar_events"] += stats.scalar_events - state[1]


def _before_cache(args, kwargs):
    counters = args[0].counters
    return (counters.hits, counters.misses, counters.bytes_read,
            counters.puts, counters.bytes_written)


def _after_cache(tracer, args, kwargs, result, state):
    counters = args[0].counters
    now = (counters.hits, counters.misses, counters.bytes_read,
           counters.puts, counters.bytes_written)
    for name, old, new in zip(
        ("passcache.hits", "passcache.misses", "passcache.bytes_read",
         "passcache.puts", "passcache.bytes_written"), state, now,
    ):
        tracer.counts[name] += new - old


def install(tracer: Tracer) -> None:
    """Wrap every layer boundary the per-layer metrics are taken at."""
    # Import everything the workloads reach first, so the rebinding in
    # wrap_function sees each module's ``from x import f`` names.
    for module_name in (
        "repro.cli", "repro.experiments.registry", "repro.sim.resilience",
        "repro.sim.sampling", *ANALYSIS_MODULES,
    ):
        importlib.import_module(module_name)
    from repro.sim.campaign import Campaign
    from repro.sim.passcache import PassCache
    from repro.sim.replaykernel import BatchReplayKernel
    from repro.sim.resilience import CampaignExecutor

    tracer.wrap_function("repro.trace.suite", "build_trace", "trace.build",
                         after=_count("trace.build_calls"))
    tracer.wrap_function("repro.cpu.processor", "pair_couplets", "cpu.pair",
                         after=_count("cpu.pair_calls"))
    tracer.wrap_function("repro.sim.fastpath", "functional_pass",
                         "fastpath.pass", after=_after_pass)
    tracer.wrap_function("repro.sim.fastpath", "replay", "replay.scalar",
                         after=_count("replay.scalar_calls"))
    tracer.wrap_function("repro.sim.stackpass", "stack_functional_passes",
                         "stackpass.walk", after=_after_stack)
    tracer.wrap_function("repro.sim.engine", "simulate", "engine.run",
                         after=_count("engine.runs"))
    tracer.wrap_function("repro.core.sweep", "run_speed_size_sweep",
                         "sweep.speed_size", after=_count("sweep.calls"))
    tracer.wrap_function("repro.core.sweep", "run_blocksize_sweep",
                         "sweep.blocksize", after=_count("sweep.calls"))
    tracer.wrap_method(BatchReplayKernel, "__init__", "replay.kernel")
    tracer.wrap_method(BatchReplayKernel, "replay_grid", "replay.kernel",
                       before=_before_grid, after=_after_grid)
    tracer.wrap_method(PassCache, "get", "passcache.get",
                       before=_before_cache, after=_after_cache)
    tracer.wrap_method(PassCache, "put", "passcache.put",
                       before=_before_cache, after=_after_cache)
    tracer.wrap_method(CampaignExecutor, "run_sweep", "campaign.run")
    tracer.wrap_method(Campaign, "fsck", "campaign.fsck")
    for module_name in ANALYSIS_MODULES:
        module = importlib.import_module(module_name)
        for attr, value in list(vars(module).items()):
            if (callable(value) and not attr.startswith("_")
                    and getattr(value, "__module__", "") == module_name
                    and not isinstance(value, type)):
                tracer.wrap_function(module_name, attr, "core.analysis")


def adopt_worker_spans(spans: List[tuple], main_pid: int) -> List[tuple]:
    """Give each outermost span of another process (a forked campaign
    worker) the innermost span of ``main_pid`` that encloses it in time
    as its parent, so the coordinator's wait on a worker is not also
    counted as the coordinator's own time.  ``time.perf_counter`` is the
    system-wide monotonic clock, so the processes' times compare."""
    own = [s for s in spans if s[5] == main_pid]
    adopted = []
    for span in spans:
        sid, name, parent, start, end, pid = span
        if parent is None and pid != main_pid:
            enclosing = [s for s in own if s[3] <= start and end <= s[4]]
            if enclosing:
                parent = max(enclosing, key=lambda s: s[3])[0]
        adopted.append((sid, name, parent, start, end, pid))
    return adopted


def _covered(intervals: List[tuple]) -> float:
    """Length of the union of ``(start, end)`` intervals: the children
    of one span overlap when they ran in parallel worker processes."""
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total


def self_times(spans: List[tuple]) -> Dict[str, float]:
    """Total self time per span name: each span's duration minus the
    part of it its direct child spans cover."""
    children: Dict[str, List[tuple]] = defaultdict(list)
    for _sid, _name, parent, start, end, _pid in spans:
        if parent is not None:
            children[parent].append((start, end))
    totals: Dict[str, float] = defaultdict(float)
    for sid, name, _parent, start, end, _pid in spans:
        totals[name] += (end - start) - _covered(children[sid])
    return dict(totals)


def inclusive_times(spans: List[tuple]) -> Dict[str, float]:
    """Total duration per span name, counting only outermost spans of
    each name (a span nested in a same-named span adds nothing)."""
    names = {s[0]: s[1] for s in spans}
    parents = {s[0]: s[2] for s in spans}
    totals: Dict[str, float] = defaultdict(float)
    for sid, name, parent, start, end, _pid in spans:
        ancestor = parent
        while ancestor is not None and names.get(ancestor) != name:
            ancestor = parents.get(ancestor)
        if ancestor is None:
            totals[name] += end - start
    return dict(totals)


def layer_metrics(tracer: Tracer, experiment_ids) -> Dict[str, float]:
    """The per-layer metrics of one traced round (zero where a layer
    never ran).  ``experiments.<id>_s`` is inclusive time, the
    per-experiment table; every other ``_s`` metric is self time."""
    spans = adopt_worker_spans(tracer.spans, tracer.pid)
    selfs = self_times(spans)
    incl = inclusive_times(spans)
    metrics: Dict[str, float] = {}
    for span_name, metric in SELF_TIME_METRICS.items():
        metrics[metric] = selfs.get(span_name, 0.0)
    for name in COUNT_METRICS:
        metrics[name] = tracer.counts.get(name, 0)
    metrics["fastpath.unique_passes"] = len(tracer.pass_keys)
    pass_s = metrics["fastpath.pass_s"]
    metrics["fastpath.refs_per_s"] = (
        metrics["fastpath.refs_walked"] / pass_s if pass_s > 0 else 0.0
    )
    for experiment_id in experiment_ids:
        metrics[f"experiments.{experiment_id}_s"] = incl.get(
            f"experiments.{experiment_id}", 0.0
        )
    return metrics
