"""One benchmark round in a fresh interpreter.

``run.py`` starts this script once per round, so the experiment memos
(``_GRID_CACHE``, ``_BLOCKSIZE_CACHE``) and the ``build_suite`` memo
start empty every time.  The round sets up (building the suite
``SETUP_BUILDS`` times from nothing), runs the timed phase,
records peak RSS, checks every output and writes one JSON document::

    python3 e2ebench/worker.py --workload paper-all --seed 0 \\
        --trace 0 --tmp DIR --shared DIR --out round.json [--length N]

``--prepare`` instead runs the workload's per-run preparation (filling
the ``reprice-warm`` pass cache under ``--shared``) and reports its
time.  With ``--trace 1`` the layer wrappers of :mod:`tracing` are
installed first and the document also carries the per-layer metrics.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

#: Suite builds per round; ``setup_s`` is their median.
SETUP_BUILDS = 5


def peak_rss_mb() -> float:
    """Peak resident set of this process or any child it waited for."""
    return max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    ) / 1024.0


def _tracer(tmp: Path):
    import tracing

    tracer = tracing.Tracer(spill_dir=tmp / "spans")
    tracer.spill_dir.mkdir(parents=True, exist_ok=True)
    tracing.install(tracer)
    return tracer


def _layers(tracer) -> dict:
    import tracing
    from repro.experiments import list_experiments

    tracer.enabled = False
    tracer.absorb_spills()
    return tracing.layer_metrics(tracer, list_experiments())


def run_prepare(workload, tmp: Path, traced: bool) -> dict:
    workload.setup()
    tracer = _tracer(tmp) if traced else None
    start = time.perf_counter()
    workload.prepare()
    result = {"prepare_s": time.perf_counter() - start}
    if tracer is not None:
        result["layers"] = _layers(tracer)
    workload.engine_references()
    return result


def run_round(workload, tmp: Path, traced: bool) -> dict:
    tracer = _tracer(tmp) if traced else None

    # The suite build takes a fraction of a second, so one build is a
    # noisy sample: build it several times (each from nothing) and
    # report the median.
    builds = []
    for _ in range(SETUP_BUILDS):
        start = time.perf_counter()
        workload.setup()
        builds.append(time.perf_counter() - start)
    setup_s = statistics.median(builds)

    start = time.perf_counter()
    workload.run(tracer)
    wall_s = time.perf_counter() - start
    rss_mb = peak_rss_mb()

    result = {"setup_s": setup_s, "wall_s": wall_s, "rss_mb": rss_mb}
    if tracer is not None:
        if hasattr(workload, "results_bytes"):
            tracer.counts["campaign.results_bytes"] = workload.results_bytes()
        result["layers"] = _layers(tracer)
    result["ops"] = list(workload.ops)
    result["failed"] = workload.check()
    result["design_refs"] = workload.design_refs()
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tmp", required=True)
    parser.add_argument("--shared", default=None)
    parser.add_argument("--out", required=True)
    parser.add_argument("--length", type=int, default=None)
    parser.add_argument("--prepare", action="store_true")
    args = parser.parse_args(argv)
    from workloads import WORKLOADS

    tmp = Path(args.tmp)
    tmp.mkdir(parents=True, exist_ok=True)
    shared = Path(args.shared) if args.shared else tmp
    shared.mkdir(parents=True, exist_ok=True)
    workload = WORKLOADS[args.workload](args.seed, tmp, args.length, shared)
    step = run_prepare if args.prepare else run_round
    result = step(workload, tmp, bool(args.trace))
    Path(args.out).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
