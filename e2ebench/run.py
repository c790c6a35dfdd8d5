"""End-to-end benchmark of the cache-design simulator.

    python3 e2ebench/run.py --workload paper-all --seed 0 --seconds 35 --trace 0

Runs the workload's per-run preparation, then whole rounds of the
workload (see :mod:`workloads`), each in a fresh interpreter
(:mod:`worker`), until the next round would take the rounds past
``--seconds``; at
least two rounds run.  The last line of
standard output is one JSON object::

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones, medians over the
rounds (``setup_s`` adds the preparation time).  With ``--trace 1``
rounds alternate untraced and traced; the metrics are the per-layer ones
from the traced rounds (plus the traced preparation) and
``tracing.overhead_s``, the traced minus the untraced median ``wall_s``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("paper-all", "reprice-warm", "campaign-cold")

#: Settings the experiments read from the environment; the benchmark
#: passes every setting explicitly instead.
ISOLATED_ENV = (
    "REPRO_FULL", "REPRO_JOBS", "REPRO_PASS_CACHE", "REPRO_STACK_PASS",
    "REPRO_SAMPLE", "REPRO_PROFILE",
)

#: A run gives up (and prints no result) past this many seconds.
DEADLINE_S = 170.0
#: Rounds per run at least: a median of two halves the weight of one
#: round that a slow spell of a shared host lands on, and a traced run
#: needs one untraced and one traced round.
MIN_ROUNDS = 2


def unit_of(metric: str) -> str:
    if metric.endswith("refs_per_s"):
        return "refs/s"
    if metric.endswith("_mb"):
        return "MB"
    if metric.endswith("_s"):
        return "s"
    if "bytes" in metric:
        return "bytes"
    return "count"


def run_worker(args, traced: bool, index, scratch: Path, env,
               deadline: float) -> dict:
    round_dir = scratch / f"round-{index}"
    out = scratch / f"round-{index}.json"
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--trace", "1" if traced else "0", "--tmp", str(round_dir),
        "--shared", str(scratch / "shared"), "--out", str(out),
    ]
    if index == "prepare":
        cmd.append("--prepare")
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=sys.stderr,
                            start_new_session=True)
    try:
        rc = proc.wait(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        rc = None
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
    if rc != 0:
        raise RuntimeError(
            f"round {index} of {args.workload} "
            + ("timed out" if rc is None else f"exited {rc}")
        )
    result = json.loads(out.read_text())
    shutil.rmtree(round_dir, ignore_errors=True)
    return dict(result, traced=traced)


def summarize(prepared, rounds, trace: bool) -> dict:
    plain = [r for r in rounds if not r["traced"]]
    if not trace:
        return {
            "setup_s": statistics.median(r["setup_s"] for r in plain)
            + prepared["prepare_s"],
            "wall_s": statistics.median(r["wall_s"] for r in plain),
            "sim_refs_per_s": statistics.median(
                r["design_refs"] / r["wall_s"] for r in plain
            ),
            "peak_rss_mb": statistics.median(r["rss_mb"] for r in plain),
        }
    traced = [r for r in rounds if r["traced"]]
    metrics = {
        name: statistics.median(r["layers"][name] for r in traced)
        + prepared["layers"][name]
        for name in traced[0]["layers"]
    }
    pass_s = metrics["fastpath.pass_s"]
    metrics["fastpath.refs_per_s"] = (
        metrics["fastpath.refs_walked"] / pass_s if pass_s > 0 else 0.0
    )
    metrics["tracing.overhead_s"] = (
        statistics.median(r["wall_s"] for r in traced)
        - statistics.median(r["wall_s"] for r in plain)
    )
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"e2ebench: no repro package under {ROOT / 'src'}",
              file=sys.stderr)
        return 2

    env = {k: v for k, v in os.environ.items() if k not in ISOLATED_ENV}
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH", "")) if p
    )
    scratch = ROOT / ".bench_tmp" / f"run-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    deadline = time.monotonic() + DEADLINE_S
    rounds = []
    try:
        prepared = run_worker(args, bool(args.trace), "prepare", scratch,
                              env, deadline)
        start = time.monotonic()
        while True:
            traced = bool(args.trace) and len(rounds) % 2 == 1
            rounds.append(run_worker(args, traced, len(rounds), scratch,
                                     env, deadline))
            elapsed = time.monotonic() - start
            if (len(rounds) >= MIN_ROUNDS
                    and elapsed * (len(rounds) + 1) / len(rounds)
                    > args.seconds):
                break
    except RuntimeError as exc:
        print(f"e2ebench: {exc}", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            scratch.parent.rmdir()
        except OSError:
            pass

    metrics = summarize(prepared, rounds, bool(args.trace))
    attempted = sum(len(r["ops"]) for r in rounds)
    failed = sum(len(r["failed"]) for r in rounds)
    for r in rounds:
        for op, reason in sorted(r["failed"].items()):
            print(f"FAILED {op}: {reason}", file=sys.stderr)
    print(f"{args.workload} seed {args.seed}: {len(rounds)} round(s), "
          f"{attempted} operation(s), {failed} failed")
    for name, value in metrics.items():
        print(f"  {name:<32} {value:>16.6g} {unit_of(name)}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit_of(name)}
            for name, value in metrics.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
