"""Tests of the benchmark itself: every check passes on correct outputs at
a short trace length (seed 0 and one other seed) and fails on outputs
perturbed by one cycle, one miss or one status.

    PYTHONPATH=src python3 -m pytest -q e2ebench
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SHORT = 2_000
SEEDS = (0, 7)

#: Operations that fail on correct benchmark code because of a fault in
#: the program: at 2 000 references and seed 7, ``scaling`` divides by a
#: constant-performance slope of exactly zero (ZeroDivisionError in
#: ``experiments/scaling.py``).  Pinned here so the fault stays visible.
KNOWN_FAULTS = {("paper-all", 7): {"scaling"}}


@pytest.fixture(scope="module", params=[
    (name, seed) for name in WORKLOADS for seed in SEEDS
], ids=lambda p: f"{p[0]}-seed{p[1]}")
def done(request, tmp_path_factory):
    """A workload run at a short length, with its outputs and references."""
    name, seed = request.param
    workload = WORKLOADS[name](seed, tmp_path_factory.mktemp(name), SHORT)
    workload.setup()
    workload.prepare()
    workload.run(None)
    outputs = workload.outputs()
    return workload, outputs, workload.references(outputs)


def _check(workload, outputs, references):
    """Operations the perturbed outputs fail beyond the known faults."""
    failed = set(workload.check_fn(outputs, references))
    return failed - KNOWN_FAULTS.get((workload.name, workload.seed), set())


def test_correct_outputs_pass(done):
    workload, outputs, references = done
    failed = workload.check_fn(outputs, references)
    assert set(failed) == KNOWN_FAULTS.get((workload.name, workload.seed),
                                           set()), failed
    assert workload.design_refs() > 0


def _one_cycle_off(cell, ref):
    cycles = list(ref["cycles"])
    cycles[0] += 1
    return checks.geometric_mean([c * cell["cycle_ns"] for c in cycles])


def test_one_cycle_off_in_a_cell_fails_its_operations(done):
    workload, outputs, references = done
    if "cells" not in outputs:
        pytest.skip("no grid cells in this workload")
    for k, cell in enumerate(outputs["cells"]):
        bad = copy.deepcopy(outputs)
        bad["cells"][k]["execution_ns"] = _one_cycle_off(
            cell, references["cells"][k]
        )
        assert set(_check(workload, bad, references)) == set(cell["ops"])


def test_paper_all_perturbations(done):
    workload, outputs, references = done
    if workload.name != "paper-all":
        pytest.skip("paper-all outputs only")
    bad = copy.deepcopy(outputs)
    bad["table2"]["40.0"][0] += 1
    assert set(_check(workload, bad, references)) == {"table2"}

    bad = copy.deepcopy(outputs)
    ifetch = bad["fig3_1"]["ifetch"]
    ifetch[-1] = ifetch[-2] * 1.01  # a larger cache that misses more
    assert set(_check(workload, bad, references)) == {"fig3_1"}

    bad = copy.deepcopy(outputs)
    label = next(k for k in bad["sec6"]["execution"] if k.endswith("@mem"))
    bad["sec6"]["execution"][label] += bad["sec6"]["cycle_ns"]
    assert set(_check(workload, bad, references)) == {"sec6"}

    bad = copy.deepcopy(outputs)
    bad["errors"]["fig5_4"] = "AnalysisError: boom"
    assert set(_check(workload, bad, references)) == {"fig5_4"}


def test_reprice_perturbations(done):
    workload, outputs, references = done
    if workload.name != "reprice-warm":
        pytest.skip("reprice-warm outputs only")
    bad = copy.deepcopy(outputs)
    bad["misses"]["blocksize"] = 1
    assert set(_check(workload, bad, references)) == set(
        outputs["sweep_ops"]["blocksize"]
    )


def test_campaign_perturbations(done):
    workload, outputs, references = done
    if workload.name != "campaign-cold":
        pytest.skip("campaign-cold outputs only")
    run_id = next(iter(outputs["samples"]))

    bad = copy.deepcopy(outputs)
    stats = bad["samples"][run_id]["stats"]
    stats["icache"]["read_misses"] -= 1  # one miss moved between sides
    stats["dcache"]["read_misses"] += 1
    assert set(_check(workload, bad, references)) == {run_id}

    bad = copy.deepcopy(outputs)
    bad["samples"][run_id]["stats"]["cycles"] += 1
    assert set(_check(workload, bad, references)) == {run_id}

    bad = copy.deepcopy(outputs)
    bad["manifest"][outputs["ops"][3]] = "failed"
    assert set(_check(workload, bad, references)) == {outputs["ops"][3]}

    warm_ops = set(outputs["warm_ops"])
    cold_ops = set(outputs["ops"]) - warm_ops
    bad = copy.deepcopy(outputs)
    bad["rc_fsck"] = 1
    assert set(_check(workload, bad, references)) == cold_ops

    warm_op = outputs["warm_ops"][5]
    bad = copy.deepcopy(outputs)
    stats = bad["warm_pairs"][warm_op]["warm"]
    stats["dcache"]["write_misses"] += 1
    assert set(_check(workload, bad, references)) == {warm_op}

    bad = copy.deepcopy(outputs)
    bad["cache_rewritten"] = ["0123abcd.json"]  # a miss in the warm re-run
    assert set(_check(workload, bad, references)) == warm_ops

    bad = copy.deepcopy(outputs)
    bad["rc_warm"] = 2
    assert set(_check(workload, bad, references)) == warm_ops


def test_stats_invariants_catch_short_counts():
    class Stats:
        cycles, n_couplets, cycle_ns = 10, 11, 40.0
        execution_time_ns = 400.0

    assert len(checks.stats_invariants(Stats(), "x")) == 1
    Stats.n_couplets, Stats.execution_time_ns = 10, 401.0
    assert len(checks.stats_invariants(Stats(), "x")) == 1


def test_self_time_subtracts_children():
    spans = [
        ("1", "sweep", None, 0.0, 10.0, 1),
        ("2", "pass", "1", 1.0, 4.0, 1),
        ("3", "pass", "1", 5.0, 9.0, 1),
        ("4", "pair", "3", 5.0, 6.0, 1),
    ]
    selfs = tracing.self_times(spans)
    assert selfs == {"sweep": 3.0, "pass": 6.0, "pair": 1.0}
    nested = [("1", "a", None, 0.0, 5.0, 1), ("2", "a", "1", 1.0, 2.0, 1)]
    assert tracing.inclusive_times(nested) == {"a": 5.0}


def test_worker_spans_leave_the_coordinator_self_time():
    spans = [
        ("1-1", "campaign.run", None, 0.0, 10.0, 1),
        ("2-1", "fastpath.pass", None, 1.0, 4.0, 2),
        ("3-1", "fastpath.pass", None, 3.0, 6.0, 3),  # a parallel worker
        ("3-2", "passcache.put", None, 6.0, 7.0, 3),
        ("1-2", "campaign.fsck", None, 11.0, 12.0, 1),
    ]
    selfs = tracing.self_times(tracing.adopt_worker_spans(spans, 1))
    assert selfs["campaign.run"] == 4.0  # 10 s minus the covered 1..7 s
    assert selfs["fastpath.pass"] == 6.0
    assert selfs["campaign.fsck"] == 1.0


def test_traced_round_reports_every_per_layer_metric(tmp_path):
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    out = tmp_path / "round.json"
    for step in (["--prepare"], []):
        subprocess.run(
            [sys.executable, str(HERE / "worker.py"), "--workload",
             "reprice-warm", "--seed", "3", "--trace", "1", "--length",
             "1500", "--tmp", str(tmp_path / "round"), "--shared",
             str(tmp_path / "shared"), "--out", str(out), *step],
            check=True,
        )
    layers = json.loads(out.read_text())["layers"]
    wanted = {m["name"] for m in spec["per_layer"]} - {"tracing.overhead_s"}
    assert set(layers) == wanted
    assert layers["fastpath.pass_calls"] == 0  # every pass came from disk
    assert layers["replay.kernel_calls"] > 0


def test_traced_campaign_collects_worker_spans(tmp_path):
    """Spans recorded in the forked campaign workers reach the round."""
    out = tmp_path / "round.json"
    subprocess.run(
        [sys.executable, str(HERE / "worker.py"), "--workload",
         "campaign-cold", "--seed", "2", "--trace", "1", "--length", "1000",
         "--tmp", str(tmp_path / "round"), "--out", str(out)],
        check=True,
    )
    layers = json.loads(out.read_text())["layers"]
    assert layers["fastpath.pass_calls"] == 96
    assert layers["passcache.puts"] == 96
    assert layers["passcache.hits"] == 24  # the warm re-run
    assert layers["passcache.bytes_read"] > 0
    assert layers["fastpath.pass_s"] > 0


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name)
    proc = subprocess.run(
        [sys.executable, str(tmp_path / HERE.name / "run.py"), "--workload",
         "paper-all", "--seed", "0", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=tmp_path, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
