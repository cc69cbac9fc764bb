"""Checks of the ledger itself, at a reduced size.  Run explicitly:

    PYTHONPATH=src python -m pytest benchmarks/ledger/test_ledger.py

(outside tier-1's ``testpaths``; about a minute).
"""

from __future__ import annotations

import cProfile
import dataclasses
import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import compare   # noqa: E402
import layers    # noqa: E402
import run       # noqa: E402
from workloads import WORKLOADS   # noqa: E402

SEED = 3


def reduced(workload):
    """The same workload at about a tenth of its transaction count."""
    changes = {"min_reps": 1}
    if hasattr(workload, "measure_txns"):
        changes["measure_txns"] = max(200, workload.measure_txns // 10)
    if hasattr(workload, "duration"):
        changes["duration"] = workload.duration / 8
    return dataclasses.replace(workload, **changes)


@pytest.fixture(scope="module")
def result_set():
    details = {w.name: {"untraced": run.run_untraced(reduced(w), SEED, 0.0)}
               for w in WORKLOADS}
    return {"seed": SEED, "seconds": 0.0, "workloads": details,
            "box": run.close_box(run.box_description())}


def test_spec_names_the_workloads_the_ledger_runs():
    assert [w["name"] for w in run.SPEC["workloads"]] \
        == [w.name for w in WORKLOADS]
    assert run.SPEC["paths"] == ["benchmarks/ledger"]
    assert "setup_s" in run.END_TO_END


def test_every_workload_reports_every_end_to_end_metric(result_set):
    for name, runs in result_set["workloads"].items():
        detail = runs["untraced"]
        assert detail["correct"], (name, detail["problems"])
        assert detail["failed_share"] == 0
        assert set(detail["metrics"]) == set(run.END_TO_END), name
        printed = "\n".join(run.format_rows(detail))
        for metric, spec in run.END_TO_END.items():
            assert detail["metrics"][metric]["unit"] == spec["unit"]
            assert detail["metrics"][metric]["value"] > 0, (name, metric)
            assert f"{metric} " in printed and f" {spec['unit']}" in printed


@pytest.mark.parametrize("workload", WORKLOADS, ids=lambda w: w.name)
def test_fold_names_95_percent_of_profiled_time(workload):
    profile = cProfile.Profile()
    run.one_rep(reduced(workload), SEED, layers.Spans(), 0, profile=profile)
    folded = layers.fold(profile)
    named = sum(layer["self_s"] for layer in folded["layers"].values())
    assert named >= 0.95 * folded["total_s"], \
        f"{folded['other_s']:.3f}s of {folded['total_s']:.3f}s unattributed"
    assert set(folded["layers"]) == set(layers.LAYERS)


def test_traced_run_reports_every_per_layer_metric():
    detail = run.run_traced(reduced(WORKLOADS[4]), SEED)
    assert detail["correct"], detail["problems"]
    assert list(detail["metrics"]) == list(run.PER_LAYER)
    assert detail["named_share"] >= 0.95
    assert detail["metrics"]["sim.kernel.schedules"]["value"] > 0
    trace_file = run.OUT_DIR / f"trace_{WORKLOADS[4].name}.json"
    spans = json.loads(trace_file.read_text())["spans"]
    assert {s["name"] for s in spans} >= {"setup.build", "setup.load",
                                          "run.drive", "run.analysis"}


def test_compare_of_a_set_against_itself_is_same_everywhere(result_set,
                                                            tmp_path):
    path = tmp_path / "set.json"
    path.write_text(json.dumps(result_set))
    rows, failed = compare.compare(result_set, result_set, run.SPEC)
    assert not failed
    verdicts = [row.split()[-1] for row in rows[1:]
                if "digests and exact counts" not in row]
    assert verdicts and set(verdicts) == {"same"}
    proc = subprocess.run([sys.executable, str(HERE / "compare.py"),
                           str(path), str(path)], capture_output=True,
                          text=True)
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_compare_flags_a_digest_difference(result_set):
    other = json.loads(json.dumps(result_set))
    other["workloads"]["tikv_query_zipf"]["untraced"]["sim_digest"] = "x"
    rows, failed = compare.compare(result_set, other, run.SPEC)
    assert failed and any("DIFFERS sim_digest" in row for row in rows)


def test_contract_line_of_one_workload():
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload",
         "etcd_openloop_poisson", "--seed", str(SEED), "--seconds", "1",
         "--trace", "0"], capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] and last["failed"] == 0 and last["attempted"] >= 1
    assert set(last["metrics"]) == set(run.END_TO_END)
    for entry in last["metrics"].values():
        assert set(entry) == {"value", "unit"}
