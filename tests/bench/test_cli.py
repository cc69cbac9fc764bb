"""Tests for the ``python -m repro.bench`` command-line entry point."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro.bench
from repro.bench import experiments
from repro.bench.__main__ import main
from repro.bench.experiments import POINT_TABLES


def test_list_exits_cleanly(capsys):
    """``--list`` prints the inventory of the one registry."""
    assert main(["--list", "--scale", "smoke"]) == 0
    lines = capsys.readouterr().out.splitlines()[1:]      # drop the header
    listed = {line.split()[0].split(":")[0] for line in lines}
    assert listed == set(POINT_TABLES) | {"fingerprints"}


def test_list_of_named_artifacts(capsys):
    assert main(["--list", "fig12", "fingerprints"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("31 points")
    assert "fig12" in out and "fingerprints:etcd" in out


def test_unknown_artifact_rejected(capsys):
    assert main(["fig99"]) == 2
    assert "unknown artifacts" in capsys.readouterr().err


def test_no_args_prints_help(capsys):
    assert main([]) == 2
    assert "usage" in capsys.readouterr().out.lower()


def test_registry_covers_every_paper_artifact():
    paper = {f"fig{i}" for i in range(4, 16)} | {"tab4", "tab5"}
    assert paper <= set(POINT_TABLES)
    assert set(POINT_TABLES) - paper \
        == {"isolation_ablation", "openloop_knee", "fig14_scaling"}


def test_serial_figure_wrappers_are_gone():
    """A figure runs one way: ``run_figure`` / ``run_sweep`` over
    ``POINT_TABLES``."""
    for name in ("fig4_peak_throughput", "fig5_latency", "fig6_smallbank",
                 "fig7_cft_vs_bft", "fig8_latency_breakdown", "tab4_scaling",
                 "tab5_tidb_matrix", "fig9_skew", "fig10_opcount",
                 "fig11_record_size", "fig14_sharding",
                 "fig14_scaling_sweep", "fig15_hybrid_forecast",
                 "isolation_ablation", "openloop_knee"):
        assert not hasattr(experiments, name), name
        assert not hasattr(repro.bench, name), name


def test_run_fast_artifact(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(["fig12", "--jobs", "1"]) == 0
    out = capsys.readouterr().out
    assert "=== fig12 ===" in out and "fabric_block" in out
    assert "sweep trajectory" in out
    # no trajectory file unless --sweep-out asks for one
    assert list(tmp_path.iterdir()) == []


def test_sweep_out_writes_the_trajectory(capsys, tmp_path):
    assert main(["fig12", "--sweep-out", str(tmp_path)]) == 0
    assert [p.name.split("_")[0] for p in tmp_path.iterdir()] == ["SWEEP"]
    assert "wrote " in capsys.readouterr().out


@pytest.mark.parametrize("flag", ["perf", "profile", "sweep"])
def test_retired_perf_options_are_usage_errors(capsys, flag):
    """Speed is measured by benchmarks/ledger only; there is one figure
    engine, so no flag selects it."""
    with pytest.raises(SystemExit) as exc:
        main([f"--{flag}"])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_pool_from_stdin_script_fails_loudly():
    """``python - <<EOF`` with ``jobs=2``: spawn workers cannot re-import
    a ``__main__`` whose file is '<stdin>', and the pool would re-spawn
    the dead workers forever.  The engine must refuse up front."""
    script = ("from repro.bench import run_figure\n"
              "from repro.bench.harness import SMOKE\n"
              "run_figure('fig12', scale=SMOKE, jobs=2)\n")
    src = str(Path(repro.bench.__file__).resolve().parents[2])
    proc = subprocess.run(
        [sys.executable, "-"], input=script, text=True, capture_output=True,
        timeout=60, env={**os.environ, "PYTHONPATH": src})
    assert proc.returncode != 0
    assert "RuntimeError" in proc.stderr
    assert "'<stdin>'" in proc.stderr and "jobs=1" in proc.stderr
