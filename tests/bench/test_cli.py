"""Tests for the ``python -m repro.bench`` command-line entry point."""

import pytest

from repro.bench.__main__ import EXPERIMENTS, main


def test_list_exits_cleanly(capsys):
    assert main(["--list"]) == 0
    out = capsys.readouterr().out
    for artifact in ("fig4", "tab5", "fig15"):
        assert artifact in out


def test_unknown_artifact_rejected(capsys):
    assert main(["fig99"]) == 2
    assert "unknown artifacts" in capsys.readouterr().err


def test_no_args_prints_help(capsys):
    assert main([]) == 2
    assert "usage" in capsys.readouterr().out.lower()


def test_registry_covers_every_paper_artifact():
    expected = {f"fig{i}" for i in range(4, 16)} | {"tab4", "tab5"} \
        | {"isolation_ablation", "openloop_knee", "fig14_scaling"}
    assert set(EXPERIMENTS) == expected


def test_run_fast_artifact(capsys):
    assert main(["fig12"]) == 0
    out = capsys.readouterr().out
    assert "fig12" in out and "fabric_block" in out


@pytest.mark.parametrize("flags, named", [
    (["--budget", "1", "--jobs", "8"], "--budget, --jobs"),
    (["--no-verify"], "--no-verify"),
    (["--sweep-out", "elsewhere"], "--sweep-out"),
])
def test_sweep_only_flags_rejected_without_sweep(capsys, flags, named):
    assert main(["fig12", *flags]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"{named}: only valid with --sweep\n"
    assert captured.out == ""          # nothing ran


@pytest.mark.parametrize("flag", ["perf", "profile"])
def test_retired_perf_options_are_usage_errors(capsys, flag):
    """Speed is measured by benchmarks/ledger only."""
    with pytest.raises(SystemExit) as exc:
        main([f"--{flag}"])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err
