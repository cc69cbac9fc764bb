"""In-process vs pooled equivalence for the figure engine.

The engine's contract is that ``--jobs N`` changes wall-clock time and
nothing else: the merged trajectory must be field-for-field identical to
an in-process run except the wall-clock fields named in
:data:`repro.bench.sweep.WALL_CLOCK_FIELDS`.  The fingerprint figure is
the gate figure here — its 30 points (27 clean pins + 3 chaos digests)
each verify against the seeded registry inside the sweep itself.
"""

import json

from repro.bench.experiments import POINT_TABLES
from repro.bench.harness import SMOKE
from repro.bench.sweep import (WALL_CLOCK_FIELDS, deterministic_view,
                               enumerate_grid, format_inventory, run_figure,
                               run_sweep)


def test_serial_and_parallel_sweeps_merge_identically(fingerprints_report):
    serial = fingerprints_report        # jobs=1, unverified (see conftest)
    parallel = run_sweep(scale=SMOKE, jobs=2, figures=["fingerprints"],
                         progress=lambda _line: None)
    assert parallel["mismatches"] == []
    # byte-identical modulo wall clocks: compare the canonical JSON of
    # the deterministic views, which is what lands in SWEEP_*.json
    view_s, view_p = deterministic_view(serial), deterministic_view(parallel)
    assert (view_s.pop("verified"), view_p.pop("verified")) == (0, 30)
    assert json.dumps(view_s, default=str, indent=2) \
        == json.dumps(view_p, default=str, indent=2)
    # and the excluded fields really are just the wall-clock section
    assert set(serial) - set(deterministic_view(serial)) \
        <= set(WALL_CLOCK_FIELDS)


def test_enumerate_grid_covers_every_figure():
    specs = enumerate_grid(SMOKE)
    assert {spec.figure for spec in specs} \
        == set(POINT_TABLES) | {"fingerprints"}
    labels = [spec.label for spec in specs]
    assert len(labels) == len(set(labels)), "duplicate point labels"
    # the self-check figure carries all 30 pins
    assert sum(1 for s in specs if s.figure == "fingerprints") == 30


def test_openloop_knee_serial_parallel_equivalence():
    # the two points the knee assertions read: below and past the knee
    serial = run_figure("openloop_knee", SMOKE, jobs=1,
                        multipliers=(0.5, 2.0))
    parallel = run_figure("openloop_knee", SMOKE, jobs=2,
                          multipliers=(0.5, 2.0))
    assert serial == parallel
    # The open-loop signature: offered load outruns goodput at the top
    # of the sweep while the CO-safe tail diverges.
    assert serial["knee"]["saturated"] is True
    assert serial["knee"]["p99_divergence"] > 5.0


def test_inventory_lists_without_running():
    text = format_inventory(SMOKE, figures=["fig14", "fingerprints"])
    assert "fig14" in text
    assert "fingerprints:etcd" in text
    assert "weight=" in text
