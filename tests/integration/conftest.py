"""Fixtures shared by the integration suite."""

from __future__ import annotations

import pytest

from repro.bench.harness import SMOKE
from repro.bench.sweep import run_sweep


@pytest.fixture(scope="session")
def fingerprints_report() -> dict:
    """One in-process pass over the ``fingerprints`` figure (30 pins).

    In-sweep verification is off so that a drifted pin fails its own
    ``test_run_point_fingerprint`` case instead of this fixture.
    """
    return run_sweep(scale=SMOKE, jobs=1, figures=["fingerprints"],
                     verify=False, progress=lambda _line: None)
