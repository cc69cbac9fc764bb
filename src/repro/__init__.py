"""repro: reproduction of "Blockchains vs. Distributed Databases: Dichotomy
and Fusion" (SIGMOD 2021).

A discrete-event-simulation twin study of blockchains and distributed
databases, plus real storage/authenticated data structures, a
taxonomy-driven system builder, and a benchmark harness regenerating every
table and figure of the paper's evaluation.

Quick tour::

    from repro.core import build_system, forecast, profile   # fusion
    from repro.sim import Environment                        # DES kernel
    from repro.workloads import YcsbWorkload, run_closed_loop
    from repro.analysis import analyze_system, HistoryChecker

See README.md for the architecture map; ``python -m repro.bench``
prints paper-vs-measured results per artifact.
"""

__version__ = "1.0.0"

__all__ = ["__version__"]
