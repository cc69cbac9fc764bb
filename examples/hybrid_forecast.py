#!/usr/bin/env python3
"""Forecast vs reality for the six hybrid blockchain-database systems.

For each hybrid the paper analyzes (BlockchainDB, Veritas, FalconDB,
BigchainDB, BRD, ChainifyDB): print the Figure 15 forecast band, the
throughput its own paper reports, and the throughput of our composed
simulation — three independent views that should agree on ordering.

Run:  python examples/hybrid_forecast.py
"""

from repro.core import REPORTED_THROUGHPUT, TABLE2, build_system, rank
from repro.sim import Environment
from repro.systems import SystemConfig
from repro.workloads import DriverConfig, YcsbConfig, YcsbWorkload, run_closed_loop


def simulate(name: str) -> float:
    env = Environment()
    system = build_system(env, name, SystemConfig(num_nodes=4))
    workload = YcsbWorkload(YcsbConfig(record_count=5_000,
                                       record_size=1000))
    system.load(workload.initial_records())
    clients = 2048 if name == "blockchaindb" else 256
    measure = 300 if name == "blockchaindb" else 1500
    result = run_closed_loop(
        env, system, workload.next_update,
        DriverConfig(clients=clients, warmup_txns=100,
                     measure_txns=measure, max_sim_time=120))
    return result.tps


def main() -> None:
    names = list(REPORTED_THROUGHPUT)
    ranking = rank([TABLE2[n] for n in names])
    print(f"{'system':>13} {'band':>7} {'score':>6} "
          f"{'reported tps':>13} {'simulated tps':>14}")
    print("-" * 60)
    for entry in ranking:
        name = entry.system
        simulated = simulate(name)
        print(f"{name:>13} {entry.band.value:>7} {entry.score:>6.1f} "
              f"{REPORTED_THROUGHPUT[name]:>13,.0f} {simulated:>14,.0f}")
    print()
    for entry in ranking:
        print(" *", entry.explain())


if __name__ == "__main__":
    main()
