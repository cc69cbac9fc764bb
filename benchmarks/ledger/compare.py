"""Compare two ledger result sets: ``compare.py A.json B.json``.

A is the reference (the parent commit, or the first of two sets of the
same commit), B the candidate.  Per workload and end-to-end metric it
prints both medians, how much worse B reads, the bound from
``BENCHMARK.json`` and a verdict:

* ``same``       — B is within the bound of A, either way;
* ``improved`` / ``regressed`` — beyond the bound, and no run of one
  side reads like any run of the other (their min–max ranges are apart);
* ``unresolved`` — beyond the bound, but the ranges overlap: the spread
  is wider than the difference, so it is neither a change nor "no change".

``failed_share`` regresses on any increase.  Simulated digests and exact
counts must be equal, or the two sets did not run the same simulation.
Exits 1 on ``regressed`` or on any digest/count difference.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]

#: Per-layer metrics that are host timings or box-dependent; every other
#: per-layer metric is an exact count and must repeat for a seed.
_TIMED_SUFFIXES = (".self_s", ".share", "_per_s", ".trace_overhead",
                   ".us_per_event", ".speedup", ".barrier_wait_share",
                   ".procs")


def is_exact(name: str) -> bool:
    return not name.endswith(_TIMED_SUFFIXES)


def verdict(a: dict, b: dict, better: str, bound: float) -> tuple[float, str]:
    """How much worse B's median reads than A's (a share of A), and why."""
    worse = (b["value"] - a["value"]) / a["value"]
    if better == "higher":
        worse = -worse
    if abs(worse) <= bound:
        return worse, "same"
    apart = a.get("max", a["value"]) < b.get("min", b["value"]) \
        or b.get("max", b["value"]) < a.get("min", a["value"])
    if not apart:
        return worse, "unresolved"
    return worse, "regressed" if worse > 0 else "improved"


def compare(a: dict, b: dict, spec: dict) -> tuple[list[str], bool]:
    rows, failed = [], False
    if a["seed"] != b["seed"]:
        return [f"seeds differ ({a['seed']} vs {b['seed']}): digests and "
                "counts are only comparable for one seed"], True
    rows.append(f"{'workload':24s} {'metric':16s} {'A':>12s} {'B':>12s} "
                f"{'worse by':>9s} {'bound':>6s}  verdict")
    for name in (w["name"] for w in spec["workloads"]):
        runs_a, runs_b = a["workloads"].get(name), b["workloads"].get(name)
        if runs_a is None or runs_b is None:
            rows.append(f"{name:24s} missing from "
                        f"{'A' if runs_a is None else 'B'}")
            failed = True
            continue
        ua, ub = runs_a["untraced"], runs_b["untraced"]
        for metric in spec["end_to_end"]:
            ma = ua["metrics"].get(metric["name"])
            mb = ub["metrics"].get(metric["name"])
            if ma is None or mb is None:
                rows.append(f"{name:24s} {metric['name']:16s} missing")
                failed = True
                continue
            worse, word = verdict(ma, mb, metric["better"], metric["bound"])
            failed |= word == "regressed"
            rows.append(f"{name:24s} {metric['name']:16s} "
                        f"{ma['value']:>12.6g} {mb['value']:>12.6g} "
                        f"{worse:>+9.1%} {metric['bound']:>6.0%}  {word}")
        word = "regressed" if ub["failed_share"] > ua["failed_share"] \
            else "same"
        failed |= word == "regressed"
        rows.append(f"{name:24s} {'failed_share':16s} "
                    f"{ua['failed_share']:>12.6g} {ub['failed_share']:>12.6g}"
                    f" {'':>9s} {'':>6s}  {word}")
        exact = [("sim_digest", ua["sim_digest"], ub["sim_digest"])]
        exact += [(f"counts.{k}", v, ub.get("counts", {}).get(k))
                  for k, v in ua.get("counts", {}).items()]
        if "traced" in runs_a and "traced" in runs_b:
            ta, tb = runs_a["traced"]["metrics"], runs_b["traced"]["metrics"]
            exact += [(k, m["value"], tb.get(k, {}).get("value"))
                      for k, m in ta.items() if is_exact(k)]
        differing = [(k, va, vb) for k, va, vb in exact if va != vb]
        failed |= bool(differing)
        rows.append(f"{name:24s} {len(exact) - len(differing)}/{len(exact)} "
                    "digests and exact counts equal")
        rows.extend(f"{name:24s} DIFFERS {k}: {va} != {vb}"
                    for k, va, vb in differing)
    return rows, failed


def main() -> int:
    if len(sys.argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    a, b = (json.loads(Path(p).read_text()) for p in sys.argv[1:])
    rows, failed = compare(a, b, spec)
    print("\n".join(rows))
    for label, result in (("A", a), ("B", b)):
        if result.get("box", {}).get("noisy"):
            print(f"note: set {label} ran on a noisy box "
                  f"(load average above nproc - 1)")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
