"""Self-checks of the benchmark: exact counts repeat, metric tables agree.

    python3 perfbench/check_repeat.py [WORKLOAD ...]

For each workload (all by default) two fresh iterations with the same seed
must produce identical counts (search nodes, grid points, raw and kept
solutions, verified certificates, arrangements, ...) and no failed
operation. BENCHMARK.json must list exactly the metrics run.py reports, with
the same units, directions and bounds. Exits 1 on any mismatch.
"""

from __future__ import annotations

import json
import sys

from run import END_TO_END, PER_LAYER, ROOT, WORKLOADS, make_inputs, run_worker
from tracing import now, self_times

SEED = 20140624

#: counts the repeat check requires; every other count must repeat as well
REQUIRED_COUNTS = {
    "refute_s11_t17": {"search.nodes"},
    "maximize_s10": {"search.nodes"},
    "battery_scan": {"constraints.grid_points", "constraints.raw_solutions",
                     "constraints.solutions"},
    "wide_field": {"search.nodes", "certificates.verified", "incidence.arrangements"},
}


def check_counts_repeat(workload: str) -> list[str]:
    inputs = make_inputs(workload, SEED)
    runs = [run_worker(workload, inputs, f"{workload}-repeat{i}", False, "full", now() + 170)
            for i in range(2)]
    errors = []
    first, second = (r["counts"] for r in runs)
    missing = REQUIRED_COUNTS[workload] - set(first)
    if missing:
        errors.append(f"{workload}: counts {sorted(missing)} were not reported")
    if first != second:
        diff = {k: (first.get(k), second.get(k)) for k in set(first) | set(second)
                if first.get(k) != second.get(k)}
        errors.append(f"{workload}: counts differ between two runs: {diff}")
    for r in runs:
        if r["failed"]:
            errors.append(f"{workload}: failed operations {r['failed']}")
    print(f"{workload}: counts {first}")
    return errors


def check_benchmark_json() -> list[str]:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    errors = []
    if [w["name"] for w in spec["workloads"]] != list(WORKLOADS):
        errors.append("BENCHMARK.json workloads differ from run.py")
    listed = {m["name"]: (m["unit"], m["better"], m["bound"]) for m in spec["end_to_end"]}
    if listed != END_TO_END:
        errors.append("BENCHMARK.json end_to_end differs from run.py END_TO_END")
    listed = {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]}
    if listed != {name: v[:2] for name, v in PER_LAYER.items()}:
        errors.append("BENCHMARK.json per_layer differs from run.py PER_LAYER")
    return errors


def check_self_times() -> list[str]:
    spans = [
        {"id": 0, "parent": None, "name": "bench.ops", "start": 0.0, "end": 10.0},
        {"id": 1, "parent": 0, "name": "search.max_triple_search", "start": 1.0, "end": 4.0},
        {"id": 2, "parent": 0, "name": "incidence.profile", "start": 5.0, "end": 6.5},
    ]
    got = self_times(spans)
    want = {"bench": 5.5, "search": 3.0, "incidence": 1.5}
    return [] if got == want else [f"self_times gave {got}, expected {want}"]


def main(argv: list[str]) -> int:
    unknown = set(argv) - set(WORKLOADS)
    if unknown:
        print(f"unknown workloads: {sorted(unknown)}", file=sys.stderr)
        return 2
    errors = check_benchmark_json() + check_self_times()
    for workload in argv or WORKLOADS:
        errors += check_counts_repeat(workload)
    for e in errors:
        print(f"FAIL {e}")
    print("ok" if not errors else f"{len(errors)} check(s) failed")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
