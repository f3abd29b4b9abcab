"""Layered benchmark of the triplelines package.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. Each workload iteration runs in a fresh
interpreter (workloads.py), so every iteration starts with cold field and
plane caches, as a CLI user does. Iterations are started one after another,
never in parallel, while another one still fits into the S seconds; at least
one always runs.

With ``--trace 0`` the run reports the end-to-end metrics: the median wall
time of an iteration from process start to exit, the median set-up time
(process start to the first workload operation; at least three set-up
samples, adding set-up-only processes where too few iterations fit) and the
peak resident memory of the largest process, pool workers included.

With ``--trace 1`` the run alternates untraced and traced iterations and
reports the per-layer metrics of the traced ones: the time spent in each
layer's public functions, the work they did as counts, each layer's self
time, failures per layer, and the tracing overhead (median traced wall time
minus median untraced wall time). The spans are written to
``perfbench/out/trace-<workload>-seed<N>.jsonl`` when the run ends.

Every operation's result is checked against its known answer. The last line
on stdout is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import random
import signal
import statistics
import subprocess
import sys
from collections import Counter
from pathlib import Path

from tracing import duration, now, self_times

ROOT = Path(__file__).resolve().parent.parent
WORKER = Path(__file__).resolve().parent / "workloads.py"
TRACE_DIR = Path(__file__).resolve().parent / "out"

WORKLOADS = ("refute_s11_t17", "maximize_s10", "battery_scan", "wide_field")
SCENARIOS = ("TEN_E1", "TEN_CASE_A", "TEN_CASE_B", "ELEVEN_CASE_I", "ELEVEN_CASE_II")
LAYERS = ("field", "search", "constraints", "torsion", "certificates", "incidence")

MIN_SETUP_SAMPLES = 3
MAX_SETUP_SAMPLES = 5
RUN_LIMIT_S = 175          # a whole run must end within 180 s
WIDE_FIELD_ORDERS = (16, 25, 27)
WIDE_ARRANGEMENTS_PER_FIELD = 40

#: name -> (unit, better, bound on the worsening of the median)
END_TO_END = {
    "wall_s": ("s", "lower", 0.25),
    "setup_s": ("s", "lower", 0.25),
    "peak_rss_mb": ("MB", "lower", 0.1),
}

#: name -> (unit, better, the end-to-end metric and workload it should move).
#: Layers a workload does not call report 0 on that workload.
PER_LAYER = {
    "field.build_s": ("s", "lower", "setup_s on wide_field"),
    "field.fields_built": ("count", "lower", "setup_s on wide_field"),
    "search.plane_s": ("s", "lower", "setup_s and wall_s on wide_field"),
    "search.run_s": ("s", "lower", "wall_s on refute_s11_t17 and maximize_s10"),
    "search.nodes": ("count", "lower", "wall_s on refute_s11_t17 and maximize_s10"),
    "search.nodes_per_s": ("1/s", "higher", "wall_s on refute_s11_t17 and maximize_s10"),
    "search.run_s.t1": ("s", "lower", "wall_s on maximize_s10"),
    "search.run_s.t2": ("s", "lower", "wall_s on maximize_s10"),
    "search.parallel_eff": ("ratio", "higher", "wall_s on maximize_s10"),
    "search.witness_classes": ("count", "higher", "wall_s on maximize_s10"),
    "constraints.scan_raw_s": ("s", "lower", "wall_s on battery_scan"),
    "constraints.scan_checked_s": ("s", "lower", "wall_s on battery_scan"),
    **{f"constraints.scan_s.{name}": ("s", "lower", "wall_s on battery_scan")
       for name in SCENARIOS},
    "constraints.grid_points": ("count", "lower", "wall_s on battery_scan"),
    "constraints.grid_points_per_s": ("1/s", "higher", "wall_s on battery_scan"),
    "constraints.raw_solutions": ("count", "lower", "wall_s on battery_scan"),
    "constraints.solutions": ("count", "higher", "wall_s on battery_scan"),
    "constraints.postcheck_keep_frac": ("ratio", "higher", "wall_s on battery_scan"),
    "constraints.consequence_s": ("s", "lower", "wall_s on battery_scan"),
    "constraints.consequence_checked": ("count", "higher", "wall_s on battery_scan"),
    "torsion.counts_s": ("s", "lower", "wall_s on battery_scan"),
    "certificates.verify_s": ("s", "lower", "wall_s on wide_field"),
    "certificates.verified": ("count", "higher", "wall_s on wide_field"),
    "certificates.ineligible": ("count", "lower", "wall_s on wide_field"),
    "incidence.profile_s": ("s", "lower", "wall_s on wide_field"),
    "incidence.parity_s": ("s", "lower", "wall_s on wide_field"),
    "incidence.abstract_s": ("s", "lower", "wall_s on wide_field"),
    "incidence.isomorphic_s": ("s", "lower", "wall_s on wide_field"),
    "incidence.arrangements": ("count", "higher", "wall_s on wide_field"),
    **{f"{layer}.failed": ("count", "lower", "fail_frac on every workload")
       for layer in LAYERS},
    **{f"{layer}.self_s": ("s", "lower", "wall_s on the workloads calling the layer")
       for layer in LAYERS + ("bench",)},
    "trace.overhead_s": ("s", "lower", "nothing: traced minus untraced wall_s"),
    "fail_frac": ("ratio", "lower", "failed / attempted operations, every workload"),
}


class BenchError(Exception):
    pass


def make_inputs(workload: str, seed: int) -> dict:
    """The generated inputs; only wide_field draws from the seed."""
    if workload != "wide_field":
        return {}
    rng = random.Random(seed)
    arrangements = []
    for q in WIDE_FIELD_ORDERS:
        n_lines = q * q + q + 1
        for _ in range(WIDE_ARRANGEMENTS_PER_FIELD):
            lines = rng.sample(range(n_lines), rng.randint(8, 12))
            relabelled = lines[:]
            rng.shuffle(relabelled)
            arrangements.append({"q": q, "lines": lines, "relabelled": relabelled})
    return {"arrangements": arrangements}


def run_worker(workload: str, inputs: dict, run_id: str, traced: bool, mode: str,
               deadline: float) -> dict:
    """One fresh-interpreter iteration; adds its wall and set-up seconds."""
    env = dict(os.environ, PYTHONHASHSEED="0",
               PYTHONPATH=os.pathsep.join(
                   p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p))
    cmd = [sys.executable, str(WORKER), workload, "1" if traced else "0", mode]
    start = now()
    proc = subprocess.Popen(cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                            text=True, env=env, cwd=ROOT, start_new_session=True)
    try:
        out, _ = proc.communicate(json.dumps(dict(inputs, run_id=run_id)),
                                  timeout=max(1.0, deadline - start))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError(f"{run_id} did not finish in time")
    end = now()
    if proc.returncode != 0:
        raise BenchError(f"{run_id} exited with code {proc.returncode}")
    result = json.loads(out.strip().splitlines()[-1])
    result["wall_s"] = end - start
    result["setup_s"] = result["setup_end"] - start
    return result


def measure(workload: str, seed: int, seconds: int, traced: bool) -> list[dict]:
    """Iterations while another one fits into the time; at least one round."""
    start = now()
    budget_end, hard_end = start + seconds, start + RUN_LIMIT_S
    inputs = make_inputs(workload, seed)
    results = []
    for rounds in itertools.count():
        round_start = now()
        # traced runs alternate their place in the pair, so order effects cancel
        order = ((False, True) if rounds % 2 == 0 else (True, False)) if traced else (False,)
        for trace_it in order:
            run_id = f"{workload}-seed{seed}-{len(results)}-{'traced' if trace_it else 'plain'}"
            result = run_worker(workload, inputs, run_id, trace_it, "full", hard_end)
            result["traced"] = trace_it
            results.append(result)
        round_end = now()
        if round_end + (round_end - round_start) > budget_end:
            break
    if not traced:
        # set-up alone, until there are enough samples or the time is used up
        while len(results) < MAX_SETUP_SAMPLES:
            probe_start = now()
            if (len(results) >= MIN_SETUP_SAMPLES
                    and probe_start + results[-1]["setup_s"] > budget_end):
                break
            probe = run_worker(workload, inputs, f"{workload}-seed{seed}-setup{len(results)}",
                               False, "setup", hard_end)
            probe["traced"], probe["setup_only"] = False, True
            results.append(probe)
    return results


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(result: dict) -> dict:
    """Per-layer metrics of one traced iteration."""
    spans, counts, failed = result["spans"], Counter(result["counts"]), result["failed"]

    def total(name: str, **tags) -> float:
        return sum((duration(s) for s in spans if s["name"] == name
                    and all(s["tags"].get(k) == v for k, v in tags.items())), 0.0)

    run_s = total("search.max_triple_search")
    t1 = total("search.max_triple_search", threads=1)
    t2 = total("search.max_triple_search", threads=2)
    raw_s = total("constraints.solve_over", post_checks=False)
    checked_s = total("constraints.solve_over", post_checks=True)
    m = {
        "field.build_s": total("field.make_field"),
        "field.fields_built": counts["field.fields_built"],
        "search.plane_s": total("search.Plane.of"),
        "search.run_s": run_s,
        "search.nodes": counts["search.nodes"],
        "search.nodes_per_s": ratio(counts["search.nodes"], run_s),
        "search.run_s.t1": t1,
        "search.run_s.t2": t2,
        "search.parallel_eff": ratio(t1, 2 * t2),
        "search.witness_classes": counts["search.witness_classes"],
        "constraints.scan_raw_s": raw_s,
        "constraints.scan_checked_s": checked_s,
        **{f"constraints.scan_s.{name}": total("constraints.solve_over", scenario=name)
           for name in SCENARIOS},
        "constraints.grid_points": counts["constraints.grid_points"],
        "constraints.grid_points_per_s": ratio(counts["constraints.grid_points"],
                                               raw_s + checked_s),
        "constraints.raw_solutions": counts["constraints.raw_solutions"],
        "constraints.solutions": counts["constraints.solutions"],
        "constraints.postcheck_keep_frac": ratio(counts["constraints.solutions"],
                                                 counts["constraints.raw_solutions"]),
        "constraints.consequence_s": total("constraints.consequence_check"),
        "constraints.consequence_checked": counts["constraints.consequence_checked"],
        "torsion.counts_s": total("torsion.torsion_dual_counts"),
        "certificates.verify_s": total("certificates.verify"),
        "certificates.verified": counts["certificates.verified"],
        "certificates.ineligible": counts["certificates.ineligible"],
        "incidence.profile_s": total("incidence.profile"),
        "incidence.parity_s": total("incidence.parity_check"),
        "incidence.abstract_s": total("incidence.abstract"),
        "incidence.isomorphic_s": total("incidence.isomorphic"),
        "incidence.arrangements": counts["incidence.arrangements"],
    }
    own = self_times(spans)
    for layer in LAYERS:
        m[f"{layer}.failed"] = failed.get(layer, 0)
        m[f"{layer}.self_s"] = own.get(layer, 0.0)
    m["bench.self_s"] = own.get("bench", 0.0)
    return m


def operation_totals(results: list[dict]) -> tuple[int, int]:
    """Operations attempted and failed over the full iterations."""
    full = [r for r in results if not r.get("setup_only")]
    return (sum(sum(r["attempted"].values()) for r in full),
            sum(sum(r["failed"].values()) for r in full))


def summarize(results: list[dict], traced: bool) -> dict:
    full = [r for r in results if not r.get("setup_only")]
    plain = [r for r in full if not r["traced"]]
    if traced:
        per_iteration = [layer_metrics(r) for r in full if r["traced"]]
        values = {name: statistics.median(m[name] for m in per_iteration)
                  for name in per_iteration[0]}
        values["trace.overhead_s"] = (
            statistics.median(r["wall_s"] for r in full if r["traced"])
            - statistics.median(r["wall_s"] for r in plain))
        attempted, failed = operation_totals(results)
        values["fail_frac"] = ratio(failed, attempted)
        units = {name: spec[0] for name, spec in PER_LAYER.items()}
    else:
        values = {
            "wall_s": statistics.median(r["wall_s"] for r in plain),
            "setup_s": statistics.median(r["setup_s"] for r in results),
            "peak_rss_mb": max(r["peak_rss_kb"] for r in plain) / 1024,
        }
        units = {name: spec[0] for name, spec in END_TO_END.items()}
    if set(values) != set(units):
        raise BenchError(f"metric set mismatch: {sorted(set(values) ^ set(units))}")
    return {name: {"value": values[name], "unit": units[name]} for name in units}


def write_trace(workload: str, seed: int, results: list[dict]) -> Path:
    TRACE_DIR.mkdir(exist_ok=True)
    path = TRACE_DIR / f"trace-{workload}-seed{seed}.jsonl"
    with open(path, "w", encoding="utf-8") as fh:
        for r in results:
            for span in r.get("spans", ()):
                fh.write(json.dumps(span) + "\n")
    return path


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be positive")
    if not (ROOT / "src" / "triplelines" / "__init__.py").is_file():
        print(f"error: no triplelines package under {ROOT / 'src'}", file=sys.stderr)
        return 2

    traced = bool(args.trace)
    try:
        results = measure(args.workload, args.seed, args.seconds, traced)
        metrics = summarize(results, traced)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if traced:
        print(f"spans written to {write_trace(args.workload, args.seed, results)}")

    attempted, failed = operation_totals(results)
    probes = sum(1 for r in results if r.get("setup_only"))
    print(f"workload {args.workload}, seed {args.seed}: {len(results) - probes} "
          f"iteration(s), {probes} set-up-only run(s), "
          f"{failed} of {attempted} operations failed")
    for name, metric in metrics.items():
        print(f"  {name} = {metric['value']:.6g} {metric['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
