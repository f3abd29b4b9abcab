"""One cold run of one benchmark workload, in a fresh interpreter.

run.py starts ``python3 workloads.py WORKLOAD TRACE MODE`` with PYTHONPATH
pointing at the checkout's ``src`` and the generated inputs as JSON on
stdin. TRACE is 0 or 1; MODE is ``full``, or ``setup`` to stop once set-up
is done. The run sets the workload up, calls the public functions the CLI
subcommands call, checks every result against its known answer and prints
one JSON object on stdout.

Set-up is everything before the first workload operation: interpreter
start, imports, make_field for the workload's fields and Plane.of for every
field the workload searches. Every package call made here is wrapped in a
span named after its layer; spans inside the package are not recorded.
"""

from __future__ import annotations

import json
import resource
import sys
import traceback
from collections import Counter
from contextlib import contextmanager
from pathlib import Path

from tracing import Tracer, now

import triplelines
from triplelines.certificates import CERTIFICATE_NAMES, verify
from triplelines.constraints import (
    CONSEQUENCES,
    DEFAULT_BATTERY_ORDERS,
    ELEVEN_CASE_I,
    ELEVEN_CASE_II,
    SCENARIO_NAMES,
    TEN_CASE_A,
    TEN_CASE_B,
    TEN_E1,
    build_system,
    consequence_check,
    default_battery,
    solve_over,
)
from triplelines.errors import IneligibleField
from triplelines.field import make_field, roots_of
from triplelines.incidence import Arrangement, abstract, isomorphic, parity_check, profile
from triplelines.search import Plane, SearchConfig, max_triple_search
from triplelines.torsion import torsion_dual_counts


class WrongAnswer(Exception):
    pass


def expect(ok: bool, what: str) -> None:
    if not ok:
        raise WrongAnswer(what)


class Run:
    """Operations attempted and failed per layer, and the counts they produced."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self.attempted: Counter = Counter()
        self.failed: Counter = Counter()
        self.counts: Counter = Counter()

    @contextmanager
    def operation(self, layer: str, what: str):
        """One checked operation; raising or a wrong answer counts it as failed."""
        self.attempted[layer] += 1
        try:
            yield
        except Exception:  # counted and reported; the remaining operations still run
            self.failed[layer] += 1
            print(f"operation failed: {what}", file=sys.stderr)
            traceback.print_exc(file=sys.stderr)


# ---------------------------------------------------------------------------
# set-up shared by the workloads
# ---------------------------------------------------------------------------

def prime_power(q: int) -> tuple[int, int]:
    p = next(d for d in range(2, q + 1) if q % d == 0)
    k, n = 0, q
    while n > 1:
        n //= p
        k += 1
    return p, k


def make_fields(run: Run, orders) -> dict:
    fields = {}
    for q in orders:
        p, k = prime_power(q)
        with run.operation("field", f"make_field({p}, {k})"):
            with run.tracer.span("field.make_field", q=q):
                F = make_field(p, k)
            expect(F.order == q, f"make_field({p}, {k}) has order {F.order}")
            fields[q] = F
            run.counts["field.fields_built"] += 1
    return fields


def make_planes(run: Run, fields: dict) -> dict:
    planes = {}
    for q, F in fields.items():
        with run.operation("search", f"Plane.of(GF({q}))"):
            with run.tracer.span("search.Plane.of", q=q):
                plane = Plane.of(F)
            expect(len(plane.lines) == q * q + q + 1
                   and all(len(pts) == q + 1 for pts in plane.line_points),
                   f"PG(2,{q}) has the wrong incidence sizes")
            planes[q] = plane
    return planes


def search(run: Run, cfg: SearchConfig):
    with run.tracer.span("search.max_triple_search", q=cfg.field.order, s=cfg.s,
                         target=cfg.target, threads=cfg.threads):
        rep = max_triple_search(cfg)
    run.counts["search.nodes"] += rep.nodes_visited
    run.counts["search.witness_classes"] += len(rep.witnesses)
    return rep


# ---------------------------------------------------------------------------
# refute_s11_t17: "11 lines never have 17 triple points" over GF(5), GF(7)
# ---------------------------------------------------------------------------

def refute_setup(run: Run, inputs: dict) -> dict:
    fields = make_fields(run, (5, 7))
    make_planes(run, fields)
    return fields


def refute_ops(run: Run, fields: dict, inputs: dict) -> None:
    for q in (5, 7):
        with run.operation("search", f"s=11 target=17 over GF({q})"):
            rep = search(run, SearchConfig(field=fields[q], s=11, target=17, threads=1))
            expect(rep.exhaustive and not rep.target_reached,
                   f"GF({q}): {rep.summary()}, expected exhaustive without target")


# ---------------------------------------------------------------------------
# maximize_s10: best of 10 lines over GF(7), sequential and on two workers
# ---------------------------------------------------------------------------

def maximize_setup(run: Run, inputs: dict) -> dict:
    fields = make_fields(run, (7,))
    make_planes(run, fields)
    return fields


def maximize_ops(run: Run, fields: dict, inputs: dict) -> None:
    for threads in (1, 2):
        with run.operation("search", f"s=10 over GF(7), threads={threads}"):
            rep = search(run, SearchConfig(field=fields[7], s=10, threads=threads))
            expect(rep.best == 12 and rep.exhaustive,
                   f"threads={threads}: {rep.summary()}, expected best=12 exhaustive")


# ---------------------------------------------------------------------------
# battery_scan: `constraints --battery --consequences` for every scenario,
# then the torsion dual counts
# ---------------------------------------------------------------------------

TORSION_PRIMES = (5, 7, 11, 13, 17, 19)


def battery_setup(run: Run, inputs: dict) -> dict:
    return make_fields(run, DEFAULT_BATTERY_ORDERS)


def _indices(system, sols) -> list[tuple]:
    return [tuple(asg[v].index for v in system.variables) for asg in sols]


def _ten_e1_solutions(F) -> set:
    """(a, a^2, a^2, a) for the roots of a^2+a+1, over GF(4) and GF(16) only."""
    if F.order not in (4, 16):
        return set()
    roots = roots_of((1, 1, 1), F)
    expect(len(roots) == 2, f"GF({F.order}) has {len(roots)} roots of a^2+a+1")
    return {(a.index, (a * a).index, (a * a).index, a.index) for a in roots}


def check_scenario(name: str, system, F, raw: list, kept: list) -> None:
    """The published solution sets (criterion 4 of the acceptance suite)."""
    raw_ix, kept_ix = _indices(system, raw), _indices(system, kept)
    where = f"{name} over GF({F.order})"
    expect(set(kept_ix) <= set(raw_ix), f"{where}: post-checks added solutions")
    if not system.post_checks:
        expect(raw_ix == kept_ix, f"{where}: no post-checks, yet raw != kept")
    if name == TEN_E1:
        expect(len(kept_ix) == len(set(kept_ix)) and set(kept_ix) == _ten_e1_solutions(F),
               f"{where}: {kept_ix}")
    elif name == TEN_CASE_A:
        # same equations as TEN_E1; the post-check rejects every solution
        expect(set(raw_ix) == _ten_e1_solutions(F) and kept_ix == [], f"{where}: {raw_ix}")
    elif name == TEN_CASE_B:
        expect(kept_ix == ([(3, 1, 2)] if F.p == 5 else []), f"{where}: {kept_ix}")
    elif name in (ELEVEN_CASE_I, ELEVEN_CASE_II):
        expect(kept_ix == [], f"{where}: {kept_ix}")


def battery_ops(run: Run, fields: dict, inputs: dict) -> None:
    with run.operation("constraints", "default_battery()"):
        with run.tracer.span("constraints.default_battery"):
            battery = default_battery()
        expect([F.order for F in battery] == list(DEFAULT_BATTERY_ORDERS)
               and all(F is fields[F.order] for F in battery),
               "default_battery() is not the set-up battery")

    systems = {}
    for name in SCENARIO_NAMES:
        with run.operation("constraints", f"build_system({name})"):
            with run.tracer.span("constraints.build_system", scenario=name):
                systems[name] = build_system(name)
        for F in battery:
            with run.operation("constraints", f"{name} over GF({F.order})"):
                system = systems[name]
                with run.tracer.span("constraints.solve_over", scenario=name, q=F.order,
                                     post_checks=False):
                    raw = solve_over(system, F, apply_post_checks=False)
                with run.tracer.span("constraints.solve_over", scenario=name, q=F.order,
                                     post_checks=True):
                    kept = solve_over(system, F)
                run.counts["constraints.grid_points"] += 2 * F.order ** len(system.variables)
                run.counts["constraints.raw_solutions"] += len(raw)
                run.counts["constraints.solutions"] += len(kept)
                check_scenario(name, system, F, raw, kept)

    for name in SCENARIO_NAMES:
        if name not in CONSEQUENCES:
            continue
        mode, polys = CONSEQUENCES[name]
        pool = [F for F in battery if F.p == 2] if name == TEN_E1 else battery
        with run.operation("constraints", f"consequences of {name}"):
            with run.tracer.span("constraints.consequence_check", scenario=name):
                rep = consequence_check(systems[name], polys, pool, mode=mode)
            run.counts["constraints.consequence_checked"] += rep.checked
            expect(rep.ok and rep.checked > 0,
                   f"{name}: checked {rep.checked}, {len(rep.violations)} violations")

    for p in TORSION_PRIMES:
        with run.operation("torsion", f"torsion_dual_counts({p})"):
            with run.tracer.span("torsion.torsion_dual_counts", p=p):
                counts = torsion_dual_counts(p)
            expect(counts.identity_holds and counts.closed_forms_hold(),
                   f"p={p}: closed forms fail")


# ---------------------------------------------------------------------------
# wide_field: plane construction, target searches, certificates and seeded
# random arrangements over GF(16), GF(25), GF(27)
# ---------------------------------------------------------------------------

WIDE_TARGETS = {16: 10, 25: 12, 27: 12}

# eligibility follows the characteristic: FANO and TEN_E1 (x^2+x+1 has a
# root in GF(16)) need characteristic 2, TEN_E2 characteristic 5, and
# ELEVEN_16 a root of x^2+x-1 in odd characteristic (a double root in
# characteristic 5; none in GF(27), whose degree over GF(3) is odd)
WIDE_ELIGIBLE = {
    16: {"SMALL_3", "SMALL_4", "SMALL_5", "SMALL_6", "FANO", "TEN_E1"},
    25: {"SMALL_3", "SMALL_4", "SMALL_5", "SMALL_6", "TEN_E2", "ELEVEN_16"},
    27: {"SMALL_3", "SMALL_4", "SMALL_5", "SMALL_6", "DUAL_HESSE", "MOEBIUS_KANTOR"},
}


def wide_setup(run: Run, inputs: dict) -> dict:
    fields = make_fields(run, WIDE_TARGETS)
    return {"fields": fields, "planes": make_planes(run, fields)}


def wide_ops(run: Run, ctx: dict, inputs: dict) -> None:
    fields, planes = ctx["fields"], ctx["planes"]
    for q, target in WIDE_TARGETS.items():
        with run.operation("search", f"s=9 target={target} over GF({q})"):
            rep = search(run, SearchConfig(field=fields[q], s=9, target=target, threads=1))
            expect(rep.target_reached, f"GF({q}): {rep.summary()}, target {target} missed")

    for q in WIDE_TARGETS:
        for name in CERTIFICATE_NAMES:
            with run.operation("certificates", f"verify {name} over GF({q})"):
                try:
                    with run.tracer.span("certificates.verify", certificate=name, q=q):
                        rep = verify(name, fields[q])
                except IneligibleField:
                    run.counts["certificates.ineligible"] += 1
                    expect(name not in WIDE_ELIGIBLE[q], f"{name} refused over GF({q})")
                else:
                    expect(name in WIDE_ELIGIBLE[q] and rep.ok,
                           f"{name} over GF({q}): {list(rep.mismatches)}")
                    run.counts["certificates.verified"] += 1

    for item in inputs["arrangements"]:
        q = item["q"]
        with run.operation("incidence", f"{len(item['lines'])}-line arrangement over GF({q})"):
            lines = planes[q].lines
            A = Arrangement(fields[q], [lines[i] for i in item["lines"]])
            B = Arrangement(fields[q], [lines[i] for i in item["relabelled"]])
            with run.tracer.span("incidence.profile", q=q):
                prof_a = profile(A)
            with run.tracer.span("incidence.parity_check", q=q):
                parity = parity_check(A, prof_a)
            with run.tracer.span("incidence.profile", q=q):
                prof_b = profile(B)
            with run.tracer.span("incidence.abstract", q=q):
                X, Y = abstract(A, prof_a), abstract(B, prof_b)
            with run.tracer.span("incidence.isomorphic", q=q):
                same = isomorphic(X, Y)
            expect(parity.all_pass and prof_a.tvec == prof_b.tvec and same,
                   f"GF({q}) arrangement {item['lines']}: parity {parity.all_pass}, "
                   f"isomorphic to its relabelling {same}")
            run.counts["incidence.arrangements"] += 1


WORKLOADS = {
    "refute_s11_t17": (refute_setup, refute_ops),
    "maximize_s10": (maximize_setup, maximize_ops),
    "battery_scan": (battery_setup, battery_ops),
    "wide_field": (wide_setup, wide_ops),
}


def main(argv: list[str]) -> int:
    workload, trace, mode = argv[1], argv[2] == "1", argv[3]
    src = Path(__file__).resolve().parent.parent / "src"
    if Path(triplelines.__file__).resolve().parent.parent != src:
        print(f"error: imported {triplelines.__file__}, not the package in {src}",
              file=sys.stderr)
        return 2
    inputs = json.load(sys.stdin)
    run = Run(Tracer(inputs["run_id"], trace))
    setup, ops = WORKLOADS[workload]
    with run.tracer.span("bench.setup"):
        ctx = setup(run, inputs)
    setup_end = now()
    if mode == "full":
        with run.tracer.span("bench.ops"):
            ops(run, ctx, inputs)
    peak_kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                  resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    print(json.dumps({
        "setup_end": setup_end,
        "peak_rss_kb": peak_kb,
        "attempted": dict(run.attempted),
        "failed": dict(run.failed),
        "counts": dict(run.counts),
        "spans": run.tracer.spans,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
