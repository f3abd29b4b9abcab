"""Command-line front end.

One binary with subcommands; exit code 0 means success/verified, 1 means a
verification or search target failed, 2 means a usage or input error. All
output is deterministic given the same flags, and every JSON report embeds
the field data (p, k, modulus) so extension-field results are unambiguous.

It is the one module that reads or writes files (arrangements, reports and
CSV tables). Handlers return their report, and run() writes it on exit 0 or 1.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import NamedTuple, Optional

from . import __version__
from .bounds import BoundRow, bound_table
from .certificates import (
    CERTIFICATE_NAMES,
    builtin,
    certificate_table,
    instantiate,
    verify,
)
from .constraints import (
    CONSEQUENCES,
    SCENARIO_NAMES,
    build_system,
    consequence_check,
    default_battery,
    solve_over,
)
from .errors import TripleLinesError
from .field import FieldElement, FieldSpec, make_field, parse_field
from .incidence import (
    Arrangement,
    IncidenceTable,
    abstract,
    check_identity,
    isomorphic,
    parity_check,
    profile,
    table as incidence_table,
)
from .projective import ProjLine
from .search import SearchConfig, dual_search_seed, max_triple_search
from .torsion import torsion_dual_counts, torsion_model


class CommandResult(NamedTuple):
    exit_code: int
    text: str
    report: Optional[dict] = None


# ---------------------------------------------------------------------------
# file formats
# ---------------------------------------------------------------------------

def element_to_json(e: FieldElement):
    """An integer in a prime field, a coefficient list in an extension field."""
    return e.index if e.field.k == 1 else list(e.coeffs)


def element_from_json(F: FieldSpec, value, what: str) -> FieldElement:
    """The element written as an integer in 0..p-1 (a constant) or as a list
    of at most k such integers (coefficients, low degree first).

    Nothing is coerced: a bool, float or string, or an integer that would
    only reduce to a residue (in GF(p^k) it could also read as an element
    index) raises ValueError, whose message calls the value `what`.
    """
    for c in value if isinstance(value, list) else [value]:
        if type(c) is not int:
            raise ValueError(f"{what} expected, got {c!r}")
        if not 0 <= c < F.p:
            raise ValueError(f"{what} {c} is outside 0..{F.p - 1} for {F!r}")
    return F.element(value)


def field_to_json(F: FieldSpec) -> dict:
    d = {"p": F.p, "k": F.k}
    if F.k > 1:
        d["modulus"] = list(F.modulus)
    return d


def tvec_to_json(tvec: dict) -> dict:
    """A t-vector with its multiplicities k as string keys."""
    return {str(k): v for k, v in tvec.items()}


def field_from_json(d: dict) -> FieldSpec:
    if not (isinstance(d, dict) and "p" in d and d.keys() <= {"p", "k", "modulus"}):
        raise ValueError(f"field {d!r} is not an object with p and optional k, modulus")
    p, k, modulus = d["p"], d.get("k", 1), d.get("modulus")
    if (modulus is not None and not isinstance(modulus, list)
            or any(type(n) is not int for n in [p, k, *(modulus or [])])):
        raise ValueError(f"field {d!r}: p, k and the modulus coefficients must be integers")
    return make_field(p, k, modulus)


def arrangement_to_json(A: Arrangement) -> dict:
    d = {
        "field": field_to_json(A.field),
        "lines": [[element_to_json(c) for c in L.coords] for L in A.lines],
    }
    if A.labels:
        d["labels"] = list(A.labels)
    return d


def arrangement_from_json(d: dict) -> Arrangement:
    if not (isinstance(d, dict) and {"field", "lines"} <= d.keys() <= {"field", "lines", "labels"}):
        raise ValueError("an arrangement is an object with field, lines and optional labels")
    F = field_from_json(d["field"])
    if not (isinstance(d["lines"], list) and all(isinstance(L, list) for L in d["lines"])):
        raise ValueError(f"lines must be a list of coordinate lists, got {d['lines']!r}")
    lines = [ProjLine(F, [element_from_json(F, c, "integer coordinate") for c in coords])
             for coords in d["lines"]]
    labels = d.get("labels")
    if labels is not None and not (isinstance(labels, list)
                                   and all(isinstance(x, str) for x in labels)
                                   and len(set(labels)) == len(labels)):
        raise ValueError(f"labels must be a list of distinct strings, got {labels!r}")
    return Arrangement(F, lines, labels)


def table_to_csv(tab: IncidenceTable) -> str:
    """A header of column labels, then one row per line with '+' at its points."""
    lines = ["," + ",".join(tab.col_labels)]
    for label, row in zip(tab.row_labels, tab.cells):
        lines.append(label + "," + ",".join("+" if c else "" for c in row))
    return "\n".join(lines) + "\n"


def _write(path: str, content) -> None:
    """The one writer of output files: a str as it is, anything else as JSON."""
    if not isinstance(content, str):
        content = json.dumps(content, indent=2) + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(content)


def save_arrangement(A: Arrangement, path: str) -> None:
    _write(path, arrangement_to_json(A))


def load_arrangement(path: str) -> Arrangement:
    with open(path, "r", encoding="utf-8") as fh:
        return arrangement_from_json(json.load(fh))


def _parse_ints(text: str) -> list[int]:
    """Comma-separated integers, optionally in brackets: '1,0,1' or '[1,0,1]'."""
    return [int(c) for c in text.replace("[", "").replace("]", "").split(",")]


def _add_field_args(parser: argparse.ArgumentParser, required: bool = True) -> None:
    parser.add_argument("--field", required=required, metavar="Q")
    parser.add_argument("--modulus", metavar="C0,C1,..")


def _field(args) -> FieldSpec:
    return parse_field(args.field, None if args.modulus is None else _parse_ints(args.modulus))


def _parse_element(F: FieldSpec, text: str) -> FieldElement:
    return element_from_json(F, _parse_ints(text), "--param coefficient")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="triplelines",
        description="line arrangements with many triple points over finite fields")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_bounds = sub.add_parser("bounds", help="triple-point bound table")
    p_bounds.add_argument("--max", type=int, required=True, metavar="S")
    p_bounds.add_argument("--csv", metavar="FILE")
    p_bounds.add_argument("--json", metavar="FILE")

    p_verify = sub.add_parser("verify", help="check a built-in configuration")
    p_verify.add_argument("name", choices=list(CERTIFICATE_NAMES))
    _add_field_args(p_verify)
    p_verify.add_argument("--param", metavar="ELT")
    p_verify.add_argument("--table", action="store_true",
                          help="print the incidence table as CSV")
    p_verify.add_argument("--json", metavar="FILE")

    p_search = sub.add_parser("search", help="maximize triple points over s lines")
    _add_field_args(p_search)
    p_search.add_argument("--lines", type=int, required=True, metavar="S")
    p_search.add_argument("--target", type=int, default=None)
    p_search.add_argument("--metric", choices=["3", "3plus"], default="3")
    p_search.add_argument("--no-frame", action="store_true",
                          help="disable frame normalization")
    p_search.add_argument("--max-nodes", type=int, default=10 ** 9)
    p_search.add_argument("--threads", type=int, default=1)
    p_search.add_argument("--out", dest="json", metavar="FILE", help="write the JSON report")

    p_con = sub.add_parser("constraints", help="solve an incidence scenario")
    p_con.add_argument("scenario", choices=list(SCENARIO_NAMES))
    _add_field_args(p_con, required=False)
    p_con.add_argument("--battery", action="store_true",
                       help="scan the default field battery")
    p_con.add_argument("--list-solutions", action="store_true")
    p_con.add_argument("--consequences", action="store_true",
                       help="also check the published consequence polynomials")
    p_con.add_argument("--json", metavar="FILE")

    p_tor = sub.add_parser("torsion", help="p-torsion configuration counts")
    p_tor.add_argument("--p", type=int, required=True)
    p_tor.add_argument("--dual", action="store_true")
    p_tor.add_argument("--json", metavar="FILE")

    p_prof = sub.add_parser("profile", help="profile an arrangement file")
    p_prof.add_argument("file")
    p_prof.add_argument("--csv", metavar="FILE", help="write the incidence table")
    p_prof.add_argument("--json", metavar="FILE")

    p_dual = sub.add_parser("dualize", help="dualize an arrangement file")
    p_dual.add_argument("file")
    p_dual.add_argument("--out", required=True, metavar="FILE")
    p_dual.add_argument("--min-mult", type=int, default=2)

    p_iso = sub.add_parser("iso", help="abstract isomorphism of two arrangements")
    p_iso.add_argument("file_a")
    p_iso.add_argument("file_b")
    p_iso.add_argument("--json", metavar="FILE")

    p_exp = sub.add_parser("export", help="write a certificate arrangement file")
    p_exp.add_argument("name", choices=list(CERTIFICATE_NAMES))
    _add_field_args(p_exp)
    p_exp.add_argument("--param", metavar="ELT")
    p_exp.add_argument("--out", required=True, metavar="FILE")
    return parser


# ---------------------------------------------------------------------------
# subcommand handlers
# ---------------------------------------------------------------------------

def _cmd_bounds(args) -> CommandResult:
    rows = bound_table(args.max)
    lines = [f"{'s':>4} {'naive':>7} {'U3':>6}"]
    for r in rows:
        lines.append(f"{r.s:>4} {r.naive:>7} {r.u3:>6}")
    text = "\n".join(lines)
    if args.csv:
        _write(args.csv, "".join(",".join(map(str, r)) + "\n"
                                 for r in [BoundRow._fields, *rows]))
    report = {"max_s": args.max, "rows": [r._asdict() for r in rows]}
    return CommandResult(0, text, report)


def _cmd_verify(args) -> CommandResult:
    F = _field(args)
    param = _parse_element(F, args.param) if args.param else None
    rep = verify(args.name, F, param)
    lines = [f"{args.name} over {F!r}"
             + (f" with {builtin(args.name).param.name}={rep.param!r}" if rep.param is not None else "")]
    lines.append(f"expected t-vector {rep.tvec_expected}, computed {rep.tvec_actual}")
    if rep.ok:
        lines.append("verified: t-vector, special points and incidence table all match")
    else:
        lines.extend(f"mismatch: {m}" for m in rep.mismatches)
    text = "\n".join(lines)
    if args.table:
        text += "\n" + table_to_csv(certificate_table(args.name, F, param))
    report = {
        "certificate": args.name,
        "field": field_to_json(F),
        "param": element_to_json(rep.param) if rep.param is not None else None,
        "ok": rep.ok,
        "tvec_expected": tvec_to_json(rep.tvec_expected),
        "tvec_actual": tvec_to_json(rep.tvec_actual),
        "mismatches": list(rep.mismatches),
    }
    return CommandResult(0 if rep.ok else 1, text, report)


def _cmd_search(args) -> CommandResult:
    F = _field(args)
    cfg = SearchConfig(
        field=F, s=args.lines, target=args.target,
        metric="exact3" if args.metric == "3" else "atleast3",
        normalize_frame=not args.no_frame,
        max_nodes=args.max_nodes, threads=args.threads)
    rep = max_triple_search(cfg)
    lines = [f"search over {F!r}, s={args.lines}, metric={cfg.metric}",
             rep.summary()]
    lines.extend(f"note: {n}" for n in rep.notes)
    report = {
        "field": field_to_json(F),
        "s": args.lines,
        "metric": cfg.metric,
        "target": args.target,
        "normalize_frame": cfg.normalize_frame,
        "best": rep.best,
        "target_reached": rep.target_reached,
        "exhaustive": rep.exhaustive,
        "best_is_maximum": rep.best_is_maximum,
        "nodes_visited": rep.nodes_visited,
        "witnesses": [arrangement_to_json(w) for w in rep.witnesses],
        "notes": list(rep.notes),
    }
    code = 0
    if args.target is not None and not rep.target_reached:
        code = 1
    return CommandResult(code, "\n".join(lines), report)


def _cmd_constraints(args) -> CommandResult:
    if args.battery and args.field is not None:
        raise ValueError("--field and --battery exclude each other")
    if args.modulus is not None and args.field is None:
        raise ValueError("--modulus needs --field")
    system = build_system(args.scenario)
    if args.field is not None:
        battery = [_field(args)]
    else:
        battery = default_battery()
    lines = [f"scenario {args.scenario}: variables {', '.join(system.variables)}; "
             f"{len(system.equations)} equations, {len(system.inequations)} "
             f"non-degeneracy conditions"]
    field_reports = []
    for F in battery:
        raw = solve_over(system, F, apply_post_checks=False)
        kept = [asg for asg in raw if system.keeps(asg, F)]
        entry = {
            "field": field_to_json(F),
            "raw_solution_count": len(raw),
            "solution_count": len(kept),
            "solutions": [{v: element_to_json(asg[v]) for v in system.variables}
                          for asg in kept],
            "post_checks": [name for name, _ in system.post_checks],
        }
        field_reports.append(entry)
        msg = f"  {F!r}: {len(kept)} solution(s)"
        if system.post_checks and len(raw) != len(kept):
            msg += f" ({len(raw)} before post-checks)"
        lines.append(msg)
        if args.list_solutions:
            for asg in kept:
                lines.append("    " + ", ".join(f"{v}={asg[v]!r}" for v in system.variables))
    report = {"scenario": args.scenario, "fields": field_reports}
    code = 0
    if args.consequences and args.scenario in CONSEQUENCES:
        mode, polys = CONSEQUENCES[args.scenario]
        crep = consequence_check(system, polys, battery, mode=mode)
        lines.append(f"consequences ({mode} mode): checked {crep.checked} "
                     f"solution(s), {'all vanish' if crep.ok else 'VIOLATIONS'}")
        report["consequences"] = {
            "mode": crep.mode,
            "checked": crep.checked,
            "ok": crep.ok,
            "violations": [
                {"field": field_to_json(v.field),
                 "assignment": {k: element_to_json(e) for k, e in v.assignment.items()},
                 "consequence": repr(v.consequence)}
                for v in crep.violations],
        }
        if not crep.ok:
            code = 1
    elif args.consequences:
        lines.append(f"consequences: none recorded for {args.scenario}")
    lines.append("note: per-field evidence only, not a statement about all fields")
    return CommandResult(code, "\n".join(lines), report)


def _cmd_torsion(args) -> CommandResult:
    model = torsion_model(args.p)
    lines = [f"p={args.p}: {len(model.points)} points, "
             f"{len(model.secant[0])} secant triples, "
             f"{len(model.tangent[0])} tangent pairs, "
             f"{model.num_lines} lines in total"]
    if model.special_case:
        lines.append("special case p=3: the tangent relation degenerates; "
                     "dual counts are not defined here")
    report = {
        "p": args.p,
        "points": len(model.points),
        "secant_blocks": len(model.secant[0]),
        "tangent_pairs": len(model.tangent[0]),
        "lines": model.num_lines,
        "special_case": model.special_case,
    }
    code = 0
    if args.dual:
        counts = torsion_dual_counts(model)
        closed_forms = counts.closed_forms_hold()
        if not (counts.identity_holds and closed_forms):
            code = 1
        lines.append(
            f"dual: {counts.lines} lines, t3={counts.t3}, t2={counts.t2}; "
            f"{counts.points_on_dual_of_zero} points on the dual of 0, "
            f"{counts.points_on_dual_of_nonzero} on every other dual line; "
            f"U3({counts.lines})={counts.u3}, gap={counts.gap}")
        lines.append(f"pair-count identity holds: {counts.identity_holds}; "
                     f"closed forms hold: {closed_forms}")
        report["dual"] = {k: v for k, v in counts._asdict().items() if k != "p"}
        report["dual"]["closed_forms_hold"] = closed_forms
    return CommandResult(code, "\n".join(lines), report)


def _cmd_profile(args) -> CommandResult:
    A = load_arrangement(args.file)
    prof = profile(A)
    par = parity_check(A, prof)
    identity = check_identity(A.s, prof.tvec)
    lines = [f"arrangement of s={A.s} lines over {A.field!r}",
             f"t-vector: {prof.tvec}",
             f"pair-count identity C(s,2) = sum t_k C(k,2): {identity}",
             f"per-line identity s-1 = sum (m_i - 1): "
             f"{'all lines pass' if par.all_pass else 'FAILED'}"]
    if par.lines_with_only_triples:
        lines.append(f"lines carrying only triple points (forces odd s): "
                     f"{', '.join(par.lines_with_only_triples)}")
    if args.csv:
        _write(args.csv, table_to_csv(incidence_table(A)))
        lines.append(f"incidence table written to {args.csv}")
    report = {
        "field": field_to_json(A.field),
        "s": A.s,
        "tvec": tvec_to_json(prof.tvec),
        "identity_holds": identity,
        "parity_all_pass": par.all_pass,
        "lines_with_only_triple_points": list(par.lines_with_only_triples),
    }
    return CommandResult(0 if par.all_pass else 1, "\n".join(lines), report)


def _cmd_dualize(args) -> CommandResult:
    A = load_arrangement(args.file)
    D = dual_search_seed(A, args.min_mult)
    save_arrangement(D, args.out)
    return CommandResult(
        0, f"dual of {args.file} (intersection points of multiplicity >= "
           f"{args.min_mult}) has {D.s} lines; written to {args.out}")


def _cmd_iso(args) -> CommandResult:
    A = load_arrangement(args.file_a)
    B = load_arrangement(args.file_b)
    same = isomorphic(abstract(A), abstract(B))
    report = {"file_a": args.file_a, "file_b": args.file_b, "isomorphic": same}
    text = ("the two arrangements are isomorphic as abstract incidence structures"
            if same else "not isomorphic")
    return CommandResult(0 if same else 1, text, report)


def _cmd_export(args) -> CommandResult:
    F = _field(args)
    param = _parse_element(F, args.param) if args.param else None
    A = instantiate(args.name, F, param)
    save_arrangement(A, args.out)
    return CommandResult(0, f"{args.name} over {F!r} written to {args.out}")


_HANDLERS = {
    "bounds": _cmd_bounds,
    "verify": _cmd_verify,
    "search": _cmd_search,
    "constraints": _cmd_constraints,
    "torsion": _cmd_torsion,
    "profile": _cmd_profile,
    "dualize": _cmd_dualize,
    "iso": _cmd_iso,
    "export": _cmd_export,
}


def run(argv: list[str]) -> CommandResult:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse already printed its message; --help/--version exit 0
        return CommandResult(0 if exc.code == 0 else 2, "")
    try:
        result = _HANDLERS[args.command](args)
        if getattr(args, "json", None):
            _write(args.json, result.report)
        return result
    except FileNotFoundError as exc:
        return CommandResult(2, f"error: no such file: {exc.filename}")
    except OSError as exc:
        # a failed fork or pipe names no file
        if exc.filename is None:
            return CommandResult(2, f"error: {exc}")
        return CommandResult(2, f"error: cannot open {exc.filename}: {exc.strerror}")
    except (TripleLinesError, ValueError) as exc:
        return CommandResult(2, f"error: {exc}")


def main() -> None:
    result = run(sys.argv[1:])
    if result.text:
        try:
            print(result.text, flush=True)
        except BrokenPipeError:
            # the reader closed the pipe early; any --json/--out file is written
            # already, and stdout goes to devnull so the flush at exit stays quiet
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    sys.exit(result.exit_code)


if __name__ == "__main__":
    main()
