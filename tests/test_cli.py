"""CLI behaviour: exit codes, round trips, report schemas."""

import json
import os
import subprocess
import sys
from importlib import resources
from pathlib import Path

import pytest

jsonschema = pytest.importorskip("jsonschema")

import triplelines
from triplelines import constraints
from triplelines.cli import run
from triplelines.constraints import default_battery
from triplelines.torsion import TorsionDualCounts


def _schema(name):
    text = resources.files("triplelines").joinpath("schemas", name).read_text()
    return json.loads(text)


def _validate(report, schema_name):
    schema = _schema(schema_name)
    if schema_name == "search_report.schema.json":
        # resolve the arrangement reference manually
        schema = json.loads(json.dumps(schema))
        schema["properties"]["witnesses"]["items"] = _schema("arrangement.schema.json")
    jsonschema.validate(report, schema)


def test_bounds_matches_published_row():
    res = run(["bounds", "--max", "12"])
    assert res.exit_code == 0
    values = [int(line.split()[2]) for line in res.text.splitlines()[1:]]
    assert values == [0, 0, 1, 1, 2, 4, 7, 8, 12, 13, 17, 20]
    _validate(res.report, "bounds_report.schema.json")


def test_bounds_csv(tmp_path):
    out = tmp_path / "bounds.csv"
    res = run(["bounds", "--max", "5", "--csv", str(out)])
    assert res.exit_code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "s,naive,u3,eps"
    assert lines[5] == "5,3,2,1"


@pytest.mark.parametrize("max_s", ["0", "-3"])
def test_bounds_rejects_max_below_one(tmp_path, max_s):
    out = tmp_path / "bounds.json"
    res = run(["bounds", "--max", max_s, "--json", str(out)])
    assert res.exit_code == 2 and "must be positive" in res.text
    assert not out.exists()


def test_verify_exit_codes():
    assert run(["verify", "TEN_E2", "--field", "5"]).exit_code == 0
    assert run(["verify", "TEN_E1", "--field", "2^2"]).exit_code == 0
    # ineligible field is an input error, not a failed verification
    assert run(["verify", "TEN_E2", "--field", "7"]).exit_code == 2
    assert run(["verify", "NOPE", "--field", "5"]).exit_code == 2


def test_verify_names_the_characteristic_before_the_parameter():
    # eligibility is checked before the parameter equation is solved
    res = run(["verify", "TEN_E1", "--field", "5"])
    assert res.exit_code == 2
    assert "characteristic 5, need characteristic 2" in res.text
    assert "no solution" not in res.text


def test_verify_rejects_param_of_parameterless_certificate():
    res = run(["verify", "TEN_E2", "--field", "5", "--param", "2"])
    assert res.exit_code == 2
    assert "takes no parameter" in res.text


@pytest.mark.parametrize("argv, message", [
    (["verify", "ELEVEN_16", "--field", "11", "--param", "18"], "18 is outside 0..10"),
    (["verify", "TEN_E1", "--field", "2^2", "--param", "5"], "5 is outside 0..1"),
    (["verify", "TEN_E1", "--field", "2^2", "--param", "0,2"], "2 is outside 0..1"),
    (["verify", "TEN_E2", "--field", "5", "--modulus", "5,1"], "5 is outside 0..4"),
    (["search", "--field", "2^2", "--modulus", "1,1,3", "--lines", "5"],
     "3 is outside 0..1"),
])
def test_coefficients_outside_residues_exit_two(argv, message):
    res = run(argv)
    assert res.exit_code == 2 and message in res.text


def test_dualize_cli_rejects_multiplicity_below_two(tmp_path):
    a = tmp_path / "e2.json"
    run(["export", "TEN_E2", "--field", "5", "--out", str(a)])
    out = tmp_path / "dual.json"
    res = run(["dualize", str(a), "--out", str(out), "--min-mult", "0"])
    assert res.exit_code == 2 and "min_multiplicity" in res.text
    assert not out.exists()


def test_verify_report_schema(tmp_path):
    out = tmp_path / "verify.json"
    res = run(["verify", "ELEVEN_16", "--field", "11", "--param", "7",
               "--json", str(out)])
    assert res.exit_code == 0
    report = json.loads(out.read_text())
    _validate(report, "verify_report.schema.json")
    assert report["ok"] and report["param"] == 7


def test_search_cli_target_miss_exits_one(tmp_path):
    out = tmp_path / "search.json"
    res = run(["search", "--field", "3", "--lines", "11", "--target", "17",
               "--no-frame", "--out", str(out)])
    assert res.exit_code == 1
    report = json.loads(out.read_text())
    _validate(report, "search_report.schema.json")
    assert report["exhaustive"] and not report["target_reached"]
    assert any("per-field" in n for n in report["notes"])


def test_search_cli_success():
    res = run(["search", "--field", "2", "--lines", "7", "--no-frame"])
    assert res.exit_code == 0
    assert res.report["best"] == 7
    _validate(res.report, "search_report.schema.json")


def test_search_cli_rejects_bad_field():
    res = run(["search", "--field", "4", "--lines", "5"])
    assert res.exit_code == 2 and "write GF(4) as 2^2" in res.text
    res = run(["search", "--field", "16", "--lines", "5"])
    assert res.exit_code == 2 and "write GF(16) as 2^4" in res.text
    res = run(["search", "--field", "12", "--lines", "5"])
    assert res.exit_code == 2 and "12 is not prime" in res.text and "write" not in res.text
    base = ["search", "--field", "5", "--lines", "8"]
    assert run(base + ["--threads", "0"]).exit_code == 2
    assert run(base + ["--max-nodes", "-1"]).exit_code == 2
    res = run(base + ["--target", "-3"])
    assert res.exit_code == 2 and "target must be non-negative" in res.text


def test_field_above_table_limit_exits_two():
    res = run(["verify", "SMALL_4", "--field", "1031"])
    assert res.exit_code == 2
    assert "1031" in res.text


def test_search_over_a_plane_beyond_16_bit_positions_exits_two():
    res = run(["search", "--field", "1021", "--lines", "5", "--max-nodes", "10"])
    assert res.exit_code == 2 and "PG(2,1021) has 1043463 lines" in res.text


def test_search_whose_masks_pass_the_limit_exits_two():
    res = run(["search", "--field", "251", "--lines", "5", "--max-nodes", "10"])
    assert res.exit_code == 2 and "point masks would take more than 64 MiB" in res.text


def test_pool_search_without_os_fork_exits_two(monkeypatch):
    # no sequential fallback: a platform without fork refuses --threads 2
    monkeypatch.delattr(os, "fork")
    res = run(["search", "--field", "5", "--lines", "8", "--threads", "2"])
    assert res.exit_code == 2 and "os.fork" in res.text
    assert run(["search", "--field", "5", "--lines", "8", "--threads", "1"]).exit_code == 0


def test_search_cli_gf5_seventeen_unreachable():
    res = run(["search", "--field", "5", "--lines", "11", "--target", "17"])
    assert res.exit_code == 1
    assert res.report["best"] <= 16
    assert res.report["exhaustive"] and not res.report["target_reached"]


@pytest.mark.parametrize("q, s, target, best, entered", [
    pytest.param("2^3", 11, 17, None, False, id="2^3-None"),
    pytest.param("7", 11, 17, 16, True, id="7-16"),
    pytest.param("5", 6, 5, 0, False, id="5-0"),
])
def test_refuted_target_reports_null_best_when_no_arrangement_was_entered(tmp_path, q, s,
                                                                          target, best,
                                                                          entered):
    # over GF(8) the pruned search cuts every partial arrangement before its
    # last line, so no best exists; over GF(7) it enters 16-point arrangements;
    # over GF(5) the target 5 > U_3(6) cuts the root, and best=0 is the
    # pencil/near-pencil value folded into the result, not an entered leaf
    out = tmp_path / "search.json"
    res = run(["search", "--field", q, "--lines", str(s), "--target", str(target),
               "--out", str(out)])
    assert res.exit_code == 1
    report = json.loads(out.read_text())
    _validate(report, "search_report.schema.json")
    assert report["best"] == best
    assert report["exhaustive"] and not report["target_reached"]
    assert bool(report["witnesses"]) == entered
    assert f"best={'none' if best is None else best}," in res.text
    assert ("no arrangement entered" in res.text) == (not entered)
    assert ("best found, not a proven maximum" in res.text) == entered
    assert ("folded-in pencil/near-pencil value" in res.text) == (best == 0)


@pytest.mark.parametrize("target, code", [(None, 0), (1, 1)])
def test_more_lines_than_the_plane_reports_null_best(tmp_path, target, code):
    # PG(2,2) has 7 lines: no arrangement of 9 exists, so nothing is a maximum
    out = tmp_path / "search.json"
    argv = ["search", "--field", "2", "--lines", "9", "--out", str(out)]
    res = run(argv + ([] if target is None else ["--target", str(target)]))
    assert res.exit_code == code
    report = json.loads(out.read_text())
    _validate(report, "search_report.schema.json")
    assert report["best"] is None and not report["best_is_maximum"]
    assert not report["witnesses"] and not report["target_reached"]
    assert any("has only 7 lines" in n for n in report["notes"])
    assert "best=none," in res.text and "proven maximum," not in res.text
    assert "no arrangement entered" in res.text and "best found" not in res.text


def test_target_search_does_not_claim_a_maximum(tmp_path):
    # pruning against an unreachable target proves nothing about the maximum
    out = tmp_path / "search.json"
    res = run(["search", "--field", "5", "--lines", "10", "--target", "20",
               "--out", str(out)])
    assert res.exit_code == 1
    report = json.loads(out.read_text())
    _validate(report, "search_report.schema.json")
    assert report["exhaustive"] and not report["best_is_maximum"]
    assert "not a proven maximum" in res.text
    full = run(["search", "--field", "5", "--lines", "10"])
    assert full.report["best"] == 13 and full.report["best_is_maximum"]
    assert "proven maximum" in full.text and "not a proven" not in full.text


def test_reports_do_not_depend_on_the_hash_seed(tmp_path):
    src = Path(triplelines.__file__).resolve().parent.parent

    def outputs(seed):
        env = dict(os.environ, PYTHONHASHSEED=str(seed), PYTHONPATH=str(src))
        runs = [["export", "TEN_E1", "--field", "2^2", "--out", "e1.json"],
                ["verify", "TEN_E1", "--field", "2^2", "--json", "v.json"],
                ["profile", "e1.json", "--json", "p.json"]]
        texts = [subprocess.run([sys.executable, "-m", "triplelines.cli", *argv],
                                cwd=tmp_path, env=env, capture_output=True,
                                text=True, check=True).stdout
                 for argv in runs]
        return texts, (tmp_path / "v.json").read_bytes(), (tmp_path / "p.json").read_bytes()

    first = outputs(1)
    assert outputs(2) == first
    assert b'"tvec_actual": {\n    "2": 3,\n    "3": 12,\n    "4": 1\n  }' in first[1]


def test_report_into_a_pipe_closed_early_exits_quietly():
    # the report (~450 kB) overfills the pipe, so the reader closes it mid-write
    src = Path(triplelines.__file__).resolve().parent.parent
    with subprocess.Popen([sys.executable, "-m", "triplelines.cli", "bounds", "--max", "20000"],
                          env=dict(os.environ, PYTHONPATH=str(src)),
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True) as proc:
        assert proc.stdout.readline().split() == ["s", "naive", "U3"]
        proc.stdout.close()
        assert proc.stderr.read() == ""
        assert proc.wait(timeout=60) == 0


def test_constraints_cli_single_field(tmp_path):
    out = tmp_path / "con.json"
    res = run(["constraints", "TEN_CASE_B", "--field", "5", "--list-solutions",
               "--consequences", "--json", str(out)])
    assert res.exit_code == 0
    assert "a=3, b=1, c=2" in res.text
    report = json.loads(out.read_text())
    _validate(report, "constraints_report.schema.json")
    assert report["fields"][0]["solutions"] == [{"a": 3, "b": 1, "c": 2}]
    assert report["consequences"]["ok"]


def test_constraints_cli_battery():
    res = run(["constraints", "ELEVEN_CASE_II", "--battery", "--consequences"])
    assert res.exit_code == 0
    _validate(res.report, "constraints_report.schema.json")
    assert all(entry["solution_count"] == 0 for entry in res.report["fields"])


@pytest.mark.parametrize("scenario", ["TEN_CASE_A", "ELEVEN_CASE_I"])
def test_constraints_cli_says_when_no_consequences_are_recorded(scenario):
    res = run(["constraints", scenario, "--field", "5", "--consequences"])
    assert res.exit_code == 0 and "consequences" not in res.report
    assert f"consequences: none recorded for {scenario}" in res.text


def test_constraints_cli_scans_each_field_once(monkeypatch):
    # the kept solutions are the raw ones filtered through the post-checks
    scans = []
    survivors = constraints._survivors

    def counting(system, F):
        scans.append(F.order)
        return survivors(system, F)

    monkeypatch.setattr(constraints, "_survivors", counting)
    res = run(["constraints", "TEN_CASE_A", "--field", "7"])
    assert res.exit_code == 0 and scans == [7]
    scans.clear()
    res = run(["constraints", "ELEVEN_CASE_I", "--battery"])
    assert res.exit_code == 0
    assert scans == [F.order for F in default_battery()]


@pytest.mark.parametrize("argv, message", [
    (["--field", "5", "--battery"], "exclude each other"),
    (["--modulus", "1,1,1"], "--modulus needs --field"),
    (["--battery", "--modulus", "1,1,1"], "--modulus needs --field"),
])
def test_constraints_cli_rejects_ambiguous_flags(argv, message):
    res = run(["constraints", "TEN_CASE_B", *argv])
    assert res.exit_code == 2 and message in res.text


def test_torsion_cli(tmp_path):
    out = tmp_path / "torsion.json"
    res = run(["torsion", "--p", "5", "--dual", "--json", str(out)])
    assert res.exit_code == 0
    report = json.loads(out.read_text())
    _validate(report, "torsion_report.schema.json")
    assert report["dual"]["t3"] == 92 and report["dual"]["gap"] == 8
    # p = 3 dual is an input error per the degenerate formula
    assert run(["torsion", "--p", "3", "--dual"]).exit_code == 2
    assert run(["torsion", "--p", "3"]).exit_code == 0
    assert run(["torsion", "--p", "6"]).exit_code == 2


def test_torsion_cli_exits_1_when_the_closed_forms_fail(monkeypatch):
    monkeypatch.setattr(TorsionDualCounts, "closed_forms_hold", lambda self: False)
    res = run(["torsion", "--p", "5", "--dual"])
    assert res.exit_code == 1
    assert "closed forms hold: False" in res.text
    assert res.report["dual"]["closed_forms_hold"] is False


def test_profile_missing_file_names_it():
    res = run(["profile", "no_such_file.json"])
    assert res.exit_code == 2
    assert "no_such_file.json" in res.text


@pytest.mark.parametrize("argv", [["bounds", "--max", "3", "--json"], ["profile"]])
def test_unopenable_path_exits_2_with_its_name(tmp_path, argv):
    # a directory where a file is read or written raises an OSError other
    # than FileNotFoundError; it is an input error, not a failed target (exit 1)
    res = run(argv + [str(tmp_path)])
    assert res.exit_code == 2
    assert res.text.startswith(f"error: cannot open {tmp_path}: ") and "\n" not in res.text


def test_export_profile_round_trip(tmp_path):
    out = tmp_path / "e16.json"
    assert run(["export", "ELEVEN_16", "--field", "11", "--param", "3",
                "--out", str(out)]).exit_code == 0
    data = json.loads(out.read_text())
    _validate(data, "arrangement.schema.json")

    prof1 = run(["profile", str(out), "--json", str(tmp_path / "p1.json")])
    assert prof1.exit_code == 0
    report = json.loads((tmp_path / "p1.json").read_text())
    _validate(report, "profile_report.schema.json")
    assert report["tvec"] == {"3": 16, "2": 7}
    assert report["identity_holds"] and report["parity_all_pass"]

    # byte-for-byte reproducibility of the t-vector line
    prof2 = run(["profile", str(out)])
    assert prof1.text == prof2.text


def test_profile_rejects_ambiguous_integer_in_extension_field(tmp_path):
    arr = tmp_path / "gf4.json"
    arr.write_text(json.dumps({"field": {"p": 2, "k": 2},
                               "lines": [[1, 3, 0], [0, 1, 0], [0, 0, 1]]}))
    res = run(["profile", str(arr)])
    assert res.exit_code == 2
    assert "integer coordinate 3" in res.text
    # constants 0..p-1 and coefficient lists stay valid
    arr.write_text(json.dumps({"field": {"p": 2, "k": 2},
                               "lines": [[1, [1, 1], 0], [0, 1, 0], [0, 0, 1]]}))
    assert run(["profile", str(arr)]).exit_code == 0


@pytest.mark.parametrize("edit, message", [
    (lambda d: d["lines"][0].__setitem__(0, -4), "integer coordinate -4 is outside 0..4"),
    (lambda d: d["lines"][0].__setitem__(0, 5), "integer coordinate 5 is outside 0..4"),
    (lambda d: d["lines"][0].__setitem__(0, 1.5), "integer coordinate expected, got 1.5"),
    (lambda d: d["lines"][0].__setitem__(0, "1"), "integer coordinate expected, got '1'"),
    (lambda d: d["lines"][0].__setitem__(0, True), "integer coordinate expected, got True"),
    (lambda d: d["lines"][0].__setitem__(0, [1, 0]), "2 coefficients"),
    (lambda d: d["lines"].__setitem__(0, 7), "lines must be a list of coordinate lists"),
    (lambda d: d.__setitem__("field", 5), "is not an object with p"),
    (lambda d: d["field"].__setitem__("k", True), "must be integers"),
    (lambda d: d.__setitem__("label", []), "optional labels"),
    (lambda d: d.__setitem__("labels", list(range(10))), "distinct strings"),
    (lambda d: d.__setitem__("labels", ["L_1"] * 10), "distinct strings"),
], ids=["negative", "residue", "float", "string", "bool", "long-list", "line-not-list",
        "field-not-object", "bool-degree", "unknown-key", "integer-labels", "repeated-labels"])
def test_profile_rejects_malformed_arrangement_file(tmp_path, edit, message):
    arr = tmp_path / "e2.json"
    assert run(["export", "TEN_E2", "--field", "5", "--out", str(arr)]).exit_code == 0
    assert run(["profile", str(arr)]).exit_code == 0
    data = json.loads(arr.read_text())
    edit(data)
    arr.write_text(json.dumps(data))
    res = run(["profile", str(arr)])
    assert res.exit_code == 2 and message in res.text


def test_profile_csv_table(tmp_path):
    arr = tmp_path / "fano.json"
    run(["export", "FANO", "--field", "2", "--out", str(arr)])
    csv_path = tmp_path / "table.csv"
    res = run(["profile", str(arr), "--csv", str(csv_path)])
    assert res.exit_code == 0
    rows = csv_path.read_text().strip().splitlines()
    assert len(rows) == 8                      # header + 7 lines
    assert all(row.count("+") == 3 for row in rows[1:])


def test_iso_cli(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    run(["export", "DUAL_HESSE", "--field", "3", "--out", str(a)])
    run(["export", "FANO", "--field", "2", "--out", str(b)])
    same = run(["iso", str(a), str(a)])
    assert same.exit_code == 0 and same.report["isomorphic"]
    _validate(same.report, "iso_report.schema.json")
    diff = run(["iso", str(a), str(b)])
    assert diff.exit_code == 1 and not diff.report["isomorphic"]


def test_dualize_cli(tmp_path):
    a = tmp_path / "dh.json"
    run(["export", "DUAL_HESSE", "--field", "3", "--out", str(a)])
    out = tmp_path / "dual.json"
    res = run(["dualize", str(a), "--out", str(out), "--min-mult", "3"])
    assert res.exit_code == 0
    prof = run(["profile", str(out)])
    assert "{3: 4, 4: 9}" in prof.text


def test_usage_errors_exit_two():
    assert run(["bogus"]).exit_code == 2
    assert run(["bounds"]).exit_code == 2
    assert run([]).exit_code == 2


def test_help_exits_zero():
    assert run(["--help"]).exit_code == 0
