import json
import subprocess
import sys

import pytest

from arrange.cli import (EXIT_INFEASIBLE, EXIT_INPUT, EXIT_MISMATCH, EXIT_OK,
                         SchemaError, execute, main, parse, render_machine)
from arrange.polys import IntPoly
from helpers import child_env

BOOLEAN_P2 = {
    "schema_version": 1,
    "model": {
        "kind": "hyperplane",
        "mode": "projective",
        "forms": [{"covector": ["1", "0", "0"]},
                  {"covector": ["0", "1", "0"]},
                  {"covector": ["0", "0", "1"]}],
    },
}

CONFIG_P1_3 = {
    "schema_version": 1,
    "model": {"kind": "configuration", "factor": [1], "points": 3},
}

ABSTRACT_PAIR = {
    "schema_version": 1,
    "model": {
        "kind": "abstract", "c": 1, "ambient": [1, 0, 1, 0, 1, 0, 1],
        "poset": {
            "flats": [
                {"key": "Z1", "codim": 1, "betti": [1, 0, 1, 0, 1]},
                {"key": "Z2", "codim": 1, "betti": [1, 0, 1, 0, 1]},
                {"key": "T", "codim": 2, "betti": [1, 0, 1]}],
            "order": [["Z1", "T"], ["Z2", "T"]],
        },
    },
}


def write_job(tmp_path, doc, name="job.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def test_parse_minimal_hyperplane():
    job = parse(BOOLEAN_P2)
    assert job.model["kind"] == "hyperplane"
    assert job.mode is None and job.fmt == "human" and job.cache


def test_parse_configuration():
    job = parse(CONFIG_P1_3)
    assert job.model["points"] == 3


def test_parse_rejects_missing_betti():
    doc = json.loads(json.dumps(ABSTRACT_PAIR))
    del doc["model"]["poset"]["flats"][2]["betti"]
    with pytest.raises(SchemaError):
        parse(doc)


def test_parse_rejects_bad_version():
    with pytest.raises(SchemaError):
        parse({"schema_version": 99, "model": {"kind": "hyperplane",
                                               "forms": [1]}})


def test_parse_rejects_bad_kind():
    with pytest.raises(SchemaError):
        parse({"schema_version": 1, "model": {"kind": "nope"}})


def test_parse_target_forms():
    job = parse(BOOLEAN_P2, overrides={"target": "1,2,1"})
    assert job.target == IntPoly([1, 2, 1])
    job = parse(BOOLEAN_P2, overrides={"target": "oracle"})
    assert job.target == "oracle"


def test_execute_boolean_p2(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    report, code = execute(parse(BOOLEAN_P2))
    assert code == EXIT_OK
    assert report["betti"] == [1, 2, 1]
    assert report["oracle"]["match"] is True
    assert report["mode"] == "explicit"
    assert {(w["k"], w["w"]): w["dim"] for w in report["weight_table"]} == \
        {(0, 0): 1, (1, 2): 2, (2, 4): 1}


def test_execute_configuration_f_p1_3(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    report, code = execute(parse(CONFIG_P1_3))
    assert code == EXIT_OK
    assert report["betti"] == [1, 0, 0, 1]


def test_execute_abstract_is_bounds_only(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    report, code = execute(parse(ABSTRACT_PAIR, command="verify"))
    assert code == EXIT_OK
    assert report["mode"] == "feasibility"
    assert "einfty" not in report and "betti" not in report
    assert "feasibility" in report
    assert report["admissible"]["note"]


def test_execute_mon_report(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    doc = json.loads(json.dumps(BOOLEAN_P2))
    doc["local_system"] = {"exponents": ["1/5", "1/5", "1/5"]}
    report, code = execute(parse(doc))
    assert code == EXIT_OK
    assert report["mon"]["ok"] is True
    doc["local_system"] = {"exponents": ["1/2", "1/2", "0"]}
    report, _ = execute(parse(doc))
    assert report["mon"]["ok"] is False


def test_machine_report_deterministic(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    report1, _ = execute(parse(BOOLEAN_P2))           # cold cache
    report2, _ = execute(parse(BOOLEAN_P2))           # warm cache
    doc = json.loads(json.dumps(BOOLEAN_P2))
    doc["options"] = {"cache": False}
    report3, _ = execute(parse(doc))                  # no cache
    assert render_machine(report1) == render_machine(report2)
    r1 = json.loads(render_machine(report1))
    r3 = json.loads(render_machine(report3))
    r1.pop("model"), r3.pop("model")
    assert r1 == r3
    assert (tmp_path / ".arrange-cache").exists()


def test_round_trip_abstract_reproduces_page(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    for doc in (BOOLEAN_P2, CONFIG_P1_3,
                {"schema_version": 1,
                 "model": {"kind": "configuration", "factor": [2],
                           "points": 2}}):
        report, _ = execute(parse(doc))
        doc2 = {"schema_version": 1, "model": report["abstract_model"]}
        report2, code2 = execute(parse(doc2))
        assert code2 == EXIT_OK
        cells1 = {(c["p"], c["q"]): (c["dim"], c["weight"])
                  for c in report["e2"]["cells"]}
        cells2 = {(c["p"], c["q"]): (c["dim"], c["weight"])
                  for c in report2["e2"]["cells"]}
        assert cells1 == cells2


def test_exit_code_inadmissible(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    doc = {"schema_version": 1,
           "model": {"kind": "abstract", "c": 2, "ambient": [1],
                     "poset": {"flats": [
                         {"key": "A", "codim": 2, "betti": [1]},
                         {"key": "B", "codim": 3, "betti": [1]}],
                         "order": [["A", "B"]]}}}
    report, code = execute(parse(doc))
    assert code == EXIT_MISMATCH
    assert report["admissible"]["ok"] is False


def test_exit_code_pointwise_mismatch(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    doc = {"schema_version": 1,
           "model": {"kind": "abstract", "c": 1, "ambient": [1],
                     "poset": {"flats": [
                         {"key": "Z1", "codim": 1, "betti": [1]},
                         {"key": "Z2", "codim": 1, "betti": [1]},
                         {"key": "Z3", "codim": 1, "betti": [1]},
                         {"key": "T", "codim": 2, "betti": [1]},
                         {"key": "D", "codim": 3, "betti": [1]}],
                         "order": [["Z1", "T"], ["Z2", "T"],
                                   ["T", "D"], ["Z3", "D"]]}}}
    report, code = execute(parse(doc))
    assert code == EXIT_MISMATCH
    assert report["pointwise"]["ok"] is False
    assert report["pointwise"]["mismatches"]


def test_exit_code_infeasible(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    doc = json.loads(json.dumps(BOOLEAN_P2))
    doc["options"] = {"mode": "feasibility", "target": [5, 5, 5]}
    report, code = execute(parse(doc))
    assert code == EXIT_INFEASIBLE
    assert report["feasibility"]["feasible"] is False


def test_main_full_run(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    path = write_job(tmp_path, BOOLEAN_P2)
    assert main(["run", path]) == EXIT_OK
    out = capsys.readouterr().out
    assert "betti: 1 + 2t + t^2" in out
    assert "MATCH" in out


def test_main_machine_format_byte_identical(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    path = write_job(tmp_path, BOOLEAN_P2)
    assert main(["run", path, "--format", "machine"]) == EXIT_OK
    first = capsys.readouterr().out
    assert main(["run", path, "--format", "machine"]) == EXIT_OK
    second = capsys.readouterr().out
    assert first == second
    json.loads(first)


def test_main_verify_feasibility_with_oracle(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    doc = {"schema_version": 1,
           "model": {"kind": "hyperplane", "mode": "projective",
                     "forms": [{"covector": ["1", "-1", "0"]},
                               {"covector": ["0", "1", "-1"]},
                               {"covector": ["1", "0", "-1"]}]}}
    path = write_job(tmp_path, doc)
    assert main(["verify", path, "--mode", "feasibility",
                 "--target", "oracle"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "feasible=True" in out


def test_main_bounds_mode_ignores_target(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    path = write_job(tmp_path, BOOLEAN_P2)
    assert main(["run", path, "--mode", "bounds", "--target", "1,2,1",
                 "--format", "machine"]) == EXIT_OK
    report = json.loads(capsys.readouterr().out)
    assert report["mode"] == "bounds"
    assert "feasible" not in report["feasibility"]
    assert report["feasibility"]["euler"] == 0


def test_main_lattice_stalks_oracle(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    path = write_job(tmp_path, BOOLEAN_P2)
    for cmd in ("lattice", "stalks", "oracle"):
        assert main([cmd, path]) == EXIT_OK
    out = capsys.readouterr().out
    assert "oracle: 1 + 2t + t^2" in out


def test_main_bad_file(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert main(["run", str(tmp_path / "missing.json")]) == EXIT_INPUT
    bad = tmp_path / "bad.json"
    bad.write_text("{")
    assert main(["run", str(bad)]) == EXIT_INPUT


def test_main_explicit_unavailable_is_input_error(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    path = write_job(tmp_path, ABSTRACT_PAIR)
    assert main(["run", path, "--mode", "explicit"]) == EXIT_INPUT


def run_child(tmp_path, doc):
    """``arrange run`` on ``doc`` in a child interpreter run in tmp_path."""
    path = write_job(tmp_path, doc)
    return subprocess.run(
        [sys.executable, "-m", "arrange.cli", "run", path, "--no-cache"],
        capture_output=True, text=True, cwd=tmp_path, env=child_env())


def test_console_entry_point(tmp_path):
    proc = run_child(tmp_path, CONFIG_P1_3)
    assert proc.returncode == 0, proc.stderr
    assert "1 + t^3" in proc.stdout


@pytest.mark.parametrize("field, edit", [
    ("options", lambda doc: doc.update(options=[1])),
    ("model.factor", lambda doc: doc["model"].update(factor=["a"])),
    ("model.factor", lambda doc: doc["model"].update(factor=[True])),
], ids=["options_list", "factor_string", "factor_bool"])
def test_malformed_document_exits_4_without_traceback(tmp_path, field, edit):
    doc = json.loads(json.dumps(CONFIG_P1_3))
    edit(doc)
    proc = run_child(tmp_path, doc)
    assert proc.returncode == EXIT_INPUT, proc.stderr
    assert field in proc.stderr
    assert "Traceback" not in proc.stderr


def test_pointwise_check_runs_once_per_job(tmp_path, monkeypatch):
    import arrange.stalks as stalks
    monkeypatch.chdir(tmp_path)
    calls = []
    real = stalks.verify_pointwise

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(stalks, "verify_pointwise", counting)
    report, code = execute(parse(BOOLEAN_P2, command="verify"))
    assert code == EXIT_OK
    assert len(calls) == 1
    assert report["pointwise"] == {"ok": True, "mismatches": []}
