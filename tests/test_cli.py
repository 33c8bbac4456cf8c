import contextlib
import copy
import io
import json
import os
import random
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

import arrange.cli as cli
import arrange.spectral as spectral
from arrange.cli import (EXIT_INFEASIBLE, EXIT_INPUT, EXIT_MISMATCH, EXIT_OK,
                         SchemaError, build_model, execute, main, parse,
                         render_machine)
from arrange.polys import IntPoly
from arrange.poset import IntersectionPoset
from helpers import (coordinate_forms, criterion_10_hyperplane_forms,
                     random_generic_projective_forms, run_child)

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


def hyperplane_document(forms):
    return {"schema_version": 1,
            "model": {"kind": "hyperplane", "mode": "projective",
                      "forms": [{"covector": list(cov)} for cov, _ in forms]},
            "options": {"cache": False}}


def failed_verdicts(report):
    return [v["check"] for v in report["verdicts"] if not v["ok"]]


PURE_FORMS = criterion_10_hyperplane_forms() + [
    coordinate_forms(6), coordinate_forms(8),
    random_generic_projective_forms(random.Random(10), 10, 3),
    random_generic_projective_forms(random.Random(12), 12, 3)]


@pytest.mark.parametrize("forms", PURE_FORMS, ids=[
    "coordinate_P1", "coordinate_P2", "coordinate_P3", "coordinate_P4",
    "generic_4_P3", "generic_5_P3", "generic_6_P3", "coordinate_P6",
    "coordinate_P8", "generic_10_P3", "generic_12_P3"])
def test_weight_purity_holds_on_hyperplane_models(forms):
    report, code = execute(parse(hyperplane_document(forms)))
    assert code == EXIT_OK
    assert {"check": "weight_purity", "ok": True} in report["verdicts"]


def test_zero_differential_fails_weight_purity(monkeypatch):
    monkeypatch.setattr(cli, "build_differential_ncd", lambda model, page: {})
    report, code = execute(parse(hyperplane_document(coordinate_forms(2))))
    assert code == EXIT_MISMATCH
    assert "weight_purity" in failed_verdicts(report)


@pytest.mark.parametrize("forms", criterion_10_hyperplane_forms(),
                         ids=["coordinate_P1", "coordinate_P2",
                              "coordinate_P3", "coordinate_P4",
                              "generic_4_P3", "generic_5_P3", "generic_6_P3"])
def test_explicit_report_has_no_skew_rows(forms):
    # the skew-row homology is the weight table by construction, so it is
    # neither a report section nor a verdict
    report, code = execute(parse(hyperplane_document(forms)))
    assert code == EXIT_OK and report["mode"] == "explicit"
    assert "skew_rows" not in report
    assert "skew_row_weights" not in {v["check"] for v in report["verdicts"]}


F_P1_4 = {"schema_version": 1,
          "model": {"kind": "configuration", "factor": [1], "points": 4}}


@pytest.mark.parametrize("doc, mode", [
    (CONFIG_P1_3, "explicit"), (CONFIG_P1_3, "bounds"),
    (F_P1_4, "feasibility"), (F_P1_4, "bounds")])
def test_euler_oracle_verdict_in_every_mode(tmp_path, monkeypatch, doc, mode):
    monkeypatch.chdir(tmp_path)
    report, code = execute(parse(doc, command="verify",
                                 overrides={"mode": mode, "cache": False}))
    assert code == EXIT_OK
    assert {"check": "euler_oracle", "ok": True} in report["verdicts"]


def test_euler_oracle_is_for_configuration_models_only():
    report, code = execute(parse(hyperplane_document(coordinate_forms(2))))
    assert code == EXIT_OK
    assert "euler_oracle" not in {v["check"] for v in report["verdicts"]}


def tamper_top_stalk(monkeypatch):
    """Make ``cli.stalk_tables`` add 1 to the top stalk dimension of the
    deepest flat.  The pointwise check reads its multiplicities from the
    same tables, so it still passes."""
    real = cli.stalk_tables

    def tampered(model):
        tables = real(model)
        deepest = max(model.poset.flats, key=lambda f: f.codim).index
        dims = tables[deepest].dims
        dims[max(dims)] += 1
        return tables

    monkeypatch.setattr(cli, "stalk_tables", tampered)


def test_euler_oracle_alone_fails_on_a_tampered_stalk(tmp_path, monkeypatch,
                                                      capsys):
    monkeypatch.chdir(tmp_path)
    tamper_top_stalk(monkeypatch)
    code = main(["verify", write_job(tmp_path, F_P1_4), "--mode", "bounds",
                 "--format", "machine", "--no-cache"])
    report = json.loads(capsys.readouterr().out)
    assert code == EXIT_MISMATCH
    assert failed_verdicts(report) == ["euler_oracle"]
    assert report["e2"]["euler"] == -2      # chi(F(P^1, 4)) = 0


def test_extra_small_diagonal_copy_is_a_named_error(tmp_path, monkeypatch,
                                                    capsys):
    # the tampered F(P^1, 3) table gives the small diagonal three copies;
    # the three-point differential has coefficients for two
    monkeypatch.chdir(tmp_path)
    tamper_top_stalk(monkeypatch)
    code = main(["verify", write_job(tmp_path, CONFIG_P1_3), "--no-cache"])
    err = capsys.readouterr().err
    assert code == EXIT_INPUT
    assert err.startswith("error: cell (0, 2) has copy 2 of the small "
                          "diagonal")


def test_weight_purity_is_for_hyperplane_models_only(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    report, code = execute(parse(CONFIG_P1_3))
    assert code == EXIT_OK
    assert "weight_purity" not in {v["check"] for v in report["verdicts"]}


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


def test_abstract_export_lists_exactly_the_covers(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    coordinate_p3 = {"schema_version": 1, "model": {
        "kind": "hyperplane",
        "forms": [[1 if j == i else 0 for j in range(4)] for i in range(4)]}}
    for doc in (BOOLEAN_P2, CONFIG_P1_3, coordinate_p3):
        job = parse(doc)
        poset = build_model(job).poset
        report, _ = execute(job)
        exported = report["abstract_model"]["poset"]
        index = {fl["key"]: int(fl["key"][1:]) for fl in exported["flats"]}
        pairs = {(index[a], index[b]) for a, b in exported["order"]}
        proper = [f.index for f in poset.proper_flats()]
        below = {(i, j) for i in proper for j in proper
                 if i != j and poset.le(i, j)}
        covers = {(i, j) for i, j in below
                  if not any((i, k) in below and (k, j) in below
                             for k in proper)}
        assert pairs == covers
        assert len(exported["order"]) == len(pairs)
        again = IntersectionPoset.from_abstract(
            [(fl["key"], fl["codim"]) for fl in exported["flats"]],
            exported["order"], codim_c=poset.codim_c)
        key_of = {f.index: f.key[1] for f in again.flats if f.index}
        again_below = {(index[key_of[i]], index[key_of[j]])
                       for i in key_of for j in key_of
                       if i != j and again.le(i, j)}
        assert again_below == below


def test_cached_table_off_the_vanishing_degrees_fails_purity(tmp_path,
                                                             monkeypatch):
    monkeypatch.chdir(tmp_path)
    doc = {"schema_version": 1,
           "model": {"kind": "configuration", "factor": [2], "points": 2}}
    _, code = execute(parse(doc, command="stalks"))
    assert code == EXIT_OK
    [path] = (tmp_path / ".arrange-cache").glob("*.json")
    payload = json.loads(path.read_text())
    assert "forms" not in payload["poset"]
    assert all(set(item) == {"flat", "dims"} for item in payload["stalks"])
    # c = 2: stalks may only live in degrees divisible by 2c - 1 = 3
    payload["stalks"][0]["dims"]["2"] = 1
    path.write_text(json.dumps(payload))
    report, code = execute(parse(doc, command="verify"))
    assert code == EXIT_MISMATCH
    assert {"check": "vanishing_and_purity", "ok": False} in report["verdicts"]
    assert {"flat": payload["stalks"][0]["flat"], "degree": 2,
            "reason": "vanishing"} in report["purity"]["violations"]


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


@pytest.mark.parametrize("fmt", ["human", "machine"])
def test_infeasible_target_reports_failed_verdict(tmp_path, monkeypatch,
                                                  capsys, fmt):
    monkeypatch.chdir(tmp_path)
    path = write_job(tmp_path, CONFIG_P1_3)
    assert main(["verify", path, "--mode", "feasibility", "--target",
                 "1,0,0,2", "--no-cache", "--format", fmt]) == EXIT_INFEASIBLE
    out = capsys.readouterr().out
    if fmt == "human":
        assert out.rstrip().endswith("FAILED ['feasibility']")
    else:
        assert {"check": "feasibility", "ok": False} in \
            json.loads(out)["verdicts"]


@pytest.mark.parametrize("fmt", ["human", "machine"])
def test_search_over_budget_reports_undecided(tmp_path, monkeypatch, capsys,
                                              fmt):
    # F(P^1,3) with its closed-form target needs 7 splits
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(spectral, "FEASIBILITY_BUDGET", 3)
    path = write_job(tmp_path, CONFIG_P1_3)
    assert main(["verify", path, "--mode", "feasibility", "--target",
                 "1,0,0,1", "--no-cache", "--format", fmt]) == EXIT_MISMATCH
    out = capsys.readouterr().out
    if fmt == "human":
        assert "feasibility: UNDECIDED after 3 splits\n" in out
        assert "INFEASIBLE" not in out
        assert out.rstrip().endswith("FAILED ['feasibility']")
    else:
        report = json.loads(out)
        assert '"feasible": null' in out
        assert report["feasibility"]["undecided"] is True
        assert report["feasibility"]["splits"] == 3
        assert {"check": "feasibility", "ok": False} in report["verdicts"]


def test_decided_search_adds_no_report_key(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    path = write_job(tmp_path, CONFIG_P1_3)
    assert main(["verify", path, "--mode", "feasibility", "--target",
                 "1,0,0,1", "--no-cache", "--format", "machine"]) == EXIT_OK
    section = json.loads(capsys.readouterr().out)["feasibility"]
    assert set(section) == {"bounds", "euler", "feasible", "ranks", "target",
                            "unique"}


def _set_down_bit_40(poset):
    poset["down"][1] = str(int(poset["down"][1]) | 1 << 40)


@pytest.mark.parametrize("damage", [
    _set_down_bit_40,
    lambda poset: poset["down"].__setitem__(1, "x"),
    lambda poset: poset["members"][0].update(atom="1"),
], ids=["down_bit_past_end", "down_not_a_number", "atom_string"])
def test_damaged_cached_poset_is_recomputed(tmp_path, monkeypatch, capsys,
                                            damage):
    monkeypatch.chdir(tmp_path)
    path = write_job(tmp_path, CONFIG_P1_3)
    assert main(["stalks", path, "--format", "machine", "--no-cache"]) == EXIT_OK
    fresh = capsys.readouterr().out
    assert main(["stalks", path, "--format", "machine"]) == EXIT_OK
    capsys.readouterr()
    (entry,) = (tmp_path / ".arrange-cache").iterdir()
    payload = json.loads(entry.read_text())
    damage(payload["poset"])
    entry.write_text(json.dumps(payload))
    assert main(["stalks", path, "--format", "machine"]) == EXIT_OK
    assert capsys.readouterr().out == fresh


def test_configuration_size_guard_refuses_before_the_build(tmp_path,
                                                           monkeypatch,
                                                           capsys):
    def no_build(*args, **kwargs):
        raise AssertionError("partition lattice built")

    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(IntersectionPoset, "partition_lattice", no_build)
    doc = json.loads(json.dumps(CONFIG_P1_3))
    doc["model"]["points"] = 30
    assert main(["verify", write_job(tmp_path, doc)]) == EXIT_INPUT
    err = capsys.readouterr().err
    assert "Bell(30) = 846,749,014,511,809,332,450,147 flats" in err
    doc["model"]["points"] = 9          # Bell(9) = 21,147 stays allowed
    assert parse(doc).model["points"] == 9


def test_hyperplane_size_guard_refuses_before_the_build(tmp_path,
                                                        monkeypatch, capsys):
    def no_build(*args, **kwargs):
        raise AssertionError("linear poset built")

    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(IntersectionPoset, "from_linear_systems", no_build)
    doc = hyperplane_document(coordinate_forms(20))
    assert main(["verify", write_job(tmp_path, doc)]) == EXIT_INPUT
    err = capsys.readouterr().err
    assert "sum_(k<=20) C(21, k) = 2,097,151 flats" in err
    assert "Traceback" not in err


def braid_document(n):
    doc = hyperplane_document(
        [([int(k == i) - int(k == j) for k in range(n)], 0)
         for i in range(n) for j in range(i + 1, n)])
    doc["model"]["mode"] = "central"
    return doc


def test_hyperplane_size_guard_passes_the_benchmark_sizes():
    # flat bounds 2,047, 4,944, 82,160 and 299, all under MAX_FLATS: the
    # braid forms have rank n - 1, one less than their length
    generic = random_generic_projective_forms(random.Random(7), 12, 3)
    for doc in (hyperplane_document(coordinate_forms(10)), braid_document(6),
                braid_document(7), hyperplane_document(generic)):
        assert parse(doc).model is doc["model"]


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


def run_job(tmp_path, doc):
    """``arrange run`` on ``doc`` in a child interpreter run in tmp_path."""
    path = write_job(tmp_path, doc)
    return run_child(tmp_path, "-m", "arrange.cli", "run", path, "--no-cache")


def test_console_entry_point(tmp_path):
    proc = run_job(tmp_path, CONFIG_P1_3)
    assert proc.returncode == 0, proc.stderr
    assert "1 + t^3" in proc.stdout


def run_tracer(tmp_path, doc):
    tracer = Path(__file__).resolve().parent.parent / "benchmark" / "tracer.py"
    spans = tmp_path / "spans.json"
    proc = run_child(tmp_path, str(tracer), str(spans), "verify",
                     write_job(tmp_path, doc), "--format", "machine",
                     "--no-cache")
    assert proc.returncode == 0, proc.stderr
    trace = json.loads(spans.read_text())
    return {span[0] for span in trace["spans"]}, trace["counts"]


@pytest.mark.parametrize("doc, spans, counter", [
    (CONFIG_P1_3, {"stalks.tables", "spectral.differential", "spectral.run"},
     "stalks.content_key_calls"),
    (hyperplane_document(coordinate_forms(3)),
     {"poset.build", "linalg.rref", "stalks.tables", "spectral.run"},
     "poset.rref_calls"),
    (hyperplane_document(random_generic_projective_forms(
        random.Random(4), 5, 2)),
     {"poset.build", "spectral.differential", "projective.pushforward",
      "spectral.run", "models.oracle"}, "poset.flats"),
], ids=["configuration", "linear", "explicit_hyperplane"])
def test_benchmark_tracer_runs(tmp_path, doc, spans, counter):
    # the traced benchmark run rebinds names inside the package, among them
    # cli.skew_row_homology, which no stage calls; a rename there must fail
    # here, not only in the benchmark
    names, counts = run_tracer(tmp_path, doc)
    assert spans <= names
    assert "spectral.skew_rows" not in names
    assert counts[counter] > 0


@pytest.mark.parametrize("field, base, edit", [
    ("options", CONFIG_P1_3, lambda doc: doc.update(options=[1])),
    ("model.factor", CONFIG_P1_3,
     lambda doc: doc["model"].update(factor=["a"])),
    ("model.factor", CONFIG_P1_3,
     lambda doc: doc["model"].update(factor=[True])),
    ("model.ambient", BOOLEAN_P2,
     lambda doc: doc["model"].update(ambient="1")),
    ("model.poset.flats[0].betti", ABSTRACT_PAIR,
     lambda doc: doc["model"]["poset"]["flats"][0].update(betti=["x"])),
    ("model.poset.flats[0].codim", ABSTRACT_PAIR,
     lambda doc: doc["model"]["poset"]["flats"][0].update(codim="x")),
    ("model.poset.order[0]", ABSTRACT_PAIR,
     lambda doc: doc["model"]["poset"].update(order=[["Z1"]])),
    ("options.target", CONFIG_P1_3,
     lambda doc: doc.update(options={"target": [1.5]})),
    ("options.cache", CONFIG_P1_3,
     lambda doc: doc.update(options={"cache": "no"})),
], ids=["options_list", "factor_string", "factor_bool", "ambient_string",
        "betti_string", "codim_string", "order_single_key", "target_float",
        "cache_string"])
def test_malformed_document_exits_4_without_traceback(tmp_path, field, base,
                                                      edit):
    doc = json.loads(json.dumps(base))
    edit(doc)
    proc = run_job(tmp_path, doc)
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


def _field_paths(node, prefix=()):
    """The path of every field of a JSON document, containers included."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return []
    out = []
    for k, v in items:
        out.append(prefix + (k,))
        out.extend(_field_paths(v, prefix + (k,)))
    return out


# another JSON type, null, or a small integer: never a value that could
# start a large build
REPLACEMENTS = st.one_of(st.none(), st.integers(-2, 4), st.booleans(),
                         st.sampled_from(["", "x", "1/2", "-1"]),
                         st.sampled_from([0.5, -1.0]),
                         st.sampled_from([[], [1], ["a", "b"]]),
                         st.sampled_from([{}, {"key": 1}]))


@st.composite
def mutated_documents(draw):
    """A small valid document with one field deleted or replaced."""
    doc = copy.deepcopy(draw(st.sampled_from([BOOLEAN_P2, CONFIG_P1_3,
                                              ABSTRACT_PAIR])))
    path = draw(st.sampled_from(_field_paths(doc)))
    parent = doc
    for k in path[:-1]:
        parent = parent[k]
    if draw(st.booleans()):
        del parent[path[-1]]
    else:
        parent[path[-1]] = draw(REPLACEMENTS)
    return doc


@seed(20261018)
@settings(max_examples=200, deadline=None, database=None)
@given(doc=mutated_documents(),
       command=st.sampled_from(["verify", "run", "lattice", "stalks", "oracle"]))
def test_mutated_document_exits_cleanly(doc, command):
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "job.json")
        with open(path, "w") as fh:
            json.dump(doc, fh)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([command, path, "--no-cache"])
    assert code in (EXIT_OK, EXIT_MISMATCH, EXIT_INFEASIBLE, EXIT_INPUT), \
        (code, err.getvalue())
    assert "Traceback" not in err.getvalue()
