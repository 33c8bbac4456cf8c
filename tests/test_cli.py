import contextlib
import copy
import hashlib
import io
import json
import os
import random
import subprocess
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

import arrange.cli as cli
import arrange.poset as arrange_poset
import arrange.spectral as spectral
from arrange.cli import (EXIT_INFEASIBLE, EXIT_INPUT, EXIT_MISMATCH, EXIT_OK,
                         SchemaError, build_model, execute, main, parse,
                         render_machine)
from arrange.models import configuration_model
from arrange.polys import IntPoly
from arrange.poset import IntersectionPoset
from arrange.projective import ProjProduct
from arrange.stalks import decompose, stalk_tables
from helpers import (braid_forms, child_env, coordinate_forms,
                     criterion_10_hyperplane_forms, degree_table,
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
    assert job.mode is None and job.fmt == "human"


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


def abstract_pair_with(edit):
    doc = copy.deepcopy(ABSTRACT_PAIR)
    edit(doc["model"]["poset"])
    return doc


@pytest.mark.parametrize("edit, message", [
    (lambda poset: poset["flats"][1].update(key=True),
     "model.poset.flats[1] needs a string or integer 'key'"),
    (lambda poset: poset["order"][1].__setitem__(0, False),
     "model.poset.order[1] must be a pair of flat keys, got [False, 'T']"),
    (lambda poset: (poset["flats"][0].update(key=1),
                    poset["flats"][2].update(key="1")),
     "model.poset.flats[2].key '1' reads as the same text as "
     "model.poset.flats[0].key"),
    (lambda poset: poset["flats"][1].update(key="Z1"),
     "model.poset.flats[1].key 'Z1' reads as the same text as "
     "model.poset.flats[0].key"),
    (lambda poset: poset["flats"][1].update(key="bottom"),
     "model.poset.flats[1].key 'bottom' is reserved for the ambient space"),
    (lambda poset: poset["order"][1].__setitem__(0, "Z3"),
     "model.poset.order[1] names 'Z3', which is no model.poset.flats[].key"),
    (lambda poset: poset["order"][0].__setitem__(1, 2),
     "model.poset.order[0] names 2, which is no model.poset.flats[].key")],
    ids=["boolean_key", "boolean_order_entry", "int_and_text_key",
         "repeated_key", "bottom_key", "undeclared_order_key",
         "undeclared_integer_order_key"])
def test_parse_refuses_abstract_keys_by_field(edit, message, tmp_path,
                                              monkeypatch, capsys):
    # a boolean is an int to isinstance, and a flat is named by its key
    # read as text, so both are refused where the document is read
    monkeypatch.chdir(tmp_path)
    doc = abstract_pair_with(edit)
    assert main(["verify", write_job(tmp_path, doc)]) == EXIT_INPUT
    assert capsys.readouterr() == ("", f"error: {message}\n")


def test_parse_keeps_integer_keys(tmp_path, monkeypatch):
    # integer keys that read as distinct text still run, named as text
    monkeypatch.chdir(tmp_path)
    doc = abstract_pair_with(lambda poset: (
        poset["flats"][0].update(key=1), poset["flats"][1].update(key=2),
        poset.update(order=[[1, "T"], [2, "T"]])))
    report, code = execute(parse(doc))
    assert code == EXIT_OK
    assert report["poset"]["flats"]["display"] == ["ambient", "1", "2", "T"]


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


def test_lattice_and_oracle_of_300_points_of_p1():
    # a wide lattice: the bottom and one flat per point, each with mu = -1,
    # and P^1 minus 300 points has Poincare polynomial 1 + 299t
    doc = hyperplane_document([([1, -k], 0) for k in range(300)])
    report, code = execute(parse(doc, command="lattice"))
    assert code == EXIT_OK
    flats = report["poset"]["flats"]
    assert report["poset"]["flat_count"] == 301
    assert flats["codim"] == [0] + [1] * 300
    assert flats["mu"] == [1] + [-1] * 300
    report, code = execute(parse(doc, command="oracle"))
    assert code == EXIT_OK
    assert report["oracle"]["poly"] == [1, 299]
    assert report["oracle"]["text"] == "1 + 299t"


def test_execute_configuration_f_p1_3(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    report, code = execute(parse(CONFIG_P1_3))
    assert code == EXIT_OK
    assert report["betti"] == [1, 0, 0, 1]


def test_verify_configuration_with_a_point_factor(tmp_path, monkeypatch):
    # P^1 x P^0 is P^1, so F(P^1 x P^0, 3) is F(P^1, 3); its explicit run
    # pushes forward along inclusions that pull each point factor to zero
    monkeypatch.chdir(tmp_path)
    doc = copy.deepcopy(CONFIG_P1_3)
    doc["model"]["factor"] = [1, 0]
    report, code = execute(parse(doc, command="verify"))
    expected, _ = execute(parse(CONFIG_P1_3, command="verify"))
    assert code == EXIT_OK and report["mode"] == "explicit"
    assert report["betti"] == expected["betti"] == [1, 0, 0, 1]
    assert report["weight_table"] == expected["weight_table"] == [
        {"k": 0, "w": 0, "dim": 1}, {"k": 3, "w": 4, "dim": 1}]


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


def tamper_top_stalk(monkeypatch, by=1):
    """Make ``cli.stalk_tables`` add ``by`` to the top stalk dimension of
    the deepest flat.  The pointwise check reads its multiplicities from
    the same tables, so it still passes."""
    real = cli.stalk_tables

    def tampered(model):
        tables = real(model)
        deepest = max(model.poset.flats, key=lambda f: f.codim).index
        dims = tables[deepest]
        dims[max(dims)] += by
        return tables

    monkeypatch.setattr(cli, "stalk_tables", tampered)


def test_euler_oracle_alone_fails_on_a_tampered_stalk(tmp_path, monkeypatch,
                                                      capsys):
    monkeypatch.chdir(tmp_path)
    tamper_top_stalk(monkeypatch)
    path = write_job(tmp_path, F_P1_4)
    code = main(["verify", path, "--mode", "bounds", "--format", "machine",
                 "--no-cache"])
    report = json.loads(capsys.readouterr().out)
    assert code == EXIT_MISMATCH
    assert failed_verdicts(report) == ["euler_oracle"]
    assert report["e2"]["euler"] == -2      # chi(F(P^1, 4)) = 0
    # the failed verdict says what it compared, in both reports
    assert {"check": "euler_oracle", "ok": False, "expected": 0,
            "page": -2} in report["verdicts"]
    assert main(["verify", path, "--mode", "bounds", "--no-cache"]) \
        == EXIT_MISMATCH
    human = capsys.readouterr().out
    assert "verdicts: FAILED ['euler_oracle']\n" \
           "  euler_oracle: expected 0, page -2\n" in human


@pytest.mark.parametrize("by, copies", [(1, 3), (-1, 1)],
                         ids=["extra", "missing"])
def test_small_diagonal_copies_are_its_nbc_sets(by, copies, monkeypatch):
    # the tampered F(P^1, 3) table gives the small diagonal three copies,
    # or one; the matroid gives it two nbc sets, (D12, D13) and (D12, D23)
    tamper_top_stalk(monkeypatch, by)
    model = build_model(parse(CONFIG_P1_3))
    small = max(model.poset.flats, key=lambda f: f.codim).index
    page = spectral.assemble_e2(
        model, cli.decompose(model, tables=cli.stalk_tables(model)))
    with pytest.raises(spectral.MalformedCell,
                       match=rf"^cell \(0, 2\) has {copies} copies of flat "
                             rf"{small}, which has 2 nbc sets$"):
        spectral.build_differential(model, page)


def test_extra_small_diagonal_copy_is_a_named_error(tmp_path, monkeypatch,
                                                    capsys):
    # the tampered F(P^1, 3) table gives the small diagonal three copies;
    # it has two nbc sets
    monkeypatch.chdir(tmp_path)
    tamper_top_stalk(monkeypatch)
    # through the command line the failed Euler verdict ends the run with
    # its report before the differential is built
    code = main(["verify", write_job(tmp_path, CONFIG_P1_3), "--no-cache",
                 "--format", "machine"])
    out, err = capsys.readouterr()
    assert code == EXIT_MISMATCH and "error:" not in err
    report = json.loads(out)
    assert failed_verdicts(report) == ["euler_oracle"]
    assert "e2" in report and "differential_ranks" not in report
    # built on the tampered page directly, the differential names the cell
    model = build_model(parse(CONFIG_P1_3))
    dec = cli.decompose(model, tables=cli.stalk_tables(model))
    page = spectral.assemble_e2(model, dec)
    with pytest.raises(spectral.MalformedCell,
                       match=r"^cell \(0, 2\) has 3 copies of flat \d+, "
                             r"which has 2 nbc sets$"):
        spectral.build_differential(model, page)


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
    doc["local_system"] = {"exponents": ["1/5", "1/5", "3/5"]}
    report, code = execute(parse(doc))
    assert code == EXIT_OK
    assert report["mon"]["ok"] is True
    doc["local_system"] = {"exponents": ["1/2", "1/2", "0"]}
    report, _ = execute(parse(doc))
    assert report["mon"]["ok"] is False


def test_local_system_exists_only_where_h1_allows(tmp_path, monkeypatch):
    # three coordinate lines in P^2: U = (C^*)^2 and H_1(U) = Z^3 / (1, 1, 1),
    # so the exponents must sum to an integer; central and affine models
    # have free H_1 and no such condition.  Configuration and abstract
    # models are refused outright (test_malformed_document_exits_4_...)
    monkeypatch.chdir(tmp_path)
    doc = json.loads(json.dumps(BOOLEAN_P2))
    doc["local_system"] = {"exponents": ["1/5", "1/5", "1/5"]}
    with pytest.raises(SchemaError, match=r"local_system\.exponents sum to "
                                          r"3/5, not an integer"):
        parse(doc)
    doc["local_system"] = {"exponents": ["1/5", "1/5", "8/5"]}
    assert parse(doc).local_system == [Fraction(1, 5), Fraction(1, 5),
                                       Fraction(8, 5)]
    doc["model"]["mode"] = "central"
    doc["local_system"] = {"exponents": ["1/5", "1/5", "1/5"]}
    report, code = execute(parse(doc))
    assert code == EXIT_OK and report["mon"]["ok"] is True


def machine_text(report):
    """The machine report as ``render_machine`` writes it."""
    out = io.StringIO()
    render_machine(report, out)
    return out.getvalue()


def test_machine_report_deterministic(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    report1, _ = execute(parse(BOOLEAN_P2, command="verify"))
    report2, _ = execute(parse(BOOLEAN_P2, command="verify"))
    assert machine_text(report1) == machine_text(report2)
    # --no-cache and options.cache are accepted and change no byte
    doc = json.loads(json.dumps(BOOLEAN_P2))
    doc["options"] = {"cache": False}
    outputs = []
    for path, flags in [(write_job(tmp_path, BOOLEAN_P2), []),
                        (write_job(tmp_path, BOOLEAN_P2), ["--no-cache"]),
                        (write_job(tmp_path, doc, "off.json"), [])]:
        assert main(["verify", path, "--format", "machine", *flags]) == EXIT_OK
        outputs.append(capsys.readouterr())
    assert outputs[0].out == machine_text(report1)
    assert outputs[1] == outputs[0] and outputs[2] == outputs[0]
    assert not (tmp_path / ".arrange-cache").exists()


def compact_dumps(value):
    return json.dumps(value, sort_keys=True, separators=(",", ":")) + "\n"


def longest_list(value):
    """The length of the longest list or tuple anywhere in ``value``."""
    if isinstance(value, dict):
        return max(map(longest_list, value.values()), default=0)
    if isinstance(value, (list, tuple)):
        return max([len(value), *map(longest_list, value)])
    return 0


F_P1_6 = {"schema_version": 1,
          "model": {"kind": "configuration", "factor": [1], "points": 6}}


def test_streamed_report_equals_json_dumps(tmp_path, monkeypatch):
    # compact json.dumps of the whole report is the oracle for the batched
    # writes: F(P^1,6)'s 841 cover pairs are written in two slices, the
    # Boolean arrangement's report has no list longer than one batch
    monkeypatch.chdir(tmp_path)
    reports = [execute(parse(doc, command="verify"))[0]
               for doc in (F_P1_6, BOOLEAN_P2)]
    assert len(reports[0]["abstract_model"]["poset"]["order"]) > cli._BATCH
    assert longest_list(reports[1]) <= cli._BATCH
    # and the edges of the walk: empty containers, a list of exactly one
    # batch, one item past it, tuples, dicts inside sliced lists, lists
    # of lists, escapes and non-ASCII text
    n = cli._BATCH
    edges = {"": {}, "a": [], "b": list(range(n)), "c": list(range(n + 1)),
             "d": tuple(range(2 * n + 3)), "e": [{"z": i, "y": [i, {}]}
                                              for i in range(n + 2)],
             "f": {"\u00e9\n\"": [[i] * 2 for i in range(3 * n)]},
             "g": [None, True, False, -1, "x"], "h": {"k": {"l": [[]]}}}
    for value in (*reports, edges):
        assert machine_text(value) == compact_dumps(value)


def test_no_encoder_call_gets_a_list_longer_than_a_batch(tmp_path,
                                                         monkeypatch):
    monkeypatch.chdir(tmp_path)
    report = execute(parse(F_P1_6, command="verify"))[0]
    longest = []
    real = cli._ENCODE

    def encode(value):
        longest.append(longest_list(value))
        return real(value)

    monkeypatch.setattr(cli, "_ENCODE", encode)
    assert machine_text(report) == compact_dumps(report)
    # the first slice of the cover pairs is one full batch
    assert max(longest) == cli._BATCH


def test_report_sections_share_values(tmp_path, monkeypatch):
    # flats with equal stalks share one list, and the exported order
    # reuses the flats' key objects
    monkeypatch.chdir(tmp_path)
    report = execute(parse(F_P1_6, command="verify"))[0]
    stalks = report["stalks"]
    assert all(isinstance(levels, list) for levels in stalks)
    distinct = {json.dumps(levels) for levels in stalks}
    assert len(distinct) < len(stalks)
    assert len({id(levels) for levels in stalks}) == len(distinct)
    export = report["abstract_model"]["poset"]
    keys = {id(fl["key"]) for fl in export["flats"]}
    assert {id(k) for pair in export["order"] for k in pair} <= keys


CONFIG_P2_3 = {"schema_version": 1,
               "model": {"kind": "configuration", "factor": [2], "points": 3}}


@pytest.mark.parametrize("doc", [BOOLEAN_P2, F_P1_6, CONFIG_P2_3],
                         ids=["boolean_P2", "F(P1,6)", "F(P2,3)"])
def test_per_flat_sections_are_columns_by_flat_id(doc, tmp_path,
                                                  monkeypatch):
    # entry i of every poset.flats column and of stalks is flat i; a stalk
    # list holds degree (2c-1)*l at index l; the decomposition columns are
    # the summands in order
    monkeypatch.chdir(tmp_path)
    job = parse(doc, command="verify")
    model = build_model(job)
    report = json.loads(machine_text(execute(job)[0]))
    ps = report["poset"]
    assert set(ps["flats"]) == {"codim", "display", "members", "mu"}
    assert {len(col) for col in ps["flats"].values()} == {ps["flat_count"]}
    assert ps["flats"]["codim"] == [f.codim for f in model.poset.flats]
    step = 2 * model.c - 1
    tables = stalk_tables(model)
    assert len(report["stalks"]) == ps["flat_count"]
    for i, levels in enumerate(report["stalks"]):
        dims = degree_table(model.c, tables[i])
        assert all(k % step == 0 for k in dims)
        assert levels == [dims.get(step * l, 0)
                          for l in range(max(dims) // step + 1)]
    columns = report["decomposition"]
    assert list(zip(columns["support"], columns["level"],
                    columns["multiplicity"])) == [
        (s.support, s.level, s.multiplicity)
        for s in decompose(model, stalk_tables(model))]


def string_counts(value, counts):
    if isinstance(value, dict):
        for v in value.values():
            string_counts(v, counts)
    elif isinstance(value, list):
        for v in value:
            string_counts(v, counts)
    elif isinstance(value, str):
        counts[value] = counts.get(value, 0) + 1
    return counts


def test_each_display_appears_once_in_a_machine_report(tmp_path,
                                                       monkeypatch):
    # the poset section is the one home of flat and member displays: other
    # sections name a flat by its id and a member by its index
    monkeypatch.chdir(tmp_path)
    for doc in (F_P1_6, BOOLEAN_P2, CONFIG_P1_3):
        job = parse(doc, command="verify")
        poset = build_model(job).poset
        report = json.loads(machine_text(execute(job)[0]))
        assert set(report["decomposition"]) == {
            "support", "level", "multiplicity"}
        counts = string_counts(report, {})
        displays = [f.display for f in poset.flats]
        members = [m.display for m in poset.members]
        assert {counts.get(d) for d in displays + members} == {1}
        assert report["poset"]["members"] == members
        assert report["poset"]["flats"]["display"] == displays
        assert report["poset"]["flats"]["members"] == [
            [i for i in range(len(members)) if poset.member_mask(f) >> i & 1]
            for f in range(len(displays))]


def test_human_weights_are_the_stalk_tables_weights(tmp_path, monkeypatch):
    # every weight the human report prints follows the closed rule, written
    # out here: degree (2c-1)*l has weight 2c*l, with l the level of a stalk
    # degree or a summand's level column; the degrees, dims and summands
    # read back are the ones the stalk tables and the split make
    monkeypatch.chdir(tmp_path)
    for doc, c in ((CONFIG_P1_3, 1), (BOOLEAN_P2, 1),
                   (configuration_document([2], 3), 2),
                   (configuration_document([1, 1], 2), 2)):
        job = parse(doc, command="verify")
        model = build_model(job)
        assert model.c == c
        display = {f.display: f.index for f in model.poset.flats}
        lines = cli.render_human(execute(job)[0]).splitlines()
        start = lines.index("stalk tables (degree: dim, weight):")
        end = lines.index("constant-sheaf decomposition (level 0 implicit):")
        dims = {}
        for line in lines[start + 1:end]:
            name, rest = line.strip().split(" (codim ")
            dims[display[name]] = {}
            for piece in rest.split("): ")[1].split("; "):
                k, dim_w = piece.split(": ")
                dim, w = dim_w.split(", w")
                level, off = divmod(int(k), 2 * c - 1)
                assert off == 0 and int(w) == 2 * c * level, line
                dims[display[name]][int(k)] = int(dim)
        tables = stalk_tables(model)
        assert dims == {i: degree_table(c, t) for i, t in tables.items()}
        stop = lines.index("pointwise check: ok")
        rows = [(display[name], *map(int, rest)) for name, *rest in
                (line.split() for line in lines[end + 2:stop])]
        assert rows
        for _, level, degree, _, weight in rows:
            assert degree == (2 * c - 1) * level and weight == 2 * c * level
        assert [(flat, level, mult) for flat, level, _, mult, _ in rows] == [
            (s.support, s.level, s.multiplicity)
            for s in decompose(model, tables)]


# the human `verify` reports of F(P^1,3) and coordinate P^2
F_P1_3_VERIFY = (
    "arrange verify\n"
    "poset: 5 flats, 3 members, mode=partition, ambient dim 3, c=1\n"
    "  id  flat   codim  mu  members    \n"
    "  0   1|2|3  0      1              \n"
    "  1   1|23   1      -1  D23        \n"
    "  2   12|3   1      -1  D12        \n"
    "  3   13|2   1      -1  D13        \n"
    "  4   123    2      2   D12,D13,D23\n"
    "admissible: yes\n"
    "stalk tables (degree: dim, weight):\n"
    "  1|2|3 (codim 0): 0: 1, w0\n"
    "  1|23 (codim 1): 0: 1, w0; 1: 1, w2\n"
    "  12|3 (codim 1): 0: 1, w0; 1: 1, w2\n"
    "  13|2 (codim 1): 0: 1, w0; 1: 1, w2\n"
    "  123 (codim 2): 0: 1, w0; 1: 3, w2; 2: 2, w4\n"
    "constant-sheaf decomposition (level 0 implicit):\n"
    "  support  level  degree  mult  weight\n"
    "  1|23     1      1       1     2     \n"
    "  12|3     1      1       1     2     \n"
    "  13|2     1      1       1     2     \n"
    "  123      2      2       2     4     \n"
    "pointwise check: ok\n"
    "second page (entries dim(w=weight), euler = 0):\n"
    "q=2  2(w4)  .    2(w6)  .    .      .    .\n"
    "q=1  3(w2)  .    6(w4)  .    3(w6)  .    .\n"
    "q=0  1(w0)  .    3(w2)  .    3(w4)  .    1(w6)\n"
    "     p=0    p=1  p=2    p=3  p=4    p=5  p=6\n"
    "mode: explicit\n"
    "differential ranks: (0,1)->3, (0,2)->2, (2,1)->3, (2,2)->2, (4,1)->1\n"
    "limit page (entries dim(w=weight), euler = 0):\n"
    "q=1  .      .    1(w4)\n"
    "q=0  1(w0)  .    .\n"
    "     p=0    p=1  p=2\n"
    "betti: 1 + t^3   euler: 0\n"
    "weight-graded pieces:\n"
    "  k  weight  dim\n"
    "  0  0       1  \n"
    "  3  4       1  \n"
    "verdicts: all ok\n"
)

COORDINATE_P2_VERIFY = (
    "arrange verify\n"
    "poset: 7 flats, 3 members, mode=projective, ambient dim 2, c=1\n"
    "  id  flat     codim  mu  members\n"
    "  0   ambient  0      1          \n"
    "  1   F1       1      -1  Z1     \n"
    "  2   F2       1      -1  Z2     \n"
    "  3   F3       1      -1  Z3     \n"
    "  4   F4       2      1   Z1,Z2  \n"
    "  5   F5       2      1   Z1,Z3  \n"
    "  6   F6       2      1   Z2,Z3  \n"
    "admissible: yes\n"
    "normal crossings: yes\n"
    "stalk tables (degree: dim, weight):\n"
    "  ambient (codim 0): 0: 1, w0\n"
    "  F1 (codim 1): 0: 1, w0; 1: 1, w2\n"
    "  F2 (codim 1): 0: 1, w0; 1: 1, w2\n"
    "  F3 (codim 1): 0: 1, w0; 1: 1, w2\n"
    "  F4 (codim 2): 0: 1, w0; 1: 2, w2; 2: 1, w4\n"
    "  F5 (codim 2): 0: 1, w0; 1: 2, w2; 2: 1, w4\n"
    "  F6 (codim 2): 0: 1, w0; 1: 2, w2; 2: 1, w4\n"
    "constant-sheaf decomposition (level 0 implicit):\n"
    "  support  level  degree  mult  weight\n"
    "  F1       1      1       1     2     \n"
    "  F2       1      1       1     2     \n"
    "  F3       1      1       1     2     \n"
    "  F4       2      2       1     4     \n"
    "  F5       2      2       1     4     \n"
    "  F6       2      2       1     4     \n"
    "pointwise check: ok\n"
    "second page (entries dim(w=weight), euler = 0):\n"
    "q=2  3(w4)  .    .      .    .\n"
    "q=1  3(w2)  .    3(w4)  .    .\n"
    "q=0  1(w0)  .    1(w2)  .    1(w4)\n"
    "     p=0    p=1  p=2    p=3  p=4\n"
    "mode: explicit\n"
    "differential ranks: (0,1)->1, (0,2)->2, (2,1)->1\n"
    "limit page (entries dim(w=weight), euler = 0):\n"
    "q=2  1(w4)\n"
    "q=1  2(w2)\n"
    "q=0  1(w0)\n"
    "     p=0\n"
    "betti: 1 + 2t + t^2   euler: 0\n"
    "weight-graded pieces:\n"
    "  k  weight  dim\n"
    "  0  0       1  \n"
    "  1  2       2  \n"
    "  2  4       1  \n"
    "oracle: 1 + 2t + t^2   MATCH\n"
    "verdicts: all ok\n"
)


def test_human_verify_report_is_pinned(tmp_path, monkeypatch):
    # literal texts, trailing table padding included
    monkeypatch.chdir(tmp_path)
    for doc, text in ((CONFIG_P1_3, F_P1_3_VERIFY),
                      (BOOLEAN_P2, COORDINATE_P2_VERIFY)):
        report, code = execute(parse(doc, command="verify"))
        assert code == EXIT_OK
        assert cli.render_human(report) == text


def test_closed_stdout_pipe_keeps_the_exit_code(tmp_path, monkeypatch):
    # the reader stops after 10 bytes of a report that overfills the pipe:
    # the job still exits with its own code and writes nothing to stderr
    monkeypatch.chdir(tmp_path)
    doc = hyperplane_document(coordinate_forms(10))
    assert len(machine_text(execute(parse(doc, command="verify"))[0])) > 3 * 2**16
    proc = subprocess.Popen(
        [sys.executable, "-m", "arrange.cli", "verify", write_job(tmp_path, doc),
         "--format", "machine"],
        cwd=tmp_path, env=child_env(), stdout=subprocess.PIPE,
        stderr=subprocess.PIPE)
    head = proc.stdout.read(10)
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=120) == EXIT_OK
    assert head == b'{"abstract'
    assert err == b""


def test_round_trip_abstract_reproduces_page(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    for doc in (BOOLEAN_P2, CONFIG_P1_3,
                {"schema_version": 1,
                 "model": {"kind": "configuration", "factor": [2],
                           "points": 2}}):
        job = parse(doc)
        poset = build_model(job).poset
        report, _ = execute(job)
        # the block names each flat by its poset id, and nothing else
        exported = report["abstract_model"]["poset"]
        assert [fl["key"] for fl in exported["flats"]] == [
            f.index for f in poset.proper_flats()]
        doc2 = {"schema_version": 1, "model": report["abstract_model"]}
        report2, code2 = execute(parse(doc2))
        assert code2 == EXIT_OK
        cells1 = {(c["p"], c["q"]): (c["dim"], c["weight"])
                  for c in report["e2"]["cells"]}
        cells2 = {(c["p"], c["q"]): (c["dim"], c["weight"])
                  for c in report2["e2"]["cells"]}
        assert cells1 == cells2


def test_abstract_export_keeps_ambient_dim(tmp_path, monkeypatch):
    # an abstract model's ambient dimension is the one its ambient Betti
    # list declares, not its deepest codimension, so an export fed back
    # reports its source model's
    monkeypatch.chdir(tmp_path)
    config_p2_2 = {"schema_version": 1, "model": {
        "kind": "configuration", "factor": [2], "points": 2}}
    for doc, dim in ((BOOLEAN_P2, 2), (CONFIG_P1_3, 3), (config_p2_2, 4)):
        report, _ = execute(parse(doc))
        assert report["poset"]["ambient_dim"] == dim
        doc2 = {"schema_version": 1, "model": report["abstract_model"]}
        report2, code2 = execute(parse(doc2))
        assert code2 == EXIT_OK
        assert report2["poset"]["ambient_dim"] == dim


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
        pairs = {(a, b) for a, b in exported["order"]}
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
        key_of = {f.index: int(f.key[1]) for f in again.flats if f.index}
        again_below = {(key_of[i], key_of[j])
                       for i in key_of for j in key_of
                       if i != j and again.le(i, j)}
        assert again_below == below


def test_stalk_table_off_the_vanishing_degrees_fails_pointwise(tmp_path,
                                                               monkeypatch):
    monkeypatch.chdir(tmp_path)
    doc = {"schema_version": 1,
           "model": {"kind": "configuration", "factor": [2], "points": 2}}
    _, code = execute(parse(doc, command="stalks"))
    assert code == EXIT_OK
    real = cli.stalk_tables

    def tampered(model):
        # c = 2: the ambient's stalk is the constant sheaf alone, level 0
        tables = real(model)
        tables[0][1] = 1
        return tables

    monkeypatch.setattr(cli, "stalk_tables", tampered)
    report, code = execute(parse(doc, command="verify"))
    assert code == EXIT_MISMATCH
    # no summand is supported at the bottom flat, so a level-1 entry there
    # is a pointwise mismatch, named by its degree 3 * level; there is no
    # separate vanishing verdict
    assert failed_verdicts(report) == ["pointwise_decomposition"]
    assert {"flat": 0, "degree": 3, "stalk": 1,
            "decomposition": 0} in report["pointwise"]["mismatches"]
    # the run ends before the stalks section
    assert "stalks" not in report
    for command in ("stalks", "verify"):
        report, _ = execute(parse(doc, command=command))
        assert "purity" not in report
        assert "vanishing_and_purity" not in {
            v["check"] for v in report["verdicts"]}


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
    for command in ("verify", "lattice"):
        report, code = execute(parse(doc, command=command))
        assert code == EXIT_MISMATCH
        assert report["admissible"]["ok"] is False
        assert report["verdicts"] == [{"check": "admissible", "ok": False}]
        # the violation ids resolve in the poset section
        display = report["poset"]["flats"]["display"]
        assert [display[i] for i in
                report["admissible"]["violations"]] == ["B"]
        assert "stalks" not in report
        assert "admissible: NO" in cli.render_human(report)


def test_admissibility_is_decided_once_in_the_run(tmp_path, monkeypatch):
    # one check for the verdict in execute, and the library guard in
    # stalk_tables; decompose reads the tables it is given
    monkeypatch.chdir(tmp_path)
    calls = []
    real = IntersectionPoset.check_admissible

    def counting(self):
        calls.append(1)
        return real(self)

    monkeypatch.setattr(IntersectionPoset, "check_admissible", counting)
    for doc in (BOOLEAN_P2, CONFIG_P1_3, ABSTRACT_PAIR):
        calls.clear()
        _, code = execute(parse(doc, command="verify"))
        assert code == EXIT_OK
        assert len(calls) == 2


def test_long_pencil_of_lines_verifies(tmp_path, monkeypatch):
    # 300 lines through the origin of C^2: the stalk at the origin deletes
    # 300 members in a row, past the 200-level guard on nested restrictions
    monkeypatch.chdir(tmp_path)
    doc = {"schema_version": 1,
           "model": {"kind": "hyperplane", "mode": "central",
                     "forms": [[1, k] for k in range(300)]}}
    report, code = execute(parse(doc, command="verify",
                                 overrides={"target": "oracle"}))
    assert code == EXIT_OK
    assert report["feasibility"]["target"] == [1, 300, 299]
    assert report["feasibility"]["feasible"] is True


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


@pytest.mark.parametrize("doc, target, code, betti", [
    (CONFIG_P1_3, "1,0,0,2", EXIT_INFEASIBLE, [1, 0, 0, 1]),
    (CONFIG_P1_3, "1,0,0,1", EXIT_OK, [1, 0, 0, 1]),
    (hyperplane_document(coordinate_forms(3)), "1,1", EXIT_INFEASIBLE,
     [1, 3, 3, 1]),
    (hyperplane_document(coordinate_forms(3)), "1,3,3,1", EXIT_OK,
     [1, 3, 3, 1]),
], ids=["F(P1,3)_wrong", "F(P1,3)_right", "coordinate_P3_wrong",
        "coordinate_P3_right"])
def test_explicit_mode_compares_the_target(tmp_path, monkeypatch, capsys,
                                           doc, target, code, betti):
    monkeypatch.chdir(tmp_path)
    path = write_job(tmp_path, doc)
    assert main(["verify", path, "--target", target, "--format",
                 "machine"]) == code
    report = json.loads(capsys.readouterr().out)
    assert report["mode"] == "explicit"
    assert report["betti"] == betti
    assert {"check": "target", "ok": code == EXIT_OK,
            "expected": [int(x) for x in target.split(",")],
            "betti": betti} in report["verdicts"]
    assert main(["verify", path, "--target", target]) == code
    out = capsys.readouterr().out
    assert out.count("verdicts: all ok" if code == EXIT_OK
                     else "verdicts: FAILED ['target']") == 1
    assert f"  target: expected [{target.replace(',', ', ')}], betti " in out


def test_explicit_mode_oracle_target_needs_a_hyperplane_model(
        tmp_path, monkeypatch, capsys):
    # the target is read in explicit mode too, so an 'oracle' target on a
    # model without an Orlik-Solomon oracle is an input error
    monkeypatch.chdir(tmp_path)
    path = write_job(tmp_path, CONFIG_P1_3)
    assert main(["verify", path, "--target", "oracle", "--format",
                 "machine"]) == EXIT_INPUT
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "'oracle' target needs a c = 1 hyperplane model" in captured.err


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
        assert '"feasible":null' in out
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
    """A damaged poset left where the result cache kept its entries is
    never read: every run recomputes the poset and prints the same bytes."""
    monkeypatch.chdir(tmp_path)
    path = write_job(tmp_path, CONFIG_P1_3)
    assert main(["stalks", path, "--format", "machine", "--no-cache"]) == EXIT_OK
    fresh = capsys.readouterr().out
    poset = build_model(parse(CONFIG_P1_3)).poset.to_dict()
    damage(poset)
    key = hashlib.sha256(
        json.dumps(CONFIG_P1_3["model"], sort_keys=True).encode()).hexdigest()
    (tmp_path / ".arrange-cache").mkdir()
    (tmp_path / ".arrange-cache" / f"{key}.json").write_text(
        json.dumps({"poset": poset}))
    assert main(["stalks", path, "--format", "machine"]) == EXIT_OK
    assert capsys.readouterr().out == fresh


def test_tampered_cache_entry_changes_no_byte(tmp_path, monkeypatch, capsys):
    """An old result-cache entry in the working directory, keyed as the
    cache keyed it, is never read: with the top stalk of the deepest flat
    raised by one it once turned this exit 0 into a failed verdict."""
    empty, stale = tmp_path / "empty", tmp_path / "stale"
    empty.mkdir(), stale.mkdir()
    path = write_job(tmp_path, F_P1_4)
    model = build_model(parse(F_P1_4))
    tables = cli.stalk_tables(model)
    deepest = max(model.poset.flats, key=lambda f: f.codim).index
    tables[deepest][max(tables[deepest])] += 1
    entry = json.dumps({
        "poset": model.poset.to_dict(),
        "stalks": [{"flat": i, "dims": {str(k): v for k, v in t.items()}}
                   for i, t in sorted(tables.items())]}, sort_keys=True)
    key = hashlib.sha256(
        json.dumps(F_P1_4["model"], sort_keys=True).encode()).hexdigest()
    (stale / ".arrange-cache").mkdir()
    (stale / ".arrange-cache" / f"{key}.json").write_text(entry)
    for argv in (["stalks", path], ["stalks", path, "--format", "machine"],
                 ["verify", path, "--target", "1,2,0,1,2"],
                 ["verify", path, "--target", "1,2,0,1,2", "--format",
                  "machine"]):
        results = []
        for cwd in (empty, stale):
            monkeypatch.chdir(cwd)
            results.append((main(argv), capsys.readouterr()))
        assert results[0][0] == EXIT_OK
        assert results[1] == results[0]
    assert list(empty.iterdir()) == []
    assert [p.name for p in (stale / ".arrange-cache").iterdir()] == \
        [f"{key}.json"]
    assert (stale / ".arrange-cache" / f"{key}.json").read_text() == entry


def refused_at_the_budget(tmp_path, monkeypatch, capsys, doc, what,
                          budget=1000):
    """Exit 4 through ``main``, with the budget named and no traceback."""
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(arrange_poset, "MAX_FLATS", budget)
    assert main(["verify", write_job(tmp_path, doc)]) == EXIT_INPUT
    err = capsys.readouterr().err
    assert err == (f"error: {what} has more than {budget:,} flats, the limit "
                   f"of one build (poset.MAX_FLATS)\n")


def test_configuration_build_refused_at_the_flat_budget(tmp_path, monkeypatch,
                                                        capsys):
    # F(P^1, 16) declares 2^16 classes, so parse lets it through at the
    # default budget; it has Bell(16) ~ 1e10 flats, and the growth stops
    # among the partitions of 10 points (Bell(10) = 115,975)
    refused_at_the_budget(tmp_path, monkeypatch, capsys,
                          configuration_document([1], 16),
                          "partition lattice of 16 points", budget=100_000)


def test_hyperplane_build_refused_at_the_flat_budget(tmp_path, monkeypatch,
                                                     capsys):
    # the 21 coordinate hyperplanes of P^20 have 2^21 - 1 flats
    refused_at_the_budget(
        tmp_path, monkeypatch, capsys,
        hyperplane_document(coordinate_forms(20)),
        "projective linear arrangement of 21 members")


def configuration_document(factor, points):
    return {"schema_version": 1,
            "model": {"kind": "configuration", "factor": factor,
                      "points": points}}


def oversized_abstract():
    doc = json.loads(json.dumps(ABSTRACT_PAIR))
    doc["model"]["ambient"] = [1, 0, 1000000]
    return doc


@pytest.mark.parametrize("doc, fields", [
    (configuration_document([1] * 20, 2), "model.factor and model.points"),
    (configuration_document([60], 3), "model.factor and model.points"),
    (configuration_document([1], 30), "model.factor and model.points"),
    (oversized_abstract(), "model.ambient and model.poset.flats[].betti")],
    ids=["P1_power_20_two_points", "P60_three_points", "F_P1_30",
         "abstract_ambient"])
def test_oversized_document_refused_before_any_build(doc, fields, tmp_path,
                                                     monkeypatch, capsys):
    # 2^40, 61^3, 2^30 and 1,000,002 declared classes: parse refuses each
    # before a model builder runs
    def refuse(*args, **kwargs):
        raise AssertionError("a model builder ran")

    for builder in ("hyperplane_model", "configuration_model",
                    "abstract_model"):
        monkeypatch.setattr(cli, builder, refuse)
    monkeypatch.chdir(tmp_path)
    assert main(["verify", write_job(tmp_path, doc)]) == EXIT_INPUT
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"error: {fields} declare more than 100,000 "
                            f"cohomology classes, the limit of one job "
                            f"(poset.MAX_FLATS)\n")


def test_class_budget_admits_abstract_f_p1_8_and_stops_one_past_it(
        monkeypatch):
    # F(P^1, 8) declared as an abstract model: the sum over its 4,140 set
    # partitions of 2^blocks
    model = cli._abstract_export(configuration_model(ProjProduct((1,)), 8))
    doc = {"schema_version": 1, "model": model}
    declared = sum(model["ambient"]) + sum(sum(fl["betti"])
                                           for fl in model["poset"]["flats"])
    assert declared == 89_918
    parse(doc)
    model["ambient"][0] += arrange_poset.MAX_FLATS - declared
    parse(doc)
    model["ambient"][0] += 1
    with pytest.raises(SchemaError, match=r"more than 100,000 cohomology"):
        parse(doc)
    # parse reads the budget from poset when it runs
    monkeypatch.setattr(arrange_poset, "MAX_FLATS", 200_000)
    parse(doc)


def braid_document(n):
    doc = hyperplane_document(
        [([int(k == i) - int(k == j) for k in range(n)], 0)
         for i in range(n) for j in range(i + 1, n)])
    doc["model"]["mode"] = "central"
    return doc


def test_hyperplane_size_guard_passes_the_benchmark_sizes():
    # coordinate P^10, central braids A5 to A7 and 12 generic planes in P^3
    # build within MAX_FLATS; A7 has 28 forms of rank 7 but 4,140 flats
    generic = random_generic_projective_forms(random.Random(7), 12, 3)
    for doc, flats in [(hyperplane_document(coordinate_forms(10)), 2047),
                       (braid_document(6), 203), (braid_document(7), 877),
                       (braid_document(8), 4140),
                       (hyperplane_document(generic), 299)]:
        assert len(build_model(parse(doc)).poset) == flats


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
    # the builder covers F(P^1, 4) and projective braid P^3; the mode
    # policy (model.explicit) keeps them out of explicit mode
    monkeypatch.chdir(tmp_path)
    for doc in (ABSTRACT_PAIR, F_P1_4, hyperplane_document(braid_forms(4))):
        path = write_job(tmp_path, doc)
        for command in ("run", "verify"):
            assert main([command, path, "--mode", "explicit"]) == EXIT_INPUT


def run_job(tmp_path, doc):
    """``arrange run`` on ``doc`` in a child interpreter run in tmp_path."""
    path = write_job(tmp_path, doc)
    return run_child(tmp_path, "-m", "arrange.cli", "run", path, "--no-cache")


@pytest.mark.parametrize("data", [
    b"\xff\xfe{}",
    b"[" * 200_000 + b"]" * 200_000,
], ids=["not_utf8", "nested_too_deeply"])
def test_undecodable_job_file_is_input_error(tmp_path, data):
    # a file that is not UTF-8 fails as it is read, and JSON nested past
    # the interpreter's recursion limit as it is decoded
    path = tmp_path / "job.json"
    path.write_bytes(data)
    proc = run_child(tmp_path, "-m", "arrange.cli", "verify", str(path))
    assert proc.returncode == EXIT_INPUT
    assert proc.stderr.startswith("error: ")
    assert "Traceback" not in proc.stderr


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
     {"poset.build", "stalks.tables", "spectral.run"}, "poset.flats"),
    (hyperplane_document(random_generic_projective_forms(
        random.Random(4), 5, 2)),
     {"poset.build", "spectral.differential", "projective.pushforward",
      "spectral.run", "models.oracle"}, "poset.flats"),
], ids=["configuration", "linear", "explicit_hyperplane"])
def test_benchmark_tracer_runs(tmp_path, doc, spans, counter):
    # the traced benchmark run rebinds names inside the package, among them
    # cli.skew_row_homology, which no stage calls; a rename there must fail
    # here, not only in the benchmark.  The pointwise check is a call of
    # execute's own, so its span shows on every job
    names, counts = run_tracer(tmp_path, doc)
    assert spans | {"stalks.pointwise"} <= names
    assert "spectral.skew_rows" not in names
    assert counts[counter] > 0


@pytest.mark.parametrize("field, base, edit", [
    ("options", CONFIG_P1_3, lambda doc: doc.update(options=[1])),
    ("model.factor", CONFIG_P1_3,
     lambda doc: doc["model"].update(factor=["a"])),
    ("model.factor", CONFIG_P1_3,
     lambda doc: doc["model"].update(factor=[True])),
    ("model.factor", CONFIG_P1_3,
     lambda doc: doc["model"].update(factor=[0])),
    ("model.forms[0].covector", BOOLEAN_P2,
     lambda doc: doc["model"]["forms"][0].update(covector=["1/0", "0", "1"])),
    ("model.forms[0].covector", BOOLEAN_P2,
     lambda doc: doc["model"]["forms"][0].update(covector=["0", "0", "0"])),
    ("model.forms[1].covector", BOOLEAN_P2,
     lambda doc: doc["model"]["forms"][1].update(covector=["0", "1"])),
    ("model.forms[0].covector", BOOLEAN_P2,
     lambda doc: doc["model"].update(ambient=3)),
    ("model.forms[1].constant", BOOLEAN_P2,
     lambda doc: doc["model"]["forms"][1].update(constant="1/2")),
    ("members Z1 and Z3 coincide", BOOLEAN_P2,
     lambda doc: doc["model"]["forms"][2].update(covector=["-3", "0", "0"])),
    ("model.ambient", BOOLEAN_P2,
     lambda doc: doc["model"].update(ambient="1")),
    ("model.forms[0].covector", BOOLEAN_P2,
     lambda doc: doc["model"].update(forms=[{"covector": ["1"]}])),
    ("model.ambient", BOOLEAN_P2,
     lambda doc: doc["model"].update(forms=[{"covector": ["1"]}], ambient=0)),
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
    ("model.c", BOOLEAN_P2, lambda doc: doc["model"].update(c=True)),
    ("model.c", CONFIG_P1_3, lambda doc: doc["model"].update(c=True)),
    ("local_system.exponents", BOOLEAN_P2,
     lambda doc: doc.update(local_system={"exponents": ["1/2"]})),
    ("local_system.exponents", CONFIG_P1_3,
     lambda doc: doc.update(local_system={"exponents": ["1/2", "1/3"]})),
    ("local_system.exponents", ABSTRACT_PAIR,
     lambda doc: doc.update(local_system={"exponents": ["1/2"] * 3})),
    ("local_system.exponents", CONFIG_P1_3,
     lambda doc: (doc["model"].update(factor=[2]),
                  doc.update(local_system={"exponents": ["1/2"] * 3}))),
    ("local_system.exponents", BOOLEAN_P2,
     lambda doc: doc.update(local_system={"exponents": ["1/5"] * 3})),
    ("local_system.exponents", CONFIG_P1_3,
     lambda doc: doc.update(local_system={"exponents": ["1/3"] * 3})),
    ("local_system.exponents", ABSTRACT_PAIR,
     lambda doc: doc.update(local_system={"exponents": ["1/2"] * 2})),
], ids=["options_list", "factor_string", "factor_bool", "factor_point",
        "covector_zero_denominator", "covector_zero", "covector_short",
        "covector_off_ambient", "constant_off_affine", "duplicate_member",
        "ambient_string", "cone_apex", "cone_apex_ambient",
        "betti_string", "codim_string", "order_single_key", "target_float",
        "cache_string", "hyperplane_c_bool", "configuration_c_bool",
        "exponents_for_forms", "exponents_for_pairs",
        "exponents_for_codim_c_flats", "exponents_with_c_2",
        "exponents_sum_not_integer", "exponents_on_configuration",
        "exponents_on_abstract"])
def test_malformed_document_exits_4_without_traceback(tmp_path, field, base,
                                                      edit):
    doc = json.loads(json.dumps(base))
    edit(doc)
    proc = run_job(tmp_path, doc)
    assert proc.returncode == EXIT_INPUT, proc.stderr
    assert field in proc.stderr
    assert "Traceback" not in proc.stderr


def test_pointwise_check_runs_once_per_job(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    calls = []
    real = cli.verify_pointwise

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(cli, "verify_pointwise", counting)
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
