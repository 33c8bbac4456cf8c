"""Seeded faults, one per row, each injected through a patched function on
one small model and run through ``cli.main``: every row names the verdicts
that must fail, and the job must exit 2 in both report formats."""

import json

import pytest

import arrange.cli as cli
from arrange.cli import EXIT_MISMATCH, main
from arrange.linalg import RationalMatrix
from helpers import coordinate_forms


def add_one_to_the_deepest_stalk(real):
    # level 1 of the deepest flat, whose own level is 2: the split reads a
    # flat's multiplicity at its own level only, so this entry is compared
    # with the sum over the level-1 summands below the flat
    def tampered(model):
        tables = real(model)
        deepest = max(model.poset.flats, key=lambda f: f.codim).index
        tables[deepest][1] += 1
        return tables
    return tampered


def zero_the_first_nonzero_block(real):
    def tampered(model, page):
        blocks = real(model, page)
        key = min(k for k, m in blocks.items() if not m.is_zero())
        m = blocks[key]
        blocks[key] = RationalMatrix.zeros(m.rows, m.cols)
        return blocks
    return tampered


FAULTS = {
    "stalk_entry_F(P2,3)": (
        {"kind": "configuration", "factor": [2], "points": 3},
        "stalk_tables", add_one_to_the_deepest_stalk,
        ["pointwise_decomposition"]),
    "zeroed_block_coordinate_P3": (
        {"kind": "hyperplane", "mode": "projective",
         "forms": [{"covector": cov} for cov, _ in coordinate_forms(3)]},
        "build_differential_ncd", zero_the_first_nonzero_block,
        ["oracle_agreement", "weight_purity"]),
}


@pytest.mark.parametrize("name", list(FAULTS))
def test_fault_fails_its_verdicts(name, tmp_path, monkeypatch, capsys):
    model, target, fault, expected = FAULTS[name]
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(cli, target, fault(getattr(cli, target)))
    path = tmp_path / "job.json"
    path.write_text(json.dumps({"schema_version": 1, "model": model}))
    assert main(["verify", str(path), "--format", "machine"]) == EXIT_MISMATCH
    report = json.loads(capsys.readouterr().out)
    assert [v["check"] for v in report["verdicts"] if not v["ok"]] == expected
    assert main(["verify", str(path)]) == EXIT_MISMATCH
    lines = capsys.readouterr().out.splitlines()
    assert f"verdicts: FAILED {expected}" in lines
