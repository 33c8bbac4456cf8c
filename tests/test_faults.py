"""Seeded faults, one per row, each injected through a patched function on
one small model and run through ``cli.main``: every row names the module
and function it patches and the verdicts that must fail, and the job must
exit 2 in both report formats."""

import json

import pytest

import arrange.cli as cli
import arrange.spectral as spectral
from arrange.cli import EXIT_MISMATCH, main
from arrange.linalg import RationalMatrix
from helpers import braid_forms, coordinate_forms


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


def drop_the_last_summand(real):
    # the split is checked outside the code that makes it, so a summand it
    # loses shows as a stalk that the pointwise check cannot account for
    def tampered(model, tables):
        return real(model, tables)[:-1]
    return tampered


def zero_the_first_nonzero_block(real):
    def tampered(model, page):
        blocks = real(model, page)
        key = min(k for k, m in blocks.items() if not m.is_zero())
        m = blocks[key]
        blocks[key] = RationalMatrix.zeros(m.rows, m.cols)
        return blocks
    return tampered


def add_one_to_the_deepest_mu(real):
    # the Orlik-Solomon count reads mu; the page and its differential read
    # the order, so only the oracle moves
    def tampered(*args, **kwargs):
        model = real(*args, **kwargs)
        poset = model.poset
        poset.mobius[max(poset.flats, key=lambda f: f.codim).index] += 1
        return model
    return tampered


def drop_the_first_image(real):
    # one face of the differential loses its Gysin image: d still squares
    # to zero, but its rank falls by one
    dropped = []

    def tampered(f, a):
        image = real(f, a)
        if image and not dropped:
            dropped.append(image)
            return image[1:]
        return image
    return tampered


COORDINATE_P3 = {"kind": "hyperplane", "mode": "projective",
                 "forms": [{"covector": cov} for cov, _ in coordinate_forms(3)]}

FAULTS = {
    "stalk_entry_F(P2,3)": (
        {"kind": "configuration", "factor": [2], "points": 3},
        cli, "stalk_tables", add_one_to_the_deepest_stalk,
        ["pointwise_decomposition"]),
    "dropped_summand_braid_P4": (
        {"kind": "hyperplane", "mode": "projective",
         "forms": [{"covector": cov} for cov, _ in braid_forms(5)]},
        cli, "decompose", drop_the_last_summand, ["pointwise_decomposition"]),
    "dropped_summand_F(P2,3)": (
        {"kind": "configuration", "factor": [2], "points": 3},
        cli, "decompose", drop_the_last_summand, ["pointwise_decomposition"]),
    "zeroed_block_coordinate_P3": (
        COORDINATE_P3, cli, "build_differential_ncd",
        zero_the_first_nonzero_block, ["oracle_agreement", "weight_purity"]),
    "raised_mu_coordinate_P3": (
        COORDINATE_P3, cli, "hyperplane_model", add_one_to_the_deepest_mu,
        ["oracle_agreement"]),
    "dropped_gysin_image_coordinate_P3": (
        COORDINATE_P3, spectral, "pushforward", drop_the_first_image,
        ["oracle_agreement", "weight_purity"]),
}


@pytest.mark.parametrize("name", list(FAULTS))
def test_fault_fails_its_verdicts(name, tmp_path, monkeypatch, capsys):
    model, module, target, fault, expected = FAULTS[name]
    monkeypatch.chdir(tmp_path)
    real = getattr(module, target)
    path = tmp_path / "job.json"
    path.write_text(json.dumps({"schema_version": 1, "model": model}))
    # a fresh fault per run, so one that keeps state fires in both
    monkeypatch.setattr(module, target, fault(real))
    assert main(["verify", str(path), "--format", "machine"]) == EXIT_MISMATCH
    report = json.loads(capsys.readouterr().out)
    assert [v["check"] for v in report["verdicts"] if not v["ok"]] == expected
    monkeypatch.setattr(module, target, fault(real))
    assert main(["verify", str(path)]) == EXIT_MISMATCH
    lines = capsys.readouterr().out.splitlines()
    assert f"verdicts: FAILED {expected}" in lines
