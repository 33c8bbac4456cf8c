"""Checks on the package source itself."""

import ast
from pathlib import Path

import arrange
from helpers import run_child

SOURCES = sorted(Path(arrange.__file__).resolve().parent.glob("*.py"))


def test_package_has_no_assert_statements():
    # invariants are checked with raise, so they still run under python -O,
    # which strips assert statements
    found = []
    for path in SOURCES:
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert SOURCES
    assert found == []


def test_cli_import_loads_no_dataclasses_or_hashlib(tmp_path):
    # every `arrange` process imports arrange.cli: dataclasses pulls in
    # inspect, ast and dis, loading hashlib maps libcrypto, and no run
    # needs either
    code = ("import sys\n"
            "bare = set(sys.modules)\n"
            "import arrange.cli\n"
            "print(' '.join(sorted(set(sys.modules) - bare)))\n")
    proc = run_child(tmp_path, "-c", code)
    assert proc.returncode == 0, proc.stderr
    added = set(proc.stdout.split())
    assert "arrange.cli" in added
    assert added.isdisjoint({"dataclasses", "inspect", "hashlib", "_hashlib"})


def test_every_slot_is_read_in_the_package():
    # a record field that no code reads copies a fact that has a home
    # elsewhere; a read is an attribute load anywhere in the package
    slots, loads = {}, set()
    for path in SOURCES:
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                loads.add(node.attr)
            elif isinstance(node, ast.ClassDef):
                for stmt in node.body:
                    if (isinstance(stmt, ast.Assign)
                            and any(isinstance(t, ast.Name) and t.id == "__slots__"
                                    for t in stmt.targets)):
                        for name in ast.literal_eval(stmt.value):
                            slots[f"{path.stem}.{node.name}.{name}"] = name
    assert len(slots) > 40
    assert sorted(k for k, name in slots.items() if name not in loads) == []


def test_json_stays_on_the_c_encoder():
    # json.dumps or JSONEncoder with indent=, and iterencode unless it is
    # called one-shot, run the pure-Python encoder, several times slower
    found = []
    for path in SOURCES:
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and node.attr == "iterencode":
                found.append(f"{path.name}:{node.lineno} iterencode")
            elif (isinstance(node, ast.Call)
                  and getattr(node.func, "attr", getattr(node.func, "id", None))
                  in ("dump", "dumps", "JSONEncoder")
                  and any(k.arg == "indent" for k in node.keywords)):
                found.append(f"{path.name}:{node.lineno} indent=")
    assert found == []


def _taken_from_package(banned):
    """Names in ``banned`` that helpers.py imports from arrange or reads
    off an arrange module."""
    helpers = Path(__file__).resolve().parent / "helpers.py"
    tree = ast.parse(helpers.read_text(), filename=str(helpers))
    found = []
    for node in ast.walk(tree):
        if (isinstance(node, ast.ImportFrom)
                and (node.module or "").split(".")[0] == "arrange"):
            found += [alias.name for alias in node.names
                      if alias.name in banned]
        elif (isinstance(node, ast.Attribute) and node.attr in banned
              and isinstance(node.value, ast.Name)
              and node.value.id in ("arrange", "projective", "spectral",
                                    "stalks")):
            found.append(f"{node.value.id}.{node.attr}")
    return found


def test_helpers_take_no_gysin_algebra_from_the_package():
    # the oracles in helpers.py check projective.pushforward; the duality
    # algebra they use, its classes and its generator-image maps are their
    # own, so none of it comes from arrange
    assert _taken_from_package({"pushforward", "pullback", "cup",
                                "poincare_pair", "CohClass",
                                "SpaceMap"}) == []


def test_helpers_take_no_level_grading_from_the_package():
    # the stalk and pointwise oracles grade by degree with their own 2c-1
    # shift; the package's level -> degree and level -> weight rules are
    # what they check, so neither comes from arrange
    assert _taken_from_package({"level_degree", "level_weight"}) == []
