"""Command-line frontend: job parsing, orchestration, reports.

Input documents are JSON with a versioned schema; rationals travel as
"p/q" strings.  Machine reports are canonical JSON (sorted keys, no
whitespace, no timestamps) so identical inputs produce byte-identical
output, and every machine report embeds an abstract-model block that can
be re-ingested to reproduce the same second page.  Every run builds its
own poset and stalk tables; nothing read from disk besides the job
document enters a report.

That block names each flat by its id, as every other section does.  The
``poset`` section is the one place that holds a flat's display and
codimension and a member's display (``members``); a flat lists its
members by index.  The per-flat sections are columns indexed by flat id:
``poset.flats`` is ``{"codim", "display", "members", "mu"}``, each a list
whose entry i belongs to flat i, and ``stalks[i]`` is flat i's stalk as
a list by level.  ``decomposition`` is ``{"support", "level",
"multiplicity"}``, three lists with one entry per summand.  Degrees and
weights are not written: with c = ``poset.codim_c``, ``stalks[i][l]`` and
a summand of level l sit in degree (2c-1)*l with weight 2c*l
(``stalks.level_degree`` and ``stalks.level_weight``), which
``render_human`` applies.  ``stalks`` is written once the pointwise
verdict has passed; a failed one lists each stalk that the split misses.

A verdict compares values made by independent code, and each can fail:
the flats' codimensions with the member codimension (``admissible``),
stalks with the constant-sheaf split, a configuration page's Euler
characteristic with ``models.euler_oracle``, and c = 1 hyperplane Betti
numbers and weights with the Orlik-Solomon count and purity.  The report
holds one verdict list from the start.  A failed ``admissible``,
``pointwise_decomposition`` or ``euler_oracle`` verdict ends the run there,
before the next stage builds on what it checked.  There is no vanishing
verdict: the stalk recursion keys its tables by level, so it puts stalks
only in degrees (2c-1)*l by its construction.

Exit codes: 0 ok, 2 verification mismatch or a feasibility search left
undecided at its split budget (``spectral.FEASIBILITY_BUDGET``),
3 infeasible target (in explicit mode, a target that the Betti numbers
miss), 4 input error, including a malformed command line, a document that
declares more than ``poset.MAX_FLATS`` cohomology classes and a model
whose poset build made more than that many flats and stopped there.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from fractions import Fraction
from pathlib import Path

from . import poset as _poset
from .errors import ArrangeError
from .models import (abstract_model, check_mon, configuration_model,
                     euler_oracle, hyperplane_model, os_oracle)
from .polys import IntPoly
from .projective import ProjProduct
from .records import Record
# skew_row_homology is not called here; it stays in this namespace for
# callers that wrap it (benchmark/tracer.py)
from .spectral import (Infeasible, assemble_e2,  # noqa: F401
                       build_differential, feasibility, run,
                       skew_row_homology)
from .stalks import (decompose, level_degree, level_weight, stalk_tables,
                     verify_pointwise)

# benchmark/tracer.py wraps these two names as its spectral.differential
# span, so both stay, bound to the one builder
build_differential_ncd = build_differential_config = build_differential

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_MISMATCH = 2
EXIT_INFEASIBLE = 3
EXIT_INPUT = 4


class ParseError(ArrangeError):
    pass


class SchemaError(ArrangeError):
    pass


class JobSpec(Record):
    __slots__ = ("command", "model", "forms", "mode", "target", "fmt",
                 "local_system")

    def __init__(self, command, model, mode=None, target=None, fmt="human",
                 local_system=None, forms=None):
        self.command = command
        self.model = model
        self.forms = forms         # a hyperplane model's parsed forms
        self.mode = mode           # explicit | feasibility | bounds | None=auto
        self.target = target       # IntPoly | "oracle" | None
        self.fmt = fmt
        self.local_system = local_system


def _require(cond, message):
    if not cond:
        raise SchemaError(message)


def _int_at_least(x, low):
    return type(x) is int and x >= low  # a JSON integer, not a boolean


def _ints_at_least(x, low):
    return isinstance(x, list) and all(_int_at_least(v, low) for v in x)


def _is_key(x):
    return type(x) in (str, int)  # an abstract flat key, not a boolean


def parse(document: dict, command: str = "run", overrides: dict | None = None) -> JobSpec:
    """Validate a job document and fill defaults."""
    if not isinstance(document, dict):
        raise ParseError("document must be a JSON object")
    version = document.get("schema_version")
    _require(version == SCHEMA_VERSION,
             f"schema_version must be {SCHEMA_VERSION}, got {version!r}")
    model = document.get("model")
    _require(isinstance(model, dict), "missing 'model' section")
    kind = model.get("kind")
    _require(kind in ("hyperplane", "configuration", "abstract"),
             f"model.kind must be hyperplane|configuration|abstract, got {kind!r}")
    fields, classes = None, 0   # declared cohomology classes; a poset build
                                # bounds a hyperplane model's instead
    forms = None
    if kind == "hyperplane":
        _require(isinstance(model.get("forms"), list) and model["forms"],
                 "hyperplane model needs a nonempty 'forms' list")
        _require(model.get("mode", "projective") in ("affine", "central", "projective"),
                 "model.mode must be affine|central|projective")
        c, members = model.get("c", 1), len(model["forms"])
        _require(type(c) is int and c == 1,
                 f"model.c must be 1 for hyperplane models, got {c!r}")
        ambient = model.get("ambient")
        _require(ambient is None or _int_at_least(ambient, 0),
                 f"model.ambient must be an integer >= 0, got {ambient!r}")
        forms = _parse_forms(model)
    elif kind == "configuration":
        factor = model.get("factor")
        _require(_ints_at_least(factor, 0) and factor,
                 f"model.factor must be a nonempty list of integers >= 0 "
                 f"(projective factor dims), got {factor!r}")
        _require(sum(factor) >= 1,
                 f"model.factor must have positive dimension, got {factor!r}")
        points = model.get("points")
        _require(_int_at_least(points, 2),
                 "configuration model needs integer 'points' >= 2")
        c, members = model.get("c", sum(factor)), points * (points - 1) // 2
        _require(type(c) is int and c == sum(factor),
                 f"model.c must be {sum(factor)}, the dimension of the "
                 f"factor, got {c!r}")
        # (prod (d_i + 1))^points; a base of 2 or more passes the budget by
        # the power MAX_FLATS.bit_length(), so the power stops there
        fields = "model.factor and model.points"
        classes = math.prod(d + 1 for d in factor) ** min(
            points, _poset.MAX_FLATS.bit_length())
    else:
        c = model.get("c")
        _require(_int_at_least(c, 1), "abstract model needs integer 'c' >= 1")
        _require(_ints_at_least(model.get("ambient"), 0),
                 f"model.ambient must list Betti numbers >= 0, "
                 f"got {model.get('ambient')!r}")
        poset = model.get("poset")
        _require(isinstance(poset, dict) and isinstance(poset.get("flats"), list),
                 "abstract model needs 'poset' with a 'flats' list")
        first = {}   # key read as text -> index of the flat that has it
        for i, fl in enumerate(poset["flats"]):
            where = f"model.poset.flats[{i}]"
            _require(isinstance(fl, dict) and _is_key(fl.get("key")),
                     f"{where} needs a string or integer 'key'")
            _require(str(fl["key"]) != "bottom",
                     f"{where}.key 'bottom' is reserved for the ambient space")
            # a flat's display and canonical key are its key read as text
            j = first.setdefault(str(fl["key"]), i)
            _require(j == i, f"{where}.key {fl['key']!r} reads as the same "
                             f"text as model.poset.flats[{j}].key")
            _require(_int_at_least(fl.get("codim"), 1),
                     f"{where}.codim must be an integer >= 1, got {fl.get('codim')!r}")
            _require(_ints_at_least(fl.get("betti"), 0) and fl["betti"],
                     f"{where}.betti must be a nonempty list of Betti numbers "
                     f">= 0, got {fl.get('betti')!r}")
        order = poset.get("order", [])
        _require(isinstance(order, list), "model.poset.order must be a list")
        declared = {fl["key"] for fl in poset["flats"]}
        for i, pair in enumerate(order):
            _require(isinstance(pair, list) and len(pair) == 2
                     and all(_is_key(k) for k in pair),
                     f"model.poset.order[{i}] must be a pair of flat keys, "
                     f"got {pair!r}")
            for key in pair:
                _require(key in declared,
                         f"model.poset.order[{i}] names {key!r}, which is no "
                         f"model.poset.flats[].key")
        members = sum(fl["codim"] == c for fl in poset["flats"])
        fields = "model.ambient and model.poset.flats[].betti"
        classes = sum(model["ambient"]) + sum(sum(fl["betti"])
                                              for fl in poset["flats"])
    budget = _poset.MAX_FLATS
    _require(classes <= budget,
             f"{fields} declare more than {budget:,} cohomology classes, "
             f"the limit of one job (poset.MAX_FLATS)")

    options = document.get("options") or {}
    _require(isinstance(options, dict),
             f"options must be a JSON object, got {options!r}")
    options = dict(options)
    options.update(overrides or {})
    mode = options.get("mode")
    _require(mode in (None, "explicit", "feasibility", "bounds"),
             f"options.mode must be explicit|feasibility|bounds, got {mode!r}")
    fmt = options.get("format", "human")
    _require(fmt in ("human", "machine"), "format must be human or machine")
    target = options.get("target")
    if isinstance(target, str) and target != "oracle":
        target = [s.strip() for s in target.split(",")]
    if isinstance(target, list):
        _require(all(type(x) in (int, str) for x in target),
                 f"options.target must list integers, got {target!r}")
        try:
            target = IntPoly([int(x) for x in target])
        except ValueError as exc:
            raise SchemaError(f"bad options.target polynomial: {exc}") from None
    _require(target is None or target == "oracle" or isinstance(target, IntPoly),
             "options.target must be 'oracle' or a coefficient list")

    local_system = None
    ls = document.get("local_system")
    if ls is not None:
        _require(isinstance(ls, dict) and isinstance(ls.get("exponents"), list),
                 "local_system needs an 'exponents' list")
        # check_mon reads one exponent per member, on c = 1 models only
        _require(c == 1, f"local_system.exponents needs a model with c = 1, "
                         f"got c = {c}")
        _require(len(ls["exponents"]) == members,
                 f"local_system.exponents has {len(ls['exponents'])} entries "
                 f"for {members} members")
        # H_1 of a configuration space or of a declared complement is not
        # free on the members, and its relations are not derived here
        _require(kind == "hyperplane",
                 f"local_system.exponents cannot be checked on {kind} "
                 f"models: which exponents define a local system there is "
                 f"not derived, so none is accepted")
        try:
            local_system = [Fraction(str(e)) for e in ls["exponents"]]
        except (ValueError, ZeroDivisionError) as exc:
            raise SchemaError(f"bad exponent: {exc}") from None
        # off m hyperplanes in P^n, H_1(U; Z) = Z^m / (1, ..., 1): the loops
        # around all the members multiply to one
        total = sum(local_system)
        _require(model.get("mode", "projective") != "projective"
                 or total.denominator == 1,
                 f"local_system.exponents sum to {total}, not an integer, so "
                 f"they define no local system on the complement of "
                 f"projective hyperplanes")

    return JobSpec(command=command, model=model, mode=mode, target=target,
                   fmt=fmt, local_system=local_system, forms=forms)


def _parse_forms(model):
    """A hyperplane model's forms as (covector, constant) Fraction pairs; a
    malformed form raises ``SchemaError`` naming its field.  Every covector
    has the length of the first, or ``model.ambient`` (+1 if projective)."""
    mode, ambient = model.get("mode", "projective"), model.get("ambient")
    _require(mode != "projective" or ambient != 0,
             "model.ambient must be >= 1 in projective mode: P^0 has no "
             "hyperplanes")
    width = None if ambient is None else ambient + (mode == "projective")
    forms = []
    for i, entry in enumerate(model["forms"]):
        if isinstance(entry, dict):
            where = f"model.forms[{i}].covector"
            cov, const = entry.get("covector"), entry.get("constant", "0")
        else:
            where, cov, const = f"model.forms[{i}]", entry, "0"
        _require(isinstance(cov, list) and cov,
                 f"{where} must be a nonempty list, got {cov!r}")
        try:
            row = [Fraction(str(x)) for x in cov]
        except (ValueError, ZeroDivisionError):
            raise SchemaError(f"{where} must list rational numbers, "
                              f"got {cov!r}") from None
        try:
            const = Fraction(str(const))
        except (ValueError, ZeroDivisionError):
            raise SchemaError(f"model.forms[{i}].constant must be a rational "
                              f"number, got {const!r}") from None
        _require(mode == "affine" or not const,
                 f"model.forms[{i}].constant must be 0 in {mode} mode, got {const}")
        _require(any(row), f"{where} is zero, so it defines no hyperplane")
        if width is None:
            _require(mode != "projective" or len(row) > 1,
                     f"{where} has 1 entry: P^0 has no hyperplanes")
            width = len(row)
        _require(len(row) == width,
                 f"{where} has {len(row)} entries; " + (
                     f"model.forms[0] has {width}" if ambient is None else
                     f"model.ambient {ambient} in {mode} mode needs {width}"))
        forms.append((row, const))
    return forms


def build_model(job: JobSpec):
    model_section = job.model
    kind = model_section["kind"]
    if kind == "hyperplane":
        mode = model_section.get("mode", "projective")
        ambient = model_section.get("ambient")
        model = hyperplane_model(job.forms, mode=mode, ambient_dim=ambient)
    elif kind == "configuration":
        factor = ProjProduct(tuple(model_section["factor"]))
        model = configuration_model(factor, model_section["points"])
    else:
        model = abstract_model(
            model_section["c"], model_section["ambient"],
            model_section["poset"]["flats"],
            model_section["poset"].get("order", []))
    return model


# not used here; kept for benchmark/tracer.py, which rebinds load and store
class ResultCache:
    """Content-addressed store for the poset and stalk tables of a model."""

    def __init__(self, root=".arrange-cache"):
        self.root = Path(root)

    @staticmethod
    def key(model_section):
        # imported here: loading hashlib maps libcrypto into the process
        import hashlib
        blob = json.dumps(model_section, sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()

    def load(self, key):
        path = self.root / f"{key}.json"
        if not path.exists():
            return None
        try:
            return json.loads(path.read_text())
        except (OSError, json.JSONDecodeError):
            return None

    def store(self, key, payload):
        try:
            self.root.mkdir(parents=True, exist_ok=True)
            (self.root / f"{key}.json").write_text(
                json.dumps(payload, sort_keys=True))
        except OSError:
            pass  # caching is best-effort


def _stalks_section(poset, tables):
    """Flat i's stalk at index i, as a list whose entry l is the dimension
    at level l; flats with one stalk share one list."""
    shared = {}
    section = []
    for f in poset.flats:
        stalk = tuple(sorted(tables[f.index].items()))
        levels = shared.get(stalk)
        if levels is None:
            levels = shared[stalk] = [0] * (stalk[-1][0] + 1)
            for level, v in stalk:
                levels[level] = v
        section.append(levels)
    return section


def _page_section(page, dims):
    """The cells of ``dims`` ((p, q) -> nonzero dim), with the weights of
    the page's cells at those places, and their Euler characteristic."""
    cells = [{"p": p, "q": q, "dim": d, "weight": page.weight(p, q)}
             for (p, q), d in sorted(dims.items())]
    return {"cells": cells,
            "euler": sum((-1) ** (p + q) * d for (p, q), d in dims.items())}


def _abstract_export(model):
    """Self-contained combinatorial description, re-ingestible as an
    abstract model reproducing the same page.  A flat's key is its id, and
    the ids survive the round trip: the bottom is first in every built
    poset, as it is in ``from_abstract``.  The order lists the cover pairs
    only, upper flat by upper flat; ``from_abstract`` takes their
    transitive closure."""
    poset = model.poset
    ids = [f.index for f in poset.flats]   # one int object per flat
    betti = {}   # stratum -> its one Betti list, shared by its flats

    def betti_of(i):
        stratum = model.strata[i]
        got = betti.get(stratum)
        if got is None:
            got = betti[stratum] = list(model.stratum_betti(i))
        return got

    flats = [{"key": f.index, "codim": f.codim, "betti": betti_of(f.index)}
             for f in poset.proper_flats()]
    shallow = ~(1 << poset.bottom)
    order = [[ids[i], ids[j]] for j in ids
             for i in _poset._bits(poset.lower_covers(j) & shallow)]
    return {"kind": "abstract", "c": model.c,
            "ambient": betti_of(poset.bottom),
            "poset": {"flats": flats, "order": order}}


def execute(job: JobSpec) -> tuple:
    """Run a job; returns (report dict, exit code)."""
    verdicts = []
    report = {"schema_version": SCHEMA_VERSION, "command": job.command,
              "model": job.model, "verdicts": verdicts}

    def verdict(name, ok, **detail):
        verdicts.append({"check": name, "ok": bool(ok), **detail})
        return ok

    model = build_model(job)
    poset = model.poset
    report["poset"] = {
        "ambient_dim": poset.ambient_dim,
        "codim_c": poset.codim_c,
        "mode": poset.mode,
        "flat_count": len(poset),
        "member_count": len(poset.members),
        "members": [m.display for m in poset.members],
        # columns: entry i of each list belongs to flat i
        "flats": {
            "codim": [f.codim for f in poset.flats],
            "display": [f.display for f in poset.flats],
            "members": [list(_poset._bits(poset.member_mask(f.index)))
                        for f in poset.flats],
            "mu": [poset.mu(f.index) for f in poset.flats]},
    }
    adm = poset.check_admissible()
    report["admissible"] = {"ok": adm.ok, "violations": adm.violations,
                            "note": adm.note}
    if model.kind == "hyperplane":
        report["ncd"] = model.ncd
    if not verdict("admissible", adm.ok):
        return report, EXIT_MISMATCH
    if job.command == "lattice":
        return report, EXIT_OK

    if job.command == "oracle":
        if model.kind != "hyperplane" or model.c != 1:
            raise SchemaError("oracle command needs a hyperplane model")
        poly = os_oracle(poset)
        report["oracle"] = {"poly": poly.to_list(), "text": str(poly)}
        return report, EXIT_OK

    # stalks, decomposition, pointwise verification; from here on each
    # stage's state is dropped once its section is written, so none of it
    # is held while the abstract-model block is made
    tables = stalk_tables(model)
    summands = decompose(model, tables)
    pw = verify_pointwise(model, summands, tables)
    report["decomposition"] = {
        "support": [s.support for s in summands],
        "level": [s.level for s in summands],
        "multiplicity": [s.multiplicity for s in summands]}
    report["pointwise"] = {"ok": pw.ok, "mismatches": pw.mismatches}
    if not verdict("pointwise_decomposition", pw.ok):
        # the mismatches name each stalk that the split misses
        return report, EXIT_MISMATCH
    report["stalks"] = _stalks_section(poset, tables)
    del tables, pw
    if job.command == "stalks":
        return report, EXIT_OK

    page = assemble_e2(model, summands)
    del summands
    report["e2"] = _page_section(
        page, {key: cell.dim for key, cell in page.cells.items()})
    euler = report["e2"]["euler"]   # every page of the sequence has it
    if model.kind == "configuration":
        # chi(F(X, n)) from the Fadell-Neuwirth fibration, read from the
        # factor and the point count alone; a miss ends the run before a
        # differential is built on the page
        expected = euler_oracle(model.factor, model.n)
        if euler != expected:
            verdict("euler_oracle", False, expected=expected, page=euler)
            return report, EXIT_MISMATCH
        verdict("euler_oracle", True)

    mode = job.mode
    if mode is None:
        mode = "explicit" if model.explicit else "feasibility"
    if mode == "explicit" and not model.explicit:
        raise SchemaError("explicit mode requested but this model runs "
                          "only in feasibility or bounds mode")
    report["mode"] = mode

    oracle_poly = None
    if model.kind == "hyperplane" and model.c == 1:
        oracle_poly = os_oracle(poset)
        report["oracle"] = {"poly": oracle_poly.to_list(),
                            "text": str(oracle_poly)}
    target = job.target
    if target == "oracle":
        if oracle_poly is None:
            raise SchemaError("'oracle' target needs a c = 1 hyperplane model")
        target = oracle_poly
    if mode == "bounds":
        target = None

    exit_code = EXIT_OK
    if mode == "explicit":
        # called by an alias name so that benchmark/tracer.py times it
        page = page.with_differential(build_differential_ncd(model, page))
        res = run(page)
        report["differential_ranks"] = [
            {"p": p, "q": q, "rank": r} for (p, q), r in sorted(res.ranks.items())]
        report["einfty"] = _page_section(page, res.homology)
        report["betti"] = res.betti.to_list()
        report["betti_text"] = str(res.betti)
        report["euler"] = euler
        report["weight_table"] = [
            {"k": k, "w": w, "dim": d}
            for (k, w), d in sorted(res.weights.items())]
        if oracle_poly is not None:
            match = res.betti == oracle_poly
            report["oracle"]["match"] = match
            verdict("oracle_agreement", match)
        if model.kind == "hyperplane":
            # H^k of a hyperplane complement is pure of weight 2k
            # (Brieskorn 1973; Deligne, Theorie de Hodge II, 1971)
            verdict("weight_purity",
                    all(w == 2 * k for (k, w), _ in res.weights.items()))
        if target is not None:
            # a target the Betti numbers miss is infeasible, as in
            # feasibility mode, unless another check failed as well
            hit = res.betti == target
            if not hit and all(v["ok"] for v in verdicts):
                exit_code = EXIT_INFEASIBLE
            verdict("target", hit, expected=target.to_list(),
                    betti=res.betti.to_list())
    else:
        try:
            res = feasibility(page, target)
        except Infeasible as exc:
            report["feasibility"] = {"feasible": False, "reason": str(exc)}
            verdict("feasibility", False)
            return report, EXIT_INFEASIBLE
        section = {
            "euler": euler,
            "bounds": [{"k": k, "lower": lo, "upper": hi}
                       for k, (lo, hi) in sorted(res.bounds.items())],
        }
        if target is not None:
            section["feasible"] = res.feasible
            section["target"] = target.to_list()
            if res.undecided:
                section["undecided"] = True
                section["splits"] = res.splits
            else:
                section["unique"] = res.unique
                section["ranks"] = [{"p": p, "q": q, "rank": r}
                                    for (p, q), r in sorted(res.ranks.items())]
            verdict("feasibility", bool(res.feasible))
        report["feasibility"] = section
    del page, res

    if job.local_system is not None:
        mon = check_mon(model, job.local_system)
        report["mon"] = {"ok": mon.ok, "ok_flats": mon.ok_flats,
                         "bad_flats": mon.bad_flats,
                         "conclusion": mon.conclusion}

    report["abstract_model"] = _abstract_export(model)
    if exit_code == EXIT_OK and any(not v["ok"] for v in verdicts):
        exit_code = EXIT_MISMATCH
    return report, exit_code


# ----- rendering -------------------------------------------------------------


# the C encoder: ``indent`` or ``iterencode`` would select the pure-Python one
_ENCODE = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode
# one encoder call holds every chunk it makes until it returns, so longer
# lists are encoded this many items at a time
_BATCH = 512


def render_machine(report: dict, out) -> None:
    """Write the canonical report (sorted keys, no whitespace) and a newline
    to the text stream ``out``: dicts key by key, a list longer than
    ``_BATCH`` items in slices, anything else in one encoder call."""
    _write_json(report, out.write)
    out.write("\n")


def _write_json(value, write):
    if isinstance(value, dict):
        sep = "{"
        for key in sorted(value):
            write(f"{sep}{_ENCODE(key)}:")
            _write_json(value[key], write)
            sep = ","
        write("}" if value else "{}")
    elif isinstance(value, (list, tuple)) and len(value) > _BATCH:
        sep = "["
        for start in range(0, len(value), _BATCH):
            write(sep + _ENCODE(value[start:start + _BATCH])[1:-1])
            sep = ","
        write("]")
    else:
        write(_ENCODE(value))


def _table(rows, headers):
    widths = [max(len(str(h)), *(len(str(r[i])) for r in rows)) if rows else len(str(h))
              for i, h in enumerate(headers)]
    lines = ["  ".join(str(h).ljust(w) for h, w in zip(headers, widths))]
    for r in rows:
        lines.append("  ".join(str(x).ljust(w) for x, w in zip(r, widths)))
    return lines


def _render_page(section, title):
    cells = {(c["p"], c["q"]): c for c in section["cells"]}
    if not cells:
        return [f"{title}: empty"]
    maxp = max(p for p, _ in cells)
    maxq = max(q for _, q in cells)
    lines = [f"{title} (entries dim(w=weight), euler = {section['euler']}):"]
    rows = []
    for q in range(maxq, -1, -1):
        row = [f"q={q}"]
        for p in range(maxp + 1):
            c = cells.get((p, q))
            row.append(f"{c['dim']}(w{c['weight']})" if c else ".")
        rows.append(row)
    rows.append([""] + [f"p={p}" for p in range(maxp + 1)])
    widths = [max(len(r[i]) for r in rows) for i in range(maxp + 2)]
    lines.extend("  ".join(x.ljust(w) for x, w in zip(row, widths)).rstrip()
                 for row in rows)
    return lines


def render_human(report: dict) -> str:
    out = [f"arrange {report['command']}"]
    if "poset" in report:
        ps = report["poset"]
        c, flats = ps["codim_c"], ps["flats"]   # columns by flat id
        display, codim = flats["display"], flats["codim"]
        out.append(f"poset: {ps['flat_count']} flats, {ps['member_count']} members, "
                   f"mode={ps['mode']}, ambient dim {ps['ambient_dim']}, "
                   f"c={c}")
        rows = [(i, name, k, mu, ",".join(ps["members"][m] for m in members))
                for i, (name, k, mu, members) in enumerate(zip(
                    display, codim, flats["mu"], flats["members"]))]
        out.extend("  " + ln for ln in _table(rows, ["id", "flat", "codim", "mu", "members"]))
    if "admissible" in report:
        adm = report["admissible"]
        out.append(f"admissible: {'yes' if adm['ok'] else 'NO'}"
                   + (f"  violations: {adm['violations']}" if adm["violations"] else ""))
        if adm.get("note"):
            out.append(f"  note: {adm['note']}")
    if "ncd" in report:
        out.append(f"normal crossings: {'yes' if report['ncd'] else 'no'}")
    if "stalks" in report:
        out.append("stalk tables (degree: dim, weight):")
        for i, levels in enumerate(report["stalks"]):
            pieces = [f"{level_degree(c, l)}: {d}, w{level_weight(c, l)}"
                      for l, d in enumerate(levels) if d]
            out.append(f"  {display[i]} (codim {codim[i]}): "
                       + "; ".join(pieces))
    if "decomposition" in report:
        out.append("constant-sheaf decomposition (level 0 implicit):")
        dec = report["decomposition"]
        rows = []
        for i, level, mult in zip(dec["support"], dec["level"],
                                  dec["multiplicity"]):
            rows.append((display[i], level, level_degree(c, level), mult,
                         level_weight(c, level)))
        out.extend("  " + ln for ln in _table(rows, ["support", "level", "degree", "mult", "weight"]))
    if "pointwise" in report:
        pw = report["pointwise"]
        out.append(f"pointwise check: {'ok' if pw['ok'] else 'MISMATCH'}"
                   + (f" {pw['mismatches']}" if pw["mismatches"] else ""))
    if "e2" in report:
        out.extend(_render_page(report["e2"], "second page"))
    if "mode" in report:
        out.append(f"mode: {report['mode']}")
    if "differential_ranks" in report:
        ranks = ", ".join(f"({r['p']},{r['q']})->{r['rank']}"
                          for r in report["differential_ranks"])
        out.append(f"differential ranks: {ranks or 'all zero'}")
    if "einfty" in report:
        out.extend(_render_page(report["einfty"], "limit page"))
    if "betti" in report:
        out.append(f"betti: {report['betti_text']}   euler: {report['euler']}")
    if "weight_table" in report:
        rows = [(w["k"], w["w"], w["dim"]) for w in report["weight_table"]]
        out.append("weight-graded pieces:")
        out.extend("  " + ln for ln in _table(rows, ["k", "weight", "dim"]))
    if "feasibility" in report:
        fz = report["feasibility"]
        if fz.get("feasible") is False:
            out.append(f"feasibility: INFEASIBLE ({fz['reason']})")
        else:
            out.append(f"euler characteristic: {fz['euler']}")
            rows = [(b["k"], b["lower"], b["upper"]) for b in fz["bounds"]]
            out.append("betti bounds:")
            out.extend("  " + ln for ln in _table(rows, ["k", "lower", "upper"]))
            if fz.get("undecided"):
                out.append(f"feasibility: UNDECIDED after {fz['splits']} splits")
            elif "feasible" in fz:
                out.append(f"target {fz['target']}: feasible="
                           f"{fz['feasible']} unique={fz['unique']}")
                ranks = ", ".join(f"({r['p']},{r['q']})->{r['rank']}"
                                  for r in fz["ranks"])
                out.append(f"  ranks: {ranks or 'all zero'}")
    if "oracle" in report:
        orc = report["oracle"]
        line = f"oracle: {orc['text']}"
        if "match" in orc:
            line += f"   {'MATCH' if orc['match'] else 'MISMATCH'}"
        out.append(line)
    if "mon" in report:
        mon = report["mon"]
        out.append(f"monodromy condition: {'holds' if mon['ok'] else 'fails'}"
                   + (f" at flats {mon['bad_flats']}" if mon["bad_flats"] else ""))
        for line in mon["conclusion"]:
            out.append(f"  => {line}")
    if "verdicts" in report:
        bad = [v["check"] for v in report["verdicts"] if not v["ok"]]
        out.append("verdicts: " + ("all ok" if not bad else f"FAILED {bad}"))
        for v in report["verdicts"]:
            if "expected" in v:
                values = ", ".join(f"{name} {v[name]}"
                                   for name in ("expected", "page", "betti")
                                   if name in v)
                out.append(f"  {v['check']}: {values}")
    return "\n".join(out) + "\n"


# ----- entry point ------------------------------------------------------------


def _build_argparser():
    parser = argparse.ArgumentParser(
        prog="arrange",
        description="exact spectral-sequence engine for arrangement complements")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in [
            ("run", "full pipeline: poset, stalks, page, differential, Betti"),
            ("verify", "run every check and report verdicts"),
            ("lattice", "intersection poset and admissibility only"),
            ("stalks", "stalk tables and constant-sheaf decomposition"),
            ("oracle", "combinatorial Betti oracle (c = 1 hyperplane models)")]:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("file", help="JSON job document")
        p.add_argument("--mode", choices=["explicit", "feasibility", "bounds"])
        p.add_argument("--target",
                       help="Betti target: 'oracle' or comma-separated coefficients")
        p.add_argument("--format", choices=["human", "machine"], dest="fmt")
    return parser


def main(argv=None) -> int:
    try:
        args = _build_argparser().parse_args(argv)
    except SystemExit as exc:
        # argparse has printed the help (code 0) or a usage error (code 2)
        return EXIT_INPUT if exc.code else EXIT_OK
    try:
        text = Path(args.file).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        print(f"error: cannot read {args.file}: {exc}", file=sys.stderr)
        return EXIT_INPUT
    try:
        document = json.loads(text)
    except json.JSONDecodeError as exc:
        print(f"error: invalid JSON: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except RecursionError:
        print("error: invalid JSON: nested too deeply", file=sys.stderr)
        return EXIT_INPUT
    overrides = {}
    if args.mode:
        overrides["mode"] = args.mode
    if args.target:
        overrides["target"] = args.target
    if args.fmt:
        overrides["format"] = args.fmt
    try:
        job = parse(document, command=args.command, overrides=overrides)
        report, code = execute(job)
    except ArrangeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    try:
        if job.fmt == "machine":
            render_machine(report, sys.stdout)
        else:
            sys.stdout.write(render_human(report))
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader has gone: send what is still buffered to devnull, so
        # the flush at exit does not fail again, and keep the job's code
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
    return code


if __name__ == "__main__":
    sys.exit(main())
