"""Command-line frontend: job parsing, orchestration, reports, caching.

Input documents are JSON with a versioned schema; rationals travel as
"p/q" strings.  Machine reports are canonical JSON (sorted keys, no
timestamps) so identical inputs produce byte-identical output, and every
machine report embeds an abstract-model block that can be re-ingested to
reproduce the same second page.

A verdict compares values made by independent code: stalks with the
constant-sheaf split, a configuration page's Euler characteristic with
``models.euler_oracle``, and c = 1 hyperplane Betti numbers and weights with
the Orlik-Solomon count and purity.

Exit codes: 0 ok, 2 verification mismatch or a feasibility search left
undecided at its split budget (``spectral.FEASIBILITY_BUDGET``),
3 infeasible target, 4 input error, including a model whose estimated flat
count (Bell(points), or the number of subsets of at most codim-many forms)
exceeds ``MAX_FLATS``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from dataclasses import dataclass
from fractions import Fraction
from math import comb
from pathlib import Path

from .errors import ArrangeError, NotAdmissible
from .linalg import RationalMatrix, echelon
from .models import (abstract_model, check_mon, configuration_model,
                     euler_oracle, hyperplane_model, os_oracle)
from .polys import IntPoly
from .poset import IntersectionPoset
from .projective import ProjProduct
# skew_row_homology is not called here and verify_pointwise runs inside
# decompose; both stay in this namespace for callers that wrap them
# (benchmark/tracer.py)
from .spectral import (Infeasible, assemble_e2,  # noqa: F401
                       build_differential_config, build_differential_ncd,
                       feasibility, run, skew_row_homology)
from .stalks import (InconsistentDecomposition, StalkTable,  # noqa: F401
                     decompose, stalk_tables, verify_pointwise)

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_MISMATCH = 2
EXIT_INFEASIBLE = 3
EXIT_INPUT = 4

# Largest flat count a job may ask for, estimated before any build: 9 points
# give Bell(9) = 21,147 flats, 10 give 115,975.
MAX_FLATS = 100_000


class ParseError(ArrangeError):
    pass


class SchemaError(ArrangeError):
    pass


@dataclass
class JobSpec:
    command: str
    model: dict
    mode: str | None = None        # explicit | feasibility | bounds | None=auto
    target: object = None          # IntPoly | "oracle" | None
    fmt: str = "human"
    cache: bool = True
    local_system: list | None = None


def _require(cond, message):
    if not cond:
        raise SchemaError(message)


def _int_at_least(x, low):
    return type(x) is int and x >= low  # a JSON integer, not a boolean


def _ints_at_least(x, low):
    return isinstance(x, list) and all(_int_at_least(v, low) for v in x)


def _bell(n):
    """Bell(n), the number of set partitions of n points (Bell triangle)."""
    row = [1]
    for _ in range(n - 1):
        nxt = [row[-1]]
        for x in row:
            nxt.append(nxt[-1] + x)
        row = nxt
    return row[-1]


def _check_partition_size(points):
    """Refuse a partition lattice of more than MAX_FLATS flats before it is
    built.  Bell(n) >= 2^(n-1), so past 30 points that bound is shown."""
    if points > 30:
        estimate = f"Bell({points}) >= 2^{points - 1}"
    else:
        flats = _bell(points)
        if flats <= MAX_FLATS:
            return
        estimate = f"Bell({points}) = {flats:,}"
    raise SchemaError(f"configuration model with {points} points has "
                      f"{estimate} flats, over the limit of {MAX_FLATS:,}")


def _check_hyperplane_size(raw, mode):
    """Refuse a hyperplane model that may have more than MAX_FLATS flats:
    a flat of codimension k is cut out by k forms with independent covectors,
    so with r the covector rank (at most the dimension of P^n in projective
    mode) there are at most sum_{k <= r} C(m, k)."""
    covs = [cov for cov, _ in _parse_forms(raw)]
    if len({len(cov) for cov in covs}) > 1:
        return  # the model build names the ragged form
    r = echelon(RationalMatrix.from_rows(covs)).rank
    m, r = len(covs), min(r, len(covs[0]) - 1) if mode == "projective" else r
    flats = sum(comb(m, k) for k in range(r + 1))
    if flats > MAX_FLATS:
        raise SchemaError(
            f"hyperplane model with {m} forms and codimension up to {r} has "
            f"up to sum_(k<={r}) C({m}, k) = {flats:,} flats, over the limit "
            f"of {MAX_FLATS:,}")


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
    if kind == "hyperplane":
        _require(isinstance(model.get("forms"), list) and model["forms"],
                 "hyperplane model needs a nonempty 'forms' list")
        _require(model.get("mode", "projective") in ("affine", "central", "projective"),
                 "model.mode must be affine|central|projective")
        if "c" in model:
            _require(model["c"] == 1, "hyperplane models have c = 1")
        ambient = model.get("ambient")
        _require(ambient is None or _int_at_least(ambient, 0),
                 f"model.ambient must be an integer >= 0, got {ambient!r}")
        _check_hyperplane_size(model["forms"], model.get("mode", "projective"))
    elif kind == "configuration":
        factor = model.get("factor")
        _require(_ints_at_least(factor, 0) and factor,
                 f"model.factor must be a nonempty list of integers >= 0 "
                 f"(projective factor dims), got {factor!r}")
        points = model.get("points")
        _require(_int_at_least(points, 2),
                 "configuration model needs integer 'points' >= 2")
        _check_partition_size(points)
        if "c" in model:
            _require(model["c"] == sum(model["factor"]),
                     "configuration models have c = dim of the factor")
    else:
        _require(_int_at_least(model.get("c"), 1),
                 "abstract model needs integer 'c' >= 1")
        _require(_ints_at_least(model.get("ambient"), 0),
                 f"model.ambient must list Betti numbers >= 0, "
                 f"got {model.get('ambient')!r}")
        poset = model.get("poset")
        _require(isinstance(poset, dict) and isinstance(poset.get("flats"), list),
                 "abstract model needs 'poset' with a 'flats' list")
        for i, fl in enumerate(poset["flats"]):
            where = f"model.poset.flats[{i}]"
            _require(isinstance(fl, dict) and isinstance(fl.get("key"), (str, int)),
                     f"{where} needs a string or integer 'key'")
            _require(_int_at_least(fl.get("codim"), 1),
                     f"{where}.codim must be an integer >= 1, got {fl.get('codim')!r}")
            _require(_ints_at_least(fl.get("betti"), 0) and fl["betti"],
                     f"{where}.betti must be a nonempty list of Betti numbers "
                     f">= 0, got {fl.get('betti')!r}")
        order = poset.get("order", [])
        _require(isinstance(order, list), "model.poset.order must be a list")
        for i, pair in enumerate(order):
            _require(isinstance(pair, list) and len(pair) == 2
                     and all(isinstance(k, (str, int)) for k in pair),
                     f"model.poset.order[{i}] must be a pair of flat keys, "
                     f"got {pair!r}")

    options = document.get("options") or {}
    _require(isinstance(options, dict),
             f"options must be a JSON object, got {options!r}")
    cache = options.get("cache", True)
    _require(isinstance(cache, bool),
             f"options.cache must be true or false, got {cache!r}")
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
        try:
            local_system = [Fraction(str(e)) for e in ls["exponents"]]
        except (ValueError, ZeroDivisionError) as exc:
            raise SchemaError(f"bad exponent: {exc}") from None

    return JobSpec(command=command, model=model, mode=mode, target=target,
                   fmt=fmt, cache=options.get("cache", True),
                   local_system=local_system)


def _parse_forms(raw):
    forms = []
    for i, entry in enumerate(raw):
        if isinstance(entry, dict):
            cov = entry.get("covector")
            const = entry.get("constant", "0")
        else:
            cov, const = entry, "0"
        if not isinstance(cov, list) or not cov:
            raise SchemaError(f"form {i}: covector must be a nonempty list")
        try:
            forms.append(([Fraction(str(x)) for x in cov], Fraction(str(const))))
        except (ValueError, ZeroDivisionError) as exc:
            raise SchemaError(f"form {i}: {exc}") from None
    return forms


def build_model(job: JobSpec, cached_poset=None):
    model_section = job.model
    kind = model_section["kind"]
    if kind == "hyperplane":
        mode = model_section.get("mode", "projective")
        forms = _parse_forms(model_section["forms"])
        ambient = model_section.get("ambient")
        model = hyperplane_model(forms, mode=mode, ambient_dim=ambient,
                                 poset=cached_poset)
    elif kind == "configuration":
        factor = ProjProduct(tuple(model_section["factor"]))
        model = configuration_model(factor, model_section["points"],
                                    poset=cached_poset)
    else:
        model = abstract_model(
            model_section["c"], model_section["ambient"],
            model_section["poset"]["flats"],
            model_section["poset"].get("order", []))
    return model


class ResultCache:
    """Content-addressed store for the poset and stalk tables of a model."""

    def __init__(self, root=".arrange-cache"):
        self.root = Path(root)

    @staticmethod
    def key(model_section):
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
    return [{"flat": i,
             "display": poset.flats[i].display,
             "codim": poset.flats[i].codim,
             "dims": {str(k): v for k, v in sorted(tables[i].dims.items())},
             "weights": {str(k): v for k, v in sorted(tables[i].weights.items())}}
            for i in sorted(tables)]


def _purity_check(model, tables):
    """Stalks vanish outside the degrees (2c-1)*l; there the weight 2c*l
    follows from the degree (``StalkTable.weights``)."""
    c = model.c
    violations = [{"flat": i, "degree": k, "reason": "vanishing"}
                  for i, t in tables.items() for k, d in t.dims.items()
                  if d and k % (2 * c - 1)]
    return {"ok": not violations, "violations": violations}


def _page_section(page):
    cells = [{"p": p, "q": q, "dim": cell.dim, "weight": cell.weight}
             for (p, q), cell in sorted(page.cells.items())]
    return {"cells": cells, "euler": page.euler()}


def _abstract_export(model):
    """Self-contained combinatorial description, re-ingestible as an
    abstract model reproducing the same page.  The order lists the cover
    pairs only; ``from_abstract`` takes their transitive closure."""
    poset = model.poset
    flats = [{"key": f"F{f.index}", "codim": f.codim,
              "betti": list(model.stratum_betti(f.index))}
             for f in poset.proper_flats()]
    order = [[f"F{i}", f"F{j}"] for i, j in poset.covers()
             if i != poset.bottom]
    return {"kind": "abstract", "c": model.c,
            "ambient": list(model.ambient_betti()),
            "poset": {"flats": flats, "order": order}}


def execute(job: JobSpec) -> tuple:
    """Run a job; returns (report dict, exit code)."""
    report = {"schema_version": SCHEMA_VERSION, "command": job.command,
              "model": job.model}
    verdicts = []

    def verdict(name, ok):
        verdicts.append({"check": name, "ok": bool(ok)})
        return ok

    cache = ResultCache() if job.cache else None
    cache_key = ResultCache.key(job.model) if cache else None
    cached = cache.load(cache_key) if cache else None
    cached_poset = None
    if cached is not None:
        try:
            cached_poset = IntersectionPoset.from_dict(cached["poset"])
        except (ArrangeError, KeyError, TypeError, ValueError):
            cached_poset = None     # a damaged entry is a miss

    try:
        model = build_model(job, cached_poset=cached_poset)
    except NotAdmissible as exc:
        rep = exc.report
        report["admissible"] = {
            "ok": False,
            "violations": list(rep.violations) if rep else [],
            "note": rep.note if rep else ""}
        report["verdicts"] = [{"check": "admissible", "ok": False}]
        return report, EXIT_MISMATCH

    poset = model.poset
    report["poset"] = {
        "ambient_dim": poset.ambient_dim,
        "codim_c": poset.codim_c,
        "mode": poset.mode,
        "flat_count": len(poset),
        "member_count": len(poset.members),
        "flats": [{"id": f.index, "display": f.display, "codim": f.codim,
                   "mu": poset.mu(f.index),
                   "members": [m.display for i, m in enumerate(poset.members)
                               if poset.member_mask(f.index) >> i & 1]}
                  for f in poset.flats],
    }
    adm = model.check_admissible()
    report["admissible"] = {"ok": adm.ok, "violations": adm.violations,
                            "note": adm.note}
    verdict("admissible", adm.ok)
    if model.kind == "hyperplane":
        report["ncd"] = model.ncd
    if not adm.ok:
        report["verdicts"] = verdicts
        return report, EXIT_MISMATCH
    if job.command == "lattice":
        report["verdicts"] = verdicts
        return report, EXIT_OK

    if job.command == "oracle":
        if model.kind != "hyperplane" or model.c != 1:
            raise SchemaError("oracle command needs a hyperplane model")
        poly = os_oracle(poset)
        report["oracle"] = {"poly": poly.to_list(), "text": str(poly)}
        report["verdicts"] = verdicts
        return report, EXIT_OK

    # stalks, decomposition, pointwise verification
    tables = None
    if cached is not None and cached_poset is not None and "stalks" in cached:
        try:
            tables = {
                item["flat"]: StalkTable(
                    item["flat"],
                    {int(k): v for k, v in item["dims"].items()}, model.c)
                for item in cached["stalks"]}
            if set(tables) != {f.index for f in poset.flats}:
                tables = None
        except (KeyError, TypeError, ValueError):
            tables = None
    if tables is None:
        tables = stalk_tables(model)
    report["stalks"] = _stalks_section(poset, tables)
    purity = _purity_check(model, tables)
    report["purity"] = purity
    verdict("vanishing_and_purity", purity["ok"])

    try:
        dec = decompose(model, tables=tables)
        pw = dec.pointwise
    except InconsistentDecomposition as exc:
        dec, pw = exc.dec, exc.report
    report["decomposition"] = [
        {"support": s.support, "display": poset.flats[s.support].display,
         "level": s.level, "degree": s.degree,
         "multiplicity": s.multiplicity, "weight": s.weight}
        for s in dec.summands]
    report["pointwise"] = {"ok": pw.ok, "mismatches": pw.mismatches}
    if not verdict("pointwise_decomposition", pw.ok):
        report["verdicts"] = verdicts
        return report, EXIT_MISMATCH

    if cache:
        cache.store(cache_key, {
            "poset": poset.to_dict(),
            "stalks": [{"flat": i,
                        "dims": {str(k): v for k, v in t.dims.items()}}
                       for i, t in sorted(tables.items())]})

    if job.command == "stalks":
        report["verdicts"] = verdicts
        return report, EXIT_OK if all(v["ok"] for v in verdicts) else EXIT_MISMATCH

    page = assemble_e2(dec, model.strata(), model.ambient, model.c,
                       bottom=poset.bottom)
    report["e2"] = _page_section(page)
    if model.kind == "configuration":
        # chi(F(X, n)) from the Fadell-Neuwirth fibration, read from the
        # factor and the point count alone
        verdict("euler_oracle",
                page.euler() == euler_oracle(model.factor, model.n))

    mode = job.mode
    if mode is None:
        mode = "explicit" if model.explicit else "feasibility"
    if mode == "explicit" and not model.explicit:
        raise SchemaError("explicit mode requested but no explicit "
                          "differential is available for this model")
    report["mode"] = mode

    oracle_poly = None
    if model.kind == "hyperplane" and model.c == 1:
        oracle_poly = os_oracle(poset)
        report["oracle"] = {"poly": oracle_poly.to_list(),
                            "text": str(oracle_poly)}

    exit_code = EXIT_OK
    if mode == "explicit":
        if model.kind == "hyperplane":
            diff = build_differential_ncd(model, page)
        else:
            diff = build_differential_config(model, page)
        page = page.with_differential(diff)
        res = run(page)
        report["differential_ranks"] = [
            {"p": p, "q": q, "rank": r} for (p, q), r in sorted(res.ranks.items())]
        report["einfty"] = _page_section(res.einfty)
        report["betti"] = res.betti.to_list()
        report["betti_text"] = str(res.betti)
        report["euler"] = res.euler
        report["weight_table"] = [
            {"k": k, "w": w, "dim": d} for (k, w), d in res.weights.items()]
        if oracle_poly is not None:
            match = res.betti == oracle_poly
            report["oracle"]["match"] = match
            verdict("oracle_agreement", match)
        if model.kind == "hyperplane":
            # H^k of a hyperplane complement is pure of weight 2k
            # (Brieskorn 1973; Deligne, Theorie de Hodge II, 1971)
            verdict("weight_purity",
                    all(w == 2 * k for (k, w), _ in res.weights.items()))
    else:
        target = job.target
        if target == "oracle":
            if oracle_poly is None:
                raise SchemaError("'oracle' target needs a c = 1 hyperplane model")
            target = oracle_poly
        if mode == "bounds":
            target = None
        try:
            res = feasibility(page, target)
        except Infeasible as exc:
            report["feasibility"] = {"feasible": False, "reason": str(exc)}
            verdict("feasibility", False)
            report["verdicts"] = verdicts
            return report, EXIT_INFEASIBLE
        section = {
            "euler": res.euler,
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

    if job.local_system is not None:
        mon = check_mon(model, job.local_system)
        report["mon"] = {"ok": mon.ok, "ok_flats": mon.ok_flats,
                         "bad_flats": mon.bad_flats,
                         "conclusion": mon.conclusion}

    report["abstract_model"] = _abstract_export(model)
    report["verdicts"] = verdicts
    if any(not v["ok"] for v in verdicts):
        exit_code = EXIT_MISMATCH
    return report, exit_code


# ----- rendering -------------------------------------------------------------


def render_machine(report: dict) -> str:
    return json.dumps(report, sort_keys=True, indent=1)


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
        out.append(f"poset: {ps['flat_count']} flats, {ps['member_count']} members, "
                   f"mode={ps['mode']}, ambient dim {ps['ambient_dim']}, "
                   f"c={ps['codim_c']}")
        rows = [(f["id"], f["display"], f["codim"], f["mu"],
                 ",".join(f["members"])) for f in ps["flats"]]
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
        for st in report["stalks"]:
            pieces = [f"{k}: {st['dims'][k]}, w{st['weights'][k]}"
                      for k in sorted(st["dims"], key=int)]
            out.append(f"  {st['display']} (codim {st['codim']}): " + "; ".join(pieces))
    if "purity" in report:
        out.append(f"vanishing/purity: {'ok' if report['purity']['ok'] else 'VIOLATED'}")
    if "decomposition" in report:
        out.append("constant-sheaf decomposition (level 0 implicit):")
        rows = [(d["display"], d["level"], d["degree"], d["multiplicity"], d["weight"])
                for d in report["decomposition"]]
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
        p.add_argument("--no-cache", action="store_true")
    return parser


def main(argv=None) -> int:
    args = _build_argparser().parse_args(argv)
    try:
        text = Path(args.file).read_text()
    except OSError as exc:
        print(f"error: cannot read {args.file}: {exc}", file=sys.stderr)
        return EXIT_INPUT
    try:
        document = json.loads(text)
    except json.JSONDecodeError as exc:
        print(f"error: invalid JSON: {exc}", file=sys.stderr)
        return EXIT_INPUT
    overrides = {}
    if args.mode:
        overrides["mode"] = args.mode
    if args.target:
        overrides["target"] = args.target
    if args.fmt:
        overrides["format"] = args.fmt
    if args.no_cache:
        overrides["cache"] = False
    try:
        job = parse(document, command=args.command, overrides=overrides)
        report, code = execute(job)
    except ArrangeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    if job.fmt == "machine":
        sys.stdout.write(render_machine(report) + "\n")
    else:
        sys.stdout.write(render_human(report))
    return code


if __name__ == "__main__":
    sys.exit(main())
