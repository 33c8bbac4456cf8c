"""Layer tracing for the benchmark's traced run.

Run as ``python tracer.py SPANS.json <arrange arguments...>``: it wraps the
module-level names that each layer boundary of `arrange` goes through,
calls ``arrange.cli.main`` with the remaining arguments, and writes the
spans and counters to SPANS.json when the job ends.  Nothing inside the
program changes; only the names are rebound in this process.

A span is ``[name, start_ns, end_ns, parent]`` with ``parent`` the index of
the enclosing span (-1 for the root).  A span's self time is its duration
minus the durations of its children, which run one after another inside
it.  Small hot calls (``content_key``, ``deletion``, ``restriction``,
``homology_dim``, matrix products) are counted but not timed, so their
time stays in the self time of the layer that makes them.

``layer_metrics`` turns the files of one round into the per-layer metrics.
"""

from __future__ import annotations

import json
import sys
import time

# per-layer metric -> (span name, "self" time | "calls" | counter)
LAYER_METRICS = {
    "poset.build_s": ("poset.build", "self"),
    "poset.rref_calls": ("poset.rref_calls", "counter"),
    "poset.flats": ("poset.flats", "counter"),
    "poset.from_dict_s": ("poset.from_dict", "self"),
    "cli.cache_load_s": ("cli.cache_load", "self"),
    "cli.cache_store_s": ("cli.cache_store", "self"),
    "stalks.tables_s": ("stalks.tables", "self"),
    "stalks.content_key_calls": ("stalks.content_key_calls", "counter"),
    "stalks.deletion_calls": ("stalks.deletion_calls", "counter"),
    "stalks.restriction_calls": ("stalks.restriction_calls", "counter"),
    "stalks.decompose_s": ("stalks.decompose", "self"),
    "stalks.pointwise_s": ("stalks.pointwise", "self"),
    "spectral.run_s": ("spectral.run", "self"),
    "linalg.rank_calls": ("linalg.rank", "calls"),
    "linalg.rank_s": ("linalg.rank", "self"),
    "linalg.kernel_basis_calls": ("linalg.kernel_basis", "calls"),
    "linalg.kernel_basis_s": ("linalg.kernel_basis", "self"),
    "linalg.homology_dim_calls": ("linalg.homology_dim_calls", "counter"),
    "linalg.matmul_calls": ("linalg.matmul_calls", "counter"),
    "spectral.skew_rows_s": ("spectral.skew_rows", "self"),
    "spectral.skew_rows_calls": ("spectral.skew_rows", "calls"),
    "spectral.differential_s": ("spectral.differential", "self"),
    "projective.pushforward_calls": ("projective.pushforward", "calls"),
    "projective.pushforward_s": ("projective.pushforward", "self"),
    "spectral.assemble_s": ("spectral.assemble", "self"),
    "spectral.e2_dim": ("spectral.e2_dim", "counter"),
    "spectral.feasibility_s": ("spectral.feasibility", "self"),
    "models.oracle_s": ("models.oracle", "self"),
    "linalg.rref_calls": ("linalg.rref", "calls"),
    "linalg.rref_s": ("linalg.rref", "self"),
    "models.model_s": ("models.model", "self"),
    "cli.parse_s": ("cli.parse", "self"),
    "cli.execute_self_s": ("cli.execute", "self"),
    "cli.render_s": ("cli.render", "self"),
}


class Recorder:
    """Spans and counters of one traced process, kept in memory."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.counts = {}

    def count(self, name, amount=1):
        self.counts[name] = self.counts.get(name, 0) + amount

    def span(self, name, fn, measure=None):
        """``fn`` wrapped so each call records a span; ``measure`` maps the
        result to counters to add."""
        def traced(*args, **kwargs):
            span = [name, time.perf_counter_ns(), 0,
                    self.stack[-1] if self.stack else -1]
            self.stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter_ns()
                self.stack.pop()
            if measure is not None:
                for key, amount in measure(result).items():
                    self.count(key, amount)
            return result
        return traced

    def counter(self, name, fn):
        def counted(*args, **kwargs):
            self.count(name)
            return fn(*args, **kwargs)
        return counted


def install(rec):
    """Rebind the layer boundaries of `arrange` in this process."""
    import arrange.cli as cli
    from arrange import linalg, poset, spectral
    from arrange.linalg import RationalMatrix
    from arrange.poset import IntersectionPoset

    def flats(result):
        return {"poset.flats": len(result)}

    def e2_dim(page):
        return {"spectral.e2_dim": sum(c.dim for c in page.cells.values())}

    # the functions cli imports, and cli's own stages
    for attr, name, measure in [
            ("hyperplane_model", "models.model", None),
            ("configuration_model", "models.model", None),
            ("abstract_model", "models.model", None),
            ("os_oracle", "models.oracle", None),
            ("check_mon", "models.check_mon", None),
            ("stalk_tables", "stalks.tables", None),
            ("decompose", "stalks.decompose", None),
            ("verify_pointwise", "stalks.pointwise", None),
            ("assemble_e2", "spectral.assemble", e2_dim),
            ("build_differential_ncd", "spectral.differential", None),
            ("build_differential_config", "spectral.differential", None),
            ("run", "spectral.run", None),
            ("skew_row_homology", "spectral.skew_rows", None),
            ("feasibility", "spectral.feasibility", None),
            ("parse", "cli.parse", None),
            ("execute", "cli.execute", None),
            ("render_machine", "cli.render", None)]:
        setattr(cli, attr, rec.span(name, getattr(cli, attr), measure))

    cache = cli.ResultCache
    cache.load = rec.span("cli.cache_load", cache.load)
    cache.store = rec.span("cli.cache_store", cache.store)

    for attr, name, measure in [
            ("from_linear_forms", "poset.build", None),
            ("from_linear_systems", "poset.build", flats),
            ("partition_lattice", "poset.build", flats),
            ("from_abstract", "poset.build", flats),
            ("from_dict", "poset.from_dict", None)]:
        fn = IntersectionPoset.__dict__[attr].__func__
        setattr(IntersectionPoset, attr, classmethod(rec.span(name, fn, measure)))
    for attr in ("deletion", "restriction", "content_key"):
        setattr(IntersectionPoset, attr,
                rec.counter(f"stalks.{attr}_calls", getattr(IntersectionPoset, attr)))

    RationalMatrix.rank = rec.span("linalg.rank", RationalMatrix.rank)
    RationalMatrix.kernel_basis = rec.span("linalg.kernel_basis",
                                           RationalMatrix.kernel_basis)
    RationalMatrix.__mul__ = rec.counter("linalg.matmul_calls",
                                         RationalMatrix.__mul__)
    spectral.homology_dim = rec.counter("linalg.homology_dim_calls",
                                        spectral.homology_dim)
    linalg.rref = rec.span("linalg.rref", linalg.rref)
    poset.rref = rec.counter("poset.rref_calls",
                             rec.span("linalg.rref", poset.rref))
    spectral.pushforward = rec.span("projective.pushforward",
                                    spectral.pushforward)
    return cli


def self_times(spans):
    """Per span: duration minus the durations of its direct children."""
    own = [end - start for _, start, end, _ in spans]
    for _, start, end, parent in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def layer_metrics(traces):
    """Per-layer metrics summed over the jobs of one round.

    ``traces`` holds one ``{"spans": ..., "counts": ...}`` dict per job.
    Returns (metrics, table): metrics maps each name of LAYER_METRICS to
    (value, unit); table maps each span name to [calls, self seconds].
    """
    table = {}
    counts = {}
    for trace in traces:
        for span, own in zip(trace["spans"], self_times(trace["spans"])):
            entry = table.setdefault(span[0], [0, 0.0])
            entry[0] += 1
            entry[1] += own / 1e9
        for key, amount in trace["counts"].items():
            counts[key] = counts.get(key, 0) + amount
    metrics = {}
    for metric, (source, how) in LAYER_METRICS.items():
        if how == "self":
            metrics[metric] = (table.get(source, [0, 0.0])[1], "s")
        elif how == "calls":
            metrics[metric] = (table.get(source, [0, 0.0])[0], "count")
        else:
            metrics[metric] = (counts.get(source, 0), "count")
    return metrics, table


def main(argv):
    out_path, cli_args = argv[0], argv[1:]
    rec = Recorder()
    cli = install(rec)
    code = 1
    try:
        code = rec.span("cli.main", cli.main)(cli_args)
    finally:
        with open(out_path, "w") as fh:
            json.dump({"spans": rec.spans, "counts": rec.counts}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
