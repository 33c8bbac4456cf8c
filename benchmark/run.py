"""Benchmark of `arrange verify` on two seeded workloads.

Usage, from the root of a checkout:

    python3 benchmark/run.py --workload explicit_warm --seed 1 --seconds 30 --trace 0

Each job runs `python -m arrange.cli verify <job> --format machine` in a
fresh interpreter, one at a time, from this single process: a closed loop
with one client, as a user running a batch of jobs.  A round runs every job
of the workload once; a run repeats whole rounds until ``--seconds`` have
passed and reports medians over its rounds.  Every report is checked
against closed-form answers (answers.py) that do not come from `arrange`.

With ``--trace 1`` the run is the traced one instead: one round in which
every job runs under tracer.py, which times each layer boundary from
outside the program, between two untraced rounds that give the tracing
overhead.  It prints the per-layer metrics.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench-out"
sys.path.insert(0, str(HERE))

from answers import check_report, expected  # noqa: E402
from jobs import workload_jobs  # noqa: E402
from tracer import layer_metrics, self_times  # noqa: E402

WORKLOADS = ("explicit_warm", "feasibility")
# sections of a warm `verify` report that must equal the cold `stalks` one
CACHED_SECTIONS = ("poset", "stalks", "decomposition")
# set-up runs this many times per run and reports its median
SETUP_REPEATS = 3


class BenchError(Exception):
    pass


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def spawn(argv, cwd, out_path):
    """Run one child to its end; returns (exit code, wall s, cpu s, max RSS
    in KiB), the CPU time and RSS from the child's own rusage."""
    with open(out_path, "wb") as out, open(str(out_path) + ".err", "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=child_env(),
                                stdout=out, stderr=err)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - start
    code = os.waitstatus_to_exitcode(status)
    return code, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss


CLI = ("-m", "arrange.cli")


def cli_argv(command, job, launcher=CLI):
    """``launcher`` is what follows the interpreter: ``-m arrange.cli``, or
    tracer.py and its spans file in the traced round."""
    return [sys.executable, *launcher, command, str(job["path"]),
            "--format", "machine", *job["flags"]]


class Workload:
    """The jobs of one workload, their documents on disk, checked by the
    program before the batch: ``feasibility`` runs `arrange lattice` on
    every document, ``explicit_warm`` primes a cache directory with
    `arrange stalks`."""

    def __init__(self, name, seed, tmp):
        self.tmp = Path(tmp)
        self.jobs = workload_jobs(name, seed)
        docs = self.tmp / "jobs"
        docs.mkdir()
        for i, job in enumerate(self.jobs):
            job["path"] = docs / f"{i:02d}.json"
            job["path"].write_text(json.dumps(job["doc"]))
        self.cold_sections = None
        self.cache_dir = None
        if name == "explicit_warm":
            self.prime()
        else:
            self.check_lattices()

    def set_up_run(self, command, i, job, cwd):
        """Run one set-up command on a job; its report, or BenchError."""
        out = self.tmp / f"{command}-{i:02d}.out"
        code, *_ = spawn(cli_argv(command, job), cwd, out)
        if code != 0:
            raise BenchError(f"{command} {job['name']}: exit {code}: "
                             f"{Path(str(out) + '.err').read_text()[-500:]}")
        return json.loads(out.read_text())

    def check_lattices(self):
        """Run `arrange lattice` on every document: each must parse, be
        admissible and have the expected number of flats."""
        where = self.tmp / "lattice"
        where.mkdir()
        for i, job in enumerate(self.jobs):
            report = self.set_up_run("lattice", i, job, where)
            flats = report["poset"]["flat_count"]
            if flats != expected(job)[0] or not all(
                    v["ok"] for v in report["verdicts"]):
                raise BenchError(f"lattice {job['name']}: {flats} flats, "
                                 f"verdicts {report['verdicts']}")

    def prime(self):
        """Fill a cache directory with `arrange stalks` and keep the cold
        sections that a warm `verify` must reproduce."""
        self.cache_dir = self.tmp / "warm"
        self.cache_dir.mkdir()
        self.cold_sections = []
        for i, job in enumerate(self.jobs):
            report = self.set_up_run("stalks", i, job, self.cache_dir)
            self.cold_sections.append({k: report.get(k) for k in CACHED_SECTIONS})

    def round_dir(self, index):
        if self.cache_dir is not None:
            return self.cache_dir
        path = self.tmp / f"round-{index}"
        path.mkdir()
        return path

    def check(self, i, job, out_path, code):
        """Problems with one job's output; the checks read the report only."""
        text = out_path.read_text()
        try:
            report = json.loads(text) if text else {}
        except json.JSONDecodeError as exc:
            return [f"{job['name']}: report is not JSON: {exc}"]
        problems = check_report(job, report, code)
        if self.cold_sections is not None:
            for key in CACHED_SECTIONS:
                if report.get(key) != self.cold_sections[i][key]:
                    problems.append(f"{job['name']}: warm '{key}' section "
                                    "differs from the cold stalks report")
        return problems


def run_round(work, index, launcher=lambda i: CLI):
    """One pass over the workload's jobs, returning one record per job."""
    cwd = work.round_dir(index)
    records = []
    for i, job in enumerate(work.jobs):
        out = work.tmp / f"r{index}-{i:02d}.out"
        code, wall, cpu, rss = spawn(cli_argv("verify", job, launcher(i)), cwd, out)
        records.append({"job": job["name"], "code": code, "wall": wall,
                        "cpu": cpu, "rss_kib": rss, "bytes": out.stat().st_size,
                        "problems": work.check(i, job, out, code)})
        if code != 0:
            err = Path(str(out) + ".err").read_text()[-500:]
            print(f"{job['name']}: exit {code}: {err}", file=sys.stderr)
    return records


def setup(name, seed, tmp):
    """Make the workload's inputs and check them with the program (see
    Workload), SETUP_REPEATS times; returns the last set-up and the median
    set-up time."""
    times = []
    while len(times) < SETUP_REPEATS:
        where = Path(tmp) / f"setup-{len(times)}"
        where.mkdir()
        start = time.perf_counter()
        work = Workload(name, seed, where)
        times.append(time.perf_counter() - start)
    return work, statistics.median(times)


def timed(name, seed, seconds, tmp):
    work, setup_s = setup(name, seed, tmp)
    rounds = []
    start = time.perf_counter()
    while not rounds or time.perf_counter() - start < seconds:
        rounds.append(run_round(work, len(rounds)))
    jobs = [r for rnd in rounds for r in rnd]
    metrics = {
        "wall_s": (statistics.median(sum(r["wall"] for r in rnd) for rnd in rounds), "s"),
        "cpu_s": (statistics.median(sum(r["cpu"] for r in rnd) for rnd in rounds), "s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (max(r["rss_kib"] for r in jobs) / 1024, "MiB"),
        "report_bytes": (statistics.median(sum(r["bytes"] for r in rnd) for rnd in rounds), "bytes"),
    }
    for rnd_i, rnd in enumerate(rounds):
        print(f"round {rnd_i}: " + ", ".join(f"{r['job']} {r['wall']:.2f}s"
                                             for r in rnd), file=sys.stderr)
    return jobs, metrics


def traced_run(name, seed, tmp):
    """One traced round between two untraced ones; the overhead is taken
    against the mean of the untraced rounds, which cancels a steady drift
    of the machine's speed."""
    work, _ = setup(name, seed, tmp)
    before = run_round(work, 0)
    spans_dir = work.tmp / "spans"
    spans_dir.mkdir()

    def launcher(i):
        return (str(HERE / "tracer.py"), str(spans_dir / f"{i:02d}.json"))

    records = run_round(work, 1, launcher)
    after = run_round(work, 2)
    traces = []
    for i, rec in enumerate(records):
        trace = json.loads((spans_dir / f"{i:02d}.json").read_text())
        traces.append(trace)
        own = sum(self_times(trace["spans"])) / 1e9
        if own > rec["wall"]:
            rec["problems"].append(f"{rec['job']}: span self times {own:.3f} s "
                                   f"exceed the traced wall {rec['wall']:.3f} s")
    metrics, table = layer_metrics(traces)
    plain_wall = sum(r["wall"] for r in before + after) / 2
    traced_wall = sum(r["wall"] for r in records)
    summary = {"workload": name, "seed": seed, "untraced_wall_s": plain_wall,
               "traced_wall_s": traced_wall,
               "overhead": traced_wall / plain_wall - 1,
               "spans": {k: {"calls": c, "self_s": t}
                         for k, (c, t) in sorted(table.items())},
               "counts": {k: v for k, (v, u) in metrics.items() if u == "count"}}
    (OUT / f"trace-{name}.json").write_text(json.dumps(summary, indent=1))
    print(f"traced wall {traced_wall:.2f} s, untraced {plain_wall:.2f} s, "
          f"overhead {100 * summary['overhead']:.1f} %", file=sys.stderr)
    for k, (calls, own) in sorted(table.items(), key=lambda kv: -kv[1][1]):
        print(f"  {k:28s} {calls:9d} calls {own:9.3f} s self", file=sys.stderr)
    return before + records + after, metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # SIGTERM unwinds like an interrupt: the running job is killed and
    # waited for, and the temporary directory is removed
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (ROOT / "src" / "arrange" / "cli.py").is_file():
        print(f"error: no arrange sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    tmp = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT)
    try:
        if args.trace:
            jobs, metrics = traced_run(args.workload, args.seed, tmp)
        else:
            jobs, metrics = timed(args.workload, args.seed, args.seconds, tmp)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    failed = [r for r in jobs if r["code"] != 0]
    problems = [p for r in jobs if r["code"] == 0 for p in r["problems"]]
    for p in problems:
        print(f"check failed: {p}", file=sys.stderr)
    print(json.dumps({
        "correct": not problems,
        "attempted": len(jobs),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
