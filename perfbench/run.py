#!/usr/bin/env python3
"""The taumackey benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload ladder --seed 1 --seconds 28 --trace 0

Run it from the root of a source checkout: the package is imported from
`src/`, nothing is installed.  The load is one job at a time from a single
process (a closed loop with one client).

With `--trace 0` tracing is off and the run measures the end-to-end
metrics: in-process passes of the workload's jobs through
`taumackey.cli.run_job` plus `render_report`, and fresh `taumackey batch`
processes on the acceptance manifest (cold cache, then warm), each of which
also times its own start-up.  The batch probe is the same on every workload: it measures the cost
a user pays per process and per small job, which the heavy workloads'
passes would drown.  With `--trace 1` the run alternates untraced and traced
in-process passes, then traces one cold and one warm batch of the
acceptance manifest, and reports per-layer self times and counts (see
spans.py).

Every report is checked against the verdicts recorded in workloads.py, and
every warm batch report against its cold one, byte for byte.  Human-readable
lines come first; the last line of stdout is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.  Exit code 2 means nothing
could be measured, for example because the checkout has no `src/taumackey`.
"""

from __future__ import annotations

import argparse
import ctypes
import functools
import gc
import importlib.util
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import spans
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work" / str(os.getpid())

# Shares of a run's elapsed time, topped up before every job, so that every
# quantity is sampled in turns through the whole run rather than in a few
# stretches: the machine's speed drifts.  Passes take the rest.
# Together at most a third, so that two `ladder` passes fit in a run.
COLD_SHARE = 0.22      # cold batches of the acceptance manifest, at least one
WARM_SHARE = 0.11      # warm reruns on the latest cold batch's cache
TRACED_SHARE = 0.65    # of --seconds spent on untraced/traced pass pairs (at least one)
MIN_PASSES = 2         # so every run compares verdicts under two pass seeds
CHILD_TIMEOUT = 150

# The batch child says when `taumackey.cli` is imported, so that every batch
# process also gives a set-up sample.
BATCH = ("import sys; from taumackey.cli import main; "
         "sys.stdout.write('ready\\n'); sys.stdout.flush(); sys.exit(main())")

# The reference timings listed in ROADMAP.md, as slices of the traced run:
# (label, workload, job, function whose inclusive time is reported)
REFERENCE = [
    ("D1000 build", "ladder", "power-sums D1000", "groups.construct_family"),
    ("D1000 tau_inverse", "ladder", "power-sums D1000", "morphisms.tau_inverse"),
    ("D1000 pair scan, 4M states", "ladder", "power-sums D1000",
     "conjugacy.simultaneous_conjugation_scan"),
    ("CL10 tau_inverse", "ladder", "power-sums CL10", "morphisms.tau_inverse"),
    ("S6 pair scan", "ladder", "simply-reducible S6", "conjugacy.simultaneous_conjugation_scan"),
    ("S6, K=S5 gelfand_criteria_report", "gelfand", "gelfand S6/S5",
     "gelfand.gelfand_criteria_report"),
]


class Unmeasurable(Exception):
    """The run cannot produce a result (missing sources, a child that died)."""


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def _import_cli():
    sys.path.insert(0, str(SRC))
    import taumackey.cli as cli

    if Path(cli.__file__).resolve().parent != SRC / "taumackey":
        raise Unmeasurable(f"imported taumackey from {cli.__file__}, not from {SRC}")
    return cli


def machine_block() -> dict:
    """The machine and the program as this run sees them."""
    cpu = "unknown"
    ram_mb = None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
        for line in Path("/proc/meminfo").read_text().splitlines():
            if line.startswith("MemTotal:"):
                ram_mb = int(line.split()[1]) // 1024
    except OSError:
        pass
    import numpy
    from taumackey import _kernels, characters, conjugacy, groups

    use_numba = getattr(_kernels, "use_numba", None)
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "ram_mb": ram_mb,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "kernel_path": "numba" if use_numba and use_numba() else "numpy",
        "budgets": {
            "pairs": getattr(conjugacy, "PAIR_BUDGET", None),
            "order": getattr(groups, "ORDER_CAP", None),
            "classes": getattr(characters, "CLASS_CAP", None),
            "dense_cap": getattr(groups, "DENSE_CAP", None),
        },
    }


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------

class Tally:
    """Jobs attempted and failed, with the reason for each failure."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []
        self.verdicts: dict[str, set[str]] = {}

    def check(self, where: str, entry: dict, exit_code, report: dict | None,
              check_exit: bool = True) -> None:
        self.attempted += 1
        expect = entry["expect"] if check_exit else {
            k: v for k, v in entry["expect"].items() if k != "exit_code"}
        if report is None:
            problems = [f"no report (exit {exit_code})"]
        else:
            problems = workloads.mismatches(expect, exit_code, report)
            try:
                seen = json.dumps(workloads.verdict(report), sort_keys=True)
                self.verdicts.setdefault(entry["name"], set()).add(seen)
            except (KeyError, TypeError, ValueError):
                pass
        if problems:
            self.fail(f"{where} {entry['name']}: " + "; ".join(problems))

    def fail(self, note: str) -> None:
        self.failed += 1
        self.notes.append(note)

    def seeds_agree(self) -> None:
        """Verdicts must not depend on the pass seed."""
        for name, seen in self.verdicts.items():
            if len(seen) > 1:
                self.fail(f"{name}: verdict differs between seeds: {sorted(seen)}")


# ---------------------------------------------------------------------------
# measurements
# ---------------------------------------------------------------------------

def batch_process(manifest: Path, cache: Path, out: Path, seed: int, env: dict,
                  setup: list[float]):
    """One `taumackey batch` process; returns (wall seconds, exit code) and
    appends to `setup` the seconds until it had imported `taumackey.cli`."""
    argv = [sys.executable, "-c", BATCH, "batch", str(manifest), "--cache-dir", str(cache),
            "--seed", str(seed), "--out", str(out)]
    t0 = time.perf_counter()
    with subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          env=env, cwd=ROOT) as proc:
        # a child that hangs would block readline forever
        watchdog = threading.Timer(CHILD_TIMEOUT, proc.kill)
        watchdog.start()
        try:
            line = proc.stdout.readline()
            ready = time.perf_counter() - t0
            _, err = proc.communicate()
            wall = time.perf_counter() - t0
        finally:
            watchdog.cancel()
    if line.strip() != b"ready":
        raise Unmeasurable("taumackey.cli does not import: " + err.decode(errors="replace")[-500:])
    setup.append(ready)
    return wall, proc.returncode


def check_batch(tally: Tally, label: str, plan: list[dict], out: Path, code: int) -> list | None:
    try:
        reports = json.loads(out.read_text())["jobs"]
    except (OSError, ValueError, KeyError, TypeError):
        reports = None
    if code != 0 or reports is None or len(reports) != len(plan):
        tally.attempted += len(plan)
        tally.fail(f"{label} batch: exit {code}, "
                   f"{'no' if reports is None else len(reports)} reports for {len(plan)} jobs")
        return None
    for entry, report in zip(plan, reports):
        tally.check(f"{label} batch", entry, 0, report, check_exit=False)
    return reports


class Batch:
    """One manifest and its cache dir: a cold batch fills the cache, and
    every warm rerun must reproduce the cold reports byte for byte.
    `launch(manifest, cache, out, seed)` runs one batch and returns its
    (seconds, exit code)."""

    def __init__(self, tally: Tally, plan: list[dict], char_seed: int, here: Path, launch):
        self.tally, self.plan, self.char_seed, self.here, self.launch = (
            tally, plan, char_seed, here, launch)
        here.mkdir(parents=True)
        self.manifest = here / "manifest.json"
        self.manifest.write_text(json.dumps({"jobs": [e["job"] for e in plan]}))
        self.cold = None

    def _run(self, out: Path):
        return self.launch(self.manifest, self.here / "cache", out, self.char_seed)

    def run_cold(self) -> float:
        seconds, code = self._run(self.here / "cold.json")
        self.cold = check_batch(self.tally, "cold", self.plan, self.here / "cold.json", code)
        return seconds

    def run_warm(self) -> float:
        out = self.here / "warm.json"
        seconds, code = self._run(out)
        warm = check_batch(self.tally, "warm", self.plan, out, code)
        if self.cold is not None and warm is not None:
            differ = [e["name"] for e, a, b in zip(self.plan, self.cold, warm)
                      if _render(a) != _render(b)]
            for name in differ:
                self.tally.fail(f"warm report of {name} differs from its cold report")
            if not differ and (self.here / "cold.json").read_bytes() != out.read_bytes():
                self.tally.fail("warm batch output differs from the cold output")
        return seconds


def _render(report) -> str:
    return json.dumps(report, sort_keys=True, indent=2)


try:
    _malloc_trim = ctypes.CDLL("libc.so.6").malloc_trim
    _malloc_trim.argtypes, _malloc_trim.restype = [ctypes.c_size_t], ctypes.c_int
except (OSError, AttributeError):
    _malloc_trim = None


def _release() -> None:
    """Free the previous job's memory, cyclic garbage included, and hand
    free heap pages back to the system, as a fresh process per job would;
    otherwise peak RSS depends on the job order."""
    gc.collect()
    if _malloc_trim is not None:
        _malloc_trim(0)


def in_process_pass(cli, tally: Tally, plan: list[dict], char_seed: int,
                    tracer: spans.Tracer | None = None, between=None):
    """Every job of the plan through run_job and render_report; returns the
    pass time (the sum of its jobs' wall times) and each job's seconds, in
    plan order.  `between()`, if given, runs untimed before each job."""
    seconds = []
    for entry in plan:
        if between is not None:
            between()
        _release()
        span = tracer.begin(entry["name"], "bench") if tracer else None
        t0 = time.perf_counter()
        try:
            report, code = cli.run_job(entry["job"], char_seed)
            text = cli.render_report(report)
        except Exception as exc:  # a crashed job is a failed job, not a failed run
            report, code, text = None, f"{type(exc).__name__}: {exc}", None
        seconds.append(time.perf_counter() - t0)
        if span is not None:
            tracer.end(span)
        tally.check("pass", entry, code, json.loads(text) if text else None)
    return sum(seconds), seconds


def measure_untraced(cli, jobs, probe, rng, probe_rng, seconds, tally, log) -> dict:
    env = _child_env()
    # the first import compiles bytecode; users pay that once
    char_seed, plan = workloads.plan_pass(probe, probe_rng)
    Batch(tally, plan, char_seed, WORK / "warm-up", functools.partial(
        batch_process, env=env, setup=[])).run_cold()

    setup, cold, warm, walls, largest, others = [], [], [], [], [], []
    lengths = []  # each pass from start to end, the batches it waited for included
    launch = functools.partial(batch_process, env=env, setup=setup)
    start = time.perf_counter()
    per_job: dict[str, list[float]] = {}
    batch = None

    def top_up():
        nonlocal batch
        while batch is None or sum(cold) < COLD_SHARE * (time.perf_counter() - start):
            char_seed, plan = workloads.plan_pass(probe, probe_rng)
            batch = Batch(tally, plan, char_seed, WORK / f"batch{len(cold)}", launch)
            cold.append(batch.run_cold())
        while sum(warm) < WARM_SHARE * (time.perf_counter() - start):
            warm.append(batch.run_warm())

    while True:
        top_up()
        # start a pass only if at least half of it fits, so that runs end
        # at --seconds on average
        if len(walls) >= MIN_PASSES and (
                time.perf_counter() + statistics.mean(lengths) / 2 > start + seconds):
            break
        char_seed, plan = workloads.plan_pass(jobs, rng)
        t0 = time.perf_counter()
        wall, job_s = in_process_pass(cli, tally, plan, char_seed, between=top_up)
        lengths.append(time.perf_counter() - t0)
        walls.append(wall)
        largest.append(sum(s for e, s in zip(plan, job_s) if e["largest"]))
        others.append(sum(s for e, s in zip(plan, job_s) if not e["largest"]))
        for e, s in zip(plan, job_s):
            per_job.setdefault(e["name"], []).append(s)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    log(f"samples: setup {len(setup)}, batch {len(cold)} cold + {len(warm)} warm, "
        f"passes {len(walls)}")
    log("series " + json.dumps({"setup_s": setup, "batch_cold_s": cold, "batch_warm_s": warm,
                                "pass_s": walls, "largest_job_s": largest,
                                "other_jobs_s": others}))
    for name, values in per_job.items():
        log(f"job {name}: median {statistics.median(values):.4f} s over {len(values)}")
    return {
        "setup_s": statistics.median(setup),
        "pass_s": statistics.median(walls),
        "largest_job_s": statistics.median(largest),
        "other_jobs_s": statistics.median(others),
        "batch_cold_s": statistics.median(cold),
        "batch_warm_s": statistics.median(warm),
        "peak_rss_mb": peak_rss_mb,
    }


def measure_traced(cli, workload, jobs, probe, rng, probe_rng, seconds, tally, log) -> dict:
    start = time.perf_counter()
    untraced, traced = [], []
    while not traced or (time.perf_counter() + statistics.mean(untraced) + statistics.mean(
            w for w, _ in traced) <= start + TRACED_SHARE * seconds):
        char_seed, plan = workloads.plan_pass(jobs, rng)
        untraced.append(in_process_pass(cli, tally, plan, char_seed)[0])
        tracer = spans.Tracer()
        tracer.install()
        try:
            wall, _ = in_process_pass(cli, tally, plan, char_seed, tracer)
        finally:
            tracer.uninstall()
        traced.append((wall, tracer.spans))

    wall, recorded = sorted(traced, key=lambda t: t[0])[(len(traced) - 1) // 2]

    def launch(manifest, cache, out, seed):
        t0 = time.perf_counter()
        try:
            code = cli.main(["batch", str(manifest), "--cache-dir", str(cache),
                             "--seed", str(seed), "--out", str(out)])
        except Exception as exc:  # a crashed batch fails its jobs, not the run
            code = f"{type(exc).__name__}: {exc}"
        return time.perf_counter() - t0, code

    char_seed, plan = workloads.plan_pass(probe, probe_rng)
    batch = Batch(tally, plan, char_seed, WORK / "traced-batch", launch)
    tracer = spans.Tracer()
    tracer.install()
    try:
        probe_cold = batch.run_cold()
        probe_wall = probe_cold + batch.run_warm()
    finally:
        tracer.uninstall()

    # The per-layer figures cover the traced pass and the probe batch, as the
    # untraced run covers both, so a layer the workload's own jobs do not
    # reach reads small rather than 0.
    in_pass = spans.layer_metrics(recorded, wall)
    in_probe = spans.layer_metrics(tracer.spans, probe_wall)
    metrics = {name: in_pass[name] + in_probe[name] for name in in_pass}
    metrics.update(spans.batch_metrics(tracer.spans))
    metrics["trace.pass_s"] = wall
    metrics["trace.probe_s"] = probe_wall
    metrics["trace.untraced_pass_s"] = statistics.median(untraced)

    log(f"samples: {len(untraced)} untraced + {len(traced)} traced passes, 1 traced batch")
    # a log line, not a metric: it can be negative within noise
    overhead = statistics.median([w for w, _ in traced]) - metrics["trace.untraced_pass_s"]
    log(f"tracing overhead: median traced minus median untraced pass {overhead:.4f} s")
    layers = " + ".join(f"{layer} {metrics[spans.metric_prefix(layer) + '.self_s']:.4f}"
                        for layer in spans.LAYERS)
    log(f"closure: {layers} + other {metrics['other_s']:.4f} = traced pass {wall:.4f}"
        f" + probe batch {probe_wall:.4f} s")
    for label, where, job, function in REFERENCE:
        if where == workload:
            value = spans.job_slice(recorded, job, function)
            log("reference " + json.dumps({"row": label, "job": job, "function": function,
                                           "seconds": value}))
    log("reference " + json.dumps({"row": "acceptance manifest, in process (traced cold batch)",
                                   "seconds": probe_cold}))
    for row in spans.kernel_rows(recorded):
        log("kernel " + json.dumps(row))
    return metrics


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

UNITS_E2E = {"setup_s": "s", "pass_s": "s", "largest_job_s": "s", "other_jobs_s": "s",
             "batch_cold_s": "s", "batch_warm_s": "s", "peak_rss_mb": "MB"}


def _unit(name: str) -> str:
    if name in UNITS_E2E:
        return UNITS_E2E[name]
    return "s" if name.endswith("_s") else "count"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    def log(line: str) -> None:
        print(line, flush=True)

    if not (SRC / "taumackey" / "cli.py").is_file():
        print(f"perfbench: no package sources at {SRC / 'taumackey'}", file=sys.stderr)
        return 2
    WORK.mkdir(parents=True)
    try:
        cli = _import_cli()
        jobs = workloads.WORKLOADS[args.workload]
        probe = workloads.acceptance(ROOT)
        # passes and batch probes draw from separate streams, so the inputs
        # of each do not depend on how many of the other fitted in the run
        rng = random.Random(args.seed)
        probe_rng = random.Random(rng.getrandbits(64))
        tally = Tally()
        log(f"perfbench: workload {args.workload}, seed {args.seed}, "
            f"{args.seconds:g} s, trace {args.trace}, {len(jobs)} jobs")
        log("machine " + json.dumps(machine_block()))
        if args.trace:
            metrics = measure_traced(cli, args.workload, jobs, probe, rng, probe_rng,
                                     args.seconds, tally, log)
        else:
            metrics = measure_untraced(cli, jobs, probe, rng, probe_rng, args.seconds,
                                       tally, log)
        tally.seeds_agree()
    except (Unmeasurable, OSError, ValueError, subprocess.SubprocessError) as exc:
        print(f"perfbench: cannot measure: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
        try:
            WORK.parent.rmdir()
        except OSError:
            pass  # another run still uses it

    for note in tally.notes[:20]:
        log(f"FAILED {note}")
    log(f"failed_frac {tally.failed}/{tally.attempted} = {tally.failed / tally.attempted:.4f}")
    for name, value in metrics.items():
        log(f"metric {name} {value:.6g} {_unit(name)}")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": _unit(name)}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
