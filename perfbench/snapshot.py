#!/usr/bin/env python3
"""Repeat the benchmark over seeds and summarise it.

    python3 perfbench/snapshot.py --traced --out perfbench/baseline.json

For each workload of BENCHMARK.json, runs `run.py` with tracing off for two
sets of ten seeds (`--first-seed` onwards, and the same a hundred higher),
for `run_seconds` each, alternating between the sets so that both see the
machine in the same state.  For each end-to-end metric it prints each set's
median and quartile spread ((q3 - q1) / median), the second set's median as
a share of the first's, and the metric's bound.  With `--traced`, adds one
traced run per workload.  With `--out`, writes the machine block, the wall
time of each run, both sets' values and statistics, the traced per-layer
metrics, the reference rows for ROADMAP.md's timings and the large
orbit-kernel calls to that file.  Run from the checkout root.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN = Path(__file__).resolve().parent / "run.py"
RUNS = 10
SECOND_SET = 100  # seed offset of the second set


def run_once(workload: str, seed: int, seconds: int, traced: bool) -> tuple[dict, list[str], float]:
    argv = [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(int(traced))]
    t0 = time.perf_counter()
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{' '.join(argv)} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(lines[-1]), lines[:-1], time.perf_counter() - t0


def tagged(lines: list[str], tag: str) -> list[dict]:
    return [json.loads(line[len(tag) + 1:]) for line in lines if line.startswith(tag + " ")]


def stats(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med, "values": values}


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()

    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    firsts = (args.first_seed, args.first_seed + SECOND_SET)
    snapshot = {"run_seconds": seconds, "runs": RUNS, "workloads": {}}
    worst_spread = worst_shift = 0.0
    for workload in (w["name"] for w in spec["workloads"]):
        values: list[dict[str, list[float]]] = [{}, {}]
        failed = attempted = 0
        run_wall = []
        for i in range(RUNS):
            # alternate which set runs first, so that neither gains from the order
            for s in ((0, 1) if i % 2 == 0 else (1, 0)):
                result, lines, wall = run_once(workload, firsts[s] + i, seconds, False)
                run_wall.append(wall)
                snapshot.setdefault("machine", tagged(lines, "machine")[0])
                failed += result["failed"]
                attempted += result["attempted"]
                for name, metric in result["metrics"].items():
                    values[s].setdefault(name, []).append(metric["value"])
        entry = {"failed": failed, "attempted": attempted, "run_wall_s": run_wall,
                 "sets": [{"seeds": [first, first + RUNS - 1], "end_to_end": {}}
                          for first in firsts],
                 "second_over_first": {}}
        print(f"{workload}: failed {failed}/{attempted}, runs took "
              f"{min(run_wall):.1f}-{max(run_wall):.1f} s")
        for name in values[0]:
            a, b = stats(values[0][name]), stats(values[1][name])
            entry["sets"][0]["end_to_end"][name] = a
            entry["sets"][1]["end_to_end"][name] = b
            shift = b["median"] / a["median"]
            entry["second_over_first"][name] = shift
            if name != "setup_s":
                worst_spread = max(worst_spread, a["spread"] / bounds[name],
                                   b["spread"] / bounds[name])
            worst_shift = max(worst_shift, abs(shift - 1) / bounds[name])
            print(f"  {name:15s} median {a['median']:10.5g} {b['median']:10.5g}  "
                  f"spread {a['spread']:6.4f} {b['spread']:6.4f}  second/first {shift:6.4f}  "
                  f"bound {bounds[name]:.2f}")
        if args.traced:
            result, lines, _ = run_once(workload, args.first_seed, seconds, True)
            entry["traced"] = {
                "failed": result["failed"], "attempted": result["attempted"],
                "per_layer": {k: m["value"] for k, m in result["metrics"].items()},
                "reference": tagged(lines, "reference"),
                "kernel": tagged(lines, "kernel"),
            }
            print(f"  traced: failed {result['failed']}/{result['attempted']}")
        snapshot["workloads"][workload] = entry
    print(f"largest spread/bound (setup_s excluded): {worst_spread:.2f}")
    print(f"largest |second/first - 1|/bound: {worst_shift:.2f}")
    if args.out:
        args.out.write_text(json.dumps(snapshot, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
