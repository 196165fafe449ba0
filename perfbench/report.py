"""Print every metric of the tautilt benchmark, by name and unit.

    python3 perfbench/report.py [--seed N] [--seconds S] [--workload NAME ...]

For each workload (all of BENCHMARK.json by default) this makes one
untraced run and one traced run through perfbench/run.py and prints each
end-to-end and per-layer metric with its unit and sample count, the
unscaled wall and set-up times, and the derived fail_ratio (failed /
attempted queries) and nodes_per_s (nodes one pass creates / wall_s).
Exits 1 when any query gave a wrong answer and 2 when a run could not be
made.
"""
from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _run(workload, seed, seconds, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if len(lines) < 2 or not lines[-2].startswith("detail "):
        print(f"{workload}: run failed (exit {proc.returncode})\n"
              f"{proc.stderr.strip()}", file=sys.stderr)
        return None, None
    return json.loads(lines[-2][len("detail "):]), json.loads(lines[-1])


def _line(name, value, unit, samples):
    shown = f"{value:.6g}" if isinstance(value, float) else str(value)
    print(f"  {name:34s} {shown:>14s} {unit:8s} {samples}")


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=bench["run_seconds"])
    ap.add_argument("--workload", action="append",
                    choices=[w["name"] for w in bench["workloads"]])
    args = ap.parse_args(argv)
    status = 0
    for workload in args.workload or [w["name"] for w in bench["workloads"]]:
        print(f"{workload} (seed {args.seed})")
        attempted = failed = 0
        wall = nodes = None
        for trace in (0, 1):
            detail, result = _run(workload, args.seed, args.seconds, trace)
            if result is None:
                status = 2
                continue
            attempted += result["attempted"]
            failed += result["failed"]
            for note in detail["failures"]:
                print(f"  WRONG: {note}")
            samples = detail["samples"]
            for name, m in result["metrics"].items():
                if name in samples:
                    n = f"n={samples[name]}"
                else:
                    n = "n=1 traced pass" if trace else "n=1"
                _line(name, m["value"], m["unit"], n)
            for name in ("raw_wall_s", "raw_setup_s"):
                if name in detail:
                    _line(name, detail[name], "s", "unscaled")
            metrics = result["metrics"]
            if "wall_s" in metrics:
                wall = metrics["wall_s"]["value"]
            if "engine.nodes" in metrics:
                nodes = metrics["engine.nodes"]["value"]
        if wall and nodes:
            _line("nodes_per_s", nodes / wall, "nodes/s",
                  f"{nodes} nodes per pass")
        if attempted:
            _line("fail_ratio", failed / attempted, "ratio",
                  f"{failed} of {attempted} queries")
        if failed and status == 0:
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
