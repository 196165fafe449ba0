"""The tautilt benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the library is imported from its ``src``
directory.  Every measurement happens in a fresh worker process
(perfbench/worker.py), so each run pays the imports and algebra builds a
command-line user pays.

--trace 0 reports the end-to-end metrics:

  wall_s       median wall time of one pass over the workload's queries;
               passes repeat until S seconds have passed
  setup_s      median over SETUP_SAMPLES fresh processes of the time from
               before ``import tautilt.cli`` until the workload's algebras
               are built
  peak_rss_mb  peak resident memory of the measuring process

Set-up times, and the query times of the workloads with Spec.rescale,
are rescaled to the nominal host speed of perfbench/hostspeed.py by its
reference job timed just before and after them.  The detail line gives
the unscaled medians as raw_wall_s and raw_setup_s.

--trace 1 reports the per-layer metrics of perfbench/layertrace.py over
a traced set-up and one traced pass, and writes the spans to .bench_out/.

Every query's answer is checked against frozen answers
(perfbench/workloads.py).  The last line of stdout is the JSON result;
the line before it starts with "detail" and holds sample counts, per-query
medians and the fail ratio.  The exit code is 0 only
when every query was correct; when the run itself cannot be made (no
library to import, a worker crashed or ran out of time) nothing is
printed on stdout and the exit code is 2.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

from layertrace import METRICS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_SAMPLES = 3
DEADLINE_S = 170.0   # every run must end within 180 s


class RunError(RuntimeError):
    pass


def _worker(mode, args, deadline, extra=()):
    cmd = [sys.executable, str(HERE / "worker.py"), "--mode", mode,
           "--workload", args.workload, "--seed", str(args.seed), *extra]
    left = deadline - time.monotonic()
    if left <= 0:
        raise RunError("out of time before the run finished")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=left)
    except subprocess.TimeoutExpired:
        raise RunError(f"{mode} worker ran past the {DEADLINE_S:.0f} s limit")
    if proc.returncode != 0:
        raise RunError(f"{mode} worker exited with {proc.returncode}:\n"
                       f"{proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _summary(res):
    """Outcomes, failures, pass times and per-query medians of a worker."""
    passes = res["passes"]
    outcomes = [o for p in passes for o in p]
    failed = [o for o in outcomes if not o["ok"]]
    walls = [sum(o["seconds"] * o["scale"] for o in p) for p in passes]
    per_query = {key: statistics.median(p[i]["seconds"] for p in passes)
                 for i, key in enumerate(res["keys"])}
    return outcomes, failed, walls, per_query


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S
    try:
        if not (ROOT / "src" / "tautilt" / "__init__.py").is_file():
            raise RunError(f"no tautilt package under {ROOT / 'src'}")
        if args.trace:
            spans = ROOT / ".bench_out" / (
                f"spans-{args.workload}-seed{args.seed}.jsonl")
            res = _worker("trace", args, deadline,
                          ("--spans", str(spans)))
            outcomes, failed, walls, per_query = _summary(res)
            metrics = res["per_layer"]
            units = {name: unit for name, unit, _ in METRICS}
            mutations = metrics["complexes.mutate_calls"]
            samples = {"complexes.mutate_p50_ms": mutations,
                       "complexes.mutate_tail_ms": mutations}
            detail = {"spans": res["spans"], "spans_file": str(spans),
                      "missing_bindings": res["missing"]}
        else:
            # set-up samples before and after the timed run, so that their
            # median spans the run
            before = (SETUP_SAMPLES - 1) // 2
            setups = [_worker("setup", args, deadline)
                      for _ in range(before)]
            res = _worker("run", args, deadline,
                          ("--seconds", str(args.seconds)))
            setups.append(res)
            setups += [_worker("setup", args, deadline)
                       for _ in range(SETUP_SAMPLES - 1 - before)]
            outcomes, failed, walls, per_query = _summary(res)
            metrics = {"wall_s": statistics.median(walls),
                       "setup_s": statistics.median(
                           r["setup_s"] * r["setup_scale"] for r in setups),
                       "peak_rss_mb": res["peak_rss_kib"] / 1024.0}
            units = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MiB"}
            samples = {"wall_s": len(walls), "setup_s": len(setups),
                       "peak_rss_mb": 1}
            detail = {"raw_wall_s": statistics.median(
                          sum(o["seconds"] for o in p) for p in res["passes"]),
                      "raw_setup_s": statistics.median(
                          r["setup_s"] for r in setups)}
    except (RunError, OSError, ValueError, KeyError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    detail.update({"workload": args.workload, "seed": args.seed,
                   "samples": samples, "query_median_s": per_query,
                   "fail_ratio": len(failed) / len(outcomes),
                   "failures": sorted({o["note"] for o in failed})})
    print("detail " + json.dumps(detail))
    result = {"correct": not failed, "attempted": len(outcomes),
              "failed": len(failed),
              "metrics": {name: {"value": value, "unit": units[name]}
                          for name, value in metrics.items()}}
    print(json.dumps(result))
    return 0 if not failed else 1


if __name__ == "__main__":
    sys.exit(main())
