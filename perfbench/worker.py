"""One fresh process of the tautilt benchmark.

    python3 perfbench/worker.py --mode setup|run|trace --workload NAME
                                --seed N [--seconds S]

setup  times the import of tautilt.cli and the build of the workload's
       algebras, with the host speed reference job before and after it,
       then exits;
run    does the same set-up, then runs whole passes over the workload's
       queries until S seconds have passed (at least one pass), timing
       the reference job after each query of a rescaled workload;
trace  installs the layer tracer before set-up, runs one untraced pass,
       then one traced pass, both with one walk thread.

Prints one JSON object on stdout.  Only tautilt from the checkout's
``src`` directory is used.
"""
from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from dataclasses import asdict, replace
from pathlib import Path

import hostspeed
import workloads as W

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def _pass(spec, insts, seed, refs):
    """Run every query once.  With spec.rescale, the reference job is
    timed after each query and the query is rescaled by the reference
    times around it; refs holds the latest one."""
    out = []
    for inst in insts:
        o = W.run_query(spec, inst, seed)
        if spec.rescale:
            refs.append(hostspeed.reference_seconds())
            o.scale = hostspeed.scale(refs[-2], refs[-1])
        out.append(o)
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--mode", choices=("setup", "run", "trace"),
                    required=True)
    ap.add_argument("--workload", choices=sorted(W.SPECS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--spans", default=None,
                    help="trace mode: file to write the spans to")
    args = ap.parse_args(argv)
    spec = W.SPECS[args.workload]
    sys.path.insert(0, str(SRC))
    clock = time.perf_counter

    ref_before = hostspeed.reference_seconds()
    t0 = clock()
    import tautilt.cli
    tracer = None
    if args.mode == "trace":
        from layertrace import Tracer
        tracer = Tracer()
        tracer.install()
    insts = W.prepare(spec, args.seed)
    setup_s = clock() - t0
    refs = [hostspeed.reference_seconds()]
    setup_scale = hostspeed.scale(ref_before, refs[0])

    if Path(tautilt.cli.__file__).resolve().parent.parent != SRC:
        print(f"tautilt imported from {tautilt.cli.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    out = {"setup_s": setup_s, "setup_scale": setup_scale}
    if args.mode == "setup":
        print(json.dumps(out))
        return 0

    passes = []
    if args.mode == "run":
        start = clock()
        while True:
            passes.append(_pass(spec, insts, args.seed, refs))
            if clock() - start >= args.seconds:
                break
    else:
        # Walk threads share the HomK and radical caches without a lock,
        # so at two threads the counts vary from run to run, and the
        # tracer keeps one span stack: traced runs walk on one thread.
        spec = replace(spec, threads=1, rescale=False)
        tracer.uninstall()
        untraced = _pass(spec, insts, args.seed, refs)
        tracer.install()
        traced = _pass(spec, insts, args.seed, refs)
        tracer.uninstall()
        passes = [untraced, traced]
        ratio = (sum(o.seconds for o in traced)
                 / sum(o.seconds for o in untraced))
        out["per_layer"] = tracer.metrics(ratio)
        out["missing"] = tracer.missing
        if args.spans:
            Path(args.spans).parent.mkdir(parents=True, exist_ok=True)
            out["spans"] = tracer.write_spans(args.spans)

    # A query's labelling-dependent digest must repeat in every pass.
    for q in range(len(insts)):
        if len({p[q].digest for p in passes}) > 1:
            for p in passes:
                p[q].ok = False
                p[q].note = p[q].note or f"{insts[q].key}: digest varies"
    out["passes"] = [[asdict(o) for o in p] for p in passes]
    out["keys"] = [inst.key for inst in insts]
    out["peak_rss_kib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
