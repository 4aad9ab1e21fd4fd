"""The measured process of the benchmark, started by run.py.

Set-up imports liefock from the checkout's src/ and builds the workload's
inputs, then prints `ready`. Unless --setup-only is given, it then runs
passes until the next one would end after --seconds (at least one), checks
every pass, and prints one JSON line with the samples and the digests of
each pass's outputs.

With --trace 1 a warm-up pass is followed by alternating untraced and
traced passes, at least one of each; per-layer figures come from the traced
ones.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from dataclasses import dataclass

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


@dataclass
class Pass:
    traced: bool
    wall_s: float
    cpu_s: float
    total_s: float  # including the checks
    checks: list
    digests: dict
    layers: dict


def run_pass(workload, outdir, tracer=None):
    started = time.perf_counter()
    shutil.rmtree(outdir, ignore_errors=True)
    os.makedirs(outdir)
    if tracer is not None:
        tracer.install()
    try:
        wall0, cpu0 = time.perf_counter(), time.process_time()
        outcome = workload.run(outdir)
        wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
    finally:
        if tracer is not None:
            tracer.restore()
    checks = workload.checks(outcome)
    digests = workload.digests(outcome)
    layers = {}
    if tracer is not None:
        layers = tracer.layer_metrics()
        layers["output.bytes"] = sum(os.path.getsize(os.path.join(outdir, f)) for f in os.listdir(outdir))
        layers["trace.unattributed_s"] = wall - sum(tracer.self_s.values())
    return Pass(tracer is not None, wall, cpu, time.perf_counter() - started, checks, digests, layers)


def environment():
    import numpy
    import scipy

    def blas_version(module):
        try:
            return module.show_config(mode="dicts")["Build Dependencies"]["blas"]["version"]
        except (TypeError, KeyError):
            return "unknown"

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": int(os.environ.get("OPENBLAS_NUM_THREADS", "0")),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas_numpy": blas_version(numpy),
        "openblas_scipy": blas_version(scipy),
    }


def measure(workload, args, workdir):
    from tracing import Tracer

    outdir = os.path.join(workdir, "out")
    passes = []
    started = time.perf_counter()
    while True:
        # a traced run compares untraced and traced passes after a warm-up
        # pass, because the first pass of a process is the slowest
        traced = bool(args.trace) and len(passes) > 0 and len(passes) % 2 == 0
        tracer = Tracer() if traced else None
        passes.append(run_pass(workload, outdir, tracer))
        if tracer is not None:
            tracer.dump(os.path.join(HERE, "out", f"spans-{workload.name}-seed{args.seed}.json.gz"))
        typical = statistics.median(p.total_s for p in passes)
        if len(passes) >= 1 + 2 * args.trace and time.perf_counter() - started + typical > args.seconds:
            break

    checks = [c for p in passes for c in p.checks]
    failures = [c for c in checks if not c.ok and not c.known_defect]
    known = [c for c in checks if c.known_defect]
    result = {
        "passes": [
            {"warm_up": args.trace and k == 0, "traced": p.traced, "wall_s": p.wall_s, "cpu_s": p.cpu_s,
             "digests": p.digests}
            for k, p in enumerate(passes)
        ],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "attempted": len(checks),
        "failed": len(failures),
        "known_defects": len(known),
        "failures": [f"{c.name}: {c.detail}" for c in failures[:20]],
        "known": sorted({f"{c.name}: {c.detail}" for c in known}),
        "environment": environment(),
    }
    traced = [p for p in passes if p.traced]
    if traced:
        names = set().union(*(p.layers for p in traced))
        result["layers"] = {n: statistics.median(p.layers.get(n, 0) for p in traced) for n in sorted(names)}
    return result


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    sys.path[:0] = [os.path.join(ROOT, "src"), HERE]
    import liefock

    if os.path.dirname(os.path.abspath(liefock.__file__)) != os.path.join(ROOT, "src", "liefock"):
        print(f"liefock was imported from {liefock.__file__}, not from this checkout", file=sys.stderr)
        return 2
    import workloads

    workdir = os.path.join(HERE, "out", f"{args.workload}-{os.getpid()}")
    inputs = os.path.join(workdir, "inputs")
    os.makedirs(inputs)
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed, inputs)
        print("ready", flush=True)
        if args.setup_only:
            return 0
        result = measure(workload, args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
