"""liefock benchmark.

    python3 perfbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Run from the root of a checkout. For each workload (all four with `all`)
prints a readable summary, then one JSON line: {"correct", "attempted",
"failed", "metrics"}. With --trace 0 the
metrics are the end-to-end ones of BENCHMARK.json, with --trace 1 the
per-layer ones. Exits non-zero without a result when the checkout has no
liefock sources or the measured process fails.

Measuring happens in fresh processes (worker.py), started with the
BLAS/OpenMP thread count pinned to BLAS_THREADS. An untraced run first
starts SETUP_SAMPLES - 1 processes that only set up, then one process that
sets up and runs passes for what is left of --seconds; `wall_s` and `cpu_s`
are medians over its passes. A traced run uses one process and compares
traced with untraced passes after a warm-up pass. Set-up time is the time
from starting a fresh interpreter to the first timed call, the median over
every process of the run. Every pass of a run must write the same bytes as
the first.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("scenario_defaults", "large_sector", "algebra_verify", "phase_space")
SETUP_SAMPLES = 5
TIMEOUT_S = 170
# one BLAS thread: on a shared 2-CPU machine a second one did not shorten
# passes, and it kept the other CPU spinning
BLAS_THREADS = 1


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def worker_env():
    threads = str(BLAS_THREADS)
    return dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads, MKL_NUM_THREADS=threads)


def run_worker(args, deadline, seconds=0.0, setup_only=False):
    """Run worker.py once. Returns its set-up time (from the start of the
    process to its `ready` line) and its JSON result, None with setup_only.
    The process is killed at the deadline."""
    argv = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", args.workload, "--seed",
            str(args.seed), "--seconds", str(seconds), "--trace", str(args.trace)]
    if setup_only:
        argv.append("--setup-only")
    started = time.perf_counter()
    proc = subprocess.Popen(argv, cwd=ROOT, env=worker_env(), stdout=subprocess.PIPE, text=True)
    killer = threading.Timer(max(deadline - started, 0), proc.kill)
    killer.start()
    try:
        ready = proc.stdout.readline().strip() == "ready"
        setup_s = time.perf_counter() - started
        lines = proc.stdout.read().strip().splitlines()
        proc.wait()
    finally:
        killer.cancel()
    if not ready or proc.returncode != 0:
        fail(f"the {args.workload} worker exited with code {proc.returncode}{'' if ready else ' during set-up'}")
    if setup_only:
        return setup_s, None
    if not lines:
        fail(f"the {args.workload} worker printed no result")
    return setup_s, json.loads(lines[-1])


def changed_outputs(reference, digests):
    """Names of the outputs whose SHA-256 differs from the reference pass's."""
    return sorted(k for k in reference.keys() | digests.keys() if reference.get(k) != digests.get(k))


def bench(args, spec):
    """Measure one workload; prints its summary and result line."""
    started = time.perf_counter()
    deadline = started + TIMEOUT_S
    setup = [run_worker(args, deadline, setup_only=True)[0] for _ in range(0 if args.trace else SETUP_SAMPLES - 1)]
    setup_s, sample = run_worker(args, deadline, seconds=args.seconds - (time.perf_counter() - started))
    setup.append(setup_s)

    passes = sample["passes"]
    identity = [
        ("trace_neutral" if p["traced"] else "deterministic", changed_outputs(passes[0]["digests"], p["digests"]))
        for p in passes[1:]
    ]
    attempted = sample["attempted"] + len(identity)
    known = sample["known_defects"]
    failures = list(sample["failures"])
    failures += [f"{name}: outputs that differ from the first pass: {changed}" for name, changed in identity if changed]
    failed = sample["failed"] + sum(1 for _, changed in identity if changed)
    untraced = [p for p in passes if not p["traced"] and not p["warm_up"]]
    wall = [p["wall_s"] for p in untraced]
    cpu = [p["cpu_s"] for p in untraced]

    env = sample["environment"]
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    print("environment " + "  ".join(f"{k}={v}" for k, v in env.items()))
    values = {
        "wall_s": statistics.median(wall),
        "cpu_s": statistics.median(cpu),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": sample["peak_rss_mb"],
        "pass_frac": (attempted - failed - known) / attempted,
    }
    for name, values_of in (("wall_s", wall), ("cpu_s", cpu), ("setup_s", setup)):
        print(f"  {name:<12}{values[name]:10.4f} s   median of {len(values_of)}, "
              f"range {min(values_of):.4f} .. {max(values_of):.4f}")
    print(f"  {'cpu/wall':<12}{values['cpu_s'] / values['wall_s']:10.4f}     BLAS threads {env['blas_threads']}")
    print(f"  {'peak_rss_mb':<12}{values['peak_rss_mb']:10.1f} MB  of the measuring process")
    print(f"  {'failed_frac':<12}{(failed + known) / attempted:10.4f}     {failed + known} of {attempted} checks failed,"
          f" {known} of them the documented known defect")
    for line in sample["known"]:
        print(f"    known defect  {line}")
    for line in failures:
        print(f"    FAILED        {line}")

    if args.trace:
        layers = sample["layers"]
        traced_wall = statistics.median(p["wall_s"] for p in passes if p["traced"])
        layers["trace.overhead_s"] = traced_wall - values["wall_s"]
        print(f"  traced wall_s {traced_wall:.4f} s")
        metrics = {m["name"]: {"value": layers.get(m["name"], 0), "unit": m["unit"]} for m in spec["per_layer"]}
        for name, metric in metrics.items():
            print(f"    {name:<24}{metric['value']:>16.6g} {metric['unit']}")
    else:
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec["end_to_end"]}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))


def main(argv=None):
    parser = argparse.ArgumentParser(description="liefock benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "liefock", "cli.py")):
        fail(f"no liefock sources under {os.path.join(ROOT, 'src')}")
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    # byte-compile once so that set-up samples time imports, not compilation
    subprocess.run([sys.executable, "-m", "compileall", "-q", "src", "perfbench"], cwd=ROOT, check=True,
                   stdout=subprocess.DEVNULL)
    for workload in WORKLOADS if args.workload == "all" else (args.workload,):
        bench(argparse.Namespace(**{**vars(args), "workload": workload}), spec)


if __name__ == "__main__":
    main()
