"""Benchmark entry point: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload haar-sample --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

Runs from any directory; the program is imported from ``src/`` next to this
directory.  Each workload runs in its own worker process with one BLAS
thread.  With ``--trace 0`` the result holds the end-to-end metrics: the
worker's timed loop gives throughput, latency and peak RSS, and ``setup_s``
is the median over seven set-ups in fresh processes (three set-up-only
workers before the measuring worker, the measuring worker, three after),
after one unmeasured priming set-up.
With ``--trace 1`` it holds the per-layer metrics of a traced worker.  The
last line of standard output is the result; the exit code is non-zero when
no result could be produced.
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("haar-sample", "householder-large", "coset-roundtrip", "cli-roundtrip")
BLAS_THREADS = 1
SETUP_PROBES = 6
WORKER_TIMEOUT_S = 90


class WorkerError(RuntimeError):
    pass


def worker_env(src):
    env = dict(os.environ)
    env["PYTHONPATH"] = src
    env["PYTHONHASHSEED"] = "0"
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


def run_worker(args, env, deadline, *extra):
    """Start a worker, wait for it, return its JSON result line."""
    t0 = time.monotonic_ns()
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--t0-ns", str(t0), "--workdir", args.workdir, *extra]
    proc = subprocess.Popen(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise WorkerError("worker timed out") from None
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerError(f"worker exited with code {proc.returncode}")
    return json.loads(lines[-1])


def measure(args, env):
    # Eight workers share the deadline; the measuring one runs for about
    # --seconds (a traced one for 1.5 times that), the others only set up.
    deadline = time.monotonic() + WORKER_TIMEOUT_S + 3 * args.seconds
    if args.trace:
        res = run_worker(args, env, deadline)
        metrics = res["metrics"]
    else:
        run_worker(args, env, deadline, "--setup-only")  # compiles bytecode, fills caches
        # Probes before and after the timed loop, so that a slow stretch of
        # the machine a few seconds long cannot hold a majority of them.
        setups = [run_worker(args, env, deadline, "--setup-only")["setup_s"]
                  for _ in range(SETUP_PROBES // 2)]
        res = run_worker(args, env, deadline)
        metrics = res["metrics"]
        setups.append(metrics["setup_s"])
        setups += [run_worker(args, env, deadline, "--setup-only")["setup_s"]
                   for _ in range(SETUP_PROBES - SETUP_PROBES // 2)]
        metrics["setup_s"] = statistics.median(setups)
        print(f"{args.workload}: {res['attempted']} ops in {res['rounds']} rounds, "
              f"blas threads {res['blas_threads']}, set-ups {['%.3f' % s for s in setups]}",
              file=sys.stderr)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = json.load(fh)["per_layer" if args.trace else "end_to_end"]
    missing = [m["name"] for m in declared if m["name"] not in metrics]
    if missing:
        raise WorkerError(f"worker did not report {missing}")
    return {
        "correct": not res["problems"],
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in declared},
    }


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",),
                   help="one workload, or all four in turn (one result line each)")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be non-negative and --seconds positive")

    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "ucoset", "__init__.py")):
        print(f"error: no ucoset package under {src}", file=sys.stderr)
        return 2
    # On SIGTERM, unwind through run_worker's clean-up, which kills the worker.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    for name in names:
        args.workload = name
        args.workdir = os.path.join(ROOT, ".perfbench-out", f"{name}-{os.getpid()}")
        os.makedirs(args.workdir, exist_ok=True)
        try:
            result = measure(args, worker_env(src))
        except WorkerError as exc:
            print(f"error: {name}: {exc}", file=sys.stderr)
            return 1
        finally:
            shutil.rmtree(args.workdir, ignore_errors=True)
        if len(names) > 1:
            result = {"workload": name, **result}
        print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
