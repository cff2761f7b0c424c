"""One workload in its own process: set-up, closed timed loop, checks.

Started by ``run.py`` with the BLAS thread count and ``PYTHONPATH`` already
fixed in the environment.  Prints one JSON object as its last line of
standard output.  ``--setup-only`` stops after set-up, so that ``run.py`` can
take the median of several set-ups.
"""

import argparse
import ctypes
import gc
import json
import os
import resource
import sys
import time
import traceback

import numpy as np

import ucoset
from ucoset import haar

import reference as ref
import speed
from spans import Tracer
from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
OVERRUN = 1.5  # a run stops early once its loop has taken this many times --seconds


def blas_threads():
    """Thread count reported by the OpenBLAS that numpy loaded, or -1."""
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads",
                       "openblas_get_num_threads64_"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return -1


def tail(sorted_values):
    """The value with ten samples above it: the highest such percentile.

    With ten samples or fewer no percentile has ten beyond it; the largest
    value is returned then.
    """
    return sorted_values[-11] if len(sorted_values) > 10 else sorted_values[-1]


def rounds_for(wl, seconds):
    """Rounds in a run of about ``seconds``: fixed by the workload's nominal round time.

    A fixed count gives every run of a given length the same ops, so the
    tail always has the same rank in the same op mix.
    """
    return max(1, round(seconds / wl.ROUND_S))


def timed_loop(wl, rounds, max_seconds=None, tracer=None):
    """Closed loop with one client over ``rounds`` whole rounds.

    Stops early only after a round that ends past ``max_seconds`` of wall
    time (ops and checks), so that a much slower program still ends in time.
    Only the op is timed; its check, a garbage collection and the machine's
    speed factor run between ops.  An op's factor is the mean of the factors
    taken just before and just after it.
    """
    lat, factors, kinds, digests, problems = [], [], [], [], []
    health = {"reconstruction_err": 0.0, "unitarity_defect": 0.0}
    attempted = failed = 0
    r = 0
    start = time.monotonic()
    while r < rounds and (r == 0 or max_seconds is None or time.monotonic() - start < max_seconds):
        for op in wl.round(r):
            attempted += 1
            gc.collect()
            before = speed.factor(wl.SPEED_KERNELS)
            if tracer is not None:
                tracer.begin_op(attempted)
            t0 = time.perf_counter_ns()
            try:
                out = op.run() if tracer is None else tracer.span(f"op.{op.kind}", op.run)
            except Exception:  # an op the program fails counts as failed, the run goes on
                traceback.print_exc()
                failed += 1
                continue
            finally:
                dt = time.perf_counter_ns() - t0
                if tracer is not None:
                    tracer.end_op()
                op_factor = (before + speed.factor(wl.SPEED_KERNELS)) / 2
            if op.failed(out):
                failed += 1
                continue
            lat.append(dt)
            factors.append(op_factor)
            kinds.append(op.kind)
            try:
                for key, value in op.check(out).items():
                    health[key] = max(health[key], value)
                digests.append(op.digest(out))
            except ref.CheckFailed as exc:
                problems.append(f"{op.kind}: {exc}")
                digests.append(None)
        r += 1
    return {"lat": lat, "factor": factors, "kind": kinds, "digests": digests,
            "problems": problems, "health": health,
            "attempted": attempted, "failed": failed, "rounds": r}


def nominal_ms(res):
    """Op latencies in ms at the machine's nominal speed (see ``speed``)."""
    return np.array(res["lat"], dtype=float) / np.array(res["factor"]) / 1e6


def end_to_end(res, peak_rss_kib):
    """End-to-end metrics of one timed loop, from its nominal-speed latencies.

    Throughput takes every op at its kind's median latency over the run, so
    that a few ops slowed by a burst of the machine that the speed factors
    at their ends missed do not move it; the tail shows such ops.
    """
    lat = nominal_ms(res)
    kinds = np.array(res["kind"])
    typical = np.empty_like(lat)
    for kind in np.unique(kinds):
        typical[kinds == kind] = np.median(lat[kinds == kind])
    return {
        "throughput_ops_per_s": float(len(lat) / (typical.sum() / 1e3)),
        "latency_p50_ms": float(np.median(lat)),
        "latency_tail_ms": float(tail(np.sort(lat))),
        "peak_rss_mib": peak_rss_kib / 1024.0,
    }


PER_OP_SPANS = {
    # metric name -> (span name, field, scale); field is calls or self time
    "haar.haar_unitary.self_us": ("haar.haar_unitary", "self", 1e-3),
    "haar.sample_ball.self_us": ("haar.sample_ball", "self", 1e-3),
    "haar.sample_ball.calls": ("haar.sample_ball", "calls", 1),
    "haar.ks_statistic.self_ms": ("haar.ks_statistic", "self", 1e-6),
    "haar.haar_validate.self_ms": ("haar.haar_validate", "self", 1e-6),
    "householder.decompose.self_ms": ("householder.decompose", "self", 1e-6),
    "householder.decompose_reversed.self_ms": ("householder.decompose_reversed", "self", 1e-6),
    "householder.reconstruct.self_ms": ("householder.reconstruct", "self", 1e-6),
    "householder.pivot_from_column.self_ms": ("householder.pivot_from_column", "self", 1e-6),
    "householder.apply_reflection.calls": ("householder.apply_reflection", "calls", 1),
    "householder.apply_reflection.self_ms": ("householder.apply_reflection", "self", 1e-6),
    "householder.reflect_matrix.calls": ("householder.reflect_matrix", "calls", 1),
    "numkit.unitarity_error.calls": ("numkit.unitarity_error", "calls", 1),
    "numkit.unitarity_error.self_ms": ("numkit.unitarity_error", "self", 1e-6),
    "coset.cosets_from_householder.self_ms": ("coset.cosets_from_householder", "self", 1e-6),
    "coset.cosets_from_householder_reversed.self_ms":
        ("coset.cosets_from_householder_reversed", "self", 1e-6),
    "coset.compose_cosets.self_ms": ("coset.compose_cosets", "self", 1e-6),
    "coset.extract_coset_vector.self_us": ("coset.extract_coset_vector", "self", 1e-3),
}

WORKLOAD_METRICS = ("haar.rng.variates_per_op", "coset.alloc_peak_mib", "cli.process_start_ms",
                    "cli.main.decompose_ms", "cli.main.reconstruct_ms", "cli.main.verify_ms",
                    "cli.main.sample_ms", "cli.json_bytes_written", "cli.json_bytes_read")


def median_call_ns(reps, fn, *args):
    times = []
    for _ in range(reps):
        t0 = time.perf_counter_ns()
        fn(*args)
        times.append(time.perf_counter_ns() - t0)
    return float(np.median(times))


def reference_timings(dims, seed):
    """LAPACK reference at the workload's sizes: median per call, mean over dims."""
    qr_ms, oracle_us = [], []
    rng = np.random.default_rng(seed)
    for n in dims:
        z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        reps = max(5, min(200, int(2e6 / n ** 3)))
        qr_ms.append(median_call_ns(reps, np.linalg.qr, z) / 1e6)
        oracle_us.append(median_call_ns(reps, haar.haar_oracle, n, haar.RngStream(seed, 2 ** 62)) / 1e3)
    return {"ref.np_qr_ms": float(np.mean(qr_ms)), "ref.haar_oracle_us": float(np.mean(oracle_us))}


def traced_run(wl, seconds, seed, span_path):
    """Untraced half, then the same rounds traced; per-layer metrics."""
    base = timed_loop(wl, max(1, rounds_for(wl, seconds) // 2), OVERRUN * seconds / 2)
    tracer = Tracer()
    tracer.install()
    wl.begin_trace(tracer)
    try:
        traced = timed_loop(wl, base["rounds"], tracer=tracer)
    finally:
        wl.tracer = None
        tracer.uninstall()
    ops = len(traced["lat"])
    problems = base["problems"] + traced["problems"]
    if base["digests"] != traced["digests"]:
        problems.append("traced outputs are not bitwise equal to the untraced outputs")
    summary = tracer.summary()
    metrics = {}
    for name, (span, field, scale) in PER_OP_SPANS.items():
        calls, _, self_ns = summary.get(span, (0, 0.0, 0.0))
        metrics[name] = (calls if field == "calls" else self_ns * scale) / ops
    extra = wl.trace_metrics(ops)
    for name in WORKLOAD_METRICS:
        metrics[name] = float(extra.get(name, 0.0))
    metrics["numeric.max_reconstruction_err"] = max(
        base["health"]["reconstruction_err"], traced["health"]["reconstruction_err"])
    metrics["numeric.max_unitarity_defect"] = max(
        base["health"]["unitarity_defect"], traced["health"]["unitarity_defect"])
    metrics.update(reference_timings(wl.ref_dims, seed))
    metrics["trace.overhead_pct"] = 100.0 * (
        np.median(nominal_ms(traced)) / np.median(nominal_ms(base)) - 1.0)
    metrics["env.speed_factor"] = float(np.median(base["factor"] + traced["factor"]))
    metrics["trace.spans_per_op"] = len(tracer.name) / ops
    metrics["env.blas_threads"] = blas_threads()
    tracer.save(span_path)
    return {"metrics": metrics, "problems": problems,
            "attempted": base["attempted"] + traced["attempted"],
            "failed": base["failed"] + traced["failed"]}


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--t0-ns", type=int, required=True,
                   help="CLOCK_MONOTONIC reading taken just before this process was started")
    p.add_argument("--workdir", required=True)
    args = p.parse_args(argv)

    src = os.path.realpath(os.path.join(os.path.dirname(HERE), "src"))
    if not os.path.realpath(ucoset.__file__).startswith(src + os.sep):
        raise SystemExit(f"ucoset imported from {ucoset.__file__}, not from {src}")
    wl = WORKLOADS[args.workload](args.seed, args.workdir, inprocess=bool(args.trace))
    wl.warm_up()
    speed.factor(wl.SPEED_KERNELS)  # its first call pays for lazy set-up
    gc.collect()
    setup_ns = time.monotonic_ns() - args.t0_ns
    # Set-up at nominal speed: divided by the factor taken just after it.
    setup_s = setup_ns / 1e9 / speed.factor(wl.SPEED_KERNELS)
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    if args.trace:
        span_path = os.path.join(os.path.dirname(args.workdir),
                                 f"spans-{args.workload}-seed{args.seed}.npz")
        out = traced_run(wl, args.seconds, args.seed, span_path)
    else:
        res = timed_loop(wl, rounds_for(wl, args.seconds), OVERRUN * args.seconds)
        metrics = end_to_end(res, resource.getrusage(wl.rss_of).ru_maxrss)
        metrics["setup_s"] = setup_s
        out = {"metrics": metrics, "problems": res["problems"],
               "attempted": res["attempted"], "failed": res["failed"],
               "blas_threads": blas_threads(), "rounds": res["rounds"]}
    for line in out["problems"]:
        print(f"check failed: {line}", file=sys.stderr)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
