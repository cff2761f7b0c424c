"""The four benchmark workloads: inputs, op mix and output checks.

A workload is built from the run's seed; the program receives only the
matrices, streams and files made here.  ``round(r)`` gives the ops of round
``r``; a run executes whole rounds, so every run has the same op mix.  Each
op's ``run`` is the timed part; ``check`` runs after the clock stops and
raises ``reference.CheckFailed`` on a wrong output.

The program is reached through its module objects (``householder.decompose``
and so on), looked up at call time, so that the trace wrappers apply.
"""

import contextlib
import hashlib
import io
import json
import os
import resource
import subprocess
import sys
import time
import tracemalloc
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from ucoset import cli, coset, haar, householder

import reference as ref
import speed
from reference import require

FORWARD = "forward"
REVERSED = "reversed"


@dataclass
class Op:
    kind: str
    run: Callable[[], Any]
    check: Callable[[Any], dict]
    digest: Callable[[Any], bytes]
    failed: Callable[[Any], bool] = lambda out: False


def _digest(*arrays):
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.digest()


class Workload:
    name = ""
    ref_dims = ()
    rss_of = resource.RUSAGE_SELF  # whose peak RSS is the workload's
    # Typical wall time of one round (ops, checks, collections) on the
    # 2-vCPU x86-64 machine the benchmark was built on; sets the round count.
    ROUND_S: float
    SPEED_KERNELS = speed.COMPUTE  # reference work like the ops' (see speed.py)

    def __init__(self, seed, workdir, inprocess=False):
        self.seed = seed
        self.workdir = workdir
        self.inprocess = inprocess
        self.tracer = None

    def warm_up(self):
        """Run and check one small op of every kind, untimed."""

    def round(self, r):
        raise NotImplementedError

    def begin_trace(self, tracer):
        """Route the following ops through ``tracer`` and restart the counters."""
        self.tracer = tracer

    def trace_metrics(self, ops):
        """Workload-specific per-layer metrics of the last ``ops`` (traced) ops."""
        return {}


class HaarSample(Workload):
    """One op is one ``haar_validate`` job on its own RngStream key.

    Sample counts are set so that every job costs about the same on the code
    the benchmark was built against, which keeps the latency distribution a
    single cluster; ``haar_validate`` needs at least 1000 samples.
    """

    name = "haar-sample"
    ROUND_S = 2.85
    SAMPLES = {3: 3200, 4: 2200, 5: 1700, 6: 1400, 7: 1150, 8: 1000}
    ref_dims = tuple(SAMPLES)

    def __init__(self, seed, workdir, inprocess=False):
        super().__init__(seed, workdir, inprocess)
        self.draws = []

    def _job(self, dim, samples, stream):
        def run():
            rng = haar.RngStream(self.seed, stream)
            report = haar.haar_validate(dim, samples, rng)
            return report, rng.draws

        def check(out):
            report, draws = out
            defect, first = ref.check_haar_job(report, dim, samples, draws, self.seed, stream)
            direct = haar.haar_unitary(dim, haar.RngStream(self.seed, stream))
            dev = float(np.max(np.abs(direct - first)))
            require(dev <= 1e-12, f"haar_unitary differs from the replay by {dev:.2e}")
            self.draws.append(draws)
            return {"unitarity_defect": max(defect, ref.unitarity_defect(direct))}

        def digest(out):
            report, draws = out
            return _digest(np.float64(report.ks_statistic), report.mean_moduli, np.int64(draws))

        return Op(f"haar_validate[{dim}]", run, check, digest)

    def warm_up(self):
        op = self._job(3, 1000, 2 ** 63)
        op.check(op.run())
        self.draws.clear()

    def round(self, r):
        dims = list(self.SAMPLES)
        return [self._job(d, self.SAMPLES[d], r * len(dims) + i) for i, d in enumerate(dims)]

    def trace_metrics(self, ops):
        return {"haar.rng.variates_per_op": sum(self.draws[-ops:]) / ops}


class HouseholderLarge(Workload):
    """One op is ``decompose`` or ``decompose_reversed``, then ``reconstruct``."""

    name = "householder-large"
    ROUND_S = 1.1
    DIM = 256
    ref_dims = (DIM,)

    def __init__(self, seed, workdir, inprocess=False):
        super().__init__(seed, workdir, inprocess)
        rng = np.random.default_rng(seed)
        self.inputs = [ref.haar_matrix(self.DIM, rng) for _ in range(2)]
        self.small = ref.haar_matrix(32, rng)

    @staticmethod
    def _op(u, ordering):
        def run():
            f = _decompose(u, ordering)
            return f, householder.reconstruct(f)

        def check(out):
            f, rebuilt = out
            require(f.ordering == ordering, f"factorization ordering {f.ordering}, expected {ordering}")
            err = ref.check_householder(u, [r.pivot for r in f.reflections], f.pivot_phases,
                                        f.residual.phases, ordering, rebuilt)
            return {"reconstruction_err": err}

        def digest(out):
            f, rebuilt = out
            return _digest(*(r.pivot for r in f.reflections), f.pivot_phases,
                           f.residual.phases, rebuilt)

        return Op(f"{ordering}[{u.shape[0]}]", run, check, digest)

    def warm_up(self):
        for ordering in (FORWARD, REVERSED):
            op = self._op(self.small, ordering)
            op.check(op.run())

    def round(self, r):
        return [self._op(u, o) for u in self.inputs for o in (FORWARD, REVERSED)]


def _decompose(u, ordering):
    return (householder.decompose if ordering == FORWARD else householder.decompose_reversed)(u)


def _to_cosets(f, ordering):
    if ordering == FORWARD:
        return coset.cosets_from_householder(f)
    return coset.cosets_from_householder_reversed(f)


def _coset_chain(u, ordering):
    cf = _to_cosets(_decompose(u, ordering), ordering)
    vectors = [coset.extract_coset_vector(c) for c in cf.factors]
    return cf, vectors, coset.compose_cosets(cf)


class CosetRoundtrip(Workload):
    """One op: decompose, coset conversion, extract every X, compose.

    The round visits N = 64, 96, 128 twice with the ordering alternating,
    so each N runs both orderings.
    """

    name = "coset-roundtrip"
    ROUND_S = 0.65
    DIMS = (64, 96, 128)
    ref_dims = DIMS

    def __init__(self, seed, workdir, inprocess=False):
        super().__init__(seed, workdir, inprocess)
        rng = np.random.default_rng(seed)
        self.inputs = {n: ref.haar_matrix(n, rng) for n in self.DIMS}
        self.small = ref.haar_matrix(16, rng)

    @staticmethod
    def _op(u, ordering):
        def run():
            cf, vectors, composed = _coset_chain(u, ordering)
            return (cf.ordering, [v.x for v in vectors], [v.rho for v in vectors],
                    np.array(cf.terminal_phases.phases), composed)

        def check(out):
            got, xs, rhos, terminal, composed = out
            require(got == ordering, f"coset ordering {got}, expected {ordering}")
            return {"reconstruction_err": ref.check_coset(u, xs, rhos, terminal, ordering, composed)}

        def digest(out):
            _, xs, rhos, terminal, composed = out
            return _digest(*xs, np.array(rhos), terminal, composed)

        return Op(f"{ordering}[{u.shape[0]}]", run, check, digest)

    def warm_up(self):
        for ordering in (FORWARD, REVERSED):
            op = self._op(self.small, ordering)
            op.check(op.run())

    def round(self, r):
        orderings = (FORWARD, REVERSED)
        return [self._op(self.inputs[self.DIMS[i % 3]], orderings[i % 2]) for i in range(6)]

    def alloc_peak_mib(self):
        """tracemalloc peak across conversion and compose, largest over the op kinds."""
        peak = 0
        for n in self.DIMS:
            for ordering in (FORWARD, REVERSED):
                f = _decompose(self.inputs[n], ordering)
                tracemalloc.start()
                try:
                    coset.compose_cosets(_to_cosets(f, ordering))
                    peak = max(peak, tracemalloc.get_traced_memory()[1])
                finally:
                    tracemalloc.stop()
        return peak / 2 ** 20

    def trace_metrics(self, ops):
        return {"coset.alloc_peak_mib": self.alloc_peak_mib()}


def write_matrix_file(path, m):
    """Matrix file in the CLI's format: rows, cols, data of [re, im] pairs."""
    obj = {"rows": int(m.shape[0]), "cols": int(m.shape[1]),
           "data": [[[float(z.real), float(z.imag)] for z in row] for row in m]}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh)


def _read(path):
    with open(path, "rb") as fh:
        return fh.read()


def matrix_from_obj(obj):
    data = np.array(obj["data"], dtype=float)
    require(data.shape == (obj["rows"], obj["cols"], 2), f"matrix data has shape {data.shape}")
    return data[..., 0] + 1j * data[..., 1]


class CliRoundtrip(Workload):
    """Fresh ``ucoset`` processes on matrix and factorization files.

    A round is five ops: decompose-reconstruct-verify at N = 32 in modes
    householder, coset and coset-reversed, each on its own input, with a
    ``sample`` op at dim 3 after the first and one at dim 16 after the
    second.  The round-trips cost about the same and take three fifths of
    the ops, so the median and the tail of a run both lie inside their
    cluster, not at its edge with the cheaper sample ops.
    """

    name = "cli-roundtrip"
    ROUND_S = 3.85
    SPEED_KERNELS = speed.PROCESS
    DIM = 32
    MODES = ("householder", "coset", "coset-reversed")
    SAMPLE_DIMS = (3, 16)
    SAMPLE_COUNT = 50
    ref_dims = (DIM,)
    rss_of = resource.RUSAGE_CHILDREN

    def __init__(self, seed, workdir, inprocess=False):
        super().__init__(seed, workdir, inprocess)
        os.makedirs(workdir, exist_ok=True)
        rng = np.random.default_rng(seed)
        self.inputs = {}
        for i, mode in enumerate(self.MODES):
            path = os.path.join(workdir, f"in{i}.json")
            u = ref.haar_matrix(self.DIM, rng)
            write_matrix_file(path, u)
            self.inputs[mode] = (path, u)
        self.begin_trace(None)

    def begin_trace(self, tracer):
        super().begin_trace(tracer)
        self.calls = {}
        self.bytes_written = 0
        self.bytes_read = 0

    def _path(self, name):
        return os.path.join(self.workdir, name)

    def _command(self, argv, reads, writes):
        """Run one CLI command as a fresh process (and, when tracing, in-process)."""
        cmd = argv[0]
        t0 = time.perf_counter_ns()
        proc = subprocess.run([sys.executable, "-m", "ucoset.cli", *argv],
                              capture_output=True, text=True)
        wall = time.perf_counter_ns() - t0
        self.bytes_read += sum(os.path.getsize(p) for p in reads if os.path.exists(p))
        self.bytes_written += sum(os.path.getsize(p) for p in writes if os.path.exists(p))
        result = {"argv": argv, "code": proc.returncode, "stderr": proc.stderr}
        if self.inprocess:
            alt = [a + ".inproc" if a in writes else a for a in argv]
            t0 = time.perf_counter_ns()
            with contextlib.redirect_stderr(io.StringIO()), contextlib.redirect_stdout(io.StringIO()):
                if self.tracer is None:
                    code = cli.main(alt)
                else:
                    code = self.tracer.span(f"cli.main.{cmd}", cli.main, alt)
            main_ns = time.perf_counter_ns() - t0
            self.calls.setdefault(cmd, []).append((wall, main_ns))
            result["inproc_code"] = code
        return result

    def _inproc_matches(self, results, writes):
        """In-process ``cli.main`` must exit and write exactly as the process did."""
        if not self.inprocess:
            return
        for res in results:
            require(res["inproc_code"] == res["code"],
                    f"in-process {res['argv'][0]} exit {res['inproc_code']}, process {res['code']}")
        for path in writes:
            require(_read(path) == _read(path + ".inproc"),
                    f"in-process output {os.path.basename(path)} differs from the process's")

    def _roundtrip(self, mode, slot):
        src, u = self.inputs[mode]
        fac = self._path(f"fac{slot}.json")
        rec = self._path(f"rec{slot}.json")

        def run():
            return [
                self._command(["decompose", "--input", src, "--mode", mode, "--output", fac],
                              [src], [fac]),
                self._command(["reconstruct", "--input", fac, "--output", rec], [fac], [rec]),
                self._command(["verify", "--input", fac], [fac], []),
            ]

        def check(results):
            for res in results:
                require(res["code"] == 0, f"{res['argv'][0]} exited {res['code']}: {res['stderr'][-300:]}")
            require("verify: PASS" in results[2]["stderr"], "verify did not print PASS")
            with open(fac, encoding="utf-8") as fh:
                kind = json.load(fh).get("kind")
            require(kind == mode, f"factorization file kind {kind!r}, expected {mode!r}")
            with open(rec, encoding="utf-8") as fh:
                m = matrix_from_obj(json.load(fh))
            require(m.shape == u.shape, f"reconstructed shape {m.shape}")
            err = float(np.max(np.abs(m - u)))
            require(err <= 1e-10, f"reconstructed file matches the input only to {err:.2e}")
            self._inproc_matches(results, [fac, rec])
            return {"reconstruction_err": err, "unitarity_defect": ref.unitarity_defect(m)}

        def digest(results):
            return hashlib.sha256(_read(fac) + _read(rec)).digest()

        def failed(results):
            return any(res["code"] != 0 for res in results)

        return Op(f"roundtrip[{self.DIM},{mode}]", run, check, digest, failed)

    def _sample(self, dim, seed, slot):
        out = self._path(f"sample{slot}.json")
        count = self.SAMPLE_COUNT

        def run():
            return [self._command(["sample", "--dim", str(dim), "--count", str(count),
                                   "--seed", str(seed), "--output", out], [], [out])]

        def check(results):
            res = results[0]
            require(res["code"] == 0, f"sample exited {res['code']}: {res['stderr'][-300:]}")
            with open(out, encoding="utf-8") as fh:
                obj = json.load(fh)
            require((obj["dim"], obj["count"], obj["seed"]) == (dim, count, seed),
                    "sample file header does not match the request")
            mats = np.array([matrix_from_obj(m) for m in obj["matrices"]])
            require(mats.shape == (count, dim, dim), f"sample file holds shape {mats.shape}")
            defect = ref.unitarity_defect(mats)
            require(defect <= 1e-12, f"sampled matrices have unitarity defect {defect:.2e}")
            dev = float(np.max(np.abs(mats - ref.replay_haar(dim, count, seed, 0))))
            require(dev <= 1e-12, f"sampled matrices differ from the replayed stream by {dev:.2e}")
            self._inproc_matches(results, [out])
            return {"unitarity_defect": defect}

        def digest(results):
            return hashlib.sha256(_read(out)).digest()

        def failed(results):
            return results[0]["code"] != 0

        return Op(f"sample[{dim}]", run, check, digest, failed)

    def warm_up(self):
        argv = ["verify", "--input", self.inputs[self.MODES[0]][0]]
        proc = subprocess.run([sys.executable, "-m", "ucoset.cli", *argv],
                              capture_output=True, text=True)
        require(proc.returncode == 0 and "PASS" in proc.stderr, "warm-up verify failed")
        if self.inprocess:
            with contextlib.redirect_stderr(io.StringIO()):
                require(cli.main(argv) == 0, "warm-up in-process verify failed")

    def round(self, r):
        ops = []
        for i, mode in enumerate(self.MODES):
            ops.append(self._roundtrip(mode, i))
            if i < len(self.SAMPLE_DIMS):
                j = len(self.SAMPLE_DIMS) * r + i
                ops.append(self._sample(self.SAMPLE_DIMS[i], (self.seed * 100003 + j) % 2 ** 64, i))
        return ops

    def trace_metrics(self, ops):
        out = {"cli.json_bytes_written": self.bytes_written / ops,
               "cli.json_bytes_read": self.bytes_read / ops}
        starts = [wall - main for calls in self.calls.values() for wall, main in calls]
        out["cli.process_start_ms"] = float(np.mean(starts)) / 1e6
        for cmd in ("decompose", "reconstruct", "verify", "sample"):
            calls = self.calls.get(cmd, [])
            out[f"cli.main.{cmd}_ms"] = float(np.mean([m for _, m in calls])) / 1e6 if calls else 0.0
        return out


WORKLOADS = {w.name: w for w in (HaarSample, HouseholderLarge, CosetRoundtrip, CliRoundtrip)}
