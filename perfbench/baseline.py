"""Print the baseline table: library and CLI cost per call at N = 3 .. 1024.

    python3 perfbench/baseline.py

Every call is made inside a span of the benchmark's tracer, with one BLAS
thread, and the table gives the median span duration per cell.  A cell is
marked skipped where the dense output would not fit in memory or on disk.
The table ends with the machine it was measured on.
"""

import os
import platform
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
DIMS = (3, 16, 64, 256, 1024)
BUDGET_S = 0.5  # time spent per cell after the first call


def fmt(seconds):
    for unit, scale in (("s", 1.0), ("ms", 1e-3), ("µs", 1e-6)):
        if seconds >= scale:
            return f"{seconds / scale:.3g} {unit}"
    return f"{seconds / 1e-6:.2g} µs"


def main():
    import numpy as np

    import ucoset
    from ucoset import coset, haar, householder

    import reference as ref
    from spans import Tracer
    from worker import blas_threads
    from workloads import write_matrix_file

    tracer = Tracer()
    op_id = [0]

    def timed(label, fn, *args):
        """Median span duration of ``fn(*args)``: one call, then a time budget."""
        def once():
            op_id[0] += 1
            tracer.begin_op(op_id[0])
            try:
                return tracer.span(label, fn, *args)
            finally:
                tracer.end_op()
        once()
        first = (tracer.end[-1] - tracer.start[-1]) / 1e9
        for _ in range(min(50, int(BUDGET_S / max(first, 1e-6)))):
            once()
        name, start, end, _, _ = tracer.arrays()
        mask = name == tracer.name_id(label)
        return float(np.median(end[mask] - start[mask])) / 1e9

    rng = np.random.default_rng(2024)
    rows = {k: {} for k in ("haar_unitary", "haar_oracle", "decompose",
                            "cosets_from_householder", "np.linalg.qr", "CLI decompose")}
    with tempfile.TemporaryDirectory(dir=os.path.join(ROOT, ".perfbench-out")) as tmp:
        for n in DIMS:
            u = ref.haar_matrix(n, rng)
            stream = haar.RngStream(7, n)
            rows["haar_unitary"][n] = fmt(timed(f"haar_unitary[{n}]", haar.haar_unitary, n, stream))
            rows["haar_oracle"][n] = fmt(timed(f"haar_oracle[{n}]", haar.haar_oracle, n, stream))
            rows["decompose"][n] = fmt(timed(f"decompose[{n}]", householder.decompose, u))
            rows["np.linalg.qr"][n] = fmt(timed(f"qr[{n}]", np.linalg.qr, u))
            if n <= 256:
                f = householder.decompose(u)
                rows["cosets_from_householder"][n] = fmt(
                    timed(f"cosets[{n}]", coset.cosets_from_householder, f))
            else:
                rows["cosets_from_householder"][n] = \
                    f"skipped ({(n - 1) * n * n * 16 / 1e9:.0f} GB of dense factors)"
            if n <= 64:
                src = os.path.join(tmp, f"u{n}.json")
                out = os.path.join(tmp, f"f{n}.json")
                write_matrix_file(src, u)
                cmd = [sys.executable, "-m", "ucoset.cli", "decompose", "--input", src,
                       "--output", out]
                secs = timed(f"cli[{n}]", subprocess.run, cmd)
                size = os.path.getsize(out)
                bytes_per_entry = size / ((n - 1) * n * n)
                rows["CLI decompose"][n] = f"{fmt(secs)}, {size / 2 ** 20:.2g} MiB"
            else:
                est = bytes_per_entry * (n - 1) * n * n / 2 ** 30
                rows["CLI decompose"][n] = f"skipped (file ~{est:.2g} GiB)"
            print(f"N={n} done", file=sys.stderr)

    print("| what | " + " | ".join(f"N={n}" for n in DIMS) + " |")
    print("|---|" + "---|" * len(DIMS))
    for what, cells in rows.items():
        print(f"| `{what}` | " + " | ".join(cells[n] for n in DIMS) + " |")
    cfg = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    print()
    print(f"Machine: {os.cpu_count()} CPUs ({platform.machine()}), "
          f"Python {platform.python_version()}, numpy {np.__version__}, "
          f"BLAS {cfg.get('name')} {cfg.get('version')} with {blas_threads()} thread(s), "
          f"ucoset {ucoset.__version__}. CLI decompose uses the default householder mode; "
          f"its size is the output file's.")


if __name__ == "__main__":
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    os.environ["PYTHONPATH"] = os.path.join(ROOT, "src")
    sys.path[:0] = [os.path.join(ROOT, "src"), HERE]
    os.makedirs(os.path.join(ROOT, ".perfbench-out"), exist_ok=True)
    main()
