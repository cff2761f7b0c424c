"""Command line interface for unitary decompositions and Haar sampling.

Subcommands: decompose, reconstruct, sample, verify, haar-test.

Exit codes: 0 success, 1 internal invariant violation, 2 bad arguments or
unreadable input, 3 non-unitary input matrix, 4 verification failure,
5 statistical failure.

File formats are JSON with complex numbers as [re, im] pairs:

  matrix file         {"rows": R, "cols": C, "data": [[pair, ...], ...]}
  factorization file  {"kind": "householder" | "coset" | "coset-reversed",
                       "dim": N, "factors": [matrix file, ...],
                       "phases": [pair, ...] }
                      plus "pivot_phases": [angle, ...] for kind householder

Non-finite numbers are rejected on input.  JSON payloads go to --output or
stdout; status messages go to stderr.
"""

import argparse
import json
import math
import sys

import numpy as np

from . import coset, haar, householder
from .numkit import DEFAULT_TOLERANCES, Tolerances, UcosetError, unitarity_error

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_USAGE = 2
EXIT_NOT_UNITARY = 3
EXIT_VERIFY = 4
EXIT_STATS = 5

KINDS = ("householder", "coset", "coset-reversed")


class _InputError(Exception):
    """Unusable input file or argument; maps to exit code 2."""


def _reject_constant(name):
    raise _InputError(f"non-finite number {name!r} in input")


def _load_json(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh, parse_constant=_reject_constant)
    except OSError as exc:
        raise _InputError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise _InputError(f"{path} is not valid JSON: {exc}") from exc


def _dump_json(obj, path):
    text = json.dumps(obj, indent=2) + "\n"
    if path is None:
        sys.stdout.write(text)
        return
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise _InputError(f"cannot write {path}: {exc}") from exc


def _pair(z) -> list:
    z = complex(z)
    return [float(z.real), float(z.imag)]


def _complex_from_pair(entry, what) -> complex:
    if (
        not isinstance(entry, (list, tuple))
        or len(entry) != 2
        or any(isinstance(v, bool) or not isinstance(v, (int, float)) for v in entry)
    ):
        raise _InputError(f"{what} must be a [re, im] pair, got {entry!r}")
    return complex(float(entry[0]), float(entry[1]))


def _int_field(obj, key, minimum, what):
    value = obj.get(key)
    if isinstance(value, bool) or not isinstance(value, int) or value < minimum:
        raise _InputError(f"{what} field {key!r} must be an integer >= {minimum}")
    return value


def _matrix_to_obj(m) -> dict:
    m = np.asarray(m, dtype=complex)
    return {
        "rows": int(m.shape[0]),
        "cols": int(m.shape[1]),
        "data": [[_pair(z) for z in row] for row in m],
    }


def _matrix_from_obj(obj, what="matrix") -> np.ndarray:
    if not isinstance(obj, dict):
        raise _InputError(f"{what} must be a JSON object")
    rows = _int_field(obj, "rows", 1, what)
    cols = _int_field(obj, "cols", 1, what)
    data = obj.get("data")
    if not isinstance(data, list) or len(data) != rows:
        raise _InputError(f"{what} data must be a list of {rows} rows")
    out = np.empty((rows, cols), dtype=complex)
    for i, row in enumerate(data):
        if not isinstance(row, list) or len(row) != cols:
            raise _InputError(f"{what} row {i + 1} must have {cols} entries")
        for j, entry in enumerate(row):
            out[i, j] = _complex_from_pair(entry, f"{what} entry ({i + 1},{j + 1})")
    return out


def _phases_from_obj(obj, dim, what) -> np.ndarray:
    raw = obj.get("phases")
    if not isinstance(raw, list) or len(raw) != dim:
        raise _InputError(f"{what} needs {dim} phases")
    return np.array(
        [_complex_from_pair(p, f"{what} phase {k + 1}") for k, p in enumerate(raw)]
    )


def _factorization_to_obj(kind, dim, factor_matrices, phases, pivot_phases=None):
    obj = {
        "kind": kind,
        "dim": int(dim),
        "factors": [_matrix_to_obj(f) for f in factor_matrices],
        "phases": [_pair(z) for z in phases],
    }
    if pivot_phases is not None:
        obj["pivot_phases"] = [float(p) for p in pivot_phases]
    return obj


def _factorization_from_obj(obj) -> dict:
    if not isinstance(obj, dict):
        raise _InputError("factorization file must be a JSON object")
    kind = obj.get("kind")
    if kind not in KINDS:
        raise _InputError(f"kind must be one of {KINDS}, got {kind!r}")
    dim = _int_field(obj, "dim", 1, "factorization")
    raw_factors = obj.get("factors")
    if not isinstance(raw_factors, list) or len(raw_factors) != dim - 1:
        raise _InputError(f"factorization needs {dim - 1} factors")
    factors = []
    for k, raw in enumerate(raw_factors):
        f = _matrix_from_obj(raw, f"factor {k + 1}")
        if f.shape != (dim, dim):
            raise _InputError(f"factor {k + 1} must be {dim}x{dim}")
        factors.append(f)
    phases = _phases_from_obj(obj, dim, "factorization")
    pivot_phases = None
    if kind == "householder":
        raw_pivots = obj.get("pivot_phases")
        if not isinstance(raw_pivots, list) or len(raw_pivots) != dim - 1:
            raise _InputError(f"householder factorization needs {dim - 1} pivot_phases")
        for p in raw_pivots:
            if isinstance(p, bool) or not isinstance(p, (int, float)):
                raise _InputError("pivot_phases must be numbers")
        pivot_phases = np.array([float(p) for p in raw_pivots])
    return {"kind": kind, "dim": dim, "factors": factors,
            "phases": phases, "pivot_phases": pivot_phases}


def _product_from_factorization(info) -> np.ndarray:
    m = np.diag(info["phases"])
    if info["kind"] == "coset-reversed":
        for f in reversed(info["factors"]):
            m = m @ f
    else:
        for f in reversed(info["factors"]):
            m = f @ m
    return m


def _tolerances(args) -> Tolerances:
    tol = getattr(args, "tol", None)
    if tol is None:
        return DEFAULT_TOLERANCES
    if not 0.0 < tol < math.inf:
        raise _InputError(f"--tol must be positive and finite, got {tol}")
    return Tolerances(
        unitarity_tol=tol,
        degenerate_tol=DEFAULT_TOLERANCES.degenerate_tol,
        reconstruction_tol=tol,
    )


def cmd_decompose(args) -> int:
    u = _matrix_from_obj(_load_json(args.input), "input matrix")
    if u.shape[0] != u.shape[1]:
        raise _InputError("decompose needs a square matrix")
    tol = _tolerances(args)
    try:
        if args.mode == "coset-reversed":
            f = householder.decompose_reversed(u, tol)
        else:
            f = householder.decompose(u, tol)
    except householder.NotUnitaryError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NOT_UNITARY
    if args.mode == "householder":
        rebuilt = householder.reconstruct(f)
        obj = _factorization_to_obj(
            "householder",
            f.dim,
            [householder.reflect_matrix(r) for r in f.reflections],
            f.residual.phases,
            f.pivot_phases,
        )
    else:
        if args.mode == "coset":
            cf = coset.cosets_from_householder(f)
        else:
            cf = coset.cosets_from_householder_reversed(f)
        rebuilt = coset.compose_cosets(cf)
        obj = _factorization_to_obj(
            args.mode, cf.dim, [c.matrix for c in cf.factors],
            cf.terminal_phases.phases,
        )
    err = float(np.max(np.abs(rebuilt - u)))
    if err > tol.reconstruction_tol:
        print(
            f"internal error: reconstruction error {err:.3e} exceeds "
            f"{tol.reconstruction_tol:.1e}",
            file=sys.stderr,
        )
        return EXIT_INTERNAL
    _dump_json(obj, args.output)
    print(
        f"decomposed {u.shape[0]}x{u.shape[1]} matrix, mode {args.mode}, "
        f"reconstruction error {err:.3e}",
        file=sys.stderr,
    )
    return EXIT_OK


def cmd_reconstruct(args) -> int:
    info = _factorization_from_obj(_load_json(args.input))
    m = _product_from_factorization(info)
    _dump_json(_matrix_to_obj(m), args.output)
    print(
        f"reconstructed {info['dim']}x{info['dim']} matrix from "
        f"{info['kind']} factorization, unitarity error {unitarity_error(m):.3e}",
        file=sys.stderr,
    )
    return EXIT_OK


def cmd_sample(args) -> int:
    rng = haar.RngStream(args.seed)
    matrices = [m for block in haar._haar_blocks(args.dim, args.count, rng) for m in block]
    obj = {
        "dim": args.dim,
        "count": args.count,
        "seed": args.seed,
        "matrices": [_matrix_to_obj(m) for m in matrices],
    }
    _dump_json(obj, args.output)
    print(
        f"sampled {args.count} Haar-distributed {args.dim}x{args.dim} "
        f"matrices with seed {args.seed}",
        file=sys.stderr,
    )
    return EXIT_OK


def _verify_matrix(m, tol) -> int:
    if m.shape[0] != m.shape[1]:
        print(
            f"verify: FAIL matrix is {m.shape[0]}x{m.shape[1]}, not square",
            file=sys.stderr,
        )
        return EXIT_VERIFY
    err = unitarity_error(m)
    verdict = "PASS" if err <= tol.unitarity_tol else "FAIL"
    print(
        f"verify: {verdict} unitarity error {err:.3e} "
        f"(tolerance {tol.unitarity_tol:.1e})",
        file=sys.stderr,
    )
    return EXIT_OK if verdict == "PASS" else EXIT_VERIFY


def _verify_factorization(info, tol) -> int:
    problems = []
    worst = 0.0
    for k, f in enumerate(info["factors"], start=1):
        err = unitarity_error(f)
        worst = max(worst, err)
        if err > tol.unitarity_tol:
            problems.append(f"factor {k} unitarity error {err:.3e}")
        if info["kind"] == "householder":
            herm = float(np.max(np.abs(f - f.conj().T)))
            if herm > tol.unitarity_tol:
                problems.append(f"factor {k} is not Hermitian ({herm:.3e})")
    phase_dev = float(np.max(np.abs(np.abs(info["phases"]) - 1.0))) \
        if info["dim"] else 0.0
    if phase_dev > tol.unitarity_tol:
        problems.append(f"phase moduli deviate by {phase_dev:.3e}")
    print(
        f"verify: {info['kind']} factorization, dim {info['dim']}, "
        f"worst factor unitarity error {worst:.3e}, "
        f"phase modulus deviation {phase_dev:.3e}",
        file=sys.stderr,
    )
    for line in problems:
        print(f"verify: FAIL {line}", file=sys.stderr)
    if problems:
        return EXIT_VERIFY
    print("verify: PASS", file=sys.stderr)
    return EXIT_OK


def cmd_verify(args) -> int:
    obj = _load_json(args.input)
    tol = _tolerances(args)
    if isinstance(obj, dict) and "kind" in obj:
        return _verify_factorization(_factorization_from_obj(obj), tol)
    return _verify_matrix(_matrix_from_obj(obj, "input matrix"), tol)


def cmd_haar_test(args) -> int:
    if args.dim < 2:
        print("error: haar-test needs --dim at least 2", file=sys.stderr)
        return EXIT_USAGE
    if args.samples < 1000:
        print("error: haar-test needs --samples at least 1000", file=sys.stderr)
        return EXIT_USAGE
    rng = haar.RngStream(args.seed)
    report = haar.haar_validate(args.dim, args.samples, rng)
    threshold = 2.0 * 1.63 / math.sqrt(args.samples)
    mean_dev = float(np.max(np.abs(report.mean_moduli - 1.0 / args.dim)))
    print(
        f"haar-test: dim {report.dim}, samples {report.sample_count}, "
        f"seed {args.seed}",
        file=sys.stderr,
    )
    print(
        f"haar-test: KS statistic {report.ks_statistic:.5f} "
        f"(threshold {threshold:.5f})",
        file=sys.stderr,
    )
    print(
        f"haar-test: max |mean |U_ij|^2 - 1/dim| = {mean_dev:.5f}",
        file=sys.stderr,
    )
    for row in report.mean_moduli:
        print("haar-test:   " + "  ".join(f"{v:.4f}" for v in row), file=sys.stderr)
    if report.ks_statistic >= threshold:
        print("haar-test: FAIL", file=sys.stderr)
        return EXIT_STATS
    print("haar-test: PASS", file=sys.stderr)
    return EXIT_OK


def _positive_int(text):
    try:
        value = int(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from exc
    if value < 1:
        raise argparse.ArgumentTypeError("must be at least 1")
    return value


def _seed_value(text):
    try:
        value = int(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from exc
    if not 0 <= value < 2 ** 64:
        raise argparse.ArgumentTypeError("seed must lie in [0, 2^64)")
    return value


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ucoset",
        description="Householder and coset decompositions of unitary matrices.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("decompose", help="factor a unitary matrix file")
    p.add_argument("--input", required=True, help="matrix file to decompose")
    p.add_argument("--mode", choices=KINDS, default="householder")
    p.add_argument("--output", help="factorization file (default: stdout)")
    p.add_argument("--tol", type=float, help="unitarity/reconstruction tolerance")
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("reconstruct", help="multiply a factorization file out")
    p.add_argument("--input", required=True, help="factorization file")
    p.add_argument("--output", help="matrix file (default: stdout)")
    p.set_defaults(func=cmd_reconstruct)

    p = sub.add_parser("sample", help="draw Haar-distributed unitary matrices")
    p.add_argument("--dim", type=_positive_int, required=True)
    p.add_argument("--count", type=_positive_int, default=1)
    p.add_argument("--seed", type=_seed_value, default=0)
    p.add_argument("--output", help="sample file (default: stdout)")
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("verify", help="check a matrix or factorization file")
    p.add_argument("--input", required=True)
    p.add_argument("--tol", type=float, help="unitarity tolerance")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("haar-test", help="statistical test of the sampler")
    p.add_argument("--dim", type=_positive_int, required=True)
    p.add_argument("--samples", type=_positive_int, default=50000)
    p.add_argument("--seed", type=_seed_value, default=0)
    p.set_defaults(func=cmd_haar_test)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except _InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except UcosetError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
