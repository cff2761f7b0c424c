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

A factorization file is read into a HouseholderFactorization or a
CosetFactorization, whose constructors check its structure, and written back
from one; every product runs in the library.  Non-finite numbers, including
literals that overflow a float, are rejected on input.  JSON payloads go to
--output or stdout; status messages go to stderr.
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
    text = json.dumps(obj) + "\n"
    if path is None:
        sys.stdout.write(text)
        return
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise _InputError(f"cannot write {path}: {exc}") from exc


def _numbers(data, shape, what) -> np.ndarray:
    # One JSON list as a float array of the given shape, converted at once:
    # every leaf must be an int or a float (not a bool, string or null) whose
    # value is finite as a float.
    try:
        a = np.array(data, dtype=object)
    except ValueError:
        a = None
    if a is None or a.shape != shape:
        raise _InputError(f"{what} must be a list of shape {list(shape)}")
    if not {type(v) for v in a.flat} <= {int, float}:
        raise _InputError(f"{what} must hold numbers only")
    try:
        a = a.astype(float)
    except (ValueError, OverflowError):
        a = None
    if a is None or not np.isfinite(a).all():
        raise _InputError(f"non-finite number in {what}")
    return a


def _complex_numbers(data, shape, what) -> np.ndarray:
    return _numbers(data, shape + (2,), what).view(complex)[..., 0]


def _pairs(a) -> list:
    return np.stack([a.real, a.imag], -1).tolist()


def _int_field(obj, key, minimum, what):
    value = obj.get(key)
    if isinstance(value, bool) or not isinstance(value, int) or value < minimum:
        raise _InputError(f"{what} field {key!r} must be an integer >= {minimum}")
    return value


def _matrix_to_obj(m) -> dict:
    return {"rows": m.shape[0], "cols": m.shape[1], "data": _pairs(m)}


def _matrix_from_obj(obj, what="matrix") -> np.ndarray:
    if not isinstance(obj, dict):
        raise _InputError(f"{what} must be a JSON object")
    rows = _int_field(obj, "rows", 1, what)
    cols = _int_field(obj, "cols", 1, what)
    return _complex_numbers(obj.get("data"), (rows, cols), f"{what} data")


def _kind(f) -> str:
    if isinstance(f, householder.HouseholderFactorization):
        return "householder"
    return "coset" if f.ordering == householder.FORWARD else "coset-reversed"


def _factorization_to_obj(f) -> dict:
    """File form of a forward HouseholderFactorization or a CosetFactorization."""
    if isinstance(f, householder.HouseholderFactorization):
        factors = [householder.reflect_matrix(r) for r in f.reflections]
        phases = f.residual.phases
    else:
        factors = [c.matrix for c in f.factors]
        phases = f.terminal_phases.phases
    obj = {
        "kind": _kind(f),
        "dim": f.dim,
        "factors": [_matrix_to_obj(m) for m in factors],
        "phases": _pairs(phases),
    }
    if obj["kind"] == "householder":
        obj["pivot_phases"] = f.pivot_phases.tolist()
    return obj


def _factorization_fields(obj):
    """Kind, dense factors, phases and pivot phases (or None) of a file."""
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
    for k, raw in enumerate(raw_factors, start=1):
        f = _matrix_from_obj(raw, f"factor {k}")
        if f.shape != (dim, dim):
            raise _InputError(f"factor {k} must be {dim}x{dim}")
        factors.append(f)
    phases = _complex_numbers(obj.get("phases"), (dim,), "factorization phases")
    pivot_phases = None
    if kind == "householder":
        pivot_phases = _numbers(obj.get("pivot_phases"), (dim - 1,), "pivot_phases")
    return kind, factors, phases, pivot_phases


def _factorization_from_fields(kind, factors, phases, pivot_phases):
    # CosetFactor reads each pivot off its dense factor, and the library
    # constructors check the stack; all raise UcosetError.  A householder
    # factor R(u) with column k negated is R(u) F_k, the coset factor of u.
    # Its pivot p times 2 conj(p_k) / <p|p> is column k of 1 - R(u), which is
    # e^{-i phi_k} u for the reflection of a column-clearing step; the bound
    # <u|u> >= 2 then holds exactly when R(u)_kk <= 0, as it does for every
    # such step.
    dim = phases.shape[0]
    diag = householder.PhaseDiagonal(phases, dim)
    pivots = np.zeros((dim - 1, dim), dtype=complex)
    for k, m in enumerate(factors, start=1):
        if kind == "householder":
            m = np.where(np.arange(dim) == k - 1, -m, m)
            p = coset.CosetFactor(matrix=m, level=k).pivot
            p = 2.0 * p[k - 1].conjugate() / np.vdot(p, p).real * p
        else:
            p = coset.CosetFactor(matrix=m, level=k).pivot
        pivots[k - 1] = p
    if kind == "householder":
        return householder.HouseholderFactorization(
            pivots, diag, householder.FORWARD, dim, pivot_phases)
    ordering = householder.FORWARD if kind == "coset" else householder.REVERSED
    return coset.CosetFactorization(pivots, diag, ordering, dim)


def _factorization_from_obj(obj):
    """The library factorization a file holds; unusable input otherwise."""
    fields = _factorization_fields(obj)
    try:
        return _factorization_from_fields(*fields)
    except UcosetError as exc:
        raise _InputError(f"not a {fields[0]} factorization: {exc}") from exc


def _product(f) -> np.ndarray:
    if isinstance(f, householder.HouseholderFactorization):
        return householder.reconstruct(f)
    return coset.compose_cosets(f)


def _tolerances(args) -> Tolerances:
    tol = getattr(args, "tol", None)
    if tol is None:
        return DEFAULT_TOLERANCES
    if not 0.0 < tol < math.inf:
        raise _InputError(f"--tol must be positive and finite, got {tol}")
    return Tolerances(unitarity_tol=tol, reconstruction_tol=tol)


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
    if args.mode == "coset":
        f = coset.cosets_from_householder(f)
    elif args.mode == "coset-reversed":
        f = coset.cosets_from_householder_reversed(f)
    err = float(np.max(np.abs(_product(f) - u)))
    if err > tol.reconstruction_tol:
        print(
            f"internal error: reconstruction error {err:.3e} exceeds "
            f"{tol.reconstruction_tol:.1e}",
            file=sys.stderr,
        )
        return EXIT_INTERNAL
    _dump_json(_factorization_to_obj(f), args.output)
    print(
        f"decomposed {u.shape[0]}x{u.shape[1]} matrix, mode {args.mode}, "
        f"reconstruction error {err:.3e}",
        file=sys.stderr,
    )
    return EXIT_OK


def cmd_reconstruct(args) -> int:
    f = _factorization_from_obj(_load_json(args.input))
    m = _product(f)
    _dump_json(_matrix_to_obj(m), args.output)
    print(
        f"reconstructed {f.dim}x{f.dim} matrix from {_kind(f)} factorization, "
        f"unitarity error {unitarity_error(m):.3e}",
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


def _verify_factorization(obj, tol) -> int:
    # The file's own numbers are checked at --tol, which may be tighter than
    # the library's fixed bounds; the library constructors check structure.
    kind, factors, phases, pivot_phases = _factorization_fields(obj)
    problems = []
    worst = 0.0
    for k, f in enumerate(factors, start=1):
        err = unitarity_error(f)
        worst = max(worst, err)
        if err > tol.unitarity_tol:
            problems.append(f"factor {k} unitarity error {err:.3e}")
        if kind == "householder":
            herm = float(np.max(np.abs(f - f.conj().T)))
            if herm > tol.unitarity_tol:
                problems.append(f"factor {k} is not Hermitian ({herm:.3e})")
    phase_dev = float(np.max(np.abs(np.abs(phases) - 1.0)))
    if phase_dev > tol.unitarity_tol:
        problems.append(f"phase moduli deviate by {phase_dev:.3e}")
    try:
        _factorization_from_fields(kind, factors, phases, pivot_phases)
    except UcosetError as exc:
        problems.append(f"not a {kind} factorization: {exc}")
    print(
        f"verify: {kind} factorization, dim {phases.shape[0]}, "
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
        return _verify_factorization(obj, tol)
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
