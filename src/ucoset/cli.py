"""Command line interface for unitary decompositions and Haar sampling.

Subcommands: decompose, reconstruct, sample, verify, haar-test.

Exit codes: 0 success, 1 internal invariant violation, 2 bad arguments,
unreadable input or a size past the machine's memory, 3 non-unitary input
matrix, 4 verification failure, 5 statistical failure.

File formats are JSON with complex numbers as [re, im] pairs:

  matrix file         {"rows": R, "cols": C, "data": [[pair, ...], ...]}
  factorization file  {"kind": "householder" | "coset" | "coset-reversed",
                       "dim": N, "pivots": [[pair, ...] x N] x (N - 1),
                       "phases": [pair, ...] }
  dense (read only)   the same with "factors": [matrix file, ...] in place
                      of "pivots", plus "pivot_phases": [angle, ...] for
                      kind householder

decompose writes the pivot form: the record's pivot stack as it is, the
level-k pivot in row k - 1 with its leading zeros, so a file is O(N^2) and
reads back bitwise.  A dense file, one N x N matrix per level, is still
read: each pivot is read off its factor, and for kind householder restored
to the phase in "pivot_phases", which must then equal the phases read off
the pivots' corners.  The encoding is told by the key; a file with both
keys or neither is unusable.  Either way the file is read into a
HouseholderFactorization or a CosetFactorization, whose constructors check
its structure; every product runs in the library.  Non-finite numbers,
including literals that overflow a float, are rejected on input.  JSON
payloads go to --output or stdout; status messages go to stderr.  A command
reaches ``coset`` and ``haar`` as ``ucoset.coset`` and ``ucoset.haar``,
which the package imports on first use, so it loads only what it runs.
"""

import argparse
import functools
import itertools
import json
import math
import os
import stat
import sys

import numpy as np

import ucoset
from . import householder
from .numkit import (DEFAULT_TOLERANCES, ROUND_TRIP_FACTOR, DomainError, Tolerances,
                     UcosetError, _integer, unitarity_error)

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
    except ValueError as exc:
        # Bad syntax, text that is not UTF-8, or an integer literal longer
        # than the interpreter converts.
        raise _InputError(f"{path} is not valid JSON: {exc}") from exc
    except RecursionError as exc:
        raise _InputError(f"{path} nests too deeply to read") from exc


def _write_in_place(path, chunks):
    # Writes chunks over the file at path from its start, then cuts a
    # regular file at the end of what was written, also when the write ends
    # early, so no byte of its old content is left past the new.  Opening
    # with O_TRUNC instead stalls for tens of milliseconds on a file written
    # before (ext4's replace-via-truncate flush, it seems); so does a rename
    # over it.  A file that is not regular, such as /dev/null, is not cut,
    # as O_TRUNC leaves it alone too.
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    with open(fd, "w", encoding="utf-8") as fh:
        try:
            fh.writelines(chunks)
        finally:
            if stat.S_ISREG(os.fstat(fd).st_mode):
                try:
                    fh.flush()
                finally:
                    os.ftruncate(fd, os.lseek(fd, 0, os.SEEK_CUR))


def _dump_json(obj, path, items=()):
    # json.dumps(obj) and a newline.  items, if any, fill obj's last value,
    # an empty list: each is encoded and written as it arrives, so one is
    # held as text at a time, and the bytes are json.dumps's of the filled obj.
    text = json.dumps(obj)
    body = ((", " if k else "") + json.dumps(item) for k, item in enumerate(items))
    chunks = itertools.chain([text[:-2]], body, [text[-2:] + "\n"])
    try:
        if path is None:
            sys.stdout.writelines(chunks)
            sys.stdout.flush()
            return
        _write_in_place(path, chunks)
    except OSError as exc:
        if path is None:
            # A reader gone from stdout: what stdout still buffers goes to
            # the null device, so that the flush at exit does not fail too.
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        raise _InputError(f"cannot write {'stdout' if path is None else path}: {exc}") from exc


def _numbers(data, shape, what) -> np.ndarray:
    # One JSON list as a float array of the given shape, converted at once:
    # every leaf must be an int or a float (not a bool, string or null) whose
    # value is finite as a float.  [] is every shape with no rows, such as
    # the pivot stack of dim 1.
    if data == [] and shape[0] == 0:
        data = np.empty(shape, dtype=object)
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
    return _integer(obj.get(key), f"{what} field {key!r}", _InputError, minimum)


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
    """Pivot-form file of a forward HouseholderFactorization or a CosetFactorization."""
    if isinstance(f, householder.HouseholderFactorization):
        phases = f.residual.phases
    else:
        phases = f.terminal_phases.phases
    return {"kind": _kind(f), "dim": f.dim, "pivots": _pairs(f.pivots), "phases": _pairs(phases)}


def _factorization_fields(obj):
    """Kind, phases, pivot stack, dense factors and pivot phases of a file.

    A pivot file has no dense factors and a dense file no pivot stack (each
    None); pivot phases are those of a dense householder file, else None.
    """
    if not isinstance(obj, dict):
        raise _InputError("factorization file must be a JSON object")
    kind = obj.get("kind")
    if kind not in KINDS:
        raise _InputError(f"kind must be one of {KINDS}, got {kind!r}")
    dim = _int_field(obj, "dim", 1, "factorization")
    if ("pivots" in obj) == ("factors" in obj):
        raise _InputError("factorization file needs exactly one of 'pivots' and 'factors'")
    phases = _complex_numbers(obj.get("phases"), (dim,), "factorization phases")
    if "pivots" in obj:
        return kind, phases, _complex_numbers(obj["pivots"], (dim - 1, dim), "pivots"), None, None
    raw_factors = obj["factors"]
    if not isinstance(raw_factors, list) or len(raw_factors) != dim - 1:
        raise _InputError(f"factorization needs {dim - 1} factors")
    factors = []
    for k, raw in enumerate(raw_factors, start=1):
        f = _matrix_from_obj(raw, f"factor {k}")
        if f.shape != (dim, dim):
            raise _InputError(f"factor {k} must be {dim}x{dim}")
        factors.append(f)
    pivot_phases = None
    if kind == "householder":
        pivot_phases = _numbers(obj.get("pivot_phases"), (dim - 1,), "pivot_phases")
    return kind, phases, None, factors, pivot_phases


def _pivots_from_factors(kind, factors, pivot_phases) -> np.ndarray:
    # Each pivot is read off its dense factor as CosetFactor reads it, which
    # raises UcosetError if it is not one, without its X read.  A householder
    # factor R(u) with column k negated is R(u) F_k, the coset factor of u,
    # and its pivot p times 2 conj(p_k) / <p|p> is column k of 1 - R(u):
    # e^{-i phi_k} u for a column-clearing step, so the file's e^{i phi_k}
    # restores u.
    dim = len(factors) + 1
    pivots = np.zeros((dim - 1, dim), dtype=complex)
    for k, m in enumerate(factors, start=1):
        if kind == "householder":
            m = np.where(np.arange(dim) == k - 1, -m, m)
        pivots[k - 1] = ucoset.coset._factor_pivot(m, k)
    if kind == "householder":
        norm_sq = np.einsum("ij,ij->i", pivots, pivots.conj()).real
        pivots *= (2.0 * np.diagonal(pivots).conj() / norm_sq * np.exp(1j * pivot_phases))[:, None]
    return pivots


def _factorization_from_fields(kind, phases, pivots, factors, pivot_phases):
    # The library constructors check the stack and raise UcosetError.  A
    # restored householder pivot has <u|u> >= 2 exactly when R(u)_kk <= 0,
    # as for every column-clearing step, and the file's phi_k must equal
    # arg u_kk.
    if factors is not None:
        pivots = _pivots_from_factors(kind, factors, pivot_phases)
    dim = phases.shape[0]
    diag = householder.PhaseDiagonal(phases, dim)
    if kind == "householder":
        f = householder.HouseholderFactorization(pivots, diag, householder.FORWARD, dim)
        if pivot_phases is not None:
            dev = np.abs(f.pivot_phases - pivot_phases).max(initial=0.0)
            if dev > householder.PHASE_TOL:
                raise householder.PhaseError(f"pivot_phases deviate from the pivots' by {dev:.3e}")
        return f
    ordering = householder.FORWARD if kind == "coset" else householder.REVERSED
    return ucoset.coset.CosetFactorization(pivots, diag, ordering, dim)


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
    return ucoset.coset.compose_cosets(f)


def _tolerances(args) -> Tolerances:
    try:
        return Tolerances(unitarity_tol=args.tol)
    except DomainError as exc:
        raise _InputError(f"--tol must be positive and finite, got {args.tol}") from exc


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
        f = ucoset.coset.cosets_from_householder(f)
    elif args.mode == "coset-reversed":
        f = ucoset.coset.cosets_from_householder_reversed(f)
    n = u.shape[0]
    bound = ROUND_TRIP_FACTOR * (math.sqrt(n) * tol.unitarity_tol + n * np.finfo(float).eps)
    err = float(np.max(np.abs(_product(f) - u)))
    if err > bound:
        print(f"internal error: reconstruction error {err:.3e} exceeds {bound:.1e}",
              file=sys.stderr)
        return EXIT_INTERNAL
    _dump_json(_factorization_to_obj(f), args.output)
    print(f"decomposed {n}x{n} matrix, mode {args.mode}, reconstruction error {err:.3e}",
          file=sys.stderr)
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
    # The first block is drawn before the output is opened, so a rejected
    # --dim or --count writes nothing; each later one is written as it is
    # drawn, so one block of the stack is alive at a time.
    blocks = ucoset.haar._haar_blocks(args.dim, args.count, ucoset.haar.RngStream(args.seed))
    try:
        # iter() lets the first block go once it is written.
        blocks = itertools.chain(iter([next(blocks)]), blocks)
    except (ucoset.haar.InvalidDimError, ucoset.haar.InvalidCountError) as exc:
        raise _InputError(f"sample: {exc}") from exc
    header = {"dim": args.dim, "count": args.count, "seed": args.seed, "matrices": []}
    _dump_json(header, args.output, (_matrix_to_obj(m) for block in blocks for m in block))
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
    # R(p) is unitary and Hermitian for every nonzero pivot p, so only the
    # factors of a dense file have a unitarity and a Hermiticity to check.
    fields = _factorization_fields(obj)
    kind, phases, _, factors, _ = fields
    problems = []
    worst = 0.0
    for k, f in enumerate(factors or (), start=1):
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
        _factorization_from_fields(*fields)
    except UcosetError as exc:
        problems.append(f"not a {kind} factorization: {exc}")
    dense = "" if factors is None else f"worst factor unitarity error {worst:.3e}, "
    print(
        f"verify: {kind} factorization, dim {phases.shape[0]}, {dense}"
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
    try:
        report = ucoset.haar.haar_validate(args.dim, args.samples, ucoset.haar.RngStream(args.seed))
    except (ucoset.haar.InvalidDimError, ucoset.haar.TooFewSamplesError) as exc:
        raise _InputError(f"haar-test: {exc}") from exc
    # The report's gates hold the thresholds and verdicts (haar.SampleReport).
    ks, mean = report.ks_gate, report.mean_gate
    print(
        f"haar-test: dim {report.dim}, samples {report.sample_count}, "
        f"seed {args.seed}",
        file=sys.stderr,
    )
    print(
        f"haar-test: KS statistic {ks.statistic:.5f} (threshold {ks.threshold:.5f})",
        file=sys.stderr,
    )
    print(
        f"haar-test: max |mean |U_ij|^2 - 1/dim| = {mean.statistic:.3e} "
        f"(threshold {mean.threshold:.3e})",
        file=sys.stderr,
    )
    for row in report.mean_moduli:
        print("haar-test:   " + "  ".join(f"{v:.4f}" for v in row), file=sys.stderr)
    for gate, what in ((ks, "KS statistic of |U_11|^2"), (mean, "max |mean |U_ij|^2 - 1/dim|")):
        if not gate.passed:
            print(f"haar-test: FAIL {what} past its threshold", file=sys.stderr)
    if not report.passed:
        return EXIT_STATS
    print("haar-test: PASS", file=sys.stderr)
    return EXIT_OK


def _int_argument(text, what, lo, hi=math.inf):
    try:
        value = int(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from exc
    return _integer(value, what, argparse.ArgumentTypeError, lo, hi)


_positive_int = functools.partial(_int_argument, what="value", lo=1)
_seed_value = functools.partial(_int_argument, what="seed", lo=0, hi=2 ** 64)


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
    p.add_argument("--tol", type=float, default=DEFAULT_TOLERANCES.unitarity_tol,
                   help="unitarity gate on max |M^dag M - 1| of the matrix factored, "
                        "M = U (U^dag in coset-reversed mode)")
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
    p.add_argument("--tol", type=float, default=DEFAULT_TOLERANCES.unitarity_tol,
                   help="unitarity tolerance (of max |U^dag U - 1| on a matrix file)")
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
    except MemoryError as exc:
        print(f"error: {args.command}: {str(exc) or 'out of memory'}", file=sys.stderr)
        return EXIT_USAGE
    except UcosetError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
