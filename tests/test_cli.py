import copy
import json
import math
import os
import subprocess
import sys
from statistics import NormalDist

import numpy as np
import pytest

import ucoset
from ucoset import RngStream, cli, haar_unitary, reflect_matrix
from ucoset.haar import SampleReport

from golden_data import (GOLDEN_DIR, U0, maxdiff, perturbed_to_defect, random_unitary,
                         reversed_repro)


def run(*argv):
    try:
        return cli.main(list(argv))
    except SystemExit as exc:  # argparse exits on usage errors
        return exc.code


def matrix_obj(m):
    m = np.asarray(m, dtype=complex)
    return {
        "rows": m.shape[0],
        "cols": m.shape[1],
        "data": [[[z.real, z.imag] for z in row] for row in m],
    }


def matrix_from_obj(obj):
    return np.array(
        [[complex(re, im) for re, im in row] for row in obj["data"]]
    ).reshape(obj["rows"], obj["cols"])


def write_json(path, obj):
    path.write_text(json.dumps(obj))
    return str(path)


def record(u, mode):
    """The library factorization that ``decompose --mode mode`` writes."""
    if mode == "householder":
        return ucoset.decompose(u)
    if mode == "coset":
        return ucoset.cosets_from_householder(ucoset.decompose(u))
    return ucoset.cosets_from_householder_reversed(ucoset.decompose_reversed(u))


def dense_file(f):
    """The dense file of a factorization: one N x N factor per level."""
    if isinstance(f, ucoset.HouseholderFactorization):
        factors = [reflect_matrix(r) for r in f.reflections]
        phases = f.residual.phases
    else:
        factors = [c.matrix for c in f.factors]
        phases = f.terminal_phases.phases
    obj = {"kind": cli._kind(f), "dim": f.dim, "factors": [matrix_obj(m) for m in factors],
           "phases": [[z.real, z.imag] for z in phases]}
    if obj["kind"] == "householder":
        obj["pivot_phases"] = f.pivot_phases.tolist()
    return obj


def unphased(pivots):
    """Each pivot row times the phase that makes its corner real and positive."""
    corner = np.diagonal(pivots)
    return pivots * (corner.conj() / np.abs(corner))[:, None]


@pytest.fixture
def u0_file(tmp_path):
    return write_json(tmp_path / "u0.json", matrix_obj(U0))


class TestDecompose:
    @pytest.mark.parametrize(
        "mode, golden",
        [
            ("householder", "u0_householder.json"),
            ("coset", "u0_coset.json"),
            ("coset-reversed", "u0_coset_reversed.json"),
        ],
    )
    def test_golden_matches_reference_files(self, tmp_path, u0_file, mode, golden):
        out = tmp_path / "fact.json"
        assert run("decompose", "--input", u0_file, "--mode", mode,
                   "--output", str(out)) == 0
        got = json.loads(out.read_text())
        expected = json.loads((GOLDEN_DIR / golden).read_text())
        assert got["kind"] == expected["kind"] == mode
        assert got["dim"] == 3
        # The golden files are dense; a dense coset factor fixes its pivot
        # only up to a phase, so coset stacks are compared with real corners.
        g = cli._factorization_from_obj(got)
        e = cli._factorization_from_obj(expected)
        if mode == "householder":
            assert maxdiff(g.pivots, e.pivots) <= 1e-12
            assert maxdiff(g.pivot_phases, expected["pivot_phases"]) <= 1e-12
            got_factors = [reflect_matrix(r) for r in g.reflections]
        else:
            assert maxdiff(unphased(g.pivots), unphased(e.pivots)) <= 1e-12
            got_factors = [c.matrix for c in g.factors]
        got_phases = [complex(re, im) for re, im in got["phases"]]
        exp_phases = [complex(re, im) for re, im in expected["phases"]]
        assert maxdiff(got_phases, exp_phases) <= 1e-12
        assert len(got_factors) == len(expected["factors"]) == 2
        for m, dense in zip(got_factors, expected["factors"]):
            assert maxdiff(m, matrix_from_obj(dense)) <= 1e-12

    def test_identity_householder(self, tmp_path):
        path = write_json(tmp_path / "eye.json", matrix_obj(np.eye(3)))
        out = tmp_path / "fact.json"
        assert run("decompose", "--input", path, "--output", str(out)) == 0
        got = json.loads(out.read_text())
        r1, r2 = cli._factorization_from_obj(got).reflections
        assert maxdiff(reflect_matrix(r1), np.diag([-1.0, 1.0, 1.0])) == 0.0
        assert maxdiff(reflect_matrix(r2), np.diag([1.0, -1.0, 1.0])) == 0.0
        assert [complex(re, im) for re, im in got["phases"]] == [-1.0, -1.0, 1.0]

    def test_writes_to_stdout_by_default(self, u0_file, capsys):
        assert run("decompose", "--input", u0_file, "--mode", "coset") == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["kind"] == "coset"

    def test_non_unitary_input(self, tmp_path, capsys):
        path = write_json(tmp_path / "bad.json", matrix_obj(np.diag([2.0, 1.0])))
        assert run("decompose", "--input", path) == 3
        assert "unitarity" in capsys.readouterr().err

    @pytest.mark.parametrize("mode", ["householder", "coset", "coset-reversed"])
    @pytest.mark.parametrize("m", [[[1.0, 0.6], [0.0, 0.8]], [[1.0 + 5e-10]]],
                             ids=["unit-columns-not-orthogonal", "last-column-norm"])
    def test_column_checks_exit_3(self, tmp_path, capsys, mode, m):
        path = write_json(tmp_path / "m.json", matrix_obj(m))
        assert run("decompose", "--input", path, "--mode", mode) == 3
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: unitarity defect at level")

    @pytest.mark.parametrize("mode", ["householder", "coset", "coset-reversed"])
    def test_input_at_the_gate_round_trips(self, tmp_path, mode):
        # A defect of 9.999e-11 at N = 32 leaves a round trip of about sqrt(N)
        # times it, inside ROUND_TRIP_FACTOR (sqrt(N) tol + N eps).  The
        # reversed loop factors the adjoint of its input, so it is given u^dag.
        u = perturbed_to_defect(32, 54, 1.0, True, 1e-10)
        m = u.conj().T if mode == "coset-reversed" else u
        path = write_json(tmp_path / "m.json", matrix_obj(m))
        out = tmp_path / "f.json"
        assert run("decompose", "--input", path, "--mode", mode, "--output", str(out)) == 0
        assert out.exists()

    def test_reversed_mode_is_gated_on_the_adjoint(self, tmp_path, capsys):
        # verify measures U^dag U - 1 and passes both matrices; coset-reversed
        # mode factors U^dag, whose defect is 7.9 times the gate for the first
        # and 300 times it for the reversed repro, so it exits 3.
        for name, u in (("m32", perturbed_to_defect(32, 54, 1.0, True, 1e-10)),
                        ("repro", reversed_repro())):
            path = write_json(tmp_path / f"{name}.json", matrix_obj(u))
            assert run("verify", "--input", path) == 0
            assert run("decompose", "--input", path, "--mode", "coset-reversed") == 3
            err = capsys.readouterr().err.splitlines()
            assert err[-1].startswith("error: unitarity defect at level")

    def test_non_square_input(self, tmp_path):
        path = write_json(tmp_path / "rect.json", matrix_obj(np.ones((2, 3))))
        assert run("decompose", "--input", path) == 2

    def test_missing_file(self, tmp_path):
        assert run("decompose", "--input", str(tmp_path / "nope.json")) == 2

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert run("decompose", "--input", str(path)) == 2

    def test_non_finite_entries_rejected(self, tmp_path):
        path = tmp_path / "nan.json"
        path.write_text('{"rows": 1, "cols": 1, "data": [[[NaN, 0.0]]]}')
        assert run("decompose", "--input", str(path)) == 2

    def test_bad_tolerance(self, u0_file):
        assert run("decompose", "--input", u0_file, "--tol", "-1") == 2

    @pytest.mark.parametrize("command", ["decompose", "verify"])
    @pytest.mark.parametrize("tol", ["nan", "inf", "0", "-0.001"])
    def test_tolerance_must_be_positive_and_finite(self, u0_file, capsys, command, tol):
        assert run(command, "--input", u0_file, "--tol", tol) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: --tol")

    def test_loosened_gate_past_a_phase_diagonal_is_not_unitary(self, tmp_path, capsys):
        # The 2e-5 defect passes --tol 1e-3, but the residual moduli are
        # 1 + 1e-5, too far from unit modulus for a phase diagonal.
        path = write_json(tmp_path / "m.json",
                          matrix_obj(random_unitary(8, 44) * (1.0 + 1e-5)))
        for mode in ("householder", "coset", "coset-reversed"):
            assert run("decompose", "--input", path, "--mode", mode,
                       "--tol", "1e-3") == 3
            err = capsys.readouterr().err.splitlines()
            assert len(err) == 1 and err[0].startswith("error: phase entries")

    def test_loosened_gate_past_a_short_column_is_not_unitary(self, tmp_path, capsys):
        # The swap matrix scaled by 1 - 1e-5 passes --tol 1e-3, but its
        # first pivot has norm-squared 2 - 2e-5, below the bound 2.
        path = write_json(tmp_path / "m.json",
                          matrix_obj(np.array([[0.0, 1.0], [1.0, 0.0]]) * (1.0 - 1e-5)))
        for mode in ("householder", "coset", "coset-reversed"):
            assert run("decompose", "--input", path, "--mode", mode,
                       "--tol", "1e-3") == 3
            err = capsys.readouterr().err.splitlines()
            assert len(err) == 1 and err[0].startswith("error: pivot norm-squared")

    def test_unwritable_output(self, u0_file):
        assert run("decompose", "--input", u0_file,
                   "--output", "/nonexistent/dir/out.json") == 2

    def test_round_trip_failure_is_internal_error(self, tmp_path, u0_file, monkeypatch,
                                                  capsys):
        monkeypatch.setattr(cli, "_product", lambda f: U0 + 1e-6)
        out = tmp_path / "fact.json"
        assert run("decompose", "--input", u0_file, "--output", str(out)) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("internal error: reconstruction error")
        assert not out.exists()

    def test_internal_error_path(self, u0_file, monkeypatch):
        def boom(u, tol):
            raise cli.UcosetError("synthetic invariant violation")

        monkeypatch.setattr(cli.householder, "decompose", boom)
        assert run("decompose", "--input", u0_file) == 1


class TestReconstruct:
    @pytest.mark.parametrize(
        "golden",
        ["u0_householder.json", "u0_coset.json", "u0_coset_reversed.json"],
    )
    def test_golden_files_rebuild_u0(self, tmp_path, golden):
        out = tmp_path / "matrix.json"
        assert run("reconstruct", "--input", str(GOLDEN_DIR / golden),
                   "--output", str(out)) == 0
        got = matrix_from_obj(json.loads(out.read_text()))
        assert maxdiff(got, U0) <= 1e-12

    def test_empty_factor_file(self, tmp_path, capsys):
        path = write_json(
            tmp_path / "unit.json",
            {"kind": "coset", "dim": 1, "factors": [], "phases": [[1.0, 0.0]]},
        )
        assert run("reconstruct", "--input", path) == 0
        got = matrix_from_obj(json.loads(capsys.readouterr().out))
        assert maxdiff(got, np.eye(1)) == 0.0

    @pytest.mark.parametrize("u", [U0, random_unitary(40, 520), -np.eye(4)],
                             ids=["u0", "haar-40", "minus-identity"])
    def test_householder_file_reads_back_the_pivot_stack(self, tmp_path, u):
        src = write_json(tmp_path / "u.json", matrix_obj(u))
        fact = tmp_path / "f.json"
        assert run("decompose", "--input", src, "--output", str(fact)) == 0
        f = cli._factorization_from_obj(json.loads(fact.read_text()))
        assert maxdiff(f.pivots, ucoset.decompose(u).pivots) <= 1e-15

    def test_round_trip_through_files(self, tmp_path, capsys):
        # Dim 65 runs a blocked panel; dim 1 has no factors.
        modes = ["householder", "coset", "coset-reversed"]
        cases = [(2 + k, modes[k % 3]) for k in range(6)]
        cases += [(dim, mode) for dim in (1, 33, 65) for mode in modes]
        for k, (dim, mode) in enumerate(cases):
            u = random_unitary(dim, 500 + k)
            src = write_json(tmp_path / f"u{k}.json", matrix_obj(u))
            fact = tmp_path / f"f{k}.json"
            back = tmp_path / f"b{k}.json"
            assert run("decompose", "--input", src, "--mode", mode,
                       "--output", str(fact)) == 0
            f = cli._factorization_from_obj(json.loads(fact.read_text()))
            assert (cli._kind(f), f.dim) == (mode, dim)
            capsys.readouterr()
            assert run("verify", "--input", str(fact)) == 0
            assert "verify: PASS" in capsys.readouterr().err
            assert run("reconstruct", "--input", str(fact),
                       "--output", str(back)) == 0
            got = matrix_from_obj(json.loads(back.read_text()))
            assert maxdiff(got, u) <= 1e-10

    @pytest.mark.parametrize("mode", ["householder", "coset", "coset-reversed"])
    def test_decompose_checks_what_reconstruct_of_its_file_gives(self, tmp_path, monkeypatch,
                                                                 mode):
        # decompose checks the product of the record it found, which carries
        # the column loop's WY factors; reconstruct multiplies the pivots read
        # from the file, which carry none.  Dim 65 runs two blocked panels.
        checked = []
        product = cli._product

        def keeping(f):
            checked.append((f._wy is not None, product(f)))
            return checked[-1][1]

        monkeypatch.setattr(cli, "_product", keeping)
        src = write_json(tmp_path / "u.json", matrix_obj(random_unitary(65, 540)))
        fact, back = tmp_path / "f.json", tmp_path / "b.json"
        assert run("decompose", "--input", src, "--mode", mode, "--output", str(fact)) == 0
        assert run("reconstruct", "--input", str(fact), "--output", str(back)) == 0
        [(carried, in_process), (carried_back, _)] = checked
        assert carried and not carried_back
        got = matrix_from_obj(json.loads(back.read_text()))
        assert maxdiff(got, in_process) <= 1e-14

    @pytest.mark.parametrize("dim", [33, 65])
    def test_dense_files_read_as_the_pivot_files(self, tmp_path, capsys, dim):
        # decompose writes the pivot stack, O(N^2), bitwise; the dense file
        # of the same record, O(N^3), is built here and must read back to the
        # same stack.  A dense reflection fixes its pivot only up to a phase,
        # which the reader restores from the file's pivot_phases; a dense
        # coset factor does not, so coset stacks are compared with real corners.
        u = random_unitary(dim, 600 + dim)
        src = write_json(tmp_path / "u.json", matrix_obj(u))
        for mode in ("householder", "coset", "coset-reversed"):
            fact = tmp_path / f"{mode}.json"
            assert run("decompose", "--input", src, "--mode", mode, "--output", str(fact)) == 0
            obj = json.loads(fact.read_text())
            assert np.shape(obj["pivots"]) == (dim - 1, dim, 2) and "factors" not in obj
            f = cli._factorization_from_obj(obj)
            lib = record(u, mode)
            assert f.pivots.tobytes() == lib.pivots.tobytes()
            dense = tmp_path / f"{mode}-dense.json"
            back = tmp_path / f"{mode}-back.json"
            write_json(dense, dense_file(lib))
            capsys.readouterr()
            assert run("verify", "--input", str(dense)) == 0
            assert "verify: PASS" in capsys.readouterr().err
            assert run("reconstruct", "--input", str(dense), "--output", str(back)) == 0
            assert maxdiff(matrix_from_obj(json.loads(back.read_text())), u) <= 1e-10
            g = cli._factorization_from_obj(json.loads(dense.read_text()))
            if mode == "householder":
                assert maxdiff(g.pivots, f.pivots) <= 1e-15
            else:
                assert maxdiff(unphased(g.pivots), unphased(f.pivots)) <= 1e-15

    def test_wrong_factor_count(self, tmp_path):
        path = write_json(
            tmp_path / "short.json",
            {
                "kind": "coset",
                "dim": 3,
                "factors": [matrix_obj(np.eye(3))],
                "phases": [[1.0, 0.0]] * 3,
            },
        )
        assert run("reconstruct", "--input", path) == 2

    def test_householder_kind_requires_pivot_phases(self, tmp_path):
        obj = json.loads((GOLDEN_DIR / "u0_householder.json").read_text())
        del obj["pivot_phases"]
        path = write_json(tmp_path / "nopiv.json", obj)
        assert run("reconstruct", "--input", path) == 2


# U0's pivot files, by kind, as decompose writes them, and a coset file of dim 20.
PIVOT_FILES = {mode: cli._factorization_to_obj(record(U0, mode))
               for mode in ("householder", "coset", "coset-reversed")}
PIVOT_FILES["coset-20"] = cli._factorization_to_obj(record(random_unitary(20, 35), "coset"))


def base_file(name):
    """A golden file, or U0's pivot file of the kind ``name``."""
    if name in PIVOT_FILES:
        return copy.deepcopy(PIVOT_FILES[name])
    return json.loads((GOLDEN_DIR / name).read_text())


def golden_with(name, path, value):
    """A golden or pivot file with the entry at ``path`` (keys and indices) replaced."""
    obj = base_file(name)
    target = obj
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    return obj


HOUSEHOLDER_FACTOR_1 = json.loads((GOLDEN_DIR / "u0_householder.json").read_text())["factors"][0]
V = np.array([0.1, 1.0, 0.5j])
# A reflection with a positive corner maps no column w to -e^{i phi} e_1
# with phi = arg(w_1), so no column-clearing step produces it.
POSITIVE_CORNER_REFLECTION = np.eye(3) - 2.0 * np.outer(V, V.conj()) / np.vdot(V, V).real

# Files that pass the format checks and whose factors are unitary (and
# Hermitian, for kind householder) but that are not factorizations.
NOT_FACTORIZATIONS = {
    "coset-random-factor": ("u0_coset.json", ("factors", 0),
                            matrix_obj(random_unitary(3, 31))),
    "coset-diagonal-factor": ("u0_coset.json", ("factors", 1),
                              matrix_obj(np.diag([1.0, 1j, 1.0]))),
    "householder-residual": ("u0_householder.json", ("pivot_phases",), [0.0, 0.0]),
    # Equal to the pivots' phases modulo 2 pi only: outside (-pi, pi].
    "householder-phase-range": ("u0_householder.json", ("pivot_phases",),
                                [math.pi / 2 + 2 * math.pi, math.pi / 2]),
    "householder-level": ("u0_householder.json", ("factors", 1), HOUSEHOLDER_FACTOR_1),
    "householder-corner": ("u0_householder.json", ("factors", 0),
                           matrix_obj(POSITIVE_CORNER_REFLECTION)),
    "pivots-leading-coset": ("coset", ("pivots", 1, 0), [0.5, 0.0]),
    "pivots-leading-householder": ("householder", ("pivots", 1, 0), [0.5, 0.0]),
    # Half the level-1 pivot: the same corner phase, <u|u> below 2.
    "pivots-short": ("householder", ("pivots", 0),
                     [[0.5 * re, 0.5 * im] for re, im in PIVOT_FILES["householder"]["pivots"][0]]),
    "pivots-zero-row": ("coset-reversed", ("pivots", 1), [[0.0, 0.0]] * 3),
    # <p|p> = 2.5e-320 at level 5, too small for a finite 2 / <p|p>.
    "pivots-subnormal-norm": ("coset-20", ("pivots", 4), [[0.0, 0.0]] * 4 + [
        [1.5e-160, 0.0], [0.5e-160, 0.0]] + [[0.0, 0.0]] * 14),
}


@pytest.mark.parametrize("case", NOT_FACTORIZATIONS.values(), ids=NOT_FACTORIZATIONS.keys())
def test_not_a_factorization_is_rejected(tmp_path, capsys, case):
    obj = golden_with(*case)
    path = write_json(tmp_path / "f.json", obj)
    assert run("verify", "--input", path) == 4
    err = capsys.readouterr().err.splitlines()
    assert any(line.startswith(f"verify: FAIL not a {obj['kind']} factorization: ")
               for line in err)
    assert run("reconstruct", "--input", path) == 2
    out, err = capsys.readouterr()
    assert out == ""
    err = err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: not a {obj['kind']} factorization: ")


@pytest.mark.parametrize("case", ["coset-diagonal-factor", "householder-level",
                                  "pivots-leading-coset", "pivots-leading-householder",
                                  "pivots-zero-row"])
def test_rejected_factor_names_its_level(tmp_path, capsys, case):
    # Each file has a bad factor 2.
    path = write_json(tmp_path / "f.json", golden_with(*NOT_FACTORIZATIONS[case]))
    assert run("verify", "--input", path) == 4
    assert "level 2" in capsys.readouterr().err
    assert run("reconstruct", "--input", path) == 2
    assert "level 2" in capsys.readouterr().err


PLACEHOLDER = "@literal@"
BAD_LITERALS = {"1e400": "1e400", "int400": "1" + "0" * 400, "true": "true",
                "string": '"1.5"', "null": "null"}
LITERAL_PLACES = {
    "matrix": (("u0.json", ("data", 0, 0, 0)), ["decompose", "verify"]),
    "factor": (("u0_coset.json", ("factors", 0, "data", 1, 2, 1)), ["reconstruct", "verify"]),
    "phases": (("u0_coset.json", ("phases", 2, 0)), ["reconstruct", "verify"]),
    "pivots": (("coset", ("pivots", 1, 2, 1)), ["reconstruct", "verify"]),
}


# Files of the wrong form, and the commands that must refuse them.
UNUSABLE_FILES = {
    "matrix-not-object": ([[[1.0, 0.0]]], ["decompose", "verify"]),
    "factorization-not-object": (["coset", 1], ["reconstruct", "verify"]),
    "factor-rows-string": (golden_with("u0_coset.json", ("factors", 0, "rows"), "3"),
                           ["reconstruct", "verify"]),
    "kind-unknown": (golden_with("u0_coset.json", ("kind",), "qr"), ["reconstruct", "verify"]),
    "factor-dim": (golden_with("u0_coset.json", ("factors", 1), matrix_obj(np.eye(2))),
                   ["reconstruct", "verify"]),
    "householder-phase-count": (golden_with("u0_householder.json", ("pivot_phases",),
                                            [math.pi / 2]), ["reconstruct", "verify"]),
    "pivots-shape": (golden_with("coset", ("pivots",), PIVOT_FILES["coset"]["pivots"][:1]),
                     ["reconstruct", "verify"]),
    "pivots-ragged": (golden_with("coset", ("pivots", 1), [[1.0, 0.0]] * 2),
                      ["reconstruct", "verify"]),
    "pivots-and-factors": (golden_with("coset", ("factors",),
                                       base_file("u0_coset.json")["factors"]),
                           ["reconstruct", "verify"]),
    "pivots-nor-factors": ({k: v for k, v in PIVOT_FILES["coset"].items() if k != "pivots"},
                           ["reconstruct", "verify"]),
    # Raw bytes: a file that is not UTF-8, one nested deeper than the JSON
    # decoder's recursion limit, and an integer literal of 5000 digits.
    "not-utf8": ('{"kind": "caf\xe9"}'.encode("latin-1"),
                 ["decompose", "reconstruct", "verify"]),
    "nested-too-deep": (b"[" * 200000 + b"]" * 200000, ["decompose", "reconstruct", "verify"]),
    "integer-too-long": (b'{"rows": 1, "cols": 1, "data": [[[1' + b"0" * 5000 + b', 0.0]]]}',
                         ["decompose", "reconstruct", "verify"]),
}


@pytest.mark.parametrize("case", UNUSABLE_FILES.values(), ids=UNUSABLE_FILES.keys())
def test_unusable_file(tmp_path, capsys, case):
    obj, commands = case
    path = tmp_path / "bad.json"
    if isinstance(obj, bytes):
        path.write_bytes(obj)
    else:
        write_json(path, obj)
    for command in commands:
        assert run(command, "--input", str(path)) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")


@pytest.mark.parametrize("place", LITERAL_PLACES)
@pytest.mark.parametrize("literal", BAD_LITERALS.values(), ids=BAD_LITERALS.keys())
def test_bad_literal_is_unusable_input(tmp_path, capsys, place, literal):
    (name, where), commands = LITERAL_PLACES[place]
    path = tmp_path / "bad.json"
    text = json.dumps(golden_with(name, where, PLACEHOLDER))
    path.write_text(text.replace(f'"{PLACEHOLDER}"', literal))
    for command in commands:
        assert run(command, "--input", str(path)) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")


class TestSample:
    def test_deterministic_bytes(self, tmp_path):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        for out in (a, b):
            assert run("sample", "--dim", "3", "--count", "2", "--seed", "7",
                       "--output", str(out)) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_emits_unitary_matrices(self, tmp_path):
        out = tmp_path / "s.json"
        assert run("sample", "--dim", "4", "--count", "5", "--seed", "11",
                   "--output", str(out)) == 0
        payload = json.loads(out.read_text())
        assert payload["dim"] == 4
        assert payload["count"] == 5
        assert payload["seed"] == 11
        assert len(payload["matrices"]) == 5
        for obj in payload["matrices"]:
            m = matrix_from_obj(obj)
            assert maxdiff(m.conj().T @ m, np.eye(4)) <= 1e-12

    @pytest.mark.parametrize("dim, count", [(4, 5), (16, 33)])
    def test_matches_successive_haar_unitary_calls(self, tmp_path, dim, count):
        # 33 16x16 matrices span two sampler blocks.
        out = tmp_path / "s.json"
        assert run("sample", "--dim", str(dim), "--count", str(count), "--seed", "13",
                   "--output", str(out)) == 0
        written = np.array([matrix_from_obj(m) for m in json.loads(out.read_text())["matrices"]])
        rng = RngStream(13)
        expected = np.array([haar_unitary(dim, rng) for _ in range(count)])
        assert maxdiff(written, expected) <= 1e-13

    def test_seed_changes_output(self, tmp_path):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        run("sample", "--dim", "2", "--seed", "1", "--output", str(a))
        run("sample", "--dim", "2", "--seed", "2", "--output", str(b))
        assert a.read_bytes() != b.read_bytes()

    def test_bad_arguments(self):
        assert run("sample", "--dim", "0") == 2
        assert run("sample", "--dim", "3", "--count", "-5") == 2
        assert run("sample", "--dim", "3", "--seed", "-1") == 2
        assert run("sample", "--dim", "abc") == 2
        assert run("sample", "--dim", "3", "--count", "2.5") == 2
        assert run("haar-test", "--dim", "2", "--seed", "x") == 2
        # Sizes past numpy's index range.
        assert run("sample", "--dim", str(10 ** 20)) == 2
        assert run("haar-test", "--dim", str(10 ** 20)) == 2
        assert run("haar-test", "--dim", "2", "--samples", str(10 ** 20)) == 2


class TestVerify:
    def test_unitary_matrix_passes(self, u0_file):
        assert run("verify", "--input", u0_file) == 0

    def test_non_unitary_matrix_fails(self, tmp_path, capsys):
        path = write_json(tmp_path / "d.json", matrix_obj(np.diag([2.0, 1.0])))
        assert run("verify", "--input", path) == 4
        assert "3.000" in capsys.readouterr().err

    def test_overflowing_matrix_fails_without_a_warning(self, tmp_path, capsys):
        path = write_json(tmp_path / "o.json", matrix_obj(np.full((2, 2), 1e200)))
        assert run("verify", "--input", path) == 4
        err = capsys.readouterr().err
        assert "inf" in err and "Warning" not in err

    def test_non_square_matrix_fails(self, tmp_path):
        path = write_json(tmp_path / "r.json", matrix_obj(np.ones((1, 2))))
        assert run("verify", "--input", path) == 4

    @pytest.mark.parametrize(
        "golden",
        ["u0_householder.json", "u0_coset.json", "u0_coset_reversed.json"],
    )
    def test_golden_factorizations_pass(self, golden):
        assert run("verify", "--input", str(GOLDEN_DIR / golden)) == 0

    def test_nonunitary_factor_fails(self, capsys):
        path = str(GOLDEN_DIR / "u0_coset_reversed_nonunitary.json")
        assert run("verify", "--input", path) == 4
        assert "unitarity" in capsys.readouterr().err

    def test_householder_factors_must_be_hermitian(self, tmp_path):
        # A unitary but non-Hermitian factor cannot be a reflection.
        obj = json.loads((GOLDEN_DIR / "u0_coset.json").read_text())
        obj["kind"] = "householder"
        obj["pivot_phases"] = [0.0, 0.0]
        path = write_json(tmp_path / "h.json", obj)
        assert run("verify", "--input", path) == 4

    @pytest.mark.parametrize("name", ["u0_coset.json", "coset"])
    def test_phase_moduli_are_checked_at_tol(self, tmp_path, capsys, name):
        # 1e-9 off the unit circle is inside the library's phase bound, but
        # not inside the default --tol.
        obj = base_file(name)
        obj["phases"] = [[re * (1.0 + 1e-9), im * (1.0 + 1e-9)] for re, im in obj["phases"]]
        path = write_json(tmp_path / "p.json", obj)
        assert run("verify", "--input", path) == 4
        err = capsys.readouterr().err.splitlines()
        assert any(line.startswith("verify: FAIL phase moduli deviate") for line in err)

    def test_tol_flag_loosens_the_gate(self, tmp_path):
        m = U0 * (1.0 + 5e-7)
        path = write_json(tmp_path / "m.json", matrix_obj(m))
        assert run("verify", "--input", path) == 4
        assert run("verify", "--input", path, "--tol", "1e-4") == 0


class TestHaarTest:
    def test_small_run_passes(self):
        assert run("haar-test", "--dim", "2", "--samples", "1500",
                   "--seed", "1") == 0

    def test_report_lines(self, capsys):
        assert run("haar-test", "--dim", "2", "--samples", "1000",
                   "--seed", "5") == 0
        err = capsys.readouterr().err
        assert "KS statistic" in err
        assert any(line.startswith("haar-test: max |mean |U_ij|^2 - 1/dim| = ")
                   and "(threshold " in line for line in err.splitlines())
        assert "PASS" in err

    def test_sample_floor(self):
        assert run("haar-test", "--dim", "2", "--samples", "10") == 2

    def test_dim_floor(self):
        assert run("haar-test", "--dim", "1", "--samples", "2000") == 2

    def test_statistical_failure_exit_code(self, monkeypatch, capsys):
        def rigged(dim, samples, rng):
            return SampleReport(
                dim=dim,
                sample_count=samples,
                ks_statistic=0.5,
                mean_moduli=np.full((dim, dim), 1.0 / dim),
            )

        monkeypatch.setattr(ucoset.haar, "haar_validate", rigged)
        assert run("haar-test", "--dim", "2", "--samples", "2000") == 5
        err = capsys.readouterr().err.splitlines()
        assert "haar-test: FAIL KS statistic of |U_11|^2 past its threshold" in err
        assert not any(x.startswith("haar-test: FAIL max") for x in err)

    @pytest.mark.parametrize("dim, samples", [(2, 2000), (3, 2000), (17, 1000), (17, 50000)])
    def test_mean_moduli_gate(self, monkeypatch, capsys, dim, samples):
        # The gate is a Bonferroni bound on the N^2 entry means at a 1e-6
        # false-alarm rate: at least the two-sided Gaussian quantile of that
        # rate times the Beta(1, N - 1) standard error, and within 15 % of
        # it.  One entry just inside passes and one just past fails, or is
        # NaN, with the KS gate passing.
        alarm = 1e-6 / (dim * dim)
        error = math.sqrt((dim - 1) / (dim * dim * (dim + 1) * samples))
        exact = NormalDist().inv_cdf(1.0 - 0.5 * alarm) * error
        dev = {"value": 0.0}

        def rigged(dim, samples, rng):
            moduli = np.full((dim, dim), 1.0 / dim)
            moduli[-1, 0] += dev["value"]
            return SampleReport(dim=dim, sample_count=samples, ks_statistic=0.0,
                                mean_moduli=moduli)

        monkeypatch.setattr(ucoset.haar, "haar_validate", rigged)
        args = ("haar-test", "--dim", str(dim), "--samples", str(samples))
        assert run(*args) == 0
        line, = [x for x in capsys.readouterr().err.splitlines()
                 if x.startswith("haar-test: max |mean")]
        threshold = float(line.rsplit("(threshold ", 1)[1].rstrip(")"))
        assert exact <= threshold <= 1.15 * exact
        for value, code in [(-0.99 * threshold, 0), (1.01 * threshold, 5), (math.nan, 5)]:
            dev["value"] = value
            assert run(*args) == code
            err = capsys.readouterr().err.splitlines()
            assert ("haar-test: FAIL max |mean |U_ij|^2 - 1/dim| past its threshold"
                    in err) == (code == 5)
            assert not any(x.startswith("haar-test: FAIL KS") for x in err)

    def test_nan_statistic_fails(self, monkeypatch, capsys):
        def rigged(dim, samples, rng):
            return SampleReport(dim=dim, sample_count=samples, ks_statistic=math.nan,
                                mean_moduli=np.full((dim, dim), 1.0 / dim))

        monkeypatch.setattr(ucoset.haar, "haar_validate", rigged)
        assert run("haar-test", "--dim", "2", "--samples", "2000") == 5
        assert "FAIL" in capsys.readouterr().err


class TestUsage:
    def test_no_arguments(self):
        assert run() == 2

    def test_unknown_command(self):
        assert run("frobnicate") == 2

    def test_module_entry_point(self, tmp_path):
        path = write_json(tmp_path / "u0.json", matrix_obj(U0))
        # The child imports ucoset from where this process did, even when
        # that directory reached sys.path only through pytest's pythonpath.
        src = os.path.dirname(os.path.dirname(os.path.abspath(ucoset.__file__)))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-m", "ucoset.cli", "verify", "--input", path],
            capture_output=True,
            text=True,
            env=env,
        )
        assert proc.returncode == 0
        assert "PASS" in proc.stderr
