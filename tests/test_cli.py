import json
import os
import subprocess
import sys

import numpy as np
import pytest

import ucoset
from ucoset import RngStream, cli, haar_unitary
from ucoset.haar import SampleReport

from golden_data import GOLDEN_DIR, U0, maxdiff, random_unitary


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
        for g, e in zip(got["factors"], expected["factors"]):
            assert maxdiff(matrix_from_obj(g), matrix_from_obj(e)) <= 1e-12
        got_phases = [complex(re, im) for re, im in got["phases"]]
        exp_phases = [complex(re, im) for re, im in expected["phases"]]
        assert maxdiff(got_phases, exp_phases) <= 1e-12
        if mode == "householder":
            assert maxdiff(got["pivot_phases"], expected["pivot_phases"]) <= 1e-12

    def test_identity_householder(self, tmp_path):
        path = write_json(tmp_path / "eye.json", matrix_obj(np.eye(3)))
        out = tmp_path / "fact.json"
        assert run("decompose", "--input", path, "--output", str(out)) == 0
        got = json.loads(out.read_text())
        assert maxdiff(matrix_from_obj(got["factors"][0]),
                       np.diag([-1.0, 1.0, 1.0])) == 0.0
        assert maxdiff(matrix_from_obj(got["factors"][1]),
                       np.diag([1.0, -1.0, 1.0])) == 0.0
        assert [complex(re, im) for re, im in got["phases"]] == [-1.0, -1.0, 1.0]

    def test_writes_to_stdout_by_default(self, u0_file, capsys):
        assert run("decompose", "--input", u0_file, "--mode", "coset") == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["kind"] == "coset"

    def test_non_unitary_input(self, tmp_path, capsys):
        path = write_json(tmp_path / "bad.json", matrix_obj(np.diag([2.0, 1.0])))
        assert run("decompose", "--input", path) == 3
        assert "unitarity" in capsys.readouterr().err

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


def golden_with(name, path, value):
    """A golden file with the entry at ``path`` (keys and indices) replaced."""
    obj = json.loads((GOLDEN_DIR / name).read_text())
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
    "householder-level": ("u0_householder.json", ("factors", 1), HOUSEHOLDER_FACTOR_1),
    "householder-corner": ("u0_householder.json", ("factors", 0),
                           matrix_obj(POSITIVE_CORNER_REFLECTION)),
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


@pytest.mark.parametrize("case", ["coset-diagonal-factor", "householder-level"])
def test_rejected_factor_names_its_level(tmp_path, capsys, case):
    # Both files have a bad factor 2.
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
}


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


class TestVerify:
    def test_unitary_matrix_passes(self, u0_file):
        assert run("verify", "--input", u0_file) == 0

    def test_non_unitary_matrix_fails(self, tmp_path, capsys):
        path = write_json(tmp_path / "d.json", matrix_obj(np.diag([2.0, 1.0])))
        assert run("verify", "--input", path) == 4
        assert "3.000" in capsys.readouterr().err

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

        monkeypatch.setattr(cli.haar, "haar_validate", rigged)
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
