"""Acceptance suite: eight end-to-end criteria with pinned tolerances.

Each test prints exactly one PASS/FAIL line (run with ``pytest -s`` to see
them on success; on failure the line is in the assertion message).
"""

import json
import math
import time

import numpy as np

import ucoset
from ucoset import (
    RngStream,
    cli,
    compose_cosets,
    coset_matrix_from_X,
    coset_u2_explicit,
    coset_u3_explicit,
    cosets_from_householder,
    cosets_from_householder_reversed,
    decompose,
    decompose_reversed,
    exp_coset,
    expm_series,
    extract_coset_vector,
    gamma_from_rho,
    generator_matrix,
    haar_oracle,
    haar_unitary,
    haar_validate,
    ks_statistic_two_sample,
    normal_from_coset_vector,
    reconstruct,
    reflect_matrix,
    unitarity_error,
)
from ucoset.coset import CosetVector, Generator
from ucoset.haar import SampleReport

from golden_data import (
    C1,
    C1_REV,
    C2,
    C2_REV,
    GOLDEN_DIR,
    R1,
    R2,
    RESIDUAL,
    TERMINAL,
    TERMINAL_REV,
    U0,
    maxdiff,
    random_unitary,
)


def report(num, name, ok, detail):
    line = f"criterion {num} ({name}): {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    assert ok, line


def test_criterion_1_golden_forward():
    start = time.perf_counter()
    f = decompose(U0)
    err = max(
        maxdiff(reflect_matrix(f.reflections[0]), R1),
        maxdiff(reflect_matrix(f.reflections[1]), R2),
        maxdiff(f.residual.phases, RESIDUAL),
    )
    cf = cosets_from_householder(f)
    err = max(
        err,
        maxdiff(cf.factors[0].matrix, C1),
        maxdiff(cf.factors[1].matrix, C2),
        maxdiff(cf.terminal_phases.phases, TERMINAL),
    )
    elapsed = time.perf_counter() - start
    report(
        1,
        "golden forward decomposition",
        err <= 1e-12 and elapsed < 1.0,
        f"max deviation {err:.2e} (tol 1e-12), {elapsed:.3f} s (limit 1 s)",
    )


def test_criterion_2_golden_reversed():
    f = decompose_reversed(U0)
    cf = cosets_from_householder_reversed(f)
    err = max(
        maxdiff(cf.factors[0].matrix, C1_REV),
        maxdiff(cf.factors[1].matrix, C2_REV),
        maxdiff(cf.terminal_phases.phases, TERMINAL_REV),
    )
    entry = cf.factors[0].matrix[0, 1]
    entry_err = abs(entry - math.sqrt(0.5))
    # The variant file with 1/2 at that entry must fail verification.
    bad = str(GOLDEN_DIR / "u0_coset_reversed_nonunitary.json")
    code = cli.main(["verify", "--input", bad])
    report(
        2,
        "golden reversed decomposition",
        err <= 1e-12 and entry_err <= 1e-12 and code == 4,
        f"max deviation {err:.2e} (tol 1e-12), (1,2) entry off by "
        f"{entry_err:.2e}, half-entry variant exits {code} (want 4)",
    )


def test_criterion_3_round_trips():
    start = time.perf_counter()
    rng = np.random.default_rng(300)
    worst_rebuild = 0.0
    worst_vector = 0.0
    for k in range(200):
        dim = int(rng.integers(2, 17))
        u = random_unitary(dim, 30000 + k)
        f = decompose(u)
        cf = cosets_from_householder(f)
        rev = decompose_reversed(u)
        cr = cosets_from_householder_reversed(rev)
        worst_rebuild = max(
            worst_rebuild,
            maxdiff(reconstruct(f), u),
            maxdiff(compose_cosets(cf), u),
            maxdiff(reconstruct(rev), u),
            maxdiff(compose_cosets(cr), u),
        )
        for c in cf.factors:
            rebuilt = coset_matrix_from_X(extract_coset_vector(c))
            worst_vector = max(worst_vector, maxdiff(rebuilt.matrix, c.matrix))
    elapsed = time.perf_counter() - start
    report(
        3,
        "round trips on 200 random unitaries",
        worst_rebuild <= 1e-10 and worst_vector <= 1e-13 and elapsed < 30.0,
        f"worst reconstruction {worst_rebuild:.2e} (tol 1e-10), worst "
        f"build/extract {worst_vector:.2e} (tol 1e-13), {elapsed:.1f} s "
        f"(limit 30 s)",
    )


def test_criterion_4_algebra_suite():
    rng = np.random.default_rng(400)
    worst = 0.0
    worst_det = 0.0
    for k in range(30):
        dim = int(rng.integers(2, 11))
        u = random_unitary(dim, 40000 + k)
        f = decompose(u)
        cf = cosets_from_householder(f)
        eye = np.eye(dim, dtype=complex)
        for refl, c in zip(f.reflections, cf.factors):
            xv = extract_coset_vector(c)
            rho = xv.rho
            r_sq = xv.r_sq
            mod = gamma_from_rho(rho, 0.0).modulus
            worst = max(
                worst,
                abs(refl.norm_sq - 2.0 * (1.0 + rho)),
                abs(2.0 * mod * mod - 1.0 - rho),
                abs(rho - math.sqrt(max(0.0, 1.0 - r_sq))),
                abs(r_sq - 4.0 * mod * mod * (1.0 - mod * mod)),
            )
            m = reflect_matrix(refl)
            worst = max(worst, maxdiff(m @ m, eye))
            worst_det = max(worst_det, abs(np.linalg.det(m) + 1.0))
            for j in range(refl.level - 1):
                axis = eye.copy()
                axis[j, j] = -1.0
                worst = max(worst, maxdiff(axis @ m, m @ axis))
    report(
        4,
        "factorization algebra identities",
        worst <= 1e-12 and worst_det <= 1e-10,
        f"worst identity deviation {worst:.2e} (tol 1e-12), worst "
        f"determinant deviation {worst_det:.2e} (tol 1e-10)",
    )


def test_criterion_5_exponential_and_explicit_charts():
    rng = np.random.default_rng(500)
    worst_exp = 0.0
    for _ in range(100):
        dim = int(rng.integers(2, 7))
        level = int(rng.integers(1, dim))
        b = rng.standard_normal(dim - level) + 1j * rng.standard_normal(dim - level)
        b *= rng.uniform(0.0, math.pi) / np.linalg.norm(b)
        g = Generator(b=b, dim=dim, level=level)
        worst_exp = max(
            worst_exp,
            maxdiff(exp_coset(g).matrix, expm_series(generator_matrix(g))),
        )
    worst_chart = 0.0
    for _ in range(1000):
        p = rng.standard_normal(4)
        p *= rng.uniform(0.0, 1.0) ** 0.25 / np.linalg.norm(p)
        x3, x4, x5, x6 = p
        u2 = coset_u2_explicit(x3, x4)
        xv2 = CosetVector.from_coords(np.array([complex(x3, x4)]), level=2, dim=3)
        u3 = coset_u3_explicit(x3, x4, x5, x6)
        xv3 = CosetVector.from_coords(
            np.array([complex(x5, x6), complex(x3, x4)]), level=1, dim=3
        )
        worst_chart = max(
            worst_chart,
            unitarity_error(u2),
            unitarity_error(u3),
            maxdiff(u2, coset_matrix_from_X(xv2).matrix),
            maxdiff(u3, coset_matrix_from_X(xv3).matrix),
        )
    # The linear-diagonal variant of the U(3) chart must fail unitarity.
    x3, x4, x5, x6 = 0.3, 0.2, 0.4, 0.1
    xi_sq = x3 * x3 + x4 * x4 + x5 * x5 + x6 * x6
    wrong = np.array(coset_u3_explicit(x3, x4, x5, x6))
    wrong[2, 2] = (math.sqrt(1.0 - xi_sq) * (x3 + x4) + (x5 + x6)) / xi_sq
    wrong_defect = unitarity_error(wrong)
    report(
        5,
        "exponential and explicit charts",
        worst_exp <= 1e-10 and worst_chart <= 1e-13 and wrong_defect > 1e-6,
        f"exp vs series {worst_exp:.2e} (tol 1e-10), explicit charts "
        f"{worst_chart:.2e} (tol 1e-13), linear-diagonal variant defect "
        f"{wrong_defect:.2e} (> 1e-6)",
    )


def test_criterion_6_haar_statistics():
    start = time.perf_counter()
    samples = 50000
    details = []
    ok = True
    for dim in (2, 3):
        rep = haar_validate(dim, samples, RngStream(600 + dim))
        mean_dev = maxdiff(rep.mean_moduli, np.full((dim, dim), 1.0 / dim))
        mine = np.empty(samples)
        rng_a = RngStream(610 + dim)
        for k in range(samples):
            mine[k] = abs(haar_unitary(dim, rng_a)[0, 0]) ** 2
        theirs = np.empty(samples)
        rng_b = RngStream(620 + dim)
        for k in range(samples):
            theirs[k] = abs(haar_oracle(dim, rng_b)[0, 0]) ** 2
        two_sample = ks_statistic_two_sample(mine, theirs)
        ok = ok and rep.ks_statistic < 0.01 and mean_dev < 0.01 and two_sample < 0.015
        details.append(
            f"N={dim}: KS {rep.ks_statistic:.4f} (<0.01), mean dev "
            f"{mean_dev:.4f} (<0.01), two-sample {two_sample:.4f} (<0.015)"
        )
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 60.0
    report(
        6,
        "Haar statistics at 5e4 samples",
        ok,
        "; ".join(details) + f"; {elapsed:.1f} s (limit 60 s)",
    )


def test_criterion_7_pivot_from_coset_vector():
    rng = np.random.default_rng(700)
    worst_match = 0.0
    worst_phase = 0.0
    for _ in range(1000):
        dim = int(rng.integers(2, 7))
        level = int(rng.integers(1, dim))
        x = rng.standard_normal(dim - level) + 1j * rng.standard_normal(dim - level)
        x *= rng.uniform(0.0, 1.0) ** (1.0 / (2 * (dim - level))) / np.linalg.norm(x)
        xv = CosetVector.from_coords(x, level=level, dim=dim)
        phase = rng.uniform(-math.pi, math.pi)
        axis = np.eye(dim, dtype=complex)
        axis[level - 1, level - 1] = -1.0

        def factor_from(phi):
            n = normal_from_coset_vector(xv, phi)
            return (np.eye(dim, dtype=complex) - 2.0 * np.outer(n, n.conj())) @ axis

        worst_match = max(
            worst_match,
            maxdiff(factor_from(phase), coset_matrix_from_X(xv).matrix),
        )
        worst_phase = max(
            worst_phase,
            maxdiff(factor_from(phase), factor_from(rng.uniform(-math.pi, math.pi))),
        )
    report(
        7,
        "pivot from coset vector",
        worst_match <= 1e-12 and worst_phase <= 1e-14,
        f"worst factor mismatch {worst_match:.2e} (tol 1e-12), worst phase "
        f"dependence {worst_phase:.2e} (tol 1e-14)",
    )


def test_criterion_8_cli_end_to_end(tmp_path, monkeypatch):
    def matrix_obj(m):
        m = np.asarray(m, dtype=complex)
        return {
            "rows": m.shape[0],
            "cols": m.shape[1],
            "data": [[[z.real, z.imag] for z in row] for row in m],
        }

    def matrix_back(path):
        obj = json.loads(path.read_text())
        return np.array(
            [[complex(re, im) for re, im in row] for row in obj["data"]]
        )

    modes = ["householder", "coset", "coset-reversed"]
    worst = 0.0
    cases = [U0] + [random_unitary(2 + (k % 11), 80000 + k) for k in range(20)]
    for k, u in enumerate(cases):
        src = tmp_path / f"m{k}.json"
        src.write_text(json.dumps(matrix_obj(u)))
        for mode in modes if k == 0 else [modes[k % 3]]:
            fact = tmp_path / f"f{k}{mode}.json"
            back = tmp_path / f"b{k}{mode}.json"
            assert cli.main(["decompose", "--input", str(src), "--mode", mode,
                             "--output", str(fact)]) == 0
            assert cli.main(["reconstruct", "--input", str(fact),
                             "--output", str(back)]) == 0
            worst = max(worst, maxdiff(matrix_back(back), u))

    twice = []
    for name in ("s1.json", "s2.json"):
        out = tmp_path / name
        assert cli.main(["sample", "--dim", "3", "--count", "3", "--seed", "9",
                         "--output", str(out)]) == 0
        twice.append(out.read_bytes())
    deterministic = twice[0] == twice[1]

    codes = {}
    codes[0] = cli.main(["verify", "--input", str(tmp_path / "m0.json")])
    broken = tmp_path / "broken.json"
    broken.write_text("{not json")
    codes[2] = cli.main(["decompose", "--input", str(broken)])
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(matrix_obj(np.diag([2.0, 1.0]))))
    codes[3] = cli.main(["decompose", "--input", str(bad)])
    codes[4] = cli.main(
        ["verify", "--input", str(GOLDEN_DIR / "u0_coset_reversed_nonunitary.json")]
    )

    def boom(u, tol):
        raise cli.UcosetError("synthetic")

    monkeypatch.setattr(cli.householder, "decompose", boom)
    codes[1] = cli.main(["decompose", "--input", str(tmp_path / "m0.json")])
    monkeypatch.undo()

    def rigged(dim, samples, rng):
        return SampleReport(dim=dim, sample_count=samples, ks_statistic=0.9,
                            mean_moduli=np.full((dim, dim), 1.0 / dim))

    monkeypatch.setattr(ucoset.haar, "haar_validate", rigged)
    codes[5] = cli.main(["haar-test", "--dim", "2", "--samples", "2000"])
    monkeypatch.undo()

    codes_ok = all(got == want for want, got in codes.items())
    report(
        8,
        "CLI end to end",
        worst <= 1e-10 and deterministic and codes_ok,
        f"worst file round trip {worst:.2e} (tol 1e-10), sample reruns "
        f"byte-identical: {deterministic}, exit codes "
        + ", ".join(f"{want}->{got}" for want, got in sorted(codes.items())),
    )
