"""Self-tests of the benchmark: quick runs of every workload, and checks
that reject wrong outputs.

    python3 -m pytest -q perfbench/selftest.py

The file is not named ``test_*.py``, so the repository's own test run does
not collect it.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import types
from pathlib import Path

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)
OUT = os.path.join(ROOT, ".perfbench-out")

from ucoset import haar, householder  # noqa: E402

import reference as ref  # noqa: E402
import speed  # noqa: E402
from spans import Tracer  # noqa: E402
from worker import end_to_end, tail  # noqa: E402
from workloads import (WORKLOADS, CliRoundtrip, CosetRoundtrip, HaarSample,  # noqa: E402
                       _coset_chain)

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    BENCH = json.load(fh)


def run_bench(workload, trace, cwd=ROOT, root=ROOT):
    return subprocess.run(
        [sys.executable, os.path.join(root, "perfbench", "run.py"), "--workload", workload,
         "--seed", "1", "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=180)


def check_result(result, trace):
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = BENCH["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for m in declared:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_quick_run_of_all_workloads():
    proc = run_bench("all", 0)
    assert proc.returncode == 0, proc.stderr
    lines = [json.loads(line) for line in proc.stdout.strip().splitlines()]
    assert [r.pop("workload") for r in lines] == list(WORKLOADS)
    for result in lines:
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        check_result(result, 0)


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_quick_traced_run(workload):
    proc = run_bench(workload, 1)
    assert proc.returncode == 0, proc.stderr
    check_result(json.loads(proc.stdout.strip().splitlines()[-1]), 1)


def test_workloads_match_benchmark_json():
    import run
    assert [w["name"] for w in BENCH["workloads"]] == list(WORKLOADS) == list(run.WORKLOADS)


@pytest.fixture
def workdir(monkeypatch):
    """Scratch directory inside the checkout; CLI children find ``src/``."""
    monkeypatch.setenv("PYTHONPATH", os.path.join(ROOT, "src"))
    os.makedirs(OUT, exist_ok=True)
    path = tempfile.mkdtemp(dir=OUT)
    yield path
    shutil.rmtree(path, ignore_errors=True)


def test_fails_without_the_program(workdir):
    tmp_path = Path(workdir)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("haar-sample", 0, cwd=tmp_path, root=str(tmp_path))
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_tail_has_ten_samples_above():
    values = list(range(50))
    assert tail(values) == 39
    assert tail([1.0, 2.0]) == 2.0


def loop_result(lat_ms, factors):
    return {"lat": [v * 1e6 for v in lat_ms], "factor": factors,
            "kind": ["a", "b"] * (len(lat_ms) // 2)}


def test_slow_stretch_of_the_machine_does_not_move_the_metrics():
    # Two op kinds, 20 rounds; the machine is 1.5 times slower in 15 of
    # them, and the speed factor taken around those ops says so.
    nominal_ms = [10.0, 30.0] * 20
    slow = [1.5 if i >= 10 else 1.0 for i in range(40)]
    m = end_to_end(loop_result([v * f for v, f in zip(nominal_ms, slow)], slow), 1024)
    assert m["throughput_ops_per_s"] == pytest.approx(2 / 0.040)
    assert m["latency_p50_ms"] == pytest.approx(20.0)
    assert m["latency_tail_ms"] == pytest.approx(30.0)


def test_slower_program_moves_the_metrics_in_full():
    nominal_ms = [10.0, 30.0] * 20
    m = end_to_end(loop_result([1.2 * v for v in nominal_ms], [1.0] * 40), 1024)
    assert m["throughput_ops_per_s"] == pytest.approx(2 / 0.040 / 1.2)
    assert m["latency_p50_ms"] == pytest.approx(24.0)
    assert m["latency_tail_ms"] == pytest.approx(36.0)


def test_a_few_slow_ops_do_not_move_throughput():
    nominal_ms = [10.0, 30.0] * 20
    lat_ms = [v * (3.0 if i >= 36 else 1.0) for i, v in enumerate(nominal_ms)]
    m = end_to_end(loop_result(lat_ms, [1.0] * 40), 1024)
    assert m["throughput_ops_per_s"] == pytest.approx(2 / 0.040)


def test_speed_factor_is_near_one_and_ignores_the_program():
    f = [speed.factor() for _ in range(5)]
    assert all(0.2 < x < 5.0 for x in f)
    modules = {v.__name__ for v in vars(speed).values() if isinstance(v, types.ModuleType)}
    assert not any(name.startswith("ucoset") for name in modules)


# -- haar-sample ------------------------------------------------------------

def haar_job(dim=3, samples=1000, seed=5, stream=7):
    rng = haar.RngStream(seed, stream)
    return haar.haar_validate(dim, samples, rng), rng.draws


def test_haar_check_accepts_a_true_job():
    report, draws = haar_job()
    ref.check_haar_job(report, 3, 1000, draws, 5, 7)


def test_haar_check_rejects_a_wrong_variate_count():
    report, draws = haar_job()
    with pytest.raises(ref.CheckFailed, match="variates"):
        ref.check_haar_job(report, 3, 1000, draws + 1, 5, 7)


def test_haar_check_rejects_a_perturbed_report():
    report, draws = haar_job()
    moduli = report.mean_moduli.copy()
    moduli[0, 1] += 1e-9
    wrong = haar.SampleReport(dim=3, sample_count=1000, ks_statistic=report.ks_statistic,
                              mean_moduli=moduli)
    with pytest.raises(ref.CheckFailed, match="mean moduli"):
        ref.check_haar_job(wrong, 3, 1000, draws, 5, 7)


def test_haar_check_rejects_another_stream():
    report, draws = haar_job(stream=8)
    with pytest.raises(ref.CheckFailed):
        ref.check_haar_job(report, 3, 1000, draws, 5, 7)


def test_haar_replay_matches_the_sampler():
    rng = haar.RngStream(3, 4)
    direct = np.array([haar.haar_unitary(5, rng) for _ in range(4)])
    assert np.max(np.abs(direct - ref.replay_haar(5, 4, 3, 4))) <= 1e-12


def test_haar_workload_op_checks_its_output():
    wl = HaarSample(5, None)
    op = wl.round(0)[0]
    report, draws = op.run()
    op.check((report, draws))
    with pytest.raises(ref.CheckFailed):
        op.check((report, draws - 9))


# -- householder-large ------------------------------------------------------

@pytest.fixture
def u16():
    return ref.haar_matrix(16, np.random.default_rng(3))


def hh_parts(f):
    return [r.pivot.copy() for r in f.reflections], f.pivot_phases, f.residual.phases.copy()


@pytest.mark.parametrize("ordering", ["forward", "reversed"])
def test_householder_check_accepts_both_orderings(u16, ordering):
    f = (householder.decompose if ordering == "forward" else householder.decompose_reversed)(u16)
    ref.check_householder(u16, *hh_parts(f), ordering, householder.reconstruct(f))


def test_householder_check_rejects_a_swapped_ordering(u16):
    f = householder.decompose_reversed(u16)
    with pytest.raises(ref.CheckFailed, match="pivots rebuild"):
        ref.check_householder(u16, *hh_parts(f), "forward", householder.reconstruct(f))


def test_householder_check_rejects_a_perturbed_pivot(u16):
    f = householder.decompose(u16)
    pivots, phases, residual = hh_parts(f)
    pivots[4][9] += 1e-8
    with pytest.raises(ref.CheckFailed, match="pivots rebuild"):
        ref.check_householder(u16, pivots, phases, residual, "forward", householder.reconstruct(f))


def test_householder_check_rejects_nonzero_leading_components(u16):
    f = householder.decompose(u16)
    pivots, phases, residual = hh_parts(f)
    pivots[3][0] = 1e-300
    with pytest.raises(ref.CheckFailed, match="leading"):
        ref.check_householder(u16, pivots, phases, residual, "forward", householder.reconstruct(f))


def test_householder_check_rejects_a_wrong_residual(u16):
    f = householder.decompose(u16)
    pivots, phases, residual = hh_parts(f)
    residual[2] *= np.exp(1e-9j)
    with pytest.raises(ref.CheckFailed, match="residual"):
        ref.check_householder(u16, pivots, phases, residual, "forward", householder.reconstruct(f))


def test_householder_check_rejects_a_perturbed_reconstruction(u16):
    f = householder.decompose(u16)
    rebuilt = householder.reconstruct(f)
    rebuilt[5, 5] += 1e-8
    with pytest.raises(ref.CheckFailed, match="reconstruct"):
        ref.check_householder(u16, *hh_parts(f), "forward", rebuilt)


# -- coset-roundtrip ---------------------------------------------------------

def coset_parts(u, ordering):
    cf, vs, composed = _coset_chain(u, ordering)
    return ([v.x.copy() for v in vs], [v.rho for v in vs],
            np.array(cf.terminal_phases.phases), composed)


@pytest.mark.parametrize("ordering", ["forward", "reversed"])
def test_coset_check_accepts_both_orderings(u16, ordering):
    xs, rhos, terminal, composed = coset_parts(u16, ordering)
    ref.check_coset(u16, xs, rhos, terminal, ordering, composed)


def test_coset_check_rejects_a_swapped_ordering(u16):
    xs, rhos, terminal, composed = coset_parts(u16, "forward")
    with pytest.raises(ref.CheckFailed, match="coset vectors rebuild"):
        ref.check_coset(u16, xs, rhos, terminal, "reversed", composed)


def test_coset_check_rejects_a_perturbed_vector(u16):
    xs, rhos, terminal, composed = coset_parts(u16, "forward")
    xs[2] = xs[2] * (1.0 - 1e-8)
    with pytest.raises(ref.CheckFailed):
        ref.check_coset(u16, xs, rhos, terminal, "forward", composed)


def test_coset_check_rejects_a_point_outside_the_ball(u16):
    xs, rhos, terminal, composed = coset_parts(u16, "forward")
    xs[0] = xs[0] / np.linalg.norm(xs[0]) * 1.01
    with pytest.raises(ref.CheckFailed, match="exceeds 1"):
        ref.check_coset(u16, xs, rhos, terminal, "forward", composed)


def test_coset_check_rejects_a_perturbed_composition(u16):
    xs, rhos, terminal, composed = coset_parts(u16, "reversed")
    composed[0, 3] += 1e-8
    with pytest.raises(ref.CheckFailed, match="compose_cosets"):
        ref.check_coset(u16, xs, rhos, terminal, "reversed", composed)


def test_coset_workload_op_rejects_a_swapped_ordering():
    wl = CosetRoundtrip(2, None)
    fwd, rev = wl.round(0)[:2]
    out = list(rev.run())
    out[0] = "forward"
    with pytest.raises(ref.CheckFailed, match="ordering"):
        rev.check(tuple(out))
    fwd.check(fwd.run())


# -- cli-roundtrip -----------------------------------------------------------

@pytest.fixture
def cli_ops(workdir):
    wl = CliRoundtrip(4, workdir)
    return wl, wl.round(0)


def test_cli_check_rejects_a_perturbed_reconstruction(cli_ops):
    wl, ops = cli_ops
    op = ops[0]
    results = op.run()
    op.check(results)
    path = wl._path("rec0.json")
    with open(path, encoding="utf-8") as fh:
        obj = json.load(fh)
    obj["data"][1][2][0] += 1e-7
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh)
    with pytest.raises(ref.CheckFailed, match="reconstructed file"):
        op.check(results)


def test_cli_check_rejects_a_verify_without_pass(cli_ops):
    _, ops = cli_ops
    op = ops[0]
    results = op.run()
    results[2]["stderr"] = "verify: FAIL factor 1 unitarity error 1e-3\n"
    with pytest.raises(ref.CheckFailed, match="PASS"):
        op.check(results)


def test_cli_check_rejects_a_non_unitary_sample(cli_ops):
    wl, ops = cli_ops
    op = ops[1]
    results = op.run()
    op.check(results)
    path = wl._path("sample0.json")
    with open(path, encoding="utf-8") as fh:
        obj = json.load(fh)
    obj["matrices"][3]["data"][0][0][0] *= 1.001
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh)
    with pytest.raises(ref.CheckFailed, match="unitarity"):
        op.check(results)


def test_cli_failed_exit_counts_as_failed(cli_ops):
    _, ops = cli_ops
    op = ops[0]
    results = op.run()
    assert not op.failed(results)
    results[1]["code"] = 1
    assert op.failed(results)


# -- tracing ---------------------------------------------------------------

def test_tracer_wraps_every_namespace_and_restores_it():
    original = householder.apply_reflection
    tracer = Tracer()
    tracer.install()
    try:
        assert haar.apply_reflection is householder.apply_reflection is not original
        tracer.begin_op(0)
        tracer.span("op", haar.haar_unitary, 4, haar.RngStream(1))
        tracer.end_op()
    finally:
        tracer.uninstall()
    assert haar.apply_reflection is householder.apply_reflection is original
    summary = tracer.summary()
    assert summary["householder.apply_reflection"][0] == 3
    assert summary["haar.sample_ball"][0] == 3
    calls, total, self_ns = summary["op"]
    children = sum(v[1] for k, v in summary.items() if k == "haar.haar_unitary")
    assert calls == 1 and self_ns == pytest.approx(total - children)


def test_tracer_records_nothing_outside_an_op():
    tracer = Tracer()
    tracer.install()
    try:
        haar.haar_unitary(3, haar.RngStream(1))
    finally:
        tracer.uninstall()
    assert tracer.name == []
