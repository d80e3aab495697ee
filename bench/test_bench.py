"""Tests of the benchmark itself: its checks reject perturbed results, its
counters repeat exactly, and it emits every metric BENCHMARK.json names.

    python3 -m pytest bench -q
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import nilconv as nc  # noqa: E402
import run  # noqa: E402
import workloads as wl  # noqa: E402
from nilconv.grid import zero_lowest_face  # noqa: E402
from nilconv.groups import abelian, heisenberg1  # noqa: E402
from nilconv.product import ProductGroup  # noqa: E402
from tracer import Tracer  # noqa: E402

AB1 = ProductGroup([abelian(1)])
AB2 = ProductGroup([abelian(1), abelian(1)])
HEIS = ProductGroup([heisenberg1()])


def _spec_file():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _failed(checks):
    return [name for name, ok in checks if not ok]


# -- the metric contract ------------------------------------------------------


def test_benchmark_json_names_what_the_harness_emits():
    spec = _spec_file()
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert [m["name"] for m in spec["per_layer"]] == list(run.LAYER_NAMES)
    for m in spec["per_layer"]:
        assert m["unit"] == run.layer_unit(m["name"])
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())


def _fake_record(trace, rep=0, ok=True):
    tracer = Tracer()
    return {
        "workload": "heis-direct", "rep": rep, "trace": trace,
        "setup_s": 0.3 + rep, "pipeline_s": 2.0 + rep, "peak_rss_mb": 60.0 + rep,
        "calls": {"opnorm_s": 0.5 + rep, "compose_s": 1.5},
        "checks": [{"name": "a", "ok": True}, {"name": "b", "ok": ok}],
        "accuracy": {}, "layers": tracer.layer_metrics(),
    }


def test_summarize_emits_every_metric_with_its_unit():
    reps = [_fake_record(0, i) for i in range(3)]
    res = run.summarize(reps, 0, setups=[0.1, 0.2], refs=[0.5, 2.0, 2.0])
    assert {k: v["unit"] for k, v in res["metrics"].items()} == run.END_TO_END
    assert res["metrics"]["pipeline_ref"]["value"] == 2.0
    assert res["metrics"]["setup_s"]["value"] == 0.3
    assert (res["correct"], res["attempted"], res["failed"]) == (True, 6, 0)

    res = run.summarize([_fake_record(0), _fake_record(1, ok=False)], 1)
    assert list(res["metrics"]) == list(run.LAYER_NAMES)
    assert all(v["unit"] == run.layer_unit(k) for k, v in res["metrics"].items())
    assert res["metrics"]["fail_frac"]["value"] == 0.25
    assert res["metrics"]["opnorm_s"]["value"] == 0.5
    assert res["metrics"]["tame_s"]["value"] == 0.0
    assert (res["correct"], res["attempted"], res["failed"]) == (False, 4, 1)


def _bench(args, cwd):
    proc = subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)
    return proc.returncode, proc.stdout.strip().splitlines()


@pytest.mark.parametrize("trace", [0, 1])
def test_a_real_run_prints_every_metric(trace):
    code, lines = _bench(["--workload", "heis-direct", "--seed", "1",
                          "--seconds", "1", "--trace", str(trace)], ROOT)
    assert code == 0
    res = json.loads(lines[-1])
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] and res["attempted"] >= 1 and res["failed"] == 0
    spec = _spec_file()
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    assert {k: v["unit"] for k, v in res["metrics"].items()} == {
        m["name"]: m["unit"] for m in wanted}


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    code, lines = _bench(["--workload", "heis-direct", "--seed", "0",
                          "--seconds", "1", "--trace", "0"], tmp_path)
    assert code != 0
    assert not any(line.startswith("{") for line in lines)


# -- each check rejects a perturbed result ---------------------------------------


def test_toeplitz_oracle_matches_the_library_convolution():
    spec = nc.GridSpec(AB1, 16, 1.0)
    part = nc.DiscreteHilbertKernel(AB1)
    rng = np.random.default_rng(0)
    f = rng.standard_normal(16) + 1j * rng.standard_normal(16)
    want = nc.apply_op(part, nc.GridFunction(spec, f)).values
    got = wl.factor_toeplitz(part, 16, 1.0) @ f
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


def test_invert_checks_reject_scaled_sigmas():
    spec = nc.GridSpec(AB2, wl.INVERT_N, 1.0)
    K = nc.TensorKernel([nc.DiscreteHilbertKernel(AB1), nc.DiscreteHilbertKernel(AB1)])
    exact = wl.tensor_exact_sigmas(K, spec, wl.INVERT_PAD)
    assert exact == pytest.approx((1.088394, 0.053051), abs=1e-6)
    smax, smin = exact

    checks, acc = wl.invert_checks(smax, smin, 0.04, 0.99, exact)
    assert not _failed(checks) and acc["inversion.sigma_max_rel_err"] == 0.0
    checks, _ = wl.invert_checks(smax * 1.01, smin, 0.04, 0.99, exact)
    assert _failed(checks) == ["sigma_max_vs_exact"]
    checks, _ = wl.invert_checks(smax, smin * 0.99, 0.04, 0.99, exact)
    assert _failed(checks) == ["sigma_min_vs_exact"]
    checks, _ = wl.invert_checks(smax, smin, 0.06, 0.9, exact)
    assert _failed(checks) == ["max_residual", "cosine_vs_multiplier"]


def test_block_check_rejects_a_block_above_its_dense_sigma():
    spec = nc.GridSpec(AB2, 8, 2.0)
    rng = np.random.default_rng(17)
    K = nc.GridKernel(spec, zero_lowest_face(
        rng.standard_normal(spec.shape) + 1j * rng.standard_normal(spec.shape)))
    rep = nc.pk_seminorm(K, spec, (1, 1), nc.SeminormConfig())
    checks, worst = wl.top_block_checks("K", rep, K, spec)
    assert len(checks) == 3 and not _failed(checks)
    assert 0.0 <= worst < 1e-3

    row = rep.entries[1].best
    sigma = wl.dense_block_sigma(row, K, spec, rep.config["sep_constants"],
                                 rep.config["profile"])
    row["block"] = sigma * 1.001
    checks, _ = wl.top_block_checks("K", rep, K, spec)
    assert _failed(checks) == [f"K.{rep.entries[1].label}.block<=dense"]


def test_compose_check_rejects_a_corrupted_site():
    spec = nc.GridSpec(HEIS, 6, 1.0)
    K = nc.synth_dyadic(HEIS, -2, 0, "random", seed=1)
    L = nc.synth_dyadic(HEIS, -2, 0, "random", seed=2)
    vals = nc.compose_kernels(K, L, spec).values.copy()
    sites = wl.sample_sites(spec, 40, seed=3)
    assert not _failed(wl.compose_checks(K, L, spec, vals, sites))

    interior = [s for s in sites if 0 not in np.unravel_index(int(s), spec.shape)]
    vals.ravel()[interior[0]] += 1e-6 * np.abs(vals).max()
    assert _failed(wl.compose_checks(K, L, spec, vals, sites)) == [f"site{interior[0]}"]


def test_opnorm_check_rejects_a_value_above_young():
    spec = nc.GridSpec(HEIS, 6, 1.0)
    K = nc.synth_dyadic(HEIS, -2, 0, "random", seed=4)
    est = nc.op_norm(K, spec, max_iter=20)
    bound = wl.young_bound(K, spec)
    assert not _failed(wl.opnorm_checks(est.value, bound))
    assert _failed(wl.opnorm_checks(bound * 1.01, bound)) == ["opnorm<=young"]


def test_tame_report_checks_reject_broken_reports():
    good = SimpleNamespace(lhs=1.0, rhs=2.0, ratio=0.5, tameness_ok=True,
                           summands=[SimpleNamespace(value=2.0)])
    assert not _failed(wl.tame_report_checks("r", good))
    bad = SimpleNamespace(lhs=1.0, rhs=0.0, ratio=math.inf, tameness_ok=False,
                          summands=[SimpleNamespace(value=0.0)])
    assert _failed(wl.tame_report_checks("r", bad)) == ["r.tameness_ok", "r.finite"]


# -- inputs and counters repeat ---------------------------------------------------


def test_inputs_follow_the_seed():
    spec = nc.GridSpec(AB2, 16, 1.0)

    def kernels(seed, rep):
        return [c["K"].render(spec).values for c in wl.tame_setup(seed, rep)["cases"]]

    a, b, c = kernels(5, 0), kernels(5, 0), kernels(6, 0)
    assert all(np.array_equal(x, y) for x, y in zip(a, b))
    assert not np.array_equal(a[0], c[0])


def _traced_counts():
    tracer = Tracer()
    tracer.install()
    try:
        tracer.active = True
        hspec = nc.GridSpec(HEIS, 6, 1.0)
        K = nc.synth_dyadic(HEIS, -2, 0, "random", seed=1)
        nc.op_norm(K, hspec, max_iter=12)
        spec = nc.GridSpec(AB2, 8, 2.0)
        D = nc.synth_dyadic(AB2, -2, 0, "random", seed=2)
        nc.fk_seminorm(D, spec, (1, 1), nc.SeminormConfig(max_iter=12))
    finally:
        tracer.uninstall()
    metrics = tracer.layer_metrics()
    return {k: v for k, v in metrics.items() if not k.endswith("_s")}


def test_trace_counts_repeat_exactly_and_uninstall_restores():
    original = nc.apply_op
    first, second = _traced_counts(), _traced_counts()
    assert first == second
    for name in ("groups.bch_calls", "grid.index_of_calls",
                 "convolution.convolve_direct_calls", "convolution.fft_calls",
                 "convolution.power_runs", "seminorms.reports", "seminorms.blocks"):
        assert first[name] > 0, name
    assert first["seminorms.reports"] == 1  # the nested pk report is not counted twice
    assert nc.apply_op is original and nc.seminorms.apply_op is original
    assert not hasattr(np.fft.fftn, "__traced__")
