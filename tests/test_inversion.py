"""Neumann inversion: damping choice, series, decay tracking, presets."""

import json
import weakref
from collections import Counter
from functools import cached_property

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from oracles import dense_matrix, padded_symbol, toeplitz_convolution_matrix
from nilconv import convolution
from nilconv.convolution import _Spectrum, apply_op, compose_kernels, convolve, op_norm, prepare
from nilconv.grid import GridFunction, GridSpec, zero_lowest_face
from nilconv.groups import abelian, heisenberg1
from nilconv import inversion
from nilconv.inversion import (
    NOT_INVERTIBLE,
    choose_epsilon,
    near_identity_kernel,
    neumann_invert,
    probe_functions,
    seminorm_decay,
    singular_edges,
)
from nilconv.kernels import (
    ClosedFormKernel,
    DeltaKernel,
    DiscreteHilbertKernel,
    GridKernel,
    TensorKernel,
    adjoint_kernel,
    synth_dyadic,
)
from nilconv.product import ProductGroup
from nilconv.seminorms import SeminormConfig

AB1 = ProductGroup([abelian(1)])
AB2 = ProductGroup([abelian(1), abelian(1)])
HEIS = ProductGroup([heisenberg1()])

LIGHT = SeminormConfig(radius_factors=(1.0,))


def _tensor_hilbert():
    return TensorKernel([DiscreteHilbertKernel(AB1), DiscreteHilbertKernel(AB1)])


def _near_identity_dyadic(spec, strength=0.2, seed=1):
    D = synth_dyadic(spec.group, -2, 0, "random", seed=seed)
    return near_identity_kernel(D, spec, strength=strength, seed=0)


def _dense_singular_values(K, spec):
    def step(v):
        f = GridFunction(spec, v.reshape(spec.shape))
        return apply_op(K, f).values.ravel()

    A = dense_matrix(step, spec.size)
    return np.linalg.svd(A, compute_uv=False)


# --- sigma estimation against the dense oracle -------------------------------


INFO_KEYS = {"value", "method", "factors", "converged", "iterations"}


def _random_grid_kernel(spec, seed):
    rng = np.random.default_rng(seed)
    return GridKernel(spec, rng.normal(size=spec.shape) + 1j * rng.normal(size=spec.shape))


def _oracle_kernel(name):
    if name == "near-identity-abelian2":
        spec = GridSpec(AB2, 8, 1.0)
        return _near_identity_dyadic(spec, strength=0.4, seed=3), spec
    if name == "random-abelian2":
        spec = GridSpec(AB2, 8, 1.0)
        return _random_grid_kernel(spec, 5), spec
    spec = GridSpec(ProductGroup([heisenberg1()]), 6, 1.0)
    return _random_grid_kernel(spec, 6), spec


@pytest.mark.parametrize("path", ["dense", "lanczos"])
@pytest.mark.parametrize("name", ["near-identity-abelian2", "random-abelian2",
                                  "random-heisenberg1"])
def test_singular_edges_match_dense_oracle(monkeypatch, name, path):
    K, spec = _oracle_kernel(name)
    sv = _dense_singular_values(K, spec)
    if path == "lanczos":
        monkeypatch.setattr(inversion, "DENSE_SITES", 8)
    top, bottom = singular_edges(K, spec)
    for info in (top, bottom):
        assert set(info) == INFO_KEYS
        assert info["method"] == path and info["converged"] is True
        assert info["factors"] == [info["value"]]
    if path == "dense":
        assert top["iterations"] == 0
        assert top["value"] >= sv[0]
        assert abs(top["value"] - sv[0]) <= 1e-12 * sv[0]
        assert abs(bottom["value"] - sv[-1]) <= 1e-12 * sv[-1]
    else:
        # Ritz values of a compression: the top from below, the bottom from above
        assert 0 < top["iterations"] == bottom["iterations"] <= spec.size
        assert sv[0] * (1.0 - 1e-8) <= top["value"] <= sv[0] * (1.0 + 1e-12)
        assert sv[-1] * (1.0 - 1e-12) <= bottom["value"] <= sv[-1] * (1.0 + 1e-8)
    if name == "near-identity-abelian2":
        assert abs(op_norm(K, spec).value - sv[0]) <= 1e-6 * sv[0]


def test_singular_edges_young_bound_when_lanczos_stops_early(monkeypatch):
    # three steps leave both Ritz values short; the damping then uses
    # Young's bound, which is never below sigma_max (the kernel is built
    # first: near_identity_kernel's own Lanczos run also reads LANCZOS_STEPS)
    K, spec = _oracle_kernel("near-identity-abelian2")
    monkeypatch.setattr(inversion, "DENSE_SITES", 8)
    monkeypatch.setattr(inversion, "LANCZOS_STEPS", 3)
    sv = _dense_singular_values(K, spec)
    ec = choose_epsilon(K, spec)
    top, bottom = ec.sigma_max_info, ec.sigma_min_info
    assert top["method"] == "young-bound" and bottom["method"] == "lanczos"
    assert top["converged"] is False and bottom["converged"] is False
    assert top["iterations"] == bottom["iterations"] == 3
    assert ec.sigma_max >= sv[0]
    assert ec.sigma_max == float(np.abs(K.values).sum() * spec.volume)
    assert ec.sigma_min >= sv[-1] * (1.0 - 1e-12)


def test_singular_edges_hilbert_1d():
    spec = GridSpec(AB1, 64, 1.0)
    K = DiscreteHilbertKernel(AB1)
    sv = _dense_singular_values(K, spec)
    top, bottom = singular_edges(K, spec)
    assert abs(bottom["value"] - sv[-1]) <= 1e-12 * sv[-1]
    assert top["value"] >= sv[0]
    # box restriction leaves an order-one bottom edge for the lattice kernel
    assert sv[-1] >= 0.2


@pytest.mark.parametrize("dense_sites", [2048, 8], ids=["dense", "lanczos"])
def test_singular_edges_zero_operator(monkeypatch, dense_sites):
    monkeypatch.setattr(inversion, "DENSE_SITES", dense_sites)
    spec = GridSpec(AB2, 8, 1.0)
    K = GridKernel(spec, np.zeros(spec.shape))
    for info in singular_edges(K, spec):
        assert info["value"] == 0.0 and info["converged"]


def test_singular_edges_renders_each_tensor_part_once(monkeypatch):
    # the edges of a tensor kernel read its op's blocks, not second renders
    parts = [DiscreteHilbertKernel(AB1), DiscreteHilbertKernel(AB1, 0.5)]
    seen = []
    render = DiscreteHilbertKernel.render
    monkeypatch.setattr(DiscreteHilbertKernel, "render",
                        lambda self, spec: seen.append(id(self)) or render(self, spec))
    top, bottom = singular_edges(TensorKernel(parts), GridSpec(AB2, 16, 1.0))
    assert seen == [id(p) for p in parts]
    assert top["converged"] and bottom["value"] > 0


# --- damping choice -----------------------------------------------------------


def test_singular_edges_reuse_repeated_factor_blocks(monkeypatch):
    # H (x) H has two byte-equal factor blocks on equal grids: one SVD serves
    # both; H (x) 0.5 H takes two.  Either way the info dicts are those the
    # per-factor SVDs give, bit for bit
    spec = GridSpec(AB2, 32, 1.0)
    sub = GridSpec(AB1, 32, 1.0)
    parts = {a: DiscreteHilbertKernel(AB1, a) for a in (1.0, 0.5)}
    single = {a: singular_edges(TensorKernel([K]), sub) for a, K in parts.items()}
    calls = []
    real_svd = np.linalg.svd

    def counted(*args, **kwargs):
        calls.append(1)
        return real_svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted)
    for second, svds in ((1.0, 1), (0.5, 2)):
        calls.clear()
        top, bottom = singular_edges(TensorKernel([parts[1.0], parts[second]]), spec)
        assert len(calls) == svds
        for got, key in ((top, 0), (bottom, 1)):
            edges = [single[1.0][key]["value"], single[second][key]["value"]]
            assert got == {"value": float(edges[0] * edges[1]), "method": "dense",
                           "factors": edges, "converged": True, "iterations": 0}


def test_choose_epsilon_formulas():
    spec = GridSpec(AB2, 8, 1.0)
    K = _near_identity_dyadic(spec, strength=0.4, seed=3)
    ec = choose_epsilon(K, spec)
    assert ec.epsilon == 2.0 / (ec.sigma_max**2 + ec.sigma_min**2)
    want = (ec.sigma_max**2 - ec.sigma_min**2) / (ec.sigma_max**2 + ec.sigma_min**2)
    assert ec.s_norm_pred == want
    assert 0.0 <= ec.s_norm_pred < 1.0

    pc = choose_epsilon(K, spec, paper_eps=True)
    assert pc.epsilon == 1.0 / pc.sigma_max**2
    assert pc.paper_eps and not ec.paper_eps
    d = pc.to_dict()
    assert d["epsilon"] == pc.epsilon
    assert d["sigma_min_info"]["value"] == pc.sigma_min


def test_choose_epsilon_predicts_contraction():
    # exact edges predict the rate of the operator product
    # I - eps Op(K~) Op(K); the remainder kernel S is composed on the box,
    # which truncates it, so its operator differs and op_norm is checked on
    # S against S's own dense SVD
    spec = GridSpec(AB2, 8, 1.0)
    K = _near_identity_dyadic(spec, strength=0.4, seed=3)
    ec = choose_epsilon(K, spec)
    opK = prepare(K, spec)
    normal = dense_matrix(lambda v: opK.normal(v.reshape(spec.shape)).ravel(), spec.size)
    product = np.linalg.svd(np.eye(spec.size) - ec.epsilon * normal, compute_uv=False)[0]
    assert ec.s_norm_pred < 1.0
    assert ec.s_norm_pred == pytest.approx(product, rel=1e-10)
    base = DeltaKernel(AB2).render(spec).values
    S = GridKernel(spec, base - ec.epsilon * compose_kernels(adjoint_kernel(K), K, spec).values)
    est = op_norm(S, spec)
    assert est.converged
    assert est.value == pytest.approx(_dense_singular_values(S, spec)[0], rel=1e-10)


def test_choose_epsilon_rejects_zero_kernel():
    spec = GridSpec(AB2, 8, 1.0)
    K = GridKernel(spec, np.zeros(spec.shape))
    with pytest.raises(ValueError, match=NOT_INVERTIBLE):
        choose_epsilon(K, spec)


def test_choose_epsilon_delta_is_exact():
    spec = GridSpec(AB1, 16, 1.0)
    ec = choose_epsilon(DeltaKernel(AB1, 1.0), spec)
    assert abs(ec.epsilon - 1.0) <= 1e-12
    ec2 = choose_epsilon(DeltaKernel(AB1, 2.0), spec)
    assert abs(ec2.epsilon - 0.25) <= 1e-12


def test_choose_epsilon_tensor_hilbert():
    # the doubled-grid multiplier is unimodular, so the top edge sits near 1;
    # box restriction pushes a thin cluster of directions well below the
    # multiplier's promise, which the estimate must report honestly
    spec = GridSpec(AB2, 64, 1.0)
    K = _tensor_hilbert()
    sub = GridSpec(AB1, 64, 1.0)
    sym = padded_symbol(DiscreteHilbertKernel(AB1).render(sub).values, sub.volume)
    assert np.abs(sym).max() <= 1.15
    ec = choose_epsilon(K, spec, paper_eps=True)
    assert abs(ec.sigma_max - 1.0) <= 0.1
    assert 0.03 <= ec.sigma_min <= 0.3
    assert ec.s_norm_pred < 1.0
    # both factors are the same box Toeplitz operator, so the edges are
    # exactly the squares of its extreme singular values
    H = DiscreteHilbertKernel(AB1).render(sub).values
    s = np.linalg.svd(toeplitz_convolution_matrix(H, sub.spacings[0]),
                      compute_uv=False)
    assert np.abs(np.fft.ifft(sym)[:64] / sub.volume - H).max() <= 1e-12
    assert ec.sigma_max >= s[0] ** 2
    assert abs(ec.sigma_max - s[0] ** 2) <= 1e-12 * s[0] ** 2
    assert abs(ec.sigma_min - s[-1] ** 2) <= 1e-12 * s[-1] ** 2


def _heisenberg_abelian_tensor(N):
    sub_h = GridSpec(ProductGroup([heisenberg1()]), N, 1.0)
    rng = np.random.default_rng(10)
    part_h = GridKernel(sub_h, zero_lowest_face(rng.normal(size=sub_h.shape)))
    K = TensorKernel([part_h, ClosedFormKernel(AB1, "hilbert")])
    return K, GridSpec(K.group, N, 1.0)


def _random_part(N, seed):
    sub = GridSpec(AB1, N, 1.0)
    rng = np.random.default_rng(seed)
    return GridKernel(sub, rng.normal(size=sub.shape) + 1j * rng.normal(size=sub.shape))


def _tensor_cases():
    return {
        "hilbert2": (_tensor_hilbert(), GridSpec(AB2, 8, 1.0)),
        "delta-grid": (TensorKernel([DeltaKernel(AB1, -2 + 1j), _random_part(8, 4)]),
                       GridSpec(AB2, 8, 1.0)),
        "heisenberg-abelian": _heisenberg_abelian_tensor(4),
    }


@pytest.mark.parametrize("name", ["hilbert2", "delta-grid", "heisenberg-abelian"])
def test_choose_epsilon_tensor_matches_dense_svd(name):
    # the full operator's dense SVD, not the per-factor product, is the oracle
    K, spec = _tensor_cases()[name]
    sv = _dense_singular_values(K, spec)
    ec = choose_epsilon(K, spec)
    assert ec.sigma_max >= sv[0]
    assert abs(ec.sigma_max - sv[0]) <= 1e-10 * sv[0]
    assert abs(ec.sigma_min - sv[-1]) <= 1e-10 * sv[-1]
    for info in (ec.sigma_max_info, ec.sigma_min_info):
        assert set(info) == INFO_KEYS
        assert info["method"] == "dense"
        assert info["converged"] is True
        assert info["iterations"] == 0
        assert len(info["factors"]) == 2
    assert ec.sigma_max_info["value"] == ec.sigma_max
    assert ec.sigma_min_info["value"] == ec.sigma_min
    if name == "delta-grid":
        assert ec.sigma_max_info["factors"][0] == abs(-2 + 1j)
        assert ec.sigma_min_info["factors"][0] == abs(-2 + 1j)


def test_choose_epsilon_tensor_factor_iterative_fallback(monkeypatch):
    # both 16-site factors go past the lowered dense limit and run Lanczos
    # on their own grids
    monkeypatch.setattr(inversion, "DENSE_SITES", 8)
    K = TensorKernel([_random_part(16, 4), _random_part(16, 5)])
    spec = GridSpec(AB2, 16, 1.0)
    sv = _dense_singular_values(K, spec)
    ec = choose_epsilon(K, spec)
    top, bottom = ec.sigma_max_info, ec.sigma_min_info
    assert top["method"] == bottom["method"] == "lanczos"
    assert top["converged"] and bottom["converged"]
    assert abs(ec.sigma_max - sv[0]) <= 1e-8 * sv[0]
    assert abs(ec.sigma_min - sv[-1]) <= 1e-8 * sv[-1]
    sub = GridSpec(AB1, 16, 1.0)
    runs = [singular_edges(TensorKernel([p]), sub) for p in K.parts]
    assert top["factors"] == [r[0]["value"] for r in runs]
    assert bottom["factors"] == [r[1]["value"] for r in runs]
    assert top["iterations"] == bottom["iterations"] == sum(r[0]["iterations"] for r in runs)
    assert top["iterations"] > 0


def test_choose_epsilon_tensor_zero_part_not_invertible():
    K = TensorKernel([DeltaKernel(AB1, 3.0), GridKernel(GridSpec(AB1, 8, 1.0), np.zeros(8))])
    with pytest.raises(ValueError, match=NOT_INVERTIBLE):
        choose_epsilon(K, GridSpec(AB2, 8, 1.0))


def test_invert_budget_reaches_tensor_factor_edges(monkeypatch):
    # the pair budget bounds the dense factor operators of choose_epsilon
    monkeypatch.setattr(convolution, "PAIR_BUDGET", 10)
    K, spec = _heisenberg_abelian_tensor(4)
    with pytest.raises(ValueError, match="budget 10$"):
        choose_epsilon(K, spec)


def test_choose_epsilon_keeps_iterative_provenance_for_other_kernels(monkeypatch):
    monkeypatch.setattr(inversion, "DENSE_SITES", 8)
    spec = GridSpec(AB2, 8, 1.0)
    K = _near_identity_dyadic(spec, strength=0.4, seed=3)
    ec = choose_epsilon(K, spec)
    assert (ec.sigma_max_info, ec.sigma_min_info) == singular_edges(K, spec)
    assert ec.sigma_max_info["method"] == "lanczos"
    assert ec.sigma_max_info["iterations"] > 0


# --- probes -------------------------------------------------------------------


@given(st.integers(0, 2**31 - 1))
def test_probe_functions_unit_norm(seed):
    spec = GridSpec(AB2, 8, 1.0)
    for f in probe_functions(spec, count=2, seed=seed):
        assert abs(f.l2_norm() - 1.0) <= 1e-12


def test_probe_functions_deterministic_and_validated():
    spec = GridSpec(AB2, 8, 1.0)
    a = probe_functions(spec, count=3, seed=7)
    b = probe_functions(spec, count=3, seed=7)
    for fa, fb in zip(a, b):
        assert np.array_equal(fa.values, fb.values)
    with pytest.raises(ValueError, match="one probe"):
        probe_functions(spec, count=0)


def _mesh_probes(spec, count, seed):
    """probe_functions as the whole-grid formula: every grating and the
    envelope evaluated on spec.mesh."""
    lo, hi = inversion.PROBE_BAND
    rng = np.random.default_rng(seed)
    mesh = spec.mesh
    envelope = np.exp(-0.5 * np.sum((mesh / (0.5 * spec.extents)) ** 2, axis=-1))
    out = []
    for _ in range(count):
        vals = np.zeros(spec.shape, dtype=complex)
        for _ in range(inversion.PROBE_MODES):
            u = rng.uniform(lo, hi, spec.q_total) * rng.choice([-1.0, 1.0], spec.q_total)
            omega = u * np.pi / spec.spacings
            coeff = rng.normal() + 1j * rng.normal()
            vals = vals + coeff * np.exp(1j * np.sum(omega * mesh, axis=-1))
        f = GridFunction(spec, vals * envelope)
        out.append(f.scaled(1.0 / f.l2_norm()).values)
    return out


@pytest.mark.parametrize("seed", [0, 7, 101])
@pytest.mark.parametrize("group, N", [(AB2, 16), (AB2, 128), (AB1, 64), (HEIS, 8)],
                         ids=["abelian2-16", "abelian2-128", "abelian1-64", "heisenberg1-8"])
def test_probe_functions_match_the_mesh_formula(group, N, seed):
    # per-axis rows and outer products against the whole-grid formula: the
    # same rng draws in the same order, so the same functions up to rounding
    spec = GridSpec(group, N, 1.0)
    got = probe_functions(spec, count=3, seed=seed)
    for f, want in zip(got, _mesh_probes(spec, 3, seed), strict=True):
        assert np.abs(f.values - want).max() <= 1e-14 * np.abs(want).max()


# --- Neumann inversion --------------------------------------------------------


@pytest.mark.parametrize("c", [1.0, 2.0, -0.5 + 0.2j])
def test_invert_delta_is_exact(c):
    spec = GridSpec(AB1, 16, 1.0)
    res = neumann_invert(DeltaKernel(AB1, c), spec)
    assert res.converged and res.flag == ""
    want = spec.delta(1.0 / c)
    err = np.abs(res.kernel.values - want.values).max() / np.abs(want.values).max()
    assert err <= 1e-10
    assert res.max_residual <= 1e-10


def test_invert_delta_padded_still_exact():
    spec = GridSpec(AB1, 16, 1.0)
    res = neumann_invert(DeltaKernel(AB1, 2.0), spec, pad_factor=2)
    want = spec.delta(0.5)
    assert np.abs(res.kernel.values - want.values).max() <= 1e-12
    assert res.config["pad_factor"] == 2


def test_invert_hilbert_1d_recovers_negated_kernel():
    # the doubled-grid multiplier squares to -1 away from the parity zeros,
    # so the inverse kernel must line up with the negated input
    spec = GridSpec(AB1, 256, 1.0)
    K = DiscreteHilbertKernel(AB1)
    res = neumann_invert(K, spec, paper_eps=True, amplification_cap=1.5,
                         cond_cap=4.0)
    Hv = K.render(spec).values
    Lv = res.kernel.values
    cos = np.real(np.vdot(Hv, Lv)) / (np.linalg.norm(Hv) * np.linalg.norm(Lv))
    assert cos <= -0.95
    assert res.max_residual <= 0.06


def test_invert_tensor_hilbert_smoke():
    # small-box version of the acceptance setup; the box floor is higher here
    spec = GridSpec(AB2, 64, 1.0)
    K = _tensor_hilbert()
    res = neumann_invert(K, spec, paper_eps=True, amplification_cap=1.5,
                         cond_cap=4.0, pad_factor=2)
    assert res.flag and not res.converged
    assert res.max_residual <= 0.08
    Hv = K.render(spec).values
    Lv = res.kernel.values
    cos = np.real(np.vdot(Hv, Lv)) / (np.linalg.norm(Hv) * np.linalg.norm(Lv))
    assert cos >= 0.95
    assert all(r["right"] <= 0.08 and r["left"] <= 0.08 for r in res.residuals)


def test_invert_tensor_padded_reports_padded_factor_sigmas():
    spec = GridSpec(AB2, 16, 1.0)
    K = _tensor_hilbert()
    res = neumann_invert(K, spec, max_n=4, pad_factor=2)
    # the padded factor grid has 2N points at the same spacing
    big = GridSpec(AB1, 32, 2.0)
    H = DiscreteHilbertKernel(AB1).render(big).values
    s = np.linalg.svd(toeplitz_convolution_matrix(H, big.spacings[0]),
                      compute_uv=False)
    assert res.eps.sigma_max_info["factors"] == pytest.approx([s[0]] * 2, rel=1e-12)
    assert res.eps.sigma_min_info["factors"] == pytest.approx([s[-1]] * 2, rel=1e-12)
    small = choose_epsilon(K, spec)
    assert abs(small.sigma_min - res.eps.sigma_min) > 1e-6


def test_invert_near_identity_converges_two_sided():
    spec = GridSpec(AB2, 16, 1.0)
    K = _near_identity_dyadic(spec, strength=0.45, seed=5)
    res = neumann_invert(K, spec)
    assert res.converged and res.flag == ""
    assert res.max_residual <= 0.05
    assert len(res.residuals) == 3
    for r in res.residuals:
        assert r["right"] <= 0.05 and r["left"] <= 0.05
    assert res.step_rel_norms[-1] <= 1e-8
    assert res.growth.valid or res.growth.notes


def test_invert_heisenberg_near_identity():
    GH = ProductGroup([heisenberg1()])
    spec = GridSpec(GH, 8, 1.0)
    D = synth_dyadic(GH, 0, 0, "mexican", seed=3)
    K = near_identity_kernel(D, spec, strength=0.4, seed=0)
    res = neumann_invert(K, spec, probes=2)
    assert res.converged
    assert res.max_residual <= 0.05


def test_invert_self_adjoint_gives_self_adjoint():
    spec = GridSpec(AB2, 16, 1.0)
    D = synth_dyadic(AB2, -2, 0, "random", seed=5)
    P = compose_kernels(adjoint_kernel(D), D, spec)
    base = DeltaKernel(AB2).render(spec).values
    K = GridKernel(spec, base + 0.4 * P.values / op_norm(P, spec).value)
    res = neumann_invert(K, spec)
    L = res.kernel
    Lt = adjoint_kernel(L).render(spec).values
    assert np.abs(L.values - Lt).max() <= 1e-8 * np.abs(L.values).max()


def test_invert_inverse_of_inverse_recovers_action():
    spec = GridSpec(AB2, 16, 1.0)
    D = synth_dyadic(AB2, -2, 0, "random", seed=5)
    P = compose_kernels(adjoint_kernel(D), D, spec)
    base = DeltaKernel(AB2).render(spec).values
    K = GridKernel(spec, base + 0.4 * P.values / op_norm(P, spec).value)
    first = neumann_invert(K, spec)
    second = neumann_invert(first.kernel, spec)
    worst = 0.0
    for f in probe_functions(spec, count=3, seed=101):
        Kf = apply_op(K, f)
        err = apply_op(second.kernel, f).plus(Kf.scaled(-1.0)).l2_norm()
        worst = max(worst, err / Kf.l2_norm())
    assert worst <= 2.0 * first.max_residual


def test_invert_tracks_remainder_seminorms():
    spec = GridSpec(AB2, 16, 1.0)
    K = _near_identity_dyadic(spec, strength=0.45, seed=5)
    res = neumann_invert(K, spec, kvec_track=(1, 1), cfg=LIGHT)
    ns = [t["n"] for t in res.tracked]
    assert ns == sorted(ns) and ns[0] == 1
    assert all(n in (1, 2, 4, 8, 16, 32, 64) for n in ns)
    for t in res.tracked:
        assert np.isfinite(t["seminorm"]) and t["root"] >= 0.0
    roots = [t["root"] for t in res.tracked]
    assert roots[-1] <= roots[0]


def test_invert_stall_flag_on_tiny_budget():
    spec = GridSpec(AB2, 16, 1.0)
    K = _near_identity_dyadic(spec, strength=0.45, seed=5)
    res = neumann_invert(K, spec, max_n=2)
    assert not res.converged
    assert "stagnates" in res.flag
    assert res.n_steps == 2


def test_invert_validation():
    spec = GridSpec(AB2, 8, 1.0)
    K = DeltaKernel(AB2, 1.0)
    with pytest.raises(ValueError, match="max_n"):
        neumann_invert(K, spec, max_n=0)
    with pytest.raises(ValueError, match="tol"):
        neumann_invert(K, spec, tol=-1.0)
    with pytest.raises(ValueError, match="pad_factor"):
        neumann_invert(K, spec, pad_factor=0)
    with pytest.raises(ValueError, match="sigma estimates"):
        neumann_invert(K, spec, eps=0.5, amplification_cap=1.0)
    for kvec in ((1, 1, 1), (-1, 0), (1,)):
        with pytest.raises(ValueError, match="growth kvec"):
            neumann_invert(K, spec, growth_kvec=kvec)
    with pytest.raises(ValueError, match="positive"):
        neumann_invert(K, spec, eps=-1.0)
    with pytest.raises(ValueError, match="cond_cap"):
        neumann_invert(K, spec, amplification_cap=1.0, cond_cap=0.5)


def test_inversion_result_serialization_deterministic():
    spec = GridSpec(AB2, 8, 1.0)
    K = _near_identity_dyadic(spec, strength=0.4, seed=3)
    a = json.dumps(neumann_invert(K, spec).to_dict(), sort_keys=True)
    b = json.dumps(neumann_invert(K, spec).to_dict(), sort_keys=True)
    assert a == b
    d = json.loads(a)
    assert d["converged"] is True
    assert d["config"]["N"] == 8
    assert len(d["residuals"]) == 3


def _convolve_route(K, spec, pad_factor, res):
    """res's inverse kernel with the final step L = eps accum * K~ as a
    convolve against K~'s rendering on the work grid, on res's series."""
    Kop = prepare(K, spec)
    work = inversion._padded_spec(spec, pad_factor)
    Kwork = prepare(inversion._embed_kernel(Kop.kernel, spec, work), work)
    ev = res.eps.epsilon
    term = accum = work.delta()
    for _ in range(res.n_steps):
        term = term.plus(GridFunction(work, Kwork.normal(term.values)).scaled(-ev))
        accum = accum.plus(term)
    ktilde = Kwork.adjoint_op.kernel.render(work)
    L = inversion._crop_kernel(GridKernel(work, convolve(accum, ktilde.data).values * ev), spec)
    kvals = Kwork.kernel.render(work).values
    if np.abs(kvals - ktilde.values).max() <= 1e-10 * np.abs(kvals).max():
        return 0.5 * (L.values + adjoint_kernel(L).render(spec).values)
    return L.values


def _final_step_case(name):
    if name == "tensor-hilbert":
        return _tensor_hilbert(), GridSpec(AB2, 32, 1.0), 2
    if name == "near-identity-abelian2":
        spec = GridSpec(AB2, 16, 1.0)
        return _near_identity_dyadic(spec, strength=0.45, seed=5), spec, 1
    spec = GridSpec(HEIS, 8, 1.0)
    D = synth_dyadic(HEIS, 0, 0, "mexican", seed=3)
    return near_identity_kernel(D, spec, strength=0.4, seed=0), spec, 1


@pytest.mark.parametrize("name", ["tensor-hilbert", "near-identity-abelian2", "heisenberg1"])
def test_invert_final_step_matches_the_convolve_route(name):
    # on an abelian box accum * K~ = K~ * accum, which the prepared Op(K~)
    # applies within rounding of the convolve against K~'s rendering (5.5e-16
    # of the largest value measured); a non-abelian group keeps that
    # convolve, so its bytes do not move
    K, spec, pad = _final_step_case(name)
    res = neumann_invert(K, spec, max_n=8, paper_eps=True, pad_factor=pad, probes=1)
    want = _convolve_route(K, spec, pad, res)
    if name == "heisenberg1":
        assert np.array_equal(res.kernel.values, want)
    else:
        assert np.abs(res.kernel.values - want).max() <= 4e-15 * np.abs(want).max()


def test_invert_frees_the_padded_op_before_the_probes(monkeypatch):
    # the work-grid op, with its box matrices, is gone once the
    # series and the final kernel are done
    spec = GridSpec(AB2, 16, 1.0)
    padded = []
    real_prepare, real_probes = inversion.prepare, inversion.probe_functions

    def recording_prepare(K, grid):
        op = real_prepare(K, grid)
        if grid.N == 2 * spec.N:
            padded.append(weakref.ref(op))
        return op

    def checking_probes(*args, **kwargs):
        assert padded and all(ref() is None for ref in padded)
        return real_probes(*args, **kwargs)

    monkeypatch.setattr(inversion, "prepare", recording_prepare)
    monkeypatch.setattr(inversion, "probe_functions", checking_probes)
    res = neumann_invert(_tensor_hilbert(), spec, max_n=4, pad_factor=2)
    assert len(res.residuals) == 3


def test_invert_tensor_work_grid_runs_no_fft_and_builds_each_matrix_once(monkeypatch):
    # a tensor-Hilbert inverse on a padded abelian2 box: singular_edges reads
    # each factor's box matrix, the series applies it and its mirror to
    # factor vectors and the final kernel Op(K~)'s mirrors to the basis
    # rows, so each matrix is built once, no whole-grid normal or apply
    # runs and no FFT runs on the 64-point work grid (the probes'
    # transforms on the 32-point grid stay)
    spec = GridSpec(AB2, 32, 1.0)
    builds = Counter()
    normals = []
    real_normal = convolution.ConvOp.normal

    def recorded_normal(op, v):
        normals.append(op.spec.N)
        return real_normal(op, v)

    monkeypatch.setattr(convolution.ConvOp, "normal", recorded_normal)
    func = _Spectrum.matrix.func

    def counted(block):
        if block.spec.N == 64 and block.mirror is None:
            builds["matrix", id(block)] += 1
        return func(block)

    prop = cached_property(counted)
    prop.__set_name__(_Spectrum, "matrix")
    monkeypatch.setattr(_Spectrum, "matrix", prop)
    applies = []
    real_apply = convolution.ConvOp.apply

    def recorded_apply(op, v):
        applies.append(op.spec.N)
        return real_apply(op, v)

    monkeypatch.setattr(convolution.ConvOp, "apply", recorded_apply)
    shapes = []
    for name in ("fftn", "ifftn"):
        def recorded(a, *args, _fn=getattr(np.fft, name), **kwargs):
            shapes.append(np.shape(a) + tuple(kwargs.get("s") or ()))
            return _fn(a, *args, **kwargs)

        monkeypatch.setattr(np.fft, name, recorded)
    neumann_invert(_tensor_hilbert(), spec, paper_eps=True, amplification_cap=1.5,
                   cond_cap=4.0, pad_factor=2)
    assert shapes and max(max(s) for s in shapes) < 64
    assert sorted(Counter(name for name, _ in builds).items()) == [("matrix", 2)]
    assert set(builds.values()) == {1}
    assert normals == []
    assert applies and 64 not in applies  # the probes' applies run on the 32-point grid


class _DenseRoute:
    """The series as the dense recurrence on the work grid, one whole-grid
    ConvOp.normal per step, and the final step on the whole work grid:
    the oracle of inversion._FactorSeries."""

    def __init__(self, op, work, ev, n_cap):
        delta = work.delta()
        self.op, self.work, self.ev, self.dnorm = op, work, ev, delta.l2_norm()
        self.term, self.accum = delta.values, delta.values.copy()

    def step(self):
        self.term = self.term - self.ev * self.op.normal(self.term)
        self.accum = self.accum + self.term
        return GridFunction(self.work, self.term).l2_norm() / self.dnorm

    def adjoint_image(self, adj):
        return adj.apply(self.accum)  # Op(K~) on the whole work grid


def _factor_oracle_case(name):
    if name == "tensor-hilbert-pad2":
        return _tensor_hilbert(), GridSpec(AB2, 16, 1.0), {"pad_factor": 2}
    if name == "three-factor":
        K = TensorKernel([_random_part(6, 1), DiscreteHilbertKernel(AB1), _random_part(6, 2)])
        return K, GridSpec(K.group, 6, 1.0), {}
    if name == "saturated":
        K = TensorKernel([_random_part(4, 3), _random_part(4, 5)])
        return K, GridSpec(AB2, 4, 1.0), {}
    return (*_tensor_cases()[name], {})


FACTOR_ORACLE_RUNS = {"plain": {}, "capped": {"paper_eps": True, "amplification_cap": 1.5},
                      "tracked": {"kvec_track": (1, 1), "max_n": 8}}


@pytest.mark.parametrize("name, run", [
    (name, run) for name in ("tensor-hilbert-pad2", "delta-grid", "heisenberg-abelian",
                             "three-factor", "saturated")
    for run in FACTOR_ORACLE_RUNS
    # the smaller boxes admit no seminorm sample to track
    if run != "tracked" or name in ("tensor-hilbert-pad2", "delta-grid")])
def test_factor_series_matches_the_dense_route(name, run, monkeypatch):
    # the series in per-factor Krylov coordinates, with the final step from
    # factor images, against the whole-grid recurrence and final step: the
    # same steps and flags, rels within 1e-13, and the kernel and tracked
    # rows within 1e-14 relative (largest measured: rels 5.2e-15, saturated;
    # kernel 2.9e-15 of its largest value, heisenberg-abelian; tracked
    # values 1.4e-15, tensor-hilbert-pad2)
    K, spec, kw = _factor_oracle_case(name)
    kw = {"max_n": 64, "probes": 1, "cfg": LIGHT, **kw, **FACTOR_ORACLE_RUNS[run]}
    built = []
    real = inversion._FactorSeries

    def recording(*args):
        built.append(real(*args))
        return built[-1]

    monkeypatch.setattr(inversion, "_FactorSeries", recording)
    got = neumann_invert(K, spec, **kw)
    monkeypatch.setattr(inversion, "_FactorSeries", _DenseRoute)
    want = neumann_invert(K, spec, **kw)
    assert (got.n_steps, got.converged, got.flag) == (want.n_steps, want.converged, want.flag)
    assert np.abs(np.subtract(got.step_rel_norms, want.step_rel_norms)).max() <= 1e-13
    scale = np.abs(want.kernel.values).max()
    assert np.abs(got.kernel.values - want.kernel.values).max() <= 1e-14 * scale
    assert [t["n"] for t in got.tracked] == [t["n"] for t in want.tracked]
    for a, b in zip(got.tracked, want.tracked):
        for key in ("seminorm", "op_norm", "root"):
            assert abs(a[key] - b[key]) <= 1e-14 * abs(b[key])
    bases = built[0].bases
    assert len(bases) == len(K.parts)
    if name == "delta-grid":  # the amplitude's normal |a|^2 spans one direction
        assert bases[0].ended and len(bases[0].alphas) == 1
        assert bases[0].T.tolist() == [[5.0]]  # (-2 + i)(-2 - i)
    if name == "saturated":  # the 4-point factor's space fills before max_n
        assert got.n_steps > 4
        assert bases[0].ended and len(bases[0].alphas) == 4
    else:
        assert all(len(b.alphas) == got.n_steps for b in bases if not b.ended)


def test_invert_rejects_bad_arguments_before_any_work(monkeypatch):
    def no_prepare(*args):
        raise AssertionError("prepare ran before the arguments were checked")

    monkeypatch.setattr(inversion, "prepare", no_prepare)
    spec = GridSpec(AB2, 8, 1.0)
    K = _tensor_hilbert()
    with pytest.raises(ValueError, match="probe"):
        neumann_invert(K, spec, probes=0)
    for cap, cond in ((0.0, 4.0), (-1.0, 4.0), (1.5, 1.0), (1.5, 0.5)):
        with pytest.raises(ValueError, match="cond_cap"):
            neumann_invert(K, spec, amplification_cap=cap, cond_cap=cond)
    with pytest.raises(ValueError, match="sigma estimates"):
        neumann_invert(K, spec, eps=0.5, amplification_cap=1.0)


# --- remainder decay ----------------------------------------------------------


def test_decay_identity_delta_vanishes():
    spec = GridSpec(AB1, 16, 1.0)
    rep = seminorm_decay(DeltaKernel(AB1, 1.0), spec, (1,), [1, 2, 4])
    for _, value, _ in rep.sequence():
        assert value <= 1e-12


def test_decay_delta_forced_epsilon_scalar_case():
    spec = GridSpec(AB1, 16, 1.0)
    rep = seminorm_decay(DeltaKernel(AB1, 2.0), spec, (1,), [1, 2, 4, 8],
                         eps=1.0 / 8.0)
    assert abs(rep.s_norm_measured - 0.5) <= 1e-10
    for n, value, root in rep.sequence():
        assert abs(value - 0.5**n) <= 1e-10
        assert abs(root - 0.5) <= 1e-10


def test_decay_random_dyadic_roots_trend():
    spec = GridSpec(AB2, 16, 1.0)
    K = _near_identity_dyadic(spec, strength=0.2, seed=1)
    ec = choose_epsilon(K, spec)
    assert ec.sigma_min / ec.sigma_max >= 0.3
    rep = seminorm_decay(K, spec, (1, 1), [1, 2, 4, 8], eps=ec)
    roots = [r["root"] for r in rep.rows]
    for a, b in zip(roots, roots[1:]):
        assert b <= 1.05 * a
    assert roots[-1] <= rep.s_norm_measured + 0.1
    for r in rep.rows:
        assert 0.0 <= r["truncation"] <= 1.0


def test_decay_s_norm_is_the_top_edge_above_dense_sites():
    # 13^3 = 2197 sites, above DENSE_SITES: |S| is op_norm's Lanczos top of
    # S, which the n=1 row also reads; the bottom edge plays no part
    spec = GridSpec(HEIS, 13, 1.0)
    assert spec.size > inversion.DENSE_SITES
    K = _near_identity_dyadic(spec)
    rep = seminorm_decay(K, spec, (1,), [1], cfg=LIGHT)
    est = rep.s_norm_estimate
    assert set(est) == INFO_KEYS
    assert est["method"] == "lanczos" and est["converged"]
    assert est["iterations"] < inversion.LANCZOS_STEPS
    assert rep.s_norm_measured == est["value"] == est["factors"][0]
    row = rep.rows[0]["op_norm"]
    assert abs(rep.s_norm_measured - row) <= 1e-5 * row
    # the n=1 row's Lanczos run needs 57 steps; it stops at the report's cap
    # of 48 and says so
    assert rep.rows[0]["op_norm_converged"] is False
    assert rep.rows[0]["op_norm_iterations"] == LIGHT.max_iter == 48


@pytest.mark.parametrize("case", ["criterion-7-abelian2", "heisenberg1"])
def test_decay_s_norm_is_the_top_edge_at_or_below_dense_sites(case):
    # |S| is op_norm's Lanczos top on every grid: from below, and within
    # 1e-10 of the dense SVD that the spectral edges take at this size
    if case == "heisenberg1":
        spec, kvec = GridSpec(HEIS, 8, 1.0), (1,)
        K = _near_identity_dyadic(spec)
    else:
        spec, kvec = GridSpec(AB2, 16, 1.0), (1, 1)
        K = near_identity_kernel(synth_dyadic(AB2, -2, 0, "random", seed=2), spec,
                                 strength=0.2)
    assert spec.size <= inversion.DENSE_SITES
    rep = seminorm_decay(K, spec, kvec, [1], cfg=LIGHT)
    est = rep.s_norm_estimate
    assert est["method"] == "lanczos" and est["converged"]
    Kop = prepare(K, spec)
    normal = compose_kernels(Kop.adjoint_op, Kop.kernel, spec)
    S = GridKernel(spec, DeltaKernel(spec.group).render(spec).values
                   - rep.epsilon * normal.values)
    dense = singular_edges(S, spec)[0]
    assert dense["method"] == "dense"
    assert rep.s_norm_measured <= dense["value"]
    assert dense["value"] - rep.s_norm_measured <= 1e-10 * dense["value"]


def test_decay_report_serialization():
    spec = GridSpec(AB1, 16, 1.0)
    rep = seminorm_decay(DeltaKernel(AB1, 2.0), spec, (1,), [1, 2], eps=1.0 / 8.0)
    text = json.dumps(rep.to_dict(), sort_keys=True)
    rerun = seminorm_decay(DeltaKernel(AB1, 2.0), spec, (1,), [1, 2], eps=1.0 / 8.0)
    assert text == json.dumps(rerun.to_dict(), sort_keys=True)
    d = json.loads(text)
    assert d["epsilon"] == 0.125
    assert [r["n"] for r in d["rows"]] == [1, 2]


def test_decay_validation():
    spec = GridSpec(AB1, 8, 1.0)
    K = DeltaKernel(AB1, 1.0)
    with pytest.raises(ValueError, match="kind"):
        seminorm_decay(K, spec, (1,), [1], kind="qq")
    with pytest.raises(ValueError, match="n_list"):
        seminorm_decay(K, spec, (1,), [])
    with pytest.raises(ValueError, match="n_list"):
        seminorm_decay(K, spec, (1,), [0, 1])
    with pytest.raises(ValueError, match="positive"):
        seminorm_decay(K, spec, (1,), [1], eps=0.0)


# --- near-identity construction ------------------------------------------------


def test_near_identity_bounds_spectrum():
    spec = GridSpec(AB2, 8, 1.0)
    D = synth_dyadic(AB2, -2, 0, "random", seed=3)
    K = near_identity_kernel(D, spec, strength=0.4, seed=0)
    sv = _dense_singular_values(K, spec)
    assert sv[0] <= 1.4 + 1e-6
    assert sv[-1] >= 0.6 - 1e-6


@pytest.mark.parametrize("group,N", [(AB2, 16), (HEIS, 10)], ids=["abelian2", "heisenberg1"])
def test_near_identity_scales_by_the_converged_op_norm(group, N):
    # op_norm converges well inside 60 steps here, so the LANCZOS_STEPS cap
    # gives the same bits
    spec = GridSpec(group, N, 1.0)
    D = synth_dyadic(group, -2, 0, "random", seed=3)
    K = near_identity_kernel(D, spec, strength=0.3, seed=0)
    est = op_norm(D, spec, max_iter=60)
    assert est.converged
    base = DeltaKernel(group).render(spec).values
    want = base + (0.3 / est.value) * D.render(spec).values
    assert K.values.tobytes() == GridKernel(spec, want).values.tobytes()


def test_near_identity_scales_by_young_bound_when_op_norm_unconverged(monkeypatch):
    # 8 Lanczos steps leave this kernel's norm unconverged and low, which
    # would promise too much; Young's bound keeps the spectrum in the band
    spec = GridSpec(HEIS, 6, 1.0)
    D = synth_dyadic(HEIS, -2, 0, "random", seed=3)
    assert not op_norm(D, spec, max_iter=8, seed=0).converged
    monkeypatch.setattr(inversion, "LANCZOS_STEPS", 8)
    K = near_identity_kernel(D, spec, strength=0.4, seed=0)
    Dv = D.render(spec).values
    young = np.abs(Dv).sum() * spec.volume
    base = DeltaKernel(HEIS).render(spec).values
    np.testing.assert_array_equal(K.values, base + (0.4 / young) * Dv)
    sv = _dense_singular_values(K, spec)
    assert 0.6 <= sv[-1] and sv[0] <= 1.4


def test_near_identity_validation():
    spec = GridSpec(AB2, 8, 1.0)
    D = synth_dyadic(AB2, -2, 0, "random", seed=3)
    with pytest.raises(ValueError, match="strength"):
        near_identity_kernel(D, spec, strength=1.5)
    Z = GridKernel(spec, np.zeros(spec.shape))
    with pytest.raises(ValueError, match="zero operator"):
        near_identity_kernel(Z, spec)
