"""Seminorm estimators: localized blocks, subset tables, flag extras."""

import json

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from nilconv import convolution, seminorms
from nilconv.convolution import compose_kernels, left_derivative, op_norm, prepare
from nilconv.grid import GridFunction, GridSpec, zero_lowest_face
from nilconv.groups import abelian, heisenberg1
from nilconv.kernels import (
    ClosedFormKernel,
    DeltaKernel,
    DiscreteHilbertKernel,
    GridKernel,
    TensorKernel,
    smooth_bump,
    synth_dyadic,
)
from nilconv.product import MultiIndex, ProductGroup, all_subsets, multi_indices_up_to
from nilconv.seminorms import (
    DENSE_BLOCK_COLUMNS,
    STENCIL_GAP,
    SeminormConfig,
    _block_seed,
    block_operator,
    fk_seminorm,
    localized_block,
    pk_seminorm,
)
from oracles import dense_matrix, pairing_operator_norm

AB1 = ProductGroup([abelian(1)])
AB2 = ProductGroup([abelian(1), abelian(1)])
H1 = ProductGroup([heisenberg1()])
HX = ProductGroup([heisenberg1(), abelian(1)])

ALPHA0_AB2 = MultiIndex(((0,), (0,)))


def _random_kernel(spec, seed):
    rng = np.random.default_rng(seed)
    vals = rng.standard_normal(spec.shape) + 1j * rng.standard_normal(spec.shape)
    return GridKernel(spec, zero_lowest_face(vals))


def _random_function(spec, seed):
    rng = np.random.default_rng(seed)
    vals = rng.standard_normal(spec.shape) + 1j * rng.standard_normal(spec.shape)
    return GridFunction(spec, vals)


def test_config_validation():
    with pytest.raises(ValueError, match="at least 3 integers"):
        SeminormConfig(j_window=(-2, -1))
    with pytest.raises(ValueError, match="radius_factors"):
        SeminormConfig(radius_factors=(0.5,))
    with pytest.raises(ValueError, match="directions"):
        SeminormConfig(directions="diag")
    with pytest.raises(ValueError, match="profile"):
        SeminormConfig(profile="box")
    with pytest.raises(ValueError, match="max_iter"):
        SeminormConfig(max_iter=4)


def test_kvec_validation():
    spec = GridSpec(AB2, 8, 2.0)
    K = DeltaKernel(AB2, 1.0)
    with pytest.raises(ValueError, match="one order per factor"):
        pk_seminorm(K, spec, (1,))
    with pytest.raises(ValueError, match="nonnegative"):
        pk_seminorm(K, spec, (1, -1))
    # three difference steps from supp phi reach supp gamma across the gap
    for kvec in ((STENCIL_GAP, 0), (0, STENCIL_GAP)):
        with pytest.raises(ValueError, match="below the stencil gap 3"):
            pk_seminorm(K, spec, kvec)
        with pytest.raises(ValueError, match="below the stencil gap 3"):
            fk_seminorm(K, spec, kvec)


def test_block_operator_validation():
    spec = GridSpec(AB2, 8, 2.0)
    K = _random_kernel(spec, 0)
    with pytest.raises(ValueError, match="cover exactly the subset"):
        block_operator(K, spec, ALPHA0_AB2, (0,), {}, {0: ((1.0,), 0.25)})
    with pytest.raises(ValueError, match="exceeds the grid box"):
        block_operator(K, spec, ALPHA0_AB2, (0,),
                       {0: ((0.0,), 5.0)}, {0: ((-1.5,), 0.25)})
    with pytest.raises(ValueError, match="separation violated"):
        block_operator(K, spec, ALPHA0_AB2, (0,),
                       {0: ((0.0,), 0.25)}, {0: ((-0.5,), 0.25)})


def test_no_admissible_sample_raises():
    spec = GridSpec(AB2, 8, 2.0)
    # radii 4..16 cannot fit a box of half-width 2
    cfg = SeminormConfig(j_window=(2, 4))
    with pytest.raises(ValueError, match="no admissible"):
        pk_seminorm(DeltaKernel(AB2, 1.0), spec, (0, 0), cfg)


def test_bump_multipliers_unit_mass_per_factor():
    spec = GridSpec(AB2, 16, 2.0)
    op = block_operator(_random_kernel(spec, 1), spec, ALPHA0_AB2, (0,),
                        {0: ((0.0,), 0.5)}, {0: ((-1.7,), 0.25)})
    h0 = spec.spacings[0]
    phi_line = op.phi[:, 0]
    gam_line = op.gamma[:, 0]
    assert np.all(op.phi >= 0.0) and np.all(op.gamma >= 0.0)
    assert np.isclose(np.sum(phi_line ** 2) * h0, 1.0, rtol=1e-12)
    assert np.isclose(np.sum(gam_line ** 2) * h0, 1.0, rtol=1e-12)
    # unlocalized factor stays unweighted
    assert np.allclose(op.phi[0, :], op.phi[0, 0])


def test_block_adjoint_pairing_heisenberg():
    spec = GridSpec(HX, 8, 2.0)
    K = _random_kernel(spec, 7)
    alpha = MultiIndex(((1, 0, 1), (1,)))
    op = block_operator(
        K, spec, alpha, (0, 1),
        {0: ((0.0, 0.0, 0.0), 0.3), 1: ((0.0,), 0.3)},
        {0: ((-1.5, 0.0, 0.0), 0.3), 1: ((-1.5,), 0.3)},
        sep_constants=(1.0, 1.0),
    )
    for seed in range(5):
        f = _random_function(spec, 100 + seed)
        g = _random_function(spec, 200 + seed)
        lhs = op.apply(f).inner(g)
        rhs = f.inner(op.apply_adjoint(g))
        assert abs(lhs - rhs) <= 1e-10 * max(abs(lhs), 1e-30)


def test_delta_blocks_vanish_on_disjoint_supports():
    spec = GridSpec(AB2, 8, 2.0)
    K = DeltaKernel(AB2, 3.0j)
    phi = {0: ((0.0,), 0.25)}
    gam = {0: ((-1.5,), 0.25)}
    for entries in (((0,), (0,)), ((1,), (0,)), ((2,), (0,))):
        alpha = MultiIndex(entries)
        assert localized_block(K, spec, alpha, (0,), phi, gam) == 0.0


def test_delta_totals_equal_amplitude():
    spec = GridSpec(AB2, 8, 2.0)
    c = -2.0 + 1.5j
    for kvec in ((0, 0), (1, 1), (2, 2)):
        rep = pk_seminorm(DeltaKernel(AB2, c), spec, kvec)
        assert abs(rep.total - abs(c)) <= 1e-9
        for e in rep.entries:
            if e.subset:
                assert e.value == 0.0
    spec2 = GridSpec(HX, 8, 2.0)
    rep2 = fk_seminorm(DeltaKernel(HX, 0.5j), spec2, (2, 2))
    assert abs(rep2.total - 0.5) <= 1e-9
    assert all(e.value == 0.0 for e in rep2.flag_entries)


def test_block_scaling_homogeneous():
    spec = GridSpec(AB2, 8, 2.0)
    K = _random_kernel(spec, 11)
    c = 0.37 - 2.2j
    Kc = GridKernel(spec, c * K.values)
    alpha = MultiIndex(((1,), (0,)))
    phi = {0: ((0.0,), 0.25)}
    gam = {0: ((-1.5,), 0.25)}
    a = localized_block(K, spec, alpha, (0,), phi, gam, seed=3)
    b = localized_block(Kc, spec, alpha, (0,), phi, gam, seed=3)
    assert abs(b - abs(c) * a) <= 1e-9 * max(abs(c) * a, 1e-30)


def test_report_homogeneous_in_amplitude():
    spec = GridSpec(AB2, 8, 2.0)
    K = _random_kernel(spec, 12)
    c = 1.7j
    Kc = GridKernel(spec, c * K.values)
    r1 = pk_seminorm(K, spec, (1, 1))
    r2 = pk_seminorm(Kc, spec, (1, 1))
    assert abs(r2.total - abs(c) * r1.total) <= 1e-8 * r1.total
    f1 = fk_seminorm(K, spec, (1, 1))
    f2 = fk_seminorm(Kc, spec, (1, 1))
    assert abs(f2.total - abs(c) * f1.total) <= 1e-8 * f1.total


def test_empty_subset_entry_is_op_norm():
    spec = GridSpec(AB2, 8, 2.0)
    K = _random_kernel(spec, 13)
    cfg = SeminormConfig()
    rep = pk_seminorm(K, spec, (1, 1), cfg)
    direct = op_norm(K, spec, max_iter=cfg.max_iter, tol=cfg.tol, seed=cfg.seed)
    assert rep.value_for(()) == float(direct.value)
    assert all(e.value >= 0.0 for e in rep.entries)
    assert np.isclose(rep.total, sum(e.value for e in rep.entries), rtol=1e-12)


def test_report_monotone_in_kvec():
    spec = GridSpec(AB2, 8, 2.0)
    K = _random_kernel(spec, 14)
    totals = [pk_seminorm(K, spec, kvec).total
              for kvec in ((0, 0), (1, 0), (1, 1), (2, 2))]
    for lo, hi in zip(totals, totals[1:]):
        assert lo <= hi + 1e-9


def test_widening_sampling_lattice_monotone():
    spec = GridSpec(AB2, 8, 2.0)
    K = _random_kernel(spec, 15)
    base = pk_seminorm(K, spec, (1, 1), SeminormConfig())
    wide = pk_seminorm(K, spec, (1, 1), SeminormConfig(
        j_window=(-5, -2), radius_factors=(1.0, 1.6, 2.2)))
    for e in base.entries:
        assert wide.value_for(e.subset) >= e.value - 1e-9
    assert wide.total >= base.total - 1e-9


def test_flag_total_dominates_product_total():
    # an fk report is the pk report plus its flag terms, in one pass
    spec = GridSpec(AB2, 8, 2.0)
    K = _random_kernel(spec, 16)
    pk = pk_seminorm(K, spec, (1, 1))
    fk = fk_seminorm(K, spec, (1, 1))
    assert fk.entries == pk.entries
    assert fk.op_norm_estimate == pk.op_norm_estimate
    assert fk.blocks[:len(pk.blocks)] == pk.blocks
    assert fk.pk_total == pk.total
    assert fk.total >= pk.total - 1e-9
    assert all(e.value >= 0.0 for e in fk.flag_entries)


def test_flag_blocks_weigh_the_whole_tail():
    # flag mu=0 stacks the exponents of factors 0 and 1; S=(0,) uses factor 0's
    spec = GridSpec(AB2, 8, 2.0)
    rep = fk_seminorm(_random_kernel(spec, 17), spec, (1, 1))
    Q = AB2.Q
    rows = {"S=(0,)": [], "flag mu=0": []}
    for row in rep.blocks:
        if row["label"] in rows:
            rows[row["label"]].append(row)
    for label, tail in (("S=(0,)", (0,)), ("flag mu=0", (0, 1))):
        assert rows[label]
        for row in rows[label]:
            degs = [sum(e) for e in row["alpha"]]
            assert row["weight"] == row["dists"][0] ** sum(Q[v] + degs[v] for v in tail)
    assert any(row["alpha"][1] != [0] for row in rows["flag mu=0"])


def test_fk_report_builds_each_subset_lattice_once(monkeypatch):
    calls = []
    lattice = seminorms._lattice

    def counted(spec, cfg, subset, seps):
        calls.append(subset)
        return lattice(spec, cfg, subset, seps)

    monkeypatch.setattr(seminorms, "_lattice", counted)
    spec = GridSpec(AB2, 8, 2.0)
    fk_seminorm(DeltaKernel(AB2, 1.0), spec, (1, 1))
    assert sorted(calls) == [(0,), (0, 1), (1,)]


@pytest.mark.parametrize("method,columns", [("iterative", 0),
                                            ("dense", DENSE_BLOCK_COLUMNS)],
                         ids=["iterative", "dense"])
def test_every_reported_block_matches_dense_svd(monkeypatch, method, columns):
    monkeypatch.setattr(seminorms, "DENSE_BLOCK_COLUMNS", columns)
    spec = GridSpec(AB2, 8, 2.0)
    K = _random_kernel(spec, 17)
    cfg = SeminormConfig(max_iter=4000, tol=1e-14)
    rep = pk_seminorm(K, spec, (1, 1), cfg)
    n = spec.N ** spec.q_total
    assert rep.blocks
    assert all(row["method"] == method for row in rep.blocks)
    for row in rep.blocks:
        subset = tuple(row["subset"])
        alpha = MultiIndex(tuple(tuple(e) for e in row["alpha"]))
        phi = {mu: ((0.0,) * AB2.factors[mu].dim, 2.0 ** row["j"])
               for mu in subset}
        gam = {mu: (tuple(row["z"][str(mu)]), 2.0 ** row["l"])
               for mu in subset}
        op = block_operator(K, spec, alpha, subset, phi, gam)

        def apply_flat(x, op=op):
            f = GridFunction(spec, x.reshape(spec.shape))
            return op.apply(f).values.reshape(-1)

        sigma = float(np.linalg.svd(dense_matrix(apply_flat, n),
                                    compute_uv=False)[0])
        assert row["residual"] <= 1e-6
        assert abs(row["block"] - sigma) <= 1e-6 * max(sigma, 1.0)


def test_hilbert_blocks_calibrated_and_scale_free():
    # kernel 1/t: weighted block |z| * block should sit near 1 at every
    # admissible scale, since far-field blocks approximate |K(z)|
    spec = GridSpec(AB1, 256, 2.0)
    K = ClosedFormKernel(AB1, "hilbert", amplitude=np.pi)
    cfg = SeminormConfig(j_window=(-5, -3), radius_factors=(1.0,))
    rep = pk_seminorm(K, spec, (0,), cfg)
    weighted = [row["value"] for row in rep.blocks]
    assert weighted
    assert all(abs(v - 1.0) <= 0.1 for v in weighted)

    # independent continuum oracle at one sample, offset quadrature
    row = next(r for r in rep.blocks
               if r["j"] == -4 and r["l"] == -4 and r["z"]["0"][0] > 0)
    r_phi, r_gam = 2.0 ** row["j"], 2.0 ** row["l"]
    z = row["z"]["0"][0]
    n, T = 512, 2.0
    h = 2.0 * T / n

    def kernel_fn(d):
        w = d[..., 0]
        out = np.zeros_like(w)
        np.divide(1.0, w, out=out, where=w != 0.0)
        return out

    def normalized(center, radius):
        axis = -T + (np.arange(n) + 0.5) * h
        mass = np.sqrt(np.sum(smooth_bump(np.abs(axis - center) / radius) ** 2) * h)

        def fn(pts, center=center, radius=radius, mass=mass):
            return smooth_bump(np.abs(pts[..., 0] - center) / radius) / mass

        return fn

    oracle = pairing_operator_norm(kernel_fn, normalized(0.0, r_phi),
                                   normalized(z, r_gam), T, n, 1)
    assert abs(row["block"] - oracle) <= 0.1 * oracle


def test_flag_inverse_first_factor_block_matches_quadrature():
    spec = GridSpec(AB2, 64, 2.0)
    K = ClosedFormKernel(AB2, "flag-inverse")
    r, z = 0.125, -0.825
    op = block_operator(K, spec, ALPHA0_AB2, (0,),
                        {0: ((0.0,), r)}, {0: ((z,), r)})
    block = float(op.estimate(max_iter=300, tol=1e-12, seed=5).value)

    n, T = 36, 2.0
    h = 2.0 * T / n

    def kernel_fn(d):
        t1 = d[..., 0]
        t2 = d[..., 1]
        out = np.zeros_like(t1)
        denom = t1 * (np.abs(t1) + np.abs(t2))
        np.divide(1.0, denom, out=out, where=t1 != 0.0)
        return out

    axis = -T + (np.arange(n) + 0.5) * h

    def normalized(center):
        mass = np.sqrt(np.sum(smooth_bump(np.abs(axis - center) / r) ** 2) * h)

        def fn(pts, center=center, mass=mass):
            return smooth_bump(np.abs(pts[..., 0] - center) / r) / mass

        return fn

    oracle = pairing_operator_norm(kernel_fn, normalized(0.0), normalized(z),
                                   T, n, 2)
    assert oracle > 0.0
    assert abs(block - oracle) <= 0.12 * oracle


def test_flag_inverse_entry_stable_under_window_widening():
    spec = GridSpec(AB2, 48, 2.0)
    K = ClosedFormKernel(AB2, "flag-inverse")
    base_cfg = SeminormConfig(radius_factors=(1.0,))
    wide_cfg = SeminormConfig(radius_factors=(1.0,), j_window=(-5, -2))
    base = fk_seminorm(K, spec, (0, 0), base_cfg).flag_value(0)
    wide = fk_seminorm(K, spec, (0, 0), wide_cfg).flag_value(0)
    assert base > 0.0
    assert wide >= base - 1e-9
    assert wide <= 1.15 * base


def test_report_serialization_and_determinism():
    spec = GridSpec(AB2, 8, 2.0)
    K = _random_kernel(spec, 18)
    rep1 = pk_seminorm(K, spec, (1, 1))
    rep2 = pk_seminorm(K, spec, (1, 1))
    text = json.dumps(rep1.to_dict(), sort_keys=True)
    assert text == json.dumps(rep2.to_dict(), sort_keys=True)

    data = json.loads(text)
    assert data["kind"] == "product"
    assert data["kvec"] == [1, 1]
    assert data["config"]["N"] == 8
    assert len(data["blocks"]) == len(rep1.blocks) > 0


def test_report_accessors():
    spec = GridSpec(AB2, 8, 2.0)
    rep = fk_seminorm(DeltaKernel(AB2, 2.0), spec, (0, 0))
    assert rep.value_for((0, 1)) == rep.value_for((1, 0))
    assert rep.flag_value(0) == 0.0
    with pytest.raises(KeyError):
        rep.value_for((3,))
    with pytest.raises(KeyError):
        rep.flag_value(5)


@given(st.integers(min_value=-40, max_value=40),
       st.integers(min_value=-40, max_value=40))
def test_delta_total_tracks_amplitude(re, im):
    c = complex(re, im) / 7.0
    if c == 0:
        return
    spec = GridSpec(AB2, 8, 2.0)
    rep = pk_seminorm(DeltaKernel(AB2, c), spec, (0, 0))
    assert abs(rep.total - abs(c)) <= 1e-9 * abs(c)


def test_iterative_blocks_cost_two_ffts_per_step(monkeypatch):
    # on the Lanczos fallback, each block runs on its own: one apply and one
    # adjoint per step, at most one fftn each and nothing else.  An operand
    # with fewer sites than (N + N//2)^2 / N^2 = 2.25 (a bump catching one
    # or two cells) sums over its own sites and runs none
    monkeypatch.setattr(seminorms, "DENSE_BLOCK_COLUMNS", 0)
    spec = GridSpec(AB2, 8, 1.0)
    K = synth_dyadic(AB2, -2, 0, "random", seed=1)
    cfg = SeminormConfig()
    calls, sites = [], []
    fftn = np.fft.fftn
    monkeypatch.setattr(np.fft, "fftn", lambda *a, **kw: calls.append(1) or fftn(*a, **kw))
    convolve = convolution._Spectrum._convolve

    def counted(block, flat):
        assert len(flat) == 1
        sites.append(int(np.count_nonzero(flat)))
        return convolve(block, flat)

    monkeypatch.setattr(convolution._Spectrum, "_convolve", counted)
    rep = pk_seminorm(K, spec, (1, 1), cfg)
    assert {row["method"] for row in rep.blocks} == {"iterative"}
    steps = rep.op_norm_estimate.iterations + sum(row["iterations"] for row in rep.blocks)
    assert len(sites) == 2 * steps
    dense = sum(n >= 2.25 for n in sites)
    assert 0 < dense < len(sites) and min(sites) >= 1
    # the spectra of K and K~, then one forward transform per dense operand
    assert len(calls) == 2 + dense


def test_iterative_report_blocks_equal_block_estimates(monkeypatch):
    monkeypatch.setattr(seminorms, "DENSE_BLOCK_COLUMNS", 0)
    spec = GridSpec(AB2, 8, 1.0)
    K = synth_dyadic(AB2, -2, 0, "random", seed=1)
    cfg = SeminormConfig()
    rep = pk_seminorm(K, spec, (1, 1), cfg)
    seps = rep.config["sep_constants"]
    for row in rep.blocks:
        subset = tuple(row["subset"])
        alpha = MultiIndex(tuple(tuple(e) for e in row["alpha"]))
        phi = {mu: ((0.0,), 2.0 ** row["j"]) for mu in subset}
        gam = {mu: (tuple(row["z"][str(mu)]), 2.0 ** row["l"]) for mu in subset}
        seed = _block_seed(cfg.seed, row["label"], alpha.entries, row["j"], row["l"],
                           tuple(sorted(gam.items())))
        est = block_operator(K, spec, alpha, subset, phi, gam, sep_constants=seps
                             ).estimate(max_iter=cfg.max_iter, tol=cfg.tol, seed=seed)
        assert (est.value, est.iterations, est.residual) == (
            row["block"], row["iterations"], row["residual"])


def _sparse_random_kernel(spec, seed, density):
    # direct-path convolutions cost one translation per kernel site
    rng = np.random.default_rng(seed)
    vals = rng.standard_normal(spec.shape) + 1j * rng.standard_normal(spec.shape)
    return GridKernel(spec, np.where(rng.random(spec.shape) < density, vals, 0.0))


def _oracle_case(name):
    if name == "abelian2":
        spec = GridSpec(AB2, 8, 2.0)
        return spec, _random_kernel(spec, 17), (1, 1)
    if name == "heisenberg1-dyadic":
        spec = GridSpec(H1, 8, 2.0)
        return spec, synth_dyadic(H1, -2, 0, "random", seed=3), (1,)
    if name == "heisenberg1xabelian1":
        spec = GridSpec(HX, 8, 2.0)
        return spec, _sparse_random_kernel(spec, 19, 0.1), (1, 0)
    spec = GridSpec(AB2, 8, 2.0)
    return spec, TensorKernel([DiscreteHilbertKernel(AB1), DeltaKernel(AB1, 0.5 - 1j)]), (1, 1)


def _block_key(row):
    return (row["label"], str(row["alpha"]), row["j"], row["l"], str(row["z"]))


@pytest.mark.parametrize("case", ["abelian2", "heisenberg1-dyadic",
                                  "heisenberg1xabelian1", "tensor-hilbert-delta"])
def test_dense_blocks_are_exact_and_dominate_the_fallback(monkeypatch, case):
    spec, K, kvec = _oracle_case(case)
    rep = fk_seminorm(K, spec, kvec)
    seps = rep.config["sep_constants"]
    dense = [row for row in rep.blocks if row["method"] == "dense"]
    assert any(row["block"] > 0.0 for row in dense)
    zero = set()  # blocks whose matrix is exactly zero
    for row in dense:
        subset = tuple(row["subset"])
        alpha = MultiIndex(tuple(tuple(e) for e in row["alpha"]))
        phi = {mu: ((0.0,) * spec.group.factors[mu].dim, 2.0 ** row["j"])
               for mu in subset}
        gam = {mu: (tuple(row["z"][str(mu)]), 2.0 ** row["l"]) for mu in subset}
        op = block_operator(K, spec, alpha, subset, phi, gam, sep_constants=seps)

        def apply_flat(x, op=op):
            return op.apply(GridFunction(spec, x.reshape(spec.shape))).values.reshape(-1)

        # columns off supp gamma are zero
        A = dense_matrix(apply_flat, spec.size, columns=np.flatnonzero(op.gamma))
        sigma = float(np.linalg.svd(A, compute_uv=False)[0])
        if not A.any():
            zero.add(_block_key(row))
        assert (row["iterations"], row["residual"]) == (0, 0.0)
        assert abs(row["block"] - sigma) <= 1e-12 * sigma
        assert localized_block(K, spec, alpha, subset, phi, gam,
                               sep_constants=seps) == row["block"]

    monkeypatch.setattr(seminorms, "DENSE_BLOCK_COLUMNS", 0)
    cfg = SeminormConfig()
    fallback = fk_seminorm(K, spec, kvec, cfg)
    assert [_block_key(r) for r in fallback.blocks] == [_block_key(r) for r in rep.blocks]
    assert all(r["method"] == "iterative" for r in fallback.blocks)
    # Lanczos reads from below and, once converged, equals the dense block;
    # blocks at rounding level (a delta factor's far field) are judged on
    # the report's scale, where a relative bound alone would compare noise
    top = max(row["block"] for row in rep.blocks)
    for row, old in zip(rep.blocks, fallback.blocks):
        assert row["block"] >= old["block"] * (1.0 - 1e-12)
        assert old["iterations"] < cfg.max_iter
        assert abs(old["block"] - row["block"]) <= 1e-12 * max(row["block"], top)
        if _block_key(row) in zero:
            assert row["block"] == old["block"] == 0.0


def _op_top(K, spec):
    op = prepare(K, spec)
    A = dense_matrix(lambda x: op.apply(x.reshape(spec.shape)).ravel(), spec.size)
    return float(np.linalg.svd(A, compute_uv=False)[0])


@pytest.mark.parametrize("seed", [0, 1])
def test_op_norm_entries_equal_dense_svd(seed):
    # Ritz values rise to sigma_max from below and, once converged, equal it
    cfg = SeminormConfig(seed=seed)
    spec = GridSpec(H1, 6, 1.0)
    K = synth_dyadic(H1, -2, 0, "random", seed=seed)
    est = op_norm(K, spec, max_iter=cfg.max_iter, tol=cfg.tol, seed=seed)
    assert est.converged
    assert est.value == pytest.approx(_op_top(K, spec), rel=1e-12)
    spec = GridSpec(AB2, 16, 1.0)
    K = synth_dyadic(AB2, -2, 0, "random", seed=seed)
    sigma = _op_top(K, spec)
    for report in (pk_seminorm, fk_seminorm):
        rep = report(K, spec, (1, 1), cfg)
        assert rep.op_norm_estimate.converged
        assert rep.value_for(()) == pytest.approx(sigma, rel=1e-12)


@pytest.mark.parametrize("N", [16, 24])
def test_tame_lattice_blocks_are_all_dense(N):
    # the abelian2 tame setup of the benchmark and criterion 5
    spec = GridSpec(AB2, N, 1.0)
    rep = fk_seminorm(DeltaKernel(AB2, 1.0), spec, (1, 1),
                      SeminormConfig(radius_factors=(1.0,)))
    assert rep.blocks
    assert all(row["method"] == "dense" for row in rep.blocks)


@pytest.mark.parametrize("spec,cfg", [
    (GridSpec(AB2, 16, 1.0), SeminormConfig(radius_factors=(1.0,))),
    (GridSpec(HX, 8, 2.0), SeminormConfig()),
])
def test_report_rows_are_distinct_blocks(spec, cfg):
    # on these lattices several (j, l, z) give bumps that catch the same
    # cells at the same distances; each distinct block is reported once
    rep = fk_seminorm(DeltaKernel(spec.group, 1.0), spec, (1, 1), cfg)
    seps = rep.config["sep_constants"]
    keys = []
    for row in rep.blocks:
        subset = tuple(row["subset"])
        phi = {mu: ((0.0,) * spec.group.factors[mu].dim, 2.0 ** row["j"])
               for mu in subset}
        gam = {mu: (tuple(row["z"][str(mu)]), 2.0 ** row["l"]) for mu in subset}
        phi, gam = seminorms._block_multipliers(spec, subset, phi, gam, seps, cfg.profile)
        keys.append((row["label"], str(row["alpha"]), phi.tobytes(), gam.tobytes(),
                     tuple(row["dists"])))
    assert rep.blocks and len(set(keys)) == len(keys)


@pytest.mark.parametrize("spec,cfg", [
    (GridSpec(AB2, 16, 1.0), SeminormConfig(radius_factors=(1.0,))),
    (GridSpec(AB2, 12, 1.0), SeminormConfig(directions="axes")),
    (GridSpec(HX, 8, 2.0), SeminormConfig()),
], ids=["abelian2-N16", "abelian2-N12-axes", "heisenberg1xabelian1-N8"])
def test_lattice_multipliers_match_validated_path(spec, cfg):
    # reports take (phi, gamma) from the lattice without re-validating them;
    # the public validation must accept every sample and rebuild the same bits
    seps = seminorms._separations(spec)
    for subset in all_subsets(spec.group.nu):
        if not subset:
            continue
        samples = seminorms._lattice(spec, cfg, subset, seps)
        assert samples
        for j, l, parts, dists, phi, gamma in samples:
            assert set(parts) == set(dists) == set(subset)
            assert all(radius == 2.0 ** l for _, radius in parts.values())
            phi_spec = {mu: ((0.0,) * spec.group.factors[mu].dim, 2.0 ** j)
                        for mu in subset}
            phi2, gamma2 = seminorms._block_multipliers(spec, subset, phi_spec, parts,
                                                        seps, cfg.profile)
            assert phi2.tobytes() == phi.tobytes()
            assert gamma2.tobytes() == gamma.tobytes()
            # finite differences below the stencil gap cannot couple the supports
            for mu in subset:
                sl = spec.group.slices[mu]
                a, b = (np.unique(np.argwhere(m > 0.0)[:, sl], axis=0) for m in (phi, gamma))
                assert np.abs(a[:, None] - b[None]).max(axis=-1).min() >= STENCIL_GAP


def test_dense_abelian2_blocks_run_no_fft(monkeypatch):
    # the one-hot columns of a dense block sum over their own site
    spec = GridSpec(AB2, 16, 1.0)
    cfg = SeminormConfig(radius_factors=(1.0,))
    op = prepare(_random_kernel(spec, 24), spec)
    alphas = list(multi_indices_up_to(AB2, (1, 1)))
    samples = seminorms._lattice(spec, cfg, (0, 1), seminorms._separations(spec))
    calls = []
    fftn = np.fft.fftn
    monkeypatch.setattr(np.fft, "fftn", lambda *a, **kw: calls.append(1) or fftn(*a, **kw))
    for _, _, _, _, phi, gamma in samples:
        [found] = seminorms._block_norms([op], spec, alphas, phi, gamma, cfg.max_iter,
                                         cfg.tol, lambda _: 0)
        assert {row[0] for row in found} == {"dense"}
        assert max(row[1] for row in found) > 0.0
    assert calls == []


def _whole_box_blocks(op, spec, alphas, phi, gamma):
    """Dense block norms with X^alpha and phi on the whole box, one SVD each."""
    cols = np.flatnonzero(gamma)
    rows = np.flatnonzero(phi)
    units = np.zeros((cols.size, spec.size), dtype=complex)
    units[np.arange(cols.size), cols] = gamma.reshape(-1)[cols]
    images = op.apply(units.reshape(cols.size, *spec.shape))
    out = []
    for alpha in alphas:
        d = left_derivative(images, alpha, spec).reshape(cols.size, -1)
        M = d[:, rows] * phi.reshape(-1)[rows]
        out.append(float(np.linalg.svd(M, compute_uv=False)[0]))
    return out


@pytest.mark.parametrize("case", ["abelian2", "heisenberg1xabelian1"])
def test_cropped_dense_blocks_equal_the_whole_box_bit_for_bit(case):
    # X^alpha on supp phi's bounding box, grown by alpha's steps, reads the
    # same centered differences as on the whole box
    if case == "abelian2":
        spec = GridSpec(AB2, 16, 1.0)
        K, cfg = _random_kernel(spec, 25), SeminormConfig(radius_factors=(1.0,))
    else:
        spec = GridSpec(HX, 8, 2.0)
        K, cfg = _sparse_random_kernel(spec, 26, 0.1), SeminormConfig(directions="axes")
    op = prepare(K, spec)
    seps = seminorms._separations(spec)
    checked = 0
    for subset in all_subsets(spec.group.nu):
        if not subset:
            continue
        alphas = list(multi_indices_up_to(spec.group, (2, 2), subset))
        assert max(sum(map(sum, a.entries)) for a in alphas) == 2 * len(subset)
        for _, _, _, _, phi, gamma in seminorms._lattice(spec, cfg, subset, seps):
            if np.count_nonzero(gamma) > DENSE_BLOCK_COLUMNS:
                continue
            [found] = seminorms._block_norms([op], spec, alphas, phi, gamma, cfg.max_iter,
                                             cfg.tol, lambda _: 0)
            assert [row[1] for row in found] == _whole_box_blocks(op, spec, alphas, phi, gamma)
            checked += 1
    assert checked >= 3


@pytest.mark.parametrize("case", ["abelian2-N16", "heisenberg1xabelian1-N8"])
@pytest.mark.parametrize("flag", [False, True], ids=["pk", "fk"])
def test_shared_pass_equals_one_kernel_reports(case, flag):
    # abelian2 has only dense blocks, some of whose windows fit fewer than
    # three ops in a stack; heisenberg1xabelian1 also has iterative blocks,
    # here capped at 12 Lanczos steps and first-factor orders to keep it short
    if case == "abelian2-N16":
        spec, cfg, kvec = GridSpec(AB2, 16, 1.0), SeminormConfig(radius_factors=(1.0,)), (1, 1)
    else:
        spec, cfg, kvec = GridSpec(HX, 8, 2.0), SeminormConfig(max_iter=12), (1, 0)
    K = synth_dyadic(spec.group, -2, 0, "random", seed=5, flag_mode=flag)
    L = synth_dyadic(spec.group, -2, 0, "mexican", seed=6, flag_mode=flag)
    opK, opL = prepare(K, spec), prepare(L, spec)
    KL = compose_kernels(opK, opL.kernel, spec)
    assert KL.values.tobytes() == compose_kernels(K, L, spec).values.tobytes()
    shared = seminorms._reports([opK, opL, KL], spec, kvec, cfg, flag)
    single = fk_seminorm if flag else pk_seminorm
    methods = set()
    for rep, kernel in zip(shared, (K, L, KL)):
        alone = single(kernel, spec, kvec, cfg)
        assert rep.to_dict() == alone.to_dict()
        assert rep.blocks == alone.blocks
        methods |= {row["method"] for row in rep.blocks}
    assert methods == ({"dense"} if case == "abelian2-N16" else {"dense", "iterative"})
