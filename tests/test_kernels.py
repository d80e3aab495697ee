"""Kernel representations: moments, synthesis, growth/cancellation, IO."""

import json

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from nilconv.grid import GridFunction, GridSpec, zero_lowest_face
from nilconv import kernels
from nilconv.groups import abelian, heisenberg1
from nilconv.kernels import (
    CLOSED_FORM_CATALOG,
    ClosedFormKernel,
    DeltaKernel,
    DiscreteHilbertKernel,
    DyadicKernel,
    GridKernel,
    TensorKernel,
    adjoint_kernel,
    cancellation_subsets,
    check_cancellation,
    check_growth,
    enforce_moments,
    factor_moments,
    load_kernel,
    reduce_kernel,
    save_kernel,
    smooth_bump,
    synth_dyadic,
)
from nilconv.product import MultiIndex, ProductGroup
from oracles import profile_shape_full_mesh

AB2 = ProductGroup([abelian(1), abelian(1)])
H1 = ProductGroup([heisenberg1()])
H1A1 = ProductGroup([heisenberg1(), abelian(1)])


def _smooth_field(spec, seed=0):
    rng = np.random.default_rng(seed)
    mesh = spec.mesh
    r2 = np.sum(mesh * mesh, axis=-1)
    vals = np.exp(-2.0 * r2) * (
        rng.normal() + sum(rng.normal() * mesh[..., j] for j in range(spec.q_total))
        + rng.normal() * mesh[..., 0] ** 2
    )
    return GridFunction(spec, zero_lowest_face(vals))


def test_smooth_bump_shape():
    assert smooth_bump(np.array([0.0]))[0] == 1.0
    assert smooth_bump(np.array([1.0, -1.0, 2.5])).tolist() == [0.0, 0.0, 0.0]
    v = smooth_bump(np.array([0.5]))[0]
    assert 0.0 < v < 1.0


def test_enforce_moments_kills_moments():
    spec = GridSpec(AB2, 32, 1.0)
    f = _smooth_field(spec, seed=3)
    out = enforce_moments(f, 0, 2)
    # independent check: direct Riemann sums of t^b against the output
    t0 = spec.axis_coords(0)
    vol0 = spec.spacings[0]
    for b in range(3):
        m = np.tensordot(t0 ** b, out.values, axes=([0], [0])) * vol0
        assert np.abs(m).max() <= 1e-12
    # and the off-grid quadrature of the interpolant stays small
    fine = np.linspace(-0.98 * spec.extents[0], 0.98 * spec.extents[0], 101)
    for t2 in (-0.4, 0.1, 0.55):
        pts = np.stack([fine, np.full_like(fine, t2)], axis=-1)
        q = np.sum(out.interp(pts)) * (fine[1] - fine[0])
        assert abs(q) <= 2e-2 * max(out.max_abs(), 1.0)


def test_enforce_moments_idempotent():
    for spec, mu in ((GridSpec(AB2, 24, 1.0), 1), (GridSpec(H1A1, 10, 1.0), 0)):
        f = _smooth_field(spec, seed=5)
        once = enforce_moments(f, mu, 2)
        twice = enforce_moments(once, mu, 2)
        assert np.abs(twice.values - once.values).max() <= 1e-13 * max(once.max_abs(), 1.0)


def test_enforce_moments_constant_order_zero():
    spec = GridSpec(AB2, 16, 1.0)
    f = GridFunction(spec, np.ones(spec.shape))
    out = enforce_moments(f, 0, 0)
    assert factor_moments(out, 0, 0).max() <= 1e-12


def test_enforce_moments_rejects_high_order():
    spec = GridSpec(AB2, 16, 1.0)
    f = _smooth_field(spec)
    with pytest.raises(ValueError):
        enforce_moments(f, 0, 5)


def test_enforce_moments_degenerate_basis():
    spec = GridSpec(AB2, 4, 1.0)
    f = _smooth_field(spec)
    with pytest.raises(ValueError, match="degenerate"):
        enforce_moments(f, 0, 4)


def test_synth_dyadic_profile_moments():
    for group, profile_N in ((AB2, 24), (H1A1, 12)):
        k = synth_dyadic(group, -1, 1, "random", seed=2, moment_order=2,
                         profile_N=profile_N)
        assert len(k.window) == 9
        for n in k.window:
            assert len(k.profiles[n]) == 2
            for phi in k.profiles[n]:
                assert factor_moments(phi, 0, 2).max() <= 1e-12


@pytest.mark.parametrize("family", ["gauss-deriv", "mexican", "random"])
@pytest.mark.parametrize("group", [AB2, H1, H1A1],
                         ids=["abelian2", "heisenberg1", "heisenberg1xabelian1"])
def test_profile_shape_matches_full_mesh(group, family):
    """The outer product of the per-factor shapes is the full-mesh shape: to
    rounding on several factors, bit for bit on one."""
    spec = GridSpec(group, 16, 1.0)
    rng = np.random.default_rng(7)
    parts = [kernels._profile_shape(family, sub, rng) for sub in spec.factor_specs]
    assert [p.shape for p in parts] == [sub.shape for sub in spec.factor_specs]
    got = parts[0]
    for p in parts[1:]:
        got = np.multiply.outer(got, p)
    want = profile_shape_full_mesh(family, group, spec, np.random.default_rng(7))
    assert got.shape == spec.shape
    if group.nu == 1:
        assert got.tobytes() == want.tobytes()
    else:
        assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()


def test_synth_dyadic_profiles_are_per_factor():
    """Profiles take one factor-grid array per factor: profile_N 32 on
    heisenberg1 x abelian2 (27 scales), and at most 5 MiB on h1 x a1."""
    group = ProductGroup.from_dict({"factors": ["heisenberg1", "abelian2"]})
    k = synth_dyadic(group, -2, 0, "random", seed=1)
    assert k.meta["profile_N"] == 32 and len(k.window) == 27
    for n in k.window:
        subs = [phi.spec for phi in k.profiles[n]]
        assert [s.q_total for s in subs] == [3, 1, 1] and {s.N for s in subs} == {32}
        for phi in k.profiles[n]:
            assert factor_moments(phi, 0, 1).max() <= 1e-12
    k = synth_dyadic(H1A1, -2, 0, "random", seed=1)
    stored = sum(phi.values.nbytes for parts in k.profiles.values() for phi in parts)
    assert stored <= 5 << 20


def test_synth_dyadic_flag_window():
    k = synth_dyadic(AB2, -1, 1, "mexican", moment_order=1, profile_N=16,
                     flag_mode=True)
    assert all(n[0] >= n[1] for n in k.window)
    assert len(k.window) == 6
    assert cancellation_subsets((2, 2), 2, True) == (1,)
    assert cancellation_subsets((3, 1), 2, True) == (0, 1)
    assert cancellation_subsets((3, 1), 2, False) == (0, 1)


def test_dilated_eval_scale_zero_is_profile():
    ab1 = ProductGroup([abelian(1)])
    k = synth_dyadic(ab1, 0, 0, "gauss-deriv", moment_order=1, profile_N=64)
    pts = np.linspace(-0.7, 0.7, 11)[:, None]
    phi = k.profiles[(0,)][0]
    assert np.allclose(k.dilated_eval((0,), pts), phi.interp(pts), atol=1e-14)


def test_dilated_eval_is_the_full_grid_interpolation():
    # multilinear interpolation factors by axis, in-box test included
    k = synth_dyadic(H1A1, -1, 0, "random", seed=6, profile_N=12)
    spec = GridSpec(H1A1, 12, 1.0)
    pts = np.random.default_rng(3).uniform(-1.2, 1.2, (200, 4))
    for n in k.window:
        full = GridFunction(spec, np.multiply.outer(*(phi.values for phi in k.profiles[n])))
        want = k.scale_factor(n) * full.interp(H1A1.dilate([2.0 ** v for v in n], pts))
        assert np.abs(k.dilated_eval(n, pts) - want).max() <= 1e-14 * np.abs(want).max()


def test_dilated_eval_integral_invariant():
    ab1 = ProductGroup([abelian(1)])
    base = synth_dyadic(ab1, 0, 0, "mexican", moment_order=0, profile_N=64)
    phi = base.profiles[(0,)][0]
    k = DyadicKernel(ab1, [(0,), (1,), (2,)],
                     {(0,): (phi,), (1,): (phi,), (2,): (phi,)}, 0)
    fine = GridSpec(ab1, 512, 1.0)
    for n in ((1,), (2,)):
        vals = k.dilated_eval(n, fine.mesh)
        total = vals.sum() * fine.volume
        assert abs(total - phi.integral()) <= 5e-3 * max(abs(phi.integral()), 1e-3)


def test_dilated_eval_against_closed_form():
    # hand-built profile, no synthesis involved: term must be 2^(nQ) g(2^n t)
    ab1 = ProductGroup([abelian(1)])
    spec = GridSpec(ab1, 512, 1.0)
    g = lambda t: t * np.exp(-4.0 * t * t)
    phi = GridFunction(spec, zero_lowest_face(g(spec.mesh[..., 0])))
    k = DyadicKernel(ab1, [(2,)], {(2,): (phi,)}, 0)
    t = np.linspace(-0.2, 0.2, 9)[:, None]
    want = 4.0 * g(4.0 * t[:, 0])
    got = k.dilated_eval((2,), t)
    assert np.abs(got - want).max() <= 1e-3 * np.abs(want).max()


def test_growth_inverse_product_order_zero_and_mixed():
    K = ClosedFormKernel(AB2, "inverse-product")
    spec = GridSpec(AB2, 64, 1.0)
    rep = check_growth(K, spec, kvec=(1, 1), n_samples=400, seed=1)
    zero = MultiIndex.zero(AB2)
    assert abs(rep.constants[zero] - 1.0) <= 0.02
    mixed = MultiIndex.make(AB2, ((1,), (1,)))
    assert abs(rep.constants[mixed] - 1.0) <= 0.05
    assert rep.valid


def test_growth_flag_inverse():
    K = ClosedFormKernel(AB2, "flag-inverse")
    assert K.mode == "flag"
    spec = GridSpec(AB2, 64, 1.0)
    rep = check_growth(K, spec, kvec=(0, 0), n_samples=500, seed=2)
    c0 = rep.constants[MultiIndex.zero(AB2)]
    assert abs(c0 - 1.0) <= 0.05
    assert rep.mode == "flag"


def test_growth_hilbert_window():
    ab1 = ProductGroup([abelian(1)])
    K = ClosedFormKernel(ab1, "hilbert", support=2.0)
    spec = GridSpec(ab1, 96, 2.0)
    rep = check_growth(K, spec, kvec=(0,), n_samples=300, seed=0)
    c0 = rep.constants[MultiIndex.zero(ab1)]
    assert abs(c0 - 1.0 / np.pi) <= 0.05 / np.pi


def test_growth_delta_flagged_invalid():
    K = DeltaKernel(AB2, 1.0)
    spec = GridSpec(AB2, 16, 1.0)
    rep = check_growth(K, spec, kvec=(0, 0), n_samples=100, seed=0)
    assert not rep.valid
    assert "resolution" in rep.notes


def test_growth_monotone_under_refinement():
    K = ClosedFormKernel(AB2, "inverse-product")
    spec = GridSpec(AB2, 64, 1.0)
    small = check_growth(K, spec, kvec=(1, 0), n_samples=150, seed=9)
    big = check_growth(K, spec, kvec=(1, 0), n_samples=400, seed=9)
    for a, v in small.constants.items():
        assert v <= big.constants[a] + 1e-9


def _fd_recursion(evalfn, pts, steps, axes):
    """The Richardson-extrapolated central difference along axes, one axis
    at a time by recursion, one evalfn call per point set."""
    if not axes:
        return evalfn(pts)
    ax, rest = axes[0], axes[1:]
    e = np.zeros(pts.shape[-1])
    e[ax] = 1.0
    h = steps[..., ax][..., None] * e
    d1 = (_fd_recursion(evalfn, pts + h, steps, rest)
          - _fd_recursion(evalfn, pts - h, steps, rest)) / (2.0 * steps[..., ax])
    d2 = (_fd_recursion(evalfn, pts + 2 * h, steps, rest)
          - _fd_recursion(evalfn, pts - 2 * h, steps, rest)) / (4.0 * steps[..., ax])
    return (4.0 * d1 - d2) / 3.0


def _growth_cases():
    rng = np.random.default_rng(4)
    spec = GridSpec(AB2, 32, 1.0)
    grid = GridKernel(spec, zero_lowest_face(rng.normal(size=spec.shape)
                                             + 1j * rng.normal(size=spec.shape)))
    return {
        "grid": (grid, spec, (2, 1)),
        "dyadic-h1a1": (synth_dyadic(H1A1, -1, 0, "random", seed=2, profile_N=8),
                        GridSpec(H1A1, 32, 1.0), (1, 1)),
        "closed-form": (ClosedFormKernel(AB2, "inverse-product"), GridSpec(AB2, 64, 1.0),
                        (1, 1)),
    }


@pytest.mark.parametrize("budget", [None, 350])
@pytest.mark.parametrize("name", ["grid", "dyadic-h1a1", "closed-form"])
def test_check_growth_one_eval_is_the_recursion(monkeypatch, name, budget):
    # every order's stencil in batched eval calls against the recursion with
    # one eval per point set: eval is pointwise, so constants and argmax are
    # bit-equal, also with a budget of 3 point sets of 100 points per call
    K, spec, kvec = _growth_cases()[name]
    if budget is not None:
        monkeypatch.setattr(kernels, "GROWTH_EVAL_POINTS", budget)
    sizes = []
    real_eval = K.eval

    def counted(points):
        sizes.append(len(points))
        return real_eval(points)

    monkeypatch.setattr(K, "eval", counted, raising=False)
    got = check_growth(K, spec, kvec=kvec, n_samples=100, seed=3)
    calls = len(sizes)
    monkeypatch.setattr(kernels, "_fd_derivatives", lambda evalfn, pts, steps, lists: [
        _fd_recursion(evalfn, pts, steps, axes) for axes in lists])
    want = check_growth(K, spec, kvec=kvec, n_samples=100, seed=3)
    assert got.constants == want.constants and got.argmax == want.argmax
    sets = len(sizes) - calls  # the recursion's calls, one per point set
    assert max(sizes[:calls]) <= (budget or kernels.GROWTH_EVAL_POINTS)
    assert calls == (1 if budget is None else -(-sets // 3))
    assert sum(sizes[:calls]) == sum(sizes[calls:]) == sets * 100


@pytest.mark.parametrize("kvec", [(1, 1, 1), (-1, 0), (1,)])
def test_check_growth_rejects_a_bad_kvec_first(monkeypatch, kvec):
    K = ClosedFormKernel(AB2, "inverse-product")

    def no_eval(points):
        raise AssertionError("eval ran before kvec was checked")

    monkeypatch.setattr(K, "eval", no_eval, raising=False)
    with pytest.raises(ValueError, match="growth kvec needs one nonnegative order per factor"):
        check_growth(K, GridSpec(AB2, 16, 1.0), kvec=kvec)


def test_check_growth_sampling_error_names_box_and_margin():
    # at N=16 the sampling box of abelian1 is [-0.25, 0.25] and every point
    # lies within the singular margin of 2 cells
    K = ClosedFormKernel(ProductGroup([abelian(1)]), "hilbert")
    spec = GridSpec(K.group, 16, 1.0)
    with pytest.raises(ValueError) as err:
        check_growth(K, spec, kvec=(0,))
    assert str(err.value) == (
        "could not sample enough points away from the singular set: 0 of 400 in "
        "the sampling box [-0.25, 0.25] have every factor weight above the "
        "singular margin 0.25 (2 cells of 0.125); 100 needed")


def test_growth_margin_too_large():
    K = ClosedFormKernel(AB2, "inverse-product")
    spec = GridSpec(AB2, 8, 1.0)
    with pytest.raises(ValueError):
        check_growth(K, spec, kvec=(0, 0), margin_cells=40.0)


def test_reduce_even_bump_annihilates_odd_kernel():
    K = ClosedFormKernel(AB2, "inverse-product")
    spec = GridSpec(AB2, 64, 1.0)
    for R in (0.5, 1.0, 2.0):
        red = reduce_kernel(K, 0, "even", R, spec)
        assert red.data.max_abs() <= 1e-9


def test_reduce_odd_bump_uniform_over_R():
    K = ClosedFormKernel(AB2, "inverse-product")
    spec = GridSpec(AB2, 64, 1.0)
    report = check_cancellation(
        K, 0, spec, bumps=("odd",), R_values=tuple(2.0 ** p for p in range(-2, 3)),
        kvec=(0,), n_samples=200, seed=3,
    )
    assert report.c0_variation["odd"] <= 0.02
    # the reduced kernel is (integral of the bump profile) / t2
    s = (np.arange(4000) + 0.5) / 4000.0
    want = 2.0 * np.sum(np.exp(1.0 - 1.0 / (1.0 - s ** 2))) * (1.0 / 4000.0)
    c0 = [e.report.constants[MultiIndex.zero(ProductGroup([abelian(1)]))]
          for e in report.entries]
    assert abs(max(c0) - want) <= 0.02 * want


def test_reduce_tensor_with_delta_part():
    ab1 = ProductGroup([abelian(1)])
    L = ClosedFormKernel(ab1, "hilbert")
    K = TensorKernel([DeltaKernel(ab1, 1.0), L])
    spec = GridSpec(K.group, 32, 1.0)
    red = reduce_kernel(K, 0, "even", 1.0, spec)
    pts = np.linspace(-0.9, 0.9, 17)[:, None]
    assert np.allclose(red.eval(pts), L.eval(pts), atol=1e-14)


def test_reduce_delta_part_scales_a_dyadic_rest():
    # a dyadic kernel has no amplitude of its own, so the reduction wraps it
    ab1 = ProductGroup([abelian(1)])
    D = synth_dyadic(ab1, -1, 0, "random", seed=4, profile_N=16)
    c = 2.0 - 1.0j
    K = TensorKernel([DeltaKernel(ab1, c), D])
    red = reduce_kernel(K, 0, "even", 1.0, GridSpec(K.group, 32, 1.0))
    pts = np.linspace(-0.9, 0.9, 17)[:, None]
    want = D.eval(pts)
    assert np.abs(want).max() > 0
    assert np.allclose(red.eval(pts), c * want, rtol=1e-14, atol=0)
    assert np.allclose(red.adjoint().eval(pts), np.conj(c) * D.adjoint().eval(pts),
                       rtol=1e-14, atol=0)


def test_reduce_tensor_scales_its_remaining_parts():
    # the bump's value at the identity (1 for the even kinds, gauss
    # included) times the delta amplitude scales what remains: the first
    # remaining part of a 3-factor tensor, a delta's amplitude, a grid
    # kernel's values
    ab1 = ProductGroup([abelian(1)])
    sub = GridSpec(ab1, 16, 1.0)
    L = ClosedFormKernel(ab1, "hilbert")
    G = GridKernel(sub, np.linspace(-1.0, 1.0, 16) + 0.5j)
    c = 2.0 - 1.0j
    pts = np.linspace(-0.9, 0.9, 17)[:, None]
    for bump in ("even", "gauss"):
        K3 = TensorKernel([DeltaKernel(ab1, c), L, G])
        red = reduce_kernel(K3, 0, bump, 1.0, GridSpec(K3.group, 16, 1.0))
        assert isinstance(red, TensorKernel) and red.group.nu == 2
        assert red.parts[1] is G and red.parts[0].amplitude == c * L.amplitude
        two = np.hstack([pts, pts[::-1]])
        assert np.array_equal(red.eval(two), c * L.eval(pts) * G.eval(pts[::-1]))
        red = reduce_kernel(TensorKernel([DeltaKernel(ab1, c), DeltaKernel(ab1, 3.0)]), 0,
                            bump, 1.0, GridSpec(AB2, 16, 1.0))
        assert isinstance(red, DeltaKernel) and red.amplitude == 3.0 * c
        assert np.array_equal(red.eval(pts), np.zeros(17))
        red = reduce_kernel(TensorKernel([DeltaKernel(ab1, c), G]), 0, bump, 1.0,
                            GridSpec(AB2, 16, 1.0))
        assert isinstance(red, GridKernel) and np.array_equal(red.values, c * G.values)


def test_reduce_gauss_bump_annihilates_odd_part():
    # the gauss bump is even like the even one, so an odd reduced factor
    # integrates to rounding level, and it stays below the even bump
    ab1 = ProductGroup([abelian(1)])
    L = ClosedFormKernel(ab1, "hilbert")
    K = TensorKernel([L, L])
    spec = GridSpec(K.group, 32, 1.0)
    red = reduce_kernel(K, 0, "gauss", 1.0, spec)
    pts = np.linspace(-0.9, 0.9, 17)[:, None]
    assert np.abs(red.eval(pts)).max() <= 1e-12 * np.abs(L.eval(pts)).max()
    bump = kernels._reduction_bump(ab1.factors[0], "gauss", 0.5)
    even = kernels._reduction_bump(ab1.factors[0], "even", 0.5)
    t = np.linspace(-0.6, 0.6, 25)[:, None]
    assert np.array_equal(bump(t), bump(-t)) and bump(np.zeros((1, 1)))[0] == 1.0
    assert np.all(bump(t) <= even(t)) and np.all(bump(t)[np.abs(t[:, 0]) >= 0.5] == 0)


def test_grid_kernel_renders_onto_another_grid_by_interpolation():
    # multilinear interpolation reproduces a linear function inside the
    # coarse box, away from its zeroed lowest face; a matching grid is kept
    def line(m):
        return 0.5 + 2.0 * m[..., 0] - 1j * m[..., 1]

    coarse, fine = GridSpec(AB2, 8, 1.0), GridSpec(AB2, 16, 0.5)
    K = GridKernel(coarse, line(coarse.mesh), mode="flag")
    r = K.render(fine)
    assert r.spec is fine and r.mode == "flag"
    assert np.allclose(r.values[1:, 1:], line(fine.mesh)[1:, 1:], rtol=0, atol=1e-14)
    assert K.render(GridSpec(AB2, 8, 1.0)) is K


def test_reduce_grid_kernel_support_overflow():
    spec = GridSpec(AB2, 32, 1.0)
    K = ClosedFormKernel(AB2, "inverse-product").render(spec)
    with pytest.raises(ValueError, match="support exceeds"):
        reduce_kernel(K, 0, "even", 1.0 / 16.0, spec)


def test_adjoint_involution_grid():
    spec = GridSpec(AB2, 16, 1.0)
    rng = np.random.default_rng(11)
    vals = zero_lowest_face(rng.normal(size=spec.shape) + 1j * rng.normal(size=spec.shape))
    K = GridKernel(spec, vals)
    back = adjoint_kernel(adjoint_kernel(K))
    assert np.array_equal(back.values, K.values)


def test_adjoint_real_even_is_identity():
    ab1 = ProductGroup([abelian(1)])
    spec = GridSpec(ab1, 32, 1.0)
    K = GridKernel(spec, zero_lowest_face(np.exp(-spec.mesh[..., 0] ** 2)))
    Kt = adjoint_kernel(K)
    assert np.allclose(Kt.values, K.values, atol=0)


def test_adjoint_delta_conjugates():
    K = DeltaKernel(AB2, 2.0 - 3.0j)
    assert adjoint_kernel(K).amplitude == 2.0 + 3.0j


@pytest.mark.parametrize("name,group", [
    ("hilbert", ProductGroup([abelian(1)])),
    ("riesz", ProductGroup([abelian(2)])),
    ("inverse-product", AB2),
    ("flag-inverse", AB2),
])
def test_adjoint_closed_form_pointwise(name, group):
    K = ClosedFormKernel(group, name, amplitude=1.5 + 0.5j)
    Kt = adjoint_kernel(K)
    rng = np.random.default_rng(4)
    pts = rng.uniform(0.2, 0.8, (20, group.q_total)) * rng.choice([-1, 1], (20, group.q_total))
    assert np.allclose(Kt.eval(pts), np.conj(K.eval(-pts)), atol=1e-14)


@pytest.mark.parametrize("N", [7, 8])
def test_grid_adjoint_is_conj_reverse_and_keeps_its_input(N):
    spec = GridSpec(AB2, N, 1.0)
    rng = np.random.default_rng(N)
    K = GridKernel(spec, rng.normal(size=spec.shape) + 1j * rng.normal(size=spec.shape))
    before = K.values.copy()
    want = np.zeros_like(before)
    lo = 1 - N % 2  # even N: index 0 has no partner and stays zero
    want[lo:, lo:] = np.conj(before[lo:, lo:][::-1, ::-1])
    assert adjoint_kernel(K).values.tobytes() == want.tobytes()
    assert K.values.tobytes() == before.tobytes()
    if lo:
        with pytest.raises(ValueError, match="lowest face"):
            GridFunction(spec, np.ones(spec.shape)).conj_reverse()


def test_adjoint_dyadic_matches_flip():
    k = synth_dyadic(AB2, -1, 1, "random", seed=8, moment_order=1, profile_N=32)
    kt = adjoint_kernel(k)
    rng = np.random.default_rng(5)
    pts = rng.uniform(-0.4, 0.4, (30, 2))
    assert np.allclose(kt.eval(pts), np.conj(k.eval(-pts)), atol=1e-12)


def test_tensor_eval_is_pointwise_product():
    ab1 = ProductGroup([abelian(1)])
    h = ClosedFormKernel(ab1, "hilbert")
    K = TensorKernel([h, h])
    rng = np.random.default_rng(6)
    pts = rng.uniform(0.1, 0.9, (25, 2))
    want = h.eval(pts[:, :1]) * h.eval(pts[:, 1:])
    assert np.allclose(K.eval(pts), want, atol=1e-14)


def test_tensor_render_outer_product():
    ab1 = ProductGroup([abelian(1)])
    h = ClosedFormKernel(ab1, "hilbert")
    K = TensorKernel([h, h])
    spec = GridSpec(K.group, 16, 1.0)
    sub = GridSpec(ab1, 16, 1.0)
    want = np.multiply.outer(h.render(sub).values, h.render(sub).values)
    assert np.allclose(K.render(spec).values, zero_lowest_face(want), atol=0)


def _bump(s):
    """exp(1 - 1/(1 - s^2)) on |s| < 1, zero outside."""
    out = np.zeros_like(s)
    inside = np.abs(s) < 1.0
    out[inside] = np.exp(1.0 - 1.0 / (1.0 - s[inside] ** 2))
    return out


def _hilbert_formula(t, support=2.0):
    t = t[:, 0]
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(t == 0.0, 0.0, _bump(t / support) / (np.pi * t))


def _riesz_formula(t, axis):
    # q = 2: c = Gamma(3/2) / pi^(3/2) = 1 / (2 pi)
    r = np.hypot(t[:, 0], t[:, 1])
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(r == 0.0, 0.0, t[:, axis] / (2.0 * np.pi * r ** 3) * _bump(r / 2.0))


def _inverse_product_formula(t):
    with np.errstate(divide="ignore"):
        return np.where(np.any(t == 0.0, axis=1), 0.0, 1.0 / np.prod(t, axis=1))


def _flag_inverse_formula(t):
    t1, t2 = t[:, 0], t[:, 1]
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(t1 == 0.0, 0.0, 1.0 / (t1 * (np.abs(t1) + np.abs(t2))))


_AB1 = ProductGroup([abelian(1)])
# name -> [(group, params, formula of t)]; a catalog entry without cases fails
_FORMULA_CASES = {
    "hilbert": [(_AB1, {}, _hilbert_formula),
                (_AB1, {"support": 0.7}, lambda t: _hilbert_formula(t, 0.7))],
    "riesz": [(ProductGroup([abelian(2)]), {"axis": 0}, lambda t: _riesz_formula(t, 0)),
              (ProductGroup([abelian(2)]), {"axis": 1}, lambda t: _riesz_formula(t, 1))],
    "inverse-product": [(_AB1, {}, _inverse_product_formula),
                        (AB2, {}, _inverse_product_formula)],
    "flag-inverse": [(AB2, {}, _flag_inverse_formula)],
}


@pytest.mark.parametrize("name", sorted(CLOSED_FORM_CATALOG))
def test_closed_form_values_match_formula(name):
    amp = 0.75 - 1.25j
    rng = np.random.default_rng(11)
    for group, params, formula in _FORMULA_CASES[name]:
        q = group.q_total
        pts = rng.uniform(-1.0, 1.0, (64, q))
        # zeros on the singular sets: each coordinate zero in turn, the origin
        sing = np.repeat(rng.uniform(-1.0, 1.0, (1, q)), q, axis=0)
        sing[np.arange(q), np.arange(q)] = 0.0
        pts = np.concatenate([pts, sing, np.zeros((1, q))])
        K = ClosedFormKernel(group, name, amplitude=amp, **params)
        got = K.eval(pts)
        want = amp * formula(pts)
        assert np.allclose(got, want, rtol=1e-13, atol=0), (name, params)
        assert np.all(got[want == 0.0] == 0.0), (name, params)
        assert np.count_nonzero(want) >= 32


@pytest.mark.parametrize("name", sorted(CLOSED_FORM_CATALOG))
def test_closed_form_refuses_unknown_parameters(name):
    group = _FORMULA_CASES[name][0][0]
    with pytest.raises(ValueError, match="suport"):
        ClosedFormKernel(group, name, suport=1.0)


@pytest.mark.parametrize("name,params,word", [
    ("riesz", {"axis": 2}, "axis"),  # past the last axis: eval would index out of range
    ("riesz", {"axis": -1}, "axis"),  # would silently mean the last axis
    ("riesz", {"axis": 1.0}, "axis"),
    ("hilbert", {"support": 0.0}, "support"),  # would evaluate to zeros over 0 / 0
    ("hilbert", {"support": float("inf")}, "support"),
    ("riesz", {"support": float("nan")}, "support"),
])
def test_closed_form_refuses_parameter_values_out_of_range(name, params, word):
    group = _FORMULA_CASES[name][0][0]
    with pytest.raises(ValueError, match=word):
        ClosedFormKernel(group, name, **params)


def test_closed_form_validation():
    with pytest.raises(ValueError, match="unknown closed form"):
        ClosedFormKernel(AB2, "nope")
    with pytest.raises(ValueError):
        ClosedFormKernel(AB2, "hilbert")  # needs a single factor
    with pytest.raises(ValueError):
        ClosedFormKernel(ProductGroup([abelian(1)]), "flag-inverse")
    with pytest.raises(ValueError):
        ClosedFormKernel(ProductGroup([heisenberg1()]), "riesz")


def test_dyadic_reconstruction_stable_in_annulus():
    # wide-window sum on a Q=4 factor: one extra scale at either end moves
    # values at hom-norm ~ 1 by at most (2^(n_min-1))^Q relative
    grp = ProductGroup([heisenberg1()])
    base = synth_dyadic(grp, -4, 3, "gauss-deriv", moment_order=1, profile_N=20)
    wider = synth_dyadic(grp, -5, 4, "gauss-deriv", moment_order=1, profile_N=20)
    rng = np.random.default_rng(7)
    pts = []
    while len(pts) < 40:
        cand = rng.uniform(-1.3, 1.3, (200, 3))
        norm = grp.factor_norms(cand)[..., 0]
        pts.extend(cand[(norm > 0.8) & (norm < 1.2)])
    pts = np.asarray(pts[:40])
    v0 = base.eval(pts)
    v1 = wider.eval(pts)
    scale = np.abs(v0).max()
    assert scale > 0
    assert np.abs(v1 - v0).max() <= 1e-3 * scale


def test_dyadic_growth_stable_under_grid_refinement():
    k = synth_dyadic(AB2, -2, 2, "mexican", moment_order=1, profile_N=24)
    a = check_growth(k, GridSpec(AB2, 32, 1.0), kvec=(0, 0), n_samples=300, seed=1)
    b = check_growth(k, GridSpec(AB2, 64, 1.0), kvec=(0, 0), n_samples=300, seed=1)
    zero = MultiIndex.zero(AB2)
    ca, cb = a.constants[zero], b.constants[zero]
    assert np.isfinite(ca) and ca > 0
    assert abs(cb - ca) <= 0.25 * max(ca, cb)


def test_save_load_grid_roundtrip(tmp_path):
    """A grid file holds no principal-value flag; one in the earlier format
    (header flag bit 0 set, sidecar "principal_value": true) loads the same."""
    spec = GridSpec(ProductGroup([heisenberg1()]), 8, 1.0)
    rng = np.random.default_rng(12)
    vals = zero_lowest_face(rng.normal(size=spec.shape) + 1j * rng.normal(size=spec.shape))
    K = GridKernel(spec, vals, mode="product")
    path = tmp_path / "k.nckr"
    save_kernel(K, str(path))
    side = json.loads((tmp_path / "k.nckr.json").read_text())
    assert path.read_bytes()[7] == 0 and "principal_value" not in side
    back = load_kernel(str(path))
    assert isinstance(back, GridKernel)
    assert np.array_equal(back.values, K.values)
    assert back.mode == "product"
    assert back.spec.N == 8 and back.spec.T == 1.0
    assert back.group.to_dict() == K.group.to_dict()

    buf = bytearray(path.read_bytes())
    buf[7] |= 1
    path.write_bytes(bytes(buf))
    (tmp_path / "k.nckr.json").write_text(json.dumps(dict(side, principal_value=True)))
    old = load_kernel(str(path))
    assert old.values.tobytes() == K.values.tobytes()
    assert old.mode == "product" and not hasattr(old, "principal_value")


def _set_file_version(path, version):
    buf = bytearray(path.read_bytes())
    buf[4] = version
    path.write_bytes(bytes(buf))


def test_save_load_dyadic_roundtrip(tmp_path):
    k = synth_dyadic(H1A1, 0, 1, "random", seed=9, moment_order=1, profile_N=8,
                     flag_mode=True)
    path = tmp_path / "d.nckr"
    save_kernel(k, str(path))
    # version 2: scale by scale, each factor's profile on its own grid
    buf = path.read_bytes()
    assert buf[4] == 2
    assert buf[64:] == b"".join(phi.values.astype("<c16").tobytes()
                                for n in k.window for phi in k.profiles[n])
    assert len(buf) == 64 + len(k.window) * (8 ** 3 + 8) * 16
    back = load_kernel(str(path))
    assert isinstance(back, DyadicKernel)
    assert back.window == k.window
    assert back.flag_mode
    assert back.moment_order == 1
    for n in k.window:
        for phi, want in zip(back.profiles[n], k.profiles[n], strict=True):
            assert phi.spec.compatible(want.spec)
            assert phi.values.tobytes() == want.values.tobytes()


def test_load_version_one_files(tmp_path):
    """A version-1 grid file loads (its payload is unchanged); a version-1
    dyadic file, which held full-grid profiles, is refused."""
    spec = GridSpec(H1A1, 6, 1.0)
    vals = zero_lowest_face(np.random.default_rng(2).normal(size=spec.shape))
    path = tmp_path / "g.nckr"
    save_kernel(GridKernel(spec, vals, mode="flag"), str(path))
    _set_file_version(path, 1)
    back = load_kernel(str(path))
    assert back.values.tobytes() == zero_lowest_face(vals).tobytes()
    assert back.mode == "flag"

    path = tmp_path / "d.nckr"
    save_kernel(synth_dyadic(AB2, 0, 0, "random", profile_N=8), str(path))
    _set_file_version(path, 1)
    with pytest.raises(ValueError, match="unsupported kernel file version 1"):
        load_kernel(str(path))


def test_load_dyadic_sidecar_with_profile_bounds(tmp_path):
    # sidecars written before profile_bounds was dropped still load
    k = synth_dyadic(AB2, 0, 0, "random", seed=3, profile_N=8)
    path = tmp_path / "old.nckr"
    save_kernel(k, str(path))
    side = json.loads((tmp_path / "old.nckr.json").read_text())
    side["profile_bounds"] = {repr(n): 1.5 for n in k.window}
    (tmp_path / "old.nckr.json").write_text(json.dumps(side))
    back = load_kernel(str(path))
    assert back.window == k.window
    for phi, want in zip(back.profiles[(0, 0)], k.profiles[(0, 0)], strict=True):
        assert np.array_equal(phi.values, want.values)


def test_load_kernel_errors(tmp_path):
    spec = GridSpec(AB2, 8, 1.0)
    K = GridKernel(spec, np.zeros(spec.shape))
    path = tmp_path / "k.nckr"
    save_kernel(K, str(path))
    (tmp_path / "k.nckr.json").unlink()
    with pytest.raises(ValueError, match="sidecar"):
        load_kernel(str(path))
    bad = tmp_path / "bad.nckr"
    bad.write_bytes(b"XXXX" + bytes(60))
    (tmp_path / "bad.nckr.json").write_text("{}")
    with pytest.raises(ValueError, match="magic"):
        load_kernel(str(bad))


@given(st.integers(0, 2 ** 31 - 1))
def test_adjoint_involution_random_grids(seed):
    spec = GridSpec(AB2, 8, 1.0)
    rng = np.random.default_rng(seed)
    vals = zero_lowest_face(rng.normal(size=spec.shape) + 1j * rng.normal(size=spec.shape))
    K = GridKernel(spec, vals)
    assert np.array_equal(adjoint_kernel(adjoint_kernel(K)).values, K.values)


# --- lattice-exact Hilbert kernel --------------------------------------------


def _hilbert_1d(N, T=1.0):
    group = ProductGroup([abelian(1)])
    spec = GridSpec(group, N, T)
    return DiscreteHilbertKernel(group), spec


def test_discrete_hilbert_formula_symbol_unimodular():
    # derivation witness: the same cot formula over the full doubled circle
    # has a unimodular DFT except at the two parity-forced zero bins
    N = 64
    _, spec = _hilbert_1d(N)
    h = spec.spacings[0]
    j = np.arange(2 * N) - N
    full = np.zeros(2 * N, dtype=complex)
    odd = (j % 2) != 0
    full[odd] = 1.0 / np.tan(np.pi * j[odd] / (2 * N)) / (N * h)
    sym = np.fft.fft(np.roll(full, -N)) * h
    mag = np.abs(sym)
    assert mag[0] <= 1e-12 and mag[N] <= 1e-12
    keep = np.ones(2 * N, bool)
    keep[0] = keep[N] = False
    assert np.abs(mag[keep] - 1.0).max() <= 1e-10


def test_discrete_hilbert_render_values():
    N = 32
    K, spec = _hilbert_1d(N)
    vals = K.render(spec).values
    h = spec.spacings[0]
    j = np.arange(N) - spec.origin
    assert np.all(vals[(j % 2) == 0] == 0)
    odd = (j % 2) != 0
    expect = 1.0 / np.tan(np.pi * j[odd] / (2 * N)) / (N * h)
    assert np.abs(vals[odd] - expect).max() <= 1e-14
    # far from the center the values track the continuum density 2/(pi t)
    mid = (np.abs(j) > 2) & (np.abs(j) < N // 4) & odd
    cont = 2.0 / (np.pi * j[mid] * h)
    assert np.abs(vals[mid] / cont - 1.0).max() <= 0.05


def test_discrete_hilbert_box_symbol_bulk(py_symbol_width=8):
    from oracles import padded_symbol

    N = 64
    K, spec = _hilbert_1d(N)
    sym = padded_symbol(K.render(spec).values, spec.volume)
    mag = np.abs(sym)
    assert mag[0] <= 1e-12 and mag[N] <= 1e-12
    assert mag.max() <= 1.15
    near = np.zeros(2 * N, bool)
    w = N // py_symbol_width
    for c in (0, N):
        for d in range(-w, w + 1):
            near[(c + d) % (2 * N)] = True
    assert np.abs(mag[~near] - 1.0).max() <= 0.06


def test_discrete_hilbert_adjoint_negates():
    N = 32
    K, spec = _hilbert_1d(N)
    Kt = adjoint_kernel(K)
    assert isinstance(Kt, DiscreteHilbertKernel)
    want = adjoint_kernel(K.render(spec)).values
    assert np.abs(Kt.render(spec).values - want).max() <= 1e-14
    assert np.abs(Kt.render(spec).values + K.render(spec).values).max() <= 1e-14


def test_discrete_hilbert_validation():
    K, spec = _hilbert_1d(16)
    with pytest.raises(NotImplementedError):
        K.eval(np.zeros((3, 1)))
    with pytest.raises(ValueError, match="one-dimensional"):
        DiscreteHilbertKernel(ProductGroup([abelian(2)]))
    with pytest.raises(ValueError, match="nu = 1"):
        DiscreteHilbertKernel(AB2)
    other = GridSpec(AB2, 16, 1.0)
    with pytest.raises(ValueError, match="match"):
        K.render(other)
