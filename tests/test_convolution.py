"""Group convolution, operator application, and operator norms."""

import gc
import weakref
from collections import Counter

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from nilconv import convolution
from nilconv.convolution import (
    _Sheared,
    _orth,
    _plain_pad,
    apply_op,
    boundary_mass_fraction,
    compose_kernels,
    convolve,
    left_derivative,
    left_derivative_adjoint,
    op_norm,
    power_method,
    prepare,
)
from nilconv.grid import GridFunction, GridSpec, zero_lowest_face
from nilconv.groups import GradedLieAlgebra, abelian, heisenberg1
from nilconv.kernels import (
    ClosedFormKernel,
    DeltaKernel,
    DiscreteHilbertKernel,
    GridKernel,
    TensorKernel,
    adjoint_kernel,
    smooth_bump,
)
from nilconv.product import MultiIndex, ProductGroup

from oracles import (
    convolution_matrix,
    dense_matrix,
    loop_group_convolution,
    right_translate,
    site_convolution,
    toeplitz_convolution_matrix,
)

AB1 = ProductGroup([abelian(1)])
AB2 = ProductGroup([abelian(1), abelian(1)])
HEIS = ProductGroup([heisenberg1()])
HX = ProductGroup([heisenberg1(), abelian(1)])
FILIFORM3 = GradedLieAlgebra(3, [2, 1, 1], [(0, 1, 2, 1.0), (0, 2, 3, 1.0)])
FILIFORM4 = GradedLieAlgebra(4, [2, 1, 1, 1], [(0, 1, 2, 1.0), (0, 2, 3, 1.0),
                                               (0, 3, 4, 1.0)])
F3X = ProductGroup([FILIFORM3, abelian(1)])


def _bump(spec, center, width):
    mesh = spec.mesh
    vals = np.ones(spec.shape)
    for j in range(spec.q_total):
        vals = vals * smooth_bump((mesh[..., j] - center[j]) / width)
    return GridFunction(spec, vals)


def _random_field(spec, seed):
    rng = np.random.default_rng(seed)
    vals = rng.normal(size=spec.shape) + 1j * rng.normal(size=spec.shape)
    return GridFunction(spec, vals)


def test_delta_reproduces_identity():
    spec = GridSpec(AB2, 16, 1.0)
    f = _random_field(spec, 0)
    d = spec.delta()
    for path in ("fast", "direct"):
        out = convolve(f, d, path=path)
        assert np.abs(out.values - f.values).max() <= 1e-12 * f.max_abs()
    hspec = GridSpec(HEIS, 8, 1.0)
    hf = _random_field(hspec, 1)
    out = convolve(hf, hspec.delta(), path="direct")
    assert np.abs(out.values - hf.values).max() <= 1e-12 * hf.max_abs()


def test_fast_path_matches_direct_sum():
    spec = GridSpec(AB2, 32, 1.0)
    f = _random_field(spec, 2)
    g = _random_field(spec, 3)
    fast = convolve(f, g, path="fast")
    direct = convolve(f, g, path="direct")
    denom = direct.l2_norm()
    assert fast.plus(direct.scaled(-1)).l2_norm() <= 1e-10 * denom


def test_direct_matches_loop_oracle_abelian():
    spec = GridSpec(AB1, 16, 1.0)
    f = _random_field(spec, 4)
    g = _random_field(spec, 5)
    got = convolve(f, g, path="direct")
    coords = spec.mesh.reshape(-1, 1)
    want = loop_group_convolution(
        AB1, f.values.reshape(-1), g.values.reshape(-1), coords, spec.volume
    )
    assert np.abs(got.values.reshape(-1) - want).max() <= 1e-12 * np.abs(want).max()


def test_direct_matches_loop_oracle_heisenberg():
    spec = GridSpec(HEIS, 6, 1.0)
    f = _random_field(spec, 6)
    g = _random_field(spec, 7)
    got = convolve(f, g, path="direct")
    coords = spec.mesh.reshape(-1, 3)
    want = loop_group_convolution(
        HEIS, f.values.reshape(-1), g.values.reshape(-1), coords, spec.volume
    )
    assert np.abs(got.values.reshape(-1) - want).max() <= 1e-12 * np.abs(want).max()


def _interior_probe(spec, seed, radii=None):
    # A cell or so of support per coordinate keeps every pairwise group
    # product inside the box, so truncation never enters and lattice
    # identities hold exactly.
    rng = np.random.default_rng(seed)
    vals = np.zeros(spec.shape, dtype=complex)
    c = spec.N // 2
    q = spec.q_total
    if radii is None:
        radii = (1,) * q
    shape = tuple(2 * r + 1 for r in radii)
    block = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    vals[tuple(slice(c - r, c + r + 1) for r in radii)] = block
    return GridFunction(spec, vals)


def test_heisenberg_associativity_interior():
    spec = GridSpec(HEIS, 12, 1.0)
    f = _interior_probe(spec, 40)
    g = _interior_probe(spec, 41)
    h = _interior_probe(spec, 42)
    left = convolve(convolve(f, g), h)
    right = convolve(f, convolve(g, h))
    denom = max(left.l2_norm(), 1e-300)
    assert left.plus(right.scaled(-1)).l2_norm() <= 1e-6 * denom


def test_convolve_validation(monkeypatch):
    a = GridSpec(AB2, 16, 1.0)
    b = GridSpec(AB2, 16, 2.0)
    with pytest.raises(ValueError, match="do not match"):
        convolve(a.zeros(), b.zeros())
    f = _random_field(a, 0)
    monkeypatch.setattr(convolution, "PAIR_BUDGET", 10)
    with pytest.raises(ValueError, match="budget"):
        convolve(f, f, path="direct")
    hspec = GridSpec(HEIS, 6, 1.0)
    with pytest.raises(ValueError, match="abelian"):
        convolve(hspec.zeros(), hspec.zeros(), path="fast")
    with pytest.raises(ValueError, match="unknown convolution path"):
        convolve(f, f, path="warp")


def test_apply_delta_scales():
    spec = GridSpec(AB2, 16, 1.0)
    f = _random_field(spec, 8)
    out = apply_op(DeltaKernel(AB2, 2.0 - 1.0j), f)
    assert np.allclose(out.values, (2.0 - 1.0j) * f.values, atol=0)


def test_apply_tensor_matches_full_render():
    spec = GridSpec(AB2, 32, 1.0)
    h = ClosedFormKernel(AB1, "hilbert")
    K = TensorKernel([h, h])
    f = _random_field(spec, 9)
    via_tensor = apply_op(K, f)
    via_full = convolve(K.render(spec).data, f, path="fast")
    denom = via_full.l2_norm()
    assert via_tensor.plus(via_full.scaled(-1)).l2_norm() <= 1e-10 * denom


def test_apply_tensor_nonabelian_factor():
    grp = ProductGroup([heisenberg1(), abelian(1)])
    spec = GridSpec(grp, 8, 1.0)
    sub_h = GridSpec(ProductGroup([heisenberg1()]), 8, 1.0)
    rng = np.random.default_rng(10)
    part_h = GridKernel(sub_h, zero_lowest_face(rng.normal(size=sub_h.shape)))
    part_a = ClosedFormKernel(AB1, "hilbert")
    K = TensorKernel([part_h, part_a])
    f = _random_field(spec, 11)
    got = apply_op(K, f)
    want = convolve(K.render(spec).data, f, path="direct")
    denom = want.l2_norm()
    assert got.plus(want.scaled(-1)).l2_norm() <= 1e-10 * denom


def test_compose_with_delta_is_identity():
    spec = GridSpec(AB2, 16, 1.0)
    rng = np.random.default_rng(12)
    L = GridKernel(spec, zero_lowest_face(rng.normal(size=spec.shape)))
    out = compose_kernels(DeltaKernel(AB2, 2.0), L, spec)
    assert np.allclose(out.values, 2.0 * L.values, atol=0)


def test_compose_action_matches_sequential_apply():
    spec = GridSpec(AB2, 32, 1.0)
    K = GridKernel(spec, _bump(spec, (0.05, -0.05), 0.2).values)
    L = GridKernel(spec, _bump(spec, (-0.1, 0.0), 0.2).values * (1 + 0.5j))
    f = _bump(spec, (0.1, 0.1), 0.2)
    combined = apply_op(compose_kernels(K, L, spec), f)
    sequential = apply_op(K, apply_op(L, f))
    denom = max(sequential.l2_norm(), 1e-300)
    assert combined.plus(sequential.scaled(-1)).l2_norm() <= 1e-6 * denom


def test_hilbert_squares_to_minus_identity():
    # The probe is modulated to sit in a frequency band where the windowed
    # kernel's multiplier is close to -i sgn: above the window roll-off near
    # zero, well below Nyquist where the sampled 1/t multiplier sags.
    spec = GridSpec(AB1, 1024, 2.0)
    H = ClosedFormKernel(AB1, "hilbert", support=2.0)
    HH = compose_kernels(H, H, spec)
    t = spec.axis_coords(0)
    f = GridFunction(spec, (smooth_bump(t / 1.5) * np.exp(9j * t)).astype(complex))
    out = apply_op(HH, f)
    err = out.plus(f).l2_norm() / f.l2_norm()
    assert err <= 0.05


def test_opnorm_delta():
    spec = GridSpec(AB2, 16, 1.0)
    est = op_norm(DeltaKernel(AB2, -2.5j), spec)
    assert abs(est.value - 2.5) <= 1e-10
    assert est.converged


def test_opnorm_hilbert_against_dense_svd():
    spec = GridSpec(AB1, 128, 2.0)
    K = ClosedFormKernel(AB1, "hilbert", support=1.9)
    est = op_norm(K, spec, max_iter=80, seed=0)
    M = toeplitz_convolution_matrix(K.render(spec).values, spec.spacings[0])
    svd_top = np.linalg.svd(M, compute_uv=False)[0]
    assert abs(est.value - svd_top) <= 1e-5 * svd_top
    assert abs(est.value - 1.0) <= 0.03


def test_opnorm_scale_covariance():
    spec = GridSpec(AB2, 16, 1.0)
    rng = np.random.default_rng(13)
    vals = zero_lowest_face(rng.normal(size=spec.shape) + 1j * rng.normal(size=spec.shape))
    K = GridKernel(spec, vals)
    cK = GridKernel(spec, 3.7 * vals)
    a = op_norm(K, spec, seed=1)
    b = op_norm(cK, spec, seed=1)
    assert abs(b.value - 3.7 * a.value) <= 1e-9 * b.value


def test_opnorm_triangle_inequality():
    spec = GridSpec(AB2, 16, 1.0)
    rng = np.random.default_rng(14)
    A = GridKernel(spec, zero_lowest_face(rng.normal(size=spec.shape)))
    B = GridKernel(spec, zero_lowest_face(rng.normal(size=spec.shape)))
    AB = GridKernel(spec, A.values + B.values)
    na = op_norm(A, spec, seed=2).value
    nb = op_norm(B, spec, seed=2).value
    nab = op_norm(AB, spec, seed=2).value
    assert nab <= na + nb + 1e-9


def test_opnorm_deterministic():
    spec = GridSpec(AB1, 64, 1.0)
    K = ClosedFormKernel(AB1, "hilbert", support=0.9)
    a = op_norm(K, spec, seed=5)
    b = op_norm(K, spec, seed=5)
    assert a.value == b.value and a.iterations == b.iterations


def test_opnorm_convergence_flag():
    spec = GridSpec(AB1, 64, 1.0)
    K = ClosedFormKernel(AB1, "hilbert", support=0.9)
    est = op_norm(K, spec, max_iter=8, tol=0.0)
    assert not est.converged
    with pytest.raises(ValueError, match="max_iter"):
        op_norm(K, spec, max_iter=4)


def test_adjoint_pairing_heisenberg():
    spec = GridSpec(HEIS, 8, 1.0)
    rng = np.random.default_rng(15)
    K = GridKernel(
        spec,
        zero_lowest_face(rng.normal(size=spec.shape) + 1j * rng.normal(size=spec.shape)),
    )
    Kt = adjoint_kernel(K)
    for seed in range(3):
        f = _random_field(spec, 100 + seed)
        g = _random_field(spec, 200 + seed)
        lhs = apply_op(K, f).inner(g)
        rhs = f.inner(apply_op(Kt, g))
        assert abs(lhs - rhs) <= 1e-8 * f.l2_norm() * g.l2_norm()


def test_adjoint_pairing_fast_path():
    spec = GridSpec(AB2, 32, 1.0)
    rng = np.random.default_rng(16)
    K = GridKernel(
        spec,
        zero_lowest_face(rng.normal(size=spec.shape) + 1j * rng.normal(size=spec.shape)),
    )
    f = _random_field(spec, 17)
    g = _random_field(spec, 18)
    lhs = apply_op(K, f).inner(g)
    rhs = f.inner(apply_op(adjoint_kernel(K), g))
    assert abs(lhs - rhs) <= 1e-10 * f.l2_norm() * g.l2_norm()


def test_right_invariance_on_lattice():
    spec = GridSpec(HEIS, 12, 1.0)
    K = GridKernel(spec, _interior_probe(spec, 50, radii=(1, 1, 0)).values)
    f = _interior_probe(spec, 51, radii=(1, 1, 0))
    a = np.array([0.0, spec.spacings[1], 0.0])
    lhs = apply_op(K, right_translate(f, a))
    rhs = right_translate(apply_op(K, f), a)
    denom = max(rhs.l2_norm(), 1e-300)
    assert lhs.plus(rhs.scaled(-1)).l2_norm() <= 1e-10 * denom


def test_left_derivative_passes_through_convolution():
    spec = GridSpec(AB2, 32, 1.0)
    K = GridKernel(spec, _bump(spec, (0.0, 0.05), 0.18).values)
    L = GridKernel(spec, _bump(spec, (-0.05, 0.0), 0.18).values)
    g = _bump(spec, (0.08, -0.06), 0.15)
    alpha = MultiIndex.make(AB2, ((1,), (1,)))
    KL = compose_kernels(K, L, spec)
    lhs = convolve(left_derivative(KL.data, alpha), g)
    XL = GridKernel(spec, left_derivative(L.data, alpha).values)
    rhs = apply_op(K, apply_op(XL, g))
    denom = max(rhs.l2_norm(), 1e-300)
    assert lhs.plus(rhs.scaled(-1)).l2_norm() <= 1e-5 * denom


def test_left_derivative_abelian_is_partial():
    spec = GridSpec(AB2, 64, 1.0)
    mesh = spec.mesh
    f = GridFunction(spec, np.sin(2.0 * mesh[..., 0]) * np.exp(-mesh[..., 1] ** 2))
    alpha = MultiIndex.make(AB2, ((1,), (0,)))
    got = left_derivative(f, alpha)
    want = 2.0 * np.cos(2.0 * mesh[..., 0]) * np.exp(-mesh[..., 1] ** 2)
    core = (slice(4, -4),) * 2
    assert np.abs(got.values - want)[core].max() <= 5e-3


def test_boundary_mass_fraction():
    spec = GridSpec(AB2, 16, 1.0)
    assert boundary_mass_fraction(spec.delta()) == 0.0
    ones = GridFunction(spec, np.ones(spec.shape))
    assert boundary_mass_fraction(ones) > 0.3


@given(st.integers(0, 2 ** 31 - 1))
def test_apply_op_linear(seed):
    spec = GridSpec(AB1, 16, 1.0)
    rng = np.random.default_rng(seed)
    K = GridKernel(spec, zero_lowest_face(rng.normal(size=spec.shape)))
    f = GridFunction(spec, rng.normal(size=spec.shape) + 1j * rng.normal(size=spec.shape))
    g = GridFunction(spec, rng.normal(size=spec.shape))
    a, b = complex(rng.normal(), rng.normal()), complex(rng.normal())
    lhs = apply_op(K, f.scaled(a).plus(g.scaled(b)))
    rhs = apply_op(K, f).scaled(a).plus(apply_op(K, g).scaled(b))
    scale = max(rhs.max_abs(), 1e-12)
    assert np.abs(lhs.values - rhs.values).max() <= 1e-10 * scale


def test_dense_matrix_oracle_agrees_with_toeplitz():
    spec = GridSpec(AB1, 32, 1.0)
    rng = np.random.default_rng(19)
    K = GridKernel(spec, zero_lowest_face(rng.normal(size=spec.shape)))

    def act(x):
        return apply_op(K, GridFunction(spec, x.reshape(spec.shape))).values.reshape(-1)

    M1 = dense_matrix(act, spec.size)
    M2 = toeplitz_convolution_matrix(K.values, spec.spacings[0])
    assert np.abs(M1 - M2).max() <= 1e-12 * np.abs(M2).max()


def _few_sites(spec):
    # a few sites: the direct path then loops over the input, not the kernel
    vals = np.zeros(spec.shape, dtype=complex)
    vals.reshape(-1)[[5, spec.size // 2, spec.size - 7]] = [1.0, -2.0j, 0.5 + 1.0j]
    return vals


def _random_kernel(spec, seed):
    rng = np.random.default_rng(seed)
    vals = rng.normal(size=spec.shape) + 1j * rng.normal(size=spec.shape)
    return GridKernel(spec, zero_lowest_face(vals))


def _real_kernel(spec, seed):
    return GridKernel(spec, np.random.default_rng(seed).normal(size=spec.shape))


def _convop_case(name):
    if name == "delta":
        return DeltaKernel(AB2, 2.0 - 1.0j), GridSpec(AB2, 6, 1.0)
    if name == "abelian2":
        spec = GridSpec(AB2, 6, 1.0)
        return _random_kernel(spec, 30), spec
    if name == "heisenberg1":
        spec = GridSpec(HEIS, 4, 1.0)
        return _random_kernel(spec, 31), spec
    if name == "tensor-filiform3-delta":
        spec = GridSpec(F3X, 4, 1.0)
        return TensorKernel([_random_kernel(spec.factor_specs[0], 34),
                             DeltaKernel(AB1, 0.5 + 1.0j)]), spec
    spec = GridSpec(HX, 4, 1.0)
    sub_h = GridSpec(HEIS, 4, 1.0)
    sub_a = GridSpec(AB1, 4, 1.0)
    if name == "tensor-heis-delta":
        parts = [_random_kernel(sub_h, 32), DeltaKernel(AB1, -0.5 + 2.0j)]
    elif name == "tensor-real-heis-delta":  # the factor block sums by its matrices
        parts = [_real_kernel(sub_h, 36), DeltaKernel(AB1, -0.5 + 2.0j)]
    else:
        parts = [DeltaKernel(HEIS, 1.5j), _random_kernel(sub_a, 33)]
    return TensorKernel(parts), spec


CONVOP_CASES = ("delta", "abelian2", "heisenberg1", "tensor-heis-delta",
                "tensor-real-heis-delta", "tensor-delta-ab", "tensor-filiform3-delta")


@pytest.mark.parametrize("name", CONVOP_CASES)
def test_convop_matches_dense_oracle(name):
    K, spec = _convop_case(name)
    op = prepare(K, spec)
    M = convolution_matrix(spec.group, K.render(spec).values.reshape(-1),
                           spec.mesh.reshape(-1, spec.q_total), spec.volume)
    g = _random_field(spec, 35).values.reshape(-1)
    for f in (_random_field(spec, 34).values, _few_sites(spec)):
        want = M @ f.reshape(-1)
        got = op.apply(f).reshape(-1)
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
        want_adj = M.conj().T @ f.reshape(-1)
        got_adj = op.adjoint(f).reshape(-1)
        assert np.abs(got_adj - want_adj).max() <= 1e-12 * np.abs(want_adj).max()
        # <A f, g> = <f, A* g>
        lhs = np.vdot(g, got)
        rhs = np.vdot(op.adjoint(g.reshape(spec.shape)).reshape(-1), f.reshape(-1))
        assert abs(lhs - rhs) <= 1e-12 * np.linalg.norm(got) * np.linalg.norm(g)


BOXED_BATCH_CASES = ("tensor-real-ab-N512", "abelian1-N64")


@pytest.mark.parametrize("name", [*CONVOP_CASES, *BOXED_BATCH_CASES])
def test_convop_batch_equals_single_applies(name):
    # box matrices on both axes at the rule's largest N, and on a 1-D grid,
    # where one GEMM for the whole batch would change a row's bits
    if name == "tensor-real-ab-N512":
        spec = GridSpec(AB2, 512, 1.0)
        K = TensorKernel([_real_kernel(sub, 42 + mu) for mu, sub in enumerate(spec.factor_specs)])
    elif name == "abelian1-N64":
        spec = GridSpec(AB1, 64, 1.0)
        K = _real_kernel(spec, 45)
    else:
        K, spec = _convop_case(name)
    op = prepare(K, spec)
    assert name not in BOXED_BATCH_CASES or all(b.boxed for b in op.blocks)
    # a one-hot and a zero row sum over their own sites in any batch
    stack = np.stack([_random_field(spec, 40).values, _few_sites(spec),
                      _random_field(spec, 41).values, _one_hot(spec, spec.size // 3),
                      np.zeros(spec.shape)])
    for method in (op.apply, op.adjoint, op.normal):
        out = method(stack)
        assert out.shape == stack.shape
        for i in range(len(stack)):
            assert np.array_equal(out[i], method(stack[i]))
    assert prepare(op, spec) is op
    with pytest.raises(ValueError, match="grid"):
        op.apply(np.zeros((spec.N + 1,) * spec.q_total))


class _SkewedKernel(GridKernel):
    """A grid kernel whose adjoint is one rounding step off the conjugate reverse."""

    def adjoint(self):
        return GridKernel(self.spec, super().adjoint().values * (1 + np.finfo(float).eps))


ADJOINT_CASES = ("tensor-real-heis-delta", "tensor-hilbert", "tensor-complex-ab", "skewed")


def _adjoint_case(name):
    if name == "tensor-real-heis-delta":
        return _convop_case(name)
    spec = GridSpec(AB2, 8, 1.0)
    if name == "tensor-hilbert":
        return TensorKernel([DiscreteHilbertKernel(AB1)] * 2), spec
    if name == "tensor-complex-ab":
        return TensorKernel([_random_kernel(sub, 46 + mu)
                             for mu, sub in enumerate(spec.factor_specs)]), spec
    sub = spec.factor_specs[0]
    return TensorKernel([_SkewedKernel(sub, _real_kernel(sub, 48).values),
                         DeltaKernel(AB1, 2.0)]), spec


@pytest.mark.parametrize("name", ADJOINT_CASES)
def test_tensor_adjoint_reads_the_factor_blocks(name):
    # Op(K~) of a tensor kernel reads each factor's set (per-frequency or box
    # matrices) of Op(K), so the pair holds one set per factor, also for a
    # part whose rendered adjoint is one rounding step off K's conjugate
    # reverse (skewed); Op(K~) applies a fresh Op(K~)'s bits, or within 1e-15
    K, spec = _adjoint_case(name)
    op = prepare(K, spec)
    rows = np.stack([_random_field(spec, 44).values, _few_sites(spec),
                     _one_hot(spec, spec.size // 3), np.zeros(spec.shape)])
    op.normal(rows)
    pairs = [(b, a) for b, a in zip(op.blocks, op.adjoint_op.blocks)
             if not isinstance(b, complex)]
    assert pairs
    for block, adj in pairs:
        assert adj.mirror is block
        if isinstance(block, _Sheared):
            assert "matrices" in block.__dict__
            assert "matrices" not in adj.__dict__ and "pairs" not in adj.__dict__
        else:
            assert adj.matrix.base is block.matrix
    # the adjoint of Op(K~) is Op(K) again, block for block
    twice = op.adjoint_op.adjoint_op
    assert all(t is b for t, b in zip(twice.blocks, op.blocks) if not isinstance(b, complex))
    assert np.array_equal(twice.apply(rows), op.apply(rows))
    got, want = op.adjoint(rows), prepare(adjoint_kernel(K), spec).apply(rows)
    for g, w in zip(got, want):
        assert np.abs(g - w).max() <= 1e-15 * np.abs(w).max(initial=0.0)
        assert np.array_equal(g == 0, w == 0)


def _refuse(*args, **kwargs):
    raise AssertionError("a kernel part was rendered or adjoined")


# relative error, per row, of a normal against Op(K~) Op(K) where their
# rounding differs (a tensor op's normal applies factor by factor, a boxed
# factor its Gram matrix): at most 2.4e-15 measured, at N = 512 over 7 seeds
NORMAL_RTOL = 4e-15


@pytest.mark.parametrize("name", ["heisenberg1", "tensor-hilbert", "tensor-heis-delta"])
def test_adjoint_op_renders_no_part(name, monkeypatch):
    # once Op(K) is prepared, Op(K~) is built from its blocks: building and
    # applying it renders no part of K and takes no part's adjoint; a
    # single block's normal is Op(K~) Op(K) bit for bit
    K, spec = _adjoint_case(name) if name == "tensor-hilbert" else _convop_case(name)
    op = prepare(K, spec)
    rows = np.stack([_random_field(spec, 95).values, _few_sites(spec)])
    with monkeypatch.context() as m:
        for cls in {type(K), *map(type, getattr(K, "parts", ()))}:
            m.setattr(cls, "render", _refuse)
            m.setattr(cls, "adjoint", _refuse)
        got, normal = op.adjoint(rows), op.normal(rows)
    want = prepare(adjoint_kernel(K), spec).apply(rows)
    assert np.abs(got - want).max() <= 1e-15 * np.abs(want).max()
    want = op.adjoint(op.apply(rows))
    if len(op.blocks) == 1:
        assert np.array_equal(normal, want)
    for g, w in zip(normal, want):
        assert np.abs(g - w).max() <= NORMAL_RTOL * np.abs(w).max()


def test_prepared_abelian_apply_runs_one_fft_each_way(monkeypatch):
    # one forward transform; the inverse runs one pass per axis, last axis
    # first, each axis cut from N + N//2 = 24 to its 16 kept cells after its pass
    spec = GridSpec(AB2, 16, 1.0)
    op = prepare(_random_kernel(spec, 36), spec)
    f = _random_field(spec, 37).values
    calls = []
    for name in ("fftn", "ifftn"):
        def counted(*args, _fn=getattr(np.fft, name), _name=name, **kwargs):
            out = _fn(*args, **kwargs)
            calls.append((_name, kwargs["axes"], out.shape))
            return out

        monkeypatch.setattr(np.fft, name, counted)
    op.apply(f)
    assert calls == [("fftn", (1, 2), (1, 24, 24)), ("ifftn", (2,), (1, 24, 24)),
                     ("ifftn", (1,), (1, 24, 16))]
    assert Counter(name for name, _, _ in calls) == {"fftn": 1, "ifftn": spec.q_total}


# the smallest grid, even and odd N: the N + N//2 pad is tight on both
# inequalities of the kept window at odd N
PAD_NS = (4, 5, 8, 17)


@pytest.mark.parametrize("N", PAD_NS)
def test_spectrum_window_matches_direct_site_sums(N):
    spec = GridSpec(AB2, N, 1.0)
    f, g = _random_field(spec, 100 + N), _random_field(spec, 200 + N)
    got = convolve(f, g, path="fast").values
    want = convolve(f, g, path="direct").values
    assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


@pytest.mark.parametrize("N", PAD_NS)
def test_tensor_factor_spectrum_matches_toeplitz_product(N):
    spec = GridSpec(AB2, N, 1.0)
    parts = [_random_kernel(sub, 300 + N + mu) for mu, sub in enumerate(spec.factor_specs)]
    f = _random_field(spec, 400 + N).values
    got = prepare(TensorKernel(parts), spec).apply(f)
    T0, T1 = (toeplitz_convolution_matrix(p.values, h) for p, h in zip(parts, spec.spacings))
    want = T0 @ f @ T1.T
    assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


# both sides of the box-matrix rule: 2 MiB holds N = 512 real and N = 362
# complex values, not 513 and 363
BOX_CASES = ([(N, kind) for N in PAD_NS for kind in ("real", "complex")]
             + [(512, "real"), (513, "real"), (362, "complex"), (363, "complex")])


@pytest.mark.parametrize("N,kind", BOX_CASES)
def test_one_axis_box_matrix_matches_toeplitz_oracle(N, kind, monkeypatch):
    # whole-grid abelian1 and tensor factors on axis 0 and 1 of abelian2: a
    # block under the rule applies its box matrix to every row, dense or
    # sparse, with no FFT and the oracle's exact zeros, within 1e-15; one above
    # it keeps the FFT and the FFT's bound elsewhere here, 1e-13
    boxed = N ** 2 * (8 if kind == "real" else 16) <= convolution.BOX_MATRIX_BYTES
    assert boxed == (N not in (513, 363))
    rng = np.random.default_rng(N)
    sub = GridSpec(AB1, N, 0.5)
    k = rng.normal(size=N) + (1j * rng.normal(size=N) if kind == "complex" else 0)
    k[rng.permutation(N)[:N // 4]] = 0.0  # exact zeros inside the kernel's support
    part = GridKernel(sub, k)
    T = toeplitz_convolution_matrix(part.values, sub.spacings[0])
    calls = []
    fftn = np.fft.fftn
    monkeypatch.setattr(np.fft, "fftn", lambda *a, **kw: calls.append(1) or fftn(*a, **kw))
    spec2 = GridSpec(AB2, N, 0.5)
    layouts = [(sub, part, lambda f: T @ f),
               (spec2, TensorKernel([part, DeltaKernel(AB1)]), lambda f: T @ f),
               (spec2, TensorKernel([DeltaKernel(AB1), part]), lambda f: f @ T.T)]
    for spec, K, oracle in layouts:
        op = prepare(K, spec)
        assert [b.boxed for b in op.blocks if not isinstance(b, complex)] == [boxed]
        rows = [_random_field(spec, N).values, _one_hot(spec, spec.size // 3),
                _one_hot(spec, spec.size - 1), _few_sites(spec) if spec.size > 12 else
                _one_hot(spec, 0), np.zeros(spec.shape)]
        calls.clear()
        got = op.apply(np.stack(rows))
        assert calls == ([] if boxed else [1])
        for f, out in zip(rows, got):
            want = oracle(f)
            rtol = 1e-15 if boxed else 1e-13
            assert np.abs(out - want).max() <= rtol * np.abs(want).max(initial=0.0)
            if boxed or np.count_nonzero(f) < 2:
                assert np.array_equal(out == 0, want == 0)
        if spec is sub and N in PAD_NS:
            coords = sub.mesh.reshape(-1, 1)
            want = loop_group_convolution(AB1, part.values, rows[0], coords, sub.volume)
            assert np.abs(got[0] - want).max() <= 1e-15 * np.abs(want).max()


# the box-matrix rule's largest N, real and complex, and the grids of PAD_NS
GRAM_CASES = ([(N, kind) for N in PAD_NS for kind in ("real", "complex")]
              + [(512, "real"), (362, "complex")])


@pytest.mark.parametrize("N,kind", GRAM_CASES)
def test_tensor_normal_applies_factor_gram_matrices(N, kind):
    # a boxed factor on two axes applies G = A^H A in one GEMM per input, A
    # its box matrix T or, on Op(K~)'s mirror, T^H; G is built once and is
    # real for a real T, and a row's bits do not depend on its batch
    spec = GridSpec(AB2, N, 0.5)
    rng = np.random.default_rng(N)
    parts = []
    for sub in spec.factor_specs:
        k = rng.normal(size=N) + (1j * rng.normal(size=N) if kind == "complex" else 0)
        k[rng.permutation(N)[:N // 4]] = 0.0
        parts.append(GridKernel(sub, k))
    op = prepare(TensorKernel(parts), spec)
    rows = np.stack([_random_field(spec, N).values, _one_hot(spec, spec.size // 3),
                     _few_sites(spec) if spec.size > 12 else _one_hot(spec, 0),
                     np.zeros(spec.shape)])
    T = [toeplitz_convolution_matrix(p.values, h) for p, h in zip(parts, spec.spacings)]
    for o, A in ((op, T), (op.adjoint_op, [t.conj().T for t in T])):
        got = o.normal(rows)
        assert all(b.boxed and "gram" in b.__dict__ for b in o.blocks)
        assert all((b.gram.dtype == float) == (kind == "real") for b in o.blocks)
        grams = [b.gram for b in o.blocks]
        want = o.adjoint(o.apply(rows))
        for i, (g, w) in enumerate(zip(got, want)):
            assert np.abs(g - w).max() <= NORMAL_RTOL * np.abs(w).max(initial=0.0)
            assert np.array_equal(g, o.normal(rows[i]))
        if N in PAD_NS:
            G0, G1 = (a.conj().T @ a for a in A)
            for f, g in zip(rows, got):
                w = G0 @ f @ G1.T
                assert np.abs(g - w).max() <= NORMAL_RTOL * np.abs(w).max(initial=0.0)
        assert all(b.gram is G for b, G in zip(o.blocks, grams))


@pytest.mark.parametrize("kind", ["real", "complex"])
def test_one_axis_grid_normal_builds_no_gram(kind):
    # a 1-D input is one line, which never repays G's N^3: an abelian1
    # block's normal stays two GEMMs, Op(K~) Op(K) bit for bit
    spec = GridSpec(AB1, 64, 1.0)
    K = _real_kernel(spec, 45) if kind == "real" else _random_kernel(spec, 45)
    op = prepare(K, spec)
    rows = np.stack([_random_field(spec, 46).values, _one_hot(spec, 9)])
    for o in (op, op.adjoint_op):
        assert np.array_equal(o.normal(rows), o.adjoint(o.apply(rows)))
        assert o.blocks[0].boxed and "gram" not in o.blocks[0].__dict__


@pytest.mark.parametrize("N", (4, 5, 17))
def test_sheared_plain_axis_window_matches_loop_sums(N):
    # h1 x a1 has one plain axis (3); a dense row takes the kernel's side
    spec = GridSpec(HX, N, 1.0)
    assert spec.shear[0] == [3]
    k, f = _random_kernel(spec, 500 + N).values, _random_field(spec, 600 + N).values
    block = _Sheared(spec, spec, (0, 1, 2, 3), k)
    assert spec.size >= block.shift_work
    got = block.apply(f[None])[0].reshape(-1)
    # both edges of the plain axis's window, where an aliased term would land
    if N < 8:
        cells = [(a, b, c, d) for a in range(N) for b in range(N) for c in range(N)
                 for d in (0, N - 1)]
    else:
        cells = [(0, N - 1, 1, 0), (N - 1, 0, N - 2, N - 1), (3, 11, 0, N - 1),
                 (N // 2, N // 2, N - 1, 0)]
    coords = spec.mesh.reshape(-1, 4)
    for cell in cells:
        site = int(np.ravel_multi_index(cell, spec.shape))
        want, scale = site_convolution(HX, k.reshape(-1), f.reshape(-1), coords,
                                       spec.volume, site)
        assert abs(got[site] - want) <= 1e-13 * scale


def _sparse_case(name, N):
    """(grid, kernel, site lists of the inputs, block axes) of a side-rule case."""
    if name == "abelian1":
        spec = GridSpec(AB1, N, 1.0)
        cells = [[], [(2,)], [(2,), (N - 1,)], [(0,), (3,), (N - 2,)]]
        return spec, _random_kernel(spec, 700 + N), cells, (0,)
    spec = GridSpec(AB2, N, 1.0)
    if name == "abelian2":
        cells = [[], [(2, 5)], [(0, N - 1), (N - 1, 0)], [(1, 1), (4, 6), (N - 1, N - 2)]]
        return spec, _random_kernel(spec, 710 + N), cells, (0, 1)
    # a factor block along axis 0, one row per line; the delta factor keeps
    # the lines' sites where they are
    K = TensorKernel([_random_kernel(spec.factor_specs[0], 720 + N), DeltaKernel(AB1, 0.5 - 1j)])
    cells = [[], [(2, 5)], [(0, 1), (N - 1, 6)], [(1, 3), (5, 3)], [(1, 1), (4, 1), (N - 1, 1)]]
    return spec, K, cells, (0,)


@pytest.mark.parametrize("N", (8, 9))
@pytest.mark.parametrize("name", ("abelian1", "abelian2", "tensor-factor"))
def test_spectrum_sparse_rows_match_loop_oracle(name, N, monkeypatch):
    # the side rule: a row with fewer sites than (N + N//2)^d / N^d (1.5 and
    # 2.25 at N=8, 1.44 and 2.09 at N=9) sums over its own sites with no FFT,
    # exactly; rows with more take the FFT.  A one-axis block applies its box
    # matrix to every row and runs no FFT; the sparse rows keep the same bounds
    spec, K, site_lists, axes = _sparse_case(name, N)
    op = prepare(K, spec)
    coords = spec.mesh.reshape(-1, spec.q_total)
    kvals = K.render(spec).values.reshape(-1)
    bound = (_plain_pad(N) / N) ** len(axes)
    calls, gathered = [], []
    fftn = np.fft.fftn
    monkeypatch.setattr(np.fft, "fftn", lambda *a, **kw: calls.append(1) or fftn(*a, **kw))
    for sites in site_lists:
        f = np.zeros(spec.shape, dtype=complex)
        for k, cell in enumerate(sites):
            f[cell] = (1.0 - 0.5j) * (k + 1)
        calls.clear()
        got = op.apply(f).reshape(-1)
        want = loop_group_convolution(spec.group, kvals, f.reshape(-1), coords, spec.volume)
        per_row = np.count_nonzero(np.moveaxis(f, axes, range(len(axes))).reshape(
            N ** len(axes), -1), axis=0)
        gathered.append(bool(per_row.max() < bound))
        if gathered[-1]:
            assert calls == []
            assert np.abs(got - want).max() <= 1e-15 * np.abs(want).max(initial=0.0)
            assert np.array_equal(got == 0, want == 0)
        else:
            assert calls == ([] if len(axes) == 1 else [1])
            assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()
    assert gathered == {"abelian1": [True, True, False, False],
                        "abelian2": [True, True, True, False],
                        "tensor-factor": [True, True, True, False, False]}[name]


def test_abelian_direct_convolve_runs_no_fft(monkeypatch):
    # the direct sum is the oracle of the FFT path: every row sums over its sites
    spec = GridSpec(AB2, 16, 1.0)
    f, g = _random_field(spec, 38), _random_field(spec, 39)
    counts = Counter()
    for name in ("fft", "ifft", "fftn", "ifftn", "rfftn", "irfftn"):
        def counted(*args, _fn=getattr(np.fft, name), _name=name, **kwargs):
            counts[_name] += 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(np.fft, name, counted)
    convolve(f, g, path="direct")
    assert not counts


def test_power_method_stop_rules():
    spec = GridSpec(AB1, 16, 1.0)

    def diagonal(top, second):
        # a diagonal normal operator with its two largest entries set
        d = np.linspace(0.1, 0.4, spec.N)
        d[3], d[7] = top, second
        return d

    def run(d, spec, max_iter, seed):
        calls = []
        est = power_method(lambda v: calls.append(1) or d * v, spec, max_iter=max_iter,
                           tol=1e-12, seed=seed)
        assert len(calls) == est.iterations  # one apply per step
        return est

    runs = [run(d, spec, 40, seed)
            for d, seed in zip([diagonal(2.0, 0.5), diagonal(0.8, 0.5), diagonal(1.0, 0.999),
                                np.zeros(spec.N)], [11, 12, 13, 14])]
    # the zero operator stops at once; Lanczos settles on the top of every
    # spectrum within the 16 steps that span the space, a near-tie included
    assert runs[3].iterations == 1 and runs[3].converged
    assert runs[3].value == 0.0 and runs[3].residual == 0.0
    for est, top in zip(runs, [2.0, 0.8, 1.0]):
        assert est.converged and est.iterations <= spec.N
        assert est.value == pytest.approx(np.sqrt(top), rel=1e-12)
    # with more sites than steps an evenly spread spectrum does not settle
    # in 8; the Ritz value stays below the top
    big = GridSpec(AB1, 64, 1.0)
    capped = run(np.linspace(0.1, 1.0, big.N), big, 8, 15)
    assert capped.iterations == 8 and not capped.converged
    assert np.sqrt(0.9) < capped.value < 1.0 and capped.residual > 1e-3
    with pytest.raises(ValueError, match="max_iter"):
        power_method(lambda v: v, spec, max_iter=7)


def test_orth_matches_conjugated_basis_product_bit_for_bit():
    # _orth forms Q^H x as conj(Q conj(x)); the two passes must give the
    # bits of the Q.conj() @ x form they replace
    rng = np.random.default_rng(21)
    n, k = 500, 30
    Q = np.linalg.qr(rng.normal(size=(n, k)) + 1j * rng.normal(size=(n, k)))[0].T.copy()
    x = rng.normal(size=n) + 1j * rng.normal(size=n)
    want = x
    for _ in range(2):
        want = want - Q.T @ (Q.conj() @ want)
    got = _orth(x, Q)
    assert np.array_equal(got, want)
    assert np.abs(Q.conj() @ got).max() <= 1e-13 * np.linalg.norm(x)


@pytest.mark.parametrize("group, alpha", [
    (AB2, ((1,), (2,))),
    (HEIS, ((1, 1, 1),)),
])
def test_left_derivative_stack_equals_single_calls(group, alpha):
    spec = GridSpec(group, 6, 1.0)
    alpha = MultiIndex.make(group, alpha)
    stack = np.stack([_random_field(spec, 60 + i).values for i in range(3)])
    for fn in (left_derivative, left_derivative_adjoint):
        out = fn(stack, alpha, spec)
        assert out.shape == stack.shape
        for i in range(3):
            assert np.array_equal(out[i], fn(GridFunction(spec, stack[i]), alpha).values)


@pytest.mark.parametrize("group, mu", [(HX, 0), (ProductGroup([abelian(1), heisenberg1()]), 1)],
                         ids=["heisenberg1xabelian1", "abelian1xheisenberg1"])
def test_left_fields_of_a_heisenberg_factor(group, mu):
    """X_1 = d_1 - (x_2 / 2) d_3 and X_2 = d_2 + (x_1 / 2) d_3 on the
    heisenberg factor, wherever it sits in the product."""
    spec = GridSpec(group, 8, 1.0)
    f = _random_field(spec, 70).values
    a = group.slices[mu].start
    x, d = spec.mesh, [np.gradient(f, spec.spacings[a + k], axis=a + k) for k in range(3)]
    for k, want in ((0, d[0] - 0.5 * x[..., a + 1] * d[2]),
                    (1, d[1] + 0.5 * x[..., a] * d[2])):
        entries = [(0,) * q for q in group.q]
        entries[mu] = tuple(int(j == k) for j in range(3))
        got = left_derivative(GridFunction(spec, f), MultiIndex.make(group, entries)).values
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


# --- the direct sum of non-abelian groups: shifts sheared along the centre ---

# step-2 groups as a group JSON file holds them: structure constants and
# lattice denominators other than heisenberg1's
STEP2_JSON = {
    "bracket-3": {"n_layers": 2, "layer_dims": [2, 1],
                  "structure_constants": [[0, 1, 2, 3.0]]},
    "bracket-2/3": {"n_layers": 2, "layer_dims": [2, 1],
                    "structure_constants": [[0, 1, 2, 2.0 / 3.0]]},
    "heisenberg5": {"n_layers": 2, "layer_dims": [4, 1],
                    "structure_constants": [[0, 1, 4, 1.0], [2, 3, 4, 1.0]]},
    "center-2": {"n_layers": 2, "layer_dims": [3, 2],
                 "structure_constants": [[0, 1, 3, 1.0], [0, 2, 4, 2.0]]},
}


def _direct_case(name):
    """(grid, the block's own grid, the block's axes) of one direct-sum case."""
    if name == "heisenberg1-N12":
        spec = GridSpec(HEIS, 12, 1.0)
        return spec, spec, (0, 1, 2)
    if name == "heisenberg1xabelian1":
        spec = GridSpec(HX, 6, 1.0)
        return spec, spec, (0, 1, 2, 3)
    if name == "tensor-factor":
        spec = GridSpec(HX, 6, 1.0)
        return spec, spec.factor_specs[0], (0, 1, 2)
    if name == "filiform3":
        spec = GridSpec(ProductGroup([FILIFORM3]), 6, 1.0)
        return spec, spec, (0, 1, 2, 3)
    if name == "filiform4":
        spec = GridSpec(ProductGroup([FILIFORM4]), 4, 1.0)
        return spec, spec, (0, 1, 2, 3, 4)
    if name == "filiform3xabelian1":
        spec = GridSpec(F3X, 4, 1.0)
        return spec, spec, (0, 1, 2, 3, 4)
    if name == "filiform3-factor":
        spec = GridSpec(F3X, 4, 1.0)
        return spec, spec.factor_specs[0], (0, 1, 2, 3)
    group = ProductGroup.from_dict(STEP2_JSON[name])
    spec = GridSpec(group, 4 if group.q_total > 3 else 6, 1.0)
    return spec, spec, tuple(range(spec.q_total))


STEP2_CASES = ("heisenberg1-N12", "heisenberg1xabelian1", "tensor-factor", *STEP2_JSON)
HIGHER_STEP_CASES = ("filiform3", "filiform4", "filiform3xabelian1", "filiform3-factor")


def _one_hot(spec, site):
    vals = np.zeros(spec.shape, dtype=complex)
    vals.reshape(-1)[site] = 1.0 - 0.5j
    return vals


def _oracle_apply(spec, sub, axes, kvals, rows):
    """The dense oracle of sub's group applied along the block's axes of rows."""
    M = convolution_matrix(sub.group, kvals.reshape(-1), sub.mesh.reshape(-1, sub.q_total),
                           sub.volume)
    front = tuple(range(1, 1 + len(axes)))
    moved = np.moveaxis(rows, [1 + a for a in axes], front)
    out = np.einsum("xy,ry...->rx...", M, moved.reshape(len(rows), sub.size, -1))
    return np.moveaxis(out.reshape(moved.shape), front, [1 + a for a in axes])


def _assert_rows_match_oracle(name):
    spec, sub, axes = _direct_case(name)
    kvals = _random_kernel(sub, 70).values
    # a dense row loops over the kernel, the sparse ones over their own sites
    rows = np.stack([_random_field(spec, 71).values, _one_hot(spec, spec.size // 3),
                     _few_sites(spec), np.zeros(spec.shape)])
    got = _Sheared(spec, sub, axes, kvals).apply(rows)
    want = _oracle_apply(spec, sub, axes, kvals, rows)
    for g, w in zip(got, want):
        assert np.abs(g - w).max() <= 1e-13 * np.abs(w).max()
    # the gathers of sparse rows keep the oracle's exact zeros
    assert np.array_equal(got[1:] == 0, want[1:] == 0)


def test_grid_shear_reads_the_lattice_law():
    assert GridSpec(HEIS, 6, 1.0).shear == ([], [0, 1], [2])
    assert GridSpec(HX, 6, 1.0).shear == ([3], [0, 1], [2])
    assert GridSpec(ProductGroup([FILIFORM3]), 6, 1.0).shear == ([], [0, 1, 2], [3])
    assert GridSpec(ProductGroup([FILIFORM4]), 6, 1.0).shear == ([], [0, 1, 2, 3], [4])
    assert GridSpec(AB2, 6, 1.0).shear == ([0, 1], [], [])
    # the group law in lattice units: e1 e2 = e1 + e2 + b e3
    e1, e2 = np.array([1, 0]), np.array([0, 1])
    for name, b in (("bracket-3", 3), ("bracket-2/3", 1)):
        spec = GridSpec(ProductGroup.from_dict(STEP2_JSON[name]), 6, 1.0)
        block = _Sheared(spec, spec, (0, 1, 2), np.ones(spec.shape))
        assert block._product(e1, e2).tolist() == [1, 1, b]
        assert block._product(e2, e1).tolist() == [1, 1, -b]


@pytest.mark.parametrize("N", [4, 6, 8])
def test_sheared_matches_dense_oracle(N):
    spec = GridSpec(HEIS, N, 1.0)
    rng = np.random.default_rng(90 + N)
    k = rng.normal(size=spec.shape) + 1j * rng.normal(size=spec.shape)
    M = convolution_matrix(HEIS, k.reshape(-1), spec.mesh.reshape(-1, 3), spec.volume)
    for f in (_random_field(spec, 91).values, _few_sites(spec), _one_hot(spec, 7)):
        got = convolve(GridFunction(spec, k), GridFunction(spec, f), path="direct")
        want = M @ f.reshape(-1)
        assert np.abs(got.values.reshape(-1) - want).max() <= 1e-13 * np.abs(want).max()


@pytest.mark.parametrize("name", STEP2_CASES)
def test_sheared_matches_table_sum(name):
    _assert_rows_match_oracle(name)


@pytest.mark.parametrize("name", HIGHER_STEP_CASES)
def test_higher_step_matches_dense_oracle(name):
    _assert_rows_match_oracle(name)


@pytest.mark.parametrize("name", ["heisenberg1xabelian1", "tensor-factor",
                                  *HIGHER_STEP_CASES])
def test_sheared_rows_do_not_depend_on_their_batch(name, monkeypatch):
    spec, sub, axes = _direct_case(name)
    kvals = _random_kernel(sub, 72).values
    block = _Sheared(spec, sub, axes, kvals)
    cluster = np.zeros(spec.size, dtype=complex)
    cluster[[7, 8, 9, 20]] = [1.0, -0.5j, 2.0, 0.25 + 1.0j]  # sites sharing loop points
    stack = np.stack([_random_field(spec, 73).values, _one_hot(spec, 11),
                      _random_field(spec, 74).values, _few_sites(spec),
                      cluster.reshape(spec.shape)])
    batched = block.apply(stack)
    for i in range(len(stack)):
        assert np.array_equal(batched[i], block.apply(stack[i]))
    monkeypatch.setattr(convolution, "SHEAR_CHUNK", 1)  # one site or shift per chunk
    assert np.array_equal(block.apply(stack), batched)
    assert np.array_equal(_Sheared(spec, sub, axes, kvals).apply(stack), batched)


def test_site_offsets_memo_stops_at_its_budget(monkeypatch):
    # one site at each loop-grid point reads every point's offsets; a block
    # whose memo budget holds about two of them stores no more and computes
    # the rest on demand, with the same bits, in a first and a second apply
    spec = GridSpec(HEIS, 6, 1.0)
    kvals = _random_kernel(spec, 75).values
    block, small = (_Sheared(spec, spec, (0, 1, 2), kvals) for _ in range(2))
    rows = np.zeros((block.H,) + spec.shape, dtype=complex)
    for h in range(block.H):
        rows[(h, *divmod(h, spec.N), h % spec.N)] = 1.0 - 0.5j * h
    want = block.apply(rows)
    assert len(block.offsets) == block.H
    budget = 2 * sum(a.size for a in block.offsets[0])
    monkeypatch.setattr(convolution, "SHEAR_CHUNK", budget)
    for _ in range(2):
        assert np.array_equal(small.apply(rows), want)
        assert 0 < len(small.offsets) < block.H
        last = sum(a.size for a in list(small.offsets.values())[-1])
        assert small.offset_values - last < budget


# odd grids: the lowest face pairs with the top face under negation
ODD_GRIDS = {f"{name}-N{N}": GridSpec(group, N, 1.0)
             for name, group in (("abelian2", AB2), ("heisenberg1", HEIS),
                                 ("filiform3", ProductGroup([FILIFORM3])))
             for N in (5, 7)}


@pytest.mark.parametrize("name", ["heisenberg1xabelian1", *STEP2_JSON, "filiform3",
                                  "filiform4", "filiform3xabelian1", *ODD_GRIDS, "skewed"])
def test_sheared_adjoint_pairing(name):
    # skewed: a tensor part whose rendered adjoint is one rounding step off
    # its conjugate reverse; Op(K~) is still the adjoint of Op(K)
    if name == "skewed":
        K, spec = _adjoint_case(name)
    else:
        spec = ODD_GRIDS[name] if name in ODD_GRIDS else _direct_case(name)[0]
        K = _random_kernel(spec, 75)
    op = prepare(K, spec)
    f, g = _random_field(spec, 76).values, _random_field(spec, 77).values
    Kf = op.apply(f)
    lhs, rhs = np.vdot(g, Kf), np.vdot(op.adjoint(g), f)
    assert abs(lhs - rhs) <= 1e-13 * np.linalg.norm(Kf) * np.linalg.norm(g)


def test_sheared_budget_counts_shifts_times_sites(monkeypatch):
    spec = GridSpec(HEIS, 6, 1.0)
    f, g = _random_field(spec, 78), _random_field(spec, 79)
    pairs = spec.N ** 2 * spec.size  # every horizontal shift, every site
    monkeypatch.setattr(convolution, "PAIR_BUDGET", pairs)
    convolve(f, g, path="direct")
    monkeypatch.setattr(convolution, "PAIR_BUDGET", pairs - 1)
    with pytest.raises(ValueError, match=f"needs {pairs} point pairs; budget {pairs - 1}$"):
        convolve(f, g, path="direct")


def test_cached_block_obeys_a_lowered_pair_budget(monkeypatch):
    # a held op builds its whole-grid block once, so the budget must be read
    # when a row is summed, not when the block is built
    spec = GridSpec(HEIS, 6, 1.0)
    op = prepare(_random_kernel(spec, 78), spec)
    g = _random_field(spec, 79).values
    want, block = op.apply(g), op.blocks[0]
    pairs = block.kshifts.size * spec.size
    monkeypatch.setattr(convolution, "PAIR_BUDGET", pairs - 1)
    with pytest.raises(ValueError, match=f"needs {pairs} point pairs; budget {pairs - 1}$"):
        op.apply(g)
    monkeypatch.setattr(convolution, "PAIR_BUDGET", pairs)
    assert np.array_equal(op.apply(g), want)
    assert op.blocks[0] is block


def test_sheared_sparse_row_over_budget_takes_the_kernel_side(monkeypatch):
    # 100 sites: fewer than 3 per kernel shift (36 shifts, one sheared axis),
    # so the row prefers its own sites, but only the shifts fit the budget
    spec = GridSpec(HEIS, 6, 1.0)
    k = _random_field(spec, 78)
    vals = np.zeros(spec.size, dtype=complex)
    vals[np.random.default_rng(82).choice(spec.size, 100, replace=False)] = 1.0 + 0.5j
    v = GridFunction(spec, vals.reshape(spec.shape))
    pairs = spec.N ** 2 * spec.size
    monkeypatch.setattr(convolution, "PAIR_BUDGET", pairs)
    got = convolve(k, v, path="direct").values
    want = _oracle_apply(spec, spec, (0, 1, 2), k.values, v.values[None])[0]
    assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()
    monkeypatch.setattr(convolution, "PAIR_BUDGET", pairs - 1)
    with pytest.raises(ValueError, match=f"needs {pairs} point pairs; budget {pairs - 1}$"):
        convolve(k, v, path="direct")


def test_compose_at_n26_matches_site_sums():
    # N=26 was over the pair budget of the table-driven sum
    spec = GridSpec(HEIS, 26, 1.0)
    K, L = _random_kernel(spec, 80), _random_kernel(spec, 81)
    got = compose_kernels(K, L, spec).values.reshape(-1)
    coords = spec.mesh.reshape(-1, 3)
    for idx in [(1, 1, 1), (13, 13, 13), (5, 20, 2), (25, 3, 24), (20, 21, 25)]:
        site = int(np.ravel_multi_index(idx, spec.shape))
        want, scale = site_convolution(HEIS, K.values.reshape(-1), L.values.reshape(-1),
                                       coords, spec.volume, site)
        assert abs(got[site] - want) <= 1e-13 * scale


# --- per-frequency matrices: the shift sum of real kernels without plain axes ---


def _loop_block(spec, K, monkeypatch):
    """K's whole-grid block built over the memory rule, so it sums shift by shift."""
    with monkeypatch.context() as m:
        m.setattr(convolution, "SHEAR_CHUNK", 0)
        block = _Sheared(spec, spec, tuple(range(spec.q_total)), K.values)
    assert block.half is None
    return block


MATRIX_GRIDS = {"heisenberg1-N4": (HEIS, 4), "heisenberg1-N7": (HEIS, 7),
                "filiform3-N4": (ProductGroup([FILIFORM3]), 4)}


@pytest.mark.parametrize("name", MATRIX_GRIDS)
def test_matrix_sum_matches_the_shift_loop(name, monkeypatch):
    spec = GridSpec(*MATRIX_GRIDS[name], 1.0)
    K = _real_kernel(spec, 83)
    op = prepare(K, spec)
    assert op.blocks[0].half is not None and op.adjoint_op.blocks[0].mirror is op.blocks[0]
    loop, loop_adj = (_loop_block(spec, k, monkeypatch) for k in (K, adjoint_kernel(K)))
    # dense rows take the matrices, the sparse ones their own sites
    stack = np.stack([_random_field(spec, 84).values, _few_sites(spec),
                      _random_field(spec, 85).values, _one_hot(spec, spec.size // 3),
                      np.zeros(spec.shape)])
    pairs = ((op.apply, loop.apply), (op.adjoint, loop_adj.apply),
             (op.normal, lambda v: loop_adj.apply(loop.apply(v))))
    for method, want_of in pairs:
        got, want = method(stack), want_of(stack)
        for i in range(len(stack)):
            assert np.array_equal(got[i], method(stack[i]))
            assert np.abs(got[i] - want[i]).max() <= 1e-15 * np.abs(want[i]).max(initial=0)
    assert "matrices" in op.blocks[0].__dict__
    assert "matrices" not in op.adjoint_op.blocks[0].__dict__ and "pairs" not in op.adjoint_op.blocks[0].__dict__


@pytest.mark.parametrize("name", ["heisenberg1-N4", "filiform3-N4"])
def test_matrix_sum_matches_loop_oracle(name):
    # filiform3 has 256 sites: its oracle is loop_group_convolution's rule
    # as a dense matrix (convolution_matrix), the loops would take 65536 steps
    group, N = MATRIX_GRIDS[name]
    spec = GridSpec(group, N, 1.0)
    K = _real_kernel(spec, 86)
    f = _random_field(spec, 87).values.reshape(-1)
    op = prepare(K, spec)
    assert op.blocks[0].half is not None
    coords = spec.mesh.reshape(-1, spec.q_total)
    for got, k in ((op.apply(f.reshape(spec.shape)), K),
                   (op.adjoint(f.reshape(spec.shape)), adjoint_kernel(K))):
        kv = k.values.reshape(-1)
        want = (loop_group_convolution(group, kv, f, coords, spec.volume) if group is HEIS
                else convolution_matrix(group, kv, coords, spec.volume) @ f)
        assert np.abs(got.reshape(-1) - want).max() <= 1e-15 * np.abs(want).max()


@pytest.mark.parametrize("name", ["heisenberg1-N7", "filiform3-N4"])
def test_adjoint_pairing_reads_the_kernels_matrices(name):
    spec = GridSpec(*MATRIX_GRIDS[name], 1.0)
    op = prepare(_real_kernel(spec, 88), spec)
    assert op.adjoint_op.blocks[0].mirror is op.blocks[0]
    f, g = _random_field(spec, 76).values, _random_field(spec, 77).values
    Kf = op.apply(f)
    lhs, rhs = np.vdot(g, Kf), np.vdot(op.adjoint(g), f)
    assert abs(lhs - rhs) <= 1e-13 * np.linalg.norm(Kf) * np.linalg.norm(g)


def test_matrix_rule_boundary():
    # heisenberg1 at N=12: 19 frequencies of 144^2 values fit SHEAR_CHUNK
    spec = GridSpec(HEIS, 12, 1.0)
    half, neg = prepare(_real_kernel(spec, 89), spec).blocks[0].half
    assert half.size * 144 ** 2 == 393984 <= convolution.SHEAR_CHUNK
    assert half.tolist() == list(range(19)) and neg.tolist() == [0, *range(35, 17, -1)]
    # over the rule: N=13 (20 x 169^2), a complex kernel, a plain axis
    cases = [(GridSpec(HEIS, 13, 1.0), _real_kernel), (spec, _random_kernel),
             (GridSpec(HX, 6, 1.0), _real_kernel)]
    for spec, kernel in cases:
        op = prepare(kernel(spec, 89), spec)
        assert op.blocks[0].half is None and op.adjoint_op.blocks[0].mirror is None
        # such a block sums shift by shift, as a block built outside any op
        f = _random_field(spec, 90).values
        axes = tuple(range(spec.q_total))
        assert np.array_equal(op.apply(f), _Sheared(spec, spec, axes, op.kernel.values).apply(f))
        assert "matrices" not in op.blocks[0].__dict__


def test_direct_block_lives_as_long_as_its_op():
    spec = GridSpec(HEIS, 6, 1.0)
    op = prepare(_real_kernel(spec, 91), spec)
    op.normal(_random_field(spec, 92).values)
    refs = [weakref.ref(op.blocks[0]), weakref.ref(op.adjoint_op.blocks[0])]
    del op
    gc.collect()
    assert [r() for r in refs] == [None, None]


def test_whole_grid_op_leaves_its_grid_unchanged():
    # the op is the only owner of its blocks: preparing, applying and
    # normal-ing it, or convolving once by the direct path, puts nothing on
    # the grid spec beyond its own lazily built tables
    spec = GridSpec(HEIS, 6, 1.0)
    spec.shear, spec.mesh
    before = set(vars(spec))
    op = prepare(_real_kernel(spec, 93), spec)
    f = _random_field(spec, 94)
    op.apply(f.values)
    op.normal(f.values)
    del op
    gc.collect()
    convolve(_random_field(spec, 95), f, "direct")
    assert set(vars(spec)) == before


def test_whole_grid_apply_convolves_each_row_by_its_own_block(monkeypatch):
    # one public convolve per input row, with the op's block as the kernel:
    # the route bench/tracer.py counts direct calls and point pairs at
    spec = GridSpec(HEIS, 6, 1.0)
    op = prepare(_random_kernel(spec, 96), spec)
    rows = np.stack([_random_field(spec, s).values for s in (97, 98, 99)])
    calls = []
    original = convolution.convolve

    def spy(f, g, path="auto"):
        calls.append((f, path))
        return original(f, g, path)

    monkeypatch.setattr(convolution, "convolve", spy)
    out = op.apply(rows)
    block = op.blocks[0]
    assert [(f is block, path) for f, path in calls] == [(True, "direct")] * 3
    assert np.array_equal(block.values, op.kernel.values) and block.spec is spec
    fresh = [original(GridFunction(spec, op.kernel.values), GridFunction(spec, r), "direct")
             for r in rows]
    assert np.array_equal(out, np.stack([g.values for g in fresh]))
