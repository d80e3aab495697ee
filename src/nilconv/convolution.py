"""Group convolution on the grid and L2 operator-norm estimation.

Convention: (f * g)(x) = sum_y f(x y^{-1}) g(y) vol.  The subgroup
lattice is closed under the group law, so the direct path gathers exact
lattice points; values falling outside the box contribute zero.  Fully
abelian groups route through zero-padded FFT convolution, which equals
the direct sum up to rounding.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import GridFunction, GridSpec
from .kernels import (
    DeltaKernel,
    GridKernel,
    KernelRep,
    TensorKernel,
    adjoint_kernel,
)
from .product import MultiIndex, ProductGroup

PAIR_BUDGET = int(2e8)


def _check_specs(f: GridFunction, g: GridFunction):
    if f.spec is not g.spec and not f.spec.compatible(g.spec):
        raise ValueError("grid specs do not match")


def _fast_convolve(f: GridFunction, g: GridFunction) -> GridFunction:
    spec = f.spec
    q, N = spec.q_total, spec.N
    M = 2 * N
    ax = tuple(range(q))
    F = np.fft.fftn(f.values, s=(M,) * q, axes=ax)
    G = np.fft.fftn(g.values, s=(M,) * q, axes=ax)
    full = np.fft.ifftn(F * G, axes=ax)
    c = spec.origin
    crop = tuple(slice(c, c + N) for _ in range(q))
    return GridFunction(spec, full[crop] * spec.volume)


def _gather(values: np.ndarray, spec: GridSpec, points: np.ndarray) -> np.ndarray:
    idx, inb = spec.index_of(points)
    safe = np.where(inb[..., None], idx, 0)
    out = values[tuple(np.moveaxis(safe, -1, 0))]
    return np.where(inb, out, 0.0)


def _site_translation(spec: GridSpec, i: int, side: str):
    """Cached lattice index map x -> site_i^{-1} x (left) or x site_i^{-1} (right).

    Power iterations replay the same few translations many times; the maps
    only depend on the grid, so they are memoized on the spec with a memory
    cap and oldest-first eviction.
    """
    tables = spec.__dict__.setdefault("_translation_tables", {})
    key = (i, side)
    if key not in tables:
        group = spec.group
        mesh = spec.mesh.reshape(-1, spec.q_total)
        inv = group.invert(mesh[i])
        pts = group.multiply(inv, mesh) if side == "left" else group.multiply(mesh, inv)
        idx, inb = spec.index_of(pts)
        safe = np.where(inb[..., None], idx, 0)
        ravel = np.ravel_multi_index(tuple(np.moveaxis(safe, -1, 0)), spec.shape)
        cap = max(64, int(2.5e8 // (9 * mesh.shape[0])))
        while len(tables) >= cap:
            tables.pop(next(iter(tables)))
        tables[key] = (ravel, inb)
    return tables[key]


def _direct_convolve(f: GridFunction, g: GridFunction, budget: int) -> GridFunction:
    spec = f.spec
    mesh = spec.mesh.reshape(-1, spec.q_total)
    fv = f.values.reshape(-1)
    gv = g.values.reshape(-1)
    nz_f = np.flatnonzero(np.abs(fv) > 0)
    nz_g = np.flatnonzero(np.abs(gv) > 0)
    # loop over the sparser side: either sum_y f(x y^{-1}) g(y) over supp g,
    # or equivalently sum_z f(z) g(z^{-1} x) over supp f
    loop_f = nz_f.size <= nz_g.size
    nz = nz_f if loop_f else nz_g
    cost = nz.size * mesh.shape[0]
    if cost > budget:
        raise ValueError(
            f"direct convolution needs {cost} point pairs; budget is {budget}"
        )
    out = np.zeros(mesh.shape[0], dtype=complex)
    for i in nz:
        if loop_f:
            ravel, inb = _site_translation(spec, i, "left")  # z^{-1} x
            out[inb] += fv[i] * gv[ravel[inb]]
        else:
            ravel, inb = _site_translation(spec, i, "right")  # x y^{-1}
            out[inb] += gv[i] * fv[ravel[inb]]
    return GridFunction(spec, out.reshape(spec.shape) * spec.volume)


def convolve(f: GridFunction, g: GridFunction, path: str = "auto",
             budget: int = PAIR_BUDGET) -> GridFunction:
    """Group convolution f * g on a shared grid."""
    _check_specs(f, g)
    abelian = all(fac.is_abelian for fac in f.spec.group.factors)
    if path == "auto":
        path = "fast" if abelian else "direct"
    if path == "fast":
        if not abelian:
            raise ValueError("fast path requires a fully abelian group")
        return _fast_convolve(f, g)
    if path == "direct":
        return _direct_convolve(f, g, budget)
    raise ValueError(f"unknown convolution path {path!r}")


def _convolve_factor(vals: np.ndarray, part_vals: np.ndarray, factor,
                     spec: GridSpec, axes, budget: int) -> np.ndarray:
    """Convolve along one factor's axes, batching over the rest."""
    q_mu = len(axes)
    N = spec.N
    vol = float(np.prod(spec.spacings[list(axes)]))
    moved = np.moveaxis(vals, axes, range(vals.ndim - q_mu, vals.ndim))
    lead = moved.shape[: vals.ndim - q_mu]
    flat = moved.reshape(-1, *(N,) * q_mu)
    if factor.is_abelian:
        M = 2 * N
        ax = tuple(range(1, q_mu + 1))
        Kf = np.fft.fftn(part_vals, s=(M,) * q_mu, axes=tuple(range(q_mu)))
        Ff = np.fft.fftn(flat, s=(M,) * q_mu, axes=ax)
        full = np.fft.ifftn(Ff * Kf[None], axes=ax)
        c = spec.origin
        crop = (slice(None),) + tuple(slice(c, c + N) for _ in range(q_mu))
        out = full[crop] * vol
    else:
        subs = spec.__dict__.setdefault("_factor_subspecs", {})
        if axes not in subs:
            subs[axes] = GridSpec(ProductGroup([factor]), N, spec.T)
        sub = subs[axes]
        m = N ** q_mu
        kflat = part_vals.reshape(-1)
        nz = np.flatnonzero(np.abs(kflat) > 0)
        if nz.size * m > budget:
            raise ValueError("factor convolution exceeds the point-pair budget")
        rows = flat.reshape(flat.shape[0], -1)
        acc = np.zeros_like(rows)
        for i in nz:
            ravel, inb = _site_translation(sub, int(i), "left")  # z^{-1} x
            acc[:, inb] += kflat[i] * rows[:, ravel[inb]]
        out = (acc * vol).reshape(flat.shape)
    return np.moveaxis(
        out.reshape(*lead, *(N,) * q_mu),
        range(vals.ndim - q_mu, vals.ndim), axes,
    )


def factor_matrix(part: KernelRep, sub: GridSpec, budget: int = PAIR_BUDGET) -> np.ndarray:
    """Dense matrix of the operator apply_op applies for one tensor part.

    sub is the part's single-factor grid; column j is Op(part) applied to
    the unit vector at flat site j.  On an abelian factor the identity's
    columns go through one factor convolution batched over a trailing
    axis.  On a nilpotent factor column y is K(x y^{-1}) vol, read off
    the right-translation table of site y that the direct path uses; a
    batched convolution would cost n^3 pairs instead of n^2.
    """
    n = sub.size
    factor = sub.group.factors[0]
    pv = part.render(sub).values
    if factor.is_abelian:
        basis = np.eye(n, dtype=complex).reshape(*sub.shape, n)
        cols = _convolve_factor(basis, pv, factor, sub, tuple(range(sub.q_total)), budget)
        return cols.reshape(n, n)
    kflat = pv.reshape(-1)
    if np.count_nonzero(kflat) * n > budget:
        raise ValueError("factor convolution exceeds the point-pair budget")
    cols = np.empty((n, n), dtype=complex)
    for y in range(n):
        ravel, inb = _site_translation(sub, y, "right")  # x y^{-1}
        cols[:, y] = np.where(inb, kflat[ravel], 0.0)
    return cols * sub.volume


def apply_op(K: KernelRep, f: GridFunction, budget: int = PAIR_BUDGET) -> GridFunction:
    """Op(K) f = K * f."""
    spec = f.spec
    if isinstance(K, DeltaKernel):
        return f.scaled(K.amplitude)
    if isinstance(K, TensorKernel):
        vals = f.values
        for part, factor, sl in zip(K.parts, K.group.factors, K.group.slices):
            if isinstance(part, DeltaKernel):
                vals = vals * part.amplitude
                continue
            sub = GridSpec(ProductGroup([factor]), spec.N, spec.T)
            pv = part.render(sub).values
            vals = _convolve_factor(vals, pv, factor, spec,
                                    tuple(range(sl.start, sl.stop)), budget)
        return GridFunction(spec, vals)
    if not isinstance(K, GridKernel):
        K = K.render(spec)
    return convolve(K.data, f, budget=budget)


def compose_kernels(K: KernelRep, L: KernelRep, spec: GridSpec,
                    budget: int = PAIR_BUDGET) -> GridKernel:
    """Grid kernel of Op(K) Op(L): K applied to L's rendering."""
    Lr = L.render(spec)
    if isinstance(K, DeltaKernel):
        return GridKernel(spec, Lr.values * K.amplitude,
                          principal_value=Lr.principal_value, mode=Lr.mode)
    out = apply_op(K, Lr.data, budget=budget)
    return GridKernel(spec, out.values, mode=Lr.mode)


def right_translate(f: GridFunction, a) -> GridFunction:
    """(R_a f)(x) = f(x a), zero off the box; a must be a lattice point."""
    spec = f.spec
    pts = spec.group.multiply(spec.mesh, np.asarray(a, dtype=float))
    return GridFunction(spec, _gather(f.values, spec, pts))


def left_derivative(f: GridFunction, alpha: MultiIndex) -> GridFunction:
    """X^alpha f: left-invariant fields via centered differences.

    Fields compose in ascending coordinate order within each factor,
    factors in order; on abelian factors this is the plain mixed partial.
    """
    spec = f.spec
    group = spec.group
    out = f.values
    for fac, sl, e in zip(group.factors, group.slices, alpha.entries):
        fields = fac.left_invariant_fields
        coords_mu = spec.mesh[..., sl]
        for j, reps in enumerate(e):
            for _ in range(reps):
                coeffs = fields[j].coeff_arrays(coords_mu)
                acc = np.zeros_like(out)
                for k_local, c in enumerate(coeffs):
                    axis = sl.start + k_local
                    acc = acc + c * np.gradient(out, spec.spacings[axis], axis=axis)
                out = acc
    return GridFunction(spec, out)


def _gradient_adjoint(a: np.ndarray, spacing: float, axis: int) -> np.ndarray:
    """Transpose of np.gradient along one axis (edge_order=1 stencil)."""
    a = np.moveaxis(a, axis, 0)
    out = np.zeros_like(a)
    inner = a[1:-1] / (2.0 * spacing)
    out[:-2] -= inner
    out[2:] += inner
    out[0] -= a[0] / spacing
    out[1] += a[0] / spacing
    out[-2] -= a[-1] / spacing
    out[-1] += a[-1] / spacing
    return np.moveaxis(out, 0, axis)


def left_derivative_adjoint(f: GridFunction, alpha: MultiIndex) -> GridFunction:
    """Exact discrete adjoint of left_derivative.

    Single-field steps X = sum_k c_k d_k transpose to sum_k d_k^T c_k
    (coefficients are real polynomials), applied in reversed order.
    """
    spec = f.spec
    group = spec.group
    out = f.values
    for fac, sl, e in reversed(list(zip(group.factors, group.slices, alpha.entries))):
        fields = fac.left_invariant_fields
        coords_mu = spec.mesh[..., sl]
        for j in reversed(range(len(e))):
            for _ in range(e[j]):
                coeffs = fields[j].coeff_arrays(coords_mu)
                acc = np.zeros_like(out)
                for k_local, c in enumerate(coeffs):
                    axis = sl.start + k_local
                    acc = acc + _gradient_adjoint(c * out, spec.spacings[axis], axis)
                out = acc
    return GridFunction(spec, out)


def boundary_mass_fraction(f: GridFunction, cells: int = 2) -> float:
    """L1 mass in the outer shell of the box, as a fraction of the total."""
    a = np.abs(f.values)
    total = float(a.sum())
    if total == 0.0:
        return 0.0
    core = a[tuple(slice(cells, -cells) for _ in range(a.ndim))]
    return float((total - core.sum()) / total)


@dataclass
class OpNormEstimate:
    value: float
    iterations: int
    residual: float
    converged: bool
    N: int
    T: float
    seed: int

    def to_dict(self) -> dict:
        return {
            "value": self.value,
            "iterations": self.iterations,
            "residual": self.residual,
            "converged": self.converged,
            "N": self.N,
            "T": self.T,
            "seed": self.seed,
        }


def power_method(normal_step, spec: GridSpec, max_iter: int = 60, tol: float = 1e-10,
                 seed: int = 0) -> OpNormEstimate:
    """Largest singular value from power iteration on a normal operator.

    normal_step maps a GridFunction v to A~(A v); the returned value is the
    square root of the dominant Rayleigh quotient.
    """
    if max_iter < 8:
        raise ValueError("max_iter must be at least 8")
    rng = np.random.default_rng(seed)
    v = rng.normal(size=spec.shape) + 1j * rng.normal(size=spec.shape)
    v = GridFunction(spec, v)
    nrm = v.l2_norm()
    v = v.scaled(1.0 / nrm)

    rho = 0.0
    residual = np.inf
    converged = False
    it = 0
    for it in range(1, max_iter + 1):
        w = normal_step(v)
        new_rho = float(np.real(w.inner(v)))
        resid_vec = w.plus(v.scaled(-new_rho))
        residual = resid_vec.l2_norm() / max(new_rho, 1e-300)
        wn = w.l2_norm()
        if wn == 0.0:
            rho = 0.0
            residual = 0.0
            converged = True
            break
        drift = abs(new_rho - rho) / max(new_rho, 1e-300)
        rho = new_rho
        v = w.scaled(1.0 / wn)
        # drift measures the value settling; the residual quantifies how far
        # the iterate is from an eigenvector (reported, not gated on)
        if drift <= tol:
            converged = True
            break
    return OpNormEstimate(
        value=float(np.sqrt(max(rho, 0.0))),
        iterations=it,
        residual=float(residual),
        converged=converged,
        N=spec.N,
        T=spec.T,
        seed=seed,
    )


def op_norm(K: KernelRep, spec: GridSpec, max_iter: int = 60, tol: float = 1e-10,
            seed: int = 0, budget: int = PAIR_BUDGET) -> OpNormEstimate:
    """Largest singular value of Op(K) by power iteration on Op(K~) Op(K)."""
    if not isinstance(K, (GridKernel, DeltaKernel, TensorKernel)):
        K = K.render(spec)
    Kt = adjoint_kernel(K)

    def step(v):
        return apply_op(Kt, apply_op(K, v, budget=budget), budget=budget)

    return power_method(step, spec, max_iter=max_iter, tol=tol, seed=seed)
