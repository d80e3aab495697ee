"""Group convolution on the grid and L2 operator-norm estimation.

Convention: (f * g)(x) = sum_y f(x y^{-1}) g(y) vol.  The subgroup
lattice is closed under the group law, so the direct path gathers exact
lattice points; values falling outside the box contribute zero.  Fully
abelian groups route through zero-padded FFT convolution, which equals
the direct sum up to rounding.  Pipelines apply Op(K) through
prepare(K, spec), which does the per-kernel work once.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from functools import cached_property

import numpy as np

from .grid import GridFunction, GridSpec
from .kernels import (
    DeltaKernel,
    GridKernel,
    KernelRep,
    TensorKernel,
    adjoint_kernel,
)
from .product import MultiIndex

PAIR_BUDGET = int(2e8)


def _check_specs(a: GridSpec, b: GridSpec):
    if a is not b and not a.compatible(b):
        raise ValueError("grid specs do not match")


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


class _Block:
    """Convolution along some grid axes; _convolve gets them last, the rest as rows."""

    def __init__(self, spec: GridSpec, axes: tuple):
        self.spec, self.axes = spec, axes
        self.vol = float(np.prod(spec.spacings[list(axes)]))

    def apply(self, v: np.ndarray) -> np.ndarray:
        axes = tuple(v.ndim - self.spec.q_total + a for a in self.axes)
        last = range(v.ndim - len(axes), v.ndim)
        moved = np.moveaxis(v, axes, last)
        out = self._convolve(moved.reshape(-1, *(self.spec.N,) * len(axes)))
        return np.moveaxis(out.reshape(moved.shape), last, axes)


class _Spectrum(_Block):
    """Abelian axes: zero-padded FFT against the kernel spectrum.

    numpy's complex products are not bitwise commutative; whole-grid
    kernels multiply the kernel spectrum first and tensor factors the
    operand spectrum first, which keeps existing reports byte-stable.
    """

    def __init__(self, spec: GridSpec, axes: tuple, kvals: np.ndarray,
                 kernel_first: bool):
        super().__init__(spec, axes)
        self.pad = (2 * spec.N,) * len(axes)
        self.spectrum = np.fft.fftn(kvals, s=self.pad, axes=tuple(range(len(axes))))
        self.kernel_first = kernel_first

    def _convolve(self, flat: np.ndarray) -> np.ndarray:
        ax = tuple(range(1, flat.ndim))
        F = np.fft.fftn(flat, s=self.pad, axes=ax)
        full = np.fft.ifftn(self.spectrum * F if self.kernel_first else F * self.spectrum,
                            axes=ax)
        c = self.spec.origin
        return full[(slice(None),) + (slice(c, c + self.spec.N),) * len(ax)] * self.vol


class _Direct(_Block):
    """Any group: (k * v)(x) summed through cached translation tables.

    sub is the grid of the block's own group (spec for a whole-grid kernel).
    Each row loops over the sparser of supp k and its own support, which
    must stay within budget point pairs; the rows that loop over supp k
    share one loop, and the others run one at a time.
    """

    def __init__(self, spec: GridSpec, sub: GridSpec, axes: tuple,
                 kvals: np.ndarray, budget: int):
        super().__init__(spec, axes)
        self.sub, self.budget = sub, budget
        self.kflat = kvals.reshape(-1)
        self.nz = np.flatnonzero(np.abs(self.kflat) > 0)

    def _convolve(self, flat: np.ndarray) -> np.ndarray:
        rows = flat.reshape(flat.shape[0], -1)
        acc = np.zeros_like(rows)
        supports = [np.flatnonzero(np.abs(v) > 0) for v in rows]
        cost = max(min(self.nz.size, nz.size) for nz in supports) * self.sub.size
        if cost > self.budget:
            raise ValueError(f"direct sum needs {cost} point pairs; budget {self.budget}")
        kside = [j for j, nz in enumerate(supports) if self.nz.size <= nz.size]
        if kside:  # sites first: one row stays 1-D, several gather whole site rows
            sel = kside[0] if len(kside) == 1 else kside
            vs = np.ascontiguousarray(rows[sel].T)
            out = np.zeros_like(vs)
            for i in self.nz:  # sum_z k(z) v(z^{-1} x)
                ravel, inb = _site_translation(self.sub, int(i), "left")
                out[inb] += self.kflat[i] * vs[ravel[inb]]
            acc[sel] = out.T
        for v, out, nz in zip(rows, acc, supports):
            for i in nz if nz.size < self.nz.size else ():  # sum_y v(y) k(x y^{-1})
                ravel, inb = _site_translation(self.sub, int(i), "right")
                out[inb] += v[i] * self.kflat[ravel[inb]]
        return (acc * self.vol).reshape(flat.shape)


def _convolve_each(K: GridKernel, spec: GridSpec, budget: int):
    """Whole-grid direct step: one public convolve per input, which bench/tracer.py counts."""
    def step(v: np.ndarray) -> np.ndarray:
        outs = [convolve(K.data, GridFunction(spec, row), "direct", budget).values
                for row in v.reshape(-1, *spec.shape)]
        return np.stack(outs).reshape(v.shape)
    return step


class ConvOp:
    """Op(K) prepared on one grid by prepare(K, spec).

    apply, adjoint and normal act on arrays of shape (*batch, *spec.shape),
    each leading index an independent input.  kernel is K as applied (rendered
    unless a grid, delta or tensor kernel); Op(K~) is prepared on first use.
    """

    def __init__(self, kernel: KernelRep, spec: GridSpec, steps: list, budget: int):
        self.kernel, self.spec, self.steps, self.budget = kernel, spec, steps, budget

    def apply(self, v: np.ndarray) -> np.ndarray:
        """Op(K) v."""
        v = np.asarray(v, dtype=complex)
        if v.shape[v.ndim - self.spec.q_total:] != self.spec.shape:
            raise ValueError(f"values shape {v.shape} does not end in grid {self.spec.shape}")
        for step in self.steps:
            v = step(v)
        return v

    @cached_property
    def adjoint_op(self) -> "ConvOp":
        """Op(K~), the L2 adjoint, prepared on the same grid."""
        return prepare(adjoint_kernel(self.kernel), self.spec, self.budget)

    def adjoint(self, v: np.ndarray) -> np.ndarray:
        """Op(K~) v."""
        return self.adjoint_op.apply(v)

    def normal(self, v: np.ndarray) -> np.ndarray:
        """Op(K~) Op(K) v."""
        return self.adjoint(self.apply(v))


def prepare(K, spec: GridSpec, budget: int = PAIR_BUDGET) -> ConvOp:
    """Prepare Op(K) on spec; a ConvOp is returned unchanged, with its budget.

    A delta kernel scales.  A tensor kernel gets one step per factor on the
    factor's own grid: a scale for a delta part, else the part rendered once.
    Any other kernel is rendered on spec (a grid kernel must live there).
    Abelian groups keep the padded kernel spectrum; others run the direct
    sum within budget point pairs (through convolve for a whole-grid kernel).
    """
    if isinstance(K, ConvOp):
        _check_specs(K.spec, spec)
        return K
    if isinstance(K, DeltaKernel):
        steps = [lambda v: v * K.amplitude]
    elif isinstance(K, TensorKernel):
        steps = []
        for part, sub, sl in zip(K.parts, spec.factor_specs, K.group.slices):
            if isinstance(part, DeltaKernel):
                steps.append(lambda v, c=part.amplitude: v * c)
                continue
            axes, kvals = tuple(range(sl.start, sl.stop)), part.render(sub).values
            block = (_Spectrum(spec, axes, kvals, False) if sub.group.factors[0].is_abelian
                     else _Direct(spec, sub, axes, kvals, budget))
            steps.append(block.apply)
    else:
        K = K if isinstance(K, GridKernel) else K.render(spec)
        _check_specs(K.spec, spec)
        if all(fac.is_abelian for fac in spec.group.factors):
            steps = [_Spectrum(spec, tuple(range(spec.q_total)), K.values, True).apply]
        else:
            steps = [_convolve_each(K, spec, budget)]
    return ConvOp(K, spec, steps, budget)


def convolve(f: GridFunction, g: GridFunction, path: str = "auto",
             budget: int = PAIR_BUDGET) -> GridFunction:
    """Group convolution f * g on a shared grid."""
    _check_specs(f.spec, g.spec)
    spec = f.spec
    axes = tuple(range(spec.q_total))
    abelian = all(fac.is_abelian for fac in spec.group.factors)
    if path == "auto":
        path = "fast" if abelian else "direct"
    if path == "fast":
        if not abelian:
            raise ValueError("fast path requires a fully abelian group")
        return GridFunction(spec, _Spectrum(spec, axes, f.values, True).apply(g.values))
    if path != "direct":
        raise ValueError(f"unknown convolution path {path!r}")
    return GridFunction(spec, _Direct(spec, spec, axes, f.values, budget).apply(g.values))


def apply_op(K, f: GridFunction, budget: int = PAIR_BUDGET) -> GridFunction:
    """Op(K) f = K * f; K may be a kernel or a ConvOp."""
    return GridFunction(f.spec, prepare(K, f.spec, budget).apply(f.values))


def compose_kernels(K, L: KernelRep, spec: GridSpec,
                    budget: int = PAIR_BUDGET) -> GridKernel:
    """Grid kernel of Op(K) Op(L): K applied to L's rendering.

    A delta K keeps L's principal-value flag.
    """
    Lr = L.render(spec)
    return GridKernel(spec, prepare(K, spec, budget).apply(Lr.values), mode=Lr.mode,
                      principal_value=Lr.principal_value and isinstance(K, DeltaKernel))


def right_translate(f: GridFunction, a) -> GridFunction:
    """(R_a f)(x) = f(x a), zero off the box; a must be a lattice point."""
    spec = f.spec
    pts = spec.group.multiply(spec.mesh, np.asarray(a, dtype=float))
    return GridFunction(spec, _gather(f.values, spec, pts))


def _field_steps(spec: GridSpec, alpha: MultiIndex) -> list:
    """Single-field steps of X^alpha in application order: (grid axes, coefficients)."""
    group = spec.group
    steps = []
    for fac, sl, e in zip(group.factors, group.slices, alpha.entries):
        fields = fac.left_invariant_fields
        coords_mu = spec.mesh[..., sl]
        for j, reps in enumerate(e):
            if reps:
                coeffs = fields[j].coeff_arrays(coords_mu)
                steps += [(range(sl.start, sl.stop), coeffs)] * reps
    return steps


def _values(f, spec):
    return (f.spec, f.values) if isinstance(f, GridFunction) else (spec, np.asarray(f))


def left_derivative(f, alpha: MultiIndex, spec: GridSpec | None = None):
    """X^alpha f: left-invariant fields via centered differences.

    Fields compose in ascending coordinate order within each factor,
    factors in order; on abelian factors this is the plain mixed partial.
    f is a GridFunction, or an array of shape (*batch, *spec.shape) whose
    leading indices are independent inputs; the result has f's type.
    """
    spec, out = _values(f, spec)
    lead = out.ndim - spec.q_total
    for axes, coeffs in _field_steps(spec, alpha):
        acc = np.zeros_like(out)
        for axis, c in zip(axes, coeffs):
            acc = acc + c * np.gradient(out, spec.spacings[axis], axis=lead + axis)
        out = acc
    return GridFunction(spec, out) if isinstance(f, GridFunction) else out


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


def left_derivative_adjoint(f, alpha: MultiIndex, spec: GridSpec | None = None):
    """Exact discrete adjoint of left_derivative, on the same inputs.

    Single-field steps X = sum_k c_k d_k transpose to sum_k d_k^T c_k
    (coefficients are real polynomials), applied in reversed order.
    """
    spec, out = _values(f, spec)
    lead = out.ndim - spec.q_total
    for axes, coeffs in reversed(_field_steps(spec, alpha)):
        acc = np.zeros_like(out)
        for axis, c in zip(axes, coeffs):
            acc = acc + _gradient_adjoint(c * out, spec.spacings[axis], lead + axis)
        out = acc
    return GridFunction(spec, out) if isinstance(f, GridFunction) else out


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
        return asdict(self)


def power_method(normal, spec: GridSpec, max_iter: int = 60, tol: float = 1e-10,
                 seed: int = 0) -> OpNormEstimate:
    """Largest singular value from power iteration on a normal operator.

    normal maps an array v of shape spec.shape to A~(A v), as ConvOp.normal
    does; the returned value is the square root of the dominant Rayleigh
    quotient.  The iteration stops when that quotient's relative drift is
    at most tol, at once with value 0 on a zero operator, or after max_iter
    steps with converged False.
    """
    if max_iter < 8:
        raise ValueError("max_iter must be at least 8")

    def norm(a):
        return np.sqrt(np.sum(np.abs(a) ** 2) * spec.volume)

    rng = np.random.default_rng(seed)
    v = rng.normal(size=spec.shape) + 1j * rng.normal(size=spec.shape)
    v = v * (1.0 / norm(v))
    rho, residual, converged = 0.0, np.inf, False
    for it in range(1, max_iter + 1):
        w = normal(v)
        new_rho = np.real(np.sum(w * np.conj(v)) * spec.volume)
        floor = max(new_rho, 1e-300)
        residual = norm(w + v * -new_rho) / floor
        wn = norm(w)
        if wn == 0.0:
            rho, residual, converged = 0.0, 0.0, True
            break
        # drift measures the value settling; the residual quantifies how far
        # the iterate is from an eigenvector (reported, not gated on)
        converged = bool(abs(new_rho - rho) / floor <= tol)
        rho = new_rho
        if converged:
            break
        v = w * (1.0 / wn)
    return OpNormEstimate(value=float(np.sqrt(max(float(rho), 0.0))), iterations=it,
                          residual=float(residual), converged=converged, N=spec.N,
                          T=spec.T, seed=seed)


def op_norm(K, spec: GridSpec, max_iter: int = 60, tol: float = 1e-10,
            seed: int = 0, budget: int = PAIR_BUDGET) -> OpNormEstimate:
    """Largest singular value of Op(K) by power iteration on Op(K~) Op(K);
    a ConvOp K keeps the budget it was prepared with."""
    return power_method(prepare(K, spec, budget).normal, spec, max_iter=max_iter,
                        tol=tol, seed=seed)
