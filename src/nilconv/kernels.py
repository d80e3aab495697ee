"""Kernel representations and calculus-style checks on them.

Variants: Grid (sampled values, optional principal-value flag), Delta
(point mass), Tensor (per-factor kernels), ClosedForm (catalog entries),
Dyadic (sum of anisotropically dilated, moment-cancelling profiles).
Every variant evaluates pointwise away from its singular set and renders
onto a grid.

`mode` distinguishes the two singularity geometries: "product" kernels
are singular where any factor coordinate vanishes and their growth
envelope uses per-factor norms |t_mu|; "flag" kernels are singular only
at t_1 = 0 and use the cumulative weights |t_1| + ... + |t_mu|.
"""

from __future__ import annotations

import ast
import json
import math
import struct
from dataclasses import dataclass
from itertools import product as iproduct

import numpy as np

from .grid import GridFunction, GridSpec, zero_lowest_face
from .product import MultiIndex, ProductGroup, hom_degree, multi_indices_up_to

MAX_MOMENT_ORDER = 4
MOMENT_TOL = 1e-12


def smooth_bump(s: np.ndarray) -> np.ndarray:
    """exp(1 - 1/(1 - s^2)) on |s| < 1, zero outside; equals 1 at s = 0."""
    s = np.asarray(s, dtype=float)
    out = np.zeros_like(s)
    inside = np.abs(s) < 1.0
    si = s[inside]
    out[inside] = np.exp(1.0 - 1.0 / (1.0 - si * si))
    return out


# ---------------------------------------------------------------------------
# kernel variants
# ---------------------------------------------------------------------------


class KernelRep:
    """Base: a convolution kernel on a product group."""

    group: ProductGroup
    mode: str = "product"

    def eval(self, points: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def render(self, spec: GridSpec) -> "GridKernel":
        vals = self.eval(spec.mesh)
        return GridKernel(spec, zero_lowest_face(vals), mode=self.mode)

    def adjoint(self) -> "KernelRep":
        raise NotImplementedError


class GridKernel(KernelRep):
    """Kernel given by grid samples; principal-value cells hold 0."""

    def __init__(self, spec: GridSpec, values, principal_value=False, mode="product"):
        self.spec = spec
        self.group = spec.group
        self.data = GridFunction(spec, zero_lowest_face(values))
        self.principal_value = bool(principal_value)
        self.mode = mode

    @property
    def values(self):
        return self.data.values

    def eval(self, points):
        return self.data.interp(points)

    def render(self, spec):
        if spec is self.spec or spec.compatible(self.spec):
            return self
        return GridKernel(
            spec, zero_lowest_face(self.data.interp(spec.mesh)),
            principal_value=self.principal_value, mode=self.mode,
        )

    def adjoint(self):
        flipped = self.data.negate_argument()
        return GridKernel(
            self.spec, np.conj(flipped.values),
            principal_value=self.principal_value, mode=self.mode,
        )


class DeltaKernel(KernelRep):
    """amplitude * (unit mass at the identity); Op(K) = amplitude * Id."""

    def __init__(self, group: ProductGroup, amplitude=1.0):
        self.group = group
        self.amplitude = complex(amplitude)
        self.mode = "product"

    def eval(self, points):
        points = np.asarray(points, dtype=float)
        return np.zeros(points.shape[:-1], dtype=complex)

    def render(self, spec):
        g = spec.delta(self.amplitude)
        return GridKernel(spec, g.values, mode=self.mode)

    def adjoint(self):
        return DeltaKernel(self.group, np.conj(self.amplitude))


class TensorKernel(KernelRep):
    """Tensor product of single-factor kernels."""

    def __init__(self, parts):
        self.parts = tuple(parts)
        for p in self.parts:
            if p.group.nu != 1:
                raise ValueError("tensor parts must be single-factor kernels")
        self.group = ProductGroup([p.group.factors[0] for p in self.parts])
        self.mode = "product"

    def eval(self, points):
        points = np.asarray(points, dtype=float)
        out = np.ones(points.shape[:-1], dtype=complex)
        for p, sl in zip(self.parts, self.group.slices):
            out = out * p.eval(points[..., sl])
        return out

    def render(self, spec):
        blocks = [p.render(sub).values for p, sub in zip(self.parts, spec.factor_specs)]
        vals = blocks[0]
        for b in blocks[1:]:
            vals = np.tensordot(vals, b, axes=0)
        return GridKernel(spec, zero_lowest_face(vals), mode=self.mode)

    def adjoint(self):
        return TensorKernel([p.adjoint() for p in self.parts])


@dataclass
class _CatalogEntry:
    build_eval: callable  # (group, params) -> eval fn
    parity: callable  # (group, params) -> +-1
    mode: str
    check: callable  # (group) -> None or raise
    defaults: dict


def _check_abelian_1d_factors(group):
    if any(f.dim != 1 or f.n_layers != 1 for f in group.factors):
        raise ValueError("this closed form needs one-dimensional abelian factors")


def _check_hilbert(group):
    _require_nu(group, 1)
    _check_abelian_1d_factors(group)


def _hilbert_entry():
    def build(group, params):
        S = float(params["support"])

        def ev(pts):
            t = np.asarray(pts, dtype=float)[..., 0]
            out = np.zeros(t.shape, dtype=complex)
            nz = t != 0.0
            out[nz] = smooth_bump(t[nz] / S) / (np.pi * t[nz])
            return out

        return ev

    return _CatalogEntry(
        build_eval=build,
        parity=lambda group, params: -1.0,
        mode="product",
        check=_check_hilbert,
        defaults={"support": 2.0},
    )


def _require_nu(group, nu):
    if group.nu != nu:
        raise ValueError(f"closed form needs nu = {nu}")


def _riesz_entry():
    def build(group, params):
        S = float(params["support"])
        q = group.q_total
        c = math.gamma((q + 1) / 2.0) / math.pi ** ((q + 1) / 2.0)
        axis = int(params.get("axis", 0))

        def ev(pts):
            t = np.asarray(pts, dtype=float)
            r = np.sqrt(np.sum(t * t, axis=-1))
            out = np.zeros(r.shape, dtype=complex)
            nz = r != 0.0
            out[nz] = c * t[..., axis][nz] / r[nz] ** (q + 1) * smooth_bump(r[nz] / S)
            return out

        return ev

    def check(group):
        _require_nu(group, 1)
        if group.factors[0].n_layers != 1:
            raise ValueError("riesz profile needs an abelian factor")

    return _CatalogEntry(
        build_eval=build,
        parity=lambda group, params: -1.0,
        mode="product",
        check=check,
        defaults={"support": 2.0, "axis": 0},
    )


def _inverse_product_entry():
    def build(group, params):
        def ev(pts):
            t = np.asarray(pts, dtype=float)
            out = np.ones(t.shape[:-1], dtype=complex)
            sing = np.zeros(t.shape[:-1], dtype=bool)
            for j in range(t.shape[-1]):
                col = t[..., j]
                sing |= col == 0.0
                with np.errstate(divide="ignore"):
                    out = out * np.where(col == 0.0, 0.0, 1.0 / np.where(col == 0, 1.0, col))
            out[sing] = 0.0
            return out

        return ev

    return _CatalogEntry(
        build_eval=build,
        parity=lambda group, params: (-1.0) ** group.nu,
        mode="product",
        check=_check_abelian_1d_factors,
        defaults={},
    )


def _flag_inverse_entry():
    def build(group, params):
        def ev(pts):
            t = np.asarray(pts, dtype=float)
            t1 = t[..., 0]
            t2 = t[..., 1]
            out = np.zeros(t1.shape, dtype=complex)
            nz = t1 != 0.0
            out[nz] = 1.0 / (t1[nz] * (np.abs(t1[nz]) + np.abs(t2[nz])))
            return out

        return ev

    def check(group):
        _require_nu(group, 2)
        _check_abelian_1d_factors(group)

    return _CatalogEntry(
        build_eval=build,
        parity=lambda group, params: -1.0,
        mode="flag",
        check=check,
        defaults={},
    )


CLOSED_FORM_CATALOG = {
    "hilbert": _hilbert_entry(),
    "riesz": _riesz_entry(),
    "inverse-product": _inverse_product_entry(),
    "flag-inverse": _flag_inverse_entry(),
}


class ClosedFormKernel(KernelRep):
    """Catalog closed form with an overall amplitude."""

    def __init__(self, group: ProductGroup, name: str, amplitude=1.0, **params):
        if name not in CLOSED_FORM_CATALOG:
            raise ValueError(f"unknown closed form {name!r}")
        entry = CLOSED_FORM_CATALOG[name]
        entry.check(group)
        self.group = group
        self.name = name
        self.amplitude = complex(amplitude)
        self.params = dict(entry.defaults)
        self.params.update(params)
        self.mode = entry.mode
        self._entry = entry
        self._eval = entry.build_eval(group, self.params)

    def eval(self, points):
        return self.amplitude * self._eval(points)

    def render(self, spec):
        vals = self.eval(spec.mesh)
        return GridKernel(
            spec, zero_lowest_face(vals), principal_value=True, mode=self.mode
        )

    def adjoint(self):
        par = self._entry.parity(self.group, self.params)
        return ClosedFormKernel(
            self.group, self.name,
            amplitude=np.conj(self.amplitude) * par, **self.params,
        )


class DiscreteHilbertKernel(KernelRep):
    """Hilbert kernel rendered lattice-exactly per axis.

    On an N-point axis the values are amplitude * cot(pi j / (2N)) / (N h)
    at odd offsets j from the center and zero at even offsets: the central
    window of the inverse DFT of -i sgn on the length-2N padded frequency
    grid.  Averages over consecutive sites match 1/(pi t), so this renders
    the same singular integral as the smooth closed form, but the padded
    symbol stays unimodular away from the two parity-forced zeros (mean
    and Nyquist), where a plain box truncation of 1/(pi t) develops an
    O(1/N) bottom cluster that ruins discrete invertibility.
    """

    def __init__(self, group: ProductGroup, amplitude=1.0):
        _check_hilbert(group)
        self.group = group
        self.amplitude = complex(amplitude)
        self.mode = "product"

    def eval(self, points):
        raise NotImplementedError(
            "lattice rendering only; render(spec) and evaluate the grid kernel"
        )

    def render(self, spec):
        if spec.group.to_dict() != self.group.to_dict():
            raise ValueError("grid group does not match kernel group")
        N = spec.N
        h = spec.spacings[0]
        j = np.arange(N) - spec.origin
        vals = np.zeros(N, dtype=complex)
        odd = (j % 2) != 0
        vals[odd] = self.amplitude / np.tan(np.pi * j[odd] / (2 * N)) / (N * h)
        return GridKernel(spec, vals, principal_value=True, mode=self.mode)

    def adjoint(self):
        return DiscreteHilbertKernel(self.group, -np.conj(self.amplitude))


class DyadicKernel(KernelRep):
    """K = sum over window scales n of 2^(n.Q) phi_n(delta_{2^n} t).

    Profiles live on a unit-box grid; factors in the cancellation set S(n)
    have vanishing moments up to `moment_order`.  In flag mode the window
    is restricted to n_1 >= ... >= n_nu and S(n) contains the factors
    where the scale strictly drops (always including the last).
    """

    def __init__(self, group, window, profiles, moment_order, flag_mode=False,
                 profile_bounds=None, meta=None):
        self.group = group
        self.window = tuple(tuple(int(v) for v in n) for n in window)
        self.profiles = profiles
        self.moment_order = int(moment_order)
        self.flag_mode = bool(flag_mode)
        self.mode = "flag" if flag_mode else "product"
        self.profile_bounds = dict(profile_bounds or {})
        self.meta = dict(meta or {})

    def cancellation_set(self, n) -> tuple:
        return cancellation_subsets(n, self.group.nu, self.flag_mode)

    def scale_factor(self, n) -> float:
        return float(2.0 ** sum(nm * Qm for nm, Qm in zip(n, self.group.Q)))

    def dilated_eval(self, n, points) -> np.ndarray:
        """Single-scale term 2^(n.Q) phi_n(delta_{2^n} t)."""
        n = tuple(int(v) for v in n)
        phi = self.profiles[n]
        r = [2.0 ** nm for nm in n]
        pts = self.group.dilate(r, np.asarray(points, dtype=float))
        return self.scale_factor(n) * phi.interp(pts)

    def eval(self, points):
        points = np.asarray(points, dtype=float)
        out = np.zeros(points.shape[:-1], dtype=complex)
        for n in self.window:
            out = out + self.dilated_eval(n, points)
        return out

    def render(self, spec):
        flat = spec.mesh.reshape(-1, spec.q_total)
        out = np.zeros(flat.shape[0], dtype=complex)
        step = 1 << 19  # keep per-scale temporaries modest on 4-axis grids
        for i0 in range(0, flat.shape[0], step):
            out[i0:i0 + step] = self.eval(flat[i0:i0 + step])
        return GridKernel(spec, zero_lowest_face(out.reshape(spec.shape)),
                          mode=self.mode)

    def adjoint(self):
        flipped = {}
        for n, phi in self.profiles.items():
            g = phi.negate_argument()
            flipped[n] = GridFunction(phi.spec, np.conj(g.values))
        return DyadicKernel(
            self.group, self.window, flipped, self.moment_order,
            flag_mode=self.flag_mode, profile_bounds=self.profile_bounds,
            meta=self.meta,
        )


def cancellation_subsets(n, nu, flag_mode) -> tuple:
    """Factors whose moments must vanish at scale n (0-based)."""
    if not flag_mode:
        return tuple(range(nu))
    n = tuple(n)
    out = []
    for mu in range(nu):
        if mu == nu - 1 or n[mu] > n[mu + 1]:
            out.append(mu)
    return tuple(out)


# ---------------------------------------------------------------------------
# moment enforcement
# ---------------------------------------------------------------------------


def _factor_axis_ids(group, mu):
    sl = group.slices[mu]
    return list(range(sl.start, sl.stop))


def _moment_exponents(q_mu, order):
    out = []

    def rec(prefix, remaining, budget):
        if remaining == 0:
            out.append(tuple(prefix))
            return
        for v in range(budget + 1):
            rec(prefix + [v], remaining - 1, budget - v)

    rec([], q_mu, order)
    return out


def enforce_moments(f: GridFunction, mu: int, order: int,
                    window_frac: float = 0.9) -> GridFunction:
    """Project out factor-mu moments up to total degree `order`.

    Subtracts the minimal-norm correction from span{t^beta * w} with w a
    smooth window supported inside the factor box, so that every slice
    integral of t^beta against the output vanishes.  Idempotent; |beta|
    ranges over total degree <= order.
    """
    if order < 0 or order > MAX_MOMENT_ORDER:
        raise ValueError(f"moment order must be in 0..{MAX_MOMENT_ORDER}")
    spec = f.spec
    group = spec.group
    axes = _factor_axis_ids(group, mu)
    q_mu = len(axes)
    coords = [spec.axis_coords(j) for j in axes]
    mesh = np.stack(np.meshgrid(*coords, indexing="ij"), axis=-1)
    vol = float(np.prod(spec.spacings[axes]))

    w = np.ones(mesh.shape[:-1])
    for k, j in enumerate(axes):
        w = w * smooth_bump(mesh[..., k] / (window_frac * spec.extents[j]))

    exps = _moment_exponents(q_mu, order)
    monos = []
    for e in exps:
        m = np.ones(mesh.shape[:-1])
        for k, p in enumerate(e):
            if p:
                m = m * mesh[..., k] ** p
        monos.append(m.reshape(-1))
    monos = np.stack(monos)  # (n_mom, m)

    basis = monos * w.reshape(-1)  # (n_basis, m), n_basis == n_mom
    # modified Gram-Schmidt in discrete L2
    U = []
    for row in basis:
        v = row.copy()
        for u in U:
            v = v - (v @ u) * vol * u
        nrm = math.sqrt((v @ v) * vol)
        if nrm < 1e-14:
            raise ValueError("moment basis degenerate: grid too coarse for this order")
        U.append(v / nrm)
    U = np.stack(U)  # (n_basis, m)

    G = (monos @ U.T) * vol  # constraints applied to the orthonormal basis
    if np.linalg.cond(G) > 1e10:
        raise ValueError("moment basis degenerate: grid too coarse for this order")

    vals = np.moveaxis(f.values, axes, range(f.values.ndim - q_mu, f.values.ndim))
    lead = vals.shape[: f.values.ndim - q_mu]
    flat = vals.reshape(-1, monos.shape[1])  # (n_other, m)
    mom = flat @ monos.T * vol  # (n_other, n_mom)
    coef = np.linalg.solve(G, mom.T).T  # (n_other, n_basis)
    corrected = flat - coef @ U
    out = np.moveaxis(
        corrected.reshape(*lead, *(spec.N,) * q_mu),
        range(f.values.ndim - q_mu, f.values.ndim), axes,
    )
    return GridFunction(spec, out)


def factor_moments(f: GridFunction, mu: int, order: int) -> np.ndarray:
    """Max |integral of t^beta f| over slices, per exponent beta."""
    spec = f.spec
    group = spec.group
    axes = _factor_axis_ids(group, mu)
    q_mu = len(axes)
    coords = [spec.axis_coords(j) for j in axes]
    mesh = np.stack(np.meshgrid(*coords, indexing="ij"), axis=-1)
    vol = float(np.prod(spec.spacings[axes]))
    vals = np.moveaxis(f.values, axes, range(f.values.ndim - q_mu, f.values.ndim))
    flat = vals.reshape(-1, spec.N ** q_mu)
    out = []
    for e in _moment_exponents(q_mu, order):
        m = np.ones(mesh.shape[:-1])
        for k, p in enumerate(e):
            if p:
                m = m * mesh[..., k] ** p
        out.append(np.abs(flat @ m.reshape(-1) * vol).max())
    return np.array(out)


# ---------------------------------------------------------------------------
# dyadic synthesis
# ---------------------------------------------------------------------------


def _profile_shape(family, group, spec, rng):
    """Raw smooth profile on the unit-box grid, before moment projection."""
    mesh = spec.mesh
    out = np.ones(mesh.shape[:-1])
    for f, sl in zip(group.factors, group.slices):
        t = mesh[..., sl]
        r2 = np.sum(t * t, axis=-1)
        if family == "gauss-deriv":
            out = out * t[..., 0] * np.exp(-4.0 * r2)
        elif family == "mexican":
            out = out * (1.0 - 6.0 * r2) * np.exp(-4.0 * r2)
        elif family == "random":
            q = t.shape[-1]
            poly = np.zeros(mesh.shape[:-1])
            for e in _moment_exponents(q, 3):
                c = rng.standard_normal()
                m = np.ones(mesh.shape[:-1])
                for k, p in enumerate(e):
                    if p:
                        m = m * t[..., k] ** p
                poly = poly + c * m
            out = out * poly * np.exp(-3.0 * r2)
        else:
            raise ValueError(f"unknown profile family {family!r}")
    window = np.ones(mesh.shape[:-1])
    for j in range(spec.q_total):
        window = window * smooth_bump(mesh[..., j] / (0.9 * spec.extents[j]))
    return out * window


def _derivative_sup_norms(g: GridFunction, order: int) -> float:
    """Max sup-norm of grid finite differences up to the given total order."""
    arrs = {(): g.values}
    best = float(np.abs(g.values).max())
    frontier = [()]
    for _ in range(order):
        nxt = []
        for key in frontier:
            base = arrs[key]
            for ax in range(base.ndim):
                nk = tuple(sorted(key + (ax,)))
                if nk in arrs:
                    continue
                d = np.gradient(base, g.spec.spacings[ax], axis=ax)
                arrs[nk] = d
                nxt.append(nk)
                best = max(best, float(np.abs(d).max()))
        frontier = nxt
    return best


def synth_dyadic(group: ProductGroup, n_min: int, n_max: int, family: str,
                 seed: int = 0, moment_order: int = 1, profile_N: int = 32,
                 flag_mode: bool = False,
                 memory_budget: int = 1 << 28) -> DyadicKernel:
    """Build a dyadic kernel with moment-cancelling profiles.

    The scale window is the box [n_min, n_max]^nu, intersected with the
    nonincreasing cone in flag mode.  Each profile is a smooth compactly
    supported shape from the named family with factor-mu moments up to
    `moment_order` projected out for mu in the scale's cancellation set.
    """
    if n_max < n_min:
        raise ValueError("empty scale window")
    scales = list(iproduct(range(n_min, n_max + 1), repeat=group.nu))
    if flag_mode:
        scales = [n for n in scales if all(n[i] >= n[i + 1] for i in range(len(n) - 1))]
    est = len(scales) * profile_N ** group.q_total * 16
    if est > memory_budget:
        raise ValueError(
            f"scale window needs about {est} bytes of profile storage; "
            f"budget is {memory_budget}"
        )
    spec = GridSpec(group, profile_N, 1.0)
    rng = np.random.default_rng(seed)
    profiles = {}
    bounds = {}
    for n in scales:
        sub = np.random.default_rng((seed, 1000 + hash(n) % 100000))
        raw = _profile_shape(family, group, spec, sub if family == "random" else rng)
        phi = GridFunction(spec, zero_lowest_face(raw))
        for mu in cancellation_subsets(n, group.nu, flag_mode):
            phi = enforce_moments(phi, mu, moment_order)
        phi = GridFunction(spec, zero_lowest_face(phi.values))
        profiles[n] = phi
        bounds[n] = _derivative_sup_norms(phi, moment_order)
    return DyadicKernel(
        group, scales, profiles, moment_order, flag_mode=flag_mode,
        profile_bounds=bounds,
        meta={"family": family, "seed": seed, "profile_N": profile_N,
              "n_min": n_min, "n_max": n_max},
    )


# ---------------------------------------------------------------------------
# growth and cancellation checks
# ---------------------------------------------------------------------------


@dataclass
class GrowthReport:
    mode: str
    constants: dict  # MultiIndex -> float
    argmax: dict  # MultiIndex -> coordinate tuple of the maximizing sample
    n_samples: int
    valid: bool = True
    notes: str = ""

    def max_constant(self) -> float:
        return max(self.constants.values()) if self.constants else 0.0

    def to_dict(self) -> dict:
        return {
            "mode": self.mode,
            "constants": {str(a.entries): v for a, v in self.constants.items()},
            "argmax": {str(a.entries): list(p) for a, p in self.argmax.items()},
            "n_samples": self.n_samples,
            "valid": self.valid,
            "notes": self.notes,
        }


def _growth_weights(group, norms, mode):
    """Per-factor weights w_mu: |t_mu| (product) or cumulative sums (flag)."""
    if mode == "flag":
        return np.cumsum(norms, axis=-1)
    return norms


def _alpha_axis_list(group, alpha: MultiIndex):
    axes = []
    for mu, (e, sl) in enumerate(zip(alpha.entries, group.slices)):
        for k, reps in enumerate(e):
            axes.extend([sl.start + k] * reps)
    return axes


def _fd_derivative(evalfn, pts, steps, axis_list):
    if not axis_list:
        return evalfn(pts)
    ax, rest = axis_list[0], axis_list[1:]
    e = np.zeros(pts.shape[-1])
    e[ax] = 1.0
    h = steps[..., ax][..., None] * e
    d1 = (_fd_derivative(evalfn, pts + h, steps, rest)
          - _fd_derivative(evalfn, pts - h, steps, rest)) / (2.0 * steps[..., ax])
    d2 = (_fd_derivative(evalfn, pts + 2 * h, steps, rest)
          - _fd_derivative(evalfn, pts - 2 * h, steps, rest)) / (4.0 * steps[..., ax])
    return (4.0 * d1 - d2) / 3.0


def check_growth(kernel: KernelRep, spec: GridSpec, kvec=None, alphas=None,
                 n_samples: int = 400, seed: int = 0,
                 margin_cells: float = 2.0) -> GrowthReport:
    """Empirical sup of |d^alpha K| * prod_mu w_mu^(Q_mu + deg alpha_mu).

    Samples seeded points in the grid box away from the singular set and
    the boundary; derivatives are Richardson-extrapolated central
    differences.  For a Delta kernel the constants come from the grid
    rendering and the report is flagged invalid (resolution-dependent).
    """
    group = kernel.group
    mode = kernel.mode
    if alphas is None:
        if kvec is None:
            kvec = (0,) * group.nu
        alphas = list(multi_indices_up_to(group, kvec))

    is_delta = isinstance(kernel, DeltaKernel)
    target = kernel.render(spec) if is_delta else kernel

    rng = np.random.default_rng(seed)
    cell = 2.0 * spec.T / spec.N
    lo = -spec.extents + (margin_cells + 4) * spec.spacings
    hi = spec.extents - (margin_cells + 4) * spec.spacings
    if np.any(lo >= hi):
        raise ValueError("grid too small for the requested sampling margins")

    # fixed-size candidate batches: a larger n_samples extends the accepted
    # stream, so refining the sample count never decreases a constant
    pts = []
    got = 0
    for _ in range(200):
        cand = rng.uniform(lo, hi, (512, group.q_total))
        if isinstance(target, GridKernel):
            cand = np.round(cand / spec.spacings) * spec.spacings
        norms = group.factor_norms(cand)
        w = _growth_weights(group, norms, mode)
        margin = 0.51 * cell if is_delta else margin_cells * cell
        ok = np.all(w > margin, axis=-1)
        pts.append(cand[ok])
        got += int(ok.sum())
        if got >= n_samples:
            break
    pts = np.concatenate(pts)[:n_samples]
    if pts.shape[0] < max(8, n_samples // 4):
        raise ValueError("could not sample enough points away from the singular set")

    norms = group.factor_norms(pts)
    w = _growth_weights(group, norms, mode)

    if isinstance(target, GridKernel):
        steps = np.broadcast_to(spec.spacings, pts.shape).copy()
    else:
        steps = 0.02 * (np.abs(pts) + 0.05 * spec.spacings)

    constants = {}
    argmax = {}
    for alpha in alphas:
        axes = _alpha_axis_list(group, alpha)
        vals = _fd_derivative(target.eval, pts, steps, axes)
        degs = hom_degree(group, alpha)
        weight = np.ones(pts.shape[0])
        for mu in range(group.nu):
            weight = weight * w[..., mu] ** (group.Q[mu] + degs[mu])
        scores = np.abs(vals) * weight
        best = int(np.argmax(scores))
        constants[alpha] = float(scores[best])
        argmax[alpha] = tuple(float(v) for v in pts[best])

    notes = ""
    valid = True
    if is_delta:
        valid = False
        notes = ("point mass: not a function away from the singular set; "
                 "constants taken from the grid rendering are resolution-dependent")
    return GrowthReport(mode, constants, argmax, int(pts.shape[0]), valid, notes)


# -- cancellation -----------------------------------------------------------


REDUCTION_BUMPS = ("even", "odd", "gauss")


def _reduction_bump(factor, name: str, rho: float):
    """Normalized bump on one factor; value at 0 is 1 for the even kinds."""

    def even(t):
        return smooth_bump(factor.hom_norm(t) / rho)

    def odd(t):
        return np.asarray(t)[..., 0] / rho * even(t)

    def gauss(t):
        n = factor.hom_norm(t) / rho
        return np.exp(-8.0 * n * n) * smooth_bump(n)

    table = {"even": even, "odd": odd, "gauss": gauss}
    if name not in table:
        raise ValueError(f"unknown reduction bump {name!r}")
    return table[name]


@dataclass
class CancellationEntry:
    bump: str
    R: float
    report: GrowthReport
    reduced_sup: float  # max |reduced kernel| over its rendering

    def to_dict(self) -> dict:
        return {"bump": self.bump, "R": self.R, "report": self.report.to_dict(),
                "reduced_sup": self.reduced_sup}


@dataclass
class CancellationReport:
    mu: int
    bumps: tuple
    R_values: tuple
    entries: list  # of CancellationEntry
    sup_constant: float
    c0_variation: dict  # bump -> max/min spread of the order-0 constant

    def to_dict(self) -> dict:
        return {
            "mu": self.mu,
            "bumps": list(self.bumps),
            "R_values": list(self.R_values),
            "entries": [e.to_dict() for e in self.entries],
            "sup_constant": self.sup_constant,
            "c0_variation": self.c0_variation,
        }


def _reduced_group(group, mu):
    rest = [f for i, f in enumerate(group.factors) if i != mu]
    return ProductGroup(rest)


def reduce_kernel(kernel: KernelRep, mu: int, bump: str, R: float,
                  spec: GridSpec, n_quad: int = 240) -> KernelRep:
    """Integrate the kernel over factor mu against bump(delta_R t_mu).

    Returns a kernel on the remaining factors.  Tensor kernels reduce
    structurally (the factor integral scales the remaining tensor);
    everything else is quadrature over the dilated bump support with the
    midpoint rule.
    """
    group = kernel.group
    if group.nu < 2:
        raise ValueError("need at least two factors to reduce one away")
    factor = group.factors[mu]
    rho = 0.8 * float(
        min(spec.extents[j] ** (1.0 / d)
            for j, d in zip(_factor_axis_ids(group, mu), factor.weights))
    )
    bump_fn = _reduction_bump(factor, bump, rho)

    if isinstance(kernel, TensorKernel):
        part = kernel.parts[mu]
        if isinstance(part, DeltaKernel):
            # point mass pairs with the bump's value at the identity
            scalar = part.amplitude * complex(bump_fn(np.zeros((1, factor.dim)))[0])
        else:
            pts, wq = _quad_points(factor, rho, R, n_quad)
            scalar = np.sum(part.eval(pts) * bump_fn(factor.dilate(R, pts))) * wq
        rest = [p for i, p in enumerate(kernel.parts) if i != mu]
        if len(rest) == 1:
            return _scaled_kernel(rest[0], scalar)
        return _scaled_kernel(TensorKernel(rest), scalar)

    red_group = _reduced_group(group, mu)
    red_spec = GridSpec(red_group, spec.N, spec.T)
    axes = _factor_axis_ids(group, mu)
    if isinstance(kernel, GridKernel):
        for j, d in zip(axes, factor.weights):
            if (rho / R) ** float(d) > kernel.spec.extents[j] * (1 + 1e-9):
                raise ValueError("quadrature support exceeds the kernel grid box")
    pts_mu, wq = _quad_points(factor, rho, R, n_quad)
    bump_vals = bump_fn(factor.dilate(R, pts_mu))
    keep = np.abs(bump_vals) > 0
    pts_mu, bump_vals = pts_mu[keep], bump_vals[keep]

    rest_mesh = red_spec.mesh.reshape(-1, red_group.q_total)
    out = np.zeros(rest_mesh.shape[0], dtype=complex)
    chunk = max(1, int(2e6 // max(1, pts_mu.shape[0])))
    for i0 in range(0, rest_mesh.shape[0], chunk):
        block = rest_mesh[i0:i0 + chunk]
        full = np.zeros((block.shape[0], pts_mu.shape[0], group.q_total))
        rest_axes = [j for j in range(group.q_total) if j not in axes]
        full[:, :, rest_axes] = block[:, None, :]
        full[:, :, axes] = pts_mu[None, :, :]
        vals = kernel.eval(full)
        out[i0:i0 + chunk] = np.sum(vals * bump_vals[None, :], axis=1) * wq
    return GridKernel(red_spec, out.reshape(red_spec.shape), mode=kernel.mode)


def _scaled_kernel(k: KernelRep, c) -> KernelRep:
    if isinstance(k, DeltaKernel):
        return DeltaKernel(k.group, k.amplitude * c)
    if isinstance(k, ClosedFormKernel):
        return ClosedFormKernel(k.group, k.name, amplitude=k.amplitude * c, **k.params)
    if isinstance(k, GridKernel):
        return GridKernel(k.spec, k.values * c, k.principal_value, k.mode)
    if isinstance(k, TensorKernel):
        return TensorKernel([_scaled_kernel(k.parts[0], c)] + list(k.parts[1:]))

    class _Scaled(KernelRep):
        def __init__(self, inner, c):
            self.inner, self.c = inner, c
            self.group, self.mode = inner.group, inner.mode

        def eval(self, pts):
            return self.c * self.inner.eval(pts)

        def adjoint(self):
            return _Scaled(self.inner.adjoint(), np.conj(self.c))

    return _Scaled(k, c)


def _quad_points(factor, rho, R, n_quad):
    """Midpoint-rule lattice over the dilated bump support box."""
    q = factor.dim
    n_axis = n_quad if q == 1 else max(24, int(round(n_quad ** (1.0 / q))))
    axes = []
    step = 1.0
    for d in factor.weights:
        B = (rho / R) ** float(d)
        h = 2.0 * B / n_axis
        axes.append(-B + (np.arange(n_axis) + 0.5) * h)
        step *= h
    mesh = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, q)
    return mesh, step


def check_cancellation(kernel: KernelRep, mu: int, spec: GridSpec,
                       bumps=("even",), R_values=None, kvec=None,
                       n_samples: int = 300, seed: int = 0,
                       n_quad: int = 240) -> CancellationReport:
    """Reduce over factor mu at each (bump, R) and growth-check the result.

    The order-0 spread per bump over R probes uniformity: a genuinely
    cancelling kernel gives reduced constants that do not blow up as the
    bump is dilated through the scales.
    """
    if R_values is None:
        R_values = tuple(2.0 ** p for p in range(-4, 5))
    if isinstance(bumps, str):
        bumps = (bumps,)
    red_group = _reduced_group(kernel.group, mu)
    zero = MultiIndex.zero(red_group)
    entries = []
    variation = {}
    for bump in bumps:
        c0 = []
        for R in R_values:
            red = reduce_kernel(kernel, mu, bump, float(R), spec, n_quad=n_quad)
            red_spec = red.spec if isinstance(red, GridKernel) else GridSpec(
                red_group, spec.N, spec.T)
            rep = check_growth(red, red_spec, kvec=kvec,
                               n_samples=n_samples, seed=seed)
            rendered = red.render(red_spec)
            entries.append(CancellationEntry(
                bump, float(R), rep, float(np.abs(rendered.values).max())))
            c0.append(rep.constants.get(zero, 0.0))
        c0 = np.array(c0)
        if np.all(c0 < 1e-12):
            variation[bump] = 0.0
        else:
            variation[bump] = float(c0.max() / max(c0.min(), 1e-300) - 1.0)
    sup_c = max(e.report.max_constant() for e in entries)
    return CancellationReport(
        mu, tuple(bumps), tuple(float(R) for R in R_values), entries,
        float(sup_c), variation,
    )


# ---------------------------------------------------------------------------
# adjoint and file IO
# ---------------------------------------------------------------------------


def adjoint_kernel(kernel: KernelRep) -> KernelRep:
    """K~(t) = conj K(t^{-1}); Op(K~) is the L2 adjoint of Op(K)."""
    return kernel.adjoint()


_MAGIC = b"NCKR"
_VERSION = 1
_HEADER = 64


def _pack_header(kind, nu, flags, N, T, q_list):
    head = struct.pack("<4sBBBBId", _MAGIC, _VERSION, kind, nu, flags, N, T)
    head += bytes(q_list)
    if len(head) > _HEADER:
        raise ValueError("too many factors for the header")
    return head + b"\x00" * (_HEADER - len(head))


def _unpack_header(buf):
    magic, version, kind, nu, flags, N, T = struct.unpack_from("<4sBBBBId", buf, 0)
    if magic != _MAGIC:
        raise ValueError("not a kernel file (bad magic)")
    if version != _VERSION:
        raise ValueError(f"unsupported kernel file version {version}")
    q_list = list(buf[20:20 + nu])
    return kind, nu, flags, N, T, q_list


def save_kernel(kernel: KernelRep, path: str):
    """Write a Grid or Dyadic kernel: 64-byte header, complex128 payload,
    JSON sidecar at path + '.json' with the group and representation data."""
    group = kernel.group
    q_list = list(group.q)
    if isinstance(kernel, GridKernel):
        flags = (1 if kernel.principal_value else 0) | (2 if kernel.mode == "flag" else 0)
        head = _pack_header(0, group.nu, flags, kernel.spec.N, kernel.spec.T, q_list)
        payload = np.ascontiguousarray(kernel.values).astype("<c16").tobytes()
        side = {"kind": "grid", "group": group.to_dict(),
                "principal_value": kernel.principal_value, "mode": kernel.mode}
    elif isinstance(kernel, DyadicKernel):
        spec = next(iter(kernel.profiles.values())).spec
        flags = 2 if kernel.flag_mode else 0
        head = _pack_header(1, group.nu, flags, spec.N, spec.T, q_list)
        payload = b"".join(
            np.ascontiguousarray(kernel.profiles[n].values).astype("<c16").tobytes()
            for n in kernel.window
        )
        side = {
            "kind": "dyadic", "group": group.to_dict(),
            "window": [list(n) for n in kernel.window],
            "moment_order": kernel.moment_order,
            "flag_mode": kernel.flag_mode,
            "profile_bounds": {repr(n): v for n, v in kernel.profile_bounds.items()},
            "meta": kernel.meta,
        }
    else:
        raise ValueError("only Grid and Dyadic kernels serialize to .nckr")
    with open(path, "wb") as f:
        f.write(head)
        f.write(payload)
    with open(str(path) + ".json", "w") as f:
        json.dump(side, f, indent=2, sort_keys=True)
        f.write("\n")


def load_kernel(path: str) -> KernelRep:
    with open(path, "rb") as f:
        buf = f.read()
    try:
        with open(str(path) + ".json") as f:
            side = json.load(f)
    except FileNotFoundError:
        raise ValueError("kernel sidecar JSON missing (group definition required)")
    kind, nu, flags, N, T, q_list = _unpack_header(buf)
    group = ProductGroup.from_dict(side["group"])
    if list(group.q) != q_list or group.nu != nu:
        raise ValueError("sidecar group does not match header factor dims")
    if kind == 0:
        spec = GridSpec(group, N, T)
        vals = np.frombuffer(buf[_HEADER:], dtype="<c16").reshape(spec.shape)
        return GridKernel(
            spec, vals.copy(), principal_value=bool(flags & 1),
            mode="flag" if flags & 2 else "product",
        )
    if kind == 1:
        spec = GridSpec(group, N, T)
        window = [tuple(n) for n in side["window"]]
        per = spec.size
        profiles = {}
        off = _HEADER
        for n in window:
            vals = np.frombuffer(buf, dtype="<c16", count=per, offset=off)
            profiles[n] = GridFunction(spec, vals.copy().reshape(spec.shape))
            off += per * 16
        pb = {tuple(ast.literal_eval(k)): v
              for k, v in side.get("profile_bounds", {}).items()}
        return DyadicKernel(
            group, window, profiles, side["moment_order"],
            flag_mode=side["flag_mode"], profile_bounds=pb,
            meta=side.get("meta", {}),
        )
    raise ValueError(f"unknown kernel kind {kind}")
