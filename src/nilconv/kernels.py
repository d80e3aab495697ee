"""Kernel representations and calculus-style checks on them.

Variants: Grid (sampled values), Delta (point mass), Tensor (per-factor
kernels), ClosedForm (an amplitude times a plain evaluator f(t, **params)
from the one table CLOSED_FORM_CATALOG, which also gives each evaluator's
mode, parameter defaults, group check and parity), Dyadic (sum of
anisotropically dilated, moment-cancelling profiles).
Every variant evaluates pointwise away from its singular set and renders
onto a grid.

`mode` distinguishes the two singularity geometries: "product" kernels
are singular where any factor coordinate vanishes and their growth
envelope uses per-factor norms |t_mu|; "flag" kernels are singular only
at t_1 = 0 and use the cumulative weights |t_1| + ... + |t_mu|.
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import dataclass
from functools import partial
from itertools import product as iproduct
from numbers import Integral, Real
from typing import Callable, NamedTuple

import numpy as np

from .grid import GridFunction, GridSpec, zero_lowest_face
from .product import (
    MultiIndex,
    ProductGroup,
    _exponents_up_to,
    hom_degree,
    multi_indices_up_to,
)

MAX_MOMENT_ORDER = 4
# half-width of a dyadic profile's smooth window, as a fraction of the box's;
# enforce_moments uses the same window, so its correction keeps that support
WINDOW_FRAC = 0.9


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
        flat = spec.mesh.reshape(-1, spec.q_total)
        out = np.zeros(flat.shape[0], dtype=complex)
        step = 1 << 19  # keep per-scale temporaries modest on 4-axis grids
        for i0 in range(0, flat.shape[0], step):
            out[i0:i0 + step] = self.eval(flat[i0:i0 + step])
        return GridKernel(spec, out.reshape(spec.shape), mode=self.mode)

    def adjoint(self) -> "KernelRep":
        raise NotImplementedError


class GridKernel(KernelRep):
    """Kernel given by grid samples; principal-value cells hold 0."""

    def __init__(self, spec: GridSpec, values, mode="product"):
        self.spec = spec
        self.group = spec.group
        self.data = GridFunction(spec, zero_lowest_face(values))
        self.mode = mode

    @property
    def values(self):
        return self.data.values

    def eval(self, points):
        return self.data.interp(points)

    def render(self, spec):
        if spec is self.spec or spec.compatible(self.spec):
            return self
        return GridKernel(spec, self.data.interp(spec.mesh), mode=self.mode)

    def adjoint(self):
        return GridKernel(self.spec, self.data.conj_reverse().values, mode=self.mode)


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
        return GridKernel(spec, vals, mode=self.mode)

    def adjoint(self):
        return TensorKernel([p.adjoint() for p in self.parts])


def _check_group(group, nu=None, one_dim=True):
    """Raise unless group has nu factors (None: any), all abelian, 1-D if one_dim."""
    if nu is not None and group.nu != nu:
        raise ValueError(f"closed form needs nu = {nu}")
    if one_dim and any(f.dim != 1 or f.n_layers != 1 for f in group.factors):
        raise ValueError("this closed form needs one-dimensional abelian factors")
    if any(f.n_layers != 1 for f in group.factors):
        raise ValueError("riesz profile needs an abelian factor")


def _hilbert(t, support):
    """bump(t / support) / (pi t) on one axis, 0 at t = 0."""
    t = np.asarray(t, dtype=float)[..., 0]
    out = np.zeros(t.shape, dtype=complex)
    nz = t != 0.0
    out[nz] = smooth_bump(t[nz] / float(support)) / (np.pi * t[nz])
    return out


def _riesz(t, support, axis):
    """c_q t_axis / |t|^(q+1) * bump(|t| / support) on q axes, 0 at t = 0."""
    t = np.asarray(t, dtype=float)
    q = t.shape[-1]
    c = math.gamma((q + 1) / 2.0) / math.pi ** ((q + 1) / 2.0)
    r = np.sqrt(np.sum(t * t, axis=-1))
    out = np.zeros(r.shape, dtype=complex)
    nz = r != 0.0
    out[nz] = c * t[..., int(axis)][nz] / r[nz] ** (q + 1) * smooth_bump(r[nz] / float(support))
    return out


def _inverse_product(t):
    """1 / (t_1 ... t_q), 0 where any t_j = 0."""
    t = np.asarray(t, dtype=float)
    out = np.ones(t.shape[:-1], dtype=complex)
    for j in range(t.shape[-1]):
        col = t[..., j]
        out = out * np.where(col == 0.0, 0.0, 1.0 / np.where(col == 0, 1.0, col))
    out[np.any(t == 0.0, axis=-1)] = 0.0
    return out


def _flag_inverse(t):
    """1 / (t_1 (|t_1| + |t_2|)), 0 at t_1 = 0."""
    t = np.asarray(t, dtype=float)
    t1, t2 = t[..., 0], t[..., 1]
    out = np.zeros(t1.shape, dtype=complex)
    nz = t1 != 0.0
    out[nz] = 1.0 / (t1[nz] * (np.abs(t1[nz]) + np.abs(t2[nz])))
    return out


class ClosedForm(NamedTuple):
    """One row of CLOSED_FORM_CATALOG."""
    f: Callable  # f(t, **params) on points of shape (..., q)
    mode: str
    defaults: dict  # every parameter f takes, with its default
    check: Callable  # (group) -> None or raise
    parity: Callable  # nu -> s with f(-t) = s f(t)


CLOSED_FORM_CATALOG = {
    "hilbert": ClosedForm(_hilbert, "product", {"support": 2.0},
                          partial(_check_group, nu=1), lambda nu: -1.0),
    "riesz": ClosedForm(_riesz, "product", {"support": 2.0, "axis": 0},
                        partial(_check_group, nu=1, one_dim=False), lambda nu: -1.0),
    "inverse-product": ClosedForm(_inverse_product, "product", {},
                                  _check_group, lambda nu: (-1.0) ** nu),
    "flag-inverse": ClosedForm(_flag_inverse, "flag", {},
                               partial(_check_group, nu=2), lambda nu: -1.0),
}


class ClosedFormKernel(KernelRep):
    """amplitude * f(t, **params), f the evaluator of CLOSED_FORM_CATALOG[name].

    The entry also gives the mode, the parameters f takes with their defaults
    (any other key is refused), the group check and the parity s with
    f(-t) = s f(t): the adjoint has amplitude s * conj(amplitude).  A
    support must be finite and positive, an axis an int in [0, q_total)."""

    def __init__(self, group: ProductGroup, name: str, amplitude=1.0, **params):
        if name not in CLOSED_FORM_CATALOG:
            raise ValueError(f"unknown closed form {name!r}")
        entry = CLOSED_FORM_CATALOG[name]
        entry.check(group)
        for key in params:
            if key not in entry.defaults:
                raise ValueError(f"closed form {name!r} takes no parameter {key!r}")
        self.group = group
        self.name = name
        self.amplitude = complex(amplitude)
        self.params = {**entry.defaults, **params}
        support, axis = self.params.get("support", 1.0), self.params.get("axis", 0)
        if not (isinstance(support, Real) and math.isfinite(support) and support > 0):
            raise ValueError(f"closed form {name!r}: support must be finite and > 0, "
                             f"got {support!r}")
        if isinstance(axis, bool) or not isinstance(axis, Integral) \
                or not 0 <= axis < group.q_total:
            raise ValueError(f"closed form {name!r}: axis must be an int in "
                             f"[0, {group.q_total}), got {axis!r}")
        self.mode = entry.mode

    def eval(self, points):
        return self.amplitude * CLOSED_FORM_CATALOG[self.name].f(points, **self.params)

    def adjoint(self):
        par = CLOSED_FORM_CATALOG[self.name].parity(self.group.nu)
        return ClosedFormKernel(self.group, self.name,
                                amplitude=np.conj(self.amplitude) * par, **self.params)


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
        _check_group(group, nu=1)
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
        return GridKernel(spec, vals, mode=self.mode)

    def adjoint(self):
        return DiscreteHilbertKernel(self.group, -np.conj(self.amplitude))


class DyadicKernel(KernelRep):
    """K = sum over window scales n of 2^(n.Q) phi_n(delta_{2^n} t).

    Each profile is a product over factors, phi_n(t) = prod_mu phi_n,mu(t_mu),
    and profiles[n] holds one GridFunction per factor on the factor's
    unit-box grid.  Multilinear interpolation factors by axis, so the
    product of per-factor interpolations is the interpolation of the
    product.  Factors in the cancellation set S(n) have vanishing moments
    up to `moment_order`.  In flag mode the window is restricted to
    n_1 >= ... >= n_nu and S(n) contains the factors where the scale
    strictly drops (always including the last).
    """

    def __init__(self, group, window, profiles, moment_order, flag_mode=False,
                 meta=None):
        self.group = group
        self.window = tuple(tuple(int(v) for v in n) for n in window)
        self.profiles = profiles
        self.moment_order = int(moment_order)
        self.flag_mode = bool(flag_mode)
        self.mode = "flag" if flag_mode else "product"
        self.meta = dict(meta or {})

    def scale_factor(self, n) -> float:
        return float(2.0 ** sum(nm * Qm for nm, Qm in zip(n, self.group.Q)))

    def dilated_eval(self, n, points) -> np.ndarray:
        """Single-scale term 2^(n.Q) phi_n(delta_{2^n} t)."""
        n = tuple(int(v) for v in n)
        points = np.asarray(points, dtype=float)
        parts = zip(self.profiles[n], self.group.factors, self.group.slices, n)
        out = None
        for phi, f, sl, nm in parts:
            v = phi.interp(f.dilate(2.0 ** nm, points[..., sl]))
            out = v if out is None else out * v
        return self.scale_factor(n) * out

    def eval(self, points):
        points = np.asarray(points, dtype=float)
        out = np.zeros(points.shape[:-1], dtype=complex)
        for n in self.window:
            out = out + self.dilated_eval(n, points)
        return out

    def adjoint(self):
        flipped = {n: tuple(phi.conj_reverse() for phi in parts)
                   for n, parts in self.profiles.items()}
        return DyadicKernel(
            self.group, self.window, flipped, self.moment_order,
            flag_mode=self.flag_mode, meta=self.meta,
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


def _monomial(t: np.ndarray, e) -> np.ndarray:
    """t^e on points t of shape (..., q): the product of t[..., k] ** e[k]."""
    m = np.ones(t.shape[:-1])
    for k, p in enumerate(e):
        if p:
            m = m * t[..., k] ** p
    return m


def _window(spec: GridSpec) -> np.ndarray:
    """Smooth window on spec.shape: per-axis bumps of half-width WINDOW_FRAC
    times the box's, multiplied in axis order."""
    w = np.ones(spec.shape)
    for j in range(spec.q_total):
        s = spec.axis_coords(j) / (WINDOW_FRAC * spec.extents[j])
        w = w * spec.lift(slice(j, j + 1), smooth_bump(s))
    return w


def _moment_frame(f: GridFunction, mu: int, order: int):
    """(sub, monos, flat, restore) for the factor-mu moments of f.

    sub is factor mu's grid and monos (n_mom, sub.size) holds t^beta on it
    for |beta| <= order.  flat (n_other, sub.size) holds f's values with
    factor mu's axes last; restore puts such an array back on f's grid.
    """
    spec = f.spec
    sl = spec.group.slices[mu]
    sub = spec.factor_specs[mu]
    monos = np.stack([_monomial(sub.mesh, e).reshape(-1)
                      for e in _exponents_up_to(sub.q_total, order)])
    axes, last = range(sl.start, sl.stop), range(spec.q_total - sub.q_total, spec.q_total)
    moved = np.moveaxis(f.values, axes, last)

    def restore(flat):
        return GridFunction(spec, np.moveaxis(flat.reshape(moved.shape), last, axes))

    return sub, monos, moved.reshape(-1, sub.size), restore


def enforce_moments(f: GridFunction, mu: int, order: int) -> GridFunction:
    """Project out factor-mu moments up to total degree `order`.

    Subtracts the minimal-norm correction from span{t^beta * w} with w the
    smooth WINDOW_FRAC window of the factor box, so that every slice
    integral of t^beta against the output vanishes.  Idempotent; |beta|
    ranges over total degree <= order.
    """
    if order < 0 or order > MAX_MOMENT_ORDER:
        raise ValueError(f"moment order must be in 0..{MAX_MOMENT_ORDER}")
    sub, monos, flat, restore = _moment_frame(f, mu, order)
    vol = sub.volume

    basis = monos * _window(sub).reshape(-1)  # (n_basis, m), n_basis == n_mom
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

    mom = flat @ monos.T * vol  # (n_other, n_mom)
    coef = np.linalg.solve(G, mom.T).T  # (n_other, n_basis)
    return restore(flat - coef @ U)


def factor_moments(f: GridFunction, mu: int, order: int) -> np.ndarray:
    """Max |integral of t^beta f| over slices, per exponent beta."""
    sub, monos, flat, _ = _moment_frame(f, mu, order)
    return np.abs(flat @ monos.T * sub.volume).max(axis=0)


# ---------------------------------------------------------------------------
# dyadic synthesis
# ---------------------------------------------------------------------------


def _profile_shape(family, sub, rng) -> np.ndarray:
    """One factor's raw smooth profile on its unit-box grid sub, before
    moment projection: the family's shape times the window."""
    t = sub.mesh
    r2 = np.sum(t * t, axis=-1)
    if family == "gauss-deriv":
        shape = t[..., 0] * np.exp(-4.0 * r2)
    elif family == "mexican":
        shape = (1.0 - 6.0 * r2) * np.exp(-4.0 * r2)
    elif family == "random":
        poly = np.zeros(sub.shape)
        for e in _exponents_up_to(sub.q_total, 3):
            c = rng.standard_normal()
            poly = poly + c * _monomial(t, e)
        shape = poly * np.exp(-3.0 * r2)
    else:
        raise ValueError(f"unknown profile family {family!r}")
    return shape * _window(sub)


def synth_dyadic(group: ProductGroup, n_min: int, n_max: int, family: str,
                 seed: int = 0, moment_order: int = 1, profile_N: int = 32,
                 flag_mode: bool = False) -> DyadicKernel:
    """Build a dyadic kernel with moment-cancelling profiles.

    The scale window is the box [n_min, n_max]^nu, intersected with the
    nonincreasing cone in flag mode.  Each profile is a product of smooth
    compactly supported factor shapes from the named family, each on its
    factor's profile_N grid, with moments up to `moment_order` projected
    out of factor mu for mu in the scale's cancellation set.
    """
    if n_max < n_min:
        raise ValueError("empty scale window")
    scales = list(iproduct(range(n_min, n_max + 1), repeat=group.nu))
    if flag_mode:
        scales = [n for n in scales if all(n[i] >= n[i + 1] for i in range(len(n) - 1))]
    subs = GridSpec(group, profile_N, 1.0).factor_specs
    profiles = {}
    for n in scales:
        rng = np.random.default_rng((seed, 1000 + hash(n) % 100000))
        cancel = cancellation_subsets(n, group.nu, flag_mode)
        parts = []
        for mu, sub in enumerate(subs):
            phi = GridFunction(sub, zero_lowest_face(_profile_shape(family, sub, rng)))
            if mu in cancel:
                phi = enforce_moments(phi, 0, moment_order)
            parts.append(GridFunction(sub, zero_lowest_face(phi.values)))
        profiles[n] = tuple(parts)
    return DyadicKernel(
        group, scales, profiles, moment_order, flag_mode=flag_mode,
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


def _growth_weights(norms, mode):
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


def check_growth(kernel: KernelRep, spec: GridSpec, kvec=None,
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
        w = _growth_weights(norms, mode)
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
    w = _growth_weights(norms, mode)

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
    sl = group.slices[mu]
    rho = 0.8 * float(min(e ** (1.0 / d) for e, d in zip(spec.extents[sl], factor.weights)))
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
    axes = list(range(sl.start, sl.stop))
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
        return GridKernel(k.spec, k.values * c, k.mode)
    if isinstance(k, TensorKernel):
        return TensorKernel([_scaled_kernel(k.parts[0], c)] + list(k.parts[1:]))
    return _Scaled(k, c)


class _Scaled(KernelRep):
    """c times a kernel that has no amplitude of its own."""

    def __init__(self, inner, c):
        self.inner, self.c = inner, c
        self.group, self.mode = inner.group, inner.mode

    def eval(self, pts):
        return self.c * self.inner.eval(pts)

    def adjoint(self):
        return _Scaled(self.inner.adjoint(), np.conj(self.c))


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
# version 2 stores a dyadic kernel's profiles per factor; grid payloads are
# the same as in version 1, so version-1 grid files still load.  Header flag
# bit 1 marks flag mode; older grid files may also set bit 0 and a sidecar
# "principal_value", which load_kernel ignores
_VERSION = 2
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
    if version != _VERSION and (version, kind) != (1, 0):
        raise ValueError(f"unsupported kernel file version {version}")
    q_list = list(buf[20:20 + nu])
    return kind, nu, flags, N, T, q_list


def save_kernel(kernel: KernelRep, path: str):
    """Write a Grid or Dyadic kernel: 64-byte header, complex128 payload,
    JSON sidecar at path + '.json' with the group and representation data.

    A grid payload is the values on the grid; a dyadic payload is, scale by
    scale in window order, each factor's profile on its factor grid."""
    group = kernel.group
    q_list = list(group.q)
    if isinstance(kernel, GridKernel):
        flags = 2 if kernel.mode == "flag" else 0
        head = _pack_header(0, group.nu, flags, kernel.spec.N, kernel.spec.T, q_list)
        payload = np.ascontiguousarray(kernel.values).astype("<c16").tobytes()
        side = {"kind": "grid", "group": group.to_dict(), "mode": kernel.mode}
    elif isinstance(kernel, DyadicKernel):
        spec = kernel.profiles[kernel.window[0]][0].spec
        flags = 2 if kernel.flag_mode else 0
        head = _pack_header(1, group.nu, flags, spec.N, spec.T, q_list)
        payload = b"".join(
            np.ascontiguousarray(phi.values).astype("<c16").tobytes()
            for n in kernel.window for phi in kernel.profiles[n]
        )
        side = {
            "kind": "dyadic", "group": group.to_dict(),
            "window": [list(n) for n in kernel.window],
            "moment_order": kernel.moment_order,
            "flag_mode": kernel.flag_mode,
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
        return GridKernel(spec, vals.copy(), mode="flag" if flags & 2 else "product")
    if kind == 1:
        subs = GridSpec(group, N, T).factor_specs
        window = [tuple(n) for n in side["window"]]
        profiles = {}
        off = _HEADER
        for n in window:
            parts = []
            for sub in subs:
                vals = np.frombuffer(buf, dtype="<c16", count=sub.size, offset=off)
                parts.append(GridFunction(sub, vals.copy().reshape(sub.shape)))
                off += sub.size * 16
            profiles[n] = tuple(parts)
        return DyadicKernel(
            group, window, profiles, side["moment_order"],
            flag_mode=side["flag_mode"], meta=side.get("meta", {}),
        )
    raise ValueError(f"unknown kernel kind {kind}")
