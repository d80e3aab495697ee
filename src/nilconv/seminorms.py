"""Estimators for product-kernel and flag-kernel seminorms.

A localized block is the L2 operator norm of f -> phi X^alpha (K * (gamma f)),
where phi and gamma are canonical bump multipliers supported on homogeneous
balls: phi around the origin at radius 2^j, gamma around a center z at radius
2^l, with |z| at least 3 C 2^(j v l) so the supports are separated.  Each
factor bump is normalized to unit L2 mass on the grid, which calibrates
well-separated blocks to |X^alpha K| near z; the weights |z|^(Q + deg alpha)
then make block x weight scale-free for kernels with the critical growth.
Blocks are estimated by power iteration on the normal operator and combined
into per-subset components.

The suprema over scales and centers are sampled on a finite lattice sized to
the grid box; reports carry the full block table, so every reported value is
an estimator of the corresponding seminorm, not a certified bound.
"""

from __future__ import annotations

import csv
import json
import zlib
from itertools import product as iproduct
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .convolution import (
    PAIR_BUDGET,
    ConvOp,
    OpNormEstimate,
    apply_op,  # noqa: F401  (public name of this module; bench/test_bench.py reads it)
    left_derivative,
    left_derivative_adjoint,
    op_norm,
    power_method,
    prepare,
)
from .grid import GridFunction, GridSpec
from .kernels import smooth_bump
from .product import (
    MultiIndex,
    all_subsets,
    hom_degree,
    multi_indices_up_to,
    zero_outside,
)


def _bump_squared(s):
    b = smooth_bump(s)
    return b * b


PROFILES = {"bump": smooth_bump, "bump2": _bump_squared}


@dataclass(frozen=True)
class SeminormConfig:
    """Sampling lattice and estimator budget for seminorm reports.

    j and l both range over the inclusive integer window; gamma centers sit
    at homogeneous distance 3 C 2^(j v l) times each radius factor, along
    +-coordinate axes ("first" uses only the first coordinate of each
    factor, "axes" all of them).  C is the empirical quasi-triangle constant
    times the safety factor.

    stencil_gap is the minimum cell distance kept between the two bump
    supports.  Finite-difference derivatives reach one cell per order, so
    orders up to stencil_gap - 1 per factor see truly disjoint supports;
    raise it when requesting higher orders.
    """

    kvec: tuple | None = None
    j_window: tuple = (-4, -2)
    radius_factors: tuple = (1.0, 1.6)
    directions: str = "first"
    safety: float = 1.1
    profile: str = "bump"
    stencil_gap: int = 3
    max_iter: int = 48
    tol: float = 1e-11
    seed: int = 0
    budget: int = PAIR_BUDGET

    def __post_init__(self):
        j_min, j_max = self.j_window
        if int(j_max) - int(j_min) < 2:
            raise ValueError("j_window must span at least 3 integers")
        if not self.radius_factors or min(self.radius_factors) < 1.0:
            raise ValueError("radius_factors must all be >= 1")
        if self.directions not in ("first", "axes"):
            raise ValueError("directions must be 'first' or 'axes'")
        if self.profile not in PROFILES:
            raise ValueError(f"unknown bump profile {self.profile!r}")
        if self.stencil_gap < 1:
            raise ValueError("stencil_gap must be at least 1 cell")
        if self.max_iter < 8:
            raise ValueError("max_iter must be at least 8")

    def to_dict(self) -> dict:
        return {
            "kvec": None if self.kvec is None else list(self.kvec),
            "j_window": list(self.j_window),
            "radius_factors": list(self.radius_factors),
            "directions": self.directions,
            "safety": self.safety,
            "profile": self.profile,
            "stencil_gap": self.stencil_gap,
            "max_iter": self.max_iter,
            "tol": self.tol,
            "seed": self.seed,
        }


def _block_seed(base: int, *key) -> int:
    text = repr((base,) + key).encode()
    return zlib.crc32(text)


def _factor_bump(spec: GridSpec, mu: int, center, radius: float, profile: str):
    """Bump of the factor-mu homogeneous distance to center, factor-local."""
    fac = spec.group.factors[mu]
    sl = spec.group.slices[mu]
    axes = [spec.axis_coords(j) for j in range(sl.start, sl.stop)]
    t = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)
    rel = fac.bch_multiply(fac.invert(np.asarray(center, dtype=float)), t)
    return PROFILES[profile](fac.hom_norm(rel) / radius)


def _bump_multiplier(spec: GridSpec, parts: dict, profile: str) -> np.ndarray:
    vals = np.ones(spec.shape)
    for mu in sorted(parts):
        center, radius = parts[mu]
        b = _factor_bump(spec, mu, center, radius, profile)
        sl = spec.group.slices[mu]
        facvol = float(np.prod([spec.spacings[j] for j in range(sl.start, sl.stop)]))
        nrm = float(np.sqrt(np.sum(b * b) * facvol))
        if nrm == 0.0:
            raise ValueError(f"bump catches no grid point in factor {mu}")
        shape = [1] * spec.q_total
        for j in range(sl.start, sl.stop):
            shape[j] = spec.N
        vals = vals * (b / nrm).reshape(shape)
    return vals


def _ball_coord_bounds(fac, center, radius: float):
    """Per-coordinate bounds of B(center, radius), via covering-box corners.

    The coordinate box {|u_j| <= r^(d_j)} covers the homogeneous ball, and
    the group-law polynomials are affine in each u coordinate for step <= 2
    factors, so corners bound the coordinate sway of center * u.
    """
    steps = [radius ** float(w) for w in fac.weights]
    corners = np.array(list(iproduct(*[(-s, s) for s in steps])))
    pts = fac.bch_multiply(np.asarray(center, dtype=float), corners)
    return pts.min(axis=0), pts.max(axis=0)


def _ball_fits_box(spec: GridSpec, mu: int, center, radius: float) -> bool:
    fac = spec.group.factors[mu]
    sl = spec.group.slices[mu]
    lo, hi = _ball_coord_bounds(fac, center, radius)
    for j_local in range(fac.dim):
        axis = sl.start + j_local
        h = spec.spacings[axis]
        if lo[j_local] < -(spec.N // 2) * h - 1e-12:
            return False
        if hi[j_local] > (spec.N // 2 - 1) * h + 1e-12:
            return False
    return True


def _factor_support_cells(spec: GridSpec, mu: int, center, radius: float,
                          profile: str) -> np.ndarray:
    """Grid cells (factor-local indices) where the bump is positive."""
    return np.argwhere(_factor_bump(spec, mu, center, radius, profile) > 0.0)


def _cell_gap(a: np.ndarray, b: np.ndarray) -> int:
    """Min Chebyshev distance in cells between two index sets."""
    if a.size == 0 or b.size == 0:
        return -1
    d = np.abs(a[:, None, :] - b[None, :, :]).max(axis=-1)
    return int(d.min())


def _center_candidates(fac, distance: float, directions: str):
    axes = range(fac.dim) if directions == "axes" else range(1)
    out = []
    for k in axes:
        step = distance ** float(fac.weights[k])
        for sign in (1.0, -1.0):
            c = [0.0] * fac.dim
            c[k] = sign * step
            out.append(tuple(c))
    return out


class BlockOperator:
    """f -> phi X^alpha (K * (gamma f)) and its exact adjoint; op is Op(K) on spec."""

    def __init__(self, op: ConvOp, spec: GridSpec, alpha: MultiIndex,
                 phi: np.ndarray, gamma: np.ndarray):
        self.op = op
        self.spec = spec
        self.alpha = alpha
        self.phi = phi
        self.gamma = gamma

    def apply(self, v: GridFunction) -> GridFunction:
        w = GridFunction(self.spec, self.op.apply(self.gamma * v.values))
        if not self.alpha.is_zero():
            w = left_derivative(w, self.alpha)
        return GridFunction(self.spec, self.phi * w.values)

    def apply_adjoint(self, v: GridFunction) -> GridFunction:
        w = GridFunction(self.spec, self.phi * v.values)
        if not self.alpha.is_zero():
            w = left_derivative_adjoint(w, self.alpha)
        return GridFunction(self.spec, self.gamma * self.op.adjoint(w.values))

    def normal(self, v: np.ndarray) -> np.ndarray:
        """Adjoint after apply, on an array of shape spec.shape."""
        return self.apply_adjoint(self.apply(GridFunction(self.spec, v))).values

    def estimate(self, max_iter: int = 48, tol: float = 1e-11,
                 seed: int = 0) -> OpNormEstimate:
        return power_method(self.normal, self.spec, max_iter=max_iter,
                            tol=tol, seed=seed)


def block_operator(K, spec: GridSpec, alpha: MultiIndex, subset, phi_spec: dict,
                   gamma_spec: dict, sep_constants=None, profile: str = "bump",
                   budget: int = PAIR_BUDGET) -> BlockOperator:
    """Validated localized block operator; K is a kernel or a ConvOp on spec.

    phi_spec and gamma_spec map each mu in subset to (center, radius); the
    supports must fit the grid box and be separated by 3 C_mu times the
    larger radius in every localized factor.
    """
    subset = tuple(sorted(subset))
    group = spec.group
    if set(phi_spec) != set(subset) or set(gamma_spec) != set(subset):
        raise ValueError("phi_spec and gamma_spec must cover exactly the subset")
    if sep_constants is None:
        sep_constants = tuple(1.1 * c for c in group.triangle_constants())
    for mu in subset:
        fac = group.factors[mu]
        C = sep_constants[mu]
        for label, (center, radius) in (("phi", phi_spec[mu]), ("gamma", gamma_spec[mu])):
            if not _ball_fits_box(spec, mu, center, radius):
                raise ValueError(
                    f"{label} bump support exceeds the grid box in factor {mu}"
                )
        w = np.asarray(phi_spec[mu][0], dtype=float)
        z = np.asarray(gamma_spec[mu][0], dtype=float)
        dist = float(fac.hom_norm(fac.bch_multiply(w, fac.invert(z))))
        need = 3.0 * C * max(phi_spec[mu][1], gamma_spec[mu][1])
        if dist < need * (1.0 - 1e-12):
            raise ValueError(
                f"separation violated in factor {mu}: |w z^-1| = {dist:.4g} < {need:.4g}"
            )
    phi = _bump_multiplier(spec, phi_spec, profile)
    gamma = _bump_multiplier(spec, gamma_spec, profile)
    return BlockOperator(prepare(K, spec, budget), spec, alpha, phi, gamma)


def localized_block(K, spec: GridSpec, alpha: MultiIndex, subset, phi_spec: dict,
                    gamma_spec: dict, sep_constants=None, profile: str = "bump",
                    max_iter: int = 48, tol: float = 1e-11, seed: int = 0,
                    budget: int = PAIR_BUDGET) -> float:
    """Power-iteration estimate of the localized block operator norm."""
    op = block_operator(K, spec, alpha, subset, phi_spec, gamma_spec,
                        sep_constants=sep_constants, profile=profile, budget=budget)
    return float(op.estimate(max_iter=max_iter, tol=tol, seed=seed).value)


@dataclass
class SubsetEntry:
    label: str
    subset: tuple
    value: float
    best: dict | None

    def to_dict(self) -> dict:
        return {
            "label": self.label,
            "subset": list(self.subset),
            "value": self.value,
            "best": self.best,
        }


@dataclass
class SeminormReport:
    kind: str
    kvec: tuple
    entries: list
    flag_entries: list
    total: float
    op_norm_estimate: OpNormEstimate
    blocks: list = field(repr=False)
    config: dict

    def value_for(self, subset) -> float:
        key = tuple(sorted(subset))
        for e in self.entries:
            if e.subset == key:
                return e.value
        raise KeyError(f"no entry for subset {key}")

    def flag_value(self, mu: int) -> float:
        for e in self.flag_entries:
            if e.subset == (mu,):
                return e.value
        raise KeyError(f"no flag entry for factor {mu}")

    @property
    def pk_total(self) -> float:
        return float(sum(e.value for e in self.entries))

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "kvec": list(self.kvec),
            "total": self.total,
            "entries": [e.to_dict() for e in self.entries],
            "flag_entries": [e.to_dict() for e in self.flag_entries],
            "op_norm": self.op_norm_estimate.to_dict(),
            "blocks": self.blocks,
            "config": self.config,
        }

    def to_json(self, path=None) -> str:
        text = json.dumps(self.to_dict(), indent=2, sort_keys=True)
        if path is not None:
            with open(path, "w") as fh:
                fh.write(text)
        return text

    def export_csv(self, path) -> None:
        cols = ["label", "alpha", "j", "l", "z_norms", "block", "weight",
                "value", "iterations", "residual"]
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(cols)
            for row in self.blocks:
                writer.writerow([
                    row["label"],
                    " ".join(str(tuple(e)) for e in row["alpha"]),
                    row["j"],
                    row["l"],
                    " ".join(f"{d:.6g}" for d in row["dists"]),
                    f"{row['block']:.12g}",
                    f"{row['weight']:.12g}",
                    f"{row['value']:.12g}",
                    row["iterations"],
                    f"{row['residual']:.3g}",
                ])


def _subset_samples(spec: GridSpec, cfg: SeminormConfig, subset, seps):
    """All admissible (j, l, parts, dists) tuples for one localized subset.

    Admissibility: both bump supports fit the grid box, both catch at least
    one grid cell, and the two cell sets are at least cfg.stencil_gap cells
    apart in every localized factor, so finite differences of total order
    below the gap cannot couple them.  The lattice does not depend on the
    derivative orders, which keeps reports monotone in the order budget.
    """
    group = spec.group
    j_min, j_max = int(cfg.j_window[0]), int(cfg.j_window[1])
    window = range(j_min, j_max + 1)

    phi_cells = {}
    for j in window:
        r_phi = 2.0 ** j
        cells = {}
        for mu in subset:
            origin = (0.0,) * group.factors[mu].dim
            if not _ball_fits_box(spec, mu, origin, r_phi):
                cells = None
                break
            cc = _factor_support_cells(spec, mu, origin, r_phi, cfg.profile)
            if cc.size == 0:
                cells = None
                break
            cells[mu] = cc
        if cells is not None:
            phi_cells[j] = cells

    gamma_cache = {}

    def gamma_options(mu, l, m):
        key = (mu, l, m)
        if key not in gamma_cache:
            fac = group.factors[mu]
            r_gam = 2.0 ** l
            opts = []
            for rho in cfg.radius_factors:
                dist = 3.0 * seps[mu] * (2.0 ** m) * rho
                for c in _center_candidates(fac, dist, cfg.directions):
                    if not _ball_fits_box(spec, mu, c, r_gam):
                        continue
                    cc = _factor_support_cells(spec, mu, c, r_gam, cfg.profile)
                    if cc.size == 0:
                        continue
                    opts.append((c, dist, cc))
            gamma_cache[key] = opts
        return gamma_cache[key]

    samples = []
    for j in sorted(phi_cells):
        pc = phi_cells[j]
        for l in window:
            r_gam = 2.0 ** l
            per_factor = []
            for mu in subset:
                opts = [
                    (c, dist)
                    for c, dist, cc in gamma_options(mu, l, max(j, l))
                    if _cell_gap(pc[mu], cc) >= cfg.stencil_gap
                ]
                per_factor.append(opts)
            if any(not opts for opts in per_factor):
                continue
            idx = [0] * len(subset)
            while True:
                parts = {}
                dists = {}
                for pos, mu in enumerate(subset):
                    c, dist = per_factor[pos][idx[pos]]
                    parts[mu] = (c, r_gam)
                    dists[mu] = dist
                samples.append((j, l, parts, dists))
                pos = len(subset) - 1
                while pos >= 0:
                    idx[pos] += 1
                    if idx[pos] < len(per_factor[pos]):
                        break
                    idx[pos] = 0
                    pos -= 1
                if pos < 0:
                    break
    return samples


def _evaluate_blocks(op, spec, cfg, subset, alphas, samples, seps, weight_fn,
                     label, blocks_out):
    """Max of block x weight over the sample lattice; returns (value, best)."""
    group = spec.group
    best_val = -1.0
    best = None
    for alpha in alphas:
        degs = hom_degree(group, alpha)
        for (j, l, parts, dists) in samples:
            phi_spec = {mu: ((0.0,) * group.factors[mu].dim, 2.0 ** j) for mu in subset}
            seed = _block_seed(cfg.seed, label, alpha.entries, j, l,
                               tuple(sorted(parts.items())))
            block = block_operator(op, spec, alpha, subset, phi_spec, parts,
                                   sep_constants=seps, profile=cfg.profile)
            est = block.estimate(max_iter=cfg.max_iter, tol=cfg.tol, seed=seed)
            weight = weight_fn(degs, dists)
            value = float(est.value) * weight
            row = {
                "label": label,
                "subset": list(subset),
                "alpha": [list(e) for e in alpha.entries],
                "j": j,
                "l": l,
                "z": {str(mu): list(parts[mu][0]) for mu in subset},
                "dists": [dists[mu] for mu in subset],
                "block": float(est.value),
                "weight": weight,
                "value": value,
                "iterations": est.iterations,
                "residual": est.residual,
            }
            blocks_out.append(row)
            if value > best_val:
                best_val = value
                best = row
    return max(best_val, 0.0), best


def _resolved_config(spec: GridSpec, cfg: SeminormConfig, kvec, kind, seps) -> dict:
    out = cfg.to_dict()
    out.update({
        "kind": kind,
        "kvec": list(kvec),
        "N": spec.N,
        "T": spec.T,
        "group": spec.group.to_dict(),
        "sep_constants": [float(c) for c in seps],
    })
    return out


def _check_kvec(spec: GridSpec, kvec, cfg: SeminormConfig):
    if kvec is None:
        kvec = cfg.kvec
    if kvec is None:
        raise ValueError("kvec required (argument or config)")
    kvec = tuple(int(k) for k in kvec)
    if len(kvec) != spec.group.nu:
        raise ValueError("kvec needs one order per factor")
    if any(k < 0 for k in kvec):
        raise ValueError("kvec entries must be nonnegative")
    return kvec


def pk_seminorm(K, spec: GridSpec, kvec=None, cfg: SeminormConfig | None = None) -> SeminormReport:
    """Product-kernel seminorm estimate: sum over subsets of weighted blocks.

    The empty subset contributes op_norm(K); each nonempty subset contributes
    the max over sampled (alpha, j, l, z) of block x prod |z|^(Q + deg alpha).
    """
    cfg = cfg if cfg is not None else SeminormConfig()
    kvec = _check_kvec(spec, kvec, cfg)
    group = spec.group
    seps = tuple(cfg.safety * c for c in group.triangle_constants())
    op = prepare(K, spec, cfg.budget)

    opn = op_norm(op, spec, max_iter=max(cfg.max_iter, 8), tol=cfg.tol,
                  seed=cfg.seed)
    entries = [SubsetEntry(label="S=()", subset=(), value=float(opn.value), best=None)]
    blocks: list = []
    for subset in all_subsets(group.nu):
        if not subset:
            continue
        samples = _subset_samples(spec, cfg, subset, seps)
        if not samples:
            raise ValueError(
                f"no admissible (j, l, z) sample fits the grid box for subset {subset}; "
                "shrink j_window or radius_factors"
            )
        alphas = list(multi_indices_up_to(group, zero_outside(kvec, subset), subset))
        label = "S=" + str(tuple(subset))

        def weight_fn(degs, dists, subset=subset):
            w = 1.0
            for mu in subset:
                w *= dists[mu] ** (group.Q[mu] + degs[mu])
            return w

        value, best = _evaluate_blocks(op, spec, cfg, subset, alphas, samples,
                                       seps, weight_fn, label, blocks)
        entries.append(SubsetEntry(label=label, subset=tuple(subset), value=value,
                                   best=best))
    total = float(sum(e.value for e in entries))
    return SeminormReport(
        kind="product",
        kvec=kvec,
        entries=entries,
        flag_entries=[],
        total=total,
        op_norm_estimate=opn,
        blocks=blocks,
        config=_resolved_config(spec, cfg, kvec, "product", seps),
    )


def fk_seminorm(K, spec: GridSpec, kvec=None, cfg: SeminormConfig | None = None) -> SeminormReport:
    """Flag-kernel seminorm estimate.

    Adds to the product total, for each factor mu, blocks localized in mu
    alone with derivatives ranging over factors mu..nu and the stacked
    weight |z_mu|^(sum over later factors of Q + deg alpha).
    """
    cfg = cfg if cfg is not None else SeminormConfig()
    kvec = _check_kvec(spec, kvec, cfg)
    group = spec.group
    seps = tuple(cfg.safety * c for c in group.triangle_constants())
    op = prepare(K, spec, cfg.budget)

    base = pk_seminorm(op, spec, kvec, cfg)
    blocks = list(base.blocks)
    flag_entries = []
    for mu in range(group.nu):
        tail = tuple(range(mu, group.nu))
        subset = (mu,)
        samples = _subset_samples(spec, cfg, subset, seps)
        if not samples:
            raise ValueError(
                f"no admissible (j, l, z) sample fits the grid box for factor {mu}; "
                "shrink j_window or radius_factors"
            )
        alphas = list(multi_indices_up_to(group, zero_outside(kvec, tail), tail))
        label = f"flag mu={mu}"

        def weight_fn(degs, dists, mu=mu, tail=tail):
            expo = sum(group.Q[mb] + degs[mb] for mb in tail)
            return dists[mu] ** expo

        value, best = _evaluate_blocks(op, spec, cfg, subset, alphas, samples,
                                       seps, weight_fn, label, blocks)
        flag_entries.append(SubsetEntry(label=label, subset=subset, value=value,
                                        best=best))
    total = float(base.total + sum(e.value for e in flag_entries))
    return SeminormReport(
        kind="flag",
        kvec=kvec,
        entries=base.entries,
        flag_entries=flag_entries,
        total=total,
        op_norm_estimate=base.op_norm_estimate,
        blocks=blocks,
        config=_resolved_config(spec, cfg, kvec, "flag", seps),
    )
