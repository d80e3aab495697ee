"""Estimators for product-kernel and flag-kernel seminorms.

A localized block is the L2 operator norm of f -> phi X^alpha (K * (gamma f)),
where phi and gamma are canonical bump multipliers supported on homogeneous
balls: phi around the origin at radius 2^j, gamma around a center z at radius
2^l, with |z| at least 3 C 2^(j v l) so the supports are separated.  Each
factor bump is normalized to unit L2 mass on the grid, which calibrates
well-separated blocks to |X^alpha K| near z; the weights |z|^(Q + deg alpha)
then make block x weight scale-free for kernels with the critical growth.

A block's only nonzero part is its |supp phi| x |supp gamma| matrix, and
each block is computed exactly from it: Op(K) takes the unit vectors of
supp gamma, scaled by gamma, in one batch, X^alpha and phi act on the
result, and the largest singular value of the rows in supp phi is the
block.  A block with more than DENSE_BLOCK_COLUMNS columns falls back to
its own Lanczos run (power_method) on its normal operator.  Blocks combine
into per-subset components.

The suprema over scales and centers are sampled on a finite lattice sized to
the grid box.  pk and fk reports are one pass over their terms: one per
nonempty subset, then, for fk, one flag term per factor, localized in that
factor alone.  _lattice builds each subset's lattice once per report, so
the flag terms share the singletons' lattices: it evaluates each factor
bump once, decides admissibility from its cells and keeps each distinct
block once, since scales whose bumps catch the same cells at the same
distances give the same block.  Reports carry the full block table, so
every reported value is an estimator of the corresponding seminorm, not a
certified bound.
"""

from __future__ import annotations

import csv
import json
import zlib
from itertools import product as iproduct
from dataclasses import dataclass, field

import numpy as np

from .convolution import (
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
    """Sampling lattice and estimator settings for seminorm reports.

    j and l both range over the inclusive integer window; gamma centers sit
    at homogeneous distance 3 C 2^(j v l) times each radius factor, along
    +-coordinate axes ("first" uses only the first coordinate of each
    factor, "axes" all of them).  C is the empirical quasi-triangle constant
    times the safety factor.

    stencil_gap is the minimum cell distance kept between the two bump
    supports.  Finite-difference derivatives reach one cell per order, so
    orders up to stencil_gap - 1 per factor see truly disjoint supports;
    raise it when requesting higher orders.

    max_iter and tol are the Lanczos step cap and drift tolerance of
    power_method, which runs only for the op_norm entry of the empty subset
    and for each block above DENSE_BLOCK_COLUMNS columns, on its own.
    Every other block is exact.
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
    t = spec.factor_specs[mu].mesh
    rel = fac.bch_multiply(fac.invert(np.asarray(center, dtype=float)), t)
    return PROFILES[profile](fac.hom_norm(rel) / radius)


def _unit_mass(spec: GridSpec, mu: int, b: np.ndarray) -> np.ndarray:
    """Factor-mu bump values b scaled to unit L2 mass on the grid."""
    nrm = float(np.sqrt(np.sum(b * b) * spec.factor_specs[mu].volume))
    if nrm == 0.0:
        raise ValueError(f"bump catches no grid point in factor {mu}")
    return b / nrm


def _outer(spec: GridSpec, factors: dict) -> np.ndarray:
    """Multiplier on spec.shape: the product of factor-local arrays, by mu."""
    vals = np.ones(spec.shape)
    for mu in sorted(factors):
        vals = vals * spec.lift(spec.group.slices[mu], factors[mu])
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


def _cell_gap(a: np.ndarray, b: np.ndarray) -> int:
    """Min Chebyshev distance in cells between two nonempty index sets."""
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


# a block with at most this many columns (sites of supp gamma) is computed
# exactly by a dense SVD; abelian2 tame reports need at most 72 at N=24, while
# a block localized in one factor next to a whole heisenberg1 factor has 512
# at N=8, and building those columns through the direct path costs more than
# a Lanczos run on them
DENSE_BLOCK_COLUMNS = 256


class BlockOperator:
    """f -> phi X^alpha (K * (gamma f)) and its exact adjoint for one block.

    op is Op(K) on spec; phi and gamma have shape spec.shape.
    """

    def __init__(self, op: ConvOp, spec: GridSpec, alpha: MultiIndex,
                 phi: np.ndarray, gamma: np.ndarray):
        self.op = op
        self.spec = spec
        self.alpha = alpha
        self.phi = phi
        self.gamma = gamma

    def _forward(self, v):
        w = self.op.apply(self.gamma * v)
        if not self.alpha.is_zero():
            w = left_derivative(w, self.alpha, self.spec)
        return self.phi * w

    def _backward(self, v):
        w = self.phi * v
        if not self.alpha.is_zero():
            w = left_derivative_adjoint(w, self.alpha, self.spec)
        return self.gamma * self.op.adjoint(w)

    def apply(self, v: GridFunction) -> GridFunction:
        """The block on one grid function."""
        return GridFunction(self.spec, self._forward(v.values))

    def apply_adjoint(self, v: GridFunction) -> GridFunction:
        """The block's adjoint on one grid function."""
        return GridFunction(self.spec, self._backward(v.values))

    def normal(self, v: np.ndarray) -> np.ndarray:
        """Adjoint after apply, on an array of shape spec.shape."""
        return self._backward(self._forward(v))

    def estimate(self, max_iter: int = 48, tol: float = 1e-11,
                 seed: int = 0) -> OpNormEstimate:
        """Lanczos estimate (power_method) of the block's norm, from below.

        Reports and localized_block use it only for blocks above
        DENSE_BLOCK_COLUMNS columns and take the exact norm of smaller ones.
        """
        return power_method(self.normal, self.spec, max_iter=max_iter, tol=tol,
                            seed=seed)


def _block_norms(op: ConvOp, spec: GridSpec, alphas, phi: np.ndarray,
                 gamma: np.ndarray, max_iter: int, tol: float, seed_for) -> list:
    """(method, block, iterations, residual) of phi X^alpha Op(K) gamma for
    each alpha.

    A block with at most DENSE_BLOCK_COLUMNS columns is exact ("dense"):
    its nonzero part has one column per site y of supp gamma, Op(K)
    applied to gamma(y) e_y, all columns in one batch shared by every
    alpha, then X^alpha and phi, kept on the rows of supp phi.  A wider
    block runs its own Lanczos estimate ("iterative") from seed_for(alpha).
    """
    cols = np.flatnonzero(gamma)
    if cols.size > DENSE_BLOCK_COLUMNS:
        out = []
        for alpha in alphas:
            est = BlockOperator(op, spec, alpha, phi, gamma).estimate(
                max_iter=max_iter, tol=tol, seed=seed_for(alpha))
            out.append(("iterative", float(est.value), est.iterations, est.residual))
        return out
    rows = np.flatnonzero(phi)
    units = np.zeros((cols.size, spec.size), dtype=complex)
    units[np.arange(cols.size), cols] = gamma.reshape(-1)[cols]
    images = op.apply(units.reshape(cols.size, *spec.shape))
    out = []
    for alpha in alphas:
        d = left_derivative(images, alpha, spec).reshape(cols.size, -1)
        M = d[:, rows] * phi.reshape(-1)[rows]
        out.append(("dense", float(np.linalg.svd(M, compute_uv=False)[0]), 0, 0.0))
    return out


def _block_multipliers(spec: GridSpec, subset, phi_spec: dict, gamma_spec: dict,
                       sep_constants, profile: str):
    """Validated bump multipliers (phi, gamma) of one localized block."""
    group = spec.group
    if set(phi_spec) != set(subset) or set(gamma_spec) != set(subset):
        raise ValueError("phi_spec and gamma_spec must cover exactly the subset")
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

    def multiplier(parts):
        return _outer(spec, {mu: _unit_mass(spec, mu, _factor_bump(spec, mu, c, r, profile))
                             for mu, (c, r) in parts.items()})

    return multiplier(phi_spec), multiplier(gamma_spec)


def block_operator(K, spec: GridSpec, alpha: MultiIndex, subset, phi_spec: dict,
                   gamma_spec: dict, sep_constants=None, profile: str = "bump") -> BlockOperator:
    """Validated localized block operator; K is a kernel or a ConvOp on spec.

    phi_spec and gamma_spec map each mu in subset to (center, radius); the
    supports must fit the grid box and be separated by 3 C_mu (by default
    as in SeminormConfig()) times the larger radius in every localized factor.
    """
    if sep_constants is None:
        sep_constants = _separations(spec, SeminormConfig())
    phi, gamma = _block_multipliers(spec, tuple(sorted(subset)), phi_spec, gamma_spec,
                                    sep_constants, profile)
    return BlockOperator(prepare(K, spec), spec, alpha, phi, gamma)


def localized_block(K, spec: GridSpec, alpha: MultiIndex, subset, phi_spec: dict,
                    gamma_spec: dict, sep_constants=None, profile: str = "bump",
                    max_iter: int = 48, tol: float = 1e-11, seed: int = 0) -> float:
    """Norm of the localized block operator, as a report row computes it:
    exact for at most DENSE_BLOCK_COLUMNS columns, else the Lanczos estimate
    from max_iter, tol and seed (see _block_norms).
    """
    op = block_operator(K, spec, alpha, subset, phi_spec, gamma_spec,
                        sep_constants=sep_constants, profile=profile)
    return _block_norms(op.op, spec, [alpha], op.phi, op.gamma, max_iter, tol,
                        lambda _: seed)[0][1]


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

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    def export_csv(self, path) -> None:
        cols = ["label", "alpha", "j", "l", "z_norms", "block", "weight",
                "value", "method", "iterations", "residual"]
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
                    row["method"],
                    row["iterations"],
                    f"{row['residual']:.3g}",
                ])


def _lattice(spec: GridSpec, cfg: SeminormConfig, subset, seps) -> list:
    """Each distinct admissible block of one localized subset, once, as
    (j, l, parts, dists, phi, gamma), in lattice order.

    phi has radius 2^j at the origin of every factor in subset; parts[mu]
    is gamma's (center, 2^l), the center at distance dists[mu] =
    3 C_mu 2^(j v l) rho along a candidate axis, which separates the
    supports.  A sample is admissible when both bumps fit the grid box,
    catch a grid cell and stay cfg.stencil_gap cells apart in every
    localized factor, so finite differences of total order below the gap
    cannot couple them.  The lattice does not depend on the derivative
    orders, which keeps reports monotone in the order budget.

    Each factor bump is evaluated once, for its cells and its unit-mass
    values.  A sample whose factor multipliers and distances repeat an
    earlier one's is the same block with the same weight and is dropped.
    Raises ValueError when no sample is admissible.
    """
    group = spec.group
    window = range(int(cfg.j_window[0]), int(cfg.j_window[1]) + 1)
    bumps = {}

    def bump(mu, center, radius):
        # (cells, unit-mass values) of one factor bump; None if inadmissible
        key = (mu, center, radius)
        if key not in bumps:
            bumps[key] = None
            if _ball_fits_box(spec, mu, center, radius):
                b = _factor_bump(spec, mu, center, radius, cfg.profile)
                cells = np.argwhere(b > 0.0)
                if cells.size:
                    bumps[key] = (cells, _unit_mass(spec, mu, b))
        return bumps[key]

    def gamma_options(mu, j, l, phi_cells):
        out = []
        for rho in cfg.radius_factors:
            dist = 3.0 * seps[mu] * (2.0 ** max(j, l)) * rho
            for c in _center_candidates(group.factors[mu], dist, cfg.directions):
                g = bump(mu, c, 2.0 ** l)
                if g is not None and _cell_gap(phi_cells, g[0]) >= cfg.stencil_gap:
                    out.append((c, dist, g[1]))
        return out

    samples, seen = [], set()
    for j in window:
        phi = {mu: bump(mu, (0.0,) * group.factors[mu].dim, 2.0 ** j) for mu in subset}
        if any(b is None for b in phi.values()):
            continue
        phi_key = tuple(phi[mu][1].tobytes() for mu in subset)
        phi_full = _outer(spec, {mu: phi[mu][1] for mu in subset})
        for l in window:
            per_factor = [gamma_options(mu, j, l, phi[mu][0]) for mu in subset]
            for choice in iproduct(*per_factor):
                centers, dists, gammas = (dict(zip(subset, col)) for col in zip(*choice))
                key = (phi_key, tuple(g.tobytes() for g in gammas.values()),
                       tuple(dists.values()))
                if key not in seen:
                    seen.add(key)
                    parts = {mu: (c, 2.0 ** l) for mu, c in centers.items()}
                    samples.append((j, l, parts, dists, phi_full, _outer(spec, gammas)))
    if not samples:
        raise ValueError(
            f"no admissible (j, l, z) sample fits the grid box for subset {subset}; "
            "shrink j_window or radius_factors"
        )
    return samples


def _separations(spec: GridSpec, cfg: SeminormConfig) -> tuple:
    return tuple(cfg.safety * c for c in spec.group.triangle_constants())


def check_sampling(spec: GridSpec, cfg: SeminormConfig | None = None) -> None:
    """Raise the ValueError a pk or fk report on spec would raise for an
    empty sample lattice, without any kernel.

    Admissibility depends only on the grid, its group and cfg.  Every
    nonempty subset's _lattice is built; the flag blocks of fk localize
    the singletons among them.
    """
    cfg = cfg if cfg is not None else SeminormConfig()
    seps = _separations(spec, cfg)
    for subset in all_subsets(spec.group.nu):
        if subset:
            _lattice(spec, cfg, subset, seps)


def _evaluate_blocks(op, spec, cfg, kvec, term, samples, blocks_out):
    """Max of block x weight over the _lattice samples of one report term;
    returns (value, best).

    term is (label, subset, tails).  The alphas range over the union of the
    tails, and a block's weight is the product over mu in subset of
    |z_mu|^(sum over nu in tails[mu] of Q_nu + deg_nu alpha).  The samples
    are distinct blocks already.  Each gets every alpha's block from
    _block_norms; rows keep alpha-major order.
    """
    label, subset, tails = term
    group = spec.group
    scope = sorted(set().union(*tails.values()))
    alphas = list(multi_indices_up_to(group, zero_outside(kvec, scope), scope))
    found = [
        _block_norms(op, spec, alphas, phi, gamma, cfg.max_iter, cfg.tol,
                     lambda alpha, j=j, l=l, parts=parts: _block_seed(
                         cfg.seed, label, alpha.entries, j, l,
                         tuple(sorted(parts.items()))))
        for j, l, parts, _, phi, gamma in samples
    ]

    best_val = -1.0
    best = None
    for a, alpha in enumerate(alphas):
        degs = hom_degree(group, alpha)
        for (j, l, parts, dists, _, _), per_alpha in zip(samples, found):
            method, block, iterations, residual = per_alpha[a]
            weight = 1.0
            for mu in subset:
                weight *= dists[mu] ** sum(group.Q[v] + degs[v] for v in tails[mu])
            value = block * weight
            row = {
                "label": label,
                "subset": list(subset),
                "alpha": [list(e) for e in alpha.entries],
                "j": j,
                "l": l,
                "z": {str(mu): list(parts[mu][0]) for mu in subset},
                "dists": [dists[mu] for mu in subset],
                "block": block,
                "weight": weight,
                "value": value,
                "method": method,
                "iterations": iterations,
                "residual": residual,
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


def _report(K, spec: GridSpec, kvec, cfg: SeminormConfig | None,
            flag: bool) -> SeminormReport:
    """The pk report, or with flag the fk report, in one pass over its terms.

    A term (label, subset, tails) localizes the factors of subset and
    differentiates each localized mu along the factors tails[mu].  The
    product terms are ("S=(...)", s, {mu: (mu,)}) for each nonempty subset
    s; the flag terms ("flag mu=m", (m,), {m: (m, ..., nu-1)}) follow them.
    Each subset's _lattice is built once, so the flag terms reuse the
    product singletons' lattices.
    """
    cfg = cfg if cfg is not None else SeminormConfig()
    kvec = _check_kvec(spec, kvec, cfg)
    nu = spec.group.nu
    seps = _separations(spec, cfg)
    op = prepare(K, spec)
    opn = op_norm(op, spec, max_iter=cfg.max_iter, tol=cfg.tol, seed=cfg.seed)
    lattices, blocks = {}, []

    def entry(label, subset, tails):
        if subset not in lattices:
            lattices[subset] = _lattice(spec, cfg, subset, seps)
        value, best = _evaluate_blocks(op, spec, cfg, kvec, (label, subset, tails),
                                       lattices[subset], blocks)
        return SubsetEntry(label=label, subset=subset, value=value, best=best)

    entries = [SubsetEntry(label="S=()", subset=(), value=float(opn.value), best=None)]
    entries += [entry("S=" + str(s), s, {mu: (mu,) for mu in s})
                for s in all_subsets(nu) if s]
    flag_entries = [entry(f"flag mu={m}", (m,), {m: tuple(range(m, nu))})
                    for m in range(nu)] if flag else []
    kind = "flag" if flag else "product"
    return SeminormReport(
        kind=kind,
        kvec=kvec,
        entries=entries,
        flag_entries=flag_entries,
        total=float(sum(e.value for e in entries) + sum(e.value for e in flag_entries)),
        op_norm_estimate=opn,
        blocks=blocks,
        config=_resolved_config(spec, cfg, kvec, kind, seps),
    )


def pk_seminorm(K, spec: GridSpec, kvec=None, cfg: SeminormConfig | None = None) -> SeminormReport:
    """Product-kernel seminorm estimate: sum over subsets of weighted blocks.

    The empty subset contributes op_norm(K); each nonempty subset contributes
    the max over sampled (alpha, j, l, z) of block x prod |z|^(Q + deg alpha).
    """
    return _report(K, spec, kvec, cfg, flag=False)


def fk_seminorm(K, spec: GridSpec, kvec=None, cfg: SeminormConfig | None = None) -> SeminormReport:
    """Flag-kernel seminorm estimate.

    Adds to the product total, for each factor mu, blocks localized in mu
    alone with derivatives ranging over factors mu..nu and the stacked
    weight |z_mu|^(sum over later factors of Q + deg alpha).
    """
    return _report(K, spec, kvec, cfg, flag=True)
