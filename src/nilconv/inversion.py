"""Neumann-series inversion of grid convolution operators.

For an invertible Op(K), a damping factor eps > 0 makes
S = I - eps Op(K~) Op(K) a contraction; the geometric series in S then
inverts eps Op(K~) Op(K), and composing with Op(K~) gives
Op(K)^{-1} = eps (sum_n S^n) Op(K~).  Everything is assembled on the
kernel side: the partial sums are applied to the discrete delta, whose
image is the kernel of the accumulated operator, and one final step
composes it with K~: on an abelian group the prepared Op(K~) applied to
that kernel, elsewhere a convolution against K~'s kernel.  A tensor
kernel's series runs in per-factor Krylov coordinates (_FactorSeries): its
normal is the tensor product of the factors' normals, so each step costs
one normal per factor on the factor's own grid, and the work grid holds
only the partial sum, formed once.

A rendered operator can be far worse conditioned than its continuum
model: box restriction traps a few directions at small singular values
(any real odd kernel has exact symbol zeros at the mean and Nyquist
frequencies).  Fully inverting those directions amplifies grid
artifacts by 1/sigma, so neumann_invert supports Landweber-style early
stopping: directions with sigma below sigma_max / cond_cap count as
unresolved at this grid, and the series stops before their partial sums
exceed amplification_cap.  Delta kernels and well-conditioned operators
never hit the cap.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field

import numpy as np

from .convolution import (
    EPS,
    _orth,
    boundary_mass_fraction,
    compose_kernels,
    convolve,
    op_norm,
    prepare,
)
from .grid import GridFunction, GridSpec
from .kernels import (
    DeltaKernel,
    GridKernel,
    GrowthReport,
    KernelRep,
    TensorKernel,
    adjoint_kernel,
    check_growth,
)
from .seminorms import SeminormConfig, fk_seminorm, pk_seminorm

NOT_INVERTIBLE = "not invertible at this resolution"


def _padded_spec(spec: GridSpec, pad_factor: int) -> GridSpec:
    # scaling N and T together keeps every axis spacing identical, so the
    # small lattice is a centered window of the padded one
    return GridSpec(spec.group, pad_factor * spec.N, pad_factor * spec.T)


def _embed_kernel(K: KernelRep, spec: GridSpec, big: GridSpec) -> KernelRep:
    """Zero-extend grid-sampled kernels onto the padded lattice."""
    if isinstance(K, GridKernel):
        lo = big.origin - spec.origin
        vals = np.zeros(big.shape, dtype=complex)
        window = tuple(slice(lo, lo + spec.N) for _ in range(spec.q_total))
        vals[window] = K.values
        return GridKernel(big, vals, mode=K.mode)
    if isinstance(K, TensorKernel):
        return TensorKernel([_embed_kernel(part, sub, bsub) for part, sub, bsub
                             in zip(K.parts, spec.factor_specs, big.factor_specs)])
    return K


def _crop_kernel(L: GridKernel, spec: GridSpec) -> GridKernel:
    big = L.spec
    lo = big.origin - spec.origin
    window = tuple(slice(lo, lo + spec.N) for _ in range(spec.q_total))
    return GridKernel(spec, L.values[window].copy(), mode=L.mode)


# each probe sums PROBE_MODES gratings with per-axis carrier frequencies in
# PROBE_BAND x Nyquist
PROBE_MODES = 4
PROBE_BAND = (0.05, 0.5)


def probe_functions(spec: GridSpec, count: int = 3, seed: int = 101) -> list:
    """Seeded band-limited probes of unit L2 norm.

    Random phase gratings under a half-box Gaussian envelope; carrier
    frequencies per axis stay inside PROBE_BAND x Nyquist, away from the
    mean and Nyquist parity zeros that a box discretization cannot resolve.
    """
    if count < 1:
        raise ValueError("need at least one probe")
    lo, hi = PROBE_BAND
    rng = np.random.default_rng(seed)
    mesh = spec.mesh
    envelope = np.exp(-0.5 * np.sum((mesh / (0.5 * spec.extents)) ** 2, axis=-1))
    out = []
    for _ in range(count):
        vals = np.zeros(spec.shape, dtype=complex)
        for _ in range(PROBE_MODES):
            u = rng.uniform(lo, hi, spec.q_total) * rng.choice([-1.0, 1.0], spec.q_total)
            omega = u * np.pi / spec.spacings
            coeff = rng.normal() + 1j * rng.normal()
            vals = vals + coeff * np.exp(1j * np.sum(omega * mesh, axis=-1))
        f = GridFunction(spec, vals * envelope)
        out.append(f.scaled(1.0 / f.l2_norm()))
    return out


# ---------------------------------------------------------------------------
# damping factor
# ---------------------------------------------------------------------------


# a part of at most this many sites takes a dense SVD: a 2048 x 2048 complex
# matrix takes 64 MB, and a random heisenberg1 kernel at N=12 (1728 sites)
# needs it, as Lanczos leaves its tiny sigma_min unresolved after 300 steps
DENSE_SITES = 2048
LANCZOS_STEPS = 300
LANCZOS_TOL = 1e-12


def _lanczos_edges(op, spec: GridSpec, seed: int) -> tuple:
    """(top, bottom, steps, converged): extreme singular values of op.

    Golub-Kahan-Lanczos bidiagonalization (Golub & Kahan, SIAM J. Numer.
    Anal. B 2, 1965) from the unit vector u_1 that seed draws builds fully
    reorthogonalized bases with Op V_k = U_{k+1} B_k, B_k lower bidiagonal
    of shape (k+1, k).  B_k's singular values are Ritz values on span V_k,
    so its top never exceeds sigma_max and its bottom never falls below
    sigma_min.  The run stops when both drift by at most LANCZOS_TOL of the
    top in one step, on breakdown (an invariant subspace is exact; a
    vanishing alpha makes Op singular), or after LANCZOS_STEPS steps with
    converged False.
    """
    n = spec.size
    steps = min(LANCZOS_STEPS, n)
    U, V = np.empty((steps + 1, n), dtype=complex), np.empty((steps, n), dtype=complex)
    B = np.zeros((steps + 1, steps))

    rng = np.random.default_rng(seed)
    u = rng.normal(size=n) + 1j * rng.normal(size=n)
    U[0] = u / np.linalg.norm(u)
    w = op.adjoint(U[0].reshape(spec.shape)).ravel()
    top = bottom = 0.0
    for k in range(steps):
        w = _orth(w, V[:k])
        B[k, k] = alpha = np.linalg.norm(w)
        rows = k + 1  # a vanishing alpha leaves B square and ends the run
        if alpha > n * EPS * B.max():
            V[k] = w / alpha
            p = _orth(op.apply(V[k].reshape(spec.shape)).ravel() - alpha * U[k], U[:k + 1])
            B[k + 1, k] = beta = np.linalg.norm(p)
            rows = k + 2
        s = np.linalg.svd(B[:rows, :k + 1], compute_uv=False)
        drift = max(abs(s[0] - top), abs(s[-1] - bottom))
        top, bottom = float(s[0]), float(s[-1])
        if rows == k + 1 or beta <= n * EPS * top or drift <= LANCZOS_TOL * top:
            return top, bottom, k + 1, True
        U[k + 1] = p / beta
        w = op.adjoint(U[k + 1].reshape(spec.shape)).ravel() - beta * V[k]
    return top, bottom, steps, False


def _young_bound(K, spec: GridSpec) -> float:
    """Young's bound sum |k| vol on the norm of Op(K), never below it (the
    Schur test: a translation maps no two lattice sites onto one)."""
    return float(np.abs(K.render(spec).values).sum() * spec.volume)


def _edge_info(edges, method, converged, iterations) -> dict:
    return {"value": float(math.prod(edges)), "method": method,
            "factors": [float(v) for v in edges], "converged": converged,
            "iterations": iterations}


def _top_edge(K, spec: GridSpec, seed: int) -> dict:
    """sigma_max info of Op(K), as singular_edges builds it, from the top
    alone: op_norm's Lanczos top within LANCZOS_STEPS steps (method
    "lanczos"), or Young's bound when that run does not converge (method
    "young-bound"), so the value never reads low."""
    op = prepare(K, spec)
    est = op_norm(op, spec, max_iter=LANCZOS_STEPS, seed=seed)
    value = est.value if est.converged else _young_bound(op.kernel, spec)
    return _edge_info([value], "lanczos" if est.converged else "young-bound",
                      est.converged, est.iterations)


def _block_op(op, block):
    """The op of one block on its own grid: op itself for a whole-grid block."""
    if block.sub is op.spec:
        return op
    return prepare(TensorKernel([GridKernel(block.sub, block.values)]), block.sub)


def singular_edges(K, spec: GridSpec, seed: int = 0) -> tuple:
    """(sigma_max_info, sigma_min_info): the spectral edges of Op(K).

    A tensor kernel's operator is the Kronecker product of its per-factor
    box operators, so its singular values are products of the factors'
    (Horn & Johnson, Topics in Matrix Analysis, Thm 4.2.15) and each edge is
    the product of the edges of the op's entries (ConvOp.blocks); any other
    kernel is one block on the whole grid.  A delta part's amplitude a
    contributes |a|.  A block of at most DENSE_SITES sites takes a dense SVD
    of the operator of its values on its grid (a real one where no
    imaginary part is nonzero): a boxed block's held box matrix, whose
    columns are its images of the unit vectors bit for bit, or else those
    images; a larger one _lanczos_edges.  Only the images and Lanczos
    prepare an op on the block's grid.  An unconverged
    Lanczos top is only a lower bound, so that block's sigma_max becomes
    _young_bound.

    Each info dict has value, method ("dense", "lanczos" or "young-bound":
    the least exact any part used), factors (one edge per part), converged
    and iterations (Lanczos steps over all parts).  choose_epsilon needs
    both edges; a sigma_max alone comes from _top_edge.
    """
    op = prepare(K, spec)
    tops, bottoms = [], []
    iterations, converged, lanczos, young = 0, True, False, False
    for block in op.blocks:
        if isinstance(block, complex):  # a delta part's amplitude
            tops.append(abs(block))
            bottoms.append(abs(block))
            continue
        sub, part, n = block.sub, GridKernel(block.sub, block.values), block.sub.size
        if n <= DENSE_SITES:
            if block.boxed:
                # the columns the loop below would give, bit for bit (a
                # mirror holds T^T, whose singular values are T^H's)
                A = block.matrix
            else:
                # the images of 256 unit vectors at a time, built on the fly
                # and written into one matrix, keep the work arrays small
                prep = _block_op(op, block)
                A = np.empty((n, n), dtype=complex)
                for i in range(0, n, 256):
                    units = np.eye(min(256, n - i), n, i, dtype=complex)
                    A[i:i + len(units)] = prep.apply(units.reshape(-1, *sub.shape)).reshape(-1, n)
                A = A.T
            s = np.linalg.svd(A if A.imag.any() else A.real, compute_uv=False)
            top, bottom, steps, ok = float(s[0]), float(s[-1]), 0, True
        else:
            top, bottom, steps, ok = _lanczos_edges(_block_op(op, block), sub, seed)
            lanczos = True
        # LAPACK's values are exact for a perturbation of relative size about
        # n eps; widening the top edge by that keeps it an upper bound, so the
        # damping never overshoots by rounding
        top *= 1.0 + n * EPS
        if not ok:
            top = _young_bound(part, sub)
            young = True
        iterations, converged = iterations + steps, converged and ok
        tops.append(top)
        bottoms.append(bottom)
    method = "lanczos" if lanczos else "dense"
    return (_edge_info(tops, "young-bound" if young else method, converged, iterations),
            _edge_info(bottoms, method, converged, iterations))


@dataclass
class EpsilonChoice:
    """Damping factor with the singular-value estimates behind it."""

    epsilon: float
    sigma_max: float
    sigma_min: float
    s_norm_pred: float
    paper_eps: bool
    sigma_max_info: dict = field(default_factory=dict, repr=False)
    sigma_min_info: dict = field(default_factory=dict, repr=False)

    def to_dict(self) -> dict:
        return asdict(self)


def choose_epsilon(K, spec: GridSpec, paper_eps: bool = False,
                   seed: int = 0) -> EpsilonChoice:
    """Damping factor making I - eps Op(K~) Op(K) a contraction.

    The default eps = 2 / (sigma_max^2 + sigma_min^2) equalizes the
    contraction rate at both spectral edges; paper_eps selects the plain
    eps = 1 / sigma_max^2, which keeps the remainder positive
    semidefinite at the cost of a slower bottom edge.

    Both edges come from singular_edges, for every kernel.
    """
    top, bottom = singular_edges(K, spec, seed)
    smax = top["value"]
    smin = bottom["value"]
    if smax == 0.0 or smin < 1e-8 * smax:
        raise ValueError(
            f"{NOT_INVERTIBLE}: sigma_min estimate {smin:.3e} below 1e-08 of "
            f"sigma_max {smax:.3e}"
        )
    if paper_eps:
        eps = 1.0 / smax ** 2
        pred = 1.0 - (smin / smax) ** 2
    else:
        eps = 2.0 / (smax ** 2 + smin ** 2)
        pred = (smax ** 2 - smin ** 2) / (smax ** 2 + smin ** 2)
    return EpsilonChoice(
        epsilon=float(eps),
        sigma_max=float(smax),
        sigma_min=float(smin),
        s_norm_pred=float(pred),
        paper_eps=bool(paper_eps),
        sigma_max_info=top,
        sigma_min_info=bottom,
    )


# ---------------------------------------------------------------------------
# Neumann inversion
# ---------------------------------------------------------------------------


TRACK_FLAG_CAP = "series truncated by the amplification cap (regularized inverse)"
TRACK_FLAG_STALL = "increment stagnates above tol; partial sum returned"


@dataclass
class InversionResult:
    """Inverse kernel with the diagnostics of the run that produced it."""

    kernel: GridKernel
    eps: EpsilonChoice
    n_steps: int
    converged: bool
    flag: str
    step_rel_norms: list
    residuals: list
    tracked: list
    kvec_track: tuple | None
    growth: object
    config: dict

    @property
    def max_residual(self) -> float:
        return max(max(r["right"], r["left"]) for r in self.residuals)

    def to_dict(self) -> dict:
        return {
            "eps": self.eps.to_dict(),
            "n_steps": self.n_steps,
            "converged": self.converged,
            "flag": self.flag,
            "step_rel_norms": [float(v) for v in self.step_rel_norms],
            "residuals": [dict(r) for r in self.residuals],
            "tracked": [dict(t) for t in self.tracked],
            "kvec_track": list(self.kvec_track) if self.kvec_track else None,
            "growth": self.growth.to_dict(),
            "kernel_l2": float(self.kernel.data.l2_norm()),
            "kernel_max_abs": float(self.kernel.data.max_abs()),
            "config": dict(self.config),
        }


def _track_points(max_n: int) -> set:
    pts = set()
    n = 1
    while n <= max_n:
        pts.add(n)
        n *= 2
    return pts


class _DenseSeries:
    """The terms S^n delta on the work grid, one ConvOp.normal per step:
    term is the last term, accum the partial sum."""

    def __init__(self, op, work: GridSpec, ev: float):
        delta = work.delta()
        self.op, self.work, self.ev, self.dnorm = op, work, ev, delta.l2_norm()
        # term is rebound, accum added to
        self.term, self.accum = delta.values, delta.values.copy()

    def step(self) -> float:
        """The next term; returns its L2 norm relative to the delta's."""
        self.term = self.term + self.op.normal(self.term) * -self.ev
        self.accum += self.term
        # GridFunction.l2_norm's expression, so rels keep their bits
        return float(np.sqrt(np.sum(np.abs(self.term) ** 2) * self.work.volume)) / self.dnorm


class _Krylov:
    """Lanczos with full reorthogonalization (_orth) on one factor's normal G,
    from the origin delta of the factor grid sub: orthonormal rows Q, and
    the tridiagonal T with G Q^T = Q^T T on the rows built so far, one row
    per grow.  A beta of at most n eps times the largest entry so far, or a
    basis spanning the grid, ends the basis, whose span is then invariant."""

    def __init__(self, normal, sub: GridSpec, rows: int):
        self.normal, self.shape, n = normal, sub.shape, sub.size
        self.Q = np.empty((min(rows, n), n), dtype=complex)
        self.Q[0] = 0.0
        self.Q[0, np.ravel_multi_index((sub.origin,) * sub.q_total, sub.shape)] = 1.0
        self.alphas, self.betas, self.scale, self.ended = [], [], 0.0, False

    def grow(self):
        """Apply G to the last row: its alpha, and the next row or the end."""
        if self.ended:
            return
        k, n = len(self.alphas), self.Q.shape[1]
        w = self.normal(self.Q[k].reshape(self.shape)).ravel()
        self.alphas.append(float(np.vdot(self.Q[k], w).real))
        w = _orth(w, self.Q[:k + 1])
        beta = float(np.linalg.norm(w))
        self.scale = max(self.scale, abs(self.alphas[-1]), beta)
        if k + 1 == n or beta <= n * EPS * self.scale:
            self.ended = True
            return
        self.betas.append(beta)
        self.Q[k + 1] = w / beta

    @property
    def T(self) -> np.ndarray:
        """(rows, alphas) block of T: G on the rows that have an alpha, in
        the basis of all rows."""
        m, a = len(self.betas) + 1, len(self.alphas)
        T = np.diag(self.alphas + [0.0] * (m - a))
        return (T + np.diag(self.betas, 1) + np.diag(self.betas, -1))[:, :a]


def _factor_normal(entry, adj):
    """The normal of one entry of a tensor op on vectors of its factor grid:
    (v a) conj(a) for a delta amplitude a, else adj(entry(v)) by apply_sub."""
    if isinstance(entry, complex):
        return lambda v: v * entry * adj
    return lambda v: adj.apply_sub(entry.apply_sub(v))


class _FactorSeries:
    """The terms S^n delta of a tensor op in per-factor Krylov coordinates.

    Op(K~) Op(K) = G_1 (x) ... (x) G_nu for the entries' normals G_mu, and
    delta = vol^-1 (x)_mu e_mu for the factor origin deltas e_mu, so
    S^n delta = vol^-1 ((x)_mu Q_mu^T) C_n lies in the tensor product of
    the Krylov spaces K_{n+1}(G_mu, e_mu) (Kressner & Tobler, SIAM J.
    Matrix Anal. Appl. 31, 2010), with C_0 = e_1 (x) ... (x) e_1 and
    C_n = C_{n-1} - eps (T_1 (x) ... (x) T_nu) C_{n-1}.  Each step grows
    every basis by one row (_Krylov), one factor normal each, until it
    ends; no work-grid normal runs.  The work grid holds only term and
    accum, formed when read.
    """

    def __init__(self, op, work: GridSpec, ev: float, n_cap: int):
        self.work, self.ev = work, ev
        self.bases = [_Krylov(_factor_normal(e, a), sub, n_cap + 1) for e, a, sub
                      in zip(op.blocks, op.adjoint_op.blocks, work.factor_specs)]
        self.C = np.ones((1,) * len(self.bases))
        self.D = self.C.copy()  # sum of the C_n

    def step(self) -> float:
        """The next C; returns ||C||_F, the term's L2 norm relative to the
        delta's (the rows are orthonormal)."""
        prod = self.C
        for mu, basis in enumerate(self.bases):
            basis.grow()
            prod = np.moveaxis(np.tensordot(basis.T, prod, axes=(1, mu)), 0, mu)
        grown = [(0, m - d) for m, d in zip(prod.shape, self.C.shape)]
        self.C = np.pad(self.C, grown) - self.ev * prod
        self.D = np.pad(self.D, grown) + self.C
        return float(np.linalg.norm(self.C))

    def _grid(self, C: np.ndarray) -> np.ndarray:
        for mu, basis in enumerate(self.bases):
            C = np.moveaxis(np.tensordot(basis.Q[:C.shape[mu]], C, axes=(0, mu)), 0, mu)
        return C.reshape(self.work.shape) / self.work.volume

    @property
    def term(self) -> np.ndarray:
        return self._grid(self.C)

    @property
    def accum(self) -> np.ndarray:
        return self._grid(self.D)


def _work_grid_inverse(Kop, spec: GridSpec, pad_factor: int, eps, *, paper_eps,
                       amplification_cap, cond_cap, max_n, tol, kvec_track, cfg,
                       seed) -> tuple:
    """neumann_invert's work on the work grid (spec, or spec padded by
    pad_factor): the damping, the series and the inverse kernel L on spec.
    Returns (L, eps, n, converged, flag, rels, tracked).

    The series is _FactorSeries for an op of two or more entries (a tensor
    kernel) and _DenseSeries otherwise.  The padded op, with its box
    matrices, and the work-grid arrays are locals here, so they are freed
    before neumann_invert's probes.
    """
    Kwork, work = Kop, spec
    if pad_factor > 1:
        work = _padded_spec(spec, pad_factor)
        Kwork = prepare(_embed_kernel(Kop.kernel, spec, work), work)

    if eps is None:
        eps = choose_epsilon(Kwork, work, paper_eps=paper_eps, seed=seed)
    elif isinstance(eps, (int, float)):
        eps = EpsilonChoice(epsilon=float(eps), sigma_max=math.nan,
                            sigma_min=math.nan, s_norm_pred=math.nan,
                            paper_eps=False)
    ev = eps.epsilon
    if not ev > 0.0:
        raise ValueError("epsilon must be positive")

    n_cap = int(max_n)
    capped = False
    if amplification_cap is not None:
        sigma_ref = max(eps.sigma_min, eps.sigma_max / cond_cap)
        n_reg = max(1, math.ceil(amplification_cap / (ev * sigma_ref)))
        if n_reg < n_cap:
            n_cap = n_reg
            capped = True
    track_at = _track_points(n_cap) if kvec_track is not None else set()

    series = (_FactorSeries(Kwork, work, ev, n_cap) if len(Kwork.blocks) > 1
              else _DenseSeries(Kwork, work, ev))
    rels = []
    tracked = []
    converged = False
    n = 0
    for n in range(1, n_cap + 1):
        rel = series.step()
        rels.append(rel)
        if n in track_at:
            rep = pk_seminorm(GridKernel(work, series.term, mode=Kop.kernel.mode),
                              work, kvec_track, cfg)
            tracked.append({
                "n": n,
                "seminorm": float(rep.total),
                "op_norm": float(rep.value_for(())),
                "root": float(rep.total ** (1.0 / n)) if rep.total > 0 else 0.0,
            })
        if rel <= tol:
            converged = True
            break

    flag = ""
    if not converged:
        flag = TRACK_FLAG_CAP if capped else TRACK_FLAG_STALL

    # L = eps accum * K~: on an abelian box K~ * accum, what the prepared
    # Op(K~) applies; elsewhere a right convolution by K~, taken from the
    # one rendering of K that the symmetry check below reads too
    kwork = Kwork.kernel.render(work)
    ktilde = adjoint_kernel(kwork)
    accum = series.accum
    if all(fac.is_abelian for fac in work.group.factors):
        lvals = Kwork.adjoint_op.apply(accum)
    else:
        lvals = convolve(GridFunction(work, accum), ktilde.data).values
    L = GridKernel(work, lvals * ev, mode=Kop.kernel.mode)
    if pad_factor > 1:
        L = _crop_kernel(L, spec)

    # the true inverse of a self-adjoint operator is self-adjoint; the final
    # box-truncated convolution is the only step breaking that symmetry, and
    # averaging with the adjoint (an L2 isometry on kernels) projects it out
    # without increasing the distance to the true inverse
    kvals = kwork.values
    scale = np.abs(kvals).max()
    if scale > 0 and np.abs(kvals - ktilde.values).max() <= 1e-10 * scale:
        Lt = adjoint_kernel(L).values  # a fresh array: average in place
        Lt += L.values
        L = GridKernel(spec, np.multiply(Lt, 0.5, out=Lt), mode=L.mode)
    return L, eps, n, converged, flag, rels, tracked


def neumann_invert(K, spec: GridSpec, max_n: int = 64,
                   tol: float = 1e-8, kvec_track=None, *,
                   eps: EpsilonChoice | float | None = None,
                   paper_eps: bool = False,
                   amplification_cap: float | None = None,
                   cond_cap: float = 4.0,
                   pad_factor: int = 1,
                   probes: int = 3, probe_seed: int = 101,
                   cfg: SeminormConfig | None = None,
                   growth_kvec=None, seed: int = 0) -> InversionResult:
    """Invert Op(K) through the damped Neumann series.

    Accumulates B = sum_{n <= N} S^n applied to the discrete delta, one
    ConvOp.normal per step or, for a tensor kernel, one normal per factor on
    its own grid in Krylov coordinates (_FactorSeries), and returns
    L = eps * (B convolved with K~'s kernel), so Op(L) realizes
    eps (sum S^n) Op(K~).  On a fully abelian group B * K~ equals K~ * B
    on the box exactly, and L is eps times the prepared Op(K~) applied to B
    (boxed tensor factors apply their box matrices, no FFT); elsewhere
    B * K~ is a right convolution, a convolve against K~'s rendering.
    Stops when the increment's L2 norm drops to tol relative to the
    delta's, at max_n, or at the amplification cap (see module docstring).
    Residuals are reported on seeded band limited probes, on both sides;
    the growth report of L quantifies whether the inverse satisfies the
    same kind of growth bounds as K.

    pad_factor > 1 runs the series on a box enlarged by that factor at
    identical spacing and returns the central window of the resulting
    kernel.  The series built in a box accumulates truncation artifacts
    near the boundary; padding moves the boundary away from the window
    that is kept.  Residuals and growth are always measured on the
    requested grid with the returned kernel, after the work-grid op and
    arrays are freed (_work_grid_inverse).

    kvec_track, when set, computes the product-kernel seminorm of the
    S^n kernel at n = 1, 2, 4, 8, ... together with nth roots; the
    kernel of S^n is exactly the n-th increment, so tracking adds no
    extra compositions.
    """
    if max_n < 1:
        raise ValueError("max_n must be at least 1")
    if tol < 0:
        raise ValueError("tol must be nonnegative")
    if pad_factor < 1 or int(pad_factor) != pad_factor:
        raise ValueError("pad_factor must be a positive integer")
    if probes < 1:
        raise ValueError("need at least one probe")
    if amplification_cap is not None:
        if isinstance(eps, (int, float)):
            raise ValueError("amplification cap needs sigma estimates; "
                             "pass an EpsilonChoice instead of a raw float")
        if amplification_cap <= 0 or cond_cap <= 1:
            raise ValueError("amplification_cap must be positive and cond_cap > 1")
    if kvec_track is not None:
        kvec_track = tuple(int(k) for k in kvec_track)
    Kop = prepare(K, spec)
    L, eps, n, converged, flag, rels, tracked = _work_grid_inverse(
        Kop, spec, int(pad_factor), eps, paper_eps=paper_eps,
        amplification_cap=amplification_cap, cond_cap=cond_cap, max_n=max_n,
        tol=tol, kvec_track=kvec_track, cfg=cfg, seed=seed)

    Lop = prepare(L, spec)
    residuals = []
    for f in probe_functions(spec, count=probes, seed=probe_seed):
        right = GridFunction(spec, Kop.apply(Lop.apply(f.values)) - f.values).l2_norm()
        left = GridFunction(spec, Lop.apply(Kop.apply(f.values)) - f.values).l2_norm()
        residuals.append({"right": float(right), "left": float(left)})

    nu = spec.group.nu
    try:
        growth = check_growth(L, spec,
                              kvec=tuple(growth_kvec) if growth_kvec else (1,) * nu)
    except ValueError as exc:
        growth = GrowthReport(mode=L.mode, constants={}, argmax={}, n_samples=0,
                              valid=False, notes=str(exc))

    config = {
        "N": spec.N,
        "T": spec.T,
        "group": spec.group.to_dict(),
        "max_n": int(max_n),
        "tol": float(tol),
        "amplification_cap": amplification_cap,
        "cond_cap": float(cond_cap),
        "pad_factor": int(pad_factor),
        "probes": int(probes),
        "probe_seed": int(probe_seed),
        "seed": int(seed),
        "kvec_track": list(kvec_track) if kvec_track else None,
    }
    return InversionResult(
        kernel=L,
        eps=eps,
        n_steps=n,
        converged=converged,
        flag=flag,
        step_rel_norms=rels,
        residuals=residuals,
        tracked=tracked,
        kvec_track=kvec_track,
        growth=growth,
        config=config,
    )


# ---------------------------------------------------------------------------
# seminorm decay of the remainder powers
# ---------------------------------------------------------------------------


@dataclass
class DecayReport:
    """Seminorms of S^n with nth roots, against the measured |S|.

    s_norm_estimate is the sigma_max info dict of S from _top_edge (value,
    method, factors, converged, iterations), whose value is
    s_norm_measured: the top-edge Lanczos of op_norm, or Young's bound when
    that run did not converge within LANCZOS_STEPS.  Rows carry their
    report's op-norm run: op_norm, op_norm_converged and op_norm_iterations.
    """

    kind: str
    kvec: tuple
    epsilon: float
    s_norm_measured: float
    s_norm_estimate: dict
    rows: list
    config: dict

    def sequence(self) -> list:
        return [(r["n"], r["value"], r["root"]) for r in self.rows]

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "kvec": list(self.kvec),
            "epsilon": self.epsilon,
            "s_norm_measured": self.s_norm_measured,
            "s_norm_estimate": dict(self.s_norm_estimate),
            "rows": [dict(r) for r in self.rows],
            "config": dict(self.config),
        }


def seminorm_decay(K, spec: GridSpec, kvec, n_list, *,
                   cfg: SeminormConfig | None = None,
                   eps: EpsilonChoice | float | None = None,
                   kind: str = "pk", seed: int = 0) -> DecayReport:
    """Seminorms of the Neumann remainder powers S^n at the listed n.

    S^n kernels are formed by repeated kernel composition, so the
    seminorm estimator always sees a grid kernel.  Support spreads with
    each composition; the fraction of L1 mass in the outer shell is
    reported per row as `truncation` to expose grid-resolution
    exhaustion at large n.
    """
    if kind not in ("pk", "fk"):
        raise ValueError("kind must be 'pk' or 'fk'")
    n_list = sorted(set(int(n) for n in n_list))
    if not n_list or n_list[0] < 1:
        raise ValueError("n_list must contain positive integers")

    Kop = prepare(K, spec)
    if eps is None:
        eps = choose_epsilon(Kop, spec, seed=seed)
    ev = eps.epsilon if isinstance(eps, EpsilonChoice) else float(eps)
    if not ev > 0.0:
        raise ValueError("epsilon must be positive")

    normal = compose_kernels(Kop.adjoint_op, Kop.kernel, spec)
    s_vals = DeltaKernel(spec.group).render(spec).values - ev * normal.values
    Sop = prepare(GridKernel(spec, s_vals, mode=Kop.kernel.mode), spec)
    s_est = _top_edge(Sop, spec, seed)

    estimator = pk_seminorm if kind == "pk" else fk_seminorm
    rows = []
    cur = Sop.kernel
    m = 1
    for n in n_list:
        while m < n:
            cur = compose_kernels(Sop, cur, spec)
            m += 1
        rep = estimator(cur, spec, kvec, cfg)
        val = float(rep.total)
        rows.append({
            "n": n,
            "value": val,
            "root": float(val ** (1.0 / n)) if val > 0 else 0.0,
            "op_norm": float(rep.value_for(())),
            "op_norm_converged": bool(rep.op_norm_estimate.converged),
            "op_norm_iterations": int(rep.op_norm_estimate.iterations),
            "truncation": float(boundary_mass_fraction(cur.data)),
        })

    config = {
        "N": spec.N,
        "T": spec.T,
        "group": spec.group.to_dict(),
        "kind": kind,
        "seed": int(seed),
        "eps": eps.to_dict() if isinstance(eps, EpsilonChoice) else float(eps),
    }
    return DecayReport(
        kind=kind,
        kvec=tuple(int(k) for k in kvec),
        epsilon=float(ev),
        s_norm_measured=s_est["value"],
        s_norm_estimate=s_est,
        rows=rows,
        config=config,
    )


# ---------------------------------------------------------------------------
# invertible preset construction
# ---------------------------------------------------------------------------


def near_identity_kernel(K: KernelRep, spec: GridSpec, strength: float = 0.45,
                         seed: int = 0) -> GridKernel:
    """Delta plus a strength-scaled copy of K normalized to unit operator norm.

    The result has singular values inside [1 - strength, 1 + strength],
    hence is invertible with a short Neumann series; it is the standard
    way to turn a synthesized dyadic kernel into an inversion test case.
    The norm is _top_edge's, which never reads low.
    """
    if not 0.0 < strength < 1.0:
        raise ValueError("strength must lie in (0, 1)")
    op = prepare(K, spec)
    norm = _top_edge(op, spec, seed)["value"]
    if norm == 0.0:
        raise ValueError("cannot scale a zero operator toward the identity")
    Kr = op.kernel.render(spec)
    base = DeltaKernel(spec.group).render(spec).values
    return GridKernel(spec, base + (strength / norm) * Kr.values, mode=Kr.mode)
