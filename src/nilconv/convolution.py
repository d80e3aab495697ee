"""Group convolution on the grid and L2 operator-norm estimation.

Convention: (f * g)(x) = sum_y f(x y^{-1}) g(y) vol.  The subgroup
lattice is closed under the group law, so the direct sum reads exact
lattice points; values falling outside the box contribute zero.  Fully
abelian groups route through zero-padded FFT convolution, which equals
the direct sum up to rounding.  On groups of step 2 the direct sum adds,
per horizontal shift of the kernel, a zero-padded linear convolution
along the other axes read at the integer shear of the lattice group law;
the reads are phases on the spectra, and the sum stays exact under box
truncation.  Sparse inputs sum over their own sites by gathers instead.
Groups of higher step sum through cached translation tables.  Pipelines
apply Op(K) through prepare(K, spec), which does the per-kernel work once.
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
# complex kernel values gathered per chunk of a _Sheared site sum (8 MB)
SHEAR_CHUNK = 2 ** 19


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
        last = tuple(range(v.ndim - len(axes), v.ndim))
        if axes == last:
            return self._convolve(v.reshape(-1, *v.shape[v.ndim - len(axes):])).reshape(v.shape)
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
    """(k * v)(x) summed through cached translation tables.

    Used on abelian groups (path="direct", the oracle of the FFT path) and
    on groups of step 3 or more; step-2 groups take _Sheared.

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


class _Sheared(_Block):
    """Step-2 groups: the direct sum as sheared linear convolutions.

    With B from GridSpec.shear, x_S the sheared coordinates and *_C the
    linear convolution along the plain and sheared axes (zero-padded, so
    exact under box truncation),
        (k * v)(x) = sum_a [k(a, .) *_C v(x_L - a, .)](x_C - B(a, x_L)),
    a running over the horizontal (loop-axis) support of k.  Rows on the
    kernel's side add these terms as spectra, the shear read as a phase,
    and are transformed back once (_shifts).  A sparse row (the one-hot
    columns of dense blocks and spectral edges, the localized inputs of
    block power iterations) sums over its own sites y instead, by sheared
    gathers of the kernel that keep exact zeros exact:
        (k * v)(x) = sum_y v(y) k(x_L - y_L, x_S - y_S - B(x_L, y_L), x_P - y_P).
    A row takes its own sites when it touches fewer values that way, unless
    only the kernel's side fits the budget: per destination row a shift
    touches the (2N)^p (3N)^s frequencies of the p plain and s sheared axes
    and a site N^(p+s) kernel values.  The charge is the row's shifts or
    sites times sub.size point pairs.  Rows on the kernel's side share one
    loop; the others run one at a time.
    """

    def __init__(self, spec: GridSpec, sub: GridSpec, axes: tuple,
                 kvals: np.ndarray, budget: int):
        super().__init__(spec, axes)
        self.sub, self.budget = sub, budget
        plain, loop, sheared, self.B = sub.shear
        self.perm = plain + loop + sheared
        self.unperm = tuple(1 + a for a in np.argsort(self.perm))
        N = spec.N
        self.n_plain, self.n_sheared, self.H = len(plain), len(sheared), N ** len(loop)
        # lattice coordinates of the loop grid's points, in flat index order
        self.sites = np.indices((N,) * len(loop)).reshape(len(loop), -1).T - spec.origin
        self.loop_strides = N ** np.arange(len(loop))[::-1]
        self.kernel = self._rows(kvals[None])[0]
        horizontal = np.abs(self.kernel.reshape(-1, self.H, N ** self.n_sheared)).max(axis=(0, 2))
        self.kshifts = np.flatnonzero(horizontal > 0)
        self.shift_work = self.kshifts.size * 2 ** len(plain) * 3 ** len(sheared)

    def _rows(self, flat: np.ndarray) -> np.ndarray:
        """(R, *plain, H, *sheared) view of (R, *sub grid) values."""
        moved = flat.transpose(0, *(1 + a for a in self.perm))
        return moved.reshape(moved.shape[:1 + self.n_plain] + (self.H,)
                             + moved.shape[-self.n_sheared:])

    def _convolve(self, flat: np.ndarray) -> np.ndarray:
        rows = self._rows(flat)
        out = np.zeros_like(rows)
        sites = [np.flatnonzero(row) for row in rows]
        n, shifts = self.sub.size, self.kshifts.size
        own = [s.size < self.shift_work and (s.size * n <= self.budget or s.size < shifts)
               for s in sites]
        cost = max(s.size if o else shifts for s, o in zip(sites, own)) * n
        if cost > self.budget:
            raise ValueError(f"direct sum needs {cost} point pairs; budget {self.budget}")
        kside = [j for j, o in enumerate(own) if not o]
        if kside:
            out[kside] = self._shifts(rows[kside])
        for j, s in enumerate(sites):
            if own[j]:
                out[j] = self._site_sum(rows[j].reshape(-1), s)
        out = out.reshape((flat.shape[0],) + (self.spec.N,) * len(self.perm))
        return out.transpose(0, *self.unperm) * self.vol

    def _spectra(self, rows: np.ndarray) -> np.ndarray:
        """(R, F, H, P) spectra of (R, *plain, H, *sheared) rows: F frequencies
        of the plain axes padded to 2N, P of the sheared axes padded to 3N."""
        N, n_plain, ns = self.spec.N, self.n_plain, self.n_sheared
        axes = tuple(range(1, 1 + n_plain)) + tuple(range(rows.ndim - ns, rows.ndim))
        out = np.fft.fftn(rows, s=(2 * N,) * n_plain + (3 * N,) * ns, axes=axes)
        return out.reshape(rows.shape[0], -1, self.H, (3 * N) ** ns)

    @cached_property
    def kspectra(self) -> np.ndarray:
        """(shifts, F, P) spectra of the kernel's nonzero loop rows."""
        return self._spectra(self.kernel[None])[0][:, self.kshifts].swapaxes(0, 1)

    @cached_property
    def twiddles(self) -> np.ndarray:
        """(3N, 3N) table of exp(2 pi i m w / 3N), m the read offset, w the frequency."""
        P = 3 * self.spec.N
        return np.exp(2j * np.pi * np.arange(P) / P)[np.outer(np.arange(P), np.arange(P)) % P]

    @cached_property
    def pairs(self) -> list:
        """Per kernel shift a, the (destination row, source row, read offset
        mod 3N) of the pairs (a, x_L) that contribute, as in _shifts."""
        N, o, X = self.spec.N, self.spec.origin, self.sites
        out = []
        for a in X[self.kshifts]:
            src = X - a
            m = o - X @ np.einsum("i,ijc->jc", a, self.B)
            keep = np.all((src >= -o) & (src < N - o), axis=-1)
            x = np.flatnonzero(keep & np.all((m > -N) & (m < 2 * N - 1), axis=-1))
            out.append((x, (src[x] + o) @ self.loop_strides, m[x] % (3 * N)))
        return out

    def _shifts(self, rows: np.ndarray) -> np.ndarray:
        """k * v for (R, *plain, H, *sheared) rows, summed over the kernel's shifts.

        Along the sheared axes a shift's linear convolution has 2N - 1 cells
        and the window read from it N, fewer than 3N together, so on spectra
        of 3N points the read at offset m = o - B(a, x_L) is exactly the
        phase exp(2 pi i m w / 3N) whenever it meets the linear support.
        Pairs (a, x_L) whose read misses that support, or whose source row
        x_L - a is off the box, are skipped (pairs).  Every destination row
        adds its terms in kernel shift order and is transformed back once,
        so a row's result does not depend on its batch.
        """
        N, o, ns = self.spec.N, self.spec.origin, self.n_sheared
        spectra = self._spectra(rows)
        R, F = spectra.shape[:2]
        acc = np.zeros_like(spectra)
        for (x, src, m), kspec in zip(self.pairs, self.kspectra):
            phase = self.twiddles[m[:, 0]]
            for c in range(1, ns):
                phase = (phase[:, :, None] * self.twiddles[m[:, c]][:, None]).reshape(x.size, -1)
            term = spectra[:, :, src]
            term *= kspec[:, None]
            term *= phase
            acc[:, :, x] += term
        s_axes = tuple(range(3, 3 + ns))
        out = np.fft.ifftn(acc.reshape(R, F, self.H, *(3 * N,) * ns), axes=s_axes)
        out = out[(...,) + (slice(0, N),) * ns].reshape((R,) + (2 * N,) * self.n_plain + (-1,))
        if self.n_plain:
            plain = tuple(range(1, 1 + self.n_plain))
            out = np.fft.ifftn(out, axes=plain)[(slice(None),)
                                                + (slice(o, o + N),) * self.n_plain]
        return out.reshape(rows.shape)

    @cached_property
    def kwindows(self) -> np.ndarray:
        """Windows of N cells along the plain and sheared axes of the kernel's
        (*plain, H, *sheared) values, padded there by N zeros on both sides."""
        N, n = self.spec.N, self.kernel.ndim
        central = tuple(a for a in range(n) if a != self.n_plain)
        padded = np.pad(self.kernel, [(N, N) if a in central else (0, 0) for a in range(n)])
        return np.lib.stride_tricks.sliding_window_view(padded, (N,) * len(central),
                                                        axis=central)

    def _site_sum(self, values: np.ndarray, sites: np.ndarray) -> np.ndarray:
        """k * v for one row v with flat values, summed over its given sites.

        The sites of one loop-grid point share their destination rows and
        shear: the kernel's windows at them are gathered in chunks of about
        SHEAR_CHUNK values and added one at a time, so the result does not
        depend on the chunking.
        """
        N, o, X, n_plain = self.spec.N, self.spec.origin, self.sites, self.n_plain
        grid = self.kernel.shape
        out = np.zeros(grid, dtype=complex)
        y = np.array(np.unravel_index(sites, grid))
        order = np.argsort(y[n_plain], kind="stable")
        groups, firsts = np.unique(y[n_plain, order], return_index=True)
        for h, at in zip(groups, np.split(order, firsts[1:])):
            src = X - X[h]
            dest = np.flatnonzero(np.all((src >= -o) & (src < N - o), axis=-1))
            shear = np.einsum("xi,ijc,j->xc", X[dest], self.B, X[h])  # B(x_L, y_L)
            acc = np.zeros((dest.size,) + (N,) * (len(grid) - 1), dtype=complex)
            step = max(1, SHEAR_CHUNK // acc.size)
            for part in (at[i:i + step] for i in range(0, at.size, step)):
                starts = [N + o - y[a, part][:, None] for a in range(n_plain)]
                starts += [np.maximum(np.minimum(N + o - y[n_plain + 1 + c, part][:, None]
                                                 - shear[:, c], 2 * N), 0)
                           for c in range(self.n_sheared)]
                got = self.kwindows[tuple(starts[:n_plain])
                                    + ((src[dest] + o) @ self.loop_strides,)
                                    + tuple(starts[n_plain:])]
                for value, term in zip(values[sites[part]], got):
                    acc += value * term
            out[(slice(None),) * n_plain + (dest,)] += np.moveaxis(acc, 0, n_plain)
        return out


def _direct_block(spec: GridSpec, sub: GridSpec, axes: tuple, kvals: np.ndarray,
                  budget: int) -> _Block:
    """The exact direct sum on sub's group: _Sheared at step 2, else _Direct."""
    block = _Direct if sub.shear is None else _Sheared
    return block(spec, sub, axes, kvals, budget)


def _whole_grid_block(spec: GridSpec, kvals: np.ndarray, budget: int) -> _Block:
    """The direct block of a whole-grid kernel, memoized on spec by its values.

    _convolve_each passes the same kernel once per row, so its shifts,
    spectra and windows are built once for all rows; a few blocks are kept,
    oldest evicted first, each on its own copy of the values.
    """
    blocks = spec.__dict__.setdefault("_direct_blocks", {})
    key = (kvals.tobytes(), budget)
    if key not in blocks:
        while len(blocks) >= 4:
            blocks.pop(next(iter(blocks)))
        blocks[key] = _direct_block(spec, spec, tuple(range(spec.q_total)), kvals.copy(),
                                    budget)
    return blocks[key]


def _convolve_each(K: GridKernel, spec: GridSpec, budget: int):
    """Whole-grid direct step: one public convolve per input.

    bench/tracer.py counts direct calls and point pairs only at the public
    convolve, so this per-row route stays until the library keeps those
    counters itself (ROADMAP item 4).
    """
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
    Abelian groups keep the padded kernel spectrum; others run the exact
    direct sum within budget point pairs: sheared FFTs at step 2,
    translation tables above (through convolve for a whole-grid kernel).
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
                     else _direct_block(spec, sub, axes, kvals, budget))
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
    return GridFunction(spec, _whole_grid_block(spec, f.values, budget).apply(g.values))


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
