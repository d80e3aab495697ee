"""Group convolution on the grid and L2 operator-norm estimation.

Convention: (f * g)(x) = sum_y f(x y^{-1}) g(y) vol.  The subgroup
lattice is closed under the group law, so the direct sum reads exact
lattice points; values falling outside the box contribute zero.  Fully
abelian groups convolve dense rows by zero-padded FFTs, which equal the
direct sum up to rounding, except along one axis (a tensor factor on
abelian1, a whole-grid abelian1 kernel): there the box Toeplitz matrix,
where it fits BOX_MATRIX_BYTES, applies every row by one GEMM per input,
exact zeros kept.  On other groups the direct sum adds, per shift of the
kernel along the axes inside some bracket, a zero-padded linear
convolution along the central rest, read at the integer shear that the
lattice group law gives; the reads are phases on the spectra, and the sum
stays exact under box truncation.  By one side rule (_Block) a row with
fewer sites than the kernel side's work per site, and every row of an
abelian direct sum, sums exactly over its own sites by gathers of
zero-padded kernel windows.  Where a memory rule allows (real kernel, no
plain axes), the kernel side of the sheared sum is stored once as one
matrix per frequency.  Op(K~) is built from Op(K)'s own blocks: each
block's adjoint is a block of the same kind on its conjugate-reversed
values, which reads these, and box matrices, as adjoints.  The normal
Op(K~) Op(K) applies each entry's own normal in turn; a boxed block on a
grid of two or more axes applies its Gram matrix there, one GEMM per
input (op_norm of a tensor kernel; the Neumann series of a tensor kernel
applies each entry to vectors of its own grid instead, apply_sub).
Pipelines apply Op(K) through prepare(K, spec), which does the per-kernel
work once; the op owns its blocks, so they go when it goes.

A plain (unsheared) axis of N cells is padded to M = N + N//2 points.
The linear convolution of two N-cell rows spans cells [0, 2N - 2] and
the grid keeps [o, o + N) with o = N//2; a circular convolution of
length M leaves that window unaliased whenever M >= o + N and
M >= 2N - 1 - o, and N + N//2 meets both for every N.  The inverse
transform runs one axis at a time, each axis cut to its N kept cells
right after its pass (_inverse_windows).
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
)
from .product import MultiIndex

EPS = np.finfo(float).eps

# point pairs one direct sum may charge (see _Sheared); read at call time
PAIR_BUDGET = int(2e8)
# bytes of the N x N box matrix a one-axis _Spectrum block may hold (boxed)
BOX_MATRIX_BYTES = 2 ** 21
"""2 MiB: N <= 512 for a real kernel (8 N^2 bytes), N <= 362 for a complex
one (16 N^2).  A boxed block on two or more axes also holds its Gram
matrix once a whole-grid normal runs (op_norm; the Neumann series of a
tensor kernel builds none), of the same size, so up to twice these bytes.
A memory bound, not a crossover: pocketfft's time depends on
the factors of N + N//2 (543 = 3 * 181 and 769, a prime, are slow), so no
single N separates the two paths.  ms per pass, GEMM / FFT, of a block on
one N x N input (N rows) along axis 0 and along axis 1, and on one row of
a 1-D grid; one BLAS thread, 2-core Xeon VM, numpy 2.4 with OpenBLAS
0.3.31, medians of one run (repeated runs varied by up to 2x):

    N    kernel   axis 0        axis 1        one row
    256  real      1.3 /  5.5    1.6 /  1.9   0.014 / 0.049
    256  complex   2.5 /  7.4    4.1 /  4.3   0.024 / 0.049
    362  complex   7.0 / 22.6    7.3 / 17.9   0.061 / 0.119   last complex N
    363  complex   6.9 / 11.4    7.6 /  5.0   0.059 / 0.055   FFT kept
    512  real      9.8 / 23.4   16.0 /  9.5   0.063 / 0.057   last real N
    513  real     13.2 / 40.3   11.5 / 34.7   0.059 / 0.147   FFT kept
    768  real     46.2 / 64.5   39.0 / 21.4   0.455 / 0.068   FFT kept

Above the rule a block keeps the padded FFT and its bits."""
# complex kernel values gathered per chunk of a _Sheared site sum (8 MB);
# its group law runs on SHEAR_CHUNK / 128 points per call
SHEAR_CHUNK = 2 ** 19


def _check_specs(a: GridSpec, b: GridSpec):
    if a is not b and not a.compatible(b):
        raise ValueError("grid specs do not match")


def _plain_pad(N: int) -> int:
    """N + N//2, the padded length of a plain axis of N cells (module docstring)."""
    return N + N // 2


def _inverse_windows(spectra: np.ndarray, windows: dict, N: int) -> np.ndarray:
    """Inverse FFT along the axes of windows, one pass per axis from the last;
    right after its pass an axis keeps its N cells from windows[axis], so
    later passes transform only kept lanes."""
    for axis in sorted(windows, reverse=True):
        start = windows[axis]
        spectra = np.fft.ifftn(spectra, axes=(axis,))[(slice(None),) * axis
                                                      + (slice(start, start + N),)]
    return spectra


def _conjugate_half(P: int, s: int) -> tuple:
    """Flat frequencies w of s axes of P points with w <= -w (negated per
    axis mod P), and their partners -w: the half set a real kernel's
    conjugate symmetry leaves."""
    w = np.arange(P ** s)
    neg = np.ravel_multi_index(tuple(-c % P for c in np.unravel_index(w, (P,) * s)), (P,) * s)
    half = np.flatnonzero(w <= neg)
    return half, neg[half]


class _Block:
    """Convolution along some grid axes by kernel values kvals on sub, the grid
    of those axes; _convolve gets them last, the rest as rows.

    The side rule: a row with fewer sites (nonzero values) than shift_work,
    the kernel side's work per destination site, sums over its own sites y,
    reading the kernel's window at x y^{-1} from kwindows.
    """

    boxed = False  # a one-axis _Spectrum may hold its box matrix instead

    def __init__(self, spec: GridSpec, sub: GridSpec, axes: tuple, kvals: np.ndarray):
        self.spec, self.sub, self.axes, self.values = spec, sub, axes, kvals
        self.vol = float(np.prod(spec.spacings[list(axes)]))
        self.real = not np.asarray(kvals).imag.any()

    def apply(self, v: np.ndarray) -> np.ndarray:
        axes = tuple(v.ndim - self.spec.q_total + a for a in self.axes)
        last = tuple(range(v.ndim - len(axes), v.ndim))
        if axes == last:
            return self._convolve(v.reshape(-1, *v.shape[v.ndim - len(axes):])).reshape(v.shape)
        moved = np.moveaxis(v, axes, last)
        out = self._convolve(moved.reshape(-1, *(self.spec.N,) * len(axes)))
        return np.moveaxis(out.reshape(moved.shape), last, axes)

    def adjoint(self) -> "_Block":
        """The block of Op(K~): the same kind on the conjugate reverse of
        these values, built with adjoint_of=self; a mirror's adjoint is the
        block it mirrors (whose values those are, bit for bit)."""
        return self.mirror or type(self)(self.spec, self.sub, self.axes, self._reversed(), self)

    def normal(self, v: np.ndarray, adj: "_Block") -> np.ndarray:
        """adj(self(v)), adj this block's entry of the op's cached Op(K~);
        a fresh adjoint() would build a second block and its caches."""
        return adj.apply(self.apply(v))

    def apply_sub(self, v: np.ndarray) -> np.ndarray:
        """This block on one vector v of its own grid (shape sub.shape)."""
        return self._convolve(v[None])[0]

    def _reversed(self) -> np.ndarray:
        """conj k(t^{-1}) on sub: the values of the adjoint's block."""
        return GridFunction(self.sub, self.values).conj_reverse().values

    @cached_property
    def kwindows(self) -> np.ndarray:
        """Windows of N cells along the window_axes of the kernel values,
        padded there by N zeros on both sides: the window at start N + o - y
        holds k(x - y) at its cells x along those axes (o the origin)."""
        N, axes = self.spec.N, self.window_axes
        padded = np.pad(self.kernel, [(N, N) if a in axes else (0, 0)
                                      for a in range(self.kernel.ndim)])
        return np.lib.stride_tricks.sliding_window_view(padded, (N,) * len(axes), axis=axes)


class _Spectrum(_Block):
    """Abelian axes: FFT against the kernel spectrum, every axis padded to
    _plain_pad(N) and cropped to [o, o + N) after its inverse pass.

    A site costs the FFT shift_work = (N + N//2)^d / N^d frequencies on d
    axes, so by the side rule (_Block) a row of fewer sites (at most one in
    1-D, two in 2-D) takes _gather, whatever else is in its batch; a zero
    row is left at exact zeros.

    The pointwise product always takes the kernel spectrum first; numpy's
    complex products are not bitwise commutative, so the order is part of
    the output bits.

    A one-axis block whose N x N box matrix fits BOX_MATRIX_BYTES (boxed)
    runs none of this: every row, dense or sparse, is one GEMM against
    matrix, built on first use, and no kernel spectrum is taken.  Its
    adjoint (built with adjoint_of, this block) reads that matrix as its
    conjugate transpose.  On a grid of two or more axes a boxed block's
    normal is one GEMM against its Gram matrix (gram), built on the first
    normal.
    """

    def __init__(self, spec: GridSpec, sub: GridSpec, axes: tuple, kvals: np.ndarray,
                 adjoint_of: "_Spectrum | None" = None):
        super().__init__(spec, sub, axes, kvals)
        self.pad = (_plain_pad(spec.N),) * len(axes)
        self.kernel, self.window_axes = kvals, tuple(range(len(axes)))
        self.shift_work = (self.pad[0] / spec.N) ** len(axes)
        self.boxed = len(axes) == 1 and spec.N ** 2 * (8 if self.real else 16) <= BOX_MATRIX_BYTES
        self.mirror = adjoint_of if self.boxed else None
        if not self.boxed:
            self.spectrum = np.fft.fftn(kvals, s=self.pad, axes=self.window_axes)

    @cached_property
    def matrix(self) -> np.ndarray:
        """The box matrix T[x, y] = k(x - y + o) vol, real for a real
        kernel; a mirror holds the transpose (a view) of its block's T and
        applies it as T^H."""
        if self.mirror is not None:
            return self.mirror.matrix.T
        N, o = self.spec.N, self.spec.origin
        T = self.kwindows[N + o:o:-1].T * self.vol
        return np.ascontiguousarray(T.real if self.real else T)

    @cached_property
    def gram(self) -> np.ndarray:
        """G = A^H A, A the matrix this block applies: T, or T^H for a
        mirror (so G = T T^H there); real for a real T.  Only a whole-grid
        normal reads it: the Neumann series applies A and A^H to factor
        vectors (apply_sub)."""
        if self.mirror is not None:
            T = self.mirror.matrix
            return T @ T.conj().T
        return self.matrix.conj().T @ self.matrix

    def apply(self, v: np.ndarray) -> np.ndarray:
        """T along the block's axis of v (_lines); a mirror of a complex T
        applies conj(T^T conj(v))."""
        if not self.boxed:
            return super().apply(v)
        return self._lines(self.matrix, v, conj=self.mirror is not None)

    def normal(self, v: np.ndarray, adj: "_Spectrum") -> np.ndarray:
        """A boxed block on a grid of two or more axes applies its Gram
        matrix, built on the first normal: each input holds at least N
        lines there, so one normal repays G's N^3.  A 1-D input is one line,
        and a 1-D block keeps two GEMMs."""
        if not (self.boxed and self.spec.q_total > 1):
            return super().normal(v, adj)
        return self._lines(self.gram, v, conj=False)

    def apply_sub(self, v: np.ndarray) -> np.ndarray:
        """A boxed block applies its matrix to the one line v, a mirror as
        conj(M conj(v)); any other block _convolve's one row."""
        if not self.boxed:
            return super().apply_sub(v)
        if self.mirror is None:
            return self.matrix @ v
        return np.conj(self.matrix @ np.conj(v))

    def _lines(self, M: np.ndarray, v: np.ndarray, conj: bool) -> np.ndarray:
        """M along the block's axis of v, by GEMMs of one shape per input,
        whatever its batch, so a row's bits do not depend on its batch: M
        against the (N, cells after the axis) lines of each cell before
        it or, on the last axis, against the transposed (N, cells before)
        rows.  A real M multiplies the values viewed as floats (one dgemm
        for real and imaginary parts); conj applies conj(M conj(v))."""
        N, q, axis = self.spec.N, self.spec.q_total, self.axes[0]
        last = axis == q - 1
        x = (v.reshape(-1, N ** axis, N).swapaxes(1, 2) if last
             else v.reshape(-1, N, N ** (q - 1 - axis)))
        x = np.ascontiguousarray(x, dtype=complex)
        if self.real:
            out = np.matmul(M, x.view(float)).view(complex)
        elif conj:
            out = np.matmul(M, x.conj()).conj()
        else:
            out = np.matmul(M, x)
        return (out.swapaxes(1, 2) if last else out).reshape(v.shape)

    def _convolve(self, flat: np.ndarray) -> np.ndarray:
        ax = tuple(range(1, flat.ndim))
        sites = np.count_nonzero(flat.reshape(len(flat), -1), axis=1)
        sparse = sites < self.shift_work
        if sparse.all():
            out = np.zeros(flat.shape, dtype=complex)
        else:
            F = np.fft.fftn(flat, s=self.pad, axes=ax)
            out = _inverse_windows(np.multiply(self.spectrum, F, out=F),
                                   dict.fromkeys(ax, self.spec.origin), self.spec.N) * self.vol
            out[sparse] = 0.0
        few = sparse & (sites > 0)  # a zero row keeps exact zeros, ungathered
        if few.any():
            out[few] = self._gather(flat[few])
        return out

    def _gather(self, flat: np.ndarray) -> np.ndarray:
        """sum_y v(y) k(x - y) vol per row: one gather of kernel windows for
        all sites, a row's k-th site added in the k-th pass."""
        N, o = self.spec.N, self.spec.origin
        row, *cells = np.nonzero(flat)
        terms = (flat[(row, *cells)].reshape((-1,) + (1,) * len(cells))
                 * self.kwindows[tuple(N + o - c for c in cells)])
        rank = np.arange(row.size) - np.searchsorted(row, row)
        out = np.zeros(flat.shape, dtype=complex)
        for k in range(rank.max(initial=-1) + 1):
            at = rank == k
            out[row[at]] += terms[at]
        return out * self.vol


class _Sheared(_Block):
    """The exact direct sum on any graded group, as sheared linear convolutions.

    GridSpec.shear splits the axes into L, the loop axes inside some
    bracket, and C, the rest: central, the sheared ones the bracket images
    among them.  Every bracket term of the group law has zero C input, so
    (a^{-1} x)_L depends on a_L and x_L only and (a^{-1} x)_C = x_C - a_C
    + P(a_L, x_L) with P zero on the plain axes.  With *_C the linear
    convolution along C (zero-padded, so exact under box truncation),
        (k * v)(x) = sum_a [k(a, .) *_C v((a^{-1} x)_L, .)](x_C + P(a, x_L)),
    a running over the horizontal (loop-axis) support of k; the source rows
    and the integers P are read off the group law on loop-grid points
    (pairs).  Rows on the kernel's side add these terms as spectra, the
    shear read as a phase, and are transformed back after the sum (_shifts).  A
    sparse row (the one-hot columns of dense blocks and spectral edges, the
    localized inputs of iterative block estimates) sums over its own sites y
    instead, by sheared gathers of the kernel that keep exact zeros exact:
        (k * v)(x) = sum_y v(y) k((x y^{-1})_L, x_C - y_C + P'(x_L, y_L)).
    A row takes its own sites by the side rule (_Block), unless only the
    kernel's side fits PAIR_BUDGET: per destination row a shift touches
    the (N + N//2)^p (3N)^s frequencies of the p plain and s sheared axes
    and a site N^(p+s) kernel values, so shift_work is the shifts times
    their ratio.  An abelian group has no loop axes and one loop point;
    every row takes its own sites there, so the direct sum (the oracle of
    the FFT path) runs no FFT.  The charge is the row's shifts or sites
    times sub.size point pairs.  Rows on the kernel's side share one loop;
    the others run one at a time.

    On a block with no plain axes and a real kernel whose Hermitian half set
    of per-frequency H x H matrices holds at most SHEAR_CHUNK values (the
    memory rule, decided when the block is built), the kernel's side is
    those matrices, built once from pairs (matrices, _matrix_sum).  Its
    adjoint (built with adjoint_of, this block) is a mirror: its kernel-side
    rows read this block's set as the adjoint, its own sites stay its own.
    """

    def __init__(self, spec: GridSpec, sub: GridSpec, axes: tuple,
                 kvals: np.ndarray, adjoint_of: "_Sheared | None" = None):
        super().__init__(spec, sub, axes, kvals)
        plain, self.loop, self.sheared = sub.shear
        self.central = plain + self.sheared
        self.perm = plain + self.loop + self.sheared
        self.unperm = tuple(1 + a for a in np.argsort(self.perm))
        N = spec.N
        self.n_plain, self.n_sheared = len(plain), len(self.sheared)
        self.H = N ** len(self.loop)
        # lattice coordinates of the loop grid's points, in flat index order
        self.sites = (np.indices((N,) * len(self.loop)).reshape(len(self.loop), self.H).T
                      - spec.origin)
        self.loop_strides = N ** np.arange(len(self.loop))[::-1]
        self.kernel = self._rows(kvals[None])[0]
        self.window_axes = tuple(a for a in range(self.kernel.ndim) if a != self.n_plain)
        horizontal = np.abs(self.kernel.reshape(-1, self.H, N ** self.n_sheared)).max(axis=(0, 2))
        self.kshifts = np.flatnonzero(horizontal > 0)
        p, s = len(plain), len(self.sheared)
        self.shift_work = self.kshifts.size * _plain_pad(N) ** p * (3 * N) ** s / N ** (p + s)
        self.offsets = {}  # _site_offsets per loop-grid point, SHEAR_CHUNK values at most
        self.offset_values = 0
        # the memory rule of the per-frequency matrices, decided here: half is
        # (half set, partners) when the block sums by them (_matrix_sum)
        self.half = None
        if not plain and self.real:
            half = _conjugate_half(3 * N, s)
            self.half = half if half[0].size * self.H ** 2 <= SHEAR_CHUNK else None
        shared = self.half is not None and adjoint_of is not None and adjoint_of.half is not None
        self.mirror = adjoint_of if shared else None

    def _rows(self, flat: np.ndarray) -> np.ndarray:
        """(R, *plain, H, *sheared) view of (R, *sub grid) values."""
        moved = flat.transpose(0, *(1 + a for a in self.perm))
        return moved.reshape(moved.shape[:1 + self.n_plain] + (self.H,)
                             + moved.shape[moved.ndim - self.n_sheared:])

    def _product(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Lattice coordinates of a b for loop-grid points a, b (zero on C),
        broadcast; index_of raises if the group law leaves the lattice."""
        def lift(p):
            pts = np.zeros(p.shape[:-1] + (self.sub.q_total,))
            pts[..., self.loop] = p * self.sub.spacings[self.loop]
            return pts
        idx, _ = self.sub.index_of(self.sub.group.multiply(lift(a), lift(b)))
        return idx - self.spec.origin

    def _convolve(self, flat: np.ndarray) -> np.ndarray:
        rows = self._rows(flat)
        out = np.zeros_like(rows)
        sites = np.count_nonzero(rows, axis=tuple(range(1, rows.ndim)))
        n, shifts = self.sub.size, self.kshifts.size
        own = ((sites < self.shift_work) & ((sites * n <= PAIR_BUDGET) | (sites < shifts))
               | (not self.loop))
        cost = int(np.where(own, sites, shifts).max(initial=0)) * n
        if cost > PAIR_BUDGET:
            raise ValueError(f"direct sum needs {cost} point pairs; budget {PAIR_BUDGET}")
        if not own.all():
            out[~own] = self._shifts(rows[~own])
        for j in np.flatnonzero(own):
            out[j] = self._site_sum(rows[j].reshape(-1), np.flatnonzero(rows[j]))
        out = out.reshape((flat.shape[0],) + (self.spec.N,) * len(self.perm))
        return out.transpose(0, *self.unperm) * self.vol

    def _spectra(self, rows: np.ndarray) -> np.ndarray:
        """(R, F, H, P) spectra of (R, *plain, H, *sheared) rows: F frequencies
        of the plain axes padded to _plain_pad(N), P of the sheared axes
        padded to 3N (_shifts)."""
        N, n_plain, ns = self.spec.N, self.n_plain, self.n_sheared
        axes = tuple(range(1, 1 + n_plain)) + tuple(range(rows.ndim - ns, rows.ndim))
        out = np.fft.fftn(rows, s=(_plain_pad(N),) * n_plain + (3 * N,) * ns, axes=axes)
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
        mod 3N) of the pairs (a, x_L) that contribute, as in _shifts.  The
        group law runs on a chunk of shifts at a time: one call per shift
        costs more in overhead, one for all shifts more in memory.
        """
        N, o, X = self.spec.N, self.spec.origin, self.sites
        out = []
        step = max(1, SHEAR_CHUNK // (128 * self.H))
        for i in range(0, self.kshifts.size, step):
            z = self._product(-X[self.kshifts[i:i + step], None], X[None])  # a^{-1} x_L
            src, m = z[..., self.loop], o + z[..., self.sheared]
            keep = (np.all((src >= -o) & (src < N - o), axis=-1)
                    & np.all((m > -N) & (m < 2 * N - 1), axis=-1))
            rows, m = (src + o) @ self.loop_strides, m % (3 * N)
            out += [(x, r[x], w[x]) for x, r, w in zip(map(np.flatnonzero, keep), rows, m)]
        return out

    def _phases(self, m: np.ndarray) -> np.ndarray:
        """(pairs, P) phases exp(2 pi i m.w / 3N) of read offsets m (pairs, s)."""
        phase = self.twiddles[m[:, 0]]
        for c in range(1, self.n_sheared):
            phase = (phase[:, :, None] * self.twiddles[m[:, c]][:, None]).reshape(m.shape[0], -1)
        return phase

    def _shifts(self, rows: np.ndarray) -> np.ndarray:
        """k * v for (R, *plain, H, *sheared) rows, summed over the kernel's shifts.

        Along the sheared axes a shift's linear convolution has 2N - 1 cells
        and the window read from it N, fewer than 3N together, so on spectra
        of 3N points the read at offset m = o + P(a, x_L) is exactly the
        phase exp(2 pi i m w / 3N) whenever it meets the linear support.
        Pairs (a, x_L) whose read misses that support, or whose source row
        (a^{-1} x)_L is off the box, are skipped (pairs).  A block under the
        memory rule sums by its per-frequency matrices (_matrix_sum), any
        other adds the pairs shift by shift, every destination row in kernel
        shift order.  Either way a row's result does not depend on its batch.
        """
        N, o, n_plain, ns = self.spec.N, self.spec.origin, self.n_plain, self.n_sheared
        spectra = self._spectra(rows)
        if self.half is not None:
            acc = self._matrix_sum(spectra)
        else:
            acc = np.zeros_like(spectra)
            for (x, src, m), kspec in zip(self.pairs, self.kspectra):
                term = spectra[:, :, src]
                term *= kspec[:, None]
                term *= self._phases(m)
                acc[:, :, x] += term
        acc = acc.reshape(acc.shape[:1] + (_plain_pad(N),) * n_plain + (self.H,) + (3 * N,) * ns)
        windows = {**dict.fromkeys(range(1, 1 + n_plain), o),
                   **dict.fromkeys(range(2 + n_plain, acc.ndim), 0)}
        return _inverse_windows(acc, windows, N)

    @cached_property
    def matrices(self) -> np.ndarray:
        """(half, H, H) kernel-side sums M_w[x, src] = sum_a kspec[a, w]
        exp(2 pi i m w / 3N) over the pairs, at the frequencies w of the
        Hermitian half set; a real kernel has M_{-w} = conj(M_w)."""
        half = self.half[0]
        M = np.zeros((half.size, self.H, self.H), dtype=complex)
        for (x, src, m), kspec in zip(self.pairs, self.kspectra):
            M[:, x, src] += kspec[0, half, None] * self._phases(m)[:, half].T
        return M

    def _matrix_sum(self, spectra: np.ndarray) -> np.ndarray:
        """The shift sum of (R, 1, H, P) spectra as one matmul per row.

        A w of the half set and its partner -w are applied together: M_w to
        s_w and conj(M_w conj(s_{-w})) to s_{-w}.  With no plain axes the
        sheared axes are padded from cell 0 and cropped to [0, N), so the
        inverse transform is the adjoint of the forward one over 3N and
        Op(K)* takes M_w^H in place of M_w: a mirror block applies
        conj(M_w^T conj(.)) from the set of the block it mirrors.  One row
        at a time, so a row's bits do not depend on its batch.
        """
        half, neg = self.half
        if self.mirror is None:
            M, spectra = self.matrices, spectra[:, 0]
        else:
            M, spectra = self.mirror.matrices.swapaxes(1, 2), spectra[:, 0].conj()
        acc = np.empty_like(spectra)
        for s, out in zip(spectra, acc):
            got = np.matmul(M, np.stack([s[:, half].T, s[:, neg].T.conj()], axis=-1))
            out[:, neg] = got[..., 1].T.conj()
            out[:, half] = got[..., 0].T  # a self-conjugate w keeps M_w s_w
        return (acc if self.mirror is None else acc.conj())[:, None]

    def _site_offsets(self, h: int) -> tuple:
        """For the sites y with y_L at loop-grid point h: the destination rows
        x_L whose kernel row (x y^{-1})_L lies in the box, that row, and P'
        along the plain and sheared axes; memoized per h until the memo holds
        SHEAR_CHUNK index values, computed on demand past that."""
        if h in self.offsets:
            return self.offsets[h]
        N, o = self.spec.N, self.spec.origin
        z = self._product(self.sites, -self.sites[h])  # x_L y_L^{-1}
        krow = z[:, self.loop]
        dest = np.flatnonzero(np.all((krow >= -o) & (krow < N - o), axis=-1))
        got = (dest, (krow[dest] + o) @ self.loop_strides, z[dest][:, self.central])
        if self.offset_values < SHEAR_CHUNK:
            self.offsets[h] = got
            self.offset_values += sum(a.size for a in got)
        return got

    def _site_sum(self, values: np.ndarray, sites: np.ndarray) -> np.ndarray:
        """k * v for one row v with flat values, summed over its given sites.

        The sites of one loop-grid point share their destination rows and
        shear: the kernel's windows at them are gathered in chunks of about
        SHEAR_CHUNK values and added one at a time, so the result does not
        depend on the chunking.
        """
        N, o, n_plain = self.spec.N, self.spec.origin, self.n_plain
        grid = self.kernel.shape
        cpos = [*range(n_plain), *range(n_plain + 1, len(grid))]  # C axes of grid
        out = np.zeros(grid, dtype=complex)
        y = np.array(np.unravel_index(sites, grid))
        order = np.argsort(y[n_plain], kind="stable")
        groups, firsts = np.unique(y[n_plain, order], return_index=True)
        for h, at in zip(groups, np.split(order, firsts[1:])):
            dest, krow, shear = self._site_offsets(int(h))
            acc = np.zeros((dest.size,) + (N,) * (len(grid) - 1), dtype=complex)
            step = max(1, SHEAR_CHUNK // acc.size)
            for part in (at[i:i + step] for i in range(0, at.size, step)):
                starts = [np.clip(N + o - y[a, part][:, None] + shear[:, c], 0, 2 * N)
                          for c, a in enumerate(cpos)]
                got = self.kwindows[tuple(starts[:n_plain]) + (krow,)
                                    + tuple(starts[n_plain:])]
                for value, term in zip(values[sites[part]], got):
                    acc += value * term
            out[(slice(None),) * n_plain + (dest,)] += np.moveaxis(acc, 0, n_plain)
        return out


class _WholeGrid(_Sheared):
    """The direct block of a whole-grid kernel, built by prepare and owned by
    its op.

    apply runs one public convolve per input row, with this block as the
    kernel: bench/tracer.py counts direct calls and point pairs only at
    convolve, reading the kernel's spec and values, so this per-row route
    stays until the library keeps those counters itself (ROADMAP item 1).
    convolve sums the row by _Block.apply on this block.
    """

    def apply(self, v: np.ndarray) -> np.ndarray:
        outs = [convolve(self, GridFunction(self.spec, row), "direct").values
                for row in v.reshape(-1, *self.spec.shape)]
        return np.stack(outs).reshape(v.shape)


class ConvOp:
    """Op(K) prepared on one grid by prepare(K, spec).

    apply, adjoint and normal act on arrays of shape (*batch, *spec.shape),
    each leading index an independent input.  kernel is K as applied
    (rendered unless a grid, delta or tensor kernel).  blocks holds one
    entry per kernel part, applied in order: a block, or the complex
    amplitude of a delta part.  Op(K~), built on first use, holds each
    entry's adjoint: the conjugate amplitude, or a block of the same kind
    on the conjugate reverse of the block's values, which reads a sheared
    block's per-frequency matrices or a boxed block's box matrix as their
    adjoint.  So Op(K~) is the exact discrete adjoint of Op(K), and no part
    of K~ is rendered.
    """

    def __init__(self, kernel: KernelRep, spec: GridSpec, blocks: list):
        self.kernel, self.spec, self.blocks = kernel, spec, blocks

    def _checked(self, v) -> np.ndarray:
        v = np.asarray(v, dtype=complex)
        if v.shape[v.ndim - self.spec.q_total:] != self.spec.shape:
            raise ValueError(f"values shape {v.shape} does not end in grid {self.spec.shape}")
        return v

    def apply(self, v: np.ndarray) -> np.ndarray:
        """Op(K) v."""
        v = self._checked(v)
        for entry in self.blocks:
            v = v * entry if isinstance(entry, complex) else entry.apply(v)
        return v

    @cached_property
    def adjoint_op(self) -> "ConvOp":
        """Op(K~), the L2 adjoint, on the same grid: each entry's adjoint in
        the same order (the entries act on disjoint axes, so they commute).
        Its kernel is K~ as applied, read off those entries."""
        entries = [np.conj(e) if isinstance(e, complex) else e.adjoint() for e in self.blocks]
        tensor = isinstance(self.kernel, TensorKernel)
        parts = [DeltaKernel(sub.group, e) if isinstance(e, complex)
                 else GridKernel(sub, e.values, mode=self.kernel.mode)
                 for e, sub in zip(entries, self.spec.factor_specs if tensor else [self.spec])]
        return ConvOp(TensorKernel(parts) if tensor else parts[0], self.spec, entries)

    def adjoint(self, v: np.ndarray) -> np.ndarray:
        """Op(K~) v."""
        return self.adjoint_op.apply(v)

    def normal(self, v: np.ndarray) -> np.ndarray:
        """Op(K~) Op(K) v: each entry's own normal in turn, exact as the
        entries act on disjoint axes and commute.  A delta amplitude a gives
        (v a) conj(a); a block reads its entry of adjoint_op (_Block.normal)
        or, boxed on two or more axes, applies its Gram matrix (_Spectrum)."""
        v = self._checked(v)
        for entry, adj in zip(self.blocks, self.adjoint_op.blocks):
            v = v * entry * adj if isinstance(entry, complex) else entry.normal(v, adj)
        return v


def prepare(K, spec: GridSpec) -> ConvOp:
    """Prepare Op(K) on spec; a ConvOp is returned unchanged.

    Each part of K is rendered once, into one entry of the op.  A delta
    kernel is its amplitude.  A tensor kernel gets one entry per factor on
    the factor's own grid: the amplitude of a delta part, else a block of
    the part rendered there.  Any other kernel is rendered on spec (a grid
    kernel must live there) into one block.  Abelian groups keep the padded
    kernel spectrum or, on one axis, the box matrix (_Spectrum); others run
    the exact direct sum (_Sheared) within PAIR_BUDGET point pairs, through
    convolve for a whole-grid kernel (_WholeGrid).  The op alone holds its
    blocks and their caches.
    """
    if isinstance(K, ConvOp):
        _check_specs(K.spec, spec)
        return K
    if isinstance(K, DeltaKernel):
        return ConvOp(K, spec, [K.amplitude])
    if isinstance(K, TensorKernel):
        blocks = []
        for part, sub, sl in zip(K.parts, spec.factor_specs, K.group.slices):
            if isinstance(part, DeltaKernel):
                blocks.append(part.amplitude)
                continue
            axes, kvals = tuple(range(sl.start, sl.stop)), part.render(sub).values
            blocks.append(_Spectrum(spec, sub, axes, kvals) if sub.group.factors[0].is_abelian
                          else _Sheared(spec, sub, axes, kvals))
        return ConvOp(K, spec, blocks)
    K = K if isinstance(K, GridKernel) else K.render(spec)
    _check_specs(K.spec, spec)
    axes = tuple(range(spec.q_total))
    block = _Spectrum if all(fac.is_abelian for fac in spec.group.factors) else _WholeGrid
    return ConvOp(K, spec, [block(spec, spec, axes, K.values)])


def convolve(f: GridFunction, g: GridFunction, path: str = "auto") -> GridFunction:
    """Group convolution f * g on a shared grid.

    The direct path sums by a whole-grid block (_WholeGrid) on f's values,
    built for this call, or by f itself when f is such a block: the route
    by which a prepared op's block applies its rows.
    """
    _check_specs(f.spec, g.spec)
    spec = f.spec
    axes = tuple(range(spec.q_total))
    abelian = all(fac.is_abelian for fac in spec.group.factors)
    if path == "auto":
        path = "fast" if abelian else "direct"
    if path == "fast":
        if not abelian:
            raise ValueError("fast path requires a fully abelian group")
        return GridFunction(spec, _Spectrum(spec, spec, axes, f.values).apply(g.values))
    if path != "direct":
        raise ValueError(f"unknown convolution path {path!r}")
    block = f if isinstance(f, _WholeGrid) else _WholeGrid(spec, spec, axes, f.values)
    return GridFunction(spec, _Block.apply(block, g.values))


def apply_op(K, f: GridFunction) -> GridFunction:
    """Op(K) f = K * f; K may be a kernel or a ConvOp."""
    return GridFunction(f.spec, prepare(K, f.spec).apply(f.values))


def compose_kernels(K, L: KernelRep, spec: GridSpec) -> GridKernel:
    """Grid kernel of Op(K) Op(L): K applied to L's rendering."""
    Lr = L.render(spec)
    return GridKernel(spec, prepare(K, spec).apply(Lr.values), mode=Lr.mode)


def _field_steps(spec: GridSpec, alpha: MultiIndex) -> list:
    """Single-field steps of X^alpha in application order: (grid axes, coefficients)."""
    group = spec.group
    steps = []
    for fac, sl, sub, e in zip(group.factors, group.slices, spec.factor_specs,
                               alpha.entries):
        for j, reps in enumerate(e):
            if reps:
                coeffs = [spec.lift(sl, c)
                          for c in fac.left_invariant_fields[j].coeff_arrays(sub.mesh)]
                steps += [(range(sl.start, sl.stop), coeffs)] * reps
    return steps


def _values(f, spec):
    return (f.spec, f.values) if isinstance(f, GridFunction) else (spec, np.asarray(f))


def _derivative(out: np.ndarray, alpha: MultiIndex, spec: GridSpec, window=()) -> np.ndarray:
    """X^alpha of values out on the cells of window (slices of the leading
    grid axes, the field coefficients cut to match); a cell farther from a
    cut edge than alpha has steps gets the bits of the whole box."""
    lead = out.ndim - spec.q_total
    for axes, coeffs in _field_steps(spec, alpha):
        acc = np.zeros_like(out)
        for axis, c in zip(axes, coeffs):
            c = c[tuple(w if n > 1 else slice(None) for w, n in zip(window, c.shape))]
            acc = acc + c * np.gradient(out, spec.spacings[axis], axis=lead + axis)
        out = acc
    return out


def left_derivative(f, alpha: MultiIndex, spec: GridSpec | None = None):
    """X^alpha f: left-invariant fields via centered differences.

    Fields compose in ascending coordinate order within each factor,
    factors in order; on abelian factors this is the plain mixed partial.
    f is a GridFunction, or an array of shape (*batch, *spec.shape) whose
    leading indices are independent inputs; the result has f's type.
    """
    spec, out = _values(f, spec)
    out = _derivative(out, alpha, spec)
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


def _orth(x: np.ndarray, Q: np.ndarray) -> np.ndarray:
    """x with its components along the orthonormal rows of Q removed.

    Two classical Gram-Schmidt passes (CGS2) keep a Krylov basis orthogonal
    to working precision.  Q^H x is formed as conj(Q conj(x)), which gives
    the same bits as Q.conj() @ x without copying the basis.
    """
    for _ in range(2):
        x = x - Q.T @ np.conj(Q @ np.conj(x))
    return x


def power_method(normal, spec: GridSpec, max_iter: int = 60, tol: float = 1e-10,
                 seed: int = 0) -> OpNormEstimate:
    """Largest singular value from symmetric Lanczos on a normal operator.

    normal maps an array v of shape spec.shape to A~(A v), as ConvOp.normal
    does.  From the unit vector that seed draws, each step applies normal
    once and extends a fully reorthogonalized (_orth) Krylov basis; the top
    eigenvalue theta of the tridiagonal T_k is a Ritz value, so it rises
    toward sigma_max^2 from below (Golub & Kahan, SIAM J. Numer. Anal. B 2,
    1965; Kuczynski & Wozniakowski, SIAM J. Matrix Anal. Appl. 13, 1992
    bound its error from a random start).  The run stops when theta drifts
    by at most tol relative to theta in one step, on breakdown (beta at most
    n eps theta, or the whole space spanned: theta is then exact, and 0 on
    a zero operator), or after max_iter steps with converged False.  value
    is sqrt(theta) and residual the relative Ritz residual
    beta_k |last entry of theta's eigenvector| / theta.

    The name is older than the algorithm: bench/tracer.py hooks
    convolution.power_method by name, so it stays until the benchmark reads
    counters from the library (ROADMAP item 1).
    """
    if max_iter < 8:
        raise ValueError("max_iter must be at least 8")
    n = spec.size
    rng = np.random.default_rng(seed)
    v = (rng.normal(size=spec.shape) + 1j * rng.normal(size=spec.shape)).ravel()
    steps = min(max_iter, n)
    # np.empty commits a row's pages only once the row is written
    Q = np.empty((steps + 1, n), dtype=complex)
    Q[0] = v / np.linalg.norm(v)
    alphas, betas = [], []
    theta, residual, converged = 0.0, 0.0, False
    for k in range(steps):
        w = normal(Q[k].reshape(spec.shape)).ravel()
        alphas.append(float(np.vdot(Q[k], w).real))
        w = _orth(w, Q[:k + 1])
        beta = float(np.linalg.norm(w))
        T = np.diag(alphas) + np.diag(betas, 1) + np.diag(betas, -1)
        vals, vecs = np.linalg.eigh(T)
        drift = abs(vals[-1] - theta)
        theta = max(float(vals[-1]), 0.0)
        residual = beta * abs(vecs[-1, -1]) / max(theta, 1e-300)
        if k + 1 == n or beta <= n * EPS * theta or drift <= tol * theta:
            converged = True
            break
        betas.append(beta)
        Q[k + 1] = w / beta
    return OpNormEstimate(value=float(np.sqrt(theta)), iterations=k + 1,
                          residual=float(residual), converged=converged, N=spec.N,
                          T=spec.T, seed=seed)


def op_norm(K, spec: GridSpec, max_iter: int = 60, tol: float = 1e-10,
            seed: int = 0) -> OpNormEstimate:
    """Largest singular value of Op(K) by Lanczos on Op(K~) Op(K) (power_method)."""
    return power_method(prepare(K, spec).normal, spec, max_iter=max_iter,
                        tol=tol, seed=seed)
