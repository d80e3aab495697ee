"""Independent oracles used to derive and freeze expected test values.

These deliberately avoid the implementation's code paths: the BCH oracle
enumerates the Dynkin series word by word, the convolution oracle is a
plain nested loop, and the operator oracle materializes dense matrices.
The profile oracle evaluates every factor's shape on the full product mesh.
"""

from __future__ import annotations

import math
from itertools import product as iproduct

import numpy as np

from nilconv.grid import GridFunction
from nilconv.kernels import WINDOW_FRAC, _monomial, smooth_bump
from nilconv.product import _exponents_up_to


def dynkin_bch(alg, x, y, depth):
    """BCH series by Dynkin enumeration, truncated at word length `depth`.

    Z = sum_{n>=1} (-1)^(n-1)/n sum over block sequences ((r_i, s_i))_{i<=n}
        [x^r1 y^s1 ... x^rn y^sn] / ((sum_i r_i + s_i) * prod_i r_i! s_i!)
    with right-nested brackets.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)

    def nested(word):
        acc = word[-1]
        for w in reversed(word[:-1]):
            acc = alg.bracket(w, acc)
        return acc

    def block_seqs(n, total_max):
        # sequences of n pairs (r, s), r + s >= 1, total word length <= total_max
        if n == 0:
            yield ()
            return
        for r, s in iproduct(range(total_max + 1), repeat=2):
            if r + s < 1 or r + s > total_max:
                continue
            for rest in block_seqs(n - 1, total_max - r - s):
                yield ((r, s),) + rest

    z = np.zeros_like(x)
    for n in range(1, depth + 1):
        sign = (-1.0) ** (n - 1) / n
        for blocks in block_seqs(n, depth):
            m = sum(r + s for r, s in blocks)
            if m == 0:
                continue
            word = []
            for r, s in blocks:
                word.extend([x] * r)
                word.extend([y] * s)
            denom = m * math.prod(
                math.factorial(r) * math.factorial(s) for r, s in blocks
            )
            z = z + sign * nested(word) / denom
    return z


def dense_matrix(apply_fn, n, dtype=complex, columns=None):
    """Materialize a linear operator on C^n column by column.

    columns lists the unit vectors to apply, in order (default all n); the
    result has one column each.  Leaving out columns the operator maps to
    zero keeps every nonzero singular value.
    """
    columns = range(n) if columns is None else columns
    A = np.zeros((n, len(columns)), dtype=dtype)
    e = np.zeros(n, dtype=dtype)
    for k, j in enumerate(columns):
        e[:] = 0
        e[j] = 1.0
        A[:, k] = np.asarray(apply_fn(e.copy()), dtype=dtype).reshape(n)
    return A


def loop_group_convolution(group, kernel_vals, fn_vals, coords, volume):
    """(K * f)(x) = sum_y K(x y^{-1}) f(y) vol by explicit loops.

    coords: (n_cells, q) lattice points; kernel/fn values flat over cells.
    Off-lattice products contribute zero (zero extension).  Quadratic cost;
    use only on tiny grids.
    """
    n = coords.shape[0]
    key = {tuple(np.round(c, 9)): i for i, c in enumerate(coords)}
    out = np.zeros(n, dtype=complex)
    for ix in range(n):
        acc = 0.0 + 0.0j
        for iy in range(n):
            d = group.multiply(coords[ix], group.invert(coords[iy]))
            j = key.get(tuple(np.round(d, 9)))
            if j is not None:
                acc += kernel_vals[j] * fn_vals[iy]
        out[ix] = acc * volume
    return out


def _coordinate_lookup(coords):
    """Map points to the row of coords they equal once both are rounded to
    9 decimals, or -1: the key rule of loop_group_convolution, vectorized
    by ranking each coordinate among that axis's values."""
    keys = np.round(coords, 9)
    values = [np.unique(col) for col in keys.T]
    shape = tuple(v.size for v in values)

    def ranks(points):
        pos = [np.minimum(np.searchsorted(v, col), v.size - 1) for v, col in zip(values, points.T)]
        hit = np.all([v[p] == col for v, p, col in zip(values, pos, points.T)], axis=0)
        return np.ravel_multi_index(pos, shape), hit

    table = np.full(math.prod(shape), -1)
    table[ranks(keys)[0]] = np.arange(keys.shape[0])

    def find(points):
        code, hit = ranks(np.round(points, 9))
        return np.where(hit, table[code], -1)
    return find


def convolution_matrix(group, kernel_vals, coords, volume):
    """Dense matrix of f -> K * f, M[x, y] = K(x y^{-1}) vol.

    The rule of loop_group_convolution with the group law evaluated on one
    row of pairs at a time; off-lattice products stay zero.  Use on tiny
    grids.
    """
    n = coords.shape[0]
    find = _coordinate_lookup(coords)
    inv = group.invert(coords)
    M = np.zeros((n, n), dtype=complex)
    for ix in range(n):
        j = find(group.multiply(coords[ix], inv))
        M[ix, j >= 0] = kernel_vals[j[j >= 0]] * volume
    return M


def toeplitz_convolution_matrix(kernel_vals, spacing):
    """Dense matrix of f -> K*f on a 1-d grid with zero extension.

    M[a, b] = K[(a - b) + N//2] * h when the index lands in range.
    """
    n = kernel_vals.shape[0]
    c = n // 2
    idx = np.arange(n)
    rel = idx[:, None] - idx[None, :] + c
    ok = (rel >= 0) & (rel < n)
    M = np.where(ok, kernel_vals[np.clip(rel, 0, n - 1)], 0.0) * spacing
    return M


def padded_symbol(kernel_vals, volume):
    """Fourier multiplier realizing box convolution with the kernel.

    Zero-padding every axis to twice its length makes circular convolution
    agree with the linear convolution the grid performs; the multiplier is
    the DFT of the padded kernel scaled by the cell volume.
    """
    vals = np.asarray(kernel_vals, dtype=complex)
    shape = tuple(2 * n for n in vals.shape)
    return np.fft.fftn(vals, s=shape, axes=tuple(range(vals.ndim))) * volume


def pairing_operator_norm(kernel_fn, phi_fn, gamma_fn, T, n, q):
    """L2 operator norm of f -> phi (K * (gamma f)) on R^q by dense SVD.

    Midpoint quadrature with n points per axis on [-T, T)^q; abelian
    convolution, so kernel_fn takes difference vectors.  The norm of the
    kernel matrix M[x, y] = phi(x) K(x - y) gamma(y) under the quadrature
    weight is h^q * sigma_max(M).
    """
    h = 2.0 * T / n
    axis = -T + (np.arange(n) + 0.5) * h
    pts = np.stack(np.meshgrid(*([axis] * q), indexing="ij"), axis=-1).reshape(-1, q)
    diffs = pts[:, None, :] - pts[None, :, :]
    M = phi_fn(pts)[:, None] * kernel_fn(diffs) * gamma_fn(pts)[None, :]
    return float(np.linalg.svd(M, compute_uv=False)[0]) * h**q


def site_convolution(group, kernel_vals, fn_vals, coords, volume, site):
    """(K * f)(x) and sum_y |K(x y^{-1}) f(y)| vol at the one cell x = coords[site].

    The rule of loop_group_convolution for a single output cell, with the
    group law evaluated against every cell at once; use it to check single
    sites of grids too large for the full loops.
    """
    key = {tuple(np.round(c, 9)): i for i, c in enumerate(coords)}
    diffs = group.multiply(coords[site], group.invert(coords))
    terms = np.zeros(coords.shape[0], dtype=complex)
    for iy, d in enumerate(np.round(diffs, 9)):
        j = key.get(tuple(d))
        if j is not None:
            terms[iy] = kernel_vals[j] * fn_vals[iy] * volume
    return complex(terms.sum()), float(np.abs(terms).sum())


def right_translate(f, a):
    """(R_a f)(x) = f(x a) for a GridFunction f, zero off the box; a must be a
    lattice point."""
    spec = f.spec
    idx, inb = spec.index_of(spec.group.multiply(spec.mesh, np.asarray(a, dtype=float)))
    safe = np.where(inb[..., None], idx, 0)
    values = np.where(inb, f.values[tuple(np.moveaxis(safe, -1, 0))], 0.0)
    return GridFunction(spec, values)


def profile_shape_full_mesh(family, group, spec, rng):
    """kernels._profile_shape as it was written on the full product mesh: every
    factor's shape and the window evaluated at every grid point."""
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
            for e in _exponents_up_to(q, 3):
                c = rng.standard_normal()
                poly = poly + c * _monomial(t, e)
            out = out * poly * np.exp(-3.0 * r2)
        else:
            raise ValueError(f"unknown profile family {family!r}")
    window = np.ones(mesh.shape[:-1])
    for j in range(spec.q_total):
        window = window * smooth_bump(mesh[..., j] / (WINDOW_FRAC * spec.extents[j]))
    return out * window
