"""Anisotropic lattice grids adapted to graded dilations.

Axis j (dilation weight d_j) gets spacing h_j = (2T/N)^{d_j} / M_j, where
M_j are the group's lattice denominators.  With rational structure
constants the resulting lattice is a subgroup, so products and inverses
of grid points land on grid points; discrete convolution then inherits
exact associativity up to box truncation.

Grid index i runs 0..N-1 along every axis; the coordinate is
(i - N//2) * h_j.  For even N the lowest face i = 0 has no negation
partner; kernel grids keep that face at zero so coordinate negation is an
exact involution.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import product as iproduct

import numpy as np

from .product import ProductGroup

# index_of accepts points within this fraction of a spacing of the lattice
INDEX_TOL = 1e-8


class GridSpec:
    """Cartesian lattice on a product group box."""

    def __init__(self, group: ProductGroup, N: int, T: float):
        if N < 4:
            raise ValueError("need at least 4 samples per axis")
        if T <= 0:
            raise ValueError("box half-width must be positive")
        self.group = group
        self.N = int(N)
        self.T = float(T)
        base = 2.0 * self.T / self.N
        M = np.array(group.lattice_denominators, dtype=float)
        self.spacings = base ** group.weights.astype(float) / M
        self.volume = float(np.prod(self.spacings))
        self.shape = (self.N,) * group.q_total
        self.size = self.N ** group.q_total
        self.origin = self.N // 2

    @property
    def q_total(self) -> int:
        return self.group.q_total

    @cached_property
    def extents(self) -> np.ndarray:
        """Per-axis magnitude of the lowest grid coordinate."""
        return self.origin * self.spacings

    @cached_property
    def factor_specs(self) -> list:
        """Each factor's grid (one factor: self), built once, so a tensor
        kernel's blocks and parts share one grid per factor and its cached
        tables (mesh, shear)."""
        facs = self.group.factors
        return [self] if len(facs) == 1 else [GridSpec(ProductGroup([f]), self.N, self.T)
                                              for f in facs]

    def lift(self, sl: slice, values: np.ndarray) -> np.ndarray:
        """values over the axes sl, one length-N axis each, shaped to broadcast
        against self.shape."""
        return values.reshape((1,) * sl.start + values.shape
                              + (1,) * (self.q_total - sl.stop))

    def axis_coords(self, j: int) -> np.ndarray:
        return (np.arange(self.N) - self.origin) * self.spacings[j]

    @cached_property
    def mesh(self) -> np.ndarray:
        """All grid coordinates, shape (*shape, q_total)."""
        axes = [self.axis_coords(j) for j in range(self.q_total)]
        grids = np.meshgrid(*axes, indexing="ij")
        return np.stack(grids, axis=-1)

    def compatible(self, other: "GridSpec") -> bool:
        return (
            self.N == other.N
            and self.T == other.T
            and self.group.to_dict() == other.group.to_dict()
        )

    # -- lattice indexing -----------------------------------------------------

    def index_of(self, points: np.ndarray):
        """Integer indices of lattice points plus an in-bounds mask.

        Points must lie on the lattice (within INDEX_TOL * spacing); use only
        for coordinates produced by the group law on grid points.
        """
        points = np.asarray(points, dtype=float)
        steps = points / self.spacings
        idx = np.rint(steps)
        if np.any(np.abs(steps - idx) > INDEX_TOL):
            raise ValueError("point off the lattice; group law not grid-exact")
        idx = idx.astype(np.int64) + self.origin
        inb = np.all((idx >= 0) & (idx < self.N), axis=-1)
        return idx, inb

    @cached_property
    def shear(self):
        """(plain, loop, sheared) axes: the split of the axes into L and C.

        Loop axes (L) enter some bracket; the others (C) are central.  Every
        bracket term of the group law then has zero C input, so in lattice
        index units x y = ((x y)_L, x_C + y_C + P(x_L, y_L)) with (x y)_L the
        law of the quotient by C.  P can be nonzero only on the bracket
        images in C, the sheared axes; the other C axes are plain.  Abelian
        groups have no loop axes and no sheared axes.
        """
        loop, image = [], set()
        for fac, sl in zip(self.group.factors, self.group.slices):
            nz = fac.C != 0
            loop += [sl.start + int(i) for i in np.flatnonzero(nz.any(axis=(1, 2)))]
            image |= {sl.start + int(k) for k in np.flatnonzero(nz.any(axis=(0, 1)))}
        central = [a for a in range(self.q_total) if a not in loop]
        return ([a for a in central if a not in image], loop,
                [a for a in central if a in image])

    def zeros(self) -> "GridFunction":
        return GridFunction(self, np.zeros(self.shape, dtype=complex))

    def delta(self, amplitude: complex = 1.0) -> "GridFunction":
        """Discrete point mass at the origin cell (integral = amplitude)."""
        g = self.zeros()
        g.values[(self.origin,) * self.q_total] = amplitude / self.volume
        return g

    def __repr__(self):
        return f"GridSpec(N={self.N}, T={self.T}, q={self.q_total})"


def zero_lowest_face(values: np.ndarray) -> np.ndarray:
    """Zero the i=0 slice along every even-length axis (no negation partner there)."""
    out = np.array(values, dtype=complex)
    for ax in range(out.ndim):
        if out.shape[ax] % 2:
            continue
        sl = [slice(None)] * out.ndim
        sl[ax] = 0
        out[tuple(sl)] = 0.0
    return out


@dataclass
class GridFunction:
    """Complex samples on a GridSpec, with Haar measure = Lebesgue."""

    spec: GridSpec
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=complex)
        if self.values.shape != self.spec.shape:
            raise ValueError(
                f"values shape {self.values.shape} != grid {self.spec.shape}"
            )

    def copy(self) -> "GridFunction":
        return GridFunction(self.spec, self.values.copy())

    def l2_norm(self) -> float:
        return float(np.sqrt(np.sum(np.abs(self.values) ** 2) * self.spec.volume))

    def inner(self, other: "GridFunction") -> complex:
        return complex(
            np.sum(self.values * np.conj(other.values)) * self.spec.volume
        )

    def integral(self) -> complex:
        return complex(self.values.sum() * self.spec.volume)

    def max_abs(self) -> float:
        return float(np.abs(self.values).max())

    def scaled(self, c) -> "GridFunction":
        return GridFunction(self.spec, self.values * c)

    def plus(self, other: "GridFunction") -> "GridFunction":
        return GridFunction(self.spec, self.values + other.values)

    def negate_argument(self) -> "GridFunction":
        """g(t) -> g(-t) on the lattice; requires a zero lowest face for even N."""
        vals = self.values
        if self.spec.N % 2 == 0:
            face_mass = 0.0
            for ax in range(vals.ndim):
                sl = [slice(None)] * vals.ndim
                sl[ax] = 0
                face_mass = max(face_mass, float(np.abs(vals[tuple(sl)]).max(initial=0.0)))
            if face_mass != 0.0:
                raise ValueError("lowest face must be zero before argument negation")
            inner = vals[(slice(1, None),) * vals.ndim]
            out = np.zeros_like(vals)
            out[(slice(1, None),) * vals.ndim] = np.flip(inner, axis=tuple(range(vals.ndim)))
            return GridFunction(self.spec, out)
        return GridFunction(self.spec, np.flip(vals, axis=tuple(range(vals.ndim))))

    def interp(self, points: np.ndarray) -> np.ndarray:
        """Multilinear interpolation, zero outside the box."""
        points = np.asarray(points, dtype=float)
        base = points.shape[:-1]
        q = self.spec.q_total
        u = points / self.spec.spacings + self.spec.origin
        i0 = np.floor(u).astype(np.int64)
        frac = u - i0
        out = np.zeros(base, dtype=complex)
        for corner in iproduct((0, 1), repeat=q):
            idx = i0 + np.array(corner)
            w = np.ones(base)
            for j, c in enumerate(corner):
                w = w * (frac[..., j] if c else 1.0 - frac[..., j])
            inb = np.all((idx >= 0) & (idx < self.spec.N), axis=-1)
            safe = np.where(inb[..., None], idx, 0)
            vals = self.values[tuple(np.moveaxis(safe, -1, 0))]
            out += np.where(inb, vals * w, 0.0)
        return out
