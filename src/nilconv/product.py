"""Direct products of graded groups and multi-parameter index bookkeeping.

A product carries one dilation parameter per factor.  Elements are stored
as flat coordinate vectors (..., q_total); factor mu owns a contiguous
slice of the coordinates.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations, product as iproduct

import numpy as np

from . import groups
from .groups import GradedLieAlgebra


class ProductGroup:
    """Direct product of graded nilpotent Lie groups."""

    def __init__(self, factors):
        self.factors = tuple(factors)
        if not self.factors:
            raise ValueError("need at least one factor")
        self.nu = len(self.factors)
        self.q = tuple(f.dim for f in self.factors)
        self.q_total = sum(self.q)
        offs = np.cumsum((0,) + self.q)
        self.slices = tuple(slice(int(a), int(b)) for a, b in zip(offs[:-1], offs[1:]))
        self.Q = tuple(f.homogeneous_dimension for f in self.factors)

    @cached_property
    def weights(self) -> np.ndarray:
        return np.concatenate([f.weights for f in self.factors])

    @cached_property
    def lattice_denominators(self) -> tuple:
        out = []
        for f in self.factors:
            out.extend(f.lattice_denominators)
        return tuple(out)

    # -- group structure, factorwise ----------------------------------------

    def multiply(self, a, b):
        a = np.asarray(a, dtype=float)
        b = np.asarray(b, dtype=float)
        a, b = np.broadcast_arrays(a, b)
        out = np.empty_like(a)
        for f, sl in zip(self.factors, self.slices):
            out[..., sl] = f.bch_multiply(a[..., sl], b[..., sl])
        return out

    def invert(self, a):
        return -np.asarray(a, dtype=float)

    def dilate(self, r, a):
        """Multi-parameter dilation with one positive scale per factor."""
        r = np.asarray(r, dtype=float).reshape(-1)
        if r.shape[0] != self.nu:
            raise ValueError(f"need {self.nu} dilation parameters, got {r.shape[0]}")
        if np.any(r <= 0):
            raise ValueError("dilation parameters must be positive")
        a = np.asarray(a, dtype=float)
        out = a.copy()
        for rmu, f, sl in zip(r, self.factors, self.slices):
            out[..., sl] = f.dilate(rmu, a[..., sl])
        return out

    def factor_norms(self, a) -> np.ndarray:
        """Per-factor homogeneous norms, shape (..., nu)."""
        a = np.asarray(a, dtype=float)
        cols = [f.hom_norm(a[..., sl]) for f, sl in zip(self.factors, self.slices)]
        return np.stack(cols, axis=-1)

    def triangle_constants(self, sample_count: int = 2000, seed: int = 0) -> tuple:
        return tuple(
            f.triangle_constant(sample_count, seed + 7 * i)
            for i, f in enumerate(self.factors)
        )

    # -- serialization ---------------------------------------------------------

    def to_dict(self) -> dict:
        return {"factors": [f.to_dict() for f in self.factors]}

    @classmethod
    def from_dict(cls, d: dict) -> "ProductGroup":
        if "factors" not in d:
            # single-factor group file
            return cls([GradedLieAlgebra.from_dict(d)])
        parts = []
        for fd in d["factors"]:
            if isinstance(fd, str):
                parts.extend(preset(fd).factors)
            else:
                parts.append(GradedLieAlgebra.from_dict(fd))
        return cls(parts)

    def __repr__(self):
        return f"ProductGroup(nu={self.nu}, q={self.q}, Q={self.Q})"


@dataclass(frozen=True)
class MultiIndex:
    """Per-factor derivative multi-index; entry (mu, j) counts X_j applications."""

    entries: tuple  # tuple over factors of tuples of nonneg ints

    @classmethod
    def make(cls, group: ProductGroup, entries) -> "MultiIndex":
        ent = tuple(tuple(int(v) for v in e) for e in entries)
        if len(ent) != group.nu:
            raise ValueError("one entry tuple per factor required")
        for e, qmu in zip(ent, group.q):
            if len(e) != qmu:
                raise ValueError("entry length must match factor dimension")
            if any(v < 0 for v in e):
                raise ValueError("multi-index entries must be nonnegative")
        return cls(ent)

    @classmethod
    def zero(cls, group: ProductGroup) -> "MultiIndex":
        return cls(tuple((0,) * qmu for qmu in group.q))

    def is_zero(self) -> bool:
        return all(all(v == 0 for v in e) for e in self.entries)


def hom_degree(group: ProductGroup, alpha: MultiIndex) -> tuple:
    """Weighted degree deg(alpha_mu) = sum_j d_j alpha_{mu,j} per factor."""
    out = []
    for f, e in zip(group.factors, alpha.entries):
        out.append(int(sum(int(w) * v for w, v in zip(f.weights, e))))
    return tuple(out)


def zero_outside(kvec, subset) -> tuple:
    """Order vector with coordinates outside the subset replaced by 0."""
    s = set(subset)
    return tuple(k if mu in s else 0 for mu, k in enumerate(kvec))


def all_subsets(nu: int):
    """Every subset of {0..nu-1} exactly once, by size then lexicographic."""
    for size in range(nu + 1):
        for combo in combinations(range(nu), size):
            yield combo


def _exponents_up_to(q: int, order: int) -> list:
    """Every exponent tuple of length q with total degree <= order, in
    lexicographic order."""
    out = []

    def rec(prefix, remaining, degree):
        if remaining == 0:
            out.append(tuple(prefix))
            return
        for v in range(degree + 1):
            rec(prefix + [v], remaining - 1, degree - v)

    rec([], q, order)
    return out


def multi_indices_up_to(group: ProductGroup, kvec, subset=None):
    """All MultiIndex with |alpha_mu| <= k_mu, restricted to the subset.

    Factors outside the subset get the zero entry.
    """
    if subset is None:
        subset = tuple(range(group.nu))
    s = set(subset)
    pools = [_exponents_up_to(qmu, int(k)) if mu in s else [(0,) * qmu]
             for mu, (qmu, k) in enumerate(zip(group.q, kvec))]
    for ent in iproduct(*pools):
        yield MultiIndex(ent)


# -- presets ---------------------------------------------------------------


def preset(name: str) -> ProductGroup:
    """Named product groups: 'abelianN' (N one-dim factors), 'heisenberg1'."""
    if name == "heisenberg1":
        return ProductGroup([groups.heisenberg1()])
    if name.startswith("abelian"):
        try:
            n = int(name[len("abelian"):])
        except ValueError:
            raise ValueError(f"unknown preset {name!r}") from None
        if n < 1:
            raise ValueError("abelian preset needs at least one factor")
        return ProductGroup([groups.abelian(1) for _ in range(n)])
    raise ValueError(f"unknown preset {name!r}")


def load_product(spec: str) -> ProductGroup:
    """Load a product from a preset name or a JSON file path."""
    try:
        return preset(spec)
    except ValueError:
        pass
    with open(spec) as f:
        return ProductGroup.from_dict(json.load(f))
