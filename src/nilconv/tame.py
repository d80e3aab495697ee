"""Two-sided experiments for the bilinear composition estimates.

A report composes two kernels on the grid, evaluates the seminorm of the
composition (the left side), and a sum of bilinear summands in which each
factor carries either an operator norm or a seminorm whose nonzero
derivative budget is confined to one parameter (the right side).  The
quotient left / right is the empirical constant of the estimate; its
stability under grid refinement is the checkable claim, never a fixed
threshold, since the underlying inequality carries an unspecified
constant.

The seminorm reports of K, L and K * L come from one pass
(seminorms._reports) at the full order vector, and _tame reads every
summand of every kind from them.  The subset entries of each report
coincide with the dedicated lower-order runs because derivative budgets
outside the subset are zeroed before enumeration and block seeds depend
only on the block key, so the middle summands need no separate reports.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .convolution import compose_kernels, prepare
from .grid import GridSpec
from .seminorms import SeminormConfig, _check_kvec, _reports


def _op_meta(kernel_id: str, nu: int, value: float) -> dict:
    return {
        "kernel": kernel_id,
        "stat": "op_norm",
        "variant": None,
        "subset": None,
        "orders": [0] * nu,
        "value": float(value),
    }


def _semi_meta(kernel_id: str, variant: str, subset, orders, value: float) -> dict:
    return {
        "kernel": kernel_id,
        "stat": "seminorm",
        "variant": variant,
        "subset": None if subset is None else list(subset),
        "orders": [int(k) for k in orders],
        "value": float(value),
    }


@dataclass
class Summand:
    """One bilinear right-side term: value = left factor x right factor."""

    name: str
    left: dict
    right: dict

    @property
    def value(self) -> float:
        return self.left["value"] * self.right["value"]

    def tame_ok(self, nu: int) -> bool:
        # per parameter, at most one factor may carry a nonzero order
        for p in range(nu):
            carriers = sum(
                1
                for f in (self.left, self.right)
                if f["stat"] == "seminorm" and f["orders"][p] > 0
            )
            if carriers > 1:
                return False
        return True

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "left": self.left,
            "right": self.right,
            "value": self.value,
        }


@dataclass
class TameReport:
    kind: str
    kvec: tuple
    lhs: float
    lhs_meta: dict
    summands: list
    config: dict
    seminorm_reports: dict = field(repr=False)

    @property
    def rhs(self) -> float:
        return float(sum(s.value for s in self.summands))

    @property
    def ratio(self) -> float:
        if self.rhs > 0.0:
            return self.lhs / self.rhs
        return 0.0 if self.lhs == 0.0 else float("inf")

    @property
    def tameness_ok(self) -> bool:
        nu = len(self.kvec)
        return all(s.tame_ok(nu) for s in self.summands)

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "kvec": list(self.kvec),
            "lhs": self.lhs,
            "lhs_meta": self.lhs_meta,
            "summands": [s.to_dict() for s in self.summands],
            "rhs": self.rhs,
            "ratio": self.ratio,
            "tameness_ok": self.tameness_ok,
            "config": self.config,
        }


def _resolved(kind, kvec, spec, cfg, ids) -> dict:
    return {
        "kind": kind,
        "kvec": list(kvec),
        "kernel_ids": list(ids),
        "N": spec.N,
        "T": spec.T,
        "seminorms": cfg.to_dict(),
    }


def _tame(kind, K, L, spec: GridSpec, kvec, cfg, ids) -> TameReport:
    """The composition report of one kind: "product", "flag" or "single".

    K and L are prepared once, K * L is composed from their ops, and one
    _reports pass gives all three reports at kvec (pk, or fk for "flag").
    Every summand reads one of three entries: a factor's op norm, its
    whole-report seminorm, or its one-factor entry, orders (k1, 0) or (0, k2).
    "single" has two summands and the first-factor entry of K * L as its
    left side; the others have four and the whole report of K * L.
    """
    if spec.group.nu != 2:
        raise ValueError("composition reports require exactly two factor groups")
    cfg = cfg if cfg is not None else SeminormConfig()
    kvec = _check_kvec(spec, kvec)
    opK, opL = prepare(K, spec), prepare(L, spec)
    rK, rL, rKL = _reports([opK, opL, compose_kernels(opK, opL.kernel, spec)],
                           spec, kvec, cfg, kind == "flag")
    idK, idL = ids
    variant, sem = ("flag", "flag") if kind == "flag" else ("product", "sem")

    def op(r, rid):
        return _op_meta(rid, 2, r.value_for(()))

    def whole(r, rid):
        return _semi_meta(rid, variant, None, kvec, r.total)

    def part(r, rid, mu):
        orders = (kvec[0], 0) if mu == 0 else (0, kvec[1])
        return _semi_meta(rid, "product", (mu,), orders, r.value_for((mu,)))

    if kind == "single":
        summands = [Summand("sem0(K) * op(L)", part(rK, idK, 0), op(rL, idL)),
                    Summand("op(K) * sem0(L)", op(rK, idK), part(rL, idL, 0))]
        lhs_meta = part(rKL, f"{idK}*{idL}", 0)
    else:
        summands = [Summand(f"op(K) * {sem}(L)", op(rK, idK), whole(rL, idL)),
                    Summand("sem0(K) * sem1(L)", part(rK, idK, 0), part(rL, idL, 1)),
                    Summand("sem1(K) * sem0(L)", part(rK, idK, 1), part(rL, idL, 0)),
                    Summand(f"{sem}(K) * op(L)", whole(rK, idK), op(rL, idL))]
        lhs_meta = whole(rKL, f"{idK}*{idL}")
    return TameReport(
        kind=kind,
        kvec=kvec,
        lhs=lhs_meta["value"],
        lhs_meta=lhs_meta,
        summands=summands,
        config=_resolved(kind, kvec, spec, cfg, ids),
        seminorm_reports={"K": rK, "L": rL, "KL": rKL},
    )


def tame_report_pk(K, L, spec: GridSpec, kvec, cfg: SeminormConfig | None = None,
                   ids=("K", "L")) -> TameReport:
    """Product-seminorm composition report with the four-term right side."""
    return _tame("product", K, L, spec, kvec, cfg, ids)


def tame_report_single(K, L, spec: GridSpec, k1: int,
                       cfg: SeminormConfig | None = None,
                       ids=("K", "L")) -> TameReport:
    """First-factor-only composition report with the two-term right side."""
    return _tame("single", K, L, spec, (k1, 0), cfg, ids)


def tame_report_fk(K, L, spec: GridSpec, kvec, cfg: SeminormConfig | None = None,
                   ids=("K", "L")) -> TameReport:
    """Flag-seminorm composition report.

    The outer summands carry flag totals; the middle summands keep the
    product-kernel subset entries, which the flag report contains.
    """
    return _tame("flag", K, L, spec, kvec, cfg, ids)


def swap_consistent(a: TameReport, b: TameReport) -> bool:
    """Exact summand relabeling identity for reports of (K, L) and (L, K).

    Swapping the pair swaps the outer summands and permutes the middle
    ones; the products involved are identical floats, so equality is
    exact, not approximate.
    """
    if a.kind != b.kind or a.kvec != b.kvec:
        return False
    va = [s.value for s in a.summands]
    vb = [s.value for s in b.summands]
    if a.kind == "single":
        return va[0] == vb[1] and va[1] == vb[0]
    return (va[0] == vb[3] and va[1] == vb[2]
            and va[2] == vb[1] and va[3] == vb[0])
