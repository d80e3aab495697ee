"""Two-sided experiments for the bilinear composition estimates.

A report composes two kernels on the grid, evaluates the seminorm of the
composition (the left side), and a sum of bilinear summands in which each
factor carries either an operator norm or a seminorm whose nonzero
derivative budget is confined to one parameter (the right side).  The
quotient left / right is the empirical constant of the estimate; its
stability under grid refinement is the checkable claim, never a fixed
threshold, since the underlying inequality carries an unspecified
constant.

The per-kernel seminorm reports are computed once at the full order
vector.  The subset entries of that single report coincide with the
dedicated lower-order runs because derivative budgets outside the subset
are zeroed before enumeration and block seeds depend only on the block
key, so no separate reports are needed for the middle summands.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field

from .convolution import compose_kernels
from .grid import GridSpec
from .seminorms import SeminormConfig, fk_seminorm, pk_seminorm


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

    def to_json(self, path=None) -> str:
        text = json.dumps(self.to_dict(), indent=2, sort_keys=True)
        if path is not None:
            with open(path, "w") as fh:
                fh.write(text)
        return text


def _reports(estimator, K, L, spec: GridSpec, kvec, cfg):
    """(kvec, cfg, rK, rL, rKL): estimator's reports of K, L and K * L at the
    order vector kvec, under cfg or the default config.
    """
    if spec.group.nu != 2:
        raise ValueError("composition reports require exactly two factor groups")
    cfg = cfg if cfg is not None else SeminormConfig()
    kvec = tuple(int(k) for k in kvec)
    rK = estimator(K, spec, kvec, cfg)
    rL = estimator(L, spec, kvec, cfg)
    rKL = estimator(compose_kernels(K, L, spec), spec, kvec, cfg)
    return kvec, cfg, rK, rL, rKL


def _resolved(kind, kvec, spec, cfg, ids) -> dict:
    return {
        "kind": kind,
        "kvec": list(kvec),
        "kernel_ids": list(ids),
        "N": spec.N,
        "T": spec.T,
        "seminorms": cfg.to_dict(),
    }


def tame_report_pk(K, L, spec: GridSpec, kvec, cfg: SeminormConfig | None = None,
                   ids=("K", "L")) -> TameReport:
    """Product-seminorm composition report with the four-term right side."""
    (k1, k2), cfg, rK, rL, rKL = _reports(pk_seminorm, K, L, spec, kvec, cfg)
    idK, idL = ids
    summands = [
        Summand("op(K) * sem(L)",
                _op_meta(idK, 2, rK.value_for(())),
                _semi_meta(idL, "product", None, (k1, k2), rL.total)),
        Summand("sem0(K) * sem1(L)",
                _semi_meta(idK, "product", (0,), (k1, 0), rK.value_for((0,))),
                _semi_meta(idL, "product", (1,), (0, k2), rL.value_for((1,)))),
        Summand("sem1(K) * sem0(L)",
                _semi_meta(idK, "product", (1,), (0, k2), rK.value_for((1,))),
                _semi_meta(idL, "product", (0,), (k1, 0), rL.value_for((0,)))),
        Summand("sem(K) * op(L)",
                _semi_meta(idK, "product", None, (k1, k2), rK.total),
                _op_meta(idL, 2, rL.value_for(()))),
    ]
    return TameReport(
        kind="product",
        kvec=(k1, k2),
        lhs=rKL.total,
        lhs_meta=_semi_meta(f"{idK}*{idL}", "product", None, (k1, k2), rKL.total),
        summands=summands,
        config=_resolved("product", (k1, k2), spec, cfg, ids),
        seminorm_reports={"K": rK, "L": rL, "KL": rKL},
    )


def tame_report_single(K, L, spec: GridSpec, k1: int,
                       cfg: SeminormConfig | None = None,
                       ids=("K", "L")) -> TameReport:
    """First-factor-only composition report with the two-term right side."""
    (k1, _), cfg, rK, rL, rKL = _reports(pk_seminorm, K, L, spec, (k1, 0), cfg)
    idK, idL = ids
    summands = [
        Summand("sem0(K) * op(L)",
                _semi_meta(idK, "product", (0,), (k1, 0), rK.value_for((0,))),
                _op_meta(idL, 2, rL.value_for(()))),
        Summand("op(K) * sem0(L)",
                _op_meta(idK, 2, rK.value_for(())),
                _semi_meta(idL, "product", (0,), (k1, 0), rL.value_for((0,)))),
    ]
    return TameReport(
        kind="single",
        kvec=(k1, 0),
        lhs=rKL.value_for((0,)),
        lhs_meta=_semi_meta(f"{idK}*{idL}", "product", (0,), (k1, 0),
                            rKL.value_for((0,))),
        summands=summands,
        config=_resolved("single", (k1, 0), spec, cfg, ids),
        seminorm_reports={"K": rK, "L": rL, "KL": rKL},
    )


def tame_report_fk(K, L, spec: GridSpec, kvec, cfg: SeminormConfig | None = None,
                   ids=("K", "L")) -> TameReport:
    """Flag-seminorm composition report.

    The outer summands carry flag totals; the middle summands keep the
    product-kernel subset entries, which the flag report contains.
    """
    (k1, k2), cfg, rK, rL, rKL = _reports(fk_seminorm, K, L, spec, kvec, cfg)
    idK, idL = ids
    summands = [
        Summand("op(K) * flag(L)",
                _op_meta(idK, 2, rK.value_for(())),
                _semi_meta(idL, "flag", None, (k1, k2), rL.total)),
        Summand("sem0(K) * sem1(L)",
                _semi_meta(idK, "product", (0,), (k1, 0), rK.value_for((0,))),
                _semi_meta(idL, "product", (1,), (0, k2), rL.value_for((1,)))),
        Summand("sem1(K) * sem0(L)",
                _semi_meta(idK, "product", (1,), (0, k2), rK.value_for((1,))),
                _semi_meta(idL, "product", (0,), (k1, 0), rL.value_for((0,)))),
        Summand("flag(K) * op(L)",
                _semi_meta(idK, "flag", None, (k1, k2), rK.total),
                _op_meta(idL, 2, rL.value_for(()))),
    ]
    return TameReport(
        kind="flag",
        kvec=(k1, k2),
        lhs=rKL.total,
        lhs_meta=_semi_meta(f"{idK}*{idL}", "flag", None, (k1, k2), rKL.total),
        summands=summands,
        config=_resolved("flag", (k1, k2), spec, cfg, ids),
        seminorm_reports={"K": rK, "L": rL, "KL": rKL},
    )


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


def tame_csv(reports, path) -> None:
    """One row per report: sides, summands, ratio, structure check."""
    cols = ["kind", "kernels", "kvec", "N", "lhs"]
    width = max((len(r.summands) for r in reports), default=0)
    cols += [f"summand{i}" for i in range(width)]
    cols += ["rhs", "ratio", "tameness_ok"]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(cols)
        for r in reports:
            vals = [f"{s.value:.12g}" for s in r.summands]
            vals += [""] * (width - len(vals))
            writer.writerow([
                r.kind,
                "*".join(r.config["kernel_ids"]),
                " ".join(str(k) for k in r.kvec),
                r.config["N"],
                f"{r.lhs:.12g}",
                *vals,
                f"{r.rhs:.12g}",
                f"{r.ratio:.12g}",
                r.tameness_ok,
            ])
