"""Command line front end for group checks, kernel diagnostics, and inversion.

Configuration is resolved in four layers, deepest wins: built-in defaults,
then the --config JSON file, then the subcommand's own flags, then repeated
--set key=value overrides (dotted keys, values parsed as JSON with a plain
string fallback).  The fully resolved configuration is embedded in every
report so a run can be reproduced from its output alone.

Each run writes <out>/report.json with sorted keys and no timestamps, so
identical configuration and seed give byte-identical files; wall clock data
goes to the meta.json sidecar.  The output directory comes from --out, the
NILCONV_OUT environment variable, or ./nilconv-out, in that order.  Values
JSON cannot carry are normalized: complex numbers become [real, imag] pairs,
NaN becomes null, infinities become the strings "Infinity" / "-Infinity".

Exit codes: 0 on success, 2 on configuration errors (a JSON object on stderr
with a JSON-pointer path per error), 3 when a numerical procedure misses its
convergence or residual target.
"""

import argparse
import json
import os
import sys
import time
from datetime import datetime, timezone

import numpy as np

from .convolution import PAIR_BUDGET, boundary_mass_fraction, compose_kernels, convolve, op_norm
from .grid import GridSpec
from .inversion import (
    NOT_INVERTIBLE,
    choose_epsilon,
    near_identity_kernel,
    neumann_invert,
    seminorm_decay,
)
from .kernels import (
    CLOSED_FORM_CATALOG,
    ClosedFormKernel,
    DeltaKernel,
    DiscreteHilbertKernel,
    GridKernel,
    TensorKernel,
    check_cancellation,
    check_growth,
    load_kernel,
    save_kernel,
    synth_dyadic,
)
from .product import ProductGroup, load_product
from .seminorms import SeminormConfig, fk_seminorm, pk_seminorm
from .tame import tame_csv, tame_report_fk, tame_report_pk

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3

KERNEL_NAMES = (
    "delta",
    "discrete-hilbert",
    "tensor-hilbert",
    "dyadic",
    "near-identity-dyadic",
) + tuple(sorted(CLOSED_FORM_CATALOG))

DYADIC_FAMILIES = ("gauss-deriv", "mexican", "random")

# Knobs bundled with the tensor-hilbert kernel for `invert`; explicit user
# settings at the same paths win.
TENSOR_HILBERT_INVERT = {
    "paper_eps": True,
    "amplification_cap": 1.5,
    "cond_cap": 4.0,
    "pad_factor": 2,
}


class ConfigError(Exception):
    """Validation failure at a JSON-pointer path in the resolved config."""

    def __init__(self, path, message):
        super().__init__(f"{path}: {message}")
        self.path = path
        self.message = message

    def entry(self):
        return {"path": self.path, "message": self.message}


# -- configuration ---------------------------------------------------------


def _defaults():
    return {
        "group": "abelian1",
        "grid": {"N": 16, "T": 1.0},
        "seed": 0,
        "kernel": {
            "name": "delta",
            "amplitude": 1.0,
            "family": "random",
            "n_min": -2,
            "n_max": 0,
            "moment_order": 1,
            "flag": False,
            "seed": None,
            "strength": 0.2,
        },
        "check": {"samples": 200, "tol": 1e-9, "triangle_samples": 500},
        "growth": {"k": None, "n_samples": 400, "margin_cells": 2.0},
        "cancel": {
            "mu": 0,
            "bumps": ["even"],
            "R_values": None,
            "k": None,
            "n_samples": 300,
            "n_quad": 240,
        },
        "convolve": {"other": {"name": "delta"}, "check": False, "save": False},
        "opnorm": {"max_iter": 60, "tol": 1e-10},
        "seminorm": {
            "kind": "pk",
            "k": None,
            "radius_factors": None,
            "j_window": None,
            "directions": None,
        },
        "tame": {
            "pairs": 8,
            "k": None,
            "kind": "pk",
            "radius_factors": [1.0],
        },
        "invert": {
            "max_n": 64,
            "tol": 1e-8,
            "eps": None,
            "paper_eps": False,
            "amplification_cap": None,
            "cond_cap": 4.0,
            "pad_factor": 1,
            "probes": 3,
            "probe_seed": 101,
            "residual_tol": 0.05,
            "track_k": None,
            "growth_k": None,
            "save": False,
        },
        "decay": {
            "kind": "pk",
            "k": None,
            "n_list": [1, 2, 4, 8],
            "eps": None,
            "paper_eps": False,
            "radius_factors": [1.0],
        },
    }


def _merge(dst, src, path=""):
    for key, value in src.items():
        here = f"{path}/{key}"
        if isinstance(value, dict) and isinstance(dst.get(key), dict):
            _merge(dst[key], value, here)
        else:
            dst[key] = value
    return dst


def _parse_set(item):
    key, sep, raw = item.partition("=")
    key = key.strip()
    if not sep or not key:
        raise ConfigError("/--set", f"expected key=value, got {item!r}")
    try:
        value = json.loads(raw)
    except json.JSONDecodeError:
        value = raw
    tree = {}
    node = tree
    parts = key.split(".")
    for part in parts[:-1]:
        node[part] = {}
        node = node[part]
    node[parts[-1]] = value
    return tree


def _load_config_file(path):
    try:
        with open(path) as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ConfigError("/--config", str(exc))
    except json.JSONDecodeError as exc:
        raise ConfigError("", f"invalid JSON in {path}: {exc}")
    if not isinstance(data, dict):
        raise ConfigError("", "config file must hold a JSON object")
    return data


def _check_known_keys(overlay, known):
    for key in overlay:
        if key not in known:
            raise ConfigError(f"/{key}", f"unknown configuration section {key!r}")


def resolve_config(args, flag_map):
    """defaults <- config file <- subcommand flags <- --set overrides."""
    base = _defaults()
    user = {}
    if getattr(args, "config", None):
        _merge(user, _load_config_file(args.config))
    for dest, dotted in flag_map:
        value = getattr(args, dest, None)
        if value is None:
            continue
        _merge(user, _parse_set(f"{dotted}={json.dumps(value)}"))
    for item in getattr(args, "set", None) or []:
        _merge(user, _parse_set(item))
    _check_known_keys(user, base)
    return _merge(base, user), user


# -- validation --------------------------------------------------------------


def _is_num(v):
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _is_int(v):
    return isinstance(v, int) and not isinstance(v, bool)


def _need(errors, cond, path, message):
    if not cond:
        errors.append({"path": path, "message": message})


def _validate_kernel_section(errors, kcfg, path):
    name = kcfg.get("name")
    _need(errors, isinstance(name, str) and name, f"{path}/name",
          "kernel name must be a nonempty string")
    amp = kcfg.get("amplitude", 1.0)
    amp_ok = _is_num(amp) or (
        isinstance(amp, list) and len(amp) == 2 and all(_is_num(v) for v in amp))
    _need(errors, amp_ok, f"{path}/amplitude",
          "amplitude must be a number or a [real, imag] pair")
    fam = kcfg.get("family", "random")
    _need(errors, fam in DYADIC_FAMILIES, f"{path}/family",
          f"family must be one of {', '.join(DYADIC_FAMILIES)}")
    n_min, n_max = kcfg.get("n_min", -2), kcfg.get("n_max", 0)
    _need(errors, _is_int(n_min) and _is_int(n_max) and n_min <= n_max,
          f"{path}/n_min", "need integer scales with n_min <= n_max")
    _need(errors, _is_int(kcfg.get("moment_order", 1)) and kcfg.get("moment_order", 1) >= 0,
          f"{path}/moment_order", "moment_order must be a nonnegative integer")
    ks = kcfg.get("seed")
    _need(errors, ks is None or (_is_int(ks) and ks >= 0), f"{path}/seed",
          "kernel seed must be a nonnegative integer or null")
    st = kcfg.get("strength", 0.2)
    _need(errors, _is_num(st) and 0.0 < st < 1.0, f"{path}/strength",
          "strength must lie strictly between 0 and 1")


def _validate_kvec(errors, value, path, allow_none=True):
    if value is None:
        _need(errors, allow_none, path, "order vector is required here")
        return
    ok = (isinstance(value, list) and value
          and all(_is_int(v) and v >= 0 for v in value))
    _need(errors, ok, path, "expected a list of nonnegative integer orders")


def validate_config(cfg, command):
    errors = []
    _need(errors, isinstance(cfg.get("group"), str) and cfg["group"], "/group",
          "group must be a preset name or a JSON file path")
    grid = cfg.get("grid")
    if isinstance(grid, dict):
        _need(errors, _is_int(grid.get("N")) and grid["N"] >= 4, "/grid/N",
              "N must be an integer >= 4")
        _need(errors, _is_num(grid.get("T")) and grid["T"] > 0, "/grid/T",
              "T must be a positive number")
    else:
        _need(errors, False, "/grid", "grid must be an object with N and T")
    _need(errors, _is_int(cfg.get("seed")) and cfg["seed"] >= 0, "/seed",
          "seed must be a nonnegative integer")
    _validate_kernel_section(errors, cfg.get("kernel", {}), "/kernel")

    if command == "group check":
        c = cfg["check"]
        _need(errors, _is_int(c.get("samples")) and c["samples"] >= 1,
              "/check/samples", "samples must be a positive integer")
        _need(errors, _is_num(c.get("tol")) and c["tol"] > 0, "/check/tol",
              "tol must be positive")
    elif command == "kernel check-growth":
        g = cfg["growth"]
        _validate_kvec(errors, g.get("k"), "/growth/k")
        _need(errors, _is_int(g.get("n_samples")) and g["n_samples"] >= 1,
              "/growth/n_samples", "n_samples must be a positive integer")
        _need(errors, _is_num(g.get("margin_cells")) and g["margin_cells"] >= 0,
              "/growth/margin_cells", "margin_cells must be nonnegative")
    elif command == "kernel check-cancel":
        c = cfg["cancel"]
        _need(errors, _is_int(c.get("mu")) and c["mu"] >= 0, "/cancel/mu",
              "mu must be a nonnegative factor index")
        _need(errors, isinstance(c.get("bumps"), list) and c["bumps"],
              "/cancel/bumps", "bumps must be a nonempty list")
        rv = c.get("R_values")
        _need(errors, rv is None or (isinstance(rv, list) and rv
                                     and all(_is_num(v) and v > 0 for v in rv)),
              "/cancel/R_values", "R_values must be positive numbers or null")
        _validate_kvec(errors, c.get("k"), "/cancel/k")
    elif command == "convolve":
        _validate_kernel_section(errors, cfg["convolve"].get("other", {}),
                                 "/convolve/other")
    elif command == "opnorm":
        o = cfg["opnorm"]
        _need(errors, _is_int(o.get("max_iter")) and o["max_iter"] >= 8,
              "/opnorm/max_iter", "max_iter must be an integer >= 8")
        _need(errors, _is_num(o.get("tol")) and o["tol"] > 0, "/opnorm/tol",
              "tol must be positive")
    elif command == "seminorm":
        s = cfg["seminorm"]
        _need(errors, s.get("kind") in ("pk", "fk"), "/seminorm/kind",
              "kind must be 'pk' or 'fk'")
        _validate_kvec(errors, s.get("k"), "/seminorm/k")
    elif command == "tame":
        t = cfg["tame"]
        _need(errors, _is_int(t.get("pairs")) and t["pairs"] >= 1, "/tame/pairs",
              "pairs must be a positive integer")
        _need(errors, t.get("kind") in ("pk", "fk"), "/tame/kind",
              "kind must be 'pk' or 'fk'")
        _validate_kvec(errors, t.get("k"), "/tame/k")
    elif command == "invert":
        i = cfg["invert"]
        _need(errors, _is_int(i.get("max_n")) and i["max_n"] >= 1,
              "/invert/max_n", "max_n must be a positive integer")
        _need(errors, _is_num(i.get("tol")) and i["tol"] >= 0, "/invert/tol",
              "tol must be nonnegative")
        eps = i.get("eps")
        _need(errors, eps is None or (_is_num(eps) and eps > 0), "/invert/eps",
              "eps must be a positive number or null")
        cap = i.get("amplification_cap")
        _need(errors, cap is None or (_is_num(cap) and cap > 0),
              "/invert/amplification_cap", "amplification_cap must be positive or null")
        if cap is not None and eps is not None:
            _need(errors, False, "/invert/amplification_cap",
                  "the cap needs computed sigma estimates; drop /invert/eps")
        _need(errors, _is_num(i.get("cond_cap")) and i["cond_cap"] > 1,
              "/invert/cond_cap", "cond_cap must exceed 1")
        _need(errors, _is_int(i.get("pad_factor")) and i["pad_factor"] >= 1,
              "/invert/pad_factor", "pad_factor must be a positive integer")
        _need(errors, _is_int(i.get("probes")) and i["probes"] >= 1,
              "/invert/probes", "probes must be a positive integer")
        _need(errors, _is_num(i.get("residual_tol")) and i["residual_tol"] > 0,
              "/invert/residual_tol", "residual_tol must be positive")
        _validate_kvec(errors, i.get("track_k"), "/invert/track_k")
        _validate_kvec(errors, i.get("growth_k"), "/invert/growth_k")
    elif command == "decay":
        d = cfg["decay"]
        _need(errors, d.get("kind") in ("pk", "fk"), "/decay/kind",
              "kind must be 'pk' or 'fk'")
        _validate_kvec(errors, d.get("k"), "/decay/k")
        nl = d.get("n_list")
        _need(errors, isinstance(nl, list) and nl
              and all(_is_int(v) and v >= 1 for v in nl),
              "/decay/n_list", "n_list must be a list of positive integers")
        eps = d.get("eps")
        _need(errors, eps is None or (_is_num(eps) and eps > 0), "/decay/eps",
              "eps must be a positive number or null")
    return errors


# -- builders ----------------------------------------------------------------


def _build_group(cfg):
    try:
        return load_product(cfg["group"])
    except (ValueError, OSError, KeyError, json.JSONDecodeError) as exc:
        raise ConfigError("/group", str(exc))


def _build_spec(cfg, group):
    try:
        return GridSpec(group, cfg["grid"]["N"], cfg["grid"]["T"])
    except ValueError as exc:
        raise ConfigError("/grid", str(exc))


def _amplitude(kcfg):
    amp = kcfg.get("amplitude", 1.0)
    if isinstance(amp, list):
        return complex(amp[0], amp[1])
    return complex(amp)


def _kernel_seed(kcfg, cfg):
    return cfg["seed"] if kcfg.get("seed") is None else kcfg["seed"]


def _build_kernel(kcfg, group, spec, cfg, path="/kernel"):
    name = kcfg["name"]
    amp = _amplitude(kcfg)
    if os.path.isfile(name) or os.sep in name:
        return _load_kernel_file(name, group, spec, path)
    try:
        if name == "delta":
            return DeltaKernel(group, amp)
        if name in CLOSED_FORM_CATALOG:
            return ClosedFormKernel(group, name, amplitude=amp)
        if name == "discrete-hilbert":
            return DiscreteHilbertKernel(group, amp)
        if name == "tensor-hilbert":
            parts = [DiscreteHilbertKernel(ProductGroup([f]))
                     for f in group.factors]
            parts[0] = DiscreteHilbertKernel(parts[0].group, amp)
            return TensorKernel(parts)
        if name in ("dyadic", "near-identity-dyadic"):
            D = synth_dyadic(
                group, kcfg["n_min"], kcfg["n_max"], kcfg["family"],
                seed=_kernel_seed(kcfg, cfg),
                moment_order=kcfg["moment_order"],
                flag_mode=bool(kcfg.get("flag", False)),
            )
            if name == "dyadic":
                return D
            return near_identity_kernel(D, spec, strength=kcfg["strength"])
    except ValueError as exc:
        raise ConfigError(f"{path}/name", str(exc))
    raise ConfigError(
        f"{path}/name",
        f"unknown kernel {name!r}; choose one of {', '.join(KERNEL_NAMES)} "
        "or pass a saved kernel file path",
    )


def _load_kernel_file(name, group, spec, path):
    try:
        kernel = load_kernel(name)
    except (ValueError, OSError) as exc:
        raise ConfigError(f"{path}/name", str(exc))
    if kernel.group.to_dict() != group.to_dict():
        raise ConfigError(f"{path}/name",
                          "kernel file group does not match /group; "
                          "pass the preset it was synthesized for")
    if isinstance(kernel, GridKernel) and (
            kernel.spec.N != spec.N or kernel.spec.T != spec.T):
        raise ConfigError(f"{path}/name",
                          f"kernel file grid (N={kernel.spec.N}, T={kernel.spec.T}) "
                          "does not match /grid")
    return kernel


def _seminorm_config(cfg, section, extra=None):
    kw = {"seed": cfg["seed"]}
    rf = section.get("radius_factors")
    if rf is not None:
        kw["radius_factors"] = tuple(rf)
    jw = section.get("j_window")
    if jw is not None:
        kw["j_window"] = tuple(jw)
    if section.get("directions") is not None:
        kw["directions"] = section["directions"]
    if extra:
        kw.update(extra)
    try:
        return SeminormConfig(**kw)
    except ValueError as exc:
        raise ConfigError("/seminorm", str(exc))


def _kvec(value, group):
    if value is None:
        return (1,) * group.nu
    if len(value) != group.nu:
        raise ConfigError("/k", f"order vector needs {group.nu} entries")
    return tuple(int(v) for v in value)


# -- output ------------------------------------------------------------------


def _sanitize(obj):
    if isinstance(obj, dict):
        return {str(k): _sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_sanitize(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_sanitize(v) for v in obj.tolist()]
    if isinstance(obj, bool) or obj is None or isinstance(obj, str):
        return obj
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        v = float(obj)
        if v != v:
            return None
        if v in (float("inf"), float("-inf")):
            return "Infinity" if v > 0 else "-Infinity"
        return v
    if isinstance(obj, (complex, np.complexfloating)):
        return [_sanitize(obj.real), _sanitize(obj.imag)]
    raise TypeError(f"cannot serialize {type(obj).__name__} in a report")


def _out_dir(args):
    return args.out or os.environ.get("NILCONV_OUT") or "nilconv-out"


def _write_report(outdir, command, cfg, result, started):
    os.makedirs(outdir, exist_ok=True)
    report = {"command": command, "config": cfg, "result": result}
    text = json.dumps(_sanitize(report), indent=2, sort_keys=True,
                      allow_nan=False) + "\n"
    report_path = os.path.join(outdir, "report.json")
    with open(report_path, "w") as fh:
        fh.write(text)
    meta = {
        "command": command,
        "timestamp": datetime.now(timezone.utc).isoformat(),
        "elapsed_seconds": time.monotonic() - started,
    }
    with open(os.path.join(outdir, "meta.json"), "w") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return report_path


def _write_csv(outdir, filename, header, rows):
    path = os.path.join(outdir, filename)
    with open(path, "w", newline="") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(",".join(row) + "\n")
    return path


# -- subcommand handlers -----------------------------------------------------


def _cmd_group_check(cfg, args):
    group = _build_group(cfg)
    c = cfg["check"]
    rng = np.random.default_rng(cfg["seed"])
    a, b, d = rng.uniform(-1.0, 1.0, (3, c["samples"], group.q_total))
    zero = np.zeros(group.q_total)
    r = rng.uniform(0.5, 2.0, group.nu)

    assoc = np.abs(group.multiply(group.multiply(a, b), d)
                   - group.multiply(a, group.multiply(b, d))).max()
    ident = max(np.abs(group.multiply(a, zero) - a).max(),
                np.abs(group.multiply(zero, a) - a).max())
    inv = np.abs(group.multiply(a, group.invert(a))).max()
    dil = np.abs(group.dilate(r, group.multiply(a, b))
                 - group.multiply(group.dilate(r, a), group.dilate(r, b))).max()
    fn = group.factor_norms(a)
    scaled = r[None, :] * fn
    hom = (np.abs(group.factor_norms(group.dilate(r, a)) - scaled).max()
           / max(scaled.max(), 1e-300))

    tol = c["tol"]
    invariants = {
        "associativity": float(assoc),
        "identity": float(ident),
        "inverse": float(inv),
        "dilation_morphism": float(dil),
        "norm_homogeneity_rel": float(hom),
    }
    ok = all(v <= tol for v in invariants.values())
    result = {
        "factors": [
            {
                "n_layers": f.n_layers,
                "layer_dims": list(f.layer_dims),
                "dim": f.dim,
                "Q": f.homogeneous_dimension,
                "abelian": bool(f.is_abelian),
                "weights": f.weights.tolist(),
                # nonzero structure constants pass antisymmetry, grading,
                # and Jacobi checks at construction time
                "bracket_entries": int(np.count_nonzero(f.C)),
            }
            for f in group.factors
        ],
        "nu": group.nu,
        "Q": int(sum(group.Q)),
        "grading_ok": True,
        "jacobi_ok": True,
        "invariants": invariants,
        "tol": tol,
        "triangle_constants": list(
            group.triangle_constants(c["triangle_samples"], seed=cfg["seed"])),
        "ok": ok,
    }
    status = "ok" if ok else "invariants violated"
    line = f"group check: {status} (nu={group.nu}, Q={result['Q']})"
    return result, (EXIT_OK if ok else EXIT_NUMERIC), line, {}


def _cmd_kernel_synth(cfg, args):
    group = _build_group(cfg)
    spec = _build_spec(cfg, group)
    k = cfg["kernel"]
    try:
        kernel = synth_dyadic(
            group, k["n_min"], k["n_max"], k["family"],
            seed=_kernel_seed(k, cfg), moment_order=k["moment_order"],
            flag_mode=bool(k.get("flag", False)),
        )
    except ValueError as exc:
        raise ConfigError("/kernel", str(exc))
    rendered = kernel.render(spec)
    result = {
        "kernel_file": "kernel.nckr",
        "family": k["family"],
        "window": [list(n) for n in kernel.window],
        "moment_order": kernel.moment_order,
        "flag_mode": kernel.flag_mode,
        "l2_norm": float(rendered.data.l2_norm()),
        "max_abs": float(rendered.data.max_abs()),
    }

    def emit(outdir):
        save_kernel(kernel, os.path.join(outdir, "kernel.nckr"))

    line = (f"kernel synth: {len(kernel.window)} scales "
            f"({k['family']}, moments {kernel.moment_order}) -> kernel.nckr")
    return result, EXIT_OK, line, {"emit": emit}


def _cmd_kernel_check_growth(cfg, args):
    group = _build_group(cfg)
    spec = _build_spec(cfg, group)
    kernel = _build_kernel(cfg["kernel"], group, spec, cfg)
    g = cfg["growth"]
    kvec = None if g["k"] is None else _kvec(g["k"], group)
    try:
        rep = check_growth(kernel, spec, kvec=kvec, n_samples=g["n_samples"],
                           seed=cfg["seed"], margin_cells=g["margin_cells"])
    except ValueError as exc:
        raise ConfigError("/growth", str(exc))
    result = dict(rep.to_dict(), max_constant=rep.max_constant())
    ok = rep.valid and all(np.isfinite(v) for v in rep.constants.values())
    line = f"check-growth: max constant {rep.max_constant():.6g} over {len(rep.constants)} orders"
    return result, (EXIT_OK if ok else EXIT_NUMERIC), line, {}


def _cancel_rows(entries) -> list:
    """cancel.csv rows: bump, R, order-0 constant, max constant, reduced sup."""
    rows = []
    for e in entries:
        c0 = next((v for a, v in e.report.constants.items() if a.is_zero()), 0.0)
        rows.append([e.bump, f"{e.R:.12g}", f"{c0:.12g}",
                     f"{e.report.max_constant():.12g}", f"{e.reduced_sup:.12g}"])
    return rows


def _cmd_kernel_check_cancel(cfg, args):
    group = _build_group(cfg)
    spec = _build_spec(cfg, group)
    kernel = _build_kernel(cfg["kernel"], group, spec, cfg)
    c = cfg["cancel"]
    if not 0 <= c["mu"] < group.nu:
        raise ConfigError("/cancel/mu", f"factor index must lie in [0, {group.nu})")
    rv = None if c["R_values"] is None else tuple(float(v) for v in c["R_values"])
    try:
        rep = check_cancellation(
            kernel, c["mu"], spec, bumps=tuple(c["bumps"]), R_values=rv,
            kvec=None if c["k"] is None else tuple(c["k"]),
            n_samples=c["n_samples"], seed=cfg["seed"], n_quad=c["n_quad"],
        )
    except ValueError as exc:
        raise ConfigError("/cancel", str(exc))
    rows = _cancel_rows(rep.entries)
    ok = np.isfinite(rep.sup_constant)
    result = dict(rep.to_dict(), ok=bool(ok))
    line = f"check-cancel: sup constant {rep.sup_constant:.6g} over {len(rep.entries)} reductions"

    def emit(outdir):
        _write_csv(outdir, "cancel.csv",
                   "bump,R,order0_constant,max_constant,reduced_sup", rows)

    return result, (EXIT_OK if ok else EXIT_NUMERIC), line, {"emit": emit}


def _cmd_convolve(cfg, args):
    group = _build_group(cfg)
    spec = _build_spec(cfg, group)
    K = _build_kernel(cfg["kernel"], group, spec, cfg)
    other = dict(_defaults()["kernel"])
    other.update(cfg["convolve"]["other"])
    L = _build_kernel(other, group, spec, cfg, path="/convolve/other")
    M = compose_kernels(K, L, spec)
    result = {
        "l2_norm": float(M.data.l2_norm()),
        "max_abs": float(M.data.max_abs()),
        "boundary_mass_fraction": float(boundary_mass_fraction(M.data)),
    }
    if cfg["convolve"]["check"]:
        if spec.size ** 2 > PAIR_BUDGET:
            raise ConfigError("/convolve/check",
                              "grid too large for the direct path; lower /grid/N")
        f = K.render(spec).data
        g = L.render(spec).data
        fast = convolve(f, g, path="fast")
        direct = convolve(f, g, path="direct")
        denom = max(np.linalg.norm(direct.values.ravel()), 1e-300)
        result["path_rel_error"] = float(
            np.linalg.norm((fast.values - direct.values).ravel()) / denom)
    exit_code = EXIT_OK
    extras = {}
    if cfg["convolve"]["save"]:
        extras["emit"] = lambda outdir: save_kernel(
            M, os.path.join(outdir, "result.nckr"))
        result["kernel_file"] = "result.nckr"
    line = f"convolve: |K*L|_2 = {result['l2_norm']:.6g}"
    if "path_rel_error" in result:
        line += f", fast vs direct rel error {result['path_rel_error']:.3g}"
    return result, exit_code, line, extras


def _cmd_opnorm(cfg, args):
    group = _build_group(cfg)
    spec = _build_spec(cfg, group)
    K = _build_kernel(cfg["kernel"], group, spec, cfg)
    o = cfg["opnorm"]
    est = op_norm(K, spec, max_iter=o["max_iter"], tol=o["tol"], seed=cfg["seed"])
    line = (f"opnorm: {est.value:.8g} "
            f"({'converged' if est.converged else 'not converged'} "
            f"after {est.iterations} iterations)")
    return est.to_dict(), (EXIT_OK if est.converged else EXIT_NUMERIC), line, {}


def _cmd_seminorm(cfg, args):
    group = _build_group(cfg)
    spec = _build_spec(cfg, group)
    K = _build_kernel(cfg["kernel"], group, spec, cfg)
    s = cfg["seminorm"]
    kvec = _kvec(s["k"], group)
    sc = _seminorm_config(cfg, s)
    fn = pk_seminorm if s["kind"] == "pk" else fk_seminorm
    try:
        rep = fn(K, spec, kvec, cfg=sc)
    except ValueError as exc:
        raise ConfigError("/seminorm", str(exc))
    line = f"seminorm: {s['kind']} at k={list(kvec)} is {rep.total:.8g}"
    extras = {"emit": lambda outdir: rep.export_csv(
        os.path.join(outdir, "seminorm.csv"))}
    return rep.to_dict(), EXIT_OK, line, extras


def _cmd_tame(cfg, args):
    group = _build_group(cfg)
    if group.nu < 2:
        raise ConfigError("/group", "tame reports need at least two factors")
    spec = _build_spec(cfg, group)
    t = cfg["tame"]
    kvec = _kvec(t["k"], group)
    sc = _seminorm_config(cfg, t)
    k = cfg["kernel"]
    flag_mode = t["kind"] == "fk" or bool(k.get("flag", False))
    fn = tame_report_pk if t["kind"] == "pk" else tame_report_fk

    reports = []
    for i in range(t["pairs"]):
        base = cfg["seed"] + 2 * i
        K = synth_dyadic(group, k["n_min"], k["n_max"], k["family"],
                         seed=base, moment_order=k["moment_order"],
                         flag_mode=flag_mode)
        L = synth_dyadic(group, k["n_min"], k["n_max"], k["family"],
                         seed=base + 1, moment_order=k["moment_order"],
                         flag_mode=flag_mode)
        reports.append(fn(K, L, spec, kvec, cfg=sc, ids=(f"K{i}", f"L{i}")))

    ratios = [r.ratio for r in reports]
    finite = all(np.isfinite(v) for v in ratios)
    result = {
        "rows": [r.to_dict() for r in reports],
        "max_ratio": max(ratios),
        "all_tameness_ok": all(r.tameness_ok for r in reports),
        "finite": finite,
    }
    extras = {"emit": lambda outdir: tame_csv(
        reports, os.path.join(outdir, "tame.csv"))}
    line = (f"tame: {t['pairs']} pairs at k={list(kvec)}, "
            f"max ratio {result['max_ratio']:.4g}, "
            f"structure {'ok' if result['all_tameness_ok'] else 'violated'}")
    return result, (EXIT_OK if finite else EXIT_NUMERIC), line, extras


def _apply_kernel_bundle(cfg, user):
    if cfg["kernel"]["name"] != "tensor-hilbert":
        return
    touched = user.get("invert", {})
    for key, value in TENSOR_HILBERT_INVERT.items():
        if key not in touched:
            cfg["invert"][key] = value
    # a fixed eps carries no sigma estimates, so the cap cannot price steps
    if touched.get("eps") is not None:
        cfg["invert"]["amplification_cap"] = touched.get("amplification_cap")


def _cmd_invert(cfg, args):
    group = _build_group(cfg)
    spec = _build_spec(cfg, group)
    K = _build_kernel(cfg["kernel"], group, spec, cfg)
    i = cfg["invert"]
    track = None if i["track_k"] is None else _kvec(i["track_k"], group)
    growth_k = None if i["growth_k"] is None else _kvec(i["growth_k"], group)
    sc = SeminormConfig(radius_factors=(1.0,), seed=cfg["seed"]) if track else None
    try:
        res = neumann_invert(
            K, spec, max_n=i["max_n"], tol=i["tol"], kvec_track=track,
            eps=i["eps"], paper_eps=bool(i["paper_eps"]),
            amplification_cap=i["amplification_cap"], cond_cap=i["cond_cap"],
            pad_factor=i["pad_factor"], probes=i["probes"],
            probe_seed=i["probe_seed"], cfg=sc, growth_kvec=growth_k,
            seed=cfg["seed"],
        )
    except ValueError as exc:
        if NOT_INVERTIBLE not in str(exc):
            raise
        line = f"invert: {exc}"
        return {"error": str(exc)}, EXIT_NUMERIC, line, {}

    ok = res.max_residual <= i["residual_tol"]
    result = dict(res.to_dict(), max_residual=res.max_residual,
                  residual_ok=bool(ok))
    step_rows = [[str(n + 1), f"{v:.12g}"]
                 for n, v in enumerate(res.step_rel_norms)]
    track_rows = [[str(t["n"]), f"{t['seminorm']:.12g}",
                   f"{t['op_norm']:.12g}", f"{t['root']:.12g}"]
                  for t in res.tracked]

    def emit(outdir):
        _write_csv(outdir, "steps.csv", "n,step_rel_norm", step_rows)
        if track_rows:
            _write_csv(outdir, "tracked.csv", "n,seminorm,op_norm,root",
                       track_rows)
        if i["save"]:
            save_kernel(res.kernel, os.path.join(outdir, "inverse.nckr"))

    if i["save"]:
        result["kernel_file"] = "inverse.nckr"
    line = (f"invert: {res.n_steps} steps, max residual "
            f"{res.max_residual:.4g} "
            f"({'ok' if ok else 'above ' + repr(i['residual_tol'])})")
    if res.flag:
        line += f" [{res.flag}]"
    return result, (EXIT_OK if ok else EXIT_NUMERIC), line, {"emit": emit}


def _cmd_decay(cfg, args):
    group = _build_group(cfg)
    spec = _build_spec(cfg, group)
    K = _build_kernel(cfg["kernel"], group, spec, cfg)
    d = cfg["decay"]
    kvec = _kvec(d["k"], group)
    sc = _seminorm_config(cfg, d)
    try:
        eps = d["eps"]
        if eps is None and d["paper_eps"]:
            eps = choose_epsilon(K, spec, paper_eps=True, seed=cfg["seed"])
        rep = seminorm_decay(K, spec, kvec, d["n_list"], cfg=sc, eps=eps,
                             kind=d["kind"], seed=cfg["seed"])
    except ValueError as exc:
        if NOT_INVERTIBLE not in str(exc):
            raise
        return {"error": str(exc)}, EXIT_NUMERIC, f"decay: {exc}", {}
    roots = [row["root"] for row in rep.rows]
    line = (f"decay: |S| = {rep.s_norm_measured:.4g}, roots "
            + " ".join(f"{r:.4g}" for r in roots))
    extras = {"emit": lambda outdir: rep.export_csv(
        os.path.join(outdir, "decay.csv"))}
    return rep.to_dict(), EXIT_OK, line, extras


# -- argument parsing ---------------------------------------------------------


def _common_flags(p, kernel=True):
    p.add_argument("--config", metavar="FILE", help="JSON configuration file")
    p.add_argument("--set", action="append", metavar="KEY=VALUE",
                   help="dotted-path override, e.g. --set invert.max_n=32; "
                        "values are parsed as JSON, falling back to strings")
    p.add_argument("--out", metavar="DIR",
                   help="output directory (default: $NILCONV_OUT or ./nilconv-out)")
    p.add_argument("--preset", dest="group", metavar="GROUP",
                   help="group preset (abelian<q>, heisenberg1) or a group JSON file")
    p.add_argument("--N", dest="grid_N", type=int, help="samples per axis")
    p.add_argument("--T", dest="grid_T", type=float, help="box half-width")
    p.add_argument("--seed", type=int, help="master seed")
    if kernel:
        p.add_argument("--kernel", dest="kernel_name", metavar="NAME",
                       help="kernel preset (" + ", ".join(KERNEL_NAMES)
                            + ") or a saved .nckr file")


BASE_FLAGS = [
    ("group", "group"),
    ("grid_N", "grid.N"),
    ("grid_T", "grid.T"),
    ("seed", "seed"),
    ("kernel_name", "kernel.name"),
]


def _kvec_flag(p, flag="--k", dest="k", help="derivative orders, one per factor"):
    p.add_argument(flag, dest=dest, type=int, nargs="+", metavar="K", help=help)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="nilconv",
        description="Multi-parameter convolution calculus on graded groups: "
                    "group checks, kernel growth and cancellation diagnostics, "
                    "seminorms, tame estimates, and damped Neumann inversion.",
        epilog="Every subcommand writes report.json (deterministic, no "
               "timestamps) and meta.json (wall clock) to the output "
               "directory. Exit codes: 0 ok, 2 configuration error, "
               "3 numerical target missed.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    pg = sub.add_parser("group", help="group structure commands")
    pgs = pg.add_subparsers(dest="subcommand", required=True)
    p = pgs.add_parser(
        "check", help="validate grading, Jacobi, and sampled group laws",
        epilog="CSV output: none. Exit 3 when a sampled invariant exceeds "
               "/check/tol.")
    _common_flags(p, kernel=False)
    p.add_argument("--samples", type=int, dest="check_samples",
                   help="sample triples per invariant")
    p.add_argument("--tol", type=float, dest="check_tol",
                   help="absolute tolerance for sampled invariants")
    p.set_defaults(handler=_cmd_group_check, name="group check", flags=[
        ("check_samples", "check.samples"), ("check_tol", "check.tol")])

    pk = sub.add_parser("kernel", help="kernel synthesis and diagnostics")
    pks = pk.add_subparsers(dest="subcommand", required=True)

    p = pks.add_parser(
        "synth", help="synthesize a dyadic kernel and save it",
        epilog="Writes kernel.nckr plus its .json sidecar; CSV output: none. "
               "The profile family, scale window, and moment order come from "
               "the /kernel section.")
    _common_flags(p, kernel=False)
    p.add_argument("--family", dest="kernel_family", choices=DYADIC_FAMILIES)
    p.add_argument("--n-min", dest="kernel_n_min", type=int)
    p.add_argument("--n-max", dest="kernel_n_max", type=int)
    p.add_argument("--moment-order", dest="kernel_moment_order", type=int)
    p.add_argument("--flag", dest="kernel_flag",
                   action=argparse.BooleanOptionalAction, default=None,
                   help="restrict scales to the flag window")
    p.set_defaults(handler=_cmd_kernel_synth, name="kernel synth", flags=[
        ("kernel_family", "kernel.family"), ("kernel_n_min", "kernel.n_min"),
        ("kernel_n_max", "kernel.n_max"),
        ("kernel_moment_order", "kernel.moment_order"),
        ("kernel_flag", "kernel.flag")])

    p = pks.add_parser(
        "check-growth", help="sampled growth constants of a kernel",
        epilog="CSV output: none; per-order constants live in report.json. "
               "Exit 3 when a constant is not finite.")
    _common_flags(p)
    _kvec_flag(p, dest="growth_k")
    p.add_argument("--n-samples", dest="growth_n_samples", type=int)
    p.add_argument("--margin-cells", dest="growth_margin", type=float)
    p.set_defaults(handler=_cmd_kernel_check_growth, name="kernel check-growth",
                   flags=[("growth_k", "growth.k"),
                          ("growth_n_samples", "growth.n_samples"),
                          ("growth_margin", "growth.margin_cells")])

    p = pks.add_parser(
        "check-cancel", help="cancellation via reductions over one factor",
        epilog="CSV output: cancel.csv with columns "
               "bump,R,order0_constant,max_constant,reduced_sup. "
               "Exit 3 when the sup constant is not finite.")
    _common_flags(p)
    p.add_argument("--mu", dest="cancel_mu", type=int,
                   help="factor index to reduce over")
    p.add_argument("--bumps", dest="cancel_bumps", nargs="+")
    p.add_argument("--R", dest="cancel_R", type=float, nargs="+",
                   help="bump dilation scales")
    p.add_argument("--n-quad", dest="cancel_n_quad", type=int)
    p.set_defaults(handler=_cmd_kernel_check_cancel, name="kernel check-cancel",
                   flags=[("cancel_mu", "cancel.mu"),
                          ("cancel_bumps", "cancel.bumps"),
                          ("cancel_R", "cancel.R_values"),
                          ("cancel_n_quad", "cancel.n_quad")])

    p = sub.add_parser(
        "convolve", help="compose two kernels on the grid",
        epilog="CSV output: none. --check compares the fast and direct "
               "convolution paths on the kernel renderings.")
    _common_flags(p)
    p.add_argument("--other", dest="convolve_other", metavar="NAME",
                   help="second kernel preset or file (applied on the right)")
    p.add_argument("--check", dest="convolve_check",
                   action=argparse.BooleanOptionalAction, default=None)
    p.add_argument("--save", dest="convolve_save",
                   action=argparse.BooleanOptionalAction, default=None,
                   help="write the composed kernel to result.nckr")
    p.set_defaults(handler=_cmd_convolve, name="convolve", flags=[
        ("convolve_other", "convolve.other.name"),
        ("convolve_check", "convolve.check"),
        ("convolve_save", "convolve.save")])

    p = sub.add_parser(
        "opnorm", help="operator norm by power iteration",
        epilog="CSV output: none. Exit 3 when the iteration does not converge.")
    _common_flags(p)
    p.add_argument("--max-iter", dest="opnorm_max_iter", type=int)
    p.add_argument("--tol", dest="opnorm_tol", type=float)
    p.set_defaults(handler=_cmd_opnorm, name="opnorm", flags=[
        ("opnorm_max_iter", "opnorm.max_iter"), ("opnorm_tol", "opnorm.tol")])

    p = sub.add_parser(
        "seminorm", help="product or flag kernel seminorm",
        epilog="CSV output: seminorm.csv with columns "
               "label,alpha,j,l,z_norms,block,weight,value,iterations,residual "
               "(one row per localized block).")
    _common_flags(p)
    p.add_argument("--kind", dest="seminorm_kind", choices=("pk", "fk"))
    _kvec_flag(p, dest="seminorm_k")
    p.add_argument("--radius-factors", dest="seminorm_rf", type=float, nargs="+")
    p.set_defaults(handler=_cmd_seminorm, name="seminorm", flags=[
        ("seminorm_kind", "seminorm.kind"), ("seminorm_k", "seminorm.k"),
        ("seminorm_rf", "seminorm.radius_factors")])

    p = sub.add_parser(
        "tame", help="two-sided estimates on synthesized kernel pairs",
        epilog="CSV output: tame.csv with columns "
               "kind,kernels,kvec,N,lhs,summand0..summandM,rhs,ratio,"
               "tameness_ok (one row per pair, input order). Pairs are "
               "synthesized from consecutive seeds.")
    _common_flags(p, kernel=False)
    p.add_argument("--pairs", dest="tame_pairs", type=int)
    _kvec_flag(p, dest="tame_k")
    p.add_argument("--kind", dest="tame_kind", choices=("pk", "fk"))
    p.set_defaults(handler=_cmd_tame, name="tame", flags=[
        ("tame_pairs", "tame.pairs"), ("tame_k", "tame.k"),
        ("tame_kind", "tame.kind")])

    p = sub.add_parser(
        "invert", help="invert an operator through the damped Neumann series",
        epilog="CSV output: steps.csv with columns n,step_rel_norm; with "
               "--track-k also tracked.csv with columns n,seminorm,op_norm,"
               "root. Exit 3 when the largest probe residual exceeds "
               "--residual-tol or the grid cannot resolve the bottom "
               "singular value. The tensor-hilbert kernel bundles "
               "--paper-eps, an amplification cap of 1.5, cond-cap 4, and "
               "pad-factor 2 unless overridden.")
    _common_flags(p)
    p.add_argument("--max-n", dest="invert_max_n", type=int)
    p.add_argument("--tol", dest="invert_tol", type=float)
    p.add_argument("--eps", dest="invert_eps", type=float,
                   help="fixed damping factor (skips the spectral estimate)")
    p.add_argument("--paper-eps", dest="invert_paper_eps",
                   action=argparse.BooleanOptionalAction, default=None,
                   help="use 1/sigma_max^2 instead of the midpoint rule")
    p.add_argument("--cap", dest="invert_cap", type=float,
                   help="amplification cap for early stopping")
    p.add_argument("--cond-cap", dest="invert_cond_cap", type=float)
    p.add_argument("--pad-factor", dest="invert_pad", type=int,
                   help="run the series on an enlarged box, crop the result")
    p.add_argument("--probes", dest="invert_probes", type=int)
    p.add_argument("--probe-seed", dest="invert_probe_seed", type=int)
    p.add_argument("--residual-tol", dest="invert_residual_tol", type=float)
    _kvec_flag(p, flag="--track-k", dest="invert_track_k",
               help="track remainder seminorms at these orders")
    p.add_argument("--save", dest="invert_save",
                   action=argparse.BooleanOptionalAction, default=None,
                   help="write the inverse kernel to inverse.nckr")
    p.set_defaults(handler=_cmd_invert, name="invert", flags=[
        ("invert_max_n", "invert.max_n"), ("invert_tol", "invert.tol"),
        ("invert_eps", "invert.eps"), ("invert_paper_eps", "invert.paper_eps"),
        ("invert_cap", "invert.amplification_cap"),
        ("invert_cond_cap", "invert.cond_cap"),
        ("invert_pad", "invert.pad_factor"),
        ("invert_probes", "invert.probes"),
        ("invert_probe_seed", "invert.probe_seed"),
        ("invert_residual_tol", "invert.residual_tol"),
        ("invert_track_k", "invert.track_k"),
        ("invert_save", "invert.save")])

    p = sub.add_parser(
        "decay", help="seminorms of Neumann remainder powers",
        epilog="CSV output: decay.csv with columns "
               "n,value,root,op_norm,truncation (one row per power).")
    _common_flags(p)
    p.add_argument("--kind", dest="decay_kind", choices=("pk", "fk"))
    _kvec_flag(p, dest="decay_k")
    p.add_argument("--n-list", dest="decay_n_list", type=int, nargs="+",
                   help="powers to evaluate")
    p.add_argument("--eps", dest="decay_eps", type=float)
    p.add_argument("--paper-eps", dest="decay_paper_eps",
                   action=argparse.BooleanOptionalAction, default=None)
    p.set_defaults(handler=_cmd_decay, name="decay", flags=[
        ("decay_kind", "decay.kind"), ("decay_k", "decay.k"),
        ("decay_n_list", "decay.n_list"), ("decay_eps", "decay.eps"),
        ("decay_paper_eps", "decay.paper_eps")])

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    started = time.monotonic()
    try:
        cfg, user = resolve_config(args, BASE_FLAGS + args.flags)
        errors = validate_config(cfg, args.name)
        if errors:
            sys.stderr.write(json.dumps({"errors": errors}, indent=2,
                                        sort_keys=True) + "\n")
            return EXIT_CONFIG
        if args.name == "invert":
            _apply_kernel_bundle(cfg, user)
        result, exit_code, line, extras = args.handler(cfg, args)
    except ConfigError as exc:
        sys.stderr.write(json.dumps({"errors": [exc.entry()]}, indent=2,
                                    sort_keys=True) + "\n")
        return EXIT_CONFIG
    outdir = _out_dir(args)
    report_path = _write_report(outdir, args.name, cfg, result, started)
    if "emit" in extras:
        extras["emit"](outdir)
    print(line)
    print(f"report: {report_path}")
    return exit_code


if __name__ == "__main__":
    sys.exit(main())
