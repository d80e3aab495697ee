"""Command line front end for group checks, kernel diagnostics, and inversion.

Configuration is resolved in four layers, deepest wins: built-in defaults,
then the --config JSON file, then the subcommand's own flags, then repeated
--set key=value overrides (dotted keys, values parsed as JSON with a plain
string fallback).  Every key is declared once, in KEYS, with its default,
its kind and its flag; a flag's argparse dest is the dotted key it sets (the
usage line shows it).  A key no layer may set, at any depth, and a value not
of its key's kind are configuration errors at their JSON pointer.  The fully
resolved configuration is embedded in every report so a run can be
reproduced from its output alone.

Each run writes <out>/report.json with sorted keys and no timestamps, so
identical configuration and seed give byte-identical files; wall clock data
goes to the meta.json sidecar.  The output directory comes from --out, the
NILCONV_OUT environment variable, or ./nilconv-out, in that order.  Values
JSON cannot carry are normalized: complex numbers become [real, imag] pairs,
NaN becomes null, infinities become the strings "Infinity" / "-Infinity".
Tables go to CSV files in csv's minimal quoting with LF line ends.  The
library's reports return data (to_dict and their fields); every file
format of a run is decided here.

Exit codes: 0 on success, 2 on configuration errors (a JSON object on stderr
with a JSON-pointer path per error), 3 when a numerical procedure misses its
convergence or residual target.  validate_config checks the configuration
before a command runs; what only the library can detect (a sampling window
the grid cannot hold, a direct sum over its pair budget, a lattice-only
kernel sampled off the grid) is mapped in one place, _run, and reported at
the command's section (/tame, /growth, ...) or at /kernel/name.
"""

import argparse
import csv
import json
import os
import sys
import time
from collections.abc import Callable
from datetime import datetime, timezone
from typing import NamedTuple

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
    REDUCTION_BUMPS,
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
from .seminorms import SeminormConfig, _check_kvec, check_sampling, fk_seminorm, pk_seminorm
from .tame import tame_report_fk, tame_report_pk

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


def _is_num(v):
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _is_int(v):
    return isinstance(v, int) and not isinstance(v, bool)


class Kind(NamedTuple):
    """What a key accepts: a test of its value, the rest of the sentence
    that rejects a value (after the key's name), and the argparse keywords
    of a flag that sets such a value."""

    test: Callable
    message: str
    kwargs: dict


class Key(NamedTuple):
    """One configuration key: its default, its kind, and the flag that sets
    it ("--preset GROUP" gives a metavar) with that flag's help."""

    default: object
    kind: Kind
    flag: str | None = None
    help: str | None = None


def _int(lo):
    return Kind(lambda v: _is_int(v) and v >= lo, f"must be an integer >= {lo}", {"type": int})


def _num(test, what):
    return Kind(lambda v: _is_num(v) and test(v), f"must be {what}", {"type": float})


def _optional(kind):
    return Kind(lambda v: v is None or kind.test(v), f"{kind.message} or null", kind.kwargs)


def _list(test, what, **kwargs):
    return Kind(lambda v: isinstance(v, list) and bool(v) and all(test(x) for x in v),
                f"must be a nonempty list of {what}", {"nargs": "+", **kwargs})


def _choice(options):
    return Kind(lambda v: v in options, f"must be one of {', '.join(options)}",
                {"choices": options})


INT = Kind(_is_int, "must be an integer", {"type": int})
NAME = Kind(lambda v: isinstance(v, str) and bool(v), "must be a nonempty string", {})
SWITCH = Kind(lambda v: isinstance(v, bool), "must be true or false",
              {"action": argparse.BooleanOptionalAction})
POSITIVE = _num(lambda v: v > 0, "a positive number")
NONNEGATIVE = _num(lambda v: v >= 0, "a nonnegative number")
AMPLITUDE = Kind(
    lambda v: _is_num(v) or (isinstance(v, list) and len(v) == 2 and all(map(_is_num, v))),
    "must be a number or a [real, imag] pair", {})
ORDERS = _optional(_list(lambda v: _is_int(v) and v >= 0, "nonnegative integer orders",
                         type=int, metavar="K"))
ORDERS_HELP = "derivative orders, one per factor"
PK_FK = _choice(("pk", "fk"))
RADII = _optional(_list(lambda v: _is_num(v) and v >= 1, "numbers >= 1", type=float))
J_WINDOW = _optional(Kind(lambda v: isinstance(v, list) and len(v) == 2 and all(map(_is_int, v)),
                          "must be a [j_min, j_max] pair of integers", {}))
DIRECTIONS = _optional(_choice(("first", "axes")))

_KERNEL = {
    "name": Key("delta", NAME, "--kernel NAME",
                "kernel preset (" + ", ".join(KERNEL_NAMES) + ") or a saved .nckr file"),
    "amplitude": Key(1.0, AMPLITUDE),
    "family": Key("random", _choice(DYADIC_FAMILIES), "--family"),
    "n_min": Key(-2, INT, "--n-min"),
    "n_max": Key(0, INT, "--n-max"),
    "moment_order": Key(1, _int(0), "--moment-order"),
    "flag": Key(False, SWITCH, "--flag", "restrict scales to the flag window"),
    "seed": Key(None, _optional(_int(0))),
    "strength": Key(0.2, _num(lambda v: 0 < v < 1, "strictly between 0 and 1")),
}

# Every configuration key, once.  Defaults, validation, flags and the
# known-key check are all read off this table; a command's parser shows the
# flags of the COMMON keys, of its own section and, when it takes a kernel,
# --kernel, in table order.
KEYS = {
    "group": Key("abelian1", NAME, "--preset GROUP",
                 "group preset (abelian<q>, heisenberg1) or a group JSON file"),
    "grid.N": Key(16, _int(4), "--N", "samples per axis"),
    "grid.T": Key(1.0, POSITIVE, "--T", "box half-width"),
    "seed": Key(0, _int(0), "--seed", "master seed"),
    **{f"kernel.{name}": key for name, key in _KERNEL.items()},
    "check.samples": Key(200, _int(1), "--samples", "sample triples per invariant"),
    "check.tol": Key(1e-9, POSITIVE, "--tol", "absolute tolerance for sampled invariants"),
    "check.triangle_samples": Key(500, _int(1)),
    "growth.k": Key(None, ORDERS, "--k", ORDERS_HELP),
    "growth.n_samples": Key(400, _int(1), "--n-samples"),
    "growth.margin_cells": Key(2.0, NONNEGATIVE, "--margin-cells"),
    "cancel.mu": Key(0, _int(0), "--mu", "factor index to reduce over"),
    "cancel.bumps": Key(["even"], _list(lambda v: v in REDUCTION_BUMPS,
                                        f"bump names ({', '.join(REDUCTION_BUMPS)})"),
                        "--bumps"),
    "cancel.R_values": Key(None, _optional(_list(lambda v: _is_num(v) and v > 0,
                                                 "positive numbers", type=float)),
                           "--R", "bump dilation scales"),
    "cancel.k": Key(None, ORDERS),
    "cancel.n_samples": Key(300, _int(1)),
    "cancel.n_quad": Key(240, _int(1), "--n-quad"),
    "convolve.other.name": Key("delta", NAME, "--other NAME",
                               "second kernel preset or file (applied on the right)"),
    **{f"convolve.other.{name}": Key(key.default, key.kind)
       for name, key in _KERNEL.items() if name != "name"},
    "convolve.check": Key(False, SWITCH, "--check"),
    "convolve.save": Key(False, SWITCH, "--save", "write the composed kernel to result.nckr"),
    "opnorm.max_iter": Key(60, _int(8), "--max-iter"),
    "opnorm.tol": Key(1e-10, POSITIVE, "--tol"),
    "seminorm.kind": Key("pk", PK_FK, "--kind"),
    "seminorm.k": Key(None, ORDERS, "--k", ORDERS_HELP),
    "seminorm.radius_factors": Key(None, RADII, "--radius-factors"),
    "seminorm.j_window": Key(None, J_WINDOW),
    "seminorm.directions": Key(None, DIRECTIONS),
    "tame.pairs": Key(8, _int(1), "--pairs"),
    "tame.k": Key(None, ORDERS, "--k", ORDERS_HELP),
    "tame.kind": Key("pk", PK_FK, "--kind"),
    "tame.radius_factors": Key([1.0], RADII),
    "tame.j_window": Key(None, J_WINDOW),
    "tame.directions": Key(None, DIRECTIONS),
    "invert.max_n": Key(64, _int(1), "--max-n"),
    "invert.tol": Key(1e-8, NONNEGATIVE, "--tol"),
    "invert.eps": Key(None, _optional(POSITIVE), "--eps",
                      "fixed damping factor (skips the spectral estimate)"),
    "invert.paper_eps": Key(False, SWITCH, "--paper-eps",
                            "use 1/sigma_max^2 instead of the midpoint rule"),
    "invert.amplification_cap": Key(None, _optional(POSITIVE), "--cap",
                                    "amplification cap for early stopping"),
    "invert.cond_cap": Key(4.0, _num(lambda v: v > 1, "a number > 1"), "--cond-cap"),
    "invert.pad_factor": Key(1, _int(1), "--pad-factor",
                             "run the series on an enlarged box, crop the result"),
    "invert.probes": Key(3, _int(1), "--probes"),
    "invert.probe_seed": Key(101, _int(0), "--probe-seed"),
    "invert.residual_tol": Key(0.05, POSITIVE, "--residual-tol"),
    "invert.track_k": Key(None, ORDERS, "--track-k", "track remainder seminorms at these orders"),
    "invert.growth_k": Key(None, ORDERS),
    "invert.save": Key(False, SWITCH, "--save", "write the inverse kernel to inverse.nckr"),
    "decay.kind": Key("pk", PK_FK, "--kind"),
    "decay.k": Key(None, ORDERS, "--k", ORDERS_HELP),
    "decay.n_list": Key([1, 2, 4, 8], _list(lambda v: _is_int(v) and v >= 1,
                                            "positive integers", type=int),
                        "--n-list", "powers to evaluate"),
    "decay.eps": Key(None, _optional(POSITIVE), "--eps"),
    "decay.paper_eps": Key(False, SWITCH, "--paper-eps"),
    "decay.radius_factors": Key([1.0], RADII),
    "decay.j_window": Key(None, J_WINDOW),
    "decay.directions": Key(None, DIRECTIONS),
}

COMMON = ("group", "grid", "seed")


def _tree(dotted, value):
    for part in reversed(dotted.split(".")):
        value = {part: value}
    return value


def _get(cfg, dotted):
    for part in dotted.split("."):
        cfg = cfg[part]
    return cfg


def _merge(dst, src):
    for key, value in src.items():
        if isinstance(value, dict) and isinstance(dst.get(key), dict):
            _merge(dst[key], value)
        else:
            dst[key] = value
    return dst


def _defaults():
    cfg = {}
    for dotted, key in KEYS.items():
        default = list(key.default) if isinstance(key.default, list) else key.default
        _merge(cfg, _tree(dotted, default))
    return cfg


def _parse_set(item):
    key, sep, raw = item.partition("=")
    key = key.strip()
    if not sep or not key:
        raise ConfigError("/--set", f"expected key=value, got {item!r}")
    try:
        value = json.loads(raw)
    except json.JSONDecodeError:
        value = raw
    return _tree(key, value)


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


def _check_known_keys(overlay, known, path=""):
    for name, value in overlay.items():
        where = f"{path}/{name}"
        if name not in known:
            raise ConfigError(where, f"unknown configuration key {name!r}")
        if isinstance(known[name], dict):
            if not isinstance(value, dict):
                raise ConfigError(where, f"{name} must be an object of configuration keys")
            _check_known_keys(value, known[name], where)


def resolve_config(args):
    """defaults <- config file <- subcommand flags <- --set overrides."""
    base = _defaults()
    layers = [_load_config_file(args.config)] if args.config else []
    layers += [_tree(dest, value) for dest, value in vars(args).items()
               if value is not None and dest in KEYS]
    layers += [_parse_set(item) for item in args.set or []]
    user = {}
    for layer in layers:
        _check_known_keys(layer, base)
        _merge(user, layer)
    return _merge(base, user), user


# -- validation --------------------------------------------------------------


def validate_config(cfg, section):
    """Errors in the common sections, /kernel and the command's section."""
    errors = []
    for dotted, key in KEYS.items():
        if dotted.partition(".")[0] in (*COMMON, "kernel", section):
            if not key.kind.test(_get(cfg, dotted)):
                errors.append({"path": "/" + dotted.replace(".", "/"),
                               "message": f"{dotted.rpartition('.')[2]} {key.kind.message}"})
    kernels = ("kernel", "convolve.other") if section == "convolve" else ("kernel",)
    for kernel in kernels:
        n_min, n_max = _get(cfg, f"{kernel}.n_min"), _get(cfg, f"{kernel}.n_max")
        if _is_int(n_min) and _is_int(n_max) and n_min > n_max:
            errors.append({"path": "/" + kernel.replace(".", "/") + "/n_min",
                           "message": "need n_min <= n_max"})
    if section == "invert" and None not in (cfg["invert"]["eps"],
                                            cfg["invert"]["amplification_cap"]):
        errors.append({"path": "/invert/amplification_cap",
                       "message": "the cap needs computed sigma estimates; drop /invert/eps"})
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
    amp = kcfg["amplitude"]
    if isinstance(amp, list):
        return complex(amp[0], amp[1])
    return complex(amp)


def _kernel_seed(kcfg, cfg):
    return cfg["seed"] if kcfg["seed"] is None else kcfg["seed"]


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
                flag_mode=kcfg["flag"],
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


def _seminorm_config(cfg, section):
    kw = {"seed": cfg["seed"]}
    for key in ("radius_factors", "j_window", "directions"):
        if section[key] is not None:  # null keeps the SeminormConfig default
            kw[key] = section[key] if key == "directions" else tuple(section[key])
    return SeminormConfig(**kw)


def _kvec(value, group):
    if value is None:
        return (1,) * group.nu
    if len(value) != group.nu:
        raise ValueError(f"order vector needs {group.nu} entries, got {len(value)}")
    return tuple(int(v) for v in value)


def _orders(value, group, spec):
    """_kvec of a seminorm report's derivative orders, checked as the report
    checks them, so an order at STENCIL_GAP exits 2 before any kernel work."""
    return _check_kvec(spec, _kvec(value, group))


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
    """Every CSV file of a run: the header row, then rows of formatted
    fields, in csv's minimal quoting with LF line ends."""
    with open(os.path.join(outdir, filename), "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


# -- subcommand handlers -----------------------------------------------------


def _cmd_group_check(cfg):
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


def _cmd_kernel_synth(cfg):
    group = _build_group(cfg)
    spec = _build_spec(cfg, group)
    k = cfg["kernel"]
    kernel = synth_dyadic(
        group, k["n_min"], k["n_max"], k["family"],
        seed=_kernel_seed(k, cfg), moment_order=k["moment_order"],
        flag_mode=k["flag"],
    )
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


def _cmd_kernel_check_growth(cfg):
    group = _build_group(cfg)
    spec = _build_spec(cfg, group)
    kernel = _build_kernel(cfg["kernel"], group, spec, cfg)
    g = cfg["growth"]
    kvec = None if g["k"] is None else _kvec(g["k"], group)
    rep = check_growth(kernel, spec, kvec=kvec, n_samples=g["n_samples"],
                       seed=cfg["seed"], margin_cells=g["margin_cells"])
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


def _cmd_kernel_check_cancel(cfg):
    group = _build_group(cfg)
    spec = _build_spec(cfg, group)
    c = cfg["cancel"]
    if group.nu < 2:
        raise ConfigError("/group", "cancellation reduces one factor and needs at least two")
    if not 0 <= c["mu"] < group.nu:
        raise ConfigError("/cancel/mu", f"factor index must lie in [0, {group.nu})")
    if c["k"] is not None and len(c["k"]) != group.nu - 1:  # one order per factor left
        raise ConfigError("/cancel/k", f"order vector needs {group.nu - 1} entries, "
                          f"got {len(c['k'])}")
    kernel = _build_kernel(cfg["kernel"], group, spec, cfg)
    rv = None if c["R_values"] is None else tuple(float(v) for v in c["R_values"])
    rep = check_cancellation(
        kernel, c["mu"], spec, bumps=tuple(c["bumps"]), R_values=rv,
        kvec=None if c["k"] is None else tuple(c["k"]),
        n_samples=c["n_samples"], seed=cfg["seed"], n_quad=c["n_quad"],
    )
    rows = _cancel_rows(rep.entries)
    ok = np.isfinite(rep.sup_constant)
    result = dict(rep.to_dict(), ok=bool(ok))
    line = f"check-cancel: sup constant {rep.sup_constant:.6g} over {len(rep.entries)} reductions"

    def emit(outdir):
        _write_csv(outdir, "cancel.csv",
                   ["bump", "R", "order0_constant", "max_constant", "reduced_sup"], rows)

    return result, (EXIT_OK if ok else EXIT_NUMERIC), line, {"emit": emit}


def _cmd_convolve(cfg):
    group = _build_group(cfg)
    spec = _build_spec(cfg, group)
    check = cfg["convolve"]["check"]
    if check and not all(fac.is_abelian for fac in group.factors):
        raise ConfigError("/convolve/check", "the fast path needs a fully abelian group")
    if check and spec.size ** 2 > PAIR_BUDGET:
        raise ConfigError("/convolve/check",
                          "grid too large for the direct path; lower /grid/N")
    K = _build_kernel(cfg["kernel"], group, spec, cfg)
    L = _build_kernel(cfg["convolve"]["other"], group, spec, cfg, path="/convolve/other")
    M = compose_kernels(K, L, spec)
    result = {
        "l2_norm": float(M.data.l2_norm()),
        "max_abs": float(M.data.max_abs()),
        "boundary_mass_fraction": float(boundary_mass_fraction(M.data)),
    }
    if check:
        f = K.render(spec).data
        g = L.render(spec).data
        fast = convolve(f, g, path="fast")
        direct = convolve(f, g, path="direct")
        denom = max(np.linalg.norm(direct.values.ravel()), 1e-300)
        result["path_rel_error"] = float(
            np.linalg.norm((fast.values - direct.values).ravel()) / denom)
    extras = {}
    if cfg["convolve"]["save"]:
        extras["emit"] = lambda outdir: save_kernel(
            M, os.path.join(outdir, "result.nckr"))
        result["kernel_file"] = "result.nckr"
    line = f"convolve: |K*L|_2 = {result['l2_norm']:.6g}"
    if "path_rel_error" in result:
        line += f", fast vs direct rel error {result['path_rel_error']:.3g}"
    return result, EXIT_OK, line, extras


def _cmd_opnorm(cfg):
    group = _build_group(cfg)
    spec = _build_spec(cfg, group)
    K = _build_kernel(cfg["kernel"], group, spec, cfg)
    o = cfg["opnorm"]
    est = op_norm(K, spec, max_iter=o["max_iter"], tol=o["tol"], seed=cfg["seed"])
    line = (f"opnorm: {est.value:.8g} "
            f"({'converged' if est.converged else 'not converged'} "
            f"after {est.iterations} iterations)")
    return est.to_dict(), (EXIT_OK if est.converged else EXIT_NUMERIC), line, {}


def _cmd_seminorm(cfg):
    group = _build_group(cfg)
    spec = _build_spec(cfg, group)
    s = cfg["seminorm"]
    sc = _seminorm_config(cfg, s)
    check_sampling(spec, sc)
    kvec = _orders(s["k"], group, spec)
    K = _build_kernel(cfg["kernel"], group, spec, cfg)
    fn = pk_seminorm if s["kind"] == "pk" else fk_seminorm
    rep = fn(K, spec, kvec, cfg=sc)
    line = f"seminorm: {s['kind']} at k={list(kvec)} is {rep.total:.8g}"
    rows = [[b["label"], " ".join(str(tuple(e)) for e in b["alpha"]), b["j"], b["l"],
             " ".join(f"{d:.6g}" for d in b["dists"]), f"{b['block']:.12g}",
             f"{b['weight']:.12g}", f"{b['value']:.12g}", b["method"],
             b["iterations"], f"{b['residual']:.3g}"] for b in rep.blocks]
    extras = {"emit": lambda outdir: _write_csv(
        outdir, "seminorm.csv", ["label", "alpha", "j", "l", "z_norms", "block", "weight",
                                 "value", "method", "iterations", "residual"], rows)}
    return rep.to_dict(), EXIT_OK, line, extras


def _cmd_tame(cfg):
    group = _build_group(cfg)
    if group.nu < 2:
        raise ConfigError("/group", "tame reports need at least two factors")
    spec = _build_spec(cfg, group)
    t = cfg["tame"]
    kvec = _orders(t["k"], group, spec)
    sc = _seminorm_config(cfg, t)
    check_sampling(spec, sc)
    k = cfg["kernel"]
    flag_mode = t["kind"] == "fk" or k["flag"]
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
    # every pair of a run has the same kind, so the same number of summands
    header = ["kind", "kernels", "kvec", "N", "lhs",
              *(f"summand{n}" for n in range(len(reports[0].summands))),
              "rhs", "ratio", "tameness_ok"]
    rows = [[r.kind, "*".join(r.config["kernel_ids"]), " ".join(map(str, r.kvec)),
             r.config["N"], f"{r.lhs:.12g}", *(f"{s.value:.12g}" for s in r.summands),
             f"{r.rhs:.12g}", f"{r.ratio:.12g}", r.tameness_ok] for r in reports]
    extras = {"emit": lambda outdir: _write_csv(outdir, "tame.csv", header, rows)}
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


def _warn_unconverged(name, eps):
    """One stderr line when a spectral edge behind a computed eps did not converge."""
    infos = (eps["sigma_max_info"], eps["sigma_min_info"]) if isinstance(eps, dict) else ()
    if any(info.get("converged") is False for info in infos):  # a fixed eps has no edges
        sys.stderr.write(f"{name}: warning: spectral edges not converged after "
                         f"{infos[0]['iterations']} Lanczos steps; sigma_max from "
                         f"{infos[0]['method']}, sigma_min from {infos[1]['method']}\n")


def _cmd_invert(cfg):
    group = _build_group(cfg)
    spec = _build_spec(cfg, group)
    i = cfg["invert"]
    track = None if i["track_k"] is None else _orders(i["track_k"], group, spec)
    K = _build_kernel(cfg["kernel"], group, spec, cfg)
    growth_k = None if i["growth_k"] is None else _kvec(i["growth_k"], group)
    sc = SeminormConfig(radius_factors=(1.0,), seed=cfg["seed"]) if track else None
    res = neumann_invert(
        K, spec, max_n=i["max_n"], tol=i["tol"], kvec_track=track,
        eps=i["eps"], paper_eps=bool(i["paper_eps"]),
        amplification_cap=i["amplification_cap"], cond_cap=i["cond_cap"],
        pad_factor=i["pad_factor"], probes=i["probes"],
        probe_seed=i["probe_seed"], cfg=sc, growth_kvec=growth_k,
        seed=cfg["seed"],
    )
    ok = res.max_residual <= i["residual_tol"]
    result = dict(res.to_dict(), max_residual=res.max_residual,
                  residual_ok=bool(ok))
    _warn_unconverged("invert", result["eps"])
    step_rows = [[str(n + 1), f"{v:.12g}"]
                 for n, v in enumerate(res.step_rel_norms)]
    track_rows = [[str(t["n"]), f"{t['seminorm']:.12g}",
                   f"{t['op_norm']:.12g}", f"{t['root']:.12g}"]
                  for t in res.tracked]

    def emit(outdir):
        _write_csv(outdir, "steps.csv", ["n", "step_rel_norm"], step_rows)
        if track_rows:
            _write_csv(outdir, "tracked.csv", ["n", "seminorm", "op_norm", "root"],
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


def _cmd_decay(cfg):
    group = _build_group(cfg)
    spec = _build_spec(cfg, group)
    d = cfg["decay"]
    sc = _seminorm_config(cfg, d)
    check_sampling(spec, sc)
    kvec = _orders(d["k"], group, spec)
    K = _build_kernel(cfg["kernel"], group, spec, cfg)
    eps = d["eps"]
    if eps is None and d["paper_eps"]:
        eps = choose_epsilon(K, spec, paper_eps=True, seed=cfg["seed"])
    rep = seminorm_decay(K, spec, kvec, d["n_list"], cfg=sc, eps=eps,
                         kind=d["kind"], seed=cfg["seed"])
    _warn_unconverged("decay", rep.config["eps"])
    s_est = rep.s_norm_estimate
    if not s_est["converged"]:
        sys.stderr.write(f"decay: warning: |S| not converged after {s_est['iterations']} "
                         f"Lanczos steps; |S| from {s_est['method']}\n")
    short = [row for row in rep.rows if not row["op_norm_converged"]]
    if short:  # an unconverged run stops at the step cap, the same for every row
        sys.stderr.write(f"decay: warning: op_norm not converged after "
                         f"{short[0]['op_norm_iterations']} Lanczos steps for n = "
                         + ", ".join(str(row["n"]) for row in short) + "\n")
    roots = [row["root"] for row in rep.rows]
    line = (f"decay: |S| = {rep.s_norm_measured:.4g}, roots "
            + " ".join(f"{r:.4g}" for r in roots))
    cols = ["n", "value", "root", "op_norm", "truncation"]
    rows = [[str(row[c]) for c in cols] for row in rep.rows]
    extras = {"emit": lambda outdir: _write_csv(outdir, "decay.csv", cols, rows)}
    return rep.to_dict(), EXIT_OK, line, extras


# -- argument parsing ---------------------------------------------------------

# (words, handler, section, takes --kernel, help, epilog)
COMMANDS = (
    ("group check", _cmd_group_check, "check", False,
     "validate grading, Jacobi, and sampled group laws",
     "CSV output: none. Exit 3 when a sampled invariant exceeds /check/tol."),
    ("kernel synth", _cmd_kernel_synth, "kernel", False,
     "synthesize a dyadic kernel and save it",
     "Writes kernel.nckr plus its .json sidecar; CSV output: none. The profile "
     "family, scale window, and moment order come from the /kernel section."),
    ("kernel check-growth", _cmd_kernel_check_growth, "growth", True,
     "sampled growth constants of a kernel",
     "CSV output: none; per-order constants live in report.json. Exit 3 when a "
     "constant is not finite."),
    ("kernel check-cancel", _cmd_kernel_check_cancel, "cancel", True,
     "cancellation via reductions over one factor",
     "CSV output: cancel.csv with columns bump,R,order0_constant,max_constant,"
     "reduced_sup. Exit 3 when the sup constant is not finite."),
    ("convolve", _cmd_convolve, "convolve", True,
     "compose two kernels on the grid",
     "CSV output: none. --check compares the fast and direct convolution paths "
     "on the kernel renderings."),
    ("opnorm", _cmd_opnorm, "opnorm", True,
     "operator norm by Lanczos iteration",
     "CSV output: none. Exit 3 when the iteration does not converge. A tensor "
     "kernel's norm is the product of one run per factor: iterations sums the "
     "runs, and converged needs every run to converge."),
    ("seminorm", _cmd_seminorm, "seminorm", True,
     "product or flag kernel seminorm",
     "CSV output: seminorm.csv with columns label,alpha,j,l,z_norms,block,weight,"
     "value,method,iterations,residual (one row per localized block)."),
    ("tame", _cmd_tame, "tame", False,
     "two-sided estimates on synthesized kernel pairs",
     "CSV output: tame.csv with columns kind,kernels,kvec,N,lhs,summand0..summandM,"
     "rhs,ratio,tameness_ok (one row per pair, input order). Pairs are "
     "synthesized from consecutive seeds."),
    ("invert", _cmd_invert, "invert", True,
     "invert an operator through the damped Neumann series",
     "CSV output: steps.csv with columns n,step_rel_norm; with --track-k also "
     "tracked.csv with columns n,seminorm,op_norm,root. Exit 3 when the largest "
     "probe residual exceeds --residual-tol or the grid cannot resolve the "
     "bottom singular value. The tensor-hilbert kernel bundles --paper-eps, an "
     "amplification cap of 1.5, cond-cap 4, and pad-factor 2 unless overridden."),
    ("decay", _cmd_decay, "decay", True,
     "seminorms of Neumann remainder powers",
     "CSV output: decay.csv with columns n,value,root,op_norm,truncation (one "
     "row per power)."),
)

COMMAND_GROUPS = {"group": "group structure commands",
                  "kernel": "kernel synthesis and diagnostics"}


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
    nested = {}
    for words, handler, section, takes_kernel, help, epilog in COMMANDS:
        *head, word = words.split()
        where = sub
        if head:
            if head[0] not in nested:
                nested[head[0]] = sub.add_parser(
                    head[0], help=COMMAND_GROUPS[head[0]]).add_subparsers(
                        dest="subcommand", required=True)
            where = nested[head[0]]
        p = where.add_parser(word, help=help, epilog=epilog)
        p.add_argument("--config", metavar="FILE", help="JSON configuration file")
        p.add_argument("--set", action="append", metavar="KEY=VALUE",
                       help="dotted-path override, e.g. --set invert.max_n=32; "
                            "values are parsed as JSON, falling back to strings")
        p.add_argument("--out", metavar="DIR",
                       help="output directory (default: $NILCONV_OUT or ./nilconv-out)")
        for dotted, key in KEYS.items():
            shown = (takes_kernel if dotted == "kernel.name"
                     else dotted.partition(".")[0] in (*COMMON, section))
            if key.flag and shown:
                flag, _, metavar = key.flag.partition(" ")
                kw = dict(key.kind.kwargs, dest=dotted, help=key.help)
                if metavar:
                    kw["metavar"] = metavar
                p.add_argument(flag, **kw)
        p.set_defaults(handler=handler, name=words, section=section)
    return parser


def _run(args, cfg):
    """Run the handler, turning library errors into exit codes: a grid that
    cannot invert the operator is a missed target (exit 3, with a report),
    any other ValueError a configuration error at the command's section.
    """
    try:
        return args.handler(cfg)
    except ValueError as exc:
        if NOT_INVERTIBLE in str(exc):
            return {"error": str(exc)}, EXIT_NUMERIC, f"{args.name}: {exc}", {}
        raise ConfigError(f"/{args.section}", str(exc))
    except NotImplementedError:  # only lattice-only kernels leave eval open
        name = cfg["kernel"]["name"]
        raise ConfigError("/kernel/name", f"{name!r} is a lattice-only kernel; "
                          "this command samples kernels off the grid")


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    started = time.monotonic()
    try:
        cfg, user = resolve_config(args)
        errors = validate_config(cfg, args.section)
        if errors:
            sys.stderr.write(json.dumps({"errors": errors}, indent=2,
                                        sort_keys=True) + "\n")
            return EXIT_CONFIG
        if args.name == "invert":
            _apply_kernel_bundle(cfg, user)
        result, exit_code, line, extras = _run(args, cfg)
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
