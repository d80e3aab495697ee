"""Spans and operation counters recorded around nilconv from the outside.

`Tracer.install()` rebinds every public function and public method of the
library's modules, under each name it is bound to (so
`nilconv.tame.pk_seminorm` and `nilconv.seminorms.pk_seminorm` both get a
span), and wraps `numpy.fft.fftn` and `numpy.fft.ifftn`.  While `active` is
true each call records a span; the tracer keeps, in memory:

- `calls[family]` and `incl[family]`: call count and inclusive time of the
  outermost calls of a family (a function, or a group of functions named in
  FAMILIES, such as every kernel `render` method);
- `self_s[module]`: span time minus the time of child spans, by defining
  module;
- `bound[(binding, family)]`: inclusive time of calls made through one
  module's binding, e.g. `compose_kernels` as called from `tame`;
- `tree[path]`: [calls, total, self] by call path, written out at the end;
- `counts`: operation counters read from arguments and returned objects
  (FFT points, direct-path point pairs, power iterations, block rows).

Nothing inside the library changes; `uninstall()` restores every binding.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import math
import time
from collections import Counter, defaultdict

import numpy as np

MODULES = ("groups", "product", "grid", "kernels", "convolution", "seminorms",
           "tame", "inversion")

FAMILIES = {
    "seminorms.pk_seminorm": "seminorms.report",
    "seminorms.fk_seminorm": "seminorms.report",
    "tame.tame_report_pk": "tame.report",
    "tame.tame_report_fk": "tame.report",
    "tame.tame_report_single": "tame.report",
    "convolution.left_derivative_adjoint": "convolution.left_derivative",
    "seminorms.block_operator": "seminorms.block",
    "seminorms.localized_block": "seminorms.block",
    "seminorms.BlockOperator.estimate": "seminorms.block",
}


def _family(key: str) -> str:
    if key.startswith("kernels.") and key.endswith(".render"):
        return "kernels.render"
    return FAMILIES.get(key, key)


# -- counters read at the outermost call of a family ---------------------------


def _on_bch(tr, args, kwargs, result):
    tr.counts["bch_points"] += int(math.prod(np.shape(result)[:-1]))


def _on_convolve(tr, args, kwargs, result):
    f, g = args[0], args[1]
    path = kwargs.get("path", args[2] if len(args) > 2 else "auto")
    if path == "auto":
        abelian = all(fac.is_abelian for fac in f.spec.group.factors)
        path = "fast" if abelian else "direct"
    if path == "fast":
        tr.counts["convolve_fast"] += 1
        return
    tr.counts["convolve_direct"] += 1
    nz = min(np.count_nonzero(f.values), np.count_nonzero(g.values))
    tr.counts["direct_pairs"] += int(nz) * f.spec.size


def _on_power(tr, args, kwargs, result):
    tr.counts["power_runs"] += 1
    tr.counts["power_iters"] += int(result.iterations)
    tr.counts["power_at_cap"] += int(not result.converged)


def _on_seminorm_report(tr, args, kwargs, result):
    cfg = kwargs.get("cfg", args[3] if len(args) > 3 else None)
    cap = cfg.max_iter if cfg is not None else tr.default_block_cap
    rows = result.blocks
    tr.counts["seminorm_reports"] += 1
    tr.counts["blocks"] += len(rows)
    tr.counts["block_iters"] += sum(int(r["iterations"]) for r in rows)
    tr.counts["blocks_at_cap"] += sum(int(r["iterations"]) >= cap for r in rows)


def _on_tame_report(tr, args, kwargs, result):
    tr.counts["tame_reports"] += 1


def _on_invert(tr, args, kwargs, result):
    tr.counts["series_steps"] += int(result.n_steps)
    tr.counts["sigma_max_iters"] += int(result.eps.sigma_max_info.get("iterations", 0))
    tr.counts["cg_iters"] += int(result.eps.sigma_min_info.get("cg_iterations", 0))


def _on_fft(tr, args, kwargs, result):
    tr.counts["fft_points"] += int(np.size(result))


HOOKS = {
    "groups.GradedLieAlgebra.bch_multiply": _on_bch,
    "convolution.convolve": _on_convolve,
    "convolution.power_method": _on_power,
    "seminorms.report": _on_seminorm_report,
    "tame.report": _on_tame_report,
    "inversion.neumann_invert": _on_invert,
    "fft": _on_fft,
}


class Tracer:
    def __init__(self):
        self.active = False
        self.calls = Counter()
        self.incl = defaultdict(float)
        self.bound = defaultdict(float)
        self.self_s = defaultdict(float)
        self.counts = Counter()
        self.tree = defaultdict(lambda: [0, 0.0, 0.0])
        self.spans = 0
        self._depth = Counter()
        self._stack = []
        self._saved = []
        from nilconv.seminorms import SeminormConfig

        self.default_block_cap = SeminormConfig().max_iter

    # -- spans -------------------------------------------------------------

    def _call(self, fn, module, family, binding, args, kwargs):
        if not self.active:
            return fn(*args, **kwargs)
        path = (self._stack[-1][2] if self._stack else ()) + (family,)
        frame = [time.perf_counter(), 0.0, path]  # start, child time, call path
        self._stack.append(frame)
        self._depth[family] += 1
        try:
            result = fn(*args, **kwargs)
        finally:
            dur = time.perf_counter() - frame[0]
            self._stack.pop()
            self._depth[family] -= 1
            own = dur - frame[1]
            if self._stack:
                self._stack[-1][1] += dur
            self.spans += 1
            self.calls[family] += 1
            self.self_s[module] += own
            self.bound[(binding, family)] += dur
            node = self.tree[path]
            node[0] += 1
            node[1] += dur
            node[2] += own
            outermost = self._depth[family] == 0
            if outermost:
                self.incl[family] += dur
        hook = HOOKS.get(family)
        if hook is not None and outermost:
            hook(self, args, kwargs, result)
        return result

    def _wrapper(self, fn, module, family, binding):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return tracer._call(fn, module, family, binding, args, kwargs)

        traced.__traced__ = fn
        return traced

    def _rebind(self, owner, name, fn, module, family, binding):
        self._saved.append((owner, name, fn))
        setattr(owner, name, self._wrapper(fn, module, family, binding))

    # -- installation ------------------------------------------------------

    def install(self):
        """Wrap every public function and method of the library's modules."""
        if self._saved:
            raise RuntimeError("tracer already installed")
        mods = {m: importlib.import_module(f"nilconv.{m}") for m in MODULES}
        package = importlib.import_module("nilconv")
        functions = {}  # id(original) -> (original, module, key)
        for m, mod in mods.items():
            for name, obj in vars(mod).items():
                if name.startswith("_"):
                    continue
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    functions[id(obj)] = (obj, m, f"{m}.{name}")
                elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                    for meth, fn in list(vars(obj).items()):
                        if meth.startswith("_") or not inspect.isfunction(fn):
                            continue
                        key = f"{m}.{obj.__name__}.{meth}"
                        self._rebind(obj, meth, fn, m, _family(key), m)
        for binding, mod in [("nilconv", package)] + list(mods.items()):
            for name, obj in list(vars(mod).items()):
                hit = functions.get(id(obj))
                if hit is None or hit[0] is not obj:
                    continue
                fn, m, key = hit
                self._rebind(mod, name, fn, m, _family(key), binding)
        for name in ("fftn", "ifftn"):
            self._rebind(np.fft, name, getattr(np.fft, name), "fft", "fft", "numpy.fft")

    def uninstall(self):
        for owner, name, fn in reversed(self._saved):
            setattr(owner, name, fn)
        self._saved = []

    # -- results -----------------------------------------------------------

    def layer_metrics(self) -> dict:
        """Per-layer figures by metric name (seconds, counts)."""
        c, inc, n, own = self.calls, self.incl, self.counts, self.self_s
        bch = "groups.GradedLieAlgebra.bch_multiply"
        index_of = "grid.GridSpec.index_of"
        return {
            "groups.bch_calls": c[bch],
            "groups.bch_points": n["bch_points"],
            "groups.bch_s": inc[bch],
            "groups.self_s": own["groups"],
            "product.triangle_constants_s": inc["product.ProductGroup.triangle_constants"],
            "product.self_s": own["product"],
            "grid.index_of_calls": c[index_of],
            "grid.index_of_s": inc[index_of],
            "grid.self_s": own["grid"],
            "kernels.render_calls": c["kernels.render"],
            "kernels.render_s": inc["kernels.render"],
            "kernels.synth_s": inc["kernels.synth_dyadic"],
            "kernels.check_growth_s": inc["kernels.check_growth"],
            "kernels.self_s": own["kernels"],
            "convolution.apply_op_calls": c["convolution.apply_op"],
            "convolution.apply_op_s": inc["convolution.apply_op"],
            "convolution.convolve_fast_calls": n["convolve_fast"],
            "convolution.convolve_direct_calls": n["convolve_direct"],
            "convolution.convolve_s": inc["convolution.convolve"],
            "convolution.fft_calls": c["fft"],
            "convolution.fft_points": n["fft_points"],
            "convolution.fft_s": inc["fft"],
            "convolution.direct_pairs": n["direct_pairs"],
            "convolution.left_derivative_s": inc["convolution.left_derivative"],
            "convolution.power_runs": n["power_runs"],
            "convolution.power_iters": n["power_iters"],
            "convolution.power_at_cap": n["power_at_cap"],
            "convolution.self_s": own["convolution"],
            "seminorms.reports": n["seminorm_reports"],
            "seminorms.blocks": n["blocks"],
            "seminorms.block_iters": n["block_iters"],
            "seminorms.blocks_at_cap": n["blocks_at_cap"],
            "seminorms.block_operator_s": inc["seminorms.block"],
            "seminorms.self_s": own["seminorms"],
            "tame.reports": n["tame_reports"],
            "tame.compose_s": self.bound[("tame", "convolution.compose_kernels")],
            "tame.self_s": own["tame"],
            "inversion.choose_epsilon_s": inc["inversion.choose_epsilon"],
            "inversion.sigma_max_iters": n["sigma_max_iters"],
            "inversion.cg_iters": n["cg_iters"],
            "inversion.series_steps": n["series_steps"],
            "inversion.self_s": own["inversion"],
            "trace.spans": self.spans,
        }

    def tree_rows(self, limit: int = 200) -> list:
        """The `limit` heaviest call paths by total time."""
        rows = [{"path": " > ".join(p), "calls": v[0], "total_s": v[1], "self_s": v[2]}
                for p, v in self.tree.items()]
        rows.sort(key=lambda r: -r["total_s"])
        return rows[:limit]
