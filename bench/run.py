"""Benchmark of nilconv's pipelines, end to end and layer by layer.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the library is imported from `src/`.  Each
repetition runs in a fresh child process (bench/worker.py) with BLAS and
OpenMP limited to one thread, so cold costs (translation tables, FFT plans,
`triangle_constants`, the symbolic group law) are paid in every repetition as
a CLI user pays them, and peak memory is the workload's own.

Workloads (inputs derived from --seed and the repetition index):

- tame-ab2: `tame_report_pk` and `tame_report_fk` on abelian2, k=(1,1),
  `SeminormConfig(radius_factors=(1.0,))`, one random dyadic pair per report
  at N=16.  Many small FFT convolutions, seminorm block power
  iterations and finite-difference derivatives; no direct path, no inversion.
- invert-tensor: `neumann_invert` of the tensor Hilbert kernel at N=128 with
  the CLI's tensor-hilbert bundle (pad 2, paper_eps, amplification cap 1.5,
  cond cap 4) and growth k=(1,1).  Per-factor FFT path on a 256^2 box and the
  spectral estimators; no seminorm blocks, no direct path.
- heis-direct: on heisenberg1, `op_norm` (60 power steps) of a dyadic kernel
  at N=12, whose translation tables (one per nonzero site, 1331 of 1728) fit
  the cache and are reused, then `compose_kernels` of two dyadic kernels at
  N=20, one pass that builds 6859 tables, beyond the 3472-table cap.  The same
  direct path with tables reused and with tables built once; a cache change
  that helps one call and costs the other shows in opnorm_s against
  compose_s.

With --trace 0 the run repeats the workload at least once and at most until
a further repetition would end, by the longest one's length, past OVERRUN x
--seconds; past MIN_REPS it starts one only while it would end within about
--seconds.  It reports medians over repetitions of
- pipeline_ref: wall time of the workload's pipeline calls, the sum over
  calls of each call's median time (tame_s, invert_s, or opnorm_s +
  compose_s), divided by the mean wall time of a fixed reference
  computation that does not use nilconv (worker.py --reference), timed in
  REF_SAMPLES fresh processes before each repetition; a mean, as each
  repetition's time integrates the host's speed over its length.  On a shared 2-core
  Xeon VM the host's speed drifted by up to 2x over minutes (a fixed set-up
  took 0.16 s in one run and 0.29 s in the next) while holding within a
  run, so raw seconds spread past any usable bound from run to run; the
  ratio measures the pipeline in units of the host's current speed.  It
  tracks that drift only in part (the reference slows somewhat more than
  the workloads do), and on a steady host it adds the reference's own
  noise,
- setup_s: importing nilconv and building groups, grids and kernels, also
  sampled by SETUP_PROBES set-up-only processes before each repetition,
- peak_rss_mb: peak resident memory of the repetition's process.
The raw pipeline wall seconds and reference_s samples are in the log
and in the record under .bench_out.
With --trace 1 it runs repetition 0 once untraced and once traced and reports
the untraced per-call times (0 for calls the workload does not make), the
per-layer figures of the traced run (bench/tracer.py), the accuracy figures
of its checks (0 where not computed), the tracing overhead (traced minus
untraced pipeline_s) and fail_frac, the share of failed checks.

Correctness checks run after the timed calls, in every repetition, and make
`attempted` and `failed` of the result line.

Deliberately not measured: the CLI layer (a CLI `tame` pk run at N=16 took
2.61 s against 2.66 s for the same library call), `tame --jobs` threads, and
repeated Heisenberg convolutions at N >= 18 (a minimal power iteration there
needs 16 direct convolutions of about 5 s each).

The last line of standard output is the JSON result; a fuller record (every
repetition, the environment, the traced call tree) goes to
`.bench_out/<workload>-seed<seed>-trace<t>.json`.  The benchmark's own tests:
`python3 -m pytest bench -q`.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKER = Path(__file__).resolve().parent / "worker.py"
WORKLOADS = ("tame-ab2", "invert-tensor", "heis-direct")

END_TO_END = {"pipeline_ref": "ratio", "setup_s": "s", "peak_rss_mb": "MB"}

CALLS = ("tame_s", "invert_s", "opnorm_s", "compose_s")
LAYER_NAMES = CALLS + (
    "groups.bch_calls", "groups.bch_points", "groups.bch_s", "groups.self_s",
    "product.triangle_constants_s", "product.self_s",
    "grid.index_of_calls", "grid.index_of_s", "grid.self_s",
    "kernels.render_calls", "kernels.render_s", "kernels.synth_s",
    "kernels.check_growth_s", "kernels.self_s",
    "convolution.apply_op_calls", "convolution.apply_op_s",
    "convolution.convolve_fast_calls", "convolution.convolve_direct_calls",
    "convolution.convolve_s", "convolution.fft_calls", "convolution.fft_points",
    "convolution.fft_s", "convolution.direct_pairs",
    "convolution.left_derivative_s", "convolution.power_runs",
    "convolution.power_iters", "convolution.power_at_cap", "convolution.self_s",
    "seminorms.reports", "seminorms.blocks", "seminorms.block_iters",
    "seminorms.blocks_at_cap", "seminorms.block_operator_s", "seminorms.self_s",
    "tame.reports", "tame.compose_s", "tame.self_s",
    "inversion.choose_epsilon_s", "inversion.sigma_max_iters",
    "inversion.cg_iters", "inversion.series_steps", "inversion.self_s",
    "inversion.sigma_max_rel_err", "inversion.sigma_min_rel_err",
    "inversion.max_residual", "seminorms.block_rel_err_max",
    "trace.spans", "trace.overhead_s", "fail_frac",
)
# accuracy figures of the checks; 0 on workloads that do not compute them
ACCURACY = ("inversion.sigma_max_rel_err", "inversion.sigma_min_rel_err",
            "inversion.max_residual", "seminorms.block_rel_err_max")
RATIOS = ACCURACY + ("fail_frac",)

SETUP_PROBES = 1
REF_SAMPLES = 3
# a median of three or more outlasts one repetition slowed by the host, but
# no repetition is started that would end past OVERRUN x --seconds
MIN_REPS = 3
OVERRUN = 1.1
# a run stops starting repetitions past this many seconds, and a child is
# killed at CHILD_DEADLINE, so the run ends within three minutes
RUN_LIMIT = 150.0
CHILD_DEADLINE = 175.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def layer_unit(name: str) -> str:
    if name in RATIOS:
        return "ratio"
    return "s" if name.endswith("_s") else "count"


class ChildFailed(RuntimeError):
    pass


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    env.update({v: "1" for v in THREAD_VARS})
    env["PYTHONPATH"] = str(root / "src")
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    env["PYTHONHASHSEED"] = "0"
    return env


def run_child(root: Path, workload: str, seed: int, rep: int, trace: int,
              timeout: float, mode: str = "") -> dict:
    """One worker process; mode is "", "--setup-only" or "--reference"."""
    cmd = [sys.executable, str(WORKER), "--workload", workload, "--seed", str(seed),
           "--rep", str(rep), "--trace", str(trace)]
    if mode:
        cmd.append(mode)
    try:
        proc = subprocess.run(cmd, cwd=root, env=child_env(root), capture_output=True,
                              text=True, timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired as exc:
        raise ChildFailed(f"repetition {rep} exceeded {timeout:.0f} s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = "\n".join(proc.stderr.strip().splitlines()[-20:])
        raise ChildFailed(f"repetition {rep} exited with {proc.returncode}:\n{tail}")
    return json.loads(lines[-1])


def git_sha(root: Path) -> str:
    if not (root / ".git").exists():
        return "unknown"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def check_counts(reps: list) -> tuple:
    attempted = sum(len(r["checks"]) for r in reps)
    failed = sum(not c["ok"] for r in reps for c in r["checks"])
    return attempted, failed


def pipeline_s(reps: list) -> float:
    return sum(statistics.median(r["calls"][c] for r in reps) for c in reps[0]["calls"])


def end_to_end_metrics(reps: list, setups: list, refs: list) -> dict:
    return {
        "pipeline_ref": pipeline_s(reps) / statistics.fmean(refs),
        "setup_s": statistics.median(setups + [r["setup_s"] for r in reps]),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in reps),
    }


def layer_metrics(untraced: dict, traced: dict) -> dict:
    out = dict(traced["layers"])
    for name in CALLS:
        out[name] = untraced["calls"].get(name, 0.0)
    for name in ACCURACY:
        out[name] = traced["accuracy"].get(name, 0.0)
    out["trace.overhead_s"] = traced["pipeline_s"] - untraced["pipeline_s"]
    attempted, failed = check_counts([untraced, traced])
    out["fail_frac"] = failed / attempted if attempted else 0.0
    return out


def result_line(reps: list, values: dict, units) -> dict:
    attempted, failed = check_counts(reps)
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units(name)}
                    for name in values},
    }


def summarize(reps: list, trace: int, setups=(), refs=()) -> dict:
    """The result line: end-to-end medians, or the traced run's layer figures.

    setups holds the setup_s of set-up-only processes, pooled with the
    repetitions' own; refs holds the run's reference_s samples.
    """
    if trace:
        untraced, traced = reps
        values = layer_metrics(untraced, traced)
        values = {name: values[name] for name in LAYER_NAMES}
        return result_line(reps, values, layer_unit)
    return result_line(reps, end_to_end_metrics(reps, list(setups), list(refs)),
                       END_TO_END.__getitem__)


def rep_line(rec: dict) -> str:
    ok = sum(c["ok"] for c in rec["checks"])
    bad = [c["name"] for c in rec["checks"] if not c["ok"]]
    calls = ", ".join(f"{k} {v:.3f} s" for k, v in rec["calls"].items())
    text = (f"rep {rec['rep']}{' traced' if rec['trace'] else ''}: {calls}, "
            f"setup_s {rec['setup_s']:.3f} s, peak_rss_mb {rec['peak_rss_mb']:.1f}, "
            f"checks {ok}/{len(rec['checks'])}")
    return text + (f" FAILED {bad[:5]}" if bad else "")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=36.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not (ROOT / "src" / "nilconv" / "__init__.py").is_file():
        print(f"bench: no nilconv sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    started = time.monotonic()
    env = {"python": platform.python_version(), "nproc": os.cpu_count(),
           "affinity": len(os.sched_getaffinity(0)), "sha": git_sha(ROOT)}
    print(f"bench {args.workload} seed {args.seed} seconds {args.seconds:g} "
          f"trace {args.trace} | python {env['python']} nproc {env['nproc']} "
          f"sha {env['sha']}", flush=True)

    def remaining():
        return CHILD_DEADLINE - (time.monotonic() - started)

    reps, setups, refs, cycles = [], [], [], []
    try:
        if args.trace:
            for trace in (0, 1):
                reps.append(run_child(ROOT, args.workload, args.seed, 0, trace,
                                      remaining()))
                print(rep_line(reps[-1]), flush=True)
        else:
            while True:
                t = time.monotonic()
                for _ in range(SETUP_PROBES):
                    setups.append(run_child(ROOT, args.workload, args.seed, len(reps),
                                            0, remaining(), "--setup-only")["setup_s"])
                for _ in range(REF_SAMPLES):
                    refs.append(run_child(ROOT, args.workload, args.seed, len(reps),
                                          0, remaining(), "--reference")["reference_s"])
                reps.append(run_child(ROOT, args.workload, args.seed, len(reps), 0,
                                      remaining()))
                cycles.append(time.monotonic() - t)
                print(rep_line(reps[-1]), flush=True)
                elapsed = time.monotonic() - started
                longest = max(cycles)
                if elapsed + longest > min(RUN_LIMIT, OVERRUN * args.seconds):
                    break
                # a repetition that would end past --seconds by more than half
                # its length is not started, so runs keep close to --seconds
                if len(reps) >= MIN_REPS and elapsed + longest / 2 >= args.seconds:
                    break
    except ChildFailed as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1

    env["numpy"] = reps[0]["env"]["numpy"]
    result = summarize(reps, args.trace, setups, refs)
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "env": env, "setup_probes": setups,
              "reference_s": refs, "reps": reps,
              "result": result}
    path = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")

    if not args.trace:
        print(f"pipeline_s {pipeline_s(reps):.3f} s over {len(reps)} repetitions, "
              f"reference_s mean {statistics.fmean(refs):.4f} s over {len(refs)} "
              f"samples; numpy {env['numpy']}", flush=True)
    print(f"fail_frac {result['failed']}/{result['attempted']}", flush=True)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
