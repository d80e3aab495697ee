"""One repetition of one workload, run in a fresh process by run.py.

    python3 bench/worker.py --workload NAME --seed N --rep I --trace 0|1
        [--setup-only | --reference]

Expects `nilconv` on PYTHONPATH.  Times set-up (importing nilconv and building
groups, grids and kernels) and each pipeline call, reads the peak resident
memory right after them, then runs the correctness checks untimed and prints
one JSON record as its last line.  With --trace 1 the tracer is installed
before set-up and switched off before the checks.  With --setup-only it
stops after set-up and prints a record holding only setup_s.  With
--reference it imports no nilconv and times only `reference()`.
"""

from __future__ import annotations

import argparse
import json
import platform
import resource
import sys
import time


def reference() -> float:
    """Wall seconds of a fixed computation that does not touch nilconv.

    Importing numpy, then the kinds of work the workloads do on fresh
    arrays: an interpreter loop, FFTs of a 256^2 box and of many 16^2 grids,
    and a random gather from an 8 MB array.
    """
    t = time.perf_counter()
    import numpy as np

    rng = np.random.default_rng(0)
    big = rng.standard_normal((256, 256)) + 0j
    small = rng.standard_normal((16, 16)) + 0j
    table = rng.standard_normal(1 << 20)
    index = rng.integers(0, 1 << 20, size=1 << 18)
    acc = 0
    for i in range(1_000_000):
        acc += i * i
    for _ in range(40):
        np.fft.ifftn(np.fft.fftn(big))
    for _ in range(2000):
        np.fft.ifftn(np.fft.fftn(small))
    for _ in range(40):
        table[index].sum()
    return time.perf_counter() - t


def peak_rss_mb() -> float:
    """Peak resident memory of this process image.

    VmHWM restarts at exec; ru_maxrss keeps the parent's peak at fork when
    that is higher, so it is only the fallback.
    """
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--rep", type=int, default=0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--reference", action="store_true")
    args = p.parse_args(argv)
    if args.reference:
        sys.stdout.write(json.dumps({"reference_s": reference()}) + "\n")
        return 0

    t0 = time.perf_counter()
    import nilconv  # noqa: F401  (import time is part of set-up)

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
        tracer.active = True
    import workloads

    wl = workloads.WORKLOADS[args.workload]
    inputs = wl.setup(args.seed, args.rep)
    t1 = time.perf_counter()
    if args.setup_only:
        sys.stdout.write(json.dumps({"setup_s": t1 - t0}) + "\n")
        return 0
    outputs, call_s = {}, {}
    for name, fn in wl.calls:
        t = time.perf_counter()
        outputs[name] = fn(inputs)
        call_s[f"{name}_s"] = time.perf_counter() - t
    peak_mb = peak_rss_mb()
    if tracer is not None:
        tracer.active = False

    checks, accuracy = wl.check(inputs, outputs)
    import numpy

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "rep": args.rep,
        "trace": args.trace,
        "setup_s": t1 - t0,
        "pipeline_s": sum(call_s.values()),
        "calls": call_s,
        "peak_rss_mb": peak_mb,
        "checks": [{"name": n, "ok": bool(ok)} for n, ok in checks],
        "accuracy": accuracy,
        "env": {"python": platform.python_version(), "numpy": numpy.__version__},
    }
    if tracer is not None:
        record["layers"] = tracer.layer_metrics()
        record["tree"] = tracer.tree_rows()
    sys.stdout.write(json.dumps(record) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
