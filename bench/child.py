"""One measured run, or one set-up probe, in a fresh interpreter.

    python child.py PLAN RESULT [--trace]
    python child.py --setup

The first form reads the invocation list from PLAN (JSON), imports the
program, runs every invocation back to back through
``infodyn.cli.main(argv)`` in the current directory, and writes
per-invocation wall and CPU times, calibration times, exit codes and
output sizes to RESULT. With --trace the layer wrappers of ``tracing.py``
are installed first and the spans are written to RESULT as well.

The second form times ``import infodyn.cli`` plus building the parser,
then runs the calibration loop, and prints both times as JSON.

The host this runs on is shared: its speed swings by up to 2x over tens
of seconds. Every invocation is therefore preceded by `calibrate`, a
fixed mix of interpreter and small-array numpy work that the program
cannot influence, so that run.py can express each time at a nominal
host speed.
"""

from __future__ import annotations

import gc
import json
import os
import resource
import sys
import time
import traceback


def _tinkerbell_step(p, a):
    return (p[0] * p[0] - p[1] * p[1] + a * p[0] - 0.6013 * p[1],
            2.0 * p[0] * p[1] + 2.0 * p[0] + 0.5 * p[1])


def calibrate() -> float:
    """Seconds taken by a fixed mix of interpreter and small-array numpy work.

    Of several mixes tried, interpreter work with tuples and calls plus
    many small numpy and LAPACK calls tracked the host's speed swings
    best on every workload; tight float loops, large sorts and a 64 x 64
    eigh tracked them worse.
    """
    import numpy as np

    t0 = time.perf_counter()
    p = (-0.72, -0.64)
    orbit = []
    for _ in range(3000):
        p = _tinkerbell_step(p, 0.8)
        orbit.append(p)
    v = np.exp(1j * np.arange(4.0))
    m = np.eye(4) + 0.1
    for _ in range(150):
        np.linalg.eigvalsh(np.outer(v, v.conj()) + m)
    return time.perf_counter() - t0


def _cpu() -> float:
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        r = resource.getrusage(who)
        total += r.ru_utime + r.ru_stime
    return total


def setup_probe() -> int:
    t0 = time.perf_counter()
    import infodyn.cli as cli
    cli.build_parser()
    import_s = time.perf_counter() - t0
    print(json.dumps({"import_s": import_s, "cal": calibrate()}))
    return 0


def main(argv) -> int:
    if argv == ["--setup"]:
        return setup_probe()
    plan_path, result_path = argv[0], argv[1]
    traced = "--trace" in argv[2:]
    with open(plan_path, encoding="utf-8") as fh:
        plan = json.load(fh)

    import infodyn.cli as cli

    tracer = None
    missing = []
    if traced:
        from tracing import Tracer
        tracer = Tracer()
        missing = tracer.install()

    calls = []
    for k, inv in enumerate(plan):
        gc.collect()
        cal = calibrate()
        error = None
        c0 = _cpu()
        w0 = time.perf_counter()
        try:
            if tracer is None:
                rc = cli.main(inv["argv"])
            else:
                rc = tracer.invoke(k, cli.main, inv["argv"])
        except Exception:  # a crash is a failed invocation, not a failed run
            rc = None
            error = traceback.format_exc(limit=3)
        wall = time.perf_counter() - w0
        cpu = _cpu() - c0
        out_bytes = sum(os.path.getsize(p) for p in inv["outs"] if os.path.exists(p))
        if rc != 0 and error is None:
            error = f"exit code {rc}"
        if error is not None:
            print(f"invocation {k} ({inv['kind']}) failed: {error}", file=sys.stderr)
        calls.append({"wall": wall, "cpu": cpu, "cal": cal, "rc": rc, "out_bytes": out_bytes})

    peak_kb = max(resource.getrusage(who).ru_maxrss
                  for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))
    result = {
        "calls": calls,
        "peak_rss_mb": peak_kb / 1024.0,
        "infodyn_file": cli.__file__,
        "missing": missing,
    }
    if tracer is not None:
        result["trace"] = tracer.dump()
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
