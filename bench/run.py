"""infodyn benchmark: one run of one workload.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Workloads (see BENCHMARK.json and
bench/NOTES.md): sweep, search, recognize, batch. The run

1. generates the workload's invocation list and input files from the
   seed, with reference values for the correctness check;
2. times `import infodyn.cli` plus building the parser in SETUP_PROBES
   fresh interpreters (setup_s is their median);
3. runs the invocation list in one fresh interpreter (bench/child.py),
   closed loop, one client, tracing off, with a calibration loop before
   each invocation; all times are scaled to the host's nominal speed
   (see `speed`);
4. with --trace 1, runs the same list again with the layer wrappers of
   bench/tracing.py installed, checks that its outputs are byte-identical
   to the untraced ones, and derives the per-layer metrics;
5. checks every output against the references (untimed);
6. prints informational lines starting with '#' and, last, one JSON
   object {correct, attempted, failed, metrics}.

Every child gets one BLAS/OpenMP thread. Exit code 2 without a result
when the program's sources are missing or a child fails to finish.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

SETUP_PROBES = 5
DEADLINE_S = 170.0
THREAD_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# Time of child.calibrate() on the reference host when it runs at full
# speed (2-core shared x86-64 host, numpy 2.4.6). Reported times are
# scaled to it.
CAL_NOMINAL_S = 0.0023
# Calibrations on each side of an invocation averaged into its speed.
CAL_WINDOW = 2


class RunFailed(Exception):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    for key in THREAD_ENV:
        env[key] = "1"
    env.pop("INFODYN_THREADS", None)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def run_child(cmd, cwd, deadline) -> str:
    """Run a child in its own process group; kill the group on timeout."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise RunFailed("time budget exhausted")
    proc = subprocess.Popen(cmd, cwd=cwd, env=child_env(), stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise RunFailed(f"{cmd[1]} timed out")
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)  # stray pool workers, if any
        except ProcessLookupError:
            pass
    if err:
        sys.stderr.write(err[-4000:])
    if proc.returncode != 0:
        raise RunFailed(f"{cmd[1]} exited with {proc.returncode}")
    return out


def write_inputs(plan, rundir: Path):
    (rundir / "out").mkdir(parents=True)
    (rundir / "in").mkdir()
    for inv in plan:
        for rel, obj in inv["files"].items():
            with open(rundir / rel, "w", encoding="utf-8") as fh:
                json.dump(obj, fh)
    with open(rundir / "plan.json", "w", encoding="utf-8") as fh:
        json.dump([{"kind": inv["kind"], "argv": inv["argv"], "outs": inv["outs"]}
                   for inv in plan], fh)


def measure(plan, rundir: Path, traced: bool, deadline) -> dict:
    write_inputs(plan, rundir)
    cmd = [sys.executable, str(BENCH / "child.py"), "plan.json", "result.json"]
    run_child(cmd + (["--trace"] if traced else []), rundir, deadline)
    with open(rundir / "result.json", encoding="utf-8") as fh:
        result = json.load(fh)
    expected = ROOT / "src" / "infodyn" / "cli.py"
    if Path(result["infodyn_file"]).resolve() != expected.resolve():
        raise RunFailed(f"child imported {result['infodyn_file']}, not {expected}")
    return result


def environment(workload, seed, count) -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"].get("blas", {})
    return {
        "workload": workload,
        "seed": seed,
        "invocations": count,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {key: "1" for key in THREAD_ENV},
    }


def percentile(values, q) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def speed(calls) -> list[float]:
    """Per-invocation factor CAL_NOMINAL_S / (mean of nearby calibrations).

    Multiplying a measured time by it gives the time at the host's
    nominal speed; the window smooths the calibration's own noise while
    following the host's slower swings.
    """
    cals = [c["cal"] for c in calls]
    out = []
    for k in range(len(cals)):
        near = cals[max(0, k - CAL_WINDOW):k + CAL_WINDOW + 1]
        out.append(CAL_NOMINAL_S * len(near) / sum(near))
    return out


def scaled(result, field) -> list[float]:
    return [c[field] * f for c, f in zip(result["calls"], speed(result["calls"]))]


def end_to_end(result, setup) -> dict:
    walls = scaled(result, "wall")
    ms = [w * 1000.0 for w in walls]
    return {
        "wall_s": (sum(walls), "s"),
        "call_p50_ms": (statistics.median(ms), "ms"),
        "call_p90_ms": (percentile(ms, 90), "ms"),
        "cpu_s": (sum(scaled(result, "cpu")), "s"),
        "setup_s": (statistics.median(p["import_s"] * CAL_NOMINAL_S / p["cal"] for p in setup), "s"),
        "peak_rss_mb": (result["peak_rss_mb"], "MB"),
    }


# Per-layer metrics that are the inclusive time of the outermost spans
# of a group of span names.
INCLUSIVE = {
    "jsonio.parse_s": ("jsonio.load_json", "jsonio.parse_state", "jsonio.parse_channel",
                       "jsonio.parse_experiment"),
    "jsonio.dump_s": ("jsonio.dump_json", "jsonio.matrix_to_json"),
    "svgplot.line_plot_s": ("svgplot.line_plot",),
    "classical.iterate_orbit_s": ("classical.iterate_orbit",),
    "classical.encode_s": ("classical.encode",),
    "classical.conditional_entropy_s": ("classical.conditional_entropy",),
    "classical.pool_wait_s": ("classical.pool",),
    "metrics.chaos_degree_s": ("metrics.chaos_degree",),
    "metrics.conjecture_batch_s": ("metrics.conjecture_batch",),
    "metrics.axiom_suite_s": ("metrics.axiom_suite",),
    "channels.construct_s": ("channels.construct",),
    "recognition.outcome_probabilities_s": ("recognition.outcome_probabilities",),
    "recognition.update_s": ("recognition.update",),
}
# Per-layer metrics that are the self time of a span name: its duration
# minus the time covered by its child spans and aggregated hot calls.
SELF = {
    "cli.self_s": "cli.main",
    "classical.sweep_self_s": "classical.sweep",
    "classical.pair_count_s": "classical.empirical_channel",
    "metrics.chaos_degree_self_s": "metrics.chaos_degree",
}
# (metric, aggregate name, field): field 0 calls, 1 seconds, 2 size sum.
HOT = (
    ("channels.apply_matrix_s", "channels.apply_matrix", 1),
    ("channels.apply_matrix_calls", "channels.apply_matrix", 0),
    ("hilbert.density_s", "hilbert.density", 1),
    ("hilbert.density_calls", "hilbert.density", 0),
    ("hilbert.density_n3", "hilbert.density", 2),
    ("hilbert.random_unitary_s", "hilbert.random_unitary", 1),
    ("hilbert.random_unitary_calls", "hilbert.random_unitary", 0),
    ("hilbert.entropy_s", "hilbert.entropy", 1),
    ("recognition.entangle_calls", "recognition.entangle", 0),
)
UNITS = {"_s": "s", "_calls": "count", "_n3": "count"}


def _unit(name: str) -> str:
    for suffix, unit in UNITS.items():
        if name.endswith(suffix):
            return unit
    raise KeyError(name)


def layer_metrics(plan, untraced, traced, rundir: Path) -> tuple[dict, list[str]]:
    """Per-layer metrics from the traced run, and count self-check failures."""
    from workloads import TRANSIENT

    spans, hot = traced["trace"]["spans"], traced["trace"]["hot"]
    covered = [0.0] * len(spans)
    for name, start, end, parent, inv, hot_s, faults, size in spans:
        if parent >= 0:
            covered[parent] += end - start

    def outermost(names):
        for idx, span in enumerate(spans):
            if span[0] not in names:
                continue
            parent = span[3]
            while parent >= 0 and spans[parent][0] not in names:
                parent = spans[parent][3]
            if parent < 0:
                yield idx, span

    def inclusive(names):
        return float(sum(s[2] - s[1] for _, s in outermost(names)))

    # Layer times are scaled by the traced run's mean speed factor.
    factor = statistics.mean(speed(traced["calls"]))
    m = {}
    for metric, names in INCLUSIVE.items():
        m[metric] = (inclusive(names) * factor, "s")
    for metric, name in SELF.items():
        m[metric] = (factor * sum(s[2] - s[1] - covered[i] - s[5]
                                  for i, s in enumerate(spans) if s[0] == name), "s")
    for metric, name, field in HOT:
        value = hot.get(name, [0, 0.0, 0])[field]
        m[metric] = (value * factor if field == 1 else value, _unit(metric))

    m["cli.out_bytes"] = (sum(c["out_bytes"] for c in traced["calls"]), "bytes")
    steps = sum(s[7] for s in spans if s[0] == "classical.iterate_orbit")
    m["classical.orbit_steps"] = (steps, "count")
    m["classical.ns_per_orbit_step"] = (
        m["classical.iterate_orbit_s"][0] / steps * 1e9 if steps else 0.0, "ns")
    m["classical.minor_faults"] = (
        sum(s[6] for _, s in outermost({"classical.sweep"})), "count")
    m["recognition.minor_faults"] = (
        sum(s[6] for _, s in outermost({"recognition.recognize_sequence"})), "count")
    m["metrics.chaos_degree_calls"] = (
        sum(1 for s in spans if s[0] == "metrics.chaos_degree"), "count")

    qecd = {k for k, inv in enumerate(plan) if inv["argv"][0] == "quantum-ecd"}
    candidates = 0
    for k in sorted(qecd):
        with open(rundir / plan[k]["outs"][0], encoding="utf-8") as fh:
            candidates += json.load(fh)["restarts"]
    search_s = factor * sum(s[2] - s[1] for _, s in outermost({"metrics.chaos_degree"})
                            if s[4] in qecd)
    m["metrics.candidates"] = (candidates, "count")
    m["metrics.candidates_per_s"] = (candidates / search_s if search_s else 0.0, "1/s")

    recog_steps = 0
    for inv in plan:
        if inv["argv"][0] == "recognize":
            with open(rundir / inv["outs"][0], encoding="utf-8") as fh:
                recog_steps += sum(1 for _ in fh)
    recog_s = factor * inclusive({"recognition.recognize_sequence"})
    m["recognition.steps"] = (recog_steps, "count")
    m["recognition.steps_per_s"] = (recog_steps / recog_s if recog_s else 0.0, "1/s")

    m["trace.overhead_s"] = (sum(scaled(traced, "wall")) - sum(scaled(untraced, "wall")), "s")

    # Count self-checks against closed forms known from the inputs. A
    # wrapped function that the program no longer calls reads 0, which is
    # reported but not a failure; any other mismatch means the tracer
    # missed or double-counted calls.
    problems = []
    expect_steps = sum(len(inv["expect"]["params"]) * (TRANSIENT + inv["expect"]["samples"])
                       for inv in plan
                       if inv["argv"][0] == "ecd-sweep" and inv["expect"]["workers"] == 1)
    expect_entangle = sum(inv["expect"]["steps"] * (inv["expect"]["n"] ** 2 + 1)
                          for inv in plan if inv["argv"][0] == "recognize")
    expect_candidates = sum(inv["expect"]["restarts"] + 1 if inv["expect"]["degenerate"] else 1
                            for k, inv in enumerate(plan) if k in qecd)
    for metric, expected, zero_ok in (
            ("classical.orbit_steps", expect_steps, True),
            ("recognition.entangle_calls", expect_entangle, True),
            ("metrics.candidates", expect_candidates, False)):
        got = m[metric][0]
        if got == expected:
            continue
        if got == 0 and zero_ok:
            print(f"# note: {metric} is 0 (expected {expected}): layer bypassed")
            continue
        problems.append(f"self-check {metric}: counted {got}, closed form {expected}")
    return m, problems


# Spans whose mean duration per call is printed by shape in traced runs,
# for comparison with hand timings of single calls.
SHAPE_SPANS = ("classical.sweep", "classical.iterate_orbit", "metrics.chaos_degree",
               "metrics.axiom_suite", "recognition.outcome_probabilities")


def per_shape_spans(plan, traced) -> str:
    factor = statistics.mean(speed(traced["calls"]))
    sums = {}
    for name, start, end, parent, inv, *_ in traced["trace"]["spans"]:
        if name in SHAPE_SPANS:
            entry = sums.setdefault((plan[inv]["kind"], name), [0, 0.0])
            entry[0] += 1
            entry[1] += end - start
    return "; ".join(f"{kind} {name} {1000.0 * factor * t / n:.2f} ({n})"
                     for (kind, name), (n, t) in sorted(sums.items()))


def compare_outputs(plan, a: Path, b: Path) -> int:
    differ = 0
    for k, inv in enumerate(plan):
        for rel in inv["outs"]:
            pa, pb = a / rel, b / rel
            if not (pa.exists() and pb.exists()) or pa.read_bytes() != pb.read_bytes():
                print(f"# traced output differs: invocation {k} {rel}", file=sys.stderr)
                differ += 1
                break
    return differ


def run(args, work: Path) -> dict:
    import checks
    import workloads

    deadline = time.monotonic() + DEADLINE_S
    phases = {}
    t0 = time.monotonic()
    count = args.calls or workloads.invocation_count(args.workload, args.seconds)
    plan = workloads.build(args.workload, args.seed, count)
    phases["generate"] = time.monotonic() - t0
    print("# env " + json.dumps(environment(args.workload, args.seed, count), sort_keys=True))

    setup_cmd = [sys.executable, str(BENCH / "child.py"), "--setup"]
    run_child(setup_cmd, work, deadline)  # warm-up: compiles bytecode
    setup = [json.loads(run_child(setup_cmd, work, deadline)) for _ in range(SETUP_PROBES)]
    phases["setup probes"] = time.monotonic() - t0 - phases["generate"]

    t1 = time.monotonic()
    plain = measure(plan, work / "plain", False, deadline)
    phases["run"] = time.monotonic() - t1
    attempted = count
    failed = {k for k, c in enumerate(plain["calls"]) if c["rc"] != 0}
    traced_failed = 0
    problems = []
    if args.trace:
        t1 = time.monotonic()
        traced = measure(plan, work / "traced", True, deadline)
        phases["traced run"] = time.monotonic() - t1
        attempted += count
        traced_failed = sum(1 for c in traced["calls"] if c["rc"] != 0)
        if traced["missing"]:
            print("# note: not wrapped: " + ", ".join(traced["missing"]))
        if compare_outputs(plan, work / "plain", work / "traced"):
            problems.append("traced outputs differ from untraced outputs")
        metrics, count_problems = layer_metrics(plan, plain, traced, work / "plain")
        problems += count_problems
        print("# traced mean ms per call, by shape: " + per_shape_spans(plan, traced))
    else:
        metrics = end_to_end(plain, setup)

    t1 = time.monotonic()
    for k, inv in enumerate(plan):
        if k in failed:
            continue
        found = checks.check(args.workload, inv, str(work / "plain"))
        if found:
            failed.add(k)
            print(f"# check failed: invocation {k} ({inv['kind']}): " + "; ".join(found[:3]),
                  file=sys.stderr)
    phases["checks"] = time.monotonic() - t1
    for p in problems:
        print(f"# {p}", file=sys.stderr)
    print("# phase seconds: " + ", ".join(f"{k} {v:.2f}" for k, v in phases.items()))

    by_kind = {}
    for inv, wall in zip(plan, scaled(plain, "wall")):
        by_kind.setdefault(inv["kind"], []).append(wall * 1000.0)
    print("# per-shape median ms (samples): " + ", ".join(
        f"{kind} {statistics.median(v):.1f} ({len(v)})" for kind, v in by_kind.items()))
    print(f"# samples: {count} invocations per run; setup probes: {SETUP_PROBES}")
    raw = sum(c["wall"] for c in plain["calls"])
    print(f"# unscaled wall_s {raw:.4f}; mean speed factor {statistics.mean(speed(plain['calls'])):.4f}")

    return {
        "correct": not failed and not traced_failed and not problems,
        "attempted": attempted,
        "failed": len(failed) + traced_failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in sorted(metrics.items())},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("sweep", "search", "recognize", "batch"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--calls", type=int, default=None,
                        help="override the invocation count (smoke tests only)")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "infodyn" / "cli.py").is_file():
        print(f"error: no infodyn sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    work = BENCH / "_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        result = run(args, work)
    except RunFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            (BENCH / "_work").rmdir()
        except OSError:
            pass
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
