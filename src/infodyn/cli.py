"""Command-line workbench.

Subcommands: ecd-sweep, quantum-ecd, recognize, axioms, value. Every
subcommand is deterministic for fixed flags and seed at any worker
count. Exit codes: 0 success, 2 usage or parse failure, 3 orbit
escape, 4 dimension mismatch, 5 probability-domain failure. Any other
exception is a program fault and escapes `main` with its traceback.
`recognize` streams its lines, so a run that fails part way leaves the
completed steps' lines written before it exits with the failure's code.
Flags are only parsed here; the library function that reads a value
checks it, before any input file is read or any orbit is iterated.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import math
import sys

from . import classical, jsonio, metrics, svgplot
from .exceptions import DimensionMismatch, OrbitEscape, OutsideDomain
from .recognition import BLOCK_STEPS, recognize_sequence

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DYNAMICS = 3
EXIT_DIMENSION = 4
EXIT_DOMAIN = 5
# The exit code of each input error, that of the first type that matches
# (`jsonio.load_json` raises a decode error, or a nesting too deep to
# parse, as a ValueError "<path>: <reason>"). Any other exception is a fault.
INPUT_ERRORS = {OrbitEscape: EXIT_DYNAMICS, DimensionMismatch: EXIT_DIMENSION,
                OutsideDomain: EXIT_DOMAIN, ValueError: EXIT_USAGE, OSError: EXIT_USAGE}


def _parse_log_base(text: str) -> float:
    """`e` or a number; `jsonio.check_log_base` checks its value."""
    if text == "e":
        return math.e
    try:
        return float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None


def _parse_x0(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(part) for part in text.split(","))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad initial point {text!r}") from exc


@contextlib.contextmanager
def _output(path: str | None):
    """Text stream for an output flag: stdout for None or "-", else the file."""
    if path is None or path == "-":
        yield sys.stdout
    else:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            yield fh


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="infodyn",
        description="Chaos-degree and recognition-channel workbench.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sweep = sub.add_parser("ecd-sweep", help="parameter sweep of an iterated map")
    sweep.add_argument("--map", required=True, choices=sorted(classical.BUILTIN_MAPS))
    sweep.add_argument("--from", dest="start", type=float, required=True)
    sweep.add_argument("--to", dest="stop", type=float, required=True)
    sweep.add_argument("--step", type=float, required=True)
    sweep.add_argument("--bins", type=int, default=classical.DEFAULT_BINS)
    sweep.add_argument("--transient", type=int, default=classical.DEFAULT_TRANSIENT)
    sweep.add_argument("--samples", type=int, default=classical.DEFAULT_SAMPLES)
    sweep.add_argument("--x0", type=_parse_x0, default=None)
    sweep.add_argument("--eps-zero", type=float, default=classical.DEFAULT_EPS_ZERO)
    sweep.add_argument("--eps-const", type=float, default=classical.DEFAULT_EPS_CONST)
    sweep.add_argument("--window", type=int, default=classical.DEFAULT_WINDOW)
    sweep.add_argument("--workers", type=int, default=1,
                       help="parallel orbit workers (default 1)")
    sweep.add_argument("--out", default=None, help="CSV path (default stdout)")
    sweep.add_argument("--plot", default=None, help="optional SVG path")
    sweep.set_defaults(func=cmd_ecd_sweep)

    quantum = sub.add_parser("quantum-ecd", help="chaos degree of a state under a channel")
    quantum.add_argument("--state", required=True, help="JSON density-matrix file")
    quantum.add_argument("--channel", required=True, help="JSON channel descriptor file")
    quantum.add_argument("--restarts", type=int, default=metrics.DEFAULT_CONFIG.restarts)
    quantum.add_argument("--seed", type=int, default=metrics.DEFAULT_CONFIG.seed)
    quantum.add_argument("--log-base", type=_parse_log_base, default=math.e,
                         help="display base for entropies ('e' or a number > 1)")
    quantum.add_argument("--out", default=None)
    quantum.set_defaults(func=cmd_quantum_ecd)

    recog = sub.add_parser("recognize", help="run a recognition experiment file")
    recog.add_argument("--experiment", required=True, help="JSON experiment file")
    recog.add_argument("--out", default=None, help="JSON-lines path (default stdout)")
    recog.set_defaults(func=cmd_recognize)

    axioms = sub.add_parser("axioms", help="complexity axiom property suite")
    axioms.add_argument("--dim", type=int, required=True)
    axioms.add_argument("--trials", type=int, default=100)
    axioms.add_argument("--seed", type=int, default=0)
    axioms.add_argument("--out", default=None)
    axioms.set_defaults(func=cmd_axioms)

    value = sub.add_parser("value", help="chaos-versus-value ordering batch")
    value.add_argument("--batch", default=None, help="JSON batch config file")
    value.add_argument("--dim", type=int, default=2)
    value.add_argument("--pairs", type=int, default=100)
    value.add_argument("--seed", type=int, default=0)
    value.add_argument("--out", default=None)
    value.set_defaults(func=cmd_value)

    return parser


def cmd_ecd_sweep(args) -> int:
    system = classical.BUILTIN_MAPS[args.map]
    cfg = classical.OrbitConfig(
        x0=args.x0, transient=args.transient, samples=args.samples
    )
    partition = classical.Partition(system.box, args.bins)
    rows = classical.sweep(
        system, args.start, args.stop, args.step, cfg, partition,
        eps_zero=args.eps_zero, eps_const=args.eps_const,
        window=args.window, workers=args.workers,
    )
    with _output(args.out) as out:
        out.write(classical.sweep_to_csv(rows))
    if args.plot is not None:
        svg = svgplot.line_plot(
            [row.param for row in rows],
            [("D", [row.chaos_degree for row in rows]),
             ("lyapunov", [row.lyapunov for row in rows])],
            xlabel="a",
            ylabel="D, lyapunov",
        )
        with _output(args.plot) as out:
            out.write(svg)
    return EXIT_OK


def cmd_quantum_ecd(args) -> int:
    jsonio.check_log_base(args.log_base)
    state = jsonio.parse_state(jsonio.load_json(args.state))
    channel = jsonio.parse_channel(jsonio.load_json(args.channel))
    cfg = metrics.ComplexityConfig(restarts=args.restarts, seed=args.seed)
    report = metrics.chaos_degree(state, channel, cfg)
    with _output(args.out) as out:
        out.write(jsonio.chaos_degree_json(report, args.log_base))
    return EXIT_OK


def cmd_recognize(args) -> int:
    gamma0, signals, bell, policy = jsonio.parse_experiment(
        jsonio.load_json(args.experiment)
    )
    steps = recognize_sequence(gamma0, signals, bell, policy)
    with _output(args.out) as out:
        block = []
        try:
            for step in steps:
                block.append(step)
                if len(block) == BLOCK_STEPS:
                    out.write(jsonio.step_lines(block))
                    block.clear()
        finally:
            # On a failing step the lines of the steps before it still go out.
            out.write(jsonio.step_lines(block))
    return EXIT_OK


def cmd_axioms(args) -> int:
    results = metrics.axiom_suite(args.dim, args.trials, args.seed)
    with _output(args.out) as out:
        out.write(jsonio.axioms_json(results))
    return EXIT_OK


def cmd_value(args) -> int:
    params = {"dim": args.dim, "pairs": args.pairs, "seed": args.seed}
    if args.batch is not None:
        params.update(jsonio.parse_value_batch(jsonio.load_json(args.batch)))
    outcomes, rate = metrics.conjecture_batch(**params)
    with _output(args.out) as out:
        out.write(jsonio.value_json(outcomes, rate, params["dim"], params["seed"]))
    return EXIT_OK


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code else EXIT_OK
    try:
        return args.func(args)
    except tuple(INPUT_ERRORS) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for kind, code in INPUT_ERRORS.items() if isinstance(exc, kind))


if __name__ == "__main__":
    sys.exit(main())
