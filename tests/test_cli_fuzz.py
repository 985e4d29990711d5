"""Every subcommand fuzzed end to end through `cli.main`.

A run starts from a cheap valid command line of one subcommand. Hypothesis
then gives some of its parser's flags a value of `test_boundary.BAD_VALUES`
rendered as text, and replaces some of its input files with a JSON value of
`test_jsonio.JSON_VALUES` or with bytes that no JSON reader accepts: deep
nests, a byte-order mark, binary bytes and an empty file. Whatever it draws,
`main` returns 0 or an input error's exit code, lets no exception escape and
raises no warning. A failed run reports on stderr either one line
"error: ..." or argparse's usage followed by its one error line. No line is
longer than 200 characters plus the longest command-line argument, which a
message may echo as a path or a flag value; a value read from a file is
echoed only as far as `hilbert._brief` cuts it.
"""

import argparse
import contextlib
import io
import json
import os
import tempfile
import warnings

from hypothesis import given, settings
from hypothesis import strategies as st

from infodyn.cli import build_parser, main
from test_boundary import BAD_VALUES
from test_jsonio import JSON_VALUES

SUBPARSERS = next(action for action in build_parser()._actions
                  if isinstance(action, argparse._SubParsersAction)).choices
FLAGS = {command: [action.option_strings[-1] for action in parser._actions
                   if action.option_strings and action.dest != "help"]
         for command, parser in SUBPARSERS.items()}
# A cheap valid run of each subcommand. Input files are named by their flag
# and hold VALID_FILES[flag] unless the run draws other contents for them.
BASE = {
    "ecd-sweep": ["--map", "logistic", "--from", "3.5", "--to", "3.6", "--step", "0.05",
                  "--bins", "10", "--samples", "200", "--transient", "10", "--window", "2"],
    "quantum-ecd": ["--state", "state", "--channel", "channel", "--restarts", "2"],
    "recognize": ["--experiment", "experiment"],
    "axioms": ["--dim", "2", "--trials", "1"],
    "value": ["--dim", "2", "--pairs", "1", "--batch", "batch"],
}
VALID_FILES = {
    "--state": {"matrix": [[0.5, 0.0], [0.0, 0.5]]},
    "--channel": {"kind": "unitary", "matrix": [[0.0, 1.0], [1.0, 0.0]]},
    "--experiment": {"n": 2, "basis": "fourier", "rho": [[1.0, 0.0], [0.0, 0.0]],
                     "gamma": [[0.5, 0.0], [0.0, 0.5]], "policy": "argmax", "steps": 2},
    "--batch": {"dim": 2, "pairs": 2, "seed": 3},
}
# No text is a worker count from 2 to MAX_WORKERS, so no drawn `--workers` starts a pool.
TEXTS = sorted({str(value) for value in BAD_VALUES.values()})
UNREADABLE = [b"", b"\xef\xbb\xbf" + json.dumps(VALID_FILES["--state"]).encode(),
              b"\xff\xfe\x00\x01binary", b"\x00" * 16,
              *(("[" * depth + "]" * depth).encode() for depth in (900, 1000, 1100))]
CONTENTS = st.one_of(JSON_VALUES.map(lambda value: json.dumps(value).encode()),
                     st.sampled_from(UNREADABLE))


@st.composite
def runs(draw):
    """A subcommand, the flags given bad text, and the input files given other contents."""
    command = draw(st.sampled_from(sorted(SUBPARSERS)))
    flags = draw(st.lists(st.sampled_from(FLAGS[command]), max_size=3, unique=True))
    inputs = [flag for flag in VALID_FILES if flag in BASE[command] and flag not in flags]
    files = draw(st.dictionaries(st.sampled_from(inputs), CONTENTS)) if inputs else {}
    return command, {flag: draw(st.sampled_from(TEXTS)) for flag in flags}, files


def run(command, texts, files):
    """The command line, `main`'s exit code, its stderr and its warnings on the drawn run.

    The run is made in a fresh directory, with stdout captured and dropped.
    """
    argv = [command, *BASE[command]]
    for flag, text in texts.items():
        if flag in argv:
            del argv[argv.index(flag):argv.index(flag) + 2]
        argv.append(f"{flag}={text}")
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as work:
        here = os.getcwd()
        os.chdir(work)
        try:
            for flag, payload in VALID_FILES.items():
                with open(flag.lstrip("-"), "wb") as fh:
                    fh.write(files.get(flag, json.dumps(payload).encode()))
            with (warnings.catch_warnings(record=True) as caught,
                  contextlib.redirect_stdout(out), contextlib.redirect_stderr(err)):
                warnings.simplefilter("always")
                code = main(argv)
        finally:
            os.chdir(here)
    return argv, code, err.getvalue(), caught


@settings(max_examples=250, deadline=None)
@given(drawn=runs())
def test_any_flags_and_files_exit_with_an_input_code_and_one_bounded_error_line(drawn):
    argv, code, err, caught = run(*drawn)
    assert [str(w.message) for w in caught] == []
    assert code in (0, 2, 3, 4, 5)
    lines = err.splitlines()
    bound = 200 + max(map(len, argv))
    assert all(len(line) <= bound for line in lines), err[:1000]
    if code == 0:
        assert lines == []
    elif lines and lines[0].startswith("usage: "):
        assert code == 2 and lines[-1].startswith(f"infodyn {argv[0]}: error: "), err
    else:
        assert len(lines) == 1 and lines[0].startswith("error: ") and err.endswith("\n"), err
