"""Byte-level golden fixtures for small fixed invocations of every subcommand.

Each case runs `infodyn.cli.main` and compares its exit code, stdout,
stderr and any `--plot` file with the files under tests/golden/. A
stream that is empty has no file. After an intended output change,
rewrite the files of the cases it affects, named as in CASES, with

    PYTHONPATH=src python tests/test_golden.py recognize_argmax recognize_sample

and explain the diff in CHANGES.md. With no case names every fixture is
rewritten and files of cases no longer in CASES are deleted.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

import pytest

from infodyn.cli import main

GOLDEN = Path(__file__).parent / "golden"

RECOGNITION = {
    "n": 5, "basis": "fourier",
    "rho": [[0.3, 0, 0, 0, 0], [0, 0.25, 0, 0, 0], [0, 0, 0.2, 0, 0],
            [0, 0, 0, 0.15, 0], [0, 0, 0, 0, 0.1]],
    "gamma": [[0.2, 0, 0, 0, 0], [0, 0.2, 0, 0, 0], [0, 0, 0.2, 0, 0],
              [0, 0, 0, 0.2, 0], [0, 0, 0, 0, 0.2]],
    "steps": 3,
}

# Input files, written into the case's directory as JSON.
INPUTS = {
    "degenerate_state.json": [
        [0.4, 0.0, 0.0, 0.0],
        [0.0, 0.4, 0.0, 0.0],
        [0.0, 0.0, 0.1, 0.0],
        [0.0, 0.0, 0.0, 0.1],
    ],
    "stochastic_channel.json": {
        "kind": "stochastic",
        "P": [
            [0.7, 0.1, 0.1, 0.1],
            [0.2, 0.5, 0.2, 0.1],
            [0.0, 0.3, 0.3, 0.4],
            [0.25, 0.25, 0.25, 0.25],
        ],
    },
    "ktau_hat_channel.json": {"kind": "ktau_hat", "matrix": [[0.25] * 4] * 4},
    "recognize_argmax.json": {**RECOGNITION, "policy": "argmax"},
    "recognize_sample.json": {**RECOGNITION, "policy": "sample", "seed": 11},
    # 70 steps span three of the library's step blocks.
    "recognize_blocks.json": {
        "n": 4, "basis": "fourier", "policy": "sample", "seed": 5, "steps": 70,
        "rho": [[0.4, 0.1, 0, 0], [0.1, 0.3, 0, 0], [0, 0, 0.2, 0], [0, 0, 0, 0.1]],
        "gamma": [[0.3, [0.05, 0.02], 0, 0], [[0.05, -0.02], 0.3, 0.05, 0],
                  [0, 0.05, 0.2, 0.05], [0, 0, 0.05, 0.2]],
    },
}

SWEEP = ["ecd-sweep", "--transient", "100", "--samples", "2000"]

# name -> (argv with {file} placeholders for INPUTS and the plot, exit code)
CASES = {
    "sweep_logistic": (SWEEP + ["--map", "logistic", "--from", "3.5", "--to", "4.0",
                                "--step", "0.1", "--bins", "20", "--plot", "{plot}"], 0),
    "sweep_tinkerbell": (SWEEP + ["--map", "tinkerbell", "--from", "0.85", "--to", "0.9",
                                  "--step", "0.05", "--bins", "10"], 0),
    "sweep_baker": (SWEEP + ["--map", "baker", "--from", "0", "--to", "0.5",
                             "--step", "0.5", "--bins", "8", "--x0", "0.3,0.4"], 0),
    "sweep_escape": (SWEEP + ["--map", "logistic", "--from", "4.0", "--to", "4.2",
                              "--step", "0.1"], 3),
    "sweep_escape_w2": (SWEEP + ["--map", "logistic", "--from", "4.0", "--to", "4.2",
                                 "--step", "0.1", "--workers", "2"], 3),
    "quantum_ecd": (["quantum-ecd", "--state", "{degenerate_state.json}",
                     "--channel", "{stochastic_channel.json}", "--restarts", "20"], 0),
    "quantum_ecd_ktau_hat": (["quantum-ecd", "--state", "{degenerate_state.json}",
                              "--channel", "{ktau_hat_channel.json}"], 2),
    "recognize_argmax": (["recognize", "--experiment", "{recognize_argmax.json}"], 0),
    "recognize_sample": (["recognize", "--experiment", "{recognize_sample.json}"], 0),
    "recognize_blocks": (["recognize", "--experiment", "{recognize_blocks.json}"], 0),
    "axioms": (["axioms", "--dim", "2", "--trials", "2"], 0),
    "value": (["value", "--pairs", "3"], 0),
}


def run_case(name: str, workdir: Path) -> dict[str, bytes]:
    """Run one case in `workdir`; return its outputs keyed by golden file suffix."""
    files = {"plot": workdir / f"{name}.svg"}
    for fname, payload in INPUTS.items():
        path = workdir / fname
        path.write_text(json.dumps(payload, sort_keys=True))
        files[fname] = path
    argv_template, expected_code = CASES[name]
    argv = [str(files[arg[1:-1]]) if arg.startswith("{") else arg for arg in argv_template]
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main(argv)
    assert code == expected_code, (name, code, stderr.getvalue())
    outputs = {"stdout": stdout.getvalue().encode(), "stderr": stderr.getvalue().encode()}
    if files["plot"].exists():
        outputs["svg"] = files["plot"].read_bytes()
    return {suffix: blob for suffix, blob in outputs.items() if blob}


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden(name, tmp_path):
    outputs = run_case(name, tmp_path)
    expected = {p.suffix[1:]: p.read_bytes() for p in GOLDEN.glob(f"{name}.*")}
    assert sorted(outputs) == sorted(expected)
    for suffix, blob in outputs.items():
        assert blob == expected[suffix], f"{name}.{suffix} differs from its golden file"


def regenerate(names) -> int:
    unknown = sorted(set(names) - set(CASES))
    if unknown:
        print(f"unknown case(s) {', '.join(unknown)}; cases are {', '.join(sorted(CASES))}",
              file=sys.stderr)
        return 2
    GOLDEN.mkdir(exist_ok=True)
    stale = GOLDEN.iterdir() if not names else (p for n in names for p in GOLDEN.glob(f"{n}.*"))
    for path in list(stale):
        path.unlink()
    with tempfile.TemporaryDirectory() as tmp:
        for name in sorted(names or CASES):
            for suffix, blob in run_case(name, Path(tmp)).items():
                (GOLDEN / f"{name}.{suffix}").write_bytes(blob)
    return 0


if __name__ == "__main__":
    sys.exit(regenerate(sys.argv[1:]))
