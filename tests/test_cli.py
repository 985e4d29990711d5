import json
import math
import sys
import tracemalloc
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from infodyn import classical, jsonio, metrics
from infodyn.classical import MAX_ORBIT_STEPS, MAX_PARTITION_CELLS, MAX_SWEEP_STEPS, MAX_WORKERS
from infodyn.cli import build_parser, main
from infodyn.hilbert import random_density
from infodyn.jsonio import MAX_RECOGNITION_STEPS, dump_json, matrix_to_json
from infodyn.metrics import (
    DEFAULT_CONFIG,
    MAX_AXIOM_DIM,
    MAX_AXIOM_TRIALS,
    MAX_KRAUS_TERMS,
    MAX_RESTARTS,
    MAX_VALUE_DIM,
    MAX_VALUE_PAIRS,
)


def write_json(path, obj):
    path.write_text(dump_json(obj))
    return str(path)


def state_file(tmp_path, matrix, name="state.json"):
    return write_json(tmp_path / name, matrix)


def channel_file(tmp_path, payload, name="channel.json"):
    return write_json(tmp_path / name, payload)


SWEEP_FAST = [
    "ecd-sweep", "--map", "logistic", "--from", "3.5", "--to", "3.7",
    "--step", "0.05", "--samples", "2000", "--transient", "100", "--bins", "25",
]


def test_sweep_writes_csv(tmp_path):
    out = tmp_path / "rows.csv"
    assert main(SWEEP_FAST + ["--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "a,D,lyapunov,label"
    assert len(lines) == 6


def test_sweep_full_grid_row_count(tmp_path):
    out = tmp_path / "rows.csv"
    code = main([
        "ecd-sweep", "--map", "logistic", "--from", "3.0", "--to", "4.0",
        "--step", "0.005", "--samples", "500", "--transient", "50",
        "--bins", "20", "--out", str(out),
    ])
    assert code == 0
    assert len(out.read_text().splitlines()) == 202


def test_sweep_reruns_and_worker_counts_byte_identical(tmp_path):
    files = []
    for idx, workers in enumerate(("1", "3", "1")):
        out = tmp_path / f"rows{idx}.csv"
        assert main(SWEEP_FAST + ["--workers", workers, "--out", str(out)]) == 0
        files.append(out.read_bytes())
    assert files[0] == files[1] == files[2]


def test_sweep_plot_is_valid_deterministic_svg(tmp_path):
    svgs = []
    for idx in range(2):
        plot = tmp_path / f"plot{idx}.svg"
        out = tmp_path / f"rows{idx}.csv"
        assert main(SWEEP_FAST + ["--out", str(out), "--plot", str(plot)]) == 0
        ET.fromstring(plot.read_text())
        svgs.append(plot.read_bytes())
    assert svgs[0] == svgs[1]


def test_sweep_unknown_map_is_usage_error(tmp_path):
    assert main(["ecd-sweep", "--map", "constantdemo", "--from", "3", "--to", "4", "--step", "0.5"]) == 2


def test_sweep_escaping_orbit_exits_dynamics_code(tmp_path):
    code = main([
        "ecd-sweep", "--map", "logistic", "--from", "4.2", "--to", "4.2",
        "--step", "0.1", "--samples", "100", "--transient", "0",
    ])
    assert code == 3


def test_sweep_rejects_bad_worker_count():
    assert main(SWEEP_FAST + ["--workers", "0"]) == 2


def test_sweep_worker_cap(capsys):
    argv = ["ecd-sweep", "--map", "logistic", "--from", "3.5", "--to", "3.5", "--step", "0.1",
            "--samples", "2000", "--transient", "100", "--workers", str(MAX_WORKERS + 1)]
    assert_usage_error(argv, capsys,
                       f"workers={MAX_WORKERS + 1} exceeds the limit MAX_WORKERS={MAX_WORKERS}")


def test_quantum_ecd_identity_channel(tmp_path):
    state = state_file(tmp_path, [[0.7, 0.0], [0.0, 0.3]])
    channel = channel_file(tmp_path, {"kind": "unitary", "matrix": [[1.0, 0.0], [0.0, 1.0]]})
    out = tmp_path / "report.json"
    assert main(["quantum-ecd", "--state", state, "--channel", channel, "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["D"] == 0.0
    assert report["degenerate"] is False


def test_quantum_ecd_degenerate_reports_restarts(tmp_path):
    state = state_file(tmp_path, [[0.5, 0.0], [0.0, 0.5]])
    channel = channel_file(tmp_path, {
        "kind": "kraus",
        "kraus_ops": [
            [[[0.8660254037844386, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.8660254037844386, 0.0]]],
            [[[0.0, 0.0], [0.5, 0.0]], [[0.5, 0.0], [0.0, 0.0]]],
        ],
    })
    out = tmp_path / "report.json"
    assert main([
        "quantum-ecd", "--state", state, "--channel", channel,
        "--restarts", "40", "--out", str(out),
    ]) == 0
    report = json.loads(out.read_text())
    assert report["degenerate"] is True
    assert report["restarts"] == 41
    assert report["D"] <= report["worst"]


def test_quantum_ecd_log_base_scales_report(tmp_path):
    state = state_file(tmp_path, [[0.5, 0.0], [0.0, 0.5]])
    channel = channel_file(tmp_path, {"kind": "stochastic", "P": [[0.5, 0.5], [0.5, 0.5]]})
    nats = tmp_path / "nats.json"
    bits = tmp_path / "bits.json"
    base = ["quantum-ecd", "--state", state, "--channel", channel, "--restarts", "5"]
    assert main(base + ["--out", str(nats)]) == 0
    assert main(base + ["--log-base", "2", "--out", str(bits)]) == 0
    d_nats = json.loads(nats.read_text())["D"]
    d_bits = json.loads(bits.read_text())["D"]
    assert d_bits == pytest.approx(1.0, abs=1e-12)
    assert d_nats == pytest.approx(0.6931471805599453, abs=1e-12)


def test_quantum_ecd_dimension_mismatch_exit_code(tmp_path):
    state = state_file(tmp_path, [[0.7, 0.0], [0.0, 0.3]])
    channel = channel_file(tmp_path, {
        "kind": "unitary",
        "matrix": [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]],
    })
    assert main(["quantum-ecd", "--state", state, "--channel", channel]) == 4


def test_quantum_ecd_missing_file_is_usage_error(tmp_path):
    state = state_file(tmp_path, [[1.0]])
    assert main(["quantum-ecd", "--state", state, "--channel", str(tmp_path / "nope.json")]) == 2


def test_quantum_ecd_malformed_json_is_usage_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    state = state_file(tmp_path, [[1.0]])
    assert main(["quantum-ecd", "--state", state, "--channel", str(bad)]) == 2
    # Of the two input files, the message names the one at fault.
    assert capsys.readouterr().err == (f"error: {bad}: Expecting property name enclosed in "
                                       "double quotes: line 1 column 2 (char 1)\n")


@pytest.mark.parametrize("data, reason", [
    (b"", "Expecting value: line 1 column 1 (char 0)"),
    (b"\xef\xbb\xbf{}", "Unexpected UTF-8 BOM (decode using utf-8-sig): line 1 column 1 (char 0)"),
    (b"\xff{}", "'utf-8' codec can't decode byte 0xff in position 0: invalid start byte"),
])
def test_an_input_that_is_no_json_is_named_by_its_path(tmp_path, capsys, data, reason):
    path = tmp_path / "experiment.json"
    path.write_bytes(data)
    assert main(["recognize", "--experiment", str(path)]) == 2
    assert capsys.readouterr().err == f"error: {path}: {reason}\n"


def test_quantum_ecd_rejects_bad_log_base(tmp_path, capsys):
    state = state_file(tmp_path, [[1.0]])
    channel = channel_file(tmp_path, {"kind": "unitary", "matrix": [[1.0]]})
    assert main(["quantum-ecd", "--state", state, "--channel", channel, "--log-base", "0.5"]) == 2
    # The base is checked before any input file is read.
    missing = str(tmp_path / "missing.json")
    assert main(["quantum-ecd", "--state", missing, "--channel", missing, "--log-base", "0.5"]) == 2
    assert capsys.readouterr().err == "error: log_base must exceed 1, got 0.5\n" * 2


def recognition_experiment(tmp_path, **overrides):
    payload = {
        "n": 2,
        "basis": "fourier",
        "rho": [[1.0, 0.0], [0.0, 0.0]],
        "gamma": [[0.5, 0.0], [0.0, 0.5]],
        "policy": "argmax",
        "steps": 3,
    }
    payload.update(overrides)
    return write_json(tmp_path / "experiment.json", payload)


def test_recognize_writes_one_json_line_per_step(tmp_path):
    exp = recognition_experiment(tmp_path)
    out = tmp_path / "steps.jsonl"
    assert main(["recognize", "--experiment", exp, "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 3
    final = json.loads(lines[-1])
    assert final["t"] == 2
    assert final["entropy_of_gamma"] == pytest.approx(0, abs=1e-12)


def test_recognize_zero_steps_empty_output(tmp_path):
    exp = recognition_experiment(tmp_path, steps=0)
    out = tmp_path / "steps.jsonl"
    assert main(["recognize", "--experiment", exp, "--out", str(out)]) == 0
    assert out.read_text() == ""


def test_recognize_sampling_reruns_identical(tmp_path):
    exp = recognition_experiment(tmp_path, policy="sample", seed=21, steps=5)
    blobs = []
    for idx in range(2):
        out = tmp_path / f"steps{idx}.jsonl"
        assert main(["recognize", "--experiment", exp, "--out", str(out)]) == 0
        blobs.append(out.read_bytes())
    assert blobs[0] == blobs[1]


def test_recognize_zero_probability_outcome_exit_code(tmp_path):
    exp = recognition_experiment(
        tmp_path,
        basis="standard",
        rho=[[1.0, 0.0], [0.0, 0.0]],
        gamma=[[1.0, 0.0], [0.0, 0.0]],
        policy={"fixed": [0, 1]},
        steps=1,
    )
    assert main(["recognize", "--experiment", exp]) == 5


def test_recognize_rejects_a_fixed_outcome_out_of_range(tmp_path, capsys):
    # A fixed outcome's range is checked by the rule of every outcome index,
    # when the trajectory starts, so no step line is written.
    exp = recognition_experiment(tmp_path, policy={"fixed": [0, 5]})
    assert main(["recognize", "--experiment", exp]) == 2
    captured = capsys.readouterr()
    assert "outcome indices must lie in [0, 2), got (0, 5)" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("failing_step", [0, 31, 32, 33, 40, 64])
def test_recognize_failure_keeps_the_lines_of_completed_steps(tmp_path, capsys, failing_step):
    # In the standard basis, outcome (0, 1) moves the memory onto e_1 and
    # then has the probability of e_0 in the signal: 1 until the last
    # signal, which has none.
    signals = [{"matrix": [[1.0, 0.0], [0.0, 0.0]]}] * failing_step
    signals.append({"matrix": [[0.0, 0.0], [0.0, 1.0]]})
    exp = recognition_experiment(tmp_path, basis="standard", rho=signals,
                                 policy={"fixed": [0, 1]}, steps=failing_step + 1)
    out = tmp_path / "steps.jsonl"
    assert main(["recognize", "--experiment", exp, "--out", str(out)]) == 5
    assert f"at step {failing_step}" in capsys.readouterr().err
    lines = out.read_text().splitlines()
    assert [json.loads(line)["t"] for line in lines] == list(range(failing_step))


def test_recognize_output_memory_does_not_grow_with_steps(tmp_path):
    rng = np.random.default_rng(16)
    out = tmp_path / "steps.jsonl"

    def peak_traced_bytes(steps):
        exp = recognition_experiment(
            tmp_path, n=8, policy="sample", seed=1, steps=steps,
            rho=matrix_to_json(random_density(8, rng).matrix),
            gamma=matrix_to_json(random_density(8, rng).matrix),
        )
        tracemalloc.start()
        try:
            assert main(["recognize", "--experiment", exp, "--out", str(out)]) == 0
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    # One-time allocations (the cached parser, numpy's lazy set-up) land in
    # a first call, which is left out of the comparison. Holding every line
    # until the end puts the long run near 8 times the short one.
    peak_traced_bytes(1)
    long_run, short_run = peak_traced_bytes(640), peak_traced_bytes(64)
    assert len(out.read_text().splitlines()) == 64
    assert long_run <= 1.5 * short_run, (long_run, short_run)


def test_recognize_unknown_field_is_usage_error(tmp_path):
    exp = recognition_experiment(tmp_path)
    payload = json.loads((tmp_path / "experiment.json").read_text())
    payload["bogus"] = True
    exp = write_json(tmp_path / "experiment.json", payload)
    assert main(["recognize", "--experiment", exp]) == 2


def test_axioms_reports_all_pass(tmp_path):
    out = tmp_path / "axioms.json"
    assert main(["axioms", "--dim", "2", "--trials", "5", "--seed", "0", "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["all_passed"] is True
    assert set(payload) == {
        "nonnegativity", "relabel_invariance", "additivity",
        "transmitted_bounded", "identity_recovery", "all_passed",
    }


def test_axioms_dim_one_is_usage_error():
    assert main(["axioms", "--dim", "1"]) == 2


def test_value_direct_flags(tmp_path):
    out = tmp_path / "value.json"
    assert main(["value", "--dim", "2", "--pairs", "4", "--seed", "3", "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert len(payload["pairs"]) == 4
    assert 0.0 <= payload["agreement_rate"] <= 1.0
    assert set(payload["pairs"][0]) == {"D", "D_prime", "V", "V_prime", "agree"}


def test_value_batch_file_and_determinism(tmp_path):
    batch = write_json(tmp_path / "batch.json", {"dim": 2, "pairs": 5, "seed": 8})
    blobs = []
    for idx in range(2):
        out = tmp_path / f"value{idx}.json"
        assert main(["value", "--batch", batch, "--out", str(out)]) == 0
        blobs.append(out.read_bytes())
    assert blobs[0] == blobs[1]


def test_value_batch_rejects_unknown_keys(tmp_path):
    batch = write_json(tmp_path / "batch.json", {"dim": 2, "pairs": 5, "threshold": 0.9})
    assert main(["value", "--batch", batch]) == 2


def test_missing_subcommand_is_usage_error():
    assert main([]) == 2


def test_help_exits_clean():
    assert main(["--help"]) == 0


def assert_usage_error(argv, capsys, message):
    assert main(argv) == 2
    assert message in capsys.readouterr().err


# A boolean is no number to the reader; a non-finite number is a number, and
# the array rule names the state. The ids name each case's input and the
# value at fault.
@pytest.mark.parametrize("text, message", [
    ("[[NaN, 0], [0, 1]]", "density operator has a non-finite entry"),
    ("[[[0.5, Infinity], 0], [0, 0.5]]", "density operator has a non-finite entry"),
    ("[[true, false], [false, false]]", "got True"),
], ids=["[[NaN, 0], [0, 1]]-nan", "[[[0.5, Infinity], 0], [0, 0.5]]-[0.5, inf]",
        "[[true, false], [false, false]]-True"])
def test_quantum_ecd_rejects_non_finite_and_boolean_entries(tmp_path, capsys, text, message):
    state = tmp_path / "state.json"
    state.write_text(text)
    channel = channel_file(tmp_path, {"kind": "stochastic", "P": [[0.5, 0.5], [0.5, 0.5]]})
    assert_usage_error(["quantum-ecd", "--state", str(state), "--channel", channel],
                       capsys, message)


@pytest.mark.parametrize("field, value, message", [
    ("n", True, "n must be a positive integer, got True"),
    ("steps", True, "steps must be a nonnegative integer, got True"),
    ("seed", False, "seed must be a nonnegative integer, got False"),
    ("policy", {"fixed": [0, True]}, "j must be a nonnegative integer, got True"),
])
def test_recognize_rejects_boolean_integer_fields(tmp_path, capsys, field, value, message):
    payload = {"n": 2, "basis": "fourier", "rho": [[0.5, 0.0], [0.0, 0.5]],
               "gamma": [[1.0, 0.0], [0.0, 0.0]], "policy": "sample", "seed": 1, "steps": 2}
    payload[field] = value
    experiment = write_json(tmp_path / "experiment.json", payload)
    assert_usage_error(["recognize", "--experiment", experiment], capsys, message)


def test_quantum_ecd_restarts_cap(tmp_path, capsys):
    state = state_file(tmp_path, [[0.7, 0.0], [0.0, 0.3]])
    channel = channel_file(tmp_path, {"kind": "unitary", "matrix": [[1.0, 0.0], [0.0, 1.0]]})
    argv = ["quantum-ecd", "--state", state, "--channel", channel, "--restarts"]
    # At the cap the call runs; a non-degenerate state evaluates one candidate.
    assert main(argv + [str(MAX_RESTARTS), "--out", str(tmp_path / "r.json")]) == 0
    assert_usage_error(argv + [str(MAX_RESTARTS + 1)], capsys,
                       f"restarts={MAX_RESTARTS + 1} exceeds the limit MAX_RESTARTS={MAX_RESTARTS}")


def test_recognize_steps_cap_fails_before_allocating(tmp_path, capsys):
    # A list of 10**12 references would need about 8 TB.
    exp = recognition_experiment(tmp_path, steps=10**12)
    assert_usage_error(["recognize", "--experiment", exp], capsys,
                       f"steps=1000000000000 exceeds the limit "
                       f"MAX_RECOGNITION_STEPS={MAX_RECOGNITION_STEPS}")
    exp = recognition_experiment(tmp_path, steps=MAX_RECOGNITION_STEPS + 1)
    assert_usage_error(["recognize", "--experiment", exp], capsys, "MAX_RECOGNITION_STEPS")


def test_recognize_checks_memory_dimension_before_building_basis(tmp_path, capsys, monkeypatch):
    # A Fourier basis for n = 200000 would need hundreds of GiB.
    def refuse(obj, n):
        raise AssertionError(f"basis of dimension {n} built before the memory was checked")

    monkeypatch.setattr(jsonio, "parse_basis", refuse)
    exp = recognition_experiment(tmp_path, n=200000, gamma=[[1.0]])
    assert main(["recognize", "--experiment", exp]) == 4
    assert "memory dim 1 must equal system dim 200000" in capsys.readouterr().err


def test_recognize_checks_every_listed_signal_before_the_first_step(tmp_path, capsys):
    pure = {"matrix": [[1.0, 0.0], [0.0, 0.0]]}
    wide = {"matrix": [[1.0, 0.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]]}
    exp = recognition_experiment(tmp_path, rho=[pure, pure, wide], steps=3)
    assert main(["recognize", "--experiment", exp]) == 4
    captured = capsys.readouterr()
    assert "signal 2 has dim 3, expected system dim 2" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("command", ["quantum-ecd", "axioms", "value", "recognize"])
def test_negative_seed_is_usage_error(tmp_path, capsys, command):
    if command == "quantum-ecd":
        # A non-degenerate state: the search, and its generator, never runs.
        argv = ["quantum-ecd", "--seed", "-1",
                "--state", state_file(tmp_path, [[0.7, 0.0], [0.0, 0.3]]),
                "--channel", channel_file(tmp_path, {"kind": "unitary",
                                                     "matrix": [[1.0, 0.0], [0.0, 1.0]]})]
    elif command == "recognize":
        argv = ["recognize", "--experiment",
                recognition_experiment(tmp_path, policy="sample", seed=-1)]
    else:
        argv = [command, "--dim", "2", "--seed", "-1"]
    assert_usage_error(argv, capsys, "seed must be a nonnegative integer, got -1")


@pytest.mark.parametrize("flag, value, message", [
    ("--bins", "100000000000000000000", f"MAX_PARTITION_CELLS={MAX_PARTITION_CELLS}"),
    ("--samples", str(MAX_ORBIT_STEPS), f"transient + samples={MAX_ORBIT_STEPS + 100} exceeds the limit "
                                        f"MAX_ORBIT_STEPS={MAX_ORBIT_STEPS}"),
    ("--transient", str(MAX_ORBIT_STEPS), f"MAX_ORBIT_STEPS={MAX_ORBIT_STEPS}"),
    ("--samples", "1", "samples must be an integer >= 2, got 1"),
], ids=["bins", "samples", "transient", "one-sample"])
def test_sweep_size_caps_are_usage_errors(capsys, flag, value, message):
    assert_usage_error(SWEEP_FAST + [flag, value], capsys, message)


@pytest.mark.parametrize("field, kind", [
    ("dim", "an integer >= 2"),
    ("pairs", "a positive integer"),
    ("seed", "a nonnegative integer"),
    ("kraus_terms", "a positive integer"),
], ids=["dim", "pairs", "seed", "kraus_terms"])
def test_value_batch_rejects_boolean_integer_fields(tmp_path, capsys, field, kind):
    spec = {"dim": 2, "pairs": 2, "seed": 0, "kraus_terms": 2}
    spec[field] = True
    batch = write_json(tmp_path / "batch.json", spec)
    assert_usage_error(["value", "--batch", batch], capsys, f"{field} must be {kind}, got True")


@pytest.mark.parametrize("bound", ["--to=inf", "--from=-inf", "--step=nan"])
def test_sweep_rejects_non_finite_grid(capsys, bound):
    grid = {"--from": "--from=3.0", "--to": "--to=3.1", "--step": "--step=0.1"}
    grid[bound.split("=")[0]] = bound
    argv = ["ecd-sweep", "--map", "logistic", *grid.values(), "--samples", "10", "--transient", "0"]
    flag, text = bound.split("=")
    field = {"--from": "start", "--to": "stop", "--step": "step"}[flag]
    assert_usage_error(argv, capsys, f"{field} must be a finite real number, got {float(text)!r}")


def test_sweep_rejects_oversized_grid(capsys):
    assert_usage_error(
        ["ecd-sweep", "--map", "logistic", "--from", "3", "--to", "4", "--step", "1e-12"],
        capsys, "sweep grid has 1000000000001 rows",
    )


def test_sweep_above_the_total_work_cap_is_a_usage_error(capsys, monkeypatch):
    # 10**6 rows of 1000 + 100000 steps: each row is within its caps, the
    # grid's whole work is not, and no orbit is iterated.
    monkeypatch.setattr(classical, "iterate_orbit", None)
    argv = ["ecd-sweep", "--map", "logistic", "--from", "3.0", "--to", "3.999999",
            "--step", "0.000001", "--samples", "100000"]
    assert_usage_error(argv, capsys, f"rows * (transient + samples)=101000000000 exceeds the limit "
                                     f"MAX_SWEEP_STEPS={MAX_SWEEP_STEPS}")


@pytest.mark.parametrize("argv, flag", [
    (["--log-base", "nan"], "--log-base"),
    (["--log-base", "inf"], "--log-base"),
    (SWEEP_FAST + ["--eps-zero", "nan"], "--eps-zero"),
    (SWEEP_FAST + ["--eps-const", "inf"], "--eps-const"),
])
def test_non_finite_float_flags_are_usage_errors(tmp_path, capsys, argv, flag):
    if argv[0] == "--log-base":
        state = state_file(tmp_path, [[0.5, 0.0], [0.0, 0.5]])
        channel = channel_file(tmp_path, {"kind": "stochastic", "P": [[0.5, 0.5], [0.5, 0.5]]})
        argv = ["quantum-ecd", "--state", state, "--channel", channel] + argv
    rule = {"--log-base": "log_base must be a finite real number",
            "--eps-zero": "eps_zero must be a finite real number >= 0",
            "--eps-const": "eps_const must be a finite real number >= 0"}[flag]
    assert_usage_error(argv, capsys, f"{rule}, got {float(argv[-1])!r}")


@pytest.mark.parametrize("flag", ["--eps-zero", "--eps-const"])
def test_sweep_negative_threshold_is_usage_error(capsys, flag):
    assert_usage_error(SWEEP_FAST + [flag, "-1"], capsys,
                       f"{flag[2:].replace('-', '_')} must be a finite real number >= 0, got -1.0")


def test_sweep_threshold_message_is_the_library_message(capsys):
    with pytest.raises(ValueError) as exc:
        classical.sweep(classical.logistic_map(), 3.5, 3.7, 0.05, eps_zero=math.inf)
    assert_usage_error(SWEEP_FAST + ["--eps-zero", "inf"], capsys, f"error: {exc.value}\n")


def test_quantum_ecd_defaults_are_the_library_defaults():
    args = build_parser().parse_args(["quantum-ecd", "--state", "s.json", "--channel", "c.json"])
    assert (args.restarts, args.seed) == (DEFAULT_CONFIG.restarts, DEFAULT_CONFIG.seed)


def test_axioms_trials_cap(capsys):
    assert_usage_error(["axioms", "--dim", "2", "--trials", str(MAX_AXIOM_TRIALS + 1)], capsys,
                       f"trials={MAX_AXIOM_TRIALS + 1} exceeds the limit "
                       f"MAX_AXIOM_TRIALS={MAX_AXIOM_TRIALS}")


def test_axioms_dim_cap(capsys):
    assert_usage_error(["axioms", "--dim", str(MAX_AXIOM_DIM + 1)], capsys,
                       f"dim={MAX_AXIOM_DIM + 1} exceeds the limit MAX_AXIOM_DIM={MAX_AXIOM_DIM}")


def test_value_pairs_cap(capsys):
    assert_usage_error(["value", "--pairs", str(MAX_VALUE_PAIRS + 1)], capsys,
                       f"pairs={MAX_VALUE_PAIRS + 1} exceeds the limit "
                       f"MAX_VALUE_PAIRS={MAX_VALUE_PAIRS}")


def test_value_kraus_terms_cap(tmp_path, capsys):
    batch = write_json(tmp_path / "ok.json", {"pairs": 1, "kraus_terms": MAX_KRAUS_TERMS})
    assert main(["value", "--batch", batch, "--out", str(tmp_path / "v.json")]) == 0
    batch = write_json(tmp_path / "big.json", {"pairs": 1, "kraus_terms": MAX_KRAUS_TERMS + 1})
    assert_usage_error(["value", "--batch", batch], capsys,
                       f"kraus_terms={MAX_KRAUS_TERMS + 1} exceeds the limit "
                       f"MAX_KRAUS_TERMS={MAX_KRAUS_TERMS}")
    batch = write_json(tmp_path / "zero.json", {"pairs": 1, "kraus_terms": 0})
    assert_usage_error(["value", "--batch", batch], capsys, "kraus_terms must be a positive integer, got 0")


def test_value_dim_cap(tmp_path, capsys):
    assert main(["value", "--dim", str(MAX_VALUE_DIM), "--pairs", "1",
                 "--out", str(tmp_path / "v.json")]) == 0
    message = f"dim={MAX_VALUE_DIM + 1} exceeds the limit MAX_VALUE_DIM={MAX_VALUE_DIM}"
    assert_usage_error(["value", "--dim", str(MAX_VALUE_DIM + 1)], capsys, message)
    # A batch file's dim meets the same limit; dim 100 would need a
    # 10**4-dimensional channel.
    batch = write_json(tmp_path / "batch.json", {"dim": 100, "pairs": 1})
    assert_usage_error(["value", "--batch", batch], capsys,
                       f"dim=100 exceeds the limit MAX_VALUE_DIM={MAX_VALUE_DIM}")


@pytest.mark.parametrize("state, message", [
    ({}, "state is missing 'matrix'"),
    ([1.0, 2.0], "matrix must be a non-empty array of rows"),
    ([[10**400]], "density operator has a non-finite entry"),
], ids=["empty-object", "flat-array", "huge-integer"])
def test_quantum_ecd_state_escapes_are_usage_errors(tmp_path, capsys, state, message):
    channel = channel_file(tmp_path, {"kind": "stochastic", "P": [[1.0]]})
    assert_usage_error(["quantum-ecd", "--state", state_file(tmp_path, state),
                        "--channel", channel], capsys, message)


def test_recognize_custom_basis_without_matrix_is_usage_error(tmp_path, capsys):
    exp = recognition_experiment(tmp_path, basis={})
    assert_usage_error(["recognize", "--experiment", exp], capsys, "basis is missing 'custom'")


@pytest.mark.parametrize("fault", [TypeError, KeyError, AttributeError])
def test_program_fault_escapes_main(monkeypatch, fault):
    # No input is meant to raise these; a bug must surface with its
    # traceback, not pass as a usage error (exit 2).
    def broken(*args):
        raise fault("bug")
    monkeypatch.setattr(metrics, "axiom_suite", broken)
    with pytest.raises(fault):
        main(["axioms", "--dim", "2", "--trials", "1"])


# One valid input file per subcommand kind; each field is replaced in turn
# by every value of BAD_VALUES.
VALID_INPUTS = {
    "state": ("quantum-ecd", {"matrix": [[0.7, 0.0], [0.0, 0.3]]}),
    "kraus": ("quantum-ecd", {"kind": "kraus", "kraus_ops": [
        [[0.8, 0.0], [0.0, 0.6]], [[0.0, 0.8], [0.6, 0.0]]]}),
    "unitary": ("quantum-ecd", {"kind": "unitary", "matrix": [[0.0, 1.0], [1.0, 0.0]]}),
    "ktau": ("quantum-ecd", {"kind": "ktau", "matrix": [[1.0, 0.5], [0.5, 1.0]]}),
    "stochastic": ("quantum-ecd", {"kind": "stochastic", "P": [[0.5, 0.5], [0.25, 0.75]]}),
    "experiment": ("recognize", {"n": 2, "basis": "fourier", "rho": [[1.0, 0.0], [0.0, 0.0]],
                                 "gamma": [[0.5, 0.0], [0.0, 0.5]], "policy": "argmax",
                                 "steps": 2}),
    "batch": ("value", {"dim": 2, "pairs": 2, "seed": 3, "kraus_terms": 2,
                        "identical_channels": False}),
}
# Booleans, null, strings, integers, fractions, integers beyond the float
# range, empty and wrongly nested lists, and objects.
BAD_VALUES = [True, False, None, "fourier", "", 0, -1, 0.5, 2.5, 10**400, -(10**400), [], {},
              [1.0, 0.0], [[1.0]], [[1.0, 0.0]], [[[1.0, 0.0, 0.0]]], [[1.0, [0.0]], [0.0, 1.0]],
              [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]], {"matrix": [[1.0]]},
              {"fixed": [0, 0]}]


def run_with_input(tmp_path, name, payload):
    """Exit code of the subcommand of VALID_INPUTS[name] on `payload`, the other inputs valid."""
    return run_with_text(tmp_path, name, dump_json(payload))


def run_with_text(tmp_path, name, text):
    """Exit code of the subcommand of VALID_INPUTS[name] on an input file holding `text`."""
    command = VALID_INPUTS[name][0]
    (tmp_path / "input.json").write_text(text)
    path = str(tmp_path / "input.json")
    state = state_file(tmp_path, VALID_INPUTS["state"][1], "valid_state.json")
    channel = channel_file(tmp_path, VALID_INPUTS["unitary"][1], "valid_channel.json")
    argv = {
        "quantum-ecd": ["quantum-ecd", "--restarts", "2", "--state",
                        path if name == "state" else state,
                        "--channel", channel if name == "state" else path],
        "recognize": ["recognize", "--experiment", path],
        "value": ["value", "--batch", path],
    }[command]
    return main(argv + ["--out", str(tmp_path / "out")])


@pytest.mark.parametrize("name", VALID_INPUTS)
def test_every_valid_input_runs(tmp_path, name):
    assert run_with_input(tmp_path, name, VALID_INPUTS[name][1]) == 0


@pytest.mark.parametrize("name, field", [(name, field) for name, (_, payload) in VALID_INPUTS.items()
                                         for field in payload])
def test_any_json_value_in_any_field_exits_with_an_input_code(tmp_path, capsys, name, field):
    # A program fault escapes `main` and fails the test. A replacement may
    # be valid (the same basis name, zero steps, a boolean flag, the
    # identity as [re, im] pairs), and then the run succeeds silently.
    for value in BAD_VALUES:
        code = run_with_input(tmp_path, name, {**VALID_INPUTS[name][1], field: value})
        err = capsys.readouterr().err
        assert code in (0, 2, 4, 5), (value, code)
        assert err.count("\n") == (code != 0) and err.startswith("error: " if code else ""), (value, err)


# Every JSON matrix field: the VALID_INPUTS entry whose file holds it, that
# file's payload with one entry at SENTINEL, and the name under which the
# field's constructor reads it through the array rule.
SENTINEL = 0.123456789
EXPERIMENT = VALID_INPUTS["experiment"][1]
MATRIX_FIELDS = {
    "state": ("state", {"matrix": [[SENTINEL, 0.0], [0.0, 0.3]]}, "density operator"),
    "kraus_ops": ("kraus", {"kind": "kraus", "kraus_ops": [[[SENTINEL, 0.0], [0.0, 0.6]],
                                                          [[0.0, 0.8], [0.6, 0.0]]]}, "Kraus operator"),
    "unitary": ("unitary", {"kind": "unitary", "matrix": [[0.0, SENTINEL], [1.0, 0.0]]}, "unitary"),
    "ktau": ("ktau", {"kind": "ktau", "matrix": [[SENTINEL, 0.5], [0.5, 1.0]]}, "weight"),
    "P": ("stochastic", {"kind": "stochastic", "P": [[SENTINEL, 0.5], [0.25, 0.75]]}, "stochastic matrix"),
    "custom": ("experiment", {**EXPERIMENT, "basis": {"custom": [[SENTINEL, 0.0], [0.0, 1.0]]}}, "basis"),
    "gamma": ("experiment", {**EXPERIMENT, "gamma": [[SENTINEL, 0.0], [0.0, 0.5]]}, "density operator"),
    "rho": ("experiment", {**EXPERIMENT, "rho": [[[SENTINEL, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]},
            "density operator"),
    # A list of states, read as one stack first.
    "rho-list": ("experiment", {**EXPERIMENT, "rho": [[[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]],
                                                      [[[0.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [SENTINEL, 0.0]]]]},
                 "density operator"),
}
NON_FINITE = {"NaN": "NaN", "Infinity": "Infinity", "int-beyond-float": "1" + "0" * 400}


@pytest.mark.parametrize("field, entry", [(field, entry) for field in MATRIX_FIELDS for entry in NON_FINITE])
def test_a_non_finite_json_entry_is_named_by_its_field(tmp_path, capsys, field, entry):
    name, payload, subject = MATRIX_FIELDS[field]
    text = dump_json(payload)
    assert text.count(repr(SENTINEL)) == 1
    assert run_with_text(tmp_path, name, text.replace(repr(SENTINEL), NON_FINITE[entry])) == 2
    assert capsys.readouterr().err == f"error: {subject} has a non-finite entry\n"


# Each numeric flag, on a cheap valid run of its subcommand.
NUMERIC_FLAGS = {
    "ecd-sweep": (["--map", "logistic", "--from", "3.5", "--to", "3.6", "--step", "0.05",
                   "--bins", "10", "--samples", "200", "--transient", "10", "--window", "2"],
                  ["--from", "--to", "--step", "--bins", "--samples", "--transient", "--x0",
                   "--eps-zero", "--eps-const", "--window", "--workers"]),
    "quantum-ecd": (["--restarts", "2"], ["--restarts", "--seed", "--log-base"]),
    "axioms": (["--dim", "2", "--trials", "1"], ["--dim", "--trials", "--seed"]),
    "value": (["--dim", "2", "--pairs", "1"], ["--dim", "--pairs", "--seed"]),
}
# Empty, non-finite, signed, zero, fractional, out-of-range and long numbers,
# Python-only integer spellings, a list, a boolean and a name.
FLAG_VALUES = ["", "nan", "inf", "-inf", "-1", "0", "-0", "2.5", "1e400", "1e-400", "7" * 400,
               "0x10", " 3", "1_0", "1,2", "true", "e"]


@pytest.mark.parametrize("command, flag", [(command, flag) for command, (_, flags) in NUMERIC_FLAGS.items()
                                           for flag in flags])
def test_any_numeric_flag_value_exits_with_an_input_code(tmp_path, capsys, command, flag):
    base, _ = NUMERIC_FLAGS[command]
    if command == "quantum-ecd":  # a degenerate state, so that the search draws from its seed
        base = base + ["--state", state_file(tmp_path, {"matrix": [[0.5, 0.0], [0.0, 0.5]]}),
                       "--channel", channel_file(tmp_path, VALID_INPUTS["unitary"][1])]
    for value in FLAG_VALUES:
        # A valid worker count above 2 would start that many processes.
        if flag == "--workers" and value.strip().replace("_", "").isdigit() and 2 < int(value) <= MAX_WORKERS:
            continue
        code = main([command, *base, f"{flag}={value}", "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code in (0, 2, 3, 4, 5), (value, code)
        assert sum("error:" in line for line in err.splitlines()) == (code != 0), (value, err)


# Deep nests of JSON arrays, at each depth on both sides of the interpreter's
# recursion limit, where `json.load` itself starts to raise RecursionError.
DEEP_NEST_DEPTHS = range(sys.getrecursionlimit() - 100, sys.getrecursionlimit() + 101)


@pytest.mark.parametrize("name, field", [("state", None), ("state", "matrix"),
                                         ("experiment", None), ("experiment", "rho"),
                                         ("batch", None), ("batch", "dim")])
def test_a_deeply_nested_input_is_a_usage_error_at_any_depth(tmp_path, capsys, name, field):
    for depth in DEEP_NEST_DEPTHS:
        # The nest is spliced in as text, since encoding it would itself
        # recurse too deeply.
        nest = "[" * depth + "]" * depth
        text = nest if field is None else dump_json({**VALID_INPUTS[name][1], field: 0}).replace(
            f'"{field}": 0', f'"{field}": {nest}')
        code = run_with_text(tmp_path, name, text)
        err = capsys.readouterr().err
        assert code == 2, depth
        assert err.count("\n") == 1 and err.startswith("error: ") and "Traceback" not in err, depth


# Inputs whose offending value is long or deep. The error echoes only the
# first characters of the value, so stderr stays one short line.
LONG_INPUTS = {
    "pair-of-200000-entries": ("state", json.dumps({"matrix": [[1.0, [0.0] * 200_000]]})),
    "n-of-100000-entries": ("experiment", json.dumps({**VALID_INPUTS["experiment"][1],
                                                      "n": [0] * 100_000})),
    "nest-900-deep": ("state", "[" * 900 + "]" * 900),
    "fixed-outcome-of-401-digits": ("experiment", json.dumps({**VALID_INPUTS["experiment"][1],
                                                              "policy": {"fixed": [10**400, 0]}})),
}


@pytest.mark.parametrize("case", LONG_INPUTS)
def test_a_long_or_deep_value_is_echoed_in_one_short_line(tmp_path, capsys, case):
    name, text = LONG_INPUTS[case]
    assert run_with_text(tmp_path, name, text) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: ") and len(err) < 200, len(err)
    assert err.endswith("...\n")


def test_a_sweep_grid_of_a_301_digit_row_count_is_echoed_in_one_short_line(capsys):
    assert main(["ecd-sweep", "--map", "logistic", "--from", "0", "--to", "1e300", "--step", "1"]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: sweep grid has 1") and len(err) < 200, len(err)
    assert err.endswith("... rows, more than the limit of 1000000\n")
