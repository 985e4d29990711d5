import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from infodyn.cli import main
from infodyn.exceptions import DimensionMismatch
from infodyn.hilbert import DensityOperator, random_density
from infodyn.jsonio import (
    dump_json,
    json_to_complex,
    json_to_matrix,
    matrix_to_json,
    parse_basis,
    parse_channel,
    parse_experiment,
    parse_state,
    parse_value_batch,
)
from infodyn.metrics import conjecture_batch
from infodyn.recognition import ArgmaxPolicy, FixedPolicy, SamplePolicy, SignalBasis

RNG = np.random.default_rng(13)


def test_complex_round_trip():
    z = 1.5 - 2.25j
    assert json_to_complex(matrix_to_json([[z]])[0][0]) == z
    assert json_to_complex(3.0) == 3.0 + 0j


def test_matrix_round_trip():
    m = RNG.normal(size=(3, 3)) + 1j * RNG.normal(size=(3, 3))
    assert np.array_equal(json_to_matrix(matrix_to_json(m)), m)


def test_matrix_rejects_ragged_rows():
    with pytest.raises(ValueError):
        json_to_matrix([[1.0, 2.0], [3.0]])


def test_parse_state_bare_and_wrapped():
    rho = random_density(2, RNG)
    payload = matrix_to_json(rho.matrix)
    assert np.allclose(parse_state(payload).matrix, rho.matrix, atol=1e-12)
    assert np.allclose(parse_state({"matrix": payload}).matrix, rho.matrix, atol=1e-12)


def test_parse_state_rejects_unknown_keys():
    with pytest.raises(ValueError):
        parse_state({"matrix": [[1.0]], "extra": 1})


@pytest.mark.parametrize(
    "kind,payload",
    [
        ("unitary", {"matrix": [[0.0, 1.0], [1.0, 0.0]]}),
        ("ktau", {"matrix": [[0.5, 0.5], [0.5, 0.5]]}),
        ("kraus", {"kraus_ops": [[[1.0, 0.0], [0.0, 1.0]]]}),
        ("stochastic", {"P": [[0.5, 0.5], [0.0, 1.0]]}),
    ],
)
def test_parse_channel_kinds(kind, payload):
    ch = parse_channel({"kind": kind, **payload})
    assert ch.dim == 2


def test_parse_channel_rejects_unknown_kind():
    with pytest.raises(ValueError):
        parse_channel({"kind": "mystery", "matrix": [[1.0]]})
    # Trace-normalized damping is nonlinear, so it is not a channel kind.
    with pytest.raises(ValueError, match="channel kind must be one of"):
        parse_channel({"kind": "ktau_hat", "matrix": [[0.5, 0.0], [0.0, 0.5]]})


def test_parse_channel_rejects_complex_stochastic():
    with pytest.raises(ValueError):
        parse_channel({"kind": "stochastic", "P": [[[0.5, 0.1], [0.5, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]})


def test_parse_basis_names_and_custom():
    assert np.array_equal(parse_basis("fourier", 3).vectors, SignalBasis.fourier(3).vectors)
    assert np.array_equal(parse_basis("standard", 2).vectors, np.eye(2))
    custom = parse_basis({"custom": [[1.0, 0.0], [0.0, 1.0]]}, 2)
    assert custom.n == 2
    with pytest.raises(ValueError):
        parse_basis({"custom": [[1.0, 0.0], [0.0, 1.0]]}, 3)
    with pytest.raises(ValueError):
        parse_basis("hadamard", 2)


def experiment_payload(**overrides):
    payload = {
        "n": 2,
        "basis": "fourier",
        "rho": [[0.5, 0.0], [0.0, 0.5]],
        "gamma": [[1.0, 0.0], [0.0, 0.0]],
        "policy": "argmax",
        "steps": 3,
    }
    payload.update(overrides)
    return payload


def test_parse_experiment_single_state_repeats():
    gamma0, signals, bell, policy = parse_experiment(experiment_payload())
    signals = list(signals)
    assert len(signals) == 3
    assert bell.n == 2
    assert isinstance(policy, ArgmaxPolicy)
    assert np.allclose(gamma0.matrix, np.diag([1.0, 0.0]))


def test_parse_experiment_state_sequence():
    seq = [
        {"matrix": [[1.0, 0.0], [0.0, 0.0]]},
        {"matrix": [[0.0, 0.0], [0.0, 1.0]]},
    ]
    _, signals, _, _ = parse_experiment(experiment_payload(rho=seq, steps=2))
    assert len(signals) == 2
    assert np.allclose(signals[1].matrix, np.diag([0.0, 1.0]))


def test_parse_experiment_pair_entry_sequence():
    # Real matrices in a sequence use [re, im] entries; depth tells the
    # parser this is two states, not one.
    seq = [
        [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]],
        [[[0.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]],
    ]
    _, signals, _, _ = parse_experiment(experiment_payload(rho=seq, steps=2))
    assert len(signals) == 2


def test_parse_experiment_step_mismatch_rejected():
    seq = [{"matrix": [[1.0, 0.0], [0.0, 0.0]]}]
    with pytest.raises(ValueError):
        parse_experiment(experiment_payload(rho=seq, steps=5))


def test_parse_experiment_policies():
    _, _, _, sample = parse_experiment(experiment_payload(policy="sample", seed=4))
    assert isinstance(sample, SamplePolicy) and sample.seed == 4
    _, _, _, fixed = parse_experiment(experiment_payload(policy={"fixed": [1, 0]}))
    assert isinstance(fixed, FixedPolicy) and (fixed.i, fixed.j) == (1, 0)
    with pytest.raises(ValueError):
        parse_experiment(experiment_payload(policy="nonsense"))


def test_parse_experiment_rejects_unknown_fields():
    with pytest.raises(ValueError):
        parse_experiment(experiment_payload(surprise=1))


def test_dump_json_is_canonical():
    text = dump_json({"b": 1, "a": [1.5, 2]})
    assert text == '{\n  "a": [\n    1.5,\n    2\n  ],\n  "b": 1\n}\n'


@pytest.mark.parametrize("value, shown", [
    (True, "True"),
    ([1.0, False], "False"),
    (float("nan"), "nan"),
    (float("inf"), "inf"),
    ([0.5, float("-inf")], "-inf"),
    # An integer beyond the float range is non-finite too.
    pytest.param(10**400, "expected a finite number, got 1000", id="int-beyond-float"),
    pytest.param([0.5, -(10**400)], "expected a finite number", id="pair-beyond-float"),
])
def test_json_to_complex_rejects_booleans_and_non_finite(value, shown):
    with pytest.raises(ValueError, match=shown):
        json_to_complex(value)


@pytest.mark.parametrize("overrides", [
    {"n": True},
    {"steps": True},
    {"seed": False, "policy": "sample"},
    {"policy": {"fixed": [True, 0]}},
])
def test_parse_experiment_integer_fields_reject_booleans(overrides):
    with pytest.raises(ValueError):
        parse_experiment(experiment_payload(**overrides))


def test_parse_value_batch_returns_the_given_fields():
    spec = {"dim": 3, "pairs": 4, "kraus_terms": 2, "identical_channels": True}
    assert parse_value_batch(spec) == spec
    assert parse_value_batch({}) == {}


@pytest.mark.parametrize("value", [1, "no", None])
def test_parse_value_batch_identical_channels_must_be_boolean(value, tmp_path, capsys):
    # The batch file is only parsed; `conjecture_batch` checks the flag.
    message = f"identical_channels must be a boolean, got {value!r}"
    assert parse_value_batch({"identical_channels": value}) == {"identical_channels": value}
    with pytest.raises(ValueError, match=message):
        conjecture_batch(2, 1, 0, identical_channels=value)
    path = tmp_path / "batch.json"
    path.write_text(json.dumps({"identical_channels": value}))
    assert main(["value", "--batch", str(path)]) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")


@pytest.mark.parametrize("rows", [[1.0, 2.0], [[1.0], 2.0], [None]])
def test_matrix_rows_must_be_arrays(rows):
    with pytest.raises(ValueError, match="matrix must be a non-empty array of rows"):
        json_to_matrix(rows)


PURE = [[1.0, 0.0], [0.0, 0.0]]
IDENTITY = [[1.0, 0.0], [0.0, 1.0]]
EXPERIMENT = experiment_payload()
# The reader of each JSON object an input file holds.
PARSERS = {
    "state": parse_state,
    "channel": parse_channel,
    "basis": lambda obj: parse_basis(obj, 2),
    "policy": lambda obj: parse_experiment(experiment_payload(policy=obj)),
    "experiment": parse_experiment,
    "batch": parse_value_batch,
}
# A state, basis or policy may also be given as a matrix or a name, so a
# value that is not an object gets that field's own message there. Every
# batch field is optional, so a batch file misses none.
WRAPPER_FLAWS = [
    ("state", "not-object", 7, "matrix must be a non-empty array of rows"),
    ("state", "unknown", {"matrix": PURE, "bogus": 1}, "unknown fields in state: ['bogus']"),
    ("state", "missing", {}, "state is missing 'matrix'"),
    ("channel", "not-object", [IDENTITY], "channel must be a JSON object"),
    ("channel", "unknown", {"kind": "unitary", "matrix": IDENTITY, "bogus": 1},
     "unknown fields in channel: ['bogus']"),
    ("channel", "missing", {"kind": "unitary"}, "channel is missing 'matrix'"),
    ("channel", "missing-kraus", {"kind": "kraus"}, "channel is missing 'kraus_ops'"),
    ("channel", "missing-P", {"kind": "stochastic"}, "channel is missing 'P'"),
    ("basis", "not-object", 7, "basis must be 'fourier', 'standard', or"),
    ("basis", "unknown", {"custom": IDENTITY, "bogus": 1}, "unknown fields in basis: ['bogus']"),
    ("basis", "missing", {}, "basis is missing 'custom'"),
    ("policy", "not-object", 7, "policy must be 'sample', 'argmax', or"),
    ("policy", "unknown", {"fixed": [0, 0], "bogus": 1}, "unknown fields in policy: ['bogus']"),
    ("policy", "missing", {}, "policy is missing 'fixed'"),
    ("experiment", "not-object", [EXPERIMENT], "experiment file must be a JSON object"),
    ("experiment", "unknown", {**EXPERIMENT, "bogus": 1},
     "unknown fields in experiment file: ['bogus']"),
    ("experiment", "missing", {k: v for k, v in EXPERIMENT.items() if k != "gamma"},
     "experiment file is missing 'gamma'"),
    ("batch", "not-object", [], "batch config must be a JSON object"),
    ("batch", "unknown", {"dim": 2, "bogus": 1}, "unknown fields in batch config: ['bogus']"),
]


@pytest.mark.parametrize("name, value, message", [
    pytest.param(name, value, message, id=f"{name}-{flaw}")
    for name, flaw, value, message in WRAPPER_FLAWS
])
def test_every_object_wrapper_names_its_flaw(name, value, message):
    with pytest.raises(ValueError) as info:
        PARSERS[name](value)
    assert message in str(info.value)


FIELD_NAMES = ["matrix", "custom", "kind", "kraus_ops", "P", "fixed", "n", "basis", "rho",
               "gamma", "policy", "seed", "steps", "dim", "pairs", "kraus_terms",
               "identical_channels"]
JSON_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-2, 3),
    st.sampled_from([10**400, -(10**400)]),
    st.floats(),
    st.sampled_from(FIELD_NAMES + ["fourier", "standard", "sample", "argmax",
                                   "ktau", "unitary", "kraus", "stochastic"]),
)
JSON_VALUES = st.recursive(
    JSON_SCALARS,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(
        st.sampled_from(FIELD_NAMES), inner, max_size=4),
    max_leaves=16,
)


@pytest.mark.parametrize("name", PARSERS)
@settings(max_examples=150, deadline=None)
@given(value=JSON_VALUES)
def test_parsers_reject_any_json_value_with_a_named_error(name, value):
    try:
        PARSERS[name](value)
    except (ValueError, DimensionMismatch):
        pass


@settings(max_examples=150, deadline=None)
@given(fields=st.fixed_dictionaries({key: JSON_VALUES for key in EXPERIMENT}))
def test_experiment_fields_reject_any_json_value_with_a_named_error(fields):
    # Every required field is present, so each field's own reader is reached.
    try:
        parse_experiment(fields)
    except (ValueError, DimensionMismatch):
        pass
