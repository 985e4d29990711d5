import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from infodyn.cli import main
from infodyn.exceptions import DimensionMismatch
from infodyn.hilbert import DensityOperator, random_density
from infodyn import jsonio
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
from infodyn.channels import identity_channel
from infodyn.metrics import ComplexityConfig, axiom_suite, chaos_degree, conjecture_batch
from infodyn.recognition import (
    ArgmaxPolicy,
    BellSystem,
    FixedPolicy,
    SamplePolicy,
    SignalBasis,
    recognize_sequence,
)

RNG = np.random.default_rng(13)


def test_complex_round_trip():
    z = 1.5 - 2.25j
    assert json_to_complex(matrix_to_json([[z]])[0][0]) == z
    assert json_to_complex(3.0) == 3.0 + 0j


def test_matrix_round_trip():
    m = RNG.normal(size=(3, 3)) + 1j * RNG.normal(size=(3, 3))
    assert np.array_equal(json_to_matrix(matrix_to_json(m)), m)


@pytest.mark.parametrize("matrix", [
    RNG.normal(size=(4, 4)) + 1j * RNG.normal(size=(4, 4)),
    (RNG.normal(size=(4, 4)) + 1j * RNG.normal(size=(4, 4))).T,
    np.array([[-0.0, 1.0], [2.0j, -0.0 - 0.0j]]),
    [[1, 2], [3, 4]],
    np.arange(3.0),
], ids=["complex", "transposed", "signed-zeros", "integers", "vector"])
def test_matrix_to_json_writes_each_entry_as_its_re_im_pair(matrix):
    # Oracle: the real and imaginary parts stacked on a last axis; the
    # written floats must have their bits, signed zeros included.
    m = np.asarray(matrix, dtype=complex)
    expected = np.stack((m.real, m.imag), axis=-1)
    written = matrix_to_json(matrix)
    assert written == expected.tolist()
    assert np.array_equal(np.signbit(np.array(written)), np.signbit(expected))


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
])
def test_json_to_complex_rejects_booleans(value, shown):
    with pytest.raises(ValueError, match=f"^expected a number or \\[re, im\\] pair, got .*{shown}"):
        json_to_complex(value)


# A non-finite number is read as it is, an integer beyond the float range
# as inf; the array rule of the matrix's constructor rejects it.
@pytest.mark.parametrize("value, expected", [
    (float("nan"), complex(float("nan"))),
    (float("inf"), complex(float("inf"))),
    ([0.5, float("-inf")], complex(0.5, float("-inf"))),
    (10**400, complex(float("inf"))),
    ([0.5, -(10**400)], complex(float("inf"))),
], ids=["nan", "inf", "-inf", "int-beyond-float", "pair-beyond-float"])
def test_json_to_complex_reads_a_non_finite_number_as_it_is(value, expected):
    z = json_to_complex(value)
    assert np.array([z]).view(float).tobytes() == np.array([expected]).view(float).tobytes()
    with pytest.raises(ValueError, match="^density operator has a non-finite entry$"):
        parse_state([[value]])


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


def per_entry_matrix(rows):
    """The per-entry rule alone, through `json_to_complex`: the oracle of `json_to_matrix`."""
    if not isinstance(rows, list) or not rows or not all(isinstance(row, list) for row in rows):
        raise ValueError("matrix must be a non-empty array of rows")
    data = [[json_to_complex(v) for v in row] for row in rows]
    if any(len(row) != len(data[0]) for row in data):
        raise ValueError("matrix rows have inconsistent lengths")
    return np.asarray(data, dtype=complex)


def assert_reads_as_oracle(rows):
    """`json_to_matrix(rows)` equals the oracle bit for bit, or raises its exact message."""
    try:
        want = per_entry_matrix(rows)
    except ValueError as exc:
        with pytest.raises(ValueError) as info:
            json_to_matrix(rows)
        assert str(info.value) == str(exc)
        return
    got = json_to_matrix(rows)
    assert got.dtype == want.dtype and got.shape == want.shape
    # Through the float parts' bytes, so that the sign of zero counts.
    assert got.view(float).tobytes() == want.view(float).tobytes()


# Values that numpy reads differently from the per-entry rule, or not at all.
NUMBERS = st.one_of(
    st.integers(-3, 3),
    st.floats(),
    st.sampled_from([-0.0, 0.0, 1.0, 2**53 + 1, 2**63, -(2**63) - 1, 2**64, 10**400,
                     -(10**400), float("nan"), float("inf"), float("-inf")]),
)
ODD_ENTRIES = st.sampled_from([True, False, "1.5", None, [1.0, 2.0, 3.0], [0.5], [], [True, 0.0],
                               [0.0, None], {"re": 1.0}])


@st.composite
def number_nests(draw):
    """A regular matrix of bare or [re, im] entries, with up to two flaws."""
    n, m = draw(st.integers(1, 4)), draw(st.integers(0, 4))
    pairs = draw(st.booleans())
    rows = [[[draw(NUMBERS), draw(NUMBERS)] if pairs else draw(NUMBERS) for _ in range(m)]
            for _ in range(n)]
    for _ in range(draw(st.integers(0, 2))):
        row = rows[draw(st.integers(0, n - 1))]
        flaw = draw(st.sampled_from(["odd", "form", "ragged"]))
        if flaw == "ragged" and (not row or draw(st.booleans())):
            row.append(draw(NUMBERS))
        elif flaw == "ragged":
            row.pop()
        elif row:
            k = draw(st.integers(0, len(row) - 1))
            if flaw == "odd":
                row[k] = draw(ODD_ENTRIES)
            elif isinstance(row[k], list):  # a bare entry among pairs
                row[k] = row[k][0] if row[k] else 0.5
            else:  # a pair among bare entries
                row[k] = [row[k], draw(NUMBERS)]
    return rows


@pytest.mark.parametrize("rows", [
    [[1, 0], [0, 1]],
    [[[1, 0], [0, -1]]],
    [[-0.0, 0.0], [0.0, -0.0]],
    [[[0.5, -0.0], [-0.0, 0.0]]],
    [[0.5, True]],
    [[[0.5, 0.0], [False, 0.0]]],
    [[[0.5, 0.0], [1.0, True]]],
    [[True, False]],
    [["1.5", 0.0]],
    [[None, 1.0]],
    [[0.5, 10**400]],
    [[[0.5, -(10**400)]]],
    [[2**63, 0]],
    [[2**63, 0.5]],
    [[2**53 + 1, 0.5]],
    [[float("nan"), 0.5]],
    [[[0.5, float("inf")]]],
    [[0.5, 0.5], [0.5]],
    [[[0.5, 0.0], 0.5]],
    [[[0.5, 0.0, 0.0]]],
    [[]],
    [[[]]],
], ids=["ints", "int-pairs", "negative-zero", "negative-zero-pairs", "bool", "bool-real-part",
        "bool-imaginary-part", "all-bool", "string", "none", "int-beyond-float",
        "pair-beyond-float", "uint64", "uint64-among-floats", "int-past-2**53", "nan", "inf",
        "ragged", "mixed-bare-and-pair", "three-element-pair", "empty-row", "empty-pair"])
def test_matrix_reads_as_the_per_entry_rule_on_named_nests(rows):
    assert_reads_as_oracle(rows)


@settings(max_examples=400, deadline=None)
@given(rows=number_nests())
def test_matrix_reads_as_the_per_entry_rule(rows):
    assert_reads_as_oracle(rows)


def test_array_first_read_takes_regular_numbers_and_defers_the_rest():
    # A NaN or an infinity is a float, so the array read takes it too.
    for rows in ([[1, 0], [0, 1]], [[[0.5, -0.0]]], [[float("nan"), float("inf")]]):
        assert jsonio._numbers(rows, 2) is not None
    for rows in ([[0.5, True]], [[2**63]], [[0.5, 10**400]], [["1.5"]],
                 [[0.5], [0.5, 0.5]], [[[0.5, 0.0, 0.0]]]):
        assert jsonio._numbers(rows, 2) is None


def listed_signals(rho):
    """The signals that `parse_experiment` reads from a list `rho` of matrices or wrappers."""
    n = len(rho[0]["matrix"] if isinstance(rho[0], dict) else rho[0])
    return parse_experiment(experiment_payload(n=n, gamma=(np.eye(n) / n).tolist(), rho=rho,
                                               steps=len(rho)))[1]


@pytest.mark.parametrize("n, count", [(1, 1), (2, 5), (3, 40), (8, 3), (9, 2)])
@pytest.mark.parametrize("wrapped", [False, True], ids=["bare", "wrapped"])
def test_listed_signals_are_read_as_one_stack(n, count, wrapped, monkeypatch):
    rng = np.random.default_rng([n, count])
    rho = [matrix_to_json(random_density(n, rng).matrix) for _ in range(count)]
    if wrapped:
        rho = [{"matrix": m} for m in rho]
    stacked, shapes = jsonio._density_operators, []
    monkeypatch.setattr(jsonio, "_density_operators",
                        lambda m: shapes.append(m.shape) or stacked(m))
    signals = listed_signals(rho)
    assert shapes == [(count, n, n)]
    for signal, obj in zip(signals, rho, strict=True):
        alone = parse_state(obj)
        for name in DensityOperator.__slots__:
            assert np.array_equal(getattr(signal, name), getattr(alone, name))
            assert not getattr(signal, name).flags.writeable
        with pytest.raises(ValueError):
            signal.matrix[0, 0] = 0.0


GOOD = [[[0.5, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.5, 0.0]]]


@pytest.mark.parametrize("bad", [
    [[[0.6, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.6, 0.0]]],
    [[[0.5, 0.0], [0.1, 0.0]], [[0.0, 0.0], [0.5, 0.0]]],
    [[[1.5, 0.0], [0.0, 0.0]], [[0.0, 0.0], [-0.5, 0.0]]],
    [[[0.5, 0.0], [True, 0.0]], [[0.0, 0.0], [0.5, 0.0]]],
    [[[1.0, 0.0], [0.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0], [0.0, 0.0]]],
    [[[0.5, 0.0], [0.0, 0.0]], [[0.0, 0.0]]],
    {"matrix": GOOD, "bogus": 1},
    {"matrix": GOOD, "bogus": 1, "other": 2},
], ids=["trace", "self-adjoint", "psd", "boolean", "non-square", "ragged", "unknown-key",
        "unknown-keys"])
@pytest.mark.parametrize("k", [0, 2, 4])
def test_a_bad_listed_signal_raises_its_own_message(bad, k):
    rho = [GOOD] * 5
    rho[k] = bad
    with pytest.raises(ValueError) as alone:
        parse_state(bad)
    with pytest.raises(ValueError) as listed:
        listed_signals(rho)
    assert type(listed.value) is type(alone.value)
    assert str(listed.value) == str(alone.value)


@pytest.mark.parametrize("mild, worse", [
    ([[[0.6, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.6, 0.0]]],
     [[[0.9, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.9, 0.0]]]),
    ([[[0.5, 0.0], [0.1, 0.0]], [[0.0, 0.0], [0.5, 0.0]]],
     [[[0.5, 0.0], [0.3, 0.0]], [[0.0, 0.0], [0.5, 0.0]]]),
    ([[[1.5, 0.0], [0.0, 0.0]], [[0.0, 0.0], [-0.5, 0.0]]],
     [[[2.5, 0.0], [0.0, 0.0]], [[0.0, 0.0], [-1.5, 0.0]]]),
], ids=["trace", "self-adjoint", "psd"])
def test_the_first_of_two_bad_listed_signals_is_reported_not_the_worst(mild, worse):
    # The stacked check names the worst matrix; the list must name the first.
    with pytest.raises(ValueError) as alone:
        parse_state(mild)
    with pytest.raises(ValueError) as listed:
        listed_signals([GOOD, mild, GOOD, worse])
    assert str(listed.value) == str(alone.value)


def test_an_unknown_wrapper_key_after_a_bad_signal_reports_the_earlier_fault():
    rho = [GOOD, [[[0.5, 0.0], [None, 0.0]], GOOD[1]], {"matrix": GOOD, "bogus": 1}]
    with pytest.raises(ValueError) as info:
        listed_signals(rho)
    assert str(info.value) == "expected a number or [re, im] pair, got [None, 0.0]"


# Each writer's text of inputs whose integer arguments are made by `k`.
INTEGER_WRITERS = {
    "chaos-degree": lambda k: jsonio.chaos_degree_json(
        chaos_degree(np.diag([0.75, 0.25]), identity_channel(2), ComplexityConfig(k(3), k(1))), math.e),
    "axioms": lambda k: jsonio.axioms_json(axiom_suite(k(2), k(2), k(0))),
    "value": lambda k: jsonio.value_json(*conjecture_batch(k(2), k(3), k(1)), k(2), k(1)),
    "steps": lambda k: jsonio.step_lines(list(recognize_sequence(
        np.eye(2) / 2, [np.diag([0.75, 0.25])] * 2, BellSystem(SignalBasis.fourier(2)),
        FixedPolicy(k(0), k(1))))),
}


@pytest.mark.parametrize("integer", [np.int64, np.int32, np.uint8])
@pytest.mark.parametrize("writer", sorted(INTEGER_WRITERS))
def test_a_writer_gives_the_same_bytes_for_numpy_integer_inputs(writer, integer):
    # The integer rule returns a Python int, which the settings and results store.
    write = INTEGER_WRITERS[writer]
    assert write(integer) == write(int)
