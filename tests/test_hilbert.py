import fractions
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from infodyn import channels, classical, jsonio, metrics, recognition
from infodyn.exceptions import DimensionMismatch
from infodyn.hilbert import (
    EIGENVALUE_FLOOR,
    DensityOperator,
    SchattenDecomposition,
    _brief,
    _check_real,
    _density_operators,
    _gram_spectra,
    as_density,
    as_vector,
    diag_embedding,
    mult_operator,
    partial_trace,
    random_density,
    random_state,
    random_unitary,
    relative_entropy,
    shift_unitary,
    tensor,
    von_neumann_entropy,
)

RNG = np.random.default_rng(1234)

LN2 = float(np.log(2))
# -0.25 ln 0.25 - 0.75 ln 0.75, high-precision scalar evaluation
H_QUARTER = 0.5623351446188083


def _experiment(**fields):
    return jsonio.parse_experiment({
        "n": 2, "basis": "fourier", "rho": [[0.5, 0.0], [0.0, 0.5]],
        "gamma": [[1.0, 0.0], [0.0, 0.0]], "policy": "argmax", **fields,
    })


_SHORT_ORBIT = classical.OrbitConfig(transient=0, samples=10)
# rho, gamma and the Bell system of an outcome-indexed recognition call at n = 2.
_OUTCOME = (np.eye(2) / 2, np.eye(2) / 2, recognition.BellSystem(recognition.SignalBasis.fourier(2)))
# Every integer input the package reads: site -> (field, lower bound, the
# name of its cap or None, a call that reads the value).
INTEGER_SITES = {
    "ComplexityConfig.restarts": ("restarts", 1, "MAX_RESTARTS",
                                  lambda v: metrics.ComplexityConfig(restarts=v)),
    "ComplexityConfig.seed": ("seed", 0, None, lambda v: metrics.ComplexityConfig(seed=v)),
    "conjecture_batch.dim": ("dim", 2, "MAX_VALUE_DIM", lambda v: metrics.conjecture_batch(v, 1, 0)),
    "conjecture_batch.pairs": ("pairs", 1, "MAX_VALUE_PAIRS",
                               lambda v: metrics.conjecture_batch(2, v, 0)),
    "conjecture_batch.kraus_terms": ("kraus_terms", 1, "MAX_KRAUS_TERMS",
                                     lambda v: metrics.conjecture_batch(2, 1, 0, kraus_terms=v)),
    "conjecture_batch.seed": ("seed", 0, None, lambda v: metrics.conjecture_batch(2, 1, v)),
    "axiom_suite.dim": ("dim", 2, "MAX_AXIOM_DIM", lambda v: metrics.axiom_suite(v, 1, 0)),
    "axiom_suite.trials": ("trials", 1, "MAX_AXIOM_TRIALS", lambda v: metrics.axiom_suite(2, v, 0)),
    "axiom_suite.seed": ("seed", 0, None, lambda v: metrics.axiom_suite(2, 1, v)),
    "OrbitConfig.samples": ("samples", 1, None, lambda v: classical.OrbitConfig(samples=v)),
    "OrbitConfig.transient": ("transient", 0, None, lambda v: classical.OrbitConfig(transient=v)),
    "Partition.bins": ("bins", 2, None, lambda v: classical.Partition(((0.0, 1.0),), v)),
    "sweep.window": ("window", 1, None, lambda v: classical.sweep(
        classical.logistic_map(), 3.5, 3.6, 0.1, _SHORT_ORBIT, window=v)),
    "sweep.workers": ("workers", 1, "MAX_WORKERS", lambda v: classical.sweep(
        classical.logistic_map(), 3.5, 3.6, 0.1, _SHORT_ORBIT, workers=v)),
    "sweep.samples": ("samples", 2, None, lambda v: classical.sweep(
        classical.logistic_map(), 3.5, 3.6, 0.1, classical.OrbitConfig(transient=0, samples=v))),
    "random_kraus_channel.terms": ("terms", 1, None, lambda v: channels.random_kraus_channel(
        2, v, np.random.default_rng(0))),
    "SamplePolicy.seed": ("seed", 0, None, lambda v: recognition.SamplePolicy(seed=v)),
    "experiment.n": ("n", 1, None, lambda v: _experiment(n=v)),
    "experiment.steps": ("steps", 0, "MAX_RECOGNITION_STEPS", lambda v: _experiment(steps=v)),
    "experiment.seed": ("seed", 0, None, lambda v: _experiment(seed=v)),
    "FixedPolicy.i": ("i", 0, None, lambda v: recognition.FixedPolicy(v, 0)),
    "FixedPolicy.j": ("j", 0, None, lambda v: recognition.FixedPolicy(0, v)),
    "random_density.rank": ("rank", 1, None, lambda v: random_density(3, np.random.default_rng(0), v)),
    "choi_matrix.dim": ("dim", 1, None, lambda v: channels.choi_matrix(lambda m: m, v)),
    "shift_unitary.k": ("k", 0, None, lambda v: shift_unitary(v, 3)),
    "shift_unitary.n": ("n", 1, None, lambda v: shift_unitary(0, v)),
    "SignalBasis.fourier.n": ("n", 1, None, recognition.SignalBasis.fourier),
    "SignalBasis.standard.n": ("n", 1, None, recognition.SignalBasis.standard),
    "outcome_probability.i": ("i", 0, None, lambda v: recognition.outcome_probability(v, 0, *_OUTCOME)),
    "outcome_probability.j": ("j", 0, None, lambda v: recognition.outcome_probability(0, v, *_OUTCOME)),
    "update_direct.i": ("i", 0, None, lambda v: recognition.update_direct(v, 1, *_OUTCOME)),
    "update_direct.j": ("j", 0, None, lambda v: recognition.update_direct(0, v, *_OUTCOME)),
    "BellSystem.vector.i": ("i", 0, None, lambda v: _OUTCOME[2].vector(v, 0)),
    "BellSystem.vector.j": ("j", 0, None, lambda v: _OUTCOME[2].vector(0, v)),
    "partial_trace.dims": ("dims", 1, None, lambda v: partial_trace(np.eye(4) / 4, (v, 2), [0])),
    "partial_trace.trace_out": ("trace_out", 0, None,
                                lambda v: partial_trace(np.eye(4) / 4, (2, 2), [v])),
    "random_unitary.n": ("n", 1, None, lambda v: random_unitary(v, np.random.default_rng(0))),
    "random_state.n": ("n", 1, None, lambda v: random_state(v, np.random.default_rng(0))),
    "random_density.n": ("n", 1, None, lambda v: random_density(v, np.random.default_rng(0))),
    "random_kraus_channel.n": ("n", 1, None, lambda v: channels.random_kraus_channel(
        v, 2, np.random.default_rng(0))),
    "depolarizing_channel.n": ("n", 1, None, channels.depolarizing_channel),
    "identity_channel.n": ("n", 1, None, channels.identity_channel),
    "diag_embedding.n": ("n", 1, None, diag_embedding),
    "DensityOperator.maximally_mixed.n": ("n", 1, None, DensityOperator.maximally_mixed),
}
CAPS = {name: value for module in (classical, jsonio, metrics)
        for name, value in vars(module).items() if name.startswith("MAX_")}
# More digits than `repr` converts (4300), with the echo of its first 80.
HUGE = 10**5000
HUGE_ECHO = "1" + "0" * 79 + "..."


def _integer_cases():
    for site, (field, low, cap, call) in INTEGER_SITES.items():
        for label, value, echo in [("bool", True, "True"), ("float", 2.5, "2.5"), ("str", "3", "'3'"),
                                   ("low", low - 1, repr(low - 1)), ("huge-low", -HUGE, "-1" + "0" * 78 + "...")]:
            yield pytest.param(field, call, value, f"{field} must be ", echo, id=f"{site}-{label}")
        if cap is not None:
            for label, value, echo in [("cap", CAPS[cap] + 1, repr(CAPS[cap] + 1)),
                                       ("huge-cap", HUGE, HUGE_ECHO)]:
                yield pytest.param(field, call, value, f"{field}={echo} exceeds the limit "
                                   f"{cap}={CAPS[cap]}", echo, id=f"{site}-{label}")


@pytest.mark.parametrize("field, call, value, message, echo", _integer_cases())
def test_integer_inputs_follow_one_rule(field, call, value, message, echo):
    with pytest.raises(ValueError) as exc:
        call(value)
    text = str(exc.value)
    if "exceeds the limit" in message:
        assert text == message
    else:
        assert text.startswith(message) and text.endswith(f", got {echo}")


_LOGISTIC = classical.logistic_map()
# Every real input the package reads: site -> (field, lower bound or None,
# upper bound or None, a call that reads the value).
REAL_SITES = {
    "sweep.start": ("start", None, None, lambda v: classical.sweep(_LOGISTIC, v, 3.6, 0.1, _SHORT_ORBIT)),
    "sweep.stop": ("stop", None, None, lambda v: classical.sweep(_LOGISTIC, 3.5, v, 0.1, _SHORT_ORBIT)),
    "sweep.step": ("step", None, None, lambda v: classical.sweep(_LOGISTIC, 3.5, 3.6, v, _SHORT_ORBIT)),
    "sweep.eps_zero": ("eps_zero", 0.0, None, lambda v: classical.sweep(
        _LOGISTIC, 3.5, 3.6, 0.1, _SHORT_ORBIT, eps_zero=v)),
    "sweep.eps_const": ("eps_const", 0.0, None, lambda v: classical.sweep(
        _LOGISTIC, 3.5, 3.6, 0.1, _SHORT_ORBIT, eps_const=v)),
    "classify_dynamics.eps_zero": ("eps_zero", 0.0, None,
                                   lambda v: metrics.classify_dynamics([0.0], eps_zero=v)),
    "classify_dynamics.eps_const": ("eps_const", 0.0, None,
                                    lambda v: metrics.classify_dynamics([0.0], eps_const=v)),
    "depolarizing_channel.p": ("p", 0.0, 1.0, lambda v: channels.depolarizing_channel(2, v)),
    "OrbitConfig.x0": ("x0", None, None, lambda v: classical.OrbitConfig(x0=(v,))),
    "OrbitConfig.param": ("param", None, None, lambda v: classical.OrbitConfig(param=v)),
    "Partition.box": ("box", None, None, lambda v: classical.Partition(((0.0, v),), 10)),
    "MapSystem.box": ("box", None, None, lambda v: replace(_LOGISTIC, box=((v, 1.0),))),
    "MapSystem.default_x0": ("default_x0", None, None, lambda v: replace(_LOGISTIC, default_x0=(v,))),
    "MapSystem.default_param": ("default_param", None, None,
                                lambda v: replace(_LOGISTIC, default_param=v)),
    "jsonio.chaos_degree_json.log_base": ("log_base", None, None, lambda v: jsonio.chaos_degree_json(
        metrics.chaos_degree(np.diag([0.7, 0.3]), channels.identity_channel(2)), v)),
}


def _real_cases():
    for site, (field, low, high, call) in REAL_SITES.items():
        cases = [("bool", True), ("nan", np.nan), ("inf", np.inf), ("-inf", -np.inf), ("str", "0.5")]
        if low is not None:
            cases.append(("low", low - 0.5))
        if high is not None:
            cases.append(("high", high + 0.5))
        for label, value in cases:
            yield pytest.param(field, call, value, id=f"{site}-{label}")


@pytest.mark.parametrize("field, call, value", _real_cases())
def test_real_inputs_follow_one_rule(field, call, value):
    with pytest.raises(ValueError) as exc:
        call(value)
    text = str(exc.value)
    assert text.startswith(f"{field} must be a finite real number") and text.endswith(f", got {value!r}")


def test_real_rule_takes_numpy_reals_and_integers_as_floats():
    for value in [np.float32(0.25), np.int64(2), 3, fractions.Fraction(1, 4)]:
        number = _check_real("x", value)
        assert type(number) is float and number == value
    assert _check_real("p", 1, 0.0, 1.0) == 1.0
    with pytest.raises(ValueError, match="x must be a finite real number, got 1000"):
        _check_real("x", 10**400)


@given(value=st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=90),
    lambda inner: st.lists(inner, max_size=6) | st.dictionaries(st.text(max_size=3), inner, max_size=4)
    | st.tuples(inner) | st.tuples(inner, inner),
    max_leaves=20))
@settings(max_examples=200, deadline=None)
def test_an_echoed_value_is_its_repr_when_that_fits_and_is_cut_otherwise(value):
    full, shown = repr(value), _brief(value)
    if len(full) <= 80:
        assert shown == full
    else:
        assert len(shown) == 83 and shown.endswith("...")
        # A long string is rendered from its first characters, whose repr
        # may quote them differently from the whole string's.
        if not {"'", '"'} & set(full):
            assert shown[:80] == full[:80]


def test_an_echoed_value_is_cut_before_its_repr_is_built():
    deep = [0.0]
    for _ in range(5000):  # deeper than `repr` itself could go
        deep = [deep]
    assert _brief(deep) == "[" * 80 + "..."
    assert _brief([0] * 10**6, 10) == "[0, 0, 0, ..."
    assert _brief({"a": "x" * 10**6}, 12) == "{'a': 'xxxxx..."
    # An integer is cut from its leading digits, however many it has.
    assert _brief(HUGE) == HUGE_ECHO
    assert _brief(-HUGE, 10) == "-100000000..."
    assert _brief([7 * HUGE], 12) == "[70000000000..."
    assert _brief((HUGE, 0), 5) == "(1000..."
    odd = 7**6000 + 12345
    digits, power = 0, 1
    while power <= odd:
        digits, power = digits + 1, power * 10
    assert _brief(odd) == repr(odd // 10 ** (digits - 80)) + "..."


@pytest.mark.parametrize("call, error, message", [
    (lambda: as_vector(np.eye(2)), ValueError, "expected a vector, got shape (2, 2)"),
    (lambda: shift_unitary(3, 3), ValueError, "shift index must satisfy 0 <= k < 3, got 3"),
    (lambda: tensor(np.eye(2)), ValueError, "tensor needs at least two operators"),
    (lambda: tensor(np.eye(2), [1.0, 0.0]), ValueError, "tensor takes matrices, got shape (2,)"),
    (lambda: partial_trace(np.eye(4) / 4, (2, 3), [0]), DimensionMismatch,
     "matrix shape (4, 4) does not factor as (2, 3)"),
    (lambda: partial_trace(np.eye(4) / 4, (2, 2), [2]), ValueError,
     "subsystem index out of range for 2 factors"),
    (lambda: DensityOperator.from_pure([0, 0]), ValueError, "cannot normalize the zero vector"),
    (lambda: relative_entropy(np.eye(2) / 2, np.eye(3) / 3), DimensionMismatch, "dimensions differ: 2 vs 3"),
    (lambda: random_density(3, np.random.default_rng(0), rank=4), ValueError,
     "rank must be in [1, 3], got 4"),
    (lambda: partial_trace(np.eye(4) / 4, (HUGE, 2), [0]), DimensionMismatch,
     f"matrix shape (4, 4) does not factor as ({HUGE_ECHO[:79]}..."),
    (lambda: shift_unitary(HUGE, 3), ValueError, f"shift index must satisfy 0 <= k < 3, got {HUGE_ECHO}"),
    (lambda: random_density(3, np.random.default_rng(0), rank=HUGE), ValueError,
     f"rank must be in [1, 3], got {HUGE_ECHO}"),
], ids=["as-vector", "shift-index", "tensor-one", "tensor-vector",
        "partial-trace-shape", "partial-trace-index", "from-pure-zero", "relative-entropy-dims",
        "random-density-rank", "partial-trace-shape-huge", "shift-index-huge",
        "random-density-rank-huge"])
def test_hilbert_input_errors_name_the_problem(call, error, message):
    with pytest.raises(error) as err:
        call()
    assert str(err.value) == message


def test_mult_operator_constant_one_is_identity():
    assert np.array_equal(mult_operator(np.ones(4)), np.eye(4))


def test_mult_operator_unimodular_is_unitary():
    g = np.exp(1j * RNG.uniform(0, 2 * np.pi, size=6))
    m = mult_operator(g)
    assert np.allclose(m @ m.conj().T, np.eye(6), atol=1e-12)


def test_mult_operator_pointwise():
    out = mult_operator([2, 0]) @ np.array([1.0, 1.0])
    assert np.allclose(out, [2, 0])


def test_shift_unitary_identity_at_zero():
    assert np.array_equal(shift_unitary(0, 3), np.eye(3))


def test_shift_unitary_rotates_coordinates():
    f = np.array([1.0, 2.0, 3.0])
    # (U_k f)(m) = f(k + m mod n)
    assert np.allclose(shift_unitary(1, 3) @ f, [2, 3, 1])


@pytest.mark.parametrize("n", range(2, 9))
def test_shift_unitary_is_unitary(n):
    for k in range(n):
        u = shift_unitary(k, n)
        assert np.allclose(u @ u.conj().T, np.eye(n), atol=1e-14)


def test_diag_embedding_supports_diagonal():
    j = diag_embedding(2)
    out = j @ np.array([3.0, 5.0])
    expect = np.zeros(4)
    expect[0], expect[3] = 3.0, 5.0
    assert np.allclose(out, expect)


def test_diag_embedding_is_isometry():
    j = diag_embedding(4)
    f = random_state(4, RNG)
    assert np.linalg.norm(j @ f) == pytest.approx(np.linalg.norm(f))
    assert np.allclose(j.conj().T @ (j @ f), f)


def test_tensor_identities():
    assert np.array_equal(tensor(np.eye(2), np.eye(3)), np.eye(6))


def test_tensor_adjoint_and_trace_factorize():
    a = RNG.normal(size=(3, 3)) + 1j * RNG.normal(size=(3, 3))
    b = RNG.normal(size=(2, 2)) + 1j * RNG.normal(size=(2, 2))
    assert np.allclose(tensor(a, b).conj().T, tensor(a.conj().T, b.conj().T))
    assert np.trace(tensor(a, b)) == pytest.approx(np.trace(a) * np.trace(b))


def test_partial_trace_drops_unit_trace_factor():
    rho = random_density(2, RNG).matrix
    gamma = random_density(3, RNG).matrix
    assert np.allclose(partial_trace(tensor(rho, gamma), (2, 3), (0,)), gamma, atol=1e-12)


def test_partial_trace_two_factors():
    rho = random_density(2, RNG).matrix
    gamma = random_density(2, RNG).matrix
    sigma = random_density(3, RNG).matrix
    out = partial_trace(tensor(rho, gamma, sigma), (2, 2, 3), (0, 1))
    assert np.allclose(out, sigma, atol=1e-12)


def test_tensor_is_numpy_kron_of_matrices_bit_for_bit():
    rng = np.random.default_rng(3)
    a, b, c = (rng.normal(size=shape) for shape in [(2, 3), (1, 2), (3, 3)])
    c = c + 1j * rng.normal(size=(3, 3))
    assert np.array_equal(tensor(a, b, c), np.kron(np.kron(a, b), c))


def test_density_operator_spectral_orders_descending():
    rho = DensityOperator(np.diag([0.25, 0.75]))
    assert np.allclose(rho.eigenvalues, [0.75, 0.25])
    dec = rho.spectral()
    assert np.allclose((dec.vectors * dec.weights) @ dec.vectors.conj().T, rho.matrix, atol=1e-12)
    assert np.allclose(np.abs(dec.vectors[:, 0]) ** 2, [0.0, 1.0], atol=1e-12)


def test_density_operator_flags_degenerate():
    assert DensityOperator.maximally_mixed(2).degenerate
    assert not DensityOperator(np.diag([0.75, 0.25])).degenerate


def test_density_operator_rejects_bad_trace():
    with pytest.raises(ValueError):
        DensityOperator(np.diag([0.7, 0.7]))


def test_density_operator_rejects_nonhermitian():
    with pytest.raises(ValueError):
        DensityOperator(np.array([[0.5, 0.4], [0.0, 0.5]]))


def test_density_operator_rejects_negative():
    with pytest.raises(ValueError):
        DensityOperator(np.diag([1.5, -0.5]))


def test_density_operator_is_immutable():
    rho = DensityOperator.maximally_mixed(2)
    with pytest.raises(AttributeError):
        rho.n = 3
    assert not rho.matrix.flags.writeable


def test_schatten_decomposition_is_immutable_and_compares_by_identity():
    # As a frozen dataclass with array fields it could neither compare nor hash.
    weights, vectors = np.array([0.5, 0.5]), np.eye(2, dtype=complex)
    a, b = SchattenDecomposition(weights, vectors), SchattenDecomposition(weights, vectors)
    assert a == a and a != b
    assert len({a, b, a}) == 2
    assert a.weights is not weights and a.vectors is not vectors
    with pytest.raises(AttributeError, match="^SchattenDecomposition is immutable$"):
        a.weights = weights
    # The decomposition a degenerate state's search reports holds its own, read-only vectors.
    report = metrics.chaos_degree(np.eye(2) / 2, channels.identity_channel(2),
                                  metrics.ComplexityConfig(restarts=2, seed=0))
    for dec in (a, report.decomposition, DensityOperator.maximally_mixed(2).spectral()):
        assert not dec.weights.flags.writeable and not dec.vectors.flags.writeable


def test_density_operators_of_a_stack_have_the_bits_of_each_alone():
    stack = np.array([random_density(3, RNG).matrix for _ in range(4)])
    operators = _density_operators(stack)
    assert len(operators) == 4
    for rho, m in zip(operators, stack):
        alone = DensityOperator(m)
        for name in DensityOperator.__slots__:
            assert np.array_equal(getattr(rho, name), getattr(alone, name))
            assert not getattr(rho, name).flags.writeable
        with pytest.raises(AttributeError):
            rho.n = 3


@pytest.mark.parametrize("stack", [
    np.zeros((2, 2, 3)),
    np.eye(2) / 2,
    np.array([np.eye(2) / 2, np.diag([1.5, -0.5])]),
    np.array([np.eye(2) / 2, np.diag([np.nan, 0.5])]),
], ids=["non-square", "one-matrix", "not-psd", "nan"])
def test_density_operators_reject_a_stack_with_a_bad_matrix(stack):
    with pytest.raises(ValueError):
        _density_operators(stack)


def test_unitary_conjugation_preserves_spectrum():
    rho = random_density(4, RNG)
    u = random_unitary(4, RNG)
    rotated = DensityOperator(u @ rho.matrix @ u.conj().T)
    assert np.allclose(rotated.eigenvalues, rho.eigenvalues, atol=1e-10)


def test_spectral_decompose_accepts_bare_matrix():
    dec = as_density(np.diag([0.75, 0.25])).spectral()
    assert np.allclose(dec.weights, [0.75, 0.25])


def test_entropy_pure_state_is_zero():
    val = von_neumann_entropy(DensityOperator.from_pure([1, 0, 0]))
    assert val == 0.0
    # exact positive zero, not -0.0
    assert np.copysign(1.0, val) == 1.0


def test_entropy_maximally_mixed():
    for n in (2, 3, 5):
        assert von_neumann_entropy(DensityOperator.maximally_mixed(n)) == pytest.approx(np.log(n))


def test_entropy_quarter_spectrum():
    assert von_neumann_entropy(np.diag([0.25, 0.75])) == pytest.approx(H_QUARTER, abs=1e-12)


def test_relative_entropy_self_is_zero():
    rho = random_density(3, RNG)
    assert relative_entropy(rho, rho) == pytest.approx(0, abs=1e-10)


def test_relative_entropy_pure_vs_mixed():
    assert relative_entropy(np.diag([1.0, 0.0]), np.diag([0.5, 0.5])) == pytest.approx(LN2)


def test_relative_entropy_support_violation_is_infinite():
    assert relative_entropy(np.diag([0.5, 0.5]), np.diag([1.0, 0.0])) == np.inf


def test_relative_entropy_nonnegative_random():
    for _ in range(20):
        a, b = random_density(3, RNG), random_density(3, RNG)
        assert relative_entropy(a, b) >= -1e-10


def test_random_unitary_columns_orthonormal():
    u = random_unitary(5, RNG)
    assert np.allclose(u.conj().T @ u, np.eye(5), atol=1e-12)


def test_random_density_rank_control():
    rho = random_density(4, RNG, rank=2)
    assert np.sum(rho.eigenvalues > 1e-12) == 2


@settings(deadline=None, max_examples=25)
@given(st.integers(min_value=2, max_value=6), st.integers(min_value=0, max_value=10**6))
def test_density_operator_spectrum_is_distribution(n, seed):
    rho = random_density(n, np.random.default_rng(seed))
    lam = rho.eigenvalues
    assert np.all(lam >= 0)
    assert np.sum(lam) == pytest.approx(1, abs=1e-10)
    assert np.all(np.diff(lam) <= 1e-12)


@settings(deadline=None, max_examples=25)
@given(st.integers(min_value=2, max_value=5), st.integers(min_value=0, max_value=10**6))
def test_entropy_bounds(n, seed):
    rho = random_density(n, np.random.default_rng(seed))
    s = von_neumann_entropy(rho)
    assert -1e-12 <= s <= np.log(n) + 1e-12


@settings(deadline=None, max_examples=20)
@given(st.integers(min_value=0, max_value=10**6))
def test_relative_entropy_joint_convexity_corner(seed):
    # S(rho || sigma) >= (1/2)||rho - sigma||_1^2 (Pinsker) gives a
    # cheap independent lower bound to check against.
    rng = np.random.default_rng(seed)
    a, b = random_density(3, rng), random_density(3, rng)
    tnorm = np.sum(np.abs(np.linalg.eigvalsh(a.matrix - b.matrix)))
    assert relative_entropy(a, b) >= 0.5 * tnorm**2 - 1e-9


def test_kron_equals_numpy_kron_bit_for_bit():
    # One pair of states, then a stack of 2 x 2 states with a stack of 3 x 3 ones.
    from infodyn.hilbert import _kron

    rng = np.random.default_rng(5)
    a, b = random_density(2, rng).matrix, random_density(3, rng).matrix
    assert np.array_equal(_kron(a, b), np.kron(a, b))
    rhos = np.stack([random_density(2, rng).matrix for _ in range(4)])
    sigmas = np.stack([random_density(3, rng).matrix for _ in range(4)])
    assert np.array_equal(_kron(rhos, sigmas), np.stack([np.kron(r, s) for r, s in zip(rhos, sigmas)]))


def test_density_spectra_of_a_stack_match_each_density_operator():
    # One validation helper serves DensityOperator and stacked callers;
    # over a stack it must give each matrix's own spectral data.
    from infodyn.hilbert import _density_spectra

    rng = np.random.default_rng(31)
    mats = [random_density(4, rng).matrix for _ in range(5)]
    mats.append(np.diag([0.5, 0.5, 0.0, 0.0]).astype(complex))
    _, lam, vec = _density_spectra(np.stack(mats))
    for m, l, v in zip(mats, lam, vec):
        rho = DensityOperator(m)
        assert np.array_equal(l, rho.eigenvalues)
        assert np.array_equal(v, rho.eigenvectors)


@pytest.mark.parametrize("bad, message", [
    (np.diag([1.2, -0.2]), "not positive semidefinite"),
    (np.diag([0.7, 0.2]), r"trace must be 1, got 0\.8999"),
    (np.array([[0.5, 0.1], [0.0, 0.5]]), "not self-adjoint"),
    (np.array([[np.nan, 0.0], [0.0, 0.5]]), "non-finite"),
])
def test_density_spectra_refuses_any_bad_matrix_of_a_stack(bad, message):
    # One matrix takes its own branch; alone or in a stack, a bad matrix
    # raises the same message.
    from infodyn.hilbert import _density_spectra

    good = np.diag([0.5, 0.5]).astype(complex)
    with pytest.raises(ValueError, match=message) as stacked:
        _density_spectra(np.stack([good, bad.astype(complex), good]))
    with pytest.raises(ValueError, match=message) as alone:
        _density_spectra(bad.astype(complex))
    assert str(alone.value) == str(stacked.value)


def _agreement_inputs():
    rng = np.random.default_rng(36)
    yield from (random_density(n, rng).matrix for n in range(1, 9))
    yield from (np.outer(v, v.conj()) for v in (random_state(n, rng) for n in (2, 3, 5, 8)))
    yield np.diag([0.5, 0.0, 0.25, 0.0, 0.25]).astype(complex)
    yield np.diag([1.0, -0.0]).astype(complex)
    yield np.diag([0.6 - EIGENVALUE_FLOOR / 2, 0.4, EIGENVALUE_FLOOR / 2]).astype(complex)


@pytest.mark.parametrize("m", list(_agreement_inputs()),
                         ids=[*(f"full-rank-{n}" for n in range(1, 9)),
                              *(f"pure-{n}" for n in (2, 3, 5, 8)),
                              "zeros", "negative-zero", "clamped"])
def test_one_matrix_and_a_stack_of_one_give_the_same_bits(m):
    # A DensityOperator takes the one-matrix branch of `_density_spectra`,
    # a stack its stacked path: every slot must agree bit for bit, and every
    # eigenvalue in its sign, whether it was clipped or not.
    alone, stacked = DensityOperator(m), _density_operators(m[None])[0]
    for name in DensityOperator.__slots__:
        assert np.array_equal(getattr(alone, name), getattr(stacked, name)), name
    assert np.array_equal(np.signbit(alone.eigenvalues), np.signbit(stacked.eigenvalues))


def _kraus_rows(rng, shape, kind="random"):
    """Kraus-vector rows of `shape` (..., r, n): random, of a pure image (rank 1), or with a zero row."""
    w = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    if kind == "pure":
        w = w[..., :1, :] * (rng.normal(size=shape[:-1]) + 1j * rng.normal(size=shape[:-1]))[..., None]
    elif kind == "zero-row" and shape[-2]:
        w[..., -1, :] = 0.0
    return w


def _explicit_gram_spectra(w):
    """The reference: `np.linalg.eigvalsh` of the explicit smaller Gram matrix, for any side."""
    if w.shape[-2] <= w.shape[-1]:
        return np.linalg.eigvalsh(w.conj() @ np.swapaxes(w, -1, -2))
    return np.linalg.eigvalsh(np.swapaxes(w, -1, -2) @ w.conj())


@settings(deadline=None, max_examples=200)
@given(side=st.sampled_from([(0, 3), (1, 1), (1, 6), (4, 1), (2, 2), (2, 7), (2, 16), (5, 2), (9, 2)]),
       lead=st.lists(st.integers(1, 4), min_size=0, max_size=2),
       kind=st.sampled_from(["random", "pure", "zero-row"]),
       scale=st.sampled_from([1e-150, 1e-3, 1.0, 1e100]),
       seed=st.integers(0, 2**32 - 1))
def test_closed_form_gram_spectra_match_eigvalsh_of_the_gram(side, lead, kind, scale, seed):
    # Sides s = min(r, n) of 0, 1 and 2, from W's rows or (n < r) its columns.
    w = scale * _kraus_rows(np.random.default_rng(seed), tuple(lead) + side, kind)
    got = _gram_spectra(w)
    assert got.shape == w.shape[:-2] + (min(side),)
    assert np.all(np.diff(got, axis=-1) >= 0)
    trace = np.sum(np.abs(w) ** 2, axis=(-2, -1))
    error = np.abs(got - _explicit_gram_spectra(w)).max(axis=-1, initial=0.0)
    assert np.all(error <= 1e-12 * trace)


def test_gram_spectra_call_no_eigensolver_below_a_side_of_3(monkeypatch):
    rng = np.random.default_rng(40)
    calls = []
    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda m: calls.append(m.shape) or eigvalsh(m))
    for shape in [(3, 0, 4), (3, 1, 4), (3, 4, 1), (3, 2, 4), (3, 4, 2), (2, 2, 2)]:
        _gram_spectra(_kraus_rows(rng, shape))
    assert calls == []
    # A side of 3 or more calls eigvalsh on the Gram matrix, with the reference's bits.
    for shape in [(5, 3, 3), (5, 3, 6), (2, 4, 7, 3), (4, 4)]:
        w = _kraus_rows(rng, shape)
        got = _gram_spectra(w)
        assert calls[-1] == shape[:-2] + (min(shape[-2:]),) * 2
        assert got.tobytes() == _explicit_gram_spectra(w).tobytes()


@pytest.mark.parametrize("shape", [(7, 0, 5), (5, 3, 1, 9), (6, 4, 1), (200, 8, 2, 16), (3, 5, 2, 3),
                                   (11, 9, 2), (4, 3, 3, 5)])
def test_gram_spectra_of_a_stack_have_the_bits_of_each_item_alone(shape):
    # The search scores its candidates in chunks of any size, so no bit
    # of an item's spectrum may depend on the stack around it.
    w = _kraus_rows(np.random.default_rng(sum(shape)), shape)
    stacked = _gram_spectra(w)
    for idx in np.ndindex(*shape[:-2]):
        assert stacked[idx].tobytes() == _gram_spectra(w[idx].copy()).tobytes(), idx
