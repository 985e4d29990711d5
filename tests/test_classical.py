import concurrent.futures
import itertools
import math
import pickle
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from infodyn import classical
from infodyn.classical import (
    BUILTIN_MAPS,
    EmpiricalChannel,
    MAX_ORBIT_STEPS,
    MAX_PARTITION_CELLS,
    MAX_SWEEP_ROWS,
    MAX_SWEEP_STEPS,
    MAX_WORKERS,
    MapSystem,
    OrbitConfig,
    Partition,
    baker_map,
    empirical_channel,
    iterate_orbit,
    logistic_map,
    lyapunov_exponent,
    orbit_chaos_degree,
    sweep,
    sweep_to_csv,
    tinkerbell_map,
)
from infodyn.exceptions import OrbitEscape
from infodyn.metrics import ComplexityConfig, chaos_degree

LN2 = float(np.log(2))


def constant_map(c=0.5):
    def points(start, a):
        while True:
            yield c

    return MapSystem(
        name="constant",
        box=((0.0, 1.0),),
        default_x0=(0.3,),
        default_param=0.0,
        points=points,
        jacobian=lambda orbit, a: np.zeros((1, 1)),
    )


def with_points(system, points):
    """`system` with its point stream replaced by `points`."""
    return MapSystem(system.name, system.box, system.default_x0, system.default_param, points,
                     system.jacobian)


def logistic_with(box, default_x0=(0.3,)):
    """The logistic map's stream and Jacobian on another box and start point."""
    logistic = logistic_map()
    return MapSystem("logistic", box, default_x0, logistic.default_param, logistic.points,
                     logistic.jacobian)


def test_builtin_registry_names():
    assert set(BUILTIN_MAPS) == {"logistic", "baker", "tinkerbell"}
    for name, system in BUILTIN_MAPS.items():
        assert system.name == name


def test_builtin_maps_pickle_and_equal_their_constructors():
    # A worker process receives the map itself, so it must pickle.
    for name, system in BUILTIN_MAPS.items():
        assert pickle.loads(pickle.dumps(system)) == system, name
    assert logistic_map() == BUILTIN_MAPS["logistic"]
    assert baker_map() == BUILTIN_MAPS["baker"]
    assert tinkerbell_map() == BUILTIN_MAPS["tinkerbell"]


def test_logistic_converges_to_fixed_point():
    orbit = iterate_orbit(logistic_map(), OrbitConfig(x0=(0.3,), transient=500, samples=10, param=2.0))
    assert np.allclose(orbit, 0.5, atol=1e-12)


def test_logistic_stays_in_unit_interval():
    orbit = iterate_orbit(logistic_map(), OrbitConfig(x0=(0.3,), transient=0, samples=100, param=4.0))
    assert orbit.shape == (100, 1)
    assert np.all((orbit >= 0) & (orbit <= 1))


def test_constant_map_orbit():
    orbit = iterate_orbit(constant_map(), OrbitConfig(transient=10, samples=20))
    assert np.allclose(orbit, 0.5)


def test_orbit_escape_raises_with_context():
    def points(start, a):
        (x,) = start
        while True:
            x = x * 2.0 + 1.0
            yield x

    runaway = MapSystem(
        name="runaway",
        box=((0.0, 1.0),),
        default_x0=(0.1,),
        default_param=0.0,
        points=points,
        jacobian=lambda orbit, a: np.full((1, 1), 2.0),
    )
    with pytest.raises(OrbitEscape) as err:
        iterate_orbit(runaway, OrbitConfig(transient=0, samples=50))
    assert err.value.box == ((0.0, 1.0),)


def test_orbit_escape_survives_pickling():
    # A process pool sends a worker's exception back pickled.
    err = OrbitEscape((1.0246441621512388,), ((0.0, 1.0),), 2)
    copy = pickle.loads(pickle.dumps(err))
    assert type(copy) is OrbitEscape
    assert copy.point == err.point
    assert copy.box == err.box
    assert copy.step_index == err.step_index
    assert str(copy) == str(err)


@pytest.mark.parametrize("system, cfg, step_index, point", [
    # logistic escapes at step 2: inside the transient, then inside the samples
    (logistic_map(), OrbitConfig(transient=5, samples=10, param=4.1), 2, (1.0246441621512388,)),
    (logistic_map(), OrbitConfig(transient=0, samples=10, param=4.1), 2, (1.0246441621512388,)),
    (tinkerbell_map(), OrbitConfig(transient=1000, samples=100, param=0.93), 78,
     (0.0022719351093366674, -2.084811428779471)),
])
def test_orbit_escape_reports_first_escaping_step(system, cfg, step_index, point):
    with pytest.raises(OrbitEscape) as err:
        iterate_orbit(system, cfg)
    assert err.value.step_index == step_index
    assert err.value.point == point


def _diagonal_drift_points(start, a):
    x, y = start
    while True:
        x, y = x + 0.125, y + 0.25
        yield x
        yield y


def test_a_2d_orbit_escapes_at_its_first_step_outside_on_any_axis():
    # Within the first chunk, y leaves [0, 2] at step 8 and x at step 16:
    # the escape is the earlier step, though axis 0 is checked first.
    drift = MapSystem(name="drift2", box=((0.0, 2.0), (0.0, 2.0)), default_x0=(0.0, 0.0),
                      default_param=0.0, points=_diagonal_drift_points,
                      jacobian=lambda orbit, a: np.eye(2))
    with pytest.raises(OrbitEscape) as err:
        iterate_orbit(drift, OrbitConfig(transient=0, samples=100))
    assert err.value.step_index == 8
    assert err.value.point == (1.125, 2.25)


def test_orbit_nan_counts_as_escape():
    def points(start, a):
        (x,) = start
        while True:
            x = x if x < 0.5 else float("nan")
            yield x

    nan_map = MapSystem(
        name="nan",
        box=((0.0, 1.0),),
        default_x0=(0.5,),
        default_param=0.0,
        points=points,
        jacobian=lambda orbit, a: np.ones((1, 1)),
    )
    with pytest.raises(OrbitEscape) as err:
        iterate_orbit(nan_map, OrbitConfig(transient=3, samples=10))
    assert err.value.step_index == 0
    assert np.isnan(err.value.point[0])


def test_map_dimension_derives_from_box():
    assert logistic_map().dim == 1
    assert baker_map().dim == 2
    assert tinkerbell_map().dim == 2


@pytest.mark.parametrize("box", [((1.0, 0.0),), ((0.5, 0.5),), ((0.0, 1.0), (2.0, -2.0))],
                         ids=["reversed", "zero-width", "second-axis"])
def test_map_and_partition_reject_a_box_interval_without_positive_width(box):
    # One rule for both: a map with such a box used to construct, then fail
    # (reversed) or report a Lyapunov exponent of 0.0 (zero width).
    for build in (lambda: logistic_with(box), lambda: Partition(box, 10)):
        with pytest.raises(ValueError) as err:
            build()
        assert str(err.value) == "box intervals must have positive width"


@pytest.mark.parametrize("call, message", [
    (lambda: logistic_with(((0.0, 1.0),) * 3, (0.3,) * 3),
     "only 1- and 2-dimensional maps are supported, got 3"),
    (lambda: logistic_with(((0.0, 1.0),), (0.3, 0.3)), "default_x0 must match the box dimension"),
    (lambda: Partition(((0.0, 1.0),), 4).encode(np.full((3, 2), 0.5)), "points have dimension 2, box has 1"),
    (lambda: empirical_channel(np.array([0.5]), Partition(((0.0, 1.0),), 4)),
     "orbit must contain at least 2 points"),
    (lambda: empirical_channel(np.float64(0.5), Partition(((0.0, 1.0),), 4)),
     "points must be a 1-d or 2-d array, got shape ()"),
    (lambda: Partition(((0.0, 1.0),), 4).encode(np.full((3, 2, 1), 0.5)),
     "points must be a 1-d or 2-d array, got shape (3, 2, 1)"),
], ids=["three-axes", "x0-dimension", "encode-dimension", "one-point-orbit", "scalar-orbit",
        "encode-three-axes"])
def test_classical_input_errors_name_the_problem(call, message):
    with pytest.raises(ValueError) as err:
        call()
    assert str(err.value) == message


def test_lyapunov_of_a_2d_map_with_a_vanishing_jacobian_is_minus_infinity():
    # The tangent vector's norm is exactly 0 after the first step.
    def points(start, a):
        while True:
            yield 0.5
            yield 0.5

    flat = MapSystem(name="flat", box=((0.0, 1.0), (0.0, 1.0)), default_x0=(0.3, 0.3),
                     default_param=0.0, points=points,
                     jacobian=lambda orbit, a: np.zeros((2, 2)))
    assert lyapunov_exponent(flat, OrbitConfig(transient=10, samples=100)) == -math.inf


def test_custom_map_from_step_and_jacobian_matches_builtin_logistic():
    def points(start, a):
        (x,) = start
        while True:
            x = a * x * (1.0 - x)
            yield x

    def jacobian(orbit, a):
        return (a * (1.0 - 2.0 * orbit)).reshape(-1, 1, 1)

    custom = MapSystem(
        name="custom-logistic",
        box=((0.0, 1.0),),
        default_x0=(0.3,),
        default_param=3.8,
        points=points,
        jacobian=jacobian,
    )
    for a in (3.2, 3.7, 4.0):
        cfg = OrbitConfig(transient=200, samples=5000, param=a)
        assert np.array_equal(iterate_orbit(custom, cfg), iterate_orbit(logistic_map(), cfg))
        assert lyapunov_exponent(custom, cfg) == lyapunov_exponent(logistic_map(), cfg)


def _per_step_lyapunov(jacobians) -> float:
    """The renormalised tangent recurrence, one 2 x 2 step at a time in
    plain Python floats: the oracle of the blocked products."""
    v0, v1, acc = 1.0, 0.0, 0.0
    for (j00, j01), (j10, j11) in jacobians:
        w0 = j00 * v0 + j01 * v1
        w1 = j10 * v0 + j11 * v1
        norm = math.hypot(w0, w1)
        acc += math.log(norm)
        v0, v1 = w0 / norm, w1 / norm
    return acc / len(jacobians)


def test_tinkerbell_matches_per_step_reference():
    # Reference: the per-point step and Jacobian in plain Python floats,
    # with the renormalised tangent recurrence; the array path must give
    # the orbit's bits, and the exponent to within rounding.
    a, b, c, d = 0.9, -0.6013, 2.0, 0.5
    x, y = -0.72, -0.64
    points = []
    for _ in range(100 + 2000):
        x, y = x * x - y * y + a * x + b * y, 2.0 * x * y + c * x + d * y
        points.append((x, y))
    reference = _per_step_lyapunov([((2.0 * x + a, -2.0 * y + b), (2.0 * y + c, 2.0 * x + d))
                                    for x, y in points[100:]])
    cfg = OrbitConfig(transient=100, samples=2000, param=a)
    assert iterate_orbit(tinkerbell_map(), cfg).tolist() == [list(p) for p in points[100:]]
    assert abs(lyapunov_exponent(tinkerbell_map(), cfg) - reference) <= 1e-12


@pytest.mark.parametrize("a", [0.685, 0.9])
def test_tinkerbell_jacobian_matches_the_stacked_entries(a):
    # Oracle: the four entries as whole-orbit arrays, stacked; the
    # preallocated Jacobian must hold their bits.
    orbit = iterate_orbit(tinkerbell_map(), OrbitConfig(transient=100, samples=5000, param=a))
    x, y = orbit[:, 0], orbit[:, 1]
    expected = np.stack([2.0 * x + a, -2.0 * y - 0.6013, 2.0 * y + 2.0, 2.0 * x + 0.5],
                        axis=1).reshape(-1, 2, 2)
    jac = tinkerbell_map().jacobian(orbit, a)
    assert jac.shape == (5000, 2, 2) and jac.dtype == np.float64
    assert np.array_equal(jac, expected)


@pytest.mark.parametrize("samples", [1, 63, 64, 65, classical.ORBIT_CHUNK - 1,
                                     classical.ORBIT_CHUNK + 1],
                         ids=["1", "63", "64", "65", "chunk-1", "chunk+1"])
@pytest.mark.parametrize("a", [0.685, 0.9])
def test_blocked_lyapunov_matches_per_step_recurrence(samples, a):
    # Block edges, a padded last block and a last slice of one step, on a
    # periodic (a = 0.685) and a chaotic orbit.
    system, cfg = tinkerbell_map(), OrbitConfig(transient=100, samples=samples, param=a)
    reference = _per_step_lyapunov(system.jacobian(iterate_orbit(system, cfg), a).tolist())
    assert abs(lyapunov_exponent(system, cfg) - reference) <= 1e-12


def _constant_points(start, a):
    while True:
        yield 0.5
        yield 0.5


@pytest.mark.parametrize("scale", [1e-300, 1e300])
def test_blocked_lyapunov_at_extreme_jacobian_scales(scale):
    # A product of a block's Jacobians near 1e+-300 would leave the float
    # range; the scaled products neither overflow nor warn (warnings are
    # errors in this suite) and keep the per-step recurrence's value.
    def jacobian(orbit, a):
        return scale * np.random.default_rng(7).standard_normal((len(orbit), 2, 2))

    system = MapSystem(name="scaled", box=((0.0, 1.0), (0.0, 1.0)), default_x0=(0.3, 0.3),
                       default_param=0.0, points=_constant_points, jacobian=jacobian)
    cfg = OrbitConfig(transient=0, samples=1000)
    reference = _per_step_lyapunov(jacobian(range(1000), 0.0).tolist())
    lam = lyapunov_exponent(system, cfg)
    assert abs(lam - math.log(scale)) < 2.0
    assert lam == pytest.approx(reference, rel=1e-13)


@pytest.mark.parametrize("seed", range(20))
def test_scaled_equals_the_multiply_by_a_power_of_two_bit_for_bit(seed):
    # Entries span the float range, zeros included, so a matrix led by a
    # huge entry scales its tiny ones to subnormals: ldexp and the multiply
    # must round those the same way.
    rng = np.random.default_rng(seed)
    shape = (4, 8, 50)
    m = rng.choice([-1.0, 1.0], shape) * 10.0 ** rng.uniform(-320, 300, shape)
    m[rng.random(shape) < 0.05] = 0.0
    m[:, :, 0] = rng.uniform(-1.0, 1.0, (4, 8)) * 1e-310  # below 2**-1021: e is clipped
    got_exponents, want_exponents = np.zeros(50, np.int64), np.zeros(50, np.int64)
    got = classical._scaled(m, got_exponents)
    _, e = np.frexp(np.abs(m).max(axis=0))
    np.clip(e, -1021, 1021, out=e)
    want_exponents += e.sum(axis=0)
    want = m * np.ldexp(1.0, -e)
    assert np.any((want != 0.0) & (np.abs(want) < np.finfo(float).tiny))
    assert got.tobytes() == want.tobytes()
    assert np.array_equal(got_exponents, want_exponents)


def test_logistic_jacobian_equals_its_formula_bit_for_bit():
    orbit = iterate_orbit(logistic_map(), OrbitConfig(transient=0, samples=5000, param=3.9))
    want = (3.9 * (1.0 - 2.0 * orbit))[:, :, None]
    assert classical._logistic_jacobian(orbit, 3.9).tobytes() == want.tobytes()


@pytest.mark.parametrize("dim, jacobian, message", [
    (1, lambda orbit, a: np.ones(3), "has shape (3,), which does not broadcast to (20, 1, 1)"),
    (2, lambda orbit, a: np.ones((len(orbit), 2)),
     "has shape (20, 2), which does not broadcast to (20, 2, 2)"),
    (1, lambda orbit, a: np.full((len(orbit), 1, 1), math.nan), "has a non-finite entry"),
    (1, lambda orbit, a: np.full((len(orbit), 1, 1), math.inf), "has a non-finite entry"),
    (2, lambda orbit, a: np.array([[1.0, math.nan], [0.0, 1.0]]), "has a non-finite entry"),
    (2, lambda orbit, a: np.array([[1.0, 0.0], [-math.inf, 1.0]]), "has a non-finite entry"),
], ids=["shape-1d", "shape-2d", "nan-1d", "inf-1d", "nan-2d", "inf-2d"])
def test_lyapunov_rejects_a_bad_jacobian_by_map_name(dim, jacobian, message):
    system = MapSystem(name="bad", box=((0.0, 1.0),) * dim, default_x0=(0.3,) * dim,
                       default_param=0.0, points=_constant_points, jacobian=jacobian)
    with pytest.raises(ValueError) as err:
        lyapunov_exponent(system, OrbitConfig(transient=0, samples=20))
    assert str(err.value) == f"jacobian of map 'bad' {message}"


def test_logistic_matches_per_step_reference():
    # Reference: the per-point step in plain Python floats; the orbit must
    # have the same bits.
    a, x = 3.9, 0.3
    points = []
    for _ in range(100 + 2000):
        x = a * x * (1.0 - x)
        points.append([x])
    cfg = OrbitConfig(transient=100, samples=2000, param=a)
    assert iterate_orbit(logistic_map(), cfg).tolist() == points[100:]


@pytest.mark.parametrize("x0", [(0.3, 0.4), (0.75, 0.5), (1.0, 1.0), (0.0, 0.0)])
def test_baker_matches_per_step_reference(x0):
    # Reference: the per-point branch step in plain Python floats, from
    # starts on both branches and on the box's corners.
    x, y = x0
    points = []
    for _ in range(5 + 200):
        branch = 1.0 if x >= 0.5 else 0.0
        x, y = 2.0 * x - branch, 0.5 * (y + branch)
        points.append([x, y])
    cfg = OrbitConfig(x0=x0, transient=5, samples=200)
    assert iterate_orbit(baker_map(), cfg).tolist() == points[5:]


@pytest.mark.parametrize("blocks", [1, 13])
def test_orbit_chunk_size_does_not_change_results(monkeypatch, blocks):
    # ORBIT_CHUNK is a whole number of Lyapunov blocks, so the blocks start
    # at the same steps whatever the slice length, and the bits agree.
    assert classical.ORBIT_CHUNK % classical._LYAPUNOV_BLOCK == 0
    cases = [(logistic_map(), OrbitConfig(transient=5, samples=200)),
             (tinkerbell_map(), OrbitConfig(transient=100, samples=2000)),
             (baker_map(), OrbitConfig(x0=(0.3, 0.4), transient=3, samples=50))]
    expected = [(iterate_orbit(s, c), lyapunov_exponent(s, c)) for s, c in cases]
    monkeypatch.setattr(classical, "ORBIT_CHUNK", blocks * classical._LYAPUNOV_BLOCK)
    for (system, cfg), (orbit, lam) in zip(cases, expected):
        assert np.array_equal(iterate_orbit(system, cfg), orbit)
        assert lyapunov_exponent(system, cfg) == lam
    with pytest.raises(OrbitEscape) as err:
        iterate_orbit(tinkerbell_map(), OrbitConfig(transient=1000, samples=100, param=0.93))
    assert err.value.step_index == 78


def _ring_points(start, a):
    (x,) = start
    while True:
        x = float((3 * int(x) + 1) % 7)
        yield x


def _ring2_points(start, a):
    x, y = start
    while True:
        x, y = float((3 * int(x) + 1) % 7), float((int(x) + 2 * int(y)) % 7)
        yield x
        yield y


RING = MapSystem(name="ring", box=((0.0, 6.0),), default_x0=(2.0,), default_param=0.0,
                 points=_ring_points, jacobian=lambda orbit, a: np.ones((1, 1)))
RING2 = MapSystem(name="ring2", box=((0.0, 6.0), (0.0, 6.0)), default_x0=(2.0, 5.0),
                  default_param=0.0, points=_ring2_points,
                  jacobian=lambda orbit, a: np.eye(2))


@pytest.mark.parametrize("system, points", [
    (logistic_map(), lambda s, a: (np.float64(v) for v in classical._logistic_points(s, a))),
    (RING, lambda s, a: (int(v) for v in _ring_points(s, a))),
    (tinkerbell_map(), lambda s, a: (np.float64(v) for v in classical._tinkerbell_points(s, a))),
    (RING2, lambda s, a: (int(v) for v in _ring2_points(s, a))),
], ids=["float64", "int", "float64-2d", "int-2d"])
def test_orbit_takes_every_numeric_step_output(system, points):
    # A stream may yield any real scalar as a coordinate, in 1-D and in 2-D;
    # the orbit equals the one its float form gives.
    cfg = OrbitConfig(transient=10, samples=500)
    expected = iterate_orbit(system, cfg)
    orbit = iterate_orbit(with_points(system, points), cfg)
    assert orbit.dtype == float and orbit.shape == (500, system.dim)
    assert np.array_equal(orbit, expected)


@pytest.mark.parametrize("system, length, samples", [
    (logistic_map(), 29, 20),
    (tinkerbell_map(), 59, 20),
    (logistic_map(), 5000, 9990),
], ids=["1d", "2d-mid-point", "1d-later-chunk"])
def test_orbit_from_a_stream_that_ends_early_raises_value_error(system, length, samples):
    # 10 + 20 points need 30 coordinates in 1-D and 60 in 2-D; a stream
    # that ends after 5000 points of the chaotic default logistic orbit
    # (which does not cycle) ends inside the third chunk of a 10**4-point orbit.
    short = with_points(system, lambda s, a: itertools.islice(system.points(s, a), length))
    with pytest.raises(ValueError):
        iterate_orbit(short, OrbitConfig(transient=10, samples=samples))


def _plain_orbit(system, cfg):
    """The whole orbit, transient included, as one `np.fromiter` read of
    the map's stream: the oracle of the chunked read."""
    x0, a = classical._resolve(system, cfg)
    total = cfg.transient + cfg.samples
    return np.fromiter(system.points(x0, a), dtype=float,
                       count=total * system.dim).reshape(total, system.dim)


def _counting(system, limit=None):
    """`system` with a stream that counts the coordinates it yields in
    `reads[0]` and fails the test if asked for more than `limit`."""
    reads = [0]

    def points(start, a):
        for value in system.points(start, a):
            if reads[0] == limit:
                pytest.fail(f"the stream was read past {limit} coordinates")
            reads[0] += 1
            yield value

    return with_points(system, points), reads


def _drift_points(start, a):
    (x,) = start
    while True:
        x += 2.0**-11
        yield x


def _negation_points(start, a):
    (x,) = start
    while True:
        x = -x
        yield x


# Point t of DRIFT's orbit from 0 is (t + 1) / 2048, exactly: it leaves the
# box at step 2048, inside the second chunk. NEGATION's orbit from 0.0 is
# -0.0, 0.0, -0.0, ...: equal values, but a cycle of period 2 in bits.
DRIFT = MapSystem(name="drift", box=((0.0, 1.0),), default_x0=(0.0,), default_param=0.0,
                  points=_drift_points, jacobian=lambda orbit, a: np.ones((1, 1)))
NEGATION = MapSystem(name="negation", box=((-1.0, 1.0),), default_x0=(0.0,), default_param=0.0,
                     points=_negation_points, jacobian=lambda orbit, a: np.full((1, 1), -1.0))

# (map, parameter) pairs whose float orbits close a cycle at the step and
# with the period noted (first repeat of a point's bits, default start),
# never repeat, or escape.
ORBIT_CASES = [
    (logistic_map(), 2.0),  # period 1 at step 6
    (logistic_map(), 3.2),  # period 2 at step 53
    (logistic_map(), 3.44),  # period 4 at step 1208, in the second chunk
    (logistic_map(), 3.83),  # period 3 at step 130
    (logistic_map(), 1.0),  # converges to 0 without repeating
    (logistic_map(), 3.9),  # chaotic
    (logistic_map(), 4.0),  # chaotic
    (logistic_map(), 4.1),  # escapes at step 2
    (tinkerbell_map(), 0.6),  # period 90 at step 1187, in the second chunk
    (tinkerbell_map(), 0.7),  # period 16 at step 1006
    (tinkerbell_map(), 0.9),  # chaotic
    (tinkerbell_map(), 0.93),  # escapes at step 78
    (baker_map(), 0.0),  # collapses to (0, 0): period 1 at step 1129
    (RING2, 0.0),  # a 2-D cycle from the start
    (DRIFT, 0.0),  # escapes at step 2048
    (NEGATION, 0.0),  # period 2 in bits
]


@pytest.mark.parametrize("total", [100, 1023, 1024, 1025, 3072, 3073, 140_000])
@pytest.mark.parametrize("system, param", ORBIT_CASES,
                         ids=[f"{s.name}-{a}" for s, a in ORBIT_CASES])
def test_a_chunked_orbit_equals_one_plain_read_of_its_stream(system, param, total):
    # The chunks hold 1024, 2048, 4096, ... points, so the totals end
    # below, at and past the first two chunk borders and past the largest
    # chunk; an orbit that escapes fails at the same step with the same point.
    cfg = OrbitConfig(transient=10, samples=total - 10, param=param)
    plain = _plain_orbit(system, cfg)
    outside = np.flatnonzero(~((plain >= [lo for lo, _ in system.box])
                               & (plain <= [hi for _, hi in system.box])).all(axis=1))
    if outside.size:
        with pytest.raises(OrbitEscape) as err:
            iterate_orbit(system, cfg)
        assert err.value.step_index == outside[0]
        assert err.value.point == tuple(plain[outside[0]])
    else:
        # Bytes, not values, so that -0.0 and 0.0 count as different.
        assert iterate_orbit(system, cfg).tobytes() == plain[10:].tobytes()


@pytest.mark.parametrize("param, least, most", [(3.2, 1, classical._FIRST_CHUNK),
                                                (4.0, 10**5, 10**5)])
def test_an_orbit_stops_reading_its_stream_once_it_cycles(param, least, most):
    # At a = 3.2 the float orbit repeats a point 2 steps back at step 53,
    # so the first chunk holds the cycle; at a = 4.0 it never repeats, and
    # every point is read from the stream.
    system, reads = _counting(logistic_map())
    cfg = OrbitConfig(transient=1000, samples=99_000, param=param)
    orbit = iterate_orbit(system, cfg)
    assert least <= reads[0] <= most
    assert np.array_equal(orbit, _plain_orbit(logistic_map(), cfg)[1000:])


def test_a_cycle_of_signed_zeros_keeps_its_sign_bits():
    # 0.0 == -0.0, so a cycle found by value would be of period 1 and
    # repeat one sign; by bits it is of period 2 and the signs alternate.
    orbit = iterate_orbit(NEGATION, OrbitConfig(transient=0, samples=5000))
    assert np.array_equal(np.signbit(orbit[:, 0]), np.arange(5000) % 2 == 0)


def test_an_escaping_orbit_stops_reading_at_the_chunk_of_its_first_escape():
    # The second chunk holds points 1024-3071, and DRIFT leaves the box at
    # point 2048: its stream is read no further than that chunk.
    system, reads = _counting(DRIFT, limit=3 * classical._FIRST_CHUNK)
    with pytest.raises(OrbitEscape) as err:
        iterate_orbit(system, OrbitConfig(transient=0, samples=10**5))
    assert err.value.step_index == 2048
    assert err.value.point == (2049 / 2048,)
    assert reads[0] == 3 * classical._FIRST_CHUNK


def test_orbit_rejects_x0_outside_box():
    with pytest.raises(ValueError):
        iterate_orbit(logistic_map(), OrbitConfig(x0=(1.5,), samples=10))


def test_baker_preserves_unit_square():
    orbit = iterate_orbit(baker_map(), OrbitConfig(x0=(0.3, 0.4), transient=0, samples=50))
    assert orbit.shape == (50, 2)
    assert np.all((orbit >= 0) & (orbit <= 1))


def test_baker_known_step():
    orbit = iterate_orbit(baker_map(), OrbitConfig(x0=(0.75, 0.5), transient=0, samples=1))
    assert np.allclose(orbit[0], [0.5, 0.75])


def test_the_baker_orbit_collapses_to_its_fixed_point_in_floating_point():
    # Each doubling of x shifts one bit of its mantissa out, so from the
    # default x0 = (0.3, 0.3) x is exactly 0.0 from index 53 on. A default
    # orbit visits one cell and reads D = 0 while the exponent reads ln 2,
    # as the `baker_map` docstring, README and the baker golden say.
    x = iterate_orbit(baker_map(), OrbitConfig(transient=0, samples=200))[:, 0]
    assert x[52] != 0.0 and not x[53:].any()
    channel = empirical_channel(iterate_orbit(baker_map(), OrbitConfig()), Partition(baker_map().box))
    assert channel.cells.tolist() == [0]
    assert orbit_chaos_degree(baker_map()) == 0.0
    assert abs(lyapunov_exponent(baker_map()) - LN2) <= 1e-12


def test_tinkerbell_default_orbit_bounded():
    orbit = iterate_orbit(tinkerbell_map(), OrbitConfig(transient=1000, samples=1000))
    assert np.all(np.abs(orbit) <= 2.0)


def test_partition_encodes_edges():
    part = Partition(((0.0, 1.0),), bins=4)
    codes = part.encode(np.array([[0.0], [0.24], [0.25], [0.999], [1.0]]))
    assert codes.tolist() == [0, 0, 1, 3, 3]


@pytest.mark.parametrize("box, points", [(((0.0, 1.0),), []),
                                         (((0.0, 1.0), (0.0, 1.0)), np.zeros((0, 2)))])
def test_partition_encodes_no_points_as_an_empty_int64_array(box, points):
    # min() of an empty array raises, so the box check must not reach it.
    codes = Partition(box, bins=4).encode(points)
    assert codes.dtype == np.int64 and codes.shape == (0,)


def test_partition_rejects_outside_points():
    part = Partition(((0.0, 1.0),), bins=4)
    with pytest.raises(ValueError):
        part.encode(np.array([[1.2]]))


@pytest.mark.parametrize("box, points, axis", [
    (((0.0, 1.0),), [0.1, np.nan, 0.5, 0.7], 0),
    (((0.0, 1.0), (-2.0, 2.0)), [[0.1, 0.0], [0.5, np.nan], [0.7, 1.0]], 1),
    (((0.0, 1.0), (-2.0, 2.0)), [[np.nan, np.nan], [0.5, 0.0]], 0),
], ids=["1d", "2d-second-axis", "2d-both-axes"])
def test_partition_rejects_nan_points_naming_the_axis(box, points, axis):
    # NaN is neither below nor above the box; unchecked, it would become
    # the cell code -2**63.
    part = Partition(box, bins=10)
    points = np.array(points)
    with pytest.raises(ValueError, match=f"or NaN on axis {axis}$"):
        part.encode(points)
    with pytest.raises(ValueError, match=f"or NaN on axis {axis}$"):
        empirical_channel(points, part)


def test_partition_rejects_an_integer_beyond_the_float_range():
    part = Partition(((0.0, 1.0),), bins=4)
    with pytest.raises(ValueError, match="^points have a non-finite entry$"):
        part.encode([0.5, 10**400])
    with pytest.raises(ValueError, match="^points have a non-finite entry$"):
        empirical_channel([0.5, 10**400], part)


def test_partition_two_dimensional_codes_unique():
    part = Partition(((0.0, 1.0), (0.0, 1.0)), bins=3)
    pts = np.array([[x, y] for x in (0.1, 0.5, 0.9) for y in (0.1, 0.5, 0.9)])
    assert len(set(part.encode(pts).tolist())) == 9


def test_empirical_channel_period_two():
    orbit = np.array([[0.1], [0.9], [0.1], [0.9], [0.1]])
    emp = empirical_channel(orbit, Partition(((0.0, 1.0),), bins=2))
    assert np.allclose(emp.occupation, [0.5, 0.5])
    assert np.allclose(emp.transition_matrix(), [[0.0, 1.0], [1.0, 0.0]])
    assert emp.conditional_entropy() == pytest.approx(0, abs=1e-14)


def test_empirical_channel_source_counts():
    orbit = np.random.default_rng(3).uniform(0, 1, size=(1001, 1))
    emp = empirical_channel(orbit, Partition(((0.0, 1.0),), bins=7))
    assert emp.source_counts.dtype.kind == "i"
    assert emp.source_counts.sum() == 1000
    assert np.array_equal(emp.occupation, emp.source_counts / 1000)


def test_empirical_channel_is_immutable_and_compares_by_identity():
    # A `_Frozen` value with array fields compares and hashes by identity.
    orbit = np.array([[0.1], [0.9], [0.1], [0.9], [0.1]])
    part = Partition(((0.0, 1.0),), bins=2)
    a, b = empirical_channel(orbit, part), empirical_channel(orbit, part)
    assert a == a and a != b
    assert len({a, b, a}) == 2
    assert not any(getattr(a, name).flags.writeable for name in EmpiricalChannel.__slots__)
    with pytest.raises(AttributeError, match="^EmpiricalChannel is immutable$"):
        a.cells = b.cells


def test_empirical_channel_constant_orbit():
    orbit = np.full((50, 1), 0.5)
    emp = empirical_channel(orbit, Partition(((0.0, 1.0),), bins=10))
    assert emp.size == 1
    assert np.allclose(emp.transition_matrix(), [[1.0]])
    assert emp.conditional_entropy() == 0


def test_empirical_channel_uniform_noise_rows_near_uniform():
    rng = np.random.default_rng(8)
    orbit = rng.uniform(0, 1, size=(200000, 1))
    emp = empirical_channel(orbit, Partition(((0.0, 1.0),), bins=4))
    assert np.max(np.abs(emp.transition_matrix() - 0.25)) < 0.02
    assert emp.conditional_entropy() == pytest.approx(np.log(4), abs=0.01)


def _channels_on_both_paths(orbit, part):
    """The empirical channel counted into dense tables wherever they fit
    DENSE_COUNT_CELLS, and counted by sorting."""
    with mock.patch.object(classical, "DENSE_COUNT_RATIO", math.inf):
        dense = empirical_channel(orbit, part)
    with mock.patch.object(classical, "DENSE_COUNT_CELLS", 0):
        sort = empirical_channel(orbit, part)
    return dense, sort


def _assert_same_channel(a, b):
    for field in ("cells", "source_counts", "pair_positions", "pair_counts"):
        x, y = getattr(a, field), getattr(b, field)
        assert x.dtype == y.dtype and np.array_equal(x, y), field
    assert a.conditional_entropy() == b.conditional_entropy()


COUNTED_ORBITS = pytest.mark.parametrize("system, cfg, bins", [
    (logistic_map(), OrbitConfig(transient=100, samples=20_000, param=3.8), 100),
    (logistic_map(), OrbitConfig(transient=100, samples=20_000, param=4.0), 1000),
    (tinkerbell_map(), OrbitConfig(transient=1000, samples=10_000), 100),
    (baker_map(), OrbitConfig(x0=(0.3, 0.4), transient=0, samples=2000), 30),
], ids=["logistic-100", "logistic-1000", "tinkerbell", "baker"])


@COUNTED_ORBITS
def test_dense_and_sorted_counts_give_the_same_channel(system, cfg, bins):
    orbit = iterate_orbit(system, cfg)
    part = Partition(system.box, bins)
    dense, sort = _channels_on_both_paths(orbit, part)
    # Both tables fit the cap, so the first channel came from bincount alone.
    assert bins ** system.dim <= classical.DENSE_COUNT_CELLS
    assert dense.size ** 2 <= classical.DENSE_COUNT_CELLS
    _assert_same_channel(dense, sort)
    _assert_same_channel(empirical_channel(orbit, part), sort)


@COUNTED_ORBITS
def test_source_counts_are_the_transitions_leaving_each_cell(system, cfg, bins):
    # The constructor takes each cell's count of points, less one at the
    # last point's cell; counting the orbit's steps by their source cell
    # gives the same int64 totals.
    orbit = iterate_orbit(system, cfg)
    part = Partition(system.box, bins)
    codes = part.encode(orbit)
    for channel in _channels_on_both_paths(orbit, part):
        steps = np.bincount(np.searchsorted(channel.cells, codes[:-1]), minlength=channel.size)
        assert channel.source_counts.dtype == np.int64
        assert np.array_equal(channel.source_counts, steps)
        assert not channel.source_counts.flags.writeable


@st.composite
def _bounded_keys(draw):
    size = draw(st.integers(1, 300))
    return size, np.array(draw(st.lists(st.integers(0, size - 1), min_size=1, max_size=50)), dtype=np.int64)


@settings(max_examples=200, deadline=None)
@given(case=_bounded_keys(), inverse=st.booleans())
def test_unique_counts_is_np_unique_on_every_path(case, inverse):
    size, keys = case
    expected = np.unique(keys, return_inverse=inverse, return_counts=True)
    with mock.patch.object(classical, "DENSE_COUNT_RATIO", math.inf):
        dense = classical._unique_counts(keys, size, inverse)
    sort = classical._unique_counts(keys, classical.DENSE_COUNT_CELLS + 1, inverse)
    for got in (dense, sort, classical._unique_counts(keys, size, inverse)):
        assert len(got) == len(expected)
        for x, y in zip(got, expected):
            assert x.dtype == y.dtype and np.array_equal(x, y)


class _CastRecorder(np.ndarray):
    """An int64 key array that records the dtype of each `astype` copy."""

    casts: list = []

    def astype(self, dtype, *args, **kwargs):
        _CastRecorder.casts.append(np.dtype(dtype))
        return super().astype(dtype, *args, **kwargs)


@pytest.mark.parametrize("size, top, sort_dtype", [(2**31, 2**31 - 1, np.int32),
                                                    (2**31 + 1, 2**31, np.int64)])
@pytest.mark.parametrize("inverse", [False, True])
def test_unique_counts_sorts_int32_keys_up_to_size_2_to_the_31(size, top, sort_dtype, inverse):
    # Keys below 2**31 fit int32, so they are sorted as int32 up to that
    # size; the key 2**31 would wrap to -2**31 and must be sorted as int64.
    keys = np.array([top, 0, 5, top, 5, 2**20], dtype=np.int64)
    expected = np.unique(keys, return_inverse=inverse, return_counts=True)
    _CastRecorder.casts = []
    got = classical._unique_counts(keys.view(_CastRecorder), size, inverse)
    assert _CastRecorder.casts[0] == sort_dtype
    assert len(got) == len(expected)
    for x, y in zip(got, expected):
        assert x.dtype == y.dtype and np.array_equal(x, y)


@settings(max_examples=200, deadline=None)
@given(codes=st.lists(st.integers(0, 38), min_size=1, max_size=30))
def test_counting_paths_agree_when_the_last_cell_is_only_a_destination(codes):
    bins = max(codes) + 2
    orbit = (np.array(codes + [bins - 1]) + 0.5) / bins
    dense, sort = _channels_on_both_paths(orbit, Partition(((0.0, 1.0),), bins))
    _assert_same_channel(dense, sort)
    assert dense.cells[-1] == bins - 1 and dense.source_counts[-1] == 0


def test_chaos_degree_agrees_with_quantum_route():
    # The binned orbit statistics, fed through the diagonal-state +
    # stochastic-channel construction, must give the same number as the
    # direct pair-count formula.
    orbit = iterate_orbit(logistic_map(), OrbitConfig(transient=200, samples=3000, param=3.9))
    emp = empirical_channel(orbit, Partition(((0.0, 1.0),), bins=12))
    state, channel = emp.as_state_and_channel()
    rep = chaos_degree(state, channel, ComplexityConfig(restarts=40, seed=0))
    assert rep.chaos_degree == pytest.approx(emp.conditional_entropy(), abs=1e-9)


def test_orbit_chaos_degree_periodic_regime_is_zero():
    val = orbit_chaos_degree(
        logistic_map(),
        OrbitConfig(transient=1000, samples=100000, param=3.2),
        Partition(((0.0, 1.0),), bins=100),
    )
    assert val <= 1e-6


def test_orbit_chaos_degree_converges_under_doubling():
    cfg = OrbitConfig(transient=1000, samples=100000, param=4.0)
    part = Partition(((0.0, 1.0),), bins=100)
    d1 = orbit_chaos_degree(logistic_map(), cfg, part)
    d2 = orbit_chaos_degree(
        logistic_map(), OrbitConfig(transient=1000, samples=200000, param=4.0), part
    )
    assert abs(d1 - d2) < 0.01


def test_lyapunov_logistic_fully_chaotic():
    val = lyapunov_exponent(logistic_map(), OrbitConfig(transient=1000, samples=1000000, param=4.0))
    assert val == pytest.approx(LN2, abs=0.02)


def test_lyapunov_logistic_periodic_is_negative():
    assert lyapunov_exponent(logistic_map(), OrbitConfig(transient=1000, samples=10000, param=3.2)) < 0


def test_lyapunov_constant_map_is_minus_infinity():
    assert lyapunov_exponent(constant_map(), OrbitConfig(transient=10, samples=100)) == -np.inf


def test_lyapunov_baker_is_log_two():
    val = lyapunov_exponent(baker_map(), OrbitConfig(x0=(0.3, 0.4), transient=100, samples=5000))
    assert val == pytest.approx(LN2, abs=1e-9)


def test_sweep_row_count_and_order():
    rows = sweep(
        logistic_map(), 3.0, 4.0, 0.005,
        OrbitConfig(transient=50, samples=500),
        Partition(((0.0, 1.0),), bins=20),
    )
    assert len(rows) == 201
    params = [row.param for row in rows]
    assert params == sorted(params)
    assert params[0] == pytest.approx(3.0)
    assert params[-1] == pytest.approx(4.0)
    assert all(row.label in {"stable", "weak_stable", "chaotic"} for row in rows)
    assert all(row.chaos_degree >= 0 for row in rows)


def test_sweep_parallel_matches_serial():
    cfg = OrbitConfig(transient=100, samples=2000)
    part = Partition(((0.0, 1.0),), bins=25)
    serial = sweep(logistic_map(), 3.5, 3.7, 0.05, cfg, part, workers=1)
    parallel = sweep(logistic_map(), 3.5, 3.7, 0.05, cfg, part, workers=3)
    assert sweep_to_csv(serial) == sweep_to_csv(parallel)


@pytest.fixture
def started_pools(monkeypatch):
    """The keyword arguments of every process pool `sweep` builds."""
    started = []

    class SpyPool(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            started.append(kwargs)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SpyPool)
    return started


def test_sweep_pool_runs_for_builtin_map_objects_only(started_pools):
    started = started_pools
    cfg = OrbitConfig(transient=100, samples=2000)
    part = Partition(((0.0, 1.0),), bins=25)
    # Equal to the registry entry, not the entry itself.
    sweep(logistic_map(), 3.5, 3.7, 0.05, cfg, part, workers=2)
    assert started == [{"max_workers": 2}]
    # A custom map need not pickle, so it stays in this process.
    sweep(constant_map(), 0.0, 0.1, 0.05, cfg, part, workers=2)
    assert len(started) == 1


def test_sweep_pool_has_at_most_one_worker_per_point(started_pools):
    started = started_pools
    cfg = OrbitConfig(transient=100, samples=2000)
    part = Partition(((0.0, 1.0),), bins=25)
    sweep(logistic_map(), 3.5, 3.6, 0.1, cfg, part, workers=3)
    assert started == [{"max_workers": 2}]
    # One point needs no pool.
    sweep(logistic_map(), 3.5, 3.5, 0.1, cfg, part, workers=3)
    assert len(started) == 1
    with pytest.raises(ValueError, match=f"workers={MAX_WORKERS + 1} exceeds the limit "
                                         f"MAX_WORKERS={MAX_WORKERS}"):
        sweep(logistic_map(), 3.5, 3.5, 0.1, cfg, part, workers=MAX_WORKERS + 1)
    assert len(started) == 1


def _label(values, eps_zero=classical.DEFAULT_EPS_ZERO, eps_const=classical.DEFAULT_EPS_CONST):
    return classical._label(np.array(values, dtype=float), eps_zero, eps_const)


def test_sweep_label_rules():
    assert _label([0.0, 0.0, 0.0]) == "stable"
    assert _label([0.4, 0.4, 0.4]) == "weak_stable"
    assert _label([0.1, 0.5, 0.02, 0.7]) == "chaotic"


def test_sweep_label_thresholds():
    assert _label([5e-4, 9e-4]) == "stable"
    assert _label([0.2, 0.2 + 5e-4]) == "weak_stable"
    assert _label([0.2, 0.3]) == "chaotic"


def _replayed_labels(d_values, window, eps_zero, eps_const):
    """The trailing-window rule, written out: row i reads rows max(0, i - window + 1) to i."""
    labels = []
    for i in range(len(d_values)):
        vals = np.asarray(d_values[max(0, i - window + 1):i + 1], dtype=float)
        if np.all(np.abs(vals) <= eps_zero):
            labels.append("stable")
        elif float(vals.max() - vals.min()) <= eps_const and float(vals.mean()) > eps_zero:
            labels.append("weak_stable")
        else:
            labels.append("chaotic")
    return labels


@pytest.mark.parametrize("window, expected", [
    (1, {"stable", "weak_stable"}),
    (3, {"stable", "weak_stable", "chaotic"}),
    (16, {"stable", "chaotic"}),
], ids=["one", "three", "beyond-rows"])
def test_sweep_labels_replay_the_trailing_window_rule(window, expected):
    # 15 rows from a = 3.3: D is 0 at the periodic points and spreads
    # between 0.29 and 0.95 in the chaotic band, so at eps_const = 0.1 a
    # window of 3 meets all three labels. A window of 1 cannot be chaotic.
    eps_zero, eps_const = 1e-3, 0.1
    rows = sweep(logistic_map(), 3.3, 4.0, 0.05, OrbitConfig(transient=200, samples=2000),
                 Partition(((0.0, 1.0),), bins=20), eps_zero=eps_zero, eps_const=eps_const,
                 window=window)
    assert len(rows) == 15
    labels = [row.label for row in rows]
    assert labels == _replayed_labels([row.chaos_degree for row in rows], window, eps_zero, eps_const)
    assert set(labels) == expected


def test_sweep_to_csv_format():
    rows = sweep(
        logistic_map(), 3.95, 4.0, 0.05,
        OrbitConfig(transient=100, samples=2000),
        Partition(((0.0, 1.0),), bins=25),
    )
    text = sweep_to_csv(rows)
    lines = text.split("\n")
    assert lines[0] == "a,D,lyapunov,label"
    assert text.endswith("\n")
    assert len(lines) == len(rows) + 2
    first = lines[1].split(",")
    assert len(first) == 4
    float(first[0]), float(first[1]), float(first[2])


def _quarter_points(start, a):
    while True:
        yield 0.25


def test_sweep_on_custom_map_named_like_builtin_stays_custom():
    # A user map that borrows a builtin name must not be swapped for
    # the builtin inside the worker pool.
    fake = MapSystem(
        name="logistic",
        box=((0.0, 1.0),),
        default_x0=(0.3,),
        default_param=0.0,
        points=_quarter_points,
        jacobian=lambda orbit, a: np.zeros_like(orbit)[:, :, None],
    )
    rows = sweep(
        fake, 3.0, 3.1, 0.1,
        OrbitConfig(transient=10, samples=100),
        Partition(((0.0, 1.0),), bins=10),
        workers=2,
    )
    assert all(row.chaos_degree == 0 for row in rows)
    assert all(row.lyapunov == -np.inf for row in rows)


def test_sweep_on_array_boxed_map_named_like_builtin_stays_custom():
    # `sweep` compares the map with each registry entry field by field;
    # array fields are stored as tuples so that comparison has one
    # truth value.
    fake = MapSystem(
        name="logistic",
        box=np.array([[0.0, 1.0]]),
        default_x0=np.array([0.3]),
        default_param=3.8,
        points=_quarter_points,
        jacobian=lambda orbit, a: np.zeros_like(orbit)[:, :, None],
    )
    assert fake.box == ((0.0, 1.0),) and fake.default_x0 == (0.3,)
    rows = sweep(fake, 3.0, 3.1, 0.1, OrbitConfig(transient=10, samples=100),
                 Partition(((0.0, 1.0),), bins=10), workers=2)
    assert all(row.chaos_degree == 0 for row in rows)


@pytest.mark.parametrize("start, stop, step", [
    (3.0, float("inf"), 0.1),
    (float("-inf"), 4.0, 0.1),
    (float("nan"), 4.0, 0.1),
    (3.0, 4.0, float("nan")),
    (3.0, 4.0, float("inf")),
])
def test_sweep_rejects_non_finite_grid(start, stop, step):
    with pytest.raises(ValueError, match="finite"):
        sweep(logistic_map(), start, stop, step, OrbitConfig(transient=0, samples=10))


def test_sweep_refuses_grid_above_row_cap_before_building_it():
    with pytest.raises(ValueError, match=r"1000000000001 rows"):
        sweep(logistic_map(), 3.0, 4.0, 1e-12, OrbitConfig(transient=0, samples=10))
    huge = 3.0 + MAX_SWEEP_ROWS * 0.5
    with pytest.raises(ValueError, match=f"{MAX_SWEEP_ROWS + 1} rows"):
        sweep(logistic_map(), 3.0, huge, 0.5, OrbitConfig(transient=0, samples=10))


def test_partition_rejects_cell_counts_above_the_cap():
    square = ((0.0, 1.0), (0.0, 1.0))
    Partition(((0.0, 1.0),), bins=MAX_PARTITION_CELLS)
    Partition(square, bins=2**26)
    # 2**27 bins per axis give 2**54 cells, above the cap although int64 codes stay exact.
    # A numpy integer's power would wrap to 0 in int64: 2**32 bins per axis.
    for box, bins in [(((0.0, 1.0),), MAX_PARTITION_CELLS + 1), (square, 2**27),
                      (square, np.int64(2**32))]:
        with pytest.raises(ValueError, match=f"MAX_PARTITION_CELLS={MAX_PARTITION_CELLS}"):
            Partition(box, bins=bins)


def test_orbit_config_rejects_orbits_above_the_cap():
    OrbitConfig(transient=1, samples=MAX_ORBIT_STEPS - 1)
    for transient, samples in [(0, MAX_ORBIT_STEPS + 1), (MAX_ORBIT_STEPS, 1)]:
        with pytest.raises(ValueError, match=f"^transient \\+ samples={MAX_ORBIT_STEPS + 1} exceeds "
                                             f"the limit MAX_ORBIT_STEPS={MAX_ORBIT_STEPS}$"):
            OrbitConfig(transient=transient, samples=samples)
    # Two int64 halves of 2**63 would wrap to a negative sum in numpy.
    with pytest.raises(ValueError, match=f"^transient \\+ samples={2**63} exceeds"):
        OrbitConfig(transient=np.int64(2**62), samples=np.int64(2**62))


def test_partition_rejects_a_box_with_no_axes():
    with pytest.raises(ValueError, match="partition box has no axes"):
        Partition((), 5)
    # Finite bounds whose width overflows, or whose bins / width does: unchecked,
    # every interior point fell in cell 0 (bins / inf = 0) and the top edge or
    # every point was coded INT64_MIN.
    for lo, hi in [(-1e308, 1e308), (0.0, 2e-323)]:
        with pytest.raises(ValueError) as err:
            Partition(((0.0, 1.0), (lo, hi)), 10)
        assert str(err.value) == f"box interval [{lo}, {hi}] has a width or bins / width that is not finite"
    assert Partition(((-1e307, 1e307),), 10).encode([-1e307, 0.0, 1e307]).tolist() == [0, 5, 9]
    assert Partition(((0.0, 1e-300),), 10).encode([0.0, 5e-301, 1e-300]).tolist() == [0, 5, 9]


@pytest.fixture
def no_orbits(monkeypatch):
    def refuse(system, cfg):
        raise AssertionError("an orbit was iterated before the inputs were checked")

    monkeypatch.setattr(classical, "iterate_orbit", refuse)


@pytest.mark.parametrize("eps", [-1.0, math.nan])
@pytest.mark.parametrize("name", ["eps_zero", "eps_const"])
def test_sweep_rejects_bad_thresholds_before_iterating(no_orbits, name, eps):
    with pytest.raises(ValueError, match=f"{name} must be a finite real number >= 0, got {eps!r}"):
        sweep(logistic_map(), 3.2, 3.3, 0.1, OrbitConfig(transient=0, samples=10), **{name: eps})


@pytest.mark.parametrize("value", [True, math.nan, math.inf, -math.inf, "0.5"],
                         ids=["bool", "nan", "inf", "-inf", "str"])
@pytest.mark.parametrize("name", ["start", "stop", "step", "eps_zero", "eps_const"])
def test_sweep_rejects_non_real_inputs_before_iterating(no_orbits, name, value):
    inputs = {"start": 3.2, "stop": 3.3, "step": 0.1, name: value}
    with pytest.raises(ValueError) as exc:
        sweep(logistic_map(), cfg=OrbitConfig(transient=0, samples=10), **inputs)
    text = str(exc.value)
    assert text.startswith(f"{name} must be a finite real number") and text.endswith(f", got {value!r}")


@pytest.mark.parametrize("grid, cfg, message", [
    ((3.5, 3.6, 0.1), OrbitConfig(transient=0, samples=1), "samples must be an integer >= 2, got 1"),
    ((3.0, 3.999999, 1e-6), OrbitConfig(samples=100_000), "rows * (transient + samples)=101000000000 "
                                                          f"exceeds the limit MAX_SWEEP_STEPS={MAX_SWEEP_STEPS}"),
], ids=["one-sample", "total-steps"])
def test_sweep_rejects_its_whole_workload_before_iterating(no_orbits, grid, cfg, message):
    with pytest.raises(ValueError) as exc:
        sweep(logistic_map(), *grid, cfg)
    assert str(exc.value) == message


def test_orbit_chaos_degree_rejects_one_sample_before_iterating(no_orbits):
    # `lyapunov_exponent` reads one sample; a chaos degree needs a transition.
    with pytest.raises(ValueError) as exc:
        orbit_chaos_degree(logistic_map(), OrbitConfig(samples=1))
    assert str(exc.value) == "samples must be an integer >= 2, got 1"


def test_lyapunov_exponent_reads_one_sample():
    # The one sample is f(0.5) = 0.875 at a = 3.5, where |f'| = |a (1 - 2 x)| = 2.625.
    cfg = OrbitConfig(transient=0, samples=1, x0=(0.5,), param=3.5)
    assert lyapunov_exponent(logistic_map(), cfg) == pytest.approx(math.log(2.625), abs=1e-12)


def test_sweep_admits_exactly_max_sweep_steps(no_orbits):
    # 1000 rows of 10**7 samples are the cap itself, so the first orbit is reached.
    cfg = OrbitConfig(transient=0, samples=MAX_SWEEP_STEPS // 1000)
    with pytest.raises(AssertionError, match="an orbit was iterated"):
        sweep(logistic_map(), 0.0, 999.0, 1.0, cfg)


@pytest.mark.parametrize("workers", [0, -3])
def test_sweep_rejects_nonpositive_workers(workers):
    with pytest.raises(ValueError, match=f"workers must be a positive integer, got {workers}"):
        sweep(logistic_map(), 3.5, 3.6, 0.1, OrbitConfig(transient=0, samples=10), workers=workers)


# The per-step peaks of one sweep point that the MAX_ORBIT_STEPS comment
# documents: (map, bins, documented bytes per step). They are measured at
# 10**6 samples, where the orbit-sized arrays dominate the fixed tables
# (at 2 * 10**5 samples the tables still add 20-30 B per step).
POINT_PEAKS = {
    "logistic-100": ("logistic", 100, 24),
    "logistic-1000": ("logistic", 1000, 31),
    "baker-100": ("baker", 100, 40),
    "tinkerbell-30": ("tinkerbell", 30, 56),
}
# Allowed excess over the documented peak, for allocator and library noise.
POINT_PEAK_MARGIN = 1.1


@pytest.mark.parametrize("case", POINT_PEAKS)
def test_a_sweep_point_stays_within_its_documented_bytes_per_step(case):
    name, bins, documented = POINT_PEAKS[case]
    system = classical.BUILTIN_MAPS[name]
    cfg = OrbitConfig(transient=1000, samples=10**6, param=3.9 if name == "logistic" else None)
    partition = Partition(system.box, bins)
    tracemalloc.start()
    try:
        classical._point_metrics(system, cfg, partition)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / cfg.samples <= documented * POINT_PEAK_MARGIN, peak / cfg.samples
