import concurrent.futures
import math
import pickle
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from infodyn import classical
from infodyn.classical import (
    BUILTIN_MAPS,
    MAX_ORBIT_STEPS,
    MAX_PARTITION_CELLS,
    MAX_SWEEP_ROWS,
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
    return MapSystem(
        name="constant",
        box=((0.0, 1.0),),
        default_x0=(0.3,),
        default_param=0.0,
        step=lambda x, a: c,
        jacobian=lambda orbit, a: np.zeros((1, 1)),
    )


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
    runaway = MapSystem(
        name="runaway",
        box=((0.0, 1.0),),
        default_x0=(0.1,),
        default_param=0.0,
        step=lambda x, a: x * 2.0 + 1.0,
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


def test_orbit_nan_counts_as_escape():
    nan_map = MapSystem(
        name="nan",
        box=((0.0, 1.0),),
        default_x0=(0.5,),
        default_param=0.0,
        step=lambda x, a: x if x < 0.5 else float("nan"),
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
    for build in (lambda: replace(logistic_map(), box=box), lambda: Partition(box, 10)):
        with pytest.raises(ValueError) as err:
            build()
        assert str(err.value) == "box intervals must have positive width"


@pytest.mark.parametrize("call, message", [
    (lambda: replace(logistic_map(), box=((0.0, 1.0),) * 3, default_x0=(0.3,) * 3),
     "only 1- and 2-dimensional maps are supported, got 3"),
    (lambda: replace(logistic_map(), default_x0=(0.3, 0.3)), "default_x0 must match the box dimension"),
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
    flat = MapSystem(name="flat", box=((0.0, 1.0), (0.0, 1.0)), default_x0=(0.3, 0.3),
                     default_param=0.0, step=lambda p, a: (0.5, 0.5),
                     jacobian=lambda orbit, a: np.zeros((2, 2)))
    assert lyapunov_exponent(flat, OrbitConfig(transient=10, samples=100)) == -math.inf


def test_custom_map_from_step_and_jacobian_matches_builtin_logistic():
    def step(x, a):
        return a * x * (1.0 - x)

    def jacobian(orbit, a):
        return (a * (1.0 - 2.0 * orbit)).reshape(-1, 1, 1)

    custom = MapSystem(
        name="custom-logistic",
        box=((0.0, 1.0),),
        default_x0=(0.3,),
        default_param=3.8,
        step=step,
        jacobian=jacobian,
    )
    for a in (3.2, 3.7, 4.0):
        cfg = OrbitConfig(transient=200, samples=5000, param=a)
        assert np.array_equal(iterate_orbit(custom, cfg), iterate_orbit(logistic_map(), cfg))
        assert lyapunov_exponent(custom, cfg) == lyapunov_exponent(logistic_map(), cfg)


def test_tinkerbell_matches_per_step_reference():
    # Reference: the per-point step and Jacobian in plain Python floats,
    # with the renormalised tangent recurrence; the array path must give
    # the same bits.
    a, b, c, d = 0.9, -0.6013, 2.0, 0.5
    x, y = -0.72, -0.64
    points = []
    for _ in range(100 + 2000):
        x, y = x * x - y * y + a * x + b * y, 2.0 * x * y + c * x + d * y
        points.append((x, y))
    v0, v1, acc = 1.0, 0.0, 0.0
    for x, y in points[100:]:
        w0 = (2.0 * x + a) * v0 + (-2.0 * y + b) * v1
        w1 = (2.0 * y + c) * v0 + (2.0 * x + d) * v1
        norm = math.hypot(w0, w1)
        acc += math.log(norm)
        v0, v1 = w0 / norm, w1 / norm
    cfg = OrbitConfig(transient=100, samples=2000, param=a)
    assert iterate_orbit(tinkerbell_map(), cfg).tolist() == [list(p) for p in points[100:]]
    assert lyapunov_exponent(tinkerbell_map(), cfg) == acc / 2000


@pytest.mark.parametrize("chunk", [1, 13])
def test_orbit_chunk_size_does_not_change_results(monkeypatch, chunk):
    cases = [(logistic_map(), OrbitConfig(transient=5, samples=200)),
             (tinkerbell_map(), OrbitConfig(transient=100, samples=2000)),
             (baker_map(), OrbitConfig(x0=(0.3, 0.4), transient=3, samples=50))]
    expected = [(iterate_orbit(s, c), lyapunov_exponent(s, c)) for s, c in cases]
    monkeypatch.setattr(classical, "ORBIT_CHUNK", chunk)
    for (system, cfg), (orbit, lam) in zip(cases, expected):
        assert np.array_equal(iterate_orbit(system, cfg), orbit)
        assert lyapunov_exponent(system, cfg) == lam
    with pytest.raises(OrbitEscape) as err:
        iterate_orbit(tinkerbell_map(), OrbitConfig(transient=1000, samples=100, param=0.93))
    assert err.value.step_index == 78


def _ring_step(x, a):
    return float((3 * int(x) + 1) % 7)


RING = MapSystem(name="ring", box=((0.0, 6.0),), default_x0=(2.0,), default_param=0.0,
                 step=_ring_step, jacobian=lambda orbit, a: np.ones((1, 1)))


@pytest.mark.parametrize("system, step", [
    (logistic_map(), lambda x, a: np.float64(classical._logistic_step(x, a))),
    (RING, lambda x, a: int(_ring_step(x, a))),
    (tinkerbell_map(), lambda p, a: list(classical._tinkerbell_step(p, a))),
    (tinkerbell_map(), lambda p, a: np.array(classical._tinkerbell_step(p, a))),
], ids=["float64", "int", "list", "ndarray"])
def test_orbit_takes_every_numeric_step_output(system, step):
    # A step may return any real scalar in 1-D and any pair in 2-D; the
    # orbit equals the one its float or tuple form gives.
    cfg = OrbitConfig(transient=10, samples=500)
    expected = iterate_orbit(system, cfg)
    orbit = iterate_orbit(replace(system, step=step), cfg)
    assert orbit.dtype == float and orbit.shape == (500, system.dim)
    assert np.array_equal(orbit, expected)


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


def test_tinkerbell_default_orbit_bounded():
    orbit = iterate_orbit(tinkerbell_map(), OrbitConfig(transient=1000, samples=1000))
    assert np.all(np.abs(orbit) <= 2.0)


def test_partition_encodes_edges():
    part = Partition(((0.0, 1.0),), bins=4)
    codes = part.encode(np.array([[0.0], [0.24], [0.25], [0.999], [1.0]]))
    assert codes.tolist() == [0, 0, 1, 3, 3]


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


@pytest.mark.parametrize("system, cfg, bins", [
    (logistic_map(), OrbitConfig(transient=100, samples=20_000, param=3.8), 100),
    (logistic_map(), OrbitConfig(transient=100, samples=20_000, param=4.0), 1000),
    (tinkerbell_map(), OrbitConfig(transient=1000, samples=10_000), 100),
    (baker_map(), OrbitConfig(x0=(0.3, 0.4), transient=0, samples=2000), 30),
], ids=["logistic-100", "logistic-1000", "tinkerbell", "baker"])
def test_dense_and_sorted_counts_give_the_same_channel(system, cfg, bins):
    orbit = iterate_orbit(system, cfg)
    part = Partition(system.box, bins)
    dense, sort = _channels_on_both_paths(orbit, part)
    # Both tables fit the cap, so the first channel came from bincount alone.
    assert bins ** system.dim <= classical.DENSE_COUNT_CELLS
    assert dense.size ** 2 <= classical.DENSE_COUNT_CELLS
    _assert_same_channel(dense, sort)
    _assert_same_channel(empirical_channel(orbit, part), sort)


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


def test_sweep_on_custom_map_named_like_builtin_stays_custom():
    # A user map that borrows a builtin name must not be swapped for
    # the builtin inside the worker pool.
    fake = MapSystem(
        name="logistic",
        box=((0.0, 1.0),),
        default_x0=(0.3,),
        default_param=0.0,
        step=lambda x, a: 0.25,
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
        step=lambda x, a: 0.25,
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
        with pytest.raises(ValueError, match=f"= {MAX_ORBIT_STEPS + 1} steps exceeds the limit "
                                             f"MAX_ORBIT_STEPS={MAX_ORBIT_STEPS}"):
            OrbitConfig(transient=transient, samples=samples)


def test_partition_rejects_a_box_with_no_axes():
    with pytest.raises(ValueError, match="partition box has no axes"):
        Partition((), 5)


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


@pytest.mark.parametrize("workers", [0, -3])
def test_sweep_rejects_nonpositive_workers(workers):
    with pytest.raises(ValueError, match=f"workers must be a positive integer, got {workers}"):
        sweep(logistic_map(), 3.5, 3.6, 0.1, OrbitConfig(transient=0, samples=10), workers=workers)
