"""Chaos degree and Lyapunov exponents for iterated maps.

An orbit is binned into equal-width cells, the one-step transitions
between cells define an empirical stochastic channel, and the chaos
degree of the dynamics is the conditional entropy of that channel
weighted by the source-cell occupation:

    D = -sum_ij p_ij ln(p_ij / p_i).

This equals the decomposition-search chaos degree of the diagonal
density built from the occupation under the stochastic-channel
embedding, which the test suite exercises as a cross-module identity.

Each map has one form: a coordinate stream `points`, which yields the
orbit after its starting point as flat coordinates, and a `jacobian`
evaluated once on the whole orbit array. An orbit is read from its
stream into one array in doubling chunks, each checked against the
domain box as it arrives. Since a map is autonomous, an orbit whose last
read point repeats an earlier one bit for bit has entered a cycle: the
cycle is copied to fill the array, and the stream is read no further.
In a periodic window the float orbit closes its cycle within a few
hundred to a few thousand steps. The built-in maps are built from
module-level functions (their streams are generator functions), so
they pickle: a parallel sweep sends each worker the map object itself,
and only built-in maps use the pool.
Largest Lyapunov exponents come from that Jacobian along the same
orbit: the mean of ln|f'| in one dimension; in two, products of blocks
of consecutive Jacobians, each applied to a running unit vector whose
log growth is summed.

A sweep labels each row from a trailing window of its own D column with
`_label`: D = 0 stable, D at a constant positive level weakly stable,
chaotic otherwise.
"""

from __future__ import annotations

import itertools
import math
import sys
from typing import Callable

import numpy as np

from .exceptions import OrbitEscape
from .hilbert import DensityOperator, _Frozen, _Record, _brief, _check_integer, _check_real
from .channels import Channel

DEFAULT_TRANSIENT = 1000
DEFAULT_SAMPLES = 100_000
DEFAULT_BINS = 100
DEFAULT_WINDOW = 5
# Default `sweep` label thresholds: a window of D values is "stable"
# within DEFAULT_EPS_ZERO of 0 and "weak_stable" within DEFAULT_EPS_CONST
# of a constant.
DEFAULT_EPS_ZERO = 1e-3
DEFAULT_EPS_CONST = 1e-3
MAX_SWEEP_ROWS = 1_000_000
# Largest total work of one sweep, rows * (transient + samples) orbit
# steps. A whole sweep point whose orbit never repeats costs about 65 ns
# per step on the logistic map and 235 ns on the Tinkerbell map (10**6
# samples, one x86-64 core at full speed, numpy 2.4.6), so a sweep at the
# cap runs about 11 minutes of logistic points, or 39 of Tinkerbell ones,
# on one core; an orbit that closes a cycle costs less from there on. The
# cap bounds CPU work, not wall time: `workers` processes share it. At
# the default orbit (101,000 steps) it admits 99,009 rows.
MAX_SWEEP_STEPS = 10**10
# Largest sweep worker count. Each worker holds one sweep point at a
# time, up to 700 MB at MAX_ORBIT_STEPS, and a fork-started pool forks all
# its workers at the first submit; the standard library itself caps a
# Windows pool at 61.
MAX_WORKERS = 64
# Largest `transient + samples` of one orbit. `iterate_orbit` reads the
# map's coordinate stream into the orbit array a chunk at a time and
# peaks at about 9 B per step in one dimension and 17 B in two. Binning
# and pair counting bring a 1-D sweep point to 24 B per step at 100 bins
# and 31 B at 1000 (logistic map, a = 3.9). In 2-D a point peaks at 40 B
# per step on the baker map (100 bins) and at 56 B on the Tinkerbell map
# (30 bins), whose Jacobian stack of 32 B per step sets the peak
# (tracemalloc, 10**6 steps, x86-64, numpy 2.4.6); the blocked Lyapunov
# products after it hold a few MB per ORBIT_CHUNK slice. That is under 700 MB at the cap,
# which admits 10**7 samples after the default transient. A sweep holds
# one point per worker at a time.
MAX_ORBIT_STEPS = 12_000_000
# Jacobians per slice of the blocked Lyapunov products: a whole number of
# _LYAPUNOV_BLOCK blocks, so blocks start at the same steps whatever the
# slice length and the exponent's bits do not depend on it. One slice for
# the whole orbit would raise the 2-D peak to 164 B per step. It is also
# the largest chunk of points `iterate_orbit` reads from a map's stream.
ORBIT_CHUNK = 2**16
# Points in the first chunk `iterate_orbit` reads, so that an orbit which
# closes a cycle within a few hundred steps stops reading soon after.
_FIRST_CHUNK = 2**10
# Jacobians reduced to one product for each step of the Python loop.
_LYAPUNOV_BLOCK = 2**6
# Largest cell count bins ** dim of a Partition. Up to 2**53 the float
# cell index of each axis is exact; the int64 flat code is exact to 2**63.
MAX_PARTITION_CELLS = 2**53
# Bounds on a dense count table in `_unique_counts`: at most 2**20
# entries (8 MB of int64) and at most 4 entries per key counted.
DENSE_COUNT_CELLS = 2**20
DENSE_COUNT_RATIO = 4


class MapSystem(_Record):
    """A parameterized iterated map on a rectangular domain box.

    `points(start, a)` returns an iterator over the coordinates of the
    orbit x_1, x_2, ... after `start`, the checked initial point as a
    tuple of floats: `dim` real numbers per point, flat and in order.
    It is read no further than the orbit's length, so it may be endless.
    The map must be autonomous: each point's successor depends on that
    point alone, so an orbit that repeats a point bit for bit repeats
    all that follows it.
    `jacobian(orbit, a)` takes a whole (samples, dim) orbit array and
    returns the derivatives along it as an array broadcastable to
    (samples, dim, dim), with finite entries. `box` must be a sequence of
    (lo, hi) pairs and `default_x0` a sequence, or ValueError names the
    field. Every bound of `box`, every component of `default_x0` and
    `default_param` must be a finite real number, and each interval of
    `box` needs lo < hi; `box` and `default_x0` are stored as tuples of
    floats, so maps given arrays still compare.
    """

    __slots__ = ("name", "box", "default_x0", "default_param", "points", "jacobian")

    def __init__(self, name: str, box, default_x0, default_param: float, points: Callable,
                 jacobian: Callable):
        box = _check_box(box)
        default_x0 = _reals("default_x0", default_x0)
        default_param = _check_real("default_param", default_param)
        if len(box) not in (1, 2):
            raise ValueError(f"only 1- and 2-dimensional maps are supported, got {len(box)}")
        if len(default_x0) != len(box):
            raise ValueError("default_x0 must match the box dimension")
        self._set(name=name, box=box, default_x0=default_x0, default_param=default_param,
                  points=points, jacobian=jacobian)

    @property
    def dim(self) -> int:
        return len(self.box)


def _sequence(name: str, value, what: str, length: int | None = None) -> tuple:
    """The items of `value`, which must be `what`: an iterable, of `length`
    items when given, or ValueError names `name`."""
    try:
        items = tuple(value)
    except TypeError:
        items = None
    if items is None or length not in (None, len(items)):
        raise ValueError(f"{name} must be {what}, got {_brief(value)}")
    return items


def _reals(name: str, value) -> tuple[float, ...]:
    """`value` as a tuple of floats, each a finite real number."""
    return tuple(_check_real(name, v) for v in _sequence(name, value, "a sequence of real numbers"))


def _check_box(box) -> tuple[tuple[float, float], ...]:
    """`box` as (lo, hi) pairs of floats, each bound a finite real number and lo < hi."""
    pairs = _sequence("box", box, "a sequence of (lo, hi) pairs")
    box = tuple(_reals("box", _sequence("box interval", pair, "a pair (lo, hi)", 2)) for pair in pairs)
    if any(hi <= lo for lo, hi in box):
        raise ValueError("box intervals must have positive width")
    return box


def _logistic_points(start, a):
    (x,) = start
    while True:
        x = a * x * (1.0 - x)
        yield x


def _logistic_jacobian(orbit, a):
    # a (1 - 2x), computed in the one array 2x.
    jac = 2.0 * orbit
    np.subtract(1.0, jac, out=jac)
    jac *= a
    return jac[:, :, None]


def logistic_map() -> MapSystem:
    """x -> a x (1 - x) on [0, 1]."""
    return MapSystem(
        name="logistic",
        box=((0.0, 1.0),),
        default_x0=(0.3,),
        default_param=3.8,
        points=_logistic_points,
        jacobian=_logistic_jacobian,
    )


def _baker_points(start, a):
    x, y = start
    while True:
        branch = 1.0 if x >= 0.5 else 0.0
        x, y = 2.0 * x - branch, 0.5 * (y + branch)
        yield x
        yield y


def _baker_jacobian(orbit, a):
    return np.array([[2.0, 0.0], [0.0, 0.5]])


def baker_map() -> MapSystem:
    """Stretch-and-fold map of the unit square; the parameter is unused.

    The branch form keeps the endpoint x = 1 inside the square, where
    the textbook `2x mod 1` would fold it to 0.

    In floating point the orbit collapses onto the fixed point (0, 0):
    each doubling of x shifts one bit of its 53-bit mantissa out, so from
    the default x0 = (0.3, 0.3) x is exactly 0.0 from the 54th point on
    and y halves towards 0. A default orbit (transient 1000) therefore
    visits one cell and its chaos degree reads 0.0, while the Lyapunov
    exponent, read from the constant Jacobian, reads ln 2.
    """
    return MapSystem(
        name="baker",
        box=((0.0, 1.0), (0.0, 1.0)),
        default_x0=(0.3, 0.3),
        default_param=0.0,
        points=_baker_points,
        jacobian=_baker_jacobian,
    )


# Fixed Tinkerbell coefficients; only the first-coordinate one is swept.
_TINKERBELL_B, _TINKERBELL_C, _TINKERBELL_D = -0.6013, 2.0, 0.5


def _tinkerbell_points(start, a):
    x, y = start
    b, c, d = _TINKERBELL_B, _TINKERBELL_C, _TINKERBELL_D
    while True:
        x, y = x * x - y * y + a * x + b * y, 2.0 * x * y + c * x + d * y
        yield x
        yield y


def _tinkerbell_jacobian(orbit, a):
    # Each entry scale * coordinate + shift is computed in its slot of the
    # one (samples, 2, 2) array, so the Jacobian takes no temporaries.
    x, y = orbit[:, 0], orbit[:, 1]
    jac = np.empty((orbit.shape[0], 2, 2))
    for entry, coord, scale, shift in ((jac[:, 0, 0], x, 2.0, a),
                                       (jac[:, 0, 1], y, -2.0, _TINKERBELL_B),
                                       (jac[:, 1, 0], y, 2.0, _TINKERBELL_C),
                                       (jac[:, 1, 1], x, 2.0, _TINKERBELL_D)):
        np.multiply(scale, coord, out=entry)
        entry += shift
    return jac


def tinkerbell_map() -> MapSystem:
    """Tinkerbell map with the swept parameter in the first coordinate."""
    return MapSystem(
        name="tinkerbell",
        box=((-2.0, 2.0), (-2.0, 2.0)),
        default_x0=(-0.72, -0.64),
        default_param=0.9,
        points=_tinkerbell_points,
        jacobian=_tinkerbell_jacobian,
    )


BUILTIN_MAPS: dict[str, MapSystem] = {
    "logistic": logistic_map(),
    "baker": baker_map(),
    "tinkerbell": tinkerbell_map(),
}


class OrbitConfig(_Record):
    """Initial point, transient length, sample length, and parameter.

    `x0` and `param` default to the map's own defaults when None; given,
    `x0` must be a sequence, and each component of `x0` and `param` a
    finite real number, or ValueError names the field. An
    orbit longer than MAX_ORBIT_STEPS in all raises ValueError.
    """

    __slots__ = ("x0", "transient", "samples", "param")

    def __init__(self, x0=None, transient: int = DEFAULT_TRANSIENT, samples: int = DEFAULT_SAMPLES,
                 param: float | None = None):
        # Python ints, so that numpy integers cannot wrap past the cap here.
        samples = _check_integer("samples", samples, 1)
        transient = _check_integer("transient", transient, 0)
        _check_integer("transient + samples", transient + samples, None, "MAX_ORBIT_STEPS", MAX_ORBIT_STEPS)
        self._set(x0=None if x0 is None else _reals("x0", x0), transient=transient, samples=samples,
                  param=None if param is None else _check_real("param", param))


def _resolve(system: MapSystem, cfg: OrbitConfig) -> tuple[tuple[float, ...], float]:
    x0 = system.default_x0 if cfg.x0 is None else cfg.x0
    if len(x0) != system.dim:
        raise ValueError(f"x0 has dimension {len(x0)}, map needs {system.dim}")
    a = system.default_param if cfg.param is None else cfg.param
    for v, (lo, hi) in zip(x0, system.box):
        if not lo <= v <= hi:
            raise ValueError(f"x0 component {v} outside box [{lo}, {hi}]")
    return x0, a


def _inside(values: np.ndarray, low: float, high: float) -> bool:
    """Whether every entry of the non-empty array `values` lies in [low, high],
    read from its min() and max(): two passes and no mask. Both are NaN
    when an entry is, and NaN fails both comparisons."""
    return bool(low <= values.min() and values.max() <= high)


def iterate_orbit(system: MapSystem, cfg: OrbitConfig) -> np.ndarray:
    """Post-transient orbit as an array of shape (samples, dim).

    The map's stream is read in chunks of whole points into one
    (transient + samples, dim) array: _FIRST_CHUNK points first, then
    twice as many each time, up to ORBIT_CHUNK. Each chunk is checked
    against the domain box as soon as it is read, by the min() and max()
    of each axis; leaving the box (or turning NaN) raises OrbitEscape at
    the first such step, which a per-step mask finds in a chunk that
    fails, rather than clipping, since clipped points would silently
    corrupt the transition statistics. Then the bit pattern of the
    chunk's last point is looked up among the chunk's earlier points. If
    the nearest equal point is p steps back, the orbit has entered a
    cycle of period p, since each point's successor depends on that
    point alone: whole periods are copied in place to fill the array,
    and the stream is read no further. Bit patterns keep 0.0 and -0.0
    apart, so the array equals the one a single read of the whole stream
    gives. A stream that ends before the orbit is read, or has closed a
    cycle, raises ValueError.
    """
    x0, a = _resolve(system, cfg)
    total = cfg.transient + cfg.samples
    orbit = np.empty((total, system.dim))
    bits = orbit.view(np.int64)
    stream = system.points(x0, a)
    lo, size = 0, _FIRST_CHUNK
    while lo < total:
        hi = min(lo + size, total)
        orbit[lo:hi] = np.fromiter(stream, dtype=float,
                                   count=(hi - lo) * system.dim).reshape(hi - lo, system.dim)
        # One axis at a time: numpy reduces a short inner axis slowly.
        if not all(_inside(orbit[lo:hi, axis], low, high)
                   for axis, (low, high) in enumerate(system.box)):
            inside = np.ones(hi - lo, dtype=bool)
            for axis, (low, high) in enumerate(system.box):
                inside &= orbit[lo:hi, axis] >= low
                inside &= orbit[lo:hi, axis] <= high
            t = lo + int(np.argmin(inside))
            raise OrbitEscape(orbit[t], system.box, t)
        repeats = bits[lo:hi - 1, 0] == bits[hi - 1, 0]
        for axis in range(1, system.dim):
            repeats &= bits[lo:hi - 1, axis] == bits[hi - 1, axis]
        if repeats.any():
            # orbit[start:end] holds whole periods; each copy doubles it.
            start, end = lo + 1 + int(np.flatnonzero(repeats)[-1]), hi
            while end < total:
                n = min(end - start, total - end)
                orbit[end:end + n] = orbit[start:start + n]
                end += n
            break
        lo, size = hi, min(2 * size, ORBIT_CHUNK)
    return orbit[cfg.transient:]


class Partition(_Record):
    """Equal-width binning of a rectangular box, bins per axis.

    Cells are half-open with the top edge closed, so every boundary
    point gets exactly one cell and the box is covered. More than
    MAX_PARTITION_CELLS cells in all raise ValueError, as does an
    interval whose width hi - lo or bins / width is not finite (a box
    too wide, or too narrow, to scale into cells).
    """

    __slots__ = ("box", "bins")

    def __init__(self, box, bins: int = DEFAULT_BINS):
        # A Python int, so that a numpy integer `bins` cannot overflow here.
        bins = _check_integer("bins", bins, 2)
        box = _check_box(box)
        if not box:
            raise ValueError("partition box has no axes")
        _check_integer("bins ** dim", bins ** len(box), None, "MAX_PARTITION_CELLS", MAX_PARTITION_CELLS)
        for lo, hi in box:
            if not (math.isfinite(hi - lo) and math.isfinite(bins / (hi - lo))):
                raise ValueError(f"box interval [{lo}, {hi}] has a width or bins / width "
                                 f"that is not finite")
        self._set(box=box, bins=bins)

    def encode(self, points) -> np.ndarray:
        """Flat int64 cell codes (row-major across axes) for an array of points.

        Each axis is checked against the box by its min() and max(), so a
        point outside it or a NaN raises ValueError naming the first such
        axis, and is then shifted, scaled and truncated to cell indices;
        the first axis's indices become the code array. No points give an
        empty array.
        """
        try:
            pts = np.asarray(points, dtype=float)
        except OverflowError:  # an integer beyond the float range
            raise ValueError("points have a non-finite entry") from None
        if pts.ndim not in (1, 2):
            raise ValueError(f"points must be a 1-d or 2-d array, got shape {pts.shape}")
        if pts.ndim == 1:
            pts = pts[:, None]
        if pts.shape[1] != len(self.box):
            raise ValueError(f"points have dimension {pts.shape[1]}, box has {len(self.box)}")
        if not pts.shape[0]:
            return np.zeros(0, dtype=np.int64)
        for axis, (lo, hi) in enumerate(self.box):
            col = pts[:, axis]
            if not _inside(col, lo, hi):
                raise ValueError(f"points outside box [{lo}, {hi}] or NaN on axis {axis}")
            scaled = col - lo
            scaled *= self.bins / (hi - lo)
            idx = scaled.astype(np.int64)
            np.minimum(idx, self.bins - 1, out=idx)
            if axis:
                codes *= self.bins
                codes += idx
            else:
                codes = idx
        return codes


def _unique_counts(keys: np.ndarray, size: int, inverse: bool = False) -> tuple:
    """`np.unique(keys, return_inverse=inverse, return_counts=True)` for
    int64 `keys` in [0, size): the distinct keys ascending, with each
    key's position among them when `inverse` is set, and their counts.

    The keys are counted with `np.bincount` into a dense table when
    `size` is at most DENSE_COUNT_CELLS and at most DENSE_COUNT_RATIO
    entries per key, and sorted otherwise: zeroing and scanning the table
    cost as much as the sort at about 4 entries per key (x86-64, numpy
    2.4.6). The sort takes `np.unique`'s steps on one copy of the keys,
    where `np.unique` would flatten a second: int32 when `size` is at
    most 2**31, so that every key fits, which sorts 10**5 keys in about
    half the time of int64; the distinct keys are returned as int64.
    `np.flatnonzero` lists the table's keys in the same ascending order,
    and with `inverse` the table is read from then on as the key ->
    position lookup, so both paths give the same arrays, dtypes included.
    """
    if size > min(DENSE_COUNT_CELLS, DENSE_COUNT_RATIO * keys.size):
        ordered = keys.astype(np.int32 if size <= 2**31 else np.int64)
        if inverse:
            order = ordered.argsort()
            ordered = ordered[order]
        else:
            ordered.sort()
        first = np.empty(ordered.size, dtype=bool)
        first[:1] = True
        np.not_equal(ordered[1:], ordered[:-1], out=first[1:])
        starts = np.flatnonzero(first)
        unique = ordered[starts].astype(np.int64)
        counts = np.diff(starts, append=ordered.size)
        if not inverse:
            return unique, counts
        positions = np.empty(ordered.size, dtype=np.intp)
        positions[order] = np.cumsum(first) - 1
        return unique, positions, counts
    table = np.bincount(keys)
    # flatnonzero scans a bool array several times faster than int64.
    unique = np.flatnonzero(table != 0)
    counts = table[unique]
    if not inverse:
        return unique, counts
    table[unique] = np.arange(unique.size)
    return unique, table[keys], counts


class EmpiricalChannel(_Frozen):
    """One-step transition statistics of a binned orbit.

    `EmpiricalChannel(orbit, partition)` bins the orbit with
    `partition.encode` and counts its cells, and then the pairs of cells
    of its consecutive points, each with one call of `_unique_counts`
    (keys below the partition's bins ** dim cells, then below m * m pairs
    of the m visited cells), which counts into a dense table or sorts;
    both paths give the same arrays and the same D. An orbit of fewer
    than 2 points raises ValueError, as does any point `encode` rejects.

    `cells` lists every visited cell code (as source or destination) in
    ascending order, and the pairs (`pair_positions`, positions into
    `cells`, with their `pair_counts`) come in ascending order of their
    flat index src * m + dst. `source_counts` (int64) is the number of
    transitions leaving each cell, summing to the orbit length minus one:
    the cell's count of points, less one at the last point's cell. Both
    the occupation distribution and the row totals of the pair counts are
    read from it. Dest-only cells have count zero, and their transition
    rows (never observed) are filled with a self-loop purely to keep the
    matrix stochastic; they contribute nothing to any entropy sum.
    Instances are immutable.
    """

    __slots__ = ("cells", "source_counts", "pair_positions", "pair_counts")

    def __init__(self, orbit, partition: Partition):
        codes = partition.encode(orbit)
        if codes.size < 2:
            raise ValueError("orbit must contain at least 2 points")
        cells, positions, cell_counts = _unique_counts(codes, partition.bins ** len(partition.box), inverse=True)
        m = cells.size
        # The int64 pair keys overwrite the codes, which are read no further.
        pair_keys = np.multiply(positions[:-1], m, out=codes[:-1])
        pair_keys += positions[1:]
        pairs, pair_counts = _unique_counts(pair_keys, m * m)
        source_counts = cell_counts.astype(np.int64)
        source_counts[positions[-1]] -= 1
        self._set(cells=cells, source_counts=source_counts, pair_counts=pair_counts,
                  pair_positions=np.stack([pairs // m, pairs % m], axis=1))

    @property
    def size(self) -> int:
        return int(self.cells.size)

    @property
    def occupation(self) -> np.ndarray:
        """Source-occupation distribution over `cells`."""
        return self.source_counts / self.source_counts.sum()

    def transition_matrix(self) -> np.ndarray:
        n = self.size
        p = np.zeros((n, n), dtype=float)
        src = self.pair_positions[:, 0]
        dst = self.pair_positions[:, 1]
        p[src, dst] = self.pair_counts
        silent = self.source_counts == 0
        p[silent, silent] = 1.0
        return p / np.where(silent, 1, self.source_counts)[:, None]

    def conditional_entropy(self) -> float:
        """-sum_ij p_ij ln(p_ij / p_i), directly from the pair counts."""
        counts = self.pair_counts.astype(float)
        total = counts.sum()
        row_totals = self.source_counts[self.pair_positions[:, 0]]
        return float(np.sum((counts / total) * np.log(row_totals / counts)))

    def as_state_and_channel(self) -> tuple[DensityOperator, Channel]:
        """Diagonal density and stochastic channel over the visited cells."""
        return (
            DensityOperator(np.diag(self.occupation).astype(complex)),
            Channel("stochastic", self.transition_matrix()),
        )


def empirical_channel(orbit, partition: Partition) -> EmpiricalChannel:
    """The empirical channel of `orbit` binned by `partition`: `EmpiricalChannel(orbit, partition)`."""
    return EmpiricalChannel(orbit, partition)


def orbit_chaos_degree(system: MapSystem, cfg: OrbitConfig | None = None,
                       partition: Partition | None = None) -> float:
    """Chaos degree of a map's orbit under the given binning.

    The orbit needs at least 2 samples, one transition; fewer raise
    ValueError "samples must be an integer >= 2, got N" before any orbit
    is iterated.
    """
    cfg = cfg or OrbitConfig()
    _check_integer("samples", cfg.samples, 2)
    part = partition or Partition(system.box)
    orbit = iterate_orbit(system, cfg)
    return empirical_channel(orbit, part).conditional_entropy()


def _lyapunov_from_orbit(system: MapSystem, orbit: np.ndarray, a: float) -> float:
    """Mean log growth of a tangent vector along `orbit`; -inf once its norm is exactly 0.

    The map's Jacobian must broadcast to (samples, dim, dim) with finite
    entries, or ValueError names the map. In two dimensions the Jacobians
    are multiplied in blocks of _LYAPUNOV_BLOCK steps, ORBIT_CHUNK steps at
    a time, and a Python loop applies each block's product to the running
    unit vector.
    """
    n, dim = orbit.shape
    raw = np.asarray(system.jacobian(orbit, a), dtype=float)
    try:
        jac = np.broadcast_to(raw, (n, dim, dim))
    except ValueError:
        raise ValueError(f"jacobian of map {system.name!r} has shape {raw.shape}, "
                         f"which does not broadcast to ({n}, {dim}, {dim})") from None
    if not np.isfinite(raw).all():
        raise ValueError(f"jacobian of map {system.name!r} has a non-finite entry")
    if dim == 1:
        derivs = np.abs(jac.reshape(n))
        # The derivatives are finite and nonnegative, so none is 0 unless the least is.
        if derivs.min() == 0.0:
            return -math.inf
        return float(np.log(derivs, out=derivs).mean())

    v0, v1 = 1.0, 0.0
    acc, exponent = 0.0, 0
    for lo in range(0, n, ORBIT_CHUNK):
        for (j00, j01, j10, j11), e in zip(*_block_products(jac[lo:lo + ORBIT_CHUNK])):
            w0 = j00 * v0 + j01 * v1
            w1 = j10 * v0 + j11 * v1
            norm = math.hypot(w0, w1)
            if norm == 0.0:
                return -math.inf
            acc += math.log(norm)
            exponent += e
            v0, v1 = w0 / norm, w1 / norm
    return (acc + exponent * math.log(2.0)) / n


def _block_products(jac: np.ndarray) -> tuple[list, list]:
    """Products J_last ... J_first of each block of _LYAPUNOV_BLOCK steps of
    the (steps, 2, 2) stack `jac`, as rows (j00, j01, j10, j11), with the
    power-of-two exponent each row was scaled down by.

    The last block is padded with identities. The products are taken
    pairwise, one stacked level per halving, and every Jacobian and every
    level's product is scaled by `_scaled`, so no entry overflows or
    underflows whatever the Jacobians' scale.
    """
    steps = len(jac)
    blocks = -(-steps // _LYAPUNOV_BLOCK)
    flat = np.empty((blocks * _LYAPUNOV_BLOCK, 4))
    flat[:steps] = jac.reshape(steps, 4)
    flat[steps:] = (1.0, 0.0, 0.0, 1.0)
    # Entry, then step within the block, then block: a level pairs whole rows.
    m = flat.reshape(blocks, _LYAPUNOV_BLOCK, 4).transpose(2, 1, 0).copy()
    exponents = np.zeros(blocks, dtype=np.int64)
    m = _scaled(m, exponents)
    while m.shape[1] > 1:
        (a0, b0, c0, d0), (a1, b1, c1, d1) = m[:, 0::2], m[:, 1::2]
        m = np.empty((4,) + a0.shape)
        np.add(a1 * a0, b1 * c0, out=m[0])
        np.add(a1 * b0, b1 * d0, out=m[1])
        np.add(c1 * a0, d1 * c0, out=m[2])
        np.add(c1 * b0, d1 * d0, out=m[3])
        m = _scaled(m, exponents)
    return m[:, 0].T.tolist(), exponents.tolist()


def _scaled(m: np.ndarray, exponents: np.ndarray) -> np.ndarray:
    """The (4, k, blocks) matrices `m`, each divided by 2**e for the e that
    brings its largest |entry| into [0.5, 1) (clipped to +-1021, so 2**-e is
    a normal float), with each block's e added to `exponents`.

    A power of two scales exactly, and a zero matrix keeps e = 0.
    """
    _, e = np.frexp(np.abs(m).max(axis=0))
    np.clip(e, -1021, 1021, out=e)
    exponents += e.sum(axis=0)
    return np.ldexp(m, -e)


def lyapunov_exponent(system: MapSystem, cfg: OrbitConfig | None = None) -> float:
    """Largest Lyapunov exponent along the post-transient orbit.

    Returns -inf when a sampled derivative vanishes exactly and the
    log-average diverges. A Jacobian that does not broadcast to
    (samples, dim, dim), or has a NaN or infinite entry, raises
    ValueError naming the map.
    """
    cfg = cfg or OrbitConfig()
    _, a = _resolve(system, cfg)
    orbit = iterate_orbit(system, cfg)
    return _lyapunov_from_orbit(system, orbit, a)


class SweepRow(_Record):
    """One grid point of a sweep: `param`, `chaos_degree` and `lyapunov`
    (floats) and its `label` (str)."""

    __slots__ = ("param", "chaos_degree", "lyapunov", "label")


def _point_metrics(system: MapSystem, cfg: OrbitConfig, partition: Partition) -> tuple[float, float]:
    orbit = iterate_orbit(system, cfg)
    _, a = _resolve(system, cfg)
    return (empirical_channel(orbit, partition).conditional_entropy(),
            _lyapunov_from_orbit(system, orbit, a))


def __getattr__(name):
    """`ProcessPoolExecutor`, imported when first read: its module loads
    multiprocessing, which only a parallel sweep needs."""
    if name == "ProcessPoolExecutor":
        from concurrent.futures import ProcessPoolExecutor
        return ProcessPoolExecutor
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def sweep(system: MapSystem, start: float, stop: float, step: float,
          cfg: OrbitConfig | None = None, partition: Partition | None = None, *,
          eps_zero: float = DEFAULT_EPS_ZERO, eps_const: float = DEFAULT_EPS_CONST,
          window: int = DEFAULT_WINDOW, workers: int = 1) -> list[SweepRow]:
    """Chaos degree and Lyapunov exponent over a parameter range.

    Produces one row per parameter value from `start` to `stop`
    inclusive in increments of `step`. Row i is labeled by `_label` from
    the chaos degrees of rows max(0, i - window + 1) to i, a view of one
    float64 array of the D column, so the labels cost one numpy pass per
    row over min(window, rows) values. Every row is one call of
    the same per-point function on (system, config, partition). When
    `workers` and the row count both exceed 1 and `system` equals one of
    BUILTIN_MAPS, the calls go to a pool of min(workers, rows) processes,
    which receives those objects pickled; any other map runs in this
    process whatever `workers` says, since its point stream and Jacobian
    need not pickle. Results are ordered by parameter and identical at
    any worker count. Grid bounds and thresholds that are not finite real
    numbers, a negative threshold, grids of more than MAX_SWEEP_ROWS rows,
    a `workers` below 1 or above MAX_WORKERS, fewer than 2 samples and
    more than MAX_SWEEP_STEPS orbit steps in all (rows times transient
    plus samples) raise ValueError before any orbit is iterated.
    """
    start = _check_real("start", start)
    stop = _check_real("stop", stop)
    step = _check_real("step", step)
    if step <= 0:
        raise ValueError("step must be positive")
    if stop < start:
        raise ValueError("stop must not precede start")
    _check_integer("window", window, 1)
    _check_integer("workers", workers, 1, "MAX_WORKERS", MAX_WORKERS)
    eps_zero = _check_real("eps_zero", eps_zero, 0.0)
    eps_const = _check_real("eps_const", eps_const, 0.0)
    span = (stop - start) / step
    count = int(math.floor(span + 1e-9)) + 1 if math.isfinite(span) else math.inf
    if count > MAX_SWEEP_ROWS:
        raise ValueError(f"sweep grid has {_brief(count)} rows, more than the limit of {MAX_SWEEP_ROWS}")
    cfg = cfg or OrbitConfig()
    part = partition or Partition(system.box)
    _check_integer("samples", cfg.samples, 2)
    _check_integer("rows * (transient + samples)", count * (cfg.transient + cfg.samples), 1,
                   "MAX_SWEEP_STEPS", MAX_SWEEP_STEPS)
    params = [start + k * step for k in range(count)]
    cfgs = [OrbitConfig(cfg.x0, cfg.transient, cfg.samples, a) for a in params]
    pool_size = min(workers, len(cfgs))
    if pool_size > 1 and system in BUILTIN_MAPS.values():
        # Read as a module attribute, so a class set there (as the benchmark's
        # tracer sets one) makes the pool.
        with sys.modules[__name__].ProcessPoolExecutor(max_workers=pool_size) as pool:
            metrics = list(pool.map(_point_metrics, itertools.repeat(system), cfgs,
                                    itertools.repeat(part)))
    else:
        metrics = [_point_metrics(system, c, part) for c in cfgs]

    d_values = np.array([d for d, _ in metrics])
    return [
        SweepRow(a, d, lam, _label(d_values[max(0, i - window + 1):i + 1], eps_zero, eps_const))
        for i, (a, (d, lam)) in enumerate(zip(params, metrics))
    ]


def _label(d_values: np.ndarray, eps_zero: float, eps_const: float) -> str:
    """The label of a non-empty float64 window of chaos-degree values:
    "stable" when they all lie within `eps_zero` of 0, "weak_stable" when
    they lie within `eps_const` of one another and their mean exceeds
    `eps_zero`, "chaotic" otherwise. The values and thresholds are not
    checked here; `sweep` checks the thresholds before any orbit.
    """
    if np.all(np.abs(d_values) <= eps_zero):
        return "stable"
    if float(d_values.max() - d_values.min()) <= eps_const and float(d_values.mean()) > eps_zero:
        return "weak_stable"
    return "chaotic"


def sweep_to_csv(rows) -> str:
    """CSV text for sweep rows: header a,D,lyapunov,label, 9 significant
    digits, LF line endings."""
    lines = ["a,D,lyapunov,label"]
    for row in rows:
        lines.append(
            f"{row.param:.9g},{row.chaos_degree:.9g},{row.lyapunov:.9g},{row.label}"
        )
    return "\n".join(lines) + "\n"
