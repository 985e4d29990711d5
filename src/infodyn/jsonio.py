"""JSON wire formats for states, channels, experiment and batch files.

A complex number is a two-element array [re, im]; a matrix is a
row-major array of rows of those. Plain numbers are accepted on input
wherever a complex entry is expected. JSON booleans are never numbers,
and NaN or infinite entries (which `json.load` accepts) are rejected.
An experiment's signals come back as an iterable that is consumed once:
a single `rho` is repeated lazily, so `steps` costs no memory.
"""

from __future__ import annotations

import cmath
import itertools
import json
from typing import Any

import numpy as np

from .channels import Channel, kraus_channel, schur_channel, stochastic_channel, unitary_channel
from .exceptions import DimensionMismatch
from .hilbert import DensityOperator, _check_limit, _check_seed, as_density
from .recognition import (
    ArgmaxPolicy,
    BellSystem,
    FixedPolicy,
    SamplePolicy,
    SignalBasis,
)

CHANNEL_KINDS = ("ktau", "unitary", "kraus", "stochastic")
# Largest `steps` of an experiment file. Steps are streamed, so memory
# does not grow with it; the cap bounds run time only. A step costs
# about 0.13 ms at n = 3 and 0.6-1.6 ms at n = 64 (2-core x86-64 host
# whose speed swings about 2x, one BLAS thread), so a run stays under
# about 15 s at n = 3 and 3 min at n = 64.
MAX_RECOGNITION_STEPS = 100_000


def is_integer(value) -> bool:
    """True for a JSON integer; booleans do not count."""
    return isinstance(value, int) and not isinstance(value, bool)


def _is_real(value) -> bool:
    return is_integer(value) or isinstance(value, float)


def json_to_complex(value) -> complex:
    if _is_real(value):
        parts = (value,)
    elif isinstance(value, list) and len(value) == 2 and all(_is_real(v) for v in value):
        parts = value
    else:
        raise ValueError(f"expected a number or [re, im] pair, got {value!r}")
    z = complex(*parts)
    if not cmath.isfinite(z):
        raise ValueError(f"expected a finite number, got {value!r}")
    return z


def matrix_to_json(matrix) -> list[list[list[float]]]:
    m = np.asarray(matrix, dtype=complex)
    return np.stack((m.real, m.imag), axis=-1).tolist()


def json_to_matrix(rows) -> np.ndarray:
    if not isinstance(rows, list) or not rows:
        raise ValueError("matrix must be a non-empty array of rows")
    data = [[json_to_complex(v) for v in row] for row in rows]
    width = len(data[0])
    if any(len(row) != width for row in data):
        raise ValueError("matrix rows have inconsistent lengths")
    return np.asarray(data, dtype=complex)


def _nesting_depth(x) -> int:
    depth = 0
    while isinstance(x, list) and x:
        x = x[0]
        depth += 1
    return depth


def _reject_unknown(obj: dict, allowed: set[str], where: str):
    unknown = set(obj) - allowed
    if unknown:
        raise ValueError(f"unknown fields in {where}: {sorted(unknown)}")


def parse_state(obj) -> DensityOperator:
    """A density matrix, given bare or wrapped as {"matrix": ...}."""
    if isinstance(obj, dict):
        _reject_unknown(obj, {"matrix"}, "state")
        obj = obj["matrix"]
    return as_density(json_to_matrix(obj))


def parse_channel(obj: dict) -> Channel:
    """Channel descriptor: {"kind": ..., "matrix"/"kraus_ops"/"P": ...}."""
    if not isinstance(obj, dict):
        raise ValueError("channel descriptor must be an object")
    kind = obj.get("kind")
    if kind not in CHANNEL_KINDS:
        raise ValueError(f"channel kind must be one of {CHANNEL_KINDS}, got {kind!r}")
    if kind in ("ktau", "unitary"):
        _reject_unknown(obj, {"kind", "matrix"}, "channel")
        if "matrix" not in obj:
            raise ValueError(f"channel kind {kind!r} requires a matrix")
        m = json_to_matrix(obj["matrix"])
        return unitary_channel(m) if kind == "unitary" else schur_channel(m)
    if kind == "kraus":
        _reject_unknown(obj, {"kind", "kraus_ops"}, "channel")
        ops = obj.get("kraus_ops")
        if not isinstance(ops, list) or not ops:
            raise ValueError("kraus channel requires a non-empty kraus_ops array")
        return kraus_channel([json_to_matrix(op) for op in ops])
    _reject_unknown(obj, {"kind", "P"}, "channel")
    if "P" not in obj:
        raise ValueError("stochastic channel requires a P matrix")
    p = json_to_matrix(obj["P"])
    if np.max(np.abs(p.imag)) > 0:
        raise ValueError("stochastic matrix must be real")
    return stochastic_channel(p.real)


def parse_basis(obj, n: int) -> SignalBasis:
    if obj == "fourier":
        return SignalBasis.fourier(n)
    if obj == "standard":
        return SignalBasis.standard(n)
    if isinstance(obj, dict):
        _reject_unknown(obj, {"custom"}, "basis")
        basis = SignalBasis(json_to_matrix(obj["custom"]))
        if basis.n != n:
            raise ValueError(f"custom basis has dimension {basis.n}, expected {n}")
        return basis
    raise ValueError(f"basis must be 'fourier', 'standard', or {{'custom': matrix}}, got {obj!r}")


def parse_experiment(obj: dict):
    """Recognition experiment file.

    Returns (gamma0, signals, bell, policy). `rho` may be one matrix,
    repeated `steps` times (default 1) by a lazy iterator, or a list of
    matrices, returned as a list whose length must match `steps` when
    both are present. `steps` above MAX_RECOGNITION_STEPS is rejected, and
    every signal is checked against `n` before any step runs.
    """
    if not isinstance(obj, dict):
        raise ValueError("experiment file must be a JSON object")
    _reject_unknown(obj, {"n", "basis", "rho", "gamma", "policy", "seed", "steps"}, "experiment")
    for key in ("n", "basis", "rho", "gamma", "policy"):
        if key not in obj:
            raise ValueError(f"experiment file is missing {key!r}")
    n = obj["n"]
    if not is_integer(n) or n < 1:
        raise ValueError(f"n must be a positive integer, got {n!r}")
    # The memory fixes the dimension before the basis, whose size is n^2, is built.
    gamma0 = parse_state(obj["gamma"])
    if gamma0.n != n:
        raise DimensionMismatch(f"memory dim {gamma0.n} must equal system dim {n}")
    bell = BellSystem(parse_basis(obj["basis"], n))

    rho_field = obj["rho"]
    steps = obj.get("steps")
    if steps is not None and (not is_integer(steps) or steps < 0):
        raise ValueError(f"steps must be a nonnegative integer, got {steps!r}")
    if steps is not None:
        _check_limit("steps", steps, "MAX_RECOGNITION_STEPS", MAX_RECOGNITION_STEPS)
    # Nesting depth separates one matrix from a sequence: entries are
    # [re, im] pairs in the canonical format, so a single matrix nests
    # three levels and a sequence of matrices four. Depth-two input is
    # one matrix with bare real entries; a sequence of such matrices
    # must use pair entries to stay distinguishable.
    if ((isinstance(rho_field, list) and rho_field and isinstance(rho_field[0], dict))
            or _nesting_depth(rho_field) >= 4):
        listed = signals = [parse_state(m) for m in rho_field]
        if steps is not None and steps != len(signals):
            raise ValueError(f"steps={steps} but rho lists {len(signals)} states")
    else:
        listed = [parse_state(rho_field)]
        signals = itertools.repeat(listed[0], 1 if steps is None else steps)
    for t, signal in enumerate(listed):
        if signal.n != n:
            raise DimensionMismatch(f"signal {t} has dim {signal.n}, expected system dim {n}")

    seed = obj.get("seed", 0)
    if not is_integer(seed):
        raise ValueError(f"seed must be an integer, got {seed!r}")
    _check_seed(seed)
    policy_field = obj["policy"]
    if policy_field == "sample":
        policy = SamplePolicy(seed=seed)
    elif policy_field == "argmax":
        policy = ArgmaxPolicy()
    elif isinstance(policy_field, dict):
        _reject_unknown(policy_field, {"fixed"}, "policy")
        pair = policy_field.get("fixed")
        if (not isinstance(pair, list) or len(pair) != 2
                or not all(is_integer(v) for v in pair)):
            raise ValueError(f"fixed policy must be {{'fixed': [i, j]}} with integers, got {pair!r}")
        policy = FixedPolicy(pair[0], pair[1])
    else:
        raise ValueError(f"policy must be 'sample', 'argmax', or {{'fixed': [i, j]}}, got {policy_field!r}")
    return gamma0, signals, bell, policy


def parse_value_batch(obj) -> dict:
    """`value --batch` file: any of dim, pairs, seed, kraus_terms, identical_channels.

    Returns the fields given, as keyword arguments of
    `metrics.conjecture_batch`; their ranges are checked there.
    """
    if not isinstance(obj, dict):
        raise ValueError("batch config must be a JSON object")
    _reject_unknown(obj, {"dim", "pairs", "seed", "kraus_terms", "identical_channels"},
                    "batch config")
    for key in ("dim", "pairs", "seed", "kraus_terms"):
        if key in obj and not is_integer(obj[key]):
            raise ValueError(f"{key} must be an integer, got {obj[key]!r}")
    flag = obj.get("identical_channels", False)
    if not isinstance(flag, bool):
        raise ValueError(f"identical_channels must be a boolean, got {flag!r}")
    return obj


def load_json(path: str) -> Any:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def dump_json(obj: Any) -> str:
    """Canonical serialization: sorted keys, no trailing spaces."""
    return json.dumps(obj, sort_keys=True, separators=(",", ": "), indent=2) + "\n"
