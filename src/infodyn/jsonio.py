"""Every JSON format of the package, read and written in one place.

Input: states, channels, experiment and batch files. Output: the
`quantum-ecd`, `axioms` and `value` reports, each through `dump_json`,
and `recognize`'s JSON Lines, one compact object per step
(`step_lines`); every matrix goes out through `matrix_to_json`. The
display base of `quantum-ecd`'s entropies is checked by
`check_log_base` and applied only here, so the arithmetic stays in nats.

A complex number is a two-element array [re, im]; a matrix is a
row-major array of rows of those. Plain numbers are accepted on input
wherever a complex entry is expected. JSON booleans are never numbers.
NaN and infinite entries, which `json.load` accepts, are read as they
are; the matrix's constructor rejects them through `hilbert._as_array`,
the package's one array rule, as "<name> has a non-finite entry".
An experiment's signals come back as an iterable that is consumed once:
a single `rho` is repeated lazily, so `steps` costs no memory.

Each JSON shape has one reader, which every field of that shape goes
through. `_object` reads an object: it must be an object, carry no
unknown field and carry every required one, checked in that order.
An integer field goes through `hilbert._check_integer`, the package's
one integer rule, which rejects booleans, values below the field's
lower bound and values above its cap; a fixed policy's [i, j] is read
for its shape only, and `FixedPolicy` checks i and j by that rule.
`json_to_matrix` reads a matrix: a non-empty array of rows of one
length, each entry a number or a pair, where an integer beyond the
float range maps to inf.

Matrices are read array-first (`_numbers`): numpy converts the whole
nest at once, and the result is kept when it is an integer or float
array of bare entries or [re, im] pairs, none of them a boolean.
Anything else, such as a ragged nest, a string, None, an integer beyond
int64 or the float range, or a three-element "pair", defers to the
per-entry rule (`json_to_complex` on each entry), which decides the
result and words every type error. So both paths return the same bits
and raise the same errors. A list of signal states in an
experiment file is read the same way, as one stack with one stacked
density check (`_parse_states`); a list that is not regular, or a stack
that fails the check, is read state by state, so the first faulty state
is the one reported.
"""

from __future__ import annotations

import cmath
import itertools
import json
import math
from typing import Any

import numpy as np

from .channels import Channel, kraus_channel, schur_channel, stochastic_channel, unitary_channel
from .exceptions import DimensionMismatch
from .hilbert import (
    DensityOperator,
    _brief,
    _check_integer,
    _check_real,
    _density_operators,
    _entropy_of_spectrum,
    _is_integer,
    as_density,
)
from .recognition import (
    ArgmaxPolicy,
    BellSystem,
    FixedPolicy,
    SamplePolicy,
    SignalBasis,
)

# The field that holds each channel kind's data.
_CHANNEL_DATA = {"ktau": "matrix", "unitary": "matrix", "kraus": "kraus_ops", "stochastic": "P"}
CHANNEL_KINDS = tuple(_CHANNEL_DATA)
# Largest `steps` of an experiment file. Steps are streamed, so memory
# does not grow with it; the cap bounds run time only. Steps are computed
# and checked in blocks (`recognition.BLOCK_STEPS`), and a `recognize`
# step costs about 0.07 ms at n = 3 and 16-22 ms at n = 64, output
# included; at n = 64 the step itself takes about 1.5 ms and writing its
# JSON line (8,192 floats at full precision) the rest (2-core x86-64 host
# whose speed swings about 2x, one BLAS thread). So a run stays under
# about 10 s at n = 3 and 40 min at n = 64.
MAX_RECOGNITION_STEPS = 100_000
# The one encoder of `recognize`'s lines; `json.dumps` with these options
# would build an encoder for every step.
_STEP_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


def _is_real(value) -> bool:
    return isinstance(value, float) or _is_integer(value)


def _object(obj, where: str, required=(), optional=()) -> dict:
    """The one object rule: `obj` with every `required` key and no key beyond both lists."""
    if not isinstance(obj, dict):
        raise ValueError(f"{where} must be a JSON object")
    unknown = set(obj).difference(required, optional)
    if unknown:
        raise ValueError(f"unknown fields in {where}: {_brief(sorted(unknown))}")
    for key in required:
        if key not in obj:
            raise ValueError(f"{where} is missing {key!r}")
    return obj


def json_to_complex(value) -> complex:
    if isinstance(value, list) and len(value) == 2 and all(_is_real(v) for v in value):
        parts = value
    elif _is_real(value):
        parts = (value,)
    else:
        raise ValueError(f"expected a number or [re, im] pair, got {_brief(value)}")
    try:
        return complex(*parts)
    except OverflowError:  # an integer beyond the float range
        return complex(cmath.inf)


def matrix_to_json(matrix) -> list[list[list[float]]]:
    m = np.asarray(matrix, dtype=complex)
    # A contiguous complex array read as floats is its [re, im] pairs.
    return np.ascontiguousarray(m).view(float).reshape(m.shape + (2,)).tolist()


def _numbers(nest, depth: int) -> np.ndarray | None:
    """`nest` as a complex array of `depth` axes, read at once; None defers to the per-entry rule.

    The nest is accepted when numpy reads it as an integer or float
    array of `depth` axes, or of `depth` + 1 with a last axis of [re, im]
    pairs, none of whose entries is a boolean; a NaN or an infinity is kept
    for the array rule. Numpy reads a boolean among numbers as 0 or 1, so
    the types of the nest's leaves are scanned once. Pairs become complex
    numbers through a view of their float bits, so each part keeps its
    sign of zero.
    """
    try:
        a = np.array(nest)
    except (ValueError, OverflowError):  # a ragged nest, or an integer numpy cannot convert
        return None
    if a.dtype.kind not in "if" or a.ndim not in (depth, depth + 1) or (a.ndim > depth and a.shape[-1] != 2):
        return None
    leaves = nest
    for _ in range(a.ndim - 1):
        leaves = itertools.chain.from_iterable(leaves)
    if bool in map(type, leaves):
        return None
    if a.ndim == depth:
        return a.astype(complex)
    return a.astype(float, copy=False).view(complex)[..., 0]


def json_to_matrix(rows) -> np.ndarray:
    if not isinstance(rows, list) or not rows or not all(isinstance(row, list) for row in rows):
        raise ValueError("matrix must be a non-empty array of rows")
    m = _numbers(rows, 2)
    if m is not None:
        return m
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


def parse_state(obj) -> DensityOperator:
    """A density matrix, given bare or wrapped as {"matrix": ...}."""
    if isinstance(obj, dict):
        obj = _object(obj, "state", required=("matrix",))["matrix"]
    return as_density(json_to_matrix(obj))


def _parse_states(objs: list) -> list[DensityOperator]:
    """`parse_state` of each item, read as one stack when the list is regular.

    Bare matrices and {"matrix": ...} wrappers of one shape go through one
    `_numbers` conversion and one stacked density check. Any other list,
    or a stack that fails the check, is read item by item, so the first
    faulty item raises its own message.
    """
    matrices = [obj["matrix"] if isinstance(obj, dict) and obj.keys() == {"matrix"} else obj
                for obj in objs]
    stack = _numbers(matrices, 3)
    if stack is not None:
        try:
            return _density_operators(stack)
        except ValueError:
            pass
    return [parse_state(obj) for obj in objs]


def parse_channel(obj: dict) -> Channel:
    """Channel descriptor: {"kind": ..., "matrix"/"kraus_ops"/"P": ...}."""
    # The first call lets every key pass and checks only that `obj` is an
    # object: the kind decides which data field is allowed, so it comes
    # before the field check. Membership in a tuple, not a dict lookup,
    # keeps an unhashable kind a ValueError.
    kind = _object(obj, "channel", optional=obj).get("kind")
    if kind not in CHANNEL_KINDS:
        raise ValueError(f"channel kind must be one of {CHANNEL_KINDS}, got {_brief(kind)}")
    field = _CHANNEL_DATA[kind]
    data = _object(obj, "channel", required=("kind", field))[field]
    if kind == "kraus":
        if not isinstance(data, list) or not data:
            raise ValueError("kraus channel requires a non-empty kraus_ops array")
        return kraus_channel([json_to_matrix(op) for op in data])
    factory = {"unitary": unitary_channel, "ktau": schur_channel, "stochastic": stochastic_channel}[kind]
    return factory(json_to_matrix(data))


def parse_basis(obj, n: int) -> SignalBasis:
    if obj == "fourier":
        return SignalBasis.fourier(n)
    if obj == "standard":
        return SignalBasis.standard(n)
    if isinstance(obj, dict):
        basis = SignalBasis(json_to_matrix(_object(obj, "basis", required=("custom",))["custom"]))
        if basis.n != n:
            raise ValueError(f"custom basis has dimension {basis.n}, expected {n}")
        return basis
    raise ValueError(f"basis must be 'fourier', 'standard', or {{'custom': matrix}}, got {_brief(obj)}")


def parse_experiment(obj: dict):
    """Recognition experiment file.

    Returns (gamma0, signals, bell, policy). `rho` may be one matrix,
    repeated `steps` times (default 1) by a lazy iterator, or a list of
    matrices, returned as a list whose length must match `steps` when
    both are present. `steps` above MAX_RECOGNITION_STEPS is rejected, and
    every signal is checked against `n` before any step runs.
    """
    _object(obj, "experiment file", required=("n", "basis", "rho", "gamma", "policy"),
            optional=("seed", "steps"))
    n = _check_integer("n", obj["n"], 1)
    # The memory fixes the dimension before the basis, whose size is n^2, is built.
    gamma0 = parse_state(obj["gamma"])
    if gamma0.n != n:
        raise DimensionMismatch(f"memory dim {gamma0.n} must equal system dim {n}")
    bell = BellSystem(parse_basis(obj["basis"], n))

    rho_field = obj["rho"]
    steps = obj.get("steps")
    if steps is not None:
        _check_integer("steps", steps, 0, "MAX_RECOGNITION_STEPS", MAX_RECOGNITION_STEPS)
    # Nesting depth separates one matrix from a sequence: entries are
    # [re, im] pairs in the canonical format, so a single matrix nests
    # three levels and a sequence of matrices four. Depth-two input is
    # one matrix with bare real entries; a sequence of such matrices
    # must use pair entries to stay distinguishable.
    if ((isinstance(rho_field, list) and rho_field and isinstance(rho_field[0], dict))
            or _nesting_depth(rho_field) >= 4):
        listed = signals = _parse_states(rho_field)
        if steps is not None and steps != len(signals):
            raise ValueError(f"steps={steps} but rho lists {len(signals)} states")
    else:
        listed = [parse_state(rho_field)]
        signals = itertools.repeat(listed[0], 1 if steps is None else steps)
    for t, signal in enumerate(listed):
        if signal.n != n:
            raise DimensionMismatch(f"signal {t} has dim {signal.n}, expected system dim {n}")

    seed = _check_integer("seed", obj.get("seed", 0), 0)
    policy_field = obj["policy"]
    if policy_field == "sample":
        policy = SamplePolicy(seed=seed)
    elif policy_field == "argmax":
        policy = ArgmaxPolicy()
    elif isinstance(policy_field, dict):
        pair = _object(policy_field, "policy", required=("fixed",))["fixed"]
        if not isinstance(pair, list) or len(pair) != 2:
            raise ValueError(f"fixed policy must be {{'fixed': [i, j]}}, got {_brief(pair)}")
        policy = FixedPolicy(*pair)
    else:
        raise ValueError(f"policy must be 'sample', 'argmax', or {{'fixed': [i, j]}}, got {_brief(policy_field)}")
    return gamma0, signals, bell, policy


def parse_value_batch(obj) -> dict:
    """`value --batch` file: any of dim, pairs, seed, kraus_terms, identical_channels.

    Returns the fields given, as keyword arguments of
    `metrics.conjecture_batch`; their types and ranges are checked there.
    """
    _object(obj, "batch config",
            optional=("dim", "pairs", "seed", "kraus_terms", "identical_channels"))
    return obj


def load_json(path: str) -> Any:
    """The JSON value in the file at `path`.

    Text that is not UTF-8 JSON, or that is nested too deeply for the
    parser, raises ValueError "<path>: <reason>".
    """
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except (ValueError, RecursionError) as exc:
            raise ValueError(f"{path}: {exc}") from exc


def dump_json(obj: Any) -> str:
    """Canonical serialization: sorted keys, no trailing spaces."""
    return json.dumps(obj, sort_keys=True, separators=(",", ": "), indent=2) + "\n"


def check_log_base(log_base) -> float:
    """A display base for entropies, as a float: a finite real number above 1."""
    base = _check_real("log_base", log_base)
    if not base > 1.0:
        raise ValueError(f"log_base must exceed 1, got {log_base!r}")
    return base


def chaos_degree_json(report, log_base) -> str:
    """`quantum-ecd`'s text of a `metrics.ChaosDegreeReport`, entropies in `log_base`."""
    log_base = check_log_base(log_base)
    scale = 1.0 / math.log(log_base)
    return dump_json({
        "D": report.chaos_degree * scale,
        "T": report.transmitted * scale,
        "S_out": report.output_entropy * scale,
        "degenerate": report.degenerate,
        "restarts": report.restarts,
        "seed": report.seed,
        "worst": report.worst * scale,
        "log_base": log_base,
    })


def axioms_json(results) -> str:
    """`axioms`' text of `metrics.axiom_suite`'s results, with `all_passed`."""
    payload = {
        name: {"passed": r.passed, "worst_deviation": r.worst_deviation,
               "tolerance": r.tolerance, "trials": r.trials, **({"note": r.note} if r.note else {})}
        for name, r in results.items()
    }
    payload["all_passed"] = all(r.passed for r in results.values())
    return dump_json(payload)


def value_json(outcomes, rate: float, dim: int, seed: int) -> str:
    """`value`'s text of `metrics.conjecture_batch`'s outcomes and agreement rate."""
    return dump_json({
        "pairs": [{"D": o.d_first, "D_prime": o.d_second, "V": o.value_first,
                   "V_prime": o.value_second, "agree": o.agree} for o in outcomes],
        "agreement_rate": rate,
        "dim": int(dim),
        "seed": int(seed),
    })


def step_lines(steps) -> str:
    """`recognize`'s JSON Lines of a list of `recognition.RecognitionStep`s: one compact object per step.

    The memories' matrices are converted by one `matrix_to_json` of their
    stack, and their entropies taken by one `_entropy_of_spectrum` of their
    stacked spectra, with the bits of `von_neumann_entropy` of each.
    """
    if not steps:
        return ""
    gammas = matrix_to_json(np.stack([step.memory.matrix for step in steps]))
    entropies = _entropy_of_spectrum(np.stack([step.memory.eigenvalues for step in steps])).tolist()
    return "".join(
        _STEP_ENCODER.encode({"t": step.t, "i": step.i, "j": step.j, "probability": step.probability,
                              "gamma": gamma, "entropy_of_gamma": entropy}) + "\n"
        for step, gamma, entropy in zip(steps, gammas, entropies)
    )
