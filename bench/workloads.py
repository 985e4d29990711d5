"""Seeded input generation for the four benchmark workloads.

Each workload is a fixed cycle of invocation shapes. The seed only draws
numeric values (parameter ranges, matrices, outcome indices); the shape
sequence, the sizes and hence the amount of work are the same for every
seed, so runs on different seeds are comparable.

An invocation is a dict with:
  kind   shape name, used to group timings and checks
  argv   arguments for ``infodyn.cli.main``, relative to the work directory
  files  input files to write before the run: {relative path: JSON object}
  outs   output files the invocation writes (relative paths)
  expect reference data for the correctness check
  _oracle numpy reference data for the check (quantum-ecd only); never
         written to the run directory
"""

from __future__ import annotations

import math

import numpy as np

import oracle

# Invocations per second at the parent commit of the benchmark (2-core
# shared x86-64 host, numpy 2.4.6, one BLAS thread; calibration excluded). The
# invocation list of a run has round(seconds * RATE) entries, at least
# MIN_CALLS, rounded up to whole cycles, so that one run at that commit
# measures about `--seconds` and later commits run the identical list.
RATE = {"sweep": 12.0, "search": 16.0, "recognize": 11.0, "batch": 17.0}
MIN_CALLS = 100

TRANSIENT = 1000
TINKERBELL_ESCAPE_FREE = (0.5, 0.9)


def _cmat(m) -> list:
    """Complex matrix as rows of [re, im] pairs (the canonical wire format)."""
    m = np.asarray(m, dtype=complex)
    return [[[float(z.real), float(z.imag)] for z in row] for row in m]


def _haar(n: int, rng: np.random.Generator) -> np.ndarray:
    z = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def _wishart_density(n: int, rng: np.random.Generator) -> np.ndarray:
    g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    m = g @ g.conj().T
    return m / np.trace(m).real


def _kraus_ops(n: int, rank: int, rng: np.random.Generator) -> list[np.ndarray]:
    blocks = rng.normal(size=(rank * n, n)) + 1j * rng.normal(size=(rank * n, n))
    q, _ = np.linalg.qr(blocks)
    return [q[k * n:(k + 1) * n, :] for k in range(rank)]


def _stochastic(n: int, rng: np.random.Generator) -> np.ndarray:
    p = rng.gamma(1.0, size=(n, n)) + 1e-3
    return p / p.sum(axis=1, keepdims=True)


def _channel(kind: str, n: int, rng: np.random.Generator) -> tuple[dict, dict]:
    """(JSON descriptor, oracle description) of a random channel."""
    if kind == "kraus":
        ops = _kraus_ops(n, 2, rng)
        return {"kind": "kraus", "kraus_ops": [_cmat(a) for a in ops]}, {"kind": "kraus", "ops": ops}
    if kind == "unitary":
        u = _haar(n, rng)
        return {"kind": "unitary", "matrix": _cmat(u)}, {"kind": "kraus", "ops": [u]}
    p = _stochastic(n, rng)
    return {"kind": "stochastic", "P": p.tolist()}, {"kind": "stochastic", "P": p}


# --------------------------------------------------------------------------
# sweep: ecd-sweep over four shapes
# --------------------------------------------------------------------------

# Every cycle puts the median and the 90th percentile inside a block of
# identical shapes, never on the gap between two shapes, where the
# estimate would follow the relative noise of two clusters. Costs at the
# parent commit: dense < dense_w2 < long < tinkerbell; so 33-83 % of the
# invocations are long (median) and 83-100 % tinkerbell (90th percentile).
SWEEP_SHAPES = (
    # name, map, points, samples, bins, workers, plot
    ("dense", "logistic", 11, 20_000, 100, 1, True),
    ("long", "logistic", 3, 100_000, 1000, 1, False),
    ("tinkerbell", "tinkerbell", 3, 10_000, 100, 1, False),
    ("dense_w2", "logistic", 11, 20_000, 100, 2, True),
    ("long", "logistic", 3, 100_000, 1000, 1, False),
    ("long", "logistic", 3, 100_000, 1000, 1, False),
)


def _grid(start: float, step: float, points: int) -> tuple[float, float, list[float]]:
    """A grid whose row count under the CLI's rule is exactly `points`."""
    stop = start + (points - 1) * step
    count = int(math.floor((stop - start) / step + 1e-9)) + 1
    if count != points:
        raise ArithmeticError("grid count is ambiguous")
    return start, stop, [start + k * step for k in range(points)]


def _sweep(count: int, rng: np.random.Generator) -> list[dict]:
    invs = []
    for k in range(count):
        name, map_name, points, samples, bins, workers, plot = SWEEP_SHAPES[k % len(SWEEP_SHAPES)]
        while True:
            if map_name == "tinkerbell":
                lo, hi = TINKERBELL_ESCAPE_FREE
                step = round(float(rng.uniform(0.05, 0.1)), 6)
                start = round(float(rng.uniform(lo, hi - (points - 1) * step)), 6)
            elif name == "long":
                step = round(float(rng.uniform(0.01, 0.03)), 6)
                start = round(float(rng.uniform(3.55, 4.0 - (points - 1) * step)), 6)
            else:
                step = round(float(rng.uniform(0.02, 0.04)), 6)
                start = round(float(rng.uniform(3.0, 4.0 - (points - 1) * step)), 6)
            try:
                start, stop, params = _grid(start, step, points)
            except ArithmeticError:
                continue
            break
        out = f"out/{k}.csv"
        argv = ["ecd-sweep", "--map", map_name, "--from", repr(start), "--to", repr(stop),
                "--step", repr(step), "--transient", str(TRANSIENT),
                "--samples", str(samples), "--bins", str(bins), "--workers", str(workers),
                "--out", out]
        outs = [out]
        if plot:
            argv += ["--plot", f"out/{k}.svg"]
            outs.append(f"out/{k}.svg")
        invs.append({
            "kind": name, "argv": argv, "files": {}, "outs": outs,
            "expect": {"map": map_name, "params": params, "samples": samples, "bins": bins,
                       "workers": workers, "plot": plot},
        })
    oracle.sweep_references(invs, TRANSIENT)
    return invs


# --------------------------------------------------------------------------
# search: quantum-ecd on degenerate states
# --------------------------------------------------------------------------

# (n, restarts, state, channel, log base). State "mixed" is the maximally
# mixed state, "block" has one n/2-fold degenerate eigenvalue block. The
# n = 16 shapes are one variant each, so that the median (inside the
# three n = 16 / 50-restart calls) and the 90th percentile (inside the
# two n = 16 / 200-restart calls) fall within blocks of identical shapes.
SEARCH_SHAPES = (
    (4, 50, "mixed", "kraus", "e"),
    (8, 50, "block", "unitary", "2"),
    (16, 50, "block", "kraus", "e"),
    (4, 200, "block", "stochastic", "2"),
    (8, 200, "mixed", "kraus", "e"),
    (16, 200, "block", "kraus", "2"),
    (4, 50, "block", "unitary", "e"),
    (8, 50, "mixed", "stochastic", "2"),
    (16, 50, "block", "kraus", "2"),
    (16, 50, "block", "kraus", "e"),
    (8, 200, "block", "stochastic", "e"),
    (16, 200, "block", "kraus", "e"),
)


def _degenerate_state(n: int, kind: str, rng: np.random.Generator):
    """(matrix, eigenvectors, spectrum, block) with block = (lo, hi) columns."""
    if kind == "mixed":
        return np.eye(n) / n, np.eye(n, dtype=complex), np.full(n, 1.0 / n), (0, n)
    k = n // 2
    # Distinct values well apart from each other and from the block value.
    rest = np.sort(rng.uniform(1.0, 2.0, size=n - k))[::-1] + 0.05 * np.arange(n - k)[::-1]
    spectrum = np.concatenate([np.full(k, 0.5), rest])
    spectrum = spectrum / spectrum.sum()
    u = _haar(n, rng)
    m = (u * spectrum) @ u.conj().T
    return 0.5 * (m + m.conj().T), u, spectrum, (0, k)


def _search(count: int, rng: np.random.Generator) -> list[dict]:
    invs = []
    for k in range(count):
        n, restarts, state_kind, channel_kind, base = SEARCH_SHAPES[k % len(SEARCH_SHAPES)]
        m, vecs, spectrum, block = _degenerate_state(n, state_kind, rng)
        desc, ch = _channel(channel_kind, n, rng)
        seed = int(rng.integers(0, 2**31))
        state_path, channel_path, out = f"in/{k}.state.json", f"in/{k}.channel.json", f"out/{k}.json"
        state_json = {"matrix": m.tolist()} if state_kind == "mixed" else {"matrix": _cmat(m)}
        invs.append({
            "kind": f"n{n}_r{restarts}",
            "argv": ["quantum-ecd", "--state", state_path, "--channel", channel_path,
                     "--restarts", str(restarts), "--seed", str(seed), "--log-base", base,
                     "--out", out],
            "files": {state_path: state_json, channel_path: desc},
            "outs": [out],
            "expect": {"restarts": restarts, "degenerate": True, "base": base},
            "_oracle": {"vecs": vecs, "spectrum": spectrum, "block": block, "channel": ch,
                        "seed": seed},
        })
    return invs


# --------------------------------------------------------------------------
# recognize: recognition trajectories
# --------------------------------------------------------------------------

# (n, basis, policy, signal form, steps)
RECOGNIZE_SHAPES = (
    (3, "fourier", "sample", "repeated", 40),
    (5, "custom", "argmax", "list", 10),
    (8, "fourier", "fixed", "repeated", 2),
    (3, "custom", "fixed", "list", 40),
    (5, "fourier", "sample", "list", 10),
    (8, "custom", "argmax", "repeated", 2),
    (3, "fourier", "argmax", "list", 40),
    (5, "custom", "fixed", "repeated", 10),
    (8, "fourier", "sample", "list", 2),
)


def _recognize(count: int, rng: np.random.Generator) -> list[dict]:
    invs = []
    for k in range(count):
        n, basis_kind, policy_kind, form, steps = RECOGNIZE_SHAPES[k % len(RECOGNIZE_SHAPES)]
        basis = _haar(n, rng) if basis_kind == "custom" else None
        gamma = _wishart_density(n, rng)
        if form == "list":
            rho_field = [_cmat(_wishart_density(n, rng)) for _ in range(steps)]
        else:
            rho_field = _cmat(_wishart_density(n, rng))
        exp = {"n": n, "basis": "fourier" if basis is None else {"custom": _cmat(basis)},
               "rho": rho_field, "gamma": _cmat(gamma), "steps": steps}
        if policy_kind == "sample":
            exp["policy"] = "sample"
            exp["seed"] = int(rng.integers(0, 2**31))
        elif policy_kind == "argmax":
            exp["policy"] = "argmax"
        else:
            exp["policy"] = {"fixed": [int(rng.integers(0, n)), int(rng.integers(0, n))]}
        path, out = f"in/{k}.experiment.json", f"out/{k}.jsonl"
        invs.append({
            "kind": f"n{n}",
            "argv": ["recognize", "--experiment", path, "--out", out],
            "files": {path: exp},
            "outs": [out],
            "expect": {"n": n, "steps": steps, "policy": policy_kind},
        })
    return invs


# --------------------------------------------------------------------------
# batch: value, axioms and non-degenerate quantum-ecd
# --------------------------------------------------------------------------

# Costs at the parent commit: qecd (0-42 % of the cycle) < axioms d4
# (42-58 %, holds the median) < axioms d2, axioms d6, value d2 < value d3
# (83-100 %, holds the 90th percentile). See the sweep shapes for why.
BATCH_SHAPES = (
    ("qecd", {"n": 4, "channel": "kraus"}),
    ("axioms", {"dim": 4, "trials": 5}),
    ("qecd", {"n": 8, "channel": "stochastic"}),
    ("value", {"dim": 3, "pairs": 40, "kraus_terms": 2, "identical_channels": False}),
    ("qecd", {"n": 16, "channel": "unitary"}),
    ("axioms", {"dim": 2, "trials": 13}),
    ("qecd", {"n": 16, "channel": "kraus"}),
    ("axioms", {"dim": 4, "trials": 5}),
    ("value", {"dim": 2, "pairs": 50, "kraus_terms": 3, "identical_channels": True}),
    ("qecd", {"n": 8, "channel": "kraus"}),
    ("axioms", {"dim": 6, "trials": 5}),
    ("value", {"dim": 3, "pairs": 40, "kraus_terms": 2, "identical_channels": False}),
)


def _batch(count: int, rng: np.random.Generator) -> list[dict]:
    invs = []
    for k in range(count):
        shape, spec = BATCH_SHAPES[k % len(BATCH_SHAPES)]
        out = f"out/{k}.json"
        seed = int(rng.integers(0, 2**31))
        if shape == "value":
            path = f"in/{k}.batch.json"
            cfg = dict(spec, seed=seed)
            invs.append({
                "kind": f"value_d{spec['dim']}",
                "argv": ["value", "--batch", path, "--out", out],
                "files": {path: cfg}, "outs": [out], "expect": cfg,
            })
        elif shape == "axioms":
            invs.append({
                "kind": f"axioms_d{spec['dim']}",
                "argv": ["axioms", "--dim", str(spec["dim"]), "--trials", str(spec["trials"]),
                         "--seed", str(seed), "--out", out],
                "files": {}, "outs": [out], "expect": dict(spec, seed=seed),
            })
        else:
            n = spec["n"]
            m = _wishart_density(n, rng)
            desc, ch = _channel(spec["channel"], n, rng)
            state_path, channel_path = f"in/{k}.state.json", f"in/{k}.channel.json"
            invs.append({
                "kind": f"qecd_n{n}",
                "argv": ["quantum-ecd", "--state", state_path, "--channel", channel_path,
                         "--restarts", "1000", "--seed", str(seed), "--out", out],
                "files": {state_path: {"matrix": _cmat(m)}, channel_path: desc},
                "outs": [out],
                "expect": {"restarts": 1000, "degenerate": False, "base": "e"},
                "_oracle": {"matrix": m, "channel": ch},
            })
    return invs


GENERATORS = {"sweep": _sweep, "search": _search, "recognize": _recognize, "batch": _batch}
CYCLES = {"sweep": len(SWEEP_SHAPES), "search": len(SEARCH_SHAPES),
          "recognize": len(RECOGNIZE_SHAPES), "batch": len(BATCH_SHAPES)}


def invocation_count(workload: str, seconds: float) -> int:
    cycle = CYCLES[workload]
    wanted = max(MIN_CALLS, round(seconds * RATE[workload]))
    return -(-wanted // cycle) * cycle


def build(workload: str, seed: int, count: int) -> list[dict]:
    """The invocation list of one run; identical for identical arguments."""
    rng = np.random.default_rng([seed, sorted(GENERATORS).index(workload)])
    return GENERATORS[workload](count, rng)
