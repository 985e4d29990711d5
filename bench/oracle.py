"""Reference values for the correctness check, computed independently.

Nothing here calls the code paths the benchmark times. Orbits are
iterated in lockstep across every grid point of a run with numpy arrays,
which reproduces the scalar recurrences of the built-in maps bit for bit
(the same IEEE operations in the same order). Quantum references use the
generator's own eigenvectors and Kraus operators.
"""

from __future__ import annotations

import math

import numpy as np

EPS_ZERO = 1e-3
EPS_CONST = 1e-3
WINDOW = 5
TINKERBELL = {"b": -0.6013, "c": 2.0, "d": 0.5, "x0": (-0.72, -0.64), "box": (-2.0, 2.0)}
LOGISTIC_X0 = 0.3
CHUNK = 4096


class Escape(Exception):
    pass


def _conditional_entropy(codes: np.ndarray) -> float:
    """-sum_ij p_ij ln(p_ij / p_i) of the one-step transitions of a code sequence."""
    cells, pos = np.unique(codes, return_inverse=True)
    src, dst = pos[:-1].astype(np.int64), pos[1:].astype(np.int64)
    pairs, counts = np.unique(src * cells.size + dst, return_counts=True)
    rows = np.bincount(src, minlength=cells.size)
    counts = counts.astype(float)
    return float(np.sum((counts / counts.sum()) * np.log(rows[pairs // cells.size] / counts)))


def _encode(col: np.ndarray, lo: float, hi: float, bins: int) -> np.ndarray:
    idx = ((col - lo) * (bins / (hi - lo))).astype(np.int64)
    np.minimum(idx, bins - 1, out=idx)
    return idx


def logistic_lanes(a: np.ndarray, transient: int, samples: int, bins: int):
    """(D, lyapunov) per parameter of the logistic map, all lanes at once."""
    x = np.full(a.shape, LOGISTIC_X0)
    for _ in range(transient):
        x = a * x * (1.0 - x)
    codes = np.empty((samples, a.size), dtype=np.int32)
    log_sum = np.zeros(a.size)
    zero = np.zeros(a.size, dtype=bool)
    buf = np.empty((CHUNK, a.size))
    for t0 in range(0, samples, CHUNK):
        rows = min(CHUNK, samples - t0)
        for r in range(rows):
            x = a * x * (1.0 - x)
            buf[r] = x
        chunk = buf[:rows]
        if np.any(chunk < 0.0) or np.any(chunk > 1.0):
            raise Escape("logistic orbit left [0, 1]")
        codes[t0:t0 + rows] = _encode(chunk, 0.0, 1.0, bins)
        derivs = np.abs(a * (1.0 - 2.0 * chunk))
        zero |= np.any(derivs == 0.0, axis=0)
        with np.errstate(divide="ignore"):
            log_sum += np.log(derivs).sum(axis=0)
    d = [_conditional_entropy(codes[:, p]) for p in range(a.size)]
    lam = [-math.inf if zero[p] else float(log_sum[p] / samples) for p in range(a.size)]
    return d, lam


def tinkerbell_lanes(a: np.ndarray, transient: int, samples: int, bins: int):
    """(D, lyapunov) per parameter of the tinkerbell map; raises Escape."""
    b, c, d = TINKERBELL["b"], TINKERBELL["c"], TINKERBELL["d"]
    lo, hi = TINKERBELL["box"]
    x = np.full(a.shape, TINKERBELL["x0"][0])
    y = np.full(a.shape, TINKERBELL["x0"][1])
    v0, v1 = np.ones(a.shape), np.zeros(a.shape)
    acc = np.zeros(a.shape)
    codes = np.empty((samples, a.size), dtype=np.int64)
    for t in range(transient + samples):
        x, y = x * x - y * y + a * x + b * y, 2.0 * x * y + c * x + d * y
        if not (np.all(lo <= x) and np.all(x <= hi) and np.all(lo <= y) and np.all(y <= hi)):
            raise Escape(f"tinkerbell orbit escaped at step {t}")
        if t < transient:
            continue
        codes[t - transient] = _encode(x, lo, hi, bins) * bins + _encode(y, lo, hi, bins)
        w0 = (2.0 * x + a) * v0 + (-2.0 * y + b) * v1
        w1 = (2.0 * y + c) * v0 + (2.0 * x + d) * v1
        norm = np.hypot(w0, w1)
        acc += np.log(norm)
        v0, v1 = w0 / norm, w1 / norm
    dvals = [_conditional_entropy(codes[:, p]) for p in range(a.size)]
    return dvals, [float(v) for v in acc / samples]


def classify(window) -> str:
    vals = np.asarray(window, dtype=float)
    if np.all(np.abs(vals) <= EPS_ZERO):
        return "stable"
    if float(vals.max() - vals.min()) <= EPS_CONST and float(vals.mean()) > EPS_ZERO:
        return "weak_stable"
    return "chaotic"


def sweep_references(invs: list[dict], transient: int):
    """Fill expect["D"], expect["lyapunov"], expect["labels"] for sweep
    invocations, iterating every invocation of one shape in lockstep."""
    groups: dict[tuple, list[dict]] = {}
    for inv in invs:
        e = inv["expect"]
        groups.setdefault((e["map"], e["samples"], e["bins"]), []).append(inv)
    for (map_name, samples, bins), members in groups.items():
        a = np.array([p for inv in members for p in inv["expect"]["params"]])
        lanes = logistic_lanes if map_name == "logistic" else tinkerbell_lanes
        dvals, lams = lanes(a, transient, samples, bins)
        pos = 0
        for inv in members:
            e = inv["expect"]
            k = len(e["params"])
            e["D"], e["lyapunov"] = dvals[pos:pos + k], lams[pos:pos + k]
            e["labels"] = [classify(e["D"][max(0, i - WINDOW + 1):i + 1]) for i in range(k)]
            pos += k


def entropy(m: np.ndarray) -> float:
    lam = np.linalg.eigvalsh(m)
    lam = lam[lam > 0]
    return float(-np.sum(lam * np.log(lam)))


def image_entropies(vectors: np.ndarray, channel: dict) -> np.ndarray:
    """Entropy of the channel image of each pure state; vectors (..., n).

    A Kraus image sum_a (A_a v)(A_a v)* = W W* with W = [A_1 v, ...] has
    the same nonzero spectrum as the small Gram matrix W* W, which is
    what is diagonalized here.
    """
    if channel["kind"] == "stochastic":
        dist = (np.abs(vectors) ** 2) @ channel["P"]
        with np.errstate(divide="ignore", invalid="ignore"):
            terms = np.where(dist > 0, dist * np.log(np.where(dist > 0, dist, 1.0)), 0.0)
        return -terms.sum(axis=-1)
    w = np.stack([vectors @ op.T for op in channel["ops"]], axis=-1)  # (..., n, r)
    lam = np.linalg.eigvalsh(np.swapaxes(w.conj(), -1, -2) @ w)
    lam = np.where(lam > 0, lam, 1.0)
    return -np.sum(lam * np.log(lam), axis=-1)


def apply_channel(matrix: np.ndarray, channel: dict) -> np.ndarray:
    if channel["kind"] == "stochastic":
        return np.diag(np.diagonal(matrix).real @ channel["P"]).astype(complex)
    return sum(op @ matrix @ op.conj().T for op in channel["ops"])


def decomposition_value(vecs: np.ndarray, spectrum: np.ndarray, channel: dict) -> float:
    """sum_k p_k S(channel(|v_k><v_k|)) for one decomposition (columns)."""
    ents = image_entropies(vecs.T, channel)
    return float(np.sum(spectrum * ents))


def candidate_values(o: dict, candidates: int, rng: np.random.Generator) -> np.ndarray:
    """Decomposition values of Haar rotations of the degenerate block."""
    vecs, spectrum, channel = o["vecs"], o["spectrum"], o["channel"]
    lo, hi = o["block"]
    k = hi - lo
    z = rng.normal(size=(candidates, k, k)) + 1j * rng.normal(size=(candidates, k, k))
    q, r = np.linalg.qr(z)
    d = np.diagonal(r, axis1=1, axis2=2)
    w = q * (d / np.abs(d))[:, None, :]
    rotated = np.broadcast_to(vecs, (candidates,) + vecs.shape).copy()
    rotated[:, :, lo:hi] = vecs[:, lo:hi] @ w
    return image_entropies(np.swapaxes(rotated, 1, 2), channel) @ spectrum


def recognition_probabilities(rho: np.ndarray, gamma: np.ndarray, basis: np.ndarray) -> np.ndarray:
    """p(i, j) = sum_s gamma_ss |b_i(s + j)|^2 rho_{s+j, s+j}."""
    n = basis.shape[0]
    rd, gd = np.diagonal(rho).real, np.diagonal(gamma).real
    s = np.arange(n)
    idx = (s[None, :] + s[:, None]) % n  # idx[j, s] = s + j
    weights = (np.abs(basis) ** 2)[:, idx] * rd[idx]  # [i, j, s]
    return weights @ gd
