"""Correctness checks of one run's outputs, run untimed after the run.

`check(workload, inv, outdir)` returns a list of problems with the outputs
of one invocation; an empty list means the invocation is correct.
Tolerances:
  sweep      D and lyapunov within TOL_CSV relative of the lockstep
             reference (the CSV carries 9 significant digits); params
             and labels exact; the SVG parses as XML with an <svg> root.
  search     D + T = S_out within 1e-8; 0 <= D <= S_out; worst >= D;
             evaluated candidates = restarts + 1; S_out within 1e-8 of
             the reference; D below a quantile of independently sampled
             candidate values (see `_search`).
  recognize  each step's probability within 1e-10 of the library's
             single-outcome probability and of the closed-form
             distribution; gamma within 1e-9 of the `update_spectral`
             oracle; outcomes exact for sample and fixed, within 1e-10 of
             the maximum for argmax.
  batch      values within 1e-8 of references; all axioms passed.
"""

from __future__ import annotations

import json
import math
import os
import xml.etree.ElementTree as ET

import numpy as np

import oracle

TOL_CSV = 1e-8
TOL_SUM = 1e-8
TOL_PROB = 1e-10
TOL_GAMMA = 1e-9
TOL_VALUE = 1e-8
SEARCH_SAMPLES = 2


def _read(outdir: str, rel: str) -> str:
    with open(os.path.join(outdir, rel), encoding="utf-8") as fh:
        return fh.read()


def _close(x: float, ref: float, rel: float) -> bool:
    if math.isinf(ref) or math.isinf(x):
        return x == ref
    return abs(x - ref) <= rel * abs(ref) + 1e-12


def _matrix(rows) -> np.ndarray:
    return np.array([[complex(*v) if isinstance(v, list) else complex(v) for v in row]
                     for row in rows])


def _sweep(inv, outdir):
    e = inv["expect"]
    lines = _read(outdir, inv["outs"][0]).splitlines()
    if lines[0] != "a,D,lyapunov,label":
        return [f"bad CSV header {lines[0]!r}"]
    rows = [line.split(",") for line in lines[1:]]
    if len(rows) != len(e["params"]):
        return [f"{len(rows)} rows, expected {len(e['params'])}"]
    problems = []
    for k, (a, d, lam, label) in enumerate(rows):
        if a != f"{e['params'][k]:.9g}":
            problems.append(f"row {k}: param {a} != {e['params'][k]:.9g}")
        if not _close(float(d), e["D"][k], TOL_CSV):
            problems.append(f"row {k}: D {d} vs reference {e['D'][k]!r}")
        if not _close(float(lam), e["lyapunov"][k], TOL_CSV):
            problems.append(f"row {k}: lyapunov {lam} vs reference {e['lyapunov'][k]!r}")
        if label != e["labels"][k]:
            problems.append(f"row {k}: label {label} vs reference {e['labels'][k]}")
    if e["plot"]:
        try:
            root = ET.fromstring(_read(outdir, inv["outs"][1]))
        except ET.ParseError as exc:
            problems.append(f"SVG is not well-formed: {exc}")
        else:
            if not root.tag.endswith("svg"):
                problems.append(f"SVG root is {root.tag}")
    return problems


def _scale(base: str) -> float:
    """Factor from nats to the report's `--log-base`."""
    return 1.0 / math.log(math.e if base == "e" else float(base))


def _report_checks(out, e, s_out_ref, d_ref=None):
    """Invariants shared by degenerate and non-degenerate quantum-ecd reports."""
    scale = _scale(e["base"])
    d, t, s = out["D"], out["T"], out["S_out"]
    problems = []
    expected = e["restarts"] + 1 if e["degenerate"] else 1
    if out["restarts"] != expected:
        problems.append(f"evaluated {out['restarts']} candidates, expected {expected}")
    if out["degenerate"] is not e["degenerate"]:
        problems.append(f"degenerate flag {out['degenerate']}")
    if abs(d + t - s) > TOL_SUM:
        problems.append(f"D + T - S_out = {d + t - s:.3e}")
    if not (-1e-12 <= d <= s + 1e-12):
        problems.append(f"D = {d!r} outside [0, S_out = {s!r}]")
    if out["worst"] < d - 1e-12:
        problems.append(f"worst {out['worst']!r} below D {d!r}")
    if abs(s - s_out_ref * scale) > TOL_SUM:
        problems.append(f"S_out {s!r} vs reference {s_out_ref * scale!r}")
    if d_ref is not None and abs(d - d_ref * scale) > TOL_SUM:
        problems.append(f"D {d!r} vs reference {d_ref * scale!r}")
    return problems


def _search(inv, outdir):
    """The reference is the distribution of single-candidate values,
    sampled by an independent batched search (SEARCH_SAMPLES x restarts
    Haar rotations). An honest search keeps the minimum of `restarts`
    such draws, which exceeds the q-quantile with probability
    (1 - q)^restarts; q is set so that this is about 1e-12. So a change of
    the program's seeding is never counted as a failure, while a search
    that skips most of its candidates is."""
    e, o = inv["expect"], inv["_oracle"]
    out = json.loads(_read(outdir, inv["outs"][0]))
    rho = (o["vecs"] * o["spectrum"]) @ o["vecs"].conj().T
    s_out = oracle.entropy(oracle.apply_channel(rho, o["channel"]))
    problems = _report_checks(out, e, s_out)
    rng = np.random.default_rng([o["seed"], 1])
    values = oracle.candidate_values(o, SEARCH_SAMPLES * e["restarts"], rng)
    q = min(1.0, 2.0 * math.log(1e6) / e["restarts"])
    bound = float(np.quantile(values, q)) + 1e-9
    scale = _scale(e["base"])
    if out["D"] > bound * scale:
        problems.append(f"D {out['D']!r} above the {q:.3f}-quantile {bound * scale!r} "
                        "of single-candidate values")
    return problems


def _recognize(inv, outdir):
    from infodyn.recognition import BellSystem, SignalBasis, outcome_probability, update_spectral

    e = inv["expect"]
    exp = next(iter(inv["files"].values()))
    n = exp["n"]
    if exp["basis"] == "fourier":
        basis = SignalBasis.fourier(n)
    else:
        basis = SignalBasis(_matrix(exp["basis"]["custom"]))
    bell = BellSystem(basis)
    rho = exp["rho"]
    signals = [_matrix(m) for m in rho] if isinstance(rho[0][0][0], list) else [_matrix(rho)] * e["steps"]
    gamma = _matrix(exp["gamma"])
    lines = _read(outdir, inv["outs"][0]).splitlines()
    if len(lines) != e["steps"]:
        return [f"{len(lines)} steps, expected {e['steps']}"]
    rng = np.random.default_rng(exp["seed"]) if e["policy"] == "sample" else None
    problems = []
    for t, line in enumerate(lines):
        step = json.loads(line)
        i, j, p = step["i"], step["j"], step["probability"]
        probs = oracle.recognition_probabilities(signals[t], gamma, basis.vectors)
        if step["t"] != t or not (0 <= i < n and 0 <= j < n):
            problems.append(f"step {t}: bad record t={step['t']} i={i} j={j}")
            break
        lib_p = outcome_probability(i, j, signals[t], gamma, bell)
        if abs(p - lib_p) > TOL_PROB or abs(p - probs[i, j]) > TOL_PROB:
            problems.append(f"step {t}: probability {p!r} vs {lib_p!r} / {probs[i, j]!r}")
        if e["policy"] == "fixed" and [i, j] != exp["policy"]["fixed"]:
            problems.append(f"step {t}: outcome ({i}, {j}) under fixed policy")
        elif e["policy"] == "argmax" and p < probs.max() - TOL_PROB:
            problems.append(f"step {t}: argmax picked p={p!r} < max {probs.max()!r}")
        elif rng is not None:
            cumulative = np.cumsum(probs.reshape(-1))
            draw = rng.random() * cumulative[-1]
            flat = min(int(np.searchsorted(cumulative, draw, side="right")), n * n - 1)
            if (i, j) != divmod(flat, n):
                problems.append(f"step {t}: sampled ({i}, {j}), expected {divmod(flat, n)}")
        new_gamma = _matrix(step["gamma"])
        ref = update_spectral(i, j, signals[t], gamma, bell).matrix
        err = float(np.max(np.abs(new_gamma - ref)))
        if err > TOL_GAMMA:
            problems.append(f"step {t}: gamma deviates from update_spectral by {err:.3e}")
        if abs(step["entropy_of_gamma"] - oracle.entropy(new_gamma)) > TOL_GAMMA:
            problems.append(f"step {t}: entropy_of_gamma {step['entropy_of_gamma']!r}")
        gamma = new_gamma
        if len(problems) > 5:
            break
    return problems


def _preference(first, second):
    if first > second + 1e-10:
        return "first"
    if second > first + 1e-10:
        return "second"
    return "tie"


def _value(inv, outdir):
    from infodyn.hilbert import random_density
    from infodyn.channels import random_kraus_channel

    cfg = inv["expect"]
    out = json.loads(_read(outdir, inv["outs"][0]))
    pairs = out["pairs"]
    problems = []
    if len(pairs) != cfg["pairs"] or out["dim"] != cfg["dim"] or out["seed"] != cfg["seed"]:
        return [f"payload has {len(pairs)} pairs, dim {out['dim']}, seed {out['seed']}"]
    rate = sum(p["agree"] for p in pairs) / len(pairs)
    if out["agreement_rate"] != rate:
        problems.append(f"agreement_rate {out['agreement_rate']} != {rate}")
    # Instances are rebuilt with the library's public generators in the
    # order the batch draws them; values are evaluated independently.
    dim, rng = cfg["dim"], np.random.default_rng(cfg["seed"])
    for k, rec in enumerate(pairs):
        rho, gamma = random_density(dim, rng), random_density(dim, rng)
        ch_a = random_kraus_channel(dim * dim, cfg["kraus_terms"], rng)
        ch_b = ch_a if cfg["identical_channels"] else random_kraus_channel(dim * dim, cfg["kraus_terms"], rng)
        g = rng.normal(size=(dim * dim, dim * dim)) + 1j * rng.normal(size=(dim * dim, dim * dim))
        purpose = 0.5 * (g + g.conj().T)
        joint = np.kron(rho.matrix, gamma.matrix)
        lam, vec = np.linalg.eigh(joint)
        unique = float(np.min(np.diff(lam))) > 1e-8
        for key_d, key_v, ch in (("D", "V", ch_a), ("D_prime", "V_prime", ch_b)):
            d_ref = sum(float(lam[m]) * oracle.entropy(ch.apply_matrix(np.outer(vec[:, m], vec[:, m].conj())))
                        for m in range(lam.size) if lam[m] > 1e-15)
            v_ref = float(np.trace(ch.apply_matrix(joint) @ purpose).real)
            if rec[key_d] < -1e-12 or (unique and abs(rec[key_d] - d_ref) > TOL_VALUE) \
                    or rec[key_d] > d_ref + TOL_VALUE:
                problems.append(f"pair {k}: {key_d} {rec[key_d]!r} vs reference {d_ref!r}")
            if abs(rec[key_v] - v_ref) > TOL_VALUE:
                problems.append(f"pair {k}: {key_v} {rec[key_v]!r} vs reference {v_ref!r}")
        agree = _preference(rec["D_prime"], rec["D"]) == _preference(rec["V"], rec["V_prime"])
        if rec["agree"] is not agree:
            problems.append(f"pair {k}: agree {rec['agree']} inconsistent with D and V")
        if cfg["identical_channels"] and (rec["D"] != rec["D_prime"] or rec["V"] != rec["V_prime"]):
            problems.append(f"pair {k}: identical channels give different values")
    return problems


def _axioms(inv, outdir):
    out = json.loads(_read(outdir, inv["outs"][0]))
    problems = [] if out.get("all_passed") is True else ["all_passed is not true"]
    names = ("nonnegativity", "relabel_invariance", "additivity", "transmitted_bounded",
             "identity_recovery")
    for name in names:
        r = out.get(name)
        if r is None or r["passed"] is not True or r["trials"] != inv["expect"]["trials"] \
                or r["worst_deviation"] > r["tolerance"]:
            problems.append(f"axiom {name}: {r}")
    return problems


def _qecd(inv, outdir):
    e, o = inv["expect"], inv["_oracle"]
    out = json.loads(_read(outdir, inv["outs"][0]))
    lam, vec = np.linalg.eigh(o["matrix"])
    d_ref = oracle.decomposition_value(vec, lam, o["channel"])
    s_out = oracle.entropy(oracle.apply_channel(o["matrix"], o["channel"]))
    return _report_checks(out, e, s_out, d_ref)


def _batch(inv, outdir):
    kind = inv["kind"]
    if kind.startswith("value"):
        return _value(inv, outdir)
    if kind.startswith("axioms"):
        return _axioms(inv, outdir)
    return _qecd(inv, outdir)


CHECKS = {"sweep": _sweep, "search": _search, "recognize": _recognize, "batch": _batch}


def check(workload: str, inv: dict, outdir: str) -> list[str]:
    try:
        return CHECKS[workload](inv, outdir)
    except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
        return [f"unreadable output: {type(exc).__name__}: {exc}"]
