"""Acceptance gate: one test per shipped criterion.

Each test prints a single PASS/FAIL line (visible with `pytest -s`)
before asserting, so a red criterion still reports its measured
numbers. Criterion 2 is a known-red calibration gap: the coarse-grained
chaos degree of the fully chaotic logistic map sits near 1.04, not at
the Lyapunov value ln 2 the criterion pins, and the suite refuses to
widen the tolerance to hide that.
"""

import json
import time

import numpy as np
import pytest

import infodyn
from infodyn import classical, metrics
from infodyn import recognition as rec
from infodyn.channels import schur_apply_from_terms, schur_channel
from infodyn.cli import main
from infodyn.jsonio import dump_json, value_json

LN2 = float(np.log(2))


def report(criterion: int, ok: bool, detail: str) -> bool:
    print(f"criterion {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


def test_criterion_1_logistic_sweep():
    t0 = time.perf_counter()
    rows = classical.sweep(
        classical.BUILTIN_MAPS["logistic"], 3.0, 4.0, 0.005,
        classical.OrbitConfig(transient=1000, samples=100000),
        classical.Partition(((0.0, 1.0),), bins=100),
    )
    elapsed = time.perf_counter() - t0

    def at(a):
        return rows[round((a - 3.0) / 0.005)]

    quiet = max(at(3.2).chaos_degree, at(3.5).chaos_degree)
    loud = at(4.0).chaos_degree
    judged = [r for r in rows if abs(r.lyapunov) > 0.05]
    agree = sum(1 for r in judged if (r.chaos_degree > 0.05) == (r.lyapunov > 0.05))
    rate = agree / len(judged)
    ok = (
        len(rows) == 201
        and quiet <= 1e-3
        and loud >= 0.4
        and rate >= 0.95
        and elapsed <= 60.0
    )
    report(1, ok, f"D(3.2|3.5)={quiet:.2e}, D(4.0)={loud:.3f}, "
                  f"sign agreement {agree}/{len(judged)}={rate:.3f}, {elapsed:.1f}s")
    assert len(rows) == 201
    assert quiet <= 1e-3
    assert loud >= 0.4
    assert rate >= 0.95
    assert elapsed <= 60.0


def test_criterion_2_fully_chaotic_point():
    cfg = classical.OrbitConfig(transient=1000, samples=1000000, param=4.0)
    d = classical.orbit_chaos_degree(
        classical.BUILTIN_MAPS["logistic"], cfg,
        classical.Partition(((0.0, 1.0),), bins=1000),
    )
    lam = classical.lyapunov_exponent(classical.BUILTIN_MAPS["logistic"], cfg)
    d_ok = abs(d - LN2) <= 0.1
    lam_ok = abs(lam - LN2) <= 0.02
    report(2, d_ok and lam_ok,
           f"D={d:.4f} (|D-ln2|={abs(d - LN2):.4f}, tol 0.1), "
           f"lam={lam:.6f} (|lam-ln2|={abs(lam - LN2):.2e}, tol 0.02)")
    assert lam_ok, f"lyapunov {lam} misses ln 2 by {abs(lam - LN2)}"
    assert d_ok, (
        f"chaos degree {d:.4f} misses ln 2 by {abs(d - LN2):.4f} (tol 0.1); "
        "structural gap of the one-step binned estimator, see decisions ledger"
    )


def test_criterion_3_quantum_chaos_degree():
    rng = np.random.default_rng(300)
    cfg = metrics.ComplexityConfig(restarts=50, seed=0)

    worst_ident = 0.0
    for _ in range(50):
        n = int(rng.integers(2, 7))
        rho = infodyn.random_density(n, rng)
        rep = infodyn.chaos_degree(rho, infodyn.identity_channel(n), cfg)
        worst_ident = max(worst_ident, rep.chaos_degree)

    worst_depol = 0.0
    for n in (2, 3, 4, 5, 6):
        rho = infodyn.random_density(n, rng)
        rep = infodyn.chaos_degree(rho, infodyn.depolarizing_channel(n, 1.0), cfg)
        worst_depol = max(worst_depol, abs(rep.chaos_degree - np.log(n)))

    worst_sum = 0.0
    for t in range(50):
        n = 2 if t % 2 == 0 else 3
        rho = infodyn.random_density(n, rng)
        assert not rho.degenerate
        channel = infodyn.random_kraus_channel(n, 2, rng)
        rep = infodyn.chaos_degree(rho, channel, cfg)
        worst_sum = max(worst_sum, abs(rep.chaos_degree + rep.transmitted - rep.output_entropy))

    ok = worst_ident <= 1e-12 and worst_depol <= 1e-9 and worst_sum <= 1e-8
    report(3, ok, f"identity D<={worst_ident:.2e}, |D-ln n|<={worst_depol:.2e}, "
                  f"|D+T-S|<={worst_sum:.2e}")
    assert worst_ident <= 1e-12
    assert worst_depol <= 1e-9
    assert worst_sum <= 1e-8


def test_criterion_4_recognition_three_forms():
    rng = np.random.default_rng(400)
    t0 = time.perf_counter()
    worst_gap = 0.0
    worst_prob = 0.0
    worst_gram = 0.0
    # The production step (closed-form probabilities, recognize_sequence
    # update) against the three routes and the spectral image weight.
    worst_closed_prob = 0.0
    worst_closed_gap = 0.0
    for n in (2, 3, 5, 8):
        bell = rec.BellSystem(rec.SignalBasis.fourier(n))
        worst_gram = max(worst_gram, bell.gram_error())
        for _ in range(20):
            rho = infodyn.random_density(n, rng)
            gamma = infodyn.random_density(n, rng)
            probs = rec.outcome_probabilities(rho, gamma, bell)
            worst_prob = max(worst_prob, abs(float(probs.sum()) - 1.0))
            products = np.kron(rho.eigenvectors, gamma.eigenvectors)  # column (k, l) is g_k (x) h_l
            pair_weights = np.kron(rho.eigenvalues, gamma.eigenvalues)
            for i in range(n):
                for j in range(n):
                    a = rec.update_direct(i, j, rho, gamma, bell).matrix
                    b = rec.update_spectral(i, j, rho, gamma, bell).matrix
                    c = rec.update_composed(i, j, rho, gamma, bell).matrix
                    worst_gap = max(
                        worst_gap,
                        float(np.max(np.abs(a - b))),
                        float(np.max(np.abs(a - c))),
                    )
                    images = rec.transfer_operator(bell, i, j) @ products
                    image_weight = float(np.sum(np.abs(images) ** 2, axis=0) @ pair_weights)
                    step = next(iter(rec.recognize_sequence(gamma, [rho], bell, rec.FixedPolicy(i, j))))
                    worst_closed_prob = max(
                        worst_closed_prob,
                        abs(float(probs[i, j]) - image_weight),
                        abs(step.probability - image_weight),
                    )
                    worst_closed_gap = max(
                        worst_closed_gap,
                        *(float(np.max(np.abs(step.memory.matrix - m))) for m in (a, b, c)),
                    )
    elapsed = time.perf_counter() - t0
    ok = (worst_gap <= 1e-10 and worst_prob <= 1e-12 and worst_gram <= 1e-12
          and worst_closed_prob <= 1e-10 and worst_closed_gap <= 1e-10 and elapsed <= 30.0)
    report(4, ok, f"route gap<={worst_gap:.2e}, prob sum err<={worst_prob:.2e}, "
                  f"gram err<={worst_gram:.2e}, closed-form prob err<={worst_closed_prob:.2e}, "
                  f"closed-form update gap<={worst_closed_gap:.2e}, {elapsed:.1f}s")
    assert worst_gap <= 1e-10
    assert worst_prob <= 1e-12
    assert worst_gram <= 1e-12
    assert worst_closed_prob <= 1e-10
    assert worst_closed_gap <= 1e-10
    assert elapsed <= 30.0


def test_criterion_5_axiom_suite():
    failures = []
    worst = {}
    for dim in (2, 3, 4, 5, 6):
        results = infodyn.axiom_suite(dim, 20, 500 + dim)
        for name, res in results.items():
            stored = worst.get(name, -np.inf)
            worst[name] = max(stored, res.worst_deviation)
            if not res.passed:
                failures.append((dim, name, res.worst_deviation))
    ok = not failures
    summary = ", ".join(f"{k}<={v:.1e}" for k, v in sorted(worst.items()))
    report(5, ok, f"100 instances per axiom over dims 2-6; {summary}")
    assert not failures, failures


def test_criterion_6_weight_representation_independence():
    rng = np.random.default_rng(600)
    worst_rep = 0.0
    worst_oracle = 0.0
    for n in (2, 3, 4):
        tau = np.eye(n) / n
        standard = [(1.0 / n, np.eye(n)[:, k].astype(complex)) for k in range(n)]
        u = infodyn.random_unitary(n, rng)
        rotated = [(1.0 / n, u[:, k]) for k in range(n)]
        for _ in range(10):
            rho = infodyn.random_density(n, rng).matrix
            out_a = schur_apply_from_terms(standard, rho)
            out_b = schur_apply_from_terms(rotated, rho)
            oracle = schur_channel(tau).apply_matrix(rho)
            worst_rep = max(worst_rep, float(np.max(np.abs(out_a - out_b))))
            worst_oracle = max(worst_oracle, float(np.max(np.abs(out_a - oracle))))
    ok = worst_rep <= 1e-12 and worst_oracle <= 1e-12
    report(6, ok, f"representation gap<={worst_rep:.2e}, product oracle gap<={worst_oracle:.2e}")
    assert worst_rep <= 1e-12
    assert worst_oracle <= 1e-12


def test_criterion_7_cli_determinism(tmp_path):
    state = tmp_path / "state.json"
    state.write_text(dump_json([[0.5, 0.0], [0.0, 0.5]]))
    channel = tmp_path / "channel.json"
    channel.write_text(dump_json({"kind": "stochastic", "P": [[0.3, 0.7], [0.6, 0.4]]}))
    experiment = tmp_path / "experiment.json"
    experiment.write_text(dump_json({
        "n": 3, "basis": "fourier",
        "rho": [[0.5, 0.0, 0.0], [0.0, 0.3, 0.0], [0.0, 0.0, 0.2]],
        "gamma": [[0.4, 0.0, 0.0], [0.0, 0.4, 0.0], [0.0, 0.0, 0.2]],
        "policy": "sample", "seed": 17, "steps": 6,
    }))
    batch = tmp_path / "batch.json"
    batch.write_text(dump_json({"dim": 2, "pairs": 6, "seed": 2}))

    runs = {
        "ecd-sweep/w1": ["ecd-sweep", "--map", "logistic", "--from", "3.5", "--to", "3.8",
                         "--step", "0.05", "--samples", "3000", "--transient", "200",
                         "--bins", "40", "--workers", "1"],
        "ecd-sweep/w3": ["ecd-sweep", "--map", "logistic", "--from", "3.5", "--to", "3.8",
                         "--step", "0.05", "--samples", "3000", "--transient", "200",
                         "--bins", "40", "--workers", "3"],
        "quantum-ecd": ["quantum-ecd", "--state", str(state), "--channel", str(channel),
                        "--restarts", "30"],
        "recognize": ["recognize", "--experiment", str(experiment)],
        "axioms": ["axioms", "--dim", "2", "--trials", "5", "--seed", "0"],
        "value": ["value", "--batch", str(batch)],
    }
    outputs = {}
    for name, argv in runs.items():
        blobs = []
        for attempt in range(2):
            out = tmp_path / f"{name.replace('/', '_')}_{attempt}.out"
            code = main(argv + ["--out", str(out)])
            assert code == 0, (name, code)
            blobs.append(out.read_bytes())
        outputs[name] = blobs
    mismatched = [name for name, (a, b) in outputs.items() if a != b]
    cross_worker = outputs["ecd-sweep/w1"][0] == outputs["ecd-sweep/w3"][0]
    ok = not mismatched and cross_worker
    report(7, ok, f"6 invocation shapes re-run byte-identical; "
                  f"worker counts 1 and 3 match: {cross_worker}")
    assert not mismatched, mismatched
    assert cross_worker


def test_criterion_8_conjecture_harness():
    outcomes, rate = infodyn.conjecture_batch(2, 100, 0)
    payload = json.loads(value_json(outcomes, rate, 2, 0))["pairs"]
    ok = len(outcomes) == 100 and 0.0 <= rate <= 1.0 and all(
        isinstance(o["agree"], bool) for o in payload
    )
    report(8, ok, f"100 pairs, agreement rate {rate:.2f} (reported, not asserted)")
    assert len(outcomes) == 100
    assert 0.0 <= rate <= 1.0
    json.dumps(payload)
