"""End-to-end acceptance checks.

Each test covers one headline requirement and prints a one-line verdict
so a plain ``pytest -v`` run doubles as a checklist of the system's
guarantees: throughput and correctness of both backends, exactness of the
operator identities, the analytic noise response, agreement between the
white-box and sampled diagnostics, the classical/quantum gap, and full
transparency of the TCP transport.
"""
from __future__ import annotations

import json
import time

import numpy as np
import pytest

from bellcert import analysis, entcf, net
from bellcert.device import from_honest
from bellcert.entcf import EntcfParams
from bellcert.harness import RunConfig, estimate_gammas, run_sessions
from bellcert.linalg import ID2, SIGMA_X, SIGMA_Z, tensor
from conftest import (gamma_b, gamma_t, interferometric_norm_estimate, interferometric_pass_prob,
                      random_density, random_observable_set, random_unitary)

FAIL_FLAGS = ("fail_pre", "fail_test", "fail_bell")


def _ok(name: str, detail: str = "") -> None:
    print(f"PASS {name}" + (f" ({detail})" if detail else ""))


def test_acceptance_01_ideal_backend_throughput():
    """10k honest sessions on the ideal backend: fast and flawless."""
    start = time.perf_counter()
    stats = run_sessions(RunConfig(params=EntcfParams("ideal"), sessions=10_000,
                                   strategy="honest", seed=101))
    elapsed = time.perf_counter() - start
    assert elapsed <= 10.0, f"10k sessions took {elapsed:.1f}s"
    assert stats.sessions == 10_000 and stats.aborted == 0
    for flag in FAIL_FLAGS:
        assert stats.flag_counts.get(flag, 0) == 0
    # every basis pair and both round types actually occurred
    assert stats.fail_cond["fail_pre"][1] > 0
    assert stats.fail_cond["fail_test"][1] > 0
    assert stats.fail_cond["fail_bell"][1] > 0
    assert all(total > 0 for _, total in stats.test_counts.values())
    assert all(total > 0 for _, total in stats.bell_counts.values())
    _ok("ideal throughput", f"{elapsed:.2f}s, flags {dict(stats.flag_counts)}")


def test_acceptance_02_lattice_backend_correctness():
    """2k honest sessions on the lattice backend decode without error."""
    start = time.perf_counter()
    stats = run_sessions(RunConfig(params=EntcfParams("lwe"), sessions=2_000,
                                   strategy="honest", seed=102))
    elapsed = time.perf_counter() - start
    assert elapsed <= 120.0, f"2k lattice sessions took {elapsed:.1f}s"
    assert stats.aborted == 0 and stats.undecodable == 0
    for flag in FAIL_FLAGS:
        assert stats.flag_counts.get(flag, 0) == 0
    _ok("lattice correctness", f"{elapsed:.2f}s")


@pytest.mark.parametrize("backend", ["ideal", "lwe"])
def test_acceptance_03_function_pair_suite(backend):
    """1000 keypairs per family: claws, branch decoding, checks, parities."""
    params = EntcfParams(backend=backend)
    rng = np.random.default_rng(103)
    for _ in range(1000):
        pk, td = entcf.gen("F", params, rng)
        b = int(rng.integers(2))
        x = entcf.random_preimage(params, rng)
        y = entcf.eval_sample(pk, b, x, rng)
        assert entcf.chk(pk, y, b, x)
        assert entcf.invert(td, pk, b, y) == x
        partner = entcf.invert(td, pk, 1 - b, y)
        assert partner is not None and entcf.chk(pk, y, 1 - b, partner)
        d = entcf.random_preimage(params, rng)
        eq = entcf.decode_equation(td, pk, y, d)
        assert eq == (d & (x ^ partner)).bit_count() % 2
        assert entcf.decode_equation(td, pk, y, d) == eq  # deterministic
    for _ in range(1000):
        pk, td = entcf.gen("G", params, rng)
        b = int(rng.integers(2))
        x = entcf.random_preimage(params, rng)
        y = entcf.eval_sample(pk, b, x, rng)
        assert entcf.chk(pk, y, b, x)
        assert entcf.decode_bit(td, pk, y) == b
        assert entcf.invert(td, pk, b, y) == x
        assert entcf.invert(td, pk, 1 - b, y) is None
    _ok(f"function pair suite [{backend}]", "1000 keys per family")


def test_acceptance_04_operator_identities():
    """Swap-isometry identities hold exactly for 100 random observable sets."""
    rng = np.random.default_rng(104)
    paulis = {"z1": tensor(SIGMA_Z, ID2), "x1": tensor(SIGMA_X, ID2),
              "z2": tensor(ID2, SIGMA_Z), "x2": tensor(ID2, SIGMA_X)}
    worst = 0.0
    for trial in range(100):
        dim = (2, 4, 8)[trial % 3]
        obs = random_observable_set(dim, rng)
        eye = np.eye(dim)
        for o in obs.values():
            worst = max(worst, float(np.max(np.abs(o @ o - eye))))
            worst = max(worst, float(np.max(np.abs(o - o.conj().T))))
        v = analysis.swap_isometry(obs)
        worst = max(worst, float(np.max(np.abs(v.conj().T @ v - eye))))
        z1, x1, z2, x2 = obs["z1"], obs["x1"], obs["z2"], obs["x2"]
        pz = [(eye + s * z1) / 2 for s in (1.0, -1.0)]
        x2_off = (x2 - z2 @ x2 @ z2) / 2
        expected = {
            "z1": z1,
            "x1": (x1 - z1 @ x1 @ z1) / 2,
            "z2": pz[0] @ z2 @ pz[0] + pz[1] @ x1 @ z2 @ x1 @ pz[1],
            "x2": pz[0] @ x2_off @ pz[0] + pz[1] @ x1 @ x2_off @ x1 @ pz[1],
        }
        for name, pauli in paulis.items():
            lhs = v.conj().T @ tensor(pauli, eye) @ v
            worst = max(worst, float(np.max(np.abs(lhs - expected[name]))))
    assert worst < 1e-10
    _ok("operator identities", f"worst deviation {worst:.2e}")


def test_acceptance_05_zero_noise_fixed_point():
    """The noiseless honest device is an exact fixed point of every
    diagnostic: zero deficits, zero residuals, zero distances."""
    report = analysis.analyze(from_honest(0.0))
    assert report.violations == []
    assert abs(report.gamma_t) < 1e-10
    assert abs(report.gamma_b) < 1e-10
    assert max(report.anticomm.values()) < 1e-10
    assert max(report.comm.values()) < 1e-10
    assert max(report.pauli_rounding.values()) < 1e-10
    for case in report.bell_cases:
        assert not case.degenerate
        assert case.state_distance < 1e-10
        assert max(case.measurement_distances.values()) < 1e-10
    _ok("zero-noise fixed point")


@pytest.mark.parametrize("p", [0.05, 0.1, 0.2, 0.3])
def test_acceptance_06_depolarizing_response(p):
    """White-box deficits of the depolarized honest device match the
    independently derived closed form p/2.

    Each checked slot compares one answer bit of a rank-two projector
    against a uniformly mixed component of weight p, so every pass-tuple
    entry equals (1-p) + p/2 and both minima sit at 1 - p/2.  (Verified
    beforehand by brute-force trace evaluation of all sixteen branch
    states; the joint two-bit pass rate would instead give 3p/4, which is
    a different quantity than the per-observable deficits computed here.)
    """
    dev = from_honest(p)
    report = analysis.analyze(dev)
    assert report.gamma_t == pytest.approx(p / 2, abs=1e-9)
    assert report.gamma_b == pytest.approx(p / 2, abs=1e-9)
    for value in report.test_entries.values():
        assert value == pytest.approx(1 - p / 2, abs=1e-9)
    for value in report.bell_entries.values():
        assert value == pytest.approx(1 - p / 2, abs=1e-9)
    _ok(f"depolarizing response p={p}", f"gamma_t={report.gamma_t:.4f}")


def test_acceptance_07_cross_path_consistency():
    """Sampled estimates from 10k protocol sessions agree with the
    white-box deficits within 3-sigma, and the conditional failure rates
    dominate the deficits via the counting bounds."""
    p = 0.2
    dev = from_honest(p)
    white_t, white_b = gamma_t(dev), gamma_b(dev)
    stats = run_sessions(RunConfig(params=EntcfParams("ideal"), sessions=10_000,
                                   strategy=f"honest_depolarized:{p}", seed=107))
    est = estimate_gammas(stats)
    assert not est.gamma_t.insufficient and not est.gamma_b.insufficient
    assert abs(est.gamma_t.value - white_t) <= est.gamma_t.sigma3
    assert abs(est.gamma_b.value - white_b) <= est.gamma_b.sigma3
    assert est.gamma_p.value == pytest.approx(0.0)
    # counting bounds: deficit <= multiplier * conditional failure rate
    ft_fails, ft_total = stats.fail_cond["fail_test"]
    fb_fails, fb_total = stats.fail_cond["fail_bell"]
    sig_t = 3 * np.sqrt(max(ft_fails, 1)) / ft_total
    sig_b = 3 * np.sqrt(max(fb_fails, 1)) / fb_total
    assert white_t <= 8 * (ft_fails / ft_total + sig_t)
    assert white_b <= 2 * (fb_fails / fb_total + sig_b)
    _ok("cross-path consistency",
        f"gamma_t {est.gamma_t.value:.4f}±{est.gamma_t.sigma3:.4f} vs {white_t:.4f}")


def test_acceptance_08_quantumness_gap():
    """Strategies without entanglement pass the cross-parity check at
    chance (1/2); the honest quantum strategy passes always."""
    rates = {}
    for strategy in ("classical_guess", "no_entangler", "honest"):
        cfg = RunConfig(params=EntcfParams("ideal"), sessions=11_000,
                        strategy=strategy, seed=108,
                        force_basis=(1, 1), force_round="hadamard")
        stats = run_sessions(cfg)
        ok = sum(s for s, _ in stats.bell_counts.values())
        total = sum(t for _, t in stats.bell_counts.values())
        assert total >= 5000
        rates[strategy] = ok / total
    assert abs(rates["classical_guess"] - 0.5) <= 0.02
    assert abs(rates["no_entangler"] - 0.5) <= 0.02
    assert rates["honest"] == 1.0
    _ok("quantumness gap",
        ", ".join(f"{k}={v:.4f}" for k, v in rates.items()))


def test_acceptance_09_interferometric_estimator():
    """Sampled interference estimates of ||U1+U2||^2 track the exact
    traces within 3-sigma for 20 random triples at 1e5 shots."""
    rng = np.random.default_rng(109)
    misses = 0
    for trial in range(20):
        dim = int(rng.integers(2, 9))
        u1, u2 = random_unitary(dim, rng), random_unitary(dim, rng)
        psi = random_density(dim, rng)
        exact = 4.0 * interferometric_pass_prob(u1, u2, psi)
        est, err = interferometric_norm_estimate(u1, u2, psi, 100_000, rng)
        if abs(est - exact) > 3.0 * err:
            misses += 1
    assert misses == 0, f"{misses}/20 triples outside 3 sigma"
    _ok("interferometric estimator", "20 triples at 1e5 shots")


def test_acceptance_10_transport_transparency(tmp_path):
    """100 sessions over TCP produce byte-identical transcripts to the
    in-process harness with the same seed."""
    seed = 110
    inproc = tmp_path / "inproc.jsonl"
    run_sessions(RunConfig(params=EntcfParams("ideal"), sessions=100, seed=seed,
                           transcript_path=str(inproc)))
    wire = tmp_path / "wire.jsonl"
    cfg = RunConfig(params=EntcfParams("ideal"), sessions=100, seed=seed,
                    transcript_path=str(wire))
    thread, port, result = net.serve_in_thread("127.0.0.1", 0, cfg, timeout=30)
    flags = [net.run_prover("127.0.0.1", port, "honest", seed) for _ in range(100)]
    thread.join(30)
    assert wire.read_bytes() == inproc.read_bytes()
    recorded = [json.loads(line)["flag"] for line in inproc.read_text().splitlines()]
    assert flags == recorded
    assert result and result[0].aborted == 0
    _ok("transport transparency", "100 sessions byte-identical")
