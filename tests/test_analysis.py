from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bellcert import analysis, protocol
from bellcert.device import from_honest
from bellcert.linalg import ID2, SIGMA_X, SIGMA_Z, tensor
from conftest import (commutation_norms, gamma_b, gamma_t, random_density,
                      random_observable_set, random_unitary)


def test_gammas_zero_for_noiseless_honest():
    dev = from_honest(0.0)
    assert gamma_t(dev) == pytest.approx(0.0, abs=1e-12)
    assert gamma_b(dev) == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize("p", [0.05, 0.1, 0.2, 0.3])
def test_gammas_linear_in_depolarizing_noise(p):
    """Both deficits equal p/2 for the depolarized honest device: each pass
    tuple entry is (1-p) + p/2 because every checked projector is rank two."""
    dev = from_honest(p)
    assert gamma_t(dev) == pytest.approx(p / 2, abs=1e-12)
    assert gamma_b(dev) == pytest.approx(p / 2, abs=1e-12)
    for entry in analysis.test_tuple(dev).values():
        assert entry == pytest.approx(1 - p / 2, abs=1e-12)
    for entry in analysis.bell_tuple(dev).values():
        assert entry == pytest.approx(1 - p / 2, abs=1e-12)


def test_pass_tuple_keys_follow_check_table():
    dev = from_honest(0.1)
    names = [c.bucket for c in protocol.CHECKS]
    assert list(analysis.test_tuple(dev)) + list(analysis.bell_tuple(dev)) == names
    report = analysis.analyze(dev)
    assert list(report.test_entries) + list(report.bell_entries) == names


def test_residuals_vanish_for_honest():
    dev = from_honest(0.4)
    for basis in ((0, 0), (0, 1), (1, 0), (1, 1)):
        for leg in (0, 1):
            assert analysis.anticomm_residual(dev, leg, *basis) == \
                pytest.approx(0.0, abs=1e-12)
        for pair in ("z1_x2", "z2_x1"):
            assert analysis.comm_residual(dev, pair, *basis) == \
                pytest.approx(0.0, abs=1e-12)


def test_comm_residual_rejects_unknown_pair():
    from bellcert.errors import ValidationError
    with pytest.raises(ValidationError):
        analysis.comm_residual(from_honest(0.0), "z1_z2", 0, 0)


def test_swap_isometry_is_isometry_for_random_observables(rng):
    for dim in (2, 4, 8):
        for _ in range(5):
            obs = random_observable_set(dim, rng)
            v = analysis.swap_isometry(obs)
            assert v.shape == (4 * dim, dim)
            assert np.max(np.abs(v.conj().T @ v - np.eye(dim))) < 1e-10


def _conjugated_singles(obs):
    """Closed forms of the pulled-back ancilla Paulis.

    Writing P_a = (1 + (-1)^a Z1)/2 and Q_b for leg 2, block (a,b) of the
    isometry is X2^b Q_b X1^a P_a, and summing the four block bilinears
    against each ancilla Pauli collapses (using only O^2 = 1) to the
    expressions below.
    """
    d = obs.z1.shape[0]
    eye = np.eye(d)
    pz = [(eye + s * obs.z1) / 2 for s in (1.0, -1.0)]
    qz = [(eye + s * obs.z2) / 2 for s in (1.0, -1.0)]
    x2_off = (obs.x2 - obs.z2 @ obs.x2 @ obs.z2) / 2
    return {
        "z1": obs.z1,
        "x1": (obs.x1 - obs.z1 @ obs.x1 @ obs.z1) / 2,
        "z2": pz[0] @ obs.z2 @ pz[0] + pz[1] @ obs.x1 @ obs.z2 @ obs.x1 @ pz[1],
        "x2": pz[0] @ x2_off @ pz[0] + pz[1] @ obs.x1 @ x2_off @ obs.x1 @ pz[1],
    }


def test_swap_conjugation_identities_random_observables(rng):
    paulis = {"z1": tensor(SIGMA_Z, ID2), "x1": tensor(SIGMA_X, ID2),
              "z2": tensor(ID2, SIGMA_Z), "x2": tensor(ID2, SIGMA_X)}
    for dim in (2, 4, 8):
        for _ in range(5):
            obs = random_observable_set(dim, rng)
            v = analysis.swap_isometry(obs)
            eye = np.eye(dim)
            expected = _conjugated_singles(obs)
            for name, pauli in paulis.items():
                lhs = v.conj().T @ tensor(pauli, eye) @ v
                assert np.max(np.abs(lhs - expected[name])) < 1e-10, name


def test_pauli_rounding_zero_for_honest():
    report = analysis.pauli_rounding_report(from_honest(0.0))
    assert set(report) == {"z1", "x1", "z2", "x2", "zt1", "xt1", "zt2", "xt2",
                           "z1*z2", "x1*x2", "zt1*xt2", "xt1*zt2"}
    for name, value in report.items():
        assert value == pytest.approx(0.0, abs=1e-10), name


def test_bell_report_honest():
    reports = analysis.bell_report(from_honest(0.0))
    assert len(reports) == 4
    for case in reports:
        assert not case.degenerate
        assert case.branch_trace == pytest.approx(0.25, abs=1e-12)
        assert case.state_distance == pytest.approx(0.0, abs=1e-10)
        assert max(case.measurement_distances.values()) < 1e-10
        # the junk state of the noiseless honest device is |00><00|
        assert np.allclose(case.xi, np.diag([1, 0, 0, 0]).astype(complex),
                           atol=1e-10)


def test_bell_report_flags_missing_branch():
    dev = from_honest(0.0)
    # move all weight in the (1,1) basis onto a single label
    for br in dev.branches[(1, 1)]:
        br.weight = 1.0 if br.label == (0, 0) else 0.0
    reports = {tuple(c.label): c for c in analysis.bell_report(dev)}
    assert reports[(0, 0)].branch_trace == pytest.approx(1.0)
    assert reports[(0, 1)].degenerate
    assert reports[(0, 1)].branch_trace == pytest.approx(0.0, abs=1e-12)


def test_interferometric_pass_prob_interpolates():
    psi = random_density(4, np.random.default_rng(0))
    u = random_unitary(4, np.random.default_rng(1))
    # identical unitaries always accept, opposite ones never do
    assert analysis.interferometric_pass_prob(u, u, psi) == pytest.approx(1.0)
    assert analysis.interferometric_pass_prob(u, -u, psi) == pytest.approx(0.0)


def test_commutation_norms_closed_form(rng):
    """For anticommuting binary observables the anticommutator norm is 0
    and the commutator norm is 4 on any state."""
    a = tensor(SIGMA_Z, ID2)
    b = tensor(SIGMA_X, ID2)
    psi = random_density(4, rng)
    anti, comm = commutation_norms(a, b, psi)
    assert anti == pytest.approx(0.0, abs=1e-12)
    assert comm == pytest.approx(4.0, abs=1e-12)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), shots=st.integers(100, 5000))
def test_interferometric_estimate_within_range(seed, shots):
    r = np.random.default_rng(seed)
    u1, u2 = random_unitary(3, r), random_unitary(3, r)
    psi = random_density(3, r)
    est, err = analysis.interferometric_norm_estimate(u1, u2, psi, shots, r)
    assert 0.0 <= est <= 4.0
    assert err > 0.0


def test_analysis_report_serialization(tmp_path):
    report = analysis.analyze(from_honest(0.1))
    blob = report.to_json()
    assert blob["gamma_t"] == pytest.approx(0.05, abs=1e-12)
    assert len(blob["bell_cases"]) == 4
    assert blob["violations"] == []
    csv_path = tmp_path / "report.csv"
    report.write_csv(str(csv_path))
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0] == "quantity,value"
    assert any(line.startswith("gamma_t,") for line in lines)
