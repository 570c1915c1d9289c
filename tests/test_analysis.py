from __future__ import annotations

import copy
import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bellcert import analysis, protocol
from bellcert.device import (BASIS_PAIRS, MARGINALS, OUTCOME_PAIRS, QUESTION_PAIRS,
                             device_to_json, from_honest, load_device, no_entangler,
                             partial_states, projectors, sigma, sigma_partial, validate)
from bellcert.errors import ValidationError
from bellcert.linalg import (ID2, SIGMA_X, SIGMA_Z, bell_state, outcome_vec, rank_factor,
                             signed_factor, tensor, trace_distance)
from bellcert.provers import answer_table
from conftest import (born_table, commutation_norms, dense_born_pass_probs,
                      dense_pass_probs, dense_pauli_rounding, dense_residuals, dense_sigma,
                      dense_sigma_partial, dense_validate, embed_device, gamma_b, gamma_t,
                      interferometric_norm_estimate, interferometric_pass_prob, observables,
                      random_density, random_measurement, random_observable_set,
                      random_unitary)


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
    for entry in analysis.test_tuple(born_table(dev)).values():
        assert entry == pytest.approx(1 - p / 2, abs=1e-12)
    for entry in analysis.bell_tuple(born_table(dev)).values():
        assert entry == pytest.approx(1 - p / 2, abs=1e-12)


def test_no_entangler_deficits_are_one_half():
    """Without the CZ, every X check on a leg opposite a Z one, and each
    cross-parity check, passes at chance: the white-box side of the chance
    Bell rate that acceptance test 08 measures."""
    report = analysis.analyze(no_entangler())
    assert report.violations == []
    assert report.gamma_t == pytest.approx(0.5, abs=1e-12)
    assert report.gamma_b == pytest.approx(0.5, abs=1e-12)


def test_pass_tuple_keys_follow_check_table():
    dev = from_honest(0.1)
    names = [c.bucket for c in protocol.CHECKS]
    table = born_table(dev)
    assert list(analysis.test_tuple(table)) + list(analysis.bell_tuple(table)) == names
    report = analysis.analyze(dev)
    assert list(report.test_entries) + list(report.bell_entries) == names


def test_check_buckets_name_their_marginals():
    """Each part of a row's bucket names, in ``MARGINALS``, the row's own
    question pair on the row's legs in leg order, so the marginal that the
    observable form ``conftest.dense_pass_probs`` reads for a row is the
    answer the verdict checks."""
    for row in protocol.CHECKS:
        parts = row.bucket.split("_")
        assert [MARGINALS[name] for name in parts] == \
            [(row.questions, leg) for leg in row.legs], row.bucket


def _full_states(dev):
    return np.array([sigma(dev, *basis) for basis in BASIS_PAIRS])


def test_residuals_vanish_for_honest():
    dev = from_honest(0.4)
    obs = observables(dev)
    states = _full_states(dev)
    for leg in (0, 1):
        res = analysis.anticomm_residual(states, leg, obs)
        assert list(res) == BASIS_PAIRS
        assert max(res.values()) == pytest.approx(0.0, abs=1e-12)
    for pair in ("z1_x2", "z2_x1"):
        res = analysis.comm_residual(states, pair, obs)
        assert list(res) == BASIS_PAIRS
        assert max(res.values()) == pytest.approx(0.0, abs=1e-12)


def test_comm_residual_rejects_unknown_pair():
    dev = from_honest(0.0)
    with pytest.raises(ValidationError):
        analysis.comm_residual(_full_states(dev), "z1_z2", observables(dev))


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
    z1, x1, z2, x2 = obs["z1"], obs["x1"], obs["z2"], obs["x2"]
    eye = np.eye(z1.shape[0])
    pz = [(eye + s * z1) / 2 for s in (1.0, -1.0)]
    x2_off = (x2 - z2 @ x2 @ z2) / 2
    return {
        "z1": z1,
        "x1": (x1 - z1 @ x1 @ z1) / 2,
        "z2": pz[0] @ z2 @ pz[0] + pz[1] @ x1 @ z2 @ x1 @ pz[1],
        "x2": pz[0] @ x2_off @ pz[0] + pz[1] @ x1 @ x2_off @ x1 @ pz[1],
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


def _pauli_rounding(dev):
    obs = observables(dev)
    return analysis.pauli_rounding_report(obs, analysis.swap_isometry(obs), sigma(dev, 1, 1))


def _bell_report(dev):
    return analysis.bell_report(partial_states(dev)[BASIS_PAIRS.index((1, 1))], projectors(dev),
                                analysis.swap_isometry(observables(dev)))


def test_pauli_rounding_zero_for_honest():
    dev = from_honest(0.0)
    report = _pauli_rounding(dev)
    assert set(report) == {"z1", "x1", "z2", "x2", "zt1", "xt1", "zt2", "xt2",
                           "z1*z2", "x1*x2", "zt1*xt2", "xt1*zt2"}
    for name, value in report.items():
        assert value == pytest.approx(0.0, abs=1e-10), name


def test_bell_report_honest():
    dev = from_honest(0.0)
    reports = _bell_report(dev)
    assert len(reports) == 4
    for case in reports:
        assert not case.degenerate
        assert case.branch_trace == pytest.approx(0.25, abs=1e-12)
        assert case.state_distance == pytest.approx(0.0, abs=1e-10)
        assert max(case.measurement_distances.values()) < 1e-10
        # the junk state of the noiseless honest device is |00><00|
        assert np.allclose(case.xi, np.diag([1, 0, 0, 0]).astype(complex),
                           atol=1e-10)


def _missing_branch_device():
    """The noiseless honest device with all weight in the (1,1) basis on
    the single label (0, 0)."""
    dev = from_honest(0.0)
    for br in dev.branches[(1, 1)]:
        br.weight = 1.0 if br.label == (0, 0) else 0.0
    return dev


def test_bell_report_flags_missing_branch():
    reports = {tuple(c.label): c for c in _bell_report(_missing_branch_device())}
    assert reports[(0, 0)].branch_trace == pytest.approx(1.0)
    assert reports[(0, 1)].degenerate
    assert reports[(0, 1)].branch_trace == pytest.approx(0.0, abs=1e-12)
    # a degenerate case has no junk state, so its spectrum is empty
    assert reports[(0, 1)].to_json()["xi_eigenvalues"] == []


def test_honest_junk_spectrum_is_pure():
    """The noiseless honest device's junk state is |00><00|, so every case
    writes the spectrum [1.0]."""
    for case in analysis.analyze(from_honest(0.0)).to_json()["bell_cases"]:
        assert len(case["xi_eigenvalues"]) == 1
        assert case["xi_eigenvalues"][0] == pytest.approx(1.0, abs=1e-12)


def _dense_bell_distances(device):
    """The distances of ``analysis.bell_report`` from the full (4d x 4d)
    operands, one dense trace distance each: the loop the report ran
    before it took its operands as factors."""
    obs = observables(device)
    v = analysis.swap_isometry(obs)
    d = device.dim
    full = v @ dense_sigma(device, 1, 1) @ v.conj().T  # on C4 (x) C^d

    reports = []
    for s1, s2 in OUTCOME_PAIRS:
        phi = bell_state(s1, s2)
        # contract the ancilla against phi to extract the junk state
        t = full.reshape(4, d, 4, d)
        m = np.einsum("i,ijkl,k->jl", phi.conj(), t, phi)
        tr = float(np.real(np.trace(m)))
        degenerate = tr < analysis._DEGENERATE_TRACE
        xi = np.zeros((d, d), dtype=complex) if degenerate else m / tr

        part = dense_sigma_partial(device, 1, s1, 1, s2)
        pushed = v @ part @ v.conj().T
        ideal = 0.25 * tensor(np.outer(phi, phi.conj()), xi)
        state_distance = trace_distance(pushed, ideal)

        meas_dist: dict[str, float] = {}
        for (q1, q2), meas in device.measurements.items():
            for (a, b), proj in meas.items():
                lhs = v @ (proj @ part @ proj.conj().T) @ v.conj().T
                va, vb = outcome_vec(q1, a), outcome_vec(q2, b)
                pi = tensor(np.outer(va, va.conj()), np.outer(vb, vb.conj()))
                rhs = 0.25 * tensor(pi @ np.outer(phi, phi.conj()) @ pi, xi)
                meas_dist[f"q{q1}{q2}_v{a}{b}"] = trace_distance(lhs, rhs)
        reports.append((state_distance, meas_dist))
    return reports


def _negative_weight_device():
    """Honest p=0.1 device whose (1,1) branch (0,1) has weight -0.1, made
    up on branch (0,0); ``validate`` reports it, and its partial state for
    label (0,1) is negative definite."""
    dev = from_honest(0.1)
    for br in dev.branches[(1, 1)]:
        br.weight = {(0, 0): 0.45, (0, 1): -0.1}.get(br.label, br.weight)
    return dev


def _random_measurement_device(rng):
    """An embedded honest device whose measurements are random four-outcome
    projective ones: the outcome ranks differ, and some may be empty."""
    dev = embed_device(from_honest(0.2), 3, rng)
    for q in QUESTION_PAIRS:
        dev.measurements[q] = random_measurement(dev.dim, rng)
    return dev


def _non_hermitian_projector_device(rng):
    """An embedded honest device one of whose "projectors" is perturbed by a
    non-hermitian matrix of full rank; ``validate`` reports it."""
    dev = embed_device(from_honest(0.1), 2, rng)
    g = rng.standard_normal((dev.dim, dev.dim)) + 1j * rng.standard_normal((dev.dim, dev.dim))
    dev.measurements[(0, 1)][(1, 0)] = dev.measurements[(0, 1)][(1, 0)] + 0.05 * g
    return dev


def _dense_reference_devices():
    rng = np.random.default_rng(7007)
    devices = [pytest.param(from_honest(p), id=f"honest-{p}")
               for p in (0.0, 0.1, 0.2, 0.3, 0.35)]
    devices += [pytest.param(embed_device(from_honest(p), k, rng), id=f"embedded-{p}-{k}")
                for p, k in ((0.2, 2), (0.05, 3), (0.3, 4))]
    devices += [pytest.param(_negative_weight_device(), id="negative_weight"),
                pytest.param(_random_measurement_device(rng), id="random_measurement"),
                pytest.param(_non_hermitian_projector_device(rng), id="non_hermitian_projector"),
                pytest.param(embed_device(from_honest(0.2), 6, rng), id="embedded-0.2-6"),
                pytest.param(embed_device(_missing_branch_device(), 3, rng),
                             id="embedded-missing_branch-3")]
    return devices


def test_bell_frames_map_their_vectors_to_the_standard_basis():
    """Each frame of ``bell_report`` is unitary and maps its question pair's
    update vector u (x) u' for outcome o, or the Bell state of label o, to e_o."""
    vectors = [[np.kron(outcome_vec(q1, a), outcome_vec(q2, b)) for a, b in OUTCOME_PAIRS]
               for q1, q2 in QUESTION_PAIRS] + [[bell_state(*c) for c in OUTCOME_PAIRS]]
    assert analysis._FRAMES.shape == (5, 4, 4)
    for frame, vecs in zip(analysis._FRAMES, vectors):
        assert np.max(np.abs(frame.conj().T @ frame - np.eye(4))) <= 1e-15
        for o, vec in enumerate(vecs):
            assert np.max(np.abs(frame.conj().T @ vec - np.eye(4)[o])) <= 1e-15


def test_reference_devices_mix_junk_factor_widths():
    """The embedded missing-branch device has three degenerate cases (zero-width
    junk factors) beside a rank-3 one, so the dense reference pins the padding."""
    dev = _dense_reference_devices()[-1].values[0]
    widths = [signed_factor(case.xi)[0].shape[1] for case in _bell_report(dev)]
    assert widths == [3, 0, 0, 0]


@pytest.mark.parametrize("p,junk_dim", [(0.0, 2), (0.2, 3), (0.1, 6)])
def test_embedded_junk_factor_width(rng, p, junk_dim):
    """The honest device's junk state is pure, so an embedded device's xi
    has rank ``junk_dim`` and its factor is that narrow, not ``dim`` wide."""
    dev = embed_device(from_honest(p), junk_dim, rng)
    for case in _bell_report(dev):
        assert signed_factor(case.xi)[0].shape == (dev.dim, junk_dim)


@pytest.mark.parametrize("p,junk_dim", [(0.0, 2), (0.2, 3), (0.1, 6)])
def test_embedded_junk_spectrum(rng, p, junk_dim):
    """An embedded device's junk state is the embedding's junk state up to a
    change of basis, so each case writes that state's eigenvalues, in
    descending order.  The junk state is redrawn from a copy of ``rng``."""
    junk = random_density(junk_dim, copy.deepcopy(rng))
    want = np.linalg.eigvalsh(junk)[::-1]
    dev = embed_device(from_honest(p), junk_dim, rng)
    for case in analysis.analyze(dev).to_json()["bell_cases"]:
        assert len(case["xi_eigenvalues"]) == junk_dim
        assert case["xi_eigenvalues"] == sorted(case["xi_eigenvalues"], reverse=True)
        assert np.allclose(case["xi_eigenvalues"], want, rtol=0.0, atol=1e-12)


@pytest.mark.parametrize("p,junk_dim", [(0.0, 2), (0.2, 3), (0.1, 6)])
def test_embedded_projector_factor_width(rng, p, junk_dim):
    """Each honest projector is rank one on the device's 4 dimensions, so
    an embedded device's projectors factor ``junk_dim`` wide, not ``dim``."""
    dev = embed_device(from_honest(p), junk_dim, rng)
    projs = np.array([proj for meas in dev.measurements.values() for proj in meas.values()])
    left, right = rank_factor(projs)
    assert left.shape == (16, dev.dim, junk_dim)
    assert right.shape == (16, junk_dim, dev.dim)


def test_non_hermitian_projector_device_is_reported_invalid(rng):
    dev = _non_hermitian_projector_device(rng)
    assert [v.name for v in validate(dev)][0] == "measurements[(0, 1)][(1, 0)] projector"


@pytest.mark.parametrize("dev", [*_dense_reference_devices(),
                                 pytest.param(no_entangler(), id="no_entangler")])
def test_stacks_equal_branch_loops(dev):
    """``partial_states`` and ``projectors``, and ``sigma``/``sigma_partial``
    read from them, equal the branch loops of ``conftest`` exactly."""
    parts, projs = partial_states(dev), projectors(dev)
    assert parts.shape == projs.shape == (4, 4, dev.dim, dev.dim)
    for i, (t1, t2) in enumerate(BASIS_PAIRS):
        for j, (v1, v2) in enumerate(OUTCOME_PAIRS):
            assert np.array_equal(parts[i, j], dense_sigma_partial(dev, t1, v1, t2, v2))
            assert np.array_equal(sigma_partial(dev, t1, v1, t2, v2), parts[i, j])
        assert np.array_equal(sigma(dev, t1, t2), dense_sigma(dev, t1, t2))
    for k, q in enumerate(QUESTION_PAIRS):
        for j, o in enumerate(OUTCOME_PAIRS):
            assert np.array_equal(projs[k, j], dev.measurements[q][o])


def test_measurement_distances_follow_question_order(tmp_path):
    """A device file whose measurements are written out of order reports
    its update distances in ``QUESTION_PAIRS`` x ``OUTCOME_PAIRS`` order,
    with the canonical file's values."""
    doc = device_to_json(from_honest(0.2))
    canonical, shuffled = tmp_path / "canonical.json", tmp_path / "shuffled.json"
    canonical.write_text(json.dumps(doc))
    doc["measurements"] = {key: doc["measurements"][key] for key in ("11", "01", "00", "10")}
    shuffled.write_text(json.dumps(doc))
    names = [f"q{q1}{q2}_v{a}{b}" for q1, q2 in QUESTION_PAIRS for a, b in OUTCOME_PAIRS]
    want = analysis.analyze(load_device(str(canonical))).bell_cases
    for got, ref in zip(analysis.analyze(load_device(str(shuffled))).bell_cases, want):
        assert list(got.measurement_distances) == names
        assert got.measurement_distances == ref.measurement_distances


@pytest.mark.parametrize("dev", _dense_reference_devices())
def test_bell_report_matches_dense_reference(dev):
    reports = _bell_report(dev)
    for case, (state_distance, meas_dist) in zip(reports, _dense_bell_distances(dev)):
        assert case.state_distance == pytest.approx(state_distance, abs=1e-12)
        assert list(case.measurement_distances) == list(meas_dist)
        for key, value in meas_dist.items():
            assert case.measurement_distances[key] == pytest.approx(value, abs=1e-12), key


@pytest.mark.parametrize("dev", _dense_reference_devices())
def test_stacked_checks_match_dense_references(dev):
    """``validate``, the residuals and the pass tuples, which ``analyze``
    takes as stacked contractions, equal the one-entry-at-a-time loops of
    ``conftest``: violation names and order exactly, every number within
    1e-12 (the Pauli residuals are pinned by the next test).  The pass
    entries' reference is the dense Born form, on every device, projective
    measurements or not."""
    obs = observables(dev)
    report = analysis.analyze(dev)
    want = dense_validate(dev)
    assert [v.name for v in report.violations] == [v.name for v in want]
    for got, ref in zip(report.violations, want):
        assert got.magnitude == pytest.approx(ref.magnitude, abs=1e-12), got.name
    anticomm, comm = dense_residuals(dev, obs)
    for got, ref in ((report.anticomm, anticomm), (report.comm, comm),
                     ({**report.test_entries, **report.bell_entries},
                      dense_born_pass_probs(dev))):
        assert list(got) == list(ref)
        for key, value in ref.items():
            assert got[key] == pytest.approx(value, abs=1e-12), key


@pytest.mark.parametrize("dev", [
    dev for dev in _dense_reference_devices()
    if not any(v.name.startswith("measurements") for v in validate(dev.values[0]))])
def test_pass_tuples_match_observable_form(dev):
    """Where the measurements are projective, the verdict rule's Born
    probabilities equal the observable form: the row's marginal, or product
    of two, compared with the label's slot bit."""
    report = analysis.analyze(dev)
    got = {**report.test_entries, **report.bell_entries}
    for key, value in dense_pass_probs(dev, observables(dev)).items():
        assert got[key] == pytest.approx(value, abs=1e-12), key


@pytest.mark.parametrize("dev", [
    pytest.param(from_honest(0.2), id="honest-0.2"),
    pytest.param(no_entangler(), id="no_entangler"),
    pytest.param(embed_device(from_honest(0.1), 3, np.random.default_rng(11)),
                 id="embedded-0.1-3")])
def test_pass_tuples_read_the_prover_answer_table(dev):
    """The pass tuples and the honest prover's answers share one Born table:
    each entry is the chance, over the four equally likely labels, that
    answers drawn from the label's ``answer_table`` row pass the row's check."""
    table = answer_table(dev)
    report = analysis.analyze(dev)
    got = {**report.test_entries, **report.bell_entries}
    for row in protocol.CHECKS:
        want = sum(0.25 * table[row.basis, label, row.questions][2 * a + b]
                   for label in OUTCOME_PAIRS for a, b in OUTCOME_PAIRS
                   if row.passes((a, b), label))
        assert got[row.bucket] == pytest.approx(want, abs=1e-12), row.bucket


@pytest.mark.parametrize("dev", _dense_reference_devices())
def test_pauli_rounding_matches_kronecker_reference(dev):
    obs = observables(dev)
    got = _pauli_rounding(dev)
    want = dense_pauli_rounding(dev, obs)
    assert list(got) == list(want)
    for key, value in want.items():
        assert got[key] == pytest.approx(value, abs=1e-12), key


def test_negative_weight_device_is_reported_invalid():
    dev = _negative_weight_device()
    assert any("weight" in v.name for v in validate(dev))
    assert np.linalg.eigvalsh(sigma_partial(dev, 1, 0, 1, 1)).max() < 0


def _assert_bell_closed_form(reports, p, tol):
    """Depolarized honest device: the pushed branch minus the ideal one is
    (p/4)(I/4 - phi phi^dag) (x) |00><00|, whose eigenvalues -3/4 and 3 x 1/4
    give the state distance 3p/16.  The rank-one update onto outcome u
    leaves (p/4)(1/4 - |<u|phi>|^2) |u><u|; |<u|phi>|^2 is 1/4 for every
    outcome of questions (0,0) and (1,1), giving 0, and 0 or 1/2 for the
    mixed pairs, giving p/32."""
    assert len(reports) == 4
    for case in reports:
        assert case.state_distance == pytest.approx(3 * p / 16, abs=tol)
        assert len(case.measurement_distances) == 16
        for key, value in case.measurement_distances.items():
            expected = p / 32 if key[1:3] in ("01", "10") else 0.0
            assert value == pytest.approx(expected, abs=tol), key


@pytest.mark.parametrize("p", [0.0, 0.1, 0.2, 0.3, 1.0])
def test_bell_report_closed_form_honest(p):
    dev = from_honest(p)
    _assert_bell_closed_form(_bell_report(dev), p, 1e-12)


@pytest.mark.parametrize("p", [0.1, 0.3])
def test_bell_report_closed_form_embedded(p, rng):
    dev = embed_device(from_honest(p), 3, rng)
    _assert_bell_closed_form(_bell_report(dev), p, 1e-10)


def test_interferometric_pass_prob_interpolates():
    psi = random_density(4, np.random.default_rng(0))
    u = random_unitary(4, np.random.default_rng(1))
    # identical unitaries always accept, opposite ones never do
    assert interferometric_pass_prob(u, u, psi) == pytest.approx(1.0)
    assert interferometric_pass_prob(u, -u, psi) == pytest.approx(0.0)


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
    est, err = interferometric_norm_estimate(u1, u2, psi, shots, r)
    assert 0.0 <= est <= 4.0
    assert err > 0.0


def test_analyze_refuses_infinite_violations():
    """A non-finite weight and a missing basis leave nothing to measure:
    ``analyze`` names both instead of failing later in the arithmetic."""
    dev = from_honest(0.1)
    dev.branches[(1, 1)][2].weight = float("nan")
    del dev.branches[(0, 1)]
    with pytest.raises(ValidationError) as info:
        analysis.analyze(dev)
    assert "branch (1, 1)/(1, 0) weight" in str(info.value)
    assert "branches[(0, 1)] missing" in str(info.value)


def test_analyze_refuses_overflowing_device():
    """Finite entries of 1e100 in a projector overflow the products of the
    report; ``analyze`` refuses the device instead of reporting inf."""
    dev = from_honest(0.1)
    dev.measurements[(0, 0)][(0, 0)] = dev.measurements[(0, 0)][(0, 0)] + 1e100 * np.eye(4)
    assert all(np.isfinite(v.magnitude) for v in validate(dev))
    with pytest.raises(ValidationError, match="overflow"):
        analysis.analyze(dev)


def test_analyze_reports_finite_violations():
    report = analysis.analyze(_negative_weight_device())
    assert "branch (1, 1)/(0, 1) weight" in [v.name for v in report.violations]
    assert all(np.isfinite(v.magnitude) for v in report.violations)


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
    # the CSV carries every per-case scalar of the JSON, degenerate as 0 or 1
    rows = dict(line.split(",") for line in lines[1:])
    for case in blob["bell_cases"]:
        tag = "bell_case.{}{}".format(*case["label"])
        assert rows[f"{tag}.degenerate"] == "0"
        scalars = {"branch_trace": case["branch_trace"],
                   "state_distance": case["state_distance"], **case["measurement_distances"]}
        for key, value in scalars.items():
            assert float(rows[f"{tag}.{key}"]) == value, key


def test_csv_marks_degenerate_cases():
    """A case with no weight is told apart from a real one in the CSV."""
    rows = dict(analysis.analyze(_missing_branch_device()).scalar_rows())
    assert rows["bell_case.00.degenerate"] == 0
    assert rows["bell_case.00.branch_trace"] == pytest.approx(1.0, abs=1e-12)
    for label in ("01", "10", "11"):
        assert rows[f"bell_case.{label}.degenerate"] == 1
        assert rows[f"bell_case.{label}.branch_trace"] == pytest.approx(0.0, abs=1e-12)


_CASE_KEYS = {"label", "branch_trace", "state_distance", "measurement_distances",
              "xi_eigenvalues", "degenerate"}


@pytest.mark.parametrize("dev", _dense_reference_devices())
def test_report_json_schema(dev):
    """Each Bell case writes exactly its scalars and the junk spectrum,
    never the junk matrix, and the whole report is strict JSON."""
    report = analysis.analyze(dev)
    doc = report.to_json()
    json.dumps(doc, allow_nan=False)
    for case, mem in zip(doc["bell_cases"], report.bell_cases):
        assert set(case) == _CASE_KEYS
        assert all(type(lam) is float for lam in case["xi_eigenvalues"])
        assert len(case["xi_eigenvalues"]) == signed_factor(mem.xi)[0].shape[1]


def test_analyze_peak_memory_at_dimension_24(rng):
    """``analyze`` at d = 24 (the honest device with a 6-dimensional junk
    register, as the white-box benchmark runs it) stays under 1.5 MB of
    traced heap: no distance call concatenates its factors, and no stack of
    ancilla blocks outlives the QR that compresses it."""
    dev = embed_device(from_honest(0.2), 6, rng)
    assert dev.dim == 24
    analysis.analyze(dev)
    tracemalloc.start()
    try:
        analysis.analyze(dev)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_500_000
