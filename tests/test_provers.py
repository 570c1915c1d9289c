from __future__ import annotations

import itertools
from types import SimpleNamespace

import numpy as np
import pytest

from bellcert import entcf, protocol, provers
from bellcert.errors import AbortSessionError, ConfigurationError
from bellcert.harness import role_rng
from bellcert.linalg import SIGMA_X, SIGMA_Z, projector_of, tensor
from bellcert.protocol import Flag

PARAMS = entcf.EntcfParams(backend="ideal", ideal_w=16)


def test_parse_strategy():
    assert provers.parse_strategy("honest") == \
        {"perfected": False, "kind": "honest", "depolarize": 0.0}
    assert provers.parse_strategy("honest_depolarized:0.25")["depolarize"] == 0.25
    assert provers.parse_strategy("perfected:no_entangler") == \
        {"perfected": True, "kind": "no_entangler", "depolarize": 0.0}
    assert provers.parse_strategy("classical_guess")["kind"] == "classical_guess"
    for bad in ("", "honest_depolarized:", "honest_depolarized:1.5", "quantum",
                "perfected:", "perfected:perfected:honest"):
        with pytest.raises(ConfigurationError):
            provers.parse_strategy(bad)


def _session(strategy: str, seed: int, force_round=None):
    vrng, prng = role_rng(seed, 0, 0), role_rng(seed, 0, 1)
    state, keys = protocol.start_session(PARAMS, vrng, round_type=force_round)
    oracle = provers.ClawOracle(PARAMS, state.keys, state.trapdoors)
    prover = provers.make_prover(strategy, PARAMS, prng, oracle)
    flag = prover.play(keys, lambda msg: protocol.respond(state, msg, vrng))
    assert flag == state.flag.value
    return state, prover


def test_honest_self_check_always_passes(rng):
    vrng = role_rng(7, 0, 0)
    state, keys = protocol.start_session(PARAMS, vrng)
    oracle = provers.ClawOracle(PARAMS, state.keys, state.trapdoors)
    prover = provers.HonestProver(PARAMS, role_rng(7, 0, 1), oracle)
    prover.commit(keys)
    assert prover.self_check()


def test_depolarize_range_validated(rng):
    with pytest.raises(ConfigurationError):
        provers.HonestProver(PARAMS, rng, depolarize=1.5)


def test_classical_guess_passes_preimage_rounds():
    for seed in range(30):
        state, _ = _session("classical_guess", seed, force_round="preimage")
        assert state.flag is Flag.OK


def test_no_entangler_passes_preimage_rounds():
    for seed in range(30):
        state, _ = _session("no_entangler", seed, force_round="preimage")
        assert state.flag is Flag.OK


def test_perfected_honest_never_retries():
    for seed in range(20):
        state, prover = _session("perfected:honest", seed)
        assert prover.retry_count == 0
        assert state.flag in (Flag.OK, Flag.NONE)


class _CorruptingProver(provers.HonestProver):
    """Honest prover whose preparation scrambles a tracked preimage half
    the time, so its own opening check fails with probability ~1/2."""

    def _prepare(self):
        super()._prepare()
        if self.rng.integers(2):
            self.legs[0]["x"] ^= 1 + int(self.rng.integers(1 << 8))


def test_perfected_wrapper_retries_until_clean():
    retries = []
    for seed in range(40):
        vrng, prng = role_rng(seed, 3, 0), role_rng(seed, 3, 1)
        state, keys = protocol.start_session(PARAMS, vrng, round_type="preimage")
        oracle = provers.ClawOracle(PARAMS, state.keys, state.trapdoors)
        prover = provers.PerfectedProver(_CorruptingProver(PARAMS, prng, oracle))
        prover.play(keys, lambda msg: protocol.respond(state, msg, vrng))
        retries.append(prover.retry_count)
        assert state.flag is Flag.OK  # the surviving preparation is clean
    assert max(retries) >= 1  # the wrapper actually did some work


def test_perfected_budget_exhaustion():
    class AlwaysBad(provers.HonestProver):
        def self_check(self):
            return False

    vrng, prng = role_rng(1, 0, 0), role_rng(1, 0, 1)
    state, keys = protocol.start_session(PARAMS, vrng)
    oracle = provers.ClawOracle(PARAMS, state.keys, state.trapdoors)
    prover = provers.PerfectedProver(AlwaysBad(PARAMS, prng, oracle), retry_budget=5)
    with pytest.raises(AbortSessionError):
        prover.commit(keys)
    assert prover.retry_count == 5


def test_perfected_requires_hook():
    class NoHook(provers.Prover):
        pass

    with pytest.raises(ConfigurationError):
        provers.PerfectedProver(NoHook())


def test_claw_oracle_public_construction_matches_trapdoors(rng):
    state, _ = protocol.start_session(PARAMS, np.random.default_rng(5))
    via_td = provers.ClawOracle(PARAMS, state.keys, state.trapdoors)
    via_pk = provers.ClawOracle(PARAMS, state.keys)
    for leg, pk in enumerate(state.keys):
        x = entcf.random_preimage(PARAMS, rng)
        y = entcf.eval_sample(pk, 0, x, rng)
        assert via_td.partner(leg, 0, y) == via_pk.partner(leg, 0, y)


def test_claw_oracle_needs_trapdoors_on_lattice_backend():
    params = entcf.EntcfParams(backend="lwe")
    state, _ = protocol.start_session(params, np.random.default_rng(5))
    with pytest.raises(ConfigurationError):
        provers.ClawOracle(params, state.keys)


def test_honest_answers_distribution_basis11(rng):
    """In the all-claw-free basis with cross questions, answer parity
    always matches the decoded equation parity."""
    hits = 0
    for seed in range(200):
        vrng, prng = role_rng(seed, 1, 0), role_rng(seed, 1, 1)
        state, keys = protocol.start_session(PARAMS, vrng, round_type="hadamard")
        if state.basis != (1, 1):
            continue
        oracle = provers.ClawOracle(PARAMS, state.keys, state.trapdoors)
        prover = provers.HonestProver(PARAMS, prng, oracle)
        protocol.respond(state, prover.commit(keys), vrng)
        protocol.respond(state, prover.equations(), vrng)
        state.questions = (0, 1)
        answers = prover.answers(protocol.message("questions", 0, {"q1": 0, "q2": 1}))
        protocol.respond(state, answers, vrng)
        assert state.flag is Flag.OK
        hits += 1
    assert hits > 20


_CZ = np.diag([1.0, 1.0, 1.0, -1.0]).astype(complex)


def _reference_qubit(leg: dict) -> np.ndarray:
    if leg["pk"].family == "G":
        vec = np.zeros(2, dtype=complex)
        vec[leg["b"]] = 1.0
        return vec
    phase = (leg["d"] & leg["claw_xor"]).bit_count() & 1
    return np.array([1.0, -1.0 if phase else 1.0], dtype=complex) / np.sqrt(2.0)


def _reference_table(legs, q, entangle, depolarize) -> np.ndarray:
    """Born probabilities from the 4x4 density matrix and projector traces."""
    vec = np.kron(_reference_qubit(legs[0]), _reference_qubit(legs[1]))
    joint = np.outer(vec, vec.conj())
    if entangle:
        joint = _CZ @ joint @ _CZ
    if depolarize > 0.0:
        joint = (1.0 - depolarize) * joint + depolarize * np.eye(4) / 4.0
    probs = np.empty(4)
    for v1 in (0, 1):
        for v2 in (0, 1):
            proj = tensor(projector_of(SIGMA_X if q[0] else SIGMA_Z, v1),
                          projector_of(SIGMA_X if q[1] else SIGMA_Z, v2))
            probs[2 * v1 + v2] = max(float(np.real(np.trace(proj @ joint))), 0.0)
    return probs / probs.sum()


def _legs_of_every_kind():
    """G legs with branch bit 0/1 and F legs with claw parity 0/1."""
    for b in (0, 1):
        yield {"pk": SimpleNamespace(family="G"), "b": b}
    for claw_xor in (0b11, 0b01):  # parity of d & claw_xor: 0, then 1
        yield {"pk": SimpleNamespace(family="F"), "b": 0, "d": 0b11,
               "claw_xor": claw_xor}


def test_born_table_matches_density_matrix_reference():
    legs = list(_legs_of_every_kind())
    cases = 0
    for leg1, leg2, q1, q2, entangle, p in itertools.product(
            legs, legs, (0, 1), (0, 1), (True, False), (0.0, 0.2, 0.3, 1.0)):
        table = provers.born_table(provers.HonestProver._amplitudes(leg1),
                                   provers.HonestProver._amplitudes(leg2),
                                   (q1, q2), entangle, p)
        ref = _reference_table((leg1, leg2), (q1, q2), entangle, p)
        np.testing.assert_allclose(table, ref, rtol=0, atol=1e-12)
        cases += 1
    assert cases == 4 * 4 * 4 * 2 * 4
