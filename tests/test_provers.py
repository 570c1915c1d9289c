from __future__ import annotations

import itertools
import json
import math
from collections import Counter

import numpy as np
import pytest

from bellcert import analysis, entcf, ideal, protocol, provers
from bellcert import device as devmod
from bellcert.errors import ConfigurationError, MalformedMessageError
from bellcert.harness import RunConfig, RunStats, role_rng, run_one_session
from bellcert.linalg import SIGMA_X, SIGMA_Z, projector_of, tensor
from bellcert.protocol import Flag
from conftest import embed_device

PARAMS = entcf.EntcfParams(backend="ideal")


def test_parse_strategy():
    """Each accepted name gives its class and the answer table of the device
    it plays, built once per name; classical_guess plays no device."""
    expected = {
        "honest": (provers.HonestProver, devmod.from_honest(0.0)),
        "honest_depolarized:0.25": (provers.HonestProver, devmod.from_honest(0.25)),
        "honest_depolarized:1": (provers.HonestProver, devmod.from_honest(1.0)),
        "no_entangler": (provers.HonestProver, devmod.no_entangler()),
        "classical_guess": (provers.ClassicalGuessProver, None),
    }
    rng = np.random.default_rng(0)
    for name, (cls, dev) in expected.items():
        table = None if dev is None else provers.answer_table(dev)
        assert provers.parse_strategy(name) == (cls, table)
        assert provers.parse_strategy(name)[1] is provers.parse_strategy(name)[1]
        prover = provers.make_prover(name, rng)
        assert type(prover) is cls
        if table is not None:
            assert prover.table is provers.parse_strategy(name)[1]
    for bad in ("", "honest_depolarized:", "honest_depolarized:1.5",
                "honest_depolarized:nan", "quantum", "perfected:", "perfected:perfected:honest",
                "perfected:honest", "perfected:classical_guess", " honest"):
        with pytest.raises(ConfigurationError):
            provers.parse_strategy(bad)
        with pytest.raises(ConfigurationError):
            provers.make_prover(bad, rng)


def _session(strategy: str, seed: int, force_round=None):
    vrng, prng = role_rng(seed, 0, 0), role_rng(seed, 0, 1)
    state, keys = protocol.start_session(PARAMS, vrng, round_type=force_round)
    oracle = provers.ClawOracle(state.keys, state.trapdoors)
    prover = provers.make_prover(strategy, prng, oracle)
    flag = prover.play(keys, lambda msg: protocol.respond(state, msg, vrng))
    assert flag == state.record.flag
    return state


def test_honest_self_check_always_passes():
    """On both backends every honest leg's tracked opening (b, x) of its
    committed image y passes the public check."""
    for params, seed in itertools.product((PARAMS, entcf.EntcfParams(backend="lwe")), range(10)):
        state, keys = protocol.start_session(params, role_rng(seed, 0, 0))
        prover = provers.HonestProver(role_rng(seed, 0, 1),
                                      provers.ClawOracle(state.keys, state.trapdoors))
        prover.commit(keys)
        for leg in prover.legs:
            assert entcf.chk(leg["pk"], leg["y"], leg["b"], leg["x"])


def test_classical_guess_passes_preimage_rounds():
    for seed in range(30):
        state = _session("classical_guess", seed, force_round="preimage")
        assert state.record.flag == Flag.OK.value


def test_no_entangler_passes_preimage_rounds():
    for seed in range(30):
        state = _session("no_entangler", seed, force_round="preimage")
        assert state.record.flag == Flag.OK.value


def test_claw_oracle_public_construction_matches_trapdoors(rng):
    state, _ = protocol.start_session(PARAMS, np.random.default_rng(5), basis=(1, 0))
    via_td = provers.ClawOracle(state.keys, state.trapdoors)
    via_pk = provers.ClawOracle(state.keys)
    for leg, pk in enumerate(state.keys):
        x = entcf.random_preimage(PARAMS, rng)
        y = entcf.eval_sample(pk, 0, x, rng)
        claw_xor = via_pk.claw_xor(leg, 0, x, y)
        assert claw_xor == via_td.claw_xor(leg, 0, x, y)
        assert (claw_xor is None) == (state.record.basis[leg] == 0)  # only F legs have a claw


def test_claw_oracle_needs_trapdoors_on_lattice_backend():
    params = entcf.EntcfParams(backend="lwe")
    state, _ = protocol.start_session(params, np.random.default_rng(5))
    with pytest.raises(ConfigurationError):
        provers.ClawOracle(state.keys)


@pytest.mark.parametrize("backend", ["ideal", "lwe"])
def test_claw_oracle_matches_inversion(backend, rng):
    """The oracle's claw XOR of a fresh image is ``x`` xor the other branch's
    inversion; on ideal F legs the oracle reads it from the key's delta."""
    params = entcf.EntcfParams(backend)
    for seed in range(6):
        state, _ = protocol.start_session(params, np.random.default_rng(seed), basis=(1, 1))
        oracle = provers.ClawOracle(state.keys, state.trapdoors)
        for leg, (pk, td) in enumerate(zip(state.keys, state.trapdoors)):
            b = int(rng.integers(2))
            x = entcf.random_preimage(params, rng)
            y = entcf.eval_sample(pk, b, x, rng)
            assert oracle.claw_xor(leg, b, x, y) == x ^ entcf.invert(td, pk, 1 - b, y)


class _FixedUniform:
    """A stand-in generator whose every uniform draw is ``u``."""

    def __init__(self, u: float):
        self.u = u

    def random(self) -> float:
        return self.u


def test_inverse_cdf_draw_equals_generator_choice(rng):
    """The honest prover's draw is ``Generator.choice(4, p=row)``'s, from the
    same uniform, on every row of the three played tables and on random rows
    with zeros: over 1000 seeds of cloned generators, and at each uniform that
    lands on a boundary of numpy's own cumulative table."""
    rows = [row for name in ("honest", "no_entangler", "honest_depolarized:0.2")
            for row in provers.parse_strategy(name)[1].values()]
    for k in range(64):
        row = rng.random(4) * (rng.random(4) < 0.6)
        row[rng.integers(4)] = 0.0
        if row.sum() > 0:  # half of them off 1 by as much as choice accepts
            rows.append((row / row.sum() * (1 + (k % 2) * 1e-9)).tolist())
    for seed in range(1000):
        ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
        for t in range(16):
            row = rows[(16 * seed + t) % len(rows)]
            assert provers._draw(row, ours) == theirs.choice(4, p=row)
    for row in rows:
        cdf = np.cumsum(row)
        cdf /= cdf[-1]  # as Generator.choice builds it
        for u in {0.0, *cdf[:-1].tolist(), *np.nextafter(cdf[:-1], 0.0).tolist()}:
            assert provers._draw(row, _FixedUniform(u)) == cdf.searchsorted(u, side="right")


@pytest.mark.parametrize("strategy", ["honest", "classical_guess"])
def test_forced_ideal_session_feistel_passes(monkeypatch, strategy):
    """A forced (1,1) hadamard ideal session permutes each committed image
    once and unpermutes it once, when the verifier decodes its parity."""
    calls = Counter()
    for name in ("_permute", "_unpermute"):
        monkeypatch.setattr(ideal, name, lambda *args, _fn=getattr(ideal, name), _name=name:
                            calls.update([_name]) or _fn(*args))
    config = RunConfig(params=entcf.EntcfParams("ideal"), sessions=1, strategy=strategy,
                       seed=3, force_basis=(1, 1), force_round="hadamard")
    rec = run_one_session(config, 0)
    assert rec.targets["u1"] is not None and rec.targets["u2"] is not None
    assert calls == {"_permute": 2, "_unpermute": 2}


def test_honest_answers_distribution_basis11(rng):
    """In the all-claw-free basis with cross questions, answer parity
    always matches the decoded equation parity."""
    hits = 0
    for seed in range(200):
        vrng, prng = role_rng(seed, 1, 0), role_rng(seed, 1, 1)
        state, keys = protocol.start_session(PARAMS, vrng, round_type="hadamard")
        if state.record.basis != (1, 1):
            continue
        oracle = provers.ClawOracle(state.keys, state.trapdoors)
        prover = provers.HonestProver(prng, oracle)
        protocol.respond(state, prover.commit(keys), vrng)
        protocol.respond(state, prover.equations(), vrng)
        state.record.questions = (0, 1)
        answers = prover.answers(protocol.message("questions", 0, {"q1": 0, "q2": 1}))
        protocol.respond(state, answers, vrng)
        assert state.record.flag == Flag.OK.value
        hits += 1
    assert hits > 20


class _ZeroMaskProver(provers.HonestProver):
    """Classical cheat: honest images, then the all-zero masks, whose parity
    needs no claw, and the answers 0, 0."""

    def equations(self):
        zero = entcf.bits_to_wire(self.keys[0].params, 0)
        return protocol.message("equations", self.session_id, {"d1": zero, "d2": zero})

    def answers(self, questions_msg):
        return protocol.message("answers", self.session_id, {"v1": 0, "v2": 0})


@pytest.mark.parametrize("backend,sessions", [("ideal", 400), ("lwe", 80)])
def test_zero_mask_prover_never_passes(backend, sessions):
    """The all-zero mask decodes to nothing, so the Bell checks it reaches fail."""
    params = entcf.EntcfParams(backend)
    flags = Counter()
    for sid in range(sessions):
        vrng, prng = role_rng(0, sid, 0), role_rng(0, sid, 1)
        state, keys = protocol.start_session(params, vrng, sid, basis=(1, 1),
                                             round_type="hadamard")
        prover = _ZeroMaskProver(prng, provers.ClawOracle(state.keys, state.trapdoors))
        flags[prover.play(keys, lambda msg: protocol.respond(state, msg, vrng))] += 1
    assert set(flags) == {"fail_bell", "none"}


@pytest.mark.parametrize("cls", [provers.HonestProver, provers.ClassicalGuessProver])
def test_question_bits_validated(cls):
    state, keys = protocol.start_session(PARAMS, role_rng(0, 0, 0))
    prover = cls(role_rng(0, 0, 1), provers.ClawOracle(state.keys, state.trapdoors))
    prover.commit(keys)
    prover.equations()
    prover.answers(protocol.message("questions", 0, {"q1": 1, "q2": 0}))
    for bad in ("1", 1.7, True, 2, None):  # only the plain ints 0 and 1
        with pytest.raises(MalformedMessageError):
            prover.answers(protocol.message("questions", 0, {"q1": bad, "q2": 0}))


def _round(round_type):
    return protocol.message("round", 0, {"round": round_type})


def _verdict(payload):
    return protocol.message("verdict", 0, payload)


_QUESTIONS = protocol.message("questions", 0, {"q1": 0, "q2": 1})


@pytest.mark.parametrize("replies", [
    [_round("sideways")], [_round(None)], [_round(["preimage"])], [_round(1)],
    [_round("preimage"), _verdict({"flag": "great"})], [_round("preimage"), _verdict({})],
    [_round("hadamard"), _QUESTIONS, _verdict({"flag": ["ok"]})],
    [_round("hadamard"), _QUESTIONS, _verdict({"flag": None})],
])
def test_play_refuses_bad_round_or_verdict(replies):
    """A verifier's round must be a known round type and its verdict a flag."""
    state, keys = protocol.start_session(PARAMS, role_rng(0, 0, 0))
    prover = provers.HonestProver(role_rng(0, 0, 1),
                                  provers.ClawOracle(state.keys, state.trapdoors))
    scripted = iter(replies)
    with pytest.raises(MalformedMessageError):
        prover.play(keys, lambda msg: next(scripted))


def _with_junk(msg: dict) -> dict:
    return {**msg, "payload": {**msg["payload"], "junk": 0}}


@pytest.mark.parametrize("mtype", ["keys", "round", "questions", "verdict"])
def test_prover_refuses_extra_payload_field(mtype):
    """A verifier message with one field too many is refused by the prover,
    so a hostile verifier cannot pass it fields the prover would ignore."""
    state, keys = protocol.start_session(PARAMS, role_rng(0, 0, 0), round_type="hadamard")
    prover = provers.HonestProver(role_rng(0, 0, 1),
                                  provers.ClawOracle(state.keys, state.trapdoors))
    replies = [_round("hadamard"), _QUESTIONS, _verdict({"flag": "ok"})]
    if mtype == "keys":
        keys = _with_junk(keys)
    else:
        i = ["round", "questions", "verdict"].index(mtype)
        replies[i] = _with_junk(replies[i])
    scripted = iter(replies)
    with pytest.raises(MalformedMessageError):
        prover.play(keys, lambda msg: next(scripted))


@pytest.mark.parametrize("mtype", ["round", "questions", "verdict"])
def test_prover_refuses_foreign_session_id(mtype):
    """A verifier message for another session is refused by the prover; the
    same replies with the session's own id are played to the end."""
    state, keys = protocol.start_session(PARAMS, role_rng(0, 0, 0), round_type="hadamard")
    replies = [_round("hadamard"), _QUESTIONS, _verdict({"flag": "ok"})]

    def play():
        prover = provers.HonestProver(role_rng(0, 0, 1),
                                      provers.ClawOracle(state.keys, state.trapdoors))
        scripted = iter(replies)
        return prover.play(keys, lambda msg: next(scripted))

    assert play() == "ok"
    i = ["round", "questions", "verdict"].index(mtype)
    replies[i] = {**replies[i], "session_id": 1}
    with pytest.raises(MalformedMessageError, match="bad session id 1 "):
        play()


LWE = entcf.EntcfParams(backend="lwe")


def _set(path, value):
    """A change to a keys payload that puts ``value`` at ``path``."""
    def change(payload):
        *head, last = path
        for step in head:
            payload = payload[step]
        payload[last] = value
    return change


def _seed(i):
    return ["keys", i, "payload", "seed", "__hex__"]


def _entry(name, *index):
    return ["keys", 0, "payload", name, "__array__", *index]


def _widen(payload):
    """Params and both keys at ideal_w = 2**17, consistent with each other."""
    payload["params"]["ideal_w"] = 1 << 17
    for key in payload["keys"]:
        key["payload"]["w"] = 1 << 17


def _label_family(payload):
    """Key 0 as the earlier format sent it, with its family beside the payload."""
    payload["keys"][0]["family"] = "F"


_BAD_KEYS = {  # keys[0] is an F key and keys[1] a G key
    "ideal": {
        "key_payload_empty": _set(["keys", 0], {"payload": {}}),
        "family_field": _label_family,
        "ideal_w_float": _set(["params", "ideal_w"], 8.5),
        "ideal_w_bool": _set(["params", "ideal_w"], True),
        "ideal_w_huge": _widen,
        "backend_unknown": _set(["params", "backend"], "quantum"),
        "sigma_string": _set(["params", "lwe_sigma"], "1.6"),
        "sigma_nan": _set(["params", "lwe_sigma"], float("nan")),
        "seed_upper_case": lambda p: _set(_seed(0), p["keys"][0]["payload"]["seed"]
                                          ["__hex__"].upper())(p),
        "seed_short": lambda p: _set(_seed(1), p["keys"][1]["payload"]["seed"]
                                     ["__hex__"][:-2])(p),
        "seed_not_hex": _set(_seed(0), "zz" * 32),
        "seed_unwrapped": _set(["keys", 0, "payload", "seed"], "00" * 32),
        "seed_one_character": _set(["keys", 0, "payload", "seed"], "a"),
        "seed_wrapper_second_entry": lambda p: p["keys"][1]["payload"]["seed"].update(x=0),
        "width_mismatch": _set(["keys", 1, "payload", "w"], 17),
        "delta_zero": _set(["keys", 0, "payload", "delta"], 0),
        "delta_too_wide": _set(["keys", 0, "payload", "delta"], 1 << 32),
        "delta_float": _set(["keys", 0, "payload", "delta"], 3.0),
    },
    "lwe": {
        "family_field": _label_family,
        "entry_float": _set(_entry("a", 0, 0), 1.5),
        "entry_bool": _set(_entry("a", 5, 1), True),
        "entry_string": _set(_entry("u", 7), "7"),
        "entry_huge": _set(_entry("a", 2, 3), 2 ** 70),
        "entry_at_q": _set(_entry("u", 0), LWE.lwe_q),
        "entry_negative": _set(_entry("u", 79), -1),
        "row_short": lambda p: _set(_entry("a", 3), p["keys"][0]["payload"]["a"]
                                    ["__array__"][3][:-1])(p),
        "row_not_list": _set(_entry("a", 3), 4),
        "u_short": lambda p: p["keys"][0]["payload"]["u"]["__array__"].pop(),
        "extra_field": _set(["keys", 1, "payload", "s"], {"__array__": [1, 2, 3, 4]}),
        "a_wrapper_second_entry": lambda p: p["keys"][0]["payload"]["a"].update(x=0),
        "q_above_32_bits": lambda p: p["params"].update(lwe_q=2 ** 40, lwe_m=200),
        "sigma_above_eval_bound": _set(["params", "lwe_sigma"], 1e9),
    },
}


@pytest.mark.parametrize("backend,name", [(b, n) for b, cases in _BAD_KEYS.items()
                                          for n in cases])
def test_commit_refuses_bad_key_contents(backend, name):
    """Params of the wrong type and key payloads that do not fit their
    backend end the prover's commit with MalformedMessageError."""
    params = PARAMS if backend == "ideal" else LWE
    state, keys = protocol.start_session(params, role_rng(0, 0, 0), basis=(1, 0))
    prover = provers.HonestProver(role_rng(0, 0, 1),
                                  provers.ClawOracle(state.keys, state.trapdoors))
    prover.commit(json.loads(json.dumps(keys)))  # the unchanged message is played
    keys = json.loads(json.dumps(keys))
    _BAD_KEYS[backend][name](keys["payload"])
    with pytest.raises(MalformedMessageError):
        prover.commit(keys)


_CZ = np.diag([1.0, 1.0, 1.0, -1.0]).astype(complex)


def _reference_qubit(leg: dict) -> np.ndarray:
    if "claw_xor" not in leg:
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
    """G legs with branch bit 0/1 and F legs, marked by their ``claw_xor``,
    with claw parity 0/1."""
    for b in (0, 1):
        yield {"b": b}
    for claw_xor in (0b11, 0b01):  # parity of d & claw_xor: 0, then 1
        yield {"b": 0, "d": 0b11, "claw_xor": claw_xor}


def _basis_and_label(legs) -> tuple[tuple[int, int], tuple]:
    """The basis of two reference legs (1 on an F leg) and the label that the
    verifier decodes from them."""
    basis = tuple(int("claw_xor" in leg) for leg in legs)
    targets = {}
    for i, leg in enumerate(legs):
        if "claw_xor" in leg:
            targets[f"u{i + 1}"] = (leg["d"] & leg["claw_xor"]).bit_count() & 1
        else:
            targets[f"b{i + 1}"] = leg["b"]
    return basis, protocol.accepted_pair(basis, targets)


def test_answer_table_matches_density_matrix_reference():
    """The honest devices' answer tables are the Born probabilities of the
    tracked product qubits, through CZ (not for no_entangler) and the
    depolarizing channel."""
    tables = [(provers.answer_table(devmod.from_honest(p)), True, p)
              for p in (0.0, 0.2, 0.3, 1.0)]
    tables.append((provers.answer_table(devmod.no_entangler()), False, 0.0))
    legs = list(_legs_of_every_kind())
    cases = 0
    for (table, entangle, p), leg1, leg2, q in itertools.product(
            tables, legs, legs, devmod.QUESTION_PAIRS):
        basis, label = _basis_and_label((leg1, leg2))
        ref = _reference_table((leg1, leg2), q, entangle, p)
        np.testing.assert_allclose(table[basis, label, q], ref, rtol=0, atol=1e-12)
        cases += 1
    assert cases == 5 * 4 * 4 * 4


def test_answer_table_refuses_unequal_label_weights():
    """The honest commitment makes each label weigh 1/4, so a device that
    weighs them otherwise cannot be played."""
    dev = devmod.from_honest(0.0)
    for br, w in zip(dev.branches[(0, 1)], (0.4, 0.1, 0.25, 0.25)):
        br.weight = w
    with pytest.raises(ConfigurationError, match="not 1/4"):
        provers.answer_table(dev)


@pytest.mark.parametrize("fill", [0.0, np.nan])
def test_answer_table_refuses_rows_without_mass(fill):
    """A row whose clipped probabilities have no finite positive sum names its
    basis, label and questions, where it would otherwise be a NaN row."""
    dev = devmod.from_honest(0.0)
    for outcome, proj in dev.measurements[(0, 0)].items():
        dev.measurements[(0, 0)][outcome] = np.full_like(proj, fill)
    assert devmod.validate(dev)
    with pytest.raises(ConfigurationError,
                       match=r"branches \(0, 0\)/\(0, 0\) under questions \(0, 0\)"):
        provers.answer_table(dev)


def test_answer_table_ignores_embedding(rng):
    """Junk and a change of basis leave every answer distribution as it is."""
    bare = provers.answer_table(devmod.from_honest(0.2))
    embedded = provers.answer_table(embed_device(devmod.from_honest(0.2), 6, rng))
    assert embedded.keys() == bare.keys()
    for key, probs in bare.items():
        np.testing.assert_allclose(embedded[key], probs, rtol=0, atol=1e-12)


def test_devices_play_their_white_box_entries(rng):
    """Sessions that play a device pass each test and Bell bucket at the
    rate of the device's white-box pass-tuple entry, within 4.5 sigma."""
    devices = {"honest-0.2": devmod.from_honest(0.2), "no_entangler": devmod.no_entangler(),
               "embedded-0.2-6": embed_device(devmod.from_honest(0.2), 6, rng)}
    for k, (name, dev) in enumerate(devices.items()):
        table, stats = provers.answer_table(dev), RunStats()
        for sid in range(2400):
            vrng, prng = role_rng(k, sid, 0), role_rng(k, sid, 1)
            state, keys = protocol.start_session(PARAMS, vrng, sid, round_type="hadamard")
            prover = provers.HonestProver(prng, provers.ClawOracle(state.keys), table)
            prover.play(keys, lambda msg: protocol.respond(state, msg, vrng))
            stats.add_record(protocol.record_from_state(state))
        report = analysis.analyze(dev)
        entries = {**report.test_entries, **report.bell_entries}
        counts = {**stats.test_counts, **stats.bell_counts}
        assert counts.keys() == entries.keys()
        for bucket, (ok, n) in counts.items():
            p = entries[bucket]
            sigma = math.sqrt(max(p * (1.0 - p), 0.0) / n)
            assert abs(ok / n - p) <= 4.5 * sigma + 1e-9, (name, bucket, ok, n, p)
