from __future__ import annotations

import hashlib
import itertools
import json
from collections import Counter

import numpy as np
import pytest

from bellcert import entcf, protocol
from bellcert.errors import MalformedMessageError, ProtocolStateError
from bellcert.harness import RunStats, role_rng
from bellcert.protocol import Flag
from bellcert.provers import ClawOracle, HonestProver

PARAMS = entcf.EntcfParams(backend="ideal", ideal_w=16)


def _run_honest(seed: int) -> protocol.VerifierState:
    vrng, prng = role_rng(seed, 0, 0), role_rng(seed, 0, 1)
    state, keys_msg = protocol.start_session(PARAMS, vrng)
    prover = HonestProver(PARAMS, prng, ClawOracle(PARAMS, state.keys, state.trapdoors))
    prover.play(keys_msg, lambda msg: protocol.respond(state, msg, vrng))
    return state


def test_honest_sessions_never_fail():
    for seed in range(60):
        state = _run_honest(seed)
        assert state.flag in (Flag.OK, Flag.NONE)
        assert state.phase == "done"


def test_keys_message_schema():
    state, msg = protocol.start_session(PARAMS, np.random.default_rng(0))
    protocol.validate_message(msg, "keys")
    assert set(msg["payload"]) == {"params", "keys"}
    assert len(msg["payload"]["keys"]) == 2
    for theta, key in zip(state.basis, msg["payload"]["keys"]):
        assert key["family"] == ("F" if theta else "G")


def test_keys_message_carries_no_trapdoor_fields():
    """Nothing trapdoor-shaped may appear in any verifier->prover message."""
    params = entcf.EntcfParams(backend="lwe")
    for seed in range(20):
        state, msg = protocol.start_session(params, np.random.default_rng(seed))
        blob = json.dumps(msg)
        for key in msg["payload"]["keys"]:
            assert set(key["payload"]) <= {"a", "u"}
        for td in state.trapdoors:
            for name in ("r", "s"):
                if name in td.payload:
                    secret = json.dumps(td.payload[name].tolist())
                    assert secret not in blob


def test_phase_enforcement(rng):
    state, _ = protocol.start_session(PARAMS, rng)
    with pytest.raises(ProtocolStateError):
        protocol.receive_answers(state, protocol.message("answers", 0, {"v1": 0, "v2": 0}))
    with pytest.raises(ProtocolStateError):
        protocol.receive_preimage(state, protocol.message("preimage", 0, {}))


def test_malformed_messages_rejected(rng):
    state, _ = protocol.start_session(PARAMS, rng)
    with pytest.raises(MalformedMessageError):
        protocol.receive_commit(state, {"type": "commit"}, rng)
    with pytest.raises(MalformedMessageError):
        protocol.receive_commit(state, protocol.message("answers", 0, {}), rng)
    with pytest.raises(MalformedMessageError):
        protocol.receive_commit(state, protocol.message("commit", 0, {"y1": "zz"}), rng)
    with pytest.raises(MalformedMessageError):
        protocol.validate_message({"type": "commit", "payload": {}})
    with pytest.raises(MalformedMessageError):
        protocol.validate_message(
            {"type": "commit", "session_id": 0, "payload": {}, "extra": 1})


@pytest.mark.parametrize("y1", ["ab" * 80, "00" * 8 + "01", "AB" + "00" * 8,
                                "ab " + "00" * 8, "ab" + "00" * 8 + "\n"])
def test_non_canonical_ideal_image_rejected(y1):
    """An ideal image is exactly (2w+8)//8 bytes, below 2^(2w), and spelled
    in lower-case hex without whitespace."""
    params = entcf.EntcfParams("ideal")
    vrng, prng = role_rng(0, 0, 0), role_rng(0, 0, 1)
    state, keys_msg = protocol.start_session(params, vrng)
    commit = HonestProver(params, prng).commit(keys_msg)
    protocol.receive_commit(state, commit, vrng)  # the honest images are canonical
    state, _ = protocol.start_session(params, vrng)
    commit["payload"]["y1"] = y1
    with pytest.raises(MalformedMessageError):
        protocol.receive_commit(state, commit, vrng)


def test_lwe_image_coordinate_must_be_below_q():
    """A coordinate plus q encodes the same lattice point and passes chk, so
    the decoder must refuse it rather than let it into the transcript."""
    params = entcf.EntcfParams("lwe")
    vrng, prng = role_rng(0, 0, 0), role_rng(0, 0, 1)
    state, keys_msg = protocol.start_session(params, vrng)
    prover = HonestProver(params, prng, ClawOracle(params, state.keys, state.trapdoors))
    commit = prover.commit(keys_msg)
    y = entcf.image_from_wire(params, commit["payload"]["y1"])
    leg = prover.legs[0]
    for coord in (y[0] + params.lwe_q, params.lwe_q):
        alias = y.copy()
        alias[0] = coord
        if coord > params.lwe_q:
            assert entcf.chk(state.keys[0], alias, leg["b"], leg["x"])
        commit["payload"]["y1"] = entcf.image_to_wire(params, alias)
        with pytest.raises(MalformedMessageError):
            protocol.receive_commit(state, commit, vrng)


def _session_at(round_type: str):
    """An honest session driven up to the prover's reply in ``round_type``."""
    vrng, prng = role_rng(0, 0, 0), role_rng(0, 0, 1)
    state, keys = protocol.start_session(PARAMS, vrng, round_type=round_type)
    prover = HonestProver(PARAMS, prng, ClawOracle(PARAMS, state.keys, state.trapdoors))
    protocol.respond(state, prover.commit(keys), vrng)
    return state, prover, vrng


def test_respond_follows_the_phase():
    vrng = role_rng(0, 0, 0)
    state, keys = protocol.start_session(PARAMS, vrng, round_type="preimage")
    prover = HonestProver(PARAMS, role_rng(0, 0, 1),
                          ClawOracle(PARAMS, state.keys, state.trapdoors))
    commit = prover.commit(keys)
    with pytest.raises(MalformedMessageError):  # an opening where the commit belongs
        protocol.respond(state, protocol.message("preimage", 0, {}), vrng)
    assert protocol.respond(state, commit, vrng)["payload"] == {"round": "preimage"}
    with pytest.raises(MalformedMessageError):  # a second commit
        protocol.respond(state, commit, vrng)
    verdict = protocol.respond(state, prover.preimage_answer(), vrng)
    assert verdict == protocol.message("verdict", 0, {"flag": "ok"})
    assert state.phase == "done"
    with pytest.raises(ProtocolStateError):  # anything after the verdict
        protocol.respond(state, prover.preimage_answer(), vrng)


@pytest.mark.parametrize("phase", ["commit", "answers"])
@pytest.mark.parametrize("session_id,bad", [(5, 999), (5, "5"), (5, 5.0), (1, True)])
def test_session_id_must_match(phase, session_id, bad):
    """A message is accepted only with its session's id, as a plain int."""
    vrng, prng = role_rng(0, session_id, 0), role_rng(0, session_id, 1)
    state, keys = protocol.start_session(PARAMS, vrng, session_id, round_type="hadamard")
    prover = HonestProver(PARAMS, prng, ClawOracle(PARAMS, state.keys, state.trapdoors))
    msg = prover.commit(keys)
    if phase == "answers":
        protocol.respond(state, msg, vrng)
        msg = prover.answers(protocol.respond(state, prover.equations(), vrng))
    msg["session_id"] = bad
    with pytest.raises(MalformedMessageError):
        protocol.respond(state, msg, vrng)
    msg["session_id"] = session_id
    protocol.respond(state, msg, vrng)  # the same message with the right id is accepted
    assert state.phase == ("equations" if phase == "commit" else "done")


def test_answer_bits_validated():
    state, prover, vrng = _session_at("hadamard")
    protocol.receive_equations(state, prover.equations(), vrng)
    for bad in (2, -1, 1.7, True, "1", None):  # only the plain ints 0 and 1
        with pytest.raises(MalformedMessageError):
            protocol.receive_answers(state, protocol.message("answers", 0,
                                                             {"v1": bad, "v2": 0}))


def test_opening_bits_validated():
    state, prover, _ = _session_at("preimage")
    msg = prover.preimage_answer()
    for bad in (2, 1.7, True, "1"):
        msg["payload"]["b2"] = bad
        with pytest.raises(MalformedMessageError):
            protocol.receive_preimage(state, msg)


# 16-bit masks and preimages are exactly two bytes of lower-case hex ("cdab").
NON_CANONICAL_BITS = ["CDAB", "cdAB", " cdab", "cd ab", "cdab\n", "cd",
                      entcf.bits_to_wire(PARAMS, 5) + "00"]


@pytest.mark.parametrize("bad", NON_CANONICAL_BITS)
def test_non_canonical_mask_rejected(bad):
    state, prover, vrng = _session_at("hadamard")
    msg = prover.equations()
    msg["payload"]["d1"] = bad
    with pytest.raises(MalformedMessageError):
        protocol.receive_equations(state, msg, vrng)


@pytest.mark.parametrize("bad", NON_CANONICAL_BITS)
def test_non_canonical_opening_rejected(bad):
    state, prover, _ = _session_at("preimage")
    msg = prover.preimage_answer()
    msg["payload"]["x1"] = bad
    with pytest.raises(MalformedMessageError):
        protocol.receive_preimage(state, msg)


def _targets(b1=None, b2=None, u1=None, u2=None):
    return {"b1": b1, "b2": b2, "u1": u1, "u2": u2, "deg1": False, "deg2": False}


def test_hadamard_flag_table_first_test_case():
    basis = (0, 1)
    t = _targets(b1=1, u2=0)
    # q1=0 checks the first answer against the decoded branch bit
    assert protocol.hadamard_flag(basis, (0, 0), (1, 0), t) is Flag.OK
    assert protocol.hadamard_flag(basis, (0, 0), (0, 0), t) is Flag.FAIL_TEST
    # q2=1 checks the second answer against parity xor branch bit
    assert protocol.hadamard_flag(basis, (1, 1), (0, 1), t) is Flag.OK
    assert protocol.hadamard_flag(basis, (1, 1), (0, 0), t) is Flag.FAIL_TEST
    # both checks active
    assert protocol.hadamard_flag(basis, (0, 1), (1, 1), t) is Flag.OK
    assert protocol.hadamard_flag(basis, (0, 1), (1, 0), t) is Flag.FAIL_TEST
    # no checks active
    assert protocol.hadamard_flag(basis, (1, 0), (0, 0), t) is Flag.NONE


def test_hadamard_flag_table_second_test_case():
    basis = (1, 0)
    t = _targets(b2=0, u1=1)
    assert protocol.hadamard_flag(basis, (0, 0), (1, 0), t) is Flag.OK
    assert protocol.hadamard_flag(basis, (0, 0), (1, 1), t) is Flag.FAIL_TEST
    assert protocol.hadamard_flag(basis, (1, 1), (1, 1), t) is Flag.OK
    assert protocol.hadamard_flag(basis, (1, 0), (1, 0), t) is Flag.OK
    assert protocol.hadamard_flag(basis, (1, 0), (0, 0), t) is Flag.FAIL_TEST
    assert protocol.hadamard_flag(basis, (0, 1), (0, 0), t) is Flag.NONE


def test_hadamard_flag_table_bell_case():
    basis = (1, 1)
    t = _targets(u1=1, u2=0)
    assert protocol.hadamard_flag(basis, (0, 1), (1, 1), t) is Flag.OK
    assert protocol.hadamard_flag(basis, (0, 1), (1, 0), t) is Flag.FAIL_BELL
    assert protocol.hadamard_flag(basis, (1, 0), (1, 0), t) is Flag.OK
    assert protocol.hadamard_flag(basis, (1, 0), (1, 1), t) is Flag.FAIL_BELL
    assert protocol.hadamard_flag(basis, (0, 0), (0, 0), t) is Flag.NONE
    assert protocol.hadamard_flag(basis, (1, 1), (0, 0), t) is Flag.NONE


def test_undecodable_targets_fail_checked_slots():
    t = _targets(b1=None, u2=0)
    assert protocol.hadamard_flag((0, 1), (0, 0), (0, 0), t) is Flag.FAIL_TEST
    t = _targets(u1=None, u2=None)
    assert protocol.hadamard_flag((1, 1), (0, 1), (0, 0), t) is Flag.FAIL_BELL


def test_all_zero_basis_never_checks():
    for q in ((0, 0), (0, 1), (1, 0), (1, 1)):
        assert protocol.hadamard_flag((0, 0), q, (0, 1), _targets(b1=0, b2=1)) is Flag.NONE


def test_preimage_flag():
    assert protocol.preimage_flag((True, True)) is Flag.OK
    assert protocol.preimage_flag((True, False)) is Flag.FAIL_PRE
    assert protocol.preimage_flag((False, True)) is Flag.FAIL_PRE


def test_session_targets_shapes():
    for seed in range(40):
        state = _run_honest(seed)
        if state.round_type == "preimage":
            assert not state.targets
        else:
            t = protocol.accepted_pair(state.basis, state.targets)
            assert len(t) == 2
            assert all(bit in (0, 1) for bit in t)


_BITS = ((0, 0), (0, 1), (1, 0), (1, 1))


def _every_hadamard_record():
    """Every basis x question pair x answer pair x decoded target in
    {None, 0, 1}^4: 5184 records, flags left blank."""
    for basis, q, v in itertools.product(_BITS, _BITS, _BITS):
        for b1, b2, u1, u2 in itertools.product((None, 0, 1), repeat=4):
            yield protocol.TranscriptRecord(
                session_id=0, basis=basis, round_type="hadamard", flag="",
                images=("", ""), keys=({}, {}), questions=q, answers=v,
                targets={"b1": b1, "b2": b2, "u1": u1, "u2": u2})


def test_check_table_exhaustive():
    """The flags and run statistics of every hadamard record, pinned to the
    values of the hand-written checks that ``CHECKS`` replaced."""
    records = list(_every_hadamard_record())
    flags = [protocol.recheck_flag(rec).value for rec in records]
    assert len(records) == 5184
    assert Counter(flags) == {"none": 2592, "fail_test": 1512, "ok": 648, "fail_bell": 432}
    digest = hashlib.sha256(",".join(flags).encode()).hexdigest()
    assert digest == "6b715dbdcdaa6cf700843695a900f7d4b0255454d2327e3b9a3c00e790d13c42"
    stats = RunStats()
    for rec, flag in zip(records, flags):
        rec.flag = flag
        stats.add_record(rec)
    doc = stats.to_json()
    assert doc["undecodable"] == 2880
    assert list(doc["test_counts"]) == ["z1", "zt1", "xt2", "x2", "z2", "xt1", "zt2", "x1"]
    assert list(doc["bell_counts"]) == ["zt1_xt2", "xt1_zt2"]
    for cell in (*doc["test_counts"].values(), *doc["bell_counts"].values()):
        assert cell == [72, 144]
    assert doc["conditional_fail"] == {"fail_test": [504, 1152], "fail_bell": [144, 288]}
    assert list(doc["conditional_fail"]) == ["fail_test", "fail_bell"]


def test_check_table_rows():
    assert [c.bucket for c in protocol.CHECKS] == [
        "z1", "zt1", "x2", "xt2", "x1", "xt1", "z2", "zt2", "zt1_xt2", "xt1_zt2"]
    for c in protocol.CHECKS:
        assert c.basis in ((0, 1), (1, 0), (1, 1))
        assert c.fail_flag is (Flag.FAIL_BELL if c.basis == (1, 1) else Flag.FAIL_TEST)


def test_transcript_roundtrip_and_recheck():
    for seed in range(40):
        state = _run_honest(seed)
        rec = protocol.record_from_state(state)
        back = protocol.TranscriptRecord.from_json(
            json.loads(json.dumps(rec.to_json())))
        assert back.to_json() == rec.to_json()
        assert protocol.recheck_flag(back).value == rec.flag
        assert protocol.recheck_flag(rec).value == state.flag.value


def test_record_requires_finished_session(rng):
    state, _ = protocol.start_session(PARAMS, rng)
    with pytest.raises(ProtocolStateError):
        protocol.record_from_state(state)
