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

PARAMS = entcf.EntcfParams(backend="ideal")


def _run_honest(seed: int) -> protocol.VerifierState:
    vrng, prng = role_rng(seed, 0, 0), role_rng(seed, 0, 1)
    state, keys_msg = protocol.start_session(PARAMS, vrng)
    prover = HonestProver(prng, ClawOracle(state.keys, state.trapdoors))
    prover.play(keys_msg, lambda msg: protocol.respond(state, msg, vrng))
    return state


def test_honest_sessions_never_fail():
    for seed in range(60):
        state = _run_honest(seed)
        assert state.record.flag in (Flag.OK.value, Flag.NONE.value)
        assert state.phase == "done"


def _shape(key: dict) -> dict:
    """Each payload field's name with the shape of its array, if it has one."""
    return {k: np.shape(v.get("__array__")) for k, v in key["payload"].items()}


def test_keys_message_schema():
    """Each key is exactly a payload; an lwe F key and G key have the same
    fields and array shapes, so the message does not show the basis."""
    for params, basis in itertools.product((PARAMS, entcf.EntcfParams("lwe")),
                                           ((0, 1), (1, 0))):
        state, msg = protocol.start_session(params, np.random.default_rng(0), basis=basis)
        protocol.validate_message(msg, "keys")
        assert set(msg["payload"]) == {"params", "keys"}
        keys = msg["payload"]["keys"]
        assert len(keys) == 2 and keys == list(state.record.keys)
        assert all(set(key) == {"payload"} for key in keys)
        if params.backend == "lwe":
            assert _shape(keys[0]) == _shape(keys[1]) == {"a": (80, 4), "u": (80,)}


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
        protocol.validate_message({"type": "commit", "payload": {}}, "commit")
    with pytest.raises(MalformedMessageError):
        protocol.validate_message(
            {"type": "commit", "session_id": 0, "payload": {}, "extra": 1}, "commit")


@pytest.mark.parametrize("y1", ["ab" * 80, "00" * 8 + "01", "AB" + "00" * 8,
                                "ab " + "00" * 8, "ab" + "00" * 8 + "\n"])
def test_non_canonical_ideal_image_rejected(y1):
    """An ideal image is exactly (2w+8)//8 bytes, below 2^(2w), and spelled
    in lower-case hex without whitespace."""
    params = entcf.EntcfParams("ideal")
    vrng, prng = role_rng(0, 0, 0), role_rng(0, 0, 1)
    state, keys_msg = protocol.start_session(params, vrng)
    commit = HonestProver(prng).commit(keys_msg)
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
    prover = HonestProver(prng, ClawOracle(state.keys, state.trapdoors))
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
    prover = HonestProver(prng, ClawOracle(state.keys, state.trapdoors))
    protocol.respond(state, prover.commit(keys), vrng)
    return state, prover, vrng


def _honest_messages(params: entcf.EntcfParams = PARAMS) -> dict:
    """One honest message of each type, from a session of each round type."""
    msgs = {}
    for round_type in protocol.ROUND_TYPES:
        vrng, prng = role_rng(0, 0, 0), role_rng(0, 0, 1)
        state, msgs["keys"] = protocol.start_session(params, vrng, round_type=round_type)

        def exchange(msg, state=state, vrng=vrng):
            reply = protocol.respond(state, msg, vrng)
            msgs[msg["type"]], msgs[reply["type"]] = msg, reply
            return reply
        HonestProver(prng, ClawOracle(state.keys, state.trapdoors)).play(msgs["keys"], exchange)
    return msgs


# a value each field's rule refuses: [] for the keys payload's params and
# keys, "x" for a round or flag, and (below) True for a bit, 1 for a hex field
_WRONG_VALUES = {"params": [], "keys": [], "round": "x", "flag": "x"}


@pytest.mark.parametrize("mtype", protocol.PAYLOAD_FIELDS)
def test_payload_field_sets_are_exact(mtype):
    """On both backends, each message type's payload holds exactly its
    fields, each meeting its rule: the gate of either side refuses one extra
    field, one missing, or one wrong value in any field."""
    for params in (PARAMS, entcf.EntcfParams("lwe")):
        msg = _honest_messages(params)[mtype]
        assert list(msg["payload"]) == list(protocol.PAYLOAD_FIELDS[mtype])
        assert protocol.validate_message(msg, mtype, 0) is msg["payload"]
        extra = {**msg, "payload": {**msg["payload"], "junk": 0}}
        short = {**msg, "payload": dict(list(msg["payload"].items())[1:])}
        wrong = [{**msg, "payload": {**msg["payload"], field: _WRONG_VALUES.get(
                      field, True if type(value) is int else 1)}}
                 for field, value in msg["payload"].items()]
        for bad in (extra, short, *wrong):
            with pytest.raises(MalformedMessageError):
                protocol.validate_message(bad, mtype)


@pytest.mark.parametrize("mtype,field", [
    ("commit", "junk"), ("preimage", "b3"), ("equations", "d3"), ("answers", "v3")])
def test_verifier_refuses_extra_payload_field(mtype, field):
    """A prover message with one field too many is refused and leaves the
    session where it was; the same message without it is accepted."""
    vrng, prng = role_rng(0, 0, 0), role_rng(0, 0, 1)
    round_type = "preimage" if mtype == "preimage" else "hadamard"
    state, keys = protocol.start_session(PARAMS, vrng, round_type=round_type)
    prover = HonestProver(prng, ClawOracle(state.keys, state.trapdoors))
    msg = prover.commit(keys)
    if mtype != "commit":
        protocol.respond(state, msg, vrng)
        msg = prover.preimage_answer() if mtype == "preimage" else prover.equations()
    if mtype == "answers":
        msg = prover.answers(protocol.respond(state, msg, vrng))
    phase = state.phase
    with pytest.raises(MalformedMessageError):
        protocol.respond(state, {**msg, "payload": {**msg["payload"], field: 0}}, vrng)
    assert state.phase == phase
    protocol.respond(state, msg, vrng)


def test_record_refuses_unknown_field():
    """A transcript record holds only the fields of ``_RECORD_FIELDS``."""
    rec = _run_honest(0).record.to_json()
    protocol.TranscriptRecord.from_json(rec)
    with pytest.raises(MalformedMessageError, match="evil"):
        protocol.TranscriptRecord.from_json({**rec, "evil": None})


def test_respond_follows_the_phase():
    vrng = role_rng(0, 0, 0)
    state, keys = protocol.start_session(PARAMS, vrng, round_type="preimage")
    prover = HonestProver(role_rng(0, 0, 1), ClawOracle(state.keys, state.trapdoors))
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
    prover = HonestProver(prng, ClawOracle(state.keys, state.trapdoors))
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


# At ideal_w = 16, set on the class by ``ideal_w16``, masks and preimages are
# exactly two bytes of lower-case hex ("cdab"); "050000" is 5 with a byte too many.
NON_CANONICAL_BITS = ["CDAB", "cdAB", " cdab", "cd ab", "cdab\n", "cd", "050000"]


@pytest.fixture
def ideal_w16(monkeypatch):
    monkeypatch.setattr(entcf.EntcfParams, "ideal_w", 16)


@pytest.mark.parametrize("bad", NON_CANONICAL_BITS)
def test_non_canonical_mask_rejected(bad, ideal_w16):
    state, prover, vrng = _session_at("hadamard")
    msg = prover.equations()
    msg["payload"]["d1"] = bad
    with pytest.raises(MalformedMessageError):
        protocol.receive_equations(state, msg, vrng)


@pytest.mark.parametrize("bad", NON_CANONICAL_BITS)
def test_non_canonical_opening_rejected(bad, ideal_w16):
    state, prover, _ = _session_at("preimage")
    msg = prover.preimage_answer()
    msg["payload"]["x1"] = bad
    with pytest.raises(MalformedMessageError):
        protocol.receive_preimage(state, msg)


def _targets(b1=None, b2=None, u1=None, u2=None):
    return {"b1": b1, "b2": b2, "u1": u1, "u2": u2}


def _hadamard(basis, q, v, targets) -> protocol.TranscriptRecord:
    return protocol.TranscriptRecord(0, basis, ({}, {}), "hadamard", questions=q, answers=v,
                                     targets=targets)


def _hadamard_flag(basis, q, v, targets) -> Flag:
    return protocol.recheck_flag(_hadamard(basis, q, v, targets))


def _preimage(leg_ok) -> protocol.Judgement:
    return protocol.judge(protocol.TranscriptRecord(0, (0, 1), ({}, {}), "preimage",
                                                    pre_leg_ok=leg_ok))


def test_hadamard_flag_table_first_test_case():
    basis = (0, 1)
    t = _targets(b1=1, u2=0)
    # q1=0 checks the first answer against the decoded branch bit
    assert _hadamard_flag(basis, (0, 0), (1, 0), t) is Flag.OK
    assert _hadamard_flag(basis, (0, 0), (0, 0), t) is Flag.FAIL_TEST
    # q2=1 checks the second answer against parity xor branch bit
    assert _hadamard_flag(basis, (1, 1), (0, 1), t) is Flag.OK
    assert _hadamard_flag(basis, (1, 1), (0, 0), t) is Flag.FAIL_TEST
    # both checks active
    assert _hadamard_flag(basis, (0, 1), (1, 1), t) is Flag.OK
    assert _hadamard_flag(basis, (0, 1), (1, 0), t) is Flag.FAIL_TEST
    # no checks active
    assert _hadamard_flag(basis, (1, 0), (0, 0), t) is Flag.NONE


def test_hadamard_flag_table_second_test_case():
    basis = (1, 0)
    t = _targets(b2=0, u1=1)
    assert _hadamard_flag(basis, (0, 0), (1, 0), t) is Flag.OK
    assert _hadamard_flag(basis, (0, 0), (1, 1), t) is Flag.FAIL_TEST
    assert _hadamard_flag(basis, (1, 1), (1, 1), t) is Flag.OK
    assert _hadamard_flag(basis, (1, 0), (1, 0), t) is Flag.OK
    assert _hadamard_flag(basis, (1, 0), (0, 0), t) is Flag.FAIL_TEST
    assert _hadamard_flag(basis, (0, 1), (0, 0), t) is Flag.NONE


def test_hadamard_flag_table_bell_case():
    basis = (1, 1)
    t = _targets(u1=1, u2=0)
    assert _hadamard_flag(basis, (0, 1), (1, 1), t) is Flag.OK
    assert _hadamard_flag(basis, (0, 1), (1, 0), t) is Flag.FAIL_BELL
    assert _hadamard_flag(basis, (1, 0), (1, 0), t) is Flag.OK
    assert _hadamard_flag(basis, (1, 0), (1, 1), t) is Flag.FAIL_BELL
    assert _hadamard_flag(basis, (0, 0), (0, 0), t) is Flag.NONE
    assert _hadamard_flag(basis, (1, 1), (0, 0), t) is Flag.NONE


def test_undecodable_targets_fail_checked_slots():
    t = _targets(b1=None, u2=0)
    assert _hadamard_flag((0, 1), (0, 0), (0, 0), t) is Flag.FAIL_TEST
    t = _targets(u1=None, u2=None)
    assert _hadamard_flag((1, 1), (0, 1), (0, 0), t) is Flag.FAIL_BELL


def test_all_zero_basis_never_checks():
    for q in ((0, 0), (0, 1), (1, 0), (1, 1)):
        assert _hadamard_flag((0, 0), q, (0, 1), _targets(b1=0, b2=1)) is Flag.NONE
        assert protocol.judge(_hadamard((0, 0), q, (0, 1), _targets(b1=0, b2=1))) == (
            Flag.NONE, None, (), False)


def test_preimage_flag():
    assert _preimage((True, True)).flag is Flag.OK
    assert _preimage((True, False)).flag is Flag.FAIL_PRE
    assert _preimage((False, True)).flag is Flag.FAIL_PRE
    assert _preimage((False, True)) == (
        Flag.FAIL_PRE, Flag.FAIL_PRE, (("01.leg1", False), ("01.leg2", True)), False)


def test_judgement_keeps_decodable_checks_of_undecodable_round():
    """An undecodable F leg fails its own check; the G leg's check beside it
    is still judged on its merits, and the round is a test opportunity."""
    t = _targets(b1=1, u2=None)
    assert protocol.judge(_hadamard((0, 1), (0, 1), (1, 0), t)) == (
        Flag.FAIL_TEST, Flag.FAIL_TEST, (("zt1", True), ("xt2", False)), True)
    assert protocol.judge(_hadamard((0, 1), (0, 1), (0, 0), t)) == (
        Flag.FAIL_TEST, Flag.FAIL_TEST, (("zt1", False), ("xt2", False)), True)


def test_judgement_fail_kinds():
    """Every mixed-basis round is a test opportunity, and an all-F round a Bell
    one only under the cross questions."""
    t = _targets(b1=0, b2=1, u1=1, u2=0)
    assert protocol.judge(_hadamard((1, 0), (0, 1), (0, 0), t)) == (
        Flag.NONE, Flag.FAIL_TEST, (), False)
    assert protocol.judge(_hadamard((1, 1), (1, 1), (0, 0), t)) == (
        Flag.NONE, None, (), False)
    assert protocol.judge(_hadamard((1, 1), (1, 0), (1, 1), t)) == (
        Flag.FAIL_BELL, Flag.FAIL_BELL, (("xt1_zt2", False),), False)


def test_session_targets_shapes():
    for seed in range(40):
        state = _run_honest(seed)
        if state.record.round_type == "preimage":
            assert not state.record.targets
        else:
            t = protocol.accepted_pair(state.record.basis, state.record.targets)
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
    """The flags of every hadamard record, pinned to the values of the
    hand-written checks that ``CHECKS`` replaced, and the run statistics, in
    which an undecodable slot counts as the failed check the verdict calls it."""
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
    # an undecodable slot fails: a slot read off one decoding passes in 1/3 of
    # the target cells, a slot that XORs two decodings in 2/9
    cells = {**doc["test_counts"], **doc["bell_counts"]}
    for name in ("z1", "zt1", "z2", "zt2", "zt1_xt2", "xt1_zt2"):
        assert cells[name] == [108, 324]
    for name in ("x1", "xt1", "x2", "xt2"):
        assert cells[name] == [72, 324]
    assert doc["conditional_fail"] == {"fail_test": [1512, 2592], "fail_bell": [432, 648]}
    assert list(doc["conditional_fail"]) == ["fail_test", "fail_bell"]


def test_check_table_rows():
    assert [c.bucket for c in protocol.CHECKS] == [
        "z1", "zt1", "x2", "xt2", "x1", "xt1", "z2", "zt2", "zt1_xt2", "xt1_zt2"]
    for c in protocol.CHECKS:
        assert c.basis in ((0, 1), (1, 0), (1, 1))
        assert c.fail_flag is (Flag.FAIL_BELL if c.basis == (1, 1) else Flag.FAIL_TEST)


@pytest.mark.parametrize("round_type", protocol.ROUND_TYPES)
@pytest.mark.parametrize("backend", ["ideal", "lwe"])
def test_transcript_roundtrip_and_recheck(backend, round_type):
    """A written record reads back as the same record, and its verdict
    re-derives from it alone, as an audit would use it."""
    params = entcf.EntcfParams(backend)
    for seed in range(20):
        vrng, prng = role_rng(seed, seed, 0), role_rng(seed, seed, 1)
        state, keys = protocol.start_session(params, vrng, seed, round_type=round_type)
        prover = HonestProver(prng, ClawOracle(state.keys, state.trapdoors))
        flag = prover.play(keys, lambda msg: protocol.respond(state, msg, vrng))
        rec = protocol.record_from_state(state)
        assert rec.round_type == round_type and rec.flag == flag
        back = protocol.TranscriptRecord.from_json(json.loads(json.dumps(rec.to_json())))
        assert back == rec
        assert back.to_json() == rec.to_json()
        assert protocol.recheck_flag(back).value == rec.flag
        assert protocol.recheck_flag(rec).value == state.record.flag


def test_record_requires_finished_session(rng):
    state, _ = protocol.start_session(PARAMS, rng)
    with pytest.raises(ProtocolStateError):
        protocol.record_from_state(state)
