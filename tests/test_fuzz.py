"""Hostile input: whatever a peer sends, only a refusal may escape, which
``protocol.respond`` raises as a MalformedMessageError and the rest as a
BellcertError.

``LineChannel.recv`` only frames and parses JSON, so ``protocol.respond``
alone must refuse every message that is not the current phase's.  A device
file is hostile input too: loading and analysing it may only refuse it.
"""
from __future__ import annotations

import json
import socket

from hypothesis import example, given, settings
from hypothesis import strategies as st

from bellcert import analysis, device, entcf, net, protocol
from bellcert.errors import BellcertError, MalformedMessageError
from bellcert.harness import role_rng
from bellcert.protocol import Flag
from bellcert.provers import ClawOracle, HonestProver

BACKENDS = (entcf.EntcfParams(backend="ideal"), entcf.EntcfParams(backend="lwe"))
PHASES = ("commit", "preimage", "equations", "answers")

JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=12),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=6), inner,
                                                                 max_size=4),
    max_leaves=10)
MESSAGE_TYPES = ("keys", "commit", "round", "preimage", "equations",
                 "questions", "answers", "verdict")
FIELD = st.sampled_from([0, 1]) | st.binary(max_size=12).map(bytes.hex) | JSON


def _near(msg: dict):
    """Messages that keep or replace each part of ``msg``, so that every
    payload decoder is reached and some sessions finish."""
    payload = st.fixed_dictionaries({k: st.just(v) | FIELD for k, v in msg["payload"].items()})
    return st.fixed_dictionaries({
        "type": st.just(msg["type"]) | st.sampled_from(MESSAGE_TYPES),
        "session_id": st.just(msg["session_id"]) | JSON,
        "payload": payload | JSON,
    })


def _session_at(params: entcf.EntcfParams, phase: str):
    """A session waiting in ``phase``, with the honest prover's message for it."""
    vrng, prng = role_rng(0, 0, 0), role_rng(0, 0, 1)
    round_type = "preimage" if phase == "preimage" else "hadamard"
    state, keys = protocol.start_session(params, vrng, round_type=round_type)
    prover = HonestProver(prng, ClawOracle(state.keys, state.trapdoors))
    honest = prover.commit(keys)
    if phase != "commit":
        protocol.respond(state, honest, vrng)
        honest = prover.preimage_answer() if phase == "preimage" else prover.equations()
    if phase == "answers":
        honest = prover.answers(protocol.respond(state, honest, vrng))
    assert state.phase == phase
    return state, vrng, honest


@settings(max_examples=250, deadline=None)
@given(params=st.sampled_from(BACKENDS), phase=st.sampled_from(PHASES), data=st.data())
def test_respond_raises_only_malformed(params, phase, data):
    """``harness.collect`` counts a MalformedMessageError from ``respond`` as an
    abort; any other class would end the server thread."""
    state, vrng, honest = _session_at(params, phase)
    msg = data.draw(_near(honest) | JSON)
    try:
        protocol.respond(state, msg, vrng)
    except MalformedMessageError:
        return
    if state.phase == "done":  # an accepted last message: its record must hold up
        rec = protocol.record_from_state(state)
        back = protocol.TranscriptRecord.from_json(json.loads(json.dumps(rec.to_json())))
        assert back.to_json() == rec.to_json()
        assert protocol.recheck_flag(back) is Flag(state.record.flag)


@settings(max_examples=300, deadline=None)
@given(line=st.binary(max_size=200) | JSON.map(lambda v: json.dumps(v).encode()))
@example(line=b"[" * 3000 + b"]" * 3000)
@example(line=b"1" * 5000)
def test_recv_raises_only_bellcert_errors(line):
    left, right = socket.socketpair()
    with left, right:
        right.sendall(line + b"\n")
        try:
            net.LineChannel(left, timeout=5).recv()
        except BellcertError:
            pass


def _near_value(v):
    """``v``, or ``v`` with one part anywhere inside it kept, changed or replaced."""
    options = st.just(v) | JSON | st.integers()
    if isinstance(v, dict):
        options |= st.fixed_dictionaries({k: _near_value(x) for k, x in v.items()})
    if isinstance(v, list) and v:
        options |= st.integers(0, len(v) - 1).flatmap(
            lambda i: _near_value(v[i]).map(lambda x: v[:i] + [x] + v[i + 1:]))
    return options


class _NoClaws:
    """A claw oracle for any keys: it reports every leg as an injective one."""

    def claw_xor(self, leg, b, x, y):
        return None


@settings(max_examples=300, deadline=None)
@given(params=st.sampled_from(BACKENDS), data=st.data())
def test_decode_keys_raises_only_malformed(params, data):
    """Whatever a verifier puts in the keys payload object, the prover's
    commit either plays the keys or raises MalformedMessageError."""
    _, keys = protocol.start_session(params, role_rng(0, 0, 0), basis=(1, 0))
    honest = json.loads(json.dumps(keys))
    payload = data.draw(st.fixed_dictionaries(
        {k: _near_value(v) for k, v in honest["payload"].items()}))
    try:
        HonestProver(role_rng(0, 0, 1), _NoClaws()).commit({**honest, "payload": payload})
    except MalformedMessageError:
        pass


HONEST_DEVICE = device.device_to_json(device.from_honest(0.1))


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_device_file_raises_only_bellcert_errors(data):
    """Whatever a device file holds, ``device_from_json`` and ``analyze``
    either report on it or raise a BellcertError."""
    blob = data.draw(st.fixed_dictionaries({k: _near_value(v) for k, v in HONEST_DEVICE.items()}))
    try:
        analysis.analyze(device.device_from_json(json.loads(json.dumps(blob))))
    except BellcertError:
        pass


@settings(max_examples=200, deadline=None)
@given(raw=st.binary(max_size=200) | st.sampled_from(
    list(json.dumps(HONEST_DEVICE).encode()[:i] for i in (1, 10, 100, 1000))))
@example(raw=b'{"dim": 4,')
@example(raw=b"\xff\xfe")
@example(raw=b"[" * 100_000)
def test_device_file_bytes_raise_only_bellcert_errors(tmp_path_factory, raw):
    """Whatever bytes a device file holds, ``load_device`` and ``analyze``
    either report on it or raise a BellcertError."""
    path = tmp_path_factory.mktemp("device") / "dev.json"
    path.write_bytes(raw)
    try:
        analysis.analyze(device.load_device(str(path)))
    except BellcertError:
        pass
