"""Verifier state machine and message schema for the two-leg session.

One session keeps two keyed function legs.  For each leg the verifier
secretly picks a basis bit: 0 selects an injective-family key (G), 1 a
claw-free-family key (F).  After the prover commits images it learns the
round type:

* preimage round -- the prover opens both images; each opening is checked
  with the public ``chk``.
* hadamard round -- the prover sends equation masks, receives question
  bits, and answers one bit per leg.  The verifier decodes branch bits
  (G legs) and claw parities (F legs) with its trapdoors and applies the
  basis-dependent consistency checks.

The test and Bell checks have one home, the table ``CHECKS``.  :func:`judge`
applies it once per finished record, for the verdict and the harness
statistics alike, and the white-box pass tuples apply its ``Check.passes``
to a device's Born table.
Forced-basis and forced-round diagnostics pass both to :func:`start_session`,
and :func:`respond` hands each prover message to the step of the current phase.
Each step writes what it accepted into the session's :class:`TranscriptRecord`,
and the verdict is :func:`recheck_flag` of the finished record, as in an audit.

Messages are plain dicts ``{"type", "session_id", "payload"}`` that travel
in-process and over the TCP transport; both ends check each message they
receive against :data:`PAYLOAD_FIELDS` in :func:`validate_message` alone.
"""
from __future__ import annotations

import contextlib
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple, Optional

import numpy as np

from . import entcf
from .errors import InvalidImageError, MalformedMessageError, ProtocolStateError


class Flag(str, Enum):
    OK = "ok"                # at least one check applied, all passed
    FAIL_PRE = "fail_pre"
    FAIL_TEST = "fail_test"
    FAIL_BELL = "fail_bell"
    NONE = "none"            # round carried no applicable check


ROUND_TYPES = ("preimage", "hadamard")
FLAG_VALUES = tuple(f.value for f in Flag)


def message(mtype: str, session_id: int, payload: dict) -> dict:
    return {"type": mtype, "session_id": int(session_id), "payload": payload}


def is_bit(v) -> bool:
    """Only the plain ints 0 and 1 are bits; ``True``, ``1.0`` and ``"1"`` are not."""
    return type(v) is int and v in (0, 1)


def is_pair(v, item=is_bit) -> bool:
    return isinstance(v, (list, tuple)) and len(v) == 2 and all(item(x) for x in v)


def _is_str(v) -> bool:
    return isinstance(v, str)


def _is_object(v) -> bool:
    return isinstance(v, dict)


def _is_session_id(v) -> bool:
    return type(v) is int and v >= 0


# each message type's payload fields, in order, with the rule each value meets;
# a hex field need only be a string, since the step that receives it decodes it
PAYLOAD_FIELDS = {
    "keys": {"params": _is_object, "keys": lambda v: is_pair(v, _is_object)},
    "commit": {"y1": _is_str, "y2": _is_str}, "round": {"round": lambda v: v in ROUND_TYPES},
    "preimage": {"b1": is_bit, "x1": _is_str, "b2": is_bit, "x2": _is_str},
    "equations": {"d1": _is_str, "d2": _is_str}, "questions": {"q1": is_bit, "q2": is_bit},
    "answers": {"v1": is_bit, "v2": is_bit}, "verdict": {"flag": lambda v: v in FLAG_VALUES}}
_ENVELOPE = {"type", "session_id", "payload"}


def validate_message(obj, mtype: str, session_id: Optional[int] = None) -> dict:
    """The payload of ``obj`` if it is an ``mtype`` message of a plain-int session
    id >= 0 (``session_id``, when given) whose payload holds exactly the fields of
    :data:`PAYLOAD_FIELDS`, each meeting its rule; else MalformedMessageError."""
    if not isinstance(obj, dict) or obj.keys() != _ENVELOPE:
        raise MalformedMessageError("message is not an object of type, session_id and payload")
    if obj["type"] != mtype:
        raise MalformedMessageError(f"expected {mtype!r}, got {obj['type']!r}")
    sid = obj["session_id"]
    if not _is_session_id(sid) or (session_id is not None and sid != session_id):
        raise MalformedMessageError(f"bad session id {sid!r} (this session: {session_id})")
    rules, payload = PAYLOAD_FIELDS[mtype], obj["payload"]
    if not isinstance(payload, dict) or payload.keys() != rules.keys():
        raise MalformedMessageError(f"payload is not an object of exactly {sorted(rules)}")
    for k, valid in rules.items():
        if not valid(payload[k]):
            raise MalformedMessageError(f"bad {mtype} payload field {k!r}")
    return payload


def _from_wire(decode, params: entcf.EntcfParams, payload: dict, *fields: str) -> tuple:
    """``decode(params, value)`` of each hex field; a refused spelling is malformed."""
    try:
        return tuple(decode(params, payload[k]) for k in fields)
    except ValueError as exc:
        raise MalformedMessageError(f"bad hex field among {fields}: {exc}") from exc


@dataclass
class VerifierState:
    """What the verifier holds beyond the record: the keys, their trapdoors
    and the decoded images.  Each ``receive_*`` step writes the values it
    accepted into ``record`` as the strings it received; the wire decoders
    accept only the canonical spelling, so these equal their re-encoding."""
    params: entcf.EntcfParams
    keys: tuple[entcf.PublicKey, entcf.PublicKey]
    trapdoors: tuple[entcf.Trapdoor, entcf.Trapdoor]
    record: TranscriptRecord
    phase: str = "commit"
    images: Optional[tuple] = None

    def _payload(self, msg, phase: str) -> dict:
        """The payload of ``msg``, which must be this session's ``phase`` message."""
        if self.phase != phase:
            raise ProtocolStateError(f"session in phase {self.phase!r}, expected {phase!r}")
        return validate_message(msg, phase, self.record.session_id)


def start_session(params: entcf.EntcfParams, rng: np.random.Generator,
                  session_id: int = 0, basis: Optional[tuple[int, int]] = None,
                  round_type: Optional[str] = None) -> tuple[VerifierState, dict]:
    """Sample bases and keys; returns the state and the opening keys message.

    A forced ``basis`` or ``round_type`` replaces the drawn bits, leaving the stream unchanged.
    """
    drawn = (int(rng.integers(2)), int(rng.integers(2)))
    basis = drawn if basis is None else tuple(basis)
    pairs = [entcf.gen("F" if theta else "G", params, rng) for theta in basis]
    keys = (pairs[0][0], pairs[1][0])
    # the record encodes the keys itself: an in-process prover may edit its message
    record = TranscriptRecord(session_id, basis, tuple(pk.to_json() for pk in keys),
                              round_type)
    state = VerifierState(params, keys, (pairs[0][1], pairs[1][1]), record)
    msg = message("keys", session_id, {
        "params": params.to_json(),
        "keys": [pk.to_json() for pk in keys],
    })
    return state, msg


def respond(state: VerifierState, msg: dict, rng: np.random.Generator) -> dict:
    """Hand ``msg`` to the current phase's ``receive_*`` step; return its reply."""
    if state.phase == "commit":
        return receive_commit(state, msg, rng)
    if state.phase == "preimage":
        return receive_preimage(state, msg)
    if state.phase == "equations":
        return receive_equations(state, msg, rng)
    if state.phase == "answers":
        return receive_answers(state, msg)
    raise ProtocolStateError(f"session {state.record.session_id} is already {state.phase}")


def receive_commit(state: VerifierState, msg: dict, rng: np.random.Generator) -> dict:
    """Accept the prover's images and announce the round type."""
    payload = state._payload(msg, "commit")
    state.images = _from_wire(entcf.image_from_wire, state.params, payload, "y1", "y2")
    rec = state.record
    rec.images = (payload["y1"], payload["y2"])
    drawn = ROUND_TYPES[int(rng.integers(2))]  # even when forced: the stream is kept
    rec.round_type = rec.round_type or drawn
    state.phase = "preimage" if rec.round_type == "preimage" else "equations"
    return message("round", rec.session_id, {"round": rec.round_type})


def receive_preimage(state: VerifierState, msg: dict) -> dict:
    payload = state._payload(msg, "preimage")
    b = (payload["b1"], payload["b2"])
    x = _from_wire(entcf.bits_from_wire, state.params, payload, "x1", "x2")
    rec = state.record
    rec.openings = (b[0], payload["x1"], b[1], payload["x2"])
    rec.pre_leg_ok = tuple(entcf.chk(state.keys[i], state.images[i], b[i], x[i])
                           for i in (0, 1))
    return _finish(state)


def receive_equations(state: VerifierState, msg: dict, rng: np.random.Generator) -> dict:
    payload = state._payload(msg, "equations")
    d = _from_wire(entcf.bits_from_wire, state.params, payload, "d1", "d2")
    rec = state.record
    rec.equations = (payload["d1"], payload["d2"])
    rec.targets = _decode_targets(state, d)
    rec.questions = (int(rng.integers(2)), int(rng.integers(2)))
    state.phase = "answers"
    return message("questions", rec.session_id,
                   {"q1": rec.questions[0], "q2": rec.questions[1]})


def receive_answers(state: VerifierState, msg: dict) -> dict:
    payload = state._payload(msg, "answers")
    state.record.answers = (payload["v1"], payload["v2"])
    return _finish(state)


def _finish(state: VerifierState) -> dict:
    """Settle the complete record's verdict, as an audit of it would."""
    rec = state.record
    rec.flag = recheck_flag(rec).value
    state.phase = "done"
    return message("verdict", rec.session_id, {"flag": rec.flag})


def _decode_targets(state: VerifierState, d: tuple[int, int]) -> dict:
    """Trapdoor-decode the per-leg branch bit or claw parity."""
    out: dict = {}
    for i in (0, 1):
        td, pk, y = state.trapdoors[i], state.keys[i], state.images[i]
        b = u = None
        if state.record.basis[i]:
            u = entcf.decode_equation(td, pk, y, d[i])
        else:
            with contextlib.suppress(InvalidImageError):
                b = entcf.decode_bit(td, pk, y)
        out[f"b{i + 1}"], out[f"u{i + 1}"] = b, u
    return out


class Check(NamedTuple):
    """One hadamard-round check: in basis ``basis`` under questions
    ``questions``, the XOR of the answers on ``legs`` must equal slot
    ``slot`` of :func:`accepted_pair`."""
    bucket: str
    basis: tuple[int, int]
    questions: tuple[int, int]
    legs: tuple[int, ...]
    slot: int

    @property
    def fail_flag(self) -> Flag:
        return Flag.FAIL_BELL if len(self.legs) == 2 else Flag.FAIL_TEST

    def passes(self, answers: tuple[int, int], pair: tuple) -> bool:
        parity = 0
        for leg in self.legs:
            parity ^= answers[leg]
        return pair[self.slot] is not None and parity == pair[self.slot]


# The one home of the test and Bell checks, in report order, for the verdict,
# the run statistics and the white-box pass tuples alike.  A bucket is named
# after the marginal observable (or the pair of them) that its answers read.
CHECKS = (
    Check("z1", (0, 1), (0, 0), (0,), 0),
    Check("zt1", (0, 1), (0, 1), (0,), 0),
    Check("x2", (0, 1), (1, 1), (1,), 1),
    Check("xt2", (0, 1), (0, 1), (1,), 1),
    Check("x1", (1, 0), (1, 1), (0,), 0),
    Check("xt1", (1, 0), (1, 0), (0,), 0),
    Check("z2", (1, 0), (0, 0), (1,), 1),
    Check("zt2", (1, 0), (1, 0), (1,), 1),
    Check("zt1_xt2", (1, 1), (0, 1), (0, 1), 0),
    Check("xt1_zt2", (1, 1), (1, 0), (0, 1), 1),
)


def accepted_pair(basis: tuple[int, int], targets: dict) -> tuple:
    """Per-slot accepted answer (accepted parity in basis (1,1)).

    A slot is None when a decoding it needs failed.  For basis (1,1) the
    first slot is the leg-2 parity and the second the leg-1 parity.
    """
    b1, b2 = targets.get("b1"), targets.get("b2")
    u1, u2 = targets.get("u1"), targets.get("u2")
    if basis == (0, 0):
        return (b1, b2)
    if basis == (0, 1):
        return (b1, None if b1 is None or u2 is None else u2 ^ b1)
    if basis == (1, 0):
        return (None if u1 is None or b2 is None else u1 ^ b2, b2)
    return (u2, u1)


class Judgement(NamedTuple):
    """A finished record's one evaluation: its verdict, the fail kind the round
    was an opportunity for (None if it was none), each tested bucket with its
    pass bit, and whether a slot of :func:`accepted_pair` did not decode."""
    flag: Flag
    kind: Optional[Flag]
    tested: tuple[tuple, ...]
    undecodable: bool


def judge(record: TranscriptRecord) -> Judgement:
    """Evaluate a complete record: a preimage round's opened legs, named ``00.leg1`` and so on,
    or the :data:`CHECKS` rows a hadamard round's basis and questions select.

    Undecodable targets count as failed checks: a prover that commits an
    invalid image never earns a pass in a checked slot.
    """
    basis, pair = record.basis, ()
    if record.round_type == "preimage":
        kind = Flag.FAIL_PRE
        tested = tuple((f"{basis[0]}{basis[1]}.leg{leg + 1}", bool(ok))
                       for leg, ok in enumerate(record.pre_leg_ok))
    else:
        pair = accepted_pair(basis, record.targets)
        rows = [c for c in CHECKS if c.basis == basis]
        tested = tuple((c.bucket, c.passes(record.answers, pair))
                       for c in rows if c.questions == record.questions)
        # a basis's rows share one fail kind: every mixed-basis round is a test
        # opportunity, but an all-F round a Bell one only under the cross questions
        kind = rows[0].fail_flag if rows else None
        if kind is Flag.FAIL_BELL and not tested:
            kind = None
    flag = Flag.NONE if not tested else Flag.OK if all(ok for _, ok in tested) else kind
    return Judgement(flag, kind, tested, None in pair)


# ---------------------------------------------------------------------------
# transcript records
# ---------------------------------------------------------------------------

@dataclass
class TranscriptRecord:
    """What a session accepted and its verdict: everything needed to replay
    the verdict.  A live session fills it in step by step."""
    session_id: int
    basis: tuple[int, int]
    keys: tuple[dict, dict]
    round_type: Optional[str] = None
    flag: Optional[str] = None
    images: Optional[tuple[str, str]] = None
    openings: Optional[tuple[int, str, int, str]] = None
    pre_leg_ok: Optional[tuple[bool, bool]] = None
    equations: Optional[tuple[str, str]] = None
    questions: Optional[tuple[int, int]] = None
    answers: Optional[tuple[int, int]] = None
    targets: Optional[dict] = None

    def to_json(self) -> dict:
        out = {}
        for k in _RECORD_FIELDS:
            v = getattr(self, k)
            out[k] = list(v) if isinstance(v, tuple) else v
        return out

    @classmethod
    def from_json(cls, d: dict) -> "TranscriptRecord":
        if not isinstance(d, dict):
            raise MalformedMessageError("transcript record is not an object")
        raw = {k: d.get(k) for k in _RECORD_FIELDS}  # a missing field reads as None
        bad = [k for k in d if k not in raw] + [
            k for k, valid in _RECORD_FIELDS.items() if not valid(raw[k])]
        if bad:
            raise MalformedMessageError(f"bad transcript record fields: {bad}")
        missing = [k for k in _ROUND_FIELDS[raw["round_type"]] if raw[k] is None]
        if missing:
            raise MalformedMessageError(f"{raw['round_type']} record lacks {missing}")
        return cls(**{k: tuple(v) if isinstance(v, list) else v for k, v in raw.items()})


def _optional(valid):
    return lambda v: v is None or valid(v)


def _payload_values(mtype: str):
    """The rule of a record field that stores an ``mtype`` payload's values, in field order."""
    rules = tuple(PAYLOAD_FIELDS[mtype].values())
    return lambda v: (isinstance(v, (list, tuple)) and len(v) == len(rules)
                      and all(valid(x) for valid, x in zip(rules, v)))


def _is_targets(t) -> bool:
    return (isinstance(t, dict) and set(t) == {"b1", "u1", "b2", "u2"}
            and all(v is None or is_bit(v) for v in t.values()))


# the validity rule of every stored field, in the order records are written;
# the payload values the verifier accepted keep their PAYLOAD_FIELDS rules,
# and only the fields from openings on may be None
_RECORD_FIELDS = {
    "session_id": _is_session_id,
    "basis": is_pair,
    "round_type": PAYLOAD_FIELDS["round"]["round"],
    "flag": PAYLOAD_FIELDS["verdict"]["flag"],
    "images": _payload_values("commit"),
    "keys": lambda v: is_pair(v, lambda k: _is_object(k) and set(k) == {"payload"}),
    "openings": _optional(_payload_values("preimage")),
    "pre_leg_ok": _optional(lambda v: is_pair(v, lambda b: type(b) is bool)),
    "equations": _optional(_payload_values("equations")),
    "questions": _optional(_payload_values("questions")),
    "answers": _optional(_payload_values("answers")),
    "targets": _optional(_is_targets),
}

# the fields a finished session of each round type always fills in
_ROUND_FIELDS = {
    "preimage": ("openings", "pre_leg_ok"),
    "hadamard": ("equations", "questions", "answers", "targets"),
}


def record_from_state(state: VerifierState) -> TranscriptRecord:
    if state.phase != "done":
        raise ProtocolStateError("session is not finished")
    return state.record


def recheck_flag(record: TranscriptRecord) -> Flag:
    """Recompute a complete record's verdict from its stored answers and targets."""
    return judge(record).flag
