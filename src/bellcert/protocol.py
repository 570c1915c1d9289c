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

The test and Bell checks have one home, the table ``CHECKS``, which the
verdicts, the harness statistics and the white-box pass tuples all read.
Forced-basis and forced-round diagnostics pass both to :func:`start_session`,
and :func:`respond` hands each prover message to the step of the current phase.

Messages are plain dicts ``{"type", "session_id", "payload"}`` so the same
objects travel in-process, over the line-delimited TCP transport, and into
transcript logs.
"""
from __future__ import annotations

from dataclasses import dataclass, field
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


MESSAGE_TYPES = ("keys", "commit", "round", "preimage", "equations",
                 "questions", "answers", "verdict")
ROUND_TYPES = ("preimage", "hadamard")


def message(mtype: str, session_id: int, payload: dict) -> dict:
    return {"type": mtype, "session_id": int(session_id), "payload": payload}


def validate_message(obj, expected_type: str | None = None) -> dict:
    if not isinstance(obj, dict):
        raise MalformedMessageError("message is not an object")
    extra = set(obj) - {"type", "session_id", "payload"}
    missing = {"type", "session_id", "payload"} - set(obj)
    if extra or missing:
        raise MalformedMessageError(f"bad message keys: missing={missing} extra={extra}")
    if obj["type"] not in MESSAGE_TYPES:
        raise MalformedMessageError(f"unknown message type {obj['type']!r}")
    if expected_type is not None and obj["type"] != expected_type:
        raise MalformedMessageError(f"expected {expected_type!r}, got {obj['type']!r}")
    if not isinstance(obj["payload"], dict):
        raise MalformedMessageError("payload is not an object")
    return obj


def is_bit(v) -> bool:
    """Only the plain ints 0 and 1 are bits; ``True``, ``1.0`` and ``"1"`` are not."""
    return type(v) is int and v in (0, 1)


def is_pair(v, item=is_bit) -> bool:
    return isinstance(v, (list, tuple)) and len(v) == 2 and all(item(x) for x in v)


def _bit(payload: dict, key: str) -> int:
    v = payload.get(key)
    if not is_bit(v):
        raise MalformedMessageError(f"field {key!r} must be the integer 0 or 1, got {v!r}")
    return v


def _hexbits(payload: dict, key: str, params: entcf.EntcfParams) -> int:
    try:
        return entcf.bits_from_wire(params, payload[key])
    except (KeyError, TypeError, ValueError) as exc:
        raise MalformedMessageError(f"bad bit-string field {key!r}: {exc}") from exc


@dataclass
class VerifierState:
    params: entcf.EntcfParams
    basis: tuple[int, int]
    keys: tuple[entcf.PublicKey, entcf.PublicKey]
    trapdoors: tuple[entcf.Trapdoor, entcf.Trapdoor]
    session_id: int = 0
    phase: str = "commit"
    round_type: Optional[str] = None   # forced by start_session, else drawn at commit
    images: Optional[tuple] = None
    equations: Optional[tuple[int, int]] = None
    questions: Optional[tuple[int, int]] = None
    answers: Optional[tuple[int, int]] = None
    openings: Optional[tuple] = None
    targets: dict = field(default_factory=dict)
    pre_leg_ok: Optional[tuple[bool, bool]] = None
    flag: Optional[Flag] = None

    def _payload(self, msg, phase: str) -> dict:
        """The payload of ``msg``, which must be this session's ``phase`` message."""
        if self.phase != phase:
            raise ProtocolStateError(f"session in phase {self.phase!r}, expected {phase!r}")
        sid = validate_message(msg, phase)["session_id"]
        if type(sid) is not int or sid != self.session_id:
            raise MalformedMessageError(
                f"message for session {sid!r} sent to session {self.session_id}")
        return msg["payload"]


def start_session(params: entcf.EntcfParams, rng: np.random.Generator,
                  session_id: int = 0, basis: Optional[tuple[int, int]] = None,
                  round_type: Optional[str] = None) -> tuple[VerifierState, dict]:
    """Sample bases and keys; returns the state and the opening keys message.

    A forced ``basis`` or ``round_type`` replaces the drawn bits, leaving the stream unchanged.
    """
    drawn = (int(rng.integers(2)), int(rng.integers(2)))
    basis = drawn if basis is None else tuple(basis)
    pairs = [entcf.gen("F" if theta else "G", params, rng) for theta in basis]
    state = VerifierState(params=params, basis=basis,
                          keys=(pairs[0][0], pairs[1][0]),
                          trapdoors=(pairs[0][1], pairs[1][1]),
                          session_id=session_id, round_type=round_type)
    msg = message("keys", session_id, {
        "params": params.to_json(),
        "keys": [pk.to_json() for pk in state.keys],
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
    raise ProtocolStateError(f"session {state.session_id} is already {state.phase}")


def receive_commit(state: VerifierState, msg: dict, rng: np.random.Generator) -> dict:
    """Accept the prover's images and announce the round type."""
    payload = state._payload(msg, "commit")
    try:
        y1 = entcf.image_from_wire(state.params, payload["y1"])
        y2 = entcf.image_from_wire(state.params, payload["y2"])
    except (KeyError, TypeError, ValueError) as exc:
        raise MalformedMessageError(f"bad commitment: {exc}") from exc
    state.images = (y1, y2)
    drawn = ROUND_TYPES[int(rng.integers(2))]  # even when forced: the stream is kept
    state.round_type = state.round_type or drawn
    state.phase = "preimage" if state.round_type == "preimage" else "equations"
    return message("round", state.session_id, {"round": state.round_type})


def receive_preimage(state: VerifierState, msg: dict) -> dict:
    payload = state._payload(msg, "preimage")
    b = (_bit(payload, "b1"), _bit(payload, "b2"))
    x = (_hexbits(payload, "x1", state.params), _hexbits(payload, "x2", state.params))
    state.openings = (b[0], x[0], b[1], x[1])
    leg_ok = tuple(entcf.chk(state.keys[i], state.images[i], b[i], x[i]) for i in (0, 1))
    state.pre_leg_ok = leg_ok
    state.flag = preimage_flag(leg_ok)
    state.phase = "done"
    return message("verdict", state.session_id, {"flag": state.flag.value})


def receive_equations(state: VerifierState, msg: dict, rng: np.random.Generator) -> dict:
    payload = state._payload(msg, "equations")
    d = (_hexbits(payload, "d1", state.params), _hexbits(payload, "d2", state.params))
    state.equations = d
    state.targets = _decode_targets(state, d)
    state.questions = (int(rng.integers(2)), int(rng.integers(2)))
    state.phase = "answers"
    return message("questions", state.session_id,
                   {"q1": state.questions[0], "q2": state.questions[1]})


def receive_answers(state: VerifierState, msg: dict) -> dict:
    payload = state._payload(msg, "answers")
    v = (_bit(payload, "v1"), _bit(payload, "v2"))
    state.answers = v
    state.flag = hadamard_flag(state.basis, state.questions, v, state.targets)
    state.phase = "done"
    return message("verdict", state.session_id, {"flag": state.flag.value})


def _decode_targets(state: VerifierState, d: tuple[int, int]) -> dict:
    """Trapdoor-decode the per-leg branch bit or claw parity."""
    out: dict = {}
    for i in (0, 1):
        key_b, key_u, key_deg = f"b{i + 1}", f"u{i + 1}", f"deg{i + 1}"
        td, pk, y = state.trapdoors[i], state.keys[i], state.images[i]
        if state.basis[i] == 0:
            try:
                out[key_b] = entcf.decode_bit(td, pk, y)
            except InvalidImageError:
                out[key_b] = None
            out[key_u], out[key_deg] = None, False
        else:
            eq = entcf.decode_equation(td, pk, y, d[i])
            out[key_b] = None
            out[key_u] = None if eq is None else eq.value
            out[key_deg] = False if eq is None else eq.degenerate
    return out


def preimage_flag(leg_ok: tuple[bool, bool]) -> Flag:
    return Flag.OK if leg_ok[0] and leg_ok[1] else Flag.FAIL_PRE


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


# The one home of the test and Bell checks, in report order.  Bucket names
# are the marginal observables (or the pair of them, for a cross-parity
# check) that the white-box analysis compares with the same slot.
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


def hadamard_flag(basis: tuple[int, int], q: tuple[int, int], v: tuple[int, int],
                  targets: dict) -> Flag:
    """Apply the checks of ``CHECKS`` that the basis and questions select.

    Undecodable targets count as failed checks: a prover that commits an
    invalid image never earns a pass in a checked slot.
    """
    checks = [c for c in CHECKS if c.basis == basis and c.questions == q]
    if not checks:
        return Flag.NONE
    pair = accepted_pair(basis, targets)
    for c in checks:
        if not c.passes(v, pair):
            return c.fail_flag
    return Flag.OK


# ---------------------------------------------------------------------------
# transcript records
# ---------------------------------------------------------------------------

@dataclass
class TranscriptRecord:
    """Everything needed to replay a finished session's verdict."""
    session_id: int
    basis: tuple[int, int]
    round_type: str
    flag: str
    images: tuple[str, str]
    keys: tuple[dict, dict]
    openings: Optional[tuple[int, str, int, str]] = None
    pre_leg_ok: Optional[tuple[bool, bool]] = None
    equations: Optional[tuple[str, str]] = None
    questions: Optional[tuple[int, int]] = None
    answers: Optional[tuple[int, int]] = None
    targets: Optional[dict] = None

    def to_json(self) -> dict:
        return {
            "session_id": self.session_id,
            "basis": list(self.basis),
            "round_type": self.round_type,
            "flag": self.flag,
            "images": list(self.images),
            "keys": list(self.keys),
            "openings": list(self.openings) if self.openings else None,
            "pre_leg_ok": list(self.pre_leg_ok) if self.pre_leg_ok else None,
            "equations": list(self.equations) if self.equations else None,
            "questions": list(self.questions) if self.questions else None,
            "answers": list(self.answers) if self.answers else None,
            "targets": self.targets,
        }

    @classmethod
    def from_json(cls, d: dict) -> "TranscriptRecord":
        def tup(v):
            return tuple(v) if v is not None else None
        try:
            rec = cls(session_id=int(d["session_id"]), basis=tuple(d["basis"]),
                      round_type=d["round_type"], flag=d["flag"],
                      images=tuple(d["images"]), keys=tuple(d["keys"]),
                      openings=tup(d.get("openings")), pre_leg_ok=tup(d.get("pre_leg_ok")),
                      equations=tup(d.get("equations")), questions=tup(d.get("questions")),
                      answers=tup(d.get("answers")), targets=d.get("targets"))
        except (KeyError, TypeError) as exc:
            raise MalformedMessageError(f"bad transcript record: {exc}") from exc
        ok = {"basis": is_pair(rec.basis), "round_type": rec.round_type in ROUND_TYPES,
              "flag": rec.flag in [f.value for f in Flag],
              "questions": rec.questions is None or is_pair(rec.questions),
              "answers": rec.answers is None or is_pair(rec.answers),
              "pre_leg_ok": rec.pre_leg_ok is None
              or is_pair(rec.pre_leg_ok, lambda v: type(v) is bool),
              "targets": rec.targets is None or isinstance(rec.targets, dict)}
        if not all(ok.values()):
            raise MalformedMessageError(
                f"bad transcript record fields: {[k for k, v in ok.items() if not v]}")
        return rec


def record_from_state(state: VerifierState) -> TranscriptRecord:
    if state.phase != "done":
        raise ProtocolStateError("session is not finished")
    params = state.params
    openings = None
    if state.openings is not None:
        b1, x1, b2, x2 = state.openings
        openings = (b1, entcf.bits_to_wire(params, x1), b2, entcf.bits_to_wire(params, x2))
    equations = None
    if state.equations is not None:
        equations = tuple(entcf.bits_to_wire(params, d) for d in state.equations)
    return TranscriptRecord(
        session_id=state.session_id, basis=state.basis, round_type=state.round_type,
        flag=state.flag.value,
        images=tuple(entcf.image_to_wire(params, y) for y in state.images),
        keys=tuple(pk.to_json() for pk in state.keys),
        openings=openings, pre_leg_ok=state.pre_leg_ok, equations=equations,
        questions=state.questions, answers=state.answers,
        targets=dict(state.targets) if state.targets else None)


def recheck_flag(record: TranscriptRecord) -> Flag:
    """Recompute a record's verdict from its stored answers and targets."""
    if record.round_type == "preimage":
        if record.pre_leg_ok is None:
            raise MalformedMessageError("preimage record lacks leg outcomes")
        return preimage_flag(tuple(bool(v) for v in record.pre_leg_ok))
    if record.questions is None or record.answers is None or record.targets is None:
        raise MalformedMessageError("hadamard record is incomplete")
    return hadamard_flag(tuple(record.basis), tuple(record.questions),
                         tuple(record.answers), record.targets)
