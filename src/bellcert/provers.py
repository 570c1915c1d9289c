"""Simulated prover strategies.

The honest prover tracks the two committed qubits explicitly: each leg's
post-measurement qubit is a computational state (injective legs) or a
phase state determined by its equation mask and claw (claw-free legs).
An entangling CZ is applied across the legs before answering questions,
and answers are drawn from a closed-form Born table (:func:`born_table`)
of the real product amplitudes, optionally through a two-qubit
depolarizing channel.

The claw-free legs need the partner preimage of the committed image to
know their phase.  A real device would hold that in superposition; the
simulation instead queries a :class:`ClawOracle`, which is the only place
trapdoor material crosses into prover code and exists purely for state
tracking.  (On the ideal backend the public key already determines the
claw, so the oracle can be built without trapdoors there.)
"""
from __future__ import annotations

import math

import numpy as np

from . import entcf
from .errors import (AbortSessionError, BellcertError, ConfigurationError,
                     MalformedMessageError)
from .protocol import FLAG_VALUES, ROUND_TYPES, is_pair, message, validate_message

_SQRT_HALF = math.sqrt(0.5)


def born_table(amp1: tuple[float, float], amp2: tuple[float, float],
               questions: tuple[int, int], entangle: bool,
               depolarize: float) -> list[float]:
    """Answer probabilities, indexed ``2*v1 + v2``, of two legs with real
    amplitudes ``amp1``/``amp2``: CZ if ``entangle``, a Hadamard on each leg
    asked question 1, then ``(1-p)*a**2 + p/4`` for depolarizing ``p``."""
    a = [x * y for x in amp1 for y in amp2]
    if entangle:
        a[3] = -a[3]
    s = _SQRT_HALF
    if questions[0]:
        a = [(a[0] + a[2]) * s, (a[1] + a[3]) * s, (a[0] - a[2]) * s, (a[1] - a[3]) * s]
    if questions[1]:
        a = [(a[0] + a[1]) * s, (a[0] - a[1]) * s, (a[2] + a[3]) * s, (a[2] - a[3]) * s]
    probs = [(1.0 - depolarize) * x * x + depolarize / 4.0 for x in a]
    total = sum(probs)
    return [x / total for x in probs]


class ClawOracle:
    """Simulation-only handle answering claw-partner queries; the honest
    simulation learns which legs are claw-free from it alone.

    Built either from trapdoors (any backend) or from public keys alone
    (ideal backend, whose keys are claw-revealing by construction).
    """

    def __init__(self, keys, trapdoors=None):
        self.keys = tuple(keys)
        if trapdoors is None:
            params = self.keys[0].params
            if params.backend != "ideal":
                raise ConfigurationError(
                    "claw oracle needs trapdoors on non-ideal backends")
            trapdoors = tuple(entcf.Trapdoor(entcf.ideal_family(pk.payload), params,
                                             dict(pk.payload)) for pk in self.keys)
        self.trapdoors = tuple(trapdoors)

    def claw_xor(self, leg: int, b: int, x: int, y):
        """``x`` xor its claw partner for the image ``y`` of (b, x); None on a G leg."""
        if self.trapdoors[leg].family != "F":
            return None
        partner = entcf.invert(self.trapdoors[leg], self.keys[leg], 1 - b, y)
        if partner is None:
            raise AbortSessionError("claw oracle failed to invert a fresh image")
        return x ^ partner


def _decode_keys(payload: dict) -> tuple[entcf.EntcfParams, tuple[entcf.PublicKey, ...]]:
    """The params and the two public keys of a keys payload, or MalformedMessageError."""
    params, keys = payload.get("params"), payload.get("keys")
    if not (isinstance(params, dict) and isinstance(keys, list) and len(keys) == 2
            and all(isinstance(k, dict) for k in keys)):
        raise MalformedMessageError("keys payload needs a params object and two key objects")
    try:
        params = entcf.EntcfParams.from_json(params)
        return params, tuple(entcf.PublicKey.from_json(k, params) for k in keys)
    except BellcertError as exc:
        raise MalformedMessageError(f"bad keys payload: {exc!r}") from exc


class HonestProver:
    """One session of the honest strategy: :meth:`play` runs the four step methods."""

    def __init__(self, rng: np.random.Generator, claw_oracle: ClawOracle | None = None, *,
                 depolarize: float = 0.0, entangle: bool = True):
        if not 0.0 <= depolarize <= 1.0:
            raise ConfigurationError(f"depolarizing strength {depolarize} outside [0, 1]")
        self.rng = rng
        self.oracle = claw_oracle
        self.depolarize = depolarize
        self.entangle = entangle
        self.session_id = 0
        self.keys: tuple[entcf.PublicKey, ...] | None = None
        self.legs: list[dict] = []

    # -- protocol steps ----------------------------------------------------

    def play(self, keys_msg: dict, exchange) -> str:
        """Play the session that ``keys_msg`` opens and return the verdict flag;
        ``exchange(msg)`` delivers a message to the verifier and returns its reply."""
        round_msg = validate_message(exchange(self.commit(keys_msg)), "round")
        round_type = round_msg["payload"].get("round")
        if round_type not in ROUND_TYPES:
            raise MalformedMessageError(f"unknown round type {round_type!r}")
        if round_type == "preimage":
            verdict = exchange(self.preimage_answer())
        else:
            verdict = exchange(self.answers(exchange(self.equations())))
        flag = validate_message(verdict, "verdict")["payload"].get("flag")
        if flag not in FLAG_VALUES:
            raise MalformedMessageError(f"unknown verdict flag {flag!r}")
        return flag

    def commit(self, keys_msg: dict) -> dict:
        payload = validate_message(keys_msg, "keys")["payload"]
        self.session_id = keys_msg["session_id"]
        params, self.keys = _decode_keys(payload)
        if self.oracle is None:
            self.oracle = ClawOracle(self.keys)
        self._prepare()
        return message("commit", self.session_id, {
            "y1": entcf.image_to_wire(params, self.legs[0]["y"]),
            "y2": entcf.image_to_wire(params, self.legs[1]["y"]),
        })

    def _prepare(self):
        self.legs = []
        for i, pk in enumerate(self.keys):
            b = int(self.rng.integers(2))
            x = entcf.random_preimage(pk.params, self.rng)
            y = entcf.eval_sample(pk, b, x, self.rng)
            leg = {"pk": pk, "b": b, "x": x, "y": y}
            claw_xor = self.oracle.claw_xor(i, b, x, y)
            if claw_xor is not None:  # a claw-free leg
                leg["claw_xor"] = claw_xor
            self.legs.append(leg)

    def preimage_answer(self) -> dict:
        params = self.keys[0].params
        opening = []
        for leg in self.legs:
            if "claw_xor" in leg:
                # either claw member is a valid opening; pick uniformly
                c = int(self.rng.integers(2))
                b, x = leg["b"] ^ c, leg["x"] ^ (c * leg["claw_xor"])
            else:
                b, x = leg["b"], leg["x"]
            opening.append((b, x))
        return message("preimage", self.session_id, {
            "b1": opening[0][0], "x1": entcf.bits_to_wire(params, opening[0][1]),
            "b2": opening[1][0], "x2": entcf.bits_to_wire(params, opening[1][1]),
        })

    def equations(self) -> dict:
        params = self.keys[0].params
        for leg in self.legs:
            leg["d"] = 0
            while not leg["d"]:  # the all-zero mask says nothing about the claw
                leg["d"] = entcf.random_preimage(params, self.rng)
        return message("equations", self.session_id, {
            "d1": entcf.bits_to_wire(params, self.legs[0]["d"]),
            "d2": entcf.bits_to_wire(params, self.legs[1]["d"]),
        })

    @staticmethod
    def _amplitudes(leg: dict) -> tuple[float, float]:
        if "claw_xor" not in leg:
            return (0.0, 1.0) if leg["b"] else (1.0, 0.0)
        phase = (leg["d"] & leg["claw_xor"]).bit_count() & 1
        return (_SQRT_HALF, -_SQRT_HALF if phase else _SQRT_HALF)

    @staticmethod
    def _questions(questions_msg: dict) -> tuple[int, int]:
        payload = validate_message(questions_msg, "questions")["payload"]
        q = (payload.get("q1"), payload.get("q2"))
        if not is_pair(q):
            raise MalformedMessageError(f"questions {q!r} are not a pair of bits")
        return q

    def answers(self, questions_msg: dict) -> dict:
        probs = born_table(self._amplitudes(self.legs[0]), self._amplitudes(self.legs[1]),
                           self._questions(questions_msg), self.entangle, self.depolarize)
        outcome = int(self.rng.choice(4, p=probs))
        return message("answers", self.session_id,
                       {"v1": outcome >> 1, "v2": outcome & 1})


class ClassicalGuessProver(HonestProver):
    """Commits honestly but sends uniformly random hadamard answers."""

    def answers(self, questions_msg):
        self._questions(questions_msg)
        return message("answers", self.session_id,
                       {"v1": int(self.rng.integers(2)), "v2": int(self.rng.integers(2))})


STRATEGIES = {  # name -> (class, entangle)
    "honest": (HonestProver, True),
    "no_entangler": (HonestProver, False),
    "classical_guess": (ClassicalGuessProver, True),
}
_DEPOLARIZED = "honest_depolarized:"  # then a strength p in [0, 1]: honest through noise


def parse_strategy(name: str) -> tuple[type[HonestProver], float, bool]:
    """The class, depolarizing strength and ``entangle`` setting of a strategy:
    a :data:`STRATEGIES` name or ``honest_depolarized:<p>``; else ConfigurationError."""
    if name in STRATEGIES:
        cls, entangle = STRATEGIES[name]
        return cls, 0.0, entangle
    if not name.startswith(_DEPOLARIZED):
        raise ConfigurationError(f"unknown strategy {name!r}")
    try:
        p = float(name[len(_DEPOLARIZED):])
    except ValueError as exc:
        raise ConfigurationError(f"bad depolarizing strength in {name!r}") from exc
    if not 0.0 <= p <= 1.0:
        raise ConfigurationError(f"depolarizing strength {p} outside [0, 1]")
    return HonestProver, p, True


def make_prover(name: str, rng: np.random.Generator,
                claw_oracle: ClawOracle | None = None) -> HonestProver:
    cls, depolarize, entangle = parse_strategy(name)
    return cls(rng, claw_oracle, depolarize=depolarize, entangle=entangle)
