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
from .errors import AbortSessionError, ConfigurationError, MalformedMessageError
from .protocol import message, validate_message

DEFAULT_RETRY_BUDGET = 64
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
    """Simulation-only handle answering claw-partner queries.

    Built either from trapdoors (any backend) or from public keys alone
    (ideal backend, whose keys are claw-revealing by construction).
    """

    def __init__(self, params: entcf.EntcfParams, keys, trapdoors=None):
        self.params = params
        self.keys = tuple(keys)
        if trapdoors is None:
            if params.backend != "ideal":
                raise ConfigurationError(
                    "claw oracle needs trapdoors on non-ideal backends")
            trapdoors = tuple(entcf.Trapdoor(pk.family, params, dict(pk.payload))
                              for pk in self.keys)
        self.trapdoors = tuple(trapdoors)

    def partner(self, leg: int, b: int, y):
        """The (1-b)-branch preimage of image y on the given leg."""
        return entcf.invert(self.trapdoors[leg], self.keys[leg], 1 - b, y)


class Prover:
    """One session of a prover strategy: :meth:`play` runs the four step methods."""

    def play(self, keys_msg: dict, exchange) -> str:
        """Play the session that ``keys_msg`` opens and return the verdict flag;
        ``exchange(msg)`` delivers a message to the verifier and returns its reply."""
        round_msg = validate_message(exchange(self.commit(keys_msg)), "round")
        if round_msg["payload"].get("round") == "preimage":
            verdict = exchange(self.preimage_answer())
        else:
            verdict = exchange(self.answers(exchange(self.equations())))
        return validate_message(verdict, "verdict")["payload"]["flag"]

    def commit(self, keys_msg: dict) -> dict:
        raise NotImplementedError

    def preimage_answer(self) -> dict:
        raise NotImplementedError

    def equations(self) -> dict:
        raise NotImplementedError

    def answers(self, questions_msg: dict) -> dict:
        raise NotImplementedError


class HonestProver(Prover):
    def __init__(self, params: entcf.EntcfParams, rng: np.random.Generator,
                 claw_oracle: ClawOracle | None = None, *,
                 depolarize: float = 0.0, entangle: bool = True):
        if not 0.0 <= depolarize <= 1.0:
            raise ConfigurationError(f"depolarizing strength {depolarize} outside [0, 1]")
        self.params = params
        self.rng = rng
        self.oracle = claw_oracle
        self.depolarize = depolarize
        self.entangle = entangle
        self.session_id = 0
        self.keys: tuple[entcf.PublicKey, ...] | None = None
        self.legs: list[dict] = []

    # -- protocol steps ----------------------------------------------------

    def commit(self, keys_msg: dict) -> dict:
        payload = validate_message(keys_msg, "keys")["payload"]
        self.session_id = keys_msg["session_id"]
        params = entcf.EntcfParams.from_json(payload["params"])
        self.keys = tuple(entcf.PublicKey.from_json(k, params) for k in payload["keys"])
        if self.oracle is None:
            self.oracle = ClawOracle(params, self.keys)
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
            if pk.family == "F":
                partner = self.oracle.partner(i, b, y)
                if partner is None:
                    raise AbortSessionError("claw oracle failed to invert a fresh image")
                leg["claw_xor"] = x ^ partner
            self.legs.append(leg)

    def self_check(self) -> bool:
        """Public re-check of the tracked openings against the images."""
        return all(entcf.chk(leg["pk"], leg["y"], leg["b"], leg["x"])
                   for leg in self.legs)

    def preimage_answer(self) -> dict:
        params = self.keys[0].params
        opening = []
        for leg in self.legs:
            if leg["pk"].family == "F":
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
            d = entcf.random_preimage(params, self.rng)
            leg["d"] = d
        return message("equations", self.session_id, {
            "d1": entcf.bits_to_wire(params, self.legs[0]["d"]),
            "d2": entcf.bits_to_wire(params, self.legs[1]["d"]),
        })

    @staticmethod
    def _amplitudes(leg: dict) -> tuple[float, float]:
        if leg["pk"].family == "G":
            return (0.0, 1.0) if leg["b"] else (1.0, 0.0)
        phase = (leg["d"] & leg["claw_xor"]).bit_count() & 1
        return (_SQRT_HALF, -_SQRT_HALF if phase else _SQRT_HALF)

    def answers(self, questions_msg: dict) -> dict:
        payload = validate_message(questions_msg, "questions")["payload"]
        q = (int(payload["q1"]), int(payload["q2"]))
        if q[0] not in (0, 1) or q[1] not in (0, 1):
            raise MalformedMessageError("question bits must be 0 or 1")
        probs = born_table(self._amplitudes(self.legs[0]), self._amplitudes(self.legs[1]),
                           q, self.entangle, self.depolarize)
        outcome = int(self.rng.choice(4, p=probs))
        return message("answers", self.session_id,
                       {"v1": outcome >> 1, "v2": outcome & 1})


class ClassicalGuessProver(HonestProver):
    """Commits honestly but sends uniformly random hadamard answers."""

    def answers(self, questions_msg):
        validate_message(questions_msg, "questions")
        return message("answers", self.session_id,
                       {"v1": int(self.rng.integers(2)), "v2": int(self.rng.integers(2))})


class PerfectedProver(Prover):
    """Wraps a strategy and retries preparation until its self-check passes.

    The wrapped strategy must expose a ``self_check`` hook.  Exceeding the
    retry budget aborts the session.
    """

    def __init__(self, inner: Prover, retry_budget: int = DEFAULT_RETRY_BUDGET):
        if not hasattr(inner, "self_check"):
            raise ConfigurationError("wrapped strategy lacks a self_check hook")
        if retry_budget < 1:
            raise ConfigurationError("retry budget must be positive")
        self.inner = inner
        self.retry_budget = retry_budget
        self.retry_count = 0

    def commit(self, keys_msg):
        self.retry_count = 0
        while True:
            commit_msg = self.inner.commit(keys_msg)
            if self.inner.self_check():
                return commit_msg
            self.retry_count += 1
            if self.retry_count >= self.retry_budget:
                raise AbortSessionError(
                    f"self-check failed {self.retry_budget} times in a row")

    def preimage_answer(self):
        return self.inner.preimage_answer()

    def equations(self):
        return self.inner.equations()

    def answers(self, questions_msg):
        return self.inner.answers(questions_msg)


def parse_strategy(name: str) -> dict:
    """Parse a strategy string into keyword settings for :func:`make_prover`.

    Recognized forms: ``honest``, ``honest_depolarized:<p>``,
    ``no_entangler``, ``classical_guess``, each optionally prefixed with
    ``perfected:``.
    """
    out = {"perfected": False, "kind": None, "depolarize": 0.0}
    rest = name.strip()
    if rest.startswith("perfected:"):
        out["perfected"] = True
        rest = rest[len("perfected:"):]
    if rest == "honest":
        out["kind"] = "honest"
    elif rest.startswith("honest_depolarized:"):
        try:
            p = float(rest.split(":", 1)[1])
        except ValueError as exc:
            raise ConfigurationError(f"bad depolarizing strength in {name!r}") from exc
        if not 0.0 <= p <= 1.0:
            raise ConfigurationError(f"depolarizing strength {p} outside [0, 1]")
        out["kind"] = "honest"
        out["depolarize"] = p
    elif rest in ("no_entangler", "classical_guess"):
        out["kind"] = rest
    else:
        raise ConfigurationError(f"unknown strategy {name!r}")
    return out


def make_prover(name: str, params: entcf.EntcfParams, rng: np.random.Generator,
                claw_oracle: ClawOracle | None = None,
                retry_budget: int = DEFAULT_RETRY_BUDGET) -> Prover:
    cfg = parse_strategy(name)
    cls = ClassicalGuessProver if cfg["kind"] == "classical_guess" else HonestProver
    prover: Prover = cls(params, rng, claw_oracle, depolarize=cfg["depolarize"],
                         entangle=(cfg["kind"] != "no_entangler"))
    if cfg["perfected"]:
        prover = PerfectedProver(prover, retry_budget)
    return prover
