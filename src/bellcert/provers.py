"""Simulated prover strategies.

The honest prover tracks the two committed qubits explicitly: each leg's
post-measurement qubit is a computational state (injective legs) or a
phase state determined by its equation mask and claw (claw-free legs).
An entangling CZ is applied across the legs before answering questions,
and answers are sampled from the exact Born distribution, optionally
through a two-qubit depolarizing channel.

The claw-free legs need the partner preimage of the committed image to
know their phase.  A real device would hold that in superposition; the
simulation instead queries a :class:`ClawOracle`, which is the only place
trapdoor material crosses into prover code and exists purely for state
tracking.  (On the ideal backend the public key already determines the
claw, so the oracle can be built without trapdoors there.)
"""
from __future__ import annotations

import numpy as np

from . import entcf
from .errors import AbortSessionError, ConfigurationError, MalformedMessageError
from .linalg import projector_of, tensor, SIGMA_X, SIGMA_Z
from .protocol import message, validate_message

_CZ = np.diag([1.0, 1.0, 1.0, -1.0]).astype(complex)
_HAD = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex) / np.sqrt(2.0)

DEFAULT_RETRY_BUDGET = 64


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
    """One session of a prover strategy; drive with the four step methods."""

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

    def _qubit(self, leg: dict) -> np.ndarray:
        if leg["pk"].family == "G":
            vec = np.zeros(2, dtype=complex)
            vec[leg["b"]] = 1.0
            return vec
        phase = (leg["d"] & leg["claw_xor"]).bit_count() & 1
        return np.array([1.0, -1.0 if phase else 1.0], dtype=complex) / np.sqrt(2.0)

    def answers(self, questions_msg: dict) -> dict:
        payload = validate_message(questions_msg, "questions")["payload"]
        q = (int(payload["q1"]), int(payload["q2"]))
        if q[0] not in (0, 1) or q[1] not in (0, 1):
            raise MalformedMessageError("question bits must be 0 or 1")
        vec = np.kron(self._qubit(self.legs[0]), self._qubit(self.legs[1]))
        joint = np.outer(vec, vec.conj())
        if self.entangle:
            joint = _CZ @ joint @ _CZ
        if self.depolarize > 0.0:
            joint = (1.0 - self.depolarize) * joint + self.depolarize * np.eye(4) / 4.0
        probs = np.empty(4)
        for v1 in (0, 1):
            for v2 in (0, 1):
                proj = tensor(_meas_projector(q[0], v1), _meas_projector(q[1], v2))
                probs[2 * v1 + v2] = max(float(np.real(np.trace(proj @ joint))), 0.0)
        probs /= probs.sum()
        outcome = int(self.rng.choice(4, p=probs))
        return message("answers", self.session_id,
                       {"v1": outcome >> 1, "v2": outcome & 1})


def _meas_projector(q: int, v: int) -> np.ndarray:
    obs = SIGMA_X if q else SIGMA_Z
    return projector_of(obs, v)


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
