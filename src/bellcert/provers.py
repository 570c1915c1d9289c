"""Simulated prover strategies.

Each strategy plays a white-box device (:mod:`bellcert.device`): the
honest prover tracks its two committed legs, works out the label that the
verifier will decode from them (a G leg's bit ``b``, an F leg's equation
parity over its claw), and samples the answers from that label's row of
the device's :func:`answer_table`.  :data:`STRATEGIES` maps each name to
a class and the device it plays.

The claw-free legs need the partner preimage of the committed image to
know their parity.  A real device would hold that in superposition; the
simulation instead queries a :class:`ClawOracle`, which is the only place
trapdoor material crosses into prover code and exists purely for state
tracking.  (An ideal public key already determines the claw, so the
oracle can be built without trapdoors there.)
"""
from __future__ import annotations

import functools
from bisect import bisect_right
from itertools import accumulate

import numpy as np

from . import entcf
from .device import (BASIS_PAIRS, OUTCOME_PAIRS, QUESTION_PAIRS, Device, answer_probs,
                     from_honest, no_entangler, partial_states, projectors)
from .errors import BellcertError, ConfigurationError, MalformedMessageError
from .linalg import VALIDATION_TOL
from .protocol import accepted_pair, message, validate_message


def answer_table(dev: Device) -> dict[tuple, list[float]]:
    """(basis, label, questions) -> answer probabilities, indexed ``2*v1 + v2``:
    the device's :func:`~bellcert.device.answer_probs` row, clipped at 0 and
    normalised by its sum.  The honest commitment makes the four labels of a
    basis equally likely, so a device whose label weighs otherwise, or whose
    clipped row has no finite positive sum, is refused with ConfigurationError."""
    parts = partial_states(dev)
    for (i, j), weight in np.ndenumerate(np.trace(parts, axis1=-2, axis2=-1).real):
        if abs(weight - 0.25) > VALIDATION_TOL:
            raise ConfigurationError(f"branches {BASIS_PAIRS[i]}/{OUTCOME_PAIRS[j]} "
                                     f"weigh {weight}, not 1/4")
    probs = np.maximum(answer_probs(parts, projectors(dev)), 0.0)
    sums = probs.sum(-1)
    empty = np.argwhere(~(np.isfinite(sums) & (sums > 0)))
    if len(empty):
        i, j, k = empty[0]
        raise ConfigurationError(f"branches {BASIS_PAIRS[i]}/{OUTCOME_PAIRS[j]} under "
                                 f"questions {QUESTION_PAIRS[k]} answer with total "
                                 f"probability {sums[i, j, k]}, not a positive number")
    probs /= sums[..., None]
    return {(BASIS_PAIRS[i], OUTCOME_PAIRS[j], QUESTION_PAIRS[k]): probs[i, j, k].tolist()
            for i, j, k in np.ndindex(probs.shape[:3])}


class ClawOracle:
    """Simulation-only handle answering claw-partner queries; the honest
    simulation learns which legs are claw-free from it alone.

    Built either from trapdoors or from public keys alone, as
    :func:`~bellcert.entcf.public_trapdoor` allows (an ideal key is its own).
    """

    def __init__(self, keys, trapdoors=None):
        self.keys = tuple(keys)
        if trapdoors is None:
            trapdoors = map(entcf.public_trapdoor, self.keys)
        self.trapdoors = tuple(trapdoors)

    def claw_xor(self, leg: int, b: int, x: int, y):
        """``x`` xor its claw partner for the image ``y`` of (b, x); None on a G leg."""
        return entcf.claw_xor(self.trapdoors[leg], self.keys[leg], b, x, y)


class HonestProver:
    """One session on the device whose :func:`answer_table` is ``table`` (the
    noiseless honest device's by default): :meth:`play` runs the four steps."""

    def __init__(self, rng: np.random.Generator, claw_oracle: ClawOracle | None = None,
                 table: dict | None = None):
        self.rng = rng
        self.oracle = claw_oracle
        self.table = table or parse_strategy("honest")[1]  # see answer_table
        self.session_id = 0
        self.keys: tuple[entcf.PublicKey, ...] | None = None
        self.legs: list[dict] = []

    # -- protocol steps ----------------------------------------------------

    def play(self, keys_msg: dict, exchange) -> str:
        """Play the session that ``keys_msg`` opens and return the verdict flag;
        ``exchange(msg)`` delivers a message to the verifier and returns its reply."""
        round_msg = exchange(self.commit(keys_msg))
        if validate_message(round_msg, "round", self.session_id)["round"] == "preimage":
            verdict = exchange(self.preimage_answer())
        else:
            verdict = exchange(self.answers(exchange(self.equations())))
        return validate_message(verdict, "verdict", self.session_id)["flag"]

    def commit(self, keys_msg: dict) -> dict:
        payload = validate_message(keys_msg, "keys")
        self.session_id = keys_msg["session_id"]
        try:
            params = entcf.EntcfParams.from_json(payload["params"])
            self.keys = tuple(entcf.PublicKey.from_json(k, params) for k in payload["keys"])
        except BellcertError as exc:
            raise MalformedMessageError(f"bad keys payload: {exc!r}") from exc
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

    def answers(self, questions_msg: dict) -> dict:
        payload = validate_message(questions_msg, "questions", self.session_id)
        q = (payload["q1"], payload["q2"])
        basis = tuple(int("claw_xor" in leg) for leg in self.legs)  # 1 on an F leg
        targets = {}
        for i, leg in enumerate(self.legs, 1):
            if "claw_xor" in leg:
                targets[f"u{i}"] = (leg["d"] & leg["claw_xor"]).bit_count() & 1
            else:
                targets[f"b{i}"] = leg["b"]
        outcome = _draw(self.table[basis, accepted_pair(basis, targets), q], self.rng)
        return message("answers", self.session_id,
                       {"v1": outcome >> 1, "v2": outcome & 1})


def _draw(probs: list[float], rng: np.random.Generator) -> int:
    """An index drawn from ``probs`` by inverse CDF: the same draw, from the
    same one uniform, as ``rng.choice(len(probs), p=probs)``, without its
    per-call checks (:func:`answer_table` rows are already valid)."""
    cdf = list(accumulate(probs))
    total = cdf[-1]
    return bisect_right([c / total for c in cdf], rng.random())


class ClassicalGuessProver(HonestProver):
    """Commits honestly but sends uniformly random hadamard answers."""

    def answers(self, questions_msg):
        validate_message(questions_msg, "questions", self.session_id)
        return message("answers", self.session_id,
                       {"v1": int(self.rng.integers(2)), "v2": int(self.rng.integers(2))})


STRATEGIES = {  # name -> (class, a builder of the device it plays, or None)
    "honest": (HonestProver, functools.partial(from_honest, 0.0)),
    "no_entangler": (HonestProver, no_entangler),
    "classical_guess": (ClassicalGuessProver, None),
}
_DEPOLARIZED = "honest_depolarized:"  # then p in [0, 1]: plays from_honest(p)


@functools.lru_cache(maxsize=16)
def parse_strategy(name: str) -> tuple[type[HonestProver], dict | None]:
    """The class and :func:`answer_table` of a strategy (a :data:`STRATEGIES`
    name or ``honest_depolarized:<p>``), built once per name; else ConfigurationError."""
    if name in STRATEGIES:
        cls, device = STRATEGIES[name]
        return cls, device and answer_table(device())
    if not name.startswith(_DEPOLARIZED):
        raise ConfigurationError(f"unknown strategy {name!r}")
    try:
        p = float(name[len(_DEPOLARIZED):])
    except ValueError as exc:
        raise ConfigurationError(f"bad depolarizing strength in {name!r}") from exc
    if not 0.0 <= p <= 1.0:
        raise ConfigurationError(f"depolarizing strength {p} outside [0, 1]")
    return HonestProver, answer_table(from_honest(p))


def make_prover(name: str, rng: np.random.Generator,
                claw_oracle: ClawOracle | None = None) -> HonestProver:
    cls, table = parse_strategy(name)
    return cls(rng, claw_oracle, table)
