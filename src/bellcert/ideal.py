"""Ideal backend: a keyed pseudorandom permutation over 2w bits (w = ``ideal_w``).

Branch b of an F key maps x to the permutation of ``x ^ (b * delta)``, and
of a G key to that of ``(b << w) | x``.  The claw shift ``delta`` sits in
the public key, so a key is its own trapdoor and every check is exact.
This backend makes no hardness claim at all; it exists so that the
protocol can be exercised at scale with zero decoding error.  Decoding an
image takes one unpermutation, and the claw oracle none.
"""
from __future__ import annotations

import hashlib
import re

from .errors import MalformedMessageError, ValidationError

# Round ``rnd`` XORs into one half the seed-keyed blake2b of ``rnd`` and the other
# half; a pass keys one hash and copies it per round, the digest of keying anew.
_FEISTEL_ROUNDS = 4
_SEED_HEX = re.compile("[0-9a-f]{64}")


def _permute(seed: bytes, w: int, value: int) -> int:
    keyed, mask, size = hashlib.blake2b(key=seed, digest_size=16), (1 << w) - 1, (w + 7) // 8
    left, right = value >> w, value & mask
    for rnd in range(_FEISTEL_ROUNDS):
        h = keyed.copy()
        h.update(bytes([rnd]) + right.to_bytes(size, "little"))
        left, right = right, left ^ (int.from_bytes(h.digest(), "little") & mask)
    return (left << w) | right


def _unpermute(seed: bytes, w: int, value: int) -> int:
    keyed, mask, size = hashlib.blake2b(key=seed, digest_size=16), (1 << w) - 1, (w + 7) // 8
    left, right = value >> w, value & mask
    for rnd in reversed(range(_FEISTEL_ROUNDS)):
        h = keyed.copy()
        h.update(bytes([rnd]) + left.to_bytes(size, "little"))
        left, right = right ^ (int.from_bytes(h.digest(), "little") & mask), left
    return (left << w) | right


def gen(family: str, params, rng):
    """A new key's public and trapdoor payloads: equal, ``seed``, ``w`` and F's ``delta``."""
    w = params.ideal_w
    payload = {"seed": rng.bytes(32), "w": w}
    if family == "F":
        # The claw shift sits in the public key: both branches must be
        # publicly evaluable and checkable, so this mock trades away all
        # hiding in exchange for exactness.
        payload["delta"] = int(rng.integers(1, 1 << w))
    return payload, dict(payload)


def public_trapdoor(payload: dict) -> tuple[str, dict]:
    """An ideal key is its own trapdoor, and an F key the one carrying ``delta``."""
    return "F" if "delta" in payload else "G", dict(payload)


def eval_sample(pk, b: int, x: int, rng=None) -> int:
    """Branch ``b`` at ``x``; the evaluation is exact, so ``rng`` goes unused."""
    w = pk.params.ideal_w
    if "delta" in pk.payload:
        return _permute(pk.payload["seed"], w, x ^ (b * pk.payload["delta"]))
    return _permute(pk.payload["seed"], w, (b << w) | x)


def chk(pk, y, b: int, x: int) -> bool:
    return eval_sample(pk, b, x) == int(y)


def invert(td, pk, b: int, y):
    """Unpermuting ``y`` gives ``x0`` of an F image (below ``2**w``), ``(b << w) | x`` on G."""
    w = td.params.ideal_w
    z = _unpermute(td.payload["seed"], w, int(y))
    if td.family == "F":
        return None if z >> w else z ^ (b * td.payload["delta"])
    return z & ((1 << w) - 1) if z >> w == b else None


def decode_bit(td, pk, y):
    """The branch ``z >> w`` of a G image's unpermutation ``z``; None past 1."""
    b = _unpermute(td.payload["seed"], td.params.ideal_w, int(y)) >> td.params.ideal_w
    return b if b < 2 else None


def claw(td, pk, y):
    """The key's ``delta`` when ``y`` is an F image, else None."""
    if _unpermute(td.payload["seed"], td.params.ideal_w, int(y)) >> td.params.ideal_w:
        return None
    return td.payload["delta"]


def claw_xor(td, pk, b: int, x: int, y) -> int:
    """The key's ``delta``: every image's two preimages differ by it."""
    return td.payload["delta"]


def payload_to_json(payload: dict) -> dict:
    return {**payload, "seed": {"__hex__": payload["seed"].hex()}}


def payload_from_json(params, payload: dict) -> dict:
    """``seed`` as 32 bytes of canonical hex, ``w`` equal to ``ideal_w`` and,
    on an F key, ``delta`` in [1, 2**w); anything else is malformed."""
    if set(payload) - {"delta"} != {"seed", "w"}:
        raise MalformedMessageError(f"bad ideal key fields {list(payload)}")
    seed, w = payload["seed"], payload["w"]
    seed = seed.get("__hex__") if isinstance(seed, dict) and len(seed) == 1 else None
    if type(seed) is not str or not _SEED_HEX.fullmatch(seed):
        raise MalformedMessageError("ideal key seed is not a __hex__ object of 32 "
                                    "bytes of canonical hex")
    if type(w) is not int or w != params.ideal_w:
        raise MalformedMessageError(f"ideal key width {w!r} is not ideal_w = {params.ideal_w}")
    out = {"seed": bytes.fromhex(seed), "w": w}
    if "delta" in payload:
        delta = payload["delta"]
        if type(delta) is not int or delta < 1 or delta.bit_length() > w:
            raise MalformedMessageError(f"ideal key delta outside [1, 2**{w})")
        out["delta"] = delta
    return out


def image_to_bytes(params, y) -> bytes:
    return int(y).to_bytes((2 * params.ideal_w + 8) // 8, "little")


def image_from_bytes(params, raw: bytes) -> int:
    y = int.from_bytes(raw, "little")
    if len(raw) != (2 * params.ideal_w + 8) // 8 or y >> (2 * params.ideal_w):
        raise ValidationError("ideal image has wrong length or exceeds 2w bits")
    return y
