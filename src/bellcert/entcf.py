"""Keyed claw-free and injective function pairs with trapdoors.

Two families are exposed through one API:

* family ``"F"`` -- a pair (f_0, f_1) of injective functions with identical
  ranges, so every image has exactly one preimage under each branch (a
  "claw").  A trapdoor recovers both preimages and the bit-parity of the
  claw against an arbitrary mask.
* family ``"G"`` -- a pair (g_0, g_1) of injective functions with disjoint
  ranges.  The trapdoor recovers which branch produced an image.

Preimages and equation masks are w-bit integers; ``params.preimage_bits``
gives w.  Two interchangeable backends exist:

* ``"ideal"`` -- a keyed pseudorandom permutation over 2w bits, with the
  claw shift placed directly in the public key.  Checking and evaluation
  are exact and deterministic.  This backend makes no hardness claim at
  all (the public key trivially reveals the claw); it exists so that the
  protocol can be exercised at scale with zero decoding error.
* ``"lwe"`` -- a toy learning-with-errors construction at desk-scale
  parameters (see :mod:`bellcert.lwe`).  Also not secure; errors are kept
  small enough that trapdoor decoding never fails at its fixed sizes.
"""
from __future__ import annotations

import array
import hashlib
import operator
import re
from dataclasses import dataclass
from itertools import chain
from typing import ClassVar

import numpy as np

from .errors import (ConfigurationError, FamilyError, InvalidImageError,
                     MalformedMessageError, ValidationError)

FAMILIES = ("F", "G")
BACKENDS = ("ideal", "lwe")


@dataclass(frozen=True)
class EntcfParams:
    """One deployment: its backend, at the sizes fixed for every deployment.

    The ideal backend reads only ``ideal_w``; the lattice backend derives its
    preimage width from ``lwe_n`` and ``lwe_q``.  The sizes are class
    constants, so a size keyword raises TypeError.
    """
    backend: str = "ideal"
    ideal_w: ClassVar[int] = 32
    lwe_n: ClassVar[int] = 4
    lwe_q: ClassVar[int] = 2 ** 16
    lwe_m: ClassVar[int] = 80
    lwe_sigma: ClassVar[float] = 1.6
    lwe_eval_bound: ClassVar[int] = 16     # per-coordinate bound on fresh evaluation noise
    lwe_check_bound: ClassVar[int] = 2048  # per-coordinate acceptance bound in chk

    def __post_init__(self):
        if self.backend not in BACKENDS:
            raise ConfigurationError(f"unknown backend {self.backend!r}")

    @property
    def gadget_bits(self) -> int:
        return self.lwe_q.bit_length() - 1

    @property
    def preimage_bits(self) -> int:
        if self.backend == "ideal":
            return self.ideal_w
        return self.lwe_n * self.gadget_bits

    def to_json(self) -> dict:
        return {
            "backend": self.backend, "ideal_w": self.ideal_w,
            "lwe_n": self.lwe_n, "lwe_q": self.lwe_q, "lwe_m": self.lwe_m,
            "lwe_sigma": self.lwe_sigma, "lwe_eval_bound": self.lwe_eval_bound,
            "lwe_check_bound": self.lwe_check_bound,
        }

    @classmethod
    def from_json(cls, d: dict) -> "EntcfParams":
        """The deployment whose ``to_json`` the wire object ``d`` is, value and
        JSON type alike; anything else raises MalformedMessageError naming the
        first field that differs, is missing or is extra."""
        if not isinstance(d, dict):
            raise MalformedMessageError("params are not an object")
        params = cls(d["backend"]) if d.get("backend") in BACKENDS else cls()
        want, got = _typed(params.to_json()), _typed(d)
        if got != want:
            bad = next(k for k in [*want, *got] if got.get(k) != want.get(k))
            raise MalformedMessageError(f"params field {bad!r} is not the deployment's")
        return params


def _typed(d: dict) -> dict:
    """Each value with its type, so that ``True`` and ``32.0`` differ from ``1`` and ``32``."""
    return {k: (type(v), v) for k, v in d.items()}


@dataclass
class PublicKey:
    """A key as the prover sees it: no family, bar an ideal F key's ``delta``."""
    params: EntcfParams
    payload: dict

    def to_json(self) -> dict:
        return {"payload": _payload_to_json(self.payload)}

    @classmethod
    def from_json(cls, d: dict, params: EntcfParams) -> "PublicKey":
        """A key from a wire object, its payload checked against the backend
        of ``params``; anything else raises MalformedMessageError."""
        if set(d) != {"payload"} or not isinstance(d["payload"], dict):
            raise MalformedMessageError("a key is exactly a payload object")
        if params.backend == "ideal":
            return cls(params, _ideal_payload_from_json(params, d["payload"]))
        return cls(params, _lwe_payload_from_json(params, d["payload"]))


@dataclass
class Trapdoor:
    family: str
    params: EntcfParams
    payload: dict


def _payload_to_json(payload: dict) -> dict:
    out = {}
    for k, v in payload.items():
        if isinstance(v, np.ndarray):
            out[k] = {"__array__": v.tolist()}
        elif isinstance(v, bytes):
            out[k] = {"__hex__": v.hex()}
        else:
            out[k] = v
    return out


def _wrapped(payload: dict, key: str, tag: str):
    """The value under ``payload[key][tag]``, as ``_payload_to_json`` wraps it."""
    v = payload[key]
    if not (isinstance(v, dict) and len(v) == 1 and tag in v):
        raise MalformedMessageError(f"key field {key!r} is not a {tag} object")
    return v[tag]


_SEED_HEX = re.compile("[0-9a-f]{64}")


def ideal_family(payload: dict) -> str:
    """The family of an ideal key: an F payload is the one carrying ``delta``."""
    return "F" if "delta" in payload else "G"


def _ideal_payload_from_json(params: EntcfParams, payload: dict) -> dict:
    if set(payload) - {"delta"} != {"seed", "w"}:
        raise MalformedMessageError(f"bad ideal key fields {list(payload)}")
    seed, w = _wrapped(payload, "seed", "__hex__"), payload["w"]
    if type(seed) is not str or not _SEED_HEX.fullmatch(seed):
        raise MalformedMessageError("ideal key seed is not 32 bytes of canonical hex")
    if type(w) is not int or w != params.ideal_w:
        raise MalformedMessageError(f"ideal key width {w!r} is not ideal_w = {params.ideal_w}")
    out = {"seed": bytes.fromhex(seed), "w": w}
    if ideal_family(payload) == "F":
        delta = payload["delta"]
        if type(delta) is not int or delta < 1 or delta.bit_length() > w:
            raise MalformedMessageError(f"ideal key delta outside [1, 2**{w})")
        out["delta"] = delta
    return out


def _lwe_payload_from_json(params: EntcfParams, payload: dict) -> dict:
    """``a`` (m×n) and ``u`` (m) of plain ints in [0, q), checked in one pass."""
    if set(payload) != {"a", "u"}:
        raise MalformedMessageError(f"bad lattice key fields {list(payload)}")
    m, n, q = params.lwe_m, params.lwe_n, params.lwe_q
    a, u = _wrapped(payload, "a", "__array__"), _wrapped(payload, "u", "__array__")
    if not (type(a) is list and len(a) == m and type(u) is list and len(u) == m):
        raise MalformedMessageError(f"lattice key needs {m} rows in a and {m} entries in u")
    try:
        if set(map(len, a)) != {n}:
            raise MalformedMessageError(f"lattice key rows of a need {n} entries")
        flat = list(chain(chain.from_iterable(a), u))
        # array("q") takes ints (and bools) only, within int64
        arr = np.frombuffer(array.array("q", flat), np.int64)
    except (TypeError, OverflowError) as exc:
        raise MalformedMessageError(f"lattice key entries are not ints: {exc}") from exc
    lo, hi = arr.min(), arr.max()
    if lo < 0 or hi >= q:
        raise MalformedMessageError("lattice key entry outside [0, lwe_q)")
    if lo <= 1 and any(type(flat[i]) is not int for i in np.flatnonzero(arr <= 1).tolist()):
        raise MalformedMessageError("lattice key entries must be plain ints, not true/false")
    return {"a": arr[:m * n].reshape(m, n), "u": arr[m * n:]}


# ---------------------------------------------------------------------------
# ideal backend: a small keyed Feistel permutation over 2w bits
# ---------------------------------------------------------------------------

# Round ``rnd`` XORs into one half the seed-keyed blake2b of ``rnd`` and the other
# half; a pass keys one hash and copies it per round, the digest of keying anew.
_FEISTEL_ROUNDS = 4


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


def _ideal_unpermute(td: Trapdoor, y) -> int:
    """The padded preimage of an ideal image: ``(b << w) | x`` on a G key,
    ``x0`` (its branch-0 preimage) on an F key when ``y`` is an image."""
    return _unpermute(td.payload["seed"], td.params.ideal_w, int(y))


# ---------------------------------------------------------------------------
# public API, dispatching on backend
# ---------------------------------------------------------------------------

def gen(family: str, params: EntcfParams, rng: np.random.Generator):
    """Sample a keypair; returns ``(PublicKey, Trapdoor)``."""
    if family not in FAMILIES:
        raise FamilyError(f"unknown family {family!r}")
    if params.backend == "ideal":
        return _ideal_gen(family, params, rng)
    from . import lwe
    return lwe.gen(family, params, rng)


def _ideal_gen(family: str, params: EntcfParams, rng: np.random.Generator):
    w = params.ideal_w
    seed = rng.bytes(32)
    payload = {"seed": seed, "w": w}
    if family == "F":
        # The claw shift sits in the public key: both branches must be
        # publicly evaluable and checkable, so this mock trades away all
        # hiding in exchange for exactness.
        delta = int(rng.integers(1, 1 << w))
        payload["delta"] = delta
    return PublicKey(params, dict(payload)), Trapdoor(family, params, dict(payload))


def eval_sample(pk: PublicKey, b: int, x: int, rng: np.random.Generator):
    """Evaluate branch ``b`` on preimage ``x`` (with fresh noise on lwe)."""
    b = _check_bit(b)
    x = _check_preimage(pk.params, x)
    if pk.params.backend == "ideal":
        return _ideal_eval(pk, b, x)
    from . import lwe
    return lwe.eval_sample(pk, b, x, rng)


def _ideal_eval(pk: PublicKey, b: int, x: int) -> int:
    w = pk.params.ideal_w
    if ideal_family(pk.payload) == "F":
        return _permute(pk.payload["seed"], w, x ^ (b * pk.payload["delta"]))
    return _permute(pk.payload["seed"], w, (b << w) | x)


def chk(pk: PublicKey, y, b: int, x: int) -> bool:
    """Publicly check whether (b, x) is a valid preimage of image y."""
    b = _check_bit(b)
    x = _check_preimage(pk.params, x)
    if pk.params.backend == "ideal":
        return _ideal_eval(pk, b, x) == int(y)
    from . import lwe
    return lwe.chk(pk, y, b, x)


def invert(td: Trapdoor, pk: PublicKey, b: int, y):
    """Trapdoor inversion of branch ``b``; None when y has no b-preimage."""
    b = _check_bit(b)
    if td.params.backend == "ideal":
        w = td.params.ideal_w
        z = _ideal_unpermute(td, y)
        if td.family == "F":
            if z >> w:
                return None
            return z ^ (b * td.payload["delta"])
        if z >> (w + 1):
            return None
        if (z >> w) != b:
            return None
        return z & ((1 << w) - 1)
    from . import lwe
    return lwe.invert(td, pk, b, y)


def decode_bit(td: Trapdoor, pk: PublicKey, y) -> int:
    """For a G-family image, recover which branch produced it.

    On the ideal backend one unpermutation ``z`` decides it: the branch is
    ``z >> w``, and ``z >> (w + 1)`` nonzero means no branch produced ``y``.
    """
    if td.family != "G":
        raise FamilyError("branch decoding is defined for family G only")
    if td.params.backend == "ideal":
        b = _ideal_unpermute(td, y) >> td.params.ideal_w
        if b in (0, 1):
            return b
    else:
        for b in (0, 1):
            if invert(td, pk, b, y) is not None:
                return b
    raise InvalidImageError("image lies outside both branch ranges")


def decode_equation(td: Trapdoor, pk: PublicKey, y, d: int):
    """Parity d . (x0 xor x1) of the claw of an F-family image.

    Returns None when y is not a valid image, and for the all-zero mask,
    whose parity says nothing about the claw.  On the ideal backend every
    claw differs by the key's ``delta``, so one unpermutation only tells
    whether ``y`` is an image (its value below ``2**w``).
    """
    if td.family != "F":
        raise FamilyError("equation decoding is defined for family F only")
    d = _check_preimage(td.params, d)
    if d == 0:
        return None
    if td.params.backend == "ideal":
        if _ideal_unpermute(td, y) >> td.params.ideal_w:
            return None
        claw = td.payload["delta"]
    else:
        x0 = invert(td, pk, 0, y)
        x1 = invert(td, pk, 1, y)
        if x0 is None or x1 is None:
            return None
        claw = x0 ^ x1
    return (d & claw).bit_count() & 1


def random_preimage(params: EntcfParams, rng: np.random.Generator) -> int:
    """Uniform element of the w-bit preimage domain (w may exceed 63)."""
    w = params.preimage_bits
    out = 0
    for shift in range(0, w, 32):
        out |= int(rng.integers(1 << min(32, w - shift))) << shift
    return out


def _as_int(v, what: str) -> int:
    """``v`` as a plain int if it is an integer (numpy's too), never a float or string."""
    try:
        return operator.index(v)
    except TypeError as exc:
        raise ValidationError(f"{what} {v!r} is not an integer") from exc


def _check_bit(b) -> int:
    b = _as_int(b, "branch bit")
    if b not in (0, 1):
        raise ValidationError(f"branch bit must be 0 or 1, got {b}")
    return b


def _check_preimage(params: EntcfParams, x) -> int:
    x = _as_int(x, "preimage")
    if not 0 <= x < (1 << params.preimage_bits):
        raise ValidationError(f"preimage {x} outside {params.preimage_bits}-bit domain")
    return x


# ---------------------------------------------------------------------------
# wire helpers: images and preimages as hex strings
# ---------------------------------------------------------------------------

def image_to_wire(params: EntcfParams, y) -> str:
    if params.backend == "ideal":
        nbytes = (2 * params.ideal_w + 8) // 8
        return int(y).to_bytes(nbytes, "little").hex()
    vec = np.asarray(y, dtype=np.int64)
    if vec.min() < 0 or vec.max() >= 1 << 32:
        raise ValidationError("lattice image coordinate outside [0, 2**32)")
    return vec.astype("<u4").tobytes().hex()


def _canonical_hex(s: str) -> bytes:
    """Decode lower-case hex without separators; reject any other spelling."""
    raw = bytes.fromhex(s)
    if raw.hex() != s:
        raise ValidationError("hex field is not canonical lower-case hex")
    return raw


def image_from_wire(params: EntcfParams, s: str):
    raw = _canonical_hex(s)
    if params.backend == "ideal":
        y = int.from_bytes(raw, "little")
        if len(raw) != (2 * params.ideal_w + 8) // 8 or y >> (2 * params.ideal_w):
            raise ValidationError("ideal image has wrong length or exceeds 2w bits")
        return y
    if len(raw) != 4 * params.lwe_m:
        raise ValidationError("lattice image has wrong length")
    y = np.frombuffer(raw, "<u4").astype(np.int64)
    if y.max() >= params.lwe_q:
        raise ValidationError("lattice image coordinate not below lwe_q")
    return y


def bits_to_wire(params: EntcfParams, x: int) -> str:
    nbytes = (params.preimage_bits + 7) // 8
    return _check_preimage(params, x).to_bytes(nbytes, "little").hex()


def bits_from_wire(params: EntcfParams, s: str) -> int:
    raw = _canonical_hex(s)
    if len(raw) != (params.preimage_bits + 7) // 8:
        raise ValidationError("bit string has wrong length")
    return _check_preimage(params, int.from_bytes(raw, "little"))
