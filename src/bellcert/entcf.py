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
  small enough that trapdoor decoding never fails at the defaults.
"""
from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError, FamilyError, InvalidImageError, ValidationError

FAMILIES = ("F", "G")
BACKENDS = ("ideal", "lwe")


@dataclass(frozen=True)
class EntcfParams:
    """Parameters shared by every key of one deployment.

    For the ideal backend only ``ideal_w`` matters.  The lattice backend
    derives its preimage width from ``lwe_n`` and ``lwe_q``.
    """
    backend: str = "ideal"
    ideal_w: int = 32
    lwe_n: int = 4
    lwe_q: int = 2 ** 16
    lwe_m: int = 80
    lwe_sigma: float = 1.6
    lwe_eval_bound: int = 16      # per-coordinate bound on fresh evaluation noise
    lwe_check_bound: int = 2048   # per-coordinate acceptance bound in chk

    def __post_init__(self):
        if self.backend not in BACKENDS:
            raise ConfigurationError(f"unknown backend {self.backend!r}")
        if self.ideal_w < 4:
            raise ConfigurationError("ideal_w must be at least 4")
        if self.lwe_q & (self.lwe_q - 1):
            raise ConfigurationError("lwe_q must be a power of two")
        k = self.lwe_q.bit_length() - 1
        if self.lwe_m <= self.lwe_n * k:
            raise ConfigurationError(
                f"lwe_m={self.lwe_m} must exceed lwe_n*log2(q)={self.lwe_n * k} "
                "or the public matrix carries no hidden rows")
        if not (0 < self.lwe_eval_bound < self.lwe_check_bound):
            raise ConfigurationError("need 0 < lwe_eval_bound < lwe_check_bound")
        if 2 * self.lwe_check_bound >= self.lwe_q // (2 * 4):
            # decoding needs check_bound + eval slack well below q/8
            raise ConfigurationError("lwe_check_bound too large for reliable decoding")

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
        return cls(**{k: d[k] for k in cls.__dataclass_fields__ if k in d})


@dataclass
class PublicKey:
    family: str
    params: EntcfParams
    payload: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        return {"family": self.family, "payload": _payload_to_json(self.payload)}

    @classmethod
    def from_json(cls, d: dict, params: EntcfParams) -> "PublicKey":
        if d.get("family") not in FAMILIES:
            raise ValidationError(f"bad key family {d.get('family')!r}")
        return cls(d["family"], params, _payload_from_json(d["payload"]))


@dataclass
class Trapdoor:
    family: str
    params: EntcfParams
    payload: dict = field(default_factory=dict)


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


def _payload_from_json(d: dict) -> dict:
    out = {}
    for k, v in d.items():
        if isinstance(v, dict) and "__array__" in v:
            out[k] = np.array(v["__array__"], dtype=np.int64)
        elif isinstance(v, dict) and "__hex__" in v:
            out[k] = bytes.fromhex(v["__hex__"])
        else:
            out[k] = v
    return out


# ---------------------------------------------------------------------------
# ideal backend: a small keyed Feistel permutation over 2w bits
# ---------------------------------------------------------------------------

_FEISTEL_ROUNDS = 4


def _round_fn(seed: bytes, rnd: int, half: int, value: int) -> int:
    data = bytes([rnd]) + value.to_bytes((half + 7) // 8, "little")
    digest = hashlib.blake2b(data, key=seed, digest_size=16).digest()
    return int.from_bytes(digest, "little") & ((1 << half) - 1)


def _permute(seed: bytes, w: int, value: int) -> int:
    left, right = value >> w, value & ((1 << w) - 1)
    for rnd in range(_FEISTEL_ROUNDS):
        left, right = right, left ^ _round_fn(seed, rnd, w, right)
    return (left << w) | right


def _unpermute(seed: bytes, w: int, value: int) -> int:
    left, right = value >> w, value & ((1 << w) - 1)
    for rnd in reversed(range(_FEISTEL_ROUNDS)):
        left, right = right ^ _round_fn(seed, rnd, w, left), left
    return (left << w) | right


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
    pk = PublicKey(family, params, dict(payload))
    td = Trapdoor(family, params, dict(payload))
    return pk, td


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
    if pk.family == "F":
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
        z = _unpermute(td.payload["seed"], w, int(y))
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
    """For a G-family image, recover which branch produced it."""
    if td.family != "G":
        raise FamilyError("branch decoding is defined for family G only")
    for b in (0, 1):
        if invert(td, pk, b, y) is not None:
            return b
    raise InvalidImageError("image lies outside both branch ranges")


@dataclass(frozen=True)
class EquationDecoding:
    value: int
    degenerate: bool   # true when the mask is all-zero (trivially satisfied)


def decode_equation(td: Trapdoor, pk: PublicKey, y, d: int):
    """Parity d . (x0 xor x1) of the claw of an F-family image.

    Returns None when y is not a valid image; flags the all-zero mask as
    degenerate so callers can decide whether to accept it.
    """
    if td.family != "F":
        raise FamilyError("equation decoding is defined for family F only")
    d = _check_preimage(td.params, d)
    x0 = invert(td, pk, 0, y)
    x1 = invert(td, pk, 1, y)
    if x0 is None or x1 is None:
        return None
    value = (d & (x0 ^ x1)).bit_count() & 1
    return EquationDecoding(value=value, degenerate=(d == 0))


def random_preimage(params: EntcfParams, rng: np.random.Generator) -> int:
    """Uniform element of the w-bit preimage domain (w may exceed 63)."""
    w = params.preimage_bits
    out = 0
    for shift in range(0, w, 32):
        out |= int(rng.integers(1 << min(32, w - shift))) << shift
    return out


def _check_bit(b) -> int:
    b = int(b)
    if b not in (0, 1):
        raise ValidationError(f"branch bit must be 0 or 1, got {b}")
    return b


def _check_preimage(params: EntcfParams, x) -> int:
    x = int(x)
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
    return b"".join(int(v).to_bytes(4, "little") for v in vec).hex()


def image_from_wire(params: EntcfParams, s: str):
    raw = bytes.fromhex(s)
    if params.backend == "ideal":
        y = int.from_bytes(raw, "little")
        if len(raw) != (2 * params.ideal_w + 8) // 8 or y >> (2 * params.ideal_w):
            raise ValidationError("ideal image has wrong length or exceeds 2w bits")
        return y
    if len(raw) % 4 or len(raw) // 4 != params.lwe_m:
        raise ValidationError("lattice image has wrong length")
    return np.array([int.from_bytes(raw[i:i + 4], "little") for i in range(0, len(raw), 4)],
                    dtype=np.int64)


def bits_to_wire(params: EntcfParams, x: int) -> str:
    nbytes = (params.preimage_bits + 7) // 8
    return _check_preimage(params, x).to_bytes(nbytes, "little").hex()


def bits_from_wire(params: EntcfParams, s: str) -> int:
    return _check_preimage(params, int.from_bytes(bytes.fromhex(s), "little"))
