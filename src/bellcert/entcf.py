"""Keyed claw-free and injective function pairs with trapdoors.

Two families are exposed through one API:

* family ``"F"`` -- a pair (f_0, f_1) of injective functions with identical
  ranges, so every image has exactly one preimage under each branch (a
  "claw").  A trapdoor recovers both preimages and the bit-parity of the
  claw against an arbitrary mask.
* family ``"G"`` -- a pair (g_0, g_1) of injective functions with disjoint
  ranges.  The trapdoor recovers which branch produced an image.

Preimages and equation masks are w-bit integers; ``params.preimage_bits``
gives w.  Each public function checks its arguments and then calls the
key's backend module (:mod:`bellcert.ideal` or :mod:`bellcert.lwe`) from
the one table ``_MODULES``; a backend module holds its math and its key and
image codecs, and imports nothing from here.
"""
from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from . import ideal, lwe
from .errors import (ConfigurationError, FamilyError, InvalidImageError,
                     MalformedMessageError, ValidationError)

FAMILIES = ("F", "G")
_MODULES = {"ideal": ideal, "lwe": lwe}
BACKENDS = tuple(_MODULES)


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
        return {"payload": _MODULES[self.params.backend].payload_to_json(self.payload)}

    @classmethod
    def from_json(cls, d: dict, params: EntcfParams) -> "PublicKey":
        """A key from a wire object, its payload checked against the backend
        of ``params``; anything else raises MalformedMessageError."""
        if set(d) != {"payload"} or not isinstance(d["payload"], dict):
            raise MalformedMessageError("a key is exactly a payload object")
        return cls(params, _MODULES[params.backend].payload_from_json(params, d["payload"]))


@dataclass
class Trapdoor:
    family: str
    params: EntcfParams
    payload: dict


# ---------------------------------------------------------------------------
# public API: check the arguments, then call the key's backend module
# ---------------------------------------------------------------------------

def gen(family: str, params: EntcfParams, rng: np.random.Generator):
    """Sample a keypair; returns ``(PublicKey, Trapdoor)``."""
    if family not in FAMILIES:
        raise FamilyError(f"unknown family {family!r}")
    pk, td = _MODULES[params.backend].gen(family, params, rng)
    return PublicKey(params, pk), Trapdoor(family, params, td)


def eval_sample(pk: PublicKey, b: int, x: int, rng: np.random.Generator):
    """Evaluate branch ``b`` on preimage ``x`` (with fresh noise on lwe)."""
    b = _check_bit(b)
    x = _check_preimage(pk.params, x)
    return _MODULES[pk.params.backend].eval_sample(pk, b, x, rng)


def chk(pk: PublicKey, y, b: int, x: int) -> bool:
    """Publicly check whether (b, x) is a valid preimage of image y."""
    b = _check_bit(b)
    x = _check_preimage(pk.params, x)
    return _MODULES[pk.params.backend].chk(pk, y, b, x)


def invert(td: Trapdoor, pk: PublicKey, b: int, y):
    """Trapdoor inversion of branch ``b``; None when y has no b-preimage."""
    return _MODULES[td.params.backend].invert(td, pk, _check_bit(b), y)


def decode_bit(td: Trapdoor, pk: PublicKey, y) -> int:
    """For a G-family image, recover which branch produced it."""
    if td.family != "G":
        raise FamilyError("branch decoding is defined for family G only")
    b = _MODULES[td.params.backend].decode_bit(td, pk, y)
    if b is None:
        raise InvalidImageError("image lies outside both branch ranges")
    return b


def decode_equation(td: Trapdoor, pk: PublicKey, y, d: int):
    """Parity d . (x0 xor x1) of the claw of an F-family image.

    Returns None when y is not a valid image, and for the all-zero mask,
    whose parity says nothing about the claw.
    """
    if td.family != "F":
        raise FamilyError("equation decoding is defined for family F only")
    d = _check_preimage(td.params, d)
    if d == 0:
        return None
    claw = _MODULES[td.params.backend].claw(td, pk, y)
    return None if claw is None else (d & claw).bit_count() & 1


def claw_xor(td: Trapdoor, pk: PublicKey, b: int, x: int, y):
    """``x`` xor its claw partner for the image ``y`` of (b, x); None on a G key."""
    if td.family != "F":
        return None
    return _MODULES[td.params.backend].claw_xor(td, pk, b, x, y)


def public_trapdoor(pk: PublicKey) -> Trapdoor:
    """The trapdoor in a public key: an ideal key's own; lwe has none (ConfigurationError)."""
    family, payload = _MODULES[pk.params.backend].public_trapdoor(pk.payload)
    return Trapdoor(family, pk.params, payload)


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


def image_to_wire(params: EntcfParams, y) -> str:
    return _MODULES[params.backend].image_to_bytes(params, y).hex()


def _canonical_hex(s: str) -> bytes:
    """Decode lower-case hex without separators; reject any other spelling."""
    raw = bytes.fromhex(s)
    if raw.hex() != s:
        raise ValidationError("hex field is not canonical lower-case hex")
    return raw


def image_from_wire(params: EntcfParams, s: str):
    return _MODULES[params.backend].image_from_bytes(params, _canonical_hex(s))


def bits_to_wire(params: EntcfParams, x: int) -> str:
    nbytes = (params.preimage_bits + 7) // 8
    return _check_preimage(params, x).to_bytes(nbytes, "little").hex()


def bits_from_wire(params: EntcfParams, s: str) -> int:
    raw = _canonical_hex(s)
    if len(raw) != (params.preimage_bits + 7) // 8:
        raise ValidationError("bit string has wrong length")
    return _check_preimage(params, int.from_bytes(raw, "little"))
