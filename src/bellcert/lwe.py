"""Toy lattice backend for the claw-free / injective function pairs.

A desk-scale learning-with-errors construction: images are noisy lattice
points ``y = A x + b u + e (mod q)``.  For family F the shift ``u`` is
itself a noisy encoding of a secret ``s``, so the two branches share the
claw ``x1 = x0 - s``; for family G the shift is uniform and the branch
ranges are disjoint (up to negligible chance at these noise levels).

The public matrix hides a gadget: ``A = [A_top; G - R A_top]`` with small
``R``.  Applying ``R`` to the top rows of an image cancels the uniform
part and leaves a noisy gadget encoding ``G x + e'``, which decodes
bit-by-bit.  Parameters are sized so the accumulated noise stays far
inside the decoding radius; nothing here is remotely secure, and it is
not meant to be.  Decoding an image inverts both branches.

The gadget ``G`` depends only on ``(n, k)`` and is built once per pair as
a read-only array.  The bit-by-bit decode in :func:`_gadget_decode` runs
over plain Python ints: its n·k steps each depend on the bits already
found, so numpy can only add per-element overhead there (see its
docstring for the measurements).
"""
from __future__ import annotations

import array
import functools
from itertools import chain

import numpy as np

from .errors import (AbortSessionError, ConfigurationError, InvalidImageError,
                     MalformedMessageError, ValidationError)


@functools.lru_cache(maxsize=8)
def _gadget(n: int, k: int) -> np.ndarray:
    """The (n·k)×n gadget, ``2**j`` at row ``i*k + j`` of column i; read-only,
    as every key of a parameter set shares it."""
    g = np.kron(np.eye(n, dtype=np.int64), (1 << np.arange(k, dtype=np.int64))[:, None])
    g.setflags(write=False)
    return g


def _sample_noise(params, rng: np.random.Generator, size: int) -> np.ndarray:
    """Rounded-gaussian noise, rejection-truncated to the evaluation bound."""
    parts = []
    while size:
        cand = np.rint(rng.normal(0.0, params.lwe_sigma, size)).astype(np.int64)
        keep = cand[np.abs(cand) <= params.lwe_eval_bound]
        parts.append(keep)
        size -= keep.size
    return parts[0] if len(parts) == 1 else np.concatenate(parts)


def _int_to_vec(x: int, n: int, k: int) -> np.ndarray:
    mask = (1 << k) - 1
    return np.array([(x >> (i * k)) & mask for i in range(n)], dtype=np.int64)


def gen(family: str, params, rng: np.random.Generator):
    """A new key's public payload ``a``, ``u`` and trapdoor payload ``r`` (``r``, ``s`` on F)."""
    n, q, m, k = params.lwe_n, params.lwe_q, params.lwe_m, params.gadget_bits
    mbar = m - n * k
    a_top = rng.integers(0, q, size=(mbar, n), dtype=np.int64)
    r = rng.integers(-1, 2, size=(n * k, mbar), dtype=np.int64)
    a = np.concatenate((a_top, (_gadget(n, k) - r @ a_top) % q))
    if family == "F":
        s = rng.integers(0, q, size=n, dtype=np.int64)
        while not s.any():
            s = rng.integers(0, q, size=n, dtype=np.int64)
        u = (a @ s + _sample_noise(params, rng, m)) % q
        td_payload = {"r": r, "s": s}
    else:
        u = rng.integers(0, q, size=m, dtype=np.int64)
        td_payload = {"r": r}
    return {"a": a, "u": u}, td_payload


def eval_sample(pk, b: int, x: int, rng: np.random.Generator) -> np.ndarray:
    params = pk.params
    xv = _int_to_vec(x, params.lwe_n, params.gadget_bits)
    y = pk.payload["a"] @ xv + _sample_noise(params, rng, params.lwe_m)
    if b:
        y += pk.payload["u"]
    return y % params.lwe_q


def chk(pk, y, b: int, x: int) -> bool:
    """Whether ``y - A x - b u``, centred mod q, is within the check bound
    on every coordinate."""
    params = pk.params
    y = np.asarray(y, dtype=np.int64)
    if y.shape != (params.lwe_m,):
        return False
    bound = params.lwe_check_bound
    resid = y - pk.payload["a"] @ _int_to_vec(x, params.lwe_n, params.gadget_bits)
    if b:
        resid -= pk.payload["u"]
    # with 2*bound < q, a centred value lies in [-bound, bound] exactly
    # when adding bound maps it into [0, 2*bound] mod q
    return bool(((resid + bound) % params.lwe_q).max() <= 2 * bound)


def _gadget_decode(v: np.ndarray, n: int, k: int, q: int) -> int:
    """Recover x from a noisy G x (mod q), least-significant bit first.

    Bit j of coordinate i is read from row ``i*k + k-1-j``, once the bits
    below it are subtracted: it is 1 when the rest lies in [q/4, 3q/4).
    ``v`` is converted to plain ints once and the loop never touches
    numpy.  At the fixed sizes (n = 4, k = 16), on a shared 2-core
    x86 host with Python 3.11 and numpy 2.4, this takes 14–20 µs per
    call, against 56 µs when each step indexed numpy scalars.  A numpy
    version running the k steps over all n coordinates at once measured
    135–175 µs: each step then pays numpy's per-call overhead on arrays
    of only n elements.
    """
    vals = v.tolist()
    lo, hi = q // 4, 3 * q // 4
    x = 0
    for i in range(n):
        coord = 0
        for j in range(k):
            shift = k - 1 - j
            if lo <= (vals[i * k + shift] - (coord << shift)) % q < hi:
                coord |= 1 << j
        x |= coord << (i * k)
    return x


def invert(td, pk, b: int, y):
    params = td.params
    y = np.asarray(y, dtype=np.int64)
    if y.shape != (params.lwe_m,):
        raise InvalidImageError("lattice image has wrong shape")
    n, q, k = params.lwe_n, params.lwe_q, params.gadget_bits
    mbar = params.lwe_m - n * k
    target = y - pk.payload["u"] if b else y  # reduced mod q with v below
    v = (target[mbar:] + td.payload["r"] @ target[:mbar]) % q
    x = _gadget_decode(v, n, k, q)
    if not chk(pk, y, b, x):
        return None
    return x


def decode_bit(td, pk, y):
    """The first branch that inverts ``y``; None when neither does."""
    return next((b for b in (0, 1) if invert(td, pk, b, y) is not None), None)


def claw(td, pk, y):
    """``x0 ^ x1`` of an F image, when both branches invert it; else None."""
    x0, x1 = invert(td, pk, 0, y), invert(td, pk, 1, y)
    if x0 is None or x1 is None:
        return None
    return x0 ^ x1


def claw_xor(td, pk, b: int, x: int, y) -> int:
    """``x`` xor its partner, the inversion of ``y`` on the other branch."""
    partner = invert(td, pk, 1 - b, y)
    if partner is None:
        raise AbortSessionError("claw oracle failed to invert a fresh image")
    return x ^ partner


def public_trapdoor(payload: dict):
    raise ConfigurationError("claw oracle needs trapdoors on non-ideal backends")


def payload_to_json(payload: dict) -> dict:
    return {k: {"__array__": v.tolist()} for k, v in payload.items()}


def payload_from_json(params, payload: dict) -> dict:
    """``a`` (m×n) and ``u`` (m) of plain ints in [0, q), checked in one pass."""
    if set(payload) != {"a", "u"}:
        raise MalformedMessageError(f"bad lattice key fields {list(payload)}")
    m, n, q = params.lwe_m, params.lwe_n, params.lwe_q
    a, u = (v.get("__array__") if isinstance(v, dict) and len(v) == 1 else None
            for v in (payload["a"], payload["u"]))
    if not (type(a) is list and len(a) == m and type(u) is list and len(u) == m):
        raise MalformedMessageError(f"lattice key needs __array__ objects of {m} rows "
                                    f"in a and {m} entries in u")
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


def image_to_bytes(params, y) -> bytes:
    vec = np.asarray(y, dtype=np.int64)
    if vec.min() < 0 or vec.max() >= 1 << 32:
        raise ValidationError("lattice image coordinate outside [0, 2**32)")
    return vec.astype("<u4").tobytes()


def image_from_bytes(params, raw: bytes) -> np.ndarray:
    if len(raw) != 4 * params.lwe_m:
        raise ValidationError("lattice image has wrong length")
    y = np.frombuffer(raw, "<u4").astype(np.int64)
    if y.max() >= params.lwe_q:
        raise ValidationError("lattice image coordinate not below lwe_q")
    return y
