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
not meant to be.
"""
from __future__ import annotations

import numpy as np

from .entcf import EntcfParams, PublicKey, Trapdoor
from .errors import InvalidImageError

__all__ = ["gen", "eval_sample", "chk", "invert"]


def _gadget(n: int, k: int) -> np.ndarray:
    g = np.zeros((n * k, n), dtype=np.int64)
    for i in range(n):
        for j in range(k):
            g[i * k + j, i] = 1 << j
    return g


def _sample_noise(params: EntcfParams, rng: np.random.Generator, size: int) -> np.ndarray:
    """Rounded-gaussian noise, rejection-truncated to the evaluation bound."""
    out = np.empty(size, dtype=np.int64)
    filled = 0
    while filled < size:
        cand = np.rint(rng.normal(0.0, params.lwe_sigma, size - filled)).astype(np.int64)
        keep = cand[np.abs(cand) <= params.lwe_eval_bound]
        out[filled:filled + keep.size] = keep
        filled += keep.size
    return out


def _int_to_vec(x: int, n: int, k: int) -> np.ndarray:
    mask = (1 << k) - 1
    return np.array([(x >> (i * k)) & mask for i in range(n)], dtype=np.int64)


def _centered(v: np.ndarray, q: int) -> np.ndarray:
    return ((v + q // 2) % q) - q // 2


def gen(family: str, params: EntcfParams, rng: np.random.Generator):
    n, q, m, k = params.lwe_n, params.lwe_q, params.lwe_m, params.gadget_bits
    mbar = m - n * k
    a_top = rng.integers(0, q, size=(mbar, n), dtype=np.int64)
    r = rng.integers(-1, 2, size=(n * k, mbar), dtype=np.int64)
    a = np.vstack([a_top, (_gadget(n, k) - r @ a_top) % q])
    if family == "F":
        s = rng.integers(0, q, size=n, dtype=np.int64)
        while not s.any():
            s = rng.integers(0, q, size=n, dtype=np.int64)
        u = (a @ s + _sample_noise(params, rng, m)) % q
        td_payload = {"r": r, "s": s}
    else:
        u = rng.integers(0, q, size=m, dtype=np.int64)
        td_payload = {"r": r}
    pk = PublicKey(family, params, {"a": a, "u": u})
    td = Trapdoor(family, params, td_payload)
    return pk, td


def eval_sample(pk: PublicKey, b: int, x: int, rng: np.random.Generator) -> np.ndarray:
    params = pk.params
    xv = _int_to_vec(x, params.lwe_n, params.gadget_bits)
    noise = _sample_noise(params, rng, params.lwe_m)
    return (pk.payload["a"] @ xv + b * pk.payload["u"] + noise) % params.lwe_q


def chk(pk: PublicKey, y, b: int, x: int) -> bool:
    params = pk.params
    y = np.asarray(y, dtype=np.int64)
    if y.shape != (params.lwe_m,):
        return False
    xv = _int_to_vec(x, params.lwe_n, params.gadget_bits)
    resid = _centered((y - pk.payload["a"] @ xv - b * pk.payload["u"]) % params.lwe_q,
                      params.lwe_q)
    return bool(np.max(np.abs(resid)) <= params.lwe_check_bound)


def _gadget_decode(v: np.ndarray, n: int, k: int, q: int) -> int:
    """Recover x from a noisy G x (mod q), least-significant bit first."""
    x = 0
    for i in range(n):
        coord = 0
        for j in range(k):
            row = i * k + (k - 1 - j)
            t = int((int(v[row]) - (coord << (k - 1 - j))) % q)
            bit = 1 if q // 4 <= t < 3 * q // 4 else 0
            coord |= bit << j
        x |= coord << (i * k)
    return x


def invert(td: Trapdoor, pk: PublicKey, b: int, y):
    params = td.params
    y = np.asarray(y, dtype=np.int64)
    if y.shape != (params.lwe_m,):
        raise InvalidImageError("lattice image has wrong shape")
    n, q, k = params.lwe_n, params.lwe_q, params.gadget_bits
    mbar = params.lwe_m - n * k
    target = (y - b * pk.payload["u"]) % q
    v = (target[mbar:] + td.payload["r"] @ target[:mbar]) % q
    x = _gadget_decode(v, n, k, q)
    if not chk(pk, y, b, x):
        return None
    return x
