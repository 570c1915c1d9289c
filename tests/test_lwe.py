from __future__ import annotations

import numpy as np
import pytest

from bellcert import entcf, lwe

PARAMS = entcf.EntcfParams(backend="lwe")


def test_gadget_decode_exact_under_bounded_noise(rng):
    n, k, q = PARAMS.lwe_n, PARAMS.gadget_bits, PARAMS.lwe_q
    g = lwe._gadget(n, k)
    for _ in range(50):
        x = entcf.random_preimage(PARAMS, rng)
        xv = lwe._int_to_vec(x, n, k)
        noise = rng.integers(-4000, 4001, size=n * k)  # just under q/16
        v = (g @ xv + noise) % q
        assert lwe._gadget_decode(v, n, k, q) == x


def test_vec_int_roundtrip(rng):
    n, k = PARAMS.lwe_n, PARAMS.gadget_bits
    for _ in range(20):
        x = entcf.random_preimage(PARAMS, rng)
        xv = lwe._int_to_vec(x, n, k)
        assert sum(int(c) << (i * k) for i, c in enumerate(xv)) == x


def test_eval_noise_within_bound(rng):
    pk, _ = entcf.gen("F", PARAMS, rng)
    x = entcf.random_preimage(PARAMS, rng)
    xv = lwe._int_to_vec(x, PARAMS.lwe_n, PARAMS.gadget_bits)
    y = entcf.eval_sample(pk, 0, x, rng)
    resid = lwe._centered((y - pk.payload["a"] @ xv) % PARAMS.lwe_q, PARAMS.lwe_q)
    assert np.max(np.abs(resid)) <= PARAMS.lwe_eval_bound


def test_chk_rejects_beyond_check_bound(rng):
    pk, _ = entcf.gen("F", PARAMS, rng)
    x = entcf.random_preimage(PARAMS, rng)
    y = entcf.eval_sample(pk, 0, x, rng)
    assert entcf.chk(pk, y, 0, x)
    y_far = (y + PARAMS.lwe_check_bound + PARAMS.lwe_eval_bound + 1) % PARAMS.lwe_q
    assert not entcf.chk(pk, y_far, 0, x)


def test_invert_rejects_garbage(rng):
    pk, td = entcf.gen("F", PARAMS, rng)
    garbage = rng.integers(0, PARAMS.lwe_q, size=PARAMS.lwe_m, dtype=np.int64)
    # a uniformly random vector is (overwhelmingly) not a valid image
    assert entcf.invert(td, pk, 0, garbage) is None


def test_invert_wrong_shape_raises(rng):
    pk, td = entcf.gen("F", PARAMS, rng)
    with pytest.raises(Exception):
        entcf.invert(td, pk, 0, np.zeros(3, dtype=np.int64))


def test_claw_is_constant_shift(rng):
    """x0 - x1 is the same lattice secret for every image."""
    pk, td = entcf.gen("F", PARAMS, rng)
    n, k, q = PARAMS.lwe_n, PARAMS.gadget_bits, PARAMS.lwe_q
    diffs = set()
    for _ in range(10):
        x0 = entcf.random_preimage(PARAMS, rng)
        y = entcf.eval_sample(pk, 0, x0, rng)
        x1 = entcf.invert(td, pk, 1, y)
        v0 = lwe._int_to_vec(x0, n, k)
        v1 = lwe._int_to_vec(x1, n, k)
        diffs.add(tuple((v0 - v1) % q))
    assert len(diffs) == 1
    assert np.array_equal(np.array(diffs.pop()), td.payload["s"] % q)


def test_trapdoor_quality_margin(rng):
    """Accumulated decode noise stays far below the decision threshold."""
    pk, td = entcf.gen("F", PARAMS, rng)
    n, k, q = PARAMS.lwe_n, PARAMS.gadget_bits, PARAMS.lwe_q
    mbar = PARAMS.lwe_m - n * k
    x = entcf.random_preimage(PARAMS, rng)
    xv = lwe._int_to_vec(x, n, k)
    y = entcf.eval_sample(pk, 0, x, rng)
    v = (y[mbar:] + td.payload["r"] @ y[:mbar]) % q
    resid = lwe._centered((v - lwe._gadget(n, k) @ xv) % q, q)
    worst = PARAMS.lwe_eval_bound * (1 + mbar)
    assert np.max(np.abs(resid)) <= worst < q // 4
