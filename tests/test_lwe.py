from __future__ import annotations

import numpy as np
import pytest

from bellcert import entcf, lwe, protocol
from bellcert.harness import role_rng
from bellcert.provers import ClawOracle, HonestProver

PARAMS = entcf.EntcfParams(backend="lwe")
# smaller lattice sizes, set on the class for one test (the deployment's are fixed)
SIZES = {"default": {},
         "small": {"lwe_n": 2, "lwe_q": 2 ** 12, "lwe_m": 40, "lwe_eval_bound": 8,
                   "lwe_check_bound": 200}}


@pytest.fixture
def params(request, monkeypatch):
    for name, value in SIZES[request.param].items():
        monkeypatch.setattr(entcf.EntcfParams, name, value)
    return PARAMS


def _centered(v: np.ndarray, q: int) -> np.ndarray:
    return ((v + q // 2) % q) - q // 2


def _reference_gadget_decode(v: np.ndarray, n: int, k: int, q: int) -> int:
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


def _decode_inputs(params, rng):
    """Honest noisy images after the trapdoor, uniform vectors, and vectors
    whose every coordinate sits on a decision threshold."""
    n, k, q = params.lwe_n, params.gadget_bits, params.lwe_q
    mbar = params.lwe_m - n * k
    for family in entcf.FAMILIES:
        pk, td = entcf.gen(family, params, rng)
        for _ in range(100):
            b = int(rng.integers(2))
            y = entcf.eval_sample(pk, b, entcf.random_preimage(params, rng), rng)
            target = (y - b * pk.payload["u"]) % q
            yield (target[mbar:] + td.payload["r"] @ target[:mbar]) % q
    for _ in range(500):
        yield rng.integers(0, q, size=n * k, dtype=np.int64)
    for t in (q // 4 - 1, q // 4, 3 * q // 4 - 1, 3 * q // 4):
        yield np.full(n * k, t, dtype=np.int64)
        for _ in range(20):
            v = rng.integers(0, q, size=n * k, dtype=np.int64)
            v[rng.integers(0, n * k, size=n)] = t
            yield v


@pytest.mark.parametrize("params", list(SIZES), indirect=True)
def test_gadget_decode_matches_reference(params, rng):
    n, k, q = params.lwe_n, params.gadget_bits, params.lwe_q
    for v in _decode_inputs(params, rng):
        assert lwe._gadget_decode(v, n, k, q) == _reference_gadget_decode(v, n, k, q)


@pytest.mark.parametrize("params", list(SIZES), indirect=True)
def test_gadget_is_cached_and_read_only(params):
    n, k = params.lwe_n, params.gadget_bits
    fresh = np.zeros((n * k, n), dtype=np.int64)
    for i in range(n):
        for j in range(k):
            fresh[i * k + j, i] = 1 << j
    g = lwe._gadget(n, k)
    assert g is lwe._gadget(n, k)
    assert g.dtype == np.int64 and np.array_equal(g, fresh)
    with pytest.raises(ValueError):
        g[0, 0] = 2
    assert np.array_equal(lwe._gadget(n, k), fresh)


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
    resid = _centered((y - pk.payload["a"] @ xv) % PARAMS.lwe_q, PARAMS.lwe_q)
    assert np.max(np.abs(resid)) <= PARAMS.lwe_eval_bound


def test_chk_rejects_beyond_check_bound(rng):
    pk, _ = entcf.gen("F", PARAMS, rng)
    x = entcf.random_preimage(PARAMS, rng)
    y = entcf.eval_sample(pk, 0, x, rng)
    assert entcf.chk(pk, y, 0, x)
    y_far = (y + PARAMS.lwe_check_bound + PARAMS.lwe_eval_bound + 1) % PARAMS.lwe_q
    assert not entcf.chk(pk, y_far, 0, x)


def _reference_chk(pk, y, b, x) -> bool:
    params = pk.params
    xv = lwe._int_to_vec(x, params.lwe_n, params.gadget_bits)
    resid = _centered((y - pk.payload["a"] @ xv - b * pk.payload["u"]) % params.lwe_q,
                      params.lwe_q)
    return bool(np.max(np.abs(resid)) <= params.lwe_check_bound)


@pytest.mark.parametrize("params", list(SIZES), indirect=True)
def test_chk_matches_centered_reference(params, rng):
    """chk agrees with the centred residual test, also with one coordinate
    exactly at or one past the check bound on either side."""
    q, bound = params.lwe_q, params.lwe_check_bound
    for family in entcf.FAMILIES:
        pk, _ = entcf.gen(family, params, rng)
        for _ in range(50):
            b, x = int(rng.integers(2)), entcf.random_preimage(params, rng)
            y = entcf.eval_sample(pk, b, x, rng)
            xv = lwe._int_to_vec(x, params.lwe_n, params.gadget_bits)
            exact = (pk.payload["a"] @ xv + b * pk.payload["u"]) % q
            for offset in (bound, bound + 1, -bound, -bound - 1, q // 2, -q // 2):
                y_off, j = y.copy(), int(rng.integers(params.lwe_m))
                y_off[j] = (exact[j] + offset) % q
                for bb in (0, 1):
                    assert lwe.chk(pk, y_off, bb, x) == _reference_chk(pk, y_off, bb, x)
            garbage = rng.integers(0, q, size=params.lwe_m, dtype=np.int64)
            assert lwe.chk(pk, garbage, b, x) == _reference_chk(pk, garbage, b, x)


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
    resid = _centered((v - lwe._gadget(n, k) @ xv) % q, q)
    worst = PARAMS.lwe_eval_bound * (1 + mbar)
    assert np.max(np.abs(resid)) <= worst < q // 4


def _one_branch_image(pk, td, rng):
    """An honest branch-0 preimage ``x0`` of an F key and an image that inverts
    on branch 0 only: its honest image with one coordinate moved so that the
    branch-0 residual sits exactly at the check bound, where the branch-1
    residual, which differs from it there by the key's noise, lies past it."""
    n, k, q = PARAMS.lwe_n, PARAMS.gadget_bits, PARAMS.lwe_q
    x0 = entcf.random_preimage(PARAMS, rng)
    y = entcf.eval_sample(pk, 0, x0, rng)
    x1 = entcf.invert(td, pk, 1, y)
    a, u = pk.payload["a"], pk.payload["u"]
    r0 = _centered(y - a @ lwe._int_to_vec(x0, n, k), q)
    r1 = _centered(y - a @ lwe._int_to_vec(x1, n, k) - u, q)
    i = int(np.flatnonzero(r1 > r0)[0])
    y[i] = (y[i] + PARAMS.lwe_check_bound - r0[i]) % q
    return x0, y


def test_image_on_one_branch_has_no_equation():
    """An F image that inverts on one branch only has no claw, so its
    equation decodes to None, also in a session that commits it."""
    rng = np.random.default_rng(5)
    pk, td = entcf.gen("F", PARAMS, rng)
    x0, y = _one_branch_image(pk, td, rng)
    assert entcf.invert(td, pk, 0, y) == x0
    assert entcf.invert(td, pk, 1, y) is None
    assert entcf.decode_equation(td, pk, y, 1) is None

    vrng, prng = role_rng(0, 0, 0), role_rng(0, 0, 1)
    state, keys = protocol.start_session(PARAMS, vrng, basis=(1, 1), round_type="hadamard")
    commit = HonestProver(prng, ClawOracle(state.keys, state.trapdoors)).commit(keys)
    _, y1 = _one_branch_image(state.keys[0], state.trapdoors[0], rng)
    commit["payload"]["y1"] = entcf.image_to_wire(PARAMS, y1)
    protocol.respond(state, commit, vrng)
    one = entcf.bits_to_wire(PARAMS, 1)
    protocol.respond(state, protocol.message("equations", 0, {"d1": one, "d2": one}), vrng)
    assert state.record.targets["u1"] is None and state.record.targets["u2"] is not None
