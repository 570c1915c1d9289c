from __future__ import annotations

import dataclasses
import hashlib
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bellcert import entcf, ideal
from bellcert.errors import (ConfigurationError, FamilyError, InvalidImageError,
                             MalformedMessageError, ValidationError)

IDEAL = entcf.EntcfParams(backend="ideal")
LWE = entcf.EntcfParams(backend="lwe")


@pytest.fixture(params=["ideal", "lwe"])
def params(request):
    return IDEAL if request.param == "ideal" else LWE


def test_param_validation():
    with pytest.raises(ConfigurationError):
        entcf.EntcfParams(backend="nope")
    # a deployment is its backend: the sizes are not fields
    assert [f.name for f in dataclasses.fields(entcf.EntcfParams)] == ["backend"]
    for field, value in LWE.to_json().items():
        if field != "backend":
            with pytest.raises(TypeError):
                entcf.EntcfParams(backend="lwe", **{field: value})


def test_deployment_margins():
    """The fixed sizes keep the margins that the backends rely on."""
    p = entcf.EntcfParams
    assert p.lwe_q & (p.lwe_q - 1) == 0 and p.lwe_q <= 1 << 32  # images are 32-bit words
    assert p.lwe_m > p.lwe_n * LWE.gadget_bits  # hidden rows above the gadget
    assert 0 < p.lwe_eval_bound < p.lwe_check_bound
    assert 0 <= p.lwe_sigma <= p.lwe_eval_bound  # else the rejection sampler spins
    assert 2 * p.lwe_check_bound < p.lwe_q / 8  # decoding slack below q/8
    assert 4 <= p.ideal_w <= 63  # the claw shift is drawn as an int64 in [1, 2^w)


def test_params_json_roundtrip(params):
    assert entcf.EntcfParams.from_json(params.to_json()) == params


def test_params_json_is_the_deployments():
    """The wire form is pinned byte for byte: every session's keys message carries it."""
    for params in (IDEAL, LWE):
        assert json.dumps(params.to_json()) == (
            f'{{"backend": "{params.backend}", "ideal_w": 32, "lwe_n": 4, "lwe_q": 65536, '
            '"lwe_m": 80, "lwe_sigma": 1.6, "lwe_eval_bound": 16, "lwe_check_bound": 2048}')


def test_params_json_refuses_unknown_field(params):
    """Params from the wire equal the deployment's, field for field and in
    JSON type; the refusal names the first field that differs."""
    wire = params.to_json()
    cases = [({**wire, "evil": 1}, "evil"), ({"backend": params.backend}, "ideal_w"),
             ({**wire, "backend": "quantum"}, "backend"), ({**wire, "backend": ["lwe"]}, "backend"),
             ({**wire, "ideal_w": 16}, "ideal_w"), ({**wire, "ideal_w": 32.0}, "ideal_w"),
             ({**wire, "ideal_w": 1 << 17}, "ideal_w"), ({**wire, "lwe_n": 4.0}, "lwe_n"),
             ({**wire, "lwe_q": 65536.0}, "lwe_q"), ({**wire, "lwe_sigma": True}, "lwe_sigma"),
             ({**wire, "lwe_sigma": float("nan")}, "lwe_sigma"),
             ({**wire, "lwe_check_bound": 2047.5}, "lwe_check_bound")]
    for d, field in cases:
        with pytest.raises(MalformedMessageError, match=field):
            entcf.EntcfParams.from_json(d)
    with pytest.raises(MalformedMessageError):
        entcf.EntcfParams.from_json([wire])


def test_claw_roundtrip(params, rng):
    pk, td = entcf.gen("F", params, rng)
    for _ in range(20):
        b = int(rng.integers(2))
        x = entcf.random_preimage(params, rng)
        y = entcf.eval_sample(pk, b, x, rng)
        assert entcf.chk(pk, y, b, x)
        assert entcf.invert(td, pk, b, y) == x
        partner = entcf.invert(td, pk, 1 - b, y)
        assert partner is not None and entcf.chk(pk, y, 1 - b, partner)


def test_injective_branch_decoding(params, rng):
    pk, td = entcf.gen("G", params, rng)
    for _ in range(20):
        b = int(rng.integers(2))
        x = entcf.random_preimage(params, rng)
        y = entcf.eval_sample(pk, b, x, rng)
        assert entcf.chk(pk, y, b, x)
        assert not entcf.chk(pk, y, 1 - b, x)
        assert entcf.decode_bit(td, pk, y) == b
        assert entcf.invert(td, pk, b, y) == x
        assert entcf.invert(td, pk, 1 - b, y) is None


def test_equation_decoding_matches_claw_parity(params, rng):
    pk, td = entcf.gen("F", params, rng)
    x0 = entcf.random_preimage(params, rng)
    y = entcf.eval_sample(pk, 0, x0, rng)
    x1 = entcf.invert(td, pk, 1, y)
    claw = x0 ^ x1
    for _ in range(50):
        d = entcf.random_preimage(params, rng)
        eq = entcf.decode_equation(td, pk, y, d)
        assert eq == (d & claw).bit_count() % 2
        # decoding is deterministic
        assert entcf.decode_equation(td, pk, y, d) == eq


def _decode_bit_by_inversion(td, pk, y):
    """decode_bit as the first branch that inverts ``y``."""
    for b in (0, 1):
        if entcf.invert(td, pk, b, y) is not None:
            return b
    raise InvalidImageError("image lies outside both branch ranges")


def _decode_equation_by_inversion(td, pk, y, d):
    """decode_equation as the parity of the XOR of both branches' inversions."""
    if d == 0:
        return None
    x0, x1 = entcf.invert(td, pk, 0, y), entcf.invert(td, pk, 1, y)
    if x0 is None or x1 is None:
        return None
    return (d & (x0 ^ x1)).bit_count() & 1


def _outcome(fn, *args):
    try:
        return fn(*args)
    except InvalidImageError as exc:
        return type(exc)


def test_ideal_decoding_matches_inversion_exhaustive(rng, monkeypatch):
    """At ideal_w = 4, decode_bit and decode_equation, which unpermute once,
    agree with their two-inversion definitions on every image and mask."""
    monkeypatch.setattr(entcf.EntcfParams, "ideal_w", 4)
    small = entcf.EntcfParams(backend="ideal")
    pk_f, td_f = entcf.gen("F", small, rng)
    pk_g, td_g = entcf.gen("G", small, rng)
    seen = set()
    for y in range(1 << 8):
        bit = _outcome(entcf.decode_bit, td_g, pk_g, y)
        assert bit == _outcome(_decode_bit_by_inversion, td_g, pk_g, y)
        seen.add(bit)
        for d in range(1 << 4):
            parity = entcf.decode_equation(td_f, pk_f, y, d)
            assert parity == _decode_equation_by_inversion(td_f, pk_f, y, d)
            seen.add(parity)
    assert seen == {0, 1, None, InvalidImageError}


def test_zero_mask_flagged_degenerate(params, rng):
    """The all-zero mask's parity needs no claw, so it decodes to None."""
    pk, td = entcf.gen("F", params, rng)
    y = entcf.eval_sample(pk, 0, entcf.random_preimage(params, rng), rng)
    assert entcf.decode_equation(td, pk, y, 0) is None


def test_family_errors(params, rng):
    pk_f, td_f = entcf.gen("F", params, rng)
    pk_g, td_g = entcf.gen("G", params, rng)
    y = entcf.eval_sample(pk_f, 0, 1, rng)
    with pytest.raises(FamilyError):
        entcf.decode_bit(td_f, pk_f, y)
    yg = entcf.eval_sample(pk_g, 0, 1, rng)
    with pytest.raises(FamilyError):
        entcf.decode_equation(td_g, pk_g, yg, 1)
    with pytest.raises(FamilyError):
        entcf.gen("H", params, rng)


def test_invalid_image_rejected_ideal(rng):
    pk, td = entcf.gen("G", IDEAL, rng)
    # images whose preimage falls outside the padded domain are invalid
    bad = None
    for y in range(10000):  # almost every point is outside the padded range
        if entcf.invert(td, pk, 0, y) is None and entcf.invert(td, pk, 1, y) is None:
            bad = y
            break
    assert bad is not None
    with pytest.raises(InvalidImageError):
        entcf.decode_bit(td, pk, bad)


def test_ideal_claw_shift_law_exhaustive(rng, monkeypatch):
    """f_1(x) == f_0(x ^ claw) for every point of a small domain."""
    monkeypatch.setattr(entcf.EntcfParams, "ideal_w", 8)
    small = entcf.EntcfParams(backend="ideal")
    pk, td = entcf.gen("F", small, rng)
    probe = entcf.eval_sample(pk, 0, 0, rng)
    claw = entcf.invert(td, pk, 1, probe) ^ 0
    for x in range(256):
        y0 = entcf.eval_sample(pk, 0, x, rng)
        y1 = entcf.eval_sample(pk, 1, x ^ claw, rng)
        assert y0 == y1


def test_ideal_images_are_permutation_outputs(rng, monkeypatch):
    monkeypatch.setattr(entcf.EntcfParams, "ideal_w", 8)
    small = entcf.EntcfParams(backend="ideal")
    pk, _ = entcf.gen("G", small, rng)
    images = {entcf.eval_sample(pk, b, x, rng) for b in (0, 1) for x in range(256)}
    assert len(images) == 512  # both branches injective with disjoint ranges


def test_public_key_json_roundtrip(params, rng):
    for family in entcf.FAMILIES:
        pk, _ = entcf.gen(family, params, rng)
        back = entcf.PublicKey.from_json(pk.to_json(), params)
        assert back.to_json() == pk.to_json()
        assert set(back.payload) == set(pk.payload)
        for k, v in pk.payload.items():
            if isinstance(v, np.ndarray):
                assert np.array_equal(back.payload[k], v)
            else:
                assert back.payload[k] == v


def test_image_wire_roundtrip(params, rng):
    pk, _ = entcf.gen("F", params, rng)
    y = entcf.eval_sample(pk, 1, entcf.random_preimage(params, rng), rng)
    s = entcf.image_to_wire(params, y)
    back = entcf.image_from_wire(params, s)
    if params.backend == "ideal":
        assert back == y
    else:
        assert np.array_equal(back, y)


def test_lattice_image_codec(rng):
    """Four little-endian bytes per coordinate; values outside [0, 2**32) refused."""
    y = rng.integers(0, LWE.lwe_q, LWE.lwe_m)
    s = entcf.image_to_wire(LWE, y)
    assert s == b"".join(int(v).to_bytes(4, "little") for v in y).hex()
    assert np.array_equal(entcf.image_from_wire(LWE, s), y)
    y[0] = (1 << 32) - 1  # the largest 32-bit word still encodes
    assert entcf.image_to_wire(LWE, y).startswith("ffffffff")
    for bad in (-1, 1 << 32):
        y[0] = bad
        with pytest.raises(ValidationError):
            entcf.image_to_wire(LWE, y)
    y[0] = LWE.lwe_q
    with pytest.raises(ValidationError):
        entcf.image_from_wire(LWE, entcf.image_to_wire(LWE, y))


@pytest.mark.parametrize("delta", [1, (1 << IDEAL.ideal_w) - 1])
def test_ideal_key_delta_ends_decode(rng, delta):
    """An ideal F key's ``delta`` lies in [1, 2**w), both ends included; 0 and
    2**w are refused in ``test_provers._BAD_KEYS``."""
    pk, _ = entcf.gen("F", IDEAL, rng)
    doc = pk.to_json()
    doc["payload"]["delta"] = delta
    assert entcf.PublicKey.from_json(doc, IDEAL).payload["delta"] == delta


def test_preimage_domain_enforced(params, rng):
    pk, _ = entcf.gen("F", params, rng)
    with pytest.raises(ValidationError):
        entcf.chk(pk, 0, 0, 1 << params.preimage_bits)
    with pytest.raises(ValidationError):
        entcf.eval_sample(pk, 2, 0, rng)


def test_bits_and_preimages_are_integers(rng):
    """A string or float is refused where a branch bit or preimage is due,
    and numpy integers still pass."""
    pk, _ = entcf.gen("G", IDEAL, rng)
    for bad_bit in ("1", 1.5):
        with pytest.raises(ValidationError):
            entcf.eval_sample(pk, bad_bit, 3, rng)
    y = entcf.eval_sample(pk, 0, 3, rng)
    with pytest.raises(ValidationError):
        entcf.chk(pk, y, 0, 3.9)
    assert entcf.chk(pk, y, np.int64(0), np.uint32(3))
    assert entcf.eval_sample(pk, np.int8(0), np.int64(3), rng) == y


@settings(max_examples=100, deadline=None)
@given(x=st.integers(0, 2 ** 64 - 1))
def test_bits_wire_roundtrip(x):
    params = entcf.EntcfParams(backend="lwe")  # 64-bit preimages
    assert entcf.bits_from_wire(params, entcf.bits_to_wire(params, x)) == x


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), value=st.integers(0, 2 ** 32 - 1))
def test_feistel_permutation_invertible(seed, value):
    key = seed.to_bytes(4, "little") * 8
    w = 16
    forward = ideal._permute(key, w, value)
    assert ideal._unpermute(key, w, forward) == value
    assert 0 <= forward < (1 << (2 * w))


def _feistel_keyed_per_round(seed: bytes, w: int, value: int, inverse: bool) -> int:
    """The ideal Feistel pass with every round's blake2b keyed anew."""
    def round_fn(rnd, half):
        data = bytes([rnd]) + half.to_bytes((w + 7) // 8, "little")
        digest = hashlib.blake2b(data, key=seed, digest_size=16).digest()
        return int.from_bytes(digest, "little") & ((1 << w) - 1)

    left, right = value >> w, value & ((1 << w) - 1)
    rounds = range(ideal._FEISTEL_ROUNDS)
    for rnd in reversed(rounds) if inverse else rounds:
        if inverse:
            left, right = right ^ round_fn(rnd, left), left
        else:
            left, right = right, left ^ round_fn(rnd, right)
    return (left << w) | right


@settings(max_examples=300, deadline=None)
@given(seed=st.binary(min_size=32, max_size=32), w=st.integers(4, 63), data=st.data())
def test_feistel_matches_per_round_keying(seed, w, data):
    """Copying one keyed hash per pass gives every round the digest of keying it anew."""
    value = data.draw(st.integers(0, (1 << (2 * w)) - 1))
    assert ideal._permute(seed, w, value) == _feistel_keyed_per_round(seed, w, value, False)
    assert ideal._unpermute(seed, w, value) == _feistel_keyed_per_round(seed, w, value, True)
