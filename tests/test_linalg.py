from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bellcert import linalg
from bellcert.errors import DimensionMismatchError, ValidationError
from conftest import check_binary_observable, random_density, random_unitary


def test_check_binary_observable():
    check_binary_observable(linalg.SIGMA_X)
    with pytest.raises(ValidationError):
        check_binary_observable(np.diag([1.0, 0.5]))


def test_non_square_rejected():
    with pytest.raises(DimensionMismatchError):
        linalg.as_operator(np.zeros((2, 3)))


def test_non_finite_rejected():
    with pytest.raises(ValidationError):
        linalg.as_operator(np.array([[np.nan, 0], [0, 1]]))


def test_projector_decomposition():
    p0 = linalg.projector_of(linalg.SIGMA_Z, 0)
    p1 = linalg.projector_of(linalg.SIGMA_Z, 1)
    assert np.allclose(p0 + p1, np.eye(2))
    assert np.allclose(p0 - p1, linalg.SIGMA_Z)


def test_bell_states_orthonormal():
    vecs = [linalg.bell_state(a, b) for a in (0, 1) for b in (0, 1)]
    gram = np.array([[np.vdot(u, v) for v in vecs] for u in vecs])
    assert np.allclose(gram, np.eye(4), atol=1e-12)


def test_bell_state_eigenrelations():
    zx = linalg.tensor(linalg.SIGMA_Z, linalg.SIGMA_X)
    xz = linalg.tensor(linalg.SIGMA_X, linalg.SIGMA_Z)
    for s1 in (0, 1):
        for s2 in (0, 1):
            v = linalg.bell_state(s1, s2)
            assert np.allclose(zx @ v, (-1.0) ** s1 * v, atol=1e-12)
            assert np.allclose(xz @ v, (-1.0) ** s2 * v, atol=1e-12)


def test_trace_distance_basics():
    assert linalg.trace_distance(np.eye(2) / 2, np.eye(2) / 2) == pytest.approx(0.0)
    assert linalg.trace_distance(np.diag([1.0, 0.0]),
                                 np.diag([0.0, 1.0])) == pytest.approx(1.0)


def _ginibre(rows: int, cols: int, rng: np.random.Generator) -> np.ndarray:
    return rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))


def _signs(width: int, kind: str, rng: np.random.Generator) -> np.ndarray:
    return {"psd": np.ones(width), "zero": np.zeros(width),
            "indefinite": rng.choice([-1.0, 0.0, 1.0], size=width)}[kind]


def _distance(f, mf, g, mg):
    """``factored_trace_distance`` of the factors ``F`` and ``G``, stacked."""
    return linalg.factored_trace_distance(np.concatenate([f, g], axis=-1), mf, mg)


@pytest.mark.parametrize("rows,wf,wg,kf,kg", [
    (12, 3, 2, "psd", "psd"),                  # rank-deficient operands
    (12, 6, 6, "psd", "zero"),                 # zero right operand, as for a degenerate xi
    (12, 6, 6, "indefinite", "indefinite"),    # stacked width equal to the rows
    (6, 6, 6, "indefinite", "psd"),            # full-width factors, stack wider than the rows
    (6, 0, 4, "psd", "indefinite"),            # empty left factor
    (6, 4, 0, "indefinite", "psd"),            # empty right factor
    (6, 0, 0, "psd", "psd"),                   # both factors empty
])
def test_factored_trace_distance_matches_dense(rng, rows, wf, wg, kf, kg):
    for _ in range(5):
        f, g = _ginibre(rows, wf, rng), _ginibre(rows, wg, rng)
        sf, sg = _signs(wf, kf, rng), _signs(wg, kg, rng)
        dense = linalg.trace_distance((f * sf) @ f.conj().T, (g * sg) @ g.conj().T)
        assert _distance(f, np.diag(sf), g, np.diag(sg)) == pytest.approx(dense, abs=1e-12)


@pytest.mark.parametrize("kept", [0, 2, 6])
def test_factored_trace_distance_zero_padding_columns(rng, kept):
    """Zero columns of sign 0 after the kept ones, as ``signed_factor`` pads
    a narrower junk state and leaves a degenerate one (``kept = 0``), give
    the dense trace distance of what is kept, in a stack filled in place."""
    f = np.stack([_ginibre(12, 4, rng) for _ in range(3)])
    fg = np.zeros((3, 12, 4 + 6), dtype=complex)
    fg[..., :4] = f
    sg = np.zeros(6)
    sg[:kept] = _signs(kept, "indefinite", rng)
    for i in range(3):
        fg[i, :, 4:4 + kept] = _ginibre(12, kept, rng)
    got = linalg.factored_trace_distance(fg, np.eye(4), np.diag(sg))
    for i in range(3):
        g = fg[i, :, 4:]
        dense = linalg.trace_distance(f[i] @ f[i].conj().T, (g * sg) @ g.conj().T)
        assert got[i] == pytest.approx(dense, abs=1e-12)


def _hermitian(width: int, rng: np.random.Generator) -> np.ndarray:
    h = _ginibre(width, width, rng)
    return (h + h.conj().T) / 2


@pytest.mark.parametrize("rows,wf,wg", [(12, 3, 2), (12, 6, 6), (6, 6, 6), (6, 0, 4), (6, 4, 0)])
def test_factored_trace_distance_stacked_hermitian_middles(rng, rows, wf, wg):
    """Full hermitian middles, stacked operands and a middle broadcast over
    the stack give each entry's dense trace distance."""
    f = np.stack([_ginibre(rows, wf, rng) for _ in range(5)])
    g = np.stack([_ginibre(rows, wg, rng) for _ in range(5)])
    mf = np.stack([_hermitian(wf, rng) for _ in range(5)])
    mg = _hermitian(wg, rng)
    got = _distance(f, mf, g, mg)
    assert got.shape == (5,)
    for i in range(5):
        dense = linalg.trace_distance(f[i] @ mf[i] @ f[i].conj().T, g[i] @ mg @ g[i].conj().T)
        assert got[i] == pytest.approx(dense, abs=1e-12)


@pytest.mark.parametrize("dim,rank_a,rank_b", [(8, 8, 8), (8, 3, 5), (8, 0, 2)])
def test_signed_factor_reproduces_hermitian_operand(rng, dim, rank_a, rank_b):
    """An indefinite operand of any rank and a PSD one factor exactly, and
    their factors give the dense trace distance."""
    for _ in range(5):
        c = _ginibre(dim, rank_a, rng)
        a = (c * _signs(rank_a, "indefinite", rng)) @ c.conj().T
        g = _ginibre(dim, rank_b, rng)
        b = g @ g.conj().T
        (wa, sa), (wb, sb) = linalg.signed_factor(a), linalg.signed_factor(b)
        assert np.max(np.abs((wa * sa) @ wa.conj().T - a)) < 1e-12
        assert np.max(np.abs((wb * sb) @ wb.conj().T - b)) < 1e-12
        assert _distance(wa, np.diag(sa), wb, np.diag(sb)) == \
            pytest.approx(linalg.trace_distance(a, b), abs=1e-12)


@pytest.mark.parametrize("rank", [0, 3, 8])
@pytest.mark.parametrize("kind", ["psd", "indefinite"])
def test_signed_factor_width_is_rank(rng, rank, kind):
    """A factor keeps exactly the operand's rank of columns, with its
    inertia as the signs, and still rebuilds the operand."""
    for _ in range(5):
        c = _ginibre(8, rank, rng)
        signs = np.ones(rank) if kind == "psd" else rng.choice([-1.0, 1.0], size=rank)
        a = (c * signs) @ c.conj().T
        w, s = linalg.signed_factor(a)
        assert w.shape == (8, rank) and s.shape == (rank,)
        assert np.array_equal(np.sort(s), np.sort(signs))
        assert np.max(np.abs((w * s) @ w.conj().T - a), initial=0.0) < 1e-12


def test_signed_factor_rejects_non_hermitian():
    with pytest.raises(ValidationError):
        linalg.signed_factor(np.array([[0.0, 1.0], [0.0, 0.0]]))


@pytest.mark.parametrize("factor", [linalg.rank_factor, linalg.signed_factor])
def test_factors_reject_non_finite_and_non_square(factor):
    """A NaN would pass the QR silently and drop out of every row cut, so
    both factors refuse it, and a stack that is not square."""
    with pytest.raises(ValidationError):
        factor(np.array([[[1.0, 0.0], [0.0, np.nan]]]))
    with pytest.raises(DimensionMismatchError):
        factor(np.zeros((2, 2, 3)))


def test_factored_trace_distance_rejects_width_mismatch():
    """The middles' widths must sum to the stacked factor's width."""
    with pytest.raises(DimensionMismatchError, match="do not sum"):
        linalg.factored_trace_distance(np.eye(5), np.eye(3), np.eye(3))
    with pytest.raises(DimensionMismatchError, match="do not sum"):
        linalg.factored_trace_distance(np.eye(5), np.eye(3), np.eye(1))
    with pytest.raises(DimensionMismatchError, match="do not sum"):
        linalg.factored_trace_distance(np.ones(4), np.eye(2), np.eye(2))


def test_factored_trace_distance_rejects_bad_middles():
    with pytest.raises(DimensionMismatchError):
        linalg.factored_trace_distance(np.eye(5), np.ones((2, 3)), np.eye(3))
    with pytest.raises(ValidationError):
        linalg.factored_trace_distance(np.eye(4), np.array([[0.0, 1.0], [0.0, 0.0]]), np.eye(2))


@pytest.mark.parametrize("ranks", [(3, 3, 3), (0, 2, 5), (0, 0, 0), (8, 1, 4)])
@pytest.mark.parametrize("kind", ["projector", "general"])
def test_rank_factor_width_is_widest_rank(rng, ranks, kind):
    """Each matrix of a stack is rebuilt from its factors, which are as wide
    as the stack's largest rank; a narrower matrix, a zero one included,
    gets only zero columns in ``L``."""
    mats = []
    for rank in ranks:
        c = _ginibre(8, rank, rng)
        if kind == "projector":
            q = np.linalg.qr(c)[0] if rank else c
            mats.append(q @ q.conj().T)
        else:
            mats.append(c @ _ginibre(rank, 8, rng))
    a = np.array(mats)
    left, right = linalg.rank_factor(a)
    assert left.shape == (3, 8, max(ranks)) and right.shape == (3, max(ranks), 8)
    for i, rank in enumerate(ranks):
        assert np.max(np.abs(left[i] @ right[i] - a[i]), initial=0.0) < 1e-12
        assert not np.any(left[i][:, rank:])
    # compact arrays of their own, not views that keep the whole SVD alive
    assert left.base is None and right.base is None


@pytest.mark.parametrize("ranks", [(0, 3, 8), (2, 2, 0), (0, 0, 0)])
def test_signed_factor_stack_pads_narrower_entries(rng, ranks):
    """A stack factors in one call: every entry is as wide as the widest
    rank, a narrower one (a zero one included) gets zero columns of sign 0,
    and both factors are compact arrays of their own."""
    mats = []
    for rank in ranks:
        c = _ginibre(8, rank, rng)
        mats.append((c * rng.choice([-1.0, 1.0], size=rank)) @ c.conj().T)
    w, s = linalg.signed_factor(np.array(mats))
    assert w.shape == (3, 8, max(ranks)) and s.shape == (3, max(ranks))
    for i, rank in enumerate(ranks):
        assert np.count_nonzero(s[i]) == rank and not np.any(w[i][:, rank:])
        assert np.max(np.abs((w[i] * s[i]) @ w[i].conj().T - mats[i]), initial=0.0) < 1e-12
    assert w.base is None and s.base is None


_N = 24
_EPS = np.finfo(float).eps


def _spectral(values, hermitian: bool, rng: np.random.Generator) -> np.ndarray:
    """A matrix with the given singular values (eigenvalues when hermitian)
    in random bases, padded with zeros."""
    vals = np.zeros(_N)
    vals[:len(values)] = values
    u = random_unitary(_N, rng)
    return (u * vals) @ (u if hermitian else random_unitary(_N, rng)).conj().T


def _repeated_columns(hermitian: bool, rng: np.random.Generator) -> np.ndarray:
    """Columns ``[a, a, b, 0...]``, ``a`` orthogonal to ``b``: an unpivoted QR
    leaves three rows of R above the cut (norms sqrt 2, 0.6, 0.8) for rank 2.
    The hermitian case is the Gram matrix of columns ``[a, a, b']`` with
    ``<a, b'> = 0.6``, which repeats its columns the same way and keeps three
    rows too (with ``a`` orthogonal to ``b`` the Gram matrix keeps only two)."""
    e = np.eye(_N, dtype=complex)
    b = 0.6 * e[0] + 0.8 * e[2] if hermitian else 0.6 * e[1] + 0.8 * e[2]
    m = np.zeros((_N, _N), dtype=complex)
    m[:, :3] = np.array([e[0], e[0], b]).T
    return m.conj().T @ m if hermitian else m


def _rank_three(hermitian: bool, rng: np.random.Generator) -> np.ndarray:
    c = _ginibre(_N, 3, rng)
    return (c * [1.0, -1.0, 1.0]) @ c.conj().T if hermitian else c @ _ginibre(3, _N, rng)


# each case: its builder (a general matrix, or a hermitian one for
# signed_factor) and its numerical rank under the matrix_rank rule
_RANK_CASES = {
    "repeated_columns": (_repeated_columns, 2),
    "graded": (lambda h, rng: _spectral([1.0, -1e-8, 1e-16], h, rng), 2),
    "at_the_cut": (lambda h, rng: _spectral([1.0, -2 * _N * _EPS, 0.5 * _N * _EPS], h, rng), 2),
    "zero": (lambda h, rng: np.zeros((_N, _N), dtype=complex), 0),
    "rank_three": (_rank_three, 3),
    "last_two_coordinates": (lambda h, rng: np.diag([0.0] * (_N - 2) + [1.0, 1.0]), 2),
}


@pytest.mark.parametrize("case", list(_RANK_CASES))
def test_factor_width_is_numerical_rank(rng, case):
    """On matrices that an unpivoted QR alone misjudges, or that sit at the
    cut, both factors are exactly as wide as ``numpy.linalg.matrix_rank``,
    rebuild the operand within their docstrings' bounds, and give the dense
    trace distance to a fixed state."""
    build, want = _RANK_CASES[case]
    rho = random_density(_N, rng)
    g = _ginibre(_N, 2, rng)
    g /= np.linalg.norm(g)
    other = g @ g.conj().T

    a = build(False, rng)
    left, right = linalg.rank_factor(a)
    assert np.linalg.matrix_rank(a) == want and left.shape == (_N, want)
    bound = (_N ** 1.5 + _N) * _EPS * np.linalg.norm(a, 2)
    assert np.linalg.norm(left @ right - a, 2) <= bound
    assert _distance(left, right @ rho @ right.conj().T, g, np.eye(2)) == \
        pytest.approx(linalg.trace_distance(a @ rho @ a.conj().T, other), abs=1e-12)

    h = build(True, rng)
    w, s = linalg.signed_factor(h)
    assert np.linalg.matrix_rank(h) == want and w.shape == (_N, want)
    bound = 2 * _N ** 2 * _EPS * np.max(np.abs(np.linalg.eigvalsh(h)))
    assert np.sum(np.abs(np.linalg.eigvalsh((w * s) @ w.conj().T - h))) <= bound
    assert _distance(w, np.diag(s), g, np.eye(2)) == \
        pytest.approx(linalg.trace_distance(h, other), abs=1e-12)


def test_matrix_json_roundtrip(rng):
    m = rng.standard_normal((3, 5)) + 1j * rng.standard_normal((3, 5))
    d = linalg.matrix_to_json(m)
    assert d["rows"] == 3 and d["cols"] == 5
    assert np.array_equal(linalg.matrix_from_json(d), m)


@pytest.mark.parametrize("m", [
    np.array([[-0.0, 1.5 - 0.0j], [complex(0.0, -0.0), -2.25e-300 + 3j]]),
    np.array([0.1 + 0.2j, -0.0, complex(-0.0, -0.0)]),
])
def test_matrix_json_matches_entry_loop(m):
    """The serialized entries equal those of a per-entry loop, signed
    zeros included, so reports stay byte-identical."""
    flat = np.asarray(m, dtype=complex).reshape(-1)
    loop = [[float(z.real), float(z.imag)] for z in flat]
    assert json.dumps(linalg.matrix_to_json(m)["entries"]) == json.dumps(loop)


def test_matrix_json_rejects_bad_entry_count():
    with pytest.raises(ValidationError):
        linalg.matrix_from_json({"rows": 2, "cols": 2, "entries": [[1.0, 0.0]]})


_GOOD_ENTRIES = [[1, 0.0], [0.0, 0], [0.5, -2.0], [1.0, 0.0]]


@pytest.mark.parametrize("literal", [
    {"rows": 4.9, "cols": 1, "entries": _GOOD_ENTRIES},
    {"rows": 2, "cols": "2", "entries": _GOOD_ENTRIES},
    {"rows": True, "cols": 4, "entries": _GOOD_ENTRIES},
    {"rows": 0, "cols": 0, "entries": []},
    {"rows": -2, "cols": -2, "entries": _GOOD_ENTRIES},
    {"rows": 2, "cols": 2, "entries": [[True, 0]] + _GOOD_ENTRIES[1:]},
    {"rows": 2, "cols": 2, "entries": [["1", 0]] + _GOOD_ENTRIES[1:]},
    {"rows": 2, "cols": 2, "entries": [[1.0]] + _GOOD_ENTRIES[1:]},
    {"rows": 2, "cols": 2, "entries": [[1.0, 0.0, 0.0]] + _GOOD_ENTRIES[1:]},
    {"rows": 2, "cols": 2, "entries": [None] + _GOOD_ENTRIES[1:]},
    {"rows": 2, "cols": 2, "entries": [{"re": 1, "im": 0}] + _GOOD_ENTRIES[1:]},
    {"rows": 2, "cols": 2, "entries": [[10 ** 400, 0]] + _GOOD_ENTRIES[1:]},
    {"rows": 2, "cols": 2, "entries": "abcd"},
    {"rows": 2, "cols": 2},
    [2, 2, _GOOD_ENTRIES],
], ids=["float_rows", "string_cols", "bool_rows", "zero_size", "negative_size",
        "bool_entry", "string_entry", "short_entry", "long_entry", "null_entry",
        "dict_entry", "huge_int_entry", "string_entries", "no_entries", "not_a_dict"])
def test_matrix_json_refuses_non_canonical_literals(literal):
    with pytest.raises(ValidationError):
        linalg.matrix_from_json(literal)


def test_matrix_json_takes_plain_ints():
    m = linalg.matrix_from_json({"rows": 2, "cols": 2, "entries": _GOOD_ENTRIES})
    assert np.array_equal(m, np.array([[1, 0], [0.5 - 2j, 1]]))


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), dim=st.sampled_from([2, 3, 4, 6]))
def test_cauchy_schwarz_in_state_norm(seed, dim):
    """|Tr[A^dag B psi]|^2 <= ||A||^2_psi ||B||^2_psi."""
    r = np.random.default_rng(seed)
    a = r.standard_normal((dim, dim)) + 1j * r.standard_normal((dim, dim))
    b = r.standard_normal((dim, dim)) + 1j * r.standard_normal((dim, dim))
    psi = random_density(dim, r)
    inner = abs(np.trace(a.conj().T @ b @ psi)) ** 2
    bound = linalg.state_dep_norm_sq(a, psi) * linalg.state_dep_norm_sq(b, psi)
    assert inner <= bound + 1e-9


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), dim=st.sampled_from([2, 3, 5]),
       scale=st.floats(0.0, 1.0))
def test_state_norm_dominated_by_operator_norm(seed, dim, scale):
    """||A||_psi <= ||A||_inf whenever Tr psi <= 1."""
    r = np.random.default_rng(seed)
    a = r.standard_normal((dim, dim)) + 1j * r.standard_normal((dim, dim))
    psi = scale * random_density(dim, r)
    opnorm_sq = np.linalg.norm(a, 2) ** 2
    assert linalg.state_dep_norm_sq(a, psi) <= opnorm_sq + 1e-9


def test_state_norm_takes_stacks(rng):
    """Stacks of operators (here 3 of them, mapping C^4 into C^8) and of
    states broadcast like matrix products; each entry is the single-operand
    value, and huge entries raise under ``np.errstate`` rather than
    returning inf."""
    a = rng.standard_normal((3, 1, 8, 4)) + 1j * rng.standard_normal((3, 1, 8, 4))
    psi = np.array([random_density(4, rng) for _ in range(2)])
    got = linalg.state_dep_norm_sq(a, psi)
    assert got.shape == (3, 2)
    for i in range(3):
        for j in range(2):
            assert got[i, j] == pytest.approx(linalg.state_dep_norm_sq(a[i, 0], psi[j]),
                                              abs=1e-12)
    with pytest.raises(DimensionMismatchError):
        linalg.state_dep_norm_sq(a, np.eye(3))
    with np.errstate(over="raise"), pytest.raises(FloatingPointError):
        linalg.state_dep_norm_sq(1e200 * a, psi)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1))
def test_random_unitary_is_unitary(seed):
    r = np.random.default_rng(seed)
    u = random_unitary(5, r)
    assert np.allclose(u @ u.conj().T, np.eye(5), atol=1e-10)
