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
        assert linalg.factored_trace_distance(f, sf, g, sg) == pytest.approx(dense, abs=1e-12)


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
        assert linalg.factored_trace_distance(wa, sa, wb, sb) == \
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


def test_factored_trace_distance_rejects_row_mismatch():
    with pytest.raises(DimensionMismatchError):
        linalg.factored_trace_distance(np.eye(3), np.ones(3), np.eye(2), np.ones(2))


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


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1))
def test_random_unitary_is_unitary(seed):
    r = np.random.default_rng(seed)
    u = random_unitary(5, r)
    assert np.allclose(u @ u.conj().T, np.eye(5), atol=1e-10)
