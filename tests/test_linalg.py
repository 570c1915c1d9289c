from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bellcert import linalg
from bellcert.errors import DimensionMismatchError, ValidationError
from conftest import random_density


def test_check_binary_observable():
    linalg.check_binary_observable(linalg.SIGMA_X)
    with pytest.raises(ValidationError):
        linalg.check_binary_observable(np.diag([1.0, 0.5]))


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


def test_matrix_json_roundtrip(rng):
    m = rng.standard_normal((3, 5)) + 1j * rng.standard_normal((3, 5))
    d = linalg.matrix_to_json(m)
    assert d["rows"] == 3 and d["cols"] == 5
    assert np.array_equal(linalg.matrix_from_json(d), m)


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
    u = linalg.random_unitary(5, r)
    assert np.allclose(u @ u.conj().T, np.eye(5), atol=1e-10)
