from __future__ import annotations

import warnings
from pathlib import Path

import numpy as np
import pytest

from bellcert import analysis
from bellcert.device import OUTCOME_PAIRS, QUESTION_PAIRS, Branch, Device, marginal_observables
from bellcert.errors import DimensionMismatchError, ValidationError
from bellcert.linalg import VALIDATION_TOL, as_operator

# hypothesis imports this module to report a failing example; its import
# raises a DeprecationWarning from a dependency, which the per-test "error"
# filter below would turn into an internal error instead of the report
with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:
        pass


@pytest.fixture
def rng():
    return np.random.default_rng(20260826)


def random_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed unitary via QR of a Ginibre matrix."""
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def check_binary_observable(obs: np.ndarray, *, tol: float = VALIDATION_TOL) -> np.ndarray:
    """Validate a hermitian operator squaring to the identity."""
    obs = as_operator(obs)
    if np.max(np.abs(obs - obs.conj().T)) > tol:
        raise ValidationError("observable is not hermitian")
    if np.max(np.abs(obs @ obs - np.eye(obs.shape[0]))) > tol:
        raise ValidationError("observable does not square to the identity")
    return obs


def gamma_t(device: Device) -> float:
    return 1.0 - min(analysis.test_tuple(device, marginal_observables(device)).values())


def gamma_b(device: Device) -> float:
    return 1.0 - min(analysis.bell_tuple(device, marginal_observables(device)).values())


def interferometric_pass_prob(u1: np.ndarray, u2: np.ndarray,
                              psi: np.ndarray) -> float:
    """Exact acceptance probability Tr[(U1+U2)^dag (U1+U2) psi] / 4."""
    u1, u2 = as_operator(u1), as_operator(u2)
    if u1.shape != u2.shape or u1.shape != psi.shape:
        raise DimensionMismatchError("operator/state shapes differ")
    s = u1 + u2
    return float(np.real(np.trace(s.conj().T @ s @ psi))) / 4.0


def interferometric_norm_estimate(u1: np.ndarray, u2: np.ndarray,
                                  psi: np.ndarray, shots: int,
                                  rng: np.random.Generator) -> tuple[float, float]:
    """Sampled estimate of ||U1 + U2||^2 on psi with one-sigma error.

    Simulates the standard controlled-swap interference test: the
    acceptance probability p satisfies ||U1 + U2||^2_psi = 4p, so the
    estimator is 4 * (accept count) / shots.
    """
    if shots < 1:
        raise ValidationError("shots must be positive")
    p = min(max(interferometric_pass_prob(u1, u2, psi), 0.0), 1.0)
    hits = int(rng.binomial(shots, p))
    est = 4.0 * hits / shots
    err = 4.0 * np.sqrt(max(p * (1.0 - p), 1.0 / shots) / shots)
    return est, err


def commutation_norms(a: np.ndarray, b: np.ndarray,
                      psi: np.ndarray) -> tuple[float, float]:
    """Exact squared norms of {A,B}/... via the interference identity:
    taking U1 = AB and U2 = BA makes 4p the anticommutator norm, and
    U2 = -BA the commutator norm."""
    ab, ba = a @ b, b @ a
    anti = 4.0 * interferometric_pass_prob(ab, ba, psi)
    comm = 4.0 * interferometric_pass_prob(ab, -ba, psi)
    return anti, comm


def random_measurement(dim: int, rng: np.random.Generator) -> dict:
    """Random four-outcome projective measurement (outcomes may be empty)."""
    u = random_unitary(dim, rng)
    sizes = rng.multinomial(dim, [0.25] * 4)
    meas, start = {}, 0
    for outcome, size in zip(OUTCOME_PAIRS, sizes):
        cols = u[:, start:start + size]
        meas[outcome] = cols @ cols.conj().T
        start += size
    return meas


def random_observable_set(dim: int, rng: np.random.Generator) -> dict[str, np.ndarray]:
    """Marginal observables of four independent random measurements."""
    meas = {q: random_measurement(dim, rng) for q in QUESTION_PAIRS}
    return marginal_observables(Device(dim=dim, branches={}, measurements=meas))


def random_density(dim: int, rng: np.random.Generator) -> np.ndarray:
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    rho = g @ g.conj().T
    return rho / np.trace(rho)


def embed_device(dev: Device, junk_dim: int, rng: np.random.Generator) -> Device:
    """The device tensored with a random junk state on a ``junk_dim``-dim
    register, then conjugated by a Haar-random unitary.  No diagnostic of
    the report may change under this embedding."""
    junk = random_density(junk_dim, rng)
    u = random_unitary(dev.dim * junk_dim, rng)

    def conj(op):
        return u @ op @ u.conj().T

    branches = {basis: [Branch(br.label, br.weight, conj(np.kron(br.state, junk)))
                        for br in brs]
                for basis, brs in dev.branches.items()}
    measurements = {q: {o: conj(np.kron(proj, np.eye(junk_dim))) for o, proj in meas.items()}
                    for q, meas in dev.measurements.items()}
    return Device(dim=dev.dim * junk_dim, branches=branches, measurements=measurements)


def pytest_collection_modifyitems(config, items):
    """Turn every warning in this suite into a failure: an exception in a
    server thread and a file or socket left unclosed both surface as
    warnings, which would otherwise pass quietly."""
    here = Path(__file__).parent
    for item in items:
        if here in item.path.parents:
            # prepended, so a test's own filterwarnings marks still take precedence
            item.add_marker(pytest.mark.filterwarnings("error"), append=False)
