"""Dense linear algebra for small quantum operators.

Everything here works on plain complex numpy arrays.  Structural checks
(hermiticity, trace, projector/observable laws, here and in
:func:`bellcert.device.validate`) use an absolute tolerance of
``VALIDATION_TOL``; quantities reported by the analysis layer are never
rounded before serialization.
"""
from __future__ import annotations

import numpy as np

from .errors import DimensionMismatchError, ValidationError

VALIDATION_TOL = 1e-10

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
ID2 = np.eye(2, dtype=complex)


def as_operator(a) -> np.ndarray:
    """Coerce to a square complex matrix, rejecting non-finite entries."""
    m = np.asarray(a, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DimensionMismatchError(f"expected a square matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValidationError("matrix contains non-finite entries")
    return m


def check_binary_observable(obs: np.ndarray, *, tol: float = VALIDATION_TOL) -> np.ndarray:
    """Validate a hermitian operator squaring to the identity."""
    obs = as_operator(obs)
    if np.max(np.abs(obs - obs.conj().T)) > tol:
        raise ValidationError("observable is not hermitian")
    if np.max(np.abs(obs @ obs - np.eye(obs.shape[0]))) > tol:
        raise ValidationError("observable does not square to the identity")
    return obs


def tensor(*ops: np.ndarray) -> np.ndarray:
    """Kronecker product of one or more operators."""
    out = as_operator(ops[0])
    for op in ops[1:]:
        out = np.kron(out, as_operator(op))
    return out


def state_dep_norm_sq(a: np.ndarray, psi: np.ndarray) -> float:
    """Squared state-dependent norm Tr[A^dag A psi] of an operator.

    ``psi`` may be subnormalized; only hermiticity/PSD of psi matter for
    the usual inequalities, and we do not re-validate it here.
    """
    a = as_operator(a)
    psi = as_operator(psi)
    if a.shape != psi.shape:
        raise DimensionMismatchError(f"shape mismatch {a.shape} vs {psi.shape}")
    val = float(np.real(np.trace(a.conj().T @ a @ psi)))
    return max(val, 0.0)


def projector_of(obs: np.ndarray, outcome: int) -> np.ndarray:
    """Eigenprojector (1 +/- O)/2 of a binary observable."""
    obs = as_operator(obs)
    sign = 1.0 if outcome == 0 else -1.0
    return (np.eye(obs.shape[0]) + sign * obs) / 2.0


def bell_state(s1: int, s2: int) -> np.ndarray:
    """The four shifted Bell-type states as column vectors.

    The (0,0) member is (|00> + |01> + |10> - |11>)/2; applying bit flips
    X^s1 (x) X^s2 produces the other three.
    """
    v = np.array([1.0, 1.0, 1.0, -1.0], dtype=complex) / 2.0
    flip = tensor(np.linalg.matrix_power(SIGMA_X, s1 % 2),
                  np.linalg.matrix_power(SIGMA_X, s2 % 2))
    return flip @ v


def trace_distance(rho: np.ndarray, sigma: np.ndarray) -> float:
    """(1/2) ||rho - sigma||_1 for hermitian operators."""
    rho = as_operator(rho)
    sigma = as_operator(sigma)
    if rho.shape != sigma.shape:
        raise DimensionMismatchError("operator shapes differ")
    delta = rho - sigma
    if np.max(np.abs(delta - delta.conj().T)) > VALIDATION_TOL:
        raise ValidationError("trace distance requires hermitian operands")
    return 0.5 * float(np.sum(np.abs(np.linalg.eigvalsh((delta + delta.conj().T) / 2))))


def matrix_to_json(m: np.ndarray) -> dict:
    """Serialize a complex matrix to the row-major [re, im] literal form."""
    m = np.asarray(m, dtype=complex)
    if m.ndim == 1:
        m = m.reshape(-1, 1)
    rows, cols = m.shape
    entries = [[float(z.real), float(z.imag)] for z in m.reshape(-1)]
    return {"rows": rows, "cols": cols, "entries": entries}


def matrix_from_json(d: dict) -> np.ndarray:
    try:
        rows, cols = int(d["rows"]), int(d["cols"])
        entries = d["entries"]
    except (KeyError, TypeError) as exc:
        raise ValidationError(f"bad matrix literal: {exc}") from exc
    if len(entries) != rows * cols:
        raise ValidationError(f"matrix literal has {len(entries)} entries, expected {rows * cols}")
    flat = np.array([complex(re, im) for re, im in entries])
    return flat.reshape(rows, cols)


def random_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed unitary via QR of a Ginibre matrix."""
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))
