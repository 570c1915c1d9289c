"""Dense linear algebra for small quantum operators.

Everything here works on plain complex numpy arrays.  Structural checks
(hermiticity, trace, projector/observable laws, here and in
:func:`bellcert.device.validate`) use an absolute tolerance of
``VALIDATION_TOL``; quantities reported by the analysis layer are never
rounded before serialization.  Trace distances between operators given as
low-rank factors (:func:`signed_factor`) are taken through a QR of the
stacked factors (:func:`factored_trace_distance`), which never forms the
full-size operands.  The factors keep only the eigen-components that
``eigh`` resolves from 0 (:func:`signed_factor`), so their width is the
operand's numerical rank; what is dropped lies within ``eigh``'s own error,
and moves a trace distance by at most ``(1/2) n^2 eps`` times the largest
eigenvalue magnitudes involved (``n`` the operand side, ``eps`` the float64
machine epsilon).
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


def outcome_vec(q: int, a: int) -> np.ndarray:
    """The eigenvector of Z (q = 0) or X (q = 1) with eigenvalue (-1)^a."""
    if q:
        return np.array([1.0, -1.0 if a else 1.0], dtype=complex) / np.sqrt(2.0)
    return np.eye(2, dtype=complex)[a]


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


def signed_factor(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Factor a hermitian operator as ``W diag(s) W^dag`` with ``s`` in {-1, 1}.

    ``W`` holds the eigenvectors scaled by ``sqrt(|lambda|)`` and ``s`` the
    eigenvalue signs, so an indefinite operator factors too.  Only the
    eigen-components with ``|lambda| > n eps max|lambda|`` are kept (``n``
    the operand's side, ``eps`` the float64 machine epsilon; the
    ``numpy.linalg.matrix_rank`` rule), so ``W`` is as wide as the
    operand's numerical rank and a zero operand gives a zero-width factor.
    ``eigh`` knows each eigenvalue only to about ``n eps ||a||_2``, so a
    dropped component is indistinguishable from 0; dropping at most ``n``
    of them moves the operand by at most ``n^2 eps max|lambda|`` in trace
    norm.
    """
    a = as_operator(a)
    if np.max(np.abs(a - a.conj().T)) > VALIDATION_TOL:
        raise ValidationError("signed factorization requires a hermitian operand")
    lam, u = np.linalg.eigh((a + a.conj().T) / 2)
    mag = np.abs(lam)
    keep = mag > a.shape[0] * np.finfo(float).eps * mag.max(initial=0.0)
    return u[:, keep] * np.sqrt(mag[keep]), np.sign(lam[keep])


def factored_trace_distance(f: np.ndarray, sf: np.ndarray,
                            g: np.ndarray, sg: np.ndarray) -> float:
    """(1/2) ||F diag(sf) F^dag - G diag(sg) G^dag||_1 without forming either operand.

    With ``[F G] = QR`` the difference is ``Q (R D R^dag) Q^dag`` for
    ``D = diag(sf, -sg)``.  Q has orthonormal columns, so the nonzero
    eigenvalues of the difference are those of the small hermitian
    ``R D R^dag``, whose side is at most the summed widths of F and G.
    """
    if f.shape[0] != g.shape[0]:
        raise DimensionMismatchError("factors have different row counts")
    r = np.linalg.qr(np.hstack([f, g]), mode="r")
    m = (r * np.concatenate([sf, -sg])) @ r.conj().T
    return 0.5 * float(np.sum(np.abs(np.linalg.eigvalsh(m))))


def matrix_to_json(m: np.ndarray) -> dict:
    """Serialize a complex matrix to the row-major [re, im] literal form."""
    m = np.asarray(m, dtype=complex)
    if m.ndim == 1:
        m = m.reshape(-1, 1)
    rows, cols = m.shape
    entries = np.stack([m.real, m.imag], -1).reshape(-1, 2).tolist()
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
