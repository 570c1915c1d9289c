"""Dense linear algebra for small quantum operators.

Everything here works on plain complex numpy arrays, and the trace and norm
helpers (:func:`trace_prod`, :func:`state_dep_norm_sq`) take stacks of them
with broadcast leading axes.  Structural checks (hermiticity, trace,
projector/observable laws, here and in :func:`bellcert.device.validate`) use
an absolute tolerance of ``VALIDATION_TOL``; quantities reported by the
analysis layer are never rounded before serialization.  Trace distances
between operators given as low-rank factors with hermitian middles, ``F Mf
F^dag - G Mg G^dag``, are taken through a QR of the stacked factor ``[F G]``
that the caller builds (:func:`factored_trace_distance`), which never forms
the full-size operands and runs over stacks of them in one call.  The
factors of :func:`signed_factor` (eigen-components) and :func:`rank_factor`
(singular triplets) run one batched Householder QR over their stack, drop
the rows of R at rounding level and decompose only the small block that is
left (the QR-preprocessed SVD of Chan, ACM TOMS 8, 1982).  That small
``eigh`` or ``svd`` keeps only what it resolves from 0 (the
``numpy.linalg.matrix_rank`` rule), so a factor's width is the operand's
numerical rank; what is dropped lies within rounding, and moves a trace
distance by at most order ``n^2 eps`` times the largest eigenvalue or
squared singular value involved (``n`` the operand side, ``eps`` the float64
machine epsilon).
"""
from __future__ import annotations

import numpy as np

from .errors import DimensionMismatchError, ValidationError

VALIDATION_TOL = 1e-10
_EPS = np.finfo(float).eps

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
ID2 = np.eye(2, dtype=complex)


def as_operator(a) -> np.ndarray:
    """Coerce to a square complex matrix, rejecting non-finite entries."""
    m = np.asarray(a, dtype=complex)
    if m.ndim != 2:
        raise DimensionMismatchError(f"expected a matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValidationError("matrix contains non-finite entries")
    if m.shape[0] != m.shape[1]:
        raise DimensionMismatchError(f"expected a square matrix, got shape {m.shape}")
    return m


def tensor(*ops: np.ndarray) -> np.ndarray:
    """Kronecker product of one or more operators."""
    out = as_operator(ops[0])
    for op in ops[1:]:
        out = np.kron(out, as_operator(op))
    return out


def trace_prod(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Tr[A B] for each pair of a stack, broadcast over the leading axes.

    Taken as the sum of the entrywise product of ``A`` and ``B^T``, so it
    costs one pass over the entries and, unlike ``einsum``, raises under
    ``np.errstate`` when the products overflow.
    """
    return np.sum(a * b.swapaxes(-1, -2), axis=(-2, -1))


def state_dep_norm_sq(a: np.ndarray, psi: np.ndarray) -> np.ndarray | np.floating:
    """Squared state-dependent norm Tr[A^dag A psi] of an operator.

    ``A`` may map into a larger space (any row count, one column per
    dimension of ``psi``), as an operator composed with an isometry does.
    Both arguments may be stacks with leading axes that broadcast against
    each other; the result has their broadcast shape, a float for single
    operands.  ``psi`` may be subnormalized; only hermiticity/PSD of psi
    matter for the usual inequalities, and we do not re-validate it here.
    """
    a = np.asarray(a, dtype=complex)
    psi = np.asarray(psi, dtype=complex)
    if a.ndim < 2 or psi.ndim < 2 or psi.shape[-2] != psi.shape[-1] \
            or a.shape[-1] != psi.shape[-2]:
        raise DimensionMismatchError(f"shape mismatch {a.shape} vs {psi.shape}")
    if not (np.all(np.isfinite(a)) and np.all(np.isfinite(psi))):
        raise ValidationError("matrix contains non-finite entries")
    val = trace_prod(a.conj().swapaxes(-1, -2) @ a, psi).real
    return np.maximum(val, 0.0)


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


def _as_stack(a) -> np.ndarray:
    """Coerce to a stack of square complex matrices (shape ``(..., n, n)``),
    rejecting non-finite entries."""
    m = np.asarray(a, dtype=complex)
    if m.ndim < 2 or m.shape[-1] != m.shape[-2]:
        raise DimensionMismatchError(f"expected square matrices, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValidationError("matrix contains non-finite entries")
    return m


def _kept_rows(r: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The rows of each matrix of a stack ``r`` (shape ``(..., n, n)``) whose
    norm exceeds ``n eps`` times its largest row's.  Returns their indices
    first, cut to the most rows that any matrix keeps, as ``(..., m)``, and
    which of those indices are kept rows (the others pad narrower matrices)."""
    norms = np.linalg.norm(r, axis=-1)
    keep = norms > r.shape[-1] * _EPS * norms.max(axis=-1, keepdims=True, initial=0.0)
    m = int(np.count_nonzero(keep, axis=-1).max(initial=0))
    rows = np.argsort(~keep, axis=-1, kind="stable")[..., :m]
    return rows, np.take_along_axis(keep, rows, axis=-1)


def signed_factor(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Factor each hermitian matrix of a stack ``a`` (shape ``(..., n, n)``)
    as ``W diag(s) W^dag`` with ``s`` in {-1, 1}.

    ``W`` holds eigenvectors scaled by ``sqrt(|lambda|)`` and ``s`` the
    eigenvalue signs, so an indefinite operand factors too.  With the
    Householder QR ``a = Q R``, the columns ``Y`` of Q whose rows of R are
    above ``n eps`` times the largest row (``n`` the side, ``eps`` the float64
    machine epsilon) span a's range up to rounding, and the small
    ``Y^dag a Y`` takes one ``eigh``.  Of its eigen-components only those with
    ``|lambda| > n eps max|lambda|`` are kept (the ``numpy.linalg.matrix_rank``
    rule), largest ``|lambda|`` first, so ``W`` is ``(..., n, k)`` and ``s``
    ``(..., k)`` for the widest numerical rank ``k`` in the stack; a narrower
    matrix, a zero one included, gets zero columns of sign 0.  Each dropped
    row of R has norm at most ``n eps max|lambda|``, so the rows and the
    components dropped move ``a`` by at most ``2 n^2 eps max|lambda|`` in
    trace norm.  A non-finite or non-hermitian operand is refused with a
    ``ValidationError``.
    """
    a = _as_stack(a)
    ah = a.conj().swapaxes(-1, -2)
    if np.max(np.abs(a - ah), initial=0.0) > VALIDATION_TOL:
        raise ValidationError("signed factorization requires a hermitian operand")
    a = (a + ah) / 2
    q, r = np.linalg.qr(a)
    rows, kept = _kept_rows(r)
    y = np.take_along_axis(q, rows[..., None, :], axis=-1) * kept[..., None, :]
    lam, u = np.linalg.eigh(y.conj().swapaxes(-1, -2) @ a @ y)
    order = np.argsort(-np.abs(lam), axis=-1, kind="stable")
    lam = np.take_along_axis(lam, order, axis=-1)
    mag = np.abs(lam)
    keep = mag > a.shape[-1] * _EPS * mag[..., :1]
    k = int(np.count_nonzero(keep, axis=-1).max(initial=0))
    keep, u = keep[..., :k], np.take_along_axis(u, order[..., None, :k], axis=-1)
    w = (y @ u) * (np.sqrt(mag[..., :k]) * keep)[..., None, :]
    return w, np.where(keep, np.sign(lam[..., :k]), 0.0)


def rank_factor(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Factor each matrix of a stack ``a`` (shape ``(..., n, n)``) as ``L R``.

    The rows of the Householder QR factor of ``a`` above ``n eps`` times the
    largest row (``n`` the side, ``eps`` the float64 machine epsilon) span its
    row space up to rounding, and their small SVD gives the right singular
    vectors: ``R = Vh`` and ``L = a Vh^dag``.  The singular values ``s <= n eps
    max(s)`` of each matrix are dropped (the ``numpy.linalg.matrix_rank``
    rule) and every factor is cut to the widest rank kept in the stack: ``L``
    is ``(..., n, k)`` and ``R`` ``(..., k, n)``.  The kept values are a prefix
    of the sorted ``s``, so a narrower matrix only gets zero columns in ``L``.
    The row cut alone is not a rank decision: an unpivoted QR can leave more
    rows above it than the rank (columns ``[a, a, b]`` keep three), so the
    SVD decides.  Both factors are compact arrays.  Nothing is assumed of the
    matrices (no hermiticity, no projector law), but a non-finite entry is
    refused with a ``ValidationError``; the at most ``n`` dropped rows move
    ``a`` by at most ``n^{3/2} eps ||a||_2`` and the dropped values by ``n eps
    ||a||_2``, in operator norm.
    """
    a = _as_stack(a)
    r = np.linalg.qr(a, mode="r")
    rows, kept = _kept_rows(r)
    top = np.take_along_axis(r, rows[..., None], axis=-2) * kept[..., None]
    _, s, vh = np.linalg.svd(top, full_matrices=False)
    keep = s > a.shape[-1] * _EPS * s[..., :1]
    k = int(np.count_nonzero(keep, axis=-1).max(initial=0))
    vh = vh[..., :k, :].copy()
    return (a @ vh.conj().swapaxes(-1, -2)) * keep[..., None, :k], vh


def _hermitian_part(m: np.ndarray) -> np.ndarray:
    # relative to the entries' scale (at least 1), so that the rounding of a
    # computed middle such as R rho R^dag is never taken for a violation
    mh = m.conj().swapaxes(-1, -2)
    scale = max(1.0, float(np.max(np.abs(m), initial=0.0)))
    if np.max(np.abs(m - mh), initial=0.0) > VALIDATION_TOL * scale:
        raise ValidationError("factored trace distance requires hermitian middle matrices")
    return (m + mh) / 2


def factored_trace_distance(fg: np.ndarray, mf: np.ndarray,
                            mg: np.ndarray) -> np.ndarray | np.floating:
    """(1/2) ||F Mf F^dag - G Mg G^dag||_1 without forming either operand.

    ``fg`` is the stacked factor ``[F G]``: F's columns, then G's, their
    widths read from the middles.  ``Mf`` and ``Mg`` are hermitian
    (indefinite is fine; an asymmetry beyond ``VALIDATION_TOL`` times their
    largest entry, or 1, is refused).  All three arguments may be stacks
    with leading axes that broadcast (a middle may be a single matrix, shared
    by the stack); the result has the broadcast shape, a float for single
    operands.  With ``[F G] = QR`` the difference is ``Q (R D R^dag) Q^dag``
    for ``D = blockdiag(Mf, -Mg)``.  Q has orthonormal columns, so the
    nonzero eigenvalues of the difference are those of the small hermitian
    ``R D R^dag``, whose side is at most the summed widths of F and G; it is
    formed from R's column blocks, ``R_F Mf R_F^dag - R_G Mg R_G^dag``.  The
    QR is taken of ``fg`` as given, so a caller that fills one ``[F G]``
    buffer in place can reuse it across calls.
    """
    a, b = mf.shape[-1], mg.shape[-1]
    if mf.shape[-2:] != (a, a) or mg.shape[-2:] != (b, b):
        raise DimensionMismatchError("middle matrices are not square")
    if fg.ndim < 2 or fg.shape[-1] != a + b:
        raise DimensionMismatchError(f"middle widths {a} + {b} do not sum to the factor's "
                                     f"width, shape {fg.shape}")
    r = np.linalg.qr(fg, mode="r")
    rf, rg = r[..., :a], r[..., a:]
    m = (rf @ _hermitian_part(mf) @ rf.conj().swapaxes(-1, -2)
         - rg @ _hermitian_part(mg) @ rg.conj().swapaxes(-1, -2))
    return 0.5 * np.sum(np.abs(np.linalg.eigvalsh(m)), axis=-1)


def matrix_to_json(m: np.ndarray) -> dict:
    """Serialize a complex matrix to the row-major [re, im] literal form."""
    m = np.asarray(m, dtype=complex)
    if m.ndim == 1:
        m = m.reshape(-1, 1)
    rows, cols = m.shape
    entries = np.stack([m.real, m.imag], -1).reshape(-1, 2).tolist()
    return {"rows": rows, "cols": cols, "entries": entries}


def matrix_from_json(d: dict) -> np.ndarray:
    """Parse the literal of :func:`matrix_to_json`.

    ``rows`` and ``cols`` must be plain ints of at least 1 and each entry a
    list of exactly two plain ints or floats; bools, strings and anything
    else are refused with ``ValidationError``, never coerced.
    """
    try:
        rows, cols, entries = d["rows"], d["cols"], d["entries"]
    except (KeyError, TypeError) as exc:
        raise ValidationError(f"bad matrix literal: {exc}") from exc
    for name, n in (("rows", rows), ("cols", cols)):
        if type(n) is not int or n < 1:
            raise ValidationError(f"matrix {name} {n!r} is not a positive integer")
    if type(entries) is not list or len(entries) != rows * cols:
        raise ValidationError(f"matrix literal needs a list of {rows * cols} entries")
    for e in entries:
        if type(e) is not list or len(e) != 2 or any(type(x) not in (int, float) for x in e):
            raise ValidationError(f"matrix entry {e!r} is not a pair of numbers")
    try:
        flat = np.array(entries, dtype=float)
    except OverflowError as exc:
        raise ValidationError(f"matrix entry out of range: {exc}") from exc
    return flat.view(complex).reshape(rows, cols)
