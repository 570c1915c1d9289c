from __future__ import annotations

import warnings
from pathlib import Path

import numpy as np
import pytest

from bellcert import analysis
from bellcert.device import (BASIS_PAIRS, OUTCOME_PAIRS, QUESTION_PAIRS, Branch, Device,
                             Violation, marginal_observables, sigma, sigma_partial)
from bellcert.errors import DimensionMismatchError, ValidationError
from bellcert.linalg import (VALIDATION_TOL, as_operator, projector_of, state_dep_norm_sq,
                             tensor)
from bellcert.protocol import CHECKS

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


# ---------------------------------------------------------------------------
# dense references: the per-entry loops that the white-box code takes as stacks
# ---------------------------------------------------------------------------

def dense_validate(device: Device) -> list[Violation]:
    """``device.validate`` as one loop over branches and projectors, one
    matrix at a time.  For devices whose matrices all have the device's
    shape and finite entries (``as_operator`` refuses the others)."""
    out: list[Violation] = []
    eye = np.eye(device.dim)
    for basis in BASIS_PAIRS:
        branches = device.branches.get(basis)
        if not branches:
            out.append(Violation(f"branches[{basis}] missing", float("inf")))
            continue
        total = 0.0
        for br in branches:
            total += br.weight
            if tuple(br.label) not in OUTCOME_PAIRS:
                out.append(Violation(f"branch {basis}/{br.label} label", float("inf")))
            if not np.isfinite(br.weight):
                out.append(Violation(f"branch {basis}/{br.label} weight", float("inf")))
            elif br.weight < -VALIDATION_TOL:
                out.append(Violation(f"branch {basis}/{br.label} weight", -br.weight))
            st = as_operator(br.state)
            if st.shape != (device.dim, device.dim):
                out.append(Violation(f"branch {basis}/{br.label} dim", float("inf")))
                continue
            herm = float(np.max(np.abs(st - st.conj().T)))
            if herm > VALIDATION_TOL:
                out.append(Violation(f"branch {basis}/{br.label} hermiticity", herm))
            else:
                low = float(np.linalg.eigvalsh(st).min())
                if low < -VALIDATION_TOL:
                    out.append(Violation(f"branch {basis}/{br.label} positivity", -low))
            tr_err = abs(float(np.real(np.trace(st))) - 1.0)
            if tr_err > VALIDATION_TOL:
                out.append(Violation(f"branch {basis}/{br.label} trace", tr_err))
        if abs(total - 1.0) > VALIDATION_TOL:
            out.append(Violation(f"branches[{basis}] weight sum", abs(total - 1.0)))
    for q in QUESTION_PAIRS:
        meas = device.measurements.get(q)
        if not meas or set(meas) != set(OUTCOME_PAIRS):
            out.append(Violation(f"measurements[{q}] outcomes", float("inf")))
            continue
        acc = np.zeros((device.dim, device.dim), dtype=complex)
        for outcome, proj in meas.items():
            proj = as_operator(proj)
            idem = float(np.max(np.abs(proj @ proj - proj)))
            herm = float(np.max(np.abs(proj - proj.conj().T)))
            if max(idem, herm) > VALIDATION_TOL:
                out.append(Violation(f"measurements[{q}][{outcome}] projector",
                                     max(idem, herm)))
            acc = acc + proj
        comp = float(np.max(np.abs(acc - eye)))
        if comp > VALIDATION_TOL:
            out.append(Violation(f"measurements[{q}] completeness", comp))
        for i, oa in enumerate(OUTCOME_PAIRS):
            for ob in OUTCOME_PAIRS[i + 1:]:
                ortho = float(np.max(np.abs(meas[oa] @ meas[ob])))
                if ortho > VALIDATION_TOL:
                    out.append(Violation(f"measurements[{q}] orthogonality "
                                         f"{oa}/{ob}", ortho))
    return out


def dense_residuals(device: Device, obs: dict[str, np.ndarray]) -> tuple[dict, dict]:
    """The anticommutator and commutator residuals of ``analysis.analyze``,
    keyed as in its report, one ``sigma`` and one ``state_dep_norm_sq`` per
    entry."""
    anticomm, comm = {}, {}
    for t1, t2 in BASIS_PAIRS:
        for leg in (0, 1):
            z, x = obs[f"z{leg + 1}"], obs[f"x{leg + 1}"]
            anticomm[f"leg{leg + 1}@{t1}{t2}"] = state_dep_norm_sq(z @ x + x @ z,
                                                                  sigma(device, t1, t2))
        for pair in analysis.COMM_PAIRS:
            a, b = (obs[name] for name in pair.split("_"))
            comm[f"{pair}@{t1}{t2}"] = state_dep_norm_sq(a @ b - b @ a, sigma(device, t1, t2))
    return anticomm, comm


def dense_pass_probs(device: Device, obs: dict[str, np.ndarray]) -> dict[str, float]:
    """Every pass-tuple entry of ``protocol.CHECKS``, one ``sigma_partial``,
    ``projector_of`` and trace per row and branch label."""
    out = {}
    for row in CHECKS:
        factors = [obs[name] for name in row.bucket.split("_")]
        o = factors[0] if len(factors) == 1 else factors[0] @ factors[1]
        total = 0.0
        for label in OUTCOME_PAIRS:
            part = sigma_partial(device, row.basis[0], label[0], row.basis[1], label[1])
            total += float(np.real(np.trace(projector_of(o, label[row.slot]) @ part)))
        out[row.bucket] = total
    return out


def dense_pauli_rounding(device: Device, obs: dict[str, np.ndarray]) -> dict[str, float]:
    """``analysis.pauli_rounding_report`` one entry at a time, from the full
    (4d x 4d) operands ``P x 1`` and ``V O V^dag``."""
    v = analysis.swap_isometry(obs)
    eyed = np.eye(device.dim)
    state = sigma(device, 1, 1)
    pushed = v @ state @ v.conj().T
    out = {}
    for name, pauli in analysis._TARGETS.items():
        out[name] = state_dep_norm_sq(v.conj().T @ tensor(pauli, eyed) @ v - obs[name], state)
    for n1, n2 in analysis._PRODUCTS:
        conj = v @ (obs[n1] @ obs[n2]) @ v.conj().T
        pauli = analysis._TARGETS[n1] @ analysis._TARGETS[n2]
        out[f"{n1}*{n2}"] = state_dep_norm_sq(conj - tensor(pauli, eyed), pushed)
    return out


def pytest_collection_modifyitems(config, items):
    """Turn every warning in this suite into a failure: an exception in a
    server thread and a file or socket left unclosed both surface as
    warnings, which would otherwise pass quietly."""
    here = Path(__file__).parent
    for item in items:
        if here in item.path.parents:
            # prepended, so a test's own filterwarnings marks still take precedence
            item.add_marker(pytest.mark.filterwarnings("error"), append=False)
