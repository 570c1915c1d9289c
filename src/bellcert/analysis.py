"""White-box soundness diagnostics for device models.

Given a :class:`~bellcert.device.Device` this module computes:

* the hadamard-round pass tuples and their deficits ``gamma_t`` /
  ``gamma_b`` (test cases and cross-parity case respectively), one entry
  per row of ``protocol.CHECKS``;
* state-dependent commutation residuals between the marginal observables;
* the swap isometry built from the marginals, its rounding residuals
  against ideal two-qubit Paulis, and the closeness of the conjugated
  cross-basis branches to shifted Bell states (the certification report).

All quantities are exact traces of small matrices; the only statistical
object here is the interferometric estimator used to cross-check the
commutation residuals by sampling.
"""
from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np

from .device import (Device, ObservableSet, OUTCOME_PAIRS, marginal_observables,
                     sigma, sigma_partial, validate)
from .errors import DimensionMismatchError, ValidationError
from .linalg import (ID2, SIGMA_X, SIGMA_Z, as_operator, bell_state,
                     matrix_to_json, projector_of, state_dep_norm_sq, tensor,
                     trace_distance)
from .protocol import CHECKS, Flag

_DEGENERATE_TRACE = 1e-12


# ---------------------------------------------------------------------------
# pass tuples
# ---------------------------------------------------------------------------

def _pass_probs(device: Device, obs: ObservableSet | None,
                kind: Flag) -> dict[str, float]:
    """Pass probability of each row of ``protocol.CHECKS`` failing as ``kind``.

    A row's observable is its named marginal, or the product of the two
    named marginals of a cross-parity row; each entry sums, over the four
    branch labels of the row's basis, the probability that the observable
    reproduces the label bit of the row's slot on the matching
    subnormalized state.
    """
    if obs is None:
        obs = marginal_observables(device)
    named = obs.named()
    out = {}
    for row in CHECKS:
        if row.fail_flag is not kind:
            continue
        factors = [named[name] for name in row.bucket.split("_")]
        o = factors[0] if len(factors) == 1 else factors[0] @ factors[1]
        total = 0.0
        for label in OUTCOME_PAIRS:
            part = sigma_partial(device, row.basis[0], label[0], row.basis[1], label[1])
            total += float(np.real(np.trace(projector_of(o, label[row.slot]) @ part)))
        out[row.bucket] = total
    return out


def test_tuple(device: Device, obs: ObservableSet | None = None) -> dict[str, float]:
    """Pass probabilities of the single-answer checks in the two mixed bases."""
    return _pass_probs(device, obs, Flag.FAIL_TEST)


def bell_tuple(device: Device, obs: ObservableSet | None = None) -> dict[str, float]:
    """Pass probabilities of the two cross-parity checks in basis (1,1)."""
    return _pass_probs(device, obs, Flag.FAIL_BELL)


def gamma_t(device: Device) -> float:
    return 1.0 - min(test_tuple(device).values())


def gamma_b(device: Device) -> float:
    return 1.0 - min(bell_tuple(device).values())


# ---------------------------------------------------------------------------
# commutation residuals
# ---------------------------------------------------------------------------

def anticomm_residual(device: Device, leg: int, theta1: int, theta2: int,
                      obs: ObservableSet | None = None) -> float:
    """||{Z_leg, X_leg}||^2 on the full state of one basis pair."""
    if obs is None:
        obs = marginal_observables(device)
    z, x = (obs.z1, obs.x1) if leg == 0 else (obs.z2, obs.x2)
    return state_dep_norm_sq(z @ x + x @ z, sigma(device, theta1, theta2))


def comm_residual(device: Device, pair: str, theta1: int, theta2: int,
                  obs: ObservableSet | None = None) -> float:
    """||[A, B]||^2 for the cross-leg pairs 'z1_x2' and 'z2_x1'."""
    if obs is None:
        obs = marginal_observables(device)
    if pair == "z1_x2":
        a, b = obs.z1, obs.x2
    elif pair == "z2_x1":
        a, b = obs.z2, obs.x1
    else:
        raise ValidationError(f"unknown observable pair {pair!r}")
    return state_dep_norm_sq(a @ b - b @ a, sigma(device, theta1, theta2))


# ---------------------------------------------------------------------------
# swap isometry and rounding
# ---------------------------------------------------------------------------

def swap_isometry(obs: ObservableSet) -> np.ndarray:
    """The (4d x d) swap isometry built from the four plain marginals.

    Block (a, b) of the output ancilla is
    ``X2^b (1 + (-1)^b Z2) X1^a (1 + (-1)^a Z1) / 4``; for binary
    observables the column map is always an exact isometry.
    """
    d = obs.z1.shape[0]
    eye = np.eye(d)
    blocks = []
    for a in (0, 1):
        pa = (eye + (-1.0) ** a * obs.z1) / 2.0
        xa = np.linalg.matrix_power(obs.x1, a)
        for b in (0, 1):
            pb = (eye + (-1.0) ** b * obs.z2) / 2.0
            xb = np.linalg.matrix_power(obs.x2, b)
            blocks.append(xb @ pb @ xa @ pa)
    return np.vstack(blocks)


_SINGLE_TARGETS = {
    "z1": tensor(SIGMA_Z, ID2), "x1": tensor(SIGMA_X, ID2),
    "z2": tensor(ID2, SIGMA_Z), "x2": tensor(ID2, SIGMA_X),
    "zt1": tensor(SIGMA_Z, ID2), "xt1": tensor(SIGMA_X, ID2),
    "zt2": tensor(ID2, SIGMA_Z), "xt2": tensor(ID2, SIGMA_X),
}
_PRODUCT_TARGETS = {
    "z1*z2": ("z1", "z2", tensor(SIGMA_Z, SIGMA_Z)),
    "x1*x2": ("x1", "x2", tensor(SIGMA_X, SIGMA_X)),
    "zt1*xt2": ("zt1", "xt2", tensor(SIGMA_Z, SIGMA_X)),
    "xt1*zt2": ("xt1", "zt2", tensor(SIGMA_X, SIGMA_Z)),
}


def pauli_rounding_report(device: Device,
                          obs: ObservableSet | None = None) -> dict[str, float]:
    """Residuals of the swap-rounded observables against two-qubit Paulis.

    Single-observable entries measure ``||V^dag (P x 1) V - O||^2`` on the
    all-claw-free basis state; product entries measure the conjugated form
    ``||V O V^dag - (P x 1)||^2`` on the pushed-forward state.
    """
    if obs is None:
        obs = marginal_observables(device)
    v = swap_isometry(obs)
    d = device.dim
    eyed = np.eye(d)
    state = sigma(device, 1, 1)
    pushed = v @ state @ v.conj().T
    named = obs.named()
    out: dict[str, float] = {}
    for name, pauli in _SINGLE_TARGETS.items():
        rounded = v.conj().T @ tensor(pauli, eyed) @ v
        out[name] = state_dep_norm_sq(rounded - named[name], state)
    for label, (n1, n2, pauli) in _PRODUCT_TARGETS.items():
        conj = v @ (named[n1] @ named[n2]) @ v.conj().T
        out[label] = state_dep_norm_sq(conj - tensor(pauli, eyed), pushed)
    return out


# ---------------------------------------------------------------------------
# certification report
# ---------------------------------------------------------------------------

def _ancilla_outcome_vec(q: int, a: int) -> np.ndarray:
    vec = np.zeros(2, dtype=complex)
    vec[a] = 1.0
    if q == 1:
        vec = np.array([1.0, -1.0 if a else 1.0], dtype=complex) / np.sqrt(2.0)
    return vec


@dataclass
class BellCaseReport:
    label: tuple[int, int]
    branch_trace: float
    state_distance: float
    measurement_distances: dict[str, float]
    xi: np.ndarray
    degenerate: bool

    def to_json(self) -> dict:
        return {"label": list(self.label), "branch_trace": self.branch_trace,
                "state_distance": self.state_distance,
                "measurement_distances": dict(self.measurement_distances),
                "xi": matrix_to_json(self.xi), "degenerate": self.degenerate}


def bell_report(device: Device,
                obs: ObservableSet | None = None) -> list[BellCaseReport]:
    """Distance of each conjugated cross-parity branch from its shifted
    Bell state (tensored with the extracted junk state), plus the same
    comparison after every question/outcome measurement update."""
    if obs is None:
        obs = marginal_observables(device)
    v = swap_isometry(obs)
    d = device.dim
    full = v @ sigma(device, 1, 1) @ v.conj().T  # on C4 (x) C^d

    reports = []
    for s1, s2 in OUTCOME_PAIRS:
        phi = bell_state(s1, s2)
        # contract the ancilla against phi to extract the junk state
        t = full.reshape(4, d, 4, d)
        m = np.einsum("i,ijkl,k->jl", phi.conj(), t, phi)
        tr = float(np.real(np.trace(m)))
        degenerate = tr < _DEGENERATE_TRACE
        xi = np.zeros((d, d), dtype=complex) if degenerate else m / tr

        part = sigma_partial(device, 1, s1, 1, s2)
        pushed = v @ part @ v.conj().T
        ideal = 0.25 * tensor(np.outer(phi, phi.conj()), xi)
        state_distance = trace_distance(pushed, ideal)

        meas_dist: dict[str, float] = {}
        for (q1, q2), meas in device.measurements.items():
            for (a, b), proj in meas.items():
                lhs = v @ (proj @ part @ proj.conj().T) @ v.conj().T
                va = _ancilla_outcome_vec(q1, a)
                vb = _ancilla_outcome_vec(q2, b)
                pi = tensor(np.outer(va, va.conj()), np.outer(vb, vb.conj()))
                rhs = 0.25 * tensor(pi @ np.outer(phi, phi.conj()) @ pi, xi)
                meas_dist[f"q{q1}{q2}_v{a}{b}"] = trace_distance(lhs, rhs)
        reports.append(BellCaseReport(label=(s1, s2), branch_trace=tr,
                                      state_distance=state_distance,
                                      measurement_distances=meas_dist,
                                      xi=xi, degenerate=degenerate))
    return reports


# ---------------------------------------------------------------------------
# sampling cross-check
# ---------------------------------------------------------------------------

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


# ---------------------------------------------------------------------------
# aggregate report
# ---------------------------------------------------------------------------

@dataclass
class AnalysisReport:
    gamma_t: float
    gamma_b: float
    test_entries: dict[str, float]
    bell_entries: dict[str, float]
    anticomm: dict[str, float]
    comm: dict[str, float]
    pauli_rounding: dict[str, float]
    bell_cases: list[BellCaseReport]
    violations: list = field(default_factory=list)

    def to_json(self) -> dict:
        return {
            "gamma_t": self.gamma_t, "gamma_b": self.gamma_b,
            "test_entries": dict(self.test_entries),
            "bell_entries": dict(self.bell_entries),
            "anticomm_residuals": dict(self.anticomm),
            "comm_residuals": dict(self.comm),
            "pauli_rounding": dict(self.pauli_rounding),
            "bell_cases": [c.to_json() for c in self.bell_cases],
            "violations": [{"name": v.name, "magnitude": v.magnitude}
                           for v in self.violations],
        }

    def scalar_rows(self) -> list[tuple[str, float]]:
        rows = [("gamma_t", self.gamma_t), ("gamma_b", self.gamma_b)]
        rows += [(f"test_entry.{k}", v) for k, v in self.test_entries.items()]
        rows += [(f"bell_entry.{k}", v) for k, v in self.bell_entries.items()]
        rows += [(f"anticomm.{k}", v) for k, v in self.anticomm.items()]
        rows += [(f"comm.{k}", v) for k, v in self.comm.items()]
        rows += [(f"pauli.{k}", v) for k, v in self.pauli_rounding.items()]
        for case in self.bell_cases:
            tag = f"bell_case.{case.label[0]}{case.label[1]}"
            rows.append((f"{tag}.state_distance", case.state_distance))
            rows += [(f"{tag}.{k}", v)
                     for k, v in case.measurement_distances.items()]
        return rows

    def write_csv(self, path: str) -> None:
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["quantity", "value"])
            writer.writerows(self.scalar_rows())


def analyze(device: Device) -> AnalysisReport:
    violations = validate(device)
    obs = marginal_observables(device)
    anticomm = {}
    comm = {}
    for t1, t2 in OUTCOME_PAIRS:
        anticomm[f"leg1@{t1}{t2}"] = anticomm_residual(device, 0, t1, t2, obs)
        anticomm[f"leg2@{t1}{t2}"] = anticomm_residual(device, 1, t1, t2, obs)
        comm[f"z1_x2@{t1}{t2}"] = comm_residual(device, "z1_x2", t1, t2, obs)
        comm[f"z2_x1@{t1}{t2}"] = comm_residual(device, "z2_x1", t1, t2, obs)
    test_entries = test_tuple(device, obs)
    bell_entries = bell_tuple(device, obs)
    return AnalysisReport(
        gamma_t=1.0 - min(test_entries.values()),
        gamma_b=1.0 - min(bell_entries.values()),
        test_entries=test_entries,
        bell_entries=bell_entries,
        anticomm=anticomm, comm=comm,
        pauli_rounding=pauli_rounding_report(device, obs),
        bell_cases=bell_report(device, obs),
        violations=violations)
