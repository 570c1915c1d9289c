"""White-box soundness diagnostics for device models.

Given a :class:`~bellcert.device.Device` this module computes:

* the hadamard-round pass tuples and their deficits ``gamma_t`` /
  ``gamma_b`` (test cases and cross-parity case respectively), one entry
  per row of ``protocol.CHECKS``;
* state-dependent commutation residuals between the marginal observables;
* the swap isometry built from the marginals, its rounding residuals
  against ideal two-qubit Paulis, and the closeness of the conjugated
  cross-basis branches to shifted Bell states (the certification report).

All quantities are exact up to floating point: traces of small matrices,
and trace distances taken from low-rank factors of their operands through
one small eigensolve each (see :func:`bell_report`).  The factors keep only
the singular values of the projectors and the eigen-components of the junk
state that ``svd`` and ``eigh`` can tell from 0, so each distance moves by
at most ``d eps ||V||^2 max_o ||P_o||^2 ||part||_1 + (1/8) d^2 eps
max|lambda_xi|``, of order ``d^2 eps`` (below 1e-13 for a valid device at
d = 24).
"""
from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np

from .device import (MARGINALS, OUTCOME_PAIRS, Device, marginal_observables,
                     sigma, sigma_partial, validate)
from .errors import ValidationError
from .linalg import (ID2, SIGMA_X, SIGMA_Z, bell_state,
                     factored_trace_distance, matrix_to_json, outcome_vec,
                     projector_of, rank_factor, signed_factor, state_dep_norm_sq,
                     tensor)
from .protocol import CHECKS, Flag

_DEGENERATE_TRACE = 1e-12


# ---------------------------------------------------------------------------
# pass tuples
# ---------------------------------------------------------------------------

def _pass_probs(device: Device, obs: dict[str, np.ndarray], kind: Flag) -> dict[str, float]:
    """Pass probability of each row of ``protocol.CHECKS`` failing as ``kind``.

    A row's observable is its named marginal, or the product of the two
    named marginals of a cross-parity row; each entry sums, over the four
    branch labels of the row's basis, the probability that the observable
    reproduces the label bit of the row's slot on the matching
    subnormalized state.
    """
    out = {}
    for row in CHECKS:
        if row.fail_flag is not kind:
            continue
        factors = [obs[name] for name in row.bucket.split("_")]
        o = factors[0] if len(factors) == 1 else factors[0] @ factors[1]
        total = 0.0
        for label in OUTCOME_PAIRS:
            part = sigma_partial(device, row.basis[0], label[0], row.basis[1], label[1])
            total += float(np.real(np.trace(projector_of(o, label[row.slot]) @ part)))
        out[row.bucket] = total
    return out


def test_tuple(device: Device, obs: dict[str, np.ndarray]) -> dict[str, float]:
    """Pass probabilities of the single-answer checks in the two mixed bases."""
    return _pass_probs(device, obs, Flag.FAIL_TEST)


def bell_tuple(device: Device, obs: dict[str, np.ndarray]) -> dict[str, float]:
    """Pass probabilities of the two cross-parity checks in basis (1,1)."""
    return _pass_probs(device, obs, Flag.FAIL_BELL)


# ---------------------------------------------------------------------------
# commutation residuals
# ---------------------------------------------------------------------------

def anticomm_residual(device: Device, leg: int, theta1: int, theta2: int,
                      obs: dict[str, np.ndarray]) -> float:
    """||{Z_leg, X_leg}||^2 on the full state of one basis pair (leg 0 or 1)."""
    z, x = obs[f"z{leg + 1}"], obs[f"x{leg + 1}"]
    return state_dep_norm_sq(z @ x + x @ z, sigma(device, theta1, theta2))


def comm_residual(device: Device, pair: str, theta1: int, theta2: int,
                  obs: dict[str, np.ndarray]) -> float:
    """||[A, B]||^2 for the cross-leg pairs 'z1_x2' and 'z2_x1'."""
    if pair not in ("z1_x2", "z2_x1"):
        raise ValidationError(f"unknown observable pair {pair!r}")
    a, b = (obs[name] for name in pair.split("_"))
    return state_dep_norm_sq(a @ b - b @ a, sigma(device, theta1, theta2))


# ---------------------------------------------------------------------------
# swap isometry and rounding
# ---------------------------------------------------------------------------

def swap_isometry(obs: dict[str, np.ndarray]) -> np.ndarray:
    """The (4d x d) swap isometry built from the four plain marginals.

    Block (a, b) of the output ancilla is
    ``X2^b (1 + (-1)^b Z2) X1^a (1 + (-1)^a Z1) / 4``; for binary
    observables the column map is always an exact isometry.
    """
    eye = np.eye(obs["z1"].shape[0])
    blocks = []
    for a in (0, 1):
        pa = (eye + (-1.0) ** a * obs["z1"]) / 2.0
        xa = np.linalg.matrix_power(obs["x1"], a)
        for b in (0, 1):
            pb = (eye + (-1.0) ** b * obs["z2"]) / 2.0
            xb = np.linalg.matrix_power(obs["x2"], b)
            blocks.append(xb @ pb @ xa @ pa)
    return np.vstack(blocks)


def _target(name: str) -> np.ndarray:
    """The two-qubit Pauli a marginal rounds to: Z or X, as the leg's
    question bit asks, on the leg's qubit."""
    q, leg = MARGINALS[name]
    ops = [ID2, ID2]
    ops[leg] = SIGMA_X if q[leg] else SIGMA_Z
    return tensor(*ops)


_TARGETS = {name: _target(name) for name in MARGINALS}
# the marginal pairs whose products are rounded; a product's target is the
# product of its factors' targets, exact since their entries are 0 and +/-1
_PRODUCTS = (("z1", "z2"), ("x1", "x2"), ("zt1", "xt2"), ("xt1", "zt2"))


def pauli_rounding_report(device: Device, obs: dict[str, np.ndarray]) -> dict[str, float]:
    """Residuals of the swap-rounded observables against two-qubit Paulis.

    Single-observable entries measure ``||V^dag (P x 1) V - O||^2`` on the
    all-claw-free basis state; product entries measure the conjugated form
    ``||V O V^dag - (P x 1)||^2`` on the pushed-forward state, taken as
    ``||V O V^dag V - (P x 1) V||^2`` on the state itself, which is the same
    number with no isometry assumed.  ``(P x 1) V`` is the 4x4 Pauli applied
    to V's four ancilla blocks, so no 4d x 4d operand is formed.
    """
    v = swap_isometry(obs)
    d = device.dim
    gram = v.conj().T @ v
    state = sigma(device, 1, 1)

    def on_v(pauli: np.ndarray) -> np.ndarray:
        # V's rows are indexed (ancilla, system), so P x 1 acts on the blocks
        return (pauli @ v.reshape(4, d * d)).reshape(4 * d, d)

    out: dict[str, float] = {}
    for name, pauli in _TARGETS.items():
        out[name] = state_dep_norm_sq(v.conj().T @ on_v(pauli) - obs[name], state)
    for n1, n2 in _PRODUCTS:
        y = v @ (obs[n1] @ obs[n2] @ gram) - on_v(_TARGETS[n1] @ _TARGETS[n2])
        out[f"{n1}*{n2}"] = state_dep_norm_sq(y, state)
    return out


# ---------------------------------------------------------------------------
# certification report
# ---------------------------------------------------------------------------

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


def bell_report(device: Device, obs: dict[str, np.ndarray]) -> list[BellCaseReport]:
    """Distance of each conjugated cross-parity branch from its shifted
    Bell state (tensored with the extracted junk state), plus the same
    comparison after every question/outcome measurement update.

    Each distance is ``(1/2) ||V P part P^dag V^dag - (1/4) (pi phi)(pi phi)^dag
    (x) xi||_1``, with ``P = 1`` and ``pi = 1`` for the state distance.  Both
    operands are taken as factors with hermitian middles for
    :func:`~bellcert.linalg.factored_trace_distance`.  The 16 projectors are
    factored once, ``P = L R`` by :func:`~bellcert.linalg.rank_factor`, so an
    update's left operand is ``(V L) (R part R^dag) (V L)^dag``; the state's is
    ``V part V^dag``.  ``xi`` is factored once per case by
    :func:`~bellcert.linalg.signed_factor` into ``X diag(sx) X^dag``, and the
    right factor is ``(1/2) <u|phi> (u (x) X)`` for the outcome vector ``u``.
    The 16 updates of a case run as one stacked call whose eigensolves have
    side ``rank(P) + rank(xi)`` (12 at d = 24) rather than 4d.  Nothing is
    assumed of the projectors or of the signs of ``part``, so invalid devices
    (non-PSD branches, non-projector measurements) are measured exactly
    too.  The factors drop the singular values ``<= d eps max(s)`` of each
    projector and the eigen-components of ``xi`` with
    ``|lambda| <= d eps max|lambda|``, which ``svd`` and ``eigh`` cannot tell
    from 0; this moves each distance from the dense one by at most
    ``d eps ||V||^2 max_o ||P_o||^2 ||part||_1 + (1/8) d^2 eps max|lambda_xi|``,
    below 1e-13 for a valid device at d = 24 (``||V|| = ||P_o|| = 1``, both
    operands of unit trace at most).
    """
    v = swap_isometry(obs)
    d = device.dim
    full = v @ sigma(device, 1, 1) @ v.conj().T  # on C4 (x) C^d
    names, anc, projs = [], [], []  # per measurement update
    for (q1, q2), meas in device.measurements.items():
        for (a, b), proj in meas.items():
            names.append(f"q{q1}{q2}_v{a}{b}")
            anc.append(np.kron(outcome_vec(q1, a), outcome_vec(q2, b)))
            projs.append(proj)
    anc = np.array(anc)
    left, right = rank_factor(np.array(projs, dtype=complex))
    v_left = v @ left
    right_h = right.conj().swapaxes(-1, -2)

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
        x, sx = signed_factor(xi)
        mx = np.diag(sx)
        # (1/2) <u|phi> (u (x) X) has rows indexed (ancilla, junk), like V
        coef = 0.5 * anc * (anc.conj() @ phi)[:, None]
        g = (coef[:, :, None, None] * x).reshape(len(names), 4 * d, x.shape[1])
        g_state = (0.5 * phi[:, None, None] * x).reshape(4 * d, x.shape[1])

        state_distance = float(factored_trace_distance(v, part, g_state, mx))
        dists = factored_trace_distance(v_left, right @ part @ right_h, g, mx)
        reports.append(BellCaseReport(label=(s1, s2), branch_trace=tr,
                                      state_distance=state_distance,
                                      measurement_distances=dict(zip(names, dists.tolist())),
                                      xi=xi, degenerate=degenerate))
    return reports


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
    """The full white-box report.  A device with violations of infinite
    magnitude (missing branches or outcomes, a bad dimension or label, a
    non-finite weight) has nothing to measure, so it is refused with a
    ``ValidationError`` naming all of them; finite violations are listed in
    the report.  A device whose numbers overflow float64 on the way is
    refused with a ``ValidationError`` too, rather than reported as inf or
    NaN."""
    with np.errstate(over="raise", invalid="raise"):
        try:
            return _analyze(device)
        except FloatingPointError as exc:
            raise ValidationError(f"device overflows the analysis arithmetic: {exc}") from exc


def _analyze(device: Device) -> AnalysisReport:
    violations = validate(device)
    fatal = [v.name for v in violations if v.magnitude == float("inf")]
    if fatal:
        raise ValidationError("device cannot be analyzed: " + "; ".join(fatal))
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
