"""White-box soundness diagnostics for device models.

Given a :class:`~bellcert.device.Device` this module computes:

* the hadamard-round pass tuples and their deficits ``gamma_t`` /
  ``gamma_b`` (test cases and cross-parity case respectively), one entry
  per row of ``protocol.CHECKS``;
* state-dependent commutation residuals between the marginal observables;
* the swap isometry built from the marginals, its rounding residuals
  against ideal two-qubit Paulis, and the closeness of the conjugated
  cross-basis branches to shifted Bell states (the certification report).

:func:`analyze` builds each input once: the marginals, the stack of the four
full states ``sigma(theta)``, each basis's four partial states (in the
pass tuples and the Bell report) and the swap isometry, which the Pauli and
Bell reports share with ``sigma(1, 1)``.  Outside :func:`bell_report` every
quantity is one stacked numpy pass: each (anti)commutator is formed once
and traced against all four full states in one contraction, a pass-tuple
row's four traces are one contraction, and the twelve Pauli residuals are
two stacked :func:`~bellcert.linalg.state_dep_norm_sq` calls.

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
import functools
from dataclasses import dataclass, field

import numpy as np

from .device import (BASIS_PAIRS, MARGINALS, OUTCOME_PAIRS, QUESTION_PAIRS, Device,
                     marginal_observables, sigma, sigma_partial, validate)
from .errors import ValidationError
from .linalg import (ID2, SIGMA_X, SIGMA_Z, bell_state,
                     factored_trace_distance, matrix_to_json, outcome_vec,
                     rank_factor, signed_factor, state_dep_norm_sq, tensor,
                     trace_prod)
from .protocol import CHECKS, Flag

_DEGENERATE_TRACE = 1e-12


# ---------------------------------------------------------------------------
# pass tuples
# ---------------------------------------------------------------------------

# (-1)^v for the bit v in slot 0 (row 0) and slot 1 (row 1) of each label
# of OUTCOME_PAIRS
_LABEL_SIGNS = np.array([[(-1.0) ** label[slot] for label in OUTCOME_PAIRS] for slot in (0, 1)])


def _pass_probs(device: Device, obs: dict[str, np.ndarray], kind: Flag) -> dict[str, float]:
    """Pass probability of each row of ``protocol.CHECKS`` failing as ``kind``.

    A row's observable is its named marginal, or the product of the two
    named marginals of a cross-parity row; each entry sums, over the four
    branch labels of the row's basis, the probability that the observable
    reproduces the label bit of the row's slot on the matching
    subnormalized state.  Each basis's four partial states are built once,
    and a row's four traces are one contraction of the stacked projectors
    ``(1 +/- O)/2`` against them.
    """
    rows = [row for row in CHECKS if row.fail_flag is kind]
    parts = {basis: np.array([sigma_partial(device, basis[0], v1, basis[1], v2)
                              for v1, v2 in OUTCOME_PAIRS])
             for basis in dict.fromkeys(row.basis for row in rows)}
    eye = np.eye(device.dim)
    out = {}
    for row in rows:
        factors = [obs[name] for name in row.bucket.split("_")]
        o = factors[0] if len(factors) == 1 else factors[0] @ factors[1]
        projs = (eye + _LABEL_SIGNS[row.slot][:, None, None] * o) / 2.0
        out[row.bucket] = float(trace_prod(projs, parts[row.basis]).real.sum())
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

COMM_PAIRS = ("z1_x2", "z2_x1")


def _on_bases(a: np.ndarray, states: np.ndarray) -> dict[tuple[int, int], float]:
    """Tr[A^dag A sigma] on each basis pair's full state, as one contraction
    against the stack ``states`` (in ``BASIS_PAIRS`` order); clamped at 0
    like :func:`~bellcert.linalg.state_dep_norm_sq`."""
    vals = np.maximum(trace_prod(a.conj().T @ a, states).real, 0.0)
    return dict(zip(BASIS_PAIRS, vals.tolist()))


def anticomm_residual(states: np.ndarray, leg: int,
                      obs: dict[str, np.ndarray]) -> dict[tuple[int, int], float]:
    """||{Z_leg, X_leg}||^2 (leg 0 or 1) on the full state of each basis
    pair, keyed by the pair; ``states`` stacks ``sigma`` in ``BASIS_PAIRS``
    order."""
    z, x = obs[f"z{leg + 1}"], obs[f"x{leg + 1}"]
    return _on_bases(z @ x + x @ z, states)


def comm_residual(states: np.ndarray, pair: str,
                  obs: dict[str, np.ndarray]) -> dict[tuple[int, int], float]:
    """||[A, B]||^2 for a cross-leg pair of :data:`COMM_PAIRS` on the full
    state of each basis pair, as :func:`anticomm_residual`."""
    if pair not in COMM_PAIRS:
        raise ValidationError(f"unknown observable pair {pair!r}")
    a, b = (obs[name] for name in pair.split("_"))
    return _on_bases(a @ b - b @ a, states)


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


def pauli_rounding_report(obs: dict[str, np.ndarray], v: np.ndarray,
                          state: np.ndarray) -> dict[str, float]:
    """Residuals of the swap-rounded observables against two-qubit Paulis.

    ``v`` is :func:`swap_isometry` of ``obs`` and ``state`` the all-claw-free
    basis state ``sigma(1, 1)``.  Single-observable entries measure
    ``||V^dag (P x 1) V - O||^2`` on that state; product entries measure the
    conjugated form ``||V O V^dag - (P x 1)||^2`` on the pushed-forward
    state, taken as ``||V O V^dag V - (P x 1) V||^2`` on the state itself,
    which is the same number with no isometry assumed.  ``(P x 1) V`` is the
    4x4 Pauli applied to V's four ancilla blocks, so no 4d x 4d operand is
    formed.  The eight single and four product residuals are two stacked
    calls of :func:`~bellcert.linalg.state_dep_norm_sq`.
    """
    d = v.shape[1]

    def on_v(paulis: np.ndarray) -> np.ndarray:
        # V's rows are indexed (ancilla, system), so P x 1 acts on the blocks
        return (paulis @ v.reshape(4, d * d)).reshape(len(paulis), 4 * d, d)

    singles = (v.conj().T @ on_v(np.array(list(_TARGETS.values())))
               - np.array([obs[n] for n in _TARGETS]))
    products = np.array([obs[n1] @ obs[n2] for n1, n2 in _PRODUCTS])
    y = (v @ (products @ (v.conj().T @ v))
         - on_v(np.array([_TARGETS[n1] @ _TARGETS[n2] for n1, n2 in _PRODUCTS])))
    names = list(_TARGETS) + [f"{n1}*{n2}" for n1, n2 in _PRODUCTS]
    vals = np.concatenate([state_dep_norm_sq(singles, state), state_dep_norm_sq(y, state)])
    return dict(zip(names, vals.tolist()))


# ---------------------------------------------------------------------------
# certification report
# ---------------------------------------------------------------------------

@functools.cache
def _bell_vectors() -> tuple[dict, dict]:
    """The ancilla vector u (x) u' of each question pair (q1, q2) and
    outcome (a, b), and the shifted Bell state of each cross-parity label.
    Built on the first Bell report rather than at import, and read-only,
    since every report shares them."""
    anc = {(q1, q2, a, b): np.kron(outcome_vec(q1, a), outcome_vec(q2, b))
           for q1, q2 in QUESTION_PAIRS for a, b in OUTCOME_PAIRS}
    phis = {label: bell_state(*label) for label in OUTCOME_PAIRS}
    for vec in (*anc.values(), *phis.values()):
        vec.flags.writeable = False
    return anc, phis


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


def bell_report(device: Device, v: np.ndarray, state: np.ndarray) -> list[BellCaseReport]:
    """Distance of each conjugated cross-parity branch from its shifted
    Bell state (tensored with the extracted junk state), plus the same
    comparison after every question/outcome measurement update.  ``v`` is
    the :func:`swap_isometry` of the device's marginals and ``state`` its
    full state ``sigma(1, 1)``.

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
    d = device.dim
    full = v @ state @ v.conj().T  # on C4 (x) C^d
    anc_of, phi_of = _bell_vectors()
    names, anc, projs = [], [], []  # per measurement update
    for (q1, q2), meas in device.measurements.items():
        for (a, b), proj in meas.items():
            names.append(f"q{q1}{q2}_v{a}{b}")
            anc.append(anc_of[q1, q2, a, b])
            projs.append(proj)
    anc = np.array(anc)
    left, right = rank_factor(np.array(projs, dtype=complex))
    v_left = v @ left
    right_h = right.conj().swapaxes(-1, -2)

    reports = []
    for s1, s2 in OUTCOME_PAIRS:
        phi = phi_of[s1, s2]
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
    states = np.array([sigma(device, *basis) for basis in BASIS_PAIRS])
    legs = [anticomm_residual(states, leg, obs) for leg in (0, 1)]
    pairs = {pair: comm_residual(states, pair, obs) for pair in COMM_PAIRS}
    v = swap_isometry(obs)
    state = states[BASIS_PAIRS.index((1, 1))]
    test_entries = test_tuple(device, obs)
    bell_entries = bell_tuple(device, obs)
    return AnalysisReport(
        gamma_t=1.0 - min(test_entries.values()),
        gamma_b=1.0 - min(bell_entries.values()),
        test_entries=test_entries,
        bell_entries=bell_entries,
        anticomm={f"leg{leg + 1}@{t1}{t2}": legs[leg][t1, t2]
                  for t1, t2 in BASIS_PAIRS for leg in (0, 1)},
        comm={f"{pair}@{t1}{t2}": res[t1, t2]
              for t1, t2 in BASIS_PAIRS for pair, res in pairs.items()},
        pauli_rounding=pauli_rounding_report(obs, v, state),
        bell_cases=bell_report(device, v, state),
        violations=violations)
