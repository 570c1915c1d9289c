"""White-box soundness diagnostics for device models.

Given a :class:`~bellcert.device.Device` this module computes:

* the hadamard-round pass tuples and their deficits ``gamma_t`` /
  ``gamma_b`` (test cases and cross-parity case respectively), one entry
  per row of ``protocol.CHECKS``: the Born probability that the verdict
  rule ``Check.passes`` accepts the device's answers;
* state-dependent commutation residuals between the marginal observables;
* the swap isometry built from the marginals, its rounding residuals
  against ideal two-qubit Paulis, and the closeness of the conjugated
  cross-basis branches to shifted Bell states (the certification report).

:func:`analyze` reads a device only as its two stacks (``partial_states``
and ``projectors`` of :mod:`bellcert.device`) and builds each input once:
their Born table ``answer_probs``, which both pass tuples read, the
marginals, the full states ``parts.sum(1)`` and the swap isometry, which
the Pauli and Bell reports share.  Outside :func:`bell_report` every
quantity is one stacked numpy pass: each (anti)commutator is formed once
and traced against all four full states in one contraction, and the twelve
Pauli residuals are two stacked ``state_dep_norm_sq`` calls.

All quantities are exact up to floating point: traces of small matrices,
and trace distances taken from low-rank factors of their operands, each in
the unitary frame of its ancilla vector, through one small eigensolve each:
two stacked calls, 64 update and four state distances (see
:func:`bell_report`).  The projectors and the junk states are factored
through one batched QR each, and the factors keep only the singular values
and eigen-components above rounding level, so each distance moves by at
most ``(d^{3/2} + d) eps ||V||^2 max_o ||P_o||^2 ||part||_1 + (1/4) d^2 eps
max|lambda_xi|``, of order ``d^2 eps`` (below 1e-13 for a valid device at
d = 24).

The JSON form of a report (:meth:`AnalysisReport.to_json`) writes each Bell
case's junk state by its spectrum, the eigenvalues that its factor keeps:
the certified state is fixed only up to a change of basis on the junk
register.  The d x d matrix stays on the in-memory :class:`BellCaseReport`.
"""
from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np

from .device import (BASIS_PAIRS, MARGINALS, OUTCOME_PAIRS, QUESTION_PAIRS, Device,
                     answer_probs, marginal_observables, partial_states, projectors, validate)
from .errors import ValidationError
from .linalg import (ID2, SIGMA_X, SIGMA_Z, bell_state, factored_trace_distance,
                     outcome_vec, rank_factor, signed_factor, state_dep_norm_sq,
                     tensor)
from .protocol import CHECKS, Flag

_DEGENERATE_TRACE = 1e-12


# ---------------------------------------------------------------------------
# pass tuples
# ---------------------------------------------------------------------------

# each CHECKS row's (basis, questions) block of the answer_probs table, and its
# label x answers mask: 1 where Check.passes accepts the answers for the label
_ROW_BLOCKS = ([BASIS_PAIRS.index(row.basis) for row in CHECKS],
               [QUESTION_PAIRS.index(row.questions) for row in CHECKS])
_PASS_MASKS = np.array([[[row.passes(answers, label) for answers in OUTCOME_PAIRS]
                         for label in OUTCOME_PAIRS] for row in CHECKS], dtype=float)


def _pass_probs(table: np.ndarray, kind: Flag) -> dict[str, float]:
    """Probability that the verdict rule passes each row of ``protocol.CHECKS``
    failing as ``kind``: the row's block of the Born table ``table``
    (:func:`~bellcert.device.answer_probs`) summed under its pass mask."""
    entries = (table[_ROW_BLOCKS[0], :, _ROW_BLOCKS[1]] * _PASS_MASKS).sum((-2, -1))
    return {row.bucket: p for row, p in zip(CHECKS, entries.tolist()) if row.fail_flag is kind}


def test_tuple(table: np.ndarray) -> dict[str, float]:
    """Pass probabilities of the single-answer checks in the two mixed bases."""
    return _pass_probs(table, Flag.FAIL_TEST)


def bell_tuple(table: np.ndarray) -> dict[str, float]:
    """Pass probabilities of the two cross-parity checks in basis (1,1)."""
    return _pass_probs(table, Flag.FAIL_BELL)


# ---------------------------------------------------------------------------
# commutation residuals
# ---------------------------------------------------------------------------

COMM_PAIRS = ("z1_x2", "z2_x1")


def _on_bases(a: np.ndarray, states: np.ndarray) -> dict[tuple[int, int], float]:
    """Tr[A^dag A sigma] on each basis pair's full state, by one
    :func:`~bellcert.linalg.state_dep_norm_sq` call against the stack
    ``states`` (in ``BASIS_PAIRS`` order)."""
    return dict(zip(BASIS_PAIRS, state_dep_norm_sq(a, states).tolist()))


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
# the stacked targets of the single and product entries, and every entry's name
_SINGLE_TARGETS = np.array(list(_TARGETS.values()))
_PRODUCT_TARGETS = np.array([_TARGETS[n1] @ _TARGETS[n2] for n1, n2 in _PRODUCTS])
_PAULI_NAMES = (*_TARGETS, *(f"{n1}*{n2}" for n1, n2 in _PRODUCTS))
_SINGLE_TARGETS.flags.writeable = _PRODUCT_TARGETS.flags.writeable = False


def pauli_rounding_report(obs: dict[str, np.ndarray], v: np.ndarray,
                          state: np.ndarray) -> dict[str, float]:
    """Residuals of the swap-rounded observables against two-qubit Paulis.

    ``v`` is :func:`swap_isometry` of ``obs`` and ``state`` the full state
    of the all-claw-free basis (1, 1).  Single-observable entries measure
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

    singles = v.conj().T @ on_v(_SINGLE_TARGETS) - np.array([obs[n] for n in _TARGETS])
    products = np.array([obs[n1] @ obs[n2] for n1, n2 in _PRODUCTS])
    y = v @ (products @ (v.conj().T @ v)) - on_v(_PRODUCT_TARGETS)
    vals = np.concatenate([state_dep_norm_sq(singles, state), state_dep_norm_sq(y, state)])
    return dict(zip(_PAULI_NAMES, vals.tolist()))


# ---------------------------------------------------------------------------
# certification report
# ---------------------------------------------------------------------------

# each measurement update's name, in the order of the projectors stack, and the
# five frames of bell_report: per question pair the unitary whose columns are
# its updates' ancilla vectors u (x) u' (in OUTCOME_PAIRS order), then the one
# whose columns are the shifted Bell states of the cross-parity labels
_UPDATES = [f"q{q1}{q2}_v{a}{b}" for q1, q2 in QUESTION_PAIRS for a, b in OUTCOME_PAIRS]
_FRAMES = np.array([[np.kron(outcome_vec(q1, a), outcome_vec(q2, b)) for a, b in OUTCOME_PAIRS]
                    for q1, q2 in QUESTION_PAIRS]
                   + [[bell_state(*label) for label in OUTCOME_PAIRS]]).swapaxes(-1, -2)
# (1/2) <u|phi> for each update (rows) and case (columns); each ancilla block's others
_COEF = 0.5 * (_FRAMES[:4].conj().swapaxes(-1, -2) @ _FRAMES[4]).reshape(16, 4)
_OTHERS = np.array([[j for j in range(4) if j != o] for o in range(4)])
_FRAMES.flags.writeable = _COEF.flags.writeable = False


@dataclass
class BellCaseReport:
    """One cross-parity case of :func:`bell_report`.

    ``xi`` is the extracted junk state as a d x d matrix (zero for a
    degenerate case, whose branch trace is below ``1e-12``).  The paper
    certifies the Bell state only up to a change of basis on the junk
    register, so the JSON form writes ``xi`` by its spectrum alone:
    ``xi_eigenvalues``, the eigenvalues that ``signed_factor`` keeps (at
    the numerical rank, in descending order; ``[]`` when degenerate).  The
    matrix itself can be recomputed from the device file with
    :func:`analyze`.
    """
    label: tuple[int, int]
    branch_trace: float
    state_distance: float
    measurement_distances: dict[str, float]
    xi: np.ndarray
    xi_eigenvalues: list[float]
    degenerate: bool

    def to_json(self) -> dict:
        return {"label": list(self.label), "branch_trace": self.branch_trace,
                "state_distance": self.state_distance,
                "measurement_distances": dict(self.measurement_distances),
                "xi_eigenvalues": list(self.xi_eigenvalues), "degenerate": self.degenerate}


def bell_report(cases: np.ndarray, projs: np.ndarray, v: np.ndarray) -> list[BellCaseReport]:
    """Distance of each conjugated cross-parity branch from its shifted
    Bell state (tensored with the extracted junk state), plus the same
    comparison after every question/outcome measurement update.  ``cases``
    are basis (1, 1)'s four partial states, ``projs`` the projectors stack
    (which names and orders the updates) and ``v`` the :func:`swap_isometry`
    of the device's marginals.

    Each distance is ``(1/2) ||V P part P^dag V^dag - (1/4) (pi phi)(pi phi)^dag
    (x) xi||_1``, with ``P = 1`` and ``pi = 1`` for the state distance, taken
    after ``F^dag (x) 1`` for the frame ``F`` of ``_FRAMES`` whose column ``o``
    is the update's ``u`` (or ``phi``), which keeps the trace norm.  With
    ``xi = X diag(sx) X^dag`` (:func:`~bellcert.linalg.signed_factor`) the right
    factor ``(1/2) <u|phi> (e_o (x) X)`` fills ancilla block ``o`` alone; the
    left operand is ``(W L) (R part R^dag) (W L)^dag`` for ``W = (F^dag (x) 1) V``
    and ``P = L R`` (:func:`~bellcert.linalg.rank_factor`; ``L = R = 1`` for the
    state).  A distance sees ``[W L  G]`` only through its Gram matrix, so W L's
    other three blocks become their ``k x k`` QR factor, once per frame and
    block for all cases: each :func:`~bellcert.linalg.factored_trace_distance`
    operand has ``d + k`` rows, not 4d (30 at d = 24).  The 64 update
    distances are one stacked call and the four state distances another.
    ``xi`` is ``w sigma w^dag`` over its trace, for block ``w`` of V in the
    Bell frame and ``sigma = cases.sum(0)``; the four are factored in one
    stacked call, which gives narrower factors zero columns of sign 0, and
    ``xi_eigenvalues`` are ``sx |X_j|^2`` over X's columns, read off the
    factor with no second eigensolve.

    Nothing is assumed of the projectors or of the signs of ``part``, so
    invalid devices (non-PSD branches, non-projector measurements) are
    measured exactly too.  The frames are unitary and the QRs Householder, so
    they add rounding of order ``d eps`` only.  The factors drop the QR rows
    at rounding level (norm ``<= d eps`` times the largest row), then the
    singular values ``<= d eps max(s)`` of each projector and the
    eigen-components of ``xi`` with ``|lambda| <= d eps max|lambda|``.  That
    moves each projector by at most ``(d^{3/2} + d) eps ||P_o||`` in operator
    norm and ``xi`` by at most ``2 d^2 eps max|lambda_xi|`` in trace norm, so
    each distance from the dense one by at most ``(d^{3/2} + d) eps ||V||^2
    max_o ||P_o||^2 ||part||_1 + (1/4) d^2 eps max|lambda_xi|`` to first
    order in eps: 6.3e-14 for a valid device at d = 24 (``||V|| = ||P_o|| =
    1``, both operands of unit trace at most).
    """
    d = v.shape[1]
    # V in each frame, by ancilla block: w[f, j] = (e_j^dag F_f^dag (x) 1) V
    w = (_FRAMES.conj().swapaxes(-1, -2) @ v.reshape(4, d * d)).reshape(5, 4, d, d)
    left, right = rank_factor(projs.reshape(-1, d, d))
    k, o = left.shape[-1], np.arange(4)
    wl = w[:4, None] @ left.reshape(4, 4, 1, d, k)  # [q, o, j]: block j of update (q, o)
    rest = np.linalg.qr(wl[:, o[:, None], _OTHERS].reshape(16, 3 * d, k), mode="r")
    f = np.concatenate([wl[:, o, o].reshape(16, d, k), rest], axis=-2)

    m = w[4] @ cases.sum(0) @ w[4].conj().swapaxes(-1, -2)
    traces = np.trace(m, axis1=-2, axis2=-1).real.tolist()
    xis = np.array([np.zeros((d, d), dtype=complex) if tr < _DEGENERATE_TRACE else mc / tr
                    for tr, mc in zip(traces, m)])
    xs, sx = signed_factor(xis)
    width = sx.shape[-1]
    mg, lams = sx[..., None] * np.eye(width), sx * np.sum(np.abs(xs) ** 2, axis=-2)

    g = np.zeros((4, 16, d + k, width), dtype=complex)
    g[:, :, :d] = _COEF.T[:, :, None, None] * xs[:, None]
    dists = factored_trace_distance(np.broadcast_to(f, g.shape[:-1] + (k,)),
                                    right @ cases[:, None] @ right.conj().swapaxes(-1, -2),
                                    g, mg[:, None]).tolist()
    # the state distances in the Bell frame: block c over the QR of the other three
    bell_rest = np.linalg.qr(w[4, _OTHERS].reshape(4, 3 * d, d), mode="r")
    g_state = np.concatenate([0.5 * xs, np.zeros((4, d, width))], axis=-2)
    states = factored_trace_distance(np.concatenate([w[4], bell_rest], axis=-2), cases,
                                     g_state, mg).tolist()
    return [BellCaseReport(label=label, branch_trace=tr, state_distance=state,
                           measurement_distances=dict(zip(_UPDATES, dist)), xi=xi,
                           xi_eigenvalues=sorted(lam[s != 0].tolist(), reverse=True),
                           degenerate=tr < _DEGENERATE_TRACE)
            for label, tr, xi, lam, s, state, dist
            in zip(OUTCOME_PAIRS, traces, xis, lams, sx, states, dists)]


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
            rows += [(f"{tag}.branch_trace", case.branch_trace),
                     (f"{tag}.degenerate", int(case.degenerate)),
                     (f"{tag}.state_distance", case.state_distance)]
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
    non-finite weight), or with a non-hermitian branch in basis (1, 1), has
    nothing to measure, so it is refused with a ``ValidationError`` naming
    all of them; other finite violations are listed in the report.  A device
    whose numbers overflow float64 on the way is refused with a
    ``ValidationError`` too, rather than reported as inf or NaN."""
    with np.errstate(over="raise", invalid="raise"):
        try:
            return _analyze(device)
        except FloatingPointError as exc:
            raise ValidationError(f"device overflows the analysis arithmetic: {exc}") from exc


def _analyze(device: Device) -> AnalysisReport:
    violations = validate(device)
    fatal = [v.name for v in violations if v.magnitude == float("inf")
             or (v.name.startswith("branch (1, 1)/") and v.name.endswith(" hermiticity"))]
    if fatal:
        raise ValidationError("device cannot be analyzed: " + "; ".join(fatal))
    parts, projs = partial_states(device), projectors(device)
    obs = marginal_observables(projs)
    states = parts.sum(1)
    legs = [anticomm_residual(states, leg, obs) for leg in (0, 1)]
    pairs = {pair: comm_residual(states, pair, obs) for pair in COMM_PAIRS}
    v = swap_isometry(obs)
    bell = BASIS_PAIRS.index((1, 1))
    table = answer_probs(parts, projs)
    test_entries, bell_entries = test_tuple(table), bell_tuple(table)
    return AnalysisReport(
        gamma_t=1.0 - min(test_entries.values()),
        gamma_b=1.0 - min(bell_entries.values()),
        test_entries=test_entries,
        bell_entries=bell_entries,
        anticomm={f"leg{leg + 1}@{t1}{t2}": legs[leg][t1, t2]
                  for t1, t2 in BASIS_PAIRS for leg in (0, 1)},
        comm={f"{pair}@{t1}{t2}": res[t1, t2]
              for t1, t2 in BASIS_PAIRS for pair, res in pairs.items()},
        pauli_rounding=pauli_rounding_report(obs, v, states[bell]),
        bell_cases=bell_report(parts[bell], projs, v),
        violations=violations)
