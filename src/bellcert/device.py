"""Finite-dimensional device models for white-box analysis.

A device specifies, for each basis pair, an ensemble of labelled states
(the post-commitment branches, labelled by the answers a sound prover
would give), plus one four-outcome projective measurement per question
pair.  The analysis layer turns these into marginal binary observables
and the various closeness diagnostics.
"""
from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError, ValidationError
from .linalg import (SIGMA_X, SIGMA_Z, VALIDATION_TOL, as_operator,
                     bell_state, matrix_from_json, matrix_to_json,
                     outcome_vec, projector_of, tensor)
from .protocol import is_pair

BASIS_PAIRS = [(0, 0), (0, 1), (1, 0), (1, 1)]
QUESTION_PAIRS = [(0, 0), (0, 1), (1, 0), (1, 1)]
OUTCOME_PAIRS = [(0, 0), (0, 1), (1, 0), (1, 1)]

# The one home of the marginal observables: name -> (question pair, leg).
# Plain marginals come from the matched question pairs, tilde ("t") ones from
# the mixed pairs; the letter is the Pauli that the leg's question bit asks for.
MARGINALS = {
    "z1": ((0, 0), 0), "x1": ((1, 1), 0), "z2": ((0, 0), 1), "x2": ((1, 1), 1),
    "zt1": ((0, 1), 0), "xt1": ((1, 0), 0), "zt2": ((1, 0), 1), "xt2": ((0, 1), 1),
}


@dataclass
class Branch:
    label: tuple[int, int]
    weight: float
    state: np.ndarray  # normalized density operator; the weight is kept apart


@dataclass
class Device:
    dim: int
    branches: dict[tuple[int, int], list[Branch]]
    measurements: dict[tuple[int, int], dict[tuple[int, int], np.ndarray]]


@dataclass
class Violation:
    name: str
    magnitude: float


def validate(device: Device) -> list[Violation]:
    """Collect every structural violation beyond ``VALIDATION_TOL`` (empty = valid)."""
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


def sigma(device: Device, theta1: int, theta2: int) -> np.ndarray:
    """Full post-commitment state for one basis pair."""
    out = np.zeros((device.dim, device.dim), dtype=complex)
    for br in device.branches[(theta1, theta2)]:
        out += br.weight * br.state
    return out


def sigma_partial(device: Device, theta1: int, v1: int, theta2: int,
                  v2: int) -> np.ndarray:
    """Subnormalized state of the branches carrying label (v1, v2)."""
    out = np.zeros((device.dim, device.dim), dtype=complex)
    for br in device.branches[(theta1, theta2)]:
        if tuple(br.label) == (v1, v2):
            out += br.weight * br.state
    return out


def marginal_observables(device: Device) -> dict[str, np.ndarray]:
    """Each marginal of :data:`MARGINALS`: the +/-1 observable of its leg's
    answer bit under its question pair's measurement."""
    out = {}
    for name, (q, leg) in MARGINALS.items():
        obs = np.zeros((device.dim, device.dim), dtype=complex)
        for outcome, proj in device.measurements[q].items():
            obs += (-1.0) ** outcome[leg] * proj
        out[name] = obs
    return out


def from_honest(p: float) -> Device:
    """The two-qubit device an honest prover implements, with each branch
    state pushed through a two-qubit depolarizing channel of strength p."""
    if not 0.0 <= p <= 1.0:
        raise ValidationError(f"depolarizing strength {p} outside [0, 1]")

    def depol(vec: np.ndarray) -> np.ndarray:
        rho = np.outer(vec, vec.conj())
        return (1.0 - p) * rho + p * np.eye(4) / 4.0

    branches = {
        basis: [Branch((a, b), 0.25,
                       depol(np.kron(outcome_vec(basis[0], a), outcome_vec(basis[1], b))))
                for a, b in OUTCOME_PAIRS]
        for basis in BASIS_PAIRS if basis != (1, 1)}
    branches[(1, 1)] = [Branch((s1, s2), 0.25, depol(bell_state(s1, s2)))
                        for s1, s2 in OUTCOME_PAIRS]

    measurements = {}
    for q1, q2 in QUESTION_PAIRS:
        o1 = SIGMA_X if q1 else SIGMA_Z
        o2 = SIGMA_X if q2 else SIGMA_Z
        measurements[(q1, q2)] = {
            (v1, v2): tensor(projector_of(o1, v1), projector_of(o2, v2))
            for v1, v2 in OUTCOME_PAIRS}
    return Device(dim=4, branches=branches, measurements=measurements)


# ---------------------------------------------------------------------------
# JSON serialization
# ---------------------------------------------------------------------------

def _pair_key(pair: tuple[int, int]) -> str:
    return f"{pair[0]}{pair[1]}"


def _pair_from_key(key: str) -> tuple[int, int]:
    if len(key) != 2 or any(c not in "01" for c in key):
        raise ValidationError(f"bad basis/question key {key!r}")
    return (int(key[0]), int(key[1]))


def device_to_json(device: Device) -> dict:
    return {
        "dim": device.dim,
        "branches": {
            _pair_key(basis): [
                {"label": list(br.label), "weight": br.weight,
                 "state": matrix_to_json(br.state)}
                for br in brs]
            for basis, brs in device.branches.items()},
        "measurements": {
            _pair_key(q): [matrix_to_json(meas[o]) for o in OUTCOME_PAIRS]
            for q, meas in device.measurements.items()},
    }


def _weight_from_json(w) -> float:
    if type(w) not in (int, float):
        raise ValidationError(f"branch weight {w!r} is not a number")
    return float(w)


def device_from_json(d: dict) -> Device:
    try:
        dim = d["dim"]
        if type(dim) is not int or dim < 1:
            raise ValidationError(f"dim {dim!r} is not a positive integer")
        for name in ("branches", "measurements"):
            if type(d[name]) is not dict:
                raise ValidationError(f"{name} is not an object keyed by pair")
        branches = {}
        for key, brs in d["branches"].items():
            branches[_pair_from_key(key)] = [
                Branch(label=tuple(br["label"]),
                       weight=_weight_from_json(br["weight"]),
                       state=matrix_from_json(br["state"]))
                for br in brs]
        measurements = {}
        for key, projs in d["measurements"].items():
            if len(projs) != 4:
                raise ValidationError(f"measurements[{key}] needs 4 projectors")
            measurements[_pair_from_key(key)] = {
                o: matrix_from_json(m) for o, m in zip(OUTCOME_PAIRS, projs)}
    except (KeyError, TypeError, ValueError) as exc:
        raise ValidationError(f"bad device description: {exc}") from exc
    dev = Device(dim=dim, branches=branches, measurements=measurements)
    for basis in BASIS_PAIRS:
        if basis not in dev.branches:
            raise ValidationError(f"missing branches for basis {basis}")
    for q in QUESTION_PAIRS:
        if q not in dev.measurements:
            raise ValidationError(f"missing measurement for questions {q}")
    for br_list in dev.branches.values():
        for br in br_list:
            if not is_pair(br.label):
                raise ValidationError(f"branch label {list(br.label)} is not a pair of bits")
            if br.state.shape != (dim, dim):
                raise DimensionMismatchError("branch state has wrong dimension")
    for projs in dev.measurements.values():
        if any(m.shape != (dim, dim) for m in projs.values()):
            raise DimensionMismatchError("measurement projector has wrong dimension")
    return dev


def load_device(path: str) -> Device:
    with open(path, "r", encoding="utf-8") as fh:
        return device_from_json(json.load(fh))


def save_device(device: Device, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(device_to_json(device), fh)
        fh.write("\n")
