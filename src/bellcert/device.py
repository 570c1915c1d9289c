"""Finite-dimensional device models for white-box analysis.

A device specifies, for each basis pair, an ensemble of labelled states
(the post-commitment branches, labelled by the answers a sound prover
would give), plus one four-outcome projective measurement per question
pair.  The analysis layer turns these into marginal binary observables
and the various closeness diagnostics.  :func:`validate` checks a device's
structure before any of that: each matrix's shape and finiteness first,
one at a time, then the remaining laws as stacked passes over all branch
states and all projectors.
"""
from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError, ValidationError
from .linalg import (SIGMA_X, SIGMA_Z, VALIDATION_TOL, bell_state, matrix_from_json,
                     matrix_to_json, outcome_vec, projector_of, tensor)
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

# indices into OUTCOME_PAIRS of the outcome pairs (a, b), a before b, whose
# projectors must be orthogonal
_ORTHO_A, _ORTHO_B = np.triu_indices(len(OUTCOME_PAIRS), 1)


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


def _matrix_fault(m: np.ndarray, dim: int) -> str | None:
    """Why ``m`` cannot enter the arithmetic (a wrong shape, or a NaN or
    infinite entry), or None; checked before any operation on it."""
    if m.shape != (dim, dim):
        return "dim"
    if not np.isfinite(m).all():
        return "finiteness"
    return None


def validate(device: Device) -> list[Violation]:
    """Collect every structural violation beyond ``VALIDATION_TOL`` (empty = valid).

    A state or projector of the wrong shape or with a non-finite entry is
    an infinite ``dim`` or ``finiteness`` violation, found before any
    arithmetic on it, and enters no further check.  The others are checked
    as stacks: the branch states of all bases in one pass (hermiticity, one
    ``eigvalsh`` for the lowest eigenvalues, trace), and the projectors of
    all question pairs in one stacked ``P P`` and one batched product
    ``P_a P_b`` for the orthogonality pairs.  Names and order are those of
    a loop over one matrix at a time, and magnitudes equal up to rounding.
    """
    out: list[Violation] = []
    dim = device.dim
    inf = float("inf")

    # branch states: shape and finiteness first, then the stacked checks
    states = [np.asarray(br.state, dtype=complex)
              for basis in BASIS_PAIRS for br in device.branches.get(basis) or ()]
    faults = [_matrix_fault(st, dim) for st in states]
    good = np.array([st for st, f in zip(states, faults) if f is None]).reshape(-1, dim, dim)
    herm = np.max(np.abs(good - good.conj().swapaxes(-1, -2)), axis=(-2, -1), initial=0.0)
    low = np.linalg.eigvalsh(good).min(axis=-1, initial=inf)
    tr_err = np.abs(np.trace(good, axis1=-2, axis2=-1).real - 1.0)
    checked = iter(zip(herm.tolist(), low.tolist(), tr_err.tolist()))
    fault_of = iter(faults)
    for basis in BASIS_PAIRS:
        branches = device.branches.get(basis)
        if not branches:
            out.append(Violation(f"branches[{basis}] missing", inf))
            continue
        total = 0.0
        for br in branches:
            total += br.weight
            name = f"branch {basis}/{br.label}"
            if tuple(br.label) not in OUTCOME_PAIRS:
                out.append(Violation(f"{name} label", inf))
            if not np.isfinite(br.weight):
                out.append(Violation(f"{name} weight", inf))
            elif br.weight < -VALIDATION_TOL:
                out.append(Violation(f"{name} weight", -br.weight))
            fault = next(fault_of)
            if fault is not None:
                out.append(Violation(f"{name} {fault}", inf))
                continue
            h, lo, t = next(checked)
            if h > VALIDATION_TOL:
                out.append(Violation(f"{name} hermiticity", h))
            elif lo < -VALIDATION_TOL:
                out.append(Violation(f"{name} positivity", -lo))
            if t > VALIDATION_TOL:
                out.append(Violation(f"{name} trace", t))
        if abs(total - 1.0) > VALIDATION_TOL:
            out.append(Violation(f"branches[{basis}] weight sum", abs(total - 1.0)))

    # measurements: a question pair with a missing outcome, or with a
    # projector of the wrong shape or with a non-finite entry, enters no
    # stacked check
    fatal, projs = {}, []
    for q in QUESTION_PAIRS:
        meas = device.measurements.get(q)
        if not meas or set(meas) != set(OUTCOME_PAIRS):
            fatal[q] = [Violation(f"measurements[{q}] outcomes", inf)]
            continue
        mats = [np.asarray(meas[o], dtype=complex) for o in OUTCOME_PAIRS]
        fatal[q] = [Violation(f"measurements[{q}][{o}] {fault}", inf)
                    for o, m in zip(OUTCOME_PAIRS, mats)
                    if (fault := _matrix_fault(m, dim)) is not None]
        if not fatal[q]:
            projs.append(mats)
    p = np.array(projs).reshape(-1, len(OUTCOME_PAIRS), dim, dim)
    idem = np.max(np.abs(p @ p - p), axis=(-2, -1))
    herm = np.max(np.abs(p - p.conj().swapaxes(-1, -2)), axis=(-2, -1))
    comp = np.max(np.abs(p.sum(axis=1) - np.eye(dim)), axis=(-2, -1))
    ortho = np.max(np.abs(p[:, _ORTHO_A] @ p[:, _ORTHO_B]), axis=(-2, -1))
    checked = iter(zip(np.maximum(idem, herm).tolist(), comp.tolist(), ortho.tolist()))
    for q in QUESTION_PAIRS:
        if fatal[q]:
            out += fatal[q]
            continue
        proj_err, comp_err, ortho_err = next(checked)
        for o in device.measurements[q]:
            err = proj_err[OUTCOME_PAIRS.index(o)]
            if err > VALIDATION_TOL:
                out.append(Violation(f"measurements[{q}][{o}] projector", err))
        if comp_err > VALIDATION_TOL:
            out.append(Violation(f"measurements[{q}] completeness", comp_err))
        for a, b, err in zip(_ORTHO_A, _ORTHO_B, ortho_err):
            if err > VALIDATION_TOL:
                out.append(Violation(f"measurements[{q}] orthogonality "
                                     f"{OUTCOME_PAIRS[a]}/{OUTCOME_PAIRS[b]}", err))
    # the Bell report updates on every measurement, and one keyed outside
    # the question pairs has no outcome vectors to update with
    out += [Violation(f"measurements[{q}] question", inf)
            for q in device.measurements if q not in QUESTION_PAIRS]
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
