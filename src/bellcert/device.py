"""Finite-dimensional device models for white-box analysis.

A device specifies, for each basis pair, an ensemble of labelled states
(the post-commitment branches, labelled by the answers a sound prover
would give), plus one four-outcome projective measurement per question
pair.  :func:`device_from_json` only decodes a device file; :func:`validate`
alone judges a device's structure, built in code or decoded alike.  Past
it, the analysis layer and the prover read a device only as two stacks,
:func:`partial_states` and :func:`projectors`, whose Born table
:func:`answer_probs` is the one source of answer probabilities; only this
module knows the branch-list layout.
"""
from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
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

# (-1)^v for the bit v in slot 0 (row 0) and slot 1 (row 1) of each label of
# OUTCOME_PAIRS, read by the marginal observables
OUTCOME_SIGNS = np.array([[(-1.0) ** label[slot] for label in OUTCOME_PAIRS] for slot in (0, 1)])
# each marginal's row of QUESTION_PAIRS and its leg
_MARGINAL_ROWS = [QUESTION_PAIRS.index(q) for q, _ in MARGINALS.values()]
_MARGINAL_LEGS = [leg for _, leg in MARGINALS.values()]

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
    """Why ``m`` cannot enter the arithmetic (a ``dim`` that is not a plain
    int >= 1, a shape other than (dim, dim), or a NaN or infinite entry), or
    None; checked before any operation on it."""
    if type(dim) is not int or dim < 1 or m.shape != (dim, dim):
        return "dim"
    if not np.isfinite(m).all():
        return "finiteness"
    return None


def validate(device: Device) -> list[Violation]:
    """Collect every structural violation beyond ``VALIDATION_TOL`` (empty = valid).

    The only judge of a device's structure; it accepts any device that
    :func:`device_from_json` decodes.  A missing basis or question pair, a
    label that is not two plain bits (``protocol.is_pair``), a non-finite
    weight, and a state or projector of the wrong shape or with a non-finite
    entry are infinite violations; such a matrix enters no arithmetic.  The
    other laws are checked on stacks: each basis pair's branch states
    (hermiticity, lowest eigenvalue, trace) and each question pair's four
    projectors (``P P``, completeness, ``P_a P_b``).  No (dim, dim) array is
    built that the device does not hold, since a file's ``dim`` is hostile.
    Names and order are those of a loop over one matrix at a time.
    """
    out: list[Violation] = []
    dim = device.dim
    inf = float("inf")

    for basis in BASIS_PAIRS:
        branches = device.branches.get(basis)
        if not branches:
            out.append(Violation(f"branches[{basis}] missing", inf))
            continue
        states = [np.asarray(br.state, dtype=complex) for br in branches]
        faults = [_matrix_fault(st, dim) for st in states]
        ok = np.array([f is None for f in faults])
        herm, low, tr_err = np.zeros((3, len(states)))
        if ok.any():
            good = np.array([st for st, f in zip(states, faults) if f is None])
            herm[ok] = np.max(np.abs(good - good.conj().swapaxes(-1, -2)), axis=(-2, -1))
            low[ok] = np.linalg.eigvalsh(good).min(axis=-1)
            tr_err[ok] = np.abs(np.trace(good, axis1=-2, axis2=-1).real - 1.0)
        total = 0.0
        for br, fault, h, lo, t in zip(branches, faults, herm.tolist(), low.tolist(),
                                       tr_err.tolist()):
            total += br.weight
            name = f"branch {basis}/{br.label}"
            if not is_pair(br.label):
                out.append(Violation(f"{name} label", inf))
            if not np.isfinite(br.weight):
                out.append(Violation(f"{name} weight", inf))
            elif br.weight < -VALIDATION_TOL:
                out.append(Violation(f"{name} weight", -br.weight))
            if fault is not None:
                out.append(Violation(f"{name} {fault}", inf))
                continue
            if h > VALIDATION_TOL:
                out.append(Violation(f"{name} hermiticity", h))
            elif lo < -VALIDATION_TOL:
                out.append(Violation(f"{name} positivity", -lo))
            if t > VALIDATION_TOL:
                out.append(Violation(f"{name} trace", t))
        if abs(total - 1.0) > VALIDATION_TOL:
            out.append(Violation(f"branches[{basis}] weight sum", abs(total - 1.0)))

    for q in QUESTION_PAIRS:
        meas = device.measurements.get(q)
        if not meas or set(meas) != set(OUTCOME_PAIRS):
            out.append(Violation(f"measurements[{q}] outcomes", inf))
            continue
        mats = [np.asarray(meas[o], dtype=complex) for o in OUTCOME_PAIRS]
        faults = [Violation(f"measurements[{q}][{o}] {fault}", inf)
                  for o, m in zip(OUTCOME_PAIRS, mats)
                  if (fault := _matrix_fault(m, dim)) is not None]
        if faults:
            out += faults
            continue
        p = np.array(mats)
        idem = np.max(np.abs(p @ p - p), axis=(-2, -1))
        herm = np.max(np.abs(p - p.conj().swapaxes(-1, -2)), axis=(-2, -1))
        gap = p.sum(axis=0)
        gap.flat[::dim + 1] -= 1.0  # the sum minus the identity, which is never built
        comp_err = float(np.max(np.abs(gap)))
        ortho = np.max(np.abs(p[_ORTHO_A] @ p[_ORTHO_B]), axis=(-2, -1)).tolist()
        proj_err = np.maximum(idem, herm).tolist()
        for o in meas:
            err = proj_err[OUTCOME_PAIRS.index(o)]
            if err > VALIDATION_TOL:
                out.append(Violation(f"measurements[{q}][{o}] projector", err))
        if comp_err > VALIDATION_TOL:
            out.append(Violation(f"measurements[{q}] completeness", comp_err))
        for a, b, err in zip(_ORTHO_A, _ORTHO_B, ortho):
            if err > VALIDATION_TOL:
                out.append(Violation(f"measurements[{q}] orthogonality "
                                     f"{OUTCOME_PAIRS[a]}/{OUTCOME_PAIRS[b]}", err))
    # the Bell report updates on every measurement, and one keyed outside
    # the question pairs has no outcome vectors to update with
    out += [Violation(f"measurements[{q}] question", inf)
            for q in device.measurements if q not in QUESTION_PAIRS]
    return out


def partial_states(device: Device) -> np.ndarray:
    """The (4, 4, d, d) stack of subnormalized partial states: entry ``[basis,
    label]`` (``BASIS_PAIRS`` x ``OUTCOME_PAIRS`` order) sums ``weight * state``
    over that basis's branches with that label, in branch order."""
    out = np.zeros((4, 4, device.dim, device.dim), dtype=complex)
    for i, basis in enumerate(BASIS_PAIRS):
        for br in device.branches[basis]:
            out[i, OUTCOME_PAIRS.index(tuple(br.label))] += br.weight * br.state
    return out


def projectors(device: Device) -> np.ndarray:
    """The (4, 4, d, d) stack of projectors: entry ``[questions, outcome]``
    (``QUESTION_PAIRS`` x ``OUTCOME_PAIRS`` order)."""
    return np.array([[device.measurements[q][o] for o in OUTCOME_PAIRS]
                     for q in QUESTION_PAIRS], dtype=complex)


def answer_probs(parts: np.ndarray, projs: np.ndarray) -> np.ndarray:
    """The (4, 4, 4, 4) Born table of the two stacks: entry ``[basis, label,
    questions, outcome]`` is the real part of ``Tr[P_o part]``, unclipped and
    unnormalised, as one (16, d^2) @ (d^2, 16) product of the flattened
    stacks, ``Tr[P A] = sum_ij A_ji P_ij``."""
    size = parts.shape[-1] ** 2
    table = parts.swapaxes(-1, -2).reshape(16, size) @ projs.reshape(16, size).T
    return table.real.reshape(4, 4, 4, 4)


def sigma(device: Device, theta1: int, theta2: int) -> np.ndarray:
    """Full post-commitment state for one basis pair."""
    return partial_states(device)[BASIS_PAIRS.index((theta1, theta2))].sum(0)


def sigma_partial(device: Device, theta1: int, v1: int, theta2: int, v2: int) -> np.ndarray:
    """Subnormalized state of the branches carrying label (v1, v2)."""
    return partial_states(device)[BASIS_PAIRS.index((theta1, theta2)),
                                  OUTCOME_PAIRS.index((v1, v2))]


def marginal_observables(projs: np.ndarray) -> dict[str, np.ndarray]:
    """Each marginal of :data:`MARGINALS`: the +/-1 observable of its leg's
    answer bit under its question pair's measurement, from the
    :func:`projectors` stack ``projs`` as one signed sum over the outcomes."""
    obs = (OUTCOME_SIGNS[:, :, None, None] * projs[:, None]).sum(2)  # [questions, leg]
    return dict(zip(MARGINALS, obs[_MARGINAL_ROWS, _MARGINAL_LEGS]))


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


def no_entangler() -> Device:
    """The honest device without its entangling gate: ``from_honest(0)`` with
    each branch state conjugated by CZ, under the same labels."""
    dev = from_honest(0.0)
    cz = np.diag([1.0, 1.0, 1.0, -1.0])
    for brs in dev.branches.values():
        for br in brs:
            br.state = cz @ br.state @ cz
    return dev


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


def device_from_json(d: dict) -> Device:
    """Decode a device file's JSON object, or raise ``ValidationError``.

    Only the encoding is checked: ``dim`` is a plain int >= 1, ``branches``
    and ``measurements`` are objects keyed by ``"01"``-style pairs, each
    branch has a label list, a plain numeric weight and a matrix literal,
    and each question pair has exactly four matrix literals, because
    outcomes are positional (``OUTCOME_PAIRS`` order).  Whether the device
    is well formed is for :func:`validate` alone to judge.
    """
    try:
        dim = d["dim"]
        if type(dim) is not int or dim < 1:
            raise ValidationError(f"dim {dim!r} is not a positive integer")
        for name in ("branches", "measurements"):
            if type(d[name]) is not dict:
                raise ValidationError(f"{name} is not an object keyed by pair")
        branches = {_pair_from_key(key): [_branch_from_json(br) for br in brs]
                    for key, brs in d["branches"].items()}
        measurements = {}
        for key, projs in d["measurements"].items():
            if type(projs) is not list or len(projs) != 4:
                raise ValidationError(f"measurements[{key}] is not a list of 4 projectors")
            measurements[_pair_from_key(key)] = {
                o: matrix_from_json(m) for o, m in zip(OUTCOME_PAIRS, projs)}
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ValidationError(f"bad device description: {exc}") from exc
    return Device(dim=dim, branches=branches, measurements=measurements)


def _branch_from_json(br: dict) -> Branch:
    label, weight = br["label"], br["weight"]
    if type(label) is not list or type(weight) not in (int, float):
        raise ValidationError(f"branch label {label!r} or weight {weight!r} is not "
                              "a list and a number")
    return Branch(tuple(label), float(weight), matrix_from_json(br["state"]))


def load_device(path: str) -> Device:
    """The device in the file at ``path``; a file that is not JSON is a ValidationError."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            obj = json.load(fh)
        except (RecursionError, ValueError) as exc:  # bad UTF-8, JSON and int strings
            raise ValidationError(f"device file {path} does not decode: {exc}") from exc
    return device_from_json(obj)


def save_device(device: Device, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(device_to_json(device), fh)
        fh.write("\n")
