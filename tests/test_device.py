from __future__ import annotations

import json
import re

import numpy as np
import pytest

from bellcert import analysis, cli
from bellcert import device as devmod
from bellcert.errors import DimensionMismatchError, ValidationError
from bellcert.linalg import ID2, SIGMA_X, SIGMA_Z, matrix_to_json, tensor
from conftest import check_binary_observable


def test_honest_device_is_valid():
    for p in (0.0, 0.1, 1.0):
        assert devmod.validate(devmod.from_honest(p)) == []


def test_from_honest_rejects_bad_noise():
    with pytest.raises(ValidationError):
        devmod.from_honest(-0.1)
    with pytest.raises(ValidationError):
        devmod.from_honest(1.1)


def test_sigma_is_maximally_mixed_for_honest():
    dev = devmod.from_honest(0.0)
    for basis in devmod.BASIS_PAIRS:
        full = devmod.sigma(dev, *basis)
        assert np.allclose(full, np.eye(4) / 4, atol=1e-12)


def test_sigma_partials_sum_to_sigma():
    dev = devmod.from_honest(0.3)
    for basis in devmod.BASIS_PAIRS:
        acc = sum(devmod.sigma_partial(dev, basis[0], v1, basis[1], v2)
                  for v1, v2 in devmod.OUTCOME_PAIRS)
        assert np.allclose(acc, devmod.sigma(dev, *basis), atol=1e-12)


def test_honest_marginals_are_paulis():
    obs = devmod.marginal_observables(devmod.from_honest(0.2))
    expected = {"z1": tensor(SIGMA_Z, ID2), "zt1": tensor(SIGMA_Z, ID2),
                "x1": tensor(SIGMA_X, ID2), "xt1": tensor(SIGMA_X, ID2),
                "z2": tensor(ID2, SIGMA_Z), "zt2": tensor(ID2, SIGMA_Z),
                "x2": tensor(ID2, SIGMA_X), "xt2": tensor(ID2, SIGMA_X)}
    assert list(obs) == list(devmod.MARGINALS)
    for name, pauli in expected.items():
        assert np.allclose(obs[name], pauli, atol=1e-12), name


def test_marginals_are_binary_observables(rng):
    from conftest import random_observable_set
    for dim in (2, 4, 8):
        obs = random_observable_set(dim, rng)
        for o in obs.values():
            check_binary_observable(o)


def test_device_json_roundtrip(tmp_path):
    dev = devmod.from_honest(0.15)
    path = tmp_path / "dev.json"
    devmod.save_device(dev, str(path))
    back = devmod.load_device(str(path))
    assert back.dim == dev.dim
    for basis in devmod.BASIS_PAIRS:
        for a, b in zip(dev.branches[basis], back.branches[basis]):
            assert a.label == b.label
            assert a.weight == pytest.approx(b.weight)
            assert np.allclose(a.state, b.state, atol=0)
    for q in devmod.QUESTION_PAIRS:
        for o in devmod.OUTCOME_PAIRS:
            assert np.array_equal(dev.measurements[q][o], back.measurements[q][o])


def test_device_json_requires_all_bases():
    d = devmod.device_to_json(devmod.from_honest(0.0))
    del d["branches"]["01"]
    with pytest.raises(ValidationError):
        devmod.device_from_json(d)
    d = devmod.device_to_json(devmod.from_honest(0.0))
    d["measurements"]["11"] = d["measurements"]["11"][:3]
    with pytest.raises(ValidationError):
        devmod.device_from_json(d)


@pytest.mark.parametrize("size", [2, 5])
def test_device_json_refuses_wrong_size_projector(tmp_path, capsys, size):
    """A projector of the wrong size is refused on loading, and ``analyze``
    reports it as a failure rather than crashing in ``validate``."""
    d = devmod.device_to_json(devmod.from_honest(0.0))
    d["measurements"]["00"][0] = matrix_to_json(np.eye(size))
    with pytest.raises(DimensionMismatchError):
        devmod.device_from_json(d)
    path = tmp_path / "dev.json"
    path.write_text(json.dumps(d))
    assert cli.main(["analyze", str(path)]) == 1
    assert "failure:" in capsys.readouterr().err


def test_validate_catches_broken_devices():
    dev = devmod.from_honest(0.0)
    dev.branches[(0, 0)][0].weight = 0.5
    names = [v.name for v in devmod.validate(dev)]
    assert any("weight sum" in n for n in names)

    dev = devmod.from_honest(0.0)
    dev.branches[(1, 1)][0].state = np.diag([2.0, -1.0, 0.0, 0.5]).astype(complex)
    names = [v.name for v in devmod.validate(dev)]
    assert any("positivity" in n for n in names)
    assert any("trace" in n for n in names)

    dev = devmod.from_honest(0.0)
    dev.measurements[(0, 1)][(0, 0)] = 0.5 * dev.measurements[(0, 1)][(0, 0)]
    names = [v.name for v in devmod.validate(dev)]
    assert any("projector" in n for n in names)
    assert any("completeness" in n for n in names)

    # every comparison with NaN is false, so only an explicit check sees it
    dev = devmod.from_honest(0.0)
    dev.branches[(1, 0)][2].weight = float("nan")
    names = [v.name for v in devmod.validate(dev)]
    assert names == ["branch (1, 0)/(1, 0) weight"]


@pytest.mark.parametrize("label", [[0], [0, 7], ["1", "0"], [True, 0]])
def test_device_json_refuses_bad_branch_label(label):
    """A label that is not two plain bits would match no outcome, so its
    branch's weight would silently drop out of the analysis."""
    d = devmod.device_to_json(devmod.from_honest(0.0))
    d["branches"]["11"][0]["label"] = label
    with pytest.raises(ValidationError):
        devmod.device_from_json(d)


@pytest.mark.parametrize("dim", [4.7, 4.0, "4", True, 0])
def test_device_json_refuses_bad_dim(dim):
    """``dim`` is a plain positive int; 4.7 would otherwise load as 4."""
    d = devmod.device_to_json(devmod.from_honest(0.0))
    d["dim"] = dim
    with pytest.raises(ValidationError):
        devmod.device_from_json(d)


@pytest.mark.parametrize("weight", ["0.25", True, None, [0.25]])
def test_device_json_refuses_bad_weight(weight):
    """A weight is a plain JSON number; "0.25" would otherwise load as 0.25."""
    d = devmod.device_to_json(devmod.from_honest(0.0))
    d["branches"]["01"][0]["weight"] = weight
    with pytest.raises(ValidationError):
        devmod.device_from_json(d)


def test_validate_catches_bad_branch_label():
    dev = devmod.from_honest(0.0)
    dev.branches[(1, 1)][0].label = (0, 7)
    names = [v.name for v in devmod.validate(dev)]
    assert names == ["branch (1, 1)/(0, 7) label"]


@pytest.mark.parametrize("group,key,index,entry,name", [
    ("branches", "11", 0, [float("nan"), 0.0], "branch (1, 1)/(0, 0) finiteness"),
    ("measurements", "01", 2, [float("inf"), 0.0], "measurements[(0, 1)][(1, 0)] finiteness"),
], ids=["state-nan", "projector-inf"])
def test_analyze_names_non_finite_matrix(tmp_path, capsys, group, key, index, entry, name):
    """A NaN or infinite entry in a branch state or projector loads (JSON
    has NaN and Infinity), and ``analyze`` refuses the device naming the
    branch or measurement rather than failing in the arithmetic."""
    d = devmod.device_to_json(devmod.from_honest(0.1))
    item = d[group][key][index]
    (item["state"] if group == "branches" else item)["entries"][5] = entry
    path = tmp_path / "dev.json"
    path.write_text(json.dumps(d))
    assert cli.main(["analyze", str(path)]) == 2
    assert capsys.readouterr().err == f"error: device cannot be analyzed: {name}\n"


@pytest.mark.parametrize("where,name", [
    ("projector", "measurements[(0, 0)][(0, 1)] dim"),
    ("state", "branch (1, 0)/(0, 0) dim"),
], ids=["projector", "state"])
def test_validate_reports_wrong_shape_matrix(where, name):
    """A 3x3 projector or a 4x3 branch state in a device of dimension 4,
    built in Python (``device_from_json`` refuses both), is an infinite
    ``dim`` violation that ``analyze`` refuses by name."""
    dev = devmod.from_honest(0.1)
    if where == "projector":
        dev.measurements[(0, 0)][(0, 1)] = np.eye(3, dtype=complex)
    else:
        dev.branches[(1, 0)][0].state = np.ones((4, 3), dtype=complex) / 3
    assert [(v.name, v.magnitude) for v in devmod.validate(dev)] == [(name, float("inf"))]
    with pytest.raises(ValidationError, match=re.escape(name)):
        analysis.analyze(dev)


def test_validate_reports_unknown_question_pair():
    """A measurement keyed outside the four question pairs, which only a
    device built in Python can have, has no outcome vectors for the Bell
    report's updates; ``analyze`` refuses it by name."""
    dev = devmod.from_honest(0.1)
    dev.measurements[(0, 2)] = dev.measurements[(0, 1)]
    name = "measurements[(0, 2)] question"
    assert [(v.name, v.magnitude) for v in devmod.validate(dev)] == [(name, float("inf"))]
    with pytest.raises(ValidationError, match=re.escape(name)):
        analysis.analyze(dev)
