from __future__ import annotations

import json
import re
import tracemalloc

import numpy as np
import pytest

from bellcert import analysis, cli
from bellcert import device as devmod
from bellcert.errors import ValidationError
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
    obs = devmod.marginal_observables(devmod.projectors(devmod.from_honest(0.2)))
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
    """A file without a basis pair loads, and ``validate`` names the gap
    (``analyze`` refuses it); a question pair without four projectors is
    refused on loading, because outcomes are positional."""
    d = devmod.device_to_json(devmod.from_honest(0.0))
    del d["branches"]["01"]
    dev = devmod.device_from_json(d)
    name = "branches[(0, 1)] missing"
    assert [(v.name, v.magnitude) for v in devmod.validate(dev)] == [(name, float("inf"))]
    with pytest.raises(ValidationError, match=re.escape(name)):
        analysis.analyze(dev)
    d = devmod.device_to_json(devmod.from_honest(0.0))
    d["measurements"]["11"] = d["measurements"]["11"][:3]
    with pytest.raises(ValidationError):
        devmod.device_from_json(d)


@pytest.mark.parametrize("size", [2, 5])
def test_device_json_refuses_wrong_size_projector(tmp_path, capsys, size):
    """A projector of the wrong size loads; ``validate`` names it by
    question pair and outcome, and ``analyze`` exits 2 as for any
    malformed device file."""
    d = devmod.device_to_json(devmod.from_honest(0.0))
    d["measurements"]["00"][0] = matrix_to_json(np.eye(size))
    name = "measurements[(0, 0)][(0, 0)] dim"
    dev = devmod.device_from_json(d)
    assert [(v.name, v.magnitude) for v in devmod.validate(dev)] == [(name, float("inf"))]
    path = tmp_path / "dev.json"
    path.write_text(json.dumps(d))
    assert cli.main(["analyze", str(path)]) == 2
    assert capsys.readouterr().err == f"error: device cannot be analyzed: {name}\n"


def test_device_json_refuses_wrong_size_state(tmp_path, capsys):
    """A branch state of the wrong size loads; ``validate`` names it by
    basis and label, and ``analyze`` exits 2."""
    d = devmod.device_to_json(devmod.from_honest(0.0))
    d["branches"]["10"][2]["state"] = matrix_to_json(np.eye(3) / 3)
    name = "branch (1, 0)/(1, 0) dim"
    dev = devmod.device_from_json(d)
    assert [(v.name, v.magnitude) for v in devmod.validate(dev)] == [(name, float("inf"))]
    path = tmp_path / "dev.json"
    path.write_text(json.dumps(d))
    assert cli.main(["analyze", str(path)]) == 2
    assert capsys.readouterr().err == f"error: device cannot be analyzed: {name}\n"


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
    branch's weight would silently drop out of the analysis: the file loads,
    ``validate`` names the label and ``analyze`` refuses the device."""
    d = devmod.device_to_json(devmod.from_honest(0.0))
    d["branches"]["11"][0]["label"] = label
    dev = devmod.device_from_json(d)
    name = f"branch (1, 1)/{tuple(label)} label"
    assert [(v.name, v.magnitude) for v in devmod.validate(dev)] == [(name, float("inf"))]
    with pytest.raises(ValidationError, match=re.escape(name)):
        analysis.analyze(dev)


def test_validate_refuses_code_built_bool_label(tmp_path):
    """``(True, False)`` equals the outcome (1, 0) but is not two plain
    bits: ``validate`` names it, and a saved copy is refused on the way back
    in under the same name, so no file ``analyze`` reported on is refused."""
    dev = devmod.from_honest(0.0)
    dev.branches[(1, 1)][0].label = (True, False)
    name = "branch (1, 1)/(True, False) label"
    assert [(v.name, v.magnitude) for v in devmod.validate(dev)] == [(name, float("inf"))]
    path = tmp_path / "dev.json"
    devmod.save_device(dev, str(path))
    with pytest.raises(ValidationError, match=re.escape(name)):
        analysis.analyze(devmod.load_device(str(path)))


def test_validate_names_huge_dim_without_allocating():
    """A ``dim`` far beyond the matrices the device holds makes each of
    them an infinite ``dim`` violation; no array of that size is built."""
    dev = devmod.from_honest(0.0)
    dev.dim = 2 ** 40
    want = [f"branch {basis}/{br.label} dim"
            for basis in devmod.BASIS_PAIRS for br in dev.branches[basis]]
    want += [f"measurements[{q}][{o}] dim"
             for q in devmod.QUESTION_PAIRS for o in devmod.OUTCOME_PAIRS]
    tracemalloc.start()
    try:
        violations = devmod.validate(dev)
        with pytest.raises(ValidationError, match="device cannot be analyzed"):
            analysis.analyze(dev)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert [(v.name, v.magnitude) for v in violations] == [(n, float("inf")) for n in want]
    assert peak < 1 << 20


@pytest.mark.parametrize("dim,side", [(0, 0), (4.0, 4)])
def test_validate_names_bad_dim(dim, side):
    """A ``dim`` that is not a plain int >= 1, which only code can build,
    makes each matrix an infinite ``dim`` violation, even one of side
    ``dim``: an empty device has nothing to measure."""
    dev = devmod.from_honest(0.0)
    dev.dim = dim
    for brs in dev.branches.values():
        for br in brs:
            br.state = np.eye(side, dtype=complex) / max(side, 1)
    for meas in dev.measurements.values():
        for o in meas:
            meas[o] = np.eye(side, dtype=complex)
    violations = devmod.validate(dev)
    assert len(violations) == 32
    assert all(v.name.endswith(" dim") and v.magnitude == float("inf") for v in violations)
    with pytest.raises(ValidationError, match="device cannot be analyzed"):
        analysis.analyze(dev)


def test_device_json_refuses_huge_weight():
    """A JSON int too large for a float is refused, not an ``OverflowError``."""
    d = devmod.device_to_json(devmod.from_honest(0.0))
    d["branches"]["01"][0]["weight"] = 10 ** 400
    with pytest.raises(ValidationError, match="bad device description"):
        devmod.device_from_json(d)


@pytest.mark.parametrize("dim", [4.7, 4.0, "4", True, 0])
def test_device_json_refuses_bad_dim(dim):
    """``dim`` is a plain positive int; 4.7 would otherwise load as 4."""
    d = devmod.device_to_json(devmod.from_honest(0.0))
    d["dim"] = dim
    with pytest.raises(ValidationError):
        devmod.device_from_json(d)


@pytest.mark.parametrize("group", ["branches", "measurements"])
@pytest.mark.parametrize("key", ["011", "0", "02"])
def test_device_json_refuses_bad_pair_key(group, key):
    """A basis or question key is exactly two characters, each 0 or 1."""
    d = devmod.device_to_json(devmod.from_honest(0.0))
    d[group][key] = d[group].pop("01")
    with pytest.raises(ValidationError):
        devmod.device_from_json(d)


def test_dim_one_device_decodes_without_dim_violation():
    """``dim`` 1 is the smallest legal dimension: such a device decodes, and
    ``validate`` finds no ``dim`` violation in its 1 x 1 matrices."""
    d = devmod.device_to_json(devmod.from_honest(0.0))
    d["dim"] = 1
    one, zero = matrix_to_json(np.eye(1)), matrix_to_json(np.zeros((1, 1)))
    for branches in d["branches"].values():
        for br in branches:
            br["state"] = one
    d["measurements"] = {key: [one, zero, zero, zero] for key in d["measurements"]}
    dev = devmod.device_from_json(d)
    assert dev.dim == 1
    assert not [v.name for v in devmod.validate(dev) if v.name.endswith(" dim")]


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


def test_analyze_names_non_hermitian_bell_branch(tmp_path, capsys):
    """The Bell report's distances are hermitian eigensolves of the basis
    (1, 1) branches, so a non-hermitian one (a finite violation) is refused
    by name before any arithmetic, like an infinite one."""
    dev = devmod.from_honest(0.2)
    dev.branches[(1, 1)][0].state[0, 1] += 1e-6
    path = tmp_path / "dev.json"
    devmod.save_device(dev, str(path))
    assert cli.main(["analyze", str(path)]) == 2
    assert capsys.readouterr().err == \
        "error: device cannot be analyzed: branch (1, 1)/(0, 0) hermiticity\n"


def test_analyze_reports_non_hermitian_branch_of_other_basis():
    """The same defect outside basis (1, 1) enters no eigensolve, so the
    report is made and lists it."""
    dev = devmod.from_honest(0.2)
    dev.branches[(0, 1)][0].state[0, 1] += 1e-6
    report = analysis.analyze(dev)
    assert [v.name for v in report.violations] == ["branch (0, 1)/(0, 0) hermiticity"]
    assert report.gamma_t == pytest.approx(0.1, abs=1e-6)


@pytest.mark.parametrize("where,name", [
    ("projector", "measurements[(0, 0)][(0, 1)] dim"),
    ("state", "branch (1, 0)/(0, 0) dim"),
], ids=["projector", "state"])
def test_validate_reports_wrong_shape_matrix(where, name):
    """A 3x3 projector or a 4x3 branch state in a device of dimension 4,
    built in Python, is an infinite ``dim`` violation that ``analyze``
    refuses by name, as for a device file (see the wrong-size file tests)."""
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
