from __future__ import annotations

import hashlib
import json
import math

import pytest

from bellcert import harness
from bellcert.entcf import EntcfParams
from bellcert.errors import ConfigurationError
from bellcert.harness import RunConfig

IDEAL = EntcfParams(backend="ideal", ideal_w=16)


def test_run_config_validation():
    with pytest.raises(ConfigurationError):
        RunConfig(sessions=0)
    with pytest.raises(ConfigurationError):
        RunConfig(force_round="sideways")


def test_same_seed_reproduces_transcripts(tmp_path):
    paths = [tmp_path / "a.jsonl", tmp_path / "b.jsonl"]
    for path in paths:
        cfg = RunConfig(params=IDEAL, sessions=50, seed=77, transcript_path=str(path))
        harness.run_sessions(cfg)
    assert paths[0].read_text() == paths[1].read_text()


def test_different_seeds_differ(tmp_path):
    texts = []
    for seed in (1, 2):
        path = tmp_path / f"{seed}.jsonl"
        harness.run_sessions(RunConfig(params=IDEAL, sessions=50, seed=seed,
                                       transcript_path=str(path)))
        texts.append(path.read_text())
    assert texts[0] != texts[1]


def test_stats_roundtrip_through_transcripts(tmp_path):
    path = tmp_path / "t.jsonl"
    cfg = RunConfig(params=IDEAL, sessions=200, seed=5,
                    strategy="honest_depolarized:0.3", transcript_path=str(path))
    live = harness.run_sessions(cfg)
    replayed = harness.stats_from_transcripts(str(path))
    assert live.to_json() == replayed.to_json()


def test_honest_runs_have_no_failures():
    stats = harness.run_sessions(RunConfig(params=IDEAL, sessions=400, seed=9))
    assert stats.flag_counts.get("fail_pre", 0) == 0
    assert stats.flag_counts.get("fail_test", 0) == 0
    assert stats.flag_counts.get("fail_bell", 0) == 0
    assert stats.aborted == 0
    assert stats.undecodable == 0


def test_forced_basis_and_round():
    cfg = RunConfig(params=IDEAL, sessions=60, seed=3,
                    force_basis=(1, 1), force_round="hadamard")
    stats = harness.run_sessions(cfg)
    assert stats.fail_cond.get("fail_pre", [0, 0])[1] == 0
    assert not stats.test_counts
    total_bell = sum(t for _, t in stats.bell_counts.values())
    none_count = stats.flag_counts.get("none", 0)
    assert total_bell + none_count == 60


def test_estimates_track_noise():
    cfg = RunConfig(params=IDEAL, sessions=6000, seed=4,
                    strategy="honest_depolarized:0.3")
    est = harness.estimate_gammas(harness.run_sessions(cfg))
    for e in (est.gamma_t, est.gamma_b):
        assert not e.insufficient
        assert abs(e.value - 0.15) <= e.sigma3
    assert est.gamma_p.value == pytest.approx(0.0)
    blob = est.to_json()
    assert set(blob) == {"gamma_p", "gamma_t", "gamma_b", "conditional_fail_rates"}


def test_deficit_estimate_flags_small_buckets():
    est = harness._deficit_estimate({"a": [4, 5]}, min_samples=20)
    assert est.insufficient
    assert est.value == pytest.approx(0.2)
    assert math.isnan(harness._deficit_estimate({}, 20).value)


def test_sweep_rows_and_csv(tmp_path):
    cfg = RunConfig(params=IDEAL, sessions=800, seed=6)
    rows = harness.sweep([0.0, 0.2], cfg)
    assert [row["p"] for row in rows] == [0.0, 0.2]
    assert rows[0]["gamma_t"] == pytest.approx(0.0, abs=1e-12)
    assert rows[1]["gamma_t"] == pytest.approx(0.1, abs=1e-12)
    assert rows[0]["max_pauli_residual"] == pytest.approx(0.0, abs=1e-10)
    out = tmp_path / "sweep.csv"
    harness.write_sweep_csv(rows, str(out))
    header = out.read_text().splitlines()[0]
    assert header.startswith("p,gamma_t,gamma_b")
    with pytest.raises(ConfigurationError):
        harness.write_sweep_csv([], str(out))


def test_transcript_records_are_json_lines(tmp_path):
    path = tmp_path / "t.jsonl"
    harness.run_sessions(RunConfig(params=IDEAL, sessions=20, seed=8,
                                   transcript_path=str(path)))
    lines = path.read_text().strip().splitlines()
    assert len(lines) == 20
    for line in lines:
        rec = json.loads(line)
        assert rec["flag"] in ("ok", "none", "fail_pre", "fail_test", "fail_bell")


@pytest.mark.parametrize("backend,strategy,sessions,seed,digest", [
    ("ideal", "honest_depolarized:0.3", 300, 5,
     "e12a746778b324050a74d1bf7defd78b51b1d1d78ee82969d83e1d43854294fa"),
    ("ideal", "classical_guess", 300, 6,
     "b4a3285a747344fccba0275e44e4cf261f46dc62d8f167213c885d42345c976f"),
    ("ideal", "no_entangler", 300, 7,
     "fc3d51cdd25f5e6c744753609d48d3b47182101898a913869ff71e9441b5bc82"),
    ("lwe", "honest", 60, 8,
     "7733253e96b4eb56fe287397f05360dc51301b838f6cd63c69ecc41e6baa154c"),
])
def test_golden_transcripts(tmp_path, backend, strategy, sessions, seed, digest):
    """Fixed-seed unforced runs write byte-identical transcripts."""
    path = tmp_path / "t.jsonl"
    harness.run_sessions(RunConfig(params=EntcfParams(backend), sessions=sessions,
                                   strategy=strategy, seed=seed,
                                   transcript_path=str(path)))
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest
