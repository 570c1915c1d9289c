from __future__ import annotations

import hashlib
import json
import math

import pytest

from bellcert import harness, protocol
from bellcert.entcf import EntcfParams
from bellcert.errors import ConfigurationError, MalformedMessageError
from bellcert.harness import RunConfig
from bellcert.provers import HonestProver

IDEAL = EntcfParams(backend="ideal", ideal_w=16)


def test_run_config_validation():
    with pytest.raises(ConfigurationError):
        RunConfig(sessions=0)
    with pytest.raises(ConfigurationError):
        RunConfig(force_round="sideways")
    for basis in ((2, 0), (1,), (1, 1, 0), ("1", "1")):
        with pytest.raises(ConfigurationError):
            RunConfig(force_basis=basis)


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


def test_in_process_abort_is_counted(tmp_path, monkeypatch):
    """A session whose prover gives up counts as aborted and writes no record."""
    monkeypatch.setattr(HonestProver, "self_check", lambda self: False)
    path = tmp_path / "t.jsonl"
    stats = harness.run_sessions(RunConfig(params=IDEAL, sessions=5, seed=1, retry_budget=3,
                                           strategy="perfected:honest",
                                           transcript_path=str(path)))
    assert stats.aborted == 5
    assert stats.sessions == 0
    assert path.read_text() == ""


def test_transcript_records_are_json_lines(tmp_path):
    path = tmp_path / "t.jsonl"
    harness.run_sessions(RunConfig(params=IDEAL, sessions=20, seed=8,
                                   transcript_path=str(path)))
    lines = path.read_text().strip().splitlines()
    assert len(lines) == 20
    for line in lines:
        rec = json.loads(line)
        assert rec["flag"] in ("ok", "none", "fail_pre", "fail_test", "fail_bell")


def _first_record(path, round_type: str) -> dict:
    """The first record of ``round_type`` in a 20-session ideal run."""
    harness.run_sessions(RunConfig(params=IDEAL, sessions=20, seed=8,
                                   transcript_path=str(path)))
    return next(r for r in map(json.loads, path.read_text().splitlines())
                if r["round_type"] == round_type)


@pytest.mark.parametrize("round_type,field", [("preimage", "pre_leg_ok"),
                                              ("hadamard", "questions")])
def test_incomplete_record_is_malformed(tmp_path, round_type, field):
    path = tmp_path / "t.jsonl"
    rec = _first_record(path, round_type)
    if round_type == "hadamard":  # decodable, so add_record reads its questions
        assert None not in protocol.accepted_pair(tuple(rec["basis"]), rec["targets"])
    rec[field] = None
    path.write_text(json.dumps(rec) + "\n")
    with pytest.raises(MalformedMessageError):
        harness.stats_from_transcripts(str(path))


@pytest.mark.parametrize("round_type,field,value", [
    ("hadamard", "basis", ["a", "b"]), ("hadamard", "basis", [1]), ("hadamard", "basis", [2, 0]),
    ("hadamard", "basis", [1, True]), ("hadamard", "round_type", "sideways"),
    ("hadamard", "flag", "passed"), ("hadamard", "questions", [7, 7]),
    ("hadamard", "questions", [0, 1, 0]), ("hadamard", "answers", [1.0, 0]),
    ("hadamard", "answers", ["1", "0"]), ("hadamard", "targets", [0, 1]),
    ("preimage", "pre_leg_ok", [1, 1]), ("preimage", "pre_leg_ok", [True]),
])
def test_invalid_record_fields_are_malformed(tmp_path, round_type, field, value):
    """An edited record is refused on loading, before any recheck or count."""
    path = tmp_path / "t.jsonl"
    rec = _first_record(path, round_type)
    protocol.recheck_flag(protocol.TranscriptRecord.from_json(rec))  # the record as written
    rec[field] = value
    with pytest.raises(MalformedMessageError):
        protocol.recheck_flag(protocol.TranscriptRecord.from_json(rec))
    path.write_text(json.dumps(rec) + "\n")
    with pytest.raises(MalformedMessageError):
        harness.stats_from_transcripts(str(path))


def _transcript_digest(tmp_path, backend: str, **config) -> str:
    path = tmp_path / "t.jsonl"
    harness.run_sessions(RunConfig(params=EntcfParams(backend), transcript_path=str(path),
                                   **config))
    return hashlib.sha256(path.read_bytes()).hexdigest()


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
    assert _transcript_digest(tmp_path, backend, sessions=sessions, strategy=strategy,
                              seed=seed) == digest


@pytest.mark.parametrize("backend,strategy,sessions,seed,force_basis,force_round,digest", [
    ("ideal", "classical_guess", 300, 9, (1, 1), "hadamard",
     "23063421261102f8ab9b5096803c71ab8b955ad844d1acff2b7a59e141aa4ddf"),
    ("ideal", "honest", 300, 10, None, "preimage",
     "76e84d42b1d2536fe57c3ad218bd0ca44f408a17075939c68d7bec7cbd0e5466"),
    ("lwe", "honest", 60, 11, (0, 1), "hadamard",
     "18d28b6e1e805ec3c64dbfb1fa6745c56f748be63e34fa7b79285b5c045c73ca"),
])
def test_golden_forced_transcripts(tmp_path, backend, strategy, sessions, seed,
                                   force_basis, force_round, digest):
    """Forced basis and round runs write byte-identical transcripts too."""
    assert _transcript_digest(tmp_path, backend, sessions=sessions, strategy=strategy,
                              seed=seed, force_basis=force_basis,
                              force_round=force_round) == digest
