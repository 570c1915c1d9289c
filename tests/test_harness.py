from __future__ import annotations

import hashlib
import json
import math
from collections import Counter

import pytest

from bellcert import entcf, harness, net, protocol
from bellcert.entcf import EntcfParams
from bellcert.errors import (AbortSessionError, BellcertError, ConfigurationError,
                             MalformedMessageError)
from bellcert.harness import RunConfig
from bellcert.provers import ClawOracle, HonestProver

IDEAL = EntcfParams(backend="ideal")


def test_run_config_validation():
    with pytest.raises(ConfigurationError):
        RunConfig(sessions=0)
    with pytest.raises(ConfigurationError):
        RunConfig(force_round="sideways")
    for strategy in ("telepathy", "perfected:honest", "honest_depolarized:"):
        with pytest.raises(ConfigurationError):
            RunConfig(strategy=strategy)
    for basis in ((2, 0), (1,), (1, 1, 0), ("1", "1")):
        with pytest.raises(ConfigurationError):
            RunConfig(force_basis=basis)


@pytest.mark.parametrize("sessions", [2.5, True, "3", 0])
def test_run_config_refuses_bad_sessions(sessions):
    """A session count is a plain int of at least 1: a float would fail
    later inside ``run_sessions`` and ``True`` would run one session."""
    with pytest.raises(ConfigurationError, match="sessions"):
        RunConfig(sessions=sessions)


@pytest.mark.parametrize("seed", [-1, 1.5, "3", None])
def test_run_config_refuses_bad_seed(seed):
    """A seed is a non-negative int; numpy would refuse a negative one only
    when the first session draws its streams."""
    with pytest.raises(ConfigurationError, match="seed"):
        RunConfig(seed=seed)


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


class _RandomImageProver(HonestProver):
    """Commits uniformly drawn ideal images in place of its own, so the
    verifier's trapdoors decode almost none of them."""

    def commit(self, keys_msg):
        msg = super().commit(keys_msg)
        params = self.keys[0].params
        for k in ("y1", "y2"):
            y = int.from_bytes(self.rng.bytes(2 * params.ideal_w // 8), "little")
            msg["payload"][k] = entcf.image_to_wire(params, y)
        return msg


def _play_random_images(config: RunConfig, session_id: int) -> protocol.TranscriptRecord:
    vrng = harness.role_rng(config.seed, session_id, harness.VERIFIER_ROLE)
    prng = harness.role_rng(config.seed, session_id, harness.PROVER_ROLE)
    state, keys_msg = protocol.start_session(config.params, vrng, session_id)
    prover = _RandomImageProver(prng, ClawOracle(state.keys, state.trapdoors))
    prover.play(keys_msg, lambda msg: protocol.respond(state, msg, vrng))
    return protocol.record_from_state(state)


def _judged_run(path, how: str) -> harness.RunStats:
    """The live statistics of a run that writes its transcript to ``path``."""
    cfg = RunConfig(params=EntcfParams("lwe") if how == "lwe" else IDEAL,
                    sessions=40 if how == "lwe" else 200, seed=11,
                    strategy="honest_depolarized:0.3", transcript_path=str(path))
    if how == "tcp":
        thread, port, result = net.serve_in_thread("127.0.0.1", 0, cfg, timeout=20)
        for _ in range(cfg.sessions):
            net.run_prover("127.0.0.1", port, cfg.strategy, cfg.seed)
        thread.join(20)
        return result[0]
    if how == "random_images":
        return harness.collect(cfg, lambda sid: _play_random_images(cfg, sid),
                               harness.open_transcript(cfg))
    return harness.run_sessions(cfg)


@pytest.mark.parametrize("how", ["ideal", "lwe", "tcp", "random_images"])
def test_stats_tally_the_judgements(tmp_path, how):
    """The buckets and ``conditional_fail`` count exactly what the verdict
    judged, undecodable rounds included, live and read back alike."""
    path = tmp_path / "t.jsonl"
    live = _judged_run(path, how)
    assert live.sessions and not live.aborted
    assert live.to_json() == harness.stats_from_transcripts(str(path)).to_json()
    for kind in ("fail_pre", "fail_test", "fail_bell"):
        assert live.fail_cond.get(kind, [0, 0])[0] == live.flag_counts.get(kind, 0)
    tested = Counter(bucket for rec in harness.read_transcripts(str(path))
                     for bucket, _ in protocol.judge(rec).tested)
    buckets = {**live.pre_counts, **live.test_counts, **live.bell_counts}
    assert {bucket: total for bucket, (_, total) in buckets.items()} == tested
    if how == "random_images":
        assert live.undecodable > live.sessions / 3
        assert len(live.test_counts) == 8 and len(live.bell_counts) == 2


def _replay(record: protocol.TranscriptRecord, config: RunConfig, seed: int):
    """``record``'s prover messages, rebuilt from its stored values and played to a
    fresh verifier on ``seed``'s stream and the run's forced options: the new
    record, or None when a package error ends the replay."""
    sid = record.session_id
    vrng = harness.role_rng(seed, sid, harness.VERIFIER_ROLE)
    state, _ = protocol.start_session(config.params, vrng, sid, basis=config.force_basis,
                                      round_type=config.force_round)
    sent = [("commit", record.images)] + (
        [("preimage", record.openings)] if record.round_type == "preimage"
        else [("equations", record.equations), ("answers", record.answers)])
    try:
        for mtype, values in sent:
            payload = dict(zip(protocol.PAYLOAD_FIELDS[mtype], values))
            protocol.respond(state, protocol.message(mtype, sid, payload), vrng)
        return protocol.record_from_state(state)
    except BellcertError:
        return None


@pytest.mark.parametrize("backend,sessions,strategy,force", [
    ("ideal", 200, "honest_depolarized:0.2", {}),
    ("lwe", 60, "classical_guess", {}),
    ("ideal", 60, "no_entangler", {"force_basis": (1, 1), "force_round": "hadamard"}),
], ids=["ideal", "lwe", "forced_bell"])
def test_records_replay_exactly(tmp_path, backend, sessions, strategy, force):
    """Every stored record is what a fresh verifier on the run's seed records
    when its prover messages are played back to it; under another seed none is."""
    path = tmp_path / "t.jsonl"
    cfg = RunConfig(params=EntcfParams(backend), sessions=sessions, strategy=strategy,
                    seed=21, transcript_path=str(path), **force)
    harness.run_sessions(cfg)
    records = list(harness.read_transcripts(str(path)))
    assert len(records) == sessions
    assert {rec.round_type for rec in records} == set(
        protocol.ROUND_TYPES if not force else [force["force_round"]])
    assert all(_replay(rec, cfg, cfg.seed) == rec for rec in records)
    assert not any(_replay(rec, cfg, cfg.seed + 1) == rec for rec in records)


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
    est = harness._deficit_estimate({"a": [4, 5]})
    assert est.insufficient
    assert est.value == pytest.approx(0.2)
    assert not harness._deficit_estimate({"a": [4, harness.MIN_SAMPLES]}).insufficient
    assert math.isnan(harness._deficit_estimate({}).value)


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
    def fail_to_invert(self, leg, b, x, y):
        raise AbortSessionError("claw oracle failed to invert a fresh image")

    monkeypatch.setattr(ClawOracle, "claw_xor", fail_to_invert)
    path = tmp_path / "t.jsonl"
    stats = harness.run_sessions(RunConfig(params=IDEAL, sessions=5, seed=1,
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


_UNDECODABLE = {"b1": None, "b2": None, "u1": None, "u2": None}


@pytest.mark.parametrize("round_type,edit", [
    pytest.param("preimage", {"pre_leg_ok": None}, id="preimage-pre_leg_ok"),
    pytest.param("preimage", {"openings": None}, id="preimage-openings"),
    pytest.param("hadamard", {"questions": None}, id="hadamard-questions"),
    pytest.param("hadamard", {"equations": None}, id="hadamard-equations"),
    pytest.param("hadamard", {"targets": None}, id="hadamard-targets"),
    pytest.param("hadamard", {"targets": _UNDECODABLE, "questions": None},
                 id="hadamard-undecodable-questions"),
    pytest.param("hadamard", {"targets": _UNDECODABLE, "answers": None},
                 id="hadamard-undecodable-answers"),
])
def test_incomplete_record_is_malformed(tmp_path, round_type, edit):
    """A record that lacks a field its round type always fills in is refused
    on loading, whether or not its targets decode."""
    path = tmp_path / "t.jsonl"
    rec = _first_record(path, round_type)
    if round_type == "hadamard":  # decodable, so only an edit can make it undecodable
        assert None not in protocol.accepted_pair(tuple(rec["basis"]), rec["targets"])
    rec.update(edit)
    with pytest.raises(MalformedMessageError):
        protocol.TranscriptRecord.from_json(rec)
    path.write_text(json.dumps(rec) + "\n")
    with pytest.raises(MalformedMessageError):
        harness.stats_from_transcripts(str(path))


def test_truncated_transcript_is_malformed(tmp_path):
    """A transcript cut mid-line, as a run killed mid-write leaves it, reads
    up to the cut and then raises MalformedMessageError naming the line."""
    path = tmp_path / "t.jsonl"
    harness.run_sessions(RunConfig(params=IDEAL, sessions=20, seed=8,
                                   transcript_path=str(path)))
    data = path.read_bytes()
    whole = data[:5000].count(b"\n")
    path.write_bytes(data[:5000])
    records = harness.read_transcripts(str(path))
    assert len([next(records) for _ in range(whole)]) == whole
    with pytest.raises(MalformedMessageError, match=f"line {whole + 1} "):
        next(records)
    with pytest.raises(MalformedMessageError):
        harness.stats_from_transcripts(str(path))


_TARGETS = {"b1": None, "b2": None, "u1": 0, "u2": 1}


@pytest.mark.parametrize("round_type,field,value", [
    ("hadamard", "basis", ["a", "b"]), ("hadamard", "basis", [1]), ("hadamard", "basis", [2, 0]),
    ("hadamard", "basis", [1, True]), ("hadamard", "round_type", "sideways"),
    ("hadamard", "flag", "passed"), ("hadamard", "questions", [7, 7]),
    ("hadamard", "questions", [0, 1, 0]), ("hadamard", "answers", [1.0, 0]),
    ("hadamard", "answers", ["1", "0"]), ("hadamard", "targets", [0, 1]),
    ("preimage", "pre_leg_ok", [1, 1]), ("preimage", "pre_leg_ok", [True]),
    ("hadamard", "session_id", "5"), ("hadamard", "session_id", 5.7),
    ("hadamard", "session_id", True), ("hadamard", "session_id", "abc"),
    ("hadamard", "session_id", -1), ("hadamard", "images", "ab"),
    ("hadamard", "images", ["zz"]), ("hadamard", "images", [1, 2]),
    ("hadamard", "keys", "ab"), ("hadamard", "keys", [{}, []]),
    ("preimage", "openings", [1, "00", 1]), ("preimage", "openings", [2, "00", 0, "00"]),
    ("preimage", "openings", [1, 5, 1, "00"]), ("preimage", "openings", "ab"),
    ("hadamard", "equations", "ab"), ("hadamard", "equations", ["00", 0]),
    ("hadamard", "targets", _TARGETS | {"u2": "x"}), ("hadamard", "targets", _TARGETS | {"b1": 7}),
    ("hadamard", "targets", _TARGETS | {"u1": True}),
    ("hadamard", "targets", _TARGETS | {"deg1": 0}),
    ("hadamard", "targets", _TARGETS | {"deg1": False}),  # the earlier format's flag
    ("hadamard", "keys", [{"family": "F", "payload": {}}, {"payload": {}}]),
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
     "2e00e552cce4ff9a6184d2995e1d4d76e896c295a846bbbdb09b723f202077ec"),
    ("ideal", "classical_guess", 300, 6,
     "90802131a07e88052ccb1152288c2d9cf31a6597b6a2e572c65e2b9d65df32cf"),
    ("ideal", "no_entangler", 300, 7,
     "4e15f6ac80eb489785365407255c5e84f6e6b5caf0859924a91bb79b5d75856e"),
    ("lwe", "honest", 60, 8,
     "467ad21212f090138c21f60aca8cf437ac931e1db90273db2a5de704e8de43c2"),
    ("lwe", "classical_guess", 60, 14,
     "b371c9c39fc5bc7cf83d71c0f42f9539226d176d19cade1fc57df5bf56e51623"),
])
def test_golden_transcripts(tmp_path, backend, strategy, sessions, seed, digest):
    """Fixed-seed unforced runs write byte-identical transcripts."""
    assert _transcript_digest(tmp_path, backend, sessions=sessions, strategy=strategy,
                              seed=seed) == digest


@pytest.mark.parametrize("backend,strategy,sessions,seed,force_basis,force_round,digest", [
    ("ideal", "classical_guess", 300, 9, (1, 1), "hadamard",
     "36d4655cc3d064c9e482610cb05660d20d1f981746827a2b580310cc459d9ec9"),
    ("ideal", "honest", 300, 10, None, "preimage",
     "14fc7f3d200eef42c35342155ba75b6e4aa989d6a4a1a237e54afc2381eef44d"),
    ("lwe", "honest", 60, 11, (0, 1), "hadamard",
     "d6b4db724384f5beb7ceb8281d70c652975b21c792234e3d3a559ab4a217bfa0"),
    ("lwe", "honest", 60, 12, (1, 1), "hadamard",
     "a1d650e4d30227bd3a07be0e25a78926320ae32393f831d54a7d12c0393ac80b"),
    ("lwe", "honest", 60, 13, None, "preimage",
     "dd584c488144883b0b3b28d30564dddfc6769dfb226148c866aa2dab2368d4d2"),
    ("ideal", "honest", 300, 15, (1, 1), "hadamard",
     "ef5bcbc40ead9b5aa156b43c4463a1eccbb5c038dff66bdefc0602b03d5dc276"),
])
def test_golden_forced_transcripts(tmp_path, backend, strategy, sessions, seed,
                                   force_basis, force_round, digest):
    """Forced basis and round runs write byte-identical transcripts too."""
    assert _transcript_digest(tmp_path, backend, sessions=sessions, strategy=strategy,
                              seed=seed, force_basis=force_basis,
                              force_round=force_round) == digest
