"""Tests of the benchmark itself: output schema and checker sensitivity.

Run from the repository root with ``python3 -m pytest bench``.
"""
from __future__ import annotations

import json
import os
import subprocess
import sys
from collections import Counter

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from bellcert import analysis, device, harness  # noqa: E402
from bellcert.entcf import EntcfParams  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)


def _run_lines(workload: str, trace: int) -> list[dict]:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", "7",
         "--seconds", "0.2", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr[-2000:]
    return [json.loads(line) for line in proc.stdout.strip().splitlines()[-2:]]


def _run(workload: str, trace: int) -> dict:
    return _run_lines(workload, trace)[-1]


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace", [0, 1])
def test_tiny_run_schema(workload, trace):
    out = _run(workload, trace)
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] is True
    assert out["attempted"] >= 1 and out["failed"] == 0
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {k: v["unit"] for k, v in out["metrics"].items()} == \
        {m["name"]: m["unit"] for m in declared}
    for metric in out["metrics"].values():
        assert isinstance(metric["value"], (int, float))
    if not trace:
        assert all(metric["value"] > 0 for metric in out["metrics"].values())


def test_times_are_scaled_by_the_gauge():
    diag, out = _run_lines("lwe_transcripts", 0)
    diag = diag["diagnostics"]
    slowdown = diag["gauge_ms"]["median"] / run.GAUGE_NOMINAL_MS
    assert diag["gauge_ms"]["samples"] == diag["rounds"]
    assert diag["slowdown"] == pytest.approx(slowdown)
    wall, metrics = diag["wall"], out["metrics"]
    assert metrics["ops_per_s"]["value"] == pytest.approx(wall["ops_per_s"] * slowdown)
    for name in ("latency_p50_ms", "latency_tail_ms"):
        assert metrics[name]["value"] == pytest.approx(wall[name] / slowdown)


def test_runs_fail_without_program_source(tmp_path):
    bench_copy = tmp_path / "bench"
    bench_copy.mkdir()
    for name in ("run.py", "workloads.py", "checks.py", "tracer.py"):
        (bench_copy / name).write_text(open(os.path.join(HERE, name)).read())
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(SPEC))
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "whitebox",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert proc.stdout == ""


# ---------------------------------------------------------------------------
# each checker rejects a corrupted output
# ---------------------------------------------------------------------------

def _records(tmp_path, **config) -> list[dict]:
    path = tmp_path / "t.jsonl"
    harness.run_sessions(harness.RunConfig(transcript_path=str(path), **config))
    return workloads.read_records(str(path))


def test_parity_checker_rejects_flipped_target(tmp_path):
    recs = _records(tmp_path, params=EntcfParams("ideal"), sessions=12, seed=3,
                    force_basis=(1, 1), force_round="hadamard")
    assert checks.check_parity_targets(recs) == []
    recs[5]["targets"]["u1"] ^= 1
    assert checks.check_parity_targets(recs)


def test_forced_honest_checker_rejects_flipped_flag(tmp_path):
    recs = _records(tmp_path, params=EntcfParams("ideal"), sessions=12, seed=3,
                    force_basis=(1, 1), force_round="hadamard")
    seen = Counter()
    assert checks.check_forced_honest(recs, seen) == []
    assert checks.check_forced_honest_seen(seen) == []
    recs[0]["flag"] = "fail_bell"
    assert checks.check_forced_honest(recs, Counter())
    assert checks.check_forced_honest_seen(Counter())


def test_classical_guess_checker_rejects_honest_answers(tmp_path):
    forced = {"force_basis": (1, 1), "force_round": "hadamard"}
    guess = _records(tmp_path, params=EntcfParams("ideal"), sessions=400, seed=4,
                     strategy="classical_guess", **forced)
    seen = Counter()
    assert checks.check_classical_guess(guess, seen) == []
    assert checks.check_classical_guess_rate(seen) == []
    honest = _records(tmp_path, params=EntcfParams("ideal"), sessions=400, seed=4, **forced)
    seen = Counter()
    assert checks.check_classical_guess(honest, seen) == []
    assert checks.check_classical_guess_rate(seen)


def test_merged_stats_equal_one_run():
    config = dict(params=EntcfParams("ideal"), strategy=f"honest_depolarized:{workloads.P_NOISE}")
    whole = harness.run_sessions(harness.RunConfig(sessions=30, seed=6, **config))
    merged = harness.RunStats()
    for start in (0, 10, 20):
        part = harness.RunStats()
        for sid in range(start, start + 10):
            part.add_record(harness.run_one_session(harness.RunConfig(seed=6, **config), sid))
        workloads.merge_stats(merged, part)
    assert merged.to_json() == whole.to_json()


def test_study_checker_rejects_wrong_noise():
    stats = harness.run_sessions(harness.RunConfig(
        params=EntcfParams("ideal"), sessions=3000, seed=5,
        strategy=f"honest_depolarized:{workloads.P_NOISE}"))
    gammas = harness.estimate_gammas(stats).to_json()
    assert checks.check_study_estimates(gammas, workloads.P_NOISE) == []
    assert checks.check_study_estimates(gammas, 0.0)
    gammas["gamma_p"]["value"] = 0.01
    assert checks.check_study_estimates(gammas, workloads.P_NOISE)


def test_lwe_opening_checker_rejects_altered_byte(tmp_path):
    params = EntcfParams("lwe")
    recs = _records(tmp_path, params=params, sessions=6, seed=2, force_round="preimage")
    assert checks.check_lwe_openings(recs, params.to_json()) == []
    x1 = recs[3]["openings"][1]
    recs[3]["openings"][1] = x1[:2] + ("0" if x1[2] != "0" else "1") + x1[3:]
    assert checks.check_lwe_openings(recs, params.to_json())


def test_lwe_round_checker_rejects_flipped_flag_and_stats(tmp_path):
    params = EntcfParams("lwe")
    path = tmp_path / "t.jsonl"
    stats = harness.run_sessions(harness.RunConfig(params=params, sessions=6, seed=2,
                                                   transcript_path=str(path)))
    recs = workloads.read_records(str(path))
    flags = [r["flag"] for r in recs]
    back = harness.stats_from_transcripts(str(path)).to_json()
    assert checks.check_lwe_round(recs, stats.to_json(), back, flags) == []
    assert checks.check_lwe_round(recs, stats.to_json(), back, ["fail_test"] + flags[1:])
    back["sessions"] += 1
    assert checks.check_lwe_round(recs, stats.to_json(), back, flags)


def test_tcp_checker_rejects_altered_byte_and_verdict(tmp_path):
    path = tmp_path / "t.jsonl"
    harness.run_sessions(harness.RunConfig(params=EntcfParams("ideal"), sessions=5, seed=1,
                                           transcript_path=str(path)))
    ref = path.read_bytes()
    flags = [r["flag"] for r in workloads.read_records(str(path))]
    assert checks.check_tcp_round(ref, ref, flags) == []
    altered = bytearray(ref)
    altered[100] ^= 1
    assert checks.check_tcp_round(bytes(altered), ref, flags)
    assert checks.check_tcp_round(ref, ref, ["fail_pre"] + flags[1:])


def test_whitebox_checker_rejects_perturbed_entry():
    bare = device.from_honest(workloads.P_NOISE)
    ref = analysis.analyze(bare).to_json()
    embedded = workloads.embed(bare, 8, np.random.default_rng(0))
    doc = analysis.analyze(embedded).to_json()
    assert checks.check_whitebox_report(doc, ref, workloads.P_NOISE) == []
    doc["test_entries"]["z1"] += 1e-6
    assert checks.check_whitebox_report(doc, ref, workloads.P_NOISE)
    doc = analysis.analyze(embedded).to_json()
    doc["bell_cases"][2]["measurement_distances"]["q01_v10"] += 1e-6
    assert checks.check_whitebox_report(doc, ref, workloads.P_NOISE)
