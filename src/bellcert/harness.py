"""Session runs, accumulators and parameter sweeps.

Runs verifier and simulated prover in-process (``Prover.play`` against
``protocol.respond``); :func:`collect`, the record loop shared with the TCP
server, accumulates per-bucket pass counts for empirical deficit estimates
with binomial error bars.  Per-session ``(seed, session_id, role)`` streams
make in-process and TCP transcripts identical bit for bit.
"""
from __future__ import annotations

import contextlib
import csv
import json
import math
from collections import Counter
from dataclasses import dataclass, field
from typing import Iterable, Optional

import numpy as np

from . import analysis, device as devmod, protocol
from .entcf import EntcfParams
from .errors import AbortSessionError, ConfigurationError, MalformedMessageError
from .protocol import Flag, TranscriptRecord
from .provers import ClawOracle, make_prover

VERIFIER_ROLE, PROVER_ROLE = 0, 1


def role_rng(seed: int, session_id: int, role: int) -> np.random.Generator:
    """Deterministic per-session, per-role random stream."""
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(session_id, role))
    return np.random.Generator(np.random.PCG64(ss))


@dataclass
class RunConfig:
    params: EntcfParams = field(default_factory=EntcfParams)
    sessions: int = 1000
    strategy: str = "honest"
    seed: int = 0
    retry_budget: int = 64
    force_basis: Optional[tuple[int, int]] = None
    force_round: Optional[str] = None
    transcript_path: Optional[str] = None

    def __post_init__(self):
        if self.sessions < 1:
            raise ConfigurationError("need at least one session")
        if self.force_round not in (None, *protocol.ROUND_TYPES):
            raise ConfigurationError(f"bad forced round {self.force_round!r}")
        if self.force_basis is not None and not protocol.is_pair(self.force_basis):
            raise ConfigurationError(f"forced basis {self.force_basis!r} is not a pair of bits")


def run_one_session(config: RunConfig, session_id: int) -> TranscriptRecord:
    vrng = role_rng(config.seed, session_id, VERIFIER_ROLE)
    prng = role_rng(config.seed, session_id, PROVER_ROLE)
    state, keys_msg = protocol.start_session(config.params, vrng, session_id,
                                             basis=config.force_basis,
                                             round_type=config.force_round)
    oracle = ClawOracle(config.params, state.keys, state.trapdoors)
    prover = make_prover(config.strategy, config.params, prng, oracle,
                         config.retry_budget)
    prover.play(keys_msg, lambda msg: protocol.respond(state, msg, vrng))
    return protocol.record_from_state(state)


@dataclass
class RunStats:
    sessions: int = 0
    flag_counts: Counter = field(default_factory=Counter)
    aborted: int = 0
    undecodable: int = 0
    pre_counts: dict = field(default_factory=dict)     # (basis, leg) -> [ok, total]
    test_counts: dict = field(default_factory=dict)    # name -> [ok, total]
    bell_counts: dict = field(default_factory=dict)    # name -> [ok, total]
    fail_cond: dict = field(default_factory=dict)      # flag -> [fails, opportunities]

    def add_record(self, rec: TranscriptRecord) -> None:
        self.sessions += 1
        self.flag_counts[rec.flag] += 1
        basis = tuple(rec.basis)
        if rec.round_type == "preimage":
            if rec.pre_leg_ok is None:
                raise MalformedMessageError("preimage record lacks leg outcomes")
            fc = self.fail_cond.setdefault("fail_pre", [0, 0])
            fc[1] += 1
            fc[0] += rec.flag == Flag.FAIL_PRE.value
            for leg, ok in enumerate(rec.pre_leg_ok):
                cell = self.pre_counts.setdefault((basis, leg), [0, 0])
                cell[1] += 1
                cell[0] += bool(ok)
            return
        pair = protocol.accepted_pair(basis, rec.targets or {})
        if None in pair:
            self.undecodable += 1
            return
        if rec.questions is None or rec.answers is None:
            raise MalformedMessageError("hadamard record is incomplete")
        q, v = tuple(rec.questions), tuple(rec.answers)
        rows = [c for c in protocol.CHECKS if c.basis == basis]
        if not rows:
            return
        kind = rows[0].fail_flag
        applied = [c for c in rows if c.questions == q]
        # every mixed-basis round is a test opportunity, but an all-F round
        # is a Bell opportunity only under the cross questions
        if kind is Flag.FAIL_BELL and not applied:
            return
        fc = self.fail_cond.setdefault(kind.value, [0, 0])
        fc[1] += 1
        fc[0] += rec.flag == kind.value
        counts = self.bell_counts if kind is Flag.FAIL_BELL else self.test_counts
        for c in applied:
            cell = counts.setdefault(c.bucket, [0, 0])
            cell[1] += 1
            cell[0] += c.passes(v, pair)

    def to_json(self) -> dict:
        return {
            "sessions": self.sessions,
            "flag_counts": dict(self.flag_counts),
            "aborted": self.aborted,
            "undecodable": self.undecodable,
            "pre_counts": {f"{b[0]}{b[1]}.leg{leg + 1}": list(v)
                           for (b, leg), v in self.pre_counts.items()},
            "test_counts": {k: list(v) for k, v in self.test_counts.items()},
            "bell_counts": {k: list(v) for k, v in self.bell_counts.items()},
            "conditional_fail": {k: list(v) for k, v in self.fail_cond.items()},
        }


def collect(config: RunConfig, play) -> RunStats:
    """Count and write the record of ``play(session_id)`` for every session;
    protocol and transport errors count as aborts, and ``None`` ends the run."""
    stats = RunStats()
    with (open(config.transcript_path, "w", encoding="utf-8") if config.transcript_path
          else contextlib.nullcontext()) as sink:
        for sid in range(config.sessions):
            try:
                rec = play(sid)
            except (AbortSessionError, MalformedMessageError, OSError):
                stats.aborted += 1
                continue
            if rec is None:
                break
            stats.add_record(rec)
            if sink is not None:
                sink.write(json.dumps(rec.to_json()) + "\n")
    return stats


def run_sessions(config: RunConfig) -> RunStats:
    # run_one_session is looked up for every session, so it can be swapped out
    return collect(config, lambda sid: run_one_session(config, sid))


def read_transcripts(path: str) -> Iterable[TranscriptRecord]:
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line:
                yield TranscriptRecord.from_json(json.loads(line))


def stats_from_transcripts(path: str) -> RunStats:
    stats = RunStats()
    for rec in read_transcripts(path):
        stats.add_record(rec)
    return stats


# ---------------------------------------------------------------------------
# estimates
# ---------------------------------------------------------------------------

@dataclass
class Estimate:
    value: float
    sigma3: float
    bucket: str
    samples: int
    insufficient: bool

    def to_json(self) -> dict:
        return {"value": self.value, "sigma3": self.sigma3, "bucket": self.bucket,
                "samples": self.samples, "insufficient": self.insufficient}


def _deficit_estimate(counts: dict, min_samples: int) -> Estimate:
    """1 - (smallest bucket pass frequency), with its binomial error bar."""
    if not counts:
        return Estimate(float("nan"), float("nan"), "", 0, True)
    worst_name, worst_rate, worst_n = "", 2.0, 0
    insufficient = False
    for name, (ok, total) in sorted(counts.items()):
        if total < min_samples:
            insufficient = True
        rate = ok / total if total else 0.0
        if total and rate < worst_rate:
            worst_name, worst_rate, worst_n = str(name), rate, total
    sig3 = 3.0 * math.sqrt(max(worst_rate * (1.0 - worst_rate), 1.0 / worst_n) / worst_n) \
        if worst_n else float("nan")
    return Estimate(1.0 - worst_rate, sig3, worst_name, worst_n, insufficient)


@dataclass
class GammaEstimates:
    gamma_p: Estimate
    gamma_t: Estimate
    gamma_b: Estimate
    fail_rates: dict

    def to_json(self) -> dict:
        return {"gamma_p": self.gamma_p.to_json(), "gamma_t": self.gamma_t.to_json(),
                "gamma_b": self.gamma_b.to_json(),
                "conditional_fail_rates": dict(self.fail_rates)}


def estimate_gammas(stats: RunStats, min_samples: int = 20) -> GammaEstimates:
    rates = {}
    for kind, (fails, total) in stats.fail_cond.items():
        rates[kind] = fails / total if total else float("nan")
    return GammaEstimates(
        gamma_p=_deficit_estimate(stats.pre_counts, min_samples),
        gamma_t=_deficit_estimate(stats.test_counts, min_samples),
        gamma_b=_deficit_estimate(stats.bell_counts, min_samples),
        fail_rates=rates)


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------

def sweep(noise_grid: Iterable[float], config: RunConfig) -> list[dict]:
    """White-box deficits and empirical estimates across a noise grid."""
    rows = []
    for p in noise_grid:
        dev = devmod.from_honest(p)
        report = analysis.analyze(dev)
        cfg = RunConfig(params=config.params, sessions=config.sessions,
                        strategy=f"honest_depolarized:{p}" if p else "honest",
                        seed=config.seed, retry_budget=config.retry_budget)
        est = estimate_gammas(run_sessions(cfg))
        rows.append({
            "p": p,
            "gamma_t": report.gamma_t, "gamma_b": report.gamma_b,
            "gamma_t_hat": est.gamma_t.value, "gamma_t_hat_sigma3": est.gamma_t.sigma3,
            "gamma_b_hat": est.gamma_b.value, "gamma_b_hat_sigma3": est.gamma_b.sigma3,
            "gamma_p_hat": est.gamma_p.value,
            "max_pauli_residual": max(report.pauli_rounding.values()),
            "max_bell_distance": max(c.state_distance for c in report.bell_cases),
        })
    return rows


def write_sweep_csv(rows: list[dict], path: str) -> None:
    if not rows:
        raise ConfigurationError("empty sweep")
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)
