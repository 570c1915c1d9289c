"""The four benchmark workloads.

Each workload does its set-up in ``__init__``, runs one fixed round of ops
per ``round()`` call (the runner times rounds and stops after whole
rounds), checks each round's outputs in ``after_round()`` outside the
timed region, and makes its final checks in ``finish()``.  An op is one
protocol session, or one ``analysis.analyze`` call with its JSON report
on ``whitebox``.
"""
from __future__ import annotations

import json
import os
from collections import Counter
import time
import traceback
from array import array

import numpy as np

from bellcert import analysis, device, harness, net, protocol
from bellcert.entcf import EntcfParams

import checks

P_NOISE = 0.2          # depolarizing strength of the study and white-box devices
WHITEBOX_DIM = 24      # 4-dim device tensored with a 6-dim junk register
HOST = "127.0.0.1"
SERVER_TIMEOUT = 30.0
ROUND_LEVEL_OP = -2    # op id of spans recorded outside any single op


def derive_seed(*key: int) -> int:
    """An integer seed for one stream of a workload, derived from its key."""
    return int(np.random.SeedSequence(list(key)).generate_state(1, np.uint64)[0])


class Workload:
    name = ""
    tail_percentile = 95.0

    def __init__(self, seed: int, outdir: str):
        self.seed = seed
        self.outdir = outdir
        self.tracer = None
        self.latencies = array("d")   # seconds per op; compact, as it grows with the run
        self.ops = 0
        self.failed = 0
        self.sessions = 0
        self.output_bytes = 0
        self.forced_ops = 0           # forced-basis sessions (ideal_study only)
        self.forced_s = 0.0           # and their summed latency
        self.problems: list[str] = []
        self.errors: list[str] = []
        self._starts = array("d")
        self._run_one_session = None

    def span(self, name: str, fn):
        """Call ``fn()``, inside a span named ``name`` when tracing."""
        if self.tracer is None:
            return fn()
        return self.tracer.span(name, fn)

    def _note_error(self) -> None:
        if len(self.errors) < 3:
            self.errors.append(traceback.format_exc(limit=4))

    def op(self, fn):
        """Run and time one op; a raised exception counts it as failed."""
        if self.tracer is not None:
            self.tracer.op = self.ops
        self.ops += 1
        t0 = time.perf_counter()
        try:
            result = fn()
        except Exception:  # the run must go on and report the failure
            self.failed += 1
            self._note_error()
            return None
        self.latencies.append(time.perf_counter() - t0)
        return result

    def install_session_clock(self) -> None:
        """Stand in for ``harness.run_one_session``, which ``harness.run_sessions``
        looks up by name for every session, to note each session's start."""
        self._run_one_session = harness.run_one_session
        harness.run_one_session = self._clocked_session

    def _clocked_session(self, config, session_id):
        if self.tracer is not None:
            self.tracer.op = self.ops + len(self._starts)
        self._starts.append(time.perf_counter())
        return self._run_one_session(config, session_id)

    def run_sessions(self, config: harness.RunConfig) -> tuple[harness.RunStats, float]:
        """``harness.run_sessions(config)`` with each of its sessions an op.

        A session's latency runs from its start to the next session's start,
        or to the call's return for the last one, so it covers
        ``run_one_session``, ``RunStats.add_record`` and the transcript line
        that ``run_sessions`` writes.  Sessions without a record (aborted,
        or cut short by an exception) count as failed.  Returns the stats
        (empty if the call raised) and the summed latency in seconds.
        """
        self._starts = array("d")
        try:
            stats = harness.run_sessions(config)
        except Exception:  # the run must go on and report the failure
            self._note_error()
            stats = harness.RunStats()
        end = time.perf_counter()
        starts = self._starts
        lat = [b - a for a, b in zip(starts, starts[1:])] + ([end - starts[-1]] if starts else [])
        self.latencies.extend(lat)
        self.ops += config.sessions
        self.failed += config.sessions - stats.sessions
        self.sessions += stats.sessions
        return stats, sum(lat)

    def round_level(self):
        if self.tracer is not None:
            self.tracer.op = ROUND_LEVEL_OP

    def round(self) -> None:
        raise NotImplementedError

    def after_round(self) -> None:
        pass

    def finish(self) -> list[str]:
        return self.problems

    def close(self) -> None:
        pass

    def _path(self, name: str) -> str:
        return os.path.join(self.outdir, name)


def iter_records(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            yield json.loads(line)


def read_records(path: str) -> list[dict]:
    return list(iter_records(path))


def merge_stats(total: harness.RunStats, part: harness.RunStats) -> None:
    """Add the counts of ``part`` into ``total``."""
    total.sessions += part.sessions
    total.flag_counts.update(part.flag_counts)
    total.aborted += part.aborted
    total.undecodable += part.undecodable
    for name in ("pre_counts", "test_counts", "bell_counts", "fail_cond"):
        into = getattr(total, name)
        for key, (ok, n) in getattr(part, name).items():
            cell = into.setdefault(key, [0, 0])
            cell[0] += ok
            cell[1] += n


class IdealStudy(Workload):
    """In-process ideal-backend sessions with transcripts.

    A round is one ``harness.run_sessions`` call per stream: 10 sessions of
    an honest_depolarized:0.2 study, then 11 forced (1,1) hadamard sessions
    of classical_guess and 11 of honest, each stream with its own seed per
    round.  It ends with ``estimate_gammas`` on the study's counts so far.
    The 10:11:11 mix is that of the package's own reproduction of the
    paper on this backend: acceptance test 07 estimates the deficits from a
    10,000-session study at p = 0.2, and test 08 measures the Bell-check gap
    on 11,000 forced sessions per strategy.
    """
    name = "ideal_study"
    STREAMS = (  # (transcript, strategy, forced, sessions per round)
        ("study", f"honest_depolarized:{P_NOISE}", False, 10),
        ("classical_guess", "classical_guess", True, 11),
        ("honest", "honest", True, 11),
    )

    def __init__(self, seed: int, outdir: str):
        super().__init__(seed, outdir)
        self.params = EntcfParams("ideal")
        self.install_session_clock()
        self.rounds = 0
        self.study = harness.RunStats()
        self.stats: dict[str, harness.RunStats] = {}
        self.seen = {"classical_guess": Counter(), "honest": Counter()}
        self.gammas = None

    def _config(self, k: int) -> harness.RunConfig:
        path, strategy, forced, sessions = self.STREAMS[k]
        extra = {"force_basis": (1, 1), "force_round": "hadamard"} if forced else {}
        return harness.RunConfig(params=self.params, sessions=sessions, strategy=strategy,
                                 seed=derive_seed(self.seed, k, self.rounds),
                                 transcript_path=self._path(f"{path}.jsonl"), **extra)

    def round(self) -> None:
        for k, (path, _, forced, _) in enumerate(self.STREAMS):
            config = self._config(k)
            self.stats[path], latency_s = self.run_sessions(config)
            if forced:
                self.forced_ops += config.sessions
                self.forced_s += latency_s
        self.round_level()
        merge_stats(self.study, self.stats["study"])
        self.gammas = harness.estimate_gammas(self.study)

    def after_round(self) -> None:
        for path, _, _, _ in self.STREAMS:
            file = self._path(f"{path}.jsonl")
            self.output_bytes += os.path.getsize(file)
            written = sum(1 for _ in iter_records(file))
            if written != self.stats[path].sessions:
                self.problems.append(f"round {self.rounds} {path}: {written} records for "
                                     f"{self.stats[path].sessions} sessions")
            self.problems += checks.check_parity_targets(iter_records(file))
            if path in self.seen:
                check = (checks.check_classical_guess if path == "classical_guess"
                         else checks.check_forced_honest)
                self.problems += check(iter_records(file), self.seen[path])
        self.rounds += 1

    def finish(self) -> list[str]:
        out = list(self.problems)
        out += checks.check_study_estimates(self.gammas.to_json(), P_NOISE)
        out += checks.check_classical_guess_rate(self.seen["classical_guess"])
        out += checks.check_forced_honest_seen(self.seen["honest"])
        return out


class LweTranscripts(Workload):
    """Honest lwe-backend sessions, written and then audited.

    A round is one ``harness.run_sessions`` call of 25 sessions, with a
    seed of its own, writing a fresh transcript, which is then read back
    with ``harness.stats_from_transcripts`` while every verdict is
    re-derived with ``protocol.recheck_flag``.  The audit is part of the
    round's timed wall time but of no op's latency.
    """
    name = "lwe_transcripts"
    round_sessions = 25

    def __init__(self, seed: int, outdir: str):
        super().__init__(seed, outdir)
        self.params = EntcfParams("lwe")
        self.install_session_clock()
        self.path = self._path("lwe.jsonl")
        self.rounds = 0

    def round(self) -> None:
        config = harness.RunConfig(params=self.params, sessions=self.round_sessions,
                                   strategy="honest", seed=derive_seed(self.seed, self.rounds),
                                   transcript_path=self.path)
        stats, _ = self.run_sessions(config)
        self.round_level()
        self.run_stats = stats.to_json()
        self.read_back = harness.stats_from_transcripts(self.path).to_json()
        records = self.span("harness.read_transcripts",
                            lambda: list(harness.read_transcripts(self.path)))
        self.rechecked = [protocol.recheck_flag(rec).value for rec in records]

    def after_round(self) -> None:
        self.output_bytes += os.path.getsize(self.path)
        records = read_records(self.path)
        self.problems += checks.check_lwe_round(records, self.run_stats, self.read_back,
                                                self.rechecked)
        self.problems += checks.check_lwe_openings(records, self.params.to_json())
        self.rounds += 1


class TcpLoopback(Workload):
    """Ideal honest sessions over the TCP transport, one client, closed loop.

    A round serves 100 sessions: ``net.serve_in_thread`` runs the verifier
    on a second thread while this thread plays each session with
    ``net.run_prover`` on a fresh connection.  The first round's server is
    started during set-up; every later round starts its own.
    """
    name = "tcp_loopback"
    round_sessions = 100

    def __init__(self, seed: int, outdir: str):
        super().__init__(seed, outdir)
        self.params = EntcfParams("ideal")
        self.rounds = 0
        self.wire_path = self._path("wire.jsonl")
        self.ref_path = self._path("inproc.jsonl")
        self.server = None
        self._start_server()

    def _round_seed(self) -> int:
        return derive_seed(self.seed, self.rounds)

    def _config(self, path: str) -> harness.RunConfig:
        return harness.RunConfig(params=self.params, sessions=self.round_sessions,
                                 strategy="honest", seed=self._round_seed(),
                                 transcript_path=path)

    def _start_server(self) -> None:
        self.server = net.serve_in_thread(HOST, 0, self._config(self.wire_path),
                                          timeout=SERVER_TIMEOUT)

    def round(self) -> None:
        self.round_level()
        if self.server is None:
            self._start_server()
        thread, port, self.result = self.server
        seed = self._round_seed()
        self.flags = []
        for _ in range(self.round_sessions):
            flag = self.op(lambda: net.run_prover(HOST, port, "honest", seed,
                                                  timeout=SERVER_TIMEOUT))
            if flag is not None:
                self.sessions += 1
                self.flags.append(flag)
        self.round_level()
        thread.join(SERVER_TIMEOUT)
        self.server = None
        if thread.is_alive():
            raise RuntimeError("TCP server thread did not finish its sessions")

    def after_round(self) -> None:
        with open(self.wire_path, "rb") as fh:
            wire = fh.read()
        self.output_bytes += len(wire)
        harness.run_sessions(self._config(self.ref_path))
        with open(self.ref_path, "rb") as fh:
            reference = fh.read()
        self.problems += checks.check_tcp_round(wire, reference, self.flags)
        if not self.result or self.result[0].aborted:
            self.problems.append("the TCP server aborted a session or died")
        self.rounds += 1


def embed(dev: device.Device, dim: int, rng: np.random.Generator) -> device.Device:
    """The device tensored with a random junk state on a (dim/4)-dim register,
    then conjugated by a random unitary."""
    k = dim // dev.dim
    g = rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k))
    junk = g @ g.conj().T
    junk /= np.trace(junk).real
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    u, r = np.linalg.qr(z)
    u = u * (np.diag(r) / np.abs(np.diag(r)))

    def conj(op):
        return u @ op @ u.conj().T

    branches = {basis: [device.Branch(br.label, br.weight, conj(np.kron(br.state, junk)))
                        for br in brs]
                for basis, brs in dev.branches.items()}
    measurements = {q: {o: conj(np.kron(proj, np.eye(k))) for o, proj in meas.items()}
                    for q, meas in dev.measurements.items()}
    return device.Device(dim=dim, branches=branches, measurements=measurements)


class Whitebox(Workload):
    """``analysis.analyze`` of the honest p=0.2 device embedded in dimension 24.

    A round is one op: the analysis and its JSON report, appended to a
    JSONL file.
    """
    name = "whitebox"
    tail_percentile = 90.0

    def __init__(self, seed: int, outdir: str):
        super().__init__(seed, outdir)
        self.bare = device.from_honest(P_NOISE)
        self.device = embed(self.bare, WHITEBOX_DIM, np.random.default_rng(seed))
        self.sink = open(self._path("reports.jsonl"), "w", encoding="utf-8")
        self.reference = None

    def _analyze(self) -> dict:
        doc = analysis.analyze(self.device).to_json()
        self.output_bytes += self.span("bench.write_json", lambda: self._write(doc))
        return doc

    def _write(self, doc: dict) -> int:
        line = json.dumps(doc) + "\n"
        self.sink.write(line)
        return len(line)

    def round(self) -> None:
        self.doc = self.op(self._analyze)

    def after_round(self) -> None:
        if self.doc is None:
            return
        if self.reference is None:
            self.reference = analysis.analyze(self.bare).to_json()
        self.problems += checks.check_whitebox_report(self.doc, self.reference, P_NOISE)

    def close(self) -> None:
        self.sink.close()


WORKLOADS = {w.name: w for w in (IdealStudy, LweTranscripts, TcpLoopback, Whitebox)}
