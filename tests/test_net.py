from __future__ import annotations

import json
import socket
import threading

import numpy as np
import pytest

from bellcert import net
from bellcert.entcf import EntcfParams
from bellcert.errors import AbortSessionError, ConfigurationError, MalformedMessageError
from bellcert.harness import RunConfig, run_sessions
from bellcert.provers import make_prover

IDEAL = EntcfParams(backend="ideal", ideal_w=16)


def _serve(tmp_path, sessions, seed, name="wire.jsonl", strategy="honest"):
    path = tmp_path / name
    cfg = RunConfig(params=IDEAL, sessions=sessions, seed=seed,
                    strategy=strategy, transcript_path=str(path))
    thread, port, result = net.serve_in_thread("127.0.0.1", 0, cfg, timeout=20)
    return thread, port, result, path


def test_wire_matches_in_process(tmp_path):
    inproc = tmp_path / "inproc.jsonl"
    run_sessions(RunConfig(params=IDEAL, sessions=30, seed=13,
                           transcript_path=str(inproc)))
    thread, port, result, wire = _serve(tmp_path, 30, 13)
    flags = [net.run_prover("127.0.0.1", port, "honest", 13) for _ in range(30)]
    thread.join(20)
    assert wire.read_text() == inproc.read_text()
    recorded = [json.loads(line)["flag"] for line in inproc.read_text().splitlines()]
    assert flags == recorded
    assert result[0].aborted == 0


def test_wire_strategies_other_than_honest(tmp_path):
    thread, port, result, _ = _serve(tmp_path, 10, 3)
    for _ in range(10):
        flag = net.run_prover("127.0.0.1", port, "perfected:classical_guess", 3)
        assert flag in ("ok", "none", "fail_test", "fail_bell")
    thread.join(20)
    assert result[0].sessions == 10


def test_concurrent_clients_all_complete(tmp_path):
    thread, port, result, path = _serve(tmp_path, 8, 21)
    flags = [None] * 8

    def go(i):
        flags[i] = net.run_prover("127.0.0.1", port, "honest", 21)

    workers = [threading.Thread(target=go, args=(i,)) for i in range(8)]
    for w in workers:
        w.start()
    for w in workers:
        w.join(20)
    thread.join(20)
    assert result[0].sessions == 8
    assert result[0].aborted == 0
    assert all(f in ("ok", "none") for f in flags)
    assert len(path.read_text().splitlines()) == 8


def test_oversize_line_rejected():
    left, right = socket.socketpair()
    try:
        chan = net.LineChannel(left, timeout=5)
        with pytest.raises(MalformedMessageError):
            chan.send({"type": "commit", "session_id": 0,
                       "payload": {"y1": "ab" * net.MAX_LINE_BYTES}})
    finally:
        left.close()
        right.close()


def test_garbage_line_rejected():
    left, right = socket.socketpair()
    try:
        chan = net.LineChannel(left, timeout=5)
        right.sendall(b"this is not json\n")
        with pytest.raises(MalformedMessageError):
            chan.recv()
    finally:
        left.close()
        right.close()


def test_malformed_client_aborts_session_only(tmp_path):
    thread, port, result, _ = _serve(tmp_path, 2, 31)
    with socket.create_connection(("127.0.0.1", port), timeout=5) as sock:
        chan = net.LineChannel(sock, timeout=5)
        chan.recv()  # keys
        chan.send({"type": "commit", "session_id": 0, "payload": {"y1": 1, "y2": 2}})
    # the second, well-behaved session still completes
    flag = net.run_prover("127.0.0.1", port, "honest", 31)
    thread.join(20)
    assert flag in ("ok", "none")
    assert result[0].aborted == 1
    assert result[0].sessions == 1


def _play_tampered(port: int, tamper) -> None:
    """Play one session as an honest prover whose commit passes through
    ``tamper`` on its way out, until the server hangs up."""
    with socket.create_connection(("127.0.0.1", port), timeout=5) as sock:
        chan = net.LineChannel(sock, timeout=5)
        keys_msg = chan.recv()

        def exchange(msg):
            chan.send(tamper(msg) if msg["type"] == "commit" else msg)
            return chan.recv()

        prover = make_prover("honest", IDEAL, np.random.default_rng(0))
        with pytest.raises((AbortSessionError, OSError)):
            prover.play(keys_msg, exchange)


def test_non_canonical_image_aborts_session_only(tmp_path):
    """A commit with an 80-byte ideal image is rejected; the server goes on."""
    thread, port, result, _ = _serve(tmp_path, 2, 32)
    _play_tampered(port, lambda msg: {**msg, "payload": {**msg["payload"], "y1": "ab" * 80}})
    flag = net.run_prover("127.0.0.1", port, "honest", 32)
    thread.join(20)
    assert flag in ("ok", "none")
    assert result[0].aborted == 1
    assert result[0].sessions == 1


def test_wrong_session_id_aborts_session_only(tmp_path):
    """A commit carrying another session's id is rejected; the server goes on."""
    thread, port, result, _ = _serve(tmp_path, 2, 34)
    _play_tampered(port, lambda msg: {**msg, "session_id": msg["session_id"] + 999})
    flag = net.run_prover("127.0.0.1", port, "honest", 34)
    thread.join(20)
    assert flag in ("ok", "none")
    assert result[0].aborted == 1
    assert result[0].sessions == 1


def test_accept_timeout_ends_serving(tmp_path):
    """With no second client, serving stops after the accept timeout and
    returns what it gathered; the transcript is closed with one line."""
    path = tmp_path / "short.jsonl"
    cfg = RunConfig(params=IDEAL, sessions=2, seed=33, transcript_path=str(path))
    thread, port, result = net.serve_in_thread("127.0.0.1", 0, cfg, timeout=1)
    flag = net.run_prover("127.0.0.1", port, "honest", 33)
    thread.join(10)
    assert not thread.is_alive()
    assert flag in ("ok", "none")
    assert result[0].sessions == 1
    assert len(path.read_text().splitlines()) == 1


def test_serve_rejects_forced_diagnostics(tmp_path):
    cfg = RunConfig(params=IDEAL, sessions=1, force_basis=(1, 1))
    with pytest.raises(ConfigurationError):
        net.serve("127.0.0.1", 0, cfg)
