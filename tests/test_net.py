from __future__ import annotations

import json
import socket
import threading
import time

import numpy as np
import pytest

from bellcert import net, protocol
from bellcert.entcf import EntcfParams
from bellcert.errors import AbortSessionError, ConfigurationError, MalformedMessageError
from bellcert.harness import RunConfig, run_sessions
from bellcert.provers import make_prover

IDEAL = EntcfParams(backend="ideal")


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
        flag = net.run_prover("127.0.0.1", port, "classical_guess", 3)
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


class _ChunkSocket:
    """A socket stand-in: ``recv`` returns the given chunks in order, and
    ``sendall`` keeps what is sent."""

    def __init__(self, chunks=()):
        self.chunks, self.sent = list(chunks), b""

    def settimeout(self, timeout):
        pass

    def recv(self, size):
        return self.chunks.pop(0) if self.chunks else b""

    def sendall(self, data):
        self.sent += data


def _line_of(size: int) -> dict:
    """A message whose compact JSON line is ``size`` bytes, newline not counted."""
    return {"p": "a" * (size - len('{"p":""}'))}


@pytest.mark.parametrize("extra", [0, 1])
def test_send_line_limit(extra):
    """A line of ``MAX_LINE_BYTES`` is sent with its newline; one byte more is refused."""
    sock = _ChunkSocket()
    chan = net.LineChannel(sock, timeout=5)
    msg = _line_of(net.MAX_LINE_BYTES + extra)
    if extra:
        with pytest.raises(MalformedMessageError):
            chan.send(msg)
        assert sock.sent == b""
    else:
        chan.send(msg)
        assert sock.sent == json.dumps(msg, separators=(",", ":")).encode() + b"\n"
        assert len(sock.sent) == net.MAX_LINE_BYTES + 1


@pytest.mark.parametrize("extra", [0, 1])
@pytest.mark.parametrize("split", [False, True], ids=["one_chunk", "newline_apart"])
def test_recv_line_limit(extra, split):
    """``recv`` takes a line of ``MAX_LINE_BYTES`` and refuses one byte more,
    whether the newline comes with the line or in a later chunk."""
    msg = _line_of(net.MAX_LINE_BYTES + extra)
    line = json.dumps(msg, separators=(",", ":")).encode()
    chan = net.LineChannel(_ChunkSocket([line, b"\n"] if split else [line + b"\n"]), timeout=5)
    if extra:
        with pytest.raises(MalformedMessageError):
            chan.recv()
    else:
        assert chan.recv() == msg


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

        prover = make_prover("honest", np.random.default_rng(0))
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


@pytest.mark.parametrize("line", [b"[" * 3000 + b"]" * 3000, b"1" * 5000],
                         ids=["nested", "long_number"])
def test_undecodable_json_aborts_session_only(tmp_path, line):
    """Lines that make json.loads raise RecursionError or the int-string limit's
    ValueError are refused; the server goes on."""
    thread, port, result, _ = _serve(tmp_path, 2, 35)
    with socket.create_connection(("127.0.0.1", port), timeout=5) as sock:
        chan = net.LineChannel(sock, timeout=5)
        chan.recv()  # keys
        sock.sendall(line + b"\n")
        with pytest.raises((AbortSessionError, OSError)):
            chan.recv()  # the server hangs up
    flag = net.run_prover("127.0.0.1", port, "honest", 35)
    thread.join(20)
    assert flag in ("ok", "none")
    assert result[0].aborted == 1
    assert result[0].sessions == 1


def test_session_deadline_ends_a_trickling_client(tmp_path):
    """A client that sends a byte every 0.3 s but never a whole line is cut
    off once the session's time is up; the server goes on."""
    cfg = RunConfig(params=IDEAL, sessions=2, seed=36, transcript_path=str(tmp_path / "t.jsonl"))
    thread, port, result = net.serve_in_thread("127.0.0.1", 0, cfg, timeout=1)
    with socket.create_connection(("127.0.0.1", port), timeout=5) as sock:
        start = time.monotonic()
        net.LineChannel(sock, timeout=5).recv()  # keys
        sock.settimeout(0.3)
        while time.monotonic() - start < 4:
            try:
                sock.sendall(b"x")
                if sock.recv(1) == b"":  # the server hung up
                    break
            except TimeoutError:
                continue
            except OSError:
                break
        held = time.monotonic() - start
    assert held < 2
    flag = net.run_prover("127.0.0.1", port, "honest", 36)
    thread.join(10)
    assert flag in ("ok", "none")
    assert result[0].aborted == 1
    assert result[0].sessions == 1


def _keys_line_to_prover(line: bytes):
    """Run ``net.run_prover`` against a verifier that sends ``line`` first."""
    with socket.create_server(("127.0.0.1", 0)) as server:
        def verifier():
            conn, _ = server.accept()
            with conn:
                conn.sendall(line)
                conn.recv(1)  # until the prover hangs up

        thread = threading.Thread(target=verifier)
        thread.start()
        try:
            net.run_prover("127.0.0.1", server.getsockname()[1], "honest", 0, timeout=5)
        finally:
            thread.join(10)


@pytest.mark.parametrize("session_id", ["5", -1, 5.0, True, None])
def test_prover_refuses_bad_session_id(session_id):
    """The prover seeds its stream only from a plain non-negative int session id."""
    _, keys = protocol.start_session(IDEAL, np.random.default_rng(0))
    keys["session_id"] = session_id
    with pytest.raises(MalformedMessageError):
        _keys_line_to_prover(json.dumps(keys).encode() + b"\n")


def test_prover_refuses_keys_that_are_not_an_object():
    with pytest.raises(MalformedMessageError):
        _keys_line_to_prover(b"[0]\n")


@pytest.mark.parametrize("make_payload", [
    lambda honest: {},
    lambda honest: {"params": {}, "keys": []},
    lambda honest: {**honest, "keys": [1, 2]},
    lambda honest: {**honest, "params": {"ideal_w": "16"}},
    lambda honest: {**honest, "keys": [dict(k, payload=[]) for k in honest["keys"]]},
    lambda honest: {**honest, "keys": [{"payload": {}}, honest["keys"][1]]},
    lambda honest: {**honest, "params": {**honest["params"], "ideal_w": 8.5}},
], ids=["empty", "no_keys", "keys_not_objects", "bad_params", "key_payload_not_object",
        "key_payload_empty", "ideal_w_float"])
def test_prover_refuses_malformed_keys_payload(make_payload):
    """A keys payload the prover cannot decode ends the session with a
    package error, never with a bare KeyError, IndexError or AttributeError."""
    _, keys = protocol.start_session(IDEAL, np.random.default_rng(0))
    keys["payload"] = make_payload(keys["payload"])
    with pytest.raises(MalformedMessageError):
        _keys_line_to_prover(json.dumps(keys).encode() + b"\n")


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


def test_unopenable_transcript_raises_in_caller(tmp_path):
    """A transcript in a missing directory is the caller's OSError, raised
    before any thread starts, and the port it bound is closed again."""
    with socket.create_server(("127.0.0.1", 0)) as probe:
        port = probe.getsockname()[1]
    cfg = RunConfig(params=IDEAL, sessions=1, transcript_path=str(tmp_path / "no" / "t.jsonl"))
    threads = threading.active_count()
    with pytest.raises(OSError):
        net.serve_in_thread("127.0.0.1", port, cfg, timeout=1)
    assert threading.active_count() <= threads  # no server thread was started
    with pytest.raises(ConnectionRefusedError):
        socket.create_connection(("127.0.0.1", port), timeout=1).close()


def test_serve_rejects_forced_diagnostics(tmp_path):
    cfg = RunConfig(params=IDEAL, sessions=1, force_basis=(1, 1))
    with pytest.raises(ConfigurationError):
        net.serve("127.0.0.1", 0, cfg)
