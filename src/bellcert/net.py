"""Line-delimited JSON transport for running sessions over TCP.

One connection carries one session.  Messages are single JSON objects
terminated by a newline, at most 64 KiB per line at both ends (the newline
not counted), and each end gives the whole session a 30 second default
timeout.  Both ends drive a session as the in-process harness does
(``protocol.respond``, ``HonestProver.play``, ``harness.collect``) with its
per-session random streams, so transcripts are identical byte for byte.
"""
from __future__ import annotations

import json
import socket
import threading
import time

from . import protocol
from .errors import AbortSessionError, ConfigurationError, MalformedMessageError
from .harness import (PROVER_ROLE, VERIFIER_ROLE, RunConfig, RunStats, collect,
                      open_transcript, role_rng)
from .provers import make_prover, parse_strategy

MAX_LINE_BYTES = 64 * 1024
DEFAULT_TIMEOUT = 30.0


class LineChannel:
    """Newline-framed JSON messages over a socket, all due within ``timeout``
    seconds of the channel's creation."""

    def __init__(self, sock: socket.socket, timeout: float):
        self.sock = sock
        self._deadline = time.monotonic() + timeout
        self._buf = b""

    def _time_left(self) -> None:
        """Bound the next socket call by what is left of the session's time."""
        left = self._deadline - time.monotonic()
        if left <= 0:
            raise AbortSessionError("session deadline passed")
        self.sock.settimeout(left)

    def send(self, obj: dict) -> None:
        data = json.dumps(obj, separators=(",", ":")).encode()
        if len(data) > MAX_LINE_BYTES:
            raise MalformedMessageError(f"outgoing message of {len(data)} bytes "
                                        f"exceeds the {MAX_LINE_BYTES} byte line limit")
        self._time_left()
        self.sock.sendall(data + b"\n")

    def recv(self):
        """The next line's JSON value; the step that receives it checks the envelope."""
        while b"\n" not in self._buf:
            if len(self._buf) > MAX_LINE_BYTES:
                raise MalformedMessageError("incoming line exceeds the size limit")
            self._time_left()
            chunk = self.sock.recv(65536)
            if not chunk:
                raise AbortSessionError("peer closed the connection mid-session")
            self._buf += chunk
        line, self._buf = self._buf.split(b"\n", 1)
        if len(line) > MAX_LINE_BYTES:
            raise MalformedMessageError("incoming line exceeds the size limit")
        try:
            return json.loads(line.decode())
        except (RecursionError, ValueError) as exc:  # ValueError covers bad UTF-8 and JSON
            raise MalformedMessageError(f"undecodable message: {exc}") from exc

    def close(self) -> None:
        try:
            self.sock.close()
        except OSError:
            pass


def _listen(host: str, port: int, config: RunConfig, timeout: float):
    """The listening socket and the opened transcript; on any error, no socket stays open."""
    if config.force_basis is not None or config.force_round is not None:
        raise ConfigurationError("forced bases/rounds are in-process diagnostics only")
    server = socket.create_server((host, port))
    server.settimeout(timeout)
    try:
        return server, open_transcript(config)
    except BaseException:
        server.close()
        raise


def _serve_on(server: socket.socket, transcript, config: RunConfig, timeout: float) -> RunStats:
    def play(session_id: int):
        try:
            conn, _ = server.accept()
        except TimeoutError:
            return None  # no client within the timeout: stop with what was gathered
        chan = LineChannel(conn, timeout)
        try:
            vrng = role_rng(config.seed, session_id, VERIFIER_ROLE)
            state, keys_msg = protocol.start_session(config.params, vrng, session_id)
            chan.send(keys_msg)
            while state.phase != "done":
                chan.send(protocol.respond(state, chan.recv(), vrng))
            return protocol.record_from_state(state)
        finally:
            chan.close()

    with server:
        return collect(config, play, transcript)


def serve(host: str, port: int, config: RunConfig, *,
          timeout: float = DEFAULT_TIMEOUT) -> RunStats:
    """Accept ``config.sessions`` connections and verify one session each.

    A session not finished within ``timeout`` seconds of its accept is
    aborted.  Serving stops early, returning the statistics gathered so
    far, when no connection arrives within ``timeout`` seconds.

    Session ids follow accept order, so sequential clients reproduce the
    in-process harness exactly.
    """
    return _serve_on(*_listen(host, port, config, timeout), config, timeout)


def serve_in_thread(host: str, port: int, config: RunConfig,
                    timeout: float = DEFAULT_TIMEOUT):
    """Bind, then :func:`serve` on a daemon thread; returns (thread, port, result).

    Pass ``port=0`` for an ephemeral port.  ``result`` is a single-element
    list that receives the RunStats once the thread finishes.
    """
    server, transcript = _listen(host, port, config, timeout)
    result: list = []
    thread = threading.Thread(
        target=lambda: result.append(_serve_on(server, transcript, config, timeout)), daemon=True)
    thread.start()
    return thread, server.getsockname()[1], result


def run_prover(host: str, port: int, strategy: str, seed: int, *,
               timeout: float = DEFAULT_TIMEOUT) -> str:
    """Connect once, play one session, and return the verdict flag.

    The prover derives its random stream from the session id announced in
    the opening keys message, matching the in-process harness.  Only the
    ideal backend supports networked honest provers: its public keys
    suffice to build the claw oracle, whereas trapdoors never leave the
    verifier.  A bad ``strategy`` raises ConfigurationError before connecting.
    """
    parse_strategy(strategy)
    with socket.create_connection((host, port), timeout=timeout) as sock:
        chan = LineChannel(sock, timeout)
        keys_msg = chan.recv()
        protocol.validate_message(keys_msg, "keys")  # before its session id seeds the prover
        prover = make_prover(strategy, role_rng(seed, keys_msg["session_id"], PROVER_ROLE))

        def exchange(msg: dict) -> dict:
            chan.send(msg)
            return chan.recv()

        return prover.play(keys_msg, exchange)
