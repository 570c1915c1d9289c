"""Line-delimited JSON transport for running sessions over TCP.

One connection carries one session.  Messages are single JSON objects
terminated by a newline, at most 64 KiB per line, with a 30 second
default timeout per message.  Both ends drive a session as the in-process
harness does (``protocol.respond``, ``Prover.play``, ``harness.collect``) with
its per-session random streams, so transcripts are identical byte for byte.
"""
from __future__ import annotations

import json
import socket
import threading

from . import protocol
from .errors import AbortSessionError, ConfigurationError, MalformedMessageError
from .harness import PROVER_ROLE, VERIFIER_ROLE, RunConfig, RunStats, collect, role_rng
from .provers import make_prover

MAX_LINE_BYTES = 64 * 1024
DEFAULT_TIMEOUT = 30.0


class LineChannel:
    """Newline-framed JSON messages over a socket."""

    def __init__(self, sock: socket.socket, timeout: float = DEFAULT_TIMEOUT):
        sock.settimeout(timeout)
        self.sock = sock
        self._buf = b""

    def send(self, obj: dict) -> None:
        data = json.dumps(obj, separators=(",", ":")).encode() + b"\n"
        if len(data) > MAX_LINE_BYTES:
            raise MalformedMessageError(f"outgoing message of {len(data)} bytes "
                                        f"exceeds the {MAX_LINE_BYTES} byte line limit")
        self.sock.sendall(data)

    def recv(self) -> dict:
        while b"\n" not in self._buf:
            if len(self._buf) > MAX_LINE_BYTES:
                raise MalformedMessageError("incoming line exceeds the size limit")
            chunk = self.sock.recv(65536)
            if not chunk:
                raise AbortSessionError("peer closed the connection mid-session")
            self._buf += chunk
        line, self._buf = self._buf.split(b"\n", 1)
        if len(line) > MAX_LINE_BYTES:
            raise MalformedMessageError("incoming line exceeds the size limit")
        try:
            obj = json.loads(line.decode())
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise MalformedMessageError(f"undecodable message: {exc}") from exc
        return protocol.validate_message(obj)

    def close(self) -> None:
        try:
            self.sock.close()
        except OSError:
            pass


def serve(host: str, port: int, config: RunConfig, *,
          timeout: float = DEFAULT_TIMEOUT, ready: threading.Event | None = None,
          bound_port: list | None = None) -> RunStats:
    """Accept ``config.sessions`` connections and verify one session each.

    Serving stops early, returning the statistics gathered so far, when no
    connection arrives within ``timeout`` seconds.

    Session ids follow accept order, so sequential clients reproduce the
    in-process harness exactly.  Pass ``port=0`` to bind an ephemeral port
    (reported through ``bound_port``).
    """
    if config.force_basis is not None or config.force_round is not None:
        raise ConfigurationError("forced bases/rounds are in-process diagnostics only")
    with socket.create_server((host, port)) as server:
        server.settimeout(timeout)
        if bound_port is not None:
            bound_port.append(server.getsockname()[1])
        if ready is not None:
            ready.set()

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

        return collect(config, play)


def serve_in_thread(host: str, port: int, config: RunConfig,
                    timeout: float = DEFAULT_TIMEOUT):
    """Start :func:`serve` on a daemon thread; returns (thread, port, result).

    ``result`` is a single-element list that receives the RunStats once
    the thread finishes.
    """
    ready = threading.Event()
    bound: list = []
    result: list = []

    def _run():
        result.append(serve(host, port, config, timeout=timeout,
                            ready=ready, bound_port=bound))

    thread = threading.Thread(target=_run, daemon=True)
    thread.start()
    if not ready.wait(timeout):
        raise AbortSessionError("server failed to start listening")
    return thread, bound[0], result


def run_prover(host: str, port: int, strategy: str, seed: int, *,
               retry_budget: int = 64, timeout: float = DEFAULT_TIMEOUT) -> str:
    """Connect once, play one session, and return the verdict flag.

    The prover derives its random stream from the session id announced in
    the opening keys message, matching the in-process harness.  Only the
    ideal backend supports networked honest provers: its public keys
    suffice to build the claw oracle, whereas trapdoors never leave the
    verifier.
    """
    from .entcf import EntcfParams

    with socket.create_connection((host, port), timeout=timeout) as sock:
        chan = LineChannel(sock, timeout)
        keys_msg = chan.recv()
        protocol.validate_message(keys_msg, "keys")
        session_id = int(keys_msg["session_id"])
        params = EntcfParams.from_json(keys_msg["payload"]["params"])
        prng = role_rng(seed, session_id, PROVER_ROLE)
        prover = make_prover(strategy, params, prng, None, retry_budget)

        def exchange(msg: dict) -> dict:
            chan.send(msg)
            return chan.recv()

        return prover.play(keys_msg, exchange)
