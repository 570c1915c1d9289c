"""Span tracing of bellcert's layers, installed from outside the package.

The tracer replaces selected public functions and methods with wrappers
that record one span per call: a span id, the id of the enclosing span on
the same thread, the layer call's name, the current op id, the thread
(0 for the benchmark's main thread, 1 for any other) and start and end
times in nanoseconds.  Spans are kept in memory in one flat integer
array, so a traced run of tens of thousands of sessions costs tens of
megabytes, and are written out when the run ends.

A function is rebound everywhere the package refers to it, not only in
its defining module: ``provers`` and ``analysis`` import ``tensor``,
``projector_of`` and friends by name, and those call sites are traced too.
"""
from __future__ import annotations

import importlib
import itertools
import socket
import sys
import threading
import time
from array import array

import numpy as np

SPAN_FIELDS = ("span", "parent", "name", "op", "thread", "t0_ns", "t1_ns")

# module -> traced functions and methods ("Class.method")
TRACED = {
    "entcf": ["gen", "eval_sample", "chk", "invert", "decode_bit", "decode_equation",
              "random_preimage", "image_to_wire", "image_from_wire", "bits_to_wire",
              "bits_from_wire"],
    "lwe": ["gen", "eval_sample", "chk", "invert"],
    "protocol": ["start_session", "receive_commit", "receive_preimage", "receive_equations",
                 "receive_answers", "record_from_state", "TranscriptRecord.to_json",
                 "TranscriptRecord.from_json", "recheck_flag"],
    "provers": ["make_prover", "HonestProver.commit", "HonestProver.preimage_answer",
                "HonestProver.equations", "HonestProver.answers",
                "ClassicalGuessProver.answers"],
    "harness": ["run_sessions", "run_one_session", "role_rng", "RunStats.add_record",
                "estimate_gammas", "stats_from_transcripts"],
    "net": ["run_prover", "LineChannel.send", "LineChannel.recv"],
    "device": ["validate", "marginal_observables", "sigma", "sigma_partial"],
    "analysis": ["analyze", "test_tuple", "bell_tuple", "anticomm_residual", "comm_residual",
                 "swap_isometry", "pauli_rounding_report", "bell_report",
                 "AnalysisReport.to_json"],
    "linalg": ["trace_distance", "state_dep_norm_sq", "tensor", "projector_of"],
}
# calls that run on both ends of the TCP transport; reported per side
SPLIT_BY_THREAD = {"net.LineChannel.send", "net.LineChannel.recv"}
# spans the benchmark opens around its own steps (see Tracer.span)
BENCH_SPANS = ["bench.write_json", "harness.read_transcripts"]


def span_names() -> list[str]:
    """Every span name a traced run can record, in metric order."""
    names = []
    for module, calls in TRACED.items():
        for call in calls:
            full = f"{module}.{call}"
            if full in SPLIT_BY_THREAD:
                names += [f"{full}.client", f"{full}.server"]
            else:
                names.append(full)
    return names + BENCH_SPANS


class Tracer:
    """Records spans while ``enabled``; ``op`` tags every span recorded."""

    def __init__(self):
        self.names = span_names()
        self._name_id = {n: i for i, n in enumerate(self.names)}
        self.spans = array("q")
        self.enabled = False
        self.op = -1
        self.wire_bytes = 0
        self.client_wait_ns = 0
        self._ids = itertools.count()
        self._local = threading.local()
        self._main = threading.get_ident()
        self._count_lock = threading.Lock()
        self._bench_spans: dict = {}

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        """Wrap every traced call of the ``bellcert`` modules, for good."""
        for module, calls in TRACED.items():
            mod = importlib.import_module(f"bellcert.{module}")
            for call in calls:
                full = f"{module}.{call}"
                if full in SPLIT_BY_THREAD:
                    ids = (self._name_id[f"{full}.client"], self._name_id[f"{full}.server"])
                else:
                    ids = (self._name_id[full],) * 2
                if "." in call:
                    cls_name, meth = call.split(".")
                    self._wrap_method(getattr(mod, cls_name), meth, ids)
                else:
                    self._rebind(getattr(mod, call), self._wrap(getattr(mod, call), ids))
        self._hook_socket()

    def _rebind(self, original, wrapper) -> None:
        for name, mod in list(sys.modules.items()):
            if name != "bellcert" and not name.startswith("bellcert."):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapper)

    def _wrap_method(self, cls, meth: str, ids) -> None:
        raw = cls.__dict__[meth]
        if isinstance(raw, classmethod):
            setattr(cls, meth, classmethod(self._wrap(raw.__func__, ids)))
        else:
            setattr(cls, meth, self._wrap(raw, ids))

    def span(self, name: str, fn):
        """Call ``fn()`` inside a span: for the benchmark's own steps.

        ``bench.write_json`` covers the JSON encoding and write of each
        white-box report; ``harness.read_transcripts`` covers a full
        iteration of that generator, which a wrapper at its call cannot time.
        """
        if name not in self._bench_spans:
            name_id = self._name_id[name]
            self._bench_spans[name] = self._wrap(lambda f: f(), (name_id, name_id))
        return self._bench_spans[name](fn)

    def _wrap(self, fn, ids):
        tracer, local, main = self, self._local, self._main
        record, clock, next_id = self.spans.extend, time.perf_counter_ns, self._ids.__next__

        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
                local.thread = 0 if threading.get_ident() == main else 1
            sid = next_id()
            parent = stack[-1] if stack else -1
            stack.append(sid)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                record((sid, parent, ids[local.thread], tracer.op, local.thread, t0, t1))

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", "wrapper")
        return wrapper

    def _hook_socket(self) -> None:
        """Count bytes sent on sockets and the main thread's blocking in recv.

        These are counters, not spans, so their time stays in the self time
        of the ``LineChannel`` call around them.
        """
        tracer, main, clock = self, self._main, time.perf_counter_ns
        sendall, recv = socket.socket.sendall, socket.socket.recv

        def counted_sendall(sock, data, *args):
            if tracer.enabled:
                with tracer._count_lock:
                    tracer.wire_bytes += len(data)
            return sendall(sock, data, *args)

        def timed_recv(sock, *args):
            if not tracer.enabled or threading.get_ident() != main:
                return recv(sock, *args)
            t0 = clock()
            try:
                return recv(sock, *args)
            finally:
                tracer.client_wait_ns += clock() - t0

        setattr(socket.socket, "sendall", counted_sendall)
        setattr(socket.socket, "recv", timed_recv)

    # -- results -----------------------------------------------------------

    def table(self) -> np.ndarray:
        """Spans as an (n, 7) int64 array ordered by span id."""
        t = np.frombuffer(self.spans, dtype=np.int64).reshape(-1, len(SPAN_FIELDS))
        return t[np.argsort(t[:, 0], kind="stable")]

    def metrics(self, ops: int, timed_ns: int, sessions: int) -> dict:
        """Per-layer metrics over ``ops`` ops and ``timed_ns`` of traced wall time.

        Self time is a span's duration minus the durations of its direct
        children; ``bench.self_us_per_op`` is the timed wall time that no
        main-thread span covers (the benchmark's own per-op code and the
        tracer's bookkeeping).
        """
        t = self.table()
        n = len(t)
        if n and not np.array_equal(t[:, 0], np.arange(n)):
            raise RuntimeError("span ids are not contiguous; a traced call was lost")
        dur = (t[:, 6] - t[:, 5]).astype(np.float64)
        has_parent = t[:, 1] >= 0
        child = np.bincount(t[has_parent, 1], weights=dur[has_parent], minlength=n)
        self_ns = dur - child
        k = len(self.names)
        calls = np.bincount(t[:, 2], minlength=k)
        self_by_name = np.bincount(t[:, 2], weights=self_ns, minlength=k)
        main_self = float(self_ns[t[:, 4] == 0].sum())
        out: dict = {}
        for i, name in enumerate(self.names):
            out[f"{name}.calls_per_op"] = (float(calls[i] / ops), "calls/op")
            out[f"{name}.self_us_per_op"] = (float(self_by_name[i] / 1e3 / ops), "us/op")
            if name == "entcf.gen":
                useful = 2 * sessions / calls[i] if calls[i] else 0.0
                out["entcf.gen.useful_ratio"] = (float(useful), "ratio")
        out["net.wire_bytes_per_op"] = (self.wire_bytes / ops, "B/op")
        out["net.client_wait_us_per_op"] = (self.client_wait_ns / 1e3 / ops, "us/op")
        out["bench.op_us_per_op"] = (timed_ns / 1e3 / ops, "us/op")
        out["bench.self_us_per_op"] = ((timed_ns - main_self) / 1e3 / ops, "us/op")
        return out

    def save(self, path: str) -> None:
        np.savez_compressed(path, spans=self.table(), fields=np.array(SPAN_FIELDS),
                            names=np.array(self.names))
