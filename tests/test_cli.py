from __future__ import annotations

import json
import socket
import threading

import numpy as np
import pytest

from bellcert import cli, harness, net, protocol
from bellcert.entcf import EntcfParams


def test_run_writes_stats(tmp_path, capsys):
    stats = tmp_path / "stats.json"
    transcripts = tmp_path / "t.jsonl"
    rc = cli.main(["run", "--sessions", "50", "--seed", "1",
                   "--stats-out", str(stats), "--transcripts", str(transcripts)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "sessions: 50 aborted: 0 undecodable: 0" in out
    # a preimage bucket has one name, printed and written alike
    assert "(3 sigma, weakest bucket 00.leg1 n=5)" in out
    blob = json.loads(stats.read_text())
    assert blob["stats"]["sessions"] == 50
    assert blob["estimates"]["gamma_p"]["bucket"] == "00.leg1"
    assert blob["stats"]["pre_counts"]["00.leg1"] == [5, 5]
    assert len(transcripts.read_text().splitlines()) == 50


def test_run_rejects_bad_strategy():
    assert cli.main(["run", "--sessions", "10", "--strategy", "telepathy"]) == 2


@pytest.mark.parametrize("strategy", ["honset", "perfected:honest"])
def test_prove_refuses_bad_strategy_before_connecting(strategy, capsys):
    """A bad name is a usage error: no connection, so no aborted sessions."""
    cfg = harness.RunConfig(params=EntcfParams(), sessions=2)
    thread, port, result = net.serve_in_thread("127.0.0.1", 0, cfg, timeout=1)
    rc = cli.main(["prove", "--port", str(port), "--sessions", "2", "--strategy", strategy])
    thread.join(10)
    assert rc == 2
    assert "error:" in capsys.readouterr().err
    assert (result[0].sessions, result[0].aborted) == (0, 0)


@pytest.mark.parametrize("argv,what", [
    (["run", "--sessions", "5", "--seed", "-1"], "seed -1"),
    (["sweep", "--grid", "0", "--sessions", "5", "--seed", "-1"], "seed -1"),
    (["serve", "--seed", "-1"], "seed -1"),
    (["prove", "--seed", "-1"], "seed -1"),
    (["serve", "--port", "99999"], "port 99999"),
    (["serve", "--port", "-1"], "port -1"),
    (["prove", "--port", "99999"], "port 99999"),
    (["prove", "--port", "0"], "port 0"),
], ids=["run-seed", "sweep-seed", "serve-seed", "prove-seed", "serve-port-high",
        "serve-port-negative", "prove-port-high", "prove-port-zero"])
def test_bad_seed_or_port_is_refused_first(monkeypatch, capsys, argv, what):
    """A negative seed, or a port outside 1-65535, is a usage error raised
    before any session runs or any socket opens: numpy would refuse the
    seed mid-run, bind() would refuse the port with an OverflowError, and
    the resolver would wrap it (99999 dials 34463)."""
    def fail(*args, **kwargs):
        raise AssertionError("a session ran or a connection opened before the refusal")
    for name in ("run_sessions", "sweep"):
        monkeypatch.setattr(harness, name, fail)
    for name in ("serve", "run_prover"):
        monkeypatch.setattr(net, name, fail)
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and what in err


@pytest.mark.parametrize("sessions", ["0", "-1"])
def test_prove_refuses_no_sessions(sessions):
    assert cli.main(["prove", "--sessions", sessions]) == 2


def test_gen_device_and_analyze(tmp_path, capsys):
    dev = tmp_path / "dev.json"
    assert cli.main(["gen-device", "--noise", "0.2", "--out", str(dev)]) == 0
    report = tmp_path / "report.json"
    csv_path = tmp_path / "report.csv"
    rc = cli.main(["analyze", str(dev), "--out", str(report), "--csv", str(csv_path)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "gamma_t = 0.1" in out
    blob = json.loads(report.read_text())
    assert blob["gamma_b"] == pytest.approx(0.1, abs=1e-12)
    assert csv_path.read_text().startswith("quantity,value")


def _keys(doc) -> set:
    """Every dict key at any depth of a JSON document."""
    if isinstance(doc, dict):
        return set(doc).union(*map(_keys, doc.values()))
    if isinstance(doc, list):
        return set().union(*map(_keys, doc))
    return set()


def test_analyze_writes_junk_spectrum_not_matrix(tmp_path):
    """``analyze --out`` writes each Bell case's junk state as its
    descending eigenvalues, with no ``xi`` matrix anywhere in the file."""
    dev, report = tmp_path / "dev.json", tmp_path / "report.json"
    assert cli.main(["gen-device", "--noise", "0.1", "--out", str(dev)]) == 0
    assert cli.main(["analyze", str(dev), "--out", str(report)]) == 0
    blob = json.loads(report.read_text())
    assert "xi" not in _keys(blob)
    for case in blob["bell_cases"]:
        assert case["xi_eigenvalues"] == pytest.approx([1.0], abs=1e-12)


def test_analyze_missing_file_fails(tmp_path):
    assert cli.main(["analyze", str(tmp_path / "nope.json")]) == 1


def test_analyze_corrupt_file_is_config_error(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"dim": 4}')
    assert cli.main(["analyze", str(bad)]) == 2


@pytest.mark.parametrize("raw", [b'{"dim": 4,', b"\xff\xfe", b"[" * 100_000],
                         ids=["truncated", "not_utf8", "too_deep"])
def test_analyze_undecodable_file_is_config_error(tmp_path, capsys, raw):
    """A device file that is not JSON is a usage error that names the file."""
    bad = tmp_path / "bad.json"
    bad.write_bytes(raw)
    assert cli.main(["analyze", str(bad)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(bad) in err


def test_analyze_names_non_finite_weight(tmp_path, capsys):
    """A NaN weight is refused as a usage error that names the branch."""
    dev = tmp_path / "dev.json"
    assert cli.main(["gen-device", "--noise", "0.1", "--out", str(dev)]) == 0
    blob = json.loads(dev.read_text())
    blob["branches"]["11"][1]["weight"] = float("nan")
    dev.write_text(json.dumps(blob))
    capsys.readouterr()
    assert cli.main(["analyze", str(dev)]) == 2
    err = capsys.readouterr().err
    assert "error:" in err and "branch (1, 1)/(0, 1) weight" in err


def test_sweep_csv(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    rc = cli.main(["sweep", "--grid", "0,0.2", "--sessions", "400",
                   "--out", str(out)])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 3
    assert "p=0.200" in capsys.readouterr().out


def test_sweep_bad_grid():
    assert cli.main(["sweep", "--grid", "0,zebra"]) == 2


@pytest.mark.parametrize("grid", ["0,1.5", ","])
def test_sweep_refuses_grid_before_running(monkeypatch, grid):
    """A grid point out of range, or an empty grid, is refused before any
    point is analysed or any session runs."""
    def fail(*args, **kwargs):
        raise AssertionError("the sweep ran before refusing its grid")
    monkeypatch.setattr(harness, "run_sessions", fail)
    monkeypatch.setattr(harness.analysis, "analyze", fail)
    assert cli.main(["sweep", "--grid", grid, "--sessions", "4000"]) == 2


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        cli.main(["frobnicate"])
    assert exc.value.code == 2


def _keys_line(change) -> bytes:
    """An honest ideal keys message, as a line, after ``change(payload)``."""
    _, keys = protocol.start_session(EntcfParams(), np.random.default_rng(0))
    change(keys["payload"])
    return json.dumps(keys).encode() + b"\n"


def test_prove_counts_a_malformed_session_and_goes_on(capsys):
    """A session whose keys message the prover cannot decode is a failed
    session; the next one is still played."""
    lines = [b'{"type": "keys", "session_id": 0, "payload": {}}\n', b"[0]\n",
             _keys_line(lambda p: p["keys"].__setitem__(0, {"payload": {}})),
             _keys_line(lambda p: p["params"].__setitem__("ideal_w", 8.5)),
             _keys_line(lambda p: p["keys"][1]["payload"].__setitem__("w", 31))]
    with socket.create_server(("127.0.0.1", 0)) as server:
        server.settimeout(10)

        def verifier():
            for line in lines:
                conn, _ = server.accept()
                with conn:
                    conn.sendall(line)
                    conn.recv(1)  # until the prover hangs up

        thread = threading.Thread(target=verifier)
        thread.start()
        try:
            rc = cli.main(["prove", "--port", str(server.getsockname()[1]),
                           "--sessions", str(len(lines))])
        finally:
            thread.join(10)
    assert rc == 1
    assert capsys.readouterr().err.count("session failed") == len(lines)
