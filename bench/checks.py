"""Output checkers that do not reuse the code paths they check.

Every checker takes the program's outputs as plain data (transcript
records parsed from their JSON lines, report dicts, flag lists, file
bytes) and returns a list of problems.  Checkers of a whole run's records
make one pass over any iterable, so a run's transcripts need not be held
in memory, where they would inflate the peak-RSS metric; an empty list means the output is
correct.  Expected values come from closed forms, from the public key
material stored in the records, or from a property the program must
have (transport transparency, invariance of the white-box report under a
change of basis), never from a stored copy of earlier output.
"""
from __future__ import annotations

import json
import math
from collections import Counter

import numpy as np

# Width of the band, in standard deviations, for the statistical checks.
# gamma_t is a minimum over eight buckets and the run makes about a dozen
# such comparisons, so a 3-sigma band would reject roughly one correct run
# in a hundred; at 4.5 sigma that is below one in twenty thousand.
Z_BAND = 4.5
# absolute tolerance for white-box scalars, which are exact up to rounding
REPORT_TOL = 1e-9


def _bits_from_hex(s: str) -> int:
    return int.from_bytes(bytes.fromhex(s), "little")


def _band(expected: float, observed: float, n: int, what: str) -> list[str]:
    if n <= 0:
        return [f"{what}: no samples"]
    sigma = math.sqrt(expected * (1.0 - expected) / n)
    if abs(observed - expected) > Z_BAND * sigma:
        return [f"{what}: {observed:.5f} is outside {expected:.5f} +/- "
                f"{Z_BAND} sigma ({Z_BAND * sigma:.5f}, n={n})"]
    return []


# ---------------------------------------------------------------------------
# ideal_study
# ---------------------------------------------------------------------------

def check_parity_targets(records) -> list[str]:
    """Each claw-free leg's parity target is popcount(d & delta) mod 2.

    Ideal-backend F keys carry the claw shift ``delta`` in public, so the
    parity follows from the stored key and equation mask alone.
    """
    out = []
    for rec in records:
        if rec["round_type"] != "hadamard":
            continue
        for leg in (0, 1):
            if rec["basis"][leg] != 1:
                continue
            d = _bits_from_hex(rec["equations"][leg])
            delta = int(rec["keys"][leg]["payload"]["delta"])
            want = (d & delta).bit_count() & 1
            got = rec["targets"][f"u{leg + 1}"]
            if got != want:
                out.append(f"session {rec['session_id']} leg {leg + 1}: parity target "
                           f"{got}, expected {want}")
    return out


def _forced_11(rec: dict, who: str) -> list[str]:
    if tuple(rec["basis"]) != (1, 1) or rec["round_type"] != "hadamard":
        return [f"{who} session {rec['session_id']}: basis {rec['basis']} "
                f"round {rec['round_type']} is not the forced (1,1) hadamard"]
    return []


def check_forced_honest(records, seen: Counter) -> list[str]:
    """The honest prover passes every check of forced (1,1) hadamard rounds.

    ``seen["checked"]`` counts the sessions whose Bell check ran, over all
    the calls of a run; see ``check_forced_honest_seen``.
    """
    out = []
    for rec in records:
        out += _forced_11(rec, "honest")
        if rec["flag"] not in ("ok", "none"):
            out.append(f"honest session {rec['session_id']} has flag {rec['flag']}")
        seen["checked"] += rec["flag"] == "ok"
    return out


def check_forced_honest_seen(seen: Counter) -> list[str]:
    return [] if seen["checked"] else ["no forced honest session was checked"]


def check_classical_guess(records, seen: Counter) -> list[str]:
    """Random answers pass the Bell check with probability exactly 1/2.

    Counts the Bell-checked sessions and passes into ``seen``, over all
    the calls of a run; ``check_classical_guess_rate`` tests the total.
    """
    out = []
    for rec in records:
        out += _forced_11(rec, "classical_guess")
        if tuple(rec["questions"]) not in ((0, 1), (1, 0)):
            continue
        seen["cross"] += 1
        seen["passed"] += rec["flag"] == "ok"
        if rec["flag"] not in ("ok", "fail_bell"):
            out.append(f"classical_guess session {rec['session_id']} has flag {rec['flag']}")
    return out


def check_classical_guess_rate(seen: Counter) -> list[str]:
    cross = seen["cross"]
    rate = seen["passed"] / cross if cross else float("nan")
    return _band(0.5, rate, cross, "classical_guess Bell pass rate")


def check_study_estimates(gammas: dict, p: float) -> list[str]:
    """Deficits of an honest_depolarized:p study sit at the closed form p/2.

    ``gammas`` is ``GammaEstimates.to_json()``; the sample count used for
    the band is that of the estimate's worst bucket.
    """
    out = []
    gp = gammas["gamma_p"]
    if gp["value"] != 0.0 or gp["samples"] <= 0:
        out.append(f"gamma_p is {gp['value']} over {gp['samples']} samples, expected 0")
    for name in ("gamma_t", "gamma_b"):
        est = gammas[name]
        out += _band(p / 2.0, est["value"], est["samples"], name)
    return out


# ---------------------------------------------------------------------------
# lwe_transcripts
# ---------------------------------------------------------------------------

def _words(hex_str: str) -> np.ndarray:
    return np.frombuffer(bytes.fromhex(hex_str), dtype="<u4").astype(np.int64)


def check_lwe_openings(records: list[dict], params: dict) -> list[str]:
    """Re-verify every preimage opening by the definition of the function.

    ``y - A x - b u (mod q)``, centered, must lie within ``lwe_check_bound``
    in every coordinate, with ``A`` and ``u`` read from the stored public
    key and ``x`` split into ``lwe_n`` coordinates of ``log2 q`` bits.
    """
    q, n = params["lwe_q"], params["lwe_n"]
    k = q.bit_length() - 1
    bound = params["lwe_check_bound"]
    out = []
    for rec in records:
        if rec["round_type"] != "preimage":
            continue
        b1, x1, b2, x2 = rec["openings"]
        for leg, (b, xhex) in enumerate(((b1, x1), (b2, x2))):
            payload = rec["keys"][leg]["payload"]
            a = np.array(payload["a"]["__array__"], dtype=np.int64)
            u = np.array(payload["u"]["__array__"], dtype=np.int64)
            y = _words(rec["images"][leg])
            x = _bits_from_hex(xhex)
            xv = np.array([(x >> (i * k)) & (q - 1) for i in range(n)], dtype=np.int64)
            if y.shape != u.shape or b not in (0, 1):
                out.append(f"session {rec['session_id']} leg {leg + 1}: malformed opening")
                continue
            resid = (y - a @ xv - b * u) % q
            resid = np.where(resid >= q // 2, resid - q, resid)
            if int(np.abs(resid).max()) > bound:
                out.append(f"session {rec['session_id']} leg {leg + 1}: opening residual "
                           f"{int(np.abs(resid).max())} exceeds {bound}")
    return out


def check_lwe_round(records: list[dict], run_stats: dict, read_back: dict,
                    rechecked: list[str]) -> list[str]:
    """An honest lwe round: clean flags, exact audit, no undecodable record."""
    out = []
    if read_back != run_stats:
        out.append("stats read back from the transcript differ from the run's stats")
    if run_stats["undecodable"] or run_stats["aborted"]:
        out.append(f"undecodable={run_stats['undecodable']} aborted={run_stats['aborted']}")
    stored = [r["flag"] for r in records]
    if rechecked != stored:
        out.append("a re-derived verdict differs from the stored flag")
    out += [f"honest lwe session {r['session_id']} has flag {r['flag']}"
            for r in records if r["flag"] not in ("ok", "none")]
    return out


# ---------------------------------------------------------------------------
# tcp_loopback
# ---------------------------------------------------------------------------

def check_tcp_round(wire: bytes, reference: bytes, client_flags: list[str]) -> list[str]:
    """Transcripts match an in-process run byte for byte; verdicts match flags."""
    out = []
    if wire != reference:
        at = next((i for i, (x, y) in enumerate(zip(wire, reference)) if x != y),
                  min(len(wire), len(reference)))
        out.append(f"TCP transcript differs from the in-process run at byte {at}")
    recorded = [json.loads(line)["flag"] for line in reference.splitlines()]
    if client_flags != recorded:
        out.append("client verdicts differ from the recorded flags")
    return out


# ---------------------------------------------------------------------------
# whitebox
# ---------------------------------------------------------------------------

def report_scalars(doc: dict) -> dict[str, float]:
    """Every basis-independent scalar of an ``AnalysisReport.to_json()`` dict."""
    out = {"gamma_t": doc["gamma_t"], "gamma_b": doc["gamma_b"]}
    for group in ("test_entries", "bell_entries", "anticomm_residuals",
                  "comm_residuals", "pauli_rounding"):
        out.update({f"{group}.{k}": v for k, v in doc[group].items()})
    for case in doc["bell_cases"]:
        tag = "bell_case.{}{}".format(*case["label"])
        out[f"{tag}.branch_trace"] = case["branch_trace"]
        out[f"{tag}.state_distance"] = case["state_distance"]
        out[f"{tag}.degenerate"] = float(case["degenerate"])
        out.update({f"{tag}.{k}": v for k, v in case["measurement_distances"].items()})
    return out


def check_whitebox_report(doc: dict, reference: dict, p: float) -> list[str]:
    """An embedded honest device reports what the bare 4-dim device does.

    A junk register and a unitary change of basis change no diagnostic, so
    every scalar must equal the 4-dim reference, and both deficits must
    equal the closed form p/2.
    """
    out = []
    if doc["violations"]:
        out.append(f"{len(doc['violations'])} structural violations")
    for name in ("gamma_t", "gamma_b"):
        if abs(doc[name] - p / 2.0) > REPORT_TOL:
            out.append(f"{name} = {doc[name]!r}, expected {p / 2.0}")
    got, want = report_scalars(doc), report_scalars(reference)
    if set(got) != set(want):
        out.append("report entries differ from the 4-dim reference: "
                   f"{sorted(set(got) ^ set(want))[:4]}")
    worst = max((abs(got[k] - want[k]), k) for k in set(got) & set(want))
    if worst[0] > REPORT_TOL:
        out.append(f"{worst[1]} differs from the 4-dim reference by {worst[0]:.3e}")
    return out
