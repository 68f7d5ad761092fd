"""Tests of the benchmark's own parts: the seeded request stream and the
correctness oracle.  Run with ``python -m pytest perfbench``."""

from __future__ import annotations

import collections
import itertools

import oracle
from stream import MIX, request_stream


def _prefix(seed: int, n: int = 3000) -> list:
    return list(itertools.islice(request_stream(seed), n))


def test_same_seed_same_stream():
    assert _prefix(7) == _prefix(7)


def test_different_seeds_differ():
    assert _prefix(7) != _prefix(8)


def test_kinds_follow_the_stream_history():
    seen = set()
    for req in _prefix(11):
        if req.endpoint == "healthz":
            assert req.kind is None
            continue
        identity = (req.endpoint, req.target(), req.body)
        assert req.kind == ("repeat" if identity in seen else "fresh")
        seen.add(identity)


def test_mix_and_repeat_share():
    reqs = _prefix(5, 20000)
    counts = collections.Counter(r.endpoint for r in reqs)
    for endpoint, weight in MIX:
        assert abs(counts[endpoint] / len(reqs) - weight / 100) < 0.02
    keyed = [r for r in reqs if r.kind is not None]
    share = sum(r.kind == "repeat" for r in keyed) / len(keyed)
    # half the keyed draws are hot, minus each hot key's first (fresh) use
    assert 0.45 < share < 0.5


def _reference(tmp_path):
    reports = tmp_path / "reports"
    reports.mkdir()
    for name in ("fig4.json", "table2.json"):
        (reports / name).write_text('{"experiment_id": "%s"}\n' % name)
    stdout = "report text\n\n[2 experiments; engine: 4 unit(s)]\n"
    payloads = [{"total": 1.0}, {"total": 2.0}]
    return reports, stdout, payloads, {
        "stdout": oracle.stdout_digest(stdout),
        "reports": oracle.report_digests(reports),
        "units": sorted(oracle.payload_digest(p) for p in payloads),
    }


def test_oracle_accepts_matching_outputs(tmp_path):
    reports, stdout, payloads, ref = _reference(tmp_path)
    # the engine-summary line is not part of the digest
    assert oracle.check_stdout(ref, stdout.replace("4 unit(s)", "9 unit(s)")) == []
    assert oracle.check_reports(ref, reports) == []
    units = [oracle.payload_digest(p) for p in reversed(payloads)]
    assert oracle.check_units(ref, units) == []


def test_oracle_catches_a_corrupted_report(tmp_path):
    reports, _, _, ref = _reference(tmp_path)
    path = reports / "fig4.json"
    data = bytearray(path.read_bytes())
    data[3] ^= 0x01
    path.write_bytes(bytes(data))
    assert oracle.check_reports(ref, reports) == ["report fig4.json differs"]


def test_oracle_catches_missing_and_extra_reports(tmp_path):
    reports, _, _, ref = _reference(tmp_path)
    (reports / "table2.json").rename(reports / "table9.json")
    assert oracle.check_reports(ref, reports) == [
        "report table2.json missing", "report table9.json not in the reference"]


def test_oracle_catches_changed_stdout_and_payloads(tmp_path):
    _, stdout, payloads, ref = _reference(tmp_path)
    assert oracle.check_stdout(ref, stdout.replace("report", "rep0rt"))
    changed = [oracle.payload_digest(payloads[0]),
               oracle.payload_digest({"total": 2.5})]
    assert oracle.check_units(ref, changed) == [
        "unit payloads: 1 reference payload(s) not produced, "
        "1 unexpected payload(s)"]
