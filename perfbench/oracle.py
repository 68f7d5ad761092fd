"""Correctness oracle: digests of what ``repro runall`` produces.

``reference.json`` beside this file holds the digests recorded from a
cold ``repro runall --parallel 2 --json DIR`` on the code the benchmark
was defined against:

* ``stdout`` — the report text, without the final engine-summary line
  (its cache-hit counts differ between cold and warm runs);
* ``reports`` — one digest per ``--json`` report file;
* ``units`` — the sorted digests of every declared unit's payload, so
  every simulated statistic must stay identical.  They are compared as a
  multiset, without the unit keys, so that a change to how keys are
  derived does not read as a change of results.

Each ``check_*`` function returns a list of human-readable mismatches;
an empty list means the output is correct.  ``serve`` answers have no
stored reference: :func:`replay` computes them with an in-process
``ServeApp`` and :func:`check_serve` compares.
"""

from __future__ import annotations

import asyncio
import collections
import hashlib
import json
from pathlib import Path

REFERENCE = Path(__file__).resolve().parent / "reference.json"


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _plain(value):
    """JSON fallback for payload values (numpy arrays and scalars)."""
    if hasattr(value, "tolist"):
        return value.tolist()
    raise TypeError(f"cannot digest a {type(value).__name__}")


def payload_digest(payload: dict) -> str:
    return digest(json.dumps(payload, sort_keys=True, default=_plain).encode())


def stdout_digest(text: str) -> str:
    """Digest of a runall stdout without its final engine-summary line."""
    lines = text.rstrip("\n").split("\n")
    return digest("\n".join(lines[:-1]).encode())


def report_digests(report_dir: Path) -> "dict[str, str]":
    return {p.name: digest(p.read_bytes())
            for p in sorted(Path(report_dir).glob("*.json"))}


def load_reference(path: Path = REFERENCE) -> dict:
    return json.loads(Path(path).read_text())


def check_stdout(reference: dict, text: str) -> "list[str]":
    if stdout_digest(text) != reference["stdout"]:
        return ["stdout differs from the reference"]
    return []


def check_reports(reference: dict, report_dir: Path) -> "list[str]":
    got = report_digests(report_dir)
    want = reference["reports"]
    problems = [f"report {name} missing" for name in sorted(set(want) - set(got))]
    problems += [f"report {name} not in the reference"
                 for name in sorted(set(got) - set(want))]
    problems += [f"report {name} differs" for name in sorted(set(want) & set(got))
                 if got[name] != want[name]]
    return problems


def check_units(reference: dict, digests: "list[str]") -> "list[str]":
    want = collections.Counter(reference["units"])
    got = collections.Counter(digests)
    missing = sum((want - got).values())
    extra = sum((got - want).values())
    if missing or extra:
        return [f"unit payloads: {missing} reference payload(s) not produced, "
                f"{extra} unexpected payload(s)"]
    return []


# ── checks that run the program in this process ────────────────────────────


def runall_ids() -> "list[str]":
    """The experiments ``repro runall`` runs."""
    from repro.experiments.registry import EXPERIMENTS

    return sorted(k for k in EXPERIMENTS if not k.startswith("ablation-"))


def unit_payload_digests(sweeps: Path) -> "list[str]":
    """Sorted payload digests of every unique unit ``runall`` declares,
    resolved through the sweep cache at ``sweeps``."""
    from repro.experiments import simsweep
    from repro.experiments.registry import declare_units
    from repro.pipeline import resolve_units

    simsweep.set_disk_store(sweeps)
    simsweep.clear_cache(memory_only=True)
    try:
        payloads = resolve_units(u for eid in runall_ids() for u in declare_units(eid))
    finally:
        simsweep.set_disk_store(None)
        simsweep.clear_cache(memory_only=True)
    return sorted(payload_digest(p) for p in payloads.values())


def replay(requests, on_request=None, concurrency: int = 1
           ) -> "list[tuple[int, bytes]]":
    """Answer ``requests`` with a fresh in-process ``ServeApp``; returns
    ``(status, body)`` per request, in order.

    Requests go ``concurrency`` at a time; answers do not depend on it, as
    the serving caches are transparent.  ``on_request(req, call)`` may wrap
    each awaitable call (the traced profile times it).
    """
    from repro.experiments import simsweep
    from repro.serve import ServeApp

    simsweep.clear_cache(memory_only=True)
    app = ServeApp()

    async def one(req):
        call = app.handle(req.method, req.path, dict(req.params), req.body)
        status, _, body = await (on_request(req, call) if on_request else call)
        return status, body

    async def go():
        out = []
        for i in range(0, len(requests), concurrency):
            out += await asyncio.gather(*map(one, requests[i:i + concurrency]))
        return out

    return asyncio.run(go())


def check_serve(record, requests, samples, expected) -> None:
    """Count each query with ``record(what, problems)``: it fails unless
    its body equals the in-process answer (``healthz``: unless it has the
    in-process shape)."""
    for req, sample, (want_status, want_body) in zip(requests, samples, expected):
        what = f"query {sample.index} {req.method} {req.target()}"
        if sample.status != 200 or want_status != 200:
            record(what, [f"status {sample.status} (in-process {want_status})"])
        elif req.endpoint == "healthz":
            got = json.loads(sample.body)
            ok = got.get("status") == "ok" and set(got) == set(json.loads(want_body))
            record(what, [] if ok else ["healthz body has the wrong shape"])
        else:
            ok = sample.body_digest == digest(want_body)
            record(what, [] if ok else ["body differs from the in-process answer"])
