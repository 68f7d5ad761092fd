"""The seeded request stream of the ``serve-mixed`` workload.

:func:`request_stream` is a pure function of its seed: the same seed
yields the same requests in the same order, and the server receives only
what it yields.  Each request draws its endpoint from :data:`MIX`; a keyed
request (every endpoint but ``healthz``) then takes, with probability
:data:`REPEAT_P`, one of :data:`HOT_KEYS` parameter keys shared by all
keyed endpoints, and otherwise a key the stream has never sent on that
endpoint.

A request is tagged ``"repeat"`` when the stream sent the identical request
before, ``"fresh"`` when it is sent for the first time, and ``None`` for
``healthz``, which carries no key.  A hot key's first use is therefore
fresh, so the measured repeat share sits a little below :data:`REPEAT_P`.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from typing import Iterator

#: endpoint -> weight, in percent of requests
MIX = (("eval", 70), ("sweep", 10), ("optimize", 10), ("report", 5), ("healthz", 5))
#: the hot set every keyed endpoint draws from, and the chance of a draw
HOT_KEYS = 64
REPEAT_P = 0.5

_MODELS = ("merging-symmetric", "merging-asymmetric", "hm-symmetric", "comm-symmetric")
#: the fields each point query of a model carries: exactly the ones the
#: server keys its cache on, so distinct bodies are distinct cache keys
_EVAL_FIELDS = {
    "merging-symmetric": ("f", "fcon_share", "fored_share", "r"),
    "merging-asymmetric": ("f", "fcon_share", "fored_share", "rl", "r"),
    "hm-symmetric": ("f", "r"),
    "comm-symmetric": ("f", "fcon_share", "r"),
}
_SWEEP_FIELDS = {
    "merging-symmetric": ("f", "fcon_share", "fored_share"),
    "merging-asymmetric": ("f", "fcon_share", "fored_share", "r"),
    "hm-symmetric": ("f",),
    "comm-symmetric": ("f", "fcon_share"),
}
_SIZES = (1.0, 4.0, 16.0, 32.0, 64.0)
#: report queries ask for Fig 4 at chip size ``n``; hot keys use
#: ``_REPORT_N0 + key`` and fresh ones count up from above that range
_REPORT_N0 = 64


@dataclass(frozen=True)
class Request:
    """One HTTP request of the stream."""

    endpoint: str
    method: str
    path: str
    params: "dict[str, str]"
    body: bytes
    kind: "str | None"  # "repeat", "fresh", or None for healthz

    def target(self) -> str:
        """The request target as sent on the wire (path plus query)."""
        if not self.params:
            return self.path
        query = "&".join(f"{k}={v}" for k, v in sorted(self.params.items()))
        return f"{self.path}?{query}"


def _params(rng: random.Random) -> dict:
    return {
        "model": rng.choice(_MODELS),
        "f": round(rng.uniform(0.5, 0.999), 6),
        "fcon_share": round(rng.uniform(0.1, 0.9), 4),
        "fored_share": round(rng.uniform(0.1, 0.9), 4),
        "r": rng.choice(_SIZES),
        "rl": rng.choice(_SIZES),
    }


def _build(endpoint: str, key: int, p: dict) -> Request:
    if endpoint == "eval":
        body = {"model": p["model"], **{k: p[k] for k in _EVAL_FIELDS[p["model"]]}}
        return Request("eval", "POST", "/v1/eval", {},
                       json.dumps(body, sort_keys=True).encode(), None)
    if endpoint == "sweep":
        point = {k: p[k] for k in _SWEEP_FIELDS[p["model"]]}
        body = {"model": p["model"], "n": 256, "points": [point]}
        return Request("sweep", "POST", "/v1/sweep", {},
                       json.dumps(body, sort_keys=True).encode(), None)
    if endpoint == "optimize":
        body = {"points": [{k: p[k] for k in ("f", "fcon_share", "fored_share")}]}
        return Request("optimize", "POST", "/v1/optimize", {},
                       json.dumps(body, sort_keys=True).encode(), None)
    if endpoint == "report":
        return Request("report", "GET", "/v1/report/fig4",
                       {"n": str(_REPORT_N0 + key)}, b"", None)
    raise ValueError(f"unknown keyed endpoint {endpoint!r}")


def request_stream(seed: int) -> Iterator[Request]:
    """Yield the endless, deterministic request stream for ``seed``."""
    rng = random.Random(f"perfbench-stream:{seed}")
    hot = [_params(rng) for _ in range(HOT_KEYS)]
    endpoints = [name for name, _ in MIX]
    weights = [weight for _, weight in MIX]
    sent: "dict[str, set]" = {name: set() for name in endpoints}
    next_fresh = {name: HOT_KEYS for name in endpoints}
    while True:
        endpoint = rng.choices(endpoints, weights)[0]
        if endpoint == "healthz":
            yield Request("healthz", "GET", "/healthz", {}, b"", None)
            continue
        if rng.random() < REPEAT_P:
            key = rng.randrange(HOT_KEYS)
            req = _build(endpoint, key, hot[key])
        else:
            while True:  # a fresh key: redraw until the request is new
                key = next_fresh[endpoint]
                next_fresh[endpoint] += 1
                req = _build(endpoint, key, _params(rng))
                if (req.target(), req.body) not in sent[endpoint]:
                    break
        identity = (req.target(), req.body)
        kind = "repeat" if identity in sent[endpoint] else "fresh"
        sent[endpoint].add(identity)
        yield Request(req.endpoint, req.method, req.path, req.params, req.body, kind)
