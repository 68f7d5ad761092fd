"""Traced replica of ``repro runall --parallel N --json DIR``.

Run as ``python perfbench/replica.py --parallel N --json DIR --spans F
--stats F`` with ``src`` on ``PYTHONPATH``.  It makes the same public
calls as the ``runall`` command, in the same order, and prints the same
output, with one :func:`repro.obs.span` around each layer call:

    cli.import                       (recorded by hand, see below)
    engine.session
      registry.declare
      engine.precompute
      registry.assemble   x experiment
      cli.render          x experiment
      experiments.store.save x experiment
    cli.summary
    perfbench.write                  (recorded by hand, see below)

``repro.obs`` cannot time its own import, and importing it imports the
whole package, so ``cli.import`` is built from two clock readings around
``import repro.cli``.  Likewise ``perfbench.write``, the writing of the
span and stats files, is timed by hand and passed in the stats file.  The
benchmark adds the residual spans ``cli.startup`` (spawn to that import)
and ``cli.exit`` (the end of the write to process exit: interpreter
teardown) from its own clock; whatever the spans leave uncovered is
``trace.unattributed_s``.
"""

from __future__ import annotations

import time

_T0, _W0 = time.perf_counter(), time.time()
import repro.cli  # noqa: E402,F401  (the import being timed)

_IMPORT_S = time.perf_counter() - _T0

import argparse  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

from repro import engine, obs  # noqa: E402
from repro.experiments import simsweep  # noqa: E402
from repro.experiments.registry import (  # noqa: E402
    EXPERIMENTS,
    declare_units,
    run_experiment,
)
from repro.experiments.store import save_report  # noqa: E402
from repro.pipeline import memo_info, runtime  # noqa: E402
from repro.util.logging import configure  # noqa: E402


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parallel", type=int, required=True)
    parser.add_argument("--json", required=True, metavar="DIR")
    parser.add_argument("--spans", required=True, metavar="JSONL")
    parser.add_argument("--stats", required=True, metavar="JSON")
    args = parser.parse_args(argv)
    configure()
    obs.set_enabled(True)
    rec = obs.SpanRecorder()
    # span ids from a recorder start at 1, so 0 is free for the import
    rec.record(obs.Span(name="cli.import", span_id=0, parent_id=None, depth=0,
                        start=_W0, seconds=_IMPORT_S))

    # the CLI's selection (oracle.runall_ids); importing the oracle here
    # would add its imports to the traced process
    ids = sorted(k for k in EXPERIMENTS if not k.startswith("ablation-"))
    failed = False
    with obs.span("engine.session", recorder=rec, workers=args.parallel):
        with engine.session(args.parallel, drain_signals=True) as sess:
            with obs.span("registry.declare", recorder=rec):
                units = [u for eid in ids for u in declare_units(eid)]
            with obs.span("engine.precompute", recorder=rec, units=len(units)):
                sess.run_units(units, cache_get=runtime.cache_get,
                               cache_put=runtime.cache_put)
            for eid in ids:
                with obs.span("registry.assemble", recorder=rec, experiment=eid):
                    report = run_experiment(eid)
                with obs.span("cli.render", recorder=rec, experiment=eid):
                    print(report.render())
                    print()
                with obs.span("experiments.store.save", recorder=rec,
                              experiment=eid):
                    save_report(report, Path(args.json) / f"{eid}.json")
                failed = failed or not report.all_match
            summary = sess.summary()
            engine_stats = dict(sess.stats)
    with obs.span("cli.summary", recorder=rec):
        print(f"[{len(ids)} experiments; engine: {summary}]")
        sys.stdout.flush()

    # the benchmark's own output: a span cannot cover the write of the
    # file it is in, so its time travels in the stats file
    t0, w0 = time.perf_counter(), time.time()
    stats = {
        "declared_units": len(units),
        "unique_units": len({u.key for u in units}),
        "engine": engine_stats,
        "memo": memo_info(),
        "sweep": simsweep.cache_info(),
    }
    obs.write_jsonl(args.spans, recorder=rec, meta={"command": "runall-replica"})
    stats["write"] = {"start": w0, "seconds": time.perf_counter() - t0}
    Path(args.stats).write_text(json.dumps(stats, sort_keys=True))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
