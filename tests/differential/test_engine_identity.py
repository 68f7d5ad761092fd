"""Cycle-identity fuzz: thousands of programs through both engines.

Every generated program runs through the reference interpreter and the
lockstep batch engine on the same (rotating) machine configuration; all
observable output — total and per-thread cycles, instruction counts,
protocol counters, per-phase busy/wait/span attribution and op
accounting — must be identical.  Seeds are chunked so a failure names a
narrow seed range that replays standalone via
``tests.differential.gen.generate_program(seed, mix)``.
"""

import os

import pytest

from tests.differential.engines import CONFIGS, assert_identical, run_ref_and_batch
from tests.differential.gen import MIXES, generate_program

_CONFIG_RING = tuple(CONFIGS.items())

#: seeds per mix; 5 mixes x 408 = 2040 programs (the acceptance bar is
#: 2000).  Override with REPRO_DIFF_SEEDS for longer CI fuzz runs.
SEEDS_PER_MIX = int(os.environ.get("REPRO_DIFF_SEEDS", "408"))
_CHUNK = 51


def test_corpus_meets_the_acceptance_bar():
    assert len(MIXES) * SEEDS_PER_MIX >= 2000


@pytest.mark.parametrize("start", range(0, SEEDS_PER_MIX, _CHUNK))
@pytest.mark.parametrize("mix", MIXES)
def test_engines_cycle_identical(mix, start):
    for seed in range(start, min(start + _CHUNK, SEEDS_PER_MIX)):
        config_name, cfg = _CONFIG_RING[seed % len(_CONFIG_RING)]
        program = generate_program(seed, mix)
        ref, bat = run_ref_and_batch(program, cfg)
        why = f"mix={mix} seed={seed} config={config_name}"
        assert ref.engine == "reference", why
        assert bat.engine == "batch", why
        assert ref.n_ops == bat.n_ops, why
        assert_identical(bat, ref)
