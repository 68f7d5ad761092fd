"""Declarative experiment pipeline: declare work units, assemble reports.

The pipeline layer sits between the experiments and the execution engine
(see ``docs/architecture.md``).  Experiments describe themselves as
:class:`ExperimentSpec`\\ s — stages *declare* content-hashed work units
over any expensive backend (simulator sweeps and trace programs,
hardware-model and wall-clock executions, model-layer evaluations), and
an *assemble* function builds the report from warm caches.
:func:`resolve_units` is the one execution substrate all of them share:
memo -> disk store -> engine pool -> inline, in that order.
"""

from repro.pipeline.builders import (
    HARDWARE_MODEL,
    HARDWARE_PROCESS,
    MODEL_EVAL_GRID,
    SIM_PROGRAM,
    breakdown_from_payload,
    hardware_model_units,
    hardware_process_units,
    hardware_units,
    model_eval_grid_unit,
    sim_point_unit,
    sim_program_unit,
)
from repro.pipeline.runtime import (
    cache_get,
    cache_put,
    clear_memo,
    memo_info,
    resolve_units,
)
from repro.pipeline.spec import (
    ExperimentSpec,
    Stage,
    accepted_options,
    filter_kwargs,
)

__all__ = [
    "ExperimentSpec",
    "Stage",
    "accepted_options",
    "filter_kwargs",
    "SIM_PROGRAM",
    "HARDWARE_MODEL",
    "HARDWARE_PROCESS",
    "MODEL_EVAL_GRID",
    "sim_point_unit",
    "sim_program_unit",
    "hardware_units",
    "hardware_model_units",
    "hardware_process_units",
    "model_eval_grid_unit",
    "breakdown_from_payload",
    "resolve_units",
    "cache_get",
    "cache_put",
    "clear_memo",
    "memo_info",
]
