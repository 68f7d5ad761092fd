"""Import budget: the CLI and the serve handlers load without scipy.

scipy is only needed by ``repro.core.fitting`` and the HOP workload's
kd-tree, so both import it on demand.  Each check runs in a fresh
interpreter so modules imported by other tests cannot mask a regression.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"


def _run(code: str) -> str:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


_SCIPY_LOADED = "import sys; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"


@pytest.mark.parametrize("module", ["repro.cli", "repro.serve.handlers"])
def test_import_loads_no_scipy(module):
    assert _run(f"import {module}; {_SCIPY_LOADED}") == "[]"


def test_fitting_resolves_lazily():
    out = _run(
        "import sys, repro.core\n"
        "assert 'scipy' not in sys.modules\n"
        "fit = repro.core.fitting.fit_amdahl\n"
        "from repro.core.fitting import fit_amdahl\n"
        "assert fit is fit_amdahl and 'scipy.optimize' in sys.modules\n"
        "print('ok')"
    )
    assert out == "ok"


def test_unknown_core_attribute_still_raises():
    import repro.core

    with pytest.raises(AttributeError, match="no_such_model"):
        repro.core.no_such_model  # noqa: B018


def test_hop_workload_imports_scipy_on_demand():
    out = _run(
        "import sys\n"
        "from repro.workloads.hop import HopWorkload\n"
        "from repro.workloads.datasets import make_particles\n"
        "assert 'scipy.spatial' not in sys.modules\n"
        "ds = make_particles(300, n_halos=3, seed=3)\n"
        "assert HopWorkload(ds, n_neighbors=8).execute(2).phases\n"
        "assert 'scipy.spatial' in sys.modules\n"
        "print('ok')"
    )
    assert out == "ok"
