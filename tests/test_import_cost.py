"""Start-up stays light: SciPy is loaded only by the one test that needs it."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

SRC = Path(repro.__file__).resolve().parent.parent


def _fresh(code: str) -> str:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        [sys.executable, "-c", code], env=env, check=True,
        capture_output=True, text=True,
    ).stdout.strip()


def test_cli_import_leaves_scipy_unloaded():
    out = _fresh(
        "import sys, repro.cli; print('scipy' in sys.modules)"
    )
    assert out == "False"


def test_exponentiality_test_still_loads_scipy():
    out = _fresh(
        "import sys, random\n"
        "from repro.stats import test_exponentiality\n"
        "rng = random.Random(3)\n"
        "r = test_exponentiality([rng.expovariate(0.5) for _ in range(400)])\n"
        "print('scipy' in sys.modules, r.n, r.mean, r.cv, r.ks_statistic,"
        " r.p_value)"
    )
    loaded, n, *values = out.split()
    assert loaded == "True" and n == "400"
    # The values the module-level SciPy import gave for this sample.
    assert [float(v) for v in values] == pytest.approx([
        1.9927712425372488, 0.958691806739112,
        0.030826931010772385, 0.8300975566974083,
    ], rel=1e-9)


def test_every_export_resolves_lazily():
    out = _fresh(
        "import sys, repro\n"
        "eager = 'repro.core' in sys.modules\n"
        "missing = [n for n in repro.__all__ if not hasattr(repro, n)]\n"
        "print(eager, missing, set(repro.__all__) <= set(dir(repro)))"
    )
    assert out == "False [] True"


def test_subpackages_resolve_as_attributes():
    # ``import repro; repro.core...`` worked while the re-exports were
    # eager; the lazy package keeps it working.
    assert repro.core.incident_rates is repro.incident_rates
    assert repro.stats.test_exponentiality
