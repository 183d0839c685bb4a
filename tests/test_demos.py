"""Smoke test: the narrative demos run to completion against the library.

demo_ablations is left out: it trains many models and takes about half a
minute.
"""
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

DEMOS = [
    "demo_attribute_matrices",
    "demo_fm_identity",
    "demo_gradient_check",
    "demo_graphs_and_forward",
    "demo_train_synthetic",
]


@pytest.mark.parametrize("demo", DEMOS)
def test_demo_runs(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    result = subprocess.run(
        [sys.executable, os.path.join(ROOT, "demos", f"{demo}.py")],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300,
    )
    assert result.returncode == 0, result.stderr[-2000:]
