"""Each demo runs to completion, in a fresh process and an empty working
directory, against the library in src/ (so a renamed public name that a demo
still uses fails here), in an interpreter where importing scipy fails: the
demos need numpy alone."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
WITHOUT_SCIPY = "import runpy, sys\nsys.modules['scipy'] = None\nrunpy.run_path(sys.argv[1], run_name='__main__')\n"


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_runs(demo, tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", WITHOUT_SCIPY, str(demo)],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip(), f"{demo.name} printed nothing"
