"""The README's library example runs as written."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import liefock

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_library_example_runs():
    # the first ```python block after the "## Library example" heading
    after = README.read_text().split("\n## Library example\n", 1)[1]
    block = after.split("```python\n", 1)[1].split("```", 1)[0]
    src = str(Path(liefock.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    run = subprocess.run([sys.executable, "-c", block], env=env, capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    # the last line is the return fidelity at t = pi
    assert float(run.stdout.splitlines()[-1]) == pytest.approx(1.0, abs=1e-9)
