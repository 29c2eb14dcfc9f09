"""Every demo prints exactly its golden output, ``tests/golden/<demo>.txt``,
and the README's library quick start runs.

Each demo runs as a script in a fresh interpreter, the way a reader runs
``python demos/<demo>.py``, from an empty working directory. After a change
that is meant to alter what a demo prints, regenerate its golden file with
``PYTHONPATH=src python demos/<demo>.py > tests/golden/<demo>.txt``.
"""

import os
import re
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
GOLDEN = os.path.join(ROOT, "tests", "golden")
DEMOS = sorted(f[:-3] for f in os.listdir(os.path.join(ROOT, "demos")) if f.endswith(".py"))


def test_every_demo_has_a_golden_output():
    assert DEMOS and DEMOS == sorted(f[:-4] for f in os.listdir(GOLDEN) if f.endswith(".txt"))


def _run(args, cwd):
    """Run ``python *args`` in ``cwd`` with the source tree importable."""
    path = os.pathsep.join(p for p in (os.path.join(ROOT, "src"), os.environ.get("PYTHONPATH"))
                           if p)
    run = subprocess.run([sys.executable, *args], cwd=cwd,
                         env={**os.environ, "PYTHONPATH": path},
                         capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    return run.stdout


@pytest.mark.parametrize("demo", DEMOS)
def test_demo_prints_its_golden_output(demo, tmp_path):
    stdout = _run([os.path.join(ROOT, "demos", f"{demo}.py")], tmp_path)
    with open(os.path.join(GOLDEN, f"{demo}.txt"), encoding="utf-8") as f:
        assert stdout == f.read()


def test_the_readme_library_quick_start_runs(tmp_path):
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as f:
        readme = f.read()
    block, = re.findall(r"## Library quick start\n\n```python\n(.*?)```", readme, re.S)
    assert _run(["-c", block], tmp_path).startswith("RougeScores(rouge1=")
