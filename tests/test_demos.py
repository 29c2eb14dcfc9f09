r"""Every demo prints exactly its golden output, ``tests/golden/<demo>.txt``,
and the README's library quick start runs.

Each demo runs as a script in a fresh interpreter, the way a reader runs
``python demos/<demo>.py``, from an empty working directory, on the reference
kernels of the root ``conftest.py`` and with any warning an error as in the
suite. After a change that is meant to alter what a demo prints, regenerate
its golden file on the same kernels::

    OPENBLAS_CORETYPE=Nehalem NPY_DISABLE_CPU_FEATURES="X86_V3 X86_V4 AVX512_ICL AVX512_SPR" \
        PYTHONPATH=src python demos/<demo>.py > tests/golden/<demo>.txt
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


def _run(args, cwd, env):
    """Run ``python *args`` in ``cwd`` under ``env``, a fixture of the root
    conftest."""
    run = subprocess.run([sys.executable, *args], cwd=cwd, env=env,
                         capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    return run.stdout


@pytest.mark.parametrize("demo", DEMOS)
def test_demo_prints_its_golden_output(demo, tmp_path, reference_env):
    stdout = _run([os.path.join(ROOT, "demos", f"{demo}.py")], tmp_path, reference_env)
    with open(os.path.join(GOLDEN, f"{demo}.txt"), encoding="utf-8") as f:
        assert stdout == f.read()


def test_the_readme_library_quick_start_runs(tmp_path, reference_env):
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as f:
        readme = f.read()
    block, = re.findall(r"## Library quick start\n\n```python\n(.*?)```", readme, re.S)
    assert _run(["-c", block], tmp_path, reference_env).startswith("RougeScores(rouge1=")
