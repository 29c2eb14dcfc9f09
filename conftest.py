"""The environment of the golden checks' subprocesses: reference kernels, so
that the goldens pass on any x86-64 host, and the suite's warning rule.

The goldens are sha256 digests of float64 bytes, and those bytes depend on
the BLAS kernel and on numpy's SIMD dispatch as well as on the code. The
reference set is OpenBLAS's Nehalem kernels with numpy's AVX2 and AVX-512
dispatch off: a baseline that every x86-64 host has. The golden checks run in
subprocesses given ``reference_env``; every other test runs on the host's own
kernels.

Both values name x86-64 kernels, so they are set on x86-64 only. Elsewhere
numpy raises ImportWarning for a feature that is not in its dispatch list,
which the warning rule turns into a failure, and OpenBLAS does not know the
core name. On an x86-64 host that lacks some of the named features, numpy 2.4
disables the rest and warns of nothing.
"""

import os
import platform
import tomllib

import pytest

ROOT = os.path.dirname(os.path.abspath(__file__))
REFERENCE_KERNELS = ({"OPENBLAS_CORETYPE": "Nehalem",
                      "NPY_DISABLE_CPU_FEATURES": "X86_V3 X86_V4 AVX512_ICL AVX512_SPR"}
                     if platform.machine().lower() in ("x86_64", "amd64") else {})

with open(os.path.join(ROOT, "pyproject.toml"), "rb") as _f:
    # pytest's filterwarnings entries share the syntax of python -W
    WARNING_RULE = ",".join(tomllib.load(_f)["tool"]["pytest"]["ini_options"]["filterwarnings"])


@pytest.fixture
def reference_env() -> dict[str, str]:
    """This process's environment with the reference kernels forced, the
    suite's warning rule, and the source tree on ``PYTHONPATH``."""
    path = os.pathsep.join(p for p in (os.path.join(ROOT, "src"), os.environ.get("PYTHONPATH"))
                           if p)
    return {**os.environ, **REFERENCE_KERNELS, "PYTHONWARNINGS": WARNING_RULE, "PYTHONPATH": path}
