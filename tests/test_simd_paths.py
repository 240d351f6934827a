"""The pinned bits on numpy's other x86 SIMD path, in a child process.

numpy picks its transcendental kernels when it is imported, so another
path needs a process of its own.  ``NPY_DISABLE_CPU_FEATURES`` switches
the AVX-512 kernels off.  On a host without them numpy only warns about
the features it cannot disable, and the child runs the path that the
host runs anyway.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
AVX512_OFF = {"NPY_DISABLE_CPU_FEATURES": "AVX512_SPR AVX512_ICL X86_V4"}


def test_pinned_bits_hold_with_the_avx512_kernels_off():
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         str(ROOT / "tests" / "test_pinned_bits.py")],
        cwd=ROOT, env={**os.environ, **AVX512_OFF}, capture_output=True,
        text=True)
    assert run.returncode == 0, run.stdout + run.stderr
