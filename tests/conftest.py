"""Test-session setup.

One BLAS thread per test process, pinned before numpy loads (as
perfbench/run.py does): BLAS worker threads of two suites running at once on a
small machine contend and slow each other several-fold, which is enough to
fail the wall-time bound of the composed-sketch acceptance test.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
