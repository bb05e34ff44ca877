"""Suite-wide set-up: BLAS runs on one thread, as the benchmark's does.

The variables are read when numpy loads its BLAS, so they are set here,
before any test module imports numpy.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
