"""Test-session setup: one BLAS thread, so timed tests do not race a busy host.

With OpenBLAS at its default thread count, one `er_numeric` call took 1.13 s
next to one busy process and 0.32 s at one thread.  The variables are read
when numpy loads its BLAS, so they must be set before numpy is imported.
"""

import os
import sys

assert "numpy" not in sys.modules, "numpy was imported before the BLAS threads were pinned"

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
