"""Deep unrolling reconstruction networks with momentum acceleration.

Implements learned proximal gradient descent (LPGD, plus a shared-weight
variant LPGDSW) and learned primal-dual (LPD) reconstruction networks for a
nonlinear windowed-quadratic deconvolution problem, each optionally
accelerated by an explicit momentum term (MA) or a learned recurrent
momentum module (RMA, an LSTM over the gradient history).
"""

import os
import sys
import warnings

# Training determinism requires a fixed reduction order inside BLAS; pin the
# thread pools before numpy loads unless the caller chose otherwise.  BLAS
# reads these variables once, when numpy loads, so a pin set after that
# does nothing.
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
if "numpy" in sys.modules and not all(v in os.environ for v in BLAS_VARS):
    warnings.warn(
        "numpy was imported before dunets without "
        f"{'/'.join(BLAS_VARS)} set, so BLAS may run multi-threaded and "
        "training reruns may not be bit-identical; set them to 1 before "
        "importing numpy", RuntimeWarning, stacklevel=2)
for _var in BLAS_VARS:
    os.environ.setdefault(_var, "1")
del _var

__version__ = "0.1.0"
