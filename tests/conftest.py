import os

# BLAS reads its thread counts once, when numpy loads, and numpy loads here
# before dunets can pin them: pin every pool to one thread first, so the
# suite runs the single-threaded BLAS that bit-identical reruns rely on.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np
import pytest

from dunets.volterra import make_operator


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


@pytest.fixture
def tiny_op():
    # 3 windows of size 5 at stride 3 over an 11-point signal
    return make_operator(1.0, seed=7, n=11, k=5, stride=3)
