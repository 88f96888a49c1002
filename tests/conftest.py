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


class _TornFile:
    """A file whose first write stops half-way and raises, as on a full disk."""

    def __init__(self, fh):
        self._fh = fh

    def write(self, data):
        self._fh.write(data[:len(data) // 2])
        raise OSError("synthetic torn write")

    def __getattr__(self, name):
        return getattr(self._fh, name)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._fh.close()
        return False


@pytest.fixture
def torn_writes(monkeypatch):
    """Names of files whose writes through ``atomic_write`` tear; add to arm."""
    import dunets.atomic as atomic

    names = set()

    def torn_open(file, *args, **kwargs):
        fh = open(file, *args, **kwargs)
        base = os.path.basename(file)
        return _TornFile(fh) if base.removesuffix(".tmp") in names else fh

    monkeypatch.setattr(atomic, "open", torn_open, raising=False)
    return names
