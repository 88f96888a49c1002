"""Environment stamp and pins: interpreter, numpy and BLAS builds, CPUs,
the BLAS thread pin and the malloc pin.

``run.py`` stamps every run without reading anything outside the checkout.
Run this file directly to also record the host's cache sizes from sysfs:

    python3 perfbench/envstamp.py
"""

import ctypes
import ctypes.util
import json
import os
import platform
import sys

PIN_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def pin_blas():
    """Pin every BLAS/OpenMP pool to one thread; call before numpy loads.

    A pin set after numpy has loaded does nothing, so the record says
    whether numpy was already imported.
    """
    record = {"numpy_preloaded": "numpy" in sys.modules,
              "env_before": {v: os.environ.get(v) for v in PIN_VARS}}
    for var in PIN_VARS:
        os.environ[var] = "1"
    record["pinned"] = not record["numpy_preloaded"]
    return record


# glibc mallopt parameters, and the largest mmap threshold 64-bit glibc accepts
M_TRIM_THRESHOLD, M_MMAP_THRESHOLD = -1, -3
HEAP_BYTES = 32 << 20


def pin_malloc():
    """Keep freed arrays in glibc's heap instead of handing them back to the OS.

    By default glibc maps every block over 128 KiB afresh and unmaps it on
    free, so each large numpy temporary costs page faults.  One B=256
    lpgd-none batch of eval-mix took about 172k minor faults and a third
    of its wall time in the kernel, and that kernel time swung with the
    host's load.  With blocks up to 32 MiB served from the heap, the faults
    and the kernel time go to zero.  Returns whether glibc took both settings (False off glibc).
    """
    try:
        libc = ctypes.CDLL(ctypes.util.find_library("c"))
        return bool(libc.mallopt(M_MMAP_THRESHOLD, HEAP_BYTES)
                    and libc.mallopt(M_TRIM_THRESHOLD, 2 * HEAP_BYTES))
    except (OSError, AttributeError):
        return False


def _blas(np):
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        return {"name": "unknown"}
    return {k: blas.get(k) for k in ("name", "version", "openblas configuration")}


def host_caches():
    """Data/unified cache sizes of cpu0 by level, from sysfs."""
    base = "/sys/devices/system/cpu/cpu0/cache"
    caches = {}
    for entry in sorted(os.listdir(base)):
        if not entry.startswith("index"):
            continue

        def read(field):
            with open(os.path.join(base, entry, field)) as fh:
                return fh.read().strip()
        if read("type") != "Instruction":
            caches[f"L{read('level')}"] = read("size")
    return caches


def stamp(pin, with_caches=False):
    import numpy as np
    out = {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas(np),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "blas_pin": pin,
        "blas_env": {v: os.environ.get(v) for v in PIN_VARS},
    }
    if with_caches:
        out["caches"] = host_caches()
    return out


if __name__ == "__main__":
    print(json.dumps(stamp(pin_blas(), with_caches=True), indent=1))
