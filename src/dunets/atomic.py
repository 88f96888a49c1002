"""All-or-nothing file writes."""

import os
from contextlib import contextmanager


@contextmanager
def atomic_write(path, mode="w", **open_kwargs):
    """Open a temp file beside ``path``; move it over ``path`` when the block ends.

    Readers see the old file (or none) until the new one is complete: if the
    block raises, the temp file is removed and ``path`` is left untouched.
    """
    tmp = path + ".tmp"
    try:
        with open(tmp, mode, **open_kwargs) as fh:
            yield fh
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise
    os.replace(tmp, path)
