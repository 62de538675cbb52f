"""glibc malloc settings for a process that runs rounds.

A fixed mmap threshold turns off glibc's dynamic threshold, whose trim
threshold of twice the largest freed chunk (512 KB for a 32000-token
float64 vector) hands each round's freed vectors back to the kernel, so the
next round faults them in again. Both sizes are well above any per-round
allocation.
"""

from __future__ import annotations

import ctypes
import functools

MMAP_THRESHOLD_BYTES = 16 << 20
TRIM_THRESHOLD_BYTES = 128 << 20


@functools.cache
def retain_heap() -> tuple[int, ...]:
    """Keep freed memory in this process's heap; returns ``mallopt``'s results.

    The round loops (``oracle.calibrate`` and ``pipeline.run_sequence``)
    call this first, so the first of them in a process sets the thresholds,
    whoever calls it: the CLI, a ``sweep`` worker or a library user. The
    settings are process-wide and later calls return the cached result.
    Importing ``hybridlm`` sets nothing. Returns () where the C library has
    no ``mallopt`` (it is glibc's).
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return ()
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    return (
        mallopt(-3, MMAP_THRESHOLD_BYTES),  # M_MMAP_THRESHOLD
        mallopt(-1, TRIM_THRESHOLD_BYTES),  # M_TRIM_THRESHOLD
    )
