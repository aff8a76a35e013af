"""Thread pools whose results come back in item order, and what sizes them.

Grading sends backend requests on one, and question-scope training fits
one adapter per worker.  The BLAS thread count is the process's setting:
it is read here, never set.
"""

from __future__ import annotations

import ctypes
import os
from collections import deque
from concurrent.futures import ThreadPoolExecutor

# the thread-count getter of the OpenBLAS builds numpy ships or links
_OPENBLAS_GETTERS = (
    "scipy_openblas_get_num_threads64_",
    "openblas_get_num_threads64_",
    "openblas_get_num_threads",
)


def in_order(task, items, workers: int):
    """task(item) for each item on a pool of workers, yielded in item order.

    Items are drawn lazily on the calling thread, at most 2 * workers
    ahead of the result being waited for.  When a task raises, the tasks
    not yet started are cancelled and the error propagates once the
    running ones finish.
    """
    # No local variable may name a future whose result is being read: the
    # error it raises holds this frame, and the frame would hold the future
    # that holds the error, a cycle that keeps the caller's data alive
    # until the garbage collector runs.
    pending = deque()
    pool = ThreadPoolExecutor(workers)
    try:
        for item in items:
            pending.append(pool.submit(task, item))
            if len(pending) >= 2 * workers:
                yield pending.popleft().result()
        while pending:
            yield pending.popleft().result()
    finally:
        pool.shutdown(cancel_futures=True)


def usable_cpus() -> int:
    """CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def blas_threads() -> int | None:
    """Threads the OpenBLAS mapped into this process runs on now, or None.

    None when the count cannot be read: numpy uses another BLAS, or the
    platform has no /proc.  The count is asked of OpenBLAS on every call,
    since OpenBLAS settles the environment variables that set it and can
    change it at run time.
    """
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            fields = [line.split(maxsplit=5) for line in fh]
    except OSError:  # no /proc: not Linux
        return None
    libs = sorted({f[5].strip() for f in fields if len(f) == 6 and "openblas" in f[5].lower()})
    for lib in libs:
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in _OPENBLAS_GETTERS:
            getter = getattr(handle, symbol, None)
            if getter is not None:
                getter.argtypes = []
                getter.restype = ctypes.c_int
                return getter()
    return None
