"""A thread pool whose results come back in item order; grading sends
backend requests on it."""

from __future__ import annotations

from collections import deque
from concurrent.futures import ThreadPoolExecutor


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

