"""One ordered fan-out over worker processes.

:func:`ordered_map` is the package's only process pool: sharded generation,
campaign scenarios and the directory sink's batches all run through it.  It
yields results in input order, whatever order the workers finish in, so a
caller's output is the same at every job count.
"""

from __future__ import annotations

import pickle
from concurrent.futures import ProcessPoolExecutor, wait
from typing import Any, Callable, Iterator, Sequence

__all__ = ["ordered_map"]

# The pool's context in a worker process, unpickled once by the initializer
# so each task ships only its item.
_CONTEXT: list = []


def _init_worker(blob: bytes) -> None:
    _CONTEXT[:] = [pickle.loads(blob)]


def _call_with_context(fn: Callable, item: Any) -> Any:
    return fn(_CONTEXT[0], item)


def ordered_map(
    fn: Callable,
    items: Sequence,
    jobs: int = 1,
    *,
    context: Any = None,
    on_wait: Callable[[list[bool]], None] | None = None,
    interval: float = 1.0,
) -> Iterator:
    """Yield ``fn(item)`` for every item, in input order.

    With one worker (``min(jobs, len(items)) == 1``) every item runs in the
    calling process, with no pickling and no child process.  Otherwise a
    per-call :class:`~concurrent.futures.ProcessPoolExecutor` of that many
    processes runs them.  A task's exception reaches the caller only after
    the pool has shut down, its queued tasks cancelled.

    Args:
        fn: a module-level function, so a pool can send it by reference.
        items: the work list.
        jobs: the most worker processes to use.
        context: an object every call needs, such as an image; when given,
            ``fn`` is called as ``fn(context, item)``.  A pool pickles it once
            and each worker unpickles it once, at start-up.
        on_wait: called every ``interval`` seconds while the next in-order
            result is pending, with one done flag per item.  Items that run
            in the calling process never wait.
        interval: seconds between ``on_wait`` calls.
    """
    if jobs < 1:
        raise ValueError("jobs must be at least 1")
    workers = min(jobs, len(items))
    if workers <= 1:
        for item in items:
            yield fn(item) if context is None else fn(context, item)
        return
    if context is None:
        pool = ProcessPoolExecutor(max_workers=workers)
        task, args = fn, ()
    else:
        pool = ProcessPoolExecutor(
            max_workers=workers, initializer=_init_worker, initargs=(pickle.dumps(context),)
        )
        task, args = _call_with_context, (fn,)
    try:
        futures = [pool.submit(task, *args, item) for item in items]
        for future in futures:
            if on_wait is not None:
                while not wait((future,), timeout=interval).done:
                    on_wait([other.done() for other in futures])
            yield future.result()
    finally:
        pool.shutdown(wait=True, cancel_futures=True)
