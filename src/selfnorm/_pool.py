"""Replica blocks on one process pool per run, shared by ``experiments`` and
``diagnostics``: contiguous index ranges, and a pool that runs one function
over a list of tasks and hands back the results in task order."""

from __future__ import annotations


def partition(reps: int, workers: int) -> list[tuple[int, int]]:
    """Contiguous replica index ranges, one per worker."""
    blocks = max(1, min(workers, reps))
    size = -(-reps // blocks)
    return [(lo, min(lo + size, reps)) for lo in range(0, reps, size)]


class Handle:
    """The results of one :meth:`Pool.submit`, in task order; ``result()``
    waits for the tasks that are still running."""

    def __init__(self, results=None, futures=()):
        self._results = results
        self._futures = futures

    def result(self) -> list:
        if self._results is None:
            self._results = [f.result() for f in self._futures]
        return self._results


class Pool:
    """One run's worker processes, used as a context manager.

    With one worker every task runs in this process when it is submitted,
    and no executor is made. With more, the executor opens on the first
    submit and every task runs in a worker, a submit of one task too. Tasks
    queue in submit order, so the caller can submit all of its pooled work,
    then compute in this process while the workers run it. On exit the
    executor is shut down and its workers joined; after an error, tasks not
    yet started are cancelled first.
    """

    def __init__(self, workers: int):
        self.workers = workers
        self._executor = None

    def __enter__(self) -> "Pool":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if self._executor is not None:
            self._executor.shutdown(wait=True, cancel_futures=exc_type is not None)
            self._executor = None

    def submit(self, fn, tasks) -> Handle:
        """``fn`` over ``tasks``: in this process now at one worker, else queued on the pool."""
        if self.workers <= 1:
            return Handle(results=[fn(t) for t in tasks])
        if self._executor is None:
            # imported on this branch only: a run without a pool never loads multiprocessing
            from concurrent.futures import ProcessPoolExecutor

            self._executor = ProcessPoolExecutor(max_workers=self.workers)
        return Handle(futures=[self._executor.submit(fn, t) for t in tasks])
