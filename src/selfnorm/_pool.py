"""Replica blocks on at most one process pool per run, shared by
``experiments`` and ``diagnostics``: contiguous index ranges, and a pool that
runs one function over a list of tasks, in workers only when their work
repays them, and hands back the results in task order."""

from __future__ import annotations

# A submit's work is the values its tasks simulate or draw (path steps with
# their burn-in, series terms), plus _REPLICA_VALUES per replica for the Python
# work a replica pays whatever its length: a series replica on an empirical
# cluster costs about 3.6 us, the time of about 125 series terms (9 us, about
# 300 terms, when each replica mapped its own atom draws), so 400 is a
# generous charge that splits every bench size as before. A value costs
# about 30 ns, and a two-worker pool that is opened, used and closed adds about
# 40 ms of CPU to a run (11-15 ms of wall when empty), so _POOL_VALUES, about
# twice that fixed cost, is the least work that goes to the pool. A smaller
# submit costs less in the driver than the pool it would need.
_REPLICA_VALUES = 400
_POOL_VALUES = 3_000_000


def repays_pool(reps: int, values: int) -> bool:
    """Whether a submit of ``reps`` replicas of ``values`` values each repays a pool."""
    return reps * (values + _REPLICA_VALUES) >= _POOL_VALUES


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

    A submit runs its tasks in this process when it is submitted if the pool
    has one worker or the submit holds too little work to repay a worker
    (:func:`repays_pool`); no executor is made for it. Otherwise the executor
    opens on the first such submit and every task of it runs in a worker, a
    submit of one task too. Pooled
    tasks queue in submit order, so the caller can submit all of its pooled
    work, then compute in this process while the workers run it. On exit the
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

    def submit(self, fn, tasks, reps: int, values: int) -> Handle:
        """``fn`` over ``tasks``, which hold ``reps`` replicas of ``values``
        values each: in this process now unless they repay a pool, else queued
        on it."""
        if self.workers <= 1 or not repays_pool(reps, values):
            return Handle(results=[fn(t) for t in tasks])
        if self._executor is None:
            # imported on this branch only: a run without a pool never loads multiprocessing
            from concurrent.futures import ProcessPoolExecutor

            self._executor = ProcessPoolExecutor(max_workers=self.workers)
        return Handle(futures=[self._executor.submit(fn, t) for t in tasks])
