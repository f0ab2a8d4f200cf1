"""Replica blocks on at most one process pool per run, shared by
``experiments`` and ``diagnostics``. A submit hands the pool one block
function ``fn(start, stop, *args)`` and its replica count; the pool alone
decides how the replicas are cut into blocks (one per worker, or one block
in the driver when the work does not repay a worker) and joins the blocks'
results back in replica order."""

from __future__ import annotations

import numpy as np

# A submit's work is the values its replicas simulate or draw (path steps with
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


def _join(blocks: list):
    """Blocks of per-replica results joined in replica order: one array, or
    a dict of arrays joined key by key."""
    if isinstance(blocks[0], dict):
        return {k: np.concatenate([b[k] for b in blocks]) for k in blocks[0]}
    return np.concatenate(blocks)


class Handle:
    """The joined result of one :meth:`Pool.submit`; ``result()`` waits for
    the blocks that are still running and joins them once."""

    def __init__(self, blocks=None, futures=()):
        self._result = None if blocks is None else _join(blocks)
        self._futures = futures

    def result(self):
        if self._result is None:
            self._result = _join([f.result() for f in self._futures])
        return self._result


class Pool:
    """One run's worker processes, used as a context manager.

    A submit runs as one block, ``fn(0, reps, *args)``, in this process when
    it is submitted if the pool has one worker or the submit holds too little
    work to repay a worker (:func:`repays_pool`); no executor is made for it.
    Otherwise the executor opens on the first such submit and the replicas
    are cut into one contiguous block per worker (:func:`partition`), each
    run in a worker, a submit of one block too. Pooled blocks queue in submit
    order, so the caller can submit all of its pooled work, then compute in
    this process while the workers run it. On exit the executor is shut down
    and its workers joined; after an error, blocks not yet started are
    cancelled first.
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

    def submit(self, fn, reps: int, values: int, *args) -> Handle:
        """``fn(start, stop, *args)`` over blocks that cover ``reps``
        replicas of ``values`` values each: one block in this process now
        unless they repay a pool, else one block per worker queued on it."""
        if self.workers <= 1 or not repays_pool(reps, values):
            return Handle(blocks=[fn(0, reps, *args)])
        if self._executor is None:
            # imported on this branch only: a run without a pool never loads multiprocessing
            from concurrent.futures import ProcessPoolExecutor

            self._executor = ProcessPoolExecutor(max_workers=self.workers)
        return Handle(futures=[self._executor.submit(fn, lo, hi, *args) for lo, hi in partition(reps, self.workers)])
