"""Replica blocks on a process pool, shared by ``experiments`` and
``diagnostics``: contiguous index ranges, and one function mapped over a
list of tasks with results in task order."""

from __future__ import annotations


def partition(reps: int, workers: int) -> list[tuple[int, int]]:
    """Contiguous replica index ranges, one per worker."""
    blocks = max(1, min(workers, reps))
    size = -(-reps // blocks)
    return [(lo, min(lo + size, reps)) for lo in range(0, reps, size)]


def run_tasks(fn, tasks, workers: int):
    """``fn`` over ``tasks``, results in task order: in this process, or on a pool."""
    if workers <= 1 or len(tasks) <= 1:
        return [fn(t) for t in tasks]
    # imported on this branch only: a run without a pool never loads multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, tasks))
