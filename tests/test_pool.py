"""The one split and join of replica blocks: a submit's blocks cover its
replicas once, and its result comes back joined in replica order, in the
driver and in workers alike."""

import numpy as np
import pytest

from selfnorm._pool import Pool

REPS = 7


def _arange(start, stop):
    return np.arange(start, stop)


def _aranges(start, stop):
    return {"up": np.arange(start, stop), "down": -np.arange(start, stop)}


@pytest.mark.parametrize("workers", [1, 2, 3])
@pytest.mark.parametrize("forced", [False, True], ids=["driver", "forced"])
def test_blocks_join_in_replica_order(request, workers, forced):
    if forced:
        request.getfixturevalue("forced_pool")
    with Pool(workers) as pool:
        array = pool.submit(_arange, REPS, 1).result()
        arrays = pool.submit(_aranges, REPS, 1).result()
    assert array.tolist() == list(range(REPS))
    assert list(arrays) == ["up", "down"]
    assert arrays["up"].tolist() == list(range(REPS))
    assert arrays["down"].tolist() == [-i for i in range(REPS)]


def test_driver_submit_is_one_block():
    calls = []

    def block(start, stop, tag):
        calls.append((start, stop, tag))
        return np.arange(start, stop)

    # too little work to repay a worker: one block in this process, at two workers too
    with Pool(2) as pool:
        got = pool.submit(block, REPS, 1, "x").result()
    assert calls == [(0, REPS, "x")]
    assert got.tolist() == list(range(REPS))
