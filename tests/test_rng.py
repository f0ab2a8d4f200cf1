"""``substreams`` reimplements numpy's ``SeedSequence`` hash on arrays; these
tests pin it against numpy's own, so a change in numpy shows up here."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from selfnorm import SelfnormError
from selfnorm.rng import _rekey, _stream_keys, substream, substreams

INDICES = [0, 1, 2**32 - 1]


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**256 - 1),
       suffix=st.lists(st.integers(0, 2**100), max_size=2).map(tuple))
def test_keys_and_draws_match_seed_sequence(seed, suffix):
    keys = _stream_keys(seed, INDICES, *suffix)
    want = [np.random.SeedSequence(entropy=seed, spawn_key=(i, *suffix)).generate_state(2, np.uint64)
            for i in INDICES]
    assert keys.dtype == np.uint64 and keys.tolist() == np.array(want).tolist()
    for i, rng in zip(INDICES, substreams(seed, INDICES, *suffix)):
        reference = substream(seed, i, *suffix)
        assert rng.random(5).tolist() == reference.random(5).tolist()
        assert rng.standard_normal(3).tolist() == reference.standard_normal(3).tolist()
        assert rng.integers(0, 2**31, 3, dtype=np.uint32).tolist() == \
            reference.integers(0, 2**31, 3, dtype=np.uint32).tolist()


def test_a_stream_is_rekeyed_fresh():
    # each replica starts at counter 0 with an empty buffer, whatever the last
    # one drew before (here a 32-bit draw that leaves a spare half behind)
    drawn = []
    for rng in substreams(7, range(4), 2):
        drawn.append(rng.random(3).tolist())
        rng.integers(0, 10, dtype=np.uint32)
    assert drawn == [substream(7, i, 2).random(3).tolist() for i in range(4)]


def test_rekey_a_then_b_then_a_gives_a_twice():
    # _rekey writes one shared state dict: re-keying to B must not leave its
    # key behind for the next re-key to A
    (key_a, key_b) = _stream_keys(5, [3, 4]).tolist()
    gen = np.random.Generator(np.random.Philox(0))
    draws = []
    for key in (key_a, key_b, key_a):
        _rekey(gen, key)
        draws.append(gen.random(4).tolist())
    assert draws[0] == draws[2] == substream(5, 3).random(4).tolist()
    assert draws[1] == substream(5, 4).random(4).tolist()


def test_empty_indices():
    assert _stream_keys(3, []).shape == (0, 2)
    assert list(substreams(3, range(0))) == []


@pytest.mark.parametrize("indices", [[2**32], [-1], [0.5]])
def test_index_outside_one_word_is_refused(indices):
    # an index of 2^32 or more is two hash words; substream takes it, substreams refuses it
    with pytest.raises(SelfnormError):
        _stream_keys(1, indices)
    with pytest.raises(SelfnormError):
        next(substreams(1, indices))


def test_negative_seed_or_suffix_is_refused():
    with pytest.raises(SelfnormError):
        _stream_keys(-1, [0])
    with pytest.raises(SelfnormError):
        _stream_keys(1, [0], -2)
