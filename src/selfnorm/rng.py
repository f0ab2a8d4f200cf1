"""Splittable, counter-based random streams.

Every sampler in the package draws from a Philox generator (Salmon et al.,
"Parallel random numbers: as easy as 1, 2, 3", SC'11) keyed by an experiment
seed plus an integer path, e.g. ``substream(seed, replica)``. The key is
numpy's ``SeedSequence(entropy=seed, spawn_key=path).generate_state(2,
uint64)``. Streams with distinct paths are statistically independent, and
results are reproducible regardless of how replicas are scheduled across
workers.

``substream`` builds one stream. ``substreams(seed, indices, *suffix)``
yields the streams ``(seed, i, *suffix)`` of many replicas, the same
streams bit for bit, at a fraction of the cost: it runs ``SeedSequence``'s
uint32 hash once over all indices as numpy array arithmetic (the seed's
words are mixed once, each index and suffix word on whole arrays) and
re-keys a single ``Generator(Philox)`` per replica (:func:`_rekey`: counter
0, buffer empty). Each stream it yields is that same object, so a caller
finishes with one stream before it takes the next; every call site draws one
replica's values in sequence. The path engine re-keys its generators with
the same helper.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from .errors import ConfigurationError

# numpy's SeedSequence hash (numpy/random/bit_generator.pyx), pool of 4 words
_MASK32 = 0xFFFFFFFF
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_XSHIFT = 16


def substream(seed: int, *path: int) -> np.random.Generator:
    """Return the Philox generator for ``(seed, *path)``.

    The same arguments always yield the same stream; distinct paths yield
    independent streams.
    """
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=tuple(int(p) for p in path))
    return np.random.Generator(np.random.Philox(ss))


def derive_seed(seed: int, *path: int) -> int:
    """A new top-level seed, deterministic in (seed, *path) and independent of
    the streams under any other derived seed.

    Used to give the two sides of a comparison (e.g. path statistics versus
    series draws) unrelated replica streams.
    """
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=tuple(int(p) for p in path))
    return int(ss.generate_state(1, np.uint64)[0])


def _words(value: int, what: str) -> list[int]:
    """The uint32 words of a non-negative integer, least significant first,
    as ``SeedSequence`` splits it (0 is one word)."""
    value = int(value)
    if value < 0:
        raise ConfigurationError(f"{what} must be a non-negative integer, got {value}")
    words = [value & _MASK32]
    while value > _MASK32:
        value >>= 32
        words.append(value & _MASK32)
    return words


class _Hash:
    """The running multiplier of ``SeedSequence.mix_entropy``. Its steps work
    alike on Python ints and on uint32 arrays, where products wrap mod 2^32."""

    def __init__(self):
        self.const = _INIT_A

    def __call__(self, value):
        value = value ^ self.const
        self.const = (self.const * _MULT_A) & _MASK32
        value = (value * self.const) & _MASK32
        return value ^ (value >> _XSHIFT)


def _mix(x, y):
    result = (((_MIX_MULT_L * x) & _MASK32) - ((_MIX_MULT_R * y) & _MASK32)) & _MASK32
    return result ^ (result >> _XSHIFT)


def _stream_keys(seed: int, indices, *suffix: int) -> np.ndarray:
    """Philox keys of the streams ``(seed, i, *suffix)`` for every ``i`` in
    ``indices``, shape ``(len(indices), 2)``: row ``r`` equals
    ``SeedSequence(entropy=seed, spawn_key=(indices[r], *suffix))
    .generate_state(2, np.uint64)``.

    An index must lie in [0, 2^32), so that it is one hash word;
    ``substream`` takes any larger one.
    """
    idx = np.asarray(indices).reshape(-1)
    if idx.size and (idx.dtype.kind not in "iu" or idx.min() < 0 or idx.max() > _MASK32):
        raise ConfigurationError("stream indices must be integers in [0, 2^32)")
    # the seed padded to the pool size, as SeedSequence does for any spawn key
    entropy = _words(seed, "seed")
    entropy += [0] * (_POOL_SIZE - len(entropy))
    hashmix = _Hash()
    # the pool depends on the seed alone: mixed once, in Python ints
    pool = [hashmix(w) for w in entropy[:_POOL_SIZE]]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    for word in entropy[_POOL_SIZE:]:
        pool = [_mix(p, hashmix(word)) for p in pool]
    # the index word, per replica, then the suffix words on the whole arrays
    idx = idx.astype(np.uint32)
    pool = [_mix(np.full(idx.shape, p, np.uint32), hashmix(idx)) for p in pool]
    for part in suffix:
        for word in _words(part, "stream path"):
            pool = [_mix(p, hashmix(word)) for p in pool]
    # generate_state(2, uint64): four output words, little-endian pairs
    const = _INIT_B
    out = []
    for p in pool:
        data = p ^ const
        const = (const * _MULT_B) & _MASK32
        data = (data * const) & _MASK32
        out.append((data ^ (data >> _XSHIFT)).astype(np.uint64))
    return np.stack([out[0] | (out[1] << 32), out[2] | (out[3] << 32)], axis=1)


# the state _rekey sets: only its key changes, and the Philox setter copies
# every value, so one dict serves every call
_START = {"bit_generator": "Philox", "state": {"counter": [0, 0, 0, 0], "key": [0, 0]},
          "buffer": [0, 0, 0, 0], "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}


def _rekey(gen: np.random.Generator, key) -> None:
    """Put ``gen``, a ``Generator(Philox)``, at the start of the stream with
    Philox key ``key`` (two uint64 words): counter 0, buffer empty, no spare
    32-bit half, as a fresh ``Philox`` is. The one writer of a Philox state."""
    _START["state"]["key"] = key
    gen.bit_generator.state = _START


def substreams(seed: int, indices, *suffix: int) -> Iterator[np.random.Generator]:
    """The streams ``substream(seed, i, *suffix)`` for ``i`` in ``indices``,
    in order and bit for bit.

    Every stream yielded is one ``Generator`` re-keyed: take all of a
    stream's draws before asking for the next.
    """
    gen = np.random.Generator(np.random.Philox(0))
    for key in _stream_keys(seed, indices, *suffix).tolist():
        _rekey(gen, key)
        yield gen
