"""Seed derivation for reproducible randomness.

Every stochastic operation in this package draws from numpy's PCG64
generator, seeded through a single documented scheme: a replication is
identified by one 64-bit seed, and each consumer of randomness inside that
replication (the initial split, cross-validation folds, bootstrap
resamples, ...) gets its own named stream.  A stream is derived as

    SeedSequence(entropy=seed, spawn_key=(STREAM_ID, index))

so results never depend on the order in which consumers happen to draw.
The ``index`` slot separates repeated uses of the same stream (e.g. the
cross-validation shuffle at iteration t uses index=t).

The streams a run uses at every iteration, the CV shuffle and the
bootstrap members, go through a 64-bit child seed: iteration t of a
stream has the child, the first uint64 of

    SeedSequence(entropy=seed, spawn_key=(STREAM_ID, t)).generate_state(1, np.uint64)

and member i of that iteration (the CV shuffle is member 0) draws from

    SeedSequence(entropy=child + i, spawn_key=(STREAM_ID, 0)).

``iteration_states`` derives those for many seeds and iterations in one
pass: it runs SeedSequence's hash (O'Neill's seed_seq_fe) over an array of
entropy words, every step one ufunc call for all the streams, and returns
the same four uint64 state words as numpy; ``state_generator`` seeds
numpy's own PCG64 from them.  numpy's SeedSequence stays the path of the
one-off streams (``generator``) and the oracle of the batched one.
"""

from __future__ import annotations

import numpy as np

# Stream identifiers are frozen; changing them changes every result.
STREAMS = {
    "split": 0,
    "cv": 1,
    "bootstrap": 2,
    "sac": 3,
    "passive": 4,
    "egal": 5,
    "dgp": 6,
}


def seed_sequence(seed: int, stream: str, index: int = 0) -> np.random.SeedSequence:
    """Deterministic child SeedSequence for (seed, stream, index)."""
    return np.random.SeedSequence(entropy=int(seed), spawn_key=(STREAMS[stream], int(index)))


def generator(seed: int, stream: str, index: int = 0) -> np.random.Generator:
    """PCG64 generator for the given stream of a replication seed."""
    return np.random.Generator(np.random.PCG64(seed_sequence(seed, stream, index)))


# SeedSequence's hash constants (numpy/random/bit_generator.pyx).  An entropy
# below 2**128 with a spawn key is zero-padded to the 4-word pool, and a
# (stream, index) key below 2**32 adds one word each: every stream here
# hashes 6 words, 24 mixing steps, then 8 output steps for 4 uint64 words.
_POOL = 4
_MASK = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)


def _constants(init: int, mult: int, steps: int) -> tuple[list[int], list[int]]:
    """The constant each of ``steps`` hash steps xors in, and the one it
    multiplies by: the running constant before and after its update."""
    xors, mults, c = [], [], init
    for _ in range(steps):
        xors.append(c)
        c = c * mult & _MASK
        mults.append(c)
    return xors, mults


_XA, _MA = _constants(_INIT_A, _MULT_A, _POOL + _POOL * (_POOL - 1) + 2 * _POOL)
_XB, _MB = _constants(_INIT_B, _MULT_B, 2 * _POOL)
_OTHERS = [np.array([d for d in range(_POOL) if d != s]) for s in range(_POOL)]
_SOURCE_OF_OUTPUT = np.arange(2 * _POOL) % _POOL


def _hashmix(values: np.ndarray, xors: np.ndarray, mults: np.ndarray) -> np.ndarray:
    """seed_seq_fe's hashmix of ``values`` at the steps whose constants
    broadcast against them, all steps in one set of ufunc calls."""
    h = values ^ xors
    h *= mults
    h ^= h >> 16
    return h


def _mix(x: np.ndarray, h: np.ndarray) -> np.ndarray:
    """seed_seq_fe's mix of the hashed words ``h`` into the pool words ``x``."""
    r = x * _MIX_L
    r -= h * _MIX_R
    r ^= r >> 16
    return r


def _steps(xors: list[int], mults: list[int], start: int, count: int):
    """The constants of ``count`` steps from ``start``, as uint32 columns."""
    return tuple(np.array(c[start:start + count], dtype=np.uint32)[:, None] for c in (xors, mults))


# (xors, mults) columns: the first mix of the pool words, the 3 steps that
# mix each pool word into the others, the 4 steps of each spawn word, output
_FIRST = _steps(_XA, _MA, 0, _POOL)
_CROSS = [_steps(_XA, _MA, _POOL + 3 * s, 3) for s in range(_POOL)]
_SPAWN = [_steps(_XA, _MA, start, _POOL) for start in (4 * _POOL, 5 * _POOL)]
_OUTPUT = _steps(_XB, _MB, 0, 2 * _POOL)


def _hash(entropy: np.ndarray, stream: int, index: np.ndarray, words: int) -> np.ndarray:
    """The first ``words`` uint64 state words (1 to 4) of every row's
    SeedSequence(entropy, spawn_key=(stream, index)): ``entropy`` (n, 4)
    uint32 little-endian words, ``index`` (n,) or, the same for all, (1,) uint32."""
    pool = _hashmix(entropy.T, *_FIRST)                   # (4, n)
    for src in range(_POOL):
        # the pool word src into each other word, at 3 consecutive steps
        others = _OTHERS[src]
        pool[others] = _mix(pool[others], _hashmix(pool[src], *_CROSS[src]))
    for key, steps in zip((np.array([stream], dtype=np.uint32), index), _SPAWN):
        pool = _mix(pool, _hashmix(key, *steps))
    n = 2 * words
    out = _hashmix(pool[_SOURCE_OF_OUTPUT[:n]], _OUTPUT[0][:n], _OUTPUT[1][:n])
    # pairs of little-endian uint32 words, as generate_state(.., np.uint64) joins them
    return np.ascontiguousarray(out.T, dtype="<u4").view("<u8").astype(np.uint64, copy=False)


def _entropy_words(values) -> np.ndarray:
    """(n, 4) uint32: each integer in [0, 2**128) as little-endian words,
    zero-padded to the pool as SeedSequence pads an entropy with a spawn key."""
    try:
        raw = b"".join(int(v).to_bytes(4 * _POOL, "little") for v in values)
    except OverflowError:
        raise ValueError("the batched derivation takes entropies in [0, 2**128)") from None
    return np.frombuffer(raw, dtype="<u4").astype(np.uint32).reshape(-1, _POOL)


def spawn_states(entropy, stream: str, index) -> np.ndarray:
    """(n, 4) uint64: row j is

        SeedSequence(entropy[j], spawn_key=(STREAMS[stream], index[j])).generate_state(4, np.uint64)

    for n entropies in [0, 2**128) and indices in [0, 2**32) (ValueError
    otherwise: a larger one changes the word layout)."""
    index = np.asarray(index)
    if index.size and not (index.min() >= 0 and index.max() <= _MASK):
        raise ValueError("the batched derivation takes indices in [0, 2**32)")
    return _hash(_entropy_words(entropy), STREAMS[stream], index.astype(np.uint32), 4)


def member_states(children: np.ndarray, stream: str, members: int) -> np.ndarray:
    """(n, members, 4) uint64: the state words of

        SeedSequence(children[j] + i, spawn_key=(STREAMS[stream], 0))

    for n uint64 ``children`` and i < members; the entropy children[j] + i
    carries into its third word when it passes 2**64."""
    children = np.asarray(children, dtype=np.uint64).reshape(-1, 1)
    low = children + np.arange(members, dtype=np.uint64)      # wraps at 2**64
    words = np.zeros((low.size, _POOL), dtype=np.uint32)
    words[:, :2] = low.astype("<u8").view("<u4").reshape(-1, 2)
    words[:, 2] = (low < children).ravel()
    index = np.zeros(1, dtype=np.uint32)
    return _hash(words, STREAMS[stream], index, 4).reshape(len(children), members, 4)


def iteration_states(seeds, stream: str, start: int, stop: int, members: int = 1) -> np.ndarray:
    """(len(seeds), stop - start, members, 4) uint64: the state words of
    member i of iteration t of ``stream`` for every seed, t in [start, stop)
    and i < members, as the module docstring derives them."""
    if not 0 <= start <= stop <= _MASK + 1:
        raise ValueError("the batched derivation takes iterations in [0, 2**32)")
    n_iterations = stop - start
    entropy = np.repeat(_entropy_words(seeds), n_iterations, axis=0)
    index = np.tile(np.arange(start, stop, dtype=np.uint32), len(seeds))
    children = _hash(entropy, STREAMS[stream], index, 1)
    return member_states(children, stream, members).reshape(len(seeds), n_iterations, members, 4)


class _StateWords:
    """A seed sequence whose state is precomputed: numpy's PCG64 asks it for
    four uint64 words and seeds itself from them as from a SeedSequence."""

    __slots__ = ("words",)
    registered = False

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words: int, dtype=np.uint32) -> np.ndarray:
        if n_words != len(self.words) or np.dtype(dtype) != np.uint64:
            raise ValueError("precomputed state words are four uint64 words")
        return self.words


def state_generator(words: np.ndarray) -> np.random.Generator:
    """numpy's PCG64 generator seeded from four uint64 state words, such as
    a row of ``spawn_states`` or ``iteration_states``: the generator that
    the SeedSequence those words come from seeds."""
    if not _StateWords.registered:
        # numpy.random loads on first use; importing it with wigs would load
        # its Cython modules for every import of the package.
        np.random.bit_generator.ISeedSequence.register(_StateWords)
        _StateWords.registered = True
    return np.random.Generator(np.random.PCG64(_StateWords(words)))
