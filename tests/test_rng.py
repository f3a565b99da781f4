import random

import numpy as np
import pytest

from wigs.rng import (
    STREAMS,
    generator,
    iteration_states,
    member_states,
    spawn_states,
    state_generator,
)


def oracle_states(entropy, stream, index):
    return np.random.SeedSequence(entropy, spawn_key=(STREAMS[stream], index)).generate_state(
        4, np.uint64)


def oracle_child(seed, stream, index):
    return int(oracle_states(seed, stream, index)[0])


EDGE_ENTROPIES = [0, 1, 2**32 - 1, 2**32, 2**63, 2**64 - 1, 2**64, 2**64 + 5, 2**96 - 1,
                  2**127 + 17, 2**128 - 1]


class TestSpawnStatesMatchSeedSequence:
    def test_one_hundred_thousand_triples(self):
        """Every (entropy, stream, index) triple hashes to numpy's state words:
        entropies across every word count below 2**128, among them 2**64 - 1 + i
        and the edges, every stream, indices up to 2**32 - 1."""
        rng = np.random.default_rng(2026)
        draw = random.Random(2026)
        n = 100_000
        entropy = [draw.getrandbits(draw.choice([1, 31, 32, 33, 63, 64, 65, 96, 127, 128]))
                   for _ in range(n)]
        entropy[:len(EDGE_ENTROPIES)] = EDGE_ENTROPIES
        entropy[len(EDGE_ENTROPIES):len(EDGE_ENTROPIES) + 20] = [2**64 - 1 + i for i in range(20)]
        streams = rng.choice(list(STREAMS), size=n)
        index = rng.integers(0, 2**32, size=n, dtype=np.uint64)
        index[:1000] = rng.choice([0, 1, 2**31, 2**32 - 1], size=1000)
        assert max(entropy) < 2**128
        for stream in STREAMS:
            rows = np.flatnonzero(streams == stream)
            got = spawn_states([entropy[j] for j in rows], stream, index[rows])
            want = np.array([oracle_states(entropy[j], stream, int(index[j])) for j in rows])
            assert np.array_equal(got, want), stream

    def test_entropies_and_indices_that_change_the_layout_are_refused(self):
        with pytest.raises(ValueError, match="entropies in"):
            spawn_states([2**128], "cv", [0])
        with pytest.raises(ValueError, match="entropies in"):
            spawn_states([-1], "cv", [0])
        with pytest.raises(ValueError, match="indices in"):
            spawn_states([3], "cv", [2**32])
        with pytest.raises(ValueError, match="iterations in"):
            iteration_states([3], "cv", 2**32 - 1, 2**32 + 1)
        with pytest.raises(ValueError, match="entropies in"):
            iteration_states([2**130], "bootstrap", 0, 4, 10)


class TestIterationStates:
    @pytest.mark.parametrize("stream, members", [("cv", 1), ("bootstrap", 10)])
    def test_child_seed_scheme(self, stream, members):
        """Member i of iteration t is SeedSequence(child + i, (stream, 0)),
        child the first uint64 of SeedSequence(seed, (stream, t))."""
        seeds = [0, 7, 2**32, 2**64 - 3, 2**100 + 1]
        got = iteration_states(seeds, stream, 5, 12, members)
        assert got.shape == (5, 7, members, 4)
        for u, seed in enumerate(seeds):
            for j, t in enumerate(range(5, 12)):
                child = oracle_child(seed, stream, t)
                for i in range(members):
                    assert np.array_equal(got[u, j, i], oracle_states(child + i, stream, 0))

    def test_member_entropy_carries_past_two_to_the_64(self):
        children = np.array([2**64 - 1, 2**64 - 4, 2**64 - 10, 0, 2**32 - 1], dtype=np.uint64)
        got = member_states(children, "bootstrap", 10)
        for j, child in enumerate(children.tolist()):
            for i in range(10):
                assert np.array_equal(got[j, i], oracle_states(child + i, "bootstrap", 0))

    def test_empty_range(self):
        assert iteration_states([1, 2], "cv", 3, 3).shape == (2, 0, 1, 4)


class TestStateGenerator:
    def test_draws_match_the_seed_sequence_generator(self):
        """numpy's PCG64 seeded from the words draws what the generator of
        the SeedSequence they come from draws, for every draw the harness makes."""
        rng = np.random.default_rng(5)
        for _ in range(200):
            seed = int(rng.integers(0, 2**64, dtype=np.uint64))
            stream = str(rng.choice(list(STREAMS)))
            index = int(rng.integers(0, 2**32))
            ours = state_generator(spawn_states([seed], stream, [index])[0])
            theirs = generator(seed, stream, index)
            assert np.array_equal(ours.permutation(37), theirs.permutation(37))
            assert np.array_equal(ours.integers(0, 19, size=19), theirs.integers(0, 19, size=19))
            assert ours.standard_normal() == theirs.standard_normal()
            assert ours.bit_generator.state == theirs.bit_generator.state

    def test_iteration_generators_match_the_child_seed_path(self):
        words = iteration_states([11], "bootstrap", 0, 3, 4)
        for t in range(3):
            child = oracle_child(11, "bootstrap", t)
            for i in range(4):
                assert np.array_equal(state_generator(words[0, t, i]).integers(0, 50, size=50),
                                      generator(child + i, "bootstrap").integers(0, 50, size=50))
