import numpy as np
import pytest

from biqa.rng import GAMMA, MASK64, SplitMix64, derive_seed, mix64_block, unit

from splitmix_oracle import ScalarSplitMix64, mix64


def test_mix64_known_values():
    # splitmix64 reference outputs for seed 0: mix64 applied to the
    # sequence seed + k*GAMMA, cross-checked against the published C code.
    expected = [
        0xE220A8397B1DCDAF,
        0x6E789E6AA1B965F4,
        0x06C45D188009454F,
    ]
    assert SplitMix64(0).next_u64_block(3).tolist() == expected
    oracle = ScalarSplitMix64(0)
    assert [oracle.next_u64() for _ in range(3)] == expected


def test_mix64_masks_input():
    # the oracle reduces its input mod 2**64, as a uint64 word is
    assert mix64(2**64 + 5) == mix64(5) == int(mix64_block(np.uint64(5)))
    assert mix64(MASK64) == int(mix64_block(np.uint64(MASK64)))


def test_mix64_block_equals_scalar():
    rng = ScalarSplitMix64(41)
    words = (
        [0, 1, MASK64, MASK64 - 1]
        + [(k * GAMMA) & MASK64 for k in range(1, 65)]
        + [rng.next_u64() for _ in range(500)]
    )
    block = mix64_block(np.array(words, dtype=np.uint64))
    assert block.dtype == np.uint64
    assert block.tolist() == [mix64(w) for w in words]


def test_counter_based_restart():
    first = SplitMix64(123).next_u64_block(10)
    assert np.array_equal(SplitMix64(123).next_u64_block(10), first)


def test_block_matches_scalar():
    a = ScalarSplitMix64(99)
    b = SplitMix64(99)
    scalar = np.array([a.next_u64() for _ in range(257)], dtype=np.uint64)
    block = b.next_u64_block(257)
    assert np.array_equal(scalar, block)
    assert a.counter == b.counter == 257


def test_block_continues_stream():
    a = SplitMix64(7)
    a.next_u64_block(5)
    b = ScalarSplitMix64(7)
    for _ in range(5):
        b.next_u64()
    assert a.next_u64_block(1).tolist() == [b.next_u64()]
    assert a.counter == b.counter == 6
    whole = SplitMix64(7).next_u64_block(9)
    assert np.array_equal(np.concatenate([whole[:6], a.next_u64_block(3)]), whole)


def test_uniform_block_matches_scalar():
    a = ScalarSplitMix64(13)
    b = SplitMix64(13)
    scalar = [a.uniform() for _ in range(300)]
    assert b.uniform_block(300).tolist() == scalar
    assert a.counter == b.counter == 300
    # unit() of one word is the same rule
    assert float(unit(SplitMix64(13).next_u64_block(1)[0])) == scalar[0]
    assert unit(np.array([0, MASK64], dtype=np.uint64)).tolist() == [0.0, 1.0 - 2.0**-53]


def test_uniform_range_and_determinism():
    u = SplitMix64(3).uniform_block(10_000)
    assert u.min() >= 0.0 and u.max() < 1.0
    assert abs(u.mean() - 0.5) < 0.02
    again = SplitMix64(3).uniform_block(10_000)
    assert np.array_equal(u, again)


def test_normal_block_matches_scalar():
    a = ScalarSplitMix64(11)
    b = SplitMix64(11)
    scalar = np.array([a.normal() for _ in range(100)])
    block = b.normal_block(100)
    assert np.allclose(scalar, block, rtol=0, atol=0)
    assert a.counter == b.counter == 200


def test_normal_block_moments():
    z = SplitMix64(5).normal_block(50_000)
    assert abs(z.mean()) < 0.02
    assert abs(z.std() - 1.0) < 0.02


def test_randbelow_bounds():
    # the oracle's randbelow is the word-mod-bound rule of sample_patches
    # and shuffle
    rng = ScalarSplitMix64(1)
    draws = [rng.randbelow(7) for _ in range(1000)]
    assert min(draws) == 0 and max(draws) == 6
    assert (SplitMix64(1).next_u64_block(1000) % 7).tolist() == draws
    with pytest.raises(ValueError):
        rng.randbelow(0)


def test_shuffle_is_permutation_and_deterministic():
    seq = list(range(50))
    rng = SplitMix64(17)
    rng.shuffle(seq)
    assert sorted(seq) == list(range(50))
    seq2 = list(range(50))
    SplitMix64(17).shuffle(seq2)
    assert seq == seq2
    assert seq != list(range(50))  # astronomically unlikely to be identity


@pytest.mark.parametrize("n", [0, 1, 2, 5, 240, 5000])
@pytest.mark.parametrize("offset", [0, 3])
def test_shuffle_matches_scalar(n, offset):
    a = ScalarSplitMix64(23)
    b = SplitMix64(23)
    for _ in range(offset):
        a.next_u64()
    b.next_u64_block(offset)
    scalar, block = list(range(n)), list(range(n))
    a.shuffle(scalar)
    b.shuffle(block)
    assert block == scalar
    # n-1 words, none for n <= 1
    assert a.counter == b.counter == offset + max(n - 1, 0)


def test_derive_seed_stable_and_label_sensitive():
    base = derive_seed(42, "data", "blurset")
    assert base == derive_seed(42, "data", "blurset")
    assert base != derive_seed(42, "data", "noiseset")
    assert base != derive_seed(43, "data", "blurset")
    assert derive_seed(0) != derive_seed(0, "")
    assert 0 <= base <= MASK64


def test_derive_seed_int_labels():
    assert derive_seed(1, 2, 3) == derive_seed(1, "2", "3")


@pytest.mark.parametrize("seeds", [[0, 99, MASK64, 2**63, 99], [41], []])
def test_lockstep_rows_are_single_streams(seeds):
    lock = SplitMix64(seeds)
    oracles = [ScalarSplitMix64(seed) for seed in seeds]
    blocks = [lock.next_u64_block(3), lock.uniform_block(5), lock.normal_block(4),
              lock.next_u64_block(1)]
    assert [b.shape for b in blocks] == [(len(seeds), n) for n in (3, 5, 4, 1)]
    for row, oracle in enumerate(oracles):
        assert blocks[0][row].tolist() == [oracle.next_u64() for _ in range(3)]
        assert blocks[1][row].tolist() == [oracle.uniform() for _ in range(5)]
        assert blocks[2][row].tolist() == [oracle.normal() for _ in range(4)]
        assert blocks[3][row].tolist() == [oracle.next_u64()]
        assert oracle.counter == lock.counter == 3 + 5 + 8 + 1


def test_gamma_is_odd():
    # an even increment would halve the period of the underlying Weyl sequence
    assert GAMMA % 2 == 1
