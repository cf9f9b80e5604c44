import numpy as np
import pytest

from tcpgen.rng import Stream, derive_seed, hash_bytes, mix64


def test_splitmix64_reference_first_output():
    # published splitmix64 recurrence, seed 0
    assert Stream(0).next_u64() == 0xE220A8397B1DCDAF


def test_splitmix64_reference_sequence():
    s = Stream(1234567)
    first = [s.next_u64() for _ in range(3)]
    # reference implementation of the same recurrence, inline
    state = 1234567
    expect = []
    for _ in range(3):
        state = (state + 0x9E3779B97F4A7C15) & ((1 << 64) - 1)
        expect.append(mix64(state))
    assert first == expect


def test_same_seed_same_doubles():
    a = Stream(42)
    b = Stream(42)
    xs = [a.uniform() for _ in range(1000)]
    ys = [b.uniform() for _ in range(1000)]
    assert xs == ys
    assert all(0.0 <= x < 1.0 for x in xs)


def test_different_seeds_diverge_quickly():
    a = Stream(1)
    b = Stream(2)
    assert any(a.uniform() != b.uniform() for _ in range(10))


def test_gauss_moments_and_determinism():
    xs = Stream(7).gauss_array((20000,))
    assert abs(xs.mean()) < 0.03
    assert abs(xs.std() - 1.0) < 0.03
    ys = Stream(7).gauss_array((20000,))
    assert np.array_equal(xs, ys)


def test_gauss_array_matches_scalar_calls():
    s = Stream(99)
    arr = s.gauss_array((5,))
    t = Stream(99)
    assert list(arr) == [t.gauss() for _ in range(5)]


def test_hash_bytes_and_derive_seed_deterministic():
    assert hash_bytes(3, b"abc") == hash_bytes(3, b"abc")
    assert hash_bytes(3, b"abc") != hash_bytes(3, b"abd")
    assert derive_seed(17, "feat", "train-0001") == derive_seed(17, "feat", "train-0001")
    assert derive_seed(17, "feat", "train-0001") != derive_seed(17, "feat", "train-0002")


def test_sample_and_shuffle_deterministic():
    s = Stream(5)
    picked = s.sample(range(100), 10)
    assert len(set(picked)) == 10
    assert sorted(s.sample(range(3), 10)) == [0, 1, 2]  # capped at pool size
    with pytest.raises(ValueError):
        Stream(1).sample([1, 2, 3, 4], -1)
    t = Stream(5)
    assert t.sample(range(100), 10) == picked
    items = list(range(20))
    Stream(6).shuffle(items)
    again = list(range(20))
    Stream(6).shuffle(again)
    assert items == again and sorted(items) == list(range(20))


def reference_sample(stream: Stream, seq, k: int) -> list:
    """Partial Fisher-Yates with one `randint` call per swap."""
    items = list(seq)
    k = min(k, len(items))
    for i in range(k):
        j = i + stream.randint(len(items) - i)
        items[i], items[j] = items[j], items[i]
    return items[:k]


def test_sample_matches_one_randint_per_swap():
    meta = Stream(7)
    cases = [(meta.next_u64(), meta.randint(40), meta.randint(45))
             for _ in range(300)]
    cases += [(0, 5100, 5000), ((1 << 64) - 1, 50, 50), (1 << 63, 7, 0)]
    for seed, n, k in cases:
        got, want = Stream(seed), Stream(seed)
        assert got.sample(range(n), k) == reference_sample(want, range(n), k)
        assert got.next_u64() == want.next_u64(), (seed, n, k)
