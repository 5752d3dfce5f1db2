import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orichrome import rng as rng_module
from orichrome.rng import SplitMix64

BATCH = rng_module._LANES


@pytest.mark.parametrize(
    "count", [0, 1, 2, 1000, BATCH - 1, BATCH, 2 * BATCH + 3, 3 * BATCH, 3 * BATCH + 1, 4 * BATCH + 7]
)
# -golden and -BATCH * golden give draw 1 and draw BATCH the state 0, so the
# lane states wrap past 2^64 within the first batch and at its step
@pytest.mark.parametrize(
    "seed", [0, 7, 2**64 - 1, -rng_module._GOLDEN % 2**64, -BATCH * rng_module._GOLDEN % 2**64]
)
def test_coin_bits_equals_coin_calls(seed, count):
    draws, batch = SplitMix64(seed), SplitMix64(seed)
    expected = sum(draws.coin() << i for i in range(count))
    assert batch.coin_bits(count) == expected
    assert batch.state == draws.state
    assert batch.next_u64() == draws.next_u64()


@settings(deadline=None, max_examples=40)
@given(st.integers(min_value=0, max_value=2**64 - 1), st.lists(st.integers(0, 40), max_size=4))
def test_coin_bits_calls_chain(seed, counts):
    # consecutive calls continue one stream, as consecutive coin() calls do
    draws, batch = SplitMix64(seed), SplitMix64(seed)
    for count in counts:
        assert batch.coin_bits(count) == sum(draws.coin() << i for i in range(count))
    assert batch.state == draws.state

