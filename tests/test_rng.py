from qspir.rng import Stream


def test_randint_beyond_32_bits_returns_in_range():
    q = 4294967311  # smallest prime above 2**32
    st = Stream(1, "wide")
    draws = [st.randint(q) for _ in range(20)]
    assert all(0 <= d < q for d in draws)
    assert len(set(draws)) == len(draws)
