import pytest

from perfbench import stats


def test_median_odd_even_empty():
    assert stats.median([3.0, 1.0, 2.0]) == 2.0
    assert stats.median([4.0, 1.0, 2.0, 3.0]) == 2.5
    assert stats.median([]) is None


@pytest.mark.parametrize("wanted", [0.9, 0.99, 0.999])
def test_no_tail_without_ten_samples_beyond(wanted):
    for n in range(0, 400):
        values = [float(v) for v in range(n)]
        p = stats.tail(values, wanted)
        if p is None:
            # only when even the highest rank with ten beyond is not above the median
            assert n <= 2 * stats.MIN_BEYOND
            continue
        beyond = sum(1 for v in values if v > p.value)
        assert beyond >= stats.MIN_BEYOND
        assert 0.5 < p.used <= wanted
        assert p.n == n
        if n * (1 - wanted) >= stats.MIN_BEYOND:
            assert p.used == wanted


def test_tail_rank_is_nearest_rank():
    values = list(range(1, 101))  # 100 samples
    assert stats.tail(values, 0.90).value == 90  # ten samples beyond
    degraded = stats.tail(values, 0.99)
    assert degraded.value == 90 and degraded.used == pytest.approx(0.90)


def test_tail_rejects_non_tail_ranks():
    with pytest.raises(ValueError):
        stats.tail([1.0] * 50, 0.5)


def test_linear_fit_recovers_plane():
    xs = [(p, d) for p in range(5) for d in range(4)]
    ys = [2.0 + 0.5 * p + 3.0 * d for p, d in xs]
    (c0, c1, c2), resid = stats.linear_fit(xs, ys)
    assert (c0, c1, c2) == pytest.approx((2.0, 0.5, 3.0))
    assert resid == pytest.approx(0.0, abs=1e-9)


def test_linear_fit_underdetermined():
    assert stats.linear_fit([(1.0,), (1.0,), (1.0,)], [1.0, 2.0, 3.0]) is None
    assert stats.linear_fit([], []) is None
