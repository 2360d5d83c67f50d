import pytest

from perfbench import hostspeed


def test_factor_is_the_median_probe_over_the_reference():
    ref = hostspeed.REF_S
    assert hostspeed.factor([ref, 3 * ref, 2 * ref]) == pytest.approx(2.0)
    assert hostspeed.factor([ref / 2, ref / 2]) == pytest.approx(0.5)


def test_probe_returns_its_wall_time():
    assert 0.0 < hostspeed.probe() < 10.0
