"""The reference kernel and the scale it gives."""

import pytest

from hostspeed import REFERENCE_S, HostClock


def test_call_scales_by_the_kernel_times_around_it():
    clock = HostClock()
    clock.kernel_s = [0.1]
    result, wall, scale = clock.call(sum, [1, 2])
    assert result == 3
    assert wall >= 0.0
    assert len(clock.kernel_s) == 2
    assert scale == pytest.approx(2 * REFERENCE_S / (0.1 + clock.kernel_s[1]))
