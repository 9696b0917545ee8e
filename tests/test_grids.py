"""Grid constructors: the checks that reject a bad grid."""

from __future__ import annotations

import warnings

import numpy as np
import pytest

from growthcomp import Grid


@pytest.mark.parametrize("x_lo, x_hi, n", [(1.0, 1.0, 8), (2.0, 1.0, 8),
                                           (0.0, 1.0, 1), (0.0, 1.0, 0),
                                           (0.0, np.nan, 8), (np.nan, 1.0, 8)])
def test_geometric_log_rejects_a_bad_grid(x_lo, x_hi, n):
    with pytest.raises(ValueError):
        Grid.geometric_log(x_lo, x_hi, n)


@pytest.mark.parametrize("t_min", [0.0, -1.0])
def test_geometric_rejects_t_min_before_the_log(t_min):
    # log(0) and log(-1) would warn; the check comes first, so nothing does
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="0 < t_min < t_max"):
            Grid.geometric(t_min, 10.0, 8)


def test_geometric_is_geometric_log_of_the_logs():
    a = Grid.geometric(1e-3, 1e9, 64).log_t
    b = Grid.geometric_log(np.log(1e-3), np.log(1e9), 64).log_t
    assert np.array_equal(a, b)
