"""Unit tests for detection-threshold selection."""

import numpy as np
import pytest

from repro.core.thresholds import PAPER_EPSILON, recommend_epsilon
from repro.stencil.kernels import five_point_diffusion


def test_paper_epsilon_value():
    assert PAPER_EPSILON == 1e-5


def test_float32_paper_scale_reproduces_paper_threshold():
    eps = recommend_epsilon((64, 64, 8), 0, np.float32)
    assert eps >= PAPER_EPSILON
    assert eps < 1e-3


def test_float64_threshold_much_tighter():
    eps32 = recommend_epsilon((64, 64), 0, np.float32)
    eps64 = recommend_epsilon((64, 64), 0, np.float64)
    assert eps64 < eps32
    assert eps64 < 1e-9


def test_threshold_grows_with_domain_size():
    small = recommend_epsilon((16, 16), 0, np.float64)
    large = recommend_epsilon((4096, 4096), 0, np.float64)
    assert large > small


def test_threshold_grows_with_period():
    p1 = recommend_epsilon((64, 64), 0, np.float64, period=1)
    p16 = recommend_epsilon((64, 64), 0, np.float64, period=16)
    assert p16 > p1


def test_threshold_accounts_for_weight_amplification():
    small_weights = five_point_diffusion(0.1)
    big_weights = small_weights.scaled(50.0)
    eps_small = recommend_epsilon((64, 64), 0, np.float64, spec=small_weights)
    eps_big = recommend_epsilon((64, 64), 0, np.float64, spec=big_weights)
    assert eps_big > eps_small


def test_floor_is_respected():
    # Extended precision puts the raw estimate below the 1e-14 floor
    # where long double is wider than float64.
    eps = recommend_epsilon((4, 4), 0, np.longdouble)
    assert eps >= 1e-14


def test_invalid_axis_rejected():
    with pytest.raises(ValueError):
        recommend_epsilon((8, 8), 3, np.float32)


def test_invalid_period_rejected():
    with pytest.raises(ValueError):
        recommend_epsilon((8, 8), 0, np.float32, period=0)
