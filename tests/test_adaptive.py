import pytest

from numacache.adaptive import AdaptiveConfig, AdaptiveState


def make(window=10, high=0.5, low=0.1, initial=True):
    return AdaptiveState(AdaptiveConfig(window_size=window, high_water=high,
                                        low_water=low, initial_bias=initial))


def feed(state, remote, total):
    toggle = None
    for i in range(total):
        t = state.record_miss(i < remote)
        if t is not None:
            toggle = t
    return toggle


def test_high_window_turns_bias_on():
    state = make(initial=False)
    assert feed(state, 6, 10) is True
    assert state.bias_enabled


def test_empty_window_turns_bias_off():
    state = make(initial=True)
    assert feed(state, 0, 10) is False
    assert not state.bias_enabled


def test_hysteresis_band_holds_state():
    for initial in (True, False):
        state = make(initial=initial)
        assert feed(state, 3, 10) is initial


def test_fresh_state_bias_on_by_default():
    assert make().bias_enabled


def test_two_high_windows_idempotent():
    state = make(initial=False)
    assert feed(state, 10, 10) is True
    assert feed(state, 10, 10) is True


def test_no_toggle_mid_window():
    state = make(initial=True)
    for _ in range(9):
        assert state.record_miss(False) is None
    assert state.bias_enabled  # unchanged until the boundary
    assert state.record_miss(False) is False


def test_counters_zero_after_boundary():
    state = make()
    feed(state, 4, 10)
    assert state.misses_in_window == 0
    assert state.remote_misses_in_window == 0


def test_boundary_comparisons_are_strict():
    # exactly at the high watermark -> hold
    state = make(initial=False)
    assert feed(state, 5, 10) is False
    # exactly at the low watermark -> hold
    state = make(initial=True)
    assert feed(state, 1, 10) is True


def test_window_fraction_history():
    state = make()
    feed(state, 4, 10)
    feed(state, 10, 10)
    assert state.window_fractions == [0.4, 1.0]


def test_invalid_config_rejected():
    with pytest.raises(ValueError):
        AdaptiveConfig(window_size=0)
    with pytest.raises(ValueError):
        AdaptiveConfig(high_water=0.1, low_water=0.5)
