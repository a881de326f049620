import pytest

from numacache.address_map import TopologyConfig
from numacache.coherence import CoherenceSystem
from numacache.engine import PolicyConfig, PolicyKind, run

TOPO = TopologyConfig(num_sockets=2, llc_sets=4, llc_assoc=4,
                      line_size_bytes=64, address_width=32)
CFG = PolicyConfig(PolicyKind.BIASED_ADAPTIVE, window_size=10, high_water=0.5,
                   low_water=0.1)


def on(socket, kinds):
    """Steps of one socket, one per character of `kinds` (see `trace`)."""
    return [(socket, kind) for kind in kinds]


def trace(steps):
    """One record per (socket, kind) step.

    Kind "r" reads a fresh line homed at the other socket (a remote-DRAM
    miss), "l" a fresh line homed at the reader (a local-DRAM miss), "w"
    writes a fresh line homed at the writer (a local-DRAM miss), "c" reads
    the other socket's last line (a remote C2C miss after its "w"), and "h"
    reads the socket's last line again (a hit).
    """
    records, last = [], {}
    for seq, (socket, kind) in enumerate(steps):
        if kind == "c":
            last[socket] = last[1 - socket]
        elif kind != "h":
            home = 1 - socket if kind == "r" else socket
            last[socket] = home << 31 | seq << 6
        op = "W" if kind == "w" else "R"
        records.append((socket, 0, op, last[socket]))
    return records


def simulate(steps, cfg=CFG, kind=PolicyKind.BIASED_ADAPTIVE, *, initial=None):
    if initial is not None:
        cfg = cfg._replace(initial_bias=initial)
    return run(trace(steps), TOPO, cfg._replace(kind=kind))


@pytest.fixture
def flags(monkeypatch):
    """The bias flag each access ran with, in trace order: its socket's
    entry of `simulate`'s `bias`, read before the access runs alone."""
    seen, simulate = [], CoherenceSystem.simulate

    def spy(self, accesses, counts, bias, *state):
        for access in accesses:
            seen.append(bias[access[0]])
            simulate(self, (access,), counts, bias, *state)

    monkeypatch.setattr(CoherenceSystem, "simulate", spy)
    return seen


class TestWatermarks:
    def test_high_fraction_turns_bias_on(self):
        assert CFG.bias_after(0.6, False) is True
        assert CFG.bias_after(1.0, True) is True  # idempotent

    def test_low_fraction_turns_bias_off(self):
        assert CFG.bias_after(0.0, True) is False
        assert CFG.bias_after(0.0, False) is False

    def test_hysteresis_band_holds_state(self):
        for bias in (True, False):
            for fraction in (0.1, 0.3, 0.5):
                assert CFG.bias_after(fraction, bias) is bias

    def test_comparisons_are_strict(self):
        # exactly at the high watermark: hold off; just above: on
        assert CFG.bias_after(0.5, False) is False
        assert CFG.bias_after(0.5 + 1e-9, False) is True
        # exactly at the low watermark: hold on; just below: off
        assert CFG.bias_after(0.1, True) is True
        assert CFG.bias_after(0.1 - 1e-9, True) is False


class TestConfig:
    def test_bias_on_by_default(self, flags):
        assert PolicyConfig().initial_bias
        simulate(on(0, "l"), PolicyConfig())
        assert flags == [True]

    def test_invalid_config_rejected(self):
        with pytest.raises(ValueError, match="window_size must be >= 1"):
            PolicyConfig(window_size=0)
        with pytest.raises(ValueError):
            PolicyConfig(high_water=0.1, low_water=0.5)

    @pytest.mark.parametrize("window", [2.5, 4.0, True, False, "8", None])
    def test_window_size_must_be_an_int(self, window):
        with pytest.raises(ValueError, match="^window_size must be an int, got "):
            PolicyConfig(window_size=window)

    def test_checked_fields_cannot_change_later(self):
        with pytest.raises(AttributeError):
            CFG.window_size = 2.5


class TestWindows:
    def test_window_closes_at_its_last_miss(self, flags):
        stats = simulate(on(0, "rrrrrrllll" + "l"), initial=False)
        assert stats.window_fractions == [[0.6], []]
        # the toggle carries the index of the record that closed the window
        assert stats.adaptive_toggles == [(9, 0, True)]
        # every record of the window ran with the old flag, the next with the new
        assert flags == [False] * 10 + [True]

    def test_no_toggle_before_the_boundary(self, flags):
        stats = simulate(on(0, "r" * 9), initial=False)
        assert stats.window_fractions == [[], []]
        assert stats.adaptive_toggles == []
        assert flags == [False] * 9

    def test_fresh_counts_after_each_window(self):
        stats = simulate(on(0, "rrrrllllll" + "r" * 10 + "l" * 10), initial=False)
        assert stats.window_fractions == [[0.4, 1.0, 0.0], []]
        assert stats.adaptive_toggles == [(19, 0, True), (29, 0, False)]

    def test_two_high_windows_toggle_once(self):
        stats = simulate(on(0, "r" * 20), initial=False)
        assert stats.window_fractions == [[1.0, 1.0], []]
        assert stats.adaptive_toggles == [(9, 0, True)]

    def test_hits_do_not_advance_the_window(self):
        stats = simulate(on(0, "l" + "h" * 20 + "l" * 9))
        assert stats.window_fractions == [[0.0], []]
        assert stats.adaptive_toggles == [(29, 0, False)]

    def test_other_sockets_misses_do_not_advance_the_window(self):
        # socket 1's nine remote misses neither close socket 0's window
        # nor count in its fraction
        steps = []
        for _ in range(9):
            steps += on(0, "l") + on(1, "r")
        stats = simulate(steps + on(0, "l"))
        assert stats.window_fractions == [[0.0], []]
        assert stats.adaptive_toggles == [(18, 0, False)]

    def test_c2c_only_leaves_remote_dram_out(self):
        # socket 0 misses five times on lines socket 1 has just written
        # (remote C2C) and five times on remote-home lines (remote DRAM)
        steps = []
        for _ in range(5):
            steps += on(1, "w") + on(0, "c")
        steps += on(0, "rrrrr")
        for count_remote_dram, fraction in ((True, 1.0), (False, 0.5)):
            cfg = CFG._replace(count_remote_dram=count_remote_dram)
            stats = simulate(steps, cfg)
            assert stats.to_dict()["per_socket"][0]["misses_by_source"] == {
                "remote_c2c": 5, "local_dram": 0, "remote_dram": 5}
            assert stats.window_fractions == [[fraction], []]

    @pytest.mark.parametrize("kind, bias", [(PolicyKind.LRU_ONLY, False),
                                            (PolicyKind.BIASED_ALWAYS, True)])
    def test_only_adaptive_lets_the_window_steer(self, flags, kind, bias):
        # the windows are counted and toggled under every policy kind
        stats = simulate(on(0, "l" * 11), kind=kind)
        assert stats.adaptive_toggles == [(9, 0, False)]
        assert flags == [bias] * 11
