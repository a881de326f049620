"""Windowed remote-miss-fraction tracking that toggles the replacement bias.

The window is measured in LLC misses, so the fraction always has a nonzero
denominator. The bias turns on strictly above the high watermark, off
strictly below the low watermark, and holds in between (hysteresis).
"""

from dataclasses import dataclass, field
from typing import Optional


@dataclass
class AdaptiveConfig:
    window_size: int = 1024
    high_water: float = 0.5
    low_water: float = 0.1
    initial_bias: bool = True
    # remote miss = any remote service (c2c or remote DRAM); set False to
    # count only cache-to-cache supplies
    count_remote_dram: bool = True

    def __post_init__(self):
        if self.window_size < 1:
            raise ValueError("window_size must be >= 1")
        if not 0.0 <= self.low_water <= self.high_water:
            raise ValueError("need 0 <= low_water <= high_water")


@dataclass
class AdaptiveState:
    cfg: AdaptiveConfig
    misses_in_window: int = 0
    remote_misses_in_window: int = 0
    bias_enabled: bool = field(init=False)
    window_fractions: list = field(default_factory=list)

    def __post_init__(self):
        self.bias_enabled = self.cfg.initial_bias

    def record_miss(self, is_remote: bool) -> Optional[bool]:
        """Count one miss; at a window boundary apply the watermarks and
        return the (possibly unchanged) bias flag, else None."""
        self.misses_in_window += 1
        if is_remote:
            self.remote_misses_in_window += 1
        if self.misses_in_window < self.cfg.window_size:
            return None
        fraction = self.remote_misses_in_window / self.misses_in_window
        self.window_fractions.append(fraction)
        if fraction > self.cfg.high_water:
            self.bias_enabled = True
        elif fraction < self.cfg.low_water:
            self.bias_enabled = False
        self.misses_in_window = 0
        self.remote_misses_in_window = 0
        return self.bias_enabled
