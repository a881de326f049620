"""The watermarks that toggle the replacement bias, once per window.

The window is measured in LLC misses, so the fraction always has a nonzero
denominator; `engine.run` counts each socket's windows. The bias turns on
strictly above the high watermark, off strictly below the low watermark,
and holds in between (hysteresis).
"""

from typing import NamedTuple

from .address_map import checked


@checked
class AdaptiveConfig(NamedTuple):
    window_size: int = 1024
    high_water: float = 0.5
    low_water: float = 0.1
    initial_bias: bool = True
    # remote miss = any remote service (c2c or remote DRAM); set False to
    # count only cache-to-cache supplies
    count_remote_dram: bool = True

    def _check(self) -> None:
        if self.window_size < 1:
            raise ValueError("window_size must be >= 1")
        if not 0.0 <= self.low_water <= self.high_water:
            raise ValueError("need 0 <= low_water <= high_water")

    def bias_after(self, fraction: float, bias: bool) -> bool:
        """The bias flag after a window whose remote-miss fraction is
        `fraction`, given the flag `bias` it ran with."""
        if fraction > self.high_water:
            return True
        if fraction < self.low_water:
            return False
        return bias
