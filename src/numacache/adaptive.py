"""The watermarks that toggle the replacement bias, once per window.

The window is measured in LLC misses, so the fraction always has a nonzero
denominator; `engine.run` counts each socket's windows. The bias turns on
strictly above the high watermark, off strictly below the low watermark,
and holds in between (hysteresis).
"""

import math
from typing import NamedTuple

from .address_map import Checked, ConfigError, check_ints


class _AdaptiveFields(NamedTuple):
    window_size: int = 1024
    high_water: float = 0.5
    low_water: float = 0.1
    initial_bias: bool = True
    # remote miss = any remote service (c2c or remote DRAM); set False to
    # count only cache-to-cache supplies
    count_remote_dram: bool = True


class AdaptiveConfig(Checked, _AdaptiveFields):
    __slots__ = ()

    def _check(self) -> None:
        check_ints(self, ("window_size",))
        for name in ("high_water", "low_water"):
            value = getattr(self, name)
            number = isinstance(value, (int, float)) and not isinstance(value, bool)
            if not number or isinstance(value, float) and not math.isfinite(value):
                raise ConfigError(f"{name} must be a finite number, got {value!r}")
        for name in ("initial_bias", "count_remote_dram"):
            value = getattr(self, name)
            if not isinstance(value, bool):
                raise ConfigError(f"{name} must be a bool, got {value!r}")
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
