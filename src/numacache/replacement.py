"""LLC victim selection: plain LRU and the remote-sharing-biased policy.

Each set keeps two saturating counters of how often the bias has fired,
split by whether the protected line's home node was local or remote.
"""

import enum
from dataclasses import dataclass
from typing import Callable, Optional


class MoesiState(enum.Enum):
    """States of a held line; a line that is not held is Invalid."""

    MODIFIED = "M"
    OWNER = "O"
    EXCLUSIVE = "E"
    SHARED = "S"
    REMOTE_SHARED = "R"  # Shared, installed by a remote M/O cache's transfer


REMOTE_SHARED = MoesiState.REMOTE_SHARED  # bound once: Enum attributes are slow


class PolicyKind(enum.Enum):
    LRU_ONLY = "lru"
    BIASED_ALWAYS = "biased"
    BIASED_ADAPTIVE = "adaptive"


@dataclass
class PolicyConfig:
    kind: PolicyKind = PolicyKind.LRU_ONLY
    # None -> derive from associativity: floor(A/4) and floor(A/2), min 1
    t_local: Optional[int] = None
    t_remote: Optional[int] = None

    def thresholds(self, assoc: int) -> tuple[int, int]:
        t_local = self.t_local if self.t_local is not None else max(1, assoc // 4)
        t_remote = self.t_remote if self.t_remote is not None else max(1, assoc // 2)
        if not (1 <= t_local <= assoc and 1 <= t_remote <= assoc):
            raise ValueError(f"thresholds must be in [1, {assoc}]")
        return t_local, t_remote


def select_victim(
    lines: dict[int, MoesiState],
    counters: list[int],
    local_socket: int,
    home_of: Callable[[int], int],
    thresholds: tuple[int, int],
) -> tuple[int, bool, bool]:
    """Pick the victim tag of a full set under the bias, updating its bias
    counters.

    `lines` maps tag -> MoesiState, least recently used first; `counters`
    is the set's [local-home, remote-home] pair. Returns (victim tag,
    biased, counter reset). The LRU line is the default, and the only
    choice with the bias off, so the handlers call this only with the bias
    on. When the LRU line is remote-shared, the counter of its home class
    (local or remote to `local_socket`, via `home_of(tag)`) decides: below
    its threshold we protect the shared line and evict the least recent
    non-shared line instead (the counter increments); at the threshold the
    shared line goes after all and the counter resets.
    """
    lru = next(iter(lines))
    if lines[lru] is not REMOTE_SHARED:
        return lru, False, False

    home_class = 0 if home_of(lru) == local_socket else 1
    if counters[home_class] >= thresholds[home_class]:
        counters[home_class] = 0
        return lru, False, True
    for tag, state in lines.items():
        if state is not REMOTE_SHARED:
            counters[home_class] += 1
            return tag, True, False
    # every line is remote-shared: nothing to protect against
    return lru, False, False
