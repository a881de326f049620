"""LLC victim selection: plain LRU and the remote-sharing-biased policy.

Each set keeps two saturating counters of how often the bias has fired,
split by whether the protected line's home node was local or remote.
"""

import enum


class MoesiState(enum.Enum):
    """States of a held line; a line that is not held is Invalid."""

    MODIFIED = "M"
    OWNER = "O"
    EXCLUSIVE = "E"
    SHARED = "S"
    REMOTE_SHARED = "R"  # Shared, installed by a remote M/O cache's transfer


REMOTE_SHARED = MoesiState.REMOTE_SHARED  # bound once: Enum attributes are slow


def select_victim(
    lines: dict[int, MoesiState],
    lru: int,
    counters: list[int],
    home_class: int,
    thresholds: tuple[int, int],
    count: list[int],
) -> int:
    """Pick the victim tag of a full set under the bias, updating its bias
    counters.

    `CoherenceSystem.simulate` calls this only with the bias on and `lru`,
    the least recently used line, remote-shared; otherwise `lru` is the
    victim.
    `lines` maps tag -> MoesiState, least recently used first; `counters`
    is the set's [local-home, remote-home] pair, and `home_class` is 0 if
    `lru`'s home is the requesting socket, else 1. The counter of that class
    decides: below its threshold we protect the shared line and evict the
    least recent non-shared line instead (the counter increments and slot
    5 of `count`, the requestor's count list, counts a bias event); at the
    threshold the shared line goes after all, the counter resets and slot
    6 counts the reset.
    """
    if counters[home_class] >= thresholds[home_class]:
        counters[home_class] = 0
        count[6] += 1
        return lru
    for tag, state in lines.items():
        if state is not REMOTE_SHARED:
            counters[home_class] += 1
            count[5] += 1
            return tag
    # every line is remote-shared: nothing to protect against
    return lru
