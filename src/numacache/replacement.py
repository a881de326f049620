"""The per-access vocabulary, and LLC victim selection: plain LRU and the
remote-sharing-biased policy.

A held line's state is its MOESI letter; a line that is not held is
Invalid. A socket's count list has one slot per thing counted, each named
here. Each set keeps two saturating counters of how often the bias has
fired, split by whether the protected line's home node was local or remote.
"""

# "R" is Shared, installed by a remote Modified/Owner cache's transfer.
# Every state stored is one of these objects, so `is` compares them.
MODIFIED, OWNER, EXCLUSIVE, SHARED, REMOTE_SHARED = "MOESR"
# the slots of a socket's count list (`engine.SimStats.counts`): accesses
# by service source, whose slots also index `LatencyModel.costs`, then
# write-backs, bias events and counter resets
(LOCAL_HIT, REMOTE_C2C, LOCAL_DRAM, REMOTE_DRAM,
 WRITEBACK, BIAS_EVENT, COUNTER_RESET) = range(7)
COUNT_SLOTS = COUNTER_RESET + 1


def select_victim(
    lines: dict[int, str],
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
    `lines` maps tag -> state, least recently used first; `counters` is
    the set's [local-home, remote-home] pair, and `home_class` is 0 if
    `lru`'s home is the requesting socket, else 1. The counter of that class
    decides: below its threshold we protect the shared line and evict the
    least recent line that is not remote-shared instead (the counter
    increments and `count`, the requestor's count list, counts a
    BIAS_EVENT); at the threshold the shared line goes after all, the
    counter resets and `count` counts a COUNTER_RESET.
    """
    if counters[home_class] >= thresholds[home_class]:
        counters[home_class] = 0
        count[COUNTER_RESET] += 1
        return lru
    for tag, state in lines.items():
        if state is not REMOTE_SHARED:
            counters[home_class] += 1
            count[BIAS_EVENT] += 1
            return tag
    # every line is remote-shared: nothing to protect against
    return lru
