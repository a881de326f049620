"""MOESI coherence across per-socket inclusive LLCs, with no directory.

One LLC per socket; cores issue reads and writes straight to it. Every
access completes atomically: snoop, supply, state change, install, and any
eviction happen before the next access starts. DRAM is an infinite backing
store; only coherence state is tracked, not data.
"""

from typing import Callable, Iterable

from .address_map import ConfigError, TopologyConfig
from .replacement import (EXCLUSIVE, LOCAL_DRAM, LOCAL_HIT, MODIFIED, OWNER, REMOTE_C2C,
                          REMOTE_DRAM, REMOTE_SHARED, SHARED, WRITEBACK, select_victim)

_DIRTY = (MODIFIED, OWNER)  # the states whose eviction writes back
_SHARED = (SHARED, REMOTE_SHARED)  # the states that ship no line
_EXCLUSIVE = (MODIFIED, EXCLUSIVE)  # the states that need no upgrade
MAX_SETS = 2**20  # sets over all sockets that a system allocates: 160-350 MiB


class CoherenceSystem:
    """All sockets' LLCs under MOESI, with no directory.

    A line can only sit in one set index, so its holders are the sockets
    whose LLC holds its tag in that set: a miss probes the same set of
    every socket, O(sockets) per miss. `columns[set_id][socket]` is that
    set's lines in one socket's LLC, a dict of tag -> state letter, least
    recently used first: a hit pops the tag and re-inserts it at the MRU
    end, while assigning a new state to a held tag keeps its position.
    `counters[set_id][socket]` is the same set's [local-home, remote-home]
    pair of bias counters (see `select_victim`). `simulate` runs a trace's
    accesses against them.
    """

    def __init__(self, topo: TopologyConfig, thresholds: tuple[int, int]):
        if topo.num_sockets * topo.llc_sets > MAX_SETS:
            raise ConfigError(f"num_sockets * llc_sets must be <= {MAX_SETS}, "
                              f"got {topo.num_sockets * topo.llc_sets}")
        self.thresholds = thresholds
        sockets, sets = range(topo.num_sockets), range(topo.llc_sets)
        self.columns = [[{} for _ in sockets] for _ in sets]
        self.counters = [[[0, 0] for _ in sockets] for _ in sets]
        self._offset_bits = topo.offset_bits
        self._tag_shift = topo.offset_bits + topo.set_bits
        self._home_shift = topo.address_width - topo.socket_bits - self._tag_shift
        self._assoc = topo.llc_assoc

    # -- accesses ---------------------------------------------------------

    def simulate(
        self, accesses: Iterable[tuple], counts: list[list[int]], bias: list[bool],
        left: list[int], close_window: Callable[[int], None],
    ) -> None:
        """Run every access of `accesses`, (socket, op, set, tag) tuples as
        `address_map.decode` makes them of checked records. An op, "R" or
        "W", picks the hit path and the snoop, and the rest of a miss is
        shared. A tag's top bits are the line's home socket.

        Each access adds into `counts[socket]`, its requestor's count list
        (slots named in `replacement`), all zeros at the start: one at its
        source's slot (LOCAL_HIT to REMOTE_DRAM) and, when it evicts a dirty
        line, one at WRITEBACK. A full set evicts its LRU line unless
        `bias[socket]` is on and that line is remote-shared; only then does
        `select_victim` decide, and it counts a BIAS_EVENT or a
        COUNTER_RESET. `left[socket]` is the misses left in the socket's
        window; the miss that ends it calls `close_window(socket)`, which
        starts the next window by refilling `left[socket]` and may change
        `bias`, which the socket's next access runs with.

        The loop makes no Python call of its own but those two: every
        access is inlined, and what it reads is bound to a local once. It
        keeps no state of its own, so a run split over several calls that
        share `counts`, `bias` and `left` counts what one call counts.
        """
        columns, counters, thresholds = self.columns, self.counters, self.thresholds
        assoc, home_shift = self._assoc, self._home_shift
        # looked up per call, so that a wrapper put in its place is called
        victim_of = select_victim
        for requestor, op, set_id, tag in accesses:
            count = counts[requestor]
            column = columns[set_id]
            lines = column[requestor]
            if tag in lines:  # a hit: the line moves to the MRU end
                if op == "R":
                    lines[tag] = lines.pop(tag)
                else:
                    if lines.pop(tag) not in _EXCLUSIVE:
                        # upgrade: invalidate every other copy
                        for other in column:
                            other.pop(tag, None)
                    lines[tag] = MODIFIED
                count[LOCAL_HIT] += 1
            else:
                if op == "R":
                    # the requestor holds no copy, so every copy found is another's
                    state = EXCLUSIVE
                    for other in column:
                        if tag not in other:
                            continue
                        held = other[tag]
                        if held in _SHARED:
                            state = SHARED
                        elif held is EXCLUSIVE:
                            # the clean supplier degrades; nobody owns the line
                            other[tag] = state = SHARED
                            count[REMOTE_C2C] += 1
                            break
                        else:  # a Modified supplier becomes Owner; an Owner stays
                            other[tag] = OWNER
                            state = REMOTE_SHARED
                            count[REMOTE_C2C] += 1
                            break
                    else:  # no copy (a cold fill), or only Shared ones: memory
                        # supplies, local iff the line's home is the requestor
                        count[LOCAL_DRAM if tag >> home_shift == requestor
                              else REMOTE_DRAM] += 1
                else:
                    # every copy is invalidated; a Modified, Owner or
                    # Exclusive one ships the line, else memory does
                    state = MODIFIED
                    source = LOCAL_DRAM if tag >> home_shift == requestor else REMOTE_DRAM
                    for other in column:
                        if tag in other and other.pop(tag) not in _SHARED:
                            source = REMOTE_C2C
                    count[source] += 1

                # install at MRU, first evicting a victim if the set is full
                if len(lines) >= assoc:
                    for victim in lines:  # the LRU line, the dict's first
                        break
                    if bias[requestor] and lines[victim] is REMOTE_SHARED:
                        victim = victim_of(
                            lines, victim, counters[set_id][requestor],
                            victim >> home_shift != requestor, thresholds, count)
                    # REMOTE_SHARED copies elsewhere of an evicted Owner line
                    # stay so, stale by design (silent write-back)
                    if lines.pop(victim) in _DIRTY:
                        count[WRITEBACK] += 1
                lines[tag] = state

                misses_left = left[requestor] - 1
                if misses_left:
                    left[requestor] = misses_left
                else:
                    close_window(requestor)

    # -- invariant checking -----------------------------------------------

    def check_global_invariants(self) -> list[str]:
        """Empty list iff the per-set and cross-socket MOESI invariants hold.
        A line's holders are read from the LLCs themselves, so there is no
        second copy of them to disagree with."""
        violations = []
        holders: dict[int, list[tuple[int, str]]] = {}
        assoc = self._assoc
        t_local, t_remote = self.thresholds

        sets = list(enumerate(zip(self.columns, self.counters)))
        for socket in range(len(self.columns[0])):  # socket-major
            for set_id, (column, counters) in sets:
                lines = column[socket]
                if len(lines) > assoc:
                    violations.append(
                        f"socket {socket} set {set_id}: {len(lines)} lines "
                        f"exceed associativity {assoc}"
                    )
                local_count, remote_count = counters[socket]
                if not 0 <= local_count <= t_local:
                    violations.append(
                        f"socket {socket} set {set_id}: local-home counter "
                        f"{local_count} out of [0, {t_local}]"
                    )
                if not 0 <= remote_count <= t_remote:
                    violations.append(
                        f"socket {socket} set {set_id}: remote-home counter "
                        f"{remote_count} out of [0, {t_remote}]"
                    )
                for tag, state in lines.items():
                    addr = (tag << self._tag_shift) | (set_id << self._offset_bits)
                    holders.setdefault(addr, []).append((socket, state))

        for addr, held in holders.items():
            exclusive = [s for s, st in held if st in _EXCLUSIVE]
            owners = [s for s, st in held if st is OWNER]
            if exclusive and len(held) > 1:
                violations.append(
                    f"line {addr:#x}: M/E at socket {exclusive[0]} coexists "
                    "with other copies"
                )
            if len(exclusive) > 1:
                violations.append(f"line {addr:#x}: multiple M/E holders")
            if len(owners) > 1:
                violations.append(f"line {addr:#x}: multiple Owner holders")
            if owners and exclusive:
                violations.append(
                    f"line {addr:#x}: Owner coexists with a non-Shared copy"
                )
        return violations
