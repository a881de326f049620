"""MOESI coherence across per-socket inclusive LLCs, with no directory.

One LLC per socket; cores issue reads and writes straight to it. Every
access completes atomically: snoop, supply, state change, install, and any
eviction happen before the next access starts. DRAM is an infinite backing
store; only coherence state is tracked, not data.
"""

from typing import Optional

from .address_map import TopologyConfig
from .replacement import MoesiState, PolicyConfig, select_victim

# Enum members bound once: attribute access on an Enum class is slow.
MODIFIED, OWNER, EXCLUSIVE, SHARED, REMOTE_SHARED = MoesiState
# Where an access was served from: its slot in a count list
# (`engine.SimStats.counts`) and its index into `LatencyModel.costs`.
LOCAL_HIT, REMOTE_C2C, LOCAL_DRAM, REMOTE_DRAM = range(4)
_DIRTY = (MODIFIED, OWNER)  # the states whose eviction writes back
_SHARED = (SHARED, REMOTE_SHARED)  # the states that ship no line
_EXCLUSIVE = (MODIFIED, EXCLUSIVE)  # the states that need no upgrade


class CoherenceSystem:
    """All sockets' LLCs under MOESI, with no directory.

    A line can only sit in one set index, so its holders are the sockets
    whose LLC holds its tag in that set: a miss probes the same set of
    every socket, O(sockets) per miss. `columns[set_id][socket]` is that
    set's lines in one socket's LLC, a dict of tag -> MoesiState, least
    recently used first: a hit pops the tag and re-inserts it at the MRU
    end, while assigning a new state to a held tag keeps its position.
    `counters[set_id][socket]` is the same set's [local-home, remote-home]
    pair of bias counters (see `select_victim`).

    `access` runs one read ("R") or write ("W") of the line at a set index
    and tag, as `address_map.decode` splits a checked address; the op,
    checked with the address, picks the hit path and the snoop, and the
    rest is shared. The tag's top bits are the home socket.

    It adds the access into `count`, the requestor's 7-slot count
    list (`engine.SimStats.counts`): one at its source's slot (LOCAL_HIT to
    REMOTE_DRAM) and, when it evicts a dirty line, one at slot 4 for the
    write-back. It returns whether the access missed. A full set evicts
    its LRU line unless the bias is on and that line is remote-shared;
    only then does `select_victim` decide, and it counts a bias event at
    slot 5 or a counter reset at slot 6.
    """

    def __init__(self, topo: TopologyConfig, policy: Optional[PolicyConfig] = None):
        policy = policy if policy is not None else PolicyConfig()
        self.thresholds = policy.thresholds(topo.llc_assoc)
        sockets, sets = range(topo.num_sockets), range(topo.llc_sets)
        self.columns = [[{} for _ in sockets] for _ in sets]
        self.counters = [[[0, 0] for _ in sockets] for _ in sets]
        self._offset_bits = topo.offset_bits
        self._tag_shift = topo.offset_bits + topo.set_bits
        self._home_shift = topo.address_width - topo.socket_bits - self._tag_shift
        self._assoc = topo.llc_assoc

    # -- accesses ---------------------------------------------------------

    def access(
        self, requestor: int, op: str, set_id: int, tag: int, count: list[int],
        bias_enabled: bool = False,
    ) -> bool:
        column = self.columns[set_id]
        lines = column[requestor]
        if op == "R":
            if tag in lines:
                lines[tag] = lines.pop(tag)
                count[LOCAL_HIT] += 1
                return False
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
                    other[tag] = SHARED
                    state, shipped = SHARED, True
                    break
                else:  # a Modified supplier becomes Owner; an Owner stays
                    other[tag] = OWNER
                    state, shipped = REMOTE_SHARED, True
                    break
            else:  # no copy (a cold fill), or only Shared ones
                shipped = False
        else:  # "W"
            if tag in lines:
                if lines.pop(tag) not in _EXCLUSIVE:
                    # upgrade: invalidate every other copy
                    for other in column:
                        other.pop(tag, None)
                lines[tag] = MODIFIED
                count[LOCAL_HIT] += 1
                return False
            # every copy is invalidated; a Modified, Owner or Exclusive one
            # ships the line
            state, shipped = MODIFIED, False
            for other in column:
                if tag in other and other.pop(tag) not in _SHARED:
                    shipped = True

        if shipped:
            count[REMOTE_C2C] += 1
        else:  # memory supplies, local iff the line's home is the requestor
            count[LOCAL_DRAM if tag >> self._home_shift == requestor
                  else REMOTE_DRAM] += 1

        # install at MRU, first evicting a victim if the set is full
        if len(lines) >= self._assoc:
            victim = next(iter(lines))
            if bias_enabled and lines[victim] is REMOTE_SHARED:
                victim = select_victim(
                    lines, victim, self.counters[set_id][requestor],
                    victim >> self._home_shift != requestor, self.thresholds, count)
            # REMOTE_SHARED copies elsewhere of an evicted Owner line stay
            # so, stale by design (silent write-back)
            if lines.pop(victim) in _DIRTY:
                count[4] += 1
        lines[tag] = state
        return True

    # -- invariant checking -----------------------------------------------

    def check_global_invariants(self) -> list[str]:
        """Empty list iff the per-set and cross-socket MOESI invariants hold.
        A line's holders are read from the LLCs themselves, so there is no
        second copy of them to disagree with."""
        violations = []
        holders: dict[int, list[tuple[int, MoesiState]]] = {}
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
