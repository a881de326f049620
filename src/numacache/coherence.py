"""Directory-based MOESI coherence across per-socket inclusive LLCs.

One LLC per socket; cores issue reads and writes straight to it. Every
access completes atomically: snoop, supply, state change, install, and any
eviction happen before the next access starts. DRAM is an infinite backing
store; only coherence state is tracked, not data.
"""

import enum
from dataclasses import dataclass, field
from typing import NamedTuple, Optional

from .address_map import TopologyConfig, decode
from .replacement import CacheSet, MoesiState, PolicyConfig, PolicyKind, select_victim


class ServiceSource(enum.IntEnum):
    """Where an access was served from; indexes `LatencyModel.costs`."""

    LOCAL_HIT = 0
    REMOTE_C2C = 1
    LOCAL_DRAM = 2
    REMOTE_DRAM = 3


class FillOutcome(NamedTuple):
    service_source: ServiceSource
    writeback: bool = False      # the evicted victim was dirty (M/O)
    biased: bool = False         # a non-shared victim replaced the LRU shared line
    counter_reset: bool = False  # a bias counter reached its threshold


_HIT = FillOutcome(ServiceSource.LOCAL_HIT)


@dataclass
class DirectoryEntry:
    owner: Optional[int] = None  # socket holding the line in M, O, or E
    sharers: set[int] = field(default_factory=set)


class CoherenceSystem:
    """All sockets' LLCs plus the global directory."""

    def __init__(self, topo: TopologyConfig, policy: Optional[PolicyConfig] = None):
        self.topo = topo
        self.policy = policy if policy is not None else PolicyConfig()
        self.thresholds = self.policy.thresholds(topo.llc_assoc)
        self.llcs = [
            [CacheSet() for _ in range(topo.llc_sets)]
            for _ in range(topo.num_sockets)
        ]
        self.directory: dict[int, DirectoryEntry] = {}
        self._tag_shift = topo.offset_bits + topo.set_bits
        home_shift = topo.address_width - topo.socket_bits - self._tag_shift
        self._home_of = lambda tag: tag >> home_shift

    # -- accesses ---------------------------------------------------------

    def handle_read(
        self, requestor: int, addr: int, bias_enabled: bool = True
    ) -> FillOutcome:
        line, set_id, tag, home = decode(addr, self.topo)
        lines = self.llcs[requestor][set_id].lines
        if tag in lines:
            lines[tag] = lines.pop(tag)
            return _HIT

        entry = self.directory.get(line)
        if entry is None or not entry.sharers:
            # cold fill from the home DRAM
            source = self._dram_source(requestor, home)
            state, bit = MoesiState.EXCLUSIVE, False
        elif entry.owner is not None:
            supplier = self.llcs[entry.owner][set_id].lines
            if supplier[tag][0] is MoesiState.EXCLUSIVE:
                # the clean supplier degrades; nobody owns the line
                supplier[tag] = (MoesiState.SHARED, False)
                entry.owner = None
                bit = False
            else:  # a Modified supplier becomes Owner; an Owner stays
                supplier[tag] = (MoesiState.OWNER, False)
                bit = True
            source, state = ServiceSource.REMOTE_C2C, MoesiState.SHARED
        else:
            # only Shared copies exist; memory owns the line
            source = self._dram_source(requestor, home)
            state, bit = MoesiState.SHARED, False

        outcome = self._install(
            requestor, set_id, tag, state, bit, bias_enabled, source
        )
        entry = self.directory.setdefault(line, DirectoryEntry())
        entry.sharers.add(requestor)
        if state is MoesiState.EXCLUSIVE:
            entry.owner = requestor
        return outcome

    def handle_write(
        self, requestor: int, addr: int, bias_enabled: bool = True
    ) -> FillOutcome:
        line, set_id, tag, home = decode(addr, self.topo)
        lines = self.llcs[requestor][set_id].lines
        held = lines.pop(tag, None)
        if held is not None:
            if held[0] in (MoesiState.SHARED, MoesiState.OWNER):
                # upgrade: invalidate every other copy
                self._invalidate_others(line, set_id, tag, keep=requestor)
            lines[tag] = (MoesiState.MODIFIED, False)
            entry = self.directory[line]
            entry.owner = requestor
            entry.sharers = {requestor}
            return _HIT

        entry = self.directory.get(line)
        if entry is not None and entry.owner is not None:
            # dirty or exclusive holder ships the line and invalidates
            source = ServiceSource.REMOTE_C2C
        else:
            source = self._dram_source(requestor, home)
        if entry is not None:
            self._invalidate_others(line, set_id, tag, keep=requestor)

        outcome = self._install(
            requestor, set_id, tag, MoesiState.MODIFIED, False, bias_enabled, source
        )
        self.directory[line] = DirectoryEntry(requestor, {requestor})
        return outcome

    def evict_line(self, socket: int, set_id: int, tag: int) -> bool:
        """Drop a line from an LLC; True when it was dirty (M/O) and so
        wrote back to its home DRAM.

        Remaining Shared copies of an evicted Owner line keep their
        remote-shared bits, which go stale by design (silent write-back).
        """
        held = self.llcs[socket][set_id].lines.pop(tag, None)
        if held is None:
            raise RuntimeError(f"evict of tag {tag:#x} not held in set {set_id}")
        line = self._line_address(set_id, tag)
        entry = self.directory[line]
        entry.sharers.discard(socket)
        if entry.owner == socket:
            entry.owner = None
        if not entry.sharers:
            del self.directory[line]
        return held[0] in (MoesiState.MODIFIED, MoesiState.OWNER)

    # -- invariant checking -----------------------------------------------

    def check_global_invariants(self) -> list[str]:
        """Empty list iff the global MOESI and directory invariants hold."""
        violations = []
        holders: dict[int, list[tuple[int, MoesiState]]] = {}
        assoc = self.topo.llc_assoc
        t_local, t_remote = self.thresholds

        for socket, llc in enumerate(self.llcs):
            for set_id, cset in enumerate(llc):
                if len(cset.lines) > assoc:
                    violations.append(
                        f"socket {socket} set {set_id}: {len(cset.lines)} lines "
                        f"exceed associativity {assoc}"
                    )
                local_count, remote_count = cset.counters
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
                for tag, (state, remote_shared) in cset.lines.items():
                    if remote_shared and state is not MoesiState.SHARED:
                        violations.append(
                            f"socket {socket} set {set_id}: remote_shared on "
                            f"{state.value} line"
                        )
                    addr = self._line_address(set_id, tag)
                    holders.setdefault(addr, []).append((socket, state))

        for addr, held in holders.items():
            exclusive = [s for s, st in held if st in (MoesiState.MODIFIED, MoesiState.EXCLUSIVE)]
            owners = [s for s, st in held if st is MoesiState.OWNER]
            if exclusive and len(held) > 1:
                violations.append(
                    f"line {addr:#x}: M/E at socket {exclusive[0]} coexists "
                    "with other copies"
                )
            if len(exclusive) > 1:
                violations.append(f"line {addr:#x}: multiple M/E holders")
            if len(owners) > 1:
                violations.append(f"line {addr:#x}: multiple Owner holders")
            if owners and any(
                st not in (MoesiState.OWNER, MoesiState.SHARED) for _, st in held
            ):
                violations.append(
                    f"line {addr:#x}: Owner coexists with a non-Shared copy"
                )
            entry = self.directory.get(addr)
            if entry is None:
                violations.append(f"line {addr:#x}: cached but absent from directory")
                continue
            actual = {s for s, _ in held}
            if entry.sharers != actual:
                violations.append(
                    f"line {addr:#x}: directory sharers {sorted(entry.sharers)} "
                    f"!= holders {sorted(actual)}"
                )
            actual_owner = (exclusive + owners)[0] if exclusive or owners else None
            if entry.owner != actual_owner:
                violations.append(
                    f"line {addr:#x}: directory owner {entry.owner} "
                    f"!= actual {actual_owner}"
                )

        for addr in self.directory:
            if addr not in holders:
                violations.append(f"line {addr:#x}: stale directory entry")
        return violations

    # -- helpers ----------------------------------------------------------

    @staticmethod
    def _dram_source(requestor: int, home: int) -> ServiceSource:
        return ServiceSource.LOCAL_DRAM if home == requestor else ServiceSource.REMOTE_DRAM

    def _line_address(self, set_id: int, tag: int) -> int:
        return (tag << self._tag_shift) | (set_id << self.topo.offset_bits)

    def _invalidate_others(self, line: int, set_id: int, tag: int, keep: int) -> None:
        entry = self.directory[line]
        for socket in entry.sharers:
            if socket != keep:
                del self.llcs[socket][set_id].lines[tag]
        entry.sharers &= {keep}
        if entry.owner is not None and entry.owner != keep:
            entry.owner = None
        if not entry.sharers:
            del self.directory[line]

    def _install(
        self,
        socket: int,
        set_id: int,
        tag: int,
        state: MoesiState,
        remote_shared: bool,
        bias_enabled: bool,
        source: ServiceSource,
    ) -> FillOutcome:
        """Install a line at MRU, first evicting a victim if the set is full."""
        cset = self.llcs[socket][set_id]
        outcome = FillOutcome(source)
        if len(cset.lines) >= self.topo.llc_assoc:
            bias = bias_enabled and self.policy.kind is not PolicyKind.LRU_ONLY
            victim, biased, reset = select_victim(
                cset, socket, self._home_of, self.thresholds, bias
            )
            writeback = self.evict_line(socket, set_id, victim)
            outcome = FillOutcome(source, writeback, biased, reset)
        cset.lines[tag] = (state, remote_shared)
        return outcome
