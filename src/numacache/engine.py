"""Trace-driven simulation runs, the replacement policy with the watermarks
that toggle its bias, and the latency model that costs their counts."""

import enum
from itertools import chain, starmap
from typing import Iterable, NamedTuple, Optional

from .address_map import ConfigError, TopologyConfig, checked, decode
from .coherence import CoherenceSystem
from .replacement import COUNT_SLOTS, REMOTE_C2C, REMOTE_DRAM, WRITEBACK
from .workload import record_blocks


class InvariantError(RuntimeError):
    """A coherence invariant broke mid-run (validation mode)."""


class PolicyKind(enum.Enum):
    LRU_ONLY = "lru"
    BIASED_ALWAYS = "biased"
    BIASED_ADAPTIVE = "adaptive"


@checked
class PolicyConfig(NamedTuple):
    """A replacement policy: its kind, the thresholds of the bias counters
    (see `replacement.select_victim`), and the watermarks that toggle the
    bias once per window of `window_size` LLC misses (so the fraction's
    denominator is nonzero), which `run` counts per socket. The bias turns
    on strictly above the high watermark, off strictly below the low one,
    and holds in between."""

    kind: PolicyKind = PolicyKind.LRU_ONLY
    # None -> derive from associativity: floor(A/4) and floor(A/2), min 1
    t_local: Optional[int] = None
    t_remote: Optional[int] = None
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

    def thresholds(self, assoc: int) -> tuple[int, int]:
        t_local = self.t_local if self.t_local is not None else max(1, assoc // 4)
        t_remote = self.t_remote if self.t_remote is not None else max(1, assoc // 2)
        if not (1 <= t_local <= assoc and 1 <= t_remote <= assoc):
            raise ValueError(f"thresholds must be in [1, {assoc}]")
        return t_local, t_remote

    def bias_after(self, fraction: float, bias: bool) -> bool:
        """The bias flag after a window whose remote-miss fraction is
        `fraction`, given the flag `bias` it ran with."""
        if fraction > self.high_water:
            return True
        if fraction < self.low_water:
            return False
        return bias


@checked
class LatencyModel(NamedTuple):
    """Abstract per-access cycle costs. Defaults are configuration values,
    not measurements; the only baked-in assumption is the ordering that
    makes remote transfers expensive."""

    llc_hit: int = 30
    remote_c2c: int = 150
    local_dram: int = 200
    remote_dram: int = 350

    def _check(self) -> None:
        if min(self.costs) < 0:
            raise ConfigError("latency costs must be >= 0")
        if not self.llc_hit < self.remote_c2c <= self.remote_dram:
            raise ConfigError("need llc_hit < remote_c2c <= remote_dram")
        if not self.local_dram < self.remote_dram:
            raise ConfigError("need local_dram < remote_dram")

    @property
    def costs(self) -> tuple[int, int, int, int]:
        """Cycle cost of each service source, indexed by its count slot."""
        return (self.llc_hit, self.remote_c2c, self.local_dram, self.remote_dram)


class SimStats(NamedTuple):
    """What `run` counted; `to_dict` costs it under a latency model."""

    # per socket: accesses by service source, then write-backs, bias
    # events and counter resets (the slots named in `replacement`)
    counts: list[list[int]]
    window_fractions: list[list[float]]  # per socket
    # (seq, socket, new flag) for every actual bias flip
    adaptive_toggles: list[tuple[int, int, bool]]

    def to_dict(self, lat: Optional[LatencyModel] = None) -> dict:
        """The stats body of a report, costed under `lat` (the default
        latencies without one). `total_cost` is linear in the counts, so
        the top level costs their column sums."""
        costs = (lat if lat is not None else LatencyModel()).costs
        totals = [sum(column) for column in zip(*self.counts)]
        return {
            **_costed(totals, costs),
            "adaptive_toggles": [
                {"seq": seq, "socket": socket, "bias": flag}
                for seq, socket, flag in self.adaptive_toggles
            ],
            "per_socket": [
                {**_costed(count, costs), "window_fractions": list(fractions)}
                for count, fractions in zip(self.counts, self.window_fractions)
            ],
        }


def _costed(count: list[int], costs: tuple) -> dict:
    """The report keys of one count list (see `SimStats.counts`)."""
    hits, remote_c2c, local_dram, remote_dram, writebacks, biased, resets = count
    misses = remote_c2c + local_dram + remote_dram
    return {
        "accesses": hits + misses,
        "hits": hits,
        "misses": misses,
        "misses_by_source": {
            "remote_c2c": remote_c2c,
            "local_dram": local_dram,
            "remote_dram": remote_dram,
        },
        "writebacks": writebacks,
        "bias_events": biased,
        "counter_resets": resets,
        "total_cost": sum(cost * n for cost, n in zip(costs, count)),
    }


class Decoded(NamedTuple):
    """The CLI's trace for `run`: `address_map.decode`'s blocks for `topo`."""

    topo: TopologyConfig
    blocks: Iterable[tuple]


def _policy_run(topo: TopologyConfig, policy: PolicyConfig) -> tuple:
    """One policy's fresh system, the state its `simulate` calls share (see
    `CoherenceSystem.simulate`) and the `SimStats` that state fills in place.
    Each socket's windows of `window_size` misses are counted for every
    policy kind (it is pure bookkeeping); only BIASED_ADAPTIVE lets their
    watermarks steer the bias, and only the biased kinds enable it."""
    system = CoherenceSystem(topo, policy.thresholds(topo.llc_assoc))
    num_sockets = topo.num_sockets
    counts = [[0] * COUNT_SLOTS for _ in range(num_sockets)]  # see SimStats.counts
    # per socket: the misses left in its window, its remote misses before
    # the window began, its window's flag and its closed windows' fractions
    window = policy.window_size
    left = [window] * num_sockets
    remote_before = [0] * num_sockets
    enabled = [policy.initial_bias] * num_sockets
    fractions: list[list[float]] = [[] for _ in range(num_sockets)]
    toggles: list[tuple[int, int, bool]] = []
    # the bias flag each socket's accesses run with
    if policy.kind is PolicyKind.BIASED_ADAPTIVE:
        bias = enabled
    else:
        bias = [policy.kind is PolicyKind.BIASED_ALWAYS] * num_sockets

    def close_window(socket: int) -> None:
        """Apply the watermarks to the socket's window, which the last
        record counted closed, and start its next window."""
        left[socket] = window
        count = counts[socket]
        remote = count[REMOTE_C2C] + (count[REMOTE_DRAM] if policy.count_remote_dram else 0)
        fraction = (remote - remote_before[socket]) / window
        remote_before[socket] = remote
        fractions[socket].append(fraction)
        flag = policy.bias_after(fraction, enabled[socket])
        if flag != enabled[socket]:
            enabled[socket] = flag
            # the closing record's index: each access adds one to the
            # source slots, the ones before WRITEBACK
            toggles.append((sum(sum(each[:WRITEBACK]) for each in counts) - 1,
                            socket, flag))

    return system, (counts, bias, left, close_window), SimStats(counts, fractions, toggles)


def _drive(trace: Iterable[tuple], topo: TopologyConfig, policies: list[PolicyConfig],
           validate: bool) -> list[SimStats]:
    """Drive one pass of a trace through a fresh system per policy, handing
    each block to every policy in turn; with `validate`, each access, so the
    first violation raised is the first in record order, then policy order."""
    # bad thresholds, then too many sets, fail before any record is read
    runs = [_policy_run(topo, policy) for policy in policies]
    if not isinstance(trace, Decoded):
        trace = Decoded(topo, decode(record_blocks(trace, topo), topo))
    elif trace.topo != topo:
        raise ConfigError("the trace was decoded for another topology")
    if validate:
        for seq, access in enumerate(chain.from_iterable(starmap(zip, trace.blocks))):
            for system, state, _ in runs:
                system.simulate((access,), *state)
                violations = system.check_global_invariants()
                if violations:
                    raise InvariantError(f"after record {seq}: " + "; ".join(violations))
    else:
        for block in trace.blocks:
            for system, state, _ in runs:
                system.simulate(zip(*block), *state)
    return [stats for _, _, stats in runs]


def run(
    trace: Iterable[tuple],
    topo: TopologyConfig,
    policy: PolicyConfig,
    *,
    validate: bool = False,
) -> SimStats:
    """Drive a trace through a fresh system and count its accesses.

    The trace is `Decoded` for `topo`, or any iterable of (socket, core,
    op, addr) tuples, op "R" or "W", which `record_blocks` checks as they
    are consumed; record N is its N-th, from 0. With `validate`, the run
    steps the simulation one access at a time and checks the invariants
    after each; the first violation raises InvariantError.
    """
    return _drive(trace, topo, [policy], validate)[0]


def compare(
    trace: Iterable[tuple],
    topo: TopologyConfig,
    policies: list[PolicyConfig],
    lat: Optional[LatencyModel] = None,
    validate: bool = False,
) -> dict:
    """Run each policy over the same trace, in one pass, on a fresh system
    of its own; deltas are relative to the first policy."""
    if not policies:
        raise ConfigError("compare needs at least one policy")
    results = [(p.kind.value, stats.to_dict(lat))
               for p, stats in zip(policies, _drive(trace, topo, policies, validate))]
    base = results[0][1]
    return {
        "policies": [{"policy": name, "stats": stats} for name, stats in results],
        "deltas": [
            {
                "policy": name,
                "misses": stats["misses"] - base["misses"],
                "remote_c2c": stats["misses_by_source"]["remote_c2c"]
                - base["misses_by_source"]["remote_c2c"],
                "total_cost": stats["total_cost"] - base["total_cost"],
            }
            for name, stats in results
        ],
    }
