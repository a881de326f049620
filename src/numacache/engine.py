"""Trace-driven simulation loop, latency accounting, and statistics."""

from dataclasses import dataclass, field
from typing import Iterable, Optional

from .adaptive import AdaptiveConfig, AdaptiveState
from .address_map import ConfigError, TopologyConfig
from .coherence import CoherenceSystem, ServiceSource
from .replacement import PolicyConfig, PolicyKind
from .workload import AccessRecord, Op


class InvariantError(RuntimeError):
    """A coherence invariant broke mid-run (validation mode)."""


@dataclass
class LatencyModel:
    """Abstract per-access cycle costs. Defaults are configuration values,
    not measurements; the only baked-in assumption is the ordering that
    makes remote transfers expensive."""

    llc_hit: int = 30
    remote_c2c: int = 150
    local_dram: int = 200
    remote_dram: int = 350

    def __post_init__(self):
        if min(self.costs) < 0:
            raise ConfigError("latency costs must be >= 0")
        if not self.llc_hit < self.remote_c2c <= self.remote_dram:
            raise ConfigError("need llc_hit < remote_c2c <= remote_dram")
        if not self.local_dram < self.remote_dram:
            raise ConfigError("need local_dram < remote_dram")

    @property
    def costs(self) -> tuple[int, int, int, int]:
        """Cycle cost of each service source, indexed by ServiceSource."""
        return (self.llc_hit, self.remote_c2c, self.local_dram, self.remote_dram)


@dataclass
class SocketStats:
    accesses: int = 0
    hits: int = 0
    misses: int = 0
    remote_c2c: int = 0
    local_dram: int = 0
    remote_dram: int = 0
    writebacks: int = 0
    bias_events: int = 0
    counter_resets: int = 0
    total_cost: int = 0
    window_fractions: list = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "accesses": self.accesses,
            "hits": self.hits,
            "misses": self.misses,
            "misses_by_source": {
                "remote_c2c": self.remote_c2c,
                "local_dram": self.local_dram,
                "remote_dram": self.remote_dram,
            },
            "writebacks": self.writebacks,
            "bias_events": self.bias_events,
            "counter_resets": self.counter_resets,
            "total_cost": self.total_cost,
            "window_fractions": list(self.window_fractions),
        }


@dataclass
class SimStats:
    per_socket: list[SocketStats]
    # (seq, socket, new flag) for every actual bias flip
    adaptive_toggles: list[tuple[int, int, bool]] = field(default_factory=list)

    def _sum(self, attr: str) -> int:
        return sum(getattr(s, attr) for s in self.per_socket)

    @property
    def accesses(self) -> int:
        return self._sum("accesses")

    @property
    def hits(self) -> int:
        return self._sum("hits")

    @property
    def misses(self) -> int:
        return self._sum("misses")

    @property
    def total_cost(self) -> int:
        return self._sum("total_cost")

    def to_dict(self) -> dict:
        return {
            "accesses": self.accesses,
            "hits": self.hits,
            "misses": self.misses,
            "misses_by_source": {
                "remote_c2c": self._sum("remote_c2c"),
                "local_dram": self._sum("local_dram"),
                "remote_dram": self._sum("remote_dram"),
            },
            "writebacks": self._sum("writebacks"),
            "bias_events": self._sum("bias_events"),
            "counter_resets": self._sum("counter_resets"),
            "total_cost": self.total_cost,
            "adaptive_toggles": [
                {"seq": seq, "socket": socket, "bias": flag}
                for seq, socket, flag in self.adaptive_toggles
            ],
            "per_socket": [s.to_dict() for s in self.per_socket],
        }


def run(
    trace: Iterable[AccessRecord],
    topo: TopologyConfig,
    policy: PolicyConfig,
    adaptive: Optional[AdaptiveConfig] = None,
    lat: Optional[LatencyModel] = None,
    validate: bool = False,
) -> SimStats:
    """Drive a trace through a fresh system and accumulate statistics.

    The windowed remote-miss tracking runs for every policy kind (it is
    pure bookkeeping); only BIASED_ADAPTIVE lets it steer the bias.
    """
    adaptive = adaptive if adaptive is not None else AdaptiveConfig()
    lat = lat if lat is not None else LatencyModel()

    system = CoherenceSystem(topo, policy)  # fails fast on bad thresholds
    num_sockets, num_cores = topo.num_sockets, topo.cores_per_socket
    controllers = [AdaptiveState(adaptive) for _ in range(num_sockets)]
    # per socket: accesses by ServiceSource, then write-backs, bias events
    # and counter resets
    counts = [[0] * 7 for _ in range(num_sockets)]
    toggles: list[tuple[int, int, bool]] = []
    always_bias = policy.kind is PolicyKind.BIASED_ALWAYS
    adaptive_bias = policy.kind is PolicyKind.BIASED_ADAPTIVE
    # whether a miss from each source counts as remote for the controller
    is_remote = (False, True, False, adaptive.count_remote_dram)
    handle_read, handle_write = system.handle_read, system.handle_write
    # Enum members bound once: attribute access on an Enum class is slow.
    read, write, hit = Op.READ, Op.WRITE, ServiceSource.LOCAL_HIT

    for socket, core, op, addr, seq in trace:
        if not 0 <= socket < num_sockets:
            raise ConfigError(f"record {seq}: socket {socket} out of range")
        if not 0 <= core < num_cores:
            raise ConfigError(f"record {seq}: core {core} out of range")

        controller = controllers[socket]
        bias = always_bias or (adaptive_bias and controller.bias_enabled)
        if op is read:
            outcome = handle_read(socket, addr, bias)
        elif op is write:
            outcome = handle_write(socket, addr, bias)
        else:
            raise ConfigError(f"record {seq}: op {op!r} is not an Op")

        source, writeback, biased, reset = outcome
        count = counts[socket]
        count[source] += 1
        if source is not hit:
            count[4] += writeback
            count[5] += biased
            count[6] += reset
            before = controller.bias_enabled
            closed = controller.record_miss(is_remote[source])
            if closed is not None and closed != before:
                toggles.append((seq, socket, closed))

        if validate:
            violations = system.check_global_invariants()
            if violations:
                raise InvariantError(
                    f"after record {seq}: " + "; ".join(violations)
                )

    per_socket = []
    for count, controller in zip(counts, controllers):
        hits, remote_c2c, local_dram, remote_dram, *events = count
        misses = remote_c2c + local_dram + remote_dram
        per_socket.append(SocketStats(
            hits + misses, hits, misses, remote_c2c, local_dram, remote_dram,
            *events,
            total_cost=sum(cost * n for cost, n in zip(lat.costs, count)),
            window_fractions=list(controller.window_fractions),
        ))
    return SimStats(per_socket, toggles)


def compare(
    trace: Iterable[AccessRecord],
    topo: TopologyConfig,
    policies: list[PolicyConfig],
    adaptive: Optional[AdaptiveConfig] = None,
    lat: Optional[LatencyModel] = None,
    validate: bool = False,
) -> dict:
    """Run each policy over the same trace on a fresh system; deltas are
    relative to the first policy."""
    if not policies:
        raise ConfigError("compare needs at least one policy")
    trace = list(trace)
    results = [
        (p.kind.value, run(trace, topo, p, adaptive, lat, validate)) for p in policies
    ]
    base = results[0][1]
    return {
        "policies": [
            {"policy": name, "stats": stats.to_dict()} for name, stats in results
        ],
        "deltas": [
            {
                "policy": name,
                "misses": stats.misses - base.misses,
                "remote_c2c": stats._sum("remote_c2c") - base._sum("remote_c2c"),
                "total_cost": stats.total_cost - base.total_cost,
            }
            for name, stats in results
        ],
    }
