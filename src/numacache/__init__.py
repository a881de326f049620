"""Trace-driven ccNUMA multi-socket LLC simulator with MOESI coherence and
a remote-sharing-biased replacement policy."""

from .adaptive import AdaptiveConfig, AdaptiveState
from .address_map import ConfigError, TopologyConfig
from .coherence import CoherenceSystem, FillOutcome, ServiceSource
from .engine import InvariantError, LatencyModel, SimStats, SocketStats, compare, run
from .replacement import CacheSet, MoesiState, PolicyConfig, PolicyKind
from .workload import (
    AccessRecord,
    GeneratorKind,
    GeneratorSpec,
    Op,
    TraceError,
    format_trace,
    generate,
    parse_trace,
)

__all__ = [
    "AccessRecord",
    "AdaptiveConfig",
    "AdaptiveState",
    "CacheSet",
    "CoherenceSystem",
    "ConfigError",
    "FillOutcome",
    "GeneratorKind",
    "GeneratorSpec",
    "InvariantError",
    "LatencyModel",
    "MoesiState",
    "Op",
    "PolicyConfig",
    "PolicyKind",
    "ServiceSource",
    "SimStats",
    "SocketStats",
    "TopologyConfig",
    "TraceError",
    "compare",
    "format_trace",
    "generate",
    "parse_trace",
    "run",
]
