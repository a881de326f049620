"""Trace-driven ccNUMA multi-socket LLC simulator with MOESI coherence and
a remote-sharing-biased replacement policy."""

from .address_map import ConfigError, TopologyConfig
from .engine import (InvariantError, LatencyModel, PolicyConfig, PolicyKind, SimStats,
                     compare, run)
from .workload import GeneratorKind, GeneratorSpec, TraceError, format_trace, generate

__all__ = [
    "ConfigError",
    "GeneratorKind",
    "GeneratorSpec",
    "InvariantError",
    "LatencyModel",
    "PolicyConfig",
    "PolicyKind",
    "SimStats",
    "TopologyConfig",
    "TraceError",
    "compare",
    "format_trace",
    "generate",
    "run",
]
