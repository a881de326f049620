"""Every config record checks its fields, however it is built."""

import copy
import inspect
import pickle
import re

import pytest

from numacache import (
    AdaptiveConfig,
    GeneratorKind,
    GeneratorSpec,
    LatencyModel,
    PolicyConfig,
    TopologyConfig,
)

MIGRATORY = GeneratorSpec(GeneratorKind.MIGRATORY)
CONFIGS = [TopologyConfig(), AdaptiveConfig(), PolicyConfig(), LatencyModel(), MIGRATORY]

# (a valid config, one of its checked fields, a value it refuses, the message)
REFUSED = [
    (TopologyConfig(), "num_sockets", 3, "num_sockets must be a power of two, got 3"),
    (TopologyConfig(), "cores_per_socket", 0, "cores_per_socket must be >= 1"),
    (TopologyConfig(), "llc_sets", 16.0, "llc_sets must be an int, got 16.0"),
    (TopologyConfig(), "llc_assoc", 1, "llc_assoc must be >= 2"),
    (TopologyConfig(), "line_size_bytes", True, "line_size_bytes must be an int, got True"),
    (TopologyConfig(), "address_width", 8,
     "socket, set, and line-offset bits exceed the address width"),
    (AdaptiveConfig(), "window_size", 0, "window_size must be >= 1"),
    (AdaptiveConfig(), "window_size", 2.5, "window_size must be an int, got 2.5"),
    (AdaptiveConfig(), "high_water", 0.05, "need 0 <= low_water <= high_water"),
    (AdaptiveConfig(), "low_water", -0.1, "need 0 <= low_water <= high_water"),
    (AdaptiveConfig(), "high_water", "x", "high_water must be a finite number, got 'x'"),
    (AdaptiveConfig(), "high_water", float("inf"),
     "high_water must be a finite number, got inf"),
    (AdaptiveConfig(), "low_water", True, "low_water must be a finite number, got True"),
    (AdaptiveConfig(), "initial_bias", "off", "initial_bias must be a bool, got 'off'"),
    (AdaptiveConfig(), "count_remote_dram", "no",
     "count_remote_dram must be a bool, got 'no'"),
    (PolicyConfig(), "kind", "biased", "unknown policy kind 'biased'"),
    (PolicyConfig(), "t_local", 1.5, "t_local must be an int, got 1.5"),
    (PolicyConfig(), "t_remote", True, "t_remote must be an int, got True"),
    (LatencyModel(), "llc_hit", 1.5, "llc_hit must be an int, got 1.5"),
    (LatencyModel(), "remote_c2c", 400, "need llc_hit < remote_c2c <= remote_dram"),
    (LatencyModel(), "local_dram", -1, "latency costs must be >= 0"),
    (LatencyModel(), "remote_dram", 100, "need llc_hit < remote_c2c <= remote_dram"),
    (MIGRATORY, "kind", "migratory", "unknown generator kind 'migratory'"),
    (MIGRATORY, "working_set_lines", 0, "working_set_lines and iterations must be >= 1"),
    (MIGRATORY, "iterations", 0, "working_set_lines and iterations must be >= 1"),
    (MIGRATORY, "working_set_lines", 2.5, "working_set_lines must be an int, got 2.5"),
    (MIGRATORY, "iterations", True, "iterations must be an int, got True"),
    (MIGRATORY, "rng_seed", 1.5, "rng_seed must be an int, got 1.5"),
    (MIGRATORY, "home_socket", 0.0, "home_socket must be an int, got 0.0"),
    (MIGRATORY, "sharing_socket_pairs", ((0, 1.0),),
     "sharing_socket_pairs must hold int pairs, got ((0, 1.0),)"),
    (MIGRATORY, "sharing_socket_pairs", [(True, 1)],
     "sharing_socket_pairs must hold int pairs, got [(True, 1)]"),
    (MIGRATORY, "sharing_socket_pairs", ((0, 1, 1),),
     "sharing_socket_pairs must hold int pairs, got ((0, 1, 1),)"),
]


def with_value(config, field, value) -> list:
    """`config`'s field values, with `value` in place of `field`'s."""
    return [value if name == field else old for name, old in zip(config._fields, config)]


# each public way of building a config from field values
WAYS = {
    "keywords": lambda config, field, value: type(config)(**{**config._asdict(), field: value}),
    "positional": lambda config, field, value: type(config)(*with_value(config, field, value)),
    "_make": lambda config, field, value: type(config)._make(with_value(config, field, value)),
    "_replace": lambda config, field, value: config._replace(**{field: value}),
}


@pytest.mark.parametrize("way", WAYS)
@pytest.mark.parametrize("config, field, value, message", REFUSED,
                         ids=[f"{type(c).__name__}.{f}={v!r}" for c, f, v, _ in REFUSED])
def test_every_way_of_building_checks(way, config, field, value, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        WAYS[way](config, field, value)


@pytest.mark.parametrize("config", CONFIGS, ids=lambda c: type(c).__name__)
def test_copies_are_equal_configs(config):
    for twin in (copy.copy(config), copy.deepcopy(config),
                 pickle.loads(pickle.dumps(config))):
        assert type(twin) is type(config) and twin == config


@pytest.mark.parametrize("config", CONFIGS, ids=lambda c: type(c).__name__)
def test_configs_are_immutable(config):
    with pytest.raises(AttributeError):
        setattr(config, config._fields[0], config[0])
    with pytest.raises(AttributeError):
        config.extra = 1


@pytest.mark.parametrize("config", CONFIGS, ids=lambda c: type(c).__name__)
def test_constructor_signature_is_the_fields(config):
    parameters = inspect.signature(type(config)).parameters.values()
    assert [p.name for p in parameters] == list(config._fields)
    assert {p.name: p.default for p in parameters if p.default is not p.empty} \
        == config._field_defaults
