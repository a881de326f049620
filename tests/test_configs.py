"""Every config record checks its fields, however it is built."""

import copy
import inspect
import math
import pickle
import re
from itertools import islice
from typing import Optional, Sequence

import pytest
from hypothesis import given, settings, strategies as st

from numacache import (
    ConfigError,
    GeneratorKind,
    GeneratorSpec,
    LatencyModel,
    PolicyConfig,
    PolicyKind,
    TopologyConfig,
    generate,
    run,
)

MIGRATORY = GeneratorSpec(GeneratorKind.MIGRATORY)
# a window short enough that a 64-record run closes some, so the watermarks steer
POLICY = PolicyConfig(PolicyKind.BIASED_ADAPTIVE, window_size=4)
CONFIGS = [TopologyConfig(), POLICY, LatencyModel(), MIGRATORY]

# (a valid config, one of its checked fields, a value it refuses, the message)
REFUSED = [
    (TopologyConfig(), "num_sockets", 3, "num_sockets must be a power of two, got 3"),
    (TopologyConfig(), "cores_per_socket", 0, "cores_per_socket must be >= 1"),
    (TopologyConfig(), "llc_sets", 16.0, "llc_sets must be an int, got 16.0"),
    (TopologyConfig(), "llc_assoc", 1, "llc_assoc must be >= 2"),
    (TopologyConfig(), "line_size_bytes", True, "line_size_bytes must be an int, got True"),
    (TopologyConfig(), "address_width", 8,
     "socket, set, and line-offset bits exceed the address width"),
    (TopologyConfig(), "address_width", 2**70, "address_width must be <= 1024"),
    (PolicyConfig(), "kind", "biased", "unknown policy kind 'biased'"),
    (PolicyConfig(), "t_local", 1.5, "t_local must be an int, got 1.5"),
    (PolicyConfig(), "t_remote", True, "t_remote must be an int, got True"),
    (PolicyConfig(), "window_size", 0, "window_size must be >= 1"),
    (PolicyConfig(), "window_size", 2.5, "window_size must be an int, got 2.5"),
    (PolicyConfig(), "high_water", 0.05, "need 0 <= low_water <= high_water"),
    (PolicyConfig(), "low_water", -0.1, "need 0 <= low_water <= high_water"),
    (PolicyConfig(), "high_water", "x", "high_water must be a finite number, got 'x'"),
    (PolicyConfig(), "high_water", float("inf"),
     "high_water must be a finite number, got inf"),
    (PolicyConfig(), "low_water", True, "low_water must be a finite number, got True"),
    (PolicyConfig(), "initial_bias", "off", "initial_bias must be a bool, got 'off'"),
    (PolicyConfig(), "count_remote_dram", "no",
     "count_remote_dram must be a bool, got 'no'"),
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


# values of every kind but an Enum member's, right or wrong for a field
POOL = (True, 1.0, 2.5, "1", None, (), -1, 2**70, 2**2000, float("nan"), float("inf"),
        ((0, 1.0),))


def is_int(value) -> bool:
    return type(value) is int  # the pool holds no int subclass but bool


# each field annotation -> (whether it takes a value, the message refusing one)
KINDS = {
    int: (is_int, "{name} must be an int, got {value!r}"),
    Optional[int]: (lambda v: v is None or is_int(v), "{name} must be an int, got {value!r}"),
    float: (lambda v: is_int(v) or type(v) is float and math.isfinite(v),
            "{name} must be a finite number, got {value!r}"),
    bool: (lambda v: type(v) is bool, "{name} must be a bool, got {value!r}"),
    Sequence[tuple[int, int]]: (
        lambda v: type(v) in (tuple, list)
        and all(type(p) in (tuple, list) and [*map(type, p)] == [int, int] for p in v),
        "{name} must hold int pairs, got {value!r}"),
    PolicyKind: (lambda v: isinstance(v, PolicyKind), "unknown policy kind {value!r}"),
    GeneratorKind: (lambda v: isinstance(v, GeneratorKind),
                    "unknown generator kind {value!r}"),
}

# the records a run is made of when it varies one of them
RUN = {type(config): config for config in CONFIGS}
# 64 migratory records on the default topology, which every variant runs
TRACE = list(islice(generate(MIGRATORY, TopologyConfig()), 64))
DRAWS = [(config, field, value) for config in CONFIGS for field in config._fields
         for value in POOL]


@settings(max_examples=len(DRAWS), derandomize=True, deadline=None)
@given(st.sampled_from(DRAWS))
def test_each_field_refuses_exactly_what_its_annotation_refuses(draw):
    """A record with one field drawn from `POOL` is refused with its kind's
    message exactly when the field's annotation does not take the value;
    otherwise it fails its own range check with a ValueError, or drives a
    run (and a generator its records) with no TypeError or OverflowError,
    though the run may refuse it with a ValueError."""
    config, field, value = draw
    takes, message = KINDS[type(config).__annotations__[field]]
    try:
        record = config._replace(**{field: value})
    except ValueError as error:  # the kind's ConfigError, or a range check's
        kind_error = isinstance(error, ConfigError) and str(error) == message.format(
            name=field, value=value)
        assert kind_error != takes(value)
        return
    assert takes(value)
    records = {**RUN, type(record): record}
    topo = records[TopologyConfig]
    try:
        trace = islice(generate(record, topo), 64) if type(record) is GeneratorSpec else TRACE
        run(trace, topo, records[PolicyConfig]).to_dict(records[LatencyModel])
    except ValueError:
        pass
