"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they pass.
"""

import json
import random

import pytest

from numacache.address_map import TopologyConfig
from numacache.cli import main
from numacache.engine import PolicyConfig, PolicyKind, run
from numacache.replacement import MoesiState, select_victim

from reference_model import RefModel

TOPO = TopologyConfig(num_sockets=2, llc_sets=4, llc_assoc=4,
                      line_size_bytes=64, address_width=32)

POLICIES = {
    "lru": PolicyKind.LRU_ONLY,
    "biased": PolicyKind.BIASED_ALWAYS,
    "adaptive": PolicyKind.BIASED_ADAPTIVE,
}


def random_accesses(n, seed, sockets=2, lines=64, write_frac=0.4):
    """(socket, 'R'|'W', addr, seq) tuples; top address bit picks the home."""
    rng = random.Random(seed)
    out = []
    for i in range(n):
        addr = rng.randrange(lines) * 64 | (rng.randrange(sockets) << 31)
        op = "W" if rng.random() < write_frac else "R"
        out.append((rng.randrange(sockets), op, addr, i))
    return out


def to_records(accesses):
    return [(s, 0, o, a) for s, o, a, _ in accesses]


def test_criterion_1_oracle_equivalence():
    """10k random accesses: SimStats == brute-force reference, each policy."""
    accesses = random_accesses(10_000, seed=20260823)
    for name, kind in POLICIES.items():
        sim = run(to_records(accesses), TOPO,
                  PolicyConfig(kind, window_size=64)).to_dict()
        ref = RefModel(2, 4, 4, 64, 32, name, window=64).run(accesses)
        assert sim == ref, f"policy {name} diverges from the reference model"
    print("ACCEPTANCE 1 (oracle equivalence, 3 policies x 10k accesses): PASS")


def test_criterion_2_moesi_invariant_fuzz():
    """100 random traces x 5000 accesses, validation mode on, no violations."""
    for seed in range(100):
        accesses = random_accesses(5000, seed=seed,
                                   lines=32 + (seed % 5) * 16,
                                   write_frac=0.2 + (seed % 4) * 0.15)
        kind = list(POLICIES.values())[seed % 3]
        run(to_records(accesses), TOPO, PolicyConfig(kind, window_size=128),
            validate=True)
    print("ACCEPTANCE 2 (MOESI invariant fuzz, 100 x 5000): PASS")


def test_criterion_3_adaptive_off_equals_lru():
    """adaptive with high_water > 1 and initial bias off == lru, byte-wise.

    Compared on the stats body of the JSON report; the config echo
    necessarily differs because it names the policy.
    """
    off = PolicyConfig(high_water=1.1, low_water=0.0, initial_bias=False)
    for seed in range(20):
        recs = to_records(random_accesses(1500, seed=1000 + seed))
        lru = run(recs, TOPO, off._replace(kind=PolicyKind.LRU_ONLY))
        ada = run(recs, TOPO, off._replace(kind=PolicyKind.BIASED_ADAPTIVE))
        assert json.dumps(lru.to_dict()) == json.dumps(ada.to_dict())
    print("ACCEPTANCE 3 (bias-off adaptive reproduces lru, 20 traces): PASS")


def test_criterion_4_bias_benefit():
    """Crafted protection trace: biased beats lru on remote-C2C misses and
    total cost. Expected counts were derived from the reference model."""
    topo = TopologyConfig(num_sockets=2, llc_sets=1, llc_assoc=4,
                          line_size_bytes=64, address_width=32)
    home1 = 1 << 31
    shared = [home1 | (i * 64) for i in range(2)]  # floor(A/2) remote-home lines
    accesses = []

    def add(socket, op, addr):
        accesses.append((socket, op, addr, len(accesses)))

    for addr in shared:
        add(1, "W", addr)
    for addr in shared:
        add(0, "R", addr)
    private = 0
    for _ in range(20):
        for _ in range(3):  # stream overflows the 4-way set under LRU
            add(0, "R", private * 64)
            private += 1
        for addr in shared:
            add(0, "R", addr)

    results = {}
    for name, kind in [("lru", PolicyKind.LRU_ONLY),
                       ("biased", PolicyKind.BIASED_ALWAYS)]:
        sim = run(to_records(accesses), topo, PolicyConfig(kind)).to_dict()
        ref = RefModel(2, 1, 4, 64, 32, name).run(accesses)
        assert sim == ref
        results[name] = sim

    # frozen from the reference model
    assert results["lru"]["misses_by_source"]["remote_c2c"] == 42
    assert results["lru"]["total_cost"] == 18700
    assert results["biased"]["misses_by_source"]["remote_c2c"] == 11
    assert results["biased"]["total_cost"] == 14980
    assert (results["biased"]["misses_by_source"]["remote_c2c"]
            < results["lru"]["misses_by_source"]["remote_c2c"])
    assert results["biased"]["total_cost"] < results["lru"]["total_cost"]
    print("ACCEPTANCE 4 (bias benefit on protection trace): PASS")


def test_criterion_5_adaptive_hysteresis():
    """Two-phase trace toggles the bias on/off at hand-predicted window
    boundaries (window = 10 misses per socket)."""
    home1 = 1 << 31
    accesses = []

    def add(socket, op, addr):
        accesses.append((socket, op, addr, len(accesses)))

    # phase 1: producer at socket 1, consumer at socket 0; every socket-0
    # miss is a remote cache-to-cache supply (fraction 1.0 > 0.5)
    for i in range(10):
        addr = home1 | (i * 64)
        add(1, "W", addr)
        add(0, "R", addr)
    # phase 2: socket 0 streams fresh local-home lines (fraction 0.0 < 0.1)
    for i in range(10):
        add(0, "R", 0x10000 + i * 64)

    cfg = PolicyConfig(PolicyKind.BIASED_ADAPTIVE, window_size=10, high_water=0.5,
                       low_water=0.1, initial_bias=False)
    stats = run(to_records(accesses), TOPO, cfg)
    # socket 0's 10th miss is record 19 (on), its 20th is record 29 (off);
    # socket 1's windows stay all-local and never toggle its off flag
    assert stats.adaptive_toggles == [(19, 0, True), (29, 0, False)]
    assert stats.window_fractions[0] == [1.0, 0.0]
    print("ACCEPTANCE 5 (adaptive hysteresis at exact boundaries): PASS")


def test_criterion_6_threshold_defaults_and_counter_bounds(capsys):
    """A=16 reports t_local=4 / t_remote=8; counters bounded over 10k
    fuzzed victim selections with resets only at the threshold."""
    code = main(["run", "--gen-kind", "private", "--assoc", "16"])
    out = capsys.readouterr().out
    assert code == 0
    config = json.loads(out)["config"]
    assert config["t_local"] == 4
    assert config["t_remote"] == 8

    rng = random.Random(99)
    cfg = PolicyConfig(PolicyKind.BIASED_ALWAYS)
    fired = resets = 0
    for trial in range(100):
        assoc = rng.choice([2, 4, 8, 16])
        thresholds = cfg.thresholds(assoc)
        lines = dict.fromkeys(range(assoc))  # tag 0 is the LRU line
        counters = [0, 0]
        for _ in range(100):
            for tag in lines:
                lines[tag] = (MoesiState.REMOTE_SHARED if rng.random() < 0.5
                              else MoesiState.EXCLUSIVE)
            # `access` selects only when the LRU line is remote-shared
            lines[0] = MoesiState.REMOTE_SHARED
            home_class = rng.randrange(2)
            before = list(counters)
            count = [0] * 7  # slot 5 counts a bias event, slot 6 a reset
            victim = select_victim(lines, 0, counters, home_class, thresholds, count)
            fired, resets = fired + count[5], resets + count[6]
            for held, limit in zip(counters, thresholds):
                assert 0 <= held <= limit
            if count[6]:
                # only the LRU line's home-class counter resets, and only
                # from its threshold
                assert victim == 0
                assert before[home_class] == thresholds[home_class]
                assert counters[home_class] == 0
    assert fired and resets  # the bias and the resets were exercised
    print("ACCEPTANCE 6 (threshold defaults and counter bounds): PASS")


@pytest.mark.parametrize("argv", [
    ["gen", "--gen-kind", "producer-consumer", "--seed", "5"],
    ["run", "--policy", "adaptive", "--gen-kind", "migratory",
     "--window", "16", "--seed", "3"],
    ["compare", "--policies", "lru,biased,adaptive",
     "--gen-kind", "producer-consumer", "--iterations", "8"],
])
def test_criterion_7_determinism(capsys, argv):
    """Repeated identical invocations produce byte-identical outputs."""
    assert main(list(argv)) == 0
    first = capsys.readouterr().out
    assert main(list(argv)) == 0
    second = capsys.readouterr().out
    assert first == second
    print(f"ACCEPTANCE 7 ({argv[0]} determinism): PASS")
