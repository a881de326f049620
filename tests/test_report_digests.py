"""Pinned sha256 digests of whole CLI reports and generated traces.

Every report here comes from a generator source, so no file path is echoed
and the bytes depend only on the simulator. Each `gen` case draws cores
from three per socket, so the seeded core draw shows in its bytes. A digest moves when anything in
the report moves: a stat, the config echo, key order or formatting. A change
that is meant to alter reports must say so and re-pin these.
"""

import hashlib

import pytest

from numacache.cli import main

CASES = {
    "run-lru": (
        ["run", "--policy", "lru", "--gen-kind", "migratory", "--sockets", "4",
         "--sets", "4", "--assoc", "4", "--working-set", "40",
         "--iterations", "3", "--seed", "3"],
        "5b32a6ef9f686aa2d4cb5b4c08b65f759b06f0aab0d93def442739a379d6ab92",
    ),
    "run-biased": (
        ["run", "--policy", "biased", "--gen-kind", "producer-consumer",
         "--pairs", "0:1,1:0", "--sets", "2", "--assoc", "4",
         "--working-set", "12", "--iterations", "6", "--home-socket", "1",
         "--seed", "5"],
        "0d18cba8cd493c1b32145fbd304929b5691dd5e198ed5b198cae1263aa5d419d",
    ),
    "run-adaptive": (
        ["run", "--policy", "adaptive", "--gen-kind", "producer-consumer",
         "--sockets", "4", "--pairs", "0:1,2:3,1:2", "--sets", "2",
         "--assoc", "4", "--working-set", "10", "--iterations", "8",
         "--window", "8", "--high-water", "0.6", "--low-water", "0.3",
         "--seed", "9"],
        "8d75732dc8fa0a9f7d1b0548a52bdcf8e474da350575a18af227d12e4312931d",
    ),
    "run-validate": (
        ["run", "--policy", "biased", "--validate", "--gen-kind",
         "producer-consumer", "--pairs", "0:1,1:0", "--sets", "2",
         "--assoc", "3", "--working-set", "7", "--iterations", "4",
         "--seed", "2"],
        "3fd1b5ef2cdb2b23253a4c8b454ff52f0e603636f059cde6b2f22f5b4b4c294b",
    ),
    "compare": (
        ["compare", "--policies", "lru,biased,adaptive", "--gen-kind",
         "producer-consumer", "--sockets", "4", "--pairs", "0:1,1:2,2:3,3:0",
         "--sets", "2", "--assoc", "4", "--working-set", "6",
         "--iterations", "6", "--window", "6", "--remote-miss-def",
         "c2c-only", "--seed", "4"],
        "3860235b1f91a280693624591249b7a214c5ad49aa099570e90ec92bd9ea1bc4",
    ),
    "table": (
        ["compare", "--policies", "lru,adaptive", "--report", "table",
         "--gen-kind", "producer-consumer", "--pairs", "0:1,1:0", "--sets", "2",
         "--assoc", "3", "--working-set", "8", "--iterations", "5",
         "--window", "4", "--seed", "1"],
        "6eab6c8affbf1d91bb536af9c156ae32230dbff0c88e217c5ca9cd4f20094eb2",
    ),
    "gen-producer-consumer": (
        ["gen", "--gen-kind", "producer-consumer", "--sockets", "4",
         "--cores-per-socket", "3", "--pairs", "0:1,2:3,1:2",
         "--working-set", "10", "--iterations", "3", "--seed", "7"],
        "bbf99f45157f584f8ea932485b4e33fb2fae9c00ac29543230b7aaffcb34a2c9",
    ),
    "gen-migratory": (
        ["gen", "--gen-kind", "migratory", "--sockets", "2",
         "--cores-per-socket", "3", "--working-set", "9", "--iterations", "2",
         "--seed", "11"],
        "9a7b11e89f5ae4cc723cf0f2f78ece5cb309156afd898b734add26a6c1d12acd",
    ),
    "gen-private": (
        ["gen", "--gen-kind", "private", "--sockets", "2",
         "--cores-per-socket", "3", "--working-set", "12", "--iterations", "2",
         "--home-socket", "1", "--seed", "5"],
        "7a1a75f05e0da2d13a6dc707a532bc21c68a4a3fb8a751d10d98b4eab7d929e9",
    ),
    "gen-shared-readonly": (
        ["gen", "--gen-kind", "shared-readonly", "--sockets", "4",
         "--cores-per-socket", "3", "--pairs", "2:0", "--working-set", "8",
         "--iterations", "2", "--seed", "13"],
        "0fbbb896ba49b1e4316f0648546c358449b154dc8b5e6182c0ea312055f3cd0e",
    ),
    # the generator shapes the rows above miss: local homes, a pinned home
    # outside producer-consumer, the default pairs, and a self pair and a
    # repeated pair
    "gen-private-local": (
        ["gen", "--gen-kind", "private", "--sockets", "4",
         "--cores-per-socket", "3", "--working-set", "5", "--iterations", "2",
         "--seed", "3"],
        "683abfc3ec9f33810dba16059125067e62a1fd6a265e0135bcaf345d1a657cb2",
    ),
    "gen-migratory-home": (
        ["gen", "--gen-kind", "migratory", "--sockets", "2",
         "--cores-per-socket", "3", "--working-set", "6", "--iterations", "2",
         "--home-socket", "1", "--seed", "17"],
        "629efa4c46370cd517a2480294b8afef09b54b54176ee15bdc510f442d2a2ddf",
    ),
    "gen-shared-readonly-default-pairs": (
        ["gen", "--gen-kind", "shared-readonly", "--sockets", "4",
         "--cores-per-socket", "3", "--working-set", "7", "--iterations", "2",
         "--seed", "19"],
        "5274f36e787621d0023b9e5a1084221e8151998ee69383ee22734d1befca5334",
    ),
    "gen-producer-consumer-self-pair": (
        ["gen", "--gen-kind", "producer-consumer", "--sockets", "2",
         "--cores-per-socket", "3", "--pairs", "0:0,1:0,1:0",
         "--working-set", "5", "--iterations", "2", "--seed", "23"],
        "b5bda85c4355fd33a3e91d1ffa7cb5bbe34354ab4e1e0f76d1b4dc83852fd943",
    ),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_bytes_pinned(capsys, name):
    argv, digest = CASES[name]
    assert main(list(argv)) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest
