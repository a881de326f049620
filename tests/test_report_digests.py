"""Pinned sha256 digests of whole CLI reports.

Every report here comes from a generator source, so no file path is echoed
and the bytes depend only on the simulator. A digest moves when anything in
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
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_bytes_pinned(capsys, name):
    argv, digest = CASES[name]
    assert main(list(argv)) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest
