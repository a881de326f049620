"""A third oracle: closed-form counts from the generator's own table.

For four generator kinds, each socket's counts follow by hand from the
order in which `generate` walks its lines and from the coherence rules in
the README, with no model of the caches: per set, a cyclic walk of `k`
lines under LRU misses `k` times once they fit in the associativity and on
every access once they do not (Mattson, Gecsei, Slutz and Traiger, 1970).
`run`'s per-socket counts (see `SimStats.counts`) must equal them under
all three policies, on sockets {2, 4}, sets {1, 4, 8}, associativity
{2, 4}, working sets {1, 3, 8, 17} and iterations {1, 3}.

- `private`: socket s reads its own block of n lines, the same way each
  iteration. No other socket holds them and none is written, so each miss
  is a DRAM fill, local unless the home is pinned to another socket,
  nothing is written back, and no line is installed remote-shared, so no
  policy ever biases or resets a counter.
- `migratory` where every set fits (at most `assoc` of its n lines map to
  any set): the sockets, in turn, read and write each line. Socket 0's
  first reads fill from DRAM; every later read misses and is served by
  the Modified copy of the socket before it, and every write hits,
  upgrading. Nothing is evicted, so no policy ever picks a victim.
- `shared-readonly` where every set fits: the writer (the first pair's
  first socket) writes each line once, a DRAM fill that leaves it
  Modified; then each socket in turn reads it, every iteration. The
  writer's reads hit. In the first iteration every other socket misses,
  and whatever Shared copies it meets, the writer's Modified or Owner
  copy supplies it (a remote C2C transfer, which leaves the writer Owner);
  every later read hits. Nothing is written back or evicted.
- `producer-consumer` where every set fits: pair i's first socket writes
  each line of block i and its second socket then reads it. The first
  write is a DRAM fill; the read misses, served by the writer's Modified
  copy (C2C), which becomes Owner. Each later write hits and upgrades,
  invalidating the reader's copy, so each later read misses again and is
  served by the writer's copy. A pair whose ends are one socket hits on
  each read and on each write after the first. The blocks are disjoint,
  so each socket's counts are the sums over the pairs it is an end of.

Left out, for want of a form short enough to state here: `migratory`,
`shared-readonly` and `producer-consumer` where a set overflows (an
eviction then meets remote-shared lines and the bias counters), the
adaptive windows and toggles (the counts above never depend on the bias,
so the toggles are not compared), and a topology of one socket.
"""

import pytest

from numacache.address_map import TopologyConfig
from numacache.engine import PolicyConfig, PolicyKind, run
from numacache.workload import GeneratorKind, GeneratorSpec, generate

TOPOLOGIES = [TopologyConfig(num_sockets=sockets, llc_sets=sets, llc_assoc=assoc)
              for sockets in (2, 4) for sets in (1, 4, 8) for assoc in (2, 4)]
WORKING_SETS = (1, 3, 8, 17)
ITERATIONS = (1, 3)


def per_set(lines: range, sets: int) -> list[int]:
    """How many of `lines` map to each of `sets` sets."""
    return [len(lines[index::sets]) for index in range(sets)]


def simulated(spec: GeneratorSpec, topo: TopologyConfig, kind: PolicyKind) -> list:
    return run(generate(spec, topo), topo, PolicyConfig(kind)).counts


def dram(misses: int, home: int, socket: int) -> list[int]:
    """The (remote C2C, local DRAM, remote DRAM) slots of `misses` DRAM
    fills of lines homed on `home`, by `socket`."""
    return [0, misses, 0] if home == socket else [0, 0, misses]


@pytest.mark.parametrize("pinned", [False, True], ids=["local home", "pinned home"])
@pytest.mark.parametrize("kind", list(PolicyKind), ids=lambda kind: kind.value)
def test_private(kind, pinned):
    for topo in TOPOLOGIES:
        home = topo.num_sockets - 1 if pinned else None
        for n in WORKING_SETS:
            for iterations in ITERATIONS:
                spec = GeneratorSpec(GeneratorKind.PRIVATE_STREAM, working_set_lines=n,
                                     iterations=iterations, home_socket=home)
                expected = []
                for socket in range(topo.num_sockets):
                    lines = range(socket * n, socket * n + n)
                    misses = sum(k if k <= topo.llc_assoc else k * iterations
                                 for k in per_set(lines, topo.llc_sets))
                    expected.append([n * iterations - misses,
                                     *dram(misses, socket if home is None else home, socket),
                                     0, 0, 0])
                assert simulated(spec, topo, kind) == expected, (topo, n, iterations)


@pytest.mark.parametrize("kind", list(PolicyKind), ids=lambda kind: kind.value)
def test_migratory_where_every_set_fits(kind):
    shapes = 0
    for topo in TOPOLOGIES:
        for n in WORKING_SETS:
            if max(per_set(range(n), topo.llc_sets)) > topo.llc_assoc:
                continue
            for iterations in ITERATIONS:
                shapes += 1
                spec = GeneratorSpec(GeneratorKind.MIGRATORY, working_set_lines=n,
                                     iterations=iterations)
                # every line is homed on socket 0, which reads it first
                accesses = n * iterations
                expected = [[accesses, accesses - n, n, 0, 0, 0, 0]]
                expected += [[accesses, accesses, 0, 0, 0, 0, 0]] * (topo.num_sockets - 1)
                assert simulated(spec, topo, kind) == expected, (topo, n, iterations)
    assert shapes == 64  # 32 of the 48 (topology, working set) pairs fit


@pytest.mark.parametrize("kind", list(PolicyKind), ids=lambda kind: kind.value)
def test_shared_readonly_where_every_set_fits(kind):
    shapes = 0
    for topo in TOPOLOGIES:
        for n in WORKING_SETS:
            if max(per_set(range(n), topo.llc_sets)) > topo.llc_assoc:
                continue
            # every line is homed on socket 0: local to one writer, remote to the other
            for writer in (0, topo.num_sockets - 1):
                for iterations in ITERATIONS:
                    shapes += 1
                    spec = GeneratorSpec(GeneratorKind.SHARED_READ_ONLY, working_set_lines=n,
                                         iterations=iterations,
                                         sharing_socket_pairs=((writer, 0),))
                    reads = n * iterations
                    expected = [[reads - n, n, 0, 0, 0, 0, 0]] * topo.num_sockets
                    expected[writer] = [reads, *dram(n, 0, writer), 0, 0, 0]
                    assert simulated(spec, topo, kind) == expected, (topo, n, writer, iterations)
    assert shapes == 128  # the 32 (topology, working set) pairs that fit, two writers


@pytest.mark.parametrize("kind", list(PolicyKind), ids=lambda kind: kind.value)
def test_producer_consumer_where_every_set_fits(kind):
    shapes = 0
    for topo in TOPOLOGIES:
        last = topo.num_sockets - 1
        # every line is homed on socket 0; one pair's ends are one socket
        for pairs in (((0, 1),), ((last, 0), (1, 1), (0, last))):
            for n in WORKING_SETS:
                if max(per_set(range(len(pairs) * n), topo.llc_sets)) > topo.llc_assoc:
                    continue
                for iterations in ITERATIONS:
                    shapes += 1
                    spec = GeneratorSpec(GeneratorKind.PRODUCER_CONSUMER, working_set_lines=n,
                                         iterations=iterations, sharing_socket_pairs=pairs)
                    expected = [[0] * 7 for _ in range(topo.num_sockets)]
                    for producer, consumer in pairs:
                        if producer == consumer:  # a fill, then hits on a Modified line
                            counts = [[2 * n * iterations - n, *dram(n, 0, producer)]]
                        else:
                            counts = [[n * iterations - n, *dram(n, 0, producer)],
                                      [0, n * iterations, 0, 0]]
                        for socket, add in zip((producer, consumer), counts):
                            expected[socket][:4] = map(sum, zip(expected[socket], add))
                    assert simulated(spec, topo, kind) == expected, (topo, pairs, n, iterations)
    assert shapes == 100  # 32 one-block and 18 three-block shapes fit
