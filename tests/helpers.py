"""Test helpers: the parser's records, and one access of a `CoherenceSystem`
given by its address, as `run` makes them."""

from itertools import chain, starmap

from numacache.address_map import decode
from numacache.workload import parse_blocks, record_blocks


def parse_records(lines, topo):
    """The (socket, core, op, addr) records of `parse_blocks`, then its error."""
    return chain.from_iterable(starmap(zip, parse_blocks(lines, topo)))


def access(system, topo, socket, op, addr, count, bias_enabled=False):
    """Whether one access of `op` on `addr` by `socket` missed, run through
    `system.simulate` with the set index and tag of `run`'s check-and-decode
    step; `record_blocks` refuses an op other than "R" or "W" and an address
    that `topo` cannot hold. The access adds into `count`, and a window of
    one miss tells whether it missed."""
    blocks = decode(record_blocks([(socket, 0, op, addr)], topo), topo)
    accesses = chain.from_iterable(starmap(zip, blocks))
    sockets = topo.num_sockets
    misses = []
    system.simulate(accesses, [count] * sockets, [bias_enabled] * sockets,
                    [1] * sockets, misses.append)
    return bool(misses)
