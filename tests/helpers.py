"""Test helpers: the parser's records, and one access of a `CoherenceSystem`
given by its address, as `run` makes them."""

from itertools import chain, starmap

from numacache.address_map import decode
from numacache.workload import parse_blocks, record_blocks


def parse_records(lines, topo):
    """The (socket, core, op, addr) records of `parse_blocks`, then its error."""
    return chain.from_iterable(starmap(zip, parse_blocks(lines, topo)))


def access(system, topo, socket, op, addr, count, bias_enabled=False):
    """`system.access` of `op` on `addr`, whose set index and tag come from
    `run`'s check-and-decode step; `record_blocks` refuses an op other than
    "R" or "W" and an address that `topo` cannot hold."""
    records = record_blocks([(socket, 0, op, addr)], topo)
    [(_, _, [set_id], [tag])] = decode(records, topo)
    return system.access(socket, op, set_id, tag, count, bias_enabled)
