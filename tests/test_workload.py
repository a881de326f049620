import io
import os
import random
import tracemalloc
from contextlib import ExitStack
from itertools import chain, islice, starmap

import pytest
from hypothesis import given, settings, strategies as st

from numacache import workload
from numacache.address_map import ConfigError, TopologyConfig
from numacache.coherence import CoherenceSystem
from numacache.replacement import MoesiState
from numacache.workload import (
    GeneratorKind,
    GeneratorSpec,
    TraceError,
    _parse_lines,
    format_trace,
    generate,
    parse_blocks,
)

from helpers import access, parse_records

TOPO = TopologyConfig(num_sockets=2, cores_per_socket=4, llc_sets=4,
                      llc_assoc=4, line_size_bytes=64, address_width=32)
# wide enough that every out-of-range kind of TOPO is a record
WIDE = TopologyConfig(num_sockets=1 << 70, cores_per_socket=1 << 70,
                      address_width=128)


class TestParse:
    def test_basic_record(self):
        recs = list(parse_records(["0 0 R 0x1040"], TOPO))
        assert recs == [(0, 0, "R", 0x1040)]

    def test_comments_and_blanks_skipped(self):
        recs = list(parse_records(["# comment", "", "1 2 W 0xFF00"], TOPO))
        assert recs == [(1, 2, "W", 0xFF00)]

    def test_bad_op_reports_line(self):
        with pytest.raises(TraceError) as exc:
            list(parse_records(["0 0 X 0x10"], TOPO))
        assert exc.value.lineno == 1
        # an op is exactly one of the letters R and W, in upper case
        for op in ("r", "w", "RW", "RR"):
            lines = ["0 0 R 0x40", f"0 0 {op} 0x10", "0 0 W 0x40"]
            with pytest.raises(TraceError) as exc:
                list(parse_records(lines, TOPO))
            assert str(exc.value) == f"line 2: operation must be R or W, got {op!r}"

    def test_wrong_field_count(self):
        with pytest.raises(TraceError):
            list(parse_records(["0 R 0x10"], TOPO))

    def test_missing_hex_prefix(self):
        for line in ("0 0 R 1040", "0 0 R 0x0_40", "0 0 R 0x٤٠",
                     "0 0 R 0x", "0 0 R 0x0x40", "0 0 R 0x40g"):
            with pytest.raises(TraceError):
                list(parse_records([line], TOPO))

    def test_non_decimal_socket_or_core(self):
        for line in ("١ 0 R 0x40", "0 ١ R 0x40", "+0 0 R 0x40",
                     "0 +0 R 0x40", "0_0 0 R 0x40", "-1 0 R 0x40",
                     "0 -1 R 0x40", "¹ 0 R 0x40"):
            with pytest.raises(TraceError) as exc:
                list(parse_records(["# header", line], TOPO))
            assert exc.value.lineno == 2

    def test_out_of_range_socket(self):
        with pytest.raises(TraceError):
            list(parse_records(["5 0 R 0x40"], TOPO))

    def test_out_of_range_core(self):
        with pytest.raises(TraceError):
            list(parse_records(["0 9 R 0x40"], TOPO))

    def test_roundtrip(self):
        recs = [(0, 1, "R", 0x40), (1, 3, "W", 0xDEADC0)]
        assert list(parse_records(format_trace(recs), TOPO)) == recs


def canonical_line(rng: random.Random) -> str:
    """A record line of the canonical form, in range of TOPO."""
    socket = str(rng.randrange(2)).zfill(rng.choice((1, 1, 3)))
    addr = f"{rng.randrange(1 << 32):x}"
    addr = addr.upper() if rng.random() < 0.2 else addr
    return f"{socket} {rng.randrange(4)} {rng.choice('RW')} 0x{addr}\n"


# runs of list elements that are not one canonical line of TOPO each
ODD_RUNS = [(element,) for element in [
    # records in another form, comments and blank lines
    "# a comment\n", "\n", "   \n", "\t\n", "0\t1\tR\t0x40\n",
    "0 1 R 0x40\r\n", "  0 1 R 0x40\n", "0 1 R 0x40  \n", "0  1 R 0x40\n",
    "0 1 W 0X7f\n", "1 3 R 0xABCdef\n",
    # non-ASCII bytes, as text or as a file's undecodable byte
    "0 1 R 0x4\u00e9\n", "\uff10 1 R 0x40\n", "0 1 R 0x\udcff\n",
    # every malformed-record kind
    "0 R 0x40\n", "0 0 0 R 0x40\n", "x 0 R 0x40\n", "0 +1 R 0x40\n",
    "-1 0 R 0x40\n", "0 0 X 0x40\n", "0 0 r 0x40\n", "0 0 R 40\n",
    "0 0 R 0x4_0\n", "0 0 R 0xg\n", "0 0 R 0x\n", "0 0 R 0x0x40\n",
    # every out-of-range kind (records under WIDE)
    "2 0 R 0x40\n", "0 4 R 0x40\n", "0 0 R 0x100000000\n",
    "99999999999999999999 0 R 0x40\n",
    # fields longer than int() converts: out of range, and in range once
    # their leading zeros are dropped
    "1" * 5000 + " 0 R 0x40\n", "0 " + "1" * 5000 + " R 0x40\n",
    "0" * 5000 + "1 0 R 0x40\n", "0 " + "0" * 5000 + "3 R 0x40\n",
    # elements holding two lines, or lacking the trailing newline
    "0 0 R 0x40\n1 1 W 0x80\n", "0 0 R 0x40\n1 1 W 0x8", "0 0 R 0x40",
    "0 0 R 0x4", "# no newline",
    # an element whose tab-led second line makes a block's text canonical
    "0 0 R 0x40\n\t1 1 W 0x80\n",
]] + [
    # two elements whose joined text is two canonical lines
    ("0 0 R 0x40\n1 1 W 0x8", "0\n"),
    ("0 0 R 0x4", "0\n"),
    ("0 0", "R 0x40\n 1 1 W 0x80\n"),
]


def run_id(run) -> str:
    """A run's repr, cut short past 80 characters."""
    text = repr(run)
    return text if len(text) <= 80 else f"{text[:40]}...({len(text)} chars)"


def outcome(records):
    """The records an iterator yields, then its TraceError (or None)."""
    seen = []
    try:
        for record in records:
            seen.append(record)
    except TraceError as exc:
        return seen, (str(exc), exc.lineno)
    return seen, None


@st.composite
def traces(draw):
    """Canonical lines, longer than one block, with odd elements mixed in."""
    rng = random.Random(draw(st.integers(0, 2**32)))
    lines = [canonical_line(rng) for _ in range(draw(st.integers(513, 1600)))]
    # placed by the seeded generator, so every block is as likely to be hit
    for _ in range(draw(st.integers(0, 6))):
        run = rng.choice(ODD_RUNS)
        index = rng.randrange(len(lines) - 1)
        lines[index:index + len(run)] = run
    return lines


class TestParseBlocks:
    @settings(max_examples=150, deadline=None)
    @given(traces(), st.sampled_from([WIDE, TOPO]))
    def test_same_as_line_by_line(self, lines, topo):
        assert outcome(parse_records(lines, topo)) == outcome(_parse_lines(lines, topo))

    # a line index in the first, the second and the last of three blocks
    @pytest.mark.parametrize("index", [100, 700, 1060])
    @pytest.mark.parametrize("run", ODD_RUNS, ids=run_id)
    def test_each_odd_run_in_each_block(self, monkeypatch, run, index):
        rng = random.Random(index)
        lines = [canonical_line(rng) for _ in range(1100)]
        lines[index:index + len(run)] = run
        expected = outcome(_parse_lines(lines, TOPO))
        assert outcome(parse_records(lines, TOPO)) == expected
        # the CLI's reader of the parser's blocks yields the same tuples
        # and the same error, in process and when made to parse all but
        # the first block in a forked process
        monkeypatch.setattr(workload, "_FORK_AFTER", 1)
        for cpus in ({0}, {0, 1}):
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus,
                                raising=False)
            with ExitStack() as files:
                blocks = parse_blocks(lines, TOPO)
                records = chain.from_iterable(starmap(zip, workload.read_ahead(blocks, files)))
                assert outcome(records) == expected

    @pytest.mark.parametrize("mixed", ["socket", "core"])
    def test_one_digit_and_wider_columns_convert_alike(self, monkeypatch, mixed):
        # the `mixed` column of each block mixes widths and leading zeros,
        # which int() converts; the other holds one digit per field, which
        # one bytes.translate of the joined column converts
        topo = TopologyConfig(num_sockets=16, cores_per_socket=16)
        rng = random.Random(mixed)
        lines = []
        for _ in range(1100):
            fields = [str(rng.randrange(10)), rng.choice(["0", "00", "07", "10"])]
            if mixed == "socket":
                fields.reverse()
            lines.append(f"{fields[0]} {fields[1]} R 0x{rng.randrange(1 << 32):x}\n")
        expected = list(_parse_lines(lines, topo))
        # every block takes the fast path
        monkeypatch.setattr(workload, "_parse_lines", None)
        assert list(parse_records(lines, topo)) == expected

    def test_records_before_a_bad_line_make_one_block(self):
        rng = random.Random(3)
        lines = [canonical_line(rng) for _ in range(1100)]
        lines[700] = "0 0 Q 0x40\n"
        blocks = parse_blocks(lines, TOPO)
        assert [len(block[0]) for block in islice(blocks, 2)] == [512, 188]
        with pytest.raises(TraceError, match="^line 701: operation must be R or W"):
            next(blocks)

    def test_elements_joined_into_canonical_lines(self):
        # the block's text is two canonical lines, but its first element
        # holds two lines and its second one a fragment
        lines = ["0 0 R 0x40\n1 1 W 0x8", "0\n"]
        with pytest.raises(TraceError, match="line 1: expected 4 fields, got 8"):
            list(parse_records(lines, TOPO))

    @pytest.mark.parametrize("lines, message", [
        # joined by single spaces, a fragment and then a line and a
        # space-led line would read as two canonical lines
        (["0 0", "R 0x40\n 1 1 W 0x80\n"], "expected 4 fields, got 2"),
        # joined by tabs, one element holding a line and a tab-led line
        # reads as two canonical lines
        (["0 0 R 0x40\n\t1 1 W 0x80\n"], "expected 4 fields, got 8"),
    ])
    def test_elements_whose_joined_text_hides_their_lines(self, lines, message):
        rng = random.Random(7)
        lines = lines + [canonical_line(rng) for _ in range(600)]
        assert outcome(parse_records(lines, TOPO)) == ([], (f"line 1: {message}", 1))

    @pytest.mark.parametrize("lineno", [512, 513, 1025])
    @pytest.mark.parametrize("bad, message", [
        ("0 0 R 0x4_0\n", "address must be 0x-prefixed hex, got '0x4_0'"),
        ("2 0 R 0x40\n", "socket 2 out of range"),
        ("0 4 R 0x40\n", "core 4 out of range"),
        ("0 0 W 0x100000000\n", "address 0x100000000 exceeds address width"),
    ])
    def test_error_at_block_boundary(self, lineno, bad, message):
        rng = random.Random(lineno)
        lines = [canonical_line(rng) for _ in range(1100)]
        lines[lineno - 1] = bad
        records, error = outcome(parse_records(io.StringIO("".join(lines)), TOPO))
        # every record before the bad line is yielded first
        assert len(records) == lineno - 1
        assert error == (f"line {lineno}: {message}", lineno)


class TestGenerate:
    def test_producer_consumer_minimal(self):
        spec = GeneratorSpec(GeneratorKind.PRODUCER_CONSUMER,
                             working_set_lines=1, iterations=1)
        [(s0, _, op0, addr0), (s1, _, op1, addr1)] = generate(spec, TOPO)
        assert [(s0, op0), (s1, op1)] == [(0, "W"), (1, "R")]
        assert addr0 == addr1

    def test_deterministic_for_seed(self):
        spec = GeneratorSpec(GeneratorKind.MIGRATORY, working_set_lines=4,
                             iterations=3, rng_seed=9)
        assert list(generate(spec, TOPO)) == list(generate(spec, TOPO))

    def test_private_stream_never_shares(self):
        spec = GeneratorSpec(GeneratorKind.PRIVATE_STREAM,
                             working_set_lines=3, iterations=2)
        recs = generate(spec, TOPO)
        system = CoherenceSystem(TOPO, (1, 2))
        for socket, _, op, addr in recs:
            access(system, TOPO, socket, op, addr, [0] * 7)
        # no (set, tag) is held by two sockets
        held = [(set_id, tag) for set_id, column in enumerate(system.columns)
                for lines in column for tag in lines]
        assert held and len(held) == len(set(held))

    def test_producer_consumer_sets_remote_shared(self):
        spec = GeneratorSpec(GeneratorKind.PRODUCER_CONSUMER,
                             working_set_lines=2, iterations=2)
        recs = generate(spec, TOPO)
        system = CoherenceSystem(TOPO, (1, 2))
        saw_remote_shared = False
        for socket, _, op, addr in recs:
            access(system, TOPO, socket, op, addr, [0] * 7)
            set_id, tag = (addr >> 6) & 3, addr >> 8  # TOPO's layout
            state = system.columns[set_id][socket][tag]
            saw_remote_shared = saw_remote_shared or state is MoesiState.REMOTE_SHARED
        assert saw_remote_shared

    def test_negative_sockets_rejected(self):
        for spec in (
            GeneratorSpec(GeneratorKind.MIGRATORY, home_socket=-1),
            GeneratorSpec(GeneratorKind.PRODUCER_CONSUMER,
                          sharing_socket_pairs=[(-1, 0)]),
            GeneratorSpec(GeneratorKind.PRODUCER_CONSUMER,
                          sharing_socket_pairs=[(0, -2)]),
        ):
            with pytest.raises(ConfigError):
                generate(spec, TOPO)

    def test_only_the_pair_sockets_a_kind_reads_are_checked(self):
        # shared-readonly reads only its first pair's first socket, which
        # writes the lines: socket 5 of TOPO's two is never read
        read_only = GeneratorSpec(GeneratorKind.SHARED_READ_ONLY, working_set_lines=2,
                                  iterations=1, sharing_socket_pairs=((0, 5),))
        assert [(s, op) for s, _, op, _ in generate(read_only, TOPO)] \
            == [(0, "W")] * 2 + [(0, "R")] * 2 + [(1, "R")] * 2
        with pytest.raises(ConfigError, match=r"^socket pair \(5, 0\) out of range$"):
            generate(read_only._replace(sharing_socket_pairs=((5, 0),)), TOPO)
        # private and migratory read no pair; producer-consumer every end
        for kind in (GeneratorKind.PRIVATE_STREAM, GeneratorKind.MIGRATORY):
            assert list(generate(GeneratorSpec(kind, sharing_socket_pairs=((7, 9),)), TOPO))
        with pytest.raises(ConfigError, match=r"^socket pair \(0, 5\) out of range$"):
            generate(GeneratorSpec(GeneratorKind.PRODUCER_CONSUMER,
                                   sharing_socket_pairs=((1, 0), (0, 5), (7, 0))), TOPO)

    def test_groups_are_made_as_the_loop_reaches_them(self):
        # a topology may have more sockets than fit in memory: the first
        # record costs no memory per socket
        topo = TopologyConfig(num_sockets=1 << 16, llc_sets=1, address_width=64)
        for kind in GeneratorKind:
            tracemalloc.start()
            try:
                assert next(generate(GeneratorSpec(kind), topo))
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 1 << 20, (kind, peak)

    def test_overflow_rejected_when_called(self):
        topo = TopologyConfig(num_sockets=2, address_width=16)
        for spec in (
            # 600 lines of a 512-line space; only the second pair overflows
            GeneratorSpec(GeneratorKind.PRODUCER_CONSUMER, working_set_lines=300,
                          sharing_socket_pairs=[(0, 1), (1, 0)]),
            GeneratorSpec(GeneratorKind.PRIVATE_STREAM, working_set_lines=257),
            GeneratorSpec(GeneratorKind.MIGRATORY, working_set_lines=513),
            GeneratorSpec(GeneratorKind.SHARED_READ_ONLY, working_set_lines=513),
        ):
            with pytest.raises(ConfigError, match="address space"):
                generate(spec, topo)
        # the largest working set that fits
        spec = GeneratorSpec(GeneratorKind.MIGRATORY, working_set_lines=512,
                             iterations=1)
        assert len(list(generate(spec, topo))) == 2 * 2 * 512

    def test_home_socket_override(self):
        spec = GeneratorSpec(GeneratorKind.PRODUCER_CONSUMER,
                             working_set_lines=2, iterations=1, home_socket=1)
        for _, _, _, addr in generate(spec, TOPO):
            assert addr >> 31 == 1

    def test_shared_readonly_shape(self):
        spec = GeneratorSpec(GeneratorKind.SHARED_READ_ONLY,
                             working_set_lines=2, iterations=1)
        ops = [op for _, _, op, _ in generate(spec, TOPO)]
        assert ops == ["W", "W"] + ["R"] * 2 * TOPO.num_sockets
