import pytest

from numacache.address_map import ConfigError, TopologyConfig, decoder
from numacache.coherence import CoherenceSystem
from numacache.workload import (
    AccessRecord,
    GeneratorKind,
    GeneratorSpec,
    Op,
    TraceError,
    format_trace,
    generate,
    parse_trace,
)

TOPO = TopologyConfig(num_sockets=2, cores_per_socket=4, llc_sets=4,
                      llc_assoc=4, line_size_bytes=64, address_width=32)


class TestParse:
    def test_basic_record(self):
        recs = list(parse_trace(["0 0 R 0x1040"]))
        assert recs == [AccessRecord(0, 0, Op.READ, 0x1040, 0)]

    def test_comments_and_blanks_skipped(self):
        recs = list(parse_trace(["# comment", "", "1 2 W 0xFF00"]))
        assert recs == [AccessRecord(1, 2, Op.WRITE, 0xFF00, 0)]

    def test_bad_op_reports_line(self):
        with pytest.raises(TraceError) as exc:
            list(parse_trace(["0 0 X 0x10"]))
        assert exc.value.lineno == 1

    def test_wrong_field_count(self):
        with pytest.raises(TraceError):
            list(parse_trace(["0 R 0x10"]))

    def test_missing_hex_prefix(self):
        for line in ("0 0 R 1040", "0 0 R 0x0_40", "0 0 R 0x٤٠",
                     "0 0 R 0x", "0 0 R 0x0x40", "0 0 R 0x40g"):
            with pytest.raises(TraceError):
                list(parse_trace([line]))

    def test_non_decimal_socket_or_core(self):
        for line in ("١ 0 R 0x40", "0 ١ R 0x40", "+0 0 R 0x40",
                     "0 +0 R 0x40", "0_0 0 R 0x40", "-1 0 R 0x40",
                     "0 -1 R 0x40", "¹ 0 R 0x40"):
            with pytest.raises(TraceError) as exc:
                list(parse_trace(["# header", line]))
            assert exc.value.lineno == 2

    def test_out_of_range_socket(self):
        with pytest.raises(TraceError):
            list(parse_trace(["5 0 R 0x40"], TOPO))

    def test_out_of_range_core(self):
        with pytest.raises(TraceError):
            list(parse_trace(["0 9 R 0x40"], TOPO))

    def test_roundtrip(self):
        recs = [AccessRecord(0, 1, Op.READ, 0x40, 0),
                AccessRecord(1, 3, Op.WRITE, 0xDEADC0, 1)]
        assert list(parse_trace(format_trace(recs))) == recs


class TestGenerate:
    def test_producer_consumer_minimal(self):
        spec = GeneratorSpec(GeneratorKind.PRODUCER_CONSUMER,
                             working_set_lines=1, iterations=1)
        recs = list(generate(spec, TOPO))
        assert [(r.socket, r.op) for r in recs] == [(0, Op.WRITE), (1, Op.READ)]
        assert recs[0].addr == recs[1].addr

    def test_deterministic_for_seed(self):
        spec = GeneratorSpec(GeneratorKind.MIGRATORY, working_set_lines=4,
                             iterations=3, rng_seed=9)
        assert list(generate(spec, TOPO)) == list(generate(spec, TOPO))

    def test_private_stream_never_shares(self):
        spec = GeneratorSpec(GeneratorKind.PRIVATE_STREAM,
                             working_set_lines=3, iterations=2)
        recs = generate(spec, TOPO)
        system = CoherenceSystem(TOPO)
        for r in recs:
            system.handle_read(r.socket, r.addr)
        # no (set, tag) is held by two sockets
        held = [(set_id, tag) for llc in system.llcs
                for set_id, cset in enumerate(llc) for tag in cset.lines]
        assert held and len(held) == len(set(held))

    def test_producer_consumer_sets_remote_shared(self):
        spec = GeneratorSpec(GeneratorKind.PRODUCER_CONSUMER,
                             working_set_lines=2, iterations=2)
        recs = generate(spec, TOPO)
        system = CoherenceSystem(TOPO)
        saw_bit = False
        for r in recs:
            if r.op is Op.READ:
                system.handle_read(r.socket, r.addr)
            else:
                system.handle_write(r.socket, r.addr)
            set_id, tag = decoder(TOPO)(r.addr)
            saw_bit = saw_bit or system.llcs[r.socket][set_id].lines[tag][1]
        assert saw_bit

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
        for r in generate(spec, TOPO):
            assert r.addr >> 31 == 1

    def test_shared_readonly_shape(self):
        spec = GeneratorSpec(GeneratorKind.SHARED_READ_ONLY,
                             working_set_lines=2, iterations=1)
        recs = list(generate(spec, TOPO))
        assert [r.op for r in recs[:2]] == [Op.WRITE, Op.WRITE]
        assert all(r.op is Op.READ for r in recs[2:])
        assert len(recs) == 2 + 2 * TOPO.num_sockets

    def test_seq_is_dense(self):
        spec = GeneratorSpec(GeneratorKind.MIGRATORY, working_set_lines=2,
                             iterations=2)
        recs = list(generate(spec, TOPO))
        assert [r.seq for r in recs] == list(range(len(recs)))
