"""The framed wire protocol (repro.serve.protocol): codecs and framing.

The hypothesis round trip runs with ``REPRO_FUZZ_EXAMPLES`` examples when
that is set; the CI ``serve-chaos`` job sets it and pins
``--hypothesis-seed``.
"""

from __future__ import annotations

import io
import os
import socket

import pytest

from repro.cache.block import CacheLine
from repro.cache.cache_set import CacheSet
from repro.cache.config import CacheConfig
from repro.serve.client import PolicyClient, ServerBackedPolicy
from repro.serve.protocol import (
    EMPTY_LINE,
    LINE,
    MAX_FRAME_BYTES,
    PROTOCOL_VERSION,
    FrameError,
    bind_request,
    config_from_wire,
    config_to_wire,
    decode_frame,
    decode_hook,
    decode_victim,
    encode_frame,
    error_reply,
    hook_request,
    pack_line,
    pack_lines,
    read_frame,
    victim_request,
)
from repro.serve.server import ServeConfig, start_in_thread
from repro.store.frames import FRAME_PREFIX
from repro.traces.record import AccessType, TraceRecord

_BUDGET = int(os.environ.get("REPRO_FUZZ_EXAMPLES", "0"))

U64 = (1 << 64) - 1


def _config() -> CacheConfig:
    return CacheConfig("llc", 64 * 1024, 16, 30)


def _record(address: int = 0x1000, pc: int = 0x40) -> TraceRecord:
    return TraceRecord(address=address, pc=pc,
                       access_type=AccessType.LOAD, core=0)


def _populated_set(ways: int = 4) -> CacheSet:
    cache_set = CacheSet(3, ways)
    record = _record()
    for way in range(ways - 1):  # one way left invalid on purpose
        cache_set.accesses += 1
        line = cache_set.fill(way, 0x100 + way, 0x4000 + way, record)
        cache_set.accesses += 1
        line.touch(_record(pc=0x99), cache_set.accesses)
    cache_set.accesses = 17
    cache_set.accesses_since_miss = 5
    cache_set.misses = 3
    return cache_set


def _line_fields(line: CacheLine) -> tuple:
    return (line.valid, line.tag, line.line_address, line.dirty, line.offset,
            line.core, line.insertion_pc, line.last_pc,
            line.last_access_type, line.insertion_type, line.preuse,
            line.hits_since_insertion, line.access_counts, line.stamp,
            line.fill_at)


def _assert_same_set(back: CacheSet, original: CacheSet) -> None:
    assert isinstance(back, CacheSet)
    assert back.index == original.index
    assert back.ways == original.ways
    assert back.accesses == original.accesses
    assert back.accesses_since_miss == original.accesses_since_miss
    assert back.misses == original.misses
    assert back.ranks() == original.ranks()
    assert back.way_of == original.way_of
    assert back.lru_way() == original.lru_way()
    for mine, theirs in zip(back.lines, original.lines):
        assert mine.valid == theirs.valid
        if theirs.valid:
            assert _line_fields(mine) == _line_fields(theirs)


class TestFraming:
    def test_round_trip(self):
        frame = {"op": "ping", "n": 1}
        wire = encode_frame(frame)
        assert decode_frame(read_frame(io.BytesIO(wire).read)) == frame

    def test_encoded_frame_is_length_and_crc_prefixed(self):
        wire = encode_frame({"op": "ping"})
        length, _crc = FRAME_PREFIX.unpack_from(wire)
        assert length == len(wire) - FRAME_PREFIX.size
        assert wire[FRAME_PREFIX.size:].startswith(b"{")

    def test_oversized_frame_rejected_on_encode(self):
        with pytest.raises(FrameError, match="exceeds MAX_FRAME_BYTES"):
            encode_frame({"blob": "x" * MAX_FRAME_BYTES})

    def test_oversized_length_word_rejected_before_reading(self):
        prefix = FRAME_PREFIX.pack(MAX_FRAME_BYTES + 1, 0)
        reads = []

        def read(size):
            reads.append(size)
            return prefix if len(reads) == 1 else b""

        with pytest.raises(FrameError, match="too large"):
            read_frame(read)
        assert reads == [FRAME_PREFIX.size]

    def test_torn_frame_is_a_frame_error(self):
        wire = encode_frame({"op": "ping"})
        for cut in (3, FRAME_PREFIX.size + 2):
            with pytest.raises(FrameError, match="mid-frame"):
                read_frame(io.BytesIO(wire[:cut]).read)

    def test_garbage_rejected_on_decode(self):
        with pytest.raises(FrameError):
            decode_frame(b"{not json}")

    def test_non_object_rejected_on_decode(self):
        with pytest.raises(FrameError, match="object"):
            decode_frame(b"[1, 2]")

    def test_error_reply_shape(self):
        reply = error_reply("boom", "req-1")
        assert reply["ok"] is False
        assert reply["error"] == "boom"
        assert reply["id"] == "req-1"


class TestAccessCodec:
    def test_round_trip(self):
        record = TraceRecord(address=0xDEAD, pc=0xBEEF,
                             access_type=AccessType.PREFETCH, core=2)
        frame = hook_request("t1", "on_miss", 4, record)
        back = decode_hook(frame["payload"])[-1]
        assert back == record
        assert back.access_type is record.access_type


def _line_back(record: bytes) -> CacheLine:
    """The line of a record, as the server rebuilds it from a hook."""
    frame = hook_request("t1", "on_evict", 0, _record(), 0, record)
    return decode_hook(frame["payload"])[4]


class TestLineCodec:
    def test_invalid_line_round_trip(self):
        record = pack_line(CacheLine(), 9, 0)
        assert record == EMPTY_LINE.pack(0, 9)  # a flag and the rank only
        back = _line_back(record)
        assert not back.valid
        assert pack_line(back, 9, 0) == record

    def test_valid_line_round_trip_preserves_table2_metadata(self):
        line = CacheLine()
        line.fill(0x77, 0x4000, _record(), now=5)
        line.touch(_record(pc=0x99), now=11)
        record = pack_line(line, 2, 20)
        fields = LINE.unpack(record)
        # rank, then age since insertion and since last access
        assert (fields[1], fields[11], fields[12]) == (2, 15, 9)
        back = _line_back(record)  # a hook's line: its ages count from 0
        assert (back.stamp, back.fill_at) == (-9, -15)
        assert _line_fields(back)[:-2] == _line_fields(line)[:-2]
        assert pack_line(back, 2, 0) == record


class TestSetCodec:
    def test_round_trip_rebuilds_a_real_cache_set(self):
        original = _populated_set()
        frame = victim_request("t1", "t1-1", 3, original, _record())
        _, _, set_index, back, _ = decode_victim(frame["payload"])
        assert set_index == 3
        _assert_same_set(back, original)
        assert back.ranks() == [1, 2, 3, 0]
        assert pack_lines(back) == pack_lines(original)

    def test_bad_set_state_raises_frame_error(self):
        payload = victim_request("t1", "t1-1", 3, _populated_set(),
                                 _record())["payload"]
        for bad in (payload[:-1], payload + b"\0", payload[:20]):
            with pytest.raises(FrameError):
                decode_victim(bad)


class TestConfigCodec:
    def test_round_trip(self):
        config = _config()
        assert config_from_wire(config_to_wire(config)) == config


class TestRequestBuilders:
    def test_bind_request(self):
        frame = bind_request("t1", "lru", _config(), {"x": 1}, False)
        assert frame["op"] == "bind"
        assert frame["tenant"] == "t1"
        assert frame["policy"] == "lru"
        assert frame["protocol"] == PROTOCOL_VERSION == 2
        assert config_from_wire(frame["config"]) == _config()

    def test_hook_request(self):
        cache_set = _populated_set()
        record = pack_lines(cache_set)[1]
        frame = hook_request("t1", "on_evict", 4, _record(), 1, record)
        assert frame["op"] == "hook"
        assert frame["payload"].startswith(b"H")
        tenant, kind, set_index, way, line, access = decode_hook(
            frame["payload"]
        )
        assert (tenant, kind, set_index, way) == ("t1", "on_evict", 4, 1)
        assert access == _record()
        assert pack_line(line, 2, 0) == record
        miss = decode_hook(hook_request("t1", "on_miss", 4,
                                        _record())["payload"])
        assert miss[1:5] == ("on_miss", 4, None, None)

    def test_victim_request_is_self_contained(self):
        cache_set = _populated_set()
        frame = victim_request("t1", "t1-9", 3, cache_set, _record())
        assert frame["op"] == "victim"
        assert frame["id"] == "t1-9"
        assert frame["payload"].startswith(b"V")
        tenant, request_id, _, rebuilt, access = decode_victim(
            frame["payload"]
        )
        assert (tenant, request_id) == ("t1", "t1-9")
        assert rebuilt.lru_way() == cache_set.lru_way()
        assert access == _record()
        # The frame survives a real frame encode/read cycle.
        wire = encode_frame(frame)
        assert read_frame(io.BytesIO(wire).read) == frame["payload"]


class TestOutOfRange:
    @pytest.mark.parametrize("field, value", [
        ("tag", 1 << 64),
        ("insertion_pc", -1),
        ("offset", 256),
        ("core", 1 << 16),
        ("hits_since_insertion", 1 << 32),
    ])
    def test_line_field_out_of_range_raises_at_encode(self, field, value):
        cache_set = _populated_set()
        setattr(cache_set.lines[0], field, value)
        with pytest.raises(FrameError, match="does not fit"):
            victim_request("t1", "t1-1", 3, cache_set, _record())

    def test_access_out_of_range_raises_at_encode(self):
        huge = _record(address=1 << 64)
        with pytest.raises(FrameError, match="does not fit"):
            victim_request("t1", "t1-1", 3, _populated_set(), huge)
        with pytest.raises(FrameError, match="does not fit"):
            hook_request("t1", "on_miss", 3, huge)

    def test_adapter_serves_local_lru_and_counts_it(self):
        policy = ServerBackedPolicy("lru", "127.0.0.1", 1)
        policy._tenant = "t-range"
        client = policy._ensure_client()
        client.request = client.send = pytest.fail  # never reaches the wire
        cache_set = _populated_set()
        cache_set.lines[1].last_pc = 1 << 64
        assert policy.victim(3, cache_set, _record()) == cache_set.lru_way()
        assert policy.local_fallbacks == 1
        policy.on_miss(3, _record(address=1 << 64))
        assert client.dropped_hooks == 1
        policy.close()


def _flipped(wire: bytes, bit: int) -> bytes:
    damaged = bytearray(wire)
    damaged[bit // 8] ^= 1 << (bit % 8)
    return bytes(damaged)


class TestBitFlips:
    def _frames(self) -> dict:
        cache_set = _populated_set(16)
        cache_set.accesses = 40  # past the 30 accesses that filled it
        records = pack_lines(cache_set)
        return {
            "V": encode_frame(victim_request("t1", "t1-1", 3, cache_set,
                                             _record(), records)),
            "H": encode_frame(hook_request("t1", "on_evict", 3, _record(),
                                           2, records[2])),
        }

    @pytest.mark.parametrize("kind", ["V", "H"])
    def test_every_single_bit_flip_is_rejected(self, kind):
        wire = self._frames()[kind]
        for bit in range(len(wire) * 8):
            with pytest.raises(FrameError):
                read_frame(io.BytesIO(_flipped(wire, bit)).read)

    def test_server_rejects_flipped_frames_and_stays_up(self):
        frames = self._frames()
        refusals = 0
        with start_in_thread(ServeConfig()) as handle:
            for kind, wire in frames.items():
                # a payload bit, a CRC bit, and length-word bits that
                # shrink, grow past the frame, and grow past the limit
                for bit in (8 * len(wire) - 3, 33, 0, 5, 30):
                    with socket.create_connection(
                        (handle.host, handle.port), timeout=5
                    ) as raw:
                        raw.sendall(_flipped(wire, bit))
                        raw.shutdown(socket.SHUT_WR)
                        reader = raw.makefile("rb")
                        if reader.peek(1):
                            reply = decode_frame(read_frame(reader.read))
                            assert reply["ok"] is False, (kind, bit)
                            assert "bad frame" in reply["error"]
                            refusals += 1
            # A frame cut short by a grown length word gets EOF, not a
            # reply; the payload, CRC and too-large flips all get one.
            assert refusals >= 3 * len(frames)
            client = PolicyClient(handle.host, handle.port)
            assert client.ping()["op"] == "pong"
            assert handle.server.shards == {}  # nothing was applied
            client.close()

    def test_v1_ndjson_gets_a_typed_too_large_refusal(self):
        with start_in_thread(ServeConfig()) as handle:
            with socket.create_connection(
                (handle.host, handle.port), timeout=5
            ) as raw:
                raw.sendall(b'{"op": "ping"}\n')
                reply = decode_frame(read_frame(raw.makefile("rb").read))
            assert reply["ok"] is False
            assert "too large" in reply["error"]
            client = PolicyClient(handle.host, handle.port)
            assert client.ping()["protocol"] == PROTOCOL_VERSION
            client.close()


# -- hypothesis round trip -----------------------------------------------------

hypothesis = pytest.importorskip("hypothesis")
import hypothesis.strategies as st  # noqa: E402
from hypothesis import given, settings  # noqa: E402

U32 = (1 << 32) - 1
_U32 = st.integers(0, U32)


@st.composite
def cache_sets(draw) -> CacheSet:
    """1-16 ways, partly filled, every Table II field drawn at random.

    Stamps are distinct, as in a real set (one line is touched per set
    access), so recency order is total.
    """
    ways = draw(st.integers(1, 16))
    valid = draw(st.lists(st.booleans(), min_size=ways, max_size=ways))
    count = sum(valid)
    accesses = draw(st.integers(count, 1 << 40))
    oldest = max(0, accesses - U32)  # ages must fit their u32 fields
    stamps = iter(draw(st.lists(st.integers(oldest, accesses),
                                min_size=count, max_size=count, unique=True)))
    tags = iter(draw(st.lists(st.integers(0, U64), min_size=count,
                              max_size=count, unique=True)))
    types = st.sampled_from(list(AccessType))
    lines = []
    for is_valid in valid:
        if not is_valid:
            lines.append(CacheLine())
            continue
        stamp = next(stamps)
        lines.append(CacheLine(
            True, next(tags), draw(st.integers(0, U64)), draw(st.booleans()),
            draw(st.integers(0, 63)), draw(st.integers(0, (1 << 16) - 1)),
            draw(st.integers(0, U64)), draw(st.integers(0, U64)),
            draw(types), draw(types), draw(_U32), draw(_U32),
            draw(st.lists(_U32, min_size=4, max_size=4)), stamp,
            draw(st.integers(oldest, stamp)),
        ))
    cache_set = CacheSet(draw(st.integers(0, (1 << 32) - 1)), ways, lines)
    cache_set.accesses = accesses
    cache_set.accesses_since_miss = draw(st.integers(0, U64))
    cache_set.misses = draw(st.integers(0, U64))
    return cache_set


accesses = st.builds(
    TraceRecord, address=st.integers(0, U64), pc=st.integers(0, U64),
    access_type=st.sampled_from(list(AccessType)), instr_delta=_U32,
    core=st.integers(0, (1 << 16) - 1),
)


@settings(max_examples=_BUDGET or 100, deadline=None, print_blob=True)
@given(cache_set=cache_sets(), access=accesses,
       tenant=st.text(max_size=20), seq=st.integers(0, U64))
def test_packed_set_round_trip(cache_set, access, tenant, seq):
    request_id = f"{tenant}-{seq}"
    frame = victim_request(tenant, request_id, cache_set.index, cache_set,
                           access)
    got_tenant, got_id, set_index, back, got_access = decode_victim(
        frame["payload"]
    )
    assert (got_tenant, got_id, set_index) == (tenant, request_id,
                                               cache_set.index)
    assert got_access == access
    _assert_same_set(back, cache_set)
    now = cache_set.accesses
    for mine, theirs in zip(back.lines, cache_set.lines):
        if theirs.valid:
            assert now - mine.stamp == now - theirs.stamp
            assert now - mine.fill_at == now - theirs.fill_at
    again = victim_request(tenant, request_id, set_index, back, got_access)
    assert again["payload"] == frame["payload"]
    # each line also survives a hook frame on its own
    for way, record in enumerate(pack_lines(cache_set)):
        hook = hook_request(tenant, "on_evict", set_index, access, way,
                            record)
        line = decode_hook(hook["payload"])[4]
        rank = EMPTY_LINE.unpack_from(record)[1]
        assert pack_line(line, rank, 0) == record
