"""Wire protocol for the eviction-as-a-service server (version 2).

Every frame is one ``RAF1`` frame, the framing :mod:`repro.store.frames`
writes to disk: ``u32 LE length + u32 LE crc32(payload) + payload``.  The
length word is checked against :data:`MAX_FRAME_BYTES` before the payload
is read and the payload against its CRC, so an oversized, torn or
bit-flipped frame is a typed :class:`FrameError`, not a hung read or a
wrong decision.  The first payload byte names the kind:

* ``{`` — a JSON object: the control requests (``bind``, ``ping``,
  ``stats``, ``snapshot``, ``shutdown``) and every reply.
* ``V`` — a victim request: tenant, idempotent request id, a full set
  snapshot and the triggering access.  Always answered, by the policy or
  by the per-shard LRU fallback, with ``source``/``reason`` saying which;
  a retransmitted id gets the recorded reply.
* ``H`` — a one-way lifecycle hook (``on_hit`` / ``on_miss`` /
  ``on_evict`` / ``on_fill``), kept in order by the connection.

``V`` and ``H`` are fixed little-endian :mod:`struct` layouts, tabled
field by field in docs/serving.md.  Lines carry their recency rank and
two ages, never the client's stamps; the server turns the ages back into
stamps and rebuilds a *real* :class:`~repro.cache.cache_set.CacheSet`, so
server-side policies see the in-process object surface.  That is what
makes no-fault server-backed reports byte-identical to in-process ones.
A field that does not fit its layout raises :class:`FrameError` at
encode.
"""

from __future__ import annotations

import json
import struct
import zlib

from repro.cache.block import CacheLine
from repro.cache.cache_set import CacheSet
from repro.cache.config import CacheConfig
from repro.store import frames
from repro.store.frames import FRAME_PREFIX
from repro.traces.record import AccessType, TraceRecord

#: Upper bound on one frame's payload; a larger length word is refused
#: before anything is read.  A 16-way set snapshot is ~1.3 KiB.
MAX_FRAME_BYTES = 256 * 1024

#: Protocol version, echoed in bind and ping replies.  Version 2 replaced
#: the newline-delimited JSON of version 1 with the framing above.
PROTOCOL_VERSION = 2

#: u16 length prefix of a text field.
TEXT_LEN = struct.Struct("<H")
#: The access: address, pc, access type, instr_delta, core.
ACCESS = struct.Struct("<QQBIH")
#: The set header: index, ways, accesses, accesses since miss, misses.
SET_HEADER = struct.Struct("<IHQQQ")
#: A hook: kind (index into HOOK_KINDS), set index, way (0 for on_miss).
HOOK = struct.Struct("<BIH")
#: An invalid way: flags (0) and rank.
EMPTY_LINE = struct.Struct("<BH")
#: A valid way: flags, rank, tag, line address, offset, core, insertion
#: pc, last pc, last access type, insertion type, preuse, age since
#: insertion, age since last access, hits since insertion and the four
#: per-type access counts.
LINE = struct.Struct("<BHQQBHQQBBIIIIIIII")

LINE_VALID = 1
LINE_DIRTY = 2

HOOK_KINDS = ("on_hit", "on_miss", "on_evict", "on_fill")
_HOOK_CODES = {kind: code for code, kind in enumerate(HOOK_KINDS)}
_ACCESS_TYPES = tuple(AccessType)
#: ``json.dumps`` builds a new encoder per call for non-default separators.
_compact_json = json.JSONEncoder(separators=(",", ":")).encode


class FrameError(ValueError):
    """A malformed, truncated, oversized, or type-invalid frame."""


# -- framing -------------------------------------------------------------------


def encode_frame(frame: dict) -> bytes:
    """One wire frame: a packed request's ``payload`` as is, any other
    request or reply as compact JSON."""
    payload = frame.get("payload")
    if payload is None:
        payload = _compact_json(frame).encode("utf-8")
    if len(payload) > MAX_FRAME_BYTES:
        raise FrameError(
            f"frame of {len(payload)} bytes exceeds MAX_FRAME_BYTES "
            f"({MAX_FRAME_BYTES})"
        )
    return frames.encode_frame(payload)


def frame_header(prefix: bytes) -> tuple:
    """``(length, crc)`` of a frame prefix; refuses oversized lengths."""
    length, crc = FRAME_PREFIX.unpack(prefix)
    if length > MAX_FRAME_BYTES:
        raise FrameError(
            f"frame too large: {length} bytes declared, limit "
            f"{MAX_FRAME_BYTES}"
        )
    return length, crc


def check_payload(payload: bytes, crc: int) -> bytes:
    if zlib.crc32(payload) != crc:
        raise FrameError(f"checksum mismatch over {len(payload)} byte(s)")
    return payload


def read_frame(read) -> bytes:
    """One frame's payload from a blocking ``read(n)`` (typed errors only)."""
    prefix = read(FRAME_PREFIX.size)
    if len(prefix) < FRAME_PREFIX.size:
        raise FrameError("connection closed mid-frame (truncated prefix)")
    length, crc = frame_header(prefix)
    payload = read(length)
    if len(payload) < length:
        raise FrameError("connection closed mid-frame (truncated payload)")
    return check_payload(payload, crc)


def decode_frame(payload: bytes) -> dict:
    """Parse a JSON payload into a frame dict (typed errors only)."""
    try:
        frame = json.loads(payload)
    except (UnicodeDecodeError, json.JSONDecodeError) as error:
        raise FrameError(f"malformed frame: {error}") from error
    if not isinstance(frame, dict):
        raise FrameError(
            f"frame must be a JSON object, got {type(frame).__name__}"
        )
    return frame


# -- packed codecs -------------------------------------------------------------


def _text(value: str) -> bytes:
    data = value.encode("utf-8")
    return TEXT_LEN.pack(len(data)) + data


def _read_text(payload: bytes, offset: int) -> tuple:
    # A short text leaves too few bytes for the fixed layout after it.
    (length,) = TEXT_LEN.unpack_from(payload, offset)
    offset += TEXT_LEN.size
    return payload[offset:offset + length].decode("utf-8"), offset + length


def _unfit(what: str, error: Exception) -> FrameError:
    return FrameError(f"{what} does not fit the wire layout: {error}")


def pack_line(line: CacheLine, rank: int, now: int) -> bytes:
    """One line record.  ``rank`` is the line's recency position and
    ``now`` its set's access count: the record carries ages, not stamps."""
    try:
        if not line.valid:
            return EMPTY_LINE.pack(0, rank)
        return LINE.pack(
            (LINE_VALID | LINE_DIRTY) if line.dirty else LINE_VALID, rank,
            line.tag, line.line_address, line.offset, line.core,
            line.insertion_pc, line.last_pc, line.last_access_type,
            line.insertion_type, line.preuse, now - line.fill_at,
            now - line.stamp, line.hits_since_insertion, *line.access_counts,
        )
    except struct.error as error:
        raise _unfit("cache line", error) from error


def pack_lines(cache_set) -> list:
    """Every line record of a set, in way order."""
    now = cache_set.accesses
    return [pack_line(line, rank, now)
            for line, rank in zip(cache_set.lines, cache_set.ranks())]


def _unpack_lines(payload: bytes, offset: int, ways: int, now: int) -> list:
    """Rebuild ``ways`` line records, the rest of ``payload``, for a set
    that has made ``now`` accesses."""
    lines = []
    types = _ACCESS_TYPES
    for _ in range(ways):
        if not payload[offset] & LINE_VALID:
            lines.append(CacheLine())
            offset += EMPTY_LINE.size
            continue
        (flags, _rank, tag, line_address, line_offset, core, insertion_pc,
         last_pc, last_type, insertion_type, preuse, age_insert, age_access,
         hits, *counts) = LINE.unpack_from(payload, offset)
        lines.append(CacheLine(
            True, tag, line_address, bool(flags & LINE_DIRTY), line_offset,
            core, insertion_pc, last_pc, types[last_type],
            types[insertion_type], preuse, hits, counts, now - age_access,
            now - age_insert,
        ))
        offset += LINE.size
    if offset != len(payload):
        raise FrameError(f"{len(payload) - offset} trailing byte(s) in frame")
    return lines


def _pack_access(access) -> bytes:
    return ACCESS.pack(access.address, access.pc, access.access_type,
                       access.instr_delta, access.core)


def _unpack_access(payload: bytes, offset: int) -> TraceRecord:
    address, pc, access_type, instr_delta, core = ACCESS.unpack_from(
        payload, offset
    )
    return TraceRecord(address, pc, _ACCESS_TYPES[access_type], instr_delta,
                       core)


def victim_request(tenant: str, request_id: str, set_index: int, cache_set,
                   access, lines: list = None) -> dict:
    """A victim request: ``op`` and ``id`` for the client, the packed
    ``V`` payload for the wire.  ``lines`` are the set's
    :func:`pack_lines` records when the caller already has them."""
    if lines is None:
        lines = pack_lines(cache_set)
    try:
        head = [
            b"V", _text(tenant), _text(request_id),
            SET_HEADER.pack(set_index, cache_set.ways, cache_set.accesses,
                            cache_set.accesses_since_miss, cache_set.misses),
            _pack_access(access),
        ]
    except struct.error as error:
        raise _unfit("victim request", error) from error
    return {"op": "victim", "id": request_id,
            "payload": b"".join(head + lines)}


def decode_victim(payload: bytes) -> tuple:
    """``(tenant, request_id, set_index, cache_set, access)`` of a ``V``
    payload; the set is a real :class:`CacheSet`."""
    try:
        tenant, offset = _read_text(payload, 1)
        request_id, offset = _read_text(payload, offset)
        index, ways, now, since_miss, misses = SET_HEADER.unpack_from(
            payload, offset
        )
        offset += SET_HEADER.size
        access = _unpack_access(payload, offset)
        cache_set = CacheSet(index, ways, _unpack_lines(
            payload, offset + ACCESS.size, ways, now
        ))
    except (struct.error, IndexError, UnicodeDecodeError) as error:
        raise FrameError(f"invalid victim request: {error}") from error
    cache_set.accesses = now
    cache_set.accesses_since_miss = since_miss
    cache_set.misses = misses
    return tenant, request_id, index, cache_set, access


def hook_request(tenant: str, kind: str, set_index: int, access,
                 way: int = None, line: bytes = None) -> dict:
    """A lifecycle event; ``line`` is already a :func:`pack_line` record."""
    try:
        head = b"".join([
            b"H", _text(tenant),
            HOOK.pack(_HOOK_CODES[kind], set_index, way or 0),
            _pack_access(access),
        ])
    except struct.error as error:
        raise _unfit("hook", error) from error
    return {"op": "hook", "payload": head + line if line else head}


def decode_hook(payload: bytes) -> tuple:
    """``(tenant, kind, set_index, way, line, access)`` of an ``H``
    payload; ``way`` and ``line`` are ``None`` for ``on_miss``."""
    try:
        tenant, offset = _read_text(payload, 1)
        code, set_index, way = HOOK.unpack_from(payload, offset)
        kind = HOOK_KINDS[code]
        offset += HOOK.size
        access = _unpack_access(payload, offset)
        offset += ACCESS.size
        if kind == "on_miss":
            if offset != len(payload):
                raise FrameError("an on_miss hook carries no line")
            return tenant, kind, set_index, None, None, access
        (line,) = _unpack_lines(payload, offset, 1, 0)  # ages count from 0
    except (struct.error, IndexError, UnicodeDecodeError) as error:
        raise FrameError(f"invalid hook: {error}") from error
    return tenant, kind, set_index, way, line, access


# -- control ops ---------------------------------------------------------------


def config_to_wire(config: CacheConfig) -> dict:
    return {
        "name": config.name,
        "size_bytes": config.size_bytes,
        "ways": config.ways,
        "latency": config.latency,
        "line_size": config.line_size,
    }


def config_from_wire(data: dict) -> CacheConfig:
    try:
        return CacheConfig(
            name=str(data["name"]),
            size_bytes=int(data["size_bytes"]),
            ways=int(data["ways"]),
            latency=int(data["latency"]),
            line_size=int(data.get("line_size", 64)),
        )
    except (KeyError, TypeError, ValueError) as error:
        raise FrameError(f"invalid config payload {data!r}: {error}") from error


def bind_request(tenant: str, policy: str, config: CacheConfig,
                 params: dict = None, allow_bypass: bool = False) -> dict:
    return {
        "op": "bind",
        "tenant": tenant,
        "policy": policy,
        "params": params or {},
        "config": config_to_wire(config),
        "allow_bypass": bool(allow_bypass),
        "protocol": PROTOCOL_VERSION,
    }


def error_reply(message: str, request_id: str = None) -> dict:
    reply = {"ok": False, "error": str(message)}
    if request_id is not None:
        reply["id"] = request_id
    return reply
