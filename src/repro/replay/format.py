"""The binary trace encoding (and the format registry).

JSONL was the reproduction's first trace format and remains a supported
export/interchange view, but at 512 nodes a few seconds of virtual time
is hundreds of thousands of events, and ``json.dumps``/``json.loads``
per event is a measurable slice of the record → load → verify loop
(experiments E13 and E16).  The primary encoding is a columnar binary
container, version 2:

* a 12-byte preamble: magic ``b"PILTRACE"``, format version (u16),
  flags (u16, bit 0 = zlib-framed body);
* a body of exactly four records, in this order — each a ``kind`` byte
  + u32 payload length + payload:

  1. **header** — the header JSON object;
  2. **checkpoints** — one JSON array of every checkpoint object;
  3. **events** — every event, column by column: a fixed part (event
     count, and the byte lengths of the type table, the fields block
     and the lines block, all u32), then the struct-packed columns
     ``index`` (u32), ``time`` (i64), ``seq`` (i64), ``node`` (i32, -1
     encodes ``None``), ``type`` (u16, an index into the type table)
     and ``line length`` (u32, in code points), then the type table (a
     JSON array of type names in first-seen order), all structured
     ``fields`` as one JSON array, and all **normalized lines
     verbatim** as one UTF-8 block — stored, not re-derived, because
     byte-identity of the normalized stream is the replay contract and
     must not depend on how a decoder re-renders tuples;
  4. **footer** — the footer JSON object;

* with flags bit 0 set, the body is carried in zlib frames (u32 raw
  length, u32 compressed length, deflate bytes), so a reader can still
  bound-check every frame before touching it.

A reader therefore decodes each block with one ``json.loads`` (or one
``struct.unpack``), never one per event.  JSON blocks are dumped with
sorted keys and compact separators, so re-encoding a loaded trace
reproduces the file byte for byte.  Only version 2 is read: an older
file fails with :class:`TraceVersionError`.

Every malformed input raises :class:`TraceFormatError` carrying the
byte offset of the fault — file-relative for the preamble and frames
(and for records of an uncompressed body), body-relative once inside a
compressed body.

Checkpoints, fingerprints, and byte-identity are defined over the
canonical normalized lines, which both encodings store verbatim — so a
trace converted between formats verifies against the same golden
fingerprint.
"""

from __future__ import annotations

import json
import struct
import zlib
from itertools import accumulate
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from repro.replay.trace import Trace

__all__ = [
    "BINARY_VERSION",
    "MAGIC",
    "TraceFormatError",
    "TraceVersionError",
    "is_binary",
    "read_binary",
    "sniff_format",
    "write_binary",
]

MAGIC = b"PILTRACE"
BINARY_VERSION = 2

#: Preamble: magic + version (u16) + flags (u16).
_PREAMBLE = struct.Struct("<8sHH")
FLAG_ZLIB = 1

#: Record prefix: kind (u8) + payload length (u32).
_RECORD = struct.Struct("<BI")
#: Events record fixed part: event count, then the byte lengths of the
#: type table, the fields block, and the lines block (all u32).
_EVENTS = struct.Struct("<IIII")
#: The per-event columns, in file order: (struct code, byte width).
_COLUMNS = (("I", 4), ("q", 8), ("q", 8), ("i", 4), ("H", 2), ("I", 4))
_ROW_BYTES = sum(width for _, width in _COLUMNS)
#: Zlib frame prefix: raw length (u32) + compressed length (u32).
_FRAME = struct.Struct("<II")

KIND_HEADER = 1
KIND_EVENTS = 2
KIND_CHECKPOINTS = 3
KIND_FOOTER = 4

#: The body's records, in the only order a file may hold them.
_LAYOUT = (KIND_HEADER, KIND_CHECKPOINTS, KIND_EVENTS, KIND_FOOTER)
_KIND_NAMES = {KIND_HEADER: "header", KIND_EVENTS: "events",
               KIND_CHECKPOINTS: "checkpoints", KIND_FOOTER: "footer"}

#: Writer chunking for the zlib-framed body.
_FRAME_RAW_SIZE = 1 << 18
#: Deflate level for the framed body.  Measured on kv/leader_partition
#: traces (EXPERIMENTS.md E16): level 3 has the lowest compress +
#: decompress time (level 6 takes 1.7x as long, for 18% fewer bytes).
_ZLIB_LEVEL = 3


class TraceFormatError(ValueError):
    """A malformed trace file: bad magic, unknown version, truncation,
    or a length prefix running past the end of the stream.

    ``offset`` is the byte position of the fault — file-relative for
    the preamble and zlib frames, record-stream-relative inside a
    compressed body (``in_frames`` says which).
    """

    def __init__(self, message: str, offset: int, in_frames: bool = False):
        where = "decompressed stream" if in_frames else "file"
        super().__init__(f"{message} (at {where} byte {offset})")
        self.offset = offset
        self.in_frames = in_frames


class TraceVersionError(TraceFormatError):
    """A well-formed trace of a version this build does not read
    (``version`` is the one found)."""

    def __init__(self, message: str, offset: int, version,
                 in_frames: bool = False):
        super().__init__(message, offset, in_frames)
        self.version = version


def _dumps(obj) -> bytes:
    """The canonical JSON form of one block."""
    return json.dumps(obj, sort_keys=True,
                      separators=(",", ":")).encode("utf-8")


# ----------------------------------------------------------------------
# Encoding
# ----------------------------------------------------------------------


def _encode_events(events) -> bytes:
    """The columnar events payload."""
    count = len(events)
    type_ids: dict[str, int] = {}
    lines = [event.line for event in events]
    columns = (
        [event.index for event in events],
        [event.time for event in events],
        [event.seq for event in events],
        [-1 if event.node is None else event.node for event in events],
        [type_ids.setdefault(event.type, len(type_ids)) for event in events],
        [len(line) for line in lines],
    )
    table = _dumps(list(type_ids))
    fields = _dumps([event.fields for event in events])
    text = "".join(lines).encode("utf-8")
    parts = [_EVENTS.pack(count, len(table), len(fields), len(text))]
    for (code, _), values in zip(_COLUMNS, columns):
        parts.append(struct.pack(f"<{count}{code}", *values))
    parts += (table, fields, text)
    return b"".join(parts)


def _encode_records(trace: "Trace") -> bytes:
    """Render a trace as the flat record stream (preamble excluded)."""
    payloads = {
        KIND_HEADER: _dumps(trace.header),
        KIND_CHECKPOINTS: _dumps([cp.to_dict() for cp in trace.checkpoints]),
        KIND_EVENTS: _encode_events(trace.events),
        KIND_FOOTER: _dumps(trace.footer),
    }
    parts: list[bytes] = []
    for kind in _LAYOUT:
        payload = payloads[kind]
        parts.append(_RECORD.pack(kind, len(payload)))
        parts.append(payload)
    return b"".join(parts)


def write_binary(trace: "Trace", path, compress: bool = True) -> None:
    """Write ``trace`` to ``path`` in the binary container format.

    The container is assembled in memory and published with
    :func:`repro.ioutil.atomic_write_bytes` (write-temp-then-rename):
    a crash mid-save leaves any previous trace at ``path`` intact
    rather than a torn file that fails :func:`read_binary`.
    """
    from repro.ioutil import atomic_write_bytes

    body = _encode_records(trace)
    flags = FLAG_ZLIB if compress else 0
    parts = [_PREAMBLE.pack(MAGIC, BINARY_VERSION, flags)]
    if compress:
        for start in range(0, len(body), _FRAME_RAW_SIZE):
            chunk = body[start:start + _FRAME_RAW_SIZE]
            packed = zlib.compress(chunk, _ZLIB_LEVEL)
            parts.append(_FRAME.pack(len(chunk), len(packed)))
            parts.append(packed)
    else:
        parts.append(body)
    atomic_write_bytes(path, b"".join(parts))


# ----------------------------------------------------------------------
# Decoding
# ----------------------------------------------------------------------


def _read_preamble(blob: bytes, path) -> int:
    """Validate magic and version; return the flags word."""
    if len(blob) < _PREAMBLE.size or not blob.startswith(MAGIC):
        raise TraceFormatError(f"bad magic in {path}: not a binary trace", 0)
    _, version, flags = _PREAMBLE.unpack_from(blob, 0)
    if version != BINARY_VERSION:
        raise TraceVersionError(
            f"unsupported binary trace version {version} "
            f"(this build reads version {BINARY_VERSION})",
            len(MAGIC), version,
        )
    return flags


def _deframe(blob: bytes, path) -> bytes:
    """Reassemble the record stream from zlib frames."""
    chunks: list[bytes] = []
    offset = _PREAMBLE.size
    end = len(blob)
    while offset < end:
        if end - offset < _FRAME.size:
            raise TraceFormatError(
                f"truncated zlib frame header in {path}", offset)
        raw_len, comp_len = _FRAME.unpack_from(blob, offset)
        offset += _FRAME.size
        if offset + comp_len > end:
            raise TraceFormatError(
                f"zlib frame length {comp_len} overruns {path}",
                offset - _FRAME.size,
            )
        try:
            chunk = zlib.decompress(blob[offset:offset + comp_len])
        except zlib.error as exc:
            raise TraceFormatError(
                f"corrupt zlib frame in {path}: {exc}", offset) from None
        if len(chunk) != raw_len:
            raise TraceFormatError(
                f"zlib frame decompressed to {len(chunk)} bytes, "
                f"expected {raw_len}, in {path}",
                offset - _FRAME.size,
            )
        chunks.append(chunk)
        offset += comp_len
    return b"".join(chunks)


def _iter_records(body: bytes, path, in_frames: bool, pos0: int = 0):
    """Yield ``(kind, payload, offset)`` triples, bound-checking every
    length prefix before slicing.  ``pos0`` offsets the reported
    positions (the preamble size when reading an uncompressed file, so
    offsets are file-relative)."""
    pos = 0
    limit = len(body)
    while pos < limit:
        if limit - pos < _RECORD.size:
            raise TraceFormatError(
                f"truncated record header in {path}", pos0 + pos, in_frames)
        kind, length = _RECORD.unpack_from(body, pos)
        payload_at = pos + _RECORD.size
        if payload_at + length > limit:
            raise TraceFormatError(
                f"record length {length} overruns {path}",
                pos0 + pos, in_frames)
        yield kind, body[payload_at:payload_at + length], pos0 + pos
        pos = payload_at + length


def _json_block(data: bytes, expect: type, what: str, offset: int, path,
                in_frames: bool):
    """One ``json.loads``, typed: the block must decode to ``expect``."""
    try:
        value = json.loads(data)
    except ValueError as exc:  # JSONDecodeError and UnicodeDecodeError
        raise TraceFormatError(
            f"corrupt JSON {what} in {path}: {exc}", offset, in_frames
        ) from None
    if type(value) is not expect:
        raise TraceFormatError(
            f"{what} in {path} is a {type(value).__name__}, "
            f"expected a {expect.__name__}", offset, in_frames)
    return value


def _decode_checkpoints(payload: bytes, offset: int, path, in_frames: bool):
    """The checkpoints record: one JSON array of checkpoint objects."""
    from repro.replay.checkpoint import Checkpoint

    data = _json_block(payload, list, "checkpoints record", offset, path,
                       in_frames)
    try:
        return [Checkpoint.from_dict(item) for item in data]
    except (KeyError, TypeError) as exc:
        raise TraceFormatError(
            f"malformed checkpoint in {path}: {type(exc).__name__}: {exc}",
            offset, in_frames) from None


def _decode_events(payload: bytes, offset: int, path, in_frames: bool):
    """The events record: columns, type table, fields, lines."""
    from repro.replay.trace import TraceEvent

    def fault(message: str, at: int = 0) -> TraceFormatError:
        return TraceFormatError(f"{message} in {path}",
                                offset + _RECORD.size + at, in_frames)

    if len(payload) < _EVENTS.size:
        raise fault("truncated events record")
    count, table_len, fields_len, text_len = _EVENTS.unpack_from(payload, 0)
    expected = (_EVENTS.size + count * _ROW_BYTES
                + table_len + fields_len + text_len)
    if expected != len(payload):
        raise fault(f"events record payload is {len(payload)} bytes, "
                    f"expected {expected} for {count} events")
    at = _EVENTS.size
    columns = []
    for code, width in _COLUMNS:
        columns.append(struct.unpack_from(f"<{count}{code}", payload, at))
        at += count * width
    indices, times, seqs, nodes, type_ids, line_lens = columns

    table = _json_block(payload[at:at + table_len], list, "type table",
                        offset + _RECORD.size + at, path, in_frames)
    if not all(type(name) is str for name in table):
        raise fault("type table holds a non-string", at)
    if count and max(type_ids) >= len(table):
        raise fault(f"type id {max(type_ids)} outside a table of "
                    f"{len(table)} names", at)
    at += table_len
    fields = _json_block(payload[at:at + fields_len], list, "fields block",
                         offset + _RECORD.size + at, path, in_frames)
    if len(fields) != count or not all(type(f) is dict for f in fields):
        raise fault(f"fields block holds {len(fields)} entries, expected "
                    f"{count} objects", at)
    at += fields_len
    try:
        text = payload[at:at + text_len].decode("utf-8")
    except UnicodeDecodeError as exc:
        raise fault(f"lines block is not UTF-8 ({exc.reason})",
                    at + exc.start) from None
    ends = list(accumulate(line_lens))
    total = ends[-1] if ends else 0
    if total != len(text):
        raise fault(f"line lengths sum to {total}, the lines block holds "
                    f"{len(text)} characters", at)
    lines = [text[start:end] for start, end in zip([0, *ends], ends)]
    return list(map(
        TraceEvent, indices, [table[i] for i in type_ids], times,
        [None if node < 0 else node for node in nodes], seqs, fields, lines,
    ))


def read_binary(path) -> "Trace":
    """Load a binary trace written by :func:`write_binary`."""
    from repro.replay.trace import TRACE_VERSION, Trace

    with open(path, "rb") as fh:
        blob = fh.read()
    flags = _read_preamble(blob, path)
    in_frames = bool(flags & FLAG_ZLIB)
    body = _deframe(blob, path) if in_frames else blob[_PREAMBLE.size:]
    pos0 = 0 if in_frames else _PREAMBLE.size

    records = []
    for kind, payload, offset in _iter_records(body, path, in_frames, pos0):
        if kind not in _KIND_NAMES:
            raise TraceFormatError(
                f"unknown record kind {kind} in {path}", offset, in_frames)
        if len(records) == len(_LAYOUT) or kind != _LAYOUT[len(records)]:
            expected = ("end of trace" if len(records) == len(_LAYOUT)
                        else f"{_KIND_NAMES[_LAYOUT[len(records)]]} record")
            raise TraceFormatError(
                f"unexpected {_KIND_NAMES[kind]} record in {path} "
                f"(expected {expected})", offset, in_frames)
        records.append((payload, offset))
    if len(records) < len(_LAYOUT):
        missing = ", ".join(_KIND_NAMES[k] for k in _LAYOUT[len(records):])
        raise TraceFormatError(
            f"truncated trace {path}: missing {missing} record(s)",
            pos0 + len(body), in_frames)
    (header_p, header_at), (cps_p, cps_at), (events_p, events_at), \
        (footer_p, footer_at) = records

    header = _json_block(header_p, dict, "header record", header_at, path,
                         in_frames)
    if header.get("version") != TRACE_VERSION:
        raise TraceVersionError(
            f"trace version {header.get('version')} unsupported "
            f"(this build reads version {TRACE_VERSION})",
            header_at, header.get("version"), in_frames,
        )
    checkpoints = _decode_checkpoints(cps_p, cps_at, path, in_frames)
    events = _decode_events(events_p, events_at, path, in_frames)
    footer = _json_block(footer_p, dict, "footer record", footer_at, path,
                         in_frames)
    return Trace(header, events, checkpoints, footer)


# ----------------------------------------------------------------------
# Sniffing
# ----------------------------------------------------------------------


def is_binary(path) -> bool:
    """Whether ``path`` starts with the binary trace magic."""
    with open(path, "rb") as fh:
        return fh.read(len(MAGIC)) == MAGIC


def sniff_format(path) -> str:
    """``"binary"`` or ``"jsonl"``, decided by content, not extension.

    A file that is neither (wrong magic and not a JSON line) raises
    :class:`TraceFormatError` at offset 0 rather than letting the JSONL
    parser choke on binary garbage.
    """
    with open(path, "rb") as fh:
        head = fh.read(max(len(MAGIC), 16))
    if head.startswith(MAGIC):
        return "binary"
    if head.lstrip()[:1] == b"{":
        return "jsonl"
    raise TraceFormatError(
        f"bad magic in {path}: neither a binary trace nor JSONL", 0)
