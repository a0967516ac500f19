"""The binary trace container: round-trips, sniffing, and corruption.

Every malformed-input path must raise a typed
:class:`repro.replay.TraceFormatError` carrying the byte offset of the
fault — a debugger's traces are its evidence, so a corrupt file has to
say *where* it broke, not die in ``struct.unpack``.
"""

import struct

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import MS, record_run
from repro.replay import Trace, TraceFormatError, sniff_format
from repro.replay.cli import main as replay_cli
from repro.replay.format import MAGIC, _PREAMBLE, _RECORD

PING = """
proc main()
  var r: int := remote svc.echo(1)
  print r
end
"""

ECHO = "proc echo(x: int) returns int\n  return x\nend"


def small_trace():
    def build(cluster):
        image = cluster.load_program(ECHO, "b")
        cluster.rpc("b").export_vm("svc", image, {"echo": "echo"})
        client = cluster.load_program(PING, "a")
        cluster.spawn_vm("a", client, "main")
    return record_run(build, ["a", "b"], seed=3, run_until=100 * MS)


@pytest.fixture(scope="module")
def trace():
    return small_trace()


# ----------------------------------------------------------------------
# Round-trips
# ----------------------------------------------------------------------


@pytest.mark.parametrize("compress", [True, False], ids=["zlib", "raw"])
def test_binary_round_trip_is_lossless(trace, tmp_path, compress):
    from repro.replay.format import write_binary

    path = tmp_path / "t.trace.bin"
    write_binary(trace, path, compress=compress)
    loaded = Trace.load(path)
    assert loaded.lines() == trace.lines()
    assert loaded.header == trace.header
    assert loaded.footer == trace.footer
    assert loaded.fingerprint() == trace.fingerprint()
    assert [c.to_dict() for c in loaded.checkpoints] == \
        [c.to_dict() for c in trace.checkpoints]
    assert sniff_format(path) == "binary"


def test_save_infers_format_from_extension(trace, tmp_path):
    binary = tmp_path / "t.trace.bin"
    jsonl = tmp_path / "t.trace.jsonl"
    trace.save(binary)
    trace.save(jsonl)
    assert sniff_format(binary) == "binary"
    assert sniff_format(jsonl) == "jsonl"
    assert Trace.load(binary).lines() == Trace.load(jsonl).lines()
    # Binary should be markedly smaller than the JSONL view.
    assert binary.stat().st_size < jsonl.stat().st_size


def test_convert_cli_round_trips(trace, tmp_path, capsys):
    source = tmp_path / "t.trace.jsonl"
    trace.save(source)
    assert replay_cli(["convert", str(source), "--to", "binary"]) == 0
    twin = tmp_path / "t.trace.bin"
    assert twin.exists()
    back = tmp_path / "back.trace.jsonl"
    assert replay_cli(
        ["convert", str(twin), "--to", "jsonl", "-o", str(back)]) == 0
    assert Trace.load(back).fingerprint() == trace.fingerprint()
    out = capsys.readouterr().out
    assert trace.fingerprint() in out


def test_convert_cli_refuses_to_overwrite_input(trace, tmp_path):
    source = tmp_path / "t.trace.bin"
    trace.save(source)
    assert replay_cli(
        ["convert", str(source), "--to", "binary", "-o", str(source)]) == 1


# ----------------------------------------------------------------------
# Corruption: every fault is a typed error with a byte offset
# ----------------------------------------------------------------------


def binary_bytes(trace, tmp_path, compress=False):
    from repro.replay.format import write_binary

    path = tmp_path / "c.trace.bin"
    write_binary(trace, path, compress=compress)
    return path, path.read_bytes()


def test_truncated_file_raises_with_offset(trace, tmp_path):
    path, blob = binary_bytes(trace, tmp_path)
    # Cut mid-record: past the preamble and the first record header.
    path.write_bytes(blob[: len(blob) // 2])
    with pytest.raises(TraceFormatError) as err:
        Trace.load(path)
    assert err.value.offset >= _PREAMBLE.size
    assert "byte" in str(err.value)


def test_bad_magic_raises_at_offset_zero(trace, tmp_path):
    path, blob = binary_bytes(trace, tmp_path)
    path.write_bytes(b"NOTTRACE" + blob[len(MAGIC):])
    with pytest.raises(TraceFormatError) as err:
        Trace.load(path)
    assert err.value.offset == 0
    assert "magic" in str(err.value)


def test_unknown_format_version_raises(trace, tmp_path):
    path, blob = binary_bytes(trace, tmp_path)
    bad = MAGIC + struct.pack("<HH", 999, 0) + blob[_PREAMBLE.size:]
    path.write_bytes(bad)
    with pytest.raises(TraceFormatError) as err:
        Trace.load(path)
    assert err.value.offset == len(MAGIC)
    assert "version 999" in str(err.value)


def test_length_prefix_overrun_raises_with_offset(trace, tmp_path):
    path, blob = binary_bytes(trace, tmp_path)
    # Inflate the first record's length prefix far past the file end.
    kind, _ = _RECORD.unpack_from(blob, _PREAMBLE.size)
    patched = (blob[:_PREAMBLE.size]
               + _RECORD.pack(kind, 2 ** 31)
               + blob[_PREAMBLE.size + _RECORD.size:])
    path.write_bytes(patched)
    with pytest.raises(TraceFormatError) as err:
        Trace.load(path)
    assert err.value.offset == _PREAMBLE.size
    assert "overruns" in str(err.value)


def test_corrupt_zlib_frame_raises_with_offset(trace, tmp_path):
    path, blob = binary_bytes(trace, tmp_path, compress=True)
    # Flip bytes inside the first frame's deflate stream.
    frame_data_at = _PREAMBLE.size + 8
    patched = bytearray(blob)
    for i in range(frame_data_at + 4, frame_data_at + 12):
        patched[i] ^= 0xFF
    path.write_bytes(bytes(patched))
    with pytest.raises(TraceFormatError):
        Trace.load(path)


def test_truncated_jsonl_still_reports_missing_footer(trace, tmp_path):
    path = tmp_path / "t.trace.jsonl"
    trace.save(path)
    lines = path.read_text().splitlines()
    path.write_text("\n".join(lines[:-1]) + "\n")
    with pytest.raises(ValueError, match="missing header/footer"):
        Trace.load(path)


# ----------------------------------------------------------------------
# Atomic saves: an interrupted write never tears an existing trace
# ----------------------------------------------------------------------


@pytest.mark.parametrize("name", ["t.trace.bin", "t.trace.jsonl"],
                         ids=["binary", "jsonl"])
def test_save_is_atomic_under_interrupted_replace(trace, tmp_path,
                                                  monkeypatch, name):
    import os

    path = tmp_path / name
    trace.save(path)
    original = path.read_bytes()

    def torn_replace(src, dst):
        raise OSError("simulated crash between temp write and rename")

    monkeypatch.setattr(os, "replace", torn_replace)
    with pytest.raises(OSError, match="simulated crash"):
        trace.save(path)
    monkeypatch.undo()
    # The previous complete trace is untouched and no scratch remains.
    assert path.read_bytes() == original
    assert list(tmp_path.glob(f"{name}.tmp*")) == []
    Trace.load(path)  # and it still loads


def test_save_replaces_existing_trace_in_one_step(trace, tmp_path):
    # A successful re-save lands the new bytes and cleans its scratch.
    path = tmp_path / "t.trace.bin"
    trace.save(path)
    trace.save(path)
    assert list(tmp_path.glob("*.tmp*")) == []
    loaded = Trace.load(path)
    assert loaded.fingerprint() == trace.fingerprint()


# ----------------------------------------------------------------------
# Version 2: round trips and verification over real recordings
# ----------------------------------------------------------------------


def _echo_chaos(topology):
    from tests.golden_scenario import GOLDEN_NAMES, build, plan

    trace = record_run(build, GOLDEN_NAMES, seed=7, plan=plan(),
                       checkpoint_every=100 * MS, run_until=1000 * MS,
                       topology=topology)
    return trace, build


def _kv_leader_partition():
    from repro.campaign.scenarios import get_plan, get_scenario

    scenario = get_scenario("kv")
    trace = record_run(scenario.build, list(scenario.names), seed=0,
                       plan=get_plan("leader_partition"),
                       checkpoint_every=100 * MS,
                       run_until=scenario.run_until,
                       contracts=scenario.contracts)
    return trace, scenario.build


RECORDINGS = {
    "echo-ring": lambda: _echo_chaos("ring"),
    "echo-mesh": lambda: _echo_chaos("mesh"),
    "kv-leader-partition": _kv_leader_partition,
}


@pytest.fixture(scope="module", params=sorted(RECORDINGS))
def recording(request):
    return RECORDINGS[request.param]()


def test_v2_save_load_preserves_every_record(recording, tmp_path):
    trace, _ = recording
    path = tmp_path / "t.trace.bin"
    trace.save(path)
    loaded = Trace.load(path)
    assert loaded.lines() == trace.lines()
    assert [e.fields for e in loaded.events] == \
        [e.fields for e in trace.events]
    assert loaded.events == trace.events
    assert [c.to_dict() for c in loaded.checkpoints] == \
        [c.to_dict() for c in trace.checkpoints]
    assert loaded.header == trace.header
    assert loaded.footer == trace.footer
    assert all(len(c.state["rng_digest"]) == 64 for c in loaded.checkpoints)


def test_checkpoint_rng_state_is_hashed_at_finish_not_at_capture():
    from repro import Cluster
    from repro.replay.checkpoint import rng_digest
    from repro.replay.trace import TraceWriter

    cluster = Cluster(names=["a", "b"], seed=3)
    writer = TraceWriter(cluster, checkpoint_every=10 * MS)
    captured = writer.checkpoints[0].state
    # The run loop only keeps the immutable getstate() tuple ...
    assert captured["rng_state"] == cluster.world.rng.getstate()
    assert "rng_digest" not in captured
    expected = rng_digest(captured["rng_state"])
    cluster.run(until=50 * MS)
    trace = writer.finish(drive={"mode": "until", "until": 50 * MS})
    # ... and sealing swaps it for the digest stored on disk.
    sealed = trace.checkpoints[0].state
    assert "rng_state" not in sealed
    assert sealed["rng_digest"] == expected and len(expected) == 64


def test_v2_convert_binary_jsonl_binary_is_byte_identical(recording,
                                                         tmp_path):
    trace, _ = recording
    first = tmp_path / "first.trace.bin"
    trace.save(first)
    jsonl = tmp_path / "view.trace.jsonl"
    again = tmp_path / "again.trace.bin"
    assert replay_cli(["convert", str(first), "--to", "jsonl",
                       "-o", str(jsonl)]) == 0
    assert replay_cli(["convert", str(jsonl), "--to", "binary",
                       "-o", str(again)]) == 0
    assert again.read_bytes() == first.read_bytes()


def test_v2_loaded_trace_replays_and_checks_rng_digests(recording,
                                                       tmp_path):
    from repro.replay import ReplayDivergence, replay_trace
    from repro.replay.format import write_binary

    trace, build = recording
    path = tmp_path / "t.trace.bin"
    write_binary(trace, path, compress=False)
    report = replay_trace(Trace.load(path), build)
    assert report.checkpoints_verified == len(trace.checkpoints)

    # Flip one hex digit of one checkpoint's RNG digest in the file:
    # the view still matches, so only the state comparison can catch it.
    # (Digests repeat while the RNG sits idle, so find the k-th one.)
    k = len(trace.checkpoints) // 2
    target = trace.checkpoints[k]
    blob = bytearray(path.read_bytes())
    key = b'"rng_digest":"'
    at = -1
    for _ in range(k + 1):
        at = blob.index(key, at + 1)
    digit = at + len(key) + 10
    blob[digit] = ord("0") if blob[digit] != ord("0") else ord("1")
    path.write_bytes(bytes(blob))
    tampered = Trace.load(path)
    with pytest.raises(ReplayDivergence) as err:
        replay_trace(tampered, build)
    assert err.value.kind == "checkpoint"
    assert err.value.index == target.index


# ----------------------------------------------------------------------
# Version 2: the decoder under fuzzing — typed errors only
# ----------------------------------------------------------------------

FUZZ = settings(max_examples=150, deadline=2000,
                suppress_health_check=[HealthCheck.function_scoped_fixture])


@pytest.fixture(scope="module")
def blobs(trace, tmp_path_factory):
    """The small trace as a zlib-framed and an uncompressed file."""
    from repro.replay.format import write_binary

    out = {}
    root = tmp_path_factory.mktemp("blobs")
    for name, compress in (("zlib", True), ("raw", False)):
        path = root / f"{name}.trace.bin"
        write_binary(trace, path, compress=compress)
        out[name] = path.read_bytes()
    return out


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "fuzzed.trace.bin"


def _read_or_typed_error(path, blob):
    """Decode ``blob``: a Trace, or a TraceFormatError with an offset.
    Any other exception propagates and fails the test."""
    from repro.replay.format import read_binary

    path.write_bytes(blob)
    try:
        return read_binary(path)
    except TraceFormatError as exc:
        assert isinstance(exc.offset, int) and exc.offset >= 0
        return exc


@FUZZ
@given(data=st.data())
@pytest.mark.parametrize("kind", ["zlib", "raw"])
def test_fuzz_truncation_at_any_offset(blobs, scratch, kind, data):
    blob = blobs[kind]
    cut = data.draw(st.integers(0, len(blob) - 1))
    assert isinstance(_read_or_typed_error(scratch, blob[:cut]),
                      TraceFormatError)


@FUZZ
@given(data=st.data())
@pytest.mark.parametrize("kind", ["zlib", "raw"])
def test_fuzz_byte_flips(blobs, scratch, kind, data):
    blob = bytearray(blobs[kind])
    # Flips land past the preamble: in the zlib frames, or anywhere in
    # the uncompressed record stream.
    flips = data.draw(st.lists(
        st.tuples(st.integers(_PREAMBLE.size, len(blob) - 1),
                  st.integers(1, 255)),
        min_size=1, max_size=4))
    for at, mask in flips:
        blob[at] ^= mask
    _read_or_typed_error(scratch, bytes(blob))


def _split_raw(blob):
    """An uncompressed container's preamble and record payloads."""
    payloads, pos = [], _PREAMBLE.size
    while pos < len(blob):
        kind, length = _RECORD.unpack_from(blob, pos)
        pos += _RECORD.size
        payloads.append((kind, blob[pos:pos + length]))
        pos += length
    return blob[:_PREAMBLE.size], payloads


def _join_raw(preamble, payloads):
    return preamble + b"".join(
        _RECORD.pack(kind, len(payload)) + payload
        for kind, payload in payloads)


def _with_events(blob, rewrite):
    """Re-frame an uncompressed container around a rewritten events
    payload, so the events decoder itself must catch the fault."""
    from repro.replay.format import KIND_EVENTS

    preamble, payloads = _split_raw(blob)
    return _join_raw(preamble, [
        (kind, rewrite(payload) if kind == KIND_EVENTS else payload)
        for kind, payload in payloads])


@FUZZ
@given(data=st.data())
def test_fuzz_events_counts_that_overrun_or_disagree(blobs, scratch, data):
    from repro.replay.format import _EVENTS

    slot = data.draw(st.integers(0, 3))
    value = data.draw(st.integers(0, 2 ** 32 - 1))

    def rewrite(payload):
        head = list(_EVENTS.unpack_from(payload, 0))
        head[slot] = value
        return _EVENTS.pack(*head) + payload[_EVENTS.size:]

    original = _EVENTS.unpack_from(_split_raw(blobs["raw"])[1][2][1], 0)
    result = _read_or_typed_error(scratch, _with_events(blobs["raw"],
                                                        rewrite))
    if value != original[slot]:
        assert isinstance(result, TraceFormatError)


def _events_parts(payload):
    """Split an events payload into (head, columns, table, fields, text)."""
    from repro.replay.format import _EVENTS, _ROW_BYTES

    count, table_len, fields_len, text_len = _EVENTS.unpack_from(payload, 0)
    at = _EVENTS.size
    columns = payload[at:at + count * _ROW_BYTES]
    at += count * _ROW_BYTES
    table = payload[at:at + table_len]
    fields = payload[at + table_len:at + table_len + fields_len]
    text = payload[at + table_len + fields_len:]
    return count, columns, table, fields, text


def _events_payload(count, columns, table, fields, text):
    from repro.replay.format import _EVENTS

    return (_EVENTS.pack(count, len(table), len(fields), len(text))
            + columns + table + fields + text)


@pytest.mark.parametrize("fault", [
    "type-id-out-of-range", "fields-count", "fields-not-objects",
    "table-not-strings", "line-lengths", "lines-not-utf8",
])
def test_events_columns_that_disagree_are_typed_errors(blobs, scratch,
                                                       fault):
    import json

    from repro.replay.format import _COLUMNS

    def rewrite(payload):
        count, columns, table, fields, text = _events_parts(payload)
        type_at = count * sum(width for _, width in _COLUMNS[:4])
        lens_at = type_at + count * 2
        if fault == "type-id-out-of-range":
            columns = (columns[:type_at] + struct.pack("<H", 999)
                       + columns[type_at + 2:])
        elif fault == "fields-count":
            fields = json.dumps(json.loads(fields)[:-1]).encode()
        elif fault == "fields-not-objects":
            fields = json.dumps([1] * count).encode()
        elif fault == "table-not-strings":
            table = json.dumps([1 for _ in json.loads(table)]).encode()
        elif fault == "line-lengths":
            (first,) = struct.unpack_from("<I", columns, lens_at)
            columns = (columns[:lens_at] + struct.pack("<I", first + 1)
                       + columns[lens_at + 4:])
        else:
            text = b"\xff" + text[1:]
        return _events_payload(count, columns, table, fields, text)

    result = _read_or_typed_error(scratch, _with_events(blobs["raw"],
                                                        rewrite))
    assert isinstance(result, TraceFormatError)


@pytest.mark.parametrize("layout", ["missing-footer", "swapped",
                                    "duplicate-header", "trailing"])
def test_record_layout_violations_are_typed_errors(blobs, scratch, layout):
    preamble, payloads = _split_raw(blobs["raw"])
    if layout == "missing-footer":
        payloads = payloads[:-1]
    elif layout == "swapped":
        payloads[1], payloads[2] = payloads[2], payloads[1]
    elif layout == "duplicate-header":
        payloads.insert(1, payloads[0])
    else:
        payloads.append(payloads[-1])
    result = _read_or_typed_error(scratch, _join_raw(preamble, payloads))
    assert isinstance(result, TraceFormatError)


@pytest.mark.parametrize("payload", [
    b'[{"index": 0}]', b"[1]", b'{"index": 0}', b"[{", b'[{"index": 0, '
    b'"time": 0, "state": {}, "view": []}]',
], ids=["missing-keys", "not-an-object", "not-an-array", "torn",
        "bad-view"])
def test_malformed_checkpoints_are_typed_errors(blobs, scratch, payload):
    from repro.replay.format import KIND_CHECKPOINTS

    preamble, payloads = _split_raw(blobs["raw"])
    payloads = [(kind, payload if kind == KIND_CHECKPOINTS else body)
                for kind, body in payloads]
    result = _read_or_typed_error(scratch, _join_raw(preamble, payloads))
    assert isinstance(result, TraceFormatError)
    assert "checkpoint" in str(result)


def test_version_1_files_fail_with_a_typed_version_error(blobs, tmp_path):
    from repro.replay.format import TraceVersionError

    v1 = tmp_path / "v1.trace.bin"
    v1.write_bytes(MAGIC + struct.pack("<HH", 1, 1) + blobs["zlib"][12:])
    with pytest.raises(TraceVersionError) as err:
        Trace.load(v1)
    assert err.value.version == 1 and err.value.offset == len(MAGIC)

    jsonl = tmp_path / "v1.trace.jsonl"
    jsonl.write_text('{"kind": "header", "version": 1}\n'
                     '{"kind": "footer", "final_time": 0}\n')
    with pytest.raises(TraceVersionError) as err:
        Trace.load(jsonl)
    assert err.value.version == 1
