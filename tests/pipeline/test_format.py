"""Round-trip and robustness tests for the repro-trace-v2 binary format."""

import json
import shutil
import struct

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import obs
from repro.core.flatcore import FlatDetector
from repro.faultinject import patch_chunk, rewrite_prefix
from repro.intervals import AccessType, DebugInfo, Interval, MemoryAccess
from repro.mpi import TraceFormatError, load_trace, save_trace
from repro.mpi.memory import RegionInfo, RegionKind
from repro.mpi.trace import LocalEvent, RmaEvent, SyncEvent, SyncKind, TraceLog
from repro.pipeline import (
    FORMAT_V1,
    FORMAT_V2,
    BinaryTraceWriter,
    JsonTraceWriter,
    TraceReader,
    analyze_trace,
    make_trace_writer,
    record_app,
)


def _access(type, *, accum=None, excl=None, file="./a.c", line=7, origin=1):
    return MemoryAccess(Interval(16, 32), type, DebugInfo(file, line),
                        origin, 0, 2, accum, excl)


def _write(path, events, nranks=4, **kwargs):
    with BinaryTraceWriter(path, nranks=nranks, **kwargs) as writer:
        for event in events:
            writer.write(event)
    return path


def exhaustive_events():
    """Every event kind x every enum member x every optional-field shape."""
    events = []
    seq = 0
    for kind in SyncKind:
        seq += 1
        events.append(SyncEvent(seq, -1 if kind is SyncKind.BARRIER else 0,
                                kind, wid=3))
    for region_kind in RegionKind:
        for may_alias in (False, True):
            for acc_type in AccessType:
                for accum in (None, "sum"):
                    for excl in (None, 11):
                        seq += 1
                        events.append(LocalEvent(
                            seq, 2, _access(acc_type, accum=accum, excl=excl),
                            RegionInfo(region_kind, may_alias),
                        ))
    for op in ("put", "get", "accumulate", "get_accumulate"):
        for okind in RegionKind:
            for tkind in RegionKind:
                seq += 1
                events.append(RmaEvent(
                    seq, 0, op, 3, 1,
                    _access(AccessType.RMA_READ),
                    _access(AccessType.RMA_WRITE, accum="prod", excl=5),
                    RegionInfo(okind, True), RegionInfo(tkind, False),
                    nbytes=64,
                ))
    return events


class TestBinaryRoundtrip:
    def test_exhaustive_events_roundtrip(self, tmp_path):
        events = exhaustive_events()
        path = _write(tmp_path / "t.bin", events, nranks=5)
        reader = TraceReader(path)
        assert reader.format == FORMAT_V2
        assert reader.nranks == 5
        assert list(reader) == events

    def test_reader_is_reiterable(self, tmp_path):
        events = exhaustive_events()
        reader = TraceReader(_write(tmp_path / "t.bin", events))
        assert list(reader) == list(reader)

    def test_small_chunks_roundtrip(self, tmp_path):
        """Chunk boundaries land mid-stream: string table must carry over."""
        events = exhaustive_events()
        path = _write(tmp_path / "t.bin", events, events_per_chunk=3)
        assert list(TraceReader(path)) == events

    def test_empty_trace(self, tmp_path):
        path = _write(tmp_path / "t.bin", [])
        reader = TraceReader(path)
        assert list(reader) == []

    def test_save_load_binary(self, tmp_path):
        log = TraceLog()
        log.events = exhaustive_events()
        path = tmp_path / "t.bin"
        save_trace(log, path, nranks=4, format="binary")
        loaded = load_trace(path)
        assert loaded.log.events == log.events
        assert loaded.nranks == 4

    def test_binary_smaller_than_json(self, tmp_path):
        log = TraceLog()
        log.events = exhaustive_events()
        save_trace(log, tmp_path / "t.bin", nranks=4, format="binary")
        save_trace(log, tmp_path / "t.json", nranks=4, format="json")
        assert (tmp_path / "t.bin").stat().st_size < \
            (tmp_path / "t.json").stat().st_size

    def test_unknown_format_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            save_trace(TraceLog(), tmp_path / "t", nranks=1, format="xml")
        with pytest.raises(ValueError):
            make_trace_writer(tmp_path / "t", nranks=1, format="xml")


ACCESSES = st.builds(
    MemoryAccess,
    st.builds(Interval, st.integers(0, 100), st.integers(101, 2**40)),
    st.sampled_from(list(AccessType)),
    st.builds(DebugInfo, st.text(max_size=12), st.integers(0, 10_000)),
    st.integers(0, 63),
    st.just(0),
    st.integers(-1, 50),
    st.one_of(st.none(), st.sampled_from(["sum", "prod", "max"])),
    st.one_of(st.none(), st.integers(-2**40, 2**40)),
)
REGIONS = st.builds(RegionInfo, st.sampled_from(list(RegionKind)),
                    st.booleans())
EVENTS = st.one_of(
    st.builds(LocalEvent, st.integers(0, 2**50), st.integers(0, 63),
              ACCESSES, REGIONS),
    st.builds(RmaEvent, st.integers(0, 2**50), st.integers(0, 63),
              st.sampled_from(["put", "get", "accumulate"]),
              st.integers(0, 63), st.integers(-1, 8),
              ACCESSES, ACCESSES, REGIONS, REGIONS, st.integers(0, 2**40)),
    st.builds(SyncEvent, st.integers(0, 2**50), st.integers(-1, 63),
              st.sampled_from(list(SyncKind)), st.integers(-1, 8)),
)


class TestPropertyRoundtrip:
    @given(st.lists(EVENTS, max_size=40), st.integers(1, 9))
    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_arbitrary_events_roundtrip(self, tmp_path, events, chunk):
        path = _write(tmp_path / "t.bin", events, events_per_chunk=chunk)
        decoded = list(TraceReader(path))
        assert decoded == events
        assert [repr(e) for e in decoded] == [repr(e) for e in events]
        path.unlink()

    @given(st.lists(EVENTS, min_size=1, max_size=25))
    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_truncation_always_detected(self, tmp_path, events):
        """Cutting any suffix off a v2 file must raise, never mis-parse."""
        path = _write(tmp_path / "t.bin", events, events_per_chunk=4)
        raw = path.read_bytes()
        cut = path.with_suffix(".cut")
        # drop the trailer, half a chunk, half the header
        for upto in (len(raw) - 9, len(raw) // 2, 6):
            cut.write_bytes(raw[:max(0, upto)])
            with pytest.raises(TraceFormatError):
                list(TraceReader(cut))
        path.unlink()
        cut.unlink()


class TestCorruptInput:
    def test_not_a_trace(self, tmp_path):
        path = tmp_path / "junk"
        path.write_bytes(b"\x7fELF not a trace at all")
        with pytest.raises(TraceFormatError) as err:
            TraceReader(path)
        assert str(path) in str(err.value)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty"
        path.write_bytes(b"")
        with pytest.raises(TraceFormatError):
            TraceReader(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(TraceFormatError):
            TraceReader(tmp_path / "nope")

    def test_error_is_valueerror(self, tmp_path):
        """Compat: pre-existing callers catch ValueError."""
        path = tmp_path / "junk"
        path.write_text('{"format": "something-else"}\n')
        with pytest.raises(ValueError):
            load_trace(path)
        with pytest.raises(TraceFormatError):
            load_trace(path)

    def test_junk_after_trailer(self, tmp_path):
        path = _write(tmp_path / "t.bin", exhaustive_events()[:5])
        path.write_bytes(path.read_bytes() + b"extra")
        with pytest.raises(TraceFormatError) as err:
            list(TraceReader(path))
        assert "junk" in str(err.value)

    def test_corrupt_chunk_tag(self, tmp_path):
        path = _write(tmp_path / "t.bin", exhaustive_events()[:5])
        raw = bytearray(path.read_bytes())
        idx = raw.find(b"CHNK")
        raw[idx:idx + 4] = b"XXXX"
        path.write_bytes(bytes(raw))
        with pytest.raises(TraceFormatError):
            list(TraceReader(path))

    def test_trailer_count_mismatch(self, tmp_path):
        path = _write(tmp_path / "t.bin", exhaustive_events()[:5])
        raw = bytearray(path.read_bytes())
        raw[-1] ^= 0xFF  # flip the high byte of the u64 event count
        path.write_bytes(bytes(raw))
        with pytest.raises(TraceFormatError) as err:
            list(TraceReader(path))
        assert "mismatch" in str(err.value)


def _local(seq, lo, *, line=7):
    return LocalEvent(
        seq, 1, MemoryAccess(Interval(lo, lo + 8), AccessType.LOCAL_WRITE,
                             DebugInfo("./a.c", line), 1, 0, 0, None, None),
        RegionInfo(RegionKind.WINDOW, True))


class TestDecodeSharing:
    """The decoder shares equal immutable pieces; equality is unchanged."""

    def test_identical_records_share_one_access_in_a_chunk(self, tmp_path):
        events = [_local(1, 64), _local(2, 128), _local(3, 64)]
        path = _write(tmp_path / "t.bin", events)
        first, second, third = TraceReader(path)
        assert first.access is third.access
        assert first.access is not second.access
        assert [first, second, third] == events

    def test_access_memo_is_per_chunk(self, tmp_path):
        events = [_local(1, 64), _local(2, 64)]
        path = _write(tmp_path / "t.bin", events, events_per_chunk=1)
        first, second = TraceReader(path)
        assert first.access == second.access
        assert first.access is not second.access

    def test_one_debug_info_per_site_across_chunks(self, tmp_path):
        events = [_local(i + 1, 64 * (i + 1)) for i in range(6)]
        events.append(_local(7, 8, line=9))
        path = _write(tmp_path / "t.bin", events, events_per_chunk=2)
        decoded = list(TraceReader(path))
        assert len({id(e.access.debug) for e in decoded[:6]}) == 1
        assert decoded[6].access.debug is not decoded[0].access.debug
        assert len({id(e.region) for e in decoded}) == 1
        assert decoded == events

    def test_resume_from_mid_trace_cursor_matches_full_pass(self, tmp_path):
        events = exhaustive_events()
        path = _write(tmp_path / "t.bin", events, events_per_chunk=7)
        reader = TraceReader(path)
        chunks = list(reader.iter_chunks())
        full = [e for batch, _ in chunks for e in batch]
        mid = len(chunks) // 2
        cursor = chunks[mid - 1][1]
        tail = [e for batch, _ in reader.iter_chunks(start=cursor)
                for e in batch]
        offset = cursor["events_applied"]
        assert tail == full[offset:] == events[offset:]
        assert [repr(e) for e in tail] == [repr(e) for e in events[offset:]]

    @pytest.mark.parametrize("app,size", [
        ("cfd", 4), ("histogram", 64), ("minivite", 256)])
    def test_recorded_traces_decode_to_the_written_events(self, tmp_path,
                                                          app, size):
        events = record_app(app, size=size).trace_log.events
        path = _write(tmp_path / "t.bin", events, events_per_chunk=512)
        decoded = list(TraceReader(path))
        assert decoded == events
        assert [repr(e) for e in decoded] == [repr(e) for e in events]


def _set_interval(payload, old, new):
    """Rewrite one access record's ``(lo, hi)`` pair in place."""
    at = payload.find(struct.pack("<qq", *old))
    assert at > 0
    payload[at:at + 16] = struct.pack("<qq", *new)


class TestMalformedIntervals:
    """Bad intervals are typed rejections naming the chunk, salvageable."""

    EVENTS = [_local(i + 1, 64 * (i + 1)) for i in range(12)]

    @pytest.mark.parametrize("bad", [(320, 320), (320, 200), (-8, 8)])
    def test_strict_read_names_file_and_chunk(self, tmp_path, bad):
        path = _write(tmp_path / "t.bin", self.EVENTS, events_per_chunk=4)
        # event 5 (lo=320) is the first of chunk 2
        patch_chunk(path, 2, lambda p: _set_interval(p, (320, 328), bad))
        with pytest.raises(TraceFormatError) as err:
            list(TraceReader(path))
        msg = str(err.value)
        assert str(path) in msg
        assert "chunk 2" in msg and "interval" in msg
        assert isinstance(err.value, ValueError)

    def test_salvage_quarantines_the_chunk_exactly(self, tmp_path):
        path = _write(tmp_path / "t.bin", self.EVENTS, events_per_chunk=4)
        patch_chunk(path, 2, lambda p: _set_interval(p, (384, 392),
                                                     (392, 384)))
        reader = TraceReader(path, strict=False)
        recovered = list(reader)
        assert recovered == self.EVENTS[:4] + self.EVENTS[8:]
        assert reader.salvage_report() == {
            "quarantined_chunks": [2], "events_lost": 4, "truncated": False}


class TestWireRejections:
    """The fused wire path rejects malformed payloads with a typed error."""

    def test_repaired_mutations_succeed_or_raise_trace_format_error(
            self, tmp_path, minivite_trace, monkeypatch):
        monkeypatch.setenv("REPRO_OBS_TIMELINE", "off")
        monkeypatch.delenv("REPRO_WIRE", raising=False)
        wire_chunks = []
        ingest = FlatDetector.ingest_wire

        def counting(self, payload, off, nevents, ctx, nranks):
            wire_chunks.append(ctx.chunk_no)
            return ingest(self, payload, off, nevents, ctx, nranks)

        monkeypatch.setattr(FlatDetector, "ingest_wire", counting)
        outcomes = {"ok": 0, "rejected": 0}
        path = tmp_path / "mut.trace"
        for seed in range(40):
            shutil.copyfile(minivite_trace, path)
            rewrite_prefix(path, chunk=1, count=2, seed=seed)
            try:
                with obs.scope(merge=False):
                    analyze_trace(path)
            except TraceFormatError as exc:
                assert str(path) in str(exc)
                assert "chunk " in str(exc)
                outcomes["rejected"] += 1
            else:
                outcomes["ok"] += 1
        assert wire_chunks, "the wire path never ran"
        assert outcomes["ok"] and outcomes["rejected"]


class TestV1Robustness:
    def _v1(self, tmp_path, lines):
        path = tmp_path / "t.json"
        path.write_text("\n".join(lines) + "\n")
        return path

    def test_v1_roundtrip_via_streaming_writer(self, tmp_path):
        events = exhaustive_events()
        path = tmp_path / "t.json"
        with JsonTraceWriter(path, nranks=3) as writer:
            for event in events:
                writer.write(event)
        reader = TraceReader(path)
        assert reader.format == FORMAT_V1
        assert reader.nranks == 3
        assert list(reader) == events

    def test_truncated_json_line_names_file_and_line(self, tmp_path):
        header = json.dumps({"format": "repro-trace-v1", "nranks": 2})
        good = json.dumps({"ev": "sync", "seq": 1, "rank": -1,
                           "kind": "barrier", "wid": -1})
        path = self._v1(tmp_path, [header, good, '{"ev": "sync", "se'])
        with pytest.raises(TraceFormatError) as err:
            list(TraceReader(path))
        assert err.value.line == 3
        assert f"{path}:3" in str(err.value)

    def test_missing_key_names_line(self, tmp_path):
        header = json.dumps({"format": "repro-trace-v1", "nranks": 2})
        bad = json.dumps({"ev": "sync", "seq": 1})  # no kind/rank
        path = self._v1(tmp_path, [header, bad])
        with pytest.raises(TraceFormatError) as err:
            list(TraceReader(path))
        assert err.value.line == 2

    def test_corrupt_header(self, tmp_path):
        path = self._v1(tmp_path, ['{"format": "repro-trace-v1"'])
        with pytest.raises(TraceFormatError):
            TraceReader(path)

    def test_header_missing_nranks(self, tmp_path):
        path = self._v1(tmp_path, ['{"format": "repro-trace-v1"}'])
        with pytest.raises(TraceFormatError):
            TraceReader(path)
