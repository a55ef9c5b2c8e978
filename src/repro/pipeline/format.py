"""``repro-trace-v2`` — compact chunked binary traces, streamed both ways.

The v1 JSON-lines format (:mod:`repro.mpi.trace_io`) is convenient but
verbose, and both its writer and reader materialize the whole event list
in memory.  For the analysis pipeline we want the recording side to run
in constant memory next to the simulation, and the analysis side to
stream events into the sharder without ever holding the trace — the
MC-Checker lesson that "the recorded trace grows with the execution"
must not apply to the *analyzer's* footprint.

Layout of a v2 file::

    magic    8 bytes   b"REPROTR2"
    header   u32 length + JSON   {"format": "repro-trace-v2",
                                  "nranks": N, "enums": {...},
                                  "chunk_crc32": true,
                                  "chunk_chain": "sha256"}
    chunk*   b"CHNK" + u32 payload bytes + u32 event count
             [+ u32 crc32(payload), when the header flags it]
             [+ 32-byte rolling sha256 chain, when the header flags it]
             + payload
    trailer  b"TEND" + u64 total event count

The *chain* turns the chunk sequence into a hash chain: ``chain[0] =
sha256(magic + u32(header length) + header bytes)`` and ``chain[k] =
sha256(chain[k-1] + payload[k])``.  Two traces share chain value k iff
they are byte-identical through chunk k, so a reader can prove "this
file is an append-only extension of that one" — or name the exact
chunk where they diverge — by comparing one 32-byte value per file
(:func:`trace_chain` / :func:`compare_chain`).  The chain is computed
for any v2 file; new writers additionally *store* it per frame so
single-file prefix rewrites are self-detecting.  Files from before
either flag are still read.

Each chunk payload starts with the strings *first seen* in that chunk
(file names, op names, accumulate ops); readers grow the same string
table in lockstep, so strings are written once per file.  Events are
fixed little-endian ``struct`` records plus string ids.  Enum members
are encoded as indexes into tables spelled out in the header, so a file
survives enum reordering in future versions of the package.  Files
written before the checksum existed carry no ``chunk_crc32`` header
flag and are still read.

Decoding shares equal immutable pieces instead of rebuilding them for
every event: one :class:`~repro.intervals.DebugInfo` per ``(file id,
line)`` and one :class:`~repro.mpi.memory.RegionInfo` per raw ``(kind,
alias)`` byte pair for the whole pass (one ``iter``/``iter_chunks``
call; the string table only grows, so an id means the same string for
the whole pass), and one :class:`~repro.intervals.MemoryAccess` per
distinct raw access record within one chunk (the memo is dropped at
each chunk, so memory stays bounded by the chunk).  Sharing is safe
because these objects are frozen and nothing compares them by identity:
decoded events are ``==`` and ``repr``-identical to the events the
writer was given.  Objects are built by setting their fields directly,
skipping the dataclass ``__init__``; the checks ``__init__`` would make
(``0 <= lo < hi`` for an interval) are explicit in the decoder and fail
as :class:`~repro.mpi.errors.TraceFormatError` naming the chunk.

Robustness:

* Writers stream to ``<path>.tmp`` and :func:`os.replace` into place on
  :meth:`close`, so a crashed recording can never leave a final path
  that passes the trailer check; :meth:`abort` (called automatically
  when the ``with`` block exits on an exception) removes the temp file.
* :class:`TraceReader` auto-detects and streams v1 JSON-lines files
  too: open one path, iterate events, never care which format it was.
* In the default ``strict=True`` mode, malformed input of either format
  raises :class:`~repro.mpi.errors.TraceFormatError` naming the file
  and (where meaningful) the line.  With ``strict=False`` the reader
  *salvages*: corrupt or truncated chunks are quarantined using the
  chunk framing + checksum and iteration continues with the remaining
  chunks, with the damage accounted in :attr:`TraceReader.salvage_report`
  (quarantined chunk numbers, events lost, truncation flag).  One
  caveat is inherent to the incremental string table: if a quarantined
  chunk was the first to intern a string, later chunks referencing it
  decode against a shorter table and are quarantined in turn — the
  accounting stays exact (the trailer reconciles the loss), but a
  corrupt *early* chunk can shadow later ones.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import struct
import zlib
from dataclasses import fields
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional, Tuple, Union

from ..intervals import AccessType, DebugInfo, Interval, MemoryAccess
from ..mpi.errors import TraceChainMismatch, TraceFormatError
from ..mpi.memory import RegionInfo, RegionKind
from ..mpi.trace import LocalEvent, RmaEvent, SyncEvent, SyncKind, TraceEvent

__all__ = [
    "FORMAT_V1",
    "FORMAT_V2",
    "MAGIC_V2",
    "BinaryTraceWriter",
    "JsonTraceWriter",
    "TraceReader",
    "WireStream",
    "compare_chain",
    "make_trace_writer",
    "trace_chain",
]

FORMAT_V1 = "repro-trace-v1"
FORMAT_V2 = "repro-trace-v2"
MAGIC_V2 = b"REPROTR2"

_U32 = struct.Struct("<I")
_U64 = struct.Struct("<Q")
_I64 = struct.Struct("<q")
# lo, hi, type id, file id, line, origin, flush_gen
_ACCESS = struct.Struct("<qqBIIii")
_LOCAL = struct.Struct("<qi")        # seq, rank
_RMA = struct.Struct("<qiii")        # seq, rank, target, wid
_SYNC = struct.Struct("<qiBi")       # seq, rank, kind id, wid

_TAG_LOCAL, _TAG_RMA, _TAG_SYNC = 0, 1, 2
_FLAG_ACCUM, _FLAG_EXCL = 1, 2

#: rolling-chain algorithm flagged in v2 headers and its digest size
CHAIN_ALGO = "sha256"
_CHAIN_BYTES = 32


def _chain_seed(hlen_raw: bytes, header_bytes: bytes) -> bytes:
    """Chain value 0: binds the chain to this file's exact header."""
    return hashlib.sha256(MAGIC_V2 + hlen_raw + header_bytes).digest()


def _chain_next(prev: bytes, payload: bytes) -> bytes:
    return hashlib.sha256(prev + payload).digest()

# enum member order as written into the header; readers map ids through
# the header tables, not through these lists
_ACCESS_TYPES = list(AccessType)
_SYNC_KINDS = list(SyncKind)
_REGION_KINDS = list(RegionKind)


# -- writing -----------------------------------------------------------------


class _StringTable:
    """Write-side interning: ids are assignment order, new strings pend."""

    def __init__(self) -> None:
        self._ids: Dict[str, int] = {}
        self._pending: List[str] = []

    def intern(self, s: str) -> int:
        sid = self._ids.get(s)
        if sid is None:
            sid = len(self._ids)
            self._ids[s] = sid
            self._pending.append(s)
        return sid

    def take_pending(self) -> List[str]:
        pending, self._pending = self._pending, []
        return pending


class BinaryTraceWriter:
    """Streaming v2 writer: ``write`` events one at a time, constant memory.

    Events are buffered into chunks of ``events_per_chunk`` and flushed
    as framed, crc32-checksummed records; :meth:`close` (or a clean
    context-manager exit) appends the trailer that lets readers prove
    the file was not truncated, then atomically renames the temp file
    into ``path``.  An exceptional ``with``-block exit calls
    :meth:`abort` instead, which removes the temp file — an interrupted
    recording never leaves a file that looks complete.

    ``fault_hook``, if given, is called as ``hook(stage, n)`` at
    ``("chunk", chunk_no)`` after each chunk flush and ``("close",
    chunks_flushed)`` on finalize — the seam the fault-injection harness
    uses to simulate recorder crashes deterministically.

    ``live=True`` targets the *follow* workflow: the writer streams
    straight to ``path`` (no temp file, each chunk flushed as written)
    so a tail-mode reader can analyze the trace while it grows.  The
    price is that atomic finalize is off — an interrupted live
    recording leaves a trailerless file, which tail readers classify
    as "in progress" and strict readers as truncated.
    """

    def __init__(
        self,
        path: Union[str, Path],
        *,
        nranks: int,
        events_per_chunk: int = 2048,
        fault_hook: Optional[Callable[[str, int], None]] = None,
        chain: bool = True,
        live: bool = False,
    ) -> None:
        if events_per_chunk < 1:
            raise ValueError("events_per_chunk must be positive")
        self.path = Path(path)
        self.nranks = nranks
        self.events_written = 0
        self.chunks_written = 0
        self._per_chunk = events_per_chunk
        self._fault_hook = fault_hook
        self._strings = _StringTable()
        self._buf = bytearray()
        self._chunk_events = 0
        self._done = False
        self._live = bool(live)
        if self._live:
            self._tmp = self.path
        else:
            self._tmp = self.path.with_name(self.path.name + ".tmp")
        self._fh = self._tmp.open("wb")
        head: dict = {
            "format": FORMAT_V2,
            "nranks": nranks,
            "chunk_crc32": True,
            "enums": {
                "access": [t.name for t in _ACCESS_TYPES],
                "sync": [k.value for k in _SYNC_KINDS],
                "region": [k.value for k in _REGION_KINDS],
            },
        }
        if chain:
            head["chunk_chain"] = CHAIN_ALGO
        header = json.dumps(head).encode("utf-8")
        hlen_raw = _U32.pack(len(header))
        self._chain: Optional[bytes] = (
            _chain_seed(hlen_raw, header) if chain else None)
        self._fh.write(MAGIC_V2)
        self._fh.write(hlen_raw)
        self._fh.write(header)
        if self._live:
            self._fh.flush()

    @classmethod
    def open_append(
        cls,
        path: Union[str, Path],
        *,
        events_per_chunk: Optional[int] = None,
        fault_hook: Optional[Callable[[str, int], None]] = None,
    ) -> "BinaryTraceWriter":
        """Reopen a v2 trace for appending more chunks (live mode).

        The existing chunks are scanned (framing and checksums
        verified, the incremental string table and the rolling chain
        replayed) and the file is truncated back to the end of its last
        complete chunk — dropping the trailer of a finalized trace, or
        the torn tail of an interrupted live recording.  Writing then
        continues exactly as if the original recorder had never
        stopped: the extended file is byte-for-byte an append-only
        extension, which is what lets chain-aware readers resume from a
        prefix cursor instead of re-analyzing from chunk zero.
        """
        path = Path(path)
        with path.open("rb") as fh:
            magic = fh.read(len(MAGIC_V2))
            if magic != MAGIC_V2:
                raise TraceFormatError(
                    "open_append needs a repro-trace-v2 file", path=path)
            hlen_raw = fh.read(_U32.size)
            if len(hlen_raw) < _U32.size:
                raise TraceFormatError("truncated v2 header length",
                                       path=path)
            (hlen,) = _U32.unpack(hlen_raw)
            header_bytes = fh.read(hlen)
            if len(header_bytes) < hlen:
                raise TraceFormatError("truncated v2 header", path=path)
            try:
                header = json.loads(header_bytes)
            except json.JSONDecodeError as exc:
                raise TraceFormatError(f"corrupt v2 header: {exc}",
                                       path=path) from exc
            if header.get("format") != FORMAT_V2:
                raise TraceFormatError("not a repro-trace-v2 file", path=path)
            want_enums = {
                "access": [t.name for t in _ACCESS_TYPES],
                "sync": [k.value for k in _SYNC_KINDS],
                "region": [k.value for k in _REGION_KINDS],
            }
            if header.get("enums") != want_enums:
                raise TraceFormatError(
                    "cannot append: trace was written with different enum "
                    "tables", path=path)
            has_crc = bool(header.get("chunk_crc32"))
            has_chain = bool(header.get("chunk_chain"))
            if has_chain and not has_crc:
                raise TraceFormatError(
                    "malformed header: chunk_chain without chunk_crc32",
                    path=path)
            chain = _chain_seed(hlen_raw, header_bytes) if has_chain else None
            frame = struct.Struct("<III") if has_crc else struct.Struct("<II")
            extra = _CHAIN_BYTES if has_chain else 0
            strings = _StringTable()
            total = 0
            chunks = 0
            first_chunk_events: Optional[int] = None
            good_end = fh.tell()
            while True:
                tag = fh.read(4)
                if tag == b"CHNK":
                    raw = fh.read(frame.size + extra)
                    if len(raw) < frame.size + extra:
                        break  # torn tail of an interrupted append
                    if has_crc:
                        nbytes, nevents, crc = frame.unpack_from(raw, 0)
                    else:
                        (nbytes, nevents), crc = frame.unpack_from(raw, 0), \
                            None
                    stored = raw[frame.size:frame.size + extra]
                    payload = fh.read(nbytes)
                    if len(payload) < nbytes:
                        break  # torn tail
                    if crc is not None and zlib.crc32(payload) != crc:
                        raise TraceFormatError(
                            f"chunk {chunks + 1}: checksum mismatch — "
                            f"cannot append to a corrupt trace", path=path)
                    if chain is not None:
                        chain = _chain_next(chain, payload)
                        if stored != chain:
                            raise TraceChainMismatch(
                                f"chunk {chunks + 1}: stored chain mismatch "
                                f"— cannot append to a rewritten trace",
                                path=path, chunk=chunks + 1)
                    # replay the incremental string table so new chunks
                    # intern against the same ids the file already uses
                    fresh: List[str] = []
                    _read_strings(payload, fresh, path, chunks + 1)
                    for string in fresh:
                        strings.intern(string)
                    strings.take_pending()  # already on disk, not pending
                    chunks += 1
                    total += nevents
                    if first_chunk_events is None:
                        first_chunk_events = nevents
                    good_end = fh.tell()
                elif tag in (b"TEND", b""):
                    break  # finalized (drop trailer) or clean live tail
                else:
                    raise TraceFormatError(
                        f"bad chunk tag {tag!r} after chunk {chunks} — "
                        f"cannot append to a corrupt trace", path=path)
        per_chunk = events_per_chunk or first_chunk_events or 2048
        self = cls.__new__(cls)
        self.path = path
        self.nranks = header["nranks"]
        self.events_written = total
        self.chunks_written = chunks
        self._per_chunk = per_chunk
        self._fault_hook = fault_hook
        self._strings = strings
        self._buf = bytearray()
        self._chunk_events = 0
        self._done = False
        self._live = True
        self._tmp = path
        self._chain = chain
        self._fh = path.open("r+b")
        self._fh.seek(good_end)
        self._fh.truncate(good_end)
        return self

    # -- encoding ------------------------------------------------------------

    def _put_access(self, acc: MemoryAccess) -> None:
        buf = self._buf
        flags = 0
        if acc.accum_op is not None:
            flags |= _FLAG_ACCUM
        if acc.excl_epoch is not None:
            flags |= _FLAG_EXCL
        buf.append(flags)
        buf += _ACCESS.pack(
            acc.interval.lo, acc.interval.hi,
            _ACCESS_TYPES.index(acc.type),
            self._strings.intern(acc.debug.filename), acc.debug.line,
            acc.origin, acc.flush_gen,
        )
        if flags & _FLAG_ACCUM:
            buf += _U32.pack(self._strings.intern(acc.accum_op))
        if flags & _FLAG_EXCL:
            buf += struct.pack("<q", acc.excl_epoch)

    def _put_region(self, info: RegionInfo) -> None:
        self._buf.append(_REGION_KINDS.index(info.kind))
        self._buf.append(1 if info.may_alias_rma else 0)

    def write(self, event: TraceEvent) -> None:
        buf = self._buf
        if isinstance(event, LocalEvent):
            buf.append(_TAG_LOCAL)
            buf += _LOCAL.pack(event.seq, event.rank)
            self._put_access(event.access)
            self._put_region(event.region)
        elif isinstance(event, RmaEvent):
            buf.append(_TAG_RMA)
            buf += _RMA.pack(event.seq, event.rank, event.target, event.wid)
            buf += _U32.pack(self._strings.intern(event.op))
            buf += struct.pack("<q", event.nbytes)
            self._put_access(event.origin_access)
            self._put_access(event.target_access)
            self._put_region(event.origin_region)
            self._put_region(event.target_region)
        elif isinstance(event, SyncEvent):
            buf.append(_TAG_SYNC)
            buf += _SYNC.pack(
                event.seq, event.rank, _SYNC_KINDS.index(event.kind), event.wid
            )
        else:
            raise TypeError(f"unknown trace event {event!r}")
        self.events_written += 1
        self._chunk_events += 1
        if self._chunk_events >= self._per_chunk:
            self._flush_chunk()

    def _flush_chunk(self) -> None:
        if not self._chunk_events:
            return
        head = bytearray()
        new_strings = self._strings.take_pending()
        head += _U32.pack(len(new_strings))
        for s in new_strings:
            raw = s.encode("utf-8")
            head += _U32.pack(len(raw))
            head += raw
        payload = bytes(head) + bytes(self._buf)
        self._fh.write(b"CHNK")
        self._fh.write(_U32.pack(len(payload)))
        self._fh.write(_U32.pack(self._chunk_events))
        self._fh.write(_U32.pack(zlib.crc32(payload)))
        if self._chain is not None:
            self._chain = _chain_next(self._chain, payload)
            self._fh.write(self._chain)
        self._fh.write(payload)
        if self._live:
            self._fh.flush()
        self._buf.clear()
        self._chunk_events = 0
        self.chunks_written += 1
        if self._fault_hook is not None:
            self._fault_hook("chunk", self.chunks_written)

    def close(self) -> None:
        if self._done:
            return
        if self._fault_hook is not None:
            self._fault_hook("close", self.chunks_written)
        self._flush_chunk()
        self._fh.write(b"TEND")
        self._fh.write(_U64.pack(self.events_written))
        self._fh.close()
        if not self._live:
            os.replace(self._tmp, self.path)
        self._done = True

    def abort(self) -> None:
        """Discard the recording: close and remove the temp file.

        A *live* writer cannot un-publish chunks already flushed to the
        final path; abort just closes the handle, leaving a trailerless
        file that tail readers treat as in-progress and strict readers
        as truncated.
        """
        if self._done:
            return
        self._done = True
        self._fh.close()
        if self._live:
            return
        try:
            self._tmp.unlink()
        except FileNotFoundError:  # pragma: no cover - already gone
            pass

    def __enter__(self) -> "BinaryTraceWriter":
        return self

    def __exit__(self, exc_type, *exc) -> None:
        if exc_type is not None:
            self.abort()
        else:
            self.close()


class JsonTraceWriter:
    """Streaming v1 JSON-lines writer (one header line + one line/event).

    Finalization is atomic like the binary writer's: the stream goes to
    ``<path>.tmp`` and is renamed into place on :meth:`close`; an
    exceptional ``with``-block exit :meth:`abort`\\ s instead.
    """

    def __init__(self, path: Union[str, Path], *, nranks: int) -> None:
        from ..mpi.trace_io import _event_to_dict  # lazy: avoids a cycle

        self._to_dict = _event_to_dict
        self.path = Path(path)
        self.nranks = nranks
        self.events_written = 0
        self._done = False
        self._tmp = self.path.with_name(self.path.name + ".tmp")
        self._fh = self._tmp.open("w")
        json.dump({"format": FORMAT_V1, "nranks": nranks}, self._fh)
        self._fh.write("\n")

    def write(self, event: TraceEvent) -> None:
        json.dump(self._to_dict(event), self._fh, separators=(",", ":"))
        self._fh.write("\n")
        self.events_written += 1

    def close(self) -> None:
        if self._done:
            return
        self._fh.close()
        os.replace(self._tmp, self.path)
        self._done = True

    def abort(self) -> None:
        """Discard the recording: close and remove the temp file."""
        if self._done:
            return
        self._done = True
        self._fh.close()
        try:
            self._tmp.unlink()
        except FileNotFoundError:  # pragma: no cover - already gone
            pass

    def __enter__(self) -> "JsonTraceWriter":
        return self

    def __exit__(self, exc_type, *exc) -> None:
        if exc_type is not None:
            self.abort()
        else:
            self.close()


def make_trace_writer(
    path: Union[str, Path], *, nranks: int, format: str = "binary"
):
    """Writer factory keyed by the CLI's ``--format {json,binary}``."""
    if format in ("binary", FORMAT_V2):
        return BinaryTraceWriter(path, nranks=nranks)
    if format in ("json", FORMAT_V1):
        return JsonTraceWriter(path, nranks=nranks)
    raise ValueError(f"unknown trace format {format!r} (json or binary)")


# -- reading -----------------------------------------------------------------


def _read_strings(payload: bytes, strings: List[str], path: Path,
                  chunk_no: int) -> int:
    """Fold a chunk's string-table prefix into ``strings``.

    Returns the payload offset of the chunk's first event.  The commit
    is all-or-nothing, so a quarantined chunk cannot leave the shared
    table half-grown (later chunks decode against it).
    """
    fresh: List[str] = []
    try:
        (nstrings,) = _U32.unpack_from(payload, 0)
        off = _U32.size
        for _ in range(nstrings):
            (slen,) = _U32.unpack_from(payload, off)
            off += _U32.size
            end = off + slen
            if end > len(payload):
                raise TraceFormatError(
                    f"chunk {chunk_no}: truncated string table", path=path)
            fresh.append(payload[off:end].decode("utf-8"))
            off = end
    except (struct.error, UnicodeDecodeError) as exc:
        raise TraceFormatError(
            f"chunk {chunk_no}: corrupt string table: {exc}", path=path,
        ) from exc
    strings.extend(fresh)
    return off


_new = object.__new__
_setattr = object.__setattr__
#: access record size by ``flags & 3``, flags byte included: the two
#: optional fields are a 4-byte accum-op id and an 8-byte lock epoch
_ACCESS_LEN = tuple(1 + _ACCESS.size + extra for extra in (0, 4, 8, 12))


def _fields_are(cls, *names: str) -> None:
    """Pin the field list the decoder fills in without ``__init__``.

    Adding a field to one of these classes without teaching the decoder
    then fails at import instead of yielding half-built objects.
    """
    if tuple(f.name for f in fields(cls)) != names:
        raise TypeError(f"v2 decoder is out of date with {cls.__name__}")


def _slot_setters(cls, *names: str) -> tuple:
    _fields_are(cls, *names)
    return tuple(getattr(cls, name).__set__ for name in names)


_IV_SET = _slot_setters(Interval, "lo", "hi")
_ACC_SET = _slot_setters(
    MemoryAccess, "interval", "type", "debug", "origin", "seq", "flush_gen",
    "accum_op", "excl_epoch")
_fields_are(LocalEvent, "seq", "rank", "access", "region")
_fields_are(RmaEvent, "seq", "rank", "op", "target", "wid", "origin_access",
            "target_access", "origin_region", "target_region", "nbytes")
_fields_are(SyncEvent, "seq", "rank", "kind", "wid")


class TraceReader:
    """Streaming reader for both trace formats, auto-detected.

    Iterating a reader opens the file anew each time, so one reader can
    drive several passes (and several worker processes can each hold
    their own iterator over the same path).  Memory use is bounded by
    one chunk (v2) or one line (v1).

    ``strict=False`` turns on *salvage* mode: instead of raising on the
    first corrupt or truncated chunk, the reader quarantines it (the
    chunk framing and per-chunk checksum bound the damage), keeps
    iterating the rest of the file, and accounts the loss — afterwards
    :attr:`quarantined_chunks`, :attr:`events_lost` and
    :attr:`truncated` (or :meth:`salvage_report`) say exactly what was
    skipped.  Damage that predates iteration (bad magic, unreadable
    header) still raises: there is nothing to salvage without a header.

    Setting :attr:`tail` to True turns on *tail* mode for v2 traces
    that are still being appended to: an incomplete final frame, a
    short payload, or a missing trailer at end-of-file stops iteration
    cleanly (``tail_pending=True``) instead of raising or flagging
    truncation — the caller polls and re-enters from the last cursor.
    Genuine corruption (a checksum or chain mismatch on a *complete*
    payload) is still reported normally: a torn append grows back, a
    corrupt chunk never does.  :attr:`complete` says whether the last
    iteration reached a valid trailer.
    """

    def __init__(self, path: Union[str, Path], *, strict: bool = True) -> None:
        self.path = Path(path)
        self.strict = strict
        #: treat end-of-file as "in-progress append", not truncation
        self.tail = False
        #: last iteration reached the trailer (the file is finalized)
        self.complete = False
        #: last (tail-mode) iteration stopped at an unfinished tail
        self.tail_pending = False
        #: chunk numbers (v2) / line numbers (v1) skipped by salvage mode
        self.quarantined_chunks: List[int] = []
        #: events known lost to quarantined chunks (trailer-reconciled)
        self.events_lost = 0
        #: True when the file ends before its trailer (mid-write crash)
        self.truncated = False
        try:
            with self.path.open("rb") as fh:
                head = fh.read(len(MAGIC_V2))
                if head == MAGIC_V2:
                    self.format = FORMAT_V2
                    self._header = self._read_v2_header(fh)
                elif head[:1] == b"{":
                    self.format = FORMAT_V1
                    self._header = self._read_v1_header(fh, head)
                elif len(head) == 0:
                    raise TraceFormatError("empty file", path=self.path)
                else:
                    raise TraceFormatError(
                        "not a repro trace (bad magic and not JSON lines)",
                        path=self.path,
                    )
        except OSError as exc:
            raise TraceFormatError(f"cannot read trace: {exc}",
                                   path=self.path) from exc
        self.nranks = self._header["nranks"]

    # -- headers -------------------------------------------------------------

    def _read_v2_header(self, fh) -> dict:
        raw = fh.read(_U32.size)
        if len(raw) < _U32.size:
            raise TraceFormatError("truncated v2 header length", path=self.path)
        (length,) = _U32.unpack(raw)
        blob = fh.read(length)
        if len(blob) < length:
            raise TraceFormatError("truncated v2 header", path=self.path)
        try:
            header = json.loads(blob)
        except json.JSONDecodeError as exc:
            raise TraceFormatError(f"corrupt v2 header: {exc}",
                                   path=self.path) from exc
        if header.get("format") != FORMAT_V2:
            raise TraceFormatError(
                f"not a {FORMAT_V2} file (header says "
                f"{header.get('format')!r})", path=self.path,
            )
        if not isinstance(header.get("nranks"), int):
            raise TraceFormatError("v2 header missing 'nranks'", path=self.path)
        try:
            header["access_table"] = [
                AccessType[n] for n in header["enums"]["access"]
            ]
            header["sync_table"] = [
                SyncKind(v) for v in header["enums"]["sync"]
            ]
            header["region_table"] = [
                RegionKind(v) for v in header["enums"]["region"]
            ]
        except (KeyError, ValueError) as exc:
            raise TraceFormatError(f"bad v2 enum tables: {exc!r}",
                                   path=self.path) from exc
        # files from before the per-chunk checksum carry no flag
        header["chunk_crc"] = bool(header.get("chunk_crc32"))
        # likewise for the rolling chain; the seed binds cursors' chain
        # values to this exact header, and is computable for any v2
        # file — only the *stored* per-frame digests need the flag
        header["chunk_chain_stored"] = bool(header.get("chunk_chain"))
        header["chain_seed"] = _chain_seed(raw, blob)
        return header

    def _read_v1_header(self, fh, head: bytes) -> dict:
        line = head + fh.readline()
        try:
            header = json.loads(line.decode("utf-8"))
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise TraceFormatError(f"corrupt v1 header: {exc}",
                                   path=self.path, line=1) from exc
        if header.get("format") != FORMAT_V1:
            raise TraceFormatError(
                f"not a {FORMAT_V1} file (header says "
                f"{header.get('format')!r})", path=self.path, line=1,
            )
        if not isinstance(header.get("nranks"), int):
            raise TraceFormatError("v1 header missing 'nranks'",
                                   path=self.path, line=1)
        return header

    # -- iteration -----------------------------------------------------------

    def __iter__(self) -> Iterator[TraceEvent]:
        self.quarantined_chunks = []
        self.events_lost = 0
        self.truncated = False
        self.complete = False
        self.tail_pending = False
        if self.format == FORMAT_V2:
            chunks = self._chunks_v2(None)
        else:
            chunks = self._chunks_v1(None)
        # flatten at C speed: no generator resume per event
        return itertools.chain.from_iterable(
            events for events, _cursor in chunks)

    def wire_stream(self) -> Optional["WireStream"]:
        """Raw-chunk access for the flat core's fused decode, if eligible.

        Only strict v2 binary readers qualify: the wire path does no
        salvage bookkeeping (any damage raises), and v1 JSON traces
        have no binary chunks to hand over.  Returns ``None`` when the
        caller should fall back to decoded-event iteration.
        """
        if not self.strict or self.format != FORMAT_V2:
            return None
        return WireStream(self)

    def salvage_report(self) -> dict:
        """What the last (salvage-mode) iteration had to skip.

        When the iteration was resumed from a checkpoint cursor
        (:meth:`iter_chunks` with ``start``), the counts include the
        losses recorded before the checkpoint — resume must not launder
        away salvage accounting.
        """
        return {
            "quarantined_chunks": list(self.quarantined_chunks),
            "events_lost": self.events_lost,
            "truncated": self.truncated,
        }

    # -- chunk-wise iteration (checkpoint/resume) -----------------------------

    #: v1 JSON-lines traces have no physical chunks; group this many
    #: events into one *virtual* chunk so checkpoint cadence is
    #: comparable across formats (matches the v2 writer's default)
    VIRTUAL_CHUNK_EVENTS = 2048

    def iter_chunks(self, start: Optional[dict] = None
                    ) -> Iterator[Tuple[List[TraceEvent], dict]]:
        """Iterate ``(events, cursor)`` one fully-decoded chunk at a time.

        ``cursor`` resumes iteration *after* that chunk: pass it back as
        ``start`` (possibly in another process, days later) and the
        remaining chunks decode exactly as they would have — the cursor
        carries the incremental string table, the cumulative event
        count, the rolling chain value (v2), and the salvage
        accounting, so loss statistics survive the hop.  Cursors are
        plain picklable dicts; they are only valid against the same
        trace file — or, when they carry a chain value, against any
        append-only extension of it (checkpoint metadata pins
        identity either way).
        """
        self.complete = False
        self.tail_pending = False
        if start is not None:
            expect = "v2" if self.format == FORMAT_V2 else "v1"
            if start.get("kind") != expect:
                raise TraceFormatError(
                    f"resume cursor kind {start.get('kind')!r} does not "
                    f"match a {expect} trace", path=self.path)
            salvage = start.get("salvage") or {}
            self.quarantined_chunks = list(
                salvage.get("quarantined_chunks", []))
            self.events_lost = int(salvage.get("events_lost", 0))
            self.truncated = bool(salvage.get("truncated", False))
        else:
            self.quarantined_chunks = []
            self.events_lost = 0
            self.truncated = False
        if self.format == FORMAT_V2:
            return self._chunks_v2(start)
        return self._chunks_v1(start)

    def _salvage_state(self, claimed_lost: int) -> dict:
        return {
            "quarantined_chunks": list(self.quarantined_chunks),
            "events_lost": claimed_lost,
            "truncated": self.truncated,
        }

    def total_events(self) -> Optional[int]:
        """Total events the trace claims to hold, or None when unknowable.

        v2 files are answered from the 12-byte trailer without scanning
        the body (``analyzed_fraction`` needs this on multi-GB traces);
        a missing/torn trailer returns None.  v1 counts event lines.
        """
        if self.format == FORMAT_V2:
            try:
                with self.path.open("rb") as fh:
                    fh.seek(0, 2)
                    size = fh.tell()
                    if size < 4 + _U64.size:
                        return None
                    fh.seek(size - (4 + _U64.size))
                    tail = fh.read(4 + _U64.size)
            except OSError:
                return None
            if tail[:4] != b"TEND":
                return None
            return _U64.unpack(tail[4:])[0]
        try:
            with self.path.open() as fh:
                fh.readline()  # header
                return sum(1 for line in fh if line.strip())
        except OSError:
            return None

    def _chunks_v1(self, start: Optional[dict]
                   ) -> Iterator[Tuple[List[TraceEvent], dict]]:
        from ..mpi.trace_io import _event_from_dict  # lazy: avoids a cycle

        with self.path.open() as fh:
            fh.readline()  # header, validated in __init__
            if start is not None:
                fh.seek(start["pos"])
                lineno = start["line"]
                total = start["events_applied"]
            else:
                lineno = 1
                total = 0
            batch: List[TraceEvent] = []

            def cursor() -> dict:
                return {
                    "kind": "v1",
                    "pos": fh.tell(),
                    "line": lineno,
                    "events_applied": total,
                    "salvage": self._salvage_state(self.events_lost),
                }

            while True:
                # readline (not file iteration) keeps fh.tell() legal,
                # which is what makes v1 cursors byte-resumable
                line = fh.readline()
                if not line:
                    break
                lineno += 1
                if not line.strip():
                    continue
                try:
                    event = _event_from_dict(json.loads(line))
                except json.JSONDecodeError as exc:
                    if self.strict:
                        raise TraceFormatError(
                            f"corrupt or truncated event record: {exc}",
                            path=self.path, line=lineno,
                        ) from exc
                    self.quarantined_chunks.append(lineno)
                    self.events_lost += 1
                    continue
                except (KeyError, ValueError, TypeError) as exc:
                    if self.strict:
                        raise TraceFormatError(
                            f"malformed event record: {exc!r}",
                            path=self.path, line=lineno,
                        ) from exc
                    self.quarantined_chunks.append(lineno)
                    self.events_lost += 1
                    continue
                batch.append(event)
                if len(batch) >= self.VIRTUAL_CHUNK_EVENTS:
                    total += len(batch)
                    yield batch, cursor()
                    batch = []
            if batch:
                total += len(batch)
                yield batch, cursor()

    def _bad(self, message: str) -> None:
        """Raise in strict mode; in salvage mode the caller quarantines."""
        if self.strict:
            raise TraceFormatError(message, path=self.path)

    def _resync(self, fh, from_pos: int) -> bool:
        """Scan forward for the next frame tag and seek the file to it."""
        fh.seek(from_pos)
        overlap = b""
        while True:
            block = fh.read(1 << 16)
            if not block:
                return False
            hay = overlap + block
            hits = [i for i in (hay.find(b"CHNK"), hay.find(b"TEND"))
                    if i != -1]
            if hits:
                fh.seek(fh.tell() - len(hay) + min(hits))
                return True
            overlap = hay[-3:]

    def _chunks_v2(self, start: Optional[dict]
                   ) -> Iterator[Tuple[List[TraceEvent], dict]]:
        header = self._header
        frame = struct.Struct("<III") if header["chunk_crc"] \
            else struct.Struct("<II")
        chain_extra = _CHAIN_BYTES if header["chunk_chain_stored"] else 0
        # decoded DebugInfo / RegionInfo objects, shared for this pass
        # (sound because the string table only grows)
        debugs: Dict[int, DebugInfo] = {}
        regions: Dict[int, RegionInfo] = {}
        if start is not None:
            strings = list(start["strings"])
            total = start["events_applied"]
            claimed_lost = self.events_lost
            start_chain = start.get("chain")
            chain: Optional[bytes] = (
                bytes.fromhex(start_chain) if start_chain else None)
        else:
            strings = []
            total = 0
            claimed_lost = 0
            chain = header["chain_seed"]
        with self.path.open("rb") as fh:
            if start is not None:
                fh.seek(start["pos"])
                chunk_no = start["chunk"]
            else:
                fh.seek(len(MAGIC_V2))
                (hlen,) = _U32.unpack(fh.read(_U32.size))
                fh.seek(hlen, 1)
                chunk_no = 0
            while True:
                tag_pos = fh.tell()
                tag = fh.read(4)
                if tag == b"CHNK":
                    chunk_no += 1
                    raw = fh.read(frame.size + chain_extra)
                    if len(raw) < frame.size + chain_extra:
                        if self.tail:
                            self.tail_pending = True
                            return
                        self._bad(f"truncated chunk {chunk_no} frame")
                        self.quarantined_chunks.append(chunk_no)
                        self.truncated = True
                        break
                    if header["chunk_crc"]:
                        nbytes, nevents, crc = frame.unpack_from(raw, 0)
                    else:
                        (nbytes, nevents), crc = frame.unpack_from(raw, 0), \
                            None
                    stored_chain = raw[frame.size:] if chain_extra else None
                    if not self.strict and nbytes > (1 << 30):
                        # a frame this large is corruption, not data
                        self.quarantined_chunks.append(chunk_no)
                        chain = None
                        if not self._resync(fh, tag_pos + 1):
                            self.truncated = True
                            break
                        continue
                    payload = fh.read(nbytes)
                    if len(payload) < nbytes:
                        if self.tail:
                            self.tail_pending = True
                            return
                        self._bad(
                            f"truncated chunk {chunk_no}: expected {nbytes} "
                            f"bytes, got {len(payload)}"
                        )
                        self.quarantined_chunks.append(chunk_no)
                        claimed_lost += nevents
                        self.truncated = True
                        break
                    if crc is not None and zlib.crc32(payload) != crc:
                        self._bad(
                            f"chunk {chunk_no}: checksum mismatch "
                            f"(payload corrupt)"
                        )
                        self.quarantined_chunks.append(chunk_no)
                        claimed_lost += nevents
                        chain = None
                        continue
                    if chain is not None:
                        chain = _chain_next(chain, payload)
                        if stored_chain is not None and stored_chain != chain:
                            if self.strict:
                                raise TraceChainMismatch(
                                    f"chunk {chunk_no}: chain mismatch "
                                    f"(trace prefix was rewritten)",
                                    path=self.path, chunk=chunk_no)
                            self.quarantined_chunks.append(chunk_no)
                            claimed_lost += nevents
                            chain = None
                            continue
                    try:
                        events = self._decode_chunk(
                            payload, nevents, chunk_no, strings,
                            debugs, regions)
                    except TraceFormatError:
                        if self.strict:
                            raise
                        self.quarantined_chunks.append(chunk_no)
                        claimed_lost += nevents
                        continue
                    total += nevents
                    yield events, {
                        "kind": "v2",
                        "chunk": chunk_no,
                        "pos": fh.tell(),
                        "strings": list(strings),
                        "events_applied": total,
                        "chain": chain.hex() if chain is not None else None,
                        "salvage": self._salvage_state(claimed_lost),
                    }
                elif tag == b"TEND":
                    raw = fh.read(_U64.size)
                    if len(raw) < _U64.size:
                        if self.tail:
                            self.tail_pending = True
                            return
                        self._bad("truncated trailer")
                        self.truncated = True
                        break
                    (expected,) = _U64.unpack(raw)
                    if expected != total:
                        self._bad(
                            f"event count mismatch: trailer says {expected}, "
                            f"file holds {total}"
                        )
                        # the trailer is the authoritative loss count
                        self.events_lost = max(0, expected - total)
                    if fh.read(1):
                        self._bad("junk after trailer")
                    self.complete = True
                    return
                elif tag == b"":
                    if self.tail:
                        self.tail_pending = True
                        return
                    self._bad(
                        f"truncated file: no trailer after chunk {chunk_no}"
                    )
                    self.truncated = True
                    break
                else:
                    if self.tail and len(tag) < 4:
                        # a partial tag at EOF is a write in flight
                        self.tail_pending = True
                        return
                    self._bad(f"bad chunk tag {tag!r} after chunk {chunk_no}")
                    chunk_no += 1
                    self.quarantined_chunks.append(chunk_no)
                    chain = None
                    if not self._resync(fh, tag_pos + 1):
                        self.truncated = True
                        break
                    continue
            # salvage-only exit: the file ended without a (sound) trailer,
            # so the per-frame claims are the best available loss count
            self.events_lost = claimed_lost

    def _decode_chunk(
        self, payload: bytes, nevents: int, chunk_no: int,
        strings: List[str], debugs: Dict[int, DebugInfo],
        regions: Dict[int, RegionInfo],
    ) -> List[TraceEvent]:
        """Decode one verified chunk payload into events.

        ``debugs`` and ``regions`` intern :class:`DebugInfo` per
        ``(file id, line)`` and :class:`RegionInfo` per raw ``(kind,
        alias)`` byte pair for the caller's pass; whole
        :class:`MemoryAccess` objects are memoized per raw access
        record for this chunk only, which bounds the memo by the chunk.
        Objects are built by setting their fields directly, so every
        check ``__init__`` would make is spelled out here instead.
        """
        path = self.path
        header = self._header
        access_table: List[AccessType] = header["access_table"]
        sync_table: List[SyncKind] = header["sync_table"]
        region_table: List[RegionKind] = header["region_table"]
        pos = _read_strings(payload, strings, path, chunk_no)
        new = _new
        setattr_ = _setattr
        u32_at = _U32.unpack_from
        i64_at = _I64.unpack_from
        access_at = _ACCESS.unpack_from
        local_at = _LOCAL.unpack_from
        rma_at = _RMA.unpack_from
        sync_at = _SYNC.unpack_from
        nacc = 1 + _ACCESS.size
        nlocal = 1 + _LOCAL.size
        nrma = 1 + _RMA.size
        nsync = 1 + _SYNC.size
        access_len = _ACCESS_LEN
        set_lo, set_hi = _IV_SET
        (set_iv, set_type, set_debug, set_origin, set_seq, set_flush,
         set_accum, set_excl) = _ACC_SET
        memo: Dict[bytes, MemoryAccess] = {}
        memo_get = memo.get
        debug_get = debugs.get
        region_get = regions.get

        def build_access(p: int, raw: bytes) -> MemoryAccess:
            # a memo miss: ``raw`` is the record at ``p``, flags byte
            # first.  A record cut short by the payload end cannot have
            # hit the memo (its flags byte demands a longer key); the
            # unpacks below reject it.
            flags = raw[0]
            lo, hi, tid, fid, line, origin, flush_gen = access_at(
                payload, p + 1)
            if not 0 <= lo < hi:
                raise TraceFormatError(
                    f"chunk {chunk_no}: empty, inverted or negative "
                    f"interval [{lo}, {hi})", path=path)
            q = p + nacc
            accum = excl = None
            if flags & _FLAG_ACCUM:
                accum = strings[u32_at(payload, q)[0]]
                q += 4
            if flags & _FLAG_EXCL:
                excl = i64_at(payload, q)[0]
            dkey = fid << 32 | line
            debug = debug_get(dkey)
            if debug is None:
                debug = debugs[dkey] = DebugInfo(strings[fid], line)
            iv = new(Interval)
            set_lo(iv, lo)
            set_hi(iv, hi)
            acc = new(MemoryAccess)
            set_iv(acc, iv)
            set_type(acc, access_table[tid])
            set_debug(acc, debug)
            set_origin(acc, origin)
            set_seq(acc, 0)
            set_flush(acc, flush_gen)
            set_accum(acc, accum)
            set_excl(acc, excl)
            memo[raw] = acc
            return acc

        def take_access(p: int) -> Tuple[MemoryAccess, int]:
            end = p + access_len[payload[p] & 3]
            raw = payload[p:end]
            return memo_get(raw) or build_access(p, raw), end

        def take_region(p: int) -> RegionInfo:
            key = payload[p] << 8 | payload[p + 1]
            info = region_get(key)
            if info is None:
                info = regions[key] = RegionInfo(
                    region_table[payload[p]], bool(payload[p + 1]))
            return info

        out: List[TraceEvent] = []
        append = out.append
        try:
            for _ in range(nevents):
                tag = payload[pos]
                if tag == _TAG_LOCAL:
                    # locals are most events: take_access and
                    # take_region are inlined on their hit paths
                    seq, rank = local_at(payload, pos + 1)
                    p = pos + nlocal
                    pos = p + access_len[payload[p] & 3]
                    raw = payload[p:pos]
                    access = memo_get(raw) or build_access(p, raw)
                    region = region_get(
                        payload[pos] << 8 | payload[pos + 1]
                    ) or take_region(pos)
                    pos += 2
                    event = new(LocalEvent)
                    setattr_(event, "__dict__", {
                        "seq": seq, "rank": rank, "access": access,
                        "region": region})
                elif tag == _TAG_RMA:
                    seq, rank, target, wid = rma_at(payload, pos + 1)
                    pos += nrma
                    op = strings[u32_at(payload, pos)[0]]
                    nbytes = i64_at(payload, pos + 4)[0]
                    origin_access, pos = take_access(pos + 12)
                    target_access, pos = take_access(pos)
                    event = new(RmaEvent)
                    setattr_(event, "__dict__", {
                        "seq": seq, "rank": rank, "op": op,
                        "target": target, "wid": wid,
                        "origin_access": origin_access,
                        "target_access": target_access,
                        "origin_region": take_region(pos),
                        "target_region": take_region(pos + 2),
                        "nbytes": nbytes})
                    pos += 4
                elif tag == _TAG_SYNC:
                    seq, rank, kid, wid = sync_at(payload, pos + 1)
                    event = new(SyncEvent)
                    setattr_(event, "__dict__", {
                        "seq": seq, "rank": rank, "kind": sync_table[kid],
                        "wid": wid})
                    pos += nsync
                else:
                    raise TraceFormatError(
                        f"chunk {chunk_no}: unknown event tag {tag}",
                        path=path)
                append(event)
        except (IndexError, struct.error) as exc:
            # a record running past the payload end, or an id past the
            # end of its table
            raise TraceFormatError(
                f"chunk {chunk_no}: malformed event record at byte {pos} "
                f"({exc})", path=path,
            ) from exc
        if pos != len(payload):
            raise TraceFormatError(
                f"chunk {chunk_no}: {len(payload) - pos} trailing bytes",
                path=path,
            )
        return out


class WireStream:
    """Raw v2 chunk payloads plus the decode context the flat core needs.

    Iterating yields ``(payload, offset, nevents)`` triples: ``payload``
    is a checksum-verified chunk body, ``offset`` points just past the
    chunk's string-table prefix (already folded into :attr:`strings`),
    and ``nevents`` is the frame's event count.  Framing, checksums and
    the trailer are verified exactly as strict decoded iteration does,
    but no event objects are constructed — that is the consumer's job
    (the flat core's ``ingest_wire``).

    The stream also carries the enum tables from the header and two
    decode caches (wire site/accum ids → detector interned ids).  The
    caches are sound per stream because the wire string table is
    append-only: a given ``(file id, line)`` or accum-op id means the
    same string for the life of the stream.
    """

    def __init__(self, reader: TraceReader) -> None:
        header = reader._header
        self.path = reader.path
        self.nranks: int = header["nranks"]
        self.access_table: List[AccessType] = header["access_table"]
        self.sync_table: List[SyncKind] = header["sync_table"]
        self.region_table: List[RegionKind] = header["region_table"]
        self.chunk_crc: bool = header["chunk_crc"]
        self.chunk_chain_stored: bool = header["chunk_chain_stored"]
        self._chain_seed: bytes = header["chain_seed"]
        #: shared wire string table, grown chunk by chunk (append-only)
        self.strings: List[str] = []
        #: (wire file id << 32 | line) -> interned SITES id
        self.site_ids: Dict[int, int] = {}
        #: wire accum-op string id -> interned ACCUMS id
        self.accum_ids: Dict[int, int] = {}
        #: 1-based number of the chunk last yielded (0 before the first),
        #: so a consumer's errors can name it
        self.chunk_no = 0

    def _bad(self, message: str) -> None:
        raise TraceFormatError(message, path=self.path)

    def __iter__(self) -> Iterator[Tuple[bytes, int, int]]:
        frame = struct.Struct("<III") if self.chunk_crc \
            else struct.Struct("<II")
        chain_extra = _CHAIN_BYTES if self.chunk_chain_stored else 0
        chain = self._chain_seed
        strings = self.strings
        total = 0
        chunk_no = 0
        with self.path.open("rb") as fh:
            fh.seek(len(MAGIC_V2))
            (hlen,) = _U32.unpack(fh.read(_U32.size))
            fh.seek(hlen, 1)
            while True:
                tag = fh.read(4)
                if tag == b"CHNK":
                    chunk_no += 1
                    raw = fh.read(frame.size + chain_extra)
                    if len(raw) < frame.size + chain_extra:
                        self._bad(f"truncated chunk {chunk_no} frame")
                    if self.chunk_crc:
                        nbytes, nevents, crc = frame.unpack_from(raw, 0)
                    else:
                        (nbytes, nevents), crc = frame.unpack_from(raw, 0), \
                            None
                    payload = fh.read(nbytes)
                    if len(payload) < nbytes:
                        self._bad(
                            f"truncated chunk {chunk_no}: expected {nbytes} "
                            f"bytes, got {len(payload)}"
                        )
                    if crc is not None and zlib.crc32(payload) != crc:
                        self._bad(
                            f"chunk {chunk_no}: checksum mismatch "
                            f"(payload corrupt)"
                        )
                    chain = _chain_next(chain, payload)
                    if chain_extra and raw[frame.size:] != chain:
                        raise TraceChainMismatch(
                            f"chunk {chunk_no}: chain mismatch (trace "
                            f"prefix was rewritten)",
                            path=self.path, chunk=chunk_no)
                    off = _read_strings(payload, strings, self.path,
                                        chunk_no)
                    total += nevents
                    self.chunk_no = chunk_no
                    yield payload, off, nevents
                elif tag == b"TEND":
                    raw = fh.read(_U64.size)
                    if len(raw) < _U64.size:
                        self._bad("truncated trailer")
                    (expected,) = _U64.unpack(raw)
                    if expected != total:
                        self._bad(
                            f"event count mismatch: trailer says {expected}, "
                            f"file holds {total}"
                        )
                    if fh.read(1):
                        self._bad("junk after trailer")
                    return
                elif tag == b"":
                    self._bad(
                        f"truncated file: no trailer after chunk {chunk_no}"
                    )
                else:
                    self._bad(f"bad chunk tag {tag!r} after chunk {chunk_no}")


# -- chain helpers (incremental analysis) ------------------------------------


def trace_chain(path: Union[str, Path], upto: Optional[int] = None) -> dict:
    """Rolling hash chain of a v2 trace, computed without decoding events.

    Walks the chunk framing only — one crc verify and one sha256 update
    per chunk — so it is cheap enough to run at serve admission on every
    upload.  Returns::

        {"algo": "sha256",
         "chunks": [hex chain value after chunk 1, 2, ...],
         "offsets": [file offset just past chunk 1, 2, ...],
         "events": [cumulative event count after chunk 1, 2, ...],
         "complete": bool,            # reached a valid trailer
         "stored_mismatch": int|None} # first chunk whose *stored* chain
                                      # digest disagrees (prefix rewrite)

    ``upto`` stops after that many chunks (``complete`` is then about
    the trailer only if it was reached, i.e. normally False).  The
    chain is computed for any v2 file, with or without stored per-frame
    digests; a torn tail simply ends the walk (``complete=False``),
    matching tail-reader semantics.  Genuinely corrupt framing — a bad
    tag mid-file or a checksum mismatch on a complete payload — raises
    :class:`~repro.mpi.errors.TraceFormatError`.
    """
    path = Path(path)
    chunks: List[str] = []
    offsets: List[int] = []
    events: List[int] = []
    complete = False
    stored_mismatch: Optional[int] = None
    with path.open("rb") as fh:
        if fh.read(len(MAGIC_V2)) != MAGIC_V2:
            raise TraceFormatError("not a repro-trace-v2 file", path=path)
        hlen_raw = fh.read(_U32.size)
        if len(hlen_raw) < _U32.size:
            raise TraceFormatError("truncated v2 header length", path=path)
        (hlen,) = _U32.unpack(hlen_raw)
        header_bytes = fh.read(hlen)
        if len(header_bytes) < hlen:
            raise TraceFormatError("truncated v2 header", path=path)
        try:
            header = json.loads(header_bytes)
        except json.JSONDecodeError as exc:
            raise TraceFormatError(f"corrupt v2 header: {exc}",
                                   path=path) from exc
        has_crc = bool(header.get("chunk_crc32"))
        has_stored = bool(header.get("chunk_chain"))
        frame = struct.Struct("<III") if has_crc else struct.Struct("<II")
        extra = _CHAIN_BYTES if has_stored else 0
        chain = _chain_seed(hlen_raw, header_bytes)
        total = 0
        chunk_no = 0
        while upto is None or chunk_no < upto:
            tag = fh.read(4)
            if tag == b"CHNK":
                chunk_no += 1
                raw = fh.read(frame.size + extra)
                if len(raw) < frame.size + extra:
                    break  # torn tail
                if has_crc:
                    nbytes, nevents, crc = frame.unpack_from(raw, 0)
                else:
                    (nbytes, nevents), crc = frame.unpack_from(raw, 0), None
                payload = fh.read(nbytes)
                if len(payload) < nbytes:
                    break  # torn tail
                if crc is not None and zlib.crc32(payload) != crc:
                    raise TraceFormatError(
                        f"chunk {chunk_no}: checksum mismatch "
                        f"(payload corrupt)", path=path)
                chain = _chain_next(chain, payload)
                if extra and stored_mismatch is None \
                        and raw[frame.size:] != chain:
                    stored_mismatch = chunk_no
                total += nevents
                chunks.append(chain.hex())
                offsets.append(fh.tell())
                events.append(total)
            elif tag == b"TEND":
                raw = fh.read(_U64.size)
                if len(raw) == _U64.size:
                    complete = True
                break
            elif len(tag) < 4:
                break  # torn tail
            else:
                raise TraceFormatError(
                    f"bad chunk tag {tag!r} after chunk {chunk_no}",
                    path=path)
    return {
        "algo": CHAIN_ALGO,
        "chunks": chunks,
        "offsets": offsets,
        "events": events,
        "complete": complete,
        "stored_mismatch": stored_mismatch,
    }


def compare_chain(old: dict, new: dict) -> dict:
    """Relate two :func:`trace_chain` results.

    Returns ``{"relation", "common", "diverged_at"}`` where relation is
    one of ``identical`` (same chunks), ``extension`` (``new`` extends
    ``old`` append-only), ``truncated`` (``new`` is a proper prefix of
    ``old``) or ``diverged``; ``common`` counts the shared prefix
    chunks and ``diverged_at`` names the first differing chunk (1-based)
    for ``diverged``, else None.

    Because each value hashes the whole prefix, one equal chain value
    at index k proves byte-identity of chunks 1..k — the list compare
    here is belt and braces, not a per-chunk requirement.
    """
    a, b = old["chunks"], new["chunks"]
    common = 0
    for x, y in zip(a, b):
        if x != y:
            break
        common += 1
    if common == len(a) == len(b):
        relation = "identical"
    elif common == len(a):
        relation = "extension"
    elif common == len(b):
        relation = "truncated"
    else:
        relation = "diverged"
    return {
        "relation": relation,
        "common": common,
        "diverged_at": common + 1 if relation == "diverged" else None,
    }
