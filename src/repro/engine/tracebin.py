"""``.rtb`` — the compact framed binary trace format.

JSONL archives are the scale bottleneck the ROADMAP names: ~9 MB for a
single n=8192 wreath run makes million-node / million-round archives
unworkable.  Per-round *deltas* are tiny even when cumulative state is
huge, so the binary format encodes exactly what the JSONL lines encode —
the effective sets and counters of each committed round — but framed,
delta/varint-packed, and deflate-compressed per segment:

* **File layout** — an 8-byte magic, one independent zlib stream of
  frames per run segment, an uncompressed CRC-protected index frame,
  and a fixed 16-byte trailer pointing at the index::

      MAGIC ┃ segment 0 frames (zlib) ┃ … ┃ index frame ┃ trailer

* **Frames** — ``tag:u8  length:uvarint  payload`` with tag ``0x01``
  (round), ``0x02`` (perturbation), ``0x0F`` (index, container level
  only).  Round payloads pack the counters as zigzag varints and the
  effective sets delta-encoded in the canonical archive order shared
  with the JSONL writer (:func:`~repro.engine.trace.sorted_edges`).
  All-int edge lists store ``zigzag(u - prev_u), zigzag(v - u)``;
  mixed/str labels fall back to per-endpoint tagged values.

* **Index footer** — per-segment ``(byte offset, compressed length,
  raw length, CRC-32 of the raw frame bytes, round count, perturbation
  count)`` plus a JSON metadata blob (format tag and the telemetry
  provenance stamp), so a reader can seek straight to any segment and
  audit segments in parallel without materializing the file.

* **Trailer** — ``u64le index offset`` + 8-byte end magic; readers find
  the index by seeking to ``EOF - 16``.

JSONL stays the differential oracle: conversion is lossless both ways
and ``to_jsonl(from_binary(to_binary(t)))`` is asserted byte-identical
to ``to_jsonl(t)`` over the full registry corpus on every backend
(tests/test_tracebin.py, tests/test_backend_differential.py).  Every
corrupted, truncated, or tampered byte raises
:class:`~repro.errors.TraceError` naming the segment/frame — magic
checks, the zlib adler32, per-segment raw CRC-32 + length + frame-count
cross-checks, and the index CRC-32 layer over each other so no region
of the file is unprotected.  See DESIGN.md, "Binary traces".
"""

from __future__ import annotations

import io
import json
import os
import struct
import zlib
from typing import NamedTuple

try:
    import numpy as _np
except ImportError:  # pragma: no cover - numpy is a core dependency
    _np = None

from ..errors import ConfigurationError, TraceError
from .observers import JsonlSink, RawRound, RoundObserver, _PairsView
from .trace import (
    PerturbationRecord,
    RoundRecord,
    Trace,
    sorted_edges,
    split_segments,
)

__all__ = [
    "BinarySink",
    "BinaryTraceReader",
    "SegmentInfo",
    "from_binary",
    "is_binary_trace",
    "load_trace",
    "to_binary",
    "trace_sink_for",
]

#: Leading file magic (8 bytes; the trailing pair catches text-mode
#: newline mangling, the NUL catches C-string truncation).
MAGIC = b"RTB\x001\r\n\x00"
#: Trailing end magic (8 bytes) — the last bytes of every valid file.
END_MAGIC = b"RTBEND\r\n"
#: Format tag recorded in the index metadata.
FORMAT = "rtb/1"

_FRAME_ROUND = 0x01
_FRAME_PERT = 0x02
_FRAME_INDEX = 0x0F

_VAL_INT = 0x00
_VAL_STR = 0x01

_EDGES_INT_DELTA = 0x00
_EDGES_TAGGED = 0x01

_TRAILER = struct.Struct("<Q8s")
_CRC = struct.Struct("<I")

#: zlib level used by the sink/converter: level 7 is within ~2% of the
#: level-9 ratio on trace frames at roughly half the compression cost.
_ZLIB_LEVEL = 7


# ----------------------------------------------------------------------
# varint / value primitives
# ----------------------------------------------------------------------


def _w_uv(out: bytearray, n: int) -> None:
    """LEB128 unsigned varint."""
    if n < 0:
        raise TraceError(f"cannot encode negative length {n}")
    while n > 0x7F:
        out.append((n & 0x7F) | 0x80)
        n >>= 7
    out.append(n)


def _w_sv(out: bytearray, n: int) -> None:
    """Zigzag-mapped signed varint."""
    _w_uv(out, (n << 1) if n >= 0 else ((-n << 1) - 1))


def _w_val(out: bytearray, x) -> None:
    """One uid/label: tagged int or utf-8 string."""
    if type(x) is int:
        out.append(_VAL_INT)
        _w_sv(out, x)
    elif type(x) is str:
        raw = x.encode("utf-8")
        out.append(_VAL_STR)
        _w_uv(out, len(raw))
        out += raw
    else:
        raise TraceError(
            f"cannot encode label {x!r} of type {type(x).__name__}: "
            f"binary traces hold the JSONL contract's int/str uids only"
        )


def _w_edges(out: bytearray, edges) -> None:
    """An effective set, in the canonical archive order.

    All-int pairs delta-encode against the lexicographic sort (first
    endpoints are non-decreasing, second endpoints near the first), so
    dense activation sets cost ~2 bytes per edge before deflate.
    """
    pairs = sorted_edges(edges)
    _w_uv(out, len(pairs))
    if not pairs:
        return
    if all(type(u) is int and type(v) is int for u, v in pairs):
        out.append(_EDGES_INT_DELTA)
        prev = 0
        for u, v in pairs:
            _w_sv(out, u - prev)
            _w_sv(out, v - u)
            prev = u
    else:
        out.append(_EDGES_TAGGED)
        for u, v in pairs:
            _w_val(out, u)
            _w_val(out, v)


def _round_payload(rec: RoundRecord) -> bytearray:
    out = bytearray()
    _w_sv(out, rec.round)
    _w_sv(out, rec.barrier_epoch)
    out.append(1 if rec.connected else 0)
    _w_sv(out, rec.active_edges)
    _w_sv(out, rec.activated_edges)
    _w_edges(out, rec.activations)
    _w_edges(out, rec.deactivations)
    return out


def _pert_payload(rec: PerturbationRecord) -> bytearray:
    out = bytearray()
    _w_sv(out, rec.round)
    _w_edges(out, rec.drops)
    _w_edges(out, rec.adds)
    _w_uv(out, len(rec.crashes))
    for uid in rec.crashes:
        _w_val(out, uid)
    _w_uv(out, len(rec.joins))
    for uid, attach in rec.joins:
        _w_val(out, uid)
        _w_uv(out, len(attach))
        for v in attach:
            _w_val(out, v)
    return out


def _frame(tag: int, payload) -> bytes:
    head = bytearray((tag,))
    _w_uv(head, len(payload))
    return bytes(head) + bytes(payload)


class _Cursor:
    """Bounds-checked decoder over one frame payload."""

    __slots__ = ("buf", "pos", "end")

    def __init__(self, buf, pos: int = 0, end: int | None = None) -> None:
        self.buf = buf
        self.pos = pos
        self.end = len(buf) if end is None else end

    def u8(self) -> int:
        if self.pos >= self.end:
            raise TraceError("payload truncated")
        b = self.buf[self.pos]
        self.pos += 1
        return b

    def uv(self) -> int:
        shift = 0
        value = 0
        while True:
            b = self.u8()
            value |= (b & 0x7F) << shift
            if not b & 0x80:
                return value
            shift += 7

    def sv(self) -> int:
        z = self.uv()
        return (z >> 1) if not z & 1 else -((z + 1) >> 1)

    def take(self, n: int) -> bytes:
        if self.pos + n > self.end:
            raise TraceError("payload truncated")
        raw = bytes(self.buf[self.pos : self.pos + n])
        self.pos += n
        return raw

    def val(self):
        tag = self.u8()
        if tag == _VAL_INT:
            return self.sv()
        if tag == _VAL_STR:
            raw = self.take(self.uv())
            try:
                return raw.decode("utf-8")
            except UnicodeDecodeError as exc:
                raise TraceError(f"invalid utf-8 label ({exc.reason})") from None
        raise TraceError(f"unknown value tag 0x{tag:02x}")

    def edges(self) -> list:
        count = self.uv()
        if count == 0:
            return []
        mode = self.u8()
        pairs = []
        if mode == _EDGES_INT_DELTA:
            prev = 0
            for _ in range(count):
                u = prev + self.sv()
                v = u + self.sv()
                pairs.append((u, v))
                prev = u
        elif mode == _EDGES_TAGGED:
            for _ in range(count):
                u = self.val()
                v = self.val()
                pairs.append((u, v))
        else:
            raise TraceError(f"unknown edge-list mode 0x{mode:02x}")
        return pairs

    def done(self) -> None:
        if self.pos != self.end:
            raise TraceError(f"{self.end - self.pos} trailing payload bytes")


def _decode_round(payload) -> RoundRecord:
    cur = _Cursor(payload)
    round_no = cur.sv()
    barrier_epoch = cur.sv()
    connected = cur.u8()
    if connected not in (0, 1):
        raise TraceError(f"connected flag must be 0/1, got {connected}")
    active_edges = cur.sv()
    activated_edges = cur.sv()
    activations = cur.edges()
    deactivations = cur.edges()
    cur.done()
    return RoundRecord(
        round=round_no,
        activations=frozenset(activations),
        deactivations=frozenset(deactivations),
        active_edges=active_edges,
        activated_edges=activated_edges,
        connected=bool(connected),
        barrier_epoch=barrier_epoch,
    )


def _decode_pert(payload) -> PerturbationRecord:
    cur = _Cursor(payload)
    round_no = cur.sv()
    drops = cur.edges()
    adds = cur.edges()
    crashes = tuple(cur.val() for _ in range(cur.uv()))
    joins = []
    for _ in range(cur.uv()):
        uid = cur.val()
        attach = tuple(cur.val() for _ in range(cur.uv()))
        joins.append((uid, attach))
    cur.done()
    return PerturbationRecord(
        round=round_no,
        drops=frozenset(drops),
        adds=frozenset(adds),
        crashes=crashes,
        joins=tuple(joins),
    )


# ----------------------------------------------------------------------
# array decode: whole edge blocks as int64 endpoint arrays
# ----------------------------------------------------------------------


#: Per-delta magnitude / per-block count ceilings for the vectorized
#: path: values any real archive stays far under, chosen so the int64
#: cumsum provably cannot wrap (2^26 * 2^35 < 2^62).  Beyond them the
#: scalar decoder (arbitrary-precision Python ints) takes over.
_VEC_MAX_DELTA = 1 << 35
_VEC_MAX_COUNT = 1 << 26


def _decode_svs_vec(b, pos: int, count: int):
    """Decode ``count`` zigzag varints from ``b[pos:]`` in one pass.

    Returns ``(int64 values, new_pos)``, or ``None`` when a varint is
    long enough (> 9 bytes) that the value could exceed int64 — the
    caller falls back to the scalar decoder, which handles arbitrary
    Python ints.  Terminator bytes are found as a vector (high bit
    clear), each byte's 7 payload bits are shifted by its within-varint
    position, and groups fold with ``np.add.at`` (disjoint bit ranges,
    so sum == or).
    """
    a = b[pos:]
    term = _np.nonzero((a & 0x80) == 0)[0]
    if term.size < count:
        raise TraceError("payload truncated")
    term = term[:count]
    used = int(term[-1]) + 1
    starts = _np.empty(count, dtype=_np.int64)
    starts[0] = 0
    starts[1:] = term[:-1] + 1
    lens = term - starts + 1
    if int(lens.max()) > 9:
        return None
    group = _np.repeat(_np.arange(count), lens)
    within = _np.arange(used, dtype=_np.int64) - starts[group]
    contrib = (a[:used].astype(_np.uint64) & _np.uint64(0x7F)) << (
        (7 * within).astype(_np.uint64)
    )
    z = _np.zeros(count, dtype=_np.uint64)
    _np.add.at(z, group, contrib)
    mag = (z >> _np.uint64(1)).astype(_np.int64)
    vals = _np.where((z & _np.uint64(1)).astype(bool), -mag - 1, mag)
    return vals, pos + used


def _edges_arrays(cur, b):
    """Decode one edge block into ``(u, v)`` int64 arrays, or ``None``
    to send the whole frame to the scalar decoder (tagged labels,
    oversized blocks, oversized deltas)."""
    count = cur.uv()
    if count == 0:
        empty = _np.empty(0, dtype=_np.int64)
        return empty, empty
    mode = cur.u8()
    if mode != _EDGES_INT_DELTA:
        if mode != _EDGES_TAGGED:
            raise TraceError(f"unknown edge-list mode 0x{mode:02x}")
        return None
    if count > _VEC_MAX_COUNT:
        return None
    out = _decode_svs_vec(b, cur.pos, 2 * count)
    if out is None:
        return None
    vals, cur.pos = out
    du, dv = vals[0::2], vals[1::2]
    if int(_np.abs(du).max()) >= _VEC_MAX_DELTA or int(_np.abs(dv).max()) >= _VEC_MAX_DELTA:
        return None
    u = _np.cumsum(du)
    return u, u + dv


def _decode_round_arrays(payload):
    """Decode a round frame into a :class:`RawRound` over
    :class:`_PairsView` edge blocks; any reason the
    vector path cannot represent it exactly — tagged labels, huge
    values — falls back to :func:`_decode_round` on the same payload.
    Errors are raised by re-running the scalar decoder, so malformed
    frames fail with byte-identical messages in both modes."""
    try:
        cur = _Cursor(payload)
        round_no = cur.sv()
        barrier_epoch = cur.sv()
        connected = cur.u8()
        if connected not in (0, 1):
            raise TraceError(f"connected flag must be 0/1, got {connected}")
        active_edges = cur.sv()
        activated_edges = cur.sv()
        b = _np.frombuffer(payload, dtype=_np.uint8)
        acts = _edges_arrays(cur, b)
        if acts is None:
            return _decode_round(payload)
        deacts = _edges_arrays(cur, b)
        if deacts is None:
            return _decode_round(payload)
        cur.done()
    except TraceError:
        return _decode_round(payload)  # fail with the scalar diagnostics
    return RawRound(
        round=round_no,
        activations=_PairsView(*acts),
        deactivations=_PairsView(*deacts),
        active_edges=active_edges,
        activated_edges=activated_edges,
        connected=bool(connected),
        barrier_epoch=barrier_epoch,
    )


# ----------------------------------------------------------------------
# writer
# ----------------------------------------------------------------------


class BinarySink(RoundObserver):
    """Streams records to a ``.rtb`` file incrementally.

    The binary twin of :class:`~repro.engine.observers.JsonlSink`: one
    frame per record, compressed through a per-segment ``compressobj``
    as rounds commit, so peak memory is one frame plus the zlib window —
    independent of round count.  Each ``on_run_start`` (pipeline stage,
    self-healing episode) closes the current segment's zlib stream and
    opens a fresh one, which is what makes segments independently
    seekable afterwards; :meth:`close` appends the index footer and
    trailer (an unclosed sink leaves a file without a trailer, which
    readers reject as truncated — by design).

    Pass a path (opened and owned by the sink) or a seekless binary
    file-like (borrowed; never closed).  ``meta`` extends the index
    metadata blob; by default the telemetry provenance stamp is
    recorded, making every archive traceable to the code that wrote it.
    """

    def __init__(self, path_or_file, *, meta: dict | None = None) -> None:
        if hasattr(path_or_file, "write"):
            if isinstance(path_or_file, io.TextIOBase):
                raise ConfigurationError(
                    "BinarySink needs a binary-mode file (got text mode); "
                    "pass a path or open with 'wb'"
                )
            self._fh = path_or_file
            self._owns = False
        else:
            self._fh = open(os.fspath(path_or_file), "wb")
            self._owns = True
        self._meta = meta
        self._fh.write(MAGIC)
        self._pos = len(MAGIC)
        self._segments: list = []
        self._comp = None
        self._closed = False
        #: Frames written so far (rounds + perturbations).
        self.frames = 0

    # -- segment lifecycle ---------------------------------------------

    def _open_segment(self) -> None:
        self._end_segment()
        self._comp = zlib.compressobj(_ZLIB_LEVEL)
        self._seg_offset = self._pos
        self._seg_raw = 0
        self._seg_crc = 0
        self._seg_rounds = 0
        self._seg_perts = 0

    def _end_segment(self) -> None:
        if self._comp is None:
            return
        data = self._comp.flush()
        self._fh.write(data)
        self._pos += len(data)
        self._segments.append(
            SegmentInfo(
                offset=self._seg_offset,
                comp_len=self._pos - self._seg_offset,
                raw_len=self._seg_raw,
                crc32=self._seg_crc,
                n_rounds=self._seg_rounds,
                n_perturbations=self._seg_perts,
            )
        )
        self._comp = None

    def _emit(self, tag: int, payload) -> None:
        if self._closed:
            raise TraceError("BinarySink is closed")
        if self._comp is None:
            # Defensive: a caller feeding records without on_run_start
            # (hand-driven streams) still gets a well-formed one-segment
            # file, mirroring JsonlSink's indifference to run framing.
            self._open_segment()
        frame = _frame(tag, payload)
        self._seg_crc = zlib.crc32(frame, self._seg_crc)
        self._seg_raw += len(frame)
        data = self._comp.compress(frame)
        self._fh.write(data)
        self._pos += len(data)
        self.frames += 1

    # -- observer hooks ------------------------------------------------

    def on_run_start(self, network) -> None:
        self._open_segment()

    def on_round(self, record: RoundRecord) -> None:
        try:
            payload = _round_payload(record)
        except TypeError as exc:
            raise TraceError(f"cannot encode round record: {exc}") from None
        self._emit(_FRAME_ROUND, payload)
        self._seg_rounds += 1

    def on_perturbation(self, record: PerturbationRecord) -> None:
        try:
            payload = _pert_payload(record)
        except TypeError as exc:
            raise TraceError(f"cannot encode perturbation record: {exc}") from None
        self._emit(_FRAME_PERT, payload)
        self._seg_perts += 1

    def on_run_end(self, metrics) -> None:
        self._fh.flush()

    # -- finalization --------------------------------------------------

    def close(self) -> None:
        """Finish the open segment, write the index footer + trailer."""
        if self._closed:
            return
        self._end_segment()
        index_offset = self._pos
        payload = bytearray()
        _w_uv(payload, len(self._segments))
        for seg in self._segments:
            _w_uv(payload, seg.offset)
            _w_uv(payload, seg.comp_len)
            _w_uv(payload, seg.raw_len)
            payload += _CRC.pack(seg.crc32)
            _w_uv(payload, seg.n_rounds)
            _w_uv(payload, seg.n_perturbations)
        meta = {"format": FORMAT}
        if self._meta is None:
            meta["provenance"] = _provenance()
        else:
            meta.update(self._meta)
        raw_meta = json.dumps(meta, sort_keys=True).encode("utf-8")
        _w_uv(payload, len(raw_meta))
        payload += raw_meta
        frame = _frame(_FRAME_INDEX, payload)
        self._fh.write(frame)
        self._fh.write(_CRC.pack(zlib.crc32(bytes(payload))))
        self._fh.write(_TRAILER.pack(index_offset, END_MAGIC))
        self._fh.flush()
        self._closed = True
        if self._owns:
            self._fh.close()
            self._owns = False

    def __enter__(self) -> "BinarySink":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def _provenance() -> dict:
    # Imported lazily: repro.telemetry imports repro.engine.observers,
    # so a module-level import here would cycle during package init.
    from ..telemetry.provenance import build_provenance

    return build_provenance(None)


# ----------------------------------------------------------------------
# reader
# ----------------------------------------------------------------------


class SegmentInfo(NamedTuple):
    """One index-footer entry: where a segment lives and what it holds."""

    offset: int
    comp_len: int
    raw_len: int
    crc32: int
    n_rounds: int
    n_perturbations: int


class BinaryTraceReader:
    """Offset-seekable ``.rtb`` reader: index first, segments on demand.

    Opening reads only the trailer and index footer; record frames
    stream through :meth:`iter_segment` (or :meth:`__iter__`, all
    segments in order) one decompression block at a time, so peak
    memory is independent of archive size — the property the memory
    guard pins against the streamed-JSONL ceiling.  Each segment is
    fully validated as it streams: zlib adler32, raw CRC-32, raw
    length, and index-declared frame counts must all agree, and any
    mismatch raises :class:`~repro.errors.TraceError` naming the
    segment (and frame, when one is identifiable).

    Accepts a path (opened and owned), a ``bytes`` payload, or a
    seekable binary file-like (borrowed).
    """

    def __init__(self, source) -> None:
        if isinstance(source, (bytes, bytearray)):
            self._fh = io.BytesIO(bytes(source))
            self._owns = True
        elif hasattr(source, "read"):
            self._fh = source
            self._owns = False
        else:
            try:
                self._fh = open(os.fspath(source), "rb")
            except OSError as exc:
                raise TraceError(
                    f"cannot read binary trace {source!r}: {exc}"
                ) from None
            self._owns = True
        try:
            self._load_index()
        except Exception:
            self.close()
            raise

    # -- container parsing ---------------------------------------------

    def _load_index(self) -> None:
        fh = self._fh
        fh.seek(0, os.SEEK_END)
        size = fh.tell()
        if size < len(MAGIC) + _TRAILER.size:
            raise TraceError(
                f"not a binary trace: {size} bytes is shorter than the "
                f"magic + trailer"
            )
        fh.seek(0)
        if fh.read(len(MAGIC)) != MAGIC:
            raise TraceError("not a binary trace: bad leading magic")
        fh.seek(size - _TRAILER.size)
        index_offset, end_magic = _TRAILER.unpack(fh.read(_TRAILER.size))
        if end_magic != END_MAGIC:
            raise TraceError("binary trace truncated: bad trailer magic")
        if not len(MAGIC) <= index_offset <= size - _TRAILER.size - 2:
            raise TraceError(
                f"binary trace corrupt: index offset {index_offset} is "
                f"outside the file"
            )
        fh.seek(index_offset)
        body = fh.read(size - _TRAILER.size - index_offset)
        cur = _Cursor(body)
        try:
            tag = cur.u8()
            if tag != _FRAME_INDEX:
                raise TraceError(f"expected index frame, found tag 0x{tag:02x}")
            length = cur.uv()
            payload = cur.take(length)
            (crc,) = _CRC.unpack(cur.take(_CRC.size))
            cur.done()
            if zlib.crc32(payload) != crc:
                raise TraceError("index crc mismatch")
            self.segments, self.meta = self._parse_index(payload, index_offset)
        except TraceError as exc:
            raise TraceError(f"binary trace index: {exc}") from None

    @staticmethod
    def _parse_index(payload: bytes, index_offset: int):
        cur = _Cursor(payload)
        segments = []
        prev_end = len(MAGIC)
        for i in range(cur.uv()):
            seg = SegmentInfo(
                offset=cur.uv(),
                comp_len=cur.uv(),
                raw_len=cur.uv(),
                crc32=_CRC.unpack(cur.take(_CRC.size))[0],
                n_rounds=cur.uv(),
                n_perturbations=cur.uv(),
            )
            if seg.offset != prev_end or seg.offset + seg.comp_len > index_offset:
                raise TraceError(f"segment {i} table entry is inconsistent")
            prev_end = seg.offset + seg.comp_len
            segments.append(seg)
        raw_meta = cur.take(cur.uv())
        cur.done()
        try:
            meta = json.loads(raw_meta.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise TraceError(f"metadata blob is not valid JSON ({exc})") from None
        if not isinstance(meta, dict):
            raise TraceError("metadata blob must be a JSON object")
        return segments, meta

    # -- record streaming ----------------------------------------------

    @property
    def n_rounds(self) -> int:
        return sum(seg.n_rounds for seg in self.segments)

    @property
    def n_perturbations(self) -> int:
        return sum(seg.n_perturbations for seg in self.segments)

    def iter_segment(self, index: int, *, arrays: bool = False):
        """Yield segment ``index``'s records (rounds and perturbations,
        interleaved in file order), streaming and fully validated.

        With ``arrays=True`` (and numpy importable), int-delta round
        frames decode into :class:`~repro.engine.observers.RawRound`s
        over :class:`~repro.engine.observers._PairsView`s — whole edge blocks as
        int64 endpoint arrays via a vectorized varint pass, no per-pair
        Python — which the conformance checkers consume natively.
        Frames the vector path cannot represent exactly fall back to
        ``RoundRecord`` transparently, so consumers must only rely on
        the shared field surface.  Validation (framing, CRC, counts) is
        identical in both modes.
        """
        try:
            info = self.segments[index]
        except IndexError:
            raise TraceError(
                f"binary trace has {len(self.segments)} segments, "
                f"no segment {index}"
            ) from None
        fh = self._fh
        fh.seek(info.offset)
        dec = zlib.decompressobj()
        buf = bytearray()
        start = 0
        remaining = info.comp_len
        crc = 0
        raw_seen = 0
        frames = 0
        rounds = 0
        perts = 0
        where = f"binary trace segment {index}"
        while True:
            chunk = fh.read(min(1 << 16, remaining)) if remaining else b""
            if remaining:
                if not chunk:
                    raise TraceError(f"{where}: file truncated mid-segment")
                remaining -= len(chunk)
            try:
                raw = dec.decompress(chunk) if chunk else b""
            except zlib.error as exc:
                raise TraceError(
                    f"{where}: corrupt compressed stream ({exc})"
                ) from None
            crc = zlib.crc32(raw, crc)
            raw_seen += len(raw)
            buf += raw
            # Drain every complete frame currently buffered.
            while True:
                cur = _Cursor(buf, start)
                try:
                    tag = cur.u8()
                    length = cur.uv()
                except TraceError:
                    break  # frame header incomplete: need more input
                if cur.pos + length > len(buf):
                    break  # frame body incomplete: need more input
                payload = memoryview(buf)[cur.pos : cur.pos + length]
                start = cur.pos + length
                try:
                    if tag == _FRAME_ROUND:
                        record = (
                            _decode_round_arrays(payload)
                            if arrays and _np is not None
                            else _decode_round(payload)
                        )
                        rounds += 1
                    elif tag == _FRAME_PERT:
                        record = _decode_pert(payload)
                        perts += 1
                    else:
                        raise TraceError(f"unknown frame tag 0x{tag:02x}")
                except TraceError as exc:
                    raise TraceError(f"{where} frame {frames}: {exc}") from None
                frames += 1
                del payload
                yield record
                if start > 1 << 16:
                    del buf[:start]
                    start = 0
            if not remaining:
                break
        tail = dec.flush()
        if tail or not dec.eof:
            raise TraceError(f"{where}: compressed stream did not terminate")
        if dec.unused_data:
            raise TraceError(
                f"{where}: {len(dec.unused_data)} bytes beyond the "
                f"compressed stream"
            )
        if start != len(buf):
            raise TraceError(
                f"{where} frame {frames}: truncated frame at end of segment"
            )
        if raw_seen != info.raw_len:
            raise TraceError(
                f"{where}: raw length {raw_seen} != index-declared "
                f"{info.raw_len}"
            )
        if crc != info.crc32:
            raise TraceError(f"{where}: raw crc mismatch")
        if rounds != info.n_rounds or perts != info.n_perturbations:
            raise TraceError(
                f"{where}: frame counts ({rounds} rounds, {perts} "
                f"perturbations) disagree with the index "
                f"({info.n_rounds}, {info.n_perturbations})"
            )

    def __iter__(self):
        for i in range(len(self.segments)):
            yield from self.iter_segment(i)

    def close(self) -> None:
        if self._owns:
            self._fh.close()
            self._owns = False

    def __enter__(self) -> "BinaryTraceReader":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


# ----------------------------------------------------------------------
# whole-trace conversion
# ----------------------------------------------------------------------


def to_binary(trace: Trace, path=None, *, meta: dict | None = None) -> bytes:
    """Serialize a :class:`Trace` to ``.rtb`` bytes (optionally writing
    ``path``), segmenting and interleaving exactly like ``to_jsonl``:
    one binary segment per round-number restart, each perturbation
    framed before the first round record it precedes."""
    buf = io.BytesIO()
    sink = BinarySink(buf, meta=meta)
    perts = sorted(trace.perturbations, key=lambda p: p.round)
    pi = 0
    if trace.records or perts:
        segments = split_segments(trace.records)
        for si, records in enumerate(segments):
            sink.on_run_start(None)
            for rec in records:
                while pi < len(perts) and perts[pi].round <= rec.round:
                    sink.on_perturbation(perts[pi])
                    pi += 1
                sink.on_round(rec)
            if si == len(segments) - 1:
                for pert in perts[pi:]:
                    sink.on_perturbation(pert)
    sink.close()
    data = buf.getvalue()
    if path is not None:
        with open(os.fspath(path), "wb") as fh:
            fh.write(data)
    return data


def from_binary(source) -> Trace:
    """Rebuild a :class:`Trace` from a path, ``bytes``, or binary
    file-like.  Lossless inverse of :func:`to_binary`:
    ``from_binary(to_binary(t)).to_jsonl() == t.to_jsonl()``."""
    trace = Trace()
    with BinaryTraceReader(source) as reader:
        for record in reader:
            if isinstance(record, PerturbationRecord):
                trace.append_perturbation(record)
            else:
                trace.append(record)
    return trace


def is_binary_trace(path) -> bool:
    """True when ``path`` exists and starts with the ``.rtb`` magic."""
    try:
        with open(os.fspath(path), "rb") as fh:
            return fh.read(len(MAGIC)) == MAGIC
    except OSError:
        return False


def load_trace(source) -> Trace:
    """Load a trace archive of either format, sniffing by content.

    Paths (and byte payloads) holding the binary magic route through
    :func:`from_binary`; everything else through ``Trace.from_jsonl``
    — so tools downstream of ``--trace-out`` never care which format
    a run archived."""
    if isinstance(source, (bytes, bytearray)):
        return from_binary(source)
    if isinstance(source, (str, os.PathLike)) and is_binary_trace(source):
        return from_binary(source)
    return Trace.from_jsonl(source)


def trace_sink_for(path, *, meta: dict | None = None):
    """The streaming sink for ``path``, negotiated by extension:
    ``.rtb`` builds a :class:`BinarySink`, anything else the JSONL
    sink (the historical default)."""
    if os.fspath(path).endswith(".rtb"):
        return BinarySink(path, meta=meta)
    return JsonlSink(path)
