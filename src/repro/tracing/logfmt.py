"""Compact binary serialization of path-profile logs.

CLAP's log is, per thread, a stream of small integers; this module encodes
it with tag bytes + LEB128 varints.  Table 2's log-size numbers are the
lengths of these encodings (CLAP) versus the LEAP access-vector encoding.

Tokens
------
``("enter", func_id)``
    A function was entered.
``("path", path_id)``
    A completed Ball-Larus path (emitted at back edges and at returns).
``("exit",)``
    The function returned.
``("partial", path_id, block, ip, wait_stage)``
    Emitted by ``finalize()`` for frames still live when the failure
    stopped the run: an *incomplete* BL path plus the exact stop position.
    ``wait_stage`` is non-zero only when the thread stopped inside a
    ``wait()`` (1 = released the mutex, 2 = also consumed the signal); the
    offline reconstruction must emit the matching sub-SAPs.

Segment framing
---------------
The flight-recorder ring (:class:`repro.tracing.recorder.RingTraceSink`)
partitions one thread's *plain* encoding into fixed-size segments cut at
record boundaries, so any suffix of segments is byte-identical to the
tail of ``encode_tokens(all_tokens)`` and still decodes with
:func:`decode_tokens`.  Each segment carries a :class:`SegmentAnchor` —
the open-frame chain and stream position at the segment's first record —
so the surviving suffix decodes standalone after older segments are
evicted.  Crucially, no Ball-Larus counter is reset at a segment seal:
path ids always embed the pseudo-ENTRY value of their start block, so
every ``path`` token already decodes standalone and the anchor only
needs the *structural* state (which frames are open, how many callee
activations each had completed) that the evicted prefix would otherwise
carry.
"""

from dataclasses import dataclass

TAG_ENTER = 0
TAG_PATH = 1
TAG_EXIT = 2
TAG_PARTIAL = 3
# Run-length compression of repeated path ids: loops re-execute the same
# Ball-Larus path, so ("path", p) x N encodes as one REPEAT record.  This
# is the cheap end of whole-program-path compression (Larus, PLDI'99),
# which the paper's log sizes rely on.
TAG_REPEAT = 4
# ("resume", func_id, block, ip): an open activation resumed after a
# checkpoint; its first path token decodes from ``block`` (see
# ``checkpoint_steps`` in repro.core.clap.ClapPipeline.record_once).
TAG_RESUME = 5

# Cap on the tokens one stream may decode to.  Every path token costs the
# recorded run at least one interpreter step, and a run stops at its step
# budget (``ClapConfig.max_steps``, 2,000,000 by default, shared by all
# its threads), so a real recording stays far below it.  Only a corrupt or
# hostile REPEAT count reaches it: refusing such a count before the list
# grows keeps a 12-byte blob from allocating gigabytes.
MAX_STREAM_TOKENS = 1 << 24

_TOKEN_TAGS = {
    "enter": TAG_ENTER,
    "path": TAG_PATH,
    "exit": TAG_EXIT,
    "partial": TAG_PARTIAL,
    "resume": TAG_RESUME,
}
_TAG_TOKENS = {v: k for k, v in _TOKEN_TAGS.items()}


class TraceDecodeError(Exception):
    """A log byte stream is not a valid encoding.

    ``offset`` is the byte position where decoding failed: for a truncated
    varint it is the offset of the first missing byte, for an unknown tag
    the offset of the tag byte itself.  The trace store's recovery scan
    relies on this being raised (rather than ``IndexError`` or silently
    mis-decoded tokens) to find the valid prefix of a crashed recorder's
    log.
    """

    def __init__(self, message, offset=None):
        super().__init__(message)
        self.offset = offset


def write_varint(out, value):
    """Append unsigned LEB128 of ``value`` (must be >= 0) to bytearray."""
    if value < 0:
        raise ValueError("varint must be non-negative, got %d" % value)
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            out.append(byte | 0x80)
        else:
            out.append(byte)
            return


def read_varint(data, pos):
    """Decode unsigned LEB128 at ``pos``; returns (value, new_pos).

    Raises :class:`TraceDecodeError` (with the offset of the missing byte)
    when the varint runs past the end of ``data`` — a truncated log must
    surface as a structured error, never as ``IndexError``.
    """
    result = 0
    shift = 0
    n = len(data)
    while True:
        if pos >= n:
            raise TraceDecodeError(
                "truncated varint at offset %d" % pos, offset=pos
            )
        byte = data[pos]
        pos += 1
        result |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return result, pos
        shift += 7


def encode_tokens(tokens):
    """Encode one thread's token stream to bytes (with path-id RLE)."""
    out = bytearray()
    i = 0
    n = len(tokens)
    while i < n:
        token = tokens[i]
        if token[0] == "path":
            j = i + 1
            while j < n and tokens[j] == token:
                j += 1
            count = j - i
            if count >= 2:
                out.append(TAG_REPEAT)
                write_varint(out, token[1])
                write_varint(out, count)
                i = j
                continue
        tag = _TOKEN_TAGS[token[0]]
        out.append(tag)
        for value in token[1:]:
            write_varint(out, value)
        i += 1
    return bytes(out)


def decode_tokens(data, max_tokens=MAX_STREAM_TOKENS):
    """Decode bytes produced by :func:`encode_tokens`.

    Raises :class:`TraceDecodeError` on an unknown tag byte, a truncated
    stream or a repeat count that would take the stream past
    ``max_tokens``; a valid prefix is never silently extended with
    garbage tokens.
    """
    tokens = []
    pos = 0
    n = len(data)
    while pos < n:
        tag_offset = pos
        tag = data[pos]
        pos += 1
        kind = _TAG_TOKENS.get(tag)
        if tag == TAG_REPEAT:
            pid, pos = read_varint(data, pos)
            count, pos = read_varint(data, pos)
            if len(tokens) + count > max_tokens:
                raise TraceDecodeError(
                    "repeat count %d at offset %d exceeds the cap of %d "
                    "decoded tokens" % (count, tag_offset, max_tokens),
                    offset=tag_offset,
                )
            tokens.extend([("path", pid)] * count)
            continue
        if kind == "enter":
            fid, pos = read_varint(data, pos)
            tokens.append(("enter", fid))
        elif kind == "resume":
            fid, pos = read_varint(data, pos)
            block, pos = read_varint(data, pos)
            ip, pos = read_varint(data, pos)
            tokens.append(("resume", fid, block, ip))
        elif kind == "path":
            pid, pos = read_varint(data, pos)
            tokens.append(("path", pid))
        elif kind == "exit":
            tokens.append(("exit",))
        elif kind == "partial":
            pid, pos = read_varint(data, pos)
            block, pos = read_varint(data, pos)
            ip, pos = read_varint(data, pos)
            stage, pos = read_varint(data, pos)
            tokens.append(("partial", pid, block, ip, stage))
        else:
            raise TraceDecodeError(
                "unknown tag byte 0x%02x at offset %d" % (tag, tag_offset),
                offset=tag_offset,
            )
    return tokens


# --------------------------------------------------------------------------
# Segment framing (flight recorder)

SEGMENT_MAGIC = 0xA6


@dataclass(frozen=True)
class SegmentAnchor:
    """Decode anchor for one ring segment.

    ``frames`` is the open-frame chain at the segment's first record,
    outermost first: ``(func_id, calls_done)`` where ``calls_done`` counts
    the callee activations that frame had already *completed* before the
    anchor (the still-open child, if any, is the next chain entry, not a
    completed call).  The remaining fields are cumulative stream positions
    at the segment start; on the first *retained* segment they are exactly
    the eviction horizon: how many tokens/bytes/segments of this thread's
    log were dropped before the surviving suffix.
    """

    frames: tuple = ()
    tokens_before: int = 0
    bytes_before: int = 0
    segments_before: int = 0

    def to_json(self):
        return {
            "frames": [list(f) for f in self.frames],
            "tokens_before": self.tokens_before,
            "bytes_before": self.bytes_before,
            "segments_before": self.segments_before,
        }

    @classmethod
    def from_json(cls, obj):
        return cls(
            frames=tuple((int(f[0]), int(f[1])) for f in obj.get("frames", ())),
            tokens_before=int(obj.get("tokens_before", 0)),
            bytes_before=int(obj.get("bytes_before", 0)),
            segments_before=int(obj.get("segments_before", 0)),
        )


def encode_segment(anchor, body):
    """Frame one segment: magic, anchor header, then the raw record body.

    ``body`` must be a record-aligned slice of a plain token encoding, so
    it round-trips through :func:`decode_tokens` on its own.
    """
    out = bytearray()
    out.append(SEGMENT_MAGIC)
    write_varint(out, len(anchor.frames))
    for func_id, calls_done in anchor.frames:
        write_varint(out, func_id)
        write_varint(out, calls_done)
    write_varint(out, anchor.tokens_before)
    write_varint(out, anchor.bytes_before)
    write_varint(out, anchor.segments_before)
    write_varint(out, len(body))
    out.extend(body)
    return bytes(out)


def decode_segment(data, pos=0):
    """Decode one framed segment at ``pos``; returns (anchor, body, new_pos).

    Raises :class:`TraceDecodeError` with the offending offset on a bad
    magic byte, a header varint truncated mid-stream, or a body shorter
    than its declared length (offset = first missing byte).
    """
    if pos >= len(data):
        raise TraceDecodeError(
            "truncated segment at offset %d" % pos, offset=pos
        )
    if data[pos] != SEGMENT_MAGIC:
        raise TraceDecodeError(
            "bad segment magic 0x%02x at offset %d" % (data[pos], pos),
            offset=pos,
        )
    pos += 1
    n_frames, pos = read_varint(data, pos)
    frames = []
    for _ in range(n_frames):
        func_id, pos = read_varint(data, pos)
        calls_done, pos = read_varint(data, pos)
        frames.append((func_id, calls_done))
    tokens_before, pos = read_varint(data, pos)
    bytes_before, pos = read_varint(data, pos)
    segments_before, pos = read_varint(data, pos)
    body_len, pos = read_varint(data, pos)
    end = pos + body_len
    if end > len(data):
        raise TraceDecodeError(
            "segment body truncated at offset %d" % len(data),
            offset=len(data),
        )
    anchor = SegmentAnchor(
        frames=tuple(frames),
        tokens_before=tokens_before,
        bytes_before=bytes_before,
        segments_before=segments_before,
    )
    return anchor, bytes(data[pos:end]), end


def decode_segments(data):
    """Decode a concatenation of framed segments to [(anchor, body)]."""
    out = []
    pos = 0
    while pos < len(data):
        anchor, body, pos = decode_segment(data, pos)
        out.append((anchor, body))
    return out
