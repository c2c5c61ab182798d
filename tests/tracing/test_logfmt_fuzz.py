"""Property tests for the logfmt encoding: random round-trips and the
guarantee that a damaged stream raises :class:`TraceDecodeError` rather
than silently decoding garbage (the trace store's recovery scan depends
on it)."""

import random

import pytest

from repro.tracing.logfmt import (
    MAX_STREAM_TOKENS,
    SEGMENT_MAGIC,
    SegmentAnchor,
    TAG_REPEAT,
    TAG_RESUME,
    TraceDecodeError,
    decode_segment,
    decode_segments,
    decode_tokens,
    encode_segment,
    encode_tokens,
    read_varint,
)


def random_token(rng):
    kind = rng.choice(("enter", "path", "exit", "partial", "resume"))
    if kind == "enter":
        return ("enter", rng.randrange(0, 1 << rng.choice((4, 14, 30))))
    if kind == "path":
        return ("path", rng.randrange(0, 1 << rng.choice((1, 7, 20))))
    if kind == "exit":
        return ("exit",)
    if kind == "partial":
        return (
            "partial",
            rng.randrange(0, 1 << 16),
            rng.randrange(0, 64),
            rng.randrange(0, 64),
            rng.randrange(0, 3),
        )
    return ("resume", rng.randrange(0, 32), rng.randrange(0, 64), rng.randrange(0, 64))


def random_stream(rng, length):
    tokens = []
    while len(tokens) < length:
        if rng.random() < 0.3:
            # Loop bursts: repeated path ids exercise the RLE encoder.
            pid = rng.randrange(0, 1 << 10)
            tokens.extend([("path", pid)] * rng.randrange(2, 20))
        else:
            tokens.append(random_token(rng))
    return tokens


@pytest.mark.parametrize("seed", range(25))
def test_fuzz_roundtrip(seed):
    rng = random.Random(seed)
    tokens = random_stream(rng, rng.randrange(1, 120))
    assert decode_tokens(encode_tokens(tokens)) == tokens


def test_rle_kicks_in_for_repeated_paths():
    tokens = [("enter", 1)] + [("path", 7)] * 100 + [("exit",)]
    data = encode_tokens(tokens)
    assert len(data) < 12
    assert decode_tokens(data) == tokens


@pytest.mark.parametrize("seed", range(10))
def test_every_truncation_is_error_or_clean_prefix(seed):
    """Cutting a valid encoding anywhere must either raise a structured
    TraceDecodeError (cut inside a record) or decode to an exact prefix
    of the original token list (cut at a record boundary) — never to
    bogus tokens."""
    rng = random.Random(1000 + seed)
    tokens = random_stream(rng, 40)
    data = encode_tokens(tokens)
    for cut in range(len(data)):
        try:
            decoded = decode_tokens(data[:cut])
        except TraceDecodeError as exc:
            assert exc.offset is not None
            assert 0 <= exc.offset <= cut
        else:
            assert decoded == tokens[: len(decoded)]


def test_truncation_mid_token_raises():
    data = encode_tokens([("partial", 300, 5, 2, 0)])
    for cut in range(1, len(data)):
        with pytest.raises(TraceDecodeError):
            decode_tokens(data[:cut])


def test_unknown_tag_raises_with_offset():
    data = encode_tokens([("enter", 0), ("path", 3)])
    for bad_tag in range(TAG_RESUME + 1, 256):
        with pytest.raises(TraceDecodeError) as err:
            decode_tokens(data + bytes([bad_tag]))
        assert err.value.offset == len(data)


def test_read_varint_truncated_raises_with_offset():
    with pytest.raises(TraceDecodeError) as err:
        read_varint(b"", 0)
    assert err.value.offset == 0
    with pytest.raises(TraceDecodeError) as err:
        read_varint(bytes([0x80, 0x80]), 0)
    assert err.value.offset == 2


def test_repeat_truncated_mid_varint_raises_with_offset():
    """A TAG_REPEAT cut inside either of its two varints (path id, count)
    must raise — with the offset inside the damaged record, never past
    the cut — instead of decoding a short run."""
    prefix = encode_tokens([("enter", 3)])
    repeat = encode_tokens([("path", 300)] * 500)  # multi-byte id and count
    assert len(repeat) > 3
    data = prefix + repeat
    for cut in range(len(prefix) + 1, len(data)):
        with pytest.raises(TraceDecodeError) as err:
            decode_tokens(data[:cut])
        assert len(prefix) <= err.value.offset <= cut


def test_repeat_count_past_the_token_cap_raises_with_offset():
    """A REPEAT run that would take the stream past ``max_tokens`` is
    refused at its tag, before the token list grows; a run that lands
    exactly on the cap decodes."""
    prefix = encode_tokens([("enter", 3), ("path", 1)])
    data = prefix + encode_tokens([("path", 7)] * 8)
    assert len(decode_tokens(data, max_tokens=10)) == 10
    with pytest.raises(TraceDecodeError) as err:
        decode_tokens(data, max_tokens=9)
    assert err.value.offset == len(prefix)
    # The default cap refuses a count no real run could have produced.
    huge = bytes([TAG_REPEAT, 0]) + bytes([0xFF] * 5) + bytes([0x7F])
    with pytest.raises(TraceDecodeError, match="exceeds the cap"):
        decode_tokens(huge)
    assert MAX_STREAM_TOKENS < 2**27


def test_resume_truncated_mid_varint_raises_with_offset():
    prefix = encode_tokens([("exit",)])
    resume = encode_tokens([("resume", 200, 70, 1 << 20)])
    data = prefix + resume
    for cut in range(len(prefix) + 1, len(data)):
        with pytest.raises(TraceDecodeError) as err:
            decode_tokens(data[:cut])
        assert len(prefix) <= err.value.offset <= cut


def _sample_segment():
    anchor = SegmentAnchor(
        frames=((2, 9), (5, 0)),
        tokens_before=36,
        bytes_before=63,
        segments_before=1,
    )
    body = encode_tokens([("path", 300)] * 40 + [("exit",), ("resume", 7, 2, 3)])
    return anchor, body


def test_segment_roundtrip_and_json():
    anchor, body = _sample_segment()
    data = encode_segment(anchor, body)
    got_anchor, got_body, pos = decode_segment(data)
    assert (got_anchor, got_body, pos) == (anchor, body, len(data))
    assert SegmentAnchor.from_json(anchor.to_json()) == anchor


def test_segment_truncated_anywhere_raises_with_offset():
    """A framed segment cut at any byte must raise, pointing at the
    segment start (header damage) or the stream end (short body)."""
    anchor, body = _sample_segment()
    data = encode_segment(anchor, body)
    for cut in range(len(data)):
        with pytest.raises(TraceDecodeError) as err:
            decode_segment(data[:cut])
        assert err.value.offset in (0, cut)


def test_segment_boundary_truncation_in_stream():
    """Cutting a multi-segment stream mid-way decodes the whole leading
    segments and raises on the damaged one, never yielding a partial
    segment silently."""
    anchor, body = _sample_segment()
    seg = encode_segment(anchor, body)
    stream = seg + encode_segment(
        SegmentAnchor(frames=((2, 10),), tokens_before=78), body
    )
    # Clean boundary: the prefix decodes to exactly one segment.
    assert len(decode_segments(stream[: len(seg)])) == 1
    for cut in range(len(seg) + 1, len(stream)):
        with pytest.raises(TraceDecodeError) as err:
            decode_segments(stream[:cut])
        assert err.value.offset in (len(seg), cut)


def test_segment_bad_magic_raises_at_offset():
    anchor, body = _sample_segment()
    data = bytearray(encode_segment(anchor, body))
    assert data[0] == SEGMENT_MAGIC
    data[0] ^= 0xFF
    with pytest.raises(TraceDecodeError) as err:
        decode_segment(bytes(data))
    assert err.value.offset == 0
