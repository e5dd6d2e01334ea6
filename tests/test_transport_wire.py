"""Property tests: the wire codec round-trips every RPC message.

The satellite contract for the transport layer: every
:mod:`repro.rpc.messages` dataclass survives encode -> frame -> split at
arbitrary byte boundaries -> decode *equal to what was sent*, and any
truncated or corrupted frame is rejected with a typed error — never
decoded into a different message.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import FrameError, RemoteCallError, WireError
from repro.rpc.messages import (
    BulkPush,
    BulkSource,
    CallRequest,
    CallResponse,
    Fragment,
    ServerReply,
    WindowAck,
    WindowRequest,
)
from repro.transport.wire import (
    FRAME_HEADER_BYTES,
    MAGIC,
    MAX_FRAME_BYTES,
    MESSAGE_KINDS,
    WIRE_VERSION,
    FrameDecoder,
    decode_frame,
    decode_message,
    encode_frame,
    encode_message,
    try_decode_frame,
)

# -- strategies --------------------------------------------------------------

finite_floats = st.floats(allow_nan=False, allow_infinity=False, width=64)
small_text = st.text(max_size=20)
seqs = st.integers(min_value=0, max_value=2**31)
sizes = st.integers(min_value=0, max_value=2**31)

json_scalars = (st.none() | st.booleans()
                | st.integers(min_value=-(2**53), max_value=2**53)
                | finite_floats | small_text)

#: Bodies exercise every value form the codec supports, including dict
#: keys that collide with the codec's own tag repertoire.
tricky_keys = st.sampled_from(
    ["__tuple__", "__bytes__", "__map__", "__bulk__", "__error__", "plain"])
bulk_sources = st.builds(BulkSource, transfer_id=seqs, nbytes=sizes,
                         meta=st.none() | small_text)
errors = st.builds(RemoteCallError, st.sampled_from(
    ["RpcTimeout", "BrokerError", "ValueError"]), small_text)
bodies = st.recursive(
    json_scalars | st.binary(max_size=32) | bulk_sources | errors,
    lambda children: (
        st.lists(children, max_size=4)
        | st.lists(children, max_size=3).map(tuple)
        | st.dictionaries(small_text | tricky_keys, children, max_size=4)
        | st.dictionaries(
            st.integers(-100, 100) | st.lists(json_scalars, max_size=2)
            .map(tuple), children, max_size=3)
    ),
    max_leaves=10,
)

call_requests = st.builds(CallRequest, connection_id=small_text, seq=seqs,
                          op=small_text, body=bodies, body_bytes=sizes,
                          reply_port=small_text)
call_responses = st.builds(CallResponse, connection_id=small_text, seq=seqs,
                           body=bodies, body_bytes=sizes,
                           server_seconds=finite_floats,
                           error=st.none() | errors)
window_requests = st.builds(WindowRequest, connection_id=small_text,
                            seq=seqs, transfer_id=seqs, offset=sizes,
                            window_bytes=sizes, fragment_bytes=sizes,
                            reply_port=small_text)
fragments = st.builds(Fragment, connection_id=small_text, seq=seqs,
                      transfer_id=seqs, offset=sizes, nbytes=sizes,
                      last_in_window=st.booleans(),
                      last_in_transfer=st.booleans())
bulk_pushes = st.builds(BulkPush, connection_id=small_text, seq=seqs,
                        transfer_id=seqs, offset=sizes, nbytes=sizes,
                        last_in_window=st.booleans(),
                        last_in_transfer=st.booleans(),
                        reply_port=small_text, body=bodies,
                        response_seq=st.none() | seqs)
window_acks = st.builds(WindowAck, connection_id=small_text, seq=seqs,
                        transfer_id=seqs, next_offset=sizes)
server_replies = st.builds(ServerReply, body=bodies, body_bytes=sizes,
                           compute_seconds=finite_floats,
                           bulk=st.none() | bulk_sources)

messages = (call_requests | call_responses | window_requests | fragments
            | bulk_pushes | window_acks | server_replies)


# -- round trips -------------------------------------------------------------

@settings(max_examples=200, deadline=None)
@given(message=messages)
def test_every_message_round_trips(message):
    """encode -> frame -> decode yields an equal message, and consumed
    covers exactly the frame."""
    frame = encode_frame(message)
    decoded, consumed = decode_frame(frame)
    assert decoded == message
    assert type(decoded) is type(message)
    assert consumed == len(frame)


@settings(max_examples=100, deadline=None)
@given(batch=st.lists(messages, min_size=1, max_size=5), data=st.data())
def test_stream_reassembles_across_arbitrary_splits(batch, data):
    """A concatenated stream fed in arbitrary-size chunks — any boundary
    the kernel might pick — yields the same messages in order."""
    stream = b"".join(encode_frame(m) for m in batch)
    decoder = FrameDecoder()
    received = []
    offset = 0
    while offset < len(stream):
        size = data.draw(st.integers(min_value=1,
                                     max_value=len(stream) - offset),
                         label="chunk size")
        received.extend(decoder.feed(stream[offset:offset + size]))
        offset += size
    assert received == batch
    assert decoder.pending_bytes == 0


@settings(max_examples=100, deadline=None)
@given(message=messages, data=st.data())
def test_truncated_frame_is_rejected(message, data):
    """Every proper prefix of a frame is incomplete: the strict decoder
    raises, the streaming one keeps waiting (never mis-decodes)."""
    frame = encode_frame(message)
    cut = data.draw(st.integers(min_value=0, max_value=len(frame) - 1),
                    label="cut")
    with pytest.raises(FrameError):
        decode_frame(frame[:cut])
    assert try_decode_frame(frame[:cut]) is None


@settings(max_examples=150, deadline=None)
@given(message=messages, data=st.data())
def test_any_single_corrupt_byte_is_rejected(message, data):
    """Flip any one byte anywhere in the frame — header or payload — and
    the frame must fail with a typed error, not decode differently."""
    frame = bytearray(encode_frame(message))
    index = data.draw(st.integers(min_value=0, max_value=len(frame) - 1),
                      label="index")
    flip = data.draw(st.integers(min_value=1, max_value=255), label="flip")
    frame[index] ^= flip
    with pytest.raises((FrameError, WireError)):
        decode_frame(bytes(frame))


@settings(max_examples=100, deadline=None)
@given(message=messages, data=st.data())
def test_corruption_poisons_the_streaming_decoder(message, data):
    """After a corrupt frame the decoder refuses further bytes: an
    LV-framed stream cannot be resynchronized past garbage.

    Corruption lands past the length field: a flipped length byte is only
    *detectable* once the (mis-)stated payload has arrived, so the decoder
    rightly keeps waiting there — covered by the strict-decode test above.
    """
    frame = bytearray(encode_frame(message))
    index = data.draw(st.integers(min_value=8, max_value=len(frame) - 1),
                      label="index")
    frame[index] ^= data.draw(st.integers(min_value=1, max_value=255),
                              label="flip")
    decoder = FrameDecoder()
    with pytest.raises((FrameError, WireError)):
        decoder.feed(bytes(frame))
    with pytest.raises(FrameError):
        decoder.feed(b"")


# -- value-codec corners -----------------------------------------------------

def test_tag_colliding_dict_keys_round_trip():
    body = {"__tuple__": [1, 2], "__bytes__": "not bytes", "plain": 3}
    message = CallRequest("c", 1, "op", body, 10, "r")
    decoded, _ = decode_frame(encode_frame(message))
    assert decoded.body == body


def test_non_string_dict_keys_round_trip():
    body = {1: "one", (2, "b"): "pair", None: "nil", 2.5: "half"}
    message = ServerReply(body=body)
    decoded, _ = decode_frame(encode_frame(message))
    assert decoded.body == body


def test_bulk_source_round_trips_consumed():
    source = BulkSource(7, 4096, meta={"name": "x"})
    source.consumed = 1024
    decoded, _ = decode_frame(encode_frame(ServerReply(bulk=source)))
    assert decoded.bulk == source
    assert decoded.bulk.consumed == 1024  # compare=False; check explicitly


def test_handler_exceptions_cross_as_remote_call_errors():
    message = CallResponse("c", 1, None, 64, 0.0,
                           error=ValueError("bad fidelity"))
    decoded, _ = decode_frame(encode_frame(message))
    assert decoded.error == RemoteCallError("ValueError", "bad fidelity")


def test_non_finite_floats_are_rejected():
    for value in (float("nan"), float("inf"), float("-inf")):
        with pytest.raises(WireError):
            encode_message(ServerReply(body=value))


def test_unencodable_values_are_rejected():
    with pytest.raises(WireError):
        encode_message(ServerReply(body=object()))


def test_non_message_objects_are_rejected():
    with pytest.raises(WireError):
        encode_message({"not": "a message"})


# -- frame-level corners -----------------------------------------------------

def test_bad_magic_is_rejected_even_on_a_short_buffer():
    with pytest.raises(FrameError):
        try_decode_frame(b"XY")  # detectable before a full header arrives


def test_wrong_version_is_rejected():
    frame = bytearray(encode_frame(WindowAck("c", 1, 2, 3)))
    frame[2] = WIRE_VERSION + 1
    with pytest.raises(FrameError, match="version"):
        try_decode_frame(bytes(frame))


def test_oversize_length_is_rejected_before_buffering():
    import struct

    header = struct.pack(">2sBBLL", MAGIC, WIRE_VERSION, 1,
                         MAX_FRAME_BYTES + 1, 0)
    with pytest.raises(FrameError, match="ceiling"):
        try_decode_frame(header)


def test_unknown_kind_is_rejected():
    known = {code for code, _ in MESSAGE_KINDS}
    assert 99 not in known
    with pytest.raises(WireError, match="unknown message kind"):
        decode_message(99, b"[]")


def test_kind_codes_are_stable():
    """The codes are the wire format: renumbering breaks every peer."""
    assert [(code, cls.__name__) for code, cls in MESSAGE_KINDS] == [
        (1, "CallRequest"), (2, "CallResponse"), (3, "WindowRequest"),
        (4, "Fragment"), (5, "BulkPush"), (6, "WindowAck"),
        (7, "ServerReply"),
    ]


def test_header_layout_is_stable():
    frame = encode_frame(WindowAck("c", 1, 2, 3))
    assert frame[:2] == MAGIC
    assert frame[2] == WIRE_VERSION
    assert len(frame) == FRAME_HEADER_BYTES + int.from_bytes(
        frame[4:8], "big")


def test_corrupt_frame_after_good_ones_keeps_only_the_garbage_pending():
    """Frames completed before the corruption are consumed from the
    buffer; what stays pending is the undecodable tail."""
    good = encode_frame(WindowAck("c", 1, 2, 3)) * 3
    bad = bytearray(encode_frame(WindowAck("c", 2, 2, 4)))
    bad[-1] ^= 0x01
    decoder = FrameDecoder()
    with pytest.raises(FrameError):
        decoder.feed(good + bytes(bad) + good)
    assert decoder.pending_bytes == len(bad) + len(good)
    with pytest.raises(FrameError):
        decoder.feed(b"")


def test_a_frame_decodes_in_place_at_an_offset():
    first = encode_frame(WindowAck("c", 1, 2, 3))
    second = encode_frame(WindowAck("c", 2, 2, 4))
    buffer = bytearray(first + second)
    message, consumed = try_decode_frame(buffer, len(first))
    assert message == WindowAck("c", 2, 2, 4)
    assert consumed == len(second)
    assert try_decode_frame(buffer, len(buffer)) is None
    assert buffer == first + second  # nothing consumed by decoding
