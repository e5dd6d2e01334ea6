"""Property tests: the wire codec round-trips every RPC message.

The satellite contract for the transport layer: every
:mod:`repro.rpc.messages` dataclass survives encode -> frame -> split at
arbitrary byte boundaries -> decode *equal to what was sent*, and any
truncated or corrupted frame is rejected with a typed error — never
decoded into a different message.
"""

import binascii
import json
import struct

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


# -- the encoder against its specification --------------------------------------

def reference_value(value):
    """The value codec as the format was first written: one plain
    recursive walk, every value rebuilt.  Slow and obviously right."""
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, tuple):
        return {"__tuple__": [reference_value(v) for v in value]}
    if isinstance(value, list):
        return [reference_value(v) for v in value]
    if isinstance(value, (bytes, bytearray)):
        return {"__bytes__": binascii.b2a_base64(bytes(value), newline=False)
                .decode("ascii")}
    if isinstance(value, dict):
        pairs = [(key, reference_value(item)) for key, item in value.items()]
        if all(isinstance(key, str) and key not in TAGS for key, _ in pairs):
            return dict(pairs)
        return {"__map__": [[reference_value(key), item]
                            for key, item in pairs]}
    if isinstance(value, BulkSource):
        return {"__bulk__": [value.transfer_id, value.nbytes,
                             reference_value(value.meta), value.consumed]}
    assert isinstance(value, RemoteCallError)
    return {"__error__": [value.kind, value.message]}


TAGS = ("__tuple__", "__bytes__", "__map__", "__bulk__", "__error__")
FIELD_ORDER = {
    CallRequest: ("connection_id", "seq", "op", "body", "body_bytes",
                  "reply_port"),
    CallResponse: ("connection_id", "seq", "body", "body_bytes",
                   "server_seconds", "error"),
    WindowRequest: ("connection_id", "seq", "transfer_id", "offset",
                    "window_bytes", "fragment_bytes", "reply_port"),
    Fragment: ("connection_id", "seq", "transfer_id", "offset", "nbytes",
               "last_in_window", "last_in_transfer"),
    BulkPush: ("connection_id", "seq", "transfer_id", "offset", "nbytes",
               "last_in_window", "last_in_transfer", "reply_port", "body",
               "response_seq"),
    WindowAck: ("connection_id", "seq", "transfer_id", "next_offset"),
    ServerReply: ("body", "body_bytes", "compute_seconds", "bulk"),
}


def raw_frame(kind, values):
    """A checksummed frame around an arbitrary JSON payload: what the
    format allows on the wire, including what ``encode_frame`` never
    writes (the hostile-peer tests build their frames here)."""
    payload = json.dumps(values, separators=(",", ":")).encode("utf-8")
    tail = struct.pack(">BBL", WIRE_VERSION, kind, len(payload))
    crc = binascii.crc32(payload, binascii.crc32(tail))
    return MAGIC + tail + crc.to_bytes(4, "big") + payload


@settings(max_examples=300, deadline=None)
@given(message=messages)
def test_frames_are_byte_identical_to_the_reference_encoder(message):
    """The fast paths change how a frame is produced, never its bytes."""
    kind = {cls: code for code, cls in MESSAGE_KINDS}[type(message)]
    values = [reference_value(getattr(message, name))
              for name in FIELD_ORDER[type(message)]]
    assert encode_frame(message) == raw_frame(kind, values)


# -- malformed tag bodies --------------------------------------------------------

#: Bodies a peer can put inside a frame whose checksum is good: each uses
#: a reserved tag with a body the tag cannot mean.
MALFORMED_TAG_BODIES = [
    {"__bytes__": 5}, {"__bytes__": ["QUJD"]}, {"__bytes__": "A"},
    {"__bytes__": "\u00e9"},
    {"__map__": 5}, {"__map__": [1]}, {"__map__": [[1]]},
    {"__map__": [[1, 2, 3]]}, {"__map__": ["ab"]},
    {"__map__": [[[1], 2]]}, {"__map__": [[{"a": 1}, 2]]},
    {"__bulk__": 7}, {"__bulk__": [1, 2, 3]}, {"__bulk__": "abcd"},
    {"__bulk__": [1, 2, 3, 4, 5]},
    {"__error__": None}, {"__error__": ["only-kind"]}, {"__error__": "ab"},
    {"__error__": [1, 2, 3]},
    {"__tuple__": 5}, {"__tuple__": "abc"}, {"__tuple__": {"a": 1}},
]


def hostile_request(body):
    """A well-framed ``CallRequest`` carrying ``body`` as JSON, verbatim."""
    return raw_frame(1, ["c", 1, "op", body, 10, ""])


@pytest.mark.parametrize("body", MALFORMED_TAG_BODIES, ids=repr)
def test_malformed_tag_body_is_a_wire_error_and_poisons_the_decoder(body):
    """Never a bare ``AttributeError``/``TypeError``, never a value the
    sender did not mean — wherever in the message the tag sits."""
    with pytest.raises(WireError, match="malformed"):
        decode_frame(hostile_request(body))
    with pytest.raises(WireError, match="malformed"):
        decode_frame(hostile_request({"deep": [1, {"er": body}]}))
    decoder = FrameDecoder()
    good = encode_frame(WindowAck("c", 1, 2, 3))
    with pytest.raises(WireError, match="malformed"):
        decoder.feed(good + hostile_request(body) + good)
    with pytest.raises(FrameError, match="poisoned"):
        decoder.feed(good)


def test_malformed_frame_behind_a_buffered_fragment_is_still_a_wire_error():
    """The bad frame is decoded out of the decoder's own buffer here (a
    partial frame was held over), which must not turn the typed error
    into a ``BufferError`` while that buffer is being compacted."""
    good = encode_frame(WindowAck("c", 1, 2, 3))
    stream = good + hostile_request({"__bytes__": 5})
    decoder = FrameDecoder()
    assert decoder.feed(stream[:5]) == []
    with pytest.raises(WireError, match="malformed"):
        decoder.feed(stream[5:])
    assert decoder.pending_bytes == len(stream) - len(good)
    with pytest.raises(FrameError, match="poisoned"):
        decoder.feed(good)


def test_payload_nested_past_the_recursion_limit_is_a_wire_error():
    depth = 200_000
    payload = b"[" * depth + b"]" * depth
    with pytest.raises(WireError, match="undecodable"):
        decode_message(1, payload)


def test_well_formed_tags_in_a_raw_frame_still_decode():
    """The hostile-frame builder itself is sound: the same route with
    honest bodies yields the values the tags stand for."""
    body = {"t": {"__tuple__": [1, [2]]}, "b": {"__bytes__": "QUJD"},
            "m": {"__map__": [[{"__tuple__": [1, 2]}, "pair"], [3, None]]},
            "s": {"__bulk__": [7, 4096, {"name": "x"}, 1024]},
            "e": {"__error__": ["ValueError", "bad"]}}
    decoded, _ = decode_frame(hostile_request(body))
    assert decoded.body["t"] == (1, [2])
    assert decoded.body["b"] == b"ABC"
    assert decoded.body["m"] == {(1, 2): "pair", 3: None}
    assert decoded.body["s"] == BulkSource(7, 4096, {"name": "x"})
    assert decoded.body["s"].consumed == 1024
    assert decoded.body["e"] == RemoteCallError("ValueError", "bad")


# -- the streaming decoder and borrowed buffers ----------------------------------

@settings(max_examples=100, deadline=None)
@given(batch=st.lists(messages, min_size=1, max_size=4), data=st.data())
def test_decoder_never_keeps_a_reference_into_a_fed_buffer(batch, data):
    """The channel feeds views of one buffer it overwrites on the next
    read: whatever the decoder returns or retains must be a copy."""
    stream = b"".join(encode_frame(m) for m in batch)
    scratch = bytearray(len(stream))
    decoder = FrameDecoder()
    received = []
    offset = 0
    while offset < len(stream):
        size = data.draw(st.integers(min_value=1,
                                     max_value=len(stream) - offset),
                         label="chunk size")
        scratch[:size] = stream[offset:offset + size]
        with memoryview(scratch) as view:
            received.extend(decoder.feed(view[:size]))
        scratch[:size] = b"\xff" * size  # the next read lands on top
        offset += size
    assert received == batch
    assert decoder.pending_bytes == 0


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
