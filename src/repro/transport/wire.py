"""The wire format: versioned, length-prefixed frames for RPC messages.

The simulator passes :mod:`repro.rpc.messages` dataclasses between hosts as
live Python objects; a real socket needs bytes.  This module is the codec:

- **values** are encoded as JSON with tagged extensions, so every payload
  the sim path carries (str/int/float/bool/None, lists, dicts, tuples,
  bytes, :class:`~repro.rpc.messages.BulkSource` descriptors, and handler
  exceptions) survives the round trip *equal to what was sent*;
- **messages** are one JSON array of field values in dataclass field order,
  identified by a one-byte kind code;
- **frames** wrap a message payload in a fixed 12-byte header::

      offset  size  field
      0       2     magic  b"Od"
      2       1     version (WIRE_VERSION)
      3       1     kind    (message type code, see MESSAGE_KINDS)
      4       4     length  of payload, big-endian
      8       4     CRC-32  over bytes 2..8 of the header plus the payload
      12      n     payload (UTF-8 JSON array of field values)

The checksum covers the version, kind, and length bytes as well as the
payload, so *any* single corrupted byte — header or body — is rejected
with a typed :class:`~repro.errors.FrameError` instead of decoding into a
different message.  TCP presents frames as an arbitrary byte stream;
:class:`FrameDecoder` reassembles them across any split boundaries.
"""

import binascii
import json
import struct
from dataclasses import fields

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

#: First bytes of every frame ("Odyssey").
MAGIC = b"Od"
#: Bumped whenever the payload encoding or field order changes.
WIRE_VERSION = 1
#: Hard ceiling on one frame's payload; a length beyond it means a corrupt
#: header (or a hostile peer), not a legitimately huge message.
MAX_FRAME_BYTES = 16 * 1024 * 1024
#: Bytes before the payload: magic(2) + version(1) + kind(1) + length(4)
#: + crc32(4).
FRAME_HEADER_BYTES = 12

_HEADER = struct.Struct(">2sBBLL")
#: Header bytes 2..8 (version, kind, length): the part the CRC covers.
_HEADER_TAIL = struct.Struct(">BBL")

#: Kind code <-> message class, in wire-format order.  Codes are part of
#: the format: never renumber, only append.
MESSAGE_KINDS = (
    (1, CallRequest),
    (2, CallResponse),
    (3, WindowRequest),
    (4, Fragment),
    (5, BulkPush),
    (6, WindowAck),
    (7, ServerReply),
)

_KIND_BY_CLASS = {cls: code for code, cls in MESSAGE_KINDS}
_CLASS_BY_KIND = {code: cls for code, cls in MESSAGE_KINDS}
_FIELDS_BY_CLASS = {cls: tuple(f.name for f in fields(cls))
                    for _, cls in MESSAGE_KINDS}

#: Reserved single-key tags the value codec uses for non-JSON types.
_TAGS = frozenset(("__tuple__", "__bytes__", "__map__", "__bulk__",
                   "__error__"))
#: Exact types JSON carries as they are.  A non-finite float is refused
#: by the encoder itself (``allow_nan=False``).
_SCALARS = frozenset((type(None), bool, int, float, str))


def _encode_value(value):
    """The JSON-ready form of ``value``: the same object when nothing in
    it needs a tag, a rebuilt one otherwise."""
    kind = type(value)
    if kind in _SCALARS:
        return value
    if kind is dict and _TAGS.isdisjoint(value):
        # Exact-type fast path: a string-keyed dict of plain scalars —
        # nearly every call body — is already what the encoder wants.
        for key, item in value.items():
            if type(key) is not str or type(item) not in _SCALARS:
                break
        else:
            return value
    if isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, tuple):
        return {"__tuple__": [_encode_value(v) for v in value]}
    if isinstance(value, list):
        return [_encode_value(v) for v in value]
    if isinstance(value, (bytes, bytearray)):
        return {"__bytes__": binascii.b2a_base64(value, newline=False)
                .decode("ascii")}
    if isinstance(value, dict):
        encoded = {key: _encode_value(item) for key, item in value.items()}
        # A dict whose own keys collide with the tag repertoire (or whose
        # keys are not strings) is escaped into explicit pairs.
        if (all(isinstance(key, str) for key in encoded)
                and _TAGS.isdisjoint(encoded)):
            return encoded
        return {"__map__": [[_encode_value(key), item]
                            for key, item in encoded.items()]}
    if isinstance(value, BulkSource):
        return {"__bulk__": [value.transfer_id, value.nbytes,
                             _encode_value(value.meta), value.consumed]}
    if isinstance(value, BaseException):
        if isinstance(value, RemoteCallError):
            return {"__error__": [value.kind, value.message]}
        return {"__error__": [type(value).__name__, str(value)]}
    raise WireError(f"value of type {type(value).__name__} cannot cross "
                    f"the wire: {value!r}")


def _decode_tag(obj):
    """``object_hook`` of the payload decoder: the JSON scanner calls it on
    every object it closes, children first, so tags are resolved in the
    one pass that parses the text."""
    if len(obj) != 1:
        return obj
    (tag, body), = obj.items()
    if tag not in _TAGS:
        return obj
    try:
        if tag == "__bytes__":
            if not isinstance(body, str):
                raise TypeError("body is not a string")
            return binascii.a2b_base64(body)
        if not isinstance(body, list):
            raise TypeError("body is not a list")
        if tag == "__tuple__":
            return tuple(body)
        if tag == "__map__":
            if not all(isinstance(pair, list) and len(pair) == 2
                       for pair in body):
                raise TypeError("body is not a list of [key, value] pairs")
            return dict(body)
        if tag == "__bulk__":
            transfer_id, nbytes, meta, consumed = body
            source = BulkSource(transfer_id, nbytes, meta)
            source.consumed = consumed
            return source
        kind, message = body  # __error__
        return RemoteCallError(kind, message)
    except (TypeError, ValueError) as exc:  # binascii.Error is a ValueError
        raise WireError(f"malformed {tag} payload: {exc}") from exc


# ``_encode_value`` hands the encoder either a flat dict of scalars or a
# tree it has just built, so the encoder's own cycle bookkeeping is moot.
_ENCODER = json.JSONEncoder(separators=(",", ":"), allow_nan=False,
                            check_circular=False)
_DECODER = json.JSONDecoder(object_hook=_decode_tag)


def encode_message(message):
    """Encode one RPC message dataclass; returns ``(kind, payload_bytes)``."""
    cls = type(message)
    kind = _KIND_BY_CLASS.get(cls)
    if kind is None:
        raise WireError(f"{cls.__name__} is not a wire message")
    values = [_encode_value(getattr(message, name))
              for name in _FIELDS_BY_CLASS[cls]]
    try:
        text = _ENCODER.encode(values)
    except (TypeError, ValueError) as exc:
        raise WireError(f"message {message!r} is not wire-encodable: "
                        f"{exc}") from exc
    return kind, text.encode("utf-8")


def decode_message(kind, payload):
    """Decode a payload produced by :func:`encode_message`."""
    cls = _CLASS_BY_KIND.get(kind)
    if cls is None:
        raise WireError(f"unknown message kind {kind}")
    try:
        values = _DECODER.decode(str(payload, "utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
        # RecursionError: arrays nested deeper than the interpreter allows.
        raise WireError(f"undecodable payload for kind {kind}: {exc}") from exc
    count = len(_FIELDS_BY_CLASS[cls])
    if not isinstance(values, list) or len(values) != count:
        raise WireError(
            f"{cls.__name__} payload carries "
            f"{len(values) if isinstance(values, list) else 'non-list'} "
            f"fields, expected {count}"
        )
    return cls(*values)


def encode_frame(message):
    """One complete frame (header + payload) for ``message``."""
    kind, payload = encode_message(message)
    if len(payload) > MAX_FRAME_BYTES:
        raise FrameError(f"payload of {len(payload)} bytes exceeds the "
                         f"{MAX_FRAME_BYTES}-byte frame ceiling")
    tail = _HEADER_TAIL.pack(WIRE_VERSION, kind, len(payload))
    crc = binascii.crc32(payload, binascii.crc32(tail))
    return b"".join((MAGIC, tail, crc.to_bytes(4, "big"), payload))


def try_decode_frame(buffer, start=0):
    """Decode the frame at ``buffer[start:]`` if it is complete.

    Returns ``(message, consumed_bytes)`` or ``None`` when more bytes are
    needed.  Raises :class:`~repro.errors.FrameError` on a frame that can
    never become valid (bad magic, wrong version, oversize length, checksum
    mismatch) — the stream is unrecoverable past that point.
    """
    available = len(buffer) - start
    if available < FRAME_HEADER_BYTES:
        head = bytes(buffer[start:start + 2])
        if head and not MAGIC.startswith(head):
            raise FrameError(f"bad frame magic {head!r}")
        return None
    magic, version, kind, length, crc = _HEADER.unpack_from(buffer, start)
    if magic != MAGIC:
        raise FrameError(f"bad frame magic {magic!r}")
    if version != WIRE_VERSION:
        raise FrameError(f"unsupported wire version {version} "
                         f"(speaking {WIRE_VERSION})")
    if length > MAX_FRAME_BYTES:
        raise FrameError(f"frame length {length} exceeds the "
                         f"{MAX_FRAME_BYTES}-byte ceiling")
    consumed = FRAME_HEADER_BYTES + length
    if available < consumed:
        return None
    # Only this frame's payload is copied (not even that, from a view),
    # never the rest of the buffer.
    payload = buffer[start + FRAME_HEADER_BYTES:start + consumed]
    if binascii.crc32(payload,
                      binascii.crc32(buffer[start + 2:start + 8])) != crc:
        raise FrameError(f"frame checksum mismatch (kind {kind}, "
                         f"{length} bytes)")
    return decode_message(kind, payload), consumed


def decode_frame(data):
    """Strictly decode one frame; returns ``(message, consumed_bytes)``.

    Unlike :func:`try_decode_frame`, an incomplete buffer is an error: a
    *truncated* frame raises :class:`~repro.errors.FrameError`.
    """
    result = try_decode_frame(data)
    if result is None:
        raise FrameError(f"truncated frame ({len(data)} bytes)")
    return result


class FrameDecoder:
    """Streaming reassembly: feed arbitrary chunks, get whole messages.

    TCP has no message boundaries; whatever chunking the kernel delivers,
    ``feed`` buffers it and returns every message completed so far, in
    order.  A corrupt frame raises :class:`~repro.errors.FrameError` and
    poisons the decoder — the connection must be torn down, resyncing an
    LV-framed stream past garbage is not possible.
    """

    __slots__ = ("_buffer", "_poisoned")

    def __init__(self):
        self._buffer = bytearray()
        self._poisoned = False

    @property
    def pending_bytes(self):
        """Bytes buffered toward the next (incomplete) frame."""
        return len(self._buffer)

    def feed(self, chunk):
        """Absorb ``chunk``; return the list of messages it completed.

        ``chunk`` may be any bytes-like object, including a view of a
        buffer the caller is about to overwrite: frames are decoded where
        they lie, and only an incomplete tail is copied, so nothing
        returned or retained refers to ``chunk`` afterwards.
        """
        if self._poisoned:
            raise FrameError("decoder poisoned by an earlier corrupt frame")
        buffer = self._buffer
        if buffer:
            buffer += chunk
            chunk = buffer
        messages = []
        start = 0
        view = memoryview(chunk)
        end = len(view)
        try:
            while start < end:
                result = try_decode_frame(view, start)
                if result is None:
                    break
                messages.append(result[0])
                start += result[1]
        except WireError:
            self._poisoned = True
            # The undecodable tail stays pending, in a buffer of its own:
            # the traceback pins views of the old one, which cannot shrink.
            self._buffer = bytearray(view[start:])
            raise
        if chunk is not buffer:
            buffer += view[start:]
        elif start:
            # Compact once per feed, not once per frame.
            view.release()
            del buffer[:start]
        return messages
