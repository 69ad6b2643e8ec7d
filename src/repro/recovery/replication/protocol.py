"""The replication wire protocol: length-prefixed, checksummed frames.

The primary streams three data-plane frame kinds to each replica —
``record`` (one durable journal line), ``checkpoint`` (a published
checkpoint blob) and ``heartbeat`` (liveness + current durable LSN) —
bracketed by ``hello`` (the run spec, so a promoted replica can rebuild
the run without any out-of-band channel) and ``eof`` (clean shutdown).
Replicas answer with ``ack`` frames carrying the next LSN they expect.

Framing is a 4-byte big-endian length prefix followed by a JSON body;
every frame carries a blake2b-8 checksum over its sorted JSON sans the
``crc`` field — the same scheme as journal records, so a frame damaged
in flight is rejected (:class:`FrameCorrupt`) instead of installed.
:class:`FrameDecoder` is an incremental parser: feed it arbitrary byte
chunks off a socket and it yields complete frames, holding partial
ones across calls.

LSN semantics: the journal's ``seq`` counter *is* the log sequence
number.  A ``record`` frame carries the record's own ``seq`` inside its
journal line; ``heartbeat``/``eof`` carry the primary's durable high
water mark; ``ack`` carries the replica's ``next_expected`` cursor.
"""

import base64
import hashlib
import json
import struct

#: Hard ceiling on one frame's body; anything larger is corruption (a
#: garbled length prefix would otherwise stall the decoder forever
#: waiting for gigabytes that never come).
MAX_FRAME_BYTES = 64 << 20

_LENGTH = struct.Struct(">I")


class FrameCorrupt(RuntimeError):
    """A frame failed its length, JSON or checksum validation."""


def _frame_crc(frame):
    material = json.dumps(
        {k: v for k, v in frame.items() if k != "crc"}, sort_keys=True
    ).encode("utf-8")
    return hashlib.blake2b(material, digest_size=8).hexdigest()


def encode_frame(frame):
    """Serialise one frame dict to length-prefixed wire bytes."""
    frame = dict(frame)
    frame["crc"] = _frame_crc(frame)
    body = json.dumps(frame, sort_keys=True).encode("utf-8")
    if len(body) > MAX_FRAME_BYTES:
        raise FrameCorrupt(f"frame body {len(body)} bytes exceeds cap")
    return _LENGTH.pack(len(body)) + body


def decode_frame_body(body):
    """Validate and decode one frame body (sans length prefix)."""
    try:
        frame = json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise FrameCorrupt(f"undecodable frame body: {exc}") from exc
    if not isinstance(frame, dict) or "kind" not in frame:
        raise FrameCorrupt("frame body is not a kind-tagged object")
    if frame.get("crc") != _frame_crc(frame):
        raise FrameCorrupt(f"frame checksum mismatch: {frame.get('kind')}")
    return frame


class FrameDecoder:
    """Incremental frame parser over an arbitrary byte stream."""

    def __init__(self):
        self._buffer = bytearray()

    def feed(self, data):
        """Absorb ``data``; returns every frame completed by it."""
        self._buffer.extend(data)
        frames = []
        while True:
            if len(self._buffer) < _LENGTH.size:
                return frames
            (length,) = _LENGTH.unpack(bytes(self._buffer[:_LENGTH.size]))
            if length > MAX_FRAME_BYTES:
                raise FrameCorrupt(
                    f"frame length prefix {length} exceeds cap"
                )
            end = _LENGTH.size + length
            if len(self._buffer) < end:
                return frames
            body = bytes(self._buffer[_LENGTH.size:end])
            del self._buffer[:end]
            frames.append(decode_frame_body(body))


# Frame constructors ----------------------------------------------------------------


def hello_frame(spec_json, attempt, start_lsn):
    """Stream preamble: the spec and where this attempt's log starts."""
    return {
        "kind": "hello",
        "spec": spec_json,
        "attempt": int(attempt),
        "start_lsn": int(start_lsn),
    }


def encode_record_line(record):
    """A loaded journal record dict -> its canonical on-disk line.

    ``encode_record`` writes ``json.dumps(..., sort_keys=True)``; round-
    tripping through ``json.loads`` and dumping the same way reproduces
    the exact bytes (crc included), which is what keeps replica journals
    byte-identical to the primary's after a catch-up re-stream.
    """
    return json.dumps(record, sort_keys=True)


def record_frame(line):
    """One durable journal record, as its exact on-disk line.

    ``line`` is the encoded record *without* its trailing newline; the
    replica re-appends the newline, so its journal file is byte-for-byte
    the primary's.  The record's own crc rides along inside the line and
    is re-checked on apply — two independent integrity layers.
    """
    return {"kind": "record", "line": line}


def checkpoint_frame(step, journal_seq, blob):
    """One published checkpoint, full file bytes (base64)."""
    return {
        "kind": "checkpoint",
        "step": int(step),
        "journal_seq": int(journal_seq),
        "blob": base64.b64encode(blob).decode("ascii"),
    }


def checkpoint_blob(frame):
    return base64.b64decode(frame["blob"].encode("ascii"))


def heartbeat_frame(lsn, interval, mono):
    """In-stream liveness beat: durable LSN + sender's monotonic clock."""
    return {
        "kind": "heartbeat",
        "lsn": int(lsn),
        "interval": int(interval),
        "mono": float(mono),
    }


def eof_frame(lsn):
    """Clean end of stream at durable LSN (the run completed)."""
    return {"kind": "eof", "lsn": int(lsn)}


def ack_frame(replica, lsn):
    """Replica -> primary: everything below ``lsn`` is durable here."""
    return {"kind": "ack", "replica": str(replica), "lsn": int(lsn)}
