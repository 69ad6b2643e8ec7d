"""Versioned, checksummed checkpoint files with atomic publication.

File layout (all little-endian text except the payload)::

    PFCKPT1\\n
    <header JSON>\\n
    <zlib-compressed JSON payload>

The header carries the format version, the step (merge-interval index)
the checkpoint was taken at, the journal sequence number it supersedes,
the payload length and its blake2b digest.  ``load`` refuses anything
whose magic, version, length or digest does not check out — a truncated
or bit-rotted checkpoint is *skipped*, never trusted.

:class:`CheckpointStore` manages a directory of ``ckpt-<step>.pfck``
files: ``save`` publishes atomically (tmp + fsync + rename, via
:mod:`repro.common.io`), then calls its ``on_save`` callback;
``latest`` scans newest-first and returns the first checkpoint that
validates, counting the corrupt ones it skipped.
"""

import hashlib
import json
import zlib
from pathlib import Path

from repro.common.io import atomic_write_bytes
from repro.recovery.serialize import STATE_FORMAT_VERSION, jsonify

MAGIC = b"PFCKPT1\n"


class CheckpointCorrupt(RuntimeError):
    """A checkpoint file failed validation (magic/version/checksum)."""


def _digest(payload):
    return hashlib.blake2b(payload, digest_size=16).hexdigest()


def dump_checkpoint(path, state, step, journal_seq=0, meta=None):
    """Serialise ``state`` and atomically publish it at ``path``."""
    payload = zlib.compress(
        json.dumps(jsonify(state), separators=(",", ":")).encode("utf-8"),
        level=6,
    )
    header = {
        "version": STATE_FORMAT_VERSION,
        "step": int(step),
        "journal_seq": int(journal_seq),
        "payload_len": len(payload),
        "payload_blake2b": _digest(payload),
        "meta": jsonify(meta or {}),
    }
    blob = (
        MAGIC
        + json.dumps(header, sort_keys=True).encode("utf-8")
        + b"\n"
        + payload
    )
    return atomic_write_bytes(path, blob)


def load_checkpoint(path):
    """Read and validate one checkpoint; returns (state, header).

    Raises :class:`CheckpointCorrupt` on any validation failure.
    """
    return parse_checkpoint(Path(path).read_bytes(), label=str(path))


def parse_checkpoint(blob, label="<bytes>"):
    """Validate and decode checkpoint ``blob``; returns (state, header).

    The bytes-level twin of :func:`load_checkpoint`, used by the
    replication tier to vet checkpoint frames received off the wire
    before installing them — a replica never trusts a blob a lossy
    transport handed it.  Raises :class:`CheckpointCorrupt` on any
    validation failure.
    """
    path = label
    if not blob.startswith(MAGIC):
        raise CheckpointCorrupt(f"{path}: bad magic")
    rest = blob[len(MAGIC):]
    newline = rest.find(b"\n")
    if newline < 0:
        raise CheckpointCorrupt(f"{path}: truncated header")
    try:
        header = json.loads(rest[:newline].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CheckpointCorrupt(f"{path}: unreadable header: {exc}") from exc
    if header.get("version") != STATE_FORMAT_VERSION:
        raise CheckpointCorrupt(
            f"{path}: format version {header.get('version')} "
            f"!= {STATE_FORMAT_VERSION}"
        )
    payload = rest[newline + 1:]
    if len(payload) != header["payload_len"]:
        raise CheckpointCorrupt(
            f"{path}: payload length {len(payload)} != "
            f"{header['payload_len']}"
        )
    if _digest(payload) != header["payload_blake2b"]:
        raise CheckpointCorrupt(f"{path}: payload checksum mismatch")
    try:
        state = json.loads(zlib.decompress(payload).decode("utf-8"))
    except (zlib.error, UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CheckpointCorrupt(f"{path}: undecodable payload: {exc}") from exc
    return state, header


class CheckpointStore:
    """A directory of step-indexed checkpoints with corruption fallback."""

    def __init__(self, directory, keep=3):
        self.directory = Path(directory)
        self.keep = int(keep)
        self.skipped_corrupt = 0
        # After each publish and prune, save() calls
        # on_save(step, journal_seq, path); the replication streamer
        # points this at the wire.
        self.on_save = None

    def path_for(self, step):
        return self.directory / f"ckpt-{int(step):08d}.pfck"

    def steps(self):
        """Available checkpoint steps, ascending (unvalidated)."""
        if not self.directory.is_dir():
            return []
        steps = []
        for path in self.directory.glob("ckpt-*.pfck"):
            try:
                steps.append(int(path.stem.split("-", 1)[1]))
            except (IndexError, ValueError):
                continue
        return sorted(steps)

    def save(self, step, state, journal_seq=0, meta=None):
        path = dump_checkpoint(
            self.path_for(step), state, step,
            journal_seq=journal_seq, meta=meta,
        )
        self.prune()
        if self.on_save is not None:
            self.on_save(step, journal_seq, path)
        return path

    def latest(self):
        """Newest *valid* checkpoint as (state, header), or None.

        Corrupt files are skipped (counted in ``skipped_corrupt``) so a
        crash mid-``os.replace`` or disk rot degrades to the previous
        checkpoint instead of killing recovery.
        """
        for step in reversed(self.steps()):
            try:
                return load_checkpoint(self.path_for(step))
            except (CheckpointCorrupt, OSError):
                self.skipped_corrupt += 1
        return None

    def prune(self):
        """Keep only the newest ``keep`` checkpoints."""
        steps = self.steps()
        for step in steps[:-self.keep] if self.keep > 0 else []:
            try:
                self.path_for(step).unlink()
            except OSError:
                pass
