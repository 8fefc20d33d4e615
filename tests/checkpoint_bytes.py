"""Byte-level rewrites of a written checkpoint, so tests can hand the
loader a file that ``save_checkpoint`` never writes."""

import json
import struct

import numpy as np


def with_header(data: bytes, edit) -> bytes:
    """The checkpoint bytes with ``edit`` applied to the parsed JSON header."""
    (json_len,) = struct.unpack("<I", data[8:12])
    header = json.loads(data[12 : 12 + json_len])
    edit(header)
    blob = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    return data[:8] + struct.pack("<I", len(blob)) + blob + data[12 + json_len :]


def as_f4(data: bytes) -> bytes:
    """The checkpoint bytes with every matrix stored as float32 under the ``f4`` tag."""
    (json_len,) = struct.unpack("<I", data[8:12])
    off = 12 + json_len + 4
    (count,) = struct.unpack("<I", data[off - 4 : off])
    out = [data[:off]]
    for _ in range(count):
        (name_len,) = struct.unpack("<I", data[off : off + 4])
        tag = off + 12 + name_len
        rows, cols = struct.unpack("<II", data[tag - 8 : tag])
        payload = np.frombuffer(data[tag + 2 : tag + 2 + 8 * rows * cols], dtype="<f8")
        out += [data[off:tag], b"f4", payload.astype("<f4").tobytes()]
        off = tag + 2 + 8 * rows * cols
    return b"".join(out)


def with_entry(data: bytes, name: str, value: float) -> bytes:
    """The checkpoint bytes with the first entry of matrix ``name`` (``p/``,
    ``m/`` or ``v/`` prefixed) overwritten by ``value``."""
    (json_len,) = struct.unpack("<I", data[8:12])
    off = 12 + json_len + 4
    while True:
        (name_len,) = struct.unpack("<I", data[off : off + 4])
        tag = off + 12 + name_len
        rows, cols = struct.unpack("<II", data[tag - 8 : tag])
        if data[off + 4 : off + 4 + name_len].decode("utf-8") == name:
            return data[: tag + 2] + struct.pack("<d", value) + data[tag + 10 :]
        off = tag + 2 + 8 * rows * cols
