"""Binary checkpoint format.

Layout (little-endian): magic ``NXF1``, u32 format version, u32 JSON
length, the JSON blob (model config, RNG state, counters, optional
experiment config; sorted keys), u32 matrix count, then per matrix:
u32 name length, name bytes, u32 rows, u32 cols, 2-byte dtype tag,
raw row-major payload. Matrices are written in sorted name order, so
save -> load -> save is byte-identical, and load in ``param_shapes`` order.

Every matrix is written as ``f8``, so a reloaded checkpoint resumes
bit-exactly. The loader also reads the ``f4`` tag, and ignores the
``dtype``, ``arithmetic`` and ``out_dir`` keys, of older writers' files.
Every read is bounds-checked: a truncated or padded file, a negative or
non-int counter or RNG field, an unknown RNG algorithm, or a matrix
listed twice is a ValidationError.

Shape contract: the parameters and both Adam moments each hold exactly
the matrices that ``model.param_shapes`` lists for the header's model
config, each of that shape. ``load_checkpoint`` checks this before it
returns, so a missing, extra or misshapen matrix is a ValidationError
naming it, never a later failure inside the model.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ValidationError, check_int
from .model import ModelConfig, check_params, param_shapes
from .rng import RngState

MAGIC = b"NXF1"
FORMAT_VERSION = 1
_DTYPES = {b"f8": np.dtype("<f8"), b"f4": np.dtype("<f4")}


@dataclass
class Checkpoint:
    model_config: ModelConfig
    params: dict[str, np.ndarray]
    adam_m: dict[str, np.ndarray]
    adam_v: dict[str, np.ndarray]
    rng: RngState
    step: int = 0
    tokens: int = 0
    experiment: dict | None = None


def _header_json(ck: Checkpoint) -> bytes:
    blob = {
        "version": FORMAT_VERSION,
        "model": ck.model_config.to_dict(),
        "rng": ck.rng.to_dict(),
        "step": ck.step,
        "tokens": ck.tokens,
        "experiment": ck.experiment,
    }
    return json.dumps(blob, sort_keys=True, separators=(",", ":")).encode("utf-8")


def _iter_matrices(ck: Checkpoint):
    for prefix, group in (("p/", ck.params), ("m/", ck.adam_m), ("v/", ck.adam_v)):
        for name in group:
            yield prefix + name, group[name]


def save_checkpoint(ck: Checkpoint, path) -> None:
    blob = _header_json(ck)
    entries = sorted(_iter_matrices(ck), key=lambda kv: kv[0])
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<II", FORMAT_VERSION, len(blob)))
        fh.write(blob)
        fh.write(struct.pack("<I", len(entries)))
        for name, mat in entries:
            mat = np.ascontiguousarray(mat, dtype=_DTYPES[b"f8"])
            nb = name.encode("utf-8")
            fh.write(struct.pack("<I", len(nb)))
            fh.write(nb)
            fh.write(struct.pack("<II", mat.shape[0], mat.shape[1]))
            fh.write(b"f8")
            fh.write(mat.tobytes())


def load_checkpoint(path) -> Checkpoint:
    data = Path(path).read_bytes()
    off = 0

    def take(n: int, what: str) -> bytes:
        nonlocal off
        if n > len(data) - off:
            raise ValidationError(f"{path}: truncated at byte {off}: {what} needs {n} bytes")
        off += n
        return data[off - n : off]

    magic = take(4, "magic")
    if magic != MAGIC:
        raise ValidationError(f"{path}: bad magic {magic!r}, expected {MAGIC!r}")
    version, json_len = struct.unpack("<II", take(8, "version and header length"))
    if version != FORMAT_VERSION:
        raise ValidationError(f"{path}: unsupported format version {version}")
    try:
        blob = json.loads(take(json_len, "JSON header").decode("utf-8"))
        model_config = ModelConfig.from_dict(blob["model"])
        rng = RngState.from_dict(blob["rng"])
        step, tokens = blob["step"], blob["tokens"]
        for name in ("step", "tokens"):
            check_int("checkpoint", name, blob[name], minimum=0)
    except (ValueError, KeyError, TypeError) as exc:
        raise ValidationError(f"{path}: bad JSON header: {exc}") from exc
    (count,) = struct.unpack("<I", take(4, "matrix count"))
    groups: dict[str, dict[str, np.ndarray]] = {"p/": {}, "m/": {}, "v/": {}}
    for _ in range(count):
        (name_len,) = struct.unpack("<I", take(4, "matrix name length"))
        try:
            name = take(name_len, "matrix name").decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ValidationError(f"{path}: matrix name is not UTF-8") from exc
        rows, cols = struct.unpack("<II", take(8, f"shape of {name!r}"))
        tag = take(2, f"dtype tag of {name!r}")
        if tag not in _DTYPES:
            raise ValidationError(f"{path}: unknown dtype tag {tag!r}")
        payload = take(rows * cols * _DTYPES[tag].itemsize, f"payload of {name!r}")
        prefix, base = name[:2], name[2:]
        if prefix not in groups:
            raise ValidationError(f"{path}: unknown matrix group {prefix!r}")
        if base in groups[prefix]:
            raise ValidationError(f"{path}: matrix {name!r} appears twice")
        mat = np.frombuffer(payload, dtype=_DTYPES[tag]).reshape(rows, cols)
        groups[prefix][base] = mat.astype(np.float64)
    if off != len(data):
        raise ValidationError(f"{path}: {len(data) - off} trailing bytes after the last matrix")
    for label, group in zip(("params", "adam_m", "adam_v"), groups.values()):
        check_params(model_config, group, f"{path}: {label}")
    order = param_shapes(model_config)
    params, adam_m, adam_v = ({name: group[name] for name in order} for group in groups.values())
    return Checkpoint(
        model_config=model_config,
        params=params,
        adam_m=adam_m,
        adam_v=adam_v,
        rng=rng,
        step=step,
        tokens=tokens,
        experiment=blob.get("experiment"),
    )
