import json
import re
import struct

import numpy as np
import pytest

from growformer.checkpoint import Checkpoint, load_checkpoint, save_checkpoint
from growformer.errors import ValidationError
from growformer.model import ModelConfig, init_params, param_shapes
from growformer.rng import RngState

CFG = ModelConfig(
    vocab_size=16, context_len=8, hidden_size=8, n_heads=2, n_layers=1,
    ladder_m=12, ladder_a=16, ffn_size=16,
)


def make_checkpoint(seed=3):
    params = init_params(CFG, seed=seed)
    return Checkpoint(
        model_config=CFG,
        params=params,
        adam_m={k: np.zeros_like(p) for k, p in params.items()},
        adam_v={k: np.full_like(p, 0.25) for k, p in params.items()},
        rng=RngState(99, position=1234),
        step=42,
        tokens=42 * 8,
        experiment={"note": "roundtrip"},
    )


def test_roundtrip_values(tmp_path):
    ck = make_checkpoint()
    path = tmp_path / "model.nxf"
    save_checkpoint(ck, path)
    back = load_checkpoint(path)
    assert back.model_config == CFG
    assert back.step == 42 and back.tokens == 336
    assert back.rng.seed == 99 and back.rng.position == 1234
    assert back.experiment == {"note": "roundtrip"}
    assert sorted(back.params) == sorted(ck.params)
    for k in ck.params:
        assert np.array_equal(back.params[k], ck.params[k])
        assert np.array_equal(back.adam_v[k], ck.adam_v[k])


def test_save_load_save_bytes_identical(tmp_path):
    ck = make_checkpoint()
    p1 = tmp_path / "a.nxf"
    p2 = tmp_path / "b.nxf"
    save_checkpoint(ck, p1)
    save_checkpoint(load_checkpoint(p1), p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_magic_rejected(tmp_path):
    path = tmp_path / "junk.nxf"
    path.write_bytes(b"WRNG" + b"\x00" * 32)
    with pytest.raises(ValidationError, match="magic"):
        load_checkpoint(path)


def test_header_magic_literal(tmp_path):
    path = tmp_path / "model.nxf"
    save_checkpoint(make_checkpoint(), path)
    assert path.read_bytes()[:4] == b"NXF1"


# width 1 everywhere: the smallest complete parameter set, so a checkpoint
# of it is small enough to cut at every byte
UNIT = ModelConfig(
    vocab_size=1, context_len=1, hidden_size=1, n_heads=1, n_layers=1,
    ladder_m=1, ladder_a=1, ffn_size=1,
)


def unit_matrices(scale):
    return {
        name: np.full(shape, scale * (i + 1))
        for i, (name, shape) in enumerate(param_shapes(UNIT).items())
    }


def tiny_checkpoint():
    return Checkpoint(
        model_config=UNIT,
        params=unit_matrices(0.5),
        adam_m=unit_matrices(2.0),
        adam_v=unit_matrices(3.0),
        rng=RngState(5, position=6),
        step=1,
        tokens=8,
    )


def test_every_truncation_rejected(tmp_path):
    full = tmp_path / "full.nxf"
    save_checkpoint(tiny_checkpoint(), full)
    load_checkpoint(full)  # only the cuts may fail
    data = full.read_bytes()
    cut = tmp_path / "cut.nxf"
    for n in range(len(data)):
        cut.write_bytes(data[:n])
        with pytest.raises(ValidationError):
            load_checkpoint(cut)


def test_trailing_bytes_rejected(tmp_path):
    path = tmp_path / "padded.nxf"
    save_checkpoint(tiny_checkpoint(), path)
    path.write_bytes(path.read_bytes() + b"\x00")
    with pytest.raises(ValidationError, match="trailing"):
        load_checkpoint(path)


def test_legacy_f4_file_with_dtype_and_arithmetic_keys_loads(tmp_path):
    model = {**UNIT.to_dict(), "dtype": "f4"}
    experiment = {"arithmetic": "f8", "model": model, "seed": 0}
    header = json.dumps(
        {"version": 1, "model": model, "rng": RngState(7).to_dict(), "step": 3,
         "tokens": 24, "experiment": experiment},
        sort_keys=True, separators=(",", ":"),
    ).encode("utf-8")
    w = np.array([[0.1]])
    names = sorted(g + k for g in ("m/", "p/", "v/") for k in param_shapes(UNIT))
    blob = b"NXF1" + struct.pack("<II", 1, len(header)) + header
    blob += struct.pack("<I", len(names))
    for name in names:
        nb = name.encode("utf-8")
        blob += struct.pack("<I", len(nb)) + nb + struct.pack("<II", 1, 1) + b"f4"
        blob += w.astype("<f4").tobytes()
    path = tmp_path / "legacy.nxf"
    path.write_bytes(blob)
    back = load_checkpoint(path)
    assert back.model_config == UNIT
    assert back.step == 3 and back.tokens == 24 and back.rng.seed == 7
    assert back.experiment == experiment
    assert list(back.params) == sorted(param_shapes(UNIT))
    for name, p in back.params.items():
        assert p.dtype == np.float64
        assert np.array_equal(p, w.astype(np.float32).astype(np.float64))
        assert np.array_equal(back.adam_m[name], p) and np.array_equal(back.adam_v[name], p)


@pytest.mark.parametrize(
    "group, name, shape",
    [
        ("params", "blocks.0.attn.q.w_mid", None),
        ("params", "blocks.0.attn.q.w_extra", (1, 1)),
        ("params", "ln_f.g", (1, 15)),
        ("adam_v", "unembed", (2, 1)),
    ],
    ids=["missing-matrix", "extra-matrix", "misshapen-ln_f.g", "misshapen-moment"],
)
def test_matrix_set_must_match_model_config(group, name, shape, tmp_path):
    ck = tiny_checkpoint()
    matrices = getattr(ck, group)
    if shape is None:
        del matrices[name]
    else:
        matrices[name] = np.ones(shape)
    path = tmp_path / "bad.nxf"
    save_checkpoint(ck, path)
    with pytest.raises(ValidationError, match=rf"{group}: .*{re.escape(name)}"):
        load_checkpoint(path)

