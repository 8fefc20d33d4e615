import json
import re
import struct

import numpy as np
import pytest

from growformer.checkpoint import Checkpoint, load_checkpoint, save_checkpoint
from growformer.errors import ValidationError
from growformer.model import ModelConfig, init_params, param_shapes
from growformer.rng import RngState

from checkpoint_bytes import with_entry, with_header

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
    for group in (back.params, back.adam_m, back.adam_v):
        assert all(p.dtype == np.float64 and p.flags.writeable for p in group.values())


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
        experiment={"note": "tiny"},
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


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "+inf", "-inf"])
@pytest.mark.parametrize("group", ["p/", "m/", "v/"])
def test_non_finite_entry_rejected_naming_file_and_matrix(group, value, tmp_path):
    path = tmp_path / "bad.nxf"
    save_checkpoint(tiny_checkpoint(), path)
    path.write_bytes(with_entry(path.read_bytes(), f"{group}ln_f.g", value))
    message = f"{path}: matrix '{group}ln_f.g' holds a non-finite value"
    with pytest.raises(ValidationError, match=re.escape(message)):
        load_checkpoint(path)


def test_every_header_key_the_writer_writes_is_required(tmp_path):
    # the keys come from the written header, so one the writer adds is required too
    path = tmp_path / "full.nxf"
    save_checkpoint(tiny_checkpoint(), path)
    data = path.read_bytes()
    (json_len,) = struct.unpack("<I", data[8:12])
    header = json.loads(data[12 : 12 + json_len])
    cuts = [lambda h, k=k: h.pop(k) for k in header]
    cuts += [lambda h, k=k: h["rng"].pop(k) for k in header["rng"]]
    assert len(cuts) == len(header) + 3 and "experiment" in header
    for cut in cuts:
        path.write_bytes(with_header(data, cut))
        with pytest.raises(ValidationError, match="bad JSON header: missing key"):
            load_checkpoint(path)
    # and no other key, at either level
    for block, extra in (("checkpoint", lambda h: h), ("rng", lambda h: h["rng"])):
        path.write_bytes(with_header(data, lambda h: extra(h).update(dtype="f8")))
        with pytest.raises(
            ValidationError, match=f"bad JSON header: {block} config: unknown key 'dtype'"
        ):
            load_checkpoint(path)


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

