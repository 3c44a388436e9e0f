"""The binary files: byte layout, and rejection of malformed files.

Every malformed or truncated file must raise FormatError naming the file,
never another exception and never a silently wrong object.
"""
import dataclasses
import struct
import zlib

import numpy as np
import pytest

import reference_writers as ref
from esh.anchor_graph import anchor_mass, fit_anchor_graph, similarity_matrix
from esh.container import FormatError, Reader, Writer
from esh.dataset import generate_synthetic, load_features, save_features, standardize
from esh.encoder import (HashModel, build_hash_model, load_codes, load_model, pack_codes,
                         save_codes, save_model)
from esh.optimizer import TrainConfig, train


def tiny_model_with_train():
    """A small model, its training codes B and its affinity rows Z."""
    X_raw, _ = generate_synthetic(2, 4, 3, 1.0, seed=7)
    Xs, stats = standardize(X_raw)
    anchors, Z = fit_anchor_graph(Xs, m=4, iters=5, seed=8, s=2)
    lam = anchor_mass(Z)
    W, _ = train(Xs, similarity_matrix(Xs, Z, lam), TrainConfig(bits=2, iters=5, seed=9))
    model, B = build_hash_model(stats, W, anchors, Z, lam, X_raw)
    return model, B, Z


def tiny_model():
    return tiny_model_with_train()[0]


LOADERS = {"f.eshf": load_features, "c.eshb": load_codes, "m.eshm": load_model}


def tiny_files(tmp_path):
    """A small file of each format, written by the reference writers; the
    model carries the legacy B and Z sections."""
    rng = np.random.default_rng(3)
    paths = {name: tmp_path / name for name in LOADERS}
    ref.save_features(rng.standard_normal((3, 2)), paths["f.eshf"])
    ref.save_codes(pack_codes(rng.standard_normal((3, 70))), paths["c.eshb"])
    model, B, Z = tiny_model_with_train()
    ref.save_model(model, paths["m.eshm"], B, Z)
    return paths


def assert_format_error(load, path, match=None):
    with pytest.raises(FormatError, match=match) as info:
        load(path)
    assert str(path) in str(info.value)


def recrc(body):
    return bytes(body) + struct.pack("<I", zlib.crc32(bytes(body)))


def test_writers_emit_the_reference_bytes(tmp_path):
    X = np.random.default_rng(1).standard_normal((5, 4))
    codes = pack_codes(np.random.default_rng(2).standard_normal((6, 130)))
    cases = [(save_features, ref.save_features, X, "x.eshf"),
             (save_codes, ref.save_codes, codes, "x.eshb"),
             (save_model, ref.save_model, tiny_model(), "x.eshm")]
    for save, save_ref, obj, name in cases:
        save(obj, tmp_path / name)
        save_ref(obj, tmp_path / ("ref_" + name))
        assert (tmp_path / name).read_bytes() == (tmp_path / ("ref_" + name)).read_bytes(), name


def test_reference_files_load_to_equal_objects(tmp_path):
    X = np.random.default_rng(4).standard_normal((5, 4)).astype(np.float32).astype(np.float64)
    ref.save_features(X, tmp_path / "x.eshf")
    assert np.array_equal(load_features(tmp_path / "x.eshf"), X)
    codes = pack_codes(np.random.default_rng(5).standard_normal((6, 70)))
    ref.save_codes(codes, tmp_path / "x.eshb")
    back = load_codes(tmp_path / "x.eshb")
    assert (back.n, back.k) == (codes.n, codes.k)
    assert np.array_equal(back.words, codes.words) and back.words.flags.writeable
    model, B, Z = tiny_model_with_train()
    ref.save_model(model, tmp_path / "x.eshm", B, Z)
    back = load_model(tmp_path / "x.eshm")
    for name in ("mean", "std", "W", "centers", "lam", "vote_matrix"):
        assert np.array_equal(getattr(back, name), getattr(model, name)), name
        assert getattr(back, name).dtype == getattr(model, name).dtype, name
    assert (back.sigma2, back.s, back.query_mode) == (model.sigma2, model.s, model.query_mode)


def test_model_with_legacy_train_sections_loads_like_one_without(tmp_path):
    model, B, Z = tiny_model_with_train()
    ref.save_model(model, tmp_path / "legacy.eshm", B, Z)
    save_model(model, tmp_path / "m.eshm")
    assert (tmp_path / "legacy.eshm").read_bytes()[5] == 3  # flags: B and Z
    assert (tmp_path / "m.eshm").read_bytes()[5] == 0
    legacy, plain = load_model(tmp_path / "legacy.eshm"), load_model(tmp_path / "m.eshm")
    for field in dataclasses.fields(HashModel):
        a, b = getattr(legacy, field.name), getattr(plain, field.name)
        assert type(a) is type(b) and np.asarray(a).dtype == np.asarray(b).dtype, field.name
        assert np.array_equal(a, b), field.name


def test_every_prefix_raises_format_error(tmp_path):
    for name, path in tiny_files(tmp_path).items():
        data = path.read_bytes()
        cut = tmp_path / ("cut_" + name)
        for size in range(len(data)):
            cut.write_bytes(data[:size])
            assert_format_error(LOADERS[name], cut)


def test_every_single_byte_flip_of_a_model_raises_format_error(tmp_path):
    path = tiny_files(tmp_path)["m.eshm"]
    data = path.read_bytes()
    bad = tmp_path / "flip.eshm"
    for i in range(len(data)):
        flipped = bytearray(data)
        flipped[i] ^= 0xFF
        bad.write_bytes(bytes(flipped))
        assert_format_error(load_model, bad)


def test_trailing_bytes_rejected(tmp_path):
    for name, path in tiny_files(tmp_path).items():
        data = path.read_bytes()
        if name == "m.eshm":
            path.write_bytes(recrc(data[:-4] + b"\0"))
        else:
            path.write_bytes(data + b"\0")
        assert_format_error(LOADERS[name], path, match="trailing")


def test_codes_with_padding_bits_set_rejected(tmp_path):
    path = tmp_path / "c.eshb"
    path.write_bytes(b"ESHB" + struct.pack("<BQQ", 1, 2, 5) + struct.pack("<QQ", 1, 1 << 7))
    assert_format_error(load_codes, path, match="padding")


@pytest.mark.parametrize("n, k", [(3, 0), (0, 8)])
def test_codes_of_empty_shape_rejected(tmp_path, n, k):
    path = tmp_path / "c.eshb"
    path.write_bytes(b"ESHB" + struct.pack("<BQQ", 1, n, k))
    assert_format_error(load_codes, path, match="invalid shape")


def test_non_finite_features_name_the_file(tmp_path):
    for name in ("f.eshf", "f.csv"):
        ref.save_features(np.ones((2, 2)), tmp_path / name)
    data = bytearray((tmp_path / "f.eshf").read_bytes())
    data[-4:] = struct.pack("<f", np.inf)
    (tmp_path / "f.eshf").write_bytes(bytes(data))
    (tmp_path / "f.csv").write_text("1,1\n1,nan\n")
    for name in ("f.eshf", "f.csv"):
        assert_format_error(load_features, tmp_path / name, match="row 1, column 1")


def _retained_sections(tmp_path):
    """Legacy model body and the offsets of its retained code words and anchor indices."""
    model, B, Z = tiny_model_with_train()
    ref.save_model(model, tmp_path / "m.eshm", B, Z)
    body = bytearray((tmp_path / "m.eshm").read_bytes()[:-4])
    z_bytes = Z.n * Z.s * 8  # indices, then weights, end the body
    idx_off = len(body) - 2 * z_bytes
    words_off = idx_off - 16 - B.words.nbytes
    return model, body, words_off, idx_off


def test_model_with_bad_retained_anchor_index_rejected(tmp_path):
    model, body, _, idx_off = _retained_sections(tmp_path)
    body[idx_off : idx_off + 8] = struct.pack("<q", model.m)
    (tmp_path / "bad.eshm").write_bytes(recrc(body))
    assert_format_error(load_model, tmp_path / "bad.eshm", match="anchor index out of range")


def test_model_with_bad_retained_code_padding_rejected(tmp_path):
    model, body, words_off, _ = _retained_sections(tmp_path)
    assert model.k & 63  # the last word has padding bits
    body[words_off + 7] |= 0x80  # top bit of sample 0's only word
    (tmp_path / "bad.eshm").write_bytes(recrc(body))
    assert_format_error(load_model, tmp_path / "bad.eshm", match="padding")


def test_model_with_unknown_query_mode_byte_rejected(tmp_path):
    save_model(tiny_model(), tmp_path / "m.eshm")
    body = bytearray((tmp_path / "m.eshm").read_bytes()[:-4])
    body[6] = 2  # after magic, version and flags
    (tmp_path / "bad.eshm").write_bytes(recrc(body))
    assert_format_error(load_model, tmp_path / "bad.eshm", match="query mode")


@pytest.mark.parametrize("flags", [0x04, 0x80, 0x07])
def test_model_with_unknown_flag_bits_rejected(tmp_path, flags):
    save_model(tiny_model(), tmp_path / "m.eshm")
    body = bytearray((tmp_path / "m.eshm").read_bytes()[:-4])
    body[5] = flags  # after magic and version
    (tmp_path / "bad.eshm").write_bytes(recrc(body))
    assert_format_error(load_model, tmp_path / "bad.eshm", match="unknown flag bits")


MODEL_MATRICES = [("mean", "<f4"), ("std", "<f4"), ("W", "<f4"), ("centers", "<f4"),
                  ("lam", "<f8"), ("vote_matrix", "<f4")]


@pytest.mark.parametrize("name, dtype", MODEL_MATRICES)
@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_model_with_non_finite_matrix_rejected(tmp_path, name, dtype, value):
    model = tiny_model()
    save_model(model, tmp_path / "m.eshm")
    body = bytearray((tmp_path / "m.eshm").read_bytes()[:-4])
    data = np.ascontiguousarray(getattr(model, name), dtype=dtype).tobytes()
    off = bytes(body).find(data)
    assert off > 0
    body[off : off + np.dtype(dtype).itemsize] = np.array([value], dtype).tobytes()
    (tmp_path / "bad.eshm").write_bytes(recrc(body))
    assert_format_error(load_model, tmp_path / "bad.eshm", match=f"{name} has non-finite")


@pytest.mark.parametrize("value", [np.inf, np.nan])
def test_model_with_non_finite_sigma2_rejected(tmp_path, value):
    model = tiny_model()
    save_model(model, tmp_path / "m.eshm")
    body = bytearray((tmp_path / "m.eshm").read_bytes()[:-4])
    off = bytes(body).find(struct.pack("<d", model.sigma2))
    assert off > 0
    body[off : off + 8] = struct.pack("<d", value)
    (tmp_path / "bad.eshm").write_bytes(recrc(body))
    assert_format_error(load_model, tmp_path / "bad.eshm", match="sigma2 must be finite")


def test_model_with_zero_std_rejected(tmp_path):
    model = tiny_model()
    save_model(model, tmp_path / "m.eshm")
    body = bytearray((tmp_path / "m.eshm").read_bytes()[:-4])
    off = bytes(body).find(model.std.astype("<f4").tobytes())
    body[off : off + 4] = np.array([0.0], "<f4").tobytes()
    (tmp_path / "bad.eshm").write_bytes(recrc(body))
    assert_format_error(load_model, tmp_path / "bad.eshm", match="std entries must be positive")


def test_reader_arrays_are_views_and_stop_at_the_end(tmp_path):
    path = tmp_path / "x.bin"
    Writer(b"TEST", 3).fields("QQ", 2, 3).array(np.arange(6), "<i4").save(path, crc=True)
    with Reader(path, b"TEST", 3, "test", crc=True) as r:
        shape = r.shape(2)
        a = r.array("<i4", shape)
        assert not a.flags.owndata and not a.flags.writeable  # a view into the file bytes
        assert np.array_equal(a, np.arange(6).reshape(2, 3))
        with pytest.raises(FormatError, match="truncated header"):
            r.fields("B")
        with pytest.raises(FormatError, match="truncated payload"):
            r.array("<u1", (1,))
    with pytest.raises(FormatError, match="version"):
        Reader(path, b"TEST", 4, "test", crc=True)
