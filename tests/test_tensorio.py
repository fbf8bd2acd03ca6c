"""Tensor files: the binary + shape round trip and the CSV fixture form."""

import numpy as np
import pytest

from tcmc import tensorio


def test_save_load_round_trip_keeps_bits_and_shape(tmp_path):
    rng = np.random.default_rng(0)
    tensors = {
        "m": rng.standard_normal((3, 5)).astype(np.float32),
        "v": np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 1e-45], dtype=np.float32),
        "s": np.array([2.5], dtype=np.float32),
    }
    tensorio.save_dir(tmp_path / "t", tensors)
    assert (tmp_path / "t" / "m.shape").read_text() == "3 5\n"
    back = tensorio.load_dir(tmp_path / "t", sorted(tensors))
    for name, arr in tensors.items():
        assert back[name].dtype == np.float32 and back[name].shape == arr.shape
        assert np.array_equal(back[name].view(np.uint32), arr.view(np.uint32))


def test_save_converts_to_little_endian_f32(tmp_path):
    tensorio.save_tensor(tmp_path / "x", np.arange(4, dtype=">f8"))
    assert (tmp_path / "x.bin").read_bytes() == np.arange(4, dtype="<f4").tobytes()


def test_load_rejects_a_size_mismatch(tmp_path):
    tensorio.save_tensor(tmp_path / "x", np.zeros(6, dtype=np.float32))
    (tmp_path / "x.shape").write_text("7\n")
    with pytest.raises(ValueError, match="6 values for shape"):
        tensorio.load_tensor(tmp_path / "x")


def test_csv_fixture_loads_and_binary_wins(tmp_path):
    (tmp_path / "a.csv").write_text("2 3\n1, 2, 3\n4,5,6\n")
    (tmp_path / "b.csv").write_text("2\n1, 2, 3\n")
    a = tensorio.load_dir(tmp_path, ["a"])["a"]
    assert a.dtype == np.float32 and a.tolist() == [[1, 2, 3], [4, 5, 6]]
    with pytest.raises(ValueError, match="3 values for shape"):
        tensorio.load_dir(tmp_path, ["b"])
    tensorio.save_tensor(tmp_path / "a", np.ones(2, dtype=np.float32))
    assert tensorio.load_dir(tmp_path, ["a"])["a"].tolist() == [1.0, 1.0]
    with pytest.raises(FileNotFoundError, match="'c'"):
        tensorio.load_dir(tmp_path, ["c"])
