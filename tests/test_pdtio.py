import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pdconv import pdtio, scenes
from pdconv.errors import DimensionError, FormatError


@pytest.mark.parametrize("dtype", [np.float32, np.float64, np.int32])
def test_pdt_round_trip_bit_exact(tmp_path, dtype):
    rng = np.random.default_rng(0)
    arr = (rng.standard_normal((2, 3, 4, 5)) * 100).astype(dtype)
    path = str(tmp_path / "t.pdt")
    pdtio.write_pdt(path, arr)
    back = pdtio.read_pdt(path)
    assert back.dtype == arr.dtype
    assert back.tobytes() == arr.tobytes()


def test_pdt_bad_magic(tmp_path):
    path = tmp_path / "bad.pdt"
    path.write_bytes(b"NOPE" + b"\x00" * 16)
    with pytest.raises(FormatError, match="magic"):
        pdtio.read_pdt(str(path))


def test_pdt_truncated(tmp_path):
    good = tmp_path / "good.pdt"
    pdtio.write_pdt(str(good), np.ones((4, 4), dtype=np.float32))
    data = good.read_bytes()
    bad = tmp_path / "trunc.pdt"
    bad.write_bytes(data[: len(data) - 7])
    with pytest.raises(FormatError, match="truncated"):
        pdtio.read_pdt(str(bad))


def test_pdt_trailing_bytes(tmp_path):
    good = tmp_path / "good.pdt"
    pdtio.write_pdt(str(good), np.ones(3, dtype=np.float32))
    bad = tmp_path / "pad.pdt"
    bad.write_bytes(good.read_bytes() + b"xx")
    with pytest.raises(FormatError, match="trailing"):
        pdtio.read_pdt(str(bad))


def test_pdt_unknown_dtype_code(tmp_path):
    bad = tmp_path / "dtype.pdt"
    bad.write_bytes(pdtio.PDT_MAGIC + bytes([9, 1, 1, 0, 0, 0]) + b"\x00" * 4)
    with pytest.raises(FormatError, match="dtype"):
        pdtio.read_pdt(str(bad))


def test_checkpoint_round_trip(tmp_path):
    rng = np.random.default_rng(1)
    tensors = {
        "layer.w": rng.standard_normal((3, 2, 3, 3)).astype(np.float32),
        "layer.b": rng.standard_normal(3).astype(np.float64),
        "meta.classes": np.asarray([5], dtype=np.int32),
    }
    path = str(tmp_path / "net.pdck")
    pdtio.write_checkpoint(path, tensors)
    back = pdtio.read_checkpoint(path)
    assert set(back) == set(tensors)
    for name, arr in tensors.items():
        assert back[name].tobytes() == arr.tobytes()
        assert back[name].dtype == arr.dtype


def test_checkpoint_bad_magic(tmp_path):
    path = tmp_path / "bad.pdck"
    path.write_bytes(b"XXXX" + b"\x00" * 8)
    with pytest.raises(FormatError, match="magic"):
        pdtio.read_checkpoint(str(path))


def test_checkpoint_truncation(tmp_path):
    path = str(tmp_path / "net.pdck")
    pdtio.write_checkpoint(path, {"w": np.ones((8, 8), dtype=np.float64)})
    data = open(path, "rb").read()
    bad = tmp_path / "trunc.pdck"
    bad.write_bytes(data[:-10])
    with pytest.raises(FormatError, match="truncated"):
        pdtio.read_checkpoint(str(bad))


def test_load_into_rejects_unknown_name():
    params = {"a": np.zeros(3)}
    with pytest.raises(FormatError, match="unknown"):
        pdtio.load_into(params, {"a": np.ones(3), "b": np.ones(2)})


def test_load_into_rejects_shape_mismatch():
    params = {"a": np.zeros((2, 2))}
    with pytest.raises(DimensionError, match="shape"):
        pdtio.load_into(params, {"a": np.ones(3)})


def test_load_into_rejects_missing_name():
    params = {"a": np.zeros(3), "b": np.zeros(2)}
    with pytest.raises(FormatError, match="missing"):
        pdtio.load_into(params, {"a": np.ones(3)})


def _two_tensor_checkpoint(tmp_path, second_name: bytes):
    """A valid checkpoint of tensors 'ab' and 'cd' with the second name's bytes replaced."""
    path = tmp_path / "net.pdck"
    pdtio.write_checkpoint(str(path), {"ab": np.ones(2), "cd": np.zeros(3)})
    data = path.read_bytes()
    at = data.rindex(b"cd")
    path.write_bytes(data[:at] + second_name + data[at + 2:])
    return str(path)


def test_checkpoint_non_utf8_name(tmp_path):
    with pytest.raises(FormatError, match="UTF-8"):
        pdtio.read_checkpoint(_two_tensor_checkpoint(tmp_path, b"\xff\xfe"))


def test_checkpoint_duplicate_name(tmp_path):
    with pytest.raises(FormatError, match="duplicate tensor 'ab'"):
        pdtio.read_checkpoint(_two_tensor_checkpoint(tmp_path, b"ab"))


def test_pdt_rank_above_limit(tmp_path):
    bad = tmp_path / "rank.pdt"
    bad.write_bytes(pdtio.PDT_MAGIC + bytes([1, 200]) + b"\x00" * 800)
    with pytest.raises(FormatError, match="rank 200"):
        pdtio.read_pdt(str(bad))


@pytest.fixture(scope="module")
def valid_files(tmp_path_factory):
    """Bytes of one valid .pdt and one valid .pdck, with the reader of each."""
    d = tmp_path_factory.mktemp("valid")
    rng = np.random.default_rng(2)
    pdtio.write_pdt(str(d / "t.pdt"), rng.standard_normal((2, 3, 4)).astype(np.float32))
    pdtio.write_checkpoint(str(d / "c.pdck"), {
        "stem.w": rng.standard_normal((4, 3, 3, 3)).astype(np.float32),
        "stem.b": np.zeros(4), "meta.classes": np.asarray([5], dtype=np.int32),
        "scalar": np.float64(1.5)})
    return {"pdt": ((d / "t.pdt").read_bytes(), pdtio.read_pdt),
            "pdck": ((d / "c.pdck").read_bytes(), pdtio.read_checkpoint)}


def _damaged(raw: bytes, data) -> bytes:
    """raw cut at a drawn length, then up to six drawn bytes overwritten."""
    buf = bytearray(raw[:data.draw(st.integers(0, len(raw)), label="cut")])
    if buf:
        edits = st.tuples(st.integers(0, len(buf) - 1), st.integers(0, 255))
        for at, byte in data.draw(st.lists(edits, max_size=6), label="edits"):
            buf[at] = byte
    return bytes(buf)


@settings(max_examples=400, deadline=None)
@given(data=st.data())
def test_damaged_files_raise_only_format_error(valid_files, tmp_path_factory, data):
    # a truncated and/or byte-mutated file either still parses or raises FormatError
    kind = data.draw(st.sampled_from(sorted(valid_files)), label="kind")
    raw, read = valid_files[kind]
    path = tmp_path_factory.getbasetemp() / f"fuzz.{kind}"
    path.write_bytes(_damaged(raw, data))
    try:
        read(str(path))
    except FormatError:
        pass


@pytest.fixture(scope="module")
def valid_dataset(tmp_path_factory):
    """The files of one valid two-scene dataset directory, by name."""
    d = tmp_path_factory.mktemp("dataset")
    scenes.save_dataset(str(d), 2, seed=3, cfg=scenes.SceneConfig(height=16, width=16,
                                                                  classes=3))
    return {p.name: p.read_bytes() for p in sorted(d.iterdir())}


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_damaged_dataset_raises_only_format_error(valid_dataset, tmp_path_factory, data):
    # with one file damaged or deleted, load_dataset either loads or raises
    # FormatError, or FileNotFoundError for a file it does not find
    d = tmp_path_factory.getbasetemp() / "fuzz_dataset"
    d.mkdir(exist_ok=True)
    for name, raw in valid_dataset.items():
        (d / name).write_bytes(raw)
    name = data.draw(st.sampled_from(sorted(valid_dataset)), label="file")
    if data.draw(st.booleans(), label="delete"):
        (d / name).unlink()
    else:
        (d / name).write_bytes(_damaged(valid_dataset[name], data))
    try:
        scenes.load_dataset(str(d))
    except (FormatError, FileNotFoundError):
        pass
