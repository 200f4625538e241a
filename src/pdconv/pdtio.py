"""Binary tensor (.pdt) and checkpoint (.pdck) files, little-endian throughout.

.pdt layout:  magic "PDT1", u8 dtype code (1=f32, 2=f64, 3=i32), u8 ndim,
ndim x u32 dims, raw data.

.pdck layout: magic "PDCK", u32 version, u32 tensor count, then per tensor
u16 name length, UTF-8 name, u8 dtype code, u8 ndim, ndim x u32 dims, raw
data.

All writes go through a temp file + rename so a crashed run never leaves a
truncated file that parses as valid.
"""

from __future__ import annotations

import errno
import math
import os
import stat
import struct

import numpy as np

from .errors import DimensionError, FormatError

PDT_MAGIC = b"PDT1"
PDCK_MAGIC = b"PDCK"
PDCK_VERSION = 1

_CODE_TO_DTYPE = {1: np.dtype("<f4"), 2: np.dtype("<f8"), 3: np.dtype("<i4")}
_KIND_TO_CODE = {("f", 4): 1, ("f", 8): 2, ("i", 4): 3}
_MAX_NDIM = 32  # numpy's own limit before 2.0


def _dtype_code(arr: np.ndarray) -> int:
    code = _KIND_TO_CODE.get((arr.dtype.kind, arr.dtype.itemsize))
    if code is None:
        raise FormatError(f"unsupported dtype {arr.dtype}; use f32, f64, or i32")
    return code


def atomic_write(path: str, payload: bytes) -> None:
    """Write through a temp file in path's directory, created with mode 0o666
    so that the umask sets path's mode as it would for open(); an OSError
    names path, not the temp file, and the temp file never outlives the call."""
    directory = os.path.dirname(os.path.abspath(path))
    tmp = None
    try:
        name = os.path.join(directory, f"tmp{os.urandom(8).hex()}.tmp")
        fd = os.open(name, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
        tmp = name  # so that only a file this call created is unlinked below
        with os.fdopen(fd, "wb") as f:
            f.write(payload)
        os.replace(tmp, path)
    except OSError as e:
        raise OSError(e.errno, e.strerror, path) from None
    finally:
        if tmp is not None and os.path.exists(tmp):
            os.unlink(tmp)


def check_writable(path: str) -> None:
    """Raise the OSError atomic_write would for a path of the wrong kind, writing nothing."""
    try:
        if not stat.S_ISDIR(os.stat(os.path.dirname(os.path.abspath(path))).st_mode):
            raise OSError(errno.ENOTDIR, os.strerror(errno.ENOTDIR))
        if os.path.isdir(path):
            raise OSError(errno.EISDIR, os.strerror(errno.EISDIR))
    except OSError as e:
        raise OSError(e.errno, e.strerror, path) from None


def _encode_tensor(arr: np.ndarray) -> bytes:
    code = _dtype_code(arr)
    # record rank/shape before ascontiguousarray, which promotes 0-d to (1,)
    header = struct.pack("<BB", code, arr.ndim)
    dims = struct.pack(f"<{arr.ndim}I", *arr.shape)
    data = np.ascontiguousarray(arr).astype(_CODE_TO_DTYPE[code], copy=False)
    return header + dims + data.tobytes()


class _Reader:
    def __init__(self, buf: bytes, what: str):
        self.buf = buf
        self.pos = 0
        self.what = what

    def take(self, n: int) -> bytes:
        if self.pos + n > len(self.buf):
            raise FormatError(f"truncated {self.what}: wanted {n} bytes at offset {self.pos}")
        chunk = self.buf[self.pos : self.pos + n]
        self.pos += n
        return chunk

    def unpack(self, fmt: str):
        return struct.unpack(fmt, self.take(struct.calcsize(fmt)))


def _decode_tensor(r: _Reader) -> np.ndarray:
    code, ndim = r.unpack("<BB")
    if code not in _CODE_TO_DTYPE:
        raise FormatError(f"unknown dtype code {code} in {r.what}")
    if ndim > _MAX_NDIM:
        raise FormatError(f"rank {ndim} above {_MAX_NDIM} in {r.what}")
    dims = r.unpack(f"<{ndim}I")
    dtype = _CODE_TO_DTYPE[code]
    data = r.take(math.prod(dims) * dtype.itemsize)
    try:
        return np.frombuffer(data, dtype=dtype).reshape(dims).copy()
    except ValueError:  # an empty shape whose other dims overflow numpy's size
        raise FormatError(f"shape {dims} too large in {r.what}") from None


def write_pdt(path: str, arr: np.ndarray) -> None:
    atomic_write(path, PDT_MAGIC + _encode_tensor(np.asarray(arr)))


def read_pdt(path: str) -> np.ndarray:
    with open(path, "rb") as f:
        buf = f.read()
    r = _Reader(buf, f"pdt file {path}")
    if r.take(4) != PDT_MAGIC:
        raise FormatError(f"bad magic in {path}: not a .pdt file")
    arr = _decode_tensor(r)
    if r.pos != len(buf):
        raise FormatError(f"trailing bytes in {path}")
    return arr


def write_checkpoint(path: str, tensors: dict[str, np.ndarray]) -> None:
    parts = [PDCK_MAGIC, struct.pack("<II", PDCK_VERSION, len(tensors))]
    for name, arr in tensors.items():
        encoded_name = name.encode("utf-8")
        parts.append(struct.pack("<H", len(encoded_name)))
        parts.append(encoded_name)
        parts.append(_encode_tensor(np.asarray(arr)))
    atomic_write(path, b"".join(parts))


def read_checkpoint(path: str) -> dict[str, np.ndarray]:
    with open(path, "rb") as f:
        buf = f.read()
    r = _Reader(buf, f"checkpoint {path}")
    if r.take(4) != PDCK_MAGIC:
        raise FormatError(f"bad magic in {path}: not a .pdck file")
    version, count = r.unpack("<II")
    if version != PDCK_VERSION:
        raise FormatError(f"unsupported checkpoint version {version} in {path}")
    tensors: dict[str, np.ndarray] = {}
    for _ in range(count):
        (name_len,) = r.unpack("<H")
        try:
            name = r.take(name_len).decode("utf-8")
        except UnicodeDecodeError:
            raise FormatError(f"tensor name is not UTF-8 in {path}") from None
        if name in tensors:
            raise FormatError(f"duplicate tensor {name!r} in {path}")
        tensors[name] = _decode_tensor(r)
    if r.pos != len(buf):
        raise FormatError(f"trailing bytes in {path}")
    return tensors


def load_into(params: dict[str, np.ndarray], saved: dict[str, np.ndarray]) -> None:
    """Copy saved tensors into existing parameter arrays, strictly by name.

    Values are checked here, where they enter the program: a tensor that is
    not finite in the parameter's dtype is a FormatError."""
    for name in saved:
        if name not in params:
            raise FormatError(f"checkpoint has unknown tensor {name!r}")
    for name, dst in params.items():
        if name not in saved:
            raise FormatError(f"checkpoint is missing tensor {name!r}")
        src = saved[name]
        if src.shape != dst.shape:
            raise DimensionError(
                f"checkpoint tensor {name!r} has shape {src.shape}, expected {dst.shape}"
            )
        with np.errstate(over="ignore"):  # an overflow is reported just below
            value = src.astype(dst.dtype)
        if not np.isfinite(value).all():
            raise FormatError(f"checkpoint tensor {name!r} holds non-finite values")
        dst[...] = value
