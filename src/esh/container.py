"""Framing of the binary files: .eshf features, .eshb codes, .eshm models.

A file is a 4-byte magic, a version byte, then little-endian fields and
arrays in the order its format lists them, and for a checksummed format a
CRC32 of every byte before it. Only this module reads or writes those
bytes; the loaders list their fields through Writer and Reader.
"""

import math
import os
import struct
import zlib

import numpy as np

ALIGN = 64  # the reader's buffer puts the end of the file on this boundary


class FormatError(ValueError):
    """A file does not conform to its declared format."""


class Writer:
    """A file's parts in order; fields and array return self to chain."""

    def __init__(self, magic, version):
        self.parts = [magic, bytes([version])]

    def fields(self, fmt, *values):
        self.parts.append(struct.pack("<" + fmt, *values))
        return self

    def array(self, a, dtype):
        self.parts.append(np.ascontiguousarray(a, dtype=dtype))
        return self

    def save(self, path, crc=False):
        """Write the parts (arrays without a bytes copy), then the CRC32 if asked."""
        checksum = 0
        with open(path, "wb") as f:
            for part in self.parts:
                f.write(part)
                checksum = zlib.crc32(part, checksum)
            if crc:
                f.write(struct.pack("<I", checksum))


class Reader:
    """Reads a file's fields and arrays in order, never past its end.

    Opening checks magic, then CRC (if the format has one), then version.
    Build the loaded object inside `with Reader(...) as r:`. A clean exit
    rejects unread trailing bytes; a ValueError from the object's own
    validation leaves as a FormatError naming the file.

    The file is read once into a buffer that ends on an ALIGN-byte
    boundary, so the array that ends a file (the payload of .eshf and
    .eshb) is aligned for its dtype.
    """

    def __init__(self, path, magic, version, kind, crc=False):
        self.path, self.kind = path, kind
        with open(path, "rb") as f:
            size = os.fstat(f.fileno()).st_size
            buf = np.empty(size + ALIGN, dtype=np.uint8)
            start = -(buf.ctypes.data + size) % ALIGN
            self.data = memoryview(buf)[start : start + size]
            self.data = self.data[: f.readinto(self.data)]
        self.off, self.end = len(magic), len(self.data)
        if self.data[: self.off] != magic:
            raise self.error(f"not a {kind} file (bad magic)")
        if crc:
            self.end -= 4
            stored = int.from_bytes(self.data[self.end :], "little")
            if self.end < self.off or zlib.crc32(memoryview(self.data)[: self.end]) != stored:
                raise self.error("checksum mismatch, file corrupt")
        (found,) = self.fields("B")
        if found != version:
            raise self.error(f"unsupported {kind} format version {found}")

    def error(self, message):
        return FormatError(f"{self.path}: {message}")

    def _advance(self, nbytes, what):
        if nbytes > self.end - self.off:
            raise self.error(f"truncated {what}: needs {nbytes} bytes, {self.end - self.off} left")
        self.off += nbytes
        return self.off - nbytes

    def fields(self, fmt):
        fmt = "<" + fmt
        return struct.unpack_from(fmt, self.data, self._advance(struct.calcsize(fmt), "header"))

    def shape(self, ndim):
        """ndim uint64 dimensions, each at least 1."""
        dims = self.fields("Q" * ndim)
        if min(dims) < 1:
            raise self.error(f"invalid shape {dims}")
        return dims

    def array(self, dtype, shape, writable=False):
        """A view of the next array's bytes, read-only unless writable is
        set; the buffer belongs to this reader alone, so a caller that
        keeps the array may write to it."""
        dtype, count = np.dtype(dtype), math.prod(shape)
        off = self._advance(count * dtype.itemsize, "payload")
        a = np.frombuffer(self.data, dtype, count, off).reshape(shape)
        a.flags.writeable = writable
        return a

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        if exc is None and self.off != self.end:
            raise self.error(f"{self.end - self.off} unexpected trailing bytes")
        if isinstance(exc, ValueError) and not isinstance(exc, FormatError):
            raise self.error(f"inconsistent {self.kind} contents: {exc}") from None
