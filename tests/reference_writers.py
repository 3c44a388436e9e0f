"""The byte layout of .eshf, .eshb and .eshm as hand-written writers.

These are the writers the three file formats were first defined by, kept
verbatim (only the imports are new, and save_model takes the optional
B and Z sections as arguments, since models no longer hold them) so tests
can check that the writers built on esh.container still emit the same
bytes, and that models with the legacy sections still load.
"""

import struct
import zlib

import numpy as np

from esh.dataset import FEATURE_MAGIC, FEATURE_VERSION, _validate_matrix
from esh.encoder import CODE_MAGIC, CODE_VERSION, MODEL_MAGIC, MODEL_VERSION, HashModel, PackedCodes
from esh.encoder import QUERY_MODES as _QUERY_MODES


def save_features(X, path, fmt="infer"):
    """Write a feature matrix; binary stores little-endian float32."""
    X = np.asarray(X, dtype=np.float64)
    _validate_matrix(X)
    path = str(path)
    if fmt == "infer":
        fmt = "binary" if path.endswith(".eshf") else "csv"
    if fmt == "csv":
        np.savetxt(path, X, delimiter=",", fmt="%.17g")
    elif fmt == "binary":
        n, d = X.shape
        with open(path, "wb") as f:
            f.write(FEATURE_MAGIC)
            f.write(struct.pack("<BQQ", FEATURE_VERSION, n, d))
            f.write(np.ascontiguousarray(X, dtype="<f4").tobytes())
    else:
        raise ValueError(f"unknown feature format {fmt!r}")


def _pack_matrix(M, dtype):
    M = np.ascontiguousarray(M, dtype=dtype)
    return struct.pack("<QQ", M.shape[0], M.shape[1] if M.ndim == 2 else 1) + M.tobytes()


_FLAG_B = 1
_FLAG_Z = 2


def save_model(model: HashModel, path, B=None, Z=None):
    """Serialize to the ESHM container: header, sections, CRC32 trailer.

    B (PackedCodes) and Z (SparseAffinityRows) are the training codes and
    affinity rows that older models could carry.
    """
    flags = (_FLAG_B if B is not None else 0) | (_FLAG_Z if Z is not None else 0)
    body = bytearray()
    body += MODEL_MAGIC
    body += struct.pack("<B", MODEL_VERSION)
    body += struct.pack("<B", flags)
    body += struct.pack("<B", _QUERY_MODES.index(model.query_mode))
    body += struct.pack("<QQQ", model.d, model.k, model.m)
    body += struct.pack("<d", model.sigma2)
    body += struct.pack("<Q", model.s)
    body += _pack_matrix(model.mean.reshape(1, -1), "<f4")
    body += _pack_matrix(model.std.reshape(1, -1), "<f4")
    body += _pack_matrix(model.W, "<f4")
    body += _pack_matrix(model.centers, "<f4")
    body += _pack_matrix(model.lam.reshape(1, -1), "<f8")
    body += _pack_matrix(model.vote_matrix, "<f4")
    if B is not None:
        body += struct.pack("<QQ", B.n, B.k)
        body += np.ascontiguousarray(B.words, dtype="<u8").tobytes()
    if Z is not None:
        body += struct.pack("<QQ", Z.n, Z.s)
        body += np.ascontiguousarray(Z.indices, dtype="<i8").tobytes()
        body += np.ascontiguousarray(Z.weights, dtype="<f8").tobytes()
    crc = zlib.crc32(bytes(body))
    with open(path, "wb") as f:
        f.write(bytes(body))
        f.write(struct.pack("<I", crc))


def save_codes(codes: PackedCodes, path):
    with open(path, "wb") as f:
        f.write(CODE_MAGIC)
        f.write(struct.pack("<BQQ", CODE_VERSION, codes.n, codes.k))
        f.write(np.ascontiguousarray(codes.words, dtype="<u8").tobytes())
