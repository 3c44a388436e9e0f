"""Binary codes and the trained hash model.

Codes are +-1 bit vectors packed little-endian into uint64 words: bit j of
a sample lands in word j >> 6 at position j & 63, set iff the bit is +1.
Padding bits in the last word stay zero.

A HashModel bundles everything needed to hash a new vector: the
standardization stats, the projection W, and the anchor machinery for
graph-based out-of-sample extension. Matrices are held as float32 (the
on-disk precision) so a save/load round trip is bit-exact; training math
stays float64 up to the point the model is assembled.
"""

import struct
import zlib
from dataclasses import dataclass, replace

import numpy as np

from .anchor_graph import AnchorSet, SparseAffinityRows, anchor_weights
from .dataset import FormatError, StandardizationStats, apply_standardization
from .optimizer import sgn

CODE_MAGIC = b"ESHB"
CODE_VERSION = 1
MODEL_MAGIC = b"ESHM"
MODEL_VERSION = 1

_QUERY_MODES = ("graph", "linear")


@dataclass(frozen=True)
class PackedCodes:
    """n binary codes of k bits each, packed into (n, ceil(k/64)) uint64."""

    n: int
    k: int
    words: np.ndarray

    def __post_init__(self):
        w = (self.k + 63) >> 6
        if self.words.shape != (self.n, w) or self.words.dtype != np.uint64:
            raise ValueError(f"words must be uint64 of shape ({self.n}, {w})")
        if self.k & 63:
            # padding must be clean or Hamming distances drift
            mask = np.uint64((1 << (self.k & 63)) - 1)
            if np.any(self.words[:, -1] & ~mask):
                raise ValueError("padding bits in final word are set")

    @property
    def n_words(self):
        return self.words.shape[1]


def pack_codes(bits):
    """Pack a (n, k) matrix of +-1 (or {0,1}) values into PackedCodes."""
    bits = np.asarray(bits)
    if bits.ndim != 2:
        raise ValueError("expected an (n, k) bit matrix")
    n, k = bits.shape
    on = (bits > 0).astype(np.uint64)
    w = (k + 63) >> 6
    padded = np.zeros((n, w * 64), dtype=np.uint64)
    padded[:, :k] = on
    shifts = np.arange(64, dtype=np.uint64)
    words = (padded.reshape(n, w, 64) << shifts).sum(axis=2, dtype=np.uint64)
    return PackedCodes(n=n, k=k, words=words)


def unpack_codes(codes: PackedCodes):
    """Back to a (n, k) int8 matrix of +-1 values."""
    shifts = np.arange(64, dtype=np.uint64)
    bits = (codes.words[:, :, None] >> shifts) & np.uint64(1)
    flat = bits.reshape(codes.n, codes.n_words * 64)[:, : codes.k]
    return (flat.astype(np.int8) * 2 - 1).astype(np.int8)


def encode_train(X, W):
    """B = sgn(XW) packed; zeros become +1. X must already be standardized."""
    X = np.asarray(X, dtype=np.float64)
    W = np.asarray(W, dtype=np.float64)
    if X.ndim != 2 or W.ndim != 2 or X.shape[1] != W.shape[0]:
        raise ValueError(f"cannot project {X.shape} features through {W.shape}")
    return pack_codes(sgn(X @ W, zero_rule="one"))


@dataclass(frozen=True)
class HashModel:
    """A trained hasher plus its out-of-sample machinery.

    vote_matrix is B^T Z diag(lam)^{-1}, precomputed so a graph-mode query
    costs one sparse kernel row and one (k, m) @ (m,) product. The training
    codes B and affinity rows Z can optionally be retained (the vote matrix
    is then recomputable from them); queries never need them.
    query_mode is the default for queries ('graph' or 'linear').
    """

    mean: np.ndarray  # (d,) float32
    std: np.ndarray  # (d,) float32
    W: np.ndarray  # (d, k) float32
    centers: np.ndarray  # (m, d) float32
    sigma2: float
    s: int
    lam: np.ndarray  # (m,) float64
    vote_matrix: np.ndarray  # (k, m) float32
    query_mode: str = "graph"
    B: object = None  # PackedCodes when retained
    Z: object = None  # SparseAffinityRows when retained

    def __post_init__(self):
        d, k = self.W.shape
        m = self.centers.shape[0]
        if self.mean.shape != (d,) or self.std.shape != (d,):
            raise ValueError("standardization stats do not match W")
        if self.centers.shape != (m, d):
            raise ValueError("anchor centers do not match W")
        if self.lam.shape != (m,) or self.vote_matrix.shape != (k, m):
            raise ValueError("anchor mass / vote matrix shapes inconsistent")
        if self.query_mode not in _QUERY_MODES:
            raise ValueError(f"unknown query mode {self.query_mode!r}")
        if not self.sigma2 > 0:
            raise ValueError("sigma2 must be positive")
        if not 1 <= self.s <= m:
            raise ValueError("s must be in [1, m]")
        if self.B is not None and self.B.k != k:
            raise ValueError("retained codes have the wrong bit width")
        if self.Z is not None and self.Z.m != m:
            raise ValueError("retained affinity rows do not match the anchors")
        if self.B is not None and self.Z is not None and self.B.n != self.Z.n:
            raise ValueError("retained codes and affinity rows disagree on n")

    @property
    def d(self):
        return self.W.shape[0]

    @property
    def k(self):
        return self.W.shape[1]

    @property
    def m(self):
        return self.centers.shape[0]

    def _stats(self):
        return StandardizationStats(
            mean=self.mean.astype(np.float64), std=self.std.astype(np.float64)
        )

    def _anchors(self):
        return AnchorSet(
            centers=self.centers.astype(np.float64), sigma2=self.sigma2, s=self.s
        )

    def _standardized(self, X_raw):
        """Standardized rows; both encoders reject what is not finite."""
        Xs = apply_standardization(np.atleast_2d(X_raw), self._stats())
        if not np.all(np.isfinite(Xs)):
            raise ValueError("query contains non-finite values after standardization")
        return Xs

    def encode_linear(self, X_raw):
        """sgn of the standardized projection; ties at zero become +1."""
        Xs = self._standardized(X_raw)
        bits = sgn(Xs @ self.W.astype(np.float64), zero_rule="one")
        return pack_codes(bits)

    def encode_graph(self, X_raw):
        """Out-of-sample codes by anchor vote: sgn(vote_matrix @ z).

        z is the same kernel row Z would hold for this point, so a training
        sample gets (numerically) the code its neighbors voted for.
        """
        Xs = self._standardized(X_raw)
        idx, w = anchor_weights(Xs, self._anchors())
        V = self.vote_matrix.astype(np.float64)
        scores = np.einsum("kqs,qs->qk", V[:, idx], w)
        bits = sgn(scores, zero_rule="one")
        return pack_codes(bits)

    def encode(self, X_raw, mode=None):
        mode = self.query_mode if mode is None else mode
        if mode == "linear":
            return self.encode_linear(X_raw)
        if mode == "graph":
            return self.encode_graph(X_raw)
        raise ValueError(f"unknown query mode {mode!r}")


def build_hash_model(stats, W, anchors: AnchorSet, Z: SparseAffinityRows, lam,
                     X_raw, query_mode="graph", retain_train=False):
    """Assemble a HashModel from trained pieces.

    Database codes B are the model's own linear encoding of the training
    set, computed after the float32 cast so that what the model stores and
    what it would re-encode agree exactly. The vote matrix is accumulated
    in float64 and cast last. retain_train keeps B and Z on the model (and
    in its file) for later inspection.
    """
    model = HashModel(
        mean=stats.mean.astype(np.float32),
        std=stats.std.astype(np.float32),
        W=np.asarray(W, dtype=np.float32),
        centers=anchors.centers.astype(np.float32),
        sigma2=float(anchors.sigma2),
        s=int(anchors.s),
        lam=np.asarray(lam, dtype=np.float64),
        vote_matrix=np.zeros((W.shape[1], anchors.m), dtype=np.float32),
        query_mode=query_mode,
    )
    codes = model.encode_linear(X_raw)
    B = unpack_codes(codes).astype(np.float64)  # (n, k) of +-1
    vote = (Z.to_csr().T @ B).T / np.asarray(lam, dtype=np.float64)[None, :]  # (k, m)
    model = replace(
        model,
        vote_matrix=vote.astype(np.float32),
        B=codes if retain_train else None,
        Z=Z if retain_train else None,
    )
    return model, codes


def _pack_matrix(M, dtype):
    M = np.ascontiguousarray(M, dtype=dtype)
    return struct.pack("<QQ", M.shape[0], M.shape[1] if M.ndim == 2 else 1) + M.tobytes()


def _unpack_matrix(buf, off, dtype, itemsize):
    if off + 16 > len(buf):
        raise FormatError("truncated matrix header")
    r, c = struct.unpack_from("<QQ", buf, off)
    off += 16
    nbytes = r * c * itemsize
    if off + nbytes > len(buf):
        raise FormatError("truncated matrix payload")
    M = np.frombuffer(buf[off : off + nbytes], dtype=dtype).reshape(r, c)
    return M, off + nbytes


_FLAG_B = 1
_FLAG_Z = 2


def save_model(model: HashModel, path):
    """Serialize to the ESHM container: header, sections, CRC32 trailer."""
    flags = (_FLAG_B if model.B is not None else 0) | (_FLAG_Z if model.Z is not None else 0)
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
    if model.B is not None:
        body += struct.pack("<QQ", model.B.n, model.B.k)
        body += np.ascontiguousarray(model.B.words, dtype="<u8").tobytes()
    if model.Z is not None:
        body += struct.pack("<QQ", model.Z.n, model.Z.s)
        body += np.ascontiguousarray(model.Z.indices, dtype="<i8").tobytes()
        body += np.ascontiguousarray(model.Z.weights, dtype="<f8").tobytes()
    crc = zlib.crc32(bytes(body))
    with open(path, "wb") as f:
        f.write(bytes(body))
        f.write(struct.pack("<I", crc))


def load_model(path):
    with open(path, "rb") as f:
        data = f.read()
    if len(data) < 4 + 3 + 24 + 8 + 8 + 4 or data[:4] != MODEL_MAGIC:
        raise FormatError(f"{path}: not a model file")
    body, trailer = data[:-4], data[-4:]
    (crc,) = struct.unpack("<I", trailer)
    if zlib.crc32(body) != crc:
        raise FormatError(f"{path}: checksum mismatch, file corrupt")
    off = 4
    version = body[off]
    off += 1
    if version != MODEL_VERSION:
        raise FormatError(f"{path}: unsupported model version {version}")
    flags = body[off]
    off += 1
    mode_idx = body[off]
    off += 1
    if mode_idx >= len(_QUERY_MODES):
        raise FormatError(f"{path}: unknown query mode byte {mode_idx}")
    d, k, m = struct.unpack_from("<QQQ", body, off)
    off += 24
    (sigma2,) = struct.unpack_from("<d", body, off)
    off += 8
    (s,) = struct.unpack_from("<Q", body, off)
    off += 8
    mean, off = _unpack_matrix(body, off, "<f4", 4)
    std, off = _unpack_matrix(body, off, "<f4", 4)
    W, off = _unpack_matrix(body, off, "<f4", 4)
    centers, off = _unpack_matrix(body, off, "<f4", 4)
    lam, off = _unpack_matrix(body, off, "<f8", 8)
    vote, off = _unpack_matrix(body, off, "<f4", 4)
    B = Zrows = None
    if flags & _FLAG_B:
        if off + 16 > len(body):
            raise FormatError(f"{path}: truncated code section")
        bn, bk = struct.unpack_from("<QQ", body, off)
        off += 16
        w = (bk + 63) >> 6
        nbytes = bn * w * 8
        if off + nbytes > len(body):
            raise FormatError(f"{path}: truncated code words")
        words = np.frombuffer(body[off : off + nbytes], dtype="<u8").reshape(bn, w)
        off += nbytes
        B = PackedCodes(n=int(bn), k=int(bk), words=words.astype(np.uint64))
    if flags & _FLAG_Z:
        if off + 16 > len(body):
            raise FormatError(f"{path}: truncated affinity section")
        zn, zs = struct.unpack_from("<QQ", body, off)
        off += 16
        nidx, nwts = zn * zs * 8, zn * zs * 8
        if off + nidx + nwts > len(body):
            raise FormatError(f"{path}: truncated affinity rows")
        idx = np.frombuffer(body[off : off + nidx], dtype="<i8").reshape(zn, zs)
        off += nidx
        wts = np.frombuffer(body[off : off + nwts], dtype="<f8").reshape(zn, zs)
        off += nwts
        Zrows = SparseAffinityRows(indices=idx.astype(np.int64), weights=np.array(wts), m=int(m))
    if off != len(body):
        raise FormatError(f"{path}: {len(body) - off} unexpected trailing bytes")
    try:
        return HashModel(
            mean=np.array(mean).reshape(-1),
            std=np.array(std).reshape(-1),
            W=np.array(W).reshape(d, k),
            centers=np.array(centers).reshape(m, d),
            sigma2=float(sigma2),
            s=int(s),
            lam=np.array(lam).reshape(-1),
            vote_matrix=np.array(vote).reshape(k, m),
            query_mode=_QUERY_MODES[mode_idx],
            B=B,
            Z=Zrows,
        )
    except ValueError as e:
        raise FormatError(f"{path}: inconsistent model contents: {e}") from None


def save_codes(codes: PackedCodes, path):
    with open(path, "wb") as f:
        f.write(CODE_MAGIC)
        f.write(struct.pack("<BQQ", CODE_VERSION, codes.n, codes.k))
        f.write(np.ascontiguousarray(codes.words, dtype="<u8").tobytes())


def load_codes(path):
    with open(path, "rb") as f:
        data = f.read()
    if len(data) < 21 or data[:4] != CODE_MAGIC:
        raise FormatError(f"{path}: not a code file")
    version = data[4]
    if version != CODE_VERSION:
        raise FormatError(f"{path}: unsupported code format version {version}")
    n, k = struct.unpack_from("<QQ", data, 5)
    w = (k + 63) >> 6
    payload = data[21:]
    if len(payload) != n * w * 8:
        raise FormatError(f"{path}: payload holds {len(payload)} bytes, expected {n * w * 8}")
    words = np.frombuffer(payload, dtype="<u8").reshape(n, w).astype(np.uint64)
    return PackedCodes(n=int(n), k=int(k), words=words)


def codes_to_csv(codes: PackedCodes, path):
    """Debug export: one row of +-1 per sample."""
    np.savetxt(path, unpack_codes(codes), delimiter=",", fmt="%d")
