"""Binary codes and the trained hash model.

Codes are +-1 bit vectors packed little-endian into uint64 words: bit j of
a sample lands in word j >> 6 at position j & 63, set iff the bit is +1.
Padding bits in the last word stay zero.

A HashModel bundles everything needed to hash a new vector: the
standardization stats, the projection W, and the anchor machinery for
graph-based out-of-sample extension. Its matrices are float64 holding
values that float32 represents exactly: build_hash_model rounds each
through float32 once, the file stores them as float32, and load_model
widens them again, so a save/load round trip is bit-exact and the
encoders compute with the matrices the model holds.

Linear encoding reads the rows at their stored precision. A block of
rows is standardized at that precision (float32 rows in float32, where
the stats are exact, others in float64) and costs one float32 product
with W. kernels.float32_signs bounds that product's rounding error by
|xs| |w|; entries inside the bound are recomputed as
((x - mean) / std) . w in float64, so every sign is that of the float64
projection, and zero still gives +1. (Where that projection is within
float64 rounding of zero, its sign depends on the order of the sums.)
Graph encoding also goes a block of rows at a time: each block is
standardized in float64, takes its float64 distances to the anchors,
whose squared norms are reused, and votes with its s nearest, chosen as
anchor_graph.anchor_weights chooses them for Z.
"""

from dataclasses import dataclass, replace
from functools import cached_property, partial

import numpy as np

from .anchor_graph import AnchorSet, SparseAffinityRows, anchor_weights
from .container import FormatError, Reader, Writer  # noqa: F401 - esh.encoder.FormatError
from .dataset import STD_FLOOR, FeatureFile, apply_standardization
from .kernels import block_rows, float32_signs, row_blocks, row_norm_bounds, segment_sums

CODE_MAGIC = b"ESHB"
CODE_VERSION = 1
MODEL_MAGIC = b"ESHM"
MODEL_VERSION = 1

QUERY_MODES = ("graph", "linear")


@dataclass(frozen=True, eq=False)
class PackedCodes:
    """n binary codes of k bits each, packed into (n, ceil(k/64)) uint64.

    == is identity; compare the fields with np.array_equal."""

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
    """Pack a (n, k) matrix of +-1 (or {0,1}, or bool) values into PackedCodes."""
    on = np.asarray(bits) > 0
    if on.ndim != 2:
        raise ValueError("expected an (n, k) bit matrix")
    n, k = on.shape
    octets = np.zeros((n, 8 * ((k + 63) >> 6)), dtype=np.uint8)
    octets[:, : (k + 7) >> 3] = np.packbits(on, axis=1, bitorder="little")
    return PackedCodes(n=n, k=k, words=octets.view("<u8").astype(np.uint64, copy=False))


def unpack_codes(codes: PackedCodes):
    """Back to a (n, k) int8 matrix of +-1 values."""
    octets = np.ascontiguousarray(codes.words, dtype="<u8").view(np.uint8)
    on = np.unpackbits(octets, axis=1, count=codes.k, bitorder="little")
    return on.view(np.int8) * 2 - 1


@dataclass(frozen=True, eq=False)
class HashModel:
    """A trained hasher plus its out-of-sample machinery.

    mean, std (d,), W (d, k) and vote_matrix (k, m) are float64 holding
    values that float32 represents exactly, as the file stores them, and
    so are the anchors' centers (m, d); other values are refused. lam (m,)
    is float64 as it is.
    vote_matrix is B^T Z diag(lam)^{-1}, precomputed so a graph-mode query
    costs the kernel weights of its s nearest anchors and one (k, m) @ (m,)
    product. Queries never need the training codes B or affinity rows Z,
    so the model holds neither. query_mode is the default for queries
    ('graph' or 'linear'). == is identity; compare the fields with
    np.array_equal.
    """

    mean: np.ndarray
    std: np.ndarray
    W: np.ndarray
    anchors: AnchorSet
    lam: np.ndarray
    vote_matrix: np.ndarray
    query_mode: str = "graph"

    def __post_init__(self):
        d, k = self.W.shape
        m = self.anchors.m
        if self.mean.shape != (d,) or self.std.shape != (d,):
            raise ValueError("standardization stats do not match W")
        if self.anchors.centers.shape != (m, d):
            raise ValueError("anchor centers do not match W")
        if self.lam.shape != (m,) or self.vote_matrix.shape != (k, m):
            raise ValueError("anchor mass / vote matrix shapes inconsistent")
        if self.query_mode not in QUERY_MODES:
            raise ValueError(f"unknown query mode {self.query_mode!r}")
        for name, M in (("mean", self.mean), ("std", self.std), ("W", self.W),
                        ("centers", self.anchors.centers), ("lam", self.lam),
                        ("vote_matrix", self.vote_matrix)):
            if not np.all(np.isfinite(M)):
                raise ValueError(f"{name} has non-finite entries")
            with np.errstate(over="ignore"):  # a value beyond float32 range is inexact too
                if name != "lam" and not np.array_equal(M, M.astype(np.float32)):
                    raise ValueError(f"{name} holds values that float32 cannot represent")
        if np.any(self.std <= 0):
            raise ValueError("std entries must be positive")

    @property
    def d(self):
        return self.W.shape[0]

    @property
    def k(self):
        return self.W.shape[1]

    @property
    def m(self):
        return self.anchors.m

    # derived once per instance; replace() and load_model build new
    # instances, so neither outlives W
    @cached_property
    def _W32(self):
        """W in float32, exactly, for float32_signs' product."""
        return self.W.astype(np.float32)

    @cached_property
    def _w_norm(self):
        """The largest column norm of W, for the sign band."""
        return float(np.sqrt(np.einsum("ij,ij->j", self.W, self.W).max()))

    def _rows(self, X_raw):
        """X_raw as rows; both encoders reject rows not d wide, even none."""
        X = np.atleast_2d(X_raw)
        if X.shape[-1] != self.d:
            raise ValueError(f"dimension mismatch: got {X.shape[-1]}, stats have {self.d}")
        return X

    def _standardized(self, X_raw):
        """Standardized rows; both encoders reject what is not finite."""
        Xs = apply_standardization(np.atleast_2d(X_raw), self)
        if not np.all(np.isfinite(Xs)):
            raise ValueError("query contains non-finite values after standardization")
        return Xs

    def _projected(self, X, rows, cols):
        """Entries (rows, cols) of ((X - mean) / std) W in float64, from one
        product over the distinct rows they lie in."""
        hit = np.zeros(X.shape[0], dtype=bool)
        hit[rows] = True
        slot = np.cumsum(hit) - 1  # a row's place among the distinct ones
        return (self._standardized(X[hit]) @ self.W)[slot[rows], cols]

    def encode_linear(self, X_raw):
        """sgn of the standardized projection; ties at zero become +1.

        Rows go through in blocks of BLOCK_VALUES entries,
        standardized in float32 if they are float32 and in float64
        otherwise. A block costs one float32 product with W; rows that
        float32_signs rechecks are standardized again in float64.
        """
        X = self._rows(X_raw)
        on = np.empty((X.shape[0], self.k), dtype=bool)
        for b in row_blocks(*X.shape):
            block = X[b]
            dtype = np.float32 if block.dtype == np.float32 else np.float64
            with np.errstate(over="ignore"):  # a row that overflows gets inf, checked below
                xs = np.subtract(block, self.mean, dtype=dtype)
                np.divide(xs, self.std, out=xs, dtype=dtype)
            x_norms = row_norm_bounds(xs)
            bad = ~np.isfinite(x_norms)
            if bad.any():
                # raises on rows that are not finite; the rest are huge and rechecked whole
                self._standardized(block[bad])
            B = float32_signs(xs, self._W32, x_norms, self._w_norm, partial(self._projected, block))
            on[b] = B >= 0
        return pack_codes(on)

    def encode_graph(self, X_raw):
        """Out-of-sample codes by anchor vote: sgn(vote_matrix @ z).

        z is the same kernel row Z would hold for this point, so a training
        sample gets (numerically) the code its neighbors voted for. Ties at
        zero become +1. Rows go through in blocks of about BLOCK_VALUES
        standardized values and distances, each standardized in float64.
        """
        X = self._rows(X_raw)
        on = np.empty((X.shape[0], self.k), dtype=bool)
        for b in row_blocks(X.shape[0], self.d + self.m):
            idx, w = anchor_weights(self._standardized(X[b]), self.anchors)
            on[b] = np.einsum("kqs,qs->qk", self.vote_matrix[:, idx], w) >= 0
        return pack_codes(on)

    def encode(self, X_raw, mode=None):
        """Codes of X_raw's rows in `mode` (default: the model's query mode).

        X_raw is an array of rows, or a FeatureFile, encoded as it is read
        in the blocks that the mode's encoder cuts from the whole array,
        so the codes are the same either way.
        """
        mode = self.query_mode if mode is None else mode
        if mode not in QUERY_MODES:
            raise ValueError(f"unknown query mode {mode!r}")
        encode = self.encode_linear if mode == "linear" else self.encode_graph
        if not isinstance(X_raw, FeatureFile):
            return encode(X_raw)
        # graph blocks hold each row's m anchor distances beside it
        rows = block_rows(self.d + self.m if mode == "graph" else self.d)
        words = [encode(X).words for X in X_raw.blocks(rows)]
        return PackedCodes(n=sum(map(len, words)), k=self.k, words=np.concatenate(words))


def build_hash_model(stats, W, anchors: AnchorSet, Z: SparseAffinityRows, X_raw,
                     query_mode="graph"):
    """Assemble a HashModel from trained pieces; the anchors' mass lam is
    Z's (SparseAffinityRows.lam).

    The stats, W, the centers and the vote matrix are each rounded
    through float32 once, as the file stores them. Database codes B are
    the model's own linear encoding of the training set X_raw (an array,
    or a FeatureFile read a block at a time), computed after that
    rounding so that what the model stores and what it would re-encode
    agree exactly. The vote matrix is accumulated in float64, per anchor
    over the rows in ascending order (kernels.segment_sums), and rounded
    last. The model keeps neither B nor Z, as a query needs only the vote
    matrix; B is returned beside it.

    A column whose training std sits at STD_FLOOR is constant, so its
    standardized training values are (near) 0. It gets a zero row of W and
    a std of 1, and whatever a later row holds there leaves its codes as
    they are.
    """
    def rounded(M):
        return np.asarray(M, dtype=np.float32).astype(np.float64)

    flat = stats.std <= STD_FLOOR
    model = HashModel(
        mean=rounded(stats.mean),
        std=rounded(np.where(flat, 1.0, stats.std)),
        W=rounded(np.where(flat[:, None], 0.0, W)),
        anchors=AnchorSet(centers=rounded(anchors.centers), sigma2=anchors.sigma2, s=anchors.s),
        lam=Z.lam,
        vote_matrix=np.zeros((W.shape[1], anchors.m)),
        query_mode=query_mode,
    )
    codes = model.encode(X_raw, mode="linear")
    B = unpack_codes(codes)  # (n, k) int8 of +-1
    vote = segment_sums(B, Z.indices, Z.m, Z.weights).T / Z.lam[None, :]
    return replace(model, vote_matrix=rounded(vote)), codes


def _pack_matrix(w, M, dtype):
    return w.fields("QQ", *M.shape).array(M, dtype)


def _unpack_matrix(r, dtype):
    return np.array(r.array(dtype, r.fields("QQ")), dtype=np.float64)


def _unpack_words(r, n, k):
    return np.array(r.array("<u8", (n, (k + 63) >> 6)))


_MATRIX_DTYPES = ("<f4", "<f4", "<f4", "<f4", "<f8", "<f4")  # mean, std, W, centers, lam, vote


def save_model(model: HashModel, path):
    """Serialize to the ESHM container: header with flags 0, six matrices, CRC32."""
    a = model.anchors
    w = Writer(MODEL_MAGIC, MODEL_VERSION).fields(
        "BBQQQdQ", 0, QUERY_MODES.index(model.query_mode),
        model.d, model.k, model.m, a.sigma2, a.s)
    matrices = (model.mean.reshape(1, -1), model.std.reshape(1, -1), model.W,
                a.centers, model.lam.reshape(1, -1), model.vote_matrix)
    for M, dtype in zip(matrices, _MATRIX_DTYPES):
        _pack_matrix(w, M, dtype)
    w.save(path, crc=True)


def load_model(path):
    """Read an .eshm as save_model writes it: a nonzero flags byte is an error."""
    with Reader(path, MODEL_MAGIC, MODEL_VERSION, "model", crc=True) as r:
        flags, mode = r.fields("BB")
        if flags:
            raise r.error(f"unknown flag bits {flags:#04x}")
        if mode >= len(QUERY_MODES):
            raise r.error(f"unknown query mode byte {mode}")
        d, k, m = r.shape(3)
        sigma2, s = r.fields("dQ")
        mean, std, W, centers, lam, vote = [_unpack_matrix(r, dt) for dt in _MATRIX_DTYPES]
        return HashModel(
            mean=mean.reshape(-1), std=std.reshape(-1), W=W.reshape(d, k),
            anchors=AnchorSet(centers=centers.reshape(m, d), sigma2=sigma2, s=s),
            lam=lam.reshape(-1), vote_matrix=vote.reshape(k, m), query_mode=QUERY_MODES[mode],
        )


def save_codes(codes: PackedCodes, path):
    """Write an .eshb; n and k must be at least 1, as load_codes requires."""
    if codes.n < 1 or codes.k < 1:
        raise ValueError(f"codes need at least one sample and one bit, got n={codes.n}, k={codes.k}")
    w = Writer(CODE_MAGIC, CODE_VERSION).fields("QQ", codes.n, codes.k)
    w.array(codes.words, "<u8").save(path)


def load_codes(path):
    with Reader(path, CODE_MAGIC, CODE_VERSION, "code") as r:
        n, k = r.shape(2)
        return PackedCodes(n=n, k=k, words=_unpack_words(r, n, k))

