"""Float32 products whose float64 outcome is certified.

Training, linear encoding and Lloyd's assignment step read a float64
product only through a sign or an argmin. Each takes one float32 product
instead and bounds how far it can lie from the float64 value: a dot
product of length d in any order of the sums is within gamma_d sum |x_k y_k|
<= gamma_d |x| |y| of the exact one, with gamma_d = d u / (1 - d u)
(Higham 2002, 3.1), and every rounding of a factor or of a sum adds one
more unit u. What falls inside the band is recomputed in float64.

The bounds below take gamma_n <= BAND_SLACK n u, which holds while
n u <= 0.0099, and pad both norms by NORM_PAD to cover float32 underflow.
A row whose norms could overflow float32 gets an infinite band, so it is
recomputed whole and its float32 product is never read.

The module also holds what code that walks its rows a block at a time
shares: the blocks themselves, float64 gathers of rows, and per-key sums
of rows in a fixed order (segment_sums), which k-means centers, the
similarity factor and the vote matrix take.
"""

import numpy as np

BAND_SLACK = 1.01  # gamma_n = n u / (1 - n u) <= 1.01 n u while n u <= 0.0099
F32_UNIT = 2.0**-24  # unit roundoff u of float32
F64_UNIT = 2.0**-53
# g32 s >= 2^-149 sqrt(d) and g32 s^2 >= 2^-149 d for s = NORM_PAD: padding both
# norms by s adds at least 2^-149 (d + sqrt(d)(|x| + |w|)), the float32 underflow
NORM_PAD = 2.0**-60
F32_SAFE = 2.0**126  # while |x| |w| stays below this, no float32 product or sum overflows
# entries per block of rows for code that walks its input a block at a time
BLOCK_VALUES = 2**18


def block_rows(width):
    """Rows per block: about BLOCK_VALUES values of rows `width` values wide."""
    return max(1, BLOCK_VALUES // max(width, 1))


def row_blocks(n, width):
    """Slices of consecutive rows, block_rows(width) each, that together
    cover rows 0 to n."""
    rows = block_rows(width)
    return [slice(i, i + rows) for i in range(0, n, rows)]


def rows64(X, rows):
    """X[rows] as float64 for an index array `rows`, filled a few rows at a
    time: float32 rows pass through temporaries of a sixteenth of a block
    (numpy's take refuses a float64 out for float32 input)."""
    out = np.empty((len(rows), X.shape[1]))
    step = max(1, BLOCK_VALUES // (16 * max(X.shape[1], 1)))
    for i in range(0, len(rows), step):
        out[i : i + step] = X[rows[i : i + step]]
    return out


def _add_rows(rows, out):
    """out = the sum of the rows, added one at a time, first to last. Over
    more than one column np.add.reduce adds row after row; over one column
    it would sum pairwise, so that case takes the last partial sum."""
    if rows.shape[1] == 1:
        out[...] = np.add.accumulate(rows, axis=0)[-1]
    else:
        np.add.reduce(rows, axis=0, out=out)


def segment_sums(X, keys, m, weights=None):
    """Per key j in [0, m), the float64 sum of the rows of X that carry j,
    each times its weight if weights are given.

    keys and weights are (n, s): row i of X carries keys[i] with
    weights[i]. Each key's terms are added one at a time from zero, rows
    ascending, as np.add.at and a compressed sparse row or column product
    add them, so the sums are bit for bit theirs. A stable sort by key
    makes each key's terms one run. They are gathered into float64 a block
    of about BLOCK_VALUES values at a time, and the key's sum so far is
    folded into the first term of its run in the block, so that a run that
    spans blocks continues in order. A key that no row carries sums to zero.
    """
    d, s = X.shape[1], keys.shape[1]
    order = np.argsort(keys.ravel(), kind="stable")
    sorted_keys = keys.ravel()[order]
    sums = np.zeros((m, d))
    for b in row_blocks(order.size, d):
        entries, k = order[b], sorted_keys[b]
        terms = rows64(X, entries // s)
        if weights is not None:
            terms *= weights.ravel()[entries][:, None]
        first = np.flatnonzero(np.diff(k, prepend=-1))
        terms[first] += sums[k[first]]
        heads = first.tolist()
        for key, i, j in zip(k[first].tolist(), heads, heads[1:] + [k.size]):
            _add_rows(terms[i:j], sums[key])
    return sums


def norm_bounds(sq, d, dtype):
    """Upper bounds on 2-norms from sums of d squares taken at dtype's
    precision: their rounding (gamma_d) and underflow."""
    fi = np.finfo(dtype)
    sq = np.asarray(sq, dtype=np.float64)
    return np.sqrt((sq + d * float(fi.smallest_subnormal)) / (1 - d * float(fi.eps)))


def row_norm_bounds(X):
    """Upper bounds on the rows' 2-norms from a sum of squares at X's own precision."""
    with np.errstate(over="ignore"):  # an overflowing row gets inf, which callers check
        sq = np.einsum("ij,ij->i", X, X)
    return norm_bounds(sq, X.shape[1], X.dtype)


def _safe_norms(x_norms, y_norm):
    """x_norms padded by NORM_PAD, inf where |x| |y| could overflow float32."""
    x_norms = np.asarray(x_norms, dtype=np.float64) + NORM_PAD
    return np.where(np.maximum(x_norms, 1.0) * max(1.0, y_norm) < F32_SAFE, x_norms, np.inf)


def float32_signs(X, W32, x_norms, w_norm, recheck):
    """sgn(z) as int8, sgn(0) = 0, for z_ij = x_i . w_j, from one float32
    product.

    X holds the rows x_i in float32 or float64 and W32 the float32
    rounding of float64 columns w_j; x_norms (n,) or a scalar bounds the
    rows' 2-norms from above and w_norm the columns'. Y = X W32, in
    float32, then lies within

        band_i = (gamma32_{d+2} + gamma64_{d+4}) |x_i| |w|

    of z, with NORM_PAD added to |x_i| and |w|. The float32 part is the
    dot product and two float32 roundings in the factors of each of its
    terms (one each of x and w in training; two of x, its centering and
    scaling, in encoding); the float64 part any float64 rounding of order
    |x||w| in the caller's x, w or z. Entries with |Y| > band have z's
    sign. The rest take the sign of recheck(rows, cols): z, or a positive
    multiple of it, at those entries in float64.
    """
    d = X.shape[1]
    gamma = BAND_SLACK * ((d + 2) * F32_UNIT + (d + 4) * F64_UNIT)
    w_norm = float(w_norm) + NORM_PAD
    x_norms = _safe_norms(x_norms, w_norm)
    # rounded up to float32, so that the comparisons run in float32; one value per row
    band = np.nextafter((gamma * w_norm * x_norms).astype(np.float32), np.float32(np.inf))[..., None]
    with np.errstate(over="ignore", invalid="ignore"):  # only in rows of infinite band
        Y = X.astype(np.float32, copy=False) @ W32
    B = (Y > band).view(np.int8) - (Y < -band).view(np.int8)
    near = np.flatnonzero(B == 0)  # few as a rule; 2-D nonzero or a mask would cost ~10x more
    if near.size:
        rows, cols = np.divmod(near, B.shape[1])
        B.flat[near] = np.sign(recheck(rows, cols))
    return B


def float32_argmin(X32, x_sq, C, c_sq, recheck):
    """Per row, the first j that minimizes the float64 squared distance

        D_ij = max(fl(fl(x_sq_i - 2 G_ij) + c_sq_j), 0),  G_ij = x_i . c_j,

    as anchor_graph.pairwise_sq_dists computes it, from one float32 product.

    X32 is the float32 rounding of float64 rows x_i, or the float32 rows
    themselves, whose squared norms x_sq were summed in float64; C holds
    float64 centers c_j and c_sq their squared norms, summed the same way.
    x_sq_i cancels within a row, so the kernel compares E_ij =
    float32(c_sq_j) + X32 (-2 C)^T in float32. With a = |x_i| and
    b = max_j |c_j|, both padded, E_ij lies within

        band_i = (gamma32_{d+4} + gamma64_{d+3}) 2ab + (2 u32 + u64) max_j c_sq_j
                 + 2 u64 x_sq_i

    of D_ij - x_sq_i before the clip: the float32 part is the product with
    the roundings of x, c and c_sq and the sum E, the float64 part is G's
    dot product and D's two sums. A row whose two least E differ by more
    than 2 band_i, and whose runner-up distance x_sq_i + E - band_i is
    above zero, where the clip could tie it with the least, has a strict
    float64 minimum at the least E. The other rows take the argmin of
    recheck(rows), their float64 distances. Where two of a row's float64
    distances lie within the rounding of another order of the sums, the
    BLAS call's blocking picks the argmin, in recheck as in one product
    over all rows.
    """
    n, d = X32.shape
    x_norms = norm_bounds(x_sq, d, np.float64)
    c_norm = float(norm_bounds(c_sq, d, np.float64).max()) + NORM_PAD
    c_top = float(np.max(c_sq))
    gamma = 2 * BAND_SLACK * ((d + 4) * F32_UNIT + (d + 3) * F64_UNIT)
    x_norms = _safe_norms(x_norms, 2 * c_norm) if c_top < F32_SAFE else np.full(n, np.inf)
    band = (gamma * c_norm) * x_norms
    band += BAND_SLACK * ((2 * F32_UNIT + F64_UNIT) * c_top + 2 * F64_UNIT * x_sq)
    with np.errstate(over="ignore", invalid="ignore"):  # only in rows of infinite band
        E = X32 @ (-2.0 * C).astype(np.float32).T
        E += c_sq.astype(np.float32)
    best = E.argmin(axis=1)
    rows = np.arange(n)
    least = E[rows, best].astype(np.float64)
    E[rows, best] = np.inf
    runner_up = E.min(axis=1).astype(np.float64)
    # NaN compares False, so a row with one goes to recheck too
    sure = (runner_up - least > 2 * band) & (x_sq + runner_up > band)
    redo = np.flatnonzero(~sure)
    if redo.size:
        best[redo] = recheck(redo).argmin(axis=1)
    return best
