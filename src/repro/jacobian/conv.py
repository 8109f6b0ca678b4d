"""Transposed Jacobian of 2-D convolution, generated analytically in CSR.

For ``out(o,p,q) = Σ_{c,u,v} W[o,c,u,v] · in(c, p·s+u−pad, q·s+v−pad)``
the Jacobian entry is ``∂out(o,p,q)/∂in(c,i,j) = W[o,c,u,v]`` whenever
``i = p·s+u−pad`` and ``j = q·s+v−pad`` land inside the image.  The
transposed Jacobian therefore has rows indexed by input positions and
columns by output positions, with values read straight off the filter —
*no data-dependent entries*, which is why the paper can generate it
analytically and reuse its sparsity pattern across iterations
(Section 3.4, Algorithms 2–4).  It also means a pruned filter tap
prunes every Jacobian entry it would fill (Section 4.2).

Two generators are provided:

* :func:`conv2d_tjac` — the exact generator for any square kernel,
  stride and padding, used everywhere a conv Jacobian is built.  It
  stores only live entries: taps whose weight is nonzero, at the
  output positions they reach inside the image.  Dense weights give
  every reachable entry; pruned weights give none for a zero tap;
* :func:`conv3x3p1_tjac_paper` — the paper's Algorithms 2–4 layout for
  the 3×3 / padding-1 / stride-1 case, which keeps 6·co or 9·co
  structural entries per row (left/right image borders keep wrapped
  column indices with explicit zero values, the paper's "fix corner
  cases" step).  On dense weights both yield identical dense matrices.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.sparse import CSRMatrix


def conv_output_hw(
    hi: int, wi: int, kernel: int, stride: int, padding: int
) -> Tuple[int, int]:
    """Spatial output size of a square-kernel convolution."""
    ho = (hi + 2 * padding - kernel) // stride + 1
    wo = (wi + 2 * padding - kernel) // stride + 1
    return ho, wo


def conv2d_tjac(
    weight: np.ndarray,
    input_hw: Tuple[int, int],
    stride: int = 1,
    padding: int = 0,
) -> CSRMatrix:
    """Exact transposed Jacobian of conv2d, shape (ci·hi·wi, co·ho·wo).

    Stores one entry per nonzero filter tap ``W[o,c,u,v]`` and output
    position ``(p, q)`` its input coordinate lands inside the image, so
    zero (pruned) taps cost nothing.  Fully vectorized: the in-image
    positions of every kernel cell are enumerated once, each tap is
    paired with its cell's run of them, and the entries are assembled
    with a single COO→CSR conversion (whose sort makes the layout
    independent of enumeration order).
    """
    weight = np.asarray(weight)
    co, ci, kh, kw = weight.shape
    if kh != kw:
        raise ValueError("only square kernels supported")
    hi, wi = input_hw
    ho, wo = conv_output_hw(hi, wi, kh, stride, padding)
    if ho <= 0 or wo <= 0:
        raise ValueError("kernel larger than padded input")

    # Spatial structure shared by all (o, c) channel pairs, over the
    # axes (u, v, p, q): flat input and output positions of each kernel
    # cell's in-image entries, in cell-major order.
    u = np.arange(kh)[:, None, None, None]
    v = np.arange(kw)[None, :, None, None]
    p = np.arange(ho)[None, None, :, None]
    q = np.arange(wo)[None, None, None, :]
    i = p * stride + u - padding  # (kh, 1, ho, 1)
    j = q * stride + v - padding  # (1, kw, 1, wo)
    valid = (i >= 0) & (i < hi) & (j >= 0) & (j < wi)
    in_pos = (i * wi + j)[valid]
    out_pos = np.broadcast_to(p * wo + q, valid.shape)[valid]
    per_cell = valid.reshape(kh * kw, -1).sum(axis=1)
    cell_start = np.cumsum(per_cell) - per_cell

    # Pair each live tap with its kernel cell's run of positions.
    o, c, tu, tv = np.nonzero(weight)
    cell = tu * kw + tv
    counts = per_cell[cell]
    tap_start = np.cumsum(counts) - counts
    spot = np.arange(counts.sum()) + np.repeat(cell_start[cell] - tap_start, counts)
    rows = np.repeat(c * (hi * wi), counts) + in_pos[spot]
    cols = np.repeat(o * (ho * wo), counts) + out_pos[spot]
    vals = np.repeat(weight[o, c, tu, tv], counts).astype(np.float64)
    return CSRMatrix.from_coo(
        rows, cols, vals, (ci * hi * wi, co * ho * wo), sum_duplicates=False
    )


def conv3x3p1_tjac_paper(
    weight: np.ndarray, input_hw: Tuple[int, int]
) -> CSRMatrix:
    """The paper's Algorithms 2–4 for the 3×3 / pad-1 / stride-1 conv.

    Row ``i`` (input channel ``m = i // (hi·wi)``, spatial ``r``) stores,
    per output channel ``j``, one entry per kernel cell of the rows of
    the 180°-flipped filter that overlap vertically:

    * top image row (``r < wi``): kernel rows {1, 2} → 6·co entries;
    * bottom image row (``r ≥ wi·(hi−1)``): kernel rows {0, 1} → 6·co;
    * interior: all three kernel rows → 9·co entries,

    for a total nnz of ``3·wi·(3·hi−2)·ci·co`` (Table 1's numerator).
    Horizontal borders are *not* trimmed: the paper's modular index
    arithmetic keeps the structural entry with a wrapped column index
    and zeroes its value ("fix corner cases", Algorithm 4 line 6).

    Notes on fidelity: the paper's pseudocode has two off-by-one quirks
    (Algorithm 2 line 4 uses ``b ≤ wi``; Algorithm 3 line 9 uses
    ``r > wi(hi−1)``) that would make row lengths disagree with the
    indptr offsets; we use the self-consistent ``<`` / ``≥`` forms.  The
    dense result is identical to :func:`conv2d_tjac` either way.
    """
    weight = np.asarray(weight, dtype=np.float64)
    co, ci, kh, kw = weight.shape
    if (kh, kw) != (3, 3):
        raise ValueError("paper layout is specified for 3×3 kernels")
    hi, wi = input_hw
    if hi < 3 or wi < 3:
        raise ValueError("paper layout requires hi, wi ≥ 3")
    ho, wo = hi, wi  # padding 1, stride 1 preserves spatial dims
    ncols = co * ho * wo

    row_nnz_per_channel = 3 * wi * (3 * hi - 2)  # per input channel block

    # --- Algorithm 2: indptr (fully vectorized closed form) -------------
    n_rows = ci * hi * wi
    idx = np.arange(n_rows + 1, dtype=np.int64)
    a = idx // (hi * wi)
    b = idx % (hi * wi)
    base = a * co * row_nnz_per_channel
    top = base + 6 * co * b
    mid = base + 6 * co * wi + 9 * co * (b - wi)
    bot = base + 6 * co * wi + 9 * co * (wi * (hi - 2)) + 6 * co * (b - wi * (hi - 1))
    indptr = np.where(b < wi, top, np.where(b < wi * (hi - 1), mid, bot))
    # Rows past the last of a channel block roll into the next block via `a`.
    indptr[-1] = ci * co * row_nnz_per_channel

    # --- Algorithms 3 & 4: indices and data ------------------------------
    spatial = np.arange(hi * wi, dtype=np.int64)
    y, x = spatial // wi, spatial % wi
    # Kernel-row selection mirrors Algorithm 4's `range`:
    #   top rows use flipped-kernel rows [1, 2] ↔ output rows {y, y+1}
    #   bottom rows use [0, 1] ↔ output rows {y-1, y}
    # Flipped filter: value at (dy, dx) offset is W[o, m, 1-dy, 1-dx].
    indices_parts = []
    data_parts = []
    flipped = weight[:, :, ::-1, ::-1]  # (co, ci, 3, 3)
    for m in range(ci):
        for r in range(hi * wi):
            yy, xx = int(y[r]), int(x[r])
            dys = (
                (0, 1) if yy == 0 else (-1, 0) if yy == hi - 1 else (-1, 0, 1)
            )
            cols_row = []
            vals_row = []
            for jo in range(co):
                for dy in dys:
                    for dx in (-1, 0, 1):
                        col = (jo * ho + (yy + dy)) * wo + (xx + dx)
                        col %= ncols  # the paper's modular wrap
                        inside = 0 <= xx + dx < wi
                        val = flipped[jo, m, dy + 1, dx + 1] if inside else 0.0
                        cols_row.append(col)
                        vals_row.append(val)
            order = np.argsort(cols_row, kind="stable")
            indices_parts.append(np.asarray(cols_row, dtype=np.int64)[order])
            data_parts.append(np.asarray(vals_row, dtype=np.float64)[order])
    indices = np.concatenate(indices_parts)
    data = np.concatenate(data_parts)
    return CSRMatrix(indptr, indices, data, (n_rows, ncols))
