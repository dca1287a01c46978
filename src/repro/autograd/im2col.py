"""im2col / col2im transformations.

These turn convolutions into GEMMs, matching the paper's formulation of
convolutional layers as General Matrix Multiplications (section III-B). The
same helpers are reused by the exact float convolution, the fake-quantized
convolution and the approximate integer convolution.

:func:`sliding_windows` is the one ``as_strided`` window view;
:func:`im2col` copies it into GEMM columns. Padding goes through
:func:`_pad` (a zeroed buffer plus one interior copy) rather than NumPy's
generic pad routine, whose per-call overhead dominates at serving batch
sizes.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import as_strided

from repro.errors import ShapeError
from repro.obs import profiling as prof


def conv_out_size(size: int, kernel: int, stride: int, padding: int) -> int:
    """Output spatial size of a convolution along one axis."""
    out = (size + 2 * padding - kernel) // stride + 1
    if out <= 0:
        raise ShapeError(
            f"non-positive conv output size for input={size}, kernel={kernel}, "
            f"stride={stride}, padding={padding}"
        )
    return out


def _pad(x: np.ndarray, p: int) -> np.ndarray:
    """Zero-pad the two spatial axes of NCHW ``x`` by ``p`` on each side."""
    n, c, h, w = x.shape
    out = np.zeros((n, c, h + 2 * p, w + 2 * p), dtype=x.dtype)
    out[:, :, p : p + h, p : p + w] = x
    return out


def im2col(
    x: np.ndarray,
    kernel: tuple[int, int],
    stride: int = 1,
    padding: int = 0,
) -> tuple[np.ndarray, tuple[int, int]]:
    """Unfold NCHW input into GEMM columns.

    Returns ``(cols, (oh, ow))`` where ``cols`` has shape
    ``(N*OH*OW, C*KH*KW)`` — one row per output pixel, one column per weight.
    """
    if x.ndim != 4:
        raise ShapeError(f"im2col expects NCHW input, got ndim={x.ndim}")
    with prof.timer("autograd.im2col", nbytes=x.nbytes):
        windows = sliding_windows(x, kernel, stride, padding)
        n, c, oh, ow, kh, kw = windows.shape
        cols = windows.transpose(0, 2, 3, 1, 4, 5).reshape(n * oh * ow, c * kh * kw)
        return np.ascontiguousarray(cols), (oh, ow)


def col2im(
    cols: np.ndarray,
    x_shape: tuple[int, int, int, int],
    kernel: tuple[int, int],
    stride: int = 1,
    padding: int = 0,
) -> np.ndarray:
    """Fold GEMM columns back into an NCHW gradient (adjoint of im2col)."""
    n, c, h, w = x_shape
    kh, kw = kernel
    oh = conv_out_size(h, kh, stride, padding)
    ow = conv_out_size(w, kw, stride, padding)
    expected = (n * oh * ow, c * kh * kw)
    if cols.shape != expected:
        raise ShapeError(f"col2im expected cols of shape {expected}, got {cols.shape}")
    with prof.timer("autograd.col2im", nbytes=cols.nbytes):
        cols6 = cols.reshape(n, oh, ow, c, kh, kw)
        dx = np.zeros((n, c, h + 2 * padding, w + 2 * padding), dtype=cols.dtype)
        for i in range(kh):
            for j in range(kw):
                dx[:, :, i : i + stride * oh : stride, j : j + stride * ow : stride] += (
                    cols6[:, :, :, :, i, j].transpose(0, 3, 1, 2)
                )
        if padding > 0:
            dx = dx[:, :, padding : padding + h, padding : padding + w]
        return np.ascontiguousarray(dx)


def sliding_windows(
    x: np.ndarray,
    kernel: tuple[int, int],
    stride: int = 1,
    padding: int = 0,
) -> np.ndarray:
    """Read-only sliding windows of shape ``(N, C, OH, OW, KH, KW)``.

    Used by :func:`im2col`, the depthwise-convolution fast path and pooling
    layers.
    """
    if x.ndim != 4:
        raise ShapeError(f"sliding_windows expects NCHW input, got ndim={x.ndim}")
    n, c, h, w = x.shape
    kh, kw = kernel
    oh = conv_out_size(h, kh, stride, padding)
    ow = conv_out_size(w, kw, stride, padding)
    if padding > 0:
        x = _pad(x, padding)
    sn, sc, sh, sw = x.strides
    return as_strided(
        x,
        shape=(n, c, oh, ow, kh, kw),
        strides=(sn, sc, sh * stride, sw * stride, sh, sw),
        writeable=False,
    )
