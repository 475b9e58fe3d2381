"""NumPy golden-reference implementations of the SNN layer arithmetic.

These functions are the "ground truth" against which the cluster kernels of
:mod:`repro.kernels` are validated.  They deliberately use a different
computational route (dense im2col matrix products) than the kernels (gathers
over compressed index arrays) so that agreement between the two is a
meaningful correctness check.

Each op comes twice.  The per-frame functions (:func:`im2row`,
:func:`conv2d_hwc`, :func:`maxpool2d_hwc`, ...) walk output positions in
plain Python loops: they are the oracles and stay that simple.  The
``*_batch`` functions that drive :meth:`SpikingNetwork.forward_batch
<repro.snn.network.SpikingNetwork.forward_batch>` take every receptive field
at once from one strided window view of the (padded) map — the software
counterpart of SpikeStream's affine address streams — so no output position
costs an interpreter iteration.  A view copy moves values and a max
reduction picks one, so both stay bit-for-bit equal to the oracles.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view


def pad_hwc(x: np.ndarray, padding: int) -> np.ndarray:
    """Zero-pad the two spatial dimensions of an HWC tensor."""
    if padding < 0:
        raise ValueError(f"padding must be non-negative, got {padding}")
    if padding == 0:
        return np.asarray(x)
    return np.pad(np.asarray(x), ((padding, padding), (padding, padding), (0, 0)))


def pad_bhwc(x: np.ndarray, padding: int) -> np.ndarray:
    """Zero-pad the two spatial dimensions of a batched BHWC tensor."""
    if padding < 0:
        raise ValueError(f"padding must be non-negative, got {padding}")
    if padding == 0:
        return np.asarray(x)
    return np.pad(
        np.asarray(x), ((0, 0), (padding, padding), (padding, padding), (0, 0))
    )


def conv_output_size(in_size: int, kernel: int, stride: int, padding: int) -> int:
    """Spatial output size of a convolution along one dimension."""
    out = (in_size + 2 * padding - kernel) // stride + 1
    if out <= 0:
        raise ValueError(
            f"convolution produces non-positive output size for in={in_size}, "
            f"kernel={kernel}, stride={stride}, padding={padding}"
        )
    return out


def im2row(x: np.ndarray, kernel: Tuple[int, int], stride: int, padding: int) -> np.ndarray:
    """Rearrange an HWC tensor into im2row form.

    Returns an array of shape ``(out_h * out_w, kh * kw * C)`` where each row
    contains the receptive field of one output position in (kh, kw, C) order —
    the same layout SpikeStream produces with its 2-D DMA transfer for the
    spike-encoding first layer (Section III-F).
    """
    x = np.asarray(x)
    if x.ndim != 3:
        raise ValueError(f"expected an HWC tensor, got shape {x.shape}")
    kh, kw = kernel
    padded = pad_hwc(x, padding)
    in_h, in_w, channels = padded.shape
    out_h = (in_h - kh) // stride + 1
    out_w = (in_w - kw) // stride + 1
    rows = np.empty((out_h * out_w, kh * kw * channels), dtype=padded.dtype)
    for oy in range(out_h):
        for ox in range(out_w):
            patch = padded[oy * stride : oy * stride + kh, ox * stride : ox * stride + kw, :]
            rows[oy * out_w + ox] = patch.reshape(-1)
    return rows


def _windows(x: np.ndarray, kh: int, kw: int, stride: int) -> np.ndarray:
    """Read-only ``(B, out_h, out_w, kh, kw, C)`` view of a BHWC map's windows.

    Element ``[b, oy, ox, dy, dx, c]`` is ``x[b, oy * stride + dy,
    ox * stride + dx, c]``: the receptive fields of every output position,
    addressed by strides alone, with no copy.
    """
    windows = sliding_window_view(x, (kh, kw), axis=(1, 2))[:, ::stride, ::stride]
    return windows.transpose(0, 1, 2, 4, 5, 3)


def im2row_batch(
    x: np.ndarray, kernel: Tuple[int, int], stride: int, padding: int
) -> np.ndarray:
    """Batched :func:`im2row`: BHWC input -> ``(B, out_h * out_w, kh * kw * C)``.

    One copy out of a strided window view of the padded map builds every
    frame's rows in (kh, kw, C) order; no output position costs a Python
    iteration.  Each ``im2row_batch(x, ...)[b]`` holds exactly the bytes of
    ``im2row(x[b], ...)`` — patch extraction copies values, it performs no
    arithmetic.
    """
    x = np.asarray(x)
    if x.ndim != 4:
        raise ValueError(f"expected a BHWC tensor, got shape {x.shape}")
    kh, kw = kernel
    windows = _windows(pad_bhwc(x, padding), kh, kw, stride)
    batch, out_h, out_w = windows.shape[:3]
    return windows.copy().reshape(batch, out_h * out_w, kh * kw * x.shape[-1])


def conv2d_hwc(
    x: np.ndarray,
    weights: np.ndarray,
    stride: int = 1,
    padding: int = 0,
) -> np.ndarray:
    """Dense 2-D convolution on HWC tensors.

    Parameters
    ----------
    x:
        Input tensor of shape ``(H, W, C_in)``; may be boolean spikes or real
        valued input currents.
    weights:
        Filter bank of shape ``(kh, kw, C_in, C_out)``.

    Returns
    -------
    Output currents of shape ``(out_h, out_w, C_out)``.
    """
    weights = np.asarray(weights, dtype=np.float64)
    if weights.ndim != 4:
        raise ValueError(f"weights must be (kh, kw, C_in, C_out), got shape {weights.shape}")
    kh, kw, c_in, c_out = weights.shape
    x = np.asarray(x)
    if x.shape[-1] != c_in:
        raise ValueError(
            f"input has {x.shape[-1]} channels but weights expect {c_in}"
        )
    rows = im2row(x.astype(np.float64), (kh, kw), stride, padding)
    out_h = conv_output_size(x.shape[0], kh, stride, padding)
    out_w = conv_output_size(x.shape[1], kw, stride, padding)
    flat = rows @ weights.reshape(kh * kw * c_in, c_out)
    return flat.reshape(out_h, out_w, c_out)


#: Target byte size of one im2row chunk buffer.  Large enough that each GEMM
#: reuses its weight panels across many frames, small enough that the buffer
#: and the GEMM working set stay cache/TLB-friendly (a full batch-64 buffer
#: for S-VGG11's conv2 would be 300 MB and thrash).
_IM2ROW_CHUNK_BYTES = 32 * 1024 * 1024

#: Weight matrices of at least this many bytes go through one GEMM per chunk
#: of frames, which streams each weight panel once per chunk.  Smaller ones
#: stay cache-resident across per-frame products, so there each frame gets
#: the oracle's own product at no cost: on S-VGG11 at batch 16 with fp64
#: weights, the GEMMs of conv1 (14 KB) and conv2 (590 KB) run as fast per
#: frame, while those of conv3-conv8 (2.4-19 MB) run 13-117% slower per frame
#: than as one.  The per-frame product is what keeps fp64 weights (conv1,
#: explicitly bound weights) exact; weights exact in float32 are exact in
#: any grouping.
_CHUNK_GEMM_MIN_BYTES = 1024 * 1024


def conv2d_hwc_batch(
    x: np.ndarray,
    weights: np.ndarray,
    stride: int = 1,
    padding: int = 0,
    dtype: np.dtype = np.float64,
) -> np.ndarray:
    """Batched :func:`conv2d_hwc`: BHWC input -> ``(B, out_h, out_w, C_out)``.

    Bit-for-bit per frame.  The batch runs in chunks of frames sized so the
    im2row buffer stays cache-friendly (:data:`_IM2ROW_CHUNK_BYTES`).  Each
    chunk's zero-padded map is built directly in the GEMM dtype, and its
    im2row rows (:func:`im2row_batch`) hold the same bytes as the per-frame
    rows.  Weight matrices of at least :data:`_CHUNK_GEMM_MIN_BYTES` then go
    through one ``(chunk * P, K) @ (K, C)`` GEMM, so their panels stream
    once per chunk instead of once per frame.  That is exact only while BLAS
    computes each output row independently of how many rows the GEMM has,
    which holds for S-VGG11's shapes (gated by ``tests/snn`` and the
    functional identity tests) but not for every shape: numpy multiplies a
    lone ``(1, K)`` row with gemv rather than gemm, and OpenBLAS rounds
    differently by row position when there are fewer than four output
    channels.  So maps with a single output position, and all smaller
    weight matrices, get one ``(P, K) @ (K, C)`` product per frame: the
    oracle's own call, equal by construction.

    ``dtype`` selects the GEMM precision.  For a 0/1 spike map against
    float32 weights that pass :func:`~repro.snn.numerics.exact_in_float32`
    (the ``2**-16`` grid, every channel's ``|w|`` summing below ``2**8``),
    ``float32`` is exact: every partial sum fits in 24 bits, so each current
    cast to float64 equals the oracle's byte for byte, whatever the GEMM
    shape or order.  Otherwise the default ``float64`` is the bit-for-bit
    path, and ``float32`` (a :class:`~repro.snn.numerics.NumericsPolicy`
    choice) trades the last ulps of the membrane current for half the bytes.
    """
    dtype = np.dtype(dtype)
    weights = np.asarray(weights, dtype=dtype)
    if weights.ndim != 4:
        raise ValueError(f"weights must be (kh, kw, C_in, C_out), got shape {weights.shape}")
    kh, kw, c_in, c_out = weights.shape
    x = np.asarray(x)
    if x.ndim != 4:
        raise ValueError(f"expected a BHWC tensor, got shape {x.shape}")
    if x.shape[-1] != c_in:
        raise ValueError(
            f"input has {x.shape[-1]} channels but weights expect {c_in}"
        )
    if padding < 0:
        raise ValueError(f"padding must be non-negative, got {padding}")
    batch, height, width = x.shape[:3]
    out_h = conv_output_size(height, kh, stride, padding)
    out_w = conv_output_size(width, kw, stride, padding)
    positions, k = out_h * out_w, kh * kw * c_in
    chunk_frames = max(1, _IM2ROW_CHUNK_BYTES // (positions * k * dtype.itemsize))
    flat_weights = weights.reshape(k, c_out)
    chunk_gemm = positions > 1 and flat_weights.nbytes >= _CHUNK_GEMM_MIN_BYTES
    out = np.empty((batch, out_h, out_w, c_out), dtype=dtype)
    for start in range(0, batch, chunk_frames):
        stop = min(start + chunk_frames, batch)
        # Pad and convert in one write: the 1-byte spike map lands straight
        # in a zeroed buffer of the GEMM dtype.
        padded = np.zeros(
            (stop - start, height + 2 * padding, width + 2 * padding, c_in), dtype=dtype
        )
        padded[:, padding:padding + height, padding:padding + width] = x[start:stop]
        rows = im2row_batch(padded, (kh, kw), stride, 0)
        if chunk_gemm:
            rows = rows.reshape((stop - start) * positions, k)
        out[start:stop] = (rows @ flat_weights).reshape(stop - start, out_h, out_w, c_out)
    return out


def linear(x: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Dense fully connected layer: ``y = W^T x`` for HWC-flattened inputs.

    ``weights`` has shape ``(in_features, out_features)``.
    """
    x = np.asarray(x, dtype=np.float64).reshape(-1)
    weights = np.asarray(weights, dtype=np.float64)
    if weights.ndim != 2:
        raise ValueError(f"weights must be 2-D, got shape {weights.shape}")
    if x.shape[0] != weights.shape[0]:
        raise ValueError(
            f"input has {x.shape[0]} features but weights expect {weights.shape[0]}"
        )
    return x @ weights


def linear_batch(
    x: np.ndarray, weights: np.ndarray, dtype: np.dtype = np.float64
) -> np.ndarray:
    """Batched :func:`linear`: ``(B, in_features)`` input -> ``(B, out_features)``.

    The whole batch goes through one ``(B, F) @ (F, C)`` GEMM, so the weight
    matrix — 34 MB for S-VGG11's ``fc1``, 67 MB for ``fc2`` as float32 —
    streams through the memory hierarchy once per *batch* where the
    per-frame vector-matrix product streams it once per *frame*.  This is
    the single largest win of the batched forward pass.

    Spike inputs against float32 weights that pass
    :func:`~repro.snn.numerics.exact_in_float32` give exact sums at
    ``dtype=float32``: every current, cast to float64, equals the per-frame
    product byte for byte.  For other weights the GEMM's per-output
    accumulation can differ from the scalar product in the last ulp of the
    membrane *current*; the recorded spikes are gated bit-for-bit against
    the per-frame loop by ``tests/snn``, where an ulp could flip a LIF
    threshold comparison only at an exact-threshold coincidence.

    ``dtype`` selects the GEMM precision; the default ``float64`` is the
    reference path for weights that are not exact in float32.
    """
    dtype = np.dtype(dtype)
    x = np.asarray(x, dtype=dtype)
    weights = np.asarray(weights, dtype=dtype)
    if weights.ndim != 2:
        raise ValueError(f"weights must be 2-D, got shape {weights.shape}")
    x = x.reshape(x.shape[0], -1)
    if x.shape[1] != weights.shape[0]:
        raise ValueError(
            f"input has {x.shape[1]} features but weights expect {weights.shape[0]}"
        )
    return x @ weights


#: Spike-map density below which the adaptive ``event_sparse`` forward in
#: :mod:`repro.snn.network` routes a layer through the CSR kernels instead
#: of the dense GEMM.  Measured at batch 1 in float32 on S-VGG11's shapes
#: with Bernoulli inputs (2-CPU host, medians): at 10% density the CSR
#: route is slower on every conv layer (conv3 4.4 vs 1.2 ms dense, conv6
#: 7.5 vs 2.9 ms, conv7 1.9 vs 1.3 ms) and only ties on conv7-conv8 at 5%;
#: on fc1 and fc2 it wins up to about 30% (fc2 0.75 vs 1.68 ms at 10%,
#: 1.40 vs 1.49 ms at 30%, 1.61 vs 1.51 ms at 40%).  One threshold thus
#: fits neither kind of layer; it stays at 12.5%, where the policy's
#: accuracy bounds and ``benchmarks/bench_precision.py`` were measured.
SPARSE_DENSITY_CROSSOVER = 0.125


def _scipy_sparse():
    """``scipy.sparse``, or ``None`` when scipy is not installed.

    Imported on first use rather than with this module: the import costs a
    few hundred milliseconds that every CLI run and spawned worker would
    otherwise pay, and only the two event-sparse kernels below need it.
    """
    try:
        from scipy import sparse
    except ImportError:  # pragma: no cover - the image bakes scipy in
        return None
    return sparse


def spike_density(x: np.ndarray) -> float:
    """Fraction of non-zero elements of a spike map (0.0 for empty maps)."""
    x = np.asarray(x)
    if x.size == 0:
        return 0.0
    return np.count_nonzero(x) / x.size


def conv2d_hwc_batch_sparse(
    x: np.ndarray,
    weights: np.ndarray,
    stride: int = 1,
    padding: int = 0,
    dtype: np.dtype = np.float32,
) -> np.ndarray:
    """Event-sparse batched convolution: CSR spike rows against dense weights.

    The software analogue of the paper's sparse vector-product streaming:
    instead of densifying the boolean spike map into a float im2row buffer,
    the im2row rows stay boolean and are compressed into a CSR matrix whose
    stored entries are exactly the *active* inputs — the GEMM then touches
    one weight row per event, so arithmetic cost scales with nnz instead of
    the dense ``B*P*K`` volume.  Profitable below
    :data:`SPARSE_DENSITY_CROSSOVER`; callers (the adaptive dispatch in
    :meth:`SpikingNetwork._forward_timestep_batch
    <repro.snn.network.SpikingNetwork>`) are expected to check density first.

    Unlike the dense route this sums float products in CSR traversal order,
    so results agree with :func:`conv2d_hwc_batch` only to rounding — the
    accuracy bound lives in :mod:`repro.snn.numerics`.  Falls back to the
    dense route when scipy is unavailable.
    """
    sparse = _scipy_sparse()
    if sparse is None:  # pragma: no cover - scipy is baked into the image
        return conv2d_hwc_batch(x, weights, stride, padding, dtype=dtype)
    dtype = np.dtype(dtype)
    weights = np.asarray(weights, dtype=dtype)
    if weights.ndim != 4:
        raise ValueError(f"weights must be (kh, kw, C_in, C_out), got shape {weights.shape}")
    kh, kw, c_in, c_out = weights.shape
    x = np.asarray(x)
    if x.ndim != 4:
        raise ValueError(f"expected a BHWC tensor, got shape {x.shape}")
    if x.shape[-1] != c_in:
        raise ValueError(
            f"input has {x.shape[-1]} channels but weights expect {c_in}"
        )
    batch = x.shape[0]
    out_h = conv_output_size(x.shape[1], kh, stride, padding)
    out_w = conv_output_size(x.shape[2], kw, stride, padding)
    positions, k = out_h * out_w, kh * kw * c_in
    # im2row on the 1-byte boolean map: patch extraction copies bits, no
    # float conversion ever materializes the dense buffer.
    rows = im2row_batch(pad_bhwc(x != 0, padding), (kh, kw), stride, 0)
    events = sparse.csr_matrix(rows.reshape(batch * positions, k), dtype=dtype)
    flat = events @ weights.reshape(k, c_out)
    return np.asarray(flat).reshape(batch, out_h, out_w, c_out)


def linear_batch_sparse(
    x: np.ndarray, weights: np.ndarray, dtype: np.dtype = np.float32
) -> np.ndarray:
    """Event-sparse batched fully connected layer.

    Gathers only the weight rows of *active* inputs: for the paper's FC
    layers at 3-6% firing rates this reads a few hundred rows of a 4096-row
    weight matrix instead of streaming all of it through a dense GEMM.
    Same rounding caveat as :func:`conv2d_hwc_batch_sparse`; without scipy a
    per-frame ``w[active].sum`` gather provides the same event scaling.
    """
    dtype = np.dtype(dtype)
    weights = np.asarray(weights, dtype=dtype)
    if weights.ndim != 2:
        raise ValueError(f"weights must be 2-D, got shape {weights.shape}")
    x = np.asarray(x)
    flat = (x != 0).reshape(x.shape[0], -1)
    if flat.shape[1] != weights.shape[0]:
        raise ValueError(
            f"input has {flat.shape[1]} features but weights expect {weights.shape[0]}"
        )
    sparse = _scipy_sparse()
    if sparse is not None:
        events = sparse.csr_matrix(flat, dtype=dtype)
        return np.asarray(events @ weights)
    out = np.zeros((flat.shape[0], weights.shape[1]), dtype=dtype)
    for b in range(flat.shape[0]):
        active = np.flatnonzero(flat[b])
        if active.size:
            out[b] = weights[active].sum(axis=0, dtype=dtype)
    return out


def maxpool2d_hwc(x: np.ndarray, kernel: int = 2, stride: int = 2) -> np.ndarray:
    """Max pooling over the spatial dimensions of an HWC tensor.

    On boolean spike tensors this reduces to a logical OR over the window,
    which is how spike pooling is normally realized.
    """
    x = np.asarray(x)
    height, width, channels = x.shape
    out_h = (height - kernel) // stride + 1
    out_w = (width - kernel) // stride + 1
    out = np.empty((out_h, out_w, channels), dtype=x.dtype)
    for oy in range(out_h):
        for ox in range(out_w):
            window = x[oy * stride : oy * stride + kernel, ox * stride : ox * stride + kernel, :]
            out[oy, ox] = window.max(axis=(0, 1))
    return out


def maxpool2d_hwc_batch(x: np.ndarray, kernel: int = 2, stride: int = 2) -> np.ndarray:
    """Batched :func:`maxpool2d_hwc` over a BHWC tensor (exact per frame).

    One max reduction over a strided window view covers every window of
    every frame; a maximum picks an input value, so no rounding can differ
    from the per-window loop.  One freedom is left to numpy: when a float
    window's maximum is a zero present as both +0.0 and -0.0 (or a NaN with
    several payloads), which one comes back depends on the reduction order,
    and on single-channel maps that order differs from the oracle's.  Spike
    maps are bools, where no such tie exists.
    """
    x = np.asarray(x)
    if x.ndim != 4:
        raise ValueError(f"expected a BHWC tensor, got shape {x.shape}")
    return _windows(x, kernel, kernel, stride).max(axis=(3, 4))


def avgpool2d_hwc(x: np.ndarray, kernel: int = 2, stride: int = 2) -> np.ndarray:
    """Average pooling over the spatial dimensions of an HWC tensor."""
    x = np.asarray(x, dtype=np.float64)
    height, width, channels = x.shape
    out_h = (height - kernel) // stride + 1
    out_w = (width - kernel) // stride + 1
    out = np.empty((out_h, out_w, channels), dtype=np.float64)
    for oy in range(out_h):
        for ox in range(out_w):
            window = x[oy * stride : oy * stride + kernel, ox * stride : ox * stride + kernel, :]
            out[oy, ox] = window.mean(axis=(0, 1))
    return out


def avgpool2d_hwc_batch(x: np.ndarray, kernel: int = 2, stride: int = 2) -> np.ndarray:
    """Batched :func:`avgpool2d_hwc` over a BHWC tensor (exact per frame)."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 4:
        raise ValueError(f"expected a BHWC tensor, got shape {x.shape}")
    batch, height, width, channels = x.shape
    out_h = (height - kernel) // stride + 1
    out_w = (width - kernel) // stride + 1
    out = np.empty((batch, out_h, out_w, channels), dtype=np.float64)
    for oy in range(out_h):
        for ox in range(out_w):
            window = x[:, oy * stride : oy * stride + kernel, ox * stride : ox * stride + kernel, :]
            out[:, oy, ox] = window.mean(axis=(1, 2))
    return out
