"""Trace alignment: shift estimation against a reference trace.

Remote-power campaigns rarely get a clean trigger; the classic fix is
to estimate each trace's time offset against a reference trace and
gather it back onto the reference grid.  Two standard metrics are
implemented, both vectorized over the batch with a small loop over
candidate shifts:

* **correlation** — normalized cross-correlation of the overlapping
  span (robust to gain/offset differences);
* **SAD** — negative mean absolute difference (cheap, robust to a few
  outlier samples).

Shift convention: a trace with shift ``s`` carries the reference
content ``s`` samples *late* (``trace[j] ~ reference[j - s]``);
:func:`apply_shifts` therefore gathers ``trace[j + s]``.  Candidates
are searched in the order ``0, -1, 1, -2, 2, ...`` and ties keep the
earlier candidate, so degenerate traces (e.g. all-constant, where
every correlation denominator is zero) deterministically resolve to
shift 0 instead of an arbitrary extreme.

The correlation search is the ``estimate_shifts`` op of the
``resample`` kernel (:mod:`repro.util.kernels`): the numpy loop here is
its reference, and the native op returns exactly the same shifts —
it certifies each decision against a rounding-error bound and hands
any batch it cannot certify back to this loop.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from repro.preprocess.spec import PreprocessError
from repro.util import kernels

__all__ = [
    "align_traces",
    "apply_shifts",
    "correlation_shifts",
    "crop",
    "estimate_shifts",
    "shift_candidates",
]


def crop(traces: np.ndarray, start: int, end: int) -> np.ndarray:
    """Static-window crop ``traces[:, start:end]`` with bounds checks."""
    traces = np.asarray(traces)
    length = traces.shape[-1]
    if not 0 <= start < end <= length:
        raise PreprocessError(
            "window %d:%d does not fit traces of %d samples"
            % (start, end, length)
        )
    return traces[..., start:end]


def shift_candidates(max_shift: int) -> List[int]:
    """Candidate shifts ordered by magnitude: ``0, -1, 1, -2, 2, ...``"""
    if max_shift < 1:
        raise PreprocessError("max_shift must be >= 1")
    order = [0]
    for s in range(1, int(max_shift) + 1):
        order.extend((-s, s))
    return order


def _as_batch(
    traces: np.ndarray, reference: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    traces = np.atleast_2d(np.asarray(traces, dtype=np.float64))
    reference = np.asarray(reference, dtype=np.float64)
    if traces.ndim != 2:
        raise PreprocessError("traces must be a (num, samples) batch")
    if reference.shape != (traces.shape[1],):
        raise PreprocessError(
            "reference length %s does not match trace length %d"
            % (reference.shape, traces.shape[1])
        )
    return traces, reference


def _overlap(
    traces: np.ndarray, reference: np.ndarray, s: int
) -> Tuple[np.ndarray, np.ndarray]:
    """The trace/reference spans that candidate shift ``s`` compares."""
    length = traces.shape[1]
    if s >= 0:
        return traces[:, s:], reference[: length - s]
    return traces[:, : length + s], reference[-s:]


def _correlation_score(
    t: np.ndarray, r: np.ndarray, varying: np.ndarray
) -> np.ndarray:
    t_centered = t - t.mean(axis=1, keepdims=True)
    r_centered = r - r.mean()
    denom = np.sqrt(
        (t_centered * t_centered).sum(axis=1)
        * (r_centered * r_centered).sum()
    )
    numer = t_centered @ r_centered
    score = np.zeros(t.shape[0])
    valid = varying & (denom > 0)
    score[valid] = numer[valid] / denom[valid]
    return score


def _sad_score(
    t: np.ndarray, r: np.ndarray, varying: np.ndarray
) -> np.ndarray:
    score = -np.abs(t - r).mean(axis=1)
    # A constant trace is equally (un)informative at every shift; pin
    # its score so roundoff between overlap lengths cannot break the
    # tie away from shift 0.
    score[~varying] = 0.0
    return score


def _search(
    traces: np.ndarray, reference: np.ndarray, max_shift: int, score_fn
) -> np.ndarray:
    num = traces.shape[0]
    best_score = np.full(num, -np.inf)
    best_shift = np.zeros(num, dtype=np.int64)
    # Exactly-constant traces must score 0 at every shift (and so keep
    # shift 0).  ``t - t.mean()`` is NOT exactly zero for them — the
    # mean of n equal floats rounds — so the variance guard of the
    # correlation score would otherwise correlate that roundoff residue
    # with the reference.
    varying = traces.max(axis=1) > traces.min(axis=1)
    for s in shift_candidates(max_shift):
        score = score_fn(*_overlap(traces, reference, s), varying)
        # Strict improvement only: ties keep the earlier (smaller-|s|)
        # candidate, so zero-variance traces resolve to shift 0.
        better = score > best_score
        best_shift[better] = s
        best_score[better] = score[better]
    return best_shift


def correlation_shifts(
    traces: np.ndarray, reference: np.ndarray, max_shift: int
) -> np.ndarray:
    """The numpy reference op of the correlation shift search.

    Registered as ``resample``/``estimate_shifts``; expects the
    validated ``(num, samples)`` float64 batch of
    :func:`estimate_shifts`.  Every other backend must return exactly
    these shifts.
    """
    return _search(traces, reference, max_shift, _correlation_score)


kernels.register_backend(
    "resample", "numpy", estimate_shifts=correlation_shifts
)


def estimate_shifts(
    traces: np.ndarray,
    reference: np.ndarray,
    max_shift: int,
    metric: str = "correlation",
) -> np.ndarray:
    """Per-trace integer shift estimate against ``reference``.

    The correlation search dispatches through the ``resample`` kernel
    at call time (a native backend returns the reference's exact
    shifts); SAD always runs on numpy.

    Args:
        traces: ``(num, samples)`` batch (a single 1-D trace is
            promoted to a one-row batch).
        reference: ``(samples,)`` reference trace.
        max_shift: search half-range; must be smaller than the trace
            length so every candidate keeps a non-empty overlap.
        metric: ``"correlation"`` or ``"sad"``.

    Returns:
        ``(num,)`` int64 shifts in ``[-max_shift, max_shift]``.
    """
    traces, reference = _as_batch(traces, reference)
    shift_candidates(max_shift)  # raises unless max_shift >= 1
    if int(max_shift) >= traces.shape[1]:
        raise PreprocessError(
            "max_shift=%d must be smaller than the %d-sample window"
            % (max_shift, traces.shape[1])
        )
    if metric == "correlation":
        return kernels.dispatch("resample", "estimate_shifts")(
            traces, reference, int(max_shift)
        )
    if metric == "sad":
        return _search(traces, reference, max_shift, _sad_score)
    raise PreprocessError(
        "alignment metric %r not one of correlation, sad" % metric
    )


def apply_shifts(traces: np.ndarray, shifts: np.ndarray) -> np.ndarray:
    """Gather each trace back onto the reference grid (edge-clamped).

    ``aligned[i, j] = traces[i, j + shifts[i]]`` with out-of-range
    source indices clamped to the trace ends; integer gathers move
    float64 values bitwise, so undoing an integer misalignment restores
    the interior samples exactly.
    """
    traces = np.atleast_2d(np.asarray(traces))
    shifts = np.asarray(shifts, dtype=np.int64).reshape(-1)
    if shifts.shape[0] != traces.shape[0]:
        raise PreprocessError(
            "got %d shifts for %d traces"
            % (shifts.shape[0], traces.shape[0])
        )
    length = traces.shape[1]
    indices = np.arange(length, dtype=np.int64)[None, :] + shifts[:, None]
    np.clip(indices, 0, length - 1, out=indices)
    return np.take_along_axis(traces, indices, axis=1)


def align_traces(
    traces: np.ndarray,
    reference: np.ndarray,
    max_shift: int,
    metric: str = "correlation",
) -> Tuple[np.ndarray, np.ndarray]:
    """Estimate and undo per-trace shifts; returns (aligned, shifts)."""
    shifts = estimate_shifts(traces, reference, max_shift, metric)
    return apply_shifts(np.atleast_2d(traces), shifts), shifts
