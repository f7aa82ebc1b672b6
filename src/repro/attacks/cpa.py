"""Correlation Power Analysis engine.

Implements textbook CPA (Brier et al.): Pearson correlation between a
measured leakage series and a hypothesis matrix over 256 key-byte
candidates, with *progress tracking* — correlations re-evaluated at
growing trace counts — to produce the paper's
"correlation progress over 500k traces" figures and the
measurements-to-disclosure metric.

The implementation streams over trace blocks and keeps only running
sums (O(256) state), so half-million-trace campaigns fit comfortably in
memory regardless of checkpoint density.

A last-round hypothesis row depends only on the trace's ciphertext
byte, so a block can also arrive as one (C, K) table plus a class
(ciphertext byte) per trace: ``update(x, table, classes=c)`` means
``update(x, table[c])``.  It is computed without the (B, K) gather:
per-class trace counts and leakage sums (two ``np.bincount`` passes)
contracted against the table, ``counts @ t``, ``counts @ t**2`` and
``sums @ t``.  That route is taken only when a check proves every
partial sum an integer below 2^53 -- finite, integer-valued leakage
and table, with ``sum x**2`` and ``B * max t**2`` under 2^53, which
also bounds ``sum|x| * max|t|`` -- so it equals the gathered block's
sums in any summation order.  Any other block is gathered and
accumulated as before, so results are bit-identical on every route.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Union

import numpy as np

from repro.util import kernels
from repro.util.errors import ReproError


def _accumulate_numpy(x: np.ndarray, h: np.ndarray):
    """Reference CPA accumulate: block sums, or None on non-finite.

    Returns ``(sum_x, sum_xx, sum_h, sum_hh, sum_xh)`` for a finite
    block.  Returning None (instead of raising) keeps the op contract
    backend-agnostic; :meth:`StreamingCPA.update` re-runs the finite
    checks to raise the exact :class:`NonFiniteValuesError`, and no
    accumulator state is touched either way.
    """
    h = np.asarray(h, dtype=np.float64)
    if not np.isfinite(x).all() or not np.isfinite(h).all():
        return None
    return (
        x.sum(),
        (x * x).sum(),
        h.sum(axis=0),
        (h * h).sum(axis=0),
        h.T @ x,
    )


kernels.register_backend("cpa", "numpy", accumulate=_accumulate_numpy)

#: Integers of magnitude below this are exact in float64, and so is
#: every sum of them whose partial sums stay below it.
_EXACT_LIMIT = 2.0 ** 53


class ClassTable:
    """A (C, K) hypothesis table prepared for class-routed updates.

    Row ``c`` holds the K hypotheses of every trace of class ``c``
    (for the last-round models: ciphertext byte ``c``).  The float64
    copy, its squares and the exactness facts :meth:`StreamingCPA.update`
    checks are computed once here, so a task that feeds many segments
    pays for them once.  ``table`` keeps the caller's array (and dtype)
    for the gathered fallback.
    """

    def __init__(self, table: np.ndarray):
        self.table = np.asarray(table)
        if self.table.ndim != 2:
            raise ValueError(
                "hypothesis table must be 2-D (classes, candidates), got "
                "shape %r" % (self.table.shape,)
            )
        self.num_classes, self.num_candidates = self.table.shape
        self.values = self.table.astype(np.float64)
        self.squares = self.values * self.values
        if np.array_equal(self.squares, self.values):
            # A 0/1 table (the single-bit model) is its own square:
            # sharing the array lets an update skip one contraction.
            self.squares = self.values
        #: Finite and integer-valued: the precondition of the class route.
        self.exact = bool(
            np.isfinite(self.values).all()
            and (np.rint(self.values) == self.values).all()
        )
        bounded = self.exact and self.values.size > 0
        self.max_square = float(self.squares.max()) if bounded else 0.0

    @classmethod
    def of(cls, table: Union[np.ndarray, "ClassTable"]) -> "ClassTable":
        """``table`` itself when already prepared, else a new one."""
        return table if isinstance(table, cls) else cls(table)


def _class_sums(x: np.ndarray, classes: np.ndarray, table: ClassTable):
    """The accumulate op's five block sums, folded per class.

    Returns None unless every partial sum is provably an integer below
    2^53 (then each sum is exact, hence equal to the gathered block's
    in any summation order).  The table and the leakage must be finite
    and integer-valued, and ``sum x**2`` and ``B * max t**2`` below
    2^53.  For integers these bound every partial sum: ``sum|x| <=
    sum x**2`` (``x.sum()`` and the class sums), ``B * max|t| <= B *
    max t**2`` (``counts @ t`` and ``counts @ t**2``), and ``sum|x| *
    max|t| <= sqrt(sum x**2 * B * max t**2)`` (``sums @ t``).  Both
    bounds are computed from non-negative terms, and every rounding
    step (with or without FMA) is monotone, so a computed value below
    2^53 proves the exact one is.  NaN or inf in the leakage fails the
    first bound, so non-finite blocks fall back too.
    """
    if not table.exact:
        return None
    sum_xx = np.dot(x, x)
    if not (
        sum_xx < _EXACT_LIMIT
        and x.shape[0] * table.max_square < _EXACT_LIMIT
    ):
        return None
    if not (np.rint(x) == x).all():
        return None
    width = table.num_classes
    classes = classes.astype(np.intp, copy=False)
    folds = np.array(
        (
            np.bincount(classes, minlength=width),
            np.bincount(classes, weights=x, minlength=width),
        ),
        dtype=np.float64,
    )
    # Exact sums make stacking the two contractions (one pass over the
    # table) and reusing a 0/1 table's own contraction bit-neutral.
    sum_h, sum_xh = folds @ table.values
    if table.squares is table.values:
        sum_hh = sum_h
    else:
        sum_hh = folds[0] @ table.squares
    return folds[1].sum(), sum_xx, sum_h, sum_hh, sum_xh


class NonFiniteValuesError(ReproError):
    """NaN/Inf values reached the CPA accumulator.

    A single non-finite leakage or hypothesis value silently poisons
    every correlation downstream (the running sums all become NaN), so
    :meth:`StreamingCPA.update` rejects the block instead and names
    the offending trace indices.

    Attributes:
        which: ``"leakage"`` or ``"hypotheses"``.
        indices: offending trace indices, offset by the accumulator's
            trace count at update time (i.e. global indices for a
            single-stream consumer, segment-relative for shard
            workers).
    """

    def __init__(self, which: str, indices: np.ndarray):
        indices = np.asarray(indices, dtype=np.int64)
        shown = ", ".join(str(i) for i in indices[:8])
        if indices.size > 8:
            shown += ", ... (%d total)" % indices.size
        super().__init__(
            "non-finite %s values at trace indices [%s]" % (which, shown)
        )
        self.which = which
        self.indices = indices


@dataclass
class CPAResult:
    """Outcome of a CPA run.

    Attributes:
        checkpoints: trace counts at which correlations were evaluated.
        correlations: array (num_checkpoints, 256): Pearson correlation
            of each key candidate at each checkpoint.
        correct_key: the true key byte, if provided (for metrics).
    """

    checkpoints: np.ndarray
    correlations: np.ndarray
    correct_key: Optional[int] = None

    @property
    def final_correlations(self) -> np.ndarray:
        """|corr| of all candidates after all traces (paper's plot (a))."""
        return np.abs(self.correlations[-1])

    @property
    def best_guess(self) -> int:
        """Candidate with the highest final absolute correlation."""
        return int(np.argmax(self.final_correlations))

    def key_rank_at(self, checkpoint_index: int) -> int:
        """Rank of the correct key at a checkpoint (0 = disclosed)."""
        return int(self.key_ranks()[checkpoint_index])

    def key_ranks(self) -> np.ndarray:
        """Correct-key rank at every checkpoint.

        A checkpoint with an all-zero correlation row (degenerate
        leakage, e.g. a constant sensor bit) is reported at worst rank
        rather than the spurious rank 0 a plain comparison would give.
        """
        if self.correct_key is None:
            raise ValueError("result carries no correct key")
        corr = np.abs(self.correlations)
        correct = corr[:, self.correct_key][:, None]
        ranks = (corr > correct).sum(axis=1)
        degenerate = corr.max(axis=1) <= 0
        ranks[degenerate] = corr.shape[1] - 1
        return ranks

    def measurements_to_disclosure(self) -> Optional[int]:
        """Smallest checkpoint from which the correct key stays rank 0.

        Returns None when the key is not (stably) disclosed within the
        available traces.  This is the number the paper quotes as
        "revealed after about 150k traces".
        """
        ranks = self.key_ranks()
        disclosed_from = None
        for index in range(len(ranks) - 1, -1, -1):
            if ranks[index] == 0:
                disclosed_from = index
            else:
                break
        if disclosed_from is None:
            return None
        return int(self.checkpoints[disclosed_from])

    @property
    def disclosed(self) -> bool:
        """Whether the correct key ends at rank 0."""
        if self.correct_key is None:
            raise ValueError("result carries no correct key")
        return bool(self.key_ranks()[-1] == 0)


def default_checkpoints(num_traces: int, count: int = 60) -> np.ndarray:
    """Logarithmically spaced evaluation points up to ``num_traces``.

    The grid normally starts at 50 traces (correlations below that are
    pure noise).  For campaigns of at most 50 traces that start is
    clamped so the grid still spans ``[2, num_traces]`` ascending — a
    descending ``logspace`` would otherwise be filtered down to the
    single point ``num_traces``.
    """
    if num_traces < 2:
        raise ValueError("need at least 2 traces")
    start = min(50, num_traces)
    if start >= num_traces:
        start = 2
    points = np.unique(
        np.round(
            np.logspace(np.log10(start), np.log10(num_traces), count)
        ).astype(np.int64)
    )
    points = points[(points >= 2) & (points <= num_traces)]
    if points[-1] != num_traces:
        points = np.append(points, num_traces)
    return points


class StreamingCPA:
    """Accumulates CPA statistics over trace blocks.

    Usage: feed ``(leakage_block, hypothesis_block)`` pairs, or
    ``(leakage_block, table)`` with ``classes=``, via :meth:`update`,
    call :meth:`correlations` whenever a checkpoint is reached.
    :func:`run_cpa` wraps the common in-memory case.
    """

    def __init__(self, num_candidates: int = 256):
        self.num_candidates = num_candidates
        self.count = 0
        self._sum_x = 0.0
        self._sum_xx = 0.0
        self._sum_h = np.zeros(num_candidates)
        self._sum_hh = np.zeros(num_candidates)
        self._sum_xh = np.zeros(num_candidates)

    def update(
        self,
        leakage: np.ndarray,
        hypotheses: Union[np.ndarray, ClassTable],
        classes: Optional[np.ndarray] = None,
    ) -> None:
        """Add a block of traces.

        Args:
            leakage: (B,) measured leakage values.
            hypotheses: (B, num_candidates) hypothesis values; with
                ``classes``, a (C, num_candidates) table (array or
                :class:`ClassTable`) whose row ``classes[i]`` is trace
                ``i``'s hypotheses.
            classes: optional (B,) integer classes in ``[0, C)``.
                ``update(x, table, classes=c)`` is defined as
                ``update(x, table[c])`` and leaves bit-identical state:
                a block that passes the exactness check of the module
                docstring is folded per class without gathering, any
                other block is gathered and accumulated as usual (so
                non-finite values raise the same error).
        """
        x = np.asarray(leakage, dtype=np.float64)
        sums = None
        if classes is not None:
            table = ClassTable.of(hypotheses)
            c = np.asarray(classes)
            if x.ndim != 1 or c.shape != x.shape:
                raise ValueError(
                    "shape mismatch: leakage %r vs classes %r"
                    % (x.shape, c.shape)
                )
            if table.num_candidates != self.num_candidates:
                raise ValueError(
                    "hypothesis table has %d candidates, accumulator %d"
                    % (table.num_candidates, self.num_candidates)
                )
            if c.dtype.kind not in "iu":
                raise ValueError(
                    "classes must be integers, got dtype %s" % c.dtype
                )
            if c.size and (
                c.min() < 0 or c.max() >= table.num_classes
            ):
                raise ValueError(
                    "classes must lie in [0, %d), got values in [%d, %d]"
                    % (table.num_classes, c.min(), c.max())
                )
            sums = _class_sums(x, c, table)
            if sums is None:
                hypotheses = table.table[c]
        if sums is None:
            sums = self._block_sums(x, np.asarray(hypotheses))
        sum_x, sum_xx, sum_h, sum_hh, sum_xh = sums
        self.count += x.shape[0]
        self._sum_x += sum_x
        self._sum_xx += sum_xx
        self._sum_h += sum_h
        self._sum_hh += sum_hh
        self._sum_xh += sum_xh

    def _block_sums(self, x: np.ndarray, h: np.ndarray):
        """The accumulate op's sums for a (B, K) block, or raise."""
        if x.ndim != 1 or h.shape != (x.shape[0], self.num_candidates):
            raise ValueError(
                "shape mismatch: leakage %r vs hypotheses %r"
                % (x.shape, h.shape)
            )
        # The fused accumulate runs under the selected kernel backend
        # (int8 hypothesis blocks skip the float64 materialization on
        # the native path).  Campaign leakage/hypotheses are
        # integer-valued, so the float64 sums are exact and therefore
        # identical across backends and accumulation orders — the same
        # property merge() relies on.
        sums = kernels.dispatch("cpa", "accumulate")(x, h)
        if sums is None:
            # Re-run the finite checks in numpy to name the offending
            # traces; the accumulator state was never touched.
            finite_x = np.isfinite(x)
            if not finite_x.all():
                raise NonFiniteValuesError(
                    "leakage", self.count + np.flatnonzero(~finite_x)
                )
            finite_h = np.isfinite(
                np.asarray(h, dtype=np.float64)
            ).all(axis=1)
            raise NonFiniteValuesError(
                "hypotheses", self.count + np.flatnonzero(~finite_h)
            )
        return sums

    def merge(self, other: "StreamingCPA") -> "StreamingCPA":
        """Fold another accumulator's traces into this one (in place).

        Running sums are additive, so accumulators built over disjoint
        trace blocks — by parallel workers, checkpointed shards, or
        resumed campaigns — combine into exactly the single-stream
        state (integer-valued leakage and hypotheses make the sums
        float-exact, hence order-independent).

        Returns:
            self, for chaining.
        """
        if other.num_candidates != self.num_candidates:
            raise ValueError(
                "cannot merge %d-candidate accumulator into %d"
                % (other.num_candidates, self.num_candidates)
            )
        self.count += other.count
        self._sum_x += other._sum_x
        self._sum_xx += other._sum_xx
        self._sum_h += other._sum_h
        self._sum_hh += other._sum_hh
        self._sum_xh += other._sum_xh
        return self

    def copy(self) -> "StreamingCPA":
        """Independent snapshot of the accumulated state."""
        clone = StreamingCPA(num_candidates=self.num_candidates)
        clone.count = self.count
        clone._sum_x = self._sum_x
        clone._sum_xx = self._sum_xx
        clone._sum_h = self._sum_h.copy()
        clone._sum_hh = self._sum_hh.copy()
        clone._sum_xh = self._sum_xh.copy()
        return clone

    def state_arrays(self) -> Dict[str, np.ndarray]:
        """The running sums as plain arrays, for checkpoint files.

        The mapping round-trips bit-exactly through
        :meth:`from_state_arrays` (and through ``np.savez`` /
        ``np.load``, which preserve float64 payloads exactly), so a
        resumed campaign continues from the identical accumulator
        state an uninterrupted run would have had.
        """
        return {
            "count": np.int64(self.count),
            "sum_x": np.float64(self._sum_x),
            "sum_xx": np.float64(self._sum_xx),
            "sum_h": self._sum_h.copy(),
            "sum_hh": self._sum_hh.copy(),
            "sum_xh": self._sum_xh.copy(),
        }

    @classmethod
    def from_state_arrays(
        cls, state: Dict[str, np.ndarray]
    ) -> "StreamingCPA":
        """Rebuild an accumulator from :meth:`state_arrays` output."""
        sum_h = np.asarray(state["sum_h"], dtype=np.float64)
        engine = cls(num_candidates=int(sum_h.shape[0]))
        engine.count = int(state["count"])
        engine._sum_x = float(state["sum_x"])
        engine._sum_xx = float(state["sum_xx"])
        engine._sum_h = sum_h.copy()
        engine._sum_hh = np.asarray(
            state["sum_hh"], dtype=np.float64
        ).copy()
        engine._sum_xh = np.asarray(
            state["sum_xh"], dtype=np.float64
        ).copy()
        return engine

    def correlations(self) -> np.ndarray:
        """Pearson correlation of every candidate over all seen traces."""
        n = self.count
        if n < 2:
            return np.zeros(self.num_candidates)
        cov = self._sum_xh - self._sum_x * self._sum_h / n
        var_x = self._sum_xx - self._sum_x * self._sum_x / n
        var_h = self._sum_hh - self._sum_h * self._sum_h / n
        denom = np.sqrt(np.maximum(var_x, 0.0) * np.maximum(var_h, 0.0))
        with np.errstate(divide="ignore", invalid="ignore"):
            corr = np.where(denom > 0, cov / denom, 0.0)
        return corr


def normalize_checkpoints(
    checkpoints: Optional[Sequence[int]], num_traces: int
) -> np.ndarray:
    """The checkpoint grid every CPA driver records correlations at.

    ``None`` means :func:`default_checkpoints`.  Explicit points are
    sorted and deduplicated, must lie in ``[2, num_traces]``, and get a
    final ``num_traces`` appended when missing, so every provided trace
    contributes to the result (traces beyond the last explicit
    checkpoint used to be silently dropped).
    """
    if checkpoints is None:
        return default_checkpoints(num_traces)
    points = np.unique(np.asarray(checkpoints, dtype=np.int64))
    if points.size == 0 or points[0] < 2 or points[-1] > num_traces:
        raise ValueError("checkpoints must lie in [2, num_traces]")
    if points[-1] != num_traces:
        points = np.append(points, num_traces)
    return points


def run_cpa(
    leakage: np.ndarray,
    hypotheses: Union[np.ndarray, ClassTable],
    checkpoints: Optional[Sequence[int]] = None,
    correct_key: Optional[int] = None,
    classes: Optional[np.ndarray] = None,
) -> CPAResult:
    """Full CPA with progress over trace count.

    Args:
        leakage: (N,) measured leakage (Hamming weight of sensor bits,
            a single sensor bit, a TDC readout, ...).
        hypotheses: (N, 256) hypothesis matrix from
            :mod:`repro.attacks.models`; with ``classes``, a (C, 256)
            table (e.g. :func:`repro.attacks.models.single_bit_table`).
        checkpoints: trace counts at which to record correlations;
            normalized by :func:`normalize_checkpoints`.
        correct_key: true key byte for rank/MTD metrics.
        classes: optional (N,) per-trace table rows (ciphertext
            bytes); ``run_cpa(x, table, classes=c)`` is bit-identical
            to ``run_cpa(x, table[c])`` but never builds the (N, 256)
            block (see :meth:`StreamingCPA.update`).

    Returns:
        :class:`CPAResult` with one correlation row per checkpoint.
    """
    x = np.asarray(leakage, dtype=np.float64)
    if x.ndim != 1:
        raise ValueError("leakage must be 1-D")
    if classes is None:
        h = np.asarray(hypotheses)
        if h.ndim != 2 or h.shape[0] != x.shape[0]:
            raise ValueError("hypotheses must be (N, num_candidates)")
        num_candidates = h.shape[1]
    else:
        table = ClassTable.of(hypotheses)
        c = np.asarray(classes)
        # Checked whole, not only per segment: a longer ``classes``
        # would pass every segment's shape check.
        if c.shape != x.shape:
            raise ValueError("classes must be (N,), one per trace")
        num_candidates = table.num_candidates
    points = normalize_checkpoints(checkpoints, x.shape[0])
    engine = StreamingCPA(num_candidates=num_candidates)
    rows: List[np.ndarray] = []
    previous = 0
    for point in points.tolist():
        segment = slice(previous, point)
        if classes is None:
            engine.update(x[segment], h[segment])
        else:
            engine.update(x[segment], table, classes=c[segment])
        rows.append(engine.correlations())
        previous = point
    return CPAResult(
        checkpoints=points,
        correlations=np.vstack(rows),
        correct_key=correct_key,
    )
