"""Tests for trace alignment: shift estimation and gathering.

The correctness contract: an integer trigger misalignment is exactly
undone — ``apply_shifts`` moves float64 samples bitwise, so aligning a
shifted copy of the reference restores the interior samples exactly.
Edge cases pinned here (satellite): constant traces resolve to shift
0, a ``max_shift`` as large as the window is rejected, and a
single-trace batch works.

The native correlation search must return exactly the numpy
reference's shifts on every input: on real campaign chunks it certifies
each decision itself, and on ties, non-finite values and
ill-conditioned scales it hands the batch to the reference.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.aes import AES128
from repro.core.tracegen import PhysicalTraceGenerator, random_plaintexts
from repro.preprocess import (
    MisalignmentSpec,
    PreprocessSpec,
    resolve_preprocess,
)
from repro.preprocess.align import (
    align_traces,
    apply_shifts,
    crop,
    estimate_shifts,
    shift_candidates,
)
from repro.preprocess.spec import PreprocessError
from repro.util import kernels, kernels_native
from repro.util.rng import make_rng


def _reference(samples=64, seed=11):
    return make_rng(seed, "align-ref").normal(size=samples)


def _shifted_batch(reference, shifts):
    """Each trace carries the reference content ``s`` samples late."""
    length = reference.shape[0]
    out = np.empty((len(shifts), length))
    for row, s in enumerate(shifts):
        idx = np.clip(np.arange(length) - s, 0, length - 1)
        out[row] = reference[idx]
    return out


class TestEstimateShifts:
    @pytest.mark.parametrize("metric", ["correlation", "sad"])
    def test_recovers_known_integer_shifts(self, metric):
        reference = _reference()
        shifts = [-3, -1, 0, 2, 3]
        traces = _shifted_batch(reference, shifts)
        estimated = estimate_shifts(traces, reference, 4, metric)
        assert estimated.tolist() == shifts

    def test_alignment_restores_interior_samples_exactly(self):
        reference = _reference()
        shifts = [-2, 0, 3]
        traces = _shifted_batch(reference, shifts)
        aligned, est = align_traces(traces, reference, 4)
        assert est.tolist() == shifts
        for row, s in enumerate(shifts):
            lo, hi = max(0, -s), 64 - max(0, s)
            assert np.array_equal(aligned[row, lo:hi], reference[lo:hi])

    def test_constant_traces_resolve_to_shift_zero(self):
        reference = _reference()
        flat = np.full((5, reference.shape[0]), 0.73)
        assert estimate_shifts(flat, reference, 6).tolist() == [0] * 5
        assert estimate_shifts(
            flat, np.zeros_like(reference), 6, "sad"
        ).tolist() == [0] * 5

    def test_single_trace_batch(self):
        reference = _reference()
        trace = _shifted_batch(reference, [2])[0]  # 1-D input
        est = estimate_shifts(trace, reference, 4)
        assert est.shape == (1,)
        assert est[0] == 2
        aligned, _ = align_traces(trace, reference, 4)
        assert aligned.shape == (1, reference.shape[0])

    def test_shift_larger_than_window_rejected(self):
        reference = _reference(samples=16)
        traces = _shifted_batch(reference, [0, 1])
        with pytest.raises(PreprocessError, match="max_shift"):
            estimate_shifts(traces, reference, 16)
        # One less than the window length is the largest legal range.
        estimate_shifts(traces, reference, 15)

    def test_shift_beyond_search_range_clips_to_range(self):
        reference = _reference()
        traces = _shifted_batch(reference, [6])
        est = estimate_shifts(traces, reference, 3)
        assert -3 <= int(est[0]) <= 3

    def test_unknown_metric_rejected(self):
        reference = _reference()
        with pytest.raises(PreprocessError, match="metric"):
            estimate_shifts(
                _shifted_batch(reference, [0]), reference, 2, "dtw"
            )

    def test_reference_length_mismatch_rejected(self):
        reference = _reference()
        with pytest.raises(PreprocessError, match="reference length"):
            estimate_shifts(
                _shifted_batch(reference, [0]), reference[:-1], 2
            )


class TestApplyShifts:
    def test_gather_is_edge_clamped(self):
        traces = np.arange(8.0)[None, :]
        out = apply_shifts(traces, np.array([3]))
        assert out[0].tolist() == [3, 4, 5, 6, 7, 7, 7, 7]
        out = apply_shifts(traces, np.array([-2]))
        assert out[0].tolist() == [0, 0, 0, 1, 2, 3, 4, 5]

    def test_shift_count_mismatch_rejected(self):
        with pytest.raises(PreprocessError, match="shifts"):
            apply_shifts(np.zeros((3, 8)), np.array([0, 1]))


class TestCropAndCandidates:
    def test_crop_bounds_checked(self):
        traces = np.zeros((2, 10))
        assert crop(traces, 2, 7).shape == (2, 5)
        with pytest.raises(PreprocessError, match="window"):
            crop(traces, 7, 2)
        with pytest.raises(PreprocessError, match="window"):
            crop(traces, 0, 11)

    def test_candidates_ordered_by_magnitude(self):
        assert shift_candidates(2) == [0, -1, 1, -2, 2]
        with pytest.raises(PreprocessError):
            shift_candidates(0)


# ----------------------------------------------------------------------
# Native correlation search: bit-identical shifts, certified or not
# ----------------------------------------------------------------------

_PROVIDER = kernels_native.load_native()
needs_native_search = pytest.mark.skipif(
    _PROVIDER is None
    or ("resample", "estimate_shifts") not in _PROVIDER.ops,
    reason="no native correlation shift search on this host",
)


def _native_shifts(traces, reference, max_shift):
    """Native shifts plus how many rows fell back to the reference."""
    before = kernels_native.alignment_counts()
    with kernels.use("resample=native"):
        shifts = estimate_shifts(traces, reference, max_shift)
    after = kernels_native.alignment_counts()
    assert after["rows"] - before["rows"] == np.atleast_2d(traces).shape[0]
    return shifts, after["fallback_rows"] - before["fallback_rows"]


def _assert_native_matches(traces, reference, max_shift):
    """Native == numpy reference exactly; returns the fallback rows."""
    shifts, fallback = _native_shifts(traces, reference, max_shift)
    with kernels.use("resample=numpy"):
        expected = estimate_shifts(traces, reference, max_shift)
    assert shifts.dtype == expected.dtype == np.int64
    assert np.array_equal(shifts, expected)
    return fallback


@pytest.fixture(scope="module")
def campaign_chunks():
    """Misaligned physical-campaign chunks and their references."""
    chunks = {}
    for severity in (1, 2, 3):
        generator = PhysicalTraceGenerator(
            AES128(bytes(range(16))),
            misalignment=MisalignmentSpec(
                shift_mode="uniform", shift_samples=severity
            ),
        )
        spec = PreprocessSpec(align="correlation", max_shift=4)
        reference = resolve_preprocess(
            spec, generator, 7, columns=(3,)
        ).reference
        voltages = generator.generate(
            random_plaintexts(1500, seed=severity), seed=20 + severity
        )["voltages"]
        chunks[severity] = (voltages, reference)
    return chunks


@needs_native_search
class TestNativeShiftSearch:
    @pytest.mark.parametrize("severity", [1, 2, 3])
    @pytest.mark.parametrize("max_shift", [1, 4, 8, "L-1"])
    def test_campaign_chunks_bit_identical(
        self, campaign_chunks, severity, max_shift
    ):
        voltages, reference = campaign_chunks[severity]
        length = voltages.shape[1]
        full_range = max_shift == "L-1"
        fallback = _assert_native_matches(
            voltages, reference, length - 1 if full_range else max_shift
        )
        if not full_range:
            # Real campaign traces are certified row by row.
            assert fallback == 0

    def test_constant_rows_need_no_fallback(self):
        reference = _reference()
        traces = _shifted_batch(reference, [0, 2, -1])
        traces[1] = 0.73
        assert _assert_native_matches(traces, reference, 4) == 0

    def test_rows_constant_inside_some_overlaps(self):
        reference = _reference(samples=16)
        traces = _shifted_batch(reference, [0, 1, -2])
        # Constant except for the last three samples: every overlap
        # that ends before them is exactly constant.
        traces[1, :13] = 0.25
        traces[2, 3:] = -1.5
        assert _assert_native_matches(traces, reference, 15) > 0

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_nonfinite_rows_fall_back(self, bad):
        reference = _reference()
        traces = _shifted_batch(reference, [1, 0, -2])
        traces[0, 5] = bad
        traces[2, :] = bad
        with np.errstate(invalid="ignore"):
            assert _assert_native_matches(traces, reference, 4) == 2

    def test_exact_tie_falls_back(self):
        # Reference peak at 32, trace impulses at 31 and 33: shifts -1
        # and +1 match one impulse each and score exactly the same.
        reference = np.zeros(64)
        reference[32] = 1.0
        tie = np.zeros((1, 64))
        tie[0, [31, 33]] = 1.0
        traces = np.vstack([tie, _shifted_batch(_reference(), [2])])
        assert _assert_native_matches(traces, reference, 3) == 1

    def test_mirror_symmetric_ties_fall_back(self):
        # Reference and traces mirror-symmetric about the centre: every
        # shift s scores exactly like -s, and each trace holds two
        # copies of the reference, one sample early and one late, so
        # -1 and +1 tie for the best score.  The two spans are summed
        # in opposite orders, so their float scores differ in the last
        # bits: only the certificate's margin keeps the native search
        # from picking a side the reference may not.
        rng = np.random.default_rng(5)

        def mirrored():
            half = rng.normal(size=33)
            return np.concatenate([half, half[-2::-1]])

        reference = mirrored()
        rows = [
            np.roll(reference, 1) + np.roll(reference, -1) + 0.2 * mirrored()
            for _ in range(64)
        ]
        assert _assert_native_matches(np.array(rows), reference, 3) == 64

    @pytest.mark.parametrize(
        "dc, ac", [(1e6, 1e-9), (1.0, 1e-14), (1e-200, 1e-200)]
    )
    def test_ill_conditioned_scales_fall_back(self, dc, ac):
        reference = _reference()
        traces = dc + ac * _shifted_batch(reference, [0, 3, -2, 1])
        assert _assert_native_matches(traces, dc + ac * reference, 4) == 4

    def test_one_row_batch(self):
        reference = _reference()
        trace = _shifted_batch(reference, [3])[0]
        shifts, fallback = _native_shifts(trace, reference, 4)
        assert shifts.tolist() == [3] and fallback == 0
        _assert_native_matches(trace, reference, 4)

    def test_non_contiguous_views(self, campaign_chunks):
        voltages, reference = campaign_chunks[2]
        wide = np.repeat(voltages[:200], 2, axis=1)
        for view in (
            voltages[::3],
            np.asfortranarray(voltages[:300]),
            wide[:, ::2],
        ):
            assert not view.flags.c_contiguous
            assert _assert_native_matches(view, reference, 4) == 0

    @settings(max_examples=40, deadline=None)
    @given(
        num=st.integers(1, 12),
        length=st.integers(12, 64),
        dc_exp=st.integers(-3, 3),
        ac_exp=st.integers(-3, 3),
        offset=st.floats(-1.0, 1.0, allow_nan=False),
        shift_frac=st.floats(0.0, 1.0),
        duplicate=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_property_well_conditioned_rows_are_certified(
        self, num, length, dc_exp, ac_exp, offset, shift_frac, duplicate,
        seed,
    ):
        # DC at most 1e3 times the signal, overlaps at least 3/4 of the
        # trace: every row must take the C path, and still match.
        rng = np.random.default_rng(seed)
        ac = 10.0 ** ac_exp
        dc = ac * (offset + 10.0 ** dc_exp)
        max_shift = 1 + int(shift_frac * (length // 4 - 1))
        reference = dc + ac * rng.normal(size=length)
        shifts = rng.integers(-max_shift, max_shift + 1, size=num)
        traces = dc + ac * (
            _shifted_batch((reference - dc) / ac, shifts)
            + 0.3 * rng.normal(size=(num, length))
        )
        if duplicate and num > 1:
            traces[num // 2:] = traces[: num - num // 2]
        assert _assert_native_matches(traces, reference, max_shift) == 0

    @settings(max_examples=40, deadline=None)
    @given(
        num=st.integers(1, 12),
        length=st.integers(2, 40),
        dc_exp=st.integers(-6, 7),
        ac_exp=st.integers(-12, 3),
        offset=st.floats(-1e3, 1e3, allow_nan=False),
        shift_frac=st.floats(0.0, 1.0),
        duplicate=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_property_native_equals_reference(
        self, num, length, dc_exp, ac_exp, offset, shift_frac, duplicate,
        seed,
    ):
        rng = np.random.default_rng(seed)
        dc = offset + 10.0 ** dc_exp
        ac = 10.0 ** ac_exp
        reference = dc + ac * rng.normal(size=length)
        shifts = rng.integers(-(length - 1), length, size=num)
        traces = dc + ac * (
            _shifted_batch((reference - dc) / ac, shifts)
            + 0.3 * rng.normal(size=(num, length))
        )
        if duplicate and num > 1:
            traces[num // 2:] = traces[: num - num // 2]
        max_shift = 1 + int(shift_frac * (length - 2))
        _assert_native_matches(traces, reference, max_shift)

