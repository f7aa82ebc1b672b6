"""Tests for the CPA engine."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from repro.aes import AES128, last_round_activity, random_ciphertexts
from repro.attacks import (
    NonFiniteValuesError,
    StreamingCPA,
    default_checkpoints,
    run_cpa,
    single_bit_hypothesis,
)
from repro.attacks.cpa import ClassTable, _class_sums
from repro.attacks.models import single_bit_table


def synthetic_campaign(num_traces=30_000, noise=4.0, seed=0):
    """Leakage with a known embedded key byte."""
    cipher = AES128(bytes(range(16)))
    k10 = cipher.last_round_key
    cts = random_ciphertexts(num_traces, seed=seed)
    rng = np.random.default_rng(seed + 1)
    leak = -last_round_activity(cts, k10, column=3) + rng.normal(
        0, noise, num_traces
    )
    hypotheses = single_bit_hypothesis(cts[:, 3])
    return leak, hypotheses, k10[3]


class TestStreamingCPA:
    def test_matches_numpy_corrcoef(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=500)
        h = rng.normal(size=(500, 4))
        engine = StreamingCPA(num_candidates=4)
        engine.update(x[:200], h[:200])
        engine.update(x[200:], h[200:])
        corr = engine.correlations()
        for k in range(4):
            expected = np.corrcoef(x, h[:, k])[0, 1]
            assert corr[k] == pytest.approx(expected, abs=1e-10)

    def test_shape_mismatch_rejected(self):
        engine = StreamingCPA(num_candidates=4)
        with pytest.raises(ValueError):
            engine.update(np.zeros(10), np.zeros((10, 3)))

    def test_fewer_than_two_traces_gives_zero(self):
        engine = StreamingCPA(num_candidates=2)
        engine.update(np.array([1.0]), np.array([[0.0, 1.0]]))
        assert np.allclose(engine.correlations(), 0.0)

    def test_constant_leakage_gives_zero(self):
        engine = StreamingCPA(num_candidates=2)
        engine.update(np.ones(100), np.random.default_rng(0).normal(size=(100, 2)))
        assert np.allclose(engine.correlations(), 0.0)


class TestDefaultCheckpoints:
    def test_covers_full_range(self):
        points = default_checkpoints(100_000)
        assert points[-1] == 100_000
        assert points[0] >= 2

    def test_strictly_increasing(self):
        points = default_checkpoints(50_000)
        assert np.all(np.diff(points) > 0)

    def test_small_trace_count(self):
        points = default_checkpoints(100)
        assert points[-1] == 100

    def test_rejects_tiny(self):
        with pytest.raises(ValueError):
            default_checkpoints(1)


class TestRunCpa:
    def test_recovers_embedded_key(self):
        leak, hypotheses, correct = synthetic_campaign()
        result = run_cpa(leak, hypotheses, correct_key=correct)
        assert result.best_guess == correct
        assert result.disclosed

    def test_mtd_reasonable(self):
        leak, hypotheses, correct = synthetic_campaign()
        result = run_cpa(leak, hypotheses, correct_key=correct)
        mtd = result.measurements_to_disclosure()
        assert mtd is not None and mtd < 30_000

    def test_pure_noise_not_disclosed(self):
        rng = np.random.default_rng(3)
        leak = rng.normal(size=20_000)
        cts = random_ciphertexts(20_000, seed=4)
        hypotheses = single_bit_hypothesis(cts[:, 3])
        result = run_cpa(leak, hypotheses, correct_key=77)
        # With pure noise the key can only be "found" by luck (p=1/256);
        # require that the result is not a stable early disclosure.
        mtd = result.measurements_to_disclosure()
        assert mtd is None or mtd > 1000

    def test_progress_shape(self):
        leak, hypotheses, correct = synthetic_campaign(num_traces=5000)
        result = run_cpa(leak, hypotheses, correct_key=correct)
        assert result.correlations.shape == (len(result.checkpoints), 256)

    def test_custom_checkpoints(self):
        leak, hypotheses, correct = synthetic_campaign(num_traces=5000)
        result = run_cpa(
            leak, hypotheses, checkpoints=[1000, 5000], correct_key=correct
        )
        assert result.checkpoints.tolist() == [1000, 5000]

    def test_checkpoint_validation(self):
        leak, hypotheses, correct = synthetic_campaign(num_traces=1000)
        with pytest.raises(ValueError):
            run_cpa(leak, hypotheses, checkpoints=[2000])

    def test_correlation_magnitude_grows_clean(self):
        leak, hypotheses, correct = synthetic_campaign(noise=1.0)
        result = run_cpa(leak, hypotheses, correct_key=correct)
        correct_track = np.abs(result.correlations[:, correct])
        assert correct_track[-1] > correct_track[0]

    def test_key_ranks_degenerate_guard(self):
        # A constant bit must not look like a disclosure.
        leak = np.ones(1000)
        cts = random_ciphertexts(1000, seed=5)
        hypotheses = single_bit_hypothesis(cts[:, 3])
        result = run_cpa(leak, hypotheses, correct_key=10)
        assert result.measurements_to_disclosure() is None
        assert result.key_ranks().max() == 255

    def test_final_correlations_are_abs(self):
        leak, hypotheses, correct = synthetic_campaign(num_traces=3000)
        result = run_cpa(leak, hypotheses, correct_key=correct)
        assert result.final_correlations.min() >= 0

    def test_requires_correct_key_for_metrics(self):
        leak, hypotheses, _ = synthetic_campaign(num_traces=2000)
        result = run_cpa(leak, hypotheses)
        with pytest.raises(ValueError):
            result.key_ranks()

    def test_leakage_shape_validation(self):
        with pytest.raises(ValueError):
            run_cpa(np.zeros((10, 2)), np.zeros((10, 256)))
        with pytest.raises(ValueError):
            run_cpa(np.zeros(10), np.zeros((5, 256)))

    def test_key_rank_at(self):
        leak, hypotheses, correct = synthetic_campaign()
        result = run_cpa(leak, hypotheses, correct_key=correct)
        assert result.key_rank_at(-1) == 0


class TestCheckpointRegressions:
    """Pins for two historical checkpoint bugs."""

    def test_small_campaign_grid_not_degenerate(self):
        # Campaigns below the 50-trace grid start used to produce a
        # descending logspace that filtered down to the single point
        # [num_traces]; the grid must instead span [2, num_traces].
        for num_traces in (5, 10, 30, 49, 50):
            points = default_checkpoints(num_traces)
            assert points[0] == 2, num_traces
            assert points[-1] == num_traces
            assert len(points) > 1
            assert np.all(np.diff(points) > 0)

    def test_grid_start_unchanged_for_large_campaigns(self):
        points = default_checkpoints(100_000)
        assert points[0] == 50

    def test_traces_after_last_checkpoint_not_dropped(self):
        # run_cpa used to silently ignore traces beyond the last
        # explicit checkpoint; a final checkpoint at num_traces is now
        # always appended.
        leak, hypotheses, correct = synthetic_campaign(num_traces=5000)
        partial = run_cpa(
            leak, hypotheses, checkpoints=[1000], correct_key=correct
        )
        assert partial.checkpoints.tolist() == [1000, 5000]
        full = run_cpa(
            leak, hypotheses, checkpoints=[1000, 5000],
            correct_key=correct,
        )
        assert np.array_equal(
            partial.correlations, full.correlations
        )

    def test_explicit_final_checkpoint_not_duplicated(self):
        leak, hypotheses, correct = synthetic_campaign(num_traces=3000)
        result = run_cpa(
            leak, hypotheses, checkpoints=[1000, 3000],
            correct_key=correct,
        )
        assert result.checkpoints.tolist() == [1000, 3000]


class TestFiniteGuard:
    """NaN/Inf must be rejected at the accumulator, naming the traces."""

    def _blocks(self, n=20):
        rng = np.random.default_rng(0)
        leakage = rng.integers(0, 8, n).astype(np.float64)
        hypotheses = rng.integers(0, 2, (n, 4)).astype(np.float64)
        return leakage, hypotheses

    def test_nan_leakage_rejected_with_indices(self):
        from repro.attacks import NonFiniteValuesError

        leakage, hypotheses = self._blocks()
        leakage[3] = np.nan
        leakage[17] = np.inf
        engine = StreamingCPA(num_candidates=4)
        with pytest.raises(NonFiniteValuesError) as excinfo:
            engine.update(leakage, hypotheses)
        error = excinfo.value
        assert error.which == "leakage"
        assert error.indices.tolist() == [3, 17]
        assert "3" in str(error) and "17" in str(error)
        # The rejected block must not have touched the state.
        assert engine.count == 0

    def test_indices_offset_by_prior_traces(self):
        from repro.attacks import NonFiniteValuesError

        leakage, hypotheses = self._blocks()
        engine = StreamingCPA(num_candidates=4)
        engine.update(leakage, hypotheses)
        bad = leakage.copy()
        bad[5] = np.nan
        with pytest.raises(NonFiniteValuesError) as excinfo:
            engine.update(bad, hypotheses)
        assert excinfo.value.indices.tolist() == [25]

    def test_nan_hypotheses_rejected(self):
        from repro.attacks import NonFiniteValuesError

        leakage, hypotheses = self._blocks()
        hypotheses[7, 2] = np.inf
        with pytest.raises(NonFiniteValuesError) as excinfo:
            StreamingCPA(num_candidates=4).update(leakage, hypotheses)
        assert excinfo.value.which == "hypotheses"
        assert excinfo.value.indices.tolist() == [7]

    def test_error_message_caps_listed_indices(self):
        from repro.attacks import NonFiniteValuesError

        leakage, hypotheses = self._blocks()
        leakage[:] = np.nan
        with pytest.raises(NonFiniteValuesError) as excinfo:
            StreamingCPA(num_candidates=4).update(leakage, hypotheses)
        assert "(20 total)" in str(excinfo.value)


class TestStateRoundtrip:
    def test_state_arrays_roundtrip_bit_exact(self):
        rng = np.random.default_rng(1)
        leakage = rng.integers(0, 64, 500).astype(np.float64)
        hypotheses = rng.integers(0, 2, (500, 16)).astype(np.float64)
        engine = StreamingCPA(num_candidates=16)
        engine.update(leakage, hypotheses)
        rebuilt = StreamingCPA.from_state_arrays(engine.state_arrays())
        assert rebuilt.count == engine.count
        assert rebuilt.num_candidates == 16
        assert np.array_equal(
            rebuilt.correlations(), engine.correlations()
        )
        # Continuing both must stay identical (state is complete).
        engine.update(leakage, hypotheses)
        rebuilt.update(leakage, hypotheses)
        assert np.array_equal(
            rebuilt.correlations(), engine.correlations()
        )

    def test_state_arrays_are_copies(self):
        engine = StreamingCPA(num_candidates=4)
        engine.update(
            np.ones(4), np.ones((4, 4))
        )
        state = engine.state_arrays()
        state["sum_h"][:] = -99.0
        assert (engine._sum_h != -99.0).all()


def _outcome(x, table, classes, prior, routed):
    """The state one update leaves (after an optional gathered prior
    block), or the error it raises, as comparable values."""
    engine = StreamingCPA(num_candidates=table.shape[1])
    try:
        if prior is not None:
            engine.update(prior[0], table[prior[1]])
        if routed:
            engine.update(x, table, classes=classes)
        else:
            engine.update(x, table[classes])
    except NonFiniteValuesError as error:
        return ("error", error.which, error.indices.tolist())
    return {
        name: np.asarray(value).tobytes()
        for name, value in engine.state_arrays().items()
    }


_LEAKAGE = {
    "integer": st.integers(0, 200).map(float),
    "negative": st.integers(-(2 ** 20), 2 ** 20).map(float),
    "continuous": st.floats(-1e3, 1e3, allow_nan=False),
    "huge": st.integers(2 ** 25, 2 ** 40).map(float),
}


@st.composite
def class_blocks(draw, non_finite=False, exact=False):
    num_classes = draw(st.integers(1, 256))
    num_candidates = draw(st.integers(1, 8))
    n = draw(st.integers(0, 48))
    integer_table = st.integers(-(2 ** 12), 2 ** 12).map(float)
    if draw(st.booleans()):
        table = draw(hnp.arrays(np.int8, (num_classes, num_candidates)))
    else:
        table = draw(hnp.arrays(
            np.float64, (num_classes, num_candidates),
            elements=integer_table if exact else st.one_of(
                integer_table, st.floats(-8, 8, allow_nan=False)
            ),
        ))
    kinds = ["integer", "negative"] if exact else sorted(_LEAKAGE)
    x = draw(hnp.arrays(
        np.float64, n, elements=_LEAKAGE[draw(st.sampled_from(kinds))]
    ))
    classes = draw(hnp.arrays(
        draw(st.sampled_from([np.uint8, np.int64])), n,
        elements=st.integers(0, min(num_classes, 256) - 1),
    ))
    prior = None
    if draw(st.booleans()):
        m = draw(st.integers(0, 16))
        rows = st.integers(0, num_classes - 1)
        prior = (
            draw(hnp.arrays(np.float64, m, elements=_LEAKAGE["integer"])),
            draw(hnp.arrays(np.int64, m, elements=rows)),
        )
    if non_finite:
        bad = st.sampled_from([np.nan, np.inf, -np.inf])
        table = table.astype(np.float64)
        for _ in range(draw(st.integers(1, 3))):
            if n and draw(st.booleans()):
                x[draw(st.integers(0, n - 1))] = draw(bad)
            else:
                cell = (
                    draw(st.integers(0, num_classes - 1)),
                    draw(st.integers(0, num_candidates - 1)),
                )
                table[cell] = draw(bad)
    return x, table, classes, prior


class TestClassRoute:
    """``update(x, t, classes=c)`` is ``update(x, t[c])``, bit for bit."""

    @settings(max_examples=150, deadline=None)
    @given(class_blocks())
    def test_matches_gathered_update(self, block):
        assert _outcome(*block, routed=True) == _outcome(
            *block, routed=False
        )

    @settings(max_examples=100, deadline=None)
    @given(class_blocks(exact=True))
    def test_exact_blocks_take_the_class_route(self, block):
        # Integer leakage and tables well inside the 2^53 budget must
        # be folded per class, so the property above tests that route
        # and not only the gathered fallback.
        x, table, classes, _ = block
        assert _class_sums(x, classes, ClassTable(table)) is not None
        assert _outcome(*block, routed=True) == _outcome(
            *block, routed=False
        )

    @settings(max_examples=100, deadline=None)
    @given(class_blocks(non_finite=True))
    def test_non_finite_raises_like_gathered_update(self, block):
        # A NaN/inf in a table row no trace selects raises nothing on
        # either form; anything else names the same traces.
        assert _outcome(*block, routed=True) == _outcome(
            *block, routed=False
        )

    def test_non_finite_names_offending_traces(self):
        table = np.zeros((4, 3))
        table[2, 1] = np.nan
        engine = StreamingCPA(num_candidates=3)
        engine.update(np.ones(5), table, classes=np.zeros(5, np.uint8))
        with pytest.raises(NonFiniteValuesError) as excinfo:
            engine.update(
                np.ones(4), table, classes=np.array([0, 2, 1, 2])
            )
        assert excinfo.value.which == "hypotheses"
        assert excinfo.value.indices.tolist() == [6, 8]
        x = np.ones(4)
        x[3] = np.inf
        with pytest.raises(NonFiniteValuesError) as excinfo:
            engine.update(x, table, classes=np.zeros(4, np.int64))
        assert excinfo.value.which == "leakage"
        assert excinfo.value.indices.tolist() == [8]
        assert engine.count == 5

    @pytest.mark.parametrize(
        "classes",
        [np.array([0, 4, 1]), np.array([0, -1, 1]), np.array([0.0, 1, 2])],
    )
    def test_bad_classes_rejected_on_one_line(self, classes):
        engine = StreamingCPA(num_candidates=2)
        with pytest.raises(ValueError) as excinfo:
            engine.update(np.ones(3), np.ones((4, 2)), classes=classes)
        assert "\n" not in str(excinfo.value)
        assert "classes" in str(excinfo.value)
        assert engine.count == 0

    @pytest.mark.parametrize(
        "table, num_classes",
        [((4, 2), 2), ((4, 3), 3), ((4,), 3)],
    )
    def test_shape_mismatches_rejected(self, table, num_classes):
        engine = StreamingCPA(num_candidates=2)
        with pytest.raises(ValueError):
            engine.update(
                np.ones(3), np.ones(table), classes=np.zeros(num_classes, int)
            )

    def test_exactness_budget_picks_the_route(self):
        classes = np.zeros(2, np.intp)
        ones = ClassTable(np.ones((1, 1)))
        # sum x**2 reaches 2^53 only with both traces.
        assert _class_sums(np.array([2.0 ** 26]), classes[:1], ones)
        assert _class_sums(np.full(2, 2.0 ** 26), classes, ones) is None
        # B * max t**2, which also bounds sum|x| * max|t|.
        tall = ClassTable(np.array([[1.0], [-(2.0 ** 26)]]))
        assert _class_sums(np.full(1, 3.0), classes[:1], tall)
        assert _class_sums(np.full(2, 3.0), classes, tall) is None
        # Non-integer leakage or table.
        assert _class_sums(np.array([0.5]), classes[:1], ones) is None
        half = ClassTable(np.full((1, 1), 0.5))
        assert not half.exact
        assert _class_sums(np.ones(1), classes[:1], half) is None

    def test_over_budget_block_falls_back_bit_identically(self):
        x = np.array([2.0 ** 40 + 1, 3.0, 2.0 ** 40 - 7])
        table = np.array([[1.0, 2.0], [3.0, -1.0]])
        classes = np.array([1, 0, 1])
        assert _class_sums(x, classes, ClassTable(table)) is None
        assert _outcome(x, table, classes, None, routed=True) == _outcome(
            x, table, classes, None, routed=False
        )

    def test_run_cpa_classes_matches_block(self):
        leak, _, key = synthetic_campaign(num_traces=5000)
        cts = random_ciphertexts(5000, seed=0)[:, 3]
        integer = np.rint(leak * 16)
        for x in (integer, leak):
            got = run_cpa(
                x, single_bit_table(), correct_key=key, classes=cts
            )
            expected = run_cpa(
                x, single_bit_hypothesis(cts), correct_key=key
            )
            assert np.array_equal(got.checkpoints, expected.checkpoints)
            assert np.array_equal(got.correlations, expected.correlations)
        # Too few or too many classes; each segment alone would match.
        with pytest.raises(ValueError):
            run_cpa(integer, single_bit_table(), classes=cts[:10])
        with pytest.raises(ValueError):
            run_cpa(integer[:100], single_bit_table(), classes=cts)
