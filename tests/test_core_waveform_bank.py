"""Tests for the vectorized waveform-bank sampling kernel.

The load-bearing property is bit-exact equivalence with the legacy
per-endpoint loop (`SensorCalibration.sample_bits_reference`) in every
regime: common query time, per-register jitter (both the padded
few-edge kernel and the deep-bank fallback), and shared capture-clock
jitter.
"""

import numpy as np
import pytest

from repro.core import BenignSensor, WaveformBank, build_bank
from repro.core.calibration import EndpointWaveform
from repro.core.waveform_bank import PADDED_EDGE_LIMIT
from repro.util import kernels
from repro.util.rng import derive_seed, make_rng


def _voltage_sweep(n, seed=11):
    rng = make_rng(derive_seed(seed, "bank-test"))
    return rng.normal(1.0, 0.025, size=n)


def _shared_jitter(n, seed=12):
    rng = make_rng(derive_seed(seed, "bank-test-shared"))
    return rng.normal(0.0, 85.0, size=n)


@pytest.fixture(scope="module")
def alu_calibration(alu_sensor):
    return alu_sensor.instances[0].calibration


@pytest.fixture(scope="module")
def c6288_calibration(c6288_sensor):
    return c6288_sensor.instances[0].calibration


class TestBankConstruction:
    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            WaveformBank([])

    def test_shapes(self, alu_calibration):
        bank = alu_calibration.bank
        assert bank.num_bits == alu_calibration.num_bits
        assert bank.offsets.shape == (bank.num_bits + 1,)
        assert bank.flat_times_ps.shape == bank.flat_values.shape
        assert bank.interval_words.shape == (
            bank.num_intervals,
            bank.num_bits,
        )

    def test_initial_values_match_waveforms(self, alu_calibration):
        bank = alu_calibration.bank
        expected = [w.initial_value for w in alu_calibration.waveforms]
        assert bank.initial_values.tolist() == expected

    def test_bank_is_cached_on_calibration(self, alu_calibration):
        assert alu_calibration.bank is alu_calibration.bank

    def test_build_bank_helper(self, alu_calibration):
        bank = build_bank(alu_calibration.waveforms)
        assert bank.num_bits == alu_calibration.num_bits

    def test_rejects_2d_queries(self, alu_calibration):
        with pytest.raises(ValueError):
            alu_calibration.bank.sample(np.zeros((3, 3)))


class TestEdgeTieSemantics:
    def test_query_on_edge_sees_post_edge_value(self):
        # value_at uses searchsorted side="right": a query landing
        # exactly on an edge time observes the post-edge value.  The
        # bank must reproduce that in the common-query-time kernel.
        w0 = EndpointWaveform(
            "a",
            np.array([-np.inf, 100.0, 300.0]),
            np.array([0, 1, 0], dtype=np.uint8),
        )
        w1 = EndpointWaveform(
            "b",
            np.array([-np.inf, 200.0]),
            np.array([1, 0], dtype=np.uint8),
        )
        bank = WaveformBank([w0, w1])
        out = bank.sample(np.array([99.0, 100.0, 200.0, 300.0, 301.0]))
        assert out[:, 0].tolist() == [0, 1, 1, 0, 0]
        assert out[:, 1].tolist() == [1, 1, 0, 0, 0]
        for t in (99.0, 100.0, 200.0, 300.0, 301.0):
            row = bank.sample(np.array([t]))[0]
            assert row[0] == w0.value_at(np.array([t]))[0]
            assert row[1] == w1.value_at(np.array([t]))[0]


class TestEquivalenceALU:
    """ALU endpoints have few edges → padded jitter kernel."""

    def test_zero_jitter(self, alu_calibration):
        v = _voltage_sweep(4000)
        fast = alu_calibration.sample_bits(v)
        slow = alu_calibration.sample_bits_reference(v)
        assert np.array_equal(fast, slow)

    def test_per_register_jitter_same_stream(self, alu_calibration):
        v = _voltage_sweep(4000)
        fast = alu_calibration.sample_bits(v, jitter_ps=45.0, seed=3)
        slow = alu_calibration.sample_bits_reference(
            v, jitter_ps=45.0, seed=3
        )
        assert np.array_equal(fast, slow)

    def test_shared_plus_register_jitter(self, alu_calibration):
        v = _voltage_sweep(4000)
        shared = _shared_jitter(4000)
        fast = alu_calibration.sample_bits(
            v, jitter_ps=45.0, seed=9, shared_jitter_ps=shared
        )
        slow = alu_calibration.sample_bits_reference(
            v, jitter_ps=45.0, seed=9, shared_jitter_ps=shared
        )
        assert np.array_equal(fast, slow)

    def test_different_seeds_differ(self, alu_calibration):
        v = _voltage_sweep(2000)
        a = alu_calibration.sample_bits(v, jitter_ps=45.0, seed=1)
        b = alu_calibration.sample_bits(v, jitter_ps=45.0, seed=2)
        assert not np.array_equal(a, b)


class TestEquivalenceC6288:
    """C6288 endpoints have deep waveforms → per-endpoint fallback."""

    def test_zero_jitter(self, c6288_calibration):
        v = _voltage_sweep(1500)
        fast = c6288_calibration.sample_bits(v)
        slow = c6288_calibration.sample_bits_reference(v)
        assert np.array_equal(fast, slow)

    def test_shared_plus_register_jitter(self, c6288_calibration):
        v = _voltage_sweep(1500)
        shared = _shared_jitter(1500)
        fast = c6288_calibration.sample_bits(
            v, jitter_ps=45.0, seed=5, shared_jitter_ps=shared
        )
        slow = c6288_calibration.sample_bits_reference(
            v, jitter_ps=45.0, seed=5, shared_jitter_ps=shared
        )
        assert np.array_equal(fast, slow)


class TestSharedJitterValidation:
    def test_shape_mismatch_rejected(self, alu_calibration):
        v = _voltage_sweep(100)
        with pytest.raises(ValueError):
            alu_calibration.sample_bits(
                v, shared_jitter_ps=np.zeros(99)
            )
        with pytest.raises(ValueError):
            alu_calibration.sample_bits_reference(
                v, shared_jitter_ps=np.zeros((100, 1))
            )


class TestFullSensorEquivalence:
    def test_sensor_level_bit_exact(self):
        # Through BenignSensor.sample_bits (shared jitter drawn
        # internally, per-instance seeds): force the reference loop by
        # swapping the method, compare against the bank path.
        sensor = BenignSensor.from_name("alu")
        v = _voltage_sweep(2000)
        fast = sensor.sample_bits(v, seed=21)

        try:
            for inst in sensor.instances:
                inst.calibration.sample_bits = (
                    inst.calibration.sample_bits_reference
                )
            slow = sensor.sample_bits(v, seed=21)
        finally:
            for inst in sensor.instances:
                del inst.calibration.__dict__["sample_bits"]
        assert np.array_equal(fast, slow)


SAMPLER_BACKENDS = kernels.available_backends("pdn")


def _sampled(backend, bank, op, tau, jitter_ps, seed):
    """One backend's bits and the generator state after the call."""
    rng = make_rng(seed, "endpoint-jitter")
    with kernels.use(backend):
        method = getattr(bank, op)
        bits = method(tau, jitter_ps, rng)
    return bits, rng.bit_generator.state


def _assert_backend_matches_numpy(backend, bank, op, tau, jitter_ps, seed):
    want = _sampled("numpy", bank, op, tau, jitter_ps, seed)
    got = _sampled(backend, bank, op, tau, jitter_ps, seed)
    assert np.array_equal(got[0], want[0])
    assert got[1] == want[1]


class TestSamplingBackends:
    """The pdn sampling ops agree bit for bit on every backend."""

    @pytest.mark.parametrize("backend", SAMPLER_BACKENDS)
    def test_alu_calibration_path(self, backend, alu_calibration):
        v = _voltage_sweep(6000)
        shared = _shared_jitter(6000)
        kwargs = dict(jitter_ps=45.0, seed=17, shared_jitter_ps=shared)
        with kernels.use("numpy"):
            want = alu_calibration.sample_bits(v, **kwargs)
        with kernels.use(backend):
            got = alu_calibration.sample_bits(v, **kwargs)
        assert np.array_equal(got, want)
        assert np.array_equal(
            got, alu_calibration.sample_bits_reference(v, **kwargs)
        )

    @pytest.mark.parametrize("backend", SAMPLER_BACKENDS)
    @pytest.mark.parametrize("seed", [5, 6])
    def test_c6288_per_endpoint(self, backend, seed, c6288_calibration):
        bank = c6288_calibration.bank
        assert bank.max_edges > PADDED_EDGE_LIMIT
        tau = c6288_calibration._query_times(
            _voltage_sweep(1500), _shared_jitter(1500)
        )
        _assert_backend_matches_numpy(
            backend, bank, "_sample_per_endpoint", tau, 45.0, seed
        )

    @pytest.mark.parametrize("backend", SAMPLER_BACKENDS)
    def test_deep_bank_nonfinite_queries(self, backend):
        # searchsorted orders NaN after every edge (index = length), the
        # padded count never counts it: each op keeps its own rule.
        rng = make_rng(derive_seed(3, "deep-bank"))
        waveforms = []
        for i in range(9):
            count = 40 + 3 * i
            times = np.sort(rng.uniform(-500.0, 500.0, size=count))
            times[: 2 + i % 3] = times[0]  # repeated edge times
            values = rng.integers(0, 2, size=count + 1).astype(np.uint8)
            waveforms.append(EndpointWaveform(
                "d%d" % i, np.concatenate(([-np.inf], times)), values,
            ))
        bank = WaveformBank(waveforms)
        tau = rng.normal(0.0, 300.0, size=3000)
        tau[::5] = np.nan
        tau[1::7] = np.inf
        tau[2::9] = -np.inf
        _assert_backend_matches_numpy(
            backend, bank, "_sample_per_endpoint", tau, 20.0, 8
        )
        bits, _ = _sampled(
            backend, bank, "_sample_per_endpoint", tau, 20.0, 8
        )
        last = bank.flat_values[bank.offsets[1:] - 1]
        nan_rows = bits[np.isnan(tau)]
        assert nan_rows.shape[0] > 0
        assert np.array_equal(nan_rows, np.broadcast_to(last, nan_rows.shape))
