"""Tests for full 16-byte key recovery."""

import numpy as np
import pytest

from repro.aes import (
    AES128,
    LeakageModel,
    SHIFT_ROWS_SOURCE,
    expand_key,
    invert_key_schedule,
    random_ciphertexts,
)
from repro.attacks import (
    FullKeyResult,
    column_of_key_byte,
    recover_last_round_key,
)
from repro.attacks.cpa import CPAResult


class TestKeyScheduleInversion:
    def test_roundtrip_fips_key(self):
        key = bytes.fromhex("2b7e151628aed2a6abf7158809cf4f3c")
        assert invert_key_schedule(bytes(expand_key(key)[10])) == key

    def test_roundtrip_random_keys(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            key = bytes(rng.integers(0, 256, 16, dtype=np.uint8))
            last = bytes(expand_key(key)[10])
            assert invert_key_schedule(last) == key

    def test_rejects_wrong_size(self):
        with pytest.raises(ValueError):
            invert_key_schedule(b"short")


class TestColumnOfKeyByte:
    def test_matches_shift_rows(self):
        for j in range(16):
            assert column_of_key_byte(j) == SHIFT_ROWS_SOURCE[j] // 4

    def test_paper_target(self):
        # Key byte 3 targets cell 15 -> column 3.
        assert column_of_key_byte(3) == 3

    def test_bounds(self):
        with pytest.raises(ValueError):
            column_of_key_byte(16)

    def test_columns_balanced(self):
        columns = [column_of_key_byte(j) for j in range(16)]
        assert sorted(set(columns)) == [0, 1, 2, 3]
        assert all(columns.count(c) == 4 for c in range(4))


class TestRecoverLastRoundKey:
    @pytest.fixture(scope="class")
    def campaign_data(self):
        cipher = AES128(bytes.fromhex("000102030405060708090a0b0c0d0e0f"))
        model = LeakageModel(noise_sigma_v=4e-4)
        cts = random_ciphertexts(40_000, seed=9)
        leakage = model.column_voltages(cts, cipher.last_round_key, seed=10)
        return cipher, cts, leakage

    def test_recovers_all_bytes_on_clean_leakage(self, campaign_data):
        cipher, cts, leakage = campaign_data
        result = recover_last_round_key(
            leakage, cts, correct_key=cipher.last_round_key
        )
        assert result.num_correct_bytes >= 15
        assert result.log2_remaining_enumeration() < 8.0

    def test_master_key_inversion_consistent(self, campaign_data):
        cipher, cts, leakage = campaign_data
        result = recover_last_round_key(
            leakage, cts, correct_key=cipher.last_round_key
        )
        if result.full_key_recovered:
            assert result.recovered_master_key == bytes.fromhex(
                "000102030405060708090a0b0c0d0e0f"
            )

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            recover_last_round_key(
                np.zeros((10, 3)), np.zeros((10, 16), dtype=np.uint8)
            )
        with pytest.raises(ValueError):
            recover_last_round_key(
                np.zeros((10, 4)), np.zeros((5, 16), dtype=np.uint8)
            )

    def test_process_executor_matches_serial(self):
        # Integer-valued leakage keeps the CPA sums float-exact, so the
        # process backend must reproduce the serial result bit for bit
        # (continuous leakage is only reproducible up to BLAS summation
        # order, which may differ across pickled array alignments).
        rng = np.random.default_rng(7)
        leakage = rng.integers(0, 64, size=(3000, 4)).astype(np.float64)
        cts = rng.integers(0, 256, size=(3000, 16), dtype=np.uint8)
        serial = recover_last_round_key(leakage, cts)
        process = recover_last_round_key(
            leakage, cts, max_workers=4, executor="process",
        )
        assert (
            serial.recovered_last_round_key
            == process.recovered_last_round_key
        )
        for a, b in zip(serial.byte_results, process.byte_results):
            assert np.array_equal(a.correlations, b.correlations)

    def test_per_segment_hypotheses_match_whole_block_cpa(
        self, campaign_data, monkeypatch
    ):
        # Hypotheses are gathered one checkpoint segment at a time; on
        # continuous leakage (order-sensitive float sums) every byte's
        # CPAResult must still equal run_cpa over the whole block.
        from repro.attacks import full_key
        from repro.attacks.cpa import run_cpa
        from repro.attacks.models import single_bit_hypothesis

        cipher, cts, leakage = campaign_data
        rows = []
        segments = full_key.run_cpa_segments

        def counting(leakage, hypothesis_block, *args, **kwargs):
            def block(start, stop):
                rows.append(stop - start)
                return hypothesis_block(start, stop)

            return segments(leakage, block, *args, **kwargs)

        monkeypatch.setattr(full_key, "run_cpa_segments", counting)
        checkpoints = [500, 9000, 27_000]
        result = recover_last_round_key(
            leakage, cts, correct_key=cipher.last_round_key,
            checkpoints=checkpoints,
        )
        assert max(rows) == 27_000 - 9000
        assert sum(rows) == 16 * 40_000
        for index, got in enumerate(result.byte_results):
            expected = run_cpa(
                leakage[:, column_of_key_byte(index)],
                single_bit_hypothesis(cts[:, index]),
                checkpoints=checkpoints,
                correct_key=cipher.last_round_key[index],
            )
            assert np.array_equal(got.checkpoints, expected.checkpoints)
            assert np.array_equal(got.correlations, expected.correlations)

    def test_result_metrics(self, campaign_data):
        cipher, cts, leakage = campaign_data
        result = recover_last_round_key(
            leakage, cts, correct_key=cipher.last_round_key
        )
        assert len(result.byte_results) == 16
        assert len(result.byte_ranks()) == 16
        assert len(result.recovered_last_round_key) == 16

    def test_metrics_require_ground_truth(self):
        checkpoints = np.array([100])
        results = [
            CPAResult(checkpoints, np.zeros((1, 256))) for _ in range(16)
        ]
        result = FullKeyResult(byte_results=results)
        with pytest.raises(ValueError):
            result.num_correct_bytes
        with pytest.raises(ValueError):
            result.full_key_recovered


class TestCampaignFullKey:
    def test_column_traces_shape(self, alu_campaign):
        data = alu_campaign.collect_column_traces(2000)
        assert data["leakage"].shape == (2000, 4)
        assert data["ciphertexts"].shape == (2000, 16)

    def test_columns_carry_distinct_signals(self, alu_campaign):
        data = alu_campaign.collect_column_traces(2000)
        correlations = np.corrcoef(data["leakage"].T)
        # Columns share ambient structure but are not identical.
        off_diagonal = correlations[np.triu_indices(4, k=1)]
        assert np.all(off_diagonal < 0.999)

    def test_full_key_attack_smoke(self, alu_campaign):
        result = alu_campaign.attack_full_key(20_000)
        # 20k traces is far below full disclosure; just verify the
        # pipeline produces sane per-byte results.
        assert len(result.byte_results) == 16
        assert all(
            r.correct_key == alu_campaign.cipher.last_round_key[j]
            for j, r in enumerate(result.byte_results)
        )
