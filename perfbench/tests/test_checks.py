"""Correctness gates fail on any digest mismatch."""

import pytest

import campaign

OUTCOME = {"rank": 0, "mtd": 42605, "correct_bytes": 1, "digest": "0" * 32}


def test_pinned_seed_must_match():
    pins = {"attack_alu": {"1": dict(OUTCOME)}}
    assert campaign.check_pinned("attack_alu", 1, dict(OUTCOME), pins)
    assert not campaign.check_pinned("attack_alu", 2, dict(OUTCOME), pins)
    with pytest.raises(campaign.CheckFailed, match="differs from pinned"):
        campaign.check_pinned("attack_alu", 1, dict(OUTCOME, digest="1" * 32), pins)


def test_repeat_with_another_digest_counts_as_failed(monkeypatch):
    monkeypatch.setattr(campaign, "outcome", lambda result: result)
    tally, errors = campaign.Tally(), []
    assert campaign.timed_call(lambda: dict(OUTCOME), OUTCOME, tally, errors) is not None
    assert campaign.timed_call(lambda: dict(OUTCOME, digest="f" * 32), OUTCOME, tally, errors) is None
    assert (tally.attempted, tally.failed) == (2, 1)
    assert "differs from first" in errors[0]


def test_digest_covers_the_final_correlation_row():
    import numpy as np

    from repro.attacks.cpa import CPAResult

    rows = np.linspace(-0.1, 0.1, 512).reshape(2, 256)
    result = CPAResult(checkpoints=np.array([50, 100]), correlations=rows, correct_key=0)
    changed = rows.copy()
    changed[-1, 7] = np.nextafter(changed[-1, 7], 1.0)
    other = CPAResult(checkpoints=np.array([50, 100]), correlations=changed, correct_key=0)
    assert campaign.outcome(result)["digest"] != campaign.outcome(other)["digest"]
