"""Seed determinism of the input generators and the self-check."""

import dataclasses
from collections import Counter

import pytest

from e2ebench import config, inputs


def test_zipf_sequence_is_seed_deterministic_with_exact_counts():
    def draws(seed):
        return inputs.zipf_sequence(inputs.stream("w", seed, "zipf"), 16,
                                    1.1, 4000)

    assert draws(1) == draws(1)
    assert draws(1) != draws(2)
    counts = Counter(draws(1))
    assert counts == Counter(draws(2))      # same load, another order
    assert sum(counts.values()) == 4000 and set(counts) <= set(range(16))
    # Item 0 of Zipf(1.1) over 16 items carries ~28% of the mass.
    assert 0.22 < counts[0] / 4000 < 0.34
    assert counts[0] > 5 * counts[15]


def test_poisson_arrivals_are_seed_deterministic_at_the_offered_rate():
    def due(seed):
        return inputs.poisson_arrivals(inputs.stream("w", seed, "a"), 50.0,
                                       2000)

    first = due(1)
    assert first == due(1)
    assert first != due(2)
    assert all(b > a for a, b in zip(first, first[1:]))
    assert 2000 / first[-1] == pytest.approx(50.0, rel=0.01)
    assert first[-1] == pytest.approx(due(2)[-1])
    gaps = sorted(b - a for a, b in zip([0.0] + first, first))
    # Exponential gaps: the median gap is ln 2 / rate.
    assert gaps[1000] == pytest.approx(0.6931 / 50.0, rel=0.01)


def test_exact_picks_never_vary_in_size():
    sizes = {len(inputs.exact_picks(inputs.stream("w", seed, "t"),
                                    list(range(1000)), 0.03))
             for seed in range(20)}
    assert sizes == {30}


SMALL = {
    "sign-bulk": dataclasses.replace(config.CONFIGS["sign-bulk"],
                                     sign_batches=4, verify_calls=3),
    "serve-mixed": dataclasses.replace(
        config.CONFIGS["serve-mixed"], open_requests=50, sign_requests=10,
        verify_requests=20),
    "ledger-ingest": dataclasses.replace(config.CONFIGS["ledger-ingest"],
                                         keys=8, commits=4, readback=10),
}


@pytest.mark.parametrize("workload", sorted(SMALL))
def test_self_check_passes_and_pins_planted_counts(workload):
    spec = inputs.self_check(workload, SMALL[workload], 7)
    assert inputs.fingerprint(spec) == inputs.fingerprint(
        inputs.SPECS[workload](SMALL[workload], 7))


def test_self_check_rejects_a_generator_that_ignores_the_seed(monkeypatch):
    import random

    def unseeded(config, seed):
        return [random.random() for _ in range(4)]

    monkeypatch.setitem(inputs.SPECS, "sign-bulk", unseeded)
    with pytest.raises(RuntimeError, match="not deterministic"):
        inputs.self_check("sign-bulk", SMALL["sign-bulk"], 1)
    monkeypatch.setitem(inputs.SPECS, "sign-bulk",
                        lambda config, seed: [1, 2, 3])
    with pytest.raises(RuntimeError, match="identical inputs"):
        inputs.self_check("sign-bulk", SMALL["sign-bulk"], 1)


def test_ledger_plan_plants_exact_tamper_and_duplicate_counts():
    cfg = SMALL["ledger-ingest"]
    spec = inputs.ledger_spec(cfg, 3)
    total = cfg.block * cfg.commits
    assert len(spec.submissions) == total
    duplicates = [s for s in spec.submissions if s[0] == "dup"]
    assert len(duplicates) == round(cfg.duplicate_share * total)
    fresh = [s for s in spec.submissions if s[0] == "new"]
    assert sum(1 for s in fresh if s[2]) == round(cfg.tamper_share
                                                  * len(fresh))
    # Every resubmission repeats an earlier, untampered submission.
    for position, item in enumerate(spec.submissions):
        if item[0] == "dup":
            earlier = spec.submissions[item[1]]
            assert item[1] < position and earlier[0] == "new" \
                and not earlier[2]


def test_committed_config_keeps_every_tail_sample_large_enough():
    sign = config.CONFIGS["sign-bulk"]
    serve = config.CONFIGS["serve-mixed"]
    ledger = config.CONFIGS["ledger-ingest"]
    samples = [sign.sign_batches, sign.verify_calls,
               round(serve.sign_share * serve.open_requests),
               serve.open_requests - round(serve.sign_share
                                           * serve.open_requests),
               ledger.commits, ledger.readback]
    assert min(samples) >= config.MIN_TAIL_SAMPLES
    scaled = config.scaled(sign, 2 * config.REFERENCE_SECONDS)
    assert scaled.sign_batches == 2 * sign.sign_batches
    assert config.scaled(sign, 1) == sign
