"""``sign-bulk``: closed loop, one thread, in process.

Eight keys sign seeded messages with ``sign_many`` in batches of 16,
round-robin, then the signed set plus planted forgeries goes through
the cross-key ``verify_batch_report`` in shuffled mixed-key batches.
"""

from __future__ import annotations

from repro.falcon import batchverify, scheme

from . import inputs
from .config import REFERENCE_SHARE
from .harness import Outcome, Phases, Timeline, clock, overhead_share, \
    peak_rss_mb
from .stats import median

WORKLOAD = "sign-bulk"


def _warm_batch(config, spec, index: int) -> tuple:
    """Key ``index``'s first round-robin batch of messages."""
    start = index % config.sign_batches * config.batch
    return spec.messages[start:start + config.batch]


def _set_up(config, spec):
    """Key generation plus one warm ``sign_many`` per key."""
    keys = [scheme.SecretKey.generate(n=config.n, seed=seed)
            for seed in spec.key_seeds]
    warm = [key.sign_many(_warm_batch(config, spec, index))
            for index, key in enumerate(keys)]
    return keys, warm


def _sign(config, spec, keys, batches: int):
    """``batches`` sign_many calls; returns (signatures, latencies,
    signatures per second, failed batches)."""
    signatures = [None] * (batches * config.batch)
    latencies = []
    failed = []
    timeline = Timeline()
    for number in range(batches):
        low = number * config.batch
        key = keys[number % config.keys]
        before = clock()
        try:
            signatures[low:low + config.batch] = key.sign_many(
                spec.messages[low:low + config.batch])
        except Exception as error:  # counted, never fatal
            failed.append((number, repr(error)))
            latencies.append(float("inf"))
            continue
        latencies.append(clock() - before)
        timeline.mark(config.batch)
    return signatures, latencies, timeline.rate(), failed


def run(config, seed: int, tracer=None) -> Outcome:
    out = Outcome()
    phases = Phases(tracer)
    spec = inputs.self_check(WORKLOAD, config, seed)

    phases.enter("setup")
    setups = []
    for _ in range(config.setup_repeats):
        started = clock()
        keys, warm = _set_up(config, spec)
        setups.append(clock() - started)
    out.metric("setup_s", median(setups), "s")
    # Every key also verifies once before anything is timed.
    for index, (key, signatures) in enumerate(zip(keys, warm)):
        out.check("setup", all(key.public_key.verify(message, signature)
                               for message, signature in zip(
                                   _warm_batch(config, spec, index),
                                   signatures)),
                  f"key {index}: a warm-up signature does not verify")

    if tracer is not None:
        phases.enter("reference", traced=False)
        batches = max(1, round(REFERENCE_SHARE * config.sign_batches))
        _, _, reference_rate, _ = _sign(config, spec, keys, batches)

    # Sign phase: fixed batches, round-robin over the keys.
    phases.enter("sign")
    signatures, latencies, rate, failed = _sign(
        config, spec, keys, config.sign_batches)
    total = config.sign_batches * config.batch
    out.metric("throughput_per_s", rate, "1/s")
    out.latency("latency", latencies)
    if tracer is not None:
        out.info["overhead_share"] = overhead_share(rate, reference_rate)

    phases.enter("check", traced=False)
    for number, why in failed:
        out.fail("sign", f"batch {number}: {why}", config.batch)
    public_keys = [key.public_key for key in keys]
    for lane, signature in enumerate(signatures):
        if signature is None:
            out.attempt("sign")
            continue
        public_key = public_keys[(lane // config.batch) % config.keys]
        out.check("sign", public_key.verify(spec.messages[lane], signature),
                  f"signature {lane} does not verify")

    # Verify phase: signed lanes plus forged copies, shuffled batches.
    lanes = [(public_keys[(lane // config.batch) % config.keys],
              spec.messages[lane], signatures[lane])
             for lane in range(total)]
    for lane in spec.tampered_lanes:
        public_key, message, signature = lanes[lane]
        lanes.append((public_key, inputs.tampered(message), signature))
    order = spec.lane_order
    width = config.verify_lanes
    batches = [[lanes[lane] for lane in order[low:low + width]]
               for low in range(0, len(order), width)]
    phases.enter("verify")
    reports = []
    verify_latencies = []
    timeline = Timeline()
    for items in batches:
        before = clock()
        try:
            reports.append(batchverify.verify_batch_report(items))
        except Exception as error:  # counted, never fatal
            reports.append(error)
            verify_latencies.append(float("inf"))
            continue
        verify_latencies.append(clock() - before)
        timeline.mark(len(items))
    out.metric("verify_per_s", timeline.rate(), "1/s")
    out.latency("verify", verify_latencies)

    phases.enter("check", traced=False)
    for number, report in enumerate(reports):
        lane_ids = order[number * width:(number + 1) * width]
        if isinstance(report, Exception):
            out.attempt("verify", len(lane_ids))
            out.fail("verify", f"batch {number}: {report!r}", len(lane_ids))
            continue
        for lane, verdict in zip(lane_ids, report.lanes):
            forged = lane >= total
            expected = (False, "norm-bound") if forged else (True, "ok")
            out.check("verify", (verdict.ok, verdict.reason) == expected,
                      f"lane {lane}: {verdict.reason}, expected "
                      f"{expected[1]}")
    out.metric("peak_rss_mb", peak_rss_mb(), "MB")
    return out
