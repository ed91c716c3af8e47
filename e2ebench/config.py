"""Workload configurations: fixed work, never a time budget.

Every count below is a number of operations.  ``--seconds`` only scales
the counts up (``scaled``); the committed values are the floor, so every
p90 keeps at least 200 samples (20 beyond the tail rank).

On a 2-core x86 machine the committed counts give timed phases of about
29 s (``sign-bulk``), 42 s (``serve-mixed``: 29 s of it the open loop)
and 13 s (``ledger-ingest``), and a whole run of about 37 s, 48 s and
31 s (set-ups, input generation and output checks included).
:data:`REFERENCE_SECONDS` is the ``--seconds`` value at which the counts
are used as committed.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass

#: ``--seconds`` value at or below which the committed counts are used.
REFERENCE_SECONDS = 30

#: Smallest latency sample of any p90 at committed settings.
MIN_TAIL_SAMPLES = 200

#: Shortest and longest message of every workload, in bytes.
MESSAGE_BYTES = (32, 1024)

#: Share of the throughput phase a traced run first repeats untraced,
#: the reference for ``trace.overhead_share``.
REFERENCE_SHARE = 0.25

#: Seconds to wait for any line of the ``serve-mixed`` server child.
READY_TIMEOUT = 60.0


@dataclass(frozen=True)
class SignBulkConfig:
    n: int = 512
    keys: int = 8
    batch: int = 16                # messages per sign_many call
    sign_batches: int = 200        # sign_many calls, round-robin keys
    verify_lanes: int = 64         # lanes per verify_batch call
    verify_calls: int = 832        # verify_batch calls over shuffles
    tamper_share: float = 0.03     # extra lanes with a tampered message
    setup_repeats: int = 3

    scaled_fields = ("sign_batches", "verify_calls")


@dataclass(frozen=True)
class ServeMixedConfig:
    n: int = 512
    tenants: int = 16
    zipf_s: float = 1.1
    connections: int = 2
    pool_per_tenant: int = 4       # signatures fetched before timing
    # Phase A: open loop, Poisson arrivals at a fixed offered rate.
    # About 0.75 of the ~73/s closed-loop sign capacity.  There both
    # p90s sit where they are steady between runs: a verify p90 of about
    # one sign round, a sign p90 of about two.  Near half of capacity
    # (30/s) they sit on the steep edge of the distribution and spread
    # two to three times as much.
    open_requests: int = 1600      # 320 signs, 1280 verifies
    offered_rate: float = 55.0     # requests/s, all kinds
    sign_share: float = 0.2
    tamper_share: float = 0.05     # of the verify requests
    # Phases B and C: closed loops with a fixed window per connection.
    sign_window: int = 16
    sign_requests: int = 640
    verify_window: int = 16
    verify_requests: int = 8000
    setup_repeats: int = 3

    scaled_fields = ("open_requests", "sign_requests", "verify_requests")


@dataclass(frozen=True)
class LedgerIngestConfig:
    n: int = 512
    keys: int = 128
    zipf_s: float = 1.1
    block: int = 32                # submissions per commit
    commits: int = 200
    tamper_share: float = 0.03     # of the fresh records
    duplicate_share: float = 0.03  # of all submissions
    readback: int = 1536           # records read back one at a time
    warm_records: int = 32         # signed apart, used only by set-up
    setup_repeats: int = 5

    scaled_fields = ("commits", "readback")


CONFIGS = {
    "sign-bulk": SignBulkConfig(),
    "serve-mixed": ServeMixedConfig(),
    "ledger-ingest": LedgerIngestConfig(),
}


def scaled(config, seconds: float):
    """``config`` with its work counts scaled to ``seconds`` (never
    below the committed counts)."""
    factor = max(1.0, seconds / REFERENCE_SECONDS)
    if factor == 1.0:
        return config
    return dataclasses.replace(config, **{
        name: int(round(getattr(config, name) * factor))
        for name in config.scaled_fields})


def config_hash(config) -> str:
    """Short content hash of a configuration and the constants every
    workload shares (recorded with results)."""
    text = json.dumps({"config": dataclasses.asdict(config),
                       "message_bytes": MESSAGE_BYTES,
                       "reference_share": REFERENCE_SHARE}, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()[:16]
