"""Seeded input generation: everything a workload feeds the program.

All inputs derive from ``(workload, seed)`` alone through named
``random.Random`` streams (string seeding hashes with SHA-512, so the
streams are stable across Python versions and platforms).  The program
under test receives only the generated inputs.

Each ``*_spec`` function returns plain data (bytes, ints, floats).  The
expensive derived inputs — keys and pre-signed ledger records — are
pure functions of a spec, so :func:`fingerprint` over the spec pins the
whole input set.
"""

from __future__ import annotations

import hashlib
import math
import random
from dataclasses import dataclass

from .config import MESSAGE_BYTES


def stream(workload: str, seed: int, name: str) -> random.Random:
    """An independent named random stream of one workload seed."""
    return random.Random(f"e2ebench|{workload}|{seed}|{name}")


def key_seed(workload: str, seed: int, index: int) -> bytes:
    return hashlib.sha256(
        f"e2ebench-key|{workload}|{seed}|{index}".encode()).digest()


def message(rng: random.Random, low: int, high: int, tag: int) -> bytes:
    """A random message of ``low..high`` bytes, made unique by ``tag``."""
    prefix = tag.to_bytes(4, "big")
    return prefix + rng.randbytes(rng.randint(low, high) - len(prefix))


def tampered(payload: bytes) -> bytes:
    """The message a planted forgery claims: one bit flipped."""
    return payload[:-1] + bytes([payload[-1] ^ 1])


def zipf_sequence(rng: random.Random, items: int, s: float,
                  count: int) -> list[int]:
    """``count`` draws of Zipf(s) over ``items`` (item ``i`` has weight
    ``1 / (i + 1) ** s``), stratified: each item appears its expected
    number of times (largest remainder) and the seed sets the order.

    Exact counts keep the per-tenant (or per-key) load, and with it the
    split over shards, the same for every seed; only the order varies.
    """
    weights = [1.0 / rank ** s for rank in range(1, items + 1)]
    total = sum(weights)
    exact = [count * weight / total for weight in weights]
    counts = [int(share) for share in exact]
    by_remainder = sorted(range(items), key=lambda i: counts[i] - exact[i])
    for item in by_remainder[:count - sum(counts)]:
        counts[item] += 1
    draws = [item for item in range(items) for _ in range(counts[item])]
    rng.shuffle(draws)
    return draws


def poisson_arrivals(rng: random.Random, rate: float,
                     count: int) -> list[float]:
    """Due times (seconds from phase start) of ``count`` arrivals at
    ``rate`` per second with exponential gaps, stratified: the gaps are
    the ``count`` mid-quantiles of Exp(rate) in a seeded order, so every
    seed offers the same total duration and gap distribution."""
    gaps = [-math.log(1.0 - (k + 0.5) / count) / rate
            for k in range(count)]
    rng.shuffle(gaps)
    due = []
    clock = 0.0
    for gap in gaps:
        clock += gap
        due.append(clock)
    return due


def exact_picks(rng: random.Random, population: list[int],
                share: float) -> set[int]:
    """A seeded subset holding exactly ``round(share * len)`` members,
    so planted counts never vary between seeds."""
    return set(rng.sample(population, round(share * len(population))))


def fingerprint(spec) -> str:
    """SHA-256 over the spec's canonical ``repr``."""
    return hashlib.sha256(repr(spec).encode()).hexdigest()


# -- sign-bulk -------------------------------------------------------------

@dataclass(frozen=True)
class SignBulkSpec:
    key_seeds: tuple[bytes, ...]
    messages: tuple[bytes, ...]       # batch b is messages[b*B:(b+1)*B]
    tampered_lanes: tuple[int, ...]   # signed lanes given a forged copy
    lane_order: tuple[int, ...]       # verify-phase order over lanes


def sign_bulk_spec(config, seed: int) -> SignBulkSpec:
    name = "sign-bulk"
    rng = stream(name, seed, "messages")
    total = config.batch * config.sign_batches
    messages = tuple(message(rng, *MESSAGE_BYTES, index)
                     for index in range(total))
    tampered_lanes = tuple(sorted(exact_picks(
        stream(name, seed, "tamper"), list(range(total)),
        config.tamper_share)))
    # Lanes 0..total-1 are the signed set; total+k is the forged copy
    # of tampered_lanes[k].  Several shuffles fill the fixed call count.
    lanes = list(range(total + len(tampered_lanes)))
    order_rng = stream(name, seed, "shuffles")
    order: list[int] = []
    needed = config.verify_calls * config.verify_lanes
    while len(order) < needed:
        order_rng.shuffle(lanes)
        order.extend(lanes)
    return SignBulkSpec(
        key_seeds=tuple(key_seed(name, seed, index)
                        for index in range(config.keys)),
        messages=messages, tampered_lanes=tampered_lanes,
        lane_order=tuple(order[:needed]))


# -- serve-mixed -----------------------------------------------------------

@dataclass(frozen=True)
class ServeRequest:
    tenant: int
    kind: str                  # "sign" or "verify"
    message: bytes = b""       # sign: the fresh message
    pool_index: int = -1       # verify: index into the signature pool
    tamper: bool = False       # verify: claim a tampered message
    due: float = 0.0           # open loop: seconds from phase start


@dataclass(frozen=True)
class ServeMixedSpec:
    master_seed: bytes
    tenants: tuple[str, ...]
    tokens: tuple[bytes, ...]
    pool: tuple[tuple[int, bytes], ...]   # (tenant, message) to sign
    open_loop: tuple[ServeRequest, ...]
    sign_loop: tuple[ServeRequest, ...]
    verify_loop: tuple[ServeRequest, ...]


def _verify_requests(rng: random.Random, tenants: list[int],
                     pool_by_tenant, tamper_share: float):
    tampered_set = exact_picks(rng, list(range(len(tenants))), tamper_share)
    return [ServeRequest(tenant=tenant, kind="verify",
                         pool_index=rng.choice(pool_by_tenant[tenant]),
                         tamper=index in tampered_set)
            for index, tenant in enumerate(tenants)]


def serve_mixed_spec(config, seed: int) -> ServeMixedSpec:
    name = "serve-mixed"
    tenants = tuple(f"tenant-{index:02d}" for index in range(config.tenants))
    tokens = tuple(hashlib.sha256(
        f"e2ebench-token|{seed}|{tenant}".encode()).digest()[:16]
        for tenant in tenants)
    rng = stream(name, seed, "messages")
    tag = iter(range(1 << 30))

    def fresh() -> bytes:
        return message(rng, *MESSAGE_BYTES, next(tag))

    pool = tuple((tenant, fresh()) for tenant in range(config.tenants)
                 for _ in range(config.pool_per_tenant))
    pool_by_tenant = {tenant: [index for index, (owner, _) in
                               enumerate(pool) if owner == tenant]
                      for tenant in range(config.tenants)}

    def zipf(name_of_draw: str, count: int) -> list[int]:
        return zipf_sequence(stream(name, seed, name_of_draw),
                             config.tenants, config.zipf_s, count)

    # Open loop: exact kind counts in a seeded order, Poisson due times.
    open_rng = stream(name, seed, "open-loop")
    due = poisson_arrivals(open_rng, config.offered_rate,
                           config.open_requests)
    sign_count = round(config.sign_share * config.open_requests)
    kinds = ["sign"] * sign_count + \
        ["verify"] * (config.open_requests - sign_count)
    open_rng.shuffle(kinds)
    signs = iter(zipf("open-sign-tenants", sign_count))
    verifies = iter(_verify_requests(
        open_rng, zipf("open-verify-tenants", len(kinds) - sign_count),
        pool_by_tenant, config.tamper_share))
    open_loop = []
    for index, kind in enumerate(kinds):
        if kind == "sign":
            open_loop.append(ServeRequest(tenant=next(signs), kind="sign",
                                          message=fresh(), due=due[index]))
        else:
            request = next(verifies)
            open_loop.append(ServeRequest(
                tenant=request.tenant, kind="verify",
                pool_index=request.pool_index, tamper=request.tamper,
                due=due[index]))

    sign_loop = tuple(
        ServeRequest(tenant=tenant, kind="sign", message=fresh())
        for tenant in zipf("sign-loop-tenants", config.sign_requests))
    verify_loop = tuple(_verify_requests(
        stream(name, seed, "verify-loop"),
        zipf("verify-loop-tenants", config.verify_requests),
        pool_by_tenant, config.tamper_share))
    return ServeMixedSpec(
        master_seed=key_seed(name, seed, 0), tenants=tenants,
        tokens=tokens, pool=pool, open_loop=tuple(open_loop),
        sign_loop=sign_loop, verify_loop=verify_loop)


# -- ledger-ingest ---------------------------------------------------------

@dataclass(frozen=True)
class LedgerSpec:
    key_seeds: tuple[bytes, ...]
    records: tuple[tuple[int, bytes], ...]   # (owner key, message)
    warm: tuple[tuple[int, bytes], ...]      # set-up records
    # One entry per submission: ("new", record, tamper) or
    # ("dup", earlier submission index).
    submissions: tuple[tuple, ...]
    readback: tuple[int, ...]                # committed record indexes


def ledger_spec(config, seed: int) -> LedgerSpec:
    name = "ledger-ingest"
    total = config.block * config.commits
    plan_rng = stream(name, seed, "plan")
    # Resubmissions never fall in the first block, so each has an
    # earlier accepted record to repeat.
    duplicate_at = exact_picks(plan_rng, list(range(config.block, total)),
                               config.duplicate_share * total
                               / (total - config.block))
    fresh_positions = [index for index in range(total)
                       if index not in duplicate_at]
    tamper_at = exact_picks(plan_rng, fresh_positions, config.tamper_share)

    owners = iter(zipf_sequence(stream(name, seed, "owners"), config.keys,
                                config.zipf_s,
                                len(fresh_positions) + config.warm_records))
    rng = stream(name, seed, "messages")
    records = []
    warm = tuple((next(owners), message(rng, *MESSAGE_BYTES,
                                        (1 << 31) + index))
                 for index in range(config.warm_records))
    submissions = []
    accepted_positions: list[int] = []
    committed_records: list[int] = []
    for position in range(total):
        if position in duplicate_at:
            submissions.append(("dup", plan_rng.choice(accepted_positions)))
            continue
        record = len(records)
        records.append((next(owners),
                        message(rng, *MESSAGE_BYTES, record)))
        tamper = position in tamper_at
        submissions.append(("new", record, tamper))
        if not tamper:
            accepted_positions.append(position)
            committed_records.append(record)
    readback = tuple(sorted(plan_rng.sample(
        committed_records, min(config.readback, len(committed_records)))))
    return LedgerSpec(
        key_seeds=tuple(key_seed(name, seed, index)
                        for index in range(config.keys)),
        records=tuple(records), warm=warm,
        submissions=tuple(submissions), readback=readback)


SPECS = {
    "sign-bulk": sign_bulk_spec,
    "serve-mixed": serve_mixed_spec,
    "ledger-ingest": ledger_spec,
}


def self_check(workload: str, config, seed: int):
    """Build the spec twice from ``seed`` and once from ``seed + 1``.

    Returns the spec.  Raises ``RuntimeError`` unless the same seed gives
    byte-identical inputs and another seed gives different ones.
    """
    build = SPECS[workload]
    spec = build(config, seed)
    if fingerprint(build(config, seed)) != fingerprint(spec):
        raise RuntimeError(f"{workload}: seed {seed} is not deterministic")
    if fingerprint(build(config, seed + 1)) == fingerprint(spec):
        raise RuntimeError(f"{workload}: seeds {seed} and {seed + 1} "
                           "give identical inputs")
    return spec
