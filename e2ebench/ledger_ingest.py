"""``ledger-ingest``: durable ingest of pre-signed records, then read-back.

Records are signed before timing by 128 keys with Zipf(1.1) popularity,
so public keys repeat; about 3% claim a tampered message and about 3%
of submissions resubmit an earlier record.  Records are submitted one
at a time and committed (fsync) in blocks into a fresh directory.  The
directory is then reopened and checked, and a seeded sample of
committed records is read back the way a light client would.
"""

from __future__ import annotations

import os
import shutil
from pathlib import Path

from repro.falcon import batchverify, ledger, scheme, serialize

from . import inputs
from .config import REFERENCE_SHARE
from .harness import WORK_DIR, Outcome, Phases, Timeline, clock, \
    overhead_share, peak_rss_mb
from .stats import median

WORKLOAD = "ledger-ingest"

#: Signing set-up for input generation only: the widest fused
#: base-sampler pool the library offers.  Signatures are valid under
#: any set-up; the benchmarked paths never sign.
_FAST_SIGNER = {"engine": "numpy", "prefetch_batches": 256}
_SIGN_CHUNK = 64


def _signed_records(config, spec, owners_messages, phases: Phases):
    """``SignedRecord`` per ``(owner, message)``, signed per owner.

    Each key lives only while it signs, so input generation stays
    small; its key generation is traced (the key layers), its signing
    is not.
    """
    by_owner: dict[int, list[int]] = {}
    for index, (owner, _) in enumerate(owners_messages):
        by_owner.setdefault(owner, []).append(index)
    records = [None] * len(owners_messages)
    phases.enter("inputs", traced=False)
    for owner, indexes in sorted(by_owner.items()):
        phases.record(True)
        key = scheme.SecretKey.generate(n=config.n,
                                        seed=spec.key_seeds[owner])
        phases.record(False)
        public_bytes = serialize.encode_public_key(key.public_key)
        try:
            key.use_base_sampler("bitsliced", **_FAST_SIGNER)
        except (TypeError, ValueError, RuntimeError, ImportError):
            pass  # the library default signs too, only slower
        for low in range(0, len(indexes), _SIGN_CHUNK):
            chunk = indexes[low:low + _SIGN_CHUNK]
            signatures = key.sign_many(
                [owners_messages[index][1] for index in chunk])
            for index, signature in zip(chunk, signatures):
                records[index] = ledger.SignedRecord(
                    public_key_bytes=public_bytes,
                    message=owners_messages[index][1],
                    signature_bytes=serialize.encode_signature(
                        signature, config.n))
    return records


def _open_and_warm(directory: Path, warm_records) -> tuple:
    """Open a ledger in a fresh directory and run one engine pass."""
    book = ledger.Ledger(directory)
    lanes = []
    for record in warm_records:
        public_key, signature, _ = record.decode()
        lanes.append((public_key, record.message, signature))
    report = batchverify.verify_batch_report(lanes)
    return book, report


def _ingest(book, config, submissions, records, commits: int):
    """Submit and commit ``commits`` blocks; returns (submit results,
    commit results, commit latencies, committed records per second)."""
    submitted = []
    results = []
    latencies = []
    timeline = Timeline()
    for number in range(commits):
        for entry in submissions[number * config.block:
                                 (number + 1) * config.block]:
            try:
                submitted.append(book.submit(records[entry]))
            except Exception as error:  # counted, never fatal
                submitted.append(error)
        before = clock()
        try:
            results.append(book.commit(timestamp_us=number))
        except Exception as error:  # counted, never fatal
            results.append(error)
            latencies.append(float("inf"))
            continue
        latencies.append(clock() - before)
        timeline.mark(len(results[-1].accepted))
    return submitted, results, latencies, timeline.rate()


def _read_back(record):
    public_key = serialize.decode_public_key(record.public_key_bytes)
    signature, _ = serialize.decode_signature(record.signature_bytes)
    return public_key.verify(record.message, signature)


def run(config, seed: int, tracer=None, workdir: Path | None = None
        ) -> Outcome:
    out = Outcome()
    phases = Phases(tracer)
    spec = inputs.self_check(WORKLOAD, config, seed)
    workdir = Path(workdir or WORK_DIR) / f"{WORKLOAD}-{seed}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        return _run(config, spec, phases, out, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _run(config, spec, phases, out, workdir: Path) -> Outcome:
    # Input generation, timed apart from set-up.
    started = clock()
    signed = _signed_records(config, spec, spec.records + spec.warm,
                             phases)
    fresh, warm = signed[:len(spec.records)], signed[len(spec.records):]
    # Submission entries index `entries`: the fresh records, then the
    # tampered copies.
    entries = list(fresh)
    planned = []   # per submission: (entry index, expected to be new)
    tampered_ids = set()
    for item in spec.submissions:
        if item[0] == "dup":
            planned.append((planned[item[1]][0], False))
            continue
        _, record_index, tamper = item
        if tamper:
            record = fresh[record_index]
            forged = ledger.SignedRecord(
                record.public_key_bytes, inputs.tampered(record.message),
                record.signature_bytes)
            tampered_ids.add(forged.record_id)
            entries.append(forged)
            planned.append((len(entries) - 1, True))
        else:
            planned.append((record_index, True))
    submissions = [entry for entry, _ in planned]
    out.info["input_s"] = clock() - started

    phases.enter("setup")
    setups = []
    for attempt in range(config.setup_repeats):
        started = clock()
        book, report = _open_and_warm(workdir / f"ledger-{attempt}", warm)
        setups.append(clock() - started)
        out.check("setup", all(report.verdicts),
                  "a warm-up record failed to verify")
    out.metric("setup_s", median(setups), "s")

    if phases.tracer is not None:
        phases.enter("reference", traced=False)
        commits = max(1, round(REFERENCE_SHARE * config.commits))
        _, _, _, reference_rate = _ingest(
            ledger.Ledger(workdir / "reference"), config, submissions,
            entries, commits)

    phases.enter("ingest")
    submitted, results, latencies, rate = _ingest(
        book, config, submissions, entries, config.commits)
    out.metric("throughput_per_s", rate, "1/s")
    out.latency("latency", latencies)
    if phases.tracer is not None:
        out.info["overhead_share"] = overhead_share(rate, reference_rate)

    phases.enter("check", traced=False)
    for number, (result, (entry, new)) in enumerate(zip(submitted, planned)):
        out.check("ingest", result is new,
                  f"submission {number}: submit returned {result!r}, "
                  f"expected {new}")
    for number, result in enumerate(results):
        block = planned[number * config.block:(number + 1) * config.block]
        expect_rejected = {entries[entry].record_id for entry, new in block
                           if new and entries[entry].record_id in tampered_ids}
        expect_accepted = {entries[entry].record_id for entry, new in block
                           if new} - expect_rejected
        if isinstance(result, Exception):
            out.attempt("ingest")
            out.fail("ingest", f"commit {number}: {result!r}")
            continue
        rejected = {record_id for record_id, reason in result.rejected
                    if reason.startswith("norm-bound")}
        out.check("ingest", rejected == expect_rejected
                  and len(result.rejected) == len(expect_rejected)
                  and set(result.accepted) == expect_accepted,
                  f"commit {number}: accepted {len(result.accepted)}, "
                  f"rejected {result.rejected[:2]}")
    duplicates = sum(1 for _, new in planned if not new)
    out.check("ingest", book.mempool.dropped_duplicates == duplicates,
              f"{book.mempool.dropped_duplicates} duplicates dropped, "
              f"expected {duplicates}")
    out.check("ingest", book.rejected_total == (
        {"norm-bound": len(tampered_ids)} if tampered_ids else {}),
        f"rejected counts {book.rejected_total}")
    reopened = ledger.Ledger(book.path.parent)
    out.check("ingest", (reopened.height, reopened.tip_hash,
                         reopened.records_committed)
              == (config.commits, book.tip_hash, book.records_committed),
              f"reopened height {reopened.height}, tip "
              f"{reopened.tip_hash[:12]} vs {book.tip_hash[:12]}")

    # Light-client read-back of a seeded sample of committed records.
    stored = {record.record_id: record for block in reopened.blocks
              for record in block.records}
    sample = [stored.get(fresh[index].record_id) for index in spec.readback]
    read_back = phases.wrap("harness.readback", _read_back)
    phases.enter("readback")
    verdicts = []
    read_latencies = []
    timeline = Timeline()
    for record in sample:
        before = clock()
        try:
            verdicts.append(read_back(record))
        except Exception as error:  # counted, never fatal
            verdicts.append(error)
            read_latencies.append(float("inf"))
            continue
        read_latencies.append(clock() - before)
        timeline.mark(1)
    out.metric("verify_per_s", timeline.rate(), "1/s")
    out.latency("verify", read_latencies)
    phases.enter("check", traced=False)
    for index, verdict in zip(spec.readback, verdicts):
        out.check("readback", verdict is True,
                  f"record {index}: read back {verdict!r}")
    out.metric("peak_rss_mb", peak_rss_mb(), "MB")
    return out
