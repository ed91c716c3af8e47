"""The traced layers: where the wrappers go and what their spans reduce to.

:func:`install` wraps each layer's entry points at the names its callers
look up.  :data:`METRICS` lists every per-layer metric with the
end-to-end metrics and workloads it should move (the prediction written
down before any measurement), the workloads that must produce it with a
non-zero value, and the workloads that bypass it and so must report
exactly zero.

Units of ``_ms`` metrics: milliseconds per unit of the phase's work —
per signature for the signing layers, per verified lane for the
verification layers, per record for the ledger and serialization layers
and per request for the serving layers.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable

from . import spans
from .stats import TAIL, median, percentile

SIGN_BULK, SERVE_MIXED, LEDGER_INGEST = \
    "sign-bulk", "serve-mixed", "ledger-ingest"
ALL = (SIGN_BULK, SERVE_MIXED, LEDGER_INGEST)

#: Phases each workload times; per-layer metrics reduce over these.
TIMED_PHASES = {
    SIGN_BULK: ("sign", "verify"),
    SERVE_MIXED: ("open", "sign-capacity", "verify-capacity"),
    LEDGER_INGEST: ("ingest", "readback"),
}

#: Spans whose individual durations a reduction keeps.
KEEP_DURATIONS = frozenset({"service.queue_wait", "loadgen.late"})
KEEP_REQUESTS = frozenset({"service.sign", "service.verify",
                           "client.request"})


# -- installation ----------------------------------------------------------

def _sign_many_pre(args, kwargs):
    return args[0].signing_attempts


def _sign_many_post(before, args, kwargs, result):
    return float(len(result)), float(args[0].signing_attempts - before)


def _sampler_pre(args, kwargs):
    return args[0].accepted, args[0].base_draws


def _sampler_post(before, args, kwargs, result):
    sampler = args[0]
    return (float(sampler.accepted - before[0]),
            float(sampler.base_draws - before[1]))


def _width_post(state, args, kwargs, result):
    return float(kwargs.get("width", args[3] if len(args) > 3 else 0)), 0.0


def _length_post(state, args, kwargs, result):
    return float(len(result)), 0.0


def _lanes_post(state, args, kwargs, result):
    return float(len(args[0])), float(result.rejected)


def _commit_post(state, args, kwargs, result):
    return (float(len(result.accepted) + len(result.rejected)),
            float(len(result.rejected)))


def _submit_post(state, args, kwargs, result):
    return float(bool(result)), 0.0


def _repeat_key_post(seen: set):
    def post(state, args, kwargs, result):
        repeat = args[0] in seen
        seen.add(args[0])
        return float(repeat), 0.0
    return post


def _stamp_request(state, args, kwargs, result):
    args[0]._e2ebench_created = time.perf_counter()
    return 0.0, 0.0


def _round_pre(tracer: spans.Tracer):
    def pre(args, kwargs):
        now = time.perf_counter()
        for request in args[3]:
            created = getattr(request, "_e2ebench_created", None)
            if created is not None:
                tracer.record("service.queue_wait", created, now)
    return pre


def _round_post(state, args, kwargs, result):
    lanes = float(len(args[3]))
    return (lanes, 0.0) if args[2].kind == "sign" else (0.0, lanes)


def install(tracer: spans.Tracer) -> spans.Tracer:
    """Wrap every traced entry point; undo with ``tracer.uninstall()``."""
    from repro.bitslice import wordengine
    from repro.falcon import batchverify, keystore, ledger, scheme, \
        serialize, samplerz
    from repro.falcon.serving import net, service, sharded
    from repro.rng import source

    patch = tracer.patch
    # falcon.scheme (sign and verify), fft, ffsampling, encoding, ntt.
    patch(scheme.SecretKey, "sign_many", "scheme.sign_many",
          pre=_sign_many_pre, post=_sign_many_post)
    patch(scheme.SecretKey, "__init__", "keys.expand")
    patch(scheme.PublicKey, "verify", "scheme.verify")
    patch(scheme, "generate_keys", "keys.generate")
    patch(scheme, "hash_to_point", "scheme.hash_to_point")
    patch(scheme, "fft_array", "fft.target")
    patch(scheme, "round_ifft_array", "fft.target")
    patch(scheme, "ff_sampling_batch", "ffsampling.walk")
    patch(scheme, "compress", "encoding.compress")
    patch(scheme, "decompress", "encoding.decompress")
    patch(scheme, "ntt_array", "ntt")
    patch(scheme, "intt_array", "ntt")
    # falcon.samplerz, bitslice, rng.
    patch(samplerz.RejectionSamplerZ, "sample_lanes", "samplerz.sample_lanes",
          pre=_sampler_pre, post=_sampler_post)
    for engine in wordengine.WordEngine.__subclasses__():
        for attribute in ("draw_words", "run_kernel", "compact"):
            if attribute in engine.__dict__:
                patch(engine, attribute, f"bitslice.{attribute}",
                      post=_width_post if attribute == "run_kernel"
                      else None)
    patch(source.BufferedRandomSource, "read_bytes", "rng.read",
          post=_length_post)
    patch(source.BufferedRandomSource, "prefetch", "rng.prefetch")
    # falcon.batchverify and the lookups it makes.
    patch(batchverify, "verify_batch_report",
          "batchverify.verify_batch_report", post=_lanes_post)
    patch(ledger, "verify_batch_report", "batchverify.verify_batch_report",
          post=_lanes_post)
    patch(batchverify, "hash_to_point", "batchverify.hash_to_point")
    patch(batchverify, "decompress", "encoding.decompress")
    patch(batchverify, "decompress_rows", "encoding.decompress")
    for attribute in ("ntt", "intt", "ntt_array", "mul_ntt_rows_array"):
        patch(batchverify, attribute, "ntt")
    # falcon.serialize (as the ledger and a light client look it up).
    seen_keys: set = set()
    for owner in (ledger, serialize):
        patch(owner, "decode_public_key", "serialize.decode_public_key",
              post=_repeat_key_post(seen_keys))
        patch(owner, "decode_signature", "serialize.decode_signature")
    # falcon.ledger.
    patch(ledger.Ledger, "submit", "ledger.submit", post=_submit_post)
    patch(ledger.Ledger, "commit", "ledger.commit", post=_commit_post)
    # falcon.keystore and falcon.serving.
    patch(sharded.ShardedKeyStore, "signer", "keystore.signer")
    patch(keystore.KeyStore, "checkout_current", "keystore.checkout")
    patch(service, "plan_rounds", "service.plan_rounds")
    patch(service.SigningService, "sign", "service.sign")
    patch(service.SigningService, "verify", "service.verify")
    patch(service._Request, "__init__", "service.request",
          post=_stamp_request)
    patch(service.SigningService, "_run_one_round", "service.round",
          pre=_round_pre(tracer), post=_round_post)
    patch(net.NetServer, "_dispatch", "net.dispatch", request_arg=4)
    return tracer


# -- reduction -------------------------------------------------------------

class View:
    """Sums of one workload's spans over its timed phases (and over
    every phase, for the key set-up layers)."""

    def __init__(self, reductions: list[spans.Reduced],
                 timed: tuple[str, ...], overhead_share: float) -> None:
        self.reductions = reductions
        self.timed = timed
        self.overhead_share = overhead_share

    def _stats(self, names, phases=None):
        for reduced in self.reductions:
            for (phase, name), stat in reduced.stats.items():
                if name in names and (phases is None or phase in phases):
                    yield stat

    def total(self, attribute: str, *names: str, every_phase=False):
        return sum(getattr(stat, attribute) for stat in self._stats(
            names, None if every_phase else self.timed))

    def self_ms(self, *names: str, every_phase=False) -> float:
        return 1e3 * self.total("self_s", *names, every_phase=every_phase)

    def count(self, *names: str, every_phase=False) -> float:
        return self.total("count", *names, every_phase=every_phase)

    def under(self, name: str, *parents: str) -> float:
        """Self ms of ``name`` spans whose parent is one of ``parents``."""
        return 1e3 * sum(
            value for reduced in self.reductions
            for (phase, child, parent), value in reduced.by_parent.items()
            if child == name and parent in parents and phase in self.timed)

    def durations_ms(self, name: str) -> list[float]:
        return [1e3 * value for reduced in self.reductions
                for (phase, span), values in reduced.durations.items()
                if span == name and phase in self.timed for value in values]

    # Work units.
    @property
    def signatures(self) -> float:
        return self.total("count1", "scheme.sign_many")

    @property
    def lanes(self) -> float:
        return (self.total("count1", "batchverify.verify_batch_report")
                + self.count("scheme.verify"))

    @property
    def records(self) -> float:
        return self.count("ledger.submit", "harness.readback")

    def wire_ms(self) -> list[float]:
        client = {}
        server = {}
        for reduced in self.reductions:
            for (name, request), duration in reduced.requests.items():
                (client if name == "client.request" else server)[
                    request] = duration
        return [1e3 * (client[request] - server[request])
                for request in client if request in server]

    def closure_gap_share(self) -> float:
        """Share of the load process's timed wall time that no top-level
        span of its load thread covers: time spent outside every traced
        layer and every harness span (the first reduction is the load
        process).  A run with no timed phase reads 1."""
        load = self.reductions[0]
        wall = sum(load.phase_walls.get(phase, 0.0) for phase in self.timed)
        covered = sum(load.covered_s.get(phase, 0.0)
                      for phase in self.timed)
        return 1.0 - covered / wall if wall else 1.0


def _per(value: float, units: float) -> float:
    return value / units if units else 0.0


@dataclass(frozen=True)
class LayerMetric:
    name: str
    unit: str
    better: str
    moves: str                  # end-to-end metrics it should move
    on: tuple[str, ...]         # must be produced, non-zero, here
    zero_on: tuple[str, ...]    # bypassed here: must read exactly 0
    compute: Callable[[View], float]


_SIGNING = (SIGN_BULK, SERVE_MIXED)
_SIGN_MOVES = "throughput_per_s, latency_p50_ms, latency_p90_ms"
_VERIFY_MOVES = ("verify_* on sign-bulk; throughput_per_s, latency_* on "
                 "ledger-ingest; verify_per_s on serve-mixed")


def _sign(name, unit, better, compute):
    return LayerMetric(name, unit, better, _SIGN_MOVES, _SIGNING,
                       (LEDGER_INGEST,), compute)


def _verify(name, unit, better, compute, on=ALL):
    return LayerMetric(name, unit, better, _VERIFY_MOVES, on, (), compute)


def _only(workload, name, unit, better, moves, compute):
    others = tuple(w for w in ALL if w != workload)
    return LayerMetric(name, unit, better, moves, (workload,), others,
                       compute)


def _service_p50_wait(view: View) -> float:
    waits = view.durations_ms("service.queue_wait")
    return median(waits) if waits else 0.0


def _wire_p50(view: View) -> float:
    wire = view.wire_ms()
    return median(wire) if wire else 0.0


def _late_p90(view: View) -> float:
    late = view.durations_ms("loadgen.late")
    return percentile(late, TAIL) if late else 0.0


def _round_share(view: View, which: str, rounds: str) -> float:
    return _per(view.total(which, "service.round"),
                view.total(rounds, "service.round"))


METRICS: tuple[LayerMetric, ...] = (
    # falcon.scheme (sign), fft, ffsampling, samplerz, bitslice, rng.
    _sign("scheme.sign_self_ms", "ms", "lower",
          lambda v: _per(v.self_ms("scheme.sign_many"), v.signatures)),
    _sign("scheme.attempts_per_sig", "count", "lower",
          lambda v: _per(v.total("count2", "scheme.sign_many"),
                         v.signatures)),
    _sign("scheme.hash_sign_ms", "ms", "lower",
          lambda v: _per(v.under("scheme.hash_to_point", "scheme.sign_many"),
                         v.signatures)),
    _sign("fft.target_ms", "ms", "lower",
          lambda v: _per(v.self_ms("fft.target"), v.signatures)),
    _sign("ffsampling.walk_self_ms", "ms", "lower",
          lambda v: _per(v.self_ms("ffsampling.walk"), v.signatures)),
    _sign("samplerz.self_ms", "ms", "lower",
          lambda v: _per(v.self_ms("samplerz.sample_lanes"), v.signatures)),
    _sign("samplerz.acceptance_rate", "ratio", "higher",
          lambda v: _per(v.total("count1", "samplerz.sample_lanes"),
                         v.total("count2", "samplerz.sample_lanes"))),
    _sign("samplerz.calls_per_sig", "count", "lower",
          lambda v: _per(v.count("samplerz.sample_lanes"), v.signatures)),
    _sign("bitslice.kernel_ms", "ms", "lower",
          lambda v: _per(v.self_ms("bitslice.run_kernel"), v.signatures)),
    _sign("bitslice.compact_ms", "ms", "lower",
          lambda v: _per(v.self_ms("bitslice.compact"), v.signatures)),
    _sign("bitslice.draw_self_ms", "ms", "lower",
          lambda v: _per(v.self_ms("bitslice.draw_words"), v.signatures)),
    _sign("bitslice.passes_per_sig", "count", "lower",
          lambda v: _per(v.count("bitslice.run_kernel"), v.signatures)),
    _sign("bitslice.lanes_per_pass", "count", "higher",
          lambda v: _per(v.total("count1", "bitslice.run_kernel"),
                         v.count("bitslice.run_kernel"))),
    _sign("rng.keystream_ms", "ms", "lower",
          lambda v: _per(v.self_ms("rng.read", "rng.prefetch"),
                         v.signatures)),
    _sign("rng.bytes_per_sig", "count", "lower",
          lambda v: _per(v.total("count1", "rng.read"), v.signatures)),
    _sign("encoding.compress_ms", "ms", "lower",
          lambda v: _per(v.self_ms("encoding.compress"), v.signatures)),
    # falcon.encoding (verify), batchverify, ntt, scheme (verify).
    _verify("encoding.decompress_ms", "ms", "lower",
            lambda v: _per(v.self_ms("encoding.decompress"), v.lanes)),
    _verify("batchverify.self_ms", "ms", "lower",
            lambda v: _per(v.self_ms("batchverify.verify_batch_report"),
                           v.lanes)),
    _verify("batchverify.lanes_per_call", "count", "higher",
            lambda v: _per(v.total("count1",
                                   "batchverify.verify_batch_report"),
                           v.count("batchverify.verify_batch_report"))),
    _verify("ntt.ms", "ms", "lower",
            lambda v: _per(v.self_ms("ntt"), v.lanes)),
    _verify("scheme.hash_verify_ms", "ms", "lower",
            lambda v: _per(v.under("scheme.hash_to_point", "scheme.verify")
                           + v.self_ms("batchverify.hash_to_point"),
                           v.lanes)),
    _verify("scheme.verify_ms", "ms", "lower",
            lambda v: _per(v.self_ms("scheme.verify"),
                           v.count("scheme.verify")),
            on=(LEDGER_INGEST,)),
    # falcon.serialize and falcon.ledger.
    _only(LEDGER_INGEST, "serialize.decode_pk_ms", "ms", "lower",
          "throughput_per_s, latency_*, verify_*",
          lambda v: _per(v.self_ms("serialize.decode_public_key"),
                         v.records)),
    _only(LEDGER_INGEST, "serialize.decode_sig_ms", "ms", "lower",
          "throughput_per_s, latency_*, verify_*",
          lambda v: _per(v.self_ms("serialize.decode_signature"),
                         v.records)),
    _only(LEDGER_INGEST, "serialize.repeat_key_share", "ratio", "higher",
          "throughput_per_s, latency_*, verify_*",
          lambda v: _per(v.total("count1", "serialize.decode_public_key"),
                         v.count("serialize.decode_public_key"))),
    _only(LEDGER_INGEST, "ledger.commit_self_ms", "ms", "lower",
          "throughput_per_s, latency_*",
          lambda v: _per(v.self_ms("ledger.commit"),
                         v.count("ledger.submit"))),
    _only(LEDGER_INGEST, "ledger.submit_ms", "ms", "lower",
          "throughput_per_s, latency_*",
          lambda v: _per(v.self_ms("ledger.submit"),
                         v.count("ledger.submit"))),
    _only(LEDGER_INGEST, "ledger.reject_share", "ratio", "lower",
          "throughput_per_s, latency_*",
          lambda v: _per(v.total("count2", "ledger.commit"),
                         v.total("count1", "ledger.commit"))),
    # falcon.ntrugen and falcon.keystore: set-up work, every phase.
    LayerMetric("keys.keygen_ms_per_key", "ms/key", "lower", "setup_s",
                ALL, (), lambda v: _per(
                    v.self_ms("keys.generate", every_phase=True),
                    v.count("keys.generate", every_phase=True))),
    LayerMetric("keys.expand_ms_per_key", "ms/key", "lower", "setup_s",
                ALL, (), lambda v: _per(
                    v.self_ms("keys.expand", every_phase=True),
                    v.count("keys.generate", every_phase=True))),
    LayerMetric("keystore.checkout_ms_per_key", "ms/key", "lower",
                "setup_s", (SERVE_MIXED,), (SIGN_BULK, LEDGER_INGEST),
                lambda v: _per(
                    v.self_ms("keystore.signer", "keystore.checkout",
                              every_phase=True),
                    v.count("keystore.checkout", every_phase=True))),
    # falcon.serving.service and net.
    _only(SERVE_MIXED, "service.queue_wait_ms", "ms", "lower",
          "latency_*, verify_*", _service_p50_wait),
    _only(SERVE_MIXED, "service.sign_lanes_per_round", "count", "higher",
          "latency_*, verify_*",
          lambda v: _round_share(v, "count1", "nonzero1")),
    _only(SERVE_MIXED, "service.verify_lanes_per_round", "count", "higher",
          "latency_*, verify_*",
          lambda v: _round_share(v, "count2", "nonzero2")),
    _only(SERVE_MIXED, "service.plan_ms_per_round", "ms/round", "lower",
          "latency_*, verify_*",
          lambda v: _per(v.self_ms("service.plan_rounds"),
                         v.count("service.round"))),
    _only(SERVE_MIXED, "net.wire_ms", "ms", "lower",
          "verify_per_s, verify_*", _wire_p50),
    # The harness itself.
    _only(SERVE_MIXED, "loadgen.late_ms", "ms", "lower",
          "run validity (open-loop lateness)", _late_p90),
    LayerMetric("trace.overhead_share", "ratio", "lower",
                "run validity (traced vs untraced throughput_per_s)",
                (), (), lambda v: v.overhead_share),
    LayerMetric("trace.closure_gap_share", "ratio", "lower",
                "run validity (timed wall time no span explains)", (), (),
                lambda v: v.closure_gap_share()),
)

#: Largest share of the timed wall time a traced run may leave outside
#: its spans.
MAX_CLOSURE_GAP = 0.10


def compute(workload: str, view: View) -> tuple[dict, list[str]]:
    """Every per-layer metric of ``view`` plus the coverage problems:
    a metric the workload should produce that reads zero, a bypassed
    layer that reads non-zero, or a traced window that does not close
    (a span outliving its parent, or more than :data:`MAX_CLOSURE_GAP`
    of the timed wall time outside every top-level span)."""
    values = {}
    problems = []
    for metric in METRICS:
        value = float(metric.compute(view))
        values[metric.name] = value
        if workload in metric.on and value == 0.0:
            problems.append(f"{metric.name}: not produced on {workload}")
        if workload in metric.zero_on and value != 0.0:
            problems.append(f"{metric.name}: {workload} should bypass "
                            f"this layer but reads {value}")
    orphans = sum(reduced.orphans for reduced in view.reductions)
    if orphans:
        problems.append(f"{orphans} spans outlived their parent span")
    gap = values["trace.closure_gap_share"]
    if gap > MAX_CLOSURE_GAP:
        problems.append(f"trace.closure_gap_share {gap:.4f} > "
                        f"{MAX_CLOSURE_GAP}")
    return values, problems
