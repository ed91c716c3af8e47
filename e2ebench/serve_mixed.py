"""``serve-mixed``: an open loop and two closed loops against a server child.

The server child (:mod:`e2ebench.server`) runs ``NetServer`` over
``SigningService`` with the library defaults.  This process drives it
over two ``NetClient`` connections, with tenants drawn Zipf(1.1):

* **open** — Poisson arrivals at a fixed offered rate, 20% signs of
  never-repeated messages and 80% verifies of signatures obtained before
  timing (5% of them tampered), each timed from its due time;
* **sign-capacity** / **verify-capacity** — each connection keeps a fixed
  window of sign (or verify) requests in flight for a fixed count.
"""

from __future__ import annotations

import asyncio
import json
import os
import queue
import subprocess
import sys
import threading
from dataclasses import dataclass
from pathlib import Path

from repro.falcon import scheme, serialize
from repro.falcon.serving import NetClient

from . import inputs, spans
from .config import READY_TIMEOUT, REFERENCE_SHARE
from .harness import ROOT, TRACE_DIR, Outcome, Phases, Timeline, clock, \
    overhead_share
from .stats import median

WORKLOAD = "serve-mixed"

#: Connection ``k`` numbers its requests from ``k << 24``, so request ids
#: name one request across both connections (the wire-time join).
_ID_SPACE_BITS = 24


class ServerChild:
    """One server child process, commanded over its stdin and stdout."""

    def __init__(self, params: dict, timeout: float) -> None:
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(ROOT / "src"), str(ROOT)]
            + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
        self.timeout = timeout
        self._lines: queue.Queue = queue.Queue()
        started = clock()
        self.process = subprocess.Popen(
            [sys.executable, "-m", "e2ebench.server", json.dumps(params)],
            cwd=ROOT, env=env, stdin=subprocess.PIPE,
            stdout=subprocess.PIPE, text=True)
        self._reader = threading.Thread(target=self._pump, daemon=True)
        self._reader.start()
        try:
            self.ready = self._read("ready")
        except BaseException:
            self.kill()
            raise
        self.ready_s = clock() - started

    def _pump(self) -> None:
        for line in self.process.stdout:
            self._lines.put(line)
        self._lines.put(None)

    def _read(self, key: str) -> dict:
        while True:
            try:
                line = self._lines.get(timeout=self.timeout)
            except queue.Empty:
                raise RuntimeError(f"server child: no {key!r} line within "
                                   f"{self.timeout}s") from None
            if line is None:
                raise RuntimeError(f"server child exited before {key!r} "
                                   f"(code {self.process.wait()})")
            try:
                message = json.loads(line)
            except json.JSONDecodeError:
                continue
            if isinstance(message, dict) and key in message:
                return message

    def command(self, text: str) -> dict:
        self.process.stdin.write(text + "\n")
        self.process.stdin.flush()
        return self._read("ack")

    def stop(self) -> dict:
        """Drain and stop the child; its final report."""
        try:
            self.process.stdin.write("stop\n")
            self.process.stdin.flush()
            final = self._read("stopped")
            self.process.wait(timeout=self.timeout)
            return final
        finally:
            self.kill()

    def kill(self) -> None:
        if self.process.poll() is None:
            self.process.kill()
        self.process.wait()
        self._reader.join(timeout=self.timeout)
        for stream in (self.process.stdin, self.process.stdout):
            stream.close()


@dataclass
class Sample:
    """One request as the load generator saw it."""

    request: inputs.ServeRequest
    due: float
    sent: float
    done: float
    request_id: int
    result: object

    @property
    def latency(self) -> float:
        """Seconds from due time to response; ``inf`` when it failed."""
        if isinstance(self.result, Exception):
            return float("inf")
        return self.done - self.due


class LoadGenerator:
    """Issues the spec's requests over the client connections."""

    def __init__(self, config, spec, clients, pool_signatures,
                 tracer=None) -> None:
        self.config = config
        self.spec = spec
        self.clients = clients
        self.pool_signatures = pool_signatures
        self.tracer = tracer

    async def issue(self, client, request, due: float | None) -> Sample:
        request_id = client._next_id
        sent = clock()
        tenant = self.spec.tenants[request.tenant]
        try:
            if request.kind == "sign":
                result = await client.sign(tenant, request.message)
            else:
                message = self.spec.pool[request.pool_index][1]
                if request.tamper:
                    message = inputs.tampered(message)
                result = await client.verify(
                    tenant, message, self.pool_signatures[request.pool_index],
                    self.config.n)
        except Exception as error:  # counted, never fatal
            result = error
        return Sample(request, sent if due is None else due, sent, clock(),
                      request_id, result)

    async def open_loop(self, requests) -> list[Sample]:
        """Send each request at its due time, whatever is in flight."""
        started = clock()
        tasks = []
        for index, request in enumerate(requests):
            due = started + request.due
            now = clock()
            if due > now:
                await asyncio.sleep(due - now)
                if self.tracer is not None:
                    self.tracer.record("loadgen.idle", now, clock())
            tasks.append(asyncio.ensure_future(self.issue(
                self.clients[index % len(self.clients)], request, due)))
        return await asyncio.gather(*tasks)

    async def closed_loop(self, requests, window: int
                          ) -> tuple[list[Sample], float]:
        """Keep ``window`` requests in flight per connection; returns the
        samples and the completed requests per second."""
        pending = iter(requests)
        samples: list[Sample] = []
        timeline = Timeline()

        async def worker(client):
            for request in pending:
                samples.append(await self.issue(client, request, None))
                timeline.mark(1)

        await asyncio.gather(*(worker(client) for client in self.clients
                               for _ in range(window)))
        return samples, timeline.rate()


def _params(config, spec, trace_path: Path | None, cpu) -> dict:
    return {"n": config.n, "tenants": list(spec.tenants),
            "tokens": [token.hex() for token in spec.tokens],
            "master_seed": spec.master_seed.hex(),
            "trace_path": str(trace_path) if trace_path else None,
            "cpu": cpu}


def _cpu_split() -> tuple:
    """``(server cpu, load-generator cpu)``: two different CPUs when this
    process may use two or more, so the two processes never share a CPU
    in one run and do in another; ``(None, None)`` otherwise."""
    try:
        cpus = sorted(os.sched_getaffinity(0))
    except (AttributeError, OSError):
        return None, None
    return (cpus[-1], cpus[0]) if len(cpus) >= 2 else (None, None)


def _check(out: Outcome, phase: str, samples, spec, public_keys) -> None:
    """Every served signature verifies under its tenant's key; every
    verify verdict is True exactly for the untampered claims."""
    for sample in samples:
        request, result = sample.request, sample.result
        if isinstance(result, Exception):
            out.attempt(phase)
            out.fail(phase, f"{request.kind} refused or failed: {result!r}")
        elif request.kind == "sign":
            out.check(phase, isinstance(result, scheme.Signature)
                      and public_keys[request.tenant].verify(
                          request.message, result),
                      f"served signature for tenant {request.tenant} "
                      "does not verify")
        else:
            claim = "tampered" if request.tamper else "valid"
            out.check(phase, result is (not request.tamper),
                      f"verify of a {claim} claim returned {result!r}")


def _record(tracer, samples, open_loop: bool) -> None:
    if tracer is None:
        return
    for sample in samples:
        tracer.record("client.request", sample.sent, sample.done,
                      kind=spans.REQUEST, request=sample.request_id)
        if open_loop:
            tracer.record("loadgen.late", sample.due, sample.sent)


async def _drive(config, spec, child: ServerChild, out: Outcome,
                 phases: Phases) -> None:
    tracer = phases.tracer
    port = child.ready["port"]
    public_keys = [serialize.decode_public_key(bytes.fromhex(key))
                   for key in child.ready["public_keys"]]
    tokens = dict(zip(spec.tenants, spec.tokens))
    clients = []
    try:
        for index in range(config.connections):
            client = await NetClient.connect("127.0.0.1", port,
                                             tokens=tokens)
            client._next_id = index << _ID_SPACE_BITS
            clients.append(client)

        # The child is told of each phase first, so its acknowledgement
        # (it collects garbage before it answers) is a harness span at
        # the end of this process's previous phase.
        command = phases.wrap("harness.child_command", child.command)

        def enter(name: str, traced: bool = True) -> None:
            command(f"phase {name}")
            phases.enter(name, traced)

        # Signatures the verify requests claim, fetched before timing.
        enter("pool")
        pool = await asyncio.gather(*(
            clients[index % len(clients)].sign(spec.tenants[tenant], message)
            for index, (tenant, message) in enumerate(spec.pool)))
        for (tenant, message), signature in zip(spec.pool, pool):
            out.check("pool", public_keys[tenant].verify(message, signature),
                      f"pool signature for tenant {tenant} does not verify")
        load = LoadGenerator(config, spec, clients, pool, tracer)

        if tracer is not None:
            enter("reference", traced=False)
            child.command("trace off")
            count = max(1, round(REFERENCE_SHARE * config.sign_requests))
            reference = [inputs.ServeRequest(
                tenant=request.tenant, kind="sign",
                message=b"reference|" + request.message)
                for request in spec.sign_loop[:count]]
            _, reference_rate = await load.closed_loop(reference,
                                                       config.sign_window)
            child.command("trace on")

        enter("open")
        open_samples = await load.open_loop(spec.open_loop)
        _record(tracer, open_samples, open_loop=True)
        out.latency("latency", [sample.latency for sample in open_samples
                                if sample.request.kind == "sign"])
        out.latency("verify", [sample.latency for sample in open_samples
                               if sample.request.kind == "verify"])

        enter("sign-capacity")
        sign_samples, rate = await load.closed_loop(spec.sign_loop,
                                                    config.sign_window)
        _record(tracer, sign_samples, open_loop=False)
        out.metric("throughput_per_s", rate, "1/s")
        if tracer is not None:
            out.info["overhead_share"] = overhead_share(rate,
                                                        reference_rate)

        enter("verify-capacity")
        verify_samples, rate = await load.closed_loop(spec.verify_loop,
                                                      config.verify_window)
        _record(tracer, verify_samples, open_loop=False)
        out.metric("verify_per_s", rate, "1/s")

        enter("check", traced=False)
        _check(out, "open", open_samples, spec, public_keys)
        _check(out, "sign-capacity", sign_samples, spec, public_keys)
        _check(out, "verify-capacity", verify_samples, spec, public_keys)
        late = sorted(sample.sent - sample.due for sample in open_samples)
        out.info["open_loop_late_p50_ms"] = 1e3 * median(late)
    finally:
        for client in clients:
            await client.close()


def run(config, seed: int, tracer=None) -> Outcome:
    out = Outcome()
    phases = Phases(tracer)
    spec = inputs.self_check(WORKLOAD, config, seed)
    phases.enter("setup")
    trace_path = (TRACE_DIR / f"{WORKLOAD}-server.trace"
                  if tracer is not None else None)
    setups = []
    child = None
    server_cpu, client_cpu = _cpu_split()
    if client_cpu is not None:
        allowed = os.sched_getaffinity(0)
        os.sched_setaffinity(0, {client_cpu})
    try:
        for attempt in range(config.setup_repeats):
            last = attempt == config.setup_repeats - 1
            child = ServerChild(_params(config, spec,
                                        trace_path if last else None,
                                        server_cpu),
                                READY_TIMEOUT)
            setups.append(child.ready_s)
            out.check("setup", child.ready["warm_ok"],
                      "a tenant's warm-up verify failed")
            if not last:
                child.stop()
        out.metric("setup_s", median(setups), "s")
        asyncio.run(_drive(config, spec, child, out, phases))
        final = child.stop()
    finally:
        if child is not None:
            child.kill()
        if client_cpu is not None:
            os.sched_setaffinity(0, allowed)
    out.check("server", final["failed_rounds"] == 0,
              f"{final['failed_rounds']} server rounds failed")
    out.check("server", not final["rejected"],
              f"server refused frames: {final['rejected']}")
    out.metric("peak_rss_mb", final["peak_rss_mb"], "MB")
    if trace_path is not None:
        out.info["trace_files"] = [trace_path]
    return out
