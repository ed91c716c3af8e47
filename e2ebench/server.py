"""The ``serve-mixed`` server child: ``NetServer`` over ``SigningService``.

Started by :mod:`e2ebench.serve_mixed` as ``python -m e2ebench.server
<params-json>``.  It builds a 16-tenant ``ShardedKeyStore`` with the
library defaults, checks out every tenant's signer with one sign and one
verify, prints a ``ready`` line (port and every tenant's public key) and
then obeys one command per stdin line, acknowledging each:

* ``phase <name>`` — collect garbage and tag later spans with ``name``;
* ``trace on`` / ``trace off`` — record spans or not;
* ``stop`` (or end of input) — drain, write the spans, report peak RSS.
"""

from __future__ import annotations

import asyncio
import gc
import json
import os
import sys
from pathlib import Path

from repro.falcon import serialize
from repro.falcon.serving import NetServer, ShardedKeyStore, SigningService

from . import layers, spans
from .harness import peak_rss_mb


def _say(payload: dict) -> None:
    print(json.dumps(payload), flush=True)


async def serve(params: dict, tracer) -> dict:
    tenants = params["tenants"]
    n = params["n"]
    store = ShardedKeyStore(master_seed=bytes.fromhex(params["master_seed"]))
    service = SigningService(store, n=n)
    server = NetServer(service, tokens={
        tenant: bytes.fromhex(token)
        for tenant, token in zip(tenants, params["tokens"])})
    await service.start()
    await server.start()
    warm_ok = True
    public_keys = []
    for tenant in tenants:
        message = f"e2ebench-warm|{tenant}".encode()
        signature = await service.sign(tenant, message)
        warm_ok &= await service.verify(tenant, message, signature)
        public_keys.append(serialize.encode_public_key(
            store.public_key(tenant, n)).hex())
    _say({"ready": True, "port": server.port, "warm_ok": warm_ok,
          "public_keys": public_keys})

    loop = asyncio.get_running_loop()
    while True:
        line = await loop.run_in_executor(None, sys.stdin.readline)
        command = line.split()
        if not command or command[0] == "stop":
            break
        if command[0] == "phase":
            if tracer is not None:
                tracer.set_phase(command[1])
            gc.collect()
        elif command[0] == "trace" and tracer is not None:
            tracer.enabled = command[1] == "on"
        _say({"ack": " ".join(command)})
    await server.stop()
    store.close()
    return {"net": server.metrics.as_dict(),
            "service": service.metrics.as_dict()}


def main(argv: list[str]) -> int:
    params = json.loads(argv[0])
    if params.get("cpu") is not None:
        os.sched_setaffinity(0, {params["cpu"]})
    tracer = None
    if params.get("trace_path"):
        tracer = layers.install(spans.Tracer())
        tracer.enabled = True
    try:
        metrics = asyncio.run(serve(params, tracer))
    finally:
        if tracer is not None:
            tracer.uninstall()
            tracer.dump(Path(params["trace_path"]))
    _say({"stopped": True, "peak_rss_mb": peak_rss_mb(),
          "failed_rounds": metrics["service"]["failed_rounds"],
          "rejected": metrics["net"]["rejected"]})
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
