"""End-to-end benchmark of the Falcon-512 signing stack.

One command (``python3 e2ebench/run.py``) runs a named workload from a
workload seed, checks every output it produces and prints every metric
by name and unit.  Three workloads stress different layers:

* ``sign-bulk`` — in-process ``sign_many`` batches, then cross-key
  ``verify_batch``;
* ``serve-mixed`` — a ``NetServer`` child process driven by an open
  loop and two closed loops over two connections;
* ``ledger-ingest`` — durable ledger commits of pre-signed records,
  then a light-client read-back.

Every timed phase does a fixed number of operations (never "run for N
seconds"), so sample counts and percentile ranks are identical from run
to run.  A traced run (``--trace 1``) installs the benchmark's own
wrappers around each layer's entry points (see :mod:`e2ebench.trace`)
and reduces the spans to the per-layer metrics of :mod:`e2ebench.layers`.
"""
