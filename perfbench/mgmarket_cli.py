"""One ``mgmarket`` CLI process of the ``cli_pipeline`` workload.

Does what the installed ``mgmarket`` console script does, importing
``mgmarket.cli`` and calling ``main()``, and records what the benchmark needs
in the JSON file named by ``PERFBENCH_SIDECAR``:

* ``t_first``: ``time.monotonic()`` as the first call into mgmarket starts;
* ``t_end``: when ``main()`` returned;
* ``children_cpu``: user plus system CPU of reaped children (the sweep's
  pool workers);
* with ``PERFBENCH_TRACE=1``: span aggregates and probe counters of a
  traced pass, the spans themselves in a ``.npz`` beside the sidecar.

Usage: ``python3 perfbench/mgmarket_cli.py <verb> [flags]`` with ``src`` on
``PYTHONPATH``.
"""

import os
import sys
import time
from contextlib import nullcontext

from mgmarket import cli

if os.environ.get("PERFBENCH_TRACE") == "1":
    import tracing

    tracer = tracing.Tracer()
    patches = tracing.installed(tracer)
else:
    tracer, patches = None, nullcontext()

t_first = time.monotonic()
with patches:
    try:
        cli.main()
        code = 0
    except SystemExit as exc:
        code = exc.code
t_end = time.monotonic()

import json  # noqa: E402  (after the timed region)
import resource  # noqa: E402

sidecar = os.environ["PERFBENCH_SIDECAR"]
kids = resource.getrusage(resource.RUSAGE_CHILDREN)
record = {"t_first": t_first, "t_end": t_end, "children_cpu": kids.ru_utime + kids.ru_stime}
if tracer is not None:
    record["spans"], record["counters"] = tracer.take()
    tracer.save(sidecar + ".npz")
with open(sidecar, "w", encoding="utf-8") as fh:
    json.dump(record, fh)
sys.exit(code)
