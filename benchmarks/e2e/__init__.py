"""One end-to-end benchmark: records CSV → fit → bundle → HTTP serving.

Every workload runs the operator lifecycle of the paper's system on inputs
generated from a seed: a fit on six days of history, a saved bundle, an
incremental update with day seven, a second bundle, and a serving process
that answers decompose/region/pattern queries while hot-swapping between the
two bundles.  The workloads differ in shape (records vs. traffic matrix,
serial vs. sharded ingest, tower count, distinct vs. repeated queries), so
each stresses a different layer.  See ``README.md`` for the metric tables.

Run with ``python -m benchmarks.e2e run`` and compare two result files with
``python -m benchmarks.e2e compare BASE.json NEW.json``.
"""

from __future__ import annotations

import os
from pathlib import Path

#: Root of the checkout the benchmark measures (holds ``src/repro``).
ROOT = Path(__file__).resolve().parents[2]

#: Where the program's package lives inside the checkout.
SOURCE = ROOT / "src"


#: numpy's BLAS runs single-threaded in every benchmark process: on a 2-core
#: VM its second thread only contends with the pool workers, the serving
#: threads and the load client.  Repeated 400-tower fits ran 1-6% faster
#: with one thread and spread 2.2% instead of 3.5-5.1%; the parallelism the
#: program itself controls is unaffected.  The harness sets it on itself
#: before numpy loads, so the host-speed reference loop runs alike there
#: and in the children.
SINGLE_THREADED_BLAS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
                        "MKL_NUM_THREADS": "1"}


def child_env() -> dict[str, str]:
    """Environment for processes that import the program from the checkout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SOURCE), str(ROOT)])
    env["PYTHONUNBUFFERED"] = "1"
    env.update(SINGLE_THREADED_BLAS)
    return env
