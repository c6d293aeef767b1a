"""Host-cost benchmark of the simulator: seeded workloads, end-to-end
metrics with an output check, and a profiled per-layer breakdown.

Run from the repository root::

    python -m bench run --seed 1                 # every workload, untraced
    python -m bench run --workload serve_chat --seed 3 --trace 1
    python -m bench compare results-a/ results-b/

See ``bench/README.md`` for the workloads, metrics and bounds.  This
package imports nothing from ``repro`` at import time: only the worker
processes (:mod:`bench.worker`) load the simulator, so their set-up time
is what ``setup_s`` measures.
"""

from pathlib import Path

#: The checkout root: the directory holding ``bench/`` and ``src/``.
ROOT = Path(__file__).resolve().parent.parent

#: The simulator sources the workers import (never an installed copy).
SRC = ROOT / "src"

#: Workload names, in the order ``run`` executes them.
WORKLOADS = ("train_dual_zero3", "cluster_fifo", "serve_chat", "sweep_1node")
