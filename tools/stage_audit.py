"""Per-stage wall-time audit for any queries() entry: runs the query,
prints the Ray Data `ds.stats()` operator breakdown (the measure-don't-
guess loop: a stage dominated by anything but useful compute is wrong),
then the all-to-all plans Ray Data ran for it, counted by kind from the
`AllToAllOperator[...]` entries of its "Execution plan" log messages.

Usage: python tools/stage_audit.py <query> [sf_dir] [num_cpus]
"""

from __future__ import annotations

import logging
import os
import re
import sys
from collections import Counter

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

_ALL_TO_ALL = re.compile(r"AllToAllOperator\[(\w+)\]")


class _PlanCounter(logging.Handler):
    def __init__(self) -> None:
        super().__init__(logging.INFO)
        self.kinds: Counter = Counter()

    def emit(self, record: logging.LogRecord) -> None:
        msg = record.getMessage()
        if "Execution plan" in msg:
            self.kinds.update(_ALL_TO_ALL.findall(msg))


def main() -> None:
    import ray
    # Ray Data sets up its loggers on import, dropping any handler
    # attached before: import it first, then attach
    import ray.data

    query = sys.argv[1]
    sf_dir = sys.argv[2] if len(sys.argv) > 2 else "/root/testdata/sf0.01"
    ncpu = int(sys.argv[3]) if len(sys.argv) > 3 else 32

    ray.init(address="local", num_cpus=ncpu, include_dashboard=False,
             logging_level="ERROR")
    ray.data.DataContext.get_current().enable_progress_bars = False
    plans = _PlanCounter()
    log = logging.getLogger("ray.data")
    log.setLevel(logging.INFO)
    log.addHandler(plans)

    import __ray_entry__ as entry

    res = entry.queries()[query](sf_dir)
    if hasattr(res, "stats"):
        res = res.materialize()
        print(res.stats())
    else:
        print(f"{query} returned {type(res).__name__} (no Dataset stats; "
              "bounded driver-side result)")
    kinds = ", ".join(f"{k} {n}" for k, n in sorted(plans.kinds.items()))
    print(f"{query}: {sum(plans.kinds.values())} all-to-all plans"
          + (f" ({kinds})" if kinds else ""))
    ray.shutdown()


if __name__ == "__main__":
    main()
