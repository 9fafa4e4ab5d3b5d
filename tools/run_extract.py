"""Cluster entry point for the checkpointed flagship extraction run.

Submit with::

    ray job submit --working-dir . -- python tools/run_extract.py \
        --input /data/pages --out /data/extracted --partitions 512

On a live cluster ``ray job submit`` initializes Ray for the driver; run
standalone the guarded init below starts a local session. Re-running with
the same ``--out`` resumes: completed partitions are detected from their
lineage manifests and skipped (state/manifest.py). The printed summary
includes ``tasks`` (Ray tasks launched) and ``rows_read`` (payload rows
decoded). Exit code 0 iff every partition completed.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--input", required=True, help="pages parquet file/dir")
    ap.add_argument("--out", required=True, help="output + manifest dir")
    ap.add_argument("--partitions", type=int, default=64,
                    help="checkpoint partition count: contiguous input-row "
                         "ranges that set resume granularity; the task "
                         "count follows the rows-per-task rule of the read "
                         "blocks")
    ap.add_argument("--quality", default="medium",
                    choices=["low", "medium", "high", "v1"])
    ap.add_argument("--max-partitions", type=int, default=None,
                    help="process at most N incomplete partitions (smoke runs)")
    args = ap.parse_args()

    import ray

    if not ray.is_initialized():
        ray.init(address=os.environ.get("RAY_ADDRESS", "local"),
                 include_dashboard=False, logging_level="ERROR")

    from mobile_ocr_api_ray.state.manifest import (completed_partitions,
                                                   run_partitioned_extract)

    summary = run_partitioned_extract(
        args.input, args.out, n_partitions=args.partitions,
        quality=args.quality, max_partitions=args.max_partitions)
    done = len(completed_partitions(args.out))
    summary["completed_total"] = done
    print(json.dumps(summary))
    ray.shutdown()
    return 0 if done >= args.partitions or args.max_partitions is not None else 1


if __name__ == "__main__":
    raise SystemExit(main())
