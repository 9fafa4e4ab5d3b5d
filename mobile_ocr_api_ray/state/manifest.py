"""Checkpointed partition outputs with lineage manifests (SURVEY.md §4).

Re-expresses the reference's session/result cache (SESSION_CACHE
app.py:235-314, results-by-task_id app2.py:933-965) as durable data: each
partition's output is written atomically (temp file → rename) together with
a manifest row::

    (partition_id, input_shard, row_range, plan, content_digest, row_count,
     bytes, wall_ms, docs_per_s)

Resume = read the manifest directory, skip completed partitions, process
the rest — exact recovery after preemption, which the reference's in-memory
caches never survived (server restart loses everything, app.py:237). A
resume under a different plan is refused, since its partitions would
overlap the ones already on disk.

A flagship checkpoint partition is a contiguous range of input rows: with
the pages files taken in name order and N rows in all, partition i holds
rows ``[i·N//n, (i+1)·N//n)``, its manifest's ``row_range``, and ``plan`` is
``{input_rows: N, n_partitions: n}``. The plan comes from the parquet footers
alone, and each partition is one task that reads, extracts and commits its
own range, so there is no exchange and a resumed run reproduces
byte-identical partition contents. The exports shard by
``md5-hash32(key) % n_shards`` instead, because their input is any Dataset;
their ``plan`` is ``{n_shards: n}`` and ``row_range`` the key range.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
import zlib

import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import ray
import ray.data


def partition_of(urls: list[str], n_partitions: int) -> list[int]:
    return [zlib.crc32((u or "").encode()) % n_partitions for u in urls]


def add_partition_column(batch: pa.Table, n_partitions: int) -> pa.Table:
    # same crc32 % n as partition_of, via the shared buffer-slice helper;
    # kept for the url-hash checkpoint mirror in perfbench/tracing.py
    from ..str_hash import str_coarse
    parts = str_coarse(batch["url"], n_partitions)
    return batch.append_column("partition_id", pa.array(parts))


def _manifest_path(out_dir: str, partition_id: int) -> str:
    return os.path.join(out_dir, "_manifest", f"part-{partition_id:05d}.json")


def _read_manifest(path: str) -> dict | None:
    """The manifest at ``path`` if it is complete; None if it is missing,
    torn or incomplete, so its partition counts as not done."""
    try:
        with open(path) as fh:
            m = json.load(fh)
    except (OSError, ValueError):
        return None
    return m if isinstance(m, dict) and m.get("status") == "complete" else None


def _complete_manifests(out_dir: str) -> list:
    """All complete manifest rows under ``out_dir``, sorted by partition
    id — bounded metadata (one row per partition), never corpus-scale."""
    mdir = os.path.join(out_dir, "_manifest")
    names = sorted(os.listdir(mdir)) if os.path.isdir(mdir) else []
    rows = [_read_manifest(os.path.join(mdir, f)) for f in names
            if f.startswith("part-") and f.endswith(".json")]
    return sorted((m for m in rows if m), key=lambda m: m["partition_id"])


def completed_partitions(out_dir: str) -> set[int]:
    return {int(m["partition_id"]) for m in _complete_manifests(out_dir)}


def _completed_under(out_dir: str, plan: dict) -> set[int]:
    """Completed partition ids of ``out_dir``, refusing any written under a
    different plan: its rows would overlap this plan's partitions."""
    done = _complete_manifests(out_dir)
    for m in done:
        if m.get("plan") != plan:
            raise ValueError(
                f"{out_dir!r} holds partition {m['partition_id']} from a "
                f"different plan ({m.get('plan')}; this run: {plan}) "
                f"— use a fresh output directory")
    return {int(m["partition_id"]) for m in done}


def _commit(table: pa.Table, out_dir: str, partition_id: int, name: str,
            write_file, input_shard: str, t_start: float, key_col: str,
            text_col: str, row_range: list | None = None,
            plan: dict | None = None) -> dict:
    """The one commit path: ``write_file(table, tmp)`` then a rename to
    ``out_dir/name`` (the commit point: a crash leaves either nothing or a
    complete pair), then the sha256 lineage digest over
    (``key_col``, ``text_col``), then the manifest, also renamed into
    place. ``row_range`` defaults to the range of the key values."""
    os.makedirs(os.path.join(out_dir, "_manifest"), exist_ok=True)
    final = os.path.join(out_dir, name)
    write_file(table, final + ".tmp")
    os.replace(final + ".tmp", final)

    keys = table[key_col].to_pylist()
    texts = (table[text_col].to_pylist() if text_col in table.column_names
             else [""] * len(keys))
    h = hashlib.sha256()
    for k, t in zip(keys, texts):
        h.update(("" if k is None else str(k)).encode())
        h.update(b"\x00")
        h.update((t or "").encode())
        h.update(b"\x01")
    if row_range is None:
        # range over the ORIGINAL key values (stringified ints sort
        # lexicographically — "10" < "2" — which would invert the range)
        raw_keys = [k for k in keys if k is not None]
        row_range = [min(raw_keys), max(raw_keys)] if raw_keys else [None, None]
    wall_ms = (time.time() - t_start) * 1e3
    manifest = {
        "partition_id": partition_id,
        "input_shard": input_shard,
        "row_range": row_range,
        "plan": plan,
        "content_digest": h.hexdigest(),
        "row_count": len(keys),
        "bytes": os.path.getsize(final),
        "wall_ms": wall_ms,
        "docs_per_s": (len(keys) / (wall_ms / 1e3)) if wall_ms > 0 else None,
        "status": "complete",
    }
    mpath = _manifest_path(out_dir, partition_id)
    with open(mpath + ".tmp", "w") as fh:
        json.dump(manifest, fh)
    os.replace(mpath + ".tmp", mpath)
    return manifest


def write_partition(table: pa.Table, out_dir: str, partition_id: int,
                    input_shard: str, t_start: float,
                    key_col: str = "url",
                    text_col: str = "extracted_text",
                    row_range: list | None = None,
                    plan: dict | None = None) -> dict:
    """Atomic parquet partition write + manifest through ``_commit``.
    ``t_start`` is when this partition's task began, so wall_ms covers
    that task only. ``key_col``/``text_col`` select the lineage-digest
    columns (url/extracted_text for the flagship; doc_id/text for
    training-shard exports)."""
    return _commit(table, out_dir, partition_id,
                   f"part-{partition_id:05d}.parquet", pq.write_table,
                   input_shard, t_start, key_col, text_col, row_range, plan)


def _run_tasks(items: list[dict], task) -> None:
    """``task(item)`` once per item, one Ray task each and no exchange;
    every task commits its own output. Plain tasks, not a Ray Data
    ``map_batches`` over ``from_items``: with nothing to stream between
    tasks, Ray Data only adds per-task overhead (64 no-op tasks on one
    CPU: about 0.5 s through Ray Data, 0.06 s as plain tasks)."""
    run = ray.remote(task)
    ray.get([run.remote(item) for item in items])


def _row_groups(pages_path: str) -> list[tuple[str, int, int, int]]:
    """``(file, row group, first input row, rows)`` of every row group of
    the pages files taken in name order, from the parquet footers only."""
    files = (sorted(os.path.join(pages_path, f) for f in os.listdir(pages_path)
                    if f.endswith(".parquet"))
             if os.path.isdir(pages_path) else [pages_path])
    groups, first = [], 0
    for f in files:
        md = pq.read_metadata(f)
        for g in range(md.num_row_groups):
            rows = md.row_group(g).num_rows
            groups.append((f, g, first, rows))
            first += rows
    return groups


def _read_range(groups: list[tuple[str, int, int, int]], lo: int, hi: int,
                columns: list[str]) -> pa.Table:
    """Input rows ``[lo, hi)``, ``lo < hi``, reading only the row groups
    that overlap them."""
    parts = []
    for f, g, first, rows in groups:
        if first < hi and lo < first + rows:
            with pq.ParquetFile(f) as pf:
                parts.append(pf.read_row_group(g, columns=columns)
                             .slice(max(lo - first, 0), hi - max(lo, first)))
    return pa.concat_tables(parts)


def run_partitioned_extract(pages_path: str, out_dir: str, n_partitions: int = 64,
                            quality: str = "medium", batch_size: int = 32,
                            max_partitions: int | None = None) -> dict:
    """Checkpointed flagship run: plan row-range partitions from the
    parquet footers → skip completed ones → one task per remaining
    partition reads only the row groups overlapping its range, extracts
    and summarizes them in ``batch_size`` slices, sorts by url and commits
    through ``write_partition``. An empty range commits an empty part, so
    every partition completes. A resume with nothing left returns before
    any task runs or any payload is read.

    ``max_partitions`` processes only that many incomplete partitions (used
    by the kill/resume test to simulate preemption). Returns a summary
    {completed_before, completed_now, out_dir, n_partitions}. Raises
    ValueError if ``out_dir`` holds partitions of a different plan (input
    row count or ``n_partitions``).
    """
    from ..pipelines.extract import PAGES_COLUMNS, extract_batch, summarize_batch
    from ..schema import EXTRACTED_SCHEMA

    groups = _row_groups(pages_path)
    n_rows = sum(g[3] for g in groups)
    plan = {"input_rows": n_rows, "n_partitions": n_partitions}
    done = _completed_under(out_dir, plan)
    todo = [{"partition_id": i, "lo": i * n_rows // n_partitions,
             "hi": (i + 1) * n_rows // n_partitions}
            for i in range(n_partitions) if i not in done][:max_partitions]
    summary = {"completed_before": len(done), "completed_now": len(todo),
               "out_dir": out_dir, "n_partitions": n_partitions}
    if not todo:
        return summary

    def extract_range(item: dict) -> None:
        t0 = time.time()
        lo, hi = item["lo"], item["hi"]
        out = EXTRACTED_SCHEMA.empty_table()
        if lo < hi:
            pages = _read_range(groups, lo, hi, PAGES_COLUMNS)
            out = pa.concat_tables(
                [summarize_batch(extract_batch(pages.slice(s, batch_size), quality))
                 for s in range(0, pages.num_rows, batch_size)]).sort_by("url")
        write_partition(out, out_dir, item["partition_id"], pages_path, t0,
                        row_range=[lo, hi], plan=plan)

    _run_tasks(todo, extract_range)
    return summary


def read_output(out_dir: str):
    """Read back all completed partitions as one Dataset."""
    files = [os.path.join(out_dir, f) for f in sorted(os.listdir(out_dir))
             if f.endswith(".parquet")]
    return ray.data.read_parquet(files)


def _export_shards(ds, out_dir: str, n_shards: int, key_col: str,
                   text_col: str, max_shards: int | None, input_shard: str,
                   name: str, write_file) -> dict:
    """Skeleton of both exports: shard = md5-hash32(key) % n_shards (the
    samplers' pure-function rule, so shard membership is stable across
    runs, partitionings and cluster sizes); completed shards are filtered
    out BEFORE any work runs; each remaining shard is sorted by key and
    committed through ``_commit`` as ``name.format(shard)`` written by
    ``write_file``. A shard no key hashed into is committed empty, else
    resume would re-run the whole export forever."""
    from ..hashing import hash32 as h32

    plan = {"n_shards": n_shards}
    done = _completed_under(out_dir, plan)
    todo = sorted(set(range(n_shards)) - done)[:max_shards]
    summary = {"completed_before": len(done), "completed_now": len(todo),
               "out_dir": out_dir, "n_shards": n_shards}
    if not todo:
        # exact resume of a finished export must not re-scan the corpus
        return summary

    def commit(table: pa.Table, pid: int, t_start: float) -> None:
        _commit(table, out_dir, pid, name.format(pid), write_file,
                input_shard, t_start, key_col, text_col, plan=plan)

    def add_shard(batch: pa.Table) -> pa.Table:
        sh = [h32(v) % n_shards for v in batch[key_col].to_pylist()]
        return batch.append_column("partition_id", pa.array(sh, pa.int32()))

    ds = ds.map_batches(add_shard, batch_format="pyarrow")
    if len(todo) < n_shards:
        todo_arr = pa.array(todo, pa.int32())
        ds = ds.map_batches(
            lambda b: b.filter(pc.is_in(b["partition_id"], value_set=todo_arr)),
            batch_format="pyarrow")

    def write_group(group: pa.Table) -> pa.Table:
        g0 = time.time()
        pid = int(group["partition_id"][0].as_py())
        commit(group.drop_columns(["partition_id"]).sort_by(key_col), pid, g0)
        return pa.table({"partition_id": pa.array([pid], pa.int32())})

    wrote = set(ds.groupby("partition_id").map_groups(
        write_group, batch_format="pyarrow").to_pandas().get("partition_id", []))
    for pid in sorted(set(todo) - wrote):
        commit(pa.table({key_col: pa.array([], pa.int64()),
                         text_col: pa.array([], pa.string())}), pid, time.time())
    return summary


def export_training_shards(ds, out_dir: str, n_shards: int = 16,
                           key_col: str = "doc_id",
                           text_col: str = "text",
                           max_shards: int | None = None) -> dict:
    """Deterministic sharded training-data export — the final step of a
    curation pipeline: one atomic ``part-NNNNN.parquet`` + manifest row
    per md5-hash shard, with exact resume (``_export_shards``).
    ``max_shards`` stops after that many shards (preemption simulation,
    same contract as run_partitioned_extract's ``max_partitions``).
    Returns {completed_before, completed_now, out_dir, n_shards}; raises
    ValueError if ``out_dir`` holds shards of a different ``n_shards``."""
    return _export_shards(ds, out_dir, n_shards, key_col, text_col,
                          max_shards, "training_export",
                          "part-{:05d}.parquet", pq.write_table)


def _write_jsonl_gz(table: pa.Table, path: str) -> None:
    cols = table.column_names
    lines = [json.dumps(dict(zip(cols, row)), separators=(",", ":"),
                        ensure_ascii=False)
             for row in zip(*(table[c].to_pylist() for c in cols))]
    payload = ("\n".join(lines) + ("\n" if lines else "")).encode()
    with open(path, "wb") as fh:
        fh.write(pa.Codec("gzip").compress(payload, asbytes=True))


def export_jsonl_shards(ds, out_dir: str, n_shards: int = 16,
                        key_col: str = "doc_id", text_col: str = "text",
                        max_shards: int | None = None) -> dict:
    """Compressed-NDJSON training export — the interchange-format twin of
    export_training_shards (same skeleton, only the file writer differs),
    emitting ``shard-NNNNN.jsonl.gz`` files that round-trip through
    pipelines/reads.read_table_auto (tested: export → re-ingest → rollup
    equality). Bytes are deterministic end to end: rows sort by key,
    JSON serializes with fixed separators/column order, and the gzip
    frame comes from pyarrow's codec (no mtime header) — so the manifest
    content digests byte-diff across runs exactly like the parquet path."""
    return _export_shards(ds, out_dir, n_shards, key_col, text_col,
                          max_shards, "jsonl_export",
                          "shard-{:05d}.jsonl.gz", _write_jsonl_gz)


def shard_manifest_table(out_dir: str) -> pa.Table:
    """The export's lineage manifest as a table (shard_id, row_count,
    bytes, content_digest) sorted by shard — per-partition lineage +
    metrics per the north rule."""
    rows = _complete_manifests(out_dir)
    return pa.table({
        "shard_id": pa.array([r["partition_id"] for r in rows], pa.int32()),
        "row_count": pa.array([r["row_count"] for r in rows], pa.int64()),
        "bytes": pa.array([r["bytes"] for r in rows], pa.int64()),
        "content_digest": pa.array([r["content_digest"] for r in rows],
                                   pa.string())})


def compact_partitions(out_dir: str, compact_dir: str,
                       target_bytes: int = 256 << 20,
                       key_col: str = "doc_id",
                       text_col: str = "text") -> pa.Table:
    """Small-file compaction — the housekeeping operator every long-lived
    100-TB output directory needs: a partitioned export accumulates many
    small parquet files (fine-grained partitions are what make resume
    cheap), and downstream readers want few large ones.

    Plan: bin-pack CONSECUTIVE partitions into groups whose manifest
    ``bytes`` sum ≤ ``target_bytes`` (a single oversized partition forms
    its own group) — deterministic given the manifests, driver-side over
    metadata only. Execute: one Ray task per group reads its inputs,
    concatenates in partition order and writes one compacted parquet +
    manifest row through the same atomic temp→rename commit point as the
    original writer, so a crash mid-compaction leaves either nothing or a
    complete pair. Exact resume: groups already complete in
    ``compact_dir`` are skipped before any work runs (and re-checked
    inside the task). Peak memory per task ≈ ``target_bytes``, by design.

    Returns the compaction manifest (group_id, n_inputs, first_shard,
    last_shard, row_count, bytes, content_digest) sorted by group_id —
    the digest pins byte-determinism of the rewritten content."""
    manifests = _complete_manifests(out_dir)
    groups: list[list[int]] = []
    cur: list[int] = []
    cur_b = 0
    for m in manifests:
        if cur and cur_b + m["bytes"] > target_bytes:
            groups.append(cur)
            cur, cur_b = [], 0
        cur.append(int(m["partition_id"]))
        cur_b += int(m["bytes"])
    if cur:
        groups.append(cur)

    def _span(g: list) -> str:
        return f"compact:{g[0]}-{g[-1]}"

    # Resume is only valid against the SAME plan: groups are consecutive
    # input ranges, so the input_shard span tag fully determines a
    # group's membership. A completed group whose tag disagrees with
    # this run's plan (different target_bytes, or the input dir gained
    # partitions) would silently leave duplicated/stale rows on disk —
    # refuse instead of corrupting.
    done: dict[int, str] = {
        int(m["partition_id"]): m.get("input_shard", "")
        for m in _complete_manifests(compact_dir)}
    for gid, tag in done.items():
        if gid >= len(groups) or tag != _span(groups[gid]):
            raise ValueError(
                f"compact_dir {compact_dir!r} holds group {gid} "
                f"({tag!r}) from a different compaction plan "
                f"(this run: "
                f"{_span(groups[gid]) if gid < len(groups) else 'absent'}"
                f") — use a fresh compact_dir")

    def compact(item: dict) -> None:
        gid, pids = item["group_id"], item["pids"]
        # resume race: O(1) check of THIS group's manifest only
        if _read_manifest(_manifest_path(compact_dir, gid)):
            return
        t0 = time.time()
        tables = [pq.read_table(os.path.join(out_dir, f"part-{p:05d}.parquet"))
                  for p in pids]
        write_partition(pa.concat_tables(tables), compact_dir, gid,
                        _span(pids), t0, key_col=key_col, text_col=text_col)

    todo = [{"group_id": gid, "pids": g} for gid, g in enumerate(groups)
            if gid not in done]
    if todo:
        _run_tasks(todo, compact)

    rows = []
    for gid, g in enumerate(groups):
        m = _read_manifest(_manifest_path(compact_dir, gid))
        rows.append((gid, len(g), g[0], g[-1],
                     int(m["row_count"]), int(m["bytes"]),
                     m["content_digest"]))
    return pa.table({
        "group_id": pa.array([r[0] for r in rows], pa.int32()),
        "n_inputs": pa.array([r[1] for r in rows], pa.int64()),
        "first_shard": pa.array([r[2] for r in rows], pa.int32()),
        "last_shard": pa.array([r[3] for r in rows], pa.int32()),
        "row_count": pa.array([r[4] for r in rows], pa.int64()),
        "bytes": pa.array([r[5] for r in rows], pa.int64()),
        "content_digest": pa.array([r[6] for r in rows], pa.string())})
