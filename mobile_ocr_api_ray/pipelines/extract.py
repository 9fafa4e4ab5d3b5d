"""Flagship extraction pipeline (SURVEY.md §3.1 engine equivalent).

``read_parquet(pages) → map_batches(extract_batch) →
map_batches(summarize_batch)`` — the reference's whole ``quick_recognize``
request lifecycle (app2.py:1360-1467) as one lazy, streaming Dataset
lineage, which Ray fuses into one task per block. The cheap-path
short-circuit (M5), payload-kind branch (app.py:1224), structure analysis
(M8) and error normalization (M11) all happen inside the extraction stage,
a warm ``ExtractorActor`` held once per worker process; the extractive
summary (F4) runs as a separate stateless batch stage, mirroring the
reference's separate summarize step (app2.py:1446-1448).

The dedup variant re-expresses the v2 OCR_CACHE (app2.py:46-48,329-336):
hash-partition rows by content digest ``sha256(html) ⊕ lang ⊕ quality``
(the cache-key fields, app2.py:330), run the kernel ONCE per digest inside
the grouped stage, and replicate the result to every row in the group with
``dedup_source_url`` provenance — the cluster-wide guarantee the
per-process dict never gave (SURVEY.md §2.7 D1). This shuffles payload
bytes once by digest; it pays off exactly when the kernel is more expensive
than the exchange, which is the OCR regime.
"""

from __future__ import annotations

import functools
import hashlib

import pyarrow as pa
import pyarrow.compute as pc
import ray
import ray.data

from ..functions.textproc import compression_ratio, summarize_all
from ..stages.extractor import ExtractorActor

SUMMARY_MIN_WORDS = 30       # app2.py:1336: len(text.split()) < 30 → too short
SUMMARY_RATIO = 0.3          # app2.py:1447
SUMMARY_MAX_SENTENCES = 5    # app2.py:1447: "Max 5 kalimat untuk mobile"


def summary_columns(texts: list[str | None]) -> tuple[pa.Array, pa.Array]:
    """Summary and compression ratio of each text (v2 semantics, canonical
    per SURVEY.md D3): < 30 words → summary = text verbatim
    (app2.py:1336-1342), else the extractive summary (F4, one batch for all
    texts); compression_ratio = len(summary)/len(text) with 0 on empty
    (app2.py:1351). A null text has a null summary and ratio."""
    # = len(text.split()) >= SUMMARY_MIN_WORDS, without splitting past the
    # word that decides it
    long = [i for i, t in enumerate(texts) if t is not None
            and len(t.split(None, SUMMARY_MIN_WORDS)) >= SUMMARY_MIN_WORDS]
    summaries = list(texts)
    for i, s in zip(long, summarize_all([texts[i] for i in long], SUMMARY_RATIO,
                                        SUMMARY_MAX_SENTENCES)):
        summaries[i] = s
    ratios = [None if t is None else compression_ratio(s, t)
              for s, t in zip(summaries, texts)]
    return pa.array(summaries, pa.string()), pa.array(ratios, pa.float64())


def summarize_batch(batch: pa.Table) -> pa.Table:
    """Stateless summary stage: ``summary_columns`` of the ok rows' text;
    non-ok rows keep null summary."""
    texts = [t if status == "ok" else None for t, status in
             zip(batch["extracted_text"].to_pylist(), batch["status"].to_pylist())]
    summaries, ratios = summary_columns(texts)
    i_s = batch.column_names.index("summary")
    i_r = batch.column_names.index("compression_ratio")
    batch = batch.set_column(i_s, "summary", summaries)
    return batch.set_column(i_r, "compression_ratio", ratios)


# Extraction batches are whole BLOCKS (batch_size=None): with no explicit
# batch size, Ray fuses ReadParquet→extract→summarize into ONE task per
# block, so raw payloads never take an extra object-store round trip
# between read and extract (measured at 32 CPUs / 10k pages: 4.8k → 6.3k
# docs/s, stats() shows the fused single operator). Per-task memory stays
# bounded by the BLOCK size (DataContext.target_max_block_size caps it at
# real scale).
DEFAULT_EXTRACT_BATCH: "int | None" = None
# Slice size of a checkpoint partition (state/manifest.py), which is
# extracted and summarized outside Ray Data.
EXTRACT_BATCH_SIZE = 128


@functools.lru_cache(maxsize=8)
def _worker_extractor(quality: str, build_spans: bool) -> ExtractorActor:
    """One warm extractor per worker process and parameter set, shared by
    the task-form stage and the grouped dedup stage."""
    return ExtractorActor(quality=quality, build_spans=build_spans)


def extract_batch(batch: pa.Table, quality: str = "medium",
                  build_spans: bool = True) -> pa.Table:
    """Task-form extraction stage. The engine state (compiled regexes, glyph
    template stack, payload LRU) is cheap to build, so it is held per
    WORKER PROCESS by ``_worker_extractor`` rather than per actor: every
    Ray task on a worker reuses it, and the stage schedules like any other
    task. Per-row options (deskew, OCR mode) ride in the row's
    ``kernel_config``."""
    return _worker_extractor(quality, build_spans)(batch)


def extract_pipeline(ds: "ray.data.Dataset", quality: str = "medium",
                     with_summary: bool = True,
                     build_spans: bool = True) -> "ray.data.Dataset":
    """Direct (no-dedup) path: warm-state extraction + summary, fully lazy."""
    out = ds.map_batches(extract_batch,
                         fn_kwargs={"quality": quality, "build_spans": build_spans},
                         batch_format="pyarrow", batch_size=DEFAULT_EXTRACT_BATCH)
    if with_summary:
        out = out.map_batches(summarize_batch, batch_format="pyarrow",
                              batch_size=None)
    return out


# ----------------------------------------------------------- dedup variant

def add_digest(batch: pa.Table, quality: str) -> pa.Table:
    """Content digest = sha256(payload) ⊕ lang ⊕ quality — the v2 cache key
    fields (app2.py:330-336) as a column."""
    payloads = batch["html"].to_pylist()
    langs = batch["lang"].to_pylist()
    texts = batch["text"].to_pylist()
    digests = [
        hashlib.sha256(
            (p or b"") + b"\x00" + (t or "").encode() + b"\x00"
            + (l or "").encode() + b"\x00" + quality.encode()
        ).hexdigest()
        for p, l, t in zip(payloads, langs, texts)
    ]
    return batch.append_column("digest", pa.array(digests, pa.string()))


N_DEDUP_COARSE = 256


def extract_pipeline_dedup(ds: "ray.data.Dataset", quality: str = "medium",
                           with_summary: bool = True,
                           build_spans: bool = True) -> "ray.data.Dataset":
    """Dedup path: one kernel invocation per content digest, replicated to
    every duplicate row (D1). Output rows additionally carry
    ``dedup_source_url`` = the representative url for true duplicates.

    The shuffle groups on a coarse digest hash (256 partitions), and the
    group fn walks the exact digests inside — one Ray group dispatch per
    partition instead of per distinct document (see dedup.py rationale).
    Routing uses the shared str_hash.str_coarse convention (crc32 over the
    Arrow buffer — no per-row Python str round-trip); the group fn is
    routing-agnostic, so output is identical under any bucket assignment.
    """
    from ..str_hash import str_coarse

    def add_keys(batch: pa.Table) -> pa.Table:
        t = add_digest(batch, quality)
        return t.append_column(
            "coarse", pa.array(str_coarse(t["digest"], N_DEDUP_COARSE)))

    def extract_coarse(group: pa.Table) -> pa.Table:
        ex = _worker_extractor(quality, build_spans)
        urls = group["url"].to_pylist()
        by_digest: dict[str, list[int]] = {}
        for i, d in enumerate(group["digest"].to_pylist()):
            by_digest.setdefault(d, []).append(i)
        reps, take, order, dup_of = [], [], [], []
        for members in by_digest.values():
            members = sorted(members, key=urls.__getitem__)
            rep = members[0]
            take += [len(reps)] * len(members)
            order += members
            dup_of += [None] + [urls[rep]] * (len(members) - 1)
            reps.append(rep)
        out = ex(group.select(["url", "html", "text", "lang"]).take(reps)).take(take)
        is_dup = pc.is_valid(pa.array(dup_of, pa.string()))
        source = pc.if_else(pc.and_(is_dup, pc.equal(out["source"], "kernel")),
                            "dedup", out["source"])
        for name, col in (("url", pa.array([urls[i] for i in order], pa.string())),
                          ("dedup_source_url", pa.array(dup_of, pa.string())),
                          ("source", source)):
            out = out.set_column(out.schema.get_field_index(name), name, col)
        return out

    with_keys = ds.map_batches(add_keys, batch_format="pyarrow")
    out = with_keys.groupby("coarse").map_groups(extract_coarse, batch_format="pyarrow")
    if with_summary:
        out = out.map_batches(summarize_batch, batch_format="pyarrow")
    return out


SMALL_SHARD_BYTES = 32 << 20

# The pages columns extraction reads: ``warc_ts`` is carried as data but
# unused by extraction (SURVEY.md §2.9), so it never leaves storage.
PAGES_COLUMNS = ["url", "html", "text", "lang"]

# Rows one extraction task aims at (≈0.6 s of kernel work).
ROWS_PER_TASK = 300


def task_count(rows: int, units: int) -> int:
    """Tasks for ``rows`` input rows that split only between ``units``
    (shards for ``read_pages``, checkpoint partitions for
    ``state.manifest``): about ``ROWS_PER_TASK`` rows per task, floored at
    2 tasks per CPU for pipelining and stragglers, capped at ``units``.
    Tiny inputs merge units into fewer, larger tasks instead of paying
    ~15 ms scheduling overhead per 78-row task (measured: 10k-row tier
    1.96 s → 1.63 s), while the 80k+ tiers keep one task per unit."""
    cpus = int(ray.cluster_resources().get("CPU", 32)) \
        if ray.is_initialized() else 32
    return min(units, max(2 * cpus, rows // ROWS_PER_TASK))


def read_pages(path: str | list[str],
               columns: list[str] | None = None) -> "ray.data.Dataset":
    """Column-pruned read of a pages table (file, directory, or file list);
    the default projection is ``PAGES_COLUMNS``.

    For many SMALL shards, the block count is pinned to ``task_count`` over
    the shards: Ray's default block sizing otherwise appends a SplitBlocks
    stage that copies every raw payload through the object store once more
    and worsens stage overlap (measured: 8.6k → 12.9k docs/s on the
    flagship at 32 CPUs just from this). Big shards (≥32 MB avg) keep Ray's
    dynamic splitting, which is what bounds block size at real corpus
    scale."""
    import os

    num_blocks: int | None = None
    files: list[str] | None = None
    if isinstance(path, (list, tuple)):
        files = [p for p in path if str(p).endswith(".parquet")]
    elif isinstance(path, str) and os.path.isdir(path):
        files = [os.path.join(path, f) for f in os.listdir(path)
                 if f.endswith(".parquet")]
    if files:
        total = sum(os.path.getsize(f) for f in files)
        if total / len(files) < SMALL_SHARD_BYTES:
            import pyarrow.parquet as _pq

            rows = sum(_pq.read_metadata(f).num_rows for f in files)
            num_blocks = task_count(rows, len(files))
    return ray.data.read_parquet(path, columns=columns or PAGES_COLUMNS,
                                 override_num_blocks=num_blocks)
