"""Flagship extraction pipeline (SURVEY.md §3.1 engine equivalent).

``read_parquet(pages) → map_batches(ExtractorActor pool) →
map_batches(summarize) → write_parquet`` — the reference's whole
``quick_recognize`` request lifecycle (app2.py:1360-1467) as one lazy,
streaming Dataset lineage. The cheap-path short-circuit (M5), payload-kind
branch (app.py:1224), structure analysis (M8) and error normalization (M11)
all happen inside the actor stage; the extractive summary (F4) runs as a
separate stateless batch stage, mirroring the reference's separate
summarize step (app2.py:1446-1448).

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
import ray
import ray.data

from ..functions.textproc import compression_ratio, summarize
from ..schema import EXTRACTED_SCHEMA
from ..stages.extractor import ExtractorActor

SUMMARY_MIN_WORDS = 30       # app2.py:1336: len(text.split()) < 30 → too short
SUMMARY_RATIO = 0.3          # app2.py:1447
SUMMARY_MAX_SENTENCES = 5    # app2.py:1447: "Max 5 kalimat untuk mobile"


def summarize_batch(batch: pa.Table, ratio: float = SUMMARY_RATIO,
                    max_sentences: int | None = SUMMARY_MAX_SENTENCES) -> pa.Table:
    """Stateless summary stage (v2 semantics, canonical per SURVEY.md D3).

    For ok rows: < 30 words → summary = text verbatim (app2.py:1336-1342),
    else extractive summary (F4). compression_ratio = len(summary)/len(text)
    with 0 on empty (app2.py:1351). Non-ok rows keep null summary.
    """
    texts = batch["extracted_text"].to_pylist()
    statuses = batch["status"].to_pylist()
    summaries: list[str | None] = []
    ratios: list[float | None] = []
    for text, status in zip(texts, statuses):
        if status != "ok" or text is None:
            summaries.append(None)
            ratios.append(None)
            continue
        if len(text.split()) < SUMMARY_MIN_WORDS:
            s = text
        else:
            s = summarize(text, ratio, max_sentences)
        summaries.append(s)
        ratios.append(compression_ratio(s, text))
    i_s = batch.column_names.index("summary")
    i_r = batch.column_names.index("compression_ratio")
    batch = batch.set_column(i_s, "summary", pa.array(summaries, pa.string()))
    return batch.set_column(i_r, "compression_ratio", pa.array(ratios, pa.float64()))


def default_concurrency() -> int:
    res = ray.cluster_resources() if ray.is_initialized() else {}
    return max(2, int(res.get("CPU", 4)))


ACTOR_NUM_CPUS = 0.8  # pool of size <cluster CPUs> reserves 80% — the
# remaining 20% keeps the read and summarize stages fed at ANY cluster size
# (a num_cpus=1 pool sized to the cluster starves the read stage and the
# pipeline deadlocks — observed empirically; SURVEY.md §4 pool-sizing rule).

# Default batch granularity for extraction is the whole BLOCK
# (batch_size=None): with no explicit batch size, Ray fuses
# ReadParquet→extract→summarize into ONE task per block, so raw payloads
# never take an extra object-store round trip between read and extract
# (measured at 32 CPUs / 10k pages: 4.8k → 6.3k docs/s, stats() shows the
# fused single operator). Per-task memory stays bounded by the BLOCK size
# (DataContext.target_max_block_size caps it at real scale), and
# multi-MB rows are bounded separately by extract_pipeline_skew_aware's
# BIG_ROW_BATCH branch. EXTRACT_BATCH_SIZE remains the explicit sub-block
# option for payload-heavy corpora where a caller wants finer batches.
EXTRACT_BATCH_SIZE = 128
DEFAULT_EXTRACT_BATCH: "int | None" = None


def extract_batch(batch: pa.Table, quality: str = "medium",
                  build_spans: bool = True, do_deskew: bool = False,
                  with_visualization: bool = False) -> pa.Table:
    """Task-form extraction stage: same kernels/state as ExtractorActor, with
    the warm engine held per WORKER PROCESS (lru_cache singleton) instead of
    per actor. The engine's state (compiled regexes + glyph template stack)
    is cheap to build, so stateless tasks with process-level caching give
    identical warm-state semantics with better scheduling than an actor pool
    (measured: tasks ~1200 docs/s vs actor pool ~420-760 docs/s on this
    host at 32 CPUs). The ExtractorActor actor-pool path remains available
    (use_actors=True) for kernels with genuinely expensive state (model
    weights), where per-actor initialization is the right amortization."""
    return _worker_extractor(quality, build_spans, do_deskew,
                             with_visualization)(batch)


BIG_ROW_BYTES = 2 << 20  # skew threshold; reference upload cap bounds the
# worst row at 16 MB (app.py:230)
BIG_ROW_BATCH = 2


def _payload_len(batch: pa.Table) -> "pa.Array":
    import pyarrow.compute as pc
    return pc.if_else(pc.is_null(batch["html"]),
                      pa.scalar(0, pa.int64()),
                      pc.cast(pc.binary_length(batch["html"]), pa.int64()))


def extract_pipeline_skew_aware(ds: "ray.data.Dataset", quality: str = "medium",
                                big_row_bytes: int = BIG_ROW_BYTES,
                                batch_size: "int | None" = DEFAULT_EXTRACT_BATCH,
                                **kwargs) -> "ray.data.Dataset":
    """Skew-aware variant (SURVEY.md §4, north-star requirement): oversized
    payload rows are isolated into their own tiny batches so one 16 MB blob
    never rides in a 128-row batch (bounding per-task memory to
    ~big_row_bytes × BIG_ROW_BATCH) and never makes a whole batch a
    straggler. Both branches are vectorized mask filters pushed directly
    after the read; the small-row branch keeps the default batch size. The
    input is read by both branches — cheap relative to extraction, and at
    real scale the filter fuses into the read tasks."""
    import pyarrow.compute as pc

    def keep_small(batch: pa.Table) -> pa.Table:
        return batch.filter(pc.less_equal(_payload_len(batch),
                                          pa.scalar(big_row_bytes, pa.int64())))

    def keep_big(batch: pa.Table) -> pa.Table:
        return batch.filter(pc.greater(_payload_len(batch),
                                       pa.scalar(big_row_bytes, pa.int64())))

    small = ds.map_batches(keep_small, batch_format="pyarrow")
    big = ds.map_batches(keep_big, batch_format="pyarrow")
    out_small = extract_pipeline(small, quality=quality,
                                 batch_size=batch_size, **kwargs)
    out_big = extract_pipeline(big, quality=quality,
                               batch_size=BIG_ROW_BATCH, **kwargs)
    return out_small.union(out_big)


def extract_pipeline(ds: "ray.data.Dataset", quality: str = "medium",
                     concurrency: int | None = None,
                     batch_size: "int | None" = DEFAULT_EXTRACT_BATCH,
                     with_summary: bool = True, build_spans: bool = True,
                     do_deskew: bool = False, with_visualization: bool = False,
                     use_actors: bool = False) -> "ray.data.Dataset":
    """Direct (no-dedup) path: warm-state extraction + summary, fully lazy."""
    if use_actors:
        # Autoscaling pool (min=1): a FIXED pool sized to the cluster
        # deadlocks on small clusters — e.g. at 4 CPUs, 4 actors x 0.8 CPU
        # pin 3.2 CPUs and the num_cpus=1 read tasks can never schedule.
        # With (1, N) the pool starts at one actor, the read stage always
        # makes progress, and Ray grows the pool only into free resources.
        out = ds.map_batches(
            ExtractorActor,
            fn_constructor_kwargs={"quality": quality, "build_spans": build_spans,
                                   "do_deskew": do_deskew,
                                   "build_visualization": with_visualization},
            batch_format="pyarrow",
            batch_size=batch_size,
            concurrency=(concurrency if concurrency is not None
                         else (1, default_concurrency())),
            num_cpus=ACTOR_NUM_CPUS,
        )
    else:
        out = ds.map_batches(
            extract_batch,
            fn_kwargs={"quality": quality, "build_spans": build_spans,
                       "do_deskew": do_deskew,
                       "with_visualization": with_visualization},
            batch_format="pyarrow",
            batch_size=batch_size,
        )
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


@functools.lru_cache(maxsize=8)
def _worker_extractor(quality: str, build_spans: bool, do_deskew: bool,
                      with_visualization: bool = False) -> ExtractorActor:
    """One warm extractor per worker process for the grouped dedup stage —
    the map_groups analog of actor-pool __init__ state."""
    return ExtractorActor(quality=quality, build_spans=build_spans,
                          do_deskew=do_deskew,
                          build_visualization=with_visualization)


N_DEDUP_COARSE = 256


def extract_pipeline_dedup(ds: "ray.data.Dataset", quality: str = "medium",
                           with_summary: bool = True, build_spans: bool = True,
                           do_deskew: bool = False) -> "ray.data.Dataset":
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
        ex = _worker_extractor(quality, build_spans, do_deskew)
        digests = group["digest"].to_pylist()
        urls = group["url"].to_pylist()
        langs = group["lang"].to_pylist()
        texts = group["text"].to_pylist()
        payloads = group["html"].to_pylist()
        by_digest: dict[str, list[int]] = {}
        for i, d in enumerate(digests):
            by_digest.setdefault(d, []).append(i)
        rows = []
        for d, members in by_digest.items():
            order = sorted(members, key=lambda i: urls[i])
            rep = order[0]
            rep_row = ex.extract_row(urls[rep], payloads[rep], texts[rep], langs[rep])
            for i in order:
                r = dict(rep_row)
                r["url"] = urls[i]
                if i != rep:
                    r["dedup_source_url"] = urls[rep]
                    r["source"] = "dedup" if r["source"] == "kernel" else r["source"]
                rows.append(r)
        return pa.Table.from_pylist(rows, schema=EXTRACTED_SCHEMA)

    with_keys = ds.map_batches(add_keys, batch_format="pyarrow")
    out = with_keys.groupby("coarse").map_groups(extract_coarse, batch_format="pyarrow")
    if with_summary:
        out = out.map_batches(summarize_batch, batch_format="pyarrow")
    return out


SMALL_SHARD_BYTES = 32 << 20

# The pages columns extraction reads: ``warc_ts`` is carried as data but
# unused by extraction (SURVEY.md §2.9), so it never leaves storage.
PAGES_COLUMNS = ["url", "html", "text", "lang"]


def read_pages(path: str | list[str], columns: list[str] | None = None,
               override_num_blocks: int | None = None) -> "ray.data.Dataset":
    """Column-pruned read of a pages table (file, directory, or file list);
    the default projection is ``PAGES_COLUMNS``.

    For many SMALL shards, the block count is pinned to the file count:
    Ray's default block sizing otherwise appends a SplitBlocks stage that
    copies every raw payload through the object store once more and worsens
    stage overlap (measured: 8.6k → 12.9k docs/s on the flagship at 32
    CPUs just from this). Big shards (≥32 MB avg) keep Ray's dynamic
    splitting, which is what bounds block size at real corpus scale."""
    import os

    if override_num_blocks is None:
        files: list[str] | None = None
        if isinstance(path, (list, tuple)):
            files = [p for p in path if str(p).endswith(".parquet")]
        elif isinstance(path, str) and os.path.isdir(path):
            files = [os.path.join(path, f) for f in os.listdir(path)
                     if f.endswith(".parquet")]
        if files:
            total = sum(os.path.getsize(f) for f in files)
            if total / len(files) < SMALL_SHARD_BYTES:
                # block target ~300 rows/task (≈0.6 s of kernel work), floored
                # at 2 tasks/CPU for pipelining/stragglers, capped at the
                # shard count: tiny corpora merge shards into fewer, larger
                # read tasks instead of paying ~15 ms scheduling overhead per
                # 78-row task (measured: 10k-row tier 1.96 s → 1.63 s), while
                # the 80k+ tiers keep one block per shard as before.
                import pyarrow.parquet as _pq

                import ray as _ray
                rows = sum(_pq.read_metadata(f).num_rows for f in files)
                cpus = int(_ray.cluster_resources().get("CPU", 32)) \
                    if _ray.is_initialized() else 32
                override_num_blocks = min(len(files),
                                          max(2 * cpus, rows // 300))
    return ray.data.read_parquet(path, columns=columns or PAGES_COLUMNS,
                                 override_num_blocks=override_num_blocks)
