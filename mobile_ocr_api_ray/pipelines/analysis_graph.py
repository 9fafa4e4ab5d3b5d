"""Similarity search, extraction analytics, pages/link-graph queries.

Part of the training-data analysis suite over the driver tables
(documents / embeddings) + the synthetic pages corpus. Split from the
original ``pipelines/analysis.py`` (VERDICT r4 item 6) purely by theme —
no behavior change; ``pipelines.analysis`` re-exports every name, so all
callers keep importing ``analysis.<fn>``.
"""

from __future__ import annotations

import os
import re as _re
import zlib

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import ray
import ray.data
from ray.data.aggregate import Count, Max, Mean, Sum

from .. import corpus, str_hash
from ..hashing import hash32 as _hash32
from ..stages import crawl, dedup, exchange, similarity, text_analysis
from . import reads
from .extract import extract_pipeline, extract_pipeline_dedup, read_pages

from .analysis_common import (DOUBLE_OFFSET, _docs, _coarse_hint_for, _docs_coarse_hint, _doubled_docs, _WORD_TOKEN_RE, SPLIT_PCT, LINE_WIDTH, _chunked_text, _embeddings, _doubled_embeddings, _doubled_clone_pairs, _pages_dir_for, _corpus_rows, _hash_keep, _pages_coarse_hint)  # noqa: F401

from .analysis_text import (MIX_TARGET_DEN)  # noqa: F401



# ------------------------------------------------------- similarity search

ANN_K = 10
ANN_N_QUERIES = 4


def _query_matrix(sf_dir: str) -> np.ndarray:
    dim = reads.embedding_dim(os.path.join(sf_dir, "embeddings.parquet"))
    return similarity.fixed_queries(dim, ANN_N_QUERIES, seed=7)


def ann_brute_topk(sf_dir: str):
    """Exact cosine top-10 per fixed query; emits rank + vec_id (score kept
    out of the compared columns — cross-engine float ordering only)."""
    res = similarity.brute_topk(_embeddings(sf_dir), _query_matrix(sf_dir), k=ANN_K)

    def strip(batch: pa.Table) -> pa.Table:
        return batch.select(["query_id", "rank", "vec_id"])

    return res.map_batches(strip, batch_format="pyarrow").sort(["query_id", "rank"])


def hard_negatives(sf_dir: str):
    """Contrastive hard-negative mining over the embeddings table
    (stages/similarity.hard_negative_topk): for each of the 8 anchor
    vectors (vec_id < 8), the 10 most-cosine-similar DIFFERENT-label
    vectors. Anchors broadcast once via ray.put; the corpus streams
    through one matmul/mask/top-k pass + the bounded global reduce.
    Compared columns are (anchor_id, rank, vec_id) — the float score is
    kept out per the ann_brute_topk cross-engine-float convention."""
    emb = reads.read_small_aware(
        os.path.join(sf_dir, "embeddings.parquet"),
        columns=["vec_id", "embedding", "label"])
    res = similarity.hard_negative_topk(emb, k=ANN_K)

    def strip(batch: pa.Table) -> pa.Table:
        return batch.select(["anchor_id", "rank", "vec_id"])

    return (res.map_batches(strip, batch_format="pyarrow")
            .sort(["anchor_id", "rank"]))


def mmr_diverse_sample(sf_dir: str, k: int = 16, lam: float = 0.7):
    """MMR diverse selection over the embeddings table against the fixed
    query (stages/similarity.mmr_select): shortlist-then-rerank —
    bounded partial-top-256 relevance pass, one broadcast-set vector
    fetch, deterministic greedy on the driver. Emits the selection order
    (rank, vec_id) plus relevance/mmr_score."""
    import ray.data

    t = similarity.mmr_select(_embeddings(sf_dir), _query_matrix(sf_dir)[0],
                              k=k, lam=lam)
    return ray.data.from_arrow(t)


def semdedup_kept_doubled(sf_dir: str):
    """TRUE SemDeDup (Abbas et al. 2023) over the doubled embeddings
    corpus — k-means clusters bound the pairwise cosine work
    (stages/similarity.semdedup_kept), drop-larger at tau. VALUE-EXACT
    despite the iterative clustering: at tau = 0.999999 only exact
    clones pair among gaussian vectors, and clones provably share a
    cluster (identical vectors get identical centroid assignments under
    the deterministic tie-break), so kept = min(vec_id) per identical
    embedding — the same SQL ground truth as the components-based
    sibling embedding_dedup_kept_doubled, reached through a completely
    different (and 100-TB-preferred) execution shape. Returns (vec_id)."""
    return similarity.semdedup_kept(
        _doubled_embeddings(sf_dir), k=8, tau=0.999999).sort("vec_id")


def knn_graph_topk(sf_dir: str, k: int = 5):
    """Exact cosine k-NN graph over the embeddings corpus (self excluded);
    emits (vec_id, rank, nbr_id) — ranks only, same cross-engine float
    discipline as ann_brute_topk. Corpus side broadcasts once as the index
    (see stages/similarity.knn_graph for the scale-path note). The cap
    decision uses the parquet METADATA row count — no extra
    materialize+count pass just to route."""
    n = pq.ParquetFile(
        os.path.join(sf_dir, "embeddings.parquet")).metadata.num_rows
    res = similarity.knn_graph(_embeddings(sf_dir), k=k, n_rows=n)

    def strip(batch: pa.Table) -> pa.Table:
        return batch.select(["vec_id", "rank", "nbr_id"])

    return res.map_batches(strip, batch_format="pyarrow").sort(["vec_id", "rank"])


def ann_lsh_topk(sf_dir: str):
    res = similarity.lsh_topk(_embeddings(sf_dir), _query_matrix(sf_dir), k=ANN_K)

    def strip(batch: pa.Table) -> pa.Table:
        return batch.select(["query_id", "rank", "vec_id"])

    return res.map_batches(strip, batch_format="pyarrow").sort(["query_id", "rank"])


def ann_recall_eval(sf_dir: str):
    """ANN self-evaluation (the similarity-family sibling of
    extraction_eval): run brute-force cosine top-k (ground truth) and
    both approximate routes (sign-LSH multiprobe, IVF) over the SAME
    fixed queries, and score each method's recall@k = |approx ∩ brute|/k
    per query. All three result tables are bounded by construction
    (n_queries × k rows), so the set intersection happens on the driver
    over tiny frames — the mmr_select bounded-driver convention; the
    corpus itself streams through each method's own distributed pass.
    Deterministic (fixed hyperplanes/centroid seeding), but the LSH/IVF
    bucketing has no SQL form → rows-only, pinned by the brute-self-
    recall=1.0 invariant and a differential recompute of each recall
    value from the underlying result tables."""
    emb = _embeddings(sf_dir)
    q = _query_matrix(sf_dir)
    results = {
        "brute": similarity.brute_topk(emb, q, k=ANN_K).to_pandas(),
        "lsh": similarity.lsh_topk(emb, q, k=ANN_K).to_pandas(),
        "ivf": similarity.ivf_topk(emb, q, k=ANN_K).to_pandas(),
    }
    truth = {qid: set(g.vec_id)
             for qid, g in results["brute"].groupby("query_id")}
    method_col, qid_col, hits_col, napp_col, rec_col = [], [], [], [], []
    for method in ("brute", "lsh", "ivf"):
        df = results[method]
        got = {qid: set(g.vec_id) for qid, g in df.groupby("query_id")}
        for qid in sorted(truth):
            inter = len(got.get(qid, set()) & truth[qid])
            method_col.append(method)
            qid_col.append(int(qid))
            hits_col.append(inter)
            napp_col.append(len(got.get(qid, set())))
            rec_col.append(inter / ANN_K)
    return pa.table({
        "method": pa.array(method_col, pa.string()),
        "query_id": pa.array(qid_col, pa.int64()),
        "n_approx": pa.array(napp_col, pa.int64()),
        "n_hits": pa.array(hits_col, pa.int64()),
        "recall": pa.array(rec_col, pa.float64())})


def embedding_quantized(sf_dir: str):
    """Int8 quantization of the embeddings table, EXPLODED to
    (vec_id, dim_idx, q, scale) rows for the value-exact gate — the
    storage form (scale + d-byte binary codes,
    stages/similarity.quantize_int8) is what a 100-TB ANN corpus
    persists; the floor(+0.5) code rule is replayed bit-for-bit by
    DuckDB floor over the same double casts."""
    q = similarity.quantize_int8(_embeddings(sf_dir))

    def explode(batch: pa.Table) -> pa.Table:
        ids = batch["vec_id"].to_numpy(zero_copy_only=False)
        dims = batch["dim"].to_numpy(zero_copy_only=False)
        scales = batch["scale"].to_numpy(zero_copy_only=False)
        if len(ids) == 0:
            return pa.table({"vec_id": pa.array([], pa.int64()),
                             "dim_idx": pa.array([], pa.int64()),
                             "q": pa.array([], pa.int64()),
                             "scale": pa.array([], pa.float64())})
        d = int(dims[0])
        codes = np.frombuffer(
            b"".join(batch["q_bytes"].to_pylist()), np.int8)
        return pa.table({
            "vec_id": pa.array(np.repeat(ids, d).astype(np.int64)),
            "dim_idx": pa.array(np.tile(np.arange(d, dtype=np.int64),
                                        len(ids))),
            "q": pa.array(codes.astype(np.int64)),
            "scale": pa.array(np.repeat(scales, d), pa.float64())})

    return (q.map_batches(explode, batch_format="pyarrow")
            .sort(["vec_id", "dim_idx"]))


def ann_quantized_topk(sf_dir: str):
    """Cosine top-10 per fixed query over int8-quantized vectors
    (stages/similarity.quantized_topk) — the recall probe for the
    quantized storage path; same rank-only output discipline as
    ann_brute_topk."""
    res = similarity.quantized_topk(
        _embeddings(sf_dir), _query_matrix(sf_dir), k=ANN_K)

    def strip(batch: pa.Table) -> pa.Table:
        return batch.select(["query_id", "rank", "vec_id"])

    return res.map_batches(strip, batch_format="pyarrow") \
        .sort(["query_id", "rank"])


def ann_ivf_topk(sf_dir: str):
    """IVF-bucketed ANN (k-means coarse quantizer, n_probe nearest lists)."""
    res = similarity.ivf_topk(_embeddings(sf_dir), _query_matrix(sf_dir), k=ANN_K)

    def strip(batch: pa.Table) -> pa.Table:
        return batch.select(["query_id", "rank", "vec_id"])

    return res.map_batches(strip, batch_format="pyarrow").sort(["query_id", "rank"])


def extract_pages(sf_dir: str):
    d = _pages_dir_for(sf_dir)
    out = extract_pipeline(read_pages(os.path.join(d, "pages.parquet")))
    return out.select_columns(["url", "extracted_text", "confidence", "total_pages",
                               "payload_kind", "source", "status", "summary",
                               "compression_ratio", "lang", "quality"]).sort("url")


def extraction_rejection_report(sf_dir: str):
    """Ops rollup of the extraction quarantine surface — the reference's
    HTTP-400/error responses (app.py:317-320 whitelist rejection,
    app.py:602 error path) as ONE aggregated table instead of per-request
    JSON: per (payload_kind, status, error) → row count over the full
    crawl. In-batch value_counts partials → driver combine (≤ kinds ×
    statuses rows per block; no shuffle). VALUE-EXACT: payload kind is
    pinned to the generation-time golden table (engine sniff ≡ golden
    kind, tested corpus-wide by extraction_eval) and the rejected-row
    error strings are fixed constants (stages/extractor.py M11), so the
    oracle reproduces the rollup from golden.payload_kind alone."""
    d = _pages_dir_for(sf_dir)
    out = extract_pipeline(read_pages(os.path.join(d, "pages.parquet")),
                           with_summary=False)

    def partial(batch: pa.Table) -> pa.Table:
        df = pd.DataFrame({
            "payload_kind": batch["payload_kind"].to_pylist(),
            "status": batch["status"].to_pylist(),
            "error": [e or "" for e in batch["error"].to_pylist()]})
        g = (df.groupby(["payload_kind", "status", "error"], sort=False)
             .size().reset_index(name="n"))
        return pa.table({
            "payload_kind": pa.array(g["payload_kind"].tolist(),
                                     pa.string()),
            "status": pa.array(g["status"].tolist(), pa.string()),
            "error": pa.array(g["error"].tolist(), pa.string()),
            "n": pa.array(g["n"].to_numpy(), pa.int64())})

    parts = out.map_batches(partial, batch_format="pyarrow").to_pandas()
    agg = (parts.groupby(["payload_kind", "status", "error"])["n"].sum()
           .reset_index().sort_values(["payload_kind", "status", "error"])
           .reset_index(drop=True))
    return pa.table({
        "payload_kind": pa.array(agg["payload_kind"].tolist(), pa.string()),
        "status": pa.array(agg["status"].tolist(), pa.string()),
        "error": pa.array(agg["error"].tolist(), pa.string()),
        "n": pa.array(agg["n"].to_numpy(), pa.int64())})


def extract_pages_dedup(sf_dir: str):
    d = _pages_dir_for(sf_dir)
    out = extract_pipeline_dedup(read_pages(os.path.join(d, "pages.parquet")))
    return out.select_columns(["url", "extracted_text", "confidence", "status",
                               "dedup_source_url"]).sort("url")


def pdf_page_rows(sf_dir: str):
    """M6 doc→pages explode over the pages corpus: one row per PDF page
    (non-PDF rows pass through as page 0). Payload bytes are dropped from
    the result — only (url, page, total_pages, page_bytes) metadata."""
    from ..stages.pages_ops import explode_pdf_pages

    d = _pages_dir_for(sf_dir)
    ds = read_pages(os.path.join(d, "pages.parquet"))

    def meta(batch: pa.Table) -> pa.Table:
        exploded = explode_pdf_pages(batch)
        sizes = [len(p) if p is not None else 0 for p in exploded["html"].to_pylist()]
        return pa.table({"url": exploded["url"], "page": exploded["page"],
                         "total_pages": exploded["total_pages"],
                         "page_bytes": pa.array(sizes, pa.int64())})

    return ds.map_batches(meta, batch_format="pyarrow").sort(["url", "page"])


def doc_structure_stats(sf_dir: str):
    """M8 structure analysis rollup: per-document paragraph/column/sentence/
    span counts from the structure columns the extractor emits (sentences
    are the rows' sentence spans)."""
    d = _pages_dir_for(sf_dir)
    out = extract_pipeline(read_pages(os.path.join(d, "pages.parquet")),
                           with_summary=False, build_spans=True)

    def stats(batch: pa.Table) -> pa.Table:
        paras = batch["paragraphs"].to_pylist()
        cols = batch["columns"].to_pylist()
        spans = batch["spans"].to_pylist()
        n_sent = [sum(s["kind"] == "sentence" for s in ss) if ss else 0 for ss in spans]
        return pa.table({
            "url": batch["url"],
            "n_paragraphs": pa.array([len(p) if p else 0 for p in paras], pa.int64()),
            "n_columns": pa.array([len(c) if c else 0 for c in cols], pa.int64()),
            "n_sentences": pa.array(n_sent, pa.int64()),
            "n_spans": pa.array([len(s) if s else 0 for s in spans], pa.int64()),
            "status": batch["status"],
        })

    return out.map_batches(stats, batch_format="pyarrow").sort("url")


def image_meta(sf_dir: str):
    """Multimodal decode stage over the pages corpus: every payload through
    ImageDecodeStage; non-image payloads surface as status='error' rows
    (M11 row-level isolation), IMGX decodes natively."""
    from ..stages.multimodal import ImageDecodeStage, image_payload_mask

    d = _pages_dir_for(sf_dir)
    ds = read_pages(os.path.join(d, "pages.parquet"))

    def strip_non_images(batch: pa.Table) -> pa.Table:
        # vectorized magic-byte prefilter (cheap task stage): non-image
        # payloads (the ~90% HTML majority) are nulled out so multi-MB blobs
        # never reach the decode loop; the stage's own mask then routes
        # null rows straight to the vectorized error-row path
        pcol = batch["html"] if "html" in batch.column_names else batch["payload"]
        mask = image_payload_mask(pcol)
        return pa.table({"url": batch["url"],
                         "payload": pc.if_else(mask, pcol,
                                               pa.scalar(None, pa.binary()))})

    # the stage holds no state worth an actor, so an instance runs as plain
    # tasks: a fixed actor pool reserves CPUs the read tasks need, and on a
    # small session the query never finishes
    out = (ds.map_batches(strip_non_images, batch_format="pyarrow")
           .map_batches(ImageDecodeStage(), batch_format="pyarrow",
                        batch_size=256))
    return out.sort("url")


def image_dhash_dups(sf_dir: str):
    """Perceptual-hash image near-dup detection over the pages corpus:
    IMGX payloads → 64-bit dHash (stages/multimodal.ImageDHashStage;
    gradient-sign fingerprint that survives re-encode / brightness / small
    noise where byte digests split) → global owner labeling per hash via
    the exact_dedup coarse digest-prefix exchange (16-byte hash rows move,
    pixels never do). The hamming-tolerant extension is the simhash
    4-band machinery (stages/dedup.simhash_pairs) over the same column."""
    from .. import str_hash
    from ..stages.multimodal import ImageDHashStage, image_payload_mask

    d = _pages_dir_for(sf_dir)
    ds = read_pages(os.path.join(d, "pages.parquet"))

    def strip_non_images(batch: pa.Table) -> pa.Table:
        pcol = batch["html"] if "html" in batch.column_names \
            else batch["payload"]
        mask = image_payload_mask(pcol)
        return pa.table({"url": batch["url"],
                         "payload": pc.if_else(mask, pcol,
                                               pa.scalar(None, pa.binary()))})

    hashed = (ds.map_batches(strip_non_images, batch_format="pyarrow")
              .map_batches(ImageDHashStage(), batch_format="pyarrow",
                           batch_size=256))

    def add_coarse(batch: pa.Table) -> pa.Table:
        coarse = str_hash.crc32_of_strings(batch["dhash"]) % 64
        return batch.append_column(
            "coarse", pa.array(coarse.astype(np.int32), pa.int32()))

    def owners(df: pd.DataFrame) -> pd.DataFrame:
        d = df.sort_values(["dhash", "url"], kind="mergesort") \
            .reset_index(drop=True)
        h = d["dhash"].to_numpy()
        new = np.ones(len(d), bool)
        if len(d) > 1:
            new[1:] = h[1:] != h[:-1]
        sizes = np.diff(np.append(np.nonzero(new)[0], len(d)))
        own = np.repeat(d["url"].to_numpy()[new], sizes)
        return pd.DataFrame({
            "url": d["url"], "dhash": d["dhash"],
            "width": d["width"], "height": d["height"],
            "owner_url": pd.array(own, "string"),
            "is_dup": own != d["url"].to_numpy()})

    out = (hashed.map_batches(add_coarse, batch_format="pyarrow")
           .groupby("coarse").map_groups(owners, batch_format="pandas"))
    out = exchange.nonempty_or_typed_table(out, {
        "url": pa.string(), "dhash": pa.string(), "width": pa.int64(),
        "height": pa.int64(), "owner_url": pa.string(),
        "is_dup": pa.bool_()})
    return out.sort("url")


def frame_samples(sf_dir: str):
    """Frame sampling over PDFX multi-frame containers (video stand-in):
    every 2nd frame, metadata only."""
    from ..stages.multimodal import sample_frames

    d = _pages_dir_for(sf_dir)
    ds = read_pages(os.path.join(d, "pages.parquet"))

    def meta(batch: pa.Table) -> pa.Table:
        s = sample_frames(batch, every_nth=2)
        sizes = [len(f) if f is not None else 0 for f in s["frame"].to_pylist()]
        return pa.table({"url": s["url"], "frame_idx": s["frame_idx"],
                         "total_frames": s["total_frames"],
                         "frame_bytes": pa.array(sizes, pa.int64())})

    return ds.map_batches(meta, batch_format="pyarrow").sort(["url", "frame_idx"])


def audio_features(sf_dir: str):
    """Audio feature extraction over deterministic AUDX payloads synthesized
    from the embeddings table (vec_id-keyed sine waves) — exercises the
    decode → DSP stage end-to-end with no external codecs."""
    from ..stages.multimodal import AudioFeatureStage, encode_audx

    def synth(batch: pa.Table) -> pa.Table:
        ids = batch["vec_id"].to_pylist()
        payloads = []
        for i in ids:
            freq = 100.0 + (i % 400)
            t = np.arange(0, 4000) / 16000.0
            payloads.append(encode_audx(10000.0 * np.sin(2 * np.pi * freq * t)))
        return pa.table({"url": pa.array([f"audx://{i}" for i in ids], pa.string()),
                         "payload": pa.array(payloads, pa.binary())})

    ds = _embeddings(sf_dir).map_batches(synth, batch_format="pyarrow")
    out = ds.map_batches(AudioFeatureStage(), batch_format="pyarrow",
                         batch_size=128)
    return out.sort("url")


RECRAWL_SHIFT_US = 7 * 24 * 3600 * 1_000_000  # recrawl 7 days later


def latest_capture_per_url(sf_dir: str):
    """Capture dedup over a simulated recrawl: pages ∪ (same urls, warc_ts
    + 7 days, crawl_gen 2) → exactly one row per url, the newest capture.
    The two-stage partial argmax (stages/crawl.py) means the union's rows
    shrink per batch before the url-hash shuffle — at k captures/url the
    exchange carries ~1/k of the crawl. Every surviving row must be gen 2
    by construction; the pandas-differential test checks exactly that."""
    d = _pages_dir_for(sf_dir)
    base = read_pages(os.path.join(d, "pages.parquet"),
                      columns=["url", "warc_ts", "lang"])

    def gen(g: int, shift_us: int):
        def tag(batch: pa.Table) -> pa.Table:
            ts = pc.add(batch["warc_ts"].cast(pa.int64()),
                        pa.scalar(shift_us, pa.int64()))
            return pa.table({
                "url": batch["url"],
                "warc_ts": ts.cast(pa.timestamp("us")),
                "lang": batch["lang"],
                "crawl_gen": pa.array(
                    np.full(batch.num_rows, g, np.int64))})
        return tag

    ds = (base.map_batches(gen(1, 0), batch_format="pyarrow")
          .union(base.map_batches(gen(2, RECRAWL_SHIFT_US),
                                  batch_format="pyarrow")))
    out = crawl.latest_rows_per_key(
        ds, "url", ["warc_ts", "crawl_gen"],
        n_coarse=_docs_coarse_hint(sf_dir, 2),
        schema={"url": pa.string(), "warc_ts": pa.timestamp("us"),
                "lang": pa.string(), "crawl_gen": pa.int64()})
    return out.sort("url")


def domain_page_stats(sf_dir: str):
    """Per-domain crawl rollup: page count, raw html bytes, newest capture
    — host extracted from the url with one vectorized RE2 per batch, a
    per-batch combiner (Arrow group_by inside the batch), then one domain
    groupby over pre-aggregated rows. Ray's native Max degrades timestamp
    values to second resolution (measured, see memory), so the max rides
    as int64 µs and is cast back after the aggregate."""
    d = _pages_dir_for(sf_dir)
    pages = read_pages(os.path.join(d, "pages.parquet"),
                       columns=["url", "html", "warc_ts"])

    def partial(batch: pa.Table) -> pa.Table:
        tb = pa.table({
            # schemeless/malformed urls roll up under "" — the host_edges
            # / host_capped_pages convention (a null group would also be
            # dropped by some group paths)
            "domain": pc.fill_null(crawl.host_of(batch["url"]), ""),
            "b": pc.binary_length(batch["html"]).cast(pa.int64()),
            "ts_us": batch["warc_ts"].cast(pa.int64())})
        g = tb.group_by("domain").aggregate(
            [("b", "sum"), ("b", "count"), ("ts_us", "max")])
        return pa.table({
            "domain": g["domain"],
            "total_html_bytes": g["b_sum"],
            "n_pages": g["b_count"].cast(pa.int64()),
            "ts_us": g["ts_us_max"]})

    agg = (pages.map_batches(partial, batch_format="pyarrow")
           .groupby("domain")
           .aggregate(Sum("total_html_bytes", alias_name="total_html_bytes"),
                      Sum("n_pages", alias_name="n_pages"),
                      Max("ts_us", alias_name="ts_us")))

    def finalize(batch: pa.Table) -> pa.Table:
        return pa.table({
            "domain": batch["domain"],
            "n_pages": batch["n_pages"],
            "total_html_bytes": batch["total_html_bytes"],
            "last_capture": batch["ts_us"].cast(pa.int64())
                                          .cast(pa.timestamp("us"))})

    return agg.map_batches(finalize, batch_format="pyarrow").sort("domain")


def extract_lang_stats(sf_dir: str):
    """G6 — the one true wide aggregation over extraction output: per-lang
    doc counts + mean confidence + mean extracted length."""
    d = _pages_dir_for(sf_dir)
    out = extract_pipeline(read_pages(os.path.join(d, "pages.parquet")),
                           with_summary=False, build_spans=False)

    def project(batch: pa.Table) -> pa.Table:
        return pa.table({"lang": batch["lang"], "confidence": batch["confidence"],
                         "n_chars": pc.cast(pc.utf8_length(batch["extracted_text"]), pa.int64()),
                         "ok": pc.cast(pc.equal(batch["status"], pa.scalar("ok")), pa.int64())})

    agg = (out.map_batches(project, batch_format="pyarrow")
           .groupby("lang")
           .aggregate(Count(alias_name="n_docs"), Mean("confidence", alias_name="avg_confidence"),
                      Sum("n_chars", alias_name="total_chars"), Sum("ok", alias_name="n_ok")))
    return agg.sort("lang")


def sample_docs(sf_dir: str, pct: int = 10):
    """Deterministic hash sampling — reproducible corpus subsampling for
    training-data curation: keep a row iff md5(doc_id) falls under pct% of
    the 32-bit space (_hash_keep). Unlike random_shuffle or seeded
    sampling, membership is a pure function of the key: stable across
    runs, partitionings and cluster sizes, and reproducible in SQL
    (md5 available in DuckDB) for the oracle."""

    def keep(batch: pa.Table) -> pa.Table:
        mask = [_hash_keep(i, pct) for i in batch["doc_id"].to_pylist()]
        return batch.filter(pa.array(mask, pa.bool_()))

    return (_docs(sf_dir, ["doc_id", "text"])
            .map_batches(keep, batch_format="pyarrow").sort("doc_id"))


STRATA_PCT = {"eng": 20, "ind": 50}
STRATA_DEFAULT_PCT = 100


def stratified_sample_docs(sf_dir: str, strata: dict[str, int] | None = None):
    """Stratified deterministic sampling: a PER-GROUP hash fraction
    (downsample over-represented languages, keep the rest) — the standard
    rebalancing step for training-data curation. Same pure-function
    membership as sample_docs (md5 of the key), so it is stable across
    partitionings and reproducible in the SQL oracle; the per-lang
    fraction is a vectorized bound lookup, no shuffle."""
    # {} must mean "no downsampling anywhere", not "use defaults"
    pcts = STRATA_PCT if strata is None else strata

    def keep(batch: pa.Table) -> pa.Table:
        mask = [_hash_keep(i, pcts.get(lang, STRATA_DEFAULT_PCT))
                for i, lang in zip(batch["doc_id"].to_pylist(),
                                   batch["lang"].to_pylist())]
        return batch.filter(pa.array(mask, pa.bool_()))

    return (_docs(sf_dir, ["doc_id", "lang", "n_chars"])
            .map_batches(keep, batch_format="pyarrow").sort("doc_id"))


def dup_window_stats_docs(sf_dir: str):
    """Per-doc duplicated k-token-window statistics over documents (window
    duplicated ⇔ its token sequence appears in ≥2 distinct docs anywhere in
    the corpus — the shared source boilerplate makes this a live signal on
    the plain corpus, no doubling needed). Value-exact SQL oracle."""
    nc = _docs_coarse_hint(sf_dir)
    out = dedup.dup_window_stats(_docs(sf_dir, ["doc_id", "text"]),
                                 n_coarse=nc, n_coarse_docs=nc)
    return out if isinstance(out, pa.Table) else out.sort("doc_id")


def page_links(sf_dir: str):
    """Per-page out-links (src_url, dst_url, anchor_text) over the crawl
    corpus — resolved, fragment-stripped, http(s)-only."""
    from ..stages import linkgraph

    d = _pages_dir_for(sf_dir)
    pages = read_pages(os.path.join(d, "pages.parquet"),
                       columns=["url", "html"])
    return pages.map_batches(linkgraph.extract_links,
                             batch_format="pyarrow") \
                .sort(["src_url", "dst_url", "anchor_text"])


def host_graph_edges(sf_dir: str):
    """Host→host link-count rollup of the crawl's hyperlink graph."""
    from ..stages import linkgraph

    d = _pages_dir_for(sf_dir)
    pages = read_pages(os.path.join(d, "pages.parquet"),
                       columns=["url", "html"])
    links = pages.map_batches(linkgraph.extract_links,
                              batch_format="pyarrow")
    out = linkgraph.host_edges(links, n_coarse=_pages_coarse_hint(sf_dir))
    return out if isinstance(out, pa.Table) else \
        out.sort(["src_host", "dst_host"])


def host_pagerank(sf_dir: str):
    """PageRank over the host link graph (10 rounds, d=0.85, deterministic
    sorted summation — bit-identical across partitionings/parallelism)."""
    from ..stages import linkgraph

    d = _pages_dir_for(sf_dir)
    pages = read_pages(os.path.join(d, "pages.parquet"),
                       columns=["url", "html"])
    links = pages.map_batches(linkgraph.extract_links,
                              batch_format="pyarrow")
    nc = _pages_coarse_hint(sf_dir)
    edges = linkgraph.host_edges(links, n_coarse=nc)
    out = linkgraph.pagerank(edges, n_coarse=nc)
    return out if isinstance(out, pa.Table) else out.sort("node")


def host_pagerank_int(sf_dir: str):
    """Fixed-point integer PageRank over the host link graph
    (stages/linkgraph.pagerank_int, 10 rounds, damping 85/100, scale 1e9
    micro-units). Pure-integer floor-division recurrence ⇒ value-exact vs
    an unrolled MATERIALIZED-CTE SQL oracle — the oracle-able sibling of
    host_pagerank, whose iterated float products have no SQL form."""
    from ..stages import linkgraph

    d = _pages_dir_for(sf_dir)
    pages = read_pages(os.path.join(d, "pages.parquet"),
                       columns=["url", "html"])
    links = pages.map_batches(linkgraph.extract_links,
                              batch_format="pyarrow")
    nc = _pages_coarse_hint(sf_dir)
    edges = linkgraph.host_edges(links, n_coarse=nc)
    out = linkgraph.pagerank_int(edges, n_coarse=nc)
    return out if isinstance(out, pa.Table) else out.sort("node")


def authority_filtered_pages(sf_dir: str, k: int = 16):
    """Authority-weighted corpus curation, end to end: keep every crawled
    page whose host ranks in the top-``k`` by fixed-point integer
    PageRank — the link-graph metric feeding the corpus filter (the
    RefinedWeb/quality-crawl-frontier pattern: spend the training-token
    budget on high-authority hosts). Output (url, host, pr_int).

    Scale shape: the rank table is hosts²-sparse (never the corpus); its
    top-k by (pr_int DESC, node ASC) comes from the partial-top-k
    finisher, rides the closure as a k-entry dict, and the filter pass
    re-reads ONLY the url column (column pruning — the html bytes never
    leave storage a second time). Pure-integer ranks ⇒ the whole
    composition is value-exact vs one generated SQL statement."""
    import ray  # noqa: F401

    from ..stages import crawl, linkgraph
    from ..stages.topk import topk_table

    d = _pages_dir_for(sf_dir)
    pages = read_pages(os.path.join(d, "pages.parquet"),
                       columns=["url", "html"])
    links = pages.map_batches(linkgraph.extract_links,
                              batch_format="pyarrow")
    nc = _pages_coarse_hint(sf_dir)
    edges = linkgraph.host_edges(links, n_coarse=nc)
    pr = linkgraph.pagerank_int(edges, n_coarse=nc)

    # top-k among CRAWLED hosts only: the link graph is dominated by
    # target-only external domains with no pages to keep, so ranking the
    # raw node table would spend most of the budget on empty hosts
    import ray.data as _rd

    from ..stages.joins import hash_join

    urls = read_pages(os.path.join(d, "pages.parquet"), columns=["url"])

    def host_rows(batch: pa.Table) -> pa.Table:
        h = pc.drop_null(crawl.host_of(batch["url"])).unique()
        return pa.table({"host": h,
                         "coarse": pa.array(str_hash.str_coarse(h, nc))})

    def first_host(df: pd.DataFrame) -> pa.Table:
        g = df.drop_duplicates("host").sort_values("host")
        return pa.table({"host": pa.array(g["host"], pa.string())})

    crawled = (urls.map_batches(host_rows, batch_format="pyarrow")
               .groupby("coarse").map_groups(first_host,
                                             batch_format="pandas"))
    pr_ds = _rd.from_arrow(pr) if isinstance(pr, pa.Table) else pr
    ranked = hash_join(pr_ds, crawled, "node", "host") \
        .select_columns(["node", "pr_int"])
    top = topk_table(ranked, [("pr_int", "descending"),
                              ("node", "ascending")], k)
    rank = dict(zip(top["node"].to_pylist(), top["pr_int"].to_pylist()))

    hosts_arr = pa.array(sorted(rank), pa.string())

    def keep(batch: pa.Table) -> pa.Table:
        host = crawl.host_of(batch["url"])
        mask = pc.fill_null(pc.is_in(host, value_set=hosts_arr), False)
        t = pa.table({"url": batch["url"], "host": host}).filter(mask)
        # surviving rows are answer-proportional; the dict map is tiny
        return t.append_column("pr_int", pa.array(
            [rank[h] for h in t["host"].to_pylist()], pa.int64()))

    out = urls.map_batches(keep, batch_format="pyarrow")
    from ..stages.exchange import nonempty_or_typed_table
    out = nonempty_or_typed_table(out, {"url": pa.string(),
                                        "host": pa.string(),
                                        "pr_int": pa.int64()})
    return out if isinstance(out, pa.Table) else out.sort("url")


def host_hits(sf_dir: str):
    """HITS hubs/authorities over the host link graph
    (stages/linkgraph.hits, 10 rounds, L1-normalized half-steps,
    deterministic sorted summation). Rows-only at the gate — iterated
    float products have no SQL form (the host_pagerank justification);
    local ≡ distributed and numpy differentials pin it."""
    from ..stages import linkgraph

    d = _pages_dir_for(sf_dir)
    pages = read_pages(os.path.join(d, "pages.parquet"),
                       columns=["url", "html"])
    links = pages.map_batches(linkgraph.extract_links,
                              batch_format="pyarrow")
    edges = linkgraph.host_edges(links,
                                 n_coarse=_pages_coarse_hint(sf_dir))
    out = linkgraph.hits(edges)
    return out if isinstance(out, pa.Table) else out.sort("node")


def host_hits_int(sf_dir: str):
    """Fixed-point integer HITS over the host link graph
    (stages/linkgraph.hits_int, 10 rounds, scale 1e6 micro-units,
    L1 floor-normalized half-steps). Pure-integer order-free recurrence
    ⇒ value-exact vs an unrolled MATERIALIZED-CTE SQL oracle — the
    oracle-able sibling of host_hits, whose iterated float products
    have no SQL form (the host_pagerank_int convention)."""
    from ..stages import linkgraph

    d = _pages_dir_for(sf_dir)
    pages = read_pages(os.path.join(d, "pages.parquet"),
                       columns=["url", "html"])
    links = pages.map_batches(linkgraph.extract_links,
                              batch_format="pyarrow")
    nc = _pages_coarse_hint(sf_dir)
    edges = linkgraph.host_edges(links, n_coarse=nc)
    out = linkgraph.hits_int(edges, n_coarse=nc)
    return out if isinstance(out, pa.Table) else out.sort("node")


def host_components(sf_dir: str):
    """Weakly-connected components of the host link graph
    (stages/linkgraph.host_components): component id = lexicographically
    smallest member host; value-exact vs a recursive-CTE min-reachability
    oracle over the same edge rollup."""
    from ..stages import linkgraph

    d = _pages_dir_for(sf_dir)
    pages = read_pages(os.path.join(d, "pages.parquet"),
                       columns=["url", "html"])
    links = pages.map_batches(linkgraph.extract_links,
                              batch_format="pyarrow")
    edges = linkgraph.host_edges(links,
                                 n_coarse=_pages_coarse_hint(sf_dir))
    out = linkgraph.host_components(edges)
    return out if isinstance(out, pa.Table) else out.sort("host")


def canonical_capture_dedup(sf_dir: str):
    """Capture dedup keyed on the CANONICAL url: a simulated recrawl
    re-observes every page under a mangled variant (uppercased scheme,
    utm tracking params, fragment) 7 days later; canonicalization must
    collapse each variant onto its original so exactly one row — the
    newer, gen-2 capture — survives per page. Returns
    (url = canonical, warc_ts, crawl_gen) sorted by url."""
    d = _pages_dir_for(sf_dir)
    base = read_pages(os.path.join(d, "pages.parquet"),
                      columns=["url", "warc_ts"])

    def gen1(batch: pa.Table) -> pa.Table:
        return pa.table({
            "url": batch["url"],
            "warc_ts": batch["warc_ts"],
            "crawl_gen": pa.array(np.ones(batch.num_rows, np.int64))})

    def gen2(batch: pa.Table) -> pa.Table:
        mangled = pc.binary_join_element_wise(
            pc.replace_substring(batch["url"].cast(pa.string()),
                                 "https://", "HTTPS://"),
            pa.array(["?utm_source=recrawl&utm_campaign=x#top"]
                     * batch.num_rows), "")
        ts = pc.add(batch["warc_ts"].cast(pa.int64()),
                    pa.scalar(RECRAWL_SHIFT_US, pa.int64()))
        return pa.table({
            "url": mangled,
            "warc_ts": ts.cast(pa.timestamp("us")),
            "crawl_gen": pa.array(np.full(batch.num_rows, 2, np.int64))})

    def canon(batch: pa.Table) -> pa.Table:
        return batch.set_column(
            batch.column_names.index("url"), "url",
            crawl.canonical_urls(batch["url"]))

    ds = (base.map_batches(gen1, batch_format="pyarrow")
          .union(base.map_batches(gen2, batch_format="pyarrow"))
          .map_batches(canon, batch_format="pyarrow"))
    out = crawl.latest_rows_per_key(
        ds, "url", ["warc_ts", "crawl_gen"],
        n_coarse=_docs_coarse_hint(sf_dir, 2),
        schema={"url": pa.string(), "warc_ts": pa.timestamp("us"),
                "crawl_gen": pa.int64()})
    return out.sort("url")


def kmeans_labels(sf_dir: str):
    """Full-corpus Lloyd k-means over the embeddings table (k=8, 5 exact
    centroid-update rounds, deterministic lowest-vec_id init)."""
    out = similarity.kmeans_labels(_embeddings(sf_dir), k=8, n_iter=5)
    return out if isinstance(out, pa.Table) else out.sort("vec_id")


def _page_meta_kernel(batch: pa.Table) -> pa.Table:
    """Shared per-batch metadata kernel: (url, title, meta_description),
    empty strings for null/non-HTML payloads."""
    from ..stages import html_extract

    titles, descs = [], []
    for p in batch["html"].to_pylist():
        if p is None:
            titles.append("")
            descs.append("")
            continue
        t, m = html_extract.page_metadata(p)
        titles.append(t)
        descs.append(m)
    return pa.table({
        "url": batch["url"],
        "title": pa.array(titles, pa.string()),
        "meta_description": pa.array(descs, pa.string())})


def page_metadata(sf_dir: str):
    """Per-page metadata (title, meta description) over the crawl corpus
    — empty strings for non-HTML payloads. Vectorized over the html
    column with the same per-row kernel class as extraction."""
    d = _pages_dir_for(sf_dir)
    pages = read_pages(os.path.join(d, "pages.parquet"),
                       columns=["url", "html"])
    return pages.map_batches(_page_meta_kernel,
                             batch_format="pyarrow").sort("url")


def html_markup_stats(sf_dir: str):
    """Markup-density diagnostics per HTML page — the text-to-markup
    ratio every content-extraction heuristic thresholds on (boilerplate
    pages are tag-dense; article pages are text-dense): tag-token count,
    script-open count, markup vs text chars (markup = chars removed by
    stripping ``<[^>]*>`` tokens), and the ratio as one float division
    of exact ints. Gate = the page_metadata DOCTYPE rule. Three
    vectorized RE2 kernels per batch, no shuffle; value-exact in SQL
    over the blob→varchar reconstruction."""
    d = _pages_dir_for(sf_dir)
    pages = read_pages(os.path.join(d, "pages.parquet"),
                       columns=["url", "html"])

    def kernel(batch: pa.Table) -> pa.Table:
        html = batch["html"]
        mask = pc.starts_with(pc.fill_null(html, b""),
                              pattern=b"<!DOCTYPE html>")
        t = pa.table({"url": batch["url"], "html": html}).filter(mask)
        doc = pc.cast(t["html"], pa.string())
        n_chars = pc.cast(pc.utf8_length(doc), pa.int64())
        n_tags = pc.cast(pc.count_substring_regex(doc, r"<[^>]*>"),
                         pa.int64())
        n_scripts = pc.cast(pc.count_substring_regex(
            doc, r"(?is)<script\b"), pa.int64())
        text_chars = pc.cast(pc.utf8_length(
            pc.replace_substring_regex(doc, r"<[^>]*>", "")), pa.int64())
        markup = pc.subtract(n_chars, text_chars)
        ratio = pc.divide(
            pc.cast(text_chars, pa.float64()),
            pc.max_element_wise(pc.cast(n_chars, pa.float64()),
                                pa.scalar(1.0)))
        return pa.table({
            "url": t["url"], "n_chars": n_chars, "n_tags": n_tags,
            "n_scripts": n_scripts, "markup_chars": markup,
            "text_chars": text_chars, "text_ratio": ratio})

    return pages.map_batches(kernel, batch_format="pyarrow").sort("url")


def host_boilerplate_pages(sf_dir: str):
    """Host-scoped line-level boilerplate removal over the HTML crawl:
    a 4+-char line appearing in >=2 distinct pages of the SAME host is
    template chrome and is removed from every page of that host (the
    CCNet/jusText boilerplate semantic — remove all copies, host-scoped
    — vs line_dedup's corpus-wide keep-first). Returns (url, host,
    n_lines, n_removed, clean_text) sorted by url; value-exact in SQL
    over the blob→varchar doc reconstruction."""
    d = _pages_dir_for(sf_dir)
    pages = read_pages(os.path.join(d, "pages.parquet"),
                       columns=["url", "html"])
    nc = _pages_coarse_hint(sf_dir)
    out = crawl.host_line_boilerplate(pages, n_coarse=nc,
                                      n_coarse_docs=nc)
    return out if isinstance(out, pa.Table) else out.sort("url")


def anchor_text_summary(sf_dir: str):
    """dst_url → in-link count + bounded distinct anchor-text digest over
    the crawl's hyperlink graph."""
    from ..stages import linkgraph

    d = _pages_dir_for(sf_dir)
    pages = read_pages(os.path.join(d, "pages.parquet"),
                       columns=["url", "html"])
    links = pages.map_batches(linkgraph.extract_links,
                              batch_format="pyarrow")
    out = linkgraph.anchor_text_index(
        links, n_coarse=_pages_coarse_hint(sf_dir))
    return out if isinstance(out, pa.Table) else out.sort("dst_url")


MIX_TEMP_ALPHA = 0.7


def temperature_mixed_docs(sf_dir: str, alpha: float = MIX_TEMP_ALPHA):
    """Temperature-based source mixing (the mT5/XLM-R α-sampling rule,
    α = 0.7): source s gets sampling share w_s = tokens_s^α / Σ tokens^α
    — flatter than natural (α=1), so small sources are upweighted — and
    per-source keep rate min(1, target·w_s / tokens_s) against the same
    total/4 token target and md5-threshold membership as
    ``mixed_sample_docs``. The Σ tokens^α denominator is a LEFT FOLD over
    sources in lexicographic order (functools.reduce here,
    list_reduce(list(... ORDER BY source)) in the oracle), so the float is
    bit-identical on both sides; every other term derives from integer
    totals. Returns kept (doc_id, source, n_tokens)."""
    import functools
    import operator

    def tok(batch: pa.Table) -> pa.Table:
        t = pc.fill_null(batch["text"], "")
        return pa.table({
            "doc_id": batch["doc_id"],
            "source": batch["source"],
            "n_tokens": pc.cast(pc.count_substring_regex(t, r"\S+"),
                                pa.int64())})

    docs = _docs(sf_dir, ["doc_id", "text", "source"]) \
        .map_batches(tok, batch_format="pyarrow").materialize()

    st = docs.groupby("source").sum("n_tokens").to_pandas() \
        .sort_values("source")
    toks = st["sum(n_tokens)"].astype(np.int64)
    target = int(toks.sum()) // MIX_TARGET_DEN
    pows = [float(t) ** alpha for t in toks]
    den = functools.reduce(operator.add, pows, 0.0)
    rates = {}
    for s, t, p in zip(st["source"], toks, pows):
        rates[s] = 1.0 if t == 0 else \
            min(1.0, (float(target) * (p / den)) / float(t))

    def keep(batch: pa.Table) -> pa.Table:
        thr = np.array([np.floor(4294967296.0 * rates[s])
                        for s in batch["source"].to_pylist()], np.float64)
        h = np.array([_hash32(i) for i in batch["doc_id"].to_pylist()],
                     np.float64)
        return batch.filter(pa.array(h < thr))

    return docs.map_batches(keep, batch_format="pyarrow") \
               .select_columns(["doc_id", "source", "n_tokens"]) \
               .sort("doc_id")


def crawl_diff(sf_dir: str):
    """Diff of two simulated crawl generations over the corpus: gen 2
    drops every url with hash32%4==0, rewrites content where %4==1
    (one appended comment byte-string), keeps %4∈{2,3} byte-identical,
    and discovers one new '?page=2' url per %4==2 page — so every status
    class is populated. Returns (url, status, old_digest, new_digest)
    sorted by url."""
    d = _pages_dir_for(sf_dir)
    pages = read_pages(os.path.join(d, "pages.parquet"),
                       columns=["url", "html"])

    def mod4(batch: pa.Table) -> np.ndarray:
        return np.array([_hash32(u) % 4
                         for u in batch["url"].to_pylist()], np.int64)

    def gen2(batch: pa.Table) -> pa.Table:
        m = mod4(batch)
        keep = batch.filter(pa.array(m != 0))
        km = m[m != 0]
        html = keep["html"].to_pylist()
        html = [h + b"<!-- rev2 -->" if g == 1 else h
                for h, g in zip(html, km)]
        urls = keep["url"].to_pylist()
        add_urls = [u + "?page=2" for u, g in zip(urls, km) if g == 2]
        add_html = [b"<p>continuation page body for the new capture</p>"
                    ] * len(add_urls)
        return pa.table({
            "url": pa.array(urls + add_urls, pa.string()),
            "html": pa.array(html + add_html, pa.binary())})

    out = crawl.diff_by_key(pages,
                            pages.map_batches(gen2, batch_format="pyarrow"),
                            n_coarse=_docs_coarse_hint(sf_dir, 2))
    return out if isinstance(out, pa.Table) else out.sort("url")


def crawl_diff_status(sf_dir: str):
    """Value-exact surface of crawl_diff: (url, status) only.

    The digest columns are hashlib-md5 over RAW bytes; DuckDB's md5() is
    VARCHAR-only, so it cannot reproduce them for the corpus's binary
    (non-UTF-8) payloads — that keeps full crawl_diff rows-only. But
    status depends only on byte EQUALITY of the two generations, which
    SQL compares directly on the BLOBs (old.html = new.html), so the diff
    LOGIC is value-oracled end to end here."""
    out = crawl_diff(sf_dir)
    if isinstance(out, pa.Table):
        return out.select(["url", "status"])
    return out.select_columns(["url", "status"])


def corpus_datasheet(sf_dir: str):
    """Per-(source, lang) corpus datasheet — the 'datasheets for datasets'
    rollup every release ships: doc/token/char totals plus integer-exact
    averages (float division of exact int sums, so the SQL oracle agrees
    bit-for-bit). One in-batch combiner pass → one tiny groupby; null
    text counts as zero tokens/chars but still a doc."""

    def partial(batch: pa.Table) -> pa.Table:
        t = pc.fill_null(batch["text"], "")
        tb = pa.table({
            "source": batch["source"],
            "lang": batch["lang"],
            "one": pa.array(np.ones(batch.num_rows, np.int64)),
            "tok": pc.cast(pc.count_substring_regex(t, r"\S+"), pa.int64()),
            "ch": pc.cast(pc.utf8_length(t), pa.int64())})
        g = tb.group_by(["source", "lang"]).aggregate(
            [("one", "sum"), ("tok", "sum"), ("ch", "sum")])
        return pa.table({"source": g["source"], "lang": g["lang"],
                         "n_docs": g["one_sum"], "tok": g["tok_sum"],
                         "ch": g["ch_sum"]})

    agg = (_docs(sf_dir, ["text", "lang", "source"])
           .map_batches(partial, batch_format="pyarrow")
           .groupby(["source", "lang"])
           .aggregate(Sum("n_docs", alias_name="n_docs"),
                      Sum("tok", alias_name="total_tokens"),
                      Sum("ch", alias_name="total_chars")))

    def finish(batch: pa.Table) -> pa.Table:
        nd = batch["n_docs"].cast(pa.int64())
        tok = batch["total_tokens"].cast(pa.int64())
        ch = batch["total_chars"].cast(pa.int64())
        return pa.table({
            "source": batch["source"], "lang": batch["lang"],
            "n_docs": nd, "total_tokens": tok, "total_chars": ch,
            "avg_tokens": pc.divide(pc.cast(tok, pa.float64()),
                                    pc.cast(nd, pa.float64())),
            "avg_chars": pc.divide(pc.cast(ch, pa.float64()),
                                   pc.cast(nd, pa.float64()))})

    return agg.map_batches(finish, batch_format="pyarrow") \
              .sort(["source", "lang"])


HOST_CAP_K = 5


def host_capped_pages(sf_dir: str, k: int = HOST_CAP_K):
    """Per-host crawl-budget cap: at most k pages per host — the
    anti-spam / politeness sampler every web corpus applies so no domain
    dominates training data (C4 and RefinedWeb both cap per-domain
    contributions). Membership is the k smallest md5(url) hashes per host
    (pure function of the key: stable across runs, partitionings, cluster
    sizes). Per-batch PARTIAL top-k per host combines before the shuffle,
    so the exchange carries ≤ k rows per (host, batch) — never the crawl.
    Returns (host, rank, url)."""

    def partial(batch: pa.Table) -> pa.Table:
        urls = batch["url"].to_pylist()
        hosts = crawl.host_of(batch["url"]).to_pylist()
        df = pd.DataFrame({
            # schemeless/malformed urls (host None) group under "" and are
            # capped like any host — pandas groupby drops NaN keys, which
            # would silently delete those rows instead
            "host": ["" if h is None else h for h in hosts],
            "url": urls,
            "h": [_hash32(u) for u in urls]})
        d = df.sort_values(["host", "h", "url"], kind="mergesort")
        d = d[d.groupby("host").cumcount() < k]
        coarse = str_hash.str_coarse(d["host"], exchange.N_COARSE)
        t = pa.Table.from_pandas(d, preserve_index=False)
        return t.append_column("coarse", pa.array(coarse))

    def resolve(df: pd.DataFrame) -> pd.DataFrame:
        d = df.sort_values(["host", "h", "url"], kind="mergesort")
        d = d.assign(rank=d.groupby("host").cumcount() + 1)
        d = d[d["rank"] <= k]
        return pd.DataFrame({"host": d["host"],
                             "rank": d["rank"].astype("int64"),
                             "url": d["url"]})

    d = _pages_dir_for(sf_dir)
    pages = read_pages(os.path.join(d, "pages.parquet"), columns=["url"])
    out = (pages.map_batches(partial, batch_format="pyarrow")
           .groupby("coarse").map_groups(resolve, batch_format="pandas"))
    out = exchange.nonempty_or_typed_table(out, {
        "host": pa.string(), "rank": pa.int64(), "url": pa.string()})
    return out if isinstance(out, pa.Table) else out.sort(["host", "rank"])


def window_dedup_docs(sf_dir: str):
    """Lee-et-al-style duplicated-window REMOVAL over documents: every
    13-token window occurring twice anywhere in the corpus survives only
    at its lexicographically-first (doc_id, offset) occurrence; covered
    tokens elsewhere are removed and docs reassembled from the token
    stream. Value-exact SQL oracle (strings included)."""
    nc = _docs_coarse_hint(sf_dir)
    out = dedup.window_dedup(_docs(sf_dir, ["doc_id", "text"]),
                             n_coarse=nc, n_coarse_docs=nc)
    return out if isinstance(out, pa.Table) else out.sort("doc_id")


def url_features_pages(sf_dir: str):
    """URL shape/spam features (stages/crawl.url_features) over the
    simulated messy crawl log: each corpus url spawns one deterministic
    variant by hash32%4 (tracking params, numeric id, deep path, paged
    query) so every feature fires. One vectorized RE2 pass per feature,
    column-pruned to the url — the html payload never reads."""
    d = _pages_dir_for(sf_dir)
    pages = read_pages(os.path.join(d, "pages.parquet"), columns=["url"])

    def messy(batch: pa.Table) -> pa.Table:
        urls = batch["url"].to_pylist()
        out = list(urls)
        for u in urls:
            g = _hash32(u) % 4
            out.append(u + ["?utm_source=news&utm_medium=rss",
                            "?id=123456", "/a/b/c/d/e",
                            "?q=x&page=2&ref=9"][g])
        return pa.table({"url": pa.array(out, pa.string())})

    return crawl.url_features(
        pages.map_batches(messy, batch_format="pyarrow")).sort("url")


def url_filtered_pages(sf_dir: str):
    """URL blocklist gate over a simulated messy crawl log: each corpus
    url spawns one trap variant by hash32%4 (media asset, session-id,
    calendar trap, deep pagination) alongside the clean original; the
    filter must quarantine every variant and keep every original.
    Returns the quarantined rows (url, rule_idx, status) sorted."""
    d = _pages_dir_for(sf_dir)
    pages = read_pages(os.path.join(d, "pages.parquet"), columns=["url"])

    def messy(batch: pa.Table) -> pa.Table:
        urls = batch["url"].to_pylist()
        out = list(urls)
        for u in urls:
            g = _hash32(u) % 4
            out.append(u + ["/img.jpeg", "?phpsessid=abc123",
                            "/calendar/2024/01/15", "?page=1234"][g])
        return pa.table({"url": pa.array(out, pa.string())})

    kept, quarantined = crawl.url_filter(
        pages.map_batches(messy, batch_format="pyarrow"))
    return quarantined.sort("url")
