"""Training-data analysis pipelines over the driver tables (documents /
embeddings) + extraction-derived analytics over the synthetic pages corpus.

Each function takes ``sf_dir`` and returns a Dataset whose column names
match the corresponding SQL oracle in ``__ray_entry__`` exactly. The
suite is split by theme (analysis_common / analysis_text /
analysis_dedup / analysis_graph + the remainder here); this module
re-exports every name, so callers keep importing ``analysis.<fn>``.

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
from .analysis_text import (token_counts_docs, quality_docs, gram_novelty_docs, langid_docs, fingerprint_docs, summarize_docs, _word_count_partial, word_freq_top, _bigram_count_partial, bigram_freq_top, CHUNK_WIDTH, CHUNK_STRIDE, chunk_docs, train_val_test_split, normalize_docs, nfc_docs, _nfc_kernel, MIX_TARGET_DEN, mixed_sample_docs, incremental_dedup_docs, near_dedup_incremental_docs, MG_CAPACITY, MG_CANDIDATES, heavy_hitter_words, UNIGRAM_VOCAB_K, NLP_SCALE, unigram_logprob_docs, BIGRAM_OOV, bigram_surprisal_docs, _bigram_fit, _bigram_doc_q, _bigram_surprisal, _int_quantile_disc, perplexity_buckets_docs, ML_TARGET_SOURCE, moore_lewis_docs, BM25_K1, BM25_B, BM25_K1P1, BM25_TOPK, BM25_QUERY_OFFSET, BM25_QUERY_TERMS, bm25_top_docs, source_overlap_matrix, tfidf_top_terms, SCRUB_PATTERN, SCRUB_TOKEN, scrub_docs, PII_EMAIL_RE, PII_IP_RE, PII_PHONE_RE, pii_scrub_docs, per_lang_topk_sample, exact_dedup_kept, quality_filtered, docs_with_embeddings)  # noqa: F401
from .analysis_dedup import (exact_dedup_docs, exact_dedup_doubled, SKEW_HOT_TEXT, exact_dedup_skew, soft_dedup_weights_doubled, soft_dedup_sampled_docs, SOURCE_MIX_BUDGET, source_epoch_plan, SAMPLE_EXACT_K, sample_exact_k_docs, length_percentile_docs, lang_percentile_docs, cms_word_counts_docs, shuffle_order_docs, length_fit_docs, minhash_pairs_doubled, minhash_pairs_md5_doubled, simhash_pairs_doubled, simhash_docs, ngram_jaccard_adjacent, minhash_verified_pairs_doubled, edit_verified_pairs_doubled, dup_clusters_doubled, fingerprint_pairs_doubled, line_dedup_docs, sentence_dedup_docs, exact_substr_dedup_docs, near_dedup_kept_doubled, DECON_BENCHMARK_DOCS, DECON_NGRAM, DECON_MIN_HITS, decontaminate_docs, BOILER_NUM, BOILER_DEN, BLOOM_M_BITS, BLOOM_K, _bloom_positions, bloom_decontaminate_docs, _word_doc_counts, _source_doc_counts, _boiler_counts, boilerplate_vocab, _boiler_key_set, _bench_gram_set, boilerplate_scrubbed_docs, _scrub_kernel, curated_docs, repetition_stats, packed_sequence_texts, gopher_quality_flags, PACK_BUDGET, _packing_plan, packed_sequences, quality_median_filtered, label_centroids, exact_dup_clusters_doubled, embedding_pairs_doubled)  # noqa: F401
from .analysis_graph import (ANN_K, ANN_N_QUERIES, _query_matrix, ann_brute_topk, hard_negatives, mmr_diverse_sample, knn_graph_topk, semdedup_kept_doubled, ann_lsh_topk, ann_recall_eval, embedding_quantized, ann_quantized_topk, ann_ivf_topk, extract_pages, extraction_rejection_report, extract_pages_dedup, pdf_page_rows, doc_structure_stats, image_meta, image_dhash_dups, frame_samples, audio_features, RECRAWL_SHIFT_US, latest_capture_per_url, domain_page_stats, extract_lang_stats, sample_docs, STRATA_PCT, STRATA_DEFAULT_PCT, stratified_sample_docs, dup_window_stats_docs, page_links, host_graph_edges, host_pagerank, host_pagerank_int, authority_filtered_pages, host_hits, host_hits_int, host_components, canonical_capture_dedup, kmeans_labels, _page_meta_kernel, page_metadata, html_markup_stats, host_boilerplate_pages, anchor_text_summary, MIX_TEMP_ALPHA, temperature_mixed_docs, crawl_diff, crawl_diff_status, corpus_datasheet, HOST_CAP_K, host_capped_pages, window_dedup_docs, url_features_pages, url_filtered_pages)  # noqa: F401



@ray.remote(num_cpus=1)
def _golden_digests_task(path: str) -> pa.Table:
    """Load the golden fixture and reduce it to its broadcast form — url,
    md5(golden_text), golden_exact, payload_kind — INSIDE a Ray task, so
    the driver only ever holds the ObjectRef (dim_broadcast convention)
    and the golden TEXT never enters the broadcast payload. Row groups
    stream one at a time: peak task memory is one row group of text plus
    the digest-only output, never the whole text column (a just-under-cap
    golden with multi-KB texts would otherwise hold GBs in one heap)."""
    import pyarrow.parquet as _pqm

    pf = _pqm.ParquetFile(path)
    parts = []
    for rg in range(pf.num_row_groups):
        t = pf.read_row_group(
            rg, columns=["url", "golden_text", "golden_exact",
                         "payload_kind"])
        parts.append(dedup.add_md5_digest(t, text_col="golden_text",
                                          out_col="gold_digest")
                     .drop_columns(["golden_text"]))
    return pa.concat_tables(parts).combine_chunks()


def extraction_eval(sf_dir: str, broadcast_cap_rows: "int | None" = None):
    """Corpus-wide self-evaluation of the byte-identical invariant (the
    north rule's per-row check, as a first-class operator): run the
    flagship extraction, join the results back to the generation-time
    golden table on url, and roll up per payload kind — rows, rows with a
    golden byte-equality guarantee (golden_exact), and how many of those
    matched byte-for-byte. The per-url flags reduce via an in-batch
    combiner; only (kind, 3 ints) rows reach the driver. Byte equality is
    checked as md5-digest equality computed BEFORE any exchange — the
    crawl_diff convention: only 32-hex digests ride, never the two text
    corpora.

    Join routing (stages/dim_broadcast): golden is a bounded per-shard
    fixture, so below the row cap a Ray task loads it, computes the
    digests in-task, and every fused extract task probes the broadcast
    with an acero join — the eval rides the extraction stream with NO
    sort barrier (measured at sf0.1/32cpus: 6.1 s → ~extract wall).
    Above the cap both digest streams take the co-partitioned
    stages/joins.hash_join, identical output (pinned by
    tests/test_pipeline.py::TestExtractionEvalRouting)."""
    from ..stages.dim_broadcast import should_broadcast
    from ..stages.joins import hash_join

    def dig(col: str, out: str):
        # ONE digest convention repo-wide: dedup.add_md5_digest
        def fn(batch: pa.Table) -> pa.Table:
            return dedup.add_md5_digest(batch, text_col=col, out_col=out) \
                .drop_columns([col])
        return fn

    d = _pages_dir_for(sf_dir)
    golden_path = os.path.join(d, "golden.parquet")
    extracted = extract_pipeline(
        read_pages(os.path.join(d, "pages.parquet"))) \
        .select_columns(["url", "extracted_text"]) \
        .map_batches(dig("extracted_text", "ext_digest"),
                     batch_format="pyarrow")
    try:
        take_broadcast = should_broadcast(golden_path, broadcast_cap_rows)
    except OSError:
        # sharded-directory golden (no single footer) → shuffle route
        take_broadcast = False
    if take_broadcast:
        gref = _golden_digests_task.remote(golden_path)

        def probe_golden(batch: pa.Table) -> pa.Table:
            probe = pa.table({"url": batch["url"],
                              "ext_digest": batch["ext_digest"]})
            return probe.join(ray.get(gref), keys=["url"],
                              join_type="inner")

        joined = extracted.map_batches(probe_golden, batch_format="pyarrow")
    else:
        golden = reads.read_small_aware(
            golden_path,
            columns=["url", "golden_text", "golden_exact", "payload_kind"]) \
            .map_batches(dig("golden_text", "gold_digest"),
                         batch_format="pyarrow")
        joined = hash_join(extracted, golden, "url", "url", how="inner",
                           n_coarse=_docs_coarse_hint(sf_dir, 2))

    def flags(batch: pa.Table) -> pa.Table:
        exact = pc.fill_null(batch["golden_exact"], False)
        match = pc.and_kleene(
            exact, pc.equal(pc.fill_null(batch["ext_digest"], ""),
                            pc.fill_null(batch["gold_digest"], "")))
        t = pa.table({
            "payload_kind": batch["payload_kind"],
            "one": pa.array(np.ones(batch.num_rows, np.int64)),
            "guaranteed": pc.cast(exact, pa.int64()),
            "matched": pc.cast(pc.fill_null(match, False), pa.int64())})
        g = t.group_by("payload_kind").aggregate(
            [("one", "sum"), ("guaranteed", "sum"), ("matched", "sum")])
        return pa.table({"payload_kind": g["payload_kind"],
                         "n_rows": g["one_sum"],
                         "n_guaranteed": g["guaranteed_sum"],
                         "n_byte_exact": g["matched_sum"]})

    return (joined.map_batches(flags, batch_format="pyarrow")
            .groupby("payload_kind")
            .aggregate(Sum("n_rows", alias_name="n_rows"),
                       Sum("n_guaranteed", alias_name="n_guaranteed"),
                       Sum("n_byte_exact", alias_name="n_byte_exact"))
            .sort("payload_kind"))


def compressibility_docs(sf_dir: str):
    """Per-doc zlib compression ratio over documents (repetitiveness
    gate signal; not SQL-expressible — differentially tested)."""
    return _docs(sf_dir, ["doc_id", "text"]).map_batches(
        text_analysis.compressibility, batch_format="pyarrow") \
        .sort("doc_id")


def _fresh_scratch_dir(base: str, sf_dir: str) -> str:
    """An empty ``base/n<docs>_p<pid>`` export directory. Per-process
    dirs keep concurrent sessions (bench + oracle runner) from rmtree-ing
    each other mid-export, and digests are content-derived so determinism
    is unaffected; dirs of exited processes are reaped here, else they
    would accumulate."""
    import shutil

    n_docs = pq.read_metadata(
        os.path.join(sf_dir, "documents.parquet")).num_rows
    out_dir = f"{base}/n{n_docs}_p{os.getpid()}"
    if os.path.isdir(base):
        for d in os.listdir(base):
            pid = d.rsplit("_p", 1)[-1]
            if pid.isdigit() and int(pid) != os.getpid() \
                    and not os.path.exists(f"/proc/{pid}"):
                shutil.rmtree(os.path.join(base, d), ignore_errors=True)
    shutil.rmtree(out_dir, ignore_errors=True)
    return out_dir


def training_shards_manifest(sf_dir: str):
    """Sharded training-data export end to end: documents → 16
    deterministic md5-hash shards under /tmp, one atomic parquet +
    lineage-manifest row each (state/manifest machinery), returning the
    manifest (shard_id, row_count, content_digest). A fresh export each
    call (scratch dir wiped) so the digests pin byte-determinism of the
    whole write path; resume-after-preemption is exercised separately in
    tests/test_training_export.py."""
    from ..state import manifest as mstate

    out_dir = _fresh_scratch_dir("/tmp/mobile_ocr_training_shards", sf_dir)
    mstate.export_training_shards(_docs(sf_dir, ["doc_id", "text"]),
                                  out_dir, n_shards=16)
    t = mstate.shard_manifest_table(out_dir)
    return t.select(["shard_id", "row_count", "content_digest"]) \
            .sort_by("shard_id")


def compacted_shards_manifest(sf_dir: str):
    """Small-file compaction end to end (state/manifest
    .compact_partitions): a fresh 16-shard training export under /tmp is
    bin-packed into ~4 compacted files (target = total_bytes/4 + 1, so
    the group structure is scale-free), one Ray task per group, same
    atomic commit + lineage-manifest discipline as the original writer.
    Returns (group_id, n_inputs, first_shard, last_shard, row_count) —
    row-level equality with the uncompacted export, exact resume, and
    the target-bytes packing invariant are pinned in
    tests/test_training_export.py::TestCompaction."""
    from ..state import manifest as mstate

    root = _fresh_scratch_dir("/tmp/mobile_ocr_compact", sf_dir)
    out_dir = os.path.join(root, "export")
    mstate.export_training_shards(_docs(sf_dir, ["doc_id", "text"]),
                                  out_dir, n_shards=16)
    total = int(sum(m["bytes"]
                    for m in mstate._complete_manifests(out_dir)))
    t = mstate.compact_partitions(out_dir, os.path.join(root, "compact"),
                                  target_bytes=total // 4 + 1)
    return t.select(["group_id", "n_inputs", "first_shard", "last_shard",
                     "row_count"]).sort_by("group_id")


def jsonl_export_manifest(sf_dir: str):
    """Compressed-NDJSON training export end to end (the interchange twin
    of training_shards_manifest): documents → 16 md5-hash
    ``shard-N.jsonl.gz`` files under /tmp via state/manifest
    .export_jsonl_shards, returning the lineage manifest. Byte-determinism
    of the gz shards and the read_table_auto ROUND TRIP are pinned in
    tests/test_training_export.py::TestJsonlExport."""
    from ..state import manifest as mstate

    out_dir = _fresh_scratch_dir("/tmp/mobile_ocr_jsonl_shards", sf_dir)
    mstate.export_jsonl_shards(_docs(sf_dir, ["doc_id", "text"]),
                               out_dir, n_shards=16)
    t = mstate.shard_manifest_table(out_dir)
    return t.select(["shard_id", "row_count", "content_digest"]) \
            .sort_by("shard_id")


def embedding_dup_clusters_doubled(sf_dir: str):
    """Connected components over the embedding-cosine near-dup pair graph
    (doubled corpus → every pair is an exact clone at cosine 1.0, so the
    cluster fixpoint has a SQL ground truth: label = min vec_id per
    identical embedding). Composes the sign-LSH pair generator with the
    distributed label-propagation operator — the embedding-side twin of
    exact_dup_clusters_doubled."""
    out = dedup.dup_clusters(_doubled_clone_pairs(sf_dir))
    return out if isinstance(out, pa.Table) else out.sort("src")


def vocab_coverage(sf_dir: str, k: int = 100):
    """Coverage of the top-k word vocabulary: what fraction of all corpus
    word occurrences the k most frequent words account for (the first
    statistic a tokenizer-budget decision reads). Reuses the wordcount
    combiner; one bounded groupby + a driver-side k-row reduce; single
    output row (n_total, n_covered, coverage = float division of exact int
    sums — bit-identical in SQL)."""
    agg = (_docs(sf_dir, ["text"])
           .map_batches(_word_count_partial, batch_format="pyarrow")
           .groupby("word").aggregate(Sum("n", alias_name="n"))
           .materialize())
    total = int(agg.sum("n") or 0)
    top = agg.sort(["n", "word"], descending=[True, False]).limit(k) \
        .to_pandas()
    covered = int(top["n"].sum())
    return pa.table({
        "n_total": pa.array([total], pa.int64()),
        "n_covered": pa.array([covered], pa.int64()),
        "coverage": pa.array([float(covered) / float(total)
                              if total else 0.0], pa.float64())})


def length_quartile_docs(sf_dir: str):
    """Per-doc length-quartile label (q1..q4) against exact corpus-wide
    n_chars quartiles — the bucketing a curation pipeline uses to
    stratify by length. Thresholds follow DuckDB's quantile_disc rule
    (sorted index ceil(p·n)−1, pinned empirically) computed from a
    distinct-value CDF: per-batch Arrow value-count combiner → one
    bounded groupby (≤ distinct lengths rows, never the corpus) → tiny
    driver reduce; assignment is one vectorized pass. Value-exact SQL
    oracle."""
    docs = _docs(sf_dir, ["doc_id", "n_chars"]).materialize()

    def vc(batch: pa.Table) -> pa.Table:
        g = pa.table({"v": batch["n_chars"],
                      "one": pa.array(np.ones(batch.num_rows, np.int64))}) \
            .group_by("v").aggregate([("one", "sum")])
        return pa.table({"v": g["v"], "n": g["one_sum"]})

    cdf = (docs.map_batches(vc, batch_format="pyarrow")
           .groupby("v").sum("n").to_pandas().sort_values("v"))
    vals = cdf["v"].to_numpy(np.int64)
    cnts = cdf["sum(n)"].to_numpy(np.int64)
    n = int(cnts.sum())
    cum = np.cumsum(cnts)

    def q_disc(p: float) -> int:
        target = int(np.ceil(p * n)) - 1          # 0-indexed rank
        return int(vals[np.searchsorted(cum, target + 1)])

    q1, q2, q3 = (q_disc(p) for p in (0.25, 0.5, 0.75))

    def label(batch: pa.Table) -> pa.Table:
        v = batch["n_chars"].to_numpy(zero_copy_only=False)
        lab = np.where(v <= q1, "q1",
                       np.where(v <= q2, "q2",
                                np.where(v <= q3, "q3", "q4")))
        return pa.table({"doc_id": batch["doc_id"],
                         "n_chars": batch["n_chars"],
                         "quartile": pa.array(lab, pa.string())})

    return docs.map_batches(label, batch_format="pyarrow").sort("doc_id")


def embedding_dedup_kept_doubled(sf_dir: str):
    """SemDeDup-style semantic-dedup KEEP over the doubled embeddings
    corpus: embedding-cosine near-pairs (≥ 0.999999 — among gaussian
    vectors only the exact clones qualify, the same ground-truth trick as
    ``embedding_pairs_doubled``) → connected components → one
    representative (min vec_id) per cluster plus every unclustered
    vector. The embedding-side member of the near-dedup-keep family
    (minhash / simhash twins above) — value-exact SQL oracle: kept =
    min(vec_id) per identical embedding list. Returns (vec_id)."""
    from ..stages.joins import hash_join

    nc = _coarse_hint_for(os.path.join(sf_dir, "embeddings.parquet"), 2)
    ids = _doubled_embeddings(sf_dir).select_columns(["vec_id"])
    clusters = dedup.dup_clusters(_doubled_clone_pairs(sf_dir)).materialize()
    if clusters.count() == 0:
        return ids.sort("vec_id")
    joined = hash_join(ids, clusters, "vec_id", "src", how="left",
                       n_coarse=nc)

    def keep(batch: pa.Table) -> pa.Table:
        lbl = batch["label"]
        mask = pc.or_kleene(pc.is_null(lbl), pc.equal(lbl, batch["vec_id"]))
        return batch.filter(pc.fill_null(mask, False)) \
            .select(["vec_id"])

    return joined.map_batches(keep, batch_format="pyarrow").sort("vec_id")


def near_dedup_kept_simhash_doubled(sf_dir: str):
    """The simhash-side twin of near_dedup_kept_doubled: SimHash banded
    near-pairs → connected components → one representative (min doc_id)
    per cluster plus every unclustered doc — same anti-filter join, a
    different candidate generator. Exercises family composability."""
    from ..stages.joins import hash_join

    docs = _doubled_docs(sf_dir)
    nc = _docs_coarse_hint(sf_dir, 2)
    pairs = dedup.simhash_near_pairs(docs, n_coarse=nc)

    def to_ids(batch: pa.Table) -> pa.Table:
        return pa.table({"id_a": batch["id_a"], "id_b": batch["id_b"]})

    clusters = dedup.dup_clusters(
        pairs.map_batches(to_ids, batch_format="pyarrow")).materialize()
    if clusters.count() == 0:
        return docs.sort("doc_id")
    joined = hash_join(docs, clusters, "doc_id", "src", how="left",
                       n_coarse=nc)

    def keep(batch: pa.Table) -> pa.Table:
        lbl = batch["label"]
        mask = pc.or_kleene(pc.is_null(lbl), pc.equal(lbl, batch["doc_id"]))
        return batch.filter(pc.fill_null(mask, False)).select(
            ["doc_id", "text"])

    return joined.map_batches(keep, batch_format="pyarrow").sort("doc_id")


def doc_cluster_labels(sf_dir: str):
    """End-to-end text clustering with zero external models: documents →
    feature-hashed bag-of-words vectors (hashing trick, 128-dim) →
    full-corpus Lloyd k-means (k=8). The whole chain is deterministic, so
    labels are a pure function of the corpus."""
    vecs = _docs(sf_dir, ["doc_id", "text"]).map_batches(
        text_analysis.hashed_doc_vectors, batch_format="pyarrow")
    out = similarity.kmeans_labels(vecs, k=8, n_iter=5)
    return out if isinstance(out, pa.Table) else out.sort("vec_id")


def nb_source_predictions(sf_dir: str):
    """Self-train/self-predict Naive Bayes over documents: fit P(word |
    source) with one distributed count aggregation, broadcast the bounded
    model (top-2000-word vocab) into a vectorized predict pass, emit
    (doc_id, source, pred, correct). The end-to-end 'train a filter model
    on the corpus' loop (fastText-style quality/source classifiers) with
    zero external dependencies."""
    docs = _docs(sf_dir, ["doc_id", "text", "source"]).materialize()
    model = text_analysis.nb_fit(docs)

    def predict(batch: pa.Table) -> pa.Table:
        out = text_analysis.nb_predict(batch, model)
        # fit maps null labels to '' — compare against the same
        correct = pc.equal(out["pred"],
                           pc.fill_null(pc.cast(batch["source"],
                                                pa.string()), ""))
        return pa.table({
            "doc_id": out["doc_id"],
            "source": batch["source"],
            "pred": out["pred"],
            "correct": pc.fill_null(correct, False)})

    return docs.map_batches(predict, batch_format="pyarrow").sort("doc_id")


KWIC_TERM = "data"
KWIC_CTX = 40


def kwic_snippets(sf_dir: str, term: str = KWIC_TERM, ctx: int = KWIC_CTX):
    """Keyword-in-context snippets: for every doc containing ``term``
    (case-insensitive, first occurrence), a ±ctx-char window around the
    match — the search-result/debug view over an extracted corpus. One
    vectorized find + slice per batch, no shuffle; value-exact SQL oracle
    (DuckDB position/substring agree with the codeunit slice on this
    ASCII corpus). Returns (doc_id, pos — 1-based like SQL, snippet)."""

    def kernel(batch: pa.Table) -> pa.Table:
        txt = pc.fill_null(batch["text"], "")
        pos = pc.find_substring(pc.utf8_lower(txt), term.lower())
        mask = pc.greater_equal(pos, 0)
        t = batch.filter(mask)
        p = pos.to_numpy(zero_copy_only=False)
        p = p[mask.to_numpy(zero_copy_only=False)]
        starts = np.maximum(0, p - ctx)
        width = 2 * ctx + len(term)
        # per-row offsets vary, so the scalar-offset Arrow slice kernel
        # doesn't apply; plain code-point slicing matches DuckDB
        # substring exactly and is one pass
        texts = pc.fill_null(t["text"], "").to_pylist()
        snips = [x[s:s + width] for x, s in zip(texts, starts)]
        return pa.table({
            "doc_id": t["doc_id"],
            "pos": pa.array((p + 1).astype(np.int64)),
            "snippet": pa.array(snips, pa.string())})

    out = _docs(sf_dir, ["doc_id", "text"]) \
        .map_batches(kernel, batch_format="pyarrow")
    out = exchange.nonempty_or_typed_table(out, {
        "doc_id": pa.int64(), "pos": pa.int64(), "snippet": pa.string()})
    return out if isinstance(out, pa.Table) else out.sort("doc_id")


def cross_corpus_overlap(sf_dir: str):
    """Documents × extracted-web-text window overlap: run the flagship
    extraction over the crawl corpus, then measure per-document 13-token
    window overlap against the extracted text — the cross-dataset eval-
    decontamination check (GPT-3 App. C at 13-gram granularity), with the
    reference side produced by the engine's own extraction pipeline."""
    d = _pages_dir_for(sf_dir)
    extracted = extract_pipeline(
        read_pages(os.path.join(d, "pages.parquet"))) \
        .select_columns(["extracted_text"])
    nc = _docs_coarse_hint(sf_dir, 2)
    out = dedup.cross_window_overlap(
        _docs(sf_dir, ["doc_id", "text"]), extracted,
        ref_text_col="extracted_text", n_coarse=nc, n_coarse_docs=nc)
    return out if isinstance(out, pa.Table) else out.sort("doc_id")


def langid_confusion(sf_dir: str):
    """Language-ID confusion matrix: predicted lang (n-gram heuristic) vs
    the table's lang label, with counts — the eval view of the lang-ID
    operator. In-batch combiner → one tiny groupby; value-exact oracle
    reuses the langid SQL expression."""

    def partial(batch: pa.Table) -> pa.Table:
        pred = text_analysis.lang_id(batch)
        t = pa.table({
            "lang": pc.fill_null(pc.cast(batch["lang"], pa.string()), ""),
            "lang_pred": pred["lang_pred"],
            "one": pa.array(np.ones(batch.num_rows, np.int64))})
        g = t.group_by(["lang", "lang_pred"]).aggregate([("one", "sum")])
        return pa.table({"lang": g["lang"], "lang_pred": g["lang_pred"],
                         "n": g["one_sum"]})

    return (_docs(sf_dir, ["text", "lang"])
            .map_batches(partial, batch_format="pyarrow")
            .groupby(["lang", "lang_pred"]).sum("n")
            .map_batches(lambda b: pa.table({
                "lang": b["lang"], "lang_pred": b["lang_pred"],
                "n": pc.cast(b["sum(n)"], pa.int64())}),
                batch_format="pyarrow")
            .sort(["lang", "lang_pred"]))


PAIR_BODY_CHARS = 200
PAIR_BUCKET_ROWS = 2_000   # target rows per negative-sampling bucket


def _pair_bucket_count(n_rows: int) -> int:
    """Negative-sampling bucket count for ``contrastive_pairs``: sized so
    each bucket's pandas group stays ~PAIR_BUCKET_ROWS rows REGARDLESS of
    corpus size. Deliberately NOT capped at exchange.N_COARSE — these
    buckets become whole in-memory map_groups frames, so a cap would make
    group size corpus/cap (the round-2 scale-killer: a fixed %64 put
    corpus/64 rows in one pandas frame)."""
    return max(1, n_rows // PAIR_BUCKET_ROWS + 1)


def contrastive_pairs(joined, n_buckets: int,
                      text_col: str = "extracted_text"):
    """(url, title, text) rows → (url, title, body, neg_body) contrastive
    training pairs: the positive is the row's own body, the negative is
    the PREVIOUS row's body within the row's url-hash bucket (np.roll over
    url-sorted bucket rows — the standard in-batch-negative construction,
    made deterministic by keying bucket membership on crc32(url) %
    n_buckets instead of physical batch boundaries). Bucket membership is
    a pure function of (url, n_buckets) and rows are url-sorted inside the
    bucket, so the output is partition-invariant (pinned by
    tests/test_pipeline.py::TestTitleBodyPairs). Single-row buckets (no
    true negative available) drop rather than emit neg == pos. Bodies
    truncate to PAIR_BODY_CHARS."""

    def project(batch: pa.Table) -> pa.Table:
        t = pc.fill_null(batch["title"], "")
        b = pc.utf8_slice_codeunits(
            pc.fill_null(batch[text_col], ""), 0, PAIR_BODY_CHARS)
        keep = pc.and_(pc.greater(pc.utf8_length(t), 0),
                       pc.greater(pc.utf8_length(b), 0))
        f = pa.table({"url": batch["url"], "title": t, "body": b}) \
            .filter(keep)
        return f.append_column(
            "negc", pa.array(str_hash.str_coarse(f["url"], n_buckets)))

    def pairs(df: pd.DataFrame) -> pd.DataFrame:
        d = df.sort_values("url", kind="mergesort")
        if len(d) < 2:
            return pd.DataFrame({"url": pd.array([], "string"),
                                 "title": pd.array([], "string"),
                                 "body": pd.array([], "string"),
                                 "neg_body": pd.array([], "string")})
        body = d["body"].to_numpy(object)
        neg = np.roll(body, 1)
        # degenerate pairs drop: adjacent url-sorted rows can share the
        # same truncated body (duplicate boilerplate openings) and a
        # neg == pos row is a broken training example, not a pair
        keep = neg != body
        d = d[keep]
        return pd.DataFrame({"url": d["url"], "title": d["title"],
                             "body": d["body"], "neg_body": neg[keep]})

    # no trailing global sort: the pair SET is deterministic (bucket
    # membership + url-sorted rows inside each bucket), the driver check
    # is order-insensitive, and a second all-to-all barrier just to
    # prettify row order costs more than the whole pair construction at
    # the small-block tail (measured: 64-block sort ≈ 2.7 s of pure
    # per-block fixed cost at sf0.1)
    return (joined.map_batches(project, batch_format="pyarrow")
            .groupby("negc").map_groups(pairs, batch_format="pandas"))


def _meta_body_kernel(batch: pa.Table) -> pa.Table:
    """Fused (title, extracted body) in ONE pass over the html batch:
    both the metadata kernel and the extraction kernel are row-wise over
    the same payloads, so running them side by side per batch removes the
    second corpus read AND the url hash-join barrier that composing the
    two pipelines costs (measured: title_body_pairs 10.8 s → the
    extraction path + two small exchanges at sf0.1). Identical values to
    the composed form — title_body_pairs' test checks title ≡ the
    page_metadata query per url."""
    from ..pipelines.extract import _worker_extractor

    meta = _page_meta_kernel(batch)
    ext = _worker_extractor("medium", True)(batch)  # flagship params
    return pa.table({"url": batch["url"],
                     "title": meta["title"],
                     "extracted_text": ext["extracted_text"]})


def title_body_pairs(sf_dir: str):
    """Retrieval-style training pairs from the crawl: per page, (title →
    body) as the positive and a url-hash-bucket neighbor's body as the
    negative (see ``contrastive_pairs``). Title and body come from one
    fused kernel pass over the pages (``_meta_body_kernel``); pages with
    an empty title or body drop out. Bucket count adapts to the corpus
    (~2k rows per bucket at any scale). Returns
    (url, title, body, neg_body)."""
    d = _pages_dir_for(sf_dir)
    n_pages = _corpus_rows(d)
    # text + lang ride along: the direct-text cheap path (M5) and lang
    # routing must behave exactly as in the flagship extraction
    pages = read_pages(os.path.join(d, "pages.parquet"),
                       columns=["url", "html", "text", "lang"])
    joined = pages.map_batches(_meta_body_kernel, batch_format="pyarrow")
    return contrastive_pairs(joined, _pair_bucket_count(n_pages))


def target_affinity_docs(sf_dir: str, target_source: str = "src0"):
    """DSIR-style data selection signal (Xie et al. 2023, simplified to an
    exact-integer affinity ratio): fit hashed-unigram count vectors for
    target (source == target_source) vs raw (everything else) over the
    documents table — a fixed 2 × 4096 int64 table regardless of corpus
    size — then score every doc with
    affinity = target_mass / max(raw_mass, 1). Two streaming passes, one
    bounded groupby, no corpus-scale shuffle; the count vectors ride into
    the score tasks as a 64 KB constant. Value-exact SQL oracle via the
    shared md5-hash32 bucket rule."""
    docs = _docs(sf_dir, ["doc_id", "text", "source"])
    tgt, raw = text_analysis.affinity_fit(docs, target_source)
    scored = text_analysis.affinity_score(
        _docs(sf_dir, ["doc_id", "text"]), tgt, raw)
    return scored.sort("doc_id")


def dsir_resampled_docs(sf_dir: str, target_source: str = "src0"):
    """DSIR importance RESAMPLING (the selection step after the scoring
    step, `stages/text_analysis.affinity_resample`): accept a doc iff
    uniform(doc) < affinity, with uniform = hash32(doc_id) / 2^32 (the
    samplers' md5 membership rule) — evaluated in EXACT integer
    arithmetic (hash32 * max(raw_mass,1) < 2^32 * target_mass, Python
    bigints / SQL HUGEINT), so the kept set is bit-stable across
    engines. Target-heavy docs (affinity ≥ 1) are always kept;
    zero-target docs never. Composes the two already-value-exact
    primitives (affinity scorer + hash sampler) in one extra streaming
    filter BEFORE the presentation sort — the filter adds no shuffle and
    the single trailing sort runs over the (smaller) kept set only."""
    docs = _docs(sf_dir, ["doc_id", "text", "source"])
    tgt, raw = text_analysis.affinity_fit(docs, target_source)
    scored = text_analysis.affinity_score(
        _docs(sf_dir, ["doc_id", "text"]), tgt, raw)
    return text_analysis.affinity_resample(scored).sort("doc_id")


def source_unigram_kl_docs(sf_dir: str):
    """Per-source lexical drift vs the corpus mixture
    (stages/text_analysis.source_unigram_kl): KL divergence of each
    source's hashed-4096-bucket unigram distribution against the whole
    documents table, exact-int micro-nat quantization per bucket term so
    the sum is order-independent and the SQL oracle reproduces it
    bit-for-bit."""
    import ray.data

    t = text_analysis.source_unigram_kl(
        _docs(sf_dir, ["text", "source"]))
    return ray.data.from_arrow(t)


def zipf_by_source(sf_dir: str):
    """Per-source Zipf rank–frequency slope + vocabulary/hapax stats
    (stages/text_analysis.zipf_fit_by_source): vocab-bounded combiner →
    one groupby → driver reduce; slope is one float division of exact
    bigint micro-unit sums (value-exact in SQL via HUGEINT)."""
    import ray.data

    t = text_analysis.zipf_fit_by_source(
        _docs(sf_dir, ["text", "source"]))
    return ray.data.from_arrow(t)


def source_jsd_matrix_docs(sf_dir: str):
    """Pairwise Jensen–Shannon divergence between source slices
    (stages/text_analysis.source_jsd_matrix): symmetric bounded drift
    over the shared hashed-4096-bucket unigram distributions, per-pair
    micro-nat int sums so the SQL oracle reproduces it bit-for-bit."""
    import ray.data

    t = text_analysis.source_jsd_matrix(
        _docs(sf_dir, ["text", "source"]))
    return ray.data.from_arrow(t)


def inverted_index_docs(sf_dir: str, k: int = 100):
    """Inverted-index build over the documents table: posting rows
    (word, df, doc_id) for the k highest-df terms
    (stages/text_analysis.inverted_index_topdf: per-batch distinct-doc df
    combiner → vocab-bounded groupby → partial-top-k term selection →
    broadcast term set → posting pass proportional to the answer)."""
    return text_analysis.inverted_index_topdf(
        _docs(sf_dir, ["doc_id", "text"]), k=k)


def c4_clean_docs(sf_dir: str):
    """C4 cleaning rules (terminal-punctuation / 5-word / javascript line
    filters + lorem-ipsum / brace / <3-kept-lines document quarantine;
    stages/text_analysis.c4_clean).

    The documents table is single-line word soup (no newlines, no
    terminal punctuation), so the query first BUILDS a deterministic
    multi-line construction — the pii_scrub / crawl_diff synthesis
    convention, reproduced verbatim in SQL: words grouped into 8-word
    lines, '.' appended when (doc_id + line_no) % 3 != 2, and a marker
    line grafted by doc_id % 16 (0 → 'lorem ipsum', 1 → '{',
    2 → a javascript line) so every status branch occurs in the corpus.
    The construction rides inside the same map_batches as the vectorized
    kernel — one streaming pass, no shuffle; dropped docs surface as
    status rows per the S2 quarantine convention."""
    import re as _re

    ws_re = _re.compile(r"\S+")

    def build_and_clean(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_pylist()
        txts = batch["text"].to_pylist()
        out = []
        for i, t in zip(ids, txts):
            ws = ws_re.findall(t or "")
            n_l = (len(ws) + 7) // 8
            lines = [" ".join(ws[j * 8:j * 8 + 8])
                     + ("." if (i + j + 1) % 3 != 2 else "")
                     for j in range(n_l)]
            g = i % 16
            if g == 0:
                lines.append("lorem ipsum")
            elif g == 1:
                lines.append("{")
            elif g == 2:
                lines.append("please enable javascript to continue here.")
            out.append("\n".join(lines))
        built = pa.table({"doc_id": batch["doc_id"],
                          "text": pa.array(out, pa.string())})
        return text_analysis.c4_clean(built)

    return (_docs(sf_dir, ["doc_id", "text"])
            .map_batches(build_and_clean, batch_format="pyarrow")
            .sort("doc_id"))


def quality_dedup_kept_doubled(sf_dir: str):
    """Quality-aware dedup keep (stages/dedup.canonical_quality_keep):
    per canonical-form cluster, keep the highest-quality MEMBER — the
    representative-choice policy web pipelines use instead of min-id.

    The documents table is punctuation-free word soup, so the query
    grafts deterministic formatting variants (the c4_clean / pii_scrub
    construction convention, reproduced verbatim in SQL): every doc gets
    a doc_id%3 punctuation suffix, and a +DOUBLE_OFFSET twin that is
    either punct-soup-degraded (even ids → lower quality) or
    punct-stripped (odd ids → higher quality). Originals and twins
    share a canonical form by construction, so every cluster forces a
    real quality comparison and winners land on BOTH sides."""
    docs = _docs(sf_dir, ["doc_id", "text"])
    soup = " " + "!?;" * 12

    def construct(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_numpy()
        t = pc.fill_null(batch["text"], "")
        suffix = np.select([ids % 3 == 0, ids % 3 == 1],
                           [" !!", ""], default=" ;;;;").astype(object)
        orig = pc.binary_join_element_wise(
            t, pa.array(suffix, pa.string()), "")
        degraded = pc.binary_join_element_wise(
            orig, pa.scalar(soup, pa.string()), "")
        stripped = pc.replace_substring_regex(orig, r"[^\w\s]", "")
        twin = np.where(ids % 2 == 0,
                        degraded.to_numpy(zero_copy_only=False),
                        stripped.to_numpy(zero_copy_only=False))
        return pa.table({
            "doc_id": pa.array(
                np.concatenate([ids, ids + DOUBLE_OFFSET]), pa.int64()),
            "text": pa.array(
                np.concatenate([orig.to_numpy(zero_copy_only=False),
                                twin]).astype(object), pa.string())})

    kept = dedup.canonical_quality_keep(
        docs.map_batches(construct, batch_format="pyarrow"),
        n_coarse=_docs_coarse_hint(sf_dir, mult=2))

    def finalize(b: pa.Table) -> pa.Table:
        src = pc.if_else(
            pc.greater_equal(b["doc_id"],
                             pa.scalar(DOUBLE_OFFSET, pa.int64())),
            pa.scalar("twin"), pa.scalar("original"))
        return pa.table({"digest": b["digest"], "doc_id": b["doc_id"],
                         "source": src,
                         "quality_score": b["quality_score"]})

    return kept.map_batches(finalize, batch_format="pyarrow").sort("digest")


def encoding_qc_docs(sf_dir: str):
    """Encoding-artifact QC (stages/text_analysis.encoding_qc) — the
    decode-sanity gate before training. The documents table is clean
    ASCII soup, so the query grafts each artifact class deterministically
    by doc_id % 8 (the c4_clean construction convention, reproduced
    verbatim in SQL): 0 → mojibake 'Ã©' sequences, 1 → curly-quote
    mojibake, 2 → a U+FFFD replacement char, 3 → a BEL control char,
    else untouched — so every status branch occurs and 'clean' dominates.
    One streaming pass, no shuffle."""
    markers = {0: " cafÃ© Ã©tÃ©", 1: " itâ€™s â€œq",
               2: " a\N{REPLACEMENT CHARACTER}b", 3: " x\x07y"}

    def build_and_qc(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_numpy()
        t = pc.fill_null(batch["text"], "")
        suffix = np.select(
            [ids % 8 == k for k in markers],
            [np.full(len(ids), m, dtype=object) for m in markers.values()],
            default="").astype(object)
        built = pc.binary_join_element_wise(
            t, pa.array(suffix, pa.string()), "")
        return text_analysis.encoding_qc(
            pa.table({"doc_id": batch["doc_id"], "text": built}))

    return (_docs(sf_dir, ["doc_id", "text"])
            .map_batches(build_and_qc, batch_format="pyarrow")
            .sort("doc_id"))


def unigram_entropy_docs(sf_dir: str):
    """RedPajama-v2 rps_doc_unigram_entropy over documents
    (stages/text_analysis.unigram_entropy): per-doc Shannon entropy of
    the word distribution as order-independent micro-nat int sums +
    one exact float division. One streaming pass, no shuffle;
    value-exact in SQL (libm-ln cast-order convention)."""
    return (_docs(sf_dir, ["doc_id", "text"])
            .map_batches(text_analysis.unigram_entropy,
                         batch_format="pyarrow")
            .sort("doc_id"))


def cdc_chunk_dedup_doubled(sf_dir: str):
    """Content-defined-chunking dedup (stages/dedup.cdc_chunk_dedup)
    over the doubled corpus: each doc gets a +DOUBLE_OFFSET twin with ONE
    word ('zzz') inserted at the front. Because chunk boundaries are
    content-defined, the insertion invalidates only the twin's first
    chunk — every later chunk realigns and dedups against the original,
    the property fixed-width chunking lacks (and the reason incremental
    crawl/chunk stores use CDC). One coarse hash-keyed exchange; chunk
    text never moves."""
    docs = _docs(sf_dir, ["doc_id", "text"])

    def construct(batch: pa.Table) -> pa.Table:
        t = pc.fill_null(batch["text"], "")
        twin = pc.binary_join_element_wise(
            pa.array(np.full(batch.num_rows, "zzz", object), pa.string()),
            t, " ")
        orig = pa.table({"doc_id": batch["doc_id"], "text": t})
        twins = pa.table({
            "doc_id": pc.add(batch["doc_id"],
                             pa.scalar(DOUBLE_OFFSET, pa.int64())),
            "text": twin})
        return pa.concat_tables([orig, twins]).combine_chunks()

    doubled = docs.map_batches(construct, batch_format="pyarrow")
    return dedup.cdc_chunk_dedup(doubled).sort(["doc_id", "chunk_idx"])


def paragraph_dedup_docs(sf_dir: str):
    """Within-doc duplicate-paragraph removal + Gopher dup-paragraph
    metrics (stages/text_analysis.paragraph_dedup): 6-word paragraph
    construction with a doc_id%3-grafted duplicate, keep-first-occurrence
    rule, exact-int char fractions. One streaming pass, no shuffle."""
    return (_docs(sf_dir, ["doc_id", "text"])
            .map_batches(text_analysis.paragraph_dedup,
                         batch_format="pyarrow")
            .sort("doc_id"))


def readability_docs(sf_dir: str):
    """Flesch reading-ease / FK grade per document
    (stages/text_analysis.readability): vowel-group syllable heuristic +
    the deterministic k-word sentence rule over the unpunctuated corpus.
    One streaming pass, no shuffle; both scores bit-exact in SQL (float
    expressions of exact ints in identical literal order)."""
    return (_docs(sf_dir, ["doc_id", "text"])
            .map_batches(text_analysis.readability,
                         batch_format="pyarrow")
            .sort("doc_id"))


def badwords_filtered_docs(sf_dir: str):
    """C4 §2.2 bad-words page gate (stages/text_analysis.badwords_counts):
    per-term whole-word hit counts over the blocklist stand-in, total,
    and the drop-on-any-hit kept flag. One vectorized RE2 pass per term,
    no shuffle; bit-exact vs the same RE2 alternation in SQL."""
    return (_docs(sf_dir, ["doc_id", "text"])
            .map_batches(text_analysis.badwords_counts,
                         batch_format="pyarrow")
            .sort("doc_id"))


def length_zscore_by_lang(sf_dir: str):
    """Per-language z-score of document length (stages/text_analysis
    .group_zscore) — normalize a per-doc signal WITHIN each language so a
    single threshold works across languages with different length
    distributions. Exact-int moments per lang (bounded driver reduce)
    → one vectorized scoring pass; z is a float expression of exact ints
    on both sides."""
    def n_words(batch: pa.Table) -> pa.Table:
        t = pc.fill_null(batch["text"], "")
        return pa.table({
            "doc_id": batch["doc_id"], "lang": batch["lang"],
            "n_words": pc.cast(
                pc.count_substring_regex(t, r"\S+"), pa.int64())})

    ds = _docs(sf_dir, ["doc_id", "lang", "text"]).map_batches(
        n_words, batch_format="pyarrow")
    return text_analysis.group_zscore(
        ds, "lang", "n_words", out_col="z_words").sort("doc_id")


def bpe_pair_counts_docs(sf_dir: str, k: int = 100):
    """Round-1 BPE merge candidates over the documents table
    (stages/text_analysis.bpe_pair_counts): top-k adjacent-character
    pair frequencies, the statistic a BPE tokenizer fit maximizes."""
    return text_analysis.bpe_pair_counts(
        _docs(sf_dir, ["doc_id", "text"]), k=k)


def bpe_merges_docs(sf_dir: str, n_merges: int = 8):
    """Iterative BPE tokenizer fit (stages/text_analysis.bpe_merges):
    n_merges rounds of distributed pair count → argmax merge. Rows-only
    at the driver (each round's statistic depends on the previous
    argmax — no SQL form); round-1 equals the value-exact
    bpe_pair_counts_docs argmax by construction, and a pure-python
    differential test pins the full loop."""
    return text_analysis.bpe_merges(
        _docs(sf_dir, ["doc_id", "text"]), n_merges=n_merges)


def bpe_encoded_docs(sf_dir: str, n_merges: int = 8):
    """Fit-then-ENCODE: run the iterative BPE fit on the corpus, then
    apply the merge table to every document
    (stages/text_analysis.bpe_encode) — per-doc BPE token counts, the
    real packing/budget statistic. The fit's merge table (≤ n_merges
    rows) is the only thing that crosses stages; the encode pass
    streams, no shuffle. Rows-only (the fit is iterative — no SQL
    form); a pure-python differential pins segmentations and counts."""
    merges = text_analysis.bpe_merges(
        _docs(sf_dir, ["doc_id", "text"]), n_merges=n_merges)
    return text_analysis.bpe_encode(
        _docs(sf_dir, ["doc_id", "text"]), merges).sort("doc_id")


def pmi_top_bigrams(sf_dir: str, k: int = 100, min_count: int = 5):
    """Collocation mining — top-k adjacent word pairs by pointwise mutual
    information, the classic lexical-association statistic (Church &
    Hanks 1990): pmi = ln(n_xy·N / (n_x·n_y)) over lowered ``\\w+``
    tokens (the shared word-count tokenizer), restricted to pairs with
    n_xy ≥ min_count.

    Scale shape: unigram counts via the shared wordcount combiner
    (materialized ONCE — vocab-scale, two bounded consumers); bigram
    counts via a per-batch distinct-pair combiner → pair-keyed groupby →
    min-count filter; then two co-partitioned `stages/joins.hash_join`s
    decorate each surviving pair with its word counts (vocab-scale
    exchanges, never token-grain); pmi is computed with libm
    ``math.log`` over the EXACT int counts in the same
    cast-multiply-divide order as the SQL (the unigram_logprob
    convention — DuckDB ln ≡ math.log bit-for-bit, numpy's SIMD log is
    not), so the (pmi DESC, w1, w2) top-k finisher orders identically on
    both sides. Returns (w1, w2, n_xy, n_x, n_y, pmi)."""
    return _pmi_from_ds(_docs(sf_dir, ["text"]), k=k, min_count=min_count)


def _pmi_from_ds(docs, k: int, min_count: int,
                 broadcast_cap_rows: "int | None" = None):
    """Dataset-level core of ``pmi_top_bigrams`` (docs needs a ``text``
    column) — split out so tests control partitioning and the
    broadcast-vs-join routing cap directly."""
    import math

    import ray.data

    from ..stages.joins import hash_join
    from ..stages.topk import topk_table

    uni = (docs.map_batches(_word_count_partial, batch_format="pyarrow")
           .groupby("word").aggregate(Sum("n", alias_name="n"))
           .materialize())
    total = int(uni.sum("n") or 0)

    def bigram_partial(batch: pa.Table) -> pa.Table:
        from collections import Counter
        c: Counter = Counter()
        for t in batch["text"].to_pylist():
            toks = _WORD_TOKEN_RE.findall((t or "").lower())
            c.update(zip(toks, toks[1:]))
        return pa.table({
            "w1": pa.array([p[0] for p in c], pa.string()),
            "w2": pa.array([p[1] for p in c], pa.string()),
            "n_xy": pa.array(list(c.values()), pa.int64())})

    big = (docs.map_batches(bigram_partial, batch_format="pyarrow")
           .groupby(["w1", "w2"]).aggregate(Sum("n_xy", alias_name="n_xy"))
           .filter(expr=f"n_xy >= {int(min_count)}"))

    def _pmi_vals(n_xy, n_x, n_y):
        # float sequence mirrors the SQL expression operation-for-
        # operation: (xy·N as double) / (x as double · y as double)
        return [math.log((float(a) * float(total))
                         / (float(x) * float(y)))
                for a, x, y in zip(n_xy, n_x, n_y)]

    from ..stages.dim_broadcast import DIM_BROADCAST_CAP_ROWS
    cap = DIM_BROADCAST_CAP_ROWS if broadcast_cap_rows is None \
        else broadcast_cap_rows
    if uni.count() <= cap:
        # vocab fits the dim-broadcast cap: ship ONE {word: n} dict into
        # the decorate pass instead of two vocab-keyed hash_join
        # exchanges (the knn_graph/dim_broadcast size-routing
        # convention; identical values either route — pinned by test)
        import ray
        vref = ray.put({r["word"]: int(r["n"]) for r in uni.take_all()})

        def decorate(batch: pa.Table) -> pa.Table:
            v = ray.get(vref)
            n_x = [v[w] for w in batch["w1"].to_pylist()]
            n_y = [v[w] for w in batch["w2"].to_pylist()]
            t = batch.append_column("n_x", pa.array(n_x, pa.int64()))
            t = t.append_column("n_y", pa.array(n_y, pa.int64()))
            return t.append_column("pmi", pa.array(
                _pmi_vals(batch["n_xy"].to_pylist(), n_x, n_y),
                pa.float64()))

        scored = big.map_batches(decorate, batch_format="pyarrow")
    else:
        u1 = uni.map_batches(
            lambda b: b.select(["word", "n"]).rename_columns(
                ["w1", "n_x"]), batch_format="pyarrow")
        u2 = uni.map_batches(
            lambda b: b.select(["word", "n"]).rename_columns(
                ["w2", "n_y"]), batch_format="pyarrow")
        j = hash_join(hash_join(big, u1, "w1", "w1"), u2, "w2", "w2")

        def score(batch: pa.Table) -> pa.Table:
            return batch.append_column("pmi", pa.array(
                _pmi_vals(batch["n_xy"].to_pylist(),
                          batch["n_x"].to_pylist(),
                          batch["n_y"].to_pylist()), pa.float64()))

        scored = j.map_batches(score, batch_format="pyarrow")
    top = topk_table(scored, [("pmi", "descending"), ("w1", "ascending"),
                              ("w2", "ascending")], k)
    cols = ["w1", "w2", "n_xy", "n_x", "n_y", "pmi"]
    if top.num_rows == 0:
        top = pa.table({"w1": pa.array([], pa.string()),
                        "w2": pa.array([], pa.string()),
                        "n_xy": pa.array([], pa.int64()),
                        "n_x": pa.array([], pa.int64()),
                        "n_y": pa.array([], pa.int64()),
                        "pmi": pa.array([], pa.float64())})
    return ray.data.from_arrow(top.select(cols))


def bow_dedup_docs(sf_dir: str):
    """Bag-of-words canonical dedup: docs whose TOKEN MULTISETS match are
    duplicates even when token order differs — the paragraph-shuffle /
    sentence-reorder near-dup class that byte-exact digest dedup misses
    entirely (reference digest semantics: app2.py md5-of-bytes).

    The corpus is single-order word soup, so the query constructs a
    guaranteed-positive workload (the _doubled_docs convention): every
    doc gets a +DOUBLE_OFFSET twin whose tokens are REVERSED — a
    different byte string (exact dedup keeps both) with the identical
    multiset (bag-of-words dedup collapses the pair). bow_hash =
    md5(' '.join(sorted(ascii-\\w tokens of lower(text)))); tokens are
    [0-9a-z_]-only so Python codepoint sort == DuckDB binary collation.

    Scale shape: the canonicalization runs inside the projection
    map_batches, so only (doc_id, 32-char hash) rows reach the single
    groupby — the corpus text never shuffles; the aggregate is Ray
    Data's distributed Min/Count, no map_groups materialization."""
    import hashlib
    import re as _re

    word_re = _re.compile(r"\w+", _re.ASCII)
    docs = _docs(sf_dir, ["doc_id", "text"])

    def project(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_pylist()
        txts = pc.fill_null(batch["text"], "").to_pylist()
        out_id, out_h = [], []
        for i, t in zip(ids, txts):
            toks = word_re.findall(t.lower())
            out_id.append(i)
            out_h.append(hashlib.md5(
                " ".join(sorted(toks)).encode()).hexdigest())
            # the reversed twin goes through the SAME tokenize+sort path
            twin_toks = word_re.findall(" ".join(reversed(toks)).lower())
            out_id.append(i + DOUBLE_OFFSET)
            out_h.append(hashlib.md5(
                " ".join(sorted(twin_toks)).encode()).hexdigest())
        return pa.table({"doc_id": pa.array(out_id, pa.int64()),
                         "bow_hash": pa.array(out_h, pa.string())})

    from ray.data.aggregate import Min
    agg = (docs.map_batches(project, batch_format="pyarrow")
           .groupby("bow_hash")
           .aggregate(Min("doc_id", alias_name="doc_id"),
                      Count(alias_name="n_members")))

    def order_cols(batch: pa.Table) -> pa.Table:
        return batch.select(["doc_id", "bow_hash", "n_members"])

    return agg.map_batches(order_cols, batch_format="pyarrow").sort("doc_id")


def fineweb_filter_docs(sf_dir: str):
    """Composite quality gate with FIRST-FAIL reason routing (the
    FineWeb/RefinedWeb production shape: every rejected doc carries the
    single rule that killed it, in a FIXED priority order, so filter-rate
    dashboards and ablations attribute removals unambiguously).

    Rules are the five Gopher flags already oracled individually
    (stages/text_analysis.gopher_flags); this op adds the routing:
    reason = first failed flag in (word_count, mean_word_len, stopwords,
    top_word, dup_2gram) order, 'keep' when all pass — np.select
    first-hit semantics, reproduced in SQL as the identical ordered CASE
    chain over the gopher oracle's metric CTE. Purely per-row, one
    vectorized pass, no shuffle."""
    docs = _docs(sf_dir, ["doc_id", "text"])

    def kernel(batch: pa.Table) -> pa.Table:
        g = text_analysis.gopher_flags(batch)
        flags = {n: g[n].to_numpy(zero_copy_only=False)
                 for n in ("flag_word_count", "flag_mean_word_len",
                           "flag_stopwords", "flag_top_word",
                           "flag_dup_2gram", "keep")}
        reason = np.select(
            [~flags["flag_word_count"], ~flags["flag_mean_word_len"],
             ~flags["flag_stopwords"], ~flags["flag_top_word"],
             ~flags["flag_dup_2gram"]],
            ["word_count", "mean_word_len", "stopwords",
             "top_word", "dup_2gram"],
            default="keep")
        return pa.table({
            "doc_id": g["doc_id"],
            "n_words": g["n_words"],
            "reason": pa.array(list(reason), pa.string()),
            "keep": pa.array(flags["keep"])})

    return (docs.map_batches(kernel, batch_format="pyarrow")
            .sort("doc_id"))


# deterministic non-ASCII grafts for script_mix_docs, keyed by doc_id%4;
# reproduced verbatim in the SQL oracle (the c4_clean construction
# convention — the base corpus is ASCII soup, so every script class must
# be grafted to occur at all)
_SCRIPT_GRAFTS = {1: " привет мир", 2: " 你好 世界", 3: " αβγδ εζ"}


def script_mix_docs(sf_dir: str):
    """Unicode-script histogram + dominant script per doc
    (stages/text_analysis.script_mix). Construction: doc_id%4 grafts a
    Cyrillic / CJK / Greek tail (doc_id%4==0 stays pure ASCII) so every
    script class and the 'mixed-script' signal occur in the corpus."""
    docs = _docs(sf_dir, ["doc_id", "text"])

    def build_and_count(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_numpy()
        t = pc.fill_null(batch["text"], "")
        tail = np.array([_SCRIPT_GRAFTS.get(int(i) % 4, "")
                         for i in ids], dtype=object)
        built = pc.binary_join_element_wise(
            t, pa.array(tail, pa.string()), "")
        return text_analysis.script_mix(
            pa.table({"doc_id": batch["doc_id"], "text": built}))

    return (docs.map_batches(build_and_count, batch_format="pyarrow")
            .sort("doc_id"))


def embedding_pca_docs(sf_dir: str, d_out: int = 8):
    """Distributed PCA projection of the embeddings table
    (stages/similarity.pca_fit/pca_project): bounded two-pass fit
    (per-block moment partials, 64-way pre-combine, driver eigh of the
    dim×dim covariance) + one streaming projection pass. Rows-only at
    the driver (eigendecomposition has no SQL form — the HLL/zlib
    justification class); correctness is pinned by the differential
    test against numpy PCA on the full matrix."""
    return (similarity.pca_project(_embeddings(sf_dir), d_out=d_out)
            .sort("vec_id"))


def dup_cluster_size_hist(sf_dir: str):
    """Dedup diagnostics rollup: histogram of exact-dup cluster sizes
    (cluster_size → number of clusters, rows covered) — the one-page
    summary a dedup run reports (how much corpus mass sits in what
    duplication depth) before anyone commits to a keep policy.

    Construction: the doubled corpus plus a SECOND twin (+2·OFFSET) for
    every doc_id%10==0 row, so the histogram has two real buckets
    (size 2 and size 3) at every tier instead of a degenerate single
    row. Scale shape: exact_dedup_stats' digest groupby already reduces
    to one row per distinct content; the histogram is a per-batch
    combiner over THOSE rows (size → count inside each batch) + a
    second groupby over ≤ distinct-sizes rows — the exchange after the
    digest pass carries cluster-size integers, never digests."""
    base = _docs(sf_dir, ["doc_id", "text"])

    def triple(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_numpy()
        t = batch.filter(pa.array(ids % 10 == 0))
        return pa.table({
            "doc_id": pc.add(t["doc_id"],
                             pa.scalar(2 * DOUBLE_OFFSET, pa.int64())),
            "text": t["text"]})

    corpus3 = _doubled_docs(sf_dir).union(
        base.map_batches(triple, batch_format="pyarrow"))
    stats = dedup.exact_dedup_stats(corpus3)

    def partial(batch: pa.Table) -> pa.Table:
        g = (pa.table({"cluster_size": batch["dup_count"]})
             .group_by("cluster_size")
             .aggregate([("cluster_size", "count")]))
        return pa.table({
            "cluster_size": pc.cast(g["cluster_size"], pa.int64()),
            "n": pc.cast(g["cluster_size_count"], pa.int64())})

    agg = (stats.map_batches(partial, batch_format="pyarrow")
           .groupby("cluster_size")
           .aggregate(Sum("n", alias_name="n_clusters")))

    def finalize(batch: pa.Table) -> pa.Table:
        return pa.table({
            "cluster_size": batch["cluster_size"],
            "n_clusters": pc.cast(batch["n_clusters"], pa.int64()),
            "n_docs": pc.multiply(
                pc.cast(batch["cluster_size"], pa.int64()),
                pc.cast(batch["n_clusters"], pa.int64()))})

    return (agg.map_batches(finalize, batch_format="pyarrow")
            .sort("cluster_size"))


# host-level text-density gate: hosts whose aggregate text/markup ratio
# falls below this per-mille threshold are blocklisted wholesale (the
# synthetic crawl's host ratios span ~450-950‰, so both branches occur
# at every tier)
HOST_TEXT_PERMILLE_MIN = 680


def host_quality_blocklist(sf_dir: str,
                           thresh_permille: int = HOST_TEXT_PERMILLE_MIN,
                           broadcast_cap_rows: "int | None" = None):
    """Two-level quality gate (the CCNet / UT1-blocklist production
    shape): page-level text-density signal → HOST-level decision →
    page-level action. A host whose aggregate text_chars/n_chars ratio
    is below ``thresh_permille`` is blocklisted wholesale; every page
    carries its host verdict, so downstream stages filter on a boolean
    instead of recomputing density.

    Integer semantics end to end: blocked ⇔ Σtext·1000 < thresh·Σchars
    and host_text_permille = Σtext·1000 // max(Σchars,1) — exact in SQL.
    Scale shape: one signal pass (DOCTYPE-gated, the html_markup_stats
    kernel), per-batch host combiner → one host groupby; the verdict
    table is host-sized, so it rides the dim_broadcast size routing —
    ≤ cap: ray.put dict lookup inside map_batches (the pmi decorate
    convention); past the cap: the shuffle_probe_join hash-join route.
    Both routes are differential-tested on the same input."""
    d = _pages_dir_for(sf_dir)
    pages = read_pages(os.path.join(d, "pages.parquet"),
                       columns=["url", "html"])

    def signal(batch: pa.Table) -> pa.Table:
        html = batch["html"]
        mask = pc.starts_with(pc.fill_null(html, b""),
                              pattern=b"<!DOCTYPE html>")
        t = pa.table({"url": batch["url"], "html": html}).filter(mask)
        doc = pc.cast(t["html"], pa.string())
        n_chars = pc.cast(pc.utf8_length(doc), pa.int64())
        text_chars = pc.cast(pc.utf8_length(
            pc.replace_substring_regex(doc, r"<[^>]*>", "")), pa.int64())
        return pa.table({
            "url": t["url"],
            "host": pc.fill_null(crawl.host_of(t["url"]), ""),
            "text_chars": text_chars, "n_chars": n_chars})

    sig = pages.map_batches(signal, batch_format="pyarrow").materialize()

    def host_partial(batch: pa.Table) -> pa.Table:
        g = (pa.table({"host": batch["host"], "st": batch["text_chars"],
                       "sc": batch["n_chars"]})
             .group_by("host").aggregate([("st", "sum"), ("sc", "sum")]))
        return pa.table({"host": g["host"], "st": g["st_sum"],
                         "sc": g["sc_sum"]})

    hosts = (sig.map_batches(host_partial, batch_format="pyarrow")
             .groupby("host")
             .aggregate(Sum("st", alias_name="st"),
                        Sum("sc", alias_name="sc")))

    thresh = int(thresh_permille)

    def verdict(batch: pa.Table) -> pa.Table:
        st = pc.cast(batch["st"], pa.int64()).to_numpy()
        sc = pc.cast(batch["sc"], pa.int64()).to_numpy()
        permille = st * 1000 // np.maximum(sc, 1)
        blocked = st * 1000 < thresh * sc
        return pa.table({
            "host": batch["host"],
            "host_text_permille": pa.array(permille, pa.int64()),
            "blocked": pa.array(blocked)})

    hv = hosts.map_batches(verdict, batch_format="pyarrow").materialize()

    from ..stages.dim_broadcast import DIM_BROADCAST_CAP_ROWS
    cap = DIM_BROADCAST_CAP_ROWS if broadcast_cap_rows is None \
        else broadcast_cap_rows
    probe = sig.select_columns(["url", "host"])
    if hv.count() <= cap:
        vref = ray.put({r["host"]: (int(r["host_text_permille"]),
                                    bool(r["blocked"]))
                        for r in hv.take_all()})

        def attach(batch: pa.Table) -> pa.Table:
            m = ray.get(vref)
            vals = [m[h] for h in batch["host"].to_pylist()]
            return pa.table({
                "url": batch["url"], "host": batch["host"],
                "host_text_permille": pa.array(
                    [v[0] for v in vals], pa.int64()),
                "blocked": pa.array([v[1] for v in vals])})

        out = probe.map_batches(attach, batch_format="pyarrow")
    else:
        from ..stages.dim_broadcast import shuffle_probe_join
        out = shuffle_probe_join(
            probe, hv, "host", "host",
            ["url", "host", "host_text_permille", "blocked"])
    return out.sort("url")


def fineweb_filter_rates(sf_dir: str):
    """Filter-rate dashboard companion to ``fineweb_filter_docs``: docs
    per first-fail reason + exact integer micro-share of the corpus —
    the per-rule removal attribution FineWeb publishes for every filter
    ablation. One vectorized kernel pass + per-batch reason combiner →
    a ≤6-row global groupby; the denominator is the parquet footer row
    count (metadata-only, no extra pass)."""
    import pyarrow.parquet as _pq

    n_total = _pq.ParquetFile(
        os.path.join(sf_dir, "documents.parquet")).metadata.num_rows
    docs = _docs(sf_dir, ["doc_id", "text"])

    def partial(batch: pa.Table) -> pa.Table:
        g = text_analysis.gopher_flags(batch)
        flags = {n: g[n].to_numpy(zero_copy_only=False)
                 for n in ("flag_word_count", "flag_mean_word_len",
                           "flag_stopwords", "flag_top_word",
                           "flag_dup_2gram")}
        reason = np.select(
            [~flags["flag_word_count"], ~flags["flag_mean_word_len"],
             ~flags["flag_stopwords"], ~flags["flag_top_word"],
             ~flags["flag_dup_2gram"]],
            ["word_count", "mean_word_len", "stopwords",
             "top_word", "dup_2gram"],
            default="keep")
        u, c = np.unique(reason, return_counts=True)
        return pa.table({"reason": pa.array(list(u), pa.string()),
                         "n": pa.array(c, pa.int64())})

    agg = (docs.map_batches(partial, batch_format="pyarrow")
           .groupby("reason").aggregate(Sum("n", alias_name="n_docs")))

    def finalize(batch: pa.Table) -> pa.Table:
        n = pc.cast(batch["n_docs"], pa.int64()).to_numpy()
        return pa.table({
            "reason": batch["reason"],
            "n_docs": pa.array(n, pa.int64()),
            "share_micro": pa.array(
                n * 1_000_000 // max(n_total, 1), pa.int64())})

    return (agg.map_batches(finalize, batch_format="pyarrow")
            .sort("reason"))


def lang_ttr_corr(sf_dir: str):
    """Per-language Pearson correlation between document token count and
    DISTINCT-token count — the type-token-ratio (lexical diversity)
    drift diagnostic run per language slice before mixing corpora (a
    slice whose diversity stops growing with length is template/spam
    heavy). Exact-integer moment sums (n, Σx, Σy, Σxy, Σx², Σy²) flow
    through a per-batch lang combiner → one ≤n_langs groupby; the
    correlation is ONE fixed float expression over those ints, mirrored
    operation-for-operation in SQL (num and both variance terms formed
    in integers, each cast to double once) — value-exact. Token counts
    reuse the shared word_frames/repetition_counts kernels (the gopher
    tokenizer), so engines cannot drift. Int64 moment sums are exact at
    the test tiers; a 100-TB run would lift the Σx² lanes to the int128
    partial convention."""
    import math

    docs = _docs(sf_dir, ["doc_id", "text", "lang"])

    def partial(batch: pa.Table) -> pa.Table:
        t = pc.fill_null(batch["text"], "")
        w, p = text_analysis.word_frames(t)
        x, _, y, _, _ = text_analysis.repetition_counts(
            w, p, batch.num_rows)
        df = pd.DataFrame({"lang": batch["lang"].to_pylist(),
                           "x": np.asarray(x, np.int64),
                           "y": np.asarray(y, np.int64)})
        df["xy"] = df.x * df.y
        df["xx"] = df.x * df.x
        df["yy"] = df.y * df.y
        g = df.groupby("lang", sort=False).agg(
            n=("x", "size"), sx=("x", "sum"), sy=("y", "sum"),
            sxy=("xy", "sum"), sxx=("xx", "sum"), syy=("yy", "sum"))
        g = g.reset_index()
        return pa.table({c: pa.array(g[c].to_numpy(), pa.int64())
                         if c != "lang" else pa.array(g[c], pa.string())
                         for c in ("lang", "n", "sx", "sy", "sxy",
                                   "sxx", "syy")})

    agg = (docs.map_batches(partial, batch_format="pyarrow")
           .groupby("lang")
           .aggregate(Sum("n", alias_name="n"),
                      Sum("sx", alias_name="sx"),
                      Sum("sy", alias_name="sy"),
                      Sum("sxy", alias_name="sxy"),
                      Sum("sxx", alias_name="sxx"),
                      Sum("syy", alias_name="syy")))

    def finalize(batch: pa.Table) -> pa.Table:
        d = batch.to_pydict()
        corr = []
        for i in range(len(d["lang"])):
            n, sx, sy = d["n"][i], d["sx"][i], d["sy"][i]
            sxy, sxx, syy = d["sxy"][i], d["sxx"][i], d["syy"][i]
            vx = n * sxx - sx * sx
            vy = n * syy - sy * sy
            if vx > 0 and vy > 0:
                corr.append(float(n * sxy - sx * sy)
                            / (math.sqrt(float(vx)) * math.sqrt(float(vy))))
            else:
                corr.append(0.0)
        return pa.table({
            "lang": pa.array(d["lang"], pa.string()),
            "n_docs": pa.array(d["n"], pa.int64()),
            "sum_words": pa.array(d["sx"], pa.int64()),
            "sum_distinct": pa.array(d["sy"], pa.int64()),
            "ttr_corr": pa.array(corr, pa.float64())})

    return agg.map_batches(finalize, batch_format="pyarrow").sort("lang")


def host_split_pages(sf_dir: str):
    """Leakage-safe corpus split at HOST granularity: every page of a host
    lands in the same train/val/test bucket (90/5/5 by hash32(host) — the
    train_val_test_split rule with the host string as the key). Splitting
    a web corpus at page granularity leaks template and near-duplicate
    content from the same site across the eval boundary (the C4
    train/test contamination finding, Dodge et al. 2021 §5); holding out
    whole domains is the standard mitigation. Membership is a pure
    function of the host string — stable across runs, partitionings and
    cluster sizes, SQL-reproducible — so the operator is one streaming
    map_batches over the url column only (html never reads), no shuffle.
    Returns (url, host, split) sorted by url; schemeless/malformed urls
    (host None) group under '' and split together like any host."""
    lo = (1 << 32) * SPLIT_PCT[0] // 100
    hi = (1 << 32) * SPLIT_PCT[1] // 100
    d = _pages_dir_for(sf_dir)
    ds = read_pages(os.path.join(d, "pages.parquet"), columns=["url"])

    def assign(batch: pa.Table) -> pa.Table:
        hosts = ["" if h is None else h
                 for h in crawl.host_of(batch["url"]).to_pylist()]
        h = np.array([_hash32(s) for s in hosts], np.uint64)
        split = np.where(h < lo, "train", np.where(h < hi, "val", "test"))
        return pa.table({"url": batch["url"],
                         "host": pa.array(hosts, pa.string()),
                         "split": pa.array(split, pa.string())})

    return ds.map_batches(assign, batch_format="pyarrow").sort("url")


REDIRECT_TERM_MOD = 4  # terminal when hash32(doc_id) % 4 == 0 (or id 0)
REDIRECT_SKIP_MOD = 3  # parent = doc_id - 1 - hash32(doc_id) % 3


def redirect_chains(sf_dir: str):
    """Redirect-chain canonicalization — the URL-graph cleanup every crawl
    pipeline runs before dedup (captures of ``a → b → c`` redirect chains
    must all credit the terminal url, or per-url dedup/stats split across
    chain members). The corpus has no real redirects, so the chain table
    is GRAFTED deterministically over doc_id (both sides derive it from
    the shared sampling hash): doc i redirects to
    ``max(i - 1 - hash32(i) % 3, 0)`` unless terminal
    (``hash32(i) % 4 == 0`` or ``i == 0``) — termination is geometric per
    hop, so chain lengths reach ~log_{4/3}(n) ≈ 25+ at corpus scale and
    genuinely exercise the doubling. Resolution is
    ``crawl.resolve_pointer_chains`` pointer doubling: ⌈log2 L⌉
    co-partitioned self-join rounds over (id, ptr, hops) rows — never a
    sequential walk, never a driver-side dict. The SQL oracle walks the
    same grafted parent table with a recursive CTE, so the fixpoint is
    value-exact end to end. Returns (doc_id, final_id, n_hops)."""

    def ptr_table(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        h = np.array([_hash32(int(i)) for i in ids], np.uint64)
        term = (ids == 0) | (h % REDIRECT_TERM_MOD == 0)
        parent = np.maximum(ids - 1 - (h % REDIRECT_SKIP_MOD).astype(np.int64), 0)
        return pa.table({
            "id": pa.array(ids),
            "ptr": pa.array(np.where(term, ids, parent)),
            "hops": pa.array(np.where(term, 0, 1).astype(np.int64))})

    ptrs = _docs(sf_dir, ["doc_id"]).map_batches(ptr_table,
                                                 batch_format="pyarrow")
    res = crawl.resolve_pointer_chains(
        ptrs, n_coarse=_docs_coarse_hint(sf_dir))

    def rename(batch: pa.Table) -> pa.Table:
        return pa.table({"doc_id": batch["id"], "final_id": batch["final_id"],
                         "n_hops": batch["n_hops"]})

    return res.map_batches(rename, batch_format="pyarrow").sort("doc_id")


SUPERSET_FILLER = " qq0 ww1 ee2 rr3 tt4 yy5"  # appended to every twin


def _superset_docs(sf_dir: str):
    """documents ∪ superset twins (doc_id + DOUBLE_OFFSET, text +
    SUPERSET_FILLER): every twin CONTAINS its base verbatim plus extra
    words — containment(base→twin) = 1.0 by construction while symmetric
    Jaccard sits below 1, the workload the asymmetric operator exists
    for. The filler's interior shingles recur in every twin, so the
    CONT_DF_CAP boilerplate rule provably fires at every tier."""
    base = _docs(sf_dir, ["doc_id", "text"])

    def shift(batch: pa.Table) -> pa.Table:
        return pa.table({
            "doc_id": pc.add(batch["doc_id"],
                             pa.scalar(DOUBLE_OFFSET, pa.int64())),
            "text": pc.binary_join_element_wise(
                pc.fill_null(batch["text"], ""), SUPERSET_FILLER, "")})

    return base.union(base.map_batches(shift, batch_format="pyarrow"))


def containment_pairs_doubled(sf_dir: str):
    """Shingle-containment near-dup pairs over the superset-twin corpus —
    see stages/dedup.shingle_containment_pairs for the semantics and the
    two SQL-mirrored rules (DF cap, min size)."""
    return dedup.shingle_containment_pairs(
        _superset_docs(sf_dir),
        n_coarse=_docs_coarse_hint(sf_dir, mult=2)).sort(["id_a", "id_b"])
