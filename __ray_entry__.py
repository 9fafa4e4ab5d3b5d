"""Driver contract for the graft builder (Ray Data target).

``entry()`` runs the flagship extraction pipeline on sf0.001;
``queries()`` exposes one callable per implemented operator/pipeline from
SURVEY.md §2 (plus the training-data operators: dedup family, similarity
search, text analysis, multimodal plumbing); ``oracle_sql()`` provides the
DuckDB-equivalent SQL for every SQL-expressible query. Ray is initialised
by the driver — nothing here calls ray.init()/ray.shutdown().

Float parity notes (why the oracles match bit-for-bit):
- currency sums use exact integer-cent accumulation on BOTH sides
  (see pipelines/relational.py docstring);
- per-row scalar expressions mirror the SQL expression tree exactly
  (IEEE doubles are deterministic per op);
- regex counts use RE2 on both sides (pyarrow.compute and DuckDB);
- ANN emits (query_id, rank, vec_id) only — ranks, not floats.
"""

from __future__ import annotations

from collections.abc import Callable
from typing import Any

from mobile_ocr_api_ray.stages.crawl import DEFAULT_URL_BLOCK_PATTERNS
from mobile_ocr_api_ray.stages.text_analysis import (LANG_PROFILES,
                                                     QUALITY_STOPWORDS,
                                                     _alt_regex)


def entry() -> Any:
    """Flagship pipeline (read → extract → summarize, one fused task per
    block) on the deterministic pages corpus sized for sf0.001."""
    from mobile_ocr_api_ray.pipelines.analysis import extract_pages

    return extract_pages("/root/testdata/sf0.001")


# The driver oracle-checks exactly the FIRST 50 entries of queries()
# (CORRECTNESS_r*.json == queries()[:50]). This window lists the operators
# whose correctness matters most at 100 TB — the dedup / near-dedup /
# link-graph / curation flagships (VERDICT r4 "Next round" item 1) plus a
# representative relational core and the queries added this round. Every
# name here has a value-exact oracle_sql entry; the remaining ~150 queries
# keep their registration order and stay covered by the committed local
# gate (tools/check_oracles.py) and pytest.
_DRIVER_WINDOW = (
    # relational / event representative core
    "unshipped_orders_topk", "regional_revenue", "nation_revenue_share",
    "lineitem_pricing", "top_customers", "nation_order_stats",
    "per_lang_doc_stats", "events_hourly", "sessionize_events",
    "event_value_quantiles",
    # dedup / curation flagships (VERDICT r4's named twelve)
    "exact_dedup", "soft_dedup_weights_doubled",
    "minhash_pairs_md5_doubled", "cdc_chunk_dedup_doubled",
    "line_dedup_docs", "sentence_dedup_docs", "exact_substr_dedup_docs",
    "window_dedup_docs", "dup_window_stats", "shuffle_order_docs",
    "host_pagerank_int", "host_components",
    # round-4 additions that never earned a driver row (ADVICE r4)
    "host_split_pages", "redirect_chains", "containment_pairs_doubled",
    # round-5 additions: hot-key dedup stress + the end-to-end recipe
    "exact_dedup_skew", "curation_recipe",
    # wider dedup / gating / sampling / packing / ANN / crawl coverage
    "exact_dedup_kept", "exact_dedup_doubled",
    "quality_dedup_kept_doubled", "paragraph_dedup_docs",
    "incremental_dedup", "near_dedup_incremental",
    "simhash_pairs_doubled", "ngram_jaccard_adjacent", "bow_dedup_docs",
    "decontaminate_docs", "c4_clean_docs", "gopher_quality_flags",
    "fineweb_filter_docs", "token_counts", "train_val_test_split",
    "mixed_sample_docs", "packed_sequences", "ann_brute_topk",
    "knn_graph_topk", "latest_capture_per_url", "canonical_capture_dedup",
    "url_filtered_pages", "authority_filtered_pages",
)


def queries() -> dict[str, Callable[[str], Any]]:
    from mobile_ocr_api_ray.pipelines import analysis as a
    from mobile_ocr_api_ray.pipelines import analytics as x
    from mobile_ocr_api_ray.pipelines import recipe as rcp
    from mobile_ocr_api_ray.pipelines import relational as r

    q = {
        # join / window / quantile families (SQL-checked)
        "unshipped_orders_topk": x.unshipped_orders_topk,
        "regional_revenue": x.regional_revenue,
        "nation_revenue_share": x.nation_revenue_share,
        "clicks_last_view": x.clicks_last_view,
        "purchases_after_click": x.purchases_after_click,
        "event_value_stats": x.event_value_stats,
        "quantity_band_stats": x.quantity_band_stats,
        "event_value_quantiles": x.event_value_quantiles,
        "scalable_quantiles": x.scalable_quantiles,
        "distinct_users_hourly": x.distinct_users_hourly,
        "user_event_gaps": x.user_event_gaps,
        "quiet_customers": x.quiet_customers,
        "events_hourly_pivot": x.events_hourly_pivot,
        "lang_source_rollup": x.lang_source_rollup,
        "segment_order_priorities": x.segment_order_priorities,
        "orders_late_items": x.orders_late_items,
        "conversion_funnel": x.conversion_funnel,
        "value_histogram": x.value_histogram,
        "cohort_retention": x.cohort_retention,
        "props_k_stats": x.props_k_stats,
        "hll_distinct_users": x.hll_distinct_users,
        "hll_distinct_users_hourly": x.hll_distinct_users_hourly,
        "users_click_and_purchase": x.users_click_and_purchase,
        "viewers_never_purchased": x.viewers_never_purchased,
        "latest_event_per_user": x.latest_event_per_user,
        "sliding_event_counts": x.sliding_event_counts,
        "event_type_transitions": x.event_type_transitions,
        "user_stickiness_daily": x.user_stickiness_daily,
        "monthly_revenue_growth": x.monthly_revenue_growth,
        "monthly_cumulative_revenue": x.monthly_cumulative_revenue,
        # relational / windowed (SQL-checked)
        "lineitem_pricing": r.lineitem_pricing,
        "top_customers": r.top_customers,
        "nation_order_stats": r.nation_order_stats,
        "part_type_stats": r.part_type_stats,
        "per_lang_doc_stats": r.per_lang_doc_stats,
        "events_hourly": r.events_hourly,
        "sessionize_events": r.sessionize_events,
        "user_moving_avg": r.user_moving_avg,
        "top_events_per_user": r.top_events_per_user,
        # text analysis (SQL-checked)
        "token_counts": a.token_counts_docs,
        "gram_novelty": a.gram_novelty_docs,
        "target_affinity_docs": a.target_affinity_docs,
        "inverted_index_docs": a.inverted_index_docs,
        "c4_clean_docs": a.c4_clean_docs,
        "quality_dedup_kept_doubled": a.quality_dedup_kept_doubled,
        "encoding_qc_docs": a.encoding_qc_docs,
        "badwords_filtered_docs": a.badwords_filtered_docs,
        "unigram_entropy_docs": a.unigram_entropy_docs,
        "readability_docs": a.readability_docs,
        "paragraph_dedup_docs": a.paragraph_dedup_docs,
        "cdc_chunk_dedup_doubled": a.cdc_chunk_dedup_doubled,
        "length_zscore_by_lang": a.length_zscore_by_lang,
        "bpe_pair_counts": a.bpe_pair_counts_docs,
        "bpe_merges": a.bpe_merges_docs,
        "bpe_encoded_docs": a.bpe_encoded_docs,
        "pmi_top_bigrams": a.pmi_top_bigrams,
        "source_unigram_kl": a.source_unigram_kl_docs,
        "source_jsd_matrix": a.source_jsd_matrix_docs,
        "zipf_by_source": a.zipf_by_source,
        "compacted_shards_manifest": a.compacted_shards_manifest,
        "dsir_resampled_docs": a.dsir_resampled_docs,
        "quality_scores": a.quality_docs,
        "compressibility_docs": a.compressibility_docs,
        "quality_filtered": a.quality_filtered,
        "quality_median_filtered": a.quality_median_filtered,
        "label_centroids": a.label_centroids,
        "repetition_stats": a.repetition_stats,
        "packed_sequences": a.packed_sequences,
        "packed_sequence_texts": a.packed_sequence_texts,
        "gopher_quality_flags": a.gopher_quality_flags,
        "unigram_logprob": a.unigram_logprob_docs,
        "bigram_surprisal": a.bigram_surprisal_docs,
        "perplexity_buckets": a.perplexity_buckets_docs,
        "moore_lewis_docs": a.moore_lewis_docs,
        "bm25_top_docs": a.bm25_top_docs,
        "source_overlap_matrix": a.source_overlap_matrix,
        "heavy_hitter_words": a.heavy_hitter_words,
        "incremental_dedup": a.incremental_dedup_docs,
        "near_dedup_incremental": a.near_dedup_incremental_docs,
        "mixed_sample_docs": a.mixed_sample_docs,
        "temperature_mixed_docs": a.temperature_mixed_docs,
        "corpus_datasheet": a.corpus_datasheet,
        "normalize_docs": a.normalize_docs,
        "nfc_docs": a.nfc_docs,
        "chunk_docs": a.chunk_docs,
        "train_val_test_split": a.train_val_test_split,
        "word_freq_top": a.word_freq_top,
        "bigram_freq_top": a.bigram_freq_top,
        "docs_with_embeddings": a.docs_with_embeddings,
        # dedup (SQL-checked where expressible)
        "exact_dedup": a.exact_dedup_docs,
        "exact_dedup_kept": a.exact_dedup_kept,
        "exact_dedup_doubled": a.exact_dedup_doubled,
        "exact_dedup_skew": a.exact_dedup_skew,
        "soft_dedup_weights_doubled": a.soft_dedup_weights_doubled,
        "cms_word_counts": a.cms_word_counts_docs,
        "length_percentile_docs": a.length_percentile_docs,
        "lang_percentile_docs": a.lang_percentile_docs,
        "bow_dedup_docs": a.bow_dedup_docs,
        "fineweb_filter_docs": a.fineweb_filter_docs,
        "script_mix_docs": a.script_mix_docs,
        "embedding_pca_docs": a.embedding_pca_docs,
        "dup_cluster_size_hist": a.dup_cluster_size_hist,
        "fineweb_filter_rates": a.fineweb_filter_rates,
        "lang_ttr_corr": a.lang_ttr_corr,
        "host_quality_blocklist": a.host_quality_blocklist,
        "host_split_pages": a.host_split_pages,
        "redirect_chains": a.redirect_chains,
        "containment_pairs_doubled": a.containment_pairs_doubled,
        "soft_dedup_sampled_docs": a.soft_dedup_sampled_docs,
        "shuffle_order_docs": a.shuffle_order_docs,
        "length_fit_docs": a.length_fit_docs,
        "source_epoch_plan": a.source_epoch_plan,
        "line_dedup_docs": a.line_dedup_docs,
        "sentence_dedup_docs": a.sentence_dedup_docs,
        "exact_substr_dedup_docs": a.exact_substr_dedup_docs,
        "dup_window_stats": a.dup_window_stats_docs,
        "window_dedup_docs": a.window_dedup_docs,
        "cross_corpus_overlap": a.cross_corpus_overlap,
        "ngram_jaccard_adjacent": a.ngram_jaccard_adjacent,
        "sample_docs": a.sample_docs,
        "sample_exact_k_docs": a.sample_exact_k_docs,
        "stratified_sample_docs": a.stratified_sample_docs,
        "per_lang_topk_sample": a.per_lang_topk_sample,
        "scrub_docs": a.scrub_docs,
        "pii_scrub_docs": a.pii_scrub_docs,
        # similarity search (SQL-checked via list_cosine_similarity)
        "ann_brute_topk": a.ann_brute_topk,
        "hard_negatives": a.hard_negatives,
        "embedding_quantized": a.embedding_quantized,
        "ann_quantized_topk": a.ann_quantized_topk,
        "knn_graph_topk": a.knn_graph_topk,
        "mmr_diverse_sample": a.mmr_diverse_sample,
        "image_dhash_dups": a.image_dhash_dups,
        # non-SQL-expressible (rows-only checks)
        "ann_lsh_topk": a.ann_lsh_topk,
        "kmeans_labels": a.kmeans_labels,
        "doc_cluster_labels": a.doc_cluster_labels,
        "nb_source_predictions": a.nb_source_predictions,
        "kwic_snippets": a.kwic_snippets,
        "ann_ivf_topk": a.ann_ivf_topk,
        "ann_recall_eval": a.ann_recall_eval,
        "minhash_pairs_doubled": a.minhash_pairs_doubled,
        "minhash_pairs_md5_doubled": a.minhash_pairs_md5_doubled,
        "minhash_verified_pairs_doubled": a.minhash_verified_pairs_doubled,
        "edit_verified_pairs_doubled": a.edit_verified_pairs_doubled,
        "simhash_docs": a.simhash_docs,
        "simhash_pairs_doubled": a.simhash_pairs_doubled,
        "embedding_pairs_doubled": a.embedding_pairs_doubled,
        "fingerprint_pairs_doubled": a.fingerprint_pairs_doubled,
        "dup_clusters_doubled": a.dup_clusters_doubled,
        "exact_dup_clusters_doubled": a.exact_dup_clusters_doubled,
        "embedding_dup_clusters_doubled": a.embedding_dup_clusters_doubled,
        "vocab_coverage": a.vocab_coverage,
        "length_quartile_docs": a.length_quartile_docs,
        "near_dedup_kept_doubled": a.near_dedup_kept_doubled,
        "embedding_dedup_kept_doubled": a.embedding_dedup_kept_doubled,
        "semdedup_kept_doubled": a.semdedup_kept_doubled,
        "near_dedup_kept_simhash_doubled": a.near_dedup_kept_simhash_doubled,
        "decontaminate_docs": a.decontaminate_docs,
        "bloom_decontaminate_docs": a.bloom_decontaminate_docs,
        "boilerplate_vocab": a.boilerplate_vocab,
        "boilerplate_scrubbed_docs": a.boilerplate_scrubbed_docs,
        "curated_docs": a.curated_docs,
        "langid_docs": a.langid_docs,
        "langid_confusion": a.langid_confusion,
        "fingerprint_docs": a.fingerprint_docs,
        "tfidf_top_terms": a.tfidf_top_terms,
        "summarize_docs": a.summarize_docs,
        "extract_pages": a.extract_pages,
        "extract_pages_dedup": a.extract_pages_dedup,
        "extract_lang_stats": a.extract_lang_stats,
        "extraction_eval": a.extraction_eval,
        "extraction_rejection_report": a.extraction_rejection_report,
        "curation_recipe": rcp.curation_recipe,
        "training_shards_manifest": a.training_shards_manifest,
        "jsonl_export_manifest": a.jsonl_export_manifest,
        # pages / structure / multimodal (rows-only checks)
        "latest_capture_per_url": a.latest_capture_per_url,
        "canonical_capture_dedup": a.canonical_capture_dedup,
        "crawl_diff": a.crawl_diff,
        "crawl_diff_status": a.crawl_diff_status,
        "host_capped_pages": a.host_capped_pages,
        "url_filtered_pages": a.url_filtered_pages,
        "url_features_pages": a.url_features_pages,
        "domain_page_stats": a.domain_page_stats,
        "page_links": a.page_links,
        "host_graph_edges": a.host_graph_edges,
        "host_components": a.host_components,
        "host_hits": a.host_hits,
        "host_pagerank": a.host_pagerank,
        "host_pagerank_int": a.host_pagerank_int,
        "authority_filtered_pages": a.authority_filtered_pages,
        "host_hits_int": a.host_hits_int,
        "page_metadata": a.page_metadata,
        "html_markup_stats": a.html_markup_stats,
        "host_boilerplate_pages": a.host_boilerplate_pages,
        "title_body_pairs": a.title_body_pairs,
        "anchor_text_summary": a.anchor_text_summary,
        "pdf_page_rows": a.pdf_page_rows,
        "doc_structure_stats": a.doc_structure_stats,
        "image_meta": a.image_meta,
        "frame_samples": a.frame_samples,
        "audio_features": a.audio_features,
    }
    # rotate the driver-checked window (queries()[:50]) to _DRIVER_WINDOW;
    # everything else keeps its registration order
    out = {k: q[k] for k in _DRIVER_WINDOW}
    out.update((k, v) for k, v in q.items() if k not in out)
    return out


def _cms_probe_values() -> str:
    """The CMS probe-word set (QUALITY_STOPWORDS) as a SQL VALUES literal
    — built from the same Python list the engine uses, so the two sides
    cannot drift."""
    from mobile_ocr_api_ray.stages.text_analysis import QUALITY_STOPWORDS

    return ", ".join(f"('{w}')" for w in QUALITY_STOPWORDS)


def _ann_query_values() -> str:
    """The fixed query vectors as a SQL VALUES literal (full double repr).

    Dim is derived from the oracle tier's embeddings table (same derivation
    as pipelines.analysis._query_matrix) so the oracle compares the SAME
    query vectors as the engine on any tier, not a hardcoded dim=64."""
    import os

    from mobile_ocr_api_ray.pipelines.reads import embedding_dim
    from mobile_ocr_api_ray.stages.similarity import fixed_queries

    emb_path = os.path.join(
        os.environ.get("GRAFT_SF_DIR", "/root/testdata/sf0.01"),
        "embeddings.parquet")
    try:
        dim = embedding_dim(emb_path)
    except Exception:
        dim = 64
    q = fixed_queries(dim, 4, seed=7)
    rows = []
    for i, vec in enumerate(q):
        lit = ", ".join(repr(float(x)) for x in vec)
        rows.append(f"({i}, [{lit}]::DOUBLE[])")
    return ", ".join(rows)


def _pages_glob() -> "str | None":
    """Glob of the deterministic pages-corpus shards for the oracle tier
    (GRAFT_SF_DIR, default sf0.01 — the driver's correctness tier), built
    on demand. DuckDB reads the same shards the engine queries read, so
    the page-corpus oracles are value-exact end to end. The corpus
    derivation is the ENGINE's own ``_pages_dir_for`` (one definition of
    rows/seed — an oracle reading a different corpus than the queries
    would be worse than no oracle). Returns None when the tier's inputs
    are unavailable — the page-corpus oracles then degrade to rows-only
    instead of poisoning every other oracle."""
    import os

    from mobile_ocr_api_ray.pipelines.analysis import _pages_dir_for

    sf = os.environ.get("GRAFT_SF_DIR", "/root/testdata/sf0.01")
    try:
        return os.path.join(_pages_dir_for(sf), "pages.parquet", "*")
    except Exception:
        return None


# oracle entries that read the pages corpus — dropped (rows-only) when
# _pages_glob() cannot derive it
_PAGE_CORPUS_ORACLES = (
    "url_filtered_pages", "domain_page_stats", "page_metadata",
    "page_links", "host_graph_edges", "anchor_text_summary",
    "latest_capture_per_url", "canonical_capture_dedup",
    "host_capped_pages", "crawl_diff_status", "host_components",
    "host_pagerank_int", "host_hits_int", "authority_filtered_pages",
    "host_quality_blocklist", "host_split_pages")


# url → lowercase host, the crawl.host_of RE2 (stages/crawl.py:29)
_HOST_SQL_RE = r"^[A-Za-z][A-Za-z0-9+.-]*://([^/?#]+)"

# html BLOB → scannable text, total on EVERY payload: DuckDB's blob cast
# escapes rather than decodes (quote → \x22, newline → \x0A — the only
# two sequences the ASCII corpus html produces), so the cast never raises
# on binary payloads the way decode() does (and decode() in a filtered
# CTE still crashed: the optimizer evaluated it pre-filter). Rows are
# gated on the DOCTYPE prefix — the engine decodes everything with
# errors='replace', but binary payloads contain no anchors/title/meta, so
# both sides extract nothing from them (validated value-exact at sf0.001
# and sf0.01).
_HTML_DOC_SQL = ("replace(replace(CAST(html AS VARCHAR), '\\x22', '\"'), "
                 "'\\x0A', chr(10))")
_ANCHOR_SQL_RE = r"""(?is)<a\b[^>]*?\bhref\s*=\s*"([^"]*)"[^>]*>(.*?)</a\s*>"""


def _host_edges_cte(pg: str) -> str:
    """Shared WITH-chain: pages → anchors → host edge rollup, ending at
    ``e AS MATERIALIZED (src_host, dst_host, w)`` — the host_graph_edges
    CTE chain, reused by the unrolled fixed-point link oracles."""
    return rf"""
        WITH p AS (SELECT url, {_HTML_DOC_SQL} AS doc
                   FROM read_parquet('{pg}')
                   WHERE CAST(html AS VARCHAR) LIKE '<!DOCTYPE html>%'),
        l AS (SELECT url AS src_url,
                     unnest(regexp_extract_all(doc, '{_ANCHOR_SQL_RE}', 1)) AS href
              FROM p),
        l2 AS (SELECT src_url, trim(href) AS href FROM l
               WHERE trim(href) <> ''
                 AND (starts_with(trim(href), '/')
                      OR lower(trim(href)) LIKE 'http://%'
                      OR lower(trim(href)) LIKE 'https://%')),
        eh AS (SELECT lower(regexp_extract(src_url, '{_HOST_SQL_RE}', 1)) AS src_host,
                      CASE WHEN lower(href) LIKE 'http://%'
                             OR lower(href) LIKE 'https://%'
                           THEN lower(regexp_extract(href, '{_HOST_SQL_RE}', 1))
                           ELSE lower(regexp_extract(src_url, '{_HOST_SQL_RE}', 1))
                      END AS dst_host
               FROM l2),
        e AS MATERIALIZED (SELECT src_host, dst_host,
                                  CAST(count(*) AS BIGINT) AS w
                           FROM eh GROUP BY 1, 2)"""


def _pagerank_int_sql(pg: str, n_iter: int = 10) -> str:
    """Unrolled fixed-point PageRank oracle (host_pagerank_int): the edge
    rollup is the host_graph_edges CTE chain; each round is one
    MATERIALIZED CTE over the previous round's rank table (plain CTEs get
    INLINED — every round references its predecessor twice, so naive
    unrolling re-expands the whole chain 2^n_iter times and never
    finishes). All arithmetic is BIGINT with DuckDB's truncating ``//``,
    which coincides with the engine's floor ``//`` because every quantity
    is non-negative (stages/linkgraph.pagerank_int recurrence)."""
    scale, num, den = 10 ** 9, 85, 100
    s_lit = f"CAST({scale} AS BIGINT)"
    head = _host_edges_cte(pg) + rf""",
        nodes AS MATERIALIZED (
            SELECT node, CAST(SUM(w) AS BIGINT) AS out_w FROM
              (SELECT src_host AS node, w FROM e
               UNION ALL SELECT dst_host, 0 FROM e) GROUP BY node),
        st AS MATERIALIZED (SELECT CAST(COUNT(*) AS BIGINT) AS n FROM nodes),
        pr0 AS MATERIALIZED (SELECT node, {s_lit} // st.n AS r
                             FROM nodes, st)"""
    rounds = []
    for i in range(1, n_iter + 1):
        rounds.append(f""",
        pr{i} AS MATERIALIZED (
          WITH d AS (SELECT CAST(COALESCE(SUM(p.r), 0) AS BIGINT) AS dm
                     FROM pr{i - 1} p JOIN nodes nd ON nd.node = p.node
                     WHERE nd.out_w = 0),
               i AS (SELECT e.dst_host AS node,
                            CAST(SUM((p.r * e.w) // nd.out_w) AS BIGINT) AS s
                     FROM e JOIN pr{i - 1} p ON p.node = e.src_host
                          JOIN nodes nd ON nd.node = e.src_host
                     GROUP BY e.dst_host)
          SELECT nd.node,
                 ((CAST({den - num} AS BIGINT) * {s_lit}) // ({den} * st.n))
                 + ((CAST({num} AS BIGINT) * d.dm) // ({den} * st.n))
                 + ((CAST({num} AS BIGINT) * COALESCE(i.s, 0)) // {den}) AS r
          FROM nodes nd CROSS JOIN st CROSS JOIN d
          LEFT JOIN i ON i.node = nd.node)""")
    return (head + "".join(rounds)
            + f"\n        SELECT node, r AS pr_int FROM pr{n_iter}"
              " ORDER BY node")


def _authority_filtered_sql(pg: str, k: int = 16, n_iter: int = 10) -> str:
    """Generated oracle for authority_filtered_pages: the full
    host_pagerank_int chain, its top-k hosts by (pr_int DESC, node ASC),
    then EVERY crawled page whose url-host is one of them (the
    host_capped_pages host rule) decorated with the host's rank — graph
    metric feeding corpus curation, end to end in one SQL statement."""
    pr = _pagerank_int_sql(pg, n_iter)
    i = pr.rindex("\n        SELECT node, r AS pr_int")
    return (pr[:i] + rf""",
        ph AS (SELECT url,
                      lower(regexp_extract(url, '{_HOST_SQL_RE}', 1)) AS host
               FROM read_parquet('{pg}')),
        crawled AS (SELECT DISTINCT host FROM ph WHERE host IS NOT NULL),
        topk AS (SELECT p.node, p.r AS pr_int
                 FROM pr{n_iter} p JOIN crawled c ON c.host = p.node
                 ORDER BY p.r DESC, p.node LIMIT {k})
        SELECT ph.url, ph.host, t.pr_int
        FROM ph JOIN topk t ON t.node = ph.host
        ORDER BY ph.url""")


def _hits_int_sql(pg: str, n_iter: int = 10) -> str:
    """Unrolled fixed-point HITS oracle (host_hits_int): same MATERIALIZED
    per-round CTE convention as _pagerank_int_sql. Each round is two
    half-steps — auth(v) = floor-normalized Σ_{u→v} w·hub(u), then
    hub(u) = floor-normalized Σ_{u→v} w·auth(v) — all BIGINT; DuckDB's
    truncating ``//`` coincides with the engine's floor ``//`` because
    every quantity is non-negative (stages/linkgraph.hits_int)."""
    from mobile_ocr_api_ray.stages.linkgraph import HITS_INT_SCALE
    s_lit = f"CAST({HITS_INT_SCALE} AS BIGINT)"
    head = _host_edges_cte(pg) + rf""",
        nodes AS MATERIALIZED (
            SELECT DISTINCT node FROM
              (SELECT src_host AS node FROM e
               UNION ALL SELECT dst_host FROM e)),
        st AS MATERIALIZED (SELECT CAST(COUNT(*) AS BIGINT) AS n FROM nodes),
        h0 AS MATERIALIZED (SELECT node, {s_lit} // st.n AS v
                            FROM nodes, st)"""
    half = """,
        {out} AS MATERIALIZED (
          WITH raw AS (SELECT nd.node,
                              CAST(COALESCE(SUM(e.w * s.v), 0) AS BIGINT) AS raw
                       FROM nodes nd
                       LEFT JOIN e ON e.{out_side} = nd.node
                       LEFT JOIN {src} s ON s.node = e.{join_side}
                       GROUP BY nd.node),
               t AS (SELECT CAST(SUM(raw) AS BIGINT) AS tot FROM raw)
          SELECT raw.node,
                 CASE WHEN t.tot > 0 THEN (raw.raw * {s}) // t.tot
                      ELSE raw.raw END AS v
          FROM raw CROSS JOIN t)"""
    rounds = []
    for i in range(1, n_iter + 1):
        rounds.append(half.format(out=f"a{i}", src=f"h{i - 1}",
                                  out_side="dst_host",
                                  join_side="src_host", s=s_lit))
        rounds.append(half.format(out=f"h{i}", src=f"a{i}",
                                  out_side="src_host",
                                  join_side="dst_host", s=s_lit))
    return (head + "".join(rounds)
            + f"""
        SELECT h.node, h.v AS hub_int, a.v AS auth_int
        FROM h{n_iter} h JOIN a{n_iter} a ON a.node = h.node
        ORDER BY h.node""")


_MINHASH_DD_DOUBLED = """SELECT doc_id, text FROM documents
                    UNION ALL
                    SELECT doc_id + 1000000, text FROM documents"""


def _minhash_md5_sql(dd_sql: str = _MINHASH_DD_DOUBLED,
                     final_sql: "str | None" = None) -> str:
    """Generated oracle for minhash_pairs_md5_doubled: the FULL MinHash
    LSH pipeline in SQL — md5-hash32 shingles (the target_affinity bucket
    rule), 16 affine permutations mod 2^31-1 as MIN aggregates (every
    product < 2^62, plain BIGINT — no modular wrap), 8×2 banding as a
    band-row self-join on the literal component pairs, and est_jaccard =
    eq_count/16.0 (a dyadic rational, bit-exact on both sides). The gram
    rule (3-grams, short docs collapse to one joined gram, empties emit
    nothing) is the ngram_jaccard_adjacent CTE.

    ``dd_sql`` is the corpus-construction CTE body (doc_id, text);
    ``final_sql`` optionally replaces the closing SELECT (downstream of
    the ``eq`` candidate CTE) so verify-stage oracles can join texts
    back onto the candidate set."""
    from mobile_ocr_api_ray.stages.dedup import (MD5MH_A, MD5MH_B,
                                                 MD5MH_BANDS, MD5MH_PERM,
                                                 P31)
    mins = ",\n                   ".join(
        f"MIN((CAST({a} AS BIGINT) * x + {b}) % {P31}) AS s{i}"
        for i, (a, b) in enumerate(zip(MD5MH_A, MD5MH_B)))
    bands = "\n                 UNION ALL ".join(
        f"SELECT doc_id, {j} AS band, s{2 * j} AS h1, s{2 * j + 1} AS h2 "
        "FROM sig" for j in range(MD5MH_BANDS))
    eq = " + ".join(f"(CASE WHEN sa.s{i} = sb.s{i} THEN 1 ELSE 0 END)"
                    for i in range(MD5MH_PERM))
    return rf"""
        WITH dd AS ({dd_sql}),
        words AS (SELECT doc_id,
                         list_filter(regexp_split_to_array(
                             lower(coalesce(text, '')), '\s+'),
                                     x -> x <> '') AS w FROM dd),
        -- 3-gram shingles built LINEARLY (zip-unnest + lead window): the
        -- list-slice comprehension form is O(words²) per doc in DuckDB
        -- and OOMs on long documents; the gram SET is identical, and MIN
        -- aggregation is duplicate-insensitive, so signatures match
        tok AS (SELECT doc_id, unnest(w) AS word,
                       unnest(range(1, len(w) + 1)) AS i
                FROM words WHERE len(w) >= 3),
        sh3 AS (SELECT doc_id,
                       word || ' '
                            || lead(word, 1) OVER (PARTITION BY doc_id
                                                   ORDER BY i)
                            || ' '
                            || lead(word, 2) OVER (PARTITION BY doc_id
                                                   ORDER BY i) AS gram
                FROM tok),
        sh AS (SELECT doc_id, gram FROM sh3 WHERE gram IS NOT NULL
               UNION ALL
               SELECT doc_id, array_to_string(w, ' ') AS gram
               FROM words WHERE len(w) > 0 AND len(w) < 3),
        x AS (SELECT doc_id,
                     CAST(CAST(('0x' || substring(md5(gram), 1, 8)) AS UBIGINT)
                          % {P31} AS BIGINT) AS x FROM sh),
        sig AS MATERIALIZED (SELECT doc_id, {mins} FROM x GROUP BY doc_id),
        bands AS MATERIALIZED ({bands}),
        cand AS (SELECT DISTINCT a.doc_id AS id_a, b.doc_id AS id_b
                 FROM bands a JOIN bands b
                   ON a.band = b.band AND a.h1 = b.h1 AND a.h2 = b.h2
                  AND a.doc_id < b.doc_id),
        eq AS MATERIALIZED (SELECT c.id_a, c.id_b, ({eq}) AS k
               FROM cand c JOIN sig sa ON sa.doc_id = c.id_a
                    JOIN sig sb ON sb.doc_id = c.id_b)
        """ + (final_sql or rf"""
        SELECT id_a, id_b, CAST(k AS DOUBLE) / {MD5MH_PERM}.0 AS est_jaccard
        FROM eq WHERE CAST(k AS DOUBLE) / {MD5MH_PERM}.0 >= 0.5
        ORDER BY id_a, id_b""")


def _gopher_flags_sql(src: str = "documents") -> str:
    """The Gopher-ruleset oracle (per-doc flags + composite keep) over any
    source relation with (doc_id, text) — the ONE SQL definition of the
    ruleset, used verbatim by the standalone ``gopher_quality_flags``
    entry (src='documents') and by the curation_recipe composed oracle
    (src = the C4-kept CTE). Repetition CTEs shared with
    repetition_stats; the distinct-stopword CASE sum is generated from
    the same QUALITY_STOPWORDS list the engine loops over; exact-int
    ratio divisions make every float threshold compare agree."""
    return rf"""
            WITH toks AS (
              SELECT doc_id, coalesce(text, '') AS t,
                     list_filter(regexp_split_to_array(coalesce(text, ''),
                                 '\s+'), x -> x <> '') AS w,
                     ({_stop_case_sum()}) AS n_stop
              FROM {src}),
            base AS (
              SELECT doc_id, w, n_stop, len(w) AS n_words,
                     length(t) - length(regexp_extract_all(t, '\s'))
                         AS nw_chars
              FROM toks),
            -- bigrams built LINEARLY (zip-unnest + lead window); the
            -- indexed list comprehension is O(words²) per doc in DuckDB
            -- and explodes on long documents
            t2 AS (
              SELECT doc_id, unnest(w) AS word,
                     unnest(range(1, len(w) + 1)) AS i
              FROM toks),
            bi AS (
              SELECT doc_id,
                     word || ' ' || lead(word, 1) OVER (
                       PARTITION BY doc_id ORDER BY i) AS bg
              FROM t2),
            big AS (
              SELECT doc_id, count(bg) AS n_g2,
                     count(DISTINCT bg) AS dis_g2
              FROM bi WHERE bg IS NOT NULL GROUP BY doc_id),
            tw AS (
              SELECT doc_id, max(c) AS top_c FROM (
                SELECT doc_id, count(*) AS c
                FROM (SELECT doc_id, unnest(w) AS word FROM toks)
                GROUP BY doc_id, word)
              GROUP BY doc_id),
            m AS (
              SELECT b.doc_id, cast(b.n_words AS BIGINT) AS n_words,
                     cast(b.nw_chars AS DOUBLE)
                         / greatest(cast(b.n_words AS DOUBLE), 1.0)
                         AS mean_word_len,
                     cast(b.n_stop AS BIGINT) AS n_stop_distinct,
                     cast(coalesce(tw.top_c, 0) AS DOUBLE)
                         / greatest(cast(b.n_words AS DOUBLE), 1.0)
                         AS top_word_frac,
                     cast(coalesce(bg.n_g2, 0) - coalesce(bg.dis_g2, 0)
                          AS DOUBLE)
                         / greatest(cast(coalesce(bg.n_g2, 0) AS DOUBLE),
                                    1.0)
                         AS dup_2gram_frac
              FROM base b LEFT JOIN tw ON b.doc_id = tw.doc_id
                          LEFT JOIN big bg ON b.doc_id = bg.doc_id)
            SELECT doc_id, n_words, mean_word_len, n_stop_distinct,
                   top_word_frac, dup_2gram_frac,
                   n_words BETWEEN 25 AND 500 AS flag_word_count,
                   mean_word_len >= 4.0 AND mean_word_len <= 10.0
                       AS flag_mean_word_len,
                   n_stop_distinct >= 2 AS flag_stopwords,
                   top_word_frac <= 0.12 AS flag_top_word,
                   dup_2gram_frac <= 0.06 AS flag_dup_2gram,
                   n_words BETWEEN 25 AND 500
                     AND mean_word_len >= 4.0 AND mean_word_len <= 10.0
                     AND n_stop_distinct >= 2
                     AND top_word_frac <= 0.12
                     AND dup_2gram_frac <= 0.06 AS keep
            FROM m ORDER BY doc_id"""


# the url_filter blocklist as SQL: one regexp_matches per pattern of
# crawl.DEFAULT_URL_BLOCK_PATTERNS, in the engine's rule order (the
# patterns hold no quote, so each embeds verbatim in a SQL literal)
_URL_BLOCK_RULES = [f"regexp_matches(url, '{p}')"
                    for p in DEFAULT_URL_BLOCK_PATTERNS]
_URL_BLOCK_SQL = " OR ".join(_URL_BLOCK_RULES)
# first matching rule's index, -1 when none matches (url_filter's rule_idx)
_URL_RULE_IDX_SQL = ("CASE " + " ".join(f"WHEN {r} THEN {i}"
                                       for i, r in enumerate(_URL_BLOCK_RULES))
                     + " ELSE -1 END")

# recipe doc id: first 15 hex of md5(url) — 60-bit, int64-safe
_RECIPE_DID_SQL = ("cast(cast(('0x' || substring(md5(url), 1, 15)) "
                   "AS UBIGINT) AS BIGINT)")


def _curation_recipe_sql(golden_path: str) -> str:
    """Composed oracle for the full curation_recipe chain. Extraction is
    resolved through the generation-time GOLDEN table (url →
    byte-identical extracted text for payload kinds html/pdf — the north
    rule's pinned ground truth), then every downstream stage runs in SQL:
    url blocklist → golden lookup/payload gate → window-min exact dedup →
    the full MinHash LSH pipeline (_minhash_md5_sql) with the keep-first
    drop-larger policy → C4 line rules → Gopher ruleset
    (_gopher_flags_sql) → host-hash split → window-sum pack plan →
    md5 shard content digests. Output = the 15-row lineage manifest."""
    from mobile_ocr_api_ray.pipelines.recipe import (RECIPE_BUDGET,
                                                     RECIPE_SHARDS,
                                                     RECIPE_THRESHOLD)
    from mobile_ocr_api_ray.stages.dedup import MD5MH_PERM

    g = f"read_parquet('{golden_path}')"
    dd_sql = (
        f"SELECT {_RECIPE_DID_SQL} AS doc_id,\n"
        "                           coalesce(golden_text, '') AS text\n"
        f"                    FROM {g}\n"
        f"                    WHERE NOT ({_URL_BLOCK_SQL})\n"
        "                      AND payload_kind IN ('html', 'pdf')")
    gopher = _gopher_flags_sql(
        "(SELECT doc_id, clean_text AS text FROM a3)")
    final_sql = (
        f"""
        , rejects AS MATERIALIZED (SELECT DISTINCT id_b AS doc_id FROM eq
                      WHERE CAST(k AS DOUBLE) / {MD5MH_PERM}.0
                            >= {RECIPE_THRESHOLD}),
        g0 AS MATERIALIZED (SELECT {_RECIPE_DID_SQL} AS doc_id,
                      coalesce(golden_text, '') AS t, url
               FROM {g}
               WHERE NOT ({_URL_BLOCK_SQL})
                 AND payload_kind IN ('html', 'pdf')),
        ex AS MATERIALIZED (SELECT doc_id, t, url,
                      doc_id = min(doc_id) OVER (PARTITION BY md5(t))
                          AS exact_rep
               FROM g0),
        a2 AS MATERIALIZED (SELECT e.doc_id, e.t, e.url FROM ex e
               WHERE e.exact_rep
                 AND e.doc_id NOT IN (SELECT doc_id FROM rejects)),
        c4b AS (SELECT doc_id, t, url,
                       list_filter(
                         list_transform(string_split(t, chr(10)),
                           x -> trim(x, ' ' || chr(9) || chr(13)
                                     || chr(12) || chr(11))),
                         l -> regexp_matches(l, '[.!?"]$')"""
        + r"""
                              AND length(regexp_extract_all(l, '\S+')) >= 5
                              AND NOT regexp_matches(lower(l),
                                                     '\bjavascript\b'))
                           AS kept
                FROM a2),
        a3 AS MATERIALIZED (SELECT doc_id, url,
                      array_to_string(kept, chr(10)) AS clean_text
               FROM c4b
               WHERE NOT contains(lower(t), 'lorem ipsum')
                 AND NOT contains(t, '{') AND len(kept) >= 3),
        gph AS MATERIALIZED (SELECT doc_id, n_words, keep FROM ("""
        + gopher + """)),
        a4 AS MATERIALIZED (SELECT a3.doc_id, a3.url, a3.clean_text, gph.n_words
               FROM a3 JOIN gph ON gph.doc_id = a3.doc_id
               WHERE gph.keep),
        sp AS MATERIALIZED (SELECT doc_id, url, clean_text, n_words,
                      CASE WHEN h < cast(4294967296 * 90 // 100 AS UBIGINT)
                             THEN 'train'
                           WHEN h < cast(4294967296 * 95 // 100 AS UBIGINT)
                             THEN 'val'
                           ELSE 'test' END AS split
               FROM (SELECT *,
                            cast(('0x' || substring(md5(
                                coalesce(lower(regexp_extract(url,
                                  '^[A-Za-z][A-Za-z0-9+.-]*://([^/?#]+)',
                                  1)), '')), 1, 8)) AS UBIGINT) AS h
                     FROM a4)),
        tr AS MATERIALIZED (SELECT doc_id, clean_text,
                      cast(n_words AS BIGINT) AS n_tokens
               FROM sp WHERE split = 'train'),"""
        + f"""
        o AS (SELECT doc_id, clean_text,
                     cast(coalesce(sum(n_tokens) OVER (
                          ORDER BY doc_id ROWS BETWEEN UNBOUNDED PRECEDING
                          AND 1 PRECEDING), 0) AS BIGINT) AS start_offset
              FROM tr),
        shd AS (SELECT (start_offset // {RECIPE_BUDGET}) % {RECIPE_SHARDS}
                          AS shard_id,
                      doc_id, clean_text
               FROM o),
        shagg AS (SELECT shard_id, cast(count(*) AS BIGINT) AS n,
                         md5(string_agg(cast(doc_id AS VARCHAR) || ':'
                                        || md5(clean_text),
                                        '|' ORDER BY doc_id)) AS digest
                  FROM shd GROUP BY shard_id),
        cnt AS (SELECT
            (SELECT count(*) FROM {g}) AS n_pages,
            (SELECT count(*) FROM {g}
             WHERE NOT ({_URL_BLOCK_SQL})) AS k0,
            (SELECT count(*) FROM g0) AS kp,
            (SELECT count(*) FROM ex WHERE exact_rep) AS k1,
            (SELECT count(*) FROM a2) AS k2,
            (SELECT count(*) FROM a3) AS k3,
            (SELECT count(*) FROM a4) AS k4,
            (SELECT count(*) FROM tr) AS ntr)
        SELECT * FROM (
          SELECT cast(0 AS BIGINT) AS stage_idx, 'read_pages' AS stage,
                 n_pages AS rows_in, n_pages AS rows_out,
                 cast(0 AS BIGINT) AS text_exchanges, '' AS digest
          FROM cnt
          UNION ALL SELECT 1, 'url_filter', n_pages, k0, 0, '' FROM cnt
          UNION ALL SELECT 2, 'extract_checkpoint', k0, k0, 0, '' FROM cnt
          UNION ALL SELECT 3, 'payload_gate', k0, kp, 0, '' FROM cnt
          UNION ALL SELECT 4, 'exact_dedup', kp, k1, 0, '' FROM cnt
          UNION ALL SELECT 5, 'near_dedup', k1, k2, 0, '' FROM cnt
          UNION ALL SELECT 6, 'c4_gate', k2, k3, 0, '' FROM cnt
          UNION ALL SELECT 7, 'gopher_gate', k3, k4, 0, '' FROM cnt
          UNION ALL SELECT 8, 'host_split', k4, k4, 0, '' FROM cnt
          UNION ALL SELECT 9, 'pack_plan', ntr, ntr, 0, '' FROM cnt
          UNION ALL SELECT 10, 'export', ntr, ntr,
                           CASE WHEN ntr > 0 THEN 1 ELSE 0 END, '' FROM cnt
          UNION ALL SELECT 11 + shard_id,
                           'export_shard_' || cast(shard_id AS VARCHAR),
                           n, n, 0, digest
          FROM shagg
        ) ORDER BY stage_idx""")
    return _minhash_md5_sql(dd_sql=dd_sql, final_sql=final_sql)


def _edit_verified_sql() -> str:
    """Generated oracle for edit_verified_pairs_doubled: the md5 MinHash
    candidate chain over the MUTATED doubled corpus (each twin drops its
    first doc_id %% 7 characters), then exact ``levenshtein()`` (byte
    semantics — levenshtein_bytes parity), edit_sim as the single exact-
    int division over octet lengths, is_near as the same double compared
    to 0.9 (identical expression order on both sides)."""
    from mobile_ocr_api_ray.stages.dedup import MD5MH_PERM
    dd = """SELECT doc_id, coalesce(text, '') AS text FROM documents
                    UNION ALL
                    SELECT doc_id + 1000000,
                           substring(coalesce(text, ''), (doc_id % 7) + 1)
                    FROM documents"""
    final = rf"""
        , v AS (SELECT e.id_a, e.id_b,
                       CAST(e.k AS DOUBLE) / {MD5MH_PERM}.0 AS est_jaccard,
                       CAST(levenshtein(ta.text, tb.text) AS BIGINT)
                         AS edit_dist,
                       CASE WHEN greatest(strlen(ta.text),
                                          strlen(tb.text)) = 0
                            THEN 1.0
                            ELSE 1.0
                              - CAST(levenshtein(ta.text, tb.text) AS DOUBLE)
                              / CAST(greatest(strlen(ta.text),
                                              strlen(tb.text))
                                     AS DOUBLE)
                       END AS edit_sim
                FROM eq e JOIN dd ta ON ta.doc_id = e.id_a
                          JOIN dd tb ON tb.doc_id = e.id_b)
        SELECT id_a, id_b, est_jaccard, edit_dist, edit_sim,
               edit_sim >= 0.9 AS is_near
        FROM v WHERE est_jaccard >= 0.5
        ORDER BY id_a, id_b"""
    return _minhash_md5_sql(dd_sql=dd, final_sql=final)


def _bigram_scored_sql() -> str:
    """Shared WITH-chain for the class-bigram LM oracles
    (bigram_surprisal, perplexity_buckets): tokens -> top-100 vocab
    classes -> add-one-smoothed micro-nat surprisal rows ``q(doc_id,
    q)`` (see pipelines/analysis._bigram_surprisal)."""
    return r'''
            WITH toks AS (
              SELECT doc_id,
                     regexp_extract_all(lower(coalesce(text, '')),
                                        '\w+') AS w
              FROM documents),
            uni AS (SELECT word, count(*) AS n
                    FROM (SELECT unnest(w) AS word FROM toks) GROUP BY 1),
            vocab AS (SELECT word FROM uni ORDER BY n DESC, word LIMIT 100),
            vsz AS (SELECT cast(count(*) + 1 AS BIGINT) AS v FROM vocab),
            big AS (SELECT doc_id, b[1] AS w1, b[2] AS w2
                    FROM (SELECT doc_id,
                                 unnest([[w[i], w[i+1]]
                                         FOR i IN range(1, len(w))]) AS b
                          FROM toks)),
            bigc AS (SELECT doc_id,
                            CASE WHEN v1.word IS NULL THEN '#oov'
                                 ELSE big.w1 END AS c1,
                            CASE WHEN v2.word IS NULL THEN '#oov'
                                 ELSE big.w2 END AS c2
                     FROM big LEFT JOIN vocab v1 ON v1.word = big.w1
                              LEFT JOIN vocab v2 ON v2.word = big.w2),
            cnt AS (SELECT c1, c2, cast(count(*) AS BIGINT) AS n
                    FROM bigc GROUP BY 1, 2),
            firstc AS (SELECT c1, cast(sum(n) AS BIGINT) AS nf
                       FROM cnt GROUP BY 1),
            q AS (SELECT bigc.doc_id,
                         cast(floor(-ln(cast(cnt.n + 1 AS DOUBLE)
                                        / cast(firstc.nf
                                               + (SELECT v FROM vsz)
                                               AS DOUBLE))
                                    * 1000000) AS BIGINT) AS q
                  FROM bigc JOIN cnt USING (c1, c2)
                            JOIN firstc USING (c1))'''


def _bigram_model_q_sql(p: str, fit_where: str) -> str:
    """One class-bigram LM as CTE fragments under prefix ``p``: fit on
    ``documents WHERE fit_where``, score EVERY doc's bigrams (expects a
    shared ``sbig(doc_id, w1, w2)`` CTE upstream). The unified
    coalesce(n,0)+1 / coalesce(nf,0)+V surprisal covers seen pairs,
    unseen-after-seen-first and cold firsts with one expression — the
    same three-tier fallback pipelines/analysis._bigram_fit encodes as
    q_pair / q_unseen / q_cold (micro-nat floor, libm ln)."""
    return rf'''
            {p}toks AS (SELECT regexp_extract_all(lower(coalesce(text, '')),
                                                  '\w+') AS w
                        FROM documents WHERE {fit_where}),
            {p}uni AS (SELECT word, count(*) AS n
                       FROM (SELECT unnest(w) AS word FROM {p}toks)
                       GROUP BY 1),
            {p}vocab AS (SELECT word FROM {p}uni
                         ORDER BY n DESC, word LIMIT 100),
            {p}vsz AS (SELECT cast(count(*) + 1 AS BIGINT) AS v
                       FROM {p}vocab),
            {p}fcls AS (SELECT CASE WHEN v1.word IS NULL THEN '#oov'
                                    ELSE fb.w1 END AS c1,
                               CASE WHEN v2.word IS NULL THEN '#oov'
                                    ELSE fb.w2 END AS c2
                        FROM (SELECT b[1] AS w1, b[2] AS w2
                              FROM (SELECT unnest([[w[i], w[i+1]]
                                           FOR i IN range(1, len(w))]) AS b
                                    FROM {p}toks)) fb
                        LEFT JOIN {p}vocab v1 ON v1.word = fb.w1
                        LEFT JOIN {p}vocab v2 ON v2.word = fb.w2),
            {p}cnt AS (SELECT c1, c2, cast(count(*) AS BIGINT) AS n
                       FROM {p}fcls GROUP BY 1, 2),
            {p}first AS (SELECT c1, cast(sum(n) AS BIGINT) AS nf
                         FROM {p}cnt GROUP BY 1),
            {p}q AS (SELECT sc.doc_id,
                            cast(floor(-ln(
                                cast(coalesce(c.n, 0) + 1 AS DOUBLE)
                                / cast(coalesce(f.nf, 0)
                                       + (SELECT v FROM {p}vsz) AS DOUBLE))
                                * 1000000) AS BIGINT) AS q
                     FROM (SELECT sbig.doc_id,
                                  CASE WHEN v1.word IS NULL THEN '#oov'
                                       ELSE sbig.w1 END AS c1,
                                  CASE WHEN v2.word IS NULL THEN '#oov'
                                       ELSE sbig.w2 END AS c2
                           FROM sbig
                           LEFT JOIN {p}vocab v1 ON v1.word = sbig.w1
                           LEFT JOIN {p}vocab v2 ON v2.word = sbig.w2) sc
                     LEFT JOIN {p}cnt c ON c.c1 = sc.c1 AND c.c2 = sc.c2
                     LEFT JOIN {p}first f ON f.c1 = sc.c1)'''


def _stop_case_sum() -> str:
    """Distinct-stopword presence count as a sum of per-word regex CASEs —
    the same one-RE2-pass-per-stopword rule as stages.text_analysis
    .gopher_flags (token set membership would differ on punctuation-glued
    words; the \\b regex agrees on both sides)."""
    return " + ".join(
        rf"CASE WHEN regexp_matches(lower(coalesce(text, '')), '\b{w}\b') "
        "THEN 1 ELSE 0 END"
        for w in QUALITY_STOPWORDS)


def oracle_sql() -> dict[str, str]:
    alt = _alt_regex(QUALITY_STOPWORDS)
    alt_eng = _alt_regex(LANG_PROFILES["eng"])
    alt_ind = _alt_regex(LANG_PROFILES["ind"])
    pg = _pages_glob()
    out = {
        # language-ID heuristic: profile hit counts via the same RE2 engine
        # on both sides; argmax order is irrelevant because ties → 'und'
        "langid_docs": rf"""
            WITH c AS (
              SELECT doc_id,
                     length(regexp_extract_all(lower(coalesce(text, '')), '{alt_eng}')) AS c_eng,
                     length(regexp_extract_all(lower(coalesce(text, '')), '{alt_ind}')) AS c_ind
              FROM documents)
            SELECT doc_id,
                   CASE WHEN greatest(c_eng, c_ind) = 0 OR c_eng = c_ind THEN 'und'
                        WHEN c_eng > c_ind THEN 'eng' ELSE 'ind' END AS lang_pred,
                   cast(greatest(c_eng, c_ind) AS BIGINT) AS lang_evidence
            FROM c ORDER BY doc_id""",
        # confusion matrix over the same langid expression
        "langid_confusion": rf"""
            WITH c AS (
              SELECT doc_id, coalesce(lang, '') AS lang,
                     length(regexp_extract_all(lower(coalesce(text, '')), '{alt_eng}')) AS c_eng,
                     length(regexp_extract_all(lower(coalesce(text, '')), '{alt_ind}')) AS c_ind
              FROM documents),
            p AS (SELECT lang,
                         CASE WHEN greatest(c_eng, c_ind) = 0
                                   OR c_eng = c_ind THEN 'und'
                              WHEN c_eng > c_ind THEN 'eng'
                              ELSE 'ind' END AS lang_pred
                  FROM c)
            SELECT lang, lang_pred, cast(count(*) AS BIGINT) AS n
            FROM p GROUP BY 1, 2 ORDER BY 1, 2""",
        # doubled-corpus embedding near-dups: the only pairs with cosine ≥
        # 0.999999 among gaussian vectors are the exact clones → list equality
        "embedding_pairs_doubled": r"""
            WITH d AS (SELECT vec_id, embedding FROM embeddings
                       UNION ALL SELECT vec_id + 1000000, embedding FROM embeddings)
            SELECT a.vec_id AS id_a, b.vec_id AS id_b
            FROM d a JOIN d b ON a.vec_id < b.vec_id AND a.embedding = b.embedding
            ORDER BY 1, 2""",
        "lineitem_pricing": r"""
            SELECT l_returnflag, l_linestatus,
                   sum(cast(round(l_quantity*100, 0) AS BIGINT))/100.0 AS sum_qty,
                   sum(cast(round(l_extendedprice*100, 0) AS BIGINT))/100.0 AS sum_base_price,
                   sum(cast(round(l_extendedprice*(1.0 - l_discount)*10000, 0) AS BIGINT))/10000.0 AS sum_disc_price,
                   count(*) AS n_rows,
                   sum(cast(round(l_quantity*100, 0) AS BIGINT))/(count(*)*100.0) AS avg_qty
            FROM lineitem GROUP BY 1, 2 ORDER BY 1, 2""",
        "top_customers": r"""
            SELECT o.o_custkey AS c_custkey, c.c_name,
                   sum(cast(round(o.o_totalprice*100, 0) AS BIGINT))/100.0 AS revenue,
                   count(*) AS n_orders
            FROM orders o JOIN customer c ON o.o_custkey = c.c_custkey
            GROUP BY 1, 2 ORDER BY revenue DESC, c_custkey LIMIT 10""",
        "nation_order_stats": r"""
            SELECT n.n_name, count(*) AS n_orders,
                   sum(cast(round(o.o_totalprice*100, 0) AS BIGINT))/100.0 AS revenue
            FROM orders o
            JOIN customer c ON o.o_custkey = c.c_custkey
            JOIN nation n ON c.c_nationkey = n.n_nationkey
            GROUP BY 1 ORDER BY 1""",
        "part_type_stats": r"""
            SELECT p_type, count(*) AS n_parts,
                   sum(cast(round(p_retailprice*100, 0) AS BIGINT))/(count(*)*100.0) AS avg_retail
            FROM part GROUP BY 1 ORDER BY 1""",
        "per_lang_doc_stats": r"""
            SELECT lang, count(*) AS n_docs,
                   cast(sum(n_chars) AS BIGINT) AS total_chars,
                   sum(n_chars)/(count(*)*1.0) AS avg_chars
            FROM documents GROUP BY 1 ORDER BY 1""",
        "events_hourly": r"""
            SELECT date_trunc('hour', ts) AS hour, event_type,
                   count(*) AS n_events,
                   sum(cast(round(value*100, 0) AS BIGINT))/100.0 AS sum_value
            FROM events GROUP BY 1, 2 ORDER BY 1, 2""",
        "sessionize_events": r"""
            WITH o AS (
              SELECT user_id, event_id, ts, value,
                     CASE WHEN lag(ts) OVER (PARTITION BY user_id ORDER BY ts, event_id) IS NULL
                            OR ts - lag(ts) OVER (PARTITION BY user_id ORDER BY ts, event_id) > INTERVAL '30' MINUTE
                          THEN 1 ELSE 0 END AS is_new
              FROM events),
            s AS (
              SELECT *, cast(sum(is_new) OVER (PARTITION BY user_id ORDER BY ts, event_id
                                               ROWS UNBOUNDED PRECEDING) AS BIGINT) AS session_id
              FROM o)
            SELECT user_id, session_id, count(*) AS n_events,
                   min(ts) AS start_ts, max(ts) AS end_ts,
                   sum(cast(round(value*100, 0) AS BIGINT))/100.0 AS sum_value
            FROM s GROUP BY 1, 2 ORDER BY 1, 2""",
        # windowed rank: top-3 per user by (value desc, event_id); raw
        # doubles pass through untouched on both sides
        "top_events_per_user": r"""
            SELECT user_id, rnk, event_id, value FROM (
              SELECT user_id, event_id, value,
                     row_number() OVER (PARTITION BY user_id
                                        ORDER BY value DESC, event_id) AS rnk
              FROM events)
            WHERE rnk <= 3 ORDER BY user_id, rnk""",
        # sliding-window frame avg, integer-cent numerator on both sides
        "user_moving_avg": r"""
            SELECT user_id, event_id, ts,
                   sum(cast(round(value*100, 0) AS BIGINT)) OVER w
                     / (count(*) OVER w * 100.0) AS avg_value
            FROM events
            WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id
                         ROWS BETWEEN 2 PRECEDING AND CURRENT ROW)
            ORDER BY user_id, ts, event_id""",
        # per-doc distinct-3-gram count + corpus-novel grams (df == 1):
        # identical gram strings on both sides (ngram_set convention —
        # lowercase whitespace words, " "-joined; < 3 words -> one gram)
        "gram_novelty": r"""
            WITH words AS (
              SELECT doc_id,
                     list_filter(regexp_split_to_array(
                         lower(coalesce(text, '')), '\s+'),
                                 x -> x <> '') AS w
              FROM documents),
            grams AS (
              SELECT doc_id,
                     CASE WHEN len(w) = 0 THEN []::VARCHAR[]
                          WHEN len(w) < 3 THEN [array_to_string(w, ' ')]
                          ELSE list_distinct([array_to_string(w[i:i+2], ' ')
                                              FOR i IN range(1, len(w) - 1)])
                     END AS g
              FROM words),
            ex AS MATERIALIZED (SELECT doc_id, unnest(g) AS gram FROM grams),
            dfr AS (SELECT gram, count(*) AS df FROM ex GROUP BY 1)
            SELECT e.doc_id, cast(count(*) AS BIGINT) AS n_grams,
                   cast(sum(CASE WHEN dfr.df = 1 THEN 1 ELSE 0 END)
                        AS BIGINT) AS n_novel
            FROM ex e JOIN dfr USING (gram)
            GROUP BY 1 ORDER BY 1""",
        # DSIR-style target affinity: the md5-hash32 bucket rule is the
        # samplers' SQL convention; masses are exact int sums over token
        # occurrences, affinity one float division (order-defined)
        "target_affinity_docs": r"""
            WITH tok AS (
              SELECT doc_id, source,
                     unnest(regexp_extract_all(lower(coalesce(text, '')),
                                               '\w+')) AS word
              FROM documents),
            b AS (
              SELECT doc_id, source,
                     cast(('0x' || substring(md5(word), 1, 8)) AS UBIGINT)
                       % 4096 AS bucket
              FROM tok),
            counts AS (
              SELECT bucket,
                     sum(CASE WHEN source = 'src0' THEN 1 ELSE 0 END)
                       AS n_target,
                     sum(CASE WHEN source <> 'src0' THEN 1 ELSE 0 END)
                       AS n_raw
              FROM b GROUP BY 1),
            scored AS (
              SELECT b.doc_id, cast(count(*) AS BIGINT) AS n_tokens,
                     cast(sum(c.n_target) AS BIGINT) AS target_mass,
                     cast(sum(c.n_raw) AS BIGINT) AS raw_mass
              FROM b JOIN counts c USING (bucket) GROUP BY 1)
            SELECT d.doc_id,
                   cast(coalesce(s.n_tokens, 0) AS BIGINT) AS n_tokens,
                   cast(coalesce(s.target_mass, 0) AS BIGINT) AS target_mass,
                   cast(coalesce(s.raw_mass, 0) AS BIGINT) AS raw_mass,
                   cast(coalesce(s.target_mass, 0) AS DOUBLE)
                     / cast(greatest(coalesce(s.raw_mass, 0), 1) AS DOUBLE)
                     AS affinity
            FROM documents d LEFT JOIN scored s USING (doc_id)
            ORDER BY doc_id""",
        # DSIR importance resampling: the same affinity CTE plus the
        # accept rule hash32(doc_id)*max(raw_mass,1) < 2^32*target_mass
        # in HUGEINT — exact integers, no float in the decision
        "dsir_resampled_docs": r"""
            WITH tok AS (
              SELECT doc_id, source,
                     unnest(regexp_extract_all(lower(coalesce(text, '')),
                                               '\w+')) AS word
              FROM documents),
            b AS (
              SELECT doc_id, source,
                     cast(('0x' || substring(md5(word), 1, 8)) AS UBIGINT)
                       % 4096 AS bucket
              FROM tok),
            counts AS (
              SELECT bucket,
                     sum(CASE WHEN source = 'src0' THEN 1 ELSE 0 END)
                       AS n_target,
                     sum(CASE WHEN source <> 'src0' THEN 1 ELSE 0 END)
                       AS n_raw
              FROM b GROUP BY 1),
            scored AS (
              SELECT b.doc_id, cast(count(*) AS BIGINT) AS n_tokens,
                     cast(sum(c.n_target) AS BIGINT) AS target_mass,
                     cast(sum(c.n_raw) AS BIGINT) AS raw_mass
              FROM b JOIN counts c USING (bucket) GROUP BY 1),
            f AS (
              SELECT d.doc_id,
                     cast(coalesce(s.n_tokens, 0) AS BIGINT) AS n_tokens,
                     cast(coalesce(s.target_mass, 0) AS BIGINT)
                       AS target_mass,
                     cast(coalesce(s.raw_mass, 0) AS BIGINT) AS raw_mass,
                     cast(coalesce(s.target_mass, 0) AS DOUBLE)
                       / cast(greatest(coalesce(s.raw_mass, 0), 1)
                              AS DOUBLE) AS affinity
              FROM documents d LEFT JOIN scored s USING (doc_id))
            SELECT doc_id, n_tokens, target_mass, raw_mass, affinity
            FROM f
            WHERE cast(cast(('0x' || substring(
                        md5(cast(doc_id AS VARCHAR)), 1, 8)) AS UBIGINT)
                       AS HUGEINT)
                    * cast(greatest(raw_mass, 1) AS HUGEINT)
                  < cast(4294967296 AS HUGEINT)
                    * cast(target_mass AS HUGEINT)
            ORDER BY doc_id""",
        # C4 cleaning rules: explicit-charset trim so DuckDB trim(x, chars)
        # == pyarrow utf8_trim; every line/doc predicate is the same RE2
        # expression on both sides
        "c4_clean_docs": r"""
            WITH w AS (
              SELECT doc_id,
                     list_filter(regexp_split_to_array(coalesce(text, ''),
                                                       '\s+'),
                                 x -> x <> '') AS ws
              FROM documents),
            built AS (
              SELECT doc_id,
                     array_to_string(
                       list_concat(
                         [array_to_string(ws[(i-1)*8+1:(i-1)*8+8], ' ')
                            || CASE WHEN (doc_id + i) % 3 <> 2
                                    THEN '.' ELSE '' END
                          FOR i IN range(1, cast(ceil(len(ws) / 8.0)
                                                 AS BIGINT) + 1)],
                         CASE WHEN doc_id % 16 = 0 THEN ['lorem ipsum']
                              WHEN doc_id % 16 = 1 THEN ['{']
                              WHEN doc_id % 16 = 2 THEN
                                ['please enable javascript to continue here.']
                              ELSE [] END),
                       chr(10)) AS t
              FROM w),
            base AS (
              SELECT doc_id, t,
                     list_transform(
                       string_split(t, chr(10)),
                       x -> trim(x, ' ' || chr(9) || chr(13) || chr(12)
                                 || chr(11))) AS ls
              FROM built),
            f AS (
              SELECT doc_id, t, len(ls) AS n_lines,
                     list_filter(ls, l ->
                       regexp_matches(l, '[.!?"]$')
                       AND length(regexp_extract_all(l, '\S+')) >= 5
                       AND NOT regexp_matches(lower(l), '\bjavascript\b'))
                       AS kept
              FROM base)
            SELECT doc_id,
                   CASE WHEN contains(lower(t), 'lorem ipsum')
                          THEN 'dropped_lorem'
                        WHEN contains(t, '{') THEN 'dropped_brace'
                        WHEN len(kept) < 3 THEN 'dropped_short'
                        ELSE 'kept' END AS status,
                   cast(n_lines AS BIGINT) AS n_lines,
                   cast(len(kept) AS BIGINT) AS n_kept,
                   CASE WHEN contains(lower(t), 'lorem ipsum')
                          OR contains(t, '{') OR len(kept) < 3
                        THEN '' ELSE array_to_string(kept, chr(10))
                   END AS clean_text
            FROM f ORDER BY doc_id""",
        # quality-aware dedup keep: the doc_id%3 punct suffix + even/odd
        # twin mutations and the canonical form (delete [^\w\s] → collapse
        # \s+ → trim → lower → md5) are the same expressions on both
        # sides; representative = greatest (quality, -doc_id) per digest
        "quality_dedup_kept_doubled": rf"""
            WITH orig AS (
              SELECT doc_id,
                     coalesce(text, '')
                       || CASE WHEN doc_id % 3 = 0 THEN ' !!'
                               WHEN doc_id % 3 = 1 THEN ''
                               ELSE ' ;;;;' END AS text
              FROM documents),
            u AS (
              SELECT doc_id, text FROM orig
              UNION ALL
              SELECT o.doc_id + 1000000,
                     CASE WHEN o.doc_id % 2 = 0
                          THEN o.text || ' ' || repeat('!?;', 12)
                          ELSE regexp_replace(o.text, '[^\w\s]', '', 'g')
                     END
              FROM orig o),
            c AS (
              SELECT doc_id,
                     md5(lower(trim(regexp_replace(
                           regexp_replace(text, '[^\w\s]', '', 'g'),
                           '\s+', ' ', 'g'), ' '))) AS digest,
                     length(text) AS n_chars,
                     length(regexp_extract_all(text, '\S+')) AS n_words,
                     length(regexp_extract_all(lower(text), '\w+'))
                       AS n_tokens,
                     length(regexp_extract_all(text, '[^\w\s]'))
                       AS n_punct,
                     length(regexp_extract_all(lower(text), '{alt}'))
                       AS n_stop
              FROM u),
            q AS (
              SELECT doc_id, digest,
                     (least(cast(n_words AS DOUBLE)/50.0, 1.0)*0.4
                      + (cast(n_stop AS DOUBLE)
                         / greatest(cast(n_tokens AS DOUBLE), 1.0))*0.3)
                     + ((1.0 - least((cast(n_punct AS DOUBLE)
                          / greatest(cast(n_chars AS DOUBLE), 1.0))*5.0,
                          1.0))*0.3) AS quality_score
              FROM c),
            r AS (
              SELECT q.*, row_number() OVER (
                       PARTITION BY digest
                       ORDER BY quality_score DESC, doc_id ASC) AS rn
              FROM q)
            SELECT digest, doc_id,
                   CASE WHEN doc_id >= 1000000 THEN 'twin'
                        ELSE 'original' END AS source,
                   quality_score
            FROM r WHERE rn = 1 ORDER BY digest""",
        # encoding QC: the doc_id%8 artifact graft and every detection
        # regex (mojibake literal alternation, U+FFFD, control-char class,
        # printable-ASCII class) are identical RE2 on both sides; the BEL
        # control char is built via chr(7) so no raw control byte lives
        # in source
        # RedPajama-v2 unigram entropy: Σ (c/n)·ln(n/c) per doc, each
        # term floor-quantized to micro-nats (libm ln, identical cast
        # order) so sums are order-independent ints; the float is one
        # exact division of the int sum
        # content-defined chunking dedup over the doubled corpus (twin =
        # 'zzz ' prefix): cut after word i when md5-hash32 of the last-4
        # -word window is 0 mod 8 (or end of doc); chunk_idx = cuts
        # before i; owner = min (doc_id, chunk_idx) per chunk hash —
        # every expression (window slice, hash rule, prefix-sum, window
        # argmin) restated in SQL
        "cdc_chunk_dedup_doubled": r"""
            WITH u AS (
              SELECT doc_id, coalesce(text, '') AS text FROM documents
              UNION ALL
              SELECT doc_id + 1000000,
                     'zzz ' || coalesce(text, '') FROM documents),
            w AS (
              SELECT doc_id,
                     list_filter(regexp_split_to_array(text, '\s+'),
                                 x -> x <> '') AS ws
              FROM u),
            pos AS (
              SELECT doc_id, ws, unnest(ws) AS word,
                     unnest(range(1, len(ws) + 1)) AS i
              FROM w),
            cutf AS (
              SELECT doc_id, word, i,
                     CASE WHEN i = len(ws) THEN 1
                          WHEN i >= 4 AND
                               cast(('0x' || substring(md5(
                                 array_to_string(ws[i-3:i], ' ')), 1, 8))
                                 AS UBIGINT) % 8 = 0 THEN 1
                          ELSE 0 END AS cut
              FROM pos),
            ch AS (
              SELECT doc_id, word, i,
                     cast(coalesce(sum(cut) OVER (
                       PARTITION BY doc_id ORDER BY i
                       ROWS BETWEEN UNBOUNDED PRECEDING
                            AND 1 PRECEDING), 0) AS BIGINT) AS chunk_idx
              FROM cutf),
            chunks AS (
              SELECT doc_id, chunk_idx,
                     cast(count(*) AS BIGINT) AS n_chunk_words,
                     md5(string_agg(word, ' ' ORDER BY i)) AS chunk_hash
              FROM ch GROUP BY doc_id, chunk_idx),
            own AS (
              SELECT *,
                     first_value(doc_id) OVER (
                       PARTITION BY chunk_hash
                       ORDER BY doc_id, chunk_idx) AS owner_doc_id,
                     first_value(chunk_idx) OVER (
                       PARTITION BY chunk_hash
                       ORDER BY doc_id, chunk_idx) AS owner_chunk_idx
              FROM chunks)
            SELECT doc_id, chunk_idx, n_chunk_words, chunk_hash,
                   owner_doc_id, owner_chunk_idx,
                   NOT (owner_doc_id = doc_id
                        AND owner_chunk_idx = chunk_idx) AS is_dup
            FROM own ORDER BY doc_id, chunk_idx""",
        # within-doc paragraph dedup: the 6-word paragraph construction
        # + doc_id%3 duplicate graft (0 → first para copied, 1 → last)
        # are rebuilt verbatim; keep = min-ordinal occurrence per exact
        # paragraph, original order; char fraction is one float division
        # of exact int sums
        "paragraph_dedup_docs": r"""
            WITH w AS (
              SELECT doc_id,
                     list_filter(regexp_split_to_array(coalesce(text, ''),
                                                       '\s+'),
                                 x -> x <> '') AS ws
              FROM documents),
            built AS (
              SELECT doc_id,
                     [array_to_string(ws[(i-1)*6+1:(i-1)*6+6], ' ')
                        FOR i IN range(1, cast(ceil(len(ws) / 6.0)
                                               AS BIGINT) + 1)] AS ps0
              FROM w),
            paras AS (
              SELECT doc_id,
                     list_concat(ps0,
                       CASE WHEN len(ps0) = 0 THEN []
                            WHEN doc_id % 3 = 0 THEN [ps0[1]]
                            WHEN doc_id % 3 = 1 THEN [ps0[len(ps0)]]
                            ELSE [] END) AS ps
              FROM built),
            occ AS (
              SELECT doc_id, unnest(ps) AS para,
                     unnest(range(1, len(ps) + 1)) AS idx
              FROM paras),
            grp AS (
              SELECT doc_id, para, min(idx) AS fidx,
                     count(*) AS c, length(para) AS ln
              FROM occ GROUP BY doc_id, para),
            st AS (
              SELECT doc_id,
                     cast(sum(c) AS BIGINT) AS n_paragraphs,
                     cast(sum(c - 1) AS BIGINT) AS n_dup_paragraphs,
                     cast(sum((c - 1) * ln) AS BIGINT) AS dup_chars,
                     cast(sum(c * ln) AS BIGINT) AS tot_chars,
                     string_agg(para, chr(10) || chr(10)
                                ORDER BY fidx) AS dedup_text
              FROM grp GROUP BY doc_id)
            SELECT d.doc_id,
                   cast(coalesce(st.n_paragraphs, 0) AS BIGINT)
                     AS n_paragraphs,
                   cast(coalesce(st.n_dup_paragraphs, 0) AS BIGINT)
                     AS n_dup_paragraphs,
                   coalesce(st.dup_chars, 0)
                     / cast(greatest(coalesce(st.tot_chars, 0), 1)
                            AS DOUBLE) AS dup_para_char_frac,
                   coalesce(st.dedup_text, '') AS dedup_text
            FROM documents d LEFT JOIN st USING (doc_id)
            ORDER BY d.doc_id""",
        # Flesch / FK readability: vowel-group syllable heuristic
        # (RE2 [aeiouy]+ runs per word, min 1) + the k-word sentence
        # rule (k = 5 + doc_id % 4); both scores are float expressions
        # of exact ints in the same literal order on both sides, so
        # IEEE exact rounding makes them bit-exact
        "readability_docs": r"""
            WITH w AS (
              SELECT doc_id,
                     unnest(list_filter(
                       regexp_split_to_array(coalesce(text, ''), '\s+'),
                       x -> x <> '')) AS w
              FROM documents),
            s AS (SELECT doc_id,
                         cast(count(*) AS BIGINT) AS n_words,
                         cast(sum(greatest(1,
                           len(regexp_extract_all(lower(w),
                                                  '[aeiouy]+'))))
                              AS BIGINT) AS n_syllables
                  FROM w GROUP BY doc_id),
            b AS (SELECT d.doc_id,
                         cast(coalesce(s.n_words, 0) AS BIGINT)
                           AS n_words,
                         cast(coalesce(s.n_syllables, 0) AS BIGINT)
                           AS n_syllables,
                         5 + d.doc_id % 4 AS k
                  FROM documents d LEFT JOIN s USING (doc_id)),
            c AS (SELECT doc_id, n_words, n_syllables,
                         cast((n_words + k - 1) // k AS BIGINT)
                           AS n_sentences
                  FROM b),
            f AS (SELECT *,
                         n_words / (cast(greatest(n_sentences, 1)
                                         AS DOUBLE)) AS wps,
                         n_syllables / (cast(greatest(n_words, 1)
                                             AS DOUBLE)) AS spw
                  FROM c)
            SELECT doc_id, n_words, n_sentences, n_syllables,
                   cast(206.835 AS DOUBLE)
                     - cast(1.015 AS DOUBLE) * wps
                     - cast(84.6 AS DOUBLE) * spw AS flesch,
                   cast(0.39 AS DOUBLE) * wps
                     + cast(11.8 AS DOUBLE) * spw
                     - cast(15.59 AS DOUBLE) AS fk_grade
            FROM f ORDER BY doc_id""",
        "unigram_entropy_docs": r"""
            WITH w AS (
              SELECT doc_id,
                     unnest(list_filter(
                       regexp_split_to_array(coalesce(text, ''), '\s+'),
                       x -> x <> '')) AS w
              FROM documents),
            c AS (SELECT doc_id, w, cast(count(*) AS BIGINT) AS c
                  FROM w GROUP BY doc_id, w),
            n AS (SELECT doc_id, cast(sum(c) AS BIGINT) AS n
                  FROM c GROUP BY doc_id),
            t AS (SELECT c.doc_id,
                         cast(floor((c.c * 1.0 / n.n)
                                    * ln(n.n * 1.0 / c.c)
                                    * 1000000.0) AS BIGINT) AS m
                  FROM c JOIN n USING (doc_id)),
            s AS (SELECT doc_id, cast(sum(m) AS BIGINT) AS mm
                  FROM t GROUP BY doc_id)
            SELECT d.doc_id,
                   cast(coalesce(n.n, 0) AS BIGINT) AS n_words,
                   cast(coalesce(s.mm, 0) AS BIGINT)
                     AS entropy_micro_nats,
                   cast(coalesce(s.mm, 0) AS BIGINT) / 1000000.0
                     AS entropy
            FROM documents d LEFT JOIN n USING (doc_id)
            LEFT JOIN s USING (doc_id)
            ORDER BY d.doc_id""",
        # C4 bad-words gate: whole-word case-insensitive RE2 counts per
        # blocklist term; kept ⇔ zero total hits. Same regex engine (RE2)
        # on both sides, so counts are bit-exact. The engine escapes terms
        # as literals and drops \b at non-word-char term edges
        # (_word_literal_pat); the default terms here are all word chars,
        # so the plain \b...\b form below is the same pattern
        "badwords_filtered_docs": r"""
            SELECT doc_id,
                   cast(len(regexp_extract_all(coalesce(text, ''),
                        '(?i)\bslow\b')) AS BIGINT) AS n_slow,
                   cast(len(regexp_extract_all(coalesce(text, ''),
                        '(?i)\bdup\b')) AS BIGINT) AS n_dup,
                   cast(len(regexp_extract_all(coalesce(text, ''),
                        '(?i)\bspark\b')) AS BIGINT) AS n_spark,
                   n_slow + n_dup + n_spark AS n_hits,
                   (n_slow + n_dup + n_spark) = 0 AS kept
            FROM documents ORDER BY doc_id""",
        "encoding_qc_docs": r"""
            WITH built AS (
              SELECT doc_id,
                     coalesce(text, '')
                       || CASE doc_id % 8
                            WHEN 0 THEN ' cafÃ© Ã©tÃ©'
                            WHEN 1 THEN ' itâ€™s â€œq'
                            WHEN 2 THEN ' a' || chr(65533) || 'b'
                            WHEN 3 THEN ' x' || chr(7) || 'y'
                            ELSE '' END AS text
              FROM documents),
            c AS (
              SELECT doc_id, length(text) AS n_chars,
                     length(regexp_extract_all(text,
                       'Ã©|Ã¨|Ã¼|Ã¶|Ã±|Ã¯|Ã¡|Ã³|â€™|â€œ|â€“|â€”|Â·|Â°'))
                       AS n_mojibake,
                     length(regexp_extract_all(text, chr(65533)))
                       AS n_replacement,
                     length(regexp_extract_all(text,
                       '[\x00-\x08\x0b\x0c\x0e-\x1f\x7f]')) AS n_ctrl,
                     length(regexp_extract_all(text, '[ -~]')) AS n_ascii
              FROM built)
            SELECT doc_id,
                   cast(n_mojibake AS BIGINT) AS n_mojibake,
                   cast(n_replacement AS BIGINT) AS n_replacement,
                   cast(n_ctrl AS BIGINT) AS n_ctrl,
                   cast(n_ascii AS DOUBLE)
                     / greatest(cast(n_chars AS DOUBLE), 1.0) AS ascii_ratio,
                   CASE WHEN n_ctrl > 0 THEN 'has_ctrl'
                        WHEN n_replacement > 0 THEN 'has_replacement'
                        WHEN n_mojibake > 0 THEN 'mojibake'
                        ELSE 'clean' END AS status
            FROM c ORDER BY doc_id""",
        # per-lang z-score: moments are EXACT int sums; mean/var/std/z are
        # the same single float expressions of those ints on both sides
        # (population variance written out, never var_pop/stddev whose
        # accumulation order is engine-defined)
        "length_zscore_by_lang": r"""
            WITH c AS (
              SELECT doc_id, lang,
                     length(regexp_extract_all(coalesce(text, ''), '\S+'))
                       AS n_words
              FROM documents),
            m AS (
              SELECT lang, sum(n_words) AS s,
                     sum(n_words * n_words) AS s2, count(*) AS n
              FROM c GROUP BY 1),
            st AS (
              SELECT lang,
                     cast(s AS DOUBLE) / cast(n AS DOUBLE) AS mean,
                     (cast(s2 AS DOUBLE) / cast(n AS DOUBLE))
                       - (cast(s AS DOUBLE) / cast(n AS DOUBLE))
                         * (cast(s AS DOUBLE) / cast(n AS DOUBLE)) AS var
              FROM m)
            SELECT c.doc_id, c.lang, cast(c.n_words AS BIGINT) AS n_words,
                   CASE WHEN st.var > 0
                        THEN (cast(c.n_words AS DOUBLE) - st.mean)
                               / sqrt(st.var)
                        ELSE 0.0 END AS z_words
            FROM c JOIN st USING (lang) ORDER BY doc_id""",
        # BPE round-1 merge candidates: same \w+ tokenizer, pairs via
        # 1-based substring unnesting; ties (n DESC, pair ASC) on both
        # sides. bpe_merges (the iterative fit) is rows-only by contract.
        "bpe_pair_counts": r"""
            WITH words AS (
              SELECT unnest(regexp_extract_all(lower(coalesce(text, '')),
                                               '\w+')) AS w
              FROM documents),
            pairs AS (
              SELECT unnest([substring(w, i, 2)
                             FOR i IN range(1, length(w))]) AS pair
              FROM words)
            SELECT pair, cast(count(*) AS BIGINT) AS n
            FROM pairs GROUP BY 1
            ORDER BY n DESC, pair ASC LIMIT 100""",
        # per-source unigram KL vs corpus: md5-hash32 bucket rule shared
        # with the affinity oracles; each bucket term floor-quantized to
        # integer micro-nats with the identical cast-divide-multiply ln
        # expression, so the per-source sum is an exact int64
        "source_unigram_kl": r"""
            WITH tok AS (
              SELECT coalesce(source, '') AS source,
                     unnest(regexp_extract_all(lower(coalesce(text, '')),
                                               '\w+')) AS word
              FROM documents),
            b AS (
              SELECT source,
                     cast(cast(('0x' || substring(md5(word), 1, 8))
                               AS UBIGINT) % 4096 AS BIGINT) AS bucket
              FROM tok),
            sb AS (SELECT source, bucket, cast(count(*) AS BIGINT) AS c
                   FROM b GROUP BY 1, 2),
            ns AS (SELECT source, cast(sum(c) AS BIGINT) AS n_s
                   FROM sb GROUP BY 1),
            cb AS (SELECT bucket, cast(sum(c) AS BIGINT) AS c_b
                   FROM sb GROUP BY 1),
            tot AS (SELECT cast(sum(c_b) AS BIGINT) AS n FROM cb),
            terms AS (
              SELECT sb.source,
                     cast(floor((cast(sb.c AS DOUBLE)
                                 / cast(ns.n_s AS DOUBLE))
                                * ln(cast(sb.c AS DOUBLE)
                                     * cast((SELECT n FROM tot) AS DOUBLE)
                                     / (cast(ns.n_s AS DOUBLE)
                                        * cast(cb.c_b AS DOUBLE)))
                                * 1000000) AS BIGINT) AS q
              FROM sb JOIN ns USING (source) JOIN cb USING (bucket))
            SELECT t.source, ns.n_s AS n_tokens,
                   cast(sum(t.q) AS BIGINT) AS kl_micro_nats,
                   cast(sum(t.q) AS BIGINT) / 1000000.0 AS kl
            FROM terms t JOIN ns USING (source)
            GROUP BY t.source, ns.n_s ORDER BY t.source""",
        # pairwise source JSD: same bucket rule as source_unigram_kl;
        # per-(pair,bucket) term floor-quantized to micro-nats with the
        # identical 0.5·p·ln(p/m)+0.5·q·ln(q/m) expression (both-zero
        # grid cells excluded on both sides), int64 per-pair sums
        # per-source Zipf fit: rank = row_number by (freq desc, word);
        # each ln / ln·ln term floor-quantized to micro-units (libm ln,
        # identical cast order), summed as HUGEINT (they exceed int64 at
        # real vocab sizes); slope = one double division of the exact
        # int OLS numerator/denominator — the quantized regression is
        # the contract on both sides
        "zipf_by_source": r"""
            WITH w AS (
              SELECT coalesce(source, '') AS source,
                     unnest(regexp_extract_all(lower(coalesce(text, '')),
                                               '\w+')) AS w
              FROM documents),
            c AS (SELECT source, w, cast(count(*) AS BIGINT) AS c
                  FROM w GROUP BY source, w),
            r AS (SELECT source, w, c,
                         row_number() OVER (PARTITION BY source
                                            ORDER BY c DESC, w) AS r
                  FROM c),
            t AS (SELECT source, c, r,
                         cast(floor(ln(cast(r AS DOUBLE)) * 1000000.0)
                              AS HUGEINT) AS x,
                         cast(floor(ln(cast(c AS DOUBLE)) * 1000000.0)
                              AS HUGEINT) AS y,
                         cast(floor(ln(cast(r AS DOUBLE))
                                    * ln(cast(c AS DOUBLE))
                                    * 1000000.0) AS HUGEINT) AS xy,
                         cast(floor(ln(cast(r AS DOUBLE))
                                    * ln(cast(r AS DOUBLE))
                                    * 1000000.0) AS HUGEINT) AS xx
                  FROM r),
            s AS (SELECT source, cast(count(*) AS HUGEINT) AS v,
                         sum(x) AS sx, sum(y) AS sy,
                         sum(xy) AS sxy, sum(xx) AS sxx
                  FROM t GROUP BY source),
            tok AS (SELECT source,
                           cast(sum(c) AS BIGINT) AS n_tokens,
                           cast(sum(CASE WHEN c = 1 THEN 1 ELSE 0 END)
                                AS BIGINT) AS n_hapax,
                           cast(count(*) AS BIGINT) AS vocab_size
                    FROM c GROUP BY source)
            SELECT s.source, tok.n_tokens, tok.vocab_size, tok.n_hapax,
                   tok.n_hapax / cast(tok.vocab_size AS DOUBLE)
                     AS hapax_frac,
                   CASE WHEN s.v * s.sxx * 1000000 - s.sx * s.sx = 0
                        THEN 0.0
                        ELSE cast(s.v * s.sxy * 1000000 - s.sx * s.sy
                                  AS DOUBLE)
                             / cast(s.v * s.sxx * 1000000 - s.sx * s.sx
                                    AS DOUBLE) END AS zipf_slope
            FROM s JOIN tok USING (source) ORDER BY s.source""",
        "source_jsd_matrix": r"""
            WITH tok AS (
              SELECT coalesce(source, '') AS source,
                     unnest(regexp_extract_all(lower(coalesce(text, '')),
                                               '\w+')) AS word
              FROM documents),
            b AS (
              SELECT source,
                     cast(cast(('0x' || substring(md5(word), 1, 8))
                               AS UBIGINT) % 4096 AS BIGINT) AS bucket
              FROM tok),
            sb AS (SELECT source, bucket, cast(count(*) AS BIGINT) AS c
                   FROM b GROUP BY 1, 2),
            ns AS (SELECT source, cast(sum(c) AS BIGINT) AS n_s
                   FROM sb GROUP BY 1),
            pr AS (SELECT a.source AS sa, a.n_s AS na,
                          b2.source AS sbb, b2.n_s AS nb
                   FROM ns a JOIN ns b2 ON a.source < b2.source),
            bk AS (SELECT DISTINCT bucket FROM sb),
            grid AS (
              SELECT pr.sa, pr.sbb, pr.na, pr.nb, bk.bucket,
                     coalesce(c1.c, 0) AS c1, coalesce(c2.c, 0) AS c2
              FROM pr CROSS JOIN bk
              LEFT JOIN sb c1 ON c1.source = pr.sa
                             AND c1.bucket = bk.bucket
              LEFT JOIN sb c2 ON c2.source = pr.sbb
                             AND c2.bucket = bk.bucket
              WHERE coalesce(c1.c, 0) > 0 OR coalesce(c2.c, 0) > 0),
            t AS (
              SELECT sa, sbb,
                     cast(floor((CASE WHEN c1 > 0
                       THEN 0.5 * (cast(c1 AS DOUBLE) / cast(na AS DOUBLE))
                            * ln((cast(c1 AS DOUBLE) / cast(na AS DOUBLE))
                                 / ((cast(c1 AS DOUBLE) / cast(na AS DOUBLE)
                                     + cast(c2 AS DOUBLE)
                                       / cast(nb AS DOUBLE)) / 2))
                       ELSE 0 END
                       + CASE WHEN c2 > 0
                       THEN 0.5 * (cast(c2 AS DOUBLE) / cast(nb AS DOUBLE))
                            * ln((cast(c2 AS DOUBLE) / cast(nb AS DOUBLE))
                                 / ((cast(c1 AS DOUBLE) / cast(na AS DOUBLE)
                                     + cast(c2 AS DOUBLE)
                                       / cast(nb AS DOUBLE)) / 2))
                       ELSE 0 END) * 1000000) AS BIGINT) AS q
              FROM grid)
            SELECT sa AS source_a, sbb AS source_b,
                   cast(sum(q) AS BIGINT) AS jsd_micro_nats,
                   cast(sum(q) AS BIGINT) / 1000000.0 AS jsd
            FROM t GROUP BY 1, 2 ORDER BY 1, 2""",
        # PMI collocations: same \w+ tokenizer on both sides; pmi is one
        # libm ln over exact int counts in the identical
        # cast-multiply-divide order (DuckDB ln ≡ math.log bit-for-bit,
        # the unigram_logprob convention), so the (pmi DESC, w1, w2)
        # top-k orders identically
        "pmi_top_bigrams": r"""
            WITH toks AS (
              SELECT regexp_extract_all(lower(coalesce(text, '')),
                                        '\w+') AS w
              FROM documents),
            uni AS (
              SELECT word, cast(count(*) AS BIGINT) AS n
              FROM (SELECT unnest(w) AS word FROM toks) GROUP BY 1),
            tot AS (SELECT cast(sum(n) AS BIGINT) AS total FROM uni),
            big AS (
              SELECT b[1] AS w1, b[2] AS w2,
                     cast(count(*) AS BIGINT) AS n_xy
              FROM (SELECT unnest([[w[i], w[i+1]]
                                   FOR i IN range(1, len(w))]) AS b
                    FROM toks)
              GROUP BY 1, 2 HAVING count(*) >= 5)
            SELECT big.w1, big.w2, big.n_xy,
                   u1.n AS n_x, u2.n AS n_y,
                   ln(cast(big.n_xy AS DOUBLE)
                      * cast((SELECT total FROM tot) AS DOUBLE)
                      / (cast(u1.n AS DOUBLE) * cast(u2.n AS DOUBLE)))
                     AS pmi
            FROM big JOIN uni u1 ON big.w1 = u1.word
                     JOIN uni u2 ON big.w2 = u2.word
            ORDER BY pmi DESC, w1, w2 LIMIT 100""",
        # inverted-index postings for the top-100 df terms; same \w+
        # tokenizer, ties broken (df DESC, word ASC) on both sides
        "inverted_index_docs": r"""
            WITH pairs AS (
              SELECT DISTINCT doc_id, word FROM (
                SELECT doc_id,
                       unnest(regexp_extract_all(lower(coalesce(text, '')),
                                                 '\w+')) AS word
                FROM documents)),
            dfr AS (SELECT word, cast(count(*) AS BIGINT) AS df
                    FROM pairs GROUP BY 1),
            top AS (SELECT word, df FROM dfr
                    ORDER BY df DESC, word LIMIT 100)
            SELECT t.word, t.df, p.doc_id
            FROM top t JOIN pairs p USING (word)
            ORDER BY t.word, p.doc_id""",
        "token_counts": r"""
            WITH c AS (
              SELECT doc_id, length(text) AS n_chars_m,
                     length(regexp_extract_all(lower(text), '\w+')) AS n_tokens,
                     length(regexp_extract_all(text, '\S+')) AS n_ws_tokens,
                     length(text) - length(regexp_extract_all(lower(text), '[^\w]')) AS iw
              FROM documents)
            SELECT doc_id, n_chars_m, n_tokens, n_ws_tokens,
                   (iw // 4) + (CASE WHEN iw % 4 <> 0 THEN 1 ELSE 0 END) AS n_subwords
            FROM c ORDER BY doc_id""",
        "quality_scores": rf"""
            WITH c AS (
              SELECT doc_id,
                     length(text) AS n_chars,
                     length(regexp_extract_all(text, '\S+')) AS n_words,
                     length(regexp_extract_all(lower(text), '\w+')) AS n_tokens,
                     length(regexp_extract_all(text, '[^\w\s]')) AS n_punct,
                     length(regexp_extract_all(lower(text), '{alt}')) AS n_stop
              FROM documents),
            f AS (
              SELECT doc_id, n_words,
                     cast(n_stop AS DOUBLE) / greatest(cast(n_tokens AS DOUBLE), 1.0) AS stopword_frac,
                     cast(n_punct AS DOUBLE) / greatest(cast(n_chars AS DOUBLE), 1.0) AS punct_frac
              FROM c)
            SELECT doc_id, n_words, stopword_frac, punct_frac,
                   (least(cast(n_words AS DOUBLE)/50.0, 1.0)*0.4 + stopword_frac*0.3)
                   + ((1.0 - least(punct_frac*5.0, 1.0))*0.3) AS quality_score
            FROM f ORDER BY doc_id""",
        "exact_dedup": r"""
            SELECT md5(coalesce(text, '')) AS digest, min(doc_id) AS rep_id, count(*) AS dup_count
            FROM documents GROUP BY 1 ORDER BY 1""",
        # distributed hash join of two large tables (no broadcast side)
        "docs_with_embeddings": r"""
            SELECT d.doc_id, d.lang, d.n_chars,
                   cast(len(e.embedding) AS BIGINT) AS emb_dim
            FROM documents d JOIN embeddings e ON d.doc_id = e.vec_id
            ORDER BY d.doc_id""",
        "exact_dedup_kept": r"""
            SELECT min(doc_id) AS doc_id, text
            FROM documents GROUP BY text ORDER BY 1""",
        # distributed wordcount: \w+ on lowered text (same RE2 tokenizer as
        # token_counts), global counts, top-100 by (count desc, word asc)
        "word_freq_top": r"""
            SELECT word, cast(count(*) AS BIGINT) AS n
            FROM (SELECT unnest(regexp_extract_all(lower(text), '\w+')) AS word
                  FROM documents)
            GROUP BY 1 ORDER BY n DESC, word LIMIT 100""",
        # adjacent whitespace-token bigrams, same tokenizer as the engine
        "bigram_freq_top": r"""
            WITH t AS (
              SELECT list_filter(regexp_split_to_array(coalesce(text, ''),
                                                       '\s+'),
                                 x -> x <> '') AS toks
              FROM documents),
            b AS (SELECT toks[i.i] || ' ' || toks[i.i + 1] AS bigram
                  FROM t, LATERAL unnest(generate_series(1, len(toks) - 1))
                       AS i(i)
                  WHERE len(toks) >= 2)
            SELECT bigram, cast(count(*) AS BIGINT) AS n
            FROM b GROUP BY 1 ORDER BY n DESC, bigram LIMIT 100""",
        # quality gate over the quality_scores expression tree (bit-exact
        # per-row doubles on both sides, so the >= comparisons agree)
        "quality_filtered": rf"""
            WITH c AS (
              SELECT doc_id,
                     length(text) AS n_chars,
                     length(regexp_extract_all(text, '\S+')) AS n_words,
                     length(regexp_extract_all(lower(text), '\w+')) AS n_tokens,
                     length(regexp_extract_all(text, '[^\w\s]')) AS n_punct,
                     length(regexp_extract_all(lower(text), '{alt}')) AS n_stop
              FROM documents),
            f AS (
              SELECT doc_id, n_words,
                     cast(n_stop AS DOUBLE) / greatest(cast(n_tokens AS DOUBLE), 1.0) AS stopword_frac,
                     cast(n_punct AS DOUBLE) / greatest(cast(n_chars AS DOUBLE), 1.0) AS punct_frac
              FROM c),
            q AS (
              SELECT doc_id, n_words,
                     (least(cast(n_words AS DOUBLE)/50.0, 1.0)*0.4 + stopword_frac*0.3)
                     + ((1.0 - least(punct_frac*5.0, 1.0))*0.3) AS quality_score
              FROM f)
            SELECT doc_id, n_words, quality_score FROM q
            WHERE quality_score >= 0.5 AND n_words >= 20 ORDER BY doc_id""",
        # Gopher-style within-doc repetition metrics; bigrams are
        # space-joined adjacent pairs (words cannot contain spaces), the
        # same encoding as the engine's vectorized kernel
        "repetition_stats": r"""
            WITH toks AS (
              SELECT doc_id,
                     list_filter(regexp_split_to_array(coalesce(text, ''),
                                 '\s+'), x -> x <> '') AS w
              FROM documents),
            base AS (
              SELECT doc_id, w, len(w) AS n_words,
                     len(list_distinct(w)) AS n_distinct_words,
                     CASE WHEN len(w) >= 2
                          THEN [w[i] || ' ' || w[i+1]
                                FOR i IN range(1, len(w))]
                          ELSE []::VARCHAR[] END AS g2
              FROM toks),
            tw AS (
              SELECT doc_id, max(c) AS top_c FROM (
                SELECT doc_id, count(*) AS c
                FROM (SELECT doc_id, unnest(w) AS word FROM toks)
                GROUP BY doc_id, word)
              GROUP BY doc_id)
            SELECT b.doc_id,
                   cast(b.n_words AS BIGINT) AS n_words,
                   cast(b.n_distinct_words AS BIGINT) AS n_distinct_words,
                   cast(coalesce(tw.top_c, 0) AS DOUBLE)
                       / greatest(cast(b.n_words AS DOUBLE), 1.0)
                       AS top_word_frac,
                   cast(len(b.g2) - len(list_distinct(b.g2)) AS DOUBLE)
                       / greatest(cast(len(b.g2) AS DOUBLE), 1.0)
                       AS dup_2gram_frac
            FROM base b LEFT JOIN tw ON b.doc_id = tw.doc_id
            ORDER BY b.doc_id""",
        # hopping window (3 h size, 1 h hop): every event lands in the 3
        # windows covering it; sums ride as exact integer cents
        "sliding_event_counts": r"""
            SELECT date_trunc('hour', ts) - to_hours(o.off) AS window_start,
                   count(*) AS n_events,
                   sum(cast(round(value*100, 0) AS BIGINT))/100.0
                       AS sum_value
            FROM events
            CROSS JOIN (SELECT unnest([0, 1, 2]) AS off) o
            GROUP BY 1 ORDER BY 1""",
        # per-language median-quality gate: quantile_disc(0.5) is an
        # ACTUAL score element (sorted[ceil(q*n)-1]), so the >= compare
        # agrees bit-for-bit with the engine's broadcast medians
        "quality_median_filtered": rf"""
            WITH c AS (
              SELECT doc_id, lang,
                     length(text) AS n_chars,
                     length(regexp_extract_all(text, '\S+')) AS n_words,
                     length(regexp_extract_all(lower(text), '\w+')) AS n_tokens,
                     length(regexp_extract_all(text, '[^\w\s]')) AS n_punct,
                     length(regexp_extract_all(lower(text), '{alt}')) AS n_stop
              FROM documents),
            f AS (
              SELECT doc_id, lang, n_words,
                     cast(n_stop AS DOUBLE) / greatest(cast(n_tokens AS DOUBLE), 1.0) AS stopword_frac,
                     cast(n_punct AS DOUBLE) / greatest(cast(n_chars AS DOUBLE), 1.0) AS punct_frac
              FROM c),
            s AS (
              SELECT doc_id, lang,
                     (least(cast(n_words AS DOUBLE)/50.0, 1.0)*0.4 + stopword_frac*0.3)
                     + ((1.0 - least(punct_frac*5.0, 1.0))*0.3) AS quality_score
              FROM f),
            m AS (SELECT lang, quantile_disc(quality_score, 0.5) AS med
                  FROM s GROUP BY 1)
            SELECT s.doc_id, s.lang, s.quality_score
            FROM s JOIN m ON s.lang = m.lang
            WHERE s.quality_score >= m.med ORDER BY s.doc_id""",
        # per-label embedding centroids, long format: float32 components
        # summed in float64 are exact, so avg matches the engine's
        # distributed partial sums bit-for-bit. Null embedding rows are
        # excluded; n_vectors counts non-null components per (label, dim)
        # — same null semantics as the engine's Arrow group sum/count
        "label_centroids": r"""
            WITH v AS (SELECT label, embedding FROM embeddings
                       WHERE embedding IS NOT NULL),
                 d AS (SELECT unnest(range(1, (SELECT max(len(embedding))
                                              FROM v) + 1)) AS i)
            SELECT cast(v.label AS BIGINT) AS label,
                   cast(d.i - 1 AS BIGINT) AS dim,
                   avg(cast(v.embedding[d.i] AS DOUBLE)) AS centroid,
                   count(v.embedding[d.i]) AS n_vectors
            FROM v CROSS JOIN d
            GROUP BY 1, 2 ORDER BY 1, 2""",
        # deterministic hash sampling: md5(doc_id) first 8 hex digits under
        # 10% of the 32-bit space — identical md5 on both sides
        "sample_docs": r"""
            SELECT doc_id, text FROM documents
            WHERE cast(('0x' || substring(md5(cast(doc_id AS VARCHAR)), 1, 8)) AS UBIGINT)
                  < cast(4294967296 * 10 // 100 AS UBIGINT)
            ORDER BY doc_id""",
        # exact-k deterministic sample: the k smallest (hash32(id), id)
        # rows — fixed size, pure function of the key set
        "sample_exact_k_docs": r"""
            SELECT doc_id, text FROM (
              SELECT doc_id, text FROM documents
              ORDER BY cast(('0x' || substring(md5(cast(doc_id AS VARCHAR)),
                            1, 8)) AS UBIGINT), doc_id
              LIMIT 50)
            ORDER BY doc_id""",
        # stratified per-lang hash sampling: per-group fraction, same
        # pure-function membership as sample_docs
        "stratified_sample_docs": r"""
            SELECT doc_id, lang, n_chars FROM documents
            WHERE cast(('0x' || substring(md5(cast(doc_id AS VARCHAR)), 1, 8)) AS UBIGINT)
                  < cast(4294967296 * (CASE lang WHEN 'eng' THEN 20
                                                 WHEN 'ind' THEN 50
                                                 ELSE 100 END) // 100 AS UBIGINT)
            ORDER BY doc_id""",
        # redaction transform: value-exact STRING output, same RE2 pattern
        # PII scrub over hash-routed synthetic PII (no natural PII in the
        # corpus): email -> ip -> phone nested replaces, counts taken on
        # the previous stage's string — RE2 on both sides
        "pii_scrub_docs": r"""
            WITH g AS (
              SELECT doc_id,
                     coalesce(text, '') || CASE
                       cast(('0x' || substring(md5(cast(doc_id AS VARCHAR)),
                                               1, 8)) AS UBIGINT) % 4
                       WHEN 0 THEN ' contact user' || doc_id
                                   || '@example.com now'
                       WHEN 1 THEN ' node 10.0.' || (doc_id % 256) || '.'
                                   || ((doc_id * 7) % 256) || ' responded'
                       WHEN 2 THEN ' call 0812-34'
                                   || lpad(cast(doc_id % 100 AS VARCHAR),
                                           2, '0') || '-7890 today'
                       ELSE '' END AS t0
              FROM documents),
            s1 AS (SELECT doc_id, t0,
                          regexp_replace(t0,
                              '[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\.[A-Za-z]{2,}',
                              '<EMAIL>', 'g') AS t1
                   FROM g),
            s2 AS (SELECT *, regexp_replace(t1,
                              '\b(?:\d{1,3}\.){3}\d{1,3}\b',
                              '<IP>', 'g') AS t2
                   FROM s1)
            SELECT doc_id,
                   regexp_replace(t2, '\b\d[\d\- ]{6,}\d\b',
                                  '<PHONE>', 'g') AS scrubbed,
                   cast(len(regexp_extract_all(t0,
                       '[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\.[A-Za-z]{2,}'))
                        AS BIGINT) AS n_emails,
                   cast(len(regexp_extract_all(t1,
                       '\b(?:\d{1,3}\.){3}\d{1,3}\b')) AS BIGINT)
                        AS n_ips,
                   cast(len(regexp_extract_all(t2,
                       '\b\d[\d\- ]{6,}\d\b')) AS BIGINT) AS n_phones
            FROM s2 ORDER BY doc_id""",
        "scrub_docs": r"""
            SELECT doc_id,
                   regexp_replace(text, '\b(spark|hash)\b', '[REDACTED]', 'g')
                     AS scrubbed,
                   cast(length(regexp_extract_all(text, '\b(spark|hash)\b'))
                        AS BIGINT) AS n_redacted
            FROM documents ORDER BY doc_id""",
        # fixed-size per-group sample: k smallest md5 hashes per lang
        "per_lang_topk_sample": r"""
            SELECT lang, rnk, doc_id, n_chars FROM (
              SELECT lang, doc_id, n_chars,
                     row_number() OVER (
                       PARTITION BY lang
                       ORDER BY cast(('0x' || substring(md5(cast(doc_id AS VARCHAR)), 1, 8)) AS UBIGINT),
                                doc_id) AS rnk
              FROM documents)
            WHERE rnk <= 20 ORDER BY lang, rnk""",
        "exact_dedup_doubled": r"""
            WITH d AS (SELECT doc_id, text FROM documents
                       UNION ALL SELECT doc_id + 1000000, text FROM documents)
            SELECT md5(coalesce(text, '')) AS digest, min(doc_id) AS rep_id, count(*) AS dup_count
            FROM d GROUP BY 1 ORDER BY 1""",
        # hot-key stress: ~30% of rows collapse onto ONE digest (the
        # engine-wide md5-prefix sampling hash decides membership)
        "exact_dedup_skew": r"""
            WITH d AS (
              SELECT doc_id,
                     CASE WHEN cast(('0x' || substring(md5(cast(doc_id AS VARCHAR)), 1, 8)) AS UBIGINT) % 10 < 3
                          THEN 'HOT DUPLICATE PAYLOAD'
                          ELSE coalesce(text, '') END AS text
              FROM documents)
            SELECT md5(text) AS digest, min(doc_id) AS rep_id, count(*) AS dup_count
            FROM d GROUP BY 1 ORDER BY 1""",
        # SoftDeDup reweighting: per-row 1e6 // md5-cluster-size in exact
        # integer micro-units — DuckDB's // is the same floor division
        "soft_dedup_weights_doubled": r"""
            WITH d AS (SELECT doc_id, md5(coalesce(text, '')) AS digest
                       FROM documents
                       UNION ALL
                       SELECT doc_id + 1000000, md5(coalesce(text, ''))
                       FROM documents),
            c AS (SELECT digest, cast(count(*) AS BIGINT) AS cluster_size
                  FROM d GROUP BY digest)
            SELECT d.doc_id, d.digest, c.cluster_size,
                   cast(1000000 // c.cluster_size AS BIGINT) AS weight_micro
            FROM d JOIN c USING (digest) ORDER BY d.doc_id""",
        # global rank transform: 0-based row_number over (n_chars, doc_id)
        # and the exact integer percentile — identical floor arithmetic
        "length_percentile_docs": r"""
            WITH r AS (
              SELECT doc_id,
                     cast(n_chars AS BIGINT) AS value,
                     cast(row_number() OVER (ORDER BY n_chars, doc_id) - 1
                          AS BIGINT) AS rank_idx,
                     cast(count(*) OVER () AS BIGINT) AS n
              FROM documents)
            SELECT doc_id, value, rank_idx,
                   cast(rank_idx * 1000000 // n AS BIGINT)
                     AS percentile_micro
            FROM r ORDER BY doc_id""",
        # per-group rank transform: row_number within lang over the same
        # (n_chars, doc_id) order; identical floor percentile
        "lang_percentile_docs": r"""
            WITH r AS (
              SELECT doc_id, lang, n_chars,
                     cast(row_number() OVER (
                          PARTITION BY lang
                          ORDER BY n_chars, doc_id) - 1 AS BIGINT)
                       AS rank_idx,
                     cast(count(*) OVER (PARTITION BY lang) AS BIGINT) AS n
              FROM documents)
            SELECT doc_id, lang, cast(n_chars AS BIGINT) AS n_chars,
                   rank_idx,
                   cast(rank_idx * 1000000 // n AS BIGINT)
                     AS percentile_micro
            FROM r ORDER BY doc_id""",
        # bag-of-words canonical dedup: md5 of the sorted ascii-\w token
        # multiset; +DOUBLE_OFFSET twin with tokens REVERSED (different
        # bytes, same multiset) forces every cluster to collapse. Tokens
        # are [0-9a-z_]-only so list_sort binary collation == Python
        # codepoint sort; min(doc_id) per hash + member count
        "bow_dedup_docs": r"""
            WITH toks AS (
              SELECT doc_id,
                     list_filter(regexp_split_to_array(
                       lower(coalesce(text, '')), '[^0-9a-z_]+'),
                       x -> x <> '') AS w
              FROM documents),
            u AS (
              SELECT doc_id, w FROM toks
              UNION ALL
              SELECT doc_id + 1000000,
                     list_filter(regexp_split_to_array(
                       lower(array_to_string(list_reverse(w), ' ')),
                       '[^0-9a-z_]+'), x -> x <> '')
              FROM toks),
            h AS (
              SELECT doc_id,
                     md5(array_to_string(list_sort(w), ' ')) AS bow_hash
              FROM u)
            SELECT cast(min(doc_id) AS BIGINT) AS doc_id, bow_hash,
                   cast(count(*) AS BIGINT) AS n_members
            FROM h GROUP BY bow_hash ORDER BY doc_id""",
        # composite gate with first-fail reason: the gopher oracle's
        # metric CTE verbatim + the identical ordered CASE chain
        "fineweb_filter_docs": rf"""
            WITH toks AS (
              SELECT doc_id, coalesce(text, '') AS t,
                     list_filter(regexp_split_to_array(coalesce(text, ''),
                                 '\s+'), x -> x <> '') AS w,
                     ({_stop_case_sum()}) AS n_stop
              FROM documents),
            base AS (
              SELECT doc_id, w, n_stop, len(w) AS n_words,
                     length(t) - length(regexp_extract_all(t, '\s'))
                         AS nw_chars,
                     CASE WHEN len(w) >= 2
                          THEN [w[i] || ' ' || w[i+1]
                                FOR i IN range(1, len(w))]
                          ELSE []::VARCHAR[] END AS g2
              FROM toks),
            tw AS (
              SELECT doc_id, max(c) AS top_c FROM (
                SELECT doc_id, count(*) AS c
                FROM (SELECT doc_id, unnest(w) AS word FROM toks)
                GROUP BY doc_id, word)
              GROUP BY doc_id),
            m AS (
              SELECT b.doc_id, cast(b.n_words AS BIGINT) AS n_words,
                     cast(b.nw_chars AS DOUBLE)
                         / greatest(cast(b.n_words AS DOUBLE), 1.0)
                         AS mwl,
                     cast(b.n_stop AS BIGINT) AS n_stop,
                     cast(coalesce(tw.top_c, 0) AS DOUBLE)
                         / greatest(cast(b.n_words AS DOUBLE), 1.0)
                         AS twf,
                     cast(len(b.g2) - len(list_distinct(b.g2)) AS DOUBLE)
                         / greatest(cast(len(b.g2) AS DOUBLE), 1.0)
                         AS dgf
              FROM base b LEFT JOIN tw ON b.doc_id = tw.doc_id)
            SELECT doc_id, n_words,
                   CASE WHEN NOT (n_words BETWEEN 25 AND 500)
                            THEN 'word_count'
                        WHEN NOT (mwl >= 4.0 AND mwl <= 10.0)
                            THEN 'mean_word_len'
                        WHEN NOT (n_stop >= 2) THEN 'stopwords'
                        WHEN NOT (twf <= 0.12) THEN 'top_word'
                        WHEN NOT (dgf <= 0.06) THEN 'dup_2gram'
                        ELSE 'keep' END AS reason,
                   n_words BETWEEN 25 AND 500
                     AND mwl >= 4.0 AND mwl <= 10.0 AND n_stop >= 2
                     AND twf <= 0.12 AND dgf <= 0.06 AS keep
            FROM m ORDER BY doc_id""",
        # script-mix histogram: doc_id%4 grafts reproduced verbatim;
        # counts via exact codepoint-range RE2 classes, space via
        # replace(' ') (U+0020 only — \s parity is NOT assumed),
        # dominant = first-max CASE chain in the engine's fixed order
        "script_mix_docs": r"""
            WITH built AS (
              SELECT doc_id, coalesce(text, '') ||
                     CASE doc_id % 4
                       WHEN 1 THEN ' привет мир'
                       WHEN 2 THEN ' 你好 世界'
                       WHEN 3 THEN ' αβγδ εζ'
                       ELSE '' END AS t
              FROM documents),
            c AS (
              SELECT doc_id, cast(length(t) AS BIGINT) AS n_chars,
                     cast(length(regexp_extract_all(t, '[A-Za-z]'))
                          AS BIGINT) AS n_latin,
                     cast(length(regexp_extract_all(t, '[0-9]'))
                          AS BIGINT) AS n_digit,
                     cast(length(regexp_extract_all(t,
                          '[\x{0400}-\x{04FF}]')) AS BIGINT) AS n_cyrillic,
                     cast(length(regexp_extract_all(t,
                          '[\x{4E00}-\x{9FFF}]')) AS BIGINT) AS n_cjk,
                     cast(length(regexp_extract_all(t,
                          '[\x{0370}-\x{03FF}]')) AS BIGINT) AS n_greek,
                     cast(length(t) - length(replace(t, ' ', ''))
                          AS BIGINT) AS n_space
              FROM built)
            SELECT doc_id, n_chars, n_latin, n_digit, n_cyrillic, n_cjk,
                   n_greek, n_space,
                   n_chars - (n_latin + n_digit + n_cyrillic + n_cjk
                              + n_greek + n_space) AS n_other,
                   CASE WHEN n_latin + n_digit + n_cyrillic + n_cjk
                             + n_greek = 0 THEN 'none'
                        WHEN n_latin >= greatest(n_digit, n_cyrillic,
                             n_cjk, n_greek) THEN 'latin'
                        WHEN n_digit >= greatest(n_cyrillic, n_cjk,
                             n_greek) THEN 'digit'
                        WHEN n_cyrillic >= greatest(n_cjk, n_greek)
                             THEN 'cyrillic'
                        WHEN n_cjk >= n_greek THEN 'cjk'
                        ELSE 'greek' END AS dominant_script,
                   cast((n_cyrillic + n_cjk + n_greek) * 1000000
                        // greatest(n_chars, 1) AS BIGINT)
                     AS mix_frac_micro
            FROM c ORDER BY doc_id""",
        # count-min sketch: cell(d,b) = Σ counts of words hashing to b at
        # depth d (md5-prefix hash32 of 'd:word' mod 1024); estimate =
        # min over depths — identical integer arithmetic both sides
        "cms_word_counts": rf"""
            WITH w AS (
              SELECT unnest(list_filter(
                       regexp_split_to_array(coalesce(text, ''), '\s+'),
                       x -> x <> '')) AS w
              FROM documents),
            c AS (SELECT w, cast(count(*) AS BIGINT) AS c
                  FROM w GROUP BY w),
            d(d) AS (VALUES (0), (1), (2), (3)),
            cells AS (
              SELECT d.d AS depth,
                     cast(cast(('0x' || substring(md5(
                            cast(d.d AS VARCHAR) || ':' || c.w), 1, 8))
                          AS UBIGINT) % 1024 AS BIGINT) AS bucket,
                     cast(sum(c.c) AS BIGINT) AS cnt
              FROM c CROSS JOIN d GROUP BY 1, 2),
            p(word) AS (VALUES {_cms_probe_values()}),
            pb AS (SELECT p.word, d.d AS depth,
                          cast(cast(('0x' || substring(md5(
                                 cast(d.d AS VARCHAR) || ':' || p.word),
                                 1, 8)) AS UBIGINT) % 1024 AS BIGINT)
                            AS bucket
                   FROM p CROSS JOIN d)
            SELECT pb.word,
                   cast(min(coalesce(cells.cnt, 0)) AS BIGINT)
                     AS est_count
            FROM pb LEFT JOIN cells USING (depth, bucket)
            GROUP BY pb.word ORDER BY pb.word""",
        # SoftDeDup sampling: the weight table filtered by the shared
        # deterministic Bernoulli rule (keep ⇔ hash·1e6 < weight·2^32)
        "soft_dedup_sampled_docs": r"""
            WITH d AS (SELECT doc_id, md5(coalesce(text, '')) AS digest
                       FROM documents
                       UNION ALL
                       SELECT doc_id + 1000000, md5(coalesce(text, ''))
                       FROM documents),
            c AS (SELECT digest, cast(count(*) AS BIGINT) AS cluster_size
                  FROM d GROUP BY digest),
            w AS (SELECT d.doc_id, c.cluster_size,
                         cast(1000000 // c.cluster_size AS BIGINT)
                           AS weight_micro
                  FROM d JOIN c USING (digest))
            SELECT doc_id, cluster_size, weight_micro FROM w
            WHERE cast(('0x' || substring(md5(cast(doc_id AS VARCHAR)),
                       1, 8)) AS UBIGINT) * 1000000
                  < cast(weight_micro AS UBIGINT) * 4294967296
            ORDER BY doc_id""",
        # LLaMA-recipe epoch plan: per-source inventory + proportional
        # integer budget allocation; all divisions floor so values are
        # exact
        "source_epoch_plan": r"""
            WITH s AS (
              SELECT source,
                     cast(count(*) AS BIGINT) AS n_docs,
                     cast(coalesce(sum(len(regexp_extract_all(
                       coalesce(text, ''), '\S+'))), 0) AS BIGINT)
                       AS n_tokens,
                     cast(1 + cast(substring(source, 4) AS BIGINT) % 4
                          AS BIGINT) AS rel_weight
              FROM documents GROUP BY source),
            t AS (SELECT cast(sum(rel_weight) AS BIGINT) AS total_rel
                  FROM s),
            p AS (SELECT s.*,
                         cast(1000000 * s.rel_weight // t.total_rel
                              AS BIGINT) AS target_tokens
                  FROM s CROSS JOIN t),
            e AS (SELECT *,
                         CASE WHEN n_tokens > 0
                              THEN cast(target_tokens * 1000000
                                        // n_tokens AS BIGINT)
                              ELSE 0 END AS epochs_micro
                  FROM p)
            SELECT source, n_docs, n_tokens, rel_weight, target_tokens,
                   epochs_micro,
                   cast(n_tokens * epochs_micro // 1000000 AS BIGINT)
                     AS effective_tokens
            FROM e ORDER BY source""",
        # deterministic seeded global shuffle: rank = row_number over the
        # identical (md5('s0:'||id), id) lexicographic order the engine's
        # bucketed prefix-sum produces without a global sort
        "shuffle_order_docs": r"""
            SELECT doc_id,
                   md5('s0:' || cast(doc_id AS VARCHAR)) AS shuffle_hash,
                   cast(row_number() OVER (
                        ORDER BY md5('s0:' || cast(doc_id AS VARCHAR)),
                                 doc_id) - 1 AS BIGINT) AS shuffle_rank,
                   cast((row_number() OVER (
                        ORDER BY md5('s0:' || cast(doc_id AS VARCHAR)),
                                 doc_id) - 1) % 8 AS BIGINT) AS shard
            FROM documents ORDER BY doc_id""",
        # exact integer normal equations: BIGINT sums of x=\S+ tokens,
        # y=char length; Cramer numerators/denominator in BIGINT; floats
        # from the same cast-then-divide order as the engine
        "length_fit_docs": r"""
            WITH f AS (
              SELECT cast(len(list_filter(
                       regexp_split_to_array(coalesce(text, ''), '\s+'),
                       t -> t <> '')) AS BIGINT) AS x,
                     cast(length(coalesce(text, '')) AS BIGINT) AS y
              FROM documents),
            s AS (SELECT cast(count(*) AS BIGINT) AS n_docs,
                         cast(coalesce(sum(x), 0) AS BIGINT) AS sum_x,
                         cast(coalesce(sum(y), 0) AS BIGINT) AS sum_y,
                         cast(coalesce(sum(x * x), 0) AS BIGINT) AS sum_xx,
                         cast(coalesce(sum(x * y), 0) AS BIGINT) AS sum_xy
                  FROM f)
            SELECT n_docs, sum_x, sum_y, sum_xx, sum_xy,
                   cast(n_docs * sum_xx - sum_x * sum_x AS BIGINT) AS den,
                   cast(n_docs * sum_xy - sum_x * sum_y AS BIGINT)
                     AS slope_num,
                   cast(sum_y * sum_xx - sum_x * sum_xy AS BIGINT)
                     AS intercept_num,
                   CASE WHEN n_docs * sum_xx - sum_x * sum_x = 0 THEN 0.0
                        ELSE cast(n_docs * sum_xy - sum_x * sum_y AS DOUBLE)
                             / cast(n_docs * sum_xx - sum_x * sum_x
                                    AS DOUBLE) END AS slope,
                   CASE WHEN n_docs * sum_xx - sum_x * sum_x = 0 THEN 0.0
                        ELSE cast(sum_y * sum_xx - sum_x * sum_xy AS DOUBLE)
                             / cast(n_docs * sum_xx - sum_x * sum_x
                                    AS DOUBLE) END AS intercept
            FROM s""",
        # exact word-3-gram Jaccard between adjacent doc_ids; gram semantics
        # mirror dedup.ngram_set: lowercase, whitespace split, <3 words →
        # single joined gram, empty text → empty set (pair of empties → 1.0)
        # full MinHash LSH in SQL — see _minhash_md5_sql
        "minhash_pairs_md5_doubled": _minhash_md5_sql(),
        # incremental near-dedup: the SAME md5-minhash candidate chain,
        # split by the incremental_dedup 50% doc_id-hash snapshot rule;
        # keep only mixed (old, new) band pairs — the engine's old×new
        # rectangle sweep equals the full self-join filtered to mixed
        "near_dedup_incremental": _minhash_md5_sql(final_sql=r"""
            , o AS (SELECT doc_id,
                      cast(('0x' || substring(md5(cast(doc_id AS VARCHAR)),
                            1, 8)) AS UBIGINT)
                        < cast(4294967296 * 50 // 100 AS UBIGINT) AS is_old
                    FROM dd)
            SELECT CASE WHEN oa.is_old THEN e.id_b ELSE e.id_a END
                     AS new_id,
                   CASE WHEN oa.is_old THEN e.id_a ELSE e.id_b END
                     AS old_id,
                   CAST(k AS DOUBLE) / 16.0 AS est_jaccard
            FROM eq e JOIN o oa ON oa.doc_id = e.id_a
                      JOIN o ob ON ob.doc_id = e.id_b
            WHERE oa.is_old <> ob.is_old
              AND CAST(k AS DOUBLE) / 16.0 >= 0.5
            ORDER BY new_id, old_id"""),
        "edit_verified_pairs_doubled": _edit_verified_sql(),
        "ngram_jaccard_adjacent": r"""
            WITH words AS (
              SELECT doc_id,
                     list_filter(regexp_split_to_array(
                         lower(coalesce(text, '')), '\s+'),
                                 x -> x <> '') AS w
              FROM documents),
            grams AS (
              SELECT doc_id,
                     CASE WHEN len(w) = 0 THEN []::VARCHAR[]
                          WHEN len(w) < 3 THEN [array_to_string(w, ' ')]
                          ELSE list_distinct([array_to_string(w[i:i+2], ' ')
                                              FOR i IN range(1, len(w) - 1)])
                     END AS g
              FROM words)
            SELECT a.doc_id AS id_a, b.doc_id AS id_b,
                   CASE WHEN len(a.g) = 0 AND len(b.g) = 0 THEN 1.0
                        ELSE cast(len(list_intersect(a.g, b.g)) AS DOUBLE)
                             / cast(len(list_distinct(list_concat(a.g, b.g))) AS DOUBLE)
                   END AS jaccard
            FROM grams a JOIN grams b ON b.doc_id = a.doc_id + 1
            ORDER BY id_a""",
        # Q3-shape: large-large hash join + filtered scans on both sides
        "unshipped_orders_topk": r"""
            SELECT l_orderkey AS o_orderkey, o_orderdate, o_orderpriority,
                   sum(cast(round(l_extendedprice*(1.0 - l_discount)*10000, 0) AS BIGINT))/10000.0 AS revenue
            FROM lineitem JOIN orders ON l_orderkey = o_orderkey
            WHERE o_orderdate < TIMESTAMP '1998-06-01'
              AND l_shipdate > TIMESTAMP '1998-06-01'
            GROUP BY 1, 2, 3 ORDER BY revenue DESC, o_orderkey LIMIT 10""",
        # Q5-shape: fact ⨝ composed dimension chain
        "regional_revenue": r"""
            SELECT r.r_name, count(*) AS n_items,
                   sum(cast(round(l.l_extendedprice*(1.0 - l.l_discount)*10000, 0) AS BIGINT))/10000.0 AS revenue
            FROM lineitem l
            JOIN supplier s ON l.l_suppkey = s.s_suppkey
            JOIN nation n ON s.s_nationkey = n.n_nationkey
            JOIN region r ON n.n_regionkey = r.r_regionkey
            GROUP BY 1 ORDER BY 1""",
        # running-total window: cumulative monthly revenue
        "monthly_cumulative_revenue": r"""
            WITH m AS (
              SELECT date_trunc('month', o_orderdate) AS month,
                     sum(cast(round(o_totalprice*100, 0) AS BIGINT))
                         AS rev_c
              FROM orders GROUP BY 1)
            SELECT cast(month AS TIMESTAMP) AS month,
                   cast(rev_c AS DOUBLE)/100.0 AS revenue,
                   cast(sum(rev_c) OVER (ORDER BY month) AS DOUBLE)/100.0
                       AS cum_revenue
            FROM m ORDER BY month""",
        # ratio-to-parent: per-nation revenue + share of its region total
        "nation_revenue_share": r"""
            WITH a AS (
              SELECT r.r_name, n.n_name,
                     sum(cast(round(l.l_extendedprice*(1.0 - l.l_discount)
                              *10000, 0) AS BIGINT)) AS rev_c
              FROM lineitem l
              JOIN supplier s ON l.l_suppkey = s.s_suppkey
              JOIN nation n ON s.s_nationkey = n.n_nationkey
              JOIN region r ON n.n_regionkey = r.r_regionkey
              GROUP BY 1, 2)
            SELECT r_name, n_name,
                   cast(rev_c AS DOUBLE)/10000.0 AS revenue,
                   cast(rev_c AS DOUBLE)
                     / cast(sum(rev_c) OVER (PARTITION BY r_name)
                            AS DOUBLE) AS region_share
            FROM a ORDER BY r_name, n_name""",
        # backward as-of join via last_value IGNORE NULLS over (ts, event_id)
        "clicks_last_view": r"""
            WITH t AS (
              SELECT event_id, user_id, ts, event_type,
                     CASE WHEN event_type = 'view' THEN ts END AS vts,
                     CASE WHEN event_type = 'view' THEN cast(event_id AS DOUBLE) END AS vid
              FROM events WHERE event_type IN ('view', 'click')),
            f AS (
              SELECT event_id, user_id, ts, event_type,
                     last_value(vts IGNORE NULLS) OVER w AS last_view_ts,
                     last_value(vid IGNORE NULLS) OVER w AS last_view_event_id
              FROM t
              WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id
                           ROWS UNBOUNDED PRECEDING))
            SELECT event_id, user_id, ts, last_view_ts, last_view_event_id
            FROM f WHERE event_type = 'click' ORDER BY user_id, ts, event_id""",
        # mergeable moments: exact integer-cent (n, Σc, Σc²) per type,
        # mean/variance expressions on identical doubles (IEEE sqrt is
        # correctly rounded, so stddev agrees bit-for-bit too)
        "event_value_stats": r"""
            WITH m AS (
              SELECT event_type, count(value) AS n,
                     sum(cast(round(value*100, 0) AS BIGINT)) AS sum_c,
                     sum(cast(round(value*100, 0) AS BIGINT)
                         * cast(round(value*100, 0) AS BIGINT)) AS sumsq_c
              FROM events WHERE value IS NOT NULL GROUP BY 1)
            SELECT event_type, cast(n AS BIGINT) AS n_values,
                   cast(sum_c AS DOUBLE) / (cast(n AS DOUBLE) * 100.0)
                       AS mean_value,
                   (cast(sumsq_c AS DOUBLE) / cast(n AS DOUBLE)
                    - (cast(sum_c AS DOUBLE) / cast(n AS DOUBLE))
                      * (cast(sum_c AS DOUBLE) / cast(n AS DOUBLE)))
                       / 10000.0 AS var_pop,
                   sqrt((cast(sumsq_c AS DOUBLE) / cast(n AS DOUBLE)
                    - (cast(sum_c AS DOUBLE) / cast(n AS DOUBLE))
                      * (cast(sum_c AS DOUBLE) / cast(n AS DOUBLE)))
                       / 10000.0) AS stddev_pop
            FROM m ORDER BY 1""",
        # banded interval join: purchases in (click_ts, click_ts+30min]
        # per user; exact integer µs gaps
        "purchases_after_click": r"""
            SELECT c.user_id, c.event_id AS click_event_id,
                   p.event_id AS purchase_event_id,
                   date_diff('microsecond', c.ts, p.ts) AS gap_us
            FROM (SELECT * FROM events WHERE event_type = 'click') c
            JOIN (SELECT * FROM events WHERE event_type = 'purchase') p
              ON c.user_id = p.user_id AND p.ts > c.ts
                 AND p.ts <= c.ts + INTERVAL '30' MINUTE
            ORDER BY 1, 2, 3""",
        # range join against the inline band interval table
        "quantity_band_stats": r"""
            WITH bands(lo, hi, band) AS (VALUES
              (1.0, 10.0, 'XS'), (10.0, 20.0, 'S'), (20.0, 30.0, 'M'),
              (30.0, 40.0, 'L'), (40.0, 51.0, 'XL'))
            SELECT b.band, count(*) AS n_items,
                   sum(cast(round(l_extendedprice*(1.0 - l_discount)*10000, 0) AS BIGINT))/10000.0 AS revenue
            FROM lineitem l JOIN bands b
              ON l.l_quantity >= b.lo AND l.l_quantity < b.hi
            GROUP BY 1 ORDER BY 1""",
        # discrete quantiles: actual elements, no interpolation — exact
        "event_value_quantiles": r"""
            SELECT event_type, count(*) AS n_events,
                   min(value) AS min_value, max(value) AS max_value,
                   quantile_disc(value, 0.25) AS p25,
                   quantile_disc(value, 0.5) AS p50,
                   quantile_disc(value, 0.75) AS p75,
                   quantile_disc(value, 0.9) AS p90
            FROM events GROUP BY 1 ORDER BY 1""",
        # two-pass histogram refinement computes the SAME discrete
        # quantiles as the per-group sort — one oracle, two engines
        "scalable_quantiles": r"""
            SELECT event_type, count(*) AS n_events,
                   min(value) AS min_value, max(value) AS max_value,
                   quantile_disc(value, 0.25) AS p25,
                   quantile_disc(value, 0.5) AS p50,
                   quantile_disc(value, 0.75) AS p75,
                   quantile_disc(value, 0.9) AS p90
            FROM events GROUP BY 1 ORDER BY 1""",
        "distinct_users_hourly": r"""
            SELECT date_trunc('hour', ts) AS hour,
                   count(DISTINCT user_id) AS n_users
            FROM events GROUP BY 1 ORDER BY 1""",
        # lag window: exact µs gap sums divided to seconds once
        "user_event_gaps": r"""
            WITH g AS (
              SELECT user_id,
                     date_diff('microsecond',
                               lag(ts) OVER (PARTITION BY user_id ORDER BY ts, event_id),
                               ts) AS gap_us
              FROM events)
            SELECT user_id, count(*) AS n_events,
                   count(gap_us) AS n_gaps,
                   sum(gap_us)/(count(gap_us)*1000000.0) AS avg_gap_s,
                   max(gap_us)/1000000.0 AS max_gap_s
            FROM g GROUP BY 1 ORDER BY 1""",
        # broadcast semi-join: only the key set ships
        "segment_order_priorities": r"""
            SELECT o_orderpriority, count(*) AS n_orders
            FROM orders
            WHERE o_custkey IN (SELECT c_custkey FROM customer
                                WHERE c_mktsegment = 'BUILDING')
            GROUP BY 1 ORDER BY 1""",
        # left-outer join with real null rows → count(col) semantics
        "orders_late_items": r"""
            SELECT o_orderkey, count(l_orderkey) AS n_late_items
            FROM orders LEFT JOIN (
              SELECT l_orderkey FROM lineitem
              WHERE l_shipdate > TIMESTAMP '1998-06-01') l
            ON o_orderkey = l.l_orderkey
            GROUP BY 1 ORDER BY 1""",
        # argmax-row dedup: the newest event per user under the total
        # order (ts DESC, event_id DESC) — value-exact check of the
        # generic latest_rows_per_key capture-dedup operator
        "latest_event_per_user": r"""
            SELECT event_id, ts, user_id, event_type, value
            FROM (SELECT *, row_number() OVER (
                      PARTITION BY user_id
                      ORDER BY ts DESC, event_id DESC) AS rn
                  FROM events)
            WHERE rn = 1 ORDER BY user_id""",
        # set ops over derived key sets
        "users_click_and_purchase": r"""
            SELECT user_id FROM events WHERE event_type = 'click'
            INTERSECT
            SELECT user_id FROM events WHERE event_type = 'purchase'
            ORDER BY user_id""",
        "viewers_never_purchased": r"""
            SELECT user_id FROM events WHERE event_type = 'view'
            EXCEPT
            SELECT user_id FROM events WHERE event_type = 'purchase'
            ORDER BY user_id""",
        # JSON field extraction via the same RE2 pattern on both sides
        "props_k_stats": r"""
            WITH p AS (
              SELECT event_type,
                     cast(nullif(regexp_extract(props, '"k":\s*(-?\d+)', 1), '')
                          AS BIGINT) AS k
              FROM events)
            SELECT event_type, count(*) AS n_events,
                   cast(count(*) - count(k) AS BIGINT) AS n_unparsed,
                   cast(sum(coalesce(k, 0)) AS BIGINT) AS sum_k,
                   sum(coalesce(k, 0)) / (count(k)*1.0) AS avg_k
            FROM p GROUP BY 1 ORDER BY 1""",
        # cohort table: first-seen day joined back to distinct activity days
        "cohort_retention": r"""
            WITH f AS (SELECT user_id, date_trunc('day', min(ts)) AS cohort
                       FROM events GROUP BY 1),
            a AS (SELECT DISTINCT e.user_id, f.cohort,
                         date_diff('day', f.cohort, date_trunc('day', e.ts)) AS age_days
                  FROM events e JOIN f ON e.user_id = f.user_id)
            SELECT cohort, age_days, count(*) AS n_users
            FROM a GROUP BY 1, 2 ORDER BY 1, 2""",
        # month-over-month revenue delta (lag over the bounded month agg)
        "monthly_revenue_growth": r"""
            WITH m AS (
              SELECT date_trunc('month', o_orderdate) AS month,
                     count(*) AS n_orders,
                     sum(cast(round(o_totalprice*100, 0) AS BIGINT)) AS rev_c
              FROM orders GROUP BY 1)
            SELECT month, n_orders, rev_c/100.0 AS revenue,
                   (rev_c - lag(rev_c) OVER (ORDER BY month))/100.0 AS delta
            FROM m ORDER BY month""",
        # ordered-milestone funnel: conditional mins + null-aware stages
        "conversion_funnel": r"""
            WITH m AS (
              SELECT user_id,
                     min(ts) FILTER (event_type = 'view') AS t_view,
                     min(ts) FILTER (event_type = 'click') AS t_click,
                     min(ts) FILTER (event_type = 'purchase') AS t_purchase
              FROM events GROUP BY 1)
            SELECT user_id, t_view, t_click, t_purchase,
                   (CASE WHEN t_view IS NOT NULL THEN 1 ELSE 0 END)
                   + (CASE WHEN t_view IS NOT NULL AND t_click > t_view
                           THEN 1 ELSE 0 END)
                   + (CASE WHEN t_view IS NOT NULL AND t_click > t_view
                                AND t_purchase > t_click
                           THEN 1 ELSE 0 END) AS stage
            FROM m ORDER BY user_id""",
        # fixed-width histogram: identical floor-divide on both sides
        "value_histogram": r"""
            SELECT event_type, cast(floor(value/50.0) AS BIGINT) AS bin,
                   count(*) AS n_events,
                   sum(cast(round(value*100, 0) AS BIGINT))/100.0 AS sum_value
            FROM events GROUP BY 1, 2 ORDER BY 1, 2""",
        # pivot via conditional aggregation (count FILTER per category)
        "events_hourly_pivot": r"""
            SELECT date_trunc('hour', ts) AS hour,
                   count(*) FILTER (event_type = 'click') AS n_click,
                   count(*) FILTER (event_type = 'error') AS n_error,
                   count(*) FILTER (event_type = 'purchase') AS n_purchase,
                   count(*) FILTER (event_type = 'signup') AS n_signup,
                   count(*) FILTER (event_type = 'view') AS n_view
            FROM events GROUP BY 1 ORDER BY 1""",
        # grouping sets: subtotal levels carry the '<all>' sentinel
        "lang_source_rollup": r"""
            SELECT coalesce(lang, '<all>') AS lang,
                   coalesce(source, '<all>') AS source,
                   count(*) AS n_docs,
                   cast(sum(n_chars) AS BIGINT) AS total_chars
            FROM documents GROUP BY ROLLUP(lang, source)
            ORDER BY 1, 2""",
        # benchmark decontamination: distinct word-8-gram overlap vs the
        # 10 smallest-doc_id docs; gram semantics mirror dedup.ngram_set
        "decontaminate_docs": r"""
            WITH words AS (
              SELECT doc_id,
                     list_filter(regexp_split_to_array(
                         lower(coalesce(text, '')), '\s+'),
                                 x -> x <> '') AS w
              FROM documents),
            grams AS (
              SELECT doc_id,
                     CASE WHEN len(w) = 0 THEN []::VARCHAR[]
                          WHEN len(w) < 8 THEN [array_to_string(w, ' ')]
                          ELSE list_distinct([array_to_string(w[i:i+7], ' ')
                                              FOR i IN range(1, len(w) - 6)])
                     END AS g
              FROM words),
            bench AS (
              SELECT list_distinct(flatten(array_agg(g))) AS bg
              FROM grams WHERE doc_id IN (
                SELECT doc_id FROM documents ORDER BY doc_id LIMIT 10)),
            hits AS (
              SELECT doc_id,
                     cast(len(list_intersect(g, b.bg)) AS BIGINT) AS n_hits
              FROM grams CROSS JOIN bench b)
            SELECT doc_id, n_hits, n_hits >= 1 AS contaminated
            FROM hits ORDER BY doc_id""",
        # per-source boilerplate vocabulary: words in >= 9/10 of a source's
        # docs (integer threshold rule — no float boundary ambiguity);
        # tokenizer mirrors the engine's whitespace split with empties
        # dropped, null text contributes no words but counts as a doc
        "boilerplate_vocab": r"""
            WITH w AS (
              SELECT doc_id, source,
                     unnest(list_distinct(list_filter(
                         regexp_split_to_array(coalesce(text, ''), '\s+'),
                         x -> x <> ''))) AS word
              FROM documents),
            nd AS (SELECT source, count(*) AS n_docs
                   FROM documents GROUP BY 1)
            SELECT w.source, word,
                   count(*) AS n_docs_with,
                   cast(count(*) AS DOUBLE) / any_value(nd.n_docs) AS doc_frac
            FROM w JOIN nd ON w.source = nd.source
            GROUP BY w.source, word
            HAVING count(*) * 10 >= 9 * any_value(nd.n_docs)
            ORDER BY 1, 2""",
        # boilerplate removal: strip each source's vocabulary words and
        # whitespace-normalize (single-space join), counting removals
        "boilerplate_scrubbed_docs": r"""
            WITH w AS (
              SELECT doc_id, source,
                     unnest(list_distinct(list_filter(
                         regexp_split_to_array(coalesce(text, ''), '\s+'),
                         x -> x <> ''))) AS word
              FROM documents),
            nd AS (SELECT source, count(*) AS n_docs
                   FROM documents GROUP BY 1),
            vocab AS (
              SELECT w.source, word
              FROM w JOIN nd ON w.source = nd.source
              GROUP BY w.source, word
              HAVING count(*) * 10 >= 9 * any_value(nd.n_docs)),
            v2 AS (SELECT source, list(word) AS ws FROM vocab GROUP BY 1),
            split AS (
              SELECT d.doc_id,
                     list_filter(regexp_split_to_array(
                         coalesce(d.text, ''), '\s+'), x -> x <> '') AS toks,
                     coalesce(v2.ws, []::VARCHAR[]) AS ws
              FROM documents d LEFT JOIN v2 ON d.source = v2.source)
            SELECT doc_id,
                   coalesce(array_to_string(
                       list_filter(toks, x -> NOT list_contains(ws, x)),
                       ' '), '') AS clean_text,
                   cast(len(toks) - len(list_filter(
                       toks, x -> NOT list_contains(ws, x))) AS BIGINT)
                       AS n_removed
            FROM split ORDER BY doc_id""",
        # end-to-end curation: scrub -> quality gate on clean_text ->
        # decontaminate vs the 10-smallest-doc_id benchmark's RAW-text
        # 8-grams -> exact dedup (min doc_id per distinct clean_text).
        # Every stage reuses the already-value-exact per-stage oracles as
        # CTEs, so the composition is exact end to end.
        "curated_docs": rf"""
            WITH w AS (
              SELECT doc_id, source,
                     unnest(list_distinct(list_filter(
                         regexp_split_to_array(coalesce(text, ''), '\s+'),
                         x -> x <> ''))) AS word
              FROM documents),
            nd AS (SELECT source, count(*) AS n_docs
                   FROM documents GROUP BY 1),
            vocab AS (
              SELECT w.source, word
              FROM w JOIN nd ON w.source = nd.source
              GROUP BY w.source, word
              HAVING count(*) * 10 >= 9 * any_value(nd.n_docs)),
            v2 AS (SELECT source, list(word) AS ws FROM vocab GROUP BY 1),
            scrubbed AS (
              SELECT d.doc_id,
                     array_to_string(list_filter(
                         list_filter(regexp_split_to_array(
                             coalesce(d.text, ''), '\s+'), x -> x <> ''),
                         x -> NOT list_contains(
                             coalesce(v2.ws, []::VARCHAR[]), x)),
                         ' ') AS clean_text
              FROM documents d LEFT JOIN v2 ON d.source = v2.source),
            c AS (
              SELECT doc_id, clean_text,
                     length(clean_text) AS n_chars,
                     length(regexp_extract_all(clean_text, '\S+')) AS n_words,
                     length(regexp_extract_all(lower(clean_text), '\w+')) AS n_tokens,
                     length(regexp_extract_all(clean_text, '[^\w\s]')) AS n_punct,
                     length(regexp_extract_all(lower(clean_text), '{alt}')) AS n_stop
              FROM scrubbed),
            q AS (
              SELECT doc_id, clean_text, n_words,
                     (least(cast(n_words AS DOUBLE)/50.0, 1.0)*0.4
                      + (cast(n_stop AS DOUBLE)
                         / greatest(cast(n_tokens AS DOUBLE), 1.0))*0.3)
                     + ((1.0 - least((cast(n_punct AS DOUBLE)
                         / greatest(cast(n_chars AS DOUBLE), 1.0))*5.0,
                         1.0))*0.3) AS quality_score
              FROM c),
            cw AS (
              SELECT doc_id, clean_text, n_words, quality_score,
                     list_filter(regexp_split_to_array(
                         lower(clean_text), '\s+'), x -> x <> '') AS w2
              FROM q),
            grams AS (
              SELECT doc_id, clean_text, n_words, quality_score,
                     CASE WHEN len(w2) = 0 THEN []::VARCHAR[]
                          WHEN len(w2) < 8 THEN [array_to_string(w2, ' ')]
                          ELSE list_distinct([array_to_string(w2[i:i+7], ' ')
                                              FOR i IN range(1, len(w2) - 6)])
                     END AS g
              FROM cw),
            benchw AS (
              SELECT list_filter(regexp_split_to_array(
                         lower(coalesce(text, '')), '\s+'),
                     x -> x <> '') AS w2
              FROM documents WHERE doc_id IN (
                SELECT doc_id FROM documents ORDER BY doc_id LIMIT 10)),
            benchg AS (
              SELECT list_distinct(flatten(array_agg(
                  CASE WHEN len(w2) = 0 THEN []::VARCHAR[]
                       WHEN len(w2) < 8 THEN [array_to_string(w2, ' ')]
                       ELSE list_distinct([array_to_string(w2[i:i+7], ' ')
                                           FOR i IN range(1, len(w2) - 6)])
                  END))) AS bg
              FROM benchw),
            kept AS (
              SELECT g.doc_id, g.clean_text, g.n_words, g.quality_score
              FROM grams g CROSS JOIN benchg b
              WHERE g.quality_score >= 0.5 AND g.n_words >= 20
                AND len(list_intersect(g.g, b.bg)) < 1)
            SELECT min(doc_id) AS doc_id, clean_text,
                   min(n_words) AS n_words,
                   min(quality_score) AS quality_score
            FROM kept GROUP BY clean_text ORDER BY doc_id""",
        # RAG chunking: 120-char windows at stride 80; chunk k covers
        # [k*80, k*80+120); empty docs produce no chunks
        "chunk_docs": r"""
            WITH c AS (
              SELECT doc_id,
                     [substring(t, i, 120)
                      FOR i IN range(1, length(t) + 1, 80)] AS cs
              FROM (SELECT doc_id, coalesce(text, '') AS t
                    FROM documents))
            SELECT doc_id,
                   cast(generate_subscripts(cs, 1) - 1 AS BIGINT)
                       AS chunk_idx,
                   unnest(cs) AS chunk_text,
                   cast(length(unnest(cs)) AS BIGINT) AS n_chars
            FROM c ORDER BY doc_id, chunk_idx""",
        # deterministic 90/5/5 split by md5(doc_id) hash ranges
        "train_val_test_split": r"""
            SELECT doc_id,
                   CASE WHEN h < cast(4294967296 * 90 // 100 AS UBIGINT)
                          THEN 'train'
                        WHEN h < cast(4294967296 * 95 // 100 AS UBIGINT)
                          THEN 'val'
                        ELSE 'test' END AS split
            FROM (SELECT doc_id,
                         cast(('0x' || substring(
                             md5(cast(doc_id AS VARCHAR)), 1, 8))
                             AS UBIGINT) AS h
                  FROM documents)
            ORDER BY doc_id""",
        # canonical normalization: lowercase + whitespace collapse +
        # edge trim; value-exact string compare
        "normalize_docs": r"""
            SELECT doc_id,
                   trim(regexp_replace(lower(coalesce(text, '')),
                        '\s+', ' ', 'g'), ' ') AS norm_text,
                   cast(length(coalesce(text, ''))
                        - length(trim(regexp_replace(
                              lower(coalesce(text, '')), '\s+', ' ', 'g'),
                              ' ')) AS BIGINT) AS n_removed_chars
            FROM documents ORDER BY doc_id""",
        # Unicode NFC: CPython unicodedata ≡ DuckDB utf8proc
        # nfc_normalize byte-for-byte (differential-verified); length()
        # counts codepoints on both sides
        "nfc_docs": r"""
            SELECT doc_id,
                   nfc_normalize(coalesce(text, '')) AS nfc_text,
                   nfc_normalize(coalesce(text, ''))
                       <> coalesce(text, '') AS changed,
                   cast(length(coalesce(text, '')) AS BIGINT) AS n_cp,
                   cast(length(nfc_normalize(coalesce(text, '')))
                        AS BIGINT) AS n_cp_nfc
            FROM documents ORDER BY doc_id""",
        # deterministic data mixing: equal token budget per source
        # (total/4 ÷ n_sources), per-source rate = min(1, budget/tokens),
        # membership = md5(doc_id) under floor(2^32·rate) — identical
        # IEEE doubles on both sides, so the float threshold agrees
        "mixed_sample_docs": r"""
            WITH tc AS (
              SELECT doc_id, source,
                     cast(length(regexp_extract_all(coalesce(text, ''),
                          '\S+')) AS BIGINT) AS n_tokens
              FROM documents),
            st AS (SELECT source, cast(sum(n_tokens) AS BIGINT) AS tok
                   FROM tc GROUP BY 1),
            gl AS (SELECT cast(sum(tok) AS BIGINT) // 4 AS target,
                          count(*) AS ns FROM st),
            r AS (SELECT st.source,
                         least(1.0, (cast(gl.target AS DOUBLE) / gl.ns)
                                    / cast(st.tok AS DOUBLE)) AS rate
                  FROM st CROSS JOIN gl)
            SELECT t.doc_id, t.source, t.n_tokens
            FROM tc t JOIN r ON t.source = r.source
            WHERE cast(('0x' || substring(md5(cast(t.doc_id AS VARCHAR)),
                        1, 8)) AS UBIGINT)
                  < cast(floor(4294967296.0 * r.rate) AS UBIGINT)
            ORDER BY t.doc_id""",
        # per-(source, lang) datasheet rollup: int-exact sums, averages
        # as float division of those sums on both sides
        "corpus_datasheet": r"""
            SELECT source, lang,
                   cast(count(*) AS BIGINT) AS n_docs,
                   cast(sum(length(regexp_extract_all(coalesce(text, ''),
                        '\S+'))) AS BIGINT) AS total_tokens,
                   cast(sum(length(coalesce(text, ''))) AS BIGINT)
                       AS total_chars,
                   cast(cast(sum(length(regexp_extract_all(
                        coalesce(text, ''), '\S+'))) AS BIGINT) AS DOUBLE)
                       / cast(count(*) AS DOUBLE) AS avg_tokens,
                   cast(cast(sum(length(coalesce(text, ''))) AS BIGINT)
                        AS DOUBLE) / cast(count(*) AS DOUBLE) AS avg_chars
            FROM documents GROUP BY source, lang ORDER BY source, lang""",
        # α-temperature source mixing: share w_s = tok^0.7 / Σ tok^0.7;
        # the Σ is a defined LEFT FOLD over lexicographically-ordered
        # sources (list_reduce == functools.reduce) so the only
        # cross-source float matches the engine bit-for-bit
        "temperature_mixed_docs": r"""
            WITH tc AS (
              SELECT doc_id, source,
                     cast(length(regexp_extract_all(coalesce(text, ''),
                          '\S+')) AS BIGINT) AS n_tokens
              FROM documents),
            st AS (SELECT source, cast(sum(n_tokens) AS BIGINT) AS tok
                   FROM tc GROUP BY 1),
            gl AS (SELECT cast(sum(tok) AS BIGINT) // 4 AS target,
                          list_reduce(
                            list(pow(cast(tok AS DOUBLE), 0.7)
                                 ORDER BY source),
                            (x, y) -> x + y) AS den
                   FROM st),
            r AS (SELECT st.source,
                         CASE WHEN st.tok = 0 THEN 1.0
                              ELSE least(1.0,
                                   (cast(gl.target AS DOUBLE)
                                    * (pow(cast(st.tok AS DOUBLE), 0.7)
                                       / gl.den))
                                   / cast(st.tok AS DOUBLE)) END AS rate
                  FROM st CROSS JOIN gl)
            SELECT t.doc_id, t.source, t.n_tokens
            FROM tc t JOIN r ON t.source = r.source
            WHERE cast(('0x' || substring(md5(cast(t.doc_id AS VARCHAR)),
                        1, 8)) AS UBIGINT)
                  < cast(floor(4294967296.0 * r.rate) AS UBIGINT)
            ORDER BY t.doc_id""",
        # two-pass Misra-Gries heavy hitters: candidate pool covers every
        # word with corpus share > 1/capacity, exact counts for the pool
        # → identical to the exact word_freq_top rule (same SQL)
        "heavy_hitter_words": r"""
            SELECT word, cast(count(*) AS BIGINT) AS n
            FROM (SELECT unnest(regexp_extract_all(lower(text), '\w+')) AS word
                  FROM documents)
            GROUP BY 1 ORDER BY n DESC, word LIMIT 100""",
        # incremental dedup vs a snapshot over the DOUBLED corpus:
        # snapshot membership = 50% doc_id-hash rule (sample_docs' pure-
        # function form); a new row survives iff its digest is absent
        # from the snapshot, min doc_id per digest among survivors
        "incremental_dedup": r"""
            WITH d AS (SELECT doc_id, text FROM documents
                       UNION ALL
                       SELECT doc_id + 1000000, text FROM documents),
            t AS (
              SELECT doc_id, md5(coalesce(text, '')) AS digest,
                     cast(('0x' || substring(md5(cast(doc_id AS VARCHAR)),
                           1, 8)) AS UBIGINT)
                       < cast(4294967296 * 50 // 100 AS UBIGINT) AS is_old
              FROM d),
            old AS (SELECT DISTINCT digest FROM t WHERE is_old),
            new AS (SELECT doc_id, digest FROM t WHERE NOT is_old)
            SELECT min(n.doc_id) AS doc_id, n.digest
            FROM new n LEFT JOIN old o ON n.digest = o.digest
            WHERE o.digest IS NULL
            GROUP BY n.digest ORDER BY 1""",
        # cross-source contamination: distinct word-bigram sets per source,
        # pairwise shared counts + Jaccard; pairs with zero overlap are
        # absent on both sides. Exact integer counts → exact double ratio
        "source_overlap_matrix": r"""
            WITH words AS (
              SELECT source,
                     list_filter(regexp_split_to_array(
                         lower(coalesce(text, '')), '\s+'),
                                 x -> x <> '') AS w
              FROM documents),
            grams AS (
              SELECT DISTINCT source,
                     unnest(CASE WHEN len(w) < 2 THEN []::VARCHAR[]
                                 ELSE [w[i] || ' ' || w[i+1]
                                       FOR i IN range(1, len(w))]
                            END) AS g
              FROM words),
            tot AS (SELECT source, count(*) AS n FROM grams GROUP BY 1),
            sh AS (SELECT a.source AS source_a, b.source AS source_b,
                          count(*) AS n_shared
                   FROM grams a JOIN grams b
                     ON a.g = b.g AND a.source < b.source
                   GROUP BY 1, 2)
            SELECT sh.source_a, sh.source_b,
                   cast(sh.n_shared AS BIGINT) AS n_shared,
                   cast(ta.n AS BIGINT) AS n_a,
                   cast(tb.n AS BIGINT) AS n_b,
                   cast(sh.n_shared AS DOUBLE)
                       / cast(ta.n + tb.n - sh.n_shared AS DOUBLE)
                       AS jaccard
            FROM sh JOIN tot ta ON sh.source_a = ta.source
                    JOIN tot tb ON sh.source_b = tb.source
            ORDER BY 1, 2""",
        # unigram-LM surprisal: corpus counts → top-100 vocab, OOV
        # smoothed to count 1; per-token -ln p quantized to integer
        # micro-nats via floor so per-doc sums are order-independent
        # (float addition does not associate; ln/floor agree bit-for-bit)
        "bigram_surprisal": _bigram_scored_sql() + r"""
            SELECT d.doc_id,
                   cast(count(q.q) AS BIGINT) AS n_bigrams,
                   cast(coalesce(sum(q.q), 0) AS BIGINT)
                       AS surprisal_micro_nats,
                   cast(coalesce(sum(q.q), 0) AS DOUBLE)
                       / (greatest(count(q.q), 1) * 1000000.0)
                       AS avg_surprisal
            FROM documents d LEFT JOIN q ON d.doc_id = q.doc_id
            GROUP BY 1 ORDER BY 1""",
        "perplexity_buckets": _bigram_scored_sql() + r"""
            , agg AS (
              SELECT d.doc_id,
                     cast(count(q.q) AS BIGINT) AS n_bigrams,
                     cast(coalesce(sum(q.q), 0) AS BIGINT) AS s
              FROM documents d LEFT JOIN q ON d.doc_id = q.doc_id
              GROUP BY 1),
            scored AS (SELECT doc_id, n_bigrams,
                              s // greatest(n_bigrams, 1) AS avg_micro
                       FROM agg),
            nn AS (SELECT cast(count(*) AS BIGINT) AS cnt FROM scored),
            ranked AS (SELECT avg_micro,
                              row_number() OVER (ORDER BY avg_micro) AS r
                       FROM scored),
            cut AS (SELECT
              (SELECT avg_micro FROM ranked WHERE r = greatest(
                 CAST(ceil((SELECT cnt FROM nn)
                           * (CAST(1 AS DOUBLE) / 3)) AS BIGINT), 1)) AS c1,
              (SELECT avg_micro FROM ranked WHERE r = greatest(
                 CAST(ceil((SELECT cnt FROM nn)
                           * (CAST(2 AS DOUBLE) / 3)) AS BIGINT), 1)) AS c2)
            SELECT s.doc_id, s.n_bigrams, s.avg_micro,
                   CASE WHEN s.avg_micro <= cut.c1 THEN 'head'
                        WHEN s.avg_micro <= cut.c2 THEN 'middle'
                        ELSE 'tail' END AS bucket
            FROM scored s CROSS JOIN cut ORDER BY s.doc_id""",
        # Moore-Lewis cross-entropy-difference selection: two class-bigram
        # LMs (in-domain fit = source 'src0', out = full corpus) score the
        # same bigram stream; delta is exact int64 micro-nats; the floor
        # division uses the (a - ((a%n)+n)%n)//n identity because DuckDB
        # // truncates toward zero while Python floors; median cut =
        # perplexity_buckets' quantile_disc rank rule at q = 1/2
        "moore_lewis_docs": r"""
            WITH stoks AS (
              SELECT doc_id,
                     regexp_extract_all(lower(coalesce(text, '')),
                                        '\w+') AS w
              FROM documents),
            sbig AS (SELECT doc_id, b[1] AS w1, b[2] AS w2
                     FROM (SELECT doc_id,
                                  unnest([[w[i], w[i+1]]
                                          FOR i IN range(1, len(w))]) AS b
                           FROM stoks)),""" \
            + _bigram_model_q_sql("i_", "coalesce(source, '') = 'src0'") \
            + "," + _bigram_model_q_sql("o_", "TRUE") + r""",
            i_agg AS (SELECT doc_id, cast(count(*) AS BIGINT) AS nb,
                             cast(sum(q) AS BIGINT) AS s
                      FROM i_q GROUP BY 1),
            o_agg AS (SELECT doc_id, cast(sum(q) AS BIGINT) AS s
                      FROM o_q GROUP BY 1),
            agg AS (SELECT d.doc_id,
                           coalesce(i_agg.nb, 0) AS n_bigrams,
                           coalesce(i_agg.s, 0) AS in_micro_nats,
                           coalesce(o_agg.s, 0) AS out_micro_nats
                    FROM documents d
                    LEFT JOIN i_agg ON d.doc_id = i_agg.doc_id
                    LEFT JOIN o_agg ON d.doc_id = o_agg.doc_id),
            scored AS (SELECT doc_id, n_bigrams, in_micro_nats,
                              out_micro_nats,
                              in_micro_nats - out_micro_nats AS delta_micro,
                              (in_micro_nats - out_micro_nats
                               - ((((in_micro_nats - out_micro_nats)
                                    % greatest(n_bigrams, 1))
                                   + greatest(n_bigrams, 1))
                                  % greatest(n_bigrams, 1)))
                              // greatest(n_bigrams, 1) AS avg_delta_micro
                       FROM agg),
            nn AS (SELECT cast(count(*) AS BIGINT) AS cnt FROM scored),
            ranked AS (SELECT avg_delta_micro,
                              row_number() OVER (ORDER BY avg_delta_micro)
                                  AS r
                       FROM scored),
            cut AS (SELECT avg_delta_micro AS med FROM ranked
                    WHERE r = greatest(CAST(ceil((SELECT cnt FROM nn)
                              * (CAST(1 AS DOUBLE) / 2)) AS BIGINT), 1))
            SELECT s.doc_id, s.n_bigrams, s.in_micro_nats,
                   s.out_micro_nats, s.delta_micro, s.avg_delta_micro,
                   s.avg_delta_micro <= cut.med AS keep
            FROM scored s CROSS JOIN cut ORDER BY s.doc_id""",
        # BM25 top-k: query = vocab ranks 11..20 (n DESC, word); Lucene
        # idf form; per-(doc,term) scores floor-quantized to micro-units
        # with the exact float op chain mirrored (identical literals,
        # same association order, libm ln) so int64 sums are
        # order-independent and (score DESC, doc_id) is a total order
        "bm25_top_docs": r"""
            WITH toks AS (
              SELECT doc_id,
                     regexp_extract_all(lower(coalesce(text, '')),
                                        '\w+') AS w
              FROM documents),
            uni AS (SELECT word, count(*) AS n
                    FROM (SELECT unnest(w) AS word FROM toks) GROUP BY 1),
            qt AS (SELECT word FROM uni
                   ORDER BY n DESC, word LIMIT 10 OFFSET 10),
            tot AS (SELECT cast(sum(n) AS BIGINT) AS total FROM uni),
            nd AS (SELECT cast(count(*) AS BIGINT) AS n_docs
                   FROM documents),
            dl AS (SELECT doc_id, cast(len(w) AS BIGINT) AS dl FROM toks),
            tf AS (SELECT doc_id, word, cast(count(*) AS BIGINT) AS tf
                   FROM (SELECT doc_id, unnest(w) AS word FROM toks)
                   WHERE word IN (SELECT word FROM qt)
                   GROUP BY 1, 2),
            df AS (SELECT word, cast(count(*) AS BIGINT) AS df
                   FROM tf GROUP BY 1),
            av AS (SELECT cast((SELECT total FROM tot) AS DOUBLE)
                          / cast((SELECT n_docs FROM nd) AS DOUBLE)
                              AS avgdl),
            q AS (SELECT tf.doc_id,
                         cast(floor(
                           ln(1.0 + (cast((SELECT n_docs FROM nd) - df.df
                                          AS DOUBLE) + 0.5)
                                    / (cast(df.df AS DOUBLE) + 0.5))
                           * ((cast(tf.tf AS DOUBLE) * 2.2)
                              / (cast(tf.tf AS DOUBLE)
                                 + 1.2 * ((1.0 - 0.75)
                                          + 0.75 * (cast(dl.dl AS DOUBLE)
                                              / (SELECT avgdl FROM av)))))
                           * 1000000.0) AS BIGINT) AS q
                  FROM tf JOIN dl ON tf.doc_id = dl.doc_id
                          JOIN df ON tf.word = df.word)
            SELECT doc_id, cast(count(*) AS BIGINT) AS n_terms,
                   cast(sum(q) AS BIGINT) AS score_micro,
                   cast(sum(q) AS DOUBLE) / 1000000.0 AS score
            FROM q GROUP BY 1 ORDER BY score_micro DESC, doc_id
            LIMIT 50""",
        "unigram_logprob": r"""
            WITH toks AS (
              SELECT doc_id,
                     unnest(regexp_extract_all(lower(coalesce(text, '')),
                            '\w+')) AS word
              FROM documents),
            cnt AS (SELECT word, count(*) AS n FROM toks GROUP BY 1),
            tot AS (SELECT cast(sum(n) AS BIGINT) AS total FROM cnt),
            vocab AS (SELECT word, n FROM cnt
                      ORDER BY n DESC, word LIMIT 100),
            s AS (
              SELECT t.doc_id, v.n IS NULL AS oov,
                     cast(floor(-ln(cast(coalesce(v.n, 1) AS DOUBLE)
                                    / (SELECT total FROM tot)) * 1000000)
                          AS BIGINT) AS q
              FROM toks t LEFT JOIN vocab v ON t.word = v.word)
            SELECT d.doc_id,
                   cast(count(s.q) AS BIGINT) AS n_tokens,
                   cast(coalesce(sum(CASE WHEN s.oov THEN 1 ELSE 0 END), 0)
                        AS BIGINT) AS n_oov,
                   coalesce(sum(s.q), 0)
                       / (greatest(count(s.q), 1) * 1000000.0)
                       AS avg_surprisal
            FROM documents d LEFT JOIN s ON d.doc_id = s.doc_id
            GROUP BY 1 ORDER BY 1""",
        # Gopher-rule quality flags: repetition CTEs shared with
        # repetition_stats, distinct-stopword CASE sum generated from the
        # same QUALITY_STOPWORDS list the engine loops over; exact-int
        # ratio divisions make every float threshold compare agree.
        # Template shared with the curation_recipe composed oracle via
        # _gopher_flags_sql (one ruleset definition, no drift).
        "gopher_quality_flags": _gopher_flags_sql(),
        # concat-and-chunk packing plan: whitespace-token tape in doc_id
        # order cut every 512 tokens; the window cumsum is the sequential
        # spec of the engine's distributed range prefix sum. start_offset
        # is cast back from DuckDB's HUGEINT window sum so the int64
        # dtype-sensitive hash agrees
        "packed_sequences": r"""
            WITH t AS (
              SELECT doc_id,
                     length(regexp_extract_all(coalesce(text, ''), '\S+'))
                         AS n_tokens
              FROM documents),
            o AS (
              SELECT doc_id, cast(n_tokens AS BIGINT) AS n_tokens,
                     cast(coalesce(sum(n_tokens) OVER (
                          ORDER BY doc_id ROWS BETWEEN UNBOUNDED PRECEDING
                          AND 1 PRECEDING), 0) AS BIGINT) AS start_offset
              FROM t)
            SELECT doc_id, n_tokens, start_offset,
                   start_offset // 512 AS seq_id,
                   start_offset % 512 AS offset_in_seq,
                   n_tokens > 0 AND (start_offset + n_tokens - 1) // 512
                       <> start_offset // 512 AS spans_boundary
            FROM o ORDER BY doc_id""",
        # packing-plan materialization: doc → seq assignment via the
        # window-cumsum spec, members concatenated in doc_id order;
        # value-exact seq_text strings
        "packed_sequence_texts": r"""
            WITH t AS (
              SELECT doc_id, coalesce(text, '') AS text,
                     length(regexp_extract_all(coalesce(text, ''), '\S+'))
                         AS n_tokens
              FROM documents),
            o AS (
              SELECT doc_id, text,
                     cast(coalesce(sum(n_tokens) OVER (
                          ORDER BY doc_id ROWS BETWEEN UNBOUNDED PRECEDING
                          AND 1 PRECEDING), 0) AS BIGINT) // 512 AS seq_id
              FROM t)
            SELECT seq_id, count(*) AS n_docs,
                   string_agg(text, ' ' ORDER BY doc_id) AS seq_text
            FROM o GROUP BY 1 ORDER BY 1""",
        # C4-style line-level dedup over the doubled corpus: lines derive
        # from fixed 80-char chunks (see pipelines.analysis.line_dedup_docs);
        # a 30+-char line survives only at its first (doc_id, line_idx)
        # occurrence corpus-wide, shorter lines are exempt, docs reassemble
        # in line order — value-exact STRING output on both sides
        # duplicated k-token-window stats (Lee et al. fixed-window form):
        # a 13-token window is duplicated iff its token sequence occurs in
        # >= 2 distinct docs; tokenizer mirrors Python str.split()
        "dup_window_stats": r"""
            WITH t AS (
              SELECT doc_id,
                     list_filter(regexp_split_to_array(coalesce(text, ''),
                                                       '\s+'),
                                 x -> x <> '') AS toks
              FROM documents),
            e AS (SELECT doc_id, len(toks) - 12 AS nw, toks
                  FROM t WHERE len(toks) >= 13),
            w AS (SELECT doc_id,
                         array_to_string(list_slice(toks, i.i, i.i + 12),
                                         ' ') AS win
                  FROM e, LATERAL unnest(generate_series(1, nw)) AS i(i)),
            d AS (SELECT win FROM w
                  GROUP BY win HAVING count(DISTINCT doc_id) >= 2),
            c AS (SELECT w.doc_id, count(*) AS nd
                  FROM w JOIN d USING (win) GROUP BY w.doc_id)
            SELECT e.doc_id, cast(e.nw AS BIGINT) AS n_windows,
                   cast(coalesce(c.nd, 0) AS BIGINT) AS n_dup_windows,
                   coalesce(c.nd, 0) * 1.0 / e.nw AS dup_ratio
            FROM e LEFT JOIN c USING (doc_id) ORDER BY doc_id""",
        # duplicated-window REMOVAL (Lee et al. full semantics): a window
        # occurring ≥2 times survives only at min (doc_id, offset); other
        # occurrences remove their k covered tokens; docs reassemble from
        # the token stream (single-space join on both sides)
        "window_dedup_docs": r"""
            WITH t AS (
              SELECT doc_id,
                     list_filter(regexp_split_to_array(coalesce(text, ''),
                                                       '\s+'),
                                 x -> x <> '') AS toks
              FROM documents),
            w AS (SELECT doc_id, i.i - 1 AS woff,
                         array_to_string(list_slice(toks, i.i, i.i + 12),
                                         ' ') AS win
                  FROM t, LATERAL unnest(generate_series(1, len(toks) - 12))
                       AS i(i)
                  WHERE len(toks) >= 13),
            own AS (SELECT win, count(*) AS cnt,
                           min(doc_id * 100000000 + woff) AS okey
                    FROM w GROUP BY win),
            rem AS (SELECT w.doc_id, w.woff
                    FROM w JOIN own USING (win)
                    WHERE own.cnt >= 2
                      AND w.doc_id * 100000000 + w.woff <> own.okey),
            cov AS (SELECT DISTINCT r.doc_id, r.woff + j.j AS pos
                    FROM rem r, LATERAL unnest(generate_series(0, 12))
                         AS j(j)),
            tok AS (SELECT doc_id, p.p - 1 AS pos, toks[p.p] AS tk
                    FROM t, LATERAL unnest(generate_series(1, len(toks)))
                         AS p(p)),
            agg AS (SELECT tok.doc_id,
                           coalesce(string_agg(tok.tk, ' '
                                               ORDER BY tok.pos)
                                    FILTER (cov.pos IS NULL), '')
                               AS clean_text,
                           cast(count(*) FILTER (cov.pos IS NOT NULL)
                                AS BIGINT) AS n_removed_tokens,
                           cast(count(*) AS BIGINT) AS n_tokens
                    FROM tok LEFT JOIN cov
                      ON tok.doc_id = cov.doc_id AND tok.pos = cov.pos
                    GROUP BY tok.doc_id)
            SELECT t.doc_id, coalesce(agg.clean_text, '') AS clean_text,
                   coalesce(agg.n_removed_tokens, 0) AS n_removed_tokens,
                   coalesce(agg.n_tokens, 0) AS n_tokens
            FROM t LEFT JOIN agg USING (doc_id) ORDER BY t.doc_id""",
        "line_dedup_docs": r"""
            WITH d AS (
              SELECT doc_id, coalesce(text, '') AS t FROM documents
              UNION ALL
              SELECT doc_id + 1000000, coalesce(text, '') FROM documents),
            c AS (
              SELECT doc_id,
                     CASE WHEN length(t) = 0 THEN ['']
                          ELSE [substring(t, i, 80)
                                FOR i IN range(1, length(t) + 1, 80)]
                     END AS lines
              FROM d),
            l AS (
              SELECT doc_id,
                     cast(generate_subscripts(lines, 1) - 1 AS BIGINT)
                         AS line_idx,
                     unnest(lines) AS line
              FROM c),
            m AS (
              SELECT doc_id, line_idx, line,
                     length(line) < 30
                       OR row_number() OVER (PARTITION BY line
                                             ORDER BY doc_id, line_idx) = 1
                       AS keep
              FROM l)
            SELECT doc_id,
                   coalesce(string_agg(line, chr(10) ORDER BY line_idx)
                            FILTER (keep), '') AS clean_text,
                   cast(count(*) FILTER (NOT keep) AS BIGINT) AS n_removed
            FROM m GROUP BY doc_id ORDER BY doc_id""",
        # sentence-level C4 dedup over the doubled corpus: sentence
        # structure injected by rewriting the 80-char chunk construction's
        # newlines to '. '; the explicit-ASCII mark-and-split rule
        # (([.!?])[ws]+ -> \1+chr(1), split, trim the 6-char ws set, drop
        # empties) is applied verbatim on both sides, so parity holds even
        # for raw text that already contains [.!?] or chr(1)
        "sentence_dedup_docs": r"""
            WITH d AS (
              SELECT doc_id, coalesce(text, '') AS t FROM documents
              UNION ALL
              SELECT doc_id + 1000000, coalesce(text, '') FROM documents),
            c AS (
              SELECT doc_id,
                     CASE WHEN length(t) = 0 THEN ''
                          ELSE replace(array_to_string(
                                   [substring(t, i, 80)
                                    FOR i IN range(1, length(t) + 1, 80)],
                                   chr(10)), chr(10), '. ')
                     END AS st
              FROM d),
            mk AS (SELECT doc_id,
                          regexp_replace(st, '([.!?])[ \t\n\r\f\v]+',
                                         '\1' || chr(1), 'g') AS m
                   FROM c),
            ex AS MATERIALIZED (SELECT doc_id,
                          cast(generate_subscripts(l, 1) AS BIGINT) AS ord0,
                          unnest(l) AS raw
                   FROM (SELECT doc_id, string_split(m, chr(1)) AS l
                         FROM mk)),
            tr AS MATERIALIZED (SELECT doc_id, ord0,
                          trim(raw, ' ' || chr(9) || chr(10) || chr(11)
                                   || chr(12) || chr(13)) AS s
                   FROM ex),
            sent AS (SELECT doc_id, s,
                            row_number() OVER (PARTITION BY doc_id
                                               ORDER BY ord0) - 1 AS sidx,
                            length(s) >= 30 AS elig
                     FROM tr WHERE s <> ''),
            m AS (SELECT doc_id, sidx, s,
                         (NOT elig)
                           OR row_number() OVER (PARTITION BY s
                                  ORDER BY doc_id, sidx) = 1 AS keep
                  FROM sent)
            SELECT doc_id,
                   coalesce(string_agg(s, ' ' ORDER BY sidx)
                            FILTER (keep), '') AS clean_text,
                   cast(count(*) FILTER (NOT keep) AS BIGINT) AS n_removed
            FROM m GROUP BY doc_id ORDER BY doc_id""",
        # ExactSubstr (Lee et al.) over the doubled corpus: every 50-char
        # window occurring twice survives only at min (doc_id, off); all
        # other occurrences mark their 50 char positions for removal.
        # Restates the engine's window/owner/coverage construction over
        # substring() rows — exact strings here, 128-bit rolling hashes in
        # the engine (collision-free at any realistic scale)
        "exact_substr_dedup_docs": r"""
            WITH d AS (
              SELECT doc_id, coalesce(text, '') AS t FROM documents
              UNION ALL
              SELECT doc_id + 1000000, coalesce(text, '') FROM documents),
            w AS (
              SELECT doc_id,
                     cast(generate_subscripts(l, 1) AS BIGINT) - 1 AS off,
                     unnest(l) AS s
              FROM (SELECT doc_id,
                           [substring(t, i, 50)
                            FOR i IN range(1, length(t) - 48)] AS l
                    FROM d)),
            r AS (
              SELECT doc_id, off,
                     count(*) OVER (PARTITION BY s) AS cnt,
                     row_number() OVER (PARTITION BY s
                                        ORDER BY doc_id, off) AS rn
              FROM w),
            cov AS (
              SELECT DISTINCT r.doc_id, r.off + rp.p AS pos
              FROM r, range(0, 50) AS rp(p)
              WHERE r.cnt >= 2 AND r.rn > 1),
            ch AS (
              SELECT doc_id,
                     cast(generate_subscripts(l, 1) AS BIGINT) - 1 AS pos,
                     unnest(l) AS c
              FROM (SELECT doc_id,
                           [substring(t, i, 1)
                            FOR i IN range(1, length(t) + 1)] AS l
                    FROM d)),
            k AS (
              SELECT ch.doc_id, ch.pos, ch.c, cov.pos IS NULL AS keep
              FROM ch LEFT JOIN cov
                ON ch.doc_id = cov.doc_id AND ch.pos = cov.pos),
            agg AS (
              SELECT doc_id,
                     coalesce(string_agg(c, '' ORDER BY pos)
                              FILTER (keep), '') AS clean_text,
                     cast(count(*) FILTER (NOT keep) AS BIGINT)
                       AS n_removed_chars,
                     cast(count(*) AS BIGINT) AS n_chars
              FROM k GROUP BY doc_id)
            SELECT d.doc_id,
                   coalesce(agg.clean_text, '') AS clean_text,
                   cast(coalesce(agg.n_removed_chars, 0) AS BIGINT)
                     AS n_removed_chars,
                   cast(coalesce(agg.n_chars, 0) AS BIGINT) AS n_chars
            FROM d LEFT JOIN agg USING (doc_id) ORDER BY d.doc_id""",
        # connected components over the exact-dup pair graph: the fixpoint
        # label is min(doc_id) per text group — a value-exact oracle for
        # the distributed label-propagation operator
        "exact_dup_clusters_doubled": r"""
            WITH d AS (SELECT doc_id, coalesce(text, '') AS text FROM documents
                       UNION ALL
                       SELECT doc_id + 1000000, coalesce(text, '') FROM documents),
            m AS (SELECT text, min(doc_id) AS label, count(*) AS c
                  FROM d GROUP BY text)
            SELECT d.doc_id AS src, m.label
            FROM d JOIN m ON d.text = m.text
            WHERE m.c > 1 ORDER BY src""",
        # embedding-side cluster ground truth: doubled corpus → every
        # near-pair is an exact clone, label = min vec_id per embedding
        "embedding_dup_clusters_doubled": r"""
            WITH d AS (SELECT vec_id, embedding FROM embeddings
                       UNION ALL
                       SELECT vec_id + 1000000, embedding FROM embeddings),
            m AS (SELECT embedding, min(vec_id) AS label, count(*) AS c
                  FROM d GROUP BY embedding)
            SELECT d.vec_id AS src, m.label
            FROM d JOIN m ON d.embedding = m.embedding
            WHERE m.c > 1 ORDER BY src""",
        # keyword-in-context snippets: 1-based pos + fixed-width window,
        # substring/position semantics shared with the engine slice
        "kwic_snippets": r"""
            SELECT doc_id,
                   cast(position('data' IN lower(coalesce(text, '')))
                        AS BIGINT) AS pos,
                   substring(coalesce(text, ''),
                             greatest(1, position('data' IN
                                 lower(coalesce(text, ''))) - 40),
                             80 + length('data')) AS snippet
            FROM documents
            WHERE position('data' IN lower(coalesce(text, ''))) > 0
            ORDER BY doc_id""",
        # length quartiles via quantile_disc (engine pins the same
        # ceil(p·n)−1 sorted-index rule)
        "length_quartile_docs": r"""
            WITH q AS (SELECT quantile_disc(n_chars, [0.25, 0.5, 0.75])
                           AS qs FROM documents)
            SELECT d.doc_id, d.n_chars,
                   CASE WHEN d.n_chars <= q.qs[1] THEN 'q1'
                        WHEN d.n_chars <= q.qs[2] THEN 'q2'
                        WHEN d.n_chars <= q.qs[3] THEN 'q3'
                        ELSE 'q4' END AS quartile
            FROM documents d CROSS JOIN q ORDER BY d.doc_id""",
        # top-k word-vocabulary coverage: float division of exact int sums
        "vocab_coverage": r"""
            WITH w AS (SELECT unnest(regexp_extract_all(lower(text),
                                                        '\w+')) AS word
                       FROM documents),
            c AS (SELECT word, count(*) AS n FROM w GROUP BY word),
            t AS (SELECT cast(sum(n) AS BIGINT) AS n_total FROM c),
            topk AS (SELECT n FROM c ORDER BY n DESC, word LIMIT 100)
            SELECT t.n_total,
                   cast((SELECT sum(n) FROM topk) AS BIGINT) AS n_covered,
                   cast(cast((SELECT sum(n) FROM topk) AS BIGINT)
                        AS DOUBLE) / cast(t.n_total AS DOUBLE) AS coverage
            FROM t""",
        # DAU/MAU stickiness: exact distinct counts, float division
        "user_stickiness_daily": r"""
            WITH d AS (SELECT date_trunc('day', ts) AS day,
                              date_trunc('month', ts) AS month, user_id
                       FROM events),
            dau AS (SELECT day, any_value(month) AS month,
                           count(DISTINCT user_id) AS dau
                    FROM d GROUP BY day),
            mau AS (SELECT month, count(DISTINCT user_id) AS mau
                    FROM d GROUP BY month)
            SELECT cast(dau.day AS TIMESTAMP) AS day,
                   cast(dau.dau AS BIGINT) AS dau,
                   cast(mau.mau AS BIGINT) AS mau,
                   cast(dau.dau AS DOUBLE) / cast(mau.mau AS DOUBLE)
                       AS stickiness
            FROM dau JOIN mau ON dau.month = mau.month
            ORDER BY day""",
        # per-user consecutive event-type transition counts (lag window)
        "event_type_transitions": r"""
            WITH s AS (
              SELECT user_id, event_type,
                     lag(event_type) OVER (PARTITION BY user_id
                                           ORDER BY ts, event_id)
                         AS prev_type
              FROM events)
            SELECT prev_type, event_type, cast(count(*) AS BIGINT) AS n
            FROM s WHERE prev_type IS NOT NULL
            GROUP BY 1, 2 ORDER BY 1, 2""",
        # anti-join: no qualifying fact row
        "quiet_customers": r"""
            SELECT c_custkey, c_name, c_acctbal FROM customer c
            WHERE NOT EXISTS (SELECT 1 FROM orders o
                              WHERE o.o_custkey = c.c_custkey
                                AND o.o_totalprice > 400000.0)
            ORDER BY c_custkey""",
        # exact corpus kNN graph — rank-only output, self excluded
        "knn_graph_topk": r"""
            SELECT vec_id, rnk AS "rank", nbr_id FROM (
              SELECT a.vec_id, b.vec_id AS nbr_id,
                     row_number() OVER (
                       PARTITION BY a.vec_id
                       ORDER BY list_cosine_similarity(
                                  cast(a.embedding AS DOUBLE[]),
                                  cast(b.embedding AS DOUBLE[])) DESC,
                                b.vec_id) AS rnk
              FROM (SELECT * FROM embeddings WHERE embedding IS NOT NULL) a
              JOIN (SELECT * FROM embeddings WHERE embedding IS NOT NULL) b
                ON a.vec_id <> b.vec_id)
            WHERE rnk <= 5 ORDER BY vec_id, rnk""",
        "ann_brute_topk": f"""
            WITH q(query_id, qv) AS (VALUES {_ann_query_values()})
            SELECT cast(query_id AS BIGINT) AS query_id, rnk AS "rank", vec_id FROM (
              SELECT q.query_id, e.vec_id,
                     row_number() OVER (
                       PARTITION BY q.query_id
                       ORDER BY list_cosine_similarity(q.qv, cast(e.embedding AS DOUBLE[])) DESC,
                                e.vec_id) AS rnk
              FROM q CROSS JOIN (SELECT * FROM embeddings
                                 WHERE embedding IS NOT NULL) e)
            WHERE rnk <= 10 ORDER BY query_id, rnk""",
        # contrastive hard negatives: per anchor (vec_id < 8), top-10
        # cosine among DIFFERENT-label vectors; float score excluded from
        # the compared columns (ann_brute_topk convention)
        "hard_negatives": r"""
            WITH e AS (
              SELECT vec_id, label,
                     list_transform(embedding, x -> cast(x AS DOUBLE)) AS v
              FROM embeddings
              WHERE embedding IS NOT NULL AND label IS NOT NULL),
            a AS (SELECT * FROM e WHERE vec_id < 8)
            SELECT anchor_id, rnk AS "rank", vec_id FROM (
              SELECT a.vec_id AS anchor_id, e.vec_id,
                     row_number() OVER (
                       PARTITION BY a.vec_id
                       ORDER BY list_cosine_similarity(a.v, e.v) DESC,
                                e.vec_id) AS rnk
              FROM a JOIN e ON e.label <> a.label)
            WHERE rnk <= 10 ORDER BY anchor_id, rnk""",
        # int8 quantization exploded to rows: the floor(x·127/max|x|+0.5)
        # code rule replayed over the same double casts; scale = max/127
        # one division both sides. ann_quantized_topk (the recall probe)
        # is rows-only — its dequantized dot product is a SIMD float sum.
        # Oracle assumes FINITE embeddings (the table contract): the
        # engine codes null/NaN components to 0 and excludes them from
        # max|x| (tested), where SQL NULL arithmetic would differ.
        "embedding_quantized": r"""
            WITH e AS (
              SELECT vec_id,
                     list_transform(embedding, x -> cast(x AS DOUBLE))
                       AS v
              FROM embeddings WHERE embedding IS NOT NULL),
            s AS (SELECT vec_id, v,
                         list_max(list_transform(v, x -> abs(x))) AS mx
                  FROM e),
            ex AS MATERIALIZED (SELECT vec_id, mx, unnest(v) AS x,
                          generate_subscripts(v, 1) AS i
                   FROM s)
            SELECT vec_id, cast(i - 1 AS BIGINT) AS dim_idx,
                   CASE WHEN mx > 0
                        THEN cast(greatest(least(
                                 floor(x * 127 / mx + 0.5),
                                 127), -127) AS BIGINT)
                        ELSE 0 END AS q,
                   CASE WHEN mx > 0 THEN mx / 127 ELSE 0.0 END AS scale
            FROM ex ORDER BY vec_id, dim_idx""",
        # URL shape/spam features over the same messy-crawl simulation:
        # every expression is the identical RE2 pattern; integer floor
        # division for the digit ratio
        "url_features_pages": rf"""
            WITH p AS (SELECT url FROM read_parquet('{pg}')),
            v AS (
              SELECT url FROM p
              UNION ALL
              SELECT url || CASE cast(('0x' || substring(md5(url), 1, 8))
                                 AS UBIGINT) % 4
                  WHEN 0 THEN '?utm_source=news&utm_medium=rss'
                  WHEN 1 THEN '?id=123456'
                  WHEN 2 THEN '/a/b/c/d/e'
                  ELSE '?q=x&page=2&ref=9' END
              FROM p)
            SELECT url,
                   coalesce(lower(regexp_extract(url, '{_HOST_SQL_RE}',
                                                 1)), '') AS host,
                   cast(length(url) AS BIGINT) AS url_len,
                   cast(len(regexp_extract_all(url, '/')) AS BIGINT)
                     AS n_slashes,
                   cast(len(regexp_extract_all(url, '[0-9]')) AS BIGINT)
                     AS n_digits,
                   cast(len(regexp_extract_all(url, '[?&][^?&=#]+='))
                        AS BIGINT) AS n_params,
                   CASE WHEN length(url) > 0
                        THEN cast(len(regexp_extract_all(url, '[0-9]'))
                                  * 1000000 // length(url) AS BIGINT)
                        ELSE 0 END AS digit_ratio_micro,
                   regexp_matches(url, '[?&](?:utm_[a-z]+|gclid|fbclid)=')
                     AS has_tracking
            FROM v ORDER BY url""",
        # URL blocklist over the simulated messy crawl: clean corpus urls
        # + one md5-hash-routed trap variant each; first-matching-rule
        # attribution mirrors the engine's pattern order (RE2 both sides).
        # VALID ONLY for DEFAULT_URL_BLOCK_PATTERNS: the engine emits
        # rule_idx=-1 when RE2 and Python regex disagree on caller-supplied
        # syntax (impossible for the defaults) — such rows have no SQL
        # counterpart here (see stages/crawl.py:url_filter docstring)
        "url_filtered_pages": rf"""
            WITH p AS (SELECT url FROM read_parquet('{pg}')),
            v AS (
              SELECT url FROM p
              UNION ALL
              SELECT url || CASE cast(('0x' || substring(md5(url), 1, 8))
                                 AS UBIGINT) % 4
                  WHEN 0 THEN '/img.jpeg' WHEN 1 THEN '?phpsessid=abc123'
                  WHEN 2 THEN '/calendar/2024/01/15' ELSE '?page=1234' END
              FROM p),
            q AS (SELECT url, {_URL_RULE_IDX_SQL} AS rule_idx FROM v)
            SELECT url, cast(rule_idx AS BIGINT) AS rule_idx,
                   'rejected' AS status
            FROM q WHERE rule_idx >= 0 ORDER BY url""",
        # per-domain crawl rollup: host RE2 + blob byte length + max ts
        "domain_page_stats": rf"""
            SELECT coalesce(lower(regexp_extract(url, '{_HOST_SQL_RE}', 1)),
                            '') AS domain,
                   count(*) AS n_pages,
                   cast(sum(octet_length(html)) AS BIGINT)
                       AS total_html_bytes,
                   max(warc_ts) AS last_capture
            FROM read_parquet('{pg}') GROUP BY 1 ORDER BY 1""",
        # title/meta-description extraction: drop script/style/noscript/
        # template content, first <title> / first meta-description, tag
        # strip + whitespace collapse — the html_extract.page_metadata
        # spec re-expressed over the unescaped blob cast; non-HTML
        # payloads left-join back as empty strings
        # markup density per HTML page: the same blob→varchar doc
        # reconstruction as page_metadata; tag/script counts and the
        # stripped-length difference are the identical RE2 expressions;
        # text_ratio is one float division of exact ints
        "html_markup_stats": rf"""
            WITH hp AS (SELECT url, {_HTML_DOC_SQL} AS doc
                        FROM read_parquet('{pg}')
                        WHERE CAST(html AS VARCHAR)
                              LIKE '<!DOCTYPE html>%'),
            s AS (SELECT url,
                         cast(length(doc) AS BIGINT) AS n_chars,
                         cast(len(regexp_extract_all(doc, '<[^>]*>'))
                              AS BIGINT) AS n_tags,
                         cast(len(regexp_extract_all(doc,
                              '(?is)<script\b')) AS BIGINT) AS n_scripts,
                         cast(length(regexp_replace(doc, '<[^>]*>', '',
                                                    'g')) AS BIGINT)
                           AS text_chars
                  FROM hp)
            SELECT url, n_chars, n_tags, n_scripts,
                   n_chars - text_chars AS markup_chars, text_chars,
                   text_chars / cast(greatest(n_chars, 1) AS DOUBLE)
                     AS text_ratio
            FROM s ORDER BY url""",
        # host-scoped line boilerplate: same blob→varchar doc and
        # chr(10) line construction as the engine; a 4+-char line in >=2
        # distinct urls of one host is removed everywhere in that host;
        # string_agg skips the removed (NULL) lines so separators vanish
        # with them, exactly like the engine's join-of-kept-lines
        "host_boilerplate_pages": rf"""
            WITH hp AS (SELECT url, {_HTML_DOC_SQL} AS doc
                        FROM read_parquet('{pg}')
                        WHERE CAST(html AS VARCHAR)
                              LIKE '<!DOCTYPE html>%'),
            h AS (SELECT url,
                         lower(regexp_extract(url,
                           '^[A-Za-z][A-Za-z0-9+.-]*://([^/?#]+)', 1))
                           AS host,
                         string_split(doc, chr(10)) AS ls FROM hp),
            l AS (SELECT url, host, unnest(ls) AS line,
                         unnest(range(1, len(ls) + 1)) AS idx FROM h),
            b AS (SELECT host, line FROM l WHERE length(line) >= 4
                  GROUP BY host, line HAVING count(DISTINCT url) >= 2),
            k AS (SELECT l.url, l.host, l.idx, l.line,
                         (length(l.line) >= 4 AND b.line IS NOT NULL)
                           AS rm
                  FROM l LEFT JOIN b
                    ON l.host = b.host AND l.line = b.line)
            SELECT url, any_value(host) AS host,
                   cast(count(*) AS BIGINT) AS n_lines,
                   cast(sum(CASE WHEN rm THEN 1 ELSE 0 END) AS BIGINT)
                     AS n_removed,
                   coalesce(string_agg(
                     CASE WHEN NOT rm THEN line END, chr(10)
                     ORDER BY idx), '') AS clean_text
            FROM k GROUP BY url ORDER BY url""",
        "page_metadata": rf"""
            WITH hp AS (SELECT url, {_HTML_DOC_SQL} AS doc
                        FROM read_parquet('{pg}')
                        WHERE CAST(html AS VARCHAR) LIKE '<!DOCTYPE html>%'),
            allp AS (SELECT url FROM read_parquet('{pg}')),
            d AS (SELECT url,
                    regexp_replace(regexp_replace(regexp_replace(regexp_replace(
                      doc,
                      '(?is)<script\b[^>]*>.*?</script\s*>', ' ', 'g'),
                      '(?is)<style\b[^>]*>.*?</style\s*>', ' ', 'g'),
                      '(?is)<noscript\b[^>]*>.*?</noscript\s*>', ' ', 'g'),
                      '(?is)<template\b[^>]*>.*?</template\s*>', ' ', 'g') AS doc
                  FROM hp)
            SELECT a.url,
                   coalesce(trim(regexp_replace(regexp_replace(
                     regexp_extract(doc, '(?is)<title\b[^>]*>(.*?)</title\s*>', 1),
                     '<[^>]+>', ' ', 'g'), '\s+', ' ', 'g')), '') AS title,
                   coalesce(trim(regexp_replace(
                     regexp_extract(doc, '(?is)<meta\b[^>]*\bname\s*=\s*"description"[^>]*\bcontent\s*=\s*"([^"]*)"', 1),
                     '\s+', ' ', 'g')), '') AS meta_description
            FROM allp a LEFT JOIN d ON a.url = d.url ORDER BY a.url""",
        # per-page out-links: anchor regex (href + visible text via
        # parallel unnest of the SAME pattern's two groups). Fidelity vs
        # page_out_links: trim, fragment strip, http(s)-or-'/'-relative
        # gate (scheme'd non-http like mailto: drops, as the engine
        # does); '/'-relatives resolve as scheme://host + href. Residual
        # corpus coupling (documented, validated value-exact on the
        # deterministic corpus): single-quoted hrefs, HTML entities in
        # hrefs and dot-relative paths are engine-only territory
        "page_links": rf"""
            WITH p AS (SELECT url, {_HTML_DOC_SQL} AS doc
                       FROM read_parquet('{pg}')
                       WHERE CAST(html AS VARCHAR) LIKE '<!DOCTYPE html>%'),
            l AS (SELECT url AS src_url,
                         unnest(regexp_extract_all(doc, '{_ANCHOR_SQL_RE}', 1)) AS href,
                         unnest(regexp_extract_all(doc, '{_ANCHOR_SQL_RE}', 2)) AS atext
                  FROM p),
            l2 AS (SELECT src_url, trim(href) AS href, atext FROM l
                   WHERE trim(href) <> ''
                     AND (starts_with(trim(href), '/')
                          OR lower(trim(href)) LIKE 'http://%'
                          OR lower(trim(href)) LIKE 'https://%')),
            r AS (SELECT src_url,
                         split_part(CASE WHEN lower(href) LIKE 'http://%'
                                           OR lower(href) LIKE 'https://%'
                              THEN href
                              ELSE regexp_extract(src_url,
                                     '^([A-Za-z][A-Za-z0-9+.-]*://[^/?#]+)', 1)
                                   || href END, '#', 1) AS dst_url,
                         trim(regexp_replace(regexp_replace(atext,
                              '<[^>]+>', ' ', 'g'), '\s+', ' ', 'g'))
                             AS anchor_text
                  FROM l2)
            SELECT src_url, dst_url, anchor_text FROM r
            ORDER BY src_url, dst_url, anchor_text""",
        # host→host edge rollup of the same link extraction
        "host_graph_edges": rf"""
            WITH p AS (SELECT url, {_HTML_DOC_SQL} AS doc
                       FROM read_parquet('{pg}')
                       WHERE CAST(html AS VARCHAR) LIKE '<!DOCTYPE html>%'),
            l AS (SELECT url AS src_url,
                         unnest(regexp_extract_all(doc, '{_ANCHOR_SQL_RE}', 1)) AS href
                  FROM p),
            l2 AS (SELECT src_url, trim(href) AS href FROM l
                   WHERE trim(href) <> ''
                     AND (starts_with(trim(href), '/')
                          OR lower(trim(href)) LIKE 'http://%'
                          OR lower(trim(href)) LIKE 'https://%')),
            e AS (SELECT lower(regexp_extract(src_url, '{_HOST_SQL_RE}', 1)) AS src_host,
                         CASE WHEN lower(href) LIKE 'http://%'
                                OR lower(href) LIKE 'https://%'
                              THEN lower(regexp_extract(href, '{_HOST_SQL_RE}', 1))
                              ELSE lower(regexp_extract(src_url, '{_HOST_SQL_RE}', 1))
                         END AS dst_host
                  FROM l2)
            SELECT src_host, dst_host, count(*) AS n_links
            FROM e GROUP BY 1, 2 ORDER BY 1, 2""",
        # weakly-connected components over the same edge rollup:
        # recursive min-reachability fixpoint, component = lexicographic
        # min member host (the engine recovers min(host) after labeling,
        # so both sides agree on the representative by construction)
        # fixed-point integer PageRank: pure-int floor-division recurrence
        # is reproducible in SQL (unlike host_pagerank's float iteration)
        "host_pagerank_int": _pagerank_int_sql(pg),
        "authority_filtered_pages": _authority_filtered_sql(pg),
        "host_hits_int": _hits_int_sql(pg),
        "host_components": rf"""
            WITH RECURSIVE p AS (SELECT url, {_HTML_DOC_SQL} AS doc
                       FROM read_parquet('{pg}')
                       WHERE CAST(html AS VARCHAR) LIKE '<!DOCTYPE html>%'),
            l AS (SELECT url AS src_url,
                         unnest(regexp_extract_all(doc, '{_ANCHOR_SQL_RE}', 1)) AS href
                  FROM p),
            l2 AS (SELECT src_url, trim(href) AS href FROM l
                   WHERE trim(href) <> ''
                     AND (starts_with(trim(href), '/')
                          OR lower(trim(href)) LIKE 'http://%'
                          OR lower(trim(href)) LIKE 'https://%')),
            e AS (SELECT lower(regexp_extract(src_url, '{_HOST_SQL_RE}', 1)) AS src_host,
                         CASE WHEN lower(href) LIKE 'http://%'
                                OR lower(href) LIKE 'https://%'
                              THEN lower(regexp_extract(href, '{_HOST_SQL_RE}', 1))
                              ELSE lower(regexp_extract(src_url, '{_HOST_SQL_RE}', 1))
                         END AS dst_host
                  FROM l2),
            ed AS (SELECT DISTINCT src_host AS a, dst_host AS b FROM e),
            und AS (SELECT a, b FROM ed UNION SELECT b, a FROM ed),
            nodes AS (SELECT DISTINCT a AS node FROM und),
            reach(node, lbl) AS (
              SELECT node, node FROM nodes
              UNION
              SELECT u.a, r.lbl FROM und u JOIN reach r ON u.b = r.node)
            SELECT node AS host, min(lbl) AS component
            FROM reach GROUP BY 1 ORDER BY 1""",
        # recrawl capture dedup: gen1 ∪ (gen2 = +7 days), newest capture
        # per url under the engine's (warc_ts, crawl_gen) total order
        "latest_capture_per_url": rf"""
            WITH base AS (SELECT url, warc_ts, lang FROM read_parquet('{pg}')),
            g AS (SELECT url, warc_ts, lang, cast(1 AS BIGINT) AS crawl_gen
                  FROM base
                  UNION ALL
                  SELECT url, warc_ts + INTERVAL 7 DAY, lang, 2 FROM base)
            SELECT url, warc_ts, lang, crawl_gen FROM (
              SELECT *, row_number() OVER (PARTITION BY url
                         ORDER BY warc_ts DESC, crawl_gen DESC) AS rn FROM g)
            WHERE rn = 1 ORDER BY url""",
        # canonical-url capture dedup: gen2 re-observes each page under a
        # mangled variant (uppercased scheme + utm params + fragment);
        # the SQL replicates crawl.canonical_url_one's rules (lowercase
        # scheme/host, strip fragment, drop utm_* params, empty path →
        # '/'), so each variant collapses onto its original
        "canonical_capture_dedup": rf"""
            WITH base AS (SELECT url, warc_ts FROM read_parquet('{pg}')),
            g AS (SELECT url AS raw, warc_ts, cast(1 AS BIGINT) AS crawl_gen
                  FROM base
                  UNION ALL
                  SELECT replace(url, 'https://', 'HTTPS://')
                           || '?utm_source=recrawl&utm_campaign=x#top',
                         warc_ts + INTERVAL 7 DAY, 2 FROM base),
            parts AS (
              SELECT raw, warc_ts, crawl_gen,
                     lower(regexp_extract(raw,
                         '^([A-Za-z][A-Za-z0-9+.-]*)://', 1)) AS scheme,
                     lower(regexp_extract(raw,
                         '^[A-Za-z][A-Za-z0-9+.-]*://([^/?#]*)', 1)) AS netloc,
                     coalesce(nullif(regexp_extract(raw,
                         '^[A-Za-z][A-Za-z0-9+.-]*://[^/?#]*([^?#]*)', 1),
                         ''), '/') AS path,
                     coalesce(nullif(regexp_extract(raw, '\?([^#]*)', 1),
                                     ''), '') AS rawq
              FROM g),
            canon AS (
              SELECT warc_ts, crawl_gen,
                     scheme || '://' || netloc || path
                       || CASE WHEN coalesce(q, '') = '' THEN ''
                               ELSE '?' || q END AS url
              FROM (SELECT *, array_to_string(list_filter(
                          string_split(rawq, '&'),
                          p -> p <> '' AND NOT starts_with(lower(p),
                                                           'utm_')),
                          '&') AS q
                    FROM parts))
            SELECT url, warc_ts, crawl_gen FROM (
              SELECT *, row_number() OVER (PARTITION BY url
                         ORDER BY warc_ts DESC, crawl_gen DESC) AS rn
              FROM canon)
            WHERE rn = 1 ORDER BY url""",
        # crawl-generation diff, STATUS surface: gen2 drops hash32(url)%4==0
        # urls, appends one comment byte-string where %4==1, discovers one
        # '?page=2' url per %4==2 page. Status is byte EQUALITY of the two
        # generations' blobs — compared directly in SQL, no digest needed
        # (full crawl_diff stays rows-only: its digest columns are
        # hashlib-md5 over raw bytes and DuckDB's md5() is VARCHAR-only,
        # unreproducible for the corpus's binary payloads)
        "crawl_diff_status": rf"""
            WITH p AS (SELECT url, html FROM read_parquet('{pg}')),
            h AS (SELECT url, html,
                         cast(('0x' || substring(md5(url), 1, 8))
                              AS UBIGINT) % 4 AS g
                  FROM p),
            gen2 AS (
              SELECT url,
                     CASE WHEN g = 1 THEN html || encode('<!-- rev2 -->')
                          ELSE html END AS html
              FROM h WHERE g <> 0
              UNION ALL
              SELECT url || '?page=2',
                     encode('<p>continuation page body for the new capture</p>')
              FROM h WHERE g = 2)
            SELECT coalesce(o.url, n.url) AS url,
                   CASE WHEN o.url IS NULL THEN 'added'
                        WHEN n.url IS NULL THEN 'removed'
                        WHEN o.html = n.html THEN 'unchanged'
                        ELSE 'changed' END AS status
            FROM p o FULL OUTER JOIN gen2 n ON o.url = n.url
            ORDER BY url""",
        # per-host crawl-budget cap: k smallest md5-hash32(url) per host
        # (the samplers' pure-function membership rule), ties → url asc
        "host_capped_pages": rf"""
            WITH p AS (SELECT url,
                coalesce(lower(regexp_extract(url, '{_HOST_SQL_RE}', 1)),
                         '') AS host,
                cast(('0x' || substring(md5(url), 1, 8)) AS UBIGINT) AS h
              FROM read_parquet('{pg}'))
            SELECT host, cast(rn AS BIGINT) AS "rank", url FROM (
              SELECT host, url, h,
                     row_number() OVER (PARTITION BY host
                                        ORDER BY h, url) AS rn
              FROM p)
            WHERE rn <= 5 ORDER BY host, rn""",
        # anchor-text index: per dst_url, in-link count + first 5 distinct
        # non-empty anchor texts in lexicographic order, ' | '-joined —
        # same link extraction as page_links
        "anchor_text_summary": rf"""
            WITH p AS (SELECT url, {_HTML_DOC_SQL} AS doc
                       FROM read_parquet('{pg}')
                       WHERE CAST(html AS VARCHAR) LIKE '<!DOCTYPE html>%'),
            l AS (SELECT url AS src_url,
                         unnest(regexp_extract_all(doc, '{_ANCHOR_SQL_RE}', 1)) AS href,
                         unnest(regexp_extract_all(doc, '{_ANCHOR_SQL_RE}', 2)) AS atext
                  FROM p),
            l2 AS (SELECT src_url, trim(href) AS href, atext FROM l
                   WHERE trim(href) <> ''
                     AND (starts_with(trim(href), '/')
                          OR lower(trim(href)) LIKE 'http://%'
                          OR lower(trim(href)) LIKE 'https://%')),
            r AS (SELECT split_part(CASE WHEN lower(href) LIKE 'http://%'
                                OR lower(href) LIKE 'https://%' THEN href
                         ELSE regexp_extract(src_url,
                                '^([A-Za-z][A-Za-z0-9+.-]*://[^/?#]+)', 1)
                              || href END, '#', 1) AS dst_url,
                         trim(regexp_replace(regexp_replace(atext,
                              '<[^>]+>', ' ', 'g'), '\s+', ' ', 'g'))
                             AS anchor_text
                  FROM l2)
            SELECT dst_url, count(*) AS n_inlinks,
                   coalesce(array_to_string(list_slice(list_sort(
                       list_distinct(list(anchor_text)
                                     FILTER (anchor_text <> ''))), 1, 5),
                       ' | '), '') AS anchor_texts
            FROM r GROUP BY 1 ORDER BY 1""",
        # 64-bit frequency-weighted simhash: md5-top-64 token hash + per-
        # bit vote sums, reassembled and viewed as two's-complement int64
        # (dedup.simhash64 mirrored bit for bit)
        "simhash_docs": r"""
            WITH toks AS (
              SELECT doc_id, unnest(regexp_extract_all(
                  lower(coalesce(text, '')), '\w+')) AS tok
              FROM documents),
            tc AS (SELECT doc_id, tok, count(*) AS c FROM toks GROUP BY 1, 2),
            bits AS (
              SELECT doc_id, j.j AS j,
                     sum(CASE WHEN (cast(('0x' || substring(md5(tok), 1, 16))
                                    AS UBIGINT) >> j.j) & 1 = 1
                              THEN c ELSE -c END) AS vote
              FROM tc CROSS JOIN (SELECT unnest(range(0, 64)) AS j) j
              GROUP BY 1, 2),
            h AS (SELECT doc_id,
                         sum(CASE WHEN vote > 0
                                  THEN cast(cast(1 AS UBIGINT)
                                       << cast(j AS INTEGER) AS HUGEINT)
                                  ELSE 0 END) AS hu
                  FROM bits GROUP BY 1)
            SELECT d.doc_id,
                   cast(CASE WHEN coalesce(h.hu, 0) >= 9223372036854775808
                             THEN coalesce(h.hu, 0) - 18446744073709551616
                             ELSE coalesce(h.hu, 0) END AS BIGINT) AS simhash
            FROM documents d LEFT JOIN h ON d.doc_id = h.doc_id
            ORDER BY d.doc_id""",
        # semantic-dedup keep over the doubled embeddings: kept = the
        # min-vec_id representative per identical-embedding clone group
        # (gaussian vectors: only exact clones reach cosine 0.999999)
        # TRUE SemDeDup (cluster-bounded pairwise): same min-per-identical-
        # embedding ground truth as the components-based sibling (at the
        # clones-only tau, both policies coincide — see analysis_graph)
        "semdedup_kept_doubled": r"""
            WITH d AS (SELECT vec_id, embedding FROM embeddings
                       UNION ALL
                       SELECT vec_id + 1000000, embedding FROM embeddings)
            SELECT vec_id FROM d
            WHERE embedding IS NULL
               OR vec_id IN (SELECT min(vec_id) FROM d
                             WHERE embedding IS NOT NULL
                             GROUP BY embedding)
            ORDER BY vec_id""",
        "embedding_dedup_kept_doubled": r"""
            WITH d AS (SELECT vec_id, embedding FROM embeddings
                       UNION ALL
                       SELECT vec_id + 1000000, embedding FROM embeddings)
            SELECT vec_id FROM d
            WHERE embedding IS NULL
               OR vec_id IN (SELECT min(vec_id) FROM d
                             WHERE embedding IS NOT NULL
                             GROUP BY embedding)
            ORDER BY vec_id""",
        # simhash near-dup pairs over the doubled corpus: the engine's
        # 4×16-bit banding has FULL recall at hamming ≤ 3 (pigeonhole: 3
        # flipped bits leave ≥1 band intact) and verifies exact hamming,
        # so its output IS the exact hamming-≤3 pair set — expressible as
        # a self-join over the simhash CTE with bit_count(xor)
        "simhash_pairs_doubled": r"""
            WITH d AS (SELECT doc_id, text FROM documents
                       UNION ALL SELECT doc_id + 1000000, text FROM documents),
            toks AS (SELECT doc_id, unnest(regexp_extract_all(
                         lower(coalesce(text, '')), '\w+')) AS tok FROM d),
            tc AS (SELECT doc_id, tok, count(*) AS c FROM toks GROUP BY 1, 2),
            bits AS (SELECT doc_id, j.j AS j,
                            sum(CASE WHEN (cast(('0x' || substring(md5(tok), 1, 16))
                                           AS UBIGINT) >> j.j) & 1 = 1
                                     THEN c ELSE -c END) AS vote
                     FROM tc CROSS JOIN (SELECT unnest(range(0, 64)) AS j) j
                     GROUP BY 1, 2),
            h AS (SELECT doc_id,
                         sum(CASE WHEN vote > 0
                                  THEN cast(cast(1 AS UBIGINT)
                                       << cast(j AS INTEGER) AS HUGEINT)
                                  ELSE 0 END) AS hu
                  FROM bits GROUP BY 1),
            sh AS (SELECT d2.doc_id,
                          cast(CASE WHEN coalesce(h.hu, 0) >= 9223372036854775808
                                    THEN coalesce(h.hu, 0) - 18446744073709551616
                                    ELSE coalesce(h.hu, 0) END AS BIGINT) AS simhash
                   FROM (SELECT DISTINCT doc_id FROM d) d2
                   LEFT JOIN h ON d2.doc_id = h.doc_id)
            SELECT a.doc_id AS id_a, b.doc_id AS id_b,
                   cast(bit_count(xor(a.simhash, b.simhash)) AS BIGINT)
                       AS hamming
            FROM sh a JOIN sh b ON a.doc_id < b.doc_id
            WHERE bit_count(xor(a.simhash, b.simhash)) <= 3
              -- tokenless docs (simhash 0) are excluded from near-pair
              -- generation on the engine side (content-free fingerprint)
              AND a.simhash <> 0 AND b.simhash <> 0
            ORDER BY 1, 2""",
        # full simhash near-dedup KEEP pipeline, value-exact end-to-end:
        # the pair CTEs are simhash_pairs_doubled verbatim (the engine's
        # 4-band LSH at hamming<=3 is lossless by pigeonhole, so banding
        # == the all-pairs filter); components via a recursive
        # min-reachability CTE (hamming is NOT transitive, so clusters
        # are general components, not digest cliques); keep = component
        # min + every unclustered doc.
        "near_dedup_kept_simhash_doubled": r"""
            WITH RECURSIVE
            d AS (SELECT doc_id, text FROM documents
                  UNION ALL SELECT doc_id + 1000000, text FROM documents),
            toks AS (SELECT doc_id, unnest(regexp_extract_all(
                         lower(coalesce(text, '')), '\w+')) AS tok FROM d),
            tc AS (SELECT doc_id, tok, count(*) AS c FROM toks GROUP BY 1, 2),
            bits AS (SELECT doc_id, j.j AS j,
                            sum(CASE WHEN (cast(('0x' || substring(md5(tok), 1, 16))
                                           AS UBIGINT) >> j.j) & 1 = 1
                                     THEN c ELSE -c END) AS vote
                     FROM tc CROSS JOIN (SELECT unnest(range(0, 64)) AS j) j
                     GROUP BY 1, 2),
            h AS (SELECT doc_id,
                         sum(CASE WHEN vote > 0
                                  THEN cast(cast(1 AS UBIGINT)
                                       << cast(j AS INTEGER) AS HUGEINT)
                                  ELSE 0 END) AS hu
                  FROM bits GROUP BY 1),
            sh AS (SELECT d2.doc_id,
                          cast(CASE WHEN coalesce(h.hu, 0) >= 9223372036854775808
                                    THEN coalesce(h.hu, 0) - 18446744073709551616
                                    ELSE coalesce(h.hu, 0) END AS BIGINT) AS simhash
                   FROM (SELECT DISTINCT doc_id FROM d) d2
                   LEFT JOIN h ON d2.doc_id = h.doc_id),
            e0 AS (SELECT a.doc_id AS id_a, b.doc_id AS id_b
                   FROM sh a JOIN sh b ON a.doc_id < b.doc_id
                   WHERE bit_count(xor(a.simhash, b.simhash)) <= 3
                     AND a.simhash <> 0 AND b.simhash <> 0),
            edges AS (SELECT id_a AS src, id_b AS dst FROM e0
                      UNION ALL SELECT id_b, id_a FROM e0),
            reach AS (SELECT DISTINCT src AS node, src AS root FROM edges
                      UNION
                      SELECT e.dst, r.root
                      FROM reach r JOIN edges e ON e.src = r.node),
            lbl AS (SELECT node, min(root) AS label FROM reach GROUP BY node)
            SELECT d.doc_id, d.text
            FROM d LEFT JOIN lbl ON d.doc_id = lbl.node
            WHERE lbl.node IS NULL OR lbl.label = d.doc_id
            ORDER BY d.doc_id""",
        # per-doc top-k TF-IDF terms, integer-exact surface (rank, word,
        # tf, df): ranking is ulp-stable across numpy log / DuckDB ln
        # (exact ties share (tf, df) and break by word on both sides)
        "tfidf_top_terms": r"""
            WITH toks AS (SELECT doc_id, unnest(regexp_extract_all(
                              lower(coalesce(text, '')), '\w+')) AS word
                          FROM documents),
            tc AS (SELECT doc_id, word, count(*) AS tf FROM toks GROUP BY 1, 2),
            dfr AS (SELECT word, count(*) AS df FROM tc GROUP BY 1),
            s AS (SELECT tc.doc_id, tc.word, tc.tf, dfr.df,
                         tc.tf * ln((SELECT count(*) FROM documents)
                                    / cast(dfr.df AS DOUBLE)) AS tfidf
                  FROM tc JOIN dfr USING (word)),
            r AS (SELECT doc_id, word, tf, df,
                         row_number() OVER (PARTITION BY doc_id
                             ORDER BY tfidf DESC, word) AS rnk
                  FROM s)
            SELECT doc_id, rnk AS "rank", word, cast(tf AS BIGINT) AS tf,
                   cast(df AS BIGINT) AS df
            FROM r WHERE rnk <= 5 ORDER BY doc_id, rnk""",
        # per-lang Pearson r of (tokens, distinct tokens) from exact
        # integer moment sums; num and variance terms formed in integers
        # and cast to double once, same op order as the engine
        "lang_ttr_corr": r"""
            WITH t AS (
              SELECT lang,
                     list_filter(regexp_split_to_array(coalesce(text, ''),
                                 '\s+'), x -> x <> '') AS w
              FROM documents),
            c AS (SELECT lang, cast(len(w) AS BIGINT) AS x,
                         cast(len(list_distinct(w)) AS BIGINT) AS y
                  FROM t),
            s AS (SELECT lang, cast(count(*) AS BIGINT) AS n,
                         sum(x) AS sx, sum(y) AS sy, sum(x * y) AS sxy,
                         sum(x * x) AS sxx, sum(y * y) AS syy
                  FROM c GROUP BY lang)
            SELECT lang, n AS n_docs, cast(sx AS BIGINT) AS sum_words,
                   cast(sy AS BIGINT) AS sum_distinct,
                   CASE WHEN (n * sxx - sx * sx) > 0
                         AND (n * syy - sy * sy) > 0
                        THEN cast(n * sxy - sx * sy AS DOUBLE)
                             / (sqrt(cast(n * sxx - sx * sx AS DOUBLE))
                                * sqrt(cast(n * syy - sy * sy AS DOUBLE)))
                        ELSE 0.0 END AS ttr_corr
            FROM s ORDER BY lang""",
        # filter-rate rollup: the fineweb CASE chain grouped by reason,
        # integer micro-share over the footer-exact corpus count
        "fineweb_filter_rates": rf"""
            WITH toks AS (
              SELECT doc_id, coalesce(text, '') AS t,
                     list_filter(regexp_split_to_array(coalesce(text, ''),
                                 '\s+'), x -> x <> '') AS w,
                     ({_stop_case_sum()}) AS n_stop
              FROM documents),
            base AS (
              SELECT doc_id, w, n_stop, len(w) AS n_words,
                     length(t) - length(regexp_extract_all(t, '\s'))
                         AS nw_chars,
                     CASE WHEN len(w) >= 2
                          THEN [w[i] || ' ' || w[i+1]
                                FOR i IN range(1, len(w))]
                          ELSE []::VARCHAR[] END AS g2
              FROM toks),
            tw AS (
              SELECT doc_id, max(c) AS top_c FROM (
                SELECT doc_id, count(*) AS c
                FROM (SELECT doc_id, unnest(w) AS word FROM toks)
                GROUP BY doc_id, word)
              GROUP BY doc_id),
            m AS (
              SELECT b.doc_id, cast(b.n_words AS BIGINT) AS n_words,
                     cast(b.nw_chars AS DOUBLE)
                         / greatest(cast(b.n_words AS DOUBLE), 1.0)
                         AS mwl,
                     cast(b.n_stop AS BIGINT) AS n_stop,
                     cast(coalesce(tw.top_c, 0) AS DOUBLE)
                         / greatest(cast(b.n_words AS DOUBLE), 1.0)
                         AS twf,
                     cast(len(b.g2) - len(list_distinct(b.g2)) AS DOUBLE)
                         / greatest(cast(len(b.g2) AS DOUBLE), 1.0)
                         AS dgf
              FROM base b LEFT JOIN tw ON b.doc_id = tw.doc_id),
            r AS (
              SELECT CASE WHEN NOT (n_words BETWEEN 25 AND 500)
                              THEN 'word_count'
                          WHEN NOT (mwl >= 4.0 AND mwl <= 10.0)
                              THEN 'mean_word_len'
                          WHEN NOT (n_stop >= 2) THEN 'stopwords'
                          WHEN NOT (twf <= 0.12) THEN 'top_word'
                          WHEN NOT (dgf <= 0.06) THEN 'dup_2gram'
                          ELSE 'keep' END AS reason
              FROM m)
            SELECT reason, cast(count(*) AS BIGINT) AS n_docs,
                   cast(count(*) * 1000000
                        // greatest((SELECT count(*) FROM documents), 1)
                        AS BIGINT) AS share_micro
            FROM r GROUP BY reason ORDER BY reason""",
        # dedup-depth histogram over the doubled corpus: md5 cluster
        # sizes → (size, clusters, rows covered)
        "dup_cluster_size_hist": r"""
            WITH u AS (
              SELECT doc_id, text FROM documents
              UNION ALL
              SELECT doc_id + 1000000, text FROM documents
              UNION ALL
              SELECT doc_id + 2000000, text FROM documents
              WHERE doc_id % 10 = 0),
            g AS (SELECT md5(coalesce(text, '')) AS d,
                         cast(count(*) AS BIGINT) AS c
                  FROM u GROUP BY 1)
            SELECT c AS cluster_size, cast(count(*) AS BIGINT)
                       AS n_clusters,
                   cast(c * count(*) AS BIGINT) AS n_docs
            FROM g GROUP BY c ORDER BY cluster_size""",
        # two-level host gate: page text-density signal (the
        # html_markup_stats doc construction verbatim) → host rollup →
        # integer per-mille verdict joined back to every page
        "host_quality_blocklist": rf"""
            WITH hp AS (SELECT url, {_HTML_DOC_SQL} AS doc
                        FROM read_parquet('{pg}')
                        WHERE CAST(html AS VARCHAR)
                              LIKE '<!DOCTYPE html>%'),
            s AS (SELECT url,
                         coalesce(lower(regexp_extract(url,
                             '{_HOST_SQL_RE}', 1)), '') AS host,
                         cast(length(doc) AS BIGINT) AS n_chars,
                         cast(length(regexp_replace(doc, '<[^>]*>', '',
                                                    'g')) AS BIGINT)
                           AS text_chars
                  FROM hp),
            h AS (SELECT host, sum(text_chars) AS st, sum(n_chars) AS sc
                  FROM s GROUP BY host)
            SELECT s.url, s.host,
                   cast(h.st * 1000 // greatest(h.sc, 1) AS BIGINT)
                     AS host_text_permille,
                   h.st * 1000 < 680 * h.sc AS blocked
            FROM s JOIN h USING (host) ORDER BY s.url""",
        # asymmetric shingle containment over the superset-twin corpus:
        # distinct md5-hash32 3-gram shingles (the minhash_pairs_md5 gram
        # rule), DF cap 16 + min-size 3 mirrored verbatim, containment =
        # one IEEE division of exact ints on both sides
        "containment_pairs_doubled": r"""
            WITH dd AS (
              SELECT doc_id, text FROM documents
              UNION ALL
              SELECT doc_id + 1000000,
                     coalesce(text, '') || ' qq0 ww1 ee2 rr3 tt4 yy5'
              FROM documents),
            words AS (SELECT doc_id,
                             list_filter(regexp_split_to_array(
                                 lower(coalesce(text, '')), '\s+'),
                                         x -> x <> '') AS w FROM dd),
            grams AS (SELECT doc_id,
                             CASE WHEN len(w) = 0 THEN []::VARCHAR[]
                                  WHEN len(w) < 3
                                    THEN [array_to_string(w, ' ')]
                                  ELSE [array_to_string(w[i:i+2], ' ')
                                        FOR i IN range(1, len(w) - 1)]
                             END AS g FROM words),
            sh AS (SELECT DISTINCT doc_id,
                          CAST(CAST(('0x' || substring(md5(gram), 1, 8))
                                    AS UBIGINT) AS BIGINT) AS fp
                   FROM (SELECT doc_id, unnest(g) AS gram FROM grams)),
            df AS (SELECT fp, count(*) AS dfc FROM sh GROUP BY fp),
            surv AS (SELECT sh.doc_id, sh.fp
                     FROM sh JOIN df USING (fp) WHERE dfc <= 16),
            sz AS (SELECT doc_id, count(*) AS eff FROM surv GROUP BY doc_id),
            inter AS (SELECT a.doc_id AS id_a, b.doc_id AS id_b,
                             count(*) AS n_shared
                      FROM surv a JOIN surv b
                        ON a.fp = b.fp AND a.doc_id < b.doc_id
                      GROUP BY 1, 2)
            SELECT id_a, id_b, n_shared,
                   CAST(n_shared AS DOUBLE) / sa.eff AS cont_a,
                   CAST(n_shared AS DOUBLE) / sb.eff AS cont_b
            FROM inter
            JOIN sz sa ON sa.doc_id = inter.id_a
            JOIN sz sb ON sb.doc_id = inter.id_b
            WHERE sa.eff >= 3 AND sb.eff >= 3
              AND greatest(CAST(n_shared AS DOUBLE) / sa.eff,
                           CAST(n_shared AS DOUBLE) / sb.eff) >= 0.9
            ORDER BY id_a, id_b""",
        # redirect-chain resolution: the oracle WALKS the same grafted
        # parent table (shared sampling hash) with a recursive CTE; the
        # engine resolves it by pointer doubling — final node and hop
        # count must agree exactly
        "redirect_chains": r"""
            WITH RECURSIVE e AS (
              SELECT doc_id,
                     cast(('0x' || substring(
                         md5(cast(doc_id AS VARCHAR)), 1, 8))
                         AS UBIGINT) AS h
              FROM documents),
            p AS (SELECT doc_id,
                         (doc_id = 0 OR h % 4 = 0) AS term,
                         CASE WHEN doc_id = 0 OR h % 4 = 0 THEN doc_id
                              ELSE greatest(
                                  doc_id - 1 - cast(h % 3 AS BIGINT), 0)
                         END AS parent
                  FROM e),
            walk AS (
              SELECT doc_id AS id, doc_id AS cur,
                     cast(0 AS BIGINT) AS n_hops
              FROM p
              UNION ALL
              SELECT w.id, p.parent, w.n_hops + 1
              FROM walk w JOIN p ON p.doc_id = w.cur
              WHERE NOT p.term)
            SELECT id AS doc_id,
                   arg_max(cur, n_hops) AS final_id,
                   max(n_hops) AS n_hops
            FROM walk GROUP BY id ORDER BY doc_id""",
        # leakage-safe split: 90/5/5 by the shared sampling hash of the
        # HOST string (train_val_test_split's rule, host as the key)
        "host_split_pages": rf"""
            WITH p AS (SELECT url,
                coalesce(lower(regexp_extract(url, '{_HOST_SQL_RE}', 1)),
                         '') AS host
              FROM read_parquet('{pg}'))
            SELECT url, host,
                   CASE WHEN h < cast(4294967296 * 90 // 100 AS UBIGINT)
                          THEN 'train'
                        WHEN h < cast(4294967296 * 95 // 100 AS UBIGINT)
                          THEN 'val'
                        ELSE 'test' END AS split
            FROM (SELECT url, host,
                         cast(('0x' || substring(md5(host), 1, 8))
                             AS UBIGINT) AS h
                  FROM p)
            ORDER BY url""",
    }
    if pg is None:
        for name in _PAGE_CORPUS_ORACLES:
            out.pop(name, None)
    else:
        # the composed recipe oracle resolves extraction through the
        # generation-time golden table (sibling of the pages shards)
        import os as _os
        golden = _os.path.join(
            _os.path.dirname(_os.path.dirname(pg)), "golden.parquet")
        if _os.path.exists(golden):
            out["curation_recipe"] = _curation_recipe_sql(golden)
            # quarantine rollup: kind pinned to the golden table, fixed
            # M11 error strings (stages/extractor.py)
            out["extraction_rejection_report"] = rf"""
                WITH r AS (SELECT payload_kind,
                       CASE WHEN payload_kind IN ('empty', 'unknown')
                            THEN 'rejected' ELSE 'ok' END AS status,
                       CASE WHEN payload_kind = 'empty'
                              THEN 'empty payload'
                            WHEN payload_kind = 'unknown'
                              THEN 'unsupported payload type'
                            ELSE '' END AS error
                       FROM read_parquet('{golden}'))
                SELECT payload_kind, status, error,
                       cast(count(*) AS BIGINT) AS n
                FROM r GROUP BY 1, 2, 3 ORDER BY 1, 2, 3"""
    return out
