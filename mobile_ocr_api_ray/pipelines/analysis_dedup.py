"""Dedup family, decontamination, boilerplate, packing and quality-keep queries.

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

from .analysis_common import (DOUBLE_OFFSET, _docs, _coarse_hint_for, _docs_coarse_hint, _doubled_docs, _WORD_TOKEN_RE, SPLIT_PCT, LINE_WIDTH, _chunked_text, _embeddings, _doubled_embeddings, _doubled_clone_pairs, _pages_dir_for, _corpus_rows, _hash_keep, _pages_coarse_hint)  # noqa: F401



# ------------------------------------------------------------------- dedup

def exact_dedup_docs(sf_dir: str):
    return dedup.exact_dedup_stats(_docs(sf_dir, ["doc_id", "text"])).sort("digest")


def exact_dedup_doubled(sf_dir: str):
    return dedup.exact_dedup_stats(_doubled_docs(sf_dir)).sort("digest")


SKEW_HOT_TEXT = "HOT DUPLICATE PAYLOAD"


def exact_dedup_skew(sf_dir: str):
    """Hot-key stress form of exact dedup (SURVEY §2.7 D1): ~30% of the
    corpus is rewritten to ONE hot payload (keep ⇔ hash32(doc_id) % 10 < 3,
    the engine-wide sampling hash), so a single digest owns ~30% of all
    rows — the worst-case key skew a 100 TB dedup hits on boilerplate
    pages. Correct AND straggler-free under that skew because
    exact_dedup_stats exchanges per-block PARTIALS (Min/Count combine
    inside each block before the shuffle), so the hot digest reaches its
    reducer as ~n_blocks one-row partials, never 30% of the corpus;
    tests/test_operators.py asserts the wall-time stays comparable to the
    uniform corpus. Value-exact vs the same CASE/md5 SQL."""
    def skew(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_pylist()
        texts = batch["text"].to_pylist()
        out = [SKEW_HOT_TEXT if _hash32(i) % 10 < 3 else (t or "")
               for i, t in zip(ids, texts)]
        return pa.table({"doc_id": batch["doc_id"],
                         "text": pa.array(out, pa.string())})

    skewed = _docs(sf_dir, ["doc_id", "text"]).map_batches(
        skew, batch_format="pyarrow")
    return dedup.exact_dedup_stats(skewed).sort("digest")


def soft_dedup_weights_doubled(sf_dir: str):
    """SoftDeDup duplication reweighting (stages/dedup.soft_dedup_weights)
    over the doubled corpus — every text has ≥2 copies, so every row's
    weight is a real reduction (1_000_000 // cluster_size micro-units).
    One coarse digest-prefix exchange of (id, digest) rows; value-exact
    vs the SQL count-per-md5-group + integer division."""
    return dedup.soft_dedup_weights(
        _doubled_docs(sf_dir),
        n_coarse=_docs_coarse_hint(sf_dir, 2)).sort("doc_id")


def soft_dedup_sampled_docs(sf_dir: str):
    """SoftDeDup sampling — the reweighting APPLIED: keep each row of the
    doubled corpus with probability weight_micro/1e6 via the engine-wide
    deterministic Bernoulli rule (keep ⇔ hash32(doc_id)·1e6 <
    weight_micro·2^32, pure function of the key — integer compare, no
    float). A 2-copy cluster keeps each member at ~50%, so in
    expectation one copy's worth of mass survives per cluster while
    every cluster keeps nonzero coverage. Membership never depends on
    partitioning; value-exact in SQL with the shared md5-prefix hash."""
    weights = dedup.soft_dedup_weights(
        _doubled_docs(sf_dir), n_coarse=_docs_coarse_hint(sf_dir, 2))

    def keep(batch: pa.Table) -> pa.Table:
        h = np.array([_hash32(i) for i in batch["doc_id"].to_pylist()],
                     np.int64)
        w = batch["weight_micro"].to_numpy().astype(np.int64)
        mask = h * 1_000_000 < w * (1 << 32)
        return batch.select(
            ["doc_id", "cluster_size", "weight_micro"]).filter(
            pa.array(mask))

    return weights.map_batches(keep, batch_format="pyarrow").sort("doc_id")


SOURCE_MIX_BUDGET = 1_000_000  # token budget the epoch plan allocates


def source_epoch_plan(sf_dir: str):
    """Mixture/epoch planning table (the LLaMA-recipe 'epochs per source'
    computation, done on-engine with exact integers): per-source corpus
    inventory (n_docs, n_tokens) + a deterministic relative weight
    (1 + source_index % 4), allocated a fixed token budget
    proportionally — target_tokens = budget·rel_w // Σrel_w,
    epochs_micro = target·1e6 // n_tokens (how many passes over the
    source the budget implies, in micro-epochs), effective_tokens =
    n_tokens·epochs_micro // 1e6. Per-batch (source, count, Σtokens)
    partials → one bounded source groupby → the ≤|sources| plan computed
    on the driver; all divisions integer-floor so the plan is
    partition-invariant and value-exact in SQL."""
    from ray.data.aggregate import Count, Sum

    def partials(batch: pa.Table) -> pa.Table:
        t = pc.fill_null(batch["text"], "")
        return pa.table({
            "source": batch["source"],
            "n_tokens": pc.cast(
                pc.count_substring_regex(t, r"\S+"), pa.int64())})

    rows = (_docs(sf_dir, ["doc_id", "text", "source"])
            .map_batches(partials, batch_format="pyarrow")
            .groupby("source")
            .aggregate(Count(alias_name="n_docs"),
                       Sum("n_tokens", alias_name="n_tokens"))
            .to_pandas().sort_values("source").reset_index(drop=True))
    idx = rows["source"].str.slice(3).astype(int)
    rel = (1 + idx % 4).astype(np.int64)
    total_rel = int(rel.sum())
    target = SOURCE_MIX_BUDGET * rel // total_rel
    ntok = rows["n_tokens"].astype(np.int64)
    epochs_micro = np.where(
        ntok > 0, target * 1_000_000 // np.maximum(ntok, 1), 0)
    return pa.table({
        "source": pa.array(rows["source"], pa.string()),
        "n_docs": pa.array(rows["n_docs"].astype(np.int64), pa.int64()),
        "n_tokens": pa.array(ntok, pa.int64()),
        "rel_weight": pa.array(rel, pa.int64()),
        "target_tokens": pa.array(target.astype(np.int64), pa.int64()),
        "epochs_micro": pa.array(epochs_micro.astype(np.int64), pa.int64()),
        "effective_tokens": pa.array(
            (ntok * epochs_micro // 1_000_000).astype(np.int64),
            pa.int64())})


SAMPLE_EXACT_K = 50


def sample_exact_k_docs(sf_dir: str):
    """Deterministic EXACT-k corpus sample — the fixed-size complement of
    sample_docs' Bernoulli fraction (an eval set needs exactly k rows, not
    ~k): the k smallest (hash32(doc_id), doc_id) rows, i.e. a seedless
    uniform draw that is a pure function of the key set. One distributed
    partial-top-k pass (stages/topk.topk_table — each block prunes to its
    own top k, the driver merges ≤ k·blocks rows); no global sort, no
    Bernoulli variance. Value-exact vs SQL ORDER BY md5-prefix LIMIT k."""
    from ..stages.topk import topk_table

    docs = _docs(sf_dir, ["doc_id", "text"])

    def add_hash(batch: pa.Table) -> pa.Table:
        h = np.array([_hash32(i) for i in batch["doc_id"].to_pylist()],
                     np.int64)
        return pa.table({"doc_id": batch["doc_id"],
                         "text": batch["text"],
                         "h": pa.array(h, pa.int64())})

    t = topk_table(docs.map_batches(add_hash, batch_format="pyarrow"),
                   [("h", "ascending"), ("doc_id", "ascending")],
                   SAMPLE_EXACT_K)
    return (ray.data.from_arrow(t.select(["doc_id", "text"]))
            .sort("doc_id"))


def length_percentile_docs(sf_dir: str):
    """Exact global rank + percentile of every document by (n_chars,
    doc_id) — the rank-transform normalization
    (stages/text_analysis.global_value_rank): value-range bucketing +
    a bounded driver prefix sum on stages/exchange.range_prefix, no
    global sort. Value-exact vs SQL row_number over the same order."""
    return text_analysis.global_value_rank(
        _docs(sf_dir, ["doc_id", "n_chars"]),
        value_col="n_chars").sort("doc_id")


def lang_percentile_docs(sf_dir: str):
    """Per-GROUP rank transform: every document's rank and exact integer
    percentile by (n_chars, doc_id) WITHIN its language — the group-scoped
    sibling of length_percentile_docs (per-group normalization wants the
    group's own distribution, per the group_zscore rationale). One lang
    groupby; ranks resolve vectorized per group (argsort + arange, no
    per-row dispatch). Value-exact vs SQL row_number PARTITION BY lang."""

    def rank_group(df: pd.DataFrame) -> pd.DataFrame:
        d = df.sort_values(["n_chars", "doc_id"],
                           kind="mergesort").reset_index(drop=True)
        n = len(d)
        rank = np.arange(n, dtype=np.int64)
        return pd.DataFrame({
            "doc_id": d["doc_id"].to_numpy(),
            "lang": d["lang"].to_numpy(),
            "n_chars": d["n_chars"].to_numpy(),
            "rank_idx": rank,
            "percentile_micro": rank * 1_000_000 // n})

    out = (_docs(sf_dir, ["doc_id", "lang", "n_chars"])
           .groupby("lang").map_groups(rank_group, batch_format="pandas"))
    return out.sort("doc_id")


def cms_word_counts_docs(sf_dir: str):
    """Count-min sketch frequency estimates for the quality-stopword
    probe set (stages/text_analysis.cms_word_counts): 4×1024 cells,
    md5-prefix bucket hash, sparse per-batch cell combiner, one bounded
    groupby-sum — the mergeable fixed-memory counting sketch. Value-exact
    in SQL (same hash, same min-over-depths)."""
    return text_analysis.cms_word_counts(
        _docs(sf_dir, ["doc_id", "text"]),
        text_analysis.QUALITY_STOPWORDS)


def shuffle_order_docs(sf_dir: str):
    """Deterministic seeded global training-order shuffle
    (stages/text_analysis.global_shuffle_order): rank = position of
    (md5('s0:' || doc_id), doc_id) in corpus order, shard = rank % 8.
    Hash-first-byte range partitioning + a ≤256-row driver prefix sum
    (stages/exchange.range_prefix) — NO global sort, and the text column
    never moves. Value-exact vs
    row_number() over the same md5 ordering in SQL."""
    return text_analysis.global_shuffle_order(
        _docs(sf_dir, ["doc_id"])).sort("doc_id")


def length_fit_docs(sf_dir: str):
    """On-engine exact least-squares fit of n_chars on n_ws_tokens
    (stages/text_analysis.length_fit): five int64 partial sums per batch,
    one distributed Sum, Cramer closed form on the driver — partials are
    exact integers so the fit is partition-invariant and value-exact
    (BIGINT sums + identical cast/divide order for the float slope)."""
    return text_analysis.length_fit(_docs(sf_dir, ["doc_id", "text"]))


def minhash_pairs_doubled(sf_dir: str):
    return dedup.minhash_dedup_pairs(
        _doubled_docs(sf_dir), threshold=0.7,
        n_coarse=_docs_coarse_hint(sf_dir, 2)).sort(["id_a", "id_b"])


def minhash_pairs_md5_doubled(sf_dir: str):
    """Value-exact MinHash LSH over the doubled corpus
    (stages/dedup.minhash_pairs_md5: md5-hash32 shingles, 16 affine
    permutations mod 2^31-1, 8×2 banding on literal component pairs) —
    the oracle-able sibling of minhash_pairs_doubled, whose crc32 +
    uint64-wrap arithmetic has no SQL form."""
    return dedup.minhash_pairs_md5(
        _doubled_docs(sf_dir),
        n_coarse=_docs_coarse_hint(sf_dir, 2)).sort(["id_a", "id_b"])


def simhash_pairs_doubled(sf_dir: str):
    return dedup.simhash_near_pairs(
        _doubled_docs(sf_dir), max_hamming=3,
        n_coarse=_docs_coarse_hint(sf_dir, 2)).sort(["id_a", "id_b"])


def simhash_docs(sf_dir: str):
    return _docs(sf_dir, ["doc_id", "text"]).map_batches(
        dedup.simhash_batch, batch_format="pyarrow").sort("doc_id")


def ngram_jaccard_adjacent(sf_dir: str):
    """Exact 3-gram Jaccard between every (doc_id, doc_id+1) pair — the
    n-gram Jaccard dedup kernel exercised as a distributed pairwise op with
    a full SQL oracle (gram sets reproduced verbatim in DuckDB)."""
    return dedup.adjacent_ngram_jaccard(
        _docs(sf_dir, ["doc_id", "text"]),
        n_coarse=_docs_coarse_hint(sf_dir)).sort("id_a")


def minhash_verified_pairs_doubled(sf_dir: str):
    """MinHash candidates verified by exact n-gram Jaccard ≥ 0.7 — the
    candidate→verify composition (LSH recall, exact precision) via the
    two-shuffle repartition join in dedup.verify_pairs_ngram."""
    docs = _doubled_docs(sf_dir)
    hint = _docs_coarse_hint(sf_dir, 2)
    pairs = dedup.minhash_dedup_pairs(docs, threshold=0.7, n_coarse=hint)
    verified = dedup.verify_pairs_ngram(pairs, docs, n_coarse=hint)

    def keep(batch: pa.Table) -> pa.Table:
        return batch.filter(pc.greater_equal(batch["jaccard"], pa.scalar(0.7)))

    return verified.map_batches(keep, batch_format="pyarrow").sort(["id_a", "id_b"])


def edit_verified_pairs_doubled(sf_dir: str):
    """MinHash candidates verified by EXACT Levenshtein edit distance
    (stages/dedup.verify_pairs_edit) — the character-level verify stage
    that catches near-dups whose edits are character-local (typos, OCR
    noise, truncation) where token-gram Jaccard over-penalizes.

    The doubled corpus is MUTATED so distances are non-trivial: each
    twin drops its first ``doc_id % 7`` characters (``substring(text,
    (doc_id % 7) + 1)`` verbatim in SQL), so edit distances spread over
    0..6 while the shingle sets stay band-collidable. Candidates come
    from the value-exact md5 MinHash (minhash_pairs_md5), the distance
    kernel is byte-exact vs DuckDB ``levenshtein()``, and edit_sim =
    1 − dist/max(octet_length) is a single exact-int division — the
    whole composition is value-exact in SQL."""
    docs = _docs(sf_dir, ["doc_id", "text"])

    def construct(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_numpy()
        t = pc.fill_null(batch["text"], "")
        slices = [pc.utf8_slice_codeunits(t, k)
                  .to_numpy(zero_copy_only=False) for k in range(7)]
        twin = np.select([ids % 7 == k for k in range(7)], slices,
                         default="")
        return pa.table({
            "doc_id": pa.array(
                np.concatenate([ids, ids + DOUBLE_OFFSET]), pa.int64()),
            "text": pa.array(
                np.concatenate([t.to_numpy(zero_copy_only=False),
                                twin]).astype(object), pa.string())})

    mutated = docs.map_batches(construct, batch_format="pyarrow")
    hint = _docs_coarse_hint(sf_dir, 2)
    pairs = dedup.minhash_pairs_md5(mutated, n_coarse=hint)
    out = dedup.verify_pairs_edit(pairs, mutated, n_coarse=hint)
    return out if isinstance(out, pa.Table) else out.sort(["id_a", "id_b"])


def dup_clusters_doubled(sf_dir: str):
    pairs = dedup.minhash_dedup_pairs(_doubled_docs(sf_dir), threshold=0.7,
                                      n_coarse=_docs_coarse_hint(sf_dir, 2))
    return dedup.dup_clusters(pairs).sort("src")


def fingerprint_pairs_doubled(sf_dir: str, threshold: float = 0.5):
    """Winnowing fingerprint-collision near-dup pairs on the doubled corpus
    (substring-overlap dedup — catches partially copied documents that
    whole-document digests miss)."""
    # two hints: the fp EXPLODE (~100 fingerprints per doc) sizes the
    # bucket shuffle; the much smaller pair/count table sizes the two
    # doc-keyed eff-attach passes
    return dedup.fingerprint_collision_pairs(
        _doubled_docs(sf_dir), threshold=threshold,
        n_coarse=_docs_coarse_hint(sf_dir, 2 * 64),
        n_coarse_pairs=_docs_coarse_hint(sf_dir, 8)).sort(["id_a", "id_b"])


def line_dedup_docs(sf_dir: str):
    """C4-style line-level dedup (first occurrence of every 30+-char line
    survives corpus-wide, documents reassembled in order) over the doubled
    corpus. The synthetic docs carry no newlines, so lines derive from
    fixed 80-char chunking (_chunked_text — mirrored as ``substring(t, i,
    80)`` slices in the SQL oracle); every full-width chunk is eligible,
    the <30-char tail chunk is exempt, so the doubled clone loses every
    full chunk to its original and keeps only its short tail — exercising
    partial removal + reassembly."""
    docs = _doubled_docs(sf_dir)

    def to_lines(batch: pa.Table) -> pa.Table:
        return pa.table({"doc_id": batch["doc_id"],
                         "text": _chunked_text(
                             pc.fill_null(batch["text"], ""))})

    ds = docs.map_batches(to_lines, batch_format="pyarrow")
    nc = _docs_coarse_hint(sf_dir, 2)
    out = dedup.line_dedup(ds, n_coarse=nc, n_coarse_docs=nc)
    # empty corpus → the stage's typed-empty pa.Table (already "sorted")
    return out if isinstance(out, pa.Table) else out.sort("doc_id")


def sentence_dedup_docs(sf_dir: str):
    """C4's native granularity (Raffel et al. JMLR'20 §2.2 removes
    repeated SPANS at sentence boundaries; line_dedup_docs is the
    per-line variant): first occurrence of every 30+-char sentence
    survives corpus-wide, docs reassembled space-joined. The synthetic
    docs carry no punctuation, so sentence structure derives from the
    SAME 80-char chunk construction as line_dedup_docs with '. ' as the
    chunk separator (lines text rewritten '\\n' → '. '): each chunk
    becomes a 'chunk.' sentence under the explicit-ASCII mark-and-split
    rule (stages/dedup.sentence_dedup), the doubled clone loses every
    shared sentence to its original, and docs whose raw text already
    contains [.!?] boundaries split further — identically on both
    sides, since the SQL applies the same regex to the same constructed
    text. Zero-sentence docs (empty text) are absent from the output on
    both sides."""
    docs = _doubled_docs(sf_dir)

    def to_sentenced(batch: pa.Table) -> pa.Table:
        lt = _chunked_text(pc.fill_null(batch["text"], ""))
        return pa.table({"doc_id": batch["doc_id"],
                         "text": pc.replace_substring(lt, "\n", ". ")})

    ds = docs.map_batches(to_sentenced, batch_format="pyarrow")
    nc = _docs_coarse_hint(sf_dir, 2)
    out = dedup.sentence_dedup(ds, n_coarse=nc, n_coarse_docs=nc)
    return out if isinstance(out, pa.Table) else out.sort("doc_id")


def exact_substr_dedup_docs(sf_dir: str):
    """ExactSubstr (Lee et al. ACL'22 §4.1) over the doubled corpus:
    every ≥50-char substring occurring twice anywhere survives only at
    its first (doc_id, offset) occurrence; covered characters elsewhere
    are removed, originals' whitespace preserved byte-exactly. Each
    clone duplicates its original in full, so any clone of ≥50 chars is
    erased to '' (its every window is owned by the original); originals
    lose only corpus-internal repeats. Value-exact SQL oracle — the
    window/owner/coverage construction restated over substring() rows."""
    docs = _doubled_docs(sf_dir)
    nc = _docs_coarse_hint(sf_dir, 2)
    out = dedup.exact_substr_dedup(docs, n_coarse=nc, n_coarse_docs=nc)
    return out if isinstance(out, pa.Table) else out.sort("doc_id")


def near_dedup_kept_doubled(sf_dir: str):
    """The full near-dedup pipeline end to end: MinHash pairs → connected
    components → keep ONE representative (the cluster label = min doc_id)
    per cluster, plus every unclustered doc. The anti-filter side is the
    cluster table (proportional to the duplicate set, never the corpus),
    re-attached with a left hash join — docs with no cluster row or whose
    label equals their own id survive."""
    from ..stages.joins import hash_join

    docs = _doubled_docs(sf_dir)
    pairs = dedup.minhash_dedup_pairs(docs, threshold=0.7,
                                      n_coarse=_docs_coarse_hint(sf_dir, 2))
    clusters = dedup.dup_clusters(pairs).materialize()
    nc = _docs_coarse_hint(sf_dir, 2)

    if clusters.count() == 0:
        return docs.sort("doc_id")

    joined = hash_join(docs, clusters, "doc_id", "src", how="left",
                       n_coarse=nc)

    def keep(batch: pa.Table) -> pa.Table:
        lbl = batch["label"]
        mask = pc.or_kleene(pc.is_null(lbl),
                            pc.equal(lbl, batch["doc_id"]))
        return batch.filter(pc.fill_null(mask, False)).select(
            ["doc_id", "text"])

    return joined.map_batches(keep, batch_format="pyarrow").sort("doc_id")


DECON_BENCHMARK_DOCS = 10  # first-k docs stand in for the eval benchmark
DECON_NGRAM = 8
DECON_MIN_HITS = 1


def decontaminate_docs(sf_dir: str, n: int = DECON_NGRAM,
                       min_hits: int = DECON_MIN_HITS):
    """Benchmark decontamination: flag every document sharing ≥ min_hits
    word n-grams with the benchmark set (here: the corpus's first
    DECON_BENCHMARK_DOCS docs, a deterministic stand-in for an eval set).

    The benchmark's n-gram set is SMALL by construction (eval suites are
    tiny next to the corpus) — built once on the driver, broadcast via
    ray.put, probed per batch with EXACT string-set intersection (no gram
    hashing: a crc32 collision against an unrelated benchmark gram would
    silently flag a clean doc and break the value-exact SQL oracle). The
    corpus side streams; nothing shuffles. Returns
    (doc_id, n_hits, contaminated)."""
    ref = ray.put(_bench_gram_set(sf_dir, n))

    def flag(batch: pa.Table) -> pa.Table:
        grams_ref = ray.get(ref)
        hits = [len(dedup.ngram_set(t or "", n) & grams_ref)
                for t in batch["text"].to_pylist()]
        h = pa.array(hits, pa.int64())
        return pa.table({"doc_id": batch["doc_id"],
                         "n_hits": h,
                         "contaminated": pc.greater_equal(
                             h, pa.scalar(min_hits, pa.int64()))})

    return (_docs(sf_dir, ["doc_id", "text"])
            .map_batches(flag, batch_format="pyarrow").sort("doc_id"))


# ---------------------------------------------------------------------------
# Per-source boilerplate vocabulary + removal (CCNet / RefinedWeb-style):
# a word is "boilerplate" for a source when it appears in >= NUM/DEN of that
# source's documents — the distributed analogue of stripping nav bars /
# footers that repeat across a domain's pages. Integer threshold rule
# (n_with * DEN >= NUM * n_docs) so the engine and the SQL oracle agree at
# boundaries without float comparisons.

BOILER_NUM = 9
BOILER_DEN = 10



BLOOM_M_BITS = 1 << 17  # 16 KB filter
BLOOM_K = 4


def _bloom_positions(gram: str, m_bits: int, k: int) -> list[int]:
    """k deterministic bit positions per gram: crc32 over a salt prefix —
    no RNG, so the filter is identical across runs and partitionings."""
    return [zlib.crc32(f"{j}:{gram}".encode()) % m_bits for j in range(k)]


def bloom_decontaminate_docs(sf_dir: str, n: int = DECON_NGRAM,
                             min_hits: int = DECON_MIN_HITS,
                             m_bits: int = BLOOM_M_BITS,
                             k: int = BLOOM_K):
    """Bloom-filter decontamination — the fixed-memory form of
    decontaminate_docs for benchmark suites too large to broadcast as
    exact string sets: benchmark grams fold into an m-bit Bloom filter
    (k crc32 hashes), the filter broadcasts at m/8 bytes REGARDLESS of
    benchmark size, and each corpus doc counts grams whose k bits are
    all set. One-sided by construction: never misses a true hit
    (n_maybe_hits >= the exact operator's n_hits for every doc — the
    differential test pins this), may overcount on bit collisions.
    Returns (doc_id, n_maybe_hits, contaminated_maybe)."""
    bits = np.zeros(m_bits // 8, np.uint8)
    for g in _bench_gram_set(sf_dir, n):
        for h in _bloom_positions(g, m_bits, k):
            bits[h >> 3] |= np.uint8(1 << (h & 7))
    ref = ray.put(bits)

    def flag(batch: pa.Table) -> pa.Table:
        b = ray.get(ref)

        def gram_in(g: str) -> bool:
            return all(b[h >> 3] & (1 << (h & 7))
                       for h in _bloom_positions(g, m_bits, k))

        hits = [sum(gram_in(g) for g in dedup.ngram_set(t or "", n))
                for t in batch["text"].to_pylist()]
        h = pa.array(hits, pa.int64())
        return pa.table({"doc_id": batch["doc_id"],
                         "n_maybe_hits": h,
                         "contaminated_maybe": pc.greater_equal(
                             h, pa.scalar(min_hits, pa.int64()))})

    return (_docs(sf_dir, ["doc_id", "text"])
            .map_batches(flag, batch_format="pyarrow").sort("doc_id"))


def _word_doc_counts(sf_dir: str):
    """(source, word, n_docs_with): distinct-per-doc word explode with a
    per-batch combiner (Arrow group_by inside the batch) so the global
    (source, word) groupby shuffles pre-aggregated counts, not one row per
    word occurrence. Tokenizer = RE2 ``\\s+`` split with empties dropped —
    the SAME regex engine and pattern as the oracle's
    regexp_split_to_array (Arrow's utf8_split_whitespace would split on
    Unicode whitespace like NBSP that RE2 ``\\s`` does not)."""

    def partial(batch: pa.Table) -> pa.Table:
        words = pc.split_pattern_regex(batch["text"], r"\s+")
        flat = pc.list_flatten(words)
        parent = pc.list_parent_indices(words)
        mask = pc.not_equal(flat, "")          # Arrow split emits empties
        tb = pa.table({
            "source": batch["source"].take(parent.filter(mask)),
            "word": flat.filter(mask),
            "parent": parent.filter(mask)})
        distinct = tb.group_by(["source", "word", "parent"]).aggregate([])
        g = distinct.group_by(["source", "word"]).aggregate(
            [("parent", "count")])
        return pa.table({"source": g["source"], "word": g["word"],
                         "n": g["parent_count"].cast(pa.int64())})

    return (_docs(sf_dir, ["text", "source"])
            .map_batches(partial, batch_format="pyarrow", batch_size=8192)
            .groupby(["source", "word"])
            .aggregate(Sum("n", alias_name="n_docs_with")))


def _source_doc_counts(sf_dir: str) -> dict:
    """Documents per source, computed distributed then collected — bounded
    by the number of sources/domains (millions at web scale: still a
    broadcastable dict, never the corpus itself)."""
    g = (_docs(sf_dir, ["source"]).groupby("source")
         .aggregate(Count(alias_name="n_docs")).to_pandas())
    return dict(zip(g["source"], g["n_docs"].astype(int)))


def _boiler_counts(sf_dir: str, num: int, den: int):
    """Filtered (source, word, n_docs_with, doc_frac) rows, UNSORTED and
    unguarded — the shared core of vocab (adds sort + empty guard) and
    scrub (collapses to a key set, needs neither)."""
    nd = _source_doc_counts(sf_dir)
    ref = ray.put(nd)
    counts = _word_doc_counts(sf_dir)

    def finalize(batch: pa.Table) -> pa.Table:
        ndmap = ray.get(ref)
        n_docs = pa.array(
            pd.Series(batch["source"].to_pylist()).map(ndmap).to_numpy(),
            pa.int64())
        keep = pc.greater_equal(pc.multiply(batch["n_docs_with"],
                                            pa.scalar(den, pa.int64())),
                                pc.multiply(n_docs,
                                            pa.scalar(num, pa.int64())))
        out = pa.table({
            "source": batch["source"], "word": batch["word"],
            "n_docs_with": batch["n_docs_with"],
            "doc_frac": pc.divide(batch["n_docs_with"].cast(pa.float64()),
                                  n_docs.cast(pa.float64()))})
        return out.filter(keep)

    return counts.map_batches(finalize, batch_format="pyarrow")


def boilerplate_vocab(sf_dir: str, num: int = BOILER_NUM,
                      den: int = BOILER_DEN):
    """(source, word, n_docs_with, doc_frac) for words in >= num/den of a
    source's docs. The per-source doc counts are a tiny broadcast side;
    the (source, word) count table streams through the filter."""
    out = _boiler_counts(sf_dir, num, den).sort(["source", "word"])
    return exchange.nonempty_or_typed_table(out, {
        "source": pa.string(), "word": pa.string(),
        "n_docs_with": pa.int64(), "doc_frac": pa.float64()})


def _boiler_key_set(sf_dir: str, num: int, den: int) -> frozenset:
    """The per-source boilerplate vocabulary as combined source\\x00word
    membership keys — the broadcast side shared by every scrub caller."""
    vdf = _boiler_counts(sf_dir, num, den).to_pandas()
    if vdf.empty or "source" not in vdf.columns:   # all-empty block drop
        return frozenset()
    return frozenset(vdf["source"] + "\x00" + vdf["word"])


def _bench_gram_set(sf_dir: str, n: int) -> frozenset:
    """Benchmark n-gram set: the DECON_BENCHMARK_DOCS smallest doc_ids
    (explicit key order, not parquet file order, so the SQL oracle selects
    the same set), exact STRING grams — no hashing (a crc32 collision
    would silently flag a clean doc and break the value-exact oracle)."""
    import duckdb

    bench = duckdb.connect().execute(
        "SELECT text FROM read_parquet(?) ORDER BY doc_id LIMIT ?",
        [os.path.join(sf_dir, "documents.parquet"),
         DECON_BENCHMARK_DOCS]).fetchall()
    return frozenset(
        g for (t,) in bench for g in dedup.ngram_set(t or "", n))


def boilerplate_scrubbed_docs(sf_dir: str, num: int = BOILER_NUM,
                              den: int = BOILER_DEN):
    """(doc_id, clean_text, n_removed): every document with its source's
    boilerplate vocabulary stripped, whitespace-normalized (join on single
    spaces — same as ' '.join(text.split())). Vocab is stopword-sized per
    source, collected once and broadcast via ray.put; the corpus side
    streams. Membership test is a vectorized isin over a combined
    source\\x00word key; only the final per-row string join is Python."""
    ref = ray.put(_boiler_key_set(sf_dir, num, den))

    def scrub(batch: pa.Table) -> pa.Table:
        bad = ray.get(ref)
        texts, n_removed = _scrub_kernel(batch, bad)
        return pa.table({
            "doc_id": batch["doc_id"],
            "clean_text": pa.array(texts, pa.string()),
            "n_removed": pa.array(n_removed, pa.int64())})

    return (_docs(sf_dir, ["doc_id", "text", "source"])
            .map_batches(scrub, batch_format="pyarrow").sort("doc_id"))


def _scrub_kernel(batch: pa.Table, bad: frozenset):
    """Vectorized boilerplate removal over a batch's (text, source):
    RE2 split, isin membership on combined source\\x00word keys, per-row
    single-space rejoin. Returns (clean_texts list, n_removed array)."""
    words = pc.split_pattern_regex(batch["text"], r"\s+")
    flat = pc.list_flatten(words)
    parent = pc.list_parent_indices(words)
    mask = pc.not_equal(flat, "")
    flat_np = flat.filter(mask).to_pandas()
    parent_np = parent.filter(mask).to_numpy()
    src_np = batch["source"].to_pandas().to_numpy()
    n = batch.num_rows
    key = pd.Series(src_np[parent_np]) + "\x00" + flat_np
    keep = (~key.isin(bad)).to_numpy()
    n_words = np.bincount(parent_np, minlength=n)
    kept_words = flat_np.to_numpy()[keep]
    kept_parent = parent_np[keep]
    n_kept = np.bincount(kept_parent, minlength=n)
    offsets = np.concatenate(([0], np.cumsum(n_kept)))
    texts = [" ".join(kept_words[offsets[i]:offsets[i + 1]])
             for i in range(n)]
    return texts, n_words - n_kept


def curated_docs(sf_dir: str, min_score: float = 0.5, min_words: int = 20):
    """End-to-end curation — the composition a real training-data run
    executes: per-source boilerplate scrub → quality gate on the SCRUBBED
    text → benchmark decontamination → exact dedup keeping the min-doc_id
    representative per distinct clean text.

    All per-row work (scrub, quality features, contamination probe) is
    fused into ONE map_batches pass so the corpus streams through once.
    The two lookup sides are broadcast via a single ray.put: the
    per-source vocabulary (stopword-sized per source) and the benchmark
    8-gram set (eval suites are tiny next to the corpus). The only
    shuffle is the digest-coarse exact-dedup groupby — and it runs over
    gate SURVIVORS, not the full corpus. Returns
    (doc_id, clean_text, n_words, quality_score) sorted by doc_id."""
    ref = ray.put((_boiler_key_set(sf_dir, BOILER_NUM, BOILER_DEN),
                   _bench_gram_set(sf_dir, DECON_NGRAM)))

    def curate(batch: pa.Table) -> pa.Table:
        bad, grams = ray.get(ref)
        texts, _ = _scrub_kernel(batch, bad)
        clean = pa.array(texts, pa.string())
        t = pa.table({"doc_id": batch["doc_id"], "clean_text": clean})
        q = text_analysis.quality_scores(t, text_col="clean_text")
        hits = np.fromiter(
            (len(dedup.ngram_set(s, DECON_NGRAM) & grams) for s in texts),
            np.int64, len(texts))
        keep = pc.and_(
            pc.and_(
                pc.greater_equal(q["quality_score"], pa.scalar(min_score)),
                pc.greater_equal(q["n_words"],
                                 pa.scalar(min_words, pa.int64()))),
            pc.less(pa.array(hits, pa.int64()),
                    pa.scalar(DECON_MIN_HITS, pa.int64())))
        out = pa.table({"doc_id": batch["doc_id"], "clean_text": clean,
                        "n_words": q["n_words"],
                        "quality_score": q["quality_score"]})
        return out.filter(keep)

    kept = (_docs(sf_dir, ["doc_id", "text", "source"])
            .map_batches(curate, batch_format="pyarrow"))
    out = dedup.exact_dedup(kept, text_col="clean_text").sort("doc_id")
    return exchange.nonempty_or_typed_table(out, {
        "doc_id": pa.int64(), "clean_text": pa.string(),
        "n_words": pa.int64(), "quality_score": pa.float64()})


def repetition_stats(sf_dir: str):
    """Gopher-style within-document repetition metrics: (doc_id, n_words,
    n_distinct_words, top_word_frac, dup_2gram_frac). Fully vectorized per
    batch — one RE2 split, flat (parent, word) frames, pandas groupby for
    per-doc counts, adjacency mask for bigrams (space-joined, the same
    pair encoding as the SQL oracle; words cannot contain spaces). Purely
    per-row → embarrassingly parallel, no shuffle."""

    def stats(batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        w, p = text_analysis.word_frames(batch["text"])
        n_words, top, dis, n_g2, dis_g2 = \
            text_analysis.repetition_counts(w, p, n)

        return pa.table({
            "doc_id": batch["doc_id"],
            "n_words": pa.array(n_words, pa.int64()),
            "n_distinct_words": pa.array(dis, pa.int64()),
            "top_word_frac": pa.array(
                top.astype(np.float64) /
                np.maximum(n_words, 1).astype(np.float64), pa.float64()),
            "dup_2gram_frac": pa.array(
                (n_g2 - dis_g2).astype(np.float64) /
                np.maximum(n_g2, 1).astype(np.float64), pa.float64())})

    return (_docs(sf_dir, ["doc_id", "text"])
            .map_batches(stats, batch_format="pyarrow").sort("doc_id"))


def packed_sequence_texts(sf_dir: str):
    """The consumer of the packing plan: materialize each training
    sequence by co-locating its member documents and concatenating their
    texts in doc_id order (a doc belongs to the sequence containing its
    START offset). The heavy text moves exactly once, keyed by seq_id —
    the plan's whole point. Returns (seq_id, n_docs, seq_text).

    Shapes: pack_sequences' plan (16 B/doc, one range_prefix exchange)
    hash-joins back to the text column on doc_id, then one seq-keyed
    coarse shuffle reassembles members in order — string concatenation
    is per-group vectorized."""
    from ..stages.joins import hash_join

    plan = _packing_plan(sf_dir).select_columns(["doc_id", "seq_id"]) \
        .rename_columns({"doc_id": "plan_doc"})
    cols = {"seq_id": pa.int64(), "n_docs": pa.int64(),
            "seq_text": pa.string()}
    docs = _docs(sf_dir, ["doc_id", "text"])
    joined = hash_join(docs, plan, "doc_id", "plan_doc")
    nc = _docs_coarse_hint(sf_dir, 2)

    def add_coarse(batch: pa.Table) -> pa.Table:
        s = batch["seq_id"].to_numpy(zero_copy_only=False)
        return batch.append_column(
            "coarse", pa.array((s % nc).astype(np.int32)))

    def reassemble(df: pd.DataFrame) -> pd.DataFrame:
        d = df.sort_values(["seq_id", "doc_id"], kind="mergesort")
        g = d.groupby("seq_id", sort=True)
        return pd.DataFrame({
            "seq_id": pd.array(list(g.groups.keys()), "int64"),
            "n_docs": pd.array(g.size().to_numpy(), "int64"),
            "seq_text": pd.array(
                g["text"].apply(lambda s: " ".join(x or "" for x in s)),
                "string")})

    out = (joined.map_batches(add_coarse, batch_format="pyarrow")
           .groupby("coarse").map_groups(reassemble,
                                         batch_format="pandas")
           .map_batches(lambda b: pa.table({
               "seq_id": b["seq_id"],
               "n_docs": b["n_docs"],
               "seq_text": pc.cast(b["seq_text"], pa.string())}),
               batch_format="pyarrow")
           .sort("seq_id"))
    return exchange.nonempty_or_typed_table(out, cols)


def gopher_quality_flags(sf_dir: str):
    """Gopher-rule quality flags per document: one boolean per rule
    (word-count band, mean word length, distinct stopwords, top-word
    fraction, duplicate-bigram fraction) plus the composite keep.
    Purely per-row, no shuffle."""
    return (_docs(sf_dir, ["doc_id", "text"])
            .map_batches(text_analysis.gopher_flags, batch_format="pyarrow")
            .sort("doc_id"))


PACK_BUDGET = 512


def _packing_plan(sf_dir: str):
    """The ONE packing-plan construction shared by packed_sequences and
    packed_sequence_texts — budget/width tuning cannot drift between the
    plan producer and its materializer. range_width is sized from
    parquet metadata so the test tiers run ~10 id-ranges, exercising the
    multi-range distributed prefix-sum path."""
    path = os.path.join(sf_dir, "documents.parquet")
    n = pq.ParquetFile(path).metadata.num_rows
    width = max(1, n // _docs_coarse_hint(sf_dir, 32))
    return text_analysis.pack_sequences(
        _docs(sf_dir, ["doc_id", "text"]), budget=PACK_BUDGET,
        range_width=width)


def packed_sequences(sf_dir: str):
    """Concat-and-chunk sequence-packing plan over documents at a
    512-token budget (see _packing_plan)."""
    return _packing_plan(sf_dir).sort("doc_id")


def quality_median_filtered(sf_dir: str):
    """Per-language median-quality gate: keep documents whose
    quality_score >= their language's median, the discrete quantile rule
    sorted[ceil(0.5*n)-1] (DuckDB quantile_disc — an actual element, so
    the >= comparison agrees bit-for-bit with the oracle).

    The scored projection (doc_id, lang, quality_score) is materialized
    ONCE and consumed twice (medians + filter) — the multi-consumer
    lineage rule; it is ~50× narrower than the corpus, so the
    materialization is bounded. Per-lang medians come from a per-lang
    group sort (lang cardinality is tiny; the 100 TB path swaps the group
    fn for a distributed sort / t-digest, same seam as
    analytics.event_value_quantiles) and broadcast as a dict."""
    def score(b: pa.Table) -> pa.Table:
        q = text_analysis.quality_scores(b)     # _emit keeps doc_id only
        return pa.table({"doc_id": q["doc_id"], "lang": b["lang"],
                         "quality_score": q["quality_score"]})

    scored = (_docs(sf_dir, ["doc_id", "text", "lang"])
              .map_batches(score, batch_format="pyarrow")
              .materialize())

    def med(df: pd.DataFrame) -> pd.DataFrame:
        # quantile over SCORED docs only: null-text rows carry NaN scores
        # and the oracle's quantile_disc ignores NULLs — counting them in
        # the rank would select a higher-ranked element than DuckDB
        v = df["quality_score"].to_numpy()
        v = np.sort(v[~np.isnan(v)])
        if len(v) == 0:
            return pd.DataFrame(
                {"lang": pd.Series([], dtype=df["lang"].dtype),
                 "median_score": pd.Series([], dtype="float64")})
        idx = max(int(np.ceil(0.5 * len(v))) - 1, 0)
        return pd.DataFrame([{"lang": df["lang"].iloc[0],
                              "median_score": v[idx]}])

    meds = scored.groupby("lang").map_groups(med, batch_format="pandas") \
                 .to_pandas()
    # empty corpus: the group fn never ran and to_pandas drops columns
    mmap = (dict(zip(meds["lang"], meds["median_score"]))
            if "lang" in meds.columns else {})
    ref = ray.put(mmap)

    def keep(batch: pa.Table) -> pa.Table:
        mm = ray.get(ref)
        thr = pa.array(
            pd.Series(batch["lang"].to_pylist()).map(mm).to_numpy(),
            pa.float64())
        return batch.filter(
            pc.greater_equal(batch["quality_score"], thr))

    out = scored.map_batches(keep, batch_format="pyarrow").sort("doc_id")
    return exchange.nonempty_or_typed_table(out, {
        "doc_id": pa.int64(), "lang": pa.string(),
        "quality_score": pa.float64()})


def label_centroids(sf_dir: str):
    """Per-label embedding centroid in long format (label, dim, centroid,
    n_vectors): per-batch numpy partial sums (labels × dim rows per batch,
    independent of row count) → one (label, dim) groupby over
    pre-aggregated partials → divide.

    float32 components summed in float64 are EXACT (24-bit mantissas with
    bounded exponent spread: every partial sum is representable), so the
    distributed sum is order-independent and the mean is bit-identical to
    DuckDB's avg regardless of partitioning.

    Null rows are excluded (ListArray.flatten skips null slots; the dim
    index is built per row from list_value_length, so a null or short row
    never shifts a neighbour's components across labels); null COMPONENTS
    are skipped by the Arrow group sum/count, matching SQL avg. n_vectors
    counts the non-null components at each (label, dim)."""
    emb = reads.read_small_aware(
        os.path.join(sf_dir, "embeddings.parquet"),
        columns=["embedding", "label"])

    def partial(batch: pa.Table) -> pa.Table:
        col = batch["embedding"].combine_chunks() \
            if isinstance(batch["embedding"], pa.ChunkedArray) \
            else batch["embedding"]
        lens = pc.list_value_length(col).fill_null(0) \
                 .to_numpy(zero_copy_only=False).astype(np.int64)
        total = int(lens.sum())
        if total == 0:
            return pa.table({"label": pa.array([], pa.int64()),
                             "dim": pa.array([], pa.int64()),
                             "s": pa.array([], pa.float64()),
                             "c": pa.array([], pa.int64())})
        labels = batch["label"].to_numpy(zero_copy_only=False) \
                               .astype(np.int64)
        ends = np.cumsum(lens)
        dims = np.arange(total, dtype=np.int64) \
            - np.repeat(ends - lens, lens)
        comp = pa.table({
            "label": pa.array(np.repeat(labels, lens), pa.int64()),
            "dim": pa.array(dims, pa.int64()),
            "v": pc.cast(col.flatten(), pa.float64())})
        g = comp.group_by(["label", "dim"]).aggregate(
            [("v", "sum"), ("v", "count")])
        return pa.table({"label": g["label"], "dim": g["dim"],
                         "s": g["v_sum"],
                         "c": g["v_count"].cast(pa.int64())})

    agg = (emb.map_batches(partial, batch_format="pyarrow")
           .groupby(["label", "dim"])
           .aggregate(Sum("s", alias_name="s"), Sum("c", alias_name="c")))

    def finalize(batch: pa.Table) -> pa.Table:
        c = batch["c"].combine_chunks() if isinstance(
            batch["c"], pa.ChunkedArray) else batch["c"]
        mean = pc.if_else(pc.equal(c, 0), pa.scalar(None, pa.float64()),
                          pc.divide(batch["s"], c.cast(pa.float64())))
        return pa.table({
            "label": batch["label"], "dim": batch["dim"],
            "centroid": mean, "n_vectors": c})

    return agg.map_batches(finalize, batch_format="pyarrow") \
              .sort(["label", "dim"])


def exact_dup_clusters_doubled(sf_dir: str):
    """Connected components over the EXACT-duplicate pair graph — the same
    distributed label-propagation operator as dup_clusters_doubled, but fed
    star pairs from content equality, so the fixpoint has a SQL-expressible
    ground truth (label = min(doc_id) per text group) and the whole
    propagation machinery is value-checked by the driver's oracle hash."""
    pairs = dedup.exact_dup_pairs(_doubled_docs(sf_dir),
                                  n_coarse=_docs_coarse_hint(sf_dir, 2))
    return dedup.dup_clusters(pairs).sort("src")


def embedding_pairs_doubled(sf_dir: str):
    return _doubled_clone_pairs(sf_dir).sort(["id_a", "id_b"])
