"""Text analysis, LM fitting/scoring, sampling, scrubbing and frequency queries.

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
from .extract import summary_columns

from .analysis_common import (DOUBLE_OFFSET, _docs, _coarse_hint_for, _docs_coarse_hint, _doubled_docs, _WORD_TOKEN_RE, SPLIT_PCT, LINE_WIDTH, _chunked_text, _embeddings, _doubled_embeddings, _doubled_clone_pairs, _pages_dir_for, _corpus_rows, _hash_keep, _pages_coarse_hint)  # noqa: F401



# ------------------------------------------------------------ text analysis

def token_counts_docs(sf_dir: str):
    return _docs(sf_dir, ["doc_id", "text"]).map_batches(
        text_analysis.token_counts, batch_format="pyarrow").sort("doc_id")


def quality_docs(sf_dir: str):
    return _docs(sf_dir, ["doc_id", "text"]).map_batches(
        text_analysis.quality_scores, batch_format="pyarrow").sort("doc_id")


def gram_novelty_docs(sf_dir: str):
    """Per-doc distinct-3-gram count + corpus-novel (df == 1) count —
    the memorization/duplication-pressure signal (stages/text_analysis
    .gram_novelty: explode → distributed df carrying Min(doc_id) →
    join-free per-doc rollup; value-exact SQL oracle over the same gram
    strings)."""
    return text_analysis.gram_novelty(_docs(sf_dir, ["doc_id", "text"]))


def langid_docs(sf_dir: str):
    return _docs(sf_dir, ["doc_id", "text"]).map_batches(
        text_analysis.lang_id, batch_format="pyarrow").sort("doc_id")


def fingerprint_docs(sf_dir: str):
    def stats(batch: pa.Table) -> pa.Table:
        fp = text_analysis.fingerprint(batch)
        firsts = [f[0] if f else None for f in fp["fingerprints"].to_pylist()]
        return pa.table({"doc_id": fp["doc_id"],
                         "n_fingerprints": fp["n_fingerprints"],
                         "first_fp": pa.array(firsts, pa.int64())})
    return _docs(sf_dir, ["doc_id", "text"]).map_batches(
        stats, batch_format="pyarrow").sort("doc_id")


def summarize_docs(sf_dir: str):
    """Extractive summary (F4, v2 semantics: ratio 0.3, max 5 sentences,
    30-word gate app2.py:1336/1446) over every document."""
    def s(batch: pa.Table) -> pa.Table:
        summaries, ratios = summary_columns([t or "" for t in batch["text"].to_pylist()])
        return pa.table({"doc_id": batch["doc_id"], "summary": summaries,
                         "compression_ratio": ratios})
    return _docs(sf_dir, ["doc_id", "text"]).map_batches(
        s, batch_format="pyarrow").sort("doc_id")


def _word_count_partial(batch: pa.Table) -> pa.Table:
    """The shared per-batch wordcount combiner: Counter over lowered
    ``\\w+`` tokens → one (word, n) row per distinct word — the shuffle
    is bounded by per-batch vocabulary, not token count."""
    from collections import Counter

    c: Counter = Counter()
    for t in batch["text"].to_pylist():
        c.update(_WORD_TOKEN_RE.findall((t or "").lower()))
    return pa.table({"word": pa.array(list(c.keys()), pa.string()),
                     "n": pa.array(list(c.values()), pa.int64())})


def word_freq_top(sf_dir: str, k: int = 100):
    """G4 as a distributed wordcount: per-batch partial Counter (combiner)
    → groupby(word) Sum → global top-k by (count desc, word asc)."""
    from ..stages.topk import topk_table

    agg = (_docs(sf_dir, ["text"])
           .map_batches(_word_count_partial, batch_format="pyarrow")
           .groupby("word").aggregate(Sum("n", alias_name="n")))
    # distributed partial-top-k finisher — no global sort to keep k rows
    return topk_table(agg, [("n", "descending"), ("word", "ascending")], k)


def _bigram_count_partial(batch: pa.Table) -> pa.Table:
    """Per-batch adjacent-bigram combiner: Counter over whitespace tokens
    (str.split semantics — matches the oracle's regexp_split_to_array with
    empties filtered) → one (bigram, n) row per distinct bigram."""
    from collections import Counter

    c: Counter = Counter()
    for t in batch["text"].to_pylist():
        toks = (t or "").split()
        c.update(f"{a} {b}" for a, b in zip(toks, toks[1:]))
    return pa.table({"bigram": pa.array(list(c.keys()), pa.string()),
                     "n": pa.array(list(c.values()), pa.int64())})


def bigram_freq_top(sf_dir: str, k: int = 100):
    """Corpus-wide adjacent-bigram counts, top-k by (count desc, bigram
    asc) — the n-gram-LM statistics pass (combiner → one bounded-vocab
    groupby → tiny global sort/limit)."""
    from ..stages.topk import topk_table

    agg = (_docs(sf_dir, ["text"])
           .map_batches(_bigram_count_partial, batch_format="pyarrow")
           .groupby("bigram").aggregate(Sum("n", alias_name="n")))
    return topk_table(agg, [("n", "descending"), ("bigram", "ascending")], k)


CHUNK_WIDTH = 120
CHUNK_STRIDE = 80


def chunk_docs(sf_dir: str):
    """RAG-prep chunking: overlapping fixed windows (120 chars, stride
    80 → 40-char overlap) per document — the flat-map exploder every
    retrieval pipeline runs before embedding. Fully vectorized: one
    utf8 slice kernel per window offset, masked to rows long enough;
    empty/null docs produce no chunks. Returns
    (doc_id, chunk_idx, chunk_text, n_chars)."""

    def explode(batch: pa.Table) -> pa.Table:
        t = pc.fill_null(batch["text"], "")
        lens = pc.utf8_length(t).to_numpy().astype(np.int64)
        maxlen = int(lens.max()) if len(lens) else 0
        ids, idxs, chunks = [], [], []
        for k, start in enumerate(range(0, max(maxlen, 1), CHUNK_STRIDE)):
            mask = lens > start
            if not mask.any():
                break
            m = pa.array(mask)
            ids.append(batch["doc_id"].filter(m))
            piece = pc.utf8_slice_codeunits(
                t.filter(m), start, start + CHUNK_WIDTH)
            chunks.append(piece)
            idxs.append(np.full(int(mask.sum()), k, np.int64))
        if not ids:
            return pa.table({"doc_id": pa.array([], pa.int64()),
                             "chunk_idx": pa.array([], pa.int64()),
                             "chunk_text": pa.array([], pa.string()),
                             "n_chars": pa.array([], pa.int64())})
        text = pa.concat_arrays(
            [c.combine_chunks() if isinstance(c, pa.ChunkedArray) else c
             for c in chunks])
        return pa.table({
            "doc_id": pa.concat_arrays(
                [i.combine_chunks() if isinstance(i, pa.ChunkedArray)
                 else i for i in ids]),
            "chunk_idx": pa.array(np.concatenate(idxs), pa.int64()),
            "chunk_text": text,
            "n_chars": pc.cast(pc.utf8_length(text), pa.int64())})

    return (_docs(sf_dir, ["doc_id", "text"])
            .map_batches(explode, batch_format="pyarrow")
            .sort(["doc_id", "chunk_idx"]))


def train_val_test_split(sf_dir: str):
    """Deterministic corpus split: md5(doc_id) hash ranges assign
    train/val/test at 90/5/5 — membership is a pure function of the key
    (the sample_docs rule), so the split is stable across runs,
    partitionings, cluster sizes, and reproducible in SQL."""
    lo = (1 << 32) * SPLIT_PCT[0] // 100
    hi = (1 << 32) * SPLIT_PCT[1] // 100

    def assign(batch: pa.Table) -> pa.Table:
        h = np.array([_hash32(i) for i in batch["doc_id"].to_pylist()],
                     np.uint64)
        split = np.where(h < lo, "train", np.where(h < hi, "val", "test"))
        return pa.table({"doc_id": batch["doc_id"],
                         "split": pa.array(split, pa.string())})

    return (_docs(sf_dir, ["doc_id"])
            .map_batches(assign, batch_format="pyarrow").sort("doc_id"))


def normalize_docs(sf_dir: str):
    """Canonical text normalization — the first transform of every
    ingestion pipeline: lowercase, collapse whitespace runs to single
    spaces, strip edges. Value-exact STRING output (one vectorized RE2
    replace + trim per batch), plus the removed-char count. Purely
    per-row → no shuffle."""

    def norm(batch: pa.Table) -> pa.Table:
        t = pc.fill_null(batch["text"], "")
        clean = pc.utf8_trim(pc.replace_substring_regex(
            pc.utf8_lower(t), r"\s+", " "), " ")
        return pa.table({
            "doc_id": batch["doc_id"],
            "norm_text": clean,
            "n_removed_chars": pc.subtract(
                pc.cast(pc.utf8_length(t), pa.int64()),
                pc.cast(pc.utf8_length(clean), pa.int64()))})

    return (_docs(sf_dir, ["doc_id", "text"])
            .map_batches(norm, batch_format="pyarrow").sort("doc_id"))


def nfc_docs(sf_dir: str):
    """Unicode NFC normalization — the canonical-composition pass every
    multilingual ingest needs before hashing/dedup (é as one codepoint
    vs e+combining-acute hash differently but read identically).
    Value-exact STRING output: CPython ``unicodedata.normalize('NFC')``
    is byte-identical to DuckDB's utf8proc ``nfc_normalize`` (pyarrow's
    ``utf8_normalize`` emits DECOMPOSED forms for form='NFC' in this
    build — verified wrong, not used). Per-row C call only on the
    non-ASCII rows (``str.isascii`` fast path — ASCII is NFC by
    definition and covers the bulk of webtext); purely per-row, no
    shuffle. Returns (doc_id, nfc_text, changed, n_cp, n_cp_nfc)."""
    return (_docs(sf_dir, ["doc_id", "text"])
            .map_batches(_nfc_kernel, batch_format="pyarrow")
            .sort("doc_id"))


def _nfc_kernel(batch: pa.Table) -> pa.Table:
    """The per-batch NFC kernel (module-level so tests drive it on
    crafted composed/decomposed/compat strings directly)."""
    import unicodedata

    out = []
    for t in batch["text"].to_pylist():
        t = t or ""
        out.append(t if t.isascii() else unicodedata.normalize("NFC", t))
    nfc = pa.array(out, pa.string())
    src = pc.fill_null(batch["text"], "")
    return pa.table({
        "doc_id": batch["doc_id"],
        "nfc_text": nfc,
        "changed": pc.not_equal(nfc, src),
        "n_cp": pc.cast(pc.utf8_length(src), pa.int64()),
        "n_cp_nfc": pc.cast(pc.utf8_length(nfc), pa.int64())})


MIX_TARGET_DEN = 4  # mixed sample targets 1/4 of corpus tokens


def mixed_sample_docs(sf_dir: str):
    """Deterministic data mixing: subsample every source to an equal
    token budget (total_tokens/4 split evenly across sources) — the
    mixture-rebalancing step of training-corpus assembly, but with
    hash-function membership instead of RNG so the sample is stable
    across runs, partitionings and cluster sizes, and reproducible in
    SQL. rate_s = min(1, budget / tokens_s); a doc survives iff
    md5(doc_id)'s first 8 hex digits fall under floor(2^32 · rate_s) —
    the sample_docs rule generalized to per-source float rates (floor of
    identical IEEE doubles on both sides).

    Scale shape: per-source token totals via an in-batch combiner (one
    row per source per batch) → tiny groupby → rates dict broadcast into
    a vectorized filter; the corpus streams through once."""

    def tok(batch: pa.Table) -> pa.Table:
        t = pc.fill_null(batch["text"], "")
        return pa.table({
            "doc_id": batch["doc_id"],
            "source": batch["source"],
            "n_tokens": pc.cast(pc.count_substring_regex(t, r"\S+"),
                                pa.int64())})

    docs = _docs(sf_dir, ["doc_id", "text", "source"]) \
        .map_batches(tok, batch_format="pyarrow").materialize()

    st = docs.groupby("source").sum("n_tokens").to_pandas()
    toks = st["sum(n_tokens)"].astype(np.int64)
    target = int(toks.sum()) // MIX_TARGET_DEN
    budget = float(target) / len(st)
    # a zero-token source keeps everything — matches the oracle's
    # least(1.0, x/0.0 = inf) = 1.0, and never divides by zero
    rates = {s: min(1.0, budget / float(t)) if t else 1.0
             for s, t in zip(st["source"], toks)}

    def keep(batch: pa.Table) -> pa.Table:
        thr = np.array([np.floor(4294967296.0 * rates[s])
                        for s in batch["source"].to_pylist()], np.float64)
        h = np.array([_hash32(i) for i in batch["doc_id"].to_pylist()],
                     np.float64)
        return batch.filter(pa.array(h < thr))

    return docs.map_batches(keep, batch_format="pyarrow").sort("doc_id")


def incremental_dedup_docs(sf_dir: str):
    """Incremental exact dedup of a NEW shard against an existing
    snapshot — the steady-state shape of a production corpus (each crawl
    dedups against everything already ingested, never rescanning it at
    content grain). Snapshot membership is the deterministic 50%
    doc_id-hash rule (pure function of the key, reproducible in SQL);
    'old' rows contribute only their distinct digests.

    Scale shape: ONE digest-prefix shuffle — snapshot and new rows
    co-locate by content digest (the anti-join partitioning; never a
    broadcast, since at 100 TB the snapshot is the LARGER side), and
    inside each partition a vectorized resolve applies both gates: any
    digest the snapshot contains kills its new rows, otherwise the
    minimum-doc_id new row survives. Returns (doc_id, digest) of the
    surviving new rows. Runs over the DOUBLED corpus: a clone and its
    original hash to independent sides of the snapshot boundary, so both
    gates fire on real rows (~25% of clone pairs straddle it)."""
    nc = _docs_coarse_hint(sf_dir, 2)

    def project(batch: pa.Table) -> pa.Table:
        t = dedup.add_md5_digest(batch).select(["doc_id", "digest"])
        is_old = pa.array([_hash_keep(i, 50)
                           for i in t["doc_id"].to_pylist()], pa.bool_())
        coarse = [int(d[:4], 16) % nc for d in t["digest"].to_pylist()]
        return t.append_column("is_old", is_old) \
                .append_column("coarse", pa.array(coarse, pa.int32()))

    def resolve(df: pd.DataFrame) -> pd.DataFrame:
        has_old = df.groupby("digest")["is_old"].transform("any")
        new = df[~df["is_old"] & ~has_old.to_numpy()]
        new = new.sort_values("doc_id").drop_duplicates("digest")
        return new[["doc_id", "digest"]]

    out = (_doubled_docs(sf_dir)
           .map_batches(project, batch_format="pyarrow")
           .groupby("coarse").map_groups(resolve, batch_format="pandas")
           .sort("doc_id"))
    return exchange.nonempty_or_typed_table(out, {
        "doc_id": pa.int64(), "digest": pa.string()})


def near_dedup_incremental_docs(sf_dir: str):
    """Incremental NEAR-dedup of a new shard against an existing snapshot
    — the MinHash sibling of incremental_dedup (same deterministic 50%
    doc_id-hash snapshot rule, same doubled corpus so clone pairs
    straddle the boundary), completing the incremental dimension of the
    dedup ladder at near-dup grain. Returns every (new_id, old_id,
    est_jaccard) mixed pair sharing an LSH band with est >= 0.5, via the
    value-exact md5-minhash arithmetic (stages/dedup.minhash_pairs_md5
    conventions); the bucket walk sweeps only the old×new rectangle, so
    snapshot-internal pairs are never enumerated."""

    def old_pred(ids: np.ndarray) -> np.ndarray:
        return np.array([_hash_keep(int(i), 50) for i in ids], bool)

    out = dedup.minhash_pairs_md5_incremental(
        _doubled_docs(sf_dir), old_pred,
        n_coarse=_docs_coarse_hint(sf_dir, 2))
    return out if isinstance(out, pa.Table) \
        else out.sort(["new_id", "old_id"])


MG_CAPACITY = 2000     # Misra-Gries summary size per batch
MG_CANDIDATES = 400    # candidate pool carried into the exact pass


def heavy_hitter_words(sf_dir: str, k: int = 100,
                       capacity: int = MG_CAPACITY,
                       candidates: int = MG_CANDIDATES):
    """Top-k words by the two-pass heavy-hitters recipe — the bounded-
    memory alternative to a full-vocabulary shuffle at 100 TB:

    1. per-batch Misra-Gries summary of ``capacity`` counters (exact
       batch Counter compressed by decrementing the (C+1)-th largest
       count — any word with batch share > 1/C survives with a lower
       bound) → groupby sum of lower bounds → top ``candidates`` to the
       driver (BOUNDED — this is the only vocabulary that ever leaves
       the distributed side);
    2. exact counts for the broadcast candidate set only → top-k.

    Output equals word_freq_top exactly whenever the candidate pool
    covers the true top-k (guaranteed for words with corpus share
    > 1/capacity; the unit test exercises an eviction-heavy capacity),
    so the same SQL oracle value-checks this operator."""
    from collections import Counter

    def mg_partial(batch: pa.Table) -> pa.Table:
        t = _word_count_partial(batch)
        c = Counter(dict(zip(t["word"].to_pylist(), t["n"].to_pylist())))
        if len(c) > capacity:
            cut = sorted(c.values(), reverse=True)[capacity]
            c = Counter({w: n - cut for w, n in c.items() if n > cut})
        return pa.table({"word": pa.array(list(c.keys()), pa.string()),
                         "n": pa.array(list(c.values()), pa.int64())})

    docs = _docs(sf_dir, ["text"])
    from ..stages.topk import topk_table

    pool = topk_table(
        docs.map_batches(mg_partial, batch_format="pyarrow")
        .groupby("word").aggregate(Sum("n", alias_name="n")),
        [("n", "descending"), ("word", "ascending")], candidates).to_pandas()
    if "word" not in pool.columns or not len(pool):
        # token-free corpus: all-empty blocks erode columns (known trap)
        return pa.table({"word": pa.array([], pa.string()),
                         "n": pa.array([], pa.int64())})
    cand = set(pool["word"])

    def exact_partial(batch: pa.Table) -> pa.Table:
        t = _word_count_partial(batch)
        return t.filter(pc.is_in(t["word"],
                                 value_set=pa.array(sorted(cand))))

    exact = (docs.map_batches(exact_partial, batch_format="pyarrow")
             .groupby("word").aggregate(Sum("n", alias_name="n")))
    return topk_table(exact, [("n", "descending"), ("word", "ascending")], k)


UNIGRAM_VOCAB_K = 100
NLP_SCALE = 1_000_000  # fixed-point micro-nats: order-independent sums


def unigram_logprob_docs(sf_dir: str, vocab_k: int = UNIGRAM_VOCAB_K):
    """Unigram-LM surprisal scoring — the classic cheap perplexity proxy
    for webtext quality (CCNet-style, lighter than a KenLM): p(w) =
    corpus_count(w)/total_tokens over a bounded top-k vocabulary,
    out-of-vocabulary tokens smoothed to count 1; per-document score =
    mean token surprisal -ln p(w).

    Scale shape: corpus counts via the word_freq combiner (shuffle bounded
    by per-batch vocabulary), materialized once for its two bounded
    consumers (total-token scalar, top-k vocab); the k-row vocab
    broadcasts into the scoring stage — the corpus streams through once,
    nothing joins at token grain. Per-token surprisals are quantized to
    integer micro-nats (floor, like the integer-cent currency sums) so
    per-doc sums are order-independent, and the quantization is
    PRECOMPUTED per distinct count with libm ``math.log`` — DuckDB's ln
    is bit-identical to math.log (verified 0/50k fuzzed mismatches)
    while numpy's SIMD log diverges by 1 ulp on ~20% of inputs, which
    could flip a floor; the per-token hot path is then a pure integer
    dict lookup."""
    import math

    counts = (_docs(sf_dir, ["text"])
              .map_batches(_word_count_partial, batch_format="pyarrow")
              .groupby("word").aggregate(Sum("n", alias_name="n"))
              .materialize())
    if counts.count() == 0:  # token-free corpus: every doc scores zero
        vmap, total = {}, 0
    else:
        total = counts.sum("n") or 0
        vocab = counts.sort(["n", "word"], descending=[True, False]) \
                      .limit(vocab_k).to_pandas()
        vmap = dict(zip(vocab["word"], vocab["n"].astype(np.int64)))
    qmap = {int(c): int(math.floor(-math.log(c / total) * NLP_SCALE))
            for c in set(vmap.values()) | {1}} if total else {}
    qv = {w: qmap[int(c)] for w, c in vmap.items()}
    q_oov = qmap.get(1, 0)

    def score(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"]
        n = batch.num_rows
        n_tok = np.zeros(n, np.int64)
        n_oov = np.zeros(n, np.int64)
        sum_q = np.zeros(n, np.int64)
        for i, t in enumerate(batch["text"].to_pylist()):
            toks = _WORD_TOKEN_RE.findall((t or "").lower())
            if not toks or not total:
                continue
            n_tok[i] = len(toks)
            n_oov[i] = sum(w not in qv for w in toks)
            sum_q[i] = sum(qv.get(w, q_oov) for w in toks)
        avg = sum_q.astype(np.float64) \
            / (np.maximum(n_tok, 1) * float(NLP_SCALE))
        return pa.table({
            "doc_id": ids,
            "n_tokens": pa.array(n_tok, pa.int64()),
            "n_oov": pa.array(n_oov, pa.int64()),
            "avg_surprisal": pa.array(avg, pa.float64())})

    return (_docs(sf_dir, ["doc_id", "text"])
            .map_batches(score, batch_format="pyarrow").sort("doc_id"))


BIGRAM_OOV = "#oov"  # '#' is not a \w character, so no token collides


def bigram_surprisal_docs(sf_dir: str, vocab_k: int = UNIGRAM_VOCAB_K):
    """Class-based bigram-LM surprisal — the CCNet-style (Wenzek et al.
    2020) LM-perplexity quality signal one order up from
    unigram_logprob_docs: every token maps to a top-k vocabulary class
    or a single OOV class (alphabet V = k + 1, so the model is BOUNDED
    regardless of corpus vocabulary), and each adjacent pair scores
    -ln p(c2|c1) with add-one smoothing
        p(c2|c1) = (c(c1,c2) + 1) / (c_first(c1) + V),
    c_first(c1) = Σ_b c(c1,b) (the bigram-table row mass, so the
    distribution normalizes exactly).

    Scale shape: one corpus pass for unigram counts (word_freq
    combiner), one for class-bigram counts (per-batch Counter emits
    ≤ V² rows per batch; the groupby output is ≤ V² = (k+1)² rows
    total — driver-bounded by construction), one scoring pass with the
    precomputed q-table riding the closure. Per-pair surprisals are
    floor-quantized to integer micro-nats with libm ``math.log``
    (DuckDB-ln-bit-identical — the unigram_logprob convention) so
    per-doc sums are order-independent int64."""
    return _bigram_surprisal(_docs(sf_dir, ["doc_id", "text"]), vocab_k)


def _bigram_fit(docs, vocab_k: int = UNIGRAM_VOCAB_K) -> dict:
    """Fit the class-bigram LM of bigram_surprisal_docs over a (text)
    Dataset and return the scoring model as a plain dict:

      vset     — top-``vocab_k`` vocabulary (class alphabet minus OOV)
      v_alpha  — |vset| + 1 (the add-one smoothing V)
      q_pair   — (c1, c2) → micro-nat surprisal for FIT-observed pairs
      q_unseen — c1 → surprisal of an unseen pair after a seen-first c1
      q_cold   — surprisal when c1 was never observed first in the fit
                 corpus (den = 0 + V); reachable when scoring docs
                 OUTSIDE the fit corpus (Moore-Lewis in-domain model)

    All three tiers collapse to ONE formula — q(c1, c2) =
    floor(-ln((c(c1,c2) + 1) / (c_first(c1) + V)) · 1e6) with missing
    counts read as 0 — which is what the SQL oracles compute with
    coalesce(n, 0) / coalesce(nf, 0); the dict split here is just the
    hot-path lookup layout. Micro-nats use libm ``math.log`` (DuckDB-ln
    bit-identical; numpy's SIMD log diverges by 1 ulp on ~20% of inputs
    and could flip a floor)."""
    import math

    from ray.data.aggregate import Sum as _Sum
    counts = (docs.select_columns(["text"])
              .map_batches(_word_count_partial, batch_format="pyarrow")
              .groupby("word").aggregate(_Sum("n", alias_name="n"))
              .materialize())
    if counts.count() == 0:
        vset: set = set()
    else:
        vocab = counts.sort(["n", "word"], descending=[True, False]) \
                      .limit(vocab_k).to_pandas()
        vset = set(vocab["word"])
    v_alpha = len(vset) + 1  # class alphabet incl. OOV

    def classes_of(text) -> list:
        toks = _WORD_TOKEN_RE.findall((text or "").lower())
        return [w if w in vset else BIGRAM_OOV for w in toks]

    def bigram_partial(batch: pa.Table) -> pa.Table:
        from collections import Counter
        c: Counter = Counter()
        for t in batch["text"].to_pylist():
            cls = classes_of(t)
            c.update(zip(cls, cls[1:]))
        return pa.table({
            "w1": pa.array([k[0] for k in c], pa.string()),
            "w2": pa.array([k[1] for k in c], pa.string()),
            "n": pa.array(list(c.values()), pa.int64())})

    bigc = (docs.select_columns(["text"])
            .map_batches(bigram_partial, batch_format="pyarrow")
            .groupby(["w1", "w2"]).aggregate(_Sum("n", alias_name="n"))
            .to_pandas())  # ≤ (k+1)² rows — bounded by the class alphabet
    if len(bigc) == 0:  # 0-row to_pandas drops columns — rebuild typed
        bigc = pd.DataFrame({"w1": pd.array([], "string"),
                             "w2": pd.array([], "string"),
                             "n": pd.array([], "int64")})
    c_first: dict = {}
    for w1, n in zip(bigc["w1"], bigc["n"].astype(np.int64)):
        c_first[w1] = c_first.get(w1, 0) + int(n)
    # precompute micro-nat surprisals per distinct (num, den) with libm
    # math.log (numpy's SIMD log diverges by 1 ulp and could flip a floor)
    qmap = {(num, den): int(math.floor(-math.log(num / den) * NLP_SCALE))
            for num, den in
            {(int(n) + 1, c_first[w1] + v_alpha)
             for w1, n in zip(bigc["w1"], bigc["n"].astype(np.int64))}
            | {(1, c_first.get(c, 0) + v_alpha)
               for c in set(c_first) | {BIGRAM_OOV}}}
    q_pair = {(w1, w2): qmap[(int(n) + 1, c_first[w1] + v_alpha)]
              for w1, w2, n in zip(bigc["w1"], bigc["w2"],
                                   bigc["n"].astype(np.int64))}
    q_unseen = {c: qmap[(1, c_first.get(c, 0) + v_alpha)]
                for c in set(c_first) | {BIGRAM_OOV}}
    # first-class never observed first anywhere: den = 0 + V (only
    # reachable when scoring docs outside the fit corpus)
    q_cold = int(math.floor(-math.log(1 / v_alpha) * NLP_SCALE))
    return {"vset": vset, "v_alpha": v_alpha, "q_pair": q_pair,
            "q_unseen": q_unseen, "q_cold": q_cold}


def _bigram_doc_q(model: dict, text) -> tuple:
    """(n_bigrams, Σ micro-nat surprisal) of one document under a
    _bigram_fit model — the shared scoring kernel."""
    vset = model["vset"]
    toks = _WORD_TOKEN_RE.findall((text or "").lower())
    cls = [w if w in vset else BIGRAM_OOV for w in toks]
    if len(cls) < 2:
        return 0, 0
    q_pair, q_unseen = model["q_pair"], model["q_unseen"]
    q_cold = model["q_cold"]
    return len(cls) - 1, sum(
        q_pair[p] if p in q_pair else q_unseen.get(p[0], q_cold)
        for p in zip(cls, cls[1:]))


def _bigram_surprisal(docs, vocab_k: int = UNIGRAM_VOCAB_K):
    """Core of bigram_surprisal_docs over an arbitrary (doc_id, text)
    Dataset (split out so tests can run synthetic corpora): fit the
    class-bigram LM on the SAME corpus it scores."""
    model = _bigram_fit(docs, vocab_k)

    def score(batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        n_big = np.zeros(n, np.int64)
        sum_q = np.zeros(n, np.int64)
        for i, t in enumerate(batch["text"].to_pylist()):
            n_big[i], sum_q[i] = _bigram_doc_q(model, t)
        avg = sum_q.astype(np.float64) \
            / (np.maximum(n_big, 1) * float(NLP_SCALE))
        return pa.table({
            "doc_id": batch["doc_id"],
            "n_bigrams": pa.array(n_big, pa.int64()),
            "surprisal_micro_nats": pa.array(sum_q, pa.int64()),
            "avg_surprisal": pa.array(avg, pa.float64())})

    return docs.map_batches(score, batch_format="pyarrow").sort("doc_id")


def _int_quantile_disc(ds, col: str, qs, bin_shift: int = 16) -> list:
    """Exact discrete quantiles sorted[max(ceil(q·n)−1, 0)] (the DuckDB
    quantile_disc rule pinned by event_value_quantiles) of an int64
    column WITHOUT materializing the value set — the scalable_quantiles
    two-pass histogram refinement, generic over any integer column:

      pass 1 — per-batch ``value >> bin_shift`` histogram partials
        (arithmetic shift: monotone, negatives floor) → bounded driver
        merge (occupied bins ≤ value-range / 2^bin_shift);
      driver — cumulative counts locate each rank's bin + within-rank;
      pass 2 — stream again keeping only candidate-bin rows (~n/range
        each); their sorted values yield the exact elements.

    ``ds`` is streamed twice — pass a materialized Dataset. Returns one
    int per q (None for each q when the column is empty)."""
    def hist_partial(batch: pa.Table) -> pa.Table:
        v = batch[col].to_numpy(zero_copy_only=False).astype(np.int64)
        ub, cnt = np.unique(v >> bin_shift, return_counts=True)
        return pa.table({"bin": pa.array(ub, pa.int64()),
                         "n": pa.array(cnt, pa.int64())})

    def combine(df: pd.DataFrame) -> pd.DataFrame:
        return df.groupby("bin", as_index=False)["n"].sum()

    raw = (ds.map_batches(hist_partial, batch_format="pyarrow")
           .map_batches(combine, batch_format="pandas").to_pandas())
    if not len(raw):
        return [None] * len(qs)
    hist = combine(raw).sort_values("bin")
    n = int(hist["n"].sum())
    cum = hist["n"].cumsum().to_numpy()
    bins = hist["bin"].to_numpy()
    need: dict[int, list[tuple[int, int]]] = {}
    for qi, q in enumerate(qs):
        idx = max(int(np.ceil(q * n)) - 1, 0)
        j = int(np.searchsorted(cum, idx + 1))
        within = idx - (int(cum[j - 1]) if j else 0)
        need.setdefault(int(bins[j]), []).append((qi, within))
    cand_bins = np.array(sorted(need), np.int64)

    def collect(batch: pa.Table) -> pa.Table:
        v = batch[col].to_numpy(zero_copy_only=False).astype(np.int64)
        mask = np.isin(v >> bin_shift, cand_bins)
        return pa.table({col: pa.array(v[mask], pa.int64())})

    cand = (ds.map_batches(collect, batch_format="pyarrow")
            .to_pandas())
    cv = (cand[col].to_numpy().astype(np.int64) if len(cand)
          else np.array([], np.int64))
    out: list = [None] * len(qs)
    for b, wants in need.items():
        vals = np.sort(cv[(cv >> bin_shift) == b])
        for qi, within in wants:
            out[qi] = int(vals[within])
    return out


def perplexity_buckets_docs(sf_dir: str, vocab_k: int = UNIGRAM_VOCAB_K):
    """CCNet-style perplexity bucketing (Wenzek et al. 2020 §4.4): docs
    split into head / middle / tail TERCILES of the class-bigram LM
    surprisal — the standard webtext curation signal (train on head,
    downsample tail). The per-doc statistic is avg_micro =
    surprisal_micro_nats // max(n_bigrams, 1): an INTEGER floor
    division, so the tercile cut elements and every comparison are
    value-exact in SQL (no float quantiles).

    Scale shape: the scored table (4 int64 cols per doc) materializes
    once — it is orders of magnitude smaller than the corpus — then the
    two-pass _int_quantile_disc histogram refinement finds the cut
    elements without sorting it; the bucket pass is one comparison per
    row. Cut ranks use ceil(q·n) with q = 1/3, 2/3 as IEEE doubles
    (CAST(1 AS DOUBLE)/3 in SQL — the identical double on both
    sides)."""
    scored = _bigram_surprisal(_docs(sf_dir, ["doc_id", "text"]), vocab_k)

    def add_avg(batch: pa.Table) -> pa.Table:
        s = batch["surprisal_micro_nats"].to_numpy(zero_copy_only=False)
        nb = batch["n_bigrams"].to_numpy(zero_copy_only=False)
        return pa.table({
            "doc_id": batch["doc_id"],
            "n_bigrams": batch["n_bigrams"],
            "avg_micro": pa.array(s // np.maximum(nb, 1), pa.int64())})

    scored = scored.map_batches(add_avg,
                                batch_format="pyarrow").materialize()
    cols = {"doc_id": pa.int64(), "n_bigrams": pa.int64(),
            "avg_micro": pa.int64(), "bucket": pa.string()}
    if scored.count() == 0:
        return pa.table({c: pa.array([], t) for c, t in cols.items()})
    c1, c2 = _int_quantile_disc(scored, "avg_micro", (1 / 3, 2 / 3))

    def bucketize(batch: pa.Table) -> pa.Table:
        v = batch["avg_micro"].to_numpy(zero_copy_only=False)
        b = np.where(v <= c1, "head",
                     np.where(v <= c2, "middle", "tail"))
        return pa.table({"doc_id": batch["doc_id"],
                         "n_bigrams": batch["n_bigrams"],
                         "avg_micro": batch["avg_micro"],
                         "bucket": pa.array(b.astype(object), pa.string())})

    return scored.map_batches(bucketize,
                               batch_format="pyarrow").sort("doc_id")


ML_TARGET_SOURCE = "src0"  # target_affinity_docs' in-domain convention


def moore_lewis_docs(sf_dir: str, target_source: str = ML_TARGET_SOURCE,
                     vocab_k: int = UNIGRAM_VOCAB_K):
    """Moore-Lewis cross-entropy-difference data selection (Moore &
    Lewis 2010, "Intelligent Selection of Language Model Training
    Data"): score every document by H_in(d) − H_out(d), the surprisal
    under an IN-DOMAIN LM (fit only on the ``target_source`` slice)
    minus the surprisal under the general-corpus LM, and keep the
    below-median half — text that looks more like the target domain
    than like the corpus at large. The LMs are the class-bigram models
    of bigram_surprisal_docs (bounded alphabet = top-k vocab + OOV,
    add-one smoothing); scoring docs OUTSIDE the fit slice exercises
    the model's unseen-pair / cold-first fallbacks, which collapse to
    the single coalesce formula the SQL oracle uses (see _bigram_fit).

    Scale shape: two LM fits (each = one wordcount combiner pass + one
    bounded ≤(k+1)² bigram-count pass; the in-domain fit streams only
    the target slice), then ONE scoring pass over the corpus computes
    both sums from one tokenization — the two models ride the closure
    (≤ (k+1)² ints each). delta_micro = in − out is an exact int64;
    avg_delta_micro is a Python-floor division (negative-safe — DuckDB
    ``//`` truncates, so the oracle uses the (a − ((a%n)+n)%n)//n floor
    identity); the median cut reuses the _int_quantile_disc two-pass
    histogram, so the keep flag is value-exact end to end."""
    docs = _docs(sf_dir, ["doc_id", "text", "source"])

    def in_slice(batch: pa.Table) -> pa.Table:
        return batch.filter(pc.equal(
            pc.fill_null(batch["source"], ""), target_source))

    m_in = _bigram_fit(
        docs.map_batches(in_slice, batch_format="pyarrow"), vocab_k)
    m_out = _bigram_fit(docs, vocab_k)

    def score(batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        n_big = np.zeros(n, np.int64)
        s_in = np.zeros(n, np.int64)
        s_out = np.zeros(n, np.int64)
        for i, t in enumerate(batch["text"].to_pylist()):
            n_big[i], s_in[i] = _bigram_doc_q(m_in, t)
            _, s_out[i] = _bigram_doc_q(m_out, t)
        delta = s_in - s_out
        avg = delta // np.maximum(n_big, 1)  # numpy floors like Python
        return pa.table({
            "doc_id": batch["doc_id"],
            "n_bigrams": pa.array(n_big, pa.int64()),
            "in_micro_nats": pa.array(s_in, pa.int64()),
            "out_micro_nats": pa.array(s_out, pa.int64()),
            "delta_micro": pa.array(delta, pa.int64()),
            "avg_delta_micro": pa.array(avg, pa.int64())})

    scored = (docs.map_batches(score, batch_format="pyarrow")
              .materialize())  # 6 int64 cols/doc; streamed twice below
    cols = {"doc_id": pa.int64(), "n_bigrams": pa.int64(),
            "in_micro_nats": pa.int64(), "out_micro_nats": pa.int64(),
            "delta_micro": pa.int64(), "avg_delta_micro": pa.int64(),
            "keep": pa.bool_()}
    if scored.count() == 0:
        return pa.table({c: pa.array([], t) for c, t in cols.items()})
    med = _int_quantile_disc(scored, "avg_delta_micro", (0.5,))[0]

    def flag(batch: pa.Table) -> pa.Table:
        return batch.append_column(
            "keep", pc.less_equal(batch["avg_delta_micro"],
                                  pa.scalar(med, pa.int64())))

    return scored.map_batches(flag, batch_format="pyarrow").sort("doc_id")


BM25_K1 = 1.2
BM25_B = 0.75
BM25_K1P1 = 2.2  # k1 + 1 as a LITERAL: both sides parse the same double
BM25_TOPK = 50
BM25_QUERY_OFFSET = 10  # query = vocab ranks 11..20 (mid-frequency terms)
BM25_QUERY_TERMS = 10


def bm25_top_docs(sf_dir: str, k: int = BM25_TOPK):
    """BM25 retrieval top-k (Robertson-Spärck Jones probabilistic
    ranking, the Lucene ln(1 + (N − df + 0.5)/(df + 0.5)) idf form,
    k1 = 1.2, b = 0.75): score every document against a deterministic
    query — the corpus vocabulary ranked (n DESC, word) rows 11..20,
    i.e. mid-frequency terms, so the query derives from the data and
    the oracle can rebuild it — and keep the top-k by score.

    Value-exactness: per-(doc, term) scores are floor-quantized to
    integer micro-units; every float factor is either a single IEEE
    op chain written identically in SQL (casts from exact int64,
    ×/÷ in the same association order, identical decimal literals —
    never derived constants) or libm ln ≡ DuckDB ln, so per-doc sums
    are order-independent int64 and the (score DESC, doc_id) top-k is
    a total order on both sides.

    Scale shape: one wordcount-combiner pass gives the vocabulary
    (query terms + total token count for avgdl); one corpus pass emits
    ≤ |query| long rows (doc_id, term, tf, dl) per matching doc — the
    materialized posting slice is bounded by matches, orders smaller
    than the corpus; df is a 10-row aggregate of it; the scoring pass
    + distributed partial-top-k finisher never sorts globally."""
    import math

    from ray.data.aggregate import Sum as _Sum
    docs = _docs(sf_dir, ["doc_id", "text"])
    counts = (docs.select_columns(["text"])
              .map_batches(_word_count_partial, batch_format="pyarrow")
              .groupby("word").aggregate(_Sum("n", alias_name="n"))
              .materialize())
    cols = {"doc_id": pa.int64(), "n_terms": pa.int64(),
            "score_micro": pa.int64(), "score": pa.float64()}
    empty = pa.table({c: pa.array([], t) for c, t in cols.items()})
    if counts.count() == 0:
        return empty
    total = counts.sum("n") or 0
    vocab = (counts.sort(["n", "word"], descending=[True, False])
             .limit(BM25_QUERY_OFFSET + BM25_QUERY_TERMS).to_pandas())
    qterms = list(vocab["word"][BM25_QUERY_OFFSET:])
    if not qterms:
        return empty
    qset = set(qterms)
    n_docs = docs.count()

    def postings(batch: pa.Table) -> pa.Table:
        from collections import Counter
        ids, terms, tfs, dls = [], [], [], []
        did = batch["doc_id"].to_pylist()
        for i, t in enumerate(batch["text"].to_pylist()):
            toks = _WORD_TOKEN_RE.findall((t or "").lower())
            c = Counter(w for w in toks if w in qset)
            for w, tf in c.items():
                ids.append(did[i])
                terms.append(w)
                tfs.append(tf)
                dls.append(len(toks))
        return pa.table({"doc_id": pa.array(ids, pa.int64()),
                         "term": pa.array(terms, pa.string()),
                         "tf": pa.array(tfs, pa.int64()),
                         "dl": pa.array(dls, pa.int64())})

    long = docs.map_batches(postings, batch_format="pyarrow") \
               .materialize()  # ≤ |query| rows per matching doc
    df_tab = (long.groupby("term")
              .aggregate(Count(alias_name="df")).to_pandas())
    idf = {t: math.log(1.0 + (float(n_docs - int(d)) + 0.5)
                       / (float(int(d)) + 0.5))
           for t, d in zip(df_tab["term"], df_tab["df"])}
    avgdl = float(total) / float(n_docs)

    def q_rows(batch: pa.Table) -> pa.Table:
        tf = batch["tf"].to_numpy(zero_copy_only=False)
        dl = batch["dl"].to_numpy(zero_copy_only=False)
        terms = batch["term"].to_pylist()
        q = np.empty(len(terms), np.int64)
        for i in range(len(terms)):  # libm-exact scalar chain per row
            tfw = float(tf[i])
            v = idf[terms[i]] \
                * ((tfw * BM25_K1P1)
                   / (tfw + BM25_K1 * ((1.0 - BM25_B)
                                       + BM25_B * (float(dl[i]) / avgdl)))) \
                * 1000000.0
            q[i] = math.floor(v)
        return pa.table({"doc_id": batch["doc_id"],
                         "q": pa.array(q, pa.int64())})

    from ..stages.topk import topk_table
    scored = (long.map_batches(q_rows, batch_format="pyarrow")
              .groupby("doc_id")
              .aggregate(Count(alias_name="n_terms"),
                         _Sum("q", alias_name="score_micro")))
    top = topk_table(scored, [("score_micro", "descending"),
                              ("doc_id", "ascending")], k)
    if top.num_rows == 0 or "score_micro" not in top.column_names:
        return empty
    top = top.select(["doc_id", "n_terms", "score_micro"])
    score = pc.divide(pc.cast(top["score_micro"], pa.float64()),
                      pa.scalar(1000000.0, pa.float64()))
    return top.append_column("score", score)


def source_overlap_matrix(sf_dir: str):
    """Cross-source contamination matrix: for every source pair, the
    number of distinct word-bigrams they share and the Jaccard over their
    distinct-bigram sets — the standard check that corpus slices meant to
    be independent are not mirroring each other.

    Scale shape: per-batch distinct (source, bigram) rows (in-batch
    combiner) → ONE gram-hash coarse shuffle → per-partition global
    dedup, then per-gram source-set self-merge (bounded by n_sources² per
    gram) → pair partial counts. Everything after the shuffle is bounded
    by n_sources² + distinct grams; only the two tiny tables (per-source
    totals, pair counts) reach the driver."""
    nc = _docs_coarse_hint(sf_dir, 2)

    def explode(batch: pa.Table) -> pa.Table:
        lower = pc.utf8_lower(pc.fill_null(batch["text"], ""))
        w, p = text_analysis.word_frames(lower)
        src = batch["source"].to_numpy(zero_copy_only=False)
        adj = p[1:] == p[:-1] if len(p) > 1 else np.array([], bool)
        gp = p[:-1][adj] if len(p) > 1 else np.array([], np.int64)
        if not len(gp):
            return pa.table({"source": pa.array([], pa.string()),
                             "g": pa.array([], pa.string()),
                             "coarse": pa.array([], pa.int32())})
        g2 = (pd.Series(w[:-1][adj]) + " " + pd.Series(w[1:][adj])) \
            .to_numpy()
        df = pd.DataFrame({"source": src[gp], "g": g2}).drop_duplicates()
        coarse = str_hash.str_coarse(df["g"], nc)
        return pa.table({"source": pa.array(df["source"], pa.string()),
                         "g": pa.array(df["g"], pa.string()),
                         "coarse": pa.array(coarse)})

    def pair_counts(df: pd.DataFrame) -> pd.DataFrame:
        d = df.drop_duplicates(["source", "g"])
        # per-partition per-source distinct-gram totals ride along under
        # kind='t' (an out-of-band marker — a sentinel VALUE in source_b
        # would collide with a legitimate empty-string source) so ONE
        # group pass feeds both outputs
        tot = d.groupby("source").size().reset_index(name="n")
        m = d.merge(d, on="g")
        m = m[m["source_x"] < m["source_y"]]
        pairs = m.groupby(["source_x", "source_y"]).size() \
                 .reset_index(name="n")
        return pd.DataFrame({
            "kind": ["t"] * len(tot) + ["p"] * len(pairs),
            "source_a": pd.concat([tot["source"], pairs["source_x"]],
                                  ignore_index=True),
            "source_b": [""] * len(tot) + list(pairs["source_y"]),
            "n": pd.concat([tot["n"], pairs["n"]],
                           ignore_index=True).astype("int64")})

    parts = (_docs(sf_dir, ["doc_id", "text", "source"])
             .map_batches(explode, batch_format="pyarrow")
             .groupby("coarse").map_groups(pair_counts,
                                           batch_format="pandas")
             .groupby(["kind", "source_a", "source_b"])
             .aggregate(Sum("n", alias_name="n")))
    agg = parts.to_pandas()  # bounded: n_sources + n_sources² rows
    if "kind" not in agg.columns or not len(agg):
        # bigram-free corpus: all-empty blocks erode columns (known trap)
        return pa.table({
            "source_a": pa.array([], pa.string()),
            "source_b": pa.array([], pa.string()),
            "n_shared": pa.array([], pa.int64()),
            "n_a": pa.array([], pa.int64()),
            "n_b": pa.array([], pa.int64()),
            "jaccard": pa.array([], pa.float64())})
    tot = agg[agg["kind"] == "t"].set_index("source_a")["n"]
    pairs = agg[agg["kind"] == "p"].copy()
    na = tot.reindex(pairs["source_a"]).to_numpy()
    nb = tot.reindex(pairs["source_b"]).to_numpy()
    shared = pairs["n"].to_numpy()
    out = pa.table({
        "source_a": pa.array(pairs["source_a"], pa.string()),
        "source_b": pa.array(pairs["source_b"], pa.string()),
        "n_shared": pa.array(shared.astype(np.int64)),
        "n_a": pa.array(na.astype(np.int64)),
        "n_b": pa.array(nb.astype(np.int64)),
        "jaccard": pa.array(shared.astype(np.float64)
                            / (na + nb - shared).astype(np.float64))})
    return out.sort_by([("source_a", "ascending"),
                        ("source_b", "ascending")])


def tfidf_top_terms(sf_dir: str, k: int = 5):
    """Per-doc top-k TF-IDF terms over the documents table (distributed df
    count + word-keyed join back — no vocabulary broadcast). The query
    surface emits the integer-exact columns (rank, word, tf, df): the
    RANKING is ulp-stable across engines (exact (tf, df) ties break by
    word on both sides; numpy log and DuckDB ln differ only in the last
    ulp), so it has a value-exact oracle — the float score itself is
    pinned by the pandas-recompute test instead (np.log vs ln disagree
    bitwise on ~28% of inputs, measured)."""
    n = pq.ParquetFile(os.path.join(sf_dir, "documents.parquet")).metadata.num_rows
    return text_analysis.tfidf_top_terms(
        _docs(sf_dir, ["doc_id", "text"]), n_docs=n, k=k,
        n_coarse=_docs_coarse_hint(sf_dir, 8)) \
        .select_columns(["doc_id", "rank", "word", "tf", "df"]) \
        .sort(["doc_id", "rank"])


SCRUB_PATTERN = r"\b(spark|hash)\b"
SCRUB_TOKEN = "[REDACTED]"


def scrub_docs(sf_dir: str):
    """Redaction transform (the PII-scrub shape): replace every whole-word
    match of SCRUB_PATTERN with a redaction token — ONE vectorized RE2
    replace per batch (pc.replace_substring_regex) plus a vectorized match
    count. The oracle is DuckDB regexp_replace with the 'g' flag over the
    SAME pattern, making this a value-exact check of a string TRANSFORM
    (the other oracles compare aggregates)."""

    def scrub(batch: pa.Table) -> pa.Table:
        return pa.table({
            "doc_id": batch["doc_id"],
            "scrubbed": pc.replace_substring_regex(
                batch["text"], SCRUB_PATTERN, SCRUB_TOKEN),
            "n_redacted": pc.cast(
                pc.count_substring_regex(batch["text"], SCRUB_PATTERN),
                pa.int64())})

    return (_docs(sf_dir, ["doc_id", "text"])
            .map_batches(scrub, batch_format="pyarrow").sort("doc_id"))


PII_EMAIL_RE = r"[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\.[A-Za-z]{2,}"
PII_IP_RE = r"\b(?:\d{1,3}\.){3}\d{1,3}\b"
PII_PHONE_RE = r"\b\d[\d\- ]{6,}\d\b"


def pii_scrub_docs(sf_dir: str):
    """PII redaction (emails → <EMAIL>, IPv4 → <IP>, phone-like digit
    runs → <PHONE>) with per-category counts — the standard pre-training
    privacy pass, value-exact as a string TRANSFORM oracle.

    The corpus carries no natural PII, so the query first GRAFTS a
    deterministic PII suffix onto hash32(doc_id)%4∈{0,1,2} docs (the
    crawl_diff synthesis convention — both engine and SQL construct the
    same modified text), then scrubs. Patterns apply in order
    email → ip → phone, each count taken on the PREVIOUS stage's string,
    exactly as the SQL's nested regexp_replace does; all three are RE2 on
    both sides. One vectorized replace+count chain per batch, no
    shuffle."""

    def scrub(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_pylist()
        base = batch["text"].to_pylist()
        texts = []
        for i, t in zip(ids, base):
            g = _hash32(i) % 4
            t = t or ""
            if g == 0:
                t += f" contact user{i}@example.com now"
            elif g == 1:
                t += f" node 10.0.{i % 256}.{(i * 7) % 256} responded"
            elif g == 2:
                t += f" call 0812-34{i % 100:02d}-7890 today"
            texts.append(t)
        t0 = pa.array(texts, pa.string())
        n_emails = pc.cast(pc.count_substring_regex(t0, PII_EMAIL_RE),
                           pa.int64())
        t1 = pc.replace_substring_regex(t0, PII_EMAIL_RE, "<EMAIL>")
        n_ips = pc.cast(pc.count_substring_regex(t1, PII_IP_RE), pa.int64())
        t2 = pc.replace_substring_regex(t1, PII_IP_RE, "<IP>")
        n_phones = pc.cast(pc.count_substring_regex(t2, PII_PHONE_RE),
                           pa.int64())
        t3 = pc.replace_substring_regex(t2, PII_PHONE_RE, "<PHONE>")
        return pa.table({"doc_id": batch["doc_id"], "scrubbed": t3,
                         "n_emails": n_emails, "n_ips": n_ips,
                         "n_phones": n_phones})

    return (_docs(sf_dir, ["doc_id", "text"])
            .map_batches(scrub, batch_format="pyarrow").sort("doc_id"))


def per_lang_topk_sample(sf_dir: str, k: int = 20):
    """Per-group fixed-size deterministic sample: the k docs per language
    with the smallest md5(doc_id) hash — the 'give me exactly k rows per
    stratum' counterpart to the fraction samplers. Hash order is a pure
    function of the key (stable across partitionings); rank runs in
    coarse lang-hash partitions (top-k-per-key shape, same as
    relational.top_events_per_user)."""

    def add_hash(batch: pa.Table) -> pa.Table:
        hs = [_hash32(i) for i in batch["doc_id"].to_pylist()]
        return batch.append_column("h", pa.array(hs, pa.int64()))

    def topk(df):
        d = df.sort_values(["lang", "h", "doc_id"])
        d = d.assign(rnk=d.groupby("lang").cumcount() + 1)
        d = d[d["rnk"] <= k]
        return d[["lang", "rnk", "doc_id", "n_chars"]]

    return (_docs(sf_dir, ["doc_id", "lang", "n_chars"])
            .map_batches(add_hash, batch_format="pyarrow")
            .groupby("lang")
            .map_groups(topk, batch_format="pandas")
            .sort(["lang", "rnk"]))


def exact_dedup_kept(sf_dir: str):
    """D1's keep-side: one representative row (min doc_id) per distinct
    text — the corpus-filtering form of exact dedup (vs the stats form)."""
    return (dedup.exact_dedup(_docs(sf_dir, ["doc_id", "text"]))
            .sort("doc_id"))


def quality_filtered(sf_dir: str, min_score: float = 0.5, min_words: int = 20):
    """Quality gate: keep documents with quality_score ≥ min_score and
    ≥ min_words whitespace words — the filter every training-data pipeline
    runs after scoring. Bit-exact vs SQL (same expression tree per row)."""
    scored = _docs(sf_dir, ["doc_id", "text"]).map_batches(
        text_analysis.quality_scores, batch_format="pyarrow")

    def keep(batch: pa.Table) -> pa.Table:
        m = pc.and_(pc.greater_equal(batch["quality_score"], pa.scalar(min_score)),
                    pc.greater_equal(batch["n_words"],
                                     pa.scalar(min_words, pa.int64())))
        return batch.filter(m).select(["doc_id", "n_words", "quality_score"])

    return scored.map_batches(keep, batch_format="pyarrow").sort("doc_id")


def docs_with_embeddings(sf_dir: str):
    """Distributed hash join of two large tables (documents ⨝ embeddings on
    doc_id = vec_id) via the general stages/joins.py operator — both sides
    shuffle once, co-partitioned on the key; no broadcast. Emits the joined
    row plus the embedding dim (deterministic int, so the oracle hash is
    exact without comparing floats)."""
    from ..stages.joins import hash_join

    docs = _docs(sf_dir, ["doc_id", "lang", "n_chars"])
    embs = _embeddings(sf_dir)
    joined = hash_join(docs, embs, "doc_id", "vec_id", how="inner",
                       n_coarse=_docs_coarse_hint(sf_dir))

    def finalize(batch: pa.Table) -> pa.Table:
        return pa.table({
            "doc_id": batch["doc_id"], "lang": batch["lang"],
            "n_chars": batch["n_chars"],
            "emb_dim": pc.cast(pc.list_value_length(batch["embedding"]),
                               pa.int64())})

    return joined.map_batches(finalize, batch_format="pyarrow").sort("doc_id")
