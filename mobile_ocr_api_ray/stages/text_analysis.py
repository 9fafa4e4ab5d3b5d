"""Text analysis operators for large-scale training-data pipelines:
token counting, quality scoring, language ID, document fingerprinting.

All batch functions are Arrow-native (``batch_format="pyarrow"``) and
vectorized via pyarrow.compute's RE2 regex kernels wherever possible — the
same regex engine DuckDB uses, so the SQL oracles in ``__ray_entry__`` match
bit-for-bit on counts. Python loops appear only in the per-document
winnowing fingerprint (inherently sequential per row, still O(len)).

These extend the reference's text toolkit (tokenizer app.py:453, stopword
scoring app.py:447-480) to the corpus-curation operations a 100 TB pipeline
needs; they run over any table with a text column (e.g. the driver-provided
``documents`` table).
"""

from __future__ import annotations

from functools import lru_cache

import re
import zlib

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from .exchange import keyed_exchange, range_prefix

# small fixed stopword subsets used by quality scoring / language ID —
# deliberately small so the SQL oracle regex stays manageable.
QUALITY_STOPWORDS = (
    "the a an and or of to in on for with as at by from is are was were be "
    "this that it not"
).split()

LANG_PROFILES: dict[str, list[str]] = {
    # distinctive high-frequency function words (reference langs: README.md:98)
    "eng": "the and of to in is that it with for was on are as this".split(),
    "ind": "yang dan di ini itu dari dalam tidak dengan akan pada untuk adalah ke juga".split(),
}

_WORD_RE = r"\w+"
_WS_TOKEN_RE = r"\S+"
_PUNCT_RE = r"[^\w\s]"


def _alt_regex(words: list[str]) -> str:
    return r"\b(" + "|".join(words) + r")\b"


def _count(arr: pa.ChunkedArray | pa.Array, pattern: str) -> pa.Array:
    return pc.count_substring_regex(arr, pattern)



def _emit(batch: pa.Table, cols: dict) -> pa.Table:
    """Build an output table: carry id columns (doc_id/url) + computed cols."""
    data = {}
    for name in ("doc_id", "url"):
        if name in batch.column_names:
            data[name] = batch[name]
    data.update(cols)
    return pa.table(data)

def token_counts(batch: pa.Table, text_col: str = "text") -> pa.Table:
    """Token counting: regex words (the reference tokenizer \\w+ on lowered
    text, app.py:453), whitespace tokens, and a BPE-ish subword estimate
    (word pieces of <=4 chars)."""
    text = batch[text_col]
    lower = pc.utf8_lower(text)
    n_tokens = pc.cast(_count(lower, _WORD_RE), pa.int64())
    n_ws = pc.cast(_count(text, _WS_TOKEN_RE), pa.int64())
    n_chars = pc.cast(pc.utf8_length(text), pa.int64())
    # BPE-ish subword estimate: total word-chars / 4, ceil — i.e. every word
    # contributes roughly one piece per 4 characters
    non_word = pc.cast(_count(lower, r"[^\w]"), pa.int64())
    in_word_chars = pc.subtract(n_chars, non_word)
    four = pa.scalar(4, pa.int64())
    floor_div = pc.divide(in_word_chars, four)
    remainder = pc.subtract(in_word_chars, pc.multiply(floor_div, four))
    n_subwords = pc.add(floor_div, pc.cast(pc.not_equal(remainder, pa.scalar(0, pa.int64())), pa.int64()))
    return _emit(batch, {"n_chars_m": n_chars, "n_tokens": n_tokens,
                         "n_ws_tokens": n_ws, "n_subwords": n_subwords})


def quality_scores(batch: pa.Table, text_col: str = "text") -> pa.Table:
    """Quality scoring: length/punctuation/stopword-ratio heuristics.

    quality_score = 0.4*min(1, n_words/50) + 0.3*stopword_frac
                  + 0.3*(1 - min(1, 5*punct_frac)).

    The expression tree mirrors the SQL oracle exactly — IEEE double ops are
    deterministic per-row, so the unrounded values are bit-identical to
    DuckDB's (rounding would actually HURT parity: round() implementations
    differ by 1 ulp between engines)."""
    text = batch[text_col]
    lower = pc.utf8_lower(text)
    n_chars = pc.cast(pc.utf8_length(text), pa.float64())
    n_words = pc.cast(_count(text, _WS_TOKEN_RE), pa.float64())
    n_tokens = pc.cast(_count(lower, _WORD_RE), pa.float64())
    n_punct = pc.cast(_count(text, _PUNCT_RE), pa.float64())
    n_stop = pc.cast(_count(lower, _alt_regex(QUALITY_STOPWORDS)), pa.float64())

    n = batch.num_rows
    one = pa.scalar(1.0)
    stop_frac = pc.divide(n_stop, pc.max_element_wise(n_tokens, one))
    punct_frac = pc.divide(n_punct, pc.max_element_wise(n_chars, one))
    score = pc.add(
        pc.add(
            pc.multiply(pc.min_element_wise(pc.divide(n_words, pa.scalar(50.0)), one), pa.scalar(0.4)),
            pc.multiply(stop_frac, pa.scalar(0.3)),
        ),
        pc.multiply(pc.subtract(one, pc.min_element_wise(pc.multiply(punct_frac, pa.scalar(5.0)), one)), pa.scalar(0.3)),
    )
    return _emit(batch, {"n_words": pc.cast(n_words, pa.int64()),
                         "stopword_frac": stop_frac,
                         "punct_frac": punct_frac,
                         "quality_score": score})


def lang_id(batch: pa.Table, text_col: str = "text") -> pa.Table:
    """Language ID via function-word profile hits (n-gram heuristic).

    predicted = argmax over LANG_PROFILES of per-profile hit counts;
    ties and zero evidence → 'und'. Deterministic, vectorized: one RE2
    count per profile."""
    lower = pc.utf8_lower(batch[text_col])
    # null text → 0 hits → 'und' (a null count would ride to_numpy as NaN
    # and the int64 cast of the argmax row is garbage, not zero)
    counts = {
        lang: pc.fill_null(_count(lower, _alt_regex(words)), 0)
                .to_numpy(zero_copy_only=False)
        for lang, words in LANG_PROFILES.items()
    }
    langs = list(counts)
    mat = np.stack([counts[l] for l in langs])  # (n_langs, n_rows)
    best = np.argmax(mat, axis=0)
    best_count = mat[best, np.arange(mat.shape[1])]
    # tie detection: how many profiles reach the max
    n_at_max = (mat == best_count[None, :]).sum(axis=0)
    pred = np.where((best_count == 0) | (n_at_max > 1), "und",
                    np.array(langs, dtype=object)[best])
    return _emit(batch, {"lang_pred": pa.array(pred, pa.string()),
                         "lang_evidence": pa.array(best_count.astype("int64"))})


# --------------------------------------------------- winnowing fingerprints

FP_K = 8       # char k-gram length
FP_WINDOW = 4  # winnowing window


def winnow_fingerprints(text: str, k: int = FP_K, w: int = FP_WINDOW) -> list[int]:
    """Winnowing document fingerprint (Schleimer et al., SIGMOD'03): crc32
    rolling k-gram hashes, min per sliding window, deduped in order."""
    t = text.lower()
    if len(t) < k:
        return [zlib.crc32(t.encode())] if t else []
    hashes = [zlib.crc32(t[i:i + k].encode()) for i in range(len(t) - k + 1)]
    out: list[int] = []
    last = -1
    for i in range(max(1, len(hashes) - w + 1)):
        window = hashes[i:i + w]
        m = min(window)
        pos = i + window.index(m)
        if pos != last:
            out.append(m)
            last = pos
    return out


def fingerprint(batch: pa.Table, text_col: str = "text") -> pa.Table:
    texts = batch[text_col].to_pylist()
    fps = [winnow_fingerprints(t or "") for t in texts]
    return _emit(batch, {"fingerprints": pa.array(fps, pa.list_(pa.int64())),
                         "n_fingerprints": pa.array([len(f) for f in fps], pa.int64())})


# ----------------------------------------------------------------- TF-IDF

def tfidf_top_terms(ds, n_docs: int, id_col: str = "doc_id",
                    text_col: str = "text", k: int = 5,
                    n_coarse: int = 64):
    """Per-document top-k terms by TF-IDF: tf(w,d) · ln(N / df(w)).

    Fully distributed — no vocabulary broadcast:
    1. explode each doc to (doc, word, tf) rows with a per-doc Counter
       (same re.ASCII ``\\w+`` tokenizer as word_freq_top);
    2. document frequency = groupby(word-key) count over the explode rows
       (each row is one distinct (doc, word) — df comes free, no dedup);
    3. df joins BACK to the explode rows through stages/joins.hash_join's
       native STRING-key path (crc32 partition routing + exact equality
       verification in the merge, so hash collisions never merge two
       words' df) — word-keyed co-partitioned shuffle, both sides
       corpus-scale (the broadcast alternative dies at web-scale
       vocabularies);
    4. per-doc top-k in one keyed exchange on the doc id, tie-break
       (tfidf desc, word asc).

    ``n_docs`` is the corpus document count (exact, from parquet metadata —
    never a driver count() over the pipeline). Returns
    (doc_id, rank, word, tf, df, tfidf)."""
    import re
    from collections import Counter

    import ray.data
    from ray.data.aggregate import Count

    from .joins import hash_join

    word_re = re.compile(r"\w+", re.ASCII)

    def explode(batch: pa.Table) -> pa.Table:
        ids = batch[id_col].to_pylist()
        texts = batch[text_col].to_pylist()
        out_id, out_w, out_tf = [], [], []
        for i, t in zip(ids, texts):
            c = Counter(word_re.findall((t or "").lower()))
            for w, n in c.items():
                out_id.append(i)
                out_w.append(w)
                out_tf.append(n)
        return pa.table({id_col: pa.array(out_id, pa.int64()),
                         "word": pa.array(out_w, pa.string()),
                         "tf": pa.array(out_tf, pa.int64())})

    tokens = ds.map_batches(explode, batch_format="pyarrow").materialize()
    out_schema = {id_col: pa.int64(), "rank": pa.int64(),
                  "word": pa.string(), "tf": pa.int64(), "df": pa.int64(),
                  "tfidf": pa.float64()}
    if tokens.count() == 0:
        # token-free corpus: hash_join can't probe schema through an
        # all-empty lineage — return the typed empty directly (count() is
        # free on the materialized table)
        import ray.data as _rd
        return _rd.from_arrow(pa.table(
            {name: pa.array([], ty) for name, ty in out_schema.items()}))
    # one distinct (doc, word) per row → groupby count IS document
    # frequency; the string-key hash_join verifies exact word equality
    # inside the merge, so crc32 collisions (~1 per 80k distinct words)
    # never merge two words' df
    df_tbl = (tokens.select_columns(["word"])
              .groupby("word").aggregate(Count(alias_name="df"))
              .map_batches(
                  lambda b: b.rename_columns(
                      ["dfword" if c == "word" else c
                       for c in b.column_names]),
                  batch_format="pyarrow"))

    joined = hash_join(tokens, df_tbl, "word", "dfword", how="inner",
                       n_coarse=n_coarse)

    def topk(t: pa.Table) -> pa.Table:
        tfidf = t["tf"].to_numpy() * np.log(n_docs / t["df"].to_numpy())
        t = t.append_column("tfidf", pa.array(tfidf)).sort_by(
            [(id_col, "ascending"), ("tfidf", "descending"),
             ("word", "ascending")])
        ids = t[id_col].to_numpy()
        pos = np.arange(len(ids))
        first = np.maximum.accumulate(
            np.where(np.diff(ids, prepend=ids[:1] - 1) != 0, pos, 0))
        rank = pos - first + 1
        return t.append_column("rank", pa.array(rank)) \
            .filter(pa.array(rank <= k))

    # the bucket of an int key is id % n_coarse: one group per coarse
    # doc bucket, every doc's words in one group
    return keyed_exchange(joined, [id_col], topk, out_schema, n_coarse)


# ------------------------------------------------------- sequence packing

SEQ_BUDGET = 2048


def pack_sequences(ds, budget: int = SEQ_BUDGET, id_col: str = "doc_id",
                   text_col: str = "text", range_width: int = 2048):
    """GPT-style concat-and-chunk packing ASSIGNMENT: lay every document's
    whitespace tokens (``\\S+``, token_counts' n_ws_tokens rule) on one
    global tape in ``id_col`` order and cut it every ``budget`` tokens.
    Emits (id, n_tokens, start_offset, seq_id, offset_in_seq,
    spans_boundary) — the plan a packing writer consumes to co-locate each
    sequence's members; the heavy text column never moves.

    Distributed EXCLUSIVE PREFIX SUM in one data shuffle
    (``exchange.range_prefix``):
      1. each batch projects to (id, n_tokens, rkey = id // range_width);
         the text column drops immediately, so the exchanged table is
         ~16 bytes/doc regardless of corpus size;
      2. per-range token totals (per-block Arrow partials) form the
         BOUNDED driver table — one row per id-range, sized by
         ``range_width`` (callers target ~1e2-1e5 ranges; at 100 TB /
         3e11 docs a 3e6 width keeps it at 1e5 rows) — whose exclusive
         prefix sum is each range's base offset;
      3. one keyed exchange on rkey sorts each range by id and adds the
         in-range exclusive cumsum to the range's base.

    Ranges are contiguous in id, so cross-range order is the (sorted)
    base table's order and in-range order is the group sort — together
    the exact global id order with NO global sort."""

    def project(batch: pa.Table) -> pa.Table:
        t = pc.fill_null(batch[text_col], "")
        ids = batch[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table({
            id_col: batch[id_col],
            "n_tokens": pc.cast(_count(t, _WS_TOKEN_RE), pa.int64()),
            "rkey": pa.array(ids // range_width, pa.int64())})

    def emit(t: pa.Table, start: np.ndarray) -> pa.Table:
        n = t["n_tokens"].to_numpy()
        seq = start // budget
        last = start + np.maximum(n, 1) - 1  # index of the last token
        return pa.table({
            id_col: t[id_col], "n_tokens": t["n_tokens"],
            "start_offset": start, "seq_id": seq,
            "offset_in_seq": start % budget,
            "spans_boundary": (n > 0) & ((last // budget) != seq)})

    return range_prefix(
        ds.map_batches(project, batch_format="pyarrow"), "rkey", [id_col],
        emit, {id_col: pa.int64(), "n_tokens": pa.int64(),
               "start_offset": pa.int64(), "seq_id": pa.int64(),
               "offset_in_seq": pa.int64(), "spans_boundary": pa.bool_()},
        weight="n_tokens")


def global_shuffle_order(ds, id_col: str = "doc_id", seed: str = "s0",
                         n_shards: int = 8, n_buckets: int = 256):
    """Deterministic seeded GLOBAL training-order shuffle — the
    reproducible alternative to ``ds.random_shuffle()`` a training
    pipeline needs when a run must be resumable/replayable: every row's
    position is a pure function of (seed, id), so two runs (or a resumed
    run) emit the identical order with no RNG state to checkpoint.

    rank(row) = position of (md5(seed || ':' || id), id) in lexicographic
    order over the corpus; shard = rank % n_shards interleaves the
    shuffled order round-robin across output shards (every shard is an
    unbiased sample of the corpus, in shuffled order).

    NO global sort: the hash's first byte is already uniform, so it
    range-partitions the order — ``exchange.range_prefix`` counts each
    bucket in per-block partials, prefix-sums the ≤ ``n_buckets`` counts
    into base ranks and adds each row's in-bucket rank in one keyed
    exchange. Exchange = (id, 32-char hash) per row; the payload never
    moves — the caller joins ranks back or feeds (id → shard) straight
    to a partitioned writer. Value-exact in SQL: row_number() over the
    same md5 ordering."""
    import hashlib

    pre = f"{seed}:"

    def project(batch: pa.Table) -> pa.Table:
        ids = batch[id_col].to_pylist()
        h = [hashlib.md5((pre + str(i)).encode()).hexdigest() for i in ids]
        bucket = np.array([int(x[:2], 16) for x in h],
                          dtype=np.int64) % n_buckets
        return pa.table({id_col: batch[id_col],
                         "shuffle_hash": pa.array(h, pa.string()),
                         "bucket": pa.array(bucket, pa.int64())})

    def emit(t: pa.Table, rank: np.ndarray) -> pa.Table:
        return pa.table({id_col: t[id_col],
                         "shuffle_hash": t["shuffle_hash"],
                         "shuffle_rank": rank, "shard": rank % n_shards})

    return range_prefix(
        ds.map_batches(project, batch_format="pyarrow"), "bucket",
        ["shuffle_hash", id_col], emit,
        {id_col: pa.int64(), "shuffle_hash": pa.string(),
         "shuffle_rank": pa.int64(), "shard": pa.int64()})


def global_value_rank(ds, value_col: str, id_col: str = "doc_id",
                      range_width: int = 64):
    """Global ORDER-STATISTICS transform: every row's exact rank (0-based)
    and percentile in the corpus-wide (value, id) order — the
    rank-transform normalization (percentile features, rank-based
    cutoffs) that complements group_zscore's moment-based one.

    NO global sort: integer values range-partition themselves —
    bucket = value // range_width, and ``exchange.range_prefix`` turns
    per-bucket counts into base ranks and adds each row's in-bucket
    rank (buckets are contiguous in value, so cross-bucket order is the
    prefix order and in-bucket order the local sort). Exchange = (id,
    value) per row. percentile_micro = rank · 1e6 // n — exact integers,
    value-exact in SQL row_number.

    Contract: values are NON-NEGATIVE ints (true for every count/length
    column this engine emits) — Arrow's truncated integer division would
    misbucket negatives relative to floor order; nulls count as 0."""

    def project(batch: pa.Table) -> pa.Table:
        v = pc.cast(pc.fill_null(batch[value_col], 0), pa.int64())
        b = pc.divide(v, pa.scalar(range_width, pa.int64()))
        return pa.table({id_col: batch[id_col], "value": v,
                         "bucket": pc.cast(b, pa.int64())})

    proj = ds.map_batches(project, batch_format="pyarrow").materialize()
    n = proj.count()

    def emit(t: pa.Table, rank: np.ndarray) -> pa.Table:
        return pa.table({id_col: t[id_col], "value": t["value"],
                         "rank_idx": rank,
                         "percentile_micro": rank * 1_000_000 // n})

    return range_prefix(
        proj, "bucket", ["value", id_col], emit,
        {id_col: pa.int64(), "value": pa.int64(), "rank_idx": pa.int64(),
         "percentile_micro": pa.int64()})


CMS_DEPTH = 4
CMS_WIDTH = 1024


def cms_word_counts(ds, probe_words: list[str], *,
                    depth: int = CMS_DEPTH, width: int = CMS_WIDTH,
                    text_col: str = "text"):
    """Count-min sketch word frequencies — the fixed-memory, mergeable
    counting sketch that completes the sketch family (HLL = distincts,
    Misra-Gries = top-k, Bloom = membership, CMS = per-key counts with
    a one-sided overestimate guarantee). Cell(d, b) = Σ counts of words
    with hash_d(word) = b, where hash_d = the engine-wide md5-prefix
    hash32 of ``f"{d}:{word}"`` mod width; estimate(w) =
    min_d cell(d, hash_d(w)) ≥ true count, with equality unless every
    depth collides.

    Per batch: one \\s+ split + a local value_counts combiner, then D
    bucket scatters into SPARSE (depth, bucket, count) partials — the
    exchange is ≤ depth·width rows per batch regardless of vocabulary,
    and the final native groupby-sum table is ≤ depth·width rows total
    (16 KB-class, the HLL convention). Probe estimates resolve on the
    driver against that bounded table. Integer sums only → mergeable,
    partition-invariant, and value-exact in SQL (same md5 hash, same
    min-over-depths)."""
    import pandas as pd

    from ..hashing import hash32

    def partials(batch: pa.Table) -> pa.Table:
        t = pc.fill_null(batch[text_col], "")
        words, _ = word_frames(t)
        if len(words) == 0:
            return pa.table({"depth": pa.array([], pa.int64()),
                             "bucket": pa.array([], pa.int64()),
                             "cnt": pa.array([], pa.int64())})
        vc = pd.Series(words).value_counts()
        uniq = vc.index.to_numpy()
        counts = vc.to_numpy().astype(np.int64)
        dd, bb, cc = [], [], []
        for d in range(depth):
            buckets = np.fromiter(
                (hash32(f"{d}:{w}") % width for w in uniq),
                dtype=np.int64, count=len(uniq))
            # in-batch cell combiner: one row per touched cell
            cells = pd.Series(counts).groupby(buckets).sum()
            dd.append(np.full(len(cells), d, np.int64))
            bb.append(cells.index.to_numpy().astype(np.int64))
            cc.append(cells.to_numpy().astype(np.int64))
        return pa.table({"depth": pa.array(np.concatenate(dd)),
                         "bucket": pa.array(np.concatenate(bb)),
                         "cnt": pa.array(np.concatenate(cc))})

    def with_cell(batch: pa.Table) -> pa.Table:
        cell = (np.asarray(batch["depth"]) * width
                + np.asarray(batch["bucket"]))
        return pa.table({"cell": pa.array(cell, pa.int64()),
                         "cnt": batch["cnt"]})

    sk = (ds.map_batches(partials, batch_format="pyarrow")
          .map_batches(with_cell, batch_format="pyarrow")
          .groupby("cell").sum("cnt").to_pandas())
    cells = dict(zip(sk["cell"].astype(np.int64),
                     sk["sum(cnt)"].astype(np.int64)))
    out_w, out_e = [], []
    for w in sorted(set(probe_words)):
        est = min(cells.get(d * width + hash32(f"{d}:{w}") % width, 0)
                  for d in range(depth))
        out_w.append(w)
        out_e.append(int(est))
    return pa.table({"word": pa.array(out_w, pa.string()),
                     "est_count": pa.array(out_e, pa.int64())})


def length_fit(ds, text_col: str = "text"):
    """On-engine EXACT simple linear regression (distributed normal
    equations): fit chars ≈ slope · ws_tokens + intercept over the whole
    corpus in one streaming pass. Each batch contributes five int64
    partial sums (n, Σx, Σy, Σx², Σxy) — integer addition is exact and
    order-independent, so the distributed Sum aggregation is
    partition-invariant, unlike float SGD (the structural reason
    nb_source_predictions is rows-only while this fit is value-exact).
    Cramer closed form on the driver over the five scalars:
    den = nΣx²-(Σx)², slope_num = nΣxy-ΣxΣy,
    intercept_num = ΣyΣx²-ΣxΣxy — emitted as exact BIGINTs plus the
    float quotients (cast num → double, cast den → double, divide: the
    identical literal operation order as the SQL oracle, so the doubles
    match bit-for-bit). Magnitudes: safe in int64 through ~1e6 docs ×
    1e4 tokens; a 100-TB corpus promotes the partials to the int128 /
    Python-int path (DuckDB side is already HUGEINT-capable).

    → one row: (n_docs, sum_x, sum_y, sum_xx, sum_xy, den, slope_num,
    intercept_num, slope, intercept)."""
    from ray.data.aggregate import Sum

    def partials(batch: pa.Table) -> pa.Table:
        t = pc.fill_null(batch[text_col], "")
        x = pc.cast(_count(t, _WS_TOKEN_RE), pa.int64()).to_numpy()
        y = pc.utf8_length(t).cast(pa.int64()).to_numpy()
        return pa.table({
            "n": pa.array([len(x)], pa.int64()),
            "sx": pa.array([int(x.sum())], pa.int64()),
            "sy": pa.array([int(y.sum())], pa.int64()),
            "sxx": pa.array([int((x * x).sum())], pa.int64()),
            "sxy": pa.array([int((x * y).sum())], pa.int64())})

    agg = (ds.map_batches(partials, batch_format="pyarrow")
           .aggregate(Sum("n", alias_name="n"), Sum("sx", alias_name="sx"),
                      Sum("sy", alias_name="sy"),
                      Sum("sxx", alias_name="sxx"),
                      Sum("sxy", alias_name="sxy")))
    n = int(agg["n"] or 0)
    sx, sy = int(agg["sx"] or 0), int(agg["sy"] or 0)
    sxx, sxy = int(agg["sxx"] or 0), int(agg["sxy"] or 0)
    den = n * sxx - sx * sx
    slope_num = n * sxy - sx * sy
    intercept_num = sy * sxx - sx * sxy
    slope = 0.0 if den == 0 else float(slope_num) / float(den)
    intercept = 0.0 if den == 0 else float(intercept_num) / float(den)
    return pa.table({
        "n_docs": pa.array([n], pa.int64()),
        "sum_x": pa.array([sx], pa.int64()),
        "sum_y": pa.array([sy], pa.int64()),
        "sum_xx": pa.array([sxx], pa.int64()),
        "sum_xy": pa.array([sxy], pa.int64()),
        "den": pa.array([den], pa.int64()),
        "slope_num": pa.array([slope_num], pa.int64()),
        "intercept_num": pa.array([intercept_num], pa.int64()),
        "slope": pa.array([slope], pa.float64()),
        "intercept": pa.array([intercept], pa.float64())})


# --------------------------------------------------- Gopher quality flags

GOPHER_MIN_WORDS = 25
GOPHER_MAX_WORDS = 500
GOPHER_MIN_MWL = 4.0
GOPHER_MAX_MWL = 10.0
GOPHER_MIN_STOP = 2
GOPHER_MAX_TOP_WORD = 0.12
GOPHER_MAX_DUP_2GRAM = 0.06


def word_frames(text: pa.ChunkedArray | pa.Array):
    """``\\s+``-split a text column to flat (word, parent-row) frames with
    empty tokens dropped — the shared tokenizer for the repetition
    kernels. Null text contributes no words (null lists flatten to
    nothing)."""
    words = pc.split_pattern_regex(text, r"\s+")
    flat = pc.list_flatten(words)
    parent = pc.list_parent_indices(words)
    mask = pc.not_equal(flat, "")
    return (flat.filter(mask).to_numpy(zero_copy_only=False),
            parent.filter(mask).to_numpy())


def repetition_counts(w: np.ndarray, p: np.ndarray, n: int):
    """Per-document repetition counts from flat word frames: (n_words,
    top_word_count, n_distinct_words, n_bigrams, n_distinct_bigrams).
    Bigrams are space-joined adjacent pairs — the same encoding as the
    SQL oracles (words cannot contain spaces). Shared by
    ``repetition_stats`` and ``gopher_flags`` so the two engines cannot
    drift."""
    import pandas as pd

    n_words = np.bincount(p, minlength=n).astype(np.int64)
    top = np.zeros(n, np.int64)
    dis = np.zeros(n, np.int64)
    cnt = pd.DataFrame({"p": p, "w": w}).groupby(["p", "w"], sort=False) \
                                        .size()
    if len(cnt):
        t = cnt.groupby(level=0).max()
        d = cnt.groupby(level=0).size()
        top[t.index] = t.to_numpy()
        dis[d.index] = d.to_numpy()

    adj = p[1:] == p[:-1] if len(p) > 1 else np.array([], bool)
    gp = p[:-1][adj] if len(p) > 1 else np.array([], np.int64)
    n_g2 = np.bincount(gp, minlength=n).astype(np.int64)
    dis_g2 = np.zeros(n, np.int64)
    if len(gp):
        g2 = pd.Series(w[:-1][adj]) + " " + pd.Series(w[1:][adj])
        gd = pd.DataFrame({"p": gp, "g": g2.to_numpy()}) \
               .drop_duplicates().groupby("p").size()
        dis_g2[gd.index] = gd.to_numpy()
    return n_words, top, dis, n_g2, dis_g2


def gopher_flags(batch: pa.Table, text_col: str = "text") -> pa.Table:
    """Gopher-style (Rae et al. 2021, §A1.1) per-document quality flags,
    one boolean per rule plus the composite ``keep`` — filters stay
    inspectable instead of collapsing to a single gate. Thresholds are
    tuned to the synthetic corpus so every rule fires on real rows.

    Fully vectorized per batch (one \\s+ split, flat word/bigram frames,
    one RE2 pass per stopword), purely per-row → no shuffle. Ratios are
    exact-int divisions, so the float threshold compares agree with the
    SQL oracle bit-for-bit."""
    n = batch.num_rows
    t = pc.fill_null(batch[text_col], "")
    lower = pc.utf8_lower(t)

    w, p = word_frames(t)
    n_words, top, _, n_g2, dis_g2 = repetition_counts(w, p, n)

    nw_chars = pc.subtract(pc.utf8_length(t),
                           _count(t, r"\s")).to_numpy().astype(np.int64)

    n_stop = np.zeros(n, np.int64)
    for sw in QUALITY_STOPWORDS:
        hit = pc.match_substring_regex(lower, rf"\b{sw}\b")
        n_stop += pc.fill_null(hit, False).to_numpy(zero_copy_only=False)

    denom = np.maximum(n_words, 1).astype(np.float64)
    mwl = nw_chars.astype(np.float64) / denom
    twf = top.astype(np.float64) / denom
    dgf = (n_g2 - dis_g2).astype(np.float64) \
        / np.maximum(n_g2, 1).astype(np.float64)

    f_wc = (n_words >= GOPHER_MIN_WORDS) & (n_words <= GOPHER_MAX_WORDS)
    f_mwl = (mwl >= GOPHER_MIN_MWL) & (mwl <= GOPHER_MAX_MWL)
    f_stop = n_stop >= GOPHER_MIN_STOP
    f_top = twf <= GOPHER_MAX_TOP_WORD
    f_dup = dgf <= GOPHER_MAX_DUP_2GRAM

    return _emit(batch, {
        "n_words": pa.array(n_words, pa.int64()),
        "mean_word_len": pa.array(mwl, pa.float64()),
        "n_stop_distinct": pa.array(n_stop, pa.int64()),
        "top_word_frac": pa.array(twf, pa.float64()),
        "dup_2gram_frac": pa.array(dgf, pa.float64()),
        "flag_word_count": pa.array(f_wc),
        "flag_mean_word_len": pa.array(f_mwl),
        "flag_stopwords": pa.array(f_stop),
        "flag_top_word": pa.array(f_top),
        "flag_dup_2gram": pa.array(f_dup),
        "keep": pa.array(f_wc & f_mwl & f_stop & f_top & f_dup)})


def compressibility(batch: pa.Table, text_col: str = "text",
                    level: int = 6) -> pa.Table:
    """Per-doc zlib compressibility — the cheap repetitiveness signal
    (machine-generated / boilerplate-heavy text compresses far better
    than natural prose; RefinedWeb and MassiveText both gate on it).
    ratio = compressed_bytes / utf8_bytes, 1.0 for empty docs. zlib level
    fixed → deterministic across runs and platforms (zlib output is
    stable for a given level). C-speed per row, no shuffle."""
    texts = batch[text_col].to_pylist()
    nb, nc = [], []
    for t in texts:
        raw = (t or "").encode("utf-8")
        nb.append(len(raw))
        nc.append(len(zlib.compress(raw, level)) if raw else 0)
    ratio = [c / b if b else 1.0 for b, c in zip(nb, nc)]
    return _emit(batch, {
        "n_bytes": pa.array(nb, pa.int64()),
        "n_compressed": pa.array(nc, pa.int64()),
        "compress_ratio": pa.array(ratio, pa.float64())})


HASH_VEC_DIM = 128


def hashed_doc_vectors(batch: pa.Table, text_col: str = "text",
                       dim: int = HASH_VEC_DIM) -> pa.Table:
    """Feature-hashed bag-of-words document vectors (Weinberger et al.,
    ICML'09 hashing trick): token → index crc32(tok) % dim with a sign bit
    from the same hash, counts accumulated and L2-normalized. Gives every
    doc a dense float64[dim] embedding from text alone — feeds the ANN /
    k-means / centroid operators without any external model. Deterministic
    (crc32), one pass, no shuffle."""
    texts = batch[text_col].to_pylist()
    out = np.zeros((len(texts), dim), np.float64)
    for i, t in enumerate(texts):
        toks = (t or "").split()
        if not toks:
            continue
        hs = np.fromiter((zlib.crc32(w.encode()) for w in toks),
                         np.uint64, len(toks))
        idx = (hs % np.uint64(dim)).astype(np.int64)
        sign = np.where((hs >> np.uint64(16)) & np.uint64(1), 1.0, -1.0)
        np.add.at(out[i], idx, sign)
    norms = np.linalg.norm(out, axis=1)
    norms[norms == 0] = 1.0
    out /= norms[:, None]
    if "doc_id" not in batch.column_names:
        # a per-batch arange would restart at 0 in every batch and
        # silently conflate documents downstream — ids must come in
        raise ValueError("hashed_doc_vectors requires a doc_id column")
    ids = batch["doc_id"]
    return pa.table({
        "vec_id": ids,
        "embedding": pa.array([r.tolist() for r in out],
                              pa.list_(pa.float64()))})


NB_VOCAB_K = 2000


def nb_fit(docs_ds, text_col: str = "text", label_col: str = "source",
           vocab_k: int = NB_VOCAB_K) -> dict:
    """Fit a multinomial Naive Bayes text classifier ON the engine —
    count-based fitting is exactly a distributed aggregation:
      1. per-batch (word, label) count combiner (Arrow group_by) →
         one bounded groupby — the only shuffle;
      2. vocabulary capped to the top ``vocab_k`` corpus words
         (count desc, word asc — the word_freq_top rule) so the broadcast
         model is bounded regardless of corpus vocabulary;
      3. Laplace-smoothed log P(w|label) + log prior per label.
    Tokens are lowered ``\\w+`` words (the wordcount tokenizer). Returns a
    plain dict model (labels, vocab index, log-prob matrix) — small enough
    to ride task closures."""
    import re as _re

    # ASCII \w+ — the same tokenizer class as the wordcount oracle family
    word_re = _re.compile(r"\w+", _re.ASCII)

    def counts(batch: pa.Table) -> pa.Table:
        from collections import Counter

        c: "Counter[tuple]" = Counter()
        docs_per: "Counter[str]" = Counter()
        for t, lab in zip(batch[text_col].to_pylist(),
                          batch[label_col].to_pylist()):
            lab = lab or ""
            docs_per[lab] += 1
            c.update((w, lab) for w in word_re.findall((t or "").lower()))
        rows = [(w, lab, n, 0) for (w, lab), n in c.items()]
        rows += [("", lab, 0, n) for lab, n in docs_per.items()]
        return pa.table({
            "word": pa.array([r[0] for r in rows], pa.string()),
            "label": pa.array([r[1] for r in rows], pa.string()),
            "n": pa.array([r[2] for r in rows], pa.int64()),
            "n_docs": pa.array([r[3] for r in rows], pa.int64())})

    from ray.data.aggregate import Sum

    agg = (docs_ds.map_batches(counts, batch_format="pyarrow")
           .groupby(["word", "label"])
           .aggregate(Sum("n", alias_name="n"),
                      Sum("n_docs", alias_name="n_docs"))
           .materialize())
    # top-k vocab computed ON the engine (word_freq_top's sort/limit
    # rule) — the driver pulls k rows, never the full (word, label)
    # aggregate (O(vocab × labels) on web text)
    totals = (agg.groupby("word").sum("n")
              .sort(["sum(n)", "word"], descending=[True, False])
              .limit(vocab_k + 1).to_pandas())
    totals = totals[totals["word"] != ""].head(vocab_k)
    vocab = {w: i for i, w in enumerate(totals["word"])}

    vocab_arr = pa.array(list(vocab), pa.string())

    def in_model(batch: pa.Table) -> pa.Table:
        keep = pc.or_(pc.is_in(batch["word"], value_set=vocab_arr),
                      pc.equal(batch["word"], ""))
        return batch.filter(keep)

    pulled = agg.map_batches(in_model, batch_format="pyarrow").to_pandas()
    doc_rows = pulled[pulled["word"] == ""]
    wc = pulled[pulled["word"] != ""]
    labels = sorted(doc_rows["label"].unique())
    n_docs_per = {r.label: int(r.n_docs)
                  for r in doc_rows.itertuples()}
    total_docs = sum(n_docs_per.values())

    v = len(vocab)
    mat = np.zeros((len(labels), v), np.int64)
    lab_idx = {l: i for i, l in enumerate(labels)}
    in_vocab = wc[wc["word"].isin(vocab)]
    mat[[lab_idx[l] for l in in_vocab["label"]],
        [vocab[w] for w in in_vocab["word"]]] = in_vocab["n"].to_numpy()
    tok_per_label = mat.sum(axis=1)
    logp = np.log((mat + 1).astype(np.float64)
                  / (tok_per_label + v)[:, None].astype(np.float64))
    log_prior = np.log(np.array([n_docs_per[l] for l in labels],
                                np.float64) / float(total_docs))
    return {"labels": labels, "vocab": vocab, "logp": logp,
            "log_prior": log_prior}


def nb_predict(batch: pa.Table, model: dict, text_col: str = "text",
               id_col: str = "doc_id") -> pa.Table:
    """Vectorized prediction against a broadcast NB model: per doc, a
    sparse count vector over the model vocabulary → counts · logpᵀ +
    prior, argmax (tie → first/lexicographically-smallest label)."""
    import re as _re

    word_re = _re.compile(r"\w+", _re.ASCII)
    vocab = model["vocab"]
    logp = model["logp"]
    texts = batch[text_col].to_pylist()
    scores = np.tile(model["log_prior"], (len(texts), 1))
    for i, t in enumerate(texts):
        idxs = [vocab[w] for w in word_re.findall((t or "").lower())
                if w in vocab]
        if idxs:
            cnt = np.bincount(idxs, minlength=logp.shape[1])
            scores[i] += logp @ cnt.astype(np.float64)
    pred = np.argmax(scores, axis=1)   # argmax ties → lowest index
    labels = model["labels"]
    return pa.table({
        id_col: batch[id_col],
        "pred": pa.array([labels[p] for p in pred], pa.string())})


# ------------------------------------------------- n-gram novelty (memorization)


def gram_novelty(ds, id_col: str = "doc_id", text_col: str = "text",
                 n: int = 3):
    """Per-document n-gram novelty: of the document's DISTINCT word
    n-grams, how many occur in NO other document (corpus df == 1) — the
    memorization/duplication-pressure signal training-data analyses report
    next to dedup stats (the Lee-et-al. "how much of this doc is shared
    text" view, integer-exact so the SQL oracle hash-matches).

    Fully distributed and JOIN-FREE — the key identity: a df==1 gram has
    exactly one owner, so min(doc_id) carried through the df groupby IS
    that owner, and novelty never needs the corpus-scale string-key join
    back to the explode (the round-4 first cut paid that join; this
    formulation halves the gram-string exchange volume):

    1. explode each doc to its distinct n-gram strings (dedup.ngram_set —
       exact strings, no hashing, so SQL reproduces them verbatim); the
       text column drops at the explode;
    2. n_grams per doc = in-batch partial counts over the explode (each
       (doc, gram) occurs once globally, so partial sums are exact);
    3. groupby(gram) → (df = Count, owner = Min(doc_id)); rows with
       df == 1 reduce to per-owner novel counts in-batch;
    4. both partial streams union into ONE per-doc keyed exchange sum —
       gram strings cross the wire exactly once (the df exchange).

    Docs with no words emit no row (they have no grams) — the SQL oracle
    groups over the same gram rows, so both sides agree. Returns
    (doc_id, n_grams, n_novel) sorted by doc_id."""
    import ray.data
    from ray.data.aggregate import Count, Min

    from .dedup import ngram_set

    def explode(batch: pa.Table) -> pa.Table:
        ids = batch[id_col].to_numpy(zero_copy_only=False)
        texts = batch[text_col].to_pylist()
        gram_lists = [list(ngram_set(t, n)) for t in texts]
        counts = np.fromiter((len(g) for g in gram_lists), np.int64,
                             count=len(gram_lists))
        flat: list = []
        for g in gram_lists:
            flat.extend(g)
        return pa.table({id_col: pa.array(np.repeat(ids, counts), pa.int64()),
                         "gram": pa.array(flat, pa.string())})

    grams = ds.map_batches(explode, batch_format="pyarrow").materialize()
    out_schema = {id_col: pa.int64(), "n_grams": pa.int64(),
                  "n_novel": pa.int64()}
    if grams.count() == 0:
        return ray.data.from_arrow(pa.table(
            {name: pa.array([], ty) for name, ty in out_schema.items()}))

    def per_doc_partial(batch: pa.Table) -> pa.Table:
        t = pa.table({id_col: batch[id_col],
                      "one": pa.array(np.ones(batch.num_rows, np.int64))})
        g = t.group_by(id_col).aggregate([("one", "sum")])
        return pa.table({id_col: pc.cast(g[id_col], pa.int64()),
                         "n_grams": g["one_sum"],
                         "n_novel": pa.array(
                             np.zeros(g.num_rows, np.int64))})

    df_tbl = grams.groupby("gram").aggregate(
        Count(alias_name="df"), Min(id_col, alias_name="owner"))

    def novel_partial(batch: pa.Table) -> pa.Table:
        b = batch.filter(pc.equal(batch["df"], 1))
        t = pa.table({id_col: b["owner"],
                      "one": pa.array(np.ones(b.num_rows, np.int64))})
        g = t.group_by(id_col).aggregate([("one", "sum")])
        return pa.table({id_col: pc.cast(g[id_col], pa.int64()),
                         "n_grams": pa.array(np.zeros(g.num_rows, np.int64)),
                         "n_novel": g["one_sum"]})

    partials = (grams.map_batches(per_doc_partial, batch_format="pyarrow")
                .union(df_tbl.map_batches(novel_partial,
                                          batch_format="pyarrow")))

    def per_doc(t: pa.Table) -> pa.Table:
        g = t.group_by(id_col).aggregate([("n_grams", "sum"),
                                          ("n_novel", "sum")])
        return pa.table({id_col: g[id_col], "n_grams": g["n_grams_sum"],
                         "n_novel": g["n_novel_sum"]})

    return keyed_exchange(partials, [id_col], per_doc,
                          out_schema).sort(id_col)


# ------------------------------------- hashed-ngram target affinity (DSIR)

AFFINITY_BUCKETS = 4096


def _affinity_bucketer(n_buckets: int):
    """Per-process cached word → bucket map under the repo-wide md5-hash32
    sampling rule (``hashing.hash32`` — the first-8-hex-digits-of-md5 rule
    every SQL oracle reproduces as
    ``cast(('0x' || substring(md5(w),1,8)) AS UBIGINT)``). The lru_cache
    makes the md5 cost proportional to DISTINCT words a worker sees, not
    token occurrences. Called INSIDE the batch fn (the factory itself is
    process-cached below) because a local lru_cache closure can't pickle
    into Ray tasks."""
    from ..hashing import hash32

    @lru_cache(maxsize=1 << 20)
    def bucket(word: str) -> int:
        return hash32(word) % n_buckets

    return bucket


_affinity_bucketer = lru_cache(maxsize=8)(_affinity_bucketer)


def affinity_fit(ds, target_source: str, *, n_buckets: int = AFFINITY_BUCKETS,
                 source_col: str = "source", text_col: str = "text"):
    """Fit hashed-unigram count vectors for a DSIR-style importance signal
    (Xie et al. 2023, "Data Selection for Language Models via Importance
    Resampling" — simplified here to an exact target-affinity ratio so the
    SQL oracle can reproduce it bit-for-bit): token occurrences from rows
    whose ``source_col`` equals ``target_source`` land in the target
    vector, everything else in the raw vector, bucketed by
    hash32(word) % n_buckets.

    Scale story: the per-batch combiner emits at most ``n_buckets``
    nonzero (bucket, n_target, n_raw) partial rows regardless of batch
    text volume; ONE bounded groupby sums them; the result is a fixed
    2 × n_buckets int64 table (64 KB at the default 4096) — constant
    broadcast cost at any corpus scale. Tokenizer is the re.ASCII ``\\w+``
    on lowered text shared with word_freq_top / token_counts, so counts
    match the RE2 ``regexp_extract_all`` oracles exactly.

    Returns ``(target_counts, raw_counts)`` int64 numpy vectors.
    """
    import re
    from collections import Counter

    from ray.data.aggregate import Sum

    word_re = re.compile(r"\w+", re.ASCII)

    def partial(batch: pa.Table) -> pa.Table:
        bucket = _affinity_bucketer(n_buckets)
        texts = batch[text_col].to_pylist()
        srcs = batch[source_col].to_pylist()
        tgt = np.zeros(n_buckets, np.int64)
        raw = np.zeros(n_buckets, np.int64)
        for s, t in zip(srcs, texts):
            acc = tgt if s == target_source else raw
            for w, n in Counter(word_re.findall((t or "").lower())).items():
                acc[bucket(w)] += n
        nz = np.flatnonzero(tgt | raw)
        return pa.table({"bucket": pa.array(nz.astype(np.int64)),
                         "n_target": pa.array(tgt[nz]),
                         "n_raw": pa.array(raw[nz])})

    agg = (ds.map_batches(partial, batch_format="pyarrow")
           .groupby("bucket")
           .aggregate(Sum("n_target", alias_name="n_target"),
                      Sum("n_raw", alias_name="n_raw")))
    tgt_counts = np.zeros(n_buckets, np.int64)
    raw_counts = np.zeros(n_buckets, np.int64)
    # bounded driver reduce (≤ n_buckets rows), the vocab_coverage
    # convention — never corpus-scale
    for row in agg.take_all():
        tgt_counts[row["bucket"]] = row["n_target"]
        raw_counts[row["bucket"]] = row["n_raw"]
    return tgt_counts, raw_counts


def affinity_score(ds, target_counts: np.ndarray, raw_counts: np.ndarray, *,
                   id_col: str = "doc_id", text_col: str = "text"):
    """Score every document against fitted affinity count vectors: per doc,
    ``target_mass`` / ``raw_mass`` are the exact integer sums of the
    target / raw bucket counts over its token OCCURRENCES (multiplicity
    included), and ``affinity`` is the single float division
    target_mass / max(raw_mass, 1) — order-defined, bit-identical in SQL.

    One vectorized streaming pass, no shuffle; the count vectors ride into
    each task as a fixed 64 KB closure constant. Zero-token docs score
    (0, 0, 0, 0.0). Returns (id, n_tokens, target_mass, raw_mass,
    affinity) rows.
    """
    import re
    from collections import Counter

    n_buckets = len(target_counts)
    word_re = re.compile(r"\w+", re.ASCII)

    def score(batch: pa.Table) -> pa.Table:
        bucket = _affinity_bucketer(n_buckets)
        texts = batch[text_col].to_pylist()
        n_tok = np.zeros(len(texts), np.int64)
        t_mass = np.zeros(len(texts), np.int64)
        r_mass = np.zeros(len(texts), np.int64)
        for i, t in enumerate(texts):
            c = Counter(word_re.findall((t or "").lower()))
            if not c:
                continue
            bs = np.fromiter((bucket(w) for w in c), np.int64, count=len(c))
            ns = np.fromiter(c.values(), np.int64, count=len(c))
            n_tok[i] = int(ns.sum())
            t_mass[i] = int((target_counts[bs] * ns).sum())
            r_mass[i] = int((raw_counts[bs] * ns).sum())
        return pa.table({
            id_col: batch[id_col],
            "n_tokens": pa.array(n_tok),
            "target_mass": pa.array(t_mass),
            "raw_mass": pa.array(r_mass),
            "affinity": pa.array(t_mass.astype(np.float64)
                                 / np.maximum(r_mass, 1).astype(np.float64)),
        })

    return ds.map_batches(score, batch_format="pyarrow")


def source_unigram_kl(ds, *, n_buckets: int = AFFINITY_BUCKETS,
                      source_col: str = "source", text_col: str = "text"):
    """Corpus-drift diagnostic: per-source KL divergence of the hashed
    4096-bucket unigram distribution against the whole corpus —
    KL(source ‖ corpus) = Σ_b p_b·ln(p_b/q_b) with p = c_sb/N_s,
    q = c_b/N. The standard check that a corpus slice (a crawl snapshot,
    a new source) hasn't drifted lexically from the mixture it feeds.

    Scale shape: the per-batch combiner emits ≤ n_sources × n_buckets
    (source, bucket, c) partials regardless of text volume; ONE bounded
    groupby sums them; the driver reduce touches the same bounded table
    (the vocab_coverage convention — never corpus-scale). Exactness:
    each bucket term is quantized to integer MICRO-NATS with libm
    ``math.log`` over the exact int counts in the same
    cast-divide-multiply order as the SQL (the unigram_logprob
    convention — DuckDB ln ≡ math.log bit-for-bit), so the per-source
    SUM is an order-independent int64 sum and the float ``kl`` is one
    division of it. Returns (source, n_tokens, kl_micro_nats, kl)
    sorted by source."""
    return _kl_from_bucket_rows(
        _source_bucket_rows(ds, n_buckets, source_col, text_col))


def _source_bucket_rows(ds, n_buckets: int, source_col: str,
                        text_col: str) -> list:
    """Bounded (source, bucket, c) hashed-unigram count table: per-batch
    combiner (≤ n_sources × n_buckets partials regardless of text
    volume) → ONE groupby → driver list (the vocab_coverage convention —
    never corpus-scale). Shared by `source_unigram_kl` and
    `source_jsd_matrix`."""
    import re
    from collections import Counter

    from ray.data.aggregate import Sum

    word_re = re.compile(r"\w+", re.ASCII)

    def partial(batch: pa.Table) -> pa.Table:
        bucket = _affinity_bucketer(n_buckets)
        c: Counter = Counter()
        for s, t in zip(batch[source_col].to_pylist(),
                        batch[text_col].to_pylist()):
            # null group key folds to '' (the group_zscore convention —
            # Ray's sort shuffle cannot compare None with str, and the
            # SQL side coalesces identically)
            s = s or ""
            for w, n in Counter(
                    word_re.findall((t or "").lower())).items():
                c[(s, bucket(w))] += n
        return pa.table({
            "source": pa.array([k[0] for k in c], pa.string()),
            "bucket": pa.array([k[1] for k in c], pa.int64()),
            "c": pa.array(list(c.values()), pa.int64())})

    agg = (ds.map_batches(partial, batch_format="pyarrow")
           .groupby(["source", "bucket"])
           .aggregate(Sum("c", alias_name="c")))
    return agg.take_all()   # bounded: ≤ n_sources × n_buckets


def _kl_from_bucket_rows(rows) -> pa.Table:
    """Driver reduce of `source_unigram_kl` over the bounded
    (source, bucket, c) table (split out so `source_jsd_matrix` shares
    the aggregation)."""
    import math

    n_s: dict = {}
    c_b: dict = {}
    for r in rows:
        n_s[r["source"]] = n_s.get(r["source"], 0) + int(r["c"])
        c_b[r["bucket"]] = c_b.get(r["bucket"], 0) + int(r["c"])
    total = sum(c_b.values())
    kl_micro: dict = {s: 0 for s in n_s}
    for r in rows:
        s, c = r["source"], int(r["c"])
        ns, cb = n_s[s], c_b[r["bucket"]]
        term = (float(c) / float(ns)) \
            * math.log((float(c) * float(total))
                       / (float(ns) * float(cb))) * 1000000.0
        kl_micro[s] += int(math.floor(term))
    srcs = sorted(n_s)
    micro = [kl_micro[s] for s in srcs]
    return pa.table({
        "source": pa.array(srcs, pa.string()),
        "n_tokens": pa.array([n_s[s] for s in srcs], pa.int64()),
        "kl_micro_nats": pa.array(micro, pa.int64()),
        "kl": pa.array([m / 1000000.0 for m in micro], pa.float64())})


JSD_LOCAL_PAIRS_MAX = 4096  # pairs beyond this compute in Ray tasks


def _jsd_pair_micro(ca: dict, cb: dict, na: int, nb: int) -> int:
    """Micro-nat JSD of two bucket-count dicts — the ONE term definition
    both the driver-local and distributed pair paths (and the SQL
    oracle's expression) use."""
    import math

    micro = 0
    for b in set(ca) | set(cb):
        c1, c2 = ca.get(b, 0), cb.get(b, 0)
        p = float(c1) / float(na)
        q = float(c2) / float(nb)
        m = (p + q) / 2.0
        term = 0.0
        if c1 > 0:
            term = term + 0.5 * p * math.log(p / m)
        if c2 > 0:
            term = term + 0.5 * q * math.log(q / m)
        micro += int(math.floor(term * 1000000.0))
    return micro


def source_jsd_matrix(ds, *, n_buckets: int = AFFINITY_BUCKETS,
                      source_col: str = "source", text_col: str = "text",
                      local_pairs_max: int = JSD_LOCAL_PAIRS_MAX):
    """Pairwise Jensen–Shannon divergence between every two sources'
    hashed-unigram distributions — the symmetric, bounded (≤ ln 2)
    companion to `source_unigram_kl` for answering "which corpus slices
    mirror each other" (mixture design / provenance QC).

    Same bounded (source, bucket, c) table. Per (pair, bucket) the term

        0.5·p·ln(p/m) + 0.5·q·ln(q/m),  m = (p+q)/2

    is evaluated with libm ``math.log`` in the same cast order as the
    SQL and floor-quantized to integer micro-nats, so per-pair sums are
    order-independent int64 (the source_unigram_kl convention). Up to
    ``local_pairs_max`` pairs the reduce runs on the driver; beyond it
    (the pair count is quadratic in sources — thousands of provenance
    slices make it a real compute) the count table broadcasts once via
    ``ray.put`` and the pair list fans out over `map_batches` tasks,
    identical terms either route (pinned by test). Returns
    (source_a < source_b, jsd_micro_nats, jsd) sorted by the pair."""
    rows = _source_bucket_rows(ds, n_buckets, source_col, text_col)
    n_s: dict = {}
    by_src: dict = {}
    for r in rows:
        s, b, c = r["source"], int(r["bucket"]), int(r["c"])
        n_s[s] = n_s.get(s, 0) + c
        by_src.setdefault(s, {})[b] = c
    srcs = sorted(n_s)
    pair_keys = [(sa, sb) for i, sa in enumerate(srcs)
                 for sb in srcs[i + 1:]]

    if len(pair_keys) <= local_pairs_max:
        micros = [_jsd_pair_micro(by_src[sa], by_src[sb],
                                  n_s[sa], n_s[sb])
                  for sa, sb in pair_keys]
    else:
        import ray
        import ray.data

        counts_ref = ray.put((by_src, n_s))

        def chunk(batch: pa.Table) -> pa.Table:
            bs, ns = ray.get(counts_ref)
            out = [_jsd_pair_micro(bs[a], bs[b], ns[a], ns[b])
                   for a, b in zip(batch["source_a"].to_pylist(),
                                   batch["source_b"].to_pylist())]
            return batch.append_column("jsd_micro_nats",
                                       pa.array(out, pa.int64()))

        spec = pa.table({
            "source_a": pa.array([p[0] for p in pair_keys], pa.string()),
            "source_b": pa.array([p[1] for p in pair_keys], pa.string())})
        # one block per task slice — map_batches parallelism is per
        # BLOCK (the compact_partitions lesson), so spread the pair
        # list before mapping
        got = (ray.data.from_arrow(spec)
               .repartition(min(64, len(pair_keys)))
               .map_batches(chunk, batch_format="pyarrow")
               .to_pandas().sort_values(["source_a", "source_b"],
                                        kind="mergesort"))
        pair_keys = list(zip(got["source_a"], got["source_b"]))
        micros = [int(m) for m in got["jsd_micro_nats"]]

    return pa.table({
        "source_a": pa.array([p[0] for p in pair_keys], pa.string()),
        "source_b": pa.array([p[1] for p in pair_keys], pa.string()),
        "jsd_micro_nats": pa.array(micros, pa.int64()),
        "jsd": pa.array([m / 1000000.0 for m in micros],
                        pa.float64())})


def zipf_fit_by_source(ds, source_col: str = "source",
                       text_col: str = "text") -> pa.Table:
    """Per-source Zipf rank–frequency fit + hapax stats — the
    corpus-health diagnostic that flags template/boilerplate-heavy or
    synthetic slices (natural text fits slope ≈ −1; machine-generated or
    deduplicated-to-death slices drift): OLS slope of ln(freq) on
    ln(rank) over the source's word-frequency table, plus vocabulary
    size, hapax-legomenon count, and hapax fraction.

    Scale shape: the per-batch combiner emits (source, word, c)
    partials → ONE vocab-bounded groupby → driver reduce over the
    vocabulary table (the vocab_coverage convention — never
    corpus-scale). Exactness: rank ties break by word; each ln term and
    pairwise product is floor-quantized to integer micro-units with
    libm ``math.log`` (the unigram_logprob convention), sums run in
    Python bigints / SQL HUGEINT (they exceed int64 at real vocab
    sizes), and the slope is ONE division of two exact ints after
    nearest-double casts — bit-exact vs DuckDB. The fitted slope is of
    the quantized regression by contract. Returns one row per source
    with ≥1 word, sorted by source."""
    import math
    import re
    from collections import Counter

    from ray.data.aggregate import Sum

    word_re = re.compile(r"\w+", re.ASCII)

    def partial(batch: pa.Table) -> pa.Table:
        c: Counter = Counter()
        for s, t in zip(batch[source_col].to_pylist(),
                        batch[text_col].to_pylist()):
            s = s or ""
            for w, n in Counter(
                    word_re.findall((t or "").lower())).items():
                c[(s, w)] += n
        return pa.table({
            "source": pa.array([k[0] for k in c], pa.string()),
            "w": pa.array([k[1] for k in c], pa.string()),
            "c": pa.array(list(c.values()), pa.int64())})

    rows = (ds.map_batches(partial, batch_format="pyarrow")
            .groupby(["source", "w"])
            .aggregate(Sum("c", alias_name="c"))
            .take_all())   # bounded: vocabulary × sources, not corpus

    per: dict = {}
    for r in rows:
        per.setdefault(r["source"], []).append((int(r["c"]), r["w"]))
    out = {k: [] for k in ("source", "n_tokens", "vocab_size", "n_hapax",
                           "hapax_frac", "zipf_slope")}
    for s in sorted(per):
        items = sorted(per[s], key=lambda t: (-t[0], t[1]))
        v = len(items)
        n_tokens = sum(c for c, _ in items)
        hapax = sum(1 for c, _ in items if c == 1)
        sx = sy = sxy = sxx = 0
        for rank, (c, _) in enumerate(items, 1):
            lr, lc = math.log(rank), math.log(c)
            sx += math.floor(lr * 1000000.0)
            sy += math.floor(lc * 1000000.0)
            sxy += math.floor(lr * lc * 1000000.0)
            sxx += math.floor(lr * lr * 1000000.0)
        den = v * sxx * 1_000_000 - sx * sx
        num = v * sxy * 1_000_000 - sx * sy
        out["source"].append(s)
        out["n_tokens"].append(n_tokens)
        out["vocab_size"].append(v)
        out["n_hapax"].append(hapax)
        out["hapax_frac"].append(hapax / v)
        out["zipf_slope"].append(
            float(num) / float(den) if den != 0 else 0.0)
    return pa.table({
        "source": pa.array(out["source"], pa.string()),
        "n_tokens": pa.array(out["n_tokens"], pa.int64()),
        "vocab_size": pa.array(out["vocab_size"], pa.int64()),
        "n_hapax": pa.array(out["n_hapax"], pa.int64()),
        "hapax_frac": pa.array(out["hapax_frac"], pa.float64()),
        "zipf_slope": pa.array(out["zipf_slope"], pa.float64())})


def affinity_resample(scored, *, id_col: str = "doc_id"):
    """DSIR importance RESAMPLING over an ``affinity_score`` output:
    accept a row iff uniform(id) < affinity, with uniform =
    hash32(id) / 2^32 (the repo-wide md5 membership rule) — evaluated in
    EXACT integer arithmetic,

        hash32(id) * max(raw_mass, 1) < 2^32 * target_mass

    (Python bigints / SQL HUGEINT; no float enters the accept decision,
    so the kept set is bit-stable across engines and partitionings).
    Rows with affinity ≥ 1 are always kept; zero-target rows never. One
    streaming filter, no shuffle.
    """
    from ..hashing import hash32

    def keep(batch: pa.Table) -> pa.Table:
        ids = batch[id_col].to_pylist()
        tm = batch["target_mass"].to_pylist()
        rm = batch["raw_mass"].to_pylist()
        mask = [(hash32(i) * max(r, 1)) < ((1 << 32) * t)
                for i, t, r in zip(ids, tm, rm)]
        return batch.filter(pa.array(mask, pa.bool_()))

    return scored.map_batches(keep, batch_format="pyarrow")


# ----------------------------------------------- inverted index (top-df)

def inverted_index_topdf(ds, *, k: int = 100, id_col: str = "doc_id",
                         text_col: str = "text"):
    """Posting rows (word, df, doc_id) for the ``k`` highest-document-
    frequency terms — the distributed index-build primitive (the retrieval
    twin of word_freq_top's collection-frequency table).

    Scale story, two streaming passes:
    1. document frequency: per-batch combiner emits one (word, 1) per
       DISTINCT (doc, word) — each doc lives in exactly one batch, so the
       batch partials sum to exact df through one vocab-bounded groupby
       (the wordcount exchange, never a (word, doc) pair shuffle);
    2. the global top-k terms by (df DESC, word ASC) come from the
       stages/topk partial-top-k finisher (each block contributes ≤ k
       candidate rows — no vocabulary-wide sort);
    3. the ≤ k surviving terms broadcast as a closure constant and a
       second pass emits (word, df, doc_id) ONLY for those terms — the
       posting exchange is proportional to the answer, not the corpus.

    Tokenizer: the shared re.ASCII ``\\w+`` on lowered text. Returns rows
    sorted by (word, doc_id).
    """
    import re
    from collections import Counter

    import ray.data
    from ray.data.aggregate import Sum

    from .topk import topk_table

    word_re = re.compile(r"\w+", re.ASCII)

    def df_partial(batch: pa.Table) -> pa.Table:
        texts = batch[text_col].to_pylist()
        c: Counter = Counter()
        for t in texts:
            c.update(set(word_re.findall((t or "").lower())))
        return pa.table({"word": pa.array(list(c.keys()), pa.string()),
                         "df": pa.array(list(c.values()), pa.int64())})

    df_ds = (ds.map_batches(df_partial, batch_format="pyarrow")
             .groupby("word").aggregate(Sum("df", alias_name="df")))
    top = topk_table(df_ds, [("df", "descending"), ("word", "ascending")], k)
    out_schema = {"word": pa.string(), "df": pa.int64(),
                  "doc_id": pa.int64()}
    if top.num_rows == 0:
        return ray.data.from_arrow(pa.table(
            {name: pa.array([], ty) for name, ty in out_schema.items()}))
    df_of = dict(zip(top["word"].to_pylist(),
                     pc.cast(top["df"], pa.int64()).to_pylist()))

    def postings(batch: pa.Table) -> pa.Table:
        ids = batch[id_col].to_pylist()
        texts = batch[text_col].to_pylist()
        out_w: list = []
        out_id: list = []
        for i, t in zip(ids, texts):
            for w in set(word_re.findall((t or "").lower())):
                if w in df_of:
                    out_w.append(w)
                    out_id.append(i)
        return pa.table({"word": pa.array(out_w, pa.string()),
                         "df": pa.array([df_of[w] for w in out_w],
                                        pa.int64()),
                         "doc_id": pa.array(out_id, pa.int64())})

    return (ds.map_batches(postings, batch_format="pyarrow")
            .sort(["word", "doc_id"]))


# ------------------------------------------------------- C4 cleaning rules

C4_MIN_LINE_WORDS = 5
C4_MIN_KEPT_LINES = 3
# explicit charset (not locale/unicode trim) so DuckDB's trim(x, chars)
# and pyarrow's utf8_trim agree byte-for-byte
_C4_TRIM_CHARS = " \t\r\f\v"


def c4_clean(batch: pa.Table, text_col: str = "text",
             id_col: str = "doc_id") -> pa.Table:
    """The C4 cleaning heuristics (Raffel et al. 2020, §2.2) as ONE
    vectorized batch kernel — the famous line/document filter every
    web-text pipeline starts from:

    line rules (a line survives iff ALL hold, after explicit-charset trim):
      - ends in terminal punctuation (``. ! ? "``),
      - has ≥ 5 whitespace words,
      - does not contain the word "javascript" (case-insensitive);
    document rules (quarantine convention — dropped docs stay as rows):
      - 'dropped_lorem'  if the doc contains "lorem ipsum" (case-insens),
      - 'dropped_brace'  if the doc contains "{",
      - 'dropped_short'  if fewer than 3 lines survive,
      - 'kept' otherwise; clean_text = surviving lines rejoined with \\n
        (empty string for dropped docs).

    All predicates are RE2 kernels over the flattened line array (the
    _scrub_kernel flatten/parent-index pattern) — per-row Python touches
    only the final join. No shuffle; SQL reproduces every rule verbatim.
    Returns (doc_id, status, n_lines, n_kept, clean_text).
    """
    n = batch.num_rows
    text = pc.fill_null(batch[text_col], "")
    lines = pc.split_pattern(text, "\n")
    flat = pc.utf8_trim(pc.list_flatten(lines), _C4_TRIM_CHARS)
    parent = pc.list_parent_indices(lines).to_numpy(zero_copy_only=False)

    term = pc.match_substring_regex(flat, r'[.!?"]$')
    words = pc.greater_equal(
        pc.count_substring_regex(flat, r"\S+"),
        pa.scalar(C4_MIN_LINE_WORDS, pa.int32()))
    js = pc.match_substring_regex(pc.utf8_lower(flat), r"\bjavascript\b")
    keep = pc.and_(pc.and_(term, words), pc.invert(js)) \
        .to_numpy(zero_copy_only=False)

    n_lines = np.bincount(parent, minlength=n).astype(np.int64)
    kept_lines = flat.to_numpy(zero_copy_only=False)[keep]
    kept_parent = parent[keep]
    n_kept = np.bincount(kept_parent, minlength=n).astype(np.int64)
    offsets = np.concatenate(([0], np.cumsum(n_kept)))

    lorem = pc.match_substring(pc.utf8_lower(text), "lorem ipsum") \
        .to_numpy(zero_copy_only=False)
    brace = pc.match_substring(text, "{").to_numpy(zero_copy_only=False)
    status = np.select(
        [lorem, brace, n_kept < C4_MIN_KEPT_LINES],
        ["dropped_lorem", "dropped_brace", "dropped_short"],
        default="kept")
    texts = ["\n".join(kept_lines[offsets[i]:offsets[i + 1]])
             if status[i] == "kept" else "" for i in range(n)]
    return pa.table({
        id_col: batch[id_col],
        "status": pa.array(status.astype(object), pa.string()),
        "n_lines": pa.array(n_lines),
        "n_kept": pa.array(n_kept),
        "clean_text": pa.array(texts, pa.string())})


# ------------------------------------------------- encoding / mojibake QC

# common UTF-8-decoded-as-Latin-1 artifact sequences (the ftfy top set);
# literal alternation so DuckDB's RE2 and pyarrow's RE2 agree trivially
MOJIBAKE_RE = "Ã©|Ã¨|Ã¼|Ã¶|Ã±|Ã¯|Ã¡|Ã³|â€™|â€œ|â€“|â€”|Â·|Â°"
REPLACEMENT_CHAR = "�"
# C0 controls minus \t\n\r plus DEL — the bytes a clean decode never emits
CTRL_RE = r"[\x00-\x08\x0b\x0c\x0e-\x1f\x7f]"


def encoding_qc(batch: pa.Table, text_col: str = "text") -> pa.Table:
    """Encoding-artifact QC — the decode-sanity gate every web-crawl
    pipeline runs before training (ftfy-style detection, not repair):
    counts of mojibake sequences (UTF-8 read as Latin-1), U+FFFD
    replacement characters, and stray control characters, plus the
    printable-ASCII ratio. status ranks the worst artifact present
    (has_ctrl > has_replacement > mojibake > clean).

    Four vectorized RE2 counts per batch, no shuffle; every expression
    (including the ascii_ratio division of exact ints) reproduces
    verbatim in SQL."""
    text = pc.fill_null(batch[text_col], "")
    n_chars = pc.cast(pc.utf8_length(text), pa.int64())
    n_moji = pc.cast(pc.count_substring_regex(text, MOJIBAKE_RE), pa.int64())
    n_repl = pc.cast(pc.count_substring(text, REPLACEMENT_CHAR), pa.int64())
    n_ctrl = pc.cast(pc.count_substring_regex(text, CTRL_RE), pa.int64())
    n_ascii = pc.cast(pc.count_substring_regex(text, "[ -~]"), pa.int64())
    ascii_ratio = pc.divide(
        pc.cast(n_ascii, pa.float64()),
        pc.max_element_wise(pc.cast(n_chars, pa.float64()), pa.scalar(1.0)))
    status = pc.if_else(
        pc.greater(n_ctrl, 0), pa.scalar("has_ctrl"),
        pc.if_else(pc.greater(n_repl, 0), pa.scalar("has_replacement"),
                   pc.if_else(pc.greater(n_moji, 0), pa.scalar("mojibake"),
                              pa.scalar("clean"))))
    return _emit(batch, {
        "n_mojibake": n_moji, "n_replacement": n_repl, "n_ctrl": n_ctrl,
        "ascii_ratio": ascii_ratio, "status": status})


# C4's "bad words" page gate (Raffel et al. JMLR'20 §2.2 drops any page
# containing a term from the LDNOOBW blocklist). The public list is
# profanity; the synthetic corpus uses a deterministic stand-in chosen to
# actually hit (the mechanism — whole-word case-insensitive alternation,
# drop-on-any-hit — is what the operator implements; callers pass their
# own list in production).
BADWORDS = ("slow", "dup", "spark")


def _word_literal_pat(w: str) -> str:
    """Case-insensitive whole-word pattern for a LITERAL term: escaped,
    with \\b applied per edge only where the term's own edge is a word
    char (\\b at a non-word edge can never match, and RE2 offers no
    lookaround alternative)."""
    e = re.escape(w)
    if re.match(r"\w", w[:1]):
        e = r"\b" + e
    if re.match(r"\w", w[-1:]):
        e = e + r"\b"
    return "(?i)" + e


def badwords_counts(batch: pa.Table, text_col: str = "text",
                    words: tuple = BADWORDS) -> pa.Table:
    """Per-term whole-word case-insensitive hit counts + total + the C4
    kept flag (kept ⇔ zero hits). One vectorized RE2 count per term, no
    shuffle; RE2 on both sides (pyarrow.compute and DuckDB) makes the
    counts bit-exact in SQL."""
    text = pc.fill_null(batch[text_col], "")
    # terms are LITERALS (re.escape) — a caller-supplied list may contain
    # regex metacharacters ("c++"). \b only asserts at a word-char edge
    # (and RE2 has no lookarounds), so each boundary is applied only when
    # that end of the term IS a word char — the standard whole-word rule
    per = {f"n_{w}": pc.cast(
        pc.count_substring_regex(text, _word_literal_pat(w)), pa.int64())
        for w in words}
    total = None
    for c in per.values():
        total = c if total is None else pc.add(total, c)
    return _emit(batch, {**per, "n_hits": total,
                         "kept": pc.equal(total, 0)})


def unigram_entropy(batch: pa.Table, text_col: str = "text") -> pa.Table:
    """Per-document Shannon entropy of the word distribution — the
    RedPajama-v2 ``rps_doc_unigram_entropy`` quality signal (low entropy
    ⇔ repetitive/template text; complements the Gopher repetition
    counts with a single scalar).

    Entropy = Σ_w (c/n)·ln(n/c) over the doc's distinct words. Each term
    is floor-quantized to integer micro-nats with libm ``math.log``
    evaluated once per DISTINCT (c, n) pair (numpy's SIMD log can differ
    from DuckDB's ln by 1 ulp and flip a floor — the NLP_SCALE
    convention), so per-doc sums are order-independent int64 and the
    float ``entropy`` is one exact division. Zero-word docs carry 0/0."""
    import math

    import pandas as pd

    text = pc.fill_null(batch[text_col], "")
    n = batch.num_rows
    w, p = word_frames(text)
    n_words = np.bincount(p, minlength=n).astype(np.int64)
    micro = np.zeros(n, np.int64)
    if len(w):
        cnt = pd.DataFrame({"p": p, "w": w}) \
            .groupby(["p", "w"], sort=False).size().reset_index(name="c")
        cp = cnt["p"].to_numpy()
        c = cnt["c"].to_numpy(np.int64)
        nn = n_words[cp]
        uniq, inv = np.unique(np.stack([c, nn], 1), axis=0,
                              return_inverse=True)
        terms = np.fromiter(
            (math.floor((ci / ni) * math.log(ni / ci) * 1000000.0)
             for ci, ni in uniq), np.int64, len(uniq))
        np.add.at(micro, cp, terms[inv])
    return _emit(batch, {
        "n_words": pa.array(n_words),
        "entropy_micro_nats": pa.array(micro),
        "entropy": pa.array(micro / 1_000_000.0, pa.float64())})


def readability(batch: pa.Table, text_col: str = "text") -> pa.Table:
    """Flesch reading-ease + Flesch–Kincaid grade per document — the
    classic readability quality signal (a standard curation feature
    alongside the Gopher/RPv2 counts; e.g. a kid-safe or textbook-style
    subset selects on FK grade).

    Syllables use the vowel-group heuristic: per word,
    max(1, count of ``[aeiouy]+`` runs in the lowered word) — one
    vectorized RE2 count over the flat word frame. The corpus is
    unpunctuated word soup, so sentence segmentation is the
    deterministic k-word rule (k = 5 + doc_id % 4, sentences =
    ceil(words / k)) — reproduced verbatim in SQL, same shape as the
    c4_clean construction convention. Both scores are single float
    expressions of exact int counts evaluated in the same literal
    order on both sides (IEEE ops are exactly rounded → bit-exact).
    Purely per-row, no shuffle."""
    text = pc.fill_null(batch[text_col], "")
    n = batch.num_rows
    w, p = word_frames(text)
    n_words = np.bincount(p, minlength=n).astype(np.int64)
    n_syll = np.zeros(n, np.int64)
    if len(w):
        syl = pc.max_element_wise(
            pc.cast(pc.count_substring_regex(
                pc.utf8_lower(pa.array(w, pa.string())), "[aeiouy]+"),
                pa.int64()),
            pa.scalar(1, pa.int64())).to_numpy()
        # bincount weights are float64 — exact for these small ints
        n_syll = np.bincount(p, weights=syl, minlength=n).astype(np.int64)
    ids = batch["doc_id"].to_numpy(zero_copy_only=False)
    k = 5 + (ids % 4)
    n_sent = (n_words + k - 1) // k
    wps = n_words / np.maximum(n_sent, 1)
    spw = n_syll / np.maximum(n_words, 1)
    flesch = 206.835 - 1.015 * wps - 84.6 * spw
    fk_grade = 0.39 * wps + 11.8 * spw - 15.59
    return _emit(batch, {
        "n_words": pa.array(n_words),
        "n_sentences": pa.array(n_sent.astype(np.int64)),
        "n_syllables": pa.array(n_syll),
        "flesch": pa.array(flesch, pa.float64()),
        "fk_grade": pa.array(fk_grade, pa.float64())})


def paragraph_dedup(batch: pa.Table, text_col: str = "text",
                    para_words: int = 6) -> pa.Table:
    """Within-document duplicate-paragraph removal + the Gopher
    duplicate-paragraph metrics (Rae et al. A1.1: fraction of duplicate
    paragraphs / fraction of characters in duplicate paragraphs) — the
    RefinedWeb/Dolma in-document cleaning step that precedes corpus-level
    dedup.

    The corpus is unpunctuated single-line word soup, so paragraphs are
    the deterministic ``para_words``-word grouping, and a duplicate is
    grafted per doc_id % 3 (0 → copy of the first paragraph appended,
    1 → copy of the last, else none) so both dup branches occur — the
    c4_clean construction convention, reproduced verbatim in SQL. Keep
    rule: first occurrence of each exact paragraph, original order.
    ``dup_para_char_frac`` is one float division of exact int char
    sums. Purely per-row, no shuffle."""
    import pandas as pd

    text = pc.fill_null(batch[text_col], "")
    n = batch.num_rows
    ids = batch["doc_id"].to_numpy(zero_copy_only=False)
    w, p = word_frames(text)
    n_words = np.bincount(p, minlength=n).astype(np.int64)
    starts = np.concatenate([[0], np.cumsum(n_words)[:-1]])
    widx = np.arange(len(p), dtype=np.int64) - starts[p]

    occ = pd.DataFrame({"p": p, "i": widx // para_words, "w": w}) \
        .groupby(["p", "i"], sort=True)["w"].agg(" ".join).reset_index()
    # graft one duplicate per doc_id%3 branch (docs with ≥1 paragraph)
    last = occ.groupby("p", sort=False).agg(
        n=("i", "size"), first=("w", "first"), final=("w", "last"))
    g = ids[last.index] % 3
    graft = last[g != 2]
    gw = np.where(g[g != 2] == 0, graft["first"], graft["final"])
    if len(graft):
        occ = pd.concat([occ, pd.DataFrame(
            {"p": graft.index, "i": graft["n"].to_numpy(),
             "w": gw})], ignore_index=True)

    n_paras = np.zeros(n, np.int64)
    n_dup = np.zeros(n, np.int64)
    dup_chars = np.zeros(n, np.int64)
    tot_chars = np.zeros(n, np.int64)
    texts = np.full(n, "", object)
    if len(occ):
        occ["len"] = occ["w"].str.len().astype(np.int64)
        per = occ.groupby("p", sort=False)
        n_paras[per.size().index] = per.size().to_numpy()
        tot_chars[per["len"].sum().index] = per["len"].sum().to_numpy()
        grp = occ.groupby(["p", "w"], sort=False).agg(
            fidx=("i", "min"), c=("i", "size"), ln=("len", "first")) \
            .reset_index()
        dd = grp.groupby("p", sort=False)
        extra = (grp["c"] - 1).to_numpy()
        n_dup_s = pd.Series(extra, index=grp["p"]).groupby(level=0).sum()
        n_dup[n_dup_s.index] = n_dup_s.to_numpy()
        dc = pd.Series(extra * grp["ln"].to_numpy(),
                       index=grp["p"]).groupby(level=0).sum()
        dup_chars[dc.index] = dc.to_numpy()
        joined = grp.sort_values(["p", "fidx"], kind="mergesort") \
            .groupby("p", sort=False)["w"].agg("\n\n".join)
        texts[joined.index] = joined.to_numpy()
    frac = dup_chars / np.maximum(tot_chars, 1)
    return _emit(batch, {
        "n_paragraphs": pa.array(n_paras),
        "n_dup_paragraphs": pa.array(n_dup),
        "dup_para_char_frac": pa.array(frac, pa.float64()),
        "dedup_text": pa.array(texts, pa.string())})


# ------------------------------------------------ group-stat normalization

def group_zscore(ds, group_col: str, value_col: str,
                 out_col: str = "z"):
    """Per-group z-score normalization — the feature-scaling step quality
    classifiers and mixture samplers need (normalize a signal WITHIN each
    language / source before thresholding across them).

    Two streaming passes: (1) per-batch partial (sum, sumsq, count) per
    group → one bounded groupby (≤ n_groups rows) → bounded driver
    reduce (the affinity_fit / vocab_coverage convention — group
    cardinality, never corpus-scale); (2) one vectorized scoring pass
    with the per-group (mean, std) table riding into tasks as a closure
    constant. ``value_col`` must be integer-valued: the moments are
    EXACT int64 sums, so mean/std/z are each single float expressions of
    exact ints — bit-identical in SQL (population std; std == 0 → z 0.0,
    e.g. singleton groups). int64 overflow bound: sum(v²) over a 1e12-row
    group stays exact for |v| ≤ ~3e3 — per-doc word/line/sentence counts
    fit; byte-scale signals (|v| up to ~3e9 only for ≤ 1 row) need a
    wider accumulator and are the caller's responsibility."""
    import pandas as _pd
    from ray.data.aggregate import Sum

    def _keys(batch: pa.Table):
        # NULL group keys fold into '' (the pervasive (s or '')
        # convention): Ray's sort-based groupby shuffle cannot compare
        # None with str, so nulls can't ride through as their own key
        col = batch[group_col]
        if pa.types.is_string(col.type) or pa.types.is_large_string(col.type):
            col = pc.fill_null(col, "")
        return col

    def partial(batch: pa.Table) -> pa.Table:
        v = batch[value_col].to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        df = _pd.DataFrame({"g": _keys(batch).to_pandas(),
                            "v": v, "v2": v * v})
        g = df.groupby("g", sort=False, dropna=False)
        m = g.agg(_s=("v", "sum"), _s2=("v2", "sum"), _n=("v", "size"))
        return pa.table({
            # explicit type: an object-index round-trip would erode an
            # empty block to Arrow null type (the schema-erosion trap)
            group_col: pa.array(m.index.to_numpy(dtype=object),
                                type=batch.schema.field(group_col).type,
                                from_pandas=True),
            "_s": pa.array(m["_s"].to_numpy(np.int64)),
            "_s2": pa.array(m["_s2"].to_numpy(np.int64)),
            "_n": pa.array(m["_n"].to_numpy(np.int64))})

    agg = (ds.map_batches(partial, batch_format="pyarrow")
           .groupby(group_col)
           .aggregate(Sum("_s", alias_name="_s"),
                      Sum("_s2", alias_name="_s2"),
                      Sum("_n", alias_name="_n")))
    stats: dict = {}
    for row in agg.take_all():     # bounded: one row per group
        s, s2, n = float(row["_s"]), float(row["_s2"]), float(row["_n"])
        mean = s / n
        var = s2 / n - mean * mean
        std = float(np.sqrt(var)) if var > 0.0 else 0.0
        stats[row[group_col]] = (mean, std)

    def score(batch: pa.Table) -> pa.Table:
        groups = _keys(batch).to_pandas()
        mean = groups.map(lambda g: stats[g][0]).to_numpy(np.float64)
        std = groups.map(lambda g: stats[g][1]).to_numpy(np.float64)
        v = batch[value_col].to_numpy(zero_copy_only=False) \
            .astype(np.float64)
        z = np.where(std > 0.0, (v - mean) / np.where(std > 0.0, std, 1.0),
                     0.0)
        return batch.append_column(out_col, pa.array(z, pa.float64()))

    return ds.map_batches(score, batch_format="pyarrow")


# --------------------------------------------------- BPE tokenizer fitting

def _bpe_word_table(ds, text_col: str):
    """The corpus tokenized ONCE into a materialized (word, n) table —
    the Sennrich fit structure: every subsequent pair-count round runs
    over the VOCABULARY (each distinct word exactly once, with its
    corpus multiplicity), so an n_merges fit costs one corpus pass plus
    n_merges vocab passes instead of n_merges corpus passes."""
    import re
    from collections import Counter

    from ray.data.aggregate import Sum

    word_re = re.compile(r"\w+", re.ASCII)

    def partial(batch: pa.Table) -> pa.Table:
        c: Counter = Counter()
        for t in batch[text_col].to_pylist():
            c.update(word_re.findall((t or "").lower()))
        return pa.table({"word": pa.array(list(c.keys()), pa.string()),
                         "n": pa.array(list(c.values()), pa.int64())})

    return (ds.map_batches(partial, batch_format="pyarrow")
            .groupby("word").aggregate(Sum("n", alias_name="n"))
            .materialize())


def _pairs_from_word_counts(words, counts, ranks: "dict | None"):
    """Adjacent-SYMBOL pair Counter over (word, count) rows — the ONE
    pair definition every BPE statistic uses. ``ranks=None`` means
    character symbols (round 1); a merge-rank dict segments via
    `_bpe_segment`."""
    from collections import Counter

    pairs: Counter = Counter()
    for w, c in zip(words, counts):
        syms = _bpe_segment(w, ranks) if ranks else list(w)
        for i in range(len(syms) - 1):
            pairs[(syms[i], syms[i + 1])] += c
    return pairs


def bpe_pair_counts(ds, k: int = 100, text_col: str = "text"):
    """Round-1 BPE merge candidates (Sennrich et al. 2016): adjacent
    CHARACTER pair frequencies over word occurrences — the statistic the
    first merge of every BPE tokenizer fit maximizes, as a distributed
    aggregation.

    The corpus tokenizes once into the shared `_bpe_word_table`; pairs
    are counted per DISTINCT word × its corpus count — cost ∝
    vocabulary, not tokens. Partials sum exactly (int64) through one
    pair-keyed groupby, then the stages/topk partial-top-k finisher
    picks the top-k (count DESC, pair ASC) without sorting the pair
    vocabulary. Returns a ≤k-row Dataset (pair, n) — value-exact in SQL
    via per-word substring unnesting."""
    import ray.data
    from ray.data.aggregate import Sum

    from .topk import topk_table

    def partial(batch: pa.Table) -> pa.Table:
        pairs = _pairs_from_word_counts(
            batch["word"].to_pylist(), batch["n"].to_pylist(), None)
        return pa.table({"pair": pa.array([l + r for l, r in pairs],
                                          pa.string()),
                         "n": pa.array(list(pairs.values()), pa.int64())})

    agg = (_bpe_word_table(ds, text_col)
           .map_batches(partial, batch_format="pyarrow")
           .groupby("pair").aggregate(Sum("n", alias_name="n")))
    top = topk_table(agg, [("n", "descending"), ("pair", "ascending")], k)
    if top.num_rows == 0:
        top = pa.table({"pair": pa.array([], pa.string()),
                        "n": pa.array([], pa.int64())})
    return ray.data.from_arrow(
        top.select(["pair", "n"]).cast(
            pa.schema([("pair", pa.string()), ("n", pa.int64())])))


def _bpe_segment(word: str, ranks: dict) -> list:
    """Apply merges greedily in rank order (the standard BPE apply)."""
    syms = list(word)
    while len(syms) > 1:
        best, best_i = None, -1
        for i in range(len(syms) - 1):
            r = ranks.get((syms[i], syms[i + 1]))
            if r is not None and (best is None or r < best):
                best, best_i = r, i
        if best is None:
            break
        syms[best_i:best_i + 2] = [syms[best_i] + syms[best_i + 1]]
    return syms


def bpe_merges(ds, n_merges: int = 8, text_col: str = "text") -> pa.Table:
    """Iterative BPE tokenizer fit ON the engine: the corpus tokenizes
    ONCE into the materialized `_bpe_word_table` (word, n), then
    ``n_merges`` rounds of (vocab-pass adjacent-symbol pair count →
    argmax merge) run over that table — one corpus pass total plus
    n_merges VOCABULARY passes, the Sennrich fit structure (at 100 TB
    the vocabulary is orders of magnitude smaller than the corpus, so
    rounds stop re-reading text). The merge table so far rides into
    tasks as a closure constant (≤ n_merges entries — KBs at any corpus
    scale). Word frequencies are exact int64 partials, so every round's
    argmax — ties broken (count DESC, pair ASC) — is deterministic and
    partition-invariant.

    Inherently iterative (each round's statistic depends on the previous
    argmax) — no SQL form; correctness is pinned by a pure-python
    differential test. Returns (rank, left, right, n) — the merge table a
    tokenizer would ship."""
    from ray.data.aggregate import Sum

    from .topk import topk_table

    words = _bpe_word_table(ds, text_col)
    merges: list = []          # [(left, right, count)]
    for _ in range(n_merges):
        ranks = {(l, r): i for i, (l, r, _) in enumerate(merges)}

        def partial(batch: pa.Table, ranks=ranks) -> pa.Table:
            pairs = _pairs_from_word_counts(
                batch["word"].to_pylist(), batch["n"].to_pylist(),
                ranks or None)
            return pa.table({
                "left": pa.array([p[0] for p in pairs], pa.string()),
                "right": pa.array([p[1] for p in pairs], pa.string()),
                "n": pa.array(list(pairs.values()), pa.int64())})

        agg = (words.map_batches(partial, batch_format="pyarrow")
               .groupby(["left", "right"]).aggregate(Sum("n", alias_name="n")))
        # distributed argmax: the partial-top-k finisher prunes each
        # batch to 1 row, so the driver merge sees ≤ 1 row per batch —
        # never the pair vocabulary
        top = topk_table(agg, [("n", "descending"), ("left", "ascending"),
                               ("right", "ascending")], 1)
        if top.num_rows == 0:
            break
        merges.append((top["left"][0].as_py(), top["right"][0].as_py(),
                       int(top["n"][0].as_py())))

    return pa.table({
        "rank": pa.array(range(len(merges)), pa.int64()),
        "left": pa.array([m[0] for m in merges], pa.string()),
        "right": pa.array([m[1] for m in merges], pa.string()),
        "n": pa.array([m[2] for m in merges], pa.int64())})


def bpe_encode(ds, merges: pa.Table, *, id_col: str = "doc_id",
               text_col: str = "text", preview_k: int = 12):
    """Apply a fitted BPE merge table (``bpe_merges`` output, or any
    (rank, left, right) table) to every document — the ENCODE half of
    the tokenizer pair, i.e. the real token counter a packing /
    budget-planning stage needs (whitespace proxies over-count exactly
    where BPE compresses most).

    Per batch: word Counter first, each DISTINCT word segmented once via
    the shared greedy-merge ``_bpe_segment`` (cost ∝ distinct words, not
    tokens), then exact int64 per-doc totals. The merge table rides into
    tasks as a closure-constant rank dict (≤ n_merges entries — KBs at
    any corpus scale); one streaming pass, no shuffle. Returns
    (id, n_words, n_bpe_tokens, compression — chars-per-token as a
    single float division — and a ``preview`` of the first ``preview_k``
    symbols for inspectability).
    """
    import re

    word_re = re.compile(r"\w+", re.ASCII)
    # priority comes from the rank COLUMN, not row order — a merge table
    # read back from storage / sorted for inspection must segment the
    # same way as the freshly-fitted one
    if "rank" in merges.column_names:
        ranks = {(l, r): int(k) for k, l, r in zip(
            merges["rank"].to_pylist(), merges["left"].to_pylist(),
            merges["right"].to_pylist())}
    else:
        ranks = {(l, r): i for i, (l, r) in enumerate(
            zip(merges["left"].to_pylist(), merges["right"].to_pylist()))}

    def encode(batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        n_words = np.zeros(n, np.int64)
        n_tok = np.zeros(n, np.int64)
        n_chars = np.zeros(n, np.int64)
        previews = []
        seg_cache: dict = {}
        for i, t in enumerate(batch[text_col].to_pylist()):
            words = word_re.findall((t or "").lower())
            head: list = []
            for w in words:
                s = seg_cache.get(w)
                if s is None:
                    s = _bpe_segment(w, ranks) if ranks else list(w)
                    seg_cache[w] = s
                n_tok[i] += len(s)
                if len(head) < preview_k:
                    head.extend(s)
            n_words[i] = len(words)
            n_chars[i] = sum(len(w) for w in words)
            previews.append(" ".join(head[:preview_k]))
        comp = n_chars.astype(np.float64) \
            / np.maximum(n_tok, 1).astype(np.float64)
        return pa.table({
            id_col: batch[id_col],
            "n_words": pa.array(n_words),
            "n_bpe_tokens": pa.array(n_tok),
            "chars_per_token": pa.array(comp, pa.float64()),
            "preview": pa.array(previews, pa.string())})

    return ds.map_batches(encode, batch_format="pyarrow")


# ------------------------------------------------------------ script mix

# Unicode script ranges for the code-switching / script-mix signal.
# Deliberately EXACT-RANGE (not regex \p{} classes): the engine counts
# codepoints with numpy comparisons and the SQL oracle with RE2
# [\x{...}-\x{...}] classes over the same ranges, so both sides agree
# by construction. "space" is U+0020 ONLY (counted via replace() in
# SQL) — RE2 \s and Python ASCII \s disagree on \v, so neither is used.
SCRIPT_RANGES = (
    ("latin", ((0x41, 0x5A), (0x61, 0x7A))),
    ("digit", ((0x30, 0x39),)),
    ("cyrillic", ((0x0400, 0x04FF),)),
    ("cjk", ((0x4E00, 0x9FFF),)),
    ("greek", ((0x0370, 0x03FF),)),
)


def script_mix(batch: pa.Table, text_col: str = "text") -> pa.Table:
    """Per-document Unicode-script histogram — the code-switching /
    wrong-script-for-declared-language signal multilingual web pipelines
    (CCNet, mC4, OSCAR) gate on before language-specific filtering.

    Vectorized across the WHOLE batch: one utf-32 decode of the
    concatenated batch text -> a single uint32 codepoint array, one
    boolean mask per script class, and per-doc counts via cumulative-sum
    differences at document offsets (exact for empty docs, unlike
    reduceat). No Python loop over rows, no shuffle; mix_frac_micro is
    an exact integer micro-fraction so the SQL comparison is bit-exact.

    dominant_script = first-max over (latin, digit, cyrillic, cjk,
    greek) in that fixed order, 'none' when all are zero — np.argmax
    first-hit semantics, reproduced in SQL as an ordered CASE chain."""
    texts = [t or "" for t in batch[text_col].to_pylist()]
    joined = "".join(texts)
    cp = np.frombuffer(joined.encode("utf-32-le"), dtype=np.uint32)
    lens = np.fromiter((len(t) for t in texts), dtype=np.int64,
                       count=len(texts))
    bounds = np.concatenate([np.zeros(1, np.int64), np.cumsum(lens)])

    def seg_counts(mask: np.ndarray) -> np.ndarray:
        cs = np.concatenate([np.zeros(1, np.int64),
                             np.cumsum(mask, dtype=np.int64)])
        return cs[bounds[1:]] - cs[bounds[:-1]]

    counts = {}
    for name, ranges in SCRIPT_RANGES:
        m = np.zeros(len(cp), dtype=bool)
        for lo, hi in ranges:
            m |= (cp >= lo) & (cp <= hi)
        counts[name] = seg_counts(m)
    n_space = seg_counts(cp == 0x20)
    n_chars = lens
    classified = sum(counts.values()) + n_space
    n_other = n_chars - classified

    script_names = [n for n, _ in SCRIPT_RANGES]
    mat = np.stack([counts[n] for n in script_names])  # (5, n_docs)
    arg = np.argmax(mat, axis=0)
    dominant = np.array(script_names, dtype=object)[arg]
    dominant[mat.max(axis=0) == 0] = "none"

    non_latin = counts["cyrillic"] + counts["cjk"] + counts["greek"]
    mix = non_latin * 1_000_000 // np.maximum(n_chars, 1)

    return _emit(batch, {
        "n_chars": pa.array(n_chars, pa.int64()),
        "n_latin": pa.array(counts["latin"], pa.int64()),
        "n_digit": pa.array(counts["digit"], pa.int64()),
        "n_cyrillic": pa.array(counts["cyrillic"], pa.int64()),
        "n_cjk": pa.array(counts["cjk"], pa.int64()),
        "n_greek": pa.array(counts["greek"], pa.int64()),
        "n_space": pa.array(n_space, pa.int64()),
        "n_other": pa.array(n_other, pa.int64()),
        "dominant_script": pa.array(list(dominant), pa.string()),
        "mix_frac_micro": pa.array(mix, pa.int64())})
