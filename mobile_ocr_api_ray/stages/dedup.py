"""Deduplication operators: exact, MinHash+LSH, SimHash, n-gram Jaccard,
embedding-cosine near-dup.

The reference's only dedup mechanism is the v2 OCR result cache — "identical
input computed once" (app2.py:46-48,329-336); at corpus scale that becomes
the family of operators a training-data pipeline needs. All are expressed
as Dataset transforms:

- exact:    content digest (md5, matching DuckDB's ``md5()`` for the SQL
            oracle) → groupby(digest) → representative per group.
- MinHash:  word-shingle → 64-perm minhash → 16 bands × 4 rows → explode to
            (band_id, band_hash, signature) rows → group by band → candidate
            pairs with signature-estimated Jaccard → global pair dedup.
- SimHash:  64-bit token-frequency simhash; near-dups via 4×16-bit band
            blocking + Hamming distance ≤ 3.
- n-gram Jaccard: exact verification kernel (used standalone on candidate
            pairs or in tests against MinHash estimates).
- embedding: sign-LSH bucket groupby → within-bucket pairwise cosine ≥ t
            (scale path); brute-force pairwise for oracle-sized inputs.

Every grouped exchange here is one ``exchange.keyed_exchange`` call: an
operator names the key columns it groups on and an Arrow/numpy function
of one coarse group; routing, the group call and the typed empty result
live in stages/exchange.py.

All hashes are crc32/blake2-based — stable across processes (PYTHONHASHSEED-
independent); permutation constants derive from numpy RandomState(42).
"""

from __future__ import annotations

import hashlib
import zlib

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from .exchange import N_COARSE, keyed_exchange, nonempty_or_typed_table

_PAIR_IDS = {"id_a": pa.int64(), "id_b": pa.int64()}


def _np(col) -> np.ndarray:
    return col.to_numpy(zero_copy_only=False)


def _np64(col) -> np.ndarray:
    return _np(col).astype(np.int64)


def _cat(parts: list, dtype) -> np.ndarray:
    return np.concatenate(parts) if parts else np.array([], dtype)


def _runs(t: pa.Table, by: "list[str]", group: "list[str]"):
    """``t`` stably sorted on ``by``, plus the start row and size of each
    run of rows equal on ``group`` (a prefix of ``by``)."""
    t = t.sort_by([(c, "ascending") for c in by])
    n = t.num_rows
    new = np.zeros(n, bool)
    if n:
        new[0] = True
        for c in group:
            v = _np(t[c])
            new[1:] |= v[1:] != v[:-1]
    starts = np.flatnonzero(new)
    return t, starts, np.diff(np.append(starts, n))


def _reduce_by(keys: "list[np.ndarray]", vals: "list[np.ndarray]",
               op=np.add):
    """Distinct rows of the key arrays ``keys`` (ascending) and ``op``
    reduced over each array of ``vals`` per distinct key."""
    order = np.lexsort(keys[::-1])
    ks = [k[order] for k in keys]
    n = len(order)
    new = np.zeros(n, bool)
    if n:
        new[0] = True
        for k in ks:
            new[1:] |= k[1:] != k[:-1]
    starts = np.flatnonzero(new)
    return ([k[starts] for k in ks],
            [op.reduceat(v[order], starts) if n else v[:0] for v in vals])


def _first_index(keys: np.ndarray, probe: np.ndarray):
    """Row of the first occurrence in ``keys`` of each ``probe`` value, and
    a mask of the probes found at all."""
    if len(keys) == 0:
        return (np.zeros(len(probe), np.int64),
                np.zeros(len(probe), bool))
    order = np.argsort(keys, kind="stable")
    k = keys[order]
    pos = np.minimum(np.searchsorted(k, probe), len(k) - 1)
    return order[pos], k[pos] == probe


# ------------------------------------------------------------- exact dedup

def add_md5_digest(batch: pa.Table, text_col: str = "text",
                   out_col: str = "digest") -> pa.Table:
    texts = batch[text_col].to_pylist()
    digests = [hashlib.md5((t or "").encode("utf-8")).hexdigest() for t in texts]
    return batch.append_column(out_col, pa.array(digests, pa.string()))


def exact_dedup_stats(ds, id_col: str = "doc_id", text_col: str = "text"):
    """→ (digest, rep_id = min id, dup_count) per distinct content."""
    from ray.data.aggregate import Count, Min

    with_digest = ds.map_batches(
        lambda b: add_md5_digest(b, text_col).select([id_col, "digest"]),
        batch_format="pyarrow")
    return with_digest.groupby("digest").aggregate(
        Min(id_col, alias_name="rep_id"), Count(alias_name="dup_count"))


def exact_dedup(ds, id_col: str = "doc_id", text_col: str = "text"):
    """Keep one representative row (min id) per distinct content —
    hash-partition + per-group first (SURVEY.md §2.7 D1). One keyed
    exchange on the digest; representatives resolve vectorized inside
    each coarse group (one Ray group per partition, not per digest)."""
    def first_per_digest(t: pa.Table) -> pa.Table:
        t, starts, _ = _runs(t, ["digest", id_col], ["digest"])
        return t.take(starts)

    digested = ds.map_batches(lambda b: add_md5_digest(b, text_col),
                              batch_format="pyarrow").materialize()
    schema = digested.schema()
    return keyed_exchange(digested, ["digest"], first_per_digest,
                          {n: t for n, t in zip(schema.names, schema.types)
                           if n != "digest"})


def _digest_rows(ds, id_col: str, text_col: str):
    return ds.map_batches(
        lambda b: add_md5_digest(b, text_col).select([id_col, "digest"]),
        batch_format="pyarrow")


def exact_dup_pairs(ds, id_col: str = "doc_id", text_col: str = "text",
                    n_coarse: int | None = None):
    """Star-shaped duplicate-pair edges from EXACT content equality:
    (id_a = min id of the digest group, id_b = each other member).

    Same digest exchange as exact_dedup; inside each group the per-digest
    rep and members resolve vectorized (sort by digest+id, group
    boundaries from digest change, rep broadcast via np.repeat — no
    per-digest dispatch). Feeding these pairs to dup_clusters gives a
    connected-components run whose ground truth is SQL-expressible
    (min(doc_id) per text group), unlike the MinHash pair graph."""
    def star_pairs(t: pa.Table) -> pa.Table:
        t, starts, sizes = _runs(t, ["digest", id_col], ["digest"])
        ids = _np64(t[id_col])
        reps = np.repeat(ids[starts], sizes)
        keep = reps != ids  # drop the self row → (rep, member) per dup
        return pa.table({"id_a": reps[keep], "id_b": ids[keep]})

    return keyed_exchange(_digest_rows(ds, id_col, text_col), ["digest"],
                          star_pairs, _PAIR_IDS, n_coarse)


def soft_dedup_weights(ds, id_col: str = "doc_id", text_col: str = "text",
                       n_coarse: int | None = None):
    """SoftDeDup-style duplication REWEIGHTING (He et al. 2024,
    arXiv:2407.06654): instead of dropping duplicates, every row keeps a
    training-sampling weight inversely proportional to its content's
    duplication count — ``weight_micro = 1_000_000 // cluster_size`` in
    exact integer micro-units (the engine-wide order-independent
    fixed-point convention). A 3-copy document trains at ~1/3 rate, unique
    text at full rate; corpus COVERAGE is preserved, which the hard-drop
    policies (exact_dedup / near_dedup_kept) lose. Extends the reference's
    digest-dedup policy (app2.py result cache, SURVEY §2.7 D1) from
    drop-duplicates to weight-duplicates.

    Same digest exchange as exact_dedup — the shuffled rows are (id,
    32-char digest) only, text never moves — and cluster sizes resolve
    vectorized per coarse group (sort by digest, group sizes from boundary
    diff, np.repeat broadcast; no per-digest dispatch).
    Value-exact in SQL: count(*) over md5(text) groups + the same integer
    division. → (id, digest, cluster_size, weight_micro) per input row."""
    def weigh(t: pa.Table) -> pa.Table:
        t, _, sizes = _runs(t, ["digest", id_col], ["digest"])
        per_row = np.repeat(sizes.astype(np.int64), sizes)
        return t.append_column("cluster_size", pa.array(per_row)) \
            .append_column("weight_micro", pa.array(1_000_000 // per_row))

    return keyed_exchange(
        _digest_rows(ds, id_col, text_col), ["digest"], weigh,
        {id_col: pa.int64(), "digest": pa.string(),
         "cluster_size": pa.int64(), "weight_micro": pa.int64()}, n_coarse)


def canonical_quality_keep(ds, id_col: str = "doc_id",
                           text_col: str = "text", n_coarse: int = 64):
    """Normalization-aware exact dedup keeping the highest-QUALITY member
    per cluster — the representative-choice policy modern web pipelines
    use instead of min-id (pick the cleanest copy of a page that exists
    in several formatting variants).

    canonical form = trim(collapse-ws(lower(delete ``[^\\w\\s]``))) — two
    RE2 replaces + a lower + trim, all vectorized; cluster key =
    md5(canonical) (DuckDB ``md5()`` parity, the add_md5_digest
    convention); representative = argmax (quality_score, -id), i.e.
    greatest stages/text_analysis.quality_scores score, ties to the
    smallest id. One keyed-argmax shuffle via crawl.latest_rows_per_key
    (per-batch partial argmax first, so the exchange carries at most one
    row per (batch, digest)). Returns (id, digest, quality_score)."""
    from .crawl import latest_rows_per_key
    from .text_analysis import quality_scores

    def keyed(batch: pa.Table) -> pa.Table:
        t = pc.fill_null(batch[text_col], "")
        canon = pc.utf8_trim(pc.replace_substring_regex(
            pc.replace_substring_regex(t, r"[^\w\s]", ""),
            r"\s+", " "), " ")
        canon = pc.utf8_lower(canon)
        digests = [hashlib.md5(c.encode("utf-8")).hexdigest()
                   for c in canon.to_pylist()]
        # score the null-FILLED text (the (s or '') convention, matching
        # the SQL side's coalesce): a null-text member must tie with an
        # empty-text member, not carry NaN quality that can never win
        q = quality_scores(pa.table({id_col: batch[id_col], text_col: t}),
                           text_col)["quality_score"]
        return pa.table({
            id_col: batch[id_col],
            "digest": pa.array(digests, pa.string()),
            "quality_score": q,
            "_neg_id": pc.negate(batch[id_col])})

    kept = latest_rows_per_key(
        ds.map_batches(keyed, batch_format="pyarrow"),
        "digest", ["quality_score", "_neg_id"], n_coarse=n_coarse,
        schema={id_col: pa.int64(), "digest": pa.string(),
                "quality_score": pa.float64(), "_neg_id": pa.int64()})
    return kept.map_batches(
        lambda b: b.select([id_col, "digest", "quality_score"]),
        batch_format="pyarrow")


# ---------------------------------------------------------------- MinHash

NUM_PERM = 64
BANDS = 16
ROWS_PER_BAND = NUM_PERM // BANDS
_MERSENNE = (1 << 61) - 1
_rs = np.random.RandomState(42)
_PERM_A = _rs.randint(1, _MERSENNE, size=NUM_PERM, dtype=np.int64).astype(np.uint64)
_PERM_B = _rs.randint(0, _MERSENNE, size=NUM_PERM, dtype=np.int64).astype(np.uint64)

SHINGLE_N = 3  # word n-grams


def shingle_hashes(text: str, n: int = SHINGLE_N) -> np.ndarray:
    """crc32 hashes of lowercase word n-grams (distinct)."""
    words = (text or "").lower().split()
    if len(words) < n:
        grams = [" ".join(words)] if words else []
    else:
        grams = [" ".join(words[i:i + n]) for i in range(len(words) - n + 1)]
    return np.unique(np.array([zlib.crc32(g.encode()) for g in grams], dtype=np.uint64))


def minhash_signature(shingles: np.ndarray) -> np.ndarray:
    """64 minhash components over one shingle set (uint64)."""
    if len(shingles) == 0:
        return np.full(NUM_PERM, np.uint64(_MERSENNE))
    # (h * a + b) mod p, min over shingles — vectorized (perm, shingle)
    prod = (shingles[None, :] * _PERM_A[:, None] + _PERM_B[:, None]) % np.uint64(_MERSENNE)
    return prod.min(axis=1)


def minhash_batch(batch: pa.Table, id_col: str = "doc_id",
                  text_col: str = "text") -> pa.Table:
    texts = batch[text_col].to_pylist()
    sigs = [minhash_signature(shingle_hashes(t)) for t in texts]
    return pa.table({
        id_col: batch[id_col],
        "signature": pa.array([s.astype(np.int64) for s in sigs], pa.list_(pa.int64())),
    })


def lsh_band_rows(batch: pa.Table, id_col: str = "doc_id") -> pa.Table:
    """Explode signatures to (id, band_id, band_hash, signature) rows."""
    ids = batch[id_col].to_pylist()
    sigs = batch["signature"].to_pylist()
    out_id, out_band, out_hash = [], [], []
    for i, sig in zip(ids, sigs):
        for b in range(BANDS):
            chunk = sig[b * ROWS_PER_BAND:(b + 1) * ROWS_PER_BAND]
            h = hashlib.blake2b(
                np.array(chunk, dtype=np.int64).tobytes(), digest_size=8
            ).hexdigest()
            out_id.append(i)
            out_band.append(b)
            out_hash.append(h)
    return pa.table({
        id_col: pa.array(out_id),
        "band_id": pa.array(out_band, pa.int32()),
        "band_hash": pa.array(out_hash, pa.string()),
        "signature": batch["signature"].take(
            np.repeat(np.arange(batch.num_rows), BANDS)),
    })


def estimated_jaccard(sig_a: np.ndarray, sig_b: np.ndarray) -> float:
    return float(np.mean(np.asarray(sig_a) == np.asarray(sig_b)))


MAX_BUCKET = 64  # salt guard: skip degenerate buckets larger than this


def _sig_matrix(col, width: int) -> np.ndarray:
    """(rows, width) int64 matrix of a list<int64> column of fixed-length
    signatures."""
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    return col.flatten().to_numpy(zero_copy_only=False) \
        .astype(np.int64).reshape(-1, width)


def _bucket_codes(t: pa.Table, keys: "list[str]"):
    """``t`` sorted on ``keys`` and a dense int bucket code per row."""
    t, starts, sizes = _runs(t, keys, keys)
    return t, np.repeat(np.arange(len(starts)), sizes)


def _triu_chunks(m: int, pair_chunk: int):
    """Yield (a_i, b_i) index slabs covering triu(m, 1) with ≤ pair_chunk
    elements per slab — the bounded-memory form of np.triu_indices(m, 1),
    which would materialize all m(m-1)/2 indices at once."""
    i = 0
    while i < m - 1:
        take, total = 1, m - 1 - i
        while i + take < m - 1 and total + (m - 1 - (i + take)) <= pair_chunk:
            total += m - 1 - (i + take)
            take += 1
        rows = np.arange(i, i + take)
        yield (np.repeat(rows, m - 1 - rows),
               np.concatenate([np.arange(r + 1, m) for r in rows]))
        i += take


def _bucket_pairs(code: np.ndarray, ids: np.ndarray, payload: np.ndarray,
                  pair_fn_vec, max_bucket: "int | None" = MAX_BUCKET,
                  band: "np.ndarray | None" = None,
                  pair_chunk: int = 1 << 22):
    """Shared bucket-walk for banded LSH pair generation, vectorized.

    ``code`` is an int bucket code per row, ``ids`` the row ids and
    ``payload`` the per-row values ``pair_fn_vec(pa, pb) -> (ok, value)``
    scores (any array indexed on its first axis).

    Sorts rows by bucket, handles the dominant size-2 buckets in one numpy
    pass and larger buckets with a CHUNKED triu pair sweep per bucket
    (``pair_fn_vec`` over fancy-indexed payload arrays, ≤ ``pair_chunk``
    index elements in flight — a large bucket never materializes its full
    m² index arrays at once). ``max_bucket``: buckets larger than this emit
    NO pairs — the salt guard for candidate generators whose contract is
    already approximate (MinHash banding); pass ``None`` for generators
    whose output is a documented EXACT pair set (simhash hamming ≤ k —
    its SQL oracle is a full self-join, so a silent cap would silently
    under-emit on any corpus with a >max_bucket near-dup family; the
    quadratic pair COUNT is that operator's honest output size).

    ``band``: opt-in band id per row for banded generators whose payload
    is a hashable SCALAR fingerprint (simhash). Rows with IDENTICAL
    payloads share every band value, so (a) their intra-clique pairs are
    emitted only in band 0 — once per corpus instead of once per band —
    with ONE pair_fn evaluation broadcast across the clique, and (b) the
    bucket sweep enumerates DISTINCT payloads instead of rows, so an
    identical-fingerprint family costs O(pairs emitted), not
    O(m² pair_fn evals) × bands. Output pair set and values are identical
    (pinned by tests/test_operators.py::TestBigBucketPairs).

    Returns (id_a, id_b, value) arrays with id_a < id_b.
    """
    order = np.argsort(code, kind="stable")
    code = code[order]
    ids = ids[order]
    payload = payload[order]
    band = band[order] if band is not None else None
    sizes = np.bincount(code)[code]
    ida, idb, vals = [], [], []
    mask2 = sizes == 2
    if mask2.any():
        idx = np.where(mask2)[0].reshape(-1, 2)  # adjacent after stable sort
        a_i, b_i = idx[:, 0], idx[:, 1]
        if band is not None:
            # equal-payload pairs recur in EVERY band (identical
            # fingerprints share all band values) — emit only in band 0
            keep2 = (payload[a_i] != payload[b_i]) | (band[a_i] == 0)
            a_i, b_i = a_i[keep2], b_i[keep2]
        if len(a_i):
            ok, val = pair_fn_vec(payload[a_i], payload[b_i])
            A, B = ids[a_i], ids[b_i]
            ida.append(np.minimum(A, B)[ok])
            idb.append(np.maximum(A, B)[ok])
            vals.append(val[ok])
    lim = len(code) if max_bucket is None else max_bucket
    big = (sizes >= 3) & (sizes <= lim)
    if big.any():
        for c in np.unique(code[big]):
            rows = np.where(code == c)[0]
            o = np.argsort(ids[rows], kind="stable")
            bids = ids[rows][o]
            bpay = payload[rows][o]
            if band is None:
                for a_i, b_i in _triu_chunks(len(bids), pair_chunk):
                    ok, val = pair_fn_vec(bpay[a_i], bpay[b_i])
                    ida.append(bids[a_i][ok])
                    idb.append(bids[b_i][ok])
                    vals.append(val[ok])
            else:
                _sweep_cliqued(bids, bpay, int(band[rows[0]]), pair_fn_vec,
                               pair_chunk, ida, idb, vals)
    return (_cat(ida, np.int64), _cat(idb, np.int64),
            _cat(vals, np.float64))


def _sweep_cliqued(bids, bpay, band_val: int, pair_fn_vec, pair_chunk: int,
                   ida: list, idb: list, vals: list) -> None:
    """Big-bucket sweep with identical-payload clique compression (see
    _bucket_pairs ``band``). bids are id-sorted, so members within each
    payload group and cross-group min/max keep id_a < id_b."""
    uniq, inv = np.unique(bpay, return_inverse=True)
    # member index lists per payload group (stable: preserves id order)
    grp_order = np.argsort(inv, kind="stable")
    bounds = np.searchsorted(inv[grp_order], np.arange(len(uniq) + 1))
    members = [bids[grp_order[bounds[g]:bounds[g + 1]]]
               for g in range(len(uniq))]
    if band_val == 0:
        # intra-clique pairs: one pair_fn eval per clique, broadcast
        for g, mem in enumerate(members):
            if len(mem) < 2:
                continue
            ok, val = pair_fn_vec(uniq[g:g + 1], uniq[g:g + 1])
            if not ok[0]:
                continue
            for a_i, b_i in _triu_chunks(len(mem), pair_chunk):
                ida.append(mem[a_i])
                idb.append(mem[b_i])
                vals.append(np.repeat(val[:1], len(a_i)))
    # inter-clique pairs: sweep DISTINCT payloads, expand qualifying pairs
    for a_i, b_i in _triu_chunks(len(uniq), pair_chunk):
        ok, val = pair_fn_vec(uniq[a_i], uniq[b_i])
        for ga, gb, v in zip(a_i[ok], b_i[ok], val[ok]):
            ma, mb = members[ga], members[gb]
            A = np.repeat(ma, len(mb))
            B = np.tile(mb, len(ma))
            ida.append(np.minimum(A, B))
            idb.append(np.maximum(A, B))
            vals.append(np.repeat(v, len(A)))


def _unique_pairs(ida: np.ndarray, idb: np.ndarray, **vals) -> pa.Table:
    """(id_a, id_b, *vals) table with one row per (id_a, id_b), the first
    in input order."""
    order = np.lexsort((idb, ida))
    a, b = ida[order], idb[order]
    first = np.ones(len(a), bool)
    first[1:] = (a[1:] != a[:-1]) | (b[1:] != b[:-1])
    keep = order[first]
    return pa.table({"id_a": ida[keep], "id_b": idb[keep],
                     **{k: v[keep] for k, v in vals.items()}})


def _dedup_pairs_coarse(pairs_ds, val_col: str, val_type: "pa.DataType",
                        n_coarse: "int | None" = None):
    """Global pair dedup: one keyed exchange on (id_a, id_b), then a
    vectorized first-per-pair inside each group. A pair found by several
    bands carries an identical value (it is a function of the two full
    signatures), so keep-first is exact. Cheaper than a native Aggregate
    here: the pair set is small but block counts are high, and Aggregate's
    per-block fixed costs dominate (measured 12s vs ~1s on 95k rows).
    Always a Dataset with the pair schema, also for a duplicate-free
    corpus."""
    def drop_dup(t: pa.Table) -> pa.Table:
        return _unique_pairs(_np64(t["id_a"]), _np64(t["id_b"]),
                             **{val_col: _np(t[val_col])})

    return keyed_exchange(pairs_ds, ["id_a", "id_b"], drop_dup,
                          {**_PAIR_IDS, val_col: val_type}, n_coarse)


def _lsh_pairs(bands, keys: "list[str]", id_col: str, payload_of,
               pair_fn_vec, val_col: str, val_type: "pa.DataType",
               n_coarse: "int | None",
               max_bucket: "int | None" = MAX_BUCKET,
               cliqued: bool = False):
    """Banded LSH spine: one keyed exchange on the bucket ``keys``, the
    _bucket_pairs walk per group (``payload_of(table)`` gives the scored
    payload; ``cliqued`` passes ``band_id`` as its ``band``), a
    within-group pair dedup, then the global pair dedup exchange."""
    def pairs_in_group(t: pa.Table) -> pa.Table:
        t, code = _bucket_codes(t, keys)
        ida, idb, val = _bucket_pairs(
            code, _np64(t[id_col]), payload_of(t), pair_fn_vec, max_bucket,
            band=_np(t["band_id"]) if cliqued else None)
        return _unique_pairs(ida, idb, **{val_col: val})

    schema = {**_PAIR_IDS, val_col: val_type}
    pairs = keyed_exchange(bands, keys, pairs_in_group, schema, n_coarse)
    return _dedup_pairs_coarse(pairs, val_col, val_type, n_coarse)


def minhash_dedup_pairs(ds, id_col: str = "doc_id", text_col: str = "text",
                        threshold: float = 0.7,
                        n_coarse: int | None = None):
    """Candidate near-dup pairs with estimated Jaccard ≥ threshold.

    shingle→minhash per batch → band explode (each band row carries the
    full signature) → keyed exchange on (band_id, band_hash) → vectorized
    bucket walk emits pairs → pair-key exchange dedups pairs found in
    several bands. Buckets larger than MAX_BUCKET are dropped (degenerate
    content — e.g. empty docs).
    """
    def vec(sa, sb):
        e = (sa == sb).mean(axis=1)
        return e >= threshold, e

    sigs = ds.map_batches(lambda b: minhash_batch(b, id_col, text_col),
                          batch_format="pyarrow")
    bands = sigs.map_batches(lambda b: lsh_band_rows(b, id_col),
                             batch_format="pyarrow")
    return _lsh_pairs(bands, ["band_id", "band_hash"], id_col,
                      lambda t: _sig_matrix(t["signature"], NUM_PERM), vec,
                      "est_jaccard", pa.float64(), n_coarse)


# ------------------------------- value-exact MinHash (md5-hash32 domain)

MD5MH_PERM = 16
MD5MH_BANDS = 8
P31 = (1 << 31) - 1                        # Mersenne prime 2^31 - 1
_rs31 = np.random.RandomState(7)
MD5MH_A = _rs31.randint(1, P31, size=MD5MH_PERM).astype(np.int64)
MD5MH_B = _rs31.randint(0, P31, size=MD5MH_PERM).astype(np.int64)


def md5_shingle32(text: str, n: int = SHINGLE_N) -> np.ndarray:
    """md5-hash32 of lowercase word n-grams (same gram rule as
    shingle_hashes; the md5-hash32 bucket rule shared with
    target_affinity / source KL: first 8 hex chars as a 32-bit int,
    exactly ``('0x' || substring(md5(g), 1, 8))::UBIGINT`` in DuckDB).
    Duplicates are NOT removed — min() is multiset-invariant."""
    words = (text or "").lower().split()
    if not words:
        return np.empty(0, np.int64)
    if len(words) < n:
        grams = [" ".join(words)]
    else:
        grams = [" ".join(words[i:i + n]) for i in range(len(words) - n + 1)]
    return np.array([int(hashlib.md5(g.encode("utf-8")).hexdigest()[:8], 16)
                     for g in grams], np.int64)


def md5_minhash_batch(batch: pa.Table, id_col: str = "doc_id",
                      text_col: str = "text") -> pa.Table:
    """16 affine minhash components over the md5-hash32 shingle domain:
    s_i = min over shingles of (A_i * (x % p) + B_i) % p, p = 2^31 - 1.
    Every product is < 2^62 — plain int64 on BOTH sides, no modular wrap
    (the uint64 wrap in minhash_signature is what makes the crc32 family
    un-oracle-able). Docs with ZERO shingles (empty text) are EXCLUDED —
    the SQL side has no gram rows for them, and the banding would
    otherwise pair all empties at the sentinel signature (the simhash-0
    convention)."""
    ids, sigs = [], []
    for i, t in zip(batch[id_col].to_pylist(), batch[text_col].to_pylist()):
        x = md5_shingle32(t)
        if len(x) == 0:
            continue
        xm = x % P31
        prod = (MD5MH_A[:, None] * xm[None, :] + MD5MH_B[:, None]) % P31
        ids.append(i)
        sigs.append(prod.min(axis=1))
    return pa.table({
        id_col: pa.array(ids, pa.int64()),
        "signature": pa.array([s.tolist() for s in sigs],
                              pa.list_(pa.int64()))})


def _md5_band_rows(batch: pa.Table, id_col: str, text_col: str,
                   old_pred=None) -> pa.Table:
    """(id, band_id, h1, h2, signature[, is_old]) rows of the 8×2 banding
    over md5_minhash_batch signatures; ``old_pred`` adds the snapshot
    flag of minhash_pairs_md5_incremental."""
    t = md5_minhash_batch(batch, id_col, text_col)
    n = t.num_rows
    S = _sig_matrix(t["signature"], MD5MH_PERM)
    ids = _np64(t[id_col])
    rep = np.repeat(np.arange(n), MD5MH_BANDS)
    cols = {id_col: pa.array(ids[rep], pa.int64()),
            "band_id": pa.array(np.tile(np.arange(MD5MH_BANDS,
                                                  dtype=np.int32), n)),
            "h1": pa.array(S[:, 0::2].reshape(-1)),
            "h2": pa.array(S[:, 1::2].reshape(-1)),
            "signature": t["signature"].take(rep)}
    if old_pred is not None:
        cols["is_old"] = pa.array(np.asarray(old_pred(ids), bool)[rep])
    return pa.table(cols)


def minhash_pairs_md5(ds, id_col: str = "doc_id", text_col: str = "text",
                      threshold: float = 0.5, n_coarse: int | None = None):
    """VALUE-EXACT MinHash LSH — the oracle-able sibling of
    minhash_dedup_pairs. Same pipeline shape (signature → band explode →
    keyed bucket exchange → bucket walk → pair-key dedup), but every step
    has an exact DuckDB form: md5-hash32 shingles, int64 affine min-hash
    mod 2^31-1, 8×2 banding on the LITERAL component pair (h1, h2) —
    never a digest of the band, so no hash-collision caveat — and
    est_jaccard = eq_count/16.0 (an exact dyadic rational on both sides).
    ``max_bucket=None``: the emitted pair set is documented-EXACT (the
    SQL oracle is a full band self-join), so no salt cap may drop pairs;
    the chunked triu sweep bounds memory instead.

    Scale note: this is the CORRECTNESS-ANCHOR variant (16 perms, md5 in
    a Python loop per gram); the crc32/64-perm family remains the
    throughput path — this one pins the banding/threshold logic to SQL.
    """
    def vec(sa, sb):
        e = (sa == sb).sum(axis=1) / float(MD5MH_PERM)
        return e >= threshold, e

    bands = ds.map_batches(lambda b: _md5_band_rows(b, id_col, text_col),
                           batch_format="pyarrow")
    return _lsh_pairs(bands, ["band_id", "h1", "h2"], id_col,
                      lambda t: _sig_matrix(t["signature"], MD5MH_PERM), vec,
                      "est_jaccard", pa.float64(), n_coarse, max_bucket=None)


def _cross_chunks(m: int, n: int, pair_chunk: int):
    """Yield (a_i, b_i) index slabs covering the full m×n cross product
    with ≤ ~pair_chunk elements per slab — the rectangular sibling of
    _triu_chunks for old×new candidate sweeps."""
    if m == 0 or n == 0:
        return
    rows_per = max(1, pair_chunk // n)
    cols = np.arange(n)
    for i in range(0, m, rows_per):
        rows = np.arange(i, min(i + rows_per, m))
        yield np.repeat(rows, n), np.tile(cols, len(rows))


def minhash_pairs_md5_incremental(ds, old_pred,
                                  id_col: str = "doc_id",
                                  text_col: str = "text",
                                  threshold: float = 0.5,
                                  n_coarse: int | None = None):
    """INCREMENTAL near-dedup: candidate pairs between a NEW shard and an
    existing SNAPSHOT only — the steady-state production shape (each crawl
    near-dedups against everything already ingested; incremental_dedup is
    the exact-digest sibling, this is the MinHash one). ``old_pred`` maps
    an int64 id array to a bool snapshot-membership array (a pure function
    of the key, reproducible in SQL). Returns (new_id, old_id,
    est_jaccard) for every mixed pair sharing an LSH band with estimated
    Jaccard ≥ threshold — identical arithmetic to minhash_pairs_md5
    (md5-hash32 shingles, 16 affine perms mod 2^31-1, 8×2 banding,
    est = eq_count/16), so the same SQL oracle chain applies with an
    is_old split on the band self-join.

    Scale shape: same band exchange as minhash_pairs_md5, but the bucket
    walk sweeps the OLD×NEW rectangle instead of the full triangle — a
    bucket dominated by snapshot rows (the common case: the snapshot is
    the LARGER side at 100 TB) costs old·new, never old², and snapshot-
    internal pairs are never enumerated at all. Bounded slabs via
    _cross_chunks. The snapshot side is never broadcast — both sides ride
    the same band exchange and meet in-group."""
    keys = ["band_id", "h1", "h2"]

    def cross_pairs(t: pa.Table) -> pa.Table:
        t, starts, sizes = _runs(t, keys, keys)
        ids = _np64(t[id_col])
        olds = _np(t["is_old"])
        payload = _sig_matrix(t["signature"], MD5MH_PERM)
        new_id, old_id, est = [], [], []
        for s, e in zip(starts[sizes >= 2], (starts + sizes)[sizes >= 2]):
            om = olds[s:e]
            if om.all() or not om.any():
                continue
            oi = np.where(om)[0] + s
            ni = np.where(~om)[0] + s
            for a_i, b_i in _cross_chunks(len(oi), len(ni), 1 << 22):
                ev = (payload[oi[a_i]] == payload[ni[b_i]]).sum(axis=1) \
                    / float(MD5MH_PERM)
                ok = ev >= threshold
                old_id.append(ids[oi[a_i[ok]]])
                new_id.append(ids[ni[b_i[ok]]])
                est.append(ev[ok])
        return _unique_pairs(_cat(new_id, np.int64), _cat(old_id, np.int64),
                             est_jaccard=_cat(est, np.float64))

    bands = ds.map_batches(
        lambda b: _md5_band_rows(b, id_col, text_col, old_pred),
        batch_format="pyarrow")
    pairs = keyed_exchange(bands, keys, cross_pairs,
                           {**_PAIR_IDS, "est_jaccard": pa.float64()},
                           n_coarse)
    return _dedup_pairs_coarse(pairs, "est_jaccard", pa.float64(),
                               n_coarse).map_batches(
        lambda b: b.rename_columns(["new_id", "old_id", "est_jaccard"]),
        batch_format="pyarrow")


# ---------------------------------------------------------------- SimHash

def _token_hash64(token: str) -> int:
    """Top-64 bits of md5(token) — md5 (not blake2) so the simhash_docs
    SQL oracle reproduces it exactly:
    ``cast(('0x' || substring(md5(tok), 1, 16)) AS UBIGINT)``."""
    return int(hashlib.md5(token.encode()).hexdigest()[:16], 16)


def simhash64(text: str) -> int:
    """64-bit frequency-weighted simhash over \\w+ tokens (lowercased).
    ASCII \\w — the engine-wide RE2 tokenizer convention (pyarrow/DuckDB
    \\w is ASCII-only), so the SQL oracle tokenizes identically."""
    import re
    counts: dict[str, int] = {}
    for tok in re.findall(r"\w+", (text or "").lower(), re.ASCII):
        counts[tok] = counts.get(tok, 0) + 1
    if not counts:
        return 0
    votes = np.zeros(64, dtype=np.int64)
    shifts = np.arange(64, dtype=np.uint64)
    for tok, c in counts.items():
        h = np.uint64(_token_hash64(tok))
        bits = (h >> shifts) & np.uint64(1)
        votes += np.where(bits == 1, c, -c)
    return int(((votes > 0).astype(np.uint64) << shifts).sum(dtype=np.uint64))


def simhash_batch(batch: pa.Table, id_col: str = "doc_id",
                  text_col: str = "text") -> pa.Table:
    texts = batch[text_col].to_pylist()
    hashes = [simhash64(t) for t in texts]
    return pa.table({
        id_col: batch[id_col],
        # store as int64 two's-complement view of the uint64
        "simhash": pa.array([np.uint64(h).astype(np.int64) for h in hashes], pa.int64()),
    })


def simhash_near_pairs(ds, id_col: str = "doc_id", text_col: str = "text",
                       max_hamming: int = 3, n_coarse: int | None = None):
    """Near-dup pairs by simhash banding: 4 bands × 16 bits; docs sharing any
    band collide, verified by full Hamming distance ≤ max_hamming.

    Tokenless docs are EXCLUDED from pair generation: a doc with no ASCII
    \\w token (CJK/Cyrillic/emoji-only, empty) gets simhash 0 — content-
    free, not a fingerprint — and on a multilingual corpus every such doc
    would otherwise collide at hamming 0 and mass-merge as one giant
    near-dup clique. The simhash_pairs_doubled SQL oracle carries the same
    ``simhash <> 0`` predicate on both join sides."""
    def band_rows(batch: pa.Table) -> pa.Table:
        h = _np64(batch["simhash"])
        shifts = np.uint64(16) * np.arange(4, dtype=np.uint64)
        vals = (h.view(np.uint64)[:, None] >> shifts) & np.uint64(0xFFFF)
        rep = np.repeat(np.arange(len(h)), 4)
        return pa.table({
            id_col: batch[id_col].take(rep),
            "band_id": pa.array(np.tile(np.arange(4, dtype=np.int32),
                                        len(h))),
            "band_val": pa.array(vals.reshape(-1).astype(np.int64)),
            "simhash": pa.array(h[rep])})

    def vec(sa, sb):
        x = sa.view(np.uint64) ^ sb.view(np.uint64)
        ham = np.unpackbits(x.view(np.uint8).reshape(-1, 8), axis=1) \
            .sum(axis=1).astype(np.int64)
        return ham <= max_hamming, ham

    sims = ds.map_batches(lambda b: simhash_batch(b, id_col, text_col),
                          batch_format="pyarrow")
    # tokenless docs (simhash 0) carry no content signal — see docstring
    sims = sims.map_batches(
        lambda b: b.filter(pc.invert(pc.equal(b["simhash"], 0))),
        batch_format="pyarrow")
    # max_bucket=None: simhash banding + hamming verify is an EXACT pair
    # set (full recall at hamming ≤ max for 4×16 bands) and its oracle is
    # a full self-join — a capped bucket would silently under-emit on any
    # corpus with a big near-identical family. cliqued: identical
    # simhashes share all 4 bands — their pairs emit once (band 0) with
    # one hamming eval per clique, and the bucket sweep runs over
    # distinct fingerprints, not rows
    return _lsh_pairs(sims.map_batches(band_rows, batch_format="pyarrow"),
                      ["band_id", "band_val"], id_col,
                      lambda t: _np64(t["simhash"]), vec, "hamming",
                      pa.int64(), n_coarse, max_bucket=None, cliqued=True)


# ---------------------------------------------------- exact n-gram Jaccard

def ngram_jaccard(text_a: str, text_b: str, n: int = SHINGLE_N) -> float:
    a = set(shingle_hashes(text_a, n).tolist())
    b = set(shingle_hashes(text_b, n).tolist())
    if not a and not b:
        return 1.0
    return len(a & b) / len(a | b)


def ngram_set(text: str, n: int = SHINGLE_N) -> set[str]:
    """Distinct word n-gram STRINGS (exact — no hashing, so results are
    collision-free and reproducible in SQL for the oracle)."""
    words = (text or "").lower().split()
    if len(words) < n:
        return {" ".join(words)} if words else set()
    return {" ".join(words[i:i + n]) for i in range(len(words) - n + 1)}


def ngram_jaccard_exact(text_a: str, text_b: str, n: int = SHINGLE_N) -> float:
    a, b = ngram_set(text_a, n), ngram_set(text_b, n)
    if not a and not b:
        return 1.0
    return len(a & b) / len(a | b)


def adjacent_ngram_jaccard(ds, id_col: str = "doc_id", text_col: str = "text",
                           n: int = SHINGLE_N, n_coarse: int | None = None):
    """Exact n-gram Jaccard between each (id, id+1) document pair.

    Pairwise ops over a Dataset need co-location, not a driver loop: each row
    fans out to at most two pair groups — as the LEFT member of pair ``id``
    and the RIGHT member of pair ``id-1`` — then ``groupby(pair_id)`` brings
    both texts of a pair to one task. The shuffle moves each text exactly
    twice regardless of corpus size (no broadcast, no N² join).
    Returns (id_a, id_b = id_a+1, jaccard) for pairs where both ids exist.
    """
    def fan_out(batch: pa.Table) -> pa.Table:
        ids = batch[id_col].to_pylist()
        texts = batch[text_col].to_pylist()
        pid, role, txt = [], [], []
        for i, t in zip(ids, texts):
            pid.append(i); role.append(0); txt.append(t)
            if i > 0:
                pid.append(i - 1); role.append(1); txt.append(t)
        return pa.table({"pair_id": pa.array(pid, pa.int64()),
                         "role": pa.array(role, pa.int8()),
                         "text": pa.array(txt, pa.string())})

    def pairs_in_group(t: pa.Table) -> pa.Table:
        # role 0 = left member (text of id), 1 = right member (of id + 1)
        t, starts, sizes = _runs(t, ["pair_id", "role"], ["pair_id"])
        role = _np(t["role"])
        last = starts + sizes - 1
        both = (role[starts] == 0) & (role[last] == 1)
        pid = _np64(t["pair_id"])[starts[both]]
        ta = t["text"].take(starts[both]).to_pylist()
        tb = t["text"].take(last[both]).to_pylist()
        jac = [ngram_jaccard_exact(a, b, n) for a, b in zip(ta, tb)]
        return pa.table({"id_a": pid, "id_b": pid + 1,
                         "jaccard": pa.array(jac, pa.float64())})

    return keyed_exchange(
        ds.map_batches(fan_out, batch_format="pyarrow"), ["pair_id"],
        pairs_in_group, {**_PAIR_IDS, "jaccard": pa.float64()}, n_coarse)


def _verify_pairs_core(pairs_ds, docs_ds, id_col: str, text_col: str,
                       n_coarse: int | None, semi_join_max_ids: int,
                       kernel_factory, extra_cols: "dict[str, pa.DataType]"):
    """Shared candidate→verify repartition-join machinery (see
    verify_pairs_ngram for the full scale rationale). ``kernel_factory()``
    is called once per verify group and must return
    ``fn(id_a, text_a, id_b, text_b) -> tuple`` producing one value per
    ``extra_cols`` entry — per-group state (memo caches, encoders)
    lives in the factory closure.

    Two-exchange repartition join (no driver materialization, no
    broadcast — the documents side may be the whole corpus):
      1. pairs explode to per-member refs (id, id_a, id_b, side); union
         with the documents rows (id, text); a keyed exchange on id stamps
         the text onto every ref of that document (a sorted-id lookup
         inside each group);
      2. a keyed exchange on (id_a, id_b) reunites the two stamped sides
         (an Arrow inner join inside each group) and runs the kernel.

    SEMI-JOIN REDUCTION: only docs that appear in some pair need to enter
    the stamp exchange, and that id set is proportional to the DUPLICATE
    set, not the corpus. When the pair count is small enough that the
    distinct-id array fits a broadcast (≤ ``semi_join_max_ids``), the ids
    are collected once (bounded by the guard, unlike an unbounded label
    loop), broadcast via ray.put, and the corpus side is mask-filtered with
    a vectorized binary search BEFORE the exchange — at a 20-30% dup rate
    this keeps 70-80% of a 100 TB corpus's text bytes out of the exchange.
    Larger pair sets fall back to the full-corpus repartition join.
    Returns (id_a, id_b, est_jaccard, *extra_cols).
    """
    import ray

    pairs_mat = pairs_ds.materialize()
    ids_ref = None
    if pairs_mat.count() * 2 <= semi_join_max_ids:
        # numpy-native unique over the arrow columns (no Python int boxing),
        # sorted once here so the probe side can binary-search per batch
        chunks = [
            np.concatenate([b["id_a"].to_numpy(zero_copy_only=False),
                            b["id_b"].to_numpy(zero_copy_only=False)])
            for b in pairs_mat.select_columns(["id_a", "id_b"]).iter_batches(
                batch_size=65536, batch_format="pyarrow")]
        ids_sorted = (np.unique(np.concatenate(chunks).astype(np.int64))
                      if chunks else np.array([], dtype=np.int64))
        ids_ref = ray.put(ids_sorted)

    # side: 0 = document text row, 1 = ref of the pair's id_a, 2 = of id_b.
    # Int columns of the other side pad with 0, not null: Ray's sort
    # shuffle widens nullable ints to float64 in transit (stages/joins.py)
    def pair_refs(batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        a = _np64(batch["id_a"])
        b = _np64(batch["id_b"])
        ej = np.full(2 * n, np.nan)
        ej_mask = np.ones(2 * n, bool)  # True = null
        if "est_jaccard" in batch.column_names:
            est = _np(batch["est_jaccard"]).astype(np.float64)
            ej[0::2] = est
            ej_mask[0::2] = np.isnan(est)
        return pa.table({"id": pa.array(np.stack([a, b], 1).reshape(-1)),
                         "id_a": pa.array(np.repeat(a, 2)),
                         "id_b": pa.array(np.repeat(b, 2)),
                         "side": pa.array(np.tile(np.array([1, 2], np.int8),
                                                  n)),
                         "text": pa.nulls(2 * n, pa.string()),
                         "est_jaccard": pa.array(ej, pa.float64(),
                                                 mask=ej_mask)})

    def doc_rows(batch: pa.Table) -> pa.Table:
        nn = batch.num_rows
        zero = pa.array(np.zeros(nn, np.int64))
        return pa.table({"id": pc.cast(batch[id_col], pa.int64()),
                         "id_a": zero, "id_b": zero,
                         "side": pa.array(np.zeros(nn, np.int8)),
                         "text": pc.cast(batch[text_col], pa.string()),
                         "est_jaccard": pa.nulls(nn, pa.float64())})

    def stamp(t: pa.Table) -> pa.Table:
        is_doc = _np(t["side"]) == 0
        docs = t.filter(pa.array(is_doc))
        refs = t.filter(pa.array(~is_doc))
        row, found = _first_index(_np64(docs["id"]), _np64(refs["id"]))
        refs = refs.filter(pa.array(found))
        return refs.set_column(refs.schema.get_field_index("text"), "text",
                               docs["text"].take(row[found]))

    def verify(t: pa.Table) -> pa.Table:
        side = t["side"]
        a_side = t.filter(pc.equal(side, 1)).select(
            ["id_a", "id_b", "text", "est_jaccard"])
        b_side = t.filter(pc.equal(side, 2)).select(["id_a", "id_b", "text"]) \
            .rename_columns(["id_a", "id_b", "text_b"])
        joined = a_side.join(b_side, ["id_a", "id_b"], join_type="inner")
        kernel = kernel_factory()
        ida = joined["id_a"].to_pylist()
        idb = joined["id_b"].to_pylist()
        extra = list(zip(*(kernel(x, ta, y, tb) for x, ta, y, tb in zip(
            ida, joined["text"].to_pylist(), idb,
            joined["text_b"].to_pylist())))) or [[]] * len(extra_cols)
        return pa.table(
            {"id_a": pa.array(ida, pa.int64()),
             "id_b": pa.array(idb, pa.int64()),
             "est_jaccard": joined["est_jaccard"],
             **{name: pa.array(vals, typ) for (name, typ), vals
                in zip(extra_cols.items(), extra)}})

    def filter_members(batch: pa.Table) -> pa.Table:
        # membership via binary search against the PRE-SORTED broadcast ids
        # (np.isin would re-sort the whole id array per batch)
        ids_sorted = ray.get(ids_ref)
        keys = batch[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
        if len(ids_sorted) == 0:
            return batch.slice(0, 0)
        pos = np.searchsorted(ids_sorted, keys)
        pos_c = np.minimum(pos, len(ids_sorted) - 1)
        mask = ids_sorted[pos_c] == keys
        return batch.filter(pa.array(mask))

    refs = pairs_mat.map_batches(pair_refs, batch_format="pyarrow")
    if ids_ref is not None:
        docs_ds = docs_ds.map_batches(filter_members, batch_format="pyarrow")
    docs = docs_ds.map_batches(doc_rows, batch_format="pyarrow")
    ref_schema = {"id": pa.int64(), "id_a": pa.int64(), "id_b": pa.int64(),
                  "side": pa.int8(), "text": pa.string(),
                  "est_jaccard": pa.float64()}
    stamped = keyed_exchange(refs.union(docs), ["id"], stamp, ref_schema,
                             n_coarse)
    return keyed_exchange(
        stamped, ["id_a", "id_b"], verify,
        {**_PAIR_IDS, "est_jaccard": pa.float64(), **extra_cols}, n_coarse)


def verify_pairs_ngram(pairs_ds, docs_ds, id_col: str = "doc_id",
                       text_col: str = "text", n: int = SHINGLE_N,
                       n_coarse: int | None = None,
                       semi_join_max_ids: int = 5_000_000):
    """Attach exact n-gram Jaccard to candidate pairs, fully distributed
    (the _verify_pairs_core repartition join; see its docstring for the
    scale rationale). Returns (id_a, id_b, est_jaccard, jaccard)."""
    def kernel_factory():
        # per-DOC gram-set memo: a doc in k pairs of this partition builds
        # its n-gram set once, not k times (the gram split dominates the
        # kernel; texts repeat heavily in near-dup pair sets). BOUNDED: a
        # partition full of distinct large docs must not hold every gram
        # set to completion — past the cap, misses recompute instead
        gram_cache: dict[int, set] = {}
        GRAM_CACHE_MAX = 4096

        def grams_of(did: int, text) -> set:
            g = gram_cache.get(did)
            if g is None:
                g = ngram_set(text, n)
                if len(gram_cache) < GRAM_CACHE_MAX:
                    gram_cache[did] = g
            return g

        def kernel(x, ta, y, tb):
            ga, gb = grams_of(x, ta), grams_of(y, tb)
            return (1.0 if not ga and not gb
                    else len(ga & gb) / len(ga | gb),)

        return kernel

    return _verify_pairs_core(pairs_ds, docs_ds, id_col, text_col, n_coarse,
                              semi_join_max_ids, kernel_factory,
                              {"jaccard": pa.float64()})


def levenshtein_bytes(a: "str | None", b: "str | None") -> int:
    """Exact Levenshtein distance over UTF-8 BYTES. Byte semantics (not
    codepoints) are deliberate: DuckDB's ``levenshtein()`` is byte-based
    (``levenshtein('café','cafe') = 2``), so this kernel stays
    oracle-equal beyond ASCII. Vectorized row DP: the Python loop runs
    over the SHORTER string, each row is O(len) numpy ops; the
    sequential insertion relaxation cur[j] = min(cand[j], cur[j-1]+1)
    is exact as a running-min transform on cand[j]-j."""
    ab = (a or "").encode("utf-8")
    bb = (b or "").encode("utf-8")
    if ab == bb:
        return 0
    la, lb = len(ab), len(bb)
    if la == 0 or lb == 0:
        return la or lb
    if la > lb:
        ab, bb, la, lb = bb, ab, lb, la
    bv = np.frombuffer(bb, np.uint8).astype(np.int64)
    prev = np.arange(lb + 1, dtype=np.int64)
    jix = np.arange(1, lb + 1, dtype=np.int64)
    for i in range(1, la + 1):
        sub = prev[:-1] + (bv != ab[i - 1])
        cand = np.minimum(prev[1:] + 1, sub)
        # cur[j] = min_{k<=j} (cand-with-cur0[k] + (j-k)); cand-j running min
        f = np.minimum.accumulate(
            np.concatenate(([np.int64(i)], cand - jix)))
        prev = np.concatenate(([np.int64(i)], f[1:] + jix))
    return int(prev[-1])


def verify_pairs_edit(pairs_ds, docs_ds, id_col: str = "doc_id",
                      text_col: str = "text", near_sim: float = 0.9,
                      n_coarse: int | None = None,
                      semi_join_max_ids: int = 5_000_000):
    """Attach the exact Levenshtein edit distance to candidate pairs —
    the edit-level verify stage (LSH recall, character-exact precision;
    catches near-dups whose edits are character-local rather than
    token-local, where n-gram Jaccard over-penalizes). Same
    _verify_pairs_core repartition join as verify_pairs_ngram.

    Returns (id_a, id_b, est_jaccard, edit_dist, edit_sim, is_near):
    edit_dist is byte-exact Levenshtein (levenshtein_bytes — DuckDB
    ``levenshtein()`` parity), edit_sim = 1 − dist/max(octet_len) is one
    IEEE division and one subtraction of exact integers (bit-equal in
    SQL), both-empty pairs score 1.0, and is_near = edit_sim ≥
    ``near_sim``."""
    def kernel_factory():
        enc_cache: dict[int, int] = {}
        ENC_CACHE_MAX = 65536

        def octets(did: int, text) -> int:
            v = enc_cache.get(did)
            if v is None:
                v = len((text or "").encode("utf-8"))
                if len(enc_cache) < ENC_CACHE_MAX:
                    enc_cache[did] = v
            return v

        def kernel(x, ta, y, tb):
            dist = levenshtein_bytes(ta, tb)
            m = max(octets(x, ta), octets(y, tb))
            sim = 1.0 - dist / m if m else 1.0
            return dist, sim, sim >= near_sim

        return kernel

    return _verify_pairs_core(pairs_ds, docs_ds, id_col, text_col, n_coarse,
                              semi_join_max_ids, kernel_factory,
                              {"edit_dist": pa.int64(),
                               "edit_sim": pa.float64(),
                               "is_near": pa.bool_()})


# ------------------------------------- winnowing fingerprint collisions


def fingerprint_collision_pairs(ds, id_col: str = "doc_id",
                                text_col: str = "text",
                                threshold: float = 0.5,
                                n_coarse: int | None = None,
                                n_coarse_pairs: int | None = None):
    """Substring-overlap near-dup candidates (MOSS-style): doc pairs whose
    winnowing-fingerprint overlap coefficient
    |A ∩ B| / min(|A|, |B|) ≥ ``threshold``
    (text_analysis.winnow_fingerprints — Schleimer et al., SIGMOD'03).
    The overlap coefficient, not a raw shared count, separates true
    partial copies from templated boilerplate: on the synthetic corpus
    random pairs peak at ~0.35 while clones sit at 1.0.

    Fingerprints shared by > MAX_BUCKET docs are DISCRIMINATIVE-filtered
    (ubiquitous boilerplate substrings — the usual salt guard), and the
    overlap is computed consistently over the SURVIVING fingerprints on
    both sides: each fp's full bucket lives in exactly one partition, so
    per-doc effective fp counts are per-partition partials that ride the
    same doc-keyed passes as the pair partials below — exact clones score
    1.0 by construction regardless of how much boilerplate they carry.

    Exactly THREE keyed exchanges end to end (each unavoidable: one per
    co-location the algorithm needs):
      1. on fp — the bucket walk (full explode volume);
      2. on id_a — pair partials AND per-doc eff partials co-locate by
         the pair's LEFT doc, so one group fn both finishes the pair sums
         and attaches eff_a (the doc key of an eff row IS its id_a);
      3. on doc (a pair's id_b, an eff row's own doc) — eff rows meet the
         pairs again to attach eff_b, compute the overlap, and filter.
    The pair rows exchanged in 2 and 3 are the MAX_BUCKET-bounded
    candidate set — the same volume the pair-sum shuffle alone carried in
    the previous formulation, which additionally paid two doc-keyed hash
    joins and two materialization barriers on top (measured 3.3 s → 1.6 s at
    sf0.01×2, 32 CPUs). Returns (id_a, id_b, n_shared, overlap),
    id_a < id_b."""
    from .text_analysis import winnow_fingerprints

    def explode(batch: pa.Table) -> pa.Table:
        ids = batch[id_col].to_pylist()
        texts = batch[text_col].to_pylist()
        out_id, out_fp = [], []
        for i, t in zip(ids, texts):
            for f in set(winnow_fingerprints(t or "")):
                out_id.append(i)
                out_fp.append(f)
        return pa.table({id_col: pa.array(out_id, pa.int64()),
                         "fp": pa.array(out_fp, pa.int64())})

    def finalize(ida, idb, n, eff_a, eff_b) -> pa.Table:
        overlap = n / np.maximum(np.minimum(eff_a, eff_b), 1)
        keep = overlap >= threshold
        return pa.table({"id_a": ida[keep], "id_b": idb[keep],
                         "n_shared": n[keep], "overlap": overlap[keep]})

    # the pair/count table is ~100x smaller than the fp explode — size its
    # two doc-keyed passes separately so they don't pay the explode tier's
    # per-partition fixed costs
    return _fp_overlap_pairs(
        ds.map_batches(explode, batch_format="pyarrow"), id_col=id_col,
        cap=MAX_BUCKET, n_coarse=n_coarse,
        ncp=n_coarse_pairs or n_coarse, finalize=finalize,
        out_schema={**_PAIR_IDS, "n_shared": pa.int64(),
                    "overlap": pa.float64()})


def _fp_overlap_pairs(exploded, *, id_col: str, cap: int,
                      n_coarse: "int | None", ncp: "int | None",
                      finalize, out_schema: dict):
    """The shared 3-exchange fingerprint-overlap machinery (see
    fingerprint_collision_pairs for the exchange accounting):
    ``exploded`` carries per-doc DISTINCT (id_col, fp) rows. Buckets
    larger than ``cap`` are discriminative-filtered consistently from BOTH
    the pair walk and the per-doc effective counts. ``finalize(id_a, id_b,
    n_shared, eff_a, eff_b)`` receives the resolved numpy columns per
    id_b group and returns the scored, filtered ``out_schema`` table.

    Rows with ``id_b = -1`` carry a doc's effective fp count (``id_a`` is
    the doc); ``doc`` names the document a row must meet next."""

    def pairs_and_counts(t: pa.Table) -> pa.Table:
        # the full bucket of every fp is in THIS group, so its
        # doc-frequency is exact, not partial
        t, starts, sizes = _runs(t, ["fp"], ["fp"])
        ids = _np64(t[id_col])
        eff_ids, eff_n = np.unique(ids[np.repeat(sizes <= cap, sizes)],
                                   return_counts=True)
        # all-pairs per surviving bucket, fully vectorized BY SIZE CLASS:
        # every bucket of size s contributes its C(s,2) triu pairs in one
        # gather — no per-pair Python
        out_a, out_b = [], []
        for s in np.unique(sizes[(sizes >= 2) & (sizes <= cap)]):
            mat = ids[starts[sizes == s][:, None] + np.arange(s)[None, :]]
            iu, ju = np.triu_indices(int(s), k=1)
            A, B = mat[:, iu].ravel(), mat[:, ju].ravel()
            out_a.append(np.minimum(A, B))
            out_b.append(np.maximum(A, B))
        (pa_, pb), (pn,) = _reduce_by(
            [_cat(out_a, np.int64), _cat(out_b, np.int64)],
            [np.ones(sum(map(len, out_a)), np.int64)])
        return pa.table({
            "id_a": np.concatenate([pa_, eff_ids]),
            "id_b": np.concatenate([pb, np.full(len(eff_ids), -1)]),
            "n_shared": np.concatenate([pn, eff_n]).astype(np.int64)})

    def sum_and_attach_a(t: pa.Table) -> pa.Table:
        # grouped on id_a. An eff row's doc IS its id_a, so the exact
        # per-doc eff count and every partial of each (id_a, *) pair
        # finish HERE in one dispatch.
        (a, b), (n,) = _reduce_by([_np64(t["id_a"]), _np64(t["id_b"])],
                                  [_np64(t["n_shared"])])
        eff = b < 0
        row, _ = _first_index(a[eff], a[~eff])
        eff_a = np.zeros(len(a), np.int64)
        eff_a[~eff] = n[eff][row]
        # pairs travel on to their id_b's group, eff rows to their doc's
        return pa.table({"id_a": a, "id_b": b, "n_shared": n,
                         "eff_a": eff_a, "doc": np.where(eff, a, b)})

    def attach_b_and_finalize(t: pa.Table) -> pa.Table:
        a, b = _np64(t["id_a"]), _np64(t["id_b"])
        n, eff_a = _np64(t["n_shared"]), _np64(t["eff_a"])
        eff = b < 0
        row, _ = _first_index(a[eff], b[~eff])
        p = ~eff
        return finalize(a[p], b[p], n[p], eff_a[p], n[eff][row])

    counts = keyed_exchange(
        exploded, ["fp"], pairs_and_counts,
        {**_PAIR_IDS, "n_shared": pa.int64()}, n_coarse)
    attached = keyed_exchange(
        counts, ["id_a"], sum_and_attach_a,
        {**_PAIR_IDS, "n_shared": pa.int64(), "eff_a": pa.int64(),
         "doc": pa.int64()}, ncp)
    return keyed_exchange(attached, ["doc"], attach_b_and_finalize,
                          out_schema, ncp)


CONT_DF_CAP = 16     # shingles in more docs are boilerplate: excluded
CONT_MIN_GRAMS = 3   # both sides need this many effective shingles


def shingle_containment_pairs(ds, id_col: str = "doc_id",
                              text_col: str = "text",
                              threshold: float = 0.9,
                              n_coarse: int | None = None,
                              n_coarse_pairs: int | None = None):
    """ASYMMETRIC containment near-dups (Broder 1997 distinguishes
    resemblance — Jaccard — from CONTAINMENT c(A→B) = |S(A)∩S(B)|/|S(A)|):
    the subset/superset duplicate class MinHash misses — a quote, an
    article embedded in a longer page, a doc plus appended boilerplate —
    scores c ≈ 1 on the contained side while symmetric Jaccard can sit
    arbitrarily low. Shingles are DISTINCT md5-hash32 word 3-grams
    (md5_shingle32 — the value-exact SQL-reproducible domain).

    Two rules are part of the operator SEMANTICS and mirrored exactly in
    the SQL oracle (so nothing is a silent engine-side cap):
    - document-frequency cap ``CONT_DF_CAP``: shingles present in more
      than 16 docs are boilerplate-filtered from both intersections and
      doc sizes — this also bounds the per-shingle pair fan-out at
      C(16,2), so the pair walk is exact, never truncated;
    - minimum size ``CONT_MIN_GRAMS``: pairs where either side has < 3
      effective shingles are dropped (one-shingle docs are 'contained'
      in anything sharing that shingle — noise, not duplication).

    Rides the shared 3-shuffle _fp_overlap_pairs machinery
    (fingerprint_collision_pairs' accounting): one full-explode bucket
    shuffle + two candidate-bounded doc-keyed passes. Returns
    (id_a, id_b, n_shared, cont_a, cont_b), id_a < id_b, where
    cont_a = n_shared / |S(id_a)| — each a single IEEE division of exact
    ints, bit-equal to the SQL."""
    def explode(batch: pa.Table) -> pa.Table:
        ids = batch[id_col].to_pylist()
        texts = batch[text_col].to_pylist()
        out_id, out_fp = [], []
        for i, t in zip(ids, texts):
            fps = np.unique(md5_shingle32(t))
            out_id.extend([i] * len(fps))
            out_fp.append(fps)
        return pa.table({id_col: pa.array(out_id, pa.int64()),
                         "fp": pa.array(_cat(out_fp, np.int64))})

    def finalize(ida, idb, n, eff_a, eff_b) -> pa.Table:
        cont_a = n / np.maximum(eff_a, 1)
        cont_b = n / np.maximum(eff_b, 1)
        keep = ((np.maximum(cont_a, cont_b) >= threshold)
                & (eff_a >= CONT_MIN_GRAMS) & (eff_b >= CONT_MIN_GRAMS))
        return pa.table({"id_a": ida[keep], "id_b": idb[keep],
                         "n_shared": n[keep], "cont_a": cont_a[keep],
                         "cont_b": cont_b[keep]})

    return _fp_overlap_pairs(
        ds.map_batches(explode, batch_format="pyarrow"), id_col=id_col,
        cap=CONT_DF_CAP, n_coarse=n_coarse,
        ncp=n_coarse_pairs or n_coarse, finalize=finalize,
        out_schema={**_PAIR_IDS, "n_shared": pa.int64(),
                    "cont_a": pa.float64(), "cont_b": pa.float64()})


# ------------------------------------------------- embedding near-dup (LSH)

N_PLANES = 16


def _planes(dim: int) -> np.ndarray:
    # shared with the ANN module — ONE sign-LSH plane generator keeps
    # bucket assignments seed-compatible across dedup and similarity search
    from .similarity import _planes as ann_planes

    return ann_planes(dim, N_PLANES)


def embedding_near_pairs(ds, id_col: str = "vec_id", vec_col: str = "embedding",
                         threshold: float = 0.95, brute: bool = False,
                         n_coarse: int | None = None):
    """Embedding-cosine near-dup pairs.

    Scale path: sign-LSH over 16 fixed hyperplanes → bucket groupby →
    within-bucket pairwise cosine. Brute path (oracle-sized inputs): single
    pairwise pass per group of everything (bucket = 0).
    """
    def bucket_rows(batch: pa.Table) -> pa.Table:
        # null-row-dropping Arrow flatten (stages/similarity) — a null
        # embedding can't participate and must not abort the job
        from .similarity import _batch_matrix

        ids, vecs = _batch_matrix(batch, id_col=id_col, emb_col=vec_col)
        if len(ids) == 0:
            return pa.table({id_col: pa.array([], pa.int64()),
                             "bucket": pa.array([], pa.int64()),
                             "unit": pa.array([], pa.list_(pa.float64()))})
        norms = np.linalg.norm(vecs, axis=1, keepdims=True)
        norms[norms == 0] = 1.0
        unit = vecs / norms
        if brute:
            buckets = np.zeros(len(ids), dtype=np.int64)
        else:
            planes = _planes(vecs.shape[1])
            bits = (unit @ planes.T) > 0
            buckets = (bits.astype(np.uint64) << np.arange(N_PLANES, dtype=np.uint64)).sum(axis=1).astype(np.int64)
        return pa.table({id_col: pa.array(ids, pa.int64()),
                         "bucket": pa.array(buckets, pa.int64()),
                         "unit": pa.array(list(unit), pa.list_(pa.float64()))})

    def pairs_in_group(t: pa.Table) -> pa.Table:
        t, starts, sizes = _runs(t, ["bucket", id_col], ["bucket"])
        ids = _np64(t[id_col])
        unit = _np(t["unit"].combine_chunks().flatten()) \
            .reshape(t.num_rows, -1)
        ida, idb, cos = [], [], []
        for s, e in zip(starts[sizes >= 2], (starts + sizes)[sizes >= 2]):
            # first row per id (the stable sort keeps input order)
            first = np.ones(e - s, bool)
            first[1:] = ids[s + 1:e] != ids[s:e - 1]
            if first.sum() < 2:
                continue
            bid = ids[s:e][first]
            mat = unit[s:e][first]
            sims = mat @ mat.T
            ii, jj = np.triu_indices(len(bid), k=1)
            keep = sims[ii, jj] >= threshold
            ida.append(bid[ii[keep]])
            idb.append(bid[jj[keep]])
            cos.append(sims[ii, jj][keep])
        return pa.table({"id_a": _cat(ida, np.int64),
                         "id_b": _cat(idb, np.int64),
                         "cosine": _cat(cos, np.float64)})

    return keyed_exchange(
        ds.map_batches(bucket_rows, batch_format="pyarrow"), ["bucket"],
        pairs_in_group, {**_PAIR_IDS, "cosine": pa.float64()}, n_coarse)


# -------------------------------------------- duplicate-cluster assignment

MAX_CC_ROUNDS = 64  # safety cap for the convergence loop: propagation is
# one hop per round, so rounds needed = eccentricity of the component min
# (≤ diameter); real dup graphs are dense cliques/short chains that
# converge in 2-4. Hitting the cap raises instead of silently returning
# unconverged labels (which would break the value-exact keep oracles).


def dup_clusters(pairs_ds, n_iter: "int | None" = None):
    """Connected components over the dup-PAIR graph by iterative min-label
    propagation — FULLY DISTRIBUTED (no driver-side label materialization).

    ``n_iter=None`` (default) iterates to the DISTRIBUTED FIXPOINT
    (changed == 0), raising RuntimeError past MAX_CC_ROUNDS — labels are
    true component minima, matching the recursive-CTE SQL oracles even on
    long near-dup chains (hamming adjacency is not transitive, so chains
    deeper than any fixed hop count exist in principle). An explicit int
    bounds the rounds instead: label = min id reachable within n_iter
    hops, the round-3 behavior.

    Per round, label(src) ← min over neighbors' labels. The relabel step is
    a dst-keyed hash join: edges (keyed by dst) and the current label
    table (keyed by node) meet in one keyed exchange on ``key`` as a
    tagged union, and resolve with a sorted-key lookup inside each group.
    A partial min per src inside the join group (combiner) shrinks the
    second exchange; a src-keyed exchange finishes the min and compares
    against the previous label.

    Convergence is a distributed sum over a per-row ``changed`` flag:
    propagation is monotone (labels only decrease; the self-edge keeps the
    current label as a candidate), so changed == 0 ⇔ fixpoint. Each round's
    label table is materialized (proportional to the duplicate set, never
    the corpus) so rounds don't re-execute prior lineage.

    Node ids must be non-negative: -1 is the null sentinel in the tagged
    union (doc ids here are always >= 0).

    The coarse partition count adapts to the edge count (~100k edges per
    partition, capped at N_COARSE) so tiny graphs don't pay 256-way shuffle
    fixed costs while 100 TB-scale graphs still spread across the cluster.

    Returns (src, label = min id reachable within n_iter hops).
    """
    import ray.data

    def explode(batch: pa.Table) -> pa.Table:
        # edges both directions + self edges (self edge ⇒ every node is its
        # own label candidate and appears as a join key in its partition)
        a = batch["id_a"].to_numpy(zero_copy_only=False).astype(np.int64)
        b = batch["id_b"].to_numpy(zero_copy_only=False).astype(np.int64)
        src = np.concatenate([a, b, a, b])
        dst = np.concatenate([b, a, a, b])
        return pa.table({
            "kind": pa.array(np.zeros(len(src), np.int8)),
            "src": pa.array(src),
            "key": pa.array(dst),  # join/partition key = dst
            "label": pa.array(np.full(len(src), -1, np.int64))})

    edges = pairs_ds.map_batches(explode, batch_format="pyarrow")
    edges = edges.materialize()  # pair graph only; reused every round
    n_edges = edges.count()
    if n_edges == 0:
        # duplicate-free corpus → empty pair graph; keep the (src, label)
        # schema so downstream sorts/selects still work
        return ray.data.from_arrow(pa.table({
            "src": pa.array([], pa.int64()), "label": pa.array([], pa.int64())}))
    n_coarse = min(N_COARSE, n_edges // 100_000 + 1)
    if edges.num_blocks() > 4 * n_coarse:
        # upstream pair generators emit one tiny block per coarse shuffle
        # partition; every later execution pays a per-block fixed cost
        # (~10 ms/block × rounds), so coalesce once to the round block count
        edges = edges.repartition(n_coarse).materialize()

    def tag_labels(batch: pa.Table) -> pa.Table:
        node = batch["src"].to_numpy(zero_copy_only=False).astype(np.int64)
        lbl = batch["label"].to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table({
            "kind": pa.array(np.ones(len(node), np.int8)),
            "src": pa.array(np.full(len(node), -1, np.int64)),
            "key": pa.array(node),
            "label": pa.array(lbl)})

    def join_relabel(t: pa.Table) -> pa.Table:
        # one group: edges (kind 0) ⨝ labels (kind 1) on key. Round 1
        # has no label rows — a key without one labels itself, so the
        # identity labeling is implicit and needs no separate initial pass.
        e = _np(t["kind"]) == 0
        key_all = _np64(t["key"])
        src, key = _np64(t["src"])[e], key_all[e]
        row, found = _first_index(key_all[~e], key)
        label = key.copy()
        label[found] = _np64(t["label"])[~e][row[found]]
        # combiner: partial min per src inside the join group shrinks the
        # second exchange to ≤ one row per (src, group)
        (part_src,), (part,) = _reduce_by([src], [label], np.minimum)
        # self-edge rows carry the PREVIOUS label of src (identity in r1)
        own = src == key
        (old_src,), (old,) = _reduce_by([src[own]], [label[own]],
                                        np.minimum)
        return pa.table({
            "src": np.concatenate([part_src, old_src]),
            "label": np.concatenate([part, old]),
            "is_old": np.concatenate([np.zeros(len(part), np.int8),
                                      np.ones(len(old), np.int8)])})

    def finalize_min(t: pa.Table) -> pa.Table:
        src, label = _np64(t["src"]), _np64(t["label"])
        old = _np(t["is_old"]) == 1
        # the old label is among the candidates (self-edge)
        (node,), (new,) = _reduce_by([src], [label], np.minimum)
        row, found = _first_index(src[old], node)
        prev = new.copy()
        prev[found] = label[old][row[found]]
        return pa.table({"src": node, "label": new,
                         "changed": (new < prev).astype(np.int64)})

    labels = None
    rounds = n_iter if n_iter is not None else MAX_CC_ROUNDS
    converged = False
    for _ in range(rounds):
        tagged = edges if labels is None else edges.union(
            labels.map_batches(tag_labels, batch_format="pyarrow"))
        joined = keyed_exchange(
            tagged, ["key"], join_relabel,
            {"src": pa.int64(), "label": pa.int64(), "is_old": pa.int8()},
            n_coarse)
        # never empty: every edge endpoint gets a label
        labels = keyed_exchange(
            joined, ["src"], finalize_min,
            {"src": pa.int64(), "label": pa.int64(), "changed": pa.int64()},
            n_coarse)
        changed = labels.sum("changed", ignore_nulls=True) or 0
        if changed == 0:
            converged = True
            break  # fixpoint — typical dup graphs (pairs, small clusters)
            # stabilize after round 2; skip remaining shuffles
    if n_iter is None and not converged:
        raise RuntimeError(
            f"dup_clusters did not converge within {MAX_CC_ROUNDS} rounds "
            f"({changed} labels still changing) — pathological chain "
            "diameter; pass an explicit n_iter to accept bounded-hop labels")
    return labels.drop_columns(["changed"])


# --------------------------------------------------------- line-level dedup

LINE_MIN_CHARS = 30


def line_dedup(ds, id_col: str = "doc_id", text_col: str = "text",
               min_chars: int = LINE_MIN_CHARS,
               n_coarse: int | None = None,
               n_coarse_docs: int | None = None):
    """C4-style line-level dedup across the WHOLE corpus: a line of
    ``min_chars``+ characters survives only at its first occurrence
    (lowest (doc_id, line_idx)); shorter lines always survive (blank
    lines and headers are structure, not boilerplate — and exempting
    them also keeps the hot-key skew of ubiquitous short strings out of
    the line shuffle). Documents are reassembled in original line order.
    Returns (id, clean_text, n_removed). C4 (Raffel et al., JMLR'20 §2.2)
    applies the same rule at three-sentence granularity.

    Exactly TWO keyed exchanges:
      1. line-keyed — every copy of an eligible line lands in one group,
         where a vectorized sort marks the first occurrence. INELIGIBLE
         lines ride the same exchange keyed by (line, doc) instead: they
         need no co-location (always kept), and keying them by value
         alone would put every blank line in one group.
      2. doc-keyed (``n_coarse_docs`` groups) — lines regroup per
         document and rejoin in line_idx order.
    """
    def explode(batch: pa.Table) -> pa.Table:
        text = pc.fill_null(batch[text_col], "")
        lines = pc.split_pattern(text, "\n")
        lines = lines.combine_chunks() \
            if isinstance(lines, pa.ChunkedArray) else lines
        flat = lines.flatten()
        lens = pc.list_value_length(lines).to_numpy().astype(np.int64)
        ids = batch[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
        total = int(lens.sum())
        ends = np.cumsum(lens)
        idxs = np.arange(total, dtype=np.int64) - np.repeat(ends - lens, lens)
        rids = np.repeat(ids, lens)
        nch = pc.utf8_length(flat).to_numpy().astype(np.int64)
        return _unit_rows(rids, idxs, flat, nch >= min_chars)

    return _first_occurrence_dedup(ds, explode, id_col, "\n", n_coarse,
                                   n_coarse_docs or n_coarse)


def _unit_rows(rids: np.ndarray, idxs: np.ndarray, units: pa.Array,
               elig: np.ndarray) -> pa.Table:
    """(_id, line_idx, line, elig, spread) unit rows. The exchange keys on
    (line, spread): ``spread`` is 0 on eligible units, so every copy of
    one meets in one group, and the doc id on the always-kept rest, so
    ubiquitous short units (blank lines) spread over groups instead of
    piling into one."""
    return pa.table({
        "_id": pa.array(rids, pa.int64()),
        "line_idx": pa.array(idxs, pa.int64()),
        "line": units,
        "elig": pa.array(elig),
        "spread": pa.array(np.where(elig, 0, rids))})


def _first_occurrence_dedup(ds, explode, id_col: str, join_sep: str,
                            n_coarse: "int | None", ncd: "int | None"):
    """Shared spine of line_dedup / sentence_dedup: ``explode`` emits
    _unit_rows; eligible units survive only at their first (doc_id, idx)
    occurrence; docs reassemble in unit order joined by ``join_sep``. Two
    keyed exchanges (unit-keyed resolve, doc-keyed reassemble), exactly as
    documented on line_dedup."""

    def resolve(t: pa.Table) -> pa.Table:
        keep = np.ones(t.num_rows, bool)
        e = np.flatnonzero(_np(t["elig"]))
        if len(e):
            el, starts, _ = _runs(
                t.take(e).append_column("_row", pa.array(e)),
                ["line", "_id", "line_idx"], ["line"])
            first = np.zeros(len(e), bool)
            first[starts] = True
            keep[_np(el["_row"])] = first
        return t.select(["_id", "line_idx", "line"]) \
            .append_column("keep", pa.array(keep))

    def reassemble(t: pa.Table) -> pa.Table:
        t, starts, sizes = _runs(t, ["_id", "line_idx"], ["_id"])
        keep = _np(t["keep"])
        lines = _np(t["line"])
        texts = [join_sep.join(lines[s:s + n][keep[s:s + n]])
                 for s, n in zip(starts, sizes)]
        return pa.table({
            id_col: _np64(t["_id"])[starts],
            "clean_text": pa.array(texts, pa.string()),
            "n_removed": np.add.reduceat(~keep, starts).astype(np.int64)})

    schema = {id_col: pa.int64(), "clean_text": pa.string(),
              "n_removed": pa.int64()}
    resolved = keyed_exchange(
        ds.map_batches(explode, batch_format="pyarrow"), ["line", "spread"],
        resolve, {"_id": pa.int64(), "line_idx": pa.int64(),
                  "line": pa.string(), "keep": pa.bool_()}, n_coarse)
    return nonempty_or_typed_table(
        keyed_exchange(resolved, ["_id"], reassemble, schema, ncd), schema)


SENTENCE_MARK = "\x01"
SENTENCE_SPLIT_PAT = r"([.!?])[ \t\n\r\f\v]+"
SENTENCE_TRIM_CHARS = " \t\n\r\f\v"


def sentence_dedup(ds, id_col: str = "doc_id", text_col: str = "text",
                   min_chars: int = LINE_MIN_CHARS,
                   n_coarse: int | None = None,
                   n_coarse_docs: int | None = None):
    """C4's actual granularity (Raffel et al., JMLR'20 §2.2 deduplicates
    three-SENTENCE spans; line_dedup is the per-line variant): a sentence
    of ``min_chars``+ characters survives only at its first (doc_id,
    sentence_idx) occurrence; docs reassemble in sentence order joined by
    a single space.

    The sentence rule is deliberately EXPLICIT-ASCII so both sides are
    exact: mark ``([.!?])[ \\t\\n\\r\\f\\v]+`` boundaries by rewriting to
    ``\\1`` + chr(1) (RE2 backref replace — vectorized Arrow kernel, no
    per-row Python), split on chr(1), trim the same six-char whitespace
    set, drop empties. A chr(1) already present in a document acts as a
    boundary on BOTH sides (engine and SQL share the mark-and-split rule
    verbatim, so parity holds even for pathological inputs). Unlike the
    reference F1 splitter this avoids unicode ``\\s``/strip semantics —
    RE2 has no lookbehind and ASCII-vs-unicode whitespace would silently
    diverge between re and DuckDB.

    Same two-shuffle scale shape as line_dedup (the shared
    _first_occurrence_dedup spine)."""
    def explode(batch: pa.Table) -> pa.Table:
        text = pc.fill_null(batch[text_col], "")
        marked = pc.replace_substring_regex(
            text, pattern=SENTENCE_SPLIT_PAT,
            replacement="\\1" + SENTENCE_MARK)
        lists = pc.split_pattern(marked, SENTENCE_MARK)
        lists = lists.combine_chunks() \
            if isinstance(lists, pa.ChunkedArray) else lists
        flat = pc.utf8_trim(lists.flatten(), SENTENCE_TRIM_CHARS)
        lens = pc.list_value_length(lists).to_numpy().astype(np.int64)
        ids = batch[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
        rids = np.repeat(ids, lens)
        nch = pc.utf8_length(flat).to_numpy().astype(np.int64)
        nonempty = nch > 0
        flat = flat.filter(pa.array(nonempty))
        rids = rids[nonempty]
        nch = nch[nonempty]
        # within-doc index among the KEPT (non-empty) sentences: nonempty
        # rows stay in flat (doc-major) order, so consecutive equal rids
        # form one doc segment — a running arange per segment reindexes
        if len(rids):
            seg = np.flatnonzero(np.diff(rids)) + 1
            starts = np.concatenate(([0], seg))
            seg_len = np.diff(np.concatenate((starts, [len(rids)])))
            idxs = (np.arange(len(rids), dtype=np.int64)
                    - np.repeat(starts, seg_len))
        else:
            idxs = np.array([], np.int64)
        return _unit_rows(rids, idxs, flat, nch >= min_chars)

    return _first_occurrence_dedup(ds, explode, id_col, " ", n_coarse,
                                   n_coarse_docs or n_coarse)


# --------------------------------------------- k-token window dup statistics

WINDOW_K = 13          # eval-decontamination-grade window (13 tokens)
_WIN_B1 = np.uint64(0x9E3779B97F4A7C15 | 1)   # odd → invertible mod 2^64
_WIN_B2 = np.uint64(0xC2B2AE3D27D4EB4F | 1)
_WIN_M = 1 << 64


def _window_hashes(tokens_per_doc: "list[list[str]]", k: int):
    """Rolling polynomial hash of every k-token window, vectorized over the
    FLAT token stream of a whole batch (one crc32 pass + numpy cumsum /
    cumprod; no per-window loop). See _rolling_hashes for the math.

    Returns (doc_index_per_window, within_doc_offset, h1, h2) numpy arrays.
    """
    lens = np.fromiter((len(t) for t in tokens_per_doc), np.int64,
                       len(tokens_per_doc))
    n = int(lens.sum())
    if n == 0:
        z = np.array([], np.int64)
        return z, z, z.astype(np.uint64), z.astype(np.uint64)
    flat = [tok for doc in tokens_per_doc for tok in doc]
    th = np.fromiter((zlib.crc32(t.encode()) for t in flat), np.uint64, n)
    return _rolling_hashes(th, lens, k)


def _rolling_hashes(th: np.ndarray, lens: np.ndarray, k: int):
    """Rolling polynomial hash of every k-unit window over a flat uint64
    value stream ``th`` segmented into documents by ``lens`` (units may be
    token crc32s or raw codepoints — any injective per-unit value).

    H[i] = Σ_{d<k} th[i+d] · Binv^d  (mod 2^64), computed as
    (S[i+k] − S[i]) · B^i from the prefix sums S of th·Binv^position —
    B odd makes Binv = B⁻¹ mod 2^64 exact, so window hashes at different
    offsets canonicalize to the same value. Two independent bases give a
    128-bit effective key (collision-safe at 100 TB window counts).
    Windows never cross documents: start positions whose span would leave
    the document are masked out, and the cross-doc prefix-sum terms cancel
    in the S difference for every retained window.

    Returns (doc_index_per_window, within_doc_offset, h1, h2) numpy arrays.
    """
    n = int(lens.sum())
    if n == 0:
        z = np.array([], np.int64)
        return z, z, z.astype(np.uint64), z.astype(np.uint64)

    starts = np.concatenate(([0], np.cumsum(lens)))[:-1]
    # valid window starts: offset o in [0, len_doc - k]
    nw = np.maximum(lens - k + 1, 0)
    total_w = int(nw.sum())
    if total_w == 0:
        z = np.array([], np.int64)
        return z, z, z.astype(np.uint64), z.astype(np.uint64)
    wdoc = np.repeat(np.arange(len(lens), dtype=np.int64), nw)
    wends = np.cumsum(nw)
    woff = np.arange(total_w, dtype=np.int64) - np.repeat(wends - nw, nw)
    wpos = np.repeat(starts, nw) + woff   # flat start index per window

    def poly(base: np.uint64) -> np.ndarray:
        binv = np.uint64(pow(int(base), -1, _WIN_M))
        binv_pow = np.concatenate(
            ([np.uint64(1)], np.cumprod(np.full(n, binv, np.uint64))))
        b_pow = np.concatenate(
            ([np.uint64(1)], np.cumprod(np.full(n, base, np.uint64))))
        s = np.concatenate(
            ([np.uint64(0)], np.cumsum(th * binv_pow[:n], dtype=np.uint64)))
        return (s[wpos + k] - s[wpos]) * b_pow[wpos]

    return wdoc, woff, poly(_WIN_B1), poly(_WIN_B2)


def _window_count_rows(batch: pa.Table, id_col: str, text_col: str,
                       k: int, side: int) -> pa.Table:
    """Shared window combiner for dup_window_stats / cross_window_overlap:
    (id, h1, h2) copy counts per batch plus a ``side`` tag (0 = doc side,
    1 = reference side), so the two operators key their exchanges on
    (h1, h2) identically by construction."""
    texts = batch[text_col].to_pylist()
    toks = [(t or "").split() for t in texts]
    wdoc, _, h1, h2 = _window_hashes(toks, k)
    if id_col is not None:
        ids = batch[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
        t = pa.table({"_id": pa.array(ids[wdoc]),
                      "h1": pa.array(h1.view(np.int64)),
                      "h2": pa.array(h2.view(np.int64)),
                      "one": pa.array(np.ones(len(wdoc), np.int64))})
        g = t.group_by(["_id", "h1", "h2"]).aggregate([("one", "sum")])
        cnt = g["one_sum"]
    else:
        # reference side: DISTINCT window membership, ids irrelevant
        t = pa.table({"h1": pa.array(h1.view(np.int64)),
                      "h2": pa.array(h2.view(np.int64))})
        g = t.group_by(["h1", "h2"]).aggregate([])
        g = g.append_column("_id", pa.array(
            np.zeros(g.num_rows, np.int64)))
        cnt = pa.array(np.zeros(g.num_rows, np.int64))
    return pa.table({"_id": g["_id"],
                     "side": pa.array(np.full(g.num_rows, side, np.int8)),
                     "h1": g["h1"], "h2": g["h2"], "cnt": cnt})


def _per_doc_ratio(windows, resolve, id_col: str, names: "list[str]",
                   n_coarse: "int | None", ncd: "int | None"):
    """Shared two-exchange shape of dup_window_stats and
    cross_window_overlap: ``resolve`` turns one (h1, h2)-keyed group of
    _window_count_rows into per-doc partial (_id, n_part, n_hit_part)
    rows; a doc-keyed exchange sums them into (id_col, names[0] = total,
    names[1] = hits, names[2] = hits / total)."""
    def per_doc(t: pa.Table) -> pa.Table:
        (ids,), (n, hit) = _reduce_by(
            [_np64(t["_id"])], [_np64(t["n_part"]), _np64(t["n_hit_part"])])
        return pa.table({
            id_col: ids, names[0]: n, names[1]: hit,
            # IEEE double division — bit-matches the oracle's nd*1.0/nw
            names[2]: hit.astype(np.float64) / n.astype(np.float64)})

    partials = keyed_exchange(
        windows, ["h1", "h2"], resolve,
        {"_id": pa.int64(), "n_part": pa.int64(), "n_hit_part": pa.int64()},
        n_coarse)
    schema = {id_col: pa.int64(), names[0]: pa.int64(),
              names[1]: pa.int64(), names[2]: pa.float64()}
    return nonempty_or_typed_table(
        keyed_exchange(partials, ["_id"], per_doc, schema, ncd), schema)


def _doc_partials(ids: np.ndarray, cnt: np.ndarray,
                  hit: np.ndarray) -> pa.Table:
    (u,), (n, h) = _reduce_by([ids], [cnt, np.where(hit, cnt, 0)])
    return pa.table({"_id": u, "n_part": n, "n_hit_part": h})


def dup_window_stats(ds, id_col: str = "doc_id", text_col: str = "text",
                     k: int = WINDOW_K, min_docs: int = 2,
                     n_coarse: int | None = None,
                     n_coarse_docs: int | None = None):
    """Exact duplicated-substring statistics at k-token window granularity
    (the fixed-window form of Lee et al., "Deduplicating Training Data Makes
    Language Models Better", ACL'22 §4 — suffix-array dup spans approximated
    by every k-token sliding window; the reference's cache-level "identical
    input" notion, app2.py:329-336, pushed down to substrings).

    → (doc_id, n_windows, n_dup_windows, dup_ratio) for every doc with at
    least one window (≥ k whitespace tokens). A window is duplicated iff
    its token sequence occurs in ≥ ``min_docs`` DISTINCT documents
    corpus-wide.

    Exactly two keyed exchanges, combiner-compressed on both sides:
      1. window-hash-keyed: stage 1 pre-aggregates (doc, h1, h2) → copy
         count per batch (combiner), exchanges on (h1, h2) so every copy
         of a window value co-locates; inside a group a vectorized sort
         marks hashes reaching ``min_docs`` distinct docs and
         re-aggregates to one row per (doc, group);
      2. doc-keyed: per-doc sums over ≤ n_coarse partial rows per doc.
    Neither exchange ever carries window TEXT — only 128-bit hashes, and
    after the combiner only per-(doc,hash) counts.
    """
    def resolve(t: pa.Table) -> pa.Table:
        # all copies of a given (h1, h2) are in this group
        t, starts, sizes = _runs(t, ["h1", "h2", "_id"], ["h1", "h2"])
        ids = _np64(t["_id"])
        new_doc = np.zeros(len(ids), bool)
        new_doc[starts] = True
        new_doc[1:] |= ids[1:] != ids[:-1]
        ndocs = np.add.reduceat(new_doc, starts)
        return _doc_partials(ids, _np64(t["cnt"]),
                             np.repeat(ndocs >= min_docs, sizes))

    windows = ds.map_batches(
        lambda b: _window_count_rows(b, id_col, text_col, k, side=0),
        batch_format="pyarrow")
    return _per_doc_ratio(windows, resolve, id_col,
                          ["n_windows", "n_dup_windows", "dup_ratio"],
                          n_coarse, n_coarse_docs or n_coarse)


_OWNER_OFF_BASE = 100_000_000  # owner key = doc_id·BASE + offset (offsets ≪ BASE)


def _span_removal_dedup(ds, explode, rebuild, out_schema: dict,
                        id_col: str, text_col: str,
                        n_coarse: "int | None", ncd: "int | None",
                        opname: str):
    """Shared spine of window_dedup (token windows) and exact_substr_dedup
    (char windows): ``explode`` emits one (_id, off, h1, h2) row per
    unit-window occurrence; every occurrence of a (h1, h2) value
    co-locates in one group, where the owner resolves to the min packed
    (doc_id, off) key and each NON-owner occurrence becomes a removal row;
    removals rejoin the doc's text under the doc key (text rides that
    exchange exactly once) and ``rebuild(text, removal_offsets)`` returns
    the non-id columns of ``out_schema`` (``{col: arrow type}`` with
    ``id_col`` first) for one document."""

    def removals(t: pa.Table) -> pa.Table:
        ids_a = _np64(t["_id"])
        offs_a = _np64(t["off"])
        # the packed owner key (doc_id·BASE + off) totally orders
        # (doc_id, off) ONLY while off < BASE and |doc_id| stays clear of
        # int64 overflow; a violation would silently misresolve owners
        # (and the SQL oracles, which mirror the packing, couldn't catch
        # it) — so reject loudly instead
        if len(offs_a) and (int(offs_a.max()) >= _OWNER_OFF_BASE
                            or int(np.abs(ids_a).max())
                            >= (2**63 - 1) // _OWNER_OFF_BASE):
            raise ValueError(
                f"{opname} owner-key overflow: need off < "
                f"{_OWNER_OFF_BASE} (got max {int(offs_a.max())}) and "
                f"|doc_id| < {(2**63 - 1) // _OWNER_OFF_BASE} "
                f"(got max {int(np.abs(ids_a).max())})")
        okey = ids_a * _OWNER_OFF_BASE + offs_a
        t, starts, sizes = _runs(t.append_column("okey", pa.array(okey)),
                                 ["h1", "h2", "okey"], ["h1", "h2"])
        okey = _np64(t["okey"])
        owner = np.repeat(okey[starts], sizes)
        rem = t.filter(pa.array(np.repeat(sizes >= 2, sizes)
                                & (okey != owner)))
        return pa.table({"_id": rem["_id"], "off": rem["off"],
                         "text": pa.nulls(rem.num_rows, pa.string())})

    def doc_rows(batch: pa.Table) -> pa.Table:
        ids = batch[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table({
            "_id": pa.array(ids),
            "off": pa.array(np.full(len(ids), -1, np.int64)),  # text row
            "text": pc.cast(pc.fill_null(batch[text_col], ""), pa.string())})

    names = list(out_schema)

    def reassemble(t: pa.Table) -> pa.Table:
        t, starts, sizes = _runs(t, ["_id", "off"], ["_id"])
        ids = _np64(t["_id"])
        offs = _np64(t["off"])
        texts = t["text"].take(starts).to_pylist()
        rows = []
        for s, n, text in zip(starts, sizes, texts):
            if offs[s] >= 0:         # removal rows for a doc outside ds —
                continue             # impossible by construction; be total
            o = offs[s:s + n]
            rows.append((ids[s],) + tuple(rebuild(text or "", o[o >= 0])))
        cols = list(zip(*rows)) or [[]] * len(names)
        return pa.table({c: pa.array(v, out_schema[c])
                         for c, v in zip(names, cols)})

    rem = keyed_exchange(ds.map_batches(explode, batch_format="pyarrow"),
                         ["h1", "h2"], removals,
                         {"_id": pa.int64(), "off": pa.int64(),
                          "text": pa.string()}, n_coarse)
    out = keyed_exchange(
        ds.map_batches(doc_rows, batch_format="pyarrow").union(rem),
        ["_id"], reassemble, out_schema, ncd)
    return nonempty_or_typed_table(out, out_schema)


def _window_rows(wdoc, woff, h1, h2, ids) -> pa.Table:
    """(_id, off, h1, h2) rows of the window occurrences of one batch."""
    return pa.table({"_id": pa.array(ids[wdoc], pa.int64()),
                     "off": pa.array(woff, pa.int64()),
                     "h1": pa.array(h1.view(np.int64)),
                     "h2": pa.array(h2.view(np.int64))})


def window_dedup(ds, id_col: str = "doc_id", text_col: str = "text",
                 k: int = WINDOW_K,
                 n_coarse: int | None = None,
                 n_coarse_docs: int | None = None):
    """Duplicated-substring REMOVAL at k-token window granularity — the
    full Lee et al. (ACL'22) semantics the stats operator only measures:
    every k-token window occurring ≥2 times in the corpus (any positions,
    within-doc repeats included) survives only at its OWNER occurrence
    (lexicographic min (doc_id, offset)); every other occurrence marks its
    k token positions for removal; documents are reassembled from the
    uncovered tokens (single-space join — removal operates on the token
    stream, so original whitespace is normalized; mirrored exactly in the
    SQL oracle).

    Two keyed exchanges, hash-only first (the _span_removal_dedup spine,
    shared with exact_substr_dedup):
      1. window-hash-keyed rows (doc, off, h1, h2) — within a group every
         occurrence of a window value is present, so occurrence count and
         owner resolve locally; only NON-owner occurrences (the removal
         set, proportional to the dup rate) leave the group;
      2. doc-keyed: removal offsets rejoin the doc's token list (text
         rides this exchange once, like line_dedup); coverage is a
         vectorized diff-array cumsum per doc.
    Returns (doc_id, clean_text, n_removed_tokens, n_tokens).
    """
    def explode(batch: pa.Table) -> pa.Table:
        texts = batch[text_col].to_pylist()
        toks = [(t or "").split() for t in texts]
        ids = batch[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
        return _window_rows(*_window_hashes(toks, k), ids)

    def rebuild(text: str, offs: np.ndarray):
        toks = text.split()
        n = len(toks)
        cover = np.zeros(n + 1, np.int64)
        np.add.at(cover, offs, 1)
        np.add.at(cover, np.minimum(offs + k, n), -1)
        covered = np.cumsum(cover[:-1]) > 0
        kept = [t for t, c in zip(toks, covered) if not c]
        return " ".join(kept), int(covered.sum()), n

    return _span_removal_dedup(
        ds, explode, rebuild,
        {id_col: pa.int64(), "clean_text": pa.string(),
         "n_removed_tokens": pa.int64(), "n_tokens": pa.int64()},
        id_col, text_col, n_coarse, n_coarse_docs or n_coarse,
        "window_dedup")


EXACT_SUBSTR_L = 50   # Lee et al. duplicate-span threshold, in characters


def exact_substr_dedup(ds, id_col: str = "doc_id", text_col: str = "text",
                       min_len: int = EXACT_SUBSTR_L,
                       n_coarse: int | None = None,
                       n_coarse_docs: int | None = None):
    """ExactSubstr at its NATIVE granularity (Lee et al., "Deduplicating
    Training Data Makes Language Models Better", ACL'22 §4.1: remove any
    substring of ≥ ``min_len`` units that occurs twice anywhere in the
    corpus) — character-level, unlike window_dedup's token windows, so
    removal boundaries are byte-exact and surviving text keeps its
    ORIGINAL whitespace (the token variant space-normalizes on reassembly).
    A duplicated span of length m ≥ min_len is exactly the union of its
    m−min_len+1 duplicated min_len-char windows, so fixed-size window
    coverage reproduces maximal-span removal. Like the paper's tool we
    keep the lexicographically first occurrence (min (doc_id, offset))
    and remove every other occurrence, within-doc repeats included.

    Two keyed exchanges — the _span_removal_dedup spine (shared with
    window_dedup) at char granularity:
      1. window-hash-keyed (doc, off, h1, h2) rows — one per char
         position, 32 B each; hashes are 128-bit rolling polynomials over
         raw codepoints (_rolling_hashes), so the exchange never carries
         text. Cost is ∝ total corpus characters — the price of exact
         substring semantics in a distributed setting (the paper's suffix
         array is single-node and needs the corpus in RAM; a Bloom
         prefilter pass could drop the ~unique majority of windows before
         the exchange and is the documented 100-TB refinement).
      2. doc-keyed: non-owner offsets rejoin the doc text (text moves
         once); coverage is a diff-array cumsum over chars; kept
         codepoints reassemble via a numpy mask on the utf-32 view.

    Returns (doc_id, clean_text, n_removed_chars, n_chars) for EVERY
    input doc (empty docs pass through with 0/0)."""
    def explode(batch: pa.Table) -> pa.Table:
        texts = [t or "" for t in batch[text_col].to_pylist()]
        lens = np.fromiter((len(t) for t in texts), np.int64, len(texts))
        cps = np.frombuffer("".join(texts).encode("utf-32-le"),
                            np.uint32).astype(np.uint64) + 1
        ids = batch[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
        return _window_rows(*_rolling_hashes(cps, lens, min_len), ids)

    def rebuild(text: str, offs: np.ndarray):
        n = len(text)
        if not len(offs):
            return text, 0, n
        cover = np.zeros(n + 1, np.int64)
        np.add.at(cover, offs, 1)
        np.add.at(cover, np.minimum(offs + min_len, n), -1)
        covered = np.cumsum(cover[:-1]) > 0
        cps = np.frombuffer(text.encode("utf-32-le"), np.uint32)
        return (cps[~covered].tobytes().decode("utf-32-le"),
                int(covered.sum()), n)

    return _span_removal_dedup(
        ds, explode, rebuild,
        {id_col: pa.int64(), "clean_text": pa.string(),
         "n_removed_chars": pa.int64(), "n_chars": pa.int64()},
        id_col, text_col, n_coarse, n_coarse_docs or n_coarse,
        "exact_substr_dedup")


def cross_window_overlap(docs_ds, ref_ds, id_col: str = "doc_id",
                         text_col: str = "text",
                         ref_text_col: str = "text",
                         k: int = WINDOW_K,
                         n_coarse: int | None = None,
                         n_coarse_docs: int | None = None):
    """Cross-corpus window overlap: for every doc, how many of its k-token
    windows also occur ANYWHERE in a reference corpus — the cross-dataset
    form of eval decontamination (Brown et al. GPT-3 App. C measure
    overlap of training docs against benchmarks at 13-gram granularity;
    here either side can be 100 TB). Same two-keyed-exchange shape as
    dup_window_stats: window hashes only (never text) cross the first
    exchange; the reference side pre-collapses to DISTINCT hashes per
    batch (combiner) so a massive reference costs its distinct-window
    count, not its token count. Returns (doc_id, n_windows,
    n_overlap_windows, overlap_ratio) for docs with ≥1 window."""
    def resolve(t: pa.Table) -> pa.Table:
        t, starts, sizes = _runs(t, ["h1", "h2"], ["h1", "h2"])
        side = _np(t["side"])
        hit = np.repeat(np.maximum.reduceat(side, starts) == 1, sizes)
        doc = side == 0
        return _doc_partials(_np64(t["_id"])[doc], _np64(t["cnt"])[doc],
                             hit[doc])

    # reference side: DISTINCT hashes only (membership, not counts); an
    # explicit side tag — NOT an id sentinel — separates the streams, so
    # negative doc ids on the docs side stay valid
    windows = docs_ds.map_batches(
        lambda b: _window_count_rows(b, id_col, text_col, k, side=0),
        batch_format="pyarrow").union(ref_ds.map_batches(
            lambda b: _window_count_rows(b, None, ref_text_col, k, side=1),
            batch_format="pyarrow"))
    return _per_doc_ratio(windows, resolve, id_col,
                          ["n_windows", "n_overlap_windows",
                           "overlap_ratio"],
                          n_coarse, n_coarse_docs or n_coarse)


# ------------------------------------------- content-defined chunking (CDC)

CDC_WINDOW = 4   # words per rolling cut window
CDC_DIVISOR = 8  # cut when hash32(window) % CDC_DIVISOR == 0 (~8-word chunks)


def cdc_chunk_rows(batch: pa.Table, id_col: str = "doc_id",
                   text_col: str = "text", window: int = CDC_WINDOW,
                   divisor: int = CDC_DIVISOR) -> pa.Table:
    """Explode each document into content-defined chunks (FastCDC-style,
    at word granularity): a chunk boundary falls after word i when the
    md5-hash32 of the last ``window`` words is 0 mod ``divisor`` (and at
    end-of-doc). Boundaries depend only on local content, so inserting a
    word shifts ONLY the chunk containing it — every later chunk realigns
    and deduplicates, unlike fixed-width chunking.

    md5-hash32 is the repo-wide oracle-able hash rule
    (``('0x' || substring(md5(s),1,8))::UBIGINT`` in DuckDB); the 100-TB
    path swaps in a gear/crc rolling hash with identical plumbing — this
    is the correctness-anchor variant, the minhash_pairs_md5 convention.
    Per-row explode, no shuffle."""
    text = pc.fill_null(batch[text_col], "")
    n = batch.num_rows
    words = pc.split_pattern_regex(text, r"\s+")
    flat = pc.list_flatten(words)
    parent = pc.list_parent_indices(words)
    mask = pc.not_equal(flat, "")
    w = flat.filter(mask).to_numpy(zero_copy_only=False)
    p = parent.filter(mask).to_numpy()
    ids = batch[id_col].to_numpy(zero_copy_only=False)
    cols = {id_col: pa.int64(), "chunk_idx": pa.int64(),
            "n_chunk_words": pa.int64(), "chunk_hash": pa.string()}
    if len(w) == 0:
        return pa.table({k: pa.array([], t) for k, t in cols.items()})

    nw = np.bincount(p, minlength=n)
    starts = np.concatenate([[0], np.cumsum(nw)[:-1]])
    widx = np.arange(len(p), dtype=np.int64) - starts[p]

    s = pd.Series(w, dtype=object)
    win = s
    for k in range(1, window):
        win = s.shift(k) + " " + win
    wv = win.to_numpy()

    cut = np.zeros(len(p), bool)
    cut[:-1] = p[:-1] != p[1:]
    cut[-1] = True
    idx = np.nonzero(widx >= window - 1)[0]
    cut[idx] |= np.fromiter(
        (int(hashlib.md5(wv[i].encode("utf-8")).hexdigest()[:8], 16)
         % divisor == 0 for i in idx), bool, len(idx))

    cum = np.concatenate([[0], np.cumsum(cut[:-1])]).astype(np.int64)
    cidx = cum - cum[starts[p]]
    g = pd.DataFrame({"p": p, "c": cidx, "w": w}).groupby(["p", "c"],
                                                          sort=True)
    ch = g["w"].agg(" ".join).reset_index()
    sizes = g.size().to_numpy()
    hashes = [hashlib.md5(t.encode("utf-8")).hexdigest() for t in ch["w"]]
    return pa.table({
        id_col: pa.array(ids[ch["p"].to_numpy()], pa.int64()),
        "chunk_idx": pa.array(ch["c"].to_numpy().astype(np.int64)),
        "n_chunk_words": pa.array(sizes.astype(np.int64)),
        "chunk_hash": pa.array(hashes, pa.string())})


def cdc_chunk_dedup(ds, id_col: str = "doc_id", text_col: str = "text",
                    window: int = CDC_WINDOW, divisor: int = CDC_DIVISOR,
                    n_coarse: int = N_COARSE):
    """Corpus-level chunk dedup over content-defined chunks: every chunk
    row is labeled with its global owner = min (doc_id, chunk_idx) among
    identical chunk hashes, and ``is_dup`` for non-owners — the
    storage-dedup ratio view of a corpus (and the primitive behind
    incremental-crawl chunk stores).

    One keyed exchange on the chunk hash (the exact_dedup shape) — chunk
    TEXT never moves, only 16-byte-hash-keyed stat rows; owners resolve
    vectorized inside each coarse group."""
    chunks = ds.map_batches(
        lambda b: cdc_chunk_rows(b, id_col, text_col, window, divisor),
        batch_format="pyarrow")

    def owners(t: pa.Table) -> pa.Table:
        t, starts, sizes = _runs(t, ["chunk_hash", id_col, "chunk_idx"],
                                 ["chunk_hash"])
        ids, cidx = _np64(t[id_col]), _np64(t["chunk_idx"])
        od = np.repeat(ids[starts], sizes)
        oc = np.repeat(cidx[starts], sizes)
        return t.append_column("owner_doc_id", pa.array(od)) \
            .append_column("owner_chunk_idx", pa.array(oc)) \
            .append_column("is_dup", pa.array((od != ids) | (oc != cidx)))

    return keyed_exchange(chunks, ["chunk_hash"], owners, {
        id_col: pa.int64(), "chunk_idx": pa.int64(),
        "n_chunk_words": pa.int64(), "chunk_hash": pa.string(),
        "owner_doc_id": pa.int64(), "owner_chunk_idx": pa.int64(),
        "is_dup": pa.bool_()}, n_coarse)
