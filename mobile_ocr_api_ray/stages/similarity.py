"""Similarity search over an embedding column (list<float>).

Baseline: brute-force cosine top-k — per-batch numpy matmul of the batch's
embedding block against the query matrix (normalized once on the driver,
carried by the stage instance that Ray stores once per operator), local
top-k per batch, then a tiny groupby(query_id) global top-k reduce. Scale
path: sign-LSH (IVF-style) bucketing — vectors are bucketed once; a query
probes only its own (multi-probe) buckets, turning the scan into a fraction
of the corpus at a measured recall cost (tested against brute force).

Deterministic: fixed hyperplanes from RandomState(42), stable tie-breaks
(score desc, vec_id asc).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc


def _normalize(mat: np.ndarray) -> np.ndarray:
    norms = np.linalg.norm(mat, axis=1, keepdims=True)
    norms[norms == 0] = 1.0
    return mat / norms


def _batch_matrix(batch: pa.Table, id_col: str = "vec_id",
                  emb_col: str = "embedding"):
    """(int64 ids, float64 matrix) of the batch's NON-NULL embedding rows.

    Arrow flatten + reshape — no per-row to_pylist. Null embedding rows
    are dropped before the reshape: a null can't participate in cosine
    math, and at 100 TB a single null row must not abort the whole job
    (np.array over a list containing None raises). Valid rows share one
    fixed dim (the table contract); null COMPONENTS inside a valid row
    surface as NaN similarities rather than silent misalignment."""
    col = batch[emb_col].combine_chunks() \
        if isinstance(batch[emb_col], pa.ChunkedArray) else batch[emb_col]
    ids = np.asarray(batch[id_col].to_numpy(zero_copy_only=False),
                     dtype=np.int64)
    if col.null_count:
        valid = col.is_valid()
        col = col.filter(valid)
        ids = ids[valid.to_numpy(zero_copy_only=False)]
    n = len(col)
    if n == 0:
        return ids[:0], np.zeros((0, 1), np.float64)
    flat = col.flatten().to_numpy(zero_copy_only=False).astype(np.float64)
    return ids, flat.reshape(n, len(flat) // n)


class BruteTopKStage:
    """Task stage: per-batch cosine vs the query matrix → local top-k."""

    def __init__(self, queries: np.ndarray, k: int):
        self.queries = _normalize(np.asarray(queries, dtype=np.float64))
        self.k = k

    def _prepare(self, mat: np.ndarray) -> np.ndarray:
        """Hook for subclasses to transform the batch matrix before the
        cosine pass (QuantBruteStage quantize→dequantizes here)."""
        return mat

    def __call__(self, batch: pa.Table) -> pa.Table:
        ids, mat = _batch_matrix(batch)
        if len(ids) == 0:  # empty/all-null block: norm(axis=1) on a 1-D
            return pa.table({  # np.array([]) would raise AxisError
                "query_id": pa.array([], pa.int64()),
                "vec_id": pa.array([], pa.int64()),
                "cosine": pa.array([], pa.float64())})
        vecs = _normalize(self._prepare(mat))
        sims = vecs @ self.queries.T  # (n, q)
        out_q, out_id, out_s = [], [], []
        k = min(self.k, len(ids))
        for qi in range(self.queries.shape[0]):
            col = sims[:, qi]
            # stable top-k: score desc, vec_id asc
            order = np.lexsort((ids, -col))[:k]
            out_q.extend([qi] * len(order))
            out_id.extend(ids[order].tolist())
            out_s.extend(col[order].tolist())
        return pa.table({"query_id": pa.array(out_q, pa.int64()),
                         "vec_id": pa.array(out_id, pa.int64()),
                         "cosine": pa.array(out_s, pa.float64())})


def _global_topk(candidates, k: int):
    def reduce_group(group: pd.DataFrame) -> pd.DataFrame:
        g = group.sort_values(["cosine", "vec_id"], ascending=[False, True]).head(k)
        g = g.reset_index(drop=True)
        g["rank"] = np.arange(1, len(g) + 1, dtype=np.int64)
        return g
    return candidates.groupby("query_id").map_groups(reduce_group, batch_format="pandas")


def brute_topk(ds, queries: np.ndarray, k: int = 10):
    """Exact cosine top-k for each query vector. Returns
    (query_id, vec_id, cosine, rank)."""
    candidates = ds.map_batches(BruteTopKStage(queries, k),
                                batch_format="pyarrow", batch_size=4096)
    return _global_topk(candidates, k)


def hard_negative_topk(ds, k: int = 10, n_anchors: int = 8,
                       id_col: str = "vec_id", emb_col: str = "embedding",
                       label_col: str = "label"):
    """Contrastive hard-negative mining: for each anchor vector, the k
    most-similar vectors with a DIFFERENT label — the training-pair
    construction contrastive/retrieval fine-tuning needs (the hardest
    negatives are the near-misses, not random rows).

    Anchors are the rows with ``id < n_anchors`` — a fixed O(1) set by
    construction, fetched with a bounded filter and broadcast via
    ``ray.put`` (one object, read by every task; never re-shipped per
    batch). Per batch: one matmul against the anchor matrix, same-label
    columns masked to -inf (self is same-label, so self-exclusion is
    implied), local top-k per anchor → the bounded ``_global_topk``
    reduce. Scale shape = brute_topk: the corpus streams, only
    k·n_anchors candidate rows per batch leave the task. Rows with null
    embeddings or null labels are excluded on both engine and SQL sides."""
    import ray

    def anchors_only(batch: pa.Table) -> pa.Table:
        keep = pc.and_(pc.less(batch[id_col], n_anchors),
                       pc.and_(batch[emb_col].combine_chunks().is_valid()
                               if isinstance(batch[emb_col], pa.ChunkedArray)
                               else batch[emb_col].is_valid(),
                               batch[label_col].is_valid()))
        return batch.filter(keep).select([id_col, emb_col, label_col])

    import ray.data  # noqa: F401 — to_arrow_refs needs the Dataset API

    at = pa.concat_tables(ray.get(
        ds.map_batches(anchors_only, batch_format="pyarrow")
        .to_arrow_refs()))
    a_ids, a_mat = _batch_matrix(at, id_col, emb_col)
    a_lab = np.asarray(at[label_col].to_numpy(zero_copy_only=False),
                       dtype=np.int64)
    if len(a_ids) == 0:
        return ray.data.from_arrow(pa.table({
            "anchor_id": pa.array([], pa.int64()),
            "vec_id": pa.array([], pa.int64()),
            "cosine": pa.array([], pa.float64()),
            "rank": pa.array([], pa.int64())}))
    a_norm = _normalize(a_mat)
    aref = ray.put((a_ids, a_norm, a_lab))

    def kernel(batch: pa.Table) -> pa.Table:
        ids_a, mat_a, lab_a = ray.get(aref)
        valid = pc.and_(batch[emb_col].combine_chunks().is_valid()
                        if isinstance(batch[emb_col], pa.ChunkedArray)
                        else batch[emb_col].is_valid(),
                        batch[label_col].is_valid())
        b = batch.filter(valid)
        ids, mat = _batch_matrix(b, id_col, emb_col)
        empty = pa.table({"query_id": pa.array([], pa.int64()),
                          "vec_id": pa.array([], pa.int64()),
                          "cosine": pa.array([], pa.float64())})
        if len(ids) == 0:
            return empty
        labs = np.asarray(b[label_col].to_numpy(zero_copy_only=False),
                          dtype=np.int64)
        sims = _normalize(mat) @ mat_a.T  # (n, A)
        sims[labs[:, None] == lab_a[None, :]] = -np.inf
        out_q, out_id, out_s = [], [], []
        kk = min(k, len(ids))
        for ai in range(len(ids_a)):
            col = sims[:, ai]
            order = np.lexsort((ids, -col))[:kk]
            order = order[np.isfinite(col[order])]
            out_q.extend([int(ids_a[ai])] * len(order))
            out_id.extend(ids[order].tolist())
            out_s.extend(col[order].tolist())
        return pa.table({"query_id": pa.array(out_q, pa.int64()),
                         "vec_id": pa.array(out_id, pa.int64()),
                         "cosine": pa.array(out_s, pa.float64())})

    cand = ds.map_batches(kernel, batch_format="pyarrow", batch_size=4096)
    out = _global_topk(cand, k)

    def rename(batch: pa.Table) -> pa.Table:
        return batch.rename_columns(
            ["anchor_id" if c == "query_id" else c
             for c in batch.column_names])

    return out.map_batches(rename, batch_format="pyarrow")


# --------------------------------------------------- int8 quantization

def _quantize_block(mat: np.ndarray):
    """Symmetric per-vector int8 quantization: scale = max|x|/127,
    q = clamp(floor(x·127/max|x| + 0.5), ±127) — the floor(+0.5)
    convention (NOT numpy's round-half-to-even) so DuckDB's floor
    reproduces every code bit-for-bit. Zero vectors quantize to all-0
    with scale 0. Non-finite components (a null list element surfaces
    as NaN from `_batch_matrix`) are excluded from the max and code to
    0 — NaN must not poison the row's scale, and NaN.astype(int8) is
    platform-defined garbage. Returns (q int8 (n,d), scale float64)."""
    finite = np.isfinite(mat)
    absx = np.where(finite, np.abs(mat), 0.0)
    mx = absx.max(axis=1)
    safe = np.where(mx > 0, mx, 1.0)
    q = np.floor(np.where(finite, mat, 0.0) * 127.0 / safe[:, None] + 0.5)
    q = np.clip(q, -127.0, 127.0)
    q[mx == 0] = 0.0
    scale = np.where(mx > 0, mx / 127.0, 0.0)
    return q.astype(np.int8), scale


def quantize_int8(ds, *, id_col: str = "vec_id", emb_col: str = "embedding"):
    """Storage-form int8 quantization of an embedding column — the 4×
    memory/shuffle reduction that makes a 100-TB ANN corpus fit: per
    vector, one float64 ``scale`` plus the codes as a d-byte ``binary``
    payload (dequantize = q·scale). One vectorized streaming pass, no
    shuffle; rows with null embeddings are dropped (the `_batch_matrix`
    contract). Returns (id, dim, scale, q_bytes)."""

    def kernel(batch: pa.Table) -> pa.Table:
        ids, mat = _batch_matrix(batch, id_col, emb_col)
        if len(ids) == 0:
            return pa.table({
                id_col: pa.array([], pa.int64()),
                "dim": pa.array([], pa.int64()),
                "scale": pa.array([], pa.float64()),
                "q_bytes": pa.array([], pa.binary())})
        q, scale = _quantize_block(mat)
        return pa.table({
            id_col: pa.array(ids, pa.int64()),
            "dim": pa.array(np.full(len(ids), mat.shape[1], np.int64)),
            "scale": pa.array(scale, pa.float64()),
            "q_bytes": pa.array([r.tobytes() for r in q], pa.binary())})

    return ds.map_batches(kernel, batch_format="pyarrow")


class QuantBruteStage(BruteTopKStage):
    """`BruteTopKStage` with the batch matrix routed through int8
    quantize→dequantize — the measurement harness for what int8 storage
    costs in recall (pytest pins overlap vs the exact ranking). All
    top-k/tie/empty-block conventions are inherited, so the two stages
    cannot drift."""

    def _prepare(self, mat: np.ndarray) -> np.ndarray:
        q, scale = _quantize_block(mat)
        return q.astype(np.float64) * scale[:, None]


def quantized_topk(ds, queries: np.ndarray, k: int = 10):
    """Cosine top-k over int8-quantized (then dequantized) vectors.
    Same shape as ``brute_topk``; returns (query_id, vec_id, cosine,
    rank). Rows-only at the driver gate (the dequantized dot product is
    a SIMD float sum — not order-replayable in SQL); recall vs the
    exact ranking is pinned by test."""
    candidates = ds.map_batches(QuantBruteStage(queries, k),
                                batch_format="pyarrow", batch_size=4096)
    return _global_topk(candidates, k)


# ------------------------------------------------------- LSH-bucketed ANN

N_PLANES = 8  # default: 256 buckets


def _planes(dim: int, n_planes: int = N_PLANES) -> np.ndarray:
    return np.random.RandomState(42).normal(size=(n_planes, dim))


def _bucket_of(unit: np.ndarray, planes: np.ndarray) -> np.ndarray:
    n_planes = planes.shape[0]
    bits = (unit @ planes.T) > 0
    return (bits.astype(np.uint64) << np.arange(n_planes, dtype=np.uint64)).sum(axis=1).astype(np.int64)


def _probe_set(bucket: int, n_planes: int, n_probe_bits: int) -> list[int]:
    """All buckets within Hamming distance n_probe_bits of ``bucket``."""
    import itertools
    out = [bucket]
    for r in range(1, n_probe_bits + 1):
        for bits in itertools.combinations(range(n_planes), r):
            flip = 0
            for j in bits:
                flip |= 1 << j
            out.append(bucket ^ flip)
    return out


def lsh_topk(ds, queries: np.ndarray, k: int = 10, n_probe_bits: int = 2,
             n_planes: int = N_PLANES):
    """Approximate top-k: probe the query's bucket plus all buckets within
    Hamming distance ``n_probe_bits`` of it (multi-probe). Bucketing is one
    pass over the corpus; only probed buckets are scanned per query.
    Recall/scan-fraction tradeoff: probed share ≈ Σ_{r<=p} C(n_planes,r) /
    2^n_planes — size n_planes to the corpus (more planes + more probes at
    scale)."""
    queries = _normalize(np.asarray(queries, dtype=np.float64))
    planes = _planes(queries.shape[1], n_planes)
    qbuckets = _bucket_of(queries, planes)
    probe: dict[int, list[int]] = {}
    for qi, b in enumerate(qbuckets):
        for c in _probe_set(int(b), n_planes, n_probe_bits):
            probe.setdefault(c, []).append(qi)

    def scan(batch: pa.Table) -> pa.Table:
        ids, mat = _batch_matrix(batch)
        if len(ids) == 0:  # the (0, 1) placeholder can't matmul planes
            return pa.table({"query_id": pa.array([], pa.int64()),
                             "vec_id": pa.array([], pa.int64()),
                             "cosine": pa.array([], pa.float64())})
        vecs = _normalize(mat)
        buckets = _bucket_of(vecs, planes)
        out_q, out_id, out_s = [], [], []
        for b in np.unique(buckets):
            qids = probe.get(int(b))
            if not qids:
                continue
            sel = buckets == b
            sub_ids, sub = ids[sel], vecs[sel]
            sims = sub @ queries[qids].T
            for col, qi in enumerate(qids):
                order = np.lexsort((sub_ids, -sims[:, col]))[:k]
                out_q.extend([qi] * len(order))
                out_id.extend(sub_ids[order].tolist())
                out_s.extend(sims[order, col].tolist())
        return pa.table({"query_id": pa.array(out_q, pa.int64()),
                         "vec_id": pa.array(out_id, pa.int64()),
                         "cosine": pa.array(out_s, pa.float64())})

    candidates = ds.map_batches(scan, batch_format="pyarrow", batch_size=4096)
    return _global_topk(candidates, k)


# --------------------------------------------------------------- IVF ANN

def train_centroids(ds, n_centroids: int = 16, sample: int = 2048,
                    n_iter: int = 10, seed: int = 42) -> np.ndarray:
    """IVF coarse quantizer: spherical k-means on a deterministic sample.

    Standard IVF practice: the training set is a tiny sample of the corpus
    (``limit(sample)`` — the one deliberate driver-side materialization,
    bounded by ``sample`` regardless of corpus size); the trained centroid
    matrix is the small broadcast side for the assignment pass. Lloyd
    iterations on unit vectors with cosine assignment; empty clusters are
    re-seeded deterministically."""
    samp = ds.limit(sample).to_pandas()
    vecs = [v for v in samp["embedding"].tolist() if v is not None]
    X = _normalize(np.array(vecs, dtype=np.float64))
    rs = np.random.RandomState(seed)
    n_centroids = min(n_centroids, len(X))
    C = X[rs.choice(len(X), size=n_centroids, replace=False)].copy()
    for _ in range(n_iter):
        assign = np.argmax(X @ C.T, axis=1)
        for c in range(n_centroids):
            members = X[assign == c]
            if len(members):
                v = members.mean(axis=0)
                n = np.linalg.norm(v)
                C[c] = v / (n if n > 0 else 1.0)
            else:
                C[c] = X[rs.randint(len(X))]
    return C


def ivf_topk(ds, queries: np.ndarray, k: int = 10, n_centroids: int = 16,
             n_probe: int = 4, sample: int = 2048):
    """IVF approximate top-k: one assignment pass buckets every vector to
    its nearest centroid (centroid matrix broadcast in the closure — tiny);
    each query scans only its ``n_probe`` nearest centroids' lists. The
    probed corpus fraction ≈ n_probe / n_centroids; recall is tested
    against brute force. Returns (query_id, vec_id, cosine, rank)."""
    queries = _normalize(np.asarray(queries, dtype=np.float64))
    C = train_centroids(ds, n_centroids=n_centroids, sample=sample)
    qsims = queries @ C.T                              # (q, c)
    probe: dict[int, list[int]] = {}
    for qi in range(queries.shape[0]):
        top = np.argsort(-qsims[qi], kind="stable")[:n_probe]
        for c in top:
            probe.setdefault(int(c), []).append(qi)

    def scan(batch: pa.Table) -> pa.Table:
        ids, mat = _batch_matrix(batch)
        if len(ids) == 0:  # argmax over a 0-row matmul raises
            return pa.table({"query_id": pa.array([], pa.int64()),
                             "vec_id": pa.array([], pa.int64()),
                             "cosine": pa.array([], pa.float64())})
        vecs = _normalize(mat)
        assign = np.argmax(vecs @ C.T, axis=1)
        out_q, out_id, out_s = [], [], []
        for c in np.unique(assign):
            qids = probe.get(int(c))
            if not qids:
                continue
            sel = assign == c
            sub_ids, sub = ids[sel], vecs[sel]
            sims = sub @ queries[qids].T
            for col, qi in enumerate(qids):
                order = np.lexsort((sub_ids, -sims[:, col]))[:k]
                out_q.extend([qi] * len(order))
                out_id.extend(sub_ids[order].tolist())
                out_s.extend(sims[order, col].tolist())
        return pa.table({"query_id": pa.array(out_q, pa.int64()),
                         "vec_id": pa.array(out_id, pa.int64()),
                         "cosine": pa.array(out_s, pa.float64())})

    candidates = ds.map_batches(scan, batch_format="pyarrow", batch_size=4096)
    return _global_topk(candidates, k)


def fixed_queries(dim: int, n_queries: int = 4, seed: int = 7) -> np.ndarray:
    """Deterministic query matrix for benchmarks/oracles."""
    return np.random.RandomState(seed).normal(size=(n_queries, dim))


# ------------------------------------------------------------ kNN graph


class KnnGraphStage:
    """Task stage: each corpus block matmuls against the index (one shared
    object-store copy, read zero-copy with ``ray.get`` per batch — never
    re-shipped) and emits its rows' top-k neighbors.

    The index side is assumed to fit one node's memory — the standard
    ANN-index assumption (same as the IVF centroid/LSH bucket tables); for
    corpora past that, swap the broadcast for the LSH/IVF-bucketed pair
    path (stages/dedup.embedding near-pairs) which co-locates candidates by
    bucket instead of scanning all-pairs."""

    def __init__(self, index_ref, k: int):
        self.index_ref = index_ref
        self.k = k

    def __call__(self, batch: pa.Table) -> pa.Table:
        import ray
        ids, mat = _batch_matrix(batch)
        if len(ids) == 0:  # same empty-block guard as BruteTopKStage
            return pa.table({
                "vec_id": pa.array([], pa.int64()),
                "rank": pa.array([], pa.int64()),
                "nbr_id": pa.array([], pa.int64()),
                "cosine": pa.array([], pa.float64())})
        index_ids, index = ray.get(self.index_ref)
        vecs = _normalize(mat)
        sims = vecs @ index.T             # (n, corpus)
        self_pos = ids[:, None] == index_ids[None, :]
        sims[self_pos] = -np.inf          # a vector is not its own neighbor
        # stable argsort of -sims: desc by cosine, ties → lower index
        # position = lower nbr_id (the build task sorts the index by id)
        k = min(self.k, sims.shape[1] - 1)
        order = np.argsort(-sims, axis=1, kind="stable")[:, :k]
        n = len(ids)
        return pa.table({
            "vec_id": pa.array(np.repeat(ids, k), pa.int64()),
            "rank": pa.array(np.tile(np.arange(1, k + 1, dtype=np.int64), n)),
            "nbr_id": pa.array(index_ids[order].ravel(), pa.int64()),
            "cosine": pa.array(np.take_along_axis(sims, order, axis=1).ravel(),
                               pa.float64())})


KNN_INDEX_CAP_ROWS = 2_000_000  # exact path: index must fit ONE node
KNN_LSH_TABLES = 4              # scale path: LSH tables (replication ×T)
KNN_LSH_BUCKET_ROWS = 1_024     # scale path: target rows per bucket


def _knn_index_from_blocks(block_tables, id_col: str, emb_col: str):
    """Concatenate dataset blocks into the (ids, unit matrix) broadcast
    index, sorted by id. Runs INSIDE a Ray task — blocks go object store →
    worker, the corpus never passes through the driver heap."""
    import ray

    tables = ray.get(list(block_tables))
    parts = [_batch_matrix(t, id_col, emb_col) for t in tables]
    parts = [p for p in parts if len(p[0])]
    ids = (np.concatenate([p[0] for p in parts]) if parts
           else np.array([], np.int64))
    mat = (_normalize(np.concatenate([p[1] for p in parts]))
           if parts else np.zeros((0, 1)))
    order = np.argsort(ids)               # ascending nbr_id → stable
    return ids[order], mat[order]         # argsort ties break to id asc


def knn_graph(ds, k: int = 5, index_cap_rows: int = KNN_INDEX_CAP_ROWS,
              on_overflow: str = "lsh", n_rows: "int | None" = None):
    """Cosine k-nearest-neighbor graph over the corpus (self excluded):
    (vec_id, rank, nbr_id, cosine).

    ≤ ``index_cap_rows`` rows (the standard fits-one-node ANN-index
    assumption): EXACT — the corpus doubles as the broadcast index, built
    by a Ray task from the dataset's own block refs (``to_arrow_refs``;
    the driver handles only ObjectRefs, never the vectors) and streamed
    against once by plain map tasks. Past the cap, ``on_overflow`` decides:

    - ``'lsh'`` (default): route to the bucketed approximate
      ``knn_graph_lsh`` — no single node can hold the index, so candidates
      are co-located by sign-LSH bucket instead (recall measured in
      tests/test_fingerprint_pairs.py). The CONTRACT CHANGES: vectors
      sharing no bucket emit no rows, ranks can be < k, cosine ties may
      resolve differently — so the switch is surfaced with a
      RuntimeWarning (never silent; a value-exact knn oracle would
      mismatch above the cap).
    - ``'error'``: raise ValueError — for callers (and oracle harnesses)
      that depend on the documented exact graph.

    ``n_rows``: optional caller-known row count (e.g. parquet METADATA).
    Without it the cap decision costs a materialize+count; with it the
    over-cap LSH route skips that pass entirely, and the exact route
    materializes only once it is committed to building the index."""
    import warnings

    import ray

    if n_rows is None:
        ds = ds.materialize()       # blocks land in the (spillable) store
        n = ds.count()              # metadata-only on the materialized ds
    else:
        n = n_rows
    if n > index_cap_rows:
        if on_overflow == "error":
            raise ValueError(
                f"knn_graph: {n} rows exceed index_cap_rows="
                f"{index_cap_rows} and on_overflow='error' — the exact "
                "graph needs a one-node index; use on_overflow='lsh' for "
                "the approximate bucketed route")
        if on_overflow != "lsh":
            raise ValueError(f"knn_graph: unknown on_overflow={on_overflow!r}")
        warnings.warn(
            f"knn_graph: {n} rows > index_cap_rows={index_cap_rows}; "
            "routing to APPROXIMATE knn_graph_lsh (bucketed sign-LSH: "
            "missing-bucket pairs emit no rows, ranks may be < k)",
            RuntimeWarning, stacklevel=2)
        out = knn_graph_lsh(ds, k=k)
        # normalize the return type: knn_graph_lsh's empty-result guard
        # yields a typed pa.Table — callers of knn_graph uniformly get a
        # Dataset regardless of which route ran
        import ray.data
        return (ray.data.from_arrow(out) if isinstance(out, pa.Table)
                else out)
    if n_rows is not None:
        ds = ds.materialize()       # exact route committed — build index
    refs = ds.to_arrow_refs()
    build = ray.remote(num_cpus=1)(_knn_index_from_blocks)
    index_ref = build.remote(refs, "vec_id", "embedding")

    return ds.map_batches(KnnGraphStage(index_ref, k),
                          batch_format="pyarrow", batch_size=4096)


def knn_graph_lsh(ds, k: int = 5, n_tables: int = KNN_LSH_TABLES,
                  n_planes: int | None = None,
                  bucket_rows: int = KNN_LSH_BUCKET_ROWS,
                  n_rows_hint: int | None = None):
    """Approximate kNN graph for corpora past the one-node index cap:
    multi-table sign-LSH bucketing. Each vector is replicated into one
    bucket per table (fixed hyperplanes, RandomState(42+t) — deterministic
    across runs and partitionings); inside a bucket group the members
    matmul against each other (bucket ≈ ``bucket_rows`` rows, so the local
    work is bounded at any corpus size); per-vector candidates merge
    across tables with nbr-dedup and reduce to the global top-k under the
    exact-path tie order (cosine desc, nbr_id asc).

    Partitioning assumption: the shuffle key is (table, bucket); vectors
    ride the exchange ×``n_tables``. Plane count sizes buckets to
    ``bucket_rows`` from the corpus row count (``n_rows_hint`` or a
    metadata count). Output schema matches ``knn_graph``; ranks are dense
    1..≤k (a vector sharing no bucket with ≥1 other vector yields no
    rows — approximate by contract, recall pinned by tests)."""
    n = n_rows_hint if n_rows_hint is not None else ds.count()
    if n_planes is None:
        n_planes = max(2, int(np.ceil(np.log2(max(n, 1) / bucket_rows)))
                       if n > bucket_rows else 2)
    n_planes = min(n_planes, 30)

    def bucketize(batch: pa.Table) -> pa.Table:
        ids, mat = _batch_matrix(batch)
        if len(ids) == 0:
            return pa.table({
                "vec_id": pa.array([], pa.int64()),
                "embedding": pa.array([], pa.list_(pa.float64())),
                "tb": pa.array([], pa.int64())})
        vecs = _normalize(mat)
        out_id, out_emb, out_tb = [], [], []
        for t in range(n_tables):
            planes = np.random.RandomState(42 + t).normal(
                size=(n_planes, vecs.shape[1]))
            b = _bucket_of(vecs, planes)
            out_id.append(ids)
            out_emb.append(vecs)
            # composite shuffle key table*2^planes + bucket
            out_tb.append(b + (t << n_planes))
        emb = np.concatenate(out_emb)
        return pa.table({
            "vec_id": pa.array(np.concatenate(out_id)),
            "embedding": pa.array(list(emb), pa.list_(pa.float64())),
            "tb": pa.array(np.concatenate(out_tb))})

    def bucket_topk(df: pd.DataFrame) -> pd.DataFrame:
        ids = df["vec_id"].to_numpy(np.int64)
        order = np.argsort(ids, kind="stable")
        ids = ids[order]
        mat = np.array(df["embedding"].to_numpy()[order].tolist(),
                       np.float64)
        m = len(ids)
        if m < 2:
            return pd.DataFrame({"vec_id": pd.array([], "int64"),
                                 "nbr_id": pd.array([], "int64"),
                                 "cosine": pd.array([], "float64")})
        sims = mat @ mat.T
        np.fill_diagonal(sims, -np.inf)
        kk = min(k, m - 1)
        top = np.argsort(-sims, axis=1, kind="stable")[:, :kk]
        return pd.DataFrame({
            "vec_id": np.repeat(ids, kk),
            "nbr_id": ids[top].ravel(),
            "cosine": np.take_along_axis(sims, top, axis=1)[:, :kk].ravel()})

    def merge_tables(df: pd.DataFrame) -> pd.DataFrame:
        d = (df.sort_values(["cosine", "nbr_id"], ascending=[False, True],
                            kind="mergesort")
             .drop_duplicates(["vec_id", "nbr_id"]).head(k)
             .reset_index(drop=True))
        d["rank"] = np.arange(1, len(d) + 1, dtype=np.int64)
        return d[["vec_id", "rank", "nbr_id", "cosine"]]

    from .exchange import nonempty_or_typed_table
    out = (ds.map_batches(bucketize, batch_format="pyarrow",
                          batch_size=4096)
           .groupby("tb").map_groups(bucket_topk, batch_format="pandas")
           .groupby("vec_id").map_groups(merge_tables,
                                         batch_format="pandas"))
    return nonempty_or_typed_table(out, {
        "vec_id": pa.int64(), "rank": pa.int64(),
        "nbr_id": pa.int64(), "cosine": pa.float64()})


# ------------------------------------------------------- full-corpus k-means

def kmeans_labels(ds, k: int = 8, n_iter: int = 5,
                  id_col: str = "vec_id", emb_col: str = "embedding"):
    """Full-corpus Lloyd k-means (euclidean) — the clustering pass a
    curation pipeline runs to partition an embedded corpus into topical
    shards (contrast ``train_centroids``: that trains IVF's quantizer on a
    bounded SAMPLE; this labels every vector with exact full-corpus
    centroid updates).

    Per iteration, ONE streaming pass: the k×dim centroid matrix rides the
    task closure (tiny broadcast); each batch computes nearest centroids
    (vectorized ||x||² − 2xCᵀ + ||c||², ties → lowest centroid id) and
    emits per-label partial sums (Σvec, count) keyed by the batch's min
    vec_id. Partials — ≤ k rows per block, never vectors — are combined on
    the driver in (label, part_key)-sorted order, making a run exactly
    reproducible for a FIXED block layout. Across different block layouts
    the partial sums associate differently, so centroids agree only to
    float rounding (measured ≲1e-15 relative) and a label can flip for a
    vector within that epsilon of a centroid-boundary tie — the tests pin
    allclose-equality across layouts, not bit-equality (contrast
    linkgraph.pagerank, whose per-node sums are computed inside key
    partitions and ARE layout-invariant). Empty clusters keep their
    previous centroid. Init = the k lowest-vec_id vectors (distributed
    min-k, deterministic).

    Returns (vec_id, label, dist) — dist the euclidean distance to the
    winning centroid.
    """
    ds = ds.materialize()

    # ---- deterministic init: embeddings of the k smallest vec_ids ----
    def local_mink(batch: pa.Table) -> pa.Table:
        ids, mat = _batch_matrix(batch, id_col, emb_col)
        if len(ids) == 0:
            return pa.table({id_col: pa.array([], pa.int64()),
                             emb_col: pa.array([], pa.list_(pa.float64()))})
        order = np.argsort(ids, kind="stable")[:k]
        return pa.table({
            id_col: pa.array(ids[order]),
            emb_col: pa.array([mat[i].tolist() for i in order],
                              pa.list_(pa.float64()))})

    seed_df = ds.map_batches(local_mink, batch_format="pyarrow").to_pandas()
    # all-empty block sets reach pandas schema-less (Ray drops empty blocks)
    if len(seed_df):
        seed_df = seed_df.sort_values(id_col).head(k)
    if not len(seed_df):
        return pa.table({id_col: pa.array([], pa.int64()),
                         "label": pa.array([], pa.int64()),
                         "dist": pa.array([], pa.float64())})
    C = np.array(seed_df[emb_col].tolist(), dtype=np.float64)

    def assign(mat: np.ndarray, C: np.ndarray):
        d2 = (np.sum(mat * mat, axis=1, keepdims=True)
              - 2.0 * mat @ C.T + np.sum(C * C, axis=1))
        lab = np.argmin(d2, axis=1)          # argmin takes lowest index tie
        return lab, d2[np.arange(len(lab)), lab]

    for _ in range(n_iter):
        C_iter = C

        def partials(batch: pa.Table, C=C_iter) -> pa.Table:
            ids, mat = _batch_matrix(batch, id_col, emb_col)
            if len(ids) == 0:
                return pa.table({
                    "label": pa.array([], pa.int64()),
                    "part": pa.array([], pa.int64()),
                    "vsum": pa.array([], pa.list_(pa.float64())),
                    "cnt": pa.array([], pa.int64())})
            lab, _ = assign(mat, C)
            labs, sums, cnts = [], [], []
            for c in np.unique(lab):
                sel = lab == c
                labs.append(int(c))
                sums.append(mat[sel].sum(axis=0).tolist())
                cnts.append(int(sel.sum()))
            part = int(ids.min())
            return pa.table({
                "label": pa.array(labs, pa.int64()),
                "part": pa.array([part] * len(labs), pa.int64()),
                "vsum": pa.array(sums, pa.list_(pa.float64())),
                "cnt": pa.array(cnts, pa.int64())})

        pdf = (ds.map_batches(partials, batch_format="pyarrow")
               .to_pandas().sort_values(["label", "part"],
                                        kind="mergesort"))
        C = C_iter.copy()
        for c, grp in pdf.groupby("label", sort=True):
            total = np.zeros(C.shape[1])
            for v in grp["vsum"]:           # sorted part order — exact
                total = total + np.asarray(v, dtype=np.float64)
            C[int(c)] = total / float(grp["cnt"].sum())

    C_fin = C

    def final(batch: pa.Table, C=C_fin) -> pa.Table:
        ids, mat = _batch_matrix(batch, id_col, emb_col)
        if len(ids) == 0:
            return pa.table({id_col: pa.array([], pa.int64()),
                             "label": pa.array([], pa.int64()),
                             "dist": pa.array([], pa.float64())})
        lab, d2 = assign(mat, C)
        return pa.table({
            id_col: pa.array(ids),
            "label": pa.array(lab.astype(np.int64)),
            "dist": pa.array(np.sqrt(np.maximum(d2, 0.0)))})

    return ds.map_batches(final, batch_format="pyarrow")


# --------------------------------------------- MMR diverse selection

def mmr_select(ds, query: np.ndarray, k: int = 16, lam: float = 0.7,
               shortlist: int = 256, id_col: str = "vec_id",
               emb_col: str = "embedding") -> pa.Table:
    """Maximal-marginal-relevance diverse selection (Carbonell & Goldstein
    SIGIR'98): greedily pick k vectors maximizing
    lam·cos(v, query) − (1−lam)·max_{s∈S} cos(v, s) — the standard
    diversity-aware eval-set / few-shot-pool picker (pure top-k returns
    near-duplicates; MMR spreads the picks).

    Scale shape = shortlist-then-rerank, the standard distributed MMR
    contract: stage 1 is brute_topk's bounded partial-top-`shortlist`
    relevance pass (per-block prune, candidates ∝ shortlist not corpus);
    stage 2 fetches only the shortlist's vectors via one broadcast-set
    filter pass; the greedy loop runs on the bounded shortlist×dim
    matrix driver-side (each round is one matvec against the last pick —
    running-max update, not an S×M rescan). Ties break on min vec_id at
    every step, so the selection is deterministic. Returns
    (rank, vec_id, relevance, mmr_score) in selection order."""
    import ray

    q = np.asarray(query, dtype=np.float64).reshape(1, -1)
    cand = _global_topk(
        ds.map_batches(BruteTopKStage(q, shortlist),
                       batch_format="pyarrow", batch_size=4096),
        shortlist).to_pandas()
    cols = {"rank": pa.int64(), id_col: pa.int64(),
            "relevance": pa.float64(), "mmr_score": pa.float64()}
    if len(cand) == 0:
        return pa.table({c: pa.array([], t) for c, t in cols.items()})
    cand = cand.sort_values(id_col).reset_index(drop=True)
    keep_ids = set(cand[id_col].tolist())
    ref = ray.put(keep_ids)

    def fetch(batch: pa.Table) -> pa.Table:
        ids, mat = _batch_matrix(batch, id_col, emb_col)
        ks = ray.get(ref)
        mask = np.fromiter((i in ks for i in ids), bool, len(ids))
        sub = mat[mask]
        return pa.table({
            id_col: pa.array(ids[mask], pa.int64()),
            "_vec": pa.array(list(sub), pa.list_(pa.float64()))})

    got = ds.map_batches(fetch, batch_format="pyarrow").to_pandas() \
            .sort_values(id_col).reset_index(drop=True)
    vecs = _normalize(np.stack(got["_vec"].to_numpy()))
    ids = got[id_col].to_numpy(np.int64)
    # candidate relevance aligned to the fetched (sorted-by-id) order
    rel = cand.set_index(id_col)["cosine"].reindex(ids).to_numpy()

    n = len(ids)
    chosen: list[int] = []
    max_sim = np.zeros(n, np.float64)
    picked = np.zeros(n, bool)
    out_rank, out_id, out_rel, out_score = [], [], [], []
    for r in range(min(k, n)):
        score = lam * rel - (0.0 if r == 0 else (1.0 - lam) * max_sim)
        score = np.where(picked, -np.inf, score)
        best = np.lexsort((ids, -score))[0]
        picked[best] = True
        out_rank.append(r)
        out_id.append(int(ids[best]))
        out_rel.append(float(rel[best]))
        out_score.append(float(score[best]))
        # running-max update: one matvec vs the new pick only
        max_sim = np.maximum(max_sim, vecs @ vecs[best])
    return pa.table({
        "rank": pa.array(out_rank, pa.int64()),
        id_col: pa.array(out_id, pa.int64()),
        "relevance": pa.array(out_rel, pa.float64()),
        "mmr_score": pa.array(out_score, pa.float64())})


# --------------------------------------------- distributed PCA

def pca_fit(ds, d_out: int = 8, id_col: str = "vec_id",
            emb_col: str = "embedding"):
    """Distributed PCA fit: two bounded passes, never the matrix.

    Pass 1: each batch emits ONE partial row — (n, Σx, Σx·xᵀ flattened),
    keyed by the batch's min id (the kmeans_labels partial convention).
    Partials pre-combine in a 64-way keyed groupby (sums accumulated in
    sorted part order), so the driver merges ≤64 rows of dim²-sized
    sums no matter how many blocks the corpus has — at 100 TB the
    block-partial table would otherwise be #blocks × dim² doubles.
    Driver: cov = Σxxᵀ/n − mean·meanᵀ (d×d, model-sized), np.linalg.eigh,
    top-d_out components by descending eigenvalue.

    Determinism: exact for a FIXED block layout (sorted-order
    accumulation); across layouts float sums associate differently, so
    components agree to rounding — tests pin allclose, not bit-equality
    (the kmeans_labels contract). Sign convention: each component's
    largest-|coefficient| entry is made positive, so eigenvector sign
    ambiguity never flips a projection between runs.

    Returns (mean 1×dim, components d_out×dim, explained_var_ratio
    length-d_out) or None for an empty/all-null dataset."""
    import pandas as pd

    def partial(batch: pa.Table) -> pa.Table:
        ids, mat = _batch_matrix(batch, id_col, emb_col)
        if len(ids) == 0:
            return pa.table({
                "part": pa.array([], pa.int64()),
                "n": pa.array([], pa.int64()),
                "ssum": pa.array([], pa.list_(pa.float64())),
                "gsum": pa.array([], pa.list_(pa.float64()))})
        g = mat.T @ mat
        return pa.table({
            "part": pa.array([int(ids.min())], pa.int64()),
            "n": pa.array([len(ids)], pa.int64()),
            "ssum": pa.array([mat.sum(axis=0).tolist()],
                             pa.list_(pa.float64())),
            "gsum": pa.array([g.ravel().tolist()], pa.list_(pa.float64()))})

    def combine(df: pd.DataFrame) -> pd.DataFrame:
        d = df.sort_values("part", kind="mergesort")
        s = np.zeros(len(d["ssum"].iloc[0]), np.float64)
        g = np.zeros(len(d["gsum"].iloc[0]), np.float64)
        for v in d["ssum"]:
            s = s + np.asarray(v, np.float64)
        for v in d["gsum"]:
            g = g + np.asarray(v, np.float64)
        return pd.DataFrame({
            "part": [int(d["part"].iloc[0])],
            "n": [int(d["n"].sum())],
            "ssum": [s.tolist()], "gsum": [g.tolist()]})

    parts = ds.map_batches(partial, batch_format="pyarrow")
    parts = parts.map_batches(
        lambda b: b.append_column(
            "ckey", pc.cast(pc.bit_wise_and(b["part"], pa.scalar(63)),
                            pa.int64())),
        batch_format="pyarrow")
    pdf = (parts.groupby("ckey").map_groups(combine, batch_format="pandas")
           .to_pandas())
    if not len(pdf):
        return None
    pdf = pdf.sort_values("part", kind="mergesort")
    n = int(pdf["n"].sum())
    dim = len(pdf["ssum"].iloc[0])
    s = np.zeros(dim, np.float64)
    g = np.zeros(dim * dim, np.float64)
    for v in pdf["ssum"]:
        s = s + np.asarray(v, np.float64)
    for v in pdf["gsum"]:
        g = g + np.asarray(v, np.float64)
    mean = s / float(n)
    cov = g.reshape(dim, dim) / float(n) - np.outer(mean, mean)
    evals, evecs = np.linalg.eigh(cov)          # ascending
    order = np.argsort(evals)[::-1][:min(d_out, dim)]
    comps = evecs[:, order].T                   # (d_out, dim)
    ev = np.maximum(evals[order], 0.0)
    # sign fix: largest-|coeff| entry positive (argmax takes first tie)
    for i in range(comps.shape[0]):
        j = int(np.argmax(np.abs(comps[i])))
        if comps[i, j] < 0:
            comps[i] = -comps[i]
    total = float(np.trace(cov.reshape(dim, dim))) if dim else 0.0
    evr = ev / total if total > 0 else np.zeros_like(ev)
    return mean, comps, evr


def pca_project(ds, d_out: int = 8, id_col: str = "vec_id",
                emb_col: str = "embedding"):
    """PCA projection: fit via ``pca_fit`` (bounded two-pass), then one
    streaming projection pass — (x − mean) @ Wᵀ per batch, the (mean, W)
    pair riding the task closure (a dim×d_out broadcast, model-sized).
    Output: one row per valid vector, pc_0..pc_{d_out−1} float columns —
    the embedding-compression step that runs before ANN indexing or
    clustering at scale (d_out ≪ dim cuts every downstream matmul and
    shuffle proportionally)."""
    fit = pca_fit(ds, d_out, id_col, emb_col)
    if fit is None:
        cols = {id_col: pa.array([], pa.int64())}
        for i in range(d_out):
            cols[f"pc_{i}"] = pa.array([], pa.float64())
        return pa.table(cols)
    mean, comps, _ = fit
    k = comps.shape[0]

    def project(batch: pa.Table) -> pa.Table:
        ids, mat = _batch_matrix(batch, id_col, emb_col)
        proj = (mat - mean) @ comps.T if len(ids) \
            else np.zeros((0, k), np.float64)
        cols = {id_col: pa.array(ids, pa.int64())}
        for i in range(k):
            cols[f"pc_{i}"] = pa.array(proj[:, i], pa.float64())
        return pa.table(cols)

    return ds.map_batches(project, batch_format="pyarrow")


# ------------------------------------------------------------- SemDeDup

SEMDEDUP_TAU = 0.999
SEMDEDUP_PAIR_CHUNK = 1 << 22


def semdedup_kept(ds, k: int = 8, tau: float = SEMDEDUP_TAU,
                  n_iter: int = 5, id_col: str = "vec_id",
                  emb_col: str = "embedding",
                  pair_chunk: int = SEMDEDUP_PAIR_CHUNK):
    """SemDeDup (Abbas et al. 2023, arXiv:2303.09540): semantic dedup
    whose pairwise work is BOUNDED BY CLUSTERING — k-means partitions the
    embedded corpus, cosine pairs are examined only WITHIN a cluster
    (the paper's trick: near-duplicates land in the same cluster, so the
    all-pairs blowup shrinks from n² to Σ|cluster|²), and of every pair
    with cosine ≥ tau the larger id is dropped. The rule is not chain-aware
    and so is not a keep-first greedy sweep: a pair drops its larger id
    even when the smaller id is itself dropped, so in a chain a~b~c with
    a≁c both b and c go, where keep-first would keep c. The
    components-based keep lives in analysis.embedding_dedup_kept_doubled.

    Shape: kmeans_labels (bounded per-block partials, centroids ride the
    closure) → labels ⋈ embeddings co-partitioned hash_join (narrow side
    is (id, label)) → per-label map_groups with a chunked triu sweep
    (≤ pair_chunk cosine entries in flight). At 100 TB, k scales like
    √n (the paper's regime), keeping clusters at ~√n rows — each group
    fits one task, and a pathological hot cluster degrades to that one
    task's wall time, never to driver memory.

    EXACT for identical vectors at any tau (clones share distances to
    every centroid; the shared lowest-centroid-id tie-break puts them in
    the same cluster — pinned by tests against the clone-pair ground
    truth). Across different block layouts k-means labels can flip for
    boundary-tied vectors (see kmeans_labels), so the near-but-not-
    identical pair set is layout-stable only to that epsilon.

    Returns (vec_id) kept, i.e. every vector minus dropped duplicates."""
    from .joins import hash_join
    from ..stages.dedup import _triu_chunks

    emb = ds.materialize()
    labels = kmeans_labels(emb, k=k, n_iter=n_iter, id_col=id_col,
                           emb_col=emb_col)

    def label_rows(batch: pa.Table) -> pa.Table:
        return pa.table({"lid": batch[id_col], "label": batch["label"]})

    lab = labels.map_batches(label_rows, batch_format="pyarrow")
    joined = hash_join(emb, lab, id_col, "lid")

    def cluster_drops(df: "pd.DataFrame") -> "pd.DataFrame":
        import pandas as pd
        ids = df[id_col].to_numpy().astype(np.int64)
        order = np.argsort(ids, kind="mergesort")
        ids = ids[order]
        mat = _normalize(np.array(df[emb_col].tolist(),
                                  np.float64)[order])
        dropped = np.zeros(len(ids), bool)
        for a_i, b_i in _triu_chunks(len(ids), pair_chunk):
            cos = np.einsum("ij,ij->i", mat[a_i], mat[b_i])
            hit = cos >= tau
            if hit.any():
                dropped[b_i[hit]] = True  # ids sorted → b is the larger
        return pd.DataFrame({"vid": ids[dropped]})

    drops = joined.groupby("label").map_groups(
        cluster_drops, batch_format="pandas")

    def drop_rows(batch: pa.Table) -> pa.Table:
        # marker column: a left join against a key-only table has nothing
        # to distinguish matched rows by
        return pa.table({"vid": pc.cast(batch["vid"], pa.int64()),
                         "is_dup": pa.array([1] * batch.num_rows,
                                            pa.int8())})

    from ..stages.exchange import nonempty_or_typed_table
    drops = nonempty_or_typed_table(
        drops.map_batches(drop_rows, batch_format="pyarrow"),
        {"vid": pa.int64(), "is_dup": pa.int8()}).materialize()

    ids_only = emb.select_columns([id_col])
    if drops.count() == 0:
        return ids_only
    joined_out = hash_join(ids_only, drops, id_col, "vid", how="left")

    def keep(batch: pa.Table) -> pa.Table:
        return batch.filter(pc.is_null(batch["is_dup"])) \
            .select([id_col])

    return joined_out.map_batches(keep, batch_format="pyarrow")
