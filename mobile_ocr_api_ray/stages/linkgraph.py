"""Hyperlink graph operators: out-link extraction, host edge rollup,
distributed PageRank.

The reference's navigation layer walks WITHIN one document — paragraph /
column adjacency plus suggested next actions (app.py:1440-1533, suggested
actions app.py:968-1007). At corpus scale the webtext analog of "what is
reachable from here" is the hyperlink graph: per-page out-links, the
host→host edge rollup, and a centrality score over it. PageRank follows
Page et al., "The PageRank Citation Ranking" (Stanford InfoLab 1999), with
the standard uniform dangling-mass redistribution.

Scale notes (100 TB):
- link extraction is a per-row kernel (same cost class as the extraction
  kernels in stages/extractor.py) — compiled regexes at module import,
  one pass per page, no DOM tree build;
- the host graph after rollup is ~|hosts|² sparse — orders of magnitude
  smaller than the corpus — so PageRank's per-round shuffles move edge
  fractions and rank rows, never pages;
- every shuffle is coarse-bucketed (crc32(key) % n_coarse) with exact-key
  resolution inside the group fn, like stages/dedup.py.

Determinism: with ``combine=False`` (default) every per-node float sum is
computed over rows SORTED by the contributing key, making the result
bit-identical across partition counts and parallelism levels — the
property the partition-invariance tests pin. ``combine=True`` adds a
per-partition partial-sum combiner (the 100 TB path: second shuffle
carries ≤ n_coarse rows per node instead of in-degree rows); sums then
associate differently across partitionings, so results are reproducible
for a fixed n_coarse but only allclose-equal across partitionings.
"""

from __future__ import annotations

import html as _html
import re
from urllib.parse import urljoin, urlsplit

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from .crawl import host_of
from .exchange import N_COARSE, nonempty_or_typed_table
from .html_extract import _DROP_ELEMENTS, _visible_text

_ANCHOR_HREF = re.compile(
    r"""<a\b[^>]*?\bhref\s*=\s*("([^"]*)"|'([^']*)')[^>]*>(.*?)</a\s*>""",
    re.IGNORECASE | re.DOTALL,
)

_KEEP_SCHEMES = ("http", "https")


def page_out_links(url: str, html_bytes: bytes) -> list[tuple[str, str]]:
    """All (dst_url, anchor_text) out-links of one page.

    Spec (deterministic): drop script/style/noscript/template content;
    every ``<a ... href=...>`` in document order; href is entity-unescaped
    and resolved against the page url (RFC 3986 via urljoin); fragments
    are stripped; only http(s) results kept; empty hrefs (self-links)
    dropped. Anchor text uses the same visible-text collapse rule as the
    extraction kernel (stages/html_extract.py step 4).
    """
    doc = html_bytes.decode("utf-8", errors="replace")
    doc = _DROP_ELEMENTS.sub(" ", doc)
    from urllib.parse import urlunsplit

    out: list[tuple[str, str]] = []
    for m in _ANCHOR_HREF.finditer(doc):
        href = _html.unescape(m.group(2) if m.group(2) is not None
                              else m.group(3))
        href = href.strip()
        if not href:
            continue
        try:
            resolved = urljoin(url, href)
            resolved, _, _ = resolved.partition("#")
            parts = urlsplit(resolved)
        except ValueError:
            # stdlib raises on e.g. malformed IPv6-bracket hosts — one
            # bad href on one page must not kill the task (kernel is
            # total, like every extraction kernel)
            continue
        if parts.scheme.lower() not in _KEEP_SCHEMES or not parts.netloc:
            continue
        out.append((urlunsplit((parts.scheme.lower(), parts.netloc,
                                parts.path, parts.query, "")),
                    _visible_text(m.group(4))))
    return out


def extract_links(batch: pa.Table, url_col: str = "url",
                  html_col: str = "html") -> pa.Table:
    """Batch kernel: pages → one row per out-link (src_url, dst_url,
    anchor_text), document order preserved within a page."""
    urls = batch[url_col].to_pylist()
    payloads = batch[html_col].to_pylist()
    src, dst, txt = [], [], []
    for u, p in zip(urls, payloads):
        if p is None:
            continue
        for d, t in page_out_links(u or "", p):
            src.append(u)
            dst.append(d)
            txt.append(t)
    return pa.table({"src_url": pa.array(src, pa.string()),
                     "dst_url": pa.array(dst, pa.string()),
                     "anchor_text": pa.array(txt, pa.string())})


def host_edges(links_ds, n_coarse: int | None = None):
    """(src_url, dst_url) link rows → (src_host, dst_host, n_links) edge
    rollup. Per-batch Arrow group_by combiner first, then one bucketed
    groupby over pre-aggregated rows (the partial-aggregation pattern —
    the exchange carries ≤ distinct host pairs per batch, not links)."""
    nc = n_coarse or N_COARSE

    def partial(batch: pa.Table) -> pa.Table:
        # unparseable hosts (host_of → null) roll up under "" — the later
        # pandas groupby drops NaN keys, which would silently delete rows
        t = pa.table({"src_host": pc.fill_null(host_of(batch["src_url"]), ""),
                      "dst_host": pc.fill_null(host_of(batch["dst_url"]), ""),
                      "one": pa.array(np.ones(batch.num_rows, np.int64))})
        g = t.group_by(["src_host", "dst_host"]).aggregate([("one", "sum")])
        # composite routing key "src|dst" built with one Arrow kernel,
        # hashed with the shared buffer-slice crc32 (same bytes as the
        # old f"{a}|{b}".encode() per-row form)
        from ..str_hash import str_coarse
        key = pc.binary_join_element_wise(g["src_host"], g["dst_host"], "|")
        coarse = str_coarse(key, nc)
        return pa.table({"src_host": g["src_host"],
                         "dst_host": g["dst_host"],
                         "n": g["one_sum"],
                         "coarse": pa.array(coarse.astype(np.int32))})

    def resolve(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby(["src_host", "dst_host"], as_index=False)["n"].sum()
        return pd.DataFrame({"src_host": g["src_host"],
                             "dst_host": g["dst_host"],
                             "n_links": g["n"].astype("int64")})

    out = (links_ds.map_batches(partial, batch_format="pyarrow")
           .groupby("coarse").map_groups(resolve, batch_format="pandas"))
    return nonempty_or_typed_table(out, {
        "src_host": pa.string(), "dst_host": pa.string(),
        "n_links": pa.int64()})


# ------------------------------------------------------------- PageRank

_DANGLING_BUCKETS = 64  # fixed (n_coarse-independent) dangling-sum tree


def _as_array(col) -> pa.Array:
    return col.combine_chunks() if isinstance(col, pa.ChunkedArray) else col


def _str_coarse(arr, nc: int) -> np.ndarray:
    # shared buffer-slice crc32 (str_hash) — null hashes as '' (crc 0),
    # the same (s or '') convention as before
    from ..str_hash import str_coarse
    return str_coarse(arr, nc)


def _pagerank_local(edges: pd.DataFrame, damping: float,
                    n_iter: int) -> pa.Table:
    """Driver-local PageRank, bit-identical to the distributed
    combine=False path: per-dst sums in (dst, src)-sorted order, dangling
    mass through the same fixed 64-bucket tree (crc32(node) % 64,
    node-sorted within bucket, buckets summed in index order). The
    partition-invariance property of the distributed path (sums don't
    depend on n_coarse) is exactly what makes this 1-partition execution
    equal it float-for-float — pinned by test_local_matches_distributed."""
    # guard for DIRECT local calls; pagerank() pre-filters via positive()
    edges = edges[edges["w"] > 0]
    out_w = edges.groupby("src")["w"].sum()
    nodes = sorted(set(edges["src"]) | set(edges["dst"]))
    n = len(nodes)
    frac = (edges["w"].to_numpy(np.float64)
            / edges["src"].map(out_w).to_numpy(np.float64))
    dangling = [u for u in nodes if u not in out_w.index]
    dang_b = pd.DataFrame({
        "node": dangling,
        "b": _str_coarse(dangling, _DANGLING_BUCKETS)}) \
        .sort_values(["b", "node"], kind="mergesort")
    pr = pd.Series(np.full(n, 1.0 / n), index=nodes)
    for _ in range(n_iter):
        dmass = 0.0
        for _, grp in dang_b.groupby("b", sort=True):
            dmass += float(pr[grp["node"]].sum())
        base = (1.0 - damping) / n + damping * dmass / n
        c = pd.DataFrame({"dst": edges["dst"], "src": edges["src"],
                          "c": frac * pr[edges["src"]].to_numpy(np.float64)})
        g = c.sort_values(["dst", "src", "c"], kind="mergesort") \
             .groupby("dst", sort=True)["c"].sum()
        pr = base + damping * g.reindex(nodes, fill_value=0.0)
    return pa.table({"node": pa.array(nodes, pa.string()),
                     "pr": pa.array(pr.to_numpy(np.float64))})


def pagerank(edges_ds, damping: float = 0.85, n_iter: int = 10,
             src_col: str = "src_host", dst_col: str = "dst_host",
             weight_col: str = "n_links",
             n_coarse: int | None = None, combine: bool = False,
             local_edges_max: int = 200_000):
    """Weighted PageRank over an edge table, fully distributed.

    pr'(v) = (1-d)/N + d·(Σ_{u→v} pr(u)·w(u,v)/W(u) + dangling/N), fixed
    ``n_iter`` rounds from the uniform start. Per round, exactly two
    bucketed shuffles:
      1. src-keyed: rank rows join edge rows (tagged union, exact-key
         pandas merge inside each coarse group) → per-edge contributions;
      2. dst-keyed: contributions regroup per node (union'd with a zero
         row per node so in-degree-0 nodes keep receiving base + dangling
         mass) and sum in sorted order (see module docstring).
    The dangling mass Σ pr(dangling) is reduced through a FIXED 64-bucket
    tree (bucket = crc32(node) % 64, per-bucket sorted sums, buckets
    summed in index order on the driver) so its value is independent of
    n_coarse; what reaches the driver is 64 floats, never the rank table.

    Returns (node, pr). Ranks sum to 1 up to float rounding.
    """
    import ray

    nc = n_coarse or N_COARSE

    def positive(batch: pa.Table) -> pa.Table:
        return batch.filter(pc.greater(
            batch[weight_col].cast(pa.int64()), pa.scalar(0, pa.int64())))

    edges_mat = edges_ds.map_batches(positive,
                                     batch_format="pyarrow").materialize()
    n_edges = edges_mat.count()
    if n_edges == 0:
        return pa.table({"node": pa.array([], pa.string()),
                         "pr": pa.array([], pa.float64())})
    if n_edges <= local_edges_max and not combine:
        # the edge ROLLUP (hosts², sparse) is orders of magnitude smaller
        # than the corpus; below this bound the ~20 per-round pipeline
        # launches cost far more than the arithmetic, so run the
        # bit-identical local form on the driver (bounded by
        # local_edges_max rows — never the corpus). The distributed loop
        # below engages for true web-scale host graphs.
        edf = edges_mat.to_pandas()
        edges_pd = pd.DataFrame({
            "src": edf[src_col].astype(str), "dst": edf[dst_col].astype(str),
            "w": edf[weight_col].astype("int64")})
        return _pagerank_local(edges_pd, damping, n_iter)

    # ---- node table + out-weight totals (exact int sums) ----
    def node_rows(batch: pa.Table) -> pa.Table:
        s = batch[src_col].cast(pa.string())
        d = batch[dst_col].cast(pa.string())
        w = batch[weight_col].cast(pa.int64())
        t = pa.table({
            "node": pa.concat_arrays(
                [_as_array(s), _as_array(d)]),
            "w": pa.concat_arrays(
                [_as_array(w),
                 pa.array(np.zeros(batch.num_rows, np.int64))])})
        g = t.group_by("node").aggregate([("w", "sum")])
        return pa.table({"node": g["node"], "w": g["w_sum"],
                         "coarse": pa.array(_str_coarse(g["node"], nc))})

    def node_resolve(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby("node", as_index=False)["w"].sum()
        return pd.DataFrame({"node": g["node"],
                             "out_w": g["w"].astype("int64")})

    nodes = (edges_mat.map_batches(node_rows, batch_format="pyarrow")
             .groupby("coarse").map_groups(node_resolve,
                                           batch_format="pandas")
             .materialize())
    n_nodes = nodes.count()

    # ---- per-edge fraction w(u,v)/W(u): src-keyed bucketed join ----
    def tag_edges(batch: pa.Table) -> pa.Table:
        return pa.table({
            "kind": pa.array(np.zeros(batch.num_rows, np.int8)),
            "key": batch[src_col].cast(pa.string()),
            "dst": batch[dst_col].cast(pa.string()),
            "val": batch[weight_col].cast(pa.int64()).cast(pa.float64()),
            "coarse": pa.array(_str_coarse(batch[src_col], nc))})

    def tag_nodes_w(batch: pa.Table) -> pa.Table:
        return pa.table({
            "kind": pa.array(np.ones(batch.num_rows, np.int8)),
            "key": batch["node"].cast(pa.string()),
            "dst": pa.array([None] * batch.num_rows, pa.string()),
            "val": batch["out_w"].cast(pa.float64()),
            "coarse": pa.array(_str_coarse(batch["node"], nc))})

    def join_frac(df: pd.DataFrame) -> pd.DataFrame:
        edg = df[df["kind"] == 0]
        wt = df[df["kind"] == 1][["key", "val"]].rename(
            columns={"val": "out_w"})
        m = edg.merge(wt, on="key", how="left")
        return pd.DataFrame({"src": m["key"], "dst": m["dst"],
                             "frac": m["val"].to_numpy(np.float64)
                                     / m["out_w"].to_numpy(np.float64)})

    frac_edges = (edges_mat.map_batches(tag_edges, batch_format="pyarrow")
                  .union(nodes.map_batches(tag_nodes_w,
                                           batch_format="pyarrow"))
                  .groupby("coarse").map_groups(join_frac,
                                                batch_format="pandas")
                  .materialize())

    # ---- rank init: uniform ----
    pr0 = 1.0 / n_nodes

    def init_rank(batch: pa.Table) -> pa.Table:
        return pa.table({
            "node": batch["node"],
            "pr": pa.array(np.full(batch.num_rows, pr0, np.float64))})

    rank = nodes.map_batches(init_rank, batch_format="pyarrow").materialize()

    # ---- iteration: 2 bucketed passes per round ----
    # A rank row whose node matches NO edge row in its (src-keyed) coarse
    # partition belongs to a dangling node — all of a node's out-edges
    # share its partition — so dangling detection rides the contribution
    # join for free; no flag column, no reattach shuffle.
    def tag_rank(batch: pa.Table) -> pa.Table:
        return pa.table({
            "kind": pa.array(np.ones(batch.num_rows, np.int8)),
            "key": batch["node"], "dst": pa.array([None] * batch.num_rows,
                                                  pa.string()),
            "val": batch["pr"],
            "coarse": pa.array(_str_coarse(batch["node"], nc))})

    def tag_frac(batch: pa.Table) -> pa.Table:
        return pa.table({
            "kind": pa.array(np.zeros(batch.num_rows, np.int8)),
            "key": batch["src"], "dst": batch["dst"], "val": batch["frac"],
            "coarse": pa.array(_str_coarse(batch["src"], nc))})

    def contribs(df: pd.DataFrame) -> pa.Table:
        edg = df[df["kind"] == 0]
        rk = df[df["kind"] == 1][["key", "val"]].rename(
            columns={"val": "pr"})
        m = edg.merge(rk, on="key", how="inner")
        out = pd.DataFrame({
            "dst": m["dst"], "src": m["key"],
            "c": m["val"].to_numpy(np.float64) * m["pr"].to_numpy(np.float64)})
        if combine:
            # partial per (dst, partition): sorted by src first so the
            # partial itself is deterministic for a fixed n_coarse
            out = out.sort_values(["dst", "src", "c"], kind="mergesort")
            out = out.groupby("dst", as_index=False)["c"].sum()
            out["src"] = ""   # partial rows: combiner id not needed
        out_t = pa.table({
            "kind": pa.array(np.zeros(len(out), np.int8)),
            "dst": pa.array(out["dst"], pa.string()),
            "src": pa.array(out["src"], pa.string()),
            "c": pa.array(out["c"].to_numpy(np.float64)),
            "dcoarse": pa.array(_str_coarse(out["dst"], nc))})
        # dangling rows: rank keys with no out-edges here, bucketed into
        # the FIXED 64-way dangling tree (n_coarse-independent)
        dang = rk[~rk["key"].isin(edg["key"])]
        if not len(dang):
            return out_t
        dang_t = pa.table({
            "kind": pa.array(np.ones(len(dang), np.int8)),
            "dst": pa.array(dang["key"], pa.string()),
            "src": pa.array([""] * len(dang), pa.string()),
            "c": pa.array(dang["pr"].to_numpy(np.float64)),
            "dcoarse": pa.array(_str_coarse(
                dang["key"], _DANGLING_BUCKETS))})
        return pa.concat_tables([out_t, dang_t])

    def tag_zero(batch: pa.Table) -> pa.Table:
        # one zero row per node — in-degree-0 nodes still get base mass
        return pa.table({
            "kind": pa.array(np.zeros(batch.num_rows, np.int8)),
            "dst": batch["node"],
            "src": pa.array([""] * batch.num_rows, pa.string()),
            "c": pa.array(np.zeros(batch.num_rows, np.float64)),
            "dcoarse": pa.array(_str_coarse(batch["node"], nc))})

    def per_bucket(df: pd.DataFrame) -> pd.DataFrame:
        d = df.sort_values("dst", kind="mergesort")
        return pd.DataFrame({"b": [int(d["dcoarse"].iloc[0])],
                             "s": [float(d["c"].sum())]})

    for _ in range(n_iter):
        stage1 = (frac_edges.map_batches(tag_frac, batch_format="pyarrow")
                  .union(rank.map_batches(tag_rank, batch_format="pyarrow"))
                  .groupby("coarse").map_groups(contribs,
                                                batch_format="pandas")
                  .materialize())

        dang_rows = stage1.filter(expr="kind == 1")
        parts = (dang_rows.groupby("dcoarse")
                 .map_groups(per_bucket, batch_format="pandas")
                 .to_pandas()) if dang_rows.count() else pd.DataFrame()
        # sequential fold in bucket order — the SAME associativity as
        # _pagerank_local's per-bucket `dmass +=` loop (pandas .sum() is
        # pairwise/unrolled and diverges in the last ulp once >8 buckets
        # are populated, silently breaking local==distributed bit-equality)
        dmass = 0.0
        if len(parts):
            for s in parts.sort_values("b")["s"]:
                dmass += float(s)
        base = (1.0 - damping) / n_nodes + damping * dmass / n_nodes

        def new_rank(df: pd.DataFrame, base=base) -> pd.DataFrame:
            # (dst, src, c): parallel duplicate edges tie on (dst, src) —
            # the value key fixes their summation order too
            d = df.sort_values(["dst", "src", "c"], kind="mergesort")
            g = d.groupby("dst", sort=True)["c"].sum()
            return pd.DataFrame({
                "node": g.index.to_numpy(),
                "pr": base + damping * g.to_numpy(np.float64)})

        rank = (stage1.filter(expr="kind == 0")
                .union(nodes.map_batches(tag_zero, batch_format="pyarrow"))
                .groupby("dcoarse").map_groups(new_rank,
                                               batch_format="pandas")
                .materialize())

    def final(batch: pa.Table) -> pa.Table:
        return pa.table({"node": batch["node"].cast(pa.string()),
                         "pr": batch["pr"].cast(pa.float64())})

    out = rank.map_batches(final, batch_format="pyarrow")
    return nonempty_or_typed_table(out, {"node": pa.string(),
                                         "pr": pa.float64()})


# ------------------------------------------------------ anchor-text index

ANCHOR_TEXT_CAP = 5


def anchor_text_index(links_ds, n_coarse: int | None = None,
                      cap: int = ANCHOR_TEXT_CAP):
    """dst_url → (n_inlinks, anchor_texts): how the web describes each
    target page — a standard relevance/label signal for training data
    (anchor text stands in for queries/titles). ``anchor_texts`` is the
    first ``cap`` DISTINCT non-empty texts in lexicographic order, joined
    with " | " (deterministic, bounded row width regardless of in-degree
    — no unbounded list rides the shuffle result).

    One bucketed shuffle: per-batch combiner pre-aggregates
    (dst, count, bounded distinct-text set) so hot targets (home pages
    linked from everywhere) reach the exchange as one row per batch."""
    nc = n_coarse or N_COARSE

    def partial(batch: pa.Table) -> pa.Table:
        df = pd.DataFrame({
            "dst": batch["dst_url"].to_pylist(),
            "txt": batch["anchor_text"].to_pylist()})
        rows_dst, rows_n, rows_txts = [], [], []
        for dst, grp in df.groupby("dst", sort=False):
            texts = sorted({t for t in grp["txt"] if t})[:cap]
            rows_dst.append(dst)
            rows_n.append(len(grp))
            rows_txts.append(texts)
        return pa.table({
            "dst": pa.array(rows_dst, pa.string()),
            "n": pa.array(rows_n, pa.int64()),
            "txts": pa.array(rows_txts, pa.list_(pa.string())),
            "coarse": pa.array(_str_coarse(rows_dst, nc))})

    def resolve(df: pd.DataFrame) -> pd.DataFrame:
        out_dst, out_n, out_t = [], [], []
        for dst, grp in df.groupby("dst", sort=True):
            texts: set = set()
            for ts in grp["txts"]:
                texts.update(ts)
            out_dst.append(dst)
            out_n.append(int(grp["n"].sum()))
            out_t.append(" | ".join(sorted(texts)[:cap]))
        return pd.DataFrame({"dst_url": out_dst,
                             "n_inlinks": pd.array(out_n, "int64"),
                             "anchor_texts": out_t})

    out = (links_ds.map_batches(partial, batch_format="pyarrow")
           .groupby("coarse").map_groups(resolve, batch_format="pandas"))
    return nonempty_or_typed_table(out, {
        "dst_url": pa.string(), "n_inlinks": pa.int64(),
        "anchor_texts": pa.string()})


# ------------------------------------------------- connected components

def host_components(edges_ds, src_col: str = "src_host",
                    dst_col: str = "dst_host",
                    local_edges_max: int = 200_000):
    """Weakly-connected components of the host link graph; component id =
    the lexicographically smallest member host (recovered AFTER labeling,
    so the result never depends on internal label values).

    ≤ ``local_edges_max`` edges (the pagerank convention — the host edge
    ROLLUP is hosts²-sparse and orders of magnitude smaller than the
    corpus): driver-local union-find with min-string roots, bit-exact vs
    the recursive-CTE SQL oracle. Above the cap: each host maps to a
    63-bit md5 id, `stages/dedup.dup_clusters` runs its distributed
    min-label fixpoint over the id pairs, a co-partitioned hash_join
    decorates hosts with their labels, and a per-label map_groups emits
    component = min(host) — three bounded-by-the-rollup exchanges, never
    the corpus. (The 63-bit id space makes a cross-host collision — which
    could merge two components — a ~n²/2^64 event; below the cap the
    exact path runs instead.)

    Returns (host, component) sorted by host; isolated hosts (no edges)
    do not appear, matching the edge-derived node set on the SQL side.
    """
    import hashlib

    import ray.data  # noqa: F401

    empty = pa.table({"host": pa.array([], pa.string()),
                      "component": pa.array([], pa.string())})
    if isinstance(edges_ds, pa.Table):   # typed-empty rollup
        return empty
    edges_mat = edges_ds.materialize()
    n_edges = edges_mat.count()
    if n_edges == 0:
        return empty

    if n_edges <= local_edges_max:
        edf = edges_mat.to_pandas()
        parent: dict = {}
        for h in set(edf[src_col]) | set(edf[dst_col]):
            parent[h] = h

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]   # path halving
                x = parent[x]
            return x

        for a, b in zip(edf[src_col], edf[dst_col]):
            ra, rb = find(a), find(b)
            if ra != rb:
                # min-string root ⇒ every root IS its component's min
                parent[max(ra, rb)] = min(ra, rb)
        hosts = sorted(parent)
        return pa.table({
            "host": pa.array(hosts, pa.string()),
            "component": pa.array([find(h) for h in hosts], pa.string())})

    from . import dedup as _dedup
    from .joins import hash_join

    def _h63(s: str) -> int:
        return int(hashlib.md5(s.encode()).hexdigest()[:16], 16) >> 1

    def to_pairs(batch: pa.Table) -> pa.Table:
        return pa.table({
            "id_a": pa.array([_h63(s or "") for s in
                              batch[src_col].to_pylist()], pa.int64()),
            "id_b": pa.array([_h63(s or "") for s in
                              batch[dst_col].to_pylist()], pa.int64())})

    labels = _dedup.dup_clusters(
        edges_mat.map_batches(to_pairs, batch_format="pyarrow"))

    def node_rows(batch: pa.Table) -> pa.Table:
        hosts = ([s or "" for s in batch[src_col].to_pylist()]
                 + [s or "" for s in batch[dst_col].to_pylist()])
        hosts = sorted(set(hosts))
        return pa.table({
            "host": pa.array(hosts, pa.string()),
            "h": pa.array([_h63(s) for s in hosts], pa.int64())})

    def _first_typed(df: pd.DataFrame) -> pa.Table:
        # distinct + back to ARROW types in one step: hash_join reads
        # .schema() and pandas blocks would hand it python classes
        return pa.table({
            "host": pa.array(df["host"].head(1), pa.string()),
            "h": pa.array(df["h"].head(1).astype("int64"), pa.int64())})

    nodes = (edges_mat.map_batches(node_rows, batch_format="pyarrow")
             .groupby("host").map_groups(
                 _first_typed, batch_format="pandas"))
    joined = hash_join(nodes, labels, "h", "src")

    def comp(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({"host": df["host"],
                             "component": df["host"].min()})

    return joined.groupby("label").map_groups(
        comp, batch_format="pandas").sort("host")


# ------------------------------------------------- HITS (hubs/authorities)

def _hits_bucket_total(s: pd.Series) -> float:
    """Fixed 64-bucket crc32 normalization tree (the dangling-mass
    convention): per-bucket node-sorted sums, buckets summed in index
    order — the total is independent of partitioning, so the local and
    distributed paths normalize with the SAME float."""
    nodes = list(s.index)
    df = pd.DataFrame({"node": nodes, "v": s.to_numpy(np.float64),
                       "b": _str_coarse(nodes, _DANGLING_BUCKETS)}) \
        .sort_values(["b", "node"], kind="mergesort")
    tot = 0.0
    for _, grp in df.groupby("b", sort=True):
        tot += float(grp["v"].sum())
    return tot


def _hits_local(edges: pd.DataFrame, n_iter: int) -> pa.Table:
    """Driver-local HITS, bit-identical to the distributed path: per-key
    sums in (key, other, c)-sorted order, L1 normalization through the
    fixed bucket tree."""
    edges = edges[edges["w"] > 0]
    nodes = sorted(set(edges["src"]) | set(edges["dst"]))
    n = len(nodes)
    hub = pd.Series(np.full(n, 1.0 / n), index=nodes)
    auth = pd.Series(np.full(n, 1.0 / n), index=nodes)
    w = edges["w"].to_numpy(np.float64)
    for _ in range(n_iter):
        c = pd.DataFrame({"dst": edges["dst"], "src": edges["src"],
                          "c": w * hub[edges["src"]].to_numpy(np.float64)})
        g = c.sort_values(["dst", "src", "c"], kind="mergesort") \
             .groupby("dst", sort=True)["c"].sum()
        auth = g.reindex(nodes, fill_value=0.0)
        ta = _hits_bucket_total(auth)
        if ta > 0:
            auth = auth / ta
        c2 = pd.DataFrame({"src": edges["src"], "dst": edges["dst"],
                           "c": w * auth[edges["dst"]].to_numpy(np.float64)})
        g2 = c2.sort_values(["src", "dst", "c"], kind="mergesort") \
               .groupby("src", sort=True)["c"].sum()
        hub = g2.reindex(nodes, fill_value=0.0)
        th = _hits_bucket_total(hub)
        if th > 0:
            hub = hub / th
    return pa.table({"node": pa.array(nodes, pa.string()),
                     "hub": pa.array(hub.to_numpy(np.float64)),
                     "authority": pa.array(auth.to_numpy(np.float64))})


def hits(edges_ds, n_iter: int = 10, src_col: str = "src_host",
         dst_col: str = "dst_host", weight_col: str = "n_links",
         local_edges_max: int = 200_000):
    """Weighted HITS (Kleinberg 1999) over an edge table: per round,
    authority(v) = Σ_{u→v} w·hub(u) then hub(u) = Σ_{u→v} w·authority(v),
    each half-step L1-normalized. Scores from the uniform start, fixed
    ``n_iter`` rounds.

    ≤ ``local_edges_max`` edges: the bit-exact driver form (the pagerank
    local-path bound — the host rollup, never the corpus). Above it, a
    fully distributed round built from owned primitives: a co-partitioned
    string-key `hash_join` (edges ⨝ scores, 2 bucketed exchanges), a
    key-grouped sum in (key, other, c)-sorted order (float determinism —
    the pagerank summation convention), and L1 normalization through the
    fixed 64-bucket crc32 tree (what reaches the driver is 64 floats,
    never the score table). Each round's score tables materialize
    (rollup-proportional) so rounds don't re-execute lineage.

    Returns (node, hub, authority); both scores sum to 1 up to float
    rounding. Rows-only at the oracle gate (iterated float products — no
    SQL form), pinned by local ≡ distributed and numpy differentials."""
    import ray.data  # noqa: F401

    from .joins import hash_join

    empty = pa.table({"node": pa.array([], pa.string()),
                      "hub": pa.array([], pa.float64()),
                      "authority": pa.array([], pa.float64())})
    if isinstance(edges_ds, pa.Table):
        return empty

    def positive(batch: pa.Table) -> pa.Table:
        t = batch.filter(pc.greater(
            batch[weight_col].cast(pa.int64()), pa.scalar(0, pa.int64())))
        return pa.table({
            "src": t[src_col].cast(pa.string()),
            "dst": t[dst_col].cast(pa.string()),
            "w": t[weight_col].cast(pa.int64())})

    edges_mat = edges_ds.map_batches(
        positive, batch_format="pyarrow").materialize()
    n_edges = edges_mat.count()
    if n_edges == 0:
        return empty
    if n_edges <= local_edges_max:
        return _hits_local(edges_mat.to_pandas(), n_iter)

    # ---------------- distributed path ----------------
    def node_rows(batch: pa.Table) -> pa.Table:
        hosts = sorted(set(batch["src"].to_pylist())
                       | set(batch["dst"].to_pylist()))
        return pa.table({"node": pa.array(hosts, pa.string())})

    def first_node(df: pd.DataFrame) -> pa.Table:
        return pa.table({"node": pa.array(df["node"].head(1), pa.string())})

    nodes = (edges_mat.map_batches(node_rows, batch_format="pyarrow")
             .groupby("node").map_groups(first_node, batch_format="pandas")
             .materialize())
    n_nodes = nodes.count()

    def init_scores(batch: pa.Table) -> pa.Table:
        return pa.table({
            "node": batch["node"],
            "v": pa.array(np.full(batch.num_rows, 1.0 / n_nodes))})

    def _bucket_total(scores) -> float:
        def partial(df: pd.DataFrame) -> pa.Table:
            d = df.sort_values("node", kind="mergesort")
            return pa.table({
                "b": pa.array([int(df["b"].iloc[0])], pa.int32()),
                "t": pa.array([float(d["v"].sum())], pa.float64())})

        tagged = scores.map_batches(
            lambda b: b.append_column("b", pa.array(
                _str_coarse(b["node"], _DANGLING_BUCKETS)
                .astype(np.int32))),
            batch_format="pyarrow")
        rows = (tagged.groupby("b").map_groups(
            partial, batch_format="pandas").to_pandas()
            .sort_values("b", kind="mergesort"))
        tot = 0.0
        for t in rows["t"]:
            tot += float(t)
        return tot

    def _half_step(scores, join_key: str, out_key: str, other: str):
        # edges ⨝ scores on join_key → per-edge contribution w·v,
        # regrouped per out_key and summed in (out_key, other, c)-sorted
        # order; nodes absent from any edge keep score 0 via the node
        # table union
        j = hash_join(edges_mat, scores, join_key, "node")

        def contrib(batch: pa.Table) -> pa.Table:
            return pa.table({
                "key": batch[out_key],
                "other": batch[join_key],
                "c": pa.array(
                    batch["w"].to_numpy(zero_copy_only=False)
                    .astype(np.float64)
                    * batch["v"].to_numpy(zero_copy_only=False))})

        def zero_rows(batch: pa.Table) -> pa.Table:
            return pa.table({
                "key": batch["node"],
                "other": pa.array([""] * batch.num_rows, pa.string()),
                "c": pa.array(np.zeros(batch.num_rows))})

        def ksum(df: pd.DataFrame) -> pa.Table:
            d = df.sort_values(["key", "other", "c"], kind="mergesort")
            return pa.table({
                "node": pa.array([d["key"].iloc[0]], pa.string()),
                "v": pa.array([float(d["c"].sum())], pa.float64())})

        out = (j.map_batches(contrib, batch_format="pyarrow")
               .union(nodes.map_batches(zero_rows, batch_format="pyarrow"))
               .groupby("key").map_groups(ksum, batch_format="pandas")
               .materialize())
        total = _bucket_total(out)
        if total <= 0:
            return out

        def scale(batch: pa.Table) -> pa.Table:
            return pa.table({
                "node": batch["node"],
                "v": pa.array(
                    batch["v"].to_numpy(zero_copy_only=False) / total)})

        return out.map_batches(scale, batch_format="pyarrow").materialize()

    hub = nodes.map_batches(init_scores, batch_format="pyarrow") \
        .materialize()
    auth = hub
    for _ in range(n_iter):
        auth = _half_step(hub, "src", "dst", "src")
        hub = _half_step(auth, "dst", "src", "dst")

    # final assembly: hub table joins authority driver-side is NOT
    # scale-safe; keep it distributed via hash_join on the node key
    auth_renamed = auth.map_batches(
        lambda b: pa.table({"node": b["node"],
                            "authority": b["v"]}),
        batch_format="pyarrow")
    merged = hash_join(
        hub.map_batches(lambda b: pa.table(
            {"node": b["node"], "hub": b["v"]}), batch_format="pyarrow"),
        auth_renamed.map_batches(lambda b: b.rename_columns(
            ["node2", "authority"]), batch_format="pyarrow"),
        "node", "node2")
    return merged.select_columns(["node", "hub", "authority"])


# ------------------------------------------- fixed-point integer PageRank

PR_INT_SCALE = 10 ** 9
PR_INT_DAMP_NUM = 85      # damping as the rational 85/100 — never a float
PR_INT_DAMP_DEN = 100


def _pagerank_int_local(edges: pd.DataFrame, n_iter: int, scale: int,
                        num: int, den: int) -> pa.Table:
    """Driver-local fixed-point PageRank. The recurrence is pure integer
    arithmetic with floor division applied at three fixed points, so —
    unlike the float ``_pagerank_local`` — no summation-order ceremony is
    needed: integer sums are associative, and the result is bit-equal to
    the distributed path AND to an unrolled-CTE SQL oracle by
    construction (every quantity is non-negative, so DuckDB's truncating
    ``//`` coincides with Python's floor ``//``)."""
    edges = edges[edges["w"] > 0]
    out_w = edges.groupby("src")["w"].sum().to_dict()
    nodes = sorted(set(edges["src"]) | set(edges["dst"]))
    n = len(nodes)
    r = {v: scale // n for v in nodes}
    part_base = ((den - num) * scale) // (den * n)
    src_l = list(edges["src"])
    dst_l = list(edges["dst"])
    w_l = [int(w) for w in edges["w"]]
    for _ in range(n_iter):
        dmass = sum(r[v] for v in nodes if v not in out_w)
        inflow: dict = {}
        for s, d, w in zip(src_l, dst_l, w_l):
            inflow[d] = inflow.get(d, 0) + (r[s] * w) // int(out_w[s])
        part_dang = (num * dmass) // (den * n)
        r = {v: part_base + part_dang + (num * inflow.get(v, 0)) // den
             for v in nodes}
    return pa.table({"node": pa.array(nodes, pa.string()),
                     "pr_int": pa.array([r[v] for v in nodes], pa.int64())})


def pagerank_int(edges_ds, n_iter: int = 10,
                 src_col: str = "src_host", dst_col: str = "dst_host",
                 weight_col: str = "n_links",
                 n_coarse: int | None = None,
                 local_edges_max: int = 200_000,
                 scale: int = PR_INT_SCALE,
                 damp_num: int = PR_INT_DAMP_NUM,
                 damp_den: int = PR_INT_DAMP_DEN):
    """PageRank in fixed-point integer micro-units — the VALUE-EXACT
    sibling of :func:`pagerank` (whose iterated float products have no
    SQL form). Recurrence, all integer, ``//`` = floor division:

        r0(v)   = scale // N
        c(u->v) = (r(u) * w(u,v)) // W(u)              [per edge]
        in(v)   = sum c(u->v)                          [exact int]
        dmass   = sum r(u) over W(u)=0                 [exact int]
        r'(v)   = ((den-num)*scale) // (den*N)
                  + (num*dmass) // (den*N)
                  + (num*in(v)) // den

    Every sum is an integer sum (order-free), so local == distributed ==
    SQL bit-for-bit with no sorted-summation machinery. Total mass decays
    by < N units/round to floor truncation — ranks are an ORDINAL score
    in micro-units, not a probability; callers wanting probabilities use
    :func:`pagerank`.

    Width budget: int64 requires scale * max(w) < 2^62 (checked at
    runtime); at larger weight scales pass a smaller ``scale`` (the SQL
    side can follow into HUGEINT, the engine side cannot).

    Same routing convention as pagerank/host_components: the host edge
    ROLLUP is hosts²-sparse, so ≤ ``local_edges_max`` rows run the exact
    driver-local form; above it the distributed loop engages (two
    bucketed exchanges per round, bounded by the rollup — never pages).
    """
    import ray.data  # noqa: F401

    nc = n_coarse or N_COARSE
    num, den = damp_num, damp_den

    empty = pa.table({"node": pa.array([], pa.string()),
                      "pr_int": pa.array([], pa.int64())})
    if isinstance(edges_ds, pa.Table):          # typed-empty rollup
        return empty

    def positive(batch: pa.Table) -> pa.Table:
        return batch.filter(pc.greater(
            batch[weight_col].cast(pa.int64()), pa.scalar(0, pa.int64())))

    edges_mat = edges_ds.map_batches(positive,
                                     batch_format="pyarrow").materialize()
    n_edges = edges_mat.count()
    if n_edges == 0:
        return empty
    w_max = edges_mat.max(weight_col)
    if scale * int(w_max) >= 2 ** 62:
        raise ValueError(
            f"pagerank_int: scale*max_weight {scale}*{w_max} exceeds the "
            f"int64 width budget; pass a smaller scale")

    if n_edges <= local_edges_max:
        edf = edges_mat.to_pandas()
        edges_pd = pd.DataFrame({
            "src": edf[src_col].astype(str), "dst": edf[dst_col].astype(str),
            "w": edf[weight_col].astype("int64")})
        return _pagerank_int_local(edges_pd, n_iter, scale, num, den)

    # ---- node table (node, out_w): exact int out-weight totals ----
    def node_rows(batch: pa.Table) -> pa.Table:
        s = batch[src_col].cast(pa.string())
        d = batch[dst_col].cast(pa.string())
        w = batch[weight_col].cast(pa.int64())
        t = pa.table({
            "node": pa.concat_arrays([_as_array(s), _as_array(d)]),
            "w": pa.concat_arrays(
                [_as_array(w), pa.array(np.zeros(batch.num_rows, np.int64))])})
        g = t.group_by("node").aggregate([("w", "sum")])
        return pa.table({"node": g["node"],
                         "out_w": g["w_sum"].cast(pa.int64()),
                         "coarse": pa.array(_str_coarse(g["node"], nc))})

    def node_resolve(df: pd.DataFrame) -> pa.Table:
        g = df.groupby("node", as_index=False)["out_w"].sum()
        return pa.table({"node": pa.array(g["node"], pa.string()),
                         "out_w": pa.array(g["out_w"].astype("int64"),
                                           pa.int64())})

    nodes = (edges_mat.map_batches(node_rows, batch_format="pyarrow")
             .groupby("coarse").map_groups(node_resolve,
                                           batch_format="pandas")
             .materialize())
    n_nodes = nodes.count()

    # ---- decorate edges with W(u): one src-keyed bucketed join ----
    def tag_edges(batch: pa.Table) -> pa.Table:
        return pa.table({
            "kind": pa.array(np.zeros(batch.num_rows, np.int8)),
            "key": batch[src_col].cast(pa.string()),
            "dst": batch[dst_col].cast(pa.string()),
            "val": batch[weight_col].cast(pa.int64()),
            "coarse": pa.array(_str_coarse(batch[src_col], nc))})

    def tag_nodes_w(batch: pa.Table) -> pa.Table:
        return pa.table({
            "kind": pa.array(np.ones(batch.num_rows, np.int8)),
            "key": batch["node"].cast(pa.string()),
            "dst": pa.array([None] * batch.num_rows, pa.string()),
            "val": batch["out_w"].cast(pa.int64()),
            "coarse": pa.array(_str_coarse(batch["node"], nc))})

    def join_w(df: pd.DataFrame) -> pa.Table:
        edg = df[df["kind"] == 0]
        wt = df[df["kind"] == 1][["key", "val"]].rename(
            columns={"val": "out_w"})
        m = edg.merge(wt, on="key", how="left")
        return pa.table({
            "src": pa.array(m["key"], pa.string()),
            "dst": pa.array(m["dst"], pa.string()),
            "w": pa.array(m["val"].astype("int64"), pa.int64()),
            "out_w": pa.array(m["out_w"].astype("int64"), pa.int64())})

    w_edges = (edges_mat.map_batches(tag_edges, batch_format="pyarrow")
               .union(nodes.map_batches(tag_nodes_w, batch_format="pyarrow"))
               .groupby("coarse").map_groups(join_w, batch_format="pandas")
               .materialize())

    r0 = scale // n_nodes
    part_base = ((den - num) * scale) // (den * n_nodes)

    def init_rank(batch: pa.Table) -> pa.Table:
        return pa.table({
            "node": batch["node"],
            "r": pa.array(np.full(batch.num_rows, r0, np.int64))})

    rank = nodes.map_batches(init_rank, batch_format="pyarrow").materialize()

    # ---- iteration: 2 bucketed exchanges per round ----
    # dangling detection rides the src-keyed join (all out-edges of a
    # node share its partition, so a rank key matching no edge row is
    # dangling) — the float pagerank's trick, minus its 64-bucket float
    # tree: dmass here is one exact int aggregate.
    def tag_rank(batch: pa.Table) -> pa.Table:
        return pa.table({
            "kind": pa.array(np.ones(batch.num_rows, np.int8)),
            "key": batch["node"],
            "dst": pa.array([None] * batch.num_rows, pa.string()),
            "w": pa.array(np.zeros(batch.num_rows, np.int64)),
            "out_w": pa.array(np.zeros(batch.num_rows, np.int64)),
            "val": batch["r"],
            "coarse": pa.array(_str_coarse(batch["node"], nc))})

    def tag_wedge(batch: pa.Table) -> pa.Table:
        return pa.table({
            "kind": pa.array(np.zeros(batch.num_rows, np.int8)),
            "key": batch["src"], "dst": batch["dst"],
            "w": batch["w"], "out_w": batch["out_w"],
            "val": pa.array(np.zeros(batch.num_rows, np.int64)),
            "coarse": pa.array(_str_coarse(batch["src"], nc))})

    def contribs(df: pd.DataFrame) -> pa.Table:
        edg = df[df["kind"] == 0]
        rk = df[df["kind"] == 1][["key", "val"]].rename(columns={"val": "r"})
        m = edg.merge(rk, on="key", how="inner")
        c = ((m["r"].to_numpy(np.int64) * m["w"].to_numpy(np.int64))
             // m["out_w"].to_numpy(np.int64))
        out_t = pa.table({
            "kind": pa.array(np.zeros(len(m), np.int8)),
            "dst": pa.array(m["dst"], pa.string()),
            "c": pa.array(c, pa.int64()),
            "dcoarse": pa.array(_str_coarse(m["dst"], nc))})
        dang = rk[~rk["key"].isin(edg["key"])]
        if not len(dang):
            return out_t
        dang_t = pa.table({
            "kind": pa.array(np.ones(len(dang), np.int8)),
            "dst": pa.array(dang["key"], pa.string()),
            "c": pa.array(dang["r"].to_numpy(np.int64), pa.int64()),
            "dcoarse": pa.array(np.zeros(len(dang), np.int32))})
        return pa.concat_tables([out_t, dang_t])

    def tag_zero(batch: pa.Table) -> pa.Table:
        # one zero row per node — in-degree-0 nodes keep receiving mass
        return pa.table({
            "kind": pa.array(np.zeros(batch.num_rows, np.int8)),
            "dst": batch["node"],
            "c": pa.array(np.zeros(batch.num_rows, np.int64)),
            "dcoarse": pa.array(_str_coarse(batch["node"], nc))})

    for _ in range(n_iter):
        stage1 = (w_edges.map_batches(tag_wedge, batch_format="pyarrow")
                  .union(rank.map_batches(tag_rank, batch_format="pyarrow"))
                  .groupby("coarse").map_groups(contribs,
                                                batch_format="pandas")
                  .materialize())

        dang_rows = stage1.filter(expr="kind == 1")
        dmass = int(dang_rows.sum("c") or 0) if dang_rows.count() else 0
        part_dang = (num * dmass) // (den * n_nodes)

        def new_rank(df: pd.DataFrame, part_dang=part_dang) -> pa.Table:
            g = df.groupby("dst", as_index=False)["c"].sum()
            s = g["c"].to_numpy(np.int64)
            r = part_base + part_dang + (num * s) // den
            return pa.table({"node": pa.array(g["dst"], pa.string()),
                             "r": pa.array(r, pa.int64())})

        rank = (stage1.filter(expr="kind == 0")
                .union(nodes.map_batches(tag_zero, batch_format="pyarrow"))
                .groupby("dcoarse").map_groups(new_rank,
                                               batch_format="pandas")
                .materialize())

    def final(batch: pa.Table) -> pa.Table:
        return pa.table({"node": batch["node"].cast(pa.string()),
                         "pr_int": batch["r"].cast(pa.int64())})

    out = rank.map_batches(final, batch_format="pyarrow")
    return nonempty_or_typed_table(out, {"node": pa.string(),
                                         "pr_int": pa.int64()})


# ------------------------------------------------ fixed-point integer HITS

HITS_INT_SCALE = 10 ** 6


def _hits_int_local(edges: pd.DataFrame, n_iter: int, scale: int) -> pa.Table:
    """Driver-local fixed-point HITS — pure-int recurrence (order-free
    sums, normalization = one floor division per node), bit-equal to the
    distributed path and the unrolled-CTE SQL oracle by construction."""
    edges = edges[edges["w"] > 0]
    nodes = sorted(set(edges["src"]) | set(edges["dst"]))
    n = len(nodes)
    if n >= scale:
        raise ValueError(
            f"hits_int: node count {n} >= scale {scale} floors the "
            f"uniform start to zero; pass a larger scale")
    hub = {v: scale // n for v in nodes}
    auth = {v: 0 for v in nodes}
    src_l = list(edges["src"])
    dst_l = list(edges["dst"])
    w_l = [int(x) for x in edges["w"]]

    def norm(raw: dict) -> dict:
        tot = sum(raw.values())
        if tot <= 0:
            return raw
        return {v: (raw[v] * scale) // tot for v in raw}

    for _ in range(n_iter):
        raw_a = {v: 0 for v in nodes}
        for s, d, w in zip(src_l, dst_l, w_l):
            raw_a[d] += w * hub[s]
        auth = norm(raw_a)
        raw_h = {v: 0 for v in nodes}
        for s, d, w in zip(src_l, dst_l, w_l):
            raw_h[s] += w * auth[d]
        hub = norm(raw_h)
    return pa.table({
        "node": pa.array(nodes, pa.string()),
        "hub_int": pa.array([hub[v] for v in nodes], pa.int64()),
        "auth_int": pa.array([auth[v] for v in nodes], pa.int64())})


def hits_int(edges_ds, n_iter: int = 10, src_col: str = "src_host",
             dst_col: str = "dst_host", weight_col: str = "n_links",
             n_coarse: int | None = None, local_edges_max: int = 200_000,
             scale: int = HITS_INT_SCALE):
    """HITS in fixed-point integer micro-units — the VALUE-EXACT sibling
    of :func:`hits` (completing the trio with :func:`pagerank_int`).
    Per round, all integer, ``//`` = floor division:

        raw_a(v) = sum_{u->v} w * hub(u);  auth = (raw_a * scale) // Σraw_a
        raw_h(u) = sum_{u->v} w * auth(v); hub  = (raw_h * scale) // Σraw_h

    from hub_0 = scale // N. Integer sums are order-free, so local ==
    distributed == SQL bit-for-bit (all quantities non-negative — DuckDB's
    truncating ``//`` is Python's floor ``//``). Scores are ORDINAL
    micro-unit masses (each half-step's L1 total decays < N units to
    floor truncation); callers wanting float probabilities use ``hits``.

    Width budget: raw * scale ≤ scale² * Σw must stay under 2^62
    (runtime-checked); the scale must also exceed the node count or the
    uniform start floors to zero (checked). Same ≤ ``local_edges_max``
    driver-local routing as the other link-graph ops — the host edge
    rollup is hosts²-sparse, never the corpus.
    """
    import ray.data  # noqa: F401

    from .joins import hash_join

    nc = n_coarse or N_COARSE
    empty = pa.table({"node": pa.array([], pa.string()),
                      "hub_int": pa.array([], pa.int64()),
                      "auth_int": pa.array([], pa.int64())})
    if isinstance(edges_ds, pa.Table):
        return empty

    def positive(batch: pa.Table) -> pa.Table:
        t = batch.filter(pc.greater(
            batch[weight_col].cast(pa.int64()), pa.scalar(0, pa.int64())))
        return pa.table({
            "src": t[src_col].cast(pa.string()),
            "dst": t[dst_col].cast(pa.string()),
            "w": t[weight_col].cast(pa.int64())})

    edges_mat = edges_ds.map_batches(
        positive, batch_format="pyarrow").materialize()
    n_edges = edges_mat.count()
    if n_edges == 0:
        return empty
    w_total = int(edges_mat.sum("w"))
    if scale * scale * w_total >= 2 ** 62:
        raise ValueError(
            f"hits_int: scale^2 * total_weight {scale}^2*{w_total} exceeds "
            f"the int64 width budget; pass a smaller scale")

    if n_edges <= local_edges_max:
        return _hits_int_local(edges_mat.to_pandas(), n_iter, scale)

    # ---------------- distributed path ----------------
    def node_rows(batch: pa.Table) -> pa.Table:
        hosts = sorted(set(batch["src"].to_pylist())
                       | set(batch["dst"].to_pylist()))
        return pa.table({"node": pa.array(hosts, pa.string()),
                         "coarse": pa.array(_str_coarse(hosts, nc))})

    def first_node(df: pd.DataFrame) -> pa.Table:
        g = df.drop_duplicates("node").sort_values("node")
        return pa.table({"node": pa.array(g["node"], pa.string())})

    nodes = (edges_mat.map_batches(node_rows, batch_format="pyarrow")
             .groupby("coarse").map_groups(first_node,
                                           batch_format="pandas")
             .materialize())
    n_nodes = nodes.count()
    if n_nodes >= scale:
        raise ValueError(
            f"hits_int: node count {n_nodes} >= scale {scale} floors the "
            f"uniform start to zero; pass a larger scale")

    def init_scores(batch: pa.Table) -> pa.Table:
        return pa.table({
            "node": batch["node"],
            "v": pa.array(np.full(batch.num_rows, scale // n_nodes,
                                  np.int64))})

    def _half_step(scores, join_key: str, out_key: str):
        # edges ⨝ scores on join_key → per-edge int contribution w·v,
        # regrouped per out_key (coarse bucket, exact-key resolve), L1
        # total via one exact int aggregate, floor-normalized per node
        j = hash_join(edges_mat, scores, join_key, "node")

        def contrib(batch: pa.Table) -> pa.Table:
            key = batch[out_key].cast(pa.string())
            c = (batch["w"].to_numpy(zero_copy_only=False).astype(np.int64)
                 * batch["v"].to_numpy(zero_copy_only=False)
                 .astype(np.int64))
            return pa.table({
                "key": key, "c": pa.array(c, pa.int64()),
                "kcoarse": pa.array(_str_coarse(key, nc))})

        def zero_rows(batch: pa.Table) -> pa.Table:
            return pa.table({
                "key": batch["node"],
                "c": pa.array(np.zeros(batch.num_rows, np.int64)),
                "kcoarse": pa.array(_str_coarse(batch["node"], nc))})

        def ksum(df: pd.DataFrame) -> pa.Table:
            g = df.groupby("key", as_index=False)["c"].sum()
            return pa.table({
                "node": pa.array(g["key"], pa.string()),
                "raw": pa.array(g["c"].astype("int64"), pa.int64())})

        raw = (j.map_batches(contrib, batch_format="pyarrow")
               .union(nodes.map_batches(zero_rows, batch_format="pyarrow"))
               .groupby("kcoarse").map_groups(ksum, batch_format="pandas")
               .materialize())
        total = int(raw.sum("raw") or 0)

        def norm(batch: pa.Table, total=total) -> pa.Table:
            r = batch["raw"].to_numpy(zero_copy_only=False).astype(np.int64)
            v = (r * scale) // total if total > 0 else r
            return pa.table({"node": batch["node"],
                             "v": pa.array(v, pa.int64())})

        return raw.map_batches(norm, batch_format="pyarrow").materialize()

    hub = nodes.map_batches(init_scores, batch_format="pyarrow") \
        .materialize()
    auth = hub
    for _ in range(n_iter):
        auth = _half_step(hub, "src", "dst")
        hub = _half_step(auth, "dst", "src")

    merged = hash_join(
        hub.map_batches(lambda b: pa.table(
            {"node": b["node"], "hub_int": b["v"]}),
            batch_format="pyarrow"),
        auth.map_batches(lambda b: pa.table(
            {"node2": b["node"], "auth_int": b["v"]}),
            batch_format="pyarrow"),
        "node", "node2")
    out = merged.select_columns(["node", "hub_int", "auth_int"])
    return nonempty_or_typed_table(out, {"node": pa.string(),
                                         "hub_int": pa.int64(),
                                         "auth_int": pa.int64()})
