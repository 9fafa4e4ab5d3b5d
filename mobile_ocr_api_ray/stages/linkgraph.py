"""Hyperlink graph operators: out-link extraction, the host edge rollup,
the anchor-text index, connected components, and four iterated scores
over the host graph: PageRank and HITS, each in float and in fixed-point
int.

The reference's navigation layer walks WITHIN one document — paragraph /
column adjacency plus suggested next actions (app.py:1440-1533, suggested
actions app.py:968-1007). At corpus scale the webtext analog of "what is
reachable from here" is the hyperlink graph: per-page out-links, the
host→host edge rollup, and centrality scores over it. PageRank follows
Page et al., "The PageRank Citation Ranking" (Stanford InfoLab 1999), with
the standard uniform dangling-mass redistribution; HITS follows Kleinberg
(1999).

Scale notes (100 TB):
- link extraction is a per-row kernel (same cost class as the extraction
  kernels in stages/extractor.py) — compiled regexes at module import,
  one pass per page, no DOM tree build;
- the host graph after rollup is ~|hosts|² sparse — orders of magnitude
  smaller than the corpus — so the score rounds move edge and score rows,
  never pages;
- every grouped exchange is one ``exchange.keyed_exchange`` call: coarse
  buckets, exact keys resolved inside the group function.

Iterated scores. Each of ``pagerank``, ``pagerank_int``, ``hits`` and
``hits_int`` has two forms. At or below ``local_edges_max`` edges
(200,000; the host rollup has 3,514 at sf0.01 and 31,599 at sf0.1) a
local form runs in the calling process (``_pagerank_local`` and its
siblings); it is also the bit-exact oracle of the distributed form.
Above it all four run one loop, ``_propagate``, and differ only in a
``_Step``: the per-edge contribution, the scalar total and the per-node
finish.

``_propagate`` builds the node table (node, out_w) with one keyed
exchange, then keeps one score table, a row per node carrying out_w and
every score column of the op. Each half-step:
  1. a keyed exchange on the from-node pairs each edge with its from-node's
     score row and emits a contribution row keyed on the to-node. A
     dangling node is one with out_w == 0;
  2. a keyed exchange on the to-node sums the contributions per node,
     with the local forms' own call: rows sorted by (to, from, c), then
     pandas' groupby sum;
  3. one scalar total through a fixed 64-bucket tree: bucket =
     crc32(node) % 64, a node-sorted ``Series.sum()`` per bucket in one
     Ray task over the score blocks, buckets folded in index order by the
     caller. Only 64 numbers reach the calling process;
  4. a per-node finish sets the written score column.
Every float sum is taken by the same call over the same rows in the same
order as in the local form, so local ≡ distributed bit for bit, and no
result depends on n_coarse. Integer sums are exact in any order.
"""

from __future__ import annotations

import html as _html
import re
from typing import Callable, NamedTuple
from urllib.parse import urljoin, urlsplit

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import ray

from ..str_hash import str_coarse
from .crawl import host_of
from .exchange import N_COARSE, keyed_exchange, nonempty_or_typed_table
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
    rollup. A per-batch Arrow group_by combiner first, then one keyed
    exchange on the host pair over the pre-aggregated rows (the
    partial-aggregation pattern — the exchange carries ≤ distinct host
    pairs per batch, not links)."""
    schema = {"src_host": pa.string(), "dst_host": pa.string(),
              "n_links": pa.int64()}

    def rollup(t: pa.Table) -> pa.Table:
        g = t.group_by(["src_host", "dst_host"]) \
            .aggregate([("n_links", "sum")])
        return pa.table({"src_host": g["src_host"], "dst_host": g["dst_host"],
                         "n_links": g["n_links_sum"]})

    def partial(batch: pa.Table) -> pa.Table:
        # unparseable hosts (host_of → null) roll up under ""
        return rollup(pa.table({
            "src_host": pc.fill_null(host_of(batch["src_url"]), ""),
            "dst_host": pc.fill_null(host_of(batch["dst_url"]), ""),
            "n_links": pa.array(np.ones(batch.num_rows, np.int64))}))

    out = keyed_exchange(links_ds.map_batches(partial, batch_format="pyarrow"),
                         ["src_host", "dst_host"], rollup, schema, n_coarse)
    return nonempty_or_typed_table(out, schema)


# ----------------------------------------------------- iterated scores

_DANGLING_BUCKETS = 64  # fixed (n_coarse-independent) total tree


def _positive_edges(edges_ds, src_col: str, dst_col: str, weight_col: str):
    """The (src, dst, w) rows of ``edges_ds`` with w > 0, materialized, or
    None when there are none. ``edges_ds`` is a Dataset or a ``pa.Table``
    (host_edges returns a typed-empty table for an empty corpus)."""
    import ray.data

    if isinstance(edges_ds, pa.Table):
        edges_ds = ray.data.from_arrow(edges_ds)

    def positive(batch: pa.Table) -> pa.Table:
        t = batch.filter(pc.greater(
            batch[weight_col].cast(pa.int64()), pa.scalar(0, pa.int64())))
        return pa.table({"src": t[src_col].cast(pa.string()),
                         "dst": t[dst_col].cast(pa.string()),
                         "w": t[weight_col].cast(pa.int64())})

    edges = edges_ds.map_batches(positive, batch_format="pyarrow") \
        .materialize()
    return edges if edges.count() else None


class _Step(NamedTuple):
    """One half-step of ``_propagate``. Edges run src → dst when
    ``forward``, dst → src otherwise. ``contrib(w, out_w, v)`` is an
    edge's contribution from the ``read`` score of its from-node. The
    total is Σ ``read`` over the dangling nodes (out_w == 0) before the
    step when ``dangling``, else Σ of the new per-node sums ``s``.
    ``finish(s, total, n)`` gives the new ``write`` scores."""
    forward: bool
    read: str
    write: str
    contrib: Callable
    dangling: bool
    finish: Callable


@ray.remote(num_cpus=1)
def _bucket_sums(refs, col: str, dangling: bool) -> "list":
    """The per-bucket sums of ``_tree_total``, in bucket order, over the
    score blocks ``refs`` (fetched inside the task, as in
    ``recipe._sorted_lookup``: the table is node-sized)."""
    t = pa.concat_tables(ray.get(list(refs)))
    df = pd.DataFrame({"node": t["node"].to_numpy(),
                       "v": t[col].to_numpy(),
                       "b": str_coarse(t["node"], _DANGLING_BUCKETS)})
    if dangling:
        df = df[t["w"].to_numpy() == 0]
    df = df.sort_values(["b", "node"], kind="mergesort")
    return [grp["v"].sum().item() for _, grp in df.groupby("b", sort=True)]


def _tree_total(scores, col: str, dangling: bool):
    """Σ ``col`` over the score rows (only those with out_w == 0 when
    ``dangling``) through the fixed 64-bucket tree of the local forms:
    bucket = crc32(node) % 64, a node-sorted ``Series.sum()`` per bucket,
    buckets folded in index order."""
    total = 0
    for s in ray.get(_bucket_sums.remote(scores.to_arrow_refs(), col,
                                         dangling)):
        total += s
    return total


def _propagate(edges, n_coarse, n_iter: int, dtype: pa.DataType,
               init: Callable, steps: "list[_Step]"):
    """The distributed form of the four iterated scores (see the module
    docstring). ``edges`` is the materialized (src, dst, w) table,
    ``init(n)`` maps each score column to its start value for ``n`` nodes,
    and every round runs ``steps`` in order. Returns a Dataset (node,
    *score columns)."""
    nc = n_coarse or N_COARSE
    np_type = dtype.to_pandas_dtype()

    def out_weights(t: pa.Table) -> pa.Table:
        g = t.group_by("node").aggregate([("w", "sum")])
        return pa.table({"node": g["node"], "w": g["w_sum"]})

    def endpoints(b: pa.Table) -> pa.Table:
        return out_weights(pa.concat_tables([
            pa.table({"node": b["src"], "w": b["w"]}),
            pa.table({"node": b["dst"],
                      "w": pa.array(np.zeros(b.num_rows, np.int64))})]))

    nodes = keyed_exchange(
        edges.map_batches(endpoints, batch_format="pyarrow"), ["node"],
        out_weights, {"node": pa.string(), "w": pa.int64()}, nc)
    n = nodes.count()
    start = init(n)
    # one row schema for the whole loop: a score row (node, null peer,
    # out_w, s, scores) or an edge/contribution row (node, peer, w, c in s)
    schema = pa.schema([("node", pa.string()), ("peer", pa.string()),
                        ("w", pa.int64()), ("s", dtype)]
                       + [(c, dtype) for c in start])

    def rows(node, peer, w, **cols) -> pa.Table:
        zero = pa.array(np.zeros(len(node), np_type))
        return pa.table({"node": node, "peer": peer, "w": w,
                         **{c: cols.get(c, zero) for c in schema.names[3:]}})

    def first(b: pa.Table) -> pa.Table:
        k = b.num_rows
        return rows(b["node"], pa.nulls(k, pa.string()), b["w"],
                    **{c: pa.array(np.full(k, v, np_type))
                       for c, v in start.items()})

    def edge_rows(frm: str, to: str):
        return edges.map_batches(lambda b: rows(b[frm], b[to], b["w"]),
                                 batch_format="pyarrow")

    def pair(step: _Step):
        def run(t: pa.Table) -> pa.Table:
            own = t.filter(pc.is_null(t["peer"]))
            e = t.filter(pc.is_valid(t["peer"]))
            at = own.take(pc.index_in(e["node"], value_set=own["node"]))
            c = step.contrib(e["w"].to_numpy(), at["w"].to_numpy(),
                             at[step.read].to_numpy())
            return pa.concat_tables([own, rows(e["peer"], e["node"], e["w"],
                                               s=pa.array(c, dtype))])
        return run

    def gather(t: pa.Table) -> pa.Table:
        own = t.filter(pc.is_null(t["peer"]))
        c = t.filter(pc.is_valid(t["peer"])).select(["node", "peer", "s"]) \
            .to_pandas()
        g = c.sort_values(["node", "peer", "s"], kind="mergesort") \
            .groupby("node", sort=True)["s"].sum()
        s = g.reindex(own["node"].to_numpy(), fill_value=0)
        return own.set_column(own.schema.get_field_index("s"), "s",
                              pa.array(s.to_numpy(np_type)))

    def finish(step: _Step, total):
        def run(b: pa.Table) -> pa.Table:
            v = step.finish(b["s"].to_numpy(), total, n)
            return b.set_column(b.schema.get_field_index(step.write),
                                step.write, pa.array(v, dtype))
        return run

    scores = nodes.map_batches(first, batch_format="pyarrow")
    for _ in range(n_iter):
        for step in steps:
            links = edge_rows(*(("src", "dst") if step.forward
                                else ("dst", "src")))
            summed = keyed_exchange(
                keyed_exchange(links.union(scores), ["node"], pair(step),
                               schema, nc),
                ["node"], gather, schema, nc)
            total = _tree_total(summed, step.read if step.dangling else "s",
                                step.dangling)
            scores = summed.map_batches(finish(step, total),
                                        batch_format="pyarrow")
    return scores.map_batches(lambda b: b.select(["node", *start]),
                              batch_format="pyarrow").materialize()


# ------------------------------------------------------------- PageRank

def _pagerank_local(edges: pd.DataFrame, damping: float,
                    n_iter: int) -> pa.Table:
    """Driver-local PageRank, bit-identical to the distributed
    path: per-dst sums in (dst, src)-sorted order, dangling
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
        "b": str_coarse(dangling, _DANGLING_BUCKETS)}) \
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
             weight_col: str = "n_links", n_coarse: int | None = None,
             local_edges_max: int = 200_000):
    """Weighted PageRank over an edge table (a Dataset or a ``pa.Table``).

    pr'(v) = (1-d)/N + d·(Σ_{u→v} pr(u)·w(u,v)/W(u) + dangling/N), fixed
    ``n_iter`` rounds from the uniform start; edges with w ≤ 0 are dropped
    first. At or below ``local_edges_max`` edges ``_pagerank_local`` runs
    in the calling process: the edge ROLLUP is orders of magnitude smaller
    than the corpus, and below the bound the per-round pipeline launches
    cost more than the arithmetic. Above it, ``_propagate`` runs one step
    a round: contribution (w/W(u))·pr(u), total = the dangling mass
    Σ pr(u) over W(u) = 0 through the 64-bucket tree, finish base + d·s.

    Returns (node, pr). Ranks sum to 1 up to float rounding.
    """
    edges = _positive_edges(edges_ds, src_col, dst_col, weight_col)
    if edges is None:
        return pa.schema([("node", pa.string()),
                          ("pr", pa.float64())]).empty_table()
    if edges.count() <= local_edges_max:
        return _pagerank_local(edges.to_pandas(), damping, n_iter)

    def finish(s, dmass, n):
        base = (1.0 - damping) / n + damping * dmass / n
        return base + damping * s

    def share(w, out_w, v):
        return (w.astype(np.float64) / out_w.astype(np.float64)) * v

    return _propagate(edges, n_coarse, n_iter, pa.float64(),
                      lambda n: {"pr": 1.0 / n},
                      [_Step(True, "pr", "pr", share, True, finish)])


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

    One keyed exchange on dst: a per-batch combiner pre-aggregates
    (dst, count, bounded distinct-text set) so hot targets (home pages
    linked from everywhere) reach the exchange as one row per batch."""

    def merge(dsts, counts, texts):
        # per distinct dst, in key order: summed count and the first
        # ``cap`` distinct texts (the first cap of a union are the first
        # cap of the union of each part's first cap)
        n: dict = {}
        seen: dict = {}
        for d, k, ts in zip(dsts, counts, texts):
            n[d] = n.get(d, 0) + k
            seen.setdefault(d, set()).update(ts)
        keys = sorted(n)
        return (keys, [n[d] for d in keys],
                [sorted(seen[d])[:cap] for d in keys])

    def partial(batch: pa.Table) -> pa.Table:
        dst, n, txts = merge(batch["dst_url"].to_pylist(),
                             [1] * batch.num_rows,
                             [[t] if t else []
                              for t in batch["anchor_text"].to_pylist()])
        return pa.table({"dst": pa.array(dst, pa.string()),
                         "n": pa.array(n, pa.int64()),
                         "txts": pa.array(txts, pa.list_(pa.string()))})

    def resolve(t: pa.Table) -> pa.Table:
        dst, n, txts = merge(t["dst"].to_pylist(), t["n"].to_pylist(),
                             t["txts"].to_pylist())
        return pa.table({"dst_url": dst, "n_inlinks": n,
                         "anchor_texts": [" | ".join(ts) for ts in txts]})

    schema = {"dst_url": pa.string(), "n_inlinks": pa.int64(),
              "anchor_texts": pa.string()}
    out = keyed_exchange(links_ds.map_batches(partial, batch_format="pyarrow"),
                         ["dst"], resolve, schema, n_coarse)
    return nonempty_or_typed_table(out, schema)


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
    decorates hosts with their labels, and a keyed exchange on the label
    emits component = min(host) — three bounded-by-the-rollup exchanges,
    never the corpus. (The 63-bit id space makes a cross-host collision —
    which could merge two components — a ~n²/2^64 event; below the cap the
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

    def distinct(t: pa.Table) -> pa.Table:
        return t.group_by(["host", "h"]).aggregate([])

    def comp(t: pa.Table) -> pa.Table:
        g = t.group_by("label").aggregate([("host", "min")])
        return pa.table({"host": t["host"], "component": g["host_min"].take(
            pc.index_in(t["label"], value_set=g["label"]))})

    nodes = keyed_exchange(
        edges_mat.map_batches(node_rows, batch_format="pyarrow"), ["host"],
        distinct, {"host": pa.string(), "h": pa.int64()})
    joined = hash_join(nodes, labels, "h", "src")
    return keyed_exchange(joined, ["label"], comp,
                          {"host": pa.string(), "component": pa.string()}) \
        .sort("host")


# ------------------------------------------------- HITS (hubs/authorities)

def _hits_bucket_total(s: pd.Series) -> float:
    """Fixed 64-bucket crc32 normalization tree (the dangling-mass
    convention): per-bucket node-sorted sums, buckets summed in index
    order — the total is independent of partitioning, so the local and
    distributed paths normalize with the SAME float."""
    nodes = list(s.index)
    df = pd.DataFrame({"node": nodes, "v": s.to_numpy(np.float64),
                       "b": str_coarse(nodes, _DANGLING_BUCKETS)}) \
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
    ``n_iter`` rounds; edges with w ≤ 0 are dropped first.

    ≤ ``local_edges_max`` edges: ``_hits_local`` in-process (the
    pagerank bound). Above it, ``_propagate`` with two steps a round, one
    per edge direction, on one score table that carries both columns:
    contribution w·v, total = Σ of the new sums through the 64-bucket
    tree, finish s / total when total > 0.

    Returns (node, hub, authority); both scores sum to 1 up to float
    rounding. Rows-only at the oracle gate (iterated float products — no
    SQL form), pinned by local ≡ distributed and numpy differentials."""
    edges = _positive_edges(edges_ds, src_col, dst_col, weight_col)
    if edges is None:
        return pa.schema([("node", pa.string()), ("hub", pa.float64()),
                          ("authority", pa.float64())]).empty_table()
    if edges.count() <= local_edges_max:
        return _hits_local(edges.to_pandas(), n_iter)

    def weighted(w, out_w, v):
        return w.astype(np.float64) * v

    def norm(s, total, n):
        return s / total if total > 0 else s

    return _propagate(edges, None, n_iter, pa.float64(),
                      lambda n: {"hub": 1.0 / n, "authority": 1.0 / n},
                      [_Step(True, "hub", "authority", weighted, False, norm),
                       _Step(False, "authority", "hub", weighted, False,
                             norm)])


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
    SQL bit-for-bit. Total mass decays by < N units/round to floor
    truncation — ranks are an ORDINAL score in micro-units, not a
    probability; callers wanting probabilities use :func:`pagerank`.

    Width budget: int64 requires scale * max(w) < 2^62 (checked at
    runtime); at larger weight scales pass a smaller ``scale`` (the SQL
    side can follow into HUGEINT, the engine side cannot).

    ≤ ``local_edges_max`` edges: ``_pagerank_int_local`` in-process.
    Above it, ``_propagate`` runs one step a round: contribution
    (r·w) // W(u), total = dmass, finish r'(v) above.
    """
    num, den = damp_num, damp_den
    edges = _positive_edges(edges_ds, src_col, dst_col, weight_col)
    if edges is None:
        return pa.schema([("node", pa.string()),
                          ("pr_int", pa.int64())]).empty_table()
    w_max = edges.max("w")
    if scale * int(w_max) >= 2 ** 62:
        raise ValueError(
            f"pagerank_int: scale*max_weight {scale}*{w_max} exceeds the "
            f"int64 width budget; pass a smaller scale")
    if edges.count() <= local_edges_max:
        return _pagerank_int_local(edges.to_pandas(), n_iter, scale, num, den)

    def finish(s, dmass, n):
        return (((den - num) * scale) // (den * n) + (num * dmass) // (den * n)
                + (num * s) // den)

    return _propagate(edges, n_coarse, n_iter, pa.int64(),
                      lambda n: {"pr_int": scale // n},
                      [_Step(True, "pr_int", "pr_int",
                             lambda w, out_w, v: (v * w) // out_w, True,
                             finish)])


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
    uniform start floors to zero (checked). ≤ ``local_edges_max`` edges:
    ``_hits_int_local`` in-process. Above it, ``_propagate`` with the
    two steps of :func:`hits`: contribution w·v, total = Σraw, finish
    (raw * scale) // Σraw when Σraw > 0.
    """
    edges = _positive_edges(edges_ds, src_col, dst_col, weight_col)
    if edges is None:
        return pa.schema([("node", pa.string()), ("hub_int", pa.int64()),
                          ("auth_int", pa.int64())]).empty_table()
    w_total = int(edges.sum("w"))
    if scale * scale * w_total >= 2 ** 62:
        raise ValueError(
            f"hits_int: scale^2 * total_weight {scale}^2*{w_total} exceeds "
            f"the int64 width budget; pass a smaller scale")
    if edges.count() <= local_edges_max:
        return _hits_int_local(edges.to_pandas(), n_iter, scale)

    def start(n):
        if n >= scale:
            raise ValueError(
                f"hits_int: node count {n} >= scale {scale} floors the "
                f"uniform start to zero; pass a larger scale")
        return {"hub_int": scale // n, "auth_int": 0}

    def weighted(w, out_w, v):
        return w * v

    def norm(s, total, n):
        return (s * scale) // total if total > 0 else s

    return _propagate(edges, n_coarse, n_iter, pa.int64(), start,
                      [_Step(True, "hub_int", "auth_int", weighted, False,
                             norm),
                       _Step(False, "auth_int", "hub_int", weighted, False,
                             norm)])
