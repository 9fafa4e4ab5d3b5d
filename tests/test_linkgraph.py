"""Link-graph operators: out-link extraction, host edge rollup, PageRank,
HITS, their fixed-point int siblings, components and the anchor-text
index."""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

from mobile_ocr_api_ray.stages import linkgraph


class TestPageOutLinks:
    def test_resolution_and_filtering(self):
        html = b"""
        <html><body>
        <a href="/about">About</a>
        <a href="https://other.example/x#frag">Other</a>
        <a href='rel/page'>Rel</a>
        <a href="mailto:x@y.z">Mail</a>
        <a href="javascript:void(0)">JS</a>
        <a href="">Empty</a>
        <a name="anchor-no-href">NoHref</a>
        <a href="/q?a=1&amp;b=2">Amp</a>
        <script><a href="/from-script">skip</a></script>
        </body></html>"""
        out = linkgraph.page_out_links("https://host.example/p/1", html)
        urls = [u for u, _ in out]
        assert urls == [
            "https://host.example/about",
            "https://other.example/x",
            "https://host.example/p/rel/page",
            "https://host.example/q?a=1&b=2",
        ]
        assert out[0][1] == "About"

    def test_anchor_text_collapse(self):
        html = b'<a href="/x"> spaced   <b>bold</b>\ntext </a>'
        out = linkgraph.page_out_links("https://h.example/", html)
        assert out[0][1] == "spaced bold text"

    def test_extract_links_batch_null_payload(self):
        batch = pa.table({
            "url": pa.array(["https://a.example/", "https://b.example/"]),
            "html": pa.array([b'<a href="/z">z</a>', None], pa.binary())})
        t = linkgraph.extract_links(batch)
        assert t.num_rows == 1
        assert t["src_url"][0].as_py() == "https://a.example/"


class TestHostEdges:
    def test_rollup(self, ray_session):
        import ray.data
        links = ray.data.from_arrow(pa.table({
            "src_url": pa.array(["https://a.ex/1", "https://a.ex/2",
                                 "https://a.ex/1", "https://b.ex/1"]),
            "dst_url": pa.array(["https://b.ex/x", "https://b.ex/y",
                                 "https://a.ex/self", "https://a.ex/z"]),
            "anchor_text": pa.array(["", "", "", ""])}))
        out = linkgraph.host_edges(links)
        df = (out.to_pandas() if hasattr(out, "to_pandas") else out) \
            if isinstance(out, pa.Table) else out.to_pandas()
        df = df.sort_values(["src_host", "dst_host"]).reset_index(drop=True)
        assert list(df.itertuples(index=False, name=None)) == [
            ("a.ex", "a.ex", 1), ("a.ex", "b.ex", 2), ("b.ex", "a.ex", 1)]

    def test_empty(self, ray_session):
        import ray.data
        links = ray.data.from_arrow(pa.table({
            "src_url": pa.array([], pa.string()),
            "dst_url": pa.array([], pa.string()),
            "anchor_text": pa.array([], pa.string())}))
        out = linkgraph.host_edges(links)
        assert isinstance(out, pa.Table)
        assert out.column_names == ["src_host", "dst_host", "n_links"]


def edges_ds(rows):
    import ray.data
    return ray.data.from_arrow(pa.table({
        "src_host": pa.array([r[0] for r in rows], pa.string()),
        "dst_host": pa.array([r[1] for r in rows], pa.string()),
        "n_links": pa.array([r[2] for r in rows], pa.int64())}))


# A hub with 36 in-edges of distinct weights, plus dangling leaves: its
# per-node float sum is long enough that a summation other than the local
# forms' own (sorted rows, pandas groupby sum) differs in the last bits.
HUB_ROWS = ([(f"s{i:02d}", "hub", i + 1) for i in range(36)]
            + [("hub", f"leaf{i}", 1 + i % 4) for i in range(6)]
            + [(f"s{i:02d}", f"s{i + 1:02d}", 2) for i in range(0, 36, 3)])


def pr_of(out) -> dict[str, float]:
    df = out.to_pandas() if hasattr(out, "to_pandas") else out
    return dict(zip(df["node"], df["pr"]))


def numpy_pagerank(rows, d=0.85, n_iter=10):
    nodes = sorted({r[0] for r in rows} | {r[1] for r in rows})
    idx = {n: i for i, n in enumerate(nodes)}
    n = len(nodes)
    w = np.zeros((n, n))
    for s, t, k in rows:
        w[idx[s], idx[t]] += k
    out_w = w.sum(axis=1)
    pr = np.full(n, 1.0 / n)
    for _ in range(n_iter):
        dangling = pr[out_w == 0].sum()
        contrib = np.zeros(n)
        for i in range(n):
            if out_w[i] > 0:
                contrib += pr[i] * w[i] / out_w[i]
        pr = (1 - d) / n + d * (contrib + dangling / n)
    return dict(zip(nodes, pr))


class TestPageRank:
    def test_two_node_cycle(self, ray_session):
        out = pr_of(linkgraph.pagerank(
            edges_ds([("a", "b", 1), ("b", "a", 1)])))
        assert out["a"] == pytest.approx(0.5, abs=1e-12)
        assert out["b"] == pytest.approx(0.5, abs=1e-12)
        assert sum(out.values()) == pytest.approx(1.0, abs=1e-9)

    def test_star_center_wins(self, ray_session):
        rows = [(f"leaf{i}", "hub", 1) for i in range(5)]
        rows += [("hub", f"leaf{i}", 1) for i in range(5)]
        out = pr_of(linkgraph.pagerank(edges_ds(rows)))
        assert all(out["hub"] > out[f"leaf{i}"] for i in range(5))

    def test_dangling_mass_redistributed(self, ray_session):
        # b has no out-links: its rank respreads uniformly; sum stays 1
        out = pr_of(linkgraph.pagerank(
            edges_ds([("a", "b", 1), ("c", "b", 1)])))
        assert sum(out.values()) == pytest.approx(1.0, abs=1e-9)
        assert out["b"] > out["a"] == out["c"]

    def test_differential_vs_numpy(self, ray_session):
        rng = np.random.RandomState(3)
        hosts = [f"h{i}" for i in range(12)]
        rows = []
        for _ in range(40):
            s, t = rng.choice(12, 2, replace=False)
            rows.append((hosts[s], hosts[t], int(rng.randint(1, 4))))
        # collapse duplicate (s,t) rows the way host_edges would
        agg: dict[tuple, int] = {}
        for s, t, k in rows:
            agg[(s, t)] = agg.get((s, t), 0) + k
        rows = [(s, t, k) for (s, t), k in sorted(agg.items())]
        got = pr_of(linkgraph.pagerank(edges_ds(rows)))
        want = numpy_pagerank(rows)
        assert set(got) == set(want)
        for k in want:
            assert got[k] == pytest.approx(want[k], abs=1e-12)

    def test_partition_invariance_bit_exact(self, ray_session):
        rows = [("a", "b", 2), ("b", "c", 1), ("c", "a", 3), ("a", "c", 1),
                ("d", "a", 1)]
        a = pr_of(linkgraph.pagerank(edges_ds(rows), n_coarse=1,
                                     local_edges_max=0))
        b = pr_of(linkgraph.pagerank(edges_ds(rows), n_coarse=17,
                                     local_edges_max=0))
        assert a == b   # exact float equality — sorted-summation design

    def test_local_matches_distributed(self, ray_session):
        rng = np.random.RandomState(5)
        hosts = [f"h{i}" for i in range(9)]
        agg: dict[tuple, int] = {}
        for _ in range(25):
            s, t = rng.choice(9, 2, replace=False)
            agg[(hosts[s], hosts[t])] = agg.get((hosts[s], hosts[t]), 0) + 1
        rows = [(s, t, k) for (s, t), k in sorted(agg.items())]
        for graph in (rows, HUB_ROWS):
            local = pr_of(linkgraph.pagerank(edges_ds(graph)))
            dist = pr_of(linkgraph.pagerank(edges_ds(graph), n_coarse=5,
                                            local_edges_max=0))
            assert local == dist   # bit-identical, not just allclose

    def test_local_matches_distributed_many_dangling(self, ray_session):
        # >8 populated dangling buckets: pandas' pairwise/unrolled sum
        # over the bucket partials would diverge from the local loop's
        # sequential fold in the last ulp — both paths now fold
        # sequentially in bucket order, so equality stays bit-exact
        rows = [("hub", f"d{i}", 1) for i in range(40)] \
            + [(f"s{i}", "hub", 1 + i % 3) for i in range(6)]
        local = pr_of(linkgraph.pagerank(edges_ds(rows)))
        dist = pr_of(linkgraph.pagerank(edges_ds(rows), n_coarse=7,
                                        local_edges_max=0))
        assert local == dist

    def test_empty_edges(self, ray_session):
        # a Dataset, and the typed-empty table host_edges returns for an
        # empty corpus
        typed_empty = pa.table({"src_host": pa.array([], pa.string()),
                                "dst_host": pa.array([], pa.string()),
                                "n_links": pa.array([], pa.int64())})
        for edges in (edges_ds([]), typed_empty):
            out = linkgraph.pagerank(edges)
            assert isinstance(out, pa.Table)
            assert out.column_names == ["node", "pr"]
            assert out.num_rows == 0


class TestPageMetadata:
    def test_title_and_description(self):
        from mobile_ocr_api_ray.stages.html_extract import page_metadata
        html = (b"<html><head><title> My  &amp; Title </title>"
                b'<meta name="description" content="a &amp; b  c">'
                b'<meta name="description" content="second ignored">'
                b"</head><body><p>x</p></body></html>")
        t, d = page_metadata(html)
        assert t == "My & Title"
        assert d == "a & b c"

    def test_absent_and_script_title(self):
        from mobile_ocr_api_ray.stages.html_extract import page_metadata
        assert page_metadata(b"<p>no head</p>") == ("", "")
        html = b"<script><title>fake</title></script><title>real</title>"
        assert page_metadata(html) == ("real", "")

    def test_single_quoted_meta(self):
        from mobile_ocr_api_ray.stages.html_extract import page_metadata
        html = b"<meta name='description' content='sq desc'>"
        assert page_metadata(html) == ("", "sq desc")


class TestAnchorTextIndex:
    def test_rollup_bounded(self, ray_session):
        import ray.data
        rows = [("https://s.ex/%d" % i, "https://t.ex/page", f"text{i % 7}")
                for i in range(20)]
        rows.append(("https://s.ex/x", "https://u.ex/q", ""))
        links = ray.data.from_arrow(pa.table({
            "src_url": pa.array([r[0] for r in rows]),
            "dst_url": pa.array([r[1] for r in rows]),
            "anchor_text": pa.array([r[2] for r in rows])}))
        out = linkgraph.anchor_text_index(links)
        df = (out.to_pandas() if not isinstance(out, pa.Table)
              else out.to_pandas()).sort_values("dst_url") \
            .reset_index(drop=True)
        assert list(df.dst_url) == ["https://t.ex/page", "https://u.ex/q"]
        assert list(df.n_inlinks) == [20, 1]
        # 7 distinct texts, capped at 5, lexicographic
        assert df.anchor_texts[0] == "text0 | text1 | text2 | text3 | text4"
        assert df.anchor_texts[1] == ""   # empty texts drop from the digest

    def test_partition_invariance(self, ray_session):
        import ray.data
        links = ray.data.from_arrow(pa.table({
            "src_url": pa.array([f"https://s{i}.ex/" for i in range(30)]),
            "dst_url": pa.array([f"https://t{i % 4}.ex/" for i in range(30)]),
            "anchor_text": pa.array([f"a{i % 9}" for i in range(30)])}))
        a = linkgraph.anchor_text_index(links, n_coarse=1).to_pandas() \
            .sort_values("dst_url").reset_index(drop=True)
        b = linkgraph.anchor_text_index(links, n_coarse=11).to_pandas() \
            .sort_values("dst_url").reset_index(drop=True)
        pd.testing.assert_frame_equal(a, b)

    def test_meta_content_with_gt(self):
        from mobile_ocr_api_ray.stages.html_extract import page_metadata
        html = b'<meta name="description" content="a > b and c">'
        assert page_metadata(html) == ("", "a > b and c")


class TestNullKeyHardening:
    def test_host_edges_null_host_kept(self, ray_session):
        import ray.data
        links = ray.data.from_arrow(pa.table({
            "src_url": pa.array(["not-a-url", "https://a.ex/"]),
            "dst_url": pa.array(["https://b.ex/", "https://b.ex/"]),
            "anchor_text": pa.array(["", ""])}))
        out = linkgraph.host_edges(links)
        df = out.to_pandas() if not isinstance(out, pa.Table) \
            else out.to_pandas()
        df = df.sort_values(["src_host", "dst_host"]).reset_index(drop=True)
        assert list(df.itertuples(index=False, name=None)) == [
            ("", "b.ex", 1), ("a.ex", "b.ex", 1)]

    def test_diff_null_key_unchanged(self, ray_session):
        import ray.data
        from mobile_ocr_api_ray.stages import crawl as c
        t = pa.table({"url": pa.array([None, "u1"], pa.string()),
                      "html": pa.array([b"x", b"y"], pa.binary())})
        ds = ray.data.from_arrow(t)
        out = c.diff_by_key(ds, ds)
        df = out.to_pandas() if not isinstance(out, pa.Table) \
            else out.to_pandas()
        assert sorted(df.status) == ["unchanged", "unchanged"]


class TestPageRankEdgeCases:
    def test_zero_weight_edges_mean_dangling(self, ray_session):
        # b's only out-edge has weight 0 → b must be treated as dangling
        # (0-weight fracs would otherwise NaN-poison or vanish b's mass)
        rows = [("a", "b", 1), ("b", "a", 0)]
        out = pr_of(linkgraph.pagerank(edges_ds(rows)))
        assert sum(out.values()) == pytest.approx(1.0, abs=1e-9)
        assert all(np.isfinite(v) for v in out.values())

    def test_self_loop(self, ray_session):
        rows = [("a", "a", 2), ("a", "b", 1), ("b", "a", 1)]
        out = pr_of(linkgraph.pagerank(edges_ds(rows)))
        assert sum(out.values()) == pytest.approx(1.0, abs=1e-9)
        assert out["a"] > out["b"]

    def test_parallel_duplicate_edges_deterministic(self, ray_session):
        # duplicate (src, dst) rows: each contributes its own share; the
        # (dst, src, c) sort key keeps sums bit-deterministic
        rows = [("a", "b", 1), ("a", "b", 2), ("b", "a", 1)]
        a = pr_of(linkgraph.pagerank(edges_ds(rows), n_coarse=3,
                                     local_edges_max=0))
        b = pr_of(linkgraph.pagerank(edges_ds(rows), n_coarse=3,
                                     local_edges_max=0))
        assert a == b
        # numerically equals the graph with the parallel edges merged
        merged = pr_of(linkgraph.pagerank(edges_ds(
            [("a", "b", 3), ("b", "a", 1)])))
        for k in merged:
            assert a[k] == pytest.approx(merged[k], rel=1e-12)


class TestHostComponents:
    """Weakly-connected components: hand graphs, local ≡ distributed
    (cap forced to 0), empty/typed-empty inputs."""

    @staticmethod
    def _comp(out) -> dict:
        df = out.to_pandas() if hasattr(out, "to_pandas") else out
        return dict(zip(df["host"], df["component"]))

    def test_hand_graph(self, ray_session):
        rows = [("b", "a", 1), ("b", "c", 2),     # chain a-b-c
                ("x", "y", 1),                    # pair
                ("s", "s", 3)]                    # self-loop singleton
        got = self._comp(linkgraph.host_components(edges_ds(rows)))
        assert got == {"a": "a", "b": "a", "c": "a",
                       "x": "x", "y": "x", "s": "s"}

    def test_local_matches_distributed(self, ray_session):
        rows = [(f"h{i}", f"h{(i + 1) % 7}", 1) for i in range(7)]
        rows += [(f"m{i}", f"m{i + 1}", 1) for i in range(5)]
        rows += [("lone", "lone", 1)]
        local = self._comp(linkgraph.host_components(edges_ds(rows)))
        dist = self._comp(linkgraph.host_components(
            edges_ds(rows), local_edges_max=0))
        assert local == dist

    def test_empty(self, ray_session):
        import ray.data
        out = linkgraph.host_components(ray.data.from_arrow(pa.table({
            "src_host": pa.array([], pa.string()),
            "dst_host": pa.array([], pa.string()),
            "n_links": pa.array([], pa.int64())})))
        assert isinstance(out, pa.Table) and out.num_rows == 0
        # typed-empty rollup (the host_edges empty contract)
        out2 = linkgraph.host_components(pa.table({
            "src_host": pa.array([], pa.string()),
            "dst_host": pa.array([], pa.string()),
            "n_links": pa.array([], pa.int64())}))
        assert out2.num_rows == 0
        assert out2.column_names == ["host", "component"]


def numpy_hits(rows, n_iter=10):
    nodes = sorted({r[0] for r in rows} | {r[1] for r in rows})
    idx = {n: i for i, n in enumerate(nodes)}
    n = len(nodes)
    W = np.zeros((n, n))
    for s, t, k in rows:
        W[idx[s], idx[t]] += k
    hub = np.full(n, 1.0 / n)
    auth = np.full(n, 1.0 / n)
    for _ in range(n_iter):
        auth = W.T @ hub
        if auth.sum() > 0:
            auth = auth / auth.sum()
        hub = W @ auth
        if hub.sum() > 0:
            hub = hub / hub.sum()
    return (dict(zip(nodes, hub)), dict(zip(nodes, auth)))


class TestHits:
    """HITS hubs/authorities: structure on a star graph, numpy
    differential, local ≡ distributed, empty edges."""

    @staticmethod
    def _scores(out):
        df = out.to_pandas() if hasattr(out, "to_pandas") else out
        return (dict(zip(df["node"], df["hub"])),
                dict(zip(df["node"], df["authority"])))

    def test_star_structure(self, ray_session):
        # every leaf links to the center: center is the top authority,
        # leaves are the (equal) top hubs
        rows = [(f"leaf{i}", "center", 1) for i in range(4)]
        hub, auth = self._scores(linkgraph.hits(edges_ds(rows)))
        assert max(auth, key=auth.get) == "center"
        assert auth["center"] == pytest.approx(1.0)
        for i in range(4):
            assert hub[f"leaf{i}"] == pytest.approx(0.25)
        assert hub["center"] == 0.0

    def test_differential_vs_numpy(self, ray_session):
        rows = [("a", "b", 2), ("b", "c", 1), ("c", "a", 3),
                ("a", "c", 1), ("d", "a", 5), ("d", "c", 1)]
        hub, auth = self._scores(linkgraph.hits(edges_ds(rows)))
        nh, na = numpy_hits(rows)
        for n in nh:
            assert hub[n] == pytest.approx(nh[n], rel=1e-9)
            assert auth[n] == pytest.approx(na[n], rel=1e-9)
        assert sum(hub.values()) == pytest.approx(1.0, abs=1e-9)
        assert sum(auth.values()) == pytest.approx(1.0, abs=1e-9)

    def test_local_matches_distributed(self, ray_session):
        rows = [("a", "b", 2), ("b", "c", 1), ("c", "a", 3),
                ("d", "a", 5), ("d", "c", 1), ("e", "e", 1)]
        for graph in (rows, HUB_ROWS):
            loc = self._scores(linkgraph.hits(edges_ds(graph), n_iter=3))
            dist = self._scores(linkgraph.hits(edges_ds(graph), n_iter=3,
                                               local_edges_max=0))
            assert set(loc[0]) == set(dist[0])
            for n in loc[0]:
                assert loc[0][n] == dist[0][n]   # bit-exact
                assert loc[1][n] == dist[1][n]

    def test_empty(self, ray_session):
        import ray.data
        out = linkgraph.hits(ray.data.from_arrow(pa.table({
            "src_host": pa.array([], pa.string()),
            "dst_host": pa.array([], pa.string()),
            "n_links": pa.array([], pa.int64())})))
        assert isinstance(out, pa.Table) and out.num_rows == 0


class TestPageRankInt:
    ROWS = [("a", "b", 3), ("a", "c", 1), ("b", "c", 2), ("c", "z", 5),
            ("c", "d", 1), ("d", "b", 7), ("e", "z", 2), ("f", "f", 1),
            ("b", "a", 4)]

    def _pure_python(self, rows, n_iter=10, scale=10 ** 9, num=85, den=100):
        # independent restatement of the recurrence (dict arithmetic)
        out_w: dict = {}
        for s, _, w in rows:
            out_w[s] = out_w.get(s, 0) + w
        nodes = sorted({r[0] for r in rows} | {r[1] for r in rows})
        n = len(nodes)
        r = {v: scale // n for v in nodes}
        for _ in range(n_iter):
            dmass = sum(r[v] for v in nodes if v not in out_w)
            inflow: dict = {}
            for s, t, w in rows:
                inflow[t] = inflow.get(t, 0) + (r[s] * w) // out_w[s]
            r = {v: ((den - num) * scale) // (den * n)
                 + (num * dmass) // (den * n)
                 + (num * inflow.get(v, 0)) // den for v in nodes}
        return r

    def test_differential_vs_pure_python(self, ray_session):
        got = linkgraph.pagerank_int(edges_ds(self.ROWS)).to_pandas()
        ref = self._pure_python(self.ROWS)
        assert dict(zip(got["node"], got["pr_int"])) == ref
        assert got["pr_int"].dtype == np.int64

    def test_local_matches_distributed_bit_exact(self, ray_session):
        for graph in (self.ROWS, HUB_ROWS):
            loc = linkgraph.pagerank_int(edges_ds(graph)) \
                .to_pandas().sort_values("node").reset_index(drop=True)
            for nc in (2, 5):
                dist = linkgraph.pagerank_int(
                    edges_ds(graph), local_edges_max=0, n_coarse=nc) \
                    .to_pandas().sort_values("node").reset_index(drop=True)
                assert loc.equals(dist)

    def test_mass_decays_only_by_truncation(self, ray_session):
        # total mass loses < n units per round to floor truncation
        got = linkgraph.pagerank_int(edges_ds(self.ROWS)).to_pandas()
        n, scale, n_iter = len(got), 10 ** 9, 10
        # per round: n floor divisions in r', plus the dmass/base splits
        assert scale - 3 * n * (n_iter + 1) <= got["pr_int"].sum() <= scale

    def test_ordinal_agreement_with_float_pagerank(self, ray_session):
        gi = linkgraph.pagerank_int(edges_ds(self.ROWS)).to_pandas()
        gf = linkgraph.pagerank(edges_ds(self.ROWS)).to_pandas()
        m = gi.merge(gf, on="node")
        # micro-unit ranks track the float ranks to ~1e-6 relative
        assert np.allclose(m["pr_int"].to_numpy(np.float64) / 1e9,
                           m["pr"].to_numpy(np.float64), atol=2e-6)

    def test_zero_weight_edges_dangle(self, ray_session):
        rows = [("a", "b", 1), ("b", "c", 0)]   # b emits nothing
        got = linkgraph.pagerank_int(edges_ds(rows)).to_pandas()
        assert set(got["node"]) == {"a", "b"}   # c unreferenced after filter

    def test_width_budget_guard(self, ray_session):
        with pytest.raises(ValueError, match="width budget"):
            linkgraph.pagerank_int(edges_ds([("a", "b", 2 ** 55)]))

    def test_empty(self, ray_session):
        import ray.data
        empty = ray.data.from_arrow(pa.table({
            "src_host": pa.array([], pa.string()),
            "dst_host": pa.array([], pa.string()),
            "n_links": pa.array([], pa.int64())}))
        out = linkgraph.pagerank_int(empty)
        assert isinstance(out, pa.Table)
        assert out.column_names == ["node", "pr_int"]


class TestHitsInt:
    ROWS = [("a", "b", 3), ("a", "c", 1), ("b", "c", 5),
            ("c", "d", 1), ("d", "b", 7), ("e", "z", 2), ("f", "f", 1),
            ("b", "a", 4)]

    def _pure_python(self, rows, n_iter=10, scale=10 ** 6):
        # independent restatement of the recurrence (dict arithmetic)
        rows = [r for r in rows if r[2] > 0]
        nodes = sorted({r[0] for r in rows} | {r[1] for r in rows})
        hub = {v: scale // len(nodes) for v in nodes}

        def norm(raw):
            tot = sum(raw.values())
            if tot <= 0:
                return raw
            return {v: (raw[v] * scale) // tot for v in raw}

        auth = {v: 0 for v in nodes}
        for _ in range(n_iter):
            ra = {v: 0 for v in nodes}
            for s, d, w in rows:
                ra[d] += w * hub[s]
            auth = norm(ra)
            rh = {v: 0 for v in nodes}
            for s, d, w in rows:
                rh[s] += w * auth[d]
            hub = norm(rh)
        return hub, auth

    def test_differential_vs_pure_python(self, ray_session):
        got = linkgraph.hits_int(edges_ds(self.ROWS)).to_pandas()
        hub, auth = self._pure_python(self.ROWS)
        assert dict(zip(got["node"], got["hub_int"])) == hub
        assert dict(zip(got["node"], got["auth_int"])) == auth
        assert got["hub_int"].dtype == np.int64
        assert got["auth_int"].dtype == np.int64

    def test_local_matches_distributed_bit_exact(self, ray_session):
        for graph in (self.ROWS, HUB_ROWS):
            loc = linkgraph.hits_int(edges_ds(graph)) \
                .to_pandas().sort_values("node").reset_index(drop=True)
            for nc in (2, 5):
                dist = linkgraph.hits_int(
                    edges_ds(graph), local_edges_max=0, n_coarse=nc) \
                    .to_pandas().sort_values("node").reset_index(drop=True)
                assert loc.equals(dist)

    def test_mass_decays_only_by_truncation(self, ray_session):
        # each normalized half-step's L1 total is scale minus < n units
        got = linkgraph.hits_int(edges_ds(self.ROWS)).to_pandas()
        n, scale = len(got), linkgraph.HITS_INT_SCALE
        assert scale - n <= got["hub_int"].sum() <= scale
        assert scale - n <= got["auth_int"].sum() <= scale

    def test_ordinal_agreement_with_float_hits(self, ray_session):
        gi = linkgraph.hits_int(edges_ds(self.ROWS)).to_pandas()
        gf = linkgraph.hits(edges_ds(self.ROWS)).to_pandas()
        m = gi.merge(gf, on="node")
        scale = float(linkgraph.HITS_INT_SCALE)
        assert np.allclose(m["hub_int"].to_numpy(np.float64) / scale,
                           m["hub"].to_numpy(np.float64), atol=2e-5)
        assert np.allclose(m["auth_int"].to_numpy(np.float64) / scale,
                           m["authority"].to_numpy(np.float64), atol=2e-5)

    def test_zero_weight_edges_filtered(self, ray_session):
        rows = [("a", "b", 1), ("b", "c", 0)]   # c unreferenced after filter
        got = linkgraph.hits_int(edges_ds(rows)).to_pandas()
        assert set(got["node"]) == {"a", "b"}

    def test_width_budget_guard(self, ray_session):
        with pytest.raises(ValueError, match="width budget"):
            linkgraph.hits_int(edges_ds([("a", "b", 2 ** 55)]))

    def test_scale_must_exceed_node_count(self, ray_session):
        with pytest.raises(ValueError, match="floors the"):
            linkgraph.hits_int(edges_ds(self.ROWS), scale=3)

    def test_empty(self, ray_session):
        import ray.data
        empty = ray.data.from_arrow(pa.table({
            "src_host": pa.array([], pa.string()),
            "dst_host": pa.array([], pa.string()),
            "n_links": pa.array([], pa.int64())}))
        out = linkgraph.hits_int(empty)
        assert isinstance(out, pa.Table)
        assert out.column_names == ["node", "hub_int", "auth_int"]
