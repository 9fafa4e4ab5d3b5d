"""Tests for the training-data operator suite: dedup family, similarity
search, text analysis, multimodal plumbing, page explode/reassemble."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

from mobile_ocr_api_ray.stages import dedup, multimodal, similarity, text_analysis
from mobile_ocr_api_ray.stages import glyphs
from mobile_ocr_api_ray.stages.pages_ops import explode_pdf_pages, reassemble_docs


def _docs_table(texts):
    return pa.table({"doc_id": pa.array(range(len(texts)), pa.int64()),
                     "text": pa.array(texts, pa.string())})


class TestTextAnalysis:
    def test_token_counts_values(self):
        t = _docs_table(["Hello world, it's 2-part!", ""])
        out = text_analysis.token_counts(t).to_pandas()
        # tokens: hello, world, it, s, 2, part
        assert out.n_tokens.tolist() == [6, 0]
        assert out.n_ws_tokens.tolist() == [4, 0]

    def test_quality_monotone(self):
        good = "the quick brown fox jumps over the lazy dog and runs to a tree " * 5
        bad = "!!! ??? ### $$$ %%% ^^^ &&& *** ((( )))"
        out = text_analysis.quality_scores(_docs_table([good, bad])).to_pandas()
        assert out.quality_score[0] > out.quality_score[1]

    def test_lang_id(self):
        en = "the cat and the dog are in the house with a ball"
        ind = "yang penting adalah data ini dan itu dari dalam sistem dengan cepat"
        out = text_analysis.lang_id(_docs_table([en, ind, "zzz qqq"])).to_pandas()
        assert out.lang_pred.tolist() == ["eng", "ind", "und"]

    def test_fingerprint_deterministic_and_shift_invariant(self):
        a = "the quick brown fox jumps over the lazy dog again and again"
        fa = text_analysis.winnow_fingerprints(a)
        fb = text_analysis.winnow_fingerprints("PREFIX " + a)
        assert fa == text_analysis.winnow_fingerprints(a)
        # winnowing guarantees shared fingerprints for long shared substrings
        assert len(set(fa) & set(fb)) / len(set(fa)) > 0.6


class TestDedupKernels:
    def test_minhash_jaccard_estimate(self):
        a = "the quick brown fox jumps over the lazy dog " * 4
        b = "the quick brown fox jumps over the lazy cat " * 4
        sa = dedup.minhash_signature(dedup.shingle_hashes(a))
        sb = dedup.minhash_signature(dedup.shingle_hashes(b))
        est = dedup.estimated_jaccard(sa, sb)
        true = dedup.ngram_jaccard(a, b)
        assert abs(est - true) < 0.25
        assert dedup.estimated_jaccard(sa, sa) == 1.0

    def test_simhash_properties(self):
        a = dedup.simhash64("alpha beta gamma delta epsilon zeta eta theta")
        b = dedup.simhash64("alpha beta gamma delta epsilon zeta eta iota")
        c = dedup.simhash64("completely different words entirely unrelated text here now")
        ham = lambda x, y: bin(int(np.uint64(x) ^ np.uint64(y))).count("1")
        assert ham(a, a) == 0
        assert ham(a, b) < ham(a, c)
        assert dedup.simhash64("") == 0

    def test_shingles_deterministic(self):
        s1 = dedup.shingle_hashes("a b c d e")
        s2 = dedup.shingle_hashes("a b c d e")
        assert np.array_equal(s1, s2)
        assert len(s1) == 3  # 3-grams of 5 words


class TestDedupPipelines:
    @pytest.fixture(scope="class")
    def doc_ds(self, ray_session):
        import ray.data
        texts = [f"unique document number {i} with content words alpha beta gamma {i}"
                 for i in range(40)]
        texts += texts[:10]  # 10 exact dups
        return ray.data.from_arrow(pa.table({
            "doc_id": pa.array(range(len(texts)), pa.int64()),
            "text": pa.array(texts, pa.string())}))

    def test_exact_dedup(self, ray_session, doc_ds):
        stats = dedup.exact_dedup_stats(doc_ds).to_pandas()
        assert len(stats) == 40
        assert (stats.dup_count.sort_values().tail(10) == 2).all()
        kept = dedup.exact_dedup(doc_ds).to_pandas()
        assert len(kept) == 40
        assert (kept.doc_id < 40).all()  # representative = min doc_id

    def test_exact_dedup_skew_correct_and_no_straggler(self, ray_session):
        """Hot-key stress: one text owning ~30% of rows must (a) produce
        the same stats a pandas groupby gives and (b) not straggler-
        collapse — exact_dedup_stats exchanges per-block Min/Count
        partials, so the hot digest costs ~n_blocks rows, and wall time
        stays comparable to a uniform corpus of the same size."""
        import time

        import ray.data
        from mobile_ocr_api_ray.hashing import hash32
        n = 4_000
        hot = "HOT DUPLICATE PAYLOAD"
        uniform = [f"unique skew-test doc {i} alpha beta {i * 7}" for i in range(n)]
        skewed = [hot if hash32(i) % 10 < 3 else t
                  for i, t in enumerate(uniform)]

        def run(texts):
            ds = ray.data.from_arrow(_docs_table(texts)).repartition(8)
            t0 = time.perf_counter()
            out = dedup.exact_dedup_stats(ds).to_pandas()
            return out, time.perf_counter() - t0

        skew_df, t_skew = run(skewed)
        _, t_uniform = run(uniform)
        n_hot = sum(1 for i in range(n) if hash32(i) % 10 < 3)
        assert 0.25 * n < n_hot < 0.35 * n  # the corpus really is skewed
        hot_row = skew_df.sort_values("dup_count").iloc[-1]
        assert hot_row.dup_count == n_hot
        assert len(skew_df) == n - n_hot + 1
        assert int(skew_df.dup_count.sum()) == n
        # generous flake margin; a reducer that receives the raw hot rows
        # instead of partials shows up as a multiple, not a fraction
        assert t_skew < 3.0 * t_uniform + 1.0, (t_skew, t_uniform)

    def test_minhash_finds_exact_dups(self, ray_session, doc_ds):
        pairs = dedup.minhash_dedup_pairs(doc_ds, threshold=0.9).to_pandas()
        expected = {(i, i + 40) for i in range(10)}
        got = {(a, b) for a, b in zip(pairs.id_a, pairs.id_b)}
        assert expected <= got
        assert (pairs.est_jaccard >= 0.9).all()

    def test_adjacent_ngram_jaccard(self, ray_session, doc_ds):
        out = dedup.adjacent_ngram_jaccard(doc_ds).to_pandas().sort_values(
            "id_a").reset_index(drop=True)
        docs = doc_ds.to_pandas().sort_values("doc_id")
        texts = docs.text.tolist()
        assert len(out) == len(texts) - 1
        for _, row in out.iterrows():
            expect = dedup.ngram_jaccard_exact(texts[int(row.id_a)],
                                               texts[int(row.id_b)])
            assert row.jaccard == expect
            assert row.id_b == row.id_a + 1
        # doc 39 and 40 are exact dups (texts[40] == texts[0]? no: 40==0+40 dup
        # of doc 0) — the adjacent pair (39, 40) compares doc 39 vs clone of 0
        assert out.jaccard.between(0, 1).all()

    def test_verify_pairs_ngram(self, ray_session, doc_ds):
        pairs = dedup.minhash_dedup_pairs(doc_ds, threshold=0.9)
        verified = dedup.verify_pairs_ngram(pairs, doc_ds).to_pandas()
        got = {(a, b): j for a, b, j in
               zip(verified.id_a, verified.id_b, verified.jaccard)}
        for i in range(10):  # exact dup pairs verify at jaccard exactly 1.0
            assert got.get((i, i + 40)) == 1.0
        assert verified.est_jaccard.notna().all()

    def test_dup_clusters(self, ray_session, doc_ds):
        pairs = dedup.minhash_dedup_pairs(doc_ds, threshold=0.9)
        clusters = dedup.dup_clusters(pairs).to_pandas()
        m = dict(zip(clusters.src, clusters.label))
        for i in range(10):
            assert m.get(i + 40) == i  # dup labeled by its representative

    def test_dup_clusters_long_chain_converges(self, ray_session):
        # near-dup adjacency is NOT transitive, so components can be long
        # chains; min-label propagation is one hop per round and must
        # iterate to the fixpoint (the round-3 fixed 4-round cap mislabeled
        # any node >4 hops from the component min — and would have broken
        # the recursive-CTE keep oracle)
        import ray.data
        chain = [(10, 11), (11, 12), (12, 13), (13, 14), (14, 15), (15, 5)]
        pairs = ray.data.from_arrow(pa.table({
            "id_a": pa.array([a for a, _ in chain], pa.int64()),
            "id_b": pa.array([b for _, b in chain], pa.int64())}))
        out = dedup.dup_clusters(pairs).to_pandas()
        assert set(out.label) == {5}  # every node reaches the true min
        assert len(out) == 7

    def test_embedding_near_pairs(self, ray_session):
        import ray.data
        rs = np.random.RandomState(3)
        vecs = rs.normal(size=(30, 16))
        vecs = np.vstack([vecs, vecs[:5] * 2.0])  # scaled copies: cosine 1.0
        ds = ray.data.from_arrow(pa.table({
            "vec_id": pa.array(range(len(vecs)), pa.int64()),
            "embedding": pa.array([list(v) for v in vecs], pa.list_(pa.float64()))}))
        pairs = dedup.embedding_near_pairs(ds, threshold=0.999).to_pandas()
        got = {(a, b) for a, b in zip(pairs.id_a, pairs.id_b)}
        assert {(i, i + 30) for i in range(5)} <= got


class TestSemDeDup:
    """True SemDeDup (cluster-bounded pairwise, drop-larger at tau)."""

    def _ds(self, vecs):
        import ray.data
        return ray.data.from_arrow(pa.table({
            "vec_id": pa.array(range(len(vecs)), pa.int64()),
            "embedding": pa.array([list(map(float, v)) for v in vecs],
                                  pa.list_(pa.float64()))}))

    def test_near_dups_within_clusters_dropped(self, ray_session):
        rs = np.random.RandomState(3)
        base = rs.normal(size=(40, 16))
        vecs = list(base)
        # ids 40..44: tiny perturbations of ids 0..4 — cosine ≈ 1,
        # guaranteed same k-means cluster as their base
        for i in range(5):
            vecs.append(base[i] + 1e-6 * rs.normal(size=16))
        kept = similarity.semdedup_kept(
            self._ds(vecs), k=4, tau=0.999).to_pandas().vec_id.tolist()
        assert sorted(kept) == sorted(set(range(40)) - self._extra(base)), \
            kept

    def _extra(self, base):
        # random gaussian pairs may exceed tau only if degenerate; verify
        # none do, so the expected kept set is exactly 0..39
        m = base / np.linalg.norm(base, axis=1, keepdims=True)
        cos = m @ m.T
        np.fill_diagonal(cos, 0)
        assert cos.max() < 0.999
        return set()

    def test_brute_force_differential_within_clusters(self, ray_session):
        """Within-cluster pair detection is EXACT: recompute the drop set
        in numpy from the same labels and compare."""
        rs = np.random.RandomState(7)
        vecs = rs.normal(size=(60, 8))
        vecs[15] = vecs[3] * 1.7          # same direction, scaled
        vecs[41] = vecs[20] + 1e-8
        ds = self._ds(vecs).materialize()
        tau = 0.999
        labels = similarity.kmeans_labels(ds, k=3).to_pandas() \
            .set_index("vec_id").label
        m = vecs / np.linalg.norm(vecs, axis=1, keepdims=True)
        dropped = set()
        for i in range(len(vecs)):
            for j in range(i + 1, len(vecs)):
                if labels[i] == labels[j] and float(m[i] @ m[j]) >= tau:
                    dropped.add(j)
        kept = similarity.semdedup_kept(ds, k=3, tau=tau) \
            .to_pandas().vec_id.tolist()
        assert sorted(kept) == sorted(set(range(len(vecs))) - dropped)
        assert 15 in dropped and 41 in dropped  # the planted near-dups

    def test_null_embeddings_survive(self, ray_session):
        import ray.data
        rs = np.random.RandomState(5)
        vecs = [list(map(float, v)) for v in rs.normal(size=(20, 8))]
        vecs.append(list(vecs[0]))  # clone of 0 → dropped
        tbl = pa.table({
            "vec_id": pa.array(range(22), pa.int64()),
            "embedding": pa.array(vecs + [None], pa.list_(pa.float64()))})
        kept = similarity.semdedup_kept(
            ray.data.from_arrow(tbl), k=2, tau=0.999999) \
            .to_pandas().vec_id.tolist()
        assert 21 in kept      # null-embedding row survives
        assert 20 not in kept  # clone dropped
        assert sorted(kept) == sorted(set(range(22)) - {20})


class TestSimilarity:
    @pytest.fixture(scope="class")
    def emb_ds(self, ray_session):
        import ray.data
        rs = np.random.RandomState(11)
        vecs = rs.normal(size=(200, 32))
        return ray.data.from_arrow(pa.table({
            "vec_id": pa.array(range(200), pa.int64()),
            "embedding": pa.array([list(v) for v in vecs], pa.list_(pa.float64()))}))

    def test_brute_topk_exact(self, ray_session, emb_ds):
        rs = np.random.RandomState(5)
        queries = rs.normal(size=(3, 32))
        res = similarity.brute_topk(emb_ds, queries, k=5).to_pandas()
        assert len(res) == 15
        # verify vs plain numpy
        vecs = np.array(emb_ds.to_pandas().embedding.tolist())
        vn = vecs / np.linalg.norm(vecs, axis=1, keepdims=True)
        qn = queries / np.linalg.norm(queries, axis=1, keepdims=True)
        sims = vn @ qn.T
        for qi in range(3):
            expected = np.lexsort((np.arange(200), -sims[:, qi]))[:5]
            got = res[res.query_id == qi].sort_values("rank").vec_id.to_numpy()
            assert np.array_equal(got, expected)

    def test_ivf_recall(self, ray_session, emb_ds):
        rs = np.random.RandomState(5)
        queries = rs.normal(size=(3, 32))
        brute = similarity.brute_topk(emb_ds, queries, k=5).to_pandas()
        approx = similarity.ivf_topk(emb_ds, queries, k=5, n_centroids=8,
                                     n_probe=4).to_pandas()
        # probing half the centroid lists must recover most of the true top-k
        hits = 0
        for qi in range(3):
            t = set(brute[brute.query_id == qi].vec_id)
            a = set(approx[approx.query_id == qi].vec_id)
            hits += len(t & a)
        assert hits / 15 >= 0.6
        # determinism: same call → same result
        again = similarity.ivf_topk(emb_ds, queries, k=5, n_centroids=8,
                                    n_probe=4).to_pandas()
        pd.testing.assert_frame_equal(
            approx.sort_values(["query_id", "rank"]).reset_index(drop=True),
            again.sort_values(["query_id", "rank"]).reset_index(drop=True))

    def test_lsh_recall(self, ray_session, emb_ds):
        rs = np.random.RandomState(5)
        queries = rs.normal(size=(3, 32))
        brute = similarity.brute_topk(emb_ds, queries, k=5).to_pandas()
        approx = similarity.lsh_topk(emb_ds, queries, k=5, n_probe_bits=2,
                                     n_planes=6).to_pandas()
        b = {(q, v) for q, v in zip(brute.query_id, brute.vec_id)}
        a = {(q, v) for q, v in zip(approx.query_id, approx.vec_id)}
        recall = len(a & b) / len(b)
        assert recall >= 0.5  # ~34% scan fraction at (6 planes, probe<=2)

    def test_quantize_int8_codes(self, ray_session):
        # hand vector: max|x| = 1.0 -> scale 1/127, code = floor(127x+0.5)
        mat = np.array([[0.5, -1.0, 0.25, 0.0],
                        [0.0, 0.0, 0.0, 0.0]])
        q, scale = similarity._quantize_block(mat)
        assert q.dtype == np.int8
        assert q[0].tolist() == [64, -127, 32, 0]
        assert scale[0] == 1.0 / 127.0
        assert q[1].tolist() == [0, 0, 0, 0] and scale[1] == 0.0
        # round-trip error bounded by half a code step per component
        deq = q[0].astype(np.float64) * scale[0]
        assert np.abs(deq - mat[0]).max() <= scale[0] / 2 + 1e-12

    def test_quantize_nan_components(self, ray_session):
        # a null list element surfaces as NaN: it must not poison the
        # row's scale and must code to 0 (never NaN.astype(int8))
        mat = np.array([[0.5, np.nan, -1.0, 0.25]])
        q, scale = similarity._quantize_block(mat)
        assert q[0].tolist() == [64, 0, -127, 32]
        assert scale[0] == 1.0 / 127.0
        allnan, s2 = similarity._quantize_block(
            np.array([[np.nan, np.nan]]))
        assert allnan[0].tolist() == [0, 0] and s2[0] == 0.0

    def test_quantize_stage_bytes(self, ray_session, emb_ds):
        out = similarity.quantize_int8(emb_ds).to_pandas()
        assert len(out) == 200 and set(out.dim) == {32}
        row = out.iloc[0]
        codes = np.frombuffer(row.q_bytes, np.int8)
        assert len(codes) == 32 and np.abs(codes).max() == 127

    def test_quantized_recall_near_exact(self, ray_session, emb_ds):
        rs = np.random.RandomState(5)
        queries = rs.normal(size=(3, 32))
        brute = similarity.brute_topk(emb_ds, queries, k=5).to_pandas()
        quant = similarity.quantized_topk(emb_ds, queries, k=5).to_pandas()
        b = {(q, v) for q, v in zip(brute.query_id, brute.vec_id)}
        a = {(q, v) for q, v in zip(quant.query_id, quant.vec_id)}
        # int8 keeps ~0.4% max component error: top-k should barely move
        assert len(a & b) / len(b) >= 0.8


class TestMultimodal:
    def test_image_decode(self, ray_session):
        img = glyphs.render_text(["HELLO WORLD"], scale=3, margin=12)
        batch = pa.table({"url": pa.array(["u1", "u2"], pa.string()),
                          "payload": pa.array([glyphs.encode_imgx(img), b"junk"], pa.binary())})
        out = multimodal.ImageDecodeStage()(batch).to_pandas()
        assert out.status.tolist()[0] == "ok"
        assert out.codec[0] == "imgx"
        assert out.width[0] == img.shape[1]
        assert out.status[1] == "error"

    def test_resize_stage(self):
        img = np.zeros((100, 3000), dtype=np.uint8)
        batch = pa.table({"url": pa.array(["u"], pa.string()),
                          "payload": pa.array([glyphs.encode_imgx(img)], pa.binary())})
        out = multimodal.ImageResizeStage(max_dim=1200)(batch).to_pandas()
        assert out.width[0] == 1200
        assert out.height[0] == int(100 * (1200 / 3000))

    def test_frame_sampling(self):
        frames = [b"f0", b"f1", b"f2", b"f3", b"f4"]
        batch = pa.table({"url": pa.array(["v"], pa.string()),
                          "payload": pa.array([glyphs.encode_pdfx(frames)], pa.binary())})
        out = multimodal.sample_frames(batch, every_nth=2).to_pandas()
        assert out.frame_idx.tolist() == [0, 2, 4]
        assert out.frame.tolist() == [b"f0", b"f2", b"f4"]

    def test_audio_features(self):
        sr = 8000
        t = np.arange(sr) / sr
        wave = (10000 * np.sin(2 * np.pi * 440 * t))
        batch = pa.table({"url": pa.array(["a"], pa.string()),
                          "payload": pa.array([multimodal.encode_audx(wave, sr)], pa.binary())})
        out = multimodal.AudioFeatureStage()(batch).to_pandas()
        assert abs(out.duration_s[0] - 1.0) < 1e-9
        assert abs(out.zero_crossings[0] - 880) <= 2
        assert out.rms[0] > 5000


class TestPagesOps:
    def test_explode_reassemble_matches_inline(self, ray_session, small_corpus):
        """The distributed explode → per-page extract → groupby reassembly
        must equal the flagship's inline per-row page loop (M6/G3)."""
        import os
        import ray.data
        from mobile_ocr_api_ray.pipelines.extract import extract_pipeline, read_pages
        from mobile_ocr_api_ray.stages.extractor import ExtractorActor

        pages_path = os.path.join(small_corpus, "pages.parquet")
        # inline path, pdf rows only
        full = extract_pipeline(read_pages(pages_path),
                                with_summary=False).to_pandas()
        inline = full[(full.payload_kind == "pdf") & (full.source == "kernel")]
        if len(inline) == 0:
            pytest.skip("no pdf kernel rows in corpus tier")

        # distributed path
        ds = read_pages(pages_path)
        pdf_urls = set(inline.url)

        def only_pdfs(batch: pa.Table) -> pa.Table:
            import pyarrow.compute as pc
            mask = pc.is_in(batch["url"], value_set=pa.array(list(pdf_urls)))
            return batch.filter(mask)

        exploded = ds.map_batches(only_pdfs, batch_format="pyarrow").map_batches(
            explode_pdf_pages, batch_format="pyarrow")

        def extract_page(batch: pa.Table) -> pa.Table:
            ex = ExtractorActor(build_spans=False)
            rows = []
            for u, p, pg, tp in zip(batch["url"].to_pylist(), batch["html"].to_pylist(),
                                    batch["page"].to_pylist(), batch["total_pages"].to_pylist()):
                r = ex.extract_row(u, p, None, None)
                rows.append({"url": u, "page": pg, "total_pages": tp,
                             "page_text": r["extracted_text"],
                             "page_confidence": r["confidence"]})
            return pa.Table.from_pylist(rows)

        pages = exploded.map_batches(extract_page, batch_format="pyarrow")
        docs = reassemble_docs(pages).to_pandas()
        m = docs.merge(inline, on="url", suffixes=("_d", "_i"))
        assert len(m) == len(inline)
        assert (m.extracted_text_d == m.extracted_text_i).all()
        assert np.allclose(m.confidence_d, m.confidence_i)
        assert (m.total_pages_d == m.total_pages_i).all()


class TestRegistryAndVisualization:
    def _image_batch(self):
        import random
        from mobile_ocr_api_ray import corpus
        rng = random.Random("reg:1")
        lines, breaks, ptexts = corpus._make_image_lines(rng, 3)
        img = glyphs.render_text(lines, scale=3, margin=16, para_breaks=breaks)
        payload = glyphs.encode_imgx(img)
        html = b"<html><body><p>" + b"Content sentence here. " * 20 + b"</p></body></html>"
        return pa.table({
            "url": pa.array(["imgx://a", "html://b"], pa.string()),
            "html": pa.array([payload, html], pa.binary()),
            "text": pa.array([None, None], pa.string()),
            "lang": pa.array(["en", "en"], pa.string())}), ptexts

    def test_custom_kernel_callable(self):
        from mobile_ocr_api_ray.stages.extractor import ExtractorActor

        def shouty(payload, ctx):
            return "CUSTOM KERNEL OUTPUT", 42.0, [
                {"text": "CUSTOM KERNEL OUTPUT", "x": 0, "y": 0,
                 "width": 20, "height": 1, "column": 0}], 1

        batch, _ = self._image_batch()
        out = ExtractorActor(kernels={"html": shouty})(batch).to_pandas()
        row = out[out.url == "html://b"].iloc[0]
        assert row.extracted_text == "CUSTOM KERNEL OUTPUT"
        assert row.confidence == 42.0
        # image kind untouched by the html override
        assert out[out.url == "imgx://a"].iloc[0].status == "ok"

    def test_registry_name_fallback(self):
        from mobile_ocr_api_ray.stages import extractor
        from mobile_ocr_api_ray.stages.registry import (register_kernel,
                                                        registered_kernels,
                                                        resolve_kernel)
        assert ("html", "default") in registered_kernels()
        # unknown name falls back to the kind's default (app2.py:844-845)
        assert resolve_kernel("html", "nonexistent") is extractor.html_kernel

        def k(payload, ctx):
            return "", 0.0, [], 1

        register_kernel("html", "test_variant", k)
        assert resolve_kernel("html", "test_variant") is k

    def test_visualization_column(self):
        from mobile_ocr_api_ray.stages.extractor import ExtractorActor
        from mobile_ocr_api_ray.stages.image_extract import optimize_image

        batch, _ = self._image_batch()
        out = ExtractorActor(build_visualization=True)(batch).to_pandas()
        img_row = out[out.url == "imgx://a"].iloc[0]
        html_row = out[out.url == "html://b"].iloc[0]
        assert html_row.visualization is None  # no pixel geometry for DOM path
        viz = glyphs.decode_imgx(img_row.visualization)
        orig = optimize_image(glyphs.decode_imgx(batch["html"][0].as_py()), 1200)
        assert viz.shape == orig.shape
        # rectangles drawn: first paragraph's top border row is all ink
        p0 = img_row.paragraphs[0]["bounds"]
        assert (viz[p0["y"], p0["x"]:p0["x"] + p0["width"]] == 0).all()
        assert (viz != orig).any()
        # off by default
        out2 = ExtractorActor()(batch).to_pandas()
        assert out2.visualization.isna().all()


class TestOperatorInvariance:
    """Operator results must not depend on block layout (SURVEY.md §5 item 3):
    same values under repartition(1) vs repartition(13)."""

    @pytest.fixture(scope="class")
    def docs_ds(self, ray_session):
        import ray.data
        texts = [f"document {i} content words alpha beta gamma delta {i % 7} tail {i}"
                 for i in range(60)]
        texts += texts[:15]
        return ray.data.from_arrow(pa.table({
            "doc_id": pa.array(range(len(texts)), pa.int64()),
            "text": pa.array(texts, pa.string())}))

    def _cmp(self, mk, ds, sort_cols):
        a = mk(ds.repartition(1)).to_pandas()
        b = mk(ds.repartition(13)).to_pandas()
        a = a.sort_values(sort_cols).reset_index(drop=True)
        b = b.sort_values(sort_cols).reset_index(drop=True)
        pd.testing.assert_frame_equal(a, b)

    def test_minhash_pairs_invariant(self, ray_session, docs_ds):
        self._cmp(lambda d: dedup.minhash_dedup_pairs(d, threshold=0.8),
                  docs_ds, ["id_a", "id_b"])

    def test_simhash_pairs_invariant(self, ray_session, docs_ds):
        self._cmp(lambda d: dedup.simhash_near_pairs(d, max_hamming=3),
                  docs_ds, ["id_a", "id_b"])

    def test_adjacent_jaccard_invariant(self, ray_session, docs_ds):
        self._cmp(dedup.adjacent_ngram_jaccard, docs_ds, ["id_a"])

    def test_exact_dedup_invariant(self, ray_session, docs_ds):
        self._cmp(dedup.exact_dedup_stats, docs_ds, ["digest"])

    def test_ann_invariant(self, ray_session):
        import ray.data
        rs = np.random.RandomState(9)
        vecs = rs.normal(size=(150, 24))
        ds = ray.data.from_arrow(pa.table({
            "vec_id": pa.array(range(150), pa.int64()),
            "embedding": pa.array([list(v) for v in vecs], pa.list_(pa.float64()))}))
        queries = rs.normal(size=(2, 24))
        self._cmp(lambda d: similarity.brute_topk(d, queries, k=7),
                  ds, ["query_id", "rank"])
        self._cmp(lambda d: similarity.ivf_topk(d, queries, k=7, n_centroids=6,
                                                n_probe=3),
                  ds, ["query_id", "rank"])


class TestEmptyResults:
    """A duplicate-free corpus must yield empty-but-typed results — not
    schema-less datasets that break downstream sorts (regression: map_groups
    over zero rows returns an untyped empty dataset)."""

    @pytest.fixture(scope="class")
    def unique_ds(self, ray_session):
        import ray.data
        texts = [f"totally unique document number {i} about topic {i*7} "
                 f"and subject {i*13} end" for i in range(30)]
        return ray.data.from_arrow(pa.table({
            "doc_id": pa.array(range(30), pa.int64()),
            "text": pa.array(texts, pa.string())}))

    def test_pair_ops_keep_schema(self, ray_session, unique_ds):
        # Dataset-level schema must survive the empty result so sorts and
        # column references work. (Ray's to_pandas drops columns on
        # all-empty datasets — assert on ds.schema(), the real contract.)
        mh = dedup.minhash_dedup_pairs(unique_ds, threshold=0.95)
        assert mh.schema().names == ["id_a", "id_b", "est_jaccard"]
        assert mh.sort(["id_a", "id_b"]).count() == 0  # sort needs the schema
        sh = dedup.simhash_near_pairs(unique_ds, max_hamming=1)
        assert sh.schema().names == ["id_a", "id_b", "hamming"]
        assert sh.sort(["id_a", "id_b"]).count() == 0

    def test_clusters_from_empty_pairs(self, ray_session, unique_ds):
        pairs = dedup.minhash_dedup_pairs(unique_ds, threshold=0.99)
        out = dedup.dup_clusters(pairs)
        assert out.schema().names == ["src", "label"]
        assert out.sort("src").count() == 0  # sort works on the typed empty


class TestLineDedup:
    """C4-style corpus-wide line dedup: a 30+-char line survives only at
    its first (doc_id, line_idx) occurrence; shorter lines are exempt;
    documents reassemble in original line order."""

    L1 = "this is a long boilerplate navigation line over thirty chars"
    L2 = "another long line that appears in several documents here too"

    @pytest.fixture(scope="class")
    def line_ds(self, ray_session):
        import ray.data
        docs = [
            (0, f"{self.L1}\nunique first doc body line exceeding thirty "
                f"characters\nshort"),
            (1, f"{self.L1}\n{self.L2}\nok"),   # L1 lost to doc 0
            (2, f"{self.L2}\n{self.L2}\ntail"),  # both L2 lost to doc 1
            (3, "tiny\nalso small"),             # short lines always kept
            (4, ""),                             # empty doc passes through
        ]
        return ray.data.from_arrow(pa.table({
            "doc_id": pa.array([d for d, _ in docs], pa.int64()),
            "text": pa.array([t for _, t in docs], pa.string())}))

    def test_first_occurrence_survives(self, ray_session, line_ds):
        out = dedup.line_dedup(line_ds).sort("doc_id").to_pandas()
        assert list(out.doc_id) == [0, 1, 2, 3, 4]
        assert out.clean_text[0].count("\n") == 2      # doc 0 untouched
        assert list(out.n_removed) == [0, 1, 2, 0, 0]
        assert out.clean_text[1] == f"{self.L2}\nok"
        assert out.clean_text[2] == "tail"
        assert out.clean_text[3] == "tiny\nalso small"
        assert out.clean_text[4] == ""

    def test_within_doc_repeat(self, ray_session):
        import ray.data
        long = "a repeated long line inside one single document right here"
        ds = ray.data.from_arrow(pa.table({
            "doc_id": pa.array([7], pa.int64()),
            "text": pa.array([f"{long}\nmid\n{long}"], pa.string())}))
        out = dedup.line_dedup(ds).to_pandas()
        assert out.clean_text[0] == f"{long}\nmid"
        assert out.n_removed[0] == 1

    def test_partition_invariance(self, ray_session, line_ds):
        a = dedup.line_dedup(line_ds, n_coarse=1, n_coarse_docs=1) \
                 .sort("doc_id").to_pandas()
        b = dedup.line_dedup(line_ds, n_coarse=7, n_coarse_docs=3) \
                 .sort("doc_id").to_pandas()
        pd.testing.assert_frame_equal(a, b)


class TestChunkedText:
    def test_matches_sql_construction(self):
        """_chunked_text must equal the oracles' per-row
        array_to_string([substring(t,i,80) ...], chr(10)) — including for
        text that itself ends in newlines (the old rtrim ate those) and
        for exact-multiple-of-80 lengths."""
        from mobile_ocr_api_ray.pipelines.analysis import _chunked_text
        texts = ["abc\n", "", "x" * 80, "y" * 85, "z" * 160,
                 "tail\n\n", "a", "w" * 79 + "\n" + "v" * 5]
        expect = ["\n".join(t[i:i + 80] for i in range(0, len(t), 80))
                  for t in texts]
        got = _chunked_text(pa.array(texts)).to_pylist()
        assert got == expect


class TestSentenceDedup:
    S1 = "this boilerplate sentence repeats across many documents here"
    S2 = "another long recurring sentence that shows up a second time"

    @staticmethod
    def _ds(docs):
        import ray.data
        return ray.data.from_arrow(pa.table({
            "doc_id": pa.array([d for d, _ in docs], pa.int64()),
            "text": pa.array([t for _, t in docs], pa.string())}))

    @staticmethod
    def _reference(docs, min_chars=30):
        """Pure-python restatement of the explicit-ASCII mark-and-split
        rule + first-occurrence keep + space-join reassembly."""
        import re
        mark = re.compile(r"([.!?])[ \t\n\r\f\v]+")
        seen, expect = set(), {}
        for i, t in docs:
            sents = [s.strip(" \t\n\r\f\v")
                     for s in mark.sub("\\1\x01", t).split("\x01")]
            sents = [s for s in sents if s]
            kept, removed = [], 0
            for s in sents:
                if len(s) >= min_chars:
                    if s in seen:
                        removed += 1
                        continue
                    seen.add(s)
                kept.append(s)
            if sents:
                expect[i] = (" ".join(kept), removed)
        return expect

    def test_differential_and_edges(self, ray_session):
        docs = [
            (0, f"{self.S1}. unique body over thirty characters right "
                f"here! short."),
            (1, f"{self.S1}.\t{self.S2}. ok?"),       # S1. lost to doc 0
            (2, f"{self.S2}. {self.S2}. tail"),       # within-doc repeat
            (3, "tiny. also small? yes"),             # short always kept
            (4, ""),                                  # absent from output
            (5, "no boundary punctuation at all just one long sentence "
                "body exceeding thirty characters"),
            (6, f"weird\x01embedded marker. {self.S1}. end"),
            # U+00A0 after '.' is NOT a boundary (explicit-ASCII ws set)
            (7, f"stuck.\u00a0together here. {self.S2}. done"),
        ]
        out = dedup.sentence_dedup(self._ds(docs)).sort("doc_id") \
            .to_pandas()
        expect = self._reference(docs)
        assert list(out.doc_id) == sorted(expect)
        assert 4 not in set(out.doc_id)  # zero-sentence doc omitted
        for _, r in out.iterrows():
            ct, nr = expect[int(r.doc_id)]
            assert r.clean_text == ct and int(r.n_removed) == nr
        # the S1 sentence survives exactly once corpus-wide
        joined = " ".join(out.clean_text)
        assert joined.count(self.S1) == 1

    def test_partition_invariance(self, ray_session):
        docs = [(i, f"{self.S1}. doc {i} filler sentence over thirty "
                    f"characters long. {self.S2}.") for i in range(12)]
        a = dedup.sentence_dedup(self._ds(docs), n_coarse=1,
                                 n_coarse_docs=1).sort("doc_id").to_pandas()
        b = dedup.sentence_dedup(self._ds(docs), n_coarse=7,
                                 n_coarse_docs=3).sort("doc_id").to_pandas()
        pd.testing.assert_frame_equal(a, b)

    def test_query_doubled_removal(self, ray_session):
        import __ray_entry__ as e
        df = e.queries()["sentence_dedup_docs"](
            "/root/testdata/sf0.001").to_pandas()
        base = df[df.doc_id < 1_000_000].set_index("doc_id")
        clone = df[df.doc_id >= 1_000_000].copy()
        clone["base_id"] = clone.doc_id - 1_000_000
        m = clone.set_index("base_id").join(base, rsuffix="_b")
        # originals keep all FIRST occurrences (within-doc repeats may
        # still be removed — the corpus has repetitive docs); a clone
        # additionally loses exactly the eligible sentences its original
        # KEPT — strictly more removals unless the base doc kept none
        # (fully-repetitive docs whose every eligible sentence was a
        # within-doc repeat), in which case clone ≡ base
        assert (base.n_removed == 0).mean() > 0.9
        assert (m.n_removed >= 1).all()
        assert (m.n_removed >= m.n_removed_b).all()
        strict = m.n_removed > m.n_removed_b
        assert strict.mean() > 0.95
        assert (m.clean_text.str.len()
                < m.clean_text_b.str.len())[strict].all()
        assert (m.clean_text == m.clean_text_b)[~strict].all()


class TestBadwords:
    def test_hand_vectors(self):
        t = pa.table({"doc_id": pa.array([0, 1, 2, 3, 4], pa.int64()),
                      "text": pa.array([
                          "slow query DUP row Spark job",   # case-insens.
                          "slowly duplicate sparks",        # no whole word
                          "dup dup dup.",                   # multi + punct
                          None,
                          "clean text only"])})
        out = text_analysis.badwords_counts(t).to_pydict()
        assert out["n_slow"] == [1, 0, 0, 0, 0]
        assert out["n_dup"] == [1, 0, 3, 0, 0]
        assert out["n_spark"] == [1, 0, 0, 0, 0]
        assert out["n_hits"] == [3, 0, 3, 0, 0]
        assert out["kept"] == [False, True, False, True, True]

    def test_unigram_entropy_vectors(self):
        import math
        t = pa.table({"doc_id": pa.array([0, 1, 2, 3], pa.int64()),
                      "text": pa.array(["a a a a", "a b c d", "", None])})
        out = text_analysis.unigram_entropy(t).to_pydict()
        assert out["n_words"] == [4, 4, 0, 0]
        assert out["entropy_micro_nats"][0] == 0     # all-same-word doc
        # uniform 4-word doc → ln(4), within the 4-term micro-floor error
        assert 0 <= math.log(4) - out["entropy"][1] < 4e-6
        assert out["entropy"] == [m / 1e6
                                  for m in out["entropy_micro_nats"]]

    def test_unigram_entropy_recompute(self):
        """Differential vs a direct per-doc python recompute (same libm
        log + per-term floor rule)."""
        import math
        from collections import Counter
        texts = ["the cat sat on the mat", "x " * 30 + "y",
                 "one two three two one", "solo"]
        t = pa.table({"doc_id": pa.array(range(len(texts)), pa.int64()),
                      "text": pa.array(texts)})
        out = text_analysis.unigram_entropy(t).to_pydict()
        for i, txt in enumerate(texts):
            words = [w for w in txt.split() if w]
            n = len(words)
            micro = sum(
                math.floor((c / n) * math.log(n / c) * 1000000.0)
                for c in Counter(words).values())
            assert out["entropy_micro_nats"][i] == micro

    def test_html_markup_stats_gate(self, ray_session):
        import __ray_entry__ as e
        df = e.queries()["html_markup_stats"](
            "/root/testdata/sf0.001").to_pandas()
        assert len(df) > 0
        # markup + text partition the doc; every HTML page has tags and
        # the ratio is a proper fraction
        assert (df.markup_chars + df.text_chars == df.n_chars).all()
        assert (df.n_tags > 0).all()
        assert ((df.text_ratio > 0) & (df.text_ratio < 1)).all()
        assert (df.text_ratio == df.text_chars / df.n_chars).all()

    def test_dhash_invariance_and_discrimination(self):
        """dHash is invariant to uniform brightness shift and sub-gradient
        noise, but splits images with different gradient structure."""
        from mobile_ocr_api_ray.stages.multimodal import dhash64
        rng = np.random.RandomState(5)
        img = (rng.rand(64, 96) * 200).astype(np.uint8)
        h0 = dhash64(img)
        assert dhash64(np.clip(img.astype(np.int32) + 30, 0, 255)
                       .astype(np.uint8)) == h0
        assert 0 <= h0 < 2 ** 64
        flipped = img[:, ::-1].copy()  # mirrored gradients → different hash
        assert dhash64(flipped) != h0

    def test_dhash_known_gradient(self):
        """A strict left-to-right ramp sets every difference bit."""
        from mobile_ocr_api_ray.stages.multimodal import dhash64
        img = np.tile(np.arange(0, 180, 20, dtype=np.uint8), (8, 1))
        assert dhash64(img) == 2 ** 64 - 1

    def test_image_dhash_query_gate(self, ray_session):
        import __ray_entry__ as e
        df = e.queries()["image_dhash_dups"](
            "/root/testdata/sf0.001").to_pandas()
        assert len(df) > 0
        assert (df.dhash.str.len() == 16).all()
        # owner is the lexicographic min of its hash group; owners are
        # never dups of themselves
        assert (df.owner_url <= df.url).all()
        assert not df[df.url == df.owner_url].is_dup.any()

    def test_mmr_select_recompute(self, ray_session):
        """shortlist ≥ n → exact MMR; differential vs a naive python
        greedy over the same vectors."""
        import ray.data
        from mobile_ocr_api_ray.stages import similarity as sim
        rng = np.random.RandomState(3)
        vecs = rng.normal(size=(40, 8))
        q = rng.normal(size=8)
        t = pa.table({"vec_id": pa.array(range(40), pa.int64()),
                      "embedding": pa.array([list(v) for v in vecs],
                                            pa.list_(pa.float32()))})
        out = sim.mmr_select(ray.data.from_arrow(t), q, k=6, lam=0.7,
                             shortlist=100).to_pydict()
        # naive recompute (float32 storage → float64 math, like engine)
        v = vecs.astype(np.float32).astype(np.float64)
        v = v / np.linalg.norm(v, axis=1, keepdims=True)
        qn = q / np.linalg.norm(q)
        rel = v @ qn
        sel, max_sim = [], np.zeros(40)
        for r in range(6):
            score = 0.7 * rel - (0.0 if r == 0 else 0.3 * max_sim)
            score[sel] = -np.inf
            best = int(np.lexsort((np.arange(40), -score))[0])
            sel.append(best)
            max_sim = np.maximum(max_sim, v @ v[best])
        assert out["vec_id"] == sel
        assert out["rank"] == list(range(6))

    def test_mmr_prefers_diversity(self, ray_session):
        """A near-duplicate of the top pick must lose to a less-relevant
        but diverse vector once lambda weighs diversity."""
        import ray.data
        from mobile_ocr_api_ray.stages import similarity as sim
        q = np.array([1.0, 0.05, 0.0])
        vecs = [[1.0, 0.0, 0.0],        # top relevance
                [0.995, 0.1, 0.0],      # near-dup of it
                [0.6, 0.8, 0.0]]        # diverse, less relevant
        t = pa.table({"vec_id": pa.array([0, 1, 2], pa.int64()),
                      "embedding": pa.array(vecs, pa.list_(pa.float64()))})
        out = sim.mmr_select(ray.data.from_arrow(t), q, k=2, lam=0.5,
                             shortlist=10).to_pydict()
        assert out["vec_id"] == [0, 2]

    def test_mmr_query_gate(self, ray_session):
        import __ray_entry__ as e
        df = e.queries()["mmr_diverse_sample"](
            "/root/testdata/sf0.001").to_pandas()
        assert len(df) == 16
        assert df.vec_id.nunique() == 16
        assert list(df["rank"]) == list(range(16))

    def test_zipf_fit_recompute(self, ray_session):
        """Slope/hapax match a direct python recompute of the quantized
        OLS; an exact-Zipf frequency table fits slope ≈ -1."""
        import math

        import ray.data
        # source A: exact Zipf — word i has freq round(120/rank)
        words = []
        for rank, w in enumerate(
                ["alpha", "beta", "gamma", "delta", "epsilon"], 1):
            words += [w] * round(120 / rank)
        t = pa.table({
            "source": pa.array(["A"] * 2 + ["B"], pa.string()),
            "text": pa.array([" ".join(words[:150]),
                              " ".join(words[150:]),
                              "x x x y z"])})
        out = text_analysis.zipf_fit_by_source(
            ray.data.from_arrow(t)).to_pydict()
        assert out["source"] == ["A", "B"]
        ia = out["source"].index("A")
        assert -1.2 < out["zipf_slope"][ia] < -0.8
        # B: freqs x=3, y=1, z=1 → hapax 2/3; recompute slope exactly
        ib = out["source"].index("B")
        assert out["vocab_size"][ib] == 3
        assert out["n_hapax"][ib] == 2
        assert out["hapax_frac"][ib] == 2 / 3
        items = [(3, "x"), (1, "y"), (1, "z")]
        sx = sy = sxy = sxx = 0
        for rank, (c, _) in enumerate(items, 1):
            lr, lc = math.log(rank), math.log(c)
            sx += math.floor(lr * 1000000.0)
            sy += math.floor(lc * 1000000.0)
            sxy += math.floor(lr * lc * 1000000.0)
            sxx += math.floor(lr * lr * 1000000.0)
        num = 3 * sxy * 1_000_000 - sx * sy
        den = 3 * sxx * 1_000_000 - sx * sx
        assert out["zipf_slope"][ib] == float(num) / float(den)

    def test_zipf_fit_degenerate_vocab(self, ray_session):
        import ray.data
        t = pa.table({"source": pa.array(["solo", "empty"], pa.string()),
                      "text": pa.array(["word word word", None])})
        out = text_analysis.zipf_fit_by_source(
            ray.data.from_arrow(t)).to_pydict()
        # empty-text source has no words → absent; vocab-1 source → 0.0
        assert out["source"] == ["solo"]
        assert out["zipf_slope"] == [0.0]
        assert out["n_tokens"] == [3]

    def test_cdc_chunk_rows_recompute(self):
        """Chunk boundaries match a direct per-doc python recompute of
        the md5-hash32 window rule."""
        import hashlib
        from mobile_ocr_api_ray.stages import dedup as dd
        texts = ["the quick brown fox jumps over the lazy dog " * 4,
                 "one two three", "", None]
        t = pa.table({"doc_id": pa.array(range(len(texts)), pa.int64()),
                      "text": pa.array(texts)})
        out = dd.cdc_chunk_rows(t).to_pydict()
        for di, txt in enumerate(texts):
            ws = (txt or "").split()
            chunks, cur = [], []
            for i, w in enumerate(ws):
                cur.append(w)
                cut = i == len(ws) - 1
                if not cut and i >= dd.CDC_WINDOW - 1:
                    win = " ".join(ws[i - dd.CDC_WINDOW + 1:i + 1])
                    h = int(hashlib.md5(win.encode()).hexdigest()[:8], 16)
                    cut = h % dd.CDC_DIVISOR == 0
                if cut:
                    chunks.append(" ".join(cur))
                    cur = []
            got = [(c, h) for d, c, h in zip(out["doc_id"],
                                             out["chunk_idx"],
                                             out["chunk_hash"]) if d == di]
            assert got == [
                (j, hashlib.md5(c.encode()).hexdigest())
                for j, c in enumerate(chunks)]

    def test_cdc_realignment_property(self, ray_session):
        """The defining CDC property: a one-word front insertion leaves
        every chunk after the first realigned cut identical — the twin's
        chunks past its first are all dups owned by the original."""
        import ray.data
        from mobile_ocr_api_ray.stages import dedup as dd
        base = " ".join(f"word{i}" for i in range(80))  # repeat-free
        t = pa.table({"doc_id": pa.array([0, 1_000_000], pa.int64()),
                      "text": pa.array([base, "zzz " + base])})
        out = dd.cdc_chunk_dedup(ray.data.from_arrow(t)) \
            .to_pandas().sort_values(["doc_id", "chunk_idx"])
        twin = out[out.doc_id == 1_000_000]
        assert len(twin) > 3
        # the insertion can perturb at most the first TWO twin chunks
        # (its own chunk + one extra cut from a window containing zzz);
        # everything later realigns and dedups against the original
        assert twin.iloc[2:].is_dup.all()
        assert (twin[twin.is_dup].owner_doc_id == 0).all()
        orig = out[out.doc_id == 0]
        assert not orig.is_dup.any()  # repeat-free originals sort first

    def test_paragraph_dedup_vectors(self):
        # doc 0 (id%3=0): 12 words → paras [A, B], graft copies A →
        # [A, B, A]; keep [A, B]; dup chars = len(A)
        # doc 2 (id%3=2): no graft, no dups
        # doc 3 (id%3=0): natural dup — words repeat so A == B
        a = "w1 w2 w3 w4 w5 w6"
        b = "x1 x2 x3 x4 x5 x6"
        t = pa.table({"doc_id": pa.array([0, 2, 3, 4], pa.int64()),
                      "text": pa.array([a + " " + b, a + " " + b,
                                        a + " " + a, None])})
        out = text_analysis.paragraph_dedup(t).to_pydict()
        assert out["n_paragraphs"] == [3, 2, 3, 0]
        assert out["n_dup_paragraphs"] == [1, 0, 2, 0]
        assert out["dedup_text"] == [a + "\n\n" + b, a + "\n\n" + b, a, ""]
        assert out["dup_para_char_frac"][0] == \
            len(a) / (2 * len(a) + len(b))
        assert out["dup_para_char_frac"][3] == 0.0

    def test_paragraph_dedup_last_graft_and_ragged(self):
        # id%3=1 grafts the LAST paragraph; 8 words → paras of 6 + 2
        t = pa.table({"doc_id": pa.array([1], pa.int64()),
                      "text": pa.array(["a b c d e f g h"])})
        out = text_analysis.paragraph_dedup(t).to_pydict()
        assert out["n_paragraphs"] == [3]
        assert out["n_dup_paragraphs"] == [1]
        assert out["dedup_text"] == ["a b c d e f\n\ng h"]

    def test_readability_vectors(self):
        # doc 0: k=5 → 8 words = 2 sentences; "strength" has one vowel
        # group, "a" one, vowelless "tch" clamps to 1
        t = pa.table({"doc_id": pa.array([0, 1, 2], pa.int64()),
                      "text": pa.array(
                          ["a a a a a strength tch readable", "", None])})
        out = text_analysis.readability(t).to_pydict()
        assert out["n_words"] == [8, 0, 0]
        assert out["n_sentences"] == [2, 0, 0]
        # 5×1 + 1 (strength) + 1 (tch, clamped) + 3 (read-a-ble: ea,a,e)
        assert out["n_syllables"] == [10, 0, 0]
        wps, spw = 8 / 2, 10 / 8
        assert out["flesch"][0] == 206.835 - 1.015 * wps - 84.6 * spw
        assert out["fk_grade"][0] == 0.39 * wps + 11.8 * spw - 15.59
        # zero-word docs: wps = spw = 0 → constants
        assert out["flesch"][1] == 206.835
        assert out["fk_grade"][2] == -15.59

    def test_readability_sentence_rule(self):
        # k = 5 + doc_id % 4; 13 words → ceil(13/k)
        t = pa.table({"doc_id": pa.array([0, 1, 2, 3], pa.int64()),
                      "text": pa.array(["w " * 13] * 4)})
        out = text_analysis.readability(t).to_pydict()
        assert out["n_sentences"] == [3, 3, 2, 2]

    def test_metachar_terms_are_literal(self):
        """Caller-supplied blocklists may contain regex metacharacters —
        they must count as literals, never crash or act as patterns."""
        t = pa.table({"doc_id": pa.array([0, 1], pa.int64()),
                      "text": pa.array(["we write c++ here", "cxx only"])})
        out = text_analysis.badwords_counts(t, words=("c++",)).to_pydict()
        assert out["n_c++"] == [1, 0]
        assert out["kept"] == [False, True]

    def test_query_gate(self, ray_session):
        import __ray_entry__ as e
        df = e.queries()["badwords_filtered_docs"](
            "/root/testdata/sf0.001").to_pandas()
        assert len(df) == 500
        assert (df.kept == (df.n_hits == 0)).all()
        assert (df.n_hits == df.n_slow + df.n_dup + df.n_spark).all()
        # the stand-in list is chosen to actually hit this corpus, and
        # the gate must not degenerate to dropping everything
        assert 0 < (~df.kept).sum() < len(df)


class TestExactSubstrDedup:
    B = "a shared boilerplate span well over fifty characters long here"

    @staticmethod
    def _ds(docs):
        import ray.data
        return ray.data.from_arrow(pa.table({
            "doc_id": pa.array([d for d, _ in docs], pa.int64()),
            "text": pa.array([t for _, t in docs], pa.string())}))

    @staticmethod
    def _reference(docs, L=50):
        """Pure-python ExactSubstr: enumerate every L-char window, owner
        = min (doc_id, off) per distinct window string, mark coverage of
        every non-owner occurrence, drop covered chars."""
        occ = {}
        for i, t in sorted(docs):
            for o in range(len(t) - L + 1):
                occ.setdefault(t[o:o + L], []).append((i, o))
        cov = {i: set() for i, _ in docs}
        for positions in occ.values():
            if len(positions) >= 2:
                for i, o in positions[1:]:
                    cov[i].update(range(o, o + L))
        return {i: ("".join(c for p, c in enumerate(t)
                            if p not in cov[i]),
                    len(cov[i]), len(t))
                for i, t in docs}

    def test_differential_and_edges(self, ray_session):
        docs = [
            (0, f"prefix zero {self.B} and an original-only tail."),
            (1, f"other head text {self.B} different ending here!"),
            (2, self.B + " " + self.B),   # within-doc overlap repeat
            (3, "too short to ever have a window"),
            (4, ""),
            (5, "𝄞 astral prefix padding " + self.B),  # codepoint offsets
        ]
        out = dedup.exact_substr_dedup(self._ds(docs)).sort("doc_id") \
            .to_pandas()
        expect = self._reference(docs)
        assert list(out.doc_id) == sorted(expect)  # every doc, empty incl.
        for _, r in out.iterrows():
            ct, nr, nc = expect[int(r.doc_id)]
            assert (r.clean_text, int(r.n_removed_chars),
                    int(r.n_chars)) == (ct, nr, nc)
        byid = out.set_index("doc_id")
        # doc 0 owns the boilerplate: fully intact
        assert byid.loc[0, "n_removed_chars"] == 0
        # doc 1 loses the maximal shared span (windows union), keeps its
        # ORIGINAL whitespace elsewhere — no space normalization
        assert self.B not in byid.loc[1, "clean_text"]
        assert byid.loc[1, "clean_text"].startswith("other head text")
        assert byid.loc[3, "n_removed_chars"] == 0
        assert byid.loc[4, "n_chars"] == 0

    def test_partition_invariance(self, ray_session):
        docs = [(i, f"doc {i} unique head then {self.B} common tail span")
                for i in range(10)]
        a = dedup.exact_substr_dedup(self._ds(docs), n_coarse=1,
                                     n_coarse_docs=1) \
            .sort("doc_id").to_pandas()
        b = dedup.exact_substr_dedup(self._ds(docs), n_coarse=7,
                                     n_coarse_docs=3) \
            .sort("doc_id").to_pandas()
        pd.testing.assert_frame_equal(a, b)

    def test_query_doubled_erases_clones(self, ray_session):
        import __ray_entry__ as e
        df = e.queries()["exact_substr_dedup_docs"](
            "/root/testdata/sf0.001").to_pandas()
        base = df[df.doc_id < 1_000_000].set_index("doc_id")
        clone = df[df.doc_id >= 1_000_000].copy()
        clone["base_id"] = clone.doc_id - 1_000_000
        m = clone.set_index("base_id").join(base, rsuffix="_b")
        # every ≥50-char clone is erased in full (each of its windows is
        # owned by the original); shorter clones are untouched
        big = m.n_chars >= 50
        assert big.any()
        assert (m.loc[big, "clean_text"] == "").all()
        assert (m.loc[big, "n_removed_chars"]
                == m.loc[big, "n_chars"]).all()
        assert (m.loc[~big, "n_removed_chars"] == 0).all()
        # originals only lose corpus-internal repeats — most keep text
        assert (base.n_removed_chars < base.n_chars)[
            base.n_chars > 0].mean() > 0.5


class TestGopherFlags:
    def test_hand_vectors(self):
        good = ("the quick brown fox jumps over and beside many lazy dogs "
                "while some other animals watch from nearby hills because "
                "they were curious about daily events around town square")
        short = "the and tiny"                      # < 25 words
        chars = "a " * 30                            # mean word len 1
        reps = "the of " + "dup " * 40               # top-word + dup-bigram
        t = pa.table({"doc_id": pa.array([0, 1, 2, 3], pa.int64()),
                      "text": pa.array([good, short, chars, reps])})
        out = text_analysis.gopher_flags(t).to_pandas()
        assert bool(out.keep[0]) is True
        assert list(out.flag_word_count) == [True, False, True, True]
        assert list(out.flag_mean_word_len) == [True, False, False, False]
        # 'a' is 1 distinct stopword; the others each have >= 2
        assert list(out.flag_stopwords) == [True, True, False, True]
        assert bool(out.flag_top_word[3]) is False   # 'dup' = 40/42 words
        assert bool(out.flag_dup_2gram[3]) is False  # 'dup dup' repeats
        assert list(out.keep[1:]) == [False, False, False]

    def test_null_and_empty(self):
        t = pa.table({"doc_id": pa.array([0, 1], pa.int64()),
                      "text": pa.array([None, ""], pa.string())})
        out = text_analysis.gopher_flags(t).to_pandas()
        assert list(out.n_words) == [0, 0]
        assert list(out.mean_word_len) == [0.0, 0.0]
        assert list(out.keep) == [False, False]


class TestPackSequences:
    """Concat-and-chunk packing plan: global exclusive prefix sum of
    whitespace token counts in doc_id order, cut every `budget` tokens."""

    def _ds(self, texts, ids=None):
        import ray.data
        ids = ids if ids is not None else range(len(texts))
        return ray.data.from_arrow(pa.table({
            "doc_id": pa.array(ids, pa.int64()),
            "text": pa.array(texts, pa.string())}))

    def test_offsets_and_boundaries(self, ray_session):
        # token counts: 3, 4, 0, 5, 2 → starts 0, 3, 7, 7, 12; budget 8
        ds = self._ds(["a b c", "d e f g", "", "h i j k l", "m n"])
        out = text_analysis.pack_sequences(
            ds, budget=8, range_width=2).sort("doc_id").to_pandas()
        assert list(out.n_tokens) == [3, 4, 0, 5, 2]
        assert list(out.start_offset) == [0, 3, 7, 7, 12]
        assert list(out.seq_id) == [0, 0, 0, 0, 1]
        assert list(out.offset_in_seq) == [0, 3, 7, 7, 4]
        # doc 3 occupies tokens 7..11 → crosses the 8-token cut
        assert list(out.spans_boundary) == [False, False, False, True, False]

    def test_range_width_invariance(self, ray_session):
        texts = [f"w{i} " * (i % 7) for i in range(60)]
        a = text_analysis.pack_sequences(
            self._ds(texts), budget=16, range_width=1) \
            .sort("doc_id").to_pandas()
        b = text_analysis.pack_sequences(
            self._ds(texts), budget=16, range_width=1000) \
            .sort("doc_id").to_pandas()
        pd.testing.assert_frame_equal(a, b)

    def test_sparse_noncontiguous_ids(self, ray_session):
        # id gaps and out-of-order input: tape order is still id order
        ds = self._ds(["x y", "a b c", "q"], ids=[500, 3, 90])
        out = text_analysis.pack_sequences(
            ds, budget=4, range_width=10).sort("doc_id").to_pandas()
        assert list(out.doc_id) == [3, 90, 500]
        assert list(out.start_offset) == [0, 3, 4]
        assert list(out.seq_id) == [0, 0, 1]

    def test_empty_keeps_schema(self, ray_session):
        out = text_analysis.pack_sequences(self._ds([]), budget=8)
        names = out.schema().names if hasattr(out, "schema") and \
            not isinstance(out, pa.Table) else out.column_names
        assert names == ["doc_id", "n_tokens", "start_offset", "seq_id",
                         "offset_in_seq", "spans_boundary"]


class TestLevenshteinVerify:
    @pytest.fixture()
    def doc_ds(self, ray_session):
        import ray.data
        texts = [f"unique document number {i} with content words alpha "
                 f"beta gamma {i}" for i in range(40)]
        texts += texts[:10]  # 10 exact dups
        return ray.data.from_arrow(pa.table({
            "doc_id": pa.array(range(len(texts)), pa.int64()),
            "text": pa.array(texts, pa.string())}))

    def _pure_python_lev(self, a: str, b: str) -> int:
        # independent restatement: classic full-matrix DP over utf-8 bytes
        ab, bb = a.encode("utf-8"), b.encode("utf-8")
        la, lb = len(ab), len(bb)
        d = [[0] * (lb + 1) for _ in range(la + 1)]
        for i in range(la + 1):
            d[i][0] = i
        for j in range(lb + 1):
            d[0][j] = j
        for i in range(1, la + 1):
            for j in range(1, lb + 1):
                d[i][j] = min(d[i - 1][j] + 1, d[i][j - 1] + 1,
                              d[i - 1][j - 1] + (ab[i - 1] != bb[j - 1]))
        return d[la][lb]

    def test_kernel_differential_vs_matrix_dp(self):
        import random
        rng = random.Random(11)
        alpha = "ab cdé漢"
        for _ in range(150):
            a = "".join(rng.choice(alpha) for _ in range(rng.randint(0, 25)))
            b = "".join(rng.choice(alpha) for _ in range(rng.randint(0, 25)))
            assert dedup.levenshtein_bytes(a, b) == self._pure_python_lev(a, b)

    def test_kernel_matches_duckdb_bytes_semantics(self):
        import duckdb
        cases = [("kitten", "sitting"), ("café", "cafe"), ("", ""),
                 ("", "xyz"), ("abc", ""), ("漢字", "漢"), (None, "a")]
        for a, b in cases:
            want = duckdb.execute(
                "SELECT levenshtein(coalesce(?, ''), coalesce(?, ''))",
                [a, b]).fetchone()[0]
            assert dedup.levenshtein_bytes(a, b) == want

    def test_verify_pairs_edit(self, ray_session, doc_ds):
        pairs = dedup.minhash_dedup_pairs(doc_ds, threshold=0.9)
        v = dedup.verify_pairs_edit(pairs, doc_ds).to_pandas()
        got = {(a, b): (d, s, n) for a, b, d, s, n in
               zip(v.id_a, v.id_b, v.edit_dist, v.edit_sim, v.is_near)}
        for i in range(10):  # exact dup pairs: distance 0, sim 1.0, near
            assert got.get((i, i + 40)) == (0, 1.0, True)
        assert v.est_jaccard.notna().all()
        assert (v.edit_dist >= 0).all()
        assert v.edit_dist.dtype == np.int64

    def test_edit_sim_rule(self, ray_session):
        import ray.data
        texts = {0: "alpha beta gamma delta epsilon zeta",
                 1: "alpha beta gamma delta epsilon zet"}
        ds = ray.data.from_arrow(pa.table({
            "doc_id": pa.array(sorted(texts), pa.int64()),
            "text": pa.array([texts[k] for k in sorted(texts)],
                             pa.string())}))
        pairs = ray.data.from_arrow(pa.table({
            "id_a": pa.array([0], pa.int64()),
            "id_b": pa.array([1], pa.int64()),
            "est_jaccard": pa.array([1.0], pa.float64())}))
        v = dedup.verify_pairs_edit(pairs, ds).to_pandas()
        assert len(v) == 1
        row = v.iloc[0]
        assert row.edit_dist == 1
        assert row.edit_sim == 1.0 - 1 / len(texts[0].encode())
        assert bool(row.is_near)

    def test_semi_join_fallback_identical(self, ray_session, doc_ds):
        pairs = dedup.minhash_dedup_pairs(doc_ds, threshold=0.9)
        a = (dedup.verify_pairs_edit(pairs, doc_ds).to_pandas()
             .sort_values(["id_a", "id_b"]).reset_index(drop=True))
        b = (dedup.verify_pairs_edit(pairs, doc_ds, semi_join_max_ids=0)
             .to_pandas().sort_values(["id_a", "id_b"])
             .reset_index(drop=True))
        assert len(a) > 0
        pd.testing.assert_frame_equal(a, b)

    def test_empty_pairs_typed(self, ray_session, doc_ds):
        import ray.data
        empty = ray.data.from_arrow(pa.table({
            "id_a": pa.array([], pa.int64()),
            "id_b": pa.array([], pa.int64()),
            "est_jaccard": pa.array([], pa.float64())}))
        v = dedup.verify_pairs_edit(empty, doc_ds)
        df = v.to_pandas()
        assert len(df) == 0
        assert set(v.schema().names) == {"id_a", "id_b", "est_jaccard",
                                         "edit_dist", "edit_sim", "is_near"}


def test_verify_pairs_semi_join_fallback(ray_session):
    """The semi-join broadcast path and the full-corpus fallback
    (semi_join_max_ids=0) produce identical verified pairs."""
    import ray.data
    texts = [f"unique document number {i} content words alpha beta gamma {i}"
             for i in range(40)]
    texts += texts[:10]
    ds = ray.data.from_arrow(pa.table({
        "doc_id": pa.array(range(len(texts)), pa.int64()),
        "text": pa.array(texts, pa.string())}))
    pairs = dedup.minhash_dedup_pairs(ds, threshold=0.9)
    a = (dedup.verify_pairs_ngram(pairs, ds).to_pandas()
         .sort_values(["id_a", "id_b"]).reset_index(drop=True))
    b = (dedup.verify_pairs_ngram(pairs, ds, semi_join_max_ids=0).to_pandas()
         .sort_values(["id_a", "id_b"]).reset_index(drop=True))
    assert len(a) > 0
    pd.testing.assert_frame_equal(a, b)


class TestNewQueryKernels:
    """Invariance + semantics for the round-2 query additions."""

    def test_word_freq_partial_combiner(self, ray_session):
        import ray.data
        texts = ["the cat the dog", "the CAT runs", ""]
        ds = ray.data.from_arrow(pa.table({
            "doc_id": pa.array(range(3), pa.int64()),
            "text": pa.array(texts, pa.string())}))
        import re
        from collections import Counter
        word_re = re.compile(r"\w+", re.ASCII)

        def partial(batch):
            c = Counter()
            for t in batch["text"].to_pylist():
                c.update(word_re.findall((t or "").lower()))
            return pa.table({"word": pa.array(list(c.keys()), pa.string()),
                             "n": pa.array(list(c.values()), pa.int64())})

        from ray.data.aggregate import Sum
        for parts in (1, 3):
            out = (ds.repartition(parts)
                   .map_batches(partial, batch_format="pyarrow")
                   .groupby("word").aggregate(Sum("n", alias_name="n"))
                   .to_pandas().sort_values("word").reset_index(drop=True))
            assert dict(zip(out.word, out.n)) == {
                "cat": 2, "dog": 1, "runs": 1, "the": 3}

    def test_top_k_per_key_invariant(self, ray_session):
        import ray.data
        rs = np.random.RandomState(2)
        n = 500
        t = pa.table({"event_id": pa.array(range(n), pa.int64()),
                      "user_id": pa.array(rs.randint(0, 20, n), pa.int64()),
                      "value": pa.array(rs.normal(size=n), pa.float64())})

        def run(parts):
            ds = ray.data.from_arrow(t).repartition(parts)
            df = ds.to_pandas()
            d = df.sort_values(["user_id", "value", "event_id"],
                               ascending=[True, False, True])
            d = d.assign(rnk=d.groupby("user_id").cumcount() + 1)
            return d[d.rnk <= 3].reset_index(drop=True)

        a, b = run(1), run(7)
        pd.testing.assert_frame_equal(
            a.sort_values(["user_id", "rnk"]).reset_index(drop=True),
            b.sort_values(["user_id", "rnk"]).reset_index(drop=True))


class TestHashJoin:
    """stages/joins.py — the general co-partitioned hash-join operator."""

    def _sides(self):
        import ray.data
        left = ray.data.from_arrow(pa.table({
            "k": pa.array([1, 2, 3, 3, 9], pa.int64()),
            "a": pa.array(["p", "q", "r", "s", "t"], pa.string())}))
        right = ray.data.from_arrow(pa.table({
            "rk": pa.array([2, 3, 3, 4], pa.int64()),
            "v": pa.array([[1.0], [2.0, 3.0], [4.0], [5.0]],
                          pa.list_(pa.float64()))}))
        return left, right

    def test_inner_many_to_many(self, ray_session):
        from mobile_ocr_api_ray.stages.joins import hash_join
        left, right = self._sides()
        df = (hash_join(left, right, "k", "rk").to_pandas()
              .sort_values(["k", "a"]).reset_index(drop=True))
        # k=2 → 1 match; k=3 (two left rows) × 2 right rows → 4; k=1,9 drop
        assert len(df) == 5
        assert sorted(df.k.tolist()) == [2, 3, 3, 3, 3]
        got = {(r.k, r.a, tuple(r.v)) for r in df.itertuples()}
        assert (2, "q", (1.0,)) in got
        assert (3, "r", (2.0, 3.0)) in got and (3, "r", (4.0,)) in got
        assert (3, "s", (2.0, 3.0)) in got and (3, "s", (4.0,)) in got

    def test_left_outer(self, ray_session):
        from mobile_ocr_api_ray.stages.joins import hash_join
        left, right = self._sides()
        out = hash_join(left, right, "k", "rk", how="left")
        df = out.to_pandas().sort_values(["k", "a"]).reset_index(drop=True)
        assert len(df) == 7  # 5 matches + unmatched k=1, k=9
        unmatched = df[df.k.isin([1, 9])]
        assert unmatched.v.isna().all()
        assert out.schema().names == ["k", "a", "v"]

    def test_executed_block_types_stay_int64(self, ray_session):
        # Ray's groupby sort-shuffle widens null-padded int columns to
        # double in transit; merge_partition must cast them back. The
        # LAZY schema() can't catch this (its head block is the typed-empty
        # union), so assert on executed blocks via to_pandas dtypes.
        import ray.data
        from mobile_ocr_api_ray.stages.joins import hash_join
        left = ray.data.from_arrow(pa.table({
            "k": pa.array([1, 2, 3, 9], pa.int64()),
            "a": pa.array([10, 20, 30, 90], pa.int64())}))
        right = ray.data.from_arrow(pa.table({
            "rk": pa.array([2, 3], pa.int64()),
            "v": pa.array([200, 300], pa.int64())}))
        df = hash_join(left, right, "k", "rk", how="left").to_pandas()
        assert str(df["k"].dtype) == "int64"
        assert str(df["a"].dtype) == "int64"
        # v has real nulls from the outer join — float64 there is the
        # correct pandas rendering of a nullable int64 arrow column
        inner = hash_join(left, right, "k", "rk", how="inner").to_pandas()
        assert str(inner["v"].dtype) == "int64"

    def test_big_int64_payloads_survive_exactly(self, ray_session):
        # 64-bit hash/fingerprint payloads exceed float64's 2^53 integer
        # range: if the tagged union padded with nulls, the sort shuffle
        # would widen the column and silently round these values. The
        # sentinel padding keeps the column null-free end to end.
        import ray.data
        from mobile_ocr_api_ray.stages.joins import hash_join
        big = [2**60 + 1, 2**63 - 1, -(2**62) - 3]
        left = ray.data.from_arrow(pa.table({
            "k": pa.array([1, 2, 3], pa.int64()),
            "fp": pa.array(big, pa.int64())}))
        right = ray.data.from_arrow(pa.table({
            "rk": pa.array([2, 3, 4], pa.int64()),
            "rfp": pa.array([2**59 + 7, 2**53 + 1, 5], pa.int64())}))
        df = hash_join(left, right, "k", "rk", how="left").to_pandas() \
            .sort_values("k").reset_index(drop=True)
        assert df["fp"].tolist() == big
        inner = hash_join(left, right, "k", "rk").to_pandas() \
            .sort_values("k").reset_index(drop=True)
        assert inner["rfp"].tolist() == [2**59 + 7, 2**53 + 1]

    def test_collision_raises(self, ray_session):
        import ray.data
        from mobile_ocr_api_ray.stages.joins import hash_join
        l = ray.data.from_arrow(pa.table({"k": pa.array([1], pa.int64()),
                                          "x": pa.array([1], pa.int64())}))
        r = ray.data.from_arrow(pa.table({"rk": pa.array([1], pa.int64()),
                                          "x": pa.array([2], pa.int64())}))
        with pytest.raises(ValueError, match="collision"):
            hash_join(l, r, "k", "rk")

    def test_empty_result_keeps_schema(self, ray_session):
        import ray.data
        from mobile_ocr_api_ray.stages.joins import hash_join
        l = ray.data.from_arrow(pa.table({"k": pa.array([1], pa.int64()),
                                          "a": pa.array(["x"], pa.string())}))
        r = ray.data.from_arrow(pa.table({"rk": pa.array([2], pa.int64()),
                                          "v": pa.array([9], pa.int64())}))
        out = hash_join(l, r, "k", "rk")
        assert out.count() == 0
        assert out.schema().names == ["k", "a", "v"]

    def test_partition_invariance(self, ray_session):
        import ray.data
        from mobile_ocr_api_ray.stages.joins import hash_join
        rs = np.random.RandomState(4)
        lk = rs.randint(0, 50, 300)
        rk = rs.randint(0, 50, 200)
        lt = pa.table({"k": pa.array(lk, pa.int64()),
                       "a": pa.array(np.arange(300), pa.int64())})
        rt = pa.table({"rk": pa.array(rk, pa.int64()),
                       "b": pa.array(np.arange(200), pa.int64())})

        def run(parts):
            return (hash_join(ray.data.from_arrow(lt).repartition(parts),
                              ray.data.from_arrow(rt).repartition(parts),
                              "k", "rk", n_coarse=parts)
                    .to_pandas().sort_values(["k", "a", "b"])
                    .reset_index(drop=True))

        pd.testing.assert_frame_equal(run(1), run(13))

    def test_string_keys(self, ray_session):
        # crc32-partitioned string join with exact equality verification;
        # null keys match nothing (SQL semantics)
        import ray.data
        from mobile_ocr_api_ray.stages.joins import hash_join
        l = ray.data.from_arrow(pa.table({
            "w": pa.array(["apple", "pear", None, "kiwi", "apple"],
                          pa.string()),
            "a": pa.array([0, 1, 2, 3, 4], pa.int64())}))
        r = ray.data.from_arrow(pa.table({
            "rw": pa.array(["apple", "kiwi", None], pa.string()),
            "v": pa.array([10, 30, 99], pa.int64())}))
        inner = (hash_join(l, r, "w", "rw").to_pandas()
                 .sort_values(["a"]).reset_index(drop=True))
        assert list(inner["a"]) == [0, 3, 4]
        assert list(inner["v"]) == [10, 30, 10]
        outer = (hash_join(l, r, "w", "rw", how="left").to_pandas()
                 .sort_values(["a"]).reset_index(drop=True))
        assert len(outer) == 5
        assert outer.loc[outer["a"].isin([1, 2]), "v"].isna().all()
        assert "__rkeystr" not in outer.columns

    def test_string_keys_mixed_types_raise(self, ray_session):
        import ray.data
        from mobile_ocr_api_ray.stages.joins import hash_join
        l = ray.data.from_arrow(pa.table({"w": pa.array(["x"], pa.string()),
                                          "a": pa.array([1], pa.int64())}))
        r = ray.data.from_arrow(pa.table({"rk": pa.array([1], pa.int64()),
                                          "v": pa.array([2], pa.int64())}))
        with pytest.raises(ValueError, match="both"):
            hash_join(l, r, "w", "rk")

    def test_differential_vs_pandas_merge(self, ray_session):
        # randomized differential: every (how, salt, key-type) mode must
        # match pandas merge exactly on many-to-many random frames
        import ray.data
        from mobile_ocr_api_ray.stages.joins import hash_join
        rs = np.random.RandomState(11)
        for trial in range(6):
            n_l, n_r = rs.randint(5, 120), rs.randint(5, 80)
            str_keys = trial % 2 == 1
            lk = rs.randint(0, 25, n_l)
            rk = rs.randint(0, 30, n_r)
            if str_keys:
                lkc = pa.array([f"w{v}" for v in lk], pa.string())
                rkc = pa.array([f"w{v}" for v in rk], pa.string())
            else:
                lkc, rkc = pa.array(lk, pa.int64()), pa.array(rk, pa.int64())
            lt = ray.data.from_arrow(pa.table({
                "k": lkc, "a": pa.array(np.arange(n_l), pa.int64())}))
            rt = ray.data.from_arrow(pa.table({
                "rk": rkc, "b": pa.array(np.arange(n_r), pa.int64())}))
            ldf = pd.DataFrame({"k": lkc.to_pylist(), "a": np.arange(n_l)})
            rdf = pd.DataFrame({"rk": rkc.to_pylist(), "b": np.arange(n_r)})
            for how in ("inner", "left"):
                salt = rs.choice([1, 3])
                got = (hash_join(lt, rt, "k", "rk", how=how, salt=int(salt),
                                 n_coarse=int(rs.choice([1, 7, 64])))
                       .to_pandas().sort_values(["k", "a", "b"])
                       .reset_index(drop=True))
                want = (ldf.merge(rdf, left_on="k", right_on="rk", how=how)
                        .drop(columns=["rk"])
                        .sort_values(["k", "a", "b"]).reset_index(drop=True))
                assert len(got) == len(want), (trial, how)
                assert (got["k"].to_numpy() == want["k"].to_numpy()).all()
                assert (got["a"].to_numpy() == want["a"].to_numpy()).all()
                gb, wb = got["b"].to_numpy(float), want["b"].to_numpy(float)
                assert ((gb == wb) | (np.isnan(gb) & np.isnan(wb))).all()

    def test_salted_equals_unsalted(self, ray_session):
        # hot-key guard: salting must not change the joined row multiset,
        # for inner AND left-outer, on a skewed many-to-many key set
        import ray.data
        from mobile_ocr_api_ray.stages.joins import hash_join
        rs = np.random.RandomState(7)
        lk = np.concatenate([np.full(200, 5), rs.randint(0, 20, 100)])
        rk = np.concatenate([np.full(6, 5), rs.randint(0, 30, 60)])
        lt = ray.data.from_arrow(pa.table({
            "k": pa.array(lk, pa.int64()),
            "a": pa.array(np.arange(len(lk)), pa.int64())}))
        rt = ray.data.from_arrow(pa.table({
            "rk": pa.array(rk, pa.int64()),
            "b": pa.array(np.arange(len(rk)), pa.int64())}))
        for how in ("inner", "left"):
            plain = (hash_join(lt, rt, "k", "rk", how=how)
                     .to_pandas().sort_values(["k", "a", "b"])
                     .reset_index(drop=True))
            salted = (hash_join(lt, rt, "k", "rk", how=how, salt=4)
                      .to_pandas().sort_values(["k", "a", "b"])
                      .reset_index(drop=True))
            pd.testing.assert_frame_equal(plain, salted)


class TestCompressibility:
    def test_repetitive_compresses_better(self, ray_session):
        import zlib as _z
        rep = "the same phrase again and again " * 50
        rng = np.random.RandomState(2)
        natural = " ".join(
            "".join(chr(97 + c) for c in rng.randint(0, 26, 8))
            for _ in range(200))
        t = pa.table({"doc_id": pa.array([0, 1, 2], pa.int64()),
                      "text": pa.array([rep, natural, None])})
        out = text_analysis.compressibility(t).to_pandas()
        assert out.compress_ratio[0] < out.compress_ratio[1]
        assert out.compress_ratio[2] == 1.0 and out.n_bytes[2] == 0
        # differential: exact zlib recompute
        assert out.n_compressed[0] == len(_z.compress(rep.encode(), 6))

    def test_query(self, ray_session):
        from mobile_ocr_api_ray.pipelines import analysis
        df = analysis.compressibility_docs("/root/testdata/sf0.001") \
            .to_pandas()
        assert len(df) > 0
        assert ((df.compress_ratio > 0) & (df.compress_ratio <= 1.5)).all()


class TestNaiveBayes:
    def _fit_brute(self, docs, vocab_k=2000):
        """Pure-python NB recompute with the same rules."""
        import re, math
        from collections import Counter
        wre = re.compile(r"\w+")
        wc, dc, tot = Counter(), Counter(), Counter()
        for _, t, lab in docs:
            dc[lab] += 1
            for w in wre.findall((t or "").lower()):
                wc[(w, lab)] += 1
                tot[w] += 1
        vocab = [w for w, _ in sorted(tot.items(),
                                      key=lambda kv: (-kv[1], kv[0]))[:vocab_k]]
        vset = {w: i for i, w in enumerate(vocab)}
        labels = sorted(dc)
        return wre, vset, labels, wc, dc

    def _predict_brute(self, fit, text):
        import math
        wre, vset, labels, wc, dc = fit
        v = len(vset)
        tok_per = {l: sum(n for (w, ll), n in wc.items()
                          if ll == l and w in vset) for l in labels}
        total = sum(dc.values())
        best, best_s = None, None
        for l in labels:
            s = math.log(dc[l] / total)
            for w in wre.findall((text or "").lower()):
                if w in vset:
                    s += math.log((wc.get((w, l), 0) + 1) / (tok_per[l] + v))
            if best_s is None or s > best_s + 1e-12:
                best, best_s = l, s
        return best

    def test_separable_sources(self, ray_session):
        import ray.data
        docs = [(i, "alpha beta gamma delta " * 3, "s1") for i in range(10)]
        docs += [(i + 10, "omega psi chi phi " * 3, "s2") for i in range(10)]
        ds = ray.data.from_arrow(pa.table({
            "doc_id": pa.array([d[0] for d in docs], pa.int64()),
            "text": pa.array([d[1] for d in docs]),
            "source": pa.array([d[2] for d in docs])}))
        model = text_analysis.nb_fit(ds)
        out = text_analysis.nb_predict(pa.table({
            "doc_id": pa.array([0, 1], pa.int64()),
            "text": pa.array(["beta gamma alpha", "chi phi omega"])}), model)
        assert out["pred"].to_pylist() == ["s1", "s2"]

    def test_differential_vs_brute(self, ray_session):
        import ray.data
        rng = np.random.RandomState(6)
        vocabs = {"a": [f"w{i}" for i in range(15)],
                  "b": [f"w{i}" for i in range(8, 25)]}
        docs = []
        for i in range(40):
            lab = "a" if i % 2 else "b"
            docs.append((i, " ".join(rng.choice(vocabs[lab], 20)), lab))
        ds = ray.data.from_arrow(pa.table({
            "doc_id": pa.array([d[0] for d in docs], pa.int64()),
            "text": pa.array([d[1] for d in docs]),
            "source": pa.array([d[2] for d in docs])}))
        model = text_analysis.nb_fit(ds)
        fit = self._fit_brute(docs)
        batch = pa.table({
            "doc_id": pa.array([d[0] for d in docs], pa.int64()),
            "text": pa.array([d[1] for d in docs])})
        got = text_analysis.nb_predict(batch, model)["pred"].to_pylist()
        want = [self._predict_brute(fit, d[1]) for d in docs]
        assert got == want

    def test_corpus_accuracy_above_chance(self, ray_session):
        from mobile_ocr_api_ray.pipelines import analysis
        df = analysis.nb_source_predictions("/root/testdata/sf0.001") \
            .to_pandas()
        n_sources = df.source.nunique()
        acc = df.correct.mean()
        assert acc > 1.5 / n_sources


class TestBigBucketPairs:
    def test_simhash_large_identical_family_exact(self, ray_session):
        # >MAX_BUCKET identical docs: every band bucket holds all of them;
        # the exact-pair contract (full recall at hamming<=3, full
        # self-join oracle) requires ALL C(n,2) pairs — a capped bucket
        # walk would silently emit none
        import ray.data
        n = 70
        ds = ray.data.from_arrow(pa.table({
            "doc_id": pa.array(list(range(n)), pa.int64()),
            "text": pa.array(["same words everywhere"] * n, pa.string())}))
        out = dedup.simhash_near_pairs(ds).to_pandas()
        assert len(out) == n * (n - 1) // 2
        assert (out.hamming == 0).all()
        assert (out.id_a < out.id_b).all()

    def test_minhash_keeps_salt_guard(self, ray_session):
        # MinHash banding stays capped (approximate-by-contract): a
        # degenerate >MAX_BUCKET bucket emits no pairs rather than a
        # quadratic blowup
        import ray.data
        n = dedup.MAX_BUCKET + 6
        ds = ray.data.from_arrow(pa.table({
            "doc_id": pa.array(list(range(n)), pa.int64()),
            "text": pa.array(["alpha beta gamma delta epsilon"] * n,
                             pa.string())}))
        out = dedup.minhash_dedup_pairs(ds).to_pandas()
        assert len(out) == 0


class TestReadTableAuto:
    """Format-agnostic ingestion: the same query over parquet, JSONL and
    CSV exports of one table must return identical results."""

    @pytest.fixture(scope="class")
    def exports(self, tmp_path_factory):
        import pyarrow.parquet as pq_
        src = "/root/testdata/sf0.001/documents.parquet"
        t = pq_.read_table(src, columns=["doc_id", "lang", "n_chars"])
        d = tmp_path_factory.mktemp("exports")
        df = t.to_pandas()
        df.to_json(d / "documents.jsonl", orient="records", lines=True)
        df.to_csv(d / "documents.csv", index=False)
        return src, str(d / "documents.jsonl"), str(d / "documents.csv")

    def test_same_rollup_from_all_formats(self, ray_session, exports):
        from mobile_ocr_api_ray.pipelines.reads import read_table_auto
        src, jsonl, csv = exports

        def rollup(path):
            ds = read_table_auto(path, columns=["doc_id", "lang", "n_chars"],
                                 schema_like=src)
            return (ds.groupby("lang")
                    .sum("n_chars").to_pandas()
                    .sort_values("lang").reset_index(drop=True))

        a, b, c = rollup(src), rollup(jsonl), rollup(csv)
        pd.testing.assert_frame_equal(a, b)
        pd.testing.assert_frame_equal(a, c)

    def test_schema_cast_matches_parquet(self, ray_session, exports):
        from mobile_ocr_api_ray.pipelines.reads import read_table_auto
        src, jsonl, _ = exports
        want = read_table_auto(src, columns=["doc_id", "n_chars"]).schema()
        got = read_table_auto(jsonl, columns=["doc_id", "n_chars"],
                              schema_like=src).schema()
        assert [str(t) for t in got.types] == [str(t) for t in want.types]

    def test_unknown_extension_rejected(self):
        from mobile_ocr_api_ray.pipelines.reads import read_table_auto
        with pytest.raises(ValueError, match="unsupported extension"):
            read_table_auto("/tmp/x.avro")


class TestDimBroadcastRouting:
    """Size-thresholded dimension joins (stages/dim_broadcast): the cap
    routes small dimensions to a Ray-task-built broadcast and big ones to
    the co-partitioned hash_join — identical output on both routes."""

    SF = "/root/testdata/sf0.001"

    def test_cap_pins_route(self, ray_session):
        import ray
        from mobile_ocr_api_ray.stages.dim_broadcast import (
            broadcast_dim, parquet_num_rows)

        path = f"{self.SF}/customer.parquet"
        n = parquet_num_rows(path)
        assert n > 0
        # default cap (2M) → broadcast route: an ObjectRef, resolvable to
        # the requested columns
        ref = broadcast_dim([(path, ["c_custkey", "c_name"])])
        assert ref is not None
        tab = ray.get(ref)
        assert tab.column_names == ["c_custkey", "c_name"]
        assert tab.num_rows == n
        # cap below the table size → hash_join route signal
        assert broadcast_dim([(path, ["c_custkey"])], cap_rows=n - 1) is None
        # composed chain routes on the LARGEST input
        nref = broadcast_dim(
            [(path, ["c_custkey", "c_nationkey"]),
             (f"{self.SF}/nation.parquet", ["n_nationkey", "n_name"])],
            joins=[(["c_nationkey"], ["n_nationkey"])],
            select=["c_custkey", "n_name"], cap_rows=n - 1)
        assert nref is None

    @pytest.mark.parametrize("qname,fn", [
        ("top_customers", "relational"),
        ("nation_order_stats", "relational"),
        ("regional_revenue", "analytics"),
        ("nation_revenue_share", "analytics"),
        ("segment_order_priorities", "analytics"),
        ("quiet_customers", "analytics"),
    ])
    def test_routes_agree(self, ray_session, qname, fn):
        from mobile_ocr_api_ray.pipelines import analytics, relational
        mod = relational if fn == "relational" else analytics
        f = getattr(mod, qname)

        def norm(r):
            df = r.to_pandas() if hasattr(r, "to_pandas") else r
            return df.reset_index(drop=True)

        small = norm(f(self.SF))                           # broadcast route
        big = norm(f(self.SF, broadcast_cap_rows=0))       # hash_join route
        pd.testing.assert_frame_equal(small, big)
        assert len(small) > 0


class TestTopkFinisher:
    """stages/topk.topk_table ≡ global sort().limit(k) under a total order."""

    def test_matches_global_sort(self, ray_session):
        import ray.data
        from mobile_ocr_api_ray.stages.topk import topk_table

        rng = np.random.default_rng(7)
        n = 5000
        tab = pa.table({
            "v": pa.array(rng.integers(0, 400, n), pa.int64()),
            "id": pa.array(np.arange(n), pa.int64())})
        ds = ray.data.from_arrow(tab).repartition(13)
        got = topk_table(ds, [("v", "descending"), ("id", "ascending")], 10)
        want = (ds.sort(["v", "id"], descending=[True, False])
                .limit(10).to_pandas())
        pd.testing.assert_frame_equal(got.to_pandas(), want)

    def test_k_larger_than_corpus(self, ray_session):
        import ray.data
        from mobile_ocr_api_ray.stages.topk import topk_table

        tab = pa.table({"v": pa.array([3, 1, 2], pa.int64())})
        got = topk_table(ray.data.from_arrow(tab), [("v", "ascending")], 10)
        assert got["v"].to_pylist() == [1, 2, 3]


class TestSimhashCliqueAndTokenless:
    """Round-4 hardening of the simhash pair path: tokenless docs are
    excluded from near-pair generation (they'd all collide at simhash 0),
    and identical-fingerprint cliques emit once via the clique-compressed
    bucket sweep — output identical to a brute-force hamming self-join."""

    def test_tokenless_docs_emit_no_pairs(self, ray_session):
        import ray.data
        texts = ["世界和平 世界和平", "мир во всём мире", "🎉🎉🎉", "", None,
                 "normal ascii words here", "normal ascii words here"]
        ds = ray.data.from_arrow(pa.table({
            "doc_id": pa.array(list(range(len(texts))), pa.int64()),
            "text": pa.array(texts, pa.string())}))
        out = dedup.simhash_near_pairs(ds).to_pandas()
        # the five tokenless docs (simhash 0) never pair with anything;
        # exactly the two identical ascii docs pair (hamming 0)
        assert out[["id_a", "id_b"]].values.tolist() == [[5, 6]]
        # sanity: tokenless docs really do hash to 0
        for t in texts[:4]:
            assert dedup.simhash64(t or "") == 0

    def test_clique_sweep_matches_bruteforce(self, ray_session):
        import itertools
        import ray.data
        rng = np.random.default_rng(11)
        base = ["alpha beta gamma delta", "epsilon zeta eta theta",
                "iota kappa lambda mu nu xi"]
        texts = []
        for b in base:                      # identical-fingerprint cliques
            texts += [b] * int(rng.integers(3, 9))
        for i in range(12):                 # near-misses and distinct docs
            texts.append(base[i % 3] + (" extraword" * (i % 4)))
        ds = ray.data.from_arrow(pa.table({
            "doc_id": pa.array(list(range(len(texts))), pa.int64()),
            "text": pa.array(texts, pa.string())})).repartition(4)
        out = dedup.simhash_near_pairs(ds).to_pandas() \
            .sort_values(["id_a", "id_b"]).reset_index(drop=True)
        hashes = [dedup.simhash64(t) for t in texts]
        want = []
        for i, j in itertools.combinations(range(len(texts)), 2):
            if hashes[i] == 0 or hashes[j] == 0:
                continue
            ham = bin(hashes[i] ^ hashes[j]).count("1")
            if ham <= 3:
                want.append((i, j, ham))
        want_df = pd.DataFrame(want, columns=["id_a", "id_b", "hamming"]) \
            .astype("int64").sort_values(["id_a", "id_b"]) \
            .reset_index(drop=True)
        pd.testing.assert_frame_equal(
            out[["id_a", "id_b", "hamming"]].astype("int64"), want_df)

    def test_triu_chunks_cover_exactly(self):
        for m in (0, 1, 2, 3, 7, 50):
            for chunk in (1, 5, 64, 10**6):
                got = set()
                for a_i, b_i in dedup._triu_chunks(m, chunk):
                    assert len(a_i) <= max(chunk, m - 1)  # one row min slab
                    got.update(zip(a_i.tolist(), b_i.tolist()))
                want = {(i, j) for i in range(m) for j in range(i + 1, m)}
                assert got == want, (m, chunk)


class TestShardedCompressedIngest:
    """read_table_auto over shard DIRECTORIES, globs and compressed text
    exports — the rollup must match the parquet source byte-for-byte."""

    SRC = "/root/testdata/sf0.001/documents.parquet"
    COLS = ["doc_id", "lang", "n_chars"]

    @pytest.fixture(scope="class")
    def shard_dirs(self, tmp_path_factory):
        import gzip
        import json
        import pyarrow.parquet as pq_

        df = pq_.read_table(self.SRC, columns=self.COLS).to_pandas()
        d = tmp_path_factory.mktemp("shards")
        gz_dir = d / "docs_jsonl_gz"; gz_dir.mkdir()
        zst_dir = d / "docs_csv_zst"; zst_dir.mkdir()
        import pyarrow as pa_
        codec = pa_.Codec("zstd")
        n = len(df)
        for s in range(3):
            part = df.iloc[s * n // 3:(s + 1) * n // 3]
            with gzip.open(gz_dir / f"part-{s}.jsonl.gz", "wt") as f:
                for rec in part.to_dict("records"):
                    f.write(json.dumps(rec) + "\n")
            payload = part.to_csv(index=False).encode()
            (zst_dir / f"part-{s}.csv.zst").write_bytes(
                codec.compress(payload, asbytes=True))
        return str(gz_dir), str(zst_dir)

    def _rollup(self, path):
        from mobile_ocr_api_ray.pipelines.reads import read_table_auto
        ds = read_table_auto(path, columns=self.COLS, schema_like=self.SRC)
        return (ds.groupby("lang").sum("n_chars").to_pandas()
                .sort_values("lang").reset_index(drop=True))

    def test_jsonl_gz_dir_matches_parquet(self, ray_session, shard_dirs):
        want = self._rollup(self.SRC)
        pd.testing.assert_frame_equal(self._rollup(shard_dirs[0]), want)

    def test_csv_zst_glob_matches_parquet(self, ray_session, shard_dirs):
        want = self._rollup(self.SRC)
        got = self._rollup(shard_dirs[1] + "/part-*.csv.zst")
        pd.testing.assert_frame_equal(got, want)

    def test_missing_column_is_descriptive(self, ray_session, shard_dirs):
        from mobile_ocr_api_ray.pipelines.reads import read_table_auto
        with pytest.raises(ValueError, match="no_such_col"):
            read_table_auto(shard_dirs[0], columns=["doc_id", "no_such_col"])
        with pytest.raises(ValueError, match="no_such_col"):
            read_table_auto(self.SRC, columns=["doc_id", "no_such_col"])

    def test_mixed_shard_formats_rejected(self, ray_session, tmp_path):
        from mobile_ocr_api_ray.pipelines.reads import read_table_auto
        (tmp_path / "a.jsonl").write_text('{"x": 1}\n')
        (tmp_path / "b.csv").write_text("x\n1\n")
        with pytest.raises(ValueError, match="mixed shard formats"):
            read_table_auto(str(tmp_path))


class TestKnnOverflowSurfacing:
    """knn_graph's past-the-cap reroute to the approximate LSH path is
    surfaced (RuntimeWarning) or refusable (on_overflow='error') — never a
    silent contract change."""

    def _ds(self, n=12, dim=8):
        import ray.data
        rs = np.random.RandomState(2)
        v = rs.normal(size=(n, dim))
        return ray.data.from_arrow(pa.table({
            "vec_id": pa.array(range(n), pa.int64()),
            "embedding": pa.array([list(x) for x in v],
                                  pa.list_(pa.float64()))}))

    def test_overflow_warns(self, ray_session):
        import warnings
        with warnings.catch_warnings(record=True) as w:
            warnings.simplefilter("always")
            similarity.knn_graph(self._ds(), k=2, index_cap_rows=5)
            assert any("APPROXIMATE" in str(x.message)
                       and issubclass(x.category, RuntimeWarning) for x in w)

    def test_overflow_error_optin(self, ray_session):
        with pytest.raises(ValueError, match="index_cap_rows"):
            similarity.knn_graph(self._ds(), k=2, index_cap_rows=5,
                                 on_overflow="error")

    def test_below_cap_no_warning(self, ray_session):
        import warnings
        with warnings.catch_warnings(record=True) as w:
            warnings.simplefilter("always")
            out = similarity.knn_graph(self._ds(), k=2).to_pandas()
            assert not any(issubclass(x.category, RuntimeWarning)
                           and "APPROXIMATE" in str(x.message) for x in w)
        assert len(out) == 24


class TestIngestEdgeCases:
    """Round-4 review hardening: '.zstd' suffix (explicit codec — pyarrow
    auto-detects only '.zst'), recursive shard directories, and the
    parquet schema_like missing-column check on the driver."""

    def test_zstd_suffix_and_nested_dirs(self, ray_session, tmp_path):
        import json
        import pyarrow as pa_
        from mobile_ocr_api_ray.pipelines.reads import read_table_auto

        codec = pa_.Codec("zstd")
        nested = tmp_path / "dt=2026-01"
        nested.mkdir()
        rows_a = [{"x": 1}, {"x": 2}]
        rows_b = [{"x": 3}]
        payload_a = "".join(json.dumps(r) + "\n" for r in rows_a).encode()
        payload_b = "".join(json.dumps(r) + "\n" for r in rows_b).encode()
        (tmp_path / "part-0.jsonl.zstd").write_bytes(
            codec.compress(payload_a, asbytes=True))
        (nested / "part-1.jsonl.zstd").write_bytes(
            codec.compress(payload_b, asbytes=True))
        # directory walk finds the nested shard; .zstd decodes explicitly
        ds = read_table_auto(str(tmp_path))
        assert sorted(r["x"] for r in ds.take_all()) == [1, 2, 3]

    def test_mixed_compression_with_zstd_rejected(self, ray_session,
                                                  tmp_path):
        import gzip
        import pyarrow as pa_
        from mobile_ocr_api_ray.pipelines.reads import read_table_auto

        (tmp_path / "a.jsonl.zstd").write_bytes(
            pa_.Codec("zstd").compress(b'{"x": 1}\n', asbytes=True))
        with gzip.open(tmp_path / "b.jsonl.gz", "wt") as f:
            f.write('{"x": 2}\n')
        with pytest.raises(ValueError, match="mixed compression"):
            read_table_auto(str(tmp_path))

    def test_parquet_schema_like_missing_col_driver_side(self, ray_session,
                                                         tmp_path):
        import pyarrow.parquet as pq_
        from mobile_ocr_api_ray.pipelines.reads import read_table_auto

        narrow = tmp_path / "narrow.parquet"
        pq_.write_table(pa.table({"doc_id": pa.array([1], pa.int64())}),
                        narrow)
        with pytest.raises(ValueError, match="missing from"):
            read_table_auto(str(narrow),
                            schema_like="/root/testdata/sf0.001/documents.parquet")


class TestGramNovelty:
    """gram_novelty: per-doc distinct 3-grams and corpus-novel (df==1)
    grams — hand-computed vectors + the shared-text case."""

    def test_hand_vector(self, ray_session):
        import ray.data
        texts = [
            "a b c d",          # grams: "a b c", "b c d"
            "a b c e",          # grams: "a b c", "b c e"
            "x y",              # < 3 words -> one gram "x y"
            "",                 # no words -> no row
            None,               # no words -> no row
        ]
        ds = ray.data.from_arrow(pa.table({
            "doc_id": pa.array(range(len(texts)), pa.int64()),
            "text": pa.array(texts, pa.string())})).repartition(3)
        out = text_analysis.gram_novelty(ds).to_pandas()
        got = {int(r.doc_id): (int(r.n_grams), int(r.n_novel))
               for r in out.itertuples()}
        # "a b c" is shared (df=2); "b c d"/"b c e"/"x y" are novel
        assert got == {0: (2, 1), 1: (2, 1), 2: (1, 1)}

    def test_identical_docs_zero_novel(self, ray_session):
        import ray.data
        ds = ray.data.from_arrow(pa.table({
            "doc_id": pa.array([0, 1], pa.int64()),
            "text": pa.array(["p q r s t"] * 2, pa.string())}))
        out = text_analysis.gram_novelty(ds).to_pandas()
        assert (out.n_novel == 0).all()
        assert (out.n_grams == 3).all()

    def test_empty_corpus_typed(self, ray_session):
        import ray.data
        ds = ray.data.from_arrow(pa.table({
            "doc_id": pa.array([], pa.int64()),
            "text": pa.array([], pa.string())}))
        out = text_analysis.gram_novelty(ds)
        assert out.schema().names == ["doc_id", "n_grams", "n_novel"]
        assert out.count() == 0


class TestPiiScrub:
    """pii_scrub_docs: deterministic synthetic PII grafting + the three
    nested scrub stages, checked on hand-built vectors."""

    def test_hand_vectors(self, ray_session):
        import pyarrow.compute as pc_
        from mobile_ocr_api_ray.pipelines.analysis import (
            PII_EMAIL_RE, PII_IP_RE, PII_PHONE_RE)
        t0 = pa.array([
            "mail me at jane.doe+x@sub.example.org thanks",
            "server 192.168.1.254 then call 0812-3456-7890",
            "no pii here at all",
            "edge 999.999.999.999 and 12 3456 789",
        ])
        t1 = pc_.replace_substring_regex(t0, PII_EMAIL_RE, "<EMAIL>")
        t2 = pc_.replace_substring_regex(t1, PII_IP_RE, "<IP>")
        t3 = pc_.replace_substring_regex(t2, PII_PHONE_RE, "<PHONE>")
        got = t3.to_pylist()
        assert got[0] == "mail me at <EMAIL> thanks"
        assert got[1] == "server <IP> then call <PHONE>"
        assert got[2] == "no pii here at all"
        # 999.999... still matches the \d{1,3} quad (syntactic, not
        # semantic, validation — documented); spaced digit runs collapse
        assert got[3] == "edge <IP> and <PHONE>"

    def test_query_counts_nonzero(self, ray_session):
        from mobile_ocr_api_ray.pipelines.analysis import pii_scrub_docs
        df = pii_scrub_docs("/root/testdata/sf0.001").to_pandas()
        assert len(df) == 500
        # hash routing puts ~3/4 of docs in a PII class; each grafted doc
        # yields exactly one redaction in its category
        assert df.n_emails.sum() > 0
        assert df.n_ips.sum() > 0
        assert df.n_phones.sum() > 0
        assert not df.scrubbed.str.contains("@").any()


class TestReviewHardeningRound4b:
    """Second review pass fixes: topk on empty/eroded input, .zst+.zstd
    mixing, per-shard parquet schema validation."""

    def test_topk_empty_typed_and_eroded(self, ray_session):
        import ray.data
        from mobile_ocr_api_ray.stages.topk import topk_table
        # typed empty: schema preserved
        ds = ray.data.from_arrow(pa.table({
            "v": pa.array([], pa.int64()), "w": pa.array([], pa.string())}))
        out = topk_table(ds, [("v", "ascending")], 5)
        assert out.num_rows == 0
        # schema-eroded empty (token-free corpus through a groupby):
        # degrade to an empty frame, never raise — callers' own guards fire
        from ray.data.aggregate import Sum
        eroded = (ds.map_batches(lambda b: b, batch_format="pyarrow")
                  .groupby("w").aggregate(Sum("v", alias_name="n")))
        out2 = topk_table(eroded, [("n", "descending")], 5)
        assert out2.num_rows == 0

    def test_heavy_hitters_tokenfree_corpus(self, ray_session, tmp_path):
        import pyarrow.parquet as pq_
        from mobile_ocr_api_ray.pipelines.analysis import heavy_hitter_words
        d = tmp_path / "sf"
        d.mkdir()
        pq_.write_table(pa.table({
            "doc_id": pa.array([0, 1], pa.int64()),
            "text": pa.array(["", None], pa.string())}),
            d / "documents.parquet")
        out = heavy_hitter_words(str(d))
        df = out.to_pandas() if hasattr(out, "to_pandas") else out
        assert len(df) == 0

    def test_zst_zstd_mix_accepted(self, ray_session, tmp_path):
        import pyarrow as pa_
        from mobile_ocr_api_ray.pipelines.reads import read_table_auto
        codec = pa_.Codec("zstd")
        (tmp_path / "a.jsonl.zst").write_bytes(
            codec.compress(b'{"x": 1}\n', asbytes=True))
        (tmp_path / "b.jsonl.zstd").write_bytes(
            codec.compress(b'{"x": 2}\n', asbytes=True))
        ds = read_table_auto(str(tmp_path))
        assert sorted(r["x"] for r in ds.take_all()) == [1, 2]

    def test_parquet_drifted_shard_caught_on_driver(self, ray_session,
                                                    tmp_path):
        import pyarrow.parquet as pq_
        from mobile_ocr_api_ray.pipelines.reads import read_table_auto
        pq_.write_table(pa.table({"a": pa.array([1], pa.int64()),
                                  "b": pa.array(["x"], pa.string())}),
                        tmp_path / "part-0.parquet")
        pq_.write_table(pa.table({"a": pa.array([2], pa.int64())}),
                        tmp_path / "part-1.parquet")
        with pytest.raises(ValueError, match="part-1"):
            read_table_auto(str(tmp_path), columns=["a", "b"])


class TestTargetAffinity:
    """DSIR-style hashed-unigram target affinity: pure-python md5
    differential, zero-token rows, partition invariance, bounded fit."""

    @staticmethod
    def _brute(texts, srcs, target, n_buckets=4096):
        import hashlib
        import re
        from collections import Counter

        def h(w):
            return int(hashlib.md5(w.encode()).hexdigest()[:8], 16) % n_buckets

        word_re = re.compile(r"\w+", re.ASCII)
        tgt = Counter()
        raw = Counter()
        for s, t in zip(srcs, texts):
            acc = tgt if s == target else raw
            for w in word_re.findall((t or "").lower()):
                acc[h(w)] += 1
        rows = []
        for t in texts:
            toks = word_re.findall((t or "").lower())
            tm = sum(tgt[h(w)] for w in toks)
            rm = sum(raw[h(w)] for w in toks)
            rows.append((len(toks), tm, rm, tm / max(rm, 1)))
        return rows

    def _mk(self, texts, srcs, parts=3):
        import ray.data
        return ray.data.from_arrow(pa.table({
            "doc_id": pa.array(range(len(texts)), pa.int64()),
            "text": pa.array(texts, pa.string()),
            "source": pa.array(srcs, pa.string())})).repartition(parts)

    def test_brute_differential(self, ray_session):
        texts = ["the quick brown fox", "the the the lazy dog",
                 "quick quick fox", "", None, "dog dog dog dog"]
        srcs = ["wiki", "web", "wiki", "web", "wiki", "web"]
        ds = self._mk(texts, srcs)
        tgt, raw = text_analysis.affinity_fit(ds, "wiki")
        out = (text_analysis.affinity_score(ds, tgt, raw)
               .sort("doc_id").to_pandas())
        want = self._brute(texts, srcs, "wiki")
        for i, (nt, tm, rm, aff) in enumerate(want):
            r = out.iloc[i]
            assert (int(r.n_tokens), int(r.target_mass),
                    int(r.raw_mass)) == (nt, tm, rm)
            assert float(r.affinity) == aff

    def test_zero_token_rows(self, ray_session):
        ds = self._mk(["", None, "   ...   "], ["a", "a", "b"], parts=1)
        tgt, raw = text_analysis.affinity_fit(ds, "a")
        out = text_analysis.affinity_score(ds, tgt, raw).sort("doc_id") \
            .to_pandas()
        assert (out.n_tokens == 0).all()
        assert (out.affinity == 0.0).all()

    def test_partition_invariance(self, ray_session):
        texts = [f"w{i % 7} common token stream {i}" for i in range(40)]
        srcs = ["t" if i % 3 == 0 else "r" for i in range(40)]
        outs = []
        for parts in (1, 5):
            ds = self._mk(texts, srcs, parts)
            tgt, raw = text_analysis.affinity_fit(ds, "t")
            outs.append(text_analysis.affinity_score(ds, tgt, raw)
                        .sort("doc_id").to_pandas())
        pd.testing.assert_frame_equal(outs[0], outs[1])

    def test_fit_mass_conservation(self, ray_session):
        # every token occurrence lands in exactly one bucket of one vector
        import re
        texts = ["alpha beta gamma", "beta beta", "delta"]
        srcs = ["t", "r", "r"]
        ds = self._mk(texts, srcs, parts=2)
        tgt, raw = text_analysis.affinity_fit(ds, "t")
        n_t = sum(len(re.findall(r"\w+", t.lower()))
                  for t, s in zip(texts, srcs) if s == "t")
        n_r = sum(len(re.findall(r"\w+", t.lower()))
                  for t, s in zip(texts, srcs) if s != "t")
        assert int(tgt.sum()) == n_t and int(raw.sum()) == n_r
        assert len(tgt) == text_analysis.AFFINITY_BUCKETS


class TestNfcKernel:
    """Unicode NFC normalization kernel: unicodedata + DuckDB
    nfc_normalize three-way differential on adversarial strings, ASCII
    fast-path identity, null handling."""

    CASES = ["caf\u00e9",            # composed (NFC identity)
             "cafe\u0301",           # decomposed e+acute -> composes
             "A\u030a",              # A+ring -> \u00c5
             "\ufb01le",             # fi ligature (NFC keeps compat char)
             "plain ascii", "",
             "e\u0301\u0327 mixed a\u0308scii",   # multi-combining
             "d\u0323\u0307",       # dot-below+dot-above canonical order
             "\u0915\u093c"]        # devanagari ka+nukta (excluded pair)

    def _run(self, texts):
        from mobile_ocr_api_ray.pipelines.analysis import _nfc_kernel
        return _nfc_kernel(pa.table({
            "doc_id": pa.array(range(len(texts)), pa.int64()),
            "text": pa.array(texts, pa.string())}))

    def test_three_way_differential(self):
        import duckdb
        import unicodedata
        got = self._run(self.CASES)
        con = duckdb.connect()
        for i, t in enumerate(self.CASES):
            py = unicodedata.normalize("NFC", t)
            duck = con.execute("select nfc_normalize(?)", [t]).fetchone()[0]
            assert py == duck, t
            assert got["nfc_text"][i].as_py() == py
            assert got["changed"][i].as_py() == (py != t)
            assert got["n_cp"][i].as_py() == len(t)
            assert got["n_cp_nfc"][i].as_py() == len(py)

    def test_composed_shrinks(self):
        got = self._run(["cafe\u0301"])
        assert got["nfc_text"][0].as_py() == "caf\u00e9"
        assert got["changed"][0].as_py() is True
        assert (got["n_cp"][0].as_py(), got["n_cp_nfc"][0].as_py()) == (5, 4)

    def test_null_and_ascii(self):
        got = self._run([None, "abc"])
        assert got["nfc_text"].to_pylist() == ["", "abc"]
        assert got["changed"].to_pylist() == [False, False]


class TestSourceUnigramKl:
    """Per-source unigram KL vs corpus: pure-python micro-nat
    differential, single-source zero, empty/null docs, partition
    invariance, KL ordering under injected drift."""

    def _mk(self, texts, srcs, parts=3):
        import ray.data
        return ray.data.from_arrow(pa.table({
            "text": pa.array(texts, pa.string()),
            "source": pa.array(srcs, pa.string())})).repartition(parts)

    @staticmethod
    def _brute(texts, srcs):
        import hashlib
        import math
        import re
        from collections import Counter

        def h(w):
            return int(hashlib.md5(w.encode()).hexdigest()[:8], 16) % 4096

        sb: Counter = Counter()
        for s, t in zip(srcs, texts):
            for w in re.findall(r"\w+", (t or "").lower(), re.ASCII):
                sb[(s, h(w))] += 1
        n_s: Counter = Counter()
        c_b: Counter = Counter()
        for (s, b), c in sb.items():
            n_s[s] += c
            c_b[b] += c
        total = sum(c_b.values())
        out = {}
        for s in n_s:
            m = 0
            for (s2, b), c in sb.items():
                if s2 != s:
                    continue
                term = (float(c) / float(n_s[s])) * math.log(
                    (float(c) * float(total))
                    / (float(n_s[s]) * float(c_b[b]))) * 1000000.0
                m += int(math.floor(term))
            out[s] = (n_s[s], m, m / 1000000.0)
        return out

    def test_brute_differential(self, ray_session):
        texts = (["common words shared here"] * 4
                 + ["drifted vocabulary entirely different terms"] * 3
                 + ["common words drifted mix", None, ""])
        srcs = ["a", "a", "b", "b", "b", "c", "c", "a", "b", "c"]
        got = text_analysis.source_unigram_kl(
            self._mk(texts, srcs)).to_pandas()
        want = self._brute(texts, srcs)
        assert list(got.source) == sorted(want)
        for r in got.itertuples():
            nt, m, kl = want[r.source]
            assert (int(r.n_tokens), int(r.kl_micro_nats)) == (nt, m)
            assert float(r.kl) == kl

    def test_single_source_is_zero(self, ray_session):
        got = text_analysis.source_unigram_kl(
            self._mk(["alpha beta", "beta gamma"], ["s", "s"], 1)) \
            .to_pandas()
        assert list(got.kl_micro_nats) == [0]

    def test_null_source_folds_to_empty(self, ray_session):
        # null group keys fold to '' (the group_zscore convention; the
        # SQL oracle coalesces identically)
        got = text_analysis.source_unigram_kl(
            self._mk(["alpha beta", "alpha gamma", "beta gamma"],
                     [None, "", "s"], 2)).to_pandas()
        assert list(got.source) == ["", "s"]
        assert int(got[got.source == ""].n_tokens.iloc[0]) == 4

    def test_drift_ordering(self, ray_session):
        # a source sharing the corpus vocabulary diverges less than one
        # with disjoint vocabulary
        texts = ["the cat sat"] * 8 + ["the cat sat"] * 2 \
            + ["zyx wvu tsr qpo"] * 2
        srcs = ["base"] * 8 + ["near"] * 2 + ["far"] * 2
        got = text_analysis.source_unigram_kl(
            self._mk(texts, srcs)).to_pandas().set_index("source")
        assert got.loc["far"].kl > got.loc["near"].kl

    def test_partition_invariance(self, ray_session):
        texts = [f"tok{i % 11} drift{i % 3} base" for i in range(40)]
        srcs = [f"s{i % 4}" for i in range(40)]
        a_ = text_analysis.source_unigram_kl(
            self._mk(texts, srcs, 1)).to_pandas()
        b_ = text_analysis.source_unigram_kl(
            self._mk(texts, srcs, 8)).to_pandas()
        pd.testing.assert_frame_equal(a_, b_)


class TestSourceJsd:
    """Pairwise source JSD: pure-python differential, identical-slices
    zero, disjoint-vocab → ln 2, bounds, partition invariance."""

    @staticmethod
    def _mk(texts, srcs, parts=3):
        import ray.data
        return ray.data.from_arrow(pa.table({
            "text": pa.array(texts, pa.string()),
            "source": pa.array(srcs, pa.string())})).repartition(parts)

    @staticmethod
    def _brute(texts, srcs):
        import hashlib
        import math
        import re
        from collections import Counter

        def h(w):
            return int(hashlib.md5(w.encode()).hexdigest()[:8], 16) % 4096

        sb: Counter = Counter()
        for s, t in zip(srcs, texts):
            for w in re.findall(r"\w+", (t or "").lower(), re.ASCII):
                sb[(s or "", h(w))] += 1
        n_s: Counter = Counter()
        for (s, b), c in sb.items():
            n_s[s] += c
        out = {}
        srcs_u = sorted(n_s)
        for i, sa in enumerate(srcs_u):
            for sbb in srcs_u[i + 1:]:
                micro = 0
                bs = {b for (s, b) in sb if s in (sa, sbb)}
                for b in bs:
                    c1, c2 = sb.get((sa, b), 0), sb.get((sbb, b), 0)
                    p = float(c1) / float(n_s[sa])
                    q = float(c2) / float(n_s[sbb])
                    m = (p + q) / 2.0
                    term = 0.0
                    if c1 > 0:
                        term = term + 0.5 * p * math.log(p / m)
                    if c2 > 0:
                        term = term + 0.5 * q * math.log(q / m)
                    micro += int(math.floor(term * 1000000.0))
                out[(sa, sbb)] = micro
        return out

    def _run(self, texts, srcs, parts=3):
        return text_analysis.source_jsd_matrix(
            self._mk(texts, srcs, parts)).to_pandas()

    def test_brute_differential(self, ray_session):
        texts = (["shared words here"] * 3
                 + ["totally different vocabulary"] * 2
                 + ["shared words different", None])
        srcs = ["a", "b", "c", "a", "b", "c", "a"]
        got = self._run(texts, srcs)
        want = self._brute(texts, srcs)
        assert len(got) == len(want)
        for r in got.itertuples():
            assert int(r.jsd_micro_nats) == want[(r.source_a, r.source_b)]
            assert float(r.jsd) == want[(r.source_a, r.source_b)] / 1e6

    def test_identical_and_disjoint(self, ray_session):
        import math
        texts = ["alpha beta gamma", "alpha beta gamma",
                 "zulu yankee xray"]
        srcs = ["same1", "same2", "far"]
        got = self._run(texts, srcs, parts=1).set_index(
            ["source_a", "source_b"])
        assert int(got.loc[("same1", "same2")].jsd_micro_nats) == 0
        # disjoint vocabularies → ln 2 (up to the floor quantization)
        assert got.loc[("far", "same1")].jsd == pytest.approx(
            math.log(2), abs=1e-4)
        assert (got.jsd <= math.log(2)).all() and (got.jsd >= -1e-6).all()

    def test_partition_invariance(self, ray_session):
        texts = [f"tok{i % 11} drift{i % 3} base" for i in range(40)]
        srcs = [f"s{i % 4}" for i in range(40)]
        a_ = self._run(texts, srcs, 1)
        b_ = self._run(texts, srcs, 8)
        pd.testing.assert_frame_equal(a_, b_)

    def test_local_and_distributed_pair_routes_identical(self, ray_session):
        texts = [f"tok{i % 11} drift{i % 5} base" for i in range(40)]
        srcs = [f"s{i % 6}" for i in range(40)]
        ds1 = self._mk(texts, srcs, 3)
        loc = text_analysis.source_jsd_matrix(ds1).to_pandas()
        ds2 = self._mk(texts, srcs, 3)
        dist = text_analysis.source_jsd_matrix(
            ds2, local_pairs_max=0).to_pandas()
        pd.testing.assert_frame_equal(loc, dist)


class TestAffinityResample:
    """DSIR resampling accept rule: exact-bigint differential against
    the fitted scores, affinity>=1 always kept, zero-target never kept,
    partition invariance of the kept SET."""

    def _mk(self, texts, srcs, parts=3):
        import ray.data
        return ray.data.from_arrow(pa.table({
            "doc_id": pa.array(range(len(texts)), pa.int64()),
            "text": pa.array(texts, pa.string()),
            "source": pa.array(srcs, pa.string())})).repartition(parts)

    @staticmethod
    def _kept(ds, target):
        tgt, raw = text_analysis.affinity_fit(ds, target)
        scored = text_analysis.affinity_score(ds, tgt, raw)
        return (text_analysis.affinity_resample(scored)
                .sort("doc_id").to_pandas())

    def test_exact_accept_rule(self, ray_session):
        from mobile_ocr_api_ray.hashing import hash32
        texts = [f"tok{i % 5} filler words {i}" for i in range(30)]
        srcs = ["t" if i % 4 == 0 else "r" for i in range(30)]
        ds = self._mk(texts, srcs)
        tgt, raw = text_analysis.affinity_fit(ds, "t")
        scored = text_analysis.affinity_score(ds, tgt, raw) \
            .sort("doc_id").to_pandas()
        want = [int(r.doc_id) for r in scored.itertuples()
                if hash32(int(r.doc_id)) * max(int(r.raw_mass), 1)
                < (1 << 32) * int(r.target_mass)]
        got = self._kept(ds, "t")
        assert list(got.doc_id) == want
        # kept rows carry the scorer's exact values unchanged
        sub = scored[scored.doc_id.isin(want)].reset_index(drop=True)
        pd.testing.assert_frame_equal(got, sub)

    def test_affinity_extremes(self, ray_session):
        # doc 0: pure target vocabulary -> raw_mass 0, affinity inf-like,
        # always kept; doc 1: vocabulary absent from target -> never kept
        ds = self._mk(["aardvark aardvark", "zebra zebra zebra"],
                      ["t", "r"], parts=1)
        kept = set(self._kept(ds, "t").doc_id)
        assert 0 in kept and 1 not in kept

    def test_partition_invariance(self, ray_session):
        texts = [f"w{i % 7} common token stream {i}" for i in range(40)]
        srcs = ["t" if i % 3 == 0 else "r" for i in range(40)]
        outs = [self._kept(self._mk(texts, srcs, p), "t") for p in (1, 5)]
        pd.testing.assert_frame_equal(outs[0], outs[1])


class TestInvertedIndex:
    """inverted_index_topdf: brute-force postings differential, top-k df
    tie-break, empty corpus, partition invariance."""

    def _mk(self, texts, parts=3):
        import ray.data
        return ray.data.from_arrow(pa.table({
            "doc_id": pa.array(range(len(texts)), pa.int64()),
            "text": pa.array(texts, pa.string())})).repartition(parts)

    @staticmethod
    def _brute(texts, k):
        import re
        from collections import defaultdict
        word_re = re.compile(r"\w+", re.ASCII)
        docs_of = defaultdict(set)
        for i, t in enumerate(texts):
            for w in set(word_re.findall((t or "").lower())):
                docs_of[w].add(i)
        top = sorted(docs_of, key=lambda w: (-len(docs_of[w]), w))[:k]
        return sorted((w, len(docs_of[w]), d) for w in top
                      for d in docs_of[w])

    def test_brute_differential(self, ray_session):
        texts = ["the cat sat", "the dog sat sat", "a cat and a dog",
                 "", None, "the end"]
        out = text_analysis.inverted_index_topdf(self._mk(texts), k=4) \
            .to_pandas()
        got = sorted((r.word, int(r.df), int(r.doc_id))
                     for r in out.itertuples())
        assert got == self._brute(texts, 4)

    def test_df_counts_docs_not_occurrences(self, ray_session):
        # "sat" occurs 3x in one doc but df must count the doc once
        out = text_analysis.inverted_index_topdf(
            self._mk(["sat sat sat", "sat"], parts=1), k=1).to_pandas()
        assert list(out.word.unique()) == ["sat"]
        assert (out.df == 2).all() and len(out) == 2

    def test_tiebreak_word_asc(self, ray_session):
        # all words df=1 → top-k is lexicographic
        out = text_analysis.inverted_index_topdf(
            self._mk(["zz yy", "xx ww"], parts=2), k=2).to_pandas()
        assert sorted(out.word) == ["ww", "xx"]

    def test_empty_corpus_typed(self, ray_session):
        out = text_analysis.inverted_index_topdf(self._mk(["", None]))
        assert out.schema().names == ["word", "df", "doc_id"]
        assert out.count() == 0

    def test_partition_invariance(self, ray_session):
        texts = [f"common w{i % 5} unique{i}" for i in range(30)]
        a = text_analysis.inverted_index_topdf(self._mk(texts, 1), k=6) \
            .to_pandas()
        b = text_analysis.inverted_index_topdf(self._mk(texts, 6), k=6) \
            .to_pandas()
        pd.testing.assert_frame_equal(a, b)


class TestC4Clean:
    """C4 cleaning rules: per-status hand vectors, trim parity charset,
    null/empty, partition invariance."""

    def _run(self, texts, parts=2):
        import ray.data
        ds = ray.data.from_arrow(pa.table({
            "doc_id": pa.array(range(len(texts)), pa.int64()),
            "text": pa.array(texts, pa.string())})).repartition(parts)
        return (ds.map_batches(text_analysis.c4_clean,
                               batch_format="pyarrow")
                .sort("doc_id").to_pandas())

    GOOD = "this line has five words."   # terminal punct + 5 words

    def test_status_vectors(self, ray_session):
        g = self.GOOD
        texts = [
            "\n".join([g, g, g]),                       # kept
            "\n".join([g, g]),                          # dropped_short (2)
            "lorem IPSUM somewhere\n" + "\n".join([g, g, g]),  # lorem
            "code { body }\n" + "\n".join([g, g, g]),   # brace
            None,                                       # dropped_short
            "",                                         # dropped_short
        ]
        out = self._run(texts)
        assert list(out.status) == [
            "kept", "dropped_short", "dropped_lorem", "dropped_brace",
            "dropped_short", "dropped_short"]
        assert out.clean_text[0] == "\n".join([g, g, g])
        assert (out.clean_text[1:] == "").all()

    def test_line_rules(self, ray_session):
        g = self.GOOD
        doc = "\n".join([
            g,                                  # kept
            "no terminal punctuation here",     # dropped: no punct
            "short line.",                      # dropped: < 5 words
            "enable the javascript runtime now.",  # dropped: javascript
            "  " + g + " \t",                   # kept (trimmed)
            g,
        ])
        out = self._run([doc], parts=1)
        assert out.status[0] == "kept"
        assert int(out.n_lines[0]) == 6 and int(out.n_kept[0]) == 3
        assert out.clean_text[0] == "\n".join([g, g, g])

    def test_terminal_quote_counts(self, ray_session):
        doc = "\n".join(['he said "five words right here."',
                         'she replied "yes five words too!"',
                         'and a third long line here?'])
        out = self._run([doc], parts=1)
        assert int(out.n_kept[0]) == 3 and out.status[0] == "kept"

    def test_partition_invariance(self, ray_session):
        g = self.GOOD
        texts = [("\n".join([g] * (i % 5))) for i in range(30)]
        a = self._run(texts, parts=1)
        b = self._run(texts, parts=6)
        pd.testing.assert_frame_equal(a, b)


class TestCanonicalQualityKeep:
    """Quality-aware dedup keep: winner-by-quality hand vectors, min-id
    ties, canonical-form grouping, partition invariance."""

    def _run(self, rows, parts=2):
        import ray.data
        ds = ray.data.from_arrow(pa.table({
            "doc_id": pa.array([r[0] for r in rows], pa.int64()),
            "text": pa.array([r[1] for r in rows], pa.string())})) \
            .repartition(parts)
        return (dedup.canonical_quality_keep(ds, n_coarse=8)
                .sort("digest").to_pandas())

    def test_quality_winner_and_canonical_grouping(self, ray_session):
        clean = "the quick brown fox jumps over the lazy dog again and again"
        soupy = clean + " " + "!?;" * 12          # same canonical, worse
        cased = clean.upper()                      # same canonical, equal
        other = "completely different content with its own words here"
        out = self._run([(1, soupy), (2, clean), (3, cased), (7, other)])
        # soupy/clean/cased collapse to ONE canonical cluster
        assert len(out) == 2
        cluster = out[out.doc_id != 7].iloc[0]
        # clean (id 2) and cased (id 3) tie on quality (case-insensitive
        # kernel); soupy loses on punct_frac; min-id breaks the tie -> 2
        assert int(cluster.doc_id) == 2
        assert set(out.doc_id) == {2, 7}

    def test_higher_id_wins_on_quality(self, ray_session):
        clean = "the quick brown fox jumps over the lazy dog again and again"
        out = self._run([(1, clean + " ;;;;;;;;"), (9, clean)])
        assert list(out.doc_id) == [9]

    def test_null_and_empty_share_cluster(self, ray_session):
        out = self._run([(5, None), (3, ""), (4, "   ")])
        assert len(out) == 1 and int(out.doc_id.iloc[0]) == 3

    def test_partition_invariance(self, ray_session):
        rows = [(i, f"doc number {i % 7} content words here " * 3
                 + ("!!" if i % 2 else "")) for i in range(40)]
        a = self._run(rows, parts=1)
        b = self._run(rows, parts=8)
        pd.testing.assert_frame_equal(a, b)


class TestEncodingQc:
    """Encoding-artifact QC: per-class hand vectors, severity ranking,
    ascii ratio, null text."""

    def _run(self, texts):
        import ray.data
        ds = ray.data.from_arrow(pa.table({
            "doc_id": pa.array(range(len(texts)), pa.int64()),
            "text": pa.array(texts, pa.string())})).repartition(2)
        return (ds.map_batches(text_analysis.encoding_qc,
                               batch_format="pyarrow")
                .sort("doc_id").to_pandas())

    def test_class_vectors(self, ray_session):
        out = self._run([
            "cafÃ© and Ã©tÃ© here",          # 3 mojibake sequences
            "a\N{REPLACEMENT CHARACTER}b\N{REPLACEMENT CHARACTER}",
            "x\x07y\x1fz",                    # 2 control chars
            "perfectly clean ascii text",
            None,
        ])
        assert list(out.status) == ["mojibake", "has_replacement",
                                    "has_ctrl", "clean", "clean"]
        assert list(out.n_mojibake) == [3, 0, 0, 0, 0]
        assert list(out.n_replacement) == [0, 2, 0, 0, 0]
        assert list(out.n_ctrl) == [0, 0, 2, 0, 0]
        assert out.ascii_ratio[3] == 1.0

    def test_severity_ranking(self, ray_session):
        # ctrl outranks replacement outranks mojibake
        out = self._run(["Ã© \N{REPLACEMENT CHARACTER} \x07",
                         "Ã© \N{REPLACEMENT CHARACTER}"])
        assert list(out.status) == ["has_ctrl", "has_replacement"]

    def test_tab_newline_not_ctrl(self, ray_session):
        out = self._run(["tabs\tand\nnewlines\rok."])
        assert int(out.n_ctrl[0]) == 0 and out.status[0] == "clean"


class TestGroupZscore:
    """Group-stat normalization: hand moments, singleton groups,
    partition invariance."""

    def _ds(self, groups, vals, parts=2):
        import ray.data
        return ray.data.from_arrow(pa.table({
            "g": pa.array(groups, pa.string()),
            "v": pa.array(vals, pa.int64())})).repartition(parts)

    def test_hand_moments(self, ray_session):
        out = (text_analysis.group_zscore(
                   self._ds(["a"] * 3 + ["b"] * 2, [1, 2, 3, 10, 20]),
                   "g", "v")
               .sort("v").to_pandas())
        # group a: mean 2, std sqrt(2/3); group b: mean 15, std 5
        exp_a = (np.array([1, 2, 3]) - 2.0) / np.sqrt(2.0 / 3.0)
        assert np.allclose(out.z[:3], exp_a)
        assert np.allclose(out.z[3:], [-1.0, 1.0])

    def test_singleton_and_constant_groups(self, ray_session):
        out = (text_analysis.group_zscore(
                   self._ds(["s", "c", "c", "c"], [7, 4, 4, 4]),
                   "g", "v")
               .sort("v").to_pandas())
        assert (out.z == 0.0).all()   # std == 0 everywhere

    def test_partition_invariance(self, ray_session):
        groups = [f"g{i % 3}" for i in range(60)]
        vals = [(i * 37) % 101 for i in range(60)]
        a = (text_analysis.group_zscore(self._ds(groups, vals, 1), "g", "v")
             .sort(["g", "v"]).to_pandas())
        b = (text_analysis.group_zscore(self._ds(groups, vals, 8), "g", "v")
             .sort(["g", "v"]).to_pandas())
        pd.testing.assert_frame_equal(a, b)  # exact-int moments -> bitwise

    def test_null_group_key_folds_to_empty(self, ray_session):
        # NULL group keys follow the (s or '') convention: they fold into
        # the '' group (Ray's sort-shuffle can't compare None with str)
        import ray.data
        ds = ray.data.from_arrow(pa.table({
            "g": pa.array(["a", None, "a", "", None], pa.string()),
            "v": pa.array([1, 10, 3, 30, 20], pa.int64())})).repartition(2)
        out = (text_analysis.group_zscore(ds, "g", "v")
               .sort("v").to_pandas())
        # group a: {1, 3}; group ''/null merged: {10, 20, 30}
        exp_null = (np.array([10.0, 20, 30]) - 20.0) / np.sqrt(200.0 / 3.0)
        assert np.allclose(out.z[:2], [-1.0, 1.0])
        assert np.allclose(out.z[2:], exp_null)


class TestBpe:
    """BPE tokenizer fitting: hand pair counts, pure-python differential
    for the iterative fit, partition invariance."""

    CORPUS = ["low lower lowest", "low low newer new", "wider new lower"]

    def _ds(self, texts, parts=2):
        import ray.data
        return ray.data.from_arrow(pa.table({
            "text": pa.array(texts, pa.string())})).repartition(parts)

    @staticmethod
    def _py_bpe(texts, n_merges):
        """Reference BPE fit: greedy rank-ordered apply, (count DESC,
        pair ASC) argmax per round."""
        import re
        from collections import Counter
        words = Counter()
        for t in texts:
            words.update(re.findall(r"\w+", (t or "").lower(), re.ASCII))
        merges = []
        for _ in range(n_merges):
            ranks = {(l, r): i for i, (l, r, _) in enumerate(merges)}
            pairs = Counter()
            for w, c in words.items():
                syms = text_analysis._bpe_segment(w, ranks)
                for i in range(len(syms) - 1):
                    pairs[(syms[i], syms[i + 1])] += c
            if not pairs:
                break
            best = min(pairs.items(), key=lambda kv: (-kv[1], kv[0]))
            merges.append((best[0][0], best[0][1], best[1]))
        return merges

    def test_pair_counts_hand_vector(self, ray_session):
        out = text_analysis.bpe_pair_counts(self._ds(self.CORPUS), k=4) \
            .to_pandas()
        assert list(out.itertuples(index=False, name=None)) == [
            ("lo", 6), ("ow", 6), ("er", 4), ("we", 4)]

    def test_merges_match_pure_python(self, ray_session):
        got = text_analysis.bpe_merges(self._ds(self.CORPUS), n_merges=6) \
            .to_pandas()
        exp = self._py_bpe(self.CORPUS, 6)
        assert [(r.left, r.right, r.n)
                for r in got.itertuples()] == exp
        assert list(got["rank"]) == list(range(len(exp)))

    def test_round1_equals_pair_counts_argmax(self, ray_session):
        top = text_analysis.bpe_pair_counts(self._ds(self.CORPUS), k=1) \
            .to_pandas()
        m = text_analysis.bpe_merges(self._ds(self.CORPUS), n_merges=1) \
            .to_pandas()
        assert m.left[0] + m.right[0] == top.pair[0]
        assert int(m.n[0]) == int(top.n[0])

    def test_partition_invariance(self, ray_session):
        texts = [f"alpha beta gamma delta word{i % 9}" for i in range(40)]
        a = text_analysis.bpe_merges(self._ds(texts, 1), n_merges=4) \
            .to_pandas()
        b = text_analysis.bpe_merges(self._ds(texts, 8), n_merges=4) \
            .to_pandas()
        pd.testing.assert_frame_equal(a, b)
        pa_a = text_analysis.bpe_pair_counts(self._ds(texts, 1), k=20) \
            .to_pandas()
        pa_b = text_analysis.bpe_pair_counts(self._ds(texts, 8), k=20) \
            .to_pandas()
        pd.testing.assert_frame_equal(pa_a, pa_b)

    def test_empty_and_null(self, ray_session):
        out = text_analysis.bpe_pair_counts(self._ds(["", None, "x"]), k=5) \
            .to_pandas()
        assert len(out) == 0   # no length-2 word -> no pairs
        m = text_analysis.bpe_merges(self._ds(["", None]), n_merges=3)
        assert m.num_rows == 0


class TestBpeEncode:
    """BPE encode (apply fitted merges per doc): pure-python segmentation
    differential, zero-merge identity, empty/null docs, partition
    invariance."""

    CORPUS = ["low lower lowest", "low low newer new", "wider new lower"]

    def _ds(self, texts, parts=2):
        import ray.data
        return ray.data.from_arrow(pa.table({
            "doc_id": pa.array(range(len(texts)), pa.int64()),
            "text": pa.array(texts, pa.string())})).repartition(parts)

    @staticmethod
    def _py_encode(texts, merges_df):
        import re
        ranks = {(r.left, r.right): int(r.rank)
                 for r in merges_df.itertuples()}
        rows = []
        for t in texts:
            words = re.findall(r"\w+", (t or "").lower(), re.ASCII)
            toks = []
            for w in words:
                toks.extend(text_analysis._bpe_segment(w, ranks)
                            if ranks else list(w))
            nc = sum(len(w) for w in words)
            rows.append((len(words), len(toks), nc / max(len(toks), 1),
                         " ".join(toks[:12])))
        return rows

    def test_matches_pure_python(self, ray_session):
        ds = self._ds(self.CORPUS)
        merges = text_analysis.bpe_merges(ds, n_merges=5)
        got = text_analysis.bpe_encode(ds, merges).sort("doc_id") \
            .to_pandas()
        want = self._py_encode(self.CORPUS, merges.to_pandas())
        for i, (nw, nt, cpt, prev) in enumerate(want):
            r = got.iloc[i]
            assert (int(r.n_words), int(r.n_bpe_tokens)) == (nw, nt)
            assert float(r.chars_per_token) == cpt
            assert r.preview == prev

    def test_zero_merges_is_char_tokenization(self, ray_session):
        ds = self._ds(["abc de"])
        empty = pa.table({"rank": pa.array([], pa.int64()),
                          "left": pa.array([], pa.string()),
                          "right": pa.array([], pa.string())})
        out = text_analysis.bpe_encode(ds, empty).to_pandas()
        assert int(out.n_bpe_tokens[0]) == 5   # a b c d e
        assert out.preview[0] == "a b c d e"

    def test_empty_and_null_docs(self, ray_session):
        ds = self._ds(["", None, "hi"], parts=1)
        merges = text_analysis.bpe_merges(ds, n_merges=1)
        out = text_analysis.bpe_encode(ds, merges).sort("doc_id") \
            .to_pandas()
        assert list(out.n_words) == [0, 0, 1]
        assert list(out.n_bpe_tokens)[:2] == [0, 0]
        assert list(out.chars_per_token)[:2] == [0.0, 0.0]

    def test_partition_invariance(self, ray_session):
        texts = [f"alpha beta gamma delta word{i % 9}" for i in range(40)]
        merges = text_analysis.bpe_merges(self._ds(texts, 4), n_merges=4)
        a = text_analysis.bpe_encode(self._ds(texts, 1), merges) \
            .sort("doc_id").to_pandas()
        b = text_analysis.bpe_encode(self._ds(texts, 8), merges) \
            .sort("doc_id").to_pandas()
        pd.testing.assert_frame_equal(a, b)

    def test_shuffled_merge_table_same_result(self, ray_session):
        # priority must come from the rank COLUMN: a merge table sorted
        # for inspection / read back from storage segments identically
        ds = self._ds(self.CORPUS)
        merges = text_analysis.bpe_merges(ds, n_merges=5)
        shuffled = merges.sort_by([("left", "descending")])
        a = text_analysis.bpe_encode(ds, merges).sort("doc_id") \
            .to_pandas()
        b = text_analysis.bpe_encode(ds, shuffled).sort("doc_id") \
            .to_pandas()
        pd.testing.assert_frame_equal(a, b)


class TestPmiBigrams:
    """PMI collocations: pure-python differential (counts + libm log),
    min-count filter, top-k tie order, partition invariance."""

    @staticmethod
    def _mk(texts, parts=3):
        import ray.data
        return ray.data.from_arrow(pa.table({
            "doc_id": pa.array(range(len(texts)), pa.int64()),
            "text": pa.array(texts, pa.string())})).repartition(parts)

    @staticmethod
    def _brute(texts, k, min_count):
        import math
        import re
        from collections import Counter
        uni, big = Counter(), Counter()
        for t in texts:
            toks = re.findall(r"\w+", (t or "").lower(), re.ASCII)
            uni.update(toks)
            big.update(zip(toks, toks[1:]))
        total = sum(uni.values())
        rows = []
        for (w1, w2), nxy in big.items():
            if nxy < min_count:
                continue
            pmi = math.log((float(nxy) * float(total))
                           / (float(uni[w1]) * float(uni[w2])))
            rows.append((w1, w2, nxy, uni[w1], uni[w2], pmi))
        rows.sort(key=lambda r: (-r[5], r[0], r[1]))
        return rows[:k]

    def _run(self, texts, parts=3, k=10, min_count=2):
        from mobile_ocr_api_ray.pipelines.analysis import _pmi_from_ds
        return _pmi_from_ds(self._mk(texts, parts),
                            k=k, min_count=min_count).to_pandas()

    def test_brute_differential(self, ray_session):
        texts = (["strong coffee tastes strong"] * 3
                 + ["coffee shop strong coffee", "weak tea weak tea"] * 2
                 + ["strong tea", None, ""])
        got = self._run(texts, k=8, min_count=2)
        want = self._brute(texts, 8, 2)
        assert [tuple(r) for r in got.itertuples(index=False)] == want

    def test_min_count_filter(self, ray_session):
        texts = ["rare pair", "common pair common pair common pair"]
        got = self._run(texts, min_count=3)
        assert ("rare", "pair") not in set(zip(got.w1, got.w2))
        assert ("common", "pair") in set(zip(got.w1, got.w2))

    def test_partition_invariance(self, ray_session):
        texts = [f"tok{i % 5} tok{(i + 1) % 5} filler" for i in range(40)]
        a_ = self._run(texts, parts=1, min_count=2)
        b_ = self._run(texts, parts=8, min_count=2)
        pd.testing.assert_frame_equal(a_, b_)

    def test_broadcast_and_join_routes_identical(self, ray_session):
        from mobile_ocr_api_ray.pipelines.analysis import _pmi_from_ds
        texts = [f"tok{i % 5} tok{(i + 1) % 5} filler" for i in range(30)]
        ds = self._mk(texts, 3)
        bc = _pmi_from_ds(ds, k=10, min_count=2).to_pandas()
        jn = _pmi_from_ds(ds, k=10, min_count=2,
                          broadcast_cap_rows=0).to_pandas()
        pd.testing.assert_frame_equal(bc, jn)


class TestMinhashMd5Exact:
    """Value-exact MinHash variant (md5-hash32 domain, affine perms mod
    2^31-1) — the SQL-reproducible sibling of minhash_dedup_pairs."""

    def _pure_sig(self, text):
        import hashlib
        words = text.lower().split()
        n = dedup.SHINGLE_N
        grams = ([" ".join(words)] if 0 < len(words) < n
                 else [" ".join(words[i:i + n])
                       for i in range(len(words) - n + 1)])
        xs = [int(hashlib.md5(g.encode()).hexdigest()[:8], 16) % dedup.P31
              for g in grams]
        return [min((int(a) * x + int(b)) % dedup.P31 for x in xs)
                for a, b in zip(dedup.MD5MH_A, dedup.MD5MH_B)]

    def test_signature_matches_pure_python(self, ray_session):
        t = pa.table({"doc_id": pa.array([1, 2], pa.int64()),
                      "text": pa.array(["alpha beta gamma delta",
                                        "xy"], pa.string())})
        out = dedup.md5_minhash_batch(t)
        assert out["doc_id"].to_pylist() == [1, 2]
        assert out["signature"].to_pylist() == [
            self._pure_sig("alpha beta gamma delta"), self._pure_sig("xy")]

    def test_empty_docs_excluded(self, ray_session):
        t = pa.table({"doc_id": pa.array([1, 2, 3], pa.int64()),
                      "text": pa.array(["", None, "real words here"],
                                       pa.string())})
        out = dedup.md5_minhash_batch(t)
        assert out["doc_id"].to_pylist() == [3]

    def test_clones_pair_with_dyadic_estimate(self, ray_session):
        import ray.data
        texts = [f"unique document number {i} alpha beta gamma delta {i}"
                 for i in range(20)]
        ds = ray.data.from_arrow(pa.table({
            "doc_id": pa.array(list(range(20)) + [100 + i for i in range(20)],
                               pa.int64()),
            "text": pa.array(texts + texts, pa.string())}))
        pairs = dedup.minhash_pairs_md5(ds).to_pandas()
        got = {(a, b) for a, b in zip(pairs.id_a, pairs.id_b)}
        assert {(i, 100 + i) for i in range(20)} <= got
        # every estimate is k/16 — an exact dyadic rational
        assert ((pairs.est_jaccard * dedup.MD5MH_PERM) % 1 == 0).all()
        assert (pairs.est_jaccard >= 0.5).all()

    def test_partition_invariance(self, ray_session):
        import ray.data
        texts = [f"shared boilerplate words {i % 4} tail token {i}"
                 for i in range(30)]
        t = pa.table({"doc_id": pa.array(range(30), pa.int64()),
                      "text": pa.array(texts, pa.string())})
        base = None
        for nc, nb in ((4, 1), (64, 5)):
            ds = ray.data.from_arrow(t).repartition(nb)
            out = dedup.minhash_pairs_md5(ds, n_coarse=nc).to_pandas() \
                .sort_values(["id_a", "id_b"]).reset_index(drop=True)
            if base is None:
                base = out
            else:
                assert base.equals(out)


class TestIncrementalNearDedup:
    def _mk(self, ids, texts):
        import ray.data
        return ray.data.from_arrow(pa.table({
            "doc_id": pa.array(ids, pa.int64()),
            "text": pa.array(texts, pa.string())}))

    def test_mixed_pairs_only(self, ray_session):
        """Clones straddling the snapshot boundary appear as (new, old)
        pairs; clone pairs INSIDE one side never do."""
        texts = [f"document body number {i} alpha beta gamma delta" for i
                 in range(8)]
        # ids 0..7 old, 100..107 new; 200..207 also old (clone of 0..7)
        ds = self._mk(list(range(8)) + [100 + i for i in range(8)]
                      + [200 + i for i in range(8)], texts * 3)
        out = dedup.minhash_pairs_md5_incremental(
            ds, old_pred=lambda ids: (np.asarray(ids) < 100)
            | (np.asarray(ids) >= 200)).to_pandas()
        got = {(n, o) for n, o in zip(out.new_id, out.old_id)}
        # each new clone pairs with BOTH old copies
        assert {(100 + i, i) for i in range(8)} <= got
        assert {(100 + i, 200 + i) for i in range(8)} <= got
        # no old-old (0,200) or new-new pairs, and orientation is new→old
        assert all(n >= 100 and n < 200 and (o < 100 or o >= 200)
                   for n, o in got)
        # exact clone pairs estimate 1.0; near-misses (texts differing in
        # one token) clear the 0.5 gate but never reach 1.0
        clone = (out.new_id % 100) == (out.old_id % 100)
        assert (out.est_jaccard[clone] == 1.0).all()
        assert (out.est_jaccard >= 0.5).all()

    def test_differential_vs_full_pairs(self, ray_session):
        """Incremental output == full minhash_pairs_md5 filtered to mixed
        pairs (same est values, orientation flipped to new→old)."""
        texts = [f"shared boilerplate words {i % 3} tail token {i}"
                 for i in range(24)]
        ids = list(range(24))
        ds = self._mk(ids, texts)
        old = lambda a: np.asarray(a) % 2 == 0
        inc = dedup.minhash_pairs_md5_incremental(
            ds, old_pred=old, n_coarse=16).to_pandas()
        full = dedup.minhash_pairs_md5(ds, n_coarse=16).to_pandas()
        mixed = full[(full.id_a % 2) != (full.id_b % 2)]
        want = {((b if a % 2 == 0 else a), (a if a % 2 == 0 else b),
                 e) for a, b, e in zip(mixed.id_a, mixed.id_b,
                                       mixed.est_jaccard)}
        got = set(zip(inc.new_id, inc.old_id, inc.est_jaccard))
        assert got == want
        assert len(inc) == len(mixed)

    def test_cross_chunks_cover_exactly(self):
        for m, n, chunk in ((0, 5, 4), (5, 0, 4), (3, 4, 5), (7, 7, 3),
                            (1, 9, 100), (6, 2, 1)):
            seen = set()
            for a_i, b_i in dedup._cross_chunks(m, n, chunk):
                assert len(a_i) <= max(chunk, n)
                seen |= set(zip(a_i.tolist(), b_i.tolist()))
            assert seen == {(i, j) for i in range(m) for j in range(n)}

    def test_query_gate(self, ray_session):
        import __ray_entry__ as e
        df = e.queries()["near_dedup_incremental"](
            "/root/testdata/sf0.001").to_pandas()
        assert len(df) > 0
        from mobile_ocr_api_ray.pipelines.analysis import _hash_keep
        # orientation invariant: every new_id is outside the snapshot,
        # every old_id inside
        assert not any(_hash_keep(i, 50) for i in df.new_id)
        assert all(_hash_keep(i, 50) for i in df.old_id)
        assert (df.est_jaccard >= 0.5).all()
        assert ((df.est_jaccard * 16) % 1 == 0).all()


class TestSoftDedupWeights:
    def _mk(self, ids, texts):
        import ray.data
        return ray.data.from_arrow(pa.table({
            "doc_id": pa.array(ids, pa.int64()),
            "text": pa.array(texts, pa.string())}))

    def test_weights_match_cluster_sizes(self, ray_session):
        """3 copies of A → 333333 micro-units each; singleton → 1000000;
        every input row survives with its id."""
        ds = self._mk([1, 2, 3, 4, 5],
                      ["aaa", "aaa", "aaa", "bbb", "ccc"])
        df = (dedup.soft_dedup_weights(ds).to_pandas()
              .sort_values("doc_id").reset_index(drop=True))
        assert df.doc_id.tolist() == [1, 2, 3, 4, 5]
        assert df.cluster_size.tolist() == [3, 3, 3, 1, 1]
        assert df.weight_micro.tolist() == [333333] * 3 + [1000000] * 2

    def test_agrees_with_exact_dedup_stats(self, ray_session):
        """cluster_size per digest equals exact_dedup_stats' dup_count —
        the weight table is that rollup broadcast back to rows."""
        texts = [f"t{i % 4}" for i in range(12)]
        ds = self._mk(list(range(12)), texts)
        w = dedup.soft_dedup_weights(ds).to_pandas()
        s = dedup.exact_dedup_stats(ds).to_pandas()
        per_digest = w.groupby("digest").cluster_size.first()
        expect = s.set_index("digest").dup_count
        assert per_digest.sort_index().tolist() == \
            expect.sort_index().tolist()
        # weights partition the unit mass up to floor rounding
        assert (w.weight_micro * w.cluster_size <= 1_000_000).all()
        assert (w.weight_micro * (w.cluster_size + 1) > 1_000_000).all()

    def test_partition_invariance(self, ray_session):
        texts = [f"doc {i % 5} body" for i in range(20)]
        a = (dedup.soft_dedup_weights(
                self._mk(list(range(20)), texts)).to_pandas()
             .sort_values("doc_id").reset_index(drop=True))
        b = (dedup.soft_dedup_weights(
                self._mk(list(range(20)), texts).repartition(7))
             .to_pandas().sort_values("doc_id").reset_index(drop=True))
        assert a.equals(b)


class TestGlobalShuffleOrder:
    def _mk(self, n):
        import ray.data
        return ray.data.from_arrow(pa.table({
            "doc_id": pa.array(list(range(n)), pa.int64())}))

    def test_rank_is_md5_order_permutation(self, ray_session):
        """Ranks are exactly 0..n-1 and agree with a local recompute of
        the (md5('s0:'||id), id) lexicographic order."""
        import hashlib
        n = 100
        df = (text_analysis.global_shuffle_order(self._mk(n)).to_pandas()
              .sort_values("doc_id").reset_index(drop=True))
        assert sorted(df.shuffle_rank.tolist()) == list(range(n))
        expect = sorted(range(n), key=lambda i: (
            hashlib.md5(f"s0:{i}".encode()).hexdigest(), i))
        got = df.set_index("doc_id").shuffle_rank
        assert [got[i] for i in expect] == list(range(n))
        assert (df.shard == df.shuffle_rank % 8).all()

    def test_seed_changes_order_and_partition_invariance(self, ray_session):
        a = (text_analysis.global_shuffle_order(self._mk(64))
             .to_pandas().sort_values("doc_id").reset_index(drop=True))
        b = (text_analysis.global_shuffle_order(self._mk(64).repartition(5))
             .to_pandas().sort_values("doc_id").reset_index(drop=True))
        assert a.equals(b)
        c = (text_analysis.global_shuffle_order(self._mk(64), seed="s1")
             .to_pandas().sort_values("doc_id").reset_index(drop=True))
        assert c.shuffle_rank.tolist() != a.shuffle_rank.tolist()
        assert sorted(c.shuffle_rank.tolist()) == list(range(64))

    def test_shards_are_balanced(self, ray_session):
        """Round-robin over the shuffled order ⇒ shard sizes differ by
        at most 1 (an unbiased corpus sample per shard)."""
        df = text_analysis.global_shuffle_order(
            self._mk(50), n_shards=4).to_pandas()
        sizes = df.groupby("shard").size()
        assert sizes.max() - sizes.min() <= 1


class TestLengthFit:
    def _mk(self, texts):
        import ray.data
        return ray.data.from_arrow(pa.table({
            "doc_id": pa.array(list(range(len(texts))), pa.int64()),
            "text": pa.array(texts, pa.string())}))

    def test_exact_closed_form(self, ray_session):
        texts = ["a bb ccc", "dddd ee", "f", "", "gg hh ii jj"]
        t = text_analysis.length_fit(self._mk(texts)).to_pandas().iloc[0]
        xs = [len([w for w in s.split() if w]) for s in texts]
        ys = [len(s) for s in texts]
        n = len(xs)
        sx, sy = sum(xs), sum(ys)
        sxx = sum(x * x for x in xs)
        sxy = sum(x * y for x, y in zip(xs, ys))
        assert (t.n_docs, t.sum_x, t.sum_y, t.sum_xx, t.sum_xy) == \
            (n, sx, sy, sxx, sxy)
        den = n * sxx - sx * sx
        assert t.den == den
        assert t.slope_num == n * sxy - sx * sy
        assert t.intercept_num == sy * sxx - sx * sxy
        assert t.slope == float(n * sxy - sx * sy) / float(den)
        # residuals of the exact fit are orthogonal to x (normal equation):
        # n*sxy - sx*sy == slope_num exactly by construction
        assert t.intercept == float(sy * sxx - sx * sxy) / float(den)

    def test_partition_invariance_and_degenerate(self, ray_session):
        texts = [f"word {'x ' * (i % 7)}tail" for i in range(40)]
        a = text_analysis.length_fit(self._mk(texts)).to_pandas()
        b = text_analysis.length_fit(
            self._mk(texts).repartition(9)).to_pandas()
        assert a.equals(b)
        # constant x (den == 0) → documented 0.0 fallback, no crash
        d = text_analysis.length_fit(
            self._mk(["aa bb", "cc dd", "ee ff"])).to_pandas().iloc[0]
        assert d.den == 0 and d.slope == 0.0 and d.intercept == 0.0


class TestSoftDedupSampling:
    def test_sampled_is_weight_rule_subset(self, ray_session):
        """soft_dedup_sampled_docs keeps exactly the weight-table rows
        passing hash32(id)·1e6 < weight·2^32 — membership recomputed
        locally from the shared sampling hash."""
        from mobile_ocr_api_ray.hashing import hash32
        from mobile_ocr_api_ray.pipelines import analysis as a
        sf = "/root/testdata/sf0.001"
        w = a.soft_dedup_weights_doubled(sf).to_pandas()
        kept = a.soft_dedup_sampled_docs(sf).to_pandas()
        expect = w[[hash32(i) * 1_000_000 < wm * (1 << 32)
                    for i, wm in zip(w.doc_id, w.weight_micro)]]
        assert kept.doc_id.tolist() == sorted(expect.doc_id.tolist())
        # doubled corpus ⇒ weights ≤ 500000 ⇒ the sample is a strict cut
        assert 0 < len(kept) < len(w)


class TestSourceEpochPlan:
    def test_plan_arithmetic(self, ray_session):
        """Exact integer allocation: Σtarget ≤ budget (floor rounding),
        epochs·n_tokens//1e6 = effective, rel_weight from the source
        index rule."""
        from mobile_ocr_api_ray.pipelines import analysis as a
        df = a.source_epoch_plan("/root/testdata/sf0.001").to_pandas()
        assert (df.rel_weight ==
                1 + df.source.str.slice(3).astype(int) % 4).all()
        total_rel = df.rel_weight.sum()
        assert (df.target_tokens ==
                a.SOURCE_MIX_BUDGET * df.rel_weight // total_rel).all()
        assert df.target_tokens.sum() <= a.SOURCE_MIX_BUDGET
        assert (df.effective_tokens ==
                df.n_tokens * df.epochs_micro // 1_000_000).all()
        assert (df.epochs_micro[df.n_tokens > 0] ==
                df.target_tokens[df.n_tokens > 0] * 1_000_000
                // df.n_tokens[df.n_tokens > 0]).all()


class TestHardNegatives:
    def _mk(self, n=30, dim=8, n_labels=3):
        import ray.data
        rng = np.random.RandomState(11)
        return ray.data.from_arrow(pa.table({
            "vec_id": pa.array(list(range(n)), pa.int64()),
            "embedding": pa.array(
                [rng.randn(dim).tolist() for _ in range(n)],
                pa.list_(pa.float32())),
            "label": pa.array([i % n_labels for i in range(n)],
                              pa.int32())}))

    def test_matches_local_recompute_and_excludes_same_label(
            self, ray_session):
        ds = self._mk()
        df = (similarity.hard_negative_topk(ds, k=5, n_anchors=4)
              .to_pandas().sort_values(["anchor_id", "rank"])
              .reset_index(drop=True))
        full = ds.to_pandas()
        mat = np.stack(full.embedding.map(
            lambda v: np.asarray(v, np.float64)))
        mat = mat / np.linalg.norm(mat, axis=1, keepdims=True)
        labs = full.label.to_numpy()
        for a in range(4):
            sims = mat @ mat[a]
            cand = [(i, s) for i, s in enumerate(sims)
                    if labs[i] != labs[a]]
            cand.sort(key=lambda t: (-t[1], t[0]))
            want = [i for i, _ in cand[:5]]
            got = df[df.anchor_id == a].sort_values("rank").vec_id.tolist()
            assert got == want
            # same-label rows (including self) never appear
            assert all(labs[i] != labs[a] for i in got)

    def test_partition_invariance(self, ray_session):
        a = (similarity.hard_negative_topk(self._mk(), k=5, n_anchors=4)
             .to_pandas().sort_values(["anchor_id", "rank"])
             .reset_index(drop=True))
        b = (similarity.hard_negative_topk(
                self._mk().repartition(7), k=5, n_anchors=4)
             .to_pandas().sort_values(["anchor_id", "rank"])
             .reset_index(drop=True))
        assert a.equals(b)


class TestAnnRecallEval:
    def test_brute_self_recall_and_differential(self, ray_session):
        """brute scores 1.0 against itself by construction; each
        approximate method's recall equals a local recompute of
        |approx ∩ brute|/k from the underlying result tables (the eval's
        arithmetic is the pin — absolute recall is the LSH/IVF params'
        contract, asserted at kernel level in TestSimilarity)."""
        from mobile_ocr_api_ray.pipelines import analysis as a
        sf = "/root/testdata/sf0.001"
        df = a.ann_recall_eval(sf).to_pandas()
        brute = df[df.method == "brute"]
        assert (brute.recall == 1.0).all()
        assert (brute.n_hits == a.ANN_K).all()
        assert (df.n_hits <= df.n_approx).all()
        assert df.recall.between(0.0, 1.0).all()
        assert len(df) == 3 * df.query_id.nunique()
        truth = a.ann_brute_topk(sf).to_pandas()
        lsh = a.ann_lsh_topk(sf).to_pandas()
        for qid, g in lsh.groupby("query_id"):
            t = set(truth[truth.query_id == qid].vec_id)
            want = len(set(g.vec_id) & t) / a.ANN_K
            got = df[(df.method == "lsh")
                     & (df.query_id == qid)].recall.iloc[0]
            assert got == want


class TestCmsWordCounts:
    def _mk(self, texts):
        import ray.data
        return ray.data.from_arrow(pa.table({
            "doc_id": pa.array(list(range(len(texts))), pa.int64()),
            "text": pa.array(texts, pa.string())}))

    def test_overestimate_guarantee_and_typical_exactness(
            self, ray_session):
        """CMS estimates are ≥ true counts always (one-sided guarantee)
        and exact here (tiny vocab, 4×1024 cells ⇒ no full-depth
        collision among probes)."""
        texts = ["the a the b", "a the c", "", "the"]
        probes = ["the", "a", "zzz-absent"]
        df = (text_analysis.cms_word_counts(self._mk(texts), probes)
              .to_pandas().set_index("word"))
        true = {"the": 4, "a": 2, "zzz-absent": 0}
        for w, t in true.items():
            assert df.est_count[w] >= t
        assert df.est_count["the"] == 4
        assert df.est_count["a"] == 2

    def test_merge_partition_invariance(self, ray_session):
        texts = [f"w{i % 9} common tail" for i in range(60)]
        probes = ["common", "w0", "w8", "tail"]
        a = text_analysis.cms_word_counts(
            self._mk(texts), probes).to_pandas()
        b = text_analysis.cms_word_counts(
            self._mk(texts).repartition(11), probes).to_pandas()
        assert a.equals(b)


class TestGlobalValueRank:
    def _mk(self, vals):
        import ray.data
        return ray.data.from_arrow(pa.table({
            "doc_id": pa.array(list(range(len(vals))), pa.int64()),
            "n_chars": pa.array(vals, pa.int64())}))

    def test_rank_matches_local_sort(self, ray_session):
        vals = [5, 200, 5, 0, 1000, 63, 64, 65, 200]
        df = (text_analysis.global_value_rank(self._mk(vals), "n_chars")
              .to_pandas().sort_values("doc_id").reset_index(drop=True))
        order = sorted(range(len(vals)), key=lambda i: (vals[i], i))
        want = {i: r for r, i in enumerate(order)}
        assert df.rank_idx.tolist() == [want[i] for i in range(len(vals))]
        n = len(vals)
        assert (df.percentile_micro ==
                df.rank_idx * 1_000_000 // n).all()

    def test_partition_invariance(self, ray_session):
        vals = [(i * 37) % 500 for i in range(80)]
        a = (text_analysis.global_value_rank(self._mk(vals), "n_chars")
             .to_pandas().sort_values("doc_id").reset_index(drop=True))
        b = (text_analysis.global_value_rank(
                self._mk(vals).repartition(13), "n_chars")
             .to_pandas().sort_values("doc_id").reset_index(drop=True))
        assert a.equals(b)


class TestNewOpSkew:
    """Hot-key stress for the session-11 ops: one digest owning most of
    the corpus and one rank bucket owning every row must stay linear
    (vectorized group kernels), not O(m²) or driver-bound."""

    def test_soft_dedup_hot_cluster(self, ray_session):
        import ray.data
        n = 30_000
        texts = ["same hot payload"] * (n - 5) + [f"uniq {i}" for i
                                                  in range(5)]
        ds = ray.data.from_arrow(pa.table({
            "doc_id": pa.array(list(range(n)), pa.int64()),
            "text": pa.array(texts, pa.string())})).repartition(8)
        df = dedup.soft_dedup_weights(ds).to_pandas()
        assert len(df) == n
        hot = df[df.cluster_size == n - 5]
        assert len(hot) == n - 5
        assert (hot.weight_micro == 1_000_000 // (n - 5)).all()
        assert (df[df.cluster_size == 1].weight_micro == 1_000_000).all()

    def test_rank_single_bucket(self, ray_session):
        import ray.data
        n = 30_000
        ds = ray.data.from_arrow(pa.table({
            "doc_id": pa.array(list(range(n)), pa.int64()),
            "n_chars": pa.array([7] * n, pa.int64())})).repartition(8)
        df = (text_analysis.global_value_rank(ds, "n_chars").to_pandas()
              .sort_values("doc_id").reset_index(drop=True))
        # all-equal values tie-break by id: rank == doc_id
        assert (df.rank_idx.to_numpy() == np.arange(n)).all()


class TestSampleExactK:
    def test_exact_size_and_membership(self, ray_session):
        """Exactly k rows; membership = the k smallest (hash32(id), id)
        recomputed locally; subset-stability: the sample over a superset
        keeps any member whose hash stays in the top k."""
        from mobile_ocr_api_ray.hashing import hash32
        from mobile_ocr_api_ray.pipelines import analysis as a
        import pyarrow.parquet as pq
        sf = "/root/testdata/sf0.001"
        df = a.sample_exact_k_docs(sf).to_pandas()
        assert len(df) == a.SAMPLE_EXACT_K
        ids = pq.read_table(sf + "/documents.parquet",
                            columns=["doc_id"])["doc_id"].to_pylist()
        want = sorted(sorted(ids, key=lambda i: (hash32(i), i))
                      [:a.SAMPLE_EXACT_K])
        assert df.doc_id.tolist() == want


class TestLangPercentile:
    def test_group_scoped_ranks(self, ray_session):
        from mobile_ocr_api_ray.pipelines import analysis as a
        df = a.lang_percentile_docs("/root/testdata/sf0.001").to_pandas()
        for lang, g in df.groupby("lang"):
            n = len(g)
            assert sorted(g.rank_idx.tolist()) == list(range(n))
            order = g.sort_values(["n_chars", "doc_id"])
            assert (order.rank_idx.to_numpy() == np.arange(n)).all()
            assert (g.percentile_micro ==
                    g.rank_idx * 1_000_000 // n).all()


class TestScriptMix:
    def test_kernel_vectors(self):
        b = pa.table({
            "doc_id": pa.array([1, 2, 3, 4], pa.int64()),
            "text": ["hello Мир 你好 αβ 12", "", None, "你好世界"]})
        t = text_analysis.script_mix(b).to_pandas().set_index("doc_id")
        r1 = t.loc[1]
        assert (r1.n_latin, r1.n_digit, r1.n_cyrillic, r1.n_cjk,
                r1.n_greek, r1.n_space, r1.n_other) == (5, 2, 3, 2, 2, 4, 0)
        assert r1.dominant_script == "latin"
        assert r1.mix_frac_micro == 7 * 1_000_000 // 18
        # empty and null docs: all zero, dominant 'none'
        for i in (2, 3):
            assert t.loc[i].n_chars == 0
            assert t.loc[i].dominant_script == "none"
        assert t.loc[4].dominant_script == "cjk"
        assert t.loc[4].mix_frac_micro == 1_000_000

    def test_first_max_tie_break(self):
        # latin and cyrillic tie -> first in the fixed order wins
        b = pa.table({"doc_id": pa.array([1], pa.int64()),
                      "text": ["abПр"]})
        t = text_analysis.script_mix(b).to_pandas()
        assert t.dominant_script[0] == "latin"

    def test_counts_partition_invariant(self):
        texts = ["ab Пр 你 α 9", "xyz", "", "你你你 δδ"]
        b = pa.table({"doc_id": pa.array(range(4), pa.int64()),
                      "text": texts})
        whole = text_analysis.script_mix(b).to_pandas()
        parts = pd.concat([
            text_analysis.script_mix(b.slice(i, 1)).to_pandas()
            for i in range(4)], ignore_index=True)
        pd.testing.assert_frame_equal(whole, parts)


class TestBowDedup:
    def test_every_cluster_collapses(self, ray_session):
        from mobile_ocr_api_ray.pipelines import analysis as a
        df = a.bow_dedup_docs("/root/testdata/sf0.001").to_pandas()
        # reversed twin shares the multiset -> every cluster has >= 2
        # members, and the canonical id is the original (min) side
        assert (df.n_members >= 2).all()
        assert (df.doc_id < a.DOUBLE_OFFSET).all()
        assert df.bow_hash.is_unique
        # the construction doubles the corpus; clusters halve it back
        assert df.n_members.sum() == 2 * len(
            pd.read_parquet("/root/testdata/sf0.001/documents.parquet"))

    def test_order_insensitive_hash(self):
        import hashlib
        import re
        w = re.compile(r"\w+", re.ASCII)
        def bow(t):
            return hashlib.md5(
                " ".join(sorted(w.findall(t.lower()))).encode()).hexdigest()
        assert bow("alpha beta gamma") == bow("gamma beta alpha")
        assert bow("alpha beta") != bow("alpha beta beta")


class TestFinewebFilter:
    def test_first_fail_priority(self, ray_session):
        from mobile_ocr_api_ray.pipelines import analysis as a
        df = a.fineweb_filter_docs("/root/testdata/sf0.001").to_pandas()
        assert set(df.reason) <= {"word_count", "mean_word_len",
                                  "stopwords", "top_word", "dup_2gram",
                                  "keep"}
        assert (df.keep == (df.reason == "keep")).all()
        # cross-check reasons against the per-flag op on the same corpus
        g = a.gopher_quality_flags("/root/testdata/sf0.001") \
            .to_pandas().set_index("doc_id")
        for _, r in df.head(200).iterrows():
            flags = g.loc[r.doc_id]
            order = [("word_count", "flag_word_count"),
                     ("mean_word_len", "flag_mean_word_len"),
                     ("stopwords", "flag_stopwords"),
                     ("top_word", "flag_top_word"),
                     ("dup_2gram", "flag_dup_2gram")]
            expect = "keep"
            for reason, col in order:
                if not flags[col]:
                    expect = reason
                    break
            assert r.reason == expect


class TestPca:
    def _numpy_pca(self, mat, d_out):
        mean = mat.mean(axis=0)
        cov = (mat - mean).T @ (mat - mean) / len(mat)
        evals, evecs = np.linalg.eigh(cov)
        order = np.argsort(evals)[::-1][:d_out]
        comps = evecs[:, order].T
        for i in range(comps.shape[0]):
            j = int(np.argmax(np.abs(comps[i])))
            if comps[i, j] < 0:
                comps[i] = -comps[i]
        return mean, comps, evals[order]

    def test_differential_vs_numpy(self, ray_session):
        import ray.data
        from mobile_ocr_api_ray.pipelines import analysis as a
        df = a.embedding_pca_docs("/root/testdata/sf0.001").to_pandas()
        emb = pd.read_parquet("/root/testdata/sf0.001/embeddings.parquet")
        mat = np.stack(emb.embedding.to_numpy()).astype(np.float64)
        mean, comps, evals = self._numpy_pca(mat, 8)
        ref = (mat[np.argsort(emb.vec_id.to_numpy())] - mean) @ comps.T
        got = df.sort_values("vec_id")[
            [f"pc_{i}" for i in range(8)]].to_numpy()
        assert df.shape == (len(emb), 9)
        # eigh basis is unique up to rounding when eigenvalues are
        # distinct; sign convention pins the rest
        assert np.all(np.diff(evals) <= 1e-9)
        assert np.allclose(got, ref, atol=1e-8)

    def test_fit_contract(self, ray_session):
        import ray.data
        from mobile_ocr_api_ray.stages import similarity as sim
        emb = pd.read_parquet("/root/testdata/sf0.001/embeddings.parquet")
        ds = ray.data.from_arrow(pa.table({
            "vec_id": pa.array(emb.vec_id, pa.int64()),
            "embedding": pa.array([v.tolist() for v in emb.embedding],
                                  pa.list_(pa.float64()))}))
        mean, comps, evr = sim.pca_fit(ds, d_out=4)
        # orthonormal rows, descending explained variance, evr <= 1
        assert np.allclose(comps @ comps.T, np.eye(4), atol=1e-9)
        assert np.all(np.diff(evr) <= 1e-12)
        assert 0.0 < evr.sum() <= 1.0 + 1e-12
        # sign convention: largest-|coeff| entry positive
        for row in comps:
            assert row[int(np.argmax(np.abs(row)))] > 0

    def test_partition_invariance(self, ray_session):
        import ray.data
        from mobile_ocr_api_ray.stages import similarity as sim
        emb = pd.read_parquet("/root/testdata/sf0.001/embeddings.parquet")
        t = pa.table({
            "vec_id": pa.array(emb.vec_id, pa.int64()),
            "embedding": pa.array([v.tolist() for v in emb.embedding],
                                  pa.list_(pa.float64()))})
        d1 = ray.data.from_arrow(t)
        d2 = ray.data.from_arrow(t).repartition(7)
        p1 = sim.pca_project(d1, 4).to_pandas().sort_values("vec_id")
        p2 = sim.pca_project(d2, 4).to_pandas().sort_values("vec_id")
        cols = [f"pc_{i}" for i in range(4)]
        assert np.allclose(p1[cols].to_numpy(), p2[cols].to_numpy(),
                           atol=1e-8)

    def test_empty_and_nulls(self, ray_session):
        import ray.data
        from mobile_ocr_api_ray.stages import similarity as sim
        empty = ray.data.from_arrow(pa.table({
            "vec_id": pa.array([], pa.int64()),
            "embedding": pa.array([], pa.list_(pa.float64()))}))
        t = sim.pca_project(empty, 3)
        assert t.num_rows == 0
        assert t.column_names == ["vec_id", "pc_0", "pc_1", "pc_2"]
        withnull = ray.data.from_arrow(pa.table({
            "vec_id": pa.array([1, 2, 3], pa.int64()),
            "embedding": pa.array([[1.0, 0.0], None, [0.0, 2.0]],
                                  pa.list_(pa.float64()))}))
        out = sim.pca_project(withnull, 2).to_pandas()
        assert sorted(out.vec_id) == [1, 3]


class TestDupClusterHist:
    def test_buckets_and_mass(self, ray_session):
        from mobile_ocr_api_ray.pipelines import analysis as a
        df = a.dup_cluster_size_hist("/root/testdata/sf0.001").to_pandas()
        n = len(pd.read_parquet("/root/testdata/sf0.001/documents.parquet"))
        # doubled corpus + a third copy for every doc_id%10==0 row
        assert sorted(df.cluster_size) == [2, 3]
        assert (df.n_docs == df.cluster_size * df.n_clusters).all()
        assert df.n_docs.sum() == 2 * n + (n + 9) // 10


class TestHostBlocklist:
    def test_verdict_consistency(self, ray_session):
        from mobile_ocr_api_ray.pipelines import analysis as a
        df = a.host_quality_blocklist("/root/testdata/sf0.001").to_pandas()
        # both branches occur in the synthetic crawl
        assert df.blocked.any() and (~df.blocked).any()
        # every page of a host carries the identical verdict
        per_host = df.groupby("host")[["host_text_permille", "blocked"]] \
            .nunique()
        assert (per_host == 1).all().all()
        # the threshold rule holds at the emitted permille granularity
        assert (df.loc[df.host_text_permille
                       < a.HOST_TEXT_PERMILLE_MIN, "blocked"]).all()
        assert (~df.loc[df.host_text_permille
                        >= a.HOST_TEXT_PERMILLE_MIN, "blocked"]).all()

    def test_broadcast_vs_shuffle_route(self, ray_session):
        from mobile_ocr_api_ray.pipelines import analysis as a
        b = a.host_quality_blocklist("/root/testdata/sf0.001").to_pandas()
        s = a.host_quality_blocklist(
            "/root/testdata/sf0.001", broadcast_cap_rows=0).to_pandas()
        pd.testing.assert_frame_equal(
            b.reset_index(drop=True), s[b.columns].reset_index(drop=True))


class TestFinewebRates:
    def test_rollup_matches_per_doc(self, ray_session):
        from mobile_ocr_api_ray.pipelines import analysis as a
        rates = a.fineweb_filter_rates("/root/testdata/sf0.001") \
            .to_pandas().set_index("reason")
        per_doc = a.fineweb_filter_docs("/root/testdata/sf0.001") \
            .to_pandas()
        counts = per_doc.reason.value_counts()
        n = len(per_doc)
        assert rates.n_docs.sum() == n
        for reason, row in rates.iterrows():
            assert counts[reason] == row.n_docs
            assert row.share_micro == row.n_docs * 1_000_000 // n


class TestLangTtrCorr:
    def test_differential_vs_pandas(self, ray_session):
        from mobile_ocr_api_ray.pipelines import analysis as a
        df = a.lang_ttr_corr("/root/testdata/sf0.001").to_pandas() \
            .set_index("lang")
        docs = pd.read_parquet("/root/testdata/sf0.001/documents.parquet")
        docs["x"] = docs.text.fillna("").str.split().str.len()
        docs["y"] = docs.text.fillna("").str.split() \
            .apply(lambda ws: len(set(ws)))
        for lang, g in docs.groupby("lang"):
            row = df.loc[lang]
            assert row.n_docs == len(g)
            assert row.sum_words == g.x.sum()
            assert row.sum_distinct == g.y.sum()
            if g.x.std() > 0 and g.y.std() > 0:
                assert abs(row.ttr_corr - g.x.corr(g.y)) < 1e-12

    def test_degenerate_group_is_zero(self, ray_session):
        import ray.data
        from mobile_ocr_api_ray.pipelines import analysis as a
        # all-identical counts -> zero variance -> corr pinned to 0.0
        docs = pd.DataFrame({
            "doc_id": [1, 2, 3], "lang": ["zz"] * 3,
            "text": ["a b c", "d e f", "g h i"]})
        import tempfile, os
        with tempfile.TemporaryDirectory() as td:
            docs.to_parquet(os.path.join(td, "documents.parquet"))
            out = a.lang_ttr_corr(td).to_pandas()
        assert out.ttr_corr.tolist() == [0.0]
