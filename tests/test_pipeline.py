"""End-to-end pipeline tests: golden byte-equality, invariance properties,
dedup semantics, navigation over output rows (SURVEY.md §5 items 2-4)."""

import os

import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from mobile_ocr_api_ray.functions.navigation import NavigationView
from mobile_ocr_api_ray.functions.textproc import split_into_sentences
from mobile_ocr_api_ray.pipelines.extract import (
    extract_pipeline,
    extract_pipeline_dedup,
    read_pages,
    summarize_batch,
)
from mobile_ocr_api_ray.functions.textproc import summarize as summarize_fn


def _golden_check(result_df, golden_path):
    golden = pq.read_table(golden_path).to_pandas()
    m = result_df.merge(golden, on="url", suffixes=("", "_g"))
    assert len(m) == len(golden)
    exact = m[m.golden_exact]
    bad = exact[exact.extracted_text != exact.golden_text]
    assert len(bad) == 0, bad[["url", "payload_kind", "extracted_text", "golden_text"]].head()
    # inexact rows (resize-path images) must still be status ok + deterministic
    inexact = m[~m.golden_exact]
    assert (inexact.status == "ok").all()
    return m


@pytest.fixture(scope="module")
def extracted(ray_session, small_corpus):
    ds = read_pages(os.path.join(small_corpus, "pages.parquet"))
    return extract_pipeline(ds).to_pandas()


class TestGolden:
    def test_byte_identical_extraction(self, extracted, small_corpus):
        m = _golden_check(extracted, os.path.join(small_corpus, "golden.parquet"))
        # source provenance matches generation intent
        assert (m[m.source_g == "direct_text"].source == "direct_text").all()
        assert (m[m.source_g == "rejected"].status == "rejected").all()

    def test_confidence_ladder(self, extracted):
        assert (extracted[extracted.source == "direct_text"].confidence == 90.0).all()
        ok_kernel = extracted[(extracted.source == "kernel") & (extracted.status == "ok")]
        assert ((ok_kernel.confidence > 0) & (ok_kernel.confidence <= 100)).all()
        assert (extracted[extracted.status == "rejected"].confidence == 0.0).all()

    def test_summary_gates(self, extracted):
        ok = extracted[extracted.status == "ok"]
        for _, row in ok.head(50).iterrows():
            words = len(row.extracted_text.split())
            if words < 30:
                assert row.summary == row.extracted_text
            else:
                assert row.summary == summarize_fn(row.extracted_text, 0.3, 5)

    def test_total_pages(self, extracted, small_corpus):
        golden = pq.read_table(os.path.join(small_corpus, "golden.parquet")).to_pandas()
        m = extracted.merge(golden, on="url", suffixes=("", "_g"))
        kernel_pdf = m[(m.payload_kind_g == "pdf") & (m.source == "kernel")]
        assert (kernel_pdf.total_pages == kernel_pdf.total_pages_g).all()
        assert (kernel_pdf.total_pages >= 1).all()


class TestInvariance:
    """Extraction output independent of partitioning (SURVEY.md §5 item 3)."""

    def test_partitioning_invariance(self, ray_session, small_corpus, extracted):
        ds = read_pages(os.path.join(small_corpus, "pages.parquet")).repartition(17)
        alt = extract_pipeline(ds).to_pandas()
        a = extracted.sort_values("url").reset_index(drop=True)
        b = alt.sort_values("url").reset_index(drop=True)
        assert (a.extracted_text == b.extracted_text).all()
        assert (a.summary.fillna("") == b.summary.fillna("")).all()
        assert (a.confidence == b.confidence).all()


class TestDedup:
    def test_dedup_matches_direct(self, ray_session, small_corpus, extracted):
        ds = read_pages(os.path.join(small_corpus, "pages.parquet"))
        dd = extract_pipeline_dedup(ds).to_pandas()
        a = extracted.sort_values("url").reset_index(drop=True)
        b = dd.sort_values("url").reset_index(drop=True)
        assert (a.extracted_text == b.extracted_text).all()

    def test_duplicates_share_representative(self, ray_session, small_corpus):
        golden = pq.read_table(os.path.join(small_corpus, "golden.parquet")).to_pandas()
        ds = read_pages(os.path.join(small_corpus, "pages.parquet"))
        dd = extract_pipeline_dedup(ds).to_pandas()
        m = dd.merge(golden, on="url", suffixes=("", "_g"))
        dup_rows = m[m.dup_of.notna() & (m.payload_kind_g.isin(["html", "image", "pdf"]))]
        assert len(dup_rows) > 0
        # every generated duplicate is served from a representative — itself
        # or the shared digest group's first url
        assert dup_rows.dedup_source_url.notna().sum() > 0


class TestNavigation:
    def test_navigation_walk(self, extracted):
        rows = extracted[(extracted.status == "ok") & (extracted.source == "kernel")]
        row = rows[rows.paragraphs.map(len) > 1].iloc[0]
        # kernel paragraphs hold no blank line, so the text splits back into them
        ptexts = row.extracted_text.split("\n\n")
        assert len(ptexts) == len(row.paragraphs)
        nav = NavigationView(row.extracted_text, row.spans, row.paragraphs, row.columns)
        assert nav.current_text("paragraph") == ptexts[0]
        nav.step("paragraph", "next")
        assert nav.current_text("paragraph") == ptexts[1]
        nav.step("paragraph", "goto", 9999)
        assert nav.cursor["paragraph"] == len(row.paragraphs) - 1
        nav.step("paragraph", "goto", 0)
        sent = nav.current_text("sentence")
        assert sent == split_into_sentences(ptexts[0])[0]

    def test_scope_text(self, extracted):
        from mobile_ocr_api_ray.functions.navigation import scope_text
        rows = extracted[(extracted.status == "ok") & (extracted.source == "kernel")]
        row = rows[rows.paragraphs.map(len) > 1].iloc[0]
        structure = (row.extracted_text, row.spans, row.paragraphs, row.columns)
        ptexts = row.extracted_text.split("\n\n")
        # full scope reproduces extracted_text (paragraph join invariant)
        assert scope_text(*structure, "full") == row.extracted_text
        assert scope_text(*structure, "paragraph", 1) == ptexts[1]
        assert scope_text(*structure, "paragraph", 9999) == ptexts[-1]
        col0 = scope_text(*structure, "column", 0)
        ids = row.columns[0]["paragraphs"]
        assert col0 == "\n\n".join(ptexts[i] for i in ids)


class TestSkewAware:
    def test_big_rows_isolated_same_results(self, ray_session, small_corpus):
        """A multi-MB row rides the one extraction path like any other: it
        comes out ok, and the rows it shares the pipeline with extract
        exactly as they do without it."""
        import pyarrow.compute as pc
        import ray
        import ray.data
        from mobile_ocr_api_ray import corpus

        def extract(ds):
            out = pa.concat_tables(ray.get(extract_pipeline(ds).to_arrow_refs()))
            return out.drop_columns(["processing_time_ms"]).sort_by("url")

        base = ray.data.from_arrow(pa.concat_tables(ray.get(
            read_pages(os.path.join(small_corpus, "pages.parquet"))
            .limit(64).to_arrow_refs())))
        # graft one oversized html row (3 MB of real page structure)
        big_html = (b"<html><body>" + b"<p>Huge page sentence here. </p>" * 100000
                    + b"</body></html>")
        big = pa.table({"url": pa.array(["big://1"], pa.string()),
                        "html": pa.array([big_html], pa.binary()),
                        "text": pa.array([None], pa.string()),
                        "lang": pa.array(["en"], pa.string())})
        alone = extract(base)
        mixed = extract(base.union(ray.data.from_arrow(big)))
        is_big = pc.equal(mixed["url"], "big://1")
        assert mixed.filter(is_big)["status"].to_pylist() == ["ok"]
        assert alone.num_rows == 64
        assert mixed.filter(pc.invert(is_big)).equals(alone)
        # the 1000-row pages corpus (the sf0.001 tier's) keeps a payload
        # over 2 MiB
        pages = pq.read_table(os.path.join(
            corpus.ensure_corpus(1000, seed=42), "pages.parquet"),
            columns=["html"])
        assert pc.max(pc.binary_length(pages["html"])).as_py() > 2 << 20


class TestSummarizeStage:
    def test_non_ok_rows_null_summary(self, extracted):
        rej = extracted[extracted.status == "rejected"]
        assert rej.summary.isna().all()
        assert rej.compression_ratio.isna().all()


class TestExtractionEval:
    def test_all_guaranteed_rows_byte_exact(self, ray_session):
        """The north-rule invariant as an aggregate: every golden_exact row
        must extract byte-identically, corpus-wide, for every payload
        kind."""
        from mobile_ocr_api_ray.pipelines import analysis
        df = analysis.extraction_eval("/root/testdata/sf0.001").to_pandas()
        assert (df.n_byte_exact == df.n_guaranteed).all()
        assert df.n_rows.sum() >= 1000
        assert set(df.payload_kind) >= {"html", "image", "pdf"}


class TestTitleBodyPairs:
    def test_pairs_shape(self, ray_session):
        from mobile_ocr_api_ray.pipelines import analysis
        df = analysis.title_body_pairs("/root/testdata/sf0.001").to_pandas()
        assert len(df) > 500                      # most pages are HTML
        assert (df.title.str.len() > 0).all()
        assert (df.body.str.len() > 0).all()
        assert (df.neg_body.str.len() > 0).all()
        # in-batch negative: overwhelmingly different from the positive
        assert (df.body != df.neg_body).mean() > 0.99
        # titles match the independent metadata kernel output
        meta = analysis.page_metadata("/root/testdata/sf0.001").to_pandas()
        m = df.merge(meta, on="url")
        assert (m.title_x == m.title_y).all()

    def test_contrastive_pairs_partition_invariant(self, ray_session):
        # negatives are keyed on crc32(url) % n_buckets with url-sorted
        # bucket rows — a pure function of the data, so the SAME pairs
        # must come out under any physical block layout
        import pyarrow as pa
        import ray.data
        from mobile_ocr_api_ray.pipelines import analysis
        rows = pa.table({
            "url": pa.array([f"https://h{i % 7}.ex/p{i}" for i in range(90)],
                            pa.string()),
            "title": pa.array([f"title {i}" for i in range(90)], pa.string()),
            "extracted_text": pa.array([f"body text {i} " * 3
                                        for i in range(90)], pa.string())})

        import pandas as pd

        def run(n_blocks):
            ds = ray.data.from_arrow(rows).repartition(n_blocks)
            return analysis.contrastive_pairs(ds, 11).to_pandas() \
                .sort_values("url").reset_index(drop=True)

        a, b, c = run(1), run(4), run(13)
        pd.testing.assert_frame_equal(a, b)
        pd.testing.assert_frame_equal(a, c)
        assert len(a) == 90 and (a.body != a.neg_body).all()

    def test_duplicate_bodies_never_emit_neg_eq_pos(self, ray_session):
        # adjacent url-sorted rows sharing a truncated body must DROP,
        # not ship a neg == pos training pair
        import pyarrow as pa
        import ray.data
        from mobile_ocr_api_ray.pipelines import analysis
        rows = pa.table({
            "url": pa.array([f"https://h.ex/p{i}" for i in range(6)],
                            pa.string()),
            "title": pa.array(["t"] * 6, pa.string()),
            "extracted_text": pa.array(
                ["same body"] * 4 + ["other body", "third body"],
                pa.string())})
        df = analysis.contrastive_pairs(
            ray.data.from_arrow(rows), 1).to_pandas()
        assert (df.body != df.neg_body).all()
        # the distinct-body rows still pair up
        assert {"other body", "third body"} <= set(df.body)

    def test_pair_bucket_count_scales(self):
        # bucket size stays ~PAIR_BUCKET_ROWS at ANY corpus size (the
        # round-2 %64 put corpus/64 rows in one pandas group)
        from mobile_ocr_api_ray.pipelines.analysis import (PAIR_BUCKET_ROWS,
                                                           _pair_bucket_count)
        for n in (0, 1, 1999, 2000, 10**6, 10**12):
            nb = _pair_bucket_count(n)
            assert nb >= 1
            assert n / nb <= PAIR_BUCKET_ROWS


class TestExtractionEvalRouting:
    def test_broadcast_and_shuffle_routes_agree(self, ray_session):
        import pandas as pd
        from mobile_ocr_api_ray.pipelines.analysis import extraction_eval
        sf = "/root/testdata/sf0.001"
        bcast = extraction_eval(sf).to_pandas().reset_index(drop=True)
        # cap 0 rows forces the co-partitioned hash_join fallback
        shuf = extraction_eval(sf, broadcast_cap_rows=0) \
            .to_pandas().reset_index(drop=True)
        pd.testing.assert_frame_equal(bcast, shuf)
        assert bcast["n_rows"].sum() > 0
        # the invariant itself: every guaranteed row matched byte-for-byte
        assert (bcast["n_byte_exact"] == bcast["n_guaranteed"]).all()



class TestCorpusTierRace:
    def test_loser_never_deletes_a_committed_tier(self, tmp_path,
                                                  monkeypatch):
        """Interleaving: this process's rename fails on debris without
        ``_DONE``; right after it checks the marker, another process moves
        the debris away and installs a complete tier. The loser must keep
        that tier, not delete it and put its own copy in its place."""
        from mobile_ocr_api_ray import corpus

        base = str(tmp_path)
        d = os.path.join(base, f"v{corpus.CORPUS_VERSION}_n16_s3")
        os.makedirs(os.path.join(d, "pages.parquet"))  # debris: no _DONE
        marker = os.path.join(d, "_DONE")
        real_rename, real_exists = os.rename, os.path.exists
        state = {"tried": False, "installed": False}

        def rename(src, dst):
            if dst == d and ".tmp." in src:
                state["tried"] = True
            return real_rename(src, dst)

        def exists(path):
            found = real_exists(path)
            if path == marker and state["tried"] and not state["installed"]:
                state["installed"] = True  # the other process wins here
                real_rename(d, os.path.join(base, "other-debris"))
                os.makedirs(d)
                for name in ("_DONE", "winner"):
                    open(os.path.join(d, name), "w").close()
            return found

        monkeypatch.setattr(os, "rename", rename)
        monkeypatch.setattr(os.path, "exists", exists)
        assert corpus.ensure_corpus(16, seed=3, base=base) == d
        monkeypatch.undo()
        assert state["installed"]
        assert os.path.exists(os.path.join(d, "winner"))
        assert sorted(os.listdir(base)) == sorted(
            [os.path.basename(d), "other-debris"])

    def test_racing_processes_share_one_complete_tier(self, tmp_path):
        """Four processes race on a tier with debris in the way: each
        returns the tier dir, which ends complete, with no temp dir left."""
        import multiprocessing

        from mobile_ocr_api_ray import corpus

        base = str(tmp_path)
        d = os.path.join(base, f"v{corpus.CORPUS_VERSION}_n16_s3")
        os.makedirs(os.path.join(d, "pages.parquet"))  # debris: no _DONE
        with multiprocessing.get_context("spawn").Pool(4) as pool:
            got = pool.starmap_async(corpus.ensure_corpus,
                                     [(16, 3, base)] * 4).get(timeout=120)
        assert got == [d] * 4
        assert os.path.exists(os.path.join(d, "_DONE"))
        assert pq.read_table(os.path.join(d, "golden.parquet")).num_rows == 16
        assert not [n for n in os.listdir(base) if ".tmp." in n]
