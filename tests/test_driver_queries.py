"""Smoke + shape checks for the driver-contract queries added beyond the
SQL-oracled set: pages explode, structure rollup, multimodal stages.

These are the rows-only-checked entries — the tests pin their schemas and
the invariants the driver can't see (page coverage, frame stride, decode
status mix, DSP values on known signals).
"""

import math
import os
import sys

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

SF = "/root/testdata/sf0.001"
ONE_CPU_TIMEOUT_S = 180


@pytest.fixture(scope="module")
def queries(ray_session):
    import __ray_entry__ as e
    return e.queries()


class TestPagesQueries:
    def test_pdf_page_rows(self, queries):
        df = queries["pdf_page_rows"](SF).to_pandas()
        assert list(df.columns) == ["url", "page", "total_pages", "page_bytes"]
        # every multi-page doc contributes exactly total_pages rows, 0..n-1
        multi = df[df.total_pages > 1]
        assert len(multi) > 0
        for url, g in multi.groupby("url"):
            assert sorted(g.page.tolist()) == list(range(int(g.total_pages.iloc[0])))
        # single-page passthrough keeps page 0
        single = df[df.total_pages == 1]
        assert (single.page == 0).all()

    def test_authority_filtered_pages(self, queries):
        df = queries["authority_filtered_pages"](SF).to_pandas()
        assert list(df.columns) == ["url", "host", "pr_int"]
        assert len(df) > 0
        # ≤ 16 distinct hosts, all with positive integer rank
        assert df.host.nunique() <= 16
        assert (df.pr_int > 0).all()
        # every kept url actually lives on its claimed host
        from mobile_ocr_api_ray.stages import crawl
        got_hosts = crawl.host_of(pa.array(df.url.tolist())).to_pylist()
        assert got_hosts == df.host.tolist()
        # the kept hosts are exactly the top-ranked CRAWLED hosts: no
        # kept host may rank below an unkept crawled host
        pr = queries["host_pagerank_int"](SF)
        pr = pr.to_pandas() if hasattr(pr, "to_pandas") else pr
        crawled = set(got_hosts) | set(
            h for h in crawl.host_of(pa.array(
                queries["page_metadata"](SF).to_pandas().url.tolist()
            )).to_pylist() if h)
        ranked = pr[pr.node.isin(crawled)].sort_values(
            ["pr_int", "node"], ascending=[False, True])
        kept = set(df.host)
        top = ranked.head(16)
        assert kept <= set(top.node)

    def test_doc_structure_stats(self, queries):
        df = queries["doc_structure_stats"](SF).to_pandas()
        ok = df[df.status == "ok"]
        assert len(ok) > 0
        # spans cover paragraphs + sentences for rows that have structure
        has = ok[ok.n_paragraphs > 0]
        assert (has.n_spans == has.n_paragraphs + has.n_sentences).all()
        assert (has.n_columns >= 1).all()
        assert (has.n_sentences >= has.n_paragraphs).all()


class TestMultimodalQueries:
    def test_image_meta(self, queries):
        df = queries["image_meta"](SF).to_pandas()
        ok = df[df.status == "ok"]
        bad = df[df.status != "ok"]
        assert len(ok) > 0 and len(bad) > 0  # mixed corpus → row isolation
        assert (ok.codec == "imgx").all()
        assert (ok.width > 0).all() and (ok.height > 0).all()
        assert ok.mean_intensity.between(0, 255).all()

    def test_frame_samples(self, queries):
        df = queries["frame_samples"](SF).to_pandas()
        assert len(df) > 0
        assert (df.frame_idx % 2 == 0).all()  # every_nth=2 stride
        assert (df.frame_bytes > 0).all()
        for url, g in df.groupby("url"):
            total = int(g.total_frames.iloc[0])
            assert sorted(g.frame_idx.tolist()) == list(range(0, total, 2))

    def test_audio_features(self, queries):
        df = queries["audio_features"](SF).to_pandas()
        assert (df.status == "ok").all()
        assert np.allclose(df.duration_s, 0.25)  # 4000 samples @ 16 kHz
        # full-scale sine → rms ≈ amplitude/sqrt(2) (int16 quantized)
        assert np.allclose(df.rms, 10000 / math.sqrt(2), rtol=0.02)
        assert (df.zero_crossings > 0).all()

    def test_map_stages_finish_on_one_cpu(self):
        """Every map stage runs as plain tasks, so these queries finish on
        a 1-CPU session: the stateless multimodal stages and the stages
        that carry driver-built state (query matrix, knn index, Naive
        Bayes model). A fixed actor pool there reserved the CPU the reads
        need, and the queries never finished. Own Ray session in a child
        process group, killed whole on timeout."""
        import json
        import signal
        import subprocess
        import time

        script = (
            "import json, ray\n"
            "ray.init(address='local', num_cpus=1, include_dashboard=False,"
            " logging_level='ERROR')\n"
            "import pyarrow as pa\n"
            "from mobile_ocr_api_ray.pipelines import analysis as a\n"
            "def rows(r):\n"
            "    return r.num_rows if isinstance(r, pa.Table) else r.count()\n"
            "print(json.dumps({q: rows(getattr(a, q)(%r)) for q in"
            " ('image_meta', 'image_dhash_dups', 'audio_features',"
            " 'ann_brute_topk', 'ann_quantized_topk', 'knn_graph_topk',"
            " 'mmr_diverse_sample', 'nb_source_predictions')}))\n"
            "ray.shutdown()\n" % SF)
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        t0 = time.monotonic()
        p = subprocess.Popen([sys.executable, "-c", script], cwd=root,
                             stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                             text=True, start_new_session=True)
        try:
            out, _ = p.communicate(timeout=ONE_CPU_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            os.killpg(p.pid, signal.SIGKILL)
            p.communicate()
            pytest.fail(f"map-stage queries unfinished after "
                        f"{ONE_CPU_TIMEOUT_S} s on a 1-CPU session")
        finally:
            try:
                os.killpg(p.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        print(f"1-CPU child finished in {time.monotonic() - t0:.1f} s")
        assert p.returncode == 0
        counts = json.loads(out.strip().splitlines()[-1])
        assert all(n > 0 for n in counts.values()), counts


class TestCorpusScoringQueries:
    def test_unigram_logprob(self, queries):
        df = queries["unigram_logprob"](SF).to_pandas()
        tc = queries["token_counts"](SF).to_pandas()
        # same \w+ tokenizer as token_counts — cross-operator consistency
        m = df.merge(tc, on="doc_id")
        assert (m.n_tokens_x == m.n_tokens_y).all()
        pos = df[df.n_tokens > 0]
        assert (pos.avg_surprisal > 0).all()
        assert (df.n_oov <= df.n_tokens).all()
        # vocab covers the corpus head: most tokens are in-vocab
        assert df.n_oov.sum() < df.n_tokens.sum()

    def test_bigram_surprisal_differential(self, queries):
        """Pure-python restatement of the class-bigram add-one model on a
        synthetic corpus with OOV tokens, a short doc and an empty doc."""
        import math

        import ray.data
        from mobile_ocr_api_ray.pipelines.analysis import _bigram_surprisal

        texts = ["the cat sat on the mat", "the dog sat on the log",
                 "one", "", "zz yy zz the cat"]
        ds = ray.data.from_arrow(pa.table({
            "doc_id": pa.array(range(len(texts)), pa.int64()),
            "text": pa.array(texts, pa.string())}))
        k = 4  # tiny vocab so OOV classes are exercised
        got = _bigram_surprisal(ds, vocab_k=k).to_pandas()

        # restate: vocab = top-k by (n desc, word asc)
        from collections import Counter
        uni = Counter(w for t in texts for w in t.lower().split())
        vocab = {w for w, _ in sorted(uni.items(),
                                      key=lambda kv: (-kv[1], kv[0]))[:k]}
        V = len(vocab) + 1
        cls = lambda w: w if w in vocab else "#oov"
        big = Counter()
        for t in texts:
            c = [cls(w) for w in t.lower().split()]
            big.update(zip(c, c[1:]))
        first = Counter()
        for (a, _), n in big.items():
            first[a] += n
        for i, t in enumerate(texts):
            c = [cls(w) for w in t.lower().split()]
            pairs = list(zip(c, c[1:]))
            sum_q = sum(
                math.floor(-math.log((big[p] + 1) / (first[p[0]] + V))
                           * 1_000_000) for p in pairs)
            row = got[got.doc_id == i].iloc[0]
            assert row.n_bigrams == len(pairs)
            assert row.surprisal_micro_nats == sum_q
            assert row.avg_surprisal == sum_q / (max(len(pairs), 1) * 1e6)

    def test_bigram_surprisal_partition_invariance(self, queries):
        import ray.data
        from mobile_ocr_api_ray.pipelines.analysis import _bigram_surprisal

        texts = [f"alpha beta w{i % 7} gamma w{i % 3} delta" for i in
                 range(60)]
        t = pa.table({"doc_id": pa.array(range(60), pa.int64()),
                      "text": pa.array(texts, pa.string())})
        a = _bigram_surprisal(
            ray.data.from_arrow(t), vocab_k=5).to_pandas()
        b = _bigram_surprisal(
            ray.data.from_arrow(t).repartition(13), vocab_k=5).to_pandas()
        pd.testing.assert_frame_equal(a, b)

    def test_bigram_surprisal_query(self, queries):
        df = queries["bigram_surprisal"](SF).to_pandas()
        tc = queries["token_counts"](SF).to_pandas()
        m = df.merge(tc, on="doc_id")
        # n_bigrams = max(n_tokens - 1, 0): same \w+ tokenizer
        assert (m.n_bigrams == np.maximum(m.n_tokens - 1, 0)).all()
        pos = df[df.n_bigrams > 0]
        assert (pos.avg_surprisal > 0).all()
        assert df.surprisal_micro_nats.dtype == np.int64

    def test_int_quantile_disc_vs_duckdb_rule(self, queries):
        """The generic histogram-refinement quantile returns exactly
        sorted[max(ceil(q·n)−1, 0)] on adversarial shapes: ties at the
        cut, negatives straddling bin boundaries, single element."""
        import ray.data
        from mobile_ocr_api_ray.pipelines.analysis import _int_quantile_disc

        rng = np.random.default_rng(5)
        for vals in (
                rng.integers(-10**9, 10**9, 501),
                np.repeat([7, 7, 7, 65536, 65537], 20),
                np.array([42]),
                np.arange(99) - 50,
        ):
            vals = vals.astype(np.int64)
            ds = ray.data.from_arrow(pa.table(
                {"x": pa.array(vals, pa.int64())})).repartition(7) \
                .materialize()
            qs = (1 / 3, 2 / 3, 0.5, 0.99)
            got = _int_quantile_disc(ds, "x", qs)
            sv = np.sort(vals)
            for q, g in zip(qs, got):
                idx = max(int(np.ceil(q * len(sv))) - 1, 0)
                assert g == sv[idx], (q, vals[:5])

    def test_int_quantile_disc_empty(self, queries):
        import ray.data
        from mobile_ocr_api_ray.pipelines.analysis import _int_quantile_disc
        ds = ray.data.from_arrow(pa.table(
            {"x": pa.array([], pa.int64())})).materialize()
        assert _int_quantile_disc(ds, "x", (0.5,)) == [None]

    def test_perplexity_buckets_query(self, queries):
        df = queries["perplexity_buckets"](SF).to_pandas()
        bs = queries["bigram_surprisal"](SF).to_pandas()
        m = df.merge(bs, on="doc_id")
        # avg_micro is the floor-division restatement of the float avg
        expect = (m.surprisal_micro_nats
                  // np.maximum(m.n_bigrams_x, 1)).astype(np.int64)
        assert (m.avg_micro == expect).all()
        # terciles: each bucket holds ≥ ~1/4 of docs (ties can skew)
        counts = df.bucket.value_counts()
        assert set(counts.index) <= {"head", "middle", "tail"}
        assert (counts >= len(df) // 4).all()
        # buckets are ordered by avg_micro: max(head) <= min(tail)
        assert (df[df.bucket == "head"].avg_micro.max()
                <= df[df.bucket == "tail"].avg_micro.min())

    def test_source_overlap_matrix(self, queries):
        df = queries["source_overlap_matrix"](SF)
        df = df.to_pandas() if hasattr(df, "to_pandas") else df
        assert (df.source_a < df.source_b).all()
        assert (df.n_shared <= df[["n_a", "n_b"]].min(axis=1)).all()
        assert df.jaccard.between(0, 1).all()
        expect = (df.n_shared / (df.n_a + df.n_b - df.n_shared))
        assert np.allclose(df.jaccard, expect)


class TestHeavyHittersAndIncremental:
    def test_heavy_hitters_match_exact(self, queries):
        hh = queries["heavy_hitter_words"](SF).to_pandas()
        import pandas as pd
        from mobile_ocr_api_ray.pipelines.analysis import (
            heavy_hitter_words, word_freq_top)
        exact = word_freq_top(SF).to_pandas()
        pd.testing.assert_frame_equal(hh.reset_index(drop=True),
                                      exact.reset_index(drop=True))
        # under heavy eviction the pool may miss tail words, but pass-2
        # counts for whatever IS reported stay exact
        low = heavy_hitter_words(SF, k=20, capacity=25,
                                 candidates=30).to_pandas()
        m = low.merge(exact, on="word", suffixes=("_lo", "_ex"))
        assert (m.n_lo == m.n_ex).all()

    def test_incremental_dedup_semantics(self, queries):
        import hashlib

        import pandas as pd
        import pyarrow.parquet as pq
        from mobile_ocr_api_ray.pipelines.analysis import (DOUBLE_OFFSET,
                                                           _hash_keep)
        out = queries["incremental_dedup"](SF)
        out = out.to_pandas() if hasattr(out, "to_pandas") else out
        base = pq.read_table(SF + "/documents.parquet",
                             columns=["doc_id", "text"]).to_pandas()
        clone = base.assign(doc_id=base.doc_id + DOUBLE_OFFSET)
        d = pd.concat([base, clone], ignore_index=True)
        d["digest"] = [hashlib.md5((t or "").encode()).hexdigest()
                       for t in d.text]
        d["is_old"] = [_hash_keep(i, 50) for i in d.doc_id]
        old = set(d[d.is_old].digest)
        new = d[~d.is_old]
        surv = new[~new.digest.isin(old)].sort_values("doc_id") \
                                         .drop_duplicates("digest")
        expect = surv.sort_values("doc_id")[["doc_id", "digest"]] \
                     .reset_index(drop=True)
        pd.testing.assert_frame_equal(
            out.reset_index(drop=True), expect)
        assert 0 < len(out) < len(new)  # both gates really fired


class TestMixNormalizeBloom:
    def test_mixed_sample(self, queries):
        df = queries["mixed_sample_docs"](SF).to_pandas()
        import pyarrow.parquet as pq
        total = pq.ParquetFile(SF + "/documents.parquet").metadata.num_rows
        assert 0 < len(df) < total  # a real subsample
        # every source is represented and none dominates
        per = df.groupby("source").size()
        assert per.min() > 0

    def test_normalize(self, queries):
        df = queries["normalize_docs"](SF).to_pandas()
        assert (df.norm_text.str.lower() == df.norm_text).all()
        assert not df.norm_text.str.contains("  ").any()
        assert (df.n_removed_chars >= 0).all()

    def test_bloom_superset_of_exact(self, queries):
        bloom = queries["bloom_decontaminate_docs"](SF).to_pandas()
        exact = queries["decontaminate_docs"](SF).to_pandas()
        m = bloom.merge(exact, on="doc_id")
        # one-sided: the filter can only overcount, never miss
        assert (m.n_maybe_hits >= m.n_hits).all()
        assert (m.contaminated_maybe | ~m.contaminated).all()
        # and at 16 KB / tiny benchmark it should be near-exact
        fp = (m.contaminated_maybe & ~m.contaminated).mean()
        assert fp < 0.1


def test_packed_sequence_texts(queries):
    import pyarrow.parquet as pq
    out = queries["packed_sequence_texts"](SF)
    df = out.to_pandas() if hasattr(out, "to_pandas") else out
    total = pq.ParquetFile(SF + "/documents.parquet").metadata.num_rows
    assert df.n_docs.sum() == total           # every doc lands in one seq
    assert list(df.seq_id) == sorted(df.seq_id)
    assert (df.n_docs > 0).all()
    # members concatenate in doc order: plan agreement with packed_sequences
    plan = queries["packed_sequences"](SF)
    plan = plan.to_pandas() if hasattr(plan, "to_pandas") else plan
    per_seq = plan.groupby("seq_id").size()
    assert per_seq.reindex(df.seq_id).to_numpy().tolist() == \
        df.n_docs.tolist()


def test_chunk_docs_coverage(queries):
    import pandas as pd
    df = queries["chunk_docs"](SF).to_pandas()
    docs = pd.read_parquet(SF + "/documents.parquet",
                           columns=["doc_id", "text"])
    docs["text"] = docs.text.fillna("")
    # stride-80 prefixes of consecutive chunks reconstruct the document
    rec = df.sort_values(["doc_id", "chunk_idx"]).groupby("doc_id") \
            .apply(lambda g: "".join(
                [t[:80] for t in g.chunk_text[:-1]] +
                [g.chunk_text.iloc[-1]]), include_groups=False)
    m = docs.set_index("doc_id").join(rec.rename("rec"), how="left")
    nonempty = m[m.text.str.len() > 0]
    assert (nonempty.text == nonempty.rec).all()
    assert (df.n_chars <= 120).all() and (df.n_chars > 0).all()
    # empty docs yield no chunks
    assert set(df.doc_id) == set(docs[docs.text.str.len() > 0].doc_id)


def test_train_val_test_split(queries):
    df = queries["train_val_test_split"](SF).to_pandas()
    frac = df.split.value_counts(normalize=True)
    assert 0.85 < frac.get("train", 0) < 0.95
    assert 0.01 < frac.get("val", 0) < 0.10
    assert 0.01 < frac.get("test", 0) < 0.10
    # membership is a pure function of doc_id: agrees with sample rule
    from mobile_ocr_api_ray.pipelines.analysis import _hash32
    lo, hi = (1 << 32) * 90 // 100, (1 << 32) * 95 // 100
    for _, r in df.sample(50, random_state=0).iterrows():
        h = _hash32(r.doc_id)
        assert r.split == ("train" if h < lo else
                           "val" if h < hi else "test")


class TestUnknownPayloadQuarantine:
    def test_rejected_rows_surface_through_extract_pages(self, queries):
        """S2 end to end at the QUERY surface: every corpus row whose
        payload sniffs empty/unknown must come out of extract_pages as a
        status='rejected' quarantine DATA row (zero confidence, no text,
        no summary) — exactly the rows the generation-time golden table
        marked 'rejected', never silently dropped."""
        import pyarrow.parquet as pq

        from mobile_ocr_api_ray.pipelines.analysis import _pages_dir_for

        df = queries["extract_pages"](SF).to_pandas()
        golden = pq.read_table(
            os.path.join(_pages_dir_for(SF), "golden.parquet"),
            columns=["url", "source"]).to_pandas()
        want = set(golden[golden.source == "rejected"].url)
        assert want, "corpus must contain degenerate payload rows"
        rej = df[df.status == "rejected"]
        assert set(rej.url) == want
        assert set(rej.payload_kind) <= {"empty", "unknown"}
        assert (rej.confidence == 0.0).all()
        assert (rej.extracted_text.fillna("") == "").all()
        assert rej.summary.isna().all()
        # and nothing was dropped: one output row per corpus page
        assert len(df) == len(golden)


class TestC4CleanQuery:
    def test_all_statuses_exercised(self, queries):
        df = queries["c4_clean_docs"](SF).to_pandas()
        statuses = set(df.status.unique())
        # the doc_id % 16 graft guarantees every quarantine branch occurs
        assert {"kept", "dropped_short", "dropped_brace",
                "dropped_lorem"} <= statuses
        kept = df[df.status == "kept"]
        assert (kept.n_kept >= 3).all()
        assert kept.clean_text.str.len().gt(0).all()
        dropped = df[df.status != "kept"]
        assert (dropped.clean_text == "").all()


class TestQualityDedupKeptQuery:
    def test_winners_on_both_sides(self, queries):
        df = queries["quality_dedup_kept_doubled"](SF).to_pandas()
        # one kept row per canonical cluster, digest unique
        assert df.digest.is_unique
        # the even/odd twin mutations force winners on BOTH sides
        assert set(df.source.unique()) == {"original", "twin"}
        # degraded twins (even base ids) must never win: every kept twin
        # comes from an odd base id (the punct-stripped, higher-quality one)
        twin_base = df.loc[df.source == "twin", "doc_id"] - 1_000_000
        assert (twin_base % 2 == 1).all()


class TestEncodingQcQuery:
    def test_all_statuses_and_clean_majority(self, queries):
        df = queries["encoding_qc_docs"](SF).to_pandas()
        counts = df.status.value_counts()
        assert {"clean", "mojibake", "has_replacement",
                "has_ctrl"} <= set(counts.index)
        # 4 of 8 residue classes untouched -> clean is the majority
        assert counts["clean"] == (df.doc_id % 8 >= 4).sum()


class TestMooreLewisQuery:
    def test_out_model_equals_bigram_surprisal(self, queries):
        """The general-corpus side of Moore-Lewis IS bigram_surprisal's
        model (same fit corpus, same scoring) — exact int64 equality."""
        ml = queries["moore_lewis_docs"](SF).to_pandas()
        bs = queries["bigram_surprisal"](SF).to_pandas()
        m = ml.merge(bs, on="doc_id")
        assert (m.out_micro_nats == m.surprisal_micro_nats).all()
        assert (m.n_bigrams_x == m.n_bigrams_y).all()

    def test_delta_avg_and_median_keep(self, queries):
        ml = queries["moore_lewis_docs"](SF).to_pandas()
        assert (ml.delta_micro
                == ml.in_micro_nats - ml.out_micro_nats).all()
        # avg is a FLOOR division (negative deltas round toward -inf)
        expect = (ml.delta_micro
                  // np.maximum(ml.n_bigrams, 1)).astype(np.int64)
        assert (ml.avg_delta_micro == expect).all()
        assert ml.delta_micro.dtype == np.int64
        # keep = below-median half under the quantile_disc rank rule
        sv = np.sort(ml.avg_delta_micro.to_numpy())
        med = sv[max(math.ceil(0.5 * len(sv)) - 1, 0)]
        assert (ml.keep == (ml.avg_delta_micro <= med)).all()
        assert ml.keep.sum() >= len(ml) // 2

    def test_selection_direction(self, queries):
        """In-domain (src0) docs must score BELOW out-of-domain docs on
        average — the whole point of cross-entropy-difference selection."""
        ml = queries["moore_lewis_docs"](SF).to_pandas()
        src = pd.read_parquet(os.path.join(SF, "documents.parquet"),
                              columns=["doc_id", "source"])
        m = ml.merge(src, on="doc_id")
        is_in = m.source == "src0"
        assert is_in.any() and (~is_in).any()
        assert (m.loc[is_in, "avg_delta_micro"].mean()
                < m.loc[~is_in, "avg_delta_micro"].mean())
        # and the kept half is enriched in target-domain docs
        assert (m.loc[m.keep, "source"] == "src0").mean() \
            >= is_in.mean()

    def test_missing_target_source_degenerates_cleanly(self, ray_session):
        """No in-domain docs: the in-model collapses to the cold formula
        (V = 1 → every pair scores 0 micro-nats); keep is still the
        below-median half and nothing crashes."""
        from mobile_ocr_api_ray.pipelines import analysis as a
        df = a.moore_lewis_docs(SF, target_source="zz_no_such").to_pandas()
        assert (df.in_micro_nats == 0).all()
        assert (df.delta_micro == -df.out_micro_nats).all()
        assert df.keep.sum() >= len(df) // 2


class TestBm25Query:
    def test_python_restatement(self, queries):
        """Full pure-python BM25 over the corpus must reproduce the
        engine's top-50 exactly (ids, int64 micro scores, order)."""
        import re
        from collections import Counter

        got = queries["bm25_top_docs"](SF).to_pandas()
        docs = pd.read_parquet(os.path.join(SF, "documents.parquet"),
                               columns=["doc_id", "text"])
        tok = re.compile(r"\w+", re.ASCII)
        toks = {int(r.doc_id):
                tok.findall((r.text if isinstance(r.text, str) else "")
                            .lower())
                for r in docs.itertuples()}
        uni = Counter(w for t in toks.values() for w in t)
        total = sum(uni.values())
        n_docs = len(docs)
        vocab = sorted(uni.items(), key=lambda kv: (-kv[1], kv[0]))
        qterms = [w for w, _ in vocab[10:20]]
        qset = set(qterms)
        df_t = Counter(w for t in toks.values() for w in set(t) & qset)
        avgdl = float(total) / float(n_docs)
        idf = {t: math.log(1.0 + (float(n_docs - df_t[t]) + 0.5)
                           / (float(df_t[t]) + 0.5)) for t in qterms}
        scores = {}
        for did, t in toks.items():
            c = Counter(w for w in t if w in qset)
            if not c:
                continue
            s = 0
            for w, tf in c.items():
                tfw = float(tf)
                v = idf[w] * ((tfw * 2.2)
                              / (tfw + 1.2 * ((1.0 - 0.75)
                                              + 0.75 * (len(t) / avgdl)))) \
                    * 1000000.0
                s += math.floor(v)
            scores[did] = (s, len(c))
        top = sorted(scores.items(), key=lambda kv: (-kv[1][0], kv[0]))[:50]
        assert list(got.doc_id) == [d for d, _ in top]
        assert list(got.score_micro) == [s for _, (s, _) in top]
        assert list(got.n_terms) == [n for _, (_, n) in top]

    def test_shape_and_order(self, queries):
        got = queries["bm25_top_docs"](SF).to_pandas()
        assert list(got.columns) == ["doc_id", "n_terms", "score_micro",
                                     "score"]
        assert len(got) <= 50 and len(got) > 0
        assert got.score_micro.dtype == np.int64
        assert (got.score == got.score_micro / 1e6).all()
        assert got.n_terms.between(1, 10).all()
        key = list(zip(-got.score_micro, got.doc_id))
        assert key == sorted(key)


def test_host_split_pages(queries):
    df = queries["host_split_pages"](SF).to_pandas()
    assert list(df.columns) == ["url", "host", "split"]
    # the leakage guarantee: every host maps to exactly ONE split
    assert (df.groupby("host").split.nunique() == 1).all()
    assert set(df.split) <= {"train", "val", "test"}
    # membership is a pure function of the host string (split-hash rule)
    from mobile_ocr_api_ray.pipelines.analysis import _hash32
    lo, hi = (1 << 32) * 90 // 100, (1 << 32) * 95 // 100
    for _, r in df.drop_duplicates("host").iterrows():
        h = _hash32(r.host)
        assert r.split == ("train" if h < lo else
                           "val" if h < hi else "test")
    # host is the crawl host_of of the url (null → "")
    from mobile_ocr_api_ray.stages.crawl import host_of
    hosts = host_of(pa.array(df.url.tolist())).to_pylist()
    assert df.host.tolist() == ["" if h is None else h for h in hosts]


class TestCurationRecipe:
    """The end-to-end curation recipe: lineage-manifest invariants plus a
    full value differential against the composed DuckDB oracle (extraction
    resolved through the golden table)."""

    @pytest.fixture(scope="class")
    def manifest(self, queries):
        return queries["curation_recipe"](SF).to_pandas().set_index("stage")

    def test_stage_chain_is_consistent(self, manifest):
        m = manifest
        n = m.loc["read_pages"].rows_in
        assert m.loc["read_pages"].rows_out == n
        # each gate's rows_in equals the previous stage's rows_out
        chain = ["read_pages", "url_filter", "extract_checkpoint",
                 "payload_gate", "exact_dedup", "near_dedup", "c4_gate",
                 "gopher_gate", "host_split"]
        for prev, cur in zip(chain, chain[1:]):
            assert m.loc[cur].rows_in == m.loc[prev].rows_out, (prev, cur)
        # monotone non-increasing survivors; every content stage really
        # fires at this tier (v9 corpus grafts NEAR-duplicates — base
        # page + one appended paragraph — so the near-dedup stage drops
        # rows end to end, not just in unit tests)
        assert m.loc["payload_gate"].rows_out < m.loc["payload_gate"].rows_in
        assert m.loc["exact_dedup"].rows_out < m.loc["exact_dedup"].rows_in
        assert m.loc["near_dedup"].rows_out < m.loc["near_dedup"].rows_in
        assert m.loc["c4_gate"].rows_out < m.loc["c4_gate"].rows_in
        assert m.loc["gopher_gate"].rows_out < m.loc["gopher_gate"].rows_in

    def test_pack_and_shards(self, manifest):
        m = manifest
        n_train = m.loc["pack_plan"].rows_in
        assert m.loc["export"].rows_in == n_train
        shards = m[m.index.str.startswith("export_shard_")]
        assert shards.rows_out.sum() == n_train
        assert (shards.digest.str.len() == 32).all()
        assert shards.digest.nunique() == len(shards)
        # text moves through exactly ONE exchange in the whole chain
        assert m.text_exchanges.sum() == 1
        assert m.loc["export"].text_exchanges == 1

    def test_value_exact_vs_composed_oracle(self, queries, manifest):
        import duckdb
        import __ray_entry__ as e
        os.environ["GRAFT_SF_DIR"] = SF
        sql = e.oracle_sql()["curation_recipe"]
        odf = duckdb.connect().execute(sql).df().set_index("stage")
        m = manifest
        assert list(m.index) == list(odf.index)
        for col in ("stage_idx", "rows_in", "rows_out", "text_exchanges"):
            assert m[col].astype("int64").tolist() == \
                odf[col].astype("int64").tolist(), col
        assert m.digest.tolist() == odf.digest.tolist()

    def test_resume_skips_extraction_pass(self, queries, manifest):
        """resume=True over a committed checkpoint must skip pass 0 (the
        checkpoint parts stay byte-identical, mtimes untouched) and still
        produce the identical manifest; after a partial pass 0 (half the
        partitions lost their part and manifest) a resume redoes exactly
        the missing partitions."""
        import glob
        import json
        from mobile_ocr_api_ray.pipelines.recipe import curation_recipe
        wd = "/tmp/recipe_resume_test"
        m1 = curation_recipe(SF, work_dir=wd).to_pandas()
        parts = sorted(glob.glob(os.path.join(wd, "checkpoint", "*")))
        stamps = [os.path.getmtime(p) for p in parts]
        m2 = curation_recipe(SF, work_dir=wd, resume=True).to_pandas()
        pd.testing.assert_frame_equal(m1, m2)
        assert [os.path.getmtime(p) for p in parts] == stamps
        # partial pass 0: drop the part and manifest of every other
        # partition; only those are rewritten, with the same content
        ckpt = os.path.join(wd, "checkpoint")
        files = sorted(glob.glob(os.path.join(ckpt, "part-*.parquet"))
                       + glob.glob(os.path.join(ckpt, "_manifest", "*")))
        before = {f: os.stat(f).st_mtime_ns for f in files}
        digests = {f: json.load(open(f))["content_digest"]
                   for f in files if f.endswith(".json")}
        lost = {f"part-{pid:05d}" for pid in range(0, len(digests), 2)}
        assert 0 < len(lost) < len(digests)
        for f in files:
            if os.path.basename(f).split(".")[0] in lost:
                os.remove(f)
        m3 = curation_recipe(SF, work_dir=wd, resume=True).to_pandas()
        pd.testing.assert_frame_equal(m1, m3)
        assert sorted(glob.glob(os.path.join(ckpt, "part-*.parquet"))
                      + glob.glob(os.path.join(ckpt, "_manifest", "*"))) \
            == files
        rewritten = {os.path.basename(f).split(".")[0] for f in files
                     if os.stat(f).st_mtime_ns != before[f]}
        assert rewritten == lost
        assert {f: json.load(open(f))["content_digest"]
                for f in digests} == digests

    def test_resume_over_earlier_format_work_dir(self, queries, manifest,
                                                 tmp_path):
        """A work dir in the earlier checkpoint format (Ray write_parquet
        parts and a _CKPT_DONE marker, no manifests) resumes to the
        identical manifest: pass 0 runs in full and its old parts, left
        in place, are never read (they would double every count)."""
        from mobile_ocr_api_ray.pipelines.analysis import _pages_dir_for
        from mobile_ocr_api_ray.pipelines.extract import read_pages
        from mobile_ocr_api_ray.pipelines.recipe import (
            _extract_checkpoint_batch, curation_recipe)
        from mobile_ocr_api_ray.state.manifest import part_files
        wd = str(tmp_path / "work")
        ckpt = os.path.join(wd, "checkpoint")
        (read_pages(os.path.join(_pages_dir_for(SF), "pages.parquet"))
         .map_batches(_extract_checkpoint_batch, batch_format="pyarrow")
         .write_parquet(ckpt))
        with open(os.path.join(wd, "_CKPT_DONE"), "w") as fh:
            fh.write("complete\n")
        debris = set(os.listdir(ckpt))
        assert debris and not any(f.startswith("part-") for f in debris)
        m = curation_recipe(SF, work_dir=wd, resume=True).to_pandas() \
            .set_index("stage")
        pd.testing.assert_frame_equal(manifest, m)
        assert debris <= set(os.listdir(ckpt))
        named = {os.path.basename(f) for f in part_files(ckpt)}
        assert named and not named & debris

    def test_no_train_rows_no_text_exchange(self, queries, small_corpus,
                                            tmp_path, monkeypatch):
        """Pages whose hosts all split to val/test: no row is kept_train,
        so pass 3 never runs and the export row states 0 text exchanges,
        in the engine and in the composed oracle alike."""
        import hashlib
        import re

        import duckdb
        import pyarrow.compute as pc
        import pyarrow.parquet as pq
        import __ray_entry__ as e
        from mobile_ocr_api_ray.pipelines import analysis
        from mobile_ocr_api_ray.pipelines.recipe import curation_recipe

        golden = pq.read_table(os.path.join(small_corpus, "golden.parquet"))

        def is_train(url):
            m = re.match(r"^[A-Za-z][A-Za-z0-9+.-]*://([^/?#]+)", url)
            host = m.group(1).lower() if m else ""
            h = int(hashlib.md5(host.encode()).hexdigest()[:8], 16)
            return h < (1 << 32) * 90 // 100

        urls = pa.array([u for u in golden["url"].to_pylist()
                         if not is_train(u)], pa.string())
        corpus_dir = tmp_path / "corpus"
        (corpus_dir / "pages.parquet").mkdir(parents=True)
        pages = pq.read_table(os.path.join(small_corpus, "pages.parquet"))
        pq.write_table(pages.filter(pc.is_in(pages["url"], urls)),
                       corpus_dir / "pages.parquet" / "shard-0000.parquet")
        gpath = str(corpus_dir / "golden.parquet")
        pq.write_table(golden.filter(pc.is_in(golden["url"], urls)), gpath)
        monkeypatch.setattr(analysis, "_pages_dir_for",
                            lambda sf_dir: str(corpus_dir))

        m = curation_recipe(str(tmp_path / "sf"),
                            work_dir=str(tmp_path / "work")) \
            .to_pandas().set_index("stage")
        odf = duckdb.connect().execute(e._curation_recipe_sql(gpath)) \
            .df().set_index("stage")
        assert m.loc["host_split"].rows_out > 0
        assert m.loc["pack_plan"].rows_in == 0
        assert m.loc["export"].text_exchanges == 0
        assert odf.loc["export"].text_exchanges == 0
        assert list(m.index) == list(odf.index)
        for col in ("stage_idx", "rows_in", "rows_out", "text_exchanges"):
            assert m[col].astype("int64").tolist() == \
                odf[col].astype("int64").tolist(), col

    def test_fate_priority_ladder(self):
        """Unit-pin the fate ladder with an 8-case truth table (the
        corpus-level near_dup evidence lives in the v9 corpus's grafted
        near-duplicate pages + the composed oracle)."""
        from mobile_ocr_api_ray.pipelines.recipe import fate_batch
        rows = [
            # fate0,            rep,   near,  c4,    gopher, split, want
            ("url_quarantined", False, True,  False, False, "train",
             "url_quarantined"),
            ("payload_rejected", False, True, False, False, "val",
             "payload_rejected"),
            ("ok", False, True,  True,  True,  "train", "exact_dup"),
            ("ok", True,  True,  True,  True,  "train", "near_dup"),
            ("ok", True,  False, False, True,  "test",  "c4_rejected"),
            ("ok", True,  False, True,  False, "val",  "gopher_rejected"),
            ("ok", True,  False, True,  True,  "val",  "kept_val"),
            ("ok", True,  False, True,  True,  "train", "kept_train"),
        ]
        batch = pa.table({
            "doc_id": pa.array(range(len(rows)), pa.int64()),
            "fate0": pa.array([r[0] for r in rows], pa.string()),
            "exact_rep": pa.array([r[1] for r in rows], pa.bool_()),
            "near": pa.array([r[2] for r in rows], pa.bool_()),
            "c4_kept": pa.array([r[3] for r in rows], pa.bool_()),
            "gopher_keep": pa.array([r[4] for r in rows], pa.bool_()),
            "split": pa.array([r[5] for r in rows], pa.string()),
            "n_tokens": pa.array([7] * len(rows), pa.int64())})
        got = fate_batch(batch).to_pandas().fate.tolist()
        assert got == [r[6] for r in rows]

    def test_join_route_matches_broadcast_route(self, manifest):
        """Size-routing differential (TestDimBroadcastRouting
        convention): broadcast_cap_rows=0 forces BOTH small-side lookups
        (reject set, pack plan) down the co-partitioned hash_join route —
        the manifest must be identical."""
        from mobile_ocr_api_ray.pipelines.recipe import curation_recipe
        m2 = curation_recipe(SF, broadcast_cap_rows=0).to_pandas() \
            .set_index("stage")
        pd.testing.assert_frame_equal(manifest, m2)

    def test_checkpoint_batch_quarantines_blocked_urls(self):
        """The synthetic corpus has no blocklist hits, so pin the
        url-quarantine branch at the kernel level: blocked urls must skip
        extraction entirely (fate0, null text), clean urls extract."""
        from mobile_ocr_api_ray.pipelines.recipe import (
            _extract_checkpoint_batch, _url_id)
        html = b"<!DOCTYPE html><html><body><p>" + \
            b"Seven words make a real sentence here." * 3 + \
            b"</p></body></html>"
        batch = pa.table({
            "url": pa.array(["https://ok.example/page",
                             "https://bad.example/pic.jpeg",
                             "https://bad.example/x?phpsessid=abc123"],
                            pa.string()),
            "html": pa.array([html, html, html], pa.binary()),
            "text": pa.array([None] * 3, pa.string()),
            "lang": pa.array(["eng"] * 3, pa.string())})
        out = _extract_checkpoint_batch(batch).to_pandas() \
            .set_index("url")
        assert out.loc["https://ok.example/page"].fate0 == "ok"
        assert len(out.loc["https://ok.example/page"].extracted_text) > 0
        for bad in ("https://bad.example/pic.jpeg",
                    "https://bad.example/x?phpsessid=abc123"):
            assert out.loc[bad].fate0 == "url_quarantined"
            assert out.loc[bad].extracted_text is None
            assert out.loc[bad].doc_id == _url_id(bad)

    def test_default_work_dir_removed_at_exit(self):
        """A run without ``work_dir`` writes under a per-process /tmp root
        that is gone once the process exits."""
        import subprocess
        import sys
        repo = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        code = (
            "import os, ray\n"
            "ray.init(address='local', num_cpus=1, include_dashboard=False,"
            " logging_level='ERROR')\n"
            "from mobile_ocr_api_ray.pipelines.recipe import"
            " curation_recipe\n"
            f"curation_recipe({SF!r})\n"
            "root = f'/tmp/mobile_ocr_recipe_{os.getpid()}'\n"
            "print(os.getpid(), os.path.isdir(root))\n")
        env = dict(os.environ, PYTHONPATH=repo)
        out = subprocess.run([sys.executable, "-c", code], cwd=repo, env=env,
                             capture_output=True, text=True, timeout=600,
                             check=True)
        pid, existed = out.stdout.split()[-2:]
        assert existed == "True"
        assert not os.path.exists(f"/tmp/mobile_ocr_recipe_{pid}")

    def test_export_shards_on_disk_match_manifest(self, manifest):
        import glob
        import pyarrow.parquet as pq
        shards = manifest[manifest.index.str.startswith("export_shard_")]
        base = f"/tmp/mobile_ocr_recipe_{os.getpid()}"
        files = sorted(glob.glob(os.path.join(
            base, os.path.basename(SF), "shards", "shard-*.parquet")))
        assert len(files) == len(shards)
        for f, (_, row) in zip(files, shards.iterrows()):
            t = pq.read_table(f)
            assert t.num_rows == row.rows_out
            assert set(t.column_names) == {"doc_id", "url", "seq_id",
                                           "clean_text"}
            assert all(len(c) > 0 for c in t["clean_text"].to_pylist())
