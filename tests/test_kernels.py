"""Kernel-level tests: HTML block extraction, bitmap OCR, structure rules."""

import os
import random

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from mobile_ocr_api_ray import corpus
from mobile_ocr_api_ray.functions.navigation import structure_view
from mobile_ocr_api_ray.functions.textproc import split_into_sentences
from mobile_ocr_api_ray.stages import glyphs, image_extract as ie
from mobile_ocr_api_ray.stages.extractor import ExtractorActor, build_structure, sniff_kind
from mobile_ocr_api_ray.stages.html_extract import extract_html, segment_blocks


class TestHtmlExtract:
    def test_golden_roundtrip(self):
        rng = random.Random("html:0")
        payload, golden, n_blocks = corpus._make_html(rng, "eng")
        text, conf, kept = extract_html(payload)
        assert text == golden
        assert len(kept) == n_blocks
        assert 66.0 < conf <= 100.0

    def test_boilerplate_dropped(self):
        html = (b"<html><body><nav><ul><li><a href='/'>Home page link</a></li></ul></nav>"
                b"<p>This is the real main content paragraph of the page.</p>"
                b"<footer><p><a href='/t'>Terms of service link text</a></p></footer>"
                b"</body></html>")
        text, _, kept = extract_html(html)
        assert text == "This is the real main content paragraph of the page."
        assert len(kept) == 1

    def test_entity_unescape_and_collapse(self):
        html = b"<p>alpha &amp; beta\n\n   gamma with more than twentyfive chars</p>"
        text, _, _ = extract_html(html)
        assert text == "alpha & beta gamma with more than twentyfive chars"

    def test_script_style_dropped(self):
        html = (b"<style>p { color: red }</style><script>var a = '<p>not a block '"
                b"+ 'with enough characters</p>';</script>"
                b"<p>Actual visible content block with enough characters.</p>")
        text, _, kept = extract_html(html)
        assert len(kept) == 1
        assert "visible content" in text

    def test_link_density_threshold(self):
        dense = b"<p><a href='/x'>all of this paragraph text is one link here</a></p>"
        assert extract_html(dense)[0] == ""
        sparse = (b"<p>only <a href='/x'>one</a> word of this long paragraph is "
                  b"a link so it stays</p>")
        assert "only one word" in extract_html(sparse)[0]


class TestImageKernels:
    @pytest.mark.parametrize("kind", ["fast", "balanced", "quality", "default"])
    @pytest.mark.parametrize("scale", [2, 3, 4])
    def test_roundtrip_all_kernels(self, kind, scale):
        rng = random.Random("img:7")
        lines, breaks, ptexts = corpus._make_image_lines(rng, 3)
        golden = "\n\n".join(ptexts)
        img = glyphs.render_text(lines, scale=scale, margin=4 * scale, para_breaks=breaks)
        r = ie.extract_image(img, kind, max_dim=5000, do_deskew=False)
        assert r["text"] == golden
        assert 80.0 < r["confidence"] <= 100.0

    def test_noise_removed(self):
        rng = random.Random("img:8")
        lines, breaks, ptexts = corpus._make_image_lines(rng, 2)
        img = glyphs.add_noise(
            glyphs.render_text(lines, scale=3, margin=12, para_breaks=breaks), 100, 5)
        r = ie.extract_image(img, "balanced", max_dim=5000, do_deskew=False)
        assert r["text"] == "\n\n".join(ptexts)

    def test_resize_path_deterministic(self):
        rng = random.Random("img:9")
        lines, breaks, ptexts = corpus._make_image_lines(rng, 6)
        img = glyphs.render_text(lines, scale=8, margin=32, para_breaks=breaks)
        assert max(img.shape) > 1200  # crosses the medium-quality threshold
        r1 = ie.extract_image(img, "balanced", max_dim=1200)
        r2 = ie.extract_image(img, "balanced", max_dim=1200)
        assert r1["text"] == r2["text"]

    def test_optimize_formula(self):
        # exact reference resize arithmetic (app2.py:228-233)
        img = np.zeros((500, 2000), dtype=np.uint8)
        out = ie.optimize_image(img, 1200)
        assert out.shape == (int(500 * (1200 / 2000)), 1200)
        assert ie.optimize_image(np.zeros((100, 100), np.uint8), 1200).shape == (100, 100)

    def test_deskew_recovers_rotation(self):
        # rotated inputs are approximate by nature (NN rotation isn't exactly
        # invertible): assert the angle search finds the inverse angle and
        # recognition stays highly accurate after deskew
        rng = random.Random("img:10")
        lines, breaks, ptexts = corpus._make_image_lines(rng, 4)
        img = glyphs.render_text(lines, scale=6, margin=24, para_breaks=breaks)
        rot = glyphs.rotate_nn(img, 1.5)
        _, angle = ie.deskew(rot)
        assert angle == -1.5
        r = ie.extract_image(rot, "fast", max_dim=5000, do_deskew=True)
        golden = "\n\n".join(ptexts)
        import difflib
        sim = difflib.SequenceMatcher(None, r["text"], golden).ratio()
        assert sim > 0.7, f"similarity {sim:.2f}"
        # and without rotation the pipeline is byte-exact
        r0 = ie.extract_image(img, "fast", max_dim=5000, do_deskew=True)
        assert r0["text"] == golden

    def test_otsu_separates_modes(self):
        # perfect bimodal: any threshold between the modes is an argmax;
        # what matters is that `<= t` separates ink from background
        img = np.array([[0] * 50 + [200] * 30 + [255] * 20], dtype=np.uint8)
        t = ie._otsu_threshold(img)
        assert (img <= t).sum() == 50

    def test_region_filter(self):  # M8 thresholds, app.py:867-883
        assert ie.region_filter(0, 0, 100, 50, 1000, 1000)      # area .005, aspect 2
        assert not ie.region_filter(0, 0, 2, 2, 1000, 1000)     # too small
        assert not ie.region_filter(0, 0, 950, 900, 1000, 1000)  # too big
        assert not ie.region_filter(0, 0, 110, 10, 1000, 1000)  # aspect 11

    def test_column_detection(self):  # app.py:916-944
        # two clusters of x positions, gap > 10% of width=1000
        bounds = [(0, 0, 10, 10), (20, 50, 10, 10), (600, 0, 10, 10), (615, 50, 10, 10)]
        cols = ie.detect_columns(bounds, 1000)
        assert cols == [0, 0, 1, 1]
        # no gap -> one column
        assert ie.detect_columns([(0, 0, 1, 1), (50, 0, 1, 1)], 1000) == [0, 0]


class TestPayloads:
    def test_sniff(self):
        assert sniff_kind(b"") == "empty"
        assert sniff_kind(None) == "empty"
        assert sniff_kind(b"<!DOCTYPE html><html>") == "html"
        assert sniff_kind(b"  <html><body>") == "html"
        assert sniff_kind(glyphs.IMGX_MAGIC + b"\x00\x01\x00\x01\x00") == "image"
        assert sniff_kind(glyphs.PDFX_MAGIC + b"\x00\x00\x00\x00") == "pdf"
        assert sniff_kind(b"GIF89a......") == "unknown"

    def test_imgx_roundtrip(self):
        img = (np.arange(12, dtype=np.uint8)).reshape(3, 4)
        assert np.array_equal(glyphs.decode_imgx(glyphs.encode_imgx(img)), img)

    def test_pdfx_roundtrip(self):
        pages = [b"page-one", b"", b"page-three"]
        assert glyphs.decode_pdfx(glyphs.encode_pdfx(pages)) == pages


def _blank_page_pdf(blank_page: np.ndarray | None = None) -> tuple[bytes, str]:
    """PDFX [text, blank, text] and its expected text: the blank page adds
    an empty page text to the reference's "\\n\\n" join (app.py:791).
    The blank page defaults to a white 200x300 raster."""
    rng = random.Random("blank:1")
    p1, g1, _, _ = corpus._make_image(rng, scale=3, n_paras=2)
    p2, g2, _, _ = corpus._make_image(rng, scale=3, n_paras=1)
    if blank_page is None:
        blank_page = np.full((200, 300), 255, np.uint8)
    blank = glyphs.encode_imgx(blank_page)
    return glyphs.encode_pdfx([p1, blank, p2]), "\n\n".join([g1, "", g2])


class TestStructure:
    def test_spans_reconstruct_text(self):
        rng = random.Random("s:1")
        payload, golden, _ = corpus._make_html(rng, "eng")
        ex = ExtractorActor()
        row = ex.extract_row("u", payload, None, "eng")
        text = row["extracted_text"]
        assert text == golden
        view = structure_view(text, row["spans"], row["paragraphs"])
        assert [p["text"] for p in view] == golden.split("\n\n")
        for p in view:
            assert [s["text"] for s in p["sentences"]] == split_into_sentences(p["text"])

    def test_view_matches_kernel_paragraphs(self, small_corpus):
        """Differential: for every corpus row plus a PDFX with a blank page,
        the view over the stored spans equals the nested dicts built
        straight from the kernel's raw paragraphs and the F1 split."""
        pages = pq.read_table(os.path.join(small_corpus, "pages.parquet"))
        pdf, _ = _blank_page_pdf()
        pages = pa.concat_tables([pages, pa.table({
            "url": ["blank-page.pdf"], "warc_ts": pages["warc_ts"][:1],
            "html": pa.array([pdf], pa.binary()), "text": [None],
            "lang": ["eng"]}).cast(pages.schema)])
        ex = ExtractorActor()
        rows = ex(pages).to_pylist()
        n_kernel = 0
        for row, payload, lang in zip(rows, pages["html"].to_pylist(),
                                      pages["lang"].to_pylist()):
            expected = []
            if row["source"] == "kernel" and row["status"] == "ok":
                n_kernel += 1
                _, _, raw, _ = ex._extract_payload(payload, row["payload_kind"], lang)
                expected = [{"id": i,
                             "bounds": {k: p[k] for k in ("x", "y", "width", "height")},
                             "text": p["text"], "column": p["column"],
                             "sentences": [{"id": j, "text": s} for j, s in
                                           enumerate(split_into_sentences(p["text"]))]}
                            for i, p in enumerate(raw)]
            assert all(set(p) == {"id", "bounds", "column"} for p in row["paragraphs"])
            view = structure_view(row["extracted_text"], row["spans"], row["paragraphs"])
            assert view == expected, row["url"]
        assert n_kernel > 200 and rows[-1]["total_pages"] == 3

    def test_unlocatable_paragraph_drops_spans(self):
        """A user kernel whose text does not contain its paragraphs keeps
        its text and paragraph geometry but stores no spans."""
        def kernel(payload, ctx):
            return "kernel text", 50.0, [{"text": "other words", "column": 0}], 1

        row = ExtractorActor(kernels={"html": kernel}).extract_row(
            "u", b"<p>x</p>", None, "eng")
        assert row["status"] == "ok" and row["extracted_text"] == "kernel text"
        assert row["spans"] == [] and len(row["paragraphs"]) == 1
        view = structure_view(row["extracted_text"], row["spans"], row["paragraphs"])
        assert view[0]["text"] == "" and view[0]["sentences"] == []

    def test_column_membership_consistent(self):
        rng = random.Random("s:2")
        lines, breaks, ptexts = corpus._make_image_lines(rng, 3)
        img = glyphs.render_text(lines, scale=3, margin=12, para_breaks=breaks)
        ex = ExtractorActor()
        row = ex.extract_row("u", glyphs.encode_imgx(img), None, "eng")
        for col in row["columns"]:
            for pid in col["paragraphs"]:
                assert row["paragraphs"][pid]["column"] == col["id"]

    def test_suggested_actions_from_structure(self):
        text = "One. Two. Three. Four. Five. Six."
        _, _, _, actions = build_structure(text, [{"text": text, "column": 0}])
        types = [a["type"] for a in actions]
        assert "summarize" in types and "read_full" in types
        assert "read_by_paragraph" not in types


class TestBlankPages:
    """A single-intensity page has a one-level histogram, where Otsu finds
    no split; the threshold is OpenCV's 0 and the page reads as empty."""

    @pytest.mark.parametrize("value", [255, 0, 128])
    def test_blank_imgx_is_ok_and_empty(self, value):
        payload = glyphs.encode_imgx(np.full((200, 300), value, np.uint8))
        row = ExtractorActor().extract_row("u", payload, None, "eng")
        assert row["status"] == "ok", row["error"]
        assert row["extracted_text"] == ""

    @pytest.mark.parametrize("shape", [(0, 40), (40, 0), (0, 0), (0, 5000)])
    def test_zero_area_imgx_is_ok_and_empty(self, shape):
        payload = glyphs.encode_imgx(np.zeros(shape, np.uint8))
        row = ExtractorActor().extract_row("u", payload, None, "eng")
        assert row["status"] == "ok", row["error"]
        assert row["extracted_text"] == ""

    def test_pdf_with_zero_area_page_keeps_text_pages(self):
        payload, expected = _blank_page_pdf(np.zeros((0, 40), np.uint8))
        row = ExtractorActor().extract_row("u", payload, None, "eng")
        assert row["status"] == "ok", row["error"]
        assert row["extracted_text"] == expected
        assert row["total_pages"] == 3

    def test_pdf_with_blank_page(self):
        payload, expected = _blank_page_pdf()
        row = ExtractorActor().extract_row("u", payload, None, "eng")
        assert row["status"] == "ok", row["error"]
        assert row["extracted_text"] == expected
        assert "\n\n\n\n" in expected
        view = structure_view(row["extracted_text"], row["spans"], row["paragraphs"])
        assert [p["text"] for p in view] == [t for t in expected.split("\n\n") if t]
        for span in row["spans"]:
            seg = row["extracted_text"][span["start"]:span["end"]]
            p = view[span["para_id"]]
            if span["kind"] == "paragraph":
                assert seg == p["text"]
            else:
                assert seg == p["sentences"][span["sent_id"]]["text"]


class TestOcrModeRouting:
    """M3 — ocr_mode must CHANGE the engine config (app2.py:345-353):
    fast/standard/accurate produce distinct outputs on the same payload."""

    def _rotated_noisy(self):
        from mobile_ocr_api_ray.stages import glyphs
        img = glyphs.render_text(["HELLO WORLD", "SECOND LINE OF TEXT"],
                                 scale=3, margin=12)
        img = glyphs.add_noise(img, 80, seed=5)
        return glyphs.rotate_nn(img, 1.5)

    def test_modes_distinct(self):
        from mobile_ocr_api_ray.stages.image_extract import extract_image
        img = self._rotated_noisy()
        out = {m: extract_image(img, "balanced", 1200, False, m)
               for m in ("fast", "standard", "accurate")}
        # accurate always deskews: it recovers the rotated text
        assert out["accurate"]["text"].startswith("HELLO WORLD")
        assert not out["standard"]["text"].startswith("HELLO WORLD")
        # fast scores on the layout mask itself, standard on the routed
        # band-local kernel — distinct confidence evidence
        assert out["fast"]["confidence"] != out["standard"]["confidence"]
        assert out["accurate"]["confidence"] != out["standard"]["confidence"]

    def test_quality_tiers_distinct_via_actor(self):
        from mobile_ocr_api_ray.stages import glyphs
        from mobile_ocr_api_ray.stages.extractor import ExtractorActor
        payload = glyphs.encode_imgx(self._rotated_noisy())
        batch = pa.table({"url": pa.array(["u"], pa.string()),
                          "html": pa.array([payload], pa.binary())})
        rows = {q: ExtractorActor(quality=q)(batch).to_pandas().iloc[0]
                for q in ("low", "medium", "high")}
        assert rows["high"]["extracted_text"].startswith("HELLO WORLD")
        confs = {q: r["confidence"] for q, r in rows.items()}
        assert len(set(confs.values())) == 3, confs

    def test_standard_matches_round1_behavior(self):
        """standard mode with do_deskew=False is byte-identical to the
        round-1 call shape (golden stability for the flagship default)."""
        from mobile_ocr_api_ray.stages import glyphs
        from mobile_ocr_api_ray.stages.image_extract import extract_image
        img = glyphs.render_text(["HELLO WORLD"], scale=3, margin=12)
        a = extract_image(img, "balanced", 1200, False)
        b = extract_image(img, "balanced", 1200, False, "standard", "eng")
        assert a["text"] == b["text"] == "HELLO WORLD"
        assert a["confidence"] == b["confidence"]


class TestKernelConfig:
    """Raw config-string passthrough (reference app.py:567,580-581: the
    caller's ``config`` is appended verbatim to the engine invocation).
    Engine form: a per-row ``kernel_config`` column of ``key=value``
    tokens overriding the quality-routed params for that row."""

    def _payload(self):
        from mobile_ocr_api_ray.stages import glyphs
        img = glyphs.render_text(["HELLO WORLD", "SECOND LINE OF TEXT"],
                                 scale=3, margin=12)
        img = glyphs.add_noise(img, 80, seed=5)
        return glyphs.encode_imgx(glyphs.rotate_nn(img, 1.5))

    def test_config_reaches_engine(self):
        """The raw string must CHANGE engine behavior: ocr_mode=accurate
        on a medium-quality actor recovers the rotated text the default
        routing does not (same observable as TestOcrModeRouting)."""
        from mobile_ocr_api_ray.stages.extractor import ExtractorActor
        p = self._payload()
        batch = pa.table({
            "url": pa.array(["a", "b"], pa.string()),
            "html": pa.array([p, p], pa.binary()),
            "kernel_config": pa.array([None, "ocr_mode=accurate"],
                                      pa.string())})
        df = ExtractorActor(quality="medium")(batch).to_pandas() \
            .set_index("url")
        assert not df.loc["a"].extracted_text.startswith("HELLO WORLD")
        assert df.loc["b"].extracted_text.startswith("HELLO WORLD")
        assert (df.status == "ok").all()

    def test_config_distinct_lru_entries(self):
        """Same payload + different config must NOT share a cached result
        (the v2 cache-key rule extended to the config field)."""
        from mobile_ocr_api_ray.stages.extractor import ExtractorActor
        p = self._payload()
        act = ExtractorActor(quality="medium")
        batch = pa.table({
            "url": pa.array(["a", "b", "c"], pa.string()),
            "html": pa.array([p, p, p], pa.binary()),
            "kernel_config": pa.array(
                [None, "ocr_mode=accurate", "ocr_mode=accurate"],
                pa.string())})
        df = act(batch).to_pandas()
        assert act.kernel_invocations == 2  # b,c share; a distinct
        assert df.extracted_text[1] == df.extracted_text[2]
        assert df.extracted_text[0] != df.extracted_text[1]

    def test_bad_config_is_error_row(self):
        """A malformed config degrades to an M11 error ROW (the reference
        engine rejects bad config at invocation), never a batch failure."""
        from mobile_ocr_api_ray.stages.extractor import ExtractorActor
        p = self._payload()
        batch = pa.table({
            "url": pa.array(["bad", "good"], pa.string()),
            "html": pa.array([p, p], pa.binary()),
            "kernel_config": pa.array(
                ["tessedit_do_invert", None], pa.string())})
        act = ExtractorActor(quality="medium")
        df = act(batch).to_pandas().set_index("url")
        assert df.loc["bad"].status == "error"
        assert "kernel_config" in df.loc["bad"].error
        assert df.loc["good"].status == "ok"
        assert act.kernel_invocations == 1  # the bad row never reached a kernel

    def test_parse_kernel_config(self):
        from mobile_ocr_api_ray.functions.routing import parse_kernel_config
        assert parse_kernel_config(
            "ocr_mode=fast max_dim=800 deskew=1 preprocess=quality") == {
            "ocr_mode": "fast", "max_dim": 800, "do_deskew": True,
            "preprocess_kind": "quality"}
        assert parse_kernel_config(None) == {}
        assert parse_kernel_config("") == {}
        for bad in ("psm=3", "ocr_mode=turbo", "max_dim=big", "deskew=2",
                    "oem"):
            with pytest.raises(ValueError):
                parse_kernel_config(bad)


class TestLangRouting:
    """M9/-l — the lang column must route observable recognizer behavior
    (reference -l passthrough, app.py:567,580,1127)."""

    def _ambiguous_cell(self):
        from mobile_ocr_api_ray.stages.glyphs import FONT
        tb, tn = FONT["B"], FONT["N"]
        D = np.argwhere(tb != tn)
        cell = tb.copy()
        flip = D[:len(D) // 2]
        cell[flip[:, 0], flip[:, 1]] = tn[flip[:, 0], flip[:, 1]]
        return cell  # hamming 11 to BOTH 'B' and 'N', farther from the rest

    def test_lang_pack_tiebreak(self):
        from mobile_ocr_api_ray.stages.image_extract import _match_cells_batch
        cells = self._ambiguous_cell()[None].astype(bool)
        eng, _ = _match_cells_batch(cells, cells, "eng")
        ind, _ = _match_cells_batch(cells, cells, "ind")
        assert eng == ["B"]   # eng pack = FONT_CHARS order (identity)
        assert ind == ["N"]   # ind pack prefers N over B
        default, _ = _match_cells_batch(cells, cells, None)
        assert default == eng  # None/eng identical → round-1 goldens stable
        mixed, _ = _match_cells_batch(cells, cells, "eng+ind")
        assert mixed == eng   # primary language wins

    def test_rows_differing_only_in_lang(self):
        """Two identical payload rows with lang 'eng' vs 'ind' produce
        different extracted text through the full actor path."""
        from mobile_ocr_api_ray.stages import glyphs
        from mobile_ocr_api_ray.stages.extractor import ExtractorActor
        cell = self._ambiguous_cell()
        img = np.full((7 + 12, 5 + 12), glyphs.BG, dtype=np.uint8)
        img[6:13, 6:11][cell] = glyphs.INK
        payload = glyphs.encode_imgx(img)
        batch = pa.table({
            "url": pa.array(["a", "b"], pa.string()),
            "html": pa.array([payload, payload], pa.binary()),
            "text": pa.array([None, None], pa.string()),
            "lang": pa.array(["eng", "ind"], pa.string())})
        out = ExtractorActor(quality="medium", lru_size=0)(batch).to_pandas()
        # banding re-pads the cell so the surviving tie is between a
        # different template pair than the crafted B/N one — the invariant
        # under test is that lang alone flips the recognized text
        assert (out.status == "ok").all()
        assert out.extracted_text[0] != out.extracted_text[1]
        assert out.confidence[0] == out.confidence[1]  # tie ⇒ equal score


class TestPerActorLru:
    """A2b — repeated payloads within one actor's stream invoke the kernel
    once (the reference's v2 result cache as warm actor state)."""

    def test_repeats_invoke_kernel_once(self):
        from mobile_ocr_api_ray.stages import glyphs
        from mobile_ocr_api_ray.stages.extractor import ExtractorActor
        p1 = glyphs.encode_imgx(glyphs.render_text(["HELLO"], scale=2, margin=8))
        p2 = glyphs.encode_imgx(glyphs.render_text(["WORLD"], scale=2, margin=8))
        batch = pa.table({
            "url": pa.array(["a", "b", "c", "d", "e"], pa.string()),
            "html": pa.array([p1, p2, p1, p1, p2], pa.binary()),
            "text": pa.array([None] * 5, pa.string()),
            "lang": pa.array(["eng"] * 5, pa.string())})
        actor = ExtractorActor()
        out = actor(batch).to_pandas()
        assert actor.kernel_invocations == 2  # 2 distinct payloads, 5 rows
        assert out.extracted_text[0] == out.extracted_text[2] == "HELLO"
        # lang participates in the cache key: same payload, new lang → miss
        batch2 = pa.table({
            "url": pa.array(["f"], pa.string()),
            "html": pa.array([p1], pa.binary()),
            "text": pa.array([None], pa.string()),
            "lang": pa.array(["ind"], pa.string())})
        actor(batch2)
        assert actor.kernel_invocations == 3

    def test_byte_cap_evicts(self):
        """The BYTE cap evicts oldest-first even while the entry count is
        under lru_size — big extraction results cannot pin unbounded
        per-actor heap (VERDICT r4 item 7)."""
        from mobile_ocr_api_ray.stages import glyphs
        from mobile_ocr_api_ray.stages.extractor import (ExtractorActor,
                                                         _result_nbytes)
        mk = lambda s: glyphs.encode_imgx(
            glyphs.render_text([s], scale=2, margin=8))
        p1, p2, p3 = mk("HELLO"), mk("WORLD"), mk("AGAIN")
        one = _result_nbytes(ExtractorActor()._extract_payload(
            p1, "image", "eng"))
        # cap fits ~2 results; entry cap stays loose
        actor = ExtractorActor(lru_size=512, lru_bytes=2 * one + 10)
        for p in (p1, p2, p3):
            actor(pa.table({"url": pa.array(["u"], pa.string()),
                            "html": pa.array([p], pa.binary())}))
        assert actor.kernel_invocations == 3
        assert len(actor._lru) == 2  # p1 evicted by bytes
        assert actor._lru_nbytes <= 2 * one + 10
        # p1 is a miss again; p3 still cached
        actor(pa.table({"url": pa.array(["u"], pa.string()),
                        "html": pa.array([p3], pa.binary())}))
        assert actor.kernel_invocations == 3
        actor(pa.table({"url": pa.array(["u"], pa.string()),
                        "html": pa.array([p1], pa.binary())}))
        assert actor.kernel_invocations == 4

    def test_lru_disabled(self):
        from mobile_ocr_api_ray.stages import glyphs
        from mobile_ocr_api_ray.stages.extractor import ExtractorActor
        p1 = glyphs.encode_imgx(glyphs.render_text(["HELLO"], scale=2, margin=8))
        batch = pa.table({
            "url": pa.array(["a", "b"], pa.string()),
            "html": pa.array([p1, p1], pa.binary()),
            "text": pa.array([None, None], pa.string()),
            "lang": pa.array(["eng", "eng"], pa.string())})
        actor = ExtractorActor(lru_size=0)
        actor(batch)
        assert actor.kernel_invocations == 2


class TestV1Tier:
    """D3 parity: the v1 API's single default tier (1500 px cap, q85,
    Gaussian+Otsu preprocess — app.py:323,550-556) is an exposed quality."""

    def test_v1_routing(self):
        from mobile_ocr_api_ray.functions.routing import route_quality
        assert route_quality("v1") == ("default", "standard", 1500, 85)

    def test_v1_actor(self):
        from mobile_ocr_api_ray.stages import glyphs
        from mobile_ocr_api_ray.stages.extractor import ExtractorActor
        payload = glyphs.encode_imgx(
            glyphs.render_text(["HELLO WORLD"], scale=3, margin=12))
        batch = pa.table({"url": pa.array(["u"], pa.string()),
                          "html": pa.array([payload], pa.binary())})
        out = ExtractorActor(quality="v1")(batch).to_pandas()
        assert out.extracted_text[0] == "HELLO WORLD"
        assert out.quality[0] == "v1"


class TestCrc32SharedHelper:
    """str_hash.crc32_of_strings: the ONE routing hash every coarse
    shuffle shares — must be bit-identical to zlib.crc32(s.encode())."""

    def _want(self, vals, null_value):
        import zlib
        import numpy as np
        return np.array([zlib.crc32(s.encode()) if s is not None
                         else null_value for s in vals], np.int64)

    def test_exact_vs_zlib(self):
        import numpy as np
        from mobile_ocr_api_ray.str_hash import crc32_of_strings
        rng = np.random.RandomState(3)
        vals = ["", "a", "héllo ✓ wörld", "x" * 300, "y" * 5000, None]
        vals += ["".join(chr(rng.randint(32, 0x2FF))
                         for _ in range(rng.randint(0, 150)))
                 for _ in range(300)]
        arr = pa.array(vals, pa.string())
        want = self._want(vals, -1)
        assert (crc32_of_strings(arr, null_value=-1) == want).all()
        # sliced array (nonzero Arrow offset) and chunked array
        assert (crc32_of_strings(arr.slice(5, 200), null_value=-1)
                == want[5:205]).all()
        ch = pa.chunked_array([pa.array(vals[:50], pa.string()),
                               pa.array(vals[50:], pa.string())])
        assert (crc32_of_strings(ch, null_value=-1) == want).all()

    def test_pandas_list_and_empty_inputs(self):
        import pandas as pd
        from mobile_ocr_api_ray.str_hash import crc32_of_strings
        vals = ["alpha", None, "", "beta"]
        want = self._want(vals, 0)
        assert (crc32_of_strings(pd.Series(vals, dtype=object)) == want).all()
        assert (crc32_of_strings(vals) == want).all()
        assert len(crc32_of_strings(pa.array([], pa.string()))) == 0

    def test_str_coarse_null_convention(self):
        # null hashes as '' (crc 0) — the pervasive (s or '') convention
        import numpy as np
        from mobile_ocr_api_ray.str_hash import str_coarse
        out = str_coarse(pa.array([None, "", "k"], pa.string()), 7)
        assert out.dtype == np.int32
        assert out[0] == out[1] == 0


# ---- reference recognizer: the per-band, popcount-matching implementation
# that page-batched recognition replaced, kept verbatim (names prefixed
# _ref_) as the oracle of TestPageBatchedRecognition. Its binarizer keeps
# the int64 integral-image box sum and the clipping Otsu histogram.

def _ref_otsu_threshold(img: np.ndarray) -> float:
    hist = np.bincount(np.clip(img, 0, 255).astype(np.uint8).ravel(), minlength=256).astype(np.float64)
    total = hist.sum()
    if total == 0:
        return 127.0
    if np.count_nonzero(hist) == 1:
        return 0.0  # one intensity: no split exists; OpenCV's THRESH_OTSU gives 0
    omega = np.cumsum(hist) / total
    mu = np.cumsum(hist * np.arange(256)) / total
    mu_t = mu[-1]
    denom = omega * (1.0 - omega)
    denom[denom == 0] = np.nan
    sigma_b = (mu_t * omega - mu) ** 2 / denom
    return float(np.nanargmax(sigma_b))


def _ref_box_sum(img: np.ndarray, k: int) -> np.ndarray:
    """k x k local SUM via int64 integral image, edge-replicated borders —
    integer-exact (mean comparisons are done cross-multiplied by k*k)."""
    pad = k // 2
    if pad == 0:  # k == 1 → the 1x1 box sum is the image itself
        return img.astype(np.int32)
    h0, w0 = img.shape
    p = np.empty((h0 + 2 * pad, w0 + 2 * pad), dtype=np.int64)
    p[pad:-pad, pad:-pad] = img
    p[:pad, pad:-pad] = img[0]
    p[-pad:, pad:-pad] = img[-1]
    p[:, :pad] = p[:, pad:pad + 1]
    p[:, -pad:] = p[:, -pad - 1:-pad]
    ii = np.cumsum(np.cumsum(p, axis=0), axis=1)
    ii = np.pad(ii, ((1, 0), (1, 0)))
    h, w = img.shape
    s = ii[k:k + h, k:k + w] - ii[:h, k:k + w] - ii[k:k + h, :w] + ii[:h, :w]
    return s.astype(np.int32)  # k*k*255 fits comfortably


def _ref_binarize(img: np.ndarray, kind: str = "balanced") -> np.ndarray:
    if kind == "fast":
        return img < 128
    blurred = ie._gaussian_blur3(img)
    if kind in ("quality", "default"):
        # quality's morph-close with a (1,1) kernel is the identity
        t = _ref_otsu_threshold(blurred)
        return blurred <= t
    # balanced: Gaussian blur + adaptive threshold(blockSize=11, C=2):
    # ink iff blurred <= local_mean - 2, evaluated integer-exact as
    # (blurred + 2) * k^2 <= local box SUM (no float pass)
    local_sum = _ref_box_sum(blurred, 11)
    return (blurred.astype(np.int32) + 2) * 121 <= local_sum


_REF_PACKED_CACHE: dict[tuple[int, int], tuple[np.ndarray, int]] = {}
_REF_POPCNT = np.array([bin(i).count("1") for i in range(256)], dtype=np.uint16)


def _ref_packed_templates_for(ch: int, cw: int) -> tuple[np.ndarray, int]:
    key = (ch, cw)
    hit = _REF_PACKED_CACHE.get(key)
    if hit is None:
        t = ie._templates_for(ch, cw)
        flat = t.reshape(t.shape[0], -1)
        hit = (np.packbits(flat, axis=1), flat.shape[1])
        _REF_PACKED_CACHE[key] = hit
    return hit


def _ref_match_cells_batch(cells: np.ndarray, conf_cells: np.ndarray,
                           lang: str | None = None
                           ) -> tuple[list[str], list[float]]:
    n, ch, cw = cells.shape
    packed_t, nbits = _ref_packed_templates_for(ch, cw)   # (g, W), bits
    nonempty = cells.reshape(n, -1).any(axis=1)
    chars = [" "] * n
    scores: list[float] = []
    if nonempty.any():
        sub = cells[nonempty].reshape(-1, ch * cw)    # (m, bits)
        sub_p = np.packbits(sub, axis=1)              # (m, W)
        ham = _REF_POPCNT[sub_p[:, None, :] ^ packed_t[None, :, :]].sum(
            axis=2, dtype=np.int64)                   # (m, g)
        perm = ie._lang_perm(lang)
        if perm is None:
            best = np.argmin(ham, axis=1)
        else:
            # argmin over pack-ordered columns → first max-agreement template
            # in the language's priority order
            best = perm[np.argmin(ham[:, perm], axis=1)]
        csub_p = np.packbits(conf_cells[nonempty].reshape(-1, ch * cw), axis=1)
        conf_ham = _REF_POPCNT[csub_p ^ packed_t[best]].sum(axis=1, dtype=np.int64)
        conf = (nbits - conf_ham) / float(nbits)
        j = 0
        for i in range(n):
            if nonempty[i]:
                chars[i] = glyphs.FONT_CHARS[int(best[j])]
                scores.append(float(conf[j]))
                j += 1
    return chars, scores


def _ref_recognize_lines(mask: np.ndarray, conf_img: np.ndarray | None = None,
                         conf_kind: str | None = None,
                         despeckle_conf: bool = False,
                         lang: str | None = None) -> tuple[list[dict], list[float]]:
    h, w = mask.shape
    mask = ie.despeckle(mask)
    row_profile = mask.sum(axis=1)
    lines: list[dict] = []
    scores: list[float] = []
    for y0, y1 in ie._bands(row_profile):
        if y1 - y0 < ie.MIN_BAND_PX:
            continue
        band = mask[y0:y1]
        if conf_img is not None and conf_kind is not None:
            conf_band = _ref_binarize(conf_img[y0:y1], conf_kind)
            if despeckle_conf:
                # 'accurate' mode (app2.py:353 tessedit_do_invert=0 analog):
                # clean the confidence evidence mask before scoring
                conf_band = ie.despeckle(conf_band)
        else:
            conf_band = band
        col_profile = band.sum(axis=0)
        cols = np.where(col_profile > 0)[0]
        if len(cols) == 0:
            continue
        left, right = int(cols[0]), int(cols[-1])
        line_h = y1 - y0
        s_f = line_h / glyphs.GLYPH_H   # recovered scale (float)
        pitch = 6.0 * s_f               # char pitch: 5s glyph + 1s gap
        span = right - left + 1
        n_chars = max(1, int(round((span + s_f) / pitch)))
        bounds = []
        for i in range(n_chars):
            x0 = left + int(round(i * pitch))
            x1 = min(left + int(round(i * pitch + 5.0 * s_f)), w)
            bounds.append((x0, x1))
        # batch cells by width (rounding makes widths differ by ±1) and
        # recognize each width-group in one vectorized template reduce
        chars = [" "] * n_chars
        by_width: dict[int, list[int]] = {}
        for i, (x0, x1) in enumerate(bounds):
            by_width.setdefault(x1 - x0, []).append(i)
        line_scores: list[float] = []
        for cw, idxs in by_width.items():
            if cw <= 0:
                continue
            cells = np.stack([band[:, bounds[i][0]:bounds[i][1]] for i in idxs])
            conf_cells = np.stack([conf_band[:, bounds[i][0]:bounds[i][1]] for i in idxs])
            got, sc = _ref_match_cells_batch(cells, conf_cells, lang)
            for i, c in zip(idxs, got):
                chars[i] = c
            line_scores.extend(sc)
        scores.extend(line_scores)
        text = "".join(chars).rstrip()
        lines.append({"text": text, "x": left, "y": int(y0),
                      "width": span, "height": int(line_h)})
    return lines, scores


def _kernel_pages(corpus_dir: str) -> list[np.ndarray]:
    """Every IMGX raster of a corpus: image rows and the pages of PDFX rows."""
    pages = []
    for payload in pq.read_table(os.path.join(corpus_dir, "pages.parquet"),
                                 columns=["html"])["html"].to_pylist():
        kind = sniff_kind(payload) if payload else None
        if kind == "image":
            pages.append(glyphs.decode_imgx(payload))
        elif kind == "pdf":
            pages.extend(glyphs.decode_imgx(p) for p in glyphs.decode_pdfx(payload))
    return pages


def _odd_pages() -> list[np.ndarray]:
    """Blank, one-pixel-thin, noise, stripe and dot rasters."""
    rng = np.random.default_rng(3)
    stripes = np.full((120, 200), 255, np.uint8)
    stripes[::4] = 0
    columns = np.full((120, 200), 255, np.uint8)
    columns[:, ::3] = 0
    dots = np.full((120, 200), 255, np.uint8)
    dots[::7, ::5] = 0
    return [np.full((200, 300), 255, np.uint8), np.zeros((200, 300), np.uint8),
            np.zeros((1, 60), np.uint8), np.zeros((60, 1), np.uint8),
            rng.integers(0, 256, (240, 320)).astype(np.uint8),
            stripes, columns, dots]


class TestPageBatchedRecognition:
    """recognize_lines scores a whole page per cell shape; its output must
    equal the per-band recognizer's, float-exact, on every kernel config."""

    def test_equals_per_band_reference(self, small_corpus, monkeypatch):
        pages = _kernel_pages(small_corpus) + _odd_pages()
        assert len(pages) > 30
        n_text = 0
        for i, img in enumerate(pages):
            for kind in ("fast", "balanced", "quality", "default"):
                # accurate mode deskews (13 rotations): a subsample suffices
                modes = ("fast", "standard", "accurate") if i % 6 == 0 else ("fast", "standard")
                for mode in modes:
                    for lang in ("eng", "ind"):
                        got = ie.extract_image(img, kind, 1200, False, mode, lang)
                        with monkeypatch.context() as m:
                            m.setattr(ie, "recognize_lines", _ref_recognize_lines)
                            m.setattr(ie, "binarize", _ref_binarize)
                            want = ie.extract_image(img, kind, 1200, False, mode, lang)
                        assert got == want, (i, img.shape, kind, mode, lang)
                        n_text += bool(got["text"])
        assert n_text > 500

    def test_one_match_call_per_cell_shape(self, small_corpus, monkeypatch):
        calls: list[tuple[int, int]] = []
        match = ie._match_cells_batch

        def counted(cells, conf_cells, lang=None):
            calls.append(cells.shape[1:])
            return match(cells, conf_cells, lang)

        monkeypatch.setattr(ie, "_match_cells_batch", counted)
        n_lines = n_calls = 0
        for img in _kernel_pages(small_corpus):
            calls.clear()
            lines, _ = ie.recognize_lines(ie.binarize(img, "default"), img,
                                          "balanced", lang="eng")
            assert len(calls) == len(set(calls)), calls
            n_lines += len(lines)
            n_calls += len(calls)
        assert 0 < n_calls < n_lines

    def test_template_cache_is_bounded(self, monkeypatch):
        """A noise page asks for a (1200, 857) template stack, 43 MB; it is
        built for the call and not kept."""
        requested: list[int] = []
        templates_for = ie._templates_for

        def spy(ch, cw):
            t = templates_for(ch, cw)
            requested.append(t.nbytes)
            return t

        monkeypatch.setattr(ie, "_templates_for", spy)
        noise = np.random.default_rng(1).integers(0, 256, (1200, 1200)).astype(np.uint8)
        r = ie.extract_image(noise, "balanced", 1200, False, "standard", "eng")
        assert r["width"] == 1200
        assert max(requested) > ie.TEMPLATE_CACHE_MAX_BYTES
        assert all(t.nbytes <= ie.TEMPLATE_CACHE_MAX_BYTES
                   for t in ie._TEMPLATE_CACHE.values())


# Verbatim copies of the image helpers as they were before their rewrites
# for speed: oracles of TestImageHelpersExact (with _ref_box_sum and
# _ref_otsu_threshold above).
def _ref_optimize_image(img: np.ndarray, max_dim: int) -> np.ndarray:
    h, w = img.shape
    if w <= max_dim and h <= max_dim:
        return img
    if w > h:
        new_w = max_dim
        new_h = int(h * (max_dim / w))
    else:
        new_h = max_dim
        new_w = int(w * (max_dim / h))
    ys = (np.arange(new_h) * h // new_h).astype(np.int64)
    xs = (np.arange(new_w) * w // new_w).astype(np.int64)
    return img[np.ix_(ys, xs)]


def _ref_gaussian_blur3(img: np.ndarray) -> np.ndarray:
    h, w = img.shape
    if h < 2 or w < 2:
        p = np.pad(img, 1, mode="reflect").astype(np.uint16)
    else:
        p = np.empty((h + 2, w + 2), dtype=np.uint16)
        p[1:-1, 1:-1] = img
        p[0, 1:-1] = img[1]
        p[-1, 1:-1] = img[-2]
        p[:, 0] = p[:, 2]
        p[:, -1] = p[:, -3]
    horiz = p[1:-1, :-2] + 2 * p[1:-1, 1:-1] + p[1:-1, 2:]          # <= 1020
    h = horiz.shape[0]
    if h < 2:
        p2 = np.pad(horiz, ((1, 1), (0, 0)), mode="reflect")
    else:
        p2 = np.empty((h + 2, horiz.shape[1]), dtype=np.uint16)
        p2[1:-1] = horiz
        p2[0] = horiz[1]
        p2[-1] = horiz[-2]
    total = p2[:-2] + 2 * p2[1:-1] + p2[2:]                          # <= 4080
    return ((total + 8) >> 4).astype(np.uint8)                       # /16 rounded


def _ref_despeckle(mask: np.ndarray) -> np.ndarray:
    m = mask.astype(np.uint8)
    p = np.zeros((m.shape[0] + 2, m.shape[1] + 2), dtype=np.uint8)
    p[1:-1, 1:-1] = m
    neigh = (
        p[:-2, :-2] + p[:-2, 1:-1] + p[:-2, 2:]
        + p[1:-1, :-2] + p[1:-1, 2:]
        + p[2:, :-2] + p[2:, 1:-1] + p[2:, 2:]
    )
    return mask & (neigh > 0)


def _helper_inputs() -> list[np.ndarray]:
    """uint8 rasters of every awkward shape and layout: 1x1, one row, one
    column, smaller than the 11x11 window, odd sizes, non-contiguous and
    odd-offset views, all 0 and all 255."""
    rng = np.random.default_rng(11)
    big = rng.integers(0, 256, (64, 97)).astype(np.uint8)
    arrays = [rng.integers(0, 256, shape).astype(np.uint8)
              for shape in [(1, 1), (1, 2), (1, 37), (37, 1), (2, 1), (3, 5),
                            (10, 10), (7, 10), (10, 3), (11, 11), (12, 12),
                            (33, 53), (53, 33)]]
    arrays += [big[::2, 1::3], big[:, 5:40], big[1:, ::-1], big.T,
               big.ravel()[1:1 + 31 * 47].reshape(31, 47)]
    arrays += [np.zeros((13, 17), np.uint8), np.full((13, 17), 255, np.uint8),
               np.full((1, 1), 255, np.uint8), np.full((40, 3), 255, np.uint8)]
    # two-level pages, the Otsu case the corpus is made of
    arrays += [np.where(rng.random((29, 31)) < p, 0, 255).astype(np.uint8)
               for p in (0.01, 0.3)]
    return arrays


class TestImageHelpersExact:
    """The narrow-integer, float32 and take-based helpers equal their
    straightforward int64 / float64 / np.ix_ forms on every input."""

    @pytest.mark.parametrize("k", [1, 3, 5, 11, 15])
    def test_box_sum(self, k):
        for a in _helper_inputs():
            got = ie._box_sum(a, k)
            assert got.dtype == np.uint16
            np.testing.assert_array_equal(got, _ref_box_sum(a, k), err_msg=str(a.shape))

    def test_box_sum_window_bound(self):
        assert ie._box_sum(np.full((40, 40), 255, np.uint8), 15).max() == 15 * 15 * 255
        with pytest.raises(AssertionError):
            ie._box_sum(np.zeros((40, 40), np.uint8), 17)

    def test_gaussian_blur(self):
        for a in _helper_inputs():
            got = ie._gaussian_blur3(a)
            assert got.dtype == np.uint8
            np.testing.assert_array_equal(got, _ref_gaussian_blur3(a), err_msg=str(a.shape))

    def test_balanced_binarize(self):
        for a in _helper_inputs():
            np.testing.assert_array_equal(ie.binarize(a, "balanced"),
                                          _ref_binarize(a, "balanced"))

    @pytest.mark.parametrize("pair_min", [None, 0])
    def test_histogram_and_otsu(self, pair_min, monkeypatch):
        """Both histogram paths: pixel pairs from _PAIR_HISTOGRAM_MIN up,
        and (pair_min 0) on every input, the 1x1 and odd sizes included."""
        if pair_min is not None:
            monkeypatch.setattr(ie, "_PAIR_HISTOGRAM_MIN", pair_min)
        big = np.random.default_rng(13).integers(0, 256, (401, 331)).astype(np.uint8)
        assert big.size > ie._PAIR_HISTOGRAM_MIN and big.size % 2
        for a in _helper_inputs() + [big, big[:, 1:], big.ravel()[1:1 + 400 * 331].reshape(400, 331)]:
            hist = ie._histogram(a)
            np.testing.assert_array_equal(hist, np.bincount(a.ravel(), minlength=256))
            assert hist.sum() == a.size
            blurred = ie._gaussian_blur3(a)
            assert ie._otsu_threshold(a) == _ref_otsu_threshold(a)
            assert ie._otsu_threshold(blurred) == _ref_otsu_threshold(blurred)

    def test_despeckle(self):
        rng = np.random.default_rng(12)
        masks = [a < 128 for a in _helper_inputs()]
        masks += [rng.random((50, 70)) < p for p in (0.02, 0.1, 0.5, 0.95)]
        masks += [np.zeros((5, 5), bool), np.ones((5, 5), bool)]
        for m in masks:
            got = ie.despeckle(m)
            assert got.dtype == bool
            np.testing.assert_array_equal(got, _ref_despeckle(m))

    def test_optimize_image(self):
        for a in _helper_inputs():
            for max_dim in (1, 2, 7, 16, 40, 1200):
                got = ie.optimize_image(a, max_dim)
                want = _ref_optimize_image(a, max_dim)
                assert got.shape == want.shape and got.dtype == want.dtype
                np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("extra", [-1, 0, 1, ie._MATMUL_BITS + 3])
    def test_agreement_is_minus_hamming(self, extra):
        """Cells that straddle a matmul slice boundary, including all-ink
        ones whose slice dot products reach _MATMUL_BITS."""
        nbits = ie._MATMUL_BITS + extra
        rng = np.random.default_rng(nbits)
        cells = rng.random((6, nbits)) < 0.5
        cells[0] = True
        cells[1] = False
        templates = rng.random((5, nbits)) < 0.4   # glyph stacks are bool
        templates[0] = True
        got = ie._agreement(cells, templates)
        want = -(cells[:, None, :] != templates[None, :, :]).sum(axis=2, dtype=np.int64)
        assert got.dtype == np.float64
        np.testing.assert_array_equal(got, want)
        assert got[0, 0] == 0
