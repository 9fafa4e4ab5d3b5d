"""Differential tests of the batch text layer (F1 split, F3 scores, F4
summary, structure build) against the per-row Python oracles in
``text_oracles``, plus its cost per character and the structure cache."""

import math
import re
import time

import pyarrow as pa
import pyarrow.compute as pc
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import text_oracles as oracle
from mobile_ocr_api_ray.corpus import generate_pages
from mobile_ocr_api_ray.functions.textproc import (WHITESPACE, compression_ratio,
                                                   score_sentences, split_into_sentences,
                                                   summarize, summarize_all)
from mobile_ocr_api_ray.pipelines.extract import (SUMMARY_MAX_SENTENCES, SUMMARY_MIN_WORDS,
                                                  SUMMARY_RATIO, summarize_batch)
from mobile_ocr_api_ray.stages import extractor
from mobile_ocr_api_ray.stages.extractor import (ExtractorActor, _result_nbytes,
                                                 build_structure, build_structures,
                                                 paragraph_layout)


def _bits(scores):
    """Type and exact float bits of each score."""
    return [(type(x), float(x).hex()) for x in scores]


def _oracle_summary(text):
    """summarize_batch's rule for one ok row, on the oracle F4."""
    if len(text.split()) < SUMMARY_MIN_WORDS:
        return text
    return oracle.summarize(text, SUMMARY_RATIO, SUMMARY_MAX_SENTENCES)


def test_whitespace_is_str_isspace_and_re_s():
    every = [c for c in range(0x110000) if chr(c).isspace()]
    assert list(WHITESPACE) == every and len(every) == 29
    assert all(re.fullmatch(r"\s", chr(c)) for c in every)


# ---------------------------------------------------------------- corpus rows

@pytest.fixture(scope="module", params=[7, 4321])
def corpus_rows(request):
    """Every row of generate_pages(2000, seed) through the extractor and the
    summary stage, with the kernel's raw paragraphs of each kernel row."""
    pages, _ = generate_pages(2000, request.param)
    ex = ExtractorActor(lru_size=4096, lru_bytes=0)
    out = pa.concat_tables([summarize_batch(ex(pages.slice(s, 300)))
                            for s in range(0, pages.num_rows, 300)])
    rows = out.to_pylist()
    raw = [ex._extract_payload(p, r["payload_kind"], lang)
           if r["status"] == "ok" and r["source"] == "kernel" else None
           for r, p, lang in zip(rows, pages["html"].to_pylist(), pages["lang"].to_pylist())]
    return rows, raw


def test_corpus_summaries_match_oracle(corpus_rows):
    rows, _ = corpus_rows
    ok = [r for r in rows if r["status"] == "ok"]
    assert len(ok) > 1500
    for r in ok:
        want = _oracle_summary(r["extracted_text"])
        assert r["summary"] == want, r["url"]
        assert (r["compression_ratio"].hex()
                == oracle_ratio(want, r["extracted_text"]).hex()), r["url"]
    for r in rows:
        if r["status"] != "ok":
            assert r["summary"] is None and r["compression_ratio"] is None


def oracle_ratio(summary, text):
    return len(summary) / len(text) if text else 0.0


def test_corpus_structure_matches_oracle(corpus_rows):
    rows, raw = corpus_rows
    n = 0
    for r, result in zip(rows, raw):
        if result is None:
            assert r["spans"] == [] and r["paragraphs"] == [] and r["columns"] == []
            continue
        n += 1
        paragraphs, columns, spans, actions = oracle.build_structure(result[0], result[2])
        assert r["paragraphs"] == paragraphs, r["url"]
        assert r["columns"] == columns, r["url"]
        assert r["spans"] == spans, r["url"]
        assert r["suggested_actions"] == actions, r["url"]
    assert n > 1000


def test_corpus_split_and_scores_match_oracle(corpus_rows):
    rows, _ = corpus_rows
    texts = [r["extracted_text"] for r in rows if r["status"] == "ok"]
    n = 0
    for text in texts:
        sentences = oracle.split_into_sentences(text)
        assert split_into_sentences(text) == sentences
        assert _bits(score_sentences(sentences)) == _bits(oracle.score_sentences(sentences))
        n += len(sentences)
    assert n > 50_000


def test_structure_cache_bounded_by_result_nbytes(corpus_rows):
    """The cached Structure is counted in the LRU byte estimate."""
    _, raw = corpus_rows
    results = [r for r in raw if r is not None]
    structures = build_structures([paragraph_layout(r[0], r[2]) for r in results])
    for result, s in zip(results, structures):
        used = s.spans.nbytes + s.paragraphs.nbytes
        text, _, paras, _ = result
        assert used <= _result_nbytes(result) - len(text) - sum(len(p["text"]) for p in paras)


# ------------------------------------------------------------- generated text

# Whitespace, terminators, word characters whose lowercase is not one code
# point or depends on context (İ, Σ), ẞ, combining marks, non-BMP letters,
# digits, underscores and stop words.
_PIECES = ([chr(c) for c in WHITESPACE] + list(".!?_0123456789")
           + ["İ", "Σ", "ς", "σ", "ẞ", "ß", "é", "̇", "𝐀", "😀", "a", "B",
              "the ", "and ", "yang ", "data ", "Data ", "DATA ", "model ", "ΣΟΦΟΣ ",
              "x_1 ", "3.14 ", "... ", "Dr. ", "word. ", "word! ", "word? "])
_text = st.lists(st.sampled_from(_PIECES), max_size=80).map("".join)
_ascii_text = st.lists(st.sampled_from([p for p in _PIECES if p.isascii()]),
                       max_size=80).map("".join)
_stop_sentences = st.lists(st.sampled_from(["the and is.", "yang dan.", "of to in!",
                                            "...", "it was?"]),
                           min_size=4, max_size=20).map(" ".join)
_texts = st.lists(st.one_of(_text, _ascii_text, _stop_sentences), max_size=6)


@settings(max_examples=400, deadline=None)
@given(_texts, st.sampled_from([(0.3, None), (0.3, 5), (0.5, 2), (0.1, None)]))
def test_generated_summaries(texts, params):
    """One batch of texts equals the oracle on each text alone: no token,
    sentence or count crosses from one text into the next."""
    ratio, k = params
    long_texts = [t * 4 for t in texts]  # past the 100-char gate
    got = summarize_all(texts + long_texts, ratio, k)
    want = [oracle.summarize(t, ratio, k) for t in texts + long_texts]
    assert got == want
    for s, t in zip(got, texts + long_texts):
        assert compression_ratio(s, t).hex() == oracle_ratio(s, t).hex()


def test_no_token_crosses_texts():
    """A text that ends inside a word, followed in the batch by a text that
    is not summarized (one sentence) and starts inside a word: the joined
    word must not reach the first text's counts, or its top 2 change."""
    first = ("alphaalpha betabeta. gammagamma deltadelta. word zetazeta. "
             "etaeta thetatheta. iotaiota kappakappa. word")
    second = "wordy " * 20
    want = [oracle.summarize(t, 0.3, 2) for t in (first, second)]
    assert want[0] == "word zetazeta. word"
    assert summarize_all([first, second], 0.3, 2) == want


@settings(max_examples=400, deadline=None)
@given(_text)
def test_generated_split_and_scores(text):
    sentences = oracle.split_into_sentences(text)
    assert split_into_sentences(text) == sentences
    assert _bits(score_sentences(sentences)) == _bits(oracle.score_sentences(sentences))
    # unsplit pieces too: sentences that hold whitespace and terminators
    pieces = text.split("a")
    assert _bits(score_sentences(pieces)) == _bits(oracle.score_sentences(pieces))


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(_text, st.integers(0, 2)), max_size=6),
       st.sampled_from(["\n\n", "", " ", "\n\n\n\n"]), st.booleans())
def test_generated_structure(paragraphs, sep, locatable):
    """Structure of kernel text joined from its paragraphs (and, when not
    locatable, of text that lacks them), several rows in one batch."""
    dicts = [{"text": t, "column": c, "x": i, "y": 2 * i} for i, (t, c) in enumerate(paragraphs)]
    text = sep.join(t for t, _ in paragraphs)
    if not locatable:
        text = "\x00" + text[::-1]
    rows = [(text, dicts), ("", []), (text + text, dicts + dicts)]
    got = extractor.structure_columns(build_structures(
        [paragraph_layout(t, d) for t, d in rows]))
    for i, (t, d) in enumerate(rows):
        paragraphs_, columns, spans, actions = oracle.build_structure(t, d)
        assert got["paragraphs"][i].as_py() == paragraphs_
        assert got["columns"][i].as_py() == columns
        assert got["spans"][i].as_py() == spans
        assert got["suggested_actions"][i].as_py() == actions
    assert build_structure(text, dicts) == tuple(
        oracle.build_structure(text, dicts)[j] for j in range(4))


def test_summary_stage_gate_and_nulls():
    texts = ["word " * 29, "word. " * 40, None, "", "ok " * 31 + "."]
    status = ["ok", "ok", "ok", "ok", "error"]
    out = summarize_batch(pa.table({
        "extracted_text": pa.array(texts, pa.string()), "status": status,
        "summary": pa.nulls(5, pa.string()),
        "compression_ratio": pa.nulls(5, pa.float64())}))
    assert out["summary"].to_pylist() == [texts[0], _oracle_summary(texts[1]), None, "", None]
    assert out["compression_ratio"].to_pylist() == [1.0, oracle_ratio(
        _oracle_summary(texts[1]), texts[1]), None, 0.0, None]
    assert summarize(None) is None and summarize("") == ""


# ----------------------------------------------------------- cost per char

def _text_layer(text: str) -> None:
    summarize_all([text], 0.3, 5)
    build_structures([paragraph_layout(text, [{"text": text}])])


def _seconds(text: str) -> float:
    best = math.inf
    for _ in range(3):
        t0 = time.perf_counter()
        _text_layer(text)
        best = min(best, time.perf_counter() - t0)
    return best


def _sized(unit: str, n_chars: int, head: str = "") -> str:
    return head + unit * ((n_chars - len(head)) // len(unit))


@pytest.mark.parametrize("make", [
    lambda n: _sized("word ", n, "One. Two. Three. "),   # one sentence, no terminator
    lambda n: _sized(". ", n),
    lambda n: _sized("x." + "\x1c" * 62, n),               # whitespace runs of \x1c
    lambda n: _sized("İstanbul σοφός ΣΟΦΟΣ ẞ naïve 𝐀. ", n),
], ids=["one_sentence", "dot_space", "fs_runs", "non_ascii"])
def test_cost_per_char_bounded(make):
    """Time per character at 1 MB is at most 3x that at 256 kB: nothing in
    the text layer grows with the longest sentence or run."""
    small, big = make(256 << 10), make(1 << 20)
    _text_layer(small)
    per_small = _seconds(small) / len(small)
    per_big = _seconds(big) / len(big)
    assert per_big <= 3 * per_small, (per_small, per_big)


# ------------------------------------------------------------ structure cache

def test_lru_hit_builds_no_structure(monkeypatch):
    pages, _ = generate_pages(300, 11)
    ex = ExtractorActor()
    first = ex(pages)
    assert ex.kernel_invocations > 0

    def fail(layouts):
        raise AssertionError("structure rebuilt on a cache hit")

    monkeypatch.setattr(extractor, "build_structures", fail)
    calls = ex.kernel_invocations
    second = ex(pages)
    assert ex.kernel_invocations == calls
    drop = ["processing_time_ms"]
    assert second.drop_columns(drop).equals(first.drop_columns(drop))
    assert pc.sum(pc.list_value_length(first["spans"])).as_py() > 1000

