"""Unit vectors for the byte-exact scalar operators (FIXTURES.md §4).

Each vector transcribes the reference's observable semantics
(citations in mobile_ocr_api_ray/functions/textproc.py).
"""

import math
import operator
import os
import re
from collections import defaultdict
from functools import reduce

import pyarrow as pa
import pyarrow.parquet as pq
from hypothesis import given, settings
from hypothesis import strategies as st

from mobile_ocr_api_ray.functions import (
    STOP_WORDS,
    compression_ratio,
    join_pages,
    score_sentences,
    split_into_sentences,
    summarize,
    tokenize,
)
from mobile_ocr_api_ray.functions.navigation import clamp_index, navigate, suggested_actions
from mobile_ocr_api_ray.functions.routing import route_quality
from mobile_ocr_api_ray.pipelines.extract import (
    SUMMARY_MAX_SENTENCES,
    SUMMARY_MIN_WORDS,
    SUMMARY_RATIO,
    summarize_batch,
)


class TestSentenceSplit:  # F1, app.py:441-445
    def test_basic(self):
        assert split_into_sentences("A. B! C? D") == ["A.", "B!", "C?", "D"]

    def test_no_abbreviation_handling(self):
        # the reference regex has no abbreviation logic — "Dr. who" splits
        assert split_into_sentences("Dr. who") == ["Dr.", "who"]

    def test_strip_and_drop_empty(self):
        assert split_into_sentences("  One.   Two!  ") == ["One.", "Two!"]
        assert split_into_sentences("") == []
        assert split_into_sentences("   ") == []

    def test_no_split_without_space(self):
        # lookbehind requires whitespace AFTER the terminator
        assert split_into_sentences("a.b.c") == ["a.b.c"]

    def test_newline_separator(self):
        assert split_into_sentences("One.\nTwo.") == ["One.", "Two."]


def _ref_split_into_sentences(text):
    """The reference's F1, verbatim (app.py:441-445)."""
    sentences = re.split(r"(?<=[.!?])\s+", text)
    return [s.strip() for s in sentences if s.strip()]


class TestSentenceSplitExact:  # F1 against the reference's lookbehind split
    _pieces = st.sampled_from(["a", "Dr", "x_1", "İ", "ς", ".", "!", "?", "..", "?!",
                               " ", "  ", "\t", "\n", "\u3000", "\x1c", "\u2028",
                               "\xa0", ",", "'", "—"])

    @settings(max_examples=500, deadline=None)
    @given(st.lists(_pieces, max_size=30).map("".join))
    def test_generated_texts(self, text):
        assert split_into_sentences(text) == _ref_split_into_sentences(text)

    def test_corpus_texts(self, small_corpus):
        texts = pq.read_table(os.path.join(small_corpus, "golden.parquet"),
                              columns=["golden_text"])["golden_text"].to_pylist()
        texts = [t for t in texts if t]
        paragraphs = [p for t in texts for p in t.split("\n\n")]
        for text in texts + paragraphs:
            assert split_into_sentences(text) == _ref_split_into_sentences(text)

    def test_edges(self):
        for text in ["", " ", ".", ". ", " .", "a.", "a. ", "a.. b", "a .b", "x!\t\ty?",
                     "a.\u3000b", "  .  x", "a?!  b. c", "end.\n"]:
            assert split_into_sentences(text) == _ref_split_into_sentences(text), text


class TestTokenizer:  # F2, app.py:453
    def test_case_folding(self):
        assert tokenize("Hello WORLD") == ["hello", "world"]

    def test_punctuation_and_digits(self):
        assert tokenize("it's a 2-part word_x!") == ["it", "s", "a", "2", "part", "word_x"]


class TestScorer:  # F3, app.py:447-480
    def test_stopwords_excluded_from_freq(self):
        # "the" is a stopword: contributes nothing to freq, but its token
        # still counts in the per-sentence length divisor
        scores = score_sentences(["the data", "data data"])
        # freq: data=3 -> norm 1.0. s0: ("the" not in freq) + 1.0, len 2 -> 0.5
        # s1: 2.0 / 2 -> 1.0. n=2: i=0 < 0.4 -> x1.25; i=1 not > 1.6 -> no bonus
        assert math.isclose(scores[0], 0.5 * 1.25)
        assert math.isclose(scores[1], 1.0)

    def test_position_bonus_boundaries(self):
        # n=10: bonus iff i < 2.0 (i=0,1) or i > 8.0 (i=9) — strict
        sents = ["data data."] * 10
        scores = score_sentences(sents)
        base = scores[2]
        for i in (0, 1, 9):
            assert math.isclose(scores[i], base * 1.25)
        for i in range(2, 9):
            assert math.isclose(scores[i], base)

    def test_empty(self):
        assert score_sentences([]) == []
        assert score_sentences(["..."]) == [0 * 1.25]

    def test_stopword_set_verbatim(self):
        # spot-check the verbatim app2.py:627-645 set incl. Indonesian tail
        for w in ("yourselves", "yang", "adalah", "let's", "he'd"):
            assert w in STOP_WORDS
        assert len(STOP_WORDS) == 170  # 170 unique literals in app2.py:627-645


_REF_WORD = re.compile(r"\w+")


def _ref_score_sentences(sentences, stop_words=STOP_WORDS):
    """The reference's F3 loop, verbatim: the oracle of TestScorerExact."""
    tokens = [_REF_WORD.findall(sentence.lower()) for sentence in sentences]
    word_freq = defaultdict(int)
    for words in tokens:
        for word in words:
            if word not in stop_words:
                word_freq[word] += 1

    max_freq = max(word_freq.values()) if word_freq else 1
    word_freq = {word: freq / max_freq for word, freq in word_freq.items()}

    scores = []
    n = len(sentences)
    for i, words in enumerate(tokens):
        score = 0
        for word in words:
            if word in word_freq:
                score += word_freq[word]
        if words:
            score = score / len(words)
        if i < n * 0.2 or i > n * 0.8:
            score *= 1.25
        scores.append(score)
    return scores


def _bits(scores):
    """Type and exact float bits of each score."""
    return [(type(x), float(x).hex()) for x in scores]


# Tokens that stress the tokenizer and the counting: stop words, Greek
# final sigma, dotted capital I (lowercases to i + U+0307, which \w does not
# match), digits, underscores, punctuation-only runs.
_VOCAB = ["the", "and", "yang", "is", "data", "Data", "DATA", "model", "σοφός",
          "ΣΟΦΟΣ", "ς", "Σ", "İstanbul", "İ", "i̇", "2024", "3.14", "x_1", "_",
          "__init__", "word_x", "it's", "...", "—", "!?", "naïve", "straße"]

_sentence = st.lists(st.sampled_from(_VOCAB), max_size=12).map(" ".join)


class TestScorerExact:  # F3 floats, bit for bit against the reference loop
    def test_corpus_texts(self, small_corpus):
        texts = pq.read_table(os.path.join(small_corpus, "golden.parquet"),
                              columns=["golden_text"])["golden_text"].to_pylist()
        n = 0
        for text in texts:
            sentences = split_into_sentences(text or "")
            assert _bits(score_sentences(sentences)) == _bits(_ref_score_sentences(sentences))
            n += len(sentences)
        assert n > 1000

    @settings(max_examples=300, deadline=None)
    @given(st.lists(_sentence, max_size=12))
    def test_generated_sentences(self, sentences):
        assert _bits(score_sentences(sentences)) == _bits(_ref_score_sentences(sentences))

    def test_edge_sentences(self):
        cases = [["the and is", "yang the"],            # stop words only
                 ["...", "", "—!?", "data."],           # no tokens
                 ["ΣΟΦΟΣ σοφός ς.", "σοφοσ σοφος."],   # final sigma
                 ["İstanbul i̇stanbul.", "İ i"],         # dotted capital I
                 ["x_1 __init__ 2024 3.14", "_ _ 2024"]]
        for sentences in cases:
            assert _bits(score_sentences(sentences)) == _bits(_ref_score_sentences(sentences))
        # no token: the int 0 the loop starts from (no position bonus at
        # i = 1..3 of 5); tokens that are all stop words: 0 / len = 0.0
        got = _bits(score_sentences(["data.", "", "...", "the", "data."]))
        assert got[1:4] == [(int, "0x0.0p+0"), (int, "0x0.0p+0"), (float, "0x0.0p+0")]

    def test_left_to_right_sum(self):
        """1/3 + 1 + 1 is 0x1.2aaaaaaaaaaaap+1 left to right but ...aabp+1
        correctly rounded: a compensated sum (math.fsum, or builtin sum()
        on floats from Python 3.12) would change this score."""
        sentences = ["alpha beta gamma.", "beta gamma.", "beta gamma."]
        got = score_sentences(sentences)
        assert _bits(got) == _bits(_ref_score_sentences(sentences))
        norm = [1 / 3, 1.0, 1.0]
        assert got[0] == reduce(operator.add, norm, 0) / 3 * 1.25
        assert got[0] != math.fsum(norm) / 3 * 1.25


def _words_text(n_words: int) -> str:
    """n_words words in sentences of five, separated by mixed whitespace
    (str.split() whitespace), with whitespace at both ends."""
    seps = [" ", "\t", "\n", "  ", "\u3000", "\x1c", " \r\n "]
    words = [f"token{i % 7}x{i}" + ("." if i % 5 == 4 else "") for i in range(n_words)]
    body = "".join(w + seps[i % len(seps)] for i, w in enumerate(words))
    return "\u2003 \n" + body


class TestSummaryWordGate:  # app2.py:1336: < 30 words → text verbatim
    def test_gate_at_29_30_31_words(self):
        texts = [_words_text(n) for n in (29, 30, 31)]
        assert [len(t.split()) for t in texts] == [29, 30, 31]
        ok = pa.array(["ok"] * 3)
        out = summarize_batch(pa.table({"extracted_text": texts, "status": ok,
                                        "summary": pa.nulls(3, pa.string()),
                                        "compression_ratio": pa.nulls(3, pa.float64())}))
        got = out["summary"].to_pylist()
        assert got[0] == texts[0]
        for text, summary in zip(texts[1:], got[1:]):
            want = summarize(text, SUMMARY_RATIO, SUMMARY_MAX_SENTENCES)
            assert want != text and summary == want
        assert SUMMARY_MIN_WORDS == 30


class TestSummarize:  # F4/T1, app2.py:647-676
    def test_short_text_gate(self):
        t = "Short text."
        assert summarize(t) == t  # < 100 chars -> unchanged

    def test_few_sentences_gate(self):
        t = ("word " * 30).strip() + "."  # >100 chars, 1 sentence
        assert summarize(t) == t

    def test_ratio_and_k(self):
        sents = [f"unique{i} data system model value number{i}." for i in range(10)]
        t = " ".join(sents)
        out = summarize(t, ratio=0.3)
        # k = max(1, int(10*0.3)) = 3 sentences, re-sorted by position
        assert len(split_into_sentences(out)) == 3
        picked = split_into_sentences(out)
        positions = [sents.index(s) for s in picked]
        assert positions == sorted(positions)

    def test_max_sentences(self):
        sents = [f"unique{i} data system model value number{i}." for i in range(10)]
        out = summarize(" ".join(sents), ratio=0.9, max_sentences=2)
        assert len(split_into_sentences(out)) == 2

    def test_stable_tie_break(self):
        # identical sentences → identical scores → Python sorted stability
        # keeps the earliest ones (position bonus makes 0,1,9 win; re-sort
        # by position yields 0,1,9 order)
        sents = ["data system model value alpha beta."] * 10
        out = summarize(" ".join(sents), ratio=0.3)
        assert out == " ".join([sents[0], sents[1], sents[9]])

    def test_join_is_single_space(self):
        sents = [f"unique{i} data system model value number{i}." for i in range(8)]
        out = summarize(" ".join(sents), ratio=0.5)
        assert "\n" not in out


class TestMisc:
    def test_compression_ratio(self):  # F5, app.py:2033
        assert compression_ratio("ab", "abcd") == 0.5
        assert compression_ratio("", "") == 0.0

    def test_join_pages(self):  # F6, app.py:791
        assert join_pages(["a", "b"]) == "a\n\nb"

    def test_clamp(self):  # F7, app.py:1500-1505
        assert clamp_index(-1, 5) == 0
        assert clamp_index(7, 5) == 4
        assert clamp_index(2, 5) == 2
        assert clamp_index(3, 0) == 0

    def test_navigate(self):
        assert navigate(5, 4, "next") == 4
        assert navigate(5, 0, "previous") == 0
        assert navigate(5, 0, "goto", 99) == 4

    def test_suggested_actions(self):  # F8, app.py:980-1007
        a = suggested_actions(2, 2, 6)
        assert [x["type"] for x in a] == ["read_by_paragraph", "read_by_column",
                                         "summarize", "read_full"]
        assert [x["type"] for x in suggested_actions(1, 1, 2)] == ["read_full"]

    def test_route_quality(self):  # M9, app2.py:551-558,215-223
        assert route_quality("low") == ("fast", "fast", 800, 75)
        assert route_quality("medium") == ("balanced", "standard", 1200, 85)
        assert route_quality("high") == ("quality", "accurate", 2000, 90)
        assert route_quality("bogus") == route_quality("medium")  # app2.py:844-845


class TestHealthAndLanguages:
    def test_health_snapshot(self):
        import mobile_ocr_api_ray as m
        h = m.health()
        assert h["status"] == "ok"
        assert h["pyarrow"] and h["numpy"] and h["ray"]
        assert "html/default" in h["kernels"]
        assert "image/default" in h["kernels"]
        assert "pdf/default" in h["kernels"]

    def test_supported_languages(self):
        from mobile_ocr_api_ray.functions.routing import supported_languages
        langs = supported_languages()
        assert "eng" in langs and "ind" in langs and "eng+ind" in langs
        assert langs == sorted(langs)
