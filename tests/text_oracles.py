"""Oracles for the batch text layer: the per-row Python forms of F1, F3, F4,
F8 and the structure build, kept verbatim from before the batch rewrite
(``functions.textproc``, ``stages.extractor.build_structure`` and
``functions.navigation.suggested_actions``). ``test_text_batch`` checks the
package against them."""

from __future__ import annotations

import re
from collections import Counter
from itertools import chain

from mobile_ocr_api_ray.functions.stopwords import STOP_WORDS

# F1: the reference splits with r"(?<=[.!?])\s+" (app.py:444), i.e. at every
# whitespace run that follows . ! or ?. No abbreviation handling — "Dr. who"
# splits into two sentences, by design of the reference. Matching the
# terminator instead of looking behind for it finds the same runs, ~25%
# faster (the regex engine scans for the [.!?] prefix instead of trying
# the lookbehind at every character); split_into_sentences glues each
# captured terminator back onto its sentence.
_SENTENCE_SPLIT = re.compile(r"([.!?])\s+")
# F2: the exact token regex (app.py:453) — \w+ over lowercase text.
_WORD = re.compile(r"\w+")


def split_into_sentences(text: str) -> list[str]:
    """F1 — split text into sentences, strip, drop empties (app.py:441-445)."""
    parts = _SENTENCE_SPLIT.split(text)  # [text, terminator, text, ..., text]
    pieces = iter(parts)
    sentences = list(map(str.__add__, pieces, pieces))
    sentences.append(parts[-1])
    return [s for s in map(str.strip, sentences) if s]


def tokenize(sentence: str) -> list[str]:
    """F2 — ``re.findall(r'\\w+', sentence.lower())`` (app.py:453)."""
    return _WORD.findall(sentence.lower())


def score_sentences(sentences: list[str], stop_words=STOP_WORDS) -> list[float]:
    """F3 — frequency-based sentence importance (app.py:447-480).

    word_freq over non-stopword tokens, normalized by max frequency; sentence
    score = sum(norm_freq of its tokens present in word_freq) / len(tokens);
    x1.25 position bonus when i < 0.2*n or i > 0.8*n. All Python floats.

    Counting is one ``Counter`` over all tokens, stop words deleted after.
    Each sentence's sum stays the reference's left-to-right loop from int 0,
    so the floats are the reference's bit for bit. Not ``sum()``: from
    Python 3.12 it adds floats with compensation, which changes the last
    bits. Not ``reduce(operator.add, map(word_freq.get, ...))``: exact, but
    about 1.6x slower than the loop on CPython 3.11 (74k sentences).
    """
    tokens = [_WORD.findall(sentence.lower()) for sentence in sentences]
    word_freq = Counter(chain.from_iterable(tokens))
    for word in word_freq.keys() & stop_words:
        del word_freq[word]

    max_freq = max(word_freq.values()) if word_freq else 1
    word_freq = {word: freq / max_freq for word, freq in word_freq.items()}

    scores: list[float] = []
    n = len(sentences)
    for i, words in enumerate(tokens):
        score = 0
        for word in words:
            if word in word_freq:
                score += word_freq[word]
        if words:
            score = score / len(words)
        # position bonus — strict inequalities, exactly as the reference
        if i < n * 0.2 or i > n * 0.8:
            score *= 1.25
        scores.append(score)
    return scores


def summarize(text: str, ratio: float = 0.3, max_sentences: int | None = None) -> str:
    """F4 — extractive summary (app2.py:647-676; v2 semantics are canonical).

    Gates: empty / stripped length < 100 chars → return text unchanged;
    <= 3 sentences → return text unchanged. k = min(max_sentences, n) when
    max_sentences given else max(1, int(n*ratio)). Top-k by score with Python
    ``sorted`` stability (ties keep earlier sentence first because sort is
    stable and reverse=True preserves original order among equals), re-sorted
    by position, joined with a single space.
    """
    if not text or len(text.strip()) < 100:
        return text

    sentences = split_into_sentences(text)
    if len(sentences) <= 3:
        return text

    if max_sentences:
        num_sentences = min(max_sentences, len(sentences))
    else:
        num_sentences = max(1, int(len(sentences) * ratio))

    scores = score_sentences(sentences)
    ranked_indices = sorted(range(len(scores)), key=scores.__getitem__, reverse=True)[:num_sentences]
    ranked_indices.sort()
    return " ".join([sentences[i] for i in ranked_indices])


def suggested_actions(num_paragraphs: int, num_columns: int, total_sentences: int) -> list[dict]:
    """F8 — suggested-actions rule (app.py:980-1007), exact order and wording."""
    actions: list[dict] = []
    if num_paragraphs > 1:
        actions.append({"type": "read_by_paragraph", "description": "Read paragraph by paragraph"})
    if num_columns > 1:
        actions.append({"type": "read_by_column", "description": "Read column by column"})
    if total_sentences > 5:
        actions.append({"type": "summarize", "description": "Read summary of text"})
    actions.append({"type": "read_full", "description": "Read full text"})
    return actions


def build_structure(text: str, paragraph_dicts: list[dict]) -> tuple[list, list, list, list]:
    """Assemble (paragraphs, columns, spans, actions) for a kernel's
    ``text`` from its raw paragraph dicts: [{text, x, y, width, height, column}].

    Spans are char offsets into ``text``, one per paragraph and one per
    sentence (the reference's per-paragraph enumeration, app.py:903-909).
    Each paragraph is located in ``text`` after the previous one, so the
    separators are whatever the kernel joined with (a blank PDFX page
    leaves "\\n\\n\\n\\n"). If a paragraph cannot be located — a user
    kernel whose text disagrees with its paragraphs — the row keeps no
    spans. Columns group paragraph ids (app.py:934-944); actions follow F8
    (app.py:980-1007).
    """
    paragraphs, spans = [], []
    col_members: dict[int, list[int]] = {}
    cursor = 0
    located = True
    total_sentences = 0
    for pid, p in enumerate(paragraph_dicts):
        ptext = p["text"]
        col = int(p.get("column", 0))
        sentences = split_into_sentences(ptext)
        total_sentences += len(sentences)
        start = text.find(ptext, cursor) if located else -1
        located = start >= 0
        if located:
            s_cursor = 0
            for sid, s in enumerate(sentences):
                pos = ptext.find(s, s_cursor)
                spans.append({"kind": "sentence", "start": start + pos,
                              "end": start + pos + len(s), "para_id": pid,
                              "sent_id": sid, "column": col})
                s_cursor = pos + len(s)
            cursor = start + len(ptext)
            spans.append({"kind": "paragraph", "start": start, "end": cursor,
                          "para_id": pid, "sent_id": -1, "column": col})
        paragraphs.append({
            "id": pid,
            "bounds": {"x": int(p.get("x", 0)), "y": int(p.get("y", 0)),
                       "width": int(p.get("width", len(ptext))),
                       "height": int(p.get("height", 1))},
            "column": col,
        })
        col_members.setdefault(col, []).append(pid)
    columns = [{"id": c, "paragraphs": ids} for c, ids in sorted(col_members.items())]
    actions = suggested_actions(len(paragraphs), len(columns), total_sentences)
    return paragraphs, columns, spans if located else [], actions
