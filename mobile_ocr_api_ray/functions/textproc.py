"""Byte-exact scalar text operators (SURVEY.md §2.8 F1–F6).

These reproduce the observable semantics of the reference's deterministic
text functions exactly — same regexes, same gates, same Python-float math,
same stable tie-breaking — because the engine's correctness invariant is
byte-identical output per url (BASELINE.json north_rule).

Reference citations (read-only at /root/reference/):
- F1 sentence split: app.py:441-445, app2.py:681-684
- F2 word tokenizer: app.py:453,464, app2.py:692,703
- F3 sentence scorer: app.py:447-480, app2.py:686-719
- F4 summarize (+ gates, top-k T1): app.py:401-439, app2.py:647-676
- F5 compression ratio: app.py:2033, app2.py:1351
- F6 page-text join: app.py:791

They are plain Python on purpose: each is applied per-row inside vectorized
``map_batches`` stages; the math itself must stay Python-float (not
numpy-float32) for determinism (SURVEY.md §7 "Hard parts").
"""

from __future__ import annotations

import re
from collections import Counter
from itertools import chain

from .stopwords import STOP_WORDS

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


def compression_ratio(summary: str, text: str) -> float:
    """F5 — len(summary)/len(text) (app.py:2033); 0.0 on empty text."""
    if not text:
        return 0.0
    return len(summary) / len(text)


def join_pages(page_texts: list[str]) -> str:
    """F6 — document text = page texts joined with blank line (app.py:791)."""
    return "\n\n".join(page_texts)
