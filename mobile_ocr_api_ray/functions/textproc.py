"""Byte-exact text operators (SURVEY.md §2.8 F1–F6).

These reproduce the observable semantics of the reference's deterministic
text functions exactly — same split, same tokens, same gates, same float
math, same stable tie-breaking — because the engine's correctness invariant
is byte-identical output per url (BASELINE.json north_rule).

Reference citations (read-only at /root/reference/):
- F1 sentence split: app.py:441-445, app2.py:681-684
- F2 word tokenizer: app.py:453,464, app2.py:692,703
- F3 sentence scorer: app.py:447-480, app2.py:686-719
- F4 summarize (+ gates, top-k T1): app.py:401-439, app2.py:647-676
- F5 compression ratio: app.py:2033, app2.py:1351
- F6 page-text join: app.py:791

F1, F3 and F4 run over whole batches: every text of a batch becomes one
array of code points, and the split, the token counts and the scores are
numpy and Arrow passes over it, so tokens and sentences never become Python
objects (except the tokens of non-ASCII texts, below). The batch forms are
exact, not approximations of the reference's per-row Python loops:

- every frequency and score is a float64 computed by the same IEEE
  operation the reference does on Python floats (count / max count,
  sum / token count, × 1.25);
- each sentence's frequencies are added left to right from its first token,
  as the reference's loop does (``np.add.accumulate`` is a sequential loop;
  ``np.add.reduceat``, Arrow's ``sum`` and Python 3.12's ``sum()`` are
  not), and a stop word adds nothing instead of adding 0.0, which is the
  same for a non-negative sum;
- top-k is a stable sort on descending score, so ties keep the earlier
  sentence, like ``sorted(..., reverse=True)``.

``split_into_sentences``, ``score_sentences`` and ``summarize`` are one-row
calls of the batch forms.
"""

from __future__ import annotations

import re
from itertools import accumulate

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from .stopwords import STOP_WORDS

# F1: the reference splits with r"(?<=[.!?])\s+" (app.py:444), i.e. at every
# whitespace run that follows . ! or ?. No abbreviation handling — "Dr. who"
# splits into two sentences, by design of the reference. The pieces are
# stripped with str.strip() and empty ones dropped. For str patterns ``\s``
# and str.strip() both mean str.isspace(): these 29 code points.
WHITESPACE = (0x09, 0x0A, 0x0B, 0x0C, 0x0D, 0x1C, 0x1D, 0x1E, 0x1F, 0x20,
              0x85, 0xA0, 0x1680, *range(0x2000, 0x200B), 0x2028, 0x2029,
              0x202F, 0x205F, 0x3000)
# Code point class for F1: 1 whitespace, 2 terminator, 0 anything else
# (every code point above the table clips to its last entry, which is 0).
_F1_CLASS = np.zeros(max(WHITESPACE) + 2, np.uint8)
_F1_CLASS[list(WHITESPACE)] = 1
_F1_CLASS[[ord("."), ord("!"), ord("?")]] = 2

# F2: the exact token regex (app.py:453) — \w+ over lowercase text.
_WORD = re.compile(r"\w+")
# F2 on ASCII text: lowercase [0-9A-Za-z_] and map every other code point
# to 0 (those above the table clip to its last entry, which is 0).
_ASCII_WORD = np.zeros(256, np.uint8)
for _c in b"0123456789_abcdefghijklmnopqrstuvwxyz":
    _ASCII_WORD[_c] = _c
for _c in b"ABCDEFGHIJKLMNOPQRSTUVWXYZ":
    _ASCII_WORD[_c] = _c + 32
_STOP_WORDS = pa.array(sorted(STOP_WORDS), pa.string())


def code_points(text: str) -> np.ndarray:
    """``text`` as an array indexed like the str: its bytes when ASCII,
    else its UTF-32 code points."""
    if text.isascii():
        return np.frombuffer(text.encode("ascii"), np.uint8)
    return np.frombuffer(text.encode("utf-32-le", "surrogatepass"), np.uint32)


def _lookup(table: np.ndarray, cp: np.ndarray) -> np.ndarray:
    """``table[cp]``; a code point past the table reads its last entry.
    Bytes go through ``bytes.translate``, which makes no index array."""
    if cp.dtype == np.uint8:
        return np.frombuffer(cp.tobytes().translate(table[:256].tobytes()), np.uint8)
    return table.take(cp, mode="clip")


def _runs(mask: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """[start, end) of every run of True in ``mask``, and an empty run past
    its end."""
    edges = np.flatnonzero(mask[1:] != mask[:-1]) + 1
    if mask.size and mask[0]:
        edges = np.concatenate(([0], edges))
    if mask.size and mask[-1]:
        edges = np.concatenate((edges, [mask.size]))
    return np.append(edges[0::2], mask.size + 1), np.append(edges[1::2], mask.size + 1)


def sentence_bounds(cp: np.ndarray, starts, ends):
    """F1 over many texts at once — split, strip, drop empties (app.py:441-445).

    ``cp`` holds the code points of all texts; text ``r`` is ``cp[starts[r]:
    ends[r]]``, and the texts are ascending and do not overlap. Returns the
    ``[lo, hi)`` bounds of every sentence, in order, and the text of each.
    A sentence ends after a terminator that whitespace inside the same text
    follows; the next one starts after that whitespace run.
    """
    starts = np.asarray(starts, np.int64)
    ends = np.asarray(ends, np.int64)
    cls = _lookup(_F1_CLASS, cp)
    ws = cls == 1
    m = np.flatnonzero(cls == 2)
    del cls
    m = m[m + 1 < cp.size]
    m = m[ws[m + 1]]
    r = np.searchsorted(starts, m, "right") - 1
    inside = r >= 0
    inside[inside] = m[inside] + 1 < ends[r[inside]]
    m, r = m[inside], r[inside]
    run_lo, run_hi = _runs(ws)
    del ws

    def skip_ws(x):   # first non-whitespace position at or after x
        k = np.searchsorted(run_hi, x, "right")
        return np.where(run_lo[k] <= x, run_hi[k], x)

    def back_ws(y):   # y with the whitespace run that ends at y cut off
        k = np.searchsorted(run_hi, y - 1, "right")
        return np.where(run_lo[k] < y, run_lo[k], y)

    # text r has counts[r] + 1 pieces: one before each match, one after the last
    counts = np.bincount(r, minlength=starts.size)
    first = np.arange(starts.size) + np.cumsum(counts) - counts
    seg_lo = np.empty(starts.size + m.size, np.int64)
    seg_hi = np.empty_like(seg_lo)
    seg_lo[first] = starts
    seg_hi[first + counts] = ends
    before = np.arange(m.size) + r
    seg_hi[before] = m + 1
    seg_lo[before + 1] = np.minimum(skip_ws(m + 1), ends[r])
    seg_text = np.repeat(np.arange(starts.size), counts + 1)
    lo = np.minimum(skip_ws(seg_lo), seg_hi)
    hi = back_ws(seg_hi)
    keep = lo < hi
    return lo[keep], hi[keep], seg_text[keep]


def split_into_sentences(text: str) -> list[str]:
    """F1 on one text (app.py:441-445)."""
    lo, hi, _ = sentence_bounds(code_points(text), [0], [len(text)])
    return [text[a:b] for a, b in zip(lo.tolist(), hi.tolist())]


def tokenize(sentence: str) -> list[str]:
    """F2 — ``re.findall(r'\\w+', sentence.lower())`` (app.py:453)."""
    return _WORD.findall(sentence.lower())


def _ascii_tokens(cp: np.ndarray, cuts: np.ndarray) -> tuple[pa.Array, np.ndarray]:
    """F2 by byte table: every run of ``[0-9a-z_]`` after lowercasing, cut
    at ``cuts``, as (tokens, start of each token)."""
    word = _lookup(_ASCII_WORD, cp)
    w = word != 0
    cuts = cuts[(cuts > 0) & (cuts < cp.size)]
    first = w.copy()
    first[1:] &= ~w[:-1]
    first[cuts] = w[cuts]
    last = w.copy()
    last[:-1] &= ~w[1:]
    last[cuts - 1] = w[cuts - 1]
    lo = np.flatnonzero(first)
    del first
    offsets = np.zeros(lo.size + 1, np.int32)
    np.cumsum(np.flatnonzero(last) + 1 - lo, out=offsets[1:])
    data = word[w]
    return pa.StringArray.from_buffers(lo.size, pa.py_buffer(offsets),
                                       pa.py_buffer(data)), lo


def _scores(joined: str, cp: np.ndarray, lo: np.ndarray, hi: np.ndarray,
            row: np.ndarray, n_rows: int, ascii_rows: np.ndarray):
    """F3 over many texts at once (app.py:447-480).

    Sentence ``s`` is ``joined[lo[s]:hi[s]]`` and belongs to text ``row[s]``
    (non-decreasing); ``cp`` is ``code_points(joined)``. Per text: word_freq
    over its non-stopword tokens, normalized by its max frequency; sentence
    score = sum(norm_freq of its tokens present in word_freq) / len(tokens);
    x1.25 position bonus when i < 0.2*n or i > 0.8*n. Returns (scores,
    tokens per sentence).
    """
    n_sent = lo.size
    is_ascii = ascii_rows[row]
    tokens, tok_lo = _ascii_tokens(cp, np.concatenate((lo, hi)))
    sent = np.searchsorted(lo, tok_lo, "right") - 1
    valid = sent >= 0
    valid[valid] = (tok_lo[valid] < hi[sent[valid]]) & is_ascii[sent[valid]]
    n_ascii = len(tokens)
    # F2 for non-ASCII texts stays the regex over str.lower(): lowercasing
    # is not per code point ("İ".lower() is two of them)
    other = np.flatnonzero(~is_ascii)
    if other.size:
        found = [_WORD.findall(joined[a:b].lower())
                 for a, b in zip(lo[other].tolist(), hi[other].tolist())]
        tokens = pa.concat_arrays([tokens, pa.array(
            [t for ts in found for t in ts], pa.string())])
        sent = np.concatenate((sent[valid], np.repeat(other, [len(ts) for ts in found])))
    else:
        sent = sent[valid]
    encoded = pc.dictionary_encode(tokens)
    ids = encoded.indices.to_numpy()
    ids = np.concatenate((ids[:n_ascii][valid], ids[n_ascii:]))
    stop = pc.is_in(encoded.dictionary, value_set=_STOP_WORDS).to_numpy(
        zero_copy_only=False)
    del tokens, encoded, tok_lo, valid

    # word_freq per text: count each (text, word) pair, zero the stop words,
    # divide by the text's max count
    tok_row = row[sent]
    pairs = pc.dictionary_encode(pa.array(
        tok_row * np.int64(stop.size) + ids))
    pair_of_tok = pairs.indices.to_numpy()
    pair_key = pairs.dictionary.to_numpy()
    count = np.bincount(pair_of_tok)
    count[stop[pair_key % stop.size]] = 0
    max_count = np.zeros(n_rows, np.int64)
    np.maximum.at(max_count, pair_key // stop.size, count)
    freq = count[pair_of_tok] / np.maximum(max_count, 1)[tok_row]
    del pairs, pair_of_tok, pair_key, count, ids, tok_row

    # left-to-right sum per sentence: sentences of up to 2^e tokens are rows
    # of one zero-padded matrix, summed by a sequential accumulate; padding
    # at most doubles the tokens, whatever the longest sentence
    n_tok = np.bincount(sent, minlength=n_sent)
    tok_first = np.zeros(n_sent, np.int64)
    if sent.size:
        change = np.flatnonzero(np.diff(sent)) + 1
        tok_first[sent[change]] = change
    total = np.zeros(n_sent)
    has = np.flatnonzero(n_tok)
    width = np.frexp(n_tok[has] - 1)[1]
    for e in np.unique(width):
        s = has[width == e]
        k = n_tok[s]
        at_row = np.repeat(np.arange(s.size), k)
        at_col = np.arange(at_row.size) - np.repeat(np.cumsum(k) - k, k)
        mat = np.zeros((s.size, 1 << int(e)))
        mat[at_row, at_col] = freq[np.repeat(tok_first[s], k) + at_col]
        total[s] = np.add.accumulate(mat, axis=1, out=mat)[:, -1]
    score = total / np.maximum(n_tok, 1)

    # position bonus — strict inequalities, exactly as the reference
    per_row = np.bincount(row, minlength=n_rows)
    n = per_row[row]
    i = np.arange(n_sent) - (np.cumsum(per_row) - per_row)[row]
    bonus = (i < n * 0.2) | (i > n * 0.8)
    score[bonus] *= 1.25
    return score, n_tok


def score_sentences(sentences: list[str]) -> list[float]:
    """F3 on one list of sentences (app.py:447-480).

    A sentence without tokens keeps the int 0 the reference's loop starts
    from, unless the position bonus makes it 0.0.
    """
    if not sentences:
        return []
    joined = "".join(sentences)
    hi = np.fromiter(accumulate(map(len, sentences)), np.int64, len(sentences))
    lo = hi - [len(s) for s in sentences]
    score, n_tok = _scores(joined, code_points(joined), lo, hi,
                           np.zeros(len(sentences), np.int64), 1,
                           np.array([joined.isascii()]))
    n = len(sentences)
    return [0 if k == 0 and not (i < n * 0.2 or i > n * 0.8) else x
            for i, (x, k) in enumerate(zip(score.tolist(), n_tok.tolist()))]


def summarize_all(texts: list[str], ratio: float = 0.3,
                  max_sentences: int | None = None) -> list[str]:
    """F4 over many texts at once (app2.py:647-676; v2 semantics are canonical).

    Gates: empty / stripped length < 100 chars → text unchanged; <= 3
    sentences → text unchanged. k = min(max_sentences, n) when
    max_sentences given else max(1, int(n*ratio)). Top-k by score with
    Python ``sorted`` stability (ties keep the earlier sentence), re-sorted
    by position, joined with a single space.
    """
    out = list(texts)
    rows = [i for i, t in enumerate(texts) if t and len(t.strip()) >= 100]
    if not rows:
        return out
    joined = "".join(texts[i] for i in rows)
    bounds = np.fromiter(accumulate(len(texts[i]) for i in rows), np.int64, len(rows))
    cp = code_points(joined)
    lo, hi, row = sentence_bounds(cp, bounds - [len(texts[i]) for i in rows], bounds)
    n = np.bincount(row, minlength=len(rows))
    keep = n[row] > 3
    lo, hi, row = lo[keep], hi[keep], row[keep]
    if not lo.size:
        return out
    score, _ = _scores(joined, cp, lo, hi, row, len(rows),
                       np.array([texts[i].isascii() for i in rows]))
    del cp
    k = (np.minimum(max_sentences, n) if max_sentences
         else np.maximum(1, (n * ratio).astype(np.int64)))
    # lexsort is stable: by text, then descending score, then position
    order = np.lexsort((-score, row))
    n = np.where(n > 3, n, 0)
    ranked = np.arange(order.size) - (np.cumsum(n) - n)[row[order]]
    picked = np.sort(order[ranked < k[row[order]]])
    chosen: dict[int, list[str]] = {}
    for r, a, b in zip(row[picked].tolist(), lo[picked].tolist(), hi[picked].tolist()):
        chosen.setdefault(r, []).append(joined[a:b])
    for r, sentences in chosen.items():
        out[rows[r]] = " ".join(sentences)
    return out


def summarize(text: str, ratio: float = 0.3, max_sentences: int | None = None) -> str:
    """F4 on one text; see ``summarize_all``."""
    return summarize_all([text], ratio, max_sentences)[0]


def compression_ratio(summary: str, text: str) -> float:
    """F5 — len(summary)/len(text) (app.py:2033); 0.0 on empty text."""
    if not text:
        return 0.0
    return len(summary) / len(text)


def join_pages(page_texts: list[str]) -> str:
    """F6 — document text = page texts joined with blank line (app.py:791)."""
    return "\n\n".join(page_texts)
