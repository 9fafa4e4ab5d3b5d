"""HTML main-content extraction — text-density + link-density boilerplate
stripping (Readability/trafilatura-style heuristic).

This is the engine's dominant-path analog of the reference's per-image OCR
(SURVEY.md §2.2 M3/M8): where the reference runs Tesseract over an uploaded
bitmap (app.py:560-602) and segments regions into paragraphs
(app.py:828-1013), the HTML path segments the document into candidate text
blocks and keeps the content-dense, link-poor ones.

Extraction spec (deterministic; goldens in the synthetic corpus are
generated against this spec from known-good content, NOT by running this
code — tests meet at byte equality):

1. Decode payload as UTF-8 (``errors='replace'``).
2. Drop ``<script>``, ``<style>``, ``<noscript>``, ``<template>`` elements
   including content.
3. Candidate blocks = every ``<p>``, ``<h1>``..``<h6>``, ``<li>``,
   ``<blockquote>``, ``<pre>`` element, in document order.
4. Per block: visible text = strip all tags, unescape HTML entities,
   collapse whitespace (``" ".join(s.split())``); ``link_chars`` = visible
   chars inside ``<a>`` elements (same collapse rule);
   ``link_density = link_chars / max(1, total_chars)``.
5. Keep a block iff ``len(text) >= MIN_BLOCK_CHARS (25)`` and
   ``link_density < MAX_LINK_DENSITY (0.33)``.
6. ``extracted_text`` = kept block texts joined with ``"\\n\\n"``
   (the reference's page-join separator, app.py:791).
7. ``confidence`` = mean over kept blocks of ``100.0 * (1 - link_density)``
   (per-token-confidence mean analog, app.py:586-593); fallback 80.0 when
   nothing is kept (confidence-calc-failure ladder rung, app2.py:369).

All regexes are compiled at module import — once per worker process
(the load-once state of these pure kernels).
"""

from __future__ import annotations

import html as _html
import re

MIN_BLOCK_CHARS = 25
MAX_LINK_DENSITY = 0.33

_DROP_ELEMENTS = re.compile(
    r"<(script|style|noscript|template)\b[^>]*>.*?</\1\s*>",
    re.IGNORECASE | re.DOTALL,
)
_BLOCK = re.compile(
    r"<(p|h[1-6]|li|blockquote|pre)\b[^>]*>(.*?)</\1\s*>",
    re.IGNORECASE | re.DOTALL,
)
_ANCHOR = re.compile(r"<a\b[^>]*>(.*?)</a\s*>", re.IGNORECASE | re.DOTALL)
_TAG = re.compile(r"<[^>]+>")


def _visible_text(fragment: str) -> str:
    """Strip tags, unescape entities, collapse whitespace."""
    no_tags = _TAG.sub(" ", fragment)
    return " ".join(_html.unescape(no_tags).split())


def segment_blocks(html_bytes: bytes) -> list[dict]:
    """Steps 1-4: candidate blocks with text + link density, document order."""
    doc = html_bytes.decode("utf-8", errors="replace")
    doc = _DROP_ELEMENTS.sub(" ", doc)
    blocks: list[dict] = []
    for m in _BLOCK.finditer(doc):
        tag = m.group(1).lower()
        inner = m.group(2)
        text = _visible_text(inner)
        link_chars = sum(len(_visible_text(a.group(1))) for a in _ANCHOR.finditer(inner))
        total = len(text)
        link_density = link_chars / max(1, total)
        blocks.append(
            {"tag": tag, "text": text, "link_density": link_density, "n_chars": total}
        )
    return blocks


def keep_block(block: dict) -> bool:
    """Step 5 filter."""
    return block["n_chars"] >= MIN_BLOCK_CHARS and block["link_density"] < MAX_LINK_DENSITY


def extract_html(html_bytes: bytes) -> tuple[str, float, list[dict]]:
    """Full spec: returns (extracted_text, confidence, kept_blocks)."""
    blocks = segment_blocks(html_bytes)
    kept = [b for b in blocks if keep_block(b)]
    text = "\n\n".join(b["text"] for b in kept)
    if kept:
        confidence = sum(100.0 * (1.0 - b["link_density"]) for b in kept) / len(kept)
    else:
        confidence = 80.0 if blocks else 0.0
    return text, confidence, kept


# ---------------------------------------------------------- page metadata

_TITLE = re.compile(r"<title\b[^>]*>(.*?)</title\s*>",
                    re.IGNORECASE | re.DOTALL)
# quoted attribute values may contain '>' — consume quoted runs atomically;
# the quoted runs exclude '<' so an UNCLOSED quote can't swallow following
# markup (it just fails the tag match → meta skipped, desc stays "")
_META = re.compile(r"""<meta\b(?:[^>"']|"[^"<]*"|'[^'<]*')*>""",
                   re.IGNORECASE)
_META_NAME_DESC = re.compile(
    r"""\bname\s*=\s*("description"|'description'|description\b)""",
    re.IGNORECASE)
_META_CONTENT = re.compile(
    r"""\bcontent\s*=\s*("([^"]*)"|'([^']*)')""", re.IGNORECASE)


def page_metadata(html_bytes: bytes) -> tuple[str, str]:
    """(title, meta_description) of one page — the trafilatura-style
    metadata companion to main-content extraction. Deterministic spec:
    script/style/noscript/template content dropped first; first ``<title>``
    element and first ``<meta name=description>`` content attribute win;
    both values are entity-unescaped and whitespace-collapsed (same rule
    as block visible text); absent → empty string."""
    doc = html_bytes.decode("utf-8", errors="replace")
    doc = _DROP_ELEMENTS.sub(" ", doc)
    m = _TITLE.search(doc)
    title = _visible_text(m.group(1)) if m else ""
    desc = ""
    for tag in _META.finditer(doc):
        t = tag.group(0)
        if not _META_NAME_DESC.search(t):
            continue
        c = _META_CONTENT.search(t)
        if c:
            desc = " ".join(_html.unescape(
                c.group(2) if c.group(2) is not None else c.group(3)).split())
        break
    return title, desc
