"""The flagship extraction stage (SURVEY.md §2.3 A1).

``ExtractorActor`` is a callable class over pyarrow batches: engine state
(compiled regexes, glyph template stack, routing table, payload LRU) is
warm per instance via module import + ``__init__`` — the Ray-native
re-expression of the reference's module-global engine configuration
(app.py:240-251, app2.py:50-58). ``pipelines.extract`` holds one instance
per worker process and calls it from plain Ray tasks.

Per row, it reproduces the reference request lifecycle as data:

1. payload-kind sniff — magic bytes instead of filename extension
   (``is_pdf = filename.endswith('.pdf')``, app.py:1143); unknown/empty →
   ``status='rejected'`` row, the S2 whitelist rejection (app.py:317-320)
   as data instead of HTTP 400.
2. direct-text cheap path (M5) — if the row's ``text`` layer strips to
   > 50 chars it is emitted as-is with confidence 90.0 and the kernel is
   skipped, the exact PyPDF2 short-circuit (app.py:640-642).
3. kernel dispatch by kind: HTML → text-density/link-density boilerplate
   strip; IMGX → optimize→binarize→deskew→segment→recognize; PDFX → per-
   page image kernel + ordered "\\n\\n" join (app.py:755-791).
4. structure (M8/F8), eager per row: char-span offsets of every paragraph
   and sentence into ``extracted_text`` — the only stored copy of the
   structure text — plus paragraph bounds/columns, column membership and
   suggested actions. ``functions.navigation.structure_view`` turns the
   spans back into the reference's nested paragraph/sentence dicts, the
   navigate-time analysis of app.py:1508-1547.
5. per-row error isolation (M11): a failing row degrades exactly as the
   reference does — error string in the text field, confidence 0
   (app.py:602) — and never poisons its batch.

Confidence ladder preserved: 90.0 direct text · kernel mean-score · 80.0
no-evidence fallback · 0.0 error (app.py:593,642,810; BASELINE.md).
"""

from __future__ import annotations

import time

import numpy as np
import pyarrow as pa

from ..functions.navigation import suggested_actions
from ..functions.routing import route_quality
from ..functions.textproc import split_into_sentences
from ..schema import EXTRACTED_SCHEMA
from . import glyphs
from .html_extract import extract_html
from .image_extract import extract_image
from .registry import register_kernel, resolve_kernel

DIRECT_TEXT_MIN_CHARS = 50      # app.py:640: len(text.strip()) > 50
DIRECT_TEXT_CONFIDENCE = 90.0   # app.py:642
PAGE_JOIN = "\n\n"              # app.py:791


def sniff_kind(payload: bytes | None) -> str:
    if payload is None or len(payload) == 0:
        return "empty"
    if payload[:4] == glyphs.IMGX_MAGIC:
        return "image"
    if payload[:4] == glyphs.PDFX_MAGIC:
        return "pdf"
    head = payload[:256].lstrip()
    if head[:9].lower() == b"<!doctype" or head[:5].lower() == b"<html" or head[:1] == b"<":
        return "html"
    return "unknown"


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


def html_paragraph_dicts(kept_blocks: list[dict]) -> list[dict]:
    """HTML paragraphs: bounds are char-offset rects (x=0, y=start offset,
    width=len, height=1) — the DOM path has no pixel geometry (SURVEY.md §1.2);
    all blocks belong to column 0 (single reading flow)."""
    out, y = [], 0
    for b in kept_blocks:
        out.append({"text": b["text"], "x": 0, "y": y, "width": len(b["text"]),
                    "height": 1, "column": 0})
        y += len(b["text"]) + len(PAGE_JOIN)
    return out


# ---- default kernels (registry-dispatched; SURVEY.md §2.10) ------------
# Kernel contract: fn(payload, ctx) -> (text, confidence, paragraph_dicts,
# total_pages); ctx carries the routed params.

def html_kernel(payload: bytes, ctx: dict) -> tuple[str, float, list[dict], int]:
    text, conf, kept = extract_html(payload)
    return text, conf, html_paragraph_dicts(kept), 1


def image_kernel(payload: bytes, ctx: dict) -> tuple[str, float, list[dict], int]:
    img = glyphs.decode_imgx(payload)
    r = extract_image(img, ctx["preprocess_kind"], ctx["max_dim"],
                      ctx["do_deskew"], ctx.get("ocr_mode", "standard"),
                      ctx.get("lang"))
    return r["text"], r["confidence"], r["paragraphs"], 1


def pdf_kernel(payload: bytes, ctx: dict) -> tuple[str, float, list[dict], int]:
    # per-page image kernel, ordered join (app.py:755-791); page confidences
    # averaged with zero-exclusion (app.py:756-792 G2 semantics)
    page_payloads = glyphs.decode_pdfx(payload)
    page_texts, paragraphs, confs = [], [], []
    for page_payload in page_payloads:
        img = glyphs.decode_imgx(page_payload)
        r = extract_image(img, ctx["preprocess_kind"], ctx["max_dim"],
                          ctx["do_deskew"], ctx.get("ocr_mode", "standard"),
                          ctx.get("lang"))
        page_texts.append(r["text"])
        paragraphs.extend(r["paragraphs"])
        if r["confidence"] > 0:
            confs.append(r["confidence"])
    conf = sum(confs) / len(confs) if confs else 0.0
    return PAGE_JOIN.join(page_texts), conf, paragraphs, len(page_payloads)


register_kernel("html", "default", html_kernel)
register_kernel("image", "default", image_kernel)
register_kernel("pdf", "default", pdf_kernel)


def _result_nbytes(result: tuple) -> int:
    """Deterministic heap-size estimate of a cached kernel result
    (text, confidence, paragraph_dicts, total_pages): text + paragraph
    text bytes plus a fixed per-paragraph structure overhead. An estimate
    is enough — the byte cap bounds order-of-magnitude blowup, not exact
    accounting."""
    text, _, para_dicts, _ = result
    return (len(text) + sum(len(p.get("text", "")) + 128
                            for p in para_dicts) + 256)


class ExtractorActor:
    """Stateful extraction stage; ``pipelines.extract`` keeps one instance
    per worker process.

    ``kernels`` optionally overrides the extraction kernel per payload kind:
    a registry name (resolved in the worker at init — see registry.py for
    the distribution caveat) or the callable itself (serialized with the
    constructor args; the distribution-safe path for user kernels)."""

    def __init__(self, quality: str = "medium", build_spans: bool = True,
                 kernels: dict[str, str | object] | None = None,
                 build_visualization: bool = False,
                 lru_size: int = 512,
                 lru_bytes: int = 64 << 20):
        from collections import OrderedDict
        self.build_visualization = build_visualization
        # A2b: per-instance LRU keyed by (kind, lang, config, payload digest)
        # — repeats WITHIN a worker's stream skip the kernel entirely (the
        # reference's v2 result cache, app2.py:46-48, as warm worker state);
        # cross-cluster dedup is the separate D1 digest pipeline.
        # Bounded by BOTH entry count (lru_size, 0 disables) and result
        # BYTES (lru_bytes): 512 entries of multi-MB extractions would
        # otherwise pin GBs of heap per worker on a pathological corpus —
        # the cap evicts oldest-first until the estimate fits.
        self.lru_size = lru_size
        self.lru_bytes = lru_bytes
        self._lru_nbytes = 0
        self._lru: "OrderedDict[tuple, tuple]" = OrderedDict()
        from ..functions.routing import QUALITY_PARAMS
        self.quality = quality if quality in QUALITY_PARAMS else "medium"
        (self.preprocess_kind, self.ocr_mode,
         self.max_dim, self.jpeg_quality) = route_quality(self.quality)
        self.build_spans = build_spans
        self.kernel_invocations = 0  # dedup-property observability (A2)
        # deskew stays off unless a row's kernel_config says deskew=1
        self._ctx = {"preprocess_kind": self.preprocess_kind,
                     "ocr_mode": self.ocr_mode, "max_dim": self.max_dim,
                     "jpeg_quality": self.jpeg_quality, "do_deskew": False,
                     "quality": self.quality}
        overrides = kernels or {}
        self._kernels = {}
        for kind in ("html", "image", "pdf"):
            ov = overrides.get(kind, "default")
            self._kernels[kind] = (ov if callable(ov)
                                   else resolve_kernel(kind, ov))

    # ---- per-kind kernels ----------------------------------------------

    def _extract_payload(self, payload: bytes, kind: str,
                         lang: str | None,
                         config: "str | None" = None
                         ) -> tuple[str, float, list[dict], int]:
        """Returns (text, confidence, paragraph_dicts, total_pages); counts a
        kernel invocation on LRU miss only. ``config`` is the per-row raw
        config passthrough (reference app.py:567,580-581) — parsed into ctx
        overrides on top of the quality-routed params, and part of the LRU
        key (two rows with the same payload but different configs must not
        share a cached result, the v2 cache-key rule app2.py:330)."""
        import hashlib

        from ..functions.routing import parse_kernel_config

        lang = lang or "eng"
        key = None
        if self.lru_size:
            # sha256, not blake2b: with the SHA extensions of current x86
            # and ARM CPUs it hashes a multi-MB payload in about half the time
            key = (kind, lang, config or "",
                   hashlib.sha256(payload).digest())
            hit = self._lru.get(key)
            if hit is not None:
                self._lru.move_to_end(key)
                return hit
        ctx = dict(self._ctx)
        ctx["lang"] = lang  # per-row -l routing (app.py:567,1127)
        if config:
            ctx.update(parse_kernel_config(config))  # bad config raises → M11
        self.kernel_invocations += 1
        result = self._kernels[kind](payload, ctx)
        if key is not None:
            self._lru[key] = result
            self._lru_nbytes += _result_nbytes(result)
            while (len(self._lru) > self.lru_size
                   or (self.lru_bytes and self._lru_nbytes > self.lru_bytes)) \
                    and self._lru:
                _, old = self._lru.popitem(last=False)
                self._lru_nbytes -= _result_nbytes(old)
        return result

    def extract_row(self, url: str, payload: bytes | None, text_layer: str | None,
                    lang: str | None, config: "str | None" = None) -> dict:
        t0 = time.perf_counter()
        row = {
            "url": url, "extracted_text": "", "spans": [], "paragraphs": [],
            "columns": [], "suggested_actions": [], "total_pages": 0, "page": 0,
            "confidence": 0.0, "processing_time_ms": 0.0, "summary": None,
            "compression_ratio": None, "lang": lang or "eng",
            "quality": self.quality, "payload_kind": "unknown", "source": "kernel",
            "dedup_source_url": None, "visualization": None,
            "status": "ok", "error": None,
        }
        try:
            kind = sniff_kind(payload)
            row["payload_kind"] = kind
            if kind in ("empty", "unknown"):
                row["status"] = "rejected"
                row["error"] = "empty payload" if kind == "empty" else "unsupported payload type"
                row["processing_time_ms"] = (time.perf_counter() - t0) * 1e3
                return row
            stripped = (text_layer or "").strip()
            if len(stripped) > DIRECT_TEXT_MIN_CHARS:
                row["extracted_text"] = text_layer
                row["confidence"] = DIRECT_TEXT_CONFIDENCE
                row["source"] = "direct_text"
                row["total_pages"] = 1
                row["processing_time_ms"] = (time.perf_counter() - t0) * 1e3
                return row
            text, conf, para_dicts, total_pages = self._extract_payload(
                payload, kind, lang, config)
            row["extracted_text"] = text
            if self.build_spans:
                paragraphs, columns, spans, actions = build_structure(text, para_dicts)
                row.update(spans=spans, paragraphs=paragraphs, columns=columns,
                           suggested_actions=actions)
            row["confidence"] = conf
            row["total_pages"] = total_pages
            if self.build_visualization and kind in ("image", "pdf"):
                # S6: re-decode the (first) page, draw paragraph rects /
                # column separators; off by default — it inflates rows
                from .image_extract import draw_structure, optimize_image
                page0 = payload if kind == "image" else glyphs.decode_pdfx(payload)[0]
                img = optimize_image(glyphs.decode_imgx(page0), self.max_dim)
                row["visualization"] = glyphs.encode_imgx(
                    draw_structure(img, para_dicts))
        except Exception as e:  # M11: row-level degradation, never batch-fatal
            row["extracted_text"] = str(e)
            row["confidence"] = 0.0
            row["status"] = "error"
            row["error"] = str(e)
        row["processing_time_ms"] = (time.perf_counter() - t0) * 1e3
        return row

    def __call__(self, batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        urls = batch["url"].to_pylist()
        payloads = batch["html"].to_pylist()
        texts = batch["text"].to_pylist() if "text" in batch.column_names else [None] * n
        langs = batch["lang"].to_pylist() if "lang" in batch.column_names else [None] * n
        # per-row raw config passthrough column (reference app.py:580-581)
        cfgs = (batch["kernel_config"].to_pylist()
                if "kernel_config" in batch.column_names else [None] * n)
        rows = [self.extract_row(u, p, t, l, c)
                for u, p, t, l, c in zip(urls, payloads, texts, langs, cfgs)]
        return pa.Table.from_pylist(rows, schema=EXTRACTED_SCHEMA)
