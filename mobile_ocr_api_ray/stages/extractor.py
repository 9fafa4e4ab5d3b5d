"""The flagship extraction stage (SURVEY.md §2.3 A1).

``ExtractorActor`` is a callable class over pyarrow batches: engine state
(compiled regexes, glyph template stack, routing table, payload LRU) is
warm per instance via module import + ``__init__`` — the Ray-native
re-expression of the reference's module-global engine configuration
(app.py:240-251, app2.py:50-58). ``pipelines.extract`` holds one instance
per worker process and calls it from plain Ray tasks.

Per row, it reproduces the reference request lifecycle as data, and builds
its output table column by column:

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
4. structure (M8/F8), eager, for all kernel rows of the batch at once:
   char-span offsets of every paragraph and sentence into
   ``extracted_text`` — the only stored copy of the structure text — plus
   paragraph bounds/columns, column membership and suggested actions. It
   is cached with the kernel result, so a repeated payload builds none.
   ``functions.navigation.structure_view`` turns the spans back into the
   reference's nested paragraph/sentence dicts, the navigate-time analysis
   of app.py:1508-1547.
5. per-row error isolation (M11): a failing row degrades exactly as the
   reference does — error string in the text field, confidence 0
   (app.py:602) — and never poisons its batch.

Confidence ladder preserved: 90.0 direct text · kernel mean-score · 80.0
no-evidence fallback · 0.0 error (app.py:593,642,810; BASELINE.md).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from itertools import accumulate
from typing import NamedTuple

import numpy as np
import pyarrow as pa

from ..functions.navigation import ACTIONS, action_flags
from ..functions.routing import route_quality
from ..functions.textproc import code_points, sentence_bounds
from ..schema import (ACTION_TYPE, BOUNDS_TYPE, COLUMN_TYPE, EXTRACTED_SCHEMA,
                      PARAGRAPH_TYPE, SPAN_TYPE)
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


class Structure(NamedTuple):
    """One row's structure as flat arrays (cached with its kernel result)."""
    spans: np.ndarray       # (5, n) int64: start, end, para_id, sent_id, column
    paragraphs: np.ndarray  # (n_para, 5) int32: x, y, width, height, column
    sentences: int          # sentences of all paragraphs, located or not


class Layout(NamedTuple):
    """Where one row's paragraphs sit in the text the structure splits."""
    text: str               # the kernel's text, or its paragraphs joined
    starts: list[int]       # paragraph starts in ``text``
    lengths: list[int]      # paragraph lengths
    geometry: np.ndarray    # (n_para, 5) int32: x, y, width, height, column
    located: bool           # the paragraphs were found in the kernel's text


# paragraph dict key and default of each geometry column (None: the
# paragraph's length)
_GEOMETRY = (("x", 0), ("y", 0), ("width", None), ("height", 1), ("column", 0))


def paragraph_layout(text: str, paragraph_dicts: list[dict]) -> Layout:
    """The per-row half of the structure: where each raw paragraph dict
    [{text, x, y, width, height, column}] sits in the kernel's ``text``,
    and its geometry.

    Each paragraph is located in ``text`` after the previous one, so the
    separators are whatever the kernel joined with (a blank PDFX page
    leaves "\\n\\n\\n\\n"). If a paragraph cannot be located — a user
    kernel whose text disagrees with its paragraphs — the row keeps no
    spans, and its sentences are counted in the paragraphs themselves.
    """
    if not isinstance(text, str):
        raise TypeError(f"kernel text is {type(text).__name__}, not str")
    ptexts = [p["text"] for p in paragraph_dicts]
    lengths = [len(t) for t in ptexts]
    geometry = np.empty((len(ptexts), 5), np.int64)
    for j, (key, default) in enumerate(_GEOMETRY):
        geometry[:, j] = ([int(p.get(key, n)) for p, n in zip(paragraph_dicts, lengths)]
                          if default is None else
                          [int(p.get(key, default)) for p in paragraph_dicts])
    if geometry.size and not -2**31 <= geometry.min() <= geometry.max() < 2**31:
        raise OverflowError("paragraph geometry out of int32 range")
    starts, cursor = [], 0
    for t in ptexts:
        cursor = text.find(t, cursor)
        if cursor < 0:
            break
        starts.append(cursor)
        cursor += len(t)
    located = len(starts) == len(ptexts)
    if not located:
        text = "".join(ptexts)
        starts = [0, *accumulate(lengths)][:-1]
    return Layout(text, starts, lengths, geometry.astype(np.int32), located)


def build_structures(layouts: list[Layout]) -> list[Structure]:
    """The batch half of the structure: one F1 pass over every paragraph of
    every row's ``paragraph_layout``.

    Spans are char offsets into the row's text, for each paragraph its
    sentences and then the paragraph itself (the reference's per-paragraph
    enumeration, app.py:903-909); ``sent_id`` is -1 on paragraph spans.
    """
    base = np.cumsum([0] + [len(lay.text) for lay in layouts[:-1]])
    n_para = np.array([len(lay.starts) for lay in layouts], np.int64)
    para_row = np.repeat(np.arange(len(layouts)), n_para)
    p_start = np.concatenate([np.asarray(lay.starts, np.int64) for lay in layouts])
    p_end = p_start + np.concatenate([np.asarray(lay.lengths, np.int64) for lay in layouts])
    p_base = base[para_row]
    lo, hi, sent_para = sentence_bounds(code_points("".join(lay.text for lay in layouts)),
                                        p_start + p_base, p_end + p_base)
    per_para = np.bincount(sent_para, minlength=p_start.size)
    column = np.concatenate([lay.geometry[:, 4] for lay in layouts])
    para_id = np.arange(p_start.size) - (np.cumsum(n_para) - n_para)[para_row]
    sent_id = np.arange(lo.size) - (np.cumsum(per_para) - per_para)[sent_para]

    span_end = np.cumsum(per_para + 1)
    is_para = np.zeros(lo.size + p_start.size, bool)
    is_para[span_end - 1] = True
    spans = np.empty((5, is_para.size), np.int64)
    spans[:, ~is_para] = (lo - p_base[sent_para], hi - p_base[sent_para],
                          para_id[sent_para], sent_id, column[sent_para])
    spans[:, is_para] = (p_start, p_end, para_id, np.full(p_start.size, -1), column)

    row_bounds = np.concatenate(([0], span_end))[np.cumsum(np.append(0, n_para))]
    return [Structure(spans[:, a:b].copy() if lay.located else _NO_SPANS, lay.geometry,
                      b - a - k)
            for lay, a, b, k in zip(layouts, row_bounds[:-1].tolist(),
                                    row_bounds[1:].tolist(), n_para.tolist())]


_NO_SPANS = np.empty((5, 0), np.int64)
_SPAN_KINDS = pa.array(["sentence", "paragraph"], pa.string())
_ACTIONS = pa.array(ACTIONS, ACTION_TYPE)


def _list_offsets(lengths) -> pa.Array:
    return pa.array(np.concatenate(([0], np.cumsum(lengths))), pa.int32())


def structure_columns(structures: list[Structure | None]) -> dict[str, pa.Array]:
    """The ``spans``, ``paragraphs``, ``columns`` and ``suggested_actions``
    columns of a batch, built column by column from each row's Structure
    (None: the row has no structure and empty lists). Columns group
    paragraph ids (app.py:934-944); actions follow F8 (app.py:980-1007)."""
    have = [s for s in structures if s is not None]
    n_span = [s.spans.shape[1] if s is not None else 0 for s in structures]
    n_para = np.array([len(s.paragraphs) if s is not None else 0 for s in structures],
                      np.int64)
    spans = np.concatenate([_NO_SPANS] + [s.spans for s in have], axis=1)
    geo = np.concatenate([np.empty((0, 5), np.int32)] + [s.paragraphs for s in have])
    span_values = pa.StructArray.from_arrays(
        [_SPAN_KINDS.take(pa.array((spans[3] < 0).astype(np.int8))),
         pa.array(spans[0]), pa.array(spans[1])]
        + [pa.array(spans[i].astype(np.int32)) for i in (2, 3, 4)],
        fields=list(SPAN_TYPE))

    para_row = np.repeat(np.arange(len(structures)), n_para)
    para_id = (np.arange(geo.shape[0]) - (np.cumsum(n_para) - n_para)[para_row]).astype(np.int32)
    bounds = pa.StructArray.from_arrays([pa.array(geo[:, i]) for i in range(4)],
                                        fields=list(BOUNDS_TYPE))
    para_values = pa.StructArray.from_arrays(
        [pa.array(para_id), bounds, pa.array(geo[:, 4])], fields=list(PARAGRAPH_TYPE))

    # one column entry per distinct (row, column), paragraph ids in order
    order = np.lexsort((geo[:, 4], para_row))
    key_row, key_col = para_row[order], geo[order, 4]
    group = np.flatnonzero(np.diff(key_row, prepend=-1) | np.diff(key_col, prepend=-1))
    col_values = pa.StructArray.from_arrays(
        [pa.array(key_col[group]),
         pa.ListArray.from_arrays(_list_offsets(np.diff(np.append(group, order.size))),
                                  pa.array(para_id[order]))],
        fields=list(COLUMN_TYPE))
    n_col = np.bincount(key_row[group], minlength=len(structures))

    flags = action_flags(n_para, n_col, [s.sentences if s is not None else 0
                                         for s in structures])
    flags &= np.array([s is not None for s in structures], bool)[:, None]
    act_values = _ACTIONS.take(pa.array(np.flatnonzero(flags) % len(ACTIONS)))

    def lists(lengths, values, type_):
        return pa.ListArray.from_arrays(_list_offsets(lengths), values, type=pa.list_(type_))

    return {"spans": lists(n_span, span_values, SPAN_TYPE),
            "paragraphs": lists(n_para, para_values, PARAGRAPH_TYPE),
            "columns": lists(n_col, col_values, COLUMN_TYPE),
            "suggested_actions": lists(flags.sum(axis=1), act_values, ACTION_TYPE)}


def build_structure(text: str, paragraph_dicts: list[dict]) -> tuple[list, list, list, list]:
    """One row's (paragraphs, columns, spans, actions) as lists of dicts."""
    cols = structure_columns(build_structures([paragraph_layout(text, paragraph_dicts)]))
    return tuple(cols[name][0].as_py() for name in
                 ("paragraphs", "columns", "spans", "suggested_actions"))


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
    (text, confidence, paragraph_dicts, total_pages) and the Structure built
    from it: text + paragraph text bytes plus a fixed per-paragraph
    overhead, and 40 bytes per span and 20 per paragraph of geometry. A
    row has at most two spans per paragraph plus one per ``.``, ``!`` or
    ``?`` of its text (a sentence ends at a terminator or at the end of its
    paragraph). An estimate is enough — the byte cap bounds
    order-of-magnitude blowup, not exact accounting."""
    text, _, para_dicts, _ = result
    max_spans = 2 * len(para_dicts) + sum(map(text.count, ".!?"))
    return (len(text) + sum(len(p.get("text", "")) for p in para_dicts)
            + 148 * len(para_dicts) + 40 * max_spans + 512)


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

    def _cached(self, payload: bytes, kind: str, lang: str | None,
                config: "str | None" = None) -> "_Entry":
        """The row's cache entry (kernel result and its Structure);
        counts a kernel invocation on LRU miss only. ``config`` is the
        per-row raw config passthrough (reference app.py:567,580-581) —
        parsed into ctx overrides on top of the quality-routed params, and
        part of the LRU key (two rows with the same payload but different
        configs must not share a cached result, the v2 cache-key rule
        app2.py:330)."""
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
        entry = _Entry(self._kernels[kind](payload, ctx))
        if key is not None:
            entry.nbytes = _result_nbytes(entry.result)
            self._lru[key] = entry
            self._lru_nbytes += entry.nbytes
            while (len(self._lru) > self.lru_size
                   or (self.lru_bytes and self._lru_nbytes > self.lru_bytes)) \
                    and self._lru:
                _, old = self._lru.popitem(last=False)
                self._lru_nbytes -= old.nbytes
        return entry

    def _extract_payload(self, payload: bytes, kind: str,
                         lang: str | None,
                         config: "str | None" = None
                         ) -> tuple[str, float, list[dict], int]:
        """Returns the kernel result (text, confidence, paragraph_dicts,
        total_pages), from the LRU when it holds it."""
        return self._cached(payload, kind, lang, config).result

    def _extract(self, payload: bytes | None, text_layer: str | None,
                 lang: str | None, config: "str | None") -> "_Row":
        """One row up to its structure."""
        kind = "unknown"
        try:
            kind = sniff_kind(payload)
            if kind in ("empty", "unknown"):
                error = "empty payload" if kind == "empty" else "unsupported payload type"
                return _Row("rejected", error, kind, "kernel", "", 0.0, 0)
            if len((text_layer or "").strip()) > DIRECT_TEXT_MIN_CHARS:
                return _Row("ok", None, kind, "direct_text", text_layer,
                            DIRECT_TEXT_CONFIDENCE, 1)
            entry = self._cached(payload, kind, lang, config)
            text, conf, para_dicts, total_pages = entry.result
            visualization = None
            if self.build_visualization and kind in ("image", "pdf"):
                # S6: re-decode the (first) page, draw paragraph rects /
                # column separators; off by default — it inflates rows
                from .image_extract import draw_structure, optimize_image
                page0 = payload if kind == "image" else glyphs.decode_pdfx(payload)[0]
                img = optimize_image(glyphs.decode_imgx(page0), self.max_dim)
                visualization = glyphs.encode_imgx(draw_structure(img, para_dicts))
            return _Row("ok", None, kind, "kernel", text, conf, total_pages,
                        visualization, entry)
        except Exception as e:  # M11: row-level degradation, never batch-fatal
            return _error(kind, e)

    def extract_row(self, url: str, payload: bytes | None, text_layer: str | None,
                    lang: str | None, config: "str | None" = None) -> dict:
        """One row through the batch stage, as a dict."""
        return self(pa.table({
            "url": pa.array([url], pa.string()),
            "html": pa.array([payload], pa.binary()),
            "text": pa.array([text_layer], pa.string()),
            "lang": pa.array([lang], pa.string()),
            "kernel_config": pa.array([config], pa.string())})).to_pylist()[0]

    def __call__(self, batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        if n == 0:
            return EXTRACTED_SCHEMA.empty_table()
        payloads = batch["html"].to_pylist()
        texts = batch["text"].to_pylist() if "text" in batch.column_names else [None] * n
        langs = batch["lang"].to_pylist() if "lang" in batch.column_names else [None] * n
        # per-row raw config passthrough column (reference app.py:580-581)
        cfgs = (batch["kernel_config"].to_pylist()
                if "kernel_config" in batch.column_names else [None] * n)
        rows, ms = [], []
        for p, t, l, c in zip(payloads, texts, langs, cfgs):
            t0 = time.perf_counter()
            rows.append(self._extract(p, t, l, c))
            ms.append((time.perf_counter() - t0) * 1e3)

        structures: list[Structure | None] = [None] * n
        if self.build_spans:
            # (M8/F8) structure of every kernel row whose cache entry has
            # none yet, in one batch; a cache hit reuses the built one
            t0 = time.perf_counter()
            todo: dict[int, list[int]] = {}
            for i, row in enumerate(rows):
                if row.entry is not None and row.entry.structure is None:
                    todo.setdefault(id(row.entry), []).append(i)
            layouts, built = [], []
            for members in todo.values():
                entry = rows[members[0]].entry
                try:
                    layouts.append(paragraph_layout(entry.result[0], entry.result[2]))
                    built.append(entry)
                except Exception as e:  # M11
                    for i in members:
                        rows[i] = _error(rows[i].payload_kind, e)
            for entry, structure in zip(built, build_structures(layouts) if layouts else ()):
                entry.structure = structure
            share = (time.perf_counter() - t0) * 1e3 / max(1, sum(map(len, todo.values())))
            for i, row in enumerate(rows):
                if row.entry is not None:
                    structures[i] = row.entry.structure
                    if id(row.entry) in todo:
                        ms[i] += share

        (status, error, kind, source, text, conf, pages, visualization,
         _) = zip(*rows)
        columns = {
            "url": batch["url"],
            "extracted_text": pa.array(text, pa.string()),
            **structure_columns(structures),
            "total_pages": pa.array(pages, pa.int32()),
            "page": pa.array(np.zeros(n, np.int32)),
            "confidence": pa.array(conf, pa.float64()),
            "processing_time_ms": pa.array(ms, pa.float64()),
            "summary": pa.nulls(n, pa.string()),
            "compression_ratio": pa.nulls(n, pa.float64()),
            "lang": pa.array([l or "eng" for l in langs], pa.string()),
            "quality": pa.array([self.quality] * n, pa.string()),
            "payload_kind": pa.array(kind, pa.string()),
            "source": pa.array(source, pa.string()),
            "dedup_source_url": pa.nulls(n, pa.string()),
            "visualization": pa.array(visualization, pa.binary()),
            "status": pa.array(status, pa.string()),
            "error": pa.array(error, pa.string()),
        }
        return pa.Table.from_arrays([columns[f.name] for f in EXTRACTED_SCHEMA],
                                    schema=EXTRACTED_SCHEMA)


@dataclass(slots=True)
class _Entry:
    """A cached kernel result (text, confidence, paragraph_dicts,
    total_pages), the Structure built from it, and its byte estimate."""
    result: tuple
    structure: Structure | None = None
    nbytes: int = 0


class _Row(NamedTuple):
    """One row up to its structure; ``entry`` is set on kernel rows."""
    status: str
    error: str | None
    payload_kind: str
    source: str
    extracted_text: str
    confidence: float
    total_pages: int
    visualization: bytes | None = None
    entry: _Entry | None = None


def _error(kind: str, e: Exception) -> _Row:
    """M11: a failing row keeps the error as its text, with confidence 0
    (app.py:602)."""
    return _Row("error", str(e), kind, "kernel", str(e), 0.0, 0)
