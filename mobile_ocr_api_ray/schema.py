"""Explicit Arrow schemas for the engine's tables (SURVEY.md §1.2).

The reference keeps schema implicit in lazily-mutated dicts
(app.py:1270-1280,1386-1403); the engine fixes one explicit schema for the
input ``pages`` table (BASELINE.json input_hint) and one for the
``extracted`` output table. Lazily-added reference keys become nullable
columns.
"""

from __future__ import annotations

import pyarrow as pa

# Input table — exactly the BASELINE.json input_hint shape.
PAGES_SCHEMA = pa.schema(
    [
        pa.field("url", pa.string()),          # primary key (reference file_id, app.py:1132)
        pa.field("warc_ts", pa.timestamp("us")),  # reference upload_time (app.py:1142)
        pa.field("html", pa.binary()),         # raw payload bytes (reference: file on disk, app.py:1134)
        pa.field("text", pa.string()),         # direct-text layer (reference PyPDF2 path, app.py:639)
        pa.field("lang", pa.string()),         # reference language param (app.py:1127)
    ]
)

BOUNDS_TYPE = pa.struct(
    [("x", pa.int32()), ("y", pa.int32()), ("width", pa.int32()), ("height", pa.int32())]
)

# Paragraph and sentence texts are not stored: ``spans`` is the one copy of
# the structure, read back through functions.navigation.structure_view.
PARAGRAPH_TYPE = pa.struct(
    [("id", pa.int32()), ("bounds", BOUNDS_TYPE), ("column", pa.int32())]
)

COLUMN_TYPE = pa.struct([("id", pa.int32()), ("paragraphs", pa.list_(pa.int32()))])

SPAN_TYPE = pa.struct(
    [
        ("kind", pa.string()),     # 'paragraph' | 'sentence'
        ("start", pa.int64()),     # char offset into extracted_text
        ("end", pa.int64()),
        ("para_id", pa.int32()),
        ("sent_id", pa.int32()),   # -1 for paragraph spans
        ("column", pa.int32()),
    ]
)

ACTION_TYPE = pa.struct([("type", pa.string()), ("description", pa.string())])

# Output table — replaces the reference's per-request JSON responses
# (app.py:1322-1331, app2.py:1000-1008).
EXTRACTED_SCHEMA = pa.schema(
    [
        pa.field("url", pa.string()),
        pa.field("extracted_text", pa.string()),   # byte-identical invariant target
        pa.field("spans", pa.list_(SPAN_TYPE)),
        pa.field("paragraphs", pa.list_(PARAGRAPH_TYPE)),
        pa.field("columns", pa.list_(COLUMN_TYPE)),
        pa.field("suggested_actions", pa.list_(ACTION_TYPE)),  # app.py:980-1007
        pa.field("total_pages", pa.int32()),       # app.py:1326
        pa.field("page", pa.int32()),              # app.py:1327
        pa.field("confidence", pa.float64()),      # app.py:589-593
        pa.field("processing_time_ms", pa.float64()),  # app.py:1329 (excluded from diffs)
        pa.field("summary", pa.string()),          # app.py:2030
        pa.field("compression_ratio", pa.float64()),   # app.py:2033
        pa.field("lang", pa.string()),
        pa.field("quality", pa.string()),          # app2.py:841-845
        pa.field("payload_kind", pa.string()),     # html|image|pdf|empty|unknown (is_pdf branch, app.py:1224)
        pa.field("source", pa.string()),           # direct_text|kernel|dedup (confidence ladder provenance)
        pa.field("dedup_source_url", pa.string()), # reference OCR_CACHE 'from_cache' analog (app2.py:330-336)
        pa.field("visualization", pa.binary()),    # S6 annotated-structure IMGX; null unless enabled (app.py:954-966)
        pa.field("status", pa.string()),           # ok|rejected|error (M11)
        pa.field("error", pa.string()),
    ]
)
