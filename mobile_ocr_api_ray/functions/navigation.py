"""Navigation algebra + suggested actions (SURVEY.md §2.8 F7/F8).

The reference's ~400-LoC ``navigate_document`` (app.py:1440-1842) is a
stateful cursor over the per-page structure tree with clamped
next/previous/goto for each axis (page app.py:1500-1505, paragraph
app.py:1637-1642, sentence app.py:1721-1726, column app.py:1789-1795).
In the engine each row stores its structure once, as char spans into
``extracted_text``; ``structure_view`` rebuilds the reference's nested
paragraph/sentence dicts from them, and navigation over that view is O(1)
indexing.
"""

from __future__ import annotations

import numpy as np


def clamp_index(index: int, total: int) -> int:
    """F7 — clamp a navigation index into [0, total-1] (app.py:1500-1505).

    The reference applies ``max(0, min(index, total - 1))`` on every
    next/previous/goto; an empty axis (total == 0) pins to 0.
    """
    if total <= 0:
        return 0
    return max(0, min(index, total - 1))


def navigate(total: int, current: int, action: str, target: int | None = None) -> int:
    """One navigation step on one axis with the reference's clamping.

    action ∈ {'next', 'previous', 'goto'}; 'goto' uses ``target``
    (app.py:1487-1567 shows the same three-way branch per axis).
    """
    if action == "next":
        return clamp_index(current + 1, total)
    if action == "previous":
        return clamp_index(current - 1, total)
    if action == "goto":
        return clamp_index(target if target is not None else current, total)
    raise ValueError(f"unknown navigation action: {action!r}")


# F8 actions (app.py:980-1007), in the reference's order and wording
ACTIONS = (
    {"type": "read_by_paragraph", "description": "Read paragraph by paragraph"},
    {"type": "read_by_column", "description": "Read column by column"},
    {"type": "summarize", "description": "Read summary of text"},
    {"type": "read_full", "description": "Read full text"},
)


def action_flags(num_paragraphs, num_columns, total_sentences) -> np.ndarray:
    """F8 over arrays of rows: ``[..., j]`` is whether the row suggests
    ``ACTIONS[j]``."""
    num_paragraphs = np.asarray(num_paragraphs)
    return np.stack([num_paragraphs > 1, np.asarray(num_columns) > 1,
                     np.asarray(total_sentences) > 5,
                     np.ones(num_paragraphs.shape, bool)], axis=-1)


def suggested_actions(num_paragraphs: int, num_columns: int, total_sentences: int) -> list[dict]:
    """F8 — suggested-actions rule (app.py:980-1007), exact order and wording."""
    flags = action_flags(num_paragraphs, num_columns, total_sentences).tolist()
    return [dict(a) for a, on in zip(ACTIONS, flags) if on]


def structure_view(extracted_text: str, spans, paragraphs) -> list[dict]:
    """One row's structure as the reference's nested dicts (app.py:903-944):
    ``[{"id", "bounds", "text", "column", "sentences": [{"id", "text"}]}]``.

    Paragraph and sentence texts are sliced out of ``extracted_text`` by the
    row's spans; a paragraph without a span (the row's kernel text disagreed
    with its paragraphs) reads as empty. ``spans`` and ``paragraphs`` are the
    row's column values, as lists or numpy object arrays.
    """
    texts: dict[int, str] = {}
    sentences: dict[int, list[dict]] = {}
    for s in (spans if spans is not None else ()):
        seg = extracted_text[s["start"]:s["end"]]
        if s["kind"] == "paragraph":
            texts[s["para_id"]] = seg
        else:
            sentences.setdefault(s["para_id"], []).append({"id": s["sent_id"], "text": seg})
    return [{"id": p["id"], "bounds": p["bounds"], "text": texts.get(p["id"], ""),
             "column": p["column"], "sentences": sentences.get(p["id"], [])}
            for p in (paragraphs if paragraphs is not None else ())]


class NavigationView:
    """Read-only cursor over one extracted row's structure.

    Built from the row's ``extracted_text``, ``spans``, ``paragraphs`` and
    ``columns`` values; ``self.paragraphs`` is their ``structure_view``.
    Replaces the reference's SESSION_CACHE 'current' cursor
    (app.py:264-271) — state lives in this view object, data in the row.
    """

    def __init__(self, extracted_text: str, spans, paragraphs, columns):
        self.paragraphs = structure_view(extracted_text, spans, paragraphs)
        self.columns = list(columns) if columns is not None else []
        self.cursor = {"paragraph": 0, "sentence": 0, "column": 0}

    def step(self, axis: str, action: str, target: int | None = None) -> dict:
        if axis == "paragraph":
            total = len(self.paragraphs)
            self.cursor["paragraph"] = navigate(total, self.cursor["paragraph"], action, target)
            self.cursor["sentence"] = 0
        elif axis == "sentence":
            para = self.paragraphs[self.cursor["paragraph"]] if self.paragraphs else {"sentences": []}
            total = len(para["sentences"])
            self.cursor["sentence"] = navigate(total, self.cursor["sentence"], action, target)
        elif axis == "column":
            total = len(self.columns)
            self.cursor["column"] = navigate(total, self.cursor["column"], action, target)
        else:
            raise ValueError(f"unknown navigation axis: {axis!r}")
        return dict(self.cursor)

    def current_text(self, axis: str) -> str:
        if not self.paragraphs:
            return ""
        if axis == "paragraph":
            return self.paragraphs[self.cursor["paragraph"]]["text"]
        if axis == "sentence":
            sentences = self.paragraphs[self.cursor["paragraph"]]["sentences"]
            if not sentences:
                return ""
            return sentences[min(self.cursor["sentence"], len(sentences) - 1)]["text"]
        if axis == "column":
            if not self.columns:
                return ""
            col = self.columns[self.cursor["column"]]
            ids = col["paragraphs"]
            # column-scope text = that column's paragraph texts joined with
            # blank lines (app.py:1996-2005 summarize-by-column selection)
            by_id = {p["id"]: p for p in self.paragraphs}
            return "\n\n".join(by_id[i]["text"] for i in ids if i in by_id)
        raise ValueError(f"unknown navigation axis: {axis!r}")


def scope_text(extracted_text: str, spans, paragraphs, columns, scope: str,
               index: int = 0) -> str:
    """Summarize-scope text selection (app.py:1893-2011).

    'full' → all paragraph texts joined with blank lines (app.py:1905-1906);
    'paragraph' → paragraphs[index] text (clamped, app.py:1950-1960);
    'column' → that column's paragraph texts joined (app.py:1996-2005).
    The reference's 'page' scope addresses one page of a multi-page doc —
    in the engine that is a per-page row (pages_ops.explode_pdf_pages), so
    page scope is row selection, not an in-row walk.
    """
    view = NavigationView(extracted_text, spans, paragraphs, columns)
    if scope == "full":
        return "\n\n".join(p["text"] for p in view.paragraphs)
    if scope == "paragraph":
        if not view.paragraphs:
            return ""
        return view.paragraphs[clamp_index(index, len(view.paragraphs))]["text"]
    if scope == "column":
        if not view.columns:
            return ""
        view.cursor["column"] = clamp_index(index, len(view.columns))
        return view.current_text("column")
    raise ValueError(f"unknown summarize scope: {scope!r}")
