"""Bitmap OCR kernels: optimize → binarize → deskew → segment → recognize.

Re-expresses the reference's image pipeline stage-for-stage with the same
tuned constants, over the deterministic IMGX glyph raster (no Tesseract in
the sandbox — SURVEY.md §7):

- M1 optimize_image_for_mobile: aspect-preserving downscale when a dimension
  exceeds the quality tier's max_dim — v1 cap 1500 (app.py:323), v2 tiers
  800/1200/2000 (app2.py:215-223). Formula replicated exactly
  (``new_h = int(h * (max_dim / w))``); nearest-neighbor for determinism.
- M2 preprocess_image kernels, selected by ``preprocess_kind``
  (app.py:487-558, app2.py:250-312):
    fast      — global threshold at 128 (app2.py:287)
    balanced  — 3x3 Gaussian blur + adaptive Gaussian threshold(11, 2)
                (app2.py:296-301)
    quality   — 3x3 Gaussian + Otsu + morph-close 1x1 (identity close —
                faithful to the reference's (1,1) kernel, app2.py:291-294)
    default   — 3x3 Gaussian + Otsu (v1, app.py:550-556)
- deskew: projection-profile search over ±3° (the reference delegates skew
  to Tesseract's --psm 3 page analysis; here it is explicit).
- M8 analyze_document_structure analog: line bands from row profiles,
  region filter area ∈ (0.001·WH, 0.8·WH) and aspect 0.1 < w/h < 10
  (app.py:867-883), paragraphs from inter-line gaps, columns from the
  x-gap > 10%·width rule (app.py:916-944).
- M3/M4 recognize: per-cell template match against the glyph table;
  confidence = mean per-glyph match score ×100, fallback 80.0 when no
  glyphs (app.py:586-593 mean-word-confidence + 80.0 fallback). A page is
  recognized in one pass: layout lays out the character grid of every
  line band, then the page's cells are grouped by shape and each group is
  scored against all templates with float32 matmuls over unpacked bits,
  ``2·a·t − |a| − |t|`` = −hamming, one per slice of ``_MATMUL_BITS`` bits
  and summed in float64. A slice's dot product is an integer of at most
  2^14 < 2^24 and the total at most 2^32 < 2^53, so the scores are exact.

All pure numpy, module-level state (font stack) built once per worker.
"""

from __future__ import annotations

import numpy as np

from .glyphs import BG, FONT_CHARS, FONT_STACK, GLYPH_H, GLYPH_W, rotate_nn

# ---------------------------------------------------------------- M1 optimize

def optimize_image(img: np.ndarray, max_dim: int) -> np.ndarray:
    """Downscale when larger than max_dim, aspect preserved (app2.py:225-236)."""
    h, w = img.shape
    if w <= max_dim and h <= max_dim:
        return img
    if w > h:
        new_w = max_dim
        new_h = int(h * (max_dim / w))
    else:
        new_h = max_dim
        new_w = int(w * (max_dim / h))
    ys = (np.arange(new_h) * h // new_h).astype(np.int64)
    xs = (np.arange(new_w) * w // new_w).astype(np.int64)
    return img.take(ys, 0).take(xs, 1)  # = img[np.ix_(ys, xs)], ~4x faster


# ------------------------------------------------------------- M2 binarizers

def _gaussian_blur3(img: np.ndarray) -> np.ndarray:
    """Separable 3x3 Gaussian ([1,2,1]/4 each axis), reflect borders,
    rounded back to uint8 — integer arithmetic throughout (cv2's
    GaussianBlur likewise produces uint8; float64 passes here saturate
    memory bandwidth at high process counts and kill scaling). Each axis is
    [1,1] applied twice: two uint16 adds of shifted views, with no 2-D pad
    and no temporary per kernel term."""
    h, w = img.shape
    p = np.empty((h, w + 2), dtype=np.uint16)      # 1-px reflect pad along x
    p[:, 1:-1] = img
    p[:, 0] = img[:, 1] if w > 1 else img[:, 0]     # a 1-px axis reflects to itself
    p[:, -1] = img[:, -2] if w > 1 else img[:, 0]
    pairs = p[:, :-1] + p[:, 1:]
    v = np.empty((h + 2, w), dtype=np.uint16)      # same pad along y
    np.add(pairs[:, :-1], pairs[:, 1:], out=v[1:-1])                 # <= 1020
    v[0] = v[2] if h > 1 else v[1]
    v[-1] = v[-3] if h > 1 else v[1]
    pairs = v[:-1] + v[1:]
    total = pairs[:-1]
    total += pairs[1:]                                                # <= 4080
    total += 8
    total >>= 4                                                       # /16 rounded
    return total.astype(np.uint8)


# From about this many pixels up, _histogram counts pixel pairs: below it,
# zeroing and folding the 65,536-bin table costs more than it saves (a
# 1200-wide text band has ~67k pixels, a page over a million).
_PAIR_HISTOGRAM_MIN = 1 << 17


def _histogram(img: np.ndarray) -> np.ndarray:
    """256-bin int64 histogram of a uint8 image, = ``np.bincount(img.ravel(),
    minlength=256)``. A large image is bincounted as uint16 PAIRS of pixels
    (65,536 bins, half as many elements to widen to intp), and that table
    is folded by row and by column sums, which counts both bytes of each
    pair whatever the byte order; an odd last pixel is added on its own."""
    flat = img.ravel()
    if flat.size < _PAIR_HISTOGRAM_MIN:
        return np.bincount(flat, minlength=256)
    even = flat.size & ~1
    pairs = np.bincount(flat[:even].view(np.uint16),
                        minlength=1 << 16).reshape(256, 256)
    hist = pairs.sum(axis=0) + pairs.sum(axis=1)
    if even < flat.size:
        hist[flat[-1]] += 1
    return hist


def _otsu_threshold(img: np.ndarray) -> float:
    """Otsu threshold of a uint8 image (histogram from _histogram)."""
    hist = _histogram(img).astype(np.float64)
    total = hist.sum()
    if total == 0:
        return 127.0
    if np.count_nonzero(hist) == 1:
        return 0.0  # one intensity: no split exists; OpenCV's THRESH_OTSU gives 0
    omega = np.cumsum(hist) / total
    mu = np.cumsum(hist * np.arange(256)) / total
    mu_t = mu[-1]
    denom = omega * (1.0 - omega)
    denom[denom == 0] = np.nan
    sigma_b = (mu_t * omega - mu) ** 2 / denom
    return float(np.nanargmax(sigma_b))


def _window_sums(a: np.ndarray, k: int, axis: int) -> np.ndarray:
    """Sums of k consecutive entries of ``a`` along ``axis`` (n → n - k + 1
    entries), in a's dtype. Built from power-of-two windows: width 2w is
    one add of two shifted width-w views, and the width-w windows picked by
    the bits of k, laid end to end, make up the width-k window. That is a
    few full-array adds instead of a running-sum pass, ~20x slower per
    element in numpy than an add."""
    out_len = a.shape[axis] - k + 1

    def cut(x: np.ndarray, start: int, stop: int) -> np.ndarray:
        return x[start:stop] if axis == 0 else x[:, start:stop]

    total, off, width, win = None, 0, 1, a
    while True:
        if k & width:
            part = cut(win, off, off + out_len)
            total = part.copy() if total is None else np.add(total, part, out=total)
            off += width
        if 2 * width > k:
            return total
        n = win.shape[axis]
        win = cut(win, 0, n - width) + cut(win, width, n)
        width *= 2


def _box_sum(img: np.ndarray, k: int) -> np.ndarray:
    """k x k local SUM of a uint8 image, edge-replicated borders, in
    uint16: column-wise k-row window sums, then row-wise k-column window
    sums of those (see _window_sums). Integer-exact, since the largest sum,
    k·k·255, fits uint16 for k <= 16 (mean comparisons are done
    cross-multiplied by k*k)."""
    assert k <= 16, k  # 17·17·255 overflows uint16
    pad = k // 2
    if pad == 0:  # k == 1 → the 1x1 box sum is the image itself
        return img.astype(np.uint16)
    h0, w0 = img.shape
    p = np.empty((h0 + 2 * pad, w0 + 2 * pad), dtype=np.uint16)
    p[pad:-pad, pad:-pad] = img
    p[:pad, pad:-pad] = img[0]
    p[-pad:, pad:-pad] = img[-1]
    p[:, :pad] = p[:, pad:pad + 1]
    p[:, -pad:] = p[:, -pad - 1:-pad]
    return _window_sums(_window_sums(p, k, 0), k, 1)


def binarize(img: np.ndarray, kind: str = "balanced") -> np.ndarray:
    """Return boolean ink mask (True = text pixel). Kinds per app2.py:284-302."""
    if kind == "fast":
        return img < 128
    blurred = _gaussian_blur3(img)
    if kind in ("quality", "default"):
        # quality's morph-close with a (1,1) kernel is the identity
        t = _otsu_threshold(blurred)
        return blurred <= t
    # balanced: Gaussian blur + adaptive threshold(blockSize=11, C=2):
    # ink iff blurred <= local_mean - 2, evaluated integer-exact as
    # (blurred + 2) * k^2 <= local box SUM (no float pass), all in uint16:
    # (255 + 2) * 121 < 2^16
    lhs = blurred.astype(np.uint16)
    lhs += 2
    lhs *= 121
    return lhs <= _box_sum(blurred, 11)


# ----------------------------------------------------- S6 visualization

def draw_structure(img: np.ndarray, paragraphs: list[dict]) -> np.ndarray:
    """Annotated structure visualization (S6, app.py:871-966): 2px paragraph
    bounding rectangles (ink, app.py:913-914) and — with multiple columns —
    1px vertical column separators at the paragraph-gap midlines
    (app.py:946-950), drawn on a copy of the page raster. The reference
    base64-encodes a JPEG into the response (app.py:954-966); here the
    annotated raster is IMGX bytes in an optional binary column."""
    out = img.copy()
    h, w = out.shape
    t = 2
    col_edges: dict[int, list[int]] = {}
    for p in paragraphs:
        x, y = int(p.get("x", 0)), int(p.get("y", 0))
        pw, ph = int(p.get("width", 0)), int(p.get("height", 0))
        x0, y0 = max(0, x), max(0, y)
        x1, y1 = min(w, x + pw), min(h, y + ph)
        if x1 <= x0 or y1 <= y0:
            continue
        out[y0:min(y0 + t, y1), x0:x1] = 0
        out[max(y1 - t, y0):y1, x0:x1] = 0
        out[y0:y1, x0:min(x0 + t, x1)] = 0
        out[y0:y1, max(x1 - t, x0):x1] = 0
        col_edges.setdefault(int(p.get("column", 0)), []).append(x1)
    if len(col_edges) > 1:
        for c in sorted(col_edges)[:-1]:
            sep = min(w - 1, max(col_edges[c]) + t)
            out[:, sep] = 128
    return out


# ----------------------------------------------------------------- deskew

DESKEW_ANGLES = np.arange(-3.0, 3.01, 0.5)


def deskew(img: np.ndarray) -> tuple[np.ndarray, float]:
    """Rotate by the angle maximizing row-profile variance of the ink mask."""
    best_angle, best_var, best_img = 0.0, -1.0, img
    for ang in DESKEW_ANGLES:
        cand = rotate_nn(img, float(ang)) if ang != 0.0 else img
        profile = (cand < 128).sum(axis=1).astype(np.float64)
        var = float(profile.var())
        if var > best_var + 1e-9:
            best_var, best_angle, best_img = var, float(ang), cand
    return best_img, best_angle


# ------------------------------------------------- segmentation + recognition

def despeckle(mask: np.ndarray) -> np.ndarray:
    """Remove isolated ink pixels (no ink in the 8-neighborhood): keep an
    ink pixel iff its 3x3 ink count, built separably (row sums, then column
    sums), exceeds its own.

    The engine's analog of the reference's morphological clean-up step
    (app2.py:291-294); glyph strokes at scale >= 2 are always >= 2x2 blocks,
    so only noise specks are affected — deterministic."""
    p = np.zeros((mask.shape[0] + 2, mask.shape[1] + 2), dtype=np.uint8)
    p[1:-1, 1:-1] = mask
    rows = p[:, :-2] + p[:, 1:-1]
    rows += p[:, 2:]
    box = rows[:-2] + rows[1:-1]
    box += rows[2:]
    return mask & (box > p[1:-1, 1:-1])


MIN_BAND_PX = 3  # ignore line bands thinner than any glyph row could be


def _bands(profile: np.ndarray) -> list[tuple[int, int]]:
    """Contiguous runs of non-zero profile entries → (start, stop) bands."""
    nz = profile > 0
    if not nz.any():
        return []
    diff = np.diff(nz.astype(np.int8))
    starts = list(np.where(diff == 1)[0] + 1)
    stops = list(np.where(diff == -1)[0] + 1)
    if nz[0]:
        starts.insert(0, 0)
    if nz[-1]:
        stops.append(len(profile))
    return list(zip(starts, stops))


# Template stacks are cached per cell shape only up to this size: the
# largest corpus cell (56 rows high) needs ~94 KB, while one degenerate page
# can ask for a stack of tens of MB that would otherwise stay in the worker
# for good. Larger stacks are built per call.
TEMPLATE_CACHE_MAX_BYTES = 1 << 20

_TEMPLATE_CACHE: dict[tuple[int, int], np.ndarray] = {}


def _templates_for(ch: int, cw: int) -> np.ndarray:
    """Glyph template stack floor-mapped to cell size (cached per size —
    a handful of sizes occur per image, so this amortizes to ~zero)."""
    key = (ch, cw)
    t = _TEMPLATE_CACHE.get(key)
    if t is None:
        ys = (np.arange(ch) * GLYPH_H // ch).astype(np.int64)
        xs = (np.arange(cw) * GLYPH_W // cw).astype(np.int64)
        t = np.ascontiguousarray(FONT_STACK[:, ys][:, :, xs])  # (n_glyphs, ch, cw)
        if t.nbytes <= TEMPLATE_CACHE_MAX_BYTES:
            _TEMPLATE_CACHE[key] = t
    return t


LANG_TIEBREAK: dict[str, str] = {
    # M9/-l routing (app.py:567,580,1127): the engine's "language pack" is a
    # per-language template PRIORITY order used to break exact template-score
    # ties. 'eng' is the identity order (FONT_CHARS itself, matching the
    # reference's default -l eng), so default behavior is byte-identical;
    # 'ind' prefers Indonesian letter-frequency order, so an ambiguous glyph
    # resolves differently — observable, tested lang routing.
    "eng": "ABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789.!?,'-",
    "ind": "ANEITRSKDMUGPLBOHYCJFWVZXQ0123456789.!?,'-",
}

_LANG_PERM_CACHE: dict[str, np.ndarray] = {}


def _lang_perm(lang: str | None) -> np.ndarray | None:
    """Template priority permutation for a language ('eng+ind' → primary
    'eng'); None ⇔ identity (no reordering work in the hot loop)."""
    key = (lang or "eng").split("+")[0]
    order = LANG_TIEBREAK.get(key)
    if order is None or order == FONT_CHARS:
        return None
    perm = _LANG_PERM_CACHE.get(key)
    if perm is None:
        idx = {c: i for i, c in enumerate(FONT_CHARS)}
        head = [idx[c] for c in order if c in idx]
        rest = [i for i in range(len(FONT_CHARS)) if i not in set(head)]
        perm = np.array(head + rest, dtype=np.int64)
        _LANG_PERM_CACHE[key] = perm
    return perm


# Bits per matmul slice in _agreement: bounds the float32 copies of one
# slice of cells and templates (~2.8 MB for the 42 templates) whatever the
# cell size; every corpus cell fits in one slice. A slice's dot product is
# at most _MATMUL_BITS, which float32 holds exactly up to 2^24.
_MATMUL_BITS = 1 << 14
assert _MATMUL_BITS <= 1 << 24


def _agreement(cells: np.ndarray, templates: np.ndarray) -> np.ndarray:
    """(m, g) score ``2·a·t − |a| − |t|`` of 0/1 rows a (cells) and t
    (templates): the number of equal bits minus the bit count, i.e. minus
    the hamming distance. The dot products are float32 matmuls over
    unpacked bits, one per slice of _MATMUL_BITS bits, summed in float64.
    Every partial sum inside a slice is an integer of at most _MATMUL_BITS
    <= 2^24, exact in float32 in any BLAS summation order, and the float64
    total is at most ch·cw <= 2^32 (IMGX sides are u16), far below 2^53, so
    the result is integer-exact."""
    dot = np.zeros((len(cells), len(templates)))
    for s in range(0, cells.shape[1], _MATMUL_BITS):
        dot += (cells[:, s:s + _MATMUL_BITS].astype(np.float32)
                @ templates[:, s:s + _MATMUL_BITS].T.astype(np.float32))
    return (2.0 * dot - np.count_nonzero(cells, axis=1)[:, None]
            - np.count_nonzero(templates, axis=1)[None, :])


def _match_cells_batch(cells: np.ndarray, conf_cells: np.ndarray,
                       lang: str | None = None
                       ) -> tuple[list[str], list[float]]:
    """Vectorized recognition of equal-size cells: one exact matmul scores
    every cell against every template (see _agreement). argmax(agreement)
    with a first-wins tie-break in the LANGUAGE PACK's priority order
    (identity for 'eng'/default); confidence = equal_bits/total_bits of the
    conf cell against the chosen template.
    Returns (chars, per-glyph conf scores for non-space cells, in order)."""
    n, ch, cw = cells.shape
    nbits = ch * cw
    nonempty = cells.reshape(n, -1).any(axis=1)
    chars = [" "] * n
    scores: list[float] = []
    if nonempty.any():
        t = _templates_for(ch, cw).reshape(-1, nbits)  # (g, bits)
        agree = _agreement(cells[nonempty].reshape(-1, nbits), t)  # (m, g)
        perm = _lang_perm(lang)
        if perm is None:
            best = np.argmax(agree, axis=1)
        else:
            # argmax over pack-ordered columns → first max-agreement template
            # in the language's priority order
            best = perm[np.argmax(agree[:, perm], axis=1)]
        csub = conf_cells[nonempty].reshape(-1, nbits)
        conf_ham = np.count_nonzero(csub != t[best], axis=1)
        conf = (nbits - conf_ham) / float(nbits)
        j = 0
        for i in range(n):
            if nonempty[i]:
                chars[i] = FONT_CHARS[int(best[j])]
                scores.append(float(conf[j]))
                j += 1
    return chars, scores


def recognize_lines(mask: np.ndarray, conf_img: np.ndarray | None = None,
                    conf_kind: str | None = None,
                    despeckle_conf: bool = False,
                    lang: str | None = None) -> tuple[list[dict], list[float]]:
    """Segment ink mask into lines and recognize each via the glyph grid.

    ``mask`` drives layout analysis and glyph decisions (the engine's own
    Otsu binarization — Tesseract likewise runs page layout analysis on its
    own global binarization regardless of user preprocessing). The routed
    preprocess kernel (M2) supplies the per-glyph confidence evidence (M4):
    it is applied BAND-LOCALLY — ``binarize(conf_img[band], conf_kind)`` per
    text band — so the expensive adaptive-threshold box sums run only over
    text rows, never the full page (margins/gaps are skipped; local-window
    statistics at band edges see the band only, a documented deviation worth
    ~2x less memory traffic). When conf_img is None the layout mask scores
    itself.

    Recognition is batched per PAGE: the character grid of every band is
    laid out first, as arrays, then the page's cells are gathered into one
    array per ``(ch, cw)`` shape and each shape is scored by a single
    ``_match_cells_batch`` call (one exact matmul per bit slice, see
    _agreement). The glyph scores keep the per-line order — width groups in
    first-occurrence order, then char index — so their mean is
    bit-identical to scoring band by band. Returns (lines, glyph_scores);
    each line dict: {text, x, y, width, height}.
    """
    w = mask.shape[1]
    mask = despeckle(mask)
    bands = [(y0, y1) for y0, y1 in _bands(np.count_nonzero(mask, axis=1))
             if y1 - y0 >= MIN_BAND_PX]
    if not bands:
        return [], []
    conf_mask = mask
    if conf_img is not None and conf_kind is not None:
        conf_mask = np.zeros_like(mask)
    lefts, rights = [], []
    for y0, y1 in bands:
        cols = np.flatnonzero(mask[y0:y1].any(axis=0))  # a band row has ink
        lefts.append(cols[0])
        rights.append(cols[-1])
        if conf_mask is not mask:
            conf_band = binarize(conf_img[y0:y1], conf_kind)
            if despeckle_conf:
                # 'accurate' mode (app2.py:353 tessedit_do_invert=0 analog):
                # clean the confidence evidence mask before scoring
                conf_band = despeckle(conf_band)
            conf_mask[y0:y1] = conf_band
    y0s, y1s = np.array(bands, dtype=np.int64).T
    left, right = np.array(lefts, dtype=np.int64), np.array(rights, dtype=np.int64)
    line_h = y1s - y0s
    s_f = line_h / GLYPH_H          # recovered scale (float)
    pitch = 6.0 * s_f               # char pitch: 5s glyph + 1s gap
    span = right - left + 1
    n_chars = np.maximum(1, np.rint((span + s_f) / pitch).astype(np.int64))
    # one entry per cell; np.rint rounds half to even, exactly like round()
    line = np.repeat(np.arange(len(bands)), n_chars)
    i = np.arange(len(line)) - np.repeat(np.cumsum(n_chars) - n_chars, n_chars)
    x0 = left[line] + np.rint(i * pitch[line]).astype(np.int64)
    x1 = np.minimum(left[line] + np.rint(i * pitch[line] + 5.0 * s_f[line]
                                         ).astype(np.int64), w)
    chars = np.full(len(line), " ", dtype="<U1")
    glyph_scores = np.zeros(len(line))
    cells = np.flatnonzero(x1 > x0)
    cw, ch = x1[cells] - x0[cells], line_h[line[cells]]
    _, groups = np.unique(ch * (w + 1) + cw, return_inverse=True)
    for g in range(groups.max() + 1):
        sel = np.flatnonzero(groups == g)
        idx = cells[sel]
        shape = (int(ch[sel[0]]), int(cw[sel[0]]))
        at = (y0s[line[idx]], x0[idx])
        got, sc = _match_cells_batch(
            np.lib.stride_tricks.sliding_window_view(mask, shape)[at],
            np.lib.stride_tricks.sliding_window_view(conf_mask, shape)[at], lang)
        got = np.array(got, dtype="<U1")
        chars[idx] = got
        glyph_scores[idx[got != " "]] = sc  # a scored cell is never " "
    # score order: a line's width groups in first-occurrence order, then
    # char index — the first cell of each (line, width) pair ranks its group
    _, first, pair = np.unique(line[cells] * (w + 1) + cw, return_index=True,
                               return_inverse=True)
    order = cells[np.argsort(first[pair], kind="stable")]
    scores = glyph_scores[order[chars[order] != " "]].tolist()
    chars = chars.tolist()
    ends = np.cumsum(n_chars).tolist()
    lines = [{"text": "".join(chars[e - n:e]).rstrip(), "x": x, "y": y,
              "width": sp, "height": lh}
             for e, n, x, y, sp, lh in zip(ends, n_chars.tolist(), left.tolist(),
                                           y0s.tolist(), span.tolist(),
                                           line_h.tolist())]
    return lines, scores


def group_paragraphs(lines: list[dict]) -> list[list[dict]]:
    """Group lines into paragraphs: a vertical gap > 4.5x the recovered scale
    (normal inter-line gap is 3s, paragraph gap 6s) starts a new paragraph."""
    if not lines:
        return []
    paras: list[list[dict]] = [[lines[0]]]
    for prev, cur in zip(lines, lines[1:]):
        s_f = prev["height"] / GLYPH_H
        gap = cur["y"] - (prev["y"] + prev["height"])
        if gap > 4.5 * s_f:
            paras.append([cur])
        else:
            paras[-1].append(cur)
    return paras


def region_filter(x: int, y: int, w: int, h: int, img_w: int, img_h: int) -> bool:
    """M8 region filter: area ∈ (0.001·WH, 0.8·WH), aspect 0.1 < w/h < 10
    (app.py:867-883). Applied to paragraph bounding boxes."""
    area = w * h
    wh = img_w * img_h
    if not (wh * 0.001 < area < wh * 0.8):
        return False
    if h == 0:
        return False
    return 0.1 < w / h < 10


def detect_columns(paragraph_bounds: list[tuple[int, int, int, int]], img_w: int) -> list[int]:
    """M8 column detection (app.py:916-944): sort by x, boundary where the
    x-gap between consecutive sorted x's exceeds 10% of width, each paragraph
    assigned to the nearest boundary. Returns column index per paragraph."""
    if not paragraph_bounds:
        return []
    xs = [b[0] for b in paragraph_bounds]
    sorted_x = sorted(xs)
    boundaries = [sorted_x[0]]
    for prev, cur in zip(sorted_x, sorted_x[1:]):
        if cur - prev > img_w * 0.1:
            boundaries.append(cur)
    cols = []
    for x in xs:
        distances = [abs(x - cb) for cb in boundaries]
        cols.append(distances.index(min(distances)))
    return cols


def extract_image(img: np.ndarray, preprocess_kind: str = "balanced",
                  max_dim: int = 1200, do_deskew: bool = True,
                  ocr_mode: str = "standard", lang: str | None = None) -> dict:
    """Full image pipeline. Returns
    {text, confidence, paragraphs:[{text,x,y,width,height,column}], width, height}.
    Paragraph text = its lines joined with a single space; document text =
    paragraph texts joined with "\\n\\n" (app.py:791 separator).

    ``ocr_mode`` is the M3 engine-config routing (app2.py:345-353):
    - fast ('--oem 0 --psm 6'): no deskew search, and confidence evidence is
      the layout mask itself — the routed preprocess kernel is skipped;
    - standard ('--oem 1 --psm 3'): deskew iff ``do_deskew``, band-local
      confidence evidence from the routed kernel (round-1 behavior);
    - accurate (adds tessedit_do_invert=0): deskew always, and the
      confidence evidence mask is despeckled before scoring.
    ``lang`` routes the recognizer's language pack (tie-break priority;
    'eng' default is the identity order — see LANG_TIEBREAK)."""
    img = optimize_image(img, max_dim)
    if img.size == 0:
        # a zero-area page holds no ink: an ok, empty page, like a blank one
        return {"text": "", "confidence": 80.0, "paragraphs": [],
                "width": int(img.shape[1]), "height": int(img.shape[0])}
    if ocr_mode == "fast":
        eff_deskew = False
    elif ocr_mode == "accurate":
        eff_deskew = True
    else:
        eff_deskew = do_deskew
    if eff_deskew:
        img, _ = deskew(img)
    # Layout + decisions on the engine's own Otsu mask; the routed preprocess
    # kernel contributes band-local confidence evidence (see recognize_lines).
    layout_mask = binarize(img, "default")
    h, w = layout_mask.shape
    if ocr_mode == "fast" or preprocess_kind == "default":
        lines, scores = recognize_lines(layout_mask, lang=lang)
    else:
        lines, scores = recognize_lines(
            layout_mask, img, preprocess_kind,
            despeckle_conf=(ocr_mode == "accurate"), lang=lang)
    paras_lines = group_paragraphs(lines)
    paragraphs: list[dict] = []
    for group in paras_lines:
        x0 = min(l["x"] for l in group)
        y0 = min(l["y"] for l in group)
        x1 = max(l["x"] + l["width"] for l in group)
        y1 = max(l["y"] + l["height"] for l in group)
        if not region_filter(x0, y0, x1 - x0, y1 - y0, w, h):
            continue
        text = " ".join(l["text"] for l in group if l["text"]).strip()
        if not text:
            continue
        paragraphs.append({"text": text, "x": int(x0), "y": int(y0),
                           "width": int(x1 - x0), "height": int(y1 - y0)})
    cols = detect_columns([(p["x"], p["y"], p["width"], p["height"]) for p in paragraphs], w)
    for p, c in zip(paragraphs, cols):
        p["column"] = int(c)
    text = "\n\n".join(p["text"] for p in paragraphs)
    confidence = (100.0 * sum(scores) / len(scores)) if scores else 80.0
    return {"text": text, "confidence": confidence, "paragraphs": paragraphs,
            "width": int(w), "height": int(h)}
