"""Deterministic synthetic ``pages`` corpus (FIXTURES.md §1).

Generates the engine's input table at the exact BASELINE.json input_hint
schema — ``(url, warc_ts, html, text, lang)`` — plus a ``golden`` table of
expected extraction outputs recorded at generation time from the known-good
main content (NOT by running the extractor: tests meet at byte equality
through independent code paths).

Payload mix mirrors the reference's accepted upload kinds (extension
whitelist app.py:229) at Common-Crawl-realistic proportions: HTML pages
(~90% — the overwhelmingly dominant path in a web crawl, and the dominant
path per BASELINE.json's north_star), IMGX bitmap-text images (~6%,
exercising the binarize→deskew→segment→recognize kernels), PDFX multi-page
containers (~2%, exercising doc→page explode + ordered reassembly
app.py:755-791), and degenerates (~2%: empty payloads, unknown magic → S2
rejection app.py:317-320).

Distribution requirements from FIXTURES.md: ~30% of rows carry a direct
``text`` layer > 50 stripped chars (cheap path, app.py:640); ~10% duplicate
another row's payload byte-for-byte under a distinct url (dedup D1,
app2.py:329-336); one oversized multi-MB html row per >=1000-row corpus
(skew path, reference 16 MB cap app.py:230); boundary rows at exactly 50
chars of direct text.

Everything derives from ``random.Random(f"{seed}:{row}")`` — no wall clock,
no external data. ``golden_exact`` is False only for image rows whose
dimensions exceed the medium-quality resize threshold (1200, app2.py:222)
or rotated rows, where recognition is deterministic but not guaranteed
byte-perfect; those rows are covered by determinism/partition-invariance
tests instead.
"""

from __future__ import annotations

import os
import random

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

from .stages import glyphs
from .stages.html_extract import MIN_BLOCK_CHARS

CORPUS_VERSION = 9  # v9: near-duplicate html pages (base + one appended paragraph)
EPOCH_US = 1_704_067_200_000_000  # 2024-01-01T00:00:00Z in microseconds

EN_WORDS = (
    "data system model process image text page document quality result engine "
    "batch stream server client cache session worker value table column row "
    "index search query filter group sort join merge split token word sentence "
    "summary score rank scale node cluster shard block byte file read write "
    "fast slow the and of to in with for on content extract pipeline"
).split()

ID_WORDS = (
    "yang dan data sistem gambar teks halaman dokumen kualitas hasil mesin "
    "proses cepat lambat dengan untuk pada adalah tidak bisa di dari dalam "
    "nilai tabel kolom baris indeks cari kueri saring urut gabung"
).split()

IMG_CHARS = "ABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789"


def _words_for(lang: str) -> list[str]:
    if lang == "ind":
        return ID_WORDS
    if lang == "eng+ind":
        return EN_WORDS + ID_WORDS
    return EN_WORDS


def _sentence(rng: random.Random, words: list[str], n: int | None = None) -> str:
    n = n or rng.randint(5, 12)
    ws = [rng.choice(words) for _ in range(n)]
    ws[0] = ws[0].capitalize()
    term = rng.choice([".", ".", ".", "!", "?"])
    return " ".join(ws) + term


def _paragraph(rng: random.Random, words: list[str], min_chars: int = MIN_BLOCK_CHARS) -> str:
    parts = [_sentence(rng, words) for _ in range(rng.randint(2, 5))]
    text = " ".join(parts)
    while len(text) < min_chars:
        text += " " + _sentence(rng, words)
    return text


def _nav_links(rng: random.Random, n: int) -> str:
    # every third nav link is absolute cross-site (host derived from the
    # already-drawn s — no extra rng consumption, so page content elsewhere
    # is unaffected); the rest stay root-relative. Gives the host link
    # graph real cross-host edges for the linkgraph operators.
    items = []
    for _ in range(n):
        s = rng.randint(0, 99)
        w = rng.choice(EN_WORDS).capitalize()
        href = (f"https://site{(s * 101) % 10000:04d}.example/s{s}"
                if s % 3 == 0 else f"/s{s}")
        items.append(f'<li><a href="{href}">{w}</a></li>')
    return f"<ul>{''.join(items)}</ul>"


def _make_html(rng: random.Random, lang: str, n_paras: int | None = None,
               big_repeat: int = 1) -> tuple[bytes, str, int]:
    """Build one synthetic page. Returns (payload, golden_text, n_blocks)."""
    words = _words_for(lang)
    title = _paragraph(rng, words, min_chars=MIN_BLOCK_CHARS)
    n_paras = n_paras or rng.randint(3, 8)
    paras: list[str] = []
    paras_html: list[str] = []
    for k in range(n_paras * big_repeat):
        p = _paragraph(rng, words)
        style = rng.random()
        if style < 0.15:
            # inline link on one word — low link density, block still kept
            toks = p.split(" ")
            j = rng.randrange(len(toks))
            golden = " ".join(toks)
            toks_html = list(toks)
            toks_html[j] = f'<a href="/w/{toks[j].strip(".!?").lower()}">{toks[j]}</a>'
            paras_html.append("<p>" + " ".join(toks_html) + "</p>")
            paras.append(golden)
        elif style < 0.3:
            # entity escape — extractor must unescape
            toks = p.split(" ")
            j = rng.randrange(max(1, len(toks) - 1))
            golden_toks = toks[: j + 1] + ["&"] + toks[j + 1:]
            html_toks = toks[: j + 1] + ["&amp;"] + toks[j + 1:]
            paras.append(" ".join(golden_toks))
            paras_html.append("<p>" + " ".join(html_toks) + "</p>")
        elif style < 0.4:
            # emphasis tags — stripped, whitespace collapsed
            toks = p.split(" ")
            j = rng.randrange(len(toks))
            toks_html = list(toks)
            toks_html[j] = f"<b>{toks[j]}</b>"
            paras.append(" ".join(toks))
            paras_html.append("<p>" + " ".join(toks_html) + "</p>")
        else:
            paras.append(p)
            paras_html.append(f"<p>{p}</p>")
    short_ad = rng.choice(EN_WORDS).capitalize()  # < 25 chars → dropped
    # title/meta reuse already-drawn strings (no extra rng draws); neither
    # tag is a block element, so golden extracted text is unaffected
    doc = (
        f"<!DOCTYPE html>\n<html><head><title>{title}</title>\n"
        f'<meta name="description" content="{paras[0][:120]}">\n'
        "<style>body { font-size: 14px; }</style>\n"
        "<script>var threshold = 1 < 2 && 3 > 0;</script>\n"
        "</head><body>\n"
        f"<nav>{_nav_links(rng, rng.randint(3, 8))}</nav>\n"
        '<header><p><a href="/">Home</a> | <a href="/about">About</a></p></header>\n'
        f'<div id="content">\n<h1>{title}</h1>\n' + "\n".join(paras_html) + "\n</div>\n"
        f"<p>{short_ad}</p>\n"
        f"<aside>{_nav_links(rng, rng.randint(2, 5))}</aside>\n"
        '<footer><p>(c) 2024 <a href="/terms">Terms</a> <a href="/privacy">Privacy</a></p></footer>\n'
        "</body></html>\n"
    )
    golden = "\n\n".join([title] + paras)
    return doc.encode("utf-8"), golden, 1 + len(paras)


def _img_line(rng: random.Random, n: int) -> str:
    return " ".join(
        "".join(rng.choice(IMG_CHARS) for _ in range(rng.randint(2, 6)))
        for _ in range(n)
    )


def _make_image_lines(rng: random.Random, n_paras: int, wrap: int = 24
                      ) -> tuple[list[str], set[int], list[str]]:
    """Render-ready lines + paragraph break positions + paragraph texts."""
    lines: list[str] = []
    breaks: set[int] = set()
    para_texts: list[str] = []
    for _ in range(n_paras):
        if lines:
            breaks.add(len(lines))
        n_lines = rng.randint(2, 4)
        plines = []
        for _ in range(n_lines):
            ln = _img_line(rng, rng.randint(2, 4))[:wrap].rstrip()
            # never start/end with space; ensure non-empty
            plines.append(ln if ln else "X")
        lines.extend(plines)
        para_texts.append(" ".join(plines))
    return lines, breaks, para_texts


def _make_image(rng: random.Random, scale: int, n_paras: int, noise: int = 0
                ) -> tuple[bytes, str, int, int]:
    lines, breaks, para_texts = _make_image_lines(rng, n_paras)
    img = glyphs.render_text(lines, scale=scale, margin=4 * scale, para_breaks=breaks)
    if noise:
        img = glyphs.add_noise(img, noise, rng.randint(0, 1 << 30))
    golden = "\n\n".join(para_texts)
    h, w = img.shape
    return glyphs.encode_imgx(img), golden, h, w


def _make_pdf(rng: random.Random, n_pages: int) -> tuple[bytes, str, int]:
    pages, texts = [], []
    for _ in range(n_pages):
        payload, golden, _, _ = _make_image(rng, scale=3, n_paras=rng.randint(1, 2))
        pages.append(payload)
        texts.append(golden)
    return glyphs.encode_pdfx(pages), "\n\n".join(texts), n_pages


def generate_pages(n_rows: int, seed: int = 42) -> tuple[pa.Table, pa.Table]:
    """Build the (pages, golden) tables for one corpus tier."""
    urls: list[str] = []
    ts: list[int] = []
    payloads: list[bytes] = []
    texts: list[str] = []
    langs: list[str] = []

    g_kind: list[str] = []
    g_text: list[str | None] = []
    g_exact: list[bool] = []
    g_source: list[str] = []
    g_nparas: list[int | None] = []
    g_pages: list[int] = []
    g_dup_of: list[str | None] = []

    # rows eligible as duplicate sources (index into the lists above)
    dup_pool: list[int] = []

    for i in range(n_rows):
        rng = random.Random(f"{seed}:{i}")
        url = f"https://site{rng.randint(0, 9999):04d}.example/p/{seed}-{i:08d}"
        urls.append(url)
        ts.append(EPOCH_US + i * 1_000_000)
        lang = rng.choices(["eng", "ind", "eng+ind"], weights=[0.6, 0.3, 0.1])[0]

        r = rng.random()
        # the guaranteed oversized skew row must run BEFORE the duplicate
        # branch — the dup draw otherwise preempts it ~10% of the time and
        # the tier silently loses its big-row coverage (r is still drawn so
        # every other row's randomness stream is unchanged)
        if i == n_rows - 1 and n_rows >= 1000:
            payload, golden, nb = _make_html(rng, lang, n_paras=6, big_repeat=2000)
            payloads.append(payload)
            texts.append("")
            langs.append(lang)
            g_kind.append("html")
            g_text.append(golden)
            g_exact.append(True)
            g_source.append("kernel")
            g_nparas.append(nb)
            g_pages.append(1)
            g_dup_of.append(None)
            dup_pool.append(i)
            continue
        if i > 20 and r < 0.10 and dup_pool:
            # duplicate payload of an earlier row, distinct url (D1 dedup)
            j = dup_pool[rng.randrange(len(dup_pool))]
            payloads.append(payloads[j])
            texts.append(texts[j])
            langs.append(langs[j])
            g_kind.append(g_kind[j])
            g_text.append(g_text[j])
            g_exact.append(g_exact[j])
            g_source.append(g_source[j])
            g_nparas.append(g_nparas[j])
            g_pages.append(g_pages[j])
            g_dup_of.append(urls[j])
            continue
        if i > 20 and r < 0.13 and dup_pool:
            # NEAR-duplicate (v9): an earlier html page plus ONE appended
            # paragraph — distinct digest (exact dedup keeps both) but
            # 3-gram Jaccard ≈ base/(base+extra) ≳ 0.7, so MinHash
            # near-dedup genuinely fires end to end. Base must be a plain
            # byte-exact html kernel row (no direct-text layer — the twin
            # would otherwise share the cheap path verbatim and be an
            # EXACT dup again). Per-row rng: the extra draws below cannot
            # perturb any other row's stream.
            start = rng.randrange(len(dup_pool))
            base_j = None
            for off in range(len(dup_pool)):
                cand = dup_pool[(start + off) % len(dup_pool)]
                if (g_kind[cand] == "html" and g_exact[cand]
                        and g_source[cand] == "kernel"
                        and texts[cand] == ""
                        and b"</body>" in payloads[cand]):
                    base_j = cand
                    break
            if base_j is not None:
                extra = _paragraph(rng, _words_for(langs[base_j]))
                payloads.append(payloads[base_j].replace(
                    b"</body>",
                    ("<p>" + extra + "</p></body>").encode(), 1))
                texts.append("")
                langs.append(langs[base_j])
                g_kind.append("html")
                g_text.append(g_text[base_j] + "\n\n" + extra)
                g_exact.append(True)
                g_source.append("kernel")
                g_nparas.append((g_nparas[base_j] or 0) + 1)
                g_pages.append(1)
                g_dup_of.append(urls[base_j])
                continue

        langs.append(lang)
        g_dup_of.append(None)
        kind_r = rng.random()
        if kind_r < 0.90:
            payload, golden, nb = _make_html(rng, lang)
            kind, npages = "html", 1
        elif kind_r < 0.96:
            scale = rng.choice([2, 3, 3, 4])
            n_paras = rng.randint(2, 4)
            noise = rng.choice([0, 0, 30, 80])
            big = rng.random() < 0.15
            if big:
                scale, n_paras = 8, rng.randint(5, 7)  # exceeds 1200 → resize path
            payload, golden, h, w = _make_image(rng, scale, n_paras, noise)
            nb = n_paras
            kind, npages = "image", 1
            if max(h, w) > 1200:
                golden_exact = False
            else:
                golden_exact = True
        elif kind_r < 0.98:
            payload, golden, npages = _make_pdf(rng, rng.randint(1, 4))
            nb = None
            kind = "pdf"
        else:
            # degenerate: empty payload or unknown magic → rejected (S2)
            if rng.random() < 0.5:
                payload = b""
                kind = "empty"
            else:
                payload = b"GIF89a" + bytes(rng.randrange(256) for _ in range(64))
                kind = "unknown"
            golden, nb, npages = "", None, 0

        if kind == "image":
            pass  # golden_exact set above
        else:
            golden_exact = True

        # direct-text cheap path (~30% of non-degenerate rows; app.py:640)
        text_r = rng.random()
        direct = ""
        if kind in ("html", "image", "pdf"):
            if text_r < 0.28:
                words = _words_for(lang)
                direct = _paragraph(rng, words, min_chars=60)
            elif text_r < 0.30:
                # boundary rows: exactly 50 chars (NOT > 50 → no cheap path)
                # and 51 chars (cheap path taken)
                base = "x" * 50 if rng.random() < 0.5 else "y" * 51
                direct = base
            elif text_r < 0.32:
                direct = "   \t  "  # whitespace-only → strips to 0, no cheap path

        payloads.append(payload)
        texts.append(direct)
        g_kind.append(kind)
        if kind in ("empty", "unknown"):
            g_text.append("")
            g_exact.append(True)
            g_source.append("rejected")
        elif len(direct.strip()) > 50:
            g_text.append(direct)
            g_exact.append(True)
            g_source.append("direct_text")
        else:
            g_text.append(golden if golden_exact else None)
            g_exact.append(golden_exact)
            g_source.append("kernel")
        g_nparas.append(nb)
        g_pages.append(npages)
        if kind in ("html", "image", "pdf"):
            dup_pool.append(i)

    pages = pa.table(
        {
            "url": pa.array(urls, pa.string()),
            "warc_ts": pa.array(ts, pa.timestamp("us")),
            "html": pa.array(payloads, pa.binary()),
            "text": pa.array(texts, pa.string()),
            "lang": pa.array(langs, pa.string()),
        }
    )
    golden = pa.table(
        {
            "url": pa.array(urls, pa.string()),
            "payload_kind": pa.array(g_kind, pa.string()),
            "golden_text": pa.array(g_text, pa.string()),
            "golden_exact": pa.array(g_exact, pa.bool_()),
            "source": pa.array(g_source, pa.string()),
            "n_paragraphs": pa.array(g_nparas, pa.int32()),
            "total_pages": pa.array(g_pages, pa.int32()),
            "dup_of": pa.array(g_dup_of, pa.string()),
        }
    )
    return pages, golden


def ensure_corpus(n_rows: int, seed: int = 42,
                  base: str = "/tmp/mobile_ocr_corpus") -> str:
    """Generate (once) and cache a corpus tier on disk; returns its dir.

    Pages are sharded across many parquet FILES (not just row groups):
    ray.data parallelizes reads per file, so a single monolithic file
    serializes the read stage and starves the extraction tasks downstream
    (observed: 1 read task bottlenecked a 32-way pipeline at ~300 docs/s).
    Shard count targets >= 4 blocks per CPU at 32 CPUs (SURVEY.md §4).
    ``pages.parquet`` is a directory of shards; ``read_pages`` and plain
    pyarrow both read it transparently.

    CONCURRENCY-SAFE: generation happens in a per-pid temp directory and
    commits with one ``os.rename`` — two processes racing on a missing
    tier (e.g. the driver's bench and correctness runners) each build a
    complete private copy and exactly one rename wins; the loser discards
    its copy and uses the winner's. A crash mid-generation leaves only a
    stray temp dir, never a half-written tier that the ``_DONE`` marker
    would misreport as complete. Debris in the way is moved aside by
    rename before it is deleted, and a directory holding ``_DONE`` is
    never deleted.
    """
    import shutil
    import tempfile

    d = os.path.join(base, f"v{CORPUS_VERSION}_n{n_rows}_s{seed}")
    marker = os.path.join(d, "_DONE")
    if os.path.exists(marker):
        return d
    tmp = f"{d}.tmp.{os.getpid()}"
    shutil.rmtree(tmp, ignore_errors=True)
    os.makedirs(tmp)
    pages, golden = generate_pages(n_rows, seed)
    pages_dir = os.path.join(tmp, "pages.parquet")
    os.makedirs(pages_dir, exist_ok=True)
    n_shards = min(128, max(8, n_rows // 64))
    per = (n_rows + n_shards - 1) // n_shards
    for s in range(n_shards):
        shard = pages.slice(s * per, per)
        if shard.num_rows == 0:
            break
        pq.write_table(shard, os.path.join(pages_dir, f"shard-{s:04d}.parquet"))
    pq.write_table(golden, os.path.join(tmp, "golden.parquet"),
                   row_group_size=max(16, n_rows // 64))
    with open(os.path.join(tmp, "_DONE"), "w") as f:
        f.write("ok")
    for _ in range(8):
        try:
            os.rename(tmp, d)
            return d
        except OSError:
            pass
        # lost the race, or a stale partial dir from a pre-v9 crash is in
        # the way: trust the winner iff its marker committed
        if os.path.exists(marker):
            shutil.rmtree(tmp, ignore_errors=True)
            return d
        # else move the debris aside (one atomic rename, so only one
        # process takes it) and retry; a tier that committed between the
        # check and the move is put back, never deleted
        holder = tempfile.mkdtemp(prefix=os.path.basename(d) + ".debris.",
                                  dir=base)
        aside = os.path.join(holder, "d")
        try:
            os.rename(d, aside)
        except OSError:
            os.rmdir(holder)
            continue
        if os.path.exists(os.path.join(aside, "_DONE")):
            try:
                os.rename(aside, d)
            except OSError:
                continue
        shutil.rmtree(holder, ignore_errors=True)
    os.rename(tmp, d)
    return d
