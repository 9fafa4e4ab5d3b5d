"""Multimodal column plumbing: decode / feature-extract / resize /
frame-sample over opaque ``binary`` payload columns with typed metadata.

The Ray-side plumbing (schemas, stage signatures, batch sizing, output
layout) is real and tested; codec-dependent steps are stubbed behind
import gates, since the sandbox ships no image/audio codecs:

- IMGX bitmaps and PDFX containers (the engine's own formats) decode fully.
- JPEG/PNG decode tries Pillow at stage init; absent → the row degrades to
  ``status='stub_unavailable'`` (per-row error isolation, M11 pattern).
- AUDX (b"AUDX" + u32 sample_rate + u32 n + int16 PCM samples) is a
  deterministic fake audio container: duration/RMS/zero-crossing features
  are computed for real on it.

Large binary payloads ⇒ keep ``batch_size`` small for these stages
(SURVEY.md §4 memory guidance); never carry decoded pixel arrays between
stages — decode inside the kernel, emit features/bytes.
"""

from __future__ import annotations

import struct

import numpy as np
import pyarrow as pa

from . import glyphs
from .image_extract import optimize_image

AUDX_MAGIC = b"AUDX"

JPEG_MAGIC = b"\xff\xd8\xff"
PNG_MAGIC = b"\x89PNG\r\n\x1a\n"


def image_payload_mask(payload) -> pa.ChunkedArray:
    """Vectorized magic-byte prefilter: True where the binary payload starts
    with a known image signature (IMGX / JPEG / PNG). Null → False.

    Lets pipelines skip the decode loop (and its per-row exception
    cost, plus shipping multi-MB HTML blobs into the stage) for the ~90% of
    corpus rows that are not images."""
    import pyarrow.compute as pc

    is_imgx = pc.equal(pc.binary_slice(payload, 0, 4),
                       pa.scalar(glyphs.IMGX_MAGIC, pa.binary()))
    is_jpeg = pc.equal(pc.binary_slice(payload, 0, 3),
                       pa.scalar(JPEG_MAGIC, pa.binary()))
    is_png = pc.equal(pc.binary_slice(payload, 0, 8),
                      pa.scalar(PNG_MAGIC, pa.binary()))
    return pc.fill_null(pc.or_(pc.or_(is_imgx, is_jpeg), is_png), False)


def encode_audx(samples: np.ndarray, sample_rate: int = 16000) -> bytes:
    s16 = np.clip(samples, -32768, 32767).astype("<i2")
    return AUDX_MAGIC + struct.pack("<II", sample_rate, len(s16)) + s16.tobytes()


def decode_audx(payload: bytes) -> tuple[int, np.ndarray]:
    if payload[:4] != AUDX_MAGIC:
        raise ValueError("not an AUDX payload")
    rate, n = struct.unpack("<II", payload[4:12])
    return rate, np.frombuffer(payload[12:12 + 2 * n], dtype="<i2").astype(np.float64)


class ImageDecodeStage:
    """Callable batch stage: binary → (width, height, mean_intensity, codec, status).

    IMGX decodes natively; JPEG/PNG via Pillow when importable, else the row
    is marked 'stub_unavailable' (NotImplementedError path made data)."""

    def __init__(self):
        try:
            from PIL import Image  # noqa: F401
            self._pil = Image
        except ImportError:
            self._pil = None

    def _decode(self, payload: bytes) -> tuple[str, np.ndarray | None]:
        if payload[:4] == glyphs.IMGX_MAGIC:
            return "imgx", glyphs.decode_imgx(payload)
        if payload[:3] == b"\xff\xd8\xff" or payload[:8] == b"\x89PNG\r\n\x1a\n":
            codec = "jpeg" if payload[:3] == b"\xff\xd8\xff" else "png"
            if self._pil is None:
                raise NotImplementedError(f"{codec} decode requires Pillow")
            import io
            img = self._pil.open(io.BytesIO(payload)).convert("L")
            return codec, np.asarray(img, dtype=np.uint8)
        raise ValueError("unknown image codec")

    def __call__(self, batch: pa.Table) -> pa.Table:
        urls = batch["url"].to_pylist()
        pcol = batch["html"] if "html" in batch.column_names else batch["payload"]
        # vectorized magic-byte mask: the Python decode loop touches ONLY
        # image rows; everything else gets the 'unknown image codec' error
        # row without raising/catching a per-row exception
        mask = image_payload_mask(pcol).to_numpy(zero_copy_only=False)
        n = len(urls)
        codec: list = [None] * n
        width: list = [None] * n
        height: list = [None] * n
        mean: list = [None] * n
        status = ["ok" if m else "error" for m in mask]
        error = [None if m else "unknown image codec" for m in mask]
        for i in np.nonzero(mask)[0]:
            try:
                c, img = self._decode(pcol[int(i)].as_py() or b"")
                codec[i], width[i], height[i] = c, img.shape[1], img.shape[0]
                mean[i] = float(img.mean())
            except NotImplementedError as e:
                status[i], error[i] = "stub_unavailable", str(e)
            except Exception as e:
                status[i], error[i] = "error", str(e)
        return pa.table({
            "url": pa.array(urls, pa.string()),
            "codec": pa.array(codec, pa.string()),
            "width": pa.array(width, pa.int32()),
            "height": pa.array(height, pa.int32()),
            "mean_intensity": pa.array(mean, pa.float64()),
            "status": pa.array(status, pa.string()),
            "error": pa.array(error, pa.string())})


class ImageResizeStage:
    """Callable batch stage: IMGX resize to a quality tier's max_dim (M1), emitting
    re-encoded IMGX — the batch analog of optimize_image_for_mobile."""

    def __init__(self, max_dim: int = 1200):
        self.max_dim = max_dim

    def __call__(self, batch: pa.Table) -> pa.Table:
        urls = batch["url"].to_pylist()
        payloads = batch["html"].to_pylist() if "html" in batch.column_names else batch["payload"].to_pylist()
        out_p, out_w, out_h = [], [], []
        for p in payloads:
            try:
                img = glyphs.decode_imgx(p or b"")
                resized = optimize_image(img, self.max_dim)
                out_p.append(glyphs.encode_imgx(resized))
                out_h.append(resized.shape[0])
                out_w.append(resized.shape[1])
            except Exception:
                out_p.append(None)
                out_h.append(None)
                out_w.append(None)
        return pa.table({"url": pa.array(urls, pa.string()),
                         "payload": pa.array(out_p, pa.binary()),
                         "width": pa.array(out_w, pa.int32()),
                         "height": pa.array(out_h, pa.int32())})


def sample_frames(batch: pa.Table, every_nth: int = 2) -> pa.Table:
    """Frame sampling over PDFX multi-frame containers (the engine's video
    stand-in): one output row per sampled frame — a flat_map-shaped
    map_batches (rows out > rows in)."""
    urls = batch["url"].to_pylist()
    payloads = batch["html"].to_pylist() if "html" in batch.column_names else batch["payload"].to_pylist()
    o_url, o_idx, o_frame, o_total = [], [], [], []
    for u, p in zip(urls, payloads):
        try:
            frames = glyphs.decode_pdfx(p or b"")
        except Exception:
            continue
        for i in range(0, len(frames), every_nth):
            o_url.append(u)
            o_idx.append(i)
            o_frame.append(frames[i])
            o_total.append(len(frames))
    return pa.table({"url": pa.array(o_url, pa.string()),
                     "frame_idx": pa.array(o_idx, pa.int32()),
                     "frame": pa.array(o_frame, pa.binary()),
                     "total_frames": pa.array(o_total, pa.int32())})


class AudioFeatureStage:
    """Callable batch stage over AUDX payloads: duration_s, rms, zero_crossings —
    real DSP over the deterministic fake container."""

    def __call__(self, batch: pa.Table) -> pa.Table:
        urls = batch["url"].to_pylist()
        payloads = batch["payload"].to_pylist()
        rows = []
        for u, p in zip(urls, payloads):
            row = {"url": u, "duration_s": None, "rms": None,
                   "zero_crossings": None, "status": "ok", "error": None}
            try:
                rate, samples = decode_audx(p or b"")
                row["duration_s"] = len(samples) / rate if rate else 0.0
                row["rms"] = float(np.sqrt(np.mean(samples ** 2))) if len(samples) else 0.0
                row["zero_crossings"] = int(np.sum(np.diff(np.signbit(samples)) != 0))
            except Exception as e:
                row.update(status="error", error=str(e))
            rows.append(row)
        return pa.Table.from_pylist(rows, schema=pa.schema([
            ("url", pa.string()), ("duration_s", pa.float64()), ("rms", pa.float64()),
            ("zero_crossings", pa.int64()), ("status", pa.string()), ("error", pa.string())]))


# --------------------------------------------- perceptual hash (dHash)

def dhash64(img: np.ndarray) -> int:
    """64-bit difference hash (dHash) of a grayscale image: area-mean
    downsample to 9×8, hash bit (r, c) = cell[r, c+1] > cell[r, c] —
    the standard perceptual near-dup fingerprint (gradient signs survive
    re-encoding, uniform brightness shifts, and small noise, unlike a
    byte digest). Deterministic: integer-boundary area means in float64,
    bits packed row-major MSB-first."""
    h, w = img.shape
    if h == 0 or w == 0:
        return 0
    rb = (np.arange(9) * h) // 8        # 8 row bands
    cb = (np.arange(10) * w) // 9       # 9 col bands
    s = img.astype(np.float64)
    rows = np.add.reduceat(s, rb[:-1], axis=0)
    cells = np.add.reduceat(rows, cb[:-1], axis=1)
    area = np.diff(rb)[:, None] * np.diff(cb)[None, :]
    m = cells / area
    bits = (m[:, 1:] > m[:, :-1]).ravel()
    return int(np.packbits(bits).view(">u8")[0])


class ImageDHashStage:
    """Callable batch stage: IMGX payload → (url, dhash hex, width, height).
    Non-IMGX / undecodable payloads emit no row (the prefilter task
    upstream already nulls non-image payloads, so blobs never ship into
    the stage). Pure per-row compute, no shuffle."""

    def __call__(self, batch: pa.Table) -> pa.Table:
        pcol = batch["html"] if "html" in batch.column_names \
            else batch["payload"]
        urls = batch["url"].to_pylist()
        out_u, out_h, out_w, out_ht = [], [], [], []
        for u, p in zip(urls, pcol.to_pylist()):
            if not p or p[:4] != glyphs.IMGX_MAGIC:
                continue
            try:
                img = glyphs.decode_imgx(p)
            except Exception:
                continue
            out_u.append(u)
            out_h.append(f"{dhash64(img):016x}")
            out_w.append(img.shape[1])
            out_ht.append(img.shape[0])
        return pa.table({
            "url": pa.array(out_u, pa.string()),
            "dhash": pa.array(out_h, pa.string()),
            "width": pa.array(out_w, pa.int64()),
            "height": pa.array(out_ht, pa.int64())})
