"""M9 — quality/mode routing (SURVEY.md §2.2 M9).

The reference maps the request-level ``quality`` parameter to a preprocess
kernel, an OCR mode, and image-downscale parameters via inline conditionals
(app2.py:551-558 preprocess/mode routing, app2.py:215-223 resize tiers,
app2.py:844-845 validation defaulting to 'medium'). Here that becomes one
table, ``QUALITY_PARAMS``, giving ``preprocess_kind`` / ``ocr_mode`` /
``max_dim`` / ``jpeg_quality`` per tier, plus the per-row
``kernel_config`` parser that refines them.
"""

from __future__ import annotations

# quality -> (preprocess_kind, ocr_mode, max_dim, jpeg_quality)
# preprocess/mode: app2.py:551-558; max_dim/jpeg_quality: app2.py:215-223.
# 'v1' is the v1 API's single default tier: Gaussian+Otsu preprocess
# (app.py:550-556), 1500 px cap / q85 (app.py:323) — D3 parity.
QUALITY_PARAMS: dict[str, tuple[str, str, int, int]] = {
    "low": ("fast", "fast", 800, 75),
    "medium": ("balanced", "standard", 1200, 85),
    "high": ("quality", "accurate", 2000, 90),
    "v1": ("default", "standard", 1500, 85),
}

_VALID = frozenset(QUALITY_PARAMS)


def route_quality(quality: str) -> tuple[str, str, int, int]:
    """Scalar routing with the reference's validation default (app2.py:844-845)."""
    if quality not in _VALID:
        quality = "medium"
    return QUALITY_PARAMS[quality]


# kernel_config passthrough (reference app.py:567,580-581: the raw
# ``config`` string is appended verbatim to the engine invocation and can
# override any engine parameter per request). The engine's equivalent is a
# per-row space-separated ``key=value`` string refining the quality-routed
# parameters; like tesseract with a malformed config, an unknown key or a
# bad value raises — M11 turns it into an error ROW, never a batch failure.
_CONFIG_KEYS = {
    "preprocess": ("preprocess_kind",
                   frozenset(("fast", "balanced", "quality", "default"))),
    "ocr_mode": ("ocr_mode", frozenset(("fast", "standard", "accurate"))),
}
_CONFIG_INT_KEYS = {"max_dim": "max_dim", "jpeg_quality": "jpeg_quality"}


def parse_kernel_config(config: "str | None") -> dict:
    """Parse a per-row kernel config string into ctx overrides.

    ``'ocr_mode=accurate max_dim=2000 deskew=1'`` →
    ``{'ocr_mode': 'accurate', 'max_dim': 2000, 'do_deskew': True}``.
    Raises ValueError on unknown keys / malformed tokens (the reference
    engine rejects bad config strings at invocation time)."""
    out: dict = {}
    for token in (config or "").split():
        key, sep, value = token.partition("=")
        if not sep or not value:
            raise ValueError(f"malformed kernel_config token: {token!r}")
        if key in _CONFIG_KEYS:
            ctx_key, allowed = _CONFIG_KEYS[key]
            if value not in allowed:
                raise ValueError(
                    f"kernel_config {key}={value!r} not in {sorted(allowed)}")
            out[ctx_key] = value
        elif key in _CONFIG_INT_KEYS:
            try:
                out[_CONFIG_INT_KEYS[key]] = int(value)
            except ValueError:
                raise ValueError(
                    f"kernel_config {key} needs an int, got {value!r}") \
                    from None
        elif key == "deskew":
            if value not in ("0", "1"):
                raise ValueError(
                    f"kernel_config deskew needs 0 or 1, got {value!r}")
            out["do_deskew"] = value == "1"
        else:
            raise ValueError(f"unknown kernel_config key: {key!r}")
    return out


def supported_languages() -> list[str]:
    """S8 — the languages source. The reference shells out
    ``tesseract --list-langs`` and strips the header (app.py:2130-2153);
    the engine's supported set is static config: the language-ID profiles
    plus the reference's documented default ('eng') and mixed mode
    ('eng+ind', README.md:98)."""
    from ..stages.text_analysis import LANG_PROFILES

    return sorted(set(LANG_PROFILES) | {"eng+ind"})
