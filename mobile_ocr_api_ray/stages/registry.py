"""Kernel registry — the engine's user-extension surface (SURVEY.md §2.10).

The reference's extension points are stringly-typed enums threaded through
request params: ``preprocess_type`` (app.py:487), OCR ``mode``
(app2.py:316), ``quality`` (app2.py:841-845), ``language`` passthrough
(app.py:1127) and raw Tesseract config injection (app.py:567,580-581).
Here the equivalent is a registry of extraction kernels keyed by
``(payload_kind, name)``:

    register_kernel("html", "readability_v2", my_fn)
    ExtractorActor(kernels={"html": "readability_v2"})

Kernel contract: ``fn(payload: bytes, ctx: dict) -> (text, confidence,
paragraph_dicts, total_pages)`` where ``ctx`` carries the routed params
(``preprocess_kind``, ``ocr_mode``, ``max_dim``, ``do_deskew``) and
``paragraph_dicts`` is ``[{text, x, y, width, height, column}]``.

Distribution note: name-based resolution happens inside the worker process
when the extractor is built, so a name is only resolvable if its ``register_kernel`` call
runs at import time of a module the workers import. Arbitrary user kernels
should instead be passed as the callable itself —
``ExtractorActor(kernels={"html": my_fn})`` — which Ray serializes with the
stage (closure capture), the distribution-safe path. The
standard UDF hook beyond kernels is ordinary composition: any
``map_batches``-compatible callable inserted between pipeline stages.
"""

from __future__ import annotations

from typing import Callable

_KERNELS: dict[tuple[str, str], Callable] = {}


def register_kernel(payload_kind: str, name: str, fn: Callable) -> None:
    """Register an extraction kernel for a payload kind under a name."""
    _KERNELS[(payload_kind, name)] = fn


def resolve_kernel(payload_kind: str, name: str = "default") -> Callable:
    """Resolve a kernel; unknown names fall back to the kind's default
    (mirroring the reference's validate-else-'medium' routing,
    app2.py:844-845)."""
    if (payload_kind, name) in _KERNELS:
        return _KERNELS[(payload_kind, name)]
    return _KERNELS[(payload_kind, "default")]


def registered_kernels() -> list[tuple[str, str]]:
    return sorted(_KERNELS)
