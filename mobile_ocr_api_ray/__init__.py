"""mobile_ocr_api_ray — a Ray-Data-native main-content extraction engine.

From-scratch re-expression of the data-processing capabilities of the
reference Flask OCR service (HawkinsKaban/mobile-ocr-api: app.py / app2.py)
as streaming ``ray.data.Dataset`` pipelines over zero-copy Arrow batches.

Layout
------
- ``functions/``  pure scalar operators, byte-exact ports of the reference's
  deterministic functions (sentence split, scoring, summarize, routing,
  navigation clamps — SURVEY.md §2.8).
- ``stages/``     per-batch transforms & map stages (HTML boilerplate
  strip, bitmap OCR kernels, structure analysis, dedup, text analysis,
  similarity search, multimodal plumbing — SURVEY.md §2.2/2.3/2.7).
- ``sources/``    readers/sinks for the ``pages`` input table (SURVEY.md §2.1).
- ``pipelines/``  end-to-end pipelines (flagship extraction, relational demos).
- ``state/``      lineage manifests + checkpoint/resume (SURVEY.md §4).
- ``corpus.py``   deterministic synthetic ``pages`` corpus per the
  BASELINE.json input_hint schema (FIXTURES.md §1).

Nothing in this package calls ``ray.init()`` — the caller owns the session.
"""

__version__ = "0.1.0"


def health() -> dict:
    """Engine health snapshot — the batch analog of the reference's /health
    endpoint probing tesseract/poppler availability and versions
    (app.py:1036-1067, app2.py:746-780). Reports library versions, the
    registered extraction kernels, and supported languages; never raises."""
    import numpy
    import pyarrow

    from .functions.routing import supported_languages
    from .stages import extractor  # noqa: F401 - registers default kernels
    from .stages.registry import registered_kernels

    try:
        import ray
        ray_version = ray.__version__
        ray_initialized = ray.is_initialized()
    except Exception:  # pragma: no cover - ray is a hard dep in practice
        ray_version, ray_initialized = None, False
    return {
        "status": "ok",
        "engine_version": __version__,
        "ray": ray_version,
        "ray_initialized": ray_initialized,
        "pyarrow": pyarrow.__version__,
        "numpy": numpy.__version__,
        "kernels": ["/".join(k) for k in registered_kernels()],
        "languages": supported_languages(),
    }
