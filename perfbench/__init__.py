"""Golden-checked extraction benchmark for ``mobile_ocr_api_ray``.

Run ``python3 perfbench/run.py --workload crawl_mix --seed 1 --seconds 10
--trace 0`` from the repository root; see ``perfbench/README.md``.
"""
