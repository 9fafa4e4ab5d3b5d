"""Smoke test of the benchmark itself, each workload at a few dozen rows.

    python3 -m pytest perfbench/test_smoke.py -q

Checks that every metric named in ``BENCHMARK.json`` is printed with its
unit, untraced and traced, and that a corrupted output row fails the
golden check and the command.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile

import pyarrow as pa
import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, ROOT)

from perfbench import workloads as wl  # noqa: E402

# ocr_uploads keeps ~5% of its corpus, so it needs a larger one
SMALL_ROWS = {"crawl_mix": 40, "ocr_uploads": 500, "checkpoint_resume": 40}
E2E = ["docs_per_s", "cpu_ms_per_doc", "setup_s", "peak_rss_mb", "failed_share"]
REPORTED = {"crawl_mix": E2E, "ocr_uploads": E2E,
            "checkpoint_resume": E2E + ["resume_noop_s"]}


def _spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def _run(workload: str, trace: int) -> tuple[list[str], dict]:
    p = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--rows", str(SMALL_ROWS[workload])],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert p.returncode == 0, p.stderr[-3000:]
    lines = p.stdout.strip().splitlines()
    return lines[:-1], json.loads(lines[-1])


def _check_result(result: dict, metrics: list[dict]) -> None:
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in metrics}
    for m in metrics:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]


@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_end_to_end_metrics_printed(workload):
    lines, result = _run(workload, 0)
    _check_result(result, _spec()["end_to_end"])
    for m in _spec()["end_to_end"]:
        assert result["metrics"][m["name"]]["value"] > 0
    from perfbench.run import UNITS

    for name in REPORTED[workload]:
        assert any(line.startswith(f"{name} ") and line.endswith(f" {UNITS[name]}")
                   for line in lines), (name, lines)


@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_traced_run_prints_every_layer_metric(workload):
    lines, result = _run(workload, 1)
    _check_result(result, _spec()["per_layer"])
    for m in _spec()["per_layer"]:
        assert any(line.startswith(f"{m['name']} ") and line.endswith(f" {m['unit']}")
                   for line in lines), (m["name"], lines)
    assert os.path.exists(os.path.join(ROOT, ".bench_work",
                                       f"spans-{workload}-seed3.jsonl"))
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    # each of checkpoint_resume's three calls re-reads every row
    reads = 3 if workload == "checkpoint_resume" else 1
    assert metrics["read.rows"] == reads * metrics["extractor.rows"] > 0
    if workload == "checkpoint_resume":
        assert metrics["manifest.write_calls"] > 0
        assert metrics["manifest.partitions_skipped"] > 0
    else:
        assert metrics["manifest.write_calls"] == 0
    if workload == "ocr_uploads":
        assert metrics["html_extract.calls"] == 0
        assert metrics["image_extract.calls"] > 0


def _extracted(rows: int, seed: int) -> tuple[pa.Table, pa.Table]:
    """Extract a generated corpus in-process; return (output, golden)."""
    from mobile_ocr_api_ray.corpus import generate_pages
    from mobile_ocr_api_ray.stages.extractor import ExtractorActor

    pages, golden = generate_pages(rows, seed)
    return ExtractorActor()(pages).select(wl.CHECK_COLUMNS), golden


def _replace_text(out: pa.Table, i: int, text: str) -> pa.Table:
    texts = out["extracted_text"].to_pylist()
    texts[i] = text
    return out.set_column(out.column_names.index("extracted_text"),
                          "extracted_text", pa.array(texts, pa.string()))


def test_golden_check_counts_each_kind_of_failure():
    out, golden = _extracted(40, 5)
    assert wl.count_failures(out, golden) == 0
    exact = golden["golden_exact"].to_pylist().index(True)
    assert wl.count_failures(_replace_text(out, exact, "corrupted"), golden) == 1
    assert wl.count_failures(out.slice(1), golden) == 1                    # missing
    assert wl.count_failures(pa.concat_tables([out, out.slice(0, 1)]), golden) == 1
    statuses = out["status"].to_pylist()
    statuses[3] = "error"
    errored = out.set_column(out.column_names.index("status"), "status",
                             pa.array(statuses, pa.string()))
    assert wl.count_failures(errored, golden) == 1


def test_corrupted_row_fails_the_command(monkeypatch, capsys):
    from perfbench import run

    real = wl.run_stream

    def corrupting(inp):
        res = real(inp)
        exact = inp.golden["golden_exact"].to_pylist().index(True)
        url = inp.golden["url"][exact].as_py()
        i = res.out["url"].to_pylist().index(url)
        res.out = _replace_text(res.out, i, "corrupted")
        return res

    monkeypatch.setattr(wl, "run_stream", corrupting)
    monkeypatch.chdir(ROOT)
    monkeypatch.setenv("TMPDIR", tempfile.gettempdir())  # main() repoints it
    code = run.main(["--workload", "crawl_mix", "--seed", "4", "--seconds", "1",
                     "--rows", "40"])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 1
    assert result["correct"] is False and result["failed"] >= 1


def test_self_time_subtracts_the_union_of_child_spans():
    from perfbench.tracing import job_layers

    def span(name, start, end, parent, span_id=None, **counts):
        return {"run": "r", "id": span_id or name, "parent": parent, "name": name,
                "start": start, "end": end, **counts}

    spans = [
        span("job", 0.0, 10.0, None, rows=4),
        span("read", 0.0, 1.0, "job", rows=4, blocks=1, mb=1.0),
        span("extractor", 1.0, 6.0, "job", rows=4, direct_text_rows=1,
             rejected_rows=0, kernel_path_rows=3),
        span("html_extract", 2.0, 3.0, "extractor", "k1", bytes=10),
        span("image_extract", 2.5, 4.0, "extractor", "k2", bytes=10, pages=1,
             mpixels=0.5),
        span("summarize", 6.0, 8.0, "job", rows=4, summarized_rows=2),
    ]
    m = {k: v for k, (v, _) in job_layers(spans).items()}
    assert m["job.self_s"] == 2.0              # 10 s minus children covering 0-8
    assert m["extractor.self_s"] == 3.0        # 5 s minus kernels covering 2-4
    assert m["extractor.kernel_calls"] == 2
    assert abs(m["extractor.lru_hit_ratio"] - 1 / 3) < 1e-12
    assert m["manifest.write_calls"] == 0 and m["manifest.resume_noop_s"] == 0
