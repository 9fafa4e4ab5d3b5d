"""Traced runs: spans around calls into each layer's public functions.

The pipelines are re-composed here from the same public functions the
package composes them from, so that each layer call can be timed from
outside the package:

* ``read``: ``pipelines.extract.read_pages`` (materialized under its span);
* ``extractor``: an ``ExtractorActor`` built with ``kernels=`` wrappers
  around the registered default kernels (``html_extract`` for html,
  ``image_extract`` for image and pdf);
* ``summarize``: ``pipelines.extract.summarize_batch``;
* ``manifest``: ``state.manifest.completed_partitions`` and
  ``write_partition``, inside a mirror of ``run_partitioned_extract``.

A span is a dict ``{run, id, parent, name, start, end, **counts}``. Spans
made in Ray worker processes travel back to the driver in an extra
``_spans`` column (JSON, on the first row of each batch), which the driver
strips before the golden check. All spans stay in memory and are written
out once, at the end of the run. Times come from ``time.perf_counter``,
which on Linux reads CLOCK_MONOTONIC, one clock for every process on the
host, so spans from the driver and the workers nest on one time line.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import shutil
import statistics
import time

import pyarrow as pa
import pyarrow.compute as pc

from perfbench import workloads as wl

clock = time.perf_counter

SPANS_COLUMN = "_spans"
KERNEL_LAYER = {"html": "html_extract", "image": "image_extract",
                "pdf": "image_extract"}


class SpanLog:
    """Spans of one job, recorded in one process."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[dict] = []
        self._ids = itertools.count()

    def new_id(self) -> str:
        return f"{os.getpid()}-{next(self._ids)}"

    def add(self, name: str, start: float, end: float, parent: str | None,
            span_id: str | None = None, **counts) -> str:
        span_id = span_id or self.new_id()
        self.spans.append({"run": self.run_id, "id": span_id, "parent": parent,
                           "name": name, "start": start, "end": end, **counts})
        return span_id

    def take(self) -> list[dict]:
        spans, self.spans = self.spans, []
        return spans


class TracedKernel:
    """Wraps an extraction kernel; records one span per call."""

    def __init__(self, kind: str, fn, log: SpanLog):
        self.kind, self.fn, self.log = kind, fn, log
        self.parent: str | None = None

    def __call__(self, payload: bytes, ctx: dict):
        t0 = clock()
        try:
            return self.fn(payload, ctx)
        finally:
            t1 = clock()
            counts = {"kind": self.kind, "bytes": len(payload)}
            if self.kind != "html":
                counts.update(_image_counts(self.kind, payload))
            self.log.add(KERNEL_LAYER[self.kind], t0, t1, self.parent, **counts)


def _image_counts(kind: str, payload: bytes) -> dict:
    from mobile_ocr_api_ray.stages import glyphs

    pages = glyphs.decode_pdfx(payload) if kind == "pdf" else [payload]
    pixels = sum(glyphs.decode_imgx(p).size for p in pages)
    return {"pages": len(pages), "mpixels": pixels / 1e6}


@functools.lru_cache(maxsize=1)
def _worker_state(run_id: str):
    """Per worker process and job: a span log and a fresh extractor, so a
    traced job's result LRU starts empty, like an untraced job's on a
    fresh corpus."""
    from mobile_ocr_api_ray.stages.extractor import ExtractorActor
    from mobile_ocr_api_ray.stages.registry import resolve_kernel

    log = SpanLog(run_id)
    kernels = {kind: TracedKernel(kind, resolve_kernel(kind), log)
               for kind in ("html", "image", "pdf")}
    return log, ExtractorActor(kernels=kernels), list(kernels.values())


def _spans_of(table: pa.Table) -> list[dict]:
    return [s for cell in table[SPANS_COLUMN].to_pylist() if cell
            for s in json.loads(cell)]


def _with_spans(batch: pa.Table, spans: list[dict]) -> pa.Table:
    """Put the batch's earlier spans (Ray may have joined several upstream
    batches into it) and ``spans`` on its first row. An empty batch has no
    row to carry them; its spans cover no rows and are dropped."""
    if SPANS_COLUMN in batch.column_names:
        spans = _spans_of(batch) + spans
        batch = batch.drop_columns([SPANS_COLUMN])
    cells = [json.dumps(spans)] + [None] * (batch.num_rows - 1) if batch.num_rows else []
    return batch.append_column(SPANS_COLUMN, pa.array(cells, pa.string()))


def traced_extract(batch: pa.Table, run_id: str, parent: str) -> pa.Table:
    """``map_batches`` stage: the extractor under an ``extractor`` span,
    each kernel call under a child span."""
    log, extractor, kernels = _worker_state(run_id)
    span_id = log.new_id()
    for k in kernels:
        k.parent = span_id
    t0 = clock()
    out = extractor(batch)
    t1 = clock()
    rejected = pc.equal(out["status"], "rejected")
    kernel_path = pc.and_(pc.invert(rejected), pc.equal(out["source"], "kernel"))
    log.add("extractor", t0, t1, parent, span_id, rows=out.num_rows,
            direct_text_rows=pc.sum(pc.equal(out["source"], "direct_text")).as_py() or 0,
            rejected_rows=pc.sum(rejected).as_py() or 0,
            kernel_path_rows=pc.sum(kernel_path).as_py() or 0)
    return _with_spans(out, log.take())


def traced_summarize(batch: pa.Table, run_id: str, parent: str) -> pa.Table:
    """``map_batches`` stage: ``summarize_batch`` under a ``summarize`` span."""
    from mobile_ocr_api_ray.pipelines.extract import SUMMARY_MIN_WORDS, summarize_batch

    log = _worker_state(run_id)[0]
    t0 = clock()
    out = summarize_batch(batch)
    t1 = clock()
    # rows that reach functions.textproc.summarize (summarize_batch's rule)
    summarized = sum(1 for text, status in zip(batch["extracted_text"].to_pylist(),
                                               batch["status"].to_pylist())
                     if status == "ok" and text is not None
                     and len(text.split()) >= SUMMARY_MIN_WORDS)
    log.add("summarize", t0, t1, parent, rows=batch.num_rows,
            summarized_rows=summarized)
    return _with_spans(out, log.take())


def traced_write_group(group: pa.Table, out_dir: str, pages_path: str,
                       run_id: str, parent: str) -> pa.Table:
    """``map_groups`` stage of the checkpoint mirror: ``write_partition``
    under a ``write_partition`` span; returns the group's spans."""
    from mobile_ocr_api_ray.state.manifest import write_partition

    log = _worker_state(run_id)[0]
    spans = _spans_of(group)
    g0 = time.time()
    pid = int(group["partition_id"][0].as_py())
    table = group.drop_columns(["partition_id", SPANS_COLUMN]).sort_by("url")
    t0 = clock()
    m = write_partition(table, out_dir, pid, pages_path, g0)
    t1 = clock()
    log.add("write_partition", t0, t1, parent, bytes=m["bytes"])
    return pa.table({"partition_id": pa.array([pid], pa.int32()),
                     "row_count": pa.array([m["row_count"]], pa.int64()),
                     SPANS_COLUMN: pa.array([json.dumps(spans + log.take())])})


class Tracer:
    """Runs traced jobs of one workload and derives per-layer metrics."""

    def __init__(self, workload: str):
        self.workload = workload
        self.spans: list[dict] = []

    def run_job(self, inp: wl.JobInput, work_dir: str, k: int) -> wl.JobResult:
        log = SpanLog(f"{self.workload}-job{k}")
        job_id = log.new_id()
        t0 = clock()
        if self.workload == "checkpoint_resume":
            out_dir = os.path.join(work_dir, "checkpoint")
            try:
                calls = [self._partitioned_extract(inp.pages_dir, out_dir, log,
                                                   job_id, max_partitions=m)
                         for m in (wl.CKPT_PARTITIONS // 2, None, None)]
                t1 = clock()
                wl.check_noop(calls[-1])
                out = wl.read_checkpoint(out_dir)
            finally:
                shutil.rmtree(out_dir, ignore_errors=True)
        else:
            out = self._stream(inp.pages_dir, log, job_id)
            t1 = clock()
        log.add("job", t0, t1, None, job_id, rows=inp.rows)
        self.spans += log.take()
        return wl.JobResult(out, t1 - t0)

    def _read(self, pages_path: str, log: SpanLog, parent: str):
        from mobile_ocr_api_ray.pipelines.extract import read_pages

        t0 = clock()
        ds = read_pages(pages_path).materialize()
        t1 = clock()
        log.add("read", t0, t1, parent, rows=ds.count(), blocks=ds.num_blocks(),
                mb=ds.size_bytes() / 1e6)
        return ds

    def _stream(self, pages_path: str, log: SpanLog, parent: str) -> pa.Table:
        """Mirror of ``extract_pipeline(read_pages(path))``, streamed."""
        from mobile_ocr_api_ray.pipelines.extract import DEFAULT_EXTRACT_BATCH

        kw = {"run_id": log.run_id, "parent": parent}
        ds = self._read(pages_path, log, parent)
        ds = ds.map_batches(traced_extract, fn_kwargs=kw, batch_format="pyarrow",
                            batch_size=DEFAULT_EXTRACT_BATCH)
        ds = ds.map_batches(traced_summarize, fn_kwargs=kw, batch_format="pyarrow",
                            batch_size=None)
        parts = []
        for b in ds.iter_batches(batch_size=None, batch_format="pyarrow"):
            log.spans += _spans_of(b)
            parts.append(b.select(wl.CHECK_COLUMNS))
        return wl.collect(parts)

    def _partitioned_extract(self, pages_path: str, out_dir: str, log: SpanLog,
                             parent: str, max_partitions: int | None) -> dict:
        """Mirror of ``state.manifest.run_partitioned_extract`` at the
        benchmark's settings (64 partitions, batch size 32)."""
        from mobile_ocr_api_ray.state.manifest import (add_partition_column,
                                                       completed_partitions)

        n = wl.CKPT_PARTITIONS
        call_id = log.new_id()
        kw = {"run_id": log.run_id, "parent": call_id}
        c0 = clock()
        done = completed_partitions(out_dir)
        log.add("completed_partitions", c0, clock(), call_id)
        ds = self._read(pages_path, log, call_id)
        ds = ds.map_batches(lambda b: add_partition_column(b, n), batch_format="pyarrow")
        todo = sorted(set(range(n)) - done)
        if max_partitions is not None:
            todo = todo[:max_partitions]
        if len(todo) < n:
            todo_arr = pa.array(todo, pa.int32())
            ds = ds.map_batches(
                lambda b: b.filter(pc.is_in(b["partition_id"], value_set=todo_arr)),
                batch_format="pyarrow")
        ds = ds.map_batches(traced_extract, fn_kwargs=kw, batch_format="pyarrow",
                            batch_size=32)
        ds = ds.map_batches(traced_summarize, fn_kwargs=kw, batch_format="pyarrow",
                            batch_size=None)
        ds = ds.map_batches(lambda b: add_partition_column(b, n), batch_format="pyarrow")

        def write_group(group: pa.Table) -> pa.Table:
            return traced_write_group(group, out_dir, pages_path, log.run_id, call_id)

        written = ds.groupby("partition_id").map_groups(write_group,
                                                        batch_format="pyarrow")
        wdf = written.to_pandas()
        # a resume with nothing to do writes no group, so no columns either
        log.spans += [s for cell in wdf.get(SPANS_COLUMN, []) for s in json.loads(cell)]
        n_new = len(wdf)
        log.add("run_partitioned_extract", c0, clock(), parent, call_id,
                partitions_skipped=len(done), partitions_written=n_new)
        return {"completed_before": len(done), "completed_now": n_new,
                "out_dir": out_dir, "n_partitions": n}

    def write_spans(self, path: str) -> None:
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps(s) + "\n")

    def layer_metrics(self, untraced_docs_per_s: float,
                      traced_docs_per_s: float) -> dict[str, tuple[float, str]]:
        """Per-layer metrics: the median over traced jobs of each job's
        value, plus the tracing overhead."""
        by_run: dict[str, list[dict]] = {}
        for s in self.spans:
            by_run.setdefault(s["run"], []).append(s)
        per_job = [job_layers(spans) for spans in by_run.values()]
        out = {name: (statistics.median(j[name][0] for j in per_job), unit)
               for name, (_, unit) in per_job[0].items()}
        out["trace.untraced_docs_per_s"] = (untraced_docs_per_s, "docs/s")
        out["trace.traced_docs_per_s"] = (traced_docs_per_s, "docs/s")
        out["trace.overhead_ratio"] = (1 - traced_docs_per_s / untraced_docs_per_s,
                                       "ratio")
        return out


def _covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of [lo, hi] covered by the union of ``intervals``."""
    total, frontier = 0.0, lo
    for a, b in sorted(intervals):
        a, b = max(a, frontier), min(b, hi)
        if b > a:
            total += b - a
            frontier = b
    return total


def _self_s(span: dict, children: list[dict]) -> float:
    return (span["end"] - span["start"]) - _covered(
        [(c["start"], c["end"]) for c in children], span["start"], span["end"])


def job_layers(spans: list[dict]) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one job's spans."""
    children: dict[str, list[dict]] = {}
    for s in spans:
        children.setdefault(s["parent"], []).append(s)

    def named(name: str) -> list[dict]:
        return [s for s in spans if s["name"] == name]

    def dur(ss: list[dict]) -> float:
        return sum(s["end"] - s["start"] for s in ss)

    def total(ss: list[dict], key: str) -> float:
        return sum(s[key] for s in ss)

    job = named("job")[0]
    read, ext, summ = named("read"), named("extractor"), named("summarize")
    html, image = named("html_extract"), named("image_extract")
    calls, writes = named("run_partitioned_extract"), named("write_partition")
    kernel_path = total(ext, "kernel_path_rows")
    kernel_calls = len(html) + len(image)
    return {
        "job.s": (job["end"] - job["start"], "s"),
        "job.self_s": (_self_s(job, children.get(job["id"], [])), "s"),
        "read.s": (dur(read), "s"),
        "read.rows": (total(read, "rows"), "count"),
        "read.mb": (total(read, "mb"), "MB"),
        "read.blocks": (total(read, "blocks"), "count"),
        "extractor.self_s": (sum(_self_s(s, children.get(s["id"], [])) for s in ext), "s"),
        "extractor.rows": (total(ext, "rows"), "count"),
        "extractor.kernel_calls": (kernel_calls, "count"),
        "extractor.lru_hit_ratio": ((kernel_path - kernel_calls) / kernel_path
                                    if kernel_path else 0.0, "ratio"),
        "extractor.direct_text_rows": (total(ext, "direct_text_rows"), "count"),
        "extractor.rejected_rows": (total(ext, "rejected_rows"), "count"),
        "html_extract.s": (dur(html), "s"),
        "html_extract.calls": (len(html), "count"),
        "html_extract.mb": (total(html, "bytes") / 1e6, "MB"),
        "image_extract.s": (dur(image), "s"),
        "image_extract.calls": (len(image), "count"),
        "image_extract.pages": (total(image, "pages"), "count"),
        "image_extract.mpixels": (total(image, "mpixels"), "Mpx"),
        "summarize.s": (dur(summ), "s"),
        "summarize.rows": (total(summ, "rows"), "count"),
        "summarize.summarized_rows": (total(summ, "summarized_rows"), "count"),
        "manifest.self_s": (sum(_self_s(c, children.get(c["id"], [])) for c in calls)
                            + dur(named("completed_partitions")), "s"),
        "manifest.write_s": (dur(writes), "s"),
        "manifest.write_calls": (len(writes), "count"),
        "manifest.mb_written": (total(writes, "bytes") / 1e6, "MB"),
        "manifest.partitions_skipped": (total(calls, "partitions_skipped"), "count"),
        "manifest.resume_noop_s": (dur(calls[-1:]), "s"),
    }
