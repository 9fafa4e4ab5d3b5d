"""Workload inputs, the golden check, and the untraced timed jobs.

Every input comes from ``corpus.generate_pages(rows, seed)``; the paired
``golden`` table, recorded at generation time from the known main content,
checks every output row. Each timed job gets a corpus of its own seed
(``job_seed``), so no payload it extracts was cached by the extractor's
per-process result LRU during warm-up or an earlier job.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass

import pyarrow as pa
import pyarrow.parquet as pq

WORKLOADS = ("crawl_mix", "ocr_uploads", "checkpoint_resume")

# Generated corpus rows per timed job. ocr_uploads keeps only its image and
# pdf rows with no text layer (~5% of a corpus), so it draws from a larger one.
JOB_ROWS = {"crawl_mix": 2000, "ocr_uploads": 4000, "checkpoint_resume": 1000}
WARM_ROWS = {"crawl_mix": 200, "ocr_uploads": 600, "checkpoint_resume": 200}

# ocr_uploads takes a fixed number of rows of each kind from its corpus: an
# over-size image costs ~10x a small one, so a corpus's own share of them
# would make throughput vary from seed to seed more than from code changes.
# A 4000-row corpus holds 126-155 small images, 16-29 over-size ones and
# 39-60 pdfs (five seeds checked).
OCR_QUOTAS = {"image": 100, "oversize_image": 12, "pdf": 30}

GEN_PROCS = 4

# The warm-up corpus is the same on every run, so set-up does the same work
# whatever the seed. Negative, so it is never the seed of a timed job.
WARM_SEED = -1

# run_partitioned_extract's default partition count; the first call is
# preempted after half of them.
CKPT_PARTITIONS = 64

CHECK_COLUMNS = ["url", "status", "extracted_text"]


def job_seed(seed: int, k: int) -> int:
    """Corpus seed of timed job ``k`` >= 1 of a run."""
    return seed * 1000 + k


@dataclass
class JobInput:
    pages_dir: str
    golden: pa.Table
    rows: int


def make_input(workload: str, seed: int, rows: int, out_dir: str) -> JobInput:
    """Generate a workload's pages and write them as parquet shards the way
    ``corpus.ensure_corpus`` lays out a tier."""
    from mobile_ocr_api_ray.corpus import generate_pages

    pages, golden = generate_pages(rows, seed)
    if workload == "ocr_uploads":
        keep = _ocr_rows(pages, golden)
        pages, golden = pages.take(keep), golden.take(keep)
    pages_dir = os.path.join(out_dir, "pages.parquet")
    os.makedirs(pages_dir)
    n = pages.num_rows
    n_shards = min(128, max(8, n // 64))
    per = -(-n // n_shards)
    for s in range(n_shards):
        shard = pages.slice(s * per, per)
        if shard.num_rows == 0:
            break
        pq.write_table(shard, os.path.join(pages_dir, f"shard-{s:04d}.parquet"))
    return JobInput(pages_dir, golden.select(["url", "golden_text", "golden_exact"]), n)


class InputPool:
    """Generates job inputs in ``GEN_PROCS`` child processes, each running
    ``python3 -m perfbench.workloads`` (see ``serve``).

    Generating a corpus costs about as much as extracting it, so inputs are
    made in parallel, in batches, and only while no job is being timed:
    ``get`` waits for a whole batch before it returns. Input 0 is the
    warm-up corpus. Plain child processes rather than ``multiprocessing``,
    whose resource tracker process would outlive the benchmark. Use as a
    context manager; leaving it ends the processes and waits for them."""

    def __init__(self, workload: str, seed: int, rows: int, warm_rows: int,
                 work_dir: str):
        self.workload, self.seed, self.rows = workload, seed, rows
        self.warm_rows, self.work_dir = warm_rows, work_dir
        self._procs: list[subprocess.Popen] = []
        for _ in range(min(GEN_PROCS, len(os.sched_getaffinity(0)))):
            self._procs.append(subprocess.Popen(
                [sys.executable, "-m", "perfbench.workloads"],
                stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True))
        self._ready: dict[int, JobInput] = {}

    def _request(self, proc: subprocess.Popen, k: int) -> None:
        seed, rows = ((WARM_SEED, self.warm_rows) if k == 0
                      else (job_seed(self.seed, k), self.rows))
        out_dir = os.path.join(self.work_dir, f"in{k}")
        proc.stdin.write(json.dumps([self.workload, seed, rows, out_dir]) + "\n")
        proc.stdin.flush()

    def get(self, k: int) -> JobInput:
        if k not in self._ready:
            batch = range(k, k + len(self._procs))
            for proc, j in zip(self._procs, batch):
                self._request(proc, j)
            for proc, j in zip(self._procs, batch):
                reply = proc.stdout.readline()
                if not reply:
                    raise RuntimeError(f"input generator exited with {proc.wait()}")
                pages_dir, rows = json.loads(reply)
                golden = pq.read_table(os.path.join(os.path.dirname(pages_dir),
                                                    "golden.parquet"))
                self._ready[j] = JobInput(pages_dir, golden, rows)
        return self._ready.pop(k)

    def __enter__(self) -> "InputPool":
        return self

    def __exit__(self, exc_type, *_) -> None:
        for proc in self._procs:
            proc.stdin.close()  # an idle generator exits at end of input
            if exc_type is not None:
                proc.kill()
        for proc in self._procs:
            proc.wait()
            proc.stdout.close()


def serve() -> None:
    """Input generator of ``InputPool``: for each request line on stdin,
    ``[workload, seed, rows, out_dir]``, make the input, write its golden
    table beside the pages, and answer ``[pages_dir, rows]`` on one line."""
    reply, sys.stdout = sys.stdout, sys.stderr  # stray prints stay off the replies
    for line in sys.stdin:
        workload, seed, rows, out_dir = json.loads(line)
        inp = make_input(workload, seed, rows, out_dir)
        pq.write_table(inp.golden, os.path.join(out_dir, "golden.parquet"))
        print(json.dumps([inp.pages_dir, inp.rows]), file=reply, flush=True)


def _ocr_rows(pages: pa.Table, golden: pa.Table) -> list[int]:
    """Indices of the first ``OCR_QUOTAS`` image and pdf rows whose text
    layer is empty, so the kernel must run. An over-size image is one whose
    golden text is not byte-exact (it exceeds the resize threshold)."""
    left = dict(OCR_QUOTAS)
    keep = []
    for i, (kind, exact, text) in enumerate(zip(golden["payload_kind"].to_pylist(),
                                                golden["golden_exact"].to_pylist(),
                                                pages["text"].to_pylist())):
        stratum = "oversize_image" if kind == "image" and not exact else kind
        if left.get(stratum, 0) > 0 and not text.strip():
            left[stratum] -= 1
            keep.append(i)
    return keep


def count_failures(out: pa.Table, golden: pa.Table) -> int:
    """Rows failing the golden check. A url fails if its row has status
    ``error``, if it is missing from or repeated in the output, if it is
    not an input url, or if it is a ``golden_exact`` row whose
    ``extracted_text`` is not byte-equal to ``golden_text``."""
    expected = dict(zip(golden["url"].to_pylist(),
                        zip(golden["golden_text"].to_pylist(),
                            golden["golden_exact"].to_pylist())))
    urls = out["url"].to_pylist()
    seen = Counter(urls)
    bad = {u for u, c in seen.items() if c > 1} | (expected.keys() - seen.keys())
    for url, status, text in zip(urls, out["status"].to_pylist(),
                                 out["extracted_text"].to_pylist()):
        if status == "error" or url not in expected:
            bad.add(url)
            continue
        golden_text, exact = expected[url]
        if exact and text != golden_text:
            bad.add(url)
    return len(bad)


def collect(parts: list[pa.Table]) -> pa.Table:
    """The checked columns of a job's output batches as one table."""
    if not parts:
        return pa.table({c: pa.array([], pa.string()) for c in CHECK_COLUMNS})
    return pa.concat_tables(parts)


@dataclass
class JobResult:
    out: pa.Table        # CHECK_COLUMNS of every output row
    seconds: float       # timed part of the job
    resume_noop_s: float | None = None


def run_stream(inp: JobInput) -> JobResult:
    """crawl_mix / ocr_uploads: the flagship pipeline streamed to the driver."""
    from mobile_ocr_api_ray.pipelines.extract import extract_pipeline, read_pages

    t0 = time.perf_counter()
    ds = extract_pipeline(read_pages(inp.pages_dir))
    parts = [b.select(CHECK_COLUMNS)
             for b in ds.iter_batches(batch_size=None, batch_format="pyarrow")]
    return JobResult(collect(parts), time.perf_counter() - t0)


def read_checkpoint(out_dir: str) -> pa.Table:
    return pq.read_table(out_dir, columns=CHECK_COLUMNS)


def check_noop(summary: dict) -> None:
    # a partition that no url hashes into is never written, so only a
    # corpus of a few hundred rows leaves completed_before below the count
    if summary["completed_now"] != 0:
        raise RuntimeError(f"no-op resume did work: {summary}")


def run_checkpoint(inp: JobInput, out_dir: str) -> JobResult:
    """checkpoint_resume: a run preempted after half the partitions, the
    resume that completes it, and a resume with nothing left to do; all
    three are timed. The output is read back untimed."""
    from mobile_ocr_api_ray.state.manifest import run_partitioned_extract

    t0 = time.perf_counter()
    run_partitioned_extract(inp.pages_dir, out_dir, n_partitions=CKPT_PARTITIONS,
                            max_partitions=CKPT_PARTITIONS // 2)
    run_partitioned_extract(inp.pages_dir, out_dir, n_partitions=CKPT_PARTITIONS)
    t1 = time.perf_counter()
    noop = run_partitioned_extract(inp.pages_dir, out_dir,
                                   n_partitions=CKPT_PARTITIONS)
    t2 = time.perf_counter()
    check_noop(noop)
    return JobResult(read_checkpoint(out_dir), t2 - t0, t2 - t1)


def warm_up(workload: str, inp: JobInput, work_dir: str) -> None:
    """Set-up work after Ray starts: the workload's layers over the warm-up
    corpus, so workers have imported and warmed them (for
    checkpoint_resume, one ``run_partitioned_extract`` call)."""
    if workload != "checkpoint_resume":
        run_stream(inp)
        return
    from mobile_ocr_api_ray.state.manifest import run_partitioned_extract

    out_dir = os.path.join(work_dir, "checkpoint")
    try:
        run_partitioned_extract(inp.pages_dir, out_dir, n_partitions=CKPT_PARTITIONS)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)


def run_job(workload: str, inp: JobInput, work_dir: str) -> JobResult:
    if workload == "checkpoint_resume":
        out_dir = os.path.join(work_dir, "checkpoint")
        try:
            return run_checkpoint(inp, out_dir)
        finally:
            shutil.rmtree(out_dir, ignore_errors=True)
    return run_stream(inp)


if __name__ == "__main__":
    serve()
