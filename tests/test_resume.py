"""Checkpoint/resume tests (SURVEY.md §5 item 3, BASELINE.md resumability):
kill-after-k-partitions → resume → byte-identical final output."""

import os
import shutil

import pyarrow.parquet as pq
import pytest

from mobile_ocr_api_ray.state import manifest


@pytest.fixture()
def out_dir(tmp_path):
    return str(tmp_path / "out")


class TestManifest:
    def test_full_run_then_resume_noop(self, ray_session, small_corpus, out_dir):
        pages = os.path.join(small_corpus, "pages.parquet")
        r1 = manifest.run_partitioned_extract(pages, out_dir, n_partitions=8)
        assert r1["completed_now"] == 8
        done = manifest.completed_partitions(out_dir)
        assert done == set(range(8))
        # resume: everything skipped
        r2 = manifest.run_partitioned_extract(pages, out_dir, n_partitions=8)
        assert r2["completed_before"] == 8
        assert r2["completed_now"] == 0
        # output covers every input row exactly once
        total = pq.read_table(pages, columns=["url"]).num_rows
        out = manifest.read_output(out_dir).to_pandas()
        assert len(out) == total
        assert out.url.is_unique

    def test_preempt_and_resume_identical(self, ray_session, small_corpus,
                                          out_dir, tmp_path):
        pages = os.path.join(small_corpus, "pages.parquet")
        # full reference run
        ref_dir = str(tmp_path / "ref")
        manifest.run_partitioned_extract(pages, ref_dir, n_partitions=8)
        ref = manifest.read_output(ref_dir).to_pandas().sort_values("url").reset_index(drop=True)

        # preempted run: stop after ~3 partitions, then resume
        manifest.run_partitioned_extract(pages, out_dir, n_partitions=8,
                                         max_partitions=3)
        partial = manifest.completed_partitions(out_dir)
        assert 0 < len(partial) <= 8
        manifest.run_partitioned_extract(pages, out_dir, n_partitions=8)
        assert manifest.completed_partitions(out_dir) == set(range(8))
        got = manifest.read_output(out_dir).to_pandas().sort_values("url").reset_index(drop=True)
        assert (got.url == ref.url).all()
        assert (got.extracted_text == ref.extracted_text).all()
        assert (got.summary.fillna("") == ref.summary.fillna("")).all()

    def test_manifest_metrics(self, ray_session, small_corpus, out_dir):
        pages = os.path.join(small_corpus, "pages.parquet")
        manifest.run_partitioned_extract(pages, out_dir, n_partitions=4)
        import json
        mdir = os.path.join(out_dir, "_manifest")
        rows = [json.load(open(os.path.join(mdir, f))) for f in sorted(os.listdir(mdir))]
        assert len(rows) == 4
        for m in rows:
            assert m["status"] == "complete"
            assert m["row_count"] > 0
            assert m["bytes"] > 0
            assert len(m["content_digest"]) == 64
            assert m["input_shard"] == pages
            assert m["plan"] == {"input_rows": 400, "n_partitions": 4}
        # the row ranges tile the input in partition order
        assert [m["row_range"] for m in rows] == [[0, 100], [100, 200],
                                                  [200, 300], [300, 400]]

    def test_noop_resume_reads_no_payload(self, ray_session, small_corpus,
                                          tmp_path, out_dir):
        pages = str(tmp_path / "pages.parquet")
        shutil.copytree(os.path.join(small_corpus, "pages.parquet"), pages)
        manifest.run_partitioned_extract(pages, out_dir, n_partitions=8)
        # zero every data page, keeping the parquet footers: a resume that
        # reads any payload now fails
        for f in os.listdir(pages):
            path = os.path.join(pages, f)
            with open(path, "rb") as fh:
                data = fh.read()
            body_end = len(data) - 8 - int.from_bytes(data[-8:-4], "little")
            with open(path, "wb") as fh:
                fh.write(data[:4] + bytes(body_end - 4) + data[body_end:])
        with pytest.raises(OSError):
            pq.read_table(pages)
        r = manifest.run_partitioned_extract(pages, out_dir, n_partitions=8)
        assert r["completed_before"] == 8 and r["completed_now"] == 0

    def test_changed_plan_refused(self, ray_session, small_corpus, out_dir):
        pages = os.path.join(small_corpus, "pages.parquet")
        manifest.run_partitioned_extract(pages, out_dir, n_partitions=8,
                                         max_partitions=2)
        with pytest.raises(ValueError, match="different plan"):
            manifest.run_partitioned_extract(pages, out_dir, n_partitions=16)
        assert manifest.completed_partitions(out_dir) == {0, 1}
        # the SAME plan still resumes cleanly
        r = manifest.run_partitioned_extract(pages, out_dir, n_partitions=8)
        assert r["completed_before"] == 2 and r["completed_now"] == 6
        out = manifest.read_output(out_dir).to_pandas()
        assert len(out) == 400 and out.url.is_unique

    def test_fewer_rows_than_partitions(self, ray_session, small_corpus,
                                        tmp_path, out_dir):
        pages = str(tmp_path / "pages20.parquet")
        src = os.path.join(small_corpus, "pages.parquet")
        pq.write_table(pq.read_table(src).slice(0, 20), pages)
        r = manifest.run_partitioned_extract(pages, out_dir, n_partitions=64)
        assert r["completed_now"] == 64
        assert manifest.completed_partitions(out_dir) == set(range(64))
        out = pq.read_table(out_dir)
        assert out.num_rows == 20 and len(set(out["url"].to_pylist())) == 20
        r = manifest.run_partitioned_extract(pages, out_dir, n_partitions=64)
        assert r["completed_before"] == 64 and r["completed_now"] == 0

    def test_torn_manifest_redone(self, ray_session, small_corpus, out_dir):
        pages = os.path.join(small_corpus, "pages.parquet")
        manifest.run_partitioned_extract(pages, out_dir, n_partitions=4)
        want = manifest.read_output(out_dir).to_pandas().sort_values("url")
        mpath = manifest._manifest_path(out_dir, 2)
        with open(mpath, "r+") as fh:
            fh.truncate(len(fh.read()) // 2)
        assert manifest.completed_partitions(out_dir) == {0, 1, 3}
        r = manifest.run_partitioned_extract(pages, out_dir, n_partitions=4)
        assert r["completed_before"] == 3 and r["completed_now"] == 1
        got = manifest.read_output(out_dir).to_pandas().sort_values("url")
        assert list(got.url) == list(want.url)
        assert list(got.extracted_text) == list(want.extracted_text)


@pytest.mark.slow
class TestResumeBenchTier:
    """Kill-and-resume at a multi-block tier (VERDICT r2 item 6): both
    writers stop after ~half their partitions, resume, and the final
    output must be BYTE-identical (per-partition sha256 content digests)
    to a never-preempted run. Tier defaults to 20k pages so the suite
    stays bounded at the 4-CPU test session; set GRAFT_RESUME_ROWS=320000
    to run the full bench tier (done standalone; recorded in
    BASELINE.md)."""

    def test_extract_kill_half_resume_bytediff(self, ray_session, tmp_path):
        import json

        from mobile_ocr_api_ray import corpus

        rows = int(os.environ.get("GRAFT_RESUME_ROWS", "20000"))
        d = corpus.ensure_corpus(rows, seed=42)
        pages = os.path.join(d, "pages.parquet")
        nparts = 32

        def digests(out):
            mdir = os.path.join(out, "_manifest")
            rows_ = [json.load(open(os.path.join(mdir, f)))
                     for f in sorted(os.listdir(mdir))]
            return {r["partition_id"]: (r["content_digest"], r["row_count"])
                    for r in rows_}

        ref_dir = str(tmp_path / "ref")
        manifest.run_partitioned_extract(pages, ref_dir, n_partitions=nparts)
        out_dir = str(tmp_path / "out")
        manifest.run_partitioned_extract(pages, out_dir, n_partitions=nparts,
                                         max_partitions=nparts // 2)
        half = manifest.completed_partitions(out_dir)
        assert 0 < len(half) < nparts          # genuinely preempted
        r = manifest.run_partitioned_extract(pages, out_dir,
                                             n_partitions=nparts)
        assert r["completed_before"] == len(half)
        assert manifest.completed_partitions(out_dir) == set(range(nparts))
        assert digests(out_dir) == digests(ref_dir)   # byte-identical

        # ---- training-shard export over the extracted output ----
        import ray.data
        ext = ray.data.read_parquet(
            [os.path.join(out_dir, f) for f in sorted(os.listdir(out_dir))
             if f.endswith(".parquet")],
            columns=["url", "extracted_text"])
        ref_exp = str(tmp_path / "exp_ref")
        manifest.export_training_shards(ext, ref_exp, n_shards=16,
                                        key_col="url",
                                        text_col="extracted_text")
        out_exp = str(tmp_path / "exp_out")
        manifest.export_training_shards(ext, out_exp, n_shards=16,
                                        key_col="url",
                                        text_col="extracted_text",
                                        max_shards=8)
        assert len(manifest.completed_partitions(out_exp)) == 8
        r2 = manifest.export_training_shards(ext, out_exp, n_shards=16,
                                             key_col="url",
                                             text_col="extracted_text")
        assert r2["completed_before"] == 8 and r2["completed_now"] == 8
        assert digests(out_exp) == digests(ref_exp)


@pytest.mark.slow
class TestWorkerKillInFlight:
    """In-flight fault tolerance (round-4 verdict item 7): SIGKILL a busy
    Ray worker process MID-RUN and assert the flagship output is
    byte-identical to an unperturbed run — the task-retry story, distinct
    from the manifest/resume story above (which only proves restartability
    between runs). Extraction is deterministic per row, so Ray's task
    retry must reproduce the killed tasks' blocks exactly."""

    @staticmethod
    def _session_raylet_pid() -> "int | None":
        """PID of THIS session's raylet, so the kill never touches workers
        of an unrelated concurrent Ray session on a shared host."""
        import ray
        try:
            node = ray._private.worker._global_node
            return node.all_processes["raylet"][0].process.pid
        except Exception:
            return None

    @staticmethod
    def _ppid(pid: int) -> "int | None":
        try:
            with open(f"/proc/{pid}/status") as f:
                for line in f:
                    if line.startswith("PPid:"):
                        return int(line.split()[1])
        except OSError:
            pass
        return None

    @classmethod
    def _kill_busy_worker(cls) -> "int | None":
        import signal
        import subprocess

        raylet = cls._session_raylet_pid()
        out = subprocess.run(["pgrep", "-af", "ray::"],
                             capture_output=True, text=True).stdout
        for line in out.splitlines():
            pid, _, cmd = line.partition(" ")
            if "IDLE" in cmd or "pgrep" in cmd:
                continue
            try:
                ipid = int(pid)
            except ValueError:
                continue
            # only children of OUR raylet (when identifiable)
            if raylet is not None and cls._ppid(ipid) != raylet:
                continue
            try:
                os.kill(ipid, signal.SIGKILL)
                return ipid
            except ProcessLookupError:
                continue
        return None

    def test_sigkill_worker_byte_identical(self, ray_session):
        import threading
        import time

        from mobile_ocr_api_ray import corpus
        from mobile_ocr_api_ray.pipelines.extract import (
            extract_pipeline, read_pages)

        rows = int(os.environ.get("GRAFT_KILL_ROWS", "10000"))
        d = corpus.ensure_corpus(rows, seed=42)
        pages = os.path.join(d, "pages.parquet")
        cols = ["url", "extracted_text", "confidence", "status", "summary"]

        def run():
            return (extract_pipeline(read_pages(pages))
                    .select_columns(cols).to_pandas()
                    .sort_values("url").reset_index(drop=True))

        want = run()

        killed: list[int] = []
        done = threading.Event()

        def killer():
            for delay in (1.0, 2.0, 2.0):
                if done.wait(delay):
                    return
                pid = self._kill_busy_worker()
                if pid is not None:
                    killed.append(pid)

        t = threading.Thread(target=killer)
        t.start()
        try:
            got = run()
        finally:
            done.set()
            t.join()

        assert killed, "no busy worker found to kill — test was vacuous"
        import pandas as pd
        pd.testing.assert_frame_equal(got, want)
