"""Sharded training-data export: determinism, resume, round-trip."""

from __future__ import annotations

import os
import shutil

import pyarrow as pa
import pytest

from mobile_ocr_api_ray.state import manifest as mstate

SF = "/root/testdata/sf0.001"
OUT = "/tmp/test_training_export"


def docs_ds(n=60):
    import ray.data
    return ray.data.from_arrow(pa.table({
        "doc_id": pa.array(list(range(n)), pa.int64()),
        "text": pa.array([f"doc body {i} " * 4 for i in range(n)],
                         pa.string())}))


class TestTrainingExport:
    def test_export_and_roundtrip(self, ray_session):
        shutil.rmtree(OUT, ignore_errors=True)
        s = mstate.export_training_shards(docs_ds(), OUT, n_shards=8)
        assert s["completed_now"] == 8 and s["completed_before"] == 0
        m = mstate.shard_manifest_table(OUT)
        assert m.num_rows == 8
        assert sum(m["row_count"].to_pylist()) == 60
        back = mstate.read_output(OUT).to_pandas().sort_values("doc_id")
        assert list(back.doc_id) == list(range(60))

    def test_resume_skips_completed(self, ray_session):
        shutil.rmtree(OUT, ignore_errors=True)
        mstate.export_training_shards(docs_ds(), OUT, n_shards=8)
        # delete two shards + their manifests → only those re-export
        for pid in (1, 5):
            os.remove(os.path.join(OUT, f"part-{pid:05d}.parquet"))
            os.remove(os.path.join(OUT, "_manifest", f"part-{pid:05d}.json"))
        s = mstate.export_training_shards(docs_ds(), OUT, n_shards=8)
        assert s["completed_before"] == 6 and s["completed_now"] == 2
        back = mstate.read_output(OUT).to_pandas()
        assert len(back) == 60

    def test_digests_deterministic(self, ray_session):
        shutil.rmtree(OUT, ignore_errors=True)
        mstate.export_training_shards(docs_ds(), OUT, n_shards=4)
        d1 = mstate.shard_manifest_table(OUT)["content_digest"].to_pylist()
        shutil.rmtree(OUT)
        mstate.export_training_shards(docs_ds(), OUT, n_shards=4)
        d2 = mstate.shard_manifest_table(OUT)["content_digest"].to_pylist()
        assert d1 == d2

    def test_query_manifest(self, ray_session):
        from mobile_ocr_api_ray.pipelines import analysis
        t = analysis.training_shards_manifest(SF)
        assert t.num_rows == 16
        import pyarrow.parquet as pq
        n = pq.read_metadata(os.path.join(SF, "documents.parquet")).num_rows
        assert sum(t["row_count"].to_pylist()) == n

    def test_resume_of_finished_export_is_noop(self, ray_session):
        shutil.rmtree(OUT, ignore_errors=True)
        mstate.export_training_shards(docs_ds(), OUT, n_shards=8)
        s = mstate.export_training_shards(docs_ds(), OUT, n_shards=8)
        assert s == {"completed_before": 8, "completed_now": 0,
                     "out_dir": OUT, "n_shards": 8}

    def test_row_range_numeric_not_lexicographic(self, ray_session):
        shutil.rmtree(OUT, ignore_errors=True)
        mstate.export_training_shards(docs_ds(30), OUT, n_shards=1)
        import json, os as _os
        m = json.load(open(_os.path.join(OUT, "_manifest",
                                         "part-00000.json")))
        lo, hi = m["row_range"]
        assert lo <= hi and lo == 0 and hi == 29

    def test_changed_n_shards_refused(self, ray_session):
        shutil.rmtree(OUT, ignore_errors=True)
        mstate.export_training_shards(docs_ds(), OUT, n_shards=8,
                                      max_shards=3)
        with pytest.raises(ValueError, match="different plan"):
            mstate.export_training_shards(docs_ds(), OUT, n_shards=4)
        s = mstate.export_training_shards(docs_ds(), OUT, n_shards=8)
        assert s["completed_before"] == 3 and s["completed_now"] == 5
        assert len(mstate.read_output(OUT).to_pandas()) == 60

    def test_torn_manifest_skipped_and_redone(self, ray_session):
        shutil.rmtree(OUT, ignore_errors=True)
        mstate.export_training_shards(docs_ds(), OUT, n_shards=8)
        want = mstate.shard_manifest_table(OUT)
        with open(mstate._manifest_path(OUT, 3), "r+") as fh:
            fh.truncate(len(fh.read()) // 2)
        assert mstate.completed_partitions(OUT) == set(range(8)) - {3}
        assert mstate.shard_manifest_table(OUT)["shard_id"].to_pylist() == \
            [0, 1, 2, 4, 5, 6, 7]
        assert [m["partition_id"] for m in mstate._complete_manifests(OUT)] \
            == [0, 1, 2, 4, 5, 6, 7]
        s = mstate.export_training_shards(docs_ds(), OUT, n_shards=8)
        assert s["completed_before"] == 7 and s["completed_now"] == 1
        assert mstate.shard_manifest_table(OUT).equals(want)


class TestJsonlExport:
    """export_jsonl_shards: the interchange-format twin of the parquet
    export — byte-deterministic, exact resume, and a full ROUND TRIP
    through read_table_auto (export → re-ingest → rollup equality)."""

    def _docs(self):
        import ray.data
        return ray.data.read_parquet(
            "/root/testdata/sf0.001/documents.parquet",
            columns=["doc_id", "text", "lang", "n_chars"])

    def test_roundtrip_and_resume_bytediff(self, ray_session, tmp_path):
        import glob
        import hashlib as hl
        import json as js
        import os as _os

        from mobile_ocr_api_ray.pipelines.reads import read_table_auto
        from mobile_ocr_api_ray.state import manifest

        ref = str(tmp_path / "ref")
        r = manifest.export_jsonl_shards(self._docs(), ref, n_shards=8)
        assert r["completed_now"] == 8
        # ---- preempt-and-resume is byte-identical to the clean run
        out = str(tmp_path / "out")
        manifest.export_jsonl_shards(self._docs(), out, n_shards=8,
                                     max_shards=4)
        assert len(manifest.completed_partitions(out)) == 4
        r2 = manifest.export_jsonl_shards(self._docs(), out, n_shards=8)
        assert r2["completed_before"] == 4

        def digests(d):
            return {f: hl.sha256(open(_os.path.join(d, f), "rb").read())
                    .hexdigest()
                    for f in sorted(_os.listdir(d))
                    if f.endswith(".jsonl.gz")}
        assert digests(ref) == digests(out)

        # ---- resume of a finished export is a no-op
        r3 = manifest.export_jsonl_shards(self._docs(), ref, n_shards=8)
        assert r3["completed_now"] == 0

        # ---- round trip: re-ingest the gz shards, rollup equality
        src = "/root/testdata/sf0.001/documents.parquet"
        back = read_table_auto(ref + "/shard-*.jsonl.gz",
                               columns=["doc_id", "lang", "n_chars"],
                               schema_like=src)
        got = (back.groupby("lang").sum("n_chars").to_pandas()
               .sort_values("lang").reset_index(drop=True))
        want = (read_table_auto(src, columns=["doc_id", "lang", "n_chars"])
                .groupby("lang").sum("n_chars").to_pandas()
                .sort_values("lang").reset_index(drop=True))
        import pandas as pd
        pd.testing.assert_frame_equal(got, want)

        # ---- manifest rows carry the lineage fields
        m = js.load(open(glob.glob(ref + "/_manifest/part-*.json")[0]))
        assert m["status"] == "complete"
        assert len(m["content_digest"]) == 64
        assert m["plan"] == {"n_shards": 8}

        # ---- a resume with another shard count is refused
        with pytest.raises(ValueError, match="different plan"):
            manifest.export_jsonl_shards(self._docs(), out, n_shards=16)


class TestCompaction:
    """Small-file compaction: content equality, packing invariant,
    exact resume, oversized singleton groups."""

    ROOT = "/tmp/test_compaction"

    def _export(self, n=80, n_shards=8):
        out = os.path.join(self.ROOT, "export")
        shutil.rmtree(self.ROOT, ignore_errors=True)
        mstate.export_training_shards(docs_ds(n), out, n_shards=n_shards)
        return out

    @staticmethod
    def _rows(d):
        import pyarrow.parquet as pq
        files = sorted(f for f in os.listdir(d) if f.endswith(".parquet"))
        t = pa.concat_tables(
            [pq.read_table(os.path.join(d, f)) for f in files])
        return t.sort_by("doc_id").to_pandas()

    def test_content_equality_and_packing(self, ray_session):
        out = self._export()
        cdir = os.path.join(self.ROOT, "compact")
        total = sum(m["bytes"] for m in mstate._complete_manifests(out))
        target = total // 3 + 1
        t = mstate.compact_partitions(out, cdir, target_bytes=target)
        # every input shard covered exactly once, in consecutive order
        assert int(pa.compute.sum(t["n_inputs"]).as_py()) == 8
        spans = list(zip(t["first_shard"].to_pylist(),
                         t["last_shard"].to_pylist()))
        assert spans == sorted(spans)
        # packing invariant: each multi-input group fits the target
        for nb, ni in zip(t["bytes"].to_pylist(), t["n_inputs"].to_pylist()):
            assert ni == 1 or nb <= target * 2  # parquet re-encode slack
        # row-level equality with the uncompacted export
        import pandas as pd
        pd.testing.assert_frame_equal(self._rows(out), self._rows(cdir))

    def test_exact_resume(self, ray_session):
        out = self._export()
        cdir = os.path.join(self.ROOT, "compact")
        total = sum(m["bytes"] for m in mstate._complete_manifests(out))
        t1 = mstate.compact_partitions(out, cdir,
                                       target_bytes=total // 3 + 1)
        mtimes = {f: os.path.getmtime(os.path.join(cdir, f))
                  for f in os.listdir(cdir) if f.endswith(".parquet")}
        # lose one compacted group (file + manifest)
        victim = 1
        os.remove(os.path.join(cdir, f"part-{victim:05d}.parquet"))
        os.remove(mstate._manifest_path(cdir, victim))
        t2 = mstate.compact_partitions(out, cdir,
                                       target_bytes=total // 3 + 1)
        assert t2.equals(t1)   # manifest (incl. digests) fully restored
        # untouched groups were NOT rewritten
        for f, mt in mtimes.items():
            if f != f"part-{victim:05d}.parquet":
                assert os.path.getmtime(os.path.join(cdir, f)) == mt

    def test_oversized_singletons(self, ray_session):
        out = self._export()
        cdir = os.path.join(self.ROOT, "compact_tiny")
        t = mstate.compact_partitions(out, cdir, target_bytes=1)
        # target smaller than any file -> every shard its own group
        assert t.num_rows == 8
        assert set(t["n_inputs"].to_pylist()) == {1}

    def test_empty_input(self, ray_session):
        d = os.path.join(self.ROOT, "nothing")
        shutil.rmtree(d, ignore_errors=True)
        t = mstate.compact_partitions(d, os.path.join(d, "c"))
        assert t.num_rows == 0 and "content_digest" in t.column_names

    def test_changed_plan_refused(self, ray_session):
        # re-running with a different target_bytes against the same
        # compact_dir must refuse, not silently mix two plans
        out = self._export()
        cdir = os.path.join(self.ROOT, "compact_plan")
        total = sum(m["bytes"] for m in mstate._complete_manifests(out))
        mstate.compact_partitions(out, cdir, target_bytes=total // 3 + 1)
        with pytest.raises(ValueError, match="different compaction plan"):
            mstate.compact_partitions(out, cdir,
                                      target_bytes=total // 5 + 1)
        # the SAME plan still resumes cleanly
        t = mstate.compact_partitions(out, cdir,
                                      target_bytes=total // 3 + 1)
        assert int(pa.compute.sum(t["n_inputs"]).as_py()) == 8
