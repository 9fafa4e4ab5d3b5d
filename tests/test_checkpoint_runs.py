"""Checkpoint tasks over runs of partitions (state/manifest.py): a task
takes a contiguous run of the partitions left to do, decodes each row
group it overlaps once, and commits every partition exactly as a
one-partition task would."""

import functools
import json
import os
import time

import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from mobile_ocr_api_ray.pipelines.extract import task_count
from mobile_ocr_api_ray.state import manifest

RG_ROWS = 30
FLAGSHIP = functools.partial(manifest._flagship, quality="medium")


@pytest.fixture(scope="module")
def grouped_pages(small_corpus, tmp_path_factory):
    """The 400-row corpus as 5 files of 80 rows in row groups of 30, 30
    and 20 rows, so partitions straddle both row groups and files."""
    src = os.path.join(small_corpus, "pages.parquet")
    table = pa.concat_tables([pq.read_table(os.path.join(src, f))
                              for f in sorted(os.listdir(src))])
    pages = str(tmp_path_factory.mktemp("grouped") / "pages.parquet")
    os.makedirs(pages)
    for i in range(5):
        pq.write_table(table.slice(80 * i, 80),
                       os.path.join(pages, f"shard-{i:04d}.parquet"),
                       row_group_size=RG_ROWS)
    return pages


def _partitions(pages: str, n_partitions: int) -> tuple[list, list, dict]:
    """Row groups, every partition item and the plan, as
    ``run_partitioned_extract`` builds them."""
    groups = manifest._row_groups(pages)
    n = sum(g[3] for g in groups)
    items = [{"partition_id": i, "lo": i * n // n_partitions,
              "hi": (i + 1) * n // n_partitions} for i in range(n_partitions)]
    return groups, items, {"input_rows": n, "n_partitions": n_partitions}


def _manifests(out_dir: str) -> dict:
    mdir = os.path.join(out_dir, "_manifest")
    return {m["partition_id"]: m for m in
            (json.load(open(os.path.join(mdir, f))) for f in os.listdir(mdir))}


def _lineage(out_dir: str) -> dict:
    return {pid: (m["content_digest"], m["row_count"], m["row_range"], m["plan"])
            for pid, m in _manifests(out_dir).items()}


def _parquet_names(out_dir: str) -> list[str]:
    return sorted(f for f in os.listdir(out_dir) if f.endswith(".parquet"))


class TestRuns:
    def test_runs_match_one_partition_tasks(self, ray_session, grouped_pages,
                                            tmp_path):
        """One call whose tasks take runs of 8 partitions commits what 64
        one-partition calls commit, and decodes at most one extra row
        group per task boundary."""
        full = str(tmp_path / "full")
        r = manifest.run_partitioned_extract(grouped_pages, full, n_partitions=64)
        assert r["completed_now"] == 64
        assert r["tasks"] == 8                  # 2 per CPU in the 4-CPU session
        assert r["rows_read"] <= 400 + (r["tasks"] - 1) * RG_ROWS

        single = str(tmp_path / "single")
        for _ in range(64):
            s = manifest.run_partitioned_extract(grouped_pages, single,
                                                 n_partitions=64,
                                                 max_partitions=1)
            assert s["tasks"] == 1 and s["completed_now"] == 1
        assert _lineage(full) == _lineage(single)
        assert _parquet_names(full) == _parquet_names(single)

        noop = manifest.run_partitioned_extract(grouped_pages, full,
                                                n_partitions=64)
        assert noop["tasks"] == 0 and noop["rows_read"] == 0

    def test_no_reread_across_gaps(self, grouped_pages, tmp_path,
                                   monkeypatch):
        """After torn manifests leave gaps in the todo list, a run decodes
        each row group that a todo partition overlaps exactly once, and
        none that only completed partitions overlap."""
        out = str(tmp_path / "out")
        groups, items, plan = _partitions(grouped_pages, 8)
        manifest._extract_run(items, groups, grouped_pages, out, plan, FLAGSHIP)
        want = _lineage(out)
        for pid in (2, 3, 6):
            with open(manifest._manifest_path(out, pid), "r+") as fh:
                fh.truncate(len(fh.read()) // 2)
        todo = [p for p in items
                if p["partition_id"] not in manifest.completed_partitions(out)]
        assert [p["partition_id"] for p in todo] == [2, 3, 6]

        decoded = []
        read = pq.ParquetFile.read_row_group

        def counting(self, i, *a, **kw):
            decoded.append(i)
            return read(self, i, *a, **kw)

        monkeypatch.setattr(pq.ParquetFile, "read_row_group", counting)
        rows = manifest._extract_run(todo, groups, grouped_pages, out, plan,
                                     FLAGSHIP)
        needed = [g for g in groups
                  if any(g[2] < p["hi"] and p["lo"] < g[2] + g[3] for p in todo)]
        assert len(decoded) == len(needed)
        assert rows == sum(g[3] for g in needed)
        # the three groups inside rows [200, 300) belong to the completed
        # partitions 4 and 5 only
        assert sum(200 <= g[2] and g[2] + g[3] <= 300 for g in groups) == 3
        assert not any(200 <= g[2] and g[2] + g[3] <= 300 for g in needed)
        assert _lineage(out) == want


class TestRetry:
    def test_committed_partition_untouched(self, grouped_pages, tmp_path):
        """A retried run skips a partition it already committed: its files
        keep their inode and mtime, and the rest of the run is written."""
        out = str(tmp_path / "out")
        groups, items, plan = _partitions(grouped_pages, 8)
        manifest._extract_run([items[2]], groups, grouped_pages, out, plan,
                              FLAGSHIP)
        paths = [os.path.join(out, "part-00002.parquet"),
                 manifest._manifest_path(out, 2)]
        before = [(os.stat(p).st_ino, os.stat(p).st_mtime_ns) for p in paths]
        manifest._extract_run(items, groups, grouped_pages, out, plan, FLAGSHIP)
        assert [(os.stat(p).st_ino, os.stat(p).st_mtime_ns)
                for p in paths] == before
        assert manifest.completed_partitions(out) == set(range(8))

    def test_wall_ms_sums_to_run_time(self, grouped_pages, tmp_path):
        """Each partition's wall time starts where the previous commit
        ended, so one run's wall_ms values sum to at most its wall time."""
        out = str(tmp_path / "out")
        groups, items, plan = _partitions(grouped_pages, 8)
        t0 = time.time()
        manifest._extract_run(items, groups, grouped_pages, out, plan, FLAGSHIP)
        wall_ms = (time.time() - t0) * 1e3
        total = sum(m["wall_ms"] for m in _manifests(out).values())
        assert 0 < total <= wall_ms


def test_task_count_matches_read_pages_rule(ray_session):
    """The shared rule gives ``read_pages`` the block count it had before
    the rule was shared, for every corpus tier the tests use."""
    import ray

    cpus = int(ray.cluster_resources()["CPU"])
    for rows in (16, 400, 1000, 10000, 20000, 320000):
        shards = min(128, max(8, rows // 64))      # corpus.ensure_corpus layout
        per = -(-rows // shards)
        files = -(-rows // per)
        assert task_count(rows, files) == min(files, max(2 * cpus, rows // 300))
