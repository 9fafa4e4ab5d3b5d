"""The end-to-end curation recipe — the 100-TB pipeline a reference user
would actually run over a crawl, chaining the engine's operators as ONE
composed query (the VERDICT r4 composition deliverable):

    read pages → url_filter → FLAGSHIP EXTRACTION → checkpoint →
    payload gate → exact dedup → MinHash near-dedup keep → C4 line gate →
    Gopher quality gate → host-level split → concat-and-chunk pack plan →
    sharded export

The text source is the flagship extraction itself (html/pdf →
extracted_text, byte-identical per url — the north rule), which is what
makes the composed SQL oracle possible: the generation-time golden table
(url, golden_text, golden_exact, payload_kind) is extraction's pinned
ground truth, so DuckDB treats the extraction stage as a LOOKUP and then
reproduces every downstream stage value-exactly. The recipe keeps only
payload kinds whose goldens are byte-exact by construction (html, pdf);
image/OCR rows — approximate by contract — are quarantined at the payload
gate, exactly as a curation pipeline quarantines low-trust extractions.

Architecture — "checkpoint the text once, then decisions, not data":

  pass 0 (extract): ONE read of (url, html, text, lang); blocked urls
      short-circuit past the kernel; the extraction output (doc_id, url,
      fate0, extracted_text) is written as a partitioned parquet
      CHECKPOINT (atomic part files, one per block) — the resume seam
      every preemptible 100-TB run needs (state/manifest convention), and
      the reason extraction runs exactly once while three downstream
      passes read its output cheaply. `html` bytes are read once, here,
      and never again.
  pass 1 (flags): read checkpoint; ONE map computes every per-row flag
      (md5 digest, C4 clean/status, Gopher keep, token count, host
      split) and drops text; the only exchange groups the ~80 B/row
      projection by a coarse digest prefix to resolve exact-dup
      representatives. Text exchanged: 0.
  pass 2 (bands): read checkpoint, MinHash-md5 signatures per batch,
      band-bucket exchange of hash rows only (stages/dedup
      .minhash_pairs_md5), pair table → the bounded reject set (drop the
      LARGER id of every candidate pair at est_jaccard ≥ 0.5 — the
      greedy keep-first LSH policy, SQL-exact without a connected-
      components fixpoint; the components-based keep lives in
      near_dedup_kept_doubled). Pairing runs over all payload-kept rows
      (exact dups included), provably equivalent for surviving rows: an
      exact twin's signature equals its representative's, so any pair
      through a twin implies the same-or-stronger pair through the
      representative. Text exchanged: 0.
  decisions: flags ⋈ rejects (narrow ⋈ bounded, co-partitioned) →
      per-row fate = first rejecting stage, else kept_{split}. ONE
      aggregate yields every stage's row counts. The materialized state
      is ~80 B/row — the pack_sequences narrow-projection convention,
      never the corpus.
  pack: train rows' (doc_id, n_tokens) through the distributed range
      prefix-sum (budget 512, pack_sequences contract); tape order = the
      60-bit url-hash id order, a deterministic pre-shuffled training
      order. Text: 0.
  pass 3 (export): read checkpoint, attach the train plan via the
      size-routed lookup (under the cap: a Ray-task-built broadcast
      (pid→seq_id) array probed per batch — the dim_broadcast
      convention; above: co-partitioned hash_join), recompute C4-clean
      text per row (deterministic map), group by shard = seq_id % 4,
      write one atomic parquet part per shard with a content digest —
      the shard groupby is the ONLY shuffle the text column ever rides
      (the over-cap join route adds one co-partition pass). The
      near-dup reject set takes the same size routing on the decisions
      side.

One html read + one extracted-text checkpoint + three column-pruned
checkpoint reads + one text exchange. Returns the LINEAGE MANIFEST
(stage_idx, stage, rows_in, rows_out, text_exchanges, digest): per-stage
row accounting, the text-movement claim, and per-shard content digests —
reproduced value-exactly by the composed DuckDB oracle (url-filter →
golden lookup → window-min exact dedup → full MinHash LSH SQL →
C4/Gopher rule CTEs → split CASE → window-sum pack → md5 shard digests).
"""

from __future__ import annotations

import hashlib
import os
import shutil

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import ray.data

from .. import str_hash
from ..hashing import hash32 as _hash32
from ..stages import crawl, dedup, text_analysis
from ..stages.joins import hash_join

RECIPE_BUDGET = 512            # pack budget (packed_sequences' PACK_BUDGET)
RECIPE_SHARDS = 4              # export shards = seq_id % RECIPE_SHARDS
RECIPE_ID_HEX = 15             # doc_id = int(md5(url)[:15], 16) — 60-bit
RECIPE_ID_SPACE = 1 << (4 * RECIPE_ID_HEX)
RECIPE_RANGES = 256            # pack prefix-sum id ranges over that space
RECIPE_THRESHOLD = 0.5         # near-dup est_jaccard gate (minhash md5)
RECIPE_KINDS = ("html", "pdf")  # byte-exact-extraction payload kinds
SPLIT_LO = (1 << 32) * 90 // 100   # host_split_pages' 90/5/5 rule
SPLIT_HI = (1 << 32) * 95 // 100

FATE_ORDER = ("url_quarantined", "payload_rejected", "exact_dup",
              "near_dup", "c4_rejected", "gopher_rejected",
              "kept_train", "kept_val", "kept_test")


def _url_id(u: "str | None") -> int:
    return int(hashlib.md5((u or "").encode()).hexdigest()[:RECIPE_ID_HEX],
               16)


def _url_block_mask(urls: "pa.Array") -> "pa.Array":
    """True where the url matches the crawl blocklist — the url_filter
    alternation (crawl.DEFAULT_URL_BLOCK_PATTERNS), one RE2 pass."""
    alternation = "|".join(f"(?:{p})"
                           for p in crawl.DEFAULT_URL_BLOCK_PATTERNS)
    return pc.match_substring_regex(
        pc.fill_null(pc.cast(urls, pa.string()), ""), alternation)


def _extract_checkpoint_batch(batch: pa.Table) -> pa.Table:
    """Pass-0 map: url gate → flagship extraction (warm per-process
    kernel, extract.extract_batch) on the surviving rows only → the
    checkpoint projection (doc_id, url, fate0, extracted_text)."""
    from .extract import extract_batch

    blocked = _url_block_mask(batch["url"])
    bad = batch.filter(blocked)
    kept = batch.filter(pc.invert(blocked))

    parts = []
    if bad.num_rows:
        parts.append(pa.table({
            "doc_id": pa.array([_url_id(u)
                                for u in bad["url"].to_pylist()],
                               pa.int64()),
            "url": bad["url"],
            "fate0": pa.array(["url_quarantined"] * bad.num_rows,
                              pa.string()),
            "extracted_text": pa.array([None] * bad.num_rows,
                                       pa.string())}))
    if kept.num_rows:
        ext = extract_batch(kept, build_spans=False)
        ok = pc.and_(
            pc.equal(ext["status"], pa.scalar("ok")),
            pc.is_in(ext["payload_kind"],
                     value_set=pa.array(RECIPE_KINDS, pa.string())))
        fate0 = pc.if_else(ok, pa.scalar("ok"),
                           pa.scalar("payload_rejected"))
        parts.append(pa.table({
            "doc_id": pa.array([_url_id(u)
                                for u in ext["url"].to_pylist()],
                               pa.int64()),
            "url": ext["url"],
            "fate0": pc.cast(fate0, pa.string()),
            "extracted_text": pc.if_else(
                ok, pc.fill_null(ext["extracted_text"], ""),
                pa.scalar(None, pa.string()))}))
    if not parts:
        return pa.table({"doc_id": pa.array([], pa.int64()),
                         "url": pa.array([], pa.string()),
                         "fate0": pa.array([], pa.string()),
                         "extracted_text": pa.array([], pa.string())})
    return pa.concat_tables(parts)


def _flags_batch(batch: pa.Table) -> pa.Table:
    """Pass-1 map over the checkpoint: every per-row decision input in
    one pass, text dropped on the way out (~80 B/row leaves here)."""
    ids = batch["doc_id"]
    ok = pc.equal(batch["fate0"], pa.scalar("ok"))
    # dead rows carry '' so the vectorized kernels stay trivially cheap
    texts = pc.if_else(ok, pc.fill_null(batch["extracted_text"], ""),
                       pa.scalar("", pa.string()))
    digests = [hashlib.md5((t or "").encode("utf-8")).hexdigest()
               for t in texts.to_pylist()]

    c4 = text_analysis.c4_clean(pa.table({"doc_id": ids, "text": texts}))
    c4_kept = pc.equal(c4["status"], pa.scalar("kept"))
    g = text_analysis.gopher_flags(pa.table({
        "doc_id": ids, "text": c4["clean_text"]}))

    hosts = ["" if h is None else h
             for h in crawl.host_of(batch["url"]).to_pylist()]
    h = np.array([_hash32(s) for s in hosts], np.uint64)
    split = np.where(h < SPLIT_LO, "train",
                     np.where(h < SPLIT_HI, "val", "test"))
    return pa.table({
        "doc_id": ids,
        "fate0": batch["fate0"],
        "digest": pa.array(digests, pa.string()),
        "c4_kept": c4_kept,
        "gopher_keep": g["keep"],
        "n_tokens": pc.cast(g["n_words"], pa.int64()),
        "split": pa.array(split, pa.string())})


def _exact_rep_group(df: pd.DataFrame) -> pa.Table:
    """Per coarse digest partition: representative = min doc_id per digest
    AMONG fate0=='ok' rows (quarantined rows never claim a digest). Emits
    Arrow with explicit types — a pandas return would erode the string
    columns to object dtype and break the downstream join schema."""
    alive = (df["fate0"] == "ok").to_numpy()
    rep = np.zeros(len(df), dtype=bool)
    if alive.any():
        a = df[alive]
        min_per = a.groupby("digest")["doc_id"].transform("min")
        rep[np.nonzero(alive)[0]] = (a["doc_id"].to_numpy()
                                     == min_per.to_numpy())
    return pa.table({
        "doc_id": pa.array(df["doc_id"].to_numpy(), pa.int64()),
        "fate0": pa.array(df["fate0"].tolist(), pa.string()),
        "c4_kept": pa.array(df["c4_kept"].to_numpy(), pa.bool_()),
        "gopher_keep": pa.array(df["gopher_keep"].to_numpy(), pa.bool_()),
        "n_tokens": pa.array(df["n_tokens"].to_numpy(), pa.int64()),
        "split": pa.array(df["split"].tolist(), pa.string()),
        "exact_rep": pa.array(rep, pa.bool_())})


def _pack_assign(decisions):
    """Distributed range prefix-sum pack plan over the narrow train rows —
    the pack_sequences contract (budget tape cut) with token counts
    already in hand. → (pid, seq_id)."""
    width = RECIPE_ID_SPACE // RECIPE_RANGES

    def project(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table({"doc_id": batch["doc_id"],
                         "n_tokens": batch["n_tokens"],
                         "rkey": pa.array(ids // width, pa.int64())})

    counts = decisions.map_batches(project, batch_format="pyarrow") \
                      .materialize()
    if counts.count() == 0:
        return None
    totals = counts.groupby("rkey").sum("n_tokens").to_pandas() \
                   .sort_values("rkey")
    base = totals["sum(n_tokens)"].astype(np.int64).cumsum() \
                                  .shift(fill_value=0)
    base_map = dict(zip(totals["rkey"].astype(np.int64),
                        base.astype(np.int64)))

    def assign(df: pd.DataFrame) -> pd.DataFrame:
        d = df.sort_values("doc_id", kind="mergesort")
        n = d["n_tokens"].to_numpy().astype(np.int64)
        start = base_map[int(d["rkey"].iloc[0])] \
            + np.concatenate(([0], np.cumsum(n)[:-1])).astype(np.int64)
        return pd.DataFrame({"pid": d["doc_id"].to_numpy(),
                             "seq_id": start // RECIPE_BUDGET})

    return counts.groupby("rkey").map_groups(assign, batch_format="pandas")


@ray.remote(num_cpus=1)
def _sorted_ids_task(refs, col: str) -> np.ndarray:
    """Concatenate one int64 column from materialized block refs into a
    sorted numpy array INSIDE a Ray task — the knn-index convention: the
    driver holds only the ObjectRef, never the ids. ``refs`` is a list
    of block ObjectRefs; Ray does not auto-resolve refs nested in a
    list, so they are fetched here, inside the task."""
    parts = [t[col].to_numpy(zero_copy_only=False).astype(np.int64)
             for t in ray.get(list(refs)) if t.num_rows]
    return (np.sort(np.concatenate(parts)) if parts
            else np.empty(0, np.int64))


def _sorted_member_mask(ids_sorted: np.ndarray,
                        keys: np.ndarray) -> np.ndarray:
    """Vectorized membership of keys in a pre-sorted id array
    (binary search; np.isin would re-sort per batch)."""
    if len(ids_sorted) == 0:
        return np.zeros(len(keys), bool)
    pos = np.minimum(np.searchsorted(ids_sorted, keys),
                     len(ids_sorted) - 1)
    return ids_sorted[pos] == keys


@ray.remote(num_cpus=1)
def _plan_lookup_task(refs) -> "tuple[np.ndarray, np.ndarray]":
    """(sorted pid array, aligned seq_id array) from the pack plan's
    block refs — the broadcast doc_id→seq_id lookup (refs fetched
    inside the task, as in _sorted_ids_task)."""
    pids, seqs = [], []
    for t in ray.get(list(refs)):
        if t.num_rows:
            pids.append(t["pid"].to_numpy(zero_copy_only=False)
                        .astype(np.int64))
            seqs.append(t["seq_id"].to_numpy(zero_copy_only=False)
                        .astype(np.int64))
    if not pids:
        return np.empty(0, np.int64), np.empty(0, np.int64)
    p = np.concatenate(pids)
    s = np.concatenate(seqs)
    order = np.argsort(p, kind="mergesort")
    return p[order], s[order]


def fate_batch(batch: pa.Table) -> pa.Table:
    """Per-row fate = the FIRST rejecting stage in pipeline order
    (url/payload quarantine → exact dup → near dup → C4 → Gopher), else
    ``kept_{split}``. Module-level so the priority ladder is
    unit-testable without a pipeline run."""
    fate0 = np.asarray(batch["fate0"].to_pylist(), object)
    near = batch["near"].to_numpy(zero_copy_only=False)
    exact_rep = batch["exact_rep"].to_numpy(zero_copy_only=False)
    c4_kept = batch["c4_kept"].to_numpy(zero_copy_only=False)
    gopher = batch["gopher_keep"].to_numpy(zero_copy_only=False)
    split = batch["split"].to_pylist()
    rejected = np.select(
        [fate0 != "ok", ~exact_rep, near, ~c4_kept, ~gopher],
        [fate0, "exact_dup", "near_dup", "c4_rejected",
         "gopher_rejected"],
        default="")
    fate = np.array([r if r else "kept_" + s
                     for r, s in zip(rejected, split)], object)
    return pa.table({
        "doc_id": batch["doc_id"],
        "fate": pa.array(fate, pa.string()),
        "n_tokens": batch["n_tokens"]})


def curation_recipe(sf_dir: str, work_dir: "str | None" = None,
                    resume: bool = False,
                    broadcast_cap_rows: int = 2_000_000):
    """Run the full recipe; return the lineage manifest (see module
    docstring). Value-exact vs the composed SQL oracle.

    ``resume=True`` with an explicit ``work_dir``: if a prior run's
    extraction checkpoint committed (its ``_CKPT_DONE`` marker exists — written
    AFTER the parquet parts, so a preempted pass 0 is never mistaken for
    complete), pass 0 is skipped entirely and the run re-derives every
    downstream decision from the checkpoint — the preemption-recovery
    behavior the 100-TB run needs, where pass 0 (html + extraction) is
    the dominant cost. Default (no work_dir) keeps the fresh-scratch
    behavior the oracle comparison relies on."""
    from .analysis import _coarse_hint_for, _pages_dir_for
    from .extract import read_pages

    pages_dir = os.path.join(_pages_dir_for(sf_dir), "pages.parquet")
    shard_files = sorted(os.listdir(pages_dir))
    nc = _coarse_hint_for(os.path.join(pages_dir, shard_files[0]),
                          mult=max(1, len(shard_files)))

    if work_dir is None:
        work_dir = os.path.join(
            "/tmp", f"mobile_ocr_recipe_{os.getpid()}",
            os.path.basename(sf_dir.rstrip("/")))
    ckpt_dir = os.path.join(work_dir, "checkpoint")
    out_dir = os.path.join(work_dir, "shards")
    # marker lives BESIDE the checkpoint dir (read_parquet scans every
    # file inside it) and is written only after the parts commit
    done_marker = os.path.join(work_dir, "_CKPT_DONE")
    ckpt_ready = resume and os.path.exists(done_marker)
    if not ckpt_ready:
        shutil.rmtree(work_dir, ignore_errors=True)
        os.makedirs(ckpt_dir)
    shutil.rmtree(out_dir, ignore_errors=True)
    os.makedirs(out_dir)

    # ---- pass 0: url filter → flagship extraction → parquet checkpoint
    if not ckpt_ready:
        (read_pages(pages_dir)
         .map_batches(_extract_checkpoint_batch, batch_format="pyarrow")
         .write_parquet(ckpt_dir))
        with open(done_marker, "w") as fh:
            fh.write("complete\n")

    def ckpt(columns):
        return ray.data.read_parquet(ckpt_dir, columns=columns)

    # ---- pass 1: flags + exact-dup representatives (narrow exchange)
    def add_coarse(batch: pa.Table) -> pa.Table:
        coarse = str_hash.crc32_of_strings(batch["digest"]) % nc
        return batch.append_column(
            "coarse", pa.array(coarse.astype(np.int32), pa.int32()))

    flags = (ckpt(["doc_id", "url", "fate0", "extracted_text"])
             .map_batches(_flags_batch, batch_format="pyarrow")
             .map_batches(add_coarse, batch_format="pyarrow")
             .groupby("coarse")
             .map_groups(_exact_rep_group, batch_format="pandas"))

    # ---- pass 2: near-dup reject set (hash-only bands exchange)
    def ok_docs(batch: pa.Table) -> pa.Table:
        b = batch.filter(pc.equal(batch["fate0"], pa.scalar("ok")))
        return pa.table({"doc_id": b["doc_id"],
                         "text": pc.fill_null(b["extracted_text"], "")})

    pairs = dedup.minhash_pairs_md5(
        ckpt(["doc_id", "fate0", "extracted_text"])
        .map_batches(ok_docs, batch_format="pyarrow"),
        threshold=RECIPE_THRESHOLD, n_coarse=nc)

    rejects = (pairs.map_batches(
        lambda b: pa.table({"rid": b["id_b"]}), batch_format="pyarrow")
        .groupby("rid").count()).materialize()

    # ---- decisions: flags × reject set → fate per row, one narrow table.
    # Size-routed (the dim_broadcast convention): the reject set is
    # duplicate-proportional — under the cap a Ray task concatenates its
    # block refs into ONE sorted id array (driver holds only the
    # ObjectRef) and membership is a vectorized searchsorted per batch;
    # past the cap it falls through to the co-partitioned hash_join.
    if rejects.count() <= broadcast_cap_rows:
        rid_ref = _sorted_ids_task.remote(rejects.to_arrow_refs(), "rid")

        def mark_near(batch: pa.Table) -> pa.Table:
            ids = ray.get(rid_ref)
            keys = batch["doc_id"].to_numpy(zero_copy_only=False) \
                .astype(np.int64)
            near = _sorted_member_mask(ids, keys)
            return batch.append_column("near", pa.array(near))

        joined = flags.map_batches(mark_near, batch_format="pyarrow")
    else:
        jt = hash_join(flags, rejects, "doc_id", "rid", how="left",
                       n_coarse=nc)
        joined = jt.map_batches(
            lambda b: b.append_column(
                "near", pc.is_valid(b["count()"])),
            batch_format="pyarrow")

    decisions = joined.map_batches(fate_batch,
                                   batch_format="pyarrow").materialize()

    # fate counts via in-batch value_counts partials — one streaming pass
    # over the materialized narrow table, no groupby shuffle (the combine
    # is ≤ 9 rows per block)
    def fate_partial(batch: pa.Table) -> pa.Table:
        vc = pc.value_counts(batch["fate"])
        return pa.table({"fate": vc.field("values"),
                         "n": pc.cast(vc.field("counts"), pa.int64())})

    fp = decisions.map_batches(fate_partial,
                               batch_format="pyarrow").to_pandas()
    fate_counts = fp.groupby("fate")["n"].sum().to_dict()
    n = {f: fate_counts.get(f, 0) for f in FATE_ORDER}
    n_pages = sum(n.values())
    k0 = n_pages - n["url_quarantined"]
    kp = k0 - n["payload_rejected"]
    k1 = kp - n["exact_dup"]
    k2 = k1 - n["near_dup"]
    k3 = k2 - n["c4_rejected"]
    k4 = k3 - n["gopher_rejected"]
    n_train = n["kept_train"]

    # ---- pack plan over the train rows (narrow prefix sum)
    train = decisions.map_batches(
        lambda b: b.filter(pc.equal(b["fate"], pa.scalar("kept_train"))),
        batch_format="pyarrow")
    plan = _pack_assign(train)

    # ---- pass 3: export — the single text exchange. The pack plan is
    # train-row-proportional: size-routed like the reject set (broadcast
    # (pid→seq_id) lookup under the cap, co-partitioned hash_join above).
    shard_rows = []
    if plan is not None and n_train > 0:
        plan_mat = plan.materialize()
        if n_train <= broadcast_cap_rows:
            lk_ref = _plan_lookup_task.remote(plan_mat.to_arrow_refs())

            def attach_plan(batch: pa.Table) -> pa.Table:
                pids, seqs = ray.get(lk_ref)
                keys = batch["doc_id"].to_numpy(zero_copy_only=False) \
                    .astype(np.int64)
                mask = _sorted_member_mask(pids, keys)
                kept = batch.filter(pa.array(mask))
                kk = kept["doc_id"].to_numpy(zero_copy_only=False) \
                    .astype(np.int64)
                seq = seqs[np.searchsorted(pids, kk)]
                return kept.append_column("seq_id", pa.array(seq))

            exp = ckpt(["doc_id", "url", "extracted_text"]).map_batches(
                attach_plan, batch_format="pyarrow")
        else:
            exp = hash_join(
                ckpt(["doc_id", "url", "extracted_text"]),
                plan_mat, "doc_id", "pid", how="inner", n_coarse=nc)

        def add_shard(batch: pa.Table) -> pa.Table:
            shard = pa.array(
                batch["seq_id"].to_numpy(zero_copy_only=False)
                % RECIPE_SHARDS, pa.int64())
            return batch.append_column("shard_id", shard)

        def write_shard(df: pd.DataFrame) -> pd.DataFrame:
            d = df.sort_values("doc_id", kind="mergesort")
            clean = text_analysis.c4_clean(pa.table({
                "doc_id": pa.array(d["doc_id"].to_numpy(), pa.int64()),
                "text": pa.array(d["extracted_text"].fillna("").tolist(),
                                 pa.string())}))["clean_text"].to_pylist()
            sid = int(d["shard_id"].iloc[0])
            tbl = pa.table({
                "doc_id": pa.array(d["doc_id"].to_numpy(), pa.int64()),
                "url": pa.array(d["url"].tolist(), pa.string()),
                "seq_id": pa.array(d["seq_id"].to_numpy(), pa.int64()),
                "clean_text": pa.array(clean, pa.string())})
            final = os.path.join(out_dir, f"shard-{sid:03d}.parquet")
            tmp = final + ".tmp"
            pq.write_table(tbl, tmp)
            os.replace(tmp, final)
            digest = hashlib.md5("|".join(
                f"{i}:{hashlib.md5((c or '').encode()).hexdigest()}"
                for i, c in zip(d["doc_id"], clean)).encode()).hexdigest()
            return pd.DataFrame([{"shard_id": sid, "n": len(d),
                                  "digest": digest}])

        shard_rows = (exp.map_batches(add_shard, batch_format="pyarrow")
                      .groupby("shard_id")
                      .map_groups(write_shard, batch_format="pandas")
                      .to_pandas().sort_values("shard_id")
                      .to_dict("records"))

    # ---- assemble the lineage manifest
    rows = [
        (0, "read_pages", n_pages, n_pages, 0, ""),
        (1, "url_filter", n_pages, k0, 0, ""),
        (2, "extract_checkpoint", k0, k0, 0, ""),
        (3, "payload_gate", k0, kp, 0, ""),
        (4, "exact_dedup", kp, k1, 0, ""),
        (5, "near_dedup", k1, k2, 0, ""),
        (6, "c4_gate", k2, k3, 0, ""),
        (7, "gopher_gate", k3, k4, 0, ""),
        (8, "host_split", k4, k4, 0, ""),
        (9, "pack_plan", n_train, n_train, 0, ""),
        # pass 3 is the one text exchange, and it runs only for train rows
        (10, "export", n_train, n_train, 1 if n_train > 0 else 0, ""),
    ]
    rows += [(11 + int(s["shard_id"]),
              f"export_shard_{int(s['shard_id'])}",
              int(s["n"]), int(s["n"]), 0, s["digest"])
             for s in shard_rows]
    idx, stage, rin, rout, tx, dig = zip(*rows)
    return pa.table({
        "stage_idx": pa.array(idx, pa.int64()),
        "stage": pa.array(stage, pa.string()),
        "rows_in": pa.array(rin, pa.int64()),
        "rows_out": pa.array(rout, pa.int64()),
        "text_exchanges": pa.array(tx, pa.int64()),
        "digest": pa.array(dig, pa.string())})
