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

  pass 0 (extract): ONE read of (url, html, text, lang) on the flagship
      checkpoint's partition runner (state/manifest.run_partitioned): one
      footer-planned row range per ROWS_PER_TASK input rows; blocked urls
      short-circuit past the kernel; each range's (doc_id, url, fate0,
      extracted_text) commits as an atomic part file plus its manifest —
      the resume seam every preemptible 100-TB run needs (a resume redoes
      only the partitions without a complete manifest), and the reason
      extraction runs once while three downstream passes read the part
      files those manifests name. `html` bytes are read here only.
  pass 1 (flags): read checkpoint; ONE map computes every per-row flag
      (md5 digest, C4 clean/status, Gopher keep, token count, host
      split) and drops text; the only exchange (stages/exchange
      .keyed_exchange) groups the ~80 B/row projection by digest bucket
      to resolve exact-dup representatives. Text exchanged: 0.
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
  decisions: flags ⋈ rejects (narrow ⋈ bounded, size-routed) →
      per-row fate = first rejecting stage, else kept_{split}. ONE
      aggregate yields every stage's row counts. The materialized state
      is ~80 B/row — the pack_sequences narrow-projection convention,
      never the corpus.
  pack: train rows' (doc_id, n_tokens) through the distributed range
      prefix sum (stages/exchange.range_prefix at budget 512, the
      pack_sequences contract: per-block range totals, then one keyed
      exchange by id range); tape order = the 60-bit url-hash id order,
      a deterministic pre-shuffled training order. Text: 0.
  pass 3 (export): read checkpoint, attach the train plan via the
      size-routed lookup (under the cap: a Ray-task-built broadcast
      (pid→seq_id) array probed per batch — the dim_broadcast
      convention; above: co-partitioned hash_join), recompute C4-clean
      text per row (deterministic map), group by shard = seq_id % 4
      (one keyed exchange bucket per shard), write one atomic parquet
      part per shard with a content digest — the shard exchange is the
      ONLY shuffle the text column ever rides
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

import atexit
import functools
import hashlib
import os
import shutil

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import ray.data

from ..hashing import hash32 as _hash32
from ..stages import crawl, dedup, text_analysis
from ..stages.exchange import keyed_exchange, range_prefix
from ..stages.joins import hash_join
from ..state import manifest

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
    """Pass-0 slice function: url gate → flagship extraction (warm
    per-process kernel, extract.extract_batch) on the surviving rows only
    → the checkpoint projection (doc_id, url, fate0, extracted_text),
    blocked rows first; typed also for an empty ``batch``."""
    from .extract import extract_batch

    blocked = _url_block_mask(batch["url"])
    bad = batch.filter(blocked)
    ext = extract_batch(batch.filter(pc.invert(blocked)), build_spans=False)
    ok = pc.and_(
        pc.equal(ext["status"], pa.scalar("ok")),
        pc.is_in(ext["payload_kind"],
                 value_set=pa.array(RECIPE_KINDS, pa.string())))
    parts = [(bad["url"], pa.array(["url_quarantined"] * bad.num_rows,
                                   pa.string()),
              pa.nulls(bad.num_rows, pa.string())),
             (ext["url"], pc.if_else(ok, "ok", "payload_rejected"),
              pc.if_else(ok, pc.fill_null(ext["extracted_text"], ""),
                         pa.scalar(None, pa.string())))]
    return pa.concat_tables([pa.table({
        "doc_id": pa.array([_url_id(u) for u in urls.to_pylist()],
                           pa.int64()),
        "url": urls, "fate0": fate0, "extracted_text": text})
        for urls, fate0, text in parts])


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


def _exact_rep_group(t: pa.Table) -> pa.Table:
    """Per digest bucket: representative = min doc_id per digest AMONG
    fate0=='ok' rows (quarantined rows never claim a digest)."""
    ok = pc.equal(t["fate0"], pa.scalar("ok"))
    mins = t.filter(ok).group_by("digest").aggregate([("doc_id", "min")])
    rep_id = pc.take(mins["doc_id_min"],
                     pc.index_in(t["digest"], value_set=mins["digest"]))
    return t.append_column("exact_rep", pc.fill_null(
        pc.and_(ok, pc.equal(t["doc_id"], rep_id)), False))


def _pack_assign(train):
    """The pack_sequences plan (budget tape cut) over the narrow train
    rows, token counts already in hand: one ``range_prefix`` over
    ``RECIPE_RANGES`` id ranges → (pid, seq_id)."""
    width = RECIPE_ID_SPACE // RECIPE_RANGES

    def project(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table({"doc_id": batch["doc_id"],
                         "n_tokens": batch["n_tokens"],
                         "rkey": pa.array(ids // width, pa.int64())})

    def emit(t: pa.Table, start: np.ndarray) -> pa.Table:
        return pa.table({"pid": t["doc_id"],
                         "seq_id": start // RECIPE_BUDGET})

    return range_prefix(
        train.map_batches(project, batch_format="pyarrow"), "rkey",
        ["doc_id"], emit, {"pid": pa.int64(), "seq_id": pa.int64()},
        weight="n_tokens")


@ray.remote(num_cpus=1)
def _sorted_lookup(refs, key: str, values: "tuple[str, ...]" = ()) -> list:
    """[sorted unique ``key`` array, one array per ``values`` column aligned
    to it (a repeated key keeps its first row)] from block refs, built
    INSIDE a Ray task so the driver holds only the ObjectRef. Ray does not
    resolve refs nested in a list, so they are fetched here."""
    parts = [t for t in ray.get(list(refs)) if t.num_rows]
    arrays = [np.concatenate([t[c].to_numpy(zero_copy_only=False)
                              .astype(np.int64) for t in parts])
              if parts else np.empty(0, np.int64) for c in (key, *values)]
    k, first = np.unique(arrays[0], return_index=True)
    return [k, *(a[first] for a in arrays[1:])]


def _sorted_member_mask(ids_sorted: np.ndarray,
                        keys: np.ndarray) -> np.ndarray:
    """Vectorized membership of keys in a pre-sorted id array
    (binary search; np.isin would re-sort per batch)."""
    if len(ids_sorted) == 0:
        return np.zeros(len(keys), bool)
    pos = np.minimum(np.searchsorted(ids_sorted, keys),
                     len(ids_sorted) - 1)
    return ids_sorted[pos] == keys


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


@functools.lru_cache(maxsize=None)
def _default_work_root(pid: int) -> str:
    """The scratch root of this process's runs without a ``work_dir``,
    removed when the process exits (not by a forked child that inherits
    the hook)."""
    root = os.path.join("/tmp", f"mobile_ocr_recipe_{pid}")
    atexit.register(lambda: os.getpid() == pid
                    and shutil.rmtree(root, ignore_errors=True))
    return root


def curation_recipe(sf_dir: str, work_dir: "str | None" = None,
                    resume: bool = False,
                    broadcast_cap_rows: int = 2_000_000):
    """Run the full recipe; return the lineage manifest (see module
    docstring). Value-exact vs the composed SQL oracle.

    ``resume=True`` with an explicit ``work_dir`` keeps the pass-0
    checkpoint of a prior run: the partition runner skips every
    partition whose manifest committed under the same plan and extracts
    only the rest, so a run preempted anywhere in pass 0 redoes only its
    missing partitions — the preemption-recovery behavior the 100-TB run
    needs, where pass 0 (html + extraction) is the dominant cost. Every
    downstream decision is re-derived from the checkpoint. A checkpoint
    of a different plan (another input) is refused with ValueError.
    Default (no work_dir) keeps the fresh-scratch behavior the oracle
    comparison relies on, under a per-process root removed at exit."""
    from .analysis import _coarse_hint_for, _corpus_rows, _pages_dir_for
    from .extract import ROWS_PER_TASK

    corpus_dir = _pages_dir_for(sf_dir)
    pages_dir = os.path.join(corpus_dir, "pages.parquet")
    shard_files = sorted(os.listdir(pages_dir))
    nc = _coarse_hint_for(os.path.join(pages_dir, shard_files[0]),
                          mult=max(1, len(shard_files)))

    if work_dir is None:
        work_dir = os.path.join(_default_work_root(os.getpid()),
                                os.path.basename(sf_dir.rstrip("/")))
    ckpt_dir = os.path.join(work_dir, "checkpoint")
    out_dir = os.path.join(work_dir, "shards")
    if not resume:
        shutil.rmtree(work_dir, ignore_errors=True)
    shutil.rmtree(out_dir, ignore_errors=True)
    os.makedirs(out_dir)

    # ---- pass 0: url filter → flagship extraction → partition checkpoint.
    # The partition count follows the input alone (one partition per
    # ROWS_PER_TASK rows), so a resume always finds the same plan.
    n_parts = max(1, -(-_corpus_rows(corpus_dir) // ROWS_PER_TASK))
    manifest.run_partitioned(pages_dir, ckpt_dir, n_parts,
                             _extract_checkpoint_batch)
    ckpt_files = manifest.part_files(ckpt_dir)

    def ckpt(columns):
        return ray.data.read_parquet(ckpt_files, columns=columns)

    # ---- pass 1: flags + exact-dup representatives (narrow exchange)
    flags = keyed_exchange(
        ckpt(["doc_id", "url", "fate0", "extracted_text"])
        .map_batches(_flags_batch, batch_format="pyarrow"),
        ["digest"], _exact_rep_group,
        {"doc_id": pa.int64(), "fate0": pa.string(), "c4_kept": pa.bool_(),
         "gopher_keep": pa.bool_(), "n_tokens": pa.int64(),
         "split": pa.string(), "exact_rep": pa.bool_()}, nc)

    # ---- pass 2: near-dup reject set (hash-only bands exchange)
    def ok_docs(batch: pa.Table) -> pa.Table:
        b = batch.filter(pc.equal(batch["fate0"], pa.scalar("ok")))
        return pa.table({"doc_id": b["doc_id"],
                         "text": pc.fill_null(b["extracted_text"], "")})

    pairs = dedup.minhash_pairs_md5(
        ckpt(["doc_id", "fate0", "extracted_text"])
        .map_batches(ok_docs, batch_format="pyarrow"),
        threshold=RECIPE_THRESHOLD, n_coarse=nc)
    rids = pairs.map_batches(lambda b: pa.table({"rid": b["id_b"]}),
                             batch_format="pyarrow").materialize()

    # ---- decisions: flags × reject set → fate per row, one narrow table.
    # Size-routed on the rejected side of the pairs (the dim_broadcast
    # convention; a rejected id appears once per pair): under the cap a
    # Ray task turns its block refs into ONE sorted unique id array (the
    # driver holds only the ObjectRef) and membership is a vectorized
    # searchsorted per batch; past the cap the ids are de-duplicated per
    # bucket and the flags take a co-partitioned left hash_join.
    if rids.count() <= broadcast_cap_rows:
        rid_ref = _sorted_lookup.remote(rids.to_arrow_refs(), "rid")

        def mark_near(batch: pa.Table) -> pa.Table:
            ids = ray.get(rid_ref)[0]
            keys = batch["doc_id"].to_numpy(zero_copy_only=False) \
                .astype(np.int64)
            near = _sorted_member_mask(ids, keys)
            return batch.append_column("near", pa.array(near))

        joined = flags.map_batches(mark_near, batch_format="pyarrow")
    else:
        def unique_rids(t: pa.Table) -> pa.Table:
            u = pc.unique(t["rid"])
            return pa.table({"rid": u, "near": pa.array([True] * len(u))})

        rejects = keyed_exchange(rids, ["rid"], unique_rids,
                                 {"rid": pa.int64(), "near": pa.bool_()}, nc)
        joined = hash_join(flags, rejects, "doc_id", "rid", how="left",
                           n_coarse=nc).map_batches(
            lambda b: b.set_column(b.column_names.index("near"), "near",
                                   pc.fill_null(b["near"], False)),
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
    if n_train > 0:
        if n_train <= broadcast_cap_rows:
            lk_ref = _sorted_lookup.remote(plan.to_arrow_refs(), "pid",
                                           ("seq_id",))

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
                plan, "doc_id", "pid", how="inner", n_coarse=nc)

        def add_shard(batch: pa.Table) -> pa.Table:
            shard = pa.array(
                batch["seq_id"].to_numpy(zero_copy_only=False)
                % RECIPE_SHARDS, pa.int64())
            return batch.append_column("shard_id", shard)

        def write_shard(t: pa.Table) -> pa.Table:
            d = t.sort_by("doc_id")
            clean = text_analysis.c4_clean(pa.table({
                "doc_id": d["doc_id"],
                "text": pc.fill_null(d["extracted_text"], "")}))["clean_text"]
            sid = d["shard_id"][0].as_py()
            tbl = pa.table({"doc_id": d["doc_id"], "url": d["url"],
                            "seq_id": d["seq_id"], "clean_text": clean})
            final = os.path.join(out_dir, f"shard-{sid:03d}.parquet")
            pq.write_table(tbl, final + ".tmp")
            os.replace(final + ".tmp", final)
            digest = hashlib.md5("|".join(
                f"{i}:{hashlib.md5((c or '').encode()).hexdigest()}"
                for i, c in zip(d["doc_id"].to_pylist(), clean.to_pylist())
            ).encode()).hexdigest()
            return pa.table({"shard_id": [sid], "n": [d.num_rows],
                             "digest": [digest]})

        # shard ids route by value and n_coarse is RECIPE_SHARDS, so each
        # bucket is exactly one shard
        shard_rows = (keyed_exchange(
            exp.map_batches(add_shard, batch_format="pyarrow"),
            ["shard_id"], write_shard,
            {"shard_id": pa.int64(), "n": pa.int64(), "digest": pa.string()},
            RECIPE_SHARDS)
            .to_pandas().sort_values("shard_id").to_dict("records"))

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
