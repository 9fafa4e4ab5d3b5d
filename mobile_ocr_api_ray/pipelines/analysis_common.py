"""Shared corpus readers, shuffle-hint and doubled/superset corpus helpers.

Part of the training-data analysis suite over the driver tables
(documents / embeddings) + the synthetic pages corpus. Split from the
original ``pipelines/analysis.py`` (VERDICT r4 item 6) purely by theme —
no behavior change; ``pipelines.analysis`` re-exports every name, so all
callers keep importing ``analysis.<fn>``.
"""

from __future__ import annotations

import os
import re as _re
import zlib

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import ray
import ray.data
from ray.data.aggregate import Count, Max, Mean, Sum

from .. import corpus, str_hash
from ..hashing import hash32 as _hash32
from ..stages import crawl, dedup, exchange, similarity, text_analysis
from . import reads


DOUBLE_OFFSET = 1_000_000  # doc_id offset for the duplicated-corpus variants


def _docs(sf_dir: str, columns=None):
    return reads.read_small_aware(os.path.join(sf_dir, "documents.parquet"),
                                  columns=columns)


def _coarse_hint_for(path: str, mult: int = 1) -> int:
    """Coarse shuffle-partition hint sized to a parquet table (~2k rows per
    partition, capped at exchange.N_COARSE) — parquet METADATA row count, no
    scan. Tiny tiers then don't pay 256-way per-block fixed costs
    (~10 ms/partition/pass) while CPU-heavy group fns still parallelize
    (measured sweep at the 20k-row tier: 1 partition serializes the verify
    join at 7.4 s, 4-16 partitions hit 4.8 s); 100 TB corpora cap at 256
    and spread across the full cluster."""
    n = pq.ParquetFile(path).metadata.num_rows
    return min(exchange.N_COARSE, (n * mult) // 2_000 + 1)


def _docs_coarse_hint(sf_dir: str, mult: int = 1) -> int:
    return _coarse_hint_for(os.path.join(sf_dir, "documents.parquet"), mult)


def _doubled_docs(sf_dir: str):
    """documents ∪ (documents with doc_id + DOUBLE_OFFSET): every text is
    duplicated exactly once — a guaranteed-positive dedup workload."""
    base = _docs(sf_dir, ["doc_id", "text"])

    def shift(batch: pa.Table) -> pa.Table:
        return pa.table({
            "doc_id": pc.add(batch["doc_id"], pa.scalar(DOUBLE_OFFSET, pa.int64())),
            "text": batch["text"]})

    return base.union(base.map_batches(shift, batch_format="pyarrow"))

# re.ASCII so \w ≡ [A-Za-z0-9_] — the SAME token class as the RE2 engines
# on both oracle sides (DuckDB regexp_extract_all and Arrow's pc count);
# Python's default unicode \w would diverge on any non-ASCII word
# character ('café' → 'café' vs RE2's 'caf'). ONE compiled tokenizer
# shared by every word-count operator (word_freq_top, unigram_logprob,
# heavy_hitter_words) so their value-exactness cannot drift apart.
_WORD_TOKEN_RE = _re.compile(r"\w+", _re.ASCII)


SPLIT_PCT = (90, 95)  # train < 90% ≤ val < 95% ≤ test


LINE_WIDTH = 80  # synthetic line derivation for line_dedup_docs


def _chunked_text(t: "pa.ChunkedArray | pa.Array"):
    """The 80-char chunk construction shared by line_dedup_docs /
    sentence_dedup_docs: each row's text split into LINE_WIDTH-char
    slices joined by '\\n' — byte-identical to the SQL oracles'
    ``array_to_string([substring(t, i, 80) FOR i IN range(1, length(t)
    + 1, 80)], chr(10))``, including for text that itself ends in
    newlines. Slices are batch-wide (one kernel per 80-char step up to
    the batch max length); a row's nonexistent padding slices become
    NULL and a null_handling='skip' join drops exactly them — no rtrim,
    which would also eat GENUINE trailing newlines and diverge from the
    per-row SQL construction."""
    maxlen = pc.max(pc.utf8_length(t)).as_py() or 0
    lens = pc.utf8_length(t)
    slices = []
    for i in range(0, max(maxlen, 1), LINE_WIDTH):
        s = pc.utf8_slice_codeunits(t, i, i + LINE_WIDTH)
        if i > 0:
            s = pc.if_else(pc.greater(lens, i), s,
                           pa.scalar(None, pa.string()))
        slices.append(s)
    return slices[0] if len(slices) == 1 else \
        pc.binary_join_element_wise(*slices, "\n",
                                    null_handling="skip")


def _embeddings(sf_dir: str):
    return reads.read_small_aware(os.path.join(sf_dir, "embeddings.parquet"),
                                  columns=["vec_id", "embedding"])


def _doubled_embeddings(sf_dir: str):
    """embeddings ∪ (embeddings with vec_id + DOUBLE_OFFSET): every vector
    duplicated exactly once — the _doubled_docs twin for the embedding
    family (one definition; three ops share it)."""
    base = _embeddings(sf_dir)

    def shift(batch: pa.Table) -> pa.Table:
        return pa.table({
            "vec_id": pc.add(batch["vec_id"],
                             pa.scalar(DOUBLE_OFFSET, pa.int64())),
            "embedding": batch["embedding"]})

    return base.union(base.map_batches(shift, batch_format="pyarrow"))


def _doubled_clone_pairs(sf_dir: str):
    """Exact-clone pair graph of the doubled embeddings (cosine ≥
    0.999999 — only the clones qualify among gaussian vectors), id
    columns only. Shared by the pairs / clusters / keep ops."""
    pairs = dedup.embedding_near_pairs(
        _doubled_embeddings(sf_dir), threshold=0.999999,
        n_coarse=_coarse_hint_for(
            os.path.join(sf_dir, "embeddings.parquet"), 2))
    return pairs.map_batches(
        lambda b: pa.table({"id_a": b["id_a"], "id_b": b["id_b"]}),
        batch_format="pyarrow")


# ----------------------------------------------------- extraction analytics

def _pages_dir_for(sf_dir: str) -> str:
    """Deterministic pages corpus sized by the tier's documents row count."""
    n_docs = pq.read_metadata(os.path.join(sf_dir, "documents.parquet")).num_rows
    return corpus.ensure_corpus(n_rows=n_docs * 2, seed=42)


def _corpus_rows(corpus_dir: str) -> int:
    """Row count of a pages corpus — parquet shard METADATA only, no scan."""
    pdir = os.path.join(corpus_dir, "pages.parquet")
    return sum(pq.read_metadata(os.path.join(pdir, f)).num_rows
               for f in sorted(os.listdir(pdir)))


def _hash_keep(doc_id, pct: int) -> bool:
    """Fraction-membership rule on top of _hash32: under pct% of 2^32."""
    return _hash32(doc_id) < (1 << 32) * pct // 100


# --------------------------------------------------------- link graph

def _pages_coarse_hint(sf_dir: str) -> int:
    d = _pages_dir_for(sf_dir)
    shards = os.listdir(os.path.join(d, "pages.parquet"))
    n = pq.ParquetFile(os.path.join(d, "pages.parquet",
                                    sorted(shards)[0])).metadata.num_rows
    return min(exchange.N_COARSE, (n * len(shards)) // 2_000 + 1)
