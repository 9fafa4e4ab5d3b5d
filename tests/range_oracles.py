"""Oracles for the global-order plans of ``stages/text_analysis``: the
pandas forms of ``pack_sequences``, ``global_shuffle_order`` and
``global_value_rank`` from before they ran on ``exchange.range_prefix``.
The per-group ``assign`` functions are kept verbatim; the per-bucket
totals are a pandas groupby, and each takes the projected frame the
stage builds. ``test_range_prefix`` checks the package against them."""

from __future__ import annotations

import hashlib

import numpy as np
import pandas as pd


def _base_map(totals: pd.Series) -> dict:
    totals = totals.sort_index()
    base = totals.astype(np.int64).cumsum().shift(fill_value=0)
    return dict(zip(totals.index.astype(np.int64), base.astype(np.int64)))


def _run(df: pd.DataFrame, key: str, assign) -> pd.DataFrame:
    return pd.concat([assign(g) for _, g in df.groupby(key)],
                     ignore_index=True)


def pack_sequences(ids, texts, budget: int, range_width: int,
                   id_col: str = "doc_id") -> pd.DataFrame:
    counts = pd.DataFrame({
        id_col: np.asarray(ids, np.int64),
        "n_tokens": np.array([len((t or "").split()) for t in texts],
                             np.int64)})
    counts["rkey"] = counts[id_col] // range_width
    base_map = _base_map(counts.groupby("rkey")["n_tokens"].sum())

    def assign(df: pd.DataFrame) -> pd.DataFrame:
        d = df.sort_values(id_col, kind="mergesort")
        n = d["n_tokens"].to_numpy().astype(np.int64)
        start = base_map[int(d["rkey"].iloc[0])] \
            + np.concatenate(([0], np.cumsum(n)[:-1])).astype(np.int64)
        seq = start // budget
        last = start + np.maximum(n, 1) - 1  # index of the last token
        return pd.DataFrame({
            id_col: d[id_col].to_numpy(),
            "n_tokens": n,
            "start_offset": start,
            "seq_id": seq,
            "offset_in_seq": start % budget,
            "spans_boundary": (n > 0) & ((last // budget) != seq)})

    return _run(counts, "rkey", assign)


def global_shuffle_order(ids, seed: str, n_shards: int, n_buckets: int,
                         id_col: str = "doc_id") -> pd.DataFrame:
    h = [hashlib.md5(f"{seed}:{i}".encode()).hexdigest() for i in ids]
    proj = pd.DataFrame({
        id_col: np.asarray(ids, np.int64), "shuffle_hash": h,
        "bucket": np.array([int(x[:2], 16) for x in h], np.int64)
        % n_buckets})
    base_map = _base_map(proj.groupby("bucket").size())

    def assign(df: pd.DataFrame) -> pd.DataFrame:
        d = df.sort_values(["shuffle_hash", id_col], kind="mergesort")
        rank = base_map[int(d["bucket"].iloc[0])] \
            + np.arange(len(d), dtype=np.int64)
        return pd.DataFrame({
            id_col: d[id_col].to_numpy(),
            "shuffle_hash": d["shuffle_hash"].to_numpy(),
            "shuffle_rank": rank,
            "shard": rank % n_shards})

    return _run(proj, "bucket", assign)


def global_value_rank(ids, values, range_width: int,
                      id_col: str = "doc_id") -> pd.DataFrame:
    v = np.array([0 if x is None else x for x in values], np.int64)
    proj = pd.DataFrame({id_col: np.asarray(ids, np.int64), "value": v,
                         "bucket": v // range_width})
    n = len(proj)
    base_map = _base_map(proj.groupby("bucket").size())

    def assign(df: pd.DataFrame) -> pd.DataFrame:
        d = df.sort_values(["value", id_col], kind="mergesort")
        rank = base_map[int(d["bucket"].iloc[0])] \
            + np.arange(len(d), dtype=np.int64)
        return pd.DataFrame({
            id_col: d[id_col].to_numpy(),
            "value": d["value"].to_numpy(),
            "rank_idx": rank,
            "percentile_micro": rank * 1_000_000 // n})

    return _run(proj, "bucket", assign)
