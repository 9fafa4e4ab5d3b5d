"""Distributed hash join as a first-class Dataset operator.

Ray Data 2.49 has no general join. This operator rides the engine's one
keyed exchange (stages/exchange.keyed_exchange, which the dedup operators
in stages/dedup.py use too):

    tagged union of both sides  →  keyed exchange on the int64 match key
    →  pure-arrow merge inside each group (numpy searchsorted key match +
    arrow take — works for any payload type, including list columns that
    acero joins reject, and never round-trips through pandas dtypes)

Both sides shuffle exactly once, co-partitioned by the join key; no
broadcast, so either side may be corpus-sized. For a SMALL right side
prefer a broadcast join instead (ray.put + Arrow acero probe inside
map_batches — see pipelines/relational.py:top_customers); this operator is
the both-sides-large path.

Column handling: output = left columns + right columns (minus the right
key). Name collisions raise. Keys may be integer (the match key is the
value) or string (the match key is crc32(key), with exact string equality
verification inside the merge — see hash_join docstring); a ``salt``
option spreads hot keys across groups with identical output.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from .exchange import keyed_exchange


def hash_join(left, right, left_key: str, right_key: str,
              how: str = "inner", n_coarse: int | None = None,
              salt: int = 1):
    """Join two Datasets on integer OR string key columns; returns a
    Dataset.

    ``how``: 'inner' or 'left' (left-outer: unmatched left rows keep nulls
    for right columns).

    String keys partition on crc32(key) and verify the ACTUAL strings with
    a vectorized equality filter inside the merge (hash collisions only
    produce extra candidates that the filter drops — never a wrong join);
    null string keys match nothing, like SQL.

    ``salt`` > 1 is the HOT-KEY guard: a key carrying a large share of the
    left side would otherwise pin one partition. Each left row takes a
    deterministic salt s = row-position % salt and the match key becomes
    key*salt + s; the right side replicates ``salt`` times (once per s), so
    every left row still meets exactly one copy of each matching right row
    — identical output, the hot key's rows spread across up to ``salt``
    partitions. Cost: ``salt`` × the right side's shuffle volume — salt the
    join whose right side is the smaller table. Keys must satisfy
    |key| * salt < 2^63 (int64 fold)."""
    if how not in ("inner", "left"):
        raise ValueError(f"unsupported join type: {how}")
    if salt < 1:
        raise ValueError("salt must be >= 1")
    # run both sides once: their schemas then come from block metadata
    # rather than from a limit(1) run of each lazy input
    left, right = left.materialize(), right.materialize()
    left_schema = left.schema()
    right_schema = right.schema()
    left_cols = list(left_schema.names)
    right_cols = [c for c in right_schema.names if c != right_key]
    overlap = set(left_cols) & set(right_cols)
    if overlap:
        raise ValueError(f"column collision between join sides: {overlap}")
    ltype = left_schema.types[left_schema.names.index(left_key)]
    rtype = right_schema.types[right_schema.names.index(right_key)]
    str_keys = pa.types.is_string(ltype) or pa.types.is_large_string(ltype)
    if str_keys != (pa.types.is_string(rtype)
                    or pa.types.is_large_string(rtype)):
        raise ValueError("join key types must both be integer or both string")
    if str_keys:
        # carry the right key string through the shuffle for the exact
        # equality verification after the hash match
        right_cols = right_cols + ["__rkeystr"]
    left_types = dict(zip(left_schema.names, left_schema.types))
    right_types = {c: right_schema.types[right_schema.names.index(c)]
                   for c in right_cols if c != "__rkeystr"}
    if str_keys:
        right_types["__rkeystr"] = pa.string()

    def _key_ints(col) -> np.ndarray:
        if not str_keys:
            return col.to_numpy(zero_copy_only=False).astype(np.int64)
        # crc32 per string (shared buffer-slice helper — no per-row
        # Python str round-trip); nulls → -1 on the left / -2 on the
        # right is unnecessary: the equality filter drops null-null
        # candidates, so one sentinel suffices for partition routing
        from ..str_hash import crc32_of_strings
        return crc32_of_strings(col, null_value=-1)

    # tagged union: one uniform schema; each side pads the other side's
    # columns with typed nulls. kind 0 = left (probe), kind 1 = right
    # (build). Padding is never read — merge_partition takes left columns
    # only from kind-0 rows and right columns only from kind-1 rows, and
    # outer-join nulls are constructed fresh after the exchange.

    def tag_left(batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        key = _key_ints(batch[left_key])
        if salt > 1:
            # deterministic per-row salt folded into the match key — rows
            # of one hot key spread over `salt` distinct partition keys
            key = key * salt + (np.arange(n, dtype=np.int64) % salt)
        cols = {"__kind": pa.array(np.zeros(n, np.int8)),
                "__key": pa.array(key)}
        for c in left_cols:
            cols[c] = batch[c]
        for c in right_cols:
            cols[c] = pa.nulls(n, right_types[c])
        return pa.table(cols)

    def tag_right(batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        key = _key_ints(batch[right_key])
        tbl = batch
        if str_keys:
            tbl = tbl.append_column(
                "__rkeystr", pc.cast(batch[right_key], pa.string()))
        if salt > 1:
            # replicate the build side once per salt value; each copy's
            # match key folds in its salt so it meets exactly the left
            # rows that drew that salt
            idx = np.repeat(np.arange(n, dtype=np.int64), salt)
            tbl = tbl.take(pa.array(idx))
            key = key[idx] * salt + np.tile(np.arange(salt, dtype=np.int64), n)
            n = tbl.num_rows
        cols = {"__kind": pa.array(np.ones(n, np.int8)),
                "__key": pa.array(key)}
        for c in left_cols:
            cols[c] = pa.nulls(n, left_types[c])
        for c in right_cols:
            cols[c] = tbl[c]
        return pa.table(cols)

    def merge_partition(tbl: pa.Table) -> pa.Table:
        # PURE-ARROW merge: a pandas round-trip would corrupt types (the
        # union's typed-null int columns become float64, list columns become
        # tensor extensions), and acero's Table.join rejects list payloads —
        # so match keys with numpy searchsorted and materialize rows with
        # arrow take (any payload type, many-to-many expansion).
        kind = tbl["__kind"]
        lhs = tbl.filter(pc.equal(kind, 0))
        rhs = tbl.filter(pc.equal(kind, 1))
        lkeys = lhs["__key"].to_numpy(zero_copy_only=False)
        rkeys = rhs["__key"].to_numpy(zero_copy_only=False)
        order = np.argsort(rkeys, kind="stable")
        rs = rkeys[order]
        lo = np.searchsorted(rs, lkeys, side="left")
        hi = np.searchsorted(rs, lkeys, side="right")
        counts = hi - lo
        total = int(counts.sum())
        l_idx = np.repeat(np.arange(len(lkeys)), counts)
        starts = np.repeat(lo, counts)
        within = np.arange(total) - np.repeat(np.cumsum(counts) - counts,
                                              counts)
        r_idx = order[starts + within]

        matched_l = lhs.select(left_cols).take(pa.array(l_idx, pa.int64()))
        matched_r = rhs.select(right_cols).take(pa.array(r_idx, pa.int64()))
        miss_l = counts == 0
        if str_keys:
            # exact verification: keep only candidates whose STRINGS match
            # (crc32 collisions and null keys drop here); left rows whose
            # every candidate dropped become outer-misses
            eq = pc.fill_null(pc.equal(
                pc.cast(matched_l[left_key], pa.string()),
                matched_r["__rkeystr"]), False)
            eq_np = eq.to_numpy(zero_copy_only=False)
            matched_l = matched_l.filter(eq)
            matched_r = matched_r.filter(eq)
            survived = np.zeros(len(lkeys), bool)
            survived[l_idx[eq_np]] = True
            miss_l = ~survived
        out_right_cols = [c for c in right_cols if c != "__rkeystr"]
        cols = {c: matched_l[c] for c in left_cols}
        cols.update({c: matched_r[c] for c in out_right_cols})
        out = pa.table(cols)
        if how == "left" and miss_l.any():
            miss = lhs.select(left_cols).take(
                pa.array(np.nonzero(miss_l)[0], pa.int64()))
            n_miss = miss.num_rows
            mcols = {c: miss[c] for c in left_cols}
            mcols.update({c: pa.array([None] * n_miss, right_types[c])
                          for c in out_right_cols})
            out = pa.concat_tables([out, pa.table(mcols)])
        return out

    tagged = (left.map_batches(tag_left, batch_format="pyarrow")
              .union(right.map_batches(tag_right, batch_format="pyarrow")))
    out_schema = {**left_types, **right_types}
    out_schema.pop("__rkeystr", None)
    return keyed_exchange(tagged, ["__key"], merge_partition, out_schema,
                          n_coarse)
