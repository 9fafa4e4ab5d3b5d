"""The keyed exchange every grouped shuffle of the dedup, join and
link-graph layers rides: ``stages/dedup``, ``stages/joins.hash_join``,
``stages/linkgraph``, ``stages/text_analysis`` (tf-idf top terms and the
global-order plans), the checkpoint writer ``state/manifest`` and the
curation recipe ``pipelines/recipe``.

``keyed_exchange(ds, keys, group_fn, out_schema, n_coarse)`` co-locates
every row sharing a value of ``keys`` and hands each coarse bucket to
``group_fn`` as one ``pa.Table``. It owns three decisions:

- routing: a bucket computed from the key columns alone. String and
  binary keys hash with ``str_hash.crc32_of_strings`` (null → 0), integer
  and boolean keys route by value (null → 0), and several key columns fold
  through one fixed mix, ``h·1000003 + v`` in wrapping int64; the bucket
  is ``h % n_coarse``. Nothing depends on ``PYTHONHASHSEED``;
- the task exchange: ``ds`` runs once. One split task per input block
  cuts it into ``n_out = min(n_coarse, blocks)`` parts, part ``p``
  holding the ``p``-th of ``n_out`` equal bucket ranges, keeping row
  order; one reduce task per part concatenates its parts in block order,
  stable-sorts them on the bucket and calls ``group_fn`` once per bucket.
  A bucket's table thus holds its rows in input order, and the result
  holds the group outputs in bucket order. Groups are coarse — buckets,
  not keys — so a group function resolves exact keys itself and must not
  care which other keys share its bucket;
- the empty case: every group output is cast to ``out_schema``. The result
  holds the reduce outputs that have rows, or one typed empty block when
  none has, so its ``schema()`` is ``out_schema`` either way.

Grouping on a coarse bucket instead of the exact key cuts the per-group
dispatch from one call per key to at most ``n_coarse`` calls, with
identical results: all rows of one exact key land in one bucket.

``range_prefix(ds, bucket, order_by, emit, out_schema, weight)`` is the
one range prefix sum on top of it: every row's exclusive prefix sum of a
weight over a global order, with no global sort. ``pack_sequences``,
``global_shuffle_order``, ``global_value_rank`` and the recipe's pack
plan ride it.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import ray

from .. import str_hash

N_COARSE = 256  # coarse shuffle partitions for tiny-group workloads

_ROUTE = "__route"
_MIX = np.int64(1000003)


def _route(batch: pa.Table, keys: "list[str]", n_coarse: int) -> np.ndarray:
    """int32 coarse bucket in ``[0, n_coarse)`` per row of ``batch``."""
    h = np.zeros(batch.num_rows, np.int64)
    for k in keys:
        col = batch[k]
        ty = col.type
        if pa.types.is_string(ty) or pa.types.is_large_string(ty) \
                or pa.types.is_binary(ty) or pa.types.is_large_binary(ty):
            v = str_hash.crc32_of_strings(col)
        else:
            if pa.types.is_boolean(ty):
                col = col.cast(pa.int8())
            v = col.fill_null(0).to_numpy(zero_copy_only=False) \
                .astype(np.int64)
        with np.errstate(over="ignore"):
            h = h * _MIX + v
    return (h % np.int64(n_coarse)).astype(np.int32)


def typed_empty(out_schema) -> pa.Table:
    return _as_schema(out_schema).empty_table()


def _as_schema(cols) -> pa.Schema:
    if isinstance(cols, pa.Schema):
        return cols
    return pa.schema(list(cols.items()))


@ray.remote(num_cpus=1)
def _split(block, keys: "list[str]", n_coarse: int, n_out: int):
    """One input block → ``n_out`` parts by bucket range, each with its
    ``_ROUTE`` column and in block order."""
    from ray.data.block import BlockAccessor

    t = BlockAccessor.for_block(block).to_arrow()
    route = _route(t, keys, n_coarse)
    t = t.append_column(_ROUTE, pa.array(route))
    if n_out == 1:
        return t
    part = route * n_out // n_coarse
    t = t.take(np.argsort(part, kind="stable"))
    sizes = np.bincount(part, minlength=n_out)
    return [t.slice(e - n, n) for e, n in zip(np.cumsum(sizes), sizes)]


@ray.remote(num_cpus=1, num_returns=2)
def _reduce(group_fn, schema: pa.Schema, *parts):
    """(table, rows): ``group_fn`` once per bucket of the concatenated
    parts, outputs cast to ``schema``."""
    t = pa.concat_tables(parts, promote_options="default")
    route = t[_ROUTE].to_numpy()
    t = t.drop_columns([_ROUTE]).take(np.argsort(route, kind="stable"))
    sizes = np.unique(route, return_counts=True)[1]
    outs = [group_fn(t.slice(e - n, n)).select(schema.names).cast(schema)
            for e, n in zip(np.cumsum(sizes), sizes)]
    out = pa.concat_tables(outs) if outs else typed_empty(schema)
    return out, out.num_rows


def keyed_exchange(ds, keys: "list[str]", group_fn, out_schema,
                   n_coarse: "int | None" = None):
    """Group ``ds`` on the coarse bucket of ``keys`` and run ``group_fn``
    once per bucket. ``group_fn`` gets a ``pa.Table`` holding the input
    columns and returns a ``pa.Table`` with the columns of ``out_schema``
    (a ``pa.Schema`` or a ``{name: type}`` dict), in any order. Runs
    ``ds`` and returns a materialized Dataset whose schema is
    ``out_schema``, also when no group ran."""
    import ray.data

    schema = _as_schema(out_schema)
    nc = n_coarse or N_COARSE
    blocks = [ref for bundle in ds.iter_internal_ref_bundles()
              for ref, meta in bundle.blocks if meta.num_rows != 0]
    if not blocks:
        return ray.data.from_arrow(typed_empty(schema))
    n_out = min(nc, len(blocks))
    split = _split.options(num_returns=n_out)
    parts = [split.remote(b, list(keys), nc, n_out) for b in blocks]
    if n_out == 1:
        parts = [[p] for p in parts]
    fn = ray.put(group_fn)
    outs = [_reduce.remote(fn, schema, *(p[i] for p in parts))
            for i in range(n_out)]
    rows = ray.get([n for _, n in outs])
    held = [t for (t, _), n in zip(outs, rows) if n]
    if not held:
        return ray.data.from_arrow(typed_empty(schema))
    return ray.data.from_arrow_refs(held)


def range_prefix(ds, bucket: str, order_by: "list[str]", emit, out_schema,
                 weight: "str | None" = None):
    """Every row's exclusive prefix sum of ``weight`` (1 per row when
    None) over the global (``bucket``, *``order_by``) order, with no
    global sort. ``bucket`` is a non-negative int column that
    range-partitions that order.

    Each bucket's total comes from per-block Arrow ``group_by``
    partials summed on the driver; their exclusive cumsum is the
    bucket's base. One ``keyed_exchange`` on ``bucket`` then sorts each
    coarse group (which holds every bucket routed to it) and calls
    ``emit(sorted_rows, prefix)``, ``prefix`` an int64 array, for a
    table with the columns of ``out_schema``. Runs ``ds`` once."""
    ds = ds.materialize()

    def weights(t: pa.Table) -> np.ndarray:
        return t[weight].to_numpy().astype(np.int64) if weight \
            else np.ones(t.num_rows, np.int64)

    def partial(batch: pa.Table) -> pa.Table:
        return pa.table({bucket: batch[bucket], "w": weights(batch)}) \
            .group_by(bucket).aggregate([("w", "sum")])

    parts = [t for t in ray.get(ds.map_batches(
        partial, batch_format="pyarrow").to_arrow_refs()) if t.num_rows]
    keys = base = np.empty(0, np.int64)
    if parts:
        tot = pa.concat_tables(parts).group_by(bucket) \
            .aggregate([("w_sum", "sum")]).sort_by(bucket)
        keys = tot[bucket].to_numpy()
        w = tot["w_sum_sum"].to_numpy()
        base = np.cumsum(w) - w
    order = [(c, "ascending") for c in (bucket, *order_by)]

    def group(t: pa.Table) -> pa.Table:
        t = t.sort_by(order)
        b = t[bucket].to_numpy()
        w = weights(t)
        cs = np.cumsum(w) - w
        # cs minus its value at the row's bucket start is the in-bucket
        # prefix; np.searchsorted(b, b) is that start (b is sorted)
        return emit(t, base[np.searchsorted(keys, b)] + cs
                    - cs[np.searchsorted(b, b)])

    return keyed_exchange(ds, [bucket], group, out_schema)


def nonempty_or_typed_table(ds, cols: "dict[str, pa.DataType]"):
    """Ray 2.49 drops all-empty blocks, so a Dataset whose every block is
    empty cannot carry a schema through ``to_pandas()`` no matter what typed
    unions sit upstream.  Materialize once; if the result has rows keep the
    Dataset (blocks stay in the object store), else hand back a typed empty
    ``pa.Table`` so consumers still see the documented columns."""
    m = ds.materialize()
    if m.count() == 0:
        return typed_empty(cols)
    return m
