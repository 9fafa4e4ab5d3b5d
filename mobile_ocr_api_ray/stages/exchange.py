"""The keyed exchange every grouped shuffle of the dedup and join layers
rides, and the typed-empty guards around it.

``keyed_exchange(ds, keys, group_fn, out_schema, n_coarse)`` co-locates
every row sharing a value of ``keys`` and hands each coarse bucket to
``group_fn`` as one ``pa.Table``. It owns three decisions:

- routing: a bucket computed from the key columns alone. String and
  binary keys hash with ``str_hash.crc32_of_strings`` (null → 0), integer
  and boolean keys route by value (null → 0), and several key columns fold
  through one fixed mix, ``h·1000003 + v`` in wrapping int64; the bucket
  is ``h % n_coarse``. Nothing depends on ``PYTHONHASHSEED``;
- the group call: ``groupby(bucket).map_groups(..., batch_format=
  "pyarrow")``. Groups are coarse — buckets, not keys — so a group
  function resolves exact keys itself and must not care which other keys
  share its bucket;
- the empty case: every group output is cast to ``out_schema`` and a typed
  empty table is unioned in, so the result is a Dataset whose ``schema()``
  is ``out_schema`` even when no group ran. ``keyed_stage`` is the same
  exchange without that union, for a stage whose output only feeds the
  next stage of one operator.

Grouping on a coarse bucket instead of the exact key cuts Ray's per-group
dispatch from one call per key to at most ``n_coarse`` calls, with
identical results: all rows of one exact key land in one bucket.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

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
    return pa.table({n: pa.array([], t) for n, t in
                     zip(out_schema.names, out_schema.types)})


def _as_schema(cols) -> pa.Schema:
    if isinstance(cols, pa.Schema):
        return cols
    return pa.schema(list(cols.items()))


def keyed_exchange(ds, keys: "list[str]", group_fn, out_schema,
                   n_coarse: "int | None" = None):
    """Group ``ds`` on the coarse bucket of ``keys`` and run ``group_fn``
    once per bucket. ``group_fn`` gets a ``pa.Table`` holding the input
    columns and returns a ``pa.Table`` with the columns of ``out_schema``
    (a ``pa.Schema`` or a ``{name: type}`` dict), in any order. Returns a
    Dataset whose schema is ``out_schema``, also when no group ran."""
    schema = _as_schema(out_schema)
    return _typed_empty_union(
        keyed_stage(ds, keys, group_fn, schema, n_coarse), schema)


def keyed_stage(ds, keys: "list[str]", group_fn, out_schema,
                n_coarse: "int | None" = None):
    """keyed_exchange without the typed empty block, for a stage whose
    output feeds another stage of the same operator. The next stage's
    routing map then fuses into this stage's group tasks (the union would
    add a task per block), and no empty block reaches a map: Ray hands
    an empty block to no map function and forwards it schema-less, which
    draws a schema-mismatch warning when it follows typed blocks."""
    schema = _as_schema(out_schema)
    nc = n_coarse or N_COARSE
    keys = list(keys)

    def add_route(batch: pa.Table) -> pa.Table:
        return batch.append_column(_ROUTE, pa.array(_route(batch, keys, nc)))

    def run(group: pa.Table) -> pa.Table:
        return group_fn(group.drop_columns([_ROUTE])) \
            .select(schema.names).cast(schema)

    # one bucket: map_groups without a key takes the rows as one partition;
    # a sort on the constant bucket would leave every reducer but one
    # empty, and Ray forwards an empty sort partition as a schema-less block
    return (ds.map_batches(add_route, batch_format="pyarrow")
            .groupby(_ROUTE if nc > 1 else None)
            .map_groups(run, batch_format="pyarrow"))


def nonempty_or_typed_table(ds, cols: "dict[str, pa.DataType]"):
    """Ray 2.49 drops all-empty blocks, so a Dataset whose every block is
    empty cannot carry a schema through ``to_pandas()`` no matter what typed
    unions sit upstream.  Materialize once; if the result has rows keep the
    Dataset (blocks stay in the object store), else hand back a typed empty
    ``pa.Table`` so consumers still see the documented columns."""
    m = ds.materialize()
    if m.count() == 0:
        return typed_empty(_as_schema(cols))
    return m


def _typed_empty_union(ds, cols):
    """Union a typed empty table into ``ds`` so an all-empty result keeps
    its documented schema (groupby().map_groups over zero rows otherwise
    returns a schema-less dataset that breaks downstream sorts)."""
    import ray.data

    return ray.data.from_arrow(typed_empty(_as_schema(cols))).union(ds)
