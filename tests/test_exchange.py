"""stages/exchange.keyed_exchange: typed results on empty input and empty
groups, output independent of the coarse bucket count, the same group
tables as the Ray Data sort-shuffle form it replaced, and a ratchet that
keeps migrated modules off hand-rolled map_groups exchanges."""

from __future__ import annotations

import ast
import hashlib
import os
from collections import Counter

import pyarrow as pa
import pyarrow.compute as pc
import pytest

from mobile_ocr_api_ray.stages.exchange import (_ROUTE, N_COARSE, _as_schema,
                                                 _route, keyed_exchange,
                                                 typed_empty)

PKG = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   "mobile_ocr_api_ray")

COUNT_SCHEMA = pa.schema([("k", pa.string()), ("n", pa.int64())])


def _counter():
    # built per test: Ray workers cannot import this test module, so
    # group functions must be closures (pickled by value)
    def count_per_key(t: pa.Table) -> pa.Table:
        g = t.group_by(["k"]).aggregate([("v", "count")])
        # int32 on purpose: keyed_exchange casts to the declared schema
        return pa.table({"n": pc.cast(g["v_count"], pa.int32()),
                         "k": g["k"]})
    return count_per_key


def _ds(table: pa.Table, blocks: int = 3):
    import ray.data
    return ray.data.from_arrow(table).repartition(blocks)


def _frame(ds, by):
    return ds.to_pandas().sort_values(by).reset_index(drop=True)


class TestEmpty:
    def test_empty_input_keeps_schema(self, ray_session):
        src = _ds(pa.table({"k": pa.array([], pa.string()),
                            "v": pa.array([], pa.int64())}), 1)
        out = keyed_exchange(src, ["k"], _counter(), COUNT_SCHEMA, 7)
        schema = out.schema()
        assert schema.names == COUNT_SCHEMA.names
        assert list(schema.types) == list(COUNT_SCHEMA.types)
        assert out.sort("k").count() == 0

    @pytest.mark.parametrize("n_coarse", [1, 4])
    def test_empty_groups_yield_typed_blocks(self, ray_session, n_coarse):
        import ray

        src = _ds(pa.table({"k": [f"key{i % 9}" for i in range(90)],
                            "v": list(range(90))}), 1)
        count_per_key = _counter()

        def skip_key0(t: pa.Table) -> pa.Table:
            out = count_per_key(t)
            # the group holding key0 emits an empty (int32-typed) table
            return out.slice(0, 0) if "key0" in t["k"].to_pylist() else out

        out = keyed_exchange(src, ["k"], skip_key0, COUNT_SCHEMA, n_coarse)
        blocks = [ray.get(r) for r in out.to_arrow_refs()]
        assert blocks
        for b in blocks:
            assert b.schema == COUNT_SCHEMA
        # key0's bucket (every key when n_coarse is 1) emitted nothing
        rows = sum(b.num_rows for b in blocks)
        assert rows == 0 if n_coarse == 1 else 0 < rows < 9
        # one typed empty block when nothing is left, else no empty block
        # (an empty block after typed ones draws Ray's schema warning)
        if rows:
            assert all(b.num_rows for b in blocks)
        else:
            assert len(blocks) == 1


class TestRoutingInvariance:
    @pytest.mark.parametrize("n_coarse", [1, 7, 256])
    def test_string_keys_with_nulls(self, ray_session, n_coarse):
        keys = [None if i % 11 == 0 else f"s{i % 13}" for i in range(200)]
        src = _ds(pa.table({"k": pa.array(keys, pa.string()),
                            "v": list(range(200))}))
        got = keyed_exchange(src, ["k"], _counter(), COUNT_SCHEMA,
                             n_coarse).to_pandas()
        # the null key routes with "" (crc32 0) but stays its own group
        assert sorted(zip(got["k"].fillna("<null>"), got["n"])) == \
            sorted(Counter(k or "<null>" for k in keys).items())

    @pytest.mark.parametrize("n_coarse", [1, 7, 256])
    def test_int_keys(self, ray_session, n_coarse):
        src = _ds(pa.table({"a": pa.array([i % 17 - 5 for i in range(300)],
                                          pa.int64()),
                            "v": list(range(300))}))
        schema = {"a": pa.int64(), "total": pa.int64()}

        def total(t):
            g = t.group_by(["a"]).aggregate([("v", "sum")])
            return pa.table({"a": g["a"], "total": g["v_sum"]})

        got = _frame(keyed_exchange(src, ["a"], total, schema, n_coarse),
                     ["a"])
        want = _frame(keyed_exchange(src, ["a"], total, schema, 1), ["a"])
        assert len(got) == 17
        assert got.equals(want)
        assert got["total"].sum() == sum(range(300))

    @pytest.mark.parametrize("n_coarse", [1, 7, 256])
    def test_two_column_key(self, ray_session, n_coarse):
        src = _ds(pa.table({"a": pa.array([i % 5 for i in range(240)],
                                          pa.int64()),
                            "k": [f"w{i % 4}" for i in range(240)],
                            "v": list(range(240))}))
        schema = {"a": pa.int64(), "k": pa.string(), "n": pa.int64()}

        def count(t):
            g = t.group_by(["a", "k"]).aggregate([("v", "count")])
            return pa.table({"a": g["a"], "k": g["k"], "n": g["v_count"]})

        got = _frame(keyed_exchange(src, ["a", "k"], count, schema,
                                    n_coarse), ["a", "k"])
        assert len(got) == 20                      # lcm(5, 4) distinct pairs
        assert (got["n"] == 12).all()


def _ref_keyed_exchange(ds, keys, group_fn, out_schema, n_coarse=None):
    """The sort-shuffle form keyed_exchange replaced, kept verbatim as the
    oracle of the group tables: a routing map, groupby(bucket).map_groups
    (groupby(None) for one bucket) and a typed empty block unioned in."""
    import ray.data

    schema = _as_schema(out_schema)
    nc = n_coarse or N_COARSE
    keys = list(keys)

    def add_route(batch: pa.Table) -> pa.Table:
        return batch.append_column(_ROUTE, pa.array(_route(batch, keys, nc)))

    def run(group: pa.Table) -> pa.Table:
        return group_fn(group.drop_columns([_ROUTE])) \
            .select(schema.names).cast(schema)

    out = (ds.map_batches(add_route, batch_format="pyarrow")
           .groupby(_ROUTE if nc > 1 else None)
           .map_groups(run, batch_format="pyarrow"))
    return ray.data.from_arrow(typed_empty(schema)).union(out)


SIG_SCHEMA = {"sig": pa.string(), "n": pa.int64()}


def _signer():
    def signature(t: pa.Table) -> pa.Table:
        """One row per group: the md5 of the group's column names, types
        and values in row order."""
        text = repr(([(f.name, str(f.type)) for f in t.schema],
                     t.to_pydict()))
        return pa.table({"sig": [hashlib.md5(text.encode()).hexdigest()],
                         "n": [t.num_rows]})
    return signature


def _both(ds, keys, n_coarse):
    """(keyed_exchange's, the oracle's) sorted group signatures."""
    sign = _signer()
    return (_sigs(keyed_exchange(ds, keys, sign, SIG_SCHEMA, n_coarse)),
            _sigs(_ref_keyed_exchange(ds, keys, sign, SIG_SCHEMA, n_coarse)))


def _sigs(ds) -> "list[tuple[str, int]]":
    df = ds.to_pandas()
    return sorted(zip(df["sig"], df["n"].tolist()))


def _keyed_input(kind: str, blocks: int):
    n = 600
    if kind == "str":
        cols = {"k": pa.array([None if i % 11 == 0 else f"s{i % 37}"
                               for i in range(n)], pa.string())}
        keys = ["k"]
    elif kind == "int":
        cols = {"a": pa.array([(i * 7919) % 53 - 9 for i in range(n)],
                              pa.int64())}
        keys = ["a"]
    else:
        cols = {"a": pa.array([i % 5 for i in range(n)], pa.int64()),
                "k": [f"w{i % 13}" for i in range(n)]}
        keys = ["a", "k"]
    table = pa.table({**cols, "v": list(range(n))})
    return _ds(table, blocks).materialize(), keys


@pytest.fixture
def ordered(ray_session):
    """Blocks leave each operator in input order, so the oracle's bucket
    tables are deterministic on several CPUs."""
    from ray.data import DataContext

    opts = DataContext.get_current().execution_options
    before, opts.preserve_order = opts.preserve_order, True
    yield
    opts.preserve_order = before


class TestSameGroupsAsSortShuffle:
    """Every bucket's group_fn input equals the sort-shuffle form's, row
    order included."""

    @pytest.mark.parametrize("n_coarse", [1, 7, 256])
    @pytest.mark.parametrize("kind", ["str", "int", "two"])
    def test_multi_block(self, ordered, kind, n_coarse):
        src, keys = _keyed_input(kind, 5)
        got, want = _both(src, keys, n_coarse)
        assert got == want
        assert sum(n for _, n in got) == 600

    def test_one_block(self, ordered):
        src, keys = _keyed_input("str", 1)
        assert src.num_blocks() == 1
        got, want = _both(src, keys, 7)
        assert got == want

    def test_lazy_union_materialized(self, ordered):
        # the shape _propagate passes: lazy edge rows ∪ materialized scores
        src, keys = _keyed_input("two", 4)
        lazy = src.map_batches(lambda b: b.set_column(
            2, "v", pc.multiply(b["v"], 2)), batch_format="pyarrow")
        got, want = _both(lazy.union(src), keys, 7)
        assert got == want
        assert sum(n for _, n in got) == 1200

    def test_exchange_of_exchange(self, ordered):
        src, _ = _keyed_input("int", 4)

        def spread(t: pa.Table) -> pa.Table:
            return t.append_column("k", pc.cast(t["v"], pa.string()))

        first = keyed_exchange(src, ["a"], spread,
                               {"a": pa.int64(), "v": pa.int64(),
                                "k": pa.string()}, 7)
        got, want = _both(first, ["k"], 7)
        assert got == want


def _map_groups_calls(path: str) -> "list[str]":
    """Every `.map_groups(` call and every batch_format="pandas" keyword
    in the module at ``path``."""
    tree = ast.parse(open(path).read())
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        if isinstance(node.func, ast.Attribute) \
                and node.func.attr == "map_groups":
            found.append(f"line {node.lineno}: .map_groups(")
        for kw in node.keywords:
            if kw.arg == "batch_format" and \
                    isinstance(kw.value, ast.Constant) and \
                    kw.value.value == "pandas":
                found.append(f"line {node.lineno}: batch_format='pandas'")
    return found


# modules whose every grouped exchange goes through keyed_exchange
MIGRATED = ["stages/dedup.py", "stages/exchange.py", "stages/joins.py",
            "stages/linkgraph.py", "stages/text_analysis.py",
            "state/manifest.py", "pipelines/recipe.py"]


@pytest.mark.parametrize("module", MIGRATED)
def test_no_hand_rolled_exchange(module):
    assert _map_groups_calls(os.path.join(PKG, module)) == []
