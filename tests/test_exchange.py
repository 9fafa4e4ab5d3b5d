"""stages/exchange.keyed_exchange: typed results on empty input and empty
groups, output independent of the coarse bucket count, and a ratchet that
keeps migrated modules off hand-rolled map_groups exchanges."""

from __future__ import annotations

import ast
import os
from collections import Counter

import pyarrow as pa
import pyarrow.compute as pc
import pytest

from mobile_ocr_api_ray.stages.exchange import keyed_exchange

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
        # one input block, so the shuffle makes no empty partition: every
        # block left is a group function's output (or the typed empty)
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
MIGRATED = ["stages/dedup.py", "stages/joins.py", "stages/linkgraph.py"]


@pytest.mark.parametrize("module", MIGRATED)
def test_no_hand_rolled_exchange(module):
    assert _map_groups_calls(os.path.join(PKG, module)) == []
