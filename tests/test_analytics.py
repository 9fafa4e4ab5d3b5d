"""Unit + invariant tests for pipelines/analytics.py — the join / window /
quantile families: semantics the oracle hash can't isolate (band boundary
rules, as-of tie order, the discrete quantile index rule, anti-join
emptiness cases) checked on hand-built inputs, plus sf0.001 runs against
independent pandas recomputations.
"""

import os
import sys

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

SF = "/root/testdata/sf0.001"


class TestQuantityBands:
    def test_boundaries_half_open(self, ray_session):
        # 10.0 belongs to 'S' (>= lo), 9.999 to 'XS' (< hi)
        from mobile_ocr_api_ray.pipelines.analytics import QUANTITY_BANDS
        edges = np.array([b[0] for b in QUANTITY_BANDS] + [QUANTITY_BANDS[-1][1]])
        labels = np.array([b[2] for b in QUANTITY_BANDS])
        for qty, want in [(1.0, "XS"), (9.999, "XS"), (10.0, "S"),
                          (39.999, "L"), (40.0, "XL"), (50.0, "XL")]:
            idx = np.clip(np.searchsorted(edges, qty, side="right") - 1,
                          0, len(labels) - 1)
            assert labels[idx] == want, qty

    def test_counts_cover_table(self, ray_session):
        from mobile_ocr_api_ray.pipelines.analytics import quantity_band_stats
        import pyarrow.parquet as pq
        df = quantity_band_stats(SF).to_pandas()
        total = pq.ParquetFile(os.path.join(SF, "lineitem.parquet")).metadata.num_rows
        assert df["n_items"].sum() == total
        assert set(df["band"]) <= {"XS", "S", "M", "L", "XL"}


class TestAsOfJoin:
    def test_hand_built_fill(self, ray_session):
        import ray.data
        from mobile_ocr_api_ray.pipelines import analytics

        # user 1: view@t1, click@t2, click@t3(same ts as view@t3 with
        # LOWER event_id → that view counts), user 2: click before any view
        ts = pd.to_datetime(
            ["2024-01-01 00:00:01", "2024-01-01 00:00:02",
             "2024-01-01 00:00:03", "2024-01-01 00:00:03",
             "2024-01-01 00:00:05"])
        tbl = pa.table({
            "event_id": pa.array([10, 11, 12, 13, 20], pa.int64()),
            "ts": pa.array(ts, pa.timestamp("us")),
            "user_id": pa.array([1, 1, 1, 1, 2], pa.int64()),
            "event_type": pa.array(
                ["view", "click", "view", "click", "click"]),
        })

        import tempfile
        with tempfile.TemporaryDirectory() as d:
            import pyarrow.parquet as pqw
            pqw.write_table(tbl, os.path.join(d, "events.parquet"))
            res = analytics.clicks_last_view(d).to_pandas()
        res = res.sort_values("event_id").reset_index(drop=True)
        assert list(res["event_id"]) == [11, 13, 20]
        # click 11 saw view 10; click 13 at equal ts saw view 12 (event_id
        # 12 < 13 orders it before in the (ts, event_id) total order)
        assert list(res["last_view_event_id"].fillna(-1)) == [10.0, 12.0, -1]
        assert pd.isna(res.loc[2, "last_view_ts"])

    def test_matches_pandas_recompute(self, ray_session):
        from mobile_ocr_api_ray.pipelines.analytics import clicks_last_view
        import pyarrow.parquet as pq

        res = clicks_last_view(SF).to_pandas().reset_index(drop=True)
        ev = pq.read_table(os.path.join(SF, "events.parquet")).to_pandas()
        ev = ev[ev["event_type"].isin(["view", "click"])].sort_values(
            ["user_id", "ts", "event_id"]).reset_index(drop=True)
        is_view = ev["event_type"] == "view"
        ev["vts"] = ev["ts"].where(is_view)
        ev["vid"] = ev["event_id"].astype("float64").where(is_view)
        filled = ev.groupby("user_id")[["vts", "vid"]].ffill()
        want = ev[ev["event_type"] == "click"].assign(
            last_view_ts=filled["vts"], last_view_event_id=filled["vid"])[
            ["event_id", "user_id", "ts", "last_view_ts",
             "last_view_event_id"]].sort_values(
            ["user_id", "ts", "event_id"]).reset_index(drop=True)
        pd.testing.assert_frame_equal(
            res.astype({"last_view_event_id": "float64"}), want,
            check_dtype=False)


class TestQuantiles:
    def test_discrete_rule_matches_duckdb(self, ray_session):
        import duckdb
        from mobile_ocr_api_ray.pipelines.analytics import event_value_quantiles
        res = event_value_quantiles(SF).to_pandas()
        con = duckdb.connect()
        con.execute(f"CREATE VIEW events AS SELECT * FROM "
                    f"read_parquet('{SF}/events.parquet')")
        want = con.execute(
            "SELECT event_type, quantile_disc(value, 0.5) AS p50 "
            "FROM events GROUP BY 1 ORDER BY 1").df()
        got = res.sort_values("event_type").reset_index(drop=True)
        assert np.array_equal(got["p50"].to_numpy(),
                              want["p50"].to_numpy())
        # the quantile is an ACTUAL element of the group
        ev = con.execute("SELECT event_type, value FROM events").df()
        for _, row in got.iterrows():
            vals = ev.loc[ev["event_type"] == row["event_type"], "value"]
            for c in ("p25", "p50", "p75", "p90", "min_value", "max_value"):
                assert (vals == row[c]).any(), (row["event_type"], c)


class TestGapsAndDistinct:
    def test_gaps_match_pandas(self, ray_session):
        from mobile_ocr_api_ray.pipelines.analytics import user_event_gaps
        import pyarrow.parquet as pq

        res = user_event_gaps(SF).to_pandas().set_index("user_id")
        ev = pq.read_table(os.path.join(SF, "events.parquet")).to_pandas()
        ev = ev.sort_values(["user_id", "ts", "event_id"])
        for uid, g in ev.groupby("user_id"):
            us = g["ts"].to_numpy().astype("datetime64[us]").astype(np.int64)
            d = np.diff(us)
            assert res.loc[uid, "n_events"] == len(g)
            assert res.loc[uid, "n_gaps"] == len(d)
            if len(d):
                assert res.loc[uid, "avg_gap_s"] == d.sum() / (len(d) * 1e6)
                assert res.loc[uid, "max_gap_s"] == d.max() / 1e6

    def test_distinct_users_bounded(self, ray_session):
        from mobile_ocr_api_ray.pipelines.analytics import distinct_users_hourly
        import pyarrow.parquet as pq
        res = distinct_users_hourly(SF).to_pandas()
        ev = pq.read_table(os.path.join(SF, "events.parquet"),
                           columns=["ts", "user_id"]).to_pandas()
        want = (ev.assign(hour=ev["ts"].dt.floor("h"))
                .groupby("hour")["user_id"].nunique())
        assert len(res) == len(want)
        got = res.set_index("hour")["n_users"]
        assert (got.sort_index().to_numpy() ==
                want.sort_index().to_numpy()).all()


class TestAntiJoin:
    def test_quiet_customers_none_qualify(self, ray_session):
        # threshold above every order price → every customer is quiet
        from mobile_ocr_api_ray.pipelines.analytics import quiet_customers
        import pyarrow.parquet as pq
        n_cust = pq.ParquetFile(
            os.path.join(SF, "customer.parquet")).metadata.num_rows
        res = quiet_customers(SF, threshold=1e12).to_pandas()
        assert len(res) == n_cust

    def test_quiet_customers_all_qualify(self, ray_session):
        from mobile_ocr_api_ray.pipelines.analytics import quiet_customers
        ds = quiet_customers(SF, threshold=0.0)
        # dataset schema is the contract (to_pandas on an all-empty dataset
        # drops columns — the documented Ray erosion trap)
        assert ds.schema().names == ["c_custkey", "c_name", "c_acctbal"]
        assert ds.count() == 0


class TestPivotRollupClusters:
    def test_pivot_row_sums_match_hourly_total(self, ray_session):
        from mobile_ocr_api_ray.pipelines.analytics import (EVENT_TYPES,
                                                            events_hourly_pivot)
        import pyarrow.parquet as pq
        res = events_hourly_pivot(SF).to_pandas()
        total = pq.ParquetFile(os.path.join(SF, "events.parquet")).metadata.num_rows
        assert res[[f"n_{t}" for t in EVENT_TYPES]].to_numpy().sum() == total
        assert res["hour"].is_monotonic_increasing

    def test_rollup_levels_consistent(self, ray_session):
        from mobile_ocr_api_ray.pipelines.analytics import (ROLLUP_ALL,
                                                            lang_source_rollup)
        res = lang_source_rollup(SF).to_pandas()
        detail = res[(res["lang"] != ROLLUP_ALL) & (res["source"] != ROLLUP_ALL)]
        subs = res[(res["lang"] != ROLLUP_ALL) & (res["source"] == ROLLUP_ALL)]
        grand = res[(res["lang"] == ROLLUP_ALL) & (res["source"] == ROLLUP_ALL)]
        assert len(grand) == 1
        assert grand["n_docs"].iloc[0] == detail["n_docs"].sum()
        assert grand["total_chars"].iloc[0] == detail["total_chars"].sum()
        for lang, g in detail.groupby("lang"):
            row = subs[subs["lang"] == lang]
            assert row["n_docs"].iloc[0] == g["n_docs"].sum()
            assert row["total_chars"].iloc[0] == g["total_chars"].sum()

    def test_exact_dup_clusters_ground_truth(self, ray_session):
        from mobile_ocr_api_ray.pipelines.analysis import (
            DOUBLE_OFFSET, exact_dup_clusters_doubled)
        import pyarrow.parquet as pq
        res = exact_dup_clusters_doubled(SF).to_pandas()
        docs = pq.read_table(os.path.join(SF, "documents.parquet"),
                             columns=["doc_id", "text"]).to_pandas()
        both = pd.concat([docs, docs.assign(doc_id=docs["doc_id"] + DOUBLE_OFFSET)])
        want = (both.assign(label=both.groupby("text")["doc_id"].transform("min"))
                .loc[lambda d: d.groupby("text")["doc_id"].transform("size") > 1,
                     ["doc_id", "label"]]
                .rename(columns={"doc_id": "src"})
                .sort_values("src").reset_index(drop=True))
        got = res.sort_values("src").reset_index(drop=True)
        pd.testing.assert_frame_equal(got, want, check_dtype=False)

    def test_pivot_hour_dtype_is_us(self, ray_session):
        # Ray's native aggregate degrades timestamp keys to [s]; the driver
        # hash is dtype-sensitive, so the finalize cast must restore µs
        from mobile_ocr_api_ray.pipelines.analytics import events_hourly_pivot
        schema = events_hourly_pivot(SF).schema()
        assert str(schema.base_schema.field("hour").type) == "timestamp[us]"

    def test_rollup_empty_table(self, ray_session):
        # SQL ROLLUP over an empty table: one grand-total row,
        # count(*) = 0, sum(...) = NULL
        import tempfile
        import pyarrow.parquet as pqw
        from mobile_ocr_api_ray.pipelines.analytics import (ROLLUP_ALL,
                                                            lang_source_rollup)
        empty = pa.table({"doc_id": pa.array([], pa.int64()),
                          "lang": pa.array([], pa.string()),
                          "source": pa.array([], pa.string()),
                          "n_chars": pa.array([], pa.int64())})
        with tempfile.TemporaryDirectory() as d:
            pqw.write_table(empty, os.path.join(d, "documents.parquet"))
            res = lang_source_rollup(d).to_pandas()
        assert len(res) == 1
        assert res["lang"].iloc[0] == ROLLUP_ALL
        assert res["n_docs"].iloc[0] == 0
        assert pd.isna(res["total_chars"].iloc[0])

    def test_band_out_of_range_drops(self, ray_session):
        # inner-join semantics: quantities outside [1, 51) drop entirely
        import tempfile
        import pyarrow.parquet as pqw
        from mobile_ocr_api_ray.pipelines.analytics import quantity_band_stats
        tbl = pa.table({"l_quantity": pa.array([0.5, 1.0, 51.0, 60.0],
                                               pa.float64()),
                        "l_extendedprice": pa.array([100.0] * 4, pa.float64()),
                        "l_discount": pa.array([0.0] * 4, pa.float64())})
        with tempfile.TemporaryDirectory() as d:
            pqw.write_table(tbl, os.path.join(d, "lineitem.parquet"))
            res = quantity_band_stats(d).to_pandas()
        assert res["n_items"].sum() == 1  # only qty=1.0 lands in a band
        assert list(res["band"]) == ["XS"]

    def test_exact_dup_pairs_star_shape(self, ray_session):
        import ray.data
        from mobile_ocr_api_ray.stages.dedup import exact_dup_pairs
        ds = ray.data.from_items([
            {"doc_id": 3, "text": "aa"}, {"doc_id": 1, "text": "aa"},
            {"doc_id": 2, "text": "aa"}, {"doc_id": 4, "text": "bb"},
            {"doc_id": 5, "text": "cc"}, {"doc_id": 6, "text": "cc"}])
        got = exact_dup_pairs(ds).to_pandas().sort_values(
            ["id_a", "id_b"]).reset_index(drop=True)
        assert list(map(tuple, got.to_numpy())) == [(1, 2), (1, 3), (5, 6)]


class TestFunnelAndHistogram:
    def test_funnel_stages_monotone(self, ray_session):
        from mobile_ocr_api_ray.pipelines.analytics import conversion_funnel
        res = conversion_funnel(SF).to_pandas()
        assert set(res["stage"]) <= {0, 1, 2, 3}
        # stage semantics: each step requires the previous, strictly later
        s2 = res[res["stage"] >= 2]
        assert (s2["t_click"] > s2["t_view"]).all()
        s3 = res[res["stage"] == 3]
        assert (s3["t_purchase"] > s3["t_click"]).all()
        # stage >= 1 iff the user has any view
        assert ((res["stage"] >= 1) == res["t_view"].notna()).all()

    def test_funnel_matches_pandas(self, ray_session):
        import pyarrow.parquet as pq
        from mobile_ocr_api_ray.pipelines.analytics import conversion_funnel
        res = conversion_funnel(SF).to_pandas().set_index("user_id")
        ev = pq.read_table(os.path.join(SF, "events.parquet")).to_pandas()
        for step in ("view", "click", "purchase"):
            want = ev[ev["event_type"] == step].groupby("user_id")["ts"].min()
            got = res[f"t_{step}"].dropna()
            common = want.index.intersection(got.index)
            assert len(common) == len(want) == len(got)
            assert (got.loc[common].to_numpy() ==
                    want.loc[common].to_numpy()).all()

    def test_histogram_covers_all_events(self, ray_session):
        import pyarrow.parquet as pq
        from mobile_ocr_api_ray.pipelines.analytics import value_histogram
        res = value_histogram(SF).to_pandas()
        total = pq.ParquetFile(os.path.join(SF, "events.parquet")).metadata.num_rows
        assert res["n_events"].sum() == total
        assert (res["bin"] >= 0).all()


class TestPropsExtraction:
    def test_matches_json_loads(self, ray_session):
        import json
        import pyarrow.parquet as pq
        from mobile_ocr_api_ray.pipelines.analytics import props_k_stats
        res = props_k_stats(SF).to_pandas().set_index("event_type")
        ev = pq.read_table(os.path.join(SF, "events.parquet"),
                           columns=["event_type", "props"]).to_pandas()
        ev["k"] = ev["props"].map(lambda p: json.loads(p).get("k"))
        want = ev.groupby("event_type")["k"].agg(["count", "sum"])
        for et, row in want.iterrows():
            assert res.loc[et, "sum_k"] == row["sum"]
            assert res.loc[et, "n_unparsed"] == 0

    def test_unparsable_rows_counted(self, ray_session):
        import tempfile
        import pyarrow.parquet as pqw
        from mobile_ocr_api_ray.pipelines.analytics import props_k_stats
        tbl = pa.table({
            "event_type": pa.array(["a", "a", "a"], pa.string()),
            "props": pa.array(['{"k": 5}', "not json", '{"other": 1}'],
                              pa.string())})
        with tempfile.TemporaryDirectory() as d:
            pqw.write_table(tbl, os.path.join(d, "events.parquet"))
            res = props_k_stats(d).to_pandas()
        assert res["n_unparsed"].iloc[0] == 2
        assert res["sum_k"].iloc[0] == 5
        assert res["avg_k"].iloc[0] == 5.0

    def test_all_unparsed_group_yields_null_avg(self, ray_session):
        # SQL 0/0 is NULL; the engine must not emit NaN instead
        import tempfile
        import pyarrow.parquet as pqw
        from mobile_ocr_api_ray.pipelines.analytics import props_k_stats
        tbl = pa.table({
            "event_type": pa.array(["a", "b"], pa.string()),
            "props": pa.array(["nope", '{"k": 3}'], pa.string())})
        with tempfile.TemporaryDirectory() as d:
            pqw.write_table(tbl, os.path.join(d, "events.parquet"))
            ds = props_k_stats(d)
            # the arrow block itself must carry a NULL, not a NaN
            blk = pa.concat_tables(
                list(ds.iter_batches(batch_format="pyarrow")))
        row_a = blk.filter(pa.compute.equal(blk["event_type"], "a"))
        assert row_a["avg_k"].null_count == 1


class TestHll:
    def test_estimate_within_tolerance(self, ray_session):
        import pyarrow.parquet as pq
        from mobile_ocr_api_ray.pipelines.analytics import hll_distinct_users
        res = hll_distinct_users(SF).to_pandas()
        ev = pq.read_table(os.path.join(SF, "events.parquet"),
                           columns=["user_id"]).to_pandas()
        exact = ev["user_id"].nunique()
        est = res["n_users_approx"].iloc[0]
        assert abs(est - exact) / exact < 0.05

    def test_registers_merge_commutatively(self, ray_session):
        from mobile_ocr_api_ray.pipelines.analytics import (_hll_estimate,
                                                            _hll_registers)
        rs = np.random.RandomState(3)
        keys = rs.randint(0, 10**12, 50_000).astype(np.int64)
        whole = _hll_registers(keys)
        parts = np.maximum.reduce([_hll_registers(c)
                                   for c in np.array_split(keys, 7)])
        assert (whole == parts).all()  # partials merge losslessly
        exact = len(np.unique(keys))
        assert abs(_hll_estimate(whole) - exact) / exact < 0.05


class TestCohortAndGrowth:
    def test_cohort_day0_counts_every_user(self, ray_session):
        from mobile_ocr_api_ray.pipelines.analytics import cohort_retention
        import pyarrow.parquet as pq
        res = cohort_retention(SF).to_pandas()
        ev = pq.read_table(os.path.join(SF, "events.parquet"),
                           columns=["user_id"]).to_pandas()
        # every user is active on their own first-seen day (age 0)
        assert res.loc[res["age_days"] == 0, "n_users"].sum() \
            == ev["user_id"].nunique()
        assert (res["age_days"] >= 0).all()

    def test_growth_deltas_telescope(self, ray_session):
        from mobile_ocr_api_ray.pipelines.analytics import monthly_revenue_growth
        res = monthly_revenue_growth(SF).to_pandas()
        assert pd.isna(res["delta"].iloc[0])
        d = res["revenue"].diff().to_numpy()[1:]
        assert np.allclose(res["delta"].to_numpy()[1:], d)
        assert res["month"].is_monotonic_increasing


class TestSemiAndLeftJoin:
    def test_segment_semi_join_matches_pandas(self, ray_session):
        from mobile_ocr_api_ray.pipelines.analytics import segment_order_priorities
        import pyarrow.parquet as pq
        res = segment_order_priorities(SF).to_pandas()
        cust = pq.read_table(os.path.join(SF, "customer.parquet")).to_pandas()
        orders = pq.read_table(os.path.join(SF, "orders.parquet")).to_pandas()
        keys = set(cust.loc[cust["c_mktsegment"] == "BUILDING", "c_custkey"])
        want = (orders[orders["o_custkey"].isin(keys)]
                .groupby("o_orderpriority").size().sort_index())
        got = res.set_index("o_orderpriority")["n_orders"].sort_index()
        assert (got.to_numpy() == want.to_numpy()).all()

    def test_late_items_zero_for_unmatched(self, ray_session):
        from mobile_ocr_api_ray.pipelines.analytics import orders_late_items
        import pyarrow.parquet as pq
        res = orders_late_items(SF).to_pandas()
        n_orders = pq.ParquetFile(
            os.path.join(SF, "orders.parquet")).metadata.num_rows
        assert len(res) == n_orders  # left join keeps EVERY order
        assert (res["n_late_items"] >= 0).all()
        assert (res["n_late_items"] == 0).any()  # real null→0 rows exist
        li = pq.read_table(os.path.join(SF, "lineitem.parquet"),
                           columns=["l_orderkey", "l_shipdate"]).to_pandas()
        late = li[li["l_shipdate"] > pd.Timestamp("1998-06-01")]
        assert res["n_late_items"].sum() == len(late)


class TestJoins:
    def test_unshipped_matches_duckdb(self, ray_session):
        import duckdb
        from mobile_ocr_api_ray.pipelines.analytics import unshipped_orders_topk
        res = unshipped_orders_topk(SF).to_pandas()
        con = duckdb.connect()
        for t in ("orders", "lineitem"):
            con.execute(f"CREATE VIEW {t} AS SELECT * FROM "
                        f"read_parquet('{SF}/{t}.parquet')")
        want = con.execute("""
            SELECT l_orderkey AS o_orderkey,
                   sum(cast(round(l_extendedprice*(1.0 - l_discount)*10000, 0)
                       AS BIGINT))/10000.0 AS revenue
            FROM lineitem JOIN orders ON l_orderkey = o_orderkey
            WHERE o_orderdate < TIMESTAMP '1998-06-01'
              AND l_shipdate > TIMESTAMP '1998-06-01'
            GROUP BY 1 ORDER BY revenue DESC, o_orderkey LIMIT 10""").df()
        assert list(res["o_orderkey"]) == list(want["o_orderkey"])
        assert np.array_equal(res["revenue"].to_numpy(),
                              want["revenue"].to_numpy())

    def test_regional_revenue_totals(self, ray_session):
        from mobile_ocr_api_ray.pipelines.analytics import regional_revenue
        import pyarrow.parquet as pq
        res = regional_revenue(SF).to_pandas()
        n_li = pq.ParquetFile(
            os.path.join(SF, "lineitem.parquet")).metadata.num_rows
        assert res["n_items"].sum() == n_li  # every lineitem has a supplier
        assert res["r_name"].is_monotonic_increasing


class TestScrub:
    def test_redaction_semantics(self, ray_session):
        import tempfile
        import pyarrow.parquet as pqw
        from mobile_ocr_api_ray.pipelines.analysis import scrub_docs
        tbl = pa.table({
            "doc_id": pa.array([0, 1, 2], pa.int64()),
            "text": pa.array(["spark and hash meet sparkly hashing",
                              "no match here", "hash hash"], pa.string())})
        with tempfile.TemporaryDirectory() as d:
            pqw.write_table(tbl, os.path.join(d, "documents.parquet"))
            res = scrub_docs(d).to_pandas()
        # whole words only: 'sparkly'/'hashing' untouched
        assert res.loc[0, "scrubbed"] == \
            "[REDACTED] and [REDACTED] meet sparkly hashing"
        assert res.loc[0, "n_redacted"] == 2
        assert res.loc[1, "scrubbed"] == "no match here"
        assert res.loc[1, "n_redacted"] == 0
        assert res.loc[2, "n_redacted"] == 2


class TestSetOps:
    def test_intersect_except_vs_pandas(self, ray_session):
        from mobile_ocr_api_ray.pipelines import analytics
        ev = pd.read_parquet(os.path.join(SF, "events.parquet"),
                             columns=["user_id", "event_type"])
        by = {t: set(ev.loc[ev.event_type == t, "user_id"])
              for t in ("click", "purchase", "view")}

        both = analytics.users_click_and_purchase(SF).to_pandas()
        assert set(both["user_id"]) == by["click"] & by["purchase"]
        assert both["user_id"].is_monotonic_increasing

        res = analytics.viewers_never_purchased(SF)
        got = res.to_pandas() if hasattr(res, "to_pandas") else res
        assert list(got.columns) == ["user_id"]
        assert set(got["user_id"]) == by["view"] - by["purchase"]

    def test_empty_guard_keeps_schema(self, ray_session):
        import ray.data as rd
        from mobile_ocr_api_ray.stages.exchange import \
            nonempty_or_typed_table
        src = rd.from_arrow(pa.table({"user_id": pa.array([1, 2], pa.int64())}))
        empty = src.filter(lambda r: False).sort("user_id")
        out = nonempty_or_typed_table(empty, {"user_id": pa.int64()})
        assert isinstance(out, pa.Table)
        assert out.schema == pa.schema({"user_id": pa.int64()})
        nonempty = nonempty_or_typed_table(src, {"user_id": pa.int64()})
        assert hasattr(nonempty, "to_pandas") and nonempty.count() == 2


class TestBoilerplate:
    def _write(self, d, rows):
        import pyarrow.parquet as pqw
        tbl = pa.table({
            "doc_id": pa.array(range(len(rows)), pa.int64()),
            "text": pa.array([r[0] for r in rows], pa.string()),
            "source": pa.array([r[1] for r in rows], pa.string())})
        pqw.write_table(tbl, os.path.join(d, "documents.parquet"))

    def test_hand_built_vocab_and_scrub(self, ray_session):
        import tempfile
        from mobile_ocr_api_ray.pipelines.analysis import (
            boilerplate_scrubbed_docs, boilerplate_vocab)
        # source A: 'nav' in 3/3 docs (boiler at 9/10? 3*10>=9*3 → 30>=27 ✓),
        # 'foo' in 2/3 (20>=27 ✗). source B: single doc → every word boiler.
        rows = [("nav foo x", "A"), ("nav  foo", "A"), ("nav y", "A"),
                ("solo page", "B")]
        with tempfile.TemporaryDirectory() as d:
            self._write(d, rows)
            v = boilerplate_vocab(d)
            vdf = v.to_pandas()
            got = set(zip(vdf["source"], vdf["word"]))
            assert got == {("A", "nav"), ("B", "solo"), ("B", "page")}
            assert vdf.set_index(["source", "word"]).loc[
                ("A", "nav"), "doc_frac"] == 1.0
            s = boilerplate_scrubbed_docs(d).to_pandas()
            assert list(s["clean_text"]) == ["foo x", "foo", "y", ""]
            assert list(s["n_removed"]) == [1, 1, 1, 2]

    def test_threshold_boundary_integer_rule(self, ray_session):
        import tempfile
        from mobile_ocr_api_ray.pipelines.analysis import boilerplate_vocab
        # 9/10 of 10 docs = 9 exactly: word in 9 docs IS boiler, in 8 is not
        rows = [(("w9 " if i < 9 else "") + ("w8 " if i < 8 else "") + "pad",
                 "S") for i in range(10)]
        with tempfile.TemporaryDirectory() as d:
            self._write(d, rows)
            vdf = boilerplate_vocab(d).to_pandas()
            words = set(vdf["word"])
            assert "w9" in words and "pad" in words and "w8" not in words

    def test_curated_docs_every_stage_observable(self, ray_session):
        """Hand corpus where each curation stage has a visible effect:
        scrub strips source B's 'menu', quality drops the short doc,
        decontamination drops the doc embedding a benchmark 8-gram, and
        exact dedup collapses the clone pair to its min doc_id."""
        import tempfile
        from mobile_ocr_api_ray.pipelines.analysis import curated_docs
        # docs 0-9 = the benchmark (10 smallest doc_ids): 8 distinct words
        # each -> exactly one self 8-gram -> dropped as self-contaminated
        bench = [f"a{i} b{i} c{i} d{i} e{i} f{i} g{i} h{i}" for i in range(10)]
        w = lambda p: " ".join(f"{p}w{j}" for j in range(50))
        doc10 = "menu " + w("x")          # kept (rep of the 10/11 clone pair)
        doc12 = "menu " + bench[0] + " " + w("y")   # embeds benchmark gram
        doc13 = "menu short text"                    # fails the 20-word gate
        doc14 = "menu " + w("z")                     # kept
        rows = ([(t, "A") for t in bench] +
                [(doc10, "B"), (doc10, "B"), (doc12, "B"),
                 (doc13, "B"), (doc14, "B")])
        with tempfile.TemporaryDirectory() as d:
            self._write(d, rows)
            res = curated_docs(d)
            got = res.to_pandas() if hasattr(res, "to_pandas") else res
            got = got.sort_values("doc_id").reset_index(drop=True)
            assert list(got["doc_id"]) == [10, 14]
            assert list(got["clean_text"]) == [w("x"), w("z")]  # menu gone
            assert list(got["n_words"]) == [50, 50]
            assert (got["quality_score"] >= 0.5).all()

    def test_sf_tier_vs_pandas(self, ray_session):
        from mobile_ocr_api_ray.pipelines.analysis import boilerplate_vocab
        docs = pd.read_parquet(os.path.join(SF, "documents.parquet"),
                               columns=["doc_id", "text", "source"])
        expl = docs.assign(word=docs["text"].fillna("").str.split()) \
                   .explode("word").dropna(subset=["word"])
        expl = expl.drop_duplicates(["doc_id", "word"])
        cnt = expl.groupby(["source", "word"]).size().rename("n")
        nd = docs.groupby("source").size().rename("nd")
        j = cnt.reset_index().merge(nd.reset_index(), on="source")
        want = j[j["n"] * 10 >= 9 * j["nd"]]
        v = boilerplate_vocab(SF)
        vdf = v.to_pandas() if hasattr(v, "to_pandas") else v
        assert set(zip(vdf["source"], vdf["word"])) == \
            set(zip(want["source"], want["word"]))


class TestQualityMedianFilter:
    def test_vs_pandas(self, ray_session):
        from mobile_ocr_api_ray.pipelines.analysis import (
            quality_median_filtered)
        from mobile_ocr_api_ray.stages.text_analysis import quality_scores
        docs = pa.table(pd.read_parquet(
            os.path.join(SF, "documents.parquet"),
            columns=["doc_id", "text", "lang"]))
        q = quality_scores(docs).to_pandas()
        q["lang"] = docs["lang"].to_pandas()
        meds = {}
        for lang, g in q.groupby("lang"):
            v = np.sort(g["quality_score"].to_numpy())
            meds[lang] = v[max(int(np.ceil(0.5 * len(v))) - 1, 0)]
        want = q[q.apply(
            lambda r: r["quality_score"] >= meds[r["lang"]], axis=1)]
        got = quality_median_filtered(SF).to_pandas()
        assert set(got["doc_id"]) == set(want["doc_id"])
        # every lang keeps at least half its docs (median rule)
        kept = got.groupby("lang").size()
        total = q.groupby("lang").size()
        for lang in total.index:
            assert kept.get(lang, 0) * 2 >= total[lang]


class TestLabelCentroids:
    def test_vs_numpy_and_partition_invariance(self, ray_session):
        from mobile_ocr_api_ray.pipelines.analysis import label_centroids
        raw = pd.read_parquet(os.path.join(SF, "embeddings.parquet"))
        M = np.stack(raw["embedding"].to_numpy()).astype(np.float64)
        got = label_centroids(SF).to_pandas()
        for lab, g in raw.groupby("label"):
            want = M[g.index].mean(axis=0)
            sub = got[got["label"] == lab].sort_values("dim")
            assert len(sub) == M.shape[1]
            # float32 inputs summed in float64: exact, so allclose is tight
            np.testing.assert_allclose(sub["centroid"].to_numpy(), want,
                                       rtol=0, atol=1e-12)
            assert (sub["n_vectors"] == len(g)).all()


class TestRepetitionStats:
    def test_hand_built(self, ray_session):
        import tempfile
        import pyarrow.parquet as pqw
        from mobile_ocr_api_ray.pipelines.analysis import repetition_stats
        tbl = pa.table({
            "doc_id": pa.array([0, 1, 2, 3], pa.int64()),
            "text": pa.array(["a b a b a", "x y z", "w", ""], pa.string())})
        with tempfile.TemporaryDirectory() as d:
            pqw.write_table(tbl, os.path.join(d, "documents.parquet"))
            r = repetition_stats(d).to_pandas()
        assert list(r["n_words"]) == [5, 3, 1, 0]
        assert list(r["n_distinct_words"]) == [2, 3, 1, 0]
        # doc 0: 'a' appears 3/5; bigrams: ab,ba,ab,ba -> 4 total 2 distinct
        assert r.loc[0, "top_word_frac"] == 3 / 5
        assert r.loc[0, "dup_2gram_frac"] == 2 / 4
        assert r.loc[1, "dup_2gram_frac"] == 0.0
        assert r.loc[3, "top_word_frac"] == 0.0


class TestSlidingWindow:
    def test_coverage_vs_hourly(self, ray_session):
        from mobile_ocr_api_ray.pipelines.analytics import (
            sliding_event_counts)
        ev = pd.read_parquet(os.path.join(SF, "events.parquet"),
                             columns=["ts", "value"])
        hour = ev["ts"].dt.floor("h")
        hourly = ev.assign(h=hour).groupby("h").size()
        got = sliding_event_counts(SF).to_pandas().set_index("window_start")
        # every window's count is the sum of its 3 covered hourly buckets
        for w, row in got.iterrows():
            want = sum(hourly.get(w + pd.Timedelta(hours=k), 0)
                       for k in range(3))
            assert row["n_events"] == want
        # total event-window memberships = 3 * n_events
        assert got["n_events"].sum() == 3 * len(ev)


def test_scalable_quantiles_equals_sort_path(ray_session):
    """Histogram refinement and the per-group sort are two engines for
    the same statistic — bit-identical output columns."""
    import pandas as pd

    from mobile_ocr_api_ray.pipelines.analytics import (
        event_value_quantiles, scalable_quantiles)
    sf = "/root/testdata/sf0.001"
    a = event_value_quantiles(sf).to_pandas().reset_index(drop=True)
    b = scalable_quantiles(sf)
    b = (b.to_pandas() if hasattr(b, "to_pandas") else b) \
        .reset_index(drop=True)
    pd.testing.assert_frame_equal(a, b[a.columns])


def test_purchases_after_click_differential(ray_session):
    """Pipeline vs a direct pandas interval merge, including window
    boundary semantics (strictly after the click, inclusive at +30min)."""
    import pandas as pd

    from mobile_ocr_api_ray.pipelines.analytics import (
        INTERVAL_JOIN_WINDOW_US, purchases_after_click)
    sf = "/root/testdata/sf0.001"
    out = purchases_after_click(sf)
    out = (out.to_pandas() if hasattr(out, "to_pandas") else
           out.to_pandas()).reset_index(drop=True)
    ev = pd.read_parquet(sf + "/events.parquet",
                         columns=["event_id", "user_id", "ts",
                                  "event_type"])
    c = ev[ev.event_type == "click"]
    p = ev[ev.event_type == "purchase"]
    m = c.merge(p, on="user_id", suffixes=("_c", "_p"))
    gap = (m.ts_p.astype("int64") - m.ts_c.astype("int64"))
    m = m[(gap > 0) & (gap <= INTERVAL_JOIN_WINDOW_US)]
    expect = pd.DataFrame({
        "user_id": m.user_id,
        "click_event_id": m.event_id_c,
        "purchase_event_id": m.event_id_p,
        "gap_us": (m.ts_p.astype("int64") - m.ts_c.astype("int64"))}) \
        .sort_values(["user_id", "click_event_id", "purchase_event_id"]) \
        .reset_index(drop=True)
    pd.testing.assert_frame_equal(out, expect)
    assert len(out) > 0


class TestTemperatureMixing:
    def test_small_sources_upweighted(self, ray_session):
        from mobile_ocr_api_ray.pipelines import analysis
        sf = "/root/testdata/sf0.01"
        docs = analysis._docs(sf, ["doc_id", "source", "text"]).to_pandas()
        nat = docs.groupby("source").size()
        kept = analysis.temperature_mixed_docs(sf).to_pandas()
        got = kept.groupby("source").size().reindex(nat.index, fill_value=0)
        # keep RATE of the smallest source >= rate of the largest
        rates = got / nat
        assert rates[nat.idxmin()] >= rates[nat.idxmax()]
        # membership is a pure function: second run identical
        again = analysis.temperature_mixed_docs(sf).to_pandas()
        assert list(again.doc_id) == list(kept.doc_id)


class TestLengthQuartiles:
    def test_labels_match_pandas_rule(self, ray_session):
        from mobile_ocr_api_ray.pipelines import analysis
        import numpy as _np
        sf = "/root/testdata/sf0.001"
        df = analysis.length_quartile_docs(sf).to_pandas()
        v = df.n_chars.to_numpy()
        n = len(v)
        sv = _np.sort(v)
        qs = [sv[int(_np.ceil(p * n)) - 1] for p in (0.25, 0.5, 0.75)]
        want = _np.where(v <= qs[0], "q1",
                         _np.where(v <= qs[1], "q2",
                                   _np.where(v <= qs[2], "q3", "q4")))
        assert list(df.quartile) == list(want)
        # every quartile bucket non-empty on a 500-doc tier
        assert set(df.quartile) == {"q1", "q2", "q3", "q4"}


class TestWindowedHLL:
    def test_within_error_of_exact(self, ray_session):
        from mobile_ocr_api_ray.pipelines import analytics as x
        sf = "/root/testdata/sf0.001"
        approx = x.hll_distinct_users_hourly(sf).to_pandas()
        exact = x.distinct_users_hourly(sf).to_pandas()
        m = approx.merge(exact, on="hour", how="outer")
        assert not m.isna().any().any()          # same window set
        err = (m.n_users_approx - m.n_users).abs()
        rel = err / m.n_users.clip(lower=1)
        # m=256 → ~6.5% std error; tiny windows can lose 1-2 counts to a
        # register index collision (abs error ≤ 2 at n of a few)
        assert ((rel <= 0.15) | (err <= 2)).all()
        # lossless merge: partials from different batches max-combine to
        # the same registers as one pass (pinned implicitly by the exact
        # agreement of repeated runs)
        again = x.hll_distinct_users_hourly(sf).to_pandas()
        assert list(again.n_users_approx) == list(approx.n_users_approx)


class TestEventTransitions:
    def test_matches_pandas_lag(self, ray_session):
        from mobile_ocr_api_ray.pipelines import analytics as x
        import pyarrow.parquet as pq_
        sf = "/root/testdata/sf0.001"
        got = x.event_type_transitions(sf).to_pandas()
        ev = pq_.read_table(sf + "/events.parquet",
                            columns=["event_id", "ts", "user_id",
                                     "event_type"]).to_pandas()
        ev = ev.sort_values(["user_id", "ts", "event_id"])
        prev = ev.groupby("user_id")["event_type"].shift(1)
        want = (pd.DataFrame({"prev_type": prev,
                              "event_type": ev["event_type"]})
                .dropna().groupby(["prev_type", "event_type"],
                                  as_index=False).size()
                .rename(columns={"size": "n"})
                .sort_values(["prev_type", "event_type"])
                .reset_index(drop=True))
        got = got.reset_index(drop=True)
        got["n"] = got["n"].astype(want["n"].dtype)
        pd.testing.assert_frame_equal(got, want)


class TestStickiness:
    def test_matches_pandas(self, ray_session):
        from mobile_ocr_api_ray.pipelines import analytics as x
        import pyarrow.parquet as pq_
        got = x.user_stickiness_daily(SF)
        got = got.to_pandas() if not isinstance(got, pa.Table) \
            else got.to_pandas()
        ev = pq_.read_table(SF + "/events.parquet",
                            columns=["ts", "user_id"]).to_pandas()
        ev["day"] = ev["ts"].dt.floor("d")
        ev["month"] = ev["ts"].dt.to_period("M").dt.start_time
        dau = ev.groupby("day")["user_id"].nunique()
        mau = ev.groupby("month")["user_id"].nunique()
        for _, r in got.iterrows():
            assert r.dau == dau[r.day]
            m = pd.Timestamp(r.day).to_period("M").start_time
            assert r.mau == mau[m]
            assert r.stickiness == r.dau / r.mau
        assert len(got) == dau.size
        assert (got.stickiness <= 1.0).all()


class TestNationShare:
    def test_shares_sum_to_one_per_region(self, ray_session):
        from mobile_ocr_api_ray.pipelines import analytics as x
        t = x.nation_revenue_share(SF)
        df = t.to_pandas() if isinstance(t, pa.Table) else t.to_pandas()
        sums = df.groupby("r_name")["region_share"].sum()
        assert np.allclose(sums, 1.0, atol=1e-12)
        # consistency with the region rollup query
        reg = x.regional_revenue(SF).to_pandas().set_index("r_name")
        per_reg = df.groupby("r_name")["revenue"].sum()
        for r, v in per_reg.items():
            assert v == pytest.approx(reg.loc[r, "revenue"], rel=1e-12)


class TestCumulativeRevenue:
    def test_cumsum_consistency(self, ray_session):
        from mobile_ocr_api_ray.pipelines import analytics as x
        t = x.monthly_cumulative_revenue(SF)
        df = t.to_pandas() if isinstance(t, pa.Table) else t.to_pandas()
        assert df.month.is_monotonic_increasing
        assert np.allclose(df.cum_revenue, df.revenue.cumsum(), atol=1e-6)
        assert df.cum_revenue.iloc[-1] == pytest.approx(
            df.revenue.sum(), rel=1e-12)
