"""Advanced relational operators: multi-way joins, as-of / range joins,
exact quantiles, distinct counts, lag windows, anti-joins.

Extends pipelines/relational.py with the join/window families a
training-data warehouse runs daily. Same float-parity discipline (integer
sub-unit accumulation for currency sums — see relational.py docstring) and
the same scale patterns:

- large ⨝ large goes through stages/joins.hash_join (both sides shuffle
  once, co-partitioned on the key; nothing broadcast) with a per-batch
  combiner BEFORE the join so only pre-aggregated rows hit the shuffle;
- dimension chains (supplier→nation→region) compose on the driver and
  broadcast ONCE via ray.put — never re-shipped per batch, never shuffled;
- predicates push into the parquet scan (pyarrow dataset filter →
  row-group pruning) rather than filtering after the read;
- order-dependent windows (as-of fill, lag gaps) run inside coarse
  hash-partitioned groups sorted by the explicit key (ts, event_id) —
  one Ray group per partition, vectorized pandas within (the tiny-groups
  dispatch trap, see memory/relational.py:top_events_per_user);
- exact quantiles use the discrete rule sorted[ceil(q*n)-1] (DuckDB
  quantile_disc semantics, verified element-identical) so the oracle hash
  matches bit-for-bit; at 100 TB swap the per-group sort for a t-digest /
  distributed-sort sketch — the group fn is the seam.
"""

from __future__ import annotations

import os

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import ray
import ray.data
from ray.data.aggregate import Count, Sum

from ..stages.exchange import nonempty_or_typed_table, typed_empty
from .relational import _cents as _cents_arr
from .relational import _pq, _rev_cents


def _coarse_events(sf_dir: str) -> int:
    n = pq.ParquetFile(os.path.join(sf_dir, "events.parquet")).metadata.num_rows
    return min(256, n // 4000 + 1)


# ---------------------------------------------------------------------------
# Q3-style: large ⨝ large via the distributed hash join

UNSHIPPED_CUTOFF = np.datetime64("1998-06-01")


def unshipped_orders_topk(sf_dir: str, k: int = 10):
    """Top-k revenue among orders placed before the cutoff whose lineitems
    ship after it (TPC-H Q3 shape, adapted to the driver schema).

    Both sides are corpus-sized at 100 TB, so this goes through
    stages/joins.hash_join (one co-partitioned shuffle each). The lineitem
    side is pre-aggregated per (batch, orderkey) BEFORE the join — the
    combiner pattern — so the shuffle carries one row per orderkey per
    block instead of every lineitem. Predicates push into both parquet
    scans (row-group pruning at scale)."""
    from ..stages.joins import hash_join
    import pyarrow.dataset as pds

    cutoff = pa.scalar(UNSHIPPED_CUTOFF.astype("datetime64[us]").item(),
                       pa.timestamp("us"))

    def li_partial(batch: pa.Table) -> pa.Table:
        rev_c = _rev_cents(batch)
        t = pa.table({"l_orderkey": batch["l_orderkey"], "rev_c": rev_c})
        g = t.group_by("l_orderkey").aggregate([("rev_c", "sum")])
        return pa.table({"l_orderkey": g["l_orderkey"], "rev_c": g["rev_c_sum"]})

    li = _pq(sf_dir, "lineitem",
             ["l_orderkey", "l_extendedprice", "l_discount"],
             filter=(pds.field("l_shipdate") > cutoff)).map_batches(
        li_partial, batch_format="pyarrow", batch_size=65536)

    orders = _pq(sf_dir, "orders",
                 ["o_orderkey", "o_orderdate", "o_orderpriority"],
                 filter=(pds.field("o_orderdate") < cutoff))

    # coarse partition count sized to the (unfiltered) fact table — tiny
    # tiers don't pay 256-way per-partition fixed costs, 100 TB caps at 256
    n_li = pq.ParquetFile(
        os.path.join(sf_dir, "lineitem.parquet")).metadata.num_rows
    joined = hash_join(li, orders, "l_orderkey", "o_orderkey", how="inner",
                       n_coarse=min(256, n_li // 2_000 + 1))
    agg = joined.groupby(["l_orderkey", "o_orderdate", "o_orderpriority"]).aggregate(
        Sum("rev_c", alias_name="rev_c"))

    def finalize(batch: pa.Table) -> pa.Table:
        return pa.table({
            "o_orderkey": batch["l_orderkey"],
            "o_orderdate": pc.cast(batch["o_orderdate"], pa.timestamp("us")),
            "o_orderpriority": batch["o_orderpriority"],
            "revenue": pc.divide(pc.cast(batch["rev_c"], pa.float64()), 10000.0)})

    # distributed partial-top-k finisher: no global sort to keep k rows
    from ..stages.topk import topk_table
    return topk_table(agg.map_batches(finalize, batch_format="pyarrow"),
                      [("revenue", "descending"), ("o_orderkey", "ascending")],
                      k)


# ---------------------------------------------------------------------------
# Q5-style: fact table ⨝ composed dimension chain (size-routed broadcast)


def _supplier_chain(sf_dir: str, select, broadcast_cap_rows: int | None):
    """Size-routed supplier→nation→region dimension chain
    (stages/dim_broadcast). Returns ``(ref, None)`` on the broadcast route
    (a Ray task composed the chain; the driver holds only the ObjectRef)
    or ``(None, dataset)`` on the shuffle route — supplier grows linearly
    with scale factor, so past the cap the bounded nation⨝region (25 / 5
    rows at ANY scale) broadcasts onto the supplier SCAN and the composed
    dimension Dataset meets the fact table via stages/joins.hash_join."""
    from ..stages.dim_broadcast import broadcast_dim

    specs = [(os.path.join(sf_dir, "supplier.parquet"),
              ["s_suppkey", "s_nationkey"]),
             (os.path.join(sf_dir, "nation.parquet"),
              ["n_nationkey", "n_name", "n_regionkey"]),
             (os.path.join(sf_dir, "region.parquet"),
              ["r_regionkey", "r_name"])]
    ref = broadcast_dim(specs,
                        joins=[(["s_nationkey"], ["n_nationkey"]),
                               (["n_regionkey"], ["r_regionkey"])],
                        select=select, cap_rows=broadcast_cap_rows)
    if ref is not None:
        return ref, None

    nr_ref = broadcast_dim(specs[1:],
                           joins=[(["n_regionkey"], ["r_regionkey"])])

    def compose(batch: pa.Table) -> pa.Table:
        return (batch.join(ray.get(nr_ref), keys=["s_nationkey"],
                           right_keys=["n_nationkey"], join_type="inner")
                .select(select))

    dim_ds = (_pq(sf_dir, "supplier", ["s_suppkey", "s_nationkey"])
              .map_batches(compose, batch_format="pyarrow"))
    return None, dim_ds


def regional_revenue(sf_dir: str, broadcast_cap_rows: int | None = None):
    """Revenue per region: lineitem ⨝ supplier ⨝ nation ⨝ region.

    The dimension chain is size-routed (see _supplier_chain): broadcast
    probe inside map_batches below the cap, co-partitioned hash_join above
    it — the fact table never shuffles on the broadcast route, and shuffles
    exactly once on the big route."""
    from ..stages.dim_broadcast import shuffle_probe_join

    ref, dim_ds = _supplier_chain(sf_dir, ["s_suppkey", "r_name"],
                                  broadcast_cap_rows)

    if ref is not None:
        def tag(batch: pa.Table) -> pa.Table:
            rev_c = _rev_cents(batch)
            probe = pa.table({"s_suppkey": batch["l_suppkey"], "rev_c": rev_c})
            return (probe.join(ray.get(ref), keys=["s_suppkey"],
                               join_type="inner")
                    .select(["r_name", "rev_c"]))

        tagged = (_pq(sf_dir, "lineitem",
                      ["l_suppkey", "l_extendedprice", "l_discount"])
                  .map_batches(tag, batch_format="pyarrow"))
    else:
        probe = (_pq(sf_dir, "lineitem",
                     ["l_suppkey", "l_extendedprice", "l_discount"])
                 .map_batches(
                     lambda b: pa.table({"s_suppkey": b["l_suppkey"],
                                         "rev_c": _rev_cents(b)}),
                     batch_format="pyarrow"))
        tagged = shuffle_probe_join(probe, dim_ds, "s_suppkey",
                                    "s_suppkey", ["r_name", "rev_c"])

    agg = (tagged.groupby("r_name")
           .aggregate(Count(alias_name="n_items"), Sum("rev_c", alias_name="rev_c")))

    def finalize(batch: pa.Table) -> pa.Table:
        return pa.table({"r_name": batch["r_name"], "n_items": batch["n_items"],
                         "revenue": pc.divide(pc.cast(batch["rev_c"], pa.float64()),
                                              10000.0)})

    return agg.map_batches(finalize, batch_format="pyarrow").sort("r_name")


# ---------------------------------------------------------------------------
# As-of join: each click gets the latest preceding view by the same user


def event_value_stats(sf_dir: str):
    """Distributed exact mean/variance per event_type via mergeable
    moments — the (n, Σc, Σc²) triple over integer CENTS, so partial
    sums are order-independent and merge associatively (float partial
    sums would not); the final mean/var_pop/stddev expressions then run
    on identical doubles on both engine and oracle sides. Σc² bound:
    |value| < 9.6e6 keeps a 9.2e18/1e5-row partition exact — asserted.

    One tiny groupby of per-batch (type, n, sum_c, sumsq_c) partials;
    nothing else shuffles."""
    from ray.data.aggregate import Sum

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        v = df["value"].to_numpy()
        ok = ~np.isnan(v)
        c = np.round(v[ok] * 100.0).astype(np.int64)
        assert not len(c) or np.abs(c).max() < 3_000_000_000, \
            "cent-squared overflow risk: widen accumulator"
        d = pd.DataFrame({"event_type": df["event_type"][ok],
                          "c": c, "c2": c * c})
        g = d.groupby("event_type", dropna=False)
        out = pd.DataFrame({
            "n": g.size().astype("int64"),
            "sum_c": g["c"].sum().astype("int64"),
            "sumsq_c": g["c2"].sum().astype("int64")}).reset_index()
        return out

    def combine(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby("event_type", dropna=False, as_index=False)
        return g[["n", "sum_c", "sumsq_c"]].sum()

    raw = (_pq(sf_dir, "events", ["event_type", "value"])
           .map_batches(partial, batch_format="pandas")
           .map_batches(combine, batch_format="pandas").to_pandas())
    cols = {"event_type": pa.string(), "n_values": pa.int64(),
            "mean_value": pa.float64(), "var_pop": pa.float64(),
            "stddev_pop": pa.float64()}
    if "event_type" not in raw.columns or not len(raw):
        return pa.table({k: pa.array([], t) for k, t in cols.items()})
    t = combine(raw).sort_values("event_type").reset_index(drop=True)
    n = t["n"].to_numpy().astype(np.float64)
    s = t["sum_c"].to_numpy().astype(np.float64)
    s2 = t["sumsq_c"].to_numpy().astype(np.float64)
    mean = s / (n * 100.0)
    var = (s2 / n - (s / n) ** 2) / 10000.0
    return pa.table({
        "event_type": pa.array(t["event_type"], pa.string()),
        "n_values": pa.array(t["n"].to_numpy().astype(np.int64)),
        "mean_value": pa.array(mean, pa.float64()),
        "var_pop": pa.array(var, pa.float64()),
        "stddev_pop": pa.array(np.sqrt(var), pa.float64())})


INTERVAL_JOIN_WINDOW_US = 30 * 60 * 1_000_000  # 30 min


def purchases_after_click(sf_dir: str):
    """Banded interval join (stream-stream): every (click, purchase)
    pair by the same user with the purchase in (click_ts, click_ts +
    30 min] — the attribution-window join event warehouses run daily.
    Output is exact-integer µs gaps, one row per qualifying pair.

    Scale shape: the scan keeps only the two event types, ONE user-hash
    coarse shuffle co-locates each user's history, and inside a
    partition the match is a fully vectorized double searchsorted on a
    dense-user composite key (user_rank · span + Δts fits int64 — guard
    asserts; no per-click or per-user Python loop). Pair emission uses
    the multi-range gather (cumsum + repeat), bounded by true matches."""
    nc = _coarse_events(sf_dir)

    def keep(batch: pa.Table) -> pa.Table:
        m = pc.is_in(batch["event_type"],
                     value_set=pa.array(["click", "purchase"]))
        t = batch.filter(m)
        u = t["user_id"].to_numpy(zero_copy_only=False)
        return t.append_column("coarse",
                               pa.array((u % nc).astype(np.int32)))

    def match(df: pd.DataFrame) -> pd.DataFrame:
        empty = pd.DataFrame({
            "user_id": pd.array([], "int64"),
            "click_event_id": pd.array([], "int64"),
            "purchase_event_id": pd.array([], "int64"),
            "gap_us": pd.array([], "int64")})
        is_c = df["event_type"].to_numpy() == "click"
        c = df[is_c].sort_values(["user_id", "ts", "event_id"])
        p = df[~is_c].sort_values(["user_id", "ts", "event_id"])
        if not len(c) or not len(p):
            return empty
        ts_c = c["ts"].astype("int64").to_numpy()
        ts_p = p["ts"].astype("int64").to_numpy()
        base = min(int(ts_c.min()), int(ts_p.min()))
        span = max(int(ts_c.max()), int(ts_p.max())) - base \
            + INTERVAL_JOIN_WINDOW_US + 2
        users = pd.concat([c["user_id"], p["user_id"]]).unique()
        rank = {u: i for i, u in enumerate(np.sort(users))}
        assert len(rank) * span < 2**62, \
            "composite key overflow: widen to per-user matching"
        kc = c["user_id"].map(rank).to_numpy() * span + (ts_c - base)
        kp = p["user_id"].map(rank).to_numpy() * span + (ts_p - base)
        lo = np.searchsorted(kp, kc, "right")          # strictly after
        hi = np.searchsorted(kp, kc + INTERVAL_JOIN_WINDOW_US, "right")
        cnt = hi - lo
        total = int(cnt.sum())
        if not total:
            return empty
        # multi-range gather: purchase indices for every (click, k) pair
        starts = np.cumsum(cnt) - cnt
        pidx = np.arange(total, dtype=np.int64) \
            - np.repeat(starts, cnt) + np.repeat(lo, cnt)
        cid = np.repeat(c["event_id"].to_numpy(), cnt)
        return pd.DataFrame({
            "user_id": np.repeat(c["user_id"].to_numpy(), cnt),
            "click_event_id": cid,
            "purchase_event_id": p["event_id"].to_numpy()[pidx],
            "gap_us": ts_p[pidx] - np.repeat(ts_c, cnt)})

    out = (_pq(sf_dir, "events",
               ["event_id", "user_id", "ts", "event_type"])
           .map_batches(keep, batch_format="pyarrow")
           .groupby("coarse").map_groups(match, batch_format="pandas")
           .sort(["user_id", "click_event_id", "purchase_event_id"]))
    return nonempty_or_typed_table(out, {
        "user_id": pa.int64(), "click_event_id": pa.int64(),
        "purchase_event_id": pa.int64(), "gap_us": pa.int64()})


def clicks_last_view(sf_dir: str):
    """Backward as-of join, expressed as a forward-fill window: for every
    'click' event, the most recent 'view' event by the same user at or
    before it in the (ts, event_id) total order.

    Partitioning assumption: rows for one user fit one partition (true for
    event streams keyed by user — the group is one user's history).
    Grouping is COARSE (user_id % nc) with a vectorized per-user ffill
    inside the partition; the as-of match itself is the pandas groupby
    ffill, not a per-row loop. Nullable outputs (clicks before any view)
    stay float64/NaT on both engine and oracle sides so the dtype-sensitive
    driver hash agrees."""
    nc = _coarse_events(sf_dir)

    def keep(batch: pa.Table) -> pa.Table:
        m = pc.is_in(batch["event_type"],
                     value_set=pa.array(["view", "click"]))
        t = batch.filter(m)
        u = t["user_id"].to_numpy(zero_copy_only=False)
        return t.append_column("coarse", pa.array((u % nc).astype(np.int32)))

    def asof(df: pd.DataFrame) -> pd.DataFrame:
        d = df.sort_values(["user_id", "ts", "event_id"]).reset_index(drop=True)
        is_view = d["event_type"].to_numpy() == "view"
        d["vts"] = d["ts"].where(is_view)
        d["vid"] = d["event_id"].astype("float64").where(is_view)
        filled = d.groupby("user_id")[["vts", "vid"]].ffill()
        d["last_view_ts"] = filled["vts"]
        d["last_view_event_id"] = filled["vid"]
        out = d[d["event_type"].to_numpy() == "click"]
        return out[["event_id", "user_id", "ts",
                    "last_view_ts", "last_view_event_id"]]

    return (_pq(sf_dir, "events", ["event_id", "ts", "user_id", "event_type"])
            .map_batches(keep, batch_format="pyarrow")
            .groupby("coarse")
            .map_groups(asof, batch_format="pandas")
            .sort(["user_id", "ts", "event_id"]))


# ---------------------------------------------------------------------------
# Range join: fact values bucketed into a small interval table

QUANTITY_BANDS = [(1.0, 10.0, "XS"), (10.0, 20.0, "S"), (20.0, 30.0, "M"),
                  (30.0, 40.0, "L"), (40.0, 51.0, "XL")]


def quantity_band_stats(sf_dir: str):
    """Range join lineitem.l_quantity into half-open bands [lo, hi) —
    the broadcast-interval pattern: the interval table is tiny, so the
    join is an np.searchsorted against the sorted band edges inside
    map_batches (O(log B) per row, no shuffle), not a pairwise range
    predicate. Output: per-band item count and discounted revenue."""
    edges = np.array([b[0] for b in QUANTITY_BANDS] + [QUANTITY_BANDS[-1][1]])
    labels = np.array([b[2] for b in QUANTITY_BANDS])

    def band(batch: pa.Table) -> pa.Table:
        qty = batch["l_quantity"].to_numpy(zero_copy_only=False)
        idx = np.searchsorted(edges, qty, side="right") - 1
        # inner-join semantics: rows outside [first lo, last hi) DROP,
        # exactly like the SQL range predicate — never clipped into a band
        in_range = (idx >= 0) & (qty < edges[-1])
        rev_c = _rev_cents(batch).to_numpy(zero_copy_only=False)
        return pa.table({"band": pa.array(labels[idx[in_range]]),
                         "rev_c": pa.array(rev_c[in_range])})

    agg = (_pq(sf_dir, "lineitem", ["l_quantity", "l_extendedprice", "l_discount"])
           .map_batches(band, batch_format="pyarrow")
           .groupby("band")
           .aggregate(Count(alias_name="n_items"), Sum("rev_c", alias_name="rev_c")))

    def finalize(batch: pa.Table) -> pa.Table:
        return pa.table({"band": batch["band"], "n_items": batch["n_items"],
                         "revenue": pc.divide(pc.cast(batch["rev_c"], pa.float64()),
                                              10000.0)})

    return agg.map_batches(finalize, batch_format="pyarrow").sort("band")


# ---------------------------------------------------------------------------
# Exact quantiles per group (discrete rule — element-identical to SQL)

QUANTILES = (0.25, 0.5, 0.75, 0.9)


def event_value_quantiles(sf_dir: str):
    """Per event_type discrete quantiles of value: sorted[ceil(q*n)-1]
    (DuckDB quantile_disc semantics — returns an ACTUAL element, no
    interpolation, so engine and oracle agree bit-for-bit).

    map_groups sorts one type's values per group; event_type cardinality
    is tiny so groups are corpus-sized slices at 100 TB — the documented
    scale path is replacing the group fn with a distributed sort or a
    t-digest sketch; the operator seam (group fn returning one row per
    group) stays the same."""

    def quant(df: pd.DataFrame) -> pd.DataFrame:
        # n_events = count(*) over ALL rows; min/max/quantiles ignore
        # NULL values (SQL aggregate semantics) — an all-NULL type yields
        # NULL stats, and NaNs must not occupy quantile ranks
        vraw = df["value"].to_numpy()
        v = np.sort(vraw[~np.isnan(vraw)])
        n = len(v)
        row = {"event_type": df["event_type"].iloc[0],
               "n_events": len(vraw),
               "min_value": v[0] if n else np.nan,
               "max_value": v[-1] if n else np.nan}
        for q in QUANTILES:
            idx = max(int(np.ceil(q * n)) - 1, 0)
            row[f"p{int(q * 100)}"] = v[idx] if n else np.nan
        return pd.DataFrame([row])

    return (_pq(sf_dir, "events", ["event_type", "value"])
            .groupby("event_type")
            .map_groups(quant, batch_format="pandas")
            .sort("event_type"))


def scalable_quantiles(sf_dir: str):
    """Exact per-type discrete quantiles WITHOUT materializing any type's
    full value set — the 100 TB path event_value_quantiles' docstring
    promises (histogram refinement instead of a per-group sort):

      pass 1 — per-batch (type, floor(value)) integer-bin histogram
        partials (deterministic binning, no pre-pass; null counts ride
        under an out-of-band kind marker) → tiny groupby; per-type bin
        counts reach the driver, BOUNDED by type-cardinality × value
        range, independent of row count;
      driver — cumulative bin counts locate, for each rank
        r = ceil(q·n), the bin holding the r-th smallest value and the
        within-bin rank; candidate bins also include the min/max bins;
      pass 2 — stream again keeping ONLY candidate-bin rows (~n/range
        each); their sorted values yield the exact order statistics.

    Output (and SQL oracle) identical to event_value_quantiles: DuckDB
    quantile_disc semantics, bit-exact elements. Any MONOTONE binning
    keeps the refinement exact (candidate bins are collected whole and
    sorted), so ±inf and > 2^63 magnitudes clip into dedicated extreme
    bins instead of hitting floor→int64 wraparound UB; NULL event_type
    is a real group (string-sentinel keyed — pandas groupby/merge both
    drop NaN keys) exactly as in SQL GROUP BY."""
    _NULL_ET = "\x00null"
    imax, imin = np.iinfo(np.int64).max, np.iinfo(np.int64).min

    def _bins(v: np.ndarray) -> np.ndarray:
        b = np.zeros(len(v), np.int64)
        fin = np.isfinite(v)
        b[fin] = np.clip(np.floor(v[fin]),
                         imin + 2, imax - 2).astype(np.int64)
        b[np.isposinf(v)] = imax - 1
        b[np.isneginf(v)] = imin + 1
        return b

    def _etk(s: pd.Series) -> pd.Series:
        return s.fillna(_NULL_ET)

    def hist_partial(df: pd.DataFrame) -> pd.DataFrame:
        v = df["value"].to_numpy()
        nan = np.isnan(v)
        d = pd.DataFrame({"event_type": _etk(df["event_type"][~nan]),
                          "bin": _bins(v[~nan])})
        g = d.groupby(["event_type", "bin"]).size().reset_index(name="n")
        nulls = _etk(df["event_type"][nan]).value_counts()
        return pd.DataFrame({
            "kind": ["v"] * len(g) + ["z"] * len(nulls),
            "event_type": pd.concat(
                [g["event_type"], pd.Series(nulls.index)],
                ignore_index=True),
            "bin": pd.concat([g["bin"], pd.Series(
                np.zeros(len(nulls), np.int64))], ignore_index=True),
            "n": pd.concat([g["n"], pd.Series(nulls.to_numpy())],
                           ignore_index=True).astype("int64")})

    ev = _pq(sf_dir, "events", ["event_type", "value"])

    def combine(df: pd.DataFrame) -> pd.DataFrame:
        return df.groupby(["kind", "event_type", "bin"],
                          as_index=False)["n"].sum()

    # tree reduce instead of a native Aggregate (which pays seconds of
    # per-block fixed cost on tiny tables — measured 3.8-5.4 s for 1.8k
    # rows): the per-block combine bounds the driver merge by
    # n_blocks × (types × occupied bins); at extreme block counts insert
    # a repartition(k) + combine level here — that is the only seam
    raw = (ev.map_batches(hist_partial, batch_format="pandas")
           .map_batches(combine, batch_format="pandas").to_pandas())

    cols = ["event_type", "n_events", "min_value", "max_value"] + \
        [f"p{int(q * 100)}" for q in QUANTILES]
    if "kind" not in raw.columns or not len(raw):
        # zero-row events: all-empty lineage erodes columns (known trap)
        return pa.table({c: pa.array(
            [], pa.string() if c == "event_type" else
            pa.int64() if c == "n_events" else pa.float64())
            for c in cols})
    hist = combine(raw)

    nulls = hist[hist["kind"] == "z"].set_index("event_type")["n"]
    vbins = hist[hist["kind"] == "v"].sort_values(["event_type", "bin"])
    # driver plan: per type, which bins hold which global ranks
    want: dict[str, dict[int, list[tuple[str, int]]]] = {}
    meta: dict[str, dict] = {}
    for et, g in vbins.groupby("event_type"):
        n = int(g["n"].sum())
        cum = g["n"].cumsum().to_numpy()
        bins = g["bin"].to_numpy()
        need: dict[int, list[tuple[str, int]]] = {}
        for q in QUANTILES:
            idx = max(int(np.ceil(q * n)) - 1, 0)
            j = int(np.searchsorted(cum, idx + 1))
            within = idx - (int(cum[j - 1]) if j else 0)
            need.setdefault(int(bins[j]), []).append(
                (f"p{int(q * 100)}", within))
        need.setdefault(int(bins[0]), []).append(("min_value", 0))
        need.setdefault(int(bins[-1]), []).append(
            ("max_value", int(g["n"].iloc[-1]) - 1))
        want[et] = need
        meta[et] = {"n_nonnull": n}

    cand_keys = pd.DataFrame(
        [(et, bb) for et, need in want.items() for bb in need],
        columns=["event_type", "bin"])

    def collect(df: pd.DataFrame) -> pd.DataFrame:
        v = df["value"].to_numpy()
        nan = np.isnan(v)
        d = df[~nan].assign(bin=_bins(v[~nan]),
                            event_type=_etk(df["event_type"][~nan]))
        return d.merge(cand_keys, on=["event_type", "bin"])

    cand = ev.map_batches(collect, batch_format="pandas").to_pandas()

    rows = []
    all_types = sorted(set(meta) | set(nulls.index))
    for et in all_types:
        n_nonnull = meta.get(et, {}).get("n_nonnull", 0)
        row = {"event_type": None if et == _NULL_ET else et,
               "n_events": n_nonnull + int(nulls.get(et, 0))}
        stats = {c: np.nan for c in cols[2:]}
        if n_nonnull:
            g = cand[cand["event_type"] == et]
            for bb, picks in want[et].items():
                vals = np.sort(g[g["bin"] == bb]["value"].to_numpy())
                for name, within in picks:
                    stats[name] = float(vals[within])
        row.update(stats)
        rows.append(row)
    out = pd.DataFrame(rows, columns=cols).sort_values("event_type")
    return pa.Table.from_pandas(out, preserve_index=False)


# ---------------------------------------------------------------------------
# Distinct count per window (dedupe shuffle bounded by true cardinality)


def distinct_users_hourly(sf_dir: str):
    """count(DISTINCT user_id) per hour — per-batch drop-duplicates
    combiner (shuffle volume bounded by the TRUE (hour, user) pair
    cardinality, not the event count), then ONE hour-partitioned shuffle
    with a vectorized dedupe+count inside each coarse partition. A single
    coarse groupby beats chaining two native aggregates: each native
    Aggregate pays a per-input-block fixed cost, and all rows for one hour
    land in one partition anyway (hours ≫ partitions at scale)."""
    nc = _coarse_events(sf_dir)

    def pairs(batch: pa.Table) -> pa.Table:
        hour = pc.cast(pc.floor_temporal(batch["ts"], unit="hour"),
                       pa.timestamp("us"))
        t = pa.table({"hour": hour, "user_id": batch["user_id"]})
        t = t.group_by(["hour", "user_id"]).aggregate([])
        h = t["hour"].to_numpy(zero_copy_only=False).astype("datetime64[h]")
        coarse = (h.astype(np.int64) % nc).astype(np.int32)
        return t.append_column("coarse", pa.array(coarse))

    def nunique(df: pd.DataFrame) -> pd.DataFrame:
        out = (df.drop_duplicates(["hour", "user_id"])
               .groupby("hour", as_index=False)["user_id"].size()
               .rename(columns={"size": "n_users"}))
        return out[["hour", "n_users"]]

    return (_pq(sf_dir, "events", ["ts", "user_id"])
            .map_batches(pairs, batch_format="pyarrow")
            .groupby("coarse")
            .map_groups(nunique, batch_format="pandas")
            .sort("hour"))


# ---------------------------------------------------------------------------
# Lag window: inter-event gaps per user


def user_event_gaps(sf_dir: str):
    """Per-user inter-arrival stats over the (ts, event_id) order:
    n_events, n_gaps, avg_gap_s, max_gap_s. Gaps accumulate as exact int64
    microseconds (associative under any partitioning) and divide to seconds
    once at the end — the timestamp analog of integer-cent sums."""
    nc = _coarse_events(sf_dir)

    def add_coarse(batch: pa.Table) -> pa.Table:
        u = batch["user_id"].to_numpy(zero_copy_only=False)
        return batch.append_column("coarse", pa.array((u % nc).astype(np.int32)))

    def gaps(df: pd.DataFrame) -> pd.DataFrame:
        d = df.sort_values(["user_id", "ts", "event_id"]).reset_index(drop=True)
        # normalize to µs explicitly (pandas may hold ns or µs depending on
        # the arrow→pandas path) so the sums match the SQL
        # date_diff('microsecond', ...) sums exactly
        us = d["ts"].to_numpy().astype("datetime64[us]").astype(np.int64)
        uid = d["user_id"].to_numpy()
        diff = np.diff(us)
        same = uid[1:] == uid[:-1]
        gap_uid = uid[1:][same]
        gap_us = diff[same]
        users, counts = np.unique(uid, return_counts=True)
        n_gaps = np.zeros(len(users), np.int64)
        sum_us = np.zeros(len(users), np.int64)
        max_us = np.zeros(len(users), np.int64)
        if len(gap_uid):
            pos = np.searchsorted(users, gap_uid)
            np.add.at(n_gaps, pos, 1)
            np.add.at(sum_us, pos, gap_us)
            np.maximum.at(max_us, pos, gap_us)
        # single division matching the SQL expression sum/(n*1000000.0)
        avg = np.where(n_gaps > 0, sum_us / (np.maximum(n_gaps, 1) * 1e6), np.nan)
        mx = np.where(n_gaps > 0, max_us / 1e6, np.nan)
        return pd.DataFrame({"user_id": users, "n_events": counts,
                             "n_gaps": n_gaps, "avg_gap_s": avg,
                             "max_gap_s": mx})

    return (_pq(sf_dir, "events", ["event_id", "ts", "user_id"])
            .map_batches(add_coarse, batch_format="pyarrow")
            .groupby("coarse")
            .map_groups(gaps, batch_format="pandas")
            .sort("user_id"))


# ---------------------------------------------------------------------------
# Semi-join: fact rows whose key appears in a filtered dimension


@ray.remote(num_cpus=1)
def _segment_keys_task(path: str, segment: str):
    """Qualifying custkey SET built INSIDE a Ray task — the driver holds
    only the ObjectRef (dim_broadcast convention for a filtered key set)."""
    import numpy as _np
    import pyarrow.compute as _pc
    import pyarrow.parquet as _pqt

    cust = _pqt.read_table(path, columns=["c_custkey", "c_mktsegment"])
    return _np.sort(cust.filter(
        _pc.equal(cust["c_mktsegment"], segment))["c_custkey"].to_numpy())


def segment_order_priorities(sf_dir: str, segment: str = "BUILDING",
                             broadcast_cap_rows: int | None = None):
    """Order counts by priority, restricted to customers in one market
    segment — a size-routed SEMI-join (stages/dim_broadcast cap). Below
    the cap, only the qualifying custkey SET ships (built by a Ray task,
    broadcast once, searchsorted probe per batch — no dimension columns
    attach, no fact shuffle). Customer grows with scale factor, so above
    the cap the filtered key Dataset meets orders through the
    co-partitioned stages/joins.hash_join (custkey is unique in customer,
    so inner ≡ semi)."""
    from ..stages.dim_broadcast import should_broadcast
    from ..stages.joins import hash_join

    cust_path = os.path.join(sf_dir, "customer.parquet")

    if should_broadcast(cust_path, broadcast_cap_rows):
        ref = _segment_keys_task.remote(cust_path, segment)

        def semi(batch: pa.Table) -> pa.Table:
            have = ray.get(ref)   # sorted — probe via searchsorted membership
            ck = batch["o_custkey"].to_numpy(zero_copy_only=False)
            pos = np.searchsorted(have, ck)
            mask = (pos < len(have)) & (have[np.minimum(pos, len(have) - 1)] == ck) \
                if len(have) else np.zeros(len(ck), bool)
            return batch.filter(pa.array(mask)).select(["o_orderpriority"])

        filtered = (_pq(sf_dir, "orders", ["o_custkey", "o_orderpriority"])
                    .map_batches(semi, batch_format="pyarrow"))
    else:
        cust_keys = (_pq(sf_dir, "customer", ["c_custkey", "c_mktsegment"])
                     .map_batches(
                         lambda b: b.filter(
                             pc.equal(b["c_mktsegment"], segment))
                         .select(["c_custkey"]),
                         batch_format="pyarrow"))
        filtered = hash_join(
            _pq(sf_dir, "orders", ["o_custkey", "o_orderpriority"]),
            cust_keys, "o_custkey", "c_custkey") \
            .select_columns(["o_orderpriority"])

    agg = (filtered.groupby("o_orderpriority")
           .aggregate(Count(alias_name="n_orders")))
    return agg.sort("o_orderpriority")


# ---------------------------------------------------------------------------
# Left-outer join with real null rows (hash_join how='left' end to end)


def orders_late_items(sf_dir: str):
    """Per order: the number of lineitems shipping after the cutoff —
    LEFT-outer through stages/joins.hash_join, so orders with no late item
    survive with a null count (finalized to 0, matching the SQL
    count(l_orderkey) over a LEFT JOIN). The lineitem side pre-counts per
    (batch, orderkey) before the join — the combiner pattern."""
    from ..stages.joins import hash_join
    import pyarrow.dataset as pds

    cutoff = pa.scalar(UNSHIPPED_CUTOFF.astype("datetime64[us]").item(),
                       pa.timestamp("us"))

    def li_partial(batch: pa.Table) -> pa.Table:
        t = pa.table({"l_orderkey": batch["l_orderkey"],
                      "late": pa.array(
                          np.ones(batch.num_rows, np.int64))})
        g = t.group_by("l_orderkey").aggregate([("late", "sum")])
        return pa.table({"l_orderkey": g["l_orderkey"], "late": g["late_sum"]})

    li = _pq(sf_dir, "lineitem", ["l_orderkey"],
             filter=(pds.field("l_shipdate") > cutoff)).map_batches(
        li_partial, batch_format="pyarrow", batch_size=65536)
    orders = _pq(sf_dir, "orders", ["o_orderkey"])

    n_li = pq.ParquetFile(
        os.path.join(sf_dir, "lineitem.parquet")).metadata.num_rows
    joined = hash_join(orders, li, "o_orderkey", "l_orderkey", how="left",
                       n_coarse=min(256, n_li // 2_000 + 1))
    # one order may meet several partial-count rows (one per lineitem
    # block); a second aggregate folds them and turns null → 0
    agg = joined.groupby("o_orderkey").aggregate(
        Sum("late", alias_name="late"))

    def finalize(batch: pa.Table) -> pa.Table:
        return pa.table({
            "o_orderkey": batch["o_orderkey"],
            "n_late_items": pc.coalesce(pc.cast(batch["late"], pa.int64()),
                                        pa.scalar(0, pa.int64()))})

    return agg.map_batches(finalize, batch_format="pyarrow").sort("o_orderkey")


# ---------------------------------------------------------------------------
# Pivot: one column per category via conditional aggregation

EVENT_TYPES = ("click", "error", "purchase", "signup", "view")


def events_hourly_pivot(sf_dir: str):
    """Hour × event-type pivot as conditional aggregation: per hour, one
    count column per event type (SQL count(*) FILTER (WHERE ...)). The
    per-batch combiner emits one partial row per hour per block — the
    shuffle carries |hours| × |types| ints, never events."""

    def partial(batch: pa.Table) -> pa.Table:
        hour = pc.cast(pc.floor_temporal(batch["ts"], unit="hour"),
                       pa.timestamp("us"))
        et = batch["event_type"].to_numpy(zero_copy_only=False)
        cols = {"hour": hour}
        for t in EVENT_TYPES:
            cols[f"n_{t}"] = pa.array((et == t).astype(np.int64))
        t = pa.table(cols)
        g = t.group_by("hour").aggregate(
            [(f"n_{ty}", "sum") for ty in EVENT_TYPES])
        return pa.table({"hour": g["hour"],
                         **{f"n_{ty}": g[f"n_{ty}_sum"] for ty in EVENT_TYPES}})

    agg = (_pq(sf_dir, "events", ["ts", "event_type"])
           .map_batches(partial, batch_format="pyarrow", batch_size=65536)
           .groupby("hour")
           .aggregate(*[Sum(f"n_{t}", alias_name=f"n_{t}")
                        for t in EVENT_TYPES]))

    def finalize(batch: pa.Table) -> pa.Table:
        # Ray's native aggregate degrades the timestamp key to timestamp[s];
        # cast back to µs — the oracle's date_trunc emits timestamp[us] and
        # the driver hash is dtype-sensitive (same fix as events_hourly)
        return batch.set_column(batch.schema.get_field_index("hour"), "hour",
                                pc.cast(batch["hour"], pa.timestamp("us")))

    return agg.map_batches(finalize, batch_format="pyarrow").sort("hour")


# ---------------------------------------------------------------------------
# Funnel: ordered event milestones per user (conditional-min pivot)

FUNNEL_STEPS = ("view", "click", "purchase")


def conversion_funnel(sf_dir: str):
    """Per-user conversion funnel over the (view → click → purchase) event
    order: first timestamp of each step and the reached stage (a later
    step counts only if it happens strictly AFTER the previous one).

    Shape: conditional-min pivot — a per-batch combiner emits one partial
    row per user per block with each step's min ts, a user-keyed groupby
    finishes the mins, and the stage logic is a vectorized null-aware
    comparison in finalize. Shuffle volume is |users| × |steps|
    timestamps, never events."""
    from ray.data.aggregate import Min

    def partial(batch: pa.Table) -> pa.Table:
        et = batch["event_type"].to_numpy(zero_copy_only=False)
        cols = {"user_id": batch["user_id"]}
        for s in FUNNEL_STEPS:
            cols[f"t_{s}"] = pc.if_else(
                pa.array(et == s), batch["ts"],
                pa.scalar(None, pa.timestamp("us")))
        t = pa.table(cols)
        g = t.group_by("user_id").aggregate(
            [(f"t_{s}", "min") for s in FUNNEL_STEPS])
        return pa.table({"user_id": g["user_id"],
                         **{f"t_{s}": g[f"t_{s}_min"] for s in FUNNEL_STEPS}})

    agg = (_pq(sf_dir, "events", ["ts", "user_id", "event_type"])
           .map_batches(partial, batch_format="pyarrow", batch_size=65536)
           .groupby("user_id")
           .aggregate(*[Min(f"t_{s}", alias_name=f"t_{s}")
                        for s in FUNNEL_STEPS]))

    def finalize(batch: pa.Table) -> pa.Table:
        tv = batch["t_view"].to_numpy(zero_copy_only=False)
        tc = batch["t_click"].to_numpy(zero_copy_only=False)
        tp = batch["t_purchase"].to_numpy(zero_copy_only=False)
        s1 = ~pd.isna(tv)
        s2 = s1 & ~pd.isna(tc) & (tc > tv)
        s3 = s2 & ~pd.isna(tp) & (tp > tc)
        stage = s1.astype(np.int64) + s2.astype(np.int64) + s3.astype(np.int64)
        return pa.table({
            "user_id": batch["user_id"],
            # Min-aggregate keys/values degrade to timestamp[s] like Sum
            # (the dtype-sensitive driver hash rule) — cast back to µs
            "t_view": pc.cast(batch["t_view"], pa.timestamp("us")),
            "t_click": pc.cast(batch["t_click"], pa.timestamp("us")),
            "t_purchase": pc.cast(batch["t_purchase"], pa.timestamp("us")),
            "stage": pa.array(stage)})

    return agg.map_batches(finalize, batch_format="pyarrow").sort("user_id")


# ---------------------------------------------------------------------------
# Histogram: fixed-width bins via vectorized floor-divide + groupby

HIST_BIN_WIDTH = 50.0


def value_histogram(sf_dir: str, width: float = HIST_BIN_WIDTH):
    """Per-(event_type, bin) histogram of value with fixed-width bins:
    bin = floor(value / width). One vectorized floor-divide per batch, one
    tiny groupby — the float expression mirrors the SQL oracle exactly so
    boundary values land in the same bin on both sides."""

    BIN_NULL = np.iinfo(np.int64).min  # NULL-value rows get their own bin

    def binned(batch: pa.Table) -> pa.Table:
        # Arrow-native binning so NULL values propagate (numpy floor(NaN)
        # .astype(int64) is garbage); the null bin rides as an int64
        # sentinel through the groupby and is restored in the finalize
        b = pc.cast(pc.floor(pc.divide(
            pc.cast(batch["value"], pa.float64()), width)), pa.int64())
        return pa.table({"event_type": batch["event_type"],
                         "bin": pc.fill_null(b, BIN_NULL),
                         "value_c": _cents_arr(batch["value"])})

    agg = (_pq(sf_dir, "events", ["event_type", "value"])
           .map_batches(binned, batch_format="pyarrow")
           .groupby(["event_type", "bin"])
           .aggregate(Count(alias_name="n_events"),
                      Sum("value_c", alias_name="value_c")))

    def finalize(batch: pa.Table) -> pa.Table:
        b = batch["bin"].combine_chunks() if isinstance(
            batch["bin"], pa.ChunkedArray) else batch["bin"]
        return pa.table({
            "event_type": batch["event_type"],
            "bin": pc.if_else(pc.equal(b, BIN_NULL),
                              pa.scalar(None, pa.int64()), b),
            "n_events": batch["n_events"],
            "sum_value": pc.divide(pc.cast(batch["value_c"], pa.float64()),
                                   100.0)})

    # sort on the sentinel (pre-finalize) — sorting a nullable key risks
    # null-ordering divergence; the comparison canonicalizes row order
    return agg.sort(["event_type", "bin"]).map_batches(
        finalize, batch_format="pyarrow")

# ---------------------------------------------------------------------------
# Rollup (grouping sets) over a bounded-cardinality base aggregate

ROLLUP_ALL = "<all>"


def lang_source_rollup(sf_dir: str):
    """GROUP BY ROLLUP(lang, source): per-(lang, source) stats plus
    per-lang subtotals plus the grand total, subtotal levels marked with
    the '<all>' sentinel (not NULL — Ray sort and the driver hash stay on
    non-null string keys).

    The detail aggregate runs distributed once; the subtotal and total
    levels re-aggregate the DETAIL rows (cardinality = |langs|×|sources|,
    bounded at any corpus size), so the raw table is scanned exactly once."""
    detail = (_pq(sf_dir, "documents", ["lang", "source", "n_chars"])
              .groupby(["lang", "source"])
              .aggregate(Count(alias_name="n_docs"),
                         Sum("n_chars", alias_name="total_chars")))
    empty = pa.table({"lang": pa.array([], pa.string()),
                      "source": pa.array([], pa.string()),
                      "n_docs": pa.array([], pa.int64()),
                      "total_chars": pa.array([], pa.int64())})
    detail_t = pa.concat_tables(
        [empty] + [b.select(empty.column_names)
                   for b in detail.iter_batches(batch_format="pyarrow")])

    lang_sub = detail_t.group_by("lang").aggregate(
        [("n_docs", "sum"), ("total_chars", "sum")])
    rows = [detail_t]
    rows.append(pa.table({
        "lang": lang_sub["lang"],
        "source": pa.array([ROLLUP_ALL] * lang_sub.num_rows, pa.string()),
        "n_docs": lang_sub["n_docs_sum"],
        "total_chars": lang_sub["total_chars_sum"]}))
    # grand total: SQL ROLLUP over an EMPTY table still emits one row with
    # count(*) = 0 and sum(...) = NULL — keep the null, don't coerce to 0
    rows.append(pa.table({
        "lang": pa.array([ROLLUP_ALL]), "source": pa.array([ROLLUP_ALL]),
        "n_docs": pa.array([pc.sum(detail_t["n_docs"]).as_py() or 0],
                           pa.int64()),
        "total_chars": pa.array([pc.sum(detail_t["total_chars"]).as_py()],
                                pa.int64())}))
    out = pa.concat_tables(rows)
    import ray.data as rd
    return rd.from_arrow(out).sort(["lang", "source"])


# ---------------------------------------------------------------------------
# Set operations over derived key sets (INTERSECT / EXCEPT shapes)


def _users_by_type_flags(sf_dir: str, types: tuple[str, ...]):
    """(user_id, has_<t>...) — one bool per event type, built as a
    conditional-max pivot (per-batch combiner, then a tiny user groupby);
    the set-op queries below are filters over these flags, so INTERSECT /
    EXCEPT never shuffle raw events twice."""
    from ray.data.aggregate import Max

    def partial(batch: pa.Table) -> pa.Table:
        et = batch["event_type"].to_numpy(zero_copy_only=False)
        cols = {"user_id": batch["user_id"]}
        for t in types:
            cols[f"has_{t}"] = pa.array((et == t).astype(np.int8))
        tb = pa.table(cols)
        g = tb.group_by("user_id").aggregate(
            [(f"has_{t}", "max") for t in types])
        return pa.table({"user_id": g["user_id"],
                         **{f"has_{t}": g[f"has_{t}_max"] for t in types}})

    return (_pq(sf_dir, "events", ["user_id", "event_type"])
            .map_batches(partial, batch_format="pyarrow", batch_size=65536)
            .groupby("user_id")
            .aggregate(*[Max(f"has_{t}", alias_name=f"has_{t}")
                         for t in types]))


def users_click_and_purchase(sf_dir: str):
    """INTERSECT shape: users appearing in BOTH the click and the purchase
    key sets."""
    flags = _users_by_type_flags(sf_dir, ("click", "purchase"))

    def keep(batch: pa.Table) -> pa.Table:
        m = pc.and_(pc.equal(batch["has_click"], 1),
                    pc.equal(batch["has_purchase"], 1))
        return batch.filter(m).select(["user_id"])

    out = flags.map_batches(keep, batch_format="pyarrow").sort("user_id")
    return nonempty_or_typed_table(out, {"user_id": pa.int64()})


def viewers_never_purchased(sf_dir: str):
    """EXCEPT shape: the view key set minus the purchase key set. On dense
    synthetic tiers every viewer also purchases, so the result is often
    EMPTY — see nonempty_or_typed_table for why that needs a guard."""
    flags = _users_by_type_flags(sf_dir, ("view", "purchase"))

    def keep(batch: pa.Table) -> pa.Table:
        m = pc.and_(pc.equal(batch["has_view"], 1),
                    pc.equal(batch["has_purchase"], 0))
        return batch.filter(m).select(["user_id"])

    out = flags.map_batches(keep, batch_format="pyarrow").sort("user_id")
    return nonempty_or_typed_table(out, {"user_id": pa.int64()})


def latest_event_per_user(sf_dir: str):
    """Argmax-row dedup: each user's single most recent event, total order
    (ts, event_id). Runs the generic crawl.latest_rows_per_key two-stage
    partial argmax — the same operator that dedups multi-capture crawl
    tables by url (analysis.latest_capture_per_url); here its fixpoint is
    SQL-expressible (row_number window) so the driver value-checks it."""
    from ..stages.crawl import latest_rows_per_key

    ev = _pq(sf_dir, "events",
             ["event_id", "ts", "user_id", "event_type", "value"])
    out = latest_rows_per_key(
        ev, "user_id", ["ts", "event_id"],
        n_coarse=_coarse_events(sf_dir),
        schema={"event_id": pa.int64(), "ts": pa.timestamp("us"),
                "user_id": pa.int64(), "event_type": pa.string(),
                "value": pa.float64()})
    return out.sort("user_id")


HOP_WINDOW_HOURS = 3


def sliding_event_counts(sf_dir: str, window_hours: int = HOP_WINDOW_HOURS):
    """Hopping event-time window (size ``window_hours``, hop 1 h): every
    event contributes to the ``window_hours`` windows covering it — a
    vectorized fan-out (tile the batch once per offset, int64-µs window
    arithmetic) feeding a per-batch combiner, then ONE window groupby over
    pre-aggregated rows. Value sums ride as exact integer cents
    (relational.events_hourly discipline) so the distributed float result
    is order-independent. Window key stays int64 µs through the native
    aggregate (Ray degrades timestamp keys to second resolution) and is
    cast back in the finalize."""
    hour_us = 3_600 * 1_000_000

    def fanout(batch: pa.Table) -> pa.Table:
        ts = batch["ts"].cast(pa.int64()).to_numpy()
        hour = (ts // hour_us) * hour_us
        # cents stay an Arrow (nullable) array end-to-end: a NULL event
        # value must ride as null (numpy would turn it into NaN and the
        # int64 rebuild would abort the query), be counted by n_events
        # (oracle count(*)), and be skipped by the sum
        vc = _cents_arr(batch["value"])
        if isinstance(vc, pa.ChunkedArray):
            vc = vc.combine_chunks()
        wins = np.concatenate(
            [hour - off * hour_us for off in range(window_hours)])
        vals = pa.concat_arrays([vc] * window_hours)
        tb = pa.table({"w": pa.array(wins, pa.int64()), "value_c": vals})
        g = tb.group_by("w").aggregate(
            [("value_c", "sum"),
             ("value_c", "count", pc.CountOptions(mode="all"))])
        return pa.table({"w": g["w"],
                         "value_c": g["value_c_sum"],
                         "n_events": g["value_c_count"].cast(pa.int64())})

    agg = (_pq(sf_dir, "events", ["ts", "value"])
           .map_batches(fanout, batch_format="pyarrow")
           .groupby("w")
           .aggregate(Sum("value_c", alias_name="value_c"),
                      Sum("n_events", alias_name="n_events")))

    def finalize(batch: pa.Table) -> pa.Table:
        return pa.table({
            "window_start": batch["w"].cast(pa.int64())
                                      .cast(pa.timestamp("us")),
            "n_events": batch["n_events"],
            "sum_value": pc.divide(
                batch["value_c"].cast(pa.float64()), 100.0)})

    return agg.map_batches(finalize, batch_format="pyarrow") \
              .sort("window_start")


# ---------------------------------------------------------------------------
# HyperLogLog: approximate count-distinct via mergeable register partials

HLL_P = 12                       # 2^12 registers → ~1.6% standard error
HLL_M = 1 << HLL_P
_HLL_ALPHA = 0.7213 / (1 + 1.079 / HLL_M)


def _hll_registers(keys: np.ndarray) -> np.ndarray:
    """One HLL register array from int64 keys (blake2b-derived 64-bit
    hashes — stable across processes, unlike Python hash())."""
    import hashlib

    regs = np.zeros(HLL_M, np.int8)
    if len(keys) == 0:
        return regs
    # vectorized 64-bit mix (splitmix64) — deterministic, well-distributed
    h = keys.astype(np.uint64)
    h = (h + np.uint64(0x9E3779B97F4A7C15))
    h ^= h >> np.uint64(30); h *= np.uint64(0xBF58476D1CE4E5B9)
    h ^= h >> np.uint64(27); h *= np.uint64(0x94D049BB133111EB)
    h ^= h >> np.uint64(31)
    idx = (h >> np.uint64(64 - HLL_P)).astype(np.int64)
    rest = (h << np.uint64(HLL_P)) | np.uint64((1 << HLL_P) - 1)
    # rank = leading zeros of the remaining bits + 1, capped
    lz = np.zeros(len(h), np.int8)
    cur = rest
    for shift in (32, 16, 8, 4, 2, 1):
        mask = cur < (np.uint64(1) << np.uint64(64 - shift))
        lz[mask] += shift
        cur = np.where(mask, cur << np.uint64(shift), cur)
    rank = (lz + 1).astype(np.int8)
    np.maximum.at(regs, idx, rank)
    return regs


def _hll_estimate(regs: np.ndarray) -> float:
    est = _HLL_ALPHA * HLL_M * HLL_M / np.sum(np.power(2.0, -regs.astype(np.float64)))
    zeros = int((regs == 0).sum())
    if est <= 2.5 * HLL_M and zeros:
        est = HLL_M * np.log(HLL_M / zeros)  # linear counting regime
    return float(est)


def hll_distinct_users(sf_dir: str):
    """Approximate count(DISTINCT user_id) — the sketch path for
    cardinalities where the exact dedupe shuffle (distinct_users_hourly)
    would itself be corpus-sized. Per-batch register partials (HLL_M bytes
    each, REGARDLESS of batch cardinality) max-merge in one tiny reduce:
    total exchange = n_blocks × 4 KB. Rows-only check; the estimator's
    ±~1.6% accuracy is pinned by a test against the exact count."""

    def partial(batch: pa.Table) -> pa.Table:
        keys = batch["user_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        regs = _hll_registers(keys)
        return pa.table({"g": pa.array([0], pa.int32()),
                         "regs": pa.array([regs], pa.list_(pa.int8()))})

    def merge(df: pd.DataFrame) -> pd.DataFrame:
        regs = np.max(np.stack(df["regs"].to_numpy()), axis=0)
        return pd.DataFrame({"n_users_approx": [_hll_estimate(regs)]})

    return (_pq(sf_dir, "events", ["user_id"])
            .map_batches(partial, batch_format="pyarrow")
            .groupby("g")
            .map_groups(merge, batch_format="pandas"))


# ---------------------------------------------------------------------------
# Semi-structured extraction: JSON property field → typed column

# named group: pc.extract_regex rejects unnamed groups; the oracle's
# regexp_extract uses the identical pattern with a plain group — RE2
# matching is the same either way
PROPS_K_RE = r'"k":\s*(?P<k>-?\d+)'


def props_k_stats(sf_dir: str):
    """Parse the integer ``k`` field out of the JSON ``props`` column with
    ONE vectorized RE2 extraction per batch (pyarrow pc.extract_regex —
    no per-row json.loads), then aggregate per event_type: parsed count,
    null/unparsable count, exact integer sum, float mean. The oracle runs
    the same RE2 pattern through DuckDB regexp_extract, so the typed
    column is identical on both sides."""

    def parse(batch: pa.Table) -> pa.Table:
        m = pc.extract_regex(batch["props"], PROPS_K_RE)
        k = pc.cast(pc.struct_field(m, 0), pa.int64())
        return pa.table({"event_type": batch["event_type"],
                         "k": k,
                         "k_filled": pc.fill_null(k, 0),
                         "is_null": pc.cast(pc.is_null(k), pa.int64())})

    agg = (_pq(sf_dir, "events", ["event_type", "props"])
           .map_batches(parse, batch_format="pyarrow")
           .groupby("event_type")
           .aggregate(Count(alias_name="n_events"),
                      Sum("is_null", alias_name="n_unparsed"),
                      Sum("k_filled", alias_name="sum_k")))

    def finalize(batch: pa.Table) -> pa.Table:
        n_ok = pc.subtract(batch["n_events"], batch["n_unparsed"])
        avg = pc.divide(pc.cast(batch["sum_k"], pa.float64()),
                        pc.cast(n_ok, pa.float64()))
        # SQL 0/0 is NULL, Arrow's is NaN — mask the all-unparsed groups
        avg = pc.if_else(pc.equal(n_ok, 0),
                         pa.scalar(None, pa.float64()), avg)
        return pa.table({
            "event_type": batch["event_type"],
            "n_events": batch["n_events"],
            "n_unparsed": batch["n_unparsed"],
            "sum_k": batch["sum_k"],
            "avg_k": avg})

    return agg.map_batches(finalize, batch_format="pyarrow").sort("event_type")


# ---------------------------------------------------------------------------
# Cohort retention: first-seen day joined back to activity


def cohort_retention(sf_dir: str):
    """Classic cohort table: users bucketed by first-seen day (cohort),
    counted per (cohort, age-in-days) of later activity.

    First-seen is a user-keyed Min aggregate; it joins BACK to the event
    stream through stages/joins.hash_join (user-keyed co-partitioned
    shuffle — at web scale the user dimension is corpus-sized, so no
    broadcast). Distinct (user, age) pairs reduce via a per-batch
    drop-duplicates combiner before the final count."""
    from ..stages.joins import hash_join
    from ray.data.aggregate import Min

    events = _pq(sf_dir, "events", ["ts", "user_id"])

    first = (events.map_batches(
        lambda b: pa.table({
            "u": b["user_id"],
            "first_ts": pc.cast(pc.floor_temporal(b["ts"], unit="day"),
                                pa.timestamp("us"))}),
        batch_format="pyarrow")
        .groupby("u").aggregate(Min("first_ts", alias_name="cohort")))

    def day_rows(batch: pa.Table) -> pa.Table:
        t = pa.table({"user_id": batch["user_id"],
                      "day": pc.cast(pc.floor_temporal(batch["ts"], unit="day"),
                                     pa.timestamp("us"))})
        return t.group_by(["user_id", "day"]).aggregate([])  # combiner

    activity = events.map_batches(day_rows, batch_format="pyarrow")
    nc = _coarse_events(sf_dir)
    joined = hash_join(activity, first, "user_id", "u", how="inner",
                       n_coarse=nc)

    def age(batch: pa.Table) -> pa.Table:
        day = batch["day"].to_numpy(zero_copy_only=False) \
            .astype("datetime64[us]")
        coh = batch["cohort"].to_numpy(zero_copy_only=False) \
            .astype("datetime64[us]")
        d = ((day - coh) // np.timedelta64(1, "D")).astype(np.int64)
        u = batch["user_id"].to_numpy(zero_copy_only=False)
        t = pa.table({"user_id": batch["user_id"],
                      "cohort": pc.cast(batch["cohort"], pa.timestamp("us")),
                      "age_days": pa.array(d),
                      "ucoarse": pa.array((u % nc).astype(np.int32))})
        # per-batch combiner only — the EXACT distinct happens in the
        # user-partitioned map_groups below (a batch is not a whole
        # partition: dynamic block splitting can slice one user's rows
        # across batches, which would double-count in a batch-level dedup)
        g = t.group_by(["user_id", "cohort", "age_days", "ucoarse"]) \
            .aggregate([])
        return g

    def dedup_count(df: pd.DataFrame) -> pd.DataFrame:
        d = df.drop_duplicates(["user_id", "cohort", "age_days"])
        out = (d.groupby(["cohort", "age_days"], as_index=False)
               .size().rename(columns={"size": "n_partial"}))
        return out

    agg = (joined.map_batches(age, batch_format="pyarrow")
           .groupby("ucoarse")
           .map_groups(dedup_count, batch_format="pandas")
           .groupby(["cohort", "age_days"])
           .aggregate(Sum("n_partial", alias_name="n_users")))

    def finalize(batch: pa.Table) -> pa.Table:
        return pa.table({
            "cohort": pc.cast(batch["cohort"], pa.timestamp("us")),
            "age_days": batch["age_days"], "n_users": batch["n_users"]})

    return agg.map_batches(finalize, batch_format="pyarrow").sort(
        ["cohort", "age_days"])


# ---------------------------------------------------------------------------
# Month-over-month growth: lag over a bounded time aggregate


def monthly_revenue_growth(sf_dir: str):
    """Monthly order revenue with previous-month delta — the lag runs over
    the MONTH aggregate (bounded cardinality at any corpus size), computed
    vectorized in one pass over the tiny sorted table; the heavy work is
    the distributed integer-cent monthly rollup."""
    def monthly(batch: pa.Table) -> pa.Table:
        m = pc.cast(pc.floor_temporal(batch["o_orderdate"], unit="month"),
                    pa.timestamp("us"))
        return pa.table({"month": m, "rev_c": _cents_arr(batch["o_totalprice"])})

    agg = (_pq(sf_dir, "orders", ["o_orderdate", "o_totalprice"])
           .map_batches(monthly, batch_format="pyarrow")
           .groupby("month")
           .aggregate(Count(alias_name="n_orders"),
                      Sum("rev_c", alias_name="rev_c")))
    months = pa.concat_tables(
        [b.select(["month", "n_orders", "rev_c"])
         for b in agg.iter_batches(batch_format="pyarrow")] or
        [pa.table({"month": pa.array([], pa.timestamp("us")),
                   "n_orders": pa.array([], pa.int64()),
                   "rev_c": pa.array([], pa.int64())})])

    df = months.to_pandas().sort_values("month").reset_index(drop=True)
    rev = df["rev_c"].to_numpy()
    prev = np.concatenate([[0], rev[:-1]])
    has_prev = np.arange(len(df)) > 0
    out = pa.table({
        "month": pa.array(df["month"].to_numpy().astype("datetime64[us]"),
                          pa.timestamp("us")),
        "n_orders": pa.array(df["n_orders"].to_numpy(), pa.int64()),
        "revenue": pa.array(rev / 100.0, pa.float64()),
        # delta vs previous month in exact cents, divided once (true arrow
        # NULL for the first month, matching SQL lag)
        "delta": pa.array((rev - prev) / 100.0, pa.float64(),
                          mask=~has_prev)})
    import ray.data as rd
    return rd.from_arrow(out)


# ---------------------------------------------------------------------------
# Anti-join: dimension rows with no qualifying fact row

QUIET_THRESHOLD = 400000.0


@ray.remote(num_cpus=1)
def _sorted_int_keys_task(refs, col: str):
    """Concatenate + sort one int64 key column from Arrow block refs INSIDE
    a Ray task (knn_graph index convention — the driver handles only
    ObjectRefs, never the key bytes)."""
    tabs = ray.get(list(refs))
    arrs = [t[col].to_numpy(zero_copy_only=False) for t in tabs if t.num_rows]
    return np.sort(np.concatenate(arrs)) if arrs else np.array([], np.int64)


def quiet_customers(sf_dir: str, threshold: float = QUIET_THRESHOLD,
                    broadcast_cap_rows: int | None = None):
    """Customers with NO order above ``threshold`` — distributed anti-join.

    The fact side (orders) reduces to its DISTINCT qualifying keys first —
    a shuffle bounded by the DIMENSION cardinality, not the fact count.
    That key set is ≤ |customer|, which grows with scale factor, so it is
    size-routed (stages/dim_broadcast cap): below the cap a Ray task
    concatenates the distinct keys from the aggregate's own block refs
    (driver holds only the ObjectRef) and customer takes a vectorized
    np.isin anti-filter; above the cap the key Dataset meets customer
    through a LEFT stages/joins.hash_join and unmatched rows survive
    (null marker ⇒ anti)."""
    import pyarrow.dataset as pds
    from ..stages.dim_broadcast import should_broadcast
    from ..stages.joins import hash_join

    keys = (_pq(sf_dir, "orders", ["o_custkey"],
                filter=(pds.field("o_totalprice") > threshold))
            .groupby("o_custkey").aggregate(Count(alias_name="_n")))

    cust_path = os.path.join(sf_dir, "customer.parquet")

    if should_broadcast(cust_path, broadcast_cap_rows):
        refs = keys.select_columns(["o_custkey"]).to_arrow_refs()
        ref = _sorted_int_keys_task.remote(refs, "o_custkey")

        def anti(batch: pa.Table) -> pa.Table:
            have = ray.get(ref)
            ck = batch["c_custkey"].to_numpy(zero_copy_only=False)
            mask = np.isin(ck, have, assume_unique=False, invert=True)
            return batch.filter(pa.array(mask))

        filtered = _pq(sf_dir, "customer",
                       ["c_custkey", "c_name", "c_acctbal"]) \
            .map_batches(anti, batch_format="pyarrow")
    else:
        marked = keys.map_batches(
            lambda b: pa.table({
                "o_custkey": b["o_custkey"],
                "_hit": pa.array(np.ones(b.num_rows, np.int8))}),
            batch_format="pyarrow")
        joined = hash_join(
            _pq(sf_dir, "customer", ["c_custkey", "c_name", "c_acctbal"]),
            marked, "c_custkey", "o_custkey", how="left")
        filtered = joined.map_batches(
            lambda b: b.filter(pc.is_null(b["_hit"]))
            .select(["c_custkey", "c_name", "c_acctbal"]),
            batch_format="pyarrow")

    filtered = filtered.sort("c_custkey").materialize()
    if filtered.count():
        return filtered
    # sort() on an all-empty dataset erases its schema (documented erosion
    # trap): hand back one typed empty block instead
    return ray.data.from_arrow(typed_empty({
        "c_custkey": pa.int64(), "c_name": pa.string(),
        "c_acctbal": pa.float64()}))


WHLL_P = 8                        # 256 registers/window → ~6.5% std error
WHLL_M = 1 << WHLL_P
_WHLL_ALPHA = 0.7213 / (1 + 1.079 / WHLL_M)


def _whll_partial(keys: np.ndarray) -> np.ndarray:
    """256-register HLL partial for ONE window's keys (same splitmix64
    mix as the global sketch, narrower index)."""
    regs = np.zeros(WHLL_M, np.int8)
    if len(keys) == 0:
        return regs
    h = keys.astype(np.uint64)
    h = (h + np.uint64(0x9E3779B97F4A7C15))
    h ^= h >> np.uint64(30); h *= np.uint64(0xBF58476D1CE4E5B9)
    h ^= h >> np.uint64(27); h *= np.uint64(0x94D049BB133111EB)
    h ^= h >> np.uint64(31)
    idx = (h >> np.uint64(64 - WHLL_P)).astype(np.int64)
    rest = (h << np.uint64(WHLL_P)) | np.uint64((1 << WHLL_P) - 1)
    lz = np.zeros(len(h), np.int8)
    cur = rest
    for shift in (32, 16, 8, 4, 2, 1):
        mask = cur < (np.uint64(1) << np.uint64(64 - shift))
        lz[mask] += shift
        cur = np.where(mask, cur << np.uint64(shift), cur)
    np.maximum.at(regs, idx, lz + 1)
    return regs


def _whll_estimate(regs: np.ndarray) -> float:
    est = _WHLL_ALPHA * WHLL_M * WHLL_M / np.sum(
        np.power(2.0, -regs.astype(np.float64)))
    zeros = int((regs == 0).sum())
    if est <= 2.5 * WHLL_M and zeros:
        est = WHLL_M * np.log(WHLL_M / zeros)
    return float(est)


def hll_distinct_users_hourly(sf_dir: str):
    """Approximate count(DISTINCT user_id) PER HOUR — the windowed sketch
    path: when per-window cardinalities are huge, the exact pair-dedupe
    shuffle (distinct_users_hourly) carries the true (hour, user)
    cardinality, while this carries exactly 256 bytes per (hour, batch)
    REGARDLESS of how many users the window saw. Per-batch per-hour
    register partials → one hour-keyed groupby with an element-wise max
    merge (HLL merge is lossless, tested). Rows-only; the estimator is
    differentially tested against the exact query (±15% at m=256)."""
    nc = _coarse_events(sf_dir)

    def partials(batch: pa.Table) -> pa.Table:
        hour = pc.cast(pc.floor_temporal(batch["ts"], unit="hour"),
                       pa.timestamp("us")).to_numpy(zero_copy_only=False)
        users = batch["user_id"].to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        order = np.argsort(hour, kind="mergesort")
        hour, users = hour[order], users[order]
        bounds = np.flatnonzero(np.diff(hour.astype(np.int64))) + 1
        starts = np.concatenate(([0], bounds))
        ends = np.concatenate((bounds, [len(hour)]))
        hs, regs = [], []
        for s, e in zip(starts, ends):
            if s == e:
                continue
            hs.append(hour[s])
            regs.append(_whll_partial(users[s:e]).tobytes())
        coarse = (np.array(hs, "datetime64[h]").astype(np.int64)
                  % nc).astype(np.int32)
        return pa.table({
            "hour": pa.array(list(hs), pa.timestamp("us")),
            "regs": pa.array(regs, pa.binary()),
            "coarse": pa.array(coarse)})

    def merge(df: pd.DataFrame) -> pd.DataFrame:
        hours, ests = [], []
        for hr, grp in df.groupby("hour", sort=True):
            m = np.zeros(WHLL_M, np.int8)
            for b in grp["regs"]:
                np.maximum(m, np.frombuffer(b, np.int8), out=m)
            hours.append(hr)
            ests.append(round(_whll_estimate(m)))
        return pd.DataFrame({"hour": hours,
                             "n_users_approx": pd.array(ests, "int64")})

    return (_pq(sf_dir, "events", ["ts", "user_id"])
            .map_batches(partials, batch_format="pyarrow")
            .groupby("coarse").map_groups(merge, batch_format="pandas")
            .sort("hour"))


def event_type_transitions(sf_dir: str):
    """Per-user event-type transition counts (the Markov/funnel matrix):
    for each user's (ts, event_id)-ordered stream, count consecutive
    (prev_type → type) pairs corpus-wide. One user-coarse shuffle; inside
    each partition a single vectorized sort + shift produces every
    transition (the lag-window shape); per-partition pair-count combiner
    → tiny (type × type) groupby. Value-exact lag-window oracle."""
    nc = _coarse_events(sf_dir)

    def add_coarse(batch: pa.Table) -> pa.Table:
        u = batch["user_id"].to_numpy(zero_copy_only=False)
        return batch.append_column(
            "coarse", pa.array((u % nc).astype(np.int32)))

    def transitions(df: pd.DataFrame) -> pd.DataFrame:
        d = df.sort_values(["user_id", "ts", "event_id"], kind="mergesort")
        u = d["user_id"].to_numpy()
        t = d["event_type"].to_numpy(object)
        same_user = u[1:] == u[:-1]
        prev = t[:-1][same_user]
        cur = t[1:][same_user]
        out = pd.DataFrame({"prev_type": prev, "event_type": cur})
        return out.groupby(["prev_type", "event_type"], as_index=False) \
            .size().rename(columns={"size": "n"})

    agg = (_pq(sf_dir, "events", ["event_id", "ts", "user_id",
                                  "event_type"])
           .map_batches(add_coarse, batch_format="pyarrow")
           .groupby("coarse").map_groups(transitions,
                                         batch_format="pandas")
           .groupby(["prev_type", "event_type"]).sum("n"))

    def finish(batch: pa.Table) -> pa.Table:
        return pa.table({"prev_type": batch["prev_type"],
                         "event_type": batch["event_type"],
                         "n": pc.cast(batch["sum(n)"], pa.int64())})

    return agg.map_batches(finish, batch_format="pyarrow") \
              .sort(["prev_type", "event_type"])


def user_stickiness_daily(sf_dir: str):
    """DAU / MAU stickiness per day — the engagement ratio every product
    dashboard tracks. One streaming pass builds (day, user) and
    (month, user) distinct pairs via the in-batch dedupe combiner
    (exchange bounded by true pair cardinality, not event count); two
    small groupbys count them; the tiny month table broadcasts back as a
    dict into a vectorized day-level projection. stickiness = float
    division of exact int counts (bit-matches SQL)."""
    nc = _coarse_events(sf_dir)

    def pairs(batch: pa.Table) -> pa.Table:
        day = pc.floor_temporal(batch["ts"], unit="day")
        month = pc.floor_temporal(batch["ts"], unit="month")
        t = pa.table({"day": day.cast(pa.timestamp("us")),
                      "month": month.cast(pa.timestamp("us")),
                      "user_id": batch["user_id"]})
        t = t.group_by(["day", "month", "user_id"]).aggregate([])
        d = t["day"].to_numpy(zero_copy_only=False) \
            .astype("datetime64[D]").astype(np.int64)
        return t.append_column("coarse",
                               pa.array((d % nc).astype(np.int32)))

    deduped = (_pq(sf_dir, "events", ["ts", "user_id"])
               .map_batches(pairs, batch_format="pyarrow")
               .groupby("coarse")
               .map_groups(lambda df: df.drop_duplicates(
                   ["day", "month", "user_id"]),
                   batch_format="pandas")
               .materialize())

    def dau_part(df: pd.DataFrame) -> pd.DataFrame:
        g = df.drop_duplicates(["day", "user_id"]) \
            .groupby(["day", "month"], as_index=False).size()
        return g.rename(columns={"size": "dau"})

    dau = (deduped.groupby("coarse")
           .map_groups(dau_part, batch_format="pandas").to_pandas())

    # month-level distinct users: re-key the pair table by MONTH (a day's
    # users all share its coarse partition, but a month spans several) —
    # in-batch distinct first, exact dedupe + count inside the month
    # partition; only (month, mau) rows reach the driver
    def month_pairs(batch: pa.Table) -> pa.Table:
        t = pa.table({"month": batch["month"],
                      "user_id": batch["user_id"]})
        t = t.group_by(["month", "user_id"]).aggregate([])
        m = t["month"].to_numpy(zero_copy_only=False) \
            .astype("datetime64[M]").astype(np.int64)
        return t.append_column("mcoarse",
                               pa.array((m % nc).astype(np.int32)))

    def mau_part(df: pd.DataFrame) -> pd.DataFrame:
        g = df.drop_duplicates(["month", "user_id"]) \
            .groupby("month", as_index=False).size()
        return g.rename(columns={"size": "mau"})

    mau_df = (deduped.map_batches(month_pairs, batch_format="pyarrow")
              .groupby("mcoarse")
              .map_groups(mau_part, batch_format="pandas").to_pandas())
    mau = dict(zip(mau_df["month"], mau_df["mau"]))

    out = dau.sort_values("day").reset_index(drop=True)
    out["mau"] = out["month"].map(mau).astype("int64")
    out["dau"] = out["dau"].astype("int64")
    out["stickiness"] = out["dau"].to_numpy(np.float64) \
        / out["mau"].to_numpy(np.float64)
    return pa.Table.from_pandas(
        out[["day", "dau", "mau", "stickiness"]], preserve_index=False)


def nation_revenue_share(sf_dir: str, broadcast_cap_rows: int | None = None):
    """Ratio-to-parent rollup: per-nation revenue plus its share of the
    region total (the two-level percent-of-parent window shape). The
    supplier→nation→region chain is size-routed (see _supplier_chain:
    broadcast probe below the cap, hash_join above); the bounded
    (nation, region) aggregate lands on the driver where region totals
    divide the integer-cent nation sums (float division of exact ints —
    bit-matches SQL's ratio over sum() OVER (PARTITION BY region))."""
    from ..stages.dim_broadcast import shuffle_probe_join

    ref, dim_ds = _supplier_chain(sf_dir, ["s_suppkey", "n_name", "r_name"],
                                  broadcast_cap_rows)

    if ref is not None:
        def tag(batch: pa.Table) -> pa.Table:
            rev_c = _rev_cents(batch)
            probe = pa.table({"s_suppkey": batch["l_suppkey"], "rev_c": rev_c})
            return (probe.join(ray.get(ref), keys=["s_suppkey"],
                               join_type="inner")
                    .select(["n_name", "r_name", "rev_c"]))

        tagged = (_pq(sf_dir, "lineitem",
                      ["l_suppkey", "l_extendedprice", "l_discount"])
                  .map_batches(tag, batch_format="pyarrow"))
    else:
        probe = (_pq(sf_dir, "lineitem",
                     ["l_suppkey", "l_extendedprice", "l_discount"])
                 .map_batches(
                     lambda b: pa.table({"s_suppkey": b["l_suppkey"],
                                         "rev_c": _rev_cents(b)}),
                     batch_format="pyarrow"))
        tagged = shuffle_probe_join(probe, dim_ds, "s_suppkey",
                                    "s_suppkey",
                                    ["n_name", "r_name", "rev_c"])

    agg = (tagged.groupby(["n_name", "r_name"])
           .aggregate(Sum("rev_c", alias_name="rev_c"))
           .to_pandas())          # bounded: one row per nation

    agg = agg.sort_values(["r_name", "n_name"]).reset_index(drop=True)
    out = pd.DataFrame({
        "r_name": agg["r_name"], "n_name": agg["n_name"],
        "revenue": agg["rev_c"].to_numpy(np.float64) / 10000.0,
        "region_share": agg["rev_c"].to_numpy(np.float64)
                        / agg.groupby("r_name")["rev_c"]
                        .transform("sum").to_numpy(np.float64)})
    return pa.Table.from_pandas(out, preserve_index=False)


def monthly_cumulative_revenue(sf_dir: str):
    """Running-total window shape: per-month order revenue plus the
    cumulative revenue to date (sum() OVER (ORDER BY month)). Facts
    aggregate to the bounded month table; the cumsum runs over exact
    integer cents on the driver and divides once — bit-matching the SQL
    window over the same BIGINT sums."""

    def month_cents(batch: pa.Table) -> pa.Table:
        m = pc.floor_temporal(batch["o_orderdate"], unit="month")
        return pa.table({
            "month": m.cast(pa.timestamp("us")),
            "rev_c": _cents_arr(batch["o_totalprice"])})

    agg = (_pq(sf_dir, "orders", ["o_orderdate", "o_totalprice"])
           .map_batches(month_cents, batch_format="pyarrow")
           .groupby("month")
           .aggregate(Sum("rev_c", alias_name="rev_c"))
           .to_pandas())          # bounded: one row per month
    df = agg.sort_values("month").reset_index(drop=True)
    rev = df["rev_c"].to_numpy(np.int64)
    cum = np.cumsum(rev)
    return pa.table({
        "month": pa.array(df["month"].to_numpy().astype("datetime64[us]"),
                          pa.timestamp("us")),
        "revenue": pa.array(rev.astype(np.float64) / 100.0, pa.float64()),
        "cum_revenue": pa.array(cum.astype(np.float64) / 100.0,
                                pa.float64())})
