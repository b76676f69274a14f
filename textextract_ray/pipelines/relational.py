"""Relational operator library over the driver test tables.

Each function here re-expresses one operator family from the reference
(SURVEY.md §2 inventory — grouped aggregates G1-G6, sorts/limits O1-O3,
broadcast joins J1-J2, window bucketing M11, validators M6, dedup D2)
as an idiomatic Ray Data pipeline, with a matching ANSI-SQL oracle in
``__ray_entry__.oracle_sql``. Column names match the SQL exactly.

Scale discipline: aggregates pre-combine inside map_batches before any
groupby (shuffle carries partials, not rows); small sides broadcast via
ray.put; sorts happen after aggregation (small data) or as top-k.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

import ray
import ray.data as rd
from ray.data.aggregate import Count, Max, Mean, Min, Sum

from ..functions.scalar import date_bucket
from ..sources import read_table, scan_table
from ..stages.fold import fold_partials


def _round_floats(df: pd.DataFrame, ndigits: int = 4) -> pd.DataFrame:
    """Symmetric float rounding applied to BOTH the Ray result and the
    DuckDB oracle (round() in the SQL): float aggregates differ from
    the oracle in the last ulp because addition order differs; rounding
    both sides to the same grid makes the driver's exact value-hash
    comparison robust to that."""
    for c in df.columns:
        if pd.api.types.is_float_dtype(df[c]):
            df[c] = df[c].round(ndigits)
    return df


# --- G1/G5: grouped aggregate with partial pre-aggregation (TPC-H Q1 shape) --

def q1_pricing_summary(sf_dir: str):
    """Grouped sums/means over lineitem (the usage_stats daily-upsert
    shape G1 at analytic scale). Partial per-block combine in the scan
    task → tiny final merge: the fold moves O(blocks × groups) rows."""
    # one Arrow hash aggregate per block; the non-null counts n_* carry
    # SQL AVG's denominator (a NULL measure counts in count(*), not in
    # its avg) and let an all-NULL group's sum stay NULL
    aggs = [
        ("l_quantity", "sum", "sum_qty"),
        ("l_extendedprice", "sum", "sum_base_price"),
        ("disc_price", "sum", "sum_disc_price"),
        ("l_discount", "sum", "sum_disc"),
        ("l_quantity", "count", "n_qty"),
        ("l_extendedprice", "count", "n_price"),
        ("l_discount", "count", "n_disc"),
    ]
    # explicit schema: a block whose keys are ALL null would otherwise
    # carry a null-typed column and break concat/union
    schema = pa.schema(
        [("l_returnflag", pa.string()), ("l_linestatus", pa.string())]
        + [(name, pa.float64() if fn == "sum" else pa.int64()) for _, fn, name in aggs]
        + [("count_order", pa.int64())]
    )

    def partial(batch: pa.Table) -> pa.Table:
        disc_price = pc.multiply(
            batch["l_extendedprice"], pc.subtract(pa.scalar(1.0), batch["l_discount"])
        )
        # Arrow groups NULL keys together (SQL GROUP BY semantics);
        # single-threaded so the float sums have one order
        g = (
            batch.append_column("disc_price", disc_price)
            .group_by(["l_returnflag", "l_linestatus"], use_threads=False)
            .aggregate([(c, fn) for c, fn, _ in aggs] + [([], "count_all")])
        )
        cols = [g["l_returnflag"], g["l_linestatus"]]
        cols += [g[f"{c}_{fn}"] for c, fn, _ in aggs] + [g["count_all"]]
        return pa.Table.from_arrays(cols, names=schema.names).cast(schema)

    partials = scan_table(
        sf_dir, "lineitem", partial,
        columns=["l_returnflag", "l_linestatus", "l_quantity", "l_extendedprice", "l_discount"],
    )
    sums = schema.names[2:]
    folded = _fold_partials(partials)
    if folded is not None:
        # partials are O(blocks × ~6 groups) — the merge is a driver
        # pandas groupby, no all-to-all at all. min_count=1 keeps
        # all-null sums null (SQL/Ray Sum semantics), and the empty
        # fold (columnless frame) gets a typed empty result
        if len(folded):
            # dropna=False: NULL group keys survive, as in the Ray
            # groupby arm and SQL GROUP BY
            out = folded.groupby(
                ["l_returnflag", "l_linestatus"], as_index=False, dropna=False
            )[sums].sum(min_count=1)
        else:
            out = schema.empty_table().to_pandas()
    else:
        # Ray's sort-based groupby cannot shuffle a null key, so the
        # past-budget arm masks key null-ness into companion int keys
        # and restores after (same pattern as token_stats) — both arms
        # keep null groups end to end
        def mask_null(batch: pa.Table) -> pa.Table:
            return pa.table(
                {
                    "rf": pc.fill_null(batch["l_returnflag"], ""),
                    "rf_n": pc.is_null(batch["l_returnflag"]).cast(pa.int8()),
                    "ls": pc.fill_null(batch["l_linestatus"], ""),
                    "ls_n": pc.is_null(batch["l_linestatus"]).cast(pa.int8()),
                    **{c: batch[c] for c in sums},
                }
            )

        out = (
            rd.from_arrow_refs(partials)
            .map_batches(mask_null, batch_format="pyarrow")
            .groupby(["rf", "rf_n", "ls", "ls_n"])
            .aggregate(*(Sum(c, alias_name=c) for c in sums))
            .to_pandas()
        )
        out["l_returnflag"] = out["rf"].where(out["rf_n"] == 0, None)
        out["l_linestatus"] = out["ls"].where(out["ls_n"] == 0, None)
    # one column order and one null-key spelling (None, not NaN) for
    # both merge arms
    out = out[schema.names].copy()
    for c in ("l_returnflag", "l_linestatus"):
        if len(out) and out[c].isna().any():
            col = out[c].astype(object)
            col[col.isna()] = None
            out[c] = col
    # SQL AVG: over the non-null values, NULL when there are none
    out["avg_qty"] = out["sum_qty"] / out["n_qty"]
    out["avg_price"] = out["sum_base_price"] / out["n_price"]
    out["avg_disc"] = out["sum_disc"] / out["n_disc"]
    out = out.drop(columns=["sum_disc", "n_qty", "n_price", "n_disc"]).sort_values(
        ["l_returnflag", "l_linestatus"]
    ).reset_index(drop=True)
    return _round_floats(out)


# --- J1 + top-k: broadcast join + grouped sum + sort/limit (Q3 shape) --------

# broadcast budget for BOTH q3 join levels: above this many keys a
# side is no longer "small", nothing is pulled to the driver, and the
# bucketed co-partition join takes over (at 100 TB the budget is what
# fits comfortably in every worker's plasma share)
Q3_BROADCAST_BUDGET_KEYS = 2_000_000

# driver-fold budget for pre-aggregated partial blocks (same idiom as
# stages/dedup._bucketed_group_apply): partials are aggregate-sized
# keys+sums rows, so the budget is ~100s of MB of driver heap at most
AGG_FOLD_BUDGET_ROWS = 5_000_000


def _fold_partials(partials):
    """Budgeted driver fold of partial-aggregate refs
    (`stages.fold.fold_partials`): pandas frame under the budget, None
    past it (callers fall back to the distributed groupby over the
    SAME partials; sums of partial sums). The budget is
    ``AGG_FOLD_BUDGET_ROWS`` as it reads at call time, so a test can
    set it to 0 to force every fold query onto its distributed arm.

    Null group keys survive both arms (SQL GROUP BY): the fold groups
    with ``dropna=False``; Ray's sort-based groupby cannot sort a null
    string key, so q1 and ``token_stats`` mask and restore theirs,
    while usage_rollup's int64 ``user_id`` groups NULL as it is. q3
    groups only after its inner joins, which drop NULL keys in every
    arm. tests/test_pipeline_e2e.py pins usage_rollup and q3 against
    DuckDB in both arms."""
    return fold_partials(partials, budget_rows=AGG_FOLD_BUDGET_ROWS)


def _broadcast_keys(refs: list, col: str):
    """The non-null ``col`` keys behind ``refs`` as one sorted int64
    array, or None once they pass Q3_BROADCAST_BUDGET_KEYS (the fold
    stops fetching there, so past the budget the driver holds at most
    one table's keys)."""
    df = fold_partials(refs, budget_rows=Q3_BROADCAST_BUDGET_KEYS)
    if df is None:
        return None
    keys = df[col].dropna().to_numpy(np.int64) if len(df) else np.empty(0, np.int64)
    return pa.array(np.sort(keys), pa.int64())


def _segment_customer_keys(sf_dir: str, segment: str) -> list:
    """Refs of the segment's customer keys, one scan task per file."""

    def pick(batch: pa.Table) -> pa.Table:
        return batch.filter(pc.equal(batch["c_mktsegment"], segment)).select(
            ["c_custkey"]
        )

    return scan_table(sf_dir, "customer", pick, columns=["c_custkey", "c_mktsegment"])


def q3_top_orders(sf_dir: str, *, segment: str = "BUILDING", k: int = 10):
    """customer ⋈ orders ⋈ lineitem, revenue per order, top-k.

    Three chained scans, one plain task per table file. First join
    level is a broadcast semi-join (reference J1: the quota-path
    lookup is a broadcast dimension probe): the segment's customer
    keys are dimension-sized, folded once, shipped via ray.put and
    probed with vectorized is_in inside the orders scan — but only
    while they fit Q3_BROADCAST_BUDGET_KEYS (customer is
    dimension-sized by assumption, the budget makes it a checked
    fact). The SECOND level's key set (surviving orders) is fact-scale
    × selectivity: the orders scan's key tables stay in the object
    store and are pulled + broadcast to the lineitem scan only while
    they fit the same budget. Past either budget the query falls back
    to the bucketed co-partition join (q3_top_orders_hashjoin), which
    takes over the key refs already scanned and never broadcasts keys.
    """
    ckey_refs = _segment_customer_keys(sf_dir, segment)
    ckeys = _broadcast_keys(ckey_refs, "c_custkey")
    if ckeys is None:
        # the customer side itself is past broadcast budget: fully
        # bucketed plan over the customer keys already scanned
        return q3_top_orders_hashjoin(sf_dir, segment=segment, k=k, _ckey_refs=ckey_refs)

    def semi_orders(batch: pa.Table, ckeys: pa.Array) -> pa.Table:
        # is_in gives NULL for a NULL o_custkey and filter drops it
        # (the inner join's semantics)
        return batch.filter(pc.is_in(batch["o_custkey"], value_set=ckeys)).select(
            ["o_orderkey"]
        )

    okey_refs = scan_table(
        sf_dir, "orders", semi_orders, columns=["o_orderkey", "o_custkey"],
        fn_args=(ray.put(ckeys),),
    )
    order_keys = _broadcast_keys(okey_refs, "o_orderkey")
    if order_keys is None:
        # past-budget fallback REUSES the work already done: the
        # surviving-order key tables become the hashjoin's orders side
        # directly (no second customer or orders scan)
        return q3_top_orders_hashjoin(sf_dir, segment=segment, k=k, _okey_refs=okey_refs)

    def rev(batch: pa.Table, okeys: pa.Array) -> pa.Table:
        # per-block PARTIAL revenue sums (combiner): each block
        # collapses to its distinct surviving orders before anything
        # leaves the task, so the merge sees aggregate-sized rows. A
        # NULL l_orderkey is dropped here, as by the inner join
        batch = batch.filter(pc.is_in(batch["l_orderkey"], value_set=okeys))
        r = pc.multiply(
            batch["l_extendedprice"], pc.subtract(pa.scalar(1.0), batch["l_discount"])
        )
        t = pa.table({"l_orderkey": batch["l_orderkey"], "rev": r})
        g = t.group_by("l_orderkey").aggregate([("rev", "sum")])
        return pa.table({"l_orderkey": g["l_orderkey"], "rev": g["rev_sum"]})

    li_r = scan_table(
        sf_dir, "lineitem", rev, columns=["l_orderkey", "l_extendedprice", "l_discount"],
        fn_args=(ray.put(order_keys),),
    )
    folded = _fold_partials(li_r)
    if folded is None:
        # past-budget regime: distributed merge of the same partials
        agg = rd.from_arrow_refs(li_r).groupby("l_orderkey").aggregate(
            Sum("rev", alias_name="revenue")
        )
        out = agg.to_pandas()
    else:
        out = (
            folded.groupby("l_orderkey", as_index=False, dropna=False)["rev"]
            .sum(min_count=1)
            .rename(columns={"rev": "revenue"})
            if len(folded)
            else pd.DataFrame({"l_orderkey": pd.Series(dtype="int64"),
                               "revenue": pd.Series(dtype="float64")})
        )
    out = out.sort_values(["revenue", "l_orderkey"], ascending=[False, True]).head(k)
    return _round_floats(out.rename(columns={"l_orderkey": "o_orderkey"}).reset_index(drop=True))


def _bucket_tag(key, val, is_key: bool, num_buckets: int) -> pa.Table:
    """One side of a bucketed co-group: (key, val, is_key, _bucket),
    ``is_key`` marking the side whose keys whitelist the other's."""
    from ..functions.scalar import stable_bucket

    return pa.table(
        {
            "key": key,
            "val": val,
            "is_key": pa.array(np.full(len(key), is_key)),
            "_bucket": pa.array(stable_bucket(key, num_buckets), pa.int32()),
        }
    )


def _semi_join_order_keys_bucketed(ckey_refs, order_refs, *, num_buckets: int = 64):
    """First-level customer⋈orders semi-join as a bucketed co-group
    (the past-budget path): both sides tagged with the same stable
    bucket of custkey, one shuffle co-locates each key, in-bucket
    pandas semi-join emits surviving o_orderkey rows. No key set ever
    reaches the driver."""

    def cust_side(batch: pa.Table) -> pa.Table:
        return _bucket_tag(
            batch["c_custkey"], pa.nulls(len(batch), pa.int64()), True, num_buckets
        )

    def ord_side(batch: pa.Table) -> pa.Table:
        return _bucket_tag(batch["o_custkey"], batch["o_orderkey"], False, num_buckets)

    tagged = (
        rd.from_arrow_refs(order_refs)
        .map_batches(ord_side, batch_format="pyarrow")
        .union(rd.from_arrow_refs(ckey_refs).map_batches(cust_side, batch_format="pyarrow"))
    )

    def semi(df: pd.DataFrame) -> pd.DataFrame:
        # a NULL key on either side joins nothing (SQL inner join)
        keys = df.loc[df["is_key"], "key"].dropna().unique()
        sub = df[~df["is_key"] & df["key"].isin(keys) & df["val"].notna()]
        return pd.DataFrame({"o_orderkey": sub["val"].astype("int64")})

    return tagged.groupby("_bucket").map_groups(semi, batch_format="pandas")


def q3_top_orders_hashjoin(
    sf_dir: str,
    *,
    segment: str = "BUILDING",
    k: int = 10,
    num_buckets: int = 64,
    _okey_refs=None,
    _ckey_refs=None,
):
    """The same query as a bucketed co-partition join — THE scale path
    for big-big: both sides are tagged with the same stable hash bucket
    of the join key, one union + groupby(bucket) shuffle co-locates all
    rows of a key, and each bucket joins + aggregates + takes its local
    top-k WITHIN the group (every key lives wholly in one bucket, so
    per-bucket aggregation is exact and per-bucket top-k is globally
    safe). The driver merges num_buckets × k candidate rows — nothing
    fact-scale ever leaves the workers, no key set is broadcast. One
    all-to-all over (key, rev) pairs; Ray's Dataset.join was measured
    ~6x slower on the same shape (hash-shuffle operator dispatch
    dominates at this scale). Both join levels are bucketed co-groups;
    ``_okey_refs`` / ``_ckey_refs`` are the key tables q3_top_orders
    scanned before a budget sent it here."""

    def keys_side(batch: pa.Table) -> pa.Table:
        return _bucket_tag(
            batch["o_orderkey"], pa.nulls(len(batch), pa.float64()), True, num_buckets
        )

    okeys = (
        rd.from_arrow_refs(_okey_refs)
        if _okey_refs is not None  # already semi-joined by q3_top_orders
        else _semi_join_order_keys_bucketed(
            _ckey_refs or _segment_customer_keys(sf_dir, segment),
            scan_table(sf_dir, "orders", columns=["o_orderkey", "o_custkey"]),
            num_buckets=num_buckets,
        )
    )
    orders_tagged = okeys.map_batches(keys_side, batch_format="pyarrow")

    def lineitem_side(batch: pa.Table) -> pa.Table:
        r = pc.multiply(
            batch["l_extendedprice"], pc.subtract(pa.scalar(1.0), batch["l_discount"])
        )
        return _bucket_tag(batch["l_orderkey"], r.cast(pa.float64()), False, num_buckets)

    li = scan_table(
        sf_dir, "lineitem", lineitem_side,
        columns=["l_orderkey", "l_extendedprice", "l_discount"],
    )
    tagged = rd.from_arrow_refs(li).union(orders_tagged)

    def join_bucket(df: pd.DataFrame) -> pd.DataFrame:
        # the orders side is the key whitelist; a NULL key joins
        # nothing, a NULL revenue stays out of the sum (SQL)
        keys = df.loc[df["is_key"], "key"].dropna().unique()
        left = df[~df["is_key"] & df["key"].isin(keys)].astype({"key": "int64"})
        agg = left.groupby("key", as_index=False)["val"].sum(min_count=1)
        agg = agg.sort_values(["val", "key"], ascending=[False, True]).head(k)
        return agg.rename(columns={"key": "l_orderkey", "val": "revenue"})

    cand = (
        tagged.groupby("_bucket")
        .map_groups(join_bucket, batch_format="pandas")
        .to_pandas()
    )
    out = cand.sort_values(["revenue", "l_orderkey"], ascending=[False, True]).head(k)
    return _round_floats(out.rename(columns={"l_orderkey": "o_orderkey"}).reset_index(drop=True))


def usage_rollup(sf_dir: str):
    """Daily AND monthly usage counters from ONE events scan (scope
    column 'day'/'month') — G1's usage_stats upsert and G2's monthly
    count consolidated into a single gate query (driver 50-cap).

    Hierarchical rollup: events shuffle ONCE into the (user, day)
    aggregate; the month level is a second groupby over the day-agg
    DATASET (sums of sums — count/value/error are all reaggregable),
    whose input is |users|×|days| rows, not the corpus. The naive
    alternative — exploding every event into one row per granularity —
    doubles the corpus through the first shuffle for no information.
    Float note: month total_value is a sum of day sums — association
    order differs from the oracle's flat sum by ≤1e-12 relative,
    absorbed by the symmetric round(4) (same documented trade as
    perplexity_buckets)."""

    def day_partials(batch: pa.Table) -> pa.Table:
        # per-block PARTIAL (user, day) aggregates — the combiner: each
        # block collapses to its distinct user-days before the merge
        t = pa.table(
            {
                "user_id": batch["user_id"],
                "bucket": date_bucket(batch["ts"]),
                # explicit ones column: requests_count is a ROW count
                # (Count() semantics), not a non-null value count
                "one": pa.array(np.ones(len(batch), dtype=np.int64)),
                "value": batch["value"],
                "is_error": pc.equal(batch["event_type"], "error").cast(pa.int64()),
            }
        )
        g = t.group_by(["user_id", "bucket"]).aggregate(
            [("one", "sum"), ("value", "sum"), ("is_error", "sum")]
        )
        return pa.table(
            {
                "user_id": g["user_id"],
                "bucket": g["bucket"],
                "requests_count": g["one_sum"],
                "total_value": g["value_sum"],
                "error_count": g["is_error_sum"],
            }
        )

    partials = scan_table(
        sf_dir, "events", day_partials, columns=["user_id", "ts", "value", "event_type"]
    )
    cols = ["user_id", "bucket", "requests_count", "total_value", "error_count"]
    sums = ["requests_count", "total_value", "error_count"]
    folded = _fold_partials(partials)
    if folded is not None:
        # aggregate-sized fold: both rollup levels are driver pandas
        # (the month level reaggregates the |users|×|days| day frame)
        if len(folded):
            # dropna=False: a NULL user_id or bucket (NULL ts) keeps
            # its group, as in SQL GROUP BY and the Ray groupby arm
            d = folded.groupby(
                ["user_id", "bucket"], as_index=False, dropna=False
            )[sums].sum(min_count=1)
        else:
            d = pd.DataFrame(
                {
                    "user_id": pd.Series(dtype="int64"),
                    "bucket": pd.Series(dtype="object"),
                    "requests_count": pd.Series(dtype="int64"),
                    "total_value": pd.Series(dtype="float64"),
                    "error_count": pd.Series(dtype="int64"),
                }
            )
        m = (
            d.assign(bucket=d["bucket"].str.slice(0, 7))
            .groupby(["user_id", "bucket"], as_index=False, dropna=False)[sums]
            .sum(min_count=1)
        )
    else:
        # past-budget regime: hierarchical distributed merge of the
        # same partials — events shuffle ONCE into the (user, day)
        # aggregate; the month level is a second groupby over the
        # day-agg DATASET, whose input is |users|×|days| rows
        day = rd.from_arrow_refs(partials).groupby(["user_id", "bucket"]).aggregate(
            Sum("requests_count", alias_name="requests_count"),
            Sum("total_value", alias_name="total_value"),
            Sum("error_count", alias_name="error_count"),
        ).materialize()  # day-agg-sized, reused by both levels

        def to_month(batch: pa.Table) -> pa.Table:
            return batch.set_column(
                batch.schema.get_field_index("bucket"),
                "bucket",
                pc.utf8_slice_codeunits(batch["bucket"], 0, 7),  # 'YYYY-MM-DD'→'YYYY-MM'
            )

        month = (
            day.map_batches(to_month, batch_format="pyarrow", zero_copy_batch=True)
            .groupby(["user_id", "bucket"])
            .aggregate(
                Sum("requests_count", alias_name="requests_count"),
                Sum("total_value", alias_name="total_value"),
                Sum("error_count", alias_name="error_count"),
            )
        )
        d = day.to_pandas()[cols]
        m = month.to_pandas()[cols]
    out = pd.concat(
        [d[cols].assign(scope="day"), m[cols].assign(scope="month")],
        ignore_index=True,
    )[["scope", "user_id", "bucket", "requests_count", "total_value", "error_count"]]
    # one NULL-bucket spelling (None, not the fold's NaN) for both arms
    out["bucket"] = out["bucket"].astype(object).where(out["bucket"].notna(), None)
    return _round_floats(
        out.sort_values(["scope", "user_id", "bucket"]).reset_index(drop=True)
    )


# --- plan dimension + bucketed co-group join machinery -----------------------

# The reference resolves each user's quota through user ⋈ subscription
# ⋈ plan (backend/database/models.py:614-637, used by can_make_request
# at models.py:247-283; plan rows create_tables.sql:124-128). Here the
# subscription holder is the customer table (events.user_id ⊆
# c_custkey) and the plan table is this 5-row dimension keyed by
# market segment: (max_requests, credits, device_limit) per plan.
PLAN_DIM = {
    "AUTOMOBILE": (20, 3, 1),
    "BUILDING": (40, 5, 2),
    "FURNITURE": (60, 8, 3),
    "HOUSEHOLD": (30, 4, 2),
    "MACHINERY": (80, 10, 4),
}

# SQL VALUES literal for the same dimension — every quota oracle joins
# against this so both sides read one definition.
PLAN_DIM_SQL = (
    "(VALUES "
    + ", ".join(f"('{seg}', {mr}, {cr}, {dl})" for seg, (mr, cr, dl) in sorted(PLAN_DIM.items()))
    + ") AS plan(mktsegment, max_requests, credits, device_limit)"
)


def _user_plan_ds(sf_dir: str, plan_cols: list[str]):
    """Per-user plan attributes as a Dataset (user_id + plan_cols):
    customer ⋈ plan with the 5-row plan dim applied vectorized per
    batch (the dim is a constant — the degenerate broadcast). The
    result stays DISTRIBUTED: it is the dimension side of the bucketed
    co-group join below, never a driver pull (the customer table is
    dimension-sized by assumption only — at 10^8 users it must shuffle,
    not broadcast; see VERDICT r2 finding 6)."""
    cust = read_table(sf_dir, "customer", columns=["c_custkey", "c_mktsegment"])
    idx = {"max_requests": 0, "credits": 1, "device_limit": 2}

    def to_plan(batch: pd.DataFrame) -> pd.DataFrame:
        out = pd.DataFrame({"user_id": batch["c_custkey"].astype("int64")})
        for c in plan_cols:
            out[c] = (
                batch["c_mktsegment"].map({s: v[idx[c]] for s, v in PLAN_DIM.items()})
                .astype("int64")
            )
        return out

    return cust.map_batches(to_plan, batch_format="pandas")


def _bucketed_apply(ds, key_col: str, bucket_fn, *, num_buckets: int = 64):
    """Per-key logic WITHOUT per-key Ray dispatch: one hash-bucket
    shuffle co-locates all rows of a key (O(num_buckets) groups), then
    ``bucket_fn`` runs once per bucket over a pandas frame holding ALL
    its keys — the per-key work is a vectorized pandas groupby inside.
    Replaces groupby(key).map_groups, whose ~2 ms/group dispatch is
    days of pure overhead at 10^8 keys (VERDICT r2 finding 4)."""
    from ..functions.scalar import stable_bucket

    def tag(batch: pa.Table) -> pa.Table:
        return batch.append_column(
            "_bucket", pa.array(stable_bucket(batch[key_col], num_buckets), pa.int32())
        )

    def apply(df: pd.DataFrame) -> pd.DataFrame:
        return bucket_fn(df.drop(columns=["_bucket"]))

    return (
        ds.map_batches(tag, batch_format="pyarrow")
        .groupby("_bucket")
        .map_groups(apply, batch_format="pandas")
    )


def _cogroup_join_apply(
    fact,
    dim,
    key_col: str,
    fact_cols: dict,
    dim_cols: dict,
    bucket_fn,
    *,
    num_buckets: int = 64,
):
    """Bucketed co-partition join + per-bucket apply — the scale path
    for fact ⋈ per-key dimension when the dimension is NOT small enough
    to broadcast (per-user plan rows at 10^8 users). Both sides are
    tagged with the same stable hash bucket of the key, one union +
    groupby(bucket) shuffle co-locates every key's fact and dim rows,
    and each bucket inner-merges the two sides in pandas before calling
    ``bucket_fn`` on the joined frame. ``fact_cols`` / ``dim_cols`` map
    each side's non-key columns to their Arrow types (needed to
    null-pad the union schema).

    Nothing fact-scale or user-scale ever reaches the driver; dispatch
    is O(num_buckets)."""
    from ..functions.scalar import stable_bucket

    all_cols = {**fact_cols, **dim_cols}

    def tag(side: int):
        def _f(batch: pa.Table) -> pa.Table:
            n = len(batch)
            present = set(batch.column_names)
            data = {key_col: batch[key_col]}
            for c, t in all_cols.items():
                data[c] = batch[c] if c in present else pa.nulls(n, t)
            data["_side"] = pa.array(np.full(n, side, dtype=np.int8))
            data["_bucket"] = pa.array(
                stable_bucket(batch[key_col], num_buckets), pa.int32()
            )
            return pa.table(data)

        return _f

    tagged = fact.map_batches(tag(0), batch_format="pyarrow").union(
        dim.map_batches(tag(1), batch_format="pyarrow")
    )

    def apply(df: pd.DataFrame) -> pd.DataFrame:
        f = df[df["_side"] == 0][[key_col, *fact_cols]]
        d = df[df["_side"] == 1][[key_col, *dim_cols]]
        j = f.merge(d, on=key_col, how="inner")
        return bucket_fn(j)

    return tagged.groupby("_bucket").map_groups(apply, batch_format="pandas")


# --- G4/G6: per-plan quota predicate + remaining quota -----------------------

def remaining_quota(sf_dir: str):
    """Per-user remaining quota + can_make_request flag against the
    user's OWN plan quota (reference G4 models.py:247-308 resolving
    user ⋈ subscription ⋈ plan, models.py:614-637; G6
    api_routes.py:130): events are counted per user (partial-agg
    groupby), then the usage counters co-group-join the per-user plan
    dimension on a hash bucket of user_id — no driver pull, no
    broadcast of a user-scale side."""
    usage = (
        read_table(sf_dir, "events", columns=["user_id"])
        .groupby("user_id")
        .aggregate(Count(alias_name="used_requests"))
    )
    plans = _user_plan_ds(sf_dir, ["max_requests"])

    def quota(j: pd.DataFrame) -> pd.DataFrame:
        used = j["used_requests"].astype("int64")
        mr = j["max_requests"].astype("int64")
        return pd.DataFrame(
            {
                "user_id": j["user_id"].astype("int64"),
                "used_requests": used,
                "max_requests": mr,
                "remaining_requests": np.maximum(0, mr - used).astype("int64"),
                "can_make_request": used < mr,
            }
        )

    out = _cogroup_join_apply(
        usage,
        plans,
        "user_id",
        {"used_requests": pa.int64()},
        {"max_requests": pa.int64()},
        quota,
    )
    return out.to_pandas().sort_values("user_id").reset_index(drop=True)


# --- G4: credit-consume admission replay (per-plan quotas) -------------------

def credit_admission(sf_dir: str, *, max_requests: int | None = None, credits: int | None = None):
    """Quota admission with the credit-consume fallback (reference G4
    can_make_request → decrement_credit_requests,
    backend/database/models.py:247-308) against PER-PLAN quotas: each
    user's max_requests/credits come from the plan dimension
    (models.py:614-637), co-group-joined onto the user's events by
    user_id hash bucket. The decision depends on how many requests
    PRECEDED this one, so the operator is an ordered per-user replay —
    inside each bucket a single vectorized pass (sort + grouped
    cumcount + boolean ladders) replays EVERY user in the bucket at
    once; dispatch is O(buckets), not O(users).
    ``first_rejected_event_id`` is order-sensitive, so a wrong replay
    order fails the oracle even when the counts match.

    Scale: the shuffle moves (user_id, ts, event_id) triples + one
    dimension row per user; the ladder is vectorized numpy.

    Pass explicit ``max_requests``/``credits`` for a flat quota (no
    plan-dimension join) — the ad-hoc/test path."""
    ds = read_table(sf_dir, "events", columns=["user_id", "ts", "event_id"])

    def replay(j: pd.DataFrame) -> pd.DataFrame:
        j = j.sort_values(["user_id", "ts", "event_id"])
        seq = j.groupby("user_id").cumcount().to_numpy()
        mr = j["max_requests"].to_numpy(dtype=np.int64)
        cr = j["credits"].to_numpy(dtype=np.int64)
        within = seq < mr
        via_credit = (~within) & (seq < mr + cr)
        rejected = ~within & ~via_credit
        # the first rejected request is exactly seq == mr + cr (the
        # first over-limit position in replay order)
        first_rej = np.where(seq == mr + cr, j["event_id"].to_numpy(), np.nan)
        g = pd.DataFrame(
            {
                "user_id": j["user_id"].astype("int64"),
                "_within": within,
                "_via": via_credit,
                "_rej": rejected,
                "_cr": cr,
                "_first": first_rej,
            }
        ).groupby("user_id", as_index=False)
        out = g.agg(
            admitted_within_quota=("_within", "sum"),
            admitted_via_credit=("_via", "sum"),
            rejected=("_rej", "sum"),
            _cr=("_cr", "first"),
            first_rejected_event_id=("_first", "max"),
        )
        for c in ("admitted_within_quota", "admitted_via_credit", "rejected"):
            out[c] = out[c].astype("int64")
        out["credits_remaining"] = (out["_cr"] - out["admitted_via_credit"]).astype(
            "int64"
        )
        # float64 (not nullable Int64): a nullable BIGINT comes back
        # from the SQL oracle as float64, and the driver's value-hash
        # is dtype-exact
        out["first_rejected_event_id"] = out["first_rejected_event_id"].astype(
            "float64"
        )
        return out[
            [
                "user_id",
                "admitted_within_quota",
                "admitted_via_credit",
                "rejected",
                "credits_remaining",
                "first_rejected_event_id",
            ]
        ]

    if max_requests is not None or credits is not None:
        # either explicit arg selects the flat path — credits= alone
        # must not be silently dropped in favor of the plan dimension
        mr_c = np.int64(40 if max_requests is None else max_requests)
        cr_c = np.int64(5 if credits is None else credits)

        def replay_flat(df: pd.DataFrame) -> pd.DataFrame:
            return replay(df.assign(max_requests=mr_c, credits=cr_c))

        out = _bucketed_apply(ds, "user_id", replay_flat)
    else:
        plans = _user_plan_ds(sf_dir, ["max_requests", "credits"])
        out = _cogroup_join_apply(
            ds,
            plans,
            "user_id",
            {"ts": pa.timestamp("us"), "event_id": pa.int64()},
            {"max_requests": pa.int64(), "credits": pa.int64()},
            replay,
        )
    return out.to_pandas().sort_values("user_id").reset_index(drop=True)


# --- G4 + M8: device-limit admission -----------------------------------------

def device_admission(sf_dir: str):
    """Distinct-device admission against the plan's device limit
    (reference users.device_limit + per-plan limits,
    create_tables.sql:2-16,124-128; device registration
    backend/auth.py:181-218): each event's device key is parsed from
    the semi-structured props payload (the typed device_info parse,
    projected to a stable device id), distinct (user, device) pairs are
    pre-deduped per batch, and the per-user distinct count co-group-
    joins the plan dimension for the ≤ device_limit predicate. Null
    parses count 0 devices but KEEP the user in the output (SQL
    count(DISTINCT) over all-NULL is 0, not an absent row — a user
    whose every event is unparseable is still admitted/denied against
    the limit; both sides use the device_info anchored parse, so
    non-minimal JSON is 'unparseable' in BOTH engines)."""
    ds = read_table(sf_dir, "events", columns=["user_id", "props"])

    def devices(batch: pa.Table) -> pa.Table:
        m = pc.extract_regex(batch["props"], pattern=r'^\{"k":\s*(?P<k>\d+)\}$')
        k = pc.struct_field(m, "k").cast(pa.int64())
        # stable device id: project the parsed payload onto 8 device
        # slots (a user-agent-hash analogue). Null parses stay as null
        # pairs so the user survives the count (nunique skips them)
        dev = pc.cast(pc.bit_wise_and(k, pa.scalar(7, pa.int64())), pa.int64())
        t = pa.table({"user_id": batch["user_id"], "device_key": dev})
        # per-batch partial dedup: the shuffle ships distinct pairs only
        return t.group_by(["user_id", "device_key"]).aggregate([])

    pairs = ds.map_batches(devices, batch_format="pyarrow", zero_copy_batch=True)
    plans = _user_plan_ds(sf_dir, ["device_limit"])

    def admit(j: pd.DataFrame) -> pd.DataFrame:
        g = j.groupby("user_id", as_index=False).agg(
            n_devices=("device_key", "nunique"), device_limit=("device_limit", "first")
        )
        g["user_id"] = g["user_id"].astype("int64")
        g["n_devices"] = g["n_devices"].astype("int64")
        g["device_limit"] = g["device_limit"].astype("int64")
        g["within_limit"] = g["n_devices"] <= g["device_limit"]
        return g

    out = _cogroup_join_apply(
        pairs,
        plans,
        "user_id",
        {"device_key": pa.int64()},
        {"device_limit": pa.int64()},
        admit,
    )
    return out.to_pandas().sort_values("user_id").reset_index(drop=True)


# --- O1: order-desc + limit (request history) --------------------------------

def recent_events(sf_dir: str, *, limit: int = 100):
    """Latest-k events (reference request-history O1
    user_routes.py:127-152 with its limit clamp 1..100). Top-k without
    a global sort: each batch keeps its local newest-k (vectorized
    lexsort), the driver merges the O(blocks × k) candidates."""
    limit = max(1, min(100, limit))
    ds = read_table(sf_dir, "events", columns=["event_id", "ts", "user_id", "event_type"])

    def partial_topk(batch: pa.Table) -> pa.Table:
        ts = batch["ts"].to_numpy(zero_copy_only=False)
        eid = batch["event_id"].to_numpy()
        order = np.lexsort((-eid, -ts.astype("int64")))[:limit]
        return batch.take(pa.array(np.sort(order)))

    cand = ds.map_batches(partial_topk, batch_format="pyarrow").to_pandas()
    out = cand.sort_values(["ts", "event_id"], ascending=[False, False]).head(limit)
    return out.reset_index(drop=True)


def recent_events_combined(sf_dir: str, *, limit: int = 100, k: int = 3):
    """Global latest-N and per-user latest-k from ONE scan of events
    (consolidates the former separate global and per-user gate slots —
    the driver reports at most 50 queries).

    One candidate pass emits each batch's global top-``limit`` rows
    tagged ``scope='global'`` and its per-user head(``k``) rows tagged
    ``scope='user'``; the candidate set (O(blocks·limit + users·k), far
    smaller than events) is materialized once and consumed by both
    finals — a driver merge for the global side, the hash-bucketed
    per-key final for the user side — so events itself streams through
    exactly once."""
    limit = max(1, min(100, limit))
    ds = read_table(sf_dir, "events", columns=["event_id", "ts", "user_id", "event_type"])

    def candidates(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas().sort_values(["ts", "event_id"], ascending=False)
        glob = df.head(limit).assign(scope="global")
        peru = df.groupby("user_id", as_index=False).head(k).assign(scope="user")
        return pa.Table.from_pandas(
            pd.concat([glob, peru], ignore_index=True), preserve_index=False
        )

    cand = ds.map_batches(
        candidates, batch_format="pyarrow", zero_copy_batch=True
    ).materialize()

    gdf = (
        cand.filter(expr="scope == 'global'")
        .to_pandas()
        .sort_values(["ts", "event_id"], ascending=False)
        .head(limit)
    )

    def final(df: pd.DataFrame) -> pd.DataFrame:
        return (
            df.sort_values(["ts", "event_id"], ascending=False)
            .groupby("user_id", as_index=False)
            .head(k)
        )

    udf = _bucketed_apply(cand.filter(expr="scope == 'user'"), "user_id", final).to_pandas()
    out = pd.concat([gdf, udf], ignore_index=True)
    out = out[["scope", "user_id", "event_id", "ts", "event_type"]]
    return out.sort_values(
        ["scope", "user_id", "ts", "event_id"], ascending=[True, True, False, False]
    ).reset_index(drop=True)


# --- O3/O4: latest-stable-version selection ----------------------------------

def latest_release_per_user(sf_dir: str):
    """Top-1-by-order-date per customer (the latest-stable-release
    selection O3 applied per key): groupby + within-group max.
    Implemented as per-batch partial max → final aggregate max on the
    (o_orderdate, o_orderkey) pair — no global sort."""
    ds = read_table(sf_dir, "orders", columns=["o_custkey", "o_orderkey", "o_orderdate"])

    def partial(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas().sort_values(
            ["o_orderdate", "o_orderkey"], ascending=[False, False]
        )
        return pa.Table.from_pandas(
            df.groupby("o_custkey", as_index=False).head(1), preserve_index=False
        )

    partials = ds.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True)

    # coarse-bucket the final reduction: per-custkey map_groups dispatch
    # is O(customers); a vectorized pandas idxmax inside ~64 buckets is
    # O(buckets) dispatch with identical output
    def bucketize(batch: pa.Table) -> pa.Table:
        import numpy as np

        b = (batch["o_custkey"].to_numpy(zero_copy_only=False) % 64).astype("int32")
        return batch.append_column("_bucket", pa.array(b))

    def final(bucket: pd.DataFrame) -> pd.DataFrame:
        g = bucket.sort_values(["o_orderdate", "o_orderkey"], ascending=[False, False])
        return g.groupby("o_custkey", as_index=False).head(1).drop(columns=["_bucket"])

    out = (
        partials.map_batches(bucketize, batch_format="pyarrow")
        .groupby("_bucket")
        .map_groups(final, batch_format="pandas")
    )
    return (
        out.to_pandas()[["o_custkey", "o_orderkey", "o_orderdate"]]
        .sort_values("o_custkey")
        .reset_index(drop=True)
    )


# --- M6: regex filter + grouped count ----------------------------------------

def filter_regex_count(sf_dir: str, *, pattern: str = "(spark|vector)"):
    """Vectorized regex predicate (the email-validator family M6) +
    grouped count by lang."""
    ds = read_table(sf_dir, "documents", columns=["doc_id", "text", "lang"])

    def flag(batch: pa.Table) -> pa.Table:
        m = pc.match_substring_regex(batch["text"], pattern)
        return batch.filter(m)

    out = (
        ds.map_batches(flag, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("lang")
        .aggregate(Count(alias_name="n_docs"))
    )
    return out.to_pandas().sort_values("lang").reset_index(drop=True)


# --- D2: exact dedup ---------------------------------------------------------

def dedup_exact_documents(sf_dir: str):
    """Exact dedup of documents by text content: min doc_id per
    distinct text (D2: hash-partition + per-group first)."""
    from ..stages.dedup import exact_dedup

    docs = scan_table(sf_dir, "documents", columns=["doc_id", "text"])
    out = exact_dedup(docs, "text", "doc_id")
    return (
        out.to_pandas()[["doc_id", "text"]].sort_values("doc_id").reset_index(drop=True)
    )


# --- J1 full shape: multi-way broadcast join ---------------------------------

def customer_nation_region(sf_dir: str):
    """customer ⋈ nation ⋈ region grouped count — the reference's
    user⋈subscription⋈plan assembly (J1) with both dimensions broadcast
    (region: 5 rows, nation: 25 rows — ray.put once, probed per batch)."""
    nation = read_table(sf_dir, "nation").to_pandas()
    region = read_table(sf_dir, "region").to_pandas()
    dim = nation.merge(region, left_on="n_regionkey", right_on="r_regionkey")[
        ["n_nationkey", "n_name", "r_name"]
    ]
    dim_ref = ray.put(dim)

    cust = read_table(sf_dir, "customer", columns=["c_custkey", "c_nationkey", "c_acctbal"])

    def probe(batch: pd.DataFrame) -> pd.DataFrame:
        d = ray.get(dim_ref)
        return batch.merge(d, left_on="c_nationkey", right_on="n_nationkey")[
            ["r_name", "n_name", "c_acctbal"]
        ]

    out = (
        cust.map_batches(probe, batch_format="pandas")
        .groupby(["r_name", "n_name"])
        .aggregate(
            Count(alias_name="n_customers"),
            Sum("c_acctbal", alias_name="total_acctbal"),
        )
    )
    return _round_floats(out.to_pandas().sort_values(["r_name", "n_name"]).reset_index(drop=True))


# --- G3: anchored-period windowed sum ----------------------------------------

def period_usage(sf_dir: str, *, anchor_day: int = 15):
    """Anchored-period window sums (reference G3/M11
    models.py:163-244): each event lands in the billing period anchored
    at day-of-month ``anchor_day``; period start is computed vectorized
    from the timestamp."""
    ds = read_table(sf_dir, "events", columns=["user_id", "ts", "value"])

    def bucket(batch: pa.Table) -> pa.Table:
        # anchor clamps to each month's length (Jan 31 → Feb 28/29 …)
        # exactly like functions.scalar.anchored_period — without the
        # clamp an anchor_day >= 29 can compute a period_start AFTER
        # the event itself
        df = batch.to_pandas()
        ts = df["ts"]
        eff_anchor = pd.concat(
            [ts.dt.days_in_month, pd.Series(anchor_day, index=ts.index)], axis=1
        ).min(axis=1)
        start_month = ts.dt.to_period("M").where(
            ts.dt.day >= eff_anchor, ts.dt.to_period("M") - 1
        )
        sm_start = start_month.dt.to_timestamp()
        sm_days = start_month.dt.days_in_month
        clamped = pd.concat(
            [sm_days, pd.Series(anchor_day, index=ts.index)], axis=1
        ).min(axis=1)
        df["period_start"] = sm_start + pd.to_timedelta(clamped - 1, unit="D")
        return pa.Table.from_pandas(
            df[["user_id", "period_start", "value"]], preserve_index=False
        )

    out = (
        ds.map_batches(bucket, batch_format="pyarrow", zero_copy_batch=True)
        .groupby(["user_id", "period_start"])
        .aggregate(Count(alias_name="requests_count"), Sum("value", alias_name="total_value"))
    )
    return _round_floats(
        out.to_pandas().sort_values(["user_id", "period_start"]).reset_index(drop=True)
    )


# --- O2-ish: range filter + sort ---------------------------------------------

def events_in_range(sf_dir: str, *, lo: str = "2024-01-10", hi: str = "2024-02-10"):
    """Date-range filter + ordered output (reference usage query O2):
    predicate pushed down to the parquet read."""
    import pyarrow.dataset as pads

    ds = read_table(
        sf_dir,
        "events",
        columns=["event_id", "ts", "user_id", "value"],
        filter=(pads.field("ts") >= pa.scalar(pd.Timestamp(lo)))
        & (pads.field("ts") < pa.scalar(pd.Timestamp(hi))),
    )
    agg = ds.groupby("user_id").aggregate(
        Count(alias_name="requests_count"), Sum("value", alias_name="total_value")
    )
    return _round_floats(agg.to_pandas().sort_values("user_id").reset_index(drop=True))


# --- streaming-shaped: tumbling + sliding windows -----------------------------

def events_windows(sf_dir: str):
    """Tumbling 1-hour window AND sliding 2-hour/1-hour-step window per
    event_type from ONE events scan (scope column 'hourly'/'sliding');
    consolidated from the former separate events_hourly_window /
    events_sliding_window queries — the driver gate reports at most 50.

    Ray Data has no watermarks (SURVEY.md §2.9: bounded replay), so a
    window is just a truncated-timestamp group key. Hierarchical
    rollup: events shuffle ONCE into the hourly aggregate; the sliding
    level derives from it — a 2-hour window starting at w contains
    exactly the events of hours w and w+1h, so sliding(w) =
    hourly(w) + hourly(w+1h), a 1→2 flat-map + groupby over the
    hour-bucket-sized table instead of a second pass over the corpus.
    Same float trade as usage_rollup (sums of sums, absorbed by the
    symmetric round(4))."""
    ds = read_table(sf_dir, "events", columns=["event_type", "ts", "value"])

    def hour_rows(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "event_type": batch["event_type"],
                "window_start": pc.floor_temporal(batch["ts"], unit="hour"),
                "value": batch["value"],
            }
        )

    hourly = (
        ds.map_batches(hour_rows, batch_format="pyarrow", zero_copy_batch=True)
        .groupby(["event_type", "window_start"])
        .aggregate(Count(alias_name="n_events"), Sum("value", alias_name="total_value"))
        .materialize()  # hour-bucket-sized, reused by both levels
    )

    def slide(batch: pa.Table) -> pa.Table:
        # the groupby key comes back timestamp[s]; pin us so w and
        # w−1h concat to one type
        w = batch["window_start"].cast(pa.timestamp("us")).combine_chunks()
        prev = pc.subtract(w, pa.scalar(3_600_000_000, pa.duration("us")))
        types = batch["event_type"].combine_chunks()
        n = batch["n_events"].combine_chunks()
        v = batch["total_value"].combine_chunks()
        return pa.table(
            {
                "event_type": pa.concat_arrays([types, types]),
                "window_start": pa.concat_arrays([w, prev]),
                "n_events": pa.concat_arrays([n, n]),
                "total_value": pa.concat_arrays([v, v]),
            }
        )

    sliding = (
        hourly.map_batches(slide, batch_format="pyarrow", zero_copy_batch=True)
        .groupby(["event_type", "window_start"])
        .aggregate(
            Sum("n_events", alias_name="n_events"),
            Sum("total_value", alias_name="total_value"),
        )
    )
    cols = ["event_type", "window_start", "n_events", "total_value"]
    h = hourly.to_pandas()[cols].assign(scope="hourly")
    s = sliding.to_pandas()[cols].assign(scope="sliding")
    out = pd.concat([h, s], ignore_index=True)[
        ["scope", "event_type", "window_start", "n_events", "total_value"]
    ]
    return _round_floats(
        out.sort_values(["scope", "event_type", "window_start"]).reset_index(drop=True)
    )


# --- streaming-shaped: session windows ---------------------------------------

def session_counts(sf_dir: str, *, gap_minutes: int = 30):
    """Session-window count per user: events sorted by ts within each
    user; a gap > gap_minutes opens a new session. Hash-bucketed
    co-location (_bucketed_apply) replaces per-user map_groups
    dispatch: one sort + grouped diff inside each bucket sessionizes
    every user in the bucket vectorized (dispatch O(buckets))."""
    ds = read_table(sf_dir, "events", columns=["user_id", "ts"])
    gap = pd.Timedelta(minutes=gap_minutes)

    def sessions(df: pd.DataFrame) -> pd.DataFrame:
        g = df.sort_values(["user_id", "ts"])
        new_session = g.groupby("user_id")["ts"].diff() > gap
        out = (
            new_session.groupby(g["user_id"]).sum().astype("int64") + 1
        ).reset_index(name="n_sessions")
        out["user_id"] = out["user_id"].astype("int64")
        return out

    out = _bucketed_apply(ds, "user_id", sessions)
    return out.to_pandas().sort_values("user_id").reset_index(drop=True)


# --- M8: JSON props parsing (device_info JSONB analogue) ---------------------

def props_extract(sf_dir: str):
    """Parse the JSON ``props`` column (the reference's JSONB
    device_info, backend/auth.py:181-218) and aggregate the extracted
    field per event_type. Extraction is a vectorized Arrow regex over
    the single-key payload — at scale swap for pyarrow's JSON reader or
    a struct column at ingest; the point is the parse happens inside
    map_batches, never on the driver."""
    ds = read_table(sf_dir, "events", columns=["event_type", "props"])

    def parse(batch: pa.Table) -> pa.Table:
        k = pc.extract_regex(batch["props"], pattern=r'"k":\s*(?P<k>\d+)')
        kvals = pc.struct_field(k, "k").cast(pa.int64())
        return pa.table({"event_type": batch["event_type"], "k": kvals})

    out = (
        ds.map_batches(parse, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("event_type")
        .aggregate(
            Count(alias_name="n_events"),
            Sum("k", alias_name="total_k"),
            Mean("k", alias_name="avg_k"),
        )
    )
    return _round_floats(out.to_pandas().sort_values("event_type").reset_index(drop=True))


def device_info(sf_dir: str):
    """Typed device-info struct from the semi-structured props column
    (reference M8 extract_device_info, backend/auth.py:181-218): parse
    → typed fields → classification ladder → fallback for unparseable
    payloads. The reference maps user-agent flags through an
    if/elif chain to device_type and keeps the raw string when parsing
    fails; here the vectorized Arrow parse extracts the typed ``k``
    field, the same 4-way conditional ladder classifies it, and rows
    that fail the parse keep their raw payload with parse_ok=false —
    never dropped, never a Python row loop."""
    ds = read_table(sf_dir, "events", columns=["event_id", "event_type", "props"])

    def parse(batch: pa.Table) -> pa.Table:
        m = pc.extract_regex(batch["props"], pattern=r'^\{"k":\s*(?P<k>\d+)\}$')
        k = pc.struct_field(m, "k").cast(pa.int64())
        ok = pc.is_valid(k)
        # the reference's desktop/mobile/tablet/other ladder, vectorized
        ladder = pc.case_when(
            pc.make_struct(
                pc.is_null(k),
                pc.less(k, 25),
                pc.less(k, 50),
                pc.less(k, 75),
            ),
            "unknown",
            "desktop",
            "mobile",
            "tablet",
            "other",
        )
        raw = pc.if_else(ok, pa.nulls(len(batch), pa.string()), batch["props"])
        return pa.table(
            {
                "event_id": batch["event_id"],
                "event_type": batch["event_type"],
                "device_type": ladder,
                "k": k,
                "parse_ok": ok,
                "raw_props": raw,
            }
        )

    out = ds.map_batches(parse, batch_format="pyarrow", zero_copy_batch=True)
    return out.to_pandas().sort_values("event_id").reset_index(drop=True)


# --- running aggregate over an ordered log (§2.9 replay shape) ---------------

def running_user_totals(sf_dir: str):
    """Cumulative per-user value over ts-ordered events — the ordered-
    log replay shape (§2.9): a hash-bucket shuffle co-locates each
    user's events, one in-bucket sort + grouped cumsum replays every
    user in the bucket (dispatch O(buckets)). Returns the final
    cumulative row per user (deterministic tail)."""
    ds = read_table(sf_dir, "events", columns=["user_id", "ts", "value", "event_id"])

    def scan(df: pd.DataFrame) -> pd.DataFrame:
        g = df.sort_values(["user_id", "ts", "event_id"])
        g["running_value"] = g.groupby("user_id")["value"].cumsum()
        return g.groupby("user_id", as_index=False).tail(1)[
            ["user_id", "ts", "event_id", "running_value"]
        ]

    out = _bucketed_apply(ds, "user_id", scan)
    return _round_floats(out.to_pandas().sort_values("user_id").reset_index(drop=True))


# --- exact median per group --------------------------------------------------

def value_median(sf_dir: str):
    """Exact per-group median (the only aggregate here that cannot
    pre-combine — medians need the group's values co-located, which the
    hash-bucket shuffle provides with O(buckets) dispatch; for
    approximate at 10^12 rows swap in the mergeable quantile sketch
    (functions/sketch.py, approx_quantiles)."""
    ds = read_table(sf_dir, "events", columns=["event_type", "value"])

    def med(df: pd.DataFrame) -> pd.DataFrame:
        out = (
            df.groupby("event_type", as_index=False)["value"]
            .median()
            .rename(columns={"value": "median_value"})
        )
        out["median_value"] = out["median_value"].astype("float64")
        return out

    out = _bucketed_apply(ds, "event_type", med)
    return _round_floats(out.to_pandas().sort_values("event_type").reset_index(drop=True))


# --- part / supplier dimension queries ---------------------------------------

def parts_by_brand(sf_dir: str):
    """Grouped stats over part (completes table coverage): count, avg
    retail price, max size per brand."""
    ds = read_table(sf_dir, "part", columns=["p_brand", "p_retailprice", "p_size"])
    out = ds.groupby("p_brand").aggregate(
        Count(alias_name="n_parts"),
        Mean("p_retailprice", alias_name="avg_price"),
        Max("p_size", alias_name="max_size"),
    )
    return _round_floats(out.to_pandas().sort_values("p_brand").reset_index(drop=True))


def supplier_by_nation(sf_dir: str):
    """supplier ⋈ nation broadcast join → per-nation account balance
    (J1 with the 25-row nation dim broadcast via ray.put)."""
    nation = read_table(sf_dir, "nation", columns=["n_nationkey", "n_name"]).to_pandas()
    ref = ray.put(nation)
    sup = read_table(sf_dir, "supplier", columns=["s_nationkey", "s_acctbal"])

    def probe(batch: pd.DataFrame) -> pd.DataFrame:
        return batch.merge(
            ray.get(ref), left_on="s_nationkey", right_on="n_nationkey"
        )[["n_name", "s_acctbal"]]

    out = (
        sup.map_batches(probe, batch_format="pandas")
        .groupby("n_name")
        .aggregate(
            Count(alias_name="n_suppliers"), Sum("s_acctbal", alias_name="total_acctbal")
        )
    )
    return _round_floats(out.to_pandas().sort_values("n_name").reset_index(drop=True))


# --- as-of join (the operator Ray Data lacks) --------------------------------

def asof_latest_order(sf_dir: str):
    """For each event, the latest order of the same key at-or-before the
    event time — a distributed AS-OF JOIN built from primitives:
    tag-and-union both sides, hash-bucket by key (co-locating each
    key's rows from BOTH tables in one group), then ``pd.merge_asof``
    within the group. No broadcast: both sides stream through one
    shuffle, so the pattern holds when both tables are large.

    Determinism: orders are pre-reduced to one row per (key, ts) —
    max o_orderkey wins — because the as-of contract is ambiguous when
    several right rows share the match timestamp."""
    events = read_table(sf_dir, "events", columns=["event_id", "user_id", "ts"])
    orders = read_table(
        sf_dir, "orders", columns=["o_orderkey", "o_custkey", "o_orderdate"]
    )

    def tag_events(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "key": batch["user_id"].cast(pa.int64()),
                "ts": batch["ts"],
                "event_id": batch["event_id"],
                "o_orderkey": pa.nulls(batch.num_rows, pa.int64()),
                "src": pa.array(["e"] * batch.num_rows, pa.string()),
            }
        )

    def tag_orders(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas()
        # one row per (key, ts): max orderkey wins (determinism)
        df = (
            df.sort_values("o_orderkey")
            .groupby(["o_custkey", "o_orderdate"], as_index=False)
            .last()
        )
        return pa.table(
            {
                "key": pa.array(df["o_custkey"].astype("int64")),
                "ts": pa.array(df["o_orderdate"]),
                "event_id": pa.nulls(len(df), pa.int64()),
                "o_orderkey": pa.array(df["o_orderkey"].astype("int64")),
                "src": pa.array(["o"] * len(df), pa.string()),
            }
        )

    tagged = events.map_batches(tag_events, batch_format="pyarrow").union(
        orders.map_batches(tag_orders, batch_format="pyarrow")
    )

    def add_bucket(batch: pa.Table) -> pa.Table:
        from ..functions.scalar import stable_bucket

        b = stable_bucket(batch["key"], 32)
        return batch.append_column("_bucket", pa.array(b, pa.int32()))

    def asof_in_bucket(df: pd.DataFrame) -> pd.DataFrame:
        left = df[df["src"] == "e"].sort_values("ts", kind="mergesort")
        right = df[df["src"] == "o"]
        # cross-batch duplicates of (key, ts) can survive the per-batch
        # reduce; repeat it on the co-located rows for global determinism
        right = (
            right.sort_values("o_orderkey")
            .groupby(["key", "ts"], as_index=False)
            .last()
            .sort_values("ts", kind="mergesort")
        )
        if len(left) == 0 or len(right) == 0:
            return pd.DataFrame(
                {
                    "event_id": pd.Series(dtype="int64"),
                    "user_id": pd.Series(dtype="int64"),
                    "o_orderkey": pd.Series(dtype="int64"),
                    "o_orderdate": pd.Series(dtype="datetime64[us]"),
                }
            )
        m = pd.merge_asof(
            left[["ts", "key", "event_id"]],
            right[["ts", "key", "o_orderkey"]],
            on="ts",
            by="key",
            direction="backward",
            suffixes=("", "_o"),
        )
        # inner semantics: events with no order at-or-before drop out
        m = m.dropna(subset=["o_orderkey"])
        # recover the matched order date: backward match = max order ts <= event ts
        m2 = pd.merge_asof(
            left[["ts", "key", "event_id"]].rename(columns={"ts": "ets"}).sort_values("ets"),
            right[["ts", "key"]].rename(columns={"ts": "ots"}).sort_values("ots"),
            left_on="ets",
            right_on="ots",
            by="key",
            direction="backward",
        ).dropna(subset=["ots"])
        out = m.merge(m2[["event_id", "ots"]], on="event_id")
        return pd.DataFrame(
            {
                "event_id": out["event_id"].astype("int64"),
                "user_id": out["key"].astype("int64"),
                "o_orderkey": out["o_orderkey"].astype("int64"),
                "o_orderdate": out["ots"],
            }
        )

    out = (
        tagged.map_batches(add_bucket, batch_format="pyarrow")
        .groupby("_bucket")
        .map_groups(
            lambda g: asof_in_bucket(g.drop(columns=["_bucket"])),
            batch_format="pandas",
        )
    )
    return out.to_pandas().sort_values("event_id").reset_index(drop=True)
