"""ES-style metric & pipeline aggregations beyond the stats/quantiles
families: weighted_avg, string_stats, top_metrics, cumulative new-key
cardinality, and the bucket_sort / bucket_selector pipeline pair.

Reference analogue: the reference aggregates per-class vote counts and
confidence summaries on the driver (SURVEY.md G3/G5; reference
src/eval.py:67-134); Elasticsearch names the shapes implemented here
(weighted_avg, string_stats, top_metrics, cumulative_cardinality,
bucket_sort, bucket_selector).

Every operator is a ONE-pass streaming ``map_batches`` combiner emitting
a bounded partial per (key, batch), followed by a small ``groupby`` and an
O(groups) driver finish — a hot key costs one partial row per batch, never
a hot group.  All statistics accumulate in EXACT integer domains (products
split base 2**30 like stages/stats.py) so results are order-free and the
e6 publications hash-match the HUGEINT SQL oracles bit-for-bit.

At 100 TB: partial tables are O(groups x blocks) rows of ints — the only
data that moves; the finish tables are O(groups) and stay tiny (group
cardinality is bounded by the key domain, not the corpus).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from horus_ner_ray.util import worker_runtime_env as _rte

_SPLIT = 1 << 30


def _quant(col, scale: int) -> np.ndarray:
    x = np.asarray(col, dtype=np.float64)
    return np.floor(x * scale + 0.5).astype(np.int64)


def grouped_weighted_avg(ds, key_col: str, x_col: str, w_col: str,
                         x_scale: int = 1, w_scale: int = 1) -> pd.DataFrame:
    """ES ``weighted_avg``: per key, sum(x*w)/sum(w) — exact.

    x and w quantize to ints; the product sum splits base 2**30 (exact for
    any group up to ~2**33 rows at |x*scale|*|w*scale| < 2**54); the
    weighted mean publishes as ``wavg_e6 = (sxw * 10**6) // (x_scale * sw)``
    — a pure big-int floor division both sides compute identically.
    Returns ``(key, n_rows, wsum, wavg_e6)`` sorted by key.
    """
    from ray.data.aggregate import Sum

    def partial(batch: pa.Table) -> pa.Table:
        xq = _quant(batch[x_col], x_scale)
        wq = _quant(batch[w_col], w_scale)
        p = xq * wq
        df = pd.DataFrame({
            "k": batch[key_col].to_pandas().to_numpy(),
            "n": np.int64(1), "sw": wq,
            "sxw_hi": p >> 30, "sxw_lo": p & (_SPLIT - 1),
        })
        g = df.groupby("k", sort=False).sum().reset_index()
        cols = {key_col: pa.array(g["k"])}
        for c in ("n", "sw", "sxw_hi", "sxw_lo"):
            cols[c] = pa.array(g[c].to_numpy(np.int64), pa.int64())
        return pa.table(cols)

    sums = (
        ds.select_columns(list(dict.fromkeys([key_col, x_col, w_col])))
        .map_batches(partial, batch_format="pyarrow", zero_copy_batch=True,
                     runtime_env=_rte())
        .groupby(key_col)
        .aggregate(*[Sum(c, alias_name=c)
                     for c in ("n", "sw", "sxw_hi", "sxw_lo")])
    ).to_pandas()

    wavg = []
    for hi, lo, sw in zip(sums["sxw_hi"].astype(object),
                          sums["sxw_lo"].astype(object),
                          sums["sw"].astype(object)):
        sxw = int(hi) * _SPLIT + int(lo)
        wavg.append((sxw * 10**6) // (x_scale * int(sw)))
    out = pd.DataFrame({
        key_col: sums[key_col],
        "n_rows": sums["n"].astype(np.int64),
        "wsum": sums["sw"].astype(np.int64),
        "wavg_e6": np.array(wavg, dtype=np.int64),
    })
    return out.sort_values(key_col).reset_index(drop=True)


def grouped_string_stats(ds, key_col: str, text_col: str) -> pd.DataFrame:
    """ES ``string_stats``: per key, count / min / max / total / avg length
    of the text column (code-point lengths, matching SQL ``length()``).
    avg publishes as ``avg_len_e6 = (sum_len * 10**6) // n`` — exact int.
    Returns ``(key, n_rows, min_len, max_len, sum_len, avg_len_e6)``.
    """
    from ray.data.aggregate import Max, Min, Sum

    def partial(batch: pa.Table) -> pa.Table:
        ln = pc.utf8_length(batch[text_col]).to_numpy(zero_copy_only=False)
        df = pd.DataFrame({
            "k": batch[key_col].to_pandas().to_numpy(),
            "ln": ln.astype(np.int64),
        })
        g = df.groupby("k", sort=False)["ln"].agg(
            n="count", mn="min", mx="max", s="sum").reset_index()
        return pa.table({
            key_col: pa.array(g["k"]),
            "n": pa.array(g["n"].to_numpy(np.int64), pa.int64()),
            "mn": pa.array(g["mn"].to_numpy(np.int64), pa.int64()),
            "mx": pa.array(g["mx"].to_numpy(np.int64), pa.int64()),
            "s": pa.array(g["s"].to_numpy(np.int64), pa.int64()),
        })

    sums = (
        ds.select_columns([key_col, text_col])
        .map_batches(partial, batch_format="pyarrow", zero_copy_batch=True,
                     runtime_env=_rte())
        .groupby(key_col)
        .aggregate(Sum("n", alias_name="n"), Min("mn", alias_name="mn"),
                   Max("mx", alias_name="mx"), Sum("s", alias_name="s"))
    ).to_pandas()
    out = pd.DataFrame({
        key_col: sums[key_col],
        "n_rows": sums["n"].astype(np.int64),
        "min_len": sums["mn"].astype(np.int64),
        "max_len": sums["mx"].astype(np.int64),
        "sum_len": sums["s"].astype(np.int64),
        "avg_len_e6": np.array(
            [(int(s) * 10**6) // int(n)
             for s, n in zip(sums["s"].astype(object),
                             sums["n"].astype(object))], dtype=np.int64),
    })
    return out.sort_values(key_col).reset_index(drop=True)


def top_metrics(ds, key_col: str, sort_col: str, tiebreak_col: str,
                metric_cols: list[str]) -> pd.DataFrame:
    """ES ``top_metrics`` (size=1, sort desc): per key, the metric values
    on the row with the MAX ``(sort_col, tiebreak_col)`` — an associative
    arg-max, so per-batch partials (one row per key per batch) reduce on
    the driver under the identical rule.  Returns
    ``(key, sort_col, tiebreak_col, *metric_cols)`` sorted by key.  A
    NULL/NaN ``sort_col`` ranks below every value (SQL ``ORDER BY ...
    DESC`` puts NULLs last), so it wins only a key with no other rows.
    """
    cols = list(dict.fromkeys(
        [key_col, sort_col, tiebreak_col] + metric_cols))

    def partial(batch: pa.Table) -> pa.Table:
        df = batch.select(cols).to_pandas()
        top = (df.sort_values([sort_col, tiebreak_col], kind="stable",
                              na_position="first")
               .groupby(key_col, sort=False).tail(1))
        return pa.Table.from_pandas(top, preserve_index=False)

    parts = (
        ds.select_columns(cols)
        .map_batches(partial, batch_format="pyarrow", zero_copy_batch=True,
                     runtime_env=_rte())
    ).to_pandas()
    out = (parts.sort_values([sort_col, tiebreak_col], kind="stable",
                             na_position="first")
           .groupby(key_col, sort=False).tail(1))
    return out.sort_values(key_col).reset_index(drop=True)[cols]


def cumulative_new_keys(ds, key_col: str, ts_col: str,
                        interval_us: int) -> pd.DataFrame:
    """ES ``cumulative_cardinality`` pipeline agg, exactly: per time
    bucket, how many keys appear for the FIRST time (``new_keys``) and the
    running total of distinct keys seen (``cum_keys``).

    One shuffle: ``groupby(key).min(ts)`` over int64 timestamps; the
    per-bucket counts then reduce through a second tiny groupby and an
    O(buckets) cumsum on the driver.  Returns
    ``(bucket_us, new_keys, cum_keys)`` sorted by bucket.
    """
    from ray.data.aggregate import Min, Sum

    def to_int(batch: pa.Table) -> pa.Table:
        ts = pc.cast(batch[ts_col], pa.int64())
        return pa.table({key_col: batch[key_col], "ts_us": ts})

    firsts = (
        ds.select_columns([key_col, ts_col])
        .map_batches(to_int, batch_format="pyarrow", zero_copy_batch=True,
                     runtime_env=_rte())
        .groupby(key_col)
        .aggregate(Min("ts_us", alias_name="first_us"))
    )

    def bucket_counts(batch: pa.Table) -> pa.Table:
        f = batch["first_us"].to_numpy(zero_copy_only=False)
        b = (f // interval_us) * interval_us
        u, c = np.unique(b, return_counts=True)
        return pa.table({"bucket_us": pa.array(u, pa.int64()),
                         "n": pa.array(c.astype(np.int64), pa.int64())})

    counts = (
        firsts.map_batches(bucket_counts, batch_format="pyarrow",
                           zero_copy_batch=True, runtime_env=_rte())
        .groupby("bucket_us").aggregate(Sum("n", alias_name="new_keys"))
    ).to_pandas().sort_values("bucket_us").reset_index(drop=True)
    counts["new_keys"] = counts["new_keys"].astype(np.int64)
    counts["cum_keys"] = counts["new_keys"].cumsum().astype(np.int64)
    counts["bucket_us"] = counts["bucket_us"].astype(np.int64)
    return counts


def bucket_sort_histogram(ds, ts_col: str, interval_us: int,
                          min_count: int, limit: int) -> pd.DataFrame:
    """ES ``bucket_selector`` + ``bucket_sort`` over a date_histogram:
    bucket the stream by ``interval_us``, DROP buckets with fewer than
    ``min_count`` docs (selector), then sort by (count desc, bucket asc)
    and keep the first ``limit`` (sort).  The bucket table is O(time
    range / interval), so selector/sort/limit finish on the driver.
    Returns ``(bucket_us, n_docs)`` in the sorted order, with a ``rk``
    rank column pinning it.
    """
    from ray.data.aggregate import Sum

    def partial(batch: pa.Table) -> pa.Table:
        ts = pc.cast(batch[ts_col], pa.int64()).to_numpy(
            zero_copy_only=False)
        b = (ts // interval_us) * interval_us
        u, c = np.unique(b, return_counts=True)
        return pa.table({"bucket_us": pa.array(u, pa.int64()),
                         "n": pa.array(c.astype(np.int64), pa.int64())})

    counts = (
        ds.select_columns([ts_col])
        .map_batches(partial, batch_format="pyarrow", zero_copy_batch=True,
                     runtime_env=_rte())
        .groupby("bucket_us").aggregate(Sum("n", alias_name="n_docs"))
    ).to_pandas()
    counts["n_docs"] = counts["n_docs"].astype(np.int64)
    counts["bucket_us"] = counts["bucket_us"].astype(np.int64)
    kept = counts[counts["n_docs"] >= min_count]
    kept = kept.sort_values(["n_docs", "bucket_us"],
                            ascending=[False, True], kind="stable")
    kept = kept.head(limit).reset_index(drop=True)
    kept["rk"] = np.arange(1, len(kept) + 1, dtype=np.int64)
    return kept[["rk", "bucket_us", "n_docs"]]


def fertility_by_group(ds, key_col: str, text_col: str) -> pd.DataFrame:
    """Tokenizer fertility profile per group — the tokens-per-character
    health check run before committing a tokenizer to a data mixture:
    per key, doc count, token count (the shared ``[a-z0-9]+`` rule),
    code-point char count, and tokens-per-1000-chars published as
    ``tok_per_kchar_e6 = (tokens * 1000 * 10**6) // chars`` (exact
    big-int floor division).  One streaming combiner pass.
    """
    from ray.data.aggregate import Sum

    from horus_ner_ray.stages.tokenize import token_counts

    def partial(batch: pa.Table) -> pa.Table:
        tok = token_counts(batch[text_col]).astype(np.int64)
        ln = pc.utf8_length(batch[text_col]).to_numpy(
            zero_copy_only=False).astype(np.int64)
        df = pd.DataFrame({
            "k": batch[key_col].to_pandas().to_numpy(),
            "n": np.int64(1), "tok": tok, "ch": ln,
        })
        g = df.groupby("k", sort=False).sum().reset_index()
        cols = {key_col: pa.array(g["k"])}
        for c in ("n", "tok", "ch"):
            cols[c] = pa.array(g[c].to_numpy(np.int64), pa.int64())
        return pa.table(cols)

    sums = (
        ds.select_columns([key_col, text_col])
        .map_batches(partial, batch_format="pyarrow", zero_copy_batch=True,
                     runtime_env=_rte())
        .groupby(key_col)
        .aggregate(*[Sum(c, alias_name=c) for c in ("n", "tok", "ch")])
    ).to_pandas()
    out = pd.DataFrame({
        key_col: sums[key_col],
        "n_docs": sums["n"].astype(np.int64),
        "n_tokens": sums["tok"].astype(np.int64),
        "n_chars": sums["ch"].astype(np.int64),
        "tok_per_kchar_e6": np.array(
            [(int(t) * 1000 * 10**6) // int(c)
             for t, c in zip(sums["tok"].astype(object),
                             sums["ch"].astype(object))], dtype=np.int64),
    })
    return out.sort_values(key_col).reset_index(drop=True)


def sibling_bucket_stats(ds, ts_col: str, interval_us: int) -> pd.DataFrame:
    """ES sibling pipeline aggs (stats_bucket / avg_bucket / min_bucket /
    max_bucket / sum_bucket) over a date_histogram: bucket the stream by
    ``interval_us``, then publish statistics OF THE BUCKET COUNTS — how
    many buckets, total docs, min/max bucket size with their (earliest)
    bucket keys, and the mean bucket size as an exact big-int floor
    division.  The bucket table is O(time range / interval); the sibling
    reduction is O(buckets) on the driver.
    Returns one row: ``(n_buckets, sum_docs, min_docs, min_bucket_us,
    max_docs, max_bucket_us, avg_docs_e6)``.
    """
    from ray.data.aggregate import Sum

    def partial(batch: pa.Table) -> pa.Table:
        ts = pc.cast(batch[ts_col], pa.int64()).to_numpy(
            zero_copy_only=False)
        b = (ts // interval_us) * interval_us
        u, c = np.unique(b, return_counts=True)
        return pa.table({"bucket_us": pa.array(u, pa.int64()),
                         "n": pa.array(c.astype(np.int64), pa.int64())})

    counts = (
        ds.select_columns([ts_col])
        .map_batches(partial, batch_format="pyarrow", zero_copy_batch=True,
                     runtime_env=_rte())
        .groupby("bucket_us").aggregate(Sum("n", alias_name="n_docs"))
    ).to_pandas().sort_values("bucket_us").reset_index(drop=True)
    n = counts["n_docs"].astype(np.int64).to_numpy()
    b = counts["bucket_us"].astype(np.int64).to_numpy()
    total = int(n.sum())
    imin = int(np.lexsort((b, n))[0])
    imax = int(np.lexsort((b, -n))[0])
    return pd.DataFrame({
        "n_buckets": pd.Series([len(n)], dtype=np.int64),
        "sum_docs": pd.Series([total], dtype=np.int64),
        "min_docs": pd.Series([int(n[imin])], dtype=np.int64),
        "min_bucket_us": pd.Series([int(b[imin])], dtype=np.int64),
        "max_docs": pd.Series([int(n[imax])], dtype=np.int64),
        "max_bucket_us": pd.Series([int(b[imax])], dtype=np.int64),
        "avg_docs_e6": pd.Series([(total * 10**6) // len(n)],
                                 dtype=np.int64),
    })


def percentiles_bucket(ds, ts_col: str, interval_us: int,
                       pcts: list[int]) -> pd.DataFrame:
    """ES ``percentiles_bucket`` pipeline agg, EXACT where ES settles for
    interpolation: discrete percentiles OF the per-bucket doc counts.
    The bucket-count table is O(time range / interval), so the order
    statistic is a driver-side sort using percentile_disc's 1-based
    ``ceil(p*n/100)`` rule — the same convention the engine's
    field_percentile shares with the SQL oracle.
    Returns ``(pct, n_buckets, value)`` sorted by pct.
    """
    from ray.data.aggregate import Sum

    def partial(batch: pa.Table) -> pa.Table:
        ts = pc.cast(batch[ts_col], pa.int64()).to_numpy(
            zero_copy_only=False)
        b = (ts // interval_us) * interval_us
        u, c = np.unique(b, return_counts=True)
        return pa.table({"bucket_us": pa.array(u, pa.int64()),
                         "n": pa.array(c.astype(np.int64), pa.int64())})

    counts = (
        ds.select_columns([ts_col])
        .map_batches(partial, batch_format="pyarrow", zero_copy_batch=True,
                     runtime_env=_rte())
        .groupby("bucket_us").aggregate(Sum("n", alias_name="n_docs"))
    ).to_pandas()
    vals = np.sort(counts["n_docs"].astype(np.int64).to_numpy())
    n = len(vals)
    rows = {"pct": [], "n_buckets": [], "value": []}
    for p in pcts:
        idx = max(1, (int(p) * n + 99) // 100)  # 1-based ceil(p*n/100)
        rows["pct"].append(int(p))
        rows["n_buckets"].append(n)
        rows["value"].append(int(vals[idx - 1]))
    return pd.DataFrame(rows).astype(np.int64)


def anomalous_buckets(ds, ts_col: str, interval_us: int,
                      k_sigma: int = 2) -> pd.DataFrame:
    """Histogram anomaly detection with ZERO float operations: flag time
    buckets whose doc count deviates from the mean by more than
    ``k_sigma`` standard deviations, decided entirely in exact integer
    arithmetic —

        (B*n - S)^2  >  k^2 * (B*Sxx - S^2)

    (B buckets, S = sum counts, Sxx = sum of squared counts) is the
    |n - mean| > k*sigma predicate with both sides multiplied by B^2, so
    there is no division, no sqrt, and nothing to round: the SQL oracle
    states the identical HUGEINT inequality.  Returns the flagged
    ``(bucket_us, n_docs, dev_sign)`` rows sorted by bucket (dev_sign =
    +1 spike / -1 dip).
    """
    from ray.data.aggregate import Sum

    def partial(batch: pa.Table) -> pa.Table:
        ts = pc.cast(batch[ts_col], pa.int64()).to_numpy(
            zero_copy_only=False)
        b = (ts // interval_us) * interval_us
        u, c = np.unique(b, return_counts=True)
        return pa.table({"bucket_us": pa.array(u, pa.int64()),
                         "n": pa.array(c.astype(np.int64), pa.int64())})

    counts = (
        ds.select_columns([ts_col])
        .map_batches(partial, batch_format="pyarrow", zero_copy_batch=True,
                     runtime_env=_rte())
        .groupby("bucket_us").aggregate(Sum("n", alias_name="n_docs"))
    ).to_pandas().sort_values("bucket_us").reset_index(drop=True)
    n = [int(v) for v in counts["n_docs"]]
    b_cnt = len(n)
    s = sum(n)
    sxx = sum(v * v for v in n)
    rows = {"bucket_us": [], "n_docs": [], "dev_sign": []}
    rhs = k_sigma * k_sigma * (b_cnt * sxx - s * s)
    for bu, v in zip(counts["bucket_us"], n):
        lhs = (b_cnt * v - s) ** 2
        if lhs > rhs:
            rows["bucket_us"].append(int(bu))
            rows["n_docs"].append(v)
            rows["dev_sign"].append(1 if b_cnt * v - s > 0 else -1)
    return pd.DataFrame(rows).astype(np.int64)


def lag1_autocorr_dense(ds, ts_col: str, interval_us: int) -> pd.DataFrame:
    """Lag-1 Pearson autocorrelation of the DENSIFIED bucket-count
    series (missing buckets count 0) — the seasonality/burstiness probe
    ES approximates with moving_fn.  Pairs (x_t, x_{t+1}) accumulate the
    five sufficient statistics as exact Python ints off the O(buckets)
    driver table; the only float ops are the final casts and divides at
    the SQL oracle's exact CAST points.
    Returns one row (n_pairs, r_e6).
    """
    from ray.data.aggregate import Sum

    def partial(batch: pa.Table) -> pa.Table:
        ts = pc.cast(batch[ts_col], pa.int64()).to_numpy(
            zero_copy_only=False)
        b = (ts // interval_us) * interval_us
        u, c = np.unique(b, return_counts=True)
        return pa.table({"bucket_us": pa.array(u, pa.int64()),
                         "n": pa.array(c.astype(np.int64), pa.int64())})

    counts = (
        ds.select_columns([ts_col])
        .map_batches(partial, batch_format="pyarrow", zero_copy_batch=True,
                     runtime_env=_rte())
        .groupby("bucket_us").aggregate(Sum("n", alias_name="n_docs"))
    ).to_pandas().sort_values("bucket_us").reset_index(drop=True)
    lo = int(counts["bucket_us"].min())
    hi = int(counts["bucket_us"].max())
    dense = {int(b): int(v) for b, v in zip(counts["bucket_us"],
                                            counts["n_docs"])}
    xs = [dense.get(b, 0)
          for b in range(lo, hi + interval_us, interval_us)]
    x, y = xs[:-1], xs[1:]
    n = len(x)
    sx, sy = sum(x), sum(y)
    sxx = sum(v * v for v in x)
    syy = sum(v * v for v in y)
    sxy = sum(a * b for a, b in zip(x, y))
    import math

    num = float(n * sxy - sx * sy)
    da = math.sqrt(float(n * sxx - sx * sx))
    db = math.sqrt(float(n * syy - sy * sy))
    r = num / (da * db) if da > 0 and db > 0 else 0.0
    return pd.DataFrame({
        "n_pairs": pd.Series([n], dtype=np.int64),
        "r_e6": pd.Series([math.floor(r * 1e6 + 0.5)], dtype=np.int64),
    })
