"""ES-style aggregations (stages/aggs.py): weighted_avg, string_stats,
top_metrics, cumulative new-key cardinality, bucket_sort/selector —
each checked against a plain pandas restatement, plus a chunking-
invariance pass (results must not depend on block boundaries)."""

import numpy as np
import pandas as pd
import pytest

from horus_ner_ray.stages.aggs import (bucket_sort_histogram,
                                       cumulative_new_keys,
                                       grouped_string_stats,
                                       grouped_weighted_avg, top_metrics)


@pytest.fixture(scope="module")
def frame():
    rng = np.random.default_rng(7)
    n = 1000
    return pd.DataFrame({
        "k": rng.choice(list("abcd"), n),
        "x": np.round(rng.uniform(1, 100, n), 2),
        "w": rng.integers(1, 9, n).astype(float),
        "txt": ["t" * int(v) for v in rng.integers(1, 40, n)],
        "uid": rng.integers(0, 60, n),
        "eid": np.arange(n, dtype=np.int64),
        "ts": pd.to_datetime(
            rng.integers(0, 30 * 86400, n) * 10**6, unit="us"),
    })


def _ds(frame, blocks):
    import ray.data as rd

    return rd.from_pandas(frame).repartition(blocks)


@pytest.mark.parametrize("blocks", [1, 7])
def test_weighted_avg(ray_session, frame, blocks):
    out = grouped_weighted_avg(_ds(frame, blocks), "k", "x", "w",
                               x_scale=100, w_scale=1)
    for _, r in out.iterrows():
        sub = frame[frame["k"] == r["k"]]
        xq = np.floor(sub["x"] * 100 + 0.5).astype(np.int64)
        wq = np.floor(sub["w"] + 0.5).astype(np.int64)
        sxw = int((xq * wq).sum())
        assert r["n_rows"] == len(sub)
        assert r["wsum"] == int(wq.sum())
        assert r["wavg_e6"] == (sxw * 10**6) // (100 * int(wq.sum()))


@pytest.mark.parametrize("blocks", [1, 5])
def test_string_stats(ray_session, frame, blocks):
    out = grouped_string_stats(_ds(frame, blocks), "k", "txt")
    for _, r in out.iterrows():
        ln = frame[frame["k"] == r["k"]]["txt"].str.len()
        assert (r["n_rows"], r["min_len"], r["max_len"], r["sum_len"]) == \
            (len(ln), ln.min(), ln.max(), ln.sum())
        assert r["avg_len_e6"] == (int(ln.sum()) * 10**6) // len(ln)


@pytest.mark.parametrize("blocks", [1, 9])
def test_top_metrics(ray_session, frame, blocks):
    out = top_metrics(_ds(frame, blocks), "k", "ts", "eid", ["x", "w"])
    want = (frame.sort_values(["ts", "eid"]).groupby("k").tail(1)
            .sort_values("k").reset_index(drop=True))
    assert list(out["eid"]) == list(want["eid"])
    assert np.allclose(out["x"], want["x"])


@pytest.mark.parametrize("blocks", [1, 6])
def test_cumulative_new_keys(ray_session, frame, blocks):
    day = 86400 * 10**6
    out = cumulative_new_keys(_ds(frame, blocks), "uid", "ts", day)
    firsts = frame.groupby("uid")["ts"].min().astype(np.int64)
    buckets = (firsts // day) * day
    want = buckets.value_counts().sort_index()
    assert list(out["bucket_us"]) == list(want.index)
    assert list(out["new_keys"]) == list(want.values)
    assert list(out["cum_keys"]) == list(want.cumsum().values)
    assert out["cum_keys"].iloc[-1] == frame["uid"].nunique()


@pytest.mark.parametrize("blocks", [1, 4])
def test_bucket_sort(ray_session, frame, blocks):
    day = 86400 * 10**6
    out = bucket_sort_histogram(_ds(frame, blocks), "ts", day,
                                min_count=20, limit=5)
    cnt = ((frame["ts"].astype(np.int64) // day) * day).value_counts()
    kept = cnt[cnt >= 20].reset_index()
    kept.columns = ["bucket_us", "n"]
    kept = kept.sort_values(["n", "bucket_us"], ascending=[False, True])
    want = kept.head(5).reset_index(drop=True)
    assert list(out["bucket_us"]) == list(want["bucket_us"])
    assert list(out["n_docs"]) == list(want["n"])
    assert list(out["rk"]) == list(range(1, len(want) + 1))


@pytest.mark.parametrize("blocks", [1, 8])
def test_epoch_repeats(ray_session, frame, blocks):
    from horus_ner_ray.functions.sampling import epoch_repeats

    factors = {"a": 3, "c": 2}
    out = epoch_repeats(_ds(frame, blocks), "k", "eid", factors).to_pandas()
    want_rows = sum(factors.get(k, 1) for k in frame["k"])
    assert len(out) == want_rows
    # every doc present with exactly its factor's worth of copies
    got = out.groupby("eid")["repeat_idx"].agg(["count", "max"])
    for eid, k in zip(frame["eid"], frame["k"]):
        f = factors.get(k, 1)
        assert got.loc[eid, "count"] == f
        assert got.loc[eid, "max"] == f - 1


@pytest.mark.parametrize("blocks", [1, 5])
def test_fertility(ray_session, frame, blocks):
    from horus_ner_ray.stages.aggs import fertility_by_group

    f2 = frame.assign(txt=frame["txt"] + " ab12 zz")
    out = fertility_by_group(_ds(f2, blocks), "k", "txt")
    for _, r in out.iterrows():
        sub = f2[f2["k"] == r["k"]]["txt"]
        toks = sub.str.count(r"[a-z0-9]+").sum()
        chars = sub.str.len().sum()
        assert r["n_docs"] == len(sub)
        assert r["n_tokens"] == toks
        assert r["n_chars"] == chars
        assert r["tok_per_kchar_e6"] == (int(toks) * 1000 * 10**6) // int(chars)


@pytest.mark.parametrize("blocks", [1, 6])
def test_keep_best_per_component(ray_session, blocks):
    from horus_ner_ray.stages.clustering import keep_best_per_component

    rng = np.random.default_rng(3)
    n = 400
    comp = pd.DataFrame({
        "doc_id": np.arange(n, dtype=np.int64),
        "component": rng.integers(0, 50, n).astype(np.int64),
    })
    score = pd.DataFrame({
        "doc_id": np.arange(n, dtype=np.int64),
        "n_unique": rng.integers(1, 100, n).astype(np.int64),
    })
    out = keep_best_per_component(_ds(comp, blocks), _ds(score, blocks))
    j = comp.merge(score, on="doc_id")
    want = (j.sort_values(["n_unique", "doc_id"],
                          ascending=[False, True], kind="stable")
            .groupby("component").head(1).sort_values("component"))
    assert list(out["kept_doc"]) == list(want["doc_id"])
    assert list(out["n_unique"]) == list(want["n_unique"])
    assert list(out["n_members"]) == list(
        j.groupby("component").size().sort_index())


@pytest.mark.parametrize("blocks", [1, 7])
def test_sibling_bucket_stats(ray_session, frame, blocks):
    from horus_ner_ray.stages.aggs import sibling_bucket_stats

    day = 86400 * 10**6
    out = sibling_bucket_stats(_ds(frame, blocks), "ts", day)
    cnt = ((frame["ts"].astype(np.int64) // day) * day).value_counts() \
        .sort_index()
    assert out["n_buckets"][0] == len(cnt)
    assert out["sum_docs"][0] == len(frame)
    assert out["min_docs"][0] == cnt.min()
    assert out["max_docs"][0] == cnt.max()
    assert out["min_bucket_us"][0] == cnt[cnt == cnt.min()].index.min()
    assert out["max_bucket_us"][0] == cnt[cnt == cnt.max()].index.min()
    assert out["avg_docs_e6"][0] == (len(frame) * 10**6) // len(cnt)


def test_ivfpq_refine_improves_recall(ray_session):
    """Exact refinement: the refined top-k (a) contains only stage-1
    candidates, (b) ranks them by exact cosine, and (c) its recall vs
    exact brute-force top-k is >= the unrefined IVFPQ top-k's recall."""
    import math

    import ray.data as rd

    from horus_ner_ray.stages.pq import ivfpq_refine, ivfpq_search
    from horus_ner_ray.stages.similarity import ann_topk_bruteforce

    rng = np.random.default_rng(9)
    n, d = 600, 16
    emb = pd.DataFrame({
        "vec_id": np.arange(n, dtype=np.int64),
        "embedding": list(rng.normal(size=(n, d)).astype(np.float32)),
    })
    ds = rd.from_pandas(emb).repartition(4)
    qids = np.arange(3, dtype=np.int64)
    qm = np.array(list(emb["embedding"][:3]), dtype=np.float64)
    kw = dict(n_centroids=8, nprobe=2, m=4, ks=16, n_iter=2)
    ref = ivfpq_refine(ds, qids, qm, k=10, r=30, **kw)
    raw = ivfpq_search(ds, qids, qm, k=50, **kw)
    exact = ann_topk_bruteforce(ds, qids, qm, k=10)
    exact = exact.to_pandas() if not isinstance(exact, pd.DataFrame) else exact
    for qid in qids:
        g = ref[ref["query_id"] == qid]
        assert list(g["rank"]) == list(range(1, len(g) + 1))
        # refined hits all come from the stage-1 candidate pool
        cand = raw[raw["query_id"] == qid]
        cand = cand.assign(e6=[math.floor(v * 1e6 + 0.5)
                               for v in cand["adist"]])
        pool = set(cand.sort_values(["e6", "vec_id"]).head(30)["vec_id"])
        assert set(g["vec_id"]) <= pool
        # exact ranking inside the pool: cosine_e6 non-increasing
        assert list(g["cosine_e6"]) == sorted(g["cosine_e6"], reverse=True)


def test_apply_ingest(ray_session):
    from horus_ner_ray.stages.ingest import apply_ingest

    df = pd.DataFrame({
        "id": np.arange(4, dtype=np.int64),
        "txt": ["  Hello   World 42 ", "no digits", "a  1 b 2", ""],
        "src": ["Web", "wiki", "WEB", "x"],
    })
    import ray.data as rd

    out = apply_ingest(rd.from_pandas(df).repartition(2), [
        {"op": "extract", "field": "txt", "pattern": "[0-9]+",
         "target": "num"},
        {"op": "gsub", "field": "txt", "pattern": r"\s+",
         "replacement": " "},
        {"op": "trim", "field": "txt"},
        {"op": "lowercase", "field": "src"},
        {"op": "rename", "field": "src", "target": "source"},
        {"op": "set", "field": "tag", "value": "v1"},
        {"op": "length", "field": "txt", "target": "ln"},
    ]).to_pandas().sort_values("id").reset_index(drop=True)
    assert list(out["num"]) == ["42", "", "1", ""]
    assert list(out["txt"]) == ["Hello World 42", "no digits",
                                "a 1 b 2", ""]
    assert list(out["source"]) == ["web", "wiki", "web", "x"]
    assert list(out["tag"]) == ["v1"] * 4
    assert list(out["ln"]) == [14, 9, 7, 0]
    assert "src" not in out.columns
    # unknown op fails at plan time
    try:
        apply_ingest(rd.from_pandas(df), [{"op": "nope", "field": "txt"}])
        raise AssertionError("expected ValueError")
    except ValueError as e:
        assert "unknown op" in str(e)


def test_apply_ingest_set_on_empty_block_unifies():
    """op=set on an empty block yields the value's type, not a null-typed
    column, so it unifies with the blocks that have rows."""
    import pyarrow as pa

    from horus_ner_ray.stages.ingest import _ingest_batch

    tbl = pa.table({"id": pa.array([1, 2], pa.int64())})
    steps = [{"op": "set", "field": "tag", "value": "v1"},
             {"op": "set", "field": "n", "value": 7}]
    blocks = [_ingest_batch(tbl.slice(0, 0), steps), _ingest_batch(tbl, steps)]
    out = pa.concat_tables(blocks)
    assert out.schema.field("tag").type == pa.string()
    assert out.schema.field("n").type == pa.int64()
    assert out["tag"].to_pylist() == ["v1", "v1"]


def test_partitioned_parquet_roundtrip(ray_session, tmp_path):
    import ray.data as rd

    from horus_ner_ray.functions.export import (read_partitioned_parquet,
                                                write_partitioned_parquet)

    rng = np.random.default_rng(21)
    df = pd.DataFrame({
        "id": np.arange(300, dtype=np.int64),
        "v": rng.integers(0, 99, 300).astype(np.int64),
        "grp": rng.choice(["a", "b", "c", "d"], 300),
    })
    n = write_partitioned_parquet(rd.from_pandas(df).repartition(4),
                                  tmp_path / "p", "grp")
    assert n == df["grp"].nunique()
    # resumable: second write skips existing partitions
    assert write_partitioned_parquet(rd.from_pandas(df),
                                     tmp_path / "p", "grp") == n
    # full read-back is lossless
    back = read_partitioned_parquet(tmp_path / "p", "grp").to_pandas()
    assert len(back) == len(df)
    assert (back.sort_values("id")["v"].to_numpy()
            == df.sort_values("id")["v"].to_numpy()).all()
    # pruned read opens only requested partitions
    some = read_partitioned_parquet(tmp_path / "p", "grp",
                                    values=["a", "c"]).to_pandas()
    want = df[df["grp"].isin(["a", "c"])]
    assert len(some) == len(want)
    assert set(some["grp"]) == {"a", "c"}
    # unknown partition fails loudly
    try:
        read_partitioned_parquet(tmp_path / "p", "grp", values=["zzz"])
        raise AssertionError("expected FileNotFoundError")
    except FileNotFoundError:
        pass


@pytest.mark.parametrize("blocks", [1, 6])
def test_grouped_robust_scale(ray_session, frame, blocks):
    import math

    from horus_ner_ray.stages.stats import grouped_robust_scale

    out = grouped_robust_scale(_ds(frame, blocks), "k", "x",
                               id_cols=["eid"]).to_pandas()
    assert len(out) == len(frame)
    merged = out.merge(frame[["eid", "k", "x"]], on="eid")
    for kk, g in merged.groupby("k"):
        xs = np.sort(frame[frame["k"] == kk]["x"].to_numpy())
        med = xs[(50 * len(xs) + 99) // 100 - 1]
        dv = np.sort(np.abs(frame[frame["k"] == kk]["x"] - med).to_numpy())
        mad = dv[(50 * len(dv) + 99) // 100 - 1]
        for _, r in g.iterrows():
            want = (math.floor((r["x"] - med) / mad * 1e6 + 0.5)
                    if mad > 0 else 0)
            assert r["r_e6"] == want


@pytest.mark.parametrize("blocks", [1, 5])
def test_anomalous_buckets(ray_session, frame, blocks):
    from horus_ner_ray.stages.aggs import anomalous_buckets

    day = 86400 * 10**6
    out = anomalous_buckets(_ds(frame, blocks), "ts", day, k_sigma=1)
    cnt = ((frame["ts"].astype(np.int64) // day) * day).value_counts() \
        .sort_index()
    n = cnt.to_numpy().astype(object)
    b, s, sxx = len(n), int(sum(n)), int(sum(v * v for v in n))
    want = [(int(bu), int(v)) for bu, v in cnt.items()
            if (b * int(v) - s) ** 2 > (b * sxx - s * s)]
    assert list(zip(out["bucket_us"], out["n_docs"])) == want
    for _, r in out.iterrows():
        assert r["dev_sign"] == (1 if b * r["n_docs"] - s > 0 else -1)


@pytest.mark.parametrize("blocks", [1, 4])
def test_adjacent_turn_jaccard(ray_session, blocks):
    import re

    from horus_ner_ray.stages.windows import adjacent_turn_jaccard

    df = pd.DataFrame({
        "conv_id": ["c1"] * 4 + ["c2"] * 3,
        "turn_idx": [0, 1, 2, 4, 0, 1, 2],  # c1 has a gap 2->4
        "text": ["alpha beta gamma", "beta gamma delta",
                 "totally new words", "after the gap",
                 "same same tokens", "same tokens again", "!!!"],
    })
    out = (adjacent_turn_jaccard(_ds(df, blocks), boundary_below_e6=300000)
           .to_pandas().sort_values(["conv_id", "turn"])
           .reset_index(drop=True))
    # adjacent pairs only: (c1: 0-1, 1-2), (c2: 0-1, 1-2); the 2->4 gap
    # emits nothing
    assert list(zip(out["conv_id"], out["turn"])) == [
        ("c1", 0), ("c1", 1), ("c2", 0), ("c2", 1)]

    def jac(a, b):
        sa = set(re.findall(r"[a-z0-9]+", a.lower()))
        sb = set(re.findall(r"[a-z0-9]+", b.lower()))
        un = len(sa | sb)
        return (len(sa & sb) * 10**6) // un if un else 0

    want = [jac("alpha beta gamma", "beta gamma delta"),
            jac("beta gamma delta", "totally new words"),
            jac("same same tokens", "same tokens again"),
            jac("same tokens again", "!!!")]
    assert list(out["jaccard_e6"]) == want
    assert list(out["boundary"]) == [int(j < 300000) for j in want]


@pytest.mark.parametrize("blocks", [1, 5])
def test_lag1_autocorr(ray_session, frame, blocks):
    import math

    from horus_ner_ray.stages.aggs import lag1_autocorr_dense

    day = 86400 * 10**6
    out = lag1_autocorr_dense(_ds(frame, blocks), "ts", day)
    cnt = ((frame["ts"].astype(np.int64) // day) * day).value_counts() \
        .sort_index()
    lo, hi = cnt.index.min(), cnt.index.max()
    xs = [int(cnt.get(b, 0)) for b in range(lo, hi + day, day)]
    x, y = xs[:-1], xs[1:]
    n = len(x)
    sx, sy = sum(x), sum(y)
    num = float(n * sum(a * b for a, b in zip(x, y)) - sx * sy)
    da = math.sqrt(float(n * sum(v * v for v in x) - sx * sx))
    db = math.sqrt(float(n * sum(v * v for v in y) - sy * sy))
    want = math.floor(num / (da * db) * 1e6 + 0.5) if da and db else 0
    assert out["n_pairs"][0] == n
    assert out["r_e6"][0] == want


@pytest.mark.parametrize("blocks", [1, 3])
def test_top_metrics_null_sort_value_ranks_last(ray_session, blocks):
    """A NULL sort value never beats a real one (it used to win ``tail(1)``
    when its tiebreak was higher) and wins only a key whose every sort
    value is NULL — DuckDB's ``ORDER BY ts DESC NULLS LAST, eid DESC``."""
    import duckdb
    import pyarrow as pa
    import ray.data as rd

    tbl = pa.table({
        "k": ["a", "a", "b", "b", "b", "c", "c"],
        "ts": pa.array([10, None, None, 5, 7, None, None], pa.timestamp("us")),
        "eid": pa.array([1, 2, 9, 3, 4, 5, 6], pa.int64()),
        "x": [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0],
    })
    out = top_metrics(rd.from_arrow(tbl).repartition(blocks), "k", "ts", "eid", ["x"])
    want = duckdb.sql(
        "SELECT k, eid, x FROM (SELECT *, row_number() OVER (PARTITION BY k "
        "ORDER BY ts DESC NULLS LAST, eid DESC) AS rn FROM tbl) "
        "WHERE rn = 1 ORDER BY k").fetchall()
    assert list(zip(out["k"], out["eid"], out["x"])) == want
    assert want == [("a", 1, 1.0), ("b", 4, 5.0), ("c", 6, 7.0)]
