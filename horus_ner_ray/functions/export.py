"""Result export sinks (SURVEY.md S6 — the reference dumps its feature
matrix as TSV/CSV/JSON, reference: src/core/feature_extraction/features.py:117-135
and horus_to_conll.py:117-164).  Parquet is the primary sink (partitioned,
resumable); CSV/JSON provided for small result tables."""

from __future__ import annotations

from pathlib import Path


def export_dataset(ds, path: str | Path, fmt: str = "parquet", **kw):
    """Write a Dataset to a directory of part files in the given format."""
    path = str(path)
    if fmt == "parquet":
        return ds.write_parquet(path, **kw)
    if fmt == "csv":
        return ds.write_csv(path, **kw)
    if fmt == "json":
        return ds.write_json(path, **kw)
    raise ValueError(f"unknown format {fmt!r} (parquet|csv|json)")


def matches_dataset(index_dir: str | Path, text: str, mode: str = "or",
                    concurrency: int = 2):
    """The search -> Dataset bridge: the FULL match set of one query as a
    ``ray.data.Dataset`` of (doc_id, score) rows, scored one shard subset
    per task (each task opens a QueryEngine over its subset, the serving
    actors' shape) — so a retrieval result can feed
    any downstream ``map_batches`` pipeline (re-labeling, export, dedup
    against a corpus) WITHOUT materializing on the driver.

    Scores take the exhaustive exact path (``_full_scores``):
    ascending-term float64 accumulation, live docs masked — the same
    floats ``QueryEngine.search`` returns for those docs, so e6-domain
    results are oracle-checkable (driver query ``bm25_matches_export``).
    Shards partition docs, so rows are globally unique; output order is
    whatever block order the pool produces (sort downstream if needed).
    """
    import numpy as np
    import pandas as pd
    import ray.data as rd

    from horus_ner_ray.pipelines.query import QueryEngine
    from horus_ner_ray.state.shards import IndexPaths
    from horus_ner_ray.util import worker_runtime_env

    index_dir = str(index_dir)
    n_shards = len(IndexPaths(index_dir).published_shards())
    n_tasks = min(concurrency, max(1, n_shards))

    def match_subsets(batch: pd.DataFrame) -> pd.DataFrame:
        docs = [np.zeros(0, dtype=np.int64)]
        scores = [np.zeros(0, dtype=np.float64)]
        for sub in batch["shards"].tolist():
            eng = QueryEngine(index_dir, shard_subset=[int(s) for s in sub])
            terms, idfs = eng._or_and_terms(text, mode)
            ds_ = eng._full_scores(terms, idfs, mode) if terms else None
            if ds_ is not None:
                docs.append(np.asarray(ds_[0], dtype=np.int64))
                scores.append(np.asarray(ds_[1], dtype=np.float64))
        return pd.DataFrame({"doc_id": np.concatenate(docs),
                             "score": np.concatenate(scores)})

    env = worker_runtime_env()
    kw = {"runtime_env": env} if env else {}
    subsets = [list(range(i, n_shards, n_tasks)) for i in range(n_tasks)]
    return rd.from_pandas(
        pd.DataFrame({"shards": subsets})
    ).repartition(n_tasks).map_batches(
        match_subsets, batch_format="pandas", batch_size=1,
        concurrency=n_tasks, **kw)


def write_partitioned_parquet(ds, out_dir, partition_col: str,
                              n_buckets: int = 64) -> int:
    """Hive-partitioned Parquet sink: one ``<col>=<value>/part.parquet``
    directory per distinct partition value, rows sorted within a
    partition by the remaining columns — the resumable-output layout
    (atomic tmp+rename per file, skip-if-exists, so a failed run skips
    finished partitions on retry; never one giant file).

    Partition values must be path-safe scalars (the key domain of a
    curated corpus: source, lang, date bucket).  Returns the number of
    partition files written or found.  ``read_partitioned_parquet``
    reads back with partition pruning (only the requested directories
    are opened).
    """
    import os

    import numpy as np
    import pandas as pd
    import pyarrow as pa
    import pyarrow.parquet as pq

    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    out_str = str(out_dir)

    def bucket(batch: pa.Table) -> pa.Table:
        h = pd.util.hash_array(np.asarray(batch[partition_col]),
                               categorize=False)
        return batch.append_column(
            "__bkt", pa.array((h % np.uint64(n_buckets)).astype(np.int64),
                              pa.int64()))

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        wrote = 0
        other = [c for c in g.columns if c not in (partition_col, "__bkt")]
        for val, rows in g.groupby(partition_col, sort=True):
            d = Path(out_str) / f"{partition_col}={val}"
            d.mkdir(parents=True, exist_ok=True)
            dst = d / "part.parquet"
            if dst.exists():
                wrote += 1
                continue
            # the partition value lives in the directory name (hive
            # layout) — storing the column too would duplicate it
            body = rows.drop(columns=["__bkt", partition_col]).sort_values(
                other, kind="stable").reset_index(drop=True)
            tmp = dst.with_name(dst.name + f".tmp-{os.getpid()}")
            pq.write_table(pa.Table.from_pandas(body, preserve_index=False),
                           tmp)
            os.replace(tmp, dst)
            wrote += 1
        return pd.DataFrame({"n": [wrote]})

    from horus_ner_ray.util import worker_runtime_env as _rte

    parts = (
        ds.map_batches(bucket, batch_format="pyarrow", zero_copy_batch=True,
                       runtime_env=_rte())
        .groupby("__bkt")
        .map_groups(per_bucket, batch_format="pandas", runtime_env=_rte())
        .to_pandas()
    )
    return int(parts["n"].sum()) if len(parts) else 0


def read_partitioned_parquet(out_dir, partition_col: str,
                             values: list | None = None):
    """Read back a ``write_partitioned_parquet`` layout with PARTITION
    PRUNING: only the directories for ``values`` are opened (all when
    None); the partition column is restored from the directory name.
    Returns a Dataset."""
    import ray.data as rd

    out_dir = Path(out_dir)
    dirs = sorted(p for p in out_dir.iterdir()
                  if p.is_dir() and p.name.startswith(f"{partition_col}="))
    if values is not None:
        want = {str(v) for v in values}
        dirs = [p for p in dirs
                if p.name.split("=", 1)[1] in want]
    files = [str(p / "part.parquet") for p in dirs
             if (p / "part.parquet").exists()]
    if not files:
        raise FileNotFoundError(
            f"no partitions under {out_dir} for {partition_col}="
            f"{sorted(values) if values else 'ALL'}")
    vals = [p.name.split("=", 1)[1] for p in dirs
            if (p / "part.parquet").exists()]
    vmap = dict(zip(files, vals))
    ds = rd.read_parquet(files, include_paths=True)

    def restore(batch):
        import pyarrow as pa

        paths = [vmap[p] for p in batch["path"].to_pylist()]
        drop = ["path"]
        if partition_col in batch.column_names:
            # some readers hive-parse <col>=<val>/ dirs themselves;
            # re-derive from the path either way so the TYPE is a plain
            # string, not a discovered dictionary
            drop.append(partition_col)
        out = batch.drop_columns(drop)
        return out.append_column(partition_col,
                                 pa.array(paths, pa.string()))

    from horus_ner_ray.util import worker_runtime_env as _rte

    return ds.map_batches(restore, batch_format="pyarrow",
                          runtime_env=_rte())
