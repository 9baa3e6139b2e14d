"""Document deletion (tombstones) + index compaction.

The reference mutates its term/posting store in place and re-marks rows
with a ``processed`` flag (reference: src/core/feature_extraction/
features.py:299,427 and the probe-then-insert cache
src/core/util.py:947-1016); a modern immutable-segment engine instead
records *tombstones* and folds them in at the next merge.  That is the
semantics here, Lucene-style:

- ``delete_docs`` / ``delete_by_conv`` append doc ids to a sorted
  tombstone table at the index root (atomic rewrite).  Queries mask
  tombstoned docs BEFORE top-k; collection statistics (N, avgdl, df)
  stay STALE until compaction — standard live-docs semantics, shared
  with the BruteForceBM25 oracle and oracle-checked by the driver pair
  ``bm25_after_delete`` (stale stats + mask) vs ``bm25_after_compact``
  (stats rebuilt).
- ``compact_index`` rewrites every shard dropping tombstoned postings,
  filters the docstore, recomputes N/avgdl/df, clears the tombstones and
  invalidates build-resume state.  In hash doc-id mode (stable ids,
  data-independent shard routing) the compacted shards are BYTE-IDENTICAL
  to a fresh build over the filtered corpus (tested).

Scale notes (100 TB): the tombstone table is assumed driver-sized (sorted
int64 doc ids; 10^8 deletes ~ 800 MB — beyond that, partition the table
by shard the way the docstore already is).  Compaction itself is one
task per shard + one per docstore part — embarrassingly parallel, no
shuffle, bounded memory per task (a shard's decoded postings); partial
completion is safe at every point: tombstones are only removed after
stats publish, so a killed compaction still serves the masked-correct
answer and a re-run finishes idempotently.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from horus_ner_ray.config import PipelineConfig
from horus_ner_ray.state import codec
from horus_ner_ray.state.shards import (
    IndexPaths,
    atomic_write_json,
    atomic_write_table,
    write_shard,
)

TOMBSTONE_FILE = "tombstones.parquet"


def _tombstone_path(index_dir: str | Path) -> Path:
    return Path(index_dir) / TOMBSTONE_FILE


def read_tombstones(index_dir: str | Path) -> np.ndarray | None:
    """Sorted unique tombstoned doc ids, or None when none exist."""
    p = _tombstone_path(index_dir)
    if not p.exists():
        return None
    arr = np.asarray(pq.read_table(p)["doc_id"], dtype=np.int64)
    return arr if len(arr) else None


def delete_docs(index_dir: str | Path, doc_ids) -> int:
    """Tombstone ``doc_ids`` (idempotent union; atomic rewrite).  Returns
    the total tombstone count after the union.  Queries exclude these docs
    immediately; statistics stay stale until ``compact_index``."""
    new = np.unique(np.asarray(list(doc_ids), dtype=np.int64))
    old = read_tombstones(index_dir)
    if old is not None:
        new = np.union1d(old, new)
    atomic_write_table(
        _tombstone_path(index_dir), pa.table({"doc_id": pa.array(new, pa.int64())})
    )
    return int(len(new))


def delete_by_conv(index_dir: str | Path, conv_ids) -> int:
    """Tombstone every doc of the given conversations.  The resolve is a
    column-pruned distributed scan of the docstore (conv set broadcast
    into each batch — never a shuffle); the resulting doc-id set lands on
    the driver, which is the tombstone table's documented bound."""
    import ray

    paths = IndexPaths(index_dir)
    files = sorted(str(p) for p in paths.docstore.glob("part-*.parquet"))
    want = set(str(c) for c in conv_ids)
    if not files or not want:
        return delete_docs(index_dir, [])
    schema = pq.ParquetFile(files[0]).schema_arrow.names
    if "conv_id" not in schema:
        raise ValueError(
            "docstore has no conv_id column (provided-id build) — "
            "use delete_docs with explicit doc ids"
        )

    if ray.is_initialized():
        import ray.data as rd

        from horus_ner_ray.util import worker_runtime_env

        want_ref = ray.put(np.asarray(sorted(want), dtype=object))

        def pick(batch: pa.Table) -> pa.Table:
            w = ray.get(want_ref)
            m = pc.is_in(batch["conv_id"], value_set=pa.array(w, pa.string()))
            return batch.filter(m).select(["doc_id"])

        pdf = (
            rd.read_parquet(files, columns=["doc_id", "conv_id"])
            .map_batches(pick, batch_format="pyarrow", zero_copy_batch=True,
                         runtime_env=worker_runtime_env())
            .to_pandas()
        )
        # an all-empty filter can come back schemaless — still a valid
        # zero-match delete, not an error
        ids = (pdf["doc_id"].to_numpy(np.int64)
               if "doc_id" in pdf.columns else np.zeros(0, np.int64))
    else:  # sequential unit-test fallback (no session)
        parts = []
        for f in files:
            t = pq.read_table(f, columns=["doc_id", "conv_id"])
            m = np.isin(np.asarray(t["conv_id"], dtype=object), list(want))
            parts.append(np.asarray(t["doc_id"], dtype=np.int64)[m])
        ids = np.concatenate(parts) if parts else np.zeros(0, np.int64)
    return delete_docs(index_dir, ids)


# ---------------------------------------------------------------------------
# Full-shard decode (compaction's read side)
# ---------------------------------------------------------------------------


def _decode_full_shard(shard_dir: Path):
    """Decode a whole shard back to flat postings arrays — the inverse of
    ``write_shard``'s encode, vectorized over the entire region streams
    (one varint pass per region, segmented-cumsum reconstruction; no
    per-term Python loop)."""
    manifest = json.loads((shard_dir / "manifest.json").read_text())
    base = int(manifest["base_doc_id"])
    with_pos = bool(manifest["with_positions"])
    t = pq.read_table(shard_dir / "dict.parquet")
    terms = t["term"].combine_chunks()
    df = np.asarray(t["df"], dtype=np.int64)
    docids = np.load(shard_dir / "docids.npy")
    dl = np.load(shard_dir / "dl.npy")
    n_post = int(df.sum())
    if n_post == 0:
        return {
            "terms": terms, "starts": np.zeros(0, np.int64),
            "docs": np.zeros(0, np.int64), "tfs": np.zeros(0, np.int32),
            "posf": np.zeros(0, np.int32) if with_pos else None,
            "docids": docids, "dl": dl, "manifest": manifest,
        }
    post = np.fromfile(shard_dir / "postings.bin", dtype=np.uint8)
    doc_off = np.asarray(t["doc_off"], dtype=np.int64)
    doc_len = np.asarray(t["doc_len"], dtype=np.int64)
    tf_off = np.asarray(t["tf_off"], dtype=np.int64)
    tf_len = np.asarray(t["tf_len"], dtype=np.int64)
    term_starts = np.zeros(len(df), dtype=np.int64)
    np.cumsum(df[:-1], out=term_starts[1:])
    # whole-region decodes: the per-term streams are stored contiguously
    # in term order, so one decode covers every term
    gaps = codec.varint_decode(post[: int(doc_off[-1] + doc_len[-1])]).astype(np.int64)
    tfs = codec.varint_decode(
        post[int(tf_off[0]) : int(tf_off[-1] + tf_len[-1])]
    ).astype(np.int64)
    # docs: cumsum of gaps, re-based at each term start (gap at a term
    # start is absolute-from-base by construction)
    c = np.cumsum(gaps)
    adj = np.repeat(c[term_starts] - gaps[term_starts], df)
    docs = base + c - adj
    posf = None
    if with_pos:
        pos_off = np.asarray(t["pos_off"], dtype=np.int64)
        pos_len = np.asarray(t["pos_len"], dtype=np.int64)
        pgaps = codec.varint_decode(
            post[int(pos_off[0]) : int(pos_off[-1] + pos_len[-1])]
        ).astype(np.int64)
        val_starts = np.zeros(n_post, dtype=np.int64)
        np.cumsum(tfs[:-1], out=val_starts[1:])
        c2 = np.cumsum(pgaps)
        adj2 = np.repeat(c2[val_starts] - pgaps[val_starts], tfs)
        posf = (c2 - adj2).astype(np.int32)
    return {
        "terms": terms, "starts": term_starts, "docs": docs,
        "tfs": tfs.astype(np.int32), "posf": posf,
        "docids": docids, "dl": dl, "manifest": manifest,
    }


def _isin_sorted(values: np.ndarray, sorted_set: np.ndarray) -> np.ndarray:
    """Bool mask: values present in sorted_set (searchsorted probe)."""
    if len(sorted_set) == 0 or len(values) == 0:
        return np.zeros(len(values), dtype=bool)
    pos = np.searchsorted(sorted_set, values)
    posc = np.minimum(pos, len(sorted_set) - 1)
    return sorted_set[posc] == values


# ---------------------------------------------------------------------------
# Compaction workers (one task per docstore part / per shard — _map_items)
# ---------------------------------------------------------------------------


class _CompactDocstoreWorker:
    """Rewrites one docstore part dropping tombstoned rows (atomic);
    returns the part's live (n_rows, sum_dl) for the stats reduce.  Row
    groups are re-chunked with the build's fixed chunk size; within-chunk
    doc_id sort is preserved by the filter, keeping the range-pruned
    ``_doc_attrs`` / ``fetch_docs`` reads valid."""

    def __init__(self, deleted: np.ndarray):
        import ray

        if isinstance(deleted, ray.ObjectRef):
            deleted = ray.get(deleted)
        self.deleted = np.asarray(deleted, dtype=np.int64)

    def __call__(self, batch: pd.DataFrame) -> pd.DataFrame:
        from horus_ner_ray.pipelines.build_index import DOCSTORE_CHUNK_ROWS

        out = []
        for r in batch.itertuples():
            path = Path(r.path)
            t = pq.read_table(path)
            ids = np.asarray(t["doc_id"], dtype=np.int64)
            kill = _isin_sorted(ids, self.deleted)
            if kill.all() and len(t):
                # every row of this part is tombstoned: a fresh build over
                # the filtered corpus writes NO docstore part for an empty
                # fragment, so compaction must REMOVE the file, not publish
                # a 0-row parquet — byte-identity (and the merge hard-link
                # path downstream) depends on the layouts matching
                import os

                os.remove(path)
                out.append({"path": str(path), "n_rows": 0, "sum_dl": 0})
                continue
            if kill.any():
                live = t.filter(pa.array(~kill))
                tmp = path.with_name(path.name + ".tmp")
                w = pq.ParquetWriter(tmp, live.schema,
                                     compression="zstd", compression_level=1)
                for lo in range(0, max(len(live), 1), DOCSTORE_CHUNK_ROWS):
                    # re-SORT each re-sliced chunk: deletions shift chunk
                    # boundaries, so a new chunk can span two old sorted
                    # chunks — the per-row-group doc_id sort is what the
                    # fresh build writes (file-order chunks, sorted within)
                    # and what keeps row-group stats pruning tight
                    chunk = (live.slice(lo, DOCSTORE_CHUNK_ROWS)
                             .sort_by([("doc_id", "ascending")])
                             .combine_chunks())
                    w.write_table(chunk, row_group_size=DOCSTORE_CHUNK_ROWS)
                w.close()
                import os

                os.replace(tmp, path)
            else:
                live = t
            out.append({
                "path": str(path),
                "n_rows": len(live),
                "sum_dl": int(pc.sum(live["dl"]).as_py() or 0),
            })
        return pd.DataFrame(out)


class _CompactShardWorker:
    """Rewrites one shard without its tombstoned docs: whole-region decode,
    vectorized filter, re-encode through the one shard writer
    (``write_shard``) with the recomputed avgdl — so a compacted shard is
    byte-for-byte what a fresh build over the filtered corpus writes
    (hash doc-id mode; rank/provided modes keep their original ids too,
    but a fresh build would renumber, so there equality is semantic)."""

    def __init__(self, index_dir: str, cfg_dict: dict, avgdl: float,
                 deleted: np.ndarray):
        import ray

        pa.set_cpu_count(1)
        if isinstance(deleted, ray.ObjectRef):
            deleted = ray.get(deleted)
        self.paths = IndexPaths(index_dir)
        self.cfg = PipelineConfig.from_saved(cfg_dict)
        self.avgdl = float(avgdl)
        self.deleted = np.asarray(deleted, dtype=np.int64)

    def __call__(self, batch: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            [self.compact_shard(int(s)) for s in batch["shard_id"]]
        )

    def _filter_runs(self, shard_id: int) -> list[str]:
        """Filter this shard's RUN files too — append_fragments re-merges
        shards from runs, so unfiltered runs would resurrect deleted docs
        on the next append.  Row filter + dense term_idx/vocab re-compact
        (the merge paths rely on runs covering their footer vocab
        densely); an all-deleted run file is removed, matching what a
        fresh build over the filtered corpus writes.  Returns the removed
        file names (the driver prunes them from fragment manifests)."""
        from horus_ner_ray.pipelines.build_index import (
            _RUN_VOCAB_KEY,
            _RUN_WRITE_KW,
            _normalize_run_table,
            _run_vocab_arrow,
        )

        removed: list[str] = []
        run_dir = self.paths.run_dir(shard_id)
        for f in sorted(run_dir.glob("run-*.parquet")):
            pf = pq.ParquetFile(f)
            tbl = _normalize_run_table(pf.read())
            ids = np.asarray(tbl["doc_id"], dtype=np.int64)
            kill = _isin_sorted(ids, self.deleted)
            if not kill.any():
                continue
            live = tbl.filter(pa.array(~kill))
            if len(live) == 0:
                f.unlink()
                removed.append(str(f))
                continue
            vocab = _run_vocab_arrow(pf)
            gidx = np.asarray(live["term_idx"], dtype=np.int32)
            used = np.unique(gidx)
            if len(used) != len(vocab):
                dense = np.searchsorted(used, gidx).astype(np.int32)
                live = live.drop(["term_idx"]).add_column(
                    0, "term_idx", pa.array(dense, pa.int32()))
                vocab = vocab.take(pa.array(used, pa.int32()))
            meta = "\n".join(vocab.to_pylist()).encode("utf-8")
            # single-chunk-canonical layout (format v7): bytes must match
            # what a fresh build over the filtered corpus writes
            live = live.combine_chunks().replace_schema_metadata(
                {_RUN_VOCAB_KEY: meta})
            # atomic_write_table adds the build's zstd defaults — the same
            # writer path as fresh runs, keeping bytes fresh-build-identical
            atomic_write_table(f, live, **_RUN_WRITE_KW)
        return removed

    def compact_shard(self, shard_id: int) -> dict:
        sdir = self.paths.shard_dir(shard_id)
        data = _decode_full_shard(sdir)
        docids = np.asarray(data["docids"], dtype=np.int64)
        kill_doc = _isin_sorted(docids, self.deleted)
        man = data["manifest"]
        if not kill_doc.any() and float(man.get("avgdl", -1.0)) == self.avgdl:
            return {"shard_id": shard_id, "n_docs": int(len(docids)),
                    "n_postings": int(man["n_postings"]), "rewritten": False,
                    "removed_runs": json.dumps([])}
        removed_runs = self._filter_runs(shard_id) if kill_doc.any() else []
        docs, tfs, starts = data["docs"], data["tfs"], data["starts"]
        df_old = np.diff(np.append(starts, len(docs))).astype(np.int64)
        keep = ~_isin_sorted(docs, self.deleted)
        seg = np.zeros(len(df_old), dtype=np.int64)
        if len(df_old):
            # per-term surviving-posting counts (segmented sum over keep)
            kc = np.cumsum(keep.astype(np.int64))
            ends = np.append(starts[1:], len(docs))
            seg = kc[ends - 1] - np.where(starts > 0, kc[starts - 1], 0)
            seg[df_old == 0] = 0
        live_terms = seg > 0
        new_terms = data["terms"].filter(pa.array(live_terms))
        new_df = seg[live_terms]
        new_starts = np.zeros(len(new_df), dtype=np.int64)
        np.cumsum(new_df[:-1], out=new_starts[1:])
        new_docs = docs[keep]
        new_tfs = tfs[keep]
        posf = data["posf"]
        new_posf = None
        if posf is not None:
            new_posf = posf[np.repeat(keep, tfs)]
        new_docids = docids[~kill_doc]
        new_dl = np.asarray(data["dl"])[~kill_doc]
        base = int(new_docids[0]) if len(new_docids) else 0
        m = write_shard(
            sdir, shard_id, self.cfg, self.avgdl, base,
            new_terms, new_starts, new_docs, new_tfs, new_docids, new_dl,
            {"compacted_from_docs": int(len(docids))},
            positions_flat=new_posf,
        )
        return {"shard_id": shard_id, "n_docs": m["n_docs"],
                "n_postings": m["n_postings"], "rewritten": True,
                "removed_runs": json.dumps(removed_runs)}


def compact_index(index_dir: str | Path, concurrency: int | None = None) -> dict:
    """Fold tombstones into the index: rewrite docstore parts and shards
    without the deleted docs, recompute N / avgdl / the global df table,
    clear the tombstone file, and invalidate build-resume state (the index
    no longer derives from its recorded corpus, so a future build over the
    same corpus must start clean — job.json mismatch wipes it).

    Crash-safe at every prefix: stats/tombstones publish LAST, so an
    interrupted compaction still serves the masked stale-stats answer and
    a re-run converges (already-filtered parts/shards are no-op or
    idempotent rewrites).  A ``compacting.json`` marker brackets the
    shard-rewrite window, in which rewritten shards carry the NEXT avgdl
    while stats.json still holds the old one: ``verify_index``, merge and
    snapshot refuse an index carrying it.  Queries ignore it: scoring
    takes avgdl and df from stats.json and df.parquet, never from shard
    metadata, so an engine in the window serves the masked stale-stats
    answer."""
    import ray

    from horus_ner_ray.pipelines.build_index import _map_items, _write_df_table

    paths = IndexPaths(index_dir)
    if (paths.root / "resharding.json").exists():
        raise RuntimeError(
            "index is mid-reshard (resharding.json present): the shard set "
            "is incomplete — re-run reshard_index to finish, then compact")
    deleted = read_tombstones(index_dir)
    if deleted is None:
        # a crash between the tombstone unlink and the marker unlink
        # would otherwise strand compacting.json forever (verify, merge
        # and snapshot would refuse the index) — this is the only other
        # remover
        (paths.root / "compacting.json").unlink(missing_ok=True)
        return {"deleted": 0, "compacted": False}
    stats = json.loads(paths.stats_json.read_text())
    cfg_dict = stats["config"]
    deleted_ref = ray.put(deleted) if ray.is_initialized() else deleted

    # 1) docstore filter + live-stats reduce (one task per part)
    part_items = [{"path": str(p)}
                  for p in sorted(paths.docstore.glob("part-*.parquet"))]
    parts = _map_items(part_items, _CompactDocstoreWorker,
                       {"deleted": deleted_ref}, concurrency)
    n_docs = int(parts["n_rows"].sum()) if len(parts) else 0
    total_tokens = int(parts["sum_dl"].sum()) if len(parts) else 0
    avgdl = total_tokens / n_docs if n_docs else 0.0

    # 2) shard + run-file rewrite with the NEW avgdl (one task per shard;
    #    runs must be filtered too or the next append_fragments' re-merge
    #    would resurrect deleted docs from them).  The marker brackets the
    #    crash window for verify, merge and snapshot: rewritten shard
    #    manifests carry the NEW avgdl while stats.json still holds the
    #    old one until the publish completes
    atomic_write_json(paths.root / "compacting.json",
                      {"avgdl_next": avgdl, "n_docs_next": n_docs})
    shard_items = [{"shard_id": s} for s in range(int(stats["n_shards"]))]
    shard_res = _map_items(shard_items, _CompactShardWorker,
                           {"index_dir": str(index_dir), "cfg_dict": cfg_dict,
                            "avgdl": avgdl, "deleted": deleted_ref},
                           concurrency)

    # 3) fragment manifests: live counts + pruned run lists, so a later
    #    append's stats reduce and re-merge see exactly the filtered corpus
    removed_runs: set[str] = set()
    for rr in shard_res.get("removed_runs", pd.Series(dtype=object)):
        removed_runs.update(json.loads(rr))
    for r in parts.itertuples():
        # part-{frag_id:05d}.parquet — parse the full digit run, not a
        # fixed 5-char slice (frag counts past 100000 widen the field)
        name = Path(r.path).name
        frag_id = int(name[len("part-"):].split(".")[0])
        mpath = paths.frag_manifest(frag_id)
        if not mpath.exists():
            continue
        m = json.loads(mpath.read_text())
        rf = [f for f in json.loads(m.get("run_files", "[]"))
              if f not in removed_runs]
        m.update({"n_turns": int(r.n_rows), "n_tokens": int(r.sum_dl),
                  "run_files": json.dumps(rf), "n_runs": len(rf)})
        atomic_write_json(mpath, m)

    # 4) publish: df table, stats, resume invalidation, tombstone clear
    _write_df_table(paths, PipelineConfig.from_saved(cfg_dict))
    gen = int(stats.get("compaction_gen", 0)) + 1
    stats.update({"n_docs": n_docs, "total_tokens": total_tokens,
                  "avgdl": avgdl, "compaction_gen": gen})
    atomic_write_json(paths.stats_json, stats)
    jp = paths.root / "job.json"
    if jp.exists():
        try:
            job = json.loads(jp.read_text())
        except (json.JSONDecodeError, OSError):
            job = {}
        job["compaction_gen"] = gen  # never equals a fresh _job_identity
        atomic_write_json(jp, job)
    _tombstone_path(index_dir).unlink(missing_ok=True)
    (paths.root / "compacting.json").unlink(missing_ok=True)
    return {"deleted": int(len(deleted)), "compacted": True,
            "n_docs": n_docs, "avgdl": avgdl, "compaction_gen": gen}


def delete_by_query(index_dir: str | Path, text: str, mode: str = "or",
                    concurrency: int = 2) -> int:
    """ES ``_delete_by_query`` re-expressed on immutable segments: every
    live doc matching the query (OR = any term, AND = all terms)
    tombstones in one shot.  The match set comes from the distributed
    per-shard exhaustive scorer (``functions/export.matches_dataset`` —
    an actor-pool Dataset, nothing corpus-sized on the driver beyond the
    matched ids themselves), then the ordinary tombstone union: stats
    stay stale until ``compact_index``, search masks immediately, and
    the delete -> compact -> append algebra applies unchanged."""
    from horus_ner_ray.functions.export import matches_dataset

    df = matches_dataset(index_dir, text, mode=mode,
                         concurrency=concurrency).to_pandas()
    ids = (df["doc_id"].to_numpy(np.int64)
           if "doc_id" in df.columns else np.zeros(0, np.int64))
    return delete_docs(index_dir, ids)


def delete_older_than(index_dir: str | Path, cutoff_us: int) -> int:
    """TTL / retention delete: tombstone every doc whose STORED timestamp
    is strictly older than ``cutoff_us`` (epoch microseconds).  Docs
    without a stored ts are KEPT (no evidence of age).  Same shape as
    ``delete_by_conv``: a column-pruned distributed docstore scan
    resolves the ids (no shuffle), then the ordinary tombstone union —
    stats stay stale until ``compact_index``, and the whole
    delete -> compact -> append algebra applies unchanged."""
    import ray

    paths = IndexPaths(index_dir)
    files = sorted(str(p) for p in paths.docstore.glob("part-*.parquet"))
    if not files:
        return delete_docs(index_dir, [])
    schema = pq.ParquetFile(files[0]).schema_arrow.names
    if "ts" not in schema:
        raise ValueError(
            "docstore has no ts column — build with a ts source column "
            "to use retention deletes")
    cutoff = int(cutoff_us)

    def pick_t(t: pa.Table) -> np.ndarray:
        tsv = pc.cast(t["ts"], pa.int64())
        m = pc.and_(pc.is_valid(tsv), pc.less(tsv, cutoff))
        return np.asarray(t.filter(m)["doc_id"], dtype=np.int64)

    if ray.is_initialized():
        import ray.data as rd

        from horus_ner_ray.util import worker_runtime_env

        def pick(batch: pa.Table) -> pa.Table:
            return pa.table({"doc_id": pa.array(pick_t(batch), pa.int64())})

        pdf = (rd.read_parquet(files, columns=["doc_id", "ts"])
               .map_batches(pick, batch_format="pyarrow",
                            zero_copy_batch=True,
                            runtime_env=worker_runtime_env())
               .to_pandas())
        ids = (pdf["doc_id"].to_numpy(np.int64)
               if "doc_id" in pdf.columns else np.zeros(0, np.int64))
    else:  # sequential unit-test fallback (no session)
        parts = [pick_t(pq.read_table(f, columns=["doc_id", "ts"]))
                 for f in files]
        ids = np.concatenate(parts) if parts else np.zeros(0, np.int64)
    return delete_docs(index_dir, ids)
