"""Reshard an existing index to a different shard count — the cluster
maintenance operation for a growing corpus (raise shard count so each
shard's postings stay ~1-2 GB at 100 TB; PipelineConfig.num_shards docs).

No re-tokenization: the persisted run files (the per-fragment phase-A
output, already sorted int32-coded postings) are re-split under the new
routing and the shards re-merged — phase A's cost, the dominant one, is
never paid again.  One task per fragment (re-split, no shuffle) + one per
new shard (merge, the ordinary phase B), both embarrassingly parallel.

Output is BYTE-IDENTICAL to a fresh build with the new shard count, in
every doc-id mode: hash routing depends only on (doc_id, S); rank /
provided routing on (doc_id, id_space, S) with id_space unchanged
(tested).  Tombstones are doc-keyed and routing-independent — they ride
through untouched.

Crash-safe, with an explicit OFFLINE window: new runs stage under
``runs.new`` and swap in only when every fragment finished; the old
layout serves reads until the swap, but from the swap until the new
stats publish the shard set is incomplete, so a ``resharding.json``
marker is written first and ``QueryEngine`` REFUSES to open the index
while it exists (a partial shard set would silently return subset
results).  A killed reshard leaves the marker; re-running
``reshard_index`` recovers (restores a stranded ``runs.old`` if the
crash hit between the two swap renames) and clears it.
"""

from __future__ import annotations

import json
import shutil
from pathlib import Path

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from horus_ner_ray.config import PipelineConfig
from horus_ner_ray.state.shards import (
    IndexPaths,
    atomic_write_json,
    atomic_write_table,
    shard_of_hash,
    shard_of_rank,
)


class _ReshardFragWorker:
    """Re-splits one fragment's run files under the new shard routing.

    The output bytes must be exactly what a fresh build's phase A writes:
    per (fragment, new shard), rows sorted (term_idx asc == term asc,
    doc_id asc), term_idx dense over a sorted footer vocabulary covering
    exactly this run's rows — the invariant both merge paths rely on."""

    def __init__(self, index_dir: str, staging: str, new_num: int,
                 doc_id_mode: str, id_space: int):
        pa.set_cpu_count(1)
        self.paths = IndexPaths(index_dir)
        self.staging = Path(staging)
        self.new_num = int(new_num)
        self.doc_id_mode = doc_id_mode
        self.id_space = int(id_space)

    def _route(self, doc_ids: np.ndarray) -> np.ndarray:
        if self.doc_id_mode in ("rank", "provided"):
            return shard_of_rank(doc_ids, self.id_space, self.new_num)
        return shard_of_hash(doc_ids, self.new_num)

    def __call__(self, batch: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame([
            self.reshard_frag(int(r.frag_id), json.loads(r.run_files))
            for r in batch.itertuples()
        ])

    def reshard_frag(self, frag_id: int, run_files: list[str]) -> dict:
        from horus_ner_ray.pipelines.build_index import (
            _RUN_VOCAB_KEY,
            _RUN_WRITE_KW,
            _normalize_run_table,
            _run_vocab_arrow,
        )

        tables: list[pa.Table] = []
        vocabs: list[pa.Array] = []
        for f in run_files:
            pf = pq.ParquetFile(f)
            t = _normalize_run_table(pf.read())
            if len(t):
                tables.append(t)
                vocabs.append(_run_vocab_arrow(pf))
        new_files: list[str] = []
        if tables:
            # fragment-union vocabulary + per-run remap (the same Arrow
            # kernels as the merge path), then one routing pass
            uniq = pc.unique(pa.chunked_array(vocabs))
            uniq = uniq.take(pc.sort_indices(uniq))
            remapped = []
            for t, v in zip(tables, vocabs):
                gmap = np.asarray(pc.index_in(v, value_set=uniq),
                                  dtype=np.int32)
                g = gmap[np.asarray(t["term_idx"], dtype=np.int32)]
                remapped.append(t.drop(["term_idx"]).add_column(
                    0, "term_idx", pa.array(g, pa.int32())))
            cat = pa.concat_tables(remapped).combine_chunks()
            shards = self._route(np.asarray(cat["doc_id"], dtype=np.int64))
            for s in np.unique(shards):
                sub = cat.filter(pa.array(shards == s))
                gidx = np.asarray(sub["term_idx"], dtype=np.int32)
                used = np.unique(gidx)
                if len(used) != len(uniq):
                    dense = np.searchsorted(used, gidx).astype(np.int32)
                    sub = sub.drop(["term_idx"]).add_column(
                        0, "term_idx", pa.array(dense, pa.int32()))
                    vocab_arr = uniq.take(pa.array(used, pa.int32()))
                else:
                    vocab_arr = uniq
                sub = sub.sort_by([("term_idx", "ascending"),
                                   ("doc_id", "ascending")]).combine_chunks()
                meta = "\n".join(vocab_arr.to_pylist()).encode("utf-8")
                sub = sub.replace_schema_metadata({_RUN_VOCAB_KEY: meta})
                out_dir = self.staging / f"shard-{int(s):05d}"
                out_dir.mkdir(parents=True, exist_ok=True)
                out = out_dir / f"run-frag{frag_id:05d}.parquet"
                atomic_write_table(out, sub, **_RUN_WRITE_KW)
                new_files.append(str(out))
        return {"frag_id": frag_id, "new_files": json.dumps(new_files)}


def reshard_index(index_dir: str | Path, new_num_shards: int,
                  concurrency: int | None = None) -> dict:
    """Change the index's shard count in place; see module docstring."""
    from horus_ner_ray.pipelines.build_index import (
        MergeShardWorker,
        _job_identity,
        _map_items,
        _write_df_table,
    )

    paths = IndexPaths(index_dir)
    old_runs = paths.root / "runs.old"
    if not paths.runs.exists() and old_runs.exists():
        # crash landed between the two swap renames: the old layout is
        # stranded at runs.old — restore it before doing anything else
        old_runs.rename(paths.runs)
    stats = json.loads(paths.stats_json.read_text())
    old_num = int(stats["n_shards"])
    new_num = int(new_num_shards)
    if new_num <= 0:
        raise ValueError(f"new_num_shards must be positive, got {new_num}")
    if new_num == old_num:
        return {"resharded": False, "n_shards": old_num}
    new_cfg = PipelineConfig.from_saved(stats["config"], num_shards=new_num)
    # rank/provided routing needs the id space the build used.  Recover
    # max(doc_id)+1 from the docstore parts' footer stats in BOTH modes
    # (they mirror every corpus row, including zero-token docs absent
    # from shard docids): for a never-compacted rank build this equals
    # n_docs (dense ids), but after a compaction stats["n_docs"] shrinks
    # while the surviving ids keep their original values — routing by the
    # live count would send tail docs to shard indices >= new_num whose
    # runs are never merged (silent posting loss; code-review regression)
    id_space = int(stats["n_docs"])
    if stats["doc_id_mode"] in ("rank", "provided"):
        hi = 0
        for f in sorted(paths.docstore.glob("part-*.parquet")):
            md = pq.ParquetFile(f).metadata
            ci = md.schema.to_arrow_schema().get_field_index("doc_id")
            for rg in range(md.num_row_groups):
                st = md.row_group(rg).column(ci).statistics
                if st is not None and st.has_min_max:
                    hi = max(hi, int(st.max) + 1)
                else:
                    t = pq.read_table(f, columns=["doc_id"])
                    if len(t):
                        hi = max(hi, int(np.asarray(t["doc_id"]).max()) + 1)
                    break
        id_space = hi

    staging = paths.root / "runs.new"
    if staging.exists():
        shutil.rmtree(staging)  # a killed reshard re-runs from scratch
    manifests = sorted(paths.runs.glob("_frag-*.json"))
    frags = [json.loads(m.read_text()) for m in manifests]
    items = [{"frag_id": int(m["frag_id"]), "run_files": m["run_files"]}
             for m in frags]
    res = _map_items(items, _ReshardFragWorker,
                     {"index_dir": str(index_dir), "staging": str(staging),
                      "new_num": new_num, "doc_id_mode": stats["doc_id_mode"],
                      "id_space": id_space}, concurrency)
    new_by_frag = {int(r.frag_id): json.loads(r.new_files)
                   for r in res.itertuples()}

    # updated fragment manifests move into the staged runs dir, then the
    # whole dir swaps in — a crash before the swap leaves the old layout
    # fully intact and serving
    for m in frags:
        fid = int(m["frag_id"])
        # record the FINAL post-swap locations, not the staging paths —
        # later reshards/compactions read these lists back
        nf = [str(paths.runs / Path(f).relative_to(staging))
              for f in new_by_frag.get(fid, [])]
        m.update({"run_files": json.dumps(nf), "n_runs": len(nf)})
        atomic_write_json(staging / f"_frag-{fid:05d}.json", m)
    # OFFLINE window begins: from here to the final publish the shard set
    # is incomplete — engines seeing the marker refuse to open (a partial
    # set would silently serve subset results)
    atomic_write_json(paths.root / "resharding.json",
                      {"from": old_num, "to": new_num})
    if old_runs.exists():
        shutil.rmtree(old_runs)
    paths.runs.rename(old_runs)
    staging.rename(paths.runs)
    shutil.rmtree(old_runs)
    if paths.shards.exists():
        shutil.rmtree(paths.shards)
    paths.shards.mkdir(parents=True)

    # phase B under the new layout (ordinary merge; avgdl unchanged)
    _map_items([{"shard_id": s} for s in range(new_num)], MergeShardWorker,
               {"index_dir": str(index_dir), "cfg": new_cfg,
                "avgdl": float(stats["avgdl"])}, concurrency)
    _write_df_table(paths, new_cfg)

    from dataclasses import asdict

    stats.update({
        "n_shards": new_num,
        "config": {**asdict(new_cfg),
                   "stopword_filter": list(new_cfg.stopword_filter)},
    })
    atomic_write_json(paths.stats_json, stats)
    job = _job_identity(list(stats["corpus_files"]), new_cfg)
    if stats.get("compaction_gen"):
        # filtered runs never masquerade as a fresh original-corpus build
        job["compaction_gen"] = stats["compaction_gen"]
    atomic_write_json(paths.root / "job.json", job)
    (paths.root / "resharding.json").unlink(missing_ok=True)
    return {"resharded": True, "n_shards": new_num, "from": old_num,
            "n_fragments": len(items)}
