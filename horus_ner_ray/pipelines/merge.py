"""Merge independently built indexes into one — the Lucene
``IndexWriter.addIndexes`` maintenance operation, re-expressed over this
engine's persisted phase-A state.

No re-tokenization: each input index already holds the per-fragment run
files (sorted int32-coded postings) and docstore parts, so a merge is
(1) renumber + import every input's fragments into the output tree, and
(2) the ordinary phase-B shard merge over the combined runs with the
combined collection statistics.  Phase A — the dominant build cost — is
never paid again on either side.  Fragment import is one task per
fragment (link-or-copy on the fast path, a run re-split on the slow
path), phase B one task per shard; both embarrassingly parallel, no
shuffle anywhere.  At 100 TB this merges two month-long builds in the
time of one shard-merge pass.

Fast vs slow fragment import:
- ``hash`` doc-id mode with every shard count equal: run-to-shard
  routing (``hash(doc_id) % S``) is id-space-independent, so input run
  files are already exactly what a fresh build over the union corpus
  would have written — they hard-link (or copy) straight across.
- ``provided`` mode, or a shard-count change: routing is
  ``doc_id * S // id_space`` and the union id space differs from an
  input's own, so each fragment's runs re-split under the union routing
  — the same primitive as ``reshard_index`` (byte-identical to fresh
  phase-A output, that module's tested invariant).
- ``rank`` mode is REFUSED: dense rank ids are assigned over the sorted
  conv_id order of ONE corpus and shift when corpora interleave — the
  same reason ``append_fragments`` refuses it.

Preconditions (validated loudly): identical output-affecting config and
optional docstore column set across inputs, disjoint corpus file lists,
no in-flight reshard/compaction markers, and — caller-guaranteed, not
checkable without a corpus-scale scan — disjoint doc-id populations
(hash ids collide only if the same (conv_id, turn_idx) appears in two
inputs; provided ids are the caller's).

Determinism: the merged index is BYTE-IDENTICAL to a fresh build over
the concatenated corpus file list (shards, docstore, df table —
tests/test_merge_indexes.py), because run/docstore bytes are a pure
function of (source file, config) and the shard merge is order-free.
Tombstones from every input ride through as their union (doc-keyed,
routing-independent); compaction generations propagate so a later
direct build over the original corpus rebuilds instead of resuming
filtered runs.

Crash-safe: ``job.json`` (with a ``merged_from`` stamp) gates resume
exactly like a build — a killed merge re-runs, skips finished fragments
and shards, and converges; a job change wipes the partial output first.
"""

from __future__ import annotations

import json
import os
import shutil
import time
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pandas as pd
import pyarrow.parquet as pq

from horus_ner_ray.config import PipelineConfig
from horus_ner_ray.state.shards import (
    FRAG_FORMAT_VERSION,
    IndexPaths,
    atomic_write_json,
)


def _link_or_copy(src: Path, dst: Path) -> None:
    """Atomic import of one immutable file: hard-link when the filesystem
    allows (zero-copy), byte-copy otherwise; tmp+rename either way.

    Re-import over an existing hard link must short-circuit: POSIX
    rename() of two links to the SAME inode is a no-op that leaves the
    tmp name behind (observed on resume — the stray .tmp broke
    byte-identity with a fresh build)."""
    if dst.exists():
        try:
            if os.path.samefile(src, dst):
                return
        except OSError:
            pass
    tmp = dst.with_name(dst.name + ".tmp")
    tmp.unlink(missing_ok=True)
    try:
        os.link(src, tmp)
    except OSError:
        shutil.copyfile(src, tmp)
    os.replace(tmp, dst)
    tmp.unlink(missing_ok=True)  # same-inode rename no-op leaves it


def _docstore_id_space(paths: IndexPaths) -> int:
    """max(doc_id) + 1 from docstore footer statistics (mirrors every
    corpus row, including zero-token docs absent from shard docids) —
    the same recovery rule as reshard_index."""
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
    return hi


class _ImportFragWorker:
    """Imports one source fragment into the output tree under its new
    fragment id: docstore part always links/copies (routing-independent);
    run files link on the fast path or re-split under the union routing
    on the slow path.  Resumable per fragment (output manifest gates)."""

    def __init__(self, out_dir: str, fast: bool, num_shards: int,
                 doc_id_mode: str, id_space: int):
        self.out = IndexPaths(out_dir)
        self.fast = bool(fast)
        self.num_shards = int(num_shards)
        self.doc_id_mode = doc_id_mode
        self.id_space = int(id_space)

    def __call__(self, batch: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame([
            self.import_frag(int(r.new_fid), r.path,
                             json.loads(r.run_files), r.docstore_part,
                             int(r.n_turns), int(r.n_tokens))
            for r in batch.itertuples()
        ])

    def import_frag(self, new_fid: int, path: str, run_files: list[str],
                    docstore_part: str, n_turns: int, n_tokens: int) -> dict:
        mpath = self.out.frag_manifest(new_fid)
        if mpath.exists():
            m = json.loads(mpath.read_text())
            if (m.get("path") == path
                    and m.get("version") == FRAG_FORMAT_VERSION):
                return m
        t0 = time.time()
        if Path(docstore_part).exists():
            _link_or_copy(Path(docstore_part),
                          self.out.docstore / f"part-{new_fid:05d}.parquet")
        # a fully-compacted-away fragment has NO docstore part (compaction
        # removes an all-tombstoned part to match the fresh-build layout);
        # the merged output must likewise omit it
        if self.fast:
            new_files: list[str] = []
            for f in run_files:
                # input layout: .../runs/shard-SSSSS/run-fragOOOOO.parquet
                shard_name = Path(f).parent.name
                out_dir = self.out.runs / shard_name
                out_dir.mkdir(parents=True, exist_ok=True)
                dst = out_dir / f"run-frag{new_fid:05d}.parquet"
                _link_or_copy(Path(f), dst)
                new_files.append(str(dst))
        else:
            from horus_ner_ray.pipelines.reshard import _ReshardFragWorker

            w = _ReshardFragWorker(
                str(self.out.root), staging=str(self.out.runs),
                new_num=self.num_shards, doc_id_mode=self.doc_id_mode,
                id_space=self.id_space)
            new_files = json.loads(
                w.reshard_frag(new_fid, run_files)["new_files"])
        manifest = {
            "version": FRAG_FORMAT_VERSION,
            "frag_id": new_fid,
            "path": path,
            "n_turns": n_turns,
            "n_tokens": n_tokens,
            "n_runs": len(new_files),
            "run_files": json.dumps(sorted(new_files)),
            "wall_s": round(time.time() - t0, 3),
        }
        atomic_write_json(mpath, manifest)
        return manifest


def merge_indexes(index_dirs: list[str | Path], out_dir: str | Path,
                  num_shards: int | None = None,
                  concurrency: int | None = None):
    """Merge the indexes at ``index_dirs`` into a new index at ``out_dir``
    (must not be one of the inputs); see module docstring.  Returns a
    ``BuildResult``."""
    from horus_ner_ray.pipelines.build_index import (
        BuildResult,
        MergeShardWorker,
        _gate_resume_state,
        _job_identity,
        _map_items,
        _write_df_table,
    )
    from horus_ner_ray.pipelines.delete import delete_docs, read_tombstones

    t0 = time.time()
    if len(index_dirs) < 2:
        raise ValueError("merge_indexes needs at least two input indexes")
    roots = [Path(d).resolve() for d in index_dirs]
    out_root = Path(out_dir).resolve()
    if out_root in roots:
        raise ValueError("out_dir must be a NEW index directory, not one of "
                         "the inputs (in-place merge is not supported)")
    in_paths = [IndexPaths(r) for r in roots]
    stats_list = []
    for p in in_paths:
        if (p.root / "resharding.json").exists():
            raise RuntimeError(f"{p.root} is mid-reshard — finish "
                               "reshard_index first")
        if (p.root / "compacting.json").exists():
            raise RuntimeError(f"{p.root} is mid-compaction — re-run "
                               "compact_index first")
        stats_list.append(json.loads(p.stats_json.read_text()))

    mode = stats_list[0]["doc_id_mode"]
    if mode == "rank":
        raise ValueError(
            "merge_indexes requires doc_id_mode='hash' or 'provided'; "
            "rank-mode doc ids are dense ranks over ONE corpus's sorted "
            "conv_ids and shift when corpora interleave — rebuild instead")
    if any(s["doc_id_mode"] != mode for s in stats_list):
        raise ValueError("inputs disagree on doc_id_mode")
    store_cols = tuple(stats_list[0].get("store_columns") or ())
    for s in stats_list[1:]:
        if tuple(s.get("store_columns") or ()) != store_cols:
            raise ValueError(
                "inputs disagree on optional docstore columns "
                f"({store_cols} vs {tuple(s.get('store_columns') or ())}) — "
                "heterogeneous docstore parts break field-scoped search")

    # output-affecting config must agree (num_shards aside, which the
    # slow path can change); execution-sizing knobs may differ freely
    from horus_ner_ray.pipelines.build_index import _JOB_NEUTRAL_FIELDS

    def _effective(s: dict) -> dict:
        c = asdict(PipelineConfig.from_saved(s["config"]))
        return {k: v for k, v in c.items()
                if k not in _JOB_NEUTRAL_FIELDS and k != "num_shards"}

    eff0 = _effective(stats_list[0])
    for d, s in zip(roots[1:], stats_list[1:]):
        if _effective(s) != eff0:
            raise ValueError(
                f"{d} was built with a different output-affecting config "
                "than the first input — merged shards would silently "
                "diverge from a fresh build; rebuild with matching config")

    seen: set[str] = set()
    corpus_files: list[str] = []
    for s in stats_list:
        for f in s["corpus_files"]:
            if f in seen:
                raise ValueError(f"corpus file indexed by two inputs: {f}")
            seen.add(f)
            corpus_files.append(f)

    S = int(num_shards if num_shards is not None
            else stats_list[0]["n_shards"])
    if S <= 0:
        raise ValueError(f"num_shards must be positive, got {S}")
    fast = (mode == "hash"
            and all(int(s["n_shards"]) == S for s in stats_list))
    id_space = 0
    if mode == "provided":
        id_space = max(_docstore_id_space(p) for p in in_paths)

    cfg = PipelineConfig.from_saved(stats_list[0]["config"], num_shards=S)

    # resume gate: same inputs + config resume; anything else wipes the
    # partial output first.  merged_from distinguishes a merge from a
    # direct build over the same corpus (whose runs would be laid out
    # identically, but whose resume semantics must not mix).
    gens = [int(s.get("compaction_gen", 0)) for s in stats_list]
    identity = _job_identity(corpus_files, cfg)
    identity["merged_from"] = [str(r) for r in roots]
    if max(gens):
        identity["compaction_gen"] = max(gens)
    out_paths = IndexPaths(out_root)
    out_paths.ensure()
    _gate_resume_state(out_paths, identity)
    out_paths.clean_tmp()

    # fragment import plan: inputs in the given order, fragments by id
    items = []
    new_fid = 0
    for p in in_paths:
        for mfile in sorted(p.runs.glob("_frag-*.json")):
            m = json.loads(mfile.read_text())
            if m.get("version") != FRAG_FORMAT_VERSION:
                raise ValueError(
                    f"{p.root} holds fragment state from fragment format "
                    f"{m.get('version')} (engine reads {FRAG_FORMAT_VERSION})"
                    " — rebuild or re-merge it with this engine first")
            old_fid = int(m["frag_id"])
            items.append({
                "new_fid": new_fid,
                "path": m["path"],
                "run_files": m["run_files"],
                "docstore_part": str(p.docstore
                                     / f"part-{old_fid:05d}.parquet"),
                "n_turns": int(m["n_turns"]),
                "n_tokens": int(m["n_tokens"]),
            })
            new_fid += 1
    if len(items) != sum(int(s["n_fragments"]) for s in stats_list):
        raise RuntimeError(
            "fragment manifests missing from an input (incomplete build?)")

    mani = _map_items(items, _ImportFragWorker,
                      {"out_dir": str(out_root), "fast": fast,
                       "num_shards": S, "doc_id_mode": mode,
                       "id_space": id_space}, concurrency)
    if len(mani) != len(items):  # before ANY publish: a dropped import
        raise RuntimeError(     # task must not yield a doc-missing index
            f"fragment import incomplete: {len(mani)}/{len(items)} "
            "manifests returned — re-run merge_indexes to resume")

    n_docs = int(sum(int(s["n_docs"]) for s in stats_list))
    total_tokens = int(sum(int(s["total_tokens"]) for s in stats_list))
    avgdl = total_tokens / n_docs if n_docs else 0.0

    _map_items([{"shard_id": s} for s in range(S)], MergeShardWorker,
               {"index_dir": str(out_root), "cfg": cfg, "avgdl": avgdl},
               concurrency or cfg.merge_concurrency)
    _write_df_table(out_paths, cfg)

    stats = {
        "n_docs": n_docs,
        "total_tokens": total_tokens,
        "avgdl": avgdl,
        "n_shards": S,
        "doc_id_mode": mode,
        "k1": cfg.k1,
        "b": cfg.b,
        "with_positions": cfg.with_positions,
        "n_fragments": len(items),
        "corpus_files": corpus_files,
        "store_columns": list(store_cols),
        "config": {**asdict(cfg),
                   "stopword_filter": list(cfg.stopword_filter)},
    }
    if max(gens):
        stats["compaction_gen"] = max(gens)
    atomic_write_json(out_paths.stats_json, stats)

    # tombstone union rides through last (doc-keyed, routing-independent);
    # written after stats so a crash before here leaves a fully consistent
    # undeleted index and a re-run converges (delete_docs is idempotent)
    dead = [read_tombstones(p.root) for p in in_paths]
    dead = [d for d in dead if d is not None]
    if dead:
        delete_docs(out_root, np.unique(np.concatenate(dead)))

    return BuildResult(str(out_root), n_docs, total_tokens, avgdl, S,
                       len(items), round(time.time() - t0, 3))
