"""Index build: tokenize -> sorted runs -> per-shard k-way merge -> shards.

Two phases, both **resumable per partition** (the reference's
``processed``-flag idempotency, SURVEY.md D2, re-expressed as per-fragment /
per-shard manifest files: rerunning skips every partition whose manifest
exists).  Under a Ray session the phases run as a dependency-aware task DAG
(``_run_pipelined``): each shard's merge starts as soon as the fragments
whose doc ranges overlap it finish, so phases A and B overlap on the
critical path; without Ray the same workers run sequentially in-process.

Phase A — map (one task per input Parquet fragment, shuffle-free):
    read fragment (column-pruned, row-group streaming) -> assign doc_ids
    (pure function of (conv_id, turn_idx)) -> vectorized tokenize + explode
    to (term, doc_id, tf) -> tag each row with its doc-range shard -> per
    touched shard, write ONE sorted run file (sorted by (term, doc_id),
    atomic tmp+rename) -> write the docstore part -> emit a lineage manifest
    row.  Because sharding is by doc range and input files are conv-
    contiguous, a fragment touches few shards and NO all-to-all shuffle of
    postings ever happens — the "shuffle" is the run-file exchange on shared
    storage, the same trade external-sort index builders (and Spark's
    external shuffle) make.  At 256 nodes / 100 TB each node writes runs for
    its own fragments independently; scaling is embarrassingly parallel.

Phase B — merge (one task per shard):
    streaming k-way merge of the shard's sorted runs, term-at-a-time
    (heap over run cursors' head terms; per term the runs' doc-sorted slices
    merge into one ascending doc list), delta+varint encode, block-skip
    metadata, atomic shard publish.  Hot terms are bounded by the shard's
    doc range — this is where the north-star's "salted partial posting
    lists + streaming k-way merge per term" lives: the salt is the doc
    range (uniform, deterministic), the partials are the per-fragment runs.

Phase C — collection stats + global df table (vocab-sized groupby).

Determinism: the merged index content is a pure function of the corpus
(doc ids from keys, term order sorted, doc order sorted), independent of
fragment arrival order or parallelism — verified byte-identical by
tests/test_resume.py.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from horus_ner_ray.config import PipelineConfig
from horus_ner_ray.stages import docstore as dstore
from horus_ner_ray.stages.tokenize import explode_with_dl_codes
from horus_ner_ray.state.shards import (
    FRAG_FORMAT_VERSION,
    INDEX_FORMAT_VERSION,
    IndexPaths,
    atomic_write_json,
    atomic_write_table,
    shard_of_hash,
    shard_of_rank,
    write_shard,
)

TRANSCRIPT_COLUMNS = ["conv_id", "turn_idx", "role", "text"]
OPTIONAL_STORE_COLUMNS = ("tool", "ts")  # stored when the source has them


def optional_store_columns(path: str) -> tuple[str, ...]:
    """The optional docstore columns a source file carries (footer-only
    read).  One build declares ONE set (detected from its first fragment)
    and every fragment must match: heterogeneous docstore parts would
    break QueryEngine._doc_attrs / fetch_docs, which read all parts as a
    single pyarrow dataset with a fixed column list."""
    names = pq.ParquetFile(path).schema_arrow.names
    return tuple(c for c in OPTIONAL_STORE_COLUMNS if c in names)

# Run-file parquet encoding: all three columns are small/ordered ints
# (term_idx ascending, doc_id ascending within term, tf mostly 1), where
# DELTA_BINARY_PACKED beats dictionary+plain — measured 0.70x bytes at
# equal-or-faster encode AND decode on real runs.  Fewer bytes through the
# page cache / shared memory bus is the phase-A scaling lever.
_RUN_WRITE_KW = dict(
    row_group_size=131072,
    use_dictionary=False,
    column_encoding={"term_idx": "DELTA_BINARY_PACKED",
                     "doc_id": "DELTA_BINARY_PACKED",
                     "tf": "DELTA_BINARY_PACKED"},
)

# Docstore parts stream one fixed-size chunk (= one row group) at a time:
# phase A never holds a whole decoded fragment (text included) in heap, and
# the full-fragment concat+sort is gone.  Chunk boundaries are fixed
# multiples of this constant in FILE ORDER, so part bytes stay a pure
# function of the corpus regardless of tokenize_batch_size; each chunk is
# sorted by doc_id before writing, keeping row-group min/max statistics
# narrow for fetch_docs' predicate pushdown (rank mode; hash-mode ids are
# uniform so pruning was already whole-space per row group).
DOCSTORE_CHUNK_ROWS = 131072


# ---------------------------------------------------------------------------
# Phase A: fragment -> sorted runs + docstore part
# ---------------------------------------------------------------------------


class TokenizeFragmentWorker:
    """Actor-pool callable: per-fragment tokenize + run writing.

    Stateful setup (offset-table broadcast fetch, config) happens once per
    actor in ``__init__`` (SURVEY.md section 2.3 actor-pool pattern);
    ``__call__`` handles a batch of fragment descriptors.
    """

    def __init__(
        self, index_dir: str, cfg: PipelineConfig, offsets=None, id_space: int = 0,
        store_columns: tuple[str, ...] | None = None,
    ):
        import ray

        pa.set_cpu_count(1)  # one actor = one core; Arrow's own pool would
        # oversubscribe num_cpus-fold across the pool (sort_by, parquet IO)
        if offsets is not None and isinstance(offsets, ray.ObjectRef):
            offsets = ray.get(offsets)
        # broadcast ConvOffsets or DiskConvOffsets — same lookup contract
        self.offsets: dstore.ConvOffsets | dstore.DiskConvOffsets | None = offsets
        self.cfg = cfg
        self.paths = IndexPaths(index_dir)
        self.id_space = id_space  # doc ids live in [0, id_space)
        # the build's declared optional-column set (None = legacy
        # per-fragment autodetect, used by direct unit callers)
        self.store_columns = store_columns

    def _shard_of(self, doc_ids: np.ndarray) -> np.ndarray:
        if self.cfg.doc_id_mode in ("rank", "provided"):
            return shard_of_rank(doc_ids, self.id_space, self.cfg.num_shards)
        return shard_of_hash(doc_ids, self.cfg.num_shards)

    def _columns(self, schema_names: list[str] | None = None) -> list[str]:
        if self.cfg.doc_id_mode == "provided":
            base = [self.cfg.doc_id_col, self.cfg.text_col]
        else:
            base = list(TRANSCRIPT_COLUMNS)
        if schema_names is not None:
            # input_hint metadata columns (tool, ts) ride into the docstore
            # when the source has them: they back field-scoped search
            # (role=/tool= filters) and snippet fetch
            base += [c for c in OPTIONAL_STORE_COLUMNS
                     if c in schema_names and c not in base]
        return base

    def __call__(self, batch: pd.DataFrame) -> pd.DataFrame:
        out = [self.process_fragment(int(r.frag_id), r.path) for r in batch.itertuples()]
        return pd.DataFrame(out)

    def process_fragment(self, frag_id: int, path: str) -> dict:
        mpath = self.paths.frag_manifest(frag_id)
        if mpath.exists():
            m = json.loads(mpath.read_text())
            # resume only output of the SAME source file and fragment
            # format: a manifest from an older fragment format describes
            # runs the current merge may not understand — redo, don't trust
            if (m.get("path") == path
                    and m.get("version") == FRAG_FORMAT_VERSION):
                return m
        t0 = time.time()
        pf = pq.ParquetFile(path)
        shard_tables: dict[int, list[tuple[pa.Table, int]]] = {}
        batch_vocabs: list[pa.Array] = []
        dst = self.paths.docstore / f"part-{frag_id:05d}.parquet"
        dst_tmp = dst.with_name(dst.name + ".tmp")
        writer: pq.ParquetWriter | None = None
        buf: list[pa.Table] = []
        buf_rows = 0

        def flush_docstore(force: bool = False) -> None:
            # stream fixed-size chunks (file order) as sorted row groups —
            # bounded memory, deterministic bytes (see DOCSTORE_CHUNK_ROWS)
            nonlocal writer, buf, buf_rows
            while buf_rows >= DOCSTORE_CHUNK_ROWS or (force and buf_rows):
                cat = pa.concat_tables(buf) if len(buf) > 1 else buf[0]
                take = min(DOCSTORE_CHUNK_ROWS, buf_rows)
                rest = cat.slice(take)
                buf = [rest] if len(rest) else []
                buf_rows = len(rest)
                chunk = (cat.slice(0, take)
                         .sort_by([("doc_id", "ascending")]).combine_chunks())
                if writer is None:
                    writer = pq.ParquetWriter(
                        dst_tmp, chunk.schema,
                        compression="zstd", compression_level=1)
                writer.write_table(chunk, row_group_size=DOCSTORE_CHUNK_ROWS)

        n_turns = 0
        n_tokens = 0
        if self.store_columns is not None:
            frag_opt = tuple(c for c in OPTIONAL_STORE_COLUMNS
                             if c in pf.schema_arrow.names)
            if frag_opt != tuple(self.store_columns):
                raise ValueError(
                    f"fragment {path} carries optional docstore columns "
                    f"{frag_opt} but this build declared "
                    f"{tuple(self.store_columns)} (from its first fragment); "
                    f"heterogeneous docstore parts break field-scoped search "
                    f"— normalize the source schema or rebuild")
        frag_cols = self._columns(pf.schema_arrow.names)
        for rb in pf.iter_batches(
            batch_size=self.cfg.tokenize_batch_size, columns=frag_cols
        ):
            tbl = pa.Table.from_batches([rb])
            if self.cfg.doc_id_mode == "rank":
                doc_ids = dstore.assign_doc_ids_rank(tbl, self.offsets)
            elif self.cfg.doc_id_mode == "provided":
                doc_ids = np.asarray(tbl[self.cfg.doc_id_col], dtype=np.int64)
            else:
                doc_ids = dstore.assign_doc_ids_hash(tbl)
            text = tbl[self.cfg.text_col]
            post, dl, vocab = explode_with_dl_codes(
                doc_ids, text, self.cfg.with_positions, self.cfg.stopword_filter
            )
            store_cols = {"doc_id": pa.array(doc_ids, pa.int64())}
            for c in frag_cols:
                if c != self.cfg.doc_id_col:
                    store_cols[c] = tbl[c]
            store_cols["dl"] = pa.array(dl, pa.int32())
            buf.append(pa.table(store_cols))
            buf_rows += len(tbl)
            flush_docstore()
            n_turns += len(tbl)
            n_tokens += int(dl.sum())
            if len(post) == 0:
                continue
            shards = self._shard_of(np.asarray(post["doc_id"], dtype=np.int64))
            post = post.append_column("shard", pa.array(shards, pa.int32()))
            order = np.argsort(shards, kind="stable")
            post = post.take(order)
            uniq, starts = np.unique(shards[order], return_index=True)
            bounds = np.append(starts, len(post))
            bidx = len(batch_vocabs)
            batch_vocabs.append(vocab)
            for i, s in enumerate(uniq):
                shard_tables.setdefault(int(s), []).append(
                    (post.slice(bounds[i], bounds[i + 1] - bounds[i]).drop(["shard"]),
                     bidx)
                )
        # fragment-level vocab union + per-batch remap tables, computed ONCE
        # (string work is O(fragment vocab)); per-run encode is then pure
        # int32 gather/compact/sort
        frag_vocab = None
        gmaps: list[np.ndarray] = []
        if shard_tables:
            frag_vocab = pc.unique(pa.chunked_array(batch_vocabs))
            frag_vocab = frag_vocab.take(pc.sort_indices(frag_vocab))
            gmaps = [np.asarray(pc.index_in(v, value_set=frag_vocab),
                                dtype=np.int32) for v in batch_vocabs]
        run_files = []
        for s, parts in sorted(shard_tables.items()):
            runs_dir = self.paths.run_dir(s)
            runs_dir.mkdir(parents=True, exist_ok=True)
            fname = runs_dir / f"run-frag{frag_id:05d}.parquet"
            atomic_write_table(fname, _encode_run(parts, gmaps, frag_vocab),
                               **_RUN_WRITE_KW)
            run_files.append(str(fname))
        flush_docstore(force=True)
        if writer is not None:
            writer.close()
            os.replace(dst_tmp, dst)
        manifest = {
            "version": FRAG_FORMAT_VERSION,
            "frag_id": frag_id,
            "path": path,
            "n_turns": n_turns,
            "n_tokens": n_tokens,
            "n_runs": len(run_files),
            "run_files": json.dumps(run_files),
            "wall_s": round(time.time() - t0, 3),
        }
        atomic_write_json(mpath, manifest)
        return manifest


_RUN_VOCAB_KEY = b"run_vocab"


def _encode_run(parts: list[tuple[pa.Table, int]], gmaps: list[np.ndarray],
                frag_vocab: pa.Array) -> pa.Table:
    """Per-batch (code, doc_id, tf[, positions]) slices -> the run-file
    layout: ``term_idx`` int32 into a per-file SORTED vocabulary stored in
    the parquet footer metadata (newline-joined — tokens are ``[a-z0-9]+``,
    so '\\n' never occurs in a term).

    All per-row work is int32: each slice's batch-local codes gather
    through its precomputed batch->fragment map (``gmaps``, built once per
    fragment), then compact to the codes actually used by THIS shard's
    rows, so ascending term_idx == ascending term and the footer vocab
    covers the rows densely — the invariant both merge paths rely on.
    Strings are touched once per distinct term per fragment, never per
    row or per run.  Run bytes are identical to the former string-path
    encoder (same rows, same sorted vocab, same footer)."""
    remapped = []
    for tbl, bidx in parts:
        g = gmaps[bidx][np.asarray(tbl["code"], dtype=np.int32)]
        remapped.append(tbl.drop(["code"]).add_column(
            0, "term_idx", pa.array(g, pa.int32())))
    cat = pa.concat_tables(remapped)
    # compact to used codes: this run holds one shard's slice of the
    # fragment, so it may not touch every fragment-vocab entry
    gidx = np.asarray(cat["term_idx"], dtype=np.int32)
    used = np.unique(gidx)
    if len(used) != len(frag_vocab):
        dense = np.searchsorted(used, gidx).astype(np.int32)
        cat = cat.drop(["term_idx"]).add_column(
            0, "term_idx", pa.array(dense, pa.int32()))
        vocab_arr = frag_vocab.take(pa.array(used, pa.int32()))
    else:
        vocab_arr = frag_vocab
    # combine_chunks canonicalizes the in-memory layout before the write:
    # parquet page boundaries follow chunk boundaries, so without it run
    # BYTES would depend on the tokenize batch chunking (format v7 makes
    # runs single-chunk-canonical — reshard/compact rewrites then
    # reproduce fresh-build run bytes exactly)
    enc = cat.sort_by([("term_idx", "ascending"), ("doc_id", "ascending")]).combine_chunks()
    vocab_meta = "\n".join(vocab_arr.to_pylist()).encode("utf-8")
    return enc.replace_schema_metadata({_RUN_VOCAB_KEY: vocab_meta})


def _normalize_run_table(t: pa.Table) -> pa.Table:
    """Round-tripping a run file through parquet renames the positions
    list child field (arrow's 'item' -> parquet's 'element'), which would
    change the embedded ARROW:schema bytes on rewrite; cast back so
    compaction/reshard rewrites stay byte-identical to fresh runs."""
    if "positions" in t.column_names:
        i = t.schema.get_field_index("positions")
        t = t.set_column(i, "positions",
                         t["positions"].cast(pa.list_(pa.int32())))
    return t


def _run_vocab(pf: pq.ParquetFile) -> np.ndarray:
    meta = pf.schema_arrow.metadata or {}
    raw = meta.get(_RUN_VOCAB_KEY)
    if raw is None:
        raise ValueError(
            "run file missing run_vocab footer (written by an older format "
            "version?) — resume gating should have wiped it")
    txt = raw.decode("utf-8")
    return np.array(txt.split("\n"), dtype=object) if txt else np.zeros(0, object)


def _run_vocab_arrow(pf: pq.ParquetFile) -> pa.Array:
    """Footer vocab as an Arrow string array — the merge path unions and
    remaps vocabularies with C++ kernels (unique/sort_indices/index_in);
    terms are [a-z0-9]+ so Arrow's bytewise order equals Python's str
    order, keeping the merged vocab byte-identical."""
    meta = pf.schema_arrow.metadata or {}
    raw = meta.get(_RUN_VOCAB_KEY)
    if raw is None:
        raise ValueError(
            "run file missing run_vocab footer (written by an older format "
            "version?) — resume gating should have wiped it")
    txt = raw.decode("utf-8")
    return pa.array(txt.split("\n") if txt else [], pa.string())


# ---------------------------------------------------------------------------
# Phase B: k-way merge of a shard's sorted runs
# ---------------------------------------------------------------------------


def gather_segments(flat: np.ndarray, offsets: np.ndarray, order: np.ndarray) -> np.ndarray:
    """Reorder variable-length segments of ``flat`` (segment i =
    flat[offsets[i]:offsets[i+1]]) by ``order`` — fully vectorized gather."""
    lens = (offsets[1:] - offsets[:-1])[order]
    if lens.sum() == 0:
        return flat[:0]
    starts = offsets[:-1][order]
    out_starts = np.zeros(len(lens), dtype=np.int64)
    np.cumsum(lens[:-1], out=out_starts[1:])
    idx = np.repeat(starts - out_starts, lens) + np.arange(int(lens.sum()), dtype=np.int64)
    return flat[idx]


class RunCursor:
    """Streams one sorted run file row-group-by-row-group (bounded memory);
    exposes head term and extracts each term's (doc_id, tf[, positions])
    slice."""

    def __init__(self, path: str | Path, with_positions: bool = False):
        self.pf = pq.ParquetFile(path)
        self.with_positions = with_positions and "positions" in self.pf.schema_arrow.names
        # per-file sorted vocab decodes ONCE (footer metadata); row scans
        # then touch only int32 term indices — ascending idx == ascending
        # term by construction (_encode_run)
        self.vocab: np.ndarray = _run_vocab(self.pf)
        self.n_rg = self.pf.metadata.num_row_groups
        self.rg = 0
        self.pos = 0
        self.tidx: np.ndarray = np.zeros(0, dtype=np.int32)
        self.docs: np.ndarray = np.zeros(0, dtype=np.int64)
        self.tfs: np.ndarray = np.zeros(0, dtype=np.int32)
        self.pos_flat: np.ndarray = np.zeros(0, dtype=np.int32)
        self.pos_off: np.ndarray = np.zeros(1, dtype=np.int64)
        self._advance_rg()

    def _advance_rg(self) -> bool:
        cols = ["term_idx", "doc_id", "tf"] + (["positions"] if self.with_positions else [])
        while self.rg < self.n_rg:
            t = self.pf.read_row_group(self.rg, columns=cols)
            self.rg += 1
            if len(t):
                self.tidx = np.asarray(t["term_idx"], dtype=np.int32)
                self.docs = np.asarray(t["doc_id"], dtype=np.int64)
                self.tfs = np.asarray(t["tf"], dtype=np.int32)
                if self.with_positions:
                    la = t["positions"].combine_chunks()
                    self.pos_flat = np.asarray(la.flatten(), dtype=np.int32)
                    self.pos_off = np.asarray(la.offsets, dtype=np.int64)
                self.pos = 0
                return True
        self.tidx = np.zeros(0, dtype=np.int32)
        self.pos = 0
        return False

    @property
    def exhausted(self) -> bool:
        return self.pos >= len(self.tidx)

    def head_term(self) -> str | None:
        return None if self.exhausted else self.vocab[self.tidx[self.pos]]

    def take_term(self, term: str):
        """Collect all rows for ``term`` at the cursor head (may span row
        groups); advances the cursor past them.  Returns (docs, tfs, pflat)
        where pflat is None without positions.  One string compare per
        (term, row group); the row scan is an int32 searchsorted."""
        docs: list[np.ndarray] = []
        tfs: list[np.ndarray] = []
        pfl: list[np.ndarray] = []
        while not self.exhausted and self.vocab[self.tidx[self.pos]] == term:
            end = int(np.searchsorted(self.tidx, self.tidx[self.pos], side="right"))
            docs.append(self.docs[self.pos : end])
            tfs.append(self.tfs[self.pos : end])
            if self.with_positions:
                pfl.append(self.pos_flat[self.pos_off[self.pos] : self.pos_off[end]])
            self.pos = end
            if self.pos >= len(self.tidx):
                self._advance_rg()
        p = (np.concatenate(pfl) if len(pfl) != 1 else pfl[0]) if self.with_positions else None
        if len(docs) == 1:
            return docs[0], tfs[0], p
        return np.concatenate(docs), np.concatenate(tfs), p


class MergeShardWorker:
    """Actor-pool callable: merges one shard's runs into the final shard."""

    def __init__(self, index_dir: str, cfg: PipelineConfig, avgdl: float):
        pa.set_cpu_count(1)
        self.paths = IndexPaths(index_dir)
        self.cfg = cfg
        self.avgdl = avgdl

    def __call__(self, batch: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame([self.merge_shard(int(s)) for s in batch["shard_id"]])

    def merge_shard(self, shard_id: int) -> dict:
        return self.encode(shard_id, self.merge_data(shard_id))

    def merge_data(self, shard_id: int):
        """avgdl-independent half: read+merge the shard's runs (resume-aware).
        Split from ``encode`` so pipelined builds can merge a shard as soon
        as its contributing fragments finish, before the global avgdl (a
        reduce over ALL fragments) is known."""
        final = self.paths.shard_dir(shard_id)
        mpath = final / "manifest.json"
        if mpath.exists():
            m = json.loads(mpath.read_text())
            # a completed shard from an OLDER format version is stale, not
            # done — fall through and re-merge over it (atomic rewrites)
            if m.get("version") == INDEX_FORMAT_VERSION:
                return ("skip", {k: m[k] for k in ("shard_id", "n_terms", "n_postings", "n_docs", "postings_bytes", "wall_s")})
        run_files = sorted(str(p) for p in self.paths.run_dir(shard_id).glob("run-*.parquet"))
        wp = self.cfg.with_positions
        run_bytes = sum(Path(f).stat().st_size for f in run_files)
        if run_bytes <= self.cfg.streaming_merge_threshold:
            merged = self._merge_sort_path(run_files, wp)
        else:
            # streaming path: a separate column-pruned pass computes dl
            # before the bounded-memory cursor merge
            merged = self._merge_streaming_path(run_files, wp)
        terms_a, starts_a, docs_a, tfs_a, posf = merged
        # per-doc lengths from the merged postings themselves (dl = sum of
        # tfs — exact because dl counts exactly the indexed tokens)
        if len(docs_a):
            doc_ids, inverse = np.unique(docs_a, return_inverse=True)
            dl = np.bincount(inverse, weights=tfs_a.astype(np.int64)).astype(np.int32)
            base = int(doc_ids[0])
        else:
            doc_ids = np.zeros(0, dtype=np.int64)
            dl = np.zeros(0, dtype=np.int32)
            base = 0
        return (
            "data",
            {
                "terms": terms_a, "starts": starts_a, "docs": docs_a, "tfs": tfs_a,
                "posf": posf, "doc_ids": doc_ids, "dl": dl, "base": base,
                "run_files": run_files,
            },
        )

    def encode(self, shard_id: int, data) -> dict:
        kind, payload = data
        if kind == "skip":
            return payload
        final = self.paths.shard_dir(shard_id)
        m = write_shard(
            final, shard_id, self.cfg, self.avgdl, payload["base"],
            payload["terms"], payload["starts"], payload["docs"], payload["tfs"],
            payload["doc_ids"], payload["dl"], {"run_files": payload["run_files"]},
            positions_flat=payload["posf"],
        )
        return {k: m[k] for k in ("shard_id", "n_terms", "n_postings", "n_docs", "postings_bytes", "wall_s")}

    def _merge_sort_path(self, run_files: list[str], wp: bool):
        """In-memory merge: per-run local term indices remap onto the union
        vocabulary (vocab-sized string work), then ONE C++ sort on
        (int32 gidx, doc_id) — no string column is ever materialized or
        compared per row.  Byte-identical to the streaming path (unique
        (term, doc_id) keys => one total order); preferred while the
        shard's runs fit in memory (~10x faster than a Python
        term-at-a-time cursor loop — measured on 1M-posting shards)."""
        cols = ["term_idx", "doc_id", "tf"] + (["positions"] if wp else [])
        tables: list[pa.Table] = []
        vocabs: list[pa.Array] = []
        for f in run_files:
            pf = pq.ParquetFile(f)
            t = pf.read(columns=cols)
            if len(t):
                tables.append(t)
                vocabs.append(_run_vocab_arrow(pf))
        if not tables:
            return (pa.array([], pa.string()), np.zeros(0, np.int64),
                    np.zeros(0, np.int64), np.zeros(0, np.int32),
                    np.zeros(0, np.int32) if wp else None)
        # sorted union + per-run remap in Arrow C++ (unique/sort/index_in):
        # the former np-object unique+searchsorted ran Python string
        # compares and was ~40% of merge_data (profiled)
        uniq = pc.unique(pa.chunked_array(vocabs))
        uniq = uniq.take(pc.sort_indices(uniq))
        remapped = []
        for t, v in zip(tables, vocabs):
            gmap = np.asarray(pc.index_in(v, value_set=uniq), dtype=np.int32)
            g = gmap[np.asarray(t["term_idx"], dtype=np.int32)]
            remapped.append(t.drop(["term_idx"]).add_column(
                0, "gidx", pa.array(g, pa.int32())))
        cat = pa.concat_tables(remapped).combine_chunks()
        srt = cat.sort_by([("gidx", "ascending"), ("doc_id", "ascending")])
        codes = np.asarray(srt["gidx"], dtype=np.int64)
        # keep terms as an Arrow array: it may cross a task boundary in the
        # pipelined build, and Arrow serializes ~free vs pickling an object
        # array of Python strings (measured: erased the pipelining win);
        # every vocab entry occurs in its own run, so codes cover the
        # vocab densely and boundaries line up 1:1 with the union
        terms_a = uniq
        starts_a = np.flatnonzero(np.r_[True, codes[1:] != codes[:-1]]).astype(np.int64)
        docs_a = np.asarray(srt["doc_id"], dtype=np.int64)
        tfs_a = np.asarray(srt["tf"], dtype=np.int32)
        posf = None
        if wp:
            la = srt["positions"].combine_chunks()
            posf = np.asarray(la.flatten(), dtype=np.int32)
        return terms_a, starts_a, docs_a, tfs_a, posf

    def _merge_streaming_path(self, run_files: list[str], wp: bool):
        """Bounded-memory streaming k-way, term-at-a-time merge over run
        cursors (row-group granularity) — the scale path for shards whose
        runs exceed cfg.streaming_merge_threshold."""
        cursors = [RunCursor(f, wp) for f in run_files]
        terms: list[str] = []
        starts: list[int] = []
        doc_chunks: list[np.ndarray] = []
        tf_chunks: list[np.ndarray] = []
        pos_chunks: list[np.ndarray] = []
        pos = 0
        while True:
            heads = [c.head_term() for c in cursors if not c.exhausted]
            if not heads:
                break
            term = min(heads)
            parts = [c.take_term(term) for c in cursors if c.head_term() == term]
            if len(parts) == 1:
                d, tf, pf = parts[0]
            else:
                d = np.concatenate([p[0] for p in parts])
                tf = np.concatenate([p[1] for p in parts])
                order = np.argsort(d, kind="stable")
                if wp:
                    cat = np.concatenate([p[2] for p in parts])
                    offs = np.zeros(len(tf) + 1, dtype=np.int64)
                    np.cumsum(tf.astype(np.int64), out=offs[1:])
                    pf = gather_segments(cat, offs, order)
                d, tf = d[order], tf[order]
            terms.append(term)
            starts.append(pos)
            doc_chunks.append(d)
            tf_chunks.append(tf)
            if wp:
                pos_chunks.append(pf)
            pos += len(d)
        return (
            pa.array(terms, pa.string()),
            np.array(starts, dtype=np.int64),
            np.concatenate(doc_chunks) if doc_chunks else np.zeros(0, np.int64),
            np.concatenate(tf_chunks) if tf_chunks else np.zeros(0, np.int32),
            (np.concatenate(pos_chunks) if pos_chunks else np.zeros(0, np.int32))
            if wp else None,
        )


# ---------------------------------------------------------------------------
# Orchestration
# ---------------------------------------------------------------------------


@dataclass
class BuildResult:
    index_dir: str
    n_docs: int
    total_tokens: int
    avgdl: float
    n_shards: int
    n_fragments: int
    wall_s: float


def _run_pipelined(
    corpus_files: list[str],
    index_dir: str,
    cfg: PipelineConfig,
    offsets_arg,
    id_space: int,
    n_docs_hint: int,
    frag_ranges: dict[int, tuple[int, int]] | None,
    store_columns: tuple[str, ...] | None = None,
) -> tuple[int, int, float]:
    """Dependency-aware build DAG (raw Ray tasks — the one structure the
    Dataset API cannot express): shard ``s`` merges as soon as the
    fragments whose doc ranges overlap ``s`` finish, overlapping phases A
    and B on the critical path; only the tiny avgdl reduce (stamped into
    each shard manifest) waits on all fragments, gating just the final
    encode step.  In hash mode every fragment can touch every shard, so
    merges degrade to the full barrier."""
    import ray

    from horus_ner_ray.util import worker_runtime_env

    env = worker_runtime_env()
    # per-task CPU reservation caps the per-node count of concurrent
    # memory-bound build tasks (config.build_task_cpus)
    ncpu = max(1, int(getattr(cfg, "build_task_cpus", 1)))

    def mk(fn):
        r = ray.remote(num_cpus=ncpu)(fn)
        return r.options(runtime_env=env) if env else r

    frag_t, stats_t, data_t, enc_t = (
        mk(_frag_remote), mk(_stats_reduce_remote), mk(_merge_data_remote), mk(_encode_remote)
    )
    frag_refs = [
        frag_t.remote(index_dir, cfg, offsets_arg, id_space, i, p, store_columns)
        for i, p in enumerate(corpus_files)
    ]
    stats_ref = stats_t.remote(cfg.doc_id_mode, n_docs_hint, *frag_refs)

    S = cfg.num_shards
    enc_refs = []
    for s in range(S):
        if frag_ranges is not None and id_space > 0:
            deps = [
                frag_refs[i]
                for i, (lo, hi) in frag_ranges.items()
                if hi > lo and (lo * S) // id_space <= s <= ((hi - 1) * S) // id_space
            ]
        else:
            deps = frag_refs
        data_ref = data_t.remote(index_dir, cfg, s, *deps)
        enc_refs.append(enc_t.remote(index_dir, cfg, stats_ref, s, data_ref))
    ray.get(enc_refs)
    return ray.get(stats_ref)


def _map_items(items: list[dict], worker_cls, ctor_kwargs: dict,
               concurrency=None, blocks: int | None = None) -> pd.DataFrame:
    """Run worker_cls over items — Ray Data stateless tasks when Ray is up,
    sequential local fallback otherwise (unit tests without a session).

    Tasks, not an actor pool: worker state is one broadcast ObjectRef whose
    ray.get is a zero-copy plasma read per task, while an actor pool sized
    to the cluster pays one actor spawn per slot per phase — measured, that
    spawn cost inverted the 8-vs-32-CPU scaling on small inputs.  The
    mmap-holding query scorers stay actors (pipelines/query.py).

    ``blocks`` coarsens the task granularity (several items per task) for
    cheap per-item work where one-task-per-item is pure scheduling
    overhead — the conv-count scan measured ~2 s of overhead on ~0.2 s of
    real read work at 256 single-item tasks."""
    import ray

    if ray.is_initialized():
        import ray.data as rd

        from horus_ner_ray.util import worker_runtime_env

        def run_items(batch: pd.DataFrame) -> pd.DataFrame:
            return worker_cls(**ctor_kwargs)(batch)

        nb = len(items) if blocks is None else max(1, min(blocks, len(items)))
        ds = rd.from_items(items, override_num_blocks=nb).map_batches(
            run_items,
            batch_format="pandas",
            batch_size=1 if blocks is None else None,
            num_cpus=1,
            runtime_env=worker_runtime_env(),
        )
        return ds.to_pandas()
    w = worker_cls(**ctor_kwargs)
    return w(pd.DataFrame(items))


# Config fields that do NOT affect index bytes (execution sizing, unrelated
# dedupe knobs) — changing them must not invalidate resumable state.  Both
# merge paths are byte-identical (tested), so the merge threshold is safe.
_JOB_NEUTRAL_FIELDS = frozenset({
    "tokenize_batch_size", "merge_concurrency", "query_concurrency",
    "streaming_merge_threshold", "minhash_perms", "minhash_bands",
    "shingle_k", "simhash_bits", "seed",
    # offset-backend choice is routing only: both backends produce
    # byte-identical doc ids (tested), so it must not invalidate resume
    "conv_offsets_backend", "conv_offsets_disk_threshold",
    "build_task_cpus",
})


def _job_identity(corpus_files: list[str], cfg: PipelineConfig) -> dict:
    from dataclasses import asdict

    c = {k: v for k, v in asdict(cfg).items() if k not in _JOB_NEUTRAL_FIELDS}
    c["stopword_filter"] = list(cfg.stopword_filter)
    return {
        "format_version": INDEX_FORMAT_VERSION,
        "corpus_files": [str(p) for p in corpus_files],
        "config": c,
    }


def _gate_resume_state(paths: IndexPaths, identity: dict) -> None:
    """Resume applies only to the SAME job: identical corpus list,
    output-affecting config, and index format version.  Anything else —
    different shard count (orphan shard dirs would linger and be served),
    different corpus (stale runs would merge in), older engine format
    (unreadable shards) — wipes the derived state and starts clean.
    ``job.json`` is written before any derived output, so a killed first
    run resumes; a job change never resumes by accident."""
    jp = paths.root / "job.json"
    # a crashed reshard leaves re-split runs with stale stats/job: never
    # resume over that state — wipe and start clean (self-healing; the
    # marker also blocks QueryEngine/append/compact until then)
    mid_reshard = (paths.root / "resharding.json").exists()
    old_corpus = None  # the previous job's corpus list, if readable
    if jp.exists():
        try:
            old = json.loads(jp.read_text())
            old_corpus = old.get("corpus_files")
            if old == identity and not mid_reshard:
                return
        except (json.JSONDecodeError, OSError):
            pass
    import shutil

    from horus_ner_ray.pipelines.delete import TOMBSTONE_FILE

    for d in (paths.runs, paths.shards, paths.docstore, paths.offsets):
        if d.exists():
            shutil.rmtree(d)
    wipe_files = [paths.stats_json, paths.df_parquet]
    # tombstones are doc-keyed USER state: they survive same-corpus job
    # changes (config/shard-count changes, the mid-reshard self-heal —
    # doc ids are a pure function of the corpus, so the deletions stay
    # valid) but must clear when the CORPUS changes: stale ids would
    # silently mask new-corpus docs sharing (conv_id, turn_idx) hash ids
    # or provided ids.  Unknown provenance (no readable prior job) also
    # clears — a tombstone table that can't be tied to this corpus is
    # not trustworthy.
    if old_corpus != identity["corpus_files"]:
        wipe_files.append(paths.root / TOMBSTONE_FILE)
    for f in wipe_files:
        if f.exists():
            f.unlink()
    # the mid-reshard marker lifts only AFTER the wipe completes: a crash
    # mid-wipe must leave it in place so the next run wipes again instead
    # of resuming over half-removed re-split runs (and engines keep
    # refusing the incomplete index meanwhile)
    (paths.root / "resharding.json").unlink(missing_ok=True)
    paths.ensure()
    atomic_write_json(jp, identity)


def build_index(
    corpus_files: list[str],
    index_dir: str | Path,
    cfg: PipelineConfig | None = None,
    concurrency: int | None = None,
) -> BuildResult:
    """Full build over a list of transcript Parquet fragments."""
    import ray

    cfg = cfg or PipelineConfig()
    t0 = time.time()
    paths = IndexPaths(index_dir)
    paths.ensure()
    _gate_resume_state(paths, _job_identity(corpus_files, cfg))
    paths.clean_tmp()

    # Phase 0: conv offsets (rank mode).  Backend by corpus size (free
    # footer metadata): 'broadcast' materializes one row per conv on the
    # driver and ray.puts the whole table (fastest while convs fit);
    # 'disk' builds a range-partitioned on-disk table with a distributed
    # groupby — the driver holds only P range totals and the per-fragment
    # doc ranges come from two offset lookups per fragment, so NOTHING
    # driver-side scales with conversation count.  Byte-identical doc ids
    # either way (tested).  Provided mode: id-space bounds from Parquet
    # row-group statistics only.
    offsets = None
    n_docs = 0
    id_space = 0
    offsets_arg = None
    frag_ranges: dict[int, tuple[int, int]] | None = None
    if cfg.doc_id_mode == "rank":
        total_turns = sum(pq.ParquetFile(p).metadata.num_rows for p in corpus_files)
        # 'auto' escalates only under a live Ray session: the disk build is
        # a Ray Data pipeline, and the sequential no-session fallback must
        # not trigger Ray auto-init (the driver owns the session)
        import ray as _ray

        use_disk = cfg.conv_offsets_backend == "disk" or (
            cfg.conv_offsets_backend == "auto"
            and total_turns > cfg.conv_offsets_disk_threshold
            and _ray.is_initialized()
        )
        if use_disk:
            offsets = dstore.build_disk_offsets(corpus_files, paths.offsets)
            n_docs = offsets.n_docs
            id_space = n_docs
            offsets_arg = ray.put(offsets) if ray.is_initialized() else offsets
            frag_ranges = _frag_doc_ranges_rank_disk(
                corpus_files, offsets, concurrency)
        else:
            items0 = [{"frag_id": i, "path": p} for i, p in enumerate(corpus_files)]
            parts = _map_items(items0, _ConvCountWorker, {}, concurrency,
                               blocks=2 * (concurrency or 16))
            # Arrow C++ hash group-by over the conv partials: the pandas
            # object group-by here was ~0.5 s of SERIAL driver time at bench
            # scale — fixed cost paid identically at every parallelism
            # level, i.e. pure scaling-efficiency loss
            gt = (pa.Table.from_pandas(parts[["conv_id", "n"]])
                  .group_by("conv_id", use_threads=False)
                  .aggregate([("n", "sum")]))
            offsets = dstore.offsets_from_counts(
                np.asarray(gt["conv_id"], dtype=object),
                np.asarray(gt["n_sum"], dtype=np.int64),
            )
            n_docs = offsets.n_docs
            id_space = n_docs
            offsets_arg = ray.put(offsets) if ray.is_initialized() else offsets
            frag_ranges = _frag_doc_ranges_rank(parts, offsets)
    elif cfg.doc_id_mode == "provided":
        n_docs, id_space = _scan_id_space(corpus_files, cfg.doc_id_col)
        frag_ranges = _frag_doc_ranges_provided(corpus_files, cfg.doc_id_col)

    # one declared optional-column set per build (from the first fragment);
    # every other fragment is validated against it inside the worker
    store_cols_decl = optional_store_columns(corpus_files[0]) if corpus_files else ()

    if ray.is_initialized():
        n_docs, total_tokens, avgdl = _run_pipelined(
            corpus_files, str(index_dir), cfg, offsets_arg, id_space, n_docs,
            frag_ranges, store_cols_decl
        )
    else:
        # sequential local fallback (unit paths without a Ray session)
        items = [{"frag_id": i, "path": p} for i, p in enumerate(corpus_files)]
        frag_mani = _map_items(
            items,
            TokenizeFragmentWorker,
            {"index_dir": str(index_dir), "cfg": cfg, "offsets": offsets_arg,
             "id_space": id_space, "store_columns": store_cols_decl},
            concurrency,
        )
        total_tokens = int(frag_mani["n_tokens"].sum())
        if cfg.doc_id_mode == "hash":
            n_docs = int(frag_mani["n_turns"].sum())
        avgdl = total_tokens / n_docs if n_docs else 0.0
        _map_items(
            [{"shard_id": s} for s in range(cfg.num_shards)],
            MergeShardWorker,
            {"index_dir": str(index_dir), "cfg": cfg, "avgdl": avgdl},
            concurrency or cfg.merge_concurrency,
        )

    # Phase C: global stats + df table (vocab-sized per-shard dict groupby).
    _write_df_table(paths, cfg)
    from dataclasses import asdict

    stats = {
        "n_docs": n_docs,
        "total_tokens": total_tokens,
        "avgdl": avgdl,
        "n_shards": cfg.num_shards,
        "doc_id_mode": cfg.doc_id_mode,
        "k1": cfg.k1,
        "b": cfg.b,
        "with_positions": cfg.with_positions,
        "n_fragments": len(corpus_files),
        "corpus_files": corpus_files,
        "store_columns": list(store_cols_decl),
        # the FULL build config: append_fragments must re-tokenize new
        # fragments and re-encode shards with exactly the original knobs
        # (stopword_filter, postings_block, ...) or the result
        # silently diverges from a from-scratch build
        "config": {**asdict(cfg), "stopword_filter": list(cfg.stopword_filter)},
    }
    atomic_write_json(paths.stats_json, stats)
    return BuildResult(
        str(index_dir), n_docs, total_tokens, avgdl, cfg.num_shards, len(corpus_files),
        round(time.time() - t0, 3),
    )


def append_fragments(
    index_dir: str | Path,
    new_files: list[str],
    concurrency: int | None = None,
) -> BuildResult:
    """Incremental append: add new transcript fragments to an existing
    hash-mode index without re-tokenizing what's already indexed.

    The reference's cache is incremental the same way — probe-then-insert
    per term with ``processed`` flags (reference:
    src/core/feature_extraction/util.py:947-1016, horus0.1.5.db.sql:123-131).
    Here the ``processed`` flag is the per-fragment run manifest: phase A
    (tokenize + run writing, the dominant cost) runs ONLY for the new
    fragments; phase B re-merges shards from the persisted run files — a
    full re-merge is required regardless of layout, because new hash-mode
    docs can land in every shard and appending docs changes the avgdl
    every shard manifest records.  Output is byte-identical to a
    from-scratch build over old+new (determinism invariant; tested).

    Hash mode only: hash doc ids are a pure per-row function, so existing
    ids never move.  Rank mode is refused — dense rank ids shift when new
    conversations interleave the sorted conv_id order, which would silently
    re-key already-published docstore rows.
    """
    paths = IndexPaths(index_dir)
    if (paths.root / "resharding.json").exists():
        raise RuntimeError(
            "index is mid-reshard (resharding.json present): runs are "
            "re-split for the new shard count while stats still claim the "
            "old one — re-run reshard_index to finish, then append")
    stats = json.loads(paths.stats_json.read_text())
    if stats["doc_id_mode"] != "hash":
        raise ValueError(
            "append_fragments requires doc_id_mode='hash'; rank-mode doc ids "
            "are dense ranks over sorted conv_ids and shift when new "
            "conversations are inserted — rebuild instead"
        )
    old_files = list(stats["corpus_files"])
    dup = set(new_files) & set(old_files)
    if dup:
        raise ValueError(f"fragments already indexed: {sorted(dup)[:3]}")
    # appended fragments must carry exactly the index's declared optional
    # docstore columns — a fragment that adds or drops tool/ts would write
    # mixed-schema docstore parts that _doc_attrs/fetch_docs (fixed column
    # list over all parts) cannot read.  Fail loudly up front.
    declared = tuple(stats.get("store_columns")
                     or (optional_store_columns(old_files[0]) if old_files else ()))
    for p in new_files:
        got = optional_store_columns(p)
        if got != declared:
            raise ValueError(
                f"append_fragments: {p} carries optional docstore columns "
                f"{got} but the index declared {declared}; normalize the "
                f"source schema or rebuild")
    cfg = PipelineConfig.from_saved(stats["config"])
    import shutil

    # invalidate merged shards (runs persist; new stats force re-encode)
    for d in paths.shards.glob("shard-*"):
        shutil.rmtree(d)
    # pre-authorize the extended job: append IS a job change (superset
    # corpus, same config), validated above — without this, build_index's
    # resume gate would see a corpus mismatch and wipe the persisted runs
    # the whole incremental design exists to keep
    atomic_write_json(paths.root / "job.json",
                      _job_identity(old_files + new_files, cfg))
    res = build_index(old_files + new_files, index_dir, cfg, concurrency)
    # a compacted index's runs derive from a FILTERED corpus even though
    # stats list the original files; re-stamp the compaction generation
    # (build_index rewrote stats/job.json without it) so a later direct
    # build_index over those original files wipes and rebuilds clean
    # instead of silently resuming the filtered runs.  Future appends
    # rewrite job.json themselves first, so the marker never blocks them.
    gen = stats.get("compaction_gen")
    if gen:
        for p in (paths.stats_json, paths.root / "job.json"):
            d = json.loads(p.read_text())
            d["compaction_gen"] = gen
            atomic_write_json(p, d)
    return res


class _ConvMinMaxWorker:
    """Disk-backend phase 0: per-fragment (frag_id, min/max conv_id,
    n_turns) — ONE row per fragment back to the driver, never per conv."""

    def __call__(self, batch: pd.DataFrame) -> pd.DataFrame:
        outs = []
        for r in batch.itertuples():
            t = pq.read_table(r.path, columns=["conv_id"])
            # numpy has no unicode min/max ufunc; one C-level sort instead
            c = np.sort(np.asarray(t["conv_id"], dtype=str))
            outs.append({
                "frag_id": int(r.frag_id),
                "cmin": str(c[0]) if len(c) else "",
                "cmax": str(c[-1]) if len(c) else "",
                "n": len(c),
            })
        return pd.DataFrame(outs)


def _frag_doc_ranges_rank_disk(
    corpus_files: list[str], offsets: "dstore.DiskConvOffsets",
    concurrency=None,
) -> dict[int, tuple[int, int]]:
    """frag_id -> [doc_lo, doc_hi) via two offset lookups per fragment:
    lo = offset(min conv), hi = offset(max conv) + total turns of that conv
    (the GLOBAL count — a conversation split across fragments still yields
    a covering range for each).  Driver cost is O(#fragments) rows plus a
    budget-bounded walk of the touched offset ranges."""
    items = [{"frag_id": i, "path": p} for i, p in enumerate(corpus_files)]
    mm = _map_items(items, _ConvMinMaxWorker, {}, concurrency,
                    blocks=2 * (concurrency or 16))
    mm = mm[mm["n"] > 0].sort_values("cmin", kind="stable")  # range-locality
    if len(mm) == 0:
        return {}
    lo = offsets.lookup(mm["cmin"].to_numpy(dtype=object))
    hi_off, hi_cnt = offsets.lookup_with_counts(mm["cmax"].to_numpy(dtype=object))
    return {
        int(f): (int(a), int(b))
        for f, a, b in zip(mm["frag_id"].to_numpy(np.int64), lo, hi_off + hi_cnt)
    }


class _ConvCountWorker:
    """Per-fragment (frag_id, conv_id, n_turns) partials for the offset
    table; frag_id also yields per-fragment doc ranges for the pipelined
    build's shard-dependency analysis."""

    def __call__(self, batch: pd.DataFrame) -> pd.DataFrame:
        outs = []
        for r in batch.itertuples():
            t = pq.read_table(r.path, columns=["conv_id"])
            g = t.group_by("conv_id", use_threads=False).aggregate([("conv_id", "count")])
            outs.append(
                pd.DataFrame(
                    {
                        "frag_id": int(r.frag_id),
                        "conv_id": g["conv_id"].to_pandas(),
                        "n": g["conv_id_count"].to_pandas(),
                    }
                )
            )
        return pd.concat(outs, ignore_index=True)


# --- pipelined build: plain functions wrapped with ray.remote ------------


def _frag_remote(index_dir: str, cfg, offsets, id_space: int, frag_id: int, path: str,
                 store_columns=None):
    w = TokenizeFragmentWorker(index_dir, cfg, offsets=offsets, id_space=id_space,
                               store_columns=store_columns)
    return w.process_fragment(frag_id, path)


def _stats_reduce_remote(doc_id_mode: str, n_docs_hint: int, *frag_manis):
    total_tokens = int(sum(m["n_tokens"] for m in frag_manis))
    n_docs = n_docs_hint
    if doc_id_mode == "hash":
        n_docs = int(sum(m["n_turns"] for m in frag_manis))
    return (n_docs, total_tokens, total_tokens / n_docs if n_docs else 0.0)


def _merge_data_remote(index_dir: str, cfg, shard_id: int, *_frag_deps):
    return MergeShardWorker(index_dir, cfg, 0.0).merge_data(shard_id)


def _encode_remote(index_dir: str, cfg, stats_tuple, shard_id: int, data):
    return MergeShardWorker(index_dir, cfg, stats_tuple[2]).encode(shard_id, data)


def _frag_doc_ranges_rank(parts: pd.DataFrame, offsets: dstore.ConvOffsets) -> dict[int, tuple[int, int]]:
    """frag_id -> [doc_lo, doc_hi) from the conv-count partials.

    ``hi`` for each conversation uses the conversation's TOTAL turn count
    across ALL fragments, not the per-fragment count: doc_id = offset +
    turn_idx, so a fragment holding the later turns of a conversation that
    straddles a fragment boundary owns doc ids anywhere in
    [offset, offset + total_n).  Using the per-fragment count would omit
    such a fragment from some shards' dependency lists and let a shard
    merge run before all of its run files exist (schedule-dependent,
    silently incomplete shards).  The conservative full-conversation span
    only widens dependency lists, never narrows them.

    Vectorized over the sorted offset table (one searchsorted; a conv's
    total is the gap to the NEXT conv's offset) — the former per-row
    pandas map + object-group transform was serial driver time paid at
    every parallelism level."""
    arr = parts["conv_id"].to_numpy(dtype=str)
    idx = np.searchsorted(offsets.conv_ids, arr)
    lo = offsets.offsets[idx]
    ends = np.append(offsets.offsets[1:], offsets.n_docs)
    hi = ends[idx]
    df = pd.DataFrame({"frag_id": parts["frag_id"].to_numpy(np.int64),
                       "lo": lo, "hi": hi})
    g = df.groupby("frag_id").agg(lo=("lo", "min"), hi=("hi", "max"))
    return {int(i): (int(r.lo), int(r.hi)) for i, r in g.iterrows()}


def _frag_doc_ranges_provided(files: list[str], col: str) -> dict[int, tuple[int, int]]:
    out = {}
    for i, f in enumerate(files):
        md = pq.ParquetFile(f).metadata
        ci = md.schema.to_arrow_schema().get_field_index(col)
        lo, hi = None, None
        for rg in range(md.num_row_groups):
            st = md.row_group(rg).column(ci).statistics
            if st is None or not st.has_min_max:
                t = pq.read_table(f, columns=[col])
                arr = np.asarray(t[col], dtype=np.int64)
                lo, hi = int(arr.min()), int(arr.max()) + 1
                break
            lo = int(st.min) if lo is None else min(lo, int(st.min))
            hi = int(st.max) + 1 if hi is None else max(hi, int(st.max) + 1)
        out[i] = (lo or 0, hi or 0)
    return out


def _scan_id_space(files: list[str], col: str) -> tuple[int, int]:
    """(row count, max_id + 1) from Parquet footer statistics — no data read."""
    n = 0
    hi = 0
    for f in files:
        md = pq.ParquetFile(f).metadata
        n += md.num_rows
        ci = md.schema.to_arrow_schema().get_field_index(col)
        for rg in range(md.num_row_groups):
            st = md.row_group(rg).column(ci).statistics
            if st is not None and st.has_min_max:
                hi = max(hi, int(st.max) + 1)
            else:  # no stats: fall back to reading the column
                t = pq.read_table(f, columns=[col])
                hi = max(hi, int(np.asarray(t[col]).max()) + 1)
                break
    return n, hi


def _write_df_table(paths: IndexPaths, cfg: PipelineConfig) -> None:
    """Global (term, df, cf): sum of per-shard dict entries.  Vocab-sized —
    at sandbox scale a single Arrow group_by; at 10^12-turn scale this is a
    Ray Data ``read_parquet(dicts).groupby('term')`` with the same schema."""
    dict_files = [d / "dict.parquet" for d in paths.published_shards()
                  if (d / "dict.parquet").exists()]
    tbls = [pq.read_table(f, columns=["term", "df", "cf"]) for f in dict_files]
    tbls = [t for t in tbls if len(t)]
    if not tbls:
        atomic_write_table(
            paths.df_parquet,
            pa.table({"term": pa.array([], pa.string()), "df": pa.array([], pa.int64()), "cf": pa.array([], pa.int64())}),
        )
        return
    cat = pa.concat_tables(tbls)
    g = (
        cat.group_by("term", use_threads=False)
        .aggregate([("df", "sum"), ("cf", "sum")])
        .sort_by([("term", "ascending")])
    )
    atomic_write_table(
        paths.df_parquet,
        pa.table({"term": g["term"], "df": g["df_sum"], "cf": g["cf_sum"]}),
    )
