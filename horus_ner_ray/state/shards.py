"""Sharded inverted-index file format, lineage manifests, atomic writes.

The global index is **document-partitioned**: shard ``s`` holds the complete
posting data for a contiguous doc_id range.  This is the load-bearing
skew/scale decision (SURVEY.md section 7.4 "hot-term posting lists"): a term
with df == N ("sessionmark", role-token-class stopwords) is split across all
S shards *by construction* — no single group ever materializes a corpus-wide
posting list, and query-time top-k becomes per-shard heaps + a tiny global
merge.  The doc-range split plays the role the north-star assigns to
"salting" of the groupby-term shuffle: the salt is the doc range, applied
uniformly, and the per-term k-way merge happens inside each shard across the
per-input-fragment sorted runs (pipelines/build_index.py).

Shard directory layout (written to a temp dir, ``os.replace``d into place so
partially-written shards are invisible — SURVEY.md section 7.4 resume):

    shard-00042/
      postings.bin    per term: [FoR gap varints of doc_ids][varints of tfs]
      dict.parquet    term-sorted: term, df, cf, offsets/lengths,
                      per-block last doc_id / byte offsets (lists)
      docids.npy      sorted doc_ids present in this shard (int64)
      dl.npy          document length per docids entry (int32)
      manifest.json   lineage: run files merged, counts, bytes, wall, params

The reference's analogue of this whole module is a single SQLite file acting
as term dictionary + posting store + resume log (reference:
horus0.1.5.db.sql:2-139, src/core/feature_extraction/util.py:947-1016);
here the term dictionary is dict.parquet, postings are the compressed blob,
and resume is the per-shard/per-fragment manifest files.
"""

from __future__ import annotations

import json
import mmap
import os
import shutil
import time
from pathlib import Path

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from horus_ner_ray.config import PipelineConfig
from horus_ner_ray.state import codec

# v4: run files carry int32 term_idx + footer vocab (dictionary-encoded
# term column) instead of a per-row term string; shard bytes unchanged
# v5: run files use DELTA_BINARY_PACKED column encoding (term_idx ascending,
# doc_id ascending-within-term, tf small) — measured 0.70x bytes at equal-or-
# faster encode+decode; docstore parts stream per fixed-size chunk (sorted
# within chunk) instead of one full-fragment sort.  Shard bytes unchanged.
# v6: docstore parts additionally carry the source's tool/ts columns when
# present (field-scoped search filters + snippet fetch).
# v8: dict.parquet drops the block_max, champ_docs/champ_tfs, block_n and
# max_tf columns (OR scoring is one exact pass; AND block skipping reads only
# block_last and the block byte offsets).  Run files, docstore parts and
# fragment manifests are unchanged.
INDEX_FORMAT_VERSION = 8
# Fragment state (run files, docstore parts, _frag-*.json manifests) has its
# own version, bumped only when that state changes: v8 changed shards alone,
# so fragment state written at v7 (including a compacted index's filtered
# runs, which the original corpus can no longer reproduce) resumes and
# merges as is instead of being re-tokenized.
FRAG_FORMAT_VERSION = 7


def shard_of_rank(doc_ids: np.ndarray, n_docs: int, num_shards: int) -> np.ndarray:
    """Contiguous doc-range sharding for dense (rank-mode) doc ids."""
    return (np.asarray(doc_ids, dtype=np.int64) * num_shards) // max(n_docs, 1)


def shard_of_hash(doc_ids: np.ndarray, num_shards: int) -> np.ndarray:
    """Hash-mode ids: high bits are a conv hash — modulo over those."""
    return (np.asarray(doc_ids, dtype=np.int64) >> 16) % num_shards


class IndexPaths:
    def __init__(self, root: str | Path):
        self.root = Path(root)

    @property
    def runs(self) -> Path:
        return self.root / "runs"

    @property
    def shards(self) -> Path:
        return self.root / "shards"

    @property
    def docstore(self) -> Path:
        return self.root / "docstore"

    @property
    def offsets(self) -> Path:
        """Rank-mode disk-backend conv offset ranges (DiskConvOffsets)."""
        return self.root / "offsets"

    @property
    def stats_json(self) -> Path:
        return self.root / "stats.json"

    @property
    def df_parquet(self) -> Path:
        return self.root / "df.parquet"

    def run_dir(self, shard: int) -> Path:
        return self.runs / f"shard-{shard:05d}"

    def frag_manifest(self, frag_id: int) -> Path:
        return self.runs / f"_frag-{frag_id:05d}.json"

    def published_shards(self) -> list[Path]:
        """Sorted PUBLISHED shard dirs — excludes ``shard-NNNNN.tmp``
        staging directories a killed phase-B may leave behind (write_shard
        stages whole dirs; a bare glob('shard-*') would match them and
        readers would open a partial shard).  Every read path resolves
        shard dirs through here."""
        return sorted(p for p in self.shards.glob("shard-*")
                      if not p.name.endswith(".tmp"))

    def shard_dir(self, shard: int) -> Path:
        return self.shards / f"shard-{shard:05d}"

    def ensure(self) -> None:
        for p in (self.runs, self.shards, self.docstore):
            p.mkdir(parents=True, exist_ok=True)

    def clean_tmp(self) -> None:
        """Remove partial writes from a killed run (tmp names only)."""
        for p in self.root.rglob("*.tmp"):
            if p.is_dir():
                shutil.rmtree(p, ignore_errors=True)
            else:
                p.unlink(missing_ok=True)


def atomic_write_json(path: Path, obj: dict) -> None:
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(json.dumps(obj, indent=1, sort_keys=True))
    os.replace(tmp, path)


def atomic_write_table(path: Path, tbl: pa.Table, **kw) -> None:
    # zstd-1 over the default snappy: ~35% smaller docstore parts / ~13%
    # smaller runs at equal encode time — the build writes ~2 GB per sf0.1
    # run and is writeback-IO-contended at high parallelism, so bytes
    # saved convert straight into scaling headroom
    kw.setdefault("compression", "zstd")
    kw.setdefault("compression_level", 1)
    tmp = path.with_name(path.name + ".tmp")
    pq.write_table(tbl, tmp, **kw)
    os.replace(tmp, path)


# ---------------------------------------------------------------------------
# Shard writer (used by the merge stage)
# ---------------------------------------------------------------------------


def _position_gaps(flat_pos: np.ndarray, tfs: np.ndarray) -> np.ndarray:
    fp = np.ascontiguousarray(flat_pos, dtype=np.int64)
    starts = np.zeros(len(tfs), dtype=np.int64)
    np.cumsum(np.asarray(tfs, dtype=np.int64)[:-1], out=starts[1:])
    gaps = np.empty(len(fp), dtype=np.uint64)
    gaps[1:] = np.diff(fp).astype(np.uint64)
    gaps[starts] = fp[starts].astype(np.uint64)
    return gaps


def write_shard(
    final_dir: Path,
    shard_id: int,
    cfg: PipelineConfig,
    avgdl: float,
    base_doc_id: int,
    terms: np.ndarray,       # unique terms, ascending (object dtype)
    term_starts: np.ndarray, # start index of each term's postings range
    docs: np.ndarray,        # all postings' doc_ids, sorted within term
    tfs: np.ndarray,
    shard_docids: np.ndarray,
    shard_dl: np.ndarray,
    lineage: dict,
    positions_flat: np.ndarray | None = None,
) -> dict:
    """Vectorized whole-shard encode + atomic publish.

    One varint pass over the full gap stream and one over the tf stream
    (per-term offsets derived from the vectorized byte counts); per-block
    skip metadata from the block boundaries.  Layout: a doc-gap
    region then a tf region; dict offsets are absolute so the reader is
    layout-agnostic.  Replaces a per-term encode loop that spent ~35us of
    fixed numpy overhead per term (measured; 180k terms -> 6s+ saved/shard
    set)."""
    t0 = time.time()
    avgdl = max(avgdl, 1e-9)
    base = int(base_doc_id)
    tmp = final_dir.with_name(final_dir.name + ".tmp")
    if tmp.exists():
        shutil.rmtree(tmp)
    tmp.mkdir(parents=True)

    n_terms = len(terms)
    n_post = len(docs)
    term_ends = np.append(term_starts[1:], n_post) if n_terms else np.zeros(0, np.int64)
    df = (term_ends - term_starts).astype(np.int64)

    # gap stream: within-term deltas; first posting of each term vs base
    gaps = np.empty(n_post, dtype=np.uint64)
    if n_post:
        gaps[1:] = np.diff(docs).astype(np.uint64)
        gaps[term_starts] = (docs[term_starts] - base).astype(np.uint64)
    doc_bytes, doc_nb = codec.varint_encode_with_lengths(gaps)
    tf_bytes, tf_nb = codec.varint_encode_with_lengths(tfs.astype(np.uint64))
    doc_cum = np.zeros(n_post + 1, dtype=np.int64)
    np.cumsum(doc_nb, out=doc_cum[1:])
    tf_cum = np.zeros(n_post + 1, dtype=np.int64)
    np.cumsum(tf_nb, out=tf_cum[1:])
    doc_off = doc_cum[term_starts] if n_terms else np.zeros(0, np.int64)
    doc_len = doc_cum[term_ends] - doc_off if n_terms else np.zeros(0, np.int64)
    doc_region = len(doc_bytes)
    tf_off = doc_region + (tf_cum[term_starts] if n_terms else np.zeros(0, np.int64))
    tf_len = (tf_cum[term_ends] - tf_cum[term_starts]) if n_terms else np.zeros(0, np.int64)

    # optional positions region (phrase queries): one varint stream, reset
    # at each posting (posting i owns tfs[i] values)
    pos_off = pos_len = None
    pos_bytes = b""
    if positions_flat is not None:
        pos_bytes, pos_nb = (
            codec.varint_encode_with_lengths(_position_gaps(positions_flat, tfs))
            if len(positions_flat)
            else (b"", np.zeros(0, dtype=np.int64))
        )
        val_cum = np.zeros(n_post + 1, dtype=np.int64)  # value idx at posting
        np.cumsum(tfs.astype(np.int64), out=val_cum[1:])
        posb_cum = np.zeros(len(pos_nb) + 1, dtype=np.int64)
        np.cumsum(pos_nb, out=posb_cum[1:])
        region0 = len(doc_bytes) + len(tf_bytes)
        if n_terms:
            pos_off = region0 + posb_cum[val_cum[term_starts]]
            pos_len = posb_cum[val_cum[term_ends]] - (pos_off - region0)
        else:
            pos_off = np.zeros(0, np.int64)
            pos_len = np.zeros(0, np.int64)

    with open(tmp / "postings.bin", "wb") as f:
        f.write(doc_bytes)
        f.write(tf_bytes)
        f.write(pos_bytes)

    # per-term scalar stats (segmented reduces)
    if n_terms:
        cf = np.add.reduceat(tfs.astype(np.int64), term_starts)
    else:
        cf = np.zeros(0, np.int64)

    # AND-mode skip metadata: per block of B postings the last doc_id and
    # the byte offsets of its gap/tf streams
    B = cfg.postings_block
    if n_post:
        nblk = (df + B - 1) // B
        blk_offsets = np.zeros(n_terms + 1, dtype=np.int64)
        np.cumsum(nblk, out=blk_offsets[1:])
        # global block start indices: term_start + B * j for j in 0..nblk-1
        reps = np.repeat(term_starts, nblk)
        intra = (np.arange(blk_offsets[-1]) - np.repeat(blk_offsets[:-1], nblk)) * B
        blk_starts = reps + intra
        blk_ends = np.minimum(blk_starts + B, np.repeat(term_ends, nblk))
        off32 = pa.array(blk_offsets, pa.int32())
        block_last = pa.ListArray.from_arrays(off32, pa.array(docs[blk_ends - 1], pa.int64()))
        # a block's doc base is the previous block's block_last
        block_doc_boff = pa.ListArray.from_arrays(
            off32, pa.array(doc_cum[blk_starts], pa.int64())
        )
        block_tf_boff = pa.ListArray.from_arrays(
            off32, pa.array(doc_region + tf_cum[blk_starts], pa.int64())
        )
    else:
        empty_off = pa.array(np.zeros(n_terms + 1, dtype=np.int32))
        block_last = pa.ListArray.from_arrays(empty_off, pa.array([], pa.int64()))
        block_doc_boff = pa.ListArray.from_arrays(empty_off, pa.array([], pa.int64()))
        block_tf_boff = pa.ListArray.from_arrays(empty_off, pa.array([], pa.int64()))

    cols = {
        "term": terms if isinstance(terms, (pa.Array, pa.ChunkedArray))
        else pa.array(terms, pa.string()),
        "df": pa.array(df, pa.int64()),
        "cf": pa.array(cf, pa.int64()),
        "doc_off": pa.array(doc_off, pa.int64()),
        "doc_len": pa.array(doc_len, pa.int64()),
        "tf_off": pa.array(tf_off, pa.int64()),
        "tf_len": pa.array(tf_len, pa.int64()),
        "block_last": block_last,
        "block_doc_boff": block_doc_boff,
        "block_tf_boff": block_tf_boff,
    }
    if pos_off is not None:
        cols["pos_off"] = pa.array(pos_off, pa.int64())
        cols["pos_len"] = pa.array(pos_len, pa.int64())
    dict_tbl = pa.table(cols)
    pq.write_table(dict_tbl, tmp / "dict.parquet")
    np.save(tmp / "docids.npy", np.asarray(shard_docids, dtype=np.int64))
    np.save(tmp / "dl.npy", np.asarray(shard_dl, dtype=np.int32))
    manifest = {
        "version": INDEX_FORMAT_VERSION,
        "codec": codec.CODEC_VERSION,
        "shard_id": shard_id,
        "base_doc_id": base,
        "n_terms": int(n_terms),
        "n_postings": int(n_post),
        "n_docs": int(len(shard_docids)),
        "postings_bytes": doc_region + len(tf_bytes) + len(pos_bytes),
        "with_positions": positions_flat is not None,
        "k1": cfg.k1,
        "b": cfg.b,
        "avgdl": avgdl,
        "postings_block": cfg.postings_block,
        "wall_s": round(time.time() - t0, 3),
        **lineage,
    }
    atomic_write_json(tmp / "manifest.json", manifest)
    if final_dir.exists():
        shutil.rmtree(final_dir)
    os.replace(tmp, final_dir)
    return manifest


# ---------------------------------------------------------------------------
# Shard reader (query side; mmap'd — the actor-pool state, SURVEY.md A7)
# ---------------------------------------------------------------------------


def _flat_list(col: pa.ChunkedArray) -> tuple[np.ndarray, np.ndarray]:
    """(offsets, values) of a list<int> column as int64 numpy arrays: row
    i is values[offsets[i]:offsets[i + 1]]."""
    la = col.combine_chunks()
    return (np.asarray(la.offsets, dtype=np.int64),
            np.asarray(la.values, dtype=np.int64))


def _map_file(path: Path) -> mmap.mmap:
    """Read-only mmap of a non-empty file (slices are bytes copies)."""
    with open(path, "rb") as f:
        return mmap.mmap(f.fileno(), 0, access=mmap.ACCESS_READ)


def _ranges_index(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Element indices of the half-open ranges [lo[i], hi[i]), concatenated
    in range order (one vectorized pass, no per-range loop)."""
    n = hi - lo
    return np.repeat(lo - (np.cumsum(n) - n), n) + np.arange(int(n.sum()), dtype=np.int64)


class ShardReader:
    """Reads one segment: the union of one or more shards, folded at open.

    The shards' dictionaries merge into one sorted term array; each term
    keeps its per-shard pieces ("chunks") and their AND skip blocks as
    byte ranges into the shards' mmap'd ``postings.bin`` files (no resident
    copy of postings).  ``docids``/``dl`` are one ascending array over all
    the segment's docs.  A term decodes with one gather of its byte
    ranges, one varint pass over the gathered doc-gap and tf bytes, and a
    segmented cumsum from each block's base; hash-mode shards interleave
    doc ids, so a multi-shard list is then merged into ascending order
    (positions are permuted with their postings).  Lookup and decode cost
    therefore grow with the terms of a query, not with the shard count.

    ``cache_postings`` > 0 enables a bounded FIFO of DECODED posting lists
    keyed by segment term index — the reference's per-term memo cache
    (HORUS_TERM_SEARCH probe-before-insert, reference:
    src/core/feature_extraction/util.py:947-1016) re-expressed for a warm
    serving actor: hot terms (stopwords, df==N markers) decode varints
    once per actor lifetime instead of once per query.  The budget is the
    whole segment's and counts cached postings (~20 B each with their
    local indices), so memory is bounded regardless of term mix; cached
    arrays are treated as immutable by all scoring paths."""

    def __init__(self, shard_dirs: list[str | Path], cache_postings: int = 0):
        dirs = [Path(d) for d in shard_dirs]
        self.cache_postings = int(cache_postings)
        self._pcache: dict[int, tuple[np.ndarray, np.ndarray, np.ndarray]] = {}
        self._pcache_total = 0
        mans = [json.loads((d / "manifest.json").read_text()) for d in dirs]
        self._post = [_map_file(d / "postings.bin") if m["postings_bytes"] > 0 else b""
                      for d, m in zip(dirs, mans)]
        tabs = [pq.read_table(d / "dict.parquet") for d in dirs]
        self.with_positions = bool(tabs) and all("pos_off" in t.schema.names for t in tabs)

        # docs: one ascending array; _doc_shard[i] is the shard (position in
        # shard_dirs) holding docids[i]
        ids = [np.load(d / "docids.npy") for d in dirs]
        docids = np.concatenate(ids) if ids else np.zeros(0, dtype=np.int64)
        dl = (np.concatenate([np.load(d / "dl.npy") for d in dirs]) if dirs
              else np.zeros(0, dtype=np.int32))
        doc_shard = np.repeat(np.arange(len(dirs), dtype=np.int64), [len(x) for x in ids])
        if len(docids) > 1 and (docids[1:] < docids[:-1]).any():
            o = np.argsort(docids, kind="stable")
            docids, dl, doc_shard = docids[o], dl[o], doc_shard[o]
        self.docids, self.dl, self._doc_shard = docids, dl, doc_shard

        # terms: sort every shard's rows by (term, shard); a term's rows
        # ("chunks") are then adjacent, in shard order
        rows = np.asarray([t.num_rows for t in tabs], dtype=np.int64)
        row_shard = np.repeat(np.arange(len(dirs), dtype=np.int64), rows)
        term_col = pa.chunked_array(
            [c for t in tabs for c in t["term"].cast(pa.large_string()).chunks],
            pa.large_string())
        order = np.asarray(pc.sort_indices(
            pa.table({"t": term_col, "s": row_shard}),
            sort_keys=[("t", "ascending"), ("s", "ascending")]), dtype=np.int64)
        sterms = term_col.take(order).to_numpy()
        first = np.ones(len(sterms), dtype=bool)
        first[1:] = sterms[1:] != sterms[:-1]
        self.terms = sterms[first]
        self._cs = np.append(np.flatnonzero(first), len(sterms))  # term -> chunks

        def chunk_col(name: str) -> np.ndarray:
            if not tabs:
                return np.zeros(0, dtype=np.int64)
            return np.concatenate([np.asarray(t[name], dtype=np.int64) for t in tabs])[order]

        c_shard = row_shard[order]
        c_df = chunk_col("df")
        starts = self._cs[:-1]
        self.df = np.add.reduceat(c_df, starts) if len(starts) else c_df[:0]
        cf = chunk_col("cf")
        self.cf = np.add.reduceat(cf, starts) if len(starts) else cf[:0]
        self._c_shard = c_shard
        if self.with_positions:
            self._c_pos_lo = chunk_col("pos_off")
            self._c_pos_hi = self._c_pos_lo + chunk_col("pos_len")

        # blocks, in chunk order: chunk c owns blocks [_cb[c], _cb[c + 1])
        blk = [tuple(_flat_list(t[n]) for n in ("block_last", "block_doc_boff", "block_tf_boff"))
               for t in tabs]
        nblk_shard = np.asarray([len(b[0][1]) for b in blk], dtype=np.int64)
        shard_blk0 = np.cumsum(nblk_shard) - nblk_shard
        row_b0 = (np.concatenate([b[0][0][:-1] + o for b, o in zip(blk, shard_blk0)])
                  if tabs else np.zeros(0, dtype=np.int64))[order]
        c_nblk = (np.concatenate([np.diff(b[0][0]) for b in blk])
                  if tabs else np.zeros(0, dtype=np.int64))[order]
        perm = _ranges_index(row_b0, row_b0 + c_nblk)

        def blk_col(j: int) -> np.ndarray:
            if not tabs:
                return np.zeros(0, dtype=np.int64)
            return np.concatenate([b[j][1] for b in blk])[perm]

        last, self._blk_d_lo, self._blk_t_lo = blk_col(0), blk_col(1), blk_col(2)
        self._cb = np.zeros(len(c_nblk) + 1, dtype=np.int64)
        np.cumsum(c_nblk, out=self._cb[1:])
        b_chunk = np.repeat(np.arange(len(c_nblk), dtype=np.int64), c_nblk)
        nb = len(last)
        b_first, b_last = self._cb[:-1], self._cb[1:] - 1  # every chunk has a block
        self._blk_shard = c_shard[b_chunk]
        bases = np.asarray([int(m["base_doc_id"]) for m in mans], dtype=np.int64)
        self._blk_base = np.empty(nb, dtype=np.int64)
        self._blk_base[1:] = last[:-1]
        self._blk_base[b_first] = bases[self._blk_shard[b_first]]
        # a block's byte range ends where the next block of its chunk
        # starts, or at its chunk's end
        self._blk_d_hi = np.empty(nb, dtype=np.int64)
        self._blk_d_hi[:-1] = self._blk_d_lo[1:]
        self._blk_d_hi[b_last] = chunk_col("doc_off") + chunk_col("doc_len")
        self._blk_t_hi = np.empty(nb, dtype=np.int64)
        self._blk_t_hi[:-1] = self._blk_t_lo[1:]
        self._blk_t_hi[b_last] = chunk_col("tf_off") + chunk_col("tf_len")
        B = np.asarray([int(m["postings_block"]) for m in mans], dtype=np.int64)[self._blk_shard]
        self._blk_n = np.minimum(B, c_df[b_chunk] - B * (np.arange(nb) - self._cb[b_chunk]))
        # (shard, local doc index) of each block's last doc, as one sortable
        # key: a term's blocks ascend in it, and so do a shard's docs
        self._blk_key = self._doc_key(np.searchsorted(self.docids, last))

    def _doc_key(self, li: np.ndarray) -> np.ndarray:
        return self._doc_shard[li] * max(len(self.docids), 1) + li

    def _term_blocks(self, ti: int) -> tuple[int, int]:
        return int(self._cb[self._cs[ti]]), int(self._cb[self._cs[ti + 1]])

    def _gather(self, shard: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
        """The byte ranges [lo, hi) of the shards' postings, concatenated in
        order.  Ranges that continue one another in the same file (a
        term's consecutive blocks) are read as one slice."""
        if len(lo) > 1:
            new = np.ones(len(lo), dtype=bool)
            new[1:] = (lo[1:] != hi[:-1]) | (shard[1:] != shard[:-1])
            first = np.flatnonzero(new)
            last = np.append(first[1:], len(lo)) - 1
            shard, lo, hi = shard[first], lo[first], hi[last]
        post = self._post
        return np.frombuffer(b"".join([post[s][a:b] for s, a, b in zip(
            shard.tolist(), lo.tolist(), hi.tolist())]), dtype=np.uint8)

    def _decode(self, blocks: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
        """(doc ids ascending, tfs, merge order or None) of the given
        blocks: one gather and one varint pass over their doc-gap bytes
        followed by their tf bytes.  ``order`` permutes the blocks'
        postings (in block order) into ascending doc order."""
        n = self._blk_n[blocks]
        shard = self._blk_shard[blocks]
        vals = codec.varint_decode(self._gather(
            np.concatenate([shard, shard]),
            np.concatenate([self._blk_d_lo[blocks], self._blk_t_lo[blocks]]),
            np.concatenate([self._blk_d_hi[blocks], self._blk_t_hi[blocks]])))
        total = int(n.sum())
        c = np.cumsum(vals[:total])
        tf = vals[total:].astype(np.int32)
        # segmented cumsum: each block restarts from its base; uint64 wraps
        # like two's complement, so the int64 view is exact
        first = np.cumsum(n) - n
        prev = np.zeros(len(n), dtype=np.uint64)
        prev[1:] = c[first[1:] - 1]
        d = (c + np.repeat(self._blk_base[blocks].astype(np.uint64) - prev, n)).view(np.int64)
        order = None
        if len(n) > 1 and (d[1:] <= d[:-1]).any():
            order = np.argsort(d, kind="stable")
            d, tf = d[order], tf[order]
        return d, tf, order

    def term_index(self, term: str) -> int | None:
        i = int(np.searchsorted(self.terms, term))
        if i < len(self.terms) and self.terms[i] == term:
            return i
        return None

    def postings(self, ti: int) -> tuple[np.ndarray, np.ndarray]:
        hit = self._pcache.get(ti)
        if hit is not None:
            return hit[0], hit[1]
        d, tf, _ = self._decode(np.arange(*self._term_blocks(ti)))
        return d, tf

    def postings_local(self, ti: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(docs, tfs, local_indices) where local_indices map each posting's
        doc id into the segment's docids/dl arrays — the triple every OR
        scoring pass needs.  Cached together: the searchsorted is as hot as
        the varint decode at query time (profiled ~20% vs ~32%)."""
        hit = self._pcache.get(ti)
        if hit is not None:
            return hit
        d, tf = self.postings(ti)
        li = np.searchsorted(self.docids, d)
        if 0 < len(d) <= self.cache_postings:
            while self._pcache and self._pcache_total + len(d) > self.cache_postings:
                old_ti = next(iter(self._pcache))  # FIFO eviction (dict order)
                self._pcache_total -= len(self._pcache.pop(old_ti)[0])
            self._pcache[ti] = (d, tf, li)
            self._pcache_total += len(d)
        return d, tf, li

    def postings_blocks(self, ti: int, block_sel: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """TRUE partial decode: only the selected blocks (indices into the
        term's block list, over all its shards) are read, in the same one
        gather + one varint pass as a whole list.  Used by the AND-mode
        skipper: for selective intersections this touches O(candidate
        blocks), not the whole posting list."""
        b0, _ = self._term_blocks(ti)
        d, tf, _ = self._decode(b0 + np.asarray(block_sel, dtype=np.int64))
        return d, tf

    def postings_covering(self, ti: int, docs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Postings of term ``ti`` that can match any of the sorted segment
        doc ids ``docs``.  With the postings cache on, the whole list
        through ``postings_local`` (a superset of the covering blocks, so
        intersecting with it gives the same answer, and the list is cached
        for the next query); else a partial decode of only the blocks
        whose (shard, doc range) covers one of ``docs``."""
        if ti in self._pcache or 0 < self.df[ti] <= self.cache_postings:
            d, tf, _ = self.postings_local(ti)
            return d, tf
        b0, b1 = self._term_blocks(ti)
        li = np.searchsorted(self.docids, docs)
        pos = np.searchsorted(self._blk_key[b0:b1], self._doc_key(li))
        ok = pos < b1 - b0
        # a doc's shard may hold no block of this term: the search then
        # lands on another shard's block, which cannot match
        ok[ok] = self._blk_shard[b0 + pos[ok]] == self._doc_shard[li[ok]]
        sel = np.unique(pos[ok])
        return self.postings_blocks(ti, sel)

    def positions(self, ti: int, tfs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Decode the term's position stream -> (flat int32, offsets) where
        posting i of ``postings(ti)`` (tfs ``tfs``) owns
        flat[offsets[i]:offsets[i+1]] (phrase queries)."""
        if not self.with_positions:
            raise ValueError("index built without positions (cfg.with_positions)")
        c0, c1 = int(self._cs[ti]), int(self._cs[ti + 1])
        buf = self._gather(self._c_shard[c0:c1], self._c_pos_lo[c0:c1], self._c_pos_hi[c0:c1])
        tfs = np.asarray(tfs, dtype=np.int64)
        offsets = np.zeros(len(tfs) + 1, dtype=np.int64)
        np.cumsum(tfs, out=offsets[1:])
        order = self._decode(np.arange(*self._term_blocks(ti)))[2] if c1 - c0 > 1 else None
        if order is None:
            return codec.decode_positions(buf, tfs), offsets
        # the stream is in shard order: decode with shard-order tfs, then
        # move each posting's run to its merged place
        tf_shard = np.empty_like(tfs)
        tf_shard[order] = tfs
        flat = codec.decode_positions(buf, tf_shard)
        ends = np.cumsum(tf_shard)
        return flat[_ranges_index((ends - tf_shard)[order], ends[order])], offsets

    def doc_length(self, doc_ids: np.ndarray) -> np.ndarray:
        return self.dl[np.searchsorted(self.docids, doc_ids)]
