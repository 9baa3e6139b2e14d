"""Tombstone deletes + compaction (pipelines/delete.py).

Semantics under test (Lucene live-docs re-expressed):
- delete: docs masked from every result set BEFORE top-k; collection
  statistics (N, avgdl, df) stay STALE — rank-identical to the
  brute-force oracle carrying the same tombstone set.
- compact: statistics rebuilt over the survivors; in hash doc-id mode the
  compacted shards are BYTE-IDENTICAL to a fresh build over the filtered
  corpus (stable ids + data-independent shard routing).
- crash/resume: tombstones clear only after stats publish; compaction is
  idempotent; a later rebuild over the original corpus starts clean
  (job.json generation mismatch).
"""

import json
from pathlib import Path

import numpy as np
import pandas as pd
import pyarrow.parquet as pq
import pytest

from horus_ner_ray.config import PipelineConfig
from horus_ner_ray.pipelines.build_index import build_index
from horus_ner_ray.pipelines.delete import (
    compact_index,
    delete_by_conv,
    delete_docs,
    read_tombstones,
)
from horus_ner_ray.pipelines.query import BruteForceBM25, QueryEngine
from horus_ner_ray.state.shards import IndexPaths
from horus_ner_ray.synth import reference_queries


def _index_bytes(idx: Path) -> dict[str, bytes]:
    out = {}
    for p in sorted((idx / "shards").rglob("*")):
        if p.is_file() and p.name != "manifest.json":  # manifests carry wall times
            out[str(p.relative_to(idx))] = p.read_bytes()
    return out


def _oracle_with_deletes(files, deleted):
    o = BruteForceBM25.from_corpus_files(files)
    o.delete_docs(deleted)
    return o


@pytest.fixture(scope="module")
def del_index(small_corpus, tmp_path_factory, ray_session):
    """Fresh positional rank-mode index + a deterministic tombstone set
    (every 5th doc) — module-owned so the shared built_index fixture is
    never mutated."""
    idx = tmp_path_factory.mktemp("delidx") / "idx"
    res = build_index(small_corpus, idx,
                      PipelineConfig(num_shards=4, with_positions=True))
    deleted = list(range(2, res.n_docs, 5))
    n = delete_docs(idx, deleted)
    assert n == len(deleted)
    return str(idx), res, deleted


def test_tombstones_roundtrip_and_idempotence(del_index):
    idx, _res, deleted = del_index
    ts = read_tombstones(idx)
    assert ts is not None and ts.tolist() == sorted(deleted)
    # re-deleting the same set (plus a duplicate) is a no-op union
    assert delete_docs(idx, deleted[:3]) == len(deleted)
    assert read_tombstones(idx).tolist() == sorted(deleted)


def test_masked_search_rank_identity(del_index, small_corpus):
    idx, _res, deleted = del_index
    eng = QueryEngine(idx)
    o = _oracle_with_deletes(small_corpus, deleted)
    # stats stay stale: engine still reports the pre-delete corpus size
    assert eng.n_docs == o.n_docs
    for q in reference_queries(k=10):
        assert eng.search(q["text"], q["k"]) == o.search(q["text"], q["k"])
    for q in ["alpha beta", "sessionmark the of", "the tok00042"]:
        assert eng.search(q, 10, mode="and") == o.search(q, 10, mode="and")
    # no deleted doc in any result
    got = {d for q in reference_queries(k=10)
           for d, _s in eng.search(q["text"], 50)}
    assert got.isdisjoint(deleted)


def test_masked_modes_rank_identity(del_index, small_corpus):
    idx, _res, deleted = del_index
    eng = QueryEngine(idx)
    o = _oracle_with_deletes(small_corpus, deleted)
    assert eng.search_phrase("the sessionmark", 10) == o.search_phrase(
        "the sessionmark", 10)
    assert eng.search_prefix("tok0004*", 10) == o.search_prefix("tok0004*", 10)
    assert eng.search_fuzzy("sessionmark", 10) == o.search_fuzzy("sessionmark", 10)
    assert eng.facet_counts("sessionmark the") == o.facet_counts("sessionmark the")
    assert eng.search("the sessionmark", 10, exclude="alpha") == o.search(
        "the sessionmark", 10, exclude="alpha")
    assert eng.search("the", 10, role="user") == o.search("the", 10, role="user")
    src = next(d for d, _ in o.search("sessionmark", 5))
    assert eng.more_like_this(src, 10) == o.more_like_this(src, 10)


def test_scorer_actor_respects_tombstones(del_index, small_corpus):
    from horus_ner_ray.pipelines.query import ScorerActor

    idx, _res, deleted = del_index
    o = _oracle_with_deletes(small_corpus, deleted)
    actor = ScorerActor(idx)
    out = actor(pd.DataFrame([{"query_id": 0, "text": "the sessionmark", "k": 10}]))
    want = o.search("the sessionmark", 10)
    assert [(int(d), float(s)) for d, s in zip(out["doc_id"], out["score"])] == want


def test_delete_by_conv(small_corpus, tmp_path_factory, ray_session):
    idx = tmp_path_factory.mktemp("delconv") / "idx"
    build_index(small_corpus, idx, PipelineConfig(num_shards=3))
    store = pd.concat([pq.read_table(p).to_pandas()
                       for p in sorted(IndexPaths(idx).docstore.glob("part-*.parquet"))])
    # zero-match delete is a valid no-op, not an error (the distributed
    # resolve can come back schemaless when every batch filters empty)
    assert delete_by_conv(idx, ["no-such-conv"]) == 0
    convs = sorted(store["conv_id"].unique())[:7]
    n = delete_by_conv(idx, convs)
    want = np.sort(store.loc[store["conv_id"].isin(convs), "doc_id"].to_numpy())
    assert n == len(want)
    assert read_tombstones(idx).tolist() == want.tolist()
    eng = QueryEngine(idx)
    hits = {d for d, _ in eng.search("the sessionmark", 10**6)}
    assert hits.isdisjoint(want.tolist())


def test_compact_rank_mode_results_and_stats(del_index, small_corpus,
                                             tmp_path_factory):
    """Compaction folds tombstones in: original doc ids survive, stats are
    rebuilt over the survivors — rank-identical to a brute-force oracle
    that never saw the deleted docs."""
    idx, _res, deleted = del_index
    out = compact_index(idx)
    assert out["compacted"] and out["deleted"] == len(deleted)
    assert read_tombstones(idx) is None
    # oracle over the remaining docs, ORIGINAL rank ids
    dset = set(deleted)
    frames = [pq.read_table(f, columns=["conv_id", "turn_idx", "text", "role",
                                        "tool", "ts"]).to_pandas()
              for f in small_corpus]
    df = pd.concat(frames, ignore_index=True).sort_values(
        ["conv_id", "turn_idx"], kind="stable")
    df["doc_id"] = range(len(df))
    o = BruteForceBM25()
    for r in df.itertuples():
        if int(r.doc_id) not in dset:
            o.add_doc(int(r.doc_id), r.text, r.role or "", r.tool or "",
                      ts=None if pd.isna(r.ts) else r.ts)
    stats = json.loads((Path(idx) / "stats.json").read_text())
    assert stats["n_docs"] == o.n_docs
    assert stats["avgdl"] == o.avgdl
    eng = QueryEngine(idx)
    for q in reference_queries(k=10):
        assert eng.search(q["text"], q["k"]) == o.search(q["text"], q["k"])
    assert eng.search_phrase("the sessionmark", 10) == o.search_phrase(
        "the sessionmark", 10)
    # compacting again is a no-op
    assert compact_index(idx) == {"deleted": 0, "compacted": False}


def test_rebuild_after_compact_starts_clean(del_index, small_corpus):
    """A build over the original corpus after compaction must not resume
    stale state: job.json carries the compaction generation, so the gate
    wipes and the full corpus comes back."""
    idx, res, deleted = del_index  # compacted by the previous test order?
    # ensure compacted state regardless of execution order
    compact_index(idx)
    res2 = build_index(small_corpus, idx,
                       PipelineConfig(num_shards=4, with_positions=True))
    assert res2.n_docs == res.n_docs  # full corpus restored
    eng = QueryEngine(idx)
    assert eng.n_docs == res.n_docs
    hits = {d for d, _ in eng.search("the sessionmark", 10**6)}
    assert hits & set(deleted)  # deleted docs are live again


def test_compact_hash_mode_byte_identity(small_corpus, tmp_path_factory,
                                         ray_session):
    """Hash mode: stable ids + data-independent shard routing, so
    delete-then-compact must produce byte-for-byte the shards of a fresh
    build over the filtered corpus."""
    cfg = PipelineConfig(num_shards=3, doc_id_mode="hash")
    idx = tmp_path_factory.mktemp("cmph") / "idx"
    build_index(small_corpus, idx, cfg)
    store = pd.concat([pq.read_table(p).to_pandas()
                       for p in sorted(IndexPaths(idx).docstore.glob("part-*.parquet"))])
    convs = sorted(store["conv_id"].unique())[::4]
    delete_by_conv(idx, convs)
    compact_index(idx)

    filt_dir = tmp_path_factory.mktemp("cmph_filtered")
    filt_files = []
    for f in small_corpus:
        t = pq.read_table(f).to_pandas()
        t = t[~t["conv_id"].isin(convs)]
        out = filt_dir / Path(f).name
        t.to_parquet(out, index=False)
        filt_files.append(str(out))
    clean = tmp_path_factory.mktemp("cmph_clean") / "idx"
    build_index(filt_files, clean, cfg)

    assert _index_bytes(Path(idx)) == _index_bytes(Path(clean))
    s_a = json.loads((Path(idx) / "stats.json").read_text())
    s_b = json.loads((Path(clean) / "stats.json").read_text())
    assert (s_a["n_docs"], s_a["total_tokens"], s_a["avgdl"]) == (
        s_b["n_docs"], s_b["total_tokens"], s_b["avgdl"])
    assert (pq.read_table(IndexPaths(idx).df_parquet).to_pydict()
            == pq.read_table(IndexPaths(clean).df_parquet).to_pydict())


def test_delete_then_append_preserves_tombstones(small_corpus,
                                                 tmp_path_factory, ray_session):
    """Append after delete (no compaction): the re-merge rebuilds shards
    from runs (which still hold the deleted docs' postings — stale-stats
    semantics), but the tombstone file is untouched so results stay
    masked; new docs are searchable."""
    from horus_ner_ray.pipelines.build_index import append_fragments

    cfg = PipelineConfig(num_shards=3, doc_id_mode="hash")
    idx = tmp_path_factory.mktemp("delapp") / "idx"
    build_index(small_corpus[:2], idx, cfg)
    store = pd.concat([pq.read_table(p, columns=["doc_id", "conv_id"]).to_pandas()
                       for p in sorted(IndexPaths(idx).docstore.glob("part-*.parquet"))])
    convs = sorted(store["conv_id"].unique())[:5]
    delete_by_conv(idx, convs)
    dead = set(read_tombstones(idx).tolist())
    append_fragments(idx, small_corpus[2:])
    assert set(read_tombstones(idx).tolist()) == dead
    eng = QueryEngine(idx)
    hits = {d for d, _ in eng.search("the sessionmark", 10**6)}
    assert hits.isdisjoint(dead)
    # docs from the appended fragment ARE searchable
    new_store = pd.concat(
        [pq.read_table(p, columns=["doc_id", "conv_id"]).to_pandas()
         for p in sorted(IndexPaths(idx).docstore.glob("part-*.parquet"))])
    appended = set(new_store["doc_id"]) - set(store["doc_id"])
    assert hits & appended


def test_compact_then_append_byte_identity(small_corpus, tmp_path_factory,
                                           ray_session):
    """delete -> compact -> append == fresh build over (filtered old + new)
    byte-for-byte: compaction filters the RUN FILES and fragment manifests
    too, so the append re-merge and its stats reduce see exactly the
    filtered corpus (without this, deleted docs would resurrect from the
    persisted runs)."""
    from horus_ner_ray.pipelines.build_index import append_fragments

    cfg = PipelineConfig(num_shards=3, doc_id_mode="hash")
    idx = tmp_path_factory.mktemp("cmpapp") / "idx"
    build_index(small_corpus[:2], idx, cfg)
    store = pd.concat([pq.read_table(p, columns=["doc_id", "conv_id"]).to_pandas()
                       for p in sorted(IndexPaths(idx).docstore.glob("part-*.parquet"))])
    convs = sorted(store["conv_id"].unique())[::5]
    delete_by_conv(idx, convs)
    compact_index(idx)
    append_fragments(idx, small_corpus[2:])

    filt_dir = tmp_path_factory.mktemp("cmpapp_filtered")
    filt_files = []
    for f in small_corpus[:2]:
        t = pq.read_table(f).to_pandas()
        t = t[~t["conv_id"].isin(convs)]
        out = filt_dir / Path(f).name
        t.to_parquet(out, index=False)
        filt_files.append(str(out))
    clean = tmp_path_factory.mktemp("cmpapp_clean") / "idx"
    build_index(filt_files + list(small_corpus[2:]), clean, cfg)

    assert _index_bytes(Path(idx)) == _index_bytes(Path(clean))
    s_a = json.loads((Path(idx) / "stats.json").read_text())
    s_b = json.loads((Path(clean) / "stats.json").read_text())
    assert (s_a["n_docs"], s_a["total_tokens"], s_a["avgdl"]) == (
        s_b["n_docs"], s_b["total_tokens"], s_b["avgdl"])
    assert (pq.read_table(IndexPaths(idx).df_parquet).to_pydict()
            == pq.read_table(IndexPaths(clean).df_parquet).to_pydict())


def test_mid_compaction_marker_forces_exhaustive_and_stays_correct(
        small_corpus, tmp_path_factory, ray_session):
    """The compacting.json window: shards rewritten with the NEXT avgdl
    while stats.json still holds the old one — engines must still answer
    masked-correct (code-review regression)."""
    from horus_ner_ray.pipelines.delete import (
        _CompactDocstoreWorker,
        _CompactShardWorker,
    )
    from horus_ner_ray.state.shards import atomic_write_json

    idx = tmp_path_factory.mktemp("midcmp") / "idx"
    build_index(small_corpus, idx, PipelineConfig(num_shards=3))
    deleted = list(range(0, 60, 2))  # heavy deletion shifts avgdl
    delete_docs(idx, deleted)
    paths = IndexPaths(idx)
    stats = json.loads(paths.stats_json.read_text())
    dead = read_tombstones(idx)
    # steps 1-2 of compact_index by hand, stopping BEFORE the publish
    w = _CompactDocstoreWorker(dead)
    parts = w(pd.DataFrame([{"path": str(p)}
                            for p in sorted(paths.docstore.glob("part-*.parquet"))]))
    n = int(parts["n_rows"].sum())
    avgdl_next = int(parts["sum_dl"].sum()) / n
    assert avgdl_next != stats["avgdl"]
    atomic_write_json(paths.root / "compacting.json",
                      {"avgdl_next": avgdl_next})
    sw = _CompactShardWorker(str(idx), stats["config"], avgdl_next, dead)
    sw(pd.DataFrame([{"shard_id": s} for s in range(int(stats["n_shards"]))]))
    # stats.json still OLD; marker present
    eng = QueryEngine(idx)
    o = _oracle_with_deletes(small_corpus, deleted)
    for q in reference_queries(k=10):
        assert eng.search(q["text"], q["k"]) == o.search(q["text"], q["k"])
    assert eng.search("sessionmark", 5) == o.search("sessionmark", 5)
    # finishing the compaction clears the marker
    out = compact_index(idx)
    assert out["compacted"]
    assert not (paths.root / "compacting.json").exists()


def test_stale_compacting_marker_cleared_and_lazy_probe(
        small_corpus, tmp_path_factory, ray_session):
    """(a) a crash between the tombstone unlink and the marker unlink
    strands compacting.json — the no-op compact re-run must clear it, or
    verify/merge/snapshot refuse the index forever; (b) an engine built
    BEFORE a compaction starts opens its shards lazily after the marker
    appears and still answers exactly like the oracle (code-review
    regressions)."""
    from horus_ner_ray.pipelines.delete import compact_index

    idx = tmp_path_factory.mktemp("stalemk") / "idx"
    build_index(small_corpus, idx, PipelineConfig(num_shards=3))
    # (b) engine constructed with no marker; marker appears before the
    # first shard open
    eng = QueryEngine(idx)
    (Path(idx) / "compacting.json").write_text("{}")
    o = _oracle_with_deletes(small_corpus, [])
    # the first search triggers the lazy reader open
    assert eng.search("the sessionmark", 5) == o.search("the sessionmark", 5)
    for q in reference_queries(k=10):
        assert eng.search(q["text"], q["k"]) == o.search(q["text"], q["k"])
    # (a) the crash-stranded state: marker present, no tombstones
    out = compact_index(idx)
    assert out == {"deleted": 0, "compacted": False}
    assert not (Path(idx) / "compacting.json").exists()


def test_compact_docstore_chunks_stay_sorted(tmp_path, monkeypatch):
    """Deletions shift chunk boundaries; every rewritten row group must be
    re-sorted by doc_id (fresh-build invariant + row-group-stats pruning;
    code-review regression).  Chunk size patched small to force multi-
    group parts at test scale."""
    import pyarrow as pa

    import horus_ner_ray.pipelines.build_index as bi
    from horus_ner_ray.pipelines.delete import _CompactDocstoreWorker

    monkeypatch.setattr(bi, "DOCSTORE_CHUNK_ROWS", 4)
    # two file-order chunks, each sorted internally, ranges interleaved
    ids = [1, 3, 5, 7, 0, 2, 6, 9]
    part = tmp_path / "part-00000.parquet"
    t = pa.table({"doc_id": pa.array(ids, pa.int64()),
                  "dl": pa.array([1] * len(ids), pa.int32())})
    w = pq.ParquetWriter(part, t.schema)
    w.write_table(t.slice(0, 4), row_group_size=4)
    w.write_table(t.slice(4, 4), row_group_size=4)
    w.close()
    wkr = _CompactDocstoreWorker(np.array([3], dtype=np.int64))
    out = wkr(pd.DataFrame([{"path": str(part)}]))
    assert int(out["n_rows"].iloc[0]) == 7
    pf = pq.ParquetFile(part)
    assert pf.metadata.num_row_groups == 2  # 4 + 3 rows
    for rg in range(pf.metadata.num_row_groups):
        got = pf.read_row_group(rg)["doc_id"].to_pylist()
        assert got == sorted(got), rg


def test_build_over_original_corpus_after_compact_append_rebuilds(
        small_corpus, tmp_path_factory, ray_session):
    """After compact->append, job.json keeps the compaction generation, so
    a DIRECT build_index over the (original old + new) corpus must wipe
    and rebuild the full corpus — never silently resume the filtered
    runs while claiming the original files."""
    from horus_ner_ray.pipelines.build_index import append_fragments

    cfg = PipelineConfig(num_shards=3, doc_id_mode="hash")
    idx = tmp_path_factory.mktemp("cmpgen") / "idx"
    build_index(small_corpus[:2], idx, cfg)
    store = pd.concat([pq.read_table(p, columns=["doc_id", "conv_id"]).to_pandas()
                       for p in sorted(IndexPaths(idx).docstore.glob("part-*.parquet"))])
    convs = sorted(store["conv_id"].unique())[:6]
    n_full = len(store)
    delete_by_conv(idx, convs)
    compact_index(idx)
    res_app = append_fragments(idx, small_corpus[2:])
    assert res_app.n_docs < n_full + 20  # filtered old + new (sanity)
    assert json.loads((Path(idx) / "job.json").read_text()).get("compaction_gen")
    res = build_index(list(small_corpus), idx, cfg)
    full = sum(pq.ParquetFile(f).metadata.num_rows for f in small_corpus)
    assert res.n_docs == full  # wiped + rebuilt over the FULL corpus


@pytest.fixture(scope="module")
def fuzz_del_index(small_corpus, tmp_path_factory, ray_session):
    idx = tmp_path_factory.mktemp("fuzzdel") / "idx"
    build_index(small_corpus, idx, PipelineConfig(num_shards=4))
    bf = BruteForceBM25.from_corpus_files(small_corpus)
    return str(idx), bf


def test_delete_fuzz_rank_identity(fuzz_del_index):
    """Property: for ANY tombstone subset, every mode stays rank-identical
    to the oracle carrying the same set (one index, tombstone file
    swapped per example)."""
    import pyarrow as pa
    from hypothesis import given, settings
    from hypothesis import strategies as st

    from horus_ner_ray.state.shards import atomic_write_table

    idx, bf = fuzz_del_index

    @settings(max_examples=20, deadline=None)
    @given(st.sets(st.integers(0, 59), max_size=45),
           st.sampled_from(["the sessionmark", "alpha beta", "the",
                            "data stream filter sort", "zzzqabsent the"]))
    def prop(deleted, q):
        atomic_write_table(
            Path(idx) / "tombstones.parquet",
            pa.table({"doc_id": pa.array(sorted(deleted), pa.int64())}))
        bf.deleted = set(deleted)
        eng = QueryEngine(idx)
        assert eng.search(q, 10) == bf.search(q, 10)
        assert eng.search(q, 10, mode="and") == bf.search(q, 10, mode="and")
        assert eng.facet_counts(q) == bf.facet_counts(q)

    try:
        prop()
    finally:
        (Path(idx) / "tombstones.parquet").unlink(missing_ok=True)
        bf.deleted = set()


def test_partial_compaction_still_masked_correct(small_corpus,
                                                 tmp_path_factory, ray_session):
    """Crash-safety invariant: docstore already filtered, shards/stats not
    yet — tombstones still present, so queries stay masked-correct (the
    stale-stats answer) and a re-run converges."""
    from horus_ner_ray.pipelines.delete import (
        _CompactDocstoreWorker,
        read_tombstones,
    )

    idx = tmp_path_factory.mktemp("partial") / "idx"
    build_index(small_corpus, idx, PipelineConfig(num_shards=3))
    deleted = list(range(1, 60, 7))
    delete_docs(idx, deleted)
    # simulate the crash point: run ONLY the docstore pass
    w = _CompactDocstoreWorker(read_tombstones(idx))
    w(pd.DataFrame([{"path": str(p)}
                    for p in sorted(IndexPaths(idx).docstore.glob("part-*.parquet"))]))
    o = _oracle_with_deletes(small_corpus, deleted)
    eng = QueryEngine(idx)
    for q in reference_queries(k=10)[:4]:
        assert eng.search(q["text"], q["k"]) == o.search(q["text"], q["k"])
    # re-run converges to the fully compacted state
    out = compact_index(idx)
    assert out["compacted"]
    stats = json.loads((Path(idx) / "stats.json").read_text())
    assert stats["n_docs"] == o.n_docs - len(deleted)  # all ids < n_docs


def test_job_change_clears_tombstones(small_corpus, tmp_path_factory,
                                      ray_session):
    """A job change (different corpus into the same index dir) must wipe
    tombstones with the rest of the derived state: hash doc ids are
    content-derived, so stale tombstones would silently mask new-corpus
    docs sharing (conv_id, turn_idx) with previously deleted ones."""
    cfg = PipelineConfig(num_shards=3, doc_id_mode="hash")
    idx = tmp_path_factory.mktemp("tombwipe") / "idx"
    build_index(small_corpus[:2], idx, cfg)
    eng = QueryEngine(idx)
    dead = np.asarray(eng._reader(0).docids)[:5]
    delete_docs(idx, dead)
    assert read_tombstones(idx) is not None
    # same job resumes: tombstones survive
    build_index(small_corpus[:2], idx, cfg)
    assert set(read_tombstones(idx).tolist()) == set(dead.tolist())
    # job change (superset corpus via direct build): tombstones wiped —
    # the shared docs keep their hash ids and must be live again
    build_index(small_corpus, idx, cfg)
    assert read_tombstones(idx) is None
    eng2 = QueryEngine(idx)
    hits = {d for d, _ in eng2.search("the sessionmark", 10**6)}
    assert hits & set(dead.tolist())


def test_delete_older_than(small_corpus, tmp_path_factory, ray_session):
    """TTL delete masks exactly the docs with stored ts < cutoff; docs
    keep serving through the engine with stale stats (the tombstone
    contract); compact folds it in like any other delete."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from horus_ner_ray.config import PipelineConfig
    from horus_ner_ray.pipelines.build_index import build_index
    from horus_ner_ray.pipelines.delete import delete_older_than
    from horus_ner_ray.pipelines.query import QueryEngine
    from horus_ner_ray.state.shards import IndexPaths

    idx = tmp_path_factory.mktemp("ttlidx") / "idx"
    build_index(small_corpus, idx, PipelineConfig(num_shards=4))
    paths = IndexPaths(str(idx))
    parts = sorted(str(p) for p in paths.docstore.glob("part-*.parquet"))
    t = pq.read_table(parts[0], columns=["doc_id", "ts"])
    import numpy as np
    import pyarrow.compute as pc

    tsv = np.asarray(pc.cast(t["ts"], pa.int64()), dtype=np.int64)
    tsv = tsv[tsv != np.iinfo(np.int64).min]
    cutoff = int(np.percentile(tsv, 30))
    n = delete_older_than(str(idx), cutoff)
    assert n > 0
    eng = QueryEngine(str(idx))
    hits = eng.search("sessionmark", k=10 ** 6)
    # every surviving hit's stored ts is >= cutoff (or missing)
    st = eng.field_stats("sessionmark")
    assert st["min"] >= cutoff
    assert len(hits) < eng.n_docs  # something was actually masked
    # idempotent
    assert delete_older_than(str(idx), cutoff) == n


def test_delete_by_query(small_corpus, tmp_path_factory, ray_session):
    """delete_by_query tombstones exactly the query's match set (OR and
    AND modes), masks immediately with stale stats, and is idempotent."""
    from horus_ner_ray.config import PipelineConfig
    from horus_ner_ray.pipelines.build_index import build_index
    from horus_ner_ray.pipelines.delete import delete_by_query
    from horus_ner_ray.pipelines.query import QueryEngine

    idx = tmp_path_factory.mktemp("qdelidx") / "idx"
    build_index(small_corpus, idx, PipelineConfig(num_shards=4))
    eng0 = QueryEngine(str(idx))
    matched = {d for d, _ in eng0.search("sessionmark", k=10 ** 9)}
    assert matched
    n = delete_by_query(str(idx), "sessionmark")
    assert n == len(matched)
    eng = QueryEngine(str(idx))
    assert eng.search("sessionmark", k=10) == []          # all masked
    assert eng.n_docs == eng0.n_docs                       # stats stale
    # survivors of other queries exclude the deleted set
    left = {d for d, _ in eng.search("the session", k=10 ** 9)}
    assert not (left & matched)
    # idempotent (returns total tombstones after union)
    assert delete_by_query(str(idx), "sessionmark") == n
    # absent query deletes nothing
    assert delete_by_query(str(idx), "zzzqnotfound") == n
