"""Snapshots: hard-link copies stay point-in-time consistent under the
tmp+rename write discipline — later deletes/compactions on the source
never leak into an existing snapshot."""

from pathlib import Path

import numpy as np
import pytest

from horus_ner_ray.config import PipelineConfig
from horus_ner_ray.pipelines.build_index import build_index
from horus_ner_ray.pipelines.delete import compact_index, delete_docs
from horus_ner_ray.pipelines.query import QueryEngine
from horus_ner_ray.pipelines.snapshot import snapshot_index
from horus_ner_ray.state.shards import IndexPaths
from horus_ner_ray.synth import reference_queries


@pytest.fixture(scope="module")
def snap_pair(small_corpus, tmp_path_factory, ray_session):
    base = tmp_path_factory.mktemp("snap")
    idx = base / "idx"
    build_index(small_corpus, idx,
                PipelineConfig(num_shards=3, doc_id_mode="hash"))
    snap = base / "snap"
    info = snapshot_index(idx, snap)
    assert info["files"] > 0
    return str(idx), str(snap)


def test_snapshot_answers_identically(snap_pair):
    idx, snap = snap_pair
    ei, es = QueryEngine(idx), QueryEngine(snap)
    for q in reference_queries(k=10):
        assert ei.search(q["text"], q["k"]) == es.search(q["text"], q["k"])


def test_snapshot_survives_source_mutation(snap_pair):
    idx, snap = snap_pair
    before = {q["text"]: QueryEngine(snap).search(q["text"], 10)
              for q in reference_queries(k=10)}
    # mutate the SOURCE: tombstone a slice, then compact (rewrites shards,
    # docstore, runs, stats — all via tmp+rename)
    delete_docs(idx, np.load(IndexPaths(idx).shard_dir(0) / "docids.npy")[:10])
    compact_index(idx)
    es = QueryEngine(snap)  # fresh open of the snapshot
    for text, want in before.items():
        assert es.search(text, 10) == want, text
    # and the source really changed
    ei = QueryEngine(idx)
    assert ei.n_docs < es.n_docs


def test_snapshot_refusals(snap_pair, tmp_path_factory):
    idx, snap = snap_pair
    with pytest.raises(ValueError, match="not empty"):
        snapshot_index(idx, snap)
    with pytest.raises(ValueError, match="separate directory"):
        snapshot_index(idx, idx)
    with pytest.raises(ValueError, match="separate directory"):
        snapshot_index(idx, Path(idx) / "inner_snap")  # nested in src
    import shutil

    frozen = tmp_path_factory.mktemp("snapref") / "idx"
    shutil.copytree(idx, frozen)
    (Path(frozen) / "compacting.json").write_text("{}")
    with pytest.raises(RuntimeError, match="mid-compaction"):
        snapshot_index(frozen, tmp_path_factory.mktemp("snapref2") / "s")
    with pytest.raises(ValueError, match="not a built index"):
        snapshot_index(tmp_path_factory.mktemp("snapref3"),
                       tmp_path_factory.mktemp("snapref4") / "s")


def test_snapshot_skips_tmp_shard_directories(snap_pair, tmp_path_factory):
    """A killed phase-B leaves whole shard-NNNNN.tmp staging DIRECTORIES;
    their inner files must not be linked (QueryEngine globs 'shard-*'
    and would open the partial shard)."""
    import shutil

    idx = tmp_path_factory.mktemp("snaptmp") / "idx"
    shutil.copytree(snap_pair[0], idx)
    staged = Path(idx) / "shards" / "shard-00099.tmp"
    staged.mkdir()
    (staged / "postings.bin").write_bytes(b"partial")
    out = tmp_path_factory.mktemp("snaptmp2") / "s"
    snapshot_index(idx, out)
    assert not (out / "shards" / "shard-00099.tmp").exists()
    eng = QueryEngine(out)  # opens cleanly, no partial shard
    assert eng.search(reference_queries(k=5)[0]["text"], 5)


def test_job_change_preserves_tombstones_same_corpus(small_corpus,
                                                     tmp_path_factory,
                                                     ray_session):
    """Config-only job changes (e.g. shard count) keep doc ids valid, so
    user deletions must SURVIVE the rebuild; only a corpus change wipes
    them (test_deletes pins that side)."""
    from horus_ner_ray.pipelines.delete import delete_docs, read_tombstones

    cfg = PipelineConfig(num_shards=3, doc_id_mode="hash")
    idx = tmp_path_factory.mktemp("tombkeep") / "idx"
    build_index(small_corpus, idx, cfg)
    dead = np.load(IndexPaths(idx).shard_dir(0) / "docids.npy")[:5]
    delete_docs(idx, dead)
    build_index(small_corpus, idx,
                PipelineConfig(num_shards=5, doc_id_mode="hash"))
    assert set(read_tombstones(idx).tolist()) == set(dead.tolist())
    eng2 = QueryEngine(idx)
    hits = {d for d, _ in eng2.search("the sessionmark", 10**6)}
    assert hits.isdisjoint(set(dead.tolist()))
