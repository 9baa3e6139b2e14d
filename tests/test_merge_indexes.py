"""merge_indexes: merging independently built indexes without
re-tokenizing must reproduce a fresh build over the concatenated corpus
BYTE-identically (shards, docstore, df table), in both the hash fast
path (run hard-links) and the provided-mode / shard-count-change slow
path (run re-split); tombstones union; resume converges; preconditions
refuse loudly."""

import json
from pathlib import Path

import numpy as np
import pandas as pd
import pyarrow.parquet as pq
import pytest

from horus_ner_ray.config import PipelineConfig
from horus_ner_ray.pipelines.build_index import build_index
from horus_ner_ray.pipelines.delete import delete_docs, read_tombstones
from horus_ner_ray.pipelines.merge import merge_indexes
from horus_ner_ray.pipelines.query import QueryEngine
from horus_ner_ray.state.shards import IndexPaths
from horus_ner_ray.synth import reference_queries


def _tree_bytes(idx: Path) -> dict[str, bytes]:
    """Every derived byte that must be corpus-pure: shard payloads,
    docstore parts, the df table (manifests/stats carry wall times)."""
    out = {}
    for sub in ("shards", "docstore"):
        for p in sorted((idx / sub).rglob("*")):
            if p.is_file() and p.name != "manifest.json":
                out[str(p.relative_to(idx))] = p.read_bytes()
    out["df.parquet"] = (idx / "df.parquet").read_bytes()
    return out


def _stats_triple(idx) -> tuple:
    s = json.loads((Path(idx) / "stats.json").read_text())
    return s["n_docs"], s["total_tokens"], s["avgdl"]


@pytest.fixture(scope="module")
def hash_halves(small_corpus, tmp_path_factory, ray_session):
    """Two hash-mode indexes over disjoint fragment subsets + the fresh
    union build they must merge into."""
    cfg = PipelineConfig(num_shards=3, doc_id_mode="hash")
    base = tmp_path_factory.mktemp("mrg_hash")
    a, b, full = base / "a", base / "b", base / "full"
    build_index(small_corpus[:2], a, cfg)
    build_index(small_corpus[2:], b, cfg)
    build_index(small_corpus, full, cfg)
    return str(a), str(b), str(full), cfg


def test_merge_hash_byte_identity(hash_halves, tmp_path_factory):
    a, b, full, _cfg = hash_halves
    out = tmp_path_factory.mktemp("mrg_hash_out") / "idx"
    res = merge_indexes([a, b], out)
    assert res.n_fragments == 3
    assert _tree_bytes(out) == _tree_bytes(Path(full))
    assert _stats_triple(out) == _stats_triple(full)
    # engine over the merged tree answers like the fresh build
    em, ef = QueryEngine(out), QueryEngine(full)
    for q in reference_queries(k=10):
        assert em.search(q["text"], q["k"]) == ef.search(q["text"], q["k"])


def test_merge_rerun_is_idempotent_and_resumes(hash_halves,
                                               tmp_path_factory):
    import shutil

    a, b, full, _cfg = hash_halves
    out = tmp_path_factory.mktemp("mrg_resume") / "idx"
    merge_indexes([a, b], out)
    want = _tree_bytes(out)
    # simulate a crash that lost phase B and one imported fragment
    shutil.rmtree(Path(out) / "shards")
    p = IndexPaths(out)
    p.frag_manifest(1).unlink()
    for f in p.run_dir(0).glob("run-frag00001.parquet"):
        f.unlink()
    merge_indexes([a, b], out)
    assert _tree_bytes(out) == want
    # clean rerun over the finished output: converges, nothing changes
    merge_indexes([a, b], out)
    assert _tree_bytes(out) == want


def test_merge_tombstones_union(hash_halves, tmp_path_factory,
                                small_corpus):
    import shutil

    a, b, full, cfg = hash_halves
    base = tmp_path_factory.mktemp("mrg_dead")
    a2, b2 = base / "a2", base / "b2"
    shutil.copytree(a, a2)
    shutil.copytree(b, b2)
    dead_a = np.load(IndexPaths(a2).shard_dir(0) / "docids.npy")[:3]
    dead_b = np.load(IndexPaths(b2).shard_dir(1) / "docids.npy")[:2]
    delete_docs(a2, dead_a)
    delete_docs(b2, dead_b)
    out = base / "out"
    merge_indexes([str(a2), str(b2)], out)
    want = set(dead_a.tolist()) | set(dead_b.tolist())
    assert set(read_tombstones(out).tolist()) == want
    # masked exactly like the fresh union build carrying the same deletes
    ref = base / "ref"
    shutil.copytree(full, ref)
    delete_docs(ref, sorted(want))
    em, er = QueryEngine(out), QueryEngine(ref)
    for q in reference_queries(k=10):
        assert em.search(q["text"], q["k"]) == er.search(q["text"], q["k"])


def test_merge_shard_count_change_matches_fresh(hash_halves,
                                                small_corpus,
                                                tmp_path_factory):
    """Merging to a DIFFERENT shard count exercises the re-split path in
    hash mode; output must equal the fresh build at that count."""
    a, b, _full, cfg = hash_halves
    out = tmp_path_factory.mktemp("mrg_resplit") / "idx"
    merge_indexes([a, b], out, num_shards=5)
    full5 = tmp_path_factory.mktemp("mrg_full5") / "idx"
    build_index(small_corpus, full5,
                PipelineConfig(num_shards=5, doc_id_mode="hash"))
    assert _tree_bytes(Path(out)) == _tree_bytes(Path(full5))


@pytest.fixture(scope="module")
def provided_parts(small_corpus, tmp_path_factory):
    """Two provided-id corpora with interleaved id ranges (even/odd rows)
    — merging them MUST re-route runs under the union id space."""
    df = pd.concat([pq.read_table(f).to_pandas() for f in small_corpus],
                   ignore_index=True).sort_values(
        ["conv_id", "turn_idx"], kind="stable").reset_index(drop=True)
    df["doc_id"] = np.arange(len(df), dtype=np.int64)
    d = tmp_path_factory.mktemp("mrg_prov_src")
    even, odd = d / "even.parquet", d / "odd.parquet"
    df[df["doc_id"] % 2 == 0][["doc_id", "text"]].to_parquet(
        even, index=False)
    df[df["doc_id"] % 2 == 1][["doc_id", "text"]].to_parquet(
        odd, index=False)
    return str(even), str(odd)


def test_merge_provided_mode_resplit_byte_identity(provided_parts,
                                                   tmp_path_factory,
                                                   ray_session):
    even, odd = provided_parts
    cfg = PipelineConfig(num_shards=3, doc_id_mode="provided")
    base = tmp_path_factory.mktemp("mrg_prov")
    a, b, full, out = base / "a", base / "b", base / "full", base / "out"
    build_index([even], a, cfg)
    build_index([odd], b, cfg)
    build_index([even, odd], full, cfg)
    merge_indexes([str(a), str(b)], out)
    assert _tree_bytes(out) == _tree_bytes(full)
    assert _stats_triple(out) == _stats_triple(full)


def test_merge_then_append_composes(hash_halves, small_corpus,
                                    tmp_path_factory):
    """Append after merge: phase A runs only for the new fragment and the
    result equals a fresh build over everything."""
    from horus_ner_ray.pipelines.build_index import append_fragments
    from horus_ner_ray.synth import synth_transcripts, transcript_files

    a, b, _full, cfg = hash_halves
    out = tmp_path_factory.mktemp("mrg_app") / "idx"
    merge_indexes([a, b], out)
    extra_dir = tmp_path_factory.mktemp("mrg_app_extra")
    synth_transcripts(extra_dir, n_convs=10, seed=77, convs_per_file=10)
    extra = transcript_files(extra_dir)
    append_fragments(out, extra)
    fresh = tmp_path_factory.mktemp("mrg_app_fresh") / "idx"
    build_index(small_corpus + extra, fresh, cfg)
    assert _tree_bytes(Path(out)) == _tree_bytes(Path(fresh))


def test_merge_refusals(hash_halves, small_corpus, tmp_path_factory,
                        built_index):
    a, b, _full, _cfg = hash_halves
    rank_idx, _ = built_index  # the shared rank-mode index
    out = tmp_path_factory.mktemp("mrg_refuse") / "idx"
    with pytest.raises(ValueError, match="at least two"):
        merge_indexes([a], out)
    with pytest.raises(ValueError, match="NEW index directory"):
        merge_indexes([a, b], a)
    with pytest.raises(ValueError, match="rank"):
        merge_indexes([rank_idx, rank_idx + "x"][:1] * 2, out)
    with pytest.raises(ValueError, match="indexed by two inputs"):
        merge_indexes([a, a + "_copy"][:1] * 2, out)
    # config mismatch: same corpus split, different k1
    other = tmp_path_factory.mktemp("mrg_refuse_cfg") / "idx"
    build_index(small_corpus[2:], other,
                PipelineConfig(num_shards=3, doc_id_mode="hash", k1=0.5))
    with pytest.raises(ValueError, match="different output-affecting"):
        merge_indexes([a, str(other)], out)
    # mid-reshard input refused
    import shutil

    frozen = tmp_path_factory.mktemp("mrg_refuse_mid") / "idx"
    shutil.copytree(b, frozen)
    (Path(frozen) / "resharding.json").write_text("{}")
    with pytest.raises(RuntimeError, match="mid-reshard"):
        merge_indexes([a, str(frozen)], out)


def test_merge_positional_byte_identity(small_corpus, tmp_path_factory,
                                        ray_session):
    """Positional runs carry a list<int32> payload column — the merge
    (both the hard-link path and the re-split normalize path) must keep
    phrase/NEAR machinery byte-identical to a fresh positional build."""
    cfg = PipelineConfig(num_shards=3, doc_id_mode="hash",
                         with_positions=True)
    base = tmp_path_factory.mktemp("mrg_pos")
    a, b, full, out = base / "a", base / "b", base / "full", base / "out"
    build_index(small_corpus[:2], a, cfg)
    build_index(small_corpus[2:], b, cfg)
    build_index(small_corpus, full, cfg)
    merge_indexes([str(a), str(b)], out)
    assert _tree_bytes(out) == _tree_bytes(full)
    em, ef = QueryEngine(out), QueryEngine(full)
    assert em.search_phrase("the sessionmark", 10) == \
        ef.search_phrase("the sessionmark", 10)
    # shard-count change drives the re-split path over positional runs
    out5 = base / "out5"
    merge_indexes([str(a), str(b)], out5, num_shards=5)
    full5 = base / "full5"
    build_index(small_corpus, full5,
                PipelineConfig(num_shards=5, doc_id_mode="hash",
                               with_positions=True))
    assert _tree_bytes(out5) == _tree_bytes(full5)
