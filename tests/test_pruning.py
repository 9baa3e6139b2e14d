"""OR/AND scoring stress tests: a larger corpus and adversarial query mixes
(hot+rare, all-ties) scored by the one exact per-shard pass; results must
remain bitwise rank-identical to the oracle, with and without the
decoded-postings cache."""

import numpy as np
import pytest

from horus_ner_ray.config import PipelineConfig
from horus_ner_ray.pipelines.build_index import build_index
from horus_ner_ray.pipelines.query import BruteForceBM25, QueryEngine
from horus_ner_ray.state.shards import ShardReader
from horus_ner_ray.synth import synth_transcripts, transcript_files


@pytest.fixture(scope="module")
def big_fixture(tmp_path_factory, ray_session):
    d = tmp_path_factory.mktemp("prune") / "corpus"
    synth_transcripts(d, n_convs=800, seed=11, convs_per_file=200)
    files = transcript_files(d)
    idx = tmp_path_factory.mktemp("prune") / "idx"
    build_index(files, idx, PipelineConfig(num_shards=4, postings_block=64))
    return str(idx), files


def _hot_rare_queries(bf: BruteForceBM25, n: int, seed: int) -> list[str]:
    rng = np.random.RandomState(seed)
    vocab = sorted(bf.postings, key=lambda t: -len(bf.postings[t]))
    hot, mid, rare = vocab[:5], vocab[20:40], vocab[-50:]
    queries = []
    for _ in range(n):
        qterms = (
            [hot[rng.randint(len(hot))] for _ in range(rng.randint(1, 3))]
            + [mid[rng.randint(len(mid))] for _ in range(rng.randint(0, 3))]
            + [rare[rng.randint(len(rare))] for _ in range(rng.randint(0, 2))]
        )
        queries.append(" ".join(qterms))
    return queries + ["sessionmark the of to", "sessionmark uniqueedge1 the"]


def test_or_rank_identical_hot_rare_mix(big_fixture):
    idx, files = big_fixture
    eng = QueryEngine(idx)
    bf = BruteForceBM25.from_corpus_files(files)
    for k in (1, 3, 10):
        for q in _hot_rare_queries(bf, 40, 0):
            assert eng.search(q, k) == bf.search(q, k), (q, k)


def test_hot_single_term_rank_identical(big_fixture):
    """Hot single-term queries (the every-turn marker, stopwords)."""
    idx, files = big_fixture
    eng = QueryEngine(idx)
    bf = BruteForceBM25.from_corpus_files(files)
    for term in ["sessionmark", "the", "of"]:
        for k in (1, 5, 10, 50):
            assert eng.search(term, k) == bf.search(term, k), (term, k)


def test_or_and_mix_rank_identical_with_postings_cache(big_fixture, monkeypatch):
    """A hot+rare mix sent as OR and as AND: exact with the postings cache
    off, and with it on.  AND fills the cache too: after an AND-only pass
    every list AND read is cached, and a second pass decodes no blocks."""
    idx, files = big_fixture
    bf = BruteForceBM25.from_corpus_files(files)
    queries = _hot_rare_queries(bf, 30, 1)
    plain = QueryEngine(idx)
    for q in queries:
        for mode in ("or", "and"):
            assert plain.search(q, 10, mode=mode) == bf.search(q, 10, mode=mode), (q, mode)

    block_decodes = []
    orig = ShardReader.postings_blocks

    def counting(reader, ti, blocks):
        block_decodes.append(ti)
        return orig(reader, ti, blocks)

    monkeypatch.setattr(ShardReader, "postings_blocks", counting)
    and_only = QueryEngine(idx, cache_postings=10_000_000)
    for q in queries:
        assert and_only.search(q, 10, mode="and") == bf.search(q, 10, mode="and"), q
    assert and_only._reader()._pcache, "AND left the postings cache empty"
    block_decodes.clear()
    for q in queries:
        for mode in ("and", "or"):
            assert and_only.search(q, 10, mode=mode) == bf.search(q, 10, mode=mode), (q, mode)
    assert block_decodes == [], "AND decoded blocks of a cached list"


def test_all_ties_rank_by_doc_id(tmp_path, ray_session):
    """Adversarial: every posting of the hot term has the same (tf, dl), so
    ALL scores tie at every top-k boundary — the ranking must fall back to
    doc_id asc exactly like the oracle."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    n = 150
    rows = [
        {"doc_id": i, "text": "hotterm filler alpha beta gamma"} for i in range(n)
    ]
    # a few docs with distinct dl so avgdl isn't degenerate but ties remain
    rows += [{"doc_id": n + i, "text": "other words entirely here"} for i in range(5)]
    f = tmp_path / "docs.parquet"
    pq.write_table(pa.Table.from_pylist(rows), f)
    idx = tmp_path / "idx"
    cfg = PipelineConfig(num_shards=1, doc_id_mode="provided")
    build_index([str(f)], idx, cfg)
    eng = QueryEngine(str(idx))
    bf = BruteForceBM25.from_document_files([str(f)])
    for k in (1, 5, 8):
        assert eng.search("hotterm", k) == bf.search("hotterm", k), k

    # a hot term with distinct scores ranks the same way
    rows2 = [
        {"doc_id": i, "text": "hotterm " * (1 + i % 7) + "pad " * (i % 11)}
        for i in range(150)
    ]
    f2 = tmp_path / "docs2.parquet"
    pq.write_table(pa.Table.from_pylist(rows2), f2)
    idx2 = tmp_path / "idx2"
    build_index([str(f2)], idx2, cfg)
    eng2 = QueryEngine(str(idx2))
    bf2 = BruteForceBM25.from_document_files([str(f2)])
    for k in (1, 5, 8):
        assert eng2.search("hotterm", k) == bf2.search("hotterm", k), k
