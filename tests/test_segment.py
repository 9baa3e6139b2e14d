"""One segment per engine: a QueryEngine or ScorerActor folds the shards it
holds into one dictionary, one decode per term and one top-k.  Its answers
must equal the brute-force oracle restricted to the docs of those shards —
in rank and hash doc-id mode (hash shards interleave doc ids, so a term's
per-shard lists are merged and its positions permuted with them), with
tombstones, a role filter, AND block skipping and positional queries."""

import numpy as np
import pandas as pd
import pyarrow.parquet as pq
import pytest

from horus_ner_ray.config import PipelineConfig
from horus_ner_ray.pipelines.build_index import build_index
from horus_ner_ray.pipelines.delete import delete_docs
from horus_ner_ray.pipelines.query import BruteForceBM25, QueryEngine, ScorerActor
from horus_ner_ray.state.shards import IndexPaths
from horus_ner_ray.synth import reference_queries

N_SHARDS = 16
SUBSETS = ([5], [1, 7, 12], None)  # an engine holding 1, 3 and 16 shards


@pytest.fixture(scope="module", params=["rank", "hash"])
def seg_index(request, small_corpus, tmp_path_factory, ray_session):
    """16 shards with positions and 4-posting AND blocks (so skipping
    selects blocks across shards), a few docs tombstoned, and an oracle
    built from the index's own doc store."""
    idx = tmp_path_factory.mktemp(f"seg_{request.param}") / "idx"
    build_index(small_corpus, idx, PipelineConfig(
        num_shards=N_SHARDS, doc_id_mode=request.param, with_positions=True,
        postings_block=4))
    store = pd.concat([pq.read_table(p).to_pandas() for p in
                       sorted(IndexPaths(idx).docstore.glob("part-*.parquet"))])
    store = store.sort_values("doc_id")
    bf = BruteForceBM25()
    for r in store.itertuples():
        bf.add_doc(int(r.doc_id), r.text, r.role or "", r.tool or "",
                   ts=None if pd.isna(r.ts) else r.ts, conv=str(r.conv_id))
    dead = store["doc_id"].to_numpy()[::9]
    delete_docs(idx, dead)
    bf.delete_docs(dead)
    return str(idx), bf


def _oracle_for(idx, bf, subset):
    """The oracle with every doc outside ``subset`` masked; collection
    statistics stay global, exactly like an engine holding a subset."""
    if subset is None:
        return bf
    held = np.concatenate([np.load(IndexPaths(idx).shard_dir(s) / "docids.npy")
                           for s in subset])
    sub = BruteForceBM25()
    sub.__dict__.update(bf.__dict__)
    sub.deleted = set(bf.deleted) | (set(bf.dl) - set(held.tolist()))
    return sub


def _queries(bf):
    hot = sorted(bf.postings, key=lambda t: -len(bf.postings[t]))
    qs = [q["text"] for q in reference_queries(k=10)]
    qs += [f"{hot[0]} {hot[7]} {hot[-1]}", f"{hot[2]} {hot[30]}", hot[-3]]
    return qs


def _phrases(bf):
    """Adjacent token pairs and triples taken from the stored text."""
    out = []
    for d in sorted(bf.doc_tokens)[::37]:
        toks = bf.doc_tokens[d]
        if len(toks) >= 3:
            out += [" ".join(toks[:2]), " ".join(toks[1:4])]
    return out


@pytest.mark.parametrize("subset", SUBSETS, ids=["1", "3", "16"])
def test_segment_rank_identical(seg_index, subset):
    idx, bf = seg_index
    o = _oracle_for(idx, bf, subset)
    eng = QueryEngine(idx, shard_subset=subset)
    for q in _queries(bf):
        for mode in ("or", "and"):
            assert eng.search(q, 10, mode=mode) == o.search(q, 10, mode=mode), (q, mode)
            assert eng.search(q, 5, mode=mode, role="user") == \
                o.search(q, 5, mode=mode, role="user"), (q, mode, "role")
    for p in _phrases(bf):
        assert eng.search_phrase(p, 10) == o.search_phrase(p, 10), p
        assert eng.search_near(p, 10, window=4) == o.search_near(p, 10, window=4), p


@pytest.mark.parametrize("subset", SUBSETS, ids=["1", "3", "16"])
def test_scorer_actor_segment_rank_identical(seg_index, subset):
    """The serving actor answers from its folded segment, with its postings
    cache on: OR and AND twice (the second pass reads cached lists)."""
    idx, bf = seg_index
    o = _oracle_for(idx, bf, subset)
    actor = ScorerActor(idx, "or", subset)
    assert actor.warm() == (N_SHARDS if subset is None else len(subset))
    for _ in range(2):
        for i, q in enumerate(_queries(bf)):
            for mode in ("or", "and"):
                out = actor(pd.DataFrame([{"query_id": i, "text": q, "k": 10,
                                           "mode": mode}]))
                got = [(int(d), float(s)) for d, s in zip(out["doc_id"], out["score"])]
                assert got == o.search(q, 10, mode=mode), (q, mode)
