"""doc_id_mode='hash' (the beyond-broadcast scale path): same corpus,
same queries -> same documents and identical scores as rank mode, with ids
mapped back through the doc store."""

import pandas as pd
import pyarrow.parquet as pq
import pytest

from horus_ner_ray.config import PipelineConfig
from horus_ner_ray.pipelines.build_index import build_index
from horus_ner_ray.pipelines.query import QueryEngine
from horus_ner_ray.state.shards import IndexPaths
from horus_ner_ray.synth import reference_queries


@pytest.fixture(scope="module")
def hash_index(small_corpus, tmp_path_factory, ray_session):
    idx = tmp_path_factory.mktemp("hashidx") / "idx"
    build_index(small_corpus, idx, PipelineConfig(num_shards=4, doc_id_mode="hash"))
    return str(idx)


def _key_of(index_dir):
    parts = sorted(IndexPaths(index_dir).docstore.glob("part-*.parquet"))
    df = pd.concat([pq.read_table(p).to_pandas() for p in parts])
    return df.set_index("doc_id")[["conv_id", "turn_idx"]]


def test_hash_mode_same_results_as_rank(built_index, hash_index):
    rank_idx, _ = built_index
    er, eh = QueryEngine(rank_idx), QueryEngine(hash_index)
    assert er.n_docs == eh.n_docs and abs(er.avgdl - eh.avgdl) < 1e-9
    kr, kh = _key_of(rank_idx), _key_of(hash_index)
    for q in reference_queries(k=10):
        hr = er.search(q["text"], q["k"])
        hh = eh.search(q["text"], q["k"])
        assert len(hr) == len(hh), q["text"]
        # same scores; same documents per score level (tie order may differ
        # because the doc_id tie-break key differs between id modes)
        by_score_r: dict[float, set] = {}
        by_score_h: dict[float, set] = {}
        for d, s in hr:
            by_score_r.setdefault(round(s, 12), set()).add(
                tuple(kr.loc[d][["conv_id", "turn_idx"]])
            )
        for d, s in hh:
            by_score_h.setdefault(round(s, 12), set()).add(
                tuple(kh.loc[d][["conv_id", "turn_idx"]])
            )
        # boundary score level may hold different tied members; all interior
        # levels must match exactly
        scores_r = sorted(by_score_r, reverse=True)
        scores_h = sorted(by_score_h, reverse=True)
        assert scores_r == scores_h, q["text"]
        for s in scores_r[:-1]:
            assert by_score_r[s] == by_score_h[s], (q["text"], s)


def test_hash_mode_df_matches_rank(built_index, hash_index):
    er = QueryEngine(built_index[0])
    eh = QueryEngine(hash_index)
    for t in ["sessionmark", "the", "uniqueedge1", "alpha"]:
        assert er.global_df(t) == eh.global_df(t)


def test_append_fragments_byte_identical(small_corpus, tmp_path, ray_session):
    """build(A) + append(B) == build(A+B) byte-for-byte in hash mode, and
    phase A is incremental (A's fragment manifests untouched by append)."""
    import json

    from horus_ner_ray.pipelines.build_index import append_fragments, build_index
    from horus_ner_ray.state.shards import IndexPaths

    cfg = PipelineConfig(num_shards=3, doc_id_mode="hash")
    full = tmp_path / "full"
    build_index(small_corpus, full, cfg)

    inc = tmp_path / "inc"
    build_index(small_corpus[:1], inc, cfg)
    m0 = IndexPaths(inc).frag_manifest(0)
    before = m0.stat().st_mtime_ns
    res = append_fragments(inc, small_corpus[1:])
    assert m0.stat().st_mtime_ns == before  # old fragment not re-tokenized

    def idx_bytes(idx):
        out = {}
        for p in sorted((idx / "shards").rglob("*")):
            if p.is_file() and p.name != "manifest.json":
                out[str(p.relative_to(idx))] = p.read_bytes()
        out["df"] = (idx / "df.parquet").read_bytes()
        return out

    assert idx_bytes(full) == idx_bytes(inc)
    s_full = json.loads((full / "stats.json").read_text())
    s_inc = json.loads((inc / "stats.json").read_text())
    assert s_full["n_docs"] == s_inc["n_docs"] == res.n_docs
    assert s_full["avgdl"] == s_inc["avgdl"]


def test_append_refuses_rank_mode(small_corpus, tmp_path, ray_session):
    import pytest as _pytest

    from horus_ner_ray.pipelines.build_index import append_fragments, build_index

    idx = tmp_path / "rank"
    build_index(small_corpus[:1], idx, PipelineConfig(num_shards=2))
    with _pytest.raises(ValueError, match="hash"):
        append_fragments(idx, small_corpus[1:])
    with _pytest.raises(ValueError, match="already indexed"):
        build_index(small_corpus[:1], tmp_path / "h", PipelineConfig(num_shards=2, doc_id_mode="hash"))
        append_fragments(tmp_path / "h", small_corpus[:1])


def test_append_preserves_nondefault_config(small_corpus, tmp_path, ray_session):
    """append_fragments must restore the ORIGINAL build config (stopword
    filter, postings block) from stats.json — not defaults."""
    from horus_ner_ray.pipelines.build_index import append_fragments, build_index

    cfg = PipelineConfig(
        num_shards=3, doc_id_mode="hash",
        stopword_filter=("the", "to", "a"), postings_block=32,
    )
    full = tmp_path / "full"
    build_index(small_corpus, full, cfg)
    inc = tmp_path / "inc"
    build_index(small_corpus[:1], inc, cfg)
    append_fragments(inc, small_corpus[1:])

    def idx_bytes(idx):
        return {
            str(p.relative_to(idx)): p.read_bytes()
            for p in sorted((idx / "shards").rglob("*"))
            if p.is_file() and p.name != "manifest.json"
        }

    assert idx_bytes(full) == idx_bytes(inc)


def _oracle_without(files, drop_convs, out_path):
    """BruteForceBM25 over ``files`` minus the conversations ``drop_convs``,
    keyed by hash-mode doc ids."""
    import pyarrow as pa

    from horus_ner_ray.pipelines.query import BruteForceBM25
    from horus_ner_ray.stages.docstore import assign_doc_ids_hash

    t = pd.concat([pq.read_table(f, columns=["conv_id", "turn_idx", "text"])
                   .to_pandas() for f in files], ignore_index=True)
    t = t[~t["conv_id"].isin(drop_convs)].reset_index(drop=True)
    t["doc_id"] = assign_doc_ids_hash(pa.Table.from_pandas(t))
    t[["doc_id", "text"]].to_parquet(out_path, index=False)
    return BruteForceBM25.from_document_files([str(out_path)])


def _assert_matches_oracle(idx, oracle):
    eng = QueryEngine(idx)
    for q in reference_queries(k=10):
        assert eng.search(q["text"], q["k"]) == oracle.search(q["text"], q["k"]), q
    for q in ["alpha beta", "sessionmark the of", "the tok00042"]:
        assert (eng.search(q, 10, mode="and")
                == oracle.search(q, 10, mode="and")), q


def _conv_ids(files):
    return sorted(pd.concat([pq.read_table(f, columns=["conv_id"]).to_pandas()
                             for f in files])["conv_id"].unique())


def test_append_and_compact_accept_retired_champions_key(small_corpus, tmp_path,
                                                         ray_session):
    """An index whose stats.json config still carries the retired
    ``champions`` knob (written by index format v7) must stay appendable
    and compactable, and answer exactly like the oracle afterwards."""
    import json

    from horus_ner_ray.pipelines.build_index import append_fragments
    from horus_ner_ray.pipelines.delete import compact_index, delete_by_conv

    def add_retired_knob(idx):
        sp = IndexPaths(idx).stats_json
        stats = json.loads(sp.read_text())
        stats["config"]["champions"] = 256
        sp.write_text(json.dumps(stats))

    idx = tmp_path / "idx"
    build_index(small_corpus[:1], idx,
                PipelineConfig(num_shards=3, doc_id_mode="hash"))
    add_retired_knob(idx)
    append_fragments(idx, small_corpus[1:])
    _assert_matches_oracle(
        idx, _oracle_without(small_corpus, [], tmp_path / "o0.parquet"))

    add_retired_knob(idx)
    convs = _conv_ids(small_corpus)[::5]
    delete_by_conv(idx, convs)
    assert compact_index(idx)["compacted"]
    _assert_matches_oracle(
        idx, _oracle_without(small_corpus, convs, tmp_path / "o1.parquet"))


def test_compacted_v7_index_appends_and_merges_without_resurrection(
        small_corpus, tmp_path, ray_session):
    """A compacted index whose fragment and shard manifests carry format 7
    (written before the v8 shard change) keeps its filtered fragment state:
    append and merge must not re-tokenize the original corpus files, which
    would bring the compacted-away conversations back as live docs."""
    import json

    from horus_ner_ray.pipelines.build_index import append_fragments
    from horus_ner_ray.pipelines.delete import compact_index, delete_by_conv
    from horus_ner_ray.pipelines.merge import merge_indexes

    old = tmp_path / "old"
    build_index(small_corpus[:2], old,
                PipelineConfig(num_shards=3, doc_id_mode="hash"))
    convs = _conv_ids(small_corpus[:2])[::4]
    delete_by_conv(old, convs)
    assert compact_index(old)["compacted"]
    paths = IndexPaths(old)
    for mp in [*paths.runs.glob("_frag-*.json"),
               *paths.shards.glob("shard-*/manifest.json")]:
        m = json.loads(mp.read_text())
        m["version"] = 7
        mp.write_text(json.dumps(m))
    oracle = _oracle_without(small_corpus, convs, tmp_path / "o.parquet")

    tail = tmp_path / "tail"
    build_index(small_corpus[2:], tail,
                PipelineConfig(num_shards=3, doc_id_mode="hash"))
    merged = tmp_path / "merged"
    merge_indexes([old, tail], merged)
    _assert_matches_oracle(merged, oracle)

    append_fragments(old, small_corpus[2:])
    _assert_matches_oracle(old, oracle)
