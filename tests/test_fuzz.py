"""Randomized end-to-end fuzz: random small corpora (adversarial token
distributions, empty docs, unicode, duplicated texts) and random queries —
engine must stay bitwise rank-identical to the oracle across OR/AND modes
and k values.  Seeded, deterministic."""

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from horus_ner_ray.config import PipelineConfig
from horus_ner_ray.pipelines.build_index import build_index
from horus_ner_ray.pipelines.query import BruteForceBM25, QueryEngine

WORDS = (
    ["w%02d" % i for i in range(40)]
    + ["the", "of", "and"]
    + ["Uniq%04d" % i for i in range(200)]
    + ["naïve", "…", "x1", "2x", "a"]
)


def _random_corpus(rng: np.random.RandomState, path, n_docs: int, n_files: int):
    rows = {"conv_id": [], "turn_idx": [], "role": [], "text": []}
    conv = 0
    t = 0
    turns_in_conv = rng.randint(1, 6)
    for i in range(n_docs):
        n = rng.randint(0, 30)
        toks = [WORDS[rng.randint(len(WORDS))] for _ in range(n)]
        if rng.random_sample() < 0.1:
            toks = []  # empty doc
        if rng.random_sample() < 0.1 and i > 0:
            toks = rows["text"][-1].split(" ")  # duplicate text
        rows["conv_id"].append(f"c{conv:05d}")
        rows["turn_idx"].append(t)
        rows["role"].append("user")
        rows["text"].append(" ".join(toks))
        t += 1
        if t >= turns_in_conv:
            conv += 1
            t = 0
            turns_in_conv = rng.randint(1, 6)
    tbl = pa.table(
        {
            "conv_id": pa.array(rows["conv_id"]),
            "turn_idx": pa.array(rows["turn_idx"], pa.int32()),
            "role": pa.array(rows["role"]),
            "text": pa.array(rows["text"]),
        }
    )
    files = []
    per = max(1, len(tbl) // n_files)
    # split on conversation boundaries (fragments must hold whole convs)
    import pandas as pd

    df = tbl.to_pandas()
    convs = df["conv_id"].unique()
    for fi, lo in enumerate(range(0, len(convs), max(1, len(convs) // n_files))):
        sub = df[df["conv_id"].isin(convs[lo : lo + max(1, len(convs) // n_files)])]
        if len(sub) == 0:
            continue
        f = path / f"part-{fi:03d}.parquet"
        pq.write_table(pa.Table.from_pandas(sub, preserve_index=False), f)
        files.append(str(f))
    return files


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_fuzz_rank_identity(seed, tmp_path, ray_session):
    rng = np.random.RandomState(seed)
    files = _random_corpus(rng, tmp_path, n_docs=300 + seed * 77, n_files=3)
    cfg = PipelineConfig(num_shards=int(rng.randint(1, 7)), postings_block=int(rng.choice([8, 32, 128])))
    build_index(files, tmp_path / "idx", cfg)
    eng = QueryEngine(tmp_path / "idx")
    bf = BruteForceBM25.from_corpus_files(files)
    for _ in range(30):
        nq = rng.randint(1, 5)
        q = " ".join(WORDS[rng.randint(len(WORDS))] for _ in range(nq))
        k = int(rng.choice([1, 2, 5, 10, 50]))
        assert eng.search(q, k) == bf.search(q, k), (seed, q, k)
        assert eng.search(q, k, mode="and") == bf.search(q, k, mode="and"), (seed, q, k)


@pytest.mark.parametrize("seed", [3, 4])
def test_fuzz_rank_identity_with_postings_cache(seed, tmp_path, ray_session):
    """The decoded-postings cache (tiny budget -> constant evictions) must
    never change results, including on repeated queries (hit path)."""
    rng = np.random.RandomState(seed)
    files = _random_corpus(rng, tmp_path, n_docs=250, n_files=2)
    cfg = PipelineConfig(num_shards=3, postings_block=16)
    build_index(files, tmp_path / "idx", cfg)
    cached = QueryEngine(tmp_path / "idx", cache_postings=2000)
    plain = QueryEngine(tmp_path / "idx")
    bf = BruteForceBM25.from_corpus_files(files)
    queries = []
    for _ in range(10):
        nq = rng.randint(1, 4)
        queries.append(" ".join(WORDS[rng.randint(len(WORDS))] for _ in range(nq)))
    for rep in range(3):  # repeats exercise the cache-hit path
        for q in queries:
            for mode in ("or", "and"):
                want = bf.search(q, 10, mode=mode)
                assert cached.search(q, 10, mode=mode) == want, (seed, rep, q, mode)
                assert plain.search(q, 10, mode=mode) == want, (seed, rep, q, mode)


@pytest.mark.parametrize("seed", [5, 6])
def test_fuzz_append_byte_identity(seed, tmp_path, ray_session):
    """Random corpus, random fragment split: build(prefix) + append(rest)
    is byte-identical to build(all) in hash mode."""
    from horus_ner_ray.pipelines.build_index import append_fragments

    rng = np.random.RandomState(seed)
    files = _random_corpus(rng, tmp_path, n_docs=300, n_files=4)
    cut = int(rng.randint(1, len(files)))
    cfg = PipelineConfig(num_shards=3, doc_id_mode="hash")
    full = tmp_path / "full"
    build_index(files, full, cfg)
    inc = tmp_path / "inc"
    build_index(files[:cut], inc, cfg)
    append_fragments(inc, files[cut:])

    def idx_bytes(idx):
        return {
            str(p.relative_to(idx)): p.read_bytes()
            for p in sorted((idx / "shards").rglob("*"))
            if p.is_file() and p.name != "manifest.json"
        }

    assert idx_bytes(full) == idx_bytes(inc), (seed, cut)


@pytest.mark.parametrize("seed", [7, 8])
def test_fuzz_phrase_rank_identity(seed, tmp_path, ray_session):
    """Vectorized positional-adjacency verify vs the oracle's token-scan,
    random corpora and random 1-4 word phrases (incl. duplicate words)."""
    rng = np.random.RandomState(seed)
    files = _random_corpus(rng, tmp_path, n_docs=200, n_files=2)
    cfg = PipelineConfig(num_shards=3, with_positions=True)
    build_index(files, tmp_path / "idx", cfg)
    eng = QueryEngine(tmp_path / "idx")
    bf = BruteForceBM25.from_corpus_files(files)
    for _ in range(40):
        n = rng.randint(1, 5)
        words = [WORDS[rng.randint(len(WORDS))] for _ in range(n)]
        if rng.rand() < 0.3 and n > 1:
            words[rng.randint(n)] = words[0]  # force duplicate word
        q = " ".join(words)
        assert eng.search_phrase(q, 10) == bf.search_phrase(q, 10), (seed, q)
