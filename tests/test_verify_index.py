"""verify_index (the CheckIndex/fsck op): a healthy index passes clean
(incl. deep tombstone membership); every seeded corruption class is
named in the raised report."""

import json
from pathlib import Path

import numpy as np
import pytest

from horus_ner_ray.config import PipelineConfig
from horus_ner_ray.pipelines.build_index import build_index
from horus_ner_ray.pipelines.delete import delete_docs
from horus_ner_ray.pipelines.verify import IndexCorruption, verify_index
from horus_ner_ray.state.shards import IndexPaths


@pytest.fixture()
def healthy(small_corpus, tmp_path, ray_session):
    idx = tmp_path / "idx"
    build_index(small_corpus, idx,
                PipelineConfig(num_shards=3, doc_id_mode="hash"))
    delete_docs(idx, np.load(IndexPaths(idx).shard_dir(0) / "docids.npy")[:4])
    return idx


def test_healthy_index_verifies(healthy):
    rep = verify_index(healthy)
    assert rep["ok"] and rep["n_shards"] == 3 and rep["n_deleted"] == 4
    assert rep["docstore_rows"] == rep["n_docs"]
    deep = verify_index(healthy, deep=True)
    assert deep["ok"] and deep["deep"]


def test_detects_truncated_postings(healthy):
    p = Path(healthy) / "shards" / "shard-00001" / "postings.bin"
    p.write_bytes(p.read_bytes()[:-10])
    with pytest.raises(IndexCorruption, match="postings.bin"):
        verify_index(healthy)


def test_detects_stale_stats_and_missing_shard(healthy):
    s = json.loads((Path(healthy) / "stats.json").read_text())
    s["n_shards"] = 7
    (Path(healthy) / "stats.json").write_text(json.dumps(s))
    with pytest.raises(IndexCorruption, match="7 shards"):
        verify_index(healthy)


def test_detects_df_table_divergence(healthy):
    import pyarrow as pa
    import pyarrow.parquet as pq

    f = Path(healthy) / "df.parquet"
    t = pq.read_table(f)
    df = t["df"].to_pylist()
    df[0] += 1
    pq.write_table(pa.table({"term": t["term"],
                             "df": pa.array(df, pa.int64()),
                             "cf": t["cf"]}), f)
    with pytest.raises(IndexCorruption, match="df.parquet"):
        verify_index(healthy)


def test_detects_stale_tombstones_and_stray_tmp(healthy):
    delete_docs(healthy, [10**15])  # id no docstore row carries
    with pytest.raises(IndexCorruption, match="not present"):
        verify_index(healthy, deep=True)
    verify_index(healthy)  # shallow pass doesn't scan membership
    (Path(healthy) / "docstore" / "part-junk.parquet.tmp").write_bytes(b"x")
    with pytest.raises(IndexCorruption, match="stray tmp"):
        verify_index(healthy)


def test_detects_maintenance_marker(healthy):
    (Path(healthy) / "compacting.json").write_text("{}")
    with pytest.raises(IndexCorruption, match="compacting.json"):
        verify_index(healthy)
