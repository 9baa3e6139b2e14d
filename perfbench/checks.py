"""Output checks.  Each check is a pure function of the evidence a run
recorded (answers from every entry point, engine counts, and values computed
apart from the engine: Parquet footers, DuckDB, ``BruteForceBM25``), so the
self-test can feed it a perturbed copy.  A check raises ``CheckFailed``; it
is skipped when the workload recorded none of its evidence.

Evidence keys (all optional):
  footer_rows                 corpus row count from the Parquet footers
  built                       {"n_docs", "total_tokens", "df": {term: df}} from the engine
  duckdb                      the same counts from DuckDB over the corpus
  k, queries                  query list [(text, mode)]
  answers                     {"http" | "batch" | "engine": [hits or None per query]}
  pool                        {(text, mode): hits} as QueryService.search returned them
  oracle_sample               [(query index, oracle hits)] for ``answers["engine"]``
  deleted_doc_ids             doc ids of the tombstoned conversations (DuckDB rank rule)
  tombstoned_paths            answer paths that were served while tombstones applied
  deleted_turns, n_docs_compacted
  compact_sample              [(engine hits, oracle hits)] after compaction
Hits are lists of (doc_id, score) pairs in rank order.
"""

from __future__ import annotations


class CheckFailed(AssertionError):
    pass


def _fail(msg: str) -> None:
    raise CheckFailed(msg)


def _bitwise_equal(a, b) -> bool:
    return len(a) == len(b) and all(
        int(da) == int(db) and float(sa).hex() == float(sb).hex()
        for (da, sa), (db, sb) in zip(a, b))


def check_footer_rows(ev: dict) -> None:
    if ev["built"]["n_docs"] != ev["footer_rows"]:
        _fail(f"n_docs {ev['built']['n_docs']} != footer rows {ev['footer_rows']}")


def check_duckdb_counts(ev: dict) -> None:
    got, want = ev["built"], ev["duckdb"]
    for key in ("n_docs", "total_tokens"):
        if got[key] != want[key]:
            _fail(f"{key} {got[key]} != DuckDB {want[key]}")
    if got["df"] != want["df"]:
        bad = sorted(t for t in want["df"] if got["df"].get(t) != want["df"][t])
        _fail(f"df differs from DuckDB on {bad[:5]}")


def check_no_deleted_hits(ev: dict) -> None:
    dead = ev["deleted_doc_ids"]
    for path in ev["tombstoned_paths"]:
        for qi, hits in enumerate(ev["answers"][path]):
            for d, _ in hits or ():
                if d in dead:
                    _fail(f"{path} query {qi} returned tombstoned doc {d}")


def check_compact_count(ev: dict) -> None:
    want = ev["built"]["n_docs"] - ev["deleted_turns"]
    if ev["n_docs_compacted"] != want:
        _fail(f"compacted n_docs {ev['n_docs_compacted']} != {want}")


def check_compact_oracle(ev: dict) -> None:
    for i, (got, want) in enumerate(ev["compact_sample"]):
        if not _bitwise_equal(got, want):
            _fail(f"compacted sample {i} differs from BruteForceBM25")


def check_paths_agree(ev: dict) -> None:
    answers, pool = ev["answers"], ev["pool"]
    for qi, q in enumerate(ev["queries"]):
        ref = answers["engine"][qi]
        for path in ("http", "batch"):
            got = answers[path][qi]
            if ref is not None and got is not None and not _bitwise_equal(got, ref):
                _fail(f"{path} != engine on query {qi} {q!r}")
        got = pool.get(tuple(q))
        if ref is not None and got is not None and not _bitwise_equal(got, ref):
            _fail(f"pool != engine on query {qi} {q!r}")


def check_oracle_sample(ev: dict) -> None:
    for qi, want in ev["oracle_sample"]:
        got = ev["answers"]["engine"][qi]
        if got is not None and not _bitwise_equal(got, want):
            _fail(f"engine != BruteForceBM25 on query {qi} {ev['queries'][qi]!r}")


def check_list_shape(ev: dict) -> None:
    k = ev["k"]
    absent = {i for i, (text, _) in enumerate(ev["queries"]) if text == ev["absent_term"]}
    for path, lists in ev["answers"].items():
        for qi, hits in enumerate(lists):
            if hits is None:
                continue
            if len(hits) > k:
                _fail(f"{path} query {qi}: {len(hits)} hits > k={k}")
            if qi in absent and hits:
                _fail(f"{path} absent-term query {qi} returned hits")
            for (_, a), (_, b) in zip(hits, hits[1:]):
                if b > a:
                    _fail(f"{path} query {qi}: score rises down the list")


# (name, check, evidence keys it needs)
CHECKS = [
    ("footer_rows", check_footer_rows, ("built", "footer_rows")),
    ("duckdb_counts", check_duckdb_counts, ("built", "duckdb")),
    ("no_deleted_hits", check_no_deleted_hits, ("answers", "deleted_doc_ids", "tombstoned_paths")),
    ("compact_count", check_compact_count, ("built", "deleted_turns", "n_docs_compacted")),
    ("compact_oracle", check_compact_oracle, ("compact_sample",)),
    ("paths_agree", check_paths_agree, ("answers", "pool", "queries")),
    ("oracle_sample", check_oracle_sample, ("answers", "oracle_sample", "queries")),
    ("list_shape", check_list_shape, ("answers", "k", "queries", "absent_term")),
]


def run_checks(ev: dict) -> dict[str, str]:
    """Run every check whose evidence is present; {name: 'ok' | failure}."""
    out = {}
    for name, fn, keys in CHECKS:
        if not all(k in ev for k in keys):
            continue
        try:
            fn(ev)
            out[name] = "ok"
        except CheckFailed as e:
            out[name] = str(e)
    return out
