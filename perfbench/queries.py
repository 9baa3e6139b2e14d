"""Seeded query sets for the benchmark workloads.

Every query is a ``(text, mode)`` pair; ``k`` is fixed per run.  Terms come
from the built index's global df table (``df.parquet``), so the program
receives only generated inputs and the mix follows the corpus it serves.
"""

from __future__ import annotations

import numpy as np
import pyarrow.parquet as pq

from horus_ner_ray.state.shards import IndexPaths
from horus_ner_ray.synth import reference_queries

ABSENT_TERM = "zzzqabsent"  # no synthetic token matches it (synth.py vocab)
# The mix is an assumption, not taken from a query log: equal shares of 1-4
# terms (mean 2.5) and every 4th multi-term query conjunctive (~19% of the
# set).  The AND count is fixed so every seed does the same mix of work; the
# seed picks which terms the AND queries hold and when they are sent.
MAX_TERMS = 4
AND_EVERY = 4


def vocabulary(index_dir: str) -> tuple[np.ndarray, np.ndarray]:
    """(terms, df) of the built index's global df table."""
    t = pq.read_table(IndexPaths(index_dir).df_parquet, columns=["term", "df"])
    return (np.asarray(t["term"], dtype=object),
            np.asarray(t["df"], dtype=np.float64))


def draw_by_df(df: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    """``k`` distinct term indices, each term included with probability
    proportional to its df (capped at 1): terms whose share would reach a
    whole draw are taken outright, the rest by systematic sampling from one
    seeded offset.  Unlike independent draws, the df profile of the sample
    barely moves between seeds, so neither does the work it causes."""
    chosen: list[int] = []
    rest = np.argsort(-df, kind="stable")
    while True:
        need = k - len(chosen)
        certain = df[rest] * need >= df[rest].sum()
        if not certain.any():
            break
        chosen.extend(rest[certain].tolist())
        rest = rest[~certain]
    need = k - len(chosen)
    cum = np.cumsum(df[rest]) / df[rest].sum() * need
    pos = np.searchsorted(cum, rng.random() + np.arange(need), side="right")
    return np.array(chosen + rest[pos].tolist(), dtype=np.int64)


def diverse_queries(index_dir: str, n: int, seed: int,
                    rounds: int) -> list[tuple[str, str]]:
    """``n`` distinct queries.  The last is the single absent term (its
    answer must be empty); the others have 1-4 terms in equal shares, and
    every ``AND_EVERY``-th multi-term query is conjunctive.  Terms are drawn
    by df weight without replacement across the whole set (``draw_by_df``),
    so every term occurs in one query only and a serving actor sees each
    posting list once per pass.  Terms are dealt in df order, one pass per
    term position, so each query type gets the same share of hot terms.

    The list is sent in ``rounds`` consecutive slices of about equal size.
    Query ``i`` goes to slice ``i % rounds``; with ``rounds`` prime to
    ``MAX_TERMS`` each slice gets the same shares of term counts, modes and
    hot terms.  The seed picks the terms and the order within each slice."""
    terms, df = vocabulary(index_dir)
    rng = np.random.default_rng([seed, 11])
    sizes = [1 + i % MAX_TERMS for i in range(n - 1)]
    multi = np.cumsum([s > 1 for s in sizes])
    modes = ["and" if s > 1 and m % AND_EVERY == 1 else "or" for s, m in zip(sizes, multi)]
    picks = draw_by_df(df, sum(sizes), rng)
    picks = picks[np.argsort(-df[picks], kind="stable")]
    members: list[list[str]] = [[] for _ in sizes]
    o = 0
    for position in range(MAX_TERMS):
        for qi, size in enumerate(sizes):
            if size > position:
                members[qi].append(terms[picks[o]])
                o += 1
    order = np.concatenate([rng.permutation(np.arange(r, n - 1, rounds))
                            for r in range(rounds)])
    return [(" ".join(members[i]), modes[i]) for i in order] + [(ABSENT_TERM, "or")]


def hot_queries(n: int) -> list[tuple[str, str]]:
    """The 10 fixed ``reference_queries()`` cycled to ``n`` requests."""
    base = [q["text"] for q in reference_queries()]
    return [(base[i % len(base)], "or") for i in range(n)]


def absent_indices(queries: list[tuple[str, str]]) -> list[int]:
    return [i for i, (text, _) in enumerate(queries) if text == ABSENT_TERM]


def mix(queries: list[tuple[str, str]]) -> dict:
    """Mode shares and terms-per-query of a query set (README figures)."""
    nt = np.array([len(t.split()) for t, _ in queries], dtype=np.float64)
    return {
        "n": len(queries),
        "distinct": len(set(queries)),
        "and_share": sum(m == "and" for _, m in queries) / len(queries),
        "terms_mean": float(nt.mean()),
        "terms_hist": {int(v): int((nt == v).sum()) for v in np.unique(nt)},
    }
