"""Long-lived query serving: a warm partitioned actor pool behind a thin
HTTP front.

Reference analogue: the REST webservice holding one long-lived extractor
process (reference: webservice/rest.py:19-61 — Flask route -> persistent
``Horus`` object).  Here the persistent object is a pool of mmap-holding
``ScorerActor``s with the index's shard dirs partitioned round-robin across
them (the multi-node serving shape: on a real cluster each actor sits on
the node holding its shards); every query scatters to all actors, each
returns the exact top-k of ITS shards, and the tiny per-actor partials
merge on the serving thread — identical results to single-engine search
because shards partition documents.

Nothing here calls ray.init(): the service joins the caller's session
(driver contract), exactly like every other pipeline in this package.
"""

from __future__ import annotations

import json
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import parse_qs, urlparse

import numpy as np
import pandas as pd

# every mode GET /search and POST /batch accept (one list, so the two
# routes cannot drift apart)
SEARCH_MODES = ("or", "and", "phrase", "near", "boolean", "prefix", "fuzzy",
                "contains", "lm", "classic", "regex", "wildcard", "stemmed",
                "first", "common", "boosting", "dismax", "phrase_prefix",
                "span_not", "qs")


class QueryService:
    """Warm partitioned scorer pool with a blocking ``search()`` — the
    object a serving deployment keeps alive between requests."""

    def __init__(self, index_dir: str, n_actors: int = 4, mode: str = "or"):
        import ray

        from horus_ner_ray.pipelines.query import ScorerActor
        from horus_ner_ray.state.shards import IndexPaths
        from horus_ner_ray.util import worker_runtime_env

        self.index_dir = index_dir
        n_shards = len(IndexPaths(index_dir).published_shards())
        n_actors = max(1, min(n_actors, n_shards))
        self._subsets = [list(range(i, n_shards, n_actors))
                         for i in range(n_actors)]
        env = worker_runtime_env()
        cls = ray.remote(num_cpus=1)(ScorerActor)
        if env:
            cls = cls.options(runtime_env=env)
        self._cls = cls
        self.mode = mode
        self.actors = [self._spawn(i) for i in range(n_actors)]
        ray.get([a.warm.remote() for a in self.actors])

    def _spawn(self, i: int):
        return self._cls.remote(self.index_dir, self.mode, self._subsets[i])

    def _scatter(self, q: pd.DataFrame) -> list[pd.DataFrame]:
        """Scatter to every actor; a DEAD actor (node loss, OOM kill) is
        respawned on its shard subset and its partial retried once — the
        long-lived service survives worker churn instead of surfacing a
        RayActorError to the client.  Each actor's shard set is fixed, so
        the respawned actor computes the identical partial (mmaps reopen
        lazily; results stay bitwise-equal)."""
        return self._call_all(lambda a: a.__call__.remote(q))

    def _gather_one(self, i: int, ref, fn):
        """Gather one actor's in-flight ref; a DEAD actor is respawned on
        its fixed shard subset and the call retried once — the ONE place
        the churn-resilience policy lives (scatter and single-actor
        routes both land here)."""
        import ray

        try:
            return ray.get(ref)
        except ray.exceptions.RayActorError:
            self.actors[i] = self._spawn(i)
            return ray.get(fn(self.actors[i]))

    def _call_one(self, i: int, fn):
        return self._gather_one(i, fn(self.actors[i]), fn)

    def _call_all(self, fn):
        """Fan out ``fn(actor) -> ObjectRef`` to the whole pool FIRST
        (calls run concurrently), then gather with the shared per-actor
        retry."""
        refs = [fn(a) for a in self.actors]
        return [self._gather_one(i, ref, fn) for i, ref in enumerate(refs)]

    def _fetch_rows(self, doc_ids, columns=None) -> pd.DataFrame:
        """Docstore rows for the given ids — the one doc-content seam the
        text routes share (FederatedQueryService overrides it to probe
        every member index)."""
        from horus_ner_ray.pipelines.query import fetch_docs

        return fetch_docs(self.index_dir, doc_ids, columns=columns)

    def search(self, text: str, k: int = 10, mode: str | None = None,
               return_text: bool = False, role: str | None = None,
               tool: str | None = None,
               exclude: str | None = None, window: int = 8,
               after: tuple[int, float] | None = None,
               should: str | None = None,
               min_should_match: int = 0,
               boost: str | None = None,
               slop: int = 0,
               first_n: int = 8,
               negative: str | None = None,
               negative_boost: float = 0.5,
               tie_breaker: float = 0.5,
               max_expansions: int = 50,
               dist: int = 2,
               cutoff_pct: int = 50,
               transpositions: bool = False) -> list[dict]:
        """One query: scatter to every actor, merge exact partials.
        ``return_text`` joins the hits back to the docstore rows (the
        reference's route returns the sentence text, rest.py:47-61).
        ``role``/``tool`` are field filters (the reference's per-channel
        evidence split, horus0.1.5.db.sql:59-109); ``exclude`` is the
        boolean-NOT clause.  ``mode`` additionally accepts the
        dictionary-expansion modes ``prefix`` / ``fuzzy`` / ``contains``
        (doc-partitioned shards keep per-subset top-k exact, so the merge
        stays exact for every mode)."""
        q = pd.DataFrame(
            [{"query_id": 0, "text": text, "k": int(k),
              "mode": mode or self.mode, "role": role or "",
              "tool": tool or "", "exclude": exclude or "",
              "window": int(window), "should": should or "",
              "msm": int(min_should_match), "boost": boost or "",
              "slop": int(slop), "first_n": int(first_n),
              "negative": negative or "",
              "nb": float(negative_boost), "tie": float(tie_breaker),
              "max_exp": int(max_expansions), "dist": int(dist),
              "cutoff": int(cutoff_pct),
              "transpose": int(bool(transpositions)),
              "after_doc": None if after is None else int(after[0]),
              "after_score": float("nan") if after is None
              else float(after[1])}]
        )
        parts = self._scatter(q)
        cand = pd.concat(parts, ignore_index=True)
        if len(cand) == 0:
            return []
        g = cand.sort_values(["score", "doc_id"], ascending=[False, True],
                             kind="stable").head(int(k))
        hits = [
            {"rank": r + 1, "doc_id": int(d), "score": float(s)}
            for r, (d, s) in enumerate(zip(g["doc_id"], g["score"]))
        ]
        if return_text and hits:
            from horus_ner_ray.pipelines.query import highlight_spans

            rows = self._fetch_rows([h["doc_id"] for h in hits],
                                    columns=["doc_id", "text"])
            txt = dict(zip(rows["doc_id"], rows["text"]))
            for h in hits:
                h["text"] = txt.get(h["doc_id"])
            # annotated-sentence analogue: character spans of matched terms
            spans = highlight_spans([h["text"] for h in hits], text)
            for h, sp in zip(hits, spans):
                h["match_spans"] = sp
        return hits

    def search_batch(self, queries: list[dict]) -> list[dict]:
        """Many queries in ONE scatter: the whole query frame ships to
        every actor (ScorerActor scores batches natively — one actor
        round-trip per pool member instead of per query), each returns
        its shards' exact top-k per query, and the per-query merges are
        tiny.  Entries: {id?, q, k?, mode?, role?, tool?, exclude?,
        window?, should?, msm?}.  Returns one {id, query, hits} row per
        entry, in input order."""
        rows = []
        for i, e in enumerate(queries):
            rows.append({
                "query_id": i, "text": str(e.get("q", "")),
                "k": int(e.get("k", 10)),
                "mode": e.get("mode") or self.mode,
                "role": e.get("role") or "",
                "tool": e.get("tool") or "",
                "exclude": e.get("exclude") or "",
                "window": int(e.get("window", 8)),
                "should": e.get("should") or "",
                "msm": int(e.get("msm", 0)),
                "boost": e.get("boost") or "",
                "slop": int(e.get("slop", 0)),
                "first_n": int(e.get("first_n", 8)),
                "negative": e.get("negative") or "",
                "nb": float(e.get("nb", 0.5)),
                "tie": float(e.get("tie", 0.5)),
                "max_exp": int(e.get("max_exp", 50)),
                "dist": int(e.get("dist", 2)),
                "cutoff": int(e.get("cutoff", 50)),
                "transpose": int(e.get("transpose", 0)),
                "after_doc": None, "after_score": float("nan"),
            })
        qdf = pd.DataFrame(rows)
        parts = self._scatter(qdf)
        cand = pd.concat(parts, ignore_index=True)
        out = []
        for i, e in enumerate(queries):
            g = cand[cand.query_id == i] if len(cand) else cand
            hits = []
            if len(g):
                g = g.sort_values(["score", "doc_id"],
                                  ascending=[False, True],
                                  kind="stable").head(int(rows[i]["k"]))
                hits = [{"rank": r + 1, "doc_id": int(d), "score": float(s)}
                        for r, (d, s) in enumerate(zip(g["doc_id"],
                                                       g["score"]))]
            out.append({"id": e.get("id", i), "query": rows[i]["text"],
                        "hits": hits})
        return out

    def stats(self) -> dict:
        """Index-level operational stats (the /stats route): collection
        numbers from stats.json plus the live tombstone count — driver
        reads only, no actor round-trip."""
        import json as _json

        from horus_ner_ray.pipelines.delete import read_tombstones
        from horus_ner_ray.state.shards import IndexPaths

        paths = IndexPaths(self.index_dir)
        s = _json.loads(paths.stats_json.read_text())
        ts = read_tombstones(self.index_dir)
        return {
            "n_docs": int(s["n_docs"]),
            "total_tokens": int(s["total_tokens"]),
            "avgdl": float(s["avgdl"]),
            "n_shards": int(s["n_shards"]),
            "doc_id_mode": s["doc_id_mode"],
            "with_positions": bool(s.get("with_positions", False)),
            "n_deleted": 0 if ts is None else int(len(ts)),
            "compaction_gen": int(s.get("compaction_gen", 0)),
            "n_actors": len(self.actors),
        }

    def explain(self, text: str, doc_id: int) -> list[dict]:
        """Per-term BM25 factors for one (query, doc): scatter — only the
        actor owning the doc's shard returns rows."""
        parts = self._call_all(lambda a: a.explain.remote(text, int(doc_id)))
        return [row for rows in parts for row in rows]

    def date_histogram(self, text: str,
                       interval_us: int = 86_400_000_000) -> dict[int, int]:
        """Time-bucketed facet over the full match set: bucket-wise sum of
        per-subset partials (doc-partitioned shards make the sum exact)."""
        parts = self._call_all(
            lambda a: a.date_histogram.remote(text, interval_us))
        out: dict[int, int] = {}
        for part in parts:
            for b, c in part.items():
                out[int(b)] = out.get(int(b), 0) + int(c)
        return out

    def auto_date_histogram(self, text: str, target_buckets: int = 20
                            ) -> tuple[int, dict[int, int]]:
        """auto_date_histogram through the pool: one field_stats scatter
        bounds the match set's stored ts, ``choose_auto_interval`` picks
        the ladder interval (the shared rule), one histogram scatter at
        that interval — identical (interval, buckets) to
        QueryEngine.auto_date_histogram."""
        from horus_ner_ray.pipelines.query import choose_auto_interval

        st = self.field_stats(text, "ts")
        if st["count"] == 0:
            return 0, {}
        iv = choose_auto_interval(st["min"], st["max"], target_buckets)
        return iv, self.date_histogram(text, interval_us=iv)

    def count(self, text: str, mode: str = "or", role: str | None = None,
              tool: str | None = None) -> int:
        """Total-hits count: per-subset partial counts sum exactly
        (doc-partitioned shards)."""
        parts = self._call_all(
            lambda a: a.match_count.remote(text, mode, role, tool))
        return int(sum(parts))

    def search_sorted(self, text: str, k: int = 10, field: str = "ts",
                      ascending: bool = True,
                      mode: str = "or") -> list[dict]:
        """Field-sorted retrieval: scatter for each subset's exact local
        top-k by (value, doc_id), tiny global merge — identical rows to
        QueryEngine.search_sorted_by."""
        parts = self._call_all(
            lambda a: a.search_sorted_by.remote(text, k, field, ascending,
                                                mode))
        rows = [t for p in parts for t in p]
        rows.sort(key=lambda dv: ((dv[1] if ascending else -dv[1]), dv[0]))
        return [{"rank": r + 1, "doc_id": int(d), field: int(v)}
                for r, (d, v) in enumerate(rows[:k])]

    def recency(self, text: str, k: int = 10, now_us: int = 0,
                horizon_s: int = 2_592_000, boost_e6: int = 5_000_000,
                mode: str = "or") -> list[dict]:
        """Recency function-score through the pool: each subset ships its
        exact local top-k in the combined integer domain, tiny merge —
        row-identical to QueryEngine.search_recency."""
        parts = self._call_all(
            lambda a: a.search_recency.remote(text, k, now_us, horizon_s,
                                              boost_e6, mode))
        rows = [t for p in parts for t in p]
        rows.sort(key=lambda dv: (-dv[1], dv[0]))
        return [{"rank": r + 1, "doc_id": int(d), "score_e6": int(v)}
                for r, (d, v) in enumerate(rows[:k])]

    def adjacency_matrix(self, filters: dict[str, str]) -> list[dict]:
        """Adjacency-matrix aggregation through the pool: one scatter of
        per-subset pairwise counts, summed — exact because shards
        partition documents."""
        parts = self._call_all(lambda a: a.adjacency_partial.remote(filters))
        acc: dict[tuple[str, str], int] = {}
        for p in parts:
            for a, b, c in p:
                acc[(a, b)] = acc.get((a, b), 0) + int(c)
        return [{"a": a, "b": b, "count": c}
                for (a, b), c in sorted(acc.items())]

    def field_percentile_ranks(self, text: str, values,
                               field: str = "ts",
                               mode: str = "or") -> list[dict]:
        """Exact percentile ranks through the pool: ONE scatter of
        (count_le vector, count) integer partials, rank_e6 recomputed
        from the merged sums — identical numbers to
        QueryEngine.field_percentile_ranks."""
        import math

        probes = [int(v) for v in values]
        if not probes:
            raise ValueError("values must be non-empty")
        parts = self._call_all(
            lambda a: a.field_rank_partial.remote(text, probes, field, mode))
        le = [0] * len(probes)
        total = 0
        for c, n in parts:
            total += int(n)
            for i, v in enumerate(c):
                le[i] += int(v)
        return [{"value": v, "count_le": c, "count": total,
                 "rank_e6": (math.floor(c / total * 1e6 + 0.5)
                             if total else 0)}
                for v, c in zip(probes, le)]

    def field_percentile(self, text: str, q: float = 0.5,
                         field: str = "ts", mode: str = "or",
                         n_buckets: int = 1024) -> dict:
        """Exact match-set percentile through the pool: the stats merge
        seeds the bounds, then each refinement round is ONE scatter of
        mergeable histogram partials — log_B(range) rounds, values never
        leave the actors (QueryEngine.field_percentile's loop, pool-
        shaped)."""
        import numpy as np

        from horus_ner_ray.pipelines.query import _percentile_refine

        st = self.field_stats(text, field=field, mode=mode)
        if not (0.0 < q <= 1.0):
            raise ValueError(f"q must be in (0, 1], got {q}")

        def hist(lo: int, hi: int):
            parts = self._call_all(
                lambda a: a.field_histogram.remote(text, field, mode,
                                                   lo, hi, n_buckets))
            counts = None
            w = None
            for c, ww in parts:
                arr = np.asarray(c, dtype=np.int64)
                counts = arr if counts is None else counts + arr
                w = ww
            return counts, w

        return _percentile_refine(st, q, hist)

    def term_vector(self, doc_id: int) -> list[dict]:
        """Term-vectors route: single-actor exact answer (docstore
        point-read + global dictionary)."""
        rows = self._call_one(0, lambda a: a.term_vector.remote(doc_id))
        return [{"term": t, "tf": int(f), "df": int(df)}
                for t, f, df in rows]

    def _fetch_conv_rows(self, conv_ids):
        from horus_ner_ray.pipelines.query import fetch_conv_docs

        return fetch_conv_docs(self.index_dir, conv_ids)

    def conv(self, conv_id: str) -> list[dict]:
        """Conversation view (GET /conv): every stored turn of one
        conversation, doc_id-ordered — the 'read the whole thread around
        this hit' route (docstore row-group-pruned read, no actors)."""
        rows = self._fetch_conv_rows([str(conv_id)])
        return json.loads(rows.to_json(orient="records"))

    def search_corrected(self, text: str, k: int = 10,
                         max_dist: int = 2) -> dict:
        """'Did you mean' search: one actor rewrites the query (global
        dictionary state), the ordinary scatter scores the corrected
        terms.  Returns {corrected, hits}."""
        terms = self._call_one(
            0, lambda a: a.correct_query_terms.remote(text, max_dist))
        hits = self.search(" ".join(terms), k=k) if terms else []
        return {"corrected": terms, "hits": hits}

    def search_relaxed(self, text: str, k: int = 10,
                       max_dist: int = 2) -> dict:
        """Zero-results cascade through the pool: AND, then OR, then the
        corrected query — first non-empty tier wins (each leg is the
        ordinary exact scatter)."""
        hits = self.search(text, k=k, mode="and")
        if hits:
            return {"tier": "and", "hits": hits}
        hits = self.search(text, k=k, mode="or")
        if hits:
            return {"tier": "or", "hits": hits}
        out = self.search_corrected(text, k=k, max_dist=max_dist)
        return {"tier": "corrected", "corrected": out["corrected"],
                "hits": out["hits"]}

    def rescore(self, text: str, k: int = 10, window: int = 50,
                mu: float = 1000.0) -> list[dict]:
        """Two-phase rescore through the pool: the ordinary scatter picks
        the global BM25 top-``window``, then one more scatter LM-scores
        the window (each actor scores its resident docs; union exact).
        Row-identical to QueryEngine.rescore_lm."""
        win = self.search(text, k=window)
        if not win:
            return []
        ids = [h["doc_id"] for h in win]
        parts = self._call_all(lambda a: a.lm_scores.remote(text, ids, mu))
        sc: dict[int, float] = {d: 0.0 for d in ids}
        for p in parts:
            sc.update(p)
        ranked = sorted(sc.items(), key=lambda kv: (-kv[1], kv[0]))[:k]
        return [{"rank": r + 1, "doc_id": int(d), "score": float(s)}
                for r, (d, s) in enumerate(ranked)]

    def fused(self, text: str, k: int = 10, window: int = 50,
              k_rrf: int = 60) -> list[dict]:
        """Hybrid RRF ranking through the pool: two ordinary scatters
        (BM25 and mode=lm at the scorer-row default mu) feed the shared
        ``rrf_fuse`` integer rule — rank-identical to
        QueryEngine.search_fused / BruteForceBM25.search_fused at the
        default mu."""
        from horus_ner_ray.pipelines.query import rrf_fuse

        pad = window * 3 + 20
        a = self.search(text, k=pad)
        b = self.search(text, k=pad, mode="lm")
        fused = rrf_fuse(
            [[(h["doc_id"], h["score"]) for h in a],
             [(h["doc_id"], h["score"]) for h in b]],
            k=k, window=window, k_rrf=k_rrf)
        return [{"rank": r + 1, "doc_id": int(d), "rrf": int(s)}
                for r, (d, s) in enumerate(fused)]

    def collapse(self, text: str, k: int = 10, field: str = "conv_id",
                 mode: str = "or") -> list[dict]:
        """Field collapsing: each subset ships its top-k collapsed
        (value, doc, score) rows; the merge re-collapses (best row per
        value, then rank values by their representative) — exact, see
        ScorerActor.search_collapse."""
        parts = self._call_all(
            lambda a: a.search_collapse.remote(text, k, field, mode))
        best: dict[str, tuple[int, float]] = {}
        for v, d, s in (t for p in parts for t in p):
            cur = best.get(v)
            if cur is None or (-s, d) < (-cur[1], cur[0]):
                best[v] = (int(d), float(s))
        ranked = sorted(best.items(), key=lambda kv: (-kv[1][1], kv[1][0]))
        return [{"rank": r + 1, field: v, "doc_id": d, "score": s}
                for r, (v, (d, s)) in enumerate(ranked[:k])]

    def grouped(self, text: str, field: str = "role", k: int = 3,
                mode: str = "or") -> dict[str, list[dict]]:
        """Grouped top hits: per-group top-k partials from every subset
        re-reduce with the same (score desc, doc asc) rule — exact."""
        parts = self._call_all(
            lambda a: a.search_grouped.remote(text, field, k, mode))
        groups: dict[str, list[tuple[int, float]]] = {}
        for p in parts:
            for v, hits in p.items():
                groups.setdefault(v, []).extend(hits)
        out: dict[str, list[dict]] = {}
        for v in sorted(groups):
            hits = sorted(groups[v], key=lambda ds: (-ds[1], ds[0]))[:k]
            out[v] = [{"rank": r + 1, "doc_id": int(d), "score": float(s)}
                      for r, (d, s) in enumerate(hits)]
        return out

    def field_stats(self, text: str, field: str = "ts",
                    mode: str = "or") -> dict:
        """Match-set stats on a stored integer attribute: per-subset
        (count, min, max, sum) partials merge exactly; the floor-mean
        recomputes from the merged sum."""
        parts = [p for p in self._call_all(
            lambda a: a.field_stats.remote(text, field, mode))
            if p["count"]]
        if not parts:
            return {"count": 0, "min": 0, "max": 0, "avg": 0, "sum": 0}
        count = sum(p["count"] for p in parts)
        s = sum(p["sum"] for p in parts)
        return {"count": count,
                "min": min(p["min"] for p in parts),
                "max": max(p["max"] for p in parts),
                "avg": s // count, "sum": s}

    def suggest(self, word: str, k: int = 5,
                max_dist: int = 2) -> list[dict]:
        """Spell suggestion ('did you mean'): dictionary state is global
        in every actor (stats/df load whole regardless of shard subset),
        so ONE actor answers exactly — round-robin by word hash, no
        scatter; churn handling via the shared _call_one retry."""
        i = hash(word) % len(self.actors)
        rows = self._call_one(i, lambda a: a.suggest.remote(word, k, max_dist))
        return [{"rank": r + 1, "term": t, "dist": d, "df": df}
                for r, (t, d, df) in enumerate(rows)]

    def complete(self, prefix: str, k: int = 10) -> list[dict]:
        """Completion suggester (prefix -> df-ranked completions):
        dictionary + df state are global, so one actor answers exactly
        (single-actor route like suggest)."""
        i = hash(prefix) % len(self.actors)
        rows = self._call_one(i, lambda a: a.complete.remote(prefix, k))
        return [{"rank": r + 1, "term": t, "df": df}
                for r, (t, df) in enumerate(rows)]

    def search_snippets(self, text: str, k: int = 10,
                        window: int = 3) -> list[dict]:
        """Top-k with token-window snippets: the ordinary scatter/gather
        search picks the hits, a second scatter collects each doc's anchor
        from the one actor owning its shard (positional index), and the
        serving thread joins the k texts from the docstore — identical
        strings to QueryEngine.search_snippets (shared snippet_text)."""
        from horus_ner_ray.pipelines.query import snippet_text

        hits = self.search(text, k=k, mode="or")
        if not hits:
            return []
        ids = [h["doc_id"] for h in hits]
        parts = self._call_all(lambda a: a.match_anchors.remote(text, ids))
        anchors: dict[int, int] = {}
        for p in parts:  # each doc answered by exactly one subset
            anchors.update({int(d): int(a) for d, a in p.items()})
        rows = self._fetch_rows(ids, columns=["doc_id", "text"])
        tmap = {int(d): str(t) for d, t in zip(rows["doc_id"], rows["text"])}
        for h in hits:
            h["snippet"] = snippet_text(
                tmap[h["doc_id"]], anchors[h["doc_id"]], window)
        return hits

    def search_fragments(self, text: str, k: int = 10, window: int = 3,
                         n_fragments: int = 3) -> list[dict]:
        """Multi-fragment highlighter over the pool: the scatter/gather
        search picks the hits, a second scatter collects each doc's FULL
        anchor-position list from its owning actor, and the serving thread
        applies the shared greedy selection + snippet rule — identical
        strings to QueryEngine.search_fragments."""
        from horus_ner_ray.pipelines.query import (
            select_fragment_anchors,
            snippet_text,
        )

        hits = self.search(text, k=k, mode="or")
        if not hits:
            return []
        ids = [h["doc_id"] for h in hits]
        parts = self._call_all(lambda a: a.match_positions.remote(text, ids))
        pos: dict[int, list[int]] = {}
        for p in parts:  # each doc answered by exactly one subset
            pos.update({int(d): list(v) for d, v in p.items()})
        rows = self._fetch_rows(ids, columns=["doc_id", "text"])
        tmap = {int(d): str(t) for d, t in zip(rows["doc_id"], rows["text"])}
        for h in hits:
            anchors = select_fragment_anchors(pos.get(h["doc_id"], ()),
                                              window, n_fragments)
            h["fragments"] = [snippet_text(tmap[h["doc_id"]], a, window)
                              for a in anchors]
        return hits

    def close(self) -> None:
        import ray

        for a in self.actors:
            ray.kill(a)
        self.actors = []


def make_http_server(
    index_dir: str, host: str = "127.0.0.1", port: int = 0,
    n_actors: int = 4, mode: str = "or",
    service: "QueryService | None" = None,
) -> tuple[ThreadingHTTPServer, QueryService]:
    """HTTP front mirroring the reference's REST route (rest.py:47-61):
    GET /search?q=<text>&k=<int>
    [&mode=or|and|phrase|near|boolean|prefix|fuzzy|contains|lm|regex|
     stemmed|first|boosting|dismax|phrase_prefix]
    (mode=lm ranks by Dirichlet-smoothed query likelihood instead of
    BM25 — the pluggable second similarity; mode=regex expands each
    whitespace-separated pattern over the dictionary, anchored;
    mode=stemmed unions dictionary terms sharing each query term's
    S-stem; mode=first&first_n=N keeps only docs where a query term
    occurs in the first N token positions;
    mode=boosting&negative=<terms>&nb=<f> demotes — multiplies by nb in
    (0,1] — docs containing any negative term, without excluding them;
    mode=dismax&tie=<f>: q holds |-separated subqueries, each doc scores
    best-subquery + tie * sum-of-others (DisjunctionMaxQuery);
    mode=phrase_prefix&max_exp=<n>: match_phrase_prefix — the last token
    is a prefix expanding to the first n dictionary terms, the fixed
    terms must be adjacent followed by any expansion)
    GET /fieldstats?q=<text>[&mode=or|and][&field=ts] -> count/min/max/
    floor-mean of the stored attribute over the match set.
    [&role=][&tool=][&exclude=][&window=][&should=][&boost=term:2,b:0.5]
    [&text=1] -> JSON hits (&boost= multiplies listed terms' idf once —
    Lucene term^boost; mode=or/and only).  mode=phrase accepts
    &slop=<n> (ordered sloppy phrase over distinct terms).
    (mode=boolean: q holds the must terms, &should= the optional boosts,
    &exclude= the must_not clause)
    (&text=1 adds each hit's original document text, like the reference
    route returning the annotated sentence).
    GET /explain?q=<text>&doc=<id> -> per-term BM25 factor rows.
    GET /histogram?q=<text>[&interval=<us>] -> time-bucketed match counts.
    GET /suggest?q=<word>[&k=][&dist=] -> spell suggestions
    (term, distance, df), distance asc / df desc / term asc.
    GET /complete?q=<prefix>[&k=] -> completion suggester: dictionary
    terms with the prefix ranked df desc / term asc.
    GET /count?q=<text>[&mode=or|and][&role=][&tool=] -> total match
    count over the live docs.
    GET /sorted?q=<text>[&k=][&order=asc|desc][&mode=or|and] -> the match
    set ordered by stored timestamp instead of relevance.
    GET /collapse?q=<text>[&k=][&field=conv_id|role|tool][&mode=or|and]
    -> field-collapsed top-k: one best doc per distinct field value.
    GET /rescore?q=<text>[&k=][&window=][&mu=] -> BM25 top-window
    reranked by Dirichlet query likelihood (two-phase rescoring).
    GET /corrected?q=<text>[&k=][&dist=] -> 'did you mean' search:
    absent terms rewrite to their best suggestion, then plain OR.
    GET /termvectors?doc=<id> -> the doc's (term, tf, df) rows under
    the shared tokenizer rule (the termvectors API).
    GET /percentile?q=<text>[&p=0.5][&mode=or|and] -> the EXACT p-th
    percentile of the match set's stored timestamp (histogram
    refinement; values never leave the actors).
    GET /percentile_ranks?q=<text>&values=<v,v,...>[&mode=or|and] -> the
    inverse: for each value, the exact fraction of the match set's
    stored timestamps <= it (rank_e6; one scatter of integer partials).
    GET /adjacency?filters=name:terms;name:terms -> the adjacency-matrix
    aggregation: live-doc counts of every pairwise filter intersection
    (diagonal = each filter's own count).
    GET /relaxed?q=<text>[&k=][&dist=] -> zero-results cascade:
    AND, then OR, then the corrected query (tier + hits).
    GET /grouped?q=<text>[&field=role][&k=][&mode=or|and] -> per-group
    top-k hits (terms aggregation + top_hits).
    mode=boolean also accepts &msm=<m> (min_should_match: candidacy needs
    >= m distinct should terms present).
    GET /snippets?q=<text>[&k=][&window=] -> top-k hits each carrying the
    token window around its first query-term occurrence (needs an index
    built with with_positions).
    GET /fragments?q=<text>[&k=][&window=][&n=] -> the multi-fragment
    highlighter: up to n NON-OVERLAPPING token windows per hit (greedy
    anchor selection over all query-term positions; needs
    with_positions).
    GET /stats -> collection numbers + live tombstone count.
    GET /analyze?q=<text> -> tokens + 0-based positions under the shared
    tokenizer rule (the _analyze introspection route).
    GET /docs?ids=<id,id,...> -> the original docstore rows (multi-get;
    row-group-pruned point reads, capped at 1000 ids).
    POST /batch {"queries": [{id?, q, k?, mode?, role?, tool?, exclude?,
    window?, should?, msm?}, ...]} -> all results in ONE pool scatter
    (ScorerActor scores batches natively — one actor round-trip per pool
    member instead of per query).
    Cursor paging: &after_doc=<id>&after_score=<float> (the previous
    page's last hit) returns the strict successors — or/and modes only.
    port=0 binds an ephemeral port (server.server_address[1]).  Caller owns
    the lifecycle: server.serve_forever() (typically in a thread), then
    server.shutdown() + service.close().
    """
    # a prebuilt service (e.g. pipelines/federate.FederatedQueryService)
    # plugs the same routes over multiple indexes; index_dir is then
    # ignored
    if service is None:
        service = QueryService(index_dir, n_actors=n_actors, mode=mode)

    class Handler(BaseHTTPRequestHandler):
        def _json(self, obj) -> None:
            body = json.dumps(obj).encode()
            self.send_response(200)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)

        def do_POST(self):  # noqa: N802  (http.server API)
            u = urlparse(self.path)
            if u.path != "/batch":
                self.send_error(404)
                return
            try:
                n = int(self.headers.get("Content-Length", "0"))
                body = json.loads(self.rfile.read(n) or b"{}")
                queries = body["queries"]
                if not isinstance(queries, list):
                    raise ValueError("'queries' must be a list")
                for e in queries:
                    m = e.get("mode", service.mode)
                    if m not in SEARCH_MODES:
                        raise ValueError(f"unknown mode {m!r}")
            except (ValueError, KeyError, json.JSONDecodeError) as e:
                self.send_error(400, str(e))
                return
            try:
                results = service.search_batch(queries)
            except ValueError as e:  # an entry's options rejected by an actor
                # (Ray re-raises it as a ValueError subclass)
                self.send_error(400, str(e))
                return
            except Exception as e:
                self.send_error(500, str(e))
                return
            self._json({"results": results})

        def do_GET(self):  # noqa: N802  (http.server API)
            u = urlparse(self.path)
            if u.path == "/analyze":
                # the _analyze introspection route: how a text tokenizes
                # under the engine's shared rule (terms + 0-based
                # unfiltered-stream positions, the phrase coordinate space)
                from horus_ner_ray.pipelines.query import _TOKEN_RE

                qs = parse_qs(u.query)
                text = (qs.get("q") or [""])[0]
                toks = _TOKEN_RE.findall(text.lower())
                self._json({"text": text,
                            "tokens": [{"token": t, "position": i}
                                       for i, t in enumerate(toks)]})
                return
            if u.path == "/docs":
                # multi-get: original docstore rows for a (small) id list
                qs = parse_qs(u.query)
                try:
                    raw = (qs.get("ids") or [""])[0]
                    ids = [int(x) for x in raw.split(",") if x != ""]
                    if not ids:
                        raise ValueError("ids= must list at least one id")
                    if len(ids) > 1000:
                        raise ValueError("ids= is capped at 1000 per call")
                except ValueError as e:
                    self.send_error(400, str(e))
                    return
                try:
                    rows = service._fetch_rows(ids)
                except Exception as e:
                    self.send_error(500, str(e))
                    return
                self._json({"docs": json.loads(
                    rows.to_json(orient="records"))})
                return
            if u.path == "/conv":
                # conversation view: all stored turns of one conv_id
                qs = parse_qs(u.query)
                cid = (qs.get("id") or [""])[0]
                if not cid:
                    self.send_error(400, "id= is required")
                    return
                try:
                    self._json({"conv_id": cid,
                                "turns": service.conv(cid)})
                except Exception as e:
                    self.send_error(500, str(e))
                return
            if u.path == "/stats":
                try:
                    self._json(service.stats())
                except Exception as e:
                    self.send_error(500, str(e))
                return
            if u.path == "/explain":
                qs = parse_qs(u.query)
                text = (qs.get("q") or [""])[0]
                try:
                    doc = int((qs.get("doc") or [""])[0])
                except ValueError as e:
                    self.send_error(400, str(e))
                    return
                try:
                    rows = service.explain(text, doc)
                except Exception as e:
                    self.send_error(500, str(e))
                    return
                self._json({"query": text, "doc_id": doc, "terms": rows})
                return
            if u.path == "/histogram":
                qs = parse_qs(u.query)
                text = (qs.get("q") or [""])[0]
                try:
                    iv = int((qs.get("interval") or ["86400000000"])[0])
                    if iv <= 0:
                        raise ValueError(f"interval must be > 0, got {iv}")
                    auto = int((qs.get("auto") or ["0"])[0])
                    if auto < 0:
                        raise ValueError(f"auto must be > 0, got {auto}")
                    if auto and qs.get("interval"):
                        raise ValueError(
                            "auto= picks the interval itself; don't also "
                            "pass interval=")  # ASCII only: http.server
                        # encodes the status line latin-1
                    moving = int((qs.get("moving") or ["0"])[0])
                    if moving < 0:
                        raise ValueError(f"moving must be > 0, got {moving}")
                except ValueError as e:
                    self.send_error(400, str(e))
                    return
                try:
                    if auto:
                        iv, hist = service.auto_date_histogram(
                            text, target_buckets=auto)
                    else:
                        hist = service.date_histogram(text, interval_us=iv)
                except Exception as e:
                    self.send_error(500, str(e))
                    return
                body = {"query": text, "interval_us": iv,
                        "buckets": {str(b): c
                                    for b, c in sorted(hist.items())}}
                if moving:
                    # ES moving-function average (shared rule)
                    from horus_ner_ray.pipelines.query import (
                        histogram_moving,
                    )

                    body["moving"] = [
                        {"bucket": b, "n": n, "mov_sum": s,
                         "mavg_e6": a}
                        for b, n, s, a in histogram_moving(hist, moving)]
                if (qs.get("pipeline") or ["0"])[0] not in ("0", "",
                                                            "false"):
                    # ES pipeline aggs: densified buckets with
                    # cumulative_sum + derivative (shared rule)
                    from horus_ner_ray.pipelines.query import (
                        histogram_pipeline,
                    )

                    body["pipeline"] = [
                        {"bucket": b, "n": n, "cum_n": c, "delta": d}
                        for b, n, c, d in histogram_pipeline(hist)]
                self._json(body)
                return
            if u.path == "/suggest":
                qs = parse_qs(u.query)
                word = (qs.get("q") or [""])[0]
                try:
                    k = int((qs.get("k") or ["5"])[0])
                    dist = int((qs.get("dist") or ["2"])[0])
                    if k < 0 or dist < 0:
                        raise ValueError("k and dist must be >= 0")
                except ValueError as e:
                    self.send_error(400, str(e))
                    return
                try:
                    rows = service.suggest(word, k=k, max_dist=dist)
                except Exception as e:
                    self.send_error(500, str(e))
                    return
                self._json({"query": word, "suggestions": rows})
                return
            if u.path == "/complete":
                qs = parse_qs(u.query)
                prefix = (qs.get("q") or [""])[0]
                try:
                    k = int((qs.get("k") or ["10"])[0])
                    if k < 1:
                        raise ValueError(f"k must be >= 1, got {k}")
                except ValueError as e:
                    self.send_error(400, str(e))
                    return
                try:
                    rows = service.complete(prefix, k=k)
                except Exception as e:
                    self.send_error(500, str(e))
                    return
                self._json({"query": prefix, "completions": rows})
                return
            if u.path == "/fieldstats":
                qs = parse_qs(u.query)
                text = (qs.get("q") or [""])[0]
                try:
                    req_mode = (qs.get("mode") or ["or"])[0]
                    if req_mode not in ("or", "and"):
                        raise ValueError(
                            f"fieldstats supports mode=or|and, got "
                            f"{req_mode!r}")
                except ValueError as e:
                    self.send_error(400, str(e))
                    return
                try:
                    st = service.field_stats(
                        text, field=(qs.get("field") or ["ts"])[0],
                        mode=req_mode)
                except Exception as e:
                    self.send_error(500, str(e))
                    return
                self._json({"query": text, "mode": req_mode, "stats": st})
                return
            if u.path == "/count":
                qs = parse_qs(u.query)
                text = (qs.get("q") or [""])[0]
                try:
                    req_mode = (qs.get("mode") or ["or"])[0]
                    if req_mode not in ("or", "and"):
                        raise ValueError(
                            f"count supports mode=or|and, got {req_mode!r}")
                except ValueError as e:
                    self.send_error(400, str(e))
                    return
                try:
                    n = service.count(text, mode=req_mode,
                                      role=(qs.get("role") or [""])[0] or None,
                                      tool=(qs.get("tool") or [""])[0] or None)
                except Exception as e:
                    self.send_error(500, str(e))
                    return
                self._json({"query": text, "mode": req_mode, "count": n})
                return
            if u.path == "/sorted":
                qs = parse_qs(u.query)
                text = (qs.get("q") or [""])[0]
                try:
                    k = int((qs.get("k") or ["10"])[0])
                    if k < 0:
                        raise ValueError(f"k must be >= 0, got {k}")
                    order = (qs.get("order") or ["asc"])[0]
                    if order not in ("asc", "desc"):
                        raise ValueError(f"order must be asc|desc, got "
                                         f"{order!r}")
                    req_mode = (qs.get("mode") or ["or"])[0]
                    if req_mode not in ("or", "and"):
                        raise ValueError(
                            f"sorted supports mode=or|and, got {req_mode!r}")
                except ValueError as e:
                    self.send_error(400, str(e))
                    return
                try:
                    hits = service.search_sorted(
                        text, k=k, ascending=(order == "asc"), mode=req_mode)
                except Exception as e:
                    self.send_error(500, str(e))
                    return
                self._json({"query": text, "k": k, "order": order,
                            "hits": hits})
                return
            if u.path == "/snippets":
                qs = parse_qs(u.query)
                text = (qs.get("q") or [""])[0]
                try:
                    k = int((qs.get("k") or ["10"])[0])
                    win = int((qs.get("window") or ["3"])[0])
                    if k < 0 or win < 0:
                        raise ValueError("k and window must be >= 0")
                except ValueError as e:
                    self.send_error(400, str(e))
                    return
                try:
                    hits = service.search_snippets(text, k=k, window=win)
                except Exception as e:
                    self.send_error(500, str(e))
                    return
                self._json({"query": text, "k": k, "hits": hits})
                return
            if u.path == "/fragments":
                qs = parse_qs(u.query)
                text = (qs.get("q") or [""])[0]
                try:
                    k = int((qs.get("k") or ["10"])[0])
                    win = int((qs.get("window") or ["3"])[0])
                    nf = int((qs.get("n") or ["3"])[0])
                    if k < 0 or win < 0 or nf < 1:
                        raise ValueError(
                            "k/window must be >= 0 and n >= 1")
                except ValueError as e:
                    self.send_error(400, str(e))
                    return
                try:
                    hits = service.search_fragments(text, k=k, window=win,
                                                    n_fragments=nf)
                except Exception as e:
                    self.send_error(500, str(e))
                    return
                self._json({"query": text, "k": k, "n": nf, "hits": hits})
                return
            if u.path == "/relaxed":
                qs = parse_qs(u.query)
                text = (qs.get("q") or [""])[0]
                try:
                    k = int((qs.get("k") or ["10"])[0])
                    dist = int((qs.get("dist") or ["2"])[0])
                    if k < 0 or dist < 0:
                        raise ValueError("k and dist must be >= 0")
                except ValueError as e:
                    self.send_error(400, str(e))
                    return
                try:
                    out = service.search_relaxed(text, k=k, max_dist=dist)
                except Exception as e:
                    self.send_error(500, str(e))
                    return
                self._json({"query": text, **out})
                return
            if u.path == "/percentile":
                qs = parse_qs(u.query)
                text = (qs.get("q") or [""])[0]
                try:
                    quant = float((qs.get("p") or ["0.5"])[0])
                    pmode = (qs.get("mode") or ["or"])[0]
                    if pmode not in ("or", "and"):
                        raise ValueError("percentile supports mode=or/and")
                    if not (0.0 < quant <= 1.0):
                        raise ValueError(f"p must be in (0, 1], got {quant}")
                except ValueError as e:
                    self.send_error(400, str(e))
                    return
                try:
                    out = service.field_percentile(text, q=quant,
                                                   mode=pmode)
                except Exception as e:
                    self.send_error(500, str(e))
                    return
                self._json({"query": text, "p": quant, **out})
                return
            if u.path == "/adjacency":
                # filters=name:terms;name:terms (terms space-separated,
                # '+' for spaces in URL encoding)
                qs = parse_qs(u.query)
                try:
                    raw = (qs.get("filters") or [""])[0]
                    filters = {}
                    for part in raw.split(";"):
                        if not part:
                            continue
                        if ":" not in part:
                            raise ValueError(
                                f"malformed filter {part!r} (name:terms)")
                        name, terms = part.split(":", 1)
                        filters[name] = terms
                    if not filters:
                        raise ValueError(
                            "filters= must list name:terms pairs")
                except ValueError as e:
                    self.send_error(400, str(e))
                    return
                try:
                    rows = service.adjacency_matrix(filters)
                except Exception as e:
                    self.send_error(500, str(e))
                    return
                self._json({"filters": filters, "cells": rows})
                return
            if u.path == "/percentile_ranks":
                qs = parse_qs(u.query)
                text = (qs.get("q") or [""])[0]
                try:
                    raw = (qs.get("values") or [""])[0]
                    vals = [int(x) for x in raw.split(",") if x != ""]
                    if not vals:
                        raise ValueError(
                            "values= must list at least one integer")
                    pmode = (qs.get("mode") or ["or"])[0]
                    if pmode not in ("or", "and"):
                        raise ValueError(
                            "percentile_ranks supports mode=or/and")
                except ValueError as e:
                    self.send_error(400, str(e))
                    return
                try:
                    rows = service.field_percentile_ranks(text, vals,
                                                          mode=pmode)
                except Exception as e:
                    self.send_error(500, str(e))
                    return
                self._json({"query": text, "ranks": rows})
                return
            if u.path == "/termvectors":
                qs = parse_qs(u.query)
                try:
                    doc = int((qs.get("doc") or [""])[0])
                except ValueError as e:
                    self.send_error(400, str(e))
                    return
                try:
                    rows = service.term_vector(doc)
                except Exception as e:
                    self.send_error(500, str(e))
                    return
                self._json({"doc_id": doc, "terms": rows})
                return
            if u.path == "/corrected":
                qs = parse_qs(u.query)
                text = (qs.get("q") or [""])[0]
                try:
                    k = int((qs.get("k") or ["10"])[0])
                    dist = int((qs.get("dist") or ["2"])[0])
                    if k < 0 or dist < 0:
                        raise ValueError("k and dist must be >= 0")
                except ValueError as e:
                    self.send_error(400, str(e))
                    return
                try:
                    out = service.search_corrected(text, k=k, max_dist=dist)
                except Exception as e:
                    self.send_error(500, str(e))
                    return
                self._json({"query": text, **out})
                return
            if u.path == "/rescore":
                qs = parse_qs(u.query)
                text = (qs.get("q") or [""])[0]
                try:
                    k = int((qs.get("k") or ["10"])[0])
                    win = int((qs.get("window") or ["50"])[0])
                    mu = float((qs.get("mu") or ["1000"])[0])
                    if k < 0 or win < 0 or mu <= 0:
                        raise ValueError(
                            "k/window must be >= 0 and mu > 0")
                except ValueError as e:
                    self.send_error(400, str(e))
                    return
                try:
                    hits = service.rescore(text, k=k, window=win, mu=mu)
                except Exception as e:
                    self.send_error(500, str(e))
                    return
                self._json({"query": text, "k": k, "window": win,
                            "hits": hits})
                return
            if u.path == "/fused":
                # hybrid RRF ranking (BM25 + LM through rrf_fuse)
                qs = parse_qs(u.query)
                text = (qs.get("q") or [""])[0]
                try:
                    k = int((qs.get("k") or ["10"])[0])
                    win = int((qs.get("window") or ["50"])[0])
                    k_rrf = int((qs.get("k_rrf") or ["60"])[0])
                    if k < 0 or win < 0 or k_rrf < 1:
                        raise ValueError(
                            "k/window must be >= 0 and k_rrf >= 1")
                except ValueError as e:
                    self.send_error(400, str(e))
                    return
                try:
                    hits = service.fused(text, k=k, window=win, k_rrf=k_rrf)
                except Exception as e:
                    self.send_error(500, str(e))
                    return
                self._json({"query": text, "k": k, "window": win,
                            "k_rrf": k_rrf, "hits": hits})
                return
            if u.path == "/recency":
                # recency function-score (linear decay over stored ts)
                qs = parse_qs(u.query)
                text = (qs.get("q") or [""])[0]
                try:
                    k = int((qs.get("k") or ["10"])[0])
                    now_us = int((qs.get("now") or ["0"])[0])
                    horizon_s = int((qs.get("horizon") or ["2592000"])[0])
                    boost_e6 = int((qs.get("boost_e6") or ["5000000"])[0])
                    mode = (qs.get("mode") or ["or"])[0]
                    if k < 0 or horizon_s <= 0 or boost_e6 < 0:
                        raise ValueError(
                            "k/boost_e6 must be >= 0 and horizon > 0")
                    if mode not in ("or", "and"):
                        raise ValueError("recency needs mode=or/and")
                except ValueError as e:
                    self.send_error(400, str(e))
                    return
                try:
                    hits = service.recency(text, k=k, now_us=now_us,
                                           horizon_s=horizon_s,
                                           boost_e6=boost_e6, mode=mode)
                except Exception as e:
                    self.send_error(500, str(e))
                    return
                self._json({"query": text, "k": k, "hits": hits})
                return
            if u.path == "/collapse":
                qs = parse_qs(u.query)
                text = (qs.get("q") or [""])[0]
                try:
                    k = int((qs.get("k") or ["10"])[0])
                    fld = (qs.get("field") or ["conv_id"])[0]
                    cmode = (qs.get("mode") or ["or"])[0]
                    if k < 0:
                        raise ValueError(f"k must be >= 0, got {k}")
                    if cmode not in ("or", "and"):
                        raise ValueError("collapse supports mode=or/and")
                except ValueError as e:
                    self.send_error(400, str(e))
                    return
                try:
                    hits = service.collapse(text, k=k, field=fld, mode=cmode)
                except Exception as e:
                    self.send_error(500, str(e))
                    return
                self._json({"query": text, "field": fld, "k": k,
                            "hits": hits})
                return
            if u.path == "/grouped":
                qs = parse_qs(u.query)
                text = (qs.get("q") or [""])[0]
                try:
                    k = int((qs.get("k") or ["3"])[0])
                    fld = (qs.get("field") or ["role"])[0]
                    gmode = (qs.get("mode") or ["or"])[0]
                    if k < 0:
                        raise ValueError(f"k must be >= 0, got {k}")
                    if gmode not in ("or", "and"):
                        raise ValueError("grouped supports mode=or/and")
                except ValueError as e:
                    self.send_error(400, str(e))
                    return
                try:
                    groups = service.grouped(text, field=fld, k=k,
                                             mode=gmode)
                except Exception as e:
                    self.send_error(500, str(e))
                    return
                self._json({"query": text, "field": fld, "k": k,
                            "groups": groups})
                return
            if u.path != "/search":
                self.send_error(404)
                return
            qs = parse_qs(u.query)
            text = (qs.get("q") or [""])[0]
            try:  # request parsing -> 400
                k = int((qs.get("k") or ["10"])[0])
                if k < 0:  # pandas head(-n) would return all-but-n rows
                    raise ValueError(f"k must be >= 0, got {k}")
                req_mode = (qs.get("mode") or [service.mode])[0]
                if req_mode not in SEARCH_MODES:
                    raise ValueError(f"unknown mode {req_mode!r}")
                req_should = (qs.get("should") or [""])[0] or None
                req_msm = int((qs.get("msm") or ["0"])[0])
                if req_msm < 0:
                    raise ValueError(f"msm must be >= 0, got {req_msm}")
                if req_msm and req_mode != "boolean":
                    raise ValueError("msm= requires mode=boolean")
                req_window = int((qs.get("window") or ["8"])[0])
                if req_window < 0:
                    raise ValueError(f"window must be >= 0, got {req_window}")
                want_text = (qs.get("text") or ["0"])[0] not in ("0", "", "false")
                req_role = (qs.get("role") or [""])[0] or None
                req_tool = (qs.get("tool") or [""])[0] or None
                req_exclude = (qs.get("exclude") or [""])[0] or None
                if req_mode in ("prefix", "fuzzy", "contains", "lm",
                                "classic", "regex", "wildcard", "stemmed",
                                "first", "boosting", "dismax",
                                "phrase_prefix", "common", "span_not",
                                "qs") and (
                        req_role or req_tool or req_exclude):
                    raise ValueError(
                        f"mode={req_mode!r} does not compose with "
                        "role/tool/exclude"
                        + (" (mode=qs takes them inside the query string)"
                           if req_mode == "qs" else ""))
                req_negative = (qs.get("negative") or [""])[0] or None
                if req_negative and req_mode not in ("boosting", "span_not"):
                    raise ValueError(
                        "negative= requires mode=boosting or span_not")
                req_dist = int((qs.get("dist") or ["2"])[0])
                if req_dist < 0:
                    raise ValueError(f"dist must be >= 0, got {req_dist}")
                if qs.get("dist") and req_mode != "span_not":
                    raise ValueError("dist= requires mode=span_not")
                req_nb = float((qs.get("nb") or ["0.5"])[0])
                if not (0.0 < req_nb <= 1.0):
                    raise ValueError(
                        f"nb must be in (0, 1], got {req_nb}")
                if qs.get("nb") and req_mode != "boosting":
                    raise ValueError("nb= requires mode=boosting")
                req_tie = float((qs.get("tie") or ["0.5"])[0])
                if not (0.0 <= req_tie <= 1.0):
                    raise ValueError(
                        f"tie must be in [0, 1], got {req_tie}")
                if qs.get("tie") and req_mode != "dismax":
                    raise ValueError("tie= requires mode=dismax")
                req_cutoff = int((qs.get("cutoff") or ["50"])[0])
                if not (0 <= req_cutoff <= 100):
                    raise ValueError(
                        f"cutoff must be in [0, 100], got {req_cutoff}")
                if qs.get("cutoff") and req_mode != "common":
                    raise ValueError("cutoff= requires mode=common")
                req_max_exp = int((qs.get("max_exp") or ["50"])[0])
                if req_max_exp < 1:
                    raise ValueError(
                        f"max_exp must be >= 1, got {req_max_exp}")
                if qs.get("max_exp") and req_mode != "phrase_prefix":
                    raise ValueError("max_exp= requires mode=phrase_prefix")
                req_transpose = (qs.get("transpose") or ["0"])[0] \
                    not in ("0", "", "false")
                if req_transpose and req_mode != "fuzzy":
                    raise ValueError("transpose= requires mode=fuzzy")
                if req_mode == "near" and req_exclude:
                    raise ValueError("mode='near' does not compose with "
                                     "exclude")
                if req_mode == "boolean" and (req_role or req_tool):
                    raise ValueError("mode='boolean' does not compose with "
                                     "role/tool filters")
                if req_should and req_mode != "boolean":
                    raise ValueError("should= requires mode='boolean'")
                req_slop = int((qs.get("slop") or ["0"])[0])
                if req_slop < 0:
                    raise ValueError(f"slop must be >= 0, got {req_slop}")
                if req_slop and req_mode != "phrase":
                    raise ValueError("slop= requires mode=phrase")
                req_first_n = int((qs.get("first_n") or ["8"])[0])
                if req_first_n < 0:
                    raise ValueError(
                        f"first_n must be >= 0, got {req_first_n}")
                if qs.get("first_n") and req_mode != "first":
                    raise ValueError("first_n= requires mode=first")
                req_boost = (qs.get("boost") or [""])[0] or None
                if req_boost:
                    if req_mode not in ("or", "and"):
                        raise ValueError(
                            "boost= composes only with mode=or/and")
                    from horus_ner_ray.pipelines.query import parse_boosts

                    parse_boosts(req_boost)  # malformed spec -> clean 400
                after = None
                if qs.get("after_doc") or qs.get("after_score"):
                    # cursor = previous page's last hit; full-precision
                    # float survives the repr round-trip
                    after = (int((qs.get("after_doc") or [""])[0]),
                             float((qs.get("after_score") or [""])[0]))
                    if req_mode not in ("or", "and") or req_role \
                            or req_tool or req_exclude or req_boost:
                        raise ValueError(
                            "cursor pagination composes only with "
                            "mode=or/and and no field filters or boosts")
            except ValueError as e:  # bad k etc. -> clean 400, not a reset
                self.send_error(400, str(e))
                return
            try:  # execution -> 500 (ray wraps ValueError in a subclass,
                # so parse-vs-execute must be split, not exception-typed)
                hits = service.search(text, k=k, mode=req_mode,
                                      return_text=want_text,
                                      role=req_role, tool=req_tool,
                                      exclude=req_exclude, window=req_window,
                                      after=after, should=req_should,
                                      min_should_match=req_msm,
                                      boost=req_boost, slop=req_slop,
                                      first_n=req_first_n,
                                      negative=req_negative,
                                      negative_boost=req_nb,
                                      tie_breaker=req_tie,
                                      max_expansions=req_max_exp,
                                      dist=req_dist,
                                      cutoff_pct=req_cutoff,
                                      transpositions=req_transpose)
            except Exception as e:  # surface scoring errors, not a hang
                self.send_error(500, str(e))
                return
            body = json.dumps({"query": text, "k": k, "hits": hits}).encode()
            self.send_response(200)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)

        def log_message(self, *a):  # quiet
            pass

    server = ThreadingHTTPServer((host, port), Handler)
    return server, service
