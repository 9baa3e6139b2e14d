"""BM25 scoring: brute-force oracle + sharded query engine (actor pool).

Two independent implementations of the same math; the test suite asserts
their top-k results are rank-identical (SURVEY.md section 5 item b):

* ``BruteForceBM25`` — single-process, pure-Python dict postings, Python
  ``re`` tokenizer.  The correctness oracle; deliberately shares NO code
  with the distributed path beyond the two constants and the token regex
  string.

* ``QueryEngine`` — opens the sharded index (state/shards.py), scores
  term-at-a-time with vectorized numpy over each shard's doc range, takes a
  per-shard top-k heap and merges the tiny per-shard results.  This is the
  query plan the doc-partitioned layout buys: every shard computes complete
  scores for its own docs, so "global top-k" is `S * k` candidate rows, not
  a shuffle.  AND-mode intersection uses the per-block skip metadata to
  skip decoding blocks that cannot contain candidates.

Determinism / rank-identity (SURVEY.md section 7.4): both sides accumulate
per-document scores in ascending-term order over IEEE float64 and tie-break
(score desc, doc_id asc), so scores are bitwise equal, not merely close.

Scoring formula (Okapi BM25, Lucene-style non-negative idf):
    idf(t)  = ln(1 + (N - df + 0.5) / (df + 0.5))
    s(d, q) = sum_t idf(t) * tf * (k1+1) / (tf + k1 * (1 - b + b * dl/avgdl))
Query terms are set-deduplicated (the reference's term dictionary is
case-insensitively deduped the same way — UPPER(term) UNIQUE probe,
reference: horus0.1.5.db.sql:123-127).

The reference analogue of the engine side is the per-term evidence lookup +
vote aggregation + heapq top-2 (reference:
src/core/feature_extraction/features.py:283-311,452-475); the actor pool
holding mmap'd shards mirrors its persistent SQLite connection + loaded
models (features.py:83, SURVEY.md A7).
"""

from __future__ import annotations

import json
import math
import re
from collections import defaultdict
from pathlib import Path

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq

from horus_ner_ray.config import BM25_B, BM25_K1, TOKEN_PATTERN
from horus_ner_ray.state.shards import IndexPaths, ShardReader

_TOKEN_RE = re.compile(TOKEN_PATTERN)


def query_terms(text: str) -> list[str]:
    """Sorted, deduplicated query terms (shared query parsing rule)."""
    return sorted(set(_TOKEN_RE.findall(text.lower())))


_PREFIX_RE = re.compile(r"[a-z0-9]+\*?")


def parse_prefix_query(text: str) -> tuple[list[str], list[str]]:
    """Shared wildcard-query parsing rule: ``(literals, prefixes)`` — a
    token ending in ``*`` is a trailing-wildcard prefix, anything else a
    literal term; both sides deduplicated and sorted."""
    lits: set[str] = set()
    pres: set[str] = set()
    for tok in _PREFIX_RE.findall(text.lower()):
        if tok.endswith("*"):
            pres.add(tok[:-1])
        else:
            lits.add(tok)
    pres.discard("")
    return sorted(lits), sorted(pres)


_QS_CLAUSE_RE = re.compile(r'([+-]?)"([^"]*)"|(\S+)')
_QS_FUZZY_RE = re.compile(r"([a-z0-9]+)~([0-2]?)$")


def parse_query_string(qs: str) -> dict:
    """One-box query-string mini-language (a deterministic subset of the
    Lucene QueryParser syntax the reference's evidence queries imply,
    SURVEY.md §2.10):

      ``+term``        required (MUST)
      ``-term``        banned (MUST_NOT)
      ``term``         optional (SHOULD) — scores candidates; when no MUST
                       clause exists, >=1 SHOULD match is required
      ``"a b"``        exact-adjacency phrase, required; ``-"a b"`` banned
      ``pre*``         trailing wildcard — dictionary prefix expansion,
                       always SHOULD (signs ignored on expansions)
      ``word~``/``word~2``  fuzzy — Levenshtein<=d expansion, SHOULD
                       (d defaults to 1, capped at 2 by the suffix grammar)
      ``role:x`` / ``tool:x``  stored-field filters (mask before top-k,
                       collection statistics stay global; signs ignored)

    Flat clause algebra by design — no parentheses or OR operator — so
    candidacy + scoring stay SQL-stateable for the driver oracle.  A
    plain token contributes every tokenizer term it yields under its
    sign; unknown ``field:`` prefixes degrade to plain tokens.  Returns
    the clause spec; dictionary expansion happens in
    ``resolve_query_string`` so the engine and the brute-force oracle
    share ONE resolution rule."""
    spec: dict = {"must": set(), "should": set(), "must_not": set(),
                  "phrases": [], "not_phrases": [],
                  "prefixes": set(), "fuzzies": set(),
                  "role": None, "tool": None}
    for m in _QS_CLAUSE_RE.finditer(qs.lower()):
        if m.group(3) is None:  # quoted phrase clause
            words = _TOKEN_RE.findall(m.group(2))
            if words:
                key = "not_phrases" if m.group(1) == "-" else "phrases"
                spec[key].append(words)
            continue
        tok = m.group(3)
        sign = ""
        if tok[0] in "+-":
            sign, tok = tok[0], tok[1:]
        field, sep, value = tok.partition(":")
        if sep and field in ("role", "tool") and value:
            spec[field] = value
            continue
        if tok.endswith("*") and _TOKEN_RE.fullmatch(tok[:-1]):
            spec["prefixes"].add(tok[:-1])
            continue
        fz = _QS_FUZZY_RE.fullmatch(tok)
        if fz:
            spec["fuzzies"].add((fz.group(1), int(fz.group(2) or 1)))
            continue
        dest = {"+": "must", "-": "must_not"}.get(sign, "should")
        spec[dest].update(_TOKEN_RE.findall(tok))
    return spec


def resolve_query_string(spec: dict, expand_prefix, expand_fuzzy
                         ) -> tuple[list[str], list[str], list[str],
                                    list[list[str]], list[list[str]],
                                    str | None, str | None]:
    """Folds the spec's prefix/fuzzy clauses into SHOULD via the given
    dictionary expanders and returns ``(must, should, must_not, phrases,
    not_phrases, role, tool)`` — every term list deduplicated + sorted,
    SHOULD minus the MUST overlap.  The one resolution rule shared by
    QueryEngine, BruteForceBM25 and the SQL oracle builder."""
    should = set(spec["should"])
    for p in sorted(spec["prefixes"]):
        should.update(expand_prefix(p))
    for w, d in sorted(spec["fuzzies"]):
        should.update(expand_fuzzy(w, d))
    must = sorted(spec["must"])
    return (must, sorted(should - set(must)), sorted(spec["must_not"]),
            spec["phrases"], spec["not_phrases"],
            spec["role"], spec["tool"])


def s_stem(w: str) -> str:
    """Harman S-stemmer (the light plural stemmer of classic IR): three
    ordered suffix rules — ies->y (unless -eies/-aies), -es drops the s
    (unless -aes/-ees/-oes), -s drops (unless -us/-ss).  Shared VERBATIM
    by QueryEngine.search_stemmed, BruteForceBM25 and the DuckDB oracle's
    CASE expression (__ray_entry__._sql_stem_case) — change all three or
    none."""
    if w.endswith("ies") and not w.endswith(("eies", "aies")):
        return w[:-3] + "y"
    if w.endswith("es") and not w.endswith(("aes", "ees", "oes")):
        return w[:-1]
    if w.endswith("s") and not w.endswith(("us", "ss")):
        return w[:-1]
    return w


def wildcard_to_regex(pattern: str) -> str:
    """Lucene WildcardQuery translation: ``*`` = any run (incl. empty),
    ``?`` = exactly one char, everything else literal.  THE one
    implementation — engine, brute oracle and the SQL builder's LIKE
    translation (``*``->``%``, ``?``->``_``) must express the same
    language."""
    import re as _re

    out = []
    for ch in pattern:
        if ch == "*":
            out.append(".*")
        elif ch == "?":
            out.append(".")
        else:
            out.append(_re.escape(ch))
    return "".join(out)


def bm25_idf(n_docs: int, df: int) -> float:
    return math.log(1.0 + (n_docs - df + 0.5) / (df + 0.5))


def parse_boosts(spec: str) -> dict[str, float]:
    """Serving-side boost spec: ``"term:2,other:0.5"`` -> per-term weight
    map (the ``&boost=`` HTTP param and the scorer-row ``boost`` column
    share this one parser).  Terms are normalized through the shared
    tokenizer rule; a malformed pair or non-positive weight fails loudly."""
    out: dict[str, float] = {}
    for pair in spec.split(","):
        pair = pair.strip()
        if not pair:
            continue
        term, sep, w = pair.rpartition(":")
        if not sep or not term:
            raise ValueError(f"malformed boost pair {pair!r} (want term:weight)")
        toks = _TOKEN_RE.findall(term.lower())
        if len(toks) != 1:
            raise ValueError(f"boost key {term!r} is not a single term")
        wf = float(w)
        if wf <= 0.0:
            raise ValueError(f"boost for {toks[0]!r} must be > 0, got {wf}")
        out[toks[0]] = wf
    return out


def recency_boost_e6(ts_us: int | None, now_us: int,
                     horizon_s: int, boost_e6: int) -> int:
    """THE integer recency-decay rule (ES ``function_score`` with a
    linear decay), shared by the brute-force oracle, the engine's
    vectorized path (parity-pinned in tests/test_recency.py) and the
    DuckDB oracle SQL:

        age_s  = max(now_us - ts_us, 0) // 1_000_000
        boost  = boost_e6 * max(horizon_s - age_s, 0) // horizon_s

    Exact integer arithmetic end to end (seconds granularity keeps
    boost_e6 * horizon_s far inside int64); a missing timestamp boosts
    by 0.  Future timestamps clamp to age 0 (full boost)."""
    if ts_us is None:
        return 0
    age_s = max(now_us - int(ts_us), 0) // 1_000_000
    fresh = horizon_s - age_s
    if fresh <= 0:
        return 0
    return boost_e6 * fresh // horizon_s


def mmr_select(docs: list[int], toksets: dict[int, set[str]], k: int,
               pool_n: int, lam10: int = 7) -> list[int]:
    """THE maximal-marginal-relevance selection rule (Carbonell &
    Goldstein MMR), shared by the brute-force oracle, the engine and the
    DuckDB oracle SQL — exact integer arithmetic end to end:

    * ``docs`` is the candidate pool in e6-domain relevance order
      (best first, already truncated to ``pool_n``); candidate at
      0-based rank i has ``rel_e6 = (pool_n - i) * 1_000_000 // pool_n``
      (rank-based relevance — float BM25 never enters the blend);
    * pairwise similarity is exact integer Jaccard over DISTINCT token
      sets: ``|A ∩ B| * 1_000_000 // |A ∪ B|``;
    * greedy: seed with the top candidate, then repeatedly take the
      argmax of ``lam10 * rel_e6 - (10 - lam10) * max_sim_to_selected``
      (ties: doc_id asc) until ``k`` picked or the pool is dry.
    """
    if not docs or k <= 0:
        return []
    rel = {d: (pool_n - i) * 1_000_000 // pool_n for i, d in enumerate(docs)}

    def jac(a: int, b: int) -> int:
        sa, sb = toksets[a], toksets[b]
        inter = len(sa & sb)
        union = len(sa) + len(sb) - inter
        return inter * 1_000_000 // union if union else 0

    selected = [docs[0]]
    remaining = docs[1:]
    while remaining and len(selected) < k:
        best_key = None
        best_doc = None
        for d in remaining:
            ms = max(jac(d, s) for s in selected)
            mmr = lam10 * rel[d] - (10 - lam10) * ms
            key = (-mmr, d)
            if best_key is None or key < best_key:
                best_key, best_doc = key, d
        selected.append(best_doc)
        remaining.remove(best_doc)
    return selected


def resolve_msm(spec, n_should: int) -> int:
    """Lucene/Solr ``minimum_should_match`` spec -> concrete count, THE
    shared rule (engine, brute oracle, HTTP all call this):

    - non-negative int (or digit string): that many;
    - negative int: ``n_should`` minus that many (Solr's "all but m"),
      floored at 0;
    - ``"N%"``: floor(N% of n_should) — the fractional part is DROPPED
      (Solr mm spec); negative percentage = all but floor(|N|%).
    """
    if isinstance(spec, str):
        s = spec.strip()
        if s.endswith("%"):
            pct = int(s[:-1])
            if pct >= 0:
                return (pct * n_should) // 100
            return max(0, n_should - ((-pct) * n_should) // 100)
        spec = int(s)
    m = int(spec)
    if m < 0:
        return max(0, n_should + m)
    return m


def rrf_fuse(rankings: list[list[tuple[int, float]]], k: int,
             window: int = 50, k_rrf: int = 60) -> list[tuple[int, int]]:
    """Reciprocal-rank fusion (Cormack/Clarke/Buettcher RRF) of several
    (doc_id, float score) rankings into one exact-INTEGER fused ranking.

    THE one fusion rule, shared verbatim by the brute-force oracle, the
    engine, the serving pool and the DuckDB oracle SQL:

    * each input ranking is re-ranked in the e6 integer domain
      (floor(score * 1e6 + 0.5) desc, doc_id asc) so rank assignment is
      independent of float tie order between the two sides;
    * the top-``window`` docs of each ranking contribute the exact
      integer ``1_000_000 // (k_rrf + rank)`` (rank is 1-based) — the
      classic 1/(k+r) scaled to e6 and floored, so fused scores are
      order-free integer sums;
    * fused ranking ties break (rrf desc, doc_id asc).

    Inputs are expected to be PADDED fetches (>= window rows when that
    many match) so the e6 re-rank's window boundary is stable — the same
    3k+20 padding rule the driver's ``_e6_rerank`` uses.
    """
    rrf: dict[int, int] = {}
    for hits in rankings:
        order = sorted(
            ((-(math.floor(s * 1e6 + 0.5)), d) for d, s in hits))
        for rank, (_negs, d) in enumerate(order[:window], start=1):
            rrf[d] = rrf.get(d, 0) + 1_000_000 // (k_rrf + rank)
    return sorted(rrf.items(), key=lambda kv: (-kv[1], kv[0]))[:k]


# ---------------------------------------------------------------------------
# Oracle
# ---------------------------------------------------------------------------


class BruteForceBM25:
    """Single-process exact BM25 over (doc_id, text) pairs."""

    def __init__(self, k1: float = BM25_K1, b: float = BM25_B,
                 stopwords: tuple[str, ...] = ()):
        self.k1, self.b = k1, b
        self.stopwords = frozenset(stopwords)
        self.postings: dict[str, list[tuple[int, int]]] = defaultdict(list)
        self.dl: dict[int, int] = {}
        self.doc_tokens: dict[int, list[str]] = {}
        self.attrs: dict[int, tuple[str, str]] = {}  # doc_id -> (role, tool)
        self.ts: dict[int, int] = {}  # doc_id -> us timestamp
        self.convs: dict[int, str] = {}  # doc_id -> conv_id (collapse field)
        self.n_docs = 0
        self.total_tokens = 0
        self.deleted: set[int] = set()  # tombstones: masked, stats stale

    def delete_docs(self, doc_ids) -> None:
        """Tombstone docs: excluded from every result set; collection
        statistics (N, avgdl, df) stay STALE — the engine's exact
        live-docs semantics (pipelines/delete.py)."""
        self.deleted.update(int(d) for d in doc_ids)

    def _passes(self, doc_id: int, role: str | None, tool: str | None,
                ts_min=None, ts_max=None) -> bool:
        if doc_id in self.deleted:
            return False
        a = self.attrs.get(doc_id, ("", ""))
        if role is not None and a[0] != role:
            return False
        if tool is not None and a[1] != tool:
            return False
        if ts_min is not None or ts_max is not None:
            t = self.ts.get(doc_id)
            if t is None:
                return False
            if ts_min is not None and t < QueryEngine._ts_us(ts_min):
                return False
            if ts_max is not None and t > QueryEngine._ts_us(ts_max):
                return False
        return True

    def add_doc(self, doc_id: int, text: str, role: str = "",
                tool: str = "", ts=None, conv: str = "") -> None:
        toks_all = _TOKEN_RE.findall(text.lower())
        toks = [t for t in toks_all if t not in self.stopwords] if self.stopwords else toks_all
        self.attrs[doc_id] = (role, tool)
        if conv:
            self.convs[doc_id] = conv
        if ts is not None:
            self.ts[doc_id] = QueryEngine._ts_us(ts)
        self.n_docs += 1
        self.total_tokens += len(toks)
        self.dl[doc_id] = len(toks)
        # phrase adjacency scans the UNFILTERED stream: engine positions are
        # original-text-relative, so a phrase spanning a removed stopword
        # must NOT match on either side (shared semantics, tested)
        self.doc_tokens[doc_id] = toks_all
        tf: dict[str, int] = {}
        for t in toks:
            tf[t] = tf.get(t, 0) + 1
        for t, f in tf.items():
            self.postings[t].append((doc_id, f))

    @classmethod
    def from_corpus_files(cls, files: list[str], k1: float = BM25_K1, b: float = BM25_B,
                          stopwords: tuple[str, ...] = ()):
        """Builds doc ids with the same rank rule (offset of sorted conv_id
        + turn_idx) but via an independent pandas path."""
        self = cls(k1, b, stopwords)
        schema = pq.ParquetFile(files[0]).schema_arrow.names
        extra = [c for c in ("role", "tool", "ts") if c in schema]
        frames = [
            pq.read_table(f, columns=["conv_id", "turn_idx", "text", *extra]).to_pandas()
            for f in files
        ]
        df = pd.concat(frames, ignore_index=True).sort_values(
            ["conv_id", "turn_idx"], kind="stable"
        )
        df["doc_id"] = range(len(df))
        roles = df["role"] if "role" in extra else [""] * len(df)
        tools = df["tool"] if "tool" in extra else [""] * len(df)
        tss = df["ts"] if "ts" in extra else [None] * len(df)
        for doc_id, text, role, tool, ts, conv in zip(df["doc_id"], df["text"],
                                                      roles, tools, tss,
                                                      df["conv_id"]):
            self.add_doc(int(doc_id), text, role or "", tool or "",
                         ts=None if ts is None or pd.isna(ts) else ts,
                         conv=str(conv))
        return self

    @classmethod
    def from_document_files(cls, files: list[str], doc_id_col: str = "doc_id",
                            text_col: str = "text", k1: float = BM25_K1, b: float = BM25_B):
        """Documents variant: the table already carries int64 ids."""
        self = cls(k1, b)
        for f in files:
            t = pq.read_table(f, columns=[doc_id_col, text_col])
            for doc_id, text in zip(t[doc_id_col].to_pylist(), t[text_col].to_pylist()):
                self.add_doc(int(doc_id), text or "")
        return self

    @property
    def avgdl(self) -> float:
        return self.total_tokens / self.n_docs if self.n_docs else 0.0

    def _contrib(self, idf: float, tf: int, dl: int) -> float:
        return idf * (tf * (self.k1 + 1.0)) / (
            tf + self.k1 * (1.0 - self.b + self.b * dl / self.avgdl)
        )

    def search_phrase(self, text: str, k: int = 10,
                      slop: int = 0) -> list[tuple[int, float]]:
        """Oracle phrase search: scan each candidate doc's token list for
        the exact adjacent sequence; score matches with standard BM25 over
        the member terms in ascending-term order.

        ``slop > 0`` relaxes adjacency to the ordered-window rule (Lucene
        sloppy phrase over distinct terms): one occurrence per term, in
        phrase order, with total stretch ``last - first - (n-1) <=
        slop``; the oracle evaluates it as an explicit max-over-valid-
        chain-starts DP per occurrence (an independent formulation of the
        engine's last-valid-predecessor chain)."""
        phrase = _TOKEN_RE.findall(text.lower())
        if not phrase:
            return []
        uniq = sorted(set(phrase))
        if any(t not in self.postings for t in uniq):
            return []
        if slop > 0 and len(uniq) != len(phrase):
            raise ValueError("slop phrase requires distinct terms")
        cand: set[int] | None = None
        for t in uniq:
            docs = {d for d, _ in self.postings[t]}
            cand = docs if cand is None else (cand & docs)
        matched = []
        for d in cand or ():
            if d in self.deleted:
                continue
            toks = self.doc_tokens[d]
            n = len(phrase)
            if slop > 0:
                occ = {t: [i for i, w in enumerate(toks) if w == t]
                       for t in phrase}
                chains = [(p, p) for p in occ[phrase[0]]]  # (pos, start)
                for t in phrase[1:]:
                    chains = [
                        (p, max(st for pp, st in chains if pp < p))
                        for p in occ[t]
                        if any(pp < p for pp, _ in chains)
                    ]
                    if not chains:
                        break
                if chains and min(p - st for p, st in chains) - (n - 1) <= slop:
                    matched.append(d)
                continue
            if any(toks[i : i + n] == phrase for i in range(len(toks) - n + 1)):
                matched.append(d)
        scores: dict[int, float] = {d: 0.0 for d in matched}
        for t in uniq:
            idf = bm25_idf(self.n_docs, len(self.postings[t]))
            tfmap = dict(self.postings[t])
            for d in matched:
                scores[d] += self._contrib(idf, tfmap[d], self.dl[d])
        return sorted(scores.items(), key=lambda kv: (-kv[1], kv[0]))[:k]

    def search_near(self, text: str, k: int = 10,
                    window: int = 8) -> list[tuple[int, float]]:
        """Oracle proximity search: independent naive scan — for every
        candidate doc and every occurrence start, walk forward until all
        distinct query terms are seen; match iff the best (last - first)
        span <= window.  Scored as conjunctive BM25 over the distinct
        terms in ascending-term order."""
        uniq = sorted(set(_TOKEN_RE.findall(text.lower())))
        if not uniq or any(t not in self.postings for t in uniq):
            return []
        cand: set[int] | None = None
        for t in uniq:
            docs = {d for d, _ in self.postings[t]}
            cand = docs if cand is None else (cand & docs)
        want = set(uniq)
        matched = []
        for d in cand or ():
            if d in self.deleted:
                continue
            occ = [(i, t) for i, t in enumerate(self.doc_tokens[d])
                   if t in want]
            best = None
            for s in range(len(occ)):
                seen = set()
                for e in range(s, len(occ)):
                    seen.add(occ[e][1])
                    if len(seen) == len(want):
                        span = occ[e][0] - occ[s][0]
                        if best is None or span < best:
                            best = span
                        break
            if best is not None and best <= window:
                matched.append(d)
        scores: dict[int, float] = {d: 0.0 for d in matched}
        for t in uniq:
            idf = bm25_idf(self.n_docs, len(self.postings[t]))
            tfmap = dict(self.postings[t])
            for d in matched:
                scores[d] += self._contrib(idf, tfmap[d], self.dl[d])
        return sorted(scores.items(), key=lambda kv: (-kv[1], kv[0]))[:k]

    def match_anchors(self, text: str, doc_ids) -> dict[int, int]:
        """Oracle snippet anchors: index of the first token (unfiltered
        stream) that is any query term — equals the min over terms of
        their first occurrence."""
        terms = {t for t in query_terms(text) if t in self.postings}
        out: dict[int, int] = {}
        for d in doc_ids:
            for i, w in enumerate(self.doc_tokens.get(int(d), [])):
                if w in terms:
                    out[int(d)] = i
                    break
        return out

    def search_span_not(self, text: str, not_text: str, k: int = 10,
                        dist: int = 2) -> list[tuple[int, float]]:
        """Oracle span-not: independent naive scan — a doc matches iff
        some query-term occurrence has no not-term occurrence within
        ``dist`` positions; survivors score as plain OR."""
        terms = sorted({t for t in query_terms(text) if t in self.postings})
        nterms = {t for t in query_terms(not_text) if t in self.postings}
        if not terms:
            return []
        if dist < 0:
            raise ValueError(f"dist must be >= 0, got {dist}")
        cand: set[int] = set()
        for t in terms:
            cand.update(d for d, _ in self.postings[t])
        matched = []
        tset = set(terms)
        for d in cand:
            if d in self.deleted:
                continue
            toks = self.doc_tokens[d]
            bpos = [i for i, w in enumerate(toks) if w in nterms]
            for p, w in enumerate(toks):
                if w in tset and not any(abs(p - q) <= dist for q in bpos):
                    matched.append(d)
                    break
        scores: dict[int, float] = {d: 0.0 for d in matched}
        for t in terms:  # ascending-term accumulation
            idf = bm25_idf(self.n_docs, len(self.postings[t]))
            tfmap = dict(self.postings[t])
            for d in matched:
                if d in tfmap:
                    scores[d] += self._contrib(idf, tfmap[d], self.dl[d])
        return sorted(scores.items(), key=lambda kv: (-kv[1], kv[0]))[:k]

    def match_positions(self, text: str, doc_ids) -> dict[int, list[int]]:
        """Oracle multi-anchor positions: ALL ascending token positions
        (unfiltered stream) holding any query term, per doc."""
        terms = {t for t in query_terms(text) if t in self.postings}
        out: dict[int, list[int]] = {}
        for d in doc_ids:
            ps = [i for i, w in enumerate(self.doc_tokens.get(int(d), []))
                  if w in terms]
            if ps:
                out[int(d)] = ps
        return out

    def search_fragments(self, text: str, k: int = 10, window: int = 3,
                         n_fragments: int = 3
                         ) -> list[tuple[int, float, list[str]]]:
        """Oracle multi-fragment highlighter: top-k plus up to
        ``n_fragments`` non-overlapping token windows per hit, anchors by
        the shared greedy rule (select_fragment_anchors)."""
        hits = self.search(text, k)
        pos = self.match_positions(text, [d for d, _ in hits])
        out = []
        for d, s in hits:
            anchors = select_fragment_anchors(pos.get(d, ()), window,
                                              n_fragments)
            toks = " ".join(self.doc_tokens[d])
            out.append((d, s, [snippet_text(toks, a, window)
                               for a in anchors]))
        return out

    def facet_counts(self, text: str, field: str = "role") -> dict[str, int]:
        """Oracle facet panel: distinct matching docs per field value."""
        terms = [t for t in query_terms(text) if t in self.postings]
        docs: set[int] = set()
        for t in terms:
            docs.update(d for d, _ in self.postings[t])
        idx = 0 if field == "role" else 1
        out: dict[str, int] = {}
        for d in docs:
            if d in self.deleted:
                continue
            k = self.attrs.get(d, ("", ""))[idx]
            out[k] = out.get(k, 0) + 1
        return out

    def search_common_terms(self, text: str, k: int = 10,
                            cutoff_pct: int = 50) -> list[tuple[int, float]]:
        """Oracle CommonTermsQuery: candidacy = docs with >= 1
        LOW-frequency term (df * 100 < cutoff_pct * N); all-high falls
        back to plain OR; scores over all present terms ascending."""
        terms = [t for t in query_terms(text) if t in self.postings]
        if not terms:
            return []
        low = [t for t in terms
               if len({d for d, _ in self.postings[t]}) * 100
               < int(cutoff_pct) * self.n_docs]
        cand: set[int] | None = None
        if low:
            cand = set()
            for t in low:
                cand |= {d for d, _ in self.postings[t]}
        scores: dict[int, float] = defaultdict(float)
        for t in terms:
            idf = bm25_idf(self.n_docs, len(self.postings[t]))
            for d, f in self.postings[t]:
                if d in self.deleted:
                    continue
                if cand is not None and d not in cand:
                    continue
                scores[d] += self._contrib(idf, f, self.dl[d])
        return sorted(scores.items(), key=lambda kv: (-kv[1], kv[0]))[:k]

    def search_boolean(self, must: str, should: str = "",
                       must_not: str = "",
                       k: int = 10,
                       min_should_match: int = 0) -> list[tuple[int, float]]:
        """Oracle boolean query: candidacy = docs containing every must
        term (plus >= min_should_match distinct should terms); score over
        distinct (must + should) terms present, ascending-term order;
        must_not docs banned."""
        must_terms = sorted(set(query_terms(must)))
        if not must_terms or any(t not in self.postings
                                 for t in must_terms):
            return []
        should_terms = sorted(
            {t for t in query_terms(should) if t in self.postings}
            - set(must_terms))
        msm = resolve_msm(min_should_match, len(should_terms))
        if msm > len(should_terms):
            return []
        cand: set[int] | None = None
        for t in must_terms:
            docs = {d for d, _ in self.postings[t]}
            cand = docs if cand is None else (cand & docs)
        if msm > 0:
            scount: dict[int, int] = {}
            for t in should_terms:
                for d, _f in self.postings[t]:
                    if d in (cand or ()):
                        scount[d] = scount.get(d, 0) + 1
            cand = {d for d in (cand or ()) if scount.get(d, 0) >= msm}
        banned: set[int] = set(self.deleted)
        for t in query_terms(must_not):
            banned.update(d for d, _ in self.postings.get(t, ()))
        scores: dict[int, float] = {}
        for t in sorted(set(must_terms) | set(should_terms)):
            idf = bm25_idf(self.n_docs, len(self.postings[t]))
            for d, f in self.postings[t]:
                if d in (cand or ()) and d not in banned:
                    scores[d] = scores.get(d, 0.0) + self._contrib(
                        idf, f, self.dl[d])
        return sorted(scores.items(), key=lambda kv: (-kv[1], kv[0]))[:k]

    def search_lm(self, text: str, k: int = 10, mu: float = 1000.0,
                  mode: str = "or") -> list[tuple[int, float]]:
        """Oracle Dirichlet-smoothed query likelihood: same formula and
        ascending-term float64 accumulation as QueryEngine.search_lm.
        Deliberately np.log, not math.log: numpy's log kernel is
        bit-consistent between its scalar and vectorized paths (verified
        incl. SIMD remainder tails) but differs from libm in the last
        ulp — bitwise parity requires the same kernel on both sides."""
        all_terms = query_terms(text)
        terms = [t for t in all_terms if t in self.postings]
        if not terms or (mode == "and" and len(terms) != len(all_terms)):
            return []
        cand: set[int] | None = None
        if mode == "and":
            for t in terms:
                docs = {d for d, _ in self.postings[t]}
                cand = docs if cand is None else (cand & docs)
        scores: dict[int, float] = defaultdict(float)
        for t in terms:
            cf = sum(f for _d, f in self.postings[t])
            p = cf / self.total_tokens
            for d, f in self.postings[t]:
                if d in self.deleted or (cand is not None and d not in cand):
                    continue
                scores[d] += float(np.log(1.0 + f / (mu * p))
                                   + np.log(mu / (self.dl[d] + mu)))
        return sorted(scores.items(), key=lambda kv: (-kv[1], kv[0]))[:k]

    def search_classic(self, text: str, k: int = 10,
                       mode: str = "or") -> list[tuple[int, float]]:
        """Oracle Lucene ClassicSimilarity (the pre-BM25 default TF-IDF):
        per matching query term ``sqrt(tf) * idf^2 / sqrt(dl)`` with
        ``idf = 1 + ln(N / (df + 1))``; queryNorm is dropped (a constant
        per query — rank-neutral).  Same np.sqrt/np.log kernels, term
        order and float64 accumulation as QueryEngine.search_classic, so
        parity is bitwise."""
        all_terms = query_terms(text)
        terms = [t for t in all_terms if t in self.postings]
        if not terms or (mode == "and" and len(terms) != len(all_terms)):
            return []
        cand: set[int] | None = None
        if mode == "and":
            for t in terms:
                docs = {d for d, _ in self.postings[t]}
                cand = docs if cand is None else (cand & docs)
        scores: dict[int, float] = defaultdict(float)
        for t in terms:
            df = len(self.postings[t])
            idf = float(1.0 + np.log(self.n_docs / (df + 1.0)))
            for d, f in self.postings[t]:
                if d in self.deleted or (cand is not None and d not in cand):
                    continue
                scores[d] += float(np.sqrt(float(f)) * (idf * idf)
                                   / np.sqrt(float(self.dl[d])))
        return sorted(scores.items(), key=lambda kv: (-kv[1], kv[0]))[:k]

    def lm_scores(self, text: str, doc_ids,
                  mu: float = 1000.0) -> dict[int, float]:
        """Dirichlet query-likelihood scores for SPECIFIC docs (the
        rescore window) — the search_lm accumulation restricted to the
        given ids; docs matching no query term stay 0.0.  Same np.log
        kernel and ascending-term order as the engine (bitwise-shared)."""
        terms = [t for t in query_terms(text) if t in self.postings]
        want = {int(d) for d in doc_ids}
        out = {d: 0.0 for d in want}
        for t in terms:
            cf = sum(f for _d, f in self.postings[t])
            p = cf / self.total_tokens
            for d, f in self.postings[t]:
                if d in want:
                    out[d] += float(np.log(1.0 + f / (mu * p))
                                    + np.log(mu / (self.dl[d] + mu)))
        return out

    def rescore_lm(self, text: str, k: int = 10, window: int = 50,
                   mu: float = 1000.0) -> list[tuple[int, float]]:
        """Oracle two-phase rescore: BM25 top-``window`` candidates
        rerank by query likelihood, (score desc, doc asc)."""
        win = self.search(text, k=window)
        if not win:
            return []
        sc = self.lm_scores(text, [d for d, _ in win], mu=mu)
        return sorted(sc.items(), key=lambda kv: (-kv[1], kv[0]))[:k]

    def search_fused(self, text: str, k: int = 10, window: int = 50,
                     k_rrf: int = 60,
                     mu: float = 1000.0) -> list[tuple[int, int]]:
        """Oracle hybrid ranking: reciprocal-rank fusion of the BM25 and
        Dirichlet-QL rankings through the shared ``rrf_fuse`` rule.
        Returns (doc_id, exact integer rrf score)."""
        pad = window * 3 + 20
        return rrf_fuse(
            [self.search(text, k=pad), self.search_lm(text, k=pad, mu=mu)],
            k=k, window=window)

    def search_diverse(self, text: str, k: int = 10, pool_n: int = 15,
                       lam10: int = 7, mode: str = "or") -> list[int]:
        """Oracle MMR diversification: e6-reranked BM25 top-``pool_n``
        candidates through the shared ``mmr_select`` integer rule; token
        sets come from the oracle's own tokenized corpus."""
        hits = self.search(text, k=pool_n * 3 + 20, mode=mode)
        order = sorted(
            ((-(math.floor(s * 1e6 + 0.5)), d) for d, s in hits))[:pool_n]
        docs = [d for _s, d in order]
        toksets = {d: set(self.doc_tokens.get(d, ())) for d in docs}
        return mmr_select(docs, toksets, k, pool_n, lam10)

    def match_count(self, text: str, mode: str = "or",
                    role: str | None = None,
                    tool: str | None = None) -> int:
        """Oracle total-hits count: live docs matching the query under
        the optional field filters."""
        all_terms = query_terms(text)
        terms = [t for t in all_terms if t in self.postings]
        if not terms or (mode == "and" and len(terms) != len(all_terms)):
            return 0
        sets = [{d for d, _ in self.postings[t]} for t in terms]
        docs = set.intersection(*sets) if mode == "and" else set.union(*sets)
        return sum(1 for d in docs if self._passes(d, role, tool))

    def search_sorted_by(self, text: str, k: int = 10, field: str = "ts",
                         ascending: bool = True, mode: str = "or",
                         role: str | None = None,
                         tool: str | None = None) -> list[tuple[int, int]]:
        """Oracle field-sorted retrieval: match set ordered by the stored
        timestamp, (value, doc_id) tie-break; docs without it drop out."""
        if field != "ts":
            raise ValueError("oracle sorts on 'ts' only")
        all_terms = query_terms(text)
        terms = [t for t in all_terms if t in self.postings]
        if not terms or (mode == "and" and len(terms) != len(all_terms)):
            return []
        sets = [{d for d, _ in self.postings[t]} for t in terms]
        docs = set.intersection(*sets) if mode == "and" else set.union(*sets)
        rows = [(self.ts[d], d) for d in docs
                if d in self.ts and self._passes(d, role, tool)]
        rows.sort(key=lambda tv: (tv[0] if ascending else -tv[0], tv[1]))
        return [(d, v) for v, d in rows[:k]]

    def search_recency(self, text: str, k: int = 10, now_us: int = 0,
                       horizon_s: int = 2_592_000,
                       boost_e6: int = 5_000_000,
                       mode: str = "or") -> list[tuple[int, int]]:
        """Oracle function-score query: every match's BM25 score moves to
        the e6 integer domain and adds the shared linear recency decay
        (``recency_boost_e6``); ranking is (final_e6 desc, doc asc)."""
        if horizon_s <= 0:
            raise ValueError("horizon_s must be > 0")
        ranked = self.search(text, self.n_docs + k, mode=mode)
        rows = [(d, math.floor(s * 1e6 + 0.5)
                 + recency_boost_e6(self.ts.get(d), now_us,
                                    horizon_s, boost_e6))
                for d, s in ranked]
        rows.sort(key=lambda dv: (-dv[1], dv[0]))
        return rows[:k]

    def search_after(self, text: str, k: int = 10,
                     cursor: tuple[int, float] | None = None,
                     mode: str = "or") -> list[tuple[int, float]]:
        """Oracle cursor pagination: full ranking, then the k entries
        strictly after the (doc_id, score) cursor row under
        (score desc, doc asc)."""
        ranked = self.search(text, self.n_docs + k, mode=mode)
        if cursor is None:
            return ranked[:k]
        cd, cs = int(cursor[0]), float(cursor[1])
        return [(d, s) for d, s in ranked
                if s < cs or (s == cs and d > cd)][:k]

    def date_histogram(self, text: str,
                       interval_us: int = 86_400_000_000) -> dict[int, int]:
        """Oracle date-histogram: matching docs bucketed by
        floor(ts_us / interval_us); docs without a timestamp omitted."""
        terms = [t for t in query_terms(text) if t in self.postings]
        docs: set[int] = set()
        for t in terms:
            docs.update(d for d, _ in self.postings[t])
        out: dict[int, int] = {}
        for d in docs:
            if d in self.deleted:
                continue
            t = self.ts.get(d)
            if t is None:
                continue
            b = t // interval_us  # python floor div matches np.floor_divide
            out[b] = out.get(b, 0) + 1
        return out

    def auto_date_histogram(self, text: str, target_buckets: int = 20
                            ) -> tuple[int, dict[int, int]]:
        """Oracle auto_date_histogram: interval = choose_auto_interval
        over the OR match set's stored-ts bounds (field_stats), then the
        ordinary date histogram at that interval.  Returns
        (interval_us, hist); ts-less match sets return (0, {})."""
        st = self.field_stats(text, "ts")
        if st["count"] == 0:
            return 0, {}
        iv = choose_auto_interval(st["min"], st["max"], target_buckets)
        return iv, self.date_histogram(text, interval_us=iv)

    def more_like_this(self, doc_id: int, k: int = 10,
                       m_terms: int = 5) -> list[tuple[int, float]]:
        """Oracle query-by-example: same tf*ln(N/df) top-m selection and
        OR scoring as the engine, source doc dropped."""
        tf: dict[str, int] = {}
        for t in self.doc_tokens.get(int(doc_id), []):
            tf[t] = tf.get(t, 0) + 1
        weighted = sorted(
            (-f * math.log(self.n_docs / len(self.postings[t])), t)
            for t, f in tf.items() if self.postings.get(t))
        sel = sorted(t for _w, t in weighted[:m_terms])
        scores: dict[int, float] = defaultdict(float)
        for t in sel:
            idf = bm25_idf(self.n_docs, len(self.postings[t]))
            for d, f in self.postings[t]:
                if d not in self.deleted:
                    scores[d] += self._contrib(idf, f, self.dl[d])
        scores.pop(int(doc_id), None)
        return sorted(scores.items(), key=lambda kv: (-kv[1], kv[0]))[:k]

    def _score_term_set(self, terms: list[str], k: int) -> list[tuple[int, float]]:
        scores: dict[int, float] = defaultdict(float)
        for t in terms:
            idf = bm25_idf(self.n_docs, len(self.postings[t]))
            for d, f in self.postings[t]:
                if d not in self.deleted:
                    scores[d] += self._contrib(idf, f, self.dl[d])
        return sorted(scores.items(), key=lambda kv: (-kv[1], kv[0]))[:k]

    def _expand_fuzzy_vocab(self, term: str, max_dist: int = 1,
                            transpositions: bool = False) -> list[str]:
        """Edit-distance-``max_dist`` neighborhood of one term in the
        brute vocabulary (shared by search_fuzzy and search_querystring);
        ``transpositions`` switches to the OSA metric (adjacent swap =
        one edit, Lucene FuzzyQuery(transpositions=true))."""
        from horus_ner_ray.stages.fuzzy import (levenshtein_distances,
                                                osa_distances)

        dist_fn = osa_distances if transpositions else levenshtein_distances
        vocab = np.array(sorted(self.postings), dtype=object)
        d = dist_fn(
            np.full(len(vocab), term, dtype=object), vocab.astype(str))
        return [str(x) for x in vocab[d <= max_dist]]

    def search_fuzzy(self, text: str, k: int = 10, max_dist: int = 1,
                     transpositions: bool = False) -> list[tuple[int, float]]:
        """Oracle typo-tolerant search: brute edit-distance scan of the
        vocabulary per query token, union scored as OR."""
        sel: set[str] = set()
        for t in query_terms(text):
            sel.update(self._expand_fuzzy_vocab(t, max_dist,
                                                transpositions))
        return self._score_term_set(sorted(sel), k)

    def _phrase_match_set(self, phrase: list[str]) -> set[int]:
        """Docs whose UNFILTERED token stream contains the exact adjacent
        phrase (the search_phrase scan as a set primitive; tombstones NOT
        applied here — callers own the live mask)."""
        uniq = sorted(set(phrase))
        if any(t not in self.postings for t in uniq):
            return set()
        cand: set[int] | None = None
        for t in uniq:
            docs = {d for d, _ in self.postings[t]}
            cand = docs if cand is None else (cand & docs)
        n = len(phrase)
        out = set()
        for d in cand or ():
            toks = self.doc_tokens[d]
            if any(toks[i:i + n] == phrase for i in range(len(toks) - n + 1)):
                out.add(d)
        return out

    def search_querystring(self, qs: str, k: int = 10
                           ) -> list[tuple[int, float]]:
        """Oracle query-string search (``parse_query_string`` dialect):
        candidacy = every MUST term present AND every phrase matches AND
        (>=1 SHOULD present when no MUST/phrase clause exists) AND no
        MUST_NOT term / banned phrase AND the field filters; score = BM25
        sum over distinct (must + phrase + present-should) terms in
        ascending-term order."""
        spec = parse_query_string(qs)
        must, should, mnot, phrases, nphrases, role, tool = \
            resolve_query_string(
                spec,
                lambda p: [t for t in self.postings if t.startswith(p)],
                self._expand_fuzzy_vocab)
        should = [t for t in should if t in self.postings]
        if any(t not in self.postings for t in must):
            return []
        for ph in phrases:
            if any(t not in self.postings for t in ph):
                return []
        if not must and not phrases and not should:
            return []
        cand: set[int] | None = None
        for t in must:
            docs = {d for d, _ in self.postings[t]}
            cand = docs if cand is None else (cand & docs)
        for ph in phrases:
            m = self._phrase_match_set(ph)
            cand = m if cand is None else (cand & m)
        if cand is None:
            cand = set()
            for t in should:
                cand |= {d for d, _ in self.postings[t]}
        banned: set[int] = set()
        for t in mnot:
            banned.update(d for d, _ in self.postings.get(t, ()))
        for ph in nphrases:
            banned |= self._phrase_match_set(ph)
        filtered = role is not None or tool is not None
        cand = {d for d in cand if d not in banned
                and (self._passes(d, role, tool) if filtered
                     else d not in self.deleted)}
        union = sorted(set(must) | set(should)
                       | {t for ph in phrases for t in ph})
        scores: dict[int, float] = {}
        for t in union:
            idf = bm25_idf(self.n_docs, len(self.postings[t]))
            for d, f in self.postings[t]:
                if d in cand:
                    scores[d] = scores.get(d, 0.0) + self._contrib(
                        idf, f, self.dl[d])
        return sorted(scores.items(), key=lambda kv: (-kv[1], kv[0]))[:k]

    def search_contains(self, text: str, k: int = 10) -> list[tuple[int, float]]:
        """Oracle infix search: substring scan of the vocabulary."""
        sel: set[str] = set()
        for sub in query_terms(text):
            sel.update(t for t in self.postings if sub in t)
        return self._score_term_set(sorted(sel), k)

    def search_stemmed(self, text: str, k: int = 10) -> list[tuple[int, float]]:
        """Oracle stem-expansion search: every vocabulary term whose
        S-stem equals the S-stem of any query term joins the union
        (query-time stemming over an unstemmed index); OR scoring."""
        qstems = {s_stem(t) for t in query_terms(text)}
        sel = sorted(t for t in self.postings if s_stem(t) in qstems)
        return self._score_term_set(sel, k)

    def search_span_first(self, text: str, k: int = 10,
                          first_n: int = 8) -> list[tuple[int, float]]:
        """Oracle span-first search (Lucene SpanFirstQuery as a filter):
        a doc matches iff any of its first ``first_n`` tokens is a query
        term; survivors score as plain OR over full term frequencies
        (mask before top-k, stats global — the field-filter contract)."""
        tset = set(query_terms(text))
        terms = sorted(t for t in tset if t in self.postings)
        if not terms or first_n <= 0:
            return []
        scores: dict[int, float] = defaultdict(float)
        for t in terms:
            idf = bm25_idf(self.n_docs, len(self.postings[t]))
            for d, f in self.postings[t]:
                if d in self.deleted:
                    continue
                if not any(w in tset for w in self.doc_tokens[d][:first_n]):
                    continue
                scores[d] += self._contrib(idf, f, self.dl[d])
        return sorted(scores.items(), key=lambda kv: (-kv[1], kv[0]))[:k]

    def suggest(self, word: str, k: int = 5,
                max_dist: int = 2) -> list[tuple[str, int, int]]:
        """Oracle spell suggestion: brute edit-distance scan of the whole
        vocabulary, ranked (distance asc, df desc, term asc); the word
        itself is excluded.  Shares the ranking contract with
        QueryEngine.suggest (integer keys, deterministic)."""
        from horus_ner_ray.stages.fuzzy import levenshtein_distances

        w = word.lower()
        vocab = np.array(sorted(self.postings), dtype=object)
        if not w or len(vocab) == 0:
            return []
        d = levenshtein_distances(
            np.full(len(vocab), w, dtype=object), vocab.astype(str))
        rows = [(int(di), -len(self.postings[str(t)]), str(t))
                for t, di in zip(vocab, d)
                if di <= max_dist and str(t) != w]
        rows.sort()
        return [(t, di, -ndf) for di, ndf, t in rows[:k]]

    def term_vector(self, doc_id: int) -> list[tuple[str, int, int]]:
        """Oracle term vectors: (term, tf over the unfiltered stream,
        dictionary df) rows, term-ascending."""
        toks = self.doc_tokens.get(int(doc_id))
        if toks is None:
            return []
        tf: dict[str, int] = {}
        for t in toks:
            tf[t] = tf.get(t, 0) + 1
        return [(t, f, len(self.postings.get(t, ())))
                for t, f in sorted(tf.items())]

    def correct_query_terms(self, text: str, max_dist: int = 2) -> list[str]:
        """Oracle query rewrite: absent terms replace with their best
        suggestion under the shared (distance, df desc, term) contract."""
        out: set[str] = set()
        for t in query_terms(text):
            if t in self.postings:
                out.add(t)
            else:
                s = self.suggest(t, k=1, max_dist=max_dist)
                if s:
                    out.add(s[0][0])
        return sorted(out)

    def search_corrected(self, text: str, k: int = 10, max_dist: int = 2,
                         ) -> tuple[list[str], list[tuple[int, float]]]:
        """Oracle 'did you mean' search: rewrite then plain OR search."""
        terms = self.correct_query_terms(text, max_dist)
        if not terms:
            return terms, []
        return terms, self.search(" ".join(terms), k=k)

    def search_relaxed(self, text: str, k: int = 10, max_dist: int = 2,
                       ) -> tuple[str, list[tuple[int, float]]]:
        """Oracle relaxation cascade: and -> or -> corrected."""
        hits = self.search(text, k=k, mode="and")
        if hits:
            return "and", hits
        hits = self.search(text, k=k, mode="or")
        if hits:
            return "or", hits
        _terms, hits = self.search_corrected(text, k=k, max_dist=max_dist)
        return "corrected", hits

    def search_snippets(self, text: str, k: int = 10,
                        window: int = 3) -> list[tuple[int, float, str]]:
        """Oracle snippets: top-k plus the token window around each hit's
        anchor (smallest position of any query term in the UNFILTERED
        token stream — the same coordinate space as phrase adjacency)."""
        qt = [t for t in query_terms(text) if t in self.postings]
        out = []
        for d, s in self.search(text, k):
            toks = self.doc_tokens[d]
            a = min(toks.index(t) for t in qt if t in toks)
            out.append((d, s, snippet_text(" ".join(toks), a, window)))
        return out

    def search_synonyms(self, text: str, synonyms: dict[str, list[str]],
                        k: int = 10) -> list[tuple[int, float]]:
        """Oracle synonym expansion: same set-union rule, OR scoring."""
        base = query_terms(text)
        expanded: set[str] = set(base)
        for t in base:
            expanded.update(query_terms(" ".join(synonyms.get(t, ()))))
        return self._score_term_set(
            sorted(t for t in expanded if t in self.postings), k)

    def search_regex(self, pattern_text: str,
                     k: int = 10) -> list[tuple[int, float]]:
        """Oracle regexp term query: anchored fullmatch scan of the
        vocabulary per whitespace-separated pattern; union scores as OR."""
        import re as _re

        sel: set[str] = set()
        for p in pattern_text.split():
            rx = _re.compile(p)
            sel.update(t for t in self.postings if rx.fullmatch(t))
        return self._score_term_set(sorted(sel), k)

    def search_wildcard(self, pattern_text: str,
                        k: int = 10) -> list[tuple[int, float]]:
        """Oracle wildcard term query: each whitespace-separated pattern
        (``*`` any run, ``?`` one char) expands over the vocabulary via
        the shared translation; union scores as OR."""
        import re as _re

        sel: set[str] = set()
        for p in pattern_text.split():
            rx = _re.compile(wildcard_to_regex(p))
            sel.update(t for t in self.postings if rx.fullmatch(t))
        return self._score_term_set(sorted(sel), k)

    def field_stats(self, text: str, field: str = "ts",
                    mode: str = "or") -> dict[str, int]:
        """Oracle match-set stats: count/min/max/floor-mean of the stored
        timestamp over live matching docs (docs without it excluded)."""
        if field != "ts":
            raise ValueError("oracle supports field='ts' only")
        all_terms = query_terms(text)
        terms = [t for t in all_terms if t in self.postings]
        if not terms or (mode == "and" and len(terms) != len(all_terms)):
            return {"count": 0, "min": 0, "max": 0, "avg": 0, "sum": 0}
        sets = [{d for d, _ in self.postings[t]} for t in terms]
        docs = set.intersection(*sets) if mode == "and" else set.union(*sets)
        vals = [self.ts[d] for d in docs
                if d in self.ts and d not in self.deleted]
        if not vals:
            return {"count": 0, "min": 0, "max": 0, "avg": 0, "sum": 0}
        return {"count": len(vals), "min": min(vals), "max": max(vals),
                "avg": sum(vals) // len(vals), "sum": sum(vals)}

    def field_percentile(self, text: str, q: float = 0.5,
                         field: str = "ts",
                         mode: str = "or") -> dict[str, int]:
        """Oracle exact percentile: the k-th smallest stored value of the
        match set, k = ceil(q * n) — percentile_disc semantics, via a
        literal sort (independent of the engine's histogram refinement)."""
        import math

        if field != "ts":
            raise ValueError("oracle supports field='ts' only")
        if not (0.0 < q <= 1.0):
            raise ValueError(f"q must be in (0, 1], got {q}")
        all_terms = query_terms(text)
        terms = [t for t in all_terms if t in self.postings]
        if not terms or (mode == "and" and len(terms) != len(all_terms)):
            return {"count": 0, "value": 0}
        sets = [{d for d, _ in self.postings[t]} for t in terms]
        docs = set.intersection(*sets) if mode == "and" else set.union(*sets)
        vals = sorted(self.ts[d] for d in docs
                      if d in self.ts and d not in self.deleted)
        if not vals:
            return {"count": 0, "value": 0}
        return {"count": len(vals),
                "value": vals[max(1, math.ceil(q * len(vals))) - 1]}

    def adjacency_matrix(self, filters: dict[str, str]
                         ) -> list[tuple[str, str, int]]:
        """Oracle adjacency matrix: literal set intersections over the
        per-term posting doc sets."""
        names = sorted(filters)
        if not names:
            raise ValueError("filters must be non-empty")
        sets = {}
        for name in names:
            docs: set[int] = set()
            for t in query_terms(filters[name]):
                docs.update(d for d, _ in self.postings.get(t, ()))
            sets[name] = docs - self.deleted
        return [(a, b, len(sets[a] & sets[b]))
                for i, a in enumerate(names) for b in names[i:]]

    def field_percentile_ranks(self, text: str, values,
                               field: str = "ts",
                               mode: str = "or") -> list[dict]:
        """Oracle percentile ranks: literal sorted match-set scan —
        rank_e6 = floor(count(val <= v) / count * 1e6 + 0.5)."""
        import math

        if field != "ts":
            raise ValueError("oracle supports field='ts' only")
        probes = [int(v) for v in values]
        if not probes:
            raise ValueError("values must be non-empty")
        all_terms = query_terms(text)
        terms = [t for t in all_terms if t in self.postings]
        if not terms or (mode == "and" and len(terms) != len(all_terms)):
            return [{"value": v, "count_le": 0, "count": 0, "rank_e6": 0}
                    for v in probes]
        sets = [{d for d, _ in self.postings[t]} for t in terms]
        docs = set.intersection(*sets) if mode == "and" else set.union(*sets)
        vals = sorted(self.ts[d] for d in docs
                      if d in self.ts and d not in self.deleted)
        out = []
        for v in probes:
            c = sum(1 for x in vals if x <= v)
            rank = math.floor(c / len(vals) * 1e6 + 0.5) if vals else 0
            out.append({"value": v, "count_le": c, "count": len(vals),
                        "rank_e6": rank})
        return out

    def complete(self, prefix: str, k: int = 10) -> list[tuple[str, int]]:
        """Oracle completion suggester: vocabulary terms with the prefix
        ranked (df desc, term asc), first k."""
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        toks = query_terms(prefix)
        p = toks[0] if toks else ""
        if not p:
            return []
        ranked = sorted(((t, len(ps)) for t, ps in self.postings.items()
                         if t.startswith(p)), key=lambda td: (-td[1], td[0]))
        return ranked[:k]

    def search_prefix(self, text: str, k: int = 10) -> list[tuple[int, float]]:
        """Oracle wildcard search: trailing-``*`` tokens expand to every
        vocabulary term with that prefix; union scores as a plain OR."""
        literals, prefixes = parse_prefix_query(text)
        expanded: set[str] = set(literals)
        for p in prefixes:
            expanded.update(t for t in self.postings if t.startswith(p))
        terms = sorted(t for t in expanded if t in self.postings)
        scores: dict[int, float] = defaultdict(float)
        for t in terms:  # ascending term order == engine accumulation order
            idf = bm25_idf(self.n_docs, len(self.postings[t]))
            for d, f in self.postings[t]:
                if d not in self.deleted:
                    scores[d] += self._contrib(idf, f, self.dl[d])
        return sorted(scores.items(), key=lambda kv: (-kv[1], kv[0]))[:k]

    def search(self, text: str, k: int = 10, mode: str = "or",
               role: str | None = None, tool: str | None = None,
               ts_min=None, ts_max=None,
               role_weights: dict[str, float] | None = None,
               exclude: str | None = None,
               boosts: dict[str, float] | None = None,
               ) -> list[tuple[int, float]]:
        """``role``/``tool``/``ts_min``/``ts_max`` restrict the RESULT set
        to matching docs; collection statistics (idf, avgdl, N) stay
        global — standard filtered search semantics, shared with
        QueryEngine.  ``role_weights`` boosts each doc's FINAL score by
        its role's weight (one multiply after accumulation — the same
        arithmetic point as the engine, so ranks stay bitwise-shared).
        ``boosts`` multiplies each TERM's idf once before accumulation
        (Lucene ``term^boost``) — same arithmetic point as the engine."""
        all_terms = query_terms(text)
        terms = [t for t in all_terms if t in self.postings]
        if not terms:
            return []
        if mode == "and":
            if len(terms) != len(all_terms):  # absent term -> empty conjunction
                return []
            cand = None
            for t in terms:
                docs = {d for d, _ in self.postings[t]}
                cand = docs if cand is None else (cand & docs)
            if not cand:
                return []
        banned: set[int] = set()
        if exclude:
            for t in query_terms(exclude):
                banned.update(d for d, _ in self.postings.get(t, ()))
        scores: dict[int, float] = defaultdict(float)
        for t in terms:  # ascending term order == engine accumulation order
            idf = bm25_idf(self.n_docs, len(self.postings[t]))
            if boosts:
                idf = idf * float(boosts.get(t, 1.0))
            for d, f in self.postings[t]:
                if mode == "and" and d not in cand:
                    continue
                if d in banned or not self._passes(d, role, tool, ts_min, ts_max):
                    continue
                scores[d] += self._contrib(idf, f, self.dl[d])
        if role_weights is not None:
            scores = {d: s * float(role_weights.get(
                self.attrs.get(d, ("", ""))[0], 1.0))
                for d, s in scores.items()}
        ranked = sorted(scores.items(), key=lambda kv: (-kv[1], kv[0]))
        return ranked[:k]

    def _field_value(self, doc_id: int, field: str) -> str:
        if field == "conv_id":
            return self.convs.get(doc_id, "")
        if field == "role":
            return self.attrs.get(doc_id, ("", ""))[0]
        if field == "tool":
            return self.attrs.get(doc_id, ("", ""))[1]
        raise ValueError(f"unknown collapse field {field!r}")

    def search_collapse(self, text: str, k: int = 10, field: str = "conv_id",
                        mode: str = "or") -> list[tuple[str, int, float]]:
        """Oracle field collapsing: full ranking, first (= best by score
        desc, doc asc) doc per distinct field value, values ranked by
        their best doc."""
        best: dict[str, tuple[int, float]] = {}
        for d, s in self.search(text, k=max(self.n_docs, 1), mode=mode):
            v = self._field_value(d, field)
            if v not in best:  # hits arrive in (score desc, doc asc) order
                best[v] = (d, s)
        ranked = sorted(best.items(), key=lambda kv: (-kv[1][1], kv[1][0]))
        return [(v, d, s) for v, (d, s) in ranked[:k]]

    def search_grouped(self, text: str, field: str = "role", k: int = 3,
                       mode: str = "or") -> dict[str, list[tuple[int, float]]]:
        """Oracle grouped top hits: per distinct field value, that group's
        top-k docs under the global (score desc, doc asc) order."""
        groups: dict[str, list[tuple[int, float]]] = {}
        for d, s in self.search(text, k=max(self.n_docs, 1), mode=mode):
            g = groups.setdefault(self._field_value(d, field), [])
            if len(g) < k:
                g.append((d, s))
        return dict(sorted(groups.items()))

    def search_boosting(self, positive: str, negative: str, k: int = 10,
                        negative_boost: float = 0.5,
                        mode: str = "or") -> list[tuple[int, float]]:
        """Oracle boosting query (Lucene BoostingQuery / ES ``boosting``):
        candidacy and base scores come from the positive query; docs that
        ALSO contain any negative-query term are DEMOTED — final score
        multiplied by ``negative_boost`` — not excluded.  One multiply
        after accumulation (exact for power-of-two boosts)."""
        if not (0.0 < float(negative_boost) <= 1.0):
            raise ValueError("negative_boost must be in (0, 1]")
        hits = self.search(positive, k=max(self.n_docs, 1), mode=mode)
        neg: set[int] = set()
        for t in query_terms(negative):
            neg.update(d for d, _ in self.postings.get(t, ()))
        scored = [(d, s * float(negative_boost)) if d in neg else (d, s)
                  for d, s in hits]
        return sorted(scored, key=lambda kv: (-kv[1], kv[0]))[:k]

    def search_dismax(self, queries: list[str], k: int = 10,
                      tie_breaker: float = 0.5,
                      mode: str = "or") -> list[tuple[int, float]]:
        """Oracle dis_max (Lucene DisjunctionMaxQuery): per doc, the BEST
        subquery score plus ``tie_breaker`` times the sum of the OTHER
        subqueries' scores, summed in subquery-list order (the max slot is
        the FIRST index achieving it — the tie rule both sides share)."""
        per = [dict(self.search(q, k=max(self.n_docs, 1), mode=mode))
               for q in queries]
        docs: set[int] = set().union(*[set(p) for p in per]) if per else set()
        out = []
        for d in docs:
            ss = [p.get(d, 0.0) for p in per]
            mi = max(range(len(ss)), key=lambda i: ss[i])  # first argmax
            rest = 0.0
            for i, s in enumerate(ss):
                if i != mi:
                    rest += s
            out.append((d, ss[mi] + float(tie_breaker) * rest))
        return sorted(out, key=lambda kv: (-kv[1], kv[0]))[:k]

    def search_phrase_prefix(self, text: str, k: int = 10,
                             max_expansions: int = 50
                             ) -> list[tuple[int, float]]:
        """Oracle match_phrase_prefix (ES): the LAST token is a prefix that
        expands to the first ``max_expansions`` dictionary terms with that
        prefix (term-sorted order); a doc matches iff the fixed terms
        appear adjacently followed by ANY expansion at the next position.
        Scored as BM25 over the distinct FIXED terms only (documented
        variant: the expansion slot gates candidacy, not score — a rare
        expansion's idf can't dominate the ranking).  Needs >= 2 tokens
        (a bare prefix is ``search_prefix``)."""
        phrase = _TOKEN_RE.findall(text.lower())
        if len(phrase) < 2:
            raise ValueError("phrase_prefix needs >= 2 tokens "
                             "(use search_prefix for a bare prefix)")
        fixed, pref = phrase[:-1], phrase[-1]
        exp = sorted(t for t in self.postings
                     if t.startswith(pref))[:max_expansions]
        uniq = sorted(set(fixed))
        if not exp or any(t not in self.postings for t in uniq):
            return []
        cand: set[int] | None = None
        for t in uniq:
            docs = {d for d, _ in self.postings[t]}
            cand = docs if cand is None else (cand & docs)
        es = set(exp)
        n = len(fixed)
        matched = []
        for d in cand or ():
            if d in self.deleted:
                continue
            toks = self.doc_tokens[d]
            if any(toks[i:i + n] == fixed and toks[i + n] in es
                   for i in range(len(toks) - n)):
                matched.append(d)
        scores: dict[int, float] = {d: 0.0 for d in matched}
        for t in uniq:  # ascending-term accumulation, like search_phrase
            idf = bm25_idf(self.n_docs, len(self.postings[t]))
            tfmap = dict(self.postings[t])
            for d in matched:
                scores[d] += self._contrib(idf, tfmap[d], self.dl[d])
        return sorted(scores.items(), key=lambda kv: (-kv[1], kv[0]))[:k]


# ---------------------------------------------------------------------------
# Distributed engine
# ---------------------------------------------------------------------------


class QueryEngine:
    """Scores queries against a built index.  Query-time state (stats, the
    vocab df arrays) loads once; the engine's shards fold into one
    segment (``ShardReader``) on first use, so an actor restart re-mmaps
    lazily (SURVEY.md 7.4) and every query runs one dictionary lookup, one
    decode and one top-k per term set, however many shards it holds."""

    def __init__(self, index_dir: str | Path, shard_subset: list[int] | None = None,
                 cache_postings: int = 0):
        """shard_subset restricts scoring to those shard indices — the
        multi-node serving shape: each actor owns a subset of shards and
        returns its exact local top-k; a tiny global merge combines them
        (doc-partitioned shards make the union of per-subset top-k exact).
        Collection stats and the df table are global regardless.  The
        subset (or every shard) is read as ONE segment, so per-query cost
        follows the query's terms, not the number of shards held.

        cache_postings: the segment's decoded-postings budget, not split
        per shard (~20 B per cached posting incl. local indices); 0
        disables.  The reference memo-caches term lookups the same way
        (HORUS_TERM_SEARCH probe-then-insert, util.py:947-1016); values are
        unchanged — only varint decode + searchsorted are skipped on hot
        terms."""
        if Path(index_dir).is_file():  # alias pointer (pipelines/alias.py)
            from horus_ner_ray.pipelines.alias import resolve_index

            index_dir = resolve_index(index_dir)
        self.paths = IndexPaths(index_dir)
        if (self.paths.root / "resharding.json").exists():
            raise RuntimeError(
                "index is mid-reshard (resharding.json present): the shard "
                "set is incomplete and would silently serve subset results "
                "— re-run reshard_index to finish, then retry")
        self.stats = json.loads(self.paths.stats_json.read_text())
        self.k1 = float(self.stats["k1"])
        self.b = float(self.stats["b"])
        self.avgdl = max(float(self.stats["avgdl"]), 1e-9)
        self.n_docs = int(self.stats["n_docs"])
        t = pq.read_table(self.paths.df_parquet)
        self._vocab = np.asarray(t["term"], dtype=object)  # sorted
        self._df = np.asarray(t["df"], dtype=np.int64)
        self._cf = np.asarray(t["cf"], dtype=np.int64)
        self.total_tokens = int(self.stats["total_tokens"])
        self._shard_dirs = self.paths.published_shards()
        if shard_subset is not None:
            self._shard_dirs = [self._shard_dirs[i] for i in shard_subset]
        self._cache_postings = cache_postings
        self._seg: ShardReader | None = None
        self._attrs: dict[str, np.ndarray] | None = None
        # tombstones (pipelines/delete.py): deleted docs are masked BEFORE
        # top-k in every mode; stats stay stale until compact_index —
        # live-docs semantics, loaded once per engine
        from horus_ner_ray.pipelines.delete import read_tombstones

        self._deleted = read_tombstones(self.paths.root)
        self._live: np.ndarray | None = None  # set when the segment opens
        self.pruned_term_evals = 0  # always 0 (nothing prunes); perfbench still reads it
        self._tv_terms: np.ndarray | None = None  # term vectors (expansion)
        self._tv: np.ndarray | None = None
        self._tv_idx: dict[str, int] = {}
        self._vocab_lens: np.ndarray | None = None  # lazy (fuzzy expansion)

    def set_term_vectors(self, terms, matrix) -> None:
        """Attach term embeddings for query-time neighbor expansion — the
        reference's word2vec ``most_similar`` union (reference:
        src/core/feature_extraction/features.py:224-235: query terms are
        expanded with their nearest embedding neighbors before retrieval).
        ``matrix`` rows are normalized here; cosine = dot thereafter.  The
        table is engine-local state (ship it to serving actors via their
        constructor, the same broadcast-once pattern as the NB scorer)."""
        t = np.asarray(terms, dtype=object)
        m = np.asarray(matrix, dtype=np.float64)
        if len(t) != len(m):
            raise ValueError("terms and matrix row count differ")
        norms = np.linalg.norm(m, axis=1)
        norms[norms == 0] = 1.0
        self._tv_terms = t
        self._tv = m / norms[:, None]
        self._tv_idx = {str(x): i for i, x in enumerate(t)}

    def expand_query_terms(self, terms: list[str], k: int) -> list[str]:
        """Union each query term with its k nearest term-vector neighbors
        (cosine desc, term asc tie-break — deterministic).  Terms without
        a vector pass through unexpanded."""
        if self._tv is None:
            raise ValueError(
                "no term vectors attached; call set_term_vectors first")
        extra: list[str] = []
        for t in terms:
            i = self._tv_idx.get(t)
            if i is None:
                continue
            sims = self._tv @ self._tv[i]
            order = np.lexsort((self._tv_terms.astype(str), -sims))
            n_added = 0
            for j in order:
                if j == i:
                    continue
                extra.append(str(self._tv_terms[j]))
                n_added += 1
                if n_added >= k:
                    break
        return sorted(set(terms) | set(extra))

    def global_df(self, term: str) -> int:
        i = int(np.searchsorted(self._vocab, term))
        if i < len(self._vocab) and self._vocab[i] == term:
            return int(self._df[i])
        return 0

    def global_cf(self, term: str) -> int:
        i = int(np.searchsorted(self._vocab, term))
        if i < len(self._vocab) and self._vocab[i] == term:
            return int(self._cf[i])
        return 0

    def search_lm(self, text: str, k: int = 10, mu: float = 1000.0,
                  mode: str = "or") -> list[tuple[int, float]]:
        """Query-likelihood ranking with Dirichlet smoothing — the
        PLUGGABLE SECOND SIMILARITY (Lucene ships LMDirichletSimilarity
        beside BM25 the same way; Zhai & Lafferty 2001 smoothing): per
        matching query term,
            ln(1 + tf / (mu * P(t|C))) + ln(mu / (dl + mu)),
        P(t|C) = cf_t / total_tokens, summed per doc in ascending-term
        order over float64 (bitwise brute-force parity; ``np.log(1 + x)``
        deliberately, not log1p, so the SQL oracle's ln(1+x) computes the
        identical float).  Unclamped (no per-term floor) — scores may be
        negative; ranking is (score desc, doc_id asc).  Collection
        statistics (cf, total tokens) come from the prebuilt df table and
        stay global; tombstones mask before top-k.  Exhaustive over the segment:
        the same vectorized postings_local pass as match_count."""
        all_terms = query_terms(text)
        terms = [t for t in all_terms if self.global_df(t) > 0]
        if not terms or (mode == "and" and len(terms) != len(all_terms)):
            return []
        need = len(terms) if mode == "and" else 1
        tt = float(self.total_tokens)
        r = self._reader()
        nd = len(r.docids)
        dl = np.asarray(r.dl, dtype=np.float64)
        acc = np.zeros(nd, dtype=np.float64)
        cnt = np.zeros(nd, dtype=np.int64)
        for t in terms:  # ascending-term accumulation (determinism)
            ti = r.term_index(t)
            if ti is None:
                if mode == "and":
                    return []
                continue
            _d, tf, li = r.postings_local(ti)
            p = self.global_cf(t) / tt
            acc[li] += (np.log(1.0 + tf.astype(np.float64) / (mu * p))
                        + np.log(mu / (dl[li] + mu)))
            cnt[li] += 1
        return self._ranked(cnt >= need, acc, k)

    def search_classic(self, text: str, k: int = 10,
                       mode: str = "or") -> list[tuple[int, float]]:
        """Lucene ClassicSimilarity ranking (the vector-space TF-IDF that
        preceded BM25 as Lucene's default; Salton & Buckley SMART
        weights): per matching query term,
            sqrt(tf) * idf^2 / sqrt(dl),  idf = 1 + ln(N / (df + 1)),
        summed per doc over float64 in query-term order (bitwise
        brute-force parity; np.sqrt is IEEE-correctly-rounded everywhere
        and np.log is the shared kernel, per search_lm's precedent).
        queryNorm is dropped — constant per query, rank-neutral.
        Collection statistics (N, df) come from the prebuilt df table and
        stay global; tombstones mask before top-k.  Exhaustive over the segment,
        the same vectorized postings_local pass as search_lm."""
        all_terms = query_terms(text)
        terms = [t for t in all_terms if self.global_df(t) > 0]
        if not terms or (mode == "and" and len(terms) != len(all_terms)):
            return []
        need = len(terms) if mode == "and" else 1
        n = float(self.n_docs)
        r = self._reader()
        nd = len(r.docids)
        dl = np.asarray(r.dl, dtype=np.float64)
        acc = np.zeros(nd, dtype=np.float64)
        cnt = np.zeros(nd, dtype=np.int64)
        for t in terms:  # same term order as the brute oracle
            ti = r.term_index(t)
            if ti is None:
                if mode == "and":
                    return []
                continue
            _d, tf, li = r.postings_local(ti)
            idf = float(1.0 + np.log(n / (self.global_df(t) + 1.0)))
            acc[li] += (np.sqrt(tf.astype(np.float64)) * (idf * idf)
                        / np.sqrt(dl[li]))
            cnt[li] += 1
        return self._ranked(cnt >= need, acc, k)

    def _ranked(self, hit: np.ndarray, acc: np.ndarray,
                k: int) -> list[tuple[int, float]]:
        """Top-k (doc, score) of the segment's live docs where ``hit``,
        ranked (score desc, doc_id asc)."""
        lm = self._live_mask()
        if lm is not None:
            hit = hit & lm
        idx = np.flatnonzero(hit)
        d, s = _topk_with_ties(self._reader().docids[idx], acc[idx], k)
        return [(int(x), float(y)) for x, y in zip(d, s)]

    def lm_scores(self, text: str, doc_ids,
                  mu: float = 1000.0) -> dict[int, float]:
        """Dirichlet query-likelihood scores for SPECIFIC docs — the
        rescore window's second-phase scorer.  Only the window members
        resident in this engine's segment accumulate (one postings_local
        searchsorted per term); the expression, np.log kernel and
        ascending-term order are exactly search_lm's, so a doc's score
        here is bitwise the score search_lm would give it.  Docs
        containing no query term stay 0.0 (search_lm's match-only
        semantics); callers pass a window that came from a live search,
        so tombstones are already excluded."""
        terms = [t for t in query_terms(text) if self.global_df(t) > 0]
        ids = np.asarray(sorted({int(d) for d in doc_ids}), dtype=np.int64)
        out = {int(d): 0.0 for d in ids}
        if not len(ids) or not terms:
            return out
        tt = float(self.total_tokens)
        r = self._reader()
        mem = self._resident(ids)
        if not mem.any():
            return out
        wdocs = ids[mem]
        dlw = r.doc_length(wdocs).astype(np.float64)
        acc = np.zeros(len(wdocs), dtype=np.float64)
        for t in terms:  # ascending-term accumulation (determinism)
            ti = r.term_index(t)
            if ti is None:
                continue
            d_arr, tf, _li = r.postings_local(ti)
            j = np.minimum(np.searchsorted(d_arr, wdocs), len(d_arr) - 1)
            ok = d_arr[j] == wdocs
            if not ok.any():
                continue
            p = self.global_cf(t) / tt
            tfv = tf[j[ok]].astype(np.float64)
            acc[ok] += (np.log(1.0 + tfv / (mu * p))
                        + np.log(mu / (dlw[ok] + mu)))
        for d, s in zip(wdocs, acc):
            out[int(d)] = float(s)
        return out

    def _resident(self, ids: np.ndarray) -> np.ndarray:
        """Which of the sorted doc ids ``ids`` this engine's segment holds."""
        docids = self._reader().docids
        if not len(docids):
            return np.zeros(len(ids), dtype=bool)
        pos = np.minimum(np.searchsorted(docids, ids), len(docids) - 1)
        return docids[pos] == ids

    def rescore_lm(self, text: str, k: int = 10, window: int = 50,
                   mu: float = 1000.0) -> list[tuple[int, float]]:
        """Two-phase rescoring (Lucene Rescorer / the ES rescore window):
        phase 1 takes the BM25 top-``window`` (cheap, prunable); phase 2
        rescores ONLY those candidates with the Dirichlet
        query-likelihood similarity and reranks by (LM score desc,
        doc_id asc).  The expensive similarity touches ``window`` docs
        instead of the match set — the standard shape for costly
        second-phase scorers.  Bitwise rank-identical to the brute-force
        oracle (shared window rule + shared LM kernel)."""
        win = self.search(text, k=window)
        if not win:
            return []
        sc = self.lm_scores(text, [d for d, _ in win], mu=mu)
        return sorted(sc.items(), key=lambda kv: (-kv[1], kv[0]))[:k]

    def search_fused(self, text: str, k: int = 10, window: int = 50,
                     k_rrf: int = 60,
                     mu: float = 1000.0) -> list[tuple[int, int]]:
        """Hybrid ranking (the ES/Lucene RRF retriever): fuse the BM25
        and Dirichlet-QL rankings by reciprocal rank through the shared
        ``rrf_fuse`` rule — both phase rankings are the engine's bitwise
        brute-parity rankings, the fusion itself is exact integer
        arithmetic, so the fused list is rank-identical to
        ``BruteForceBM25.search_fused`` end to end.  Returns (doc_id,
        integer rrf score)."""
        pad = window * 3 + 20
        return rrf_fuse(
            [self.search(text, k=pad), self.search_lm(text, k=pad, mu=mu)],
            k=k, window=window)

    def search_diverse(self, text: str, k: int = 10, pool_n: int = 15,
                       lam10: int = 7, mode: str = "or") -> list[int]:
        """MMR result diversification (Carbonell & Goldstein; Lucene's
        diversified-top-docs shape): the e6-reranked BM25 top-``pool_n``
        re-orders greedily by ``lam10/10 * rank-relevance - (1 -
        lam10/10) * max-Jaccard-to-selected`` through the shared exact-
        integer ``mmr_select`` rule.  Candidate token sets come from the
        stored forward stream (``term_vector``), which reproduces the
        shared tokenizer rule exactly — so the whole selection is
        deterministic integer arithmetic and exact-rank identical to
        ``BruteForceBM25.search_diverse``.  The pool stays tiny
        (``pool_n`` docs), so diversification costs ``pool_n`` point
        reads regardless of corpus size."""
        hits = self.search(text, k=pool_n * 3 + 20, mode=mode)
        order = sorted(
            ((-(math.floor(s * 1e6 + 0.5)), d) for d, s in hits))[:pool_n]
        docs = [d for _s, d in order]
        toksets = {d: {t for t, _tf, _df in self.term_vector(d)}
                   for d in docs}
        return mmr_select(docs, toksets, k, pool_n, lam10)

    def expand_prefix(self, prefix: str) -> list[str]:
        """All dictionary terms starting with ``prefix`` (sorted) — one
        binary-search range over the sorted global vocab, no scan.  The
        token alphabet is [a-z0-9], so bumping the last codepoint gives an
        exact exclusive upper bound."""
        if not prefix:
            return []
        lo = int(np.searchsorted(self._vocab, prefix))
        hi = int(np.searchsorted(
            self._vocab, prefix[:-1] + chr(ord(prefix[-1]) + 1)))
        return [str(t) for t in self._vocab[lo:hi]]

    def complete(self, prefix: str, k: int = 10) -> list[tuple[str, int]]:
        """Completion suggester (ES completion / Lucene suggest-on-
        prefix): the dictionary terms starting with ``prefix`` ranked
        (df desc, term asc), first ``k`` — popularity-ordered
        autocomplete straight off the sorted global vocab (one binary-
        search range + a k-bounded sort; dictionary state is global, so
        any single serving actor answers exactly)."""
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        terms = self.expand_prefix(query_terms(prefix)[0]
                                   if query_terms(prefix) else "")
        ranked = sorted(((t, self.global_df(t)) for t in terms),
                        key=lambda td: (-td[1], td[0]))
        return ranked[:k]

    def expand_fuzzy(self, term: str, max_dist: int = 1,
                     transpositions: bool = False) -> list[str]:
        """Dictionary terms within edit ``max_dist`` of ``term`` (the
        'did you mean' expansion; includes the term itself when
        present): length-banded vocab scan (+-max_dist lengths only) +
        the pair-axis-vectorized DP of ``stages/fuzzy``.
        ``transpositions=True`` uses the OSA metric — adjacent swap is
        ONE edit (Lucene FuzzyQuery(transpositions=true)); the length
        band is unchanged (a transposition preserves length)."""
        from horus_ner_ray.stages.fuzzy import (levenshtein_distances,
                                                osa_distances)

        dist_fn = osa_distances if transpositions else levenshtein_distances
        if self._vocab_lens is None:
            self._vocab_lens = np.array([len(str(t)) for t in self._vocab],
                                        dtype=np.int64)
        cand = self._vocab[np.abs(self._vocab_lens - len(term)) <= max_dist]
        if len(cand) == 0:
            return []
        d = dist_fn(
            np.full(len(cand), term, dtype=object), cand.astype(str))
        return sorted(str(t) for t in cand[d <= max_dist])

    def expand_contains(self, sub: str) -> list[str]:
        """Dictionary terms containing ``sub`` (infix wildcard *sub*): a
        LINEAR vocab scan — O(|vocab|) per call by nature (no sorted-range
        shortcut exists for infix), vectorized via np.char.find."""
        if not sub:
            return []
        hit = np.char.find(self._vocab.astype(str), sub) >= 0
        return sorted(str(t) for t in self._vocab[hit])

    def search_fuzzy(self, text: str, k: int = 10, max_dist: int = 1,
                     transpositions: bool = False) -> list[tuple[int, float]]:
        """Typo-tolerant search: each query token expands to its
        edit-distance-``max_dist`` dictionary neighborhood; the union
        scores as a plain OR query (same arithmetic as ``search``).
        ``transpositions=True`` counts an adjacent swap as one edit
        (OSA metric, Lucene's fuzzy default)."""
        terms: set[str] = set()
        for t in query_terms(text):
            terms.update(self.expand_fuzzy(t, max_dist, transpositions))
        return self._search_terms(sorted(terms), k)

    def search_contains(self, text: str, k: int = 10) -> list[tuple[int, float]]:
        """Infix-wildcard search: every whitespace token is treated as a
        *token* substring pattern; expansions union and score as OR."""
        terms: set[str] = set()
        for sub in query_terms(text):
            terms.update(self.expand_contains(sub))
        return self._search_terms(sorted(terms), k)

    def search_synonyms(self, text: str, synonyms: dict[str, list[str]],
                        k: int = 10) -> list[tuple[int, float]]:
        """Query-time synonym expansion (Lucene's SynonymGraphFilter
        applied at query time — the index stays untouched): each query
        term unions with its mapped synonyms under set semantics and the
        expanded set scores as a plain OR query (ascending-term
        accumulation, bitwise oracle-identical).  The map is request
        state — for a serving pool, ship it once per actor like the
        term-vector table (set_term_vectors pattern); map values are
        tokenized by the shared rule, so multi-word entries contribute
        each token."""
        base = query_terms(text)
        expanded: set[str] = set(base)
        for t in base:
            expanded.update(query_terms(" ".join(synonyms.get(t, ()))))
        return self._search_terms(sorted(expanded), k)

    def search_regex(self, pattern_text: str,
                     k: int = 10) -> list[tuple[int, float]]:
        """Regexp term query (Lucene RegexpQuery): each
        whitespace-separated pattern expands to every dictionary term it
        FULLY matches (anchored, like Lucene — ``cust.*`` matches
        customer, ``art`` matches only the exact term); the union scores
        as a plain OR query.  A linear vocab scan per pattern by nature
        (no sorted-range shortcut for general regexes — same cost class
        as infix), vectorized via pandas' C-loop fullmatch.  Patterns
        must stay inside the RE2 subset (no backrefs/lookaround) so the
        DuckDB oracle's regexp_full_match agrees."""
        sel: set[str] = set()
        vs = pd.Series(self._vocab, dtype=object)
        for p in pattern_text.split():
            m = vs.str.fullmatch(p).to_numpy(dtype=bool)
            sel.update(str(t) for t in self._vocab[m])
        return self._search_terms(sorted(sel), k)

    def search_wildcard(self, pattern_text: str,
                        k: int = 10) -> list[tuple[int, float]]:
        """Wildcard term query (Lucene WildcardQuery / ES wildcard):
        ``*`` matches any run (including empty), ``?`` exactly one
        character, everything else literal — each whitespace-separated
        pattern expands over the dictionary through the shared
        ``wildcard_to_regex`` translation and the union scores as a
        plain OR.  Same linear-vocab-scan cost class as regex/infix
        (a leading literal could use the sorted-range shortcut; kept
        uniform for simplicity).  The SQL oracle expresses the SAME
        language with LIKE (``*``->``%``, ``?``->``_``; the [a-z0-9]+
        dictionary contains no LIKE metacharacters)."""
        sel: set[str] = set()
        vs = pd.Series(self._vocab, dtype=object)
        for p in pattern_text.split():
            m = vs.str.fullmatch(wildcard_to_regex(p)).to_numpy(dtype=bool)
            sel.update(str(t) for t in self._vocab[m])
        return self._search_terms(sorted(sel), k)

    def field_stats(self, text: str, field: str = "ts",
                    mode: str = "or") -> dict[str, int]:
        """Match-set statistics on a stored integer attribute (the
        engine's stats aggregation): count / min / max / floor-mean of
        ``field`` over the live docs matching the query; docs without the
        attribute are excluded from ALL four numbers.  Exact integer
        arithmetic (Python ints for the sum — no float drift, no int64
        overflow at corpus scale), so the SQL oracle compares exactly."""
        all_terms = query_terms(text)
        terms = [t for t in all_terms if self.global_df(t) > 0]
        if not terms or (mode == "and" and len(terms) != len(all_terms)):
            return {"count": 0, "min": 0, "max": 0, "avg": 0, "sum": 0}
        need = len(terms) if mode == "and" else 1
        sentinel = np.iinfo(np.int64).min
        total = 0
        vmin: int | None = None
        vmax: int | None = None
        vsum = 0
        if len(self._reader().docids):
            vals = self._doc_attrs().get(field)
            if vals is None:
                raise ValueError(
                    f"index docstore has no '{field}' column")
            if not np.issubdtype(vals.dtype, np.integer):
                raise ValueError(f"'{field}' is not an integer attribute")
            v = vals[self._match_mask(terms, need) & (vals != sentinel)]
            if len(v):
                total = int(len(v))
                vmin, vmax = int(v.min()), int(v.max())
                vsum = int(v.astype(object).sum())  # exact (Python ints)
        if total == 0:
            return {"count": 0, "min": 0, "max": 0, "avg": 0, "sum": 0}
        return {"count": total, "min": vmin, "max": vmax,
                "avg": vsum // total, "sum": vsum}

    def _field_hist(self, text: str, field: str, mode: str,
                    lo: int, hi: int,
                    n_buckets: int) -> tuple[np.ndarray, int]:
        """One percentile-refinement round: match-set values in [lo, hi]
        bucketed by integer width w = ceil((hi-lo+1)/n_buckets); returns
        (counts, w).  Plain-sum mergeable — the ScorerActor exposes it as
        the pool's partial."""
        all_terms = query_terms(text)
        terms = [t for t in all_terms if self.global_df(t) > 0]
        need = len(terms) if mode == "and" else 1
        w = (hi - lo + n_buckets) // n_buckets
        nb = (hi - lo) // w + 1
        counts = np.zeros(nb, dtype=np.int64)
        sentinel = np.iinfo(np.int64).min
        if len(self._reader().docids):
            vals = self._doc_attrs().get(field)
            v = vals[self._match_mask(terms, need) & (vals != sentinel)]
            v = v[(v >= lo) & (v <= hi)]
            counts += np.bincount((v - lo) // w, minlength=nb)
        return counts, w

    def adjacency_matrix(self, filters: dict[str, str]
                         ) -> list[tuple[str, str, int]]:
        """ES ``adjacency_matrix`` aggregation: for named term-query
        filters, the live-doc count of every pairwise INTERSECTION
        (including each filter's own count on the diagonal), rows
        (name_a, name_b, count) with name_a <= name_b, sorted.  Per
        shard each filter's doc set decodes once (postings union) and
        pairs intersect with np.intersect1d — counts sum exactly across
        shards (doc-partitioned), so the pool scatter is mergeable."""
        names = sorted(filters)
        if not names:
            raise ValueError("filters must be non-empty")
        counts: dict[tuple[str, str], int] = {
            (a, b): 0 for i, a in enumerate(names) for b in names[i:]}
        r = self._reader()
        lm = self._live_mask()
        sets: dict[str, np.ndarray] = {}
        for name in names:
            parts = [np.zeros(0, dtype=np.int64)]
            for t in query_terms(filters[name]):
                ti = r.term_index(t)
                if ti is not None:
                    parts.append(r.postings(ti)[0])
            ds_ = np.unique(np.concatenate(parts))
            if lm is not None:
                ds_ = ds_[lm[np.searchsorted(r.docids, ds_)]]
            sets[name] = ds_
        for i, a in enumerate(names):
            for b in names[i:]:
                if a == b:
                    counts[(a, b)] += len(sets[a])
                else:
                    counts[(a, b)] += len(np.intersect1d(
                        sets[a], sets[b], assume_unique=True))
        return [(a, b, counts[(a, b)])
                for i, a in enumerate(names) for b in names[i:]]

    def field_percentile_ranks(self, text: str, values,
                               field: str = "ts",
                               mode: str = "or") -> list[dict]:
        """ES ``percentile_ranks`` aggregation, EXACT: for each probe
        value v, the fraction of the match set's stored attribute <= v,
        published as rank_e6 = floor(count(val <= v) / count * 1e6 + 0.5)
        (inclusive CDF — percent_rank of the value, the inverse of
        field_percentile).  One pass per engine: the match-set values
        never leave their serving actor, only a len(values)-sized count vector
        merges."""
        all_terms = query_terms(text)
        terms = [t for t in all_terms if self.global_df(t) > 0]
        probes = [int(v) for v in values]
        if not probes:
            raise ValueError("values must be non-empty")
        if not terms or (mode == "and" and len(terms) != len(all_terms)):
            return [{"value": v, "count_le": 0, "count": 0, "rank_e6": 0}
                    for v in probes]
        need = len(terms) if mode == "and" else 1
        sentinel = np.iinfo(np.int64).min
        le = np.zeros(len(probes), dtype=object)
        total = 0
        parr = np.asarray(probes, dtype=np.int64)
        if len(self._reader().docids):
            vals = self._doc_attrs().get(field)
            if vals is None:
                raise ValueError(f"index docstore has no '{field}' column")
            v = np.sort(vals[self._match_mask(terms, need) & (vals != sentinel)])
            total = int(len(v))
            le += np.searchsorted(v, parr, side="right")
        out = []
        for v, c in zip(probes, le):
            rank = (math.floor(int(c) / total * 1e6 + 0.5)
                    if total else 0)
            out.append({"value": v, "count_le": int(c), "count": total,
                        "rank_e6": rank})
        return out

    def field_percentile(self, text: str, q: float = 0.5,
                         field: str = "ts", mode: str = "or",
                         n_buckets: int = 1024) -> dict[str, int]:
        """EXACT percentile of a stored integer attribute over the match
        set (the ES percentiles aggregation, exact instead of t-digest):
        percentile_disc semantics — the k-th smallest with
        k = ceil(q * n).  Distributed histogram refinement: each round
        buckets the candidate value range into <= n_buckets integer-width
        cells (one mergeable count vector per shard/actor), descends into
        the cell holding the k-th value, terminates at cell width 1 —
        log_B(range) rounds, histogram-sized payloads; the match-set
        VALUES never leave their shards (the corpus-level shape of
        stages/quantiles, applied at query time)."""
        if not (0.0 < q <= 1.0):
            raise ValueError(f"q must be in (0, 1], got {q}")
        st = self.field_stats(text, field=field, mode=mode)
        return _percentile_refine(
            st, q,
            lambda lo, hi: self._field_hist(text, field, mode, lo, hi,
                                            n_buckets))

    def search_prefix(self, text: str, k: int = 10) -> list[tuple[int, float]]:
        """Wildcard search: tokens ending in ``*`` expand to every
        dictionary term with that prefix (trailing-wildcard syntax, the
        classic fulltext-engine feature); literals and expansions union
        under set semantics and score as a plain OR query — same
        arithmetic, ascending-term accumulation, so ranks stay bitwise
        oracle-identical."""
        literals, prefixes = parse_prefix_query(text)
        expanded: set[str] = set(literals)
        for p in prefixes:
            expanded.update(self.expand_prefix(p))
        return self._search_terms(sorted(expanded), k)

    def _vocab_stems(self) -> np.ndarray:
        """S-stem of every dictionary term, computed once per engine with
        vectorized pandas string kernels (masks mirror the sequential
        rule order of ``s_stem`` exactly)."""
        cached = getattr(self, "_stems_cache", None)
        if cached is None:
            vs = pd.Series(self._vocab, dtype=object).astype(str)
            m1 = (vs.str.endswith("ies") & ~vs.str.endswith("eies")
                  & ~vs.str.endswith("aies"))
            m2 = (~m1 & vs.str.endswith("es") & ~vs.str.endswith("aes")
                  & ~vs.str.endswith("ees") & ~vs.str.endswith("oes"))
            m3 = (~m1 & ~m2 & vs.str.endswith("s") & ~vs.str.endswith("us")
                  & ~vs.str.endswith("ss"))
            st = vs.copy()
            st[m1] = vs[m1].str[:-3] + "y"
            st[m2] = vs[m2].str[:-1]
            st[m3] = vs[m3].str[:-1]
            cached = st.to_numpy(object)
            self._stems_cache = cached
        return cached

    def search_stemmed(self, text: str, k: int = 10) -> list[tuple[int, float]]:
        """Stem-expansion search (query-time stemming over an unstemmed
        index — Lucene's analyzer-at-query-time pattern without reindex):
        each query term's S-stem selects every dictionary term sharing
        that stem; the union scores as a plain OR query (ascending-term
        accumulation, bitwise oracle-identical).  The vocab stem table is
        engine state, computed once (``_vocab_stems``)."""
        qstems = {s_stem(t) for t in query_terms(text)}
        if not qstems:
            return []
        stems = self._vocab_stems()
        hit = pd.Series(stems, dtype=object).isin(qstems).to_numpy(bool)
        return self._search_terms(
            sorted(str(t) for t in self._vocab[hit]), k)

    def search_span_first(self, text: str, k: int = 10,
                          first_n: int = 8) -> list[tuple[int, float]]:
        """Span-first search (Lucene SpanFirstQuery as a filter): the
        match set is restricted to docs where SOME query term occurs
        within the first ``first_n`` token positions (first occurrence
        straight from the positional index — per-doc position lists are
        ascending, so one gather per term suffices); survivors score as
        plain OR over full term frequencies.  Mask before top-k, stats
        global — the field-filter contract.  Requires
        cfg.with_positions."""
        terms = sorted({t for t in query_terms(text)
                        if self.global_df(t) > 0})
        if not terms or first_n <= 0:
            return []
        idfs = {t: bm25_idf(self.n_docs, self.global_df(t)) for t in terms}
        scores: dict[int, float] = {}
        r = self._reader()
        dec: dict[str, tuple[np.ndarray, np.ndarray]] = {}
        cand_parts: list[np.ndarray] = []
        for t in terms:
            ti = r.term_index(t)
            if ti is None:
                continue
            d_arr, tf_arr = r.postings(ti)
            if len(d_arr) == 0:
                continue
            dec[t] = (d_arr, tf_arr)
            flat, offs = r.positions(ti, tf_arr)
            firsts = flat[offs[:len(d_arr)]]
            sel = d_arr[firsts < first_n]
            if len(sel):
                cand_parts.append(sel)
        if not cand_parts:
            return []
        cand = np.unique(np.concatenate(cand_parts))
        lm = self._live_mask()
        if lm is not None:
            docids = np.asarray(r.docids)
            cand = cand[lm[np.searchsorted(docids, cand)]]
            if len(cand) == 0:
                return []
        dls = r.doc_length(cand).astype(np.float64)
        acc = np.zeros(len(cand), dtype=np.float64)
        for t in terms:  # ascending-term accumulation (determinism)
            if t not in dec:
                continue
            d_arr, tf_arr = dec[t]
            jj = np.minimum(np.searchsorted(d_arr, cand), len(d_arr) - 1)
            ok = d_arr[jj] == cand
            if not ok.any():
                continue
            tff = tf_arr[jj].astype(np.float64)
            denom = tff + self.k1 * (
                1.0 - self.b + self.b * dls / self.avgdl)
            contrib = idfs[t] * (tff * (self.k1 + 1.0)) / denom
            acc[ok] += contrib[ok]
        for doc, s in zip(cand, acc):
            scores[int(doc)] = float(s)
        return sorted(scores.items(), key=lambda kv: (-kv[1], kv[0]))[:k]

    def search_span_not(self, text: str, not_text: str, k: int = 10,
                        dist: int = 2) -> list[tuple[int, float]]:
        """Span-not search (Lucene SpanNotQuery with pre/post slop): a doc
        matches iff SOME query-term occurrence has NO ``not_text``-term
        occurrence within ``dist`` token positions — "A away from B", the
        positional complement of search_near.  Survivors score as plain
        OR over the query terms (mask before top-k, stats global — the
        field-filter contract).  Absent exclusion terms exclude nothing.
        Vectorized: A and B occurrences encode as (cand << 32) | pos
        composite keys and each A key probes its two B neighbors with one
        searchsorted.  Requires cfg.with_positions."""
        terms = sorted({t for t in query_terms(text)
                        if self.global_df(t) > 0})
        nterms = sorted({t for t in query_terms(not_text)
                         if self.global_df(t) > 0})
        if not terms:
            return []
        if dist < 0:
            raise ValueError(f"dist must be >= 0, got {dist}")
        idfs = {t: bm25_idf(self.n_docs, self.global_df(t)) for t in terms}
        scores: dict[int, float] = {}
        from horus_ner_ray.pipelines.build_index import gather_segments

        r = self._reader()
        dec: dict[str, tuple[np.ndarray, np.ndarray]] = {}
        cand_parts: list[np.ndarray] = []
        for t in terms:
            ti = r.term_index(t)
            if ti is None:
                continue
            d_arr, tf_arr = r.postings(ti)
            if len(d_arr) == 0:
                continue
            dec[t] = (d_arr, tf_arr)
            cand_parts.append(d_arr)
        if not cand_parts:
            return []
        cand = np.unique(np.concatenate(cand_parts))
        lm = self._live_mask()
        if lm is not None:
            docids = np.asarray(r.docids)
            cand = cand[lm[np.searchsorted(docids, cand)]]
            if len(cand) == 0:
                return []

        def _keys(term_list, decoded_only):
            parts = []
            for t in term_list:
                if decoded_only and t in dec:
                    d_arr, tf_arr = dec[t]
                    ti = r.term_index(t)
                else:
                    ti = r.term_index(t)
                    if ti is None:
                        continue
                    d_arr, tf_arr = r.postings(ti)
                    if len(d_arr) == 0:
                        continue
                idx = np.searchsorted(d_arr, cand)
                idx_c = np.minimum(idx, len(d_arr) - 1)
                present = np.flatnonzero(d_arr[idx_c] == cand)
                if len(present) == 0:
                    continue
                j_arr = idx_c[present]
                flat, offs = r.positions(ti, tf_arr)
                seg = gather_segments(flat.astype(np.int64), offs, j_arr)
                lens = (offs[j_arr + 1] - offs[j_arr]).astype(np.int64)
                cidx = np.repeat(present.astype(np.int64), lens)
                parts.append((cidx << np.int64(32)) | seg)
            if not parts:
                return np.zeros(0, dtype=np.int64)
            return np.unique(np.concatenate(parts))

        akeys = _keys(terms, True)
        if len(akeys) == 0:
            return []
        bkeys = _keys(nterms, False) if nterms else np.zeros(
            0, dtype=np.int64)
        if len(bkeys) == 0:
            keep = np.ones(len(akeys), dtype=bool)
        else:
            ins = np.searchsorted(bkeys, akeys)
            ac, ap = akeys >> np.int64(32), akeys & np.int64(0xFFFFFFFF)
            near = np.zeros(len(akeys), dtype=bool)
            for nb in (ins - 1, ins):  # left and right B neighbor
                nb_c = np.clip(nb, 0, len(bkeys) - 1)
                bc = bkeys[nb_c] >> np.int64(32)
                bp = bkeys[nb_c] & np.int64(0xFFFFFFFF)
                valid = (nb >= 0) & (nb < len(bkeys)) & (bc == ac)
                near |= valid & (np.abs(bp - ap) <= dist)
            keep = ~near
        marr = cand[np.unique(akeys[keep] >> np.int64(32))]
        if len(marr) == 0:
            return []
        dls = r.doc_length(marr).astype(np.float64)
        acc = np.zeros(len(marr), dtype=np.float64)
        for t in terms:  # ascending-term accumulation (determinism)
            if t not in dec:
                continue
            d_arr, tf_arr = dec[t]
            jj = np.minimum(np.searchsorted(d_arr, marr), len(d_arr) - 1)
            ok = d_arr[jj] == marr
            if not ok.any():
                continue
            tff = tf_arr[jj].astype(np.float64)
            denom = tff + self.k1 * (
                1.0 - self.b + self.b * dls / self.avgdl)
            contrib = idfs[t] * (tff * (self.k1 + 1.0)) / denom
            acc[ok] += contrib[ok]
        for doc, s in zip(marr, acc):
            scores[int(doc)] = float(s)
        return sorted(scores.items(), key=lambda kv: (-kv[1], kv[0]))[:k]

    def _search_terms(self, terms: list[str],
                      k: int) -> list[tuple[int, float]]:
        """OR-mode scoring of an explicit sorted term list (the shared tail
        of wildcard expansion and more-like-this)."""
        terms = [t for t in terms if self.global_df(t) > 0]
        if not terms:
            return []
        idfs = [bm25_idf(self.n_docs, self.global_df(t)) for t in terms]
        d, s = self._score_shard_or(terms, idfs, k, mask=self._live_mask())
        return [(int(x), float(y)) for x, y in zip(d, s)]

    def more_like_this(self, doc_id: int, k: int = 10,
                       m_terms: int = 5) -> list[tuple[int, float]]:
        """Query-by-example: the source doc's ``m_terms`` highest
        tf*ln(N/df) terms (weight desc, term asc tie-break) become a plain
        OR query; the source doc itself is dropped from the ranking.  One
        docstore point-read for the forward lookup (doc-sorted parts,
        row-group-pruned), then the standard shard scoring."""
        row = fetch_docs(self.paths.root, [int(doc_id)],
                         columns=["doc_id", "text"])
        if len(row) == 0:
            return []
        toks = _TOKEN_RE.findall(str(row["text"].iloc[0]).lower())
        tf: dict[str, int] = {}
        for t in toks:
            tf[t] = tf.get(t, 0) + 1
        weighted = []
        for t, f in tf.items():
            df = self.global_df(t)
            if df > 0:
                weighted.append((-f * math.log(self.n_docs / df), t))
        weighted.sort()
        sel = sorted(t for _w, t in weighted[:m_terms])
        hits = self._search_terms(sel, k + 1)
        return [(d, s) for d, s in hits if d != int(doc_id)][:k]

    def term_vector(self, doc_id: int) -> list[tuple[str, int, int]]:
        """Term-vectors API (the ES ``termvectors`` route): one doc's
        (term, tf, global df) rows, term-ascending.  tf counts the
        UNFILTERED stored token stream (one docstore point-read under
        the shared tokenizer rule); df comes from the dictionary, so a
        term filtered out at build time (stopword builds) reports df=0
        — callers see both what the doc says and what the index knows."""
        row = fetch_docs(self.paths.root, [int(doc_id)],
                         columns=["doc_id", "text"])
        if len(row) == 0:
            return []
        toks = _TOKEN_RE.findall(str(row["text"].iloc[0]).lower())
        tf: dict[str, int] = {}
        for t in toks:
            tf[t] = tf.get(t, 0) + 1
        return [(t, f, self.global_df(t)) for t, f in sorted(tf.items())]

    def suggest(self, word: str, k: int = 5,
                max_dist: int = 2) -> list[tuple[str, int, int]]:
        """Spell suggestion ('did you mean'): dictionary terms within
        Levenshtein ``max_dist`` of ``word`` (the word itself excluded),
        ranked by (edit distance asc, df desc, term asc) — Lucene
        DirectSpellChecker's contract: popularity breaks distance ties.
        Length-banded vocab scan (|len(term) - len(word)| <= max_dist
        candidates only) + the pair-axis-vectorized DP of ``stages/fuzzy``;
        the ranking keys are all integers, so it is deterministic and
        SQL-oracle-checkable against DuckDB's native levenshtein().
        Returns (term, distance, df) rows.  Dictionary state only — no
        postings decode, no doc access; identical in every serving actor
        regardless of shard subset (stats/df are global)."""
        from horus_ner_ray.stages.fuzzy import levenshtein_distances

        w = word.lower()
        if not w:  # an empty probe would "suggest" every short term
            return []
        if self._vocab_lens is None:
            self._vocab_lens = np.array([len(str(t)) for t in self._vocab],
                                        dtype=np.int64)
        idx = np.flatnonzero(np.abs(self._vocab_lens - len(w)) <= max_dist)
        if len(idx) == 0:
            return []
        cand = self._vocab[idx].astype(str)
        d = levenshtein_distances(np.full(len(cand), w, dtype=object), cand)
        keep = (d <= max_dist) & (cand != w)
        cand, d, dfs = cand[keep], d[keep], self._df[idx[keep]]
        order = np.lexsort((cand, -dfs, d))[:k]
        return [(str(cand[i]), int(d[i]), int(dfs[i])) for i in order]

    def correct_query_terms(self, text: str, max_dist: int = 2) -> list[str]:
        """'Did you mean' query rewrite: every query term ABSENT from the
        dictionary is replaced by its best spell suggestion (the
        ``suggest`` contract: distance asc, df desc, term asc — Lucene
        DirectSpellChecker); absent terms with an empty neighborhood drop
        out, present terms pass through.  Returns the corrected DISTINCT
        sorted term set (the OR-query currency).  Dictionary state only —
        deterministic, identical in every serving actor."""
        out: set[str] = set()
        for t in query_terms(text):
            if self.global_df(t) > 0:
                out.add(t)
            else:
                s = self.suggest(t, k=1, max_dist=max_dist)
                if s:
                    out.add(s[0][0])
        return sorted(out)

    def search_corrected(self, text: str, k: int = 10, max_dist: int = 2,
                         ) -> tuple[list[str], list[tuple[int, float]]]:
        """'Did you mean' search: rewrite absent terms via
        ``correct_query_terms``, then run the plain OR search over the
        corrected set.  Returns (corrected terms, hits) so callers can
        surface the rewrite; bitwise rank-identical to the brute oracle
        (shared rewrite rule + shared scorer)."""
        terms = self.correct_query_terms(text, max_dist)
        if not terms:
            return terms, []
        return terms, self.search(" ".join(terms), k=k)

    def search_relaxed(self, text: str, k: int = 10, max_dist: int = 2,
                       ) -> tuple[str, list[tuple[int, float]]]:
        """Zero-results relaxation cascade (the search-UX staple): the
        strict conjunctive query first, relax to disjunctive when it
        matches nothing, fall back to the 'did you mean' corrected query
        when even OR is empty.  Returns (tier, hits), tier in {'and',
        'or', 'corrected'} — each leg is deterministic, so the cascade
        itself is SQL-checkable (the bm25_relaxed oracle re-derives all
        three rankings and picks the first non-empty tier)."""
        hits = self.search(text, k=k, mode="and")
        if hits:
            return "and", hits
        hits = self.search(text, k=k, mode="or")
        if hits:
            return "or", hits
        _terms, hits = self.search_corrected(text, k=k, max_dist=max_dist)
        return "corrected", hits

    def search_snippets(self, text: str, k: int = 10,
                        window: int = 3) -> list[tuple[int, float, str]]:
        """Top-k with token-window snippets: each hit carries
        ``snippet_text`` around its anchor — the smallest position of any
        query term, straight from the POSITIONAL index (match_anchors) —
        so the snippet is the unfiltered token window the phrase machinery
        coordinates in.  One docstore point-read for the k hit texts
        (request-sized); requires cfg.with_positions.  Scores and ranks
        are the unmodified ``search`` output (bitwise oracle-identical)."""
        hits = self.search(text, k)
        if not hits:
            return []
        ids = [d for d, _ in hits]
        anchors = self.match_anchors(text, ids)
        rows = fetch_docs(self.paths.root, ids, columns=["doc_id", "text"])
        tmap = {int(d): str(t) for d, t in zip(rows["doc_id"], rows["text"])}
        # every OR-mode hit contains >= 1 query term, so an anchor exists
        return [(d, s, snippet_text(tmap[d], anchors[d], window))
                for d, s in hits]

    def significant_terms(self, doc_ids, k: int = 10, min_fg: int = 2,
                          exclude: tuple[str, ...] = ()
                          ) -> list[tuple[str, int, int, int]]:
        """Significant-terms aggregation (Elasticsearch's sampler shape)
        over an explicit FOREGROUND doc set — typically a search's top-N:
        per term, fg = foreground docs containing it (distinct per doc)
        vs its global df; ranked by lift = (fg/n_fg)/(df/N) in exact
        integer arithmetic — lift_e6 = floor(lift*1e6 + 0.5) computed as
        (2*fg*N*10^6 + df*n_fg) // (2*df*n_fg) — tie-broken (fg desc,
        term asc).  The foreground is a request-sized docstore point-read
        (top-N texts), never a corpus scan; background statistics come
        from the prebuilt global df table, so nothing here touches
        postings.  Returns (term, fg, df, lift_e6) rows."""
        want = sorted({int(d) for d in doc_ids})
        rows = fetch_docs(self.paths.root, want, columns=["doc_id", "text"])
        n_fg = len(rows)
        if n_fg == 0:
            return []
        fg: dict[str, int] = {}
        for txt in rows["text"]:
            for t in set(_TOKEN_RE.findall(str(txt).lower())):
                fg[t] = fg.get(t, 0) + 1
        ex = set(exclude)
        n_total = self.n_docs
        scored = []
        for t, f in fg.items():
            if f < min_fg or t in ex:
                continue
            df = self.global_df(t)
            if df <= 0:  # stopword-filtered at build: not in the dictionary
                continue
            lift_e6 = (2 * f * n_total * 1_000_000 + df * n_fg) // (2 * df * n_fg)
            scored.append((-lift_e6, -f, t, df))
        scored.sort()
        return [(t, -nf, df, -nl) for nl, nf, t, df in scored[:k]]

    def facet_counts(self, text: str, field: str = "role") -> dict[str, int]:
        """Facet panel: per distinct ``field`` value, how many docs match
        the query (>= 1 term, OR semantics) — over the FULL match set, not
        the top-k.  One postings decode per term plus the cached
        attribute array; no scoring, no text access."""
        terms = [t for t in query_terms(text) if self.global_df(t) > 0]
        out: dict[str, int] = {}
        if not terms:
            return out
        r = self._reader()
        nd = len(r.docids)
        if nd == 0:
            return out
        vals = self._doc_attrs().get(field)
        if vals is None:
            raise ValueError(
                f"index docstore has no '{field}' column to facet on")
        hit = np.zeros(nd, dtype=bool)
        for t in terms:
            ti = r.term_index(t)
            if ti is not None:
                _d, _tf, li = r.postings_local(ti)
                hit[li] = True
        lm = self._live_mask()
        if lm is not None:
            hit &= lm
        u, c = np.unique(vals[hit], return_counts=True)
        return {str(key): int(n) for key, n in zip(u, c)}

    def search_boolean(self, must: str, should: str = "",
                       must_not: str = "",
                       k: int = 10,
                       min_should_match: int = 0) -> list[tuple[int, float]]:
        """Lucene-style boolean query in one scored pass: docs must
        contain EVERY ``must`` term; the score is the BM25 sum over the
        distinct (must + should) terms PRESENT in the doc (ascending-term
        accumulation — bitwise oracle-identical); docs containing any
        ``must_not`` term are excluded before top-k.  ``should`` terms
        boost ranking without affecting candidacy — the reference's
        evidence-vote aggregation (required noun term + optional
        supporting evidence, SURVEY.md G1-G4) in query form.

        ``min_should_match=m`` (Lucene's parameter of the same name)
        additionally requires at least ``m`` DISTINCT should terms
        present in the doc — candidacy, applied before top-k; the
        dictionary (post-dedup, post-df-filter, minus must overlap)
        defines "distinct", so asking for more should matches than
        should terms yields the empty result."""
        must_terms = sorted(set(query_terms(must)))
        if not must_terms or any(self.global_df(t) == 0
                                 for t in must_terms):
            return []
        should_terms = sorted(
            {t for t in query_terms(should) if self.global_df(t) > 0}
            - set(must_terms))
        msm = resolve_msm(min_should_match, len(should_terms))
        if msm > len(should_terms):
            return []
        union = sorted(set(must_terms) | set(should_terms))
        idfs = {t: bm25_idf(self.n_docs, self.global_df(t)) for t in union}
        excl = [t for t in query_terms(must_not) if self.global_df(t) > 0]
        r = self._reader()
        tis = {t: r.term_index(t) for t in union}
        if any(tis[t] is None for t in must_terms):
            return []
        decoded: dict[str, tuple[np.ndarray, np.ndarray]] = {}
        cand: np.ndarray | None = None
        for t in must_terms:
            decoded[t] = r.postings(tis[t])  # reused by the score loop
            cand = decoded[t][0] if cand is None else np.intersect1d(
                cand, decoded[t][0], assume_unique=True)
            if len(cand) == 0:
                break
        if cand is None or len(cand) == 0:
            return []
        m = self._exclude_mask(excl) if excl else None
        lm = self._live_mask()
        if lm is not None:
            m = lm if m is None else (m & lm)
        if m is not None:
            cand = cand[m[np.searchsorted(np.asarray(r.docids), cand)]]
            if len(cand) == 0:
                return []
        if msm > 0:
            scount = np.zeros(len(cand), dtype=np.int64)
            for t in should_terms:
                ti = tis[t]
                if ti is None:
                    continue
                decoded[t] = decoded.get(t) or r.postings(ti)
                d_arr = decoded[t][0]
                pos = np.minimum(np.searchsorted(d_arr, cand),
                                 max(len(d_arr) - 1, 0))
                scount += d_arr[pos] == cand
            cand = cand[scount >= msm]
            if len(cand) == 0:
                return []
        dls = r.doc_length(cand).astype(np.float64)
        acc = np.zeros(len(cand), dtype=np.float64)
        for t in union:  # ascending-term accumulation (determinism)
            ti = tis[t]
            if ti is None:  # should term absent from this segment
                continue
            d_arr, tf_arr = decoded.get(t) or r.postings(ti)
            pos = np.minimum(np.searchsorted(d_arr, cand),
                             max(len(d_arr) - 1, 0))
            hit = d_arr[pos] == cand
            if not hit.any():
                continue
            tff = tf_arr[pos[hit]].astype(np.float64)
            denom = tff + self.k1 * (
                1.0 - self.b + self.b * dls[hit] / self.avgdl)
            acc[hit] += idfs[t] * (tff * (self.k1 + 1.0)) / denom
        d, s = _topk_with_ties(cand, acc, k)
        return [(int(x), float(y)) for x, y in zip(d, s)]

    def _match_mask(self, terms: list[str], need: int,
                    role: str | None = None,
                    tool: str | None = None) -> np.ndarray:
        """Shared candidacy for the unscored set-operators (match_count,
        search_sorted_by, field_stats): boolean hit mask over the segment's
        docids — count(present terms) >= ``need``, live-docs and optional
        field filters applied.  ONE implementation so the match semantics
        cannot drift apart across those surfaces (search_lm keeps a fused
        loop because it accumulates scores with the same decode, but
        follows this contract)."""
        r = self._reader()
        cnt = np.zeros(len(r.docids), dtype=np.int64)
        for t in terms:
            ti = r.term_index(t)
            if ti is not None:
                cnt[r.postings_local(ti)[2]] += 1
        hit = cnt >= need
        lm = self._live_mask()
        if lm is not None:
            hit &= lm
        if role is not None or tool is not None:
            hit &= self._filter_mask(role, tool)
        return hit

    def match_count(self, text: str, mode: str = "or",
                    role: str | None = None,
                    tool: str | None = None) -> int:
        """Total-hits count (the fulltext engine's count API): how many
        live docs match the query — OR: any term, AND: all terms — under
        the optional field filters.  One postings decode per (term,
        shard), no scoring, no text access; counts sum exactly across
        shards (doc-partitioned)."""
        all_terms = query_terms(text)
        terms = [t for t in all_terms if self.global_df(t) > 0]
        if not terms:
            return 0
        if mode == "and" and len(terms) != len(all_terms):
            return 0
        need = len(terms) if mode == "and" else 1
        return int(self._match_mask(terms, need, role, tool).sum())

    def search_sorted_by(self, text: str, k: int = 10, field: str = "ts",
                         ascending: bool = True, mode: str = "or",
                         role: str | None = None,
                         tool: str | None = None
                         ) -> list[tuple[int, int]]:
        """Field-sorted retrieval (Lucene's Sort-by-field): the query's
        match set — OR: any term, AND: all terms — ordered by the stored
        integer doc attribute (``ts``, int64 microseconds) instead of
        relevance; docs without the attribute drop out.  Per engine the
        hit mask comes from the segment's postings, the values from
        the cached attribute array; each engine's exact local top-k by
        (value, doc_id) merges into the global k (doc-partitioned
        shards keep the union exact, same argument as scored search).
        Returns (doc_id, value) rows."""
        all_terms = query_terms(text)
        terms = [t for t in all_terms if self.global_df(t) > 0]
        if not terms or (mode == "and" and len(terms) != len(all_terms)):
            return []
        need = len(terms) if mode == "and" else 1
        sentinel = np.iinfo(np.int64).min
        r = self._reader()
        if len(r.docids) == 0:
            return []
        vals = self._doc_attrs().get(field)
        if vals is None:
            raise ValueError(
                f"index docstore has no '{field}' column to sort on")
        if not np.issubdtype(vals.dtype, np.integer):
            raise ValueError(
                f"'{field}' is not an integer attribute — only "
                "integer-valued fields (ts) are sortable")
        hit = self._match_mask(terms, need, role, tool)
        hit &= vals != sentinel  # no attribute -> not sortable -> out
        idx = np.flatnonzero(hit)
        v = vals[idx]
        d = r.docids[idx]
        order = np.lexsort((d, v if ascending else -v))[:k]
        return [(int(d[i]), int(v[i])) for i in order]

    def search_recency(self, text: str, k: int = 10, now_us: int = 0,
                       horizon_s: int = 2_592_000,
                       boost_e6: int = 5_000_000,
                       mode: str = "or") -> list[tuple[int, int]]:
        """Function-score query (ES ``function_score`` / Lucene
        FunctionScoreQuery with a linear recency decay): every match's
        BM25 score moves to the e6 integer domain and adds the shared
        ``recency_boost_e6`` decay over the stored ``ts`` attribute —
        newer docs rank higher, docs older than ``horizon_s`` (or with no
        timestamp) keep their pure BM25 order.  The combined key is
        computable per engine (global stats + local attrs), so each
        serving actor ships its exact local top-k in the COMBINED domain and the
        merge stays exact — same argument as scored search.  Exact-rank
        identical to ``BruteForceBM25.search_recency`` (integer fusion on
        bitwise-equal BM25 floats)."""
        if k <= 0:
            return []
        if horizon_s <= 0:
            raise ValueError("horizon_s must be > 0")
        terms, idfs = self._or_and_terms(text, mode)
        if not terms:
            return []
        sentinel = np.iinfo(np.int64).min
        p = self._scored_match_rows(terms, idfs, mode, "ts")
        if p is None:
            return []
        ts, d, s = p
        e6 = np.floor(s * 1e6 + 0.5).astype(np.int64)
        valid = ts != sentinel
        age = np.zeros(len(ts), dtype=np.int64)
        np.subtract(now_us, ts, out=age, where=valid)
        age_s = np.maximum(age, 0) // 1_000_000
        fresh = np.maximum(horizon_s - age_s, 0)
        fresh[~valid] = 0
        final = e6 + (boost_e6 * fresh) // horizon_s
        order = np.lexsort((d, -final))[:k]
        return [(int(d[i]), int(final[i])) for i in order]

    def search_after(self, text: str, k: int = 10,
                     cursor: tuple[int, float] | None = None,
                     mode: str = "or") -> list[tuple[int, float]]:
        """Cursor pagination (the search_after deep-paging API): returns
        the next ``k`` hits STRICTLY after ``cursor`` — the (doc_id,
        score) pair of the previous page's LAST HIT, i.e. exactly a
        result row — in the global (score desc, doc_id asc) order.
        Stateless and stable, unlike offset paging, because the cursor
        pins a total-order position.  Each shard applies the cursor
        predicate to its exact local ranking before its top-k, so the
        global merge stays exact."""
        if cursor is None:
            return self.search(text, k, mode=mode)
        cd, cs = int(cursor[0]), float(cursor[1])
        terms = [t for t in query_terms(text) if self.global_df(t) > 0]
        if not terms:
            return []
        if mode == "and" and any(self.global_df(t) == 0
                                 for t in query_terms(text)):
            return []
        idfs = [bm25_idf(self.n_docs, self.global_df(t)) for t in terms]
        score_fn = (self._score_shard_or if mode == "or"
                    else self._score_shard_and)
        # iterative deepening: fetch the exact top-k2 and grow k2 until
        # >= k post-cursor hits survive or the match set is exhausted —
        # the first k post-cursor hits are ranks (r+1..r+k) for cursor
        # rank r, all inside top-k2 once k2 - r >= k, so the page is exact
        # at every stop.  Pages near the top (the common case) cost one
        # ordinary top-k pass; deep pages approach one exhaustive pass.
        nd = len(self._reader().docids)
        lm = self._live_mask()
        k2 = max(2 * k, 16)
        while True:
            d, s = score_fn(terms, idfs, k2, mask=lm)
            after = (s < cs) | ((s == cs) & (d > cd))
            if int(after.sum()) >= k or len(d) < k2 or k2 > nd:
                break
            k2 *= 4
        d, s = d[after][:k], s[after][:k]  # already ranked
        return [(int(x), float(y)) for x, y in zip(d, s)]

    def explain(self, text: str, doc_id: int) -> list[dict]:
        """Score explanation (the classic engine 'explain' API): for one
        (query, doc) pair, the exact per-term BM25 contributions —
        [{term, tf, df, dl, idf, contribution}] in ascending-term order,
        so float-summing the contributions in listed order reproduces the
        doc's search() score bitwise.  Terms absent from the doc (or the
        whole index) are omitted.  One shard resolves the doc (doc-range
        or hash routing probes each reader's sorted docids)."""
        terms = sorted({t for t in query_terms(text) if self.global_df(t) > 0})
        out: list[dict] = []
        if not terms:
            return out
        want = np.asarray([int(doc_id)], dtype=np.int64)
        r = self._reader()
        docids = np.asarray(r.docids)
        j = int(np.searchsorted(docids, want[0]))
        if j >= len(docids) or docids[j] != want[0]:
            return out
        lm = self._live_mask()
        if lm is not None and not lm[j]:
            return []  # tombstoned doc: no score to explain
        dl = float(r.dl[j])
        for t in terms:
            ti = r.term_index(t)
            if ti is None:
                continue
            d_arr, tf_arr = r.postings(ti)
            p = int(np.searchsorted(d_arr, want[0]))
            if p >= len(d_arr) or d_arr[p] != want[0]:
                continue
            tf = float(tf_arr[p])
            idf = bm25_idf(self.n_docs, self.global_df(t))
            contrib = idf * (tf * (self.k1 + 1.0)) / (
                tf + self.k1 * (1.0 - self.b + self.b * dl / self.avgdl))
            out.append({"term": t, "tf": int(tf),
                        "df": self.global_df(t), "dl": int(dl),
                        "idf": idf, "contribution": contrib})
        return out

    def auto_date_histogram(self, text: str, target_buckets: int = 20
                            ) -> tuple[int, dict[int, int]]:
        """auto_date_histogram (the ES aggregation of the same name):
        interval = ``choose_auto_interval`` over the OR match set's
        stored-ts bounds (one field_stats pass), then the ordinary date
        histogram at the chosen interval.  Returns (interval_us, hist);
        ts-less match sets return (0, {}).  Shared rule with the
        brute-force oracle and the serving pool."""
        st = self.field_stats(text, "ts")
        if st["count"] == 0:
            return 0, {}
        iv = choose_auto_interval(st["min"], st["max"], target_buckets)
        return iv, self.date_histogram(text, interval_us=iv)

    def date_histogram(self, text: str,
                       interval_us: int = 86_400_000_000) -> dict[int, int]:
        """Time-bucketed facet over the FULL match set (>= 1 query term,
        OR semantics): bucket = floor(ts_us / interval_us), value = number
        of matching docs in that bucket — the classic search-engine
        date-histogram aggregation (default interval one day).  Docs
        without a stored timestamp are omitted.  Same access pattern as
        facet_counts: one postings decode per term plus the cached
        attribute array; no scoring, no text."""
        if interval_us <= 0:
            raise ValueError("interval_us must be positive")
        terms = [t for t in query_terms(text) if self.global_df(t) > 0]
        out: dict[int, int] = {}
        if not terms:
            return out
        sentinel = np.iinfo(np.int64).min
        r = self._reader()
        nd = len(r.docids)
        if nd == 0:
            return out
        ts = self._doc_attrs().get("ts")
        if ts is None:
            raise ValueError(
                "index docstore has no 'ts' column for date_histogram")
        hit = np.zeros(nd, dtype=bool)
        for t in terms:
            ti = r.term_index(t)
            if ti is not None:
                _d, _tf, li = r.postings_local(ti)
                hit[li] = True
        lm = self._live_mask()
        if lm is not None:
            hit &= lm
        hts = ts[hit]
        hts = hts[hts != sentinel]  # null-ts docs are omitted
        # floor division toward -inf (negative epochs bucket correctly)
        buckets, counts = np.unique(
            np.floor_divide(hts, interval_us), return_counts=True)
        for b, c in zip(buckets, counts):
            out[int(b)] = out.get(int(b), 0) + int(c)
        return out

    def _include_mask(self, terms: list[str]) -> np.ndarray | None:
        """Local-index bool mask that is True for every doc containing ANY
        of ``terms`` (the candidacy half of CommonTermsQuery): one
        postings decode per term.  None when no term exists in this
        shard (nothing can qualify)."""
        r = self._reader()
        mask: np.ndarray | None = None
        for t in terms:
            ti = r.term_index(t)
            if ti is None:
                continue
            _d, _tf, li = r.postings_local(ti)
            if mask is None:
                mask = np.zeros(len(r.docids), dtype=bool)
            mask[li] = True
        return mask

    def search_common_terms(self, text: str, k: int = 10,
                            cutoff_pct: int = 50) -> list[tuple[int, float]]:
        """Lucene CommonTermsQuery: query terms split into LOW-frequency
        (df * 100 < cutoff_pct * N — an integer predicate, shared verbatim
        with the oracle SQL) and HIGH-frequency (stopword-class) terms;
        candidacy requires >= 1 low-frequency term, high-frequency terms
        only contribute score — the classic way to keep 'the sessionmark
        tok00042' from drowning in stopword matches without a stoplist.
        When every present term is high-frequency the query falls back to
        plain OR (Lucene's fallback).  Scores are the exhaustive
        ascending-term accumulation over ALL present terms, so survivors
        score bitwise-identically to ``search``."""
        base = query_terms(text)
        terms = [t for t in base if self.global_df(t) > 0]
        if not terms:
            return []
        low = [t for t in terms
               if self.global_df(t) * 100 < int(cutoff_pct) * self.n_docs]
        idfs = [bm25_idf(self.n_docs, self.global_df(t)) for t in terms]
        ds_ = self._full_scores(terms, idfs, "or")
        if ds_ is None:
            return []
        d, s = ds_
        if low:
            inc = self._include_mask(low)
            if inc is None:
                return []
            keep = inc[np.searchsorted(self._reader().docids, d)]
            d, s = d[keep], s[keep]
        return [(int(x), float(y)) for x, y in zip(d[:k], s[:k])]  # ranked

    def _exclude_mask(self, terms: list[str]) -> np.ndarray | None:
        """Local-index bool mask that is False for every doc containing ANY
        of ``terms`` (boolean NOT): one postings decode per excluded term,
        no text access.  None when no excluded term exists in this segment."""
        r = self._reader()
        mask: np.ndarray | None = None
        for t in terms:
            ti = r.term_index(t)
            if ti is None:
                continue
            _d, _tf, li = r.postings_local(ti)
            if mask is None:
                mask = np.ones(len(r.docids), dtype=bool)
            mask[li] = False
        return mask

    def _reader(self) -> ShardReader:
        """The engine's segment, folded from its shards on first use, with
        the live-docs mask (False at tombstoned docs, None when no
        tombstone touches it) computed once beside it."""
        if self._seg is None:
            seg = ShardReader(self._shard_dirs, cache_postings=self._cache_postings)
            if self._deleted is not None:
                from horus_ner_ray.pipelines.delete import _isin_sorted

                hit = _isin_sorted(seg.docids, self._deleted)
                self._live = ~hit if hit.any() else None
            self._seg = seg
        return self._seg

    def _live_mask(self) -> np.ndarray | None:
        self._reader()
        return self._live

    # -- field/channel scoping (role=/tool= filters) ------------------------
    #
    # The reference keeps two evidence channels per term (text + image
    # posting tables, horus0.1.5.db.sql:59-109); here the docstore's stored
    # metadata columns become query-time doc filters.  Attribute arrays load
    # once per engine — A7 state, aligned to the segment's docids —
    # via a doc_id-range-pruned docstore read (rank-mode parts are
    # doc-sorted, so row-group statistics skip unrelated fragments).

    ATTR_COLUMNS = ("role", "tool", "ts", "conv_id")

    def _doc_attrs(self) -> dict[str, np.ndarray]:
        if self._attrs is not None:
            return self._attrs
        import pyarrow.compute as pacompute
        import pyarrow.dataset as pads

        docids = self._reader().docids
        files = sorted(str(p) for p in self.paths.docstore.glob("part-*.parquet"))
        out: dict[str, np.ndarray] = {}
        if files and len(docids):
            schema = pq.ParquetFile(files[0]).schema_arrow.names
            cols = [c for c in self.ATTR_COLUMNS if c in schema]
            if cols:
                flt = ((pads.field("doc_id") >= int(docids[0]))
                       & (pads.field("doc_id") <= int(docids[-1])))
                t = pads.dataset(files).to_table(filter=flt,
                                                 columns=["doc_id", *cols])
                got = np.asarray(t["doc_id"], dtype=np.int64)
                pos = np.searchsorted(docids, got)
                pos_c = np.minimum(pos, max(len(docids) - 1, 0))
                ok = docids[pos_c] == got
                for c in cols:
                    if c == "ts":
                        # fill nulls with the 'no timestamp' sentinel IN
                        # ARROW: a null crossing cast->np.asarray comes back
                        # as float64 NaN and NaN->int64 assignment is
                        # undefined (numpy-version-dependent)
                        arr = np.full(len(docids), np.iinfo(np.int64).min,
                                      dtype=np.int64)
                        vals = np.asarray(pacompute.fill_null(
                            t[c].combine_chunks().cast(pa.timestamp("us"))
                            .cast(pa.int64()), np.iinfo(np.int64).min))
                        arr[pos_c[ok]] = vals[ok]
                    else:
                        arr = np.full(len(docids), "", dtype=object)
                        arr[pos_c[ok]] = np.asarray(
                            pacompute.fill_null(t[c], ""), dtype=object)[ok]
                    out[c] = arr
        self._attrs = out
        return out

    @staticmethod
    def _ts_us(x) -> int:
        """Timestamp bound -> int64 microseconds (ISO string, datetime64,
        or already-us int)."""
        if isinstance(x, (int, np.integer)):
            return int(x)
        return int(np.datetime64(x).astype("datetime64[us]").astype(np.int64))

    def _filter_mask(self, role: str | None, tool: str | None,
                     ts_min=None, ts_max=None) -> np.ndarray:
        attrs = self._doc_attrs()
        mask = np.ones(len(self._reader().docids), dtype=bool)
        for name, want in (("role", role), ("tool", tool)):
            if want is not None:
                col = attrs.get(name)
                if col is None:
                    raise ValueError(
                        f"index docstore has no '{name}' column to filter on")
                mask &= col == want
        if ts_min is not None or ts_max is not None:
            ts = attrs.get("ts")
            if ts is None:
                raise ValueError(
                    "index docstore has no 'ts' column to filter on")
            if ts_min is not None:
                mask &= ts >= self._ts_us(ts_min)
            if ts_max is not None:
                mask &= ts <= self._ts_us(ts_max)
        return mask

    def _weight_vec(self, role_weights: dict[str, float]) -> np.ndarray:
        """Per-doc score multipliers from the role column (field-weighted
        BM25): weight applied ONCE per doc after accumulation."""
        roles = self._doc_attrs().get("role")
        if roles is None:
            raise ValueError(
                "index docstore has no 'role' column for role_weights")
        w = np.ones(len(self._reader().docids), dtype=np.float64)
        for name, wt in role_weights.items():
            w[roles == name] = float(wt)
        return w

    # -- OR (disjunctive) scoring: vectorized term-at-a-time ---------------

    def _score_shard_or(
        self, terms: list[str], idfs: list[float], k: int,
        mask: np.ndarray | None = None, wvec: np.ndarray | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Exact TAAT over the segment in ascending-term order (oracle
        accumulation order); ``mask`` (local-index bool) drops docs BEFORE
        top-k selection; ``wvec`` multiplies each doc's accumulated score
        once.  Returns the top-k (docs, scores), ranked."""
        r = self._reader()
        nd = len(r.docids)
        tis = [r.term_index(t) for t in terms]
        if nd == 0 or all(ti is None for ti in tis):
            return np.zeros(0, dtype=np.int64), np.zeros(0)
        dl_arr = np.asarray(r.dl, dtype=np.float64)
        acc = np.zeros(nd, dtype=np.float64)
        hit = np.zeros(nd, dtype=bool)
        for idf, ti in zip(idfs, tis):
            if ti is None:
                continue
            d, tf, li = r.postings_local(ti)
            tff = tf.astype(np.float64)
            denom = tff + self.k1 * (1.0 - self.b + self.b * dl_arr[li] / self.avgdl)
            acc[li] += idf * (tff * (self.k1 + 1.0)) / denom
            hit[li] = True
        if mask is not None:
            hit &= mask
        cand = np.flatnonzero(hit)
        if len(cand) == 0:
            return np.zeros(0, dtype=np.int64), np.zeros(0)
        sc = acc[cand]
        if wvec is not None:
            sc = sc * wvec[cand]
        return _topk_with_ties(np.asarray(r.docids)[cand], sc, k)

    # -- AND (conjunctive) with block skipping -----------------------------

    def _score_shard_and(
        self, terms: list[str], idfs: list[float], k: int,
        mask: np.ndarray | None = None, wvec: np.ndarray | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Conjunctive scoring over the segment: the rarest term's list
        (through the postings cache) drives block skipping in the others."""
        r = self._reader()
        tis = []
        for t in terms:
            ti = r.term_index(t)
            if ti is None:  # term absent in this segment -> empty intersection
                return np.zeros(0, dtype=np.int64), np.zeros(0)
            tis.append(ti)
        # process in ascending segment-df order; rarest term drives skipping
        order = np.argsort([r.df[ti] for ti in tis], kind="stable")
        decoded: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        first = tis[order[0]]
        cand, tf0, li0 = r.postings_local(first)
        decoded[first] = (cand, tf0)
        if mask is not None:
            # filter candidates up front: the intersection only shrinks, so
            # block skipping over the filtered candidate set stays exact
            cand = cand[mask[li0]]
        for oi in order[1:]:
            ti = tis[oi]
            if len(cand) == 0:
                return np.zeros(0, dtype=np.int64), np.zeros(0)
            d, tf = r.postings_covering(ti, cand)
            decoded[ti] = (d, tf)
            cand = cand[np.isin(cand, d, assume_unique=True)]
        if len(cand) == 0:
            return np.zeros(0, dtype=np.int64), np.zeros(0)
        dls = r.doc_length(cand).astype(np.float64)
        acc = np.zeros(len(cand), dtype=np.float64)
        for term, idf, ti in zip(terms, idfs, tis):  # ascending-term order
            d, tf = decoded[ti]
            pos = np.searchsorted(d, cand)
            tff = tf[pos].astype(np.float64)
            denom = tff + self.k1 * (1.0 - self.b + self.b * dls / self.avgdl)
            acc += idf * (tff * (self.k1 + 1.0)) / denom
        if wvec is not None:
            acc = acc * wvec[np.searchsorted(r.docids, cand)]
        return _topk_with_ties(cand, acc, k)

    def search_phrase(self, text: str, k: int = 10, role: str | None = None,
                      tool: str | None = None,
                      slop: int = 0) -> list[tuple[int, float]]:
        """Exact phrase match via position-list adjacency: candidates from
        full posting intersection over the segment, then per-candidate positional
        verify (P_0 ∩ (P_1 - 1) ∩ ... nonempty); matches scored by standard
        BM25 over member terms.  Reference analogue: NP-compound chunking
        (SURVEY.md M6) — multi-token units as adjacent position lists.
        Requires an index built with cfg.with_positions=True.
        ``role``/``tool`` filter candidates before the positional verify.

        ``slop > 0`` relaxes adjacency to Lucene's ordered sloppy-phrase
        rule over distinct terms: one occurrence per term, in phrase
        order, minimal stretch ``last - first - (n-1) <= slop``
        (``slop=0`` via this rule equals exact adjacency; the exact path
        additionally supports repeated terms)."""
        if slop > 0:
            return self._search_phrase_slop(text, k, role, tool, slop)
        phrase = _TOKEN_RE.findall(text.lower())  # ordered, duplicates kept
        if not phrase:
            return []
        uniq = sorted(set(phrase))
        if any(self.global_df(t) == 0 for t in uniq):
            return []
        idfs = {t: bm25_idf(self.n_docs, self.global_df(t)) for t in uniq}
        filtered = role is not None or tool is not None
        scores: dict[int, float] = {}
        r = self._reader()
        tis = {t: r.term_index(t) for t in uniq}
        if any(v is None for v in tis.values()):
            return []
        dec = {t: r.postings(ti) for t, ti in tis.items()}
        cand: np.ndarray | None = None
        for t in uniq:
            cand = dec[t][0] if cand is None else np.intersect1d(
                cand, dec[t][0], assume_unique=True
            )
            if len(cand) == 0:
                break
        if cand is None or len(cand) == 0:
            return []
        m = self._filter_mask(role, tool) if filtered else None
        lm = self._live_mask()
        if lm is not None:
            m = lm if m is None else (m & lm)
        if m is not None:
            cand = cand[m[np.searchsorted(np.asarray(r.docids), cand)]]
            if len(cand) == 0:
                return []
        pos = {t: r.positions(tis[t], dec[t][1]) for t in uniq}
        # vectorized adjacency across ALL candidates at once: encode
        # each term occurrence as (candidate_index << 32) | (pos - off)
        # and intersect the sorted key sets term-by-term — the phrase
        # matches doc c at start p iff key (c, p) survives every term.
        # (candidate_index, not doc_id, keys the composite so hash-mode
        # 62-bit doc ids can't overflow the int64 pack.)
        from horus_ner_ray.pipelines.build_index import gather_segments

        keys: np.ndarray | None = None
        for off, t in enumerate(phrase):
            d_arr, tf_arr = dec[t]
            j_arr = np.searchsorted(d_arr, cand)
            flat, offs = pos[t]
            seg = gather_segments(flat.astype(np.int64), offs, j_arr)
            lens = (offs[j_arr + 1] - offs[j_arr]).astype(np.int64)
            cidx = np.repeat(np.arange(len(cand), dtype=np.int64), lens)
            kt = (cidx << np.int64(32)) | (seg - off)
            kt = kt[seg >= off]  # starts before doc begin can't match
            keys = kt if keys is None else np.intersect1d(
                keys, kt, assume_unique=True
            )
            if len(keys) == 0:
                break
        if keys is None or len(keys) == 0:
            return []
        marr = cand[np.unique(keys >> np.int64(32))]
        dls = r.doc_length(marr).astype(np.float64)
        acc = np.zeros(len(marr), dtype=np.float64)
        for t in uniq:  # ascending-term accumulation (determinism)
            d_arr, tf_arr = dec[t]
            jj = np.searchsorted(d_arr, marr)
            tff = tf_arr[jj].astype(np.float64)
            denom = tff + self.k1 * (1.0 - self.b + self.b * dls / self.avgdl)
            acc += idfs[t] * (tff * (self.k1 + 1.0)) / denom
        for doc, s in zip(marr, acc):
            scores[int(doc)] = float(s)
        return sorted(scores.items(), key=lambda kv: (-kv[1], kv[0]))[:k]

    def _search_phrase_slop(self, text: str, k: int, role: str | None,
                            tool: str | None,
                            slop: int) -> list[tuple[int, float]]:
        """Ordered-window (sloppy) phrase: a doc matches iff one
        occurrence per term exists IN PHRASE ORDER with minimal stretch
        ``p_last - p_first - (n-1) <= slop``.  The minimal stretch is a
        fully vectorized chain sweep: per label l, every occurrence links
        to the LAST still-valid label-(l-1) occurrence before it
        (composite ``(candidate << 32) | pos`` keys + one searchsorted
        per label).  Chain starts are monotone nondecreasing in position
        — so the last valid predecessor carries the maximal (= optimal)
        chain start, and validity is monotone too (property-tested
        against the brute-force explicit-max DP).  Scored as conjunctive
        BM25 over the distinct terms, ascending-term accumulation."""
        from horus_ner_ray.pipelines.build_index import gather_segments

        phrase = _TOKEN_RE.findall(text.lower())
        if not phrase:
            return []
        if len(set(phrase)) != len(phrase):
            raise ValueError("slop phrase requires distinct terms")
        if any(self.global_df(t) == 0 for t in phrase):
            return []
        uniq = sorted(phrase)
        idfs = {t: bm25_idf(self.n_docs, self.global_df(t)) for t in uniq}
        n = len(phrase)
        filtered = role is not None or tool is not None
        scores: dict[int, float] = {}
        r = self._reader()
        tis = {t: r.term_index(t) for t in phrase}
        if any(v is None for v in tis.values()):
            return []
        dec = {t: r.postings(ti) for t, ti in tis.items()}
        cand: np.ndarray | None = None
        for t in uniq:
            cand = dec[t][0] if cand is None else np.intersect1d(
                cand, dec[t][0], assume_unique=True)
            if len(cand) == 0:
                break
        if cand is None or len(cand) == 0:
            return []
        m = self._filter_mask(role, tool) if filtered else None
        lm = self._live_mask()
        if lm is not None:
            m = lm if m is None else (m & lm)
        if m is not None:
            cand = cand[m[np.searchsorted(np.asarray(r.docids), cand)]]
            if len(cand) == 0:
                return []
        keys_f: tuple[np.ndarray, np.ndarray] | None = None
        for li, t in enumerate(phrase):
            d_arr, tf_arr = dec[t]
            flat, offs = r.positions(tis[t], tf_arr)
            j_arr = np.searchsorted(d_arr, cand)
            seg = gather_segments(flat.astype(np.int64), offs, j_arr)
            lens = (offs[j_arr + 1] - offs[j_arr]).astype(np.int64)
            cidx = np.repeat(np.arange(len(cand), dtype=np.int64), lens)
            key = (cidx << np.int64(32)) | seg
            if li == 0:
                keys_f = (key, seg)  # chain start = own position
                continue
            prev_key, prev_f = keys_f
            idx = np.searchsorted(prev_key, key) - 1
            idx_c = np.maximum(idx, 0)
            ok = (idx >= 0) & ((prev_key[idx_c] >> np.int64(32))
                               == (key >> np.int64(32)))
            keys_f = (key[ok], prev_f[idx_c][ok])
            if len(keys_f[0]) == 0:
                break
        key, f = keys_f if keys_f is not None else (np.zeros(0, np.int64),) * 2
        if len(key) == 0:
            return []
        stretch = (key & np.int64(0xFFFFFFFF)) - f - np.int64(n - 1)
        best = np.full(len(cand), np.iinfo(np.int64).max, dtype=np.int64)
        np.minimum.at(best, key >> np.int64(32), stretch)
        marr = cand[best <= slop]
        if len(marr) == 0:
            return []
        dls = r.doc_length(marr).astype(np.float64)
        acc = np.zeros(len(marr), dtype=np.float64)
        for t in uniq:  # ascending-term accumulation (determinism)
            d_arr, tf_arr = dec[t]
            jj = np.searchsorted(d_arr, marr)
            tff = tf_arr[jj].astype(np.float64)
            denom = tff + self.k1 * (1.0 - self.b + self.b * dls / self.avgdl)
            acc += idfs[t] * (tff * (self.k1 + 1.0)) / denom
        for doc, s in zip(marr, acc):
            scores[int(doc)] = float(s)
        return sorted(scores.items(), key=lambda kv: (-kv[1], kv[0]))[:k]

    def _phrase_docs(self, phrase: list[str],
                     cand: np.ndarray | None = None) -> np.ndarray:
        """The segment's doc ids matching the exact-adjacency phrase
        (the ``search_phrase`` positional verify as a set primitive),
        optionally restricted to a sorted candidate subset.  No live/field
        masks here — callers own them.  Requires cfg.with_positions."""
        from horus_ner_ray.pipelines.build_index import gather_segments

        empty = np.zeros(0, dtype=np.int64)
        r = self._reader()
        uniq = sorted(set(phrase))
        tis = {t: r.term_index(t) for t in uniq}
        if any(v is None for v in tis.values()):
            return empty
        dec = {t: r.postings(ti) for t, ti in tis.items()}
        c: np.ndarray | None = None
        for t in uniq:
            c = dec[t][0] if c is None else np.intersect1d(
                c, dec[t][0], assume_unique=True)
            if len(c) == 0:
                return empty
        if cand is not None:
            c = np.intersect1d(c, cand, assume_unique=True)
            if len(c) == 0:
                return empty
        pos = {t: r.positions(tis[t], dec[t][1]) for t in uniq}
        keys: np.ndarray | None = None
        for off, t in enumerate(phrase):
            d_arr, _tf = dec[t]
            j_arr = np.searchsorted(d_arr, c)
            flat, offs = pos[t]
            seg = gather_segments(flat.astype(np.int64), offs, j_arr)
            lens = (offs[j_arr + 1] - offs[j_arr]).astype(np.int64)
            cidx = np.repeat(np.arange(len(c), dtype=np.int64), lens)
            kt = (cidx << np.int64(32)) | (seg - off)
            kt = kt[seg >= off]
            keys = kt if keys is None else np.intersect1d(
                keys, kt, assume_unique=True)
            if len(keys) == 0:
                return empty
        return c[np.unique(keys >> np.int64(32))]

    def search_querystring(self, qs: str, k: int = 10
                           ) -> list[tuple[int, float]]:
        """Query-string search — the one-box syntax over the index
        (``parse_query_string`` dialect: +must -not "phrase" pre* word~
        role:x tool:x).  Candidacy = every MUST term present AND every
        phrase matches AND (>=1 SHOULD present when no MUST/phrase clause
        exists), minus MUST_NOT terms / banned phrases, under the field
        filters; score = BM25 over distinct (must + phrase +
        present-should) terms, ascending-term accumulation — bitwise
        rank-identical to ``BruteForceBM25.search_querystring``.  Prefix/
        fuzzy clauses expand against the GLOBAL dictionary, so every
        partitioned-serving actor resolves identically.  Phrase clauses
        require cfg.with_positions."""
        spec = parse_query_string(qs)
        must, should, mnot, phrases, nphrases, role, tool = \
            resolve_query_string(spec, self.expand_prefix, self.expand_fuzzy)
        should = [t for t in should if self.global_df(t) > 0]
        if any(self.global_df(t) == 0 for t in must):
            return []
        for ph in phrases:
            if any(self.global_df(t) == 0 for t in ph):
                return []
        if not must and not phrases and not should:
            return []
        union = sorted(set(must) | set(should)
                       | {t for ph in phrases for t in ph})
        idfs = {t: bm25_idf(self.n_docs, self.global_df(t)) for t in union}
        excl = [t for t in mnot if self.global_df(t) > 0]
        filtered = role is not None or tool is not None
        r = self._reader()
        if len(r.docids) == 0:
            return []
        tis = {t: r.term_index(t) for t in union}
        if any(tis[t] is None for t in must):
            return []
        decoded: dict[str, tuple[np.ndarray, np.ndarray]] = {}
        cand: np.ndarray | None = None
        for t in must:
            decoded[t] = r.postings(tis[t])
            cand = decoded[t][0] if cand is None else np.intersect1d(
                cand, decoded[t][0], assume_unique=True)
            if len(cand) == 0:
                break
        if cand is not None and len(cand) == 0:
            return []
        for ph in phrases:
            cand = self._phrase_docs(ph, cand=cand)
            if len(cand) == 0:
                break
        if cand is not None and len(cand) == 0:
            return []
        if cand is None:  # pure-SHOULD query: OR candidacy
            parts = []
            for t in should:
                if tis[t] is None:
                    continue
                decoded[t] = r.postings(tis[t])
                parts.append(decoded[t][0])
            if not parts:
                return []
            cand = np.unique(np.concatenate(parts))
        m = self._filter_mask(role, tool) if filtered else None
        if excl:
            em = self._exclude_mask(excl)
            if em is not None:
                m = em if m is None else (m & em)
        lm = self._live_mask()
        if lm is not None:
            m = lm if m is None else (m & lm)
        if m is not None:
            cand = cand[m[np.searchsorted(np.asarray(r.docids), cand)]]
            if len(cand) == 0:
                return []
        for ph in nphrases:
            bad = self._phrase_docs(ph)
            if len(bad) == 0:
                continue
            j = np.minimum(np.searchsorted(bad, cand), len(bad) - 1)
            cand = cand[bad[j] != cand]
            if len(cand) == 0:
                break
        if len(cand) == 0:
            return []
        dls = r.doc_length(cand).astype(np.float64)
        acc = np.zeros(len(cand), dtype=np.float64)
        for t in union:  # ascending-term accumulation (determinism)
            ti = tis[t]
            if ti is None:
                continue
            d_arr, tf_arr = decoded.get(t) or r.postings(ti)
            pos = np.minimum(np.searchsorted(d_arr, cand),
                             max(len(d_arr) - 1, 0))
            hit = d_arr[pos] == cand
            if not hit.any():
                continue
            tff = tf_arr[pos[hit]].astype(np.float64)
            denom = tff + self.k1 * (
                1.0 - self.b + self.b * dls[hit] / self.avgdl)
            acc[hit] += idfs[t] * (tff * (self.k1 + 1.0)) / denom
        d, s = _topk_with_ties(cand, acc, k)
        return [(int(x), float(y)) for x, y in zip(d, s)]

    def search_near(self, text: str, k: int = 10, window: int = 8,
                    role: str | None = None,
                    tool: str | None = None) -> list[tuple[int, float]]:
        """Proximity search (NEAR/``window``): docs where ONE occurrence of
        EVERY distinct query term fits inside a token window — minimal
        cover span (last - first position) <= ``window`` — scored as
        conjunctive BM25 over the distinct terms (ascending-term
        accumulation, bitwise oracle-identical).  Positions are
        original-text-relative (the phrase machinery's coordinate space,
        SURVEY.md M6); requires cfg.with_positions.  Phrase search remains
        the ordered-adjacency operator; NEAR is its unordered relaxation
        (the reference's neighborhood-merge alignment heuristics,
        reference: src/core/util.py:186-309, work in the same
        token-window currency)."""
        uniq = sorted(set(_TOKEN_RE.findall(text.lower())))
        if not uniq or any(self.global_df(t) == 0 for t in uniq):
            return []
        idfs = {t: bm25_idf(self.n_docs, self.global_df(t)) for t in uniq}
        filtered = role is not None or tool is not None
        from horus_ner_ray.pipelines.build_index import gather_segments

        scores: dict[int, float] = {}
        r = self._reader()
        tis = {t: r.term_index(t) for t in uniq}
        if any(v is None for v in tis.values()):
            return []
        dec = {t: r.postings(ti) for t, ti in tis.items()}
        cand: np.ndarray | None = None
        for t in uniq:
            cand = dec[t][0] if cand is None else np.intersect1d(
                cand, dec[t][0], assume_unique=True)
            if len(cand) == 0:
                break
        if cand is None or len(cand) == 0:
            return []
        m = self._filter_mask(role, tool) if filtered else None
        lm = self._live_mask()
        if lm is not None:
            m = lm if m is None else (m & lm)
        if m is not None:
            cand = cand[m[np.searchsorted(np.asarray(r.docids), cand)]]
            if len(cand) == 0:
                return []
        # merged (candidate, position, term-label) rows for the cover
        # scan — flat gathers, no per-candidate decode
        parts_c: list[np.ndarray] = []
        parts_p: list[np.ndarray] = []
        parts_l: list[np.ndarray] = []
        for li, t in enumerate(uniq):
            d_arr, tf_arr = dec[t]
            flat, offs = r.positions(tis[t], tf_arr)
            j_arr = np.searchsorted(d_arr, cand)
            seg = gather_segments(flat.astype(np.int64), offs, j_arr)
            lens = (offs[j_arr + 1] - offs[j_arr]).astype(np.int64)
            parts_c.append(np.repeat(
                np.arange(len(cand), dtype=np.int64), lens))
            parts_p.append(seg)
            parts_l.append(np.full(len(seg), li, dtype=np.int64))
        ci = np.concatenate(parts_c)
        pp = np.concatenate(parts_p)
        ll = np.concatenate(parts_l)
        order = np.lexsort((ll, pp, ci))
        spans = _min_cover_spans(ci[order], pp[order], ll[order],
                                 len(uniq), len(cand))
        marr = cand[spans <= window]
        if len(marr) == 0:
            return []
        dls = r.doc_length(marr).astype(np.float64)
        acc = np.zeros(len(marr), dtype=np.float64)
        for t in uniq:  # ascending-term accumulation (determinism)
            d_arr, tf_arr = dec[t]
            jj = np.searchsorted(d_arr, marr)
            tff = tf_arr[jj].astype(np.float64)
            denom = tff + self.k1 * (1.0 - self.b + self.b * dls / self.avgdl)
            acc += idfs[t] * (tff * (self.k1 + 1.0)) / denom
        for doc, s in zip(marr, acc):
            scores[int(doc)] = float(s)
        return sorted(scores.items(), key=lambda kv: (-kv[1], kv[0]))[:k]

    def match_anchors(self, text: str, doc_ids) -> dict[int, int]:
        """Snippet anchors straight from the POSITIONAL index (no text
        access): doc -> smallest token position (0-based, unfiltered
        stream — the same coordinate space as phrase adjacency) of any
        query term.  One postings + positions decode per (term, shard);
        requires an index built with cfg.with_positions."""
        terms = [t for t in query_terms(text) if self.global_df(t) > 0]
        want = np.unique(np.asarray(list(doc_ids), dtype=np.int64))
        out: dict[int, int] = {}
        if not terms or not len(want):
            return out
        r = self._reader()
        docids = np.asarray(r.docids)
        if len(docids) == 0:
            return out
        pw = np.minimum(np.searchsorted(docids, want), len(docids) - 1)
        here = want[docids[pw] == want]
        if len(here) == 0:
            return out
        for t in terms:
            ti = r.term_index(t)
            if ti is None:
                continue
            d_arr, tf_arr = r.postings(ti)
            if len(d_arr) == 0:
                continue
            j = np.minimum(np.searchsorted(d_arr, here), len(d_arr) - 1)
            ok = d_arr[j] == here
            if not ok.any():
                continue
            flat, offs = r.positions(ti, tf_arr)
            firsts = flat[offs[j[ok]]]  # per-doc lists are ascending
            for d, p in zip(here[ok], firsts):
                cur = out.get(int(d))
                if cur is None or int(p) < cur:
                    out[int(d)] = int(p)
        return out

    def match_positions(self, text: str, doc_ids) -> dict[int, list[int]]:
        """ALL query-term token positions per doc (ascending, unfiltered
        stream) straight from the POSITIONAL index — the multi-fragment
        highlighter's anchor source.  One postings + positions decode per
        (term, shard), merged ascending across terms per doc.  Requires
        cfg.with_positions."""
        from horus_ner_ray.pipelines.build_index import gather_segments

        terms = [t for t in query_terms(text) if self.global_df(t) > 0]
        want = np.unique(np.asarray(list(doc_ids), dtype=np.int64))
        acc: dict[int, list[np.ndarray]] = {}
        if not terms or not len(want):
            return {}
        r = self._reader()
        docids = np.asarray(r.docids)
        if len(docids) == 0:
            return {}
        pw = np.minimum(np.searchsorted(docids, want), len(docids) - 1)
        here = want[docids[pw] == want]
        if len(here) == 0:
            return {}
        for t in terms:
            ti = r.term_index(t)
            if ti is None:
                continue
            d_arr, tf_arr = r.postings(ti)
            if len(d_arr) == 0:
                continue
            j = np.minimum(np.searchsorted(d_arr, here), len(d_arr) - 1)
            ok = d_arr[j] == here
            if not ok.any():
                continue
            flat, offs = r.positions(ti, tf_arr)
            j_ok = j[ok]
            seg = gather_segments(flat.astype(np.int64), offs, j_ok)
            lens = (offs[j_ok + 1] - offs[j_ok]).astype(np.int64)
            owners = np.repeat(here[ok], lens)
            for d in np.unique(owners):
                acc.setdefault(int(d), []).append(seg[owners == d])
        return {d: np.unique(np.concatenate(ps)).tolist()
                for d, ps in acc.items()}

    def search_fragments(self, text: str, k: int = 10, window: int = 3,
                         n_fragments: int = 3
                         ) -> list[tuple[int, float, list[str]]]:
        """Multi-fragment highlighter (the ES highlighter's
        number_of_fragments): top-k plus up to ``n_fragments``
        NON-OVERLAPPING token windows per hit — anchors are ALL query-term
        positions from the positional index, selected by the shared
        greedy rule (``select_fragment_anchors``); one docstore point-read
        for the k hit texts.  Scores/ranks are the unmodified ``search``
        output.  Requires cfg.with_positions."""
        hits = self.search(text, k)
        if not hits:
            return []
        ids = [d for d, _ in hits]
        pos = self.match_positions(text, ids)
        rows = fetch_docs(self.paths.root, ids, columns=["doc_id", "text"])
        tmap = {int(d): str(t) for d, t in zip(rows["doc_id"], rows["text"])}
        out = []
        for d, s in hits:
            anchors = select_fragment_anchors(pos.get(d, ()), window,
                                              n_fragments)
            out.append((d, s, [snippet_text(tmap[d], a, window)
                               for a in anchors]))
        return out

    def search(self, text: str, k: int = 10, mode: str = "or",
               expand_terms: int = 0, role: str | None = None,
               tool: str | None = None, ts_min=None, ts_max=None,
               role_weights: dict[str, float] | None = None,
               exclude: str | None = None,
               boosts: dict[str, float] | None = None,
               ) -> list[tuple[int, float]]:
        """``expand_terms=k`` unions each query term's k nearest
        term-vector neighbors before OR scoring (recall expansion;
        requires ``set_term_vectors``).  AND mode rejects expansion — a
        conjunctive query over neighbor terms inverts its semantics.

        ``role``/``tool`` restrict results to docs whose stored metadata
        matches (field-scoped search; the reference's per-channel evidence
        tables, horus0.1.5.db.sql:59-109); ``ts_min``/``ts_max`` bound the
        stored turn timestamp (inclusive; ISO string, datetime64 or int
        microseconds); ``role_weights`` multiplies each doc's FINAL score
        by its role's weight (field-weighted BM25 — one multiply after
        accumulation, composable with the filters).  Collection statistics
        stay global — standard filtered-search semantics, shared with the
        brute-force oracle.

        ``exclude`` is a boolean-NOT clause: docs containing ANY of its
        terms are dropped BEFORE top-k (one postings decode per excluded
        term, composable with the field filters; scores of survivors are
        untouched).

        ``boosts`` maps query terms to per-term weights (Lucene
        ``term^boost``): each boosted term's idf is multiplied ONCE before
        accumulation, so contributions scale while accumulation order (and
        bitwise rank parity with the brute-force oracle) is untouched.
        Boosts must be > 0: a zero or negative weight would still return
        docs matching only that term, at score <= 0 — a soft NOT that
        ``exclude=`` already expresses as a true boolean NOT."""
        base = query_terms(text)
        if boosts is not None and any(float(w) <= 0.0 for w in boosts.values()):
            raise ValueError("boosts must be > 0 (use exclude= for NOT)")
        if expand_terms > 0:
            if mode != "or":
                raise ValueError("expand_terms requires mode='or'")
            base = self.expand_query_terms(base, expand_terms)
        terms = [t for t in base if self.global_df(t) > 0]
        if not terms:
            return []
        if mode == "and" and any(self.global_df(t) == 0 for t in query_terms(text)):
            return []
        idfs = [bm25_idf(self.n_docs, self.global_df(t)) for t in terms]
        if boosts:
            idfs = [idf * float(boosts.get(t, 1.0))
                    for t, idf in zip(terms, idfs)]
        score_fn = self._score_shard_or if mode == "or" else self._score_shard_and
        filtered = any(x is not None for x in (role, tool, ts_min, ts_max))
        excl = ([t for t in query_terms(exclude) if self.global_df(t) > 0]
                if exclude else [])
        m = self._filter_mask(role, tool, ts_min, ts_max) if filtered else None
        if excl:
            em = self._exclude_mask(excl)
            if em is not None:
                m = em if m is None else (m & em)
        lm = self._live_mask()
        if lm is not None:
            m = lm if m is None else (m & lm)
        w = self._weight_vec(role_weights) if role_weights is not None else None
        d, s = score_fn(terms, idfs, k, mask=m, wvec=w)  # ranked top-k
        return [(int(x), float(y)) for x, y in zip(d, s)]

    def _scored_match_rows(self, terms: list[str],
                           idfs: list[float], mode: str,
                           field: str) -> tuple[np.ndarray, np.ndarray,
                                                np.ndarray] | None:
        """The FULL match set as (field value, doc, score) arrays — the
        grouping primitives' shared head; live docs masked before
        anything returns."""
        r = self._reader()
        nd = len(r.docids)
        if nd == 0:
            return None
        score_fn = (self._score_shard_or if mode == "or"
                    else self._score_shard_and)
        d, s = score_fn(terms, idfs, nd, mask=self._live_mask())
        if len(d) == 0:
            return None
        vals = self._doc_attrs().get(field)
        if vals is None:
            raise ValueError(
                f"index docstore has no {field!r} column to collapse on")
        return vals[np.searchsorted(r.docids, d)], d, s

    @staticmethod
    def _collapse_rows(vals: np.ndarray, d: np.ndarray,
                       s: np.ndarray) -> tuple[np.ndarray, np.ndarray,
                                               np.ndarray]:
        """Best (score desc, doc asc) row per distinct value — the
        collapse reduction; associative, so per-actor collapse then a
        merge collapse is exact."""
        uniq, codes = np.unique(vals, return_inverse=True)
        order = np.lexsort((d, -s, codes))
        cc = codes[order]
        first = np.r_[True, cc[1:] != cc[:-1]]
        keep = order[first]
        return uniq[cc[first]], d[keep], s[keep]

    def search_collapse(self, text: str, k: int = 10,
                        field: str = "conv_id",
                        mode: str = "or") -> list[tuple[str, int, float]]:
        """Field collapsing (Lucene/ES ``collapse``): the match set keeps
        only the best-scoring doc per distinct ``field`` value, and the
        collapsed groups rank by their representative's (score desc,
        doc_id asc).  Per engine the match set collapses BEFORE anything
        crosses serving actors, so the merge is bounded by distinct values — not
        matches — and on a cluster each scatter member ships one row per
        value it saw.  Results are bitwise rank-identical to the
        brute-force oracle (same exhaustive ascending-term accumulation).
        Reference analogue: one evidence row per sentence group
        (horus0.1.5.db.sql:59-109)."""
        if k <= 0:
            return []
        terms, idfs = self._or_and_terms(text, mode)
        if not terms:
            return []
        p = self._scored_match_rows(terms, idfs, mode, field)
        if p is None:
            return []
        vals, d, s = self._collapse_rows(*p)
        order = np.lexsort((d, -s))[:k]
        return [(str(vals[i]), int(d[i]), float(s[i])) for i in order]

    @staticmethod
    def _group_topk_rows(vals: np.ndarray, d: np.ndarray, s: np.ndarray,
                         k: int) -> tuple[np.ndarray, np.ndarray,
                                          np.ndarray]:
        """Top-k (score desc, doc asc) rows per distinct value —
        associative like the collapse reduction."""
        uniq, codes = np.unique(vals, return_inverse=True)
        order = np.lexsort((d, -s, codes))
        cc = codes[order]
        starts = np.flatnonzero(np.r_[True, cc[1:] != cc[:-1]])
        sizes = np.diff(np.r_[starts, len(cc)])
        rank = np.arange(len(cc)) - np.repeat(starts, sizes)
        keep = order[rank < k]
        return uniq[codes[keep]], d[keep], s[keep]

    def search_grouped(self, text: str, field: str = "role", k: int = 3,
                       mode: str = "or",
                       ) -> dict[str, list[tuple[int, float]]]:
        """Grouped top hits (ES ``terms`` aggregation + ``top_hits``):
        for every distinct ``field`` value in the match set, that group's
        top-k docs by (score desc, doc_id asc).  Same per-actor-partial
        shape as ``search_collapse`` (per-group top-k is associative);
        bitwise rank-identical to the brute-force oracle."""
        if k <= 0:
            return {}
        terms, idfs = self._or_and_terms(text, mode)
        if not terms:
            return {}
        p = self._scored_match_rows(terms, idfs, mode, field)
        if p is None:
            return {}
        vals, d, s = self._group_topk_rows(*p, k)
        uniq, codes = np.unique(vals, return_inverse=True)
        order = np.lexsort((d, -s, codes))
        out: dict[str, list[tuple[int, float]]] = {}
        for i in order:
            out.setdefault(str(uniq[codes[i]]), []).append(
                (int(d[i]), float(s[i])))
        return out

    def _or_and_terms(self, text: str,
                      mode: str) -> tuple[list[str], list[float]]:
        """Shared (terms, idfs) head for the or/and grouping searches —
        mirrors ``search``'s term filtering and empty-conjunction rule."""
        if mode not in ("or", "and"):
            raise ValueError(f"grouping searches need mode=or/and, got {mode!r}")
        base = query_terms(text)
        terms = [t for t in base if self.global_df(t) > 0]
        if mode == "and" and len(terms) != len(base):
            return [], []
        return terms, [bm25_idf(self.n_docs, self.global_df(t))
                       for t in terms]

    def _full_scores(self, terms: list[str],
                           idfs: list[float],
                           mode: str) -> tuple[np.ndarray, np.ndarray] | None:
        """The FULL match set (doc, score), ranked, live docs masked.
        Shared head of the score-rewriting searches (boosting / dis_max),
        which must see every match before demotion/combination."""
        nd = len(self._reader().docids)
        if nd == 0:
            return None
        score_fn = (self._score_shard_or if mode == "or"
                    else self._score_shard_and)
        d, s = score_fn(terms, idfs, nd, mask=self._live_mask())
        if len(d) == 0:
            return None
        return d, s

    def search_boosting(self, positive: str, negative: str, k: int = 10,
                        negative_boost: float = 0.5,
                        mode: str = "or") -> list[tuple[int, float]]:
        """Boosting query (Lucene BoostingQuery / ES ``boosting``): docs
        matching the positive query rank by BM25; docs that ALSO contain
        any negative-query term are demoted — final score multiplied by
        ``negative_boost`` in (0, 1] — not excluded.  Full match set per
        shard (a doc outside the undemoted top-k can overtake a demoted
        top doc), negative membership from one
        postings decode per negative term (``_exclude_mask``, no text
        access), ONE multiply per demoted doc AFTER accumulation (exact
        for power-of-two boosts, the role_weights arithmetic point) —
        then one top-k, so a pool merge stays bounded by k."""
        if not (0.0 < float(negative_boost) <= 1.0):
            raise ValueError("negative_boost must be in (0, 1]")
        terms, idfs = self._or_and_terms(positive, mode)
        if not terms:
            return []
        neg_terms = [t for t in query_terms(negative)
                     if self.global_df(t) > 0]
        p = self._full_scores(terms, idfs, mode)
        if p is None:
            return []
        d, s = p
        if neg_terms:
            em = self._exclude_mask(neg_terms)
            if em is not None:
                li = np.searchsorted(self._reader().docids, d)
                s = np.where(~em[li], s * float(negative_boost), s)
        d, s = _topk_with_ties(d, s, k)
        return [(int(x), float(y)) for x, y in zip(d, s)]

    def search_dismax(self, queries: list[str], k: int = 10,
                      tie_breaker: float = 0.5,
                      mode: str = "or") -> list[tuple[int, float]]:
        """dis_max (Lucene DisjunctionMaxQuery): per doc, the BEST
        subquery score plus ``tie_breaker`` times the sum of the OTHER
        subqueries' scores.  The max slot is the FIRST subquery index
        achieving the max (np.argmax's rule == the oracle's first-argmax)
        and the rest-sum accumulates in subquery-list order with an exact
        +0.0 at the max slot — bitwise-identical to the oracle's
        skip-the-max loop.  Full match set per subquery (the combination
        reorders per-subquery top-k); one top-k bounds a pool merge."""
        per_terms = [self._or_and_terms(q, mode) for q in queries]
        parts = [self._full_scores(t, i, mode) if t else None
                 for t, i in per_terms]
        live = [p for p in parts if p is not None]
        if not live:
            return []
        union = np.unique(np.concatenate([p[0] for p in live]))
        S = np.zeros((len(queries), len(union)), dtype=np.float64)
        for qi, p in enumerate(parts):
            if p is None:
                continue
            d_i, s_i = p
            S[qi, np.searchsorted(union, d_i)] = s_i
        mi = np.argmax(S, axis=0)  # first max, like the oracle
        best = S[mi, np.arange(len(union))]
        rest = np.zeros(len(union), dtype=np.float64)
        for qi in range(len(queries)):  # subquery-list order
            rest += np.where(mi == qi, 0.0, S[qi])
        comb = best + float(tie_breaker) * rest
        d, s = _topk_with_ties(union, comb, k)
        return [(int(x), float(y)) for x, y in zip(d, s)]

    def search_phrase_prefix(self, text: str, k: int = 10,
                             max_expansions: int = 50
                             ) -> list[tuple[int, float]]:
        """match_phrase_prefix (ES): the LAST token is a prefix expanding
        to the first ``max_expansions`` GLOBAL-dictionary terms with that
        prefix (term-sorted; global, so every scatter member expands
        identically); a doc matches iff the fixed terms appear adjacently
        followed by ANY expansion at the next position.  Scored as BM25
        over the distinct FIXED terms only (the expansion slot gates
        candidacy, not score — shared with the oracle).  The positional
        verify reuses the phrase composite-key intersection with the
        expansion slot as a key UNION across expansions.  Requires
        cfg.with_positions and >= 2 tokens."""
        from horus_ner_ray.pipelines.build_index import gather_segments

        phrase = _TOKEN_RE.findall(text.lower())
        if len(phrase) < 2:
            raise ValueError("phrase_prefix needs >= 2 tokens "
                             "(use search_prefix for a bare prefix)")
        fixed, pref = phrase[:-1], phrase[-1]
        exp = self.expand_prefix(pref)[:max_expansions]
        uniq = sorted(set(fixed))
        if not exp or any(self.global_df(t) == 0 for t in uniq):
            return []
        idfs = {t: bm25_idf(self.n_docs, self.global_df(t)) for t in uniq}
        off_e = np.int64(len(fixed))  # the expansion slot's offset
        scores: dict[int, float] = {}
        r = self._reader()
        tis = {t: r.term_index(t) for t in uniq}
        if any(v is None for v in tis.values()):
            return []
        dec = {t: r.postings(ti) for t, ti in tis.items()}
        cand: np.ndarray | None = None
        for t in uniq:
            cand = dec[t][0] if cand is None else np.intersect1d(
                cand, dec[t][0], assume_unique=True)
            if len(cand) == 0:
                break
        if cand is None or len(cand) == 0:
            return []
        lm = self._live_mask()
        if lm is not None:
            cand = cand[lm[np.searchsorted(np.asarray(r.docids), cand)]]
            if len(cand) == 0:
                return []
        keys: np.ndarray | None = None
        for off, t in enumerate(fixed):
            d_arr, tf_arr = dec[t]
            j_arr = np.searchsorted(d_arr, cand)
            flat, offs = r.positions(tis[t], tf_arr)
            seg = gather_segments(flat.astype(np.int64), offs, j_arr)
            lens = (offs[j_arr + 1] - offs[j_arr]).astype(np.int64)
            cidx = np.repeat(np.arange(len(cand), dtype=np.int64), lens)
            kt = (cidx << np.int64(32)) | (seg - off)
            kt = kt[seg >= off]
            keys = kt if keys is None else np.intersect1d(
                keys, kt, assume_unique=True)
            if len(keys) == 0:
                break
        if keys is None or len(keys) == 0:
            return []
        # expansion slot: UNION of (cand, start) keys over expansions
        eparts: list[np.ndarray] = []
        for e in exp:
            ti = r.term_index(e)
            if ti is None:
                continue
            d_arr, tf_arr = r.postings(ti)
            if len(d_arr) == 0:
                continue
            idx = np.searchsorted(d_arr, cand)
            idx_c = np.minimum(idx, len(d_arr) - 1)
            present = np.flatnonzero(d_arr[idx_c] == cand)
            if len(present) == 0:
                continue
            j_arr = idx_c[present]
            flat, offs = r.positions(ti, tf_arr)
            seg = gather_segments(flat.astype(np.int64), offs, j_arr)
            lens = (offs[j_arr + 1] - offs[j_arr]).astype(np.int64)
            cidx = np.repeat(present.astype(np.int64), lens)
            kt = (cidx << np.int64(32)) | (seg - off_e)
            eparts.append(kt[seg >= off_e])
        if not eparts:
            return []
        ekeys = np.unique(np.concatenate(eparts))
        keys = np.intersect1d(keys, ekeys, assume_unique=True)
        if len(keys) == 0:
            return []
        marr = cand[np.unique(keys >> np.int64(32))]
        dls = r.doc_length(marr).astype(np.float64)
        acc = np.zeros(len(marr), dtype=np.float64)
        for t in uniq:  # ascending-term accumulation (determinism)
            d_arr, tf_arr = dec[t]
            jj = np.searchsorted(d_arr, marr)
            tff = tf_arr[jj].astype(np.float64)
            denom = tff + self.k1 * (1.0 - self.b
                                     + self.b * dls / self.avgdl)
            acc += idfs[t] * (tff * (self.k1 + 1.0)) / denom
        for doc, sc in zip(marr, acc):
            scores[int(doc)] = float(sc)
        return sorted(scores.items(), key=lambda kv: (-kv[1], kv[0]))[:k]


def _min_cover_spans(cand_idx: np.ndarray, pos: np.ndarray, label: np.ndarray,
                     n_labels: int, n_cand: int) -> np.ndarray:
    """Per-candidate minimal window span: for each candidate, the smallest
    ``max(pos) - min(pos)`` over any occurrence set covering ALL
    ``n_labels`` distinct labels; +inf where no cover exists.  Input rows
    must be sorted by (cand_idx, pos).

    n_labels == 2 (the common NEAR pair) is fully vectorized: in merged
    position order the minimal 2-cover is always an ADJACENT
    different-label pair.  Larger label sets take the classic two-pointer
    per candidate — bounded by that candidate's total occurrence count,
    and only over candidates that already passed the full conjunctive
    intersection (small by construction)."""
    out = np.full(n_cand, np.inf)
    if len(pos) == 0:
        return out
    if n_labels == 1:
        out[np.unique(cand_idx)] = 0.0
        return out
    if n_labels == 2:
        same = cand_idx[1:] == cand_idx[:-1]
        valid = same & (label[1:] != label[:-1])
        if valid.any():
            np.minimum.at(out, cand_idx[1:][valid],
                          (pos[1:] - pos[:-1]).astype(np.float64)[valid])
        return out
    bounds = np.flatnonzero(np.r_[True, cand_idx[1:] != cand_idx[:-1], True])
    for gi in range(len(bounds) - 1):
        lo, hi = bounds[gi], bounds[gi + 1]
        c = int(cand_idx[lo])
        p, lb = pos[lo:hi], label[lo:hi]
        counts = np.zeros(n_labels, dtype=np.int64)
        covered = 0
        left = lo
        best = np.inf
        for right in range(lo, hi):
            li = int(lb[right - lo])
            counts[li] += 1
            if counts[li] == 1:
                covered += 1
            while covered == n_labels:
                best = min(best, float(p[right - lo] - p[left - lo]))
                lj = int(lb[left - lo])
                counts[lj] -= 1
                if counts[lj] == 0:
                    covered -= 1
                left += 1
        out[c] = best
    return out


def _percentile_refine(stats: dict, q: float, hist_fn) -> dict[str, int]:
    """Shared percentile-refinement driver (engine loops its shards,
    QueryService scatters the same rounds over the pool): descend the
    k-th smallest value's bucket until bucket width 1.  ``hist_fn(lo,
    hi) -> (counts, w)`` is one mergeable histogram round."""
    import math

    n = stats["count"]
    if n == 0:
        return {"count": 0, "value": 0}
    k = max(1, math.ceil(q * n))
    lo, hi = stats["min"], stats["max"]
    while True:
        counts, w = hist_fn(lo, hi)
        cum = np.cumsum(counts)
        bi = int(np.searchsorted(cum, k))
        if bi:
            k -= int(cum[bi - 1])
        lo = lo + bi * w
        hi = min(lo + w - 1, hi)
        if w == 1:
            return {"count": n, "value": int(lo)}


def topk_with_margin(hits: list[tuple[int, float]]) -> list[tuple[int, float, float]]:
    """(doc, score) ranking -> (doc, score, margin-to-next) rows.

    The reference's top-2 'distance indicator' (SURVEY.md G3, reference:
    src/core/feature_extraction/features.py:376-383 heapq.nlargest margin)
    generalized to every rank; the last hit's margin is its score."""
    out = []
    for i, (d, s) in enumerate(hits):
        nxt = hits[i + 1][1] if i + 1 < len(hits) else 0.0
        out.append((d, s, s - nxt))
    return out


def _topk_with_ties(docs: np.ndarray, scores: np.ndarray, k: int):
    """Deterministic top-k: argpartition prunes to the kth score, ties at
    the boundary are kept, then the (small) survivor set is ordered by
    (score desc, doc_id asc) and cut to k — so a pool merge sees the same
    k docs regardless of shard layout."""
    if k <= 0:
        return docs[:0], scores[:0]
    if len(docs) > k:
        kth = np.partition(scores, len(scores) - k)[len(scores) - k]
        keep = scores >= kth
        docs, scores = docs[keep], scores[keep]
    order = np.lexsort((docs, -scores))[:k]
    return docs[order], scores[order]


# ---------------------------------------------------------------------------
# Batched query scoring (actor pool over a Dataset of queries)
# ---------------------------------------------------------------------------


class ScorerActor:
    """``map_batches`` callable: one engine per actor (mmaps opened once in
    ``__init__`` — the reference loads its scorer models exactly once per
    process the same way, reference: src/core/feature_extraction/features.py:51-106)."""

    def __init__(self, index_dir: str, mode: str = "or",
                 shard_subset: list[int] | None = None,
                 cache_postings: int = 8_000_000,
                 stats_override=None):
        # ~8M cached postings x ~20 B = <=160 MB per actor, spread across
        # its shard readers; hot-term decode+searchsorted amortize to one
        # per actor lifetime (serving is long-lived)
        self.engine = QueryEngine(index_dir, shard_subset=shard_subset,
                                  cache_postings=cache_postings)
        if stats_override is not None:
            # federation: rewrite this member's collection statistics to
            # the combined values (pipelines/federate.py; passed as a
            # ray.put ref — Ray dereferences top-level actor args, so one
            # object-store copy serves the whole pool)
            from horus_ner_ray.pipelines.federate import apply_stats_override

            apply_stats_override(self.engine, *stats_override)
        self.mode = mode

    def warm(self) -> int:
        """Fold the actor's shards into its segment (mmaps + dictionaries)
        so first real queries don't pay the open latency; returns the
        shard count."""
        self.engine._reader()
        return len(self.engine._shard_dirs)

    def explain(self, text: str, doc_id: int) -> list[dict]:
        """Per-term score factors for one (query, doc) — only the actor
        whose shard subset owns the doc returns rows, so a scatter's
        non-empty union is exact."""
        return self.engine.explain(text, int(doc_id))

    def date_histogram(self, text: str,
                       interval_us: int = 86_400_000_000) -> dict[int, int]:
        """This subset's partial time-bucketed counts; bucket-wise sums
        across the pool are exact (doc-partitioned shards)."""
        return self.engine.date_histogram(text, interval_us=interval_us)

    def suggest(self, word: str, k: int = 5,
                max_dist: int = 2) -> list[tuple[str, int, int]]:
        """Spell suggestion — dictionary state is GLOBAL (stats/df load
        whole regardless of shard subset), so any one actor answers
        exactly; the service routes to a single actor, no scatter."""
        return self.engine.suggest(word, k=k, max_dist=max_dist)

    def match_anchors(self, text: str, doc_ids) -> dict[int, int]:
        """This subset's snippet anchors (doc -> smallest query-term
        position); each doc lives in exactly one shard, so the union
        across the pool is exact."""
        return self.engine.match_anchors(text, doc_ids)

    def match_count(self, text: str, mode: str = "or",
                    role: str | None = None,
                    tool: str | None = None) -> int:
        """This subset's match count; sums exactly across the pool
        (doc-partitioned shards)."""
        return self.engine.match_count(text, mode=mode, role=role, tool=tool)

    def match_positions(self, text: str, doc_ids) -> dict[int, list[int]]:
        """This subset's full anchor-position lists (doc -> ascending
        query-term positions); each doc lives in exactly one shard, so
        the union across the pool is exact."""
        return self.engine.match_positions(text, doc_ids)

    def correct_query_terms(self, text: str, max_dist: int = 2) -> list[str]:
        """'Did you mean' rewrite — dictionary state is GLOBAL, so any
        one actor answers exactly (single-actor route, like suggest)."""
        return self.engine.correct_query_terms(text, max_dist=max_dist)

    def complete(self, prefix: str, k: int = 10) -> list[tuple[str, int]]:
        """Completion suggester — dictionary + df state are GLOBAL, so
        any one actor answers exactly (single-actor route)."""
        return self.engine.complete(prefix, k=k)

    def term_vector(self, doc_id: int) -> list[tuple[str, int, int]]:
        """Term vectors — docstore point-read + global dictionary, so
        any one actor answers exactly (single-actor route)."""
        return self.engine.term_vector(int(doc_id))

    def lm_scores(self, text: str, doc_ids,
                  mu: float = 1000.0) -> dict[int, float]:
        """LM scores for the window docs RESIDENT in this subset's shards
        (others stay 0.0 and are dropped here); each doc lives in exactly
        one shard, so the pool union is exact."""
        sc = self.engine.lm_scores(text, doc_ids, mu=mu)
        ids = np.asarray(sorted(sc), dtype=np.int64)
        resident = set(ids[self.engine._resident(ids)].tolist())
        return {d: s for d, s in sc.items() if d in resident}

    def adjacency_partial(self, filters: dict[str, str]
                          ) -> list[tuple[str, str, int]]:
        """This subset's adjacency-matrix counts; pairwise sums across
        the pool are exact (doc-partitioned shards)."""
        return self.engine.adjacency_matrix(filters)

    def field_rank_partial(self, text: str, values, field: str = "ts",
                           mode: str = "or") -> tuple[list[int], int]:
        """This subset's percentile-rank partial: (count_le per probe,
        match count) — plain sums merge across the pool; the service
        recomputes rank_e6 from the merged integers."""
        rows = self.engine.field_percentile_ranks(text, values, field=field,
                                                  mode=mode)
        return [r["count_le"] for r in rows], (rows[0]["count"]
                                               if rows else 0)

    def field_histogram(self, text: str, field: str, mode: str,
                        lo: int, hi: int,
                        n_buckets: int) -> tuple[list[int], int]:
        """This subset's percentile-refinement partial (counts sum
        plainly across the pool)."""
        counts, w = self.engine._field_hist(text, field, mode, lo, hi,
                                            n_buckets)
        return counts.tolist(), w

    def search_collapse(self, text: str, k: int = 10,
                        field: str = "conv_id",
                        mode: str = "or") -> list[tuple[str, int, float]]:
        """This subset's top-k collapsed (value, doc, score) rows; the
        collapse reduction is associative and a global-top-k value is
        always inside the local top-k of the subset holding its
        representative, so the service's merge re-collapse is exact."""
        return self.engine.search_collapse(text, k=k, field=field, mode=mode)

    def search_grouped(self, text: str, field: str = "role", k: int = 3,
                       mode: str = "or") -> dict[str, list[tuple[int, float]]]:
        """This subset's per-group top-k; per-group merge across the pool
        re-applies the same top-k (associative), staying exact."""
        return self.engine.search_grouped(text, field=field, k=k, mode=mode)

    def search_sorted_by(self, text: str, k: int = 10, field: str = "ts",
                         ascending: bool = True,
                         mode: str = "or") -> list[tuple[int, int]]:
        """This subset's exact field-sorted top-k; the pool merge by
        (value, doc_id) stays exact (doc-partitioned shards)."""
        return self.engine.search_sorted_by(text, k=k, field=field,
                                            ascending=ascending, mode=mode)

    def search_recency(self, text: str, k: int = 10, now_us: int = 0,
                       horizon_s: int = 2_592_000,
                       boost_e6: int = 5_000_000,
                       mode: str = "or") -> list[tuple[int, int]]:
        """This subset's exact top-k in the combined (bm25 e6 + recency
        boost) integer domain; the pool merge by (final desc, doc asc)
        stays exact (doc-partitioned shards)."""
        return self.engine.search_recency(text, k=k, now_us=now_us,
                                          horizon_s=horizon_s,
                                          boost_e6=boost_e6, mode=mode)

    def field_stats(self, text: str, field: str = "ts",
                    mode: str = "or") -> dict[str, int]:
        """This subset's partial stats (count/min/max/sum are mergeable;
        the service recomputes the floor-mean from the merged sums)."""
        return self.engine.field_stats(text, field=field, mode=mode)

    def __call__(self, batch: pd.DataFrame) -> pd.DataFrame:
        out = {"query_id": [], "rank": [], "doc_id": [], "score": []}
        for row in batch.itertuples():
            mode = getattr(row, "mode", self.mode)  # per-query override (serving)
            # optional per-query field filters ('' / NaN = unfiltered)
            role = getattr(row, "role", None) or None
            tool = getattr(row, "tool", None) or None
            exclude = getattr(row, "exclude", None) or None
            if isinstance(role, float):
                role = None
            if isinstance(tool, float):
                tool = None
            if isinstance(exclude, float):
                exclude = None
            boost = getattr(row, "boost", None) or None
            if isinstance(boost, float):
                boost = None
            boosts = parse_boosts(boost) if boost else None
            if boosts and mode not in ("or", "and"):
                # fail loudly (module convention): silently ignoring a
                # boost returns plausible-but-unboosted results
                raise ValueError("boost= composes only with mode=or/and")
            should = getattr(row, "should", "") or ""
            if isinstance(should, float):
                should = ""
            if should and mode != "boolean":
                # fail loudly (module convention): a silently dropped
                # boost clause returns plausible-but-unboosted results
                raise ValueError("should= requires mode='boolean'")
            _slop_probe = getattr(row, "slop", None)
            if (_slop_probe is not None
                    and not (isinstance(_slop_probe, float)
                             and _slop_probe != _slop_probe)
                    and int(_slop_probe) > 0 and mode != "phrase"):
                raise ValueError("slop= requires mode='phrase'")
            _msm_probe = getattr(row, "msm", None)
            if (_msm_probe is not None
                    and not (isinstance(_msm_probe, float)
                             and _msm_probe != _msm_probe)
                    and int(_msm_probe) > 0 and mode != "boolean"):
                raise ValueError("msm= requires mode='boolean'")
            _tr_probe = getattr(row, "transpose", None)
            if (_tr_probe is not None
                    and not (isinstance(_tr_probe, float)
                             and _tr_probe != _tr_probe)
                    and int(_tr_probe) and mode != "fuzzy"):
                raise ValueError("transpose= requires mode='fuzzy'")
            after_doc = getattr(row, "after_doc", None)
            if after_doc is not None and (
                    isinstance(after_doc, float) and after_doc != after_doc):
                after_doc = None  # NaN = no cursor
            if after_doc is not None:
                # cursor pagination: strict successors of (doc, score)
                if mode not in ("or", "and") or role or tool or exclude or boosts:
                    raise ValueError(
                        "cursor pagination composes only with mode=or/and "
                        "and no field filters or boosts")
                hits = self.engine.search_after(
                    row.text, int(row.k), mode=mode,
                    cursor=(int(after_doc), float(row.after_score)))
            elif mode in ("prefix", "fuzzy", "contains", "regex", "stemmed",
                          "wildcard"):
                # dictionary-expansion modes: field filters don't compose
                # (fail loudly rather than silently ignoring a filter)
                if role or tool or exclude:
                    raise ValueError(
                        f"mode={mode!r} does not compose with role/tool/"
                        "exclude filters")
                if mode == "fuzzy":
                    tr = getattr(row, "transpose", None)
                    tr = (False if tr is None
                          or (isinstance(tr, float) and tr != tr)
                          else bool(int(tr)))
                    hits = self.engine.search_fuzzy(row.text, int(row.k),
                                                    transpositions=tr)
                else:
                    fn = {"prefix": self.engine.search_prefix,
                          "contains": self.engine.search_contains,
                          "regex": self.engine.search_regex,
                          "stemmed": self.engine.search_stemmed,
                          "wildcard": self.engine.search_wildcard}[mode]
                    hits = fn(row.text, int(row.k))
            elif mode == "first":
                if role or tool or exclude:
                    raise ValueError(
                        "mode='first' does not compose with role/tool/"
                        "exclude filters")
                fn_ = getattr(row, "first_n", None)
                fn_ = 8 if fn_ is None or (isinstance(fn_, float)
                                           and fn_ != fn_) else int(fn_)
                hits = self.engine.search_span_first(row.text, int(row.k),
                                                     first_n=fn_)
            elif mode == "common":
                if role or tool or exclude:
                    raise ValueError(
                        "mode='common' does not compose with role/tool/"
                        "exclude filters")
                co = getattr(row, "cutoff", None)
                co = 50 if co is None or (isinstance(co, float)
                                          and co != co) else int(co)
                hits = self.engine.search_common_terms(row.text,
                                                       int(row.k),
                                                       cutoff_pct=co)
            elif mode == "boosting":
                if role or tool or exclude:
                    raise ValueError(
                        "mode='boosting' does not compose with role/tool/"
                        "exclude filters (the negative clause demotes; "
                        "use exclude= with mode=or for hard NOT)")
                neg = getattr(row, "negative", "") or ""
                if isinstance(neg, float):
                    neg = ""
                nb = getattr(row, "nb", None)
                nb = 0.5 if nb is None or (isinstance(nb, float)
                                           and nb != nb) else float(nb)
                hits = self.engine.search_boosting(row.text, neg,
                                                   int(row.k),
                                                   negative_boost=nb)
            elif mode == "dismax":
                if role or tool or exclude:
                    raise ValueError(
                        "mode='dismax' does not compose with role/tool/"
                        "exclude filters")
                tb = getattr(row, "tie", None)
                tb = 0.5 if tb is None or (isinstance(tb, float)
                                           and tb != tb) else float(tb)
                subqs = [p for p in str(row.text).split("|") if p.strip()]
                hits = self.engine.search_dismax(subqs, int(row.k),
                                                 tie_breaker=tb)
            elif mode == "phrase_prefix":
                if role or tool or exclude:
                    raise ValueError(
                        "mode='phrase_prefix' does not compose with "
                        "role/tool/exclude filters")
                mx = getattr(row, "max_exp", None)
                mx = 50 if mx is None or (isinstance(mx, float)
                                          and mx != mx) else int(mx)
                hits = self.engine.search_phrase_prefix(
                    row.text, int(row.k), max_expansions=mx)
            elif mode == "span_not":
                if role or tool or exclude:
                    raise ValueError(
                        "mode='span_not' does not compose with role/tool/"
                        "exclude filters (the negative clause is "
                        "positional)")
                neg = getattr(row, "negative", "") or ""
                if isinstance(neg, float):
                    neg = ""
                dv = getattr(row, "dist", None)
                dv = 2 if dv is None or (isinstance(dv, float)
                                         and dv != dv) else int(dv)
                hits = self.engine.search_span_not(row.text, neg,
                                                   int(row.k), dist=dv)
            elif mode == "boolean":
                if role or tool:
                    raise ValueError(
                        "mode='boolean' does not compose with role/tool "
                        "filters")
                msm = getattr(row, "msm", None)
                if msm is None or (isinstance(msm, float) and msm != msm):
                    msm = 0
                hits = self.engine.search_boolean(
                    row.text, should, exclude or "", int(row.k),
                    min_should_match=int(msm))
            elif mode == "qs":
                if role or tool or exclude:
                    # the query string carries its OWN -term / role: /
                    # tool: clauses — external filter params would be a
                    # second, silently-merged filter channel
                    raise ValueError(
                        "mode='qs' takes filters inside the query string "
                        "(role:x tool:x -term), not as parameters")
                hits = self.engine.search_querystring(row.text, int(row.k))
            elif mode == "near":
                if exclude:
                    raise ValueError("mode='near' does not compose with "
                                     "exclude")
                w = getattr(row, "window", None)
                w = 8 if w is None or (isinstance(w, float) and w != w) else int(w)
                hits = self.engine.search_near(row.text, int(row.k),
                                               window=w, role=role, tool=tool)
            elif mode == "lm":
                if role or tool or exclude:
                    raise ValueError(
                        "mode='lm' does not compose with role/tool/exclude "
                        "filters")
                hits = self.engine.search_lm(row.text, int(row.k))
            elif mode == "classic":
                if role or tool or exclude:
                    raise ValueError(
                        "mode='classic' does not compose with role/tool/"
                        "exclude filters")
                hits = self.engine.search_classic(row.text, int(row.k))
            elif mode == "phrase":
                sl = getattr(row, "slop", None)
                sl = 0 if sl is None or (isinstance(sl, float)
                                         and sl != sl) else int(sl)
                hits = self.engine.search_phrase(row.text, int(row.k),
                                                 role=role, tool=tool,
                                                 slop=sl)
            else:
                hits = self.engine.search(row.text, int(row.k), mode,
                                          role=role, tool=tool,
                                          exclude=exclude, boosts=boosts)
            for rank, (doc, score) in enumerate(hits, 1):
                out["query_id"].append(int(row.query_id))
                out["rank"].append(rank)
                out["doc_id"].append(doc)
                out["score"].append(score)
        return pd.DataFrame(
            {
                "query_id": pd.Series(out["query_id"], dtype="int64"),
                "rank": pd.Series(out["rank"], dtype="int64"),
                "doc_id": pd.Series(out["doc_id"], dtype="int64"),
                "score": pd.Series(out["score"], dtype="float64"),
            }
        )


def serve_queries(
    index_dir: str,
    queries: list[dict],
    n_actors: int = 8,
    mode: str = "or",
    chunks_per_actor: int = 4,
) -> tuple[pd.DataFrame, float]:
    """Steady-state serving: a warm persistent actor pool (the REST-service
    shape of the reference, rest.py:19-61 — one long-lived extractor).

    Spawns ``n_actors`` ScorerActors, warms each (mmaps + dict load), then
    fires the query list as round-robin async chunks.  Returns (results,
    seconds) where seconds covers only the warm scoring — the pool is
    long-lived in a serving deployment, so spawn cost is not throughput.
    """
    import time

    import ray

    from horus_ner_ray.util import worker_runtime_env

    env = worker_runtime_env()
    cls = ray.remote(num_cpus=1)(ScorerActor)
    if env:
        cls = cls.options(runtime_env=env)
    actors = [cls.remote(index_dir, mode) for _ in range(n_actors)]
    ray.get([a.warm.remote() for a in actors])
    qdf = pd.DataFrame(queries)
    n_chunks = max(1, min(len(qdf), n_actors * chunks_per_actor))
    bounds = np.linspace(0, len(qdf), n_chunks + 1, dtype=int)
    chunks = [qdf.iloc[lo:hi] for lo, hi in zip(bounds[:-1], bounds[1:]) if hi > lo]
    t0 = time.time()
    futs = [actors[i % n_actors].__call__.remote(c) for i, c in enumerate(chunks)]
    parts = ray.get(futs)
    wall = time.time() - t0
    for a in actors:
        ray.kill(a)
    out = pd.concat(parts, ignore_index=True) if parts else pd.DataFrame()
    return out, wall


def serve_queries_partitioned(
    index_dir: str,
    queries: list[dict],
    n_actors: int = 4,
    mode: str = "or",
) -> tuple[pd.DataFrame, float]:
    """Multi-node-shaped serving: shard dirs are partitioned round-robin
    across actors; every query fans out to every actor (scatter), each
    returns the exact top-k of ITS shards, and the driver merges the tiny
    per-actor candidate sets (gather).  Because shards partition documents,
    the union of per-subset top-k contains the global top-k — results are
    identical to single-actor serving (tested).  On a real cluster, each
    actor sits on the node holding its shards."""
    import time

    import ray

    from horus_ner_ray.state.shards import IndexPaths
    from horus_ner_ray.util import worker_runtime_env

    n_shards = len(IndexPaths(index_dir).published_shards())
    n_actors = max(1, min(n_actors, n_shards))
    subsets = [list(range(i, n_shards, n_actors)) for i in range(n_actors)]
    env = worker_runtime_env()
    cls = ray.remote(num_cpus=1)(ScorerActor)
    if env:
        cls = cls.options(runtime_env=env)
    actors = [cls.remote(index_dir, mode, sub) for sub in subsets]
    ray.get([a.warm.remote() for a in actors])
    qdf = pd.DataFrame(queries)
    t0 = time.time()
    futs = [a.__call__.remote(qdf) for a in actors]  # scatter
    parts = ray.get(futs)
    cand = pd.concat(parts, ignore_index=True)
    out = []
    for q in queries:  # gather: merge per-actor exact partials
        g = cand[cand.query_id == q["query_id"]]
        g = g.sort_values(["score", "doc_id"], ascending=[False, True],
                          kind="stable").head(int(q["k"]))
        g = g.assign(rank=np.arange(1, len(g) + 1))
        out.append(g[["query_id", "rank", "doc_id", "score"]])
    wall = time.time() - t0
    for a in actors:
        ray.kill(a)
    res = pd.concat(out, ignore_index=True) if out else pd.DataFrame()
    return res, wall


def score_queries(
    index_dir: str, queries: list[dict], concurrency: int = 4, mode: str = "or"
):
    """queries: [{query_id, text, k}] -> Dataset of (query_id, rank, doc_id,
    score) via an actor pool.  Single-node actors hold all shards (mmap;
    page cache shared).  Multi-node variant: partition shard dirs across
    actors and add a per-query partial-merge stage — same per-shard top-k
    contract, documented here rather than built because the sandbox is one
    node."""
    import ray.data as rd

    from horus_ner_ray.util import worker_runtime_env

    ds = rd.from_items(queries)
    return ds.map_batches(
        ScorerActor,
        fn_constructor_kwargs={"index_dir": index_dir, "mode": mode},
        batch_format="pandas",
        concurrency=concurrency,
        num_cpus=1,
        runtime_env=worker_runtime_env(),
    )


def histogram_pipeline(hist: dict[int, int]
                       ) -> list[tuple[int, int, int, int]]:
    """ES pipeline aggregations over a (date-)histogram: buckets
    DENSIFIED from min to max (the min_doc_count=0 gap-fill), each row
    (bucket, n, cum_n, delta) with cum_n the cumulative_sum and delta
    the derivative vs the previous bucket (the FIRST bucket's delta is
    its own count — derivative against the empty past).  Pure integer
    math; THE shared rule for engine, brute force, serving and the SQL
    oracle.  Empty histogram -> []."""
    if not hist:
        return []
    lo, hi = min(hist), max(hist)
    out = []
    cum = 0
    prev = 0
    for b in range(int(lo), int(hi) + 1):
        n = int(hist.get(b, 0))
        cum += n
        out.append((b, n, cum, n - prev))
        prev = n
    return out


AUTO_HISTO_LADDER_US: tuple[int, ...] = (
    1_000_000, 10_000_000, 60_000_000, 600_000_000, 3_600_000_000,
    10_800_000_000, 43_200_000_000, 86_400_000_000, 604_800_000_000,
    2_592_000_000_000, 7_776_000_000_000, 31_536_000_000_000,
)  # 1s 10s 1m 10m 1h 3h 12h 1d 7d 30d 90d 365d


def choose_auto_interval(lo_us: int, hi_us: int, target_buckets: int,
                         ladder: tuple[int, ...] = AUTO_HISTO_LADDER_US
                         ) -> int:
    """ES auto_date_histogram's interval rule: the SMALLEST ladder
    interval whose densified bucket span over [lo, hi] fits
    ``target_buckets`` (the largest interval when none does).  Pure
    integer floor division — THE shared rule for engine, brute force,
    serving and the SQL oracle (which restates the floor with the
    nonneg-mod idiom for negative epochs)."""
    if target_buckets <= 0:
        raise ValueError(f"target_buckets must be > 0, got {target_buckets}")
    for iv in ladder:
        if hi_us // iv - lo_us // iv + 1 <= target_buckets:
            return int(iv)
    return int(ladder[-1])


def histogram_moving(hist: dict[int, int], window: int
                     ) -> list[tuple[int, int, int, int]]:
    """ES moving-function average over a (date-)histogram: buckets
    densified min..max (min_doc_count=0), each row (bucket, n, mov_sum,
    mavg_e6) where mov_sum is the trailing-``window``-bucket count sum
    INCLUDING the current bucket and ``mavg_e6 = mov_sum * 1e6 //
    w_eff`` with ``w_eff = min(window, buckets so far)`` — pure integer
    math, THE shared rule across engine / serving / SQL.  Empty
    histogram -> []."""
    if window <= 0:
        raise ValueError(f"window must be > 0, got {window}")
    if not hist:
        return []
    lo, hi = min(hist), max(hist)
    out = []
    ns: list[int] = []
    for i, b in enumerate(range(int(lo), int(hi) + 1)):
        n = int(hist.get(b, 0))
        ns.append(n)
        w_eff = min(window, i + 1)
        mov = sum(ns[-window:])
        out.append((b, n, mov, mov * 1_000_000 // w_eff))
    return out


def select_fragment_anchors(positions, window: int,
                            n_fragments: int) -> list[int]:
    """Greedy non-overlapping fragment anchors — THE shared highlighter
    rule (engine / brute-force / serving / SQL all restate it): walk the
    ascending match positions, accept one iff it lies strictly beyond
    ``last_accepted + 2 * window`` (so the token windows cannot overlap),
    stop after ``n_fragments``.  Equivalent formulation used by the SQL
    oracle: a_1 = min(pos); a_{i+1} = min(pos > a_i + 2*window)."""
    out: list[int] = []
    last: int | None = None
    for p in positions:
        p = int(p)
        if last is None or p > last + 2 * window:
            out.append(p)
            last = p
            if len(out) >= n_fragments:
                break
    return out


def snippet_text(text: str, anchor: int, window: int) -> str:
    """The token window around ``anchor`` — ``tokens[anchor-window :
    anchor+window+1]`` of the UNFILTERED ``[a-z0-9]+`` stream of
    lower(text), space-joined.  Anchor coordinates are the positional
    index's (0-based, unfiltered stream), so the engine, the brute-force
    oracle, the serving pool and the SQL oracle all slice the same list.
    ONE implementation shared by all of them."""
    toks = _TOKEN_RE.findall((text or "").lower())
    lo = max(0, int(anchor) - window)
    return " ".join(toks[lo:int(anchor) + window + 1])


def highlight_spans(texts, query_text: str) -> list[list[tuple[int, int]]]:
    """Per text, character spans [start, end) of every token matching a
    query term — the reference REST route's annotated-sentence return
    (reference: webservice/rest.py:47-61 marks recognized entities in the
    sentence) re-expressed as spans the caller renders however it likes.

    Runs on a top-k result (k texts, not the corpus), so the per-text scan
    is request-sized by construction.  Spans are computed on the ORIGINAL
    text (case-insensitive token scan), never on ``lower(text)`` — Unicode
    lowercasing can change string length (e.g. U+0130 'İ' -> two chars),
    which would shift every span after it; matching in original
    coordinates keeps ``text[s:e]`` always the highlighted token.  A token
    whose lowercase differs in length from itself can't be ASCII
    ``[a-z0-9]+`` anyway, so this matches engine tokenization wherever a
    highlight is possible at all.
    """
    terms = set(query_terms(query_text))
    if not terms:
        return [[] for _ in texts]
    rx = re.compile("[a-zA-Z0-9]+")
    out = []
    for t in texts:
        s = t or ""
        out.append(
            [m.span() for m in rx.finditer(s) if m.group().lower() in terms])
    return out


def fetch_docs(index_dir: str | Path, doc_ids, columns: list[str] | None = None) -> pd.DataFrame:
    """Fetch original rows for a (small) doc_id list from the docstore —
    the snippet-return half of serving (the reference's REST route returns
    the annotated sentence text, webservice/rest.py:47-61).

    Docstore parts are doc_id-sorted Parquet with row-group statistics, so
    the predicate prunes row groups; the id list is a top-k result
    (requests are k-sized, not corpus-sized).  Rows return doc_id-ordered.
    """
    import pyarrow.dataset as pads

    ids = np.unique(np.asarray(list(doc_ids), dtype=np.int64))
    store = IndexPaths(index_dir).docstore
    files = sorted(str(p) for p in store.glob("part-*.parquet"))
    if len(ids) == 0 or not files:
        schema = pq.ParquetFile(files[0]).schema_arrow if files else None
        cols = columns or ([] if schema is None else schema.names)
        return pd.DataFrame({c: [] for c in cols})
    # doc_id is needed for the result ordering even when pruned out of the
    # caller's projection
    read_cols = None if columns is None else (
        columns if "doc_id" in columns else ["doc_id", *columns])
    tbl = pads.dataset(files).to_table(
        filter=pads.field("doc_id").isin(ids), columns=read_cols)
    df = tbl.to_pandas().sort_values("doc_id", kind="stable")
    if columns is not None and "doc_id" not in columns:
        df = df[columns]
    return df.reset_index(drop=True)


def fetch_conv_docs(index_dir: str | Path, conv_ids,
                    columns: list[str] | None = None) -> pd.DataFrame:
    """Conversation multi-get: every stored turn of the given conv_ids,
    doc_id-ordered (turn order under the rank doc-id rule) — the
    'show me the whole conversation around this hit' companion to
    ``fetch_docs``.  Same access path: docstore parts are Parquet with
    column statistics, the conv_id predicate prunes row groups, and the
    request is conversations-sized, not corpus-sized.  Raises if the
    index's docstore has no conv_id column (documents-mode builds)."""
    import pyarrow.dataset as pads

    cids = sorted({str(c) for c in conv_ids})
    store = IndexPaths(index_dir).docstore
    files = sorted(str(p) for p in store.glob("part-*.parquet"))
    if not files:
        return pd.DataFrame({c: [] for c in (columns or [])})
    schema = pq.ParquetFile(files[0]).schema_arrow.names
    if "conv_id" not in schema:
        raise ValueError(
            "docstore has no conv_id column — conversation fetch needs a "
            "transcript-mode build")
    read_cols = None if columns is None else (
        columns if "doc_id" in columns else ["doc_id", *columns])
    if not cids:
        return pd.DataFrame({c: [] for c in (read_cols or schema)})
    tbl = pads.dataset(files).to_table(
        filter=pads.field("conv_id").isin(cids), columns=read_cols)
    df = tbl.to_pandas().sort_values("doc_id", kind="stable")
    if columns is not None and "doc_id" not in columns:
        df = df[columns]
    return df.reset_index(drop=True)
