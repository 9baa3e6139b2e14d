"""End-to-end HTTP serving: live endpoint results match the brute-force
oracle (reference webservice analogue, rest.py:47-61)."""

import json
import threading
import urllib.parse
import urllib.request

import pytest

from horus_ner_ray.pipelines.query import BruteForceBM25


@pytest.fixture(scope="module")
def http_service(built_index, ray_session):
    from horus_ner_ray.serve import make_http_server

    idx, _ = built_index
    server, service = make_http_server(idx, port=0, n_actors=2)
    t = threading.Thread(target=server.serve_forever, daemon=True)
    t.start()
    yield f"http://127.0.0.1:{server.server_address[1]}"
    server.shutdown()
    service.close()


def _get(base: str, **params) -> dict:
    url = base + "/search?" + urllib.parse.urlencode(params)
    with urllib.request.urlopen(url, timeout=30) as r:
        return json.loads(r.read())


def test_http_matches_oracle(http_service, small_corpus):
    bf = BruteForceBM25.from_corpus_files(small_corpus)
    for q in ["sessionmark", "alpha beta", "the tok00042 uniqueedge1", "zzzqabsent"]:
        got = _get(http_service, q=q, k=5)["hits"]
        want = bf.search(q, k=5)
        assert [(h["doc_id"], h["score"]) for h in got] == [
            (d, s) for d, s in want
        ], q
        assert [h["rank"] for h in got] == list(range(1, len(got) + 1))


def test_http_and_mode_and_errors(http_service, small_corpus):
    bf = BruteForceBM25.from_corpus_files(small_corpus)
    got = _get(http_service, q="alpha beta", k=5, mode="and")["hits"]
    want = bf.search("alpha beta", k=5, mode="and")
    assert [(h["doc_id"], h["score"]) for h in got] == [(d, s) for d, s in want]
    # empty query -> empty hits, not an error
    assert _get(http_service, q="", k=5)["hits"] == []
    # unknown path -> 404
    try:
        urllib.request.urlopen(http_service + "/nope", timeout=10)
        raise AssertionError("expected 404")
    except urllib.error.HTTPError as e:
        assert e.code == 404


def test_http_error_paths(http_service):
    # malformed k -> clean 400
    for bad in ["/search?q=x&k=abc", "/search?q=x&mode=banana", "/search?q=x&k=-1"]:
        try:
            urllib.request.urlopen(http_service + bad, timeout=10)
            raise AssertionError("expected 400 for " + bad)
        except urllib.error.HTTPError as e:
            assert e.code == 400, bad
    # phrase mode on a positions-less index -> 500 (surfaced, not a hang)
    try:
        _get(http_service, q="alpha beta", k=3, mode="phrase")
        raise AssertionError("expected 500")
    except urllib.error.HTTPError as e:
        assert e.code == 500


def test_http_return_text(http_service, small_corpus):
    """&text=1 returns each hit's original document text, byte-equal to
    the source corpus (the reference route's annotated-sentence return)."""
    import pandas as pd
    import pyarrow.parquet as pq

    hits = _get(http_service, q="sessionmark", k=3, text=1)["hits"]
    assert hits and all("text" in h for h in hits)
    src = pd.concat(
        [pq.read_table(f).to_pandas() for f in small_corpus], ignore_index=True
    ).sort_values(["conv_id", "turn_idx"], kind="stable").reset_index(drop=True)
    for h in hits:
        assert h["text"] == src["text"].iloc[h["doc_id"]]
    # text=0 keeps the lean shape
    assert all("text" not in h for h in _get(http_service, q="sessionmark", k=3, text=0)["hits"])


def test_fetch_docs_text_equality(built_index, small_corpus):
    """Top-k ids -> original rows, byte-equal to the source table."""
    import pandas as pd
    import pyarrow.parquet as pq

    from horus_ner_ray.pipelines.query import QueryEngine, fetch_docs

    idx, _ = built_index
    eng = QueryEngine(idx)
    hits = eng.search("sessionmark", 5)
    ids = [d for d, _ in hits]
    got = fetch_docs(idx, ids)
    assert list(got["doc_id"]) == sorted(ids)
    # reconstruct the oracle's (conv_id, turn_idx) -> text map
    src = pd.concat(
        [pq.read_table(f).to_pandas() for f in small_corpus], ignore_index=True
    ).sort_values(["conv_id", "turn_idx"], kind="stable").reset_index(drop=True)
    src["doc_id"] = range(len(src))
    merged = got.merge(src, on="doc_id", suffixes=("", "_src"))
    assert (merged["text"] == merged["text_src"]).all()
    assert len(fetch_docs(idx, [])) == 0


def test_fetch_docs_column_pruned_without_doc_id(built_index):
    from horus_ner_ray.pipelines.query import fetch_docs

    idx, _ = built_index
    df = fetch_docs(idx, [0, 1, 2], columns=["text"])
    assert list(df.columns) == ["text"] and len(df) == 3


def test_http_highlight_spans(http_service, small_corpus):
    """&text=1 hits carry character spans of the matched query terms, and
    every span slices to a term of the query under the shared tokenizer."""
    hits = _get(http_service, q="sessionmark alpha", k=3, text=1)["hits"]
    assert hits
    for h in hits:
        assert isinstance(h["match_spans"], list) and h["match_spans"]
        for s, e in h["match_spans"]:
            assert h["text"][s:e].lower() in ("sessionmark", "alpha")


def test_highlight_spans_unit():
    from horus_ner_ray.pipelines.query import highlight_spans

    spans = highlight_spans(["Alpha beta ALPHA! x", "", None], "alpha zzz")
    assert spans[0] == [(0, 5), (11, 16)]
    assert spans[1] == [] and spans[2] == []
    assert highlight_spans(["anything"], "") == [[]]


def test_highlight_spans_unicode_safe():
    """Spans index the ORIGINAL text: a length-changing Unicode lowercase
    mapping before the match must not shift them."""
    from horus_ner_ray.pipelines.query import highlight_spans

    t = "İstanbul alpha beta"  # 'İ'.lower() is TWO characters
    (spans,) = highlight_spans([t], "alpha")
    assert len(spans) == 1
    s, e = spans[0]
    assert t[s:e] == "alpha"


def test_service_survives_actor_death(built_index, ray_session, small_corpus):
    """Killing a scorer actor mid-service must not error the next query:
    the service respawns the dead actor on its shard subset and results
    stay identical to the brute-force oracle."""
    import ray

    from horus_ner_ray.serve import QueryService

    idx, _ = built_index
    svc = QueryService(idx, n_actors=2)
    try:
        before = svc.search("sessionmark alpha", k=5)
        ray.kill(svc.actors[0])  # simulate node/worker loss
        after = svc.search("sessionmark alpha", k=5)
        assert after == before
        bf = BruteForceBM25.from_corpus_files(small_corpus)
        want = bf.search("sessionmark alpha", k=5)
        assert [(h["doc_id"], h["score"]) for h in after] == [
            (d, s) for d, s in want]
    finally:
        svc.close()


def test_http_expansion_modes_and_exclude(http_service, small_corpus):
    bf = BruteForceBM25.from_corpus_files(small_corpus)
    vocab = sorted(bf.postings)
    pre = vocab[10][:2]
    got = _get(http_service, q=pre + "*", k=5, mode="prefix")["hits"]
    want = bf.search_prefix(pre + "*", k=5)
    assert [(h["doc_id"], h["score"]) for h in got] == [(d, s) for d, s in want]

    typo = vocab[10][:-1] + "q" if len(vocab[10]) > 3 else vocab[10]
    got = _get(http_service, q=typo, k=5, mode="fuzzy")["hits"]
    want = bf.search_fuzzy(typo, k=5)
    assert [(h["doc_id"], h["score"]) for h in got] == [(d, s) for d, s in want]

    sub = vocab[10][1:3]
    got = _get(http_service, q=sub, k=5, mode="contains")["hits"]
    want = bf.search_contains(sub, k=5)
    assert [(h["doc_id"], h["score"]) for h in got] == [(d, s) for d, s in want]

    ex = vocab[3]
    got = _get(http_service, q="the session data", k=5, exclude=ex)["hits"]
    want = bf.search("the session data", k=5, exclude=ex)
    assert [(h["doc_id"], h["score"]) for h in got] == [(d, s) for d, s in want]

    # expansion modes reject filters loudly
    import urllib.error
    try:
        _get(http_service, q="x", k=5, mode="fuzzy", role="user")
        raise AssertionError("expected 400")
    except urllib.error.HTTPError as e:
        assert e.code == 400


def test_http_explain_and_histogram(http_service, small_corpus, built_index):
    """/explain rows sum bitwise to the doc's served score; /histogram
    equals the engine-level histogram; bad params are clean 400s."""
    from horus_ner_ray.pipelines.query import QueryEngine

    hits = _get(http_service, q="the session data", k=3)["hits"]
    assert hits
    # explain route
    for h in hits:
        url = http_service + "/explain?" + urllib.parse.urlencode(
            {"q": "the session data", "doc": h["doc_id"]})
        with urllib.request.urlopen(url, timeout=30) as r:
            rows = json.loads(r.read())["terms"]
        acc = 0.0
        for row in rows:
            acc += row["contribution"]
        assert acc == h["score"]
    # histogram route vs engine
    idx, _ = built_index
    eng = QueryEngine(idx)
    url = http_service + "/histogram?" + urllib.parse.urlencode(
        {"q": "the session data", "interval": 3_600_000_000})
    with urllib.request.urlopen(url, timeout=30) as r:
        got = json.loads(r.read())["buckets"]
    want = eng.date_histogram("the session data", interval_us=3_600_000_000)
    assert got == {str(b): c for b, c in want.items()}
    assert len(got) > 1
    # bad params -> 400
    for bad in ["/explain?q=x&doc=abc", "/histogram?q=x&interval=0"]:
        try:
            urllib.request.urlopen(http_service + bad, timeout=10)
            raise AssertionError("expected 400 for " + bad)
        except urllib.error.HTTPError as e:
            assert e.code == 400, bad


def test_http_pagination_and_stats(http_service, small_corpus):
    """Cursor paging over HTTP chains exactly (page2 = strict successors
    of page1's last hit, float cursor surviving the repr round-trip);
    /stats reports the collection numbers; cursor+filter is a 400."""
    bf = BruteForceBM25.from_corpus_files(small_corpus)
    p1 = _get(http_service, q="the session data", k=5)["hits"]
    last = p1[-1]
    p2 = _get(http_service, q="the session data", k=5,
              after_doc=last["doc_id"], after_score=repr(last["score"]))["hits"]
    want = bf.search_after("the session data", 5,
                           cursor=(last["doc_id"], last["score"]))
    assert [(h["doc_id"], h["score"]) for h in p2] == want
    assert [(h["doc_id"], h["score"]) for h in p1 + p2] == bf.search_after(
        "the session data", 10)
    s = json.loads(urllib.request.urlopen(
        http_service + "/stats", timeout=10).read())
    assert s["n_docs"] > 0 and s["n_shards"] > 0 and s["n_deleted"] == 0
    try:
        urllib.request.urlopen(
            http_service + "/search?q=x&after_doc=1&after_score=0.5&role=user",
            timeout=10)
        raise AssertionError("expected 400")
    except urllib.error.HTTPError as e:
        assert e.code == 400


def test_http_boolean_mode(http_service, small_corpus):
    """mode=boolean over HTTP: q = must, &should= boosts, &exclude= =
    must_not — exact vs the oracle; boolean+role is a clean 400."""
    bf = BruteForceBM25.from_corpus_files(small_corpus)
    got = _get(http_service, q="the", k=5, mode="boolean",
               should="alpha beta", exclude="sessionmark")["hits"]
    want = bf.search_boolean("the", "alpha beta", "sessionmark", 5)
    assert [(h["doc_id"], h["score"]) for h in got] == want
    for bad in ["/search?q=a&mode=boolean&role=user",
                "/search?q=a&mode=or&should=b"]:
        try:
            urllib.request.urlopen(http_service + bad, timeout=10)
            raise AssertionError("expected 400 for " + bad)
        except urllib.error.HTTPError as e:
            assert e.code == 400, bad


def test_http_boolean_composition_rejections(http_service):
    """boolean+cursor and should+non-boolean are clean 400s (not actor
    500s) — code-review regression pins."""
    for bad in ["/search?q=a&mode=boolean&after_doc=5&after_score=1.0",
                "/search?q=a&mode=phrase&should=b",
                "/search?q=a&mode=boolean&tool=grep"]:
        try:
            urllib.request.urlopen(http_service + bad, timeout=10)
            raise AssertionError("expected 400 for " + bad)
        except urllib.error.HTTPError as e:
            assert e.code == 400, bad


def test_http_batch_and_analyze(http_service, small_corpus):
    import urllib.request as _rq

    bf = BruteForceBM25.from_corpus_files(small_corpus)
    body = json.dumps({"queries": [
        {"id": "a", "q": "sessionmark", "k": 3},
        {"id": "b", "q": "alpha beta", "k": 5, "mode": "and"},
        {"id": "c", "q": "zzzqabsent", "k": 5},
    ]}).encode()
    req = _rq.Request(http_service + "/batch", data=body,
                      headers={"Content-Type": "application/json"})
    with _rq.urlopen(req, timeout=30) as r:
        res = json.loads(r.read())["results"]
    assert [e["id"] for e in res] == ["a", "b", "c"]
    assert [(h["doc_id"], h["score"]) for h in res[0]["hits"]] == \
        bf.search("sessionmark", 3)
    assert [(h["doc_id"], h["score"]) for h in res[1]["hits"]] == \
        bf.search("alpha beta", 5, mode="and")
    assert res[2]["hits"] == []
    # malformed body / unknown mode -> clean 400
    for bad in (b"{}", json.dumps({"queries": [{"q": "x",
                                                "mode": "nope"}]}).encode()):
        req = _rq.Request(http_service + "/batch", data=bad)
        try:
            _rq.urlopen(req, timeout=10)
            raise AssertionError("expected 400")
        except urllib.error.HTTPError as e:
            assert e.code == 400
    # analyze: tokens + positions under the shared rule
    with _rq.urlopen(http_service +
                     "/analyze?q=Hello%2C%20World-42", timeout=10) as r:
        j = json.loads(r.read())
    assert j["tokens"] == [{"token": "hello", "position": 0},
                           {"token": "world", "position": 1},
                           {"token": "42", "position": 2}]


def test_http_docs_multiget(http_service, small_corpus):
    import pandas as pd
    import pyarrow.parquet as pq

    # ground truth rows keyed by rank doc_id
    df = pd.concat([pq.read_table(f).to_pandas() for f in small_corpus],
                   ignore_index=True).sort_values(
        ["conv_id", "turn_idx"], kind="stable").reset_index(drop=True)
    with urllib.request.urlopen(http_service + "/docs?ids=5,2,9",
                                timeout=30) as r:
        docs = json.loads(r.read())["docs"]
    assert [d["doc_id"] for d in docs] == [2, 5, 9]  # doc_id-ordered
    for d in docs:
        assert d["text"] == df["text"].iloc[d["doc_id"]]
    for bad in ("/docs?ids=", "/docs?ids=x", "/docs"):
        try:
            urllib.request.urlopen(http_service + bad, timeout=10)
            raise AssertionError("expected 400")
        except urllib.error.HTTPError as e:
            assert e.code == 400


def _expect_code(base: str, path_qs: str, code: int) -> None:
    import urllib.error

    try:
        urllib.request.urlopen(base + path_qs, timeout=30)
        raise AssertionError(f"expected HTTP {code} for {path_qs}")
    except urllib.error.HTTPError as e:
        assert e.code == code, (path_qs, e.code)


def test_http_session5_routes_match_engine(http_service, built_index):
    """The session-5 GET routes reproduce the direct engine results."""
    from horus_ner_ray.pipelines.query import QueryEngine

    idx, _ = built_index
    eng = QueryEngine(idx)
    base = http_service

    r = json.load(urllib.request.urlopen(
        base + "/search?q=the+sessionmark&k=5&boost=sessionmark:8"))
    assert [(h["doc_id"], h["score"]) for h in r["hits"]] == \
        eng.search("the sessionmark", k=5, boosts={"sessionmark": 8.0})

    r = json.load(urllib.request.urlopen(base + "/collapse?q=the+session&k=4"))
    assert [(h["conv_id"], h["doc_id"], h["score"]) for h in r["hits"]] == \
        eng.search_collapse("the session", k=4)

    r = json.load(urllib.request.urlopen(
        base + "/grouped?q=the+session&field=role&k=2"))
    assert {v: [(h["doc_id"], h["score"]) for h in hs]
            for v, hs in r["groups"].items()} == \
        eng.search_grouped("the session", field="role", k=2)

    r = json.load(urllib.request.urlopen(
        base + "/rescore?q=the+session&k=5&window=20"))
    assert [(h["doc_id"], h["score"]) for h in r["hits"]] == \
        eng.rescore_lm("the session", k=5, window=20)

    r = json.load(urllib.request.urlopen(
        base + "/fused?q=the+session&k=5&window=20"))
    assert [(h["doc_id"], h["rrf"]) for h in r["hits"]] == \
        eng.search_fused("the session", k=5, window=20)

    now_us = 1_750_000_000_000_000
    r = json.load(urllib.request.urlopen(
        base + f"/recency?q=the+session&k=5&now={now_us}&horizon=2592000"))
    assert [(h["doc_id"], h["score_e6"]) for h in r["hits"]] == \
        eng.search_recency("the session", k=5, now_us=now_us,
                           horizon_s=2592000)

    r = json.load(urllib.request.urlopen(base + "/corrected?q=sessionnark&k=5"))
    terms, hits = eng.search_corrected("sessionnark", k=5)
    assert r["corrected"] == terms
    assert [(h["doc_id"], h["score"]) for h in r["hits"]] == hits

    r = json.load(urllib.request.urlopen(base + "/relaxed?q=the+zzzqabsent&k=5"))
    tier, hits = eng.search_relaxed("the zzzqabsent", k=5)
    assert r["tier"] == tier
    assert [(h["doc_id"], h["score"]) for h in r["hits"]] == hits

    r = json.load(urllib.request.urlopen(base + "/termvectors?doc=3"))
    assert [(x["term"], x["tf"], x["df"]) for x in r["terms"]] == \
        eng.term_vector(3)

    r = json.load(urllib.request.urlopen(base + "/percentile?q=the&p=0.5"))
    want = eng.field_percentile("the", q=0.5)
    assert r["count"] == want["count"] and r["value"] == want["value"]


def test_http_session5_routes_reject_bad_params(http_service):
    """Every new route returns a clean 400 on malformed input, never a
    500 or a hang."""
    base = http_service
    for path_qs in [
        "/search?q=a&boost=nocolon",                # malformed boost spec
        "/search?q=a&boost=x:0",                    # non-positive boost
        "/search?q=a&boost=x:2&mode=phrase",        # boost needs or/and
        "/search?q=a&slop=2",                       # slop needs phrase
        "/search?q=a&slop=-1&mode=phrase",          # negative slop
        "/collapse?q=a&k=-1",                       # negative k
        "/collapse?q=a&mode=phrase",                # collapse or/and only
        "/grouped?q=a&mode=lm",                     # grouped or/and only
        "/rescore?q=a&mu=0",                        # mu must be > 0
        "/rescore?q=a&window=-2",                   # negative window
        "/fused?q=a&k_rrf=0",                       # k_rrf must be >= 1
        "/fused?q=a&window=-2",                     # negative window
        "/recency?q=a&horizon=0",                   # horizon must be > 0
        "/recency?q=a&mode=phrase",                 # recency or/and only
        "/corrected?q=a&dist=-1",                   # negative dist
        "/relaxed?q=a&k=-3",                        # negative k
        "/termvectors?doc=notanint",                # malformed doc id
        "/percentile?q=a&p=0",                      # p out of (0, 1]
        "/percentile?q=a&p=1.5",
        "/percentile?q=a&mode=phrase",              # percentile or/and only
    ]:
        _expect_code(base, path_qs, 400)


def test_http_boosting_dismax_modes(http_service, built_index):
    """The boosting / dismax modes reproduce direct engine results over
    HTTP, and their params validate cleanly."""
    from horus_ner_ray.pipelines.query import QueryEngine

    idx, _ = built_index
    eng = QueryEngine(idx)
    base = http_service

    r = _get(base, q="tok00007 tok00011", k=5, mode="boosting",
             negative="tok00011", nb=0.25)
    assert [(h["doc_id"], h["score"]) for h in r["hits"]] == \
        eng.search_boosting("tok00007 tok00011", "tok00011", k=5,
                            negative_boost=0.25)

    r = _get(base, q="tok00007 tok00011|the sessionmark", k=5,
             mode="dismax", tie=0.25)
    assert [(h["doc_id"], h["score"]) for h in r["hits"]] == \
        eng.search_dismax(["tok00007 tok00011", "the sessionmark"],
                          k=5, tie_breaker=0.25)

    for path_qs in [
        "/search?q=a&mode=boosting&nb=0",          # nb out of (0, 1]
        "/search?q=a&mode=boosting&nb=1.5",
        "/search?q=a&negative=x",                  # negative needs boosting
        "/search?q=a&nb=0.5",                      # nb needs boosting
        "/search?q=a&tie=0.5",                     # tie needs dismax
        "/search?q=a&mode=dismax&tie=1.5",         # tie out of [0, 1]
        "/search?q=a&max_exp=10",                  # max_exp needs pp mode
        "/search?q=a+b&mode=phrase_prefix&max_exp=0",  # max_exp >= 1
        "/search?q=a&mode=boosting&role=user",     # no filter composition
        "/search?q=a&mode=dismax&exclude=x",
    ]:
        _expect_code(base, path_qs, 400)


def test_http_fragments_route(small_corpus, tmp_path_factory, ray_session):
    """/fragments over a positions index matches the engine."""
    import threading

    from horus_ner_ray.config import PipelineConfig
    from horus_ner_ray.pipelines.build_index import build_index
    from horus_ner_ray.pipelines.query import QueryEngine
    from horus_ner_ray.serve import make_http_server

    idx = tmp_path_factory.mktemp("fragidx") / "idx"
    build_index(small_corpus, idx,
                PipelineConfig(num_shards=4, with_positions=True))
    server, service = make_http_server(str(idx), port=0, n_actors=2)
    t = threading.Thread(target=server.serve_forever, daemon=True)
    t.start()
    base = f"http://127.0.0.1:{server.server_address[1]}"
    try:
        eng = QueryEngine(str(idx))
        r = json.load(urllib.request.urlopen(
            base + "/fragments?q=the+sessionmark&k=4&window=2&n=3"))
        want = eng.search_fragments("the sessionmark", k=4, window=2,
                                    n_fragments=3)
        assert [(h["doc_id"], h["score"], h["fragments"])
                for h in r["hits"]] == [(d, s, f) for d, s, f in want]
        _expect_code(base, "/fragments?q=a&n=0", 400)
    finally:
        server.shutdown()
        service.close()


def test_http_batch_new_modes(http_service, built_index):
    """POST /batch carries the session-6 mode params through the one-
    scatter path."""
    from horus_ner_ray.pipelines.query import QueryEngine

    idx, _ = built_index
    eng = QueryEngine(idx)
    body = json.dumps({"queries": [
        {"id": "b", "q": "tok00007 tok00011", "k": 3, "mode": "boosting",
         "negative": "tok00011", "nb": 0.25},
        {"id": "d", "q": "tok00007|the sessionmark", "k": 3,
         "mode": "dismax", "tie": 0.25},
    ]}).encode()
    req = urllib.request.Request(http_service + "/batch", data=body,
                                 headers={"Content-Type":
                                          "application/json"})
    with urllib.request.urlopen(req, timeout=30) as r:
        res = json.loads(r.read())["results"]
    want_b = eng.search_boosting("tok00007 tok00011", "tok00011", k=3,
                                 negative_boost=0.25)
    want_d = eng.search_dismax(["tok00007", "the sessionmark"], k=3,
                               tie_breaker=0.25)
    got = {e["id"]: [(h["doc_id"], h["score"]) for h in e["hits"]]
           for e in res}
    assert got["b"] == want_b and got["d"] == want_d


def test_http_get_and_batch_agree_on_status(http_service):
    """The same entries sent as GET /search and as a one-entry POST /batch
    get the same status: 200 for every mode GET accepts, 400 for options
    the route or an actor rejects."""
    entries = [
        ({"q": "alpha beta", "mode": "or"}, 200),
        ({"q": "alphas", "mode": "stemmed"}, 200),
        ({"q": "alpha AND beta", "mode": "qs"}, 200),
        ({"q": "alpha", "mode": "and", "boost": "alpha:2"}, 200),
        ({"q": "alpha beta", "mode": "nope"}, 400),
        ({"q": "alpha beta", "mode": "phrase", "boost": "alpha:2"}, 400),
        ({"q": "alpha beta", "mode": "or", "slop": 2}, 400),
        ({"q": "alpha", "mode": "and", "boost": "alpha:-1"}, 400),
    ]

    def status(req) -> int:
        try:
            with urllib.request.urlopen(req, timeout=30) as r:
                return r.status
        except urllib.error.HTTPError as e:
            return e.code

    for e, want in entries:
        get = status(http_service + "/search?" + urllib.parse.urlencode(e))
        post = status(urllib.request.Request(
            http_service + "/batch", data=json.dumps({"queries": [e]}).encode(),
            headers={"Content-Type": "application/json"}))
        assert (get, post) == (want, want), e


def test_http_conv_route(http_service, small_corpus):
    """GET /conv returns every stored turn of the conv, doc-ordered,
    text-equal to the source table; missing id= is a clean 400."""
    import pyarrow.parquet as pq

    src = pq.read_table(small_corpus,
                        columns=["conv_id", "turn_idx", "text"]).to_pandas()
    cid = sorted(src["conv_id"].astype(str).unique())[0]
    url = http_service.replace("/search?", "") + "/conv?" + \
        urllib.parse.urlencode({"id": cid})
    with urllib.request.urlopen(url, timeout=30) as r:
        got = json.loads(r.read())
    assert got["conv_id"] == cid
    turns = got["turns"]
    want = src[src["conv_id"].astype(str) == cid].sort_values("turn_idx")
    assert len(turns) == len(want)
    assert [t["text"] for t in turns] == want["text"].tolist()
    docs = [t["doc_id"] for t in turns]
    assert docs == sorted(docs)
    try:
        urllib.request.urlopen(http_service + "/conv", timeout=10)
        raise AssertionError("expected 400")
    except urllib.error.HTTPError as e:
        assert e.code == 400


def test_http_common_terms_mode(http_service, small_corpus):
    """mode=common through the pool/HTTP: rank-identical to the oracle's
    CommonTermsQuery; cutoff= gated to the mode."""
    bf = BruteForceBM25.from_corpus_files(small_corpus)
    for q, pct in (("the tok00042", 50), ("sessionmark the user", 30)):
        got = _get(http_service, q=q, k=8, mode="common", cutoff=pct)["hits"]
        want = bf.search_common_terms(q, k=8, cutoff_pct=pct)
        assert [(h["doc_id"], h["score"]) for h in got] == \
            [(d, s) for d, s in want], (q, pct)
    try:
        _get(http_service, q="the", k=3, cutoff=40)
        raise AssertionError("expected 400")
    except urllib.error.HTTPError as e:
        assert e.code == 400


def test_http_auto_and_moving_histogram(http_service, built_index):
    """/histogram&auto= picks the ladder interval via the shared rule
    (identical to QueryEngine.auto_date_histogram); &moving= appends the
    moving-average rows; interval+auto together is a clean 400."""
    from horus_ner_ray.pipelines.query import QueryEngine, histogram_moving

    idx, _ = built_index
    eng = QueryEngine(idx)
    url = http_service + "/histogram?" + urllib.parse.urlencode(
        {"q": "the session data", "auto": 10, "moving": 3})
    with urllib.request.urlopen(url, timeout=30) as r:
        body = json.loads(r.read())
    iv, hist = eng.auto_date_histogram("the session data",
                                       target_buckets=10)
    assert body["interval_us"] == iv
    assert body["buckets"] == {str(b): c for b, c in sorted(hist.items())}
    assert body["moving"] == [
        {"bucket": b, "n": n, "mov_sum": s, "mavg_e6": a}
        for b, n, s, a in histogram_moving(hist, 3)]
    for bad in ["/histogram?q=x&auto=5&interval=1000",
                "/histogram?q=x&auto=-1", "/histogram?q=x&moving=-2"]:
        _expect_code(http_service, bad, 400)


def test_auto_histogram_rules_and_parity(built_index, small_corpus):
    """choose_auto_interval ladder semantics + engine vs brute parity of
    the full auto histogram (interval AND buckets)."""
    import pytest as _pytest

    from horus_ner_ray.pipelines.query import (
        AUTO_HISTO_LADDER_US,
        BruteForceBM25,
        QueryEngine,
        choose_auto_interval,
        histogram_moving,
    )

    # rule unit: tight span -> smallest interval; huge span -> capped
    assert choose_auto_interval(0, 5_000_000, 20) == 1_000_000
    assert choose_auto_interval(0, 10**18, 2) == AUTO_HISTO_LADDER_US[-1]
    with _pytest.raises(ValueError):
        choose_auto_interval(0, 1, 0)
    # moving rule: warm-up divides by buckets-so-far
    assert histogram_moving({0: 4, 2: 2}, 2) == [
        (0, 4, 4, 4_000_000), (1, 0, 4, 2_000_000), (2, 2, 2, 1_000_000)]
    with _pytest.raises(ValueError):
        histogram_moving({0: 1}, 0)
    idx, _res = built_index
    eng = QueryEngine(idx)
    bf = BruteForceBM25.from_corpus_files(small_corpus)
    for q in ["the session data", "tok00042", "zzznotfound"]:
        assert eng.auto_date_histogram(q, 12) == bf.auto_date_histogram(q, 12)
