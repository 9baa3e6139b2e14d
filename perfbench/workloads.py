"""The three benchmark workloads, run through the public API of
``horus_ner_ray`` in a fresh local Ray session.

Every workload walks the same steps; only the set-up boundary, the query set
and the index state the queries see differ:

  ingest          set-up: session + corpus.  Timed: build_index (3 builds),
                  delete/compact rounds on a copy, delete_by_conv on the
                  served index, service warm-up, then the diverse set over
                  the TOMBSTONED index in rounds (GET /search, POST /batch
                  and engine-direct in each).
  search-diverse  set-up: session + corpus + build_index + service warm-up.
                  Timed: delete/compact rounds on a copy, then the diverse
                  set over the clean index in rounds (GET, batch,
                  engine-direct).
  search-hot      as search-diverse with the 10 reference queries cycled.

All answers are kept and checked after the timed windows (checks.py).
"""

from __future__ import annotations

import gc
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import numpy as np

import layers
import queries as qgen

HERE = Path(__file__).resolve().parent
WORKLOADS = ("ingest", "search-diverse", "search-hot")
K = 10
DELETE_SHARE = 0.05
MAINT_ROUNDS = 3
DELETE_CALLS = 4
INGEST_BUILDS = 3
ROUNDS = 7  # prime to queries.MAX_TERMS: every round gets the same query mix


@dataclass(frozen=True)
class Size:
    n_convs: int          # synthetic conversations (about 7.2 turns each)
    convs_per_file: int   # corpus fragment size
    ingest_shards: int
    search_shards: int
    queries_per_s: int    # queries per second of --seconds
    oracle_sample: int    # queries checked against BruteForceBM25
    chunk: int            # POST /batch entries per request


SIZES = {
    "full": Size(2400, 150, 32, 16, 24, 40, 26),
    "tiny": Size(240, 60, 4, 4, 40, 10, 10),
}


def _pctl(values: list[float], q: float) -> float:
    """Nearest-rank percentile; failed requests enter as +inf."""
    s = sorted(values)
    return s[max(0, math.ceil(q * len(s)) - 1)]


@contextmanager
def quiet_gc():
    """Collect, then freeze what the process already holds, so collections
    inside a timed section walk only the objects the section creates."""
    gc.collect()
    gc.freeze()
    try:
        yield
    finally:
        gc.unfreeze()


def steal_s() -> float:
    """CPU time the hypervisor gave to other guests since boot, summed over
    CPUs (/proc/stat); a run's share of it shows host interference."""
    fields = Path("/proc/stat").read_text().split("\n", 1)[0].split()
    return int(fields[8]) / os.sysconf("SC_CLK_TCK")


def _hits(rows) -> list[tuple[int, float]]:
    return [(int(d), float(s)) for d, s in rows]


class PoolProbe:
    """Stands in for ``QueryService.search`` on the service instance the
    HTTP front calls: records each call's duration and answer."""

    def __init__(self, service):
        self.inner = service.search
        self.times: list[float] = []
        self.answers: dict[tuple[str, str], list] = {}
        service.search = self

    def __call__(self, text, *a, **kw):
        t = perf_counter()
        out = self.inner(text, *a, **kw)
        self.times.append(perf_counter() - t)
        self.answers[(text, kw.get("mode"))] = [(h["doc_id"], h["score"]) for h in out]
        return out


def actor_rss_mb() -> tuple[float, int]:
    """Summed VmRSS of this process's ScorerActor descendants, from /proc."""
    me = os.getpid()

    def parent(pid: int) -> int:
        try:
            for line in Path(f"/proc/{pid}/status").read_text().splitlines():
                if line.startswith("PPid:"):
                    return int(line.split()[1])
        except OSError:
            pass
        return 0

    total_kb = n = 0
    for d in Path("/proc").iterdir():
        if not d.name.isdigit():
            continue
        try:
            if b"ScorerActor" not in (d / "cmdline").read_bytes():
                continue
            status = (d / "status").read_text()
        except OSError:
            continue
        p = int(d.name)
        while p > 1 and p != me:
            p = parent(p)
        if p != me:
            continue
        for line in status.splitlines():
            if line.startswith("VmRSS:"):
                total_kb += int(line.split()[1])
                n += 1
    return total_kb / 1024.0, n


class Bench:
    def __init__(self, workload: str, seed: int, seconds: int, trace: bool,
                 size: str, workdir: Path, ray_tmp: Path):
        if workload not in WORKLOADS:
            raise ValueError(f"unknown workload {workload!r}")
        self.workload, self.seed, self.seconds, self.trace = workload, seed, seconds, trace
        self.size = SIZES[size]
        self.workdir, self.ray_tmp = workdir, ray_tmp
        self.index = str(workdir / "index")
        self.ncpu = os.cpu_count() or 1
        self.attempted = self.failed = 0
        self.e2e: dict[str, float] = {}
        self.layer: dict[str, float] = {}
        self.detail: dict = {"workload": workload, "seed": seed, "seconds": seconds}
        self.ev: dict = {"k": K, "absent_term": qgen.ABSENT_TERM}
        self.windows: dict = {}  # wall-clock spans for the timeline
        self.server = self.service = self.probe = None
        self._server_thread = None
        self._t0, self._steal0 = perf_counter(), steal_s()
        self.detail["steps_s"] = {}
        self.detail["steal_s"] = {}

    def _step(self, name: str) -> None:
        """Record when a step ended and the host steal time so far, in
        seconds since the run began."""
        self.detail["steps_s"][name] = perf_counter() - self._t0
        self.detail["steal_s"][name] = steal_s() - self._steal0

    # -- session ------------------------------------------------------------

    def _start_session(self) -> None:
        import ray

        ray.init(address="local", num_cpus=self.ncpu, log_to_driver=False,
                 include_dashboard=False, logging_level="ERROR",
                 object_store_memory=512 * 1024 * 1024,
                 _temp_dir=str(self.ray_tmp))
        import ray.data as rd

        rd.DataContext.get_current().enable_progress_bars = False

        # one task per CPU slot, each holding its slot: the worker pool
        # widens to every CPU and imports the package before any timing
        @ray.remote(num_cpus=1)
        def hold():
            import pyarrow.parquet  # noqa: F401

            import horus_ner_ray.pipelines.build_index  # noqa: F401
            import horus_ner_ray.pipelines.delete  # noqa: F401

            time.sleep(0.2)

        ray.get([hold.remote() for _ in range(self.ncpu)])
        # the session's first Ray Data execution sets up its executor
        rd.range(self.ncpu, override_num_blocks=self.ncpu).count()

    def close(self) -> None:
        self._serve_stop()
        import ray

        if ray.is_initialized():
            ray.shutdown()

    # -- maintenance steps ----------------------------------------------------

    def _op(self, fn, *a, **kw):
        """One maintenance call, counted; a failure ends the run."""
        self.attempted += 1
        try:
            return fn(*a, **kw)
        except Exception:
            self.failed += 1
            raise

    def _build(self, shards: int, builds: int = 1) -> None:
        """Build the index; ``builds`` > 1 rebuilds into scratch directories
        for more timing samples (median)."""
        from horus_ner_ray.config import PipelineConfig
        from horus_ner_ray.pipelines.build_index import build_index

        rates = []
        self.windows["build"] = []
        for b in range(builds):
            out = self.index if b == 0 else str(self.workdir / f"rebuild{b}")
            with quiet_gc():
                w0, t0 = time.time(), perf_counter()
                res = self._op(build_index, self.files, out, PipelineConfig(num_shards=shards))
                wall = perf_counter() - t0
            self.windows["build"].append((w0, time.time()))
            rates.append(res.n_docs / wall)
            if b == 0:
                total = layers.tree_bytes(self.index)
                first = res
            else:
                shutil.rmtree(out)
        res = first
        self.e2e["build_turns_per_s"] = statistics.median(rates)
        self.e2e["index_bytes_per_turn"] = total / res.n_docs
        self.layer.update(layers.index_sizes(self.index))
        self.ev["built"] = {"n_docs": res.n_docs, "total_tokens": res.total_tokens}
        self.detail["build"] = {"turns_per_s": rates, "turns": res.n_docs, "tokens": res.total_tokens,
                                "shards": res.n_shards, "fragments": res.n_fragments,
                                "index_bytes": total}

    def _pick_deletions(self) -> None:
        """``MAINT_ROUNDS`` disjoint seeded sets, each ``DELETE_SHARE`` of
        the corpus's conversations, one per delete/compact round."""
        import pyarrow.parquet as pq

        convs = sorted(set(pq.read_table(self.files, columns=["conv_id"])["conv_id"].to_pylist()))
        per = max(1, round(DELETE_SHARE * len(convs)))
        rng = np.random.default_rng([self.seed, 23])
        pick = rng.choice(len(convs), size=per * MAINT_ROUNDS, replace=False)
        self.delete_sets = [sorted(convs[i] for i in pick[r * per:(r + 1) * per])
                            for r in range(MAINT_ROUNDS)]
        self.detail["deleted_convs_per_round"] = per
        self.maint: dict[str, list[float]] = {k: [] for k in (
            "delete_s", "compact_turns_per_s", "delete.scan_busy_s",
            "delete.compact_busy_s", "delete.compact_bytes_rewritten")}

    def _delete(self, r: int) -> None:
        """Tombstone round ``r``'s conversations in the maintenance copy.
        The call is idempotent (a union with the same set), so it runs
        ``DELETE_CALLS`` times for more timing samples."""
        from horus_ner_ray.pipelines.delete import delete_by_conv

        w0 = time.time()
        for _ in range(DELETE_CALLS):
            with quiet_gc():
                t0 = perf_counter()
                self._op(delete_by_conv, self.maint_index, self.delete_sets[r])
                self.maint["delete_s"].append(perf_counter() - t0)
        self.windows[f"delete{r}"] = (w0, time.time())

    def _compact(self, r: int) -> None:
        from horus_ner_ray.pipelines.delete import compact_index

        before = layers.snapshot(self.maint_index)
        with quiet_gc():
            w0, t0 = time.time(), perf_counter()
            res = self._op(compact_index, self.maint_index)
            wall = perf_counter() - t0
        self.windows[f"compact{r}"] = (w0, time.time())
        self.maint["compact_turns_per_s"].append(res["n_docs"] / wall)
        self.maint["delete.compact_bytes_rewritten"].append(
            layers.bytes_rewritten(before, layers.snapshot(self.maint_index)))

    def _maintenance(self) -> None:
        """Delete/compact rounds on a copy of the clean index, made while
        the worker pool is warm and before the serving actors take the CPUs
        (the served index keeps its state).  Every round starts from the
        same kind of state, a compacted index without tombstones (round 0:
        the fresh build), so every sample times the same work.  Medians
        over the rounds."""
        from horus_ner_ray.pipelines.query import QueryEngine

        self.maint_index = str(self.workdir / "maint")
        shutil.copytree(self.index, self.maint_index)
        for r in range(MAINT_ROUNDS):
            self._delete(r)
            self._compact(r)
        self.ev["n_docs_compacted"] = QueryEngine(self.maint_index).n_docs
        self.detail["maintenance_rounds"] = self.maint
        self.e2e["delete_s"] = statistics.median(self.maint["delete_s"])
        self.e2e["compact_turns_per_s"] = statistics.median(self.maint["compact_turns_per_s"])
        self.layer["delete.compact_bytes_rewritten"] = statistics.median(
            self.maint["delete.compact_bytes_rewritten"])

    # -- serving --------------------------------------------------------------

    def _serve_start(self) -> None:
        from horus_ner_ray.serve import QueryService, make_http_server

        t0 = perf_counter()
        self.service = QueryService(self.index)
        self.server, _ = make_http_server(self.index, service=self.service)
        self.layer["serve.warm_s"] = perf_counter() - t0
        self.probe = PoolProbe(self.service)
        self._server_thread = threading.Thread(
            target=self.server.serve_forever, kwargs={"poll_interval": 0.05}, daemon=True)
        self._server_thread.start()

    def _serve_stop(self) -> None:
        if self.server is not None:
            self.server.shutdown()
            self.server.server_close()
            self._server_thread.join(timeout=30)
            self.server = None
        if self.service is not None:
            self.service.close()
            self.service = None

    def _client(self, qs: list[tuple[str, str]]) -> dict:
        """GET /search for every query, then POST /batch, from one client
        process; returns its record (client.py)."""
        spec = self.workdir / "client_in.json"
        out = self.workdir / "client_out.json"
        spec.write_text(json.dumps({"k": K, "chunk": self.size.chunk, "queries": qs}))
        port = self.server.server_address[1]
        with quiet_gc():
            subprocess.run([sys.executable, str(HERE / "client.py"), str(port), str(spec),
                            str(out)], check=True, timeout=60)
        return json.loads(out.read_text())

    def _rounds(self, qs: list[tuple[str, str]]) -> None:
        """``ROUNDS`` rounds over consecutive slices of ``qs``.  A round
        sends its slice as GET /search, then through POST /batch, then
        engine-direct, so every pass samples the whole load window.  Each
        throughput or latency figure is the median of its per-round values,
        so a noisy spell on a shared host that slows fewer than half of the
        rounds does not move it (the per-round values are in ``detail``)."""
        eng = self._open_engine()
        parts = [qs[r * len(qs) // ROUNDS:(r + 1) * len(qs) // ROUNDS] for r in range(ROUNDS)]
        ans = {"http": [], "batch": [], "engine": []}
        lat_ms, rounds = [], {m: [] for m in ("search_qps", "search_p50_ms", "batch_qps",
                                              "engine_qps")}
        engine_s = 0.0
        n_posts = 0
        for part in parts:
            res = self._client(part)
            get, batch = res["get"], res["batch"]
            get_hits = [None if h is None else _hits(h) for h in get["hits"]]
            batch_hits = [None if h is None else _hits(h) for h in batch["hits"]]
            eng_hits, _, eng_fail, eng_wall, _ = self._engine(eng, part)
            get_fail = sum(h is None for h in get_hits)
            post_fail = sum(1 for lo in range(0, len(part), self.size.chunk)
                            if batch_hits[lo] is None)
            entries_ok = sum(h is not None for h in batch_hits)
            self.attempted += 3 * len(part) + len(batch["lat_s"])
            self.failed += get_fail + post_fail + (len(part) - entries_ok) + eng_fail
            ms = [l * 1e3 if h is not None else math.inf for l, h in zip(get["lat_s"], get_hits)]
            lat_ms += ms
            rounds["search_qps"].append((len(part) - get_fail) / get["wall_s"])
            rounds["search_p50_ms"].append(_pctl(ms, 0.50))
            rounds["batch_qps"].append(entries_ok / batch["wall_s"])
            rounds["engine_qps"].append((len(part) - eng_fail) / eng_wall)
            engine_s += eng_wall
            n_posts += len(batch["lat_s"])
            ans["http"] += get_hits
            ans["batch"] += batch_hits
            ans["engine"] += eng_hits
        self.e2e.update({m: statistics.median(v) for m, v in rounds.items()})
        # the tail is reported without a bound: on a shared 4-CPU host its
        # spread across seeds follows the hypervisor's steal time
        self.layer["serve.http_p99_ms"] = _pctl(lat_ms, 0.99)
        pool_ms = [t * 1e3 for t in self.probe.times]
        self.layer["serve.pool_p50_ms"] = statistics.median(pool_ms)
        ok_ms = [l for l in lat_ms if l != math.inf]
        if len(pool_ms) == len(ok_ms):
            self.layer["serve.http_overhead_ms"] = statistics.median(
                a - b for a, b in zip(ok_ms, pool_ms))
        else:
            self.layer["serve.http_overhead_ms"] = statistics.median(ok_ms) - statistics.median(pool_ms)
        self.detail["rounds"] = rounds
        self.detail["get_requests"] = len(qs)
        self.detail["post_requests"] = n_posts
        self.ev["answers"] = ans
        self.ev["pool"] = self.probe.answers
        self.ev["built"]["df"] = {t: eng.global_df(t) for t in self.df_sample}
        self.detail["engine_pruned_term_evals"] = eng.pruned_term_evals
        self._engine_wall = engine_s
        self._parts = parts

    def _engine(self, eng, qs: list[tuple[str, str]], timers=None):
        """One engine-direct pass over ``qs``: (hits, per-query seconds,
        failures, wall seconds, per-query layer records when traced)."""
        hits, lat, per_query = [], [], []
        fails = 0
        with quiet_gc():
            t0 = perf_counter()
            for text, mode in qs:
                pruned0 = eng.pruned_term_evals
                t = perf_counter()
                try:
                    hits.append(_hits(eng.search(text, K, mode=mode)))
                except Exception:
                    hits.append(None)
                    fails += 1
                lat.append(perf_counter() - t)
                if timers is not None:
                    per_query.append({"total": lat[-1], "pruned": eng.pruned_term_evals - pruned0,
                                      **timers.take()})
            wall = perf_counter() - t0
        return hits, lat, fails, wall, per_query

    def _open_engine(self):
        """``QueryEngine(index)`` with default arguments (postings cache
        off), its readers opened by one query on the hottest term."""
        from horus_ner_ray.pipelines.query import QueryEngine

        eng = QueryEngine(self.index)
        eng.search(self.top_term, 1)
        return eng

    def _traced_engine_pass(self, qs: list[tuple[str, str]]) -> None:
        eng = self._open_engine()
        with layers.QueryLayerTimers() as timers:
            _, _, _, wall, per_query = self._engine(eng, qs, timers)
        ms = lambda key: statistics.median(q[key] * 1e3 for q in per_query)  # noqa: E731
        n = len(per_query)
        self.layer.update({
            "query.parse_ms": ms("parse"),
            "query.dict_ms": ms("dict"),
            "query.decode_ms": ms("decode"),
            "query.score_ms": statistics.median(
                (q["total"] - q["parse"] - q["dict"] - q["decode"]) * 1e3 for q in per_query),
            "query.postings_decoded": sum(q["postings"] for q in per_query) / n,
            "query.pruned_term_evals": sum(q["pruned"] for q in per_query) / n,
            "query.pruned_query_share": sum(q["pruned"] > 0 for q in per_query) / n,
            "query.shard_calls": sum(q["shard_calls"] for q in per_query) / n,
            "trace.engine_overhead_pct": (wall / self._engine_wall - 1.0) * 100.0,
        })

    # -- workload -------------------------------------------------------------

    def run(self) -> None:
        from horus_ner_ray.synth import synth_transcripts, transcript_files

        search = self.workload != "ingest"
        t0 = perf_counter()
        self._start_session()
        self._step("session")
        corpus = synth_transcripts(self.workdir / "corpus", n_convs=self.size.n_convs,
                                   seed=self.seed, convs_per_file=self.size.convs_per_file)
        self.files = transcript_files(corpus)
        self._step("corpus")
        if search:
            self._build(self.size.search_shards)
            self._step("build")
        setup = perf_counter() - t0

        if not search:
            self._build(self.size.ingest_shards, builds=INGEST_BUILDS)
            self._step("build")
        # the work depends on the seed and --seconds only, never on elapsed time
        n = self.size.queries_per_s * self.seconds
        if self.workload == "search-hot":
            qs = qgen.hot_queries(n)
        else:
            qs = qgen.diverse_queries(self.index, n, self.seed, ROUNDS)
        terms, df = qgen.vocabulary(self.index)
        self.top_term = terms[int(np.argmax(df))]
        rng = np.random.default_rng([self.seed, 31])
        self.df_sample = sorted(set(terms[rng.choice(len(terms), 20, replace=False)])
                                | set(terms[np.argsort(-df, kind="stable")[:3]]))
        self.ev["queries"] = qs
        self.detail["query_mix"] = qgen.mix(qs)
        self._pick_deletions()
        self._maintenance()
        if not search:
            # the served index: round 0's tombstones, counted, not timed
            from horus_ner_ray.pipelines.delete import delete_by_conv

            self._op(delete_by_conv, self.index, self.delete_sets[0])
        self._step("maintenance")
        t0 = perf_counter()
        self._serve_start()
        self.e2e["setup_s"] = setup + (perf_counter() - t0 if search else 0.0)
        self._step("serve_start")

        self._rounds(qs)
        self._step("query_rounds")
        self.e2e["serve_rss_mb"], n_actors = actor_rss_mb()
        self.detail["rss_actors"] = n_actors
        if self.trace:
            self._traced_engine_pass(qs)
            # each actor saw every round's slice twice: GET, then batch
            stream = [q for part in self._parts for q in part + part]
            ratio, lookups = layers.cache_hit_ratio(self.index, self.service._subsets, stream, K)
            self.layer["shards.cache_hit_ratio"] = ratio
            self.detail["cache_lookups"] = lookups
            self._step("trace_query_layers")
        self._serve_stop()
        if self.trace:
            self._timeline_layers()
            self._step("timeline")
        self._evidence(search)
        self._step("checks_evidence")

    def _timeline_layers(self) -> None:
        b = self.detail["build"]
        ev = layers.timeline(expect_build_tasks=len(self.windows["build"])
                             * (b["fragments"] + 2 * b["shards"] + 1))
        per_build = [layers.build_layers(ev, *w, self.ncpu) for w in self.windows["build"]]
        self.layer.update({key: statistics.median(b[key] for b in per_build)
                           for key in per_build[0]})
        for r in range(MAINT_ROUNDS):
            self.maint["delete.scan_busy_s"].append(
                layers.busy_s(ev, *self.windows[f"delete{r}"]) / DELETE_CALLS)
            self.maint["delete.compact_busy_s"].append(layers.busy_s(ev, *self.windows[f"compact{r}"]))
        for key in ("delete.scan_busy_s", "delete.compact_busy_s"):
            self.layer[key] = statistics.median(self.maint[key])

    # -- evidence computed apart from the engine --------------------------------

    def _evidence(self, search: bool) -> None:
        import duckdb
        import pandas as pd
        import pyarrow.parquet as pq

        from horus_ner_ray.pipelines.query import BruteForceBM25, QueryEngine

        ev = self.ev
        ev["footer_rows"] = sum(pq.ParquetFile(f).metadata.num_rows for f in self.files)
        con = duckdb.connect()
        con.execute(f"SET threads TO {self.ncpu}")
        src = f"read_parquet({self.files!r})"
        n, toks = con.execute(
            f"SELECT count(*), sum(len(regexp_extract_all(lower(text), '[a-z0-9]+'))) "
            f"FROM {src}").fetchone()
        df = dict(con.execute(
            f"SELECT term, count(*) FROM (SELECT unnest(list_distinct("
            f"regexp_extract_all(lower(text), '[a-z0-9]+'))) AS term FROM {src}) "
            f"WHERE term IN (SELECT unnest(?)) GROUP BY term", [self.df_sample]).fetchall())
        ev["duckdb"] = {"n_docs": int(n), "total_tokens": int(toks),
                        "df": {t: int(df.get(t, 0)) for t in self.df_sample}}
        dead = dict(con.execute(
            f"SELECT doc_id, conv_id FROM (SELECT conv_id, row_number() OVER "
            f"(ORDER BY conv_id, turn_idx) - 1 AS doc_id FROM {src}) "
            f"WHERE conv_id IN (SELECT unnest(?))",
            [[c for convs in self.delete_sets for c in convs]]).fetchall())
        con.close()
        first = set(self.delete_sets[0])
        dead_first = {int(d) for d, c in dead.items() if c in first}
        ev["deleted_turns"] = len(dead)

        qs = ev["queries"]
        rng = np.random.default_rng([self.seed, 41])
        distinct = sorted({q: i for i, q in enumerate(qs)}.values())
        sample = sorted(set(rng.choice(distinct, min(len(distinct), self.size.oracle_sample),
                                       replace=False).tolist())
                        | set(qgen.absent_indices(qs)[:1]))
        oracle = BruteForceBM25.from_corpus_files(self.files)
        if not search:
            # the timed queries ran while the tombstones applied
            oracle.delete_docs(dead_first)
            ev["deleted_doc_ids"] = dead_first
            ev["tombstoned_paths"] = ["http", "batch", "engine"]
        ev["oracle_sample"] = [(i, oracle.search(qs[i][0], K, mode=qs[i][1])) for i in sample]
        if search:
            return
        # after the last compaction: statistics over the surviving rows only
        frames = [pq.read_table(f, columns=["conv_id", "turn_idx", "text"]).to_pandas()
                  for f in self.files]
        rows = pd.concat(frames, ignore_index=True).sort_values(
            ["conv_id", "turn_idx"], kind="stable")
        survivors = BruteForceBM25()
        for doc_id, text in enumerate(rows["text"]):  # rank rule: sorted order
            if doc_id not in dead:
                survivors.add_doc(doc_id, text)
        compacted = QueryEngine(self.maint_index)
        ev["compact_sample"] = [(compacted.search(qs[i][0], K, mode=qs[i][1]),
                                 survivors.search(qs[i][0], K, mode=qs[i][1]))
                                for i in sample]

    def result(self, names: list[str]) -> dict:
        """The result line: the named metrics (end-to-end, or per-layer for
        a traced run) and the check verdicts."""
        from checks import run_checks

        verdict = run_checks(self.ev)
        self.detail["checks"] = verdict
        self.detail["end_to_end"] = self.e2e
        self.detail["per_layer"] = self.layer
        metrics = self.layer if self.trace else self.e2e
        missing = [m for m in names if m not in metrics]
        if missing:
            raise RuntimeError(f"metrics not measured: {missing}")
        return {"correct": all(v == "ok" for v in verdict.values()),
                "attempted": self.attempted, "failed": self.failed,
                "metrics": {m: metrics[m] for m in names}}


def cleanup(*paths: Path) -> None:
    for p in paths:
        for _ in range(3):
            shutil.rmtree(p, ignore_errors=True)
            if not p.exists():
                break
            time.sleep(0.5)
