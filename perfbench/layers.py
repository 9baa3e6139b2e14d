"""Per-layer measurement for the traced run.

Two sources, both outside the library:
- ``ray.timeline()`` task spans (Ray records them for every task anyway)
  give the build, delete and compaction phases;
- wrappers installed from here around the public query-layer functions give
  the per-query split of engine-direct search.
"""

from __future__ import annotations

import statistics
import time
from pathlib import Path

BUILD_TASKS = ("_frag_remote", "_merge_data_remote", "_encode_remote",
               "_stats_reduce_remote")
SUB_EVENTS = ("task:deserialize_arguments", "task:store_outputs")


# ---------------------------------------------------------------------------
# files
# ---------------------------------------------------------------------------

def tree_bytes(root: str | Path, pattern: str = "*") -> int:
    return sum(p.stat().st_size for p in Path(root).rglob(pattern) if p.is_file())


def snapshot(root: str | Path) -> dict[str, tuple[int, int, int]]:
    """path -> (inode, mtime_ns, size) for every file under ``root``."""
    out = {}
    for p in Path(root).rglob("*"):
        if p.is_file():
            st = p.stat()
            out[str(p)] = (st.st_ino, st.st_mtime_ns, st.st_size)
    return out


def bytes_rewritten(before: dict, after: dict) -> int:
    """Bytes of files that are new or were replaced between two snapshots."""
    return sum(v[2] for k, v in after.items() if before.get(k) != v)


def index_sizes(index_dir: str | Path) -> dict[str, int]:
    d = Path(index_dir)
    return {
        "build_index.run_bytes": tree_bytes(d / "runs"),
        "build_index.docstore_bytes": tree_bytes(d / "docstore"),
        "shards.postings_bytes": tree_bytes(d / "shards", "postings.bin"),
        "shards.dict_bytes": tree_bytes(d / "shards", "dict.parquet"),
    }


# ---------------------------------------------------------------------------
# ray.timeline() spans
# ---------------------------------------------------------------------------

def _task_spans(events: list[dict], t0: float, t1: float) -> list[tuple[str, float, float]]:
    """(function name, start s, end s) of the task spans inside [t0, t1]."""
    out = []
    for e in events:
        if e.get("ph") != "X" or "task_id" not in (e.get("args") or {}):
            continue
        s = e["ts"] / 1e6
        f = s + e.get("dur", 0.0) / 1e6
        if s >= t0 and f <= t1:
            out.append((e["name"], s, f))
    return out


def _skew(durs: list[float]) -> float:
    return max(durs) / statistics.median(durs) if durs else 1.0


def timeline(expect_build_tasks: int = 0, timeout: float = 15.0) -> list[dict]:
    """Fetch ``ray.timeline()`` once workers have flushed their task events
    (they report about once a second), i.e. once every expected build task
    is present and the event count has stopped growing."""
    import ray

    deadline = time.monotonic() + timeout
    prev = -1
    while True:
        ev = ray.timeline()
        n_build = sum(1 for e in ev if "task_id" in (e.get("args") or {})
                      and e["name"].endswith(BUILD_TASKS))
        if (n_build >= expect_build_tasks and len(ev) == prev) or time.monotonic() > deadline:
            return ev
        prev = len(ev)
        time.sleep(1.2)


def build_layers(events: list[dict], t0: float, t1: float, ncpu: int) -> dict[str, float]:
    """Split one ``build_index`` call [t0, t1] (wall clock) into phases:
    phase 0 ends when the first fragment task starts, the A/B window ends
    when the last encode task ends, phase C is the rest up to the return,
    so the three sum to the wall by construction."""
    spans = _task_spans(events, t0, t1)
    frag = [(s, f) for n, s, f in spans if n.endswith("_frag_remote")]
    merge = [(s, f) for n, s, f in spans if n.endswith("_merge_data_remote")]
    enc = [(s, f) for n, s, f in spans if n.endswith("_encode_remote")]
    if not frag or not enc:
        raise RuntimeError("timeline holds no build task spans for this build")
    a0 = min(s for s, _ in frag)
    b1 = max(f for _, f in enc)
    busy = sum(f - s for n, s, f in spans
               if n.endswith(BUILD_TASKS) or n.endswith("_map_task"))
    overhead = 0.0
    for e in events:
        if e.get("name") in SUB_EVENTS and e.get("ph") == "X":
            s = e["ts"] / 1e6
            if t0 <= s <= t1:
                overhead += e.get("dur", 0.0) / 1e6
    return {
        "build_index.wall_s": t1 - t0,
        "build_index.phase0_s": a0 - t0,
        "build_index.phaseAB_s": b1 - a0,
        "build_index.phaseC_s": t1 - b1,
        "build_index.phaseA_busy_s": sum(f - s for s, f in frag),
        "build_index.phaseA_skew": _skew([f - s for s, f in frag]),
        "build_index.phaseB_busy_s": sum(f - s for s, f in merge + enc),
        "build_index.phaseB_skew": _skew([f - s for s, f in merge]),
        "build_index.idle_slot_s": max(0.0, ncpu * (t1 - t0) - busy),
        "build_index.ray_overhead_s": overhead,
    }


def busy_s(events: list[dict], t0: float, t1: float) -> float:
    """Summed task time inside [t0, t1] (Ray Data map tasks and plain tasks)."""
    return sum(f - s for _, s, f in _task_spans(events, t0, t1))


# ---------------------------------------------------------------------------
# engine-direct query layers
# ---------------------------------------------------------------------------

class QueryLayerTimers:
    """Wraps the public query-layer functions for the duration of a
    ``with`` block and accumulates, per query:
    parse (``query_terms``), dictionary (``QueryEngine.global_df``,
    ``ShardReader.term_index``), decode (the outermost
    ``ShardReader.postings*`` call, plus the postings it returned) and
    per-shard scoring calls.  ``take()`` returns and resets the counters."""

    def __init__(self):
        self._saved: list[tuple[object, str, object]] = []
        self._depth = 0
        self._reset()

    def _reset(self) -> None:
        self.parse = self.dict = self.decode = 0.0
        self.postings = 0
        self.shard_calls = 0

    def take(self) -> dict:
        out = {"parse": self.parse, "dict": self.dict, "decode": self.decode,
               "postings": self.postings, "shard_calls": self.shard_calls}
        self._reset()
        return out

    def _patch(self, owner, name: str, make) -> None:
        orig = getattr(owner, name)
        self._saved.append((owner, name, orig))
        setattr(owner, name, make(orig))

    def _timed(self, field: str):
        def make(fn):
            def wrapper(*a, **kw):
                t = time.perf_counter()
                try:
                    return fn(*a, **kw)
                finally:
                    setattr(self, field, getattr(self, field) + time.perf_counter() - t)
            return wrapper
        return make

    def _decode(self, fn):
        def wrapper(*a, **kw):
            self._depth += 1
            t = time.perf_counter()
            try:
                out = fn(*a, **kw)
            finally:
                self._depth -= 1
            if self._depth == 0:
                self.decode += time.perf_counter() - t
                self.postings += len(out[0])
            return out
        return wrapper

    def _counted(self, fn):
        def wrapper(*a, **kw):
            self.shard_calls += 1
            return fn(*a, **kw)
        return wrapper

    def __enter__(self):
        from horus_ner_ray.pipelines import query as qmod
        from horus_ner_ray.state.shards import ShardReader

        self._patch(qmod, "query_terms", self._timed("parse"))
        self._patch(qmod.QueryEngine, "global_df", self._timed("dict"))
        self._patch(ShardReader, "term_index", self._timed("dict"))
        for name in ("postings_local", "postings", "postings_blocks"):
            self._patch(ShardReader, name, self._decode)
        for name in ("_score_shard_or", "_score_shard_and"):
            self._patch(qmod.QueryEngine, name, self._counted)
        return self

    def __exit__(self, *exc) -> None:
        for owner, name, orig in reversed(self._saved):
            setattr(owner, name, orig)
        self._saved = []


def cache_hit_ratio(index_dir: str, subsets: list[list[int]],
                    stream: list[tuple[str, str]], k: int) -> tuple[float, int]:
    """Replay the query stream every serving actor saw through an
    in-process ``ScorerActor`` with the same shard subset and default cache
    budget, counting ``ShardReader.postings_local`` lookups that found their
    term in the reader's decoded-postings cache.  The cache is a pure
    function of the stream, so the replay reproduces the actors' hits."""
    from horus_ner_ray.pipelines.query import ScorerActor
    from horus_ner_ray.state.shards import ShardReader

    hits = lookups = 0
    orig = ShardReader.postings_local

    def counting(reader, ti):
        nonlocal hits, lookups
        lookups += 1
        hits += ti in reader._pcache
        return orig(reader, ti)

    ShardReader.postings_local = counting
    try:
        for subset in subsets:
            actor = ScorerActor(index_dir, "or", subset)
            actor.warm()
            for text, mode in stream:
                actor.engine.search(text, k, mode)
    finally:
        ShardReader.postings_local = orig
    return (hits / lookups if lookups else 0.0), lookups
