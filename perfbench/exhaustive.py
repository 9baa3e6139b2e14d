"""Engine-direct diverse set: MaxScore/block-max path vs the exhaustive
exact path, on the search-diverse index.

    python3 perfbench/exhaustive.py [--seed N]

The exhaustive path is the one the engine itself takes while a compaction
is in flight (``QueryEngine._force_exhaustive``).  ``PAIRS`` pairs of
passes over ``QUERIES`` diverse queries alternate the two paths, each pass
on a fresh engine with its readers opened first.  The script prints every
pass time, each path's median and quartile spread (IQR over median), how
many pairs each path won, and whether the two paths returned identical
answers.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from time import perf_counter

import run

QUERIES = 300
PAIRS = 10


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args()
    run.bootstrap()

    import queries as qgen
    import workloads

    from horus_ner_ray.pipelines.query import QueryEngine
    from horus_ner_ray.synth import synth_transcripts, transcript_files

    def one_pass(bench, qs, exhaustive: bool):
        eng = QueryEngine(bench.index)
        eng._force_exhaustive = exhaustive
        eng.search(bench.top_term, 1)
        t = perf_counter()
        hits = [eng.search(text, workloads.K, mode=mode) for text, mode in qs]
        return perf_counter() - t, hits

    def body(bench):
        bench._start_session()
        corpus = synth_transcripts(bench.workdir / "corpus", n_convs=bench.size.n_convs,
                                   seed=bench.seed, convs_per_file=bench.size.convs_per_file)
        bench.files = transcript_files(corpus)
        bench._build(bench.size.search_shards)
        terms, df = qgen.vocabulary(bench.index)
        bench.top_term = terms[int(df.argmax())]
        qs = qgen.diverse_queries(bench.index, QUERIES, bench.seed, 1)
        times = {"maxscore": [], "exhaustive": []}
        answers = {}
        for _ in range(PAIRS):
            for name in times:
                dt, answers[name] = one_pass(bench, qs, name == "exhaustive")
                times[name].append(dt)

        def spread(v):
            q = statistics.quantiles(v, n=4)
            return (q[2] - q[0]) / statistics.median(v)

        print(json.dumps({
            "queries": len(qs), "turns": bench.detail["build"]["turns"],
            "shards": bench.detail["build"]["shards"], "pass_s": times,
            "median_s": {k: statistics.median(v) for k, v in times.items()},
            "spread": {k: spread(v) for k, v in times.items()},
            "pairs_won": {"maxscore": sum(a < b for a, b in zip(*times.values())),
                          "exhaustive": sum(b < a for a, b in zip(*times.values()))},
            "identical": answers["maxscore"] == answers["exhaustive"]}))

    run.run_once("search-diverse", args.seed, 1, False, "full", body=body)
    return 0


if __name__ == "__main__":
    sys.exit(main())
