"""Shows that the output checks catch wrong answers.

    python3 perfbench/selftest.py [--seed N]

Runs all three workloads at tiny size (a few seconds each), keeps the
evidence each run recorded, checks that it passes every applicable check,
then feeds each check perturbed copies and requires the check to fail on
every one.  The answer perturbations are one swapped doc id, one score off
by one ulp and one hit from a deleted conversation; count checks get a
count off by one, and the list-shape check a score one ulp above its
predecessor, a hit beyond k and a hit on the absent-term query.
Exits 1 if any perturbation goes unnoticed.
"""

from __future__ import annotations

import argparse
import copy
import math
import sys

import run
from checks import CHECKS


def _two_hit_index(lists, among=None) -> int:
    """First query index (optionally among ``among``) with >= 2 hits."""
    for i in (among if among is not None else range(len(lists))):
        if lists[i] is not None and len(lists[i]) >= 2:
            return i
    raise LookupError("no answer with two hits to perturb")


def _swap(hits):
    (d0, s0), (d1, s1) = hits[0], hits[1]
    hits[0], hits[1] = (d1, s0), (d0, s1)


def _ulp(hits, i=0):
    d, s = hits[i]
    hits[i] = (d, math.nextafter(s, math.inf))


def perturbations(ev: dict) -> dict[str, list[tuple[str, callable]]]:
    """{check name: [(label, function mutating a deep copy of ev)]}"""
    ans = lambda e, path: e["answers"][path]  # noqa: E731
    sampled = [qi for qi, _ in ev.get("oracle_sample", [])]

    def in_answer(path, fn, among=None):
        def f(e):
            lists = ans(e, path)
            fn(lists[_two_hit_index(lists, among)])
        return f

    def pool_swap(e):
        qi = _two_hit_index(ans(e, "engine"))
        key = tuple(e["queries"][qi])
        hits = list(e["pool"][key])
        _swap(hits)
        e["pool"][key] = hits

    def compact(fn):
        def f(e):
            i = _two_hit_index([got for got, _ in e["compact_sample"]])
            fn(e["compact_sample"][i][0])
        return f

    def deleted_hit(e):
        lists = ans(e, "http")
        qi = _two_hit_index(lists)
        lists[qi][0] = (min(e["deleted_doc_ids"]), lists[qi][0][1])

    def rises(e):
        hits = ans(e, "engine")[_two_hit_index(ans(e, "engine"))]
        hits[1] = (hits[1][0], math.nextafter(hits[0][1], math.inf))

    def beyond_k(e):
        for hits in ans(e, "engine"):
            if hits and len(hits) == e["k"]:
                hits.append((hits[-1][0] + 1, hits[-1][1]))
                return
        raise LookupError("no full answer list to extend")

    def absent_hit(e):
        qi = next(i for i, (t, _) in enumerate(e["queries"]) if t == e["absent_term"])
        ans(e, "engine")[qi] = [(0, 1.0)]

    def bump(*keys, by=1):
        def f(e):
            d = e
            for k in keys[:-1]:
                d = d[k]
            d[keys[-1]] += by
        return f

    df_term = sorted(ev.get("built", {}).get("df", {"": 0}))[0]
    return {
        "footer_rows": [("n_docs off by one", bump("built", "n_docs"))],
        "duckdb_counts": [("total_tokens off by one", bump("built", "total_tokens")),
                          ("one df off by one", bump("built", "df", df_term))],
        "no_deleted_hits": [("hit from a deleted conversation", deleted_hit)],
        "compact_count": [("compacted n_docs off by one", bump("n_docs_compacted", by=-1))],
        "compact_oracle": [("swapped doc id", compact(_swap)),
                           ("score off by one ulp", compact(_ulp))],
        "paths_agree": [("swapped doc id over HTTP", in_answer("http", _swap)),
                        ("score off by one ulp in a batch answer", in_answer("batch", _ulp)),
                        ("swapped doc id in a pool answer", pool_swap)],
        "oracle_sample": [("swapped doc id", in_answer("engine", _swap, sampled)),
                          ("score off by one ulp", in_answer("engine", _ulp, sampled))],
        "list_shape": [("score one ulp above its predecessor", rises),
                       ("hit beyond k", beyond_k),
                       ("hit on the absent-term query", absent_hit)],
    }


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--seed", type=int, default=7)
    args = ap.parse_args()
    run.bootstrap()
    missed = 0
    for workload in ("ingest", "search-diverse", "search-hot"):
        bench = run.run_once(workload, args.seed, 1, False, "tiny")
        ev = bench.ev
        fns = {name: (fn, keys) for name, fn, keys in CHECKS}
        for name, cases in perturbations(ev).items():
            fn, keys = fns[name]
            if not all(k in ev for k in keys):
                continue
            fn(ev)  # the recorded evidence itself must pass
            for label, perturb in cases:
                bad = copy.deepcopy(ev)
                perturb(bad)
                try:
                    fn(bad)
                except AssertionError as e:
                    print(f"{workload:15s} {name:16s} caught  {label}: {e}")
                    continue
                missed += 1
                print(f"{workload:15s} {name:16s} MISSED  {label}")
    print("self-test", "FAILED" if missed else "passed", file=sys.stderr)
    return 1 if missed else 0


if __name__ == "__main__":
    sys.exit(main())
