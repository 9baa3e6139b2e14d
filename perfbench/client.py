"""Closed-loop HTTP client: one process, one thread, one request in flight.
The benchmark starts one client per round of its query load.

    python3 client.py <port> <queries.json> <out.json>

``queries.json`` holds {"k": int, "chunk": int, "queries": [[text, mode], ...]}.
The client sends every query as ``GET /search``, each after the previous
answer arrived, then the same list through ``POST /batch`` in chunks of
``chunk`` entries.  A non-200 answer or an exception is recorded as failed
and not retried.  It writes per-request latencies and the hits it received.
The server speaks HTTP/1.0 and closes after each answer, so the connection
object reconnects for every request.
"""

from __future__ import annotations

import http.client
import json
import sys
import time
from urllib.parse import urlencode


def _hits(rows) -> list[list]:
    return [[h["doc_id"], h["score"]] for h in rows]


def _request(conn: http.client.HTTPConnection, method: str, url: str,
             body: bytes | None = None):
    """(ok, parsed body or None)."""
    try:
        headers = {"Content-Type": "application/json"} if body else {}
        conn.request(method, url, body=body, headers=headers)
        resp = conn.getresponse()
        data = resp.read()
        if resp.status != 200:
            return False, None
        return True, json.loads(data)
    except (OSError, http.client.HTTPException, ValueError):
        conn.close()
        return False, None


def main(port: int, in_path: str, out_path: str) -> None:
    spec = json.loads(open(in_path).read())
    k, chunk, queries = spec["k"], spec["chunk"], spec["queries"]
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=120)

    get_lat, get_hits = [], []
    t_get = time.perf_counter()
    for text, mode in queries:
        url = "/search?" + urlencode({"q": text, "k": k, "mode": mode})
        t = time.perf_counter()
        ok, body = _request(conn, "GET", url)
        get_lat.append(time.perf_counter() - t)
        get_hits.append(_hits(body["hits"]) if ok else None)
    t_get = time.perf_counter() - t_get

    batch_lat, batch_hits = [], []
    t_batch = time.perf_counter()
    for lo in range(0, len(queries), chunk):
        part = queries[lo:lo + chunk]
        body = json.dumps({"queries": [{"id": lo + i, "q": text, "k": k, "mode": mode}
                                       for i, (text, mode) in enumerate(part)]}).encode()
        t = time.perf_counter()
        ok, res = _request(conn, "POST", "/batch", body)
        batch_lat.append(time.perf_counter() - t)
        if ok:
            batch_hits.extend(_hits(r["hits"]) for r in res["results"])
        else:
            batch_hits.extend([None] * len(part))
    t_batch = time.perf_counter() - t_batch
    conn.close()

    with open(out_path, "w") as f:
        json.dump({"get": {"wall_s": t_get, "lat_s": get_lat, "hits": get_hits},
                   "batch": {"wall_s": t_batch, "lat_s": batch_lat, "hits": batch_hits}}, f)


if __name__ == "__main__":
    main(int(sys.argv[1]), sys.argv[2], sys.argv[3])
