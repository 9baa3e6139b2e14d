"""Declarative ingest-processor chain (the ES ingest-pipeline shape:
an ordered list of small field transforms applied at write time).

Reference analogue: the reference's tokenization/normalization chain
applies lowercase + regex cleanup before feature extraction (reference:
src/core/util/definitions.py token tables, feature_extraction/util.py
text cleanup); here the chain is declarative data, not code, so a
pipeline definition can ship with a corpus.

Processors (all fully vectorized pyarrow.compute kernels, one streaming
``map_batches`` for the WHOLE chain — state-free, partitioning-
invariant, SQL-restatable):

- ``{"op": "lowercase"|"uppercase"|"trim", "field": f}``          in place
- ``{"op": "set", "field": f, "value": v}``                       constant
- ``{"op": "rename", "field": f, "target": t}``
- ``{"op": "gsub", "field": f, "pattern": p, "replacement": r}``  all hits
- ``{"op": "extract", "field": f, "pattern": p, "target": t}``    group 1,
  '' when the pattern misses (DuckDB regexp_extract semantics)
- ``{"op": "length", "field": f, "target": t}``                   code pts

Unknown ops fail loudly at plan time — a silently skipped processor is
corrupt data downstream.
"""

from __future__ import annotations

import pyarrow as pa
import pyarrow.compute as pc

from horus_ner_ray.util import worker_runtime_env as _rte

_OPS = ("lowercase", "uppercase", "trim", "set", "rename", "gsub",
        "extract", "length")


def _validate(steps: list[dict]) -> None:
    for i, s in enumerate(steps):
        if s.get("op") not in _OPS:
            raise ValueError(
                f"ingest step {i}: unknown op {s.get('op')!r} "
                f"(supported: {_OPS})")
        need = {"lowercase": ("field",), "uppercase": ("field",),
                "trim": ("field",), "set": ("field", "value"),
                "rename": ("field", "target"),
                "gsub": ("field", "pattern", "replacement"),
                "extract": ("field", "pattern", "target"),
                "length": ("field", "target")}[s["op"]]
        missing = [k for k in need if k not in s]
        if missing:
            raise ValueError(f"ingest step {i} ({s['op']}): missing "
                             f"keys {missing}")


def apply_ingest(ds, steps: list[dict]):
    """Dataset -> Dataset with the processor chain applied in order.
    One map_batches for the whole chain; every processor is a columnar
    Arrow kernel."""
    _validate(steps)
    return ds.map_batches(_ingest_batch, fn_args=(steps,), batch_format="pyarrow",
                          zero_copy_batch=True, runtime_env=_rte())


def _ingest_batch(batch: pa.Table, steps: list[dict]) -> pa.Table:
    """One block through the (validated) processor chain."""
    cols = {name: batch[name] for name in batch.column_names}
    for s in steps:
        op, f = s["op"], s["field"]
        if op == "lowercase":
            cols[f] = pc.utf8_lower(cols[f])
        elif op == "uppercase":
            cols[f] = pc.utf8_upper(cols[f])
        elif op == "trim":
            cols[f] = pc.utf8_trim_whitespace(cols[f])
        elif op == "set":
            # typed from the value, so an empty block's column unifies
            # with the others instead of coming out null-typed
            v = s["value"]
            cols[f] = pa.array([v] * len(batch), type=pa.scalar(v).type)
        elif op == "rename":
            cols[s["target"]] = cols.pop(f)
        elif op == "gsub":
            cols[f] = pc.replace_substring_regex(
                cols[f], s["pattern"], s["replacement"])
        elif op == "extract":
            # group-1 extraction, '' on miss — regexp_extract parity
            ex = pc.extract_regex(cols[f],
                                  f"(?P<g>{s['pattern']})")
            cols[s["target"]] = pc.fill_null(
                pc.struct_field(ex, "g"), "")
        elif op == "length":
            cols[s["target"]] = pc.cast(pc.utf8_length(cols[f]),
                                        pa.int64())
    return pa.table(cols)
