"""Pipeline configuration.

Analogue of the reference's ``horus.ini`` / ``HorusConfig`` extension surface
(reference: src/config.py:16-155 — paths, engine choice, thresholds, module
toggles). Here a plain dataclass: every knob the engine exposes, with defaults
sized for the sandbox (single node, 32 CPUs) but designed for a multi-node
cluster (see field docs).
"""

from __future__ import annotations

from dataclasses import dataclass


# BM25 constants — the standard Okapi defaults, fixed so the brute-force
# oracle scorer and the distributed engine are bit-comparable.
BM25_K1 = 1.2
BM25_B = 0.75

# Tokenizer rule (shared with the DuckDB oracle SQL in __ray_entry__):
# lowercase, then maximal runs of [a-z0-9].  Matches the reference's
# case-insensitive term key (UPPER(term) probe, definitions_sql.py:7) in
# spirit: terms are case-folded before entering the term dictionary.
TOKEN_PATTERN = "[a-z0-9]+"
SPLIT_PATTERN = "[^a-z0-9]+"


# saved-config keys of earlier index formats that no longer configure anything
_RETIRED_FIELDS = frozenset({"champions"})


@dataclass
class PipelineConfig:
    # ---- index layout --------------------------------------------------
    num_shards: int = 16
    """Document-range shards of the global index.  Each shard holds the full
    posting data for a contiguous doc_id range, so query-time top-k is a
    per-shard heap + tiny global merge.  At 100 TB / 1e12 turns raise to
    O(10^4-10^5) so one shard's postings stay ~1-2 GB."""

    postings_block: int = 128
    """Postings per block of AND-mode skip metadata: each block's last
    doc_id and byte offsets let a conjunctive query decode only the blocks
    that can hold a candidate doc."""

    with_positions: bool = False
    """Store per-term position lists (phrase/AND queries).  Off for the
    headline build; positions roughly double index size."""

    stopword_filter: tuple[str, ...] = ()
    """Terms excluded from the index (SURVEY.md M5 — the reference's
    POS-predicate gate re-expressed as an explicit term filter).  Empty by
    default: the per-turn text-equality invariant and exact BM25 need every
    token.  When enabled, dl counts only indexed (post-filter) tokens —
    the filtered stream IS the corpus for BM25 — while position lists stay
    original-text-relative (phrase adjacency is text-faithful)."""

    # ---- scoring -------------------------------------------------------
    k1: float = BM25_K1
    b: float = BM25_B

    # ---- skew -----------------------------------------------------------
    # (no hot-term threshold knob: doc-range sharding splits every term's
    # postings across shards by construction — the doc range IS the salt,
    # applied uniformly; see pipelines/build_index.py and SURVEY.md §8)

    # ---- input shape ----------------------------------------------------
    doc_id_col: str = "doc_id"
    """'provided' mode: column holding the caller's int64 doc ids."""

    text_col: str = "text"

    # ---- doc id assignment --------------------------------------------
    doc_id_mode: str = "rank"
    """'rank': dense doc_id = rank of (conv_id, turn_idx) under conv_id-sorted
    order — exact; the conv-level offset table uses the backend below.
    'hash': doc_id = xxhash48(conv_id) << 16 | turn_idx — no global state;
    doc ids sparse (required by append_fragments).
    'provided': the input table already carries an int64 id column
    (doc_id_col) — e.g. the testdata ``documents`` table."""

    conv_offsets_backend: str = "auto"
    """Rank-mode offset-table backend: 'broadcast' (one row per conv on the
    driver + ray.put — fastest while convs fit), 'disk' (distributed
    range-partitioned Parquet lookup, stages/docstore.py DiskConvOffsets —
    driver state O(ranges), never O(convs)), or 'auto' (disk when the
    corpus's total turn count — free Parquet footer metadata — exceeds
    conv_offsets_disk_threshold).  Both backends yield byte-identical doc
    ids and therefore byte-identical indexes (tested)."""

    conv_offsets_disk_threshold: int = 50_000_000
    """'auto' escalation point, in total turns.  ~20 turns/conv makes this
    ~2.5M convs ≈ few hundred MB of driver table + broadcast — near the
    comfortable single-driver bound; beyond it the disk backend keeps
    driver state O(P ranges)."""

    # ---- execution sizing ---------------------------------------------
    tokenize_batch_size: int = 4096
    """Turns per tokenize batch.  ~75 tokens/turn -> ~300k postings rows per
    batch; Arrow-side memory a few tens of MB."""

    merge_concurrency: int | None = None
    """Actor-pool size for the shard merge stage; None = Ray default."""

    build_task_cpus: int = 1
    """CPU slots reserved per phase-A/B build task.  >1 deliberately
    under-subscribes CPUs to cap the PER-NODE count of concurrent
    memory-bound tasks (tokenize/encode/merge are bandwidth-bound, not
    compute-bound): this box measures a ~16-task memory-bus saturation
    point and a 32-wide build runs SLOWER than a 16-wide one (BASELINE.md
    round-4 calibration).  The reservation is per node on a real cluster,
    so the cap transfers as fixed-width-per-node — the regime the N->4N
    scaling criterion measures."""

    streaming_merge_threshold: int = 256 * 1024 * 1024
    """Run bytes per shard above which the merge uses the bounded-memory
    streaming k-way cursor path instead of the in-memory Arrow-sort path.
    Both produce byte-identical shards (tested); the sort path is ~10x
    faster while the shard fits, the cursor path caps memory when it
    doesn't."""

    query_concurrency: int = 4
    """Scorer actor pool size for batched query scoring."""

    # ---- analysis / dedupe knobs --------------------------------------
    minhash_perms: int = 64
    minhash_bands: int = 16
    shingle_k: int = 3
    simhash_bits: int = 64

    # ---- misc ----------------------------------------------------------
    seed: int = 42

    @classmethod
    def from_saved(cls, saved: dict, **overrides) -> "PipelineConfig":
        """Rebuild the config an index was built with from its stats.json
        ``config`` dict: JSON lists back to tuples, and knobs that no longer
        exist (``champions``, format v7 and earlier) dropped, so older
        indexes can still be appended to, compacted, merged and resharded."""
        c = {k: v for k, v in saved.items() if k not in _RETIRED_FIELDS}
        c["stopword_filter"] = tuple(c.get("stopword_filter", ()))
        return cls(**{**c, **overrides})

    def rows_per_band(self) -> int:
        assert self.minhash_perms % self.minhash_bands == 0
        return self.minhash_perms // self.minhash_bands


DEFAULT_CONFIG = PipelineConfig()
