"""Suspend/resume checkpoints for the streaming executor.

Because the executor keeps its entire search state in an explicit
:class:`~repro.engine.executor.SearchState` (frame stack, scan cursors,
injectivity set), a suspended run serializes to a small JSON document and
resumes *mid-frame*: the per-depth candidate lists are stored verbatim, so
the resumed scan continues at the exact cursor position and the combined
embedding count is identical to an uninterrupted run.

Checkpoint document (``format`` = ``"repro-checkpoint"``, ``version`` 1)::

    {
      "format": "repro-checkpoint", "version": 1,
      "pattern":  {"text": ..., "digest": ...},       # the query pattern
      "store":    {"version": ..., "digest": ...},    # guard, see below
      "query":    {"variant", "planner", "restrictions", "seed", "use_sce"},
      "limits":   {"max_embeddings", "time_limit"},
      "progress": {"emitted", "stop_reason", "degradation", "counters"},
      "state":    <SearchState payload>
    }

**Compatibility guard.** A checkpoint stores candidate lists of concrete
data-vertex ids, so it is only valid against the exact store it was taken
from. Resume re-derives both guards — the pattern digest (from the
re-parsed pattern text) and the store digest (vertex/edge counts plus every
cluster's key and size) — and refuses with :class:`~repro.errors.CheckpointError`
on any mismatch, including a bumped :attr:`~repro.ccsr.store.CCSRStore.version`
(incremental updates rebuild clusters, invalidating the lists). Planning is
deterministic given an identical store, so the recompiled physical plan has
the same op sequence the frame stack was built against.

The SCE candidate memo is deliberately *not* checkpointed — like CEMR's
redundant extensions it is a pure cache, so a resumed run recomputes what
it needs; counters, in contrast, are restored so stats stay cumulative
across the suspend/resume boundary.
"""

from __future__ import annotations

import hashlib
import json
import os

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Iterable

from repro.engine.executor import EmbeddingStream, SearchState, specialize
from repro.engine.results import STOP_QUARANTINED, MatchOptions
from repro.errors import CheckpointError
from repro.obs import merge_counters

if TYPE_CHECKING:  # pragma: no cover - annotation only
    from repro.ccsr.store import CCSRStore
    from repro.core.variants import Variant
    from repro.engine.governor import ResourceGovernor
    from repro.engine.physical import PhysicalPlan
    from repro.engine.session import MatchSession
    from repro.graph.model import Graph

CHECKPOINT_FORMAT = "repro-checkpoint"
CHECKPOINT_VERSION = 1

#: Filename prefix of poison-unit residue documents in a pool checkpoint
#: directory. ``load_checkpoint_dir`` skips them (resume must not re-run
#: what ``csce retry-quarantined`` replays — that would double count).
QUARANTINE_PREFIX = "quarantine-"

#: Declared wire-format manifests for this module, gated by the
#: ``wire_schema`` reprolint pass: every listed encoder must write exactly
#: the declared key set (including the format/version stamps), every
#: listed decoder may read only declared keys, and changing a ``keys``
#: tuple without bumping the format's version fails
#: ``reprolint --diff`` (see docs/static-analysis.md). Encoder/decoder
#: entries are ``"func"`` / ``"Class.method"``, optionally suffixed
#: ``":var"`` to name the local dict that becomes the document.
WIRE_MANIFESTS: dict[str, dict] = {
    "checkpoint": {
        "format": CHECKPOINT_FORMAT,
        "version": CHECKPOINT_VERSION,
        "keys": (
            "format",
            "version",
            "pattern",
            "store",
            "query",
            "limits",
            "progress",
            "state",
        ),
        "encoders": ("base_sections",),
        "decoders": (
            "validate_checkpoint",
            "decode_checkpoints:doc",
            "check_store_compatibility",
        ),
    },
    "quarantine-residue": {
        "format": CHECKPOINT_FORMAT,
        "version": CHECKPOINT_VERSION,
        "keys": (
            "format",
            "version",
            "pattern",
            "store",
            "query",
            "limits",
            "progress",
            "state",
            "quarantine",
        ),
        "encoders": ("PoolCheckpointDir.write_quarantine:payload",),
        "decoders": ("validate_checkpoint", "decode_checkpoints:doc"),
    },
}

#: Runtime counters carried across the suspend/resume boundary.
_RUNTIME_COUNTERS = (
    "nodes",
    "backtracks",
    "prunes_injective",
    "prunes_restriction",
)
_CANDIDATE_COUNTERS = (
    "computed",
    "memo_hits",
    "memo_misses",
    "intersections",
    "negation_checks",
)

def _digest(obj: object) -> str:
    return hashlib.sha256(repr(obj).encode("utf-8")).hexdigest()


def pattern_digest(pattern: Graph) -> str:
    """Canonical digest of a pattern graph (labels + sorted edge set)."""
    labels, edges = pattern.fingerprint()
    return _digest((tuple(labels), sorted(edges, key=repr)))


def store_digest(store: CCSRStore) -> str:
    """Canonical digest of a CCSR store's structure: vertex/edge counts
    plus every cluster's key and entry count. Cheap (no per-edge work)
    yet sensitive to any incremental update."""
    clusters = sorted(
        (str(key), cluster.num_entries)
        for key, cluster in store.clusters.items()
    )
    return _digest((store.num_vertices, store.num_edges, clusters))


def base_sections(
    store: CCSRStore,
    pattern: Graph,
    variant: Variant | str,
    planner: str,
    options: MatchOptions,
    *,
    state: dict,
    emitted: int = 0,
    stop_reason: str | None = None,
    degradation: Iterable[str] = (),
    counters: dict | None = None,
) -> dict:
    """Build one checkpoint document: the format/version header, pattern
    and store guards, query, limits, the confirmed progress and the unit
    ``state``. The only builder — the single-stream serializer below, the
    pool's shard writer and its quarantine writer
    (:class:`PoolCheckpointDir`) all call it, so the ``checkpoint``
    manifest's key set is checked against every document written."""
    from repro.graph.io import format_graph_text, parse_graph_text

    # Digest the *re-parsed* text so the guard survives the label
    # stringification of the text format (int labels round-trip as int,
    # everything else as str).
    text = format_graph_text(pattern)
    digest = pattern_digest(parse_graph_text(text))
    seed = options.seed
    return {
        "format": CHECKPOINT_FORMAT,
        "version": CHECKPOINT_VERSION,
        "pattern": {"text": text, "digest": digest},
        "store": {
            "version": store.version,
            "digest": store_digest(store),
            "num_vertices": store.num_vertices,
            "num_edges": store.num_edges,
            "name": store.name,
        },
        "query": {
            "variant": getattr(variant, "value", str(variant)),
            "planner": planner,
            "restrictions": [
                list(pair) for pair in (options.restrictions or ())
            ],
            "seed": sorted(seed.items()) if seed else None,
            "use_sce": options.use_sce,
        },
        "limits": {
            "max_embeddings": options.max_embeddings,
            "time_limit": options.time_limit,
        },
        "progress": {
            "emitted": emitted,
            "stop_reason": stop_reason,
            "degradation": list(degradation),
            "counters": dict(counters or {}),
        },
        "state": state,
    }


def checkpoint_payload(
    stream: EmbeddingStream,
    store: CCSRStore,
    pattern: Graph,
    variant: Variant | str,
    planner: str,
) -> dict:
    """Serialize a suspended :class:`EmbeddingStream` to a checkpoint
    document. The stream must not be iterated afterwards (the state
    snapshot aliases its live frame stack)."""
    runtime = stream.runtime
    counters = {k: getattr(runtime, k) for k in _RUNTIME_COUNTERS}
    for k in _CANDIDATE_COUNTERS:
        counters[k] = getattr(runtime.computer.stats, k)
    return base_sections(
        store, pattern, variant, planner, stream.options,
        state=stream.state.to_payload(),
        emitted=runtime.emitted,
        stop_reason=runtime.stop_reason,
        degradation=runtime.degradation,
        counters=counters,
    )


def _write_json_atomic(path: str | os.PathLike, payload: dict) -> None:
    """Write ``payload`` to ``path`` via a pid-unique temp file + atomic
    rename. The pid suffix keeps concurrent writers (pool workers and
    their parent checkpointing against the same directory) from clobbering
    each other's in-flight temp file; ``os.replace`` makes the final
    document appear atomically either way."""
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w", encoding="utf-8") as handle:
            json.dump(payload, handle)
            handle.write("\n")
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def write_checkpoint(
    path: str | os.PathLike,
    stream: EmbeddingStream,
    store: CCSRStore,
    pattern: Graph,
    variant: Variant | str,
    planner: str,
) -> dict:
    """Write a checkpoint document to ``path`` (atomically, via a temp
    file) and return it."""
    payload = checkpoint_payload(stream, store, pattern, variant, planner)
    _write_json_atomic(path, payload)
    return payload


def load_checkpoint(path: str | os.PathLike) -> dict:
    """Read and structurally validate a checkpoint document."""
    try:
        with open(path, encoding="utf-8") as handle:
            payload = json.load(handle)
    except OSError as exc:
        raise CheckpointError(f"cannot read checkpoint {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise CheckpointError(
            f"checkpoint {path} is not valid JSON: {exc}"
        ) from exc
    validate_checkpoint(payload)
    return payload


def validate_checkpoint(payload: dict) -> None:
    """Raise :class:`CheckpointError` unless ``payload`` is a structurally
    complete checkpoint of a supported version."""
    if not isinstance(payload, dict):
        raise CheckpointError("checkpoint must be a JSON object")
    if payload.get("format") != CHECKPOINT_FORMAT:
        raise CheckpointError(
            f"not a checkpoint document (format={payload.get('format')!r})"
        )
    if payload.get("version") != CHECKPOINT_VERSION:
        raise CheckpointError(
            f"unsupported checkpoint version {payload.get('version')!r}"
            f" (this build reads version {CHECKPOINT_VERSION})"
        )
    for section in ("pattern", "store", "query", "limits", "progress", "state"):
        if not isinstance(payload.get(section), dict):
            raise CheckpointError(f"checkpoint is missing section {section!r}")
    for field in ("assignment", "used", "values", "index", "emitted_at", "pos"):
        if field not in payload["state"]:
            raise CheckpointError(
                f"checkpoint state is missing field {field!r}"
            )


def check_store_compatibility(payload: dict, store: CCSRStore) -> None:
    """Refuse to resume onto a store that is not byte-for-byte the one the
    checkpoint was taken from."""
    recorded = payload["store"]
    if recorded.get("version") != store.version:
        raise CheckpointError(
            f"store has mutated since the checkpoint was written"
            f" (checkpoint store version {recorded.get('version')},"
            f" current {store.version}); the checkpointed candidate lists"
            " are invalid — re-run the query instead of resuming"
        )
    if recorded.get("digest") != store_digest(store):
        raise CheckpointError(
            "store contents do not match the checkpoint (digest mismatch);"
            " resuming would corrupt counts — re-run the query instead"
        )


def worker_scoped_path(path: str | os.PathLike, worker: int | str) -> str:
    """Scope a checkpoint path to one pool worker: ``cp.json`` →
    ``cp-w3.json`` for worker 3. Distinct final paths (plus the
    pid-unique temp files of :func:`_write_json_atomic`) are what make N
    workers and their parent safe to checkpoint concurrently against one
    target."""
    root, ext = os.path.splitext(str(path))
    label = worker if isinstance(worker, str) else f"w{worker}"
    return f"{root}-{label}{ext or '.json'}"


class CheckpointSink:
    """Auto-checkpoint hook attached to an :class:`EmbeddingStream`.

    ``CSCE.match_iter(..., checkpoint_path=...)`` installs one; when the
    stream stops early with a resumable ``stop_reason`` the sink writes
    the checkpoint document to ``path``. ``written`` holds the last
    document (None until a write happens). The live inspector's
    ``checkpoint-now`` command routes through :meth:`write_on_demand`,
    which additionally counts in ``on_demand`` — mid-run snapshots of a
    still-running stream, as opposed to the suspend-time write.

    ``worker`` (a pool worker id) scopes ``path`` through
    :func:`worker_scoped_path` so concurrent sinks never share a
    filename; :func:`load_checkpoint_dir` reassembles the shards."""

    def __init__(
        self,
        path: str | os.PathLike,
        store: CCSRStore,
        pattern: Graph,
        variant: Variant | str,
        planner: str,
        worker: int | str | None = None,
    ) -> None:
        if worker is not None:
            path = worker_scoped_path(path, worker)
        self.path = path
        self.store = store
        self.pattern = pattern
        self.variant = variant
        self.planner = planner
        self.written: dict | None = None
        self.on_demand = 0

    def write(self, stream: EmbeddingStream) -> None:
        self.written = write_checkpoint(
            self.path, stream, self.store, self.pattern, self.variant,
            self.planner,
        )

    def write_on_demand(self, stream: EmbeddingStream) -> dict:
        """Write a mid-run checkpoint (inspector ``checkpoint-now`` /
        SIGUSR2). Must run at a consistent point of the stream — a
        heartbeat tick on the executor thread, or after the run ended."""
        self.write(stream)
        self.on_demand += 1
        assert self.written is not None
        return self.written


@dataclass
class Replay:
    """A decoded set of checkpoint documents, ready to run: the query
    (pattern, variant, planner, compiled plan, options), one unit state per
    document, and the progress the documents had already confirmed."""

    pattern: Graph
    variant: Variant
    planner: str
    physical: PhysicalPlan
    options: MatchOptions
    states: list[dict]
    emitted: int
    counters: dict
    degradation: list[str]


def decode_checkpoints(
    documents: list[dict],
    session: MatchSession,
    max_embeddings: Any = ...,
    time_limit: Any = ...,
    obs: Any = None,
    governor: ResourceGovernor | None = None,
) -> Replay:
    """Decode checkpoint documents of one query into a :class:`Replay`.

    The one decoder behind every replay path: a single-stream resume
    (:func:`restore_stream`), a pool resume
    (:func:`~repro.engine.pool.resume_parallel`) and a quarantine replay
    (``CSCE.retry_quarantined``). Every document is validated and guarded
    against ``session``'s store; the pattern, query and limits come from
    the first (:func:`load_checkpoint_dir` has checked that they agree).
    Any refusal is a :class:`~repro.errors.CheckpointError`.

    ``max_embeddings``/``time_limit`` default (``...``) to the recorded
    limits; pass an override — including ``None`` for unlimited — to
    change them. The physical plan is recompiled through the session
    (planning is deterministic against an identical store) and bound to
    the recorded restrictions and seed. The returned options are not
    ``count_only``; counting callers set that themselves.
    """
    from repro.core.variants import Variant
    from repro.graph.io import parse_graph_text

    if not documents:
        raise CheckpointError("nothing to replay: no checkpoint documents")
    # Every document read goes through the name ``doc``: it is what the
    # wire_schema manifest entry "decode_checkpoints:doc" tracks.
    for doc in documents:
        validate_checkpoint(doc)
        check_store_compatibility(doc, session.store)
    doc = documents[0]
    pattern = parse_graph_text(doc["pattern"]["text"], name="checkpoint")
    if pattern_digest(pattern) != doc["pattern"].get("digest"):
        raise CheckpointError(
            "checkpoint pattern does not match its digest (corrupt document)"
        )
    query = doc["query"]
    variant = Variant.parse(query["variant"])
    planner = query["planner"]
    restrictions = (
        tuple((int(u), int(v)) for u, v in query["restrictions"])
        if query["restrictions"]
        else None
    )
    seed = (
        {int(u): int(v) for u, v in query["seed"]}
        if query.get("seed")
        else None
    )
    if max_embeddings is ...:
        max_embeddings = doc["limits"].get("max_embeddings")
    if time_limit is ...:
        time_limit = doc["limits"].get("time_limit")
    progress = [doc["progress"] for doc in documents]
    degradation = max(
        (list(p.get("degradation") or []) for p in progress), key=len
    )
    # A run that degraded past "disable_memo" must not re-enable the memo
    # on resume — the memory pressure that forced it off is still the
    # operative assumption until the governor says otherwise.
    options = MatchOptions(
        max_embeddings=max_embeddings,
        time_limit=time_limit,
        use_sce=bool(query["use_sce"]) and "disable_memo" not in degradation,
        restrictions=restrictions,
        seed=seed,
        obs=obs if obs is not None and getattr(obs, "enabled", False) else None,
        governor=governor,
    )
    compiled = session.compile(
        pattern, variant, planner=planner, restrictions=restrictions, obs=obs
    )
    return Replay(
        pattern=pattern,
        variant=variant,
        planner=planner,
        physical=specialize(compiled.physical, options),
        options=options,
        states=[dict(doc["state"]) for doc in documents],
        emitted=sum(int(p.get("emitted", 0)) for p in progress),
        counters=merge_counters(*(p.get("counters") or {} for p in progress)),
        degradation=degradation,
    )


def restore_stream(
    payload: dict,
    session: MatchSession,
    max_embeddings: Any = ...,
    time_limit: Any = ...,
    governor: ResourceGovernor | None = None,
    obs: Any = None,
    checkpoint_path: str | os.PathLike | None = None,
) -> EmbeddingStream:
    """Rebuild a live :class:`EmbeddingStream` from a checkpoint document
    (decoded by :func:`decode_checkpoints`, which documents the limit
    overrides; a fresh ``time_limit`` budget restarts from resume time).
    The restored counters keep stats cumulative across the boundary.
    ``checkpoint_path`` re-arms auto-checkpointing on the resumed stream.
    """
    replay = decode_checkpoints(
        [payload], session, max_embeddings, time_limit, obs, governor
    )
    sink = None
    if checkpoint_path is not None:
        sink = CheckpointSink(
            checkpoint_path, session.store, replay.pattern, replay.variant,
            replay.planner,
        )
    stream = EmbeddingStream(
        replay.physical,
        replay.options,
        state=SearchState.from_payload(replay.states[0]),
        emitted=replay.emitted,
        checkpoint_sink=sink,
    )
    runtime = stream.runtime
    counters = replay.counters
    for key in _RUNTIME_COUNTERS:
        if key in counters:
            setattr(runtime, key, int(counters[key]))
    for key in _CANDIDATE_COUNTERS:
        if key in counters:
            setattr(runtime.computer.stats, key, int(counters[key]))
    runtime.degradation = replay.degradation
    runtime.gov_stage = 2 if "disable_memo" in replay.degradation else 0
    return stream


def load_checkpoint_dir(directory: str | os.PathLike) -> list[dict]:
    """Load every shard checkpoint in a pool checkpoint directory.

    Returns the validated documents in sorted-filename order and enforces
    that all shards describe the *same* query against the *same* store
    (pattern digest, store version/digest, and query section must agree) —
    a directory of unrelated checkpoints is refused rather than summed
    into a nonsense count.
    """
    try:
        names = sorted(
            name
            for name in os.listdir(directory)
            if name.endswith(".json")
            and not name.startswith(QUARANTINE_PREFIX)
        )
    except OSError as exc:
        raise CheckpointError(
            f"cannot read checkpoint directory {directory}: {exc}"
        ) from exc
    if not names:
        raise CheckpointError(
            f"checkpoint directory {directory} contains no *.json shards"
        )
    payloads = [
        load_checkpoint(os.path.join(directory, name)) for name in names
    ]
    _check_same_query(names, payloads, "pool checkpoint")
    return payloads


def _check_same_query(
    names: list[str], payloads: list[dict], what: str
) -> None:
    """Refuse a directory whose documents describe different queries or
    stores — summing unrelated checkpoints yields a nonsense count."""
    first = payloads[0]
    for name, payload in zip(names[1:], payloads[1:]):
        mismatched = next(
            (
                section
                for section, a, b in (
                    (
                        "pattern",
                        first["pattern"]["digest"],
                        payload["pattern"]["digest"],
                    ),
                    ("store", first["store"], payload["store"]),
                    ("query", first["query"], payload["query"]),
                )
                if a != b
            ),
            None,
        )
        if mismatched is not None:
            raise CheckpointError(
                f"shard {name} does not belong to this {what}"
                f" ({mismatched} section differs from {names[0]})"
            )


def load_quarantine_dir(
    directory: str | os.PathLike,
) -> list[tuple[str, dict]]:
    """Load every ``quarantine-NNNN.json`` residue document in a pool
    checkpoint directory.

    Returns ``(path, payload)`` pairs in sorted-filename order — the
    paths let ``csce retry-quarantined`` delete each residue file once
    its replay has been folded in. Each document is a standard version-1
    checkpoint (validated like any shard, same-query enforcement
    included) with an extra ``quarantine`` metadata block
    (``{"unit", "attempts", "error"}``). Raises
    :class:`~repro.errors.CheckpointError` when the directory holds no
    quarantine residue.
    """
    try:
        names = sorted(
            name
            for name in os.listdir(directory)
            if name.startswith(QUARANTINE_PREFIX) and name.endswith(".json")
        )
    except OSError as exc:
        raise CheckpointError(
            f"cannot read checkpoint directory {directory}: {exc}"
        ) from exc
    if not names:
        raise CheckpointError(
            f"checkpoint directory {directory} contains no"
            f" {QUARANTINE_PREFIX}*.json residue — nothing to retry"
        )
    paths = [os.path.join(directory, name) for name in names]
    payloads = [load_checkpoint(path) for path in paths]
    _check_same_query(names, payloads, "quarantine set")
    return list(zip(paths, payloads))


class PoolCheckpointDir:
    """Checkpoint writer for a partially-completed worker pool.

    One standard version-1 checkpoint document per *unfinished* work
    unit, written as ``shard-NNNN.json`` into ``directory`` — each shard
    is a complete, standalone-resumable checkpoint (``csce match
    --resume`` on a single shard file works), and
    :func:`load_checkpoint_dir` + ``CSCE.resume_pool`` re-enqueue all of
    them. The pool's *completed* progress (merged emitted count and
    counters) rides on shard 0 only; the other shards carry zero
    progress, so summing ``progress.emitted`` across shards never double
    counts.
    """

    def __init__(
        self,
        directory: str | os.PathLike,
        store: CCSRStore,
        pattern: Graph,
        variant: Variant | str,
        planner: str,
    ) -> None:
        self.directory = str(directory)
        self.store = store
        self.pattern = pattern
        self.variant = variant
        self.planner = planner
        self.written: list[str] = []

    def write(
        self,
        options: MatchOptions,
        units: list[dict],
        emitted: int,
        counters: dict,
        stop_reason: str | None,
        degradation: list[str],
    ) -> list[str]:
        """Write one shard checkpoint per unit state payload; returns the
        written paths. ``emitted``/``counters`` are the pool's *confirmed*
        completed totals (attached to shard 0)."""
        os.makedirs(self.directory, exist_ok=True)
        self.written = []
        for i, state_payload in enumerate(units):
            path = os.path.join(self.directory, f"shard-{i:04d}.json")
            first = i == 0
            payload = base_sections(
                self.store, self.pattern, self.variant, self.planner,
                options, state=state_payload, stop_reason=stop_reason,
                emitted=emitted if first else 0,
                degradation=degradation if first else (),
                counters=counters if first else None,
            )
            _write_json_atomic(path, payload)
            self.written.append(path)
        return self.written

    def write_quarantine(
        self,
        options: MatchOptions,
        state_payload: dict,
        unit: int,
        attempts: int,
        error: str | None,
    ) -> str:
        """Write one poison unit's residue as ``quarantine-NNNN.json``
        (``NNNN`` = the pool unit id) and return the path.

        The document is a standard version-1 checkpoint — the unit's
        current payload, zero progress (nothing of it was merged since
        its last bank) — plus a ``quarantine`` metadata block recording
        why it was exiled. ``csce match --resume`` on the file works,
        but the intended replay path is ``csce retry-quarantined``,
        which folds and deletes the residue."""
        os.makedirs(self.directory, exist_ok=True)
        path = os.path.join(
            self.directory, f"{QUARANTINE_PREFIX}{unit:04d}.json"
        )
        payload = {
            **base_sections(
                self.store, self.pattern, self.variant, self.planner,
                options, state=dict(state_payload),
                stop_reason=STOP_QUARANTINED,
            ),
            "quarantine": {
                "unit": int(unit),
                "attempts": int(attempts),
                "error": error,
            },
        }
        _write_json_atomic(path, payload)
        return path
