"""In-memory spans around the daemon's layer entry points, and the
per-job attribution of a job's latency to those layers.

The daemon side (``launcher.py``) replaces each public entry point in
:data:`TARGETS` with a wrapper that records a span: name, start, end,
the innermost open span on the same thread as parent, and the job id
as trace id.  Nothing under ``src/`` changes; the wrappers patch the
name where the caller looks it up (``repro.service.service.update_index``
rather than ``repro.incremental.update.update_index``).

The client side records one span per HTTP round trip.  :func:`attribute`
then splits each job's latency window across the layers by a sweep over
the window: every instant goes to the innermost span of the
highest-priority lane that is open at that instant, and instants no span
covers are the job's unattributed remainder.  Within one thread this is
ordinary self time (a span's duration minus what its children cover);
across threads the lanes decide, because a long-poll request thread and
the job's executor thread are open at the same time and the executor
thread is the one doing the work.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import re
import threading
import time
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

Span = Dict[str, Any]

_JOB_IN_PATH = re.compile(r"/jobs/(job-[0-9a-f]{16})")

#: Layer of each span name; the layer names are the repo's modules.
LAYER_OF = {
    "client.request": "frontdoor",
    "frontdoor.router": "frontdoor",
    "service.wait": "frontdoor",
    "service.submit": "service",
    "service.result_page": "service",
    "service.execute": "service",
    "matrix.digest": "matrix",
    "jobs.write": "jobs",
    "cache.get": "cache",
    "cache.put": "cache",
    "cache.store": "cache",
    "rwave.build": "rwave",
    "kernels.build": "kernels",
    "incremental.update_index": "incremental",
    "incremental.update_kernel": "incremental",
    "incremental.plan": "incremental",
    "executor.mine": "executor",
    "miner.mine": "miner",
    "queue.wait": "scheduling",
}

LAYERS = (
    "frontdoor", "scheduling", "matrix", "jobs", "cache", "rwave",
    "kernels", "incremental", "executor", "miner", "service",
)

#: Lane priorities: the job's executor thread outranks its queue wait,
#: which outranks request handling, which outranks the client's round
#: trip (whose uncovered part is transport).
_LANE_PRIORITY = {"service.execute": 3, "queue.wait": 2,
                  "frontdoor.router": 1, "client.request": 0}


class SpanRecorder:
    """Thread-aware span stack; finished spans are kept in memory.

    Appends and ``next()`` on the id counter are atomic under the
    interpreter lock, so recording takes no lock (a lock held by another
    thread at ``fork`` time would deadlock a pool worker).
    """

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.enabled = True
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str, trace: Optional[str] = None) -> Span:
        stack = self._stack()
        parent = stack[-1] if stack else None
        span: Span = {
            "id": next(self._ids),
            "name": name,
            "start": time.time(),
            "end": None,
            "parent": parent["id"] if parent else None,
            "trace": trace or (parent["trace"] if parent else None),
            "attrs": {},
        }
        stack.append(span)
        return span

    def close(self, span: Span, trace: Optional[str] = None) -> None:
        span["end"] = time.time()
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()
        if trace:
            span["trace"] = trace
        # A request learns its job id only when the submit returns:
        # the enclosing span adopts it.
        if stack and stack[-1]["trace"] is None and span["trace"]:
            stack[-1]["trace"] = span["trace"]
        self.spans.append(span)


def resolve_traces(spans: List[Span]) -> List[Span]:
    """Give spans opened before their job id was known their parent's."""
    by_id = {span["id"]: span for span in spans}
    for span in spans:
        node = span
        while node["trace"] is None and node["parent"] in by_id:
            node = by_id[node["parent"]]
        span["trace"] = node["trace"]
    return spans


# ----------------------------------------------------------------------
# Wrapping the entry points
# ----------------------------------------------------------------------

def _arg(position: int) -> Callable[..., Optional[str]]:
    return lambda args, kwargs, result: (
        str(args[position]) if len(args) > position else None
    )


def _job_of_record(args: tuple, kwargs: dict, result: Any) -> Optional[str]:
    return getattr(args[1], "job_id", None) if len(args) > 1 else None


def _job_of_result(args: tuple, kwargs: dict, result: Any) -> Optional[str]:
    record = result[1] if isinstance(result, tuple) else result
    return getattr(record, "job_id", None)


def _job_of_request(args: tuple, kwargs: dict, result: Any) -> Optional[str]:
    match = _JOB_IN_PATH.match(getattr(args[1], "path", ""))
    return match.group(1) if match else None


def _cache_hit(span: Span, args: tuple, kwargs: dict, result: Any) -> None:
    span["attrs"]["hit"] = result is not None


def _store(span: Span, args: tuple, kwargs: dict, result: Any) -> None:
    span["attrs"]["bytes"] = len(args[3])
    span["attrs"]["evictions_total"] = int(args[0].stats.evictions)


def _kernel_bytes(span: Span, args: tuple, kwargs: dict, result: Any) -> None:
    span["attrs"]["bytes"] = int(args[0].nbytes)


def _planes(span: Span, args: tuple, kwargs: dict, result: Any) -> None:
    span["attrs"]["reused"] = int(result.reused_planes)
    span["attrs"]["rebuilt"] = int(result.rebuilt_planes)


def _models(span: Span, args: tuple, kwargs: dict, result: Any) -> None:
    span["attrs"]["reused"] = int(result.reused_models)
    span["attrs"]["rebuilt"] = int(result.rebuilt_models)


def _plan(span: Span, args: tuple, kwargs: dict, result: Any) -> None:
    span["attrs"]["clean"] = len(result.clean_shards)
    span["attrs"]["shards"] = int(result.n_shards)


def _outcome(span: Span, args: tuple, kwargs: dict, result: Any) -> None:
    span["attrs"]["workers"] = int(kwargs.get("n_workers", 1))
    span["attrs"]["reused"] = len(result.resumed_shards)
    span["attrs"]["retries"] = int(sum(result.failed_attempts.values()))


def _shard_stats(span: Span, args: tuple, kwargs: dict, result: Any) -> None:
    stats = args[2][2]
    span["attrs"]["shard"] = True
    span["attrs"]["search_s"] = float(
        sum(v for k, v in stats.items() if k.startswith("time_"))
    )


def _response(span: Span, args: tuple, kwargs: dict, result: Any) -> None:
    span["attrs"]["status"] = int(result.status)


#: (module, attribute path, span name, trace-id getter, after hook).
#: Each attribute is replaced in the module the caller looks it up in.
TARGETS: Tuple[Tuple[str, str, str, Any, Any], ...] = (
    ("repro.service.router", "ServiceRouter.handle", "frontdoor.router",
     _job_of_request, _response),
    ("repro.service.service", "MiningService.submit", "service.submit",
     _job_of_result, None),
    ("repro.service.service", "MiningService.submit_revision",
     "service.submit", _job_of_result, None),
    ("repro.service.service", "MiningService.result_page",
     "service.result_page", _arg(1), None),
    ("repro.service.service", "MiningService.wait_for_change",
     "service.wait", _arg(1), None),
    ("repro.service.service", "MiningService._execute", "service.execute",
     _arg(1), None),
    ("repro.service.service", "matrix_digest", "matrix.digest", None, None),
    ("repro.service.jobs", "JobStore.save", "jobs.write",
     _job_of_record, None),
    ("repro.service.jobs", "JobStore.update", "jobs.write", _arg(1), None),
    ("repro.service.jobs", "JobStore.save_shard", "jobs.write", _arg(1),
     _shard_stats),
    ("repro.service.cache", "ArtifactCache.get_index", "cache.get", None,
     _cache_hit),
    ("repro.service.cache", "ArtifactCache.get_kernel", "cache.get", None,
     _cache_hit),
    ("repro.service.cache", "ArtifactCache.get_result", "cache.get", None,
     _cache_hit),
    ("repro.service.cache", "ArtifactCache.put_index", "cache.put", None,
     None),
    ("repro.service.cache", "ArtifactCache.put_kernel", "cache.put", None,
     None),
    ("repro.service.cache", "ArtifactCache.put_result", "cache.put", None,
     None),
    ("repro.service.cache", "ArtifactCache._store", "cache.store", None,
     _store),
    ("repro.core.rwave", "RWaveIndex.__init__", "rwave.build", None, None),
    ("repro.core.kernels", "RegulationKernel.__init__", "kernels.build",
     None, _kernel_bytes),
    ("repro.service.service", "update_index", "incremental.update_index",
     None, _models),
    ("repro.service.service", "update_kernel", "incremental.update_kernel",
     None, _planes),
    ("repro.incremental.planner", "DirtyShardPlanner.plan",
     "incremental.plan", None, _plan),
    ("repro.service.service", "mine_sharded_outcome", "executor.mine",
     None, _outcome),
    ("repro.core.miner", "RegClusterMiner.mine", "miner.mine", None, None),
)


def _wrap(
    recorder: SpanRecorder,
    original: Callable[..., Any],
    name: str,
    trace_of: Optional[Callable[..., Optional[str]]],
    after: Optional[Callable[..., None]],
) -> Callable[..., Any]:
    @functools.wraps(original)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        if not recorder.enabled:
            return original(*args, **kwargs)
        span = recorder.open(
            name, trace_of(args, kwargs, None) if trace_of else None
        )
        result, ok = None, False
        try:
            result = original(*args, **kwargs)
            ok = True
            return result
        finally:
            trace = None
            if ok:
                try:
                    if after is not None:
                        after(span, args, kwargs, result)
                    if trace_of is not None:
                        trace = trace_of(args, kwargs, result)
                except (AttributeError, IndexError, KeyError, TypeError):
                    # A refactored return type loses the span's extras,
                    # never the daemon's answer.
                    span["attrs"]["hook_failed"] = 1
            recorder.close(span, trace)

    return wrapper


def install(recorder: SpanRecorder) -> List[str]:
    """Wrap every target; returns the targets this tree lacks.

    A target renamed by a later refactor is reported, not fatal: its
    layer then reads zero in the traced run.
    """
    missing: List[str] = []
    for module_name, path, name, trace_of, after in TARGETS:
        try:
            owner: Any = importlib.import_module(module_name)
            *parents, attribute = path.split(".")
            for part in parents:
                owner = getattr(owner, part)
            original = getattr(owner, attribute)
        except (ImportError, AttributeError):
            missing.append(f"{module_name}.{path}")
            continue
        setattr(owner, attribute, _wrap(recorder, original, name, trace_of,
                                        after))
    return missing


def dump(recorder: SpanRecorder, missing: List[str], path: str) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"missing": missing,
                   "spans": resolve_traces(recorder.spans)}, handle)


# ----------------------------------------------------------------------
# Attribution
# ----------------------------------------------------------------------

def _lanes(spans: Iterable[Span]) -> Dict[int, Tuple[int, int]]:
    """(lane priority, depth) of every span, from its root ancestor."""
    by_id = {span["id"]: span for span in spans}
    out: Dict[int, Tuple[int, int]] = {}
    for span in by_id.values():
        depth, node = 0, span
        while node["parent"] in by_id:
            node = by_id[node["parent"]]
            depth += 1
        out[span["id"]] = (_LANE_PRIORITY.get(node["name"], 1), depth)
    return out


def attribute(
    window: Tuple[float, float], spans: List[Span]
) -> Dict[str, float]:
    """Seconds of ``window`` per layer, plus ``unattributed``.

    ``spans`` are the job's own spans (server, client and its
    ``queue.wait`` interval).  The result sums to the window length.
    """
    t0, t1 = window
    lanes = _lanes(spans)
    intervals = []
    for span in spans:
        start, end = max(span["start"], t0), min(span["end"], t1)
        if end > start:
            lane, depth = lanes[span["id"]]
            intervals.append((start, end, lane, depth,
                              LAYER_OF.get(span["name"], "service")))
    cuts = sorted({t0, t1, *(i[0] for i in intervals),
                   *(i[1] for i in intervals)})
    out = {layer: 0.0 for layer in LAYERS}
    out["unattributed"] = 0.0
    for a, b in zip(cuts, cuts[1:]):
        best = None
        for start, end, lane, depth, layer in intervals:
            if start <= a and end >= b and (
                best is None or (lane, depth) > best[0]
            ):
                best = ((lane, depth), layer)
        out["unattributed" if best is None else best[1]] += b - a
    return out
