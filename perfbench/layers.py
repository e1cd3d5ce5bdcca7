"""Per-layer metrics of a traced loop (``--trace 1``).

Times and counts are per completed job, so runs of different lengths
compare; ratios are taken over the whole run.  Each ``<layer>.self_s``
is the layer's share of the job latency from :func:`spans.attribute`;
the eleven self times plus ``service.unattributed_s`` add up to
``bench.job_latency_mean_s``, and ``bench.layer_sum_error_s`` is the
largest per-job deviation from that sum.
"""

from __future__ import annotations

import statistics
from collections import defaultdict
from typing import Any, Dict, List

from calibrate import NOMINAL_S
from spans import LAYERS, attribute

#: (metric, unit) printed with ``--trace 1``
PER_LAYER = (
    ("frontdoor.requests", "count/job"),
    ("frontdoor.roundtrip_s", "s/job"),
    ("frontdoor.router_s", "s/job"),
    ("frontdoor.transport_s", "s/job"),
    ("frontdoor.shed", "count/job"),
    ("scheduling.queue_wait_s", "s/job"),
    ("matrix.digest_s", "s/job"),
    ("service.submit_s", "s/job"),
    ("service.run_s", "s/job"),
    ("service.result_page_s", "s/job"),
    ("service.unattributed_s", "s/job"),
    ("jobs.writes", "count/job"),
    ("jobs.write_s", "s/job"),
    ("cache.gets", "count/job"),
    ("cache.hits", "count/job"),
    ("cache.hit_ratio", "ratio"),
    ("cache.get_s", "s/job"),
    ("cache.put_s", "s/job"),
    ("cache.bytes_written", "B/job"),
    ("cache.evictions", "count/job"),
    ("rwave.builds", "count/job"),
    ("rwave.build_s", "s/job"),
    ("rwave.share", "ratio"),
    ("kernels.builds", "count/job"),
    ("kernels.build_s", "s/job"),
    ("kernels.bytes", "B/job"),
    ("incremental.update_index_s", "s/job"),
    ("incremental.update_kernel_s", "s/job"),
    ("incremental.plan_s", "s/job"),
    ("incremental.reused_planes_ratio", "ratio"),
    ("incremental.clean_shard_ratio", "ratio"),
    ("executor.mine_s", "s/job"),
    ("executor.shards_mined", "count/job"),
    ("executor.shards_reused", "count/job"),
    ("executor.retries", "count/job"),
    ("executor.parallel_efficiency", "ratio"),
    ("executor.pickled_bytes", "B/job"),
    ("miner.nodes_expanded", "count/job"),
    ("miner.nodes_per_s", "1/s"),
    ("miner.candidates_s", "s/job"),
    ("miner.windows_s", "s/job"),
    ("miner.emit_s", "s/job"),
    ("miner.clusters", "count/job"),
    *((f"{layer}.self_s", "s/job") for layer in LAYERS),
    ("bench.job_latency_mean_s", "s"),
    ("bench.layer_sum_error_s", "s"),
    ("bench.trace_overhead_ratio", "ratio"),
    ("bench.traced_jobs", "count"),
    ("bench.missing_targets", "count"),
)


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def _client_span(job: Any, start: float, end: float, n: int) -> Dict[str, Any]:
    return {"id": -n, "name": "client.request", "start": start, "end": end,
            "parent": None, "trace": job.job_id, "attrs": {}}


def layer_metrics(plain: Any, traced: Any, verifier: Any,
                  workload: Any) -> Dict[str, float]:
    """Every :data:`PER_LAYER` metric of one traced loop."""
    stores = sorted((s for s in traced.spans if s["name"] == "cache.store"),
                    key=lambda s: s["end"])
    evicted = 0
    for span in stores:
        total = span["attrs"].get("evictions_total", evicted)
        span["attrs"]["evictions"], evicted = total - evicted, total
    by_trace: Dict[Any, List[Dict[str, Any]]] = defaultdict(list)
    for span in traced.spans:
        by_trace[span["trace"]].append(span)

    jobs = [job for job in traced.jobs if job.ok]
    n = len(jobs)
    count: Dict[str, float] = defaultdict(float)
    busy: Dict[str, float] = defaultdict(float)
    attr: Dict[str, float] = defaultdict(float)
    self_s: Dict[str, float] = defaultdict(float)
    other: Dict[str, float] = defaultdict(float)
    worst = 0.0
    for job in jobs:
        t0, t1 = job.window
        own = [s for s in by_trace.get(job.job_id, [])
               if s["start"] < t1 and s["end"] > t0]
        extra = [_client_span(job, a, b, i + 1)
                 for i, (a, b) in enumerate(job.trips)]
        record = job.record
        executed = (record.get("started_at") or 0.0) >= t0
        if executed:
            extra.append({"id": 0, "name": "queue.wait",
                          "start": record["submitted_at"],
                          "end": record["started_at"], "parent": None,
                          "trace": job.job_id, "attrs": {}})
            other["queue_wait"] += record["started_at"] - record["submitted_at"]
            other["run"] += record["finished_at"] - record["started_at"]
            other["nodes"] += record.get("progress", {}).get(
                "nodes_expanded", 0)
            for phase, seconds in (record.get("phase_timers") or {}).items():
                other[phase] += seconds
            if workload.workers > 1:
                other["pickled"] += verifier.pickled_index_bytes(job.op)
        parts = attribute((t0, t1), own + extra)
        for layer, seconds in parts.items():
            self_s[layer] += seconds
        worst = max(worst, abs(sum(parts.values()) - (t1 - t0)))
        other["latency"] += t1 - t0
        other["roundtrip"] += sum(b - a for a, b in job.trips)
        other["shed"] += job.shed
        other["clusters"] += len(job.clusters)
        for span in own:
            if span["start"] < t0:
                continue
            name, attrs = span["name"], span["attrs"]
            count[name] += 1
            busy[name] += span["end"] - span["start"]
            for key, value in attrs.items():
                attr[f"{name}.{key}"] += float(value)
            if name == "executor.mine":
                other["pool_s"] += attrs.get("workers", 1) * (
                    span["end"] - span["start"])

    search_s = other["candidates"] + other["windows"] + other["emit"]
    per_job = {
        "frontdoor.requests": count["frontdoor.router"],
        "frontdoor.roundtrip_s": other["roundtrip"],
        "frontdoor.router_s": busy["frontdoor.router"],
        "frontdoor.transport_s": other["roundtrip"] - busy["frontdoor.router"],
        "frontdoor.shed": other["shed"],
        "scheduling.queue_wait_s": other["queue_wait"],
        "matrix.digest_s": busy["matrix.digest"],
        "service.submit_s": busy["service.submit"],
        "service.run_s": other["run"],
        "service.result_page_s": busy["service.result_page"],
        "service.unattributed_s": self_s["unattributed"],
        "jobs.writes": count["jobs.write"],
        "jobs.write_s": busy["jobs.write"],
        "cache.gets": count["cache.get"],
        "cache.hits": attr["cache.get.hit"],
        "cache.get_s": busy["cache.get"],
        "cache.put_s": busy["cache.put"],
        "cache.bytes_written": attr["cache.store.bytes"],
        "cache.evictions": attr["cache.store.evictions"],
        "rwave.builds": count["rwave.build"],
        "rwave.build_s": busy["rwave.build"],
        "kernels.builds": count["kernels.build"],
        "kernels.build_s": busy["kernels.build"],
        "kernels.bytes": attr["kernels.build.bytes"],
        "incremental.update_index_s": busy["incremental.update_index"],
        "incremental.update_kernel_s": busy["incremental.update_kernel"],
        "incremental.plan_s": busy["incremental.plan"],
        "executor.mine_s": busy["executor.mine"],
        "executor.shards_mined": attr["jobs.write.shard"],
        "executor.shards_reused": attr["executor.mine.reused"],
        "executor.retries": attr["executor.mine.retries"],
        "executor.pickled_bytes": other["pickled"],
        "miner.nodes_expanded": other["nodes"],
        "miner.candidates_s": other["candidates"],
        "miner.windows_s": other["windows"],
        "miner.emit_s": other["emit"],
        "miner.clusters": other["clusters"],
        **{f"{layer}.self_s": self_s[layer] for layer in LAYERS},
    }
    out = {name: value / n for name, value in per_job.items()}
    reused = attr["incremental.update_kernel.reused"]
    plain_ok = [job.latency * NOMINAL_S / job.host
                for job in plain.jobs if job.ok]
    out.update({
        "cache.hit_ratio": _ratio(attr["cache.get.hit"], count["cache.get"]),
        "rwave.share": _ratio(self_s["rwave"], other["latency"]),
        "incremental.reused_planes_ratio": _ratio(
            reused, reused + attr["incremental.update_kernel.rebuilt"]),
        "incremental.clean_shard_ratio": _ratio(
            attr["incremental.plan.clean"], attr["incremental.plan.shards"]),
        "executor.parallel_efficiency": _ratio(
            attr["jobs.write.search_s"], other["pool_s"]),
        "miner.nodes_per_s": _ratio(other["nodes"], search_s),
        "bench.job_latency_mean_s": other["latency"] / n,
        "bench.layer_sum_error_s": worst,
        "bench.trace_overhead_ratio": _ratio(
            statistics.median(job.latency * NOMINAL_S / job.host
                              for job in jobs),
            statistics.median(plain_ok) if plain_ok else 0.0),
        "bench.traced_jobs": float(n),
        "bench.missing_targets": float(len(traced.missing)),
    })
    return out
