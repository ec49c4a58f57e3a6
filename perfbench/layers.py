"""Per-layer metrics of the traced run, computed from spans and counters.

Inputs are the pooled untraced and traced light rounds (same
schedules), the server's ``stats`` answers after the traced warmup
(``warm``) and at the end (``after``), the public counters
(``engine.stats``, ``plan_cache.stats``, the batchers) differenced over
the traced rounds only (``deltas``), and the client tracer's summary.
A layer whose callables were missing is reported as ``None``
(unmeasured).
"""

from __future__ import annotations

from metrics import PER_LAYER
from loadgen import percentile

#: Client-side wrapped callables: (module, attribute, span, observe).
CLIENT_TARGETS = (
    ("repro.serve.transport", "decode_response", "protocol.client_decode", None),
    ("repro.serve.protocol", "FrameDecoder.feed", "protocol.client_decode", None),
)

#: Span each per-layer metric depends on, for unmeasured reporting.
NEEDS = {
    "protocol.encode_ms": "protocol.encode",
    "protocol.request_decode_ms": "protocol.request_decode",
    "protocol.client_decode_ms": "protocol.client_decode",
    "batcher.wait_ms": "batcher.score_call",
    "batcher.score_ms": "mining.predict_batch",
    "match_batcher.wait_ms": "match_batcher.match_call",
    "optimizer.optimize_ms": "optimizer.optimize",
    "plancache.lookup_ms": "plancache.lookup",
    "planner.capture_ms": "planner.capture",
    "calibration.observe_ms": "calibration.observe",
    "database.query_rows_ms": "database.query_rows",
    "database.rows_fetched_per_req": "executor.execute",
    "executor.rows_fetched_per_row_returned": "executor.execute",
    "executor.model_ms": "executor.execute",
    "columns.materialize_ms": "columns.materialize",
    "columns.take_ms": "columns.take",
    "ir_batch.evaluate_ms": "ir_batch.evaluate",
    "mining.predict_batch_ms": "mining.predict_batch",
    "mining.rows_scored_per_row_returned": "mining.predict_batch",
    "segments.match_ms": "segments.match",
    "stats.build_s": "stats.build",
    "registry.redeploy_ms": "registry.redeploy",
    "trace.attributed_share": "executor.execute",
}


#: Counter groups of the server's ``stats`` answer.
COUNTERS = ("engine", "plan_cache", "batcher", "match_batcher")


def add_deltas(deltas: dict, before: dict, after: dict) -> None:
    """Accumulate ``after - before`` of every public counter into ``deltas``."""
    for group in COUNTERS:
        sums = deltas.setdefault(group, {})
        for key, value in after[group].items():
            sums[key] = sums.get(key, 0) + value - before[group].get(key, 0)


def _share(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def per_layer(untraced, traced, warm, after, deltas, client) -> dict:
    """Every per-layer metric as ``name -> (unit, value or None)``."""
    trace = after["trace"]

    def delta(group: str, key: str) -> float:
        return deltas.get(group, {}).get(key, 0)

    spans = dict(trace["spans"])
    spans.update(client["spans"])
    observed = trace["observed"]
    unmeasured = set(trace["unmeasured"]) | set(client["unmeasured"])
    unmeasured |= set(warm["trace"]["unmeasured"])

    answered = [
        (entry, result)
        for entry, result in traced.results()
        if entry.item.kind != "deploy"
    ]
    requests = max(1, len(answered))
    rows_returned = sum(entry.item.result_rows for entry, _ in answered)
    matches = [r for _, r in answered if hasattr(r, "mask_stats")]

    def seconds(span: str, self_only: bool = True) -> float:
        entry = spans.get(span)
        if entry is None:
            return 0.0
        return entry["self_seconds" if self_only else "seconds"]

    def calls(span: str) -> int:
        return spans.get(span, {}).get("calls", 0)

    def per_request_ms(span: str, self_only: bool = True) -> float:
        return seconds(span, self_only) * 1e3 / requests

    executions = observed.get("executor.execute", [])
    fetched = sum(e[0] for e in executions)
    returned = sum(e[1] for e in executions)
    scored = sum(observed.get("mining.predict_batch", []))
    service = [
        result.match_seconds
        if hasattr(result, "mask_stats")
        else result.execute_seconds
        for _, result in answered
        if not result.collapsed
    ]
    queue = [result.queue_seconds * 1e3 for _, result in answered]
    submitted = delta("engine", "submitted")
    batcher_calls = delta("batcher", "calls")
    matcher_calls = delta("match_batcher", "calls")
    lookups = delta("plan_cache", "hits") + delta("plan_cache", "misses")
    root = "segments.match" if matches else "executor.execute"
    root_seconds = seconds(root, self_only=False)
    untraced_p50 = percentile(untraced.latencies_ms(), 50)
    traced_p50 = percentile(traced.latencies_ms(), 50)
    lags = untraced.issue_lags_ms()
    computed = sum(r.mask_stats.computed for r in matches)
    shared = sum(r.mask_stats.shared for r in matches)
    warm_spans = warm["trace"]["spans"]
    setup = after["setup"]

    sent = max(1, len(traced.sent))
    values = {
        "transport.bytes_out_per_req": traced.bytes_received / sent,
        "transport.bytes_in_per_req": traced.bytes_sent / sent,
        "protocol.encode_ms": per_request_ms("protocol.encode"),
        "protocol.request_decode_ms": per_request_ms("protocol.request_decode"),
        "protocol.client_decode_ms": per_request_ms("protocol.client_decode"),
        "engine.queue_wait_ms.p50": percentile(queue, 50),
        "engine.queue_wait_ms.p95": percentile(queue, 95),
        "engine.execute_ms": 1e3 * sum(service) / max(1, len(service)),
        "engine.collapsed_share": _share(delta("engine", "collapsed"), submitted),
        "admission.shed_share": _share(delta("engine", "shed"), submitted),
        "batcher.requests_per_call": _share(
            delta("batcher", "requests"), batcher_calls
        ),
        "batcher.wait_ms": max(
            0.0,
            seconds("batcher.score_call", False)
            - seconds("mining.predict_batch", False),
        ) * 1e3 / max(1, calls("batcher.score_call")),
        "batcher.score_ms": _share(
            seconds("mining.predict_batch", False) * 1e3, batcher_calls
        ),
        "match_batcher.requests_per_call": _share(
            delta("match_batcher", "requests"), matcher_calls
        ),
        "match_batcher.wait_ms": max(
            0.0,
            seconds("match_batcher.match_call", False)
            - seconds("segments.match", False),
        ) * 1e3 / max(1, calls("match_batcher.match_call")),
        "optimizer.optimize_ms": per_request_ms("optimizer.optimize"),
        "plancache.lookup_ms": per_request_ms("plancache.lookup"),
        "plancache.hit_share": _share(delta("plan_cache", "hits"), lookups),
        "plancache.evictions": delta("plan_cache", "evictions"),
        "plancache.invalidations": delta("plan_cache", "invalidations"),
        "planner.capture_ms": per_request_ms("planner.capture"),
        "calibration.observe_ms": per_request_ms("calibration.observe"),
        "database.query_rows_ms": per_request_ms("database.query_rows"),
        "database.rows_fetched_per_req": fetched / max(1, len(executions)),
        "executor.rows_fetched_per_row_returned": _share(fetched, returned),
        "executor.model_ms": 1e3
        * sum(e[2] for e in executions)
        / max(1, len(executions)),
        "columns.materialize_ms": per_request_ms("columns.materialize"),
        "columns.take_ms": per_request_ms("columns.take"),
        "ir_batch.evaluate_ms": per_request_ms("ir_batch.evaluate"),
        "ir_batch.mask_share": _share(shared, computed + shared),
        "mining.predict_batch_ms": per_request_ms("mining.predict_batch"),
        "mining.rows_scored_per_row_returned": _share(scored, rows_returned),
        "segments.match_ms": per_request_ms("segments.match", False),
        "segments.masks_per_batch": computed / max(1, len(matches)),
        "data.load_s": setup.get("data.load_s", 0.0),
        "mining.train_s": setup.get("mining.train_s", 0.0),
        "registry.deploy_s": setup.get("registry.deploy_s", 0.0),
        "advisor.tune_s": setup.get("advisor.tune_s", 0.0),
        "segments.register_s": setup.get("segments.register_s", 0.0),
        "stats.build_s": warm_spans.get("stats.build", {}).get("seconds", 0.0),
        "registry.redeploy_ms": _share(
            seconds("registry.redeploy", False) * 1e3,
            calls("registry.redeploy"),
        ),
        "trace.overhead_p50_share": traced_p50 / untraced_p50 - 1,
        "trace.attributed_share": _share(
            trace["self_under_root"].get(root, 0.0), root_seconds
        ),
        "trace.requests": len(answered),
        "gen.issue_lag_p99_ms": percentile(lags, 99),
        "gen.issue_lag_max_ms": max(lags, default=0.0),
    }
    metrics = {}
    for name, (unit, _, _, _) in PER_LAYER.items():
        value = values[name]
        if NEEDS.get(name) in unmeasured:
            value = None
        metrics[name] = (unit, value)
    return metrics
