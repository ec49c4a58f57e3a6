"""Names, units and meaning of every metric the benchmark reports.

``BENCHMARK.json`` lists the same names; ``tests/test_perfbench.py``
checks that the two agree.  Each per-layer entry records which
end-to-end metric it should move, on which workload (``moves``); an
empty ``moves`` with a ``note`` states that no change is predicted.

Unless a definition says otherwise, a per-layer ``_ms`` figure is the
layer's *self* time (span time minus child spans on the same thread)
summed over the traced light phase and divided by the requests it
served, so it reads as milliseconds of that layer per request.
"""

from __future__ import annotations

#: Seconds one run measures (``--seconds``).
RUN_SECONDS = 24

#: Gated end-to-end metrics, listed in BENCHMARK.json:
#: name -> (unit, better, bound, definition).
END_TO_END = {
    "setup_s": (
        "s", "lower", 0.25,
        "launch of the server process until it listens (median over the "
        "workload's launches)",
    ),
    "warmup_s": (
        "s", "lower", 0.25,
        "one cold pass over the workload's distinct requests (median over "
        "the workload's launches)",
    ),
    "max_rps": (
        "1/s", "higher", 0.25,
        "highest ladder rate whose p95 (and backlog drain time) meets the "
        "limit with no failure, below the first rung that missed",
    ),
    "wire_bytes_per_row": (
        "B/row", "lower", 0.1,
        "client socket bytes both ways over result rows (segment-match: "
        "over input rows), light and busy phases",
    ),
    "server_rss_mb": (
        "MB", "lower", 0.15,
        "peak resident memory of the server process up to the end of the "
        "light and busy phases",
    ),
    "server_cpu_ms_per_req": (
        "ms", "lower", 0.25,
        "server process CPU time over the light and busy phases, per "
        "request answered",
    ),
}

#: Printed by every ``--trace 0`` run but not gated: on a 2-vCPU virtual
#: machine their spread over ten seeds was 0.25 to 0.5 of the median,
#: above any bound a regression gate could use.  name -> (unit, definition)
REPORTED = {
    "p50_ms.light": (
        "ms", "median latency from scheduled send time, light fixed rate"
    ),
    "p95_ms.light": ("ms", "95th percentile latency, light fixed rate"),
    "p50_ms.busy": ("ms", "median latency, busy fixed rate"),
    "p95_ms.busy": ("ms", "95th percentile latency, busy fixed rate"),
}

W, S, M = "wide-results", "selective-index", "segment-match"

#: name -> (unit, better, moves: ((end-to-end metric, workload), ...), note)
PER_LAYER = {
    "transport.bytes_out_per_req": (
        "B", "lower",
        (("wire_bytes_per_row", W), ("p50_ms.light", W),
         ("wire_bytes_per_row", M), ("p50_ms.light", M)),
        "no change predicted on selective-index",
    ),
    "transport.bytes_in_per_req": (
        "B", "lower",
        (("wire_bytes_per_row", W), ("wire_bytes_per_row", M),
         ("p50_ms.light", M)),
        "no change predicted on selective-index",
    ),
    "protocol.encode_ms": (
        "ms", "lower",
        (("p50_ms.light", W), ("max_rps", W), ("p50_ms.light", M),
         ("max_rps", M)),
        "server encode_response plus encode_frame",
    ),
    "protocol.request_decode_ms": (
        "ms", "lower",
        (("p50_ms.light", W), ("max_rps", W), ("p50_ms.light", M),
         ("max_rps", M)),
        "server frame parse plus decode_request",
    ),
    "protocol.client_decode_ms": (
        "ms", "lower",
        (("p50_ms.light", W), ("max_rps", W), ("p50_ms.light", M),
         ("max_rps", M)),
        "client frame parse plus decode_response",
    ),
    "engine.queue_wait_ms.p50": (
        "ms", "lower",
        (("p95_ms.busy", W), ("max_rps", W), ("p95_ms.busy", S),
         ("max_rps", S), ("p95_ms.busy", M), ("max_rps", M)),
        "ServeResult.queue_seconds; latency rises here before throughput "
        "stalls",
    ),
    "engine.queue_wait_ms.p95": (
        "ms", "lower",
        (("p95_ms.busy", W), ("p95_ms.busy", S), ("p95_ms.busy", M)),
        "ServeResult.queue_seconds",
    ),
    "engine.execute_ms": (
        "ms", "lower",
        (("p50_ms.light", W), ("p50_ms.light", S), ("p50_ms.light", M),
         ("max_rps", W), ("max_rps", S), ("max_rps", M)),
        "mean execute_seconds (match_seconds) of results not collapsed",
    ),
    "engine.collapsed_share": (
        "share", "higher",
        (("p95_ms.busy", W), ("max_rps", W)),
        "collapsed over submitted, engine.stats",
    ),
    "admission.shed_share": (
        "share", "lower",
        (("max_rps", W), ("max_rps", S), ("max_rps", M)),
        "shed over submitted, engine.stats",
    ),
    "batcher.requests_per_call": (
        "count", "higher", (("p95_ms.busy", W), ("max_rps", W)),
        "no change predicted at light rates: no overlap",
    ),
    "batcher.wait_ms": (
        "ms", "lower", (("p95_ms.busy", W), ("max_rps", W)),
        "MicroBatcher.score time not spent in the model, per score call",
    ),
    "batcher.score_ms": (
        "ms", "lower", (("p95_ms.busy", W), ("max_rps", W)),
        "model predict_batch time per batcher call",
    ),
    "match_batcher.requests_per_call": (
        "count", "higher", (("p95_ms.busy", M),), "segments.batcher"
    ),
    "match_batcher.wait_ms": (
        "ms", "lower", (("p95_ms.busy", M),),
        "MatchBatcher.match time not spent evaluating, per match call",
    ),
    "optimizer.optimize_ms": (
        "ms", "lower", (("p50_ms.light", S),),
        "no change predicted on wide-results",
    ),
    "plancache.lookup_ms": (
        "ms", "lower", (("p50_ms.light", S),),
        "get_or_optimize and record_estimate self time",
    ),
    "plancache.hit_share": (
        "share", "higher", (("p50_ms.light", S),),
        "no change predicted on wide-results",
    ),
    "plancache.evictions": (
        "count", "lower", (("p50_ms.light", S),), "during the traced phase"
    ),
    "plancache.invalidations": (
        "count", "lower", (("p50_ms.light", S),), "during the traced phase"
    ),
    "planner.capture_ms": (
        "ms", "lower", (("p50_ms.light", S),),
        "capture_select_plan, once per request",
    ),
    "calibration.observe_ms": (
        "ms", "lower", (("p50_ms.light", S),), "CalibrationStore.observe"
    ),
    "database.query_rows_ms": (
        "ms", "lower",
        (("p50_ms.light", W), ("p50_ms.light", S), ("server_rss_mb", W)),
        "fetch and row-to-dict together",
    ),
    "database.rows_fetched_per_req": (
        "count", "lower",
        (("p50_ms.light", W), ("p50_ms.light", S), ("server_rss_mb", W)),
        "ExecutionReport.rows_fetched",
    ),
    "executor.rows_fetched_per_row_returned": (
        "ratio", "lower", (("p50_ms.light", S),),
        "the paper's ratio: rows crossing SQL over rows returned",
    ),
    "executor.model_ms": (
        "ms", "lower", (("p50_ms.light", S),),
        "ExecutionReport.model_seconds (residual filter incl. scoring)",
    ),
    "columns.materialize_ms": (
        "ms", "lower", (("p50_ms.light", W),),
        "ColumnBatch.column, numeric and matrix",
    ),
    "columns.take_ms": (
        "ms", "lower", (("p50_ms.light", W),), "ColumnBatch.take"
    ),
    "ir_batch.evaluate_ms": (
        "ms", "lower", (("p50_ms.light", M), ("p50_ms.light", W)),
        "evaluate_batch, and top-level BatchLowering.mask for segments; "
        "only slight on wide-results",
    ),
    "ir_batch.mask_share": (
        "share", "higher", (("p50_ms.light", M),),
        "shared over computed plus shared, SegmentMatchResult.mask_stats",
    ),
    "mining.predict_batch_ms": (
        "ms", "lower", (("p50_ms.light", W),),
        "no change predicted on segment-match",
    ),
    "mining.rows_scored_per_row_returned": (
        "ratio", "lower", (("p50_ms.light", W),),
        "rows given to predict_batch over rows returned",
    ),
    "segments.match_ms": (
        "ms", "lower", (("p50_ms.light", M), ("max_rps", M)),
        "PredicateSetEvaluator.match total time per request",
    ),
    "segments.masks_per_batch": (
        "count", "lower", (("p50_ms.light", M), ("max_rps", M)),
        "masks computed per request, SegmentMatchResult.mask_stats",
    ),
    "data.load_s": (
        "s", "lower", (("setup_s", W), ("setup_s", S), ("setup_s", M)),
        "generate rows and load the table",
    ),
    "mining.train_s": (
        "s", "lower", (("setup_s", W), ("setup_s", S), ("setup_s", M)), ""
    ),
    "registry.deploy_s": (
        "s", "lower", (("setup_s", W), ("setup_s", S)), "envelope derivation"
    ),
    "advisor.tune_s": ("s", "lower", (("setup_s", S),), "tune_for_workload"),
    "segments.register_s": (
        "s", "lower", (("setup_s", M),), "build and register the segments"
    ),
    "stats.build_s": (
        "s", "lower", (("warmup_s", W), ("warmup_s", S)),
        "build_table_stats during the warmup pass",
    ),
    "registry.redeploy_ms": (
        "ms", "lower", (("p95_ms.light", S),),
        "ModelRegistry.register per DeployRequest",
    ),
    "trace.overhead_p50_share": (
        "share", "lower", (), "traced over untraced p50_ms.light, minus 1"
    ),
    "trace.attributed_share": (
        "share", "higher", (),
        "named layers' self time inside PredictionJoinExecutor.execute, "
        "which encloses the engine's execute time, over that span's time "
        "(segment-match: inside PredicateSetEvaluator.match)",
    ),
    "trace.requests": (
        "count", "higher", (), "requests answered in the traced phase: the "
        "base of every per-request figure",
    ),
    "gen.issue_lag_p99_ms": (
        "ms", "lower", (), "generator send time past due, untraced light"
    ),
    "gen.issue_lag_max_ms": (
        "ms", "lower", (), "the run is invalid when this passes the limit"
    ),
}


def benchmark_json() -> dict:
    """The ``BENCHMARK.json`` these definitions imply."""
    from workloads import WORKLOADS, WORKLOAD_WHY

    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [
            {"name": name, "why": WORKLOAD_WHY[name]} for name in WORKLOADS
        ],
        "end_to_end": [
            {"name": name, "unit": unit, "better": better, "bound": bound}
            for name, (unit, better, bound, _) in END_TO_END.items()
        ],
        "per_layer": [
            {"name": name, "unit": unit, "better": better}
            for name, (unit, better, _, _) in PER_LAYER.items()
        ],
    }
