"""Server bootstrap: one workload served by ``ServeEngine`` + ``TCPServer``.

Run as a child process by ``run.py``::

    python3 perfbench/server.py --workload wide-results

It builds the workload's state (data, models, registry, advisor indexes,
segment catalog), starts a TCP server on an ephemeral localhost port and
prints ``READY <port>``.  Then it obeys one command per stdin line,
answering each with one stdout line:

* ``trace on`` / ``trace off`` — patch / restore the layer wrappers;
* ``trace reset`` — forget the spans recorded so far;
* ``stats`` — a JSON object of setup timings, span aggregates, public
  counters (``engine.stats``, ``plan_cache.stats``, the batchers) and the
  peak resident memory;
* ``quit`` (or end of input) — shut down and exit.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import resource
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
sys.path.insert(1, str(Path(__file__).resolve().parent))

import workloads  # noqa: E402
from repro.segments.catalog import SegmentCatalog  # noqa: E402
from repro.serve import ModelRegistry, ServeEngine, TCPServer  # noqa: E402
from repro.sql.advisor import tune_for_workload  # noqa: E402
from repro.sql.database import Database  # noqa: E402
from repro.sql.schema import TableSchema  # noqa: E402
from spans import Tracer  # noqa: E402


def _report_fields(report) -> tuple[int, int, float]:
    return (report.rows_fetched, report.rows_returned, report.model_seconds)


#: Server-side wrapped callables: (module, attribute, span, observe).
SERVER_TARGETS = (
    (
        "repro.sql.miningext",
        "PredictionJoinExecutor.execute",
        "executor.execute",
        _report_fields,
    ),
    ("repro.sql.plancache", "optimize", "optimizer.optimize", None),
    ("repro.sql.miningext", "optimize", "optimizer.optimize", None),
    ("repro.sql.plancache", "PlanCache.get_or_optimize", "plancache.lookup", None),
    ("repro.sql.plancache", "PlanCache.record_estimate", "plancache.lookup", None),
    ("repro.sql.miningext", "capture_select_plan", "planner.capture", None),
    ("repro.sql.miningext", "build_table_stats", "stats.build", None),
    ("repro.sql.calibration", "CalibrationStore.observe", "calibration.observe", None),
    ("repro.sql.database", "Database.query_rows", "database.query_rows", None),
    ("repro.core.columns", "ColumnBatch.column", "columns.materialize", None),
    ("repro.core.columns", "ColumnBatch.numeric", "columns.materialize", None),
    ("repro.core.columns", "ColumnBatch.matrix", "columns.materialize", None),
    ("repro.core.columns", "ColumnBatch.take", "columns.take", None),
    ("repro.ir.batch", "evaluate_batch", "ir_batch.evaluate", None),
    ("repro.segments.evaluator", "BatchLowering", "ir_batch.evaluate", None),
    ("repro.segments.evaluator", "PredicateSetEvaluator.match", "segments.match", None),
    ("repro.serve.batcher", "MicroBatcher.score", "batcher.score_call", None),
    ("repro.segments.batcher", "MatchBatcher.match", "match_batcher.match_call", None),
    (
        "repro.mining.decision_tree",
        "DecisionTreeModel.predict_batch",
        "mining.predict_batch",
        len,
    ),
    (
        "repro.mining.naive_bayes",
        "NaiveBayesModel.predict_batch",
        "mining.predict_batch",
        len,
    ),
    ("repro.serve.transport", "encode_response", "protocol.encode", None),
    ("repro.serve.transport", "encode_frame", "protocol.encode", None),
    ("repro.serve.transport", "decode_request", "protocol.request_decode", None),
    ("repro.serve.protocol", "FrameDecoder.feed", "protocol.request_decode", None),
    ("repro.serve.registry", "ModelRegistry.register", "registry.redeploy", None),
)


class Served:
    """One workload's engine and TCP front-end, plus its setup timings."""

    def __init__(self, workload: str, tiny: bool) -> None:
        params = workloads.params_for(workload, tiny)
        self.setup: dict[str, float] = {}
        started = time.perf_counter()
        dataset, table_rows = workloads.generate_data(params)
        db = Database()
        if params.name != "segment-match":
            db.create_table(TableSchema.from_rows(dataset.name, table_rows[:1]))
            db.insert_rows(dataset.name, table_rows)
        self.setup["data.load_s"] = time.perf_counter() - started

        started = time.perf_counter()
        models = workloads.train_models(params, dataset)
        self.setup["mining.train_s"] = time.perf_counter() - started

        registry = ModelRegistry()
        catalog = None
        if params.name == "segment-match":
            started = time.perf_counter()
            catalog = SegmentCatalog()
            for name, predicate in workloads.build_segments(
                params, dataset, models
            ):
                catalog.register(name, predicate)
            self.setup["segments.register_s"] = time.perf_counter() - started
        else:
            started = time.perf_counter()
            deployed = [registry.register(m, deploy=True) for m in models]
            self.setup["registry.deploy_s"] = time.perf_counter() - started
        if params.name == "selective-index":
            started = time.perf_counter()
            envelopes = [
                envelope.predicate
                for entry in deployed
                for envelope in entry.envelopes.values()
            ]
            tune_for_workload(db, dataset.name, envelopes)
            self.setup["advisor.tune_s"] = time.perf_counter() - started

        self.db = db
        self.engine = ServeEngine(
            db, registry, workers=params.workers, segment_catalog=catalog
        )
        self.server = TCPServer(self.engine)
        self.tracer = Tracer()

    def stats(self) -> dict:
        """Setup timings, spans, public counters, peak memory, CPU time.

        Counters are read through ``_read`` so that a later program
        without one of these tallies still serves the untraced run.
        """
        engine = self.engine
        return {
            "setup": self.setup,
            "trace": self.tracer.summary(),
            "engine": _read(lambda: engine.stats.snapshot()),
            "plan_cache": _read(
                lambda: dataclasses.asdict(engine.plan_cache.stats)
            ),
            "batcher": _read(lambda: _batcher_counts(engine.batcher)),
            "match_batcher": _read(
                lambda: _batcher_counts(engine.match_batcher)
            ),
            "rss_mb": _peak_rss_mb(),
            "cpu_s": _cpu_seconds(),
        }

    def close(self) -> None:
        self.tracer.uninstall()
        self.server.close()
        self.engine.shutdown(drain=False)
        self.db.close()


def _peak_rss_mb() -> float:
    """Peak resident memory of this process since it was started.

    ``VmHWM`` belongs to the process image, so it starts afresh at exec;
    ``ru_maxrss`` would carry over the launching process's size.
    """
    try:
        with open("/proc/self/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _cpu_seconds() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def _read(counters) -> dict:
    try:
        return counters()
    except AttributeError:
        return {}


def _batcher_counts(batcher) -> dict:
    if batcher is None:
        return {}
    return {
        name: getattr(batcher, name, 0)
        for name in ("calls", "requests")
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--tiny", action="store_true")
    args = parser.parse_args(argv)
    served = Served(args.workload, args.tiny)
    try:
        print(f"READY {served.server.address[1]}", flush=True)
        for line in sys.stdin:
            command = line.strip()
            if command == "trace on":
                served.tracer.install(SERVER_TARGETS)
                print("OK", flush=True)
            elif command == "trace reset":
                served.tracer.reset()
                print("OK", flush=True)
            elif command == "trace off":
                served.tracer.uninstall()
                print("OK", flush=True)
            elif command == "stats":
                print(json.dumps(served.stats()), flush=True)
            elif command == "quit":
                break
            else:
                print(f"ERROR unknown command {command!r}", flush=True)
    finally:
        served.close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
