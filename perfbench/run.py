"""Run one benchmark workload against the real serving program.

Usage (from the repository root)::

    python3 perfbench/run.py --workload wide-results --seed 1 --seconds 24 --trace 0

The server (``ServeEngine`` + ``TCPServer``) runs in a child process
started by ``server.py``; this process is the open-loop load generator
and the oracle.  Every answer is checked against extract-and-mine
(queries) or scalar ``Predicate.evaluate`` (segment memberships); a wrong
answer makes the command exit 1.

``--trace 0`` reports the end-to-end metrics: set-up time and one cold
pass over the distinct requests (medians over several server launches,
before and after the load phases), the highest rate on the workload's
ladder that meets its latency limit, wire bytes per row, the server's
peak memory and CPU time per request.  It also prints, without gating
them, the latency percentiles at the light and busy fixed rates.
``--trace 1`` instead alternates untraced and traced rounds at the light
rate, the traced ones with every layer's public callables wrapped, and
reports the per-layer metrics of ``metrics.py``.

The last stdout line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics`` (the metrics ``BENCHMARK.json``
lists); the lines before it print every metric with its unit, the fail
share and the run metadata.

Seeds 1 to 10 were used while the benchmark was written; seed 9001 is
held out for checking later claims on inputs nobody tuned against.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import platform
import random
import select
import sqlite3
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(1, str(HERE))

if not (ROOT / "src" / "repro").is_dir():
    # Never fall back on an installed copy: only the checkout is measured.
    sys.exit(f"no program under test at {ROOT / 'src' / 'repro'}")

try:
    import layers
    import loadgen
    import metrics
    import workloads
    from spans import Tracer
except ImportError as error:  # a checkout without the program's src/
    sys.exit(f"cannot import the program under test: {error}")

HOLDOUT_SEED = 9001

#: Share of ``--seconds`` given to the light and busy phases; the rest is
#: split evenly over the ladder rungs above them.
LIGHT_SHARE = BUSY_SHARE = 0.35
#: Rounds the light and busy phases (and the traced run) are split into.
ROUNDS = 3
#: Segment-match requests are all distinct; warmup passes over this many.
WARMUP_MATCHES = 40
#: How long a server may take to start or to answer one command.
SERVER_WAIT_S = 60.0


class ServerProcess:
    """The serving program in a child process, driven over stdin/stdout."""

    def __init__(self, workload: str, tiny: bool) -> None:
        command = [sys.executable, str(HERE / "server.py"), "--workload", workload]
        if tiny:
            command.append("--tiny")
        env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
        started = time.perf_counter()
        self.proc = subprocess.Popen(
            command,
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
            cwd=ROOT,
            env=env,
        )
        try:
            ready = self._readline()
            self.setup_s = time.perf_counter() - started
            if not ready.startswith("READY "):
                raise RuntimeError(f"server did not start: {ready!r}")
            self.port = int(ready.split()[1])
        except BaseException:
            self.close()
            raise

    def _readline(self) -> str:
        stream = self.proc.stdout
        assert stream is not None
        ready, _, _ = select.select([stream], [], [], SERVER_WAIT_S)
        if not ready:
            raise RuntimeError("server did not answer in time")
        return stream.readline().strip()

    def command(self, line: str) -> str:
        assert self.proc.stdin is not None
        self.proc.stdin.write(line + "\n")
        self.proc.stdin.flush()
        return self._readline()

    def stats(self) -> dict:
        return json.loads(self.command("stats"))

    def close(self) -> None:
        if self.proc.poll() is None:
            try:
                assert self.proc.stdin is not None
                self.proc.stdin.write("quit\n")
                self.proc.stdin.close()
            except OSError:
                pass
            try:
                self.proc.wait(timeout=20)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        if self.proc.stdout is not None:
            self.proc.stdout.close()


class Run:
    """One workload run: inputs, oracle, server, phases and verdicts."""

    def __init__(self, args) -> None:
        self.args = args
        self.params = workloads.params_for(args.workload, args.tiny)
        self.state = workloads.build_state(self.params)
        self.wrong = 0
        self.attempted = 0
        self.failed = 0
        if self.params.segments:
            # More distinct slices than the run can send: no phase is
            # longer than the run, nor faster than the top rung.
            budget = int(1.5 * max(self.params.ladder) * args.seconds) + 100
            matches = workloads.match_items(
                self.state, WARMUP_MATCHES + budget, args.seed
            )
            self.distinct = matches[:WARMUP_MATCHES]
            stream = matches[WARMUP_MATCHES:]
        else:
            self.distinct = stream = workloads.query_items(self.state)
        self.traffic = workloads.traffic(self.params, stream, args.seed)
        self.redeploy = (
            workloads.deploy_item(self.state)
            if self.params.redeploy_every_s
            else None
        )

    # -- phases -------------------------------------------------------------

    def arrivals(self, index: int, seconds: float, round_: int = 0) -> list:
        """The seeded schedule of one round at ladder rate ``index``."""
        return loadgen.schedule(
            self.params.ladder[index],
            seconds,
            self.traffic,
            random.Random(f"{self.args.seed}/{index}/{round_}"),
            redeploy=self.redeploy,
            redeploy_every=self.params.redeploy_every_s,
        )

    def phase(
        self, transport, counted, index: int, seconds: float, arrivals: list
    ):
        """One round at ladder rate ``index``, answers checked afterwards."""
        rate = self.params.ladder[index]
        phase = loadgen.run_phase(
            transport, counted, arrivals, rate, seconds, self.params.timeout_s
        )
        for entry, result in phase.results():
            if not workloads.check(entry.item, result):
                self.wrong += 1
                entry.error = ValueError("wrong answer")
        return phase

    def launch(self, setups: list, warmups: list):
        """A fresh server, timed to listening and through one cold pass."""
        server = ServerProcess(self.args.workload, self.args.tiny)
        setups.append(server.setup_s)
        try:
            transport, counted = loadgen.connect(server.port)
        except BaseException:
            server.close()
            raise
        try:
            warmups.append(self.warmup(transport))
        except BaseException:
            transport.close()
            server.close()
            raise
        return server, transport, counted

    def warmup(self, transport) -> float:
        seconds, outcomes = loadgen.run_sequential(
            transport, self.distinct, self.params.timeout_s
        )
        for item, outcome in outcomes:
            if isinstance(outcome, BaseException):
                self.failed += 1
            elif not workloads.check(item, outcome):
                self.wrong += 1
                self.failed += 1
        self.attempted += len(outcomes)
        return seconds

    def count(self, phase) -> None:
        self.attempted += len(phase.sent)
        self.failed += phase.failures

    def tail_ms(self, phase) -> float:
        """p95 latency, or the time the backlog took to drain if longer.

        Infinite when any request failed: a failure misses every limit.
        """
        latencies = phase.latencies_ms()
        if phase.failures or not latencies:
            return math.inf
        return max(loadgen.percentile(latencies, 95), phase.wall_end * 1e3)

    def rows(self, phase) -> int:
        return sum(entry.item.result_rows for entry, _ in phase.results())

    # -- the two kinds of run ----------------------------------------------------

    def end_to_end(self) -> dict:
        args, params = self.args, self.params
        # Every launch is timed to listening and then through one cold
        # pass over the distinct requests.  The last launch before the load
        # phases serves them; the rest come after, so the medians span the
        # whole run and not only its first seconds.
        before = (params.launches + 1) // 2
        setups, warmups = [], []
        for attempt in range(before):
            server, transport, counted = self.launch(setups, warmups)
            if attempt < before - 1:
                transport.close()
                server.close()
        try:
            try:
                # Light and busy alternate over several rounds and are
                # pooled, so a slow spell of the host lands on both and
                # each figure averages over most of the run.
                parts: tuple[list, list] = ([], [])
                cpu_before = server.stats()["cpu_s"]
                for round_ in range(ROUNDS):
                    for index, share in enumerate((LIGHT_SHARE, BUSY_SHARE)):
                        seconds = args.seconds * share / ROUNDS
                        parts[index].append(
                            self.phase(
                                transport,
                                counted,
                                index,
                                seconds,
                                self.arrivals(index, seconds, round_),
                            )
                        )
                # Peak memory is read before the rungs above the busy rate,
                # whose overload would make it depend on how the backlog
                # happened to build.
                fixed_rates = server.stats()
                cpu_s = fixed_rates["cpu_s"] - cpu_before
                rss_mb = fixed_rates["rss_mb"]
                light, busy = (loadgen.Phase.merged(p) for p in parts)
                for phase in (light, busy):
                    self.count(phase)
                # The rungs above the busy rate run until one misses the
                # limit.
                tails = [(p.rate, self.tail_ms(p)) for p in (light, busy)]
                rung_seconds = (
                    args.seconds * (1 - LIGHT_SHARE - BUSY_SHARE)
                    / max(1, len(params.ladder) - 2)
                )
                for index in range(2, len(params.ladder)):
                    if tails[-1][1] > params.latency_limit_ms:
                        break
                    phase = self.phase(
                        transport,
                        counted,
                        index,
                        rung_seconds,
                        self.arrivals(index, rung_seconds),
                    )
                    tails.append((phase.rate, self.tail_ms(phase)))
                self.lag_max_ms = max(
                    light.issue_lags_ms() + busy.issue_lags_ms(), default=0.0
                )
            finally:
                transport.close()
        finally:
            server.close()
        for _ in range(params.launches - before):
            server, transport, _ = self.launch(setups, warmups)
            transport.close()
            server.close()
        wire = sum(
            p.bytes_sent + p.bytes_received for p in (light, busy)
        ) / max(1, self.rows(light) + self.rows(busy))
        answered = sum(
            1
            for phase in (light, busy)
            for entry, _ in phase.results()
            if entry.item.kind != "deploy"
        )
        percentile = loadgen.percentile
        return {
            "setup_s": ("s", statistics.median(setups)),
            "warmup_s": ("s", statistics.median(warmups)),
            "p50_ms.light": ("ms", percentile(light.latencies_ms(), 50)),
            "p95_ms.light": ("ms", percentile(light.latencies_ms(), 95)),
            "p50_ms.busy": ("ms", percentile(busy.latencies_ms(), 50)),
            "p95_ms.busy": ("ms", percentile(busy.latencies_ms(), 95)),
            "max_rps": ("1/s", highest_rate(tails, params.latency_limit_ms)),
            "wire_bytes_per_row": ("B/row", wire),
            "server_rss_mb": ("MB", rss_mb),
            "server_cpu_ms_per_req": ("ms", 1e3 * cpu_s / max(1, answered)),
        }

    def traced(self) -> dict:
        args = self.args
        seconds = args.seconds / (2 * ROUNDS)
        client = Tracer()
        server = ServerProcess(args.workload, args.tiny)
        deltas: dict[str, dict[str, float]] = {}
        untraced, traced = [], []
        try:
            transport, counted = loadgen.connect(server.port)
            try:
                server.command("trace on")
                self.warmup(transport)
                warm = server.stats()
                server.command("trace off")
                server.command("trace reset")
                # Untraced and traced rounds alternate at the light rate,
                # each pair sending the same requests on the same schedule,
                # so their difference is the cost of tracing and not a slow
                # spell of the host or a costlier draw of requests.
                for round_ in range(ROUNDS):
                    arrivals = self.arrivals(0, seconds, round_)
                    untraced.append(
                        self.phase(transport, counted, 0, seconds, arrivals)
                    )
                    before = server.stats()
                    server.command("trace on")
                    client.install(layers.CLIENT_TARGETS)
                    try:
                        traced.append(
                            self.phase(transport, counted, 0, seconds, arrivals)
                        )
                    finally:
                        client.uninstall()
                        server.command("trace off")
                    layers.add_deltas(deltas, before, server.stats())
                after = server.stats()
            finally:
                transport.close()
        finally:
            server.close()
        untraced = loadgen.Phase.merged(untraced)
        traced = loadgen.Phase.merged(traced)
        for phase in (untraced, traced):
            self.count(phase)
        self.lag_max_ms = max(untraced.issue_lags_ms(), default=0.0)
        return layers.per_layer(
            untraced, traced, warm, after, deltas, client.summary()
        )


def highest_rate(tails: list[tuple[float, float]], limit: float) -> float:
    """The highest ladder rate met before the first rung missing ``limit``.

    ``tails`` holds ``(rate, tail_ms)`` for the rungs run, ascending; 0
    when even the first rung missed.
    """
    met = 0.0
    for rate, tail in tails:
        if tail > limit:
            break
        met = rate
    return met


def run_metadata(args, params) -> dict:
    import numpy

    sha = "unknown"
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            target = ROOT / ".git" / ref[5:]
            sha = target.read_text().strip() if target.is_file() else ref
        else:
            sha = ref
    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "sqlite": sqlite3.sqlite_version,
        "git_sha": sha,
        "seed": args.seed,
        "holdout_seed": HOLDOUT_SEED,
        "seconds": args.seconds,
        "trace": args.trace,
        "params": dataclasses.asdict(params),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload", required=True, choices=workloads.WORKLOADS
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=metrics.RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--tiny", action="store_true", help="tiny inputs, for the tests"
    )
    args = parser.parse_args(argv)
    run = Run(args)
    results = run.traced() if args.trace else run.end_to_end()
    gated = metrics.PER_LAYER if args.trace else metrics.END_TO_END
    limit = run.params.latency_limit_ms
    valid = run.lag_max_ms <= limit
    print(f"# meta {json.dumps(run_metadata(args, run.params))}")
    for name, (unit, value) in results.items():
        shown = "unmeasured" if value is None else f"{value:.6g}"
        print(f"{name:40s} {shown:>14s} {unit}")
    fail_share = run.failed / max(1, run.attempted)
    print(f"{'fail_share':40s} {fail_share:>14.6g} share")
    print(f"{'wrong_answers':40s} {run.wrong:>14d} count")
    if not valid:
        print(
            f"# invalid: the generator fell {run.lag_max_ms:.1f} ms behind "
            f"schedule (limit {limit:.0f} ms)"
        )
    correct = run.wrong == 0
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": run.attempted,
                "failed": run.failed,
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (unit, value) in results.items()
                    if name in gated
                },
            }
        )
    )
    return 0 if correct and valid else 1


if __name__ == "__main__":
    sys.exit(main())
