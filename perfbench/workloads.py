"""The three benchmark workloads: fixed parameters, seeded traffic, oracle.

Everything here is built from public APIs only: datasets from
``repro.data.generators``, models from the learners, then
``ModelRegistry``, ``SegmentCatalog`` and ``tune_for_workload`` on the
server side.  The server bootstrap and the load generator call the same
deterministic builders, so the generator can compute the expected answer
of every request (the oracle) without asking the server anything.

The table, the models and the segment catalog come from the fixed
``DATA_SEED``; the run's ``--seed`` drives the traffic: arrival times,
the query drawn for each arrival and the row slices sent for matching.
A table drawn from the run seed would reshape the tree envelopes, and
with them SQL cost and set-up time, by up to 3x from seed to seed.

Rates are fixed absolute numbers, never calibrated per run: two commits
measured with the same parameters see the same offered load.
"""

from __future__ import annotations

import itertools
import random
from collections import Counter
from dataclasses import dataclass, replace

import numpy as np

from repro.core.derive import derive_envelopes
from repro.core.optimizer import MiningQuery
from repro.core.predicates import And, Comparison, Interval, Op, Or, Predicate
from repro.core.rewrite import PredictionEquals
from repro.data.generators import Dataset, class_label, generate
from repro.mining.decision_tree import DecisionTreeLearner
from repro.mining.naive_bayes import NaiveBayesLearner
from repro.serve import DeployRequest, MatchRequest, QueryRequest

#: Seed of every table, model and segment catalog (see the module doc).
DATA_SEED = 0

#: Skew of the hot-skewed query mix (Zipf-like weight 1/rank**SKEW).
SKEW = 1.1

#: Cards in the wide-results deck (one round of the hot-skewed mix).
DECK = 40

#: Shared vocabulary of the hand-written segments.
ATOM_POOL = 200
CONJUNCT_POOL = 400


@dataclass(frozen=True)
class Params:
    """Every fixed parameter of one workload.

    ``ladder`` lists the offered rates, ascending; its first two rungs are
    the light and busy rates, the rest probe for the highest rate that
    still meets ``latency_limit_ms`` at p95 with no failure and no
    backlog.  No rung sits near the rate where the limit is crossed on a
    2-CPU box, where host speed swings would make it pass on one run and
    miss on the next.  The top rung is far past it because request
    collapsing and match coalescing raise capacity once requests queue:
    a rung just past the knee sometimes passes.
    """

    name: str
    dataset: str
    rows: int
    ladder: tuple[float, ...]
    latency_limit_ms: float
    timeout_s: float
    workers: int = 2
    #: Server launches per run; ``setup_s`` and ``warmup_s`` are medians
    #: over them.
    launches: int = 5
    #: Interval between re-deploys of an already-deployed model (0: none).
    redeploy_every_s: float = 0.0
    #: Segment-match only: segments in the catalog, rows per request.
    segments: int = 0
    slice_rows: tuple[int, int] = (0, 0)


WORKLOADS: dict[str, Params] = {
    # Envelopes above the 0.2 selectivity gate are stripped, so every
    # request fetches, scores and ships thousands of rows; ~12 distinct
    # queries fit every cache and overlap under load.
    "wide-results": Params(
        name="wide-results",
        dataset="diabetes",
        rows=2000,
        # At 70 rps the tail ranged 0.27-1.9 s over six seeds (one pass);
        # at 110 rps every seed missed by more than 2 s.
        ladder=(10.0, 20.0, 32.0, 110.0),
        latency_limit_ms=600.0,
        timeout_s=5.0,
        # Its cold pass is about 0.35 s and scatters by a quarter from one
        # launch to the next; a launch costs under a second.
        launches=9,
    ),
    # Minority-class envelopes select an index path (the paper's own
    # mechanism); more distinct queries than the 256-entry plan cache,
    # plus a periodic re-deploy that invalidates every cached plan.
    "selective-index": Params(
        name="selective-index",
        dataset="shuttle",
        rows=8000,
        ladder=(10.0, 20.0, 26.0, 90.0),
        latency_limit_ms=600.0,
        timeout_s=5.0,
        redeploy_every_s=2.0,
        # Its cold pass takes about 5 s, long enough to be steady over
        # three launches; five would add about 12 s to every run.
        launches=3,
    ),
    # Rows travel in the request, membership lists come back; thousands
    # of shared masks per batch, coalesced by the segment match batcher.
    "segment-match": Params(
        name="segment-match",
        dataset="diabetes",
        rows=256,
        ladder=(8.0, 16.0, 20.0, 60.0),
        latency_limit_ms=600.0,
        timeout_s=5.0,
        segments=1000,
        slice_rows=(64, 128),
    ),
}


#: One line per workload: why it is in the benchmark.
WORKLOAD_WHY = {
    "wide-results": "stripped envelopes: every request fetches, scores and "
    "ships thousands of rows, so per-row fetch, materialize, score and "
    "encode cost dominates",
    "selective-index": "minority-class envelopes pick an index path (the "
    "paper's mechanism); more distinct queries than the plan cache, plus "
    "periodic redeploys",
    "segment-match": "rows travel in the request and membership lists come "
    "back: shared masks over 1000 segments, coalesced by the match "
    "batcher; no SQL or scoring",
}


#: Same shapes at a size that runs in seconds, for the benchmark's tests.
TINY: dict[str, Params] = {
    "wide-results": replace(
        WORKLOADS["wide-results"], rows=400, ladder=(10.0, 20.0), launches=2
    ),
    "selective-index": replace(
        WORKLOADS["selective-index"],
        rows=3000,
        ladder=(10.0, 20.0),
        redeploy_every_s=0.5,
        launches=2,
    ),
    "segment-match": replace(
        WORKLOADS["segment-match"],
        rows=80,
        ladder=(10.0, 20.0),
        segments=60,
        slice_rows=(8, 16),
        launches=2,
    ),
}


def params_for(name: str, tiny: bool = False) -> Params:
    return (TINY if tiny else WORKLOADS)[name]


# ---------------------------------------------------------------------------
# Shared deterministic state
# ---------------------------------------------------------------------------


@dataclass
class State:
    """What both sides build from the workload: data, models, segments.

    ``table_rows`` are the rows loaded into the served table (features
    only); ``models`` are trained on the labelled rows; ``segments`` is
    the ordered ``(name, predicate)`` catalog for segment matching.
    """

    params: Params
    dataset: Dataset
    table: str
    table_rows: list[dict]
    models: list
    segments: list[tuple[str, Predicate]]


def train_models(params: Params, dataset: Dataset) -> list:
    """The workload's mining models, trained on the generated rows."""
    features, target = dataset.feature_columns, dataset.target_column
    rows = dataset.train_rows
    if params.name == "wide-results":
        return [
            DecisionTreeLearner(
                features, target, max_depth=8, name="tree"
            ).fit(rows),
            # Five features: on all eight, deploying it derives envelopes
            # for 0.5 s to 26 s depending on the data (about 6 s on this
            # table), on every launch.
            NaiveBayesLearner(
                features[:5], target, bins=4, name="nb"
            ).fit(rows),
        ]
    if params.name == "selective-index":
        return [
            DecisionTreeLearner(
                features, target, max_depth=8, name="tree"
            ).fit(rows)
        ]
    return [
        DecisionTreeLearner(features, target, max_depth=8, name="tree").fit(
            rows
        ),
        DecisionTreeLearner(features, target, max_depth=3, name="stump").fit(
            rows
        ),
    ]


def generate_data(params: Params) -> tuple[Dataset, list[dict]]:
    """The labelled dataset and the feature-only rows of the served table."""
    size = 2000 if params.name == "segment-match" else params.rows
    dataset = generate(params.dataset, train_size=size, seed=DATA_SEED)
    features = dataset.feature_columns
    table_rows = [{c: row[c] for c in features} for row in dataset.train_rows]
    if params.name == "segment-match":
        table_rows = table_rows[: params.rows]
    return dataset, table_rows


def build_segments(
    params: Params, dataset: Dataset, models: list
) -> list[tuple[str, Predicate]]:
    """Model-backed envelope segments plus pooled hand-written ORs."""
    segments: list[tuple[str, Predicate]] = []
    for model in models:
        envelopes = derive_envelopes(model)
        for label in sorted(envelopes, key=str):
            segments.append(
                (f"{model.name}/{label}", envelopes[label].predicate)
            )
    rng = np.random.default_rng(DATA_SEED)
    rows = dataset.train_rows
    columns = dataset.feature_columns
    cuts = {
        column: np.quantile(
            np.asarray([float(row[column]) for row in rows]),
            np.linspace(0.05, 0.95, 19),
        )
        for column in columns
    }
    atoms: list[Predicate] = []
    while len(atoms) < ATOM_POOL:
        column = columns[int(rng.integers(len(columns)))]
        points = cuts[column]
        kind = int(rng.integers(3))
        if kind == 0:
            atoms.append(
                Comparison(column, Op.GE, float(points[rng.integers(19)]))
            )
        elif kind == 1:
            atoms.append(
                Comparison(column, Op.LT, float(points[rng.integers(19)]))
            )
        else:
            lo, hi = sorted(float(points[i]) for i in rng.integers(19, size=2))
            if lo < hi:
                atoms.append(Interval(column, lo, hi, True, False))
    conjuncts = [
        And(
            tuple(
                atoms[int(i)]
                for i in rng.choice(
                    ATOM_POOL, size=int(rng.integers(2, 4)), replace=False
                )
            )
        )
        for _ in range(CONJUNCT_POOL)
    ]
    for index in range(params.segments - len(segments)):
        picked = rng.choice(
            CONJUNCT_POOL, size=int(rng.integers(2, 5)), replace=False
        )
        segments.append(
            (f"pool/{index:04d}", Or(tuple(conjuncts[int(i)] for i in picked)))
        )
    return segments


def build_state(params: Params) -> State:
    """Data, models and segments of one workload (deterministic)."""
    dataset, table_rows = generate_data(params)
    models = train_models(params, dataset)
    segments = (
        build_segments(params, dataset, models)
        if params.segments
        else []
    )
    return State(
        params=params,
        dataset=dataset,
        table=dataset.name,
        table_rows=table_rows,
        models=models,
        segments=segments,
    )


# ---------------------------------------------------------------------------
# Requests and their oracle
# ---------------------------------------------------------------------------


@dataclass
class Item:
    """One distinct request plus the answer it must get.

    ``expected`` is a multiset of row tuples for queries, the tuple of
    per-row membership tuples for segment matches, and the model name
    for deploys.  ``result_rows`` is the divisor of ``wire_bytes_per_row``.
    """

    request: object
    expected: object
    result_rows: int
    kind: str


def _quantile_cutoffs(rows: list[dict], column: str, count: int) -> list:
    """``count`` distinct values spread over the column's 10-90% range."""
    values = sorted({row[column] for row in rows})
    picks = np.linspace(0.1, 0.9, count)
    return [values[int(q * (len(values) - 1))] for q in picks]


def _row_key(row: dict, columns: tuple[str, ...]) -> tuple:
    return tuple(row[c] for c in columns)


def _multiset(rows, columns: tuple[str, ...]) -> Counter:
    return Counter(_row_key(row, columns) for row in rows)


def query_items(state: State) -> list[Item]:
    """Distinct prediction-join queries, each with its expected rows.

    The oracle is extract-and-mine: every table row is scored once per
    model with scalar ``model.predict``, and a query's answer is the rows
    passing its relational predicate whose prediction equals its label.
    """
    params, rows, table = state.params, state.table_rows, state.table
    columns = tuple(rows[0])
    predictions = {
        model.name: [model.predict(row) for row in rows]
        for model in state.models
    }
    relational: list[Predicate | None] = [None]
    if params.name == "wide-results":
        for column in ("glucose", "bmi"):
            values = sorted(row[column] for row in rows)
            relational.append(
                Comparison(column, Op.LE, values[len(values) // 2])
            )
    else:
        for column in ("s0", "s2"):
            for cutoff in _quantile_cutoffs(rows, column, 13):
                relational.append(Comparison(column, Op.LE, cutoff))
                relational.append(Comparison(column, Op.GE, cutoff))
    items: list[Item] = []
    labels = [class_label(k) for k in range(state.dataset.spec.n_classes)]
    if params.name == "selective-index":
        # The five minority classes: the majority would make the envelope
        # unselective, and the rarest may go unpredicted on some seeds.
        labels = labels[1:6]
    for model in state.models:
        for label in labels:
            mining = (PredictionEquals(model.name, label),)
            for predicate in relational:
                query = (
                    MiningQuery(table, mining_predicates=mining)
                    if predicate is None
                    else MiningQuery(
                        table,
                        relational_predicate=predicate,
                        mining_predicates=mining,
                    )
                )
                expected = _multiset(
                    (
                        row
                        for row, predicted in zip(
                            rows, predictions[model.name]
                        )
                        if predicted == label
                        and (predicate is None or predicate.evaluate(row))
                    ),
                    columns,
                )
                items.append(
                    Item(
                        request=QueryRequest(
                            query, timeout=params.timeout_s
                        ),
                        expected=(columns, expected),
                        result_rows=sum(expected.values()),
                        kind="query",
                    )
                )
    return items


def match_items(state: State, count: int, seed: int) -> list[Item]:
    """``count`` distinct seeded slices of the row pool, with answers.

    The oracle evaluates every segment's predicate with scalar
    ``Predicate.evaluate`` on every pool row once; a slice's expected
    memberships are read off that table.
    """
    params, pool = state.params, state.table_rows
    names = [name for name, _ in state.segments]
    member = [
        tuple(
            name
            for name, predicate in state.segments
            if predicate.evaluate(row)
        )
        for row in pool
    ]
    low, high = params.slice_rows
    lengths = list(range(low, high + 1))
    count = min(count, sum(len(pool) - n + 1 for n in lengths))
    rng = random.Random(seed)
    picked: list[tuple[int, int]] = []
    seen: set[tuple[int, int]] = set()
    while len(picked) < count:
        # Every length once per round, so each phase sends the same mix
        # of slice sizes; starts are seeded and no slice repeats.
        rng.shuffle(lengths)
        for length in lengths:
            shape = (rng.randrange(len(pool) - length + 1), length)
            if shape not in seen:
                seen.add(shape)
                picked.append(shape)
    items = []
    for start, length in picked[:count]:
        rows = tuple(pool[start : start + length])
        items.append(
            Item(
                request=MatchRequest(rows=rows, timeout=params.timeout_s),
                expected=(tuple(names), tuple(member[start : start + length])),
                result_rows=length,
                kind="match",
            )
        )
    return items


def deploy_item(state: State) -> Item:
    """Re-publishing the first (already deployed) model over the wire."""
    model = state.models[0]
    return Item(
        request=DeployRequest(model=model.to_dict()),
        expected=model.name,
        result_rows=0,
        kind="deploy",
    )


def traffic(params: Params, items: list[Item], seed: int):
    """The endless seeded stream of requests a workload sends.

    The mix is dealt from a shuffled deck, so its proportions are the same
    in every phase and every seed and only the order is random.  The
    ``wide-results`` deck holds each query in proportion to a Zipf-like
    weight over its fixed position (hot-skewed); the ``selective-index``
    deck holds every distinct query once (a working set larger than the
    plan cache); ``segment-match`` sends each distinct slice once, in
    order (the run asks for more slices than it can send, so the list
    never wraps).
    """
    if params.segments:
        yield from itertools.cycle(items)
    deck = list(items)
    if params.name == "wide-results":
        weights = [1.0 / rank**SKEW for rank in range(1, len(items) + 1)]
        scale = DECK / sum(weights)
        deck = [
            item
            for item, weight in zip(items, weights)
            for _ in range(max(1, round(weight * scale)))
        ]
    rng = random.Random(seed)
    while True:
        rng.shuffle(deck)
        yield from deck


def check(item: Item, result) -> bool:
    """Whether ``result`` is the oracle's answer for ``item``."""
    if item.kind == "query":
        columns, expected = item.expected
        rows = result.rows
        return len(rows) == item.result_rows and (
            _multiset(rows, columns) == expected
        )
    if item.kind == "match":
        names, memberships = item.expected
        return (
            tuple(result.segment_names) == names
            and tuple(result.memberships) == memberships
        )
    return result.name == item.expected
