"""Golden digests of pattern-utility shedding.

Each pin hashes a canonical encoding of a whole fixed-seed run: the match
bytes, the queue statistics and every victim decision the policy made (the
returned buffer index and ``PolicyContext.last_score``, floats by
``repr``).  Any change to which tuple is shed, or to the score the audit
ledger would record for it, moves a digest.  Update one only for a change
meant to alter decisions, and say so where the change is recorded.
"""

from __future__ import annotations

import dataclasses
import hashlib

import pytest

from repro.cep import (
    DEMO_PATTERN,
    PatternConfig,
    PatternPipeline,
    PatternUtilityPolicy,
    bursty_pattern_workload,
    canonical_match_bytes,
    demo_catalog,
)
from repro.core.pipeline import DataTriagePipeline
from repro.core.strategies import PipelineConfig
from repro.service.dataplane import StreamDataPlane
from repro.sql.binder import Binder
from repro.sql.parser import parse_statement

QUERY = (
    "SELECT A.k, COUNT(*) AS n FROM A, B, C "
    "WHERE A.k = B.k AND B.k = C.k GROUP BY A.k; "
    "WINDOW A ['2 seconds'], B ['2 seconds'], C ['2 seconds']"
)


class LoggingPolicy(PatternUtilityPolicy):
    """Pattern utility that records every decision it returns."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.decisions: list[str] = []

    def select_victim(self, buffer, incoming, context):
        idx = super().select_victim(buffer, incoming, context)
        self.decisions.append(f"{idx}:{context.last_score!r}")
        return idx


def digest(parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part if isinstance(part, bytes) else repr(part).encode("utf-8"))
        h.update(b"\x00")
    return h.hexdigest()


PIPELINE_DIGESTS = {
    0: "7b3b684e7c157782a63ed74f50f09a6deb570e320fd53506c6aa426e63e0eb4d",
    1: "69d667de85d9113b815093693f8cab85febeb5758c67afeab53b54b479b6d902",
    24: "996acf7a03b7c5cd55f32a1a80444d7077b807d4be44ba437474471ab586a578",
}
PLANE_DIGEST = "c9a876b10e6c85894b20e2f080ff0bd0ee55a7acb64360de63ad0fca5196c1dd"


@pytest.mark.parametrize("seed", sorted(PIPELINE_DIGESTS))
def test_pattern_pipeline_digest(seed):
    policy = LoggingPolicy()
    pipeline = PatternPipeline(
        demo_catalog(), DEMO_PATTERN, PatternConfig(policy=policy)
    )
    result = pipeline.run(bursty_pattern_workload(n_events=20000, seed=seed))
    assert result.dropped > 0 and len(policy.decisions) == result.queue_stats.overflows
    parts = [
        canonical_match_bytes(result.matches),
        dataclasses.astuple(result.queue_stats),
        *policy.decisions,
    ]
    assert digest(parts) == PIPELINE_DIGESTS[seed]


def test_shared_policy_over_plane_queues_digest():
    # One policy instance serves the A, B and C queues (stream_tag=None:
    # each queue's name is its stream).  The engine is bound after the
    # queues exist, as the server does on attach_pattern.
    policy = LoggingPolicy()
    catalog = demo_catalog()
    pipeline = DataTriagePipeline(
        catalog, QUERY, PipelineConfig(queue_capacity=16, policy=policy)
    )
    plane = StreamDataPlane(pipeline)
    pattern = Binder(catalog).bind_pattern(parse_statement(DEMO_PATTERN))
    policy.bind_engine(plane.attach_pattern(pattern))
    events = bursty_pattern_workload(n_events=6000, seed=5)
    for i in range(0, len(events), 40):
        chunk = events[i : i + 40]
        j = 0
        while j < len(chunk):
            stream = chunk[j][0]
            rows, stamps = [], []
            while j < len(chunk) and chunk[j][0] == stream:
                rows.append(list(chunk[j][1].row))
                stamps.append(chunk[j][1].timestamp)
                j += 1
            plane.ingest(stream, rows, stamps, stamps[-1])
        plane.drain(25)
    plane.drain(None)
    stats = plane.stats_snapshot()
    assert len(policy.decisions) == sum(s[3] for s in stats.values()) > 0
    parts = [
        canonical_match_bytes(plane.take_matches()),
        sorted(stats.items()),
        *policy.decisions,
    ]
    assert digest(parts) == PLANE_DIGEST
