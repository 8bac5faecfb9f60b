"""Data Triage proper: queues, policies, strategies, merging, pipeline.

The package wires the substrates together exactly as paper Figure 1 does:
sources push into :class:`TriageQueue` instances, the engine drains them,
overflow is synopsized per window and estimated by the shadow plan
(:mod:`repro.rewrite.shadow`), and :mod:`repro.core.merge` produces the
composite per-window answer.  :class:`TriageRuntime` holds the queues and
per-window state of that loop; :class:`DataTriagePipeline` drives it on a
virtual clock; :class:`PipelineConfig` / :class:`ShedStrategy`
select between Data Triage and the drop-only / summarize-only baselines on
the single shared code path (paper Section 5.2.1).
"""

from repro.core.controller import LoadController, LoadEstimate
from repro.core.gateway import (
    DeliveredTuple,
    GatewayExperimentResult,
    GatewayOutput,
    TriageGateway,
    run_gateway_experiment,
)
from repro.core.merge import (
    Groups,
    MergeSpec,
    estimate_groups,
    exact_groups,
    merge_groups,
)
from repro.core.multi_query import SharedRunResult, SharedTriageRuntime
from repro.core.pipeline import DataTriagePipeline, RunResult, WindowOutcome
from repro.core.policies import (
    DROP_INCOMING,
    POLICIES,
    DropPolicy,
    FrequencyBiasedPolicy,
    HeadDropPolicy,
    PolicyContext,
    RandomDropPolicy,
    SynergisticPolicy,
    TailDropPolicy,
)
from repro.core.runtime import TriageRuntime
from repro.core.strategies import PipelineConfig, ShedStrategy
from repro.core.triage_queue import QueueStats, TriageQueue, WindowSynopsis

__all__ = [
    "DataTriagePipeline",
    "RunResult",
    "WindowOutcome",
    "PipelineConfig",
    "ShedStrategy",
    "TriageQueue",
    "TriageRuntime",
    "WindowSynopsis",
    "QueueStats",
    "DropPolicy",
    "PolicyContext",
    "RandomDropPolicy",
    "TailDropPolicy",
    "HeadDropPolicy",
    "FrequencyBiasedPolicy",
    "SynergisticPolicy",
    "POLICIES",
    "DROP_INCOMING",
    "MergeSpec",
    "Groups",
    "exact_groups",
    "estimate_groups",
    "merge_groups",
    "LoadController",
    "LoadEstimate",
    "TriageGateway",
    "GatewayOutput",
    "GatewayExperimentResult",
    "DeliveredTuple",
    "run_gateway_experiment",
    "SharedTriageRuntime",
    "SharedRunResult",
]
