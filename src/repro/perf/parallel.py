"""Process-pool evaluation of independent query windows.

Window evaluation — exact query over kept bags, shadow plan over synopses,
merge — touches no shared state between windows, so a batch of closed
windows is embarrassingly parallel.  :class:`ParallelWindowEvaluator` chunks
the batch contiguously across a ``ProcessPoolExecutor`` and concatenates the
per-chunk outcomes, so results come back in exactly the caller's window-id
order: ``config.parallel_windows = N`` must never change a
:class:`~repro.core.pipeline.RunResult`, only its wall-clock cost.

Workers are primed once (pool initializer) with a pickled
(catalog, bound query, config, domains) tuple from which each rebuilds its
own :class:`~repro.core.pipeline.DataTriagePipeline`; per-batch traffic is
then only the window slices and their outcomes.  The pool uses the ``fork``
start method where available so workers inherit loaded modules instead of
re-importing the world.

Callers must treat any exception as "evaluate serially instead" — pool
breakage (a killed worker, an unpicklable synopsis) is a performance event,
not a correctness event.  :meth:`DataTriagePipeline.evaluate_windows` does
exactly that.
"""

from __future__ import annotations

import multiprocessing
import pickle
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace

from repro.core.merge import restrict_windows

# Worker-side pipeline, rebuilt once per worker by _init_worker.
_WORKER_PIPELINE = None


def fork_context():
    """The ``fork`` multiprocessing context, or the platform default.

    Forked workers inherit loaded modules instead of re-importing the
    world; shared by the window-evaluation pool here and the shard workers
    of :mod:`repro.service.shard`.
    """
    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX platforms
        return multiprocessing.get_context()


def pipeline_payload(pipeline) -> bytes:
    """Pickle the recipe a worker needs to rebuild ``pipeline``.

    The payload is (catalog, bound query, config, domains) — config with
    ``parallel_windows`` stripped, because a worker that fans out again
    forks uncontrollably.  Observability never crosses the process
    boundary: workers run uninstrumented and ship results back.
    """
    config = replace(pipeline.config, parallel_windows=None)
    return pickle.dumps(
        (pipeline.catalog, pipeline.bound, config, pipeline._domains)
    )


def build_pipeline_from_payload(payload: bytes):
    """Worker side of :func:`pipeline_payload`."""
    from repro.core.pipeline import DataTriagePipeline

    catalog, bound, config, domains = pickle.loads(payload)
    return DataTriagePipeline(catalog, bound, config, domains)


def _init_worker(payload: bytes) -> None:
    global _WORKER_PIPELINE
    _WORKER_PIPELINE = build_pipeline_from_payload(payload)


def _eval_chunk(args: tuple):
    return _WORKER_PIPELINE._evaluate_windows_serial(*args)


class ParallelWindowEvaluator:
    """Chunked, order-preserving fan-out of window evaluation.

    One instance is held (lazily) by a pipeline; the pool spins up on first
    use and is reused across batches until :meth:`shutdown`.
    """

    def __init__(self, pipeline, workers: int) -> None:
        if workers < 2:
            raise ValueError(f"parallel evaluation needs >= 2 workers: {workers}")
        self.workers = workers
        self._payload = pipeline_payload(pipeline)
        self._pool: ProcessPoolExecutor | None = None

    def _ensure_pool(self) -> ProcessPoolExecutor:
        if self._pool is None:
            ctx = fork_context()
            self._pool = ProcessPoolExecutor(
                max_workers=self.workers,
                mp_context=ctx,
                initializer=_init_worker,
                initargs=(self._payload,),
            )
        return self._pool

    def shutdown(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=False, cancel_futures=True)
            self._pool = None

    def evaluate(self, partials, ideal_inputs=None):
        """Evaluate ``partials``' windows across the pool, in their order."""
        pool = self._ensure_pool()
        window_ids = partials.window_ids
        n = len(window_ids)
        chunk_size = -(-n // self.workers)  # ceil division
        tasks = []
        for lo in range(0, n, chunk_size):
            wids = window_ids[lo : lo + chunk_size]
            tasks.append(
                (partials.select(wids), restrict_windows(ideal_inputs, wids))
            )
        out = []
        # map() yields chunk results in submission order: chunks are
        # contiguous slices of window_ids, so concatenation preserves the
        # caller's ordering exactly.
        for chunk_outcomes in pool.map(_eval_chunk, tasks):
            out.extend(chunk_outcomes)
        return out
