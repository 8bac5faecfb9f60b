"""Run ``repro.cli`` with the benchmark's layer tracing installed.

Usage: ``python serve_traced.py OUT_DIR serve [serve flags...]``.

SIGUSR1 starts recording, SIGUSR2 stops it and writes ``OUT_DIR/<pid>.json``
with the spans, aggregated calls, counts and the process's CPU seconds over
the recorded interval.  Forked shard workers inherit the wrappers and the
handlers; each resets the buffers it inherited and writes its own file, so
the benchmark signals every process of the server tree.
"""

from __future__ import annotations

import json
import os
import signal
import sys
import time

import tracing


def main() -> int:
    out_dir = sys.argv[1]
    tracer = tracing.Tracer(clock=time.thread_time)
    tracing.install_server(tracer)
    cpu_start = [0.0]

    def start(signum, frame) -> None:
        cpu_start[0] = time.process_time()
        tracer.enabled = True

    def stop(signum, frame) -> None:
        tracer.enabled = False
        cpu = time.process_time() - cpu_start[0]
        dump = tracer.snapshot()
        dump.update(pid=os.getpid(), worker=tracer.worker, cpu_s=cpu)
        path = os.path.join(out_dir, f"{os.getpid()}.json")
        with open(path + ".tmp", "w") as fh:
            json.dump(dump, fh)
        os.replace(path + ".tmp", path)

    signal.signal(signal.SIGUSR1, start)
    signal.signal(signal.SIGUSR2, stop)

    import repro.service.shard as shard_mod

    worker_main = shard_mod._worker_main

    def traced_worker_main(*args):
        tracer.reset()
        tracer.worker = True
        return worker_main(*args)

    shard_mod._worker_main = traced_worker_main

    from repro.cli import main as cli_main

    return cli_main(sys.argv[2:])


if __name__ == "__main__":
    raise SystemExit(main())
