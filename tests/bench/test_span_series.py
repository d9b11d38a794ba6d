"""Fig. 1's series, derived from the spans of a real executor run.

A traced :class:`HtexExecutor` run must yield exactly the bytes it
dispatched (``bytes``/``dst`` tags), a running staircase that peaks at the
pool's width, and one ``worker.run`` span per closure the pool executed.
"""

import threading

from repro.bench.plotting import cumulative_series, running_series
from repro.net.context import at_site
from repro.observe import Tracer, set_tracer
from repro.parsl import DirectChannel, HtexExecutor
from repro.resources import WorkerPool
from repro.serialize import serialize

N_WORKERS = 3
N_TASKS = 2 * N_WORKERS  # two full waves


def test_span_series_match_the_run(testbed):
    # Every closure waits until N_WORKERS of them are running at once, so
    # the pool's full width overlaps by construction, not by timing luck.
    barrier = threading.Barrier(N_WORKERS, timeout=30)

    def overlap(blob, *, tag):
        barrier.wait()
        return len(blob), tag

    calls = [((bytes(1_000 * (i + 1)),), {"tag": i}) for i in range(N_TASKS)]
    tracer = Tracer()
    set_tracer(tracer)
    pool = WorkerPool(testbed.theta_compute, N_WORKERS, name="span-series")
    executor = HtexExecutor(
        "cpu", testbed.theta_login, pool, testbed.network, channel=DirectChannel()
    ).start()
    try:
        with at_site(testbed.theta_login):
            futures = [
                executor.submit(overlap, *args, **kwargs) for args, kwargs in calls
            ]
        results = [future.result(timeout=30) for future in futures]
    finally:
        executor.shutdown()
        set_tracer(None)

    assert results == [(len(args[0]), kwargs["tag"]) for args, kwargs in calls]
    spans = tracer.spans()
    site = pool.site.name
    expected_bytes = sum(
        serialize((args, kwargs)).nominal_size for args, kwargs in calls
    )
    assert cumulative_series(spans, site)[-1][1] == expected_bytes

    running = running_series(spans, site)
    assert max(level for _, level in running) == N_WORKERS
    assert running[-1][1] == 0

    worker_runs = [s for s in spans if s.name == "worker.run" and s.site == site]
    assert len(worker_runs) == pool.tasks_completed == N_TASKS
