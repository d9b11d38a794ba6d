"""Figure 1 — resource utilization and cumulative data transfer over time.

Paper setup: both applications on 20 T4 GPUs + 8 KNL processors, "a
workflow based on Parsl without pass-by-reference", plotting tasks running
on each resource and cumulative data transferred to each resource.

Shape claims under test:
* molecular design keeps GPUs busy in periodic bursts and moves O(10) GB
  per ML batch to the GPU resource;
* surrogate fine-tuning uses GPUs sporadically and moves roughly an order
  of magnitude less data than molecular design;
* CPU workers stay saturated in both applications.
"""

from __future__ import annotations

import pytest

from common import fmt_s
from repro.apps.finetuning import FineTuneConfig, run_finetuning_campaign
from repro.apps.moldesign import MolDesignConfig, run_moldesign_campaign
from repro.bench.plotting import ascii_timeseries, cumulative_series, running_series
from repro.bench.reporting import ReportTable
from repro.observe import Tracer, set_tracer

MD_CONFIG = MolDesignConfig(
    n_molecules=1000,
    n_initial=24,
    max_simulations=100,
    retrain_after=16,
    n_ensemble=3,
    inference_chunks=3,
)
FT_CONFIG = FineTuneConfig(
    n_waters=3,
    n_pretrain=120,
    target_new_structures=24,
    retrain_after=8,
    n_ensemble=3,
    uncertainty_batch=40,
    inference_batch=20,
    pretrain_epochs=15,
    train_epochs=10,
    n_rbf_centers=8,
)


def _traced_campaign(run):
    """Run one campaign under its own tracer; return its outcome and spans."""
    tracer = Tracer()
    set_tracer(tracer)
    try:
        outcome = run()
    finally:
        set_tracer(None)
    return outcome, tracer.spans()


def _gb_to(spans, resource: str) -> float:
    series = cumulative_series(spans, resource)
    return series[-1][1] / 1e9 if series else 0.0


def _max_running(spans, resource: str) -> int:
    return max((v for _, v in running_series(spans, resource)), default=0)


@pytest.mark.benchmark(group="fig1")
def test_fig1_resource_utilization(benchmark, report_sink):
    state = {}

    def run():
        state["md"], state["md_spans"] = _traced_campaign(
            lambda: run_moldesign_campaign(
                "parsl", MD_CONFIG, seed=5, join_timeout=400
            )
        )
        state["ft"], state["ft_spans"] = _traced_campaign(
            lambda: run_finetuning_campaign(
                "parsl", FT_CONFIG, seed=5, join_timeout=400
            )
        )
        return state

    benchmark.pedantic(run, rounds=1, iterations=1)

    md, md_spans = state["md"], state["md_spans"]
    ft, ft_spans = state["ft"], state["ft_spans"]

    table = ReportTable("Fig. 1 — resource utilization and data movement (Parsl, no pass-by-reference)")
    md_gpu_gb = _gb_to(md_spans, "venti")
    md_cpu_gb = _gb_to(md_spans, "theta-compute")
    ft_gpu_gb = _gb_to(ft_spans, "venti")
    ft_cpu_gb = _gb_to(ft_spans, "theta-compute")

    table.add("moldesign: GB to GPU resource", "O(10) GB per batch", f"{md_gpu_gb:.1f} GB")
    table.add("moldesign: GB to CPU resource", "small", f"{md_cpu_gb:.2f} GB")
    table.add("finetuning: GB to GPU resource", "~10x less than moldesign", f"{ft_gpu_gb:.2f} GB")
    table.add(
        "data ratio moldesign/finetuning (GPU)",
        "order of magnitude",
        f"{md_gpu_gb / max(ft_gpu_gb, 1e-9):.0f}x",
        holds=md_gpu_gb > 5 * ft_gpu_gb,
    )
    table.add(
        "moldesign moves multi-GB to GPUs",
        ">= several GB",
        f"{md_gpu_gb:.1f} GB",
        holds=md_gpu_gb > 2.0,
    )

    md_cpu_peak = _max_running(md_spans, "theta-compute")
    md_gpu_peak = _max_running(md_spans, "venti")
    ft_cpu_peak = _max_running(ft_spans, "theta-compute")
    table.add(
        "moldesign: CPU workers saturated",
        "8 running",
        f"peak {md_cpu_peak}",
        holds=md_cpu_peak >= 8,
    )
    table.add(
        "moldesign: GPU bursts use many workers",
        "bursts to ~20",
        f"peak {md_gpu_peak}",
        holds=md_gpu_peak >= MD_CONFIG.n_ensemble,
    )
    table.add(
        "finetuning: CPU workers saturated",
        "8 running",
        f"peak {ft_cpu_peak}",
        holds=ft_cpu_peak >= 8,
    )
    # Sporadic GPU use in fine-tuning: total GPU busy-time far below CPU's.
    ft_gpu_busy = sum(
        r.time_running or 0 for t in ("train", "infer") for r in ft.results[t]
    )
    ft_cpu_busy = sum(
        r.time_running or 0 for t in ("simulate", "sample") for r in ft.results[t]
    )
    table.add(
        "finetuning: GPU tasks sporadic",
        "GPU busy << CPU busy",
        f"{fmt_s(ft_gpu_busy)} vs {fmt_s(ft_cpu_busy)}",
        holds=ft_gpu_busy < 0.5 * ft_cpu_busy,
    )
    table.note(
        f"moldesign completed {md.n_simulated} simulations, "
        f"finetuning added {ft.n_new_structures} structures"
    )

    report_sink("fig1_utilization", table)

    # Render the actual Fig. 1 panels (ASCII) alongside the claim table.
    from conftest import RESULTS_DIR

    panels = []
    for label, spans in (
        ("molecular design", md_spans),
        ("surrogate fine-tuning", ft_spans),
    ):
        for resource, resource_label in (
            ("theta-compute", "CPU tasks running"),
            ("venti", "GPU tasks running"),
        ):
            series = running_series(spans, resource)
            if series:
                panels.append(
                    ascii_timeseries(
                        series,
                        title=f"{label}: {resource_label}",
                        y_label="tasks",
                        x_label="nominal seconds",
                    )
                )
        gb = cumulative_series(spans, "venti")
        if gb:
            panels.append(
                ascii_timeseries(
                    [(t, v / 1e9) for t, v in gb],
                    title=f"{label}: cumulative GB to GPU resource",
                    y_label="GB",
                    x_label="nominal seconds",
                )
            )
    charts = "\n\n".join(panels)
    (RESULTS_DIR / "fig1_panels.txt").write_text(charts + "\n")
    print("\n" + charts + "\n")

    assert table.all_hold, "Fig. 1 qualitative claims diverged; see table"
