"""Single-task shims over the list-taking cloud API.

The cloud, the router and the client admit and report only lists; a lone
task is a batch of one.  Tests that drive one task at a time call these
helpers, which send a one-item list and raise that item's rejection the
way a single-task API would."""

from __future__ import annotations

from repro.faas.cloud import TaskSubmission
from repro.tenancy.tenant import DEFAULT_TENANT


def _unwrap(outcomes: list):
    [outcome] = outcomes
    if isinstance(outcome, Exception):
        raise outcome
    return outcome


def submit_one(
    cloud, token, client_id, func_id, endpoint_id, args_payload, *,
    tenant=DEFAULT_TENANT, **fields,
) -> str:
    """Admit one task; ``fields`` are the other :class:`TaskSubmission`
    fields (``trace_ctx``, ``chaos_key``, ``prefetch``, ``deadline_at``)."""
    item = TaskSubmission(func_id, endpoint_id, args_payload, **fields)
    return _unwrap(cloud.submit_batch(token, client_id, [item], tenant=tenant))


def report_one(cloud, token, endpoint_id, task_id, success, result_payload) -> None:
    """Report one result; a duplicate report is dropped silently."""
    _unwrap(cloud.report_results(token, endpoint_id, [(task_id, success, result_payload)]))
