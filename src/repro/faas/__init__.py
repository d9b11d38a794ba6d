"""Federated function-as-a-service (the FuncX substitute)."""

from repro.faas.auth import (
    SCOPE_COMPUTE,
    SCOPE_TRANSFER,
    AuthServer,
    Identity,
    Token,
)
from repro.faas.client import FaasClient, FaasExecutor
from repro.faas.cloud import FaasCloud, TaskDispatch, TaskRecord, TaskStatus
from repro.faas.directory import EndpointDirectory
from repro.faas.endpoint import FaasEndpoint

__all__ = [
    "SCOPE_COMPUTE",
    "SCOPE_TRANSFER",
    "AuthServer",
    "Identity",
    "Token",
    "FaasClient",
    "FaasExecutor",
    "FaasCloud",
    "EndpointDirectory",
    "TaskDispatch",
    "TaskRecord",
    "TaskStatus",
    "FaasEndpoint",
]
