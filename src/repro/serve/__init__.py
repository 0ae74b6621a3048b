"""Multi-tenant deploy service (paper §7 as a serving system).

A service tier in front of the control plane: priority-classed
tenants, bounded admission with counted load-shedding, the control
plane's artifact store serving popular extensions pre-linked (its pin
stage, the warm pool), and an agentless telemetry segment for the
whole thing.
"""

from repro.serve.admission import (
    SHED_QUEUE_FULL,
    SHED_RATE_LIMITED,
    SHED_REASONS,
    SHED_STOPPED,
    SHED_TENANT_QUOTA,
    SHED_UNKNOWN_TENANT,
    AdmissionController,
    DeployTicket,
)
from repro.serve.segment import (
    SERVE_COUNTER_SLOTS,
    SERVE_GAUGE_SLOTS,
    SERVE_HIST_SLOTS,
    SERVE_LAYOUT,
    ServeSegment,
    scrape_serve,
)
from repro.serve.service import DeployService
from repro.serve.tenants import PriorityClass, TenantDirectory, default_classes

__all__ = [
    "AdmissionController",
    "DeployService",
    "DeployTicket",
    "PriorityClass",
    "SERVE_COUNTER_SLOTS",
    "SERVE_GAUGE_SLOTS",
    "SERVE_HIST_SLOTS",
    "SERVE_LAYOUT",
    "SHED_QUEUE_FULL",
    "SHED_RATE_LIMITED",
    "SHED_REASONS",
    "SHED_STOPPED",
    "SHED_TENANT_QUOTA",
    "SHED_UNKNOWN_TENANT",
    "ServeSegment",
    "TenantDirectory",
    "default_classes",
    "scrape_serve",
]
