"""Tenant model: priority classes layered on the QoS scheduler.

A *priority class* bundles the service-level policy knobs one tier of
tenants shares: the wire priority (lower = more urgent, same axis as
:class:`repro.core.qos.TenantQuota`), a class-aggregate rate limit, a
bounded deploy-queue depth, and the default per-tenant quota a tenant
of that class registers with.  The :class:`TenantDirectory` maps
tenant names to their class and hands the underlying
:class:`~repro.core.qos.QosScheduler` its per-tenant token buckets.

Class names double as the low-cardinality ``tenant_class`` metric
label (see :func:`repro.obs.tenant_label`): a 1000-tenant mix exports
a handful of series per metric, not a thousand.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.core.qos import QosScheduler, TenantQuota
from repro.errors import SecurityError

#: Default bounded queue depth per priority class.  Arrivals beyond
#: this are shed (counted, never silent) in open-loop mode or block
#: the producer in backpressure mode.
SERVE_QUEUE_DEPTH = 64


@dataclass(frozen=True)
class PriorityClass:
    """Service policy for one tier of tenants."""

    name: str
    #: Wire priority (lower = more urgent); also orders dequeue.
    priority: int
    #: Class-aggregate injection rate across all member tenants.
    rate_bytes_per_s: float
    burst_bytes: float
    #: Bounded deploy-queue depth; arrivals beyond it are shed (open
    #: loop) or block the producer (backpressure).
    queue_depth: int
    #: Default per-tenant quota for members of this class.
    tenant_rate_bytes_per_s: float
    tenant_burst_bytes: float
    #: Per-tenant cap on queued+running deploys -- one tenant cannot
    #: monopolize its class queue.
    max_pending_per_tenant: int = 8
    #: Admission-time throttle ceiling, us: a deploy whose class or
    #: tenant bucket deficit exceeds this is shed as ``rate-limited``.
    max_throttle_us: float = 50_000.0


def default_classes(queue_depth: int = SERVE_QUEUE_DEPTH) -> tuple:
    """The stock three-tier mix: hotpatch / standard / bulk.

    Hotpatch is the paper's microsecond fix-push: tiny programs,
    urgent, generously rated per byte (they barely move bytes).  Bulk
    is the 95K-insn roll: high aggregate bandwidth, lowest priority,
    tighter per-tenant pending cap.  Standard sits between.
    """
    return (
        PriorityClass(
            "hotpatch", priority=0,
            rate_bytes_per_s=50e6, burst_bytes=256_000,
            queue_depth=queue_depth,
            tenant_rate_bytes_per_s=2e6, tenant_burst_bytes=64_000,
            max_pending_per_tenant=8,
        ),
        PriorityClass(
            "standard", priority=2,
            rate_bytes_per_s=100e6, burst_bytes=1_000_000,
            queue_depth=queue_depth,
            tenant_rate_bytes_per_s=5e6, tenant_burst_bytes=256_000,
            max_pending_per_tenant=8,
        ),
        PriorityClass(
            "bulk", priority=5,
            rate_bytes_per_s=200e6, burst_bytes=4_000_000,
            queue_depth=queue_depth,
            tenant_rate_bytes_per_s=20e6, tenant_burst_bytes=2_000_000,
            max_pending_per_tenant=4,
        ),
    )


class TenantDirectory:
    """Registered tenants, their classes, and their QoS quotas."""

    def __init__(self, qos: QosScheduler, classes):
        self.qos = qos
        self.classes: dict[str, PriorityClass] = {}
        for cls in classes:
            if cls.name in self.classes:
                raise SecurityError(f"class {cls.name!r} already defined")
            self.classes[cls.name] = cls
        self._class_of: dict[str, str] = {}

    def register(
        self,
        tenant: str,
        class_name: str,
        rate_bytes_per_s: Optional[float] = None,
        burst_bytes: Optional[float] = None,
    ) -> TenantQuota:
        """Enroll ``tenant`` into ``class_name``.

        The per-tenant quota defaults to the class's, overridable per
        tenant (a paying tenant can buy more rate without leaving its
        tier).  Duplicate registration raises, mirroring
        :meth:`QosScheduler.register_tenant`.
        """
        cls = self.classes.get(class_name)
        if cls is None:
            raise SecurityError(f"unknown priority class {class_name!r}")
        quota = TenantQuota(
            name=tenant,
            rate_bytes_per_s=(
                rate_bytes_per_s
                if rate_bytes_per_s is not None
                else cls.tenant_rate_bytes_per_s
            ),
            burst_bytes=(
                burst_bytes
                if burst_bytes is not None
                else cls.tenant_burst_bytes
            ),
            priority=cls.priority,
        )
        self.qos.register_tenant(quota)  # raises on duplicates
        self._class_of[tenant] = class_name
        return quota

    def class_of(self, tenant: str) -> Optional[PriorityClass]:
        name = self._class_of.get(tenant)
        return self.classes[name] if name is not None else None
