"""RDX: the paper's contribution -- agentless remote code execution.

The package implements the full CodeFlow roadmap of Fig 3:

* :mod:`~repro.core.codeflow` -- CodeFlow handles bound to remote
  sandboxes (programming model, §3.1), microsecond rollback included
  (§4);
* :mod:`~repro.core.control_plane` -- the remote control plane that
  validates, JIT-compiles (with caching: "validate once, deploy
  anywhere", §3.2), links, and deploys;
* :mod:`~repro.core.linker` -- binary rewriting against the target's
  GOT/context (§3.3);
* :mod:`~repro.core.xstate` -- Meta-XState indirection and remote
  state management (§3.4);
* :mod:`~repro.core.sync` -- remote transaction / cache-coherence /
  mutual-exclusion primitives (§3.5);
* :mod:`~repro.core.broadcast` -- Collective CodeFlow + Big Bubble
  Update (§4);
* :mod:`~repro.core.migration` -- extension live migration (§4);
* :mod:`~repro.core.security` -- RBAC, signatures, runtime limits (§5);
* :mod:`~repro.core.api` -- the Table 1 operations, verbatim.
"""

from repro.core.codeflow import CodeFlow, DeployedProgram
from repro.core.control_plane import RdxControlPlane
from repro.core.faults import FaultInjector, FaultKind
from repro.core.loops import ControlLoop, ThresholdPolicy
from repro.core.orchestrator import (
    ExtensionSpec,
    Fleet,
    OrchestrationIntent,
    Selector,
    Strategy,
    execute_plan,
    plan_intent,
)
from repro.core.qos import QosScheduler, TenantQuota
from repro.core.xstate import XStateHandle, XStateHeader, XStateSpec, decode_xstate_header
from repro.core.broadcast import BroadcastResult, CodeFlowGroup, TargetOutcome
from repro.core.retry import RetryPolicy
from repro.core.migration import MigrationManager
from repro.core.security import Principal, Role, SecurityPolicy
from repro.core.api import (
    rdx_broadcast,
    rdx_cc_event,
    rdx_create_codeflow,
    rdx_deploy_prog,
    rdx_deploy_xstate,
    rdx_jit_compile_code,
    rdx_link_code,
    rdx_mutual_excl,
    rdx_tx,
    rdx_validate_code,
)

__all__ = [
    "BroadcastResult",
    "CodeFlow",
    "CodeFlowGroup",
    "ControlLoop",
    "DeployedProgram",
    "ExtensionSpec",
    "FaultInjector",
    "FaultKind",
    "Fleet",
    "OrchestrationIntent",
    "QosScheduler",
    "Selector",
    "Strategy",
    "TenantQuota",
    "ThresholdPolicy",
    "execute_plan",
    "plan_intent",
    "MigrationManager",
    "Principal",
    "RdxControlPlane",
    "RetryPolicy",
    "Role",
    "TargetOutcome",
    "SecurityPolicy",
    "XStateHandle",
    "XStateHeader",
    "XStateSpec",
    "decode_xstate_header",
    "rdx_broadcast",
    "rdx_cc_event",
    "rdx_create_codeflow",
    "rdx_deploy_prog",
    "rdx_deploy_xstate",
    "rdx_jit_compile_code",
    "rdx_link_code",
    "rdx_mutual_excl",
    "rdx_tx",
    "rdx_validate_code",
]
