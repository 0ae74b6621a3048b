"""Calibrated cost-model constants for the RDX reproduction.

Every latency/throughput constant used by the simulator lives here, with
the paper anchor that justifies it.  The calibration targets are the
*published* observations, not the authors' raw testbed numbers (which we
cannot access):

* §2.2 Obs 1 + Fig 4b -- agent-side verification + JIT is >= 90% of the
  injection path; injection is millisecond-level even for small programs.
* §6 Fig 4a -- RDX injection is 47x (1.3K insns) to 1982x (95K insns)
  faster than the agent baseline.
* §6 Fig 5 -- without sync primitives the RNIC/CPU incoherence window is
  up to ~746 us at low CPKI; RDX's ``rdx_cc_event`` holds it at ~2 us.
* §6 -- agentless eBPF lifts Redis throughput by up to 25.3%; agentless
  Wasm lifts microservice performance by up to 65%.

The testbed modeled is the paper's: 24-core 3.4 GHz Xeon E5-2643,
128 GB DRAM, Mellanox CX-4 (100 GbE RoCE), control plane in-rack.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, fields
from typing import TYPE_CHECKING, Mapping

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.core import Simulator

# --------------------------------------------------------------------
# Host hardware (paper §6 testbed)
# --------------------------------------------------------------------

#: Cores per server (24-core Xeon E5-2643).
HOST_CORES = 24
#: Core frequency in instructions per microsecond (3.4 GHz, IPC ~= 1).
CPU_INSN_PER_US = 3_400.0
#: DRAM per host, bytes (128 GB).
HOST_DRAM_BYTES = 128 * 2**30
#: Cache line size in bytes.
CACHE_LINE_BYTES = 64
#: Effective number of cache lines competing with a polled hot line.
#: Chosen so that the *median* eviction-driven incoherence window at
#: CPKI=5 lands at ~746 us (Fig 5 left edge):
#: median = ln(2) * LINES * 1000 / (CPKI * CPU_INSN_PER_US).
CACHE_EFFECTIVE_LINES = 18_300

# --------------------------------------------------------------------
# Network + RDMA fabric (CX-4, RoCEv2, in-rack)
# --------------------------------------------------------------------

#: One-way propagation + switching latency inside a rack, us.
NET_BASE_LATENCY_US = 1.0
#: RNIC processing overhead per RDMA work request, us (each side).
RNIC_OP_OVERHEAD_US = 0.25
#: RDMA link bandwidth, bytes per microsecond (100 GbE ~= 12.5 GB/s).
RDMA_BANDWIDTH_BPUS = 12_500.0
#: Latency of an RDMA atomic (CAS / fetch-add), us, round trip.
RDMA_ATOMIC_RTT_US = 2.0
#: Small one-sided WRITE/READ round-trip latency floor, us.
RDMA_SMALL_OP_RTT_US = 2.0
#: Extra per-operation cost of RNIC doorbell + WQE fetch, us.
RDMA_DOORBELL_US = 0.2
#: Time an initiator RNIC waits for an ACK before declaring the target
#: unreachable (RC retransmit budget collapsed into one timeout), us.
RDMA_RETRY_TIMEOUT_US = 12.0

#: Default retry budget for one-sided operations against a flaky or
#: crashed target: attempts, backoff shape, and per-op deadline.
RETRY_MAX_ATTEMPTS = 4
RETRY_BACKOFF_BASE_US = 2.0
RETRY_BACKOFF_MAX_US = 64.0
#: Per-target deadline for one broadcast deploy leg, us.  Generous --
#: a healthy warm deploy is tens of microseconds -- so only a crashed
#: or partitioned target exhausts it.
BROADCAST_TARGET_DEADLINE_US = 50_000.0

#: Lease-based health detection (control-plane survivability layer).
#: Heartbeat = one 8-byte one-sided READ of the sandbox control block.
HEALTH_PROBE_INTERVAL_US = 5_000.0
#: Consecutive heartbeat misses before a target turns SUSPECT / DEAD.
#: One miss is already suspicious -- a healthy in-rack read never
#: misses -- but death needs corroboration (slow link != crash).
HEALTH_SUSPECT_MISSES = 1
HEALTH_DEAD_MISSES = 3

#: Max verdicts the artifact store's compile registry retains.  LRU
#: beyond this: long-lived reconciler loops touch many one-off programs
#: and must not grow the registry without bound.
RDX_REGISTRY_CAP = 128

# --------------------------------------------------------------------
# Pipelined deploy fast path (WR chaining + doorbell batching)
# --------------------------------------------------------------------

#: Send-queue depth the pipelined Sync API keeps in flight: one WR
#: chain posted per doorbell carries at most this many WRs.  Matches a
#: conservative RC SQ depth; real verbs code posts far deeper chains,
#: but a deploy never needs more than a handful of WRs per target.
RDX_SQ_DEPTH = 16

#: Break-even threshold for the delta path: a diff dirtying more than
#: this many MTU chunks falls back to the full-image pipelined deploy.
#: One chain of small WRs beats one big write only while the trimmed
#: payload stays well under the image size; past ~half the image the
#: per-WR overhead (RNIC_OP_OVERHEAD_US each side + chain bookkeeping)
#: erases the bytes saved.
RDX_DELTA_MAX_CHUNKS = 8

#: Base magnitude for fuzz-injected WR service/completion delays, us.
#: Sized to a few RDMA RTTs: enough to push a WR past a sibling QP's
#: whole operation (true service reorder), small enough that deploy
#: deadlines and retry budgets never trip on a perturbed-but-correct
#: schedule.
RDX_FUZZ_WR_DELAY_US = 8.0

#: Base magnitude for fuzz-injected fabric message delays, us.  Spans
#: the gap between the RPC latency floor and the health-probe
#: interval, so message reorder can invert control-message arrivals
#: without manufacturing false lease expiries.
RDX_FUZZ_NET_DELAY_US = 20.0

#: Bounded seqlock retries before a scrape is declared torn (and the
#: snapshot discarded -- torn snapshots are never exported).
RDX_SCRAPE_MAX_RETRIES = 8

#: Backoff between seqlock retry attempts on a torn scrape, us.  Long
#: enough for a mid-flight local writer burst to drain, short enough
#: that retries stay invisible next to the probe interval.
RDX_SCRAPE_RETRY_US = 1.0

#: Control-plane dispatch overhead on the *pipelined* path, us.  The
#: serial path pays :data:`RDX_DISPATCH_US` preparing and polling one
#: WQE per op; chaining prepares the whole WR list once and polls a
#: single signaled completion, so dispatch collapses to roughly the
#: cost of one registry lookup + one WQE-list build.
RDX_DISPATCH_FAST_US = 3.0

#: Linked-image cache lookup/insert bookkeeping on the control plane,
#: us.  One dict probe over a precomputed fingerprint.
RDX_LINK_CACHE_LOOKUP_US = 0.2

#: Max entries the artifact store's link stage retains (LRU).
#: Keyed by (code CRC, arch, GOT-layout fingerprint); one entry per
#: distinct target layout, so this bounds memory on heterogeneous
#: fleets.
RDX_LINK_CACHE_CAP = 256

#: Warm-pool probe cost on the control plane, us: one index lookup
#: plus re-fingerprinting the entry's relocations against the target's
#: current layout (the certification that makes a hit byte-correct).
RDX_WARM_POOL_LOOKUP_US = 0.3

#: Max linked images the artifact store keeps pinned for serving (LRU):
#: one per popular extension per distinct target layout.
WARM_POOL_CAP = 512

#: TCP/gRPC request latency floor for control RPCs (agent path), us.
#: Kernel network stack both sides + protobuf handling.
RPC_BASE_LATENCY_US = 55.0
#: Effective TCP goodput for control RPCs, bytes/us (~10 Gb/s).
RPC_BANDWIDTH_BPUS = 1_250.0

# --------------------------------------------------------------------
# eBPF toolchain costs (agent side, host CPU)
# --------------------------------------------------------------------

#: Bytes per eBPF instruction (fixed 8-byte encoding).
EBPF_INSN_BYTES = 8
#: JIT output bytes per eBPF instruction (x86-64 expansion factor).
JIT_BYTES_PER_INSN = 10

#: Verifier cost per instruction-state visited, us.  Anchors the
#: millisecond-level injection at 1.3K insns (Fig 2a / 4a left edge).
VERIFY_PER_INSN_US = 1.00
#: Verifier superlinearity: path-pruning degrades on larger programs.
#: cost_factor(n) = 1 + VERIFY_SUPERLINEAR_COEF * log2(n / VERIFY_BASE_INSNS)
#:                      ** VERIFY_SUPERLINEAR_EXP     (for n > base)
VERIFY_BASE_INSNS = 1_300
VERIFY_SUPERLINEAR_COEF = 0.123
VERIFY_SUPERLINEAR_EXP = 1.2
#: JIT compile cost per instruction, us.
JIT_PER_INSN_US = 0.25
#: Wasm validation+compile is heavier per unit of logic than eBPF
#: (type-checking a stack machine + cranelift-style codegen).
WASM_COMPILE_FACTOR = 3.0
#: UDF validation/compile cost per expression node, us.
UDF_PER_NODE_US = 2.0

# --------------------------------------------------------------------
# Agent baseline path (per-node daemon)
# --------------------------------------------------------------------

#: Fixed agent overhead per injection: config parse, syscalls, bookkeeping.
#: Kept small so verify+JIT dominate (>=90%, Fig 4b).
AGENT_FIXED_OVERHEAD_US = 120.0
#: Kernel attach / hook-table update cost on the agent path, us.
AGENT_ATTACH_US = 40.0
#: Periodic XState (map) polling cost per poll, us of host CPU.
AGENT_STATE_POLL_US = 450.0
#: Default agent poll interval for extension state, us (10 ms).
AGENT_STATE_POLL_INTERVAL_US = 10_000.0
#: Controller-side config debounce/batching delay before pushing, us.
CONTROLLER_BATCH_DELAY_US = 5_000.0

# --------------------------------------------------------------------
# RDX path (remote control plane + one-sided injection)
# --------------------------------------------------------------------

#: Control-plane dispatch overhead per deploy (registry lookup, WQE
#: preparation, completion polling), us.  Runs on the *control-plane*
#: server, not the target host.
RDX_DISPATCH_US = 17.0
#: Management-stub rendezvous: reading the Meta descriptor + GOT window
#: via one-sided READs amortizes to this fixed cost per deploy, us.
RDX_STUB_RENDEZVOUS_US = 8.0
#: Remote linking (binary rewriting) cost per relocation entry, us.
RDX_LINK_PER_RELOC_US = 0.05
#: rdx_tx commit: CAS visibility flip + ordering fence, us.
RDX_TX_COMMIT_US = 2.0
#: rdx_cc_event: posting the cache-flush descriptor + local flush, us.
RDX_CC_EVENT_US = 2.0
#: Control-plane validation/JIT run on dedicated control servers and are
#: cached ("validate once, deploy anywhere", §3.2); this factor scales
#: their *control-plane* cost relative to the agent's host-CPU cost.
RDX_CONTROL_COMPILE_FACTOR = 1.0

# --------------------------------------------------------------------
# Data-path application models
# --------------------------------------------------------------------

#: Redis-like KV op service time on one core, us.
REDIS_OP_SERVICE_US = 2.2
#: Microservice per-hop request handling cost, us.
MESH_HOP_SERVICE_US = 120.0
#: Sidecar filter-chain overhead per request per filter, us.
MESH_FILTER_OVERHEAD_US = 6.0
#: Serverless warm-pool pod spin-up floor (excluding filter reload), us.
SERVERLESS_POD_SPAWN_US = 120.0

# --------------------------------------------------------------------
# Memory layout defaults
# --------------------------------------------------------------------

#: Size of the XState scratchpad reserved at ctx_register time, bytes.
XSTATE_SCRATCHPAD_BYTES = 4 * 2**20
#: Number of slots in the top-level "Meta" XState index array.
XSTATE_META_SLOTS = 4_096
#: Bytes per Meta-XState index entry (one qword address).
XSTATE_META_ENTRY_BYTES = 8
#: XState header bytes: type tag (4) + size (4) + version (4) + pad (4).
XSTATE_HEADER_BYTES = 16
#: Sandbox code-page region size, bytes.
SANDBOX_CODE_BYTES = 8 * 2**20
#: Number of hook-point slots in a sandbox hook table.
SANDBOX_HOOK_SLOTS = 64


def verify_cost_us(n_insns: int) -> float:
    """Host-CPU verification cost for an ``n_insns`` eBPF program.

    Linear with a mild superlinear correction above the 1.3K-insn
    anchor, reflecting verifier state-pruning degradation on large
    programs (this is what stretches the speedup from 47x to ~2000x
    across Fig 4a's size range).
    """
    import math

    if n_insns <= 0:
        return 0.0
    factor = 1.0
    if n_insns > VERIFY_BASE_INSNS:
        factor += VERIFY_SUPERLINEAR_COEF * (
            math.log2(n_insns / VERIFY_BASE_INSNS) ** VERIFY_SUPERLINEAR_EXP
        )
    return VERIFY_PER_INSN_US * n_insns * factor


def jit_cost_us(n_insns: int) -> float:
    """Host-CPU JIT-compilation cost for an ``n_insns`` program."""
    return JIT_PER_INSN_US * max(0, n_insns)


def rdma_transfer_us(n_bytes: int) -> float:
    """Wire time for an ``n_bytes`` one-sided RDMA transfer."""
    if n_bytes < 0:
        raise ValueError("negative transfer size")
    return RDMA_SMALL_OP_RTT_US + n_bytes / RDMA_BANDWIDTH_BPUS


def rpc_transfer_us(n_bytes: int) -> float:
    """Wire + stack time for an ``n_bytes`` control RPC (agent path)."""
    if n_bytes < 0:
        raise ValueError("negative transfer size")
    return RPC_BASE_LATENCY_US + n_bytes / RPC_BANDWIDTH_BPUS


# --------------------------------------------------------------------
# Configuration: which arm a simulation runs
# --------------------------------------------------------------------

#: Spellings of "off" an ``RDX_*`` environment switch accepts.
_OFF = ("0", "false", "no", "off")


@dataclass(frozen=True)
class Config:
    """The behaviour switches of one simulation, fixed before its first
    component is built (:func:`configure`) and never changed after.

    The constants above are the cost model; these seven pick the arm
    of an A/B.  Being a frozen value, an arm needs no restore step
    (``replace(DEFAULT, delta_deploy=True)``), two arms can run side by
    side in one process, and a component may read its switch once at
    construction.
    """

    #: Which costs the one deploy path pays (DESIGN.md §11): one WR
    #: chain, bare commit CAS and 3 us dispatch, or -- off -- the serial
    #: paper-calibrated arm everywhere (one signaled WR per doorbell,
    #: ``rdx_tx`` commit, 17 us dispatch).
    pipelined_deploy: bool = True
    #: Delta plans: when the artifact store's link stage certifies an identical
    #: (arch, GOT-fingerprint) layout and the superseded image is still
    #: resident as a baseline, a redeploy ships only the MTU chunks
    #: that changed (trimmed to dirty cache lines) and flips the hook
    #: with the usual commit CAS.  Requires the pipelined arm.
    delta_deploy: bool = False
    #: Tree broadcast: fan deploy legs out through a relay forest
    #: (already-updated sandboxes forward the chained WR list to their
    #: children) instead of hub-and-spoke from the control plane.  Off
    #: by default: small groups gain nothing and the flat path is the
    #: long-soaked one.  Requires the pipelined arm.
    tree_broadcast: bool = False
    #: Fan-out degree of the relay forest: the control plane seeds this
    #: many roots and every updated sandbox relays to at most this many
    #: children, giving ~log_d(N) relay levels.  Trades per-node relay
    #: load (d chains through one RNIC) against depth.
    tree_degree: int = 4
    #: Happens-before race checking (:mod:`repro.hb`): the RNIC / sync
    #: / sandbox layers emit ``hb.*`` trace events and the simulator is
    #: registered for the detectors (the pytest fixture in
    #: ``tests/conftest.py`` runs them at teardown).
    hb_check: bool = False
    #: The agentless telemetry plane (:mod:`repro.obs`): sandboxes keep
    #: a seqlock-guarded telemetry segment up to date from the data
    #: path, deploy ops record causal trace events, and the control
    #: plane feeds its flight recorder.
    obs: bool = True
    #: Per-target (and per-tenant) metric labels.  Off, high-cardinality
    #: series like ``rdx.broadcast.legs{mode,target}`` and the
    #: per-target health counters aggregate their ``target`` label to
    #: the owning shard (or ``_all``), keeping the registry bounded at
    #: N=1024; small runs turn it on to get the breakdown back.
    obs_target_labels: bool = False

    @classmethod
    def from_env(cls, env: Mapping[str, str] = os.environ) -> "Config":
        """The config ``env`` spells: ``RDX_<FIELD>`` per field, the
        field's default when unset or empty.  The only reader of those
        seven names."""
        values = {}
        for spec in fields(cls):
            raw = env.get(f"RDX_{spec.name.upper()}", "").strip().lower()
            if raw:
                values[spec.name] = (
                    raw not in _OFF if spec.type == "bool" else int(raw)
                )
        return cls(**values)


#: The process default: what the environment said at import.
DEFAULT = Config.from_env()

#: Attribute carrying the config on the simulator instance, next to the
#: telemetry hub and the fuzz plan.
_SIM_ATTR = "_rdx_config"


def configure(sim: "Simulator", config: Config) -> None:
    """Fix ``sim``'s config; must precede its first component."""
    if _SIM_ATTR in vars(sim):
        raise RuntimeError(
            "configure() must precede the simulator's first component"
        )
    setattr(sim, _SIM_ATTR, config)


def config_of(sim: "Simulator") -> Config:
    """``sim``'s config; the first read settles it on :data:`DEFAULT`."""
    return vars(sim).setdefault(_SIM_ATTR, DEFAULT)
