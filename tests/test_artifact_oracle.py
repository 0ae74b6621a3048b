"""Artifact oracle: what the control plane's caches do, step by step.

The compile registry, the linked-image cache and the warm pool used to
be three caches in three modules; they are now the three stages of
:class:`repro.core.artifacts.ArtifactStore`.  Which dicts hold the
artifact is an implementation detail; what each deploy costs on the
simulated clock, how many events it runs, which counters move and
whether it rides warm is not.  The table below was taken by running
this script against the three-cache code (commit f62df80; regenerate
with ``PYTHONPATH=src python tests/test_artifact_oracle.py``), per arm
and per step of one scripted sequence on a 3-host testbed whose plane
serves a :class:`~repro.serve.DeployService` (workers never started:
each step drives the plane directly).

The steps: cold, warm and patched deploys; a prewarmed first deploy; a
layout change after a warm reboot; a map reshaped at the same address;
a compile-stage overflow and a revisit past it; a 3-target broadcast
(one Phase-0 prepare for its one verdict key); ``rdx_link_code`` on a compiled and an
uncompiled program; and a recall (``invalidate``) followed by two
redeploys.

The recall rows moved on purpose.  At f62df80 ``invalidate`` only
unpinned: the registry and the link cache kept the tag, so the next
deploy compiled nothing, hit both and pinned again.  It now drops the
tag from every stage, so ``invalidate`` also counts the registry
entry's eviction and ``inv-redeploy`` verifies, compiles and links
afresh; on the serial arm (no link stage, no pins) only the compile
returns.  The f62df80 values of each moved row are kept as comments
beside it.

The pipelined and delta rows were regenerated by the command above
once more when a deploy's epoch-fence READ began to fly under its
dispatch: ``now`` falls by 2.70064 us per deploy made so far (a fence
round trip each; the bubble-fenced broadcast legs pay none) and
``events`` rise by 2 per deploy (the spawned WQE prep); no counter
moved.  They were regenerated once more when a miss's JIT charge began
to run under its verifier charge on a second control-host core: each
compile miss ends one JIT charge sooner (``cold``, 300 insns: -75 us),
so ``now`` falls by the JIT charges of every miss so far, and runs 3
more events (the spawned ``jit`` charge's start, CPU slice and end); a
rejected program (``geom-narrow``) spawns nothing; no counter moved.
The f62df80 comments predate both moves.

The ``broadcast`` rows and every row after them moved once more when
a broadcast leg began to stage outside its bubble window: the
pipelined 3-target broadcast ends 2.70064 us sooner and runs 13 more
events (a stage chain and a flip chain per leg), and on the serial arm
the CRC read-back now precedes each leg's flip, which ends it
0.70064 us sooner with the same events.  No warm-pool or cache counter
moved.

The pipelined ``broadcast`` row and every row after it moved once
more when a broadcast began to compile once per verdict key and to
link its legs when the JIT's charge ends, under the verifier's: the
3-target broadcast ends 0.05 us sooner (its legs' concurrent links no
longer follow the verdict), runs 6 more events (one prepare, one
prelink and three link processes in place of three coalescing prepare
legs) and coalesces nothing (``prepare_coalesced`` 2 -> 0, the
``rdx.prepare.coalesced`` series gone).  No serial row moved.

The serial ``broadcast`` row and the six after it moved once more when
the serial arm became a schedule of the one install sequence: its legs
stage before the bubble window like pipelined ones (one signaled WRITE
per op, the raise flag after the descriptor, then a blocking flush),
and each lower defers its flush as every arm's does.  The 3-target
broadcast ends 6.65064 us sooner and runs 7 fewer events; no count,
outcome, warm-pool or cache counter moved.

The pipelined ``patch`` row and every row after it moved once more
when a deploy onto a hook whose owner was linked at the same layout
began to skip the 8 us stub rendezvous: ``now`` falls by 8 us and
``events`` by one per such deploy so far.  No count, outcome,
warm-pool or cache counter moved, and no serial row.

Every row from ``cold`` on moved once more when an ``inject``'s
settle (the hook-line flush and the record keeping after its commit
CAS) began to run in a process of its own, so that the install lock is
released at the CAS's answer: ``events`` rise by 2 per committed
``inject`` so far, on both arms (a prewarm, ``rdx_link_code`` and a
broadcast leg spawn no new process).  No clock, count, warm-pool or cache counter
moved.

The pipelined rows from ``map-cold`` on moved once more when an xstate
deploy became one install (header + image, then the meta slot's commit
CAS and the header's doorbell in the same chain) where it was a WRITE,
a commit delay, a lone CAS and a flush: ``now`` falls 4.19872 us per
xstate deploy so far and rises 0.00064 us per destroy (its header
poison and doorbell are one chain), and ``events`` fall 14 per deploy
and 5 to 13 per destroy.  No count, outcome, warm-pool or cache
counter moved, and no serial row.

The same pipelined rows moved once more when an install began to ring
exactly the doorbells its flush names: an xstate deploy's chain lost
the 8-byte doorbell of the meta slot's line, which no flush applied.
``now`` falls 0.00064 us and ``events`` by one per xstate deploy so
far.  No count, outcome, warm-pool or cache counter moved, and no
serial row.

Delta plans were once a switch with a ``delta`` column of their own;
every pipelined redeploy now plans one when it can, so that column is
the ``pipelined`` rows verbatim, f62df80 comments too (none
regenerated).
"""

from typing import NamedTuple, Optional

from repro.core.api import rdx_link_code
from repro.core.broadcast import CodeFlowGroup
from repro.core.xstate import XStateSpec
from repro.ebpf.maps import MapType
from repro.ebpf.stress import make_stress_program, make_stress_variant
from repro.errors import ReproError
from repro.exp.harness import make_testbed
from repro.params import Config, RDX_REGISTRY_CAP
from repro.serve import DeployService

ARMS = {
    "serial": Config(pipelined_deploy=False),
    "pipelined": Config(pipelined_deploy=True),
}
#: Plane counters and warm-pool counters every row records.
PLANE_COUNTERS = (
    "validations_run", "compiles_run", "cache_hits", "cache_evictions",
    "prepare_coalesced", "link_cache_hits", "link_cache_misses",
)
POOL_COUNTERS = ("hits", "misses", "evictions")
#: Metric-registry series of the store, by name prefix.
SERIES = ("rdx.cache.", "rdx.link.cache_", "rdx.prepare.", "rdx.serve.warm.")


class Row(NamedTuple):
    now: float
    events: int
    #: ``report.warm`` / ``report.mode`` of a deploy step, else None;
    #: ``outcome`` is what a non-deploy step returned or raised.
    warm: Optional[bool]
    mode: Optional[str]
    outcome: object
    plane: tuple
    pool: tuple
    series: tuple


def _row(bed, service, report=None, outcome=None) -> Row:
    pool = service.warm_pool
    series = []
    for metric in bed.obs.registry:
        if metric.kind == "counter" and metric.name.startswith(SERIES):
            labels = ",".join(f"{k}={v}" for k, v in metric.labels)
            series.append((f"{metric.name}{{{labels}}}", int(metric.value)))
    return Row(
        now=round(bed.sim.now, 6),
        events=bed.sim.processed_events,
        warm=None if report is None else report.warm,
        mode=None if report is None else report.mode,
        outcome=outcome,
        plane=tuple(getattr(bed.control, name) for name in PLANE_COUNTERS),
        pool=tuple(getattr(pool, name) for name in POOL_COUNTERS)
        + (len(pool), tuple(sorted(pool.miss_reasons.items()))),
        series=tuple(sorted(series)),
    )


def run_arm(arm: str) -> dict:
    """Run the script on a fresh testbed; returns ``{step: Row}``."""
    bed = make_testbed(n_hosts=3, cores_per_host=4, config=ARMS[arm])
    service = DeployService(bed.control, workers=1)
    sim, control = bed.sim, bed.control
    flow0, flow1, flow2 = bed.codeflows
    rows = {}

    def deploy(step, codeflow, program, hook="ingress"):
        def body():
            try:
                report = yield from control.inject(codeflow, program, hook)
            except ReproError as err:
                return None, type(err).__name__
            return report, None

        report, error = sim.run_process(body())
        rows[step] = _row(bed, service, report, outcome=error)

    def step(name, body):
        rows[name] = _row(bed, service, outcome=sim.run_process(body))

    app = make_stress_program(300, seed=3, name="app")
    deploy("cold", flow0, app)
    deploy("warm", flow0, app)
    deploy("patch", flow0, make_stress_variant(app, 7, name="app"))
    hot = make_stress_program(200, seed=9, name="hot")
    step("prewarm", service.warm_pool.prewarm(flow0, hot))
    deploy("prewarmed", flow0, hot, "egress")

    # Layout churn: a decoy pushes stress_map deeper; after a warm
    # reboot stress_map alone comes back, at the decoy's old address.
    mapper = make_stress_program(300, seed=5, with_map=True, name="mapper")
    state = XStateSpec("stress_map", MapType.ARRAY, 4, 8, 4)
    sim.run_process(flow1.deploy_xstate(XStateSpec("decoy", MapType.ARRAY, 4, 8, 4)))
    sim.run_process(flow1.deploy_xstate(state))
    deploy("map-cold", flow1, mapper)
    flow1.sandbox.warm_reboot()
    flow1.reset_after_reboot()
    sim.run_process(flow1.stamp_epoch(control.epoch))
    sim.run_process(flow1.deploy_xstate(state))
    deploy("reboot-relayout", flow1, mapper)
    deploy("reboot-warm", flow1, mapper)

    # Geometry: stress_map reshaped to 2-byte values at the same address.
    wide = sim.run_process(flow2.deploy_xstate(state))
    deploy("geom-wide", flow2, mapper)
    sim.run_process(flow2.destroy_xstate(wide))
    narrow = sim.run_process(flow2.deploy_xstate(
        XStateSpec("stress_map", MapType.ARRAY, 4, 2, 4)
    ))
    deploy("geom-narrow", flow2, mapper)
    sim.run_process(flow2.destroy_xstate(narrow))
    sim.run_process(flow2.deploy_xstate(state))
    deploy("geom-back", flow2, mapper)

    # Overflow the compile stage, then revisit a program it evicted.
    for index in range(RDX_REGISTRY_CAP):
        sim.run_process(control.prepare_for(
            flow0, make_stress_program(20, seed=100 + index, name=f"fill{index}")
        ))
    rows["overflow"] = _row(bed, service)
    deploy("revisit", flow0, app)

    shared = make_stress_program(400, seed=11, name="shared")

    def broadcast():
        result = yield from CodeFlowGroup(bed.codeflows).broadcast(
            [shared] * 3, "egress"
        )
        return tuple(report.mode for report in result.reports)

    step("broadcast", broadcast())

    def link(program):
        linked = yield from rdx_link_code(flow0, program)
        return len(linked.code), linked.is_linked

    step("link-compiled", link(shared))
    step("link-fresh", link(make_stress_program(150, seed=12, name="fresh")))

    recall = make_stress_program(200, seed=13, name="recall")
    deploy("inv-cold", flow0, recall)
    rows["invalidate"] = _row(
        bed, service, outcome=service.warm_pool.invalidate(recall.tag())
    )
    deploy("inv-redeploy", flow0, recall)
    deploy("inv-again", flow0, recall)
    return rows


def test_arms_match_the_three_cache_table():
    for arm, table in ORACLE.items():
        rows = run_arm(arm)
        assert list(rows) == list(table), arm
        for step_name, row in rows.items():
            assert row == table[step_name], (arm, step_name)


# fmt: off
ORACLE = {
    'serial': {
        'cold': Row(now=468.44664, events=148, warm=False, mode='full', outcome=None, plane=(1, 1, 0, 0, 0, 0, 0), pool=(0, 0, 0, 0, ()), series=(('rdx.cache.miss{}', 1),)),
        'warm': Row(now=508.30872, events=196, warm=False, mode='full', outcome=None, plane=(1, 1, 1, 0, 0, 0, 0), pool=(0, 0, 0, 0, ()), series=(('rdx.cache.hit{}', 1), ('rdx.cache.miss{}', 1))),
        'patch': Row(now=923.1708, events=247, warm=False, mode='full', outcome=None, plane=(2, 2, 1, 0, 0, 0, 0), pool=(0, 0, 0, 0, ()), series=(('rdx.cache.hit{}', 1), ('rdx.cache.miss{}', 2))),
        'prewarm': Row(now=1173.2208, events=257, warm=None, mode=None, outcome=False, plane=(3, 3, 1, 0, 0, 0, 0), pool=(0, 0, 0, 0, ()), series=(('rdx.cache.hit{}', 1), ('rdx.cache.miss{}', 3))),
        'prewarmed': Row(now=1213.00288, events=301, warm=False, mode='full', outcome=None, plane=(3, 3, 2, 0, 0, 0, 0), pool=(0, 0, 0, 0, ()), series=(('rdx.cache.hit{}', 2), ('rdx.cache.miss{}', 3))),
        'map-cold': Row(now=1651.6324, events=422, warm=False, mode='full', outcome=None, plane=(4, 4, 2, 0, 0, 0, 0), pool=(0, 0, 0, 0, ()), series=(('rdx.cache.hit{}', 2), ('rdx.cache.miss{}', 4))),
        'reboot-relayout': Row(now=1710.55424, events=531, warm=False, mode='full', outcome=None, plane=(4, 4, 3, 0, 0, 0, 0), pool=(0, 0, 0, 0, ()), series=(('rdx.cache.hit{}', 3), ('rdx.cache.miss{}', 4))),
        'reboot-warm': Row(now=1750.46712, events=579, warm=False, mode='full', outcome=None, plane=(4, 4, 4, 0, 0, 0, 0), pool=(0, 0, 0, 0, ()), series=(('rdx.cache.hit{}', 4), ('rdx.cache.miss{}', 4))),
        'geom-wide': Row(now=1802.23832, events=662, warm=False, mode='full', outcome=None, plane=(4, 4, 5, 0, 0, 0, 0), pool=(0, 0, 0, 0, ()), series=(('rdx.cache.hit{}', 5), ('rdx.cache.miss{}', 4))),
        'geom-narrow': Row(now=1823.94544, events=733, warm=None, mode=None, outcome='VerifierError', plane=(4, 4, 5, 0, 0, 0, 0), pool=(0, 0, 0, 0, ()), series=(('rdx.cache.hit{}', 5), ('rdx.cache.miss{}', 5))),
        'geom-back': Row(now=1885.56736, events=851, warm=False, mode='full', outcome=None, plane=(4, 4, 6, 0, 0, 0, 0), pool=(0, 0, 0, 0, ()), series=(('rdx.cache.hit{}', 6), ('rdx.cache.miss{}', 5))),
        'overflow': Row(now=5085.56736, events=1494, warm=None, mode=None, outcome=None, plane=(132, 132, 6, 4, 0, 0, 0), pool=(0, 0, 0, 0, ()), series=(('rdx.cache.evict{}', 4), ('rdx.cache.hit{}', 6), ('rdx.cache.miss{}', 133))),
        'revisit': Row(now=5500.42944, events=1542, warm=False, mode='full', outcome=None, plane=(133, 133, 6, 5, 0, 0, 0), pool=(0, 0, 0, 0, ()), series=(('rdx.cache.evict{}', 5), ('rdx.cache.hit{}', 6), ('rdx.cache.miss{}', 134))),
        'broadcast': Row(now=6058.89568, events=1851, warm=None, mode=None, outcome=('full', 'full', 'full'), plane=(134, 134, 11, 6, 0, 0, 0), pool=(0, 0, 0, 0, ()), series=(('rdx.cache.evict{}', 6), ('rdx.cache.hit{}', 11), ('rdx.cache.miss{}', 135))),
        'link-compiled': Row(now=6058.94568, events=1854, warm=None, mode=None, outcome=(4012, True), plane=(134, 134, 11, 6, 0, 0, 0), pool=(0, 0, 0, 0, ()), series=(('rdx.cache.evict{}', 6), ('rdx.cache.hit{}', 11), ('rdx.cache.miss{}', 135))),
        'link-fresh': Row(now=6096.49568, events=1862, warm=None, mode=None, outcome=(1512, True), plane=(134, 135, 11, 6, 0, 0, 0), pool=(0, 0, 0, 0, ()), series=(('rdx.cache.evict{}', 6), ('rdx.cache.hit{}', 11), ('rdx.cache.miss{}', 135))),
        'inv-cold': Row(now=6386.27776, events=1909, warm=False, mode='full', outcome=None, plane=(135, 136, 11, 7, 0, 0, 0), pool=(0, 0, 0, 0, ()), series=(('rdx.cache.evict{}', 7), ('rdx.cache.hit{}', 11), ('rdx.cache.miss{}', 136))),
        'invalidate': Row(now=6386.27776, events=1909, warm=None, mode=None, outcome=0, plane=(135, 136, 11, 8, 0, 0, 0), pool=(0, 0, 0, 0, ()), series=(('rdx.cache.evict{}', 8), ('rdx.cache.hit{}', 11), ('rdx.cache.miss{}', 136))),
        'inv-redeploy': Row(now=6676.05984, events=1960, warm=False, mode='full', outcome=None, plane=(136, 137, 11, 8, 0, 0, 0), pool=(0, 0, 0, 0, ()), series=(('rdx.cache.evict{}', 8), ('rdx.cache.hit{}', 11), ('rdx.cache.miss{}', 137))),
        'inv-again': Row(now=6715.84192, events=2008, warm=False, mode='full', outcome=None, plane=(136, 137, 12, 8, 0, 0, 0), pool=(0, 0, 0, 0, ()), series=(('rdx.cache.evict{}', 8), ('rdx.cache.hit{}', 12), ('rdx.cache.miss{}', 137))),
    },
    'pipelined': {
        'cold': Row(now=370.14664, events=136, warm=False, mode='full', outcome=None, plane=(1, 1, 0, 0, 0, 0, 1), pool=(0, 1, 0, 1, (('absent', 1),)), series=(('rdx.cache.miss{}', 1), ('rdx.link.cache_miss{}', 1), ('rdx.serve.warm.admit{}', 1), ('rdx.serve.warm.miss{reason=absent}', 1))),
        'warm': Row(now=378.65872, events=163, warm=True, mode='full', outcome=None, plane=(1, 1, 0, 0, 0, 0, 1), pool=(1, 1, 0, 1, (('absent', 1),)), series=(('rdx.cache.miss{}', 1), ('rdx.link.cache_miss{}', 1), ('rdx.serve.warm.admit{}', 1), ('rdx.serve.warm.hit{}', 1), ('rdx.serve.warm.miss{reason=absent}', 1))),
        'patch': Row(now=686.98592, events=198, warm=False, mode='delta', outcome=None, plane=(2, 2, 0, 0, 0, 0, 2), pool=(1, 2, 0, 2, (('absent', 2),)), series=(('rdx.cache.miss{}', 2), ('rdx.link.cache_miss{}', 2), ('rdx.serve.warm.admit{}', 2), ('rdx.serve.warm.hit{}', 1), ('rdx.serve.warm.miss{reason=absent}', 2))),
        'prewarm': Row(now=887.03592, events=207, warm=None, mode=None, outcome=True, plane=(3, 3, 0, 0, 0, 0, 3), pool=(1, 2, 0, 3, (('absent', 2),)), series=(('rdx.cache.miss{}', 3), ('rdx.link.cache_miss{}', 3), ('rdx.serve.warm.admit{}', 3), ('rdx.serve.warm.hit{}', 1), ('rdx.serve.warm.miss{reason=absent}', 2))),
        'prewarmed': Row(now=895.468, events=234, warm=True, mode='full', outcome=None, plane=(3, 3, 0, 0, 0, 0, 3), pool=(2, 2, 0, 3, (('absent', 2),)), series=(('rdx.cache.miss{}', 3), ('rdx.link.cache_miss{}', 3), ('rdx.serve.warm.admit{}', 3), ('rdx.serve.warm.hit{}', 2), ('rdx.serve.warm.miss{reason=absent}', 2))),
        'map-cold': Row(now=1227.3988, events=309, warm=False, mode='full', outcome=None, plane=(4, 4, 0, 0, 0, 0, 4), pool=(2, 3, 0, 4, (('absent', 3),)), series=(('rdx.cache.miss{}', 4), ('rdx.link.cache_miss{}', 4), ('rdx.serve.warm.admit{}', 4), ('rdx.serve.warm.hit{}', 2), ('rdx.serve.warm.miss{reason=absent}', 3))),
        'reboot-relayout': Row(now=1258.82128, events=384, warm=False, mode='full', outcome=None, plane=(4, 4, 1, 0, 0, 0, 5), pool=(2, 4, 0, 5, (('absent', 3), ('layout-changed', 1))), series=(('rdx.cache.hit{}', 1), ('rdx.cache.miss{}', 4), ('rdx.link.cache_miss{}', 5), ('rdx.serve.warm.admit{}', 5), ('rdx.serve.warm.hit{}', 2), ('rdx.serve.warm.miss{reason=absent}', 3), ('rdx.serve.warm.miss{reason=layout-changed}', 1))),
        'reboot-warm': Row(now=1267.33416, events=411, warm=True, mode='full', outcome=None, plane=(4, 4, 1, 0, 0, 0, 5), pool=(3, 4, 0, 5, (('absent', 3), ('layout-changed', 1))), series=(('rdx.cache.hit{}', 1), ('rdx.cache.miss{}', 4), ('rdx.link.cache_miss{}', 5), ('rdx.serve.warm.admit{}', 5), ('rdx.serve.warm.hit{}', 3), ('rdx.serve.warm.miss{reason=absent}', 3), ('rdx.serve.warm.miss{reason=layout-changed}', 1))),
        'geom-wide': Row(now=1291.606, events=460, warm=False, mode='full', outcome=None, plane=(4, 4, 2, 0, 0, 0, 6), pool=(3, 5, 0, 6, (('absent', 3), ('layout-changed', 2))), series=(('rdx.cache.hit{}', 2), ('rdx.cache.miss{}', 4), ('rdx.link.cache_miss{}', 6), ('rdx.serve.warm.admit{}', 6), ('rdx.serve.warm.hit{}', 3), ('rdx.serve.warm.miss{reason=absent}', 3), ('rdx.serve.warm.miss{reason=layout-changed}', 2))),
        'geom-narrow': Row(now=1309.4144, events=508, warm=None, mode=None, outcome='VerifierError', plane=(4, 4, 2, 0, 0, 0, 6), pool=(3, 6, 0, 6, (('absent', 4), ('layout-changed', 2))), series=(('rdx.cache.hit{}', 2), ('rdx.cache.miss{}', 5), ('rdx.link.cache_miss{}', 6), ('rdx.serve.warm.admit{}', 6), ('rdx.serve.warm.hit{}', 3), ('rdx.serve.warm.miss{reason=absent}', 4), ('rdx.serve.warm.miss{reason=layout-changed}', 2))),
        'geom-back': Row(now=1335.4376, events=581, warm=True, mode='full', outcome=None, plane=(4, 4, 2, 0, 0, 0, 6), pool=(4, 6, 0, 6, (('absent', 4), ('layout-changed', 2))), series=(('rdx.cache.hit{}', 2), ('rdx.cache.miss{}', 5), ('rdx.link.cache_miss{}', 6), ('rdx.serve.warm.admit{}', 6), ('rdx.serve.warm.hit{}', 4), ('rdx.serve.warm.miss{reason=absent}', 4), ('rdx.serve.warm.miss{reason=layout-changed}', 2))),
        'overflow': Row(now=3895.4376, events=1604, warm=None, mode=None, outcome=None, plane=(132, 132, 2, 4, 0, 0, 6), pool=(4, 6, 0, 6, (('absent', 4), ('layout-changed', 2))), series=(('rdx.cache.evict{}', 4), ('rdx.cache.hit{}', 2), ('rdx.cache.miss{}', 133), ('rdx.link.cache_miss{}', 6), ('rdx.serve.warm.admit{}', 6), ('rdx.serve.warm.hit{}', 4), ('rdx.serve.warm.miss{reason=absent}', 4), ('rdx.serve.warm.miss{reason=layout-changed}', 2))),
        'revisit': Row(now=3903.70872, events=1631, warm=True, mode='delta', outcome=None, plane=(132, 132, 2, 4, 0, 0, 6), pool=(5, 6, 0, 6, (('absent', 4), ('layout-changed', 2))), series=(('rdx.cache.evict{}', 4), ('rdx.cache.hit{}', 2), ('rdx.cache.miss{}', 133), ('rdx.link.cache_miss{}', 6), ('rdx.serve.warm.admit{}', 6), ('rdx.serve.warm.hit{}', 5), ('rdx.serve.warm.miss{reason=absent}', 4), ('rdx.serve.warm.miss{reason=layout-changed}', 2))),
        'broadcast': Row(now=4324.92432, events=1852, warm=None, mode=None, outcome=('full', 'full', 'full'), plane=(133, 133, 5, 5, 0, 3, 9), pool=(5, 9, 0, 7, (('absent', 7), ('layout-changed', 2))), series=(('rdx.cache.evict{}', 5), ('rdx.cache.hit{}', 5), ('rdx.cache.miss{}', 134), ('rdx.link.cache_hit{}', 3), ('rdx.link.cache_miss{}', 9), ('rdx.serve.warm.admit{}', 7), ('rdx.serve.warm.hit{}', 5), ('rdx.serve.warm.miss{reason=absent}', 7), ('rdx.serve.warm.miss{reason=layout-changed}', 2))),
        'link-compiled': Row(now=4325.12432, events=1855, warm=None, mode=None, outcome=(4012, True), plane=(133, 133, 5, 5, 0, 4, 9), pool=(5, 9, 0, 7, (('absent', 7), ('layout-changed', 2))), series=(('rdx.cache.evict{}', 5), ('rdx.cache.hit{}', 5), ('rdx.cache.miss{}', 134), ('rdx.link.cache_hit{}', 4), ('rdx.link.cache_miss{}', 9), ('rdx.serve.warm.admit{}', 7), ('rdx.serve.warm.hit{}', 5), ('rdx.serve.warm.miss{reason=absent}', 7), ('rdx.serve.warm.miss{reason=layout-changed}', 2))),
        'link-fresh': Row(now=4362.67432, events=1859, warm=None, mode=None, outcome=(1512, True), plane=(133, 134, 5, 5, 0, 4, 10), pool=(5, 9, 0, 7, (('absent', 7), ('layout-changed', 2))), series=(('rdx.cache.evict{}', 5), ('rdx.cache.hit{}', 5), ('rdx.cache.miss{}', 134), ('rdx.link.cache_hit{}', 4), ('rdx.link.cache_miss{}', 10), ('rdx.serve.warm.admit{}', 7), ('rdx.serve.warm.hit{}', 5), ('rdx.serve.warm.miss{reason=absent}', 7), ('rdx.serve.warm.miss{reason=layout-changed}', 2))),
        'inv-cold': Row(now=4571.1564, events=1893, warm=False, mode='full', outcome=None, plane=(134, 135, 5, 6, 0, 4, 11), pool=(5, 10, 0, 8, (('absent', 8), ('layout-changed', 2))), series=(('rdx.cache.evict{}', 6), ('rdx.cache.hit{}', 5), ('rdx.cache.miss{}', 135), ('rdx.link.cache_hit{}', 4), ('rdx.link.cache_miss{}', 11), ('rdx.serve.warm.admit{}', 8), ('rdx.serve.warm.hit{}', 5), ('rdx.serve.warm.miss{reason=absent}', 8), ('rdx.serve.warm.miss{reason=layout-changed}', 2))),
        'invalidate': Row(now=4571.1564, events=1893, warm=None, mode=None, outcome=1, plane=(134, 135, 5, 7, 0, 4, 11), pool=(5, 10, 1, 7, (('absent', 8), ('layout-changed', 2))), series=(('rdx.cache.evict{}', 7), ('rdx.cache.hit{}', 5), ('rdx.cache.miss{}', 135), ('rdx.link.cache_hit{}', 4), ('rdx.link.cache_miss{}', 11), ('rdx.serve.warm.admit{}', 8), ('rdx.serve.warm.evict{}', 1), ('rdx.serve.warm.hit{}', 5), ('rdx.serve.warm.miss{reason=absent}', 8), ('rdx.serve.warm.miss{reason=layout-changed}', 2))),
        'inv-redeploy': Row(now=4779.63848, events=1927, warm=False, mode='full', outcome=None, plane=(135, 136, 5, 7, 0, 4, 12), pool=(5, 11, 1, 8, (('absent', 9), ('layout-changed', 2))), series=(('rdx.cache.evict{}', 7), ('rdx.cache.hit{}', 5), ('rdx.cache.miss{}', 136), ('rdx.link.cache_hit{}', 4), ('rdx.link.cache_miss{}', 12), ('rdx.serve.warm.admit{}', 9), ('rdx.serve.warm.evict{}', 1), ('rdx.serve.warm.hit{}', 5), ('rdx.serve.warm.miss{reason=absent}', 9), ('rdx.serve.warm.miss{reason=layout-changed}', 2))),
        'inv-again': Row(now=4787.9096, events=1953, warm=True, mode='delta', outcome=None, plane=(135, 136, 5, 7, 0, 4, 12), pool=(6, 11, 1, 8, (('absent', 9), ('layout-changed', 2))), series=(('rdx.cache.evict{}', 7), ('rdx.cache.hit{}', 5), ('rdx.cache.miss{}', 136), ('rdx.link.cache_hit{}', 4), ('rdx.link.cache_miss{}', 12), ('rdx.serve.warm.admit{}', 9), ('rdx.serve.warm.evict{}', 1), ('rdx.serve.warm.hit{}', 6), ('rdx.serve.warm.miss{reason=absent}', 9), ('rdx.serve.warm.miss{reason=layout-changed}', 2))),
    },
}
# fmt: on


# -- the schedule is timing ----------------------------------------------------

#: Columns both schedules must agree in, step by step: ``now`` and
#: ``events`` are the schedule's own, and ``pool`` and the link and pin
#: counters belong to the stages only a schedule with reuse runs.  The
#: registry's counters compare by what each step added to them.
COMPARED = ("warm", "mode", "outcome", "plane", "series")
#: The registry's counters among :data:`PLANE_COUNTERS`.
REGISTRY = PLANE_COUNTERS[: PLANE_COUNTERS.index("link_cache_hits")]
_NO_PINS = "reuse=False: the serial schedule has no pin stage"
_PIN_HITS = ("warm", "prewarmed", "reboot-warm", "geom-back", "revisit", "inv-again")
#: ``columns -> (steps, cause)``: every known way the serial rows
#: differ from the pipelined ones in :data:`COMPARED`.
EXCEPTIONS = {
    ("warm",): (_PIN_HITS, _NO_PINS + ", so every one of its deploys links"),
    ("mode",): (
        ("patch", "revisit", "inv-again"),
        "reuse=False: the serial schedule links with no link key, so it "
        "ships each pipelined delta in full",
    ),
    ("outcome",): (
        ("prewarm", "invalidate"),
        _NO_PINS + ": a prewarm pins nothing and a recall drops no pin",
    ),
    ("plane", "series"): (
        _PIN_HITS + ("broadcast",),
        _NO_PINS + ": where a pin serves the pipelined deploy its registry "
        "is not asked (and the evicted revisit not compiled again); and "
        "a serial broadcast prepares leg by leg in Phase 0 and again as "
        "each leg stages",
    ),
}


def _invariant(table: dict, step: str, column: str):
    """``column`` of ``table[step]``; for ``plane`` and ``series`` the
    registry's counters only, as what the step added to them."""
    if column not in ("plane", "series"):
        return getattr(table[step], column)
    steps = list(table)
    index = steps.index(step)
    rows = [table[name] for name in steps[max(index - 1, 0) : index + 1]]
    if column == "plane":
        counts = [dict(zip(PLANE_COUNTERS, row.plane)) for row in rows]
    else:
        counts = [dict(row.series) for row in rows]
    now, before = counts[-1], counts[0] if index else {}
    return {
        name: value - before.get(name, 0)
        for name, value in now.items()
        if value != before.get(name, 0)
        and (name in REGISTRY or name.startswith(("rdx.cache.", "rdx.prepare.")))
    }


def _diverges(step: str, column: str) -> bool:
    return _invariant(ORACLE["serial"], step, column) != _invariant(
        ORACLE["pipelined"], step, column
    )


def test_serial_and_pipelined_schedules_do_the_same():
    """Read from the table, no simulation: step by step both schedules
    agree in every compared column but for the listed exceptions."""
    for step in ORACLE["serial"]:
        for column in COMPARED:
            exempt = any(
                column in columns and step in steps
                for columns, (steps, _) in EXCEPTIONS.items()
            )
            assert exempt or not _diverges(step, column), f"serial {step}/{column}"


def test_each_schedule_exception_is_a_divergence_the_table_shows():
    """No stale entry: each exempt column differs on every step it lists."""
    for columns, (steps, cause) in EXCEPTIONS.items():
        assert cause
        for column in columns:
            for step in steps:
                assert _diverges(step, column), (step, column)


if __name__ == "__main__":
    print("ORACLE = {")
    for arm in ARMS:
        print(f"    {arm!r}: {{")
        for step_name, row in run_arm(arm).items():
            print(f"        {step_name!r}: {row!r},")
        print("    },")
    print("}")
