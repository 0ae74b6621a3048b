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
(its Phase-0 prepares coalesce); ``rdx_link_code`` on a compiled and an
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
    "delta": Config(pipelined_deploy=True, delta_deploy=True),
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
        'cold': Row(now=468.44664, events=146, warm=False, mode='full', outcome=None, plane=(1, 1, 0, 0, 0, 0, 0), pool=(0, 0, 0, 0, ()), series=(('rdx.cache.miss{}', 1),)),
        'warm': Row(now=508.30872, events=192, warm=False, mode='full', outcome=None, plane=(1, 1, 1, 0, 0, 0, 0), pool=(0, 0, 0, 0, ()), series=(('rdx.cache.hit{}', 1), ('rdx.cache.miss{}', 1))),
        'patch': Row(now=923.1708, events=241, warm=False, mode='full', outcome=None, plane=(2, 2, 1, 0, 0, 0, 0), pool=(0, 0, 0, 0, ()), series=(('rdx.cache.hit{}', 1), ('rdx.cache.miss{}', 2))),
        'prewarm': Row(now=1173.2208, events=251, warm=None, mode=None, outcome=False, plane=(3, 3, 1, 0, 0, 0, 0), pool=(0, 0, 0, 0, ()), series=(('rdx.cache.hit{}', 1), ('rdx.cache.miss{}', 3))),
        'prewarmed': Row(now=1213.00288, events=293, warm=False, mode='full', outcome=None, plane=(3, 3, 2, 0, 0, 0, 0), pool=(0, 0, 0, 0, ()), series=(('rdx.cache.hit{}', 2), ('rdx.cache.miss{}', 3))),
        'map-cold': Row(now=1651.6324, events=412, warm=False, mode='full', outcome=None, plane=(4, 4, 2, 0, 0, 0, 0), pool=(0, 0, 0, 0, ()), series=(('rdx.cache.hit{}', 2), ('rdx.cache.miss{}', 4))),
        'reboot-relayout': Row(now=1710.55424, events=519, warm=False, mode='full', outcome=None, plane=(4, 4, 3, 0, 0, 0, 0), pool=(0, 0, 0, 0, ()), series=(('rdx.cache.hit{}', 3), ('rdx.cache.miss{}', 4))),
        'reboot-warm': Row(now=1750.46712, events=565, warm=False, mode='full', outcome=None, plane=(4, 4, 4, 0, 0, 0, 0), pool=(0, 0, 0, 0, ()), series=(('rdx.cache.hit{}', 4), ('rdx.cache.miss{}', 4))),
        'geom-wide': Row(now=1802.23832, events=646, warm=False, mode='full', outcome=None, plane=(4, 4, 5, 0, 0, 0, 0), pool=(0, 0, 0, 0, ()), series=(('rdx.cache.hit{}', 5), ('rdx.cache.miss{}', 4))),
        'geom-narrow': Row(now=1821.2448, events=710, warm=None, mode=None, outcome='VerifierError', plane=(4, 4, 5, 0, 0, 0, 0), pool=(0, 0, 0, 0, ()), series=(('rdx.cache.hit{}', 5), ('rdx.cache.miss{}', 5))),
        'geom-back': Row(now=1880.16608, events=819, warm=False, mode='full', outcome=None, plane=(4, 4, 6, 0, 0, 0, 0), pool=(0, 0, 0, 0, ()), series=(('rdx.cache.hit{}', 6), ('rdx.cache.miss{}', 5))),
        'overflow': Row(now=5080.16608, events=1462, warm=None, mode=None, outcome=None, plane=(132, 132, 6, 4, 0, 0, 0), pool=(0, 0, 0, 0, ()), series=(('rdx.cache.evict{}', 4), ('rdx.cache.hit{}', 6), ('rdx.cache.miss{}', 133))),
        'revisit': Row(now=5495.02816, events=1508, warm=False, mode='full', outcome=None, plane=(133, 133, 6, 5, 0, 0, 0), pool=(0, 0, 0, 0, ()), series=(('rdx.cache.evict{}', 5), ('rdx.cache.hit{}', 6), ('rdx.cache.miss{}', 134))),
        'broadcast': Row(now=6060.84568, events=1824, warm=None, mode=None, outcome=('full', 'full', 'full'), plane=(134, 134, 11, 6, 0, 0, 0), pool=(0, 0, 0, 0, ()), series=(('rdx.cache.evict{}', 6), ('rdx.cache.hit{}', 11), ('rdx.cache.miss{}', 135))),
        'link-compiled': Row(now=6060.89568, events=1827, warm=None, mode=None, outcome=(4012, True), plane=(134, 134, 11, 6, 0, 0, 0), pool=(0, 0, 0, 0, ()), series=(('rdx.cache.evict{}', 6), ('rdx.cache.hit{}', 11), ('rdx.cache.miss{}', 135))),
        'link-fresh': Row(now=6098.44568, events=1835, warm=None, mode=None, outcome=(1512, True), plane=(134, 135, 11, 6, 0, 0, 0), pool=(0, 0, 0, 0, ()), series=(('rdx.cache.evict{}', 6), ('rdx.cache.hit{}', 11), ('rdx.cache.miss{}', 135))),
        'inv-cold': Row(now=6388.22776, events=1880, warm=False, mode='full', outcome=None, plane=(135, 136, 11, 7, 0, 0, 0), pool=(0, 0, 0, 0, ()), series=(('rdx.cache.evict{}', 7), ('rdx.cache.hit{}', 11), ('rdx.cache.miss{}', 136))),
        # f62df80: 'invalidate': Row(now=6388.22776, events=1880, warm=None, mode=None, outcome=0, plane=(135, 136, 11, 7, 0, 0, 0), pool=(0, 0, 0, 0, ()), series=(('rdx.cache.evict{}', 7), ('rdx.cache.hit{}', 11), ('rdx.cache.miss{}', 136))),
        'invalidate': Row(now=6388.22776, events=1880, warm=None, mode=None, outcome=0, plane=(135, 136, 11, 8, 0, 0, 0), pool=(0, 0, 0, 0, ()), series=(('rdx.cache.evict{}', 8), ('rdx.cache.hit{}', 11), ('rdx.cache.miss{}', 136))),
        # f62df80: 'inv-redeploy': Row(now=6428.00984, events=1926, warm=False, mode='full', outcome=None, plane=(135, 136, 12, 7, 0, 0, 0), pool=(0, 0, 0, 0, ()), series=(('rdx.cache.evict{}', 7), ('rdx.cache.hit{}', 12), ('rdx.cache.miss{}', 136))),
        'inv-redeploy': Row(now=6678.00984, events=1929, warm=False, mode='full', outcome=None, plane=(136, 137, 11, 8, 0, 0, 0), pool=(0, 0, 0, 0, ()), series=(('rdx.cache.evict{}', 8), ('rdx.cache.hit{}', 11), ('rdx.cache.miss{}', 137))),
        # f62df80: 'inv-again': Row(now=6467.79192, events=1972, warm=False, mode='full', outcome=None, plane=(135, 136, 13, 7, 0, 0, 0), pool=(0, 0, 0, 0, ()), series=(('rdx.cache.evict{}', 7), ('rdx.cache.hit{}', 13), ('rdx.cache.miss{}', 136))),
        'inv-again': Row(now=6717.79192, events=1975, warm=False, mode='full', outcome=None, plane=(136, 137, 12, 8, 0, 0, 0), pool=(0, 0, 0, 0, ()), series=(('rdx.cache.evict{}', 8), ('rdx.cache.hit{}', 12), ('rdx.cache.miss{}', 137))),
    },
    'pipelined': {
        'cold': Row(now=447.84728, events=129, warm=False, mode='full', outcome=None, plane=(1, 1, 0, 0, 0, 0, 1), pool=(0, 1, 0, 1, (('absent', 1),)), series=(('rdx.cache.miss{}', 1), ('rdx.link.cache_miss{}', 1), ('rdx.serve.warm.admit{}', 1), ('rdx.serve.warm.miss{reason=absent}', 1))),
        'warm': Row(now=459.06, events=152, warm=True, mode='full', outcome=None, plane=(1, 1, 0, 0, 0, 0, 1), pool=(1, 1, 0, 1, (('absent', 1),)), series=(('rdx.cache.miss{}', 1), ('rdx.link.cache_miss{}', 1), ('rdx.serve.warm.admit{}', 1), ('rdx.serve.warm.hit{}', 1), ('rdx.serve.warm.miss{reason=absent}', 1))),
        'patch': Row(now=853.32272, events=180, warm=False, mode='full', outcome=None, plane=(2, 2, 0, 0, 0, 0, 2), pool=(1, 2, 0, 2, (('absent', 2),)), series=(('rdx.cache.miss{}', 2), ('rdx.link.cache_miss{}', 2), ('rdx.serve.warm.admit{}', 2), ('rdx.serve.warm.hit{}', 1), ('rdx.serve.warm.miss{reason=absent}', 2))),
        'prewarm': Row(now=1103.37272, events=186, warm=None, mode=None, outcome=True, plane=(3, 3, 0, 0, 0, 0, 3), pool=(1, 2, 0, 3, (('absent', 2),)), series=(('rdx.cache.miss{}', 3), ('rdx.link.cache_miss{}', 3), ('rdx.serve.warm.admit{}', 3), ('rdx.serve.warm.hit{}', 1), ('rdx.serve.warm.miss{reason=absent}', 2))),
        'prewarmed': Row(now=1114.50544, events=209, warm=True, mode='full', outcome=None, plane=(3, 3, 0, 0, 0, 0, 3), pool=(2, 2, 0, 3, (('absent', 2),)), series=(('rdx.cache.miss{}', 3), ('rdx.link.cache_miss{}', 3), ('rdx.serve.warm.admit{}', 3), ('rdx.serve.warm.hit{}', 2), ('rdx.serve.warm.miss{reason=absent}', 2))),
        'map-cold': Row(now=1532.5356, events=307, warm=False, mode='full', outcome=None, plane=(4, 4, 0, 0, 0, 0, 4), pool=(2, 3, 0, 4, (('absent', 3),)), series=(('rdx.cache.miss{}', 4), ('rdx.link.cache_miss{}', 4), ('rdx.serve.warm.admit{}', 4), ('rdx.serve.warm.hit{}', 2), ('rdx.serve.warm.miss{reason=absent}', 3))),
        'reboot-relayout': Row(now=1570.85808, events=393, warm=False, mode='full', outcome=None, plane=(4, 4, 1, 0, 0, 0, 5), pool=(2, 4, 0, 5, (('absent', 3), ('layout-changed', 1))), series=(('rdx.cache.hit{}', 1), ('rdx.cache.miss{}', 4), ('rdx.link.cache_miss{}', 5), ('rdx.serve.warm.admit{}', 5), ('rdx.serve.warm.hit{}', 2), ('rdx.serve.warm.miss{reason=absent}', 3), ('rdx.serve.warm.miss{reason=layout-changed}', 1))),
        'reboot-warm': Row(now=1582.0716, events=416, warm=True, mode='full', outcome=None, plane=(4, 4, 1, 0, 0, 0, 5), pool=(3, 4, 0, 5, (('absent', 3), ('layout-changed', 1))), series=(('rdx.cache.hit{}', 1), ('rdx.cache.miss{}', 4), ('rdx.link.cache_miss{}', 5), ('rdx.serve.warm.admit{}', 5), ('rdx.serve.warm.hit{}', 3), ('rdx.serve.warm.miss{reason=absent}', 3), ('rdx.serve.warm.miss{reason=layout-changed}', 1))),
        'geom-wide': Row(now=1613.24344, events=476, warm=False, mode='full', outcome=None, plane=(4, 4, 2, 0, 0, 0, 6), pool=(3, 5, 0, 6, (('absent', 3), ('layout-changed', 2))), series=(('rdx.cache.hit{}', 2), ('rdx.cache.miss{}', 4), ('rdx.link.cache_miss{}', 6), ('rdx.serve.warm.admit{}', 6), ('rdx.serve.warm.hit{}', 3), ('rdx.serve.warm.miss{reason=absent}', 3), ('rdx.serve.warm.miss{reason=layout-changed}', 2))),
        'geom-narrow': Row(now=1632.54992, events=537, warm=None, mode=None, outcome='VerifierError', plane=(4, 4, 2, 0, 0, 0, 6), pool=(3, 6, 0, 6, (('absent', 4), ('layout-changed', 2))), series=(('rdx.cache.hit{}', 2), ('rdx.cache.miss{}', 5), ('rdx.link.cache_miss{}', 6), ('rdx.serve.warm.admit{}', 6), ('rdx.serve.warm.hit{}', 3), ('rdx.serve.warm.miss{reason=absent}', 4), ('rdx.serve.warm.miss{reason=layout-changed}', 2))),
        'geom-back': Row(now=1662.77184, events=627, warm=True, mode='full', outcome=None, plane=(4, 4, 2, 0, 0, 0, 6), pool=(4, 6, 0, 6, (('absent', 4), ('layout-changed', 2))), series=(('rdx.cache.hit{}', 2), ('rdx.cache.miss{}', 5), ('rdx.link.cache_miss{}', 6), ('rdx.serve.warm.admit{}', 6), ('rdx.serve.warm.hit{}', 4), ('rdx.serve.warm.miss{reason=absent}', 4), ('rdx.serve.warm.miss{reason=layout-changed}', 2))),
        'overflow': Row(now=4862.77184, events=1266, warm=None, mode=None, outcome=None, plane=(132, 132, 2, 4, 0, 0, 6), pool=(4, 6, 0, 6, (('absent', 4), ('layout-changed', 2))), series=(('rdx.cache.evict{}', 4), ('rdx.cache.hit{}', 2), ('rdx.cache.miss{}', 133), ('rdx.link.cache_miss{}', 6), ('rdx.serve.warm.admit{}', 6), ('rdx.serve.warm.hit{}', 4), ('rdx.serve.warm.miss{reason=absent}', 4), ('rdx.serve.warm.miss{reason=layout-changed}', 2))),
        'revisit': Row(now=4873.98456, events=1290, warm=True, mode='full', outcome=None, plane=(132, 132, 2, 4, 0, 0, 6), pool=(5, 6, 0, 6, (('absent', 4), ('layout-changed', 2))), series=(('rdx.cache.evict{}', 4), ('rdx.cache.hit{}', 2), ('rdx.cache.miss{}', 133), ('rdx.link.cache_miss{}', 6), ('rdx.serve.warm.admit{}', 6), ('rdx.serve.warm.hit{}', 5), ('rdx.serve.warm.miss{reason=absent}', 4), ('rdx.serve.warm.miss{reason=layout-changed}', 2))),
        'broadcast': Row(now=5397.9508, events=1489, warm=None, mode=None, outcome=('full', 'full', 'full'), plane=(133, 133, 5, 5, 2, 3, 9), pool=(5, 9, 0, 7, (('absent', 7), ('layout-changed', 2))), series=(('rdx.cache.evict{}', 5), ('rdx.cache.hit{}', 5), ('rdx.cache.miss{}', 134), ('rdx.link.cache_hit{}', 3), ('rdx.link.cache_miss{}', 9), ('rdx.prepare.coalesced{}', 2), ('rdx.serve.warm.admit{}', 7), ('rdx.serve.warm.hit{}', 5), ('rdx.serve.warm.miss{reason=absent}', 7), ('rdx.serve.warm.miss{reason=layout-changed}', 2))),
        'link-compiled': Row(now=5398.1508, events=1492, warm=None, mode=None, outcome=(4012, True), plane=(133, 133, 5, 5, 2, 4, 9), pool=(5, 9, 0, 7, (('absent', 7), ('layout-changed', 2))), series=(('rdx.cache.evict{}', 5), ('rdx.cache.hit{}', 5), ('rdx.cache.miss{}', 134), ('rdx.link.cache_hit{}', 4), ('rdx.link.cache_miss{}', 9), ('rdx.prepare.coalesced{}', 2), ('rdx.serve.warm.admit{}', 7), ('rdx.serve.warm.hit{}', 5), ('rdx.serve.warm.miss{reason=absent}', 7), ('rdx.serve.warm.miss{reason=layout-changed}', 2))),
        'link-fresh': Row(now=5435.7008, events=1496, warm=None, mode=None, outcome=(1512, True), plane=(133, 134, 5, 5, 2, 4, 10), pool=(5, 9, 0, 7, (('absent', 7), ('layout-changed', 2))), series=(('rdx.cache.evict{}', 5), ('rdx.cache.hit{}', 5), ('rdx.cache.miss{}', 134), ('rdx.link.cache_hit{}', 4), ('rdx.link.cache_miss{}', 10), ('rdx.prepare.coalesced{}', 2), ('rdx.serve.warm.admit{}', 7), ('rdx.serve.warm.hit{}', 5), ('rdx.serve.warm.miss{reason=absent}', 7), ('rdx.serve.warm.miss{reason=layout-changed}', 2))),
        'inv-cold': Row(now=5704.88352, events=1524, warm=False, mode='full', outcome=None, plane=(134, 135, 5, 6, 2, 4, 11), pool=(5, 10, 0, 8, (('absent', 8), ('layout-changed', 2))), series=(('rdx.cache.evict{}', 6), ('rdx.cache.hit{}', 5), ('rdx.cache.miss{}', 135), ('rdx.link.cache_hit{}', 4), ('rdx.link.cache_miss{}', 11), ('rdx.prepare.coalesced{}', 2), ('rdx.serve.warm.admit{}', 8), ('rdx.serve.warm.hit{}', 5), ('rdx.serve.warm.miss{reason=absent}', 8), ('rdx.serve.warm.miss{reason=layout-changed}', 2))),
        # f62df80: 'invalidate': Row(now=5704.88352, events=1524, warm=None, mode=None, outcome=1, plane=(134, 135, 5, 6, 2, 4, 11), pool=(5, 10, 1, 7, (('absent', 8), ('layout-changed', 2))), series=(('rdx.cache.evict{}', 6), ('rdx.cache.hit{}', 5), ('rdx.cache.miss{}', 135), ('rdx.link.cache_hit{}', 4), ('rdx.link.cache_miss{}', 11), ('rdx.prepare.coalesced{}', 2), ('rdx.serve.warm.admit{}', 8), ('rdx.serve.warm.evict{}', 1), ('rdx.serve.warm.hit{}', 5), ('rdx.serve.warm.miss{reason=absent}', 8), ('rdx.serve.warm.miss{reason=layout-changed}', 2))),
        'invalidate': Row(now=5704.88352, events=1524, warm=None, mode=None, outcome=1, plane=(134, 135, 5, 7, 2, 4, 11), pool=(5, 10, 1, 7, (('absent', 8), ('layout-changed', 2))), series=(('rdx.cache.evict{}', 7), ('rdx.cache.hit{}', 5), ('rdx.cache.miss{}', 135), ('rdx.link.cache_hit{}', 4), ('rdx.link.cache_miss{}', 11), ('rdx.prepare.coalesced{}', 2), ('rdx.serve.warm.admit{}', 8), ('rdx.serve.warm.evict{}', 1), ('rdx.serve.warm.hit{}', 5), ('rdx.serve.warm.miss{reason=absent}', 8), ('rdx.serve.warm.miss{reason=layout-changed}', 2))),
        # f62df80: 'inv-redeploy': Row(now=5716.21624, events=1548, warm=False, mode='full', outcome=None, plane=(134, 135, 6, 6, 2, 5, 11), pool=(5, 11, 1, 8, (('absent', 9), ('layout-changed', 2))), series=(('rdx.cache.evict{}', 6), ('rdx.cache.hit{}', 6), ('rdx.cache.miss{}', 135), ('rdx.link.cache_hit{}', 5), ('rdx.link.cache_miss{}', 11), ('rdx.prepare.coalesced{}', 2), ('rdx.serve.warm.admit{}', 9), ('rdx.serve.warm.evict{}', 1), ('rdx.serve.warm.hit{}', 5), ('rdx.serve.warm.miss{reason=absent}', 9), ('rdx.serve.warm.miss{reason=layout-changed}', 2))),
        'inv-redeploy': Row(now=5974.06624, events=1552, warm=False, mode='full', outcome=None, plane=(135, 136, 5, 7, 2, 4, 12), pool=(5, 11, 1, 8, (('absent', 9), ('layout-changed', 2))), series=(('rdx.cache.evict{}', 7), ('rdx.cache.hit{}', 5), ('rdx.cache.miss{}', 136), ('rdx.link.cache_hit{}', 4), ('rdx.link.cache_miss{}', 12), ('rdx.prepare.coalesced{}', 2), ('rdx.serve.warm.admit{}', 9), ('rdx.serve.warm.evict{}', 1), ('rdx.serve.warm.hit{}', 5), ('rdx.serve.warm.miss{reason=absent}', 9), ('rdx.serve.warm.miss{reason=layout-changed}', 2))),
        # f62df80: 'inv-again': Row(now=5727.34896, events=1571, warm=True, mode='full', outcome=None, plane=(134, 135, 6, 6, 2, 5, 11), pool=(6, 11, 1, 8, (('absent', 9), ('layout-changed', 2))), series=(('rdx.cache.evict{}', 6), ('rdx.cache.hit{}', 6), ('rdx.cache.miss{}', 135), ('rdx.link.cache_hit{}', 5), ('rdx.link.cache_miss{}', 11), ('rdx.prepare.coalesced{}', 2), ('rdx.serve.warm.admit{}', 9), ('rdx.serve.warm.evict{}', 1), ('rdx.serve.warm.hit{}', 6), ('rdx.serve.warm.miss{reason=absent}', 9), ('rdx.serve.warm.miss{reason=layout-changed}', 2))),
        'inv-again': Row(now=5985.19896, events=1575, warm=True, mode='full', outcome=None, plane=(135, 136, 5, 7, 2, 4, 12), pool=(6, 11, 1, 8, (('absent', 9), ('layout-changed', 2))), series=(('rdx.cache.evict{}', 7), ('rdx.cache.hit{}', 5), ('rdx.cache.miss{}', 136), ('rdx.link.cache_hit{}', 4), ('rdx.link.cache_miss{}', 12), ('rdx.prepare.coalesced{}', 2), ('rdx.serve.warm.admit{}', 9), ('rdx.serve.warm.evict{}', 1), ('rdx.serve.warm.hit{}', 6), ('rdx.serve.warm.miss{reason=absent}', 9), ('rdx.serve.warm.miss{reason=layout-changed}', 2))),
    },
    'delta': {
        'cold': Row(now=447.84728, events=129, warm=False, mode='full', outcome=None, plane=(1, 1, 0, 0, 0, 0, 1), pool=(0, 1, 0, 1, (('absent', 1),)), series=(('rdx.cache.miss{}', 1), ('rdx.link.cache_miss{}', 1), ('rdx.serve.warm.admit{}', 1), ('rdx.serve.warm.miss{reason=absent}', 1))),
        'warm': Row(now=459.06, events=152, warm=True, mode='full', outcome=None, plane=(1, 1, 0, 0, 0, 0, 1), pool=(1, 1, 0, 1, (('absent', 1),)), series=(('rdx.cache.miss{}', 1), ('rdx.link.cache_miss{}', 1), ('rdx.serve.warm.admit{}', 1), ('rdx.serve.warm.hit{}', 1), ('rdx.serve.warm.miss{reason=absent}', 1))),
        'patch': Row(now=853.08784, events=181, warm=False, mode='delta', outcome=None, plane=(2, 2, 0, 0, 0, 0, 2), pool=(1, 2, 0, 2, (('absent', 2),)), series=(('rdx.cache.miss{}', 2), ('rdx.link.cache_miss{}', 2), ('rdx.serve.warm.admit{}', 2), ('rdx.serve.warm.hit{}', 1), ('rdx.serve.warm.miss{reason=absent}', 2))),
        'prewarm': Row(now=1103.13784, events=187, warm=None, mode=None, outcome=True, plane=(3, 3, 0, 0, 0, 0, 3), pool=(1, 2, 0, 3, (('absent', 2),)), series=(('rdx.cache.miss{}', 3), ('rdx.link.cache_miss{}', 3), ('rdx.serve.warm.admit{}', 3), ('rdx.serve.warm.hit{}', 1), ('rdx.serve.warm.miss{reason=absent}', 2))),
        'prewarmed': Row(now=1114.27056, events=210, warm=True, mode='full', outcome=None, plane=(3, 3, 0, 0, 0, 0, 3), pool=(2, 2, 0, 3, (('absent', 2),)), series=(('rdx.cache.miss{}', 3), ('rdx.link.cache_miss{}', 3), ('rdx.serve.warm.admit{}', 3), ('rdx.serve.warm.hit{}', 2), ('rdx.serve.warm.miss{reason=absent}', 2))),
        'map-cold': Row(now=1532.30072, events=308, warm=False, mode='full', outcome=None, plane=(4, 4, 0, 0, 0, 0, 4), pool=(2, 3, 0, 4, (('absent', 3),)), series=(('rdx.cache.miss{}', 4), ('rdx.link.cache_miss{}', 4), ('rdx.serve.warm.admit{}', 4), ('rdx.serve.warm.hit{}', 2), ('rdx.serve.warm.miss{reason=absent}', 3))),
        'reboot-relayout': Row(now=1570.6232, events=394, warm=False, mode='full', outcome=None, plane=(4, 4, 1, 0, 0, 0, 5), pool=(2, 4, 0, 5, (('absent', 3), ('layout-changed', 1))), series=(('rdx.cache.hit{}', 1), ('rdx.cache.miss{}', 4), ('rdx.link.cache_miss{}', 5), ('rdx.serve.warm.admit{}', 5), ('rdx.serve.warm.hit{}', 2), ('rdx.serve.warm.miss{reason=absent}', 3), ('rdx.serve.warm.miss{reason=layout-changed}', 1))),
        'reboot-warm': Row(now=1581.83672, events=417, warm=True, mode='full', outcome=None, plane=(4, 4, 1, 0, 0, 0, 5), pool=(3, 4, 0, 5, (('absent', 3), ('layout-changed', 1))), series=(('rdx.cache.hit{}', 1), ('rdx.cache.miss{}', 4), ('rdx.link.cache_miss{}', 5), ('rdx.serve.warm.admit{}', 5), ('rdx.serve.warm.hit{}', 3), ('rdx.serve.warm.miss{reason=absent}', 3), ('rdx.serve.warm.miss{reason=layout-changed}', 1))),
        'geom-wide': Row(now=1613.00856, events=477, warm=False, mode='full', outcome=None, plane=(4, 4, 2, 0, 0, 0, 6), pool=(3, 5, 0, 6, (('absent', 3), ('layout-changed', 2))), series=(('rdx.cache.hit{}', 2), ('rdx.cache.miss{}', 4), ('rdx.link.cache_miss{}', 6), ('rdx.serve.warm.admit{}', 6), ('rdx.serve.warm.hit{}', 3), ('rdx.serve.warm.miss{reason=absent}', 3), ('rdx.serve.warm.miss{reason=layout-changed}', 2))),
        'geom-narrow': Row(now=1632.31504, events=538, warm=None, mode=None, outcome='VerifierError', plane=(4, 4, 2, 0, 0, 0, 6), pool=(3, 6, 0, 6, (('absent', 4), ('layout-changed', 2))), series=(('rdx.cache.hit{}', 2), ('rdx.cache.miss{}', 5), ('rdx.link.cache_miss{}', 6), ('rdx.serve.warm.admit{}', 6), ('rdx.serve.warm.hit{}', 3), ('rdx.serve.warm.miss{reason=absent}', 4), ('rdx.serve.warm.miss{reason=layout-changed}', 2))),
        'geom-back': Row(now=1662.53696, events=628, warm=True, mode='full', outcome=None, plane=(4, 4, 2, 0, 0, 0, 6), pool=(4, 6, 0, 6, (('absent', 4), ('layout-changed', 2))), series=(('rdx.cache.hit{}', 2), ('rdx.cache.miss{}', 5), ('rdx.link.cache_miss{}', 6), ('rdx.serve.warm.admit{}', 6), ('rdx.serve.warm.hit{}', 4), ('rdx.serve.warm.miss{reason=absent}', 4), ('rdx.serve.warm.miss{reason=layout-changed}', 2))),
        'overflow': Row(now=4862.53696, events=1267, warm=None, mode=None, outcome=None, plane=(132, 132, 2, 4, 0, 0, 6), pool=(4, 6, 0, 6, (('absent', 4), ('layout-changed', 2))), series=(('rdx.cache.evict{}', 4), ('rdx.cache.hit{}', 2), ('rdx.cache.miss{}', 133), ('rdx.link.cache_miss{}', 6), ('rdx.serve.warm.admit{}', 6), ('rdx.serve.warm.hit{}', 4), ('rdx.serve.warm.miss{reason=absent}', 4), ('rdx.serve.warm.miss{reason=layout-changed}', 2))),
        'revisit': Row(now=4873.50872, events=1290, warm=True, mode='delta', outcome=None, plane=(132, 132, 2, 4, 0, 0, 6), pool=(5, 6, 0, 6, (('absent', 4), ('layout-changed', 2))), series=(('rdx.cache.evict{}', 4), ('rdx.cache.hit{}', 2), ('rdx.cache.miss{}', 133), ('rdx.link.cache_miss{}', 6), ('rdx.serve.warm.admit{}', 6), ('rdx.serve.warm.hit{}', 5), ('rdx.serve.warm.miss{reason=absent}', 4), ('rdx.serve.warm.miss{reason=layout-changed}', 2))),
        'broadcast': Row(now=5397.47496, events=1489, warm=None, mode=None, outcome=('full', 'full', 'full'), plane=(133, 133, 5, 5, 2, 3, 9), pool=(5, 9, 0, 7, (('absent', 7), ('layout-changed', 2))), series=(('rdx.cache.evict{}', 5), ('rdx.cache.hit{}', 5), ('rdx.cache.miss{}', 134), ('rdx.link.cache_hit{}', 3), ('rdx.link.cache_miss{}', 9), ('rdx.prepare.coalesced{}', 2), ('rdx.serve.warm.admit{}', 7), ('rdx.serve.warm.hit{}', 5), ('rdx.serve.warm.miss{reason=absent}', 7), ('rdx.serve.warm.miss{reason=layout-changed}', 2))),
        'link-compiled': Row(now=5397.67496, events=1492, warm=None, mode=None, outcome=(4012, True), plane=(133, 133, 5, 5, 2, 4, 9), pool=(5, 9, 0, 7, (('absent', 7), ('layout-changed', 2))), series=(('rdx.cache.evict{}', 5), ('rdx.cache.hit{}', 5), ('rdx.cache.miss{}', 134), ('rdx.link.cache_hit{}', 4), ('rdx.link.cache_miss{}', 9), ('rdx.prepare.coalesced{}', 2), ('rdx.serve.warm.admit{}', 7), ('rdx.serve.warm.hit{}', 5), ('rdx.serve.warm.miss{reason=absent}', 7), ('rdx.serve.warm.miss{reason=layout-changed}', 2))),
        'link-fresh': Row(now=5435.22496, events=1496, warm=None, mode=None, outcome=(1512, True), plane=(133, 134, 5, 5, 2, 4, 10), pool=(5, 9, 0, 7, (('absent', 7), ('layout-changed', 2))), series=(('rdx.cache.evict{}', 5), ('rdx.cache.hit{}', 5), ('rdx.cache.miss{}', 134), ('rdx.link.cache_hit{}', 4), ('rdx.link.cache_miss{}', 10), ('rdx.prepare.coalesced{}', 2), ('rdx.serve.warm.admit{}', 7), ('rdx.serve.warm.hit{}', 5), ('rdx.serve.warm.miss{reason=absent}', 7), ('rdx.serve.warm.miss{reason=layout-changed}', 2))),
        'inv-cold': Row(now=5704.40768, events=1524, warm=False, mode='full', outcome=None, plane=(134, 135, 5, 6, 2, 4, 11), pool=(5, 10, 0, 8, (('absent', 8), ('layout-changed', 2))), series=(('rdx.cache.evict{}', 6), ('rdx.cache.hit{}', 5), ('rdx.cache.miss{}', 135), ('rdx.link.cache_hit{}', 4), ('rdx.link.cache_miss{}', 11), ('rdx.prepare.coalesced{}', 2), ('rdx.serve.warm.admit{}', 8), ('rdx.serve.warm.hit{}', 5), ('rdx.serve.warm.miss{reason=absent}', 8), ('rdx.serve.warm.miss{reason=layout-changed}', 2))),
        # f62df80: 'invalidate': Row(now=5704.40768, events=1524, warm=None, mode=None, outcome=1, plane=(134, 135, 5, 6, 2, 4, 11), pool=(5, 10, 1, 7, (('absent', 8), ('layout-changed', 2))), series=(('rdx.cache.evict{}', 6), ('rdx.cache.hit{}', 5), ('rdx.cache.miss{}', 135), ('rdx.link.cache_hit{}', 4), ('rdx.link.cache_miss{}', 11), ('rdx.prepare.coalesced{}', 2), ('rdx.serve.warm.admit{}', 8), ('rdx.serve.warm.evict{}', 1), ('rdx.serve.warm.hit{}', 5), ('rdx.serve.warm.miss{reason=absent}', 8), ('rdx.serve.warm.miss{reason=layout-changed}', 2))),
        'invalidate': Row(now=5704.40768, events=1524, warm=None, mode=None, outcome=1, plane=(134, 135, 5, 7, 2, 4, 11), pool=(5, 10, 1, 7, (('absent', 8), ('layout-changed', 2))), series=(('rdx.cache.evict{}', 7), ('rdx.cache.hit{}', 5), ('rdx.cache.miss{}', 135), ('rdx.link.cache_hit{}', 4), ('rdx.link.cache_miss{}', 11), ('rdx.prepare.coalesced{}', 2), ('rdx.serve.warm.admit{}', 8), ('rdx.serve.warm.evict{}', 1), ('rdx.serve.warm.hit{}', 5), ('rdx.serve.warm.miss{reason=absent}', 8), ('rdx.serve.warm.miss{reason=layout-changed}', 2))),
        # f62df80: 'inv-redeploy': Row(now=5715.7404, events=1548, warm=False, mode='full', outcome=None, plane=(134, 135, 6, 6, 2, 5, 11), pool=(5, 11, 1, 8, (('absent', 9), ('layout-changed', 2))), series=(('rdx.cache.evict{}', 6), ('rdx.cache.hit{}', 6), ('rdx.cache.miss{}', 135), ('rdx.link.cache_hit{}', 5), ('rdx.link.cache_miss{}', 11), ('rdx.prepare.coalesced{}', 2), ('rdx.serve.warm.admit{}', 9), ('rdx.serve.warm.evict{}', 1), ('rdx.serve.warm.hit{}', 5), ('rdx.serve.warm.miss{reason=absent}', 9), ('rdx.serve.warm.miss{reason=layout-changed}', 2))),
        'inv-redeploy': Row(now=5973.5904, events=1552, warm=False, mode='full', outcome=None, plane=(135, 136, 5, 7, 2, 4, 12), pool=(5, 11, 1, 8, (('absent', 9), ('layout-changed', 2))), series=(('rdx.cache.evict{}', 7), ('rdx.cache.hit{}', 5), ('rdx.cache.miss{}', 136), ('rdx.link.cache_hit{}', 4), ('rdx.link.cache_miss{}', 12), ('rdx.prepare.coalesced{}', 2), ('rdx.serve.warm.admit{}', 9), ('rdx.serve.warm.evict{}', 1), ('rdx.serve.warm.hit{}', 5), ('rdx.serve.warm.miss{reason=absent}', 9), ('rdx.serve.warm.miss{reason=layout-changed}', 2))),
        # f62df80: 'inv-again': Row(now=5726.71216, events=1570, warm=True, mode='delta', outcome=None, plane=(134, 135, 6, 6, 2, 5, 11), pool=(6, 11, 1, 8, (('absent', 9), ('layout-changed', 2))), series=(('rdx.cache.evict{}', 6), ('rdx.cache.hit{}', 6), ('rdx.cache.miss{}', 135), ('rdx.link.cache_hit{}', 5), ('rdx.link.cache_miss{}', 11), ('rdx.prepare.coalesced{}', 2), ('rdx.serve.warm.admit{}', 9), ('rdx.serve.warm.evict{}', 1), ('rdx.serve.warm.hit{}', 6), ('rdx.serve.warm.miss{reason=absent}', 9), ('rdx.serve.warm.miss{reason=layout-changed}', 2))),
        'inv-again': Row(now=5984.56216, events=1574, warm=True, mode='delta', outcome=None, plane=(135, 136, 5, 7, 2, 4, 12), pool=(6, 11, 1, 8, (('absent', 9), ('layout-changed', 2))), series=(('rdx.cache.evict{}', 7), ('rdx.cache.hit{}', 5), ('rdx.cache.miss{}', 136), ('rdx.link.cache_hit{}', 4), ('rdx.link.cache_miss{}', 12), ('rdx.prepare.coalesced{}', 2), ('rdx.serve.warm.admit{}', 9), ('rdx.serve.warm.evict{}', 1), ('rdx.serve.warm.hit{}', 6), ('rdx.serve.warm.miss{reason=absent}', 9), ('rdx.serve.warm.miss{reason=layout-changed}', 2))),
    },
}
# fmt: on


if __name__ == "__main__":
    print("ORACLE = {")
    for arm in ARMS:
        print(f"    {arm!r}: {{")
        for step_name, row in run_arm(arm).items():
            print(f"        {step_name!r}: {row!r},")
        print("    },")
    print("}")
