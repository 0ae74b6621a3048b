"""Tests for the workload applications: Redis-like KV, serverless pool."""

import pytest

from repro.apps.rediskv import RedisLikeServer
from repro.apps.serverless import WarmPool
from repro.agent.daemon import NodeAgent
from repro.core.api import bootstrap_sandbox
from repro.core.control_plane import RdxControlPlane
from repro.core.migration import MigrationManager
from repro.errors import WorkloadError
from repro.mesh.proxy import SidecarProxy
from repro.net.fabric import Fabric
from repro.net.topology import Host
from repro.sim.core import Simulator
from repro.wasm.filters import make_header_filter


class TestRedis:
    @pytest.fixture
    def server(self):
        sim = Simulator()
        host = Host(sim, "redis", cores=2, dram_bytes=1 << 20)
        return sim, host, RedisLikeServer(host, n_workers=2)

    def test_functional_set_get(self, server):
        _sim, _host, redis = server
        redis.set_(1, 100)
        assert redis.get(1) == 100
        assert redis.get(2) is None
        assert len(redis) == 1

    def test_keyspace_wraps(self, server):
        _sim, _host, redis = server
        redis.set_(redis.keyspace + 1, 5)
        assert redis.get(1) == 5

    def test_throughput_tracks_capacity(self, server):
        sim, host, redis = server
        result = sim.run_process(redis.run_load(10_000))
        # 2 workers on 2 cores at ~2.2us/op -> ~0.9 Mops/s.
        expected = redis.n_workers / redis.op_service_us * 1e6
        assert result.throughput_ops_s == pytest.approx(expected, rel=0.1)

    def test_contention_reduces_throughput(self, server):
        sim, host, redis = server

        def burner():
            while sim.now < 10_000:
                yield from host.cpu.run(100, priority=-1)
                yield sim.timeout(1)

        sim.spawn(burner())
        contended = sim.run_process(redis.run_load(10_000))
        fresh_sim = Simulator()
        fresh_host = Host(fresh_sim, "redis", cores=2, dram_bytes=1 << 20)
        clean = fresh_sim.run_process(
            RedisLikeServer(fresh_host, n_workers=2).run_load(10_000)
        )
        assert contended.throughput_ops_s < clean.throughput_ops_s

    def test_hit_rate(self, server):
        sim, _host, redis = server
        result = sim.run_process(redis.run_load(20_000, write_ratio=0.5))
        assert 0 <= result.hit_rate <= 1

    def test_needs_workers(self):
        sim = Simulator()
        host = Host(sim, "x", dram_bytes=1 << 20)
        with pytest.raises(WorkloadError):
            RedisLikeServer(host, n_workers=0)


class TestWarmPool:
    def _mesh_rig(self):
        sim = Simulator()
        fabric = Fabric(sim)
        src_host = Host(sim, "src", cores=4, dram_bytes=32 * 2**20)
        dst_host = Host(sim, "dst", cores=4, dram_bytes=32 * 2**20)
        control_host = Host(sim, "ctl", cores=8, dram_bytes=32 * 2**20)
        for host in (src_host, dst_host, control_host):
            fabric.attach(host)
        src = SidecarProxy(src_host, name="src.sc")
        dst = SidecarProxy(dst_host, name="dst.sc")
        return sim, src, dst, control_host

    def test_agent_scale_out_dominated_by_filter_reload(self):
        sim, src, dst, _ctl = self._mesh_rig()
        agent = NodeAgent(dst.host, dst.sandbox)
        pool = WarmPool(sim, [dst])
        replica = pool.take_replica()
        filters = [make_header_filter(version=1, padding=2_000)]
        report = sim.run_process(
            pool.scale_out_agent(replica, agent, filters, ["filter0"])
        )
        assert report.mode == "agent"
        assert report.filter_share > 0.5  # the §4 bottleneck
        assert pool.available == 0

    def test_rdx_scale_out_filter_cost_negligible(self):
        sim, src, dst, control_host = self._mesh_rig()
        bootstrap_sandbox(src.sandbox)
        bootstrap_sandbox(dst.sandbox)
        control = RdxControlPlane(control_host)
        src_flow = sim.run_process(control.create_codeflow(src.sandbox))
        dst_flow = sim.run_process(control.create_codeflow(dst.sandbox))
        module = make_header_filter(version=1, padding=2_000)
        sim.run_process(control.inject(src_flow, module, "filter0"))

        pool = WarmPool(sim, [dst])
        replica = pool.take_replica()
        migration = MigrationManager(control)
        report = sim.run_process(
            pool.scale_out_rdx(src_flow, dst_flow, migration, [module.name])
        )
        assert report.mode == "rdx"
        assert report.filter_share < 0.5
        # And the filter actually works on the replica.
        from repro.wasm.runtime import RequestContext

        ctx = RequestContext()
        verdict, _ = dst.process_request(ctx)
        assert dst.versions_seen(ctx) == 1

    def test_rdx_beats_agent_scale_out(self):
        # Agent path.
        sim_a, _src, dst_a, _ = self._mesh_rig()
        agent = NodeAgent(dst_a.host, dst_a.sandbox)
        pool_a = WarmPool(sim_a, [dst_a])
        agent_report = sim_a.run_process(
            pool_a.scale_out_agent(
                pool_a.take_replica(), agent,
                [make_header_filter(version=1, padding=2_000)], ["filter0"],
            )
        )
        # RDX path.
        sim_b, src_b, dst_b, ctl_b = self._mesh_rig()
        bootstrap_sandbox(src_b.sandbox)
        bootstrap_sandbox(dst_b.sandbox)
        control = RdxControlPlane(ctl_b)
        src_flow = sim_b.run_process(control.create_codeflow(src_b.sandbox))
        dst_flow = sim_b.run_process(control.create_codeflow(dst_b.sandbox))
        module = make_header_filter(version=1, padding=2_000)
        sim_b.run_process(control.inject(src_flow, module, "filter0"))
        pool_b = WarmPool(sim_b, [dst_b])
        rdx_report = sim_b.run_process(
            pool_b.scale_out_rdx(
                src_flow, dst_flow, MigrationManager(control), [module.name]
            )
        )
        assert rdx_report.total_us < agent_report.total_us / 5

    def test_pool_exhaustion(self):
        sim, _src, dst, _ = self._mesh_rig()
        pool = WarmPool(sim, [dst])
        pool.take_replica()
        with pytest.raises(WorkloadError):
            pool.take_replica()
