"""Sandbox tests: GOT, hooks, metadata, memory-backed maps, runtime."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import LinkError, MemoryError_, SandboxCrash, SandboxError
from repro.ebpf import opcodes as op
from repro.ebpf.asm import Asm
from repro.ebpf.jit import jit_compile
from repro.ebpf.maps import BpfMap, MapType
from repro.ebpf.program import BpfProgram
from repro.net.topology import Host
from repro.params import configure
from repro.rdma.verbs import open_device
from repro.sandbox.got import GlobalContext, SymbolKind
from repro.sandbox.metadata import (
    MetadataArray,
    MetadataBlock,
    METADATA_SLOT_BYTES,
    SLOT_LIVE,
)
from repro.sandbox.sandbox import Sandbox
from repro.sandbox.xmaps import MemoryBackedMap
from repro.sim.core import Simulator


@pytest.fixture
def host(config):
    sim = Simulator()
    configure(sim, config)
    return Host(sim, "h", cores=4, dram_bytes=64 * 2**20)


@pytest.fixture
def sandbox(host):
    return Sandbox(host, hooks=("ingress", "egress"))


def deploy_locally(sandbox, asm, hook="ingress", name="p"):
    program = BpfProgram(asm.build(), name=name)
    binary = jit_compile(program, arch=sandbox.arch)
    linked = binary.link(
        lambda r: sandbox.got.address_of(r.symbol)
    )
    sandbox.install_local(program, linked, hook)
    return program


class TestGot:
    def test_define_and_lookup(self, host):
        got = GlobalContext(host.memory, host.allocator.alloc(4096))
        symbol = got.define("foo", SymbolKind.HELPER, 0x1234, token=7)
        assert got.address_of("foo") == 0x1234
        assert got.symbol_at(0x1234) is symbol
        assert got.lookup("missing") is None

    def test_persists_to_memory(self, host):
        base = host.allocator.alloc(4096)
        got = GlobalContext(host.memory, base)
        got.define("a", SymbolKind.HELPER, 0xAA)
        got.define("b", SymbolKind.MAP, 0xBB)
        assert got.read_remote_qword(0) == 0xAA
        assert got.read_remote_qword(1) == 0xBB

    def test_redefine_keeps_index(self, host):
        got = GlobalContext(host.memory, host.allocator.alloc(4096))
        got.define("a", SymbolKind.HELPER, 0xAA)
        got.define("a", SymbolKind.HELPER, 0xCC)
        assert got.layout() == {"a": 0}
        assert got.read_remote_qword(0) == 0xCC

    def test_undefine(self, host):
        got = GlobalContext(host.memory, host.allocator.alloc(4096))
        got.define("a", SymbolKind.HELPER, 0xAA)
        got.undefine("a")
        assert got.lookup("a") is None
        assert got.read_remote_qword(0) == 0
        with pytest.raises(LinkError):
            got.undefine("a")

    def test_capacity(self, host):
        got = GlobalContext(host.memory, host.allocator.alloc(4096), capacity=2)
        got.define("a", SymbolKind.HELPER, 1)
        got.define("b", SymbolKind.HELPER, 2)
        with pytest.raises(LinkError, match="full"):
            got.define("c", SymbolKind.HELPER, 3)

    def test_address_of_unknown(self, host):
        got = GlobalContext(host.memory, host.allocator.alloc(4096))
        with pytest.raises(LinkError):
            got.address_of("ghost")


class TestMetadata:
    def test_roundtrip(self, host):
        block = MetadataBlock(
            state=SLOT_LIVE,
            prog_id=7,
            insn_cnt=100,
            ref_count=2,
            code_addr=0xABCD,
            code_len=1000,
            hook_slot=3,
            xstate_addr=0x1111,
            version=4,
            name="my_prog",
            tag=b"0123456789abcdef",
        )
        decoded = MetadataBlock.decode(block.encode())
        assert decoded == block

    def test_slot_size(self):
        assert len(MetadataBlock().encode()) == METADATA_SLOT_BYTES

    def test_field_count_matches_paper(self):
        """§3.1: `struct bpf_program` has 'no less than 30 variables'."""
        from repro.ebpf.program import BpfProgMetadata

        assert BpfProgMetadata.field_count() >= 30

    def test_array_init_and_find(self, host):
        array = MetadataArray(host.memory, host.allocator.alloc(64 * 256), slots=64)
        array.init_empty()
        assert array.find_free() == 0
        block = MetadataBlock(state=SLOT_LIVE, prog_id=9)
        array.write(0, block)
        assert array.find_free() == 1
        assert array.find_by_prog_id(9) == 0
        assert array.find_by_prog_id(10) is None

    @given(
        st.integers(0, 3),
        st.integers(0, 2**31 - 1),
        st.text(max_size=20),
    )
    @settings(max_examples=40)
    def test_roundtrip_property(self, state, prog_id, name):
        block = MetadataBlock(state=state, prog_id=prog_id, name=name)
        decoded = MetadataBlock.decode(block.encode())
        assert decoded.prog_id == prog_id
        assert decoded.state == state


class TestMemoryBackedMap:
    @pytest.fixture
    def mmap(self, host):
        size = MemoryBackedMap.geometry_size(4, 8, 16)
        addr = host.allocator.alloc(size)
        return MemoryBackedMap(host.cache, addr, MapType.HASH, 4, 8, 16)

    def key(self, i):
        return i.to_bytes(4, "little")

    def val(self, i):
        return i.to_bytes(8, "little")

    def test_update_lookup_delete(self, mmap):
        assert mmap.update(self.key(1), self.val(10)) == 0
        assert mmap.lookup(self.key(1)) == self.val(10)
        assert mmap.delete(self.key(1)) == 0
        assert mmap.lookup(self.key(1)) is None

    def test_truth_lives_in_dram(self, mmap, host):
        mmap.update(self.key(2), self.val(22))
        raw = host.memory.read(mmap.base_addr, mmap.image_bytes())
        assert self.val(22) in raw

    def test_serialize_matches_dram(self, mmap, host):
        mmap.update(self.key(3), self.val(33))
        assert mmap.serialize() == host.memory.read(
            mmap.base_addr, mmap.image_bytes()
        )

    @given(
        st.lists(
            st.tuples(st.integers(0, 30), st.integers(0, (1 << 64) - 1)),
            max_size=25,
        )
    )
    @settings(max_examples=40)
    def test_differential_vs_dict_map(self, operations):
        """MemoryBackedMap behaves exactly like the dict-backed BpfMap."""
        host = Host(Simulator(), "d", dram_bytes=1 << 20)
        size = MemoryBackedMap.geometry_size(4, 8, 16)
        mem_map = MemoryBackedMap(
            host.cache, host.allocator.alloc(size), MapType.HASH, 4, 8, 16
        )
        ref_map = BpfMap(MapType.HASH, 4, 8, 16)
        for k, v in operations:
            key, value = self.key(k), self.val(v)
            assert mem_map.update(key, value) == ref_map.update(key, value)
        for k, _ in operations:
            assert mem_map.lookup(self.key(k)) == ref_map.lookup(self.key(k))
        assert len(mem_map) == len(ref_map)

    def test_array_backed(self, host):
        size = MemoryBackedMap.geometry_size(4, 8, 4)
        amap = MemoryBackedMap(
            host.cache, host.allocator.alloc(size), MapType.ARRAY, 4, 8, 4
        )
        assert amap.lookup(self.key(0)) == bytes(8)
        amap.update(self.key(2), self.val(5))
        assert amap.lookup(self.key(2)) == self.val(5)
        assert amap.delete(self.key(2)) == -22


@pytest.mark.arm(obs=True)  # crashes are counted in the segment
class TestSandboxLifecycle:
    def test_ctx_register_manifest(self, sandbox):
        ctx = open_device(sandbox.host)
        manifest = sandbox.ctx_register(ctx.alloc_pd())
        assert manifest.rkey
        assert "bpf_map_lookup_elem" in manifest.helper_addresses
        assert "proxy_get_header" in manifest.helper_addresses
        assert manifest.hook_layout == {"ingress": 0, "egress": 1}
        assert manifest.meta_xstate_addr == sandbox.scratchpad_base

    def test_run_empty_hook(self, sandbox):
        result, cost = sandbox.run_hook("ingress", b"\x00" * 64)
        assert result is None
        assert cost < 1.0

    def test_install_and_run(self, sandbox):
        deploy_locally(sandbox, Asm().mov_imm(op.R0, 5).exit_())
        result, cost = sandbox.run_hook("ingress", b"\x00" * 256)
        assert result.r0 == 5
        assert cost > 0

    def test_replace_frees_old_image(self, sandbox):
        deploy_locally(sandbox, Asm().mov_imm(op.R0, 1).exit_(), name="v1")
        live_before = sandbox.code_allocator.bytes_live
        deploy_locally(sandbox, Asm().mov_imm(op.R0, 2).exit_(), name="v2")
        assert sandbox.code_allocator.bytes_live == live_before
        result, _ = sandbox.run_hook("ingress", b"\x00" * 256)
        assert result.r0 == 2

    def test_teardown_detaches_at_zero_refs(self, sandbox):
        program = deploy_locally(sandbox, Asm().mov_imm(op.R0, 1).exit_())
        assert sandbox.ctx_teardown(program.prog_id) is True
        result, _ = sandbox.run_hook("ingress", b"\x00" * 256)
        assert result is None

    def test_teardown_refcounting(self, sandbox):
        program = BpfProgram(Asm().mov_imm(op.R0, 1).exit_().build())
        binary = jit_compile(program, arch=sandbox.arch)
        linked = binary.link(lambda r: sandbox.got.address_of(r.symbol))
        sandbox.install_local(program, linked, "ingress", ref_count=2)
        assert sandbox.ctx_teardown(program.prog_id) is False  # 2 -> 1
        assert sandbox.ctx_teardown(program.prog_id) is True  # 1 -> 0

    def test_teardown_unknown_prog(self, sandbox):
        with pytest.raises(SandboxError):
            sandbox.ctx_teardown(424242)

    def test_unknown_hook(self, sandbox):
        with pytest.raises(SandboxError):
            sandbox.run_hook("nope", b"")

    def test_cross_sandbox_image_crashes(self, host):
        """An image linked for sandbox A crashes sandbox B (§3.3)."""
        a = Sandbox(host, name="a", hooks=("ingress",),
                    code_bytes=1 << 20, scratchpad_bytes=1 << 20)
        b = Sandbox(host, name="b", hooks=("ingress",),
                    code_bytes=1 << 20, scratchpad_bytes=1 << 20)
        program = BpfProgram(Asm().call(5).exit_().build(), name="helpers")
        binary = jit_compile(program, arch=a.arch)
        linked_for_a = binary.link(lambda r: a.got.address_of(r.symbol))
        # Install A-linked code into B.
        code_addr = b.code_allocator.alloc(len(linked_for_a.code), align=64)
        host.cache.cpu_write(code_addr, linked_for_a.code)
        b.hook_table.write_pointer("ingress", code_addr)
        with pytest.raises(SandboxCrash):
            b.run_hook("ingress", b"\x00" * 64)
        assert b.crashed

    def test_torn_image_crashes(self, sandbox, host):
        deploy_locally(sandbox, Asm().mov_imm(op.R0, 1).exit_())
        pointer = sandbox.hook_table.pointer_in_dram("ingress")
        # Corrupt a byte mid-image, as a torn RDMA write would.
        raw = host.memory.read(pointer + 11, 1)
        host.cache.cpu_write(pointer + 11, bytes([raw[0] ^ 0xFF]))
        with pytest.raises(SandboxCrash):
            sandbox.run_hook("ingress", b"\x00" * 64)

    def test_executed_image_torn_later_still_crashes(self, sandbox, host):
        """The decode cache may never stand in for the image's CRC."""
        deploy_locally(sandbox, Asm().mov_imm(op.R0, 1).exit_())
        result, _ = sandbox.run_hook("ingress", b"\x00" * 64)
        assert result.r0 == 1  # decoded once: the address is cached now
        pointer = sandbox.hook_table.pointer_in_dram("ingress")
        raw = host.memory.read(pointer + 11, 1)
        host.cache.cpu_write(pointer + 11, bytes([raw[0] ^ 0xFF]))
        with pytest.raises(SandboxCrash, match="CRC mismatch"):
            sandbox.run_hook("ingress", b"\x00" * 64)
        host.cache.cpu_write(pointer + 11, raw)
        result, _ = sandbox.run_hook("ingress", b"\x00" * 64)
        assert result.r0 == 1

    def _assert_crashed(self, sandbox, crash, cause, reason):
        """The sandbox went down, counted it, and said why."""
        assert isinstance(crash.value.__cause__, cause)
        assert reason in str(crash.value)
        assert sandbox.crashed
        assert sandbox.crash_reason == str(crash.value)
        assert sandbox.telemetry.snapshot_local().values["exec.crashes"] == 1
        assert sandbox.events_executed == 0

    def test_run_time_fault_crashes_the_sandbox(self, sandbox):
        """A whole, well-linked image that faults while it runs (the
        verifier is not on the local install path) is a crash too."""
        deploy_locally(
            sandbox, Asm().mov_imm(op.R0, 0).ldx_w(op.R1, op.R0, 0).exit_()
        )
        with pytest.raises(SandboxCrash) as crash:
            sandbox.run_hook("ingress", b"\x00" * 64)
        self._assert_crashed(sandbox, crash, SandboxError, "bad memory access")

    def test_wild_hook_pointer_crashes_the_sandbox(self, sandbox):
        sandbox.hook_table.write_pointer("ingress", 0xFFFF_FFFF_0000)
        with pytest.raises(SandboxCrash) as crash:
            sandbox.run_hook("ingress", b"\x00" * 64)
        self._assert_crashed(sandbox, crash, MemoryError_, "outside")

    def test_wasm_run_time_fault_crashes_the_sandbox(self, sandbox):
        """Same accounting on the Wasm path: a filter that pops an
        empty stack."""
        from repro.wasm.compiler import wasm_compile
        from repro.wasm.module import WasmModule, WInstr, WOp

        module = WasmModule(insns=[WInstr(WOp.DROP), WInstr(WOp.RETURN)], name="w")
        binary = wasm_compile(module, arch=sandbox.arch)
        sandbox.install_local(module, binary, "ingress")
        with pytest.raises(SandboxCrash) as crash:
            sandbox.run_wasm_hook("ingress", None)
        self._assert_crashed(sandbox, crash, SandboxError, "stack underflow")

    def test_wasm_wild_hook_pointer_crashes_the_sandbox(self, sandbox):
        sandbox.hook_table.write_pointer("egress", 0xFFFF_FFFF_0000)
        with pytest.raises(SandboxCrash) as crash:
            sandbox.run_wasm_hook("egress", None)
        self._assert_crashed(sandbox, crash, MemoryError_, "outside")

    def test_decode_cache_drops_freed_extents(self, sandbox):
        for version in range(100):
            deploy_locally(
                sandbox, Asm().mov_imm(op.R0, version).exit_(), name=f"v{version}"
            )
            result, _ = sandbox.run_hook("ingress", b"\x00" * 64)
            assert result.r0 == version
            assert len(sandbox._decode_cache) == 1

    def test_decode_cache_is_bounded_when_extents_stay(self):
        """100 deploys that each keep their extent: O(1) decoded images."""
        from repro.ebpf.stress import make_stress_program
        from repro.exp.harness import make_testbed

        bed = make_testbed(n_hosts=1, cores_per_host=4, with_agents=False)
        sandbox = bed.sandbox
        for version in range(100):
            program = make_stress_program(64, seed=version, name="churn")
            bed.sim.run_process(
                bed.control.inject(
                    bed.codeflow, program, "ingress", retain_history=True
                )
            )
            result, _ = sandbox.run_hook("ingress", bytes(256))
            assert result is not None
        addresses = {
            bed.codeflow.deployed["churn"].code_addr,
            *bed.codeflow.deployed["churn"].history,
        }
        assert len(addresses) == 100
        assert 0 < len(sandbox._decode_cache) <= 2 * len(sandbox._hooks)

    def test_lock_mutual_exclusion(self, sandbox):
        assert sandbox.cpu_try_lock(owner=1)
        assert not sandbox.cpu_try_lock(owner=2)
        sandbox.cpu_unlock(owner=1)
        assert sandbox.cpu_try_lock(owner=2)
        with pytest.raises(SandboxError):
            sandbox.cpu_unlock(owner=1)

    def test_bubble_flag(self, sandbox, host):
        assert not sandbox.bubble_active()
        from repro.mem.layout import pack_qword

        host.cache.cpu_write(sandbox.bubble_addr, pack_qword(1))
        assert sandbox.bubble_active()

    def test_create_map_registers_symbol(self, sandbox):
        bpf_map = sandbox.create_map("counters", MapType.ARRAY, 4, 8, 4)
        assert sandbox.got.address_of("counters") == bpf_map.base_addr
        assert sandbox.maps[sandbox.got.lookup("counters").token] is bpf_map

    def test_program_uses_local_map(self, sandbox):
        bpf_map = sandbox.create_map("m0", MapType.ARRAY, 4, 8, 4)
        bpf_map.update((0).to_bytes(4, "little"), (88).to_bytes(8, "little"))
        asm = (
            Asm()
            .mov_imm(op.R8, 0)
            .stx(op.BPF_W, op.R10, op.R8, -4)
            .mov_reg(op.R2, op.R10)
            .alu64_imm(op.BPF_ADD, op.R2, -4)
            .ld_map_fd(op.R1, 0)
            .call(1)
            .jmp_imm(op.BPF_JEQ, op.R0, 0, "out")
            .ldx_dw(op.R0, op.R0, 0)
            .exit_()
            .label("out")
            .mov_imm(op.R0, 0)
            .exit_()
        )
        program = BpfProgram(asm.build(), name="reader", map_names=("m0",))
        binary = jit_compile(program, arch=sandbox.arch)
        linked = binary.link(lambda r: sandbox.got.address_of(r.symbol))
        sandbox.install_local(program, linked, "ingress")
        result, _ = sandbox.run_hook("ingress", b"\x00" * 256)
        assert result.r0 == 88
