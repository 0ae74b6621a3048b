"""Wasm -> native image compilation with host-call relocations.

Reuses the slot-container of :mod:`repro.ebpf.jit` (header, 10-byte
checksummed slots, trailing CRC) with wasm-specific architecture ids,
so RDX's deployment path, torn-write detection, and linking machinery
apply to Wasm filters unchanged -- the paper's claim that CodeFlow
generalizes across extension frameworks.
"""

from __future__ import annotations

import struct
import zlib
from typing import Callable, Optional

from repro.errors import JitError, SandboxCrash
from repro.ebpf.jit import (
    PLACEHOLDER,
    JitBinary,
    RelocKind,
    emit_binary,
    first_bad_slot,
)
from repro.wasm.hostcalls import host_call_by_id
from repro.wasm.module import WInstr, WasmModule, WOp

MAGIC = b"RJ"
VERSION = 1
_HEADER = struct.Struct("<2sBBI")
_SLOT_BYTES = 10
#: One slot as (prefix, payload); its checksum byte is checked apart.
_SLOT = struct.Struct("<B8sx")

_WASM_ARCH_IDS = {"x86_64": 3, "arm64": 4}
_WASM_ARCH_NAMES = {v: k for k, v in _WASM_ARCH_IDS.items()}
_WASM_PREFIX = {"x86_64": (0x9C, 0x9D), "arm64": (0xAC, 0xAD)}


def wasm_compile(module: WasmModule, arch: str = "x86_64") -> JitBinary:
    """Compile a validated module for ``arch``; returns a JitBinary.

    One slot per instruction, written from the module's flat image by
    the slot writer every extension family shares; a placeholder
    operand slot follows each host call.
    """
    if arch not in _WASM_PREFIX:
        raise JitError(f"unsupported wasm target {arch!r}")
    image = module.image()
    opcodes = image[0::8]
    operands = []
    index = opcodes.find(WOp.CALL_HOST)
    while index >= 0:
        call_id = module.insns[index].imm
        call = host_call_by_id(call_id)
        if call is None:
            raise JitError(f"unknown host call id {call_id}")
        operands.append((index + 1, False, RelocKind.HELPER, call.name))
        index = opcodes.find(WOp.CALL_HOST, index + 1)
    return emit_binary(
        image, arch, _WASM_ARCH_IDS[arch], _WASM_PREFIX[arch], operands
    )


def decode_wasm_image(
    code: bytes,
    host_call_at: Callable[[int], Optional[int]],
    expect_arch: str = "x86_64",
) -> list[WInstr]:
    """Decode a linked wasm image back to instructions.

    ``host_call_at`` reverse-maps a resolved local address to a host
    call id.  Raises :class:`SandboxCrash` on corruption, placeholder
    operands, or unknown addresses.
    """
    if len(code) < _HEADER.size + 4:
        raise SandboxCrash("wasm image too short")
    magic, version, arch_id, slot_count = _HEADER.unpack_from(code)
    if magic != MAGIC or version != VERSION:
        raise SandboxCrash("bad wasm image magic/version")
    arch = _WASM_ARCH_NAMES.get(arch_id)
    if arch is None:
        raise SandboxCrash(f"not a wasm image (arch id {arch_id})")
    if arch != expect_arch:
        raise SandboxCrash(f"wasm architecture mismatch: image={arch}")
    expected_len = _HEADER.size + slot_count * _SLOT_BYTES + 4
    if len(code) != expected_len:
        raise SandboxCrash("wasm image length mismatch")
    if zlib.crc32(code[:-4]) & 0xFFFFFFFF != int.from_bytes(code[-4:], "little"):
        raise SandboxCrash("wasm image CRC mismatch (torn or corrupt write)")

    body = code[_HEADER.size : -4]
    bad_slot = first_bad_slot(body)
    if bad_slot >= 0:
        raise SandboxCrash(f"wasm slot {bad_slot} checksum mismatch")

    insn_prefix, operand_prefix = _WASM_PREFIX[arch]
    instrs: list[WInstr] = []
    index = 0
    raw_slots = list(_SLOT.iter_unpack(body))
    while index < len(raw_slots):
        prefix, payload = raw_slots[index]
        if prefix != insn_prefix:
            raise SandboxCrash(f"unexpected wasm operand slot at {index}")
        instr = WInstr.decode(payload)
        if instr.op is WOp.CALL_HOST:
            index += 1
            if index >= len(raw_slots):
                raise SandboxCrash("truncated wasm host-call operand")
            prefix2, operand = raw_slots[index]
            if prefix2 != operand_prefix:
                raise SandboxCrash("expected wasm operand slot")
            address = int.from_bytes(operand, "little")
            if address == PLACEHOLDER:
                raise SandboxCrash("unresolved wasm host-call relocation")
            call_id = host_call_at(address)
            if call_id is None:
                raise SandboxCrash(f"host-call address {address:#x} unknown")
            instr = WInstr(op=instr.op, aux=instr.aux, imm=call_id)
        instrs.append(instr)
        index += 1
    return instrs
