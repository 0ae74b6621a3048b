"""JIT compiler: bytecode -> "native" binary + relocation records.

The emitted binary is a deterministic pseudo-machine-code format that
preserves the properties the paper depends on (§3.2-§3.3):

* **real byte blob** -- deployments move actual bytes whose corruption
  (partial RDMA writes, §3.5 issue 1) is *detected at execution time*
  via per-slot checksums and a whole-image CRC;
* **unresolved external references** -- helper calls and map accesses
  are emitted as 8-byte placeholder operands plus relocation records;
  executing an unlinked binary crashes the sandbox, so
  ``rdx_link_code`` is load-bearing, not decorative;
* **per-architecture output** -- x86_64 and arm64 images differ, so the
  control plane's cross-architecture compile cache is exercised.

Image layout::

    [magic 'RJ'][ver u8][arch u8][slot_count u32]   -- 8-byte header
    slot*N                                          -- 10 bytes each
    [crc32 u32]                                     -- whole-image CRC

Slot layout: ``[prefix u8][payload 8B][checksum u8]`` where checksum is
the byte sum of prefix+payload.  Prefix ``INSN`` slots carry one eBPF
instruction; ``OPERAND`` slots carry a 64-bit address operand (helper
address or map address) referenced by the preceding instruction.
"""

from __future__ import annotations

import enum
import struct
import zlib
from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.errors import JitError, SandboxCrash
from repro.ebpf import opcodes as op
from repro.ebpf.helpers import helper_by_id
from repro.ebpf.insn import Insn
from repro.ebpf.program import BpfProgram

MAGIC = b"RJ"
VERSION = 1
_HEADER = struct.Struct("<2sBBI")
_SLOT_BYTES = 10
#: One slot as (prefix, payload, checksum) ...
_SLOT = struct.Struct("<B8sB")
#: ... and with the payload read as instruction fields
#: (prefix, opcode, dst|src<<4, off, imm, checksum).
_SLOT_FIELDS = struct.Struct("<BBBhiB")
#: What the second half of a resolved map LDDW decodes to.
_LDDW_TAIL = Insn(opcode=0)

#: Placeholder operand emitted for every unresolved external reference.
PLACEHOLDER = 0xDEAD_BEEF_DEAD_BEEF

_ARCH_PREFIX = {
    "x86_64": (0x9A, 0x9B),  # (insn slot, operand slot)
    "arm64": (0xAA, 0xAB),
}


class RelocKind(enum.Enum):
    HELPER = "helper"
    MAP = "map"


@dataclass(frozen=True)
class Relocation:
    """One unresolved external reference in the emitted image."""

    offset: int  # byte offset of the 8-byte operand within the image
    kind: RelocKind
    symbol: str


@dataclass
class JitBinary:
    """JIT output: image + relocations + symbol table (paper §3.2)."""

    code: bytes
    arch: str
    insn_cnt: int
    relocations: list[Relocation] = field(default_factory=list)
    #: symbol -> ordered operand offsets (the paper's "symbol table").
    symbols: dict[str, list[int]] = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.code)

    @property
    def is_linked(self) -> bool:
        """True when no placeholder operands remain."""
        for reloc in self.relocations:
            operand = self.code[reloc.offset : reloc.offset + 8]
            if int.from_bytes(operand, "little") == PLACEHOLDER:
                return False
        return True

    def link(self, resolve: Callable[[Relocation], int]) -> "JitBinary":
        """Return a new image with every placeholder patched.

        ``resolve`` maps a relocation to the target-local address of
        its symbol.  Raises :class:`JitError` on unresolvable symbols.
        """
        image = bytearray(self.code)
        for reloc in self.relocations:
            address = resolve(reloc)
            if address is None:
                raise JitError(f"unresolved symbol {reloc.symbol!r}")
            image[reloc.offset : reloc.offset + 8] = address.to_bytes(8, "little")
            # Re-checksum the patched slot.
            slot_start = reloc.offset - 1
            checksum = sum(image[slot_start : slot_start + 9]) & 0xFF
            image[slot_start + 9] = checksum
        # Recompute the whole-image CRC.
        body = bytes(image[:-4])
        crc = zlib.crc32(body) & 0xFFFFFFFF
        image[-4:] = crc.to_bytes(4, "little")
        return JitBinary(
            code=bytes(image),
            arch=self.arch,
            insn_cnt=self.insn_cnt,
            relocations=list(self.relocations),
            symbols={name: list(offs) for name, offs in self.symbols.items()},
        )


#: Opcodes of ``call imm`` (the source bit does not matter to a call).
_CALL_OPCODES = frozenset(
    op.BPF_JMP | op.BPF_CALL | source for source in (op.BPF_K, op.BPF_X)
)
_PLACEHOLDER_BYTES = PLACEHOLDER.to_bytes(8, "little")


def jit_compile(program: BpfProgram, arch: str = "x86_64") -> JitBinary:
    """Compile a (verified) program for ``arch``.

    One slot per instruction, cut from the program's flat image.  An
    operand slot holding a placeholder for the linker to patch follows
    each helper call, and stands in for the second half of each map
    reference's LDDW pair.
    """
    try:
        insn_prefix, operand_prefix = _ARCH_PREFIX[arch]
    except KeyError:
        raise JitError(f"unsupported target architecture {arch!r}") from None

    insns = program.insns
    image = program.image()
    body = bytearray(_HEADER.size)
    relocations: list[Relocation] = []
    symbols: dict[str, list[int]] = {}
    operand_slot = (
        bytes([operand_prefix])
        + _PLACEHOLDER_BYTES
        + bytes([(operand_prefix + sum(_PLACEHOLDER_BYTES)) & 0xFF])
    )

    def emit_reloc(kind: RelocKind, symbol: str) -> None:
        offset = len(body) + 1
        body.extend(operand_slot)
        relocations.append(Relocation(offset=offset, kind=kind, symbol=symbol))
        symbols.setdefault(symbol, []).append(offset)

    lddw_tail = -1  # index of the second half of the last LDDW seen
    tail_replaced = False  # ... which a map operand slot stands in for
    for index, insn in enumerate(insns):
        if index == lddw_tail and tail_replaced:
            continue
        payload = image[index * 8 : index * 8 + 8]
        body.append(insn_prefix)
        body += payload
        body.append((insn_prefix + sum(payload)) & 0xFF)
        if index == lddw_tail:
            continue  # an immediate, whatever its opcode byte says
        opcode = insn.opcode
        if opcode == op.LDDW:
            if index + 1 >= len(insns):
                raise JitError("truncated LDDW pair")
            lddw_tail = index + 1
            tail_replaced = insn.src == op.PSEUDO_MAP_FD
            if tail_replaced:
                if insn.imm >= len(program.map_names):
                    raise JitError(f"map slot {insn.imm} out of range")
                emit_reloc(RelocKind.MAP, program.map_names[insn.imm])
        elif opcode in _CALL_OPCODES:
            helper = helper_by_id(insn.imm)
            if helper is None:
                raise JitError(f"call to unknown helper id {insn.imm}")
            emit_reloc(RelocKind.HELPER, helper.name)

    slot_count = (len(body) - _HEADER.size) // _SLOT_BYTES
    _HEADER.pack_into(body, 0, MAGIC, VERSION, _arch_id(arch), slot_count)
    crc = zlib.crc32(body) & 0xFFFFFFFF
    return JitBinary(
        code=bytes(body) + crc.to_bytes(4, "little"),
        arch=arch,
        insn_cnt=len(insns),
        relocations=relocations,
        symbols=symbols,
    )


def _arch_id(arch: str) -> int:
    return {"x86_64": 1, "arm64": 2}[arch]


def _arch_name(arch_id: int) -> str:
    try:
        return {1: "x86_64", 2: "arm64"}[arch_id]
    except KeyError:
        raise SandboxCrash(f"unknown architecture id {arch_id}") from None


def decode_image(
    code: bytes,
    helper_at: Callable[[int], Optional[int]],
    map_slot_at: Callable[[int], Optional[int]],
    expect_arch: str = "x86_64",
) -> list[Insn]:
    """Decode a *linked* image back to instructions for execution.

    ``helper_at``/``map_slot_at`` are the sandbox's reverse GOT: they
    translate a resolved local address back to a helper id / map slot.
    Raises :class:`SandboxCrash` on corruption, truncation, unresolved
    placeholders, wrong-architecture images, or addresses the sandbox
    does not know -- i.e. every way an injection can go wrong.
    """
    if len(code) < _HEADER.size + 4:
        raise SandboxCrash("image too short")
    magic, version, arch_id, slot_count = _HEADER.unpack_from(code)
    if magic != MAGIC or version != VERSION:
        raise SandboxCrash("bad image magic/version")
    arch = _arch_name(arch_id)
    if arch != expect_arch:
        raise SandboxCrash(f"architecture mismatch: image={arch}")
    expected_len = _HEADER.size + slot_count * _SLOT_BYTES + 4
    if len(code) != expected_len:
        raise SandboxCrash(
            f"image length {len(code)} != expected {expected_len}"
        )
    crc = int.from_bytes(code[-4:], "little")
    if zlib.crc32(code[:-4]) & 0xFFFFFFFF != crc:
        raise SandboxCrash("image CRC mismatch (torn or corrupt write)")

    insn_prefix, operand_prefix = _ARCH_PREFIX[arch]
    body = memoryview(code)[_HEADER.size : -4]
    for slot_index, (prefix, payload, checksum) in enumerate(
        _SLOT.iter_unpack(body)
    ):
        if (prefix + sum(payload)) & 0xFF != checksum:
            raise SandboxCrash(f"slot {slot_index} checksum mismatch")

    # Every field comes out of a fixed-width unpack, so it is in range
    # by construction -- except dst, a nibble that must name R0..R10.
    make = Insn._make
    insns: list[Insn] = []
    lddw_tail = False  # the slot is the second half of a literal LDDW
    slots = enumerate(_SLOT_FIELDS.iter_unpack(body))
    for index, (prefix, opcode, regs, off, imm, _checksum) in slots:
        if prefix != insn_prefix:
            if lddw_tail:
                break
            raise SandboxCrash(f"unexpected operand slot at {index}")
        dst, src = regs & 0xF, regs >> 4
        if dst > op.MAX_REG:
            raise SandboxCrash(f"bad dst register r{dst} in slot {index}")
        if lddw_tail:
            lddw_tail = False  # an immediate, whatever its opcode byte says
            insns.append(make((opcode, dst, src, off, imm)))
        elif opcode == op.LDDW and src == op.PSEUDO_MAP_FD:
            address = _operand(slots, operand_prefix)
            if address == PLACEHOLDER:
                raise SandboxCrash("unresolved map relocation")
            slot = map_slot_at(address)
            if slot is None:
                raise SandboxCrash(f"map address {address:#x} unknown")
            insns.append(make((opcode, dst, op.PSEUDO_MAP_FD, 0, slot)))
            insns.append(_LDDW_TAIL)
        elif opcode in _CALL_OPCODES:
            address = _operand(slots, operand_prefix)
            if address == PLACEHOLDER:
                raise SandboxCrash("unresolved helper relocation")
            helper_id = helper_at(address)
            if helper_id is None:
                raise SandboxCrash(f"helper address {address:#x} unknown")
            insns.append(make((opcode, dst, src, 0, helper_id)))
        else:
            lddw_tail = opcode == op.LDDW
            insns.append(make((opcode, dst, src, off, imm)))
    if lddw_tail:
        raise SandboxCrash("LDDW second half missing")
    return insns


def _operand(slots, operand_prefix: int) -> int:
    """Consume the operand slot that must come next; its 64-bit value."""
    following = next(slots, None)
    if following is None:
        raise SandboxCrash("truncated operand slot")
    _index, (prefix, low, mid, high, top, _checksum) = following
    if prefix != operand_prefix:
        raise SandboxCrash("expected operand slot")
    return low | mid << 8 | (high & 0xFFFF) << 16 | (top & 0xFFFFFFFF) << 32
