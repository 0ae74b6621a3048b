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
from typing import Callable, Optional, Sequence

from repro.errors import JitError, SandboxCrash
from repro.ebpf import opcodes as op
from repro.ebpf.helpers import helper_by_id
from repro.ebpf.program import BpfProgram

MAGIC = b"RJ"
VERSION = 1
_HEADER = struct.Struct("<2sBBI")
_SLOT_BYTES = 10
#: The slot's ``off`` and ``imm`` fields; every other byte is taken as
#: a column of the image.
_OFF_IMM = "3xhix"
#: What the second half of a resolved map LDDW decodes to.
_LDDW_TAIL = (0, 0, 0, 0, 0)

#: Placeholder operand emitted for every unresolved external reference.
PLACEHOLDER = 0xDEAD_BEEF_DEAD_BEEF

_ARCH_PREFIX = {
    "x86_64": (0x9A, 0x9B),  # (insn slot, operand slot)
    "arm64": (0xAA, 0xAB),
}


def _byte_table(entry: Callable[[int], int]) -> bytes:
    """A ``bytes.translate`` table mapping each byte ``b`` to ``entry(b)``."""
    return bytes(entry(byte) for byte in range(256))


# Per-slot questions the decoder asks a whole column at a time.
_DST = _byte_table(lambda regs: regs & 0xF)
_SRC = _byte_table(lambda regs: regs >> 4)
_BAD_DST = _byte_table(lambda regs: regs & 0xF > op.MAX_REG)
_NOT_PREFIX = {
    prefix: _byte_table(lambda byte: byte != prefix)
    for prefix, _operand_prefix in _ARCH_PREFIX.values()
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
#: Opcodes whose slot is not decoded on its own: the next slot is an
#: operand, or the second half of a 64-bit literal.
_SEQUENTIAL_OPCODE = _byte_table(
    lambda opcode: opcode == op.LDDW or opcode in _CALL_OPCODES
)
_PLACEHOLDER_BYTES = PLACEHOLDER.to_bytes(8, "little")


def jit_compile(program: BpfProgram, arch: str = "x86_64") -> JitBinary:
    """Compile a (verified) program for ``arch``.

    One slot per instruction, cut from the program's flat image.  An
    operand slot holding a placeholder for the linker to patch follows
    each helper call, and stands in for the second half of each map
    reference's LDDW pair.  Only the instructions ``_SEQUENTIAL_OPCODE``
    flags are looked at one by one, in program order, to find those.
    """
    if arch not in _ARCH_PREFIX:
        raise JitError(f"unsupported target architecture {arch!r}")
    insns = program.insns
    image = program.image()
    map_names = program.map_names
    operands: list[tuple[int, bool, RelocKind, str]] = []
    flagged = image[0::8].translate(_SEQUENTIAL_OPCODE)
    lddw_tail = -1  # index of the second half of the last LDDW seen
    index = flagged.find(1)
    while index >= 0:
        # A second half is an immediate, whatever its opcode byte says.
        if index != lddw_tail:
            opcode, _dst, src, _off, imm = insns[index]
            if opcode == op.LDDW:
                lddw_tail = index + 1
                if lddw_tail >= len(insns):
                    raise JitError("truncated LDDW pair")
                if src == op.PSEUDO_MAP_FD:
                    if imm >= len(map_names):
                        raise JitError(f"map slot {imm} out of range")
                    operands.append((lddw_tail, True, RelocKind.MAP, map_names[imm]))
            else:
                helper = helper_by_id(imm)
                if helper is None:
                    raise JitError(f"call to unknown helper id {imm}")
                operands.append((index + 1, False, RelocKind.HELPER, helper.name))
        index = flagged.find(1, index + 1)
    return emit_binary(image, arch, _arch_id(arch), _ARCH_PREFIX[arch], operands)


def emit_binary(
    payloads: bytes,
    arch: str,
    arch_id: int,
    prefixes: tuple[int, int],
    operands: Sequence[tuple[int, bool, RelocKind, str]],
) -> JitBinary:
    """Write the image of ``payloads``, eight bytes an instruction.

    The one writer of the slot format, for every extension family, as
    :func:`first_bad_slot` is its one checker -- and that function run
    backwards.  Every instruction slot is written at once, a column at
    a time: the prefix column, the eight payload columns cut from
    ``payloads`` by stride, and the checksum column.  For the
    checksums ``payloads`` is read as one little-endian integer of
    64-bit lanes; shifting it a byte at a time and masking each lane's
    low byte lines the eight summed bytes up, and adding those columns
    to the prefix adds every lane at once -- a lane's sum is at most
    9 * 255 < 2**12, so none carries into the next.  The low byte of
    each lane's sum is its slot's checksum.

    ``operands`` names, in slot order, where a placeholder operand slot
    goes: ``(slot, replaces, kind, symbol)`` puts one before
    instruction slot ``slot``, or with ``replaces`` in its place, for
    the linker to patch with the address of ``symbol``.
    """
    insn_prefix, operand_prefix = prefixes
    count = len(payloads) // 8
    slots = bytearray(count * _SLOT_BYTES)
    slots[0::_SLOT_BYTES] = bytes([insn_prefix]) * count
    for column in range(8):
        slots[column + 1 :: _SLOT_BYTES] = payloads[column::8]
    lanes = int.from_bytes(payloads, "little")
    low_byte = int.from_bytes((b"\xff" + bytes(7)) * count, "little")
    sums = int.from_bytes((bytes([insn_prefix]) + bytes(7)) * count, "little")
    for shift in range(0, 64, 8):
        sums += (lanes >> shift) & low_byte
    slots[9::_SLOT_BYTES] = (sums & low_byte).to_bytes(count * 8, "little")[0::8]

    operand_slot = bytes([operand_prefix]) + _PLACEHOLDER_BYTES
    operand_slot += bytes([sum(operand_slot) & 0xFF])
    pieces = []  # the slot area, cut where an operand slot is inserted
    cut = inserted = 0
    relocations = []
    symbols: dict[str, list[int]] = {}
    for slot, replaces, kind, symbol in operands:
        start = slot * _SLOT_BYTES
        offset = _HEADER.size + start + inserted * _SLOT_BYTES + 1
        if replaces:
            slots[start : start + _SLOT_BYTES] = operand_slot
        else:
            pieces += (slots[cut:start], operand_slot)
            cut = start
            inserted += 1
        relocations.append(Relocation(offset=offset, kind=kind, symbol=symbol))
        symbols.setdefault(symbol, []).append(offset)
    pieces.append(slots[cut:])

    body = _HEADER.pack(MAGIC, VERSION, arch_id, count + inserted) + b"".join(pieces)
    crc = zlib.crc32(body) & 0xFFFFFFFF
    return JitBinary(
        code=body + crc.to_bytes(4, "little"),
        arch=arch,
        insn_cnt=count,
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


def first_bad_slot(body: bytes) -> int:
    """Index of the first slot of ``body`` whose checksum is wrong, or -1.

    Every slot is checked at once.  Read little-endian, the slot area
    is one integer in which slot *i* is the 80-bit lane starting at bit
    ``80 * i``.  Shifting the whole integer right by one byte at a time
    and masking each lane's low byte lines the nine summed bytes up,
    column by column; adding the nine columns adds every lane at once,
    and since a lane's sum is at most 9 * 255 < 2**12 it never carries
    into the next lane.  What must hold is that each sum's low byte
    equals the lane's tenth byte.
    """
    lanes = int.from_bytes(body, "little")
    low_byte = int.from_bytes(
        (b"\xff" + bytes(_SLOT_BYTES - 1)) * (len(body) // _SLOT_BYTES), "little"
    )
    sums = lanes & low_byte
    for shift in range(8, 72, 8):
        sums += (lanes >> shift) & low_byte
    wrong = (sums ^ (lanes >> 72)) & low_byte
    if not wrong:
        return -1
    lowest_wrong_bit = (wrong & -wrong).bit_length() - 1
    return lowest_wrong_bit // (8 * _SLOT_BYTES)


def decode_image(
    code: bytes,
    helper_at: Callable[[int], Optional[int]],
    map_slot_at: Callable[[int], Optional[int]],
    expect_arch: str = "x86_64",
) -> list[tuple[int, int, int, int, int]]:
    """Decode a *linked* image back to instructions for execution.

    ``helper_at``/``map_slot_at`` are the sandbox's reverse GOT: they
    translate a resolved local address back to a helper id / map slot.
    Raises :class:`SandboxCrash` on corruption, truncation, unresolved
    placeholders, wrong-architecture images, or addresses the sandbox
    does not know -- i.e. every way an injection can go wrong.

    The instructions come back as plain ``(opcode, dst, src, off, imm)``
    tuples, field for field what :class:`Insn` holds: every field is
    cut from a fixed-width slot, so nothing is left for that type's
    range checks to do -- except ``dst``, which is checked here.
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
    if zlib.crc32(memoryview(code)[:-4]) & 0xFFFFFFFF != crc:
        raise SandboxCrash("image CRC mismatch (torn or corrupt write)")
    body = code[_HEADER.size : -4]
    bad_slot = first_bad_slot(body)
    if bad_slot >= 0:
        raise SandboxCrash(f"slot {bad_slot} checksum mismatch")

    # The slot's fields as columns of the image, joined into one tuple
    # per slot: what a slot decodes to when it stands on its own.
    insn_prefix, operand_prefix = _ARCH_PREFIX[arch]
    prefixes = body[0::_SLOT_BYTES]
    opcodes = body[1::_SLOT_BYTES]
    regs = body[2::_SLOT_BYTES]
    off_imm = struct.unpack("<" + _OFF_IMM * slot_count, body)
    insns = list(
        zip(
            opcodes,
            regs.translate(_DST),
            regs.translate(_SRC),
            off_imm[0::2],
            off_imm[1::2],
        )
    )

    # The slots that do not: anything but an instruction prefix, a dst
    # that names no register, an opcode that owns the slot after it.
    # The sequential rules run over these alone, in slot order.
    flags = (
        int.from_bytes(prefixes.translate(_NOT_PREFIX[insn_prefix]), "little")
        | int.from_bytes(regs.translate(_BAD_DST), "little")
        | int.from_bytes(opcodes.translate(_SEQUENTIAL_OPCODE), "little")
    )
    if not flags:
        return insns
    flagged = flags.to_bytes(slot_count, "little")
    lddw_tail = -1  # the slot that is the second half of a literal LDDW
    operand_slots = []  # slots consumed as the operand of the one before
    operand_at = -1  # ... the latest of them
    index = flagged.find(1)
    while index >= 0:
        if index != operand_at:
            if prefixes[index] != insn_prefix:
                if index == lddw_tail:
                    raise SandboxCrash("LDDW second half missing")
                raise SandboxCrash(f"unexpected operand slot at {index}")
            opcode, dst, src, _off, _imm = insns[index]
            if dst > op.MAX_REG:
                raise SandboxCrash(f"bad dst register r{dst} in slot {index}")
            if index == lddw_tail:
                pass  # an immediate, whatever its opcode byte says
            elif opcode == op.LDDW and src == op.PSEUDO_MAP_FD:
                operand_at = index + 1
                address = _operand(body, operand_at, operand_prefix)
                if address == PLACEHOLDER:
                    raise SandboxCrash("unresolved map relocation")
                slot = map_slot_at(address)
                if slot is None:
                    raise SandboxCrash(f"map address {address:#x} unknown")
                # The operand slot stands in for the LDDW's second half.
                insns[index] = (opcode, dst, op.PSEUDO_MAP_FD, 0, slot)
                insns[operand_at] = _LDDW_TAIL
            elif opcode in _CALL_OPCODES:
                operand_at = index + 1
                address = _operand(body, operand_at, operand_prefix)
                if address == PLACEHOLDER:
                    raise SandboxCrash("unresolved helper relocation")
                helper_id = helper_at(address)
                if helper_id is None:
                    raise SandboxCrash(f"helper address {address:#x} unknown")
                insns[index] = (opcode, dst, src, 0, helper_id)
                operand_slots.append(operand_at)
            elif opcode == op.LDDW:
                lddw_tail = index + 1
        index = flagged.find(1, index + 1)
    if lddw_tail == slot_count:
        raise SandboxCrash("LDDW second half missing")
    for operand_at in reversed(operand_slots):
        del insns[operand_at]
    return insns


def _operand(body: bytes, slot: int, operand_prefix: int) -> int:
    """The 64-bit value of the operand slot that must be at ``slot``."""
    start = slot * _SLOT_BYTES
    if start >= len(body):
        raise SandboxCrash("truncated operand slot")
    if body[start] != operand_prefix:
        raise SandboxCrash("expected operand slot")
    return int.from_bytes(body[start + 1 : start + 9], "little")
