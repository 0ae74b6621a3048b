"""Image-decode equivalence oracle.

How :func:`repro.ebpf.jit.decode_image` walks an image is an
implementation detail; which images it accepts, what it decodes them
to, and the exact crash it raises otherwise are not -- that message is
what ``Sandbox.crash_reason`` and every fuzz finding carry.  ``ORACLE``
was taken from the per-slot decoder of PR 14 (commit a24804d,
regenerate with ``PYTHONPATH=src python tests/test_decode_oracle.py``)
and pins, per row of a seeded mutation corpus, either ``(instruction
count, digest of the decoded tuples)`` or the crash message.

That decoder is also kept here, as :func:`reference_decode`, for the
hypothesis differential: the two must agree on *any* edited image, not
only on the pinned rows.
"""

import hashlib
import random
import struct
import zlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ebpf import opcodes as op
from repro.ebpf.jit import PLACEHOLDER, decode_image, jit_compile
from repro.ebpf.stress import make_stress_program
from repro.errors import SandboxCrash

ARCHES = {"x86_64": (0x9A, 0x9B), "arm64": (0xAA, 0xAB)}
ADDRESSES = {"bpf_map_lookup_elem": 0xFFFF_8000_0010_0040, "stress_map": 0x7000_2000}
HELPER_AT = {ADDRESSES["bpf_map_lookup_elem"]: 1}.get
MAP_SLOT_AT = {ADDRESSES["stress_map"]: 0}.get

#: Bytes that mean something to the decoder wherever they are read as
#: an opcode (LDDW, the two ``call`` encodings), a prefix (both
#: architectures' instruction and operand prefixes) or a register byte
#: (``dst`` nibble 11).
LOADED_BYTES = (0x18, 0x85, 0x8D, 0x9A, 0x9B, 0xAA, 0xAB, 0xFB)

HEADER = 8
SLOT = 10


# -- the decoder of commit a24804d, instruction tuples left plain ----------

_HEADER_STRUCT = struct.Struct("<2sBBI")
_SLOT_STRUCT = struct.Struct("<B8sB")
_SLOT_FIELDS = struct.Struct("<BBBhiB")
_CALL_OPCODES = (op.BPF_JMP | op.BPF_CALL, op.BPF_JMP | op.BPF_CALL | op.BPF_X)


def reference_decode(code, helper_at, map_slot_at, expect_arch="x86_64"):
    if len(code) < _HEADER_STRUCT.size + 4:
        raise SandboxCrash("image too short")
    magic, version, arch_id, slot_count = _HEADER_STRUCT.unpack_from(code)
    if magic != b"RJ" or version != 1:
        raise SandboxCrash("bad image magic/version")
    arch = {1: "x86_64", 2: "arm64"}.get(arch_id)
    if arch is None:
        raise SandboxCrash(f"unknown architecture id {arch_id}")
    if arch != expect_arch:
        raise SandboxCrash(f"architecture mismatch: image={arch}")
    expected_len = _HEADER_STRUCT.size + slot_count * SLOT + 4
    if len(code) != expected_len:
        raise SandboxCrash(f"image length {len(code)} != expected {expected_len}")
    crc = int.from_bytes(code[-4:], "little")
    if zlib.crc32(code[:-4]) & 0xFFFFFFFF != crc:
        raise SandboxCrash("image CRC mismatch (torn or corrupt write)")

    insn_prefix, operand_prefix = ARCHES[arch]
    body = memoryview(code)[_HEADER_STRUCT.size : -4]
    for slot_index, (prefix, payload, checksum) in enumerate(
        _SLOT_STRUCT.iter_unpack(body)
    ):
        if (prefix + sum(payload)) & 0xFF != checksum:
            raise SandboxCrash(f"slot {slot_index} checksum mismatch")

    insns = []
    lddw_tail = False
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
            lddw_tail = False
            insns.append((opcode, dst, src, off, imm))
        elif opcode == op.LDDW and src == op.PSEUDO_MAP_FD:
            address = _reference_operand(slots, operand_prefix)
            if address == PLACEHOLDER:
                raise SandboxCrash("unresolved map relocation")
            slot = map_slot_at(address)
            if slot is None:
                raise SandboxCrash(f"map address {address:#x} unknown")
            insns.append((opcode, dst, op.PSEUDO_MAP_FD, 0, slot))
            insns.append((0, 0, 0, 0, 0))
        elif opcode in _CALL_OPCODES:
            address = _reference_operand(slots, operand_prefix)
            if address == PLACEHOLDER:
                raise SandboxCrash("unresolved helper relocation")
            helper_id = helper_at(address)
            if helper_id is None:
                raise SandboxCrash(f"helper address {address:#x} unknown")
            insns.append((opcode, dst, src, 0, helper_id))
        else:
            lddw_tail = opcode == op.LDDW
            insns.append((opcode, dst, src, off, imm))
    if lddw_tail:
        raise SandboxCrash("LDDW second half missing")
    return insns


def _reference_operand(slots, operand_prefix):
    following = next(slots, None)
    if following is None:
        raise SandboxCrash("truncated operand slot")
    _index, (prefix, low, mid, high, top, _checksum) = following
    if prefix != operand_prefix:
        raise SandboxCrash("expected operand slot")
    return low | mid << 8 | (high & 0xFFFF) << 16 | (top & 0xFFFFFFFF) << 32


# -- building and editing images --------------------------------------------

def base_image(size, with_map, linked, arch):
    program = make_stress_program(size, seed=size, with_map=with_map)
    binary = jit_compile(program, arch)
    if linked:
        binary = binary.link(lambda reloc: ADDRESSES[reloc.symbol])
    return binary.code


def base_name(size, with_map, linked, arch):
    return "-".join(
        (str(size), "map" if with_map else "plain",
         "linked" if linked else "unlinked", arch)
    )


BASES = {
    base_name(*key): key
    for key in (
        (size, with_map, linked, arch)
        for size in (64, 300, 818)
        for with_map in (False, True)
        for linked in (True, False)
        for arch in ARCHES
    )
}


IMAGES = {name: base_image(*key) for name, key in BASES.items()}


def slot_count(image):
    return (len(image) - HEADER - 4) // SLOT


def reseal(image):
    """Recompute the whole-image CRC over whatever the image now holds."""
    image[-4:] = (zlib.crc32(bytes(image[:-4])) & 0xFFFFFFFF).to_bytes(4, "little")


def rechecksum(image, slot):
    start = HEADER + slot * SLOT
    image[start + 9] = sum(image[start : start + 9]) & 0xFF


def plant(image, slot, offset, value):
    """Write one byte of a slot (0 prefix, 1 opcode, 2 regs, 3..8
    operand bytes), then make the slot and the image whole again."""
    image[HEADER + slot * SLOT + offset] = value
    rechecksum(image, slot)
    reseal(image)


def set_slots(image, slots):
    """Replace the slot area (a list of 10-byte slots), fix the header
    count and reseal."""
    image[HEADER:-4] = b"".join(slots)
    image[4:8] = len(slots).to_bytes(4, "little")
    reseal(image)


def slots_of(image):
    return [
        bytes(image[start : start + SLOT])
        for start in range(HEADER, len(image) - 4, SLOT)
    ]


def make_slot(prefix, opcode=0, regs=0, operand=0):
    """A whole slot: ``operand`` fills the six bytes after the regs."""
    body = bytes([prefix, opcode, regs]) + operand.to_bytes(6, "little")
    return body + bytes([sum(body) & 0xFF])


def operand_slot(prefix, address):
    body = bytes([prefix]) + address.to_bytes(8, "little")
    return body + bytes([sum(body) & 0xFF])


def first_slot_with(image, opcode):
    for index, slot in enumerate(slots_of(image)):
        if slot[1] == opcode and slot[0] in (0x9A, 0xAA):
            return index
    raise AssertionError(f"no slot with opcode {opcode:#x}")


def splice(image, index, drop, *new_slots):
    """Put ``new_slots`` where ``drop`` slots were, from slot ``index``."""
    slots = slots_of(image)
    slots[index : index + drop] = new_slots
    set_slots(image, slots)


def poke(image, offset, value):
    """Set one byte anywhere (a header field, say) and reseal."""
    image[offset] = value
    reseal(image)


def flip(image, masks, whole=True):
    """Xor ``masks`` (byte position -> mask) into the image; slot
    checksums are left as they were."""
    for position, mask in masks.items():
        image[position] ^= mask
    if whole:
        reseal(image)


def edited(base, edit, *args):
    """``base`` after ``edit(image, *args)``."""
    image = bytearray(base)
    edit(image, *args)
    return bytes(image)


def _structural_rows():
    """Hand-built rows: every sequential rule, tripped and not."""
    plain = IMAGES["64-plain-linked-x86_64"]
    insn, operand = ARCHES["x86_64"]
    last = slot_count(plain) - 1
    lddw = op.LDDW
    call = op.BPF_JMP | op.BPF_CALL
    literal = make_slot(insn, lddw, 0x03)

    for name, at, new_slots in (
        ("lddw-last", last, [make_slot(insn, lddw)]),
        ("map-lddw-last", last, [make_slot(insn, lddw, 0x11)]),
        ("call-last", last, [make_slot(insn, call, 0, 1 << 16)]),
        ("call-x-last", last, [make_slot(insn, call | op.BPF_X, 0, 1 << 16)]),
        ("lddw-then-operand-slot", 10, [literal, operand_slot(operand, 7)]),
        ("lddw-tail-reads-as-call", 10, [literal, make_slot(insn, call)]),
        ("lddw-tail-reads-as-lddw", 10, [literal, make_slot(insn, lddw)]),
        ("lddw-tail-reads-as-map-lddw", 10, [literal, make_slot(insn, lddw, 0x11)]),
        ("lddw-tail-bad-dst", 10, [literal, make_slot(insn, 0, 0x0B)]),
        ("lddw-tail-then-lddw-last", last - 2, [make_slot(insn, lddw)] * 3),
        ("literal-lddw-src-2", 10, [make_slot(insn, lddw, 0x23), make_slot(insn, 0)]),
        ("bad-dst-first-of-two", 5,
         [make_slot(insn, 0xB7, 0x0C), make_slot(insn, 0xB7, 0x0F)]),
        ("bad-dst-before-unexpected-operand", 5,
         [make_slot(insn, 0xB7, 0x0C), operand_slot(operand, 7)]),
        ("unexpected-operand-before-bad-dst", 5,
         [operand_slot(operand, 7), make_slot(insn, 0xB7, 0x0C)]),
    ):
        yield name, edited(plain, splice, at, len(new_slots), *new_slots), None
    yield "operand-slot-first", edited(
        plain, splice, 0, 0, operand_slot(operand, 7)
    ), None
    yield "other-arch-insn-prefix", edited(plain, plant, 7, 0, 0xAA), None
    yield "other-arch-operand-prefix", edited(plain, plant, 7, 0, 0xAB), None
    yield "zero-slot-appended", edited(plain, splice, last + 1, 0, bytes(SLOT)), None
    yield "last-slot-dropped", edited(plain, splice, last, 1), None
    yield "no-slots", edited(plain, set_slots, []), None

    for name, base_key in (
        ("64", "64-map-linked-x86_64"), ("818-arm64", "818-map-linked-arm64")
    ):
        base, arch = IMAGES[base_key], BASES[base_key][3]
        insn_p, operand_p = ARCHES[arch]
        map_at = first_slot_with(base, lddw)
        call_at = first_slot_with(base, call)
        slots = slots_of(base)
        for row, edit, *args in (
            ("map-operand-missing", splice, map_at + 1, 1),
            ("map-operand-doubled", splice, map_at + 1, 0, slots[map_at + 1]),
            ("call-operand-missing", splice, call_at + 1, 1),
            ("call-operand-doubled", splice, call_at + 1, 0, slots[call_at + 1]),
            ("map-operand-is-insn-slot", plant, map_at + 1, 0, insn_p),
            ("map-address-unknown", splice, map_at + 1, 1,
             operand_slot(operand_p, 0x7000_2040)),
            ("helper-address-unknown", splice, call_at + 1, 1,
             operand_slot(operand_p, 0xDDDD)),
            ("helper-placeholder-after-resolved-map", splice, call_at + 1, 1,
             operand_slot(operand_p, PLACEHOLDER)),
            ("map-lddw-bad-dst", plant, map_at, 2, 0x1B),
            ("image-ends-at-map-lddw", set_slots, slots[: map_at + 1]),
            ("image-ends-at-call", set_slots, slots[: call_at + 1]),
        ):
            yield f"{row}/{name}", edited(base, edit, *args), arch

    yield "empty", b"", None
    yield "eleven-bytes", plain[:11], None
    yield "header-and-crc-only", plain[:8] + plain[-4:], None
    yield "bad-magic", edited(plain, poke, 0, ord("X")), None
    yield "bad-version", edited(plain, poke, 2, 2), None
    yield "arch-id-0", edited(plain, poke, 3, 0), None
    yield "arch-id-wasm", edited(plain, poke, 3, 3), None
    yield "arch-id-arm64-on-x86-body", edited(plain, poke, 3, 2), "arm64"
    yield "expect-other-arch", plain, "arm64"
    yield "slot-count-plus-one", edited(plain, poke, 4, last + 2), None
    yield "cut-6", plain[:-6], None
    yield "cut-one-slot", plain[: -4 - SLOT] + plain[-4:], None
    yield "grown-one-slot", plain[:-4] + bytes(SLOT) + plain[-4:], None
    yield "crc-byte-flipped", edited(plain, flip, {-1: 0x01}, False), None

    def at(slot, offset):
        return HEADER + slot * SLOT + offset

    yield "checksum-byte-flipped", edited(plain, flip, {at(3, 9): 0xFF}), None
    yield "two-checksums-wrong", edited(
        plain, flip, {at(40, 4): 0xFF, at(12, 6): 0xFF}
    ), None
    yield "edits-cancel-mod-256", edited(
        plain, flip, {at(9, 3): 0x80, at(9, 4): 0x80}
    ), None
    yield "last-slot-checksum-wrong", edited(plain, flip, {at(last, 9): 0xFF}), None


def _seeded_rows():
    """Eight seeded edits of each of the 24 base images."""
    for name, base in IMAGES.items():
        arch = BASES[name][3]
        rng = random.Random(f"decode-oracle/{name}")
        count = slot_count(base)
        yield f"{name}/clean", base, arch
        values = list(LOADED_BYTES)
        rng.shuffle(values)
        for value in values[:4]:
            slot, offset = rng.randrange(count), rng.choice((1, 1, 2, 3, 5, 8))
            yield f"{name}/plant-{value:#04x}@{slot}.{offset}", edited(
                base, plant, slot, offset, value
            ), arch
        slot = rng.randrange(count)
        prefix = rng.choice((0x9A, 0x9B, 0xAA, 0xAB, 0x00))
        yield f"{name}/prefix-{prefix:#04x}@{slot}", edited(
            base, plant, slot, 0, prefix
        ), arch
        slot, regs = rng.randrange(count), rng.choice((0x0B, 0x1F, 0xFB, 0x1A))
        yield f"{name}/regs-{regs:#04x}@{slot}", edited(
            base, plant, slot, 2, regs
        ), arch
        where, bit = rng.randrange(len(base)), 1 << rng.randrange(8)
        yield f"{name}/flip@{where}^{bit:#04x}", edited(
            base, flip, {where: bit}, False
        ), arch
        where, bit = rng.randrange(HEADER, len(base) - 4), 1 << rng.randrange(8)
        yield f"{name}/flip-resealed@{where}^{bit:#04x}", edited(
            base, flip, {where: bit}
        ), arch


def rows():
    for name, image, arch in _structural_rows():
        yield name, image, arch or "x86_64"
    yield from _seeded_rows()


def outcome(decode, image, arch):
    """``(count, digest)`` of the decoded instructions, or the crash text."""
    try:
        insns = decode(image, HELPER_AT, MAP_SLOT_AT, expect_arch=arch)
    except SandboxCrash as crash:
        return str(crash)
    plain = [tuple(insn) for insn in insns]
    digest = hashlib.blake2b(repr(plain).encode(), digest_size=6).hexdigest()
    return len(plain), digest


# row -> (instruction count, digest) | crash message; from commit a24804d
ORACLE = {
    'lddw-last': 'LDDW second half missing',
    'map-lddw-last': 'truncated operand slot',
    'call-last': 'truncated operand slot',
    'call-x-last': 'truncated operand slot',
    'lddw-then-operand-slot': 'LDDW second half missing',
    'lddw-tail-reads-as-call': (64, '1f56e6161a1c'),
    'lddw-tail-reads-as-lddw': (64, 'e297c91d95a5'),
    'lddw-tail-reads-as-map-lddw': (64, '2c37223ca382'),
    'lddw-tail-bad-dst': 'bad dst register r11 in slot 11',
    'lddw-tail-then-lddw-last': 'LDDW second half missing',
    'literal-lddw-src-2': (64, '12e1e009a0a1'),
    'bad-dst-first-of-two': 'bad dst register r12 in slot 5',
    'bad-dst-before-unexpected-operand': 'bad dst register r12 in slot 5',
    'unexpected-operand-before-bad-dst': 'unexpected operand slot at 5',
    'operand-slot-first': 'unexpected operand slot at 0',
    'other-arch-insn-prefix': 'unexpected operand slot at 7',
    'other-arch-operand-prefix': 'unexpected operand slot at 7',
    'zero-slot-appended': 'unexpected operand slot at 64',
    'last-slot-dropped': (63, '527dd396bfee'),
    'no-slots': (0, 'f48212d320c4'),
    'map-operand-missing/64': 'expected operand slot',
    'map-operand-doubled/64': 'unexpected operand slot at 9',
    'call-operand-missing/64': 'expected operand slot',
    'call-operand-doubled/64': 'unexpected operand slot at 11',
    'map-operand-is-insn-slot/64': 'expected operand slot',
    'map-address-unknown/64': 'map address 0x70002040 unknown',
    'helper-address-unknown/64': 'helper address 0xdddd unknown',
    'helper-placeholder-after-resolved-map/64': 'unresolved helper relocation',
    'map-lddw-bad-dst/64': 'bad dst register r11 in slot 7',
    'image-ends-at-map-lddw/64': 'truncated operand slot',
    'image-ends-at-call/64': 'truncated operand slot',
    'map-operand-missing/818-arm64': 'expected operand slot',
    'map-operand-doubled/818-arm64': 'unexpected operand slot at 9',
    'call-operand-missing/818-arm64': 'expected operand slot',
    'call-operand-doubled/818-arm64': 'unexpected operand slot at 11',
    'map-operand-is-insn-slot/818-arm64': 'expected operand slot',
    'map-address-unknown/818-arm64': 'map address 0x70002040 unknown',
    'helper-address-unknown/818-arm64': 'helper address 0xdddd unknown',
    'helper-placeholder-after-resolved-map/818-arm64': 'unresolved helper relocation',
    'map-lddw-bad-dst/818-arm64': 'bad dst register r11 in slot 7',
    'image-ends-at-map-lddw/818-arm64': 'truncated operand slot',
    'image-ends-at-call/818-arm64': 'truncated operand slot',
    'empty': 'image too short',
    'eleven-bytes': 'image too short',
    'header-and-crc-only': 'image length 12 != expected 652',
    'bad-magic': 'bad image magic/version',
    'bad-version': 'bad image magic/version',
    'arch-id-0': 'unknown architecture id 0',
    'arch-id-wasm': 'unknown architecture id 3',
    'arch-id-arm64-on-x86-body': 'unexpected operand slot at 0',
    'expect-other-arch': 'architecture mismatch: image=x86_64',
    'slot-count-plus-one': 'image length 652 != expected 662',
    'cut-6': 'image length 646 != expected 652',
    'cut-one-slot': 'image length 642 != expected 652',
    'grown-one-slot': 'image length 662 != expected 652',
    'crc-byte-flipped': 'image CRC mismatch (torn or corrupt write)',
    'checksum-byte-flipped': 'slot 3 checksum mismatch',
    'two-checksums-wrong': 'slot 12 checksum mismatch',
    'edits-cancel-mod-256': (64, '3a1f5070bd67'),
    'last-slot-checksum-wrong': 'slot 63 checksum mismatch',
    '64-plain-linked-x86_64/clean': (64, '0125dbbe8d94'),
    '64-plain-linked-x86_64/plant-0x9b@36.3': (64, 'a782576eed5a'),
    '64-plain-linked-x86_64/plant-0xfb@10.3': (64, '10662460ce01'),
    '64-plain-linked-x86_64/plant-0x8d@36.3': (64, '6f79c5b95d82'),
    '64-plain-linked-x86_64/plant-0xab@52.1': (64, '360140dd9767'),
    '64-plain-linked-x86_64/prefix-0x00@44': 'unexpected operand slot at 44',
    '64-plain-linked-x86_64/regs-0x1a@47': (64, '6304d0c66070'),
    '64-plain-linked-x86_64/flip@644^0x08': 'image CRC mismatch (torn or corrupt write)',
    '64-plain-linked-x86_64/flip-resealed@86^0x40': 'slot 7 checksum mismatch',
    '64-plain-linked-arm64/clean': (64, '0125dbbe8d94'),
    '64-plain-linked-arm64/plant-0xaa@60.3': (64, '09b8a140eb01'),
    '64-plain-linked-arm64/plant-0x85@6.1': 'expected operand slot',
    '64-plain-linked-arm64/plant-0xab@4.1': (64, 'f6c2c8f927d3'),
    '64-plain-linked-arm64/plant-0x18@10.1': (64, 'c219d313b95c'),
    '64-plain-linked-arm64/prefix-0x9a@43': 'unexpected operand slot at 43',
    '64-plain-linked-arm64/regs-0x0b@7': 'bad dst register r11 in slot 7',
    '64-plain-linked-arm64/flip@252^0x10': 'image CRC mismatch (torn or corrupt write)',
    '64-plain-linked-arm64/flip-resealed@261^0x04': 'slot 25 checksum mismatch',
    '64-plain-unlinked-x86_64/clean': (64, '0125dbbe8d94'),
    '64-plain-unlinked-x86_64/plant-0x9b@24.3': (64, '4ea936283d30'),
    '64-plain-unlinked-x86_64/plant-0x8d@30.5': (64, 'fa43746e4556'),
    '64-plain-unlinked-x86_64/plant-0x18@45.3': (64, '4f6317f8f8f8'),
    '64-plain-unlinked-x86_64/plant-0x9a@59.1': (64, '1d427a0327bb'),
    '64-plain-unlinked-x86_64/prefix-0xaa@40': 'unexpected operand slot at 40',
    '64-plain-unlinked-x86_64/regs-0x1f@48': 'bad dst register r15 in slot 48',
    '64-plain-unlinked-x86_64/flip@418^0x08': 'image CRC mismatch (torn or corrupt write)',
    '64-plain-unlinked-x86_64/flip-resealed@641^0x02': 'slot 63 checksum mismatch',
    '64-plain-unlinked-arm64/clean': (64, '0125dbbe8d94'),
    '64-plain-unlinked-arm64/plant-0xfb@13.8': (64, 'bbe5ee15bde5'),
    '64-plain-unlinked-arm64/plant-0xab@26.1': (64, 'cdeeded771b4'),
    '64-plain-unlinked-arm64/plant-0xaa@49.1': (64, 'a85590f91f0d'),
    '64-plain-unlinked-arm64/plant-0x8d@2.2': 'bad dst register r13 in slot 2',
    '64-plain-unlinked-arm64/prefix-0xab@38': 'unexpected operand slot at 38',
    '64-plain-unlinked-arm64/regs-0x1f@18': 'bad dst register r15 in slot 18',
    '64-plain-unlinked-arm64/flip@261^0x02': 'image CRC mismatch (torn or corrupt write)',
    '64-plain-unlinked-arm64/flip-resealed@79^0x04': 'slot 7 checksum mismatch',
    '64-map-linked-x86_64/clean': (64, 'b817fe3b3490'),
    '64-map-linked-x86_64/plant-0xaa@29.1': (64, '77e81ad7453b'),
    '64-map-linked-x86_64/plant-0x8d@45.1': 'expected operand slot',
    '64-map-linked-x86_64/plant-0xab@48.1': (64, '0a04ac15d28a'),
    '64-map-linked-x86_64/plant-0xfb@49.1': (64, 'f8913222746e'),
    '64-map-linked-x86_64/prefix-0x9b@22': 'unexpected operand slot at 22',
    '64-map-linked-x86_64/regs-0x1f@52': 'bad dst register r15 in slot 52',
    '64-map-linked-x86_64/flip@478^0x10': 'image CRC mismatch (torn or corrupt write)',
    '64-map-linked-x86_64/flip-resealed@502^0x40': 'slot 49 checksum mismatch',
    '64-map-linked-arm64/clean': (64, 'b817fe3b3490'),
    '64-map-linked-arm64/plant-0x18@35.5': (64, 'd1abc3e0de1b'),
    '64-map-linked-arm64/plant-0x9b@61.5': (64, '108f67b9a14e'),
    '64-map-linked-arm64/plant-0xab@35.8': (64, 'c85c9d0655bc'),
    '64-map-linked-arm64/plant-0xaa@45.1': (64, 'f7225d44ddfc'),
    '64-map-linked-arm64/prefix-0xaa@19': (64, 'b817fe3b3490'),
    '64-map-linked-arm64/regs-0x1a@36': (64, '3c0803850df3'),
    '64-map-linked-arm64/flip@643^0x01': 'image CRC mismatch (torn or corrupt write)',
    '64-map-linked-arm64/flip-resealed@141^0x40': 'slot 13 checksum mismatch',
    '64-map-unlinked-x86_64/clean': 'unresolved map relocation',
    '64-map-unlinked-x86_64/plant-0x85@38.1': 'unresolved map relocation',
    '64-map-unlinked-x86_64/plant-0x9a@30.1': 'unresolved map relocation',
    '64-map-unlinked-x86_64/plant-0xab@2.5': 'unresolved map relocation',
    '64-map-unlinked-x86_64/plant-0xaa@30.5': 'unresolved map relocation',
    '64-map-unlinked-x86_64/prefix-0xaa@11': 'unresolved map relocation',
    '64-map-unlinked-x86_64/regs-0xfb@39': 'unresolved map relocation',
    '64-map-unlinked-x86_64/flip@187^0x02': 'image CRC mismatch (torn or corrupt write)',
    '64-map-unlinked-x86_64/flip-resealed@29^0x80': 'slot 2 checksum mismatch',
    '64-map-unlinked-arm64/clean': 'unresolved map relocation',
    '64-map-unlinked-arm64/plant-0x18@49.3': 'unresolved map relocation',
    '64-map-unlinked-arm64/plant-0x9b@16.2': 'unresolved map relocation',
    '64-map-unlinked-arm64/plant-0xab@33.1': 'unresolved map relocation',
    '64-map-unlinked-arm64/plant-0x85@23.1': 'unresolved map relocation',
    '64-map-unlinked-arm64/prefix-0x00@10': 'unresolved map relocation',
    '64-map-unlinked-arm64/regs-0xfb@51': 'unresolved map relocation',
    '64-map-unlinked-arm64/flip@560^0x10': 'image CRC mismatch (torn or corrupt write)',
    '64-map-unlinked-arm64/flip-resealed@417^0x04': 'slot 40 checksum mismatch',
    '300-plain-linked-x86_64/clean': (300, '3849a93b24f4'),
    '300-plain-linked-x86_64/plant-0x18@236.1': (300, '93d0f3d6630e'),
    '300-plain-linked-x86_64/plant-0xfb@161.1': (300, 'c35c917e56c7'),
    '300-plain-linked-x86_64/plant-0x9a@106.8': (300, 'a7a132cbf928'),
    '300-plain-linked-x86_64/plant-0xab@3.2': 'bad dst register r11 in slot 3',
    '300-plain-linked-x86_64/prefix-0xaa@205': 'unexpected operand slot at 205',
    '300-plain-linked-x86_64/regs-0x1f@230': 'bad dst register r15 in slot 230',
    '300-plain-linked-x86_64/flip@2843^0x40': 'image CRC mismatch (torn or corrupt write)',
    '300-plain-linked-x86_64/flip-resealed@627^0x20': 'slot 61 checksum mismatch',
    '300-plain-linked-arm64/clean': (300, '3849a93b24f4'),
    '300-plain-linked-arm64/plant-0x9b@35.8': (300, '7729d3a9963a'),
    '300-plain-linked-arm64/plant-0x8d@65.2': 'bad dst register r13 in slot 65',
    '300-plain-linked-arm64/plant-0xab@102.1': (300, 'b0cd26b3479d'),
    '300-plain-linked-arm64/plant-0x18@37.1': (300, '5f78db694e66'),
    '300-plain-linked-arm64/prefix-0x9a@64': 'unexpected operand slot at 64',
    '300-plain-linked-arm64/regs-0x0b@243': 'bad dst register r11 in slot 243',
    '300-plain-linked-arm64/flip@1549^0x20': 'image CRC mismatch (torn or corrupt write)',
    '300-plain-linked-arm64/flip-resealed@2319^0x02': 'slot 231 checksum mismatch',
    '300-plain-unlinked-x86_64/clean': (300, '3849a93b24f4'),
    '300-plain-unlinked-x86_64/plant-0x85@293.1': 'expected operand slot',
    '300-plain-unlinked-x86_64/plant-0xab@9.1': (300, 'a9dedb5d2be6'),
    '300-plain-unlinked-x86_64/plant-0xfb@155.1': (300, 'a57a5b9c66b2'),
    '300-plain-unlinked-x86_64/plant-0x18@70.5': (300, '5706ab4e543a'),
    '300-plain-unlinked-x86_64/prefix-0x9a@161': (300, '3849a93b24f4'),
    '300-plain-unlinked-x86_64/regs-0x1f@129': 'bad dst register r15 in slot 129',
    '300-plain-unlinked-x86_64/flip@2147^0x80': 'image CRC mismatch (torn or corrupt write)',
    '300-plain-unlinked-x86_64/flip-resealed@2086^0x40': 'slot 207 checksum mismatch',
    '300-plain-unlinked-arm64/clean': (300, '3849a93b24f4'),
    '300-plain-unlinked-arm64/plant-0x85@80.3': (300, '40f659b2110f'),
    '300-plain-unlinked-arm64/plant-0xab@85.2': 'bad dst register r11 in slot 85',
    '300-plain-unlinked-arm64/plant-0x9b@129.1': (300, '4cb2bf7a8318'),
    '300-plain-unlinked-arm64/plant-0xfb@250.2': 'bad dst register r11 in slot 250',
    '300-plain-unlinked-arm64/prefix-0xaa@157': (300, '3849a93b24f4'),
    '300-plain-unlinked-arm64/regs-0x1a@166': (300, 'dfa954cdf8f6'),
    '300-plain-unlinked-arm64/flip@1029^0x20': 'image CRC mismatch (torn or corrupt write)',
    '300-plain-unlinked-arm64/flip-resealed@2199^0x02': 'slot 219 checksum mismatch',
    '300-map-linked-x86_64/clean': (300, '288ac366bc4a'),
    '300-map-linked-x86_64/plant-0xaa@191.2': (300, '13567f7de79a'),
    '300-map-linked-x86_64/plant-0x9a@69.8': (300, '617a112e1c60'),
    '300-map-linked-x86_64/plant-0x9b@169.1': (300, '728db94f157c'),
    '300-map-linked-x86_64/plant-0x18@178.5': (300, '5689fff7a66d'),
    '300-map-linked-x86_64/prefix-0x9b@81': 'unexpected operand slot at 81',
    '300-map-linked-x86_64/regs-0x0b@235': 'bad dst register r11 in slot 235',
    '300-map-linked-x86_64/flip@2776^0x80': 'image CRC mismatch (torn or corrupt write)',
    '300-map-linked-x86_64/flip-resealed@1613^0x08': 'slot 160 checksum mismatch',
    '300-map-linked-arm64/clean': (300, '288ac366bc4a'),
    '300-map-linked-arm64/plant-0x18@37.2': (300, '0f4ddcdd2b20'),
    '300-map-linked-arm64/plant-0xaa@86.8': (300, 'a5f332626f51'),
    '300-map-linked-arm64/plant-0xfb@121.8': (300, '26acceb8f4da'),
    '300-map-linked-arm64/plant-0x9a@58.3': (300, 'a87054d1fc5b'),
    '300-map-linked-arm64/prefix-0xab@174': 'unexpected operand slot at 174',
    '300-map-linked-arm64/regs-0x1a@168': (300, '42a47fde8b7d'),
    '300-map-linked-arm64/flip@2582^0x08': 'image CRC mismatch (torn or corrupt write)',
    '300-map-linked-arm64/flip-resealed@2648^0x08': 'slot 264 checksum mismatch',
    '300-map-unlinked-x86_64/clean': 'unresolved map relocation',
    '300-map-unlinked-x86_64/plant-0x8d@226.3': 'unresolved map relocation',
    '300-map-unlinked-x86_64/plant-0x85@70.8': 'unresolved map relocation',
    '300-map-unlinked-x86_64/plant-0x18@102.1': 'unresolved map relocation',
    '300-map-unlinked-x86_64/plant-0xab@190.3': 'unresolved map relocation',
    '300-map-unlinked-x86_64/prefix-0xaa@73': 'unresolved map relocation',
    '300-map-unlinked-x86_64/regs-0x0b@254': 'unresolved map relocation',
    '300-map-unlinked-x86_64/flip@1716^0x01': 'image CRC mismatch (torn or corrupt write)',
    '300-map-unlinked-x86_64/flip-resealed@1666^0x04': 'slot 165 checksum mismatch',
    '300-map-unlinked-arm64/clean': 'unresolved map relocation',
    '300-map-unlinked-arm64/plant-0xab@49.3': 'unresolved map relocation',
    '300-map-unlinked-arm64/plant-0x85@26.2': 'unresolved map relocation',
    '300-map-unlinked-arm64/plant-0x18@158.5': 'unresolved map relocation',
    '300-map-unlinked-arm64/plant-0x9a@146.1': 'unresolved map relocation',
    '300-map-unlinked-arm64/prefix-0x9b@90': 'unresolved map relocation',
    '300-map-unlinked-arm64/regs-0x0b@291': 'unresolved map relocation',
    '300-map-unlinked-arm64/flip@1792^0x04': 'image CRC mismatch (torn or corrupt write)',
    '300-map-unlinked-arm64/flip-resealed@1189^0x40': 'slot 118 checksum mismatch',
    '818-plain-linked-x86_64/clean': (818, 'a966c647ac97'),
    '818-plain-linked-x86_64/plant-0x18@254.5': (818, '20db78d9b09b'),
    '818-plain-linked-x86_64/plant-0x9a@625.5': (818, '2e8ef59340c3'),
    '818-plain-linked-x86_64/plant-0x9b@278.1': (818, '9329f634b6aa'),
    '818-plain-linked-x86_64/plant-0x85@311.8': (818, '4ad40c06eaf0'),
    '818-plain-linked-x86_64/prefix-0x9b@86': 'unexpected operand slot at 86',
    '818-plain-linked-x86_64/regs-0xfb@60': 'bad dst register r11 in slot 60',
    '818-plain-linked-x86_64/flip@1357^0x01': 'image CRC mismatch (torn or corrupt write)',
    '818-plain-linked-x86_64/flip-resealed@4378^0x08': 'slot 437 checksum mismatch',
    '818-plain-linked-arm64/clean': (818, 'a966c647ac97'),
    '818-plain-linked-arm64/plant-0x18@676.2': (818, '1ccc18face92'),
    '818-plain-linked-arm64/plant-0x9b@223.8': (818, '4fd234d1640b'),
    '818-plain-linked-arm64/plant-0xfb@411.2': 'bad dst register r11 in slot 411',
    '818-plain-linked-arm64/plant-0x9a@201.1': (818, 'ba40177c91f8'),
    '818-plain-linked-arm64/prefix-0xaa@693': (818, 'a966c647ac97'),
    '818-plain-linked-arm64/regs-0x1f@479': 'bad dst register r15 in slot 479',
    '818-plain-linked-arm64/flip@7045^0x40': 'image CRC mismatch (torn or corrupt write)',
    '818-plain-linked-arm64/flip-resealed@6384^0x10': 'slot 637 checksum mismatch',
    '818-plain-unlinked-x86_64/clean': (818, 'a966c647ac97'),
    '818-plain-unlinked-x86_64/plant-0x18@204.1': (818, '5765c56722b0'),
    '818-plain-unlinked-x86_64/plant-0x9b@391.2': 'bad dst register r11 in slot 391',
    '818-plain-unlinked-x86_64/plant-0xaa@106.3': (818, '0843f4246c58'),
    '818-plain-unlinked-x86_64/plant-0xfb@726.1': (818, '68934332925f'),
    '818-plain-unlinked-x86_64/prefix-0x00@213': 'unexpected operand slot at 213',
    '818-plain-unlinked-x86_64/regs-0x0b@448': 'bad dst register r11 in slot 448',
    '818-plain-unlinked-x86_64/flip@1855^0x04': 'image CRC mismatch (torn or corrupt write)',
    '818-plain-unlinked-x86_64/flip-resealed@861^0x02': 'slot 85 checksum mismatch',
    '818-plain-unlinked-arm64/clean': (818, 'a966c647ac97'),
    '818-plain-unlinked-arm64/plant-0x85@736.2': (818, '31381f73390a'),
    '818-plain-unlinked-arm64/plant-0xaa@590.1': (818, 'fb537ec64367'),
    '818-plain-unlinked-arm64/plant-0x8d@689.2': 'bad dst register r13 in slot 689',
    '818-plain-unlinked-arm64/plant-0xab@182.1': (818, '824b903917db'),
    '818-plain-unlinked-arm64/prefix-0x9b@528': 'unexpected operand slot at 528',
    '818-plain-unlinked-arm64/regs-0x1a@715': (818, 'e762d5a7112c'),
    '818-plain-unlinked-arm64/flip@7989^0x20': 'image CRC mismatch (torn or corrupt write)',
    '818-plain-unlinked-arm64/flip-resealed@8145^0x20': 'slot 813 checksum mismatch',
    '818-map-linked-x86_64/clean': (818, '46c335cd4bd5'),
    '818-map-linked-x86_64/plant-0x9a@657.1': (818, '47971638a474'),
    '818-map-linked-x86_64/plant-0x9b@742.2': 'bad dst register r11 in slot 742',
    '818-map-linked-x86_64/plant-0x8d@235.3': (818, '26a2ad02b6ec'),
    '818-map-linked-x86_64/plant-0xfb@618.3': (818, 'fc1af7d561d3'),
    '818-map-linked-x86_64/prefix-0x9a@505': (818, '46c335cd4bd5'),
    '818-map-linked-x86_64/regs-0x0b@256': 'bad dst register r11 in slot 256',
    '818-map-linked-x86_64/flip@292^0x04': 'image CRC mismatch (torn or corrupt write)',
    '818-map-linked-x86_64/flip-resealed@7740^0x40': 'slot 773 checksum mismatch',
    '818-map-linked-arm64/clean': (818, '46c335cd4bd5'),
    '818-map-linked-arm64/plant-0x18@475.8': (818, 'cc16c73f4e70'),
    '818-map-linked-arm64/plant-0xfb@587.1': (818, '5c108d2b758e'),
    '818-map-linked-arm64/plant-0x8d@218.3': (818, 'b2c1584576c2'),
    '818-map-linked-arm64/plant-0xab@241.2': 'bad dst register r11 in slot 241',
    '818-map-linked-arm64/prefix-0xaa@344': (818, '46c335cd4bd5'),
    '818-map-linked-arm64/regs-0x0b@535': 'bad dst register r11 in slot 535',
    '818-map-linked-arm64/flip@4302^0x20': 'image CRC mismatch (torn or corrupt write)',
    '818-map-linked-arm64/flip-resealed@4103^0x01': 'slot 409 checksum mismatch',
    '818-map-unlinked-x86_64/clean': 'unresolved map relocation',
    '818-map-unlinked-x86_64/plant-0xaa@801.5': 'unresolved map relocation',
    '818-map-unlinked-x86_64/plant-0x9b@427.5': 'unresolved map relocation',
    '818-map-unlinked-x86_64/plant-0x9a@47.5': 'unresolved map relocation',
    '818-map-unlinked-x86_64/plant-0x85@326.2': 'unresolved map relocation',
    '818-map-unlinked-x86_64/prefix-0x9b@461': 'unresolved map relocation',
    '818-map-unlinked-x86_64/regs-0xfb@121': 'unresolved map relocation',
    '818-map-unlinked-x86_64/flip@4153^0x10': 'image CRC mismatch (torn or corrupt write)',
    '818-map-unlinked-x86_64/flip-resealed@6917^0x04': 'slot 690 checksum mismatch',
    '818-map-unlinked-arm64/clean': 'unresolved map relocation',
    '818-map-unlinked-arm64/plant-0x9a@543.5': 'unresolved map relocation',
    '818-map-unlinked-arm64/plant-0xfb@24.5': 'unresolved map relocation',
    '818-map-unlinked-arm64/plant-0x18@800.1': 'unresolved map relocation',
    '818-map-unlinked-arm64/plant-0x8d@33.1': 'unresolved map relocation',
    '818-map-unlinked-arm64/prefix-0xaa@721': 'unresolved map relocation',
    '818-map-unlinked-arm64/regs-0x0b@301': 'unresolved map relocation',
    '818-map-unlinked-arm64/flip@4712^0x01': 'image CRC mismatch (torn or corrupt write)',
    '818-map-unlinked-arm64/flip-resealed@3318^0x80': 'slot 331 checksum mismatch',
}

ROWS = {name: (image, arch) for name, image, arch in rows()}

#: One shape per ``raise SandboxCrash`` site of the decoder.
CRASH_SITES = (
    "image too short",
    "bad image magic/version",
    "unknown architecture id ",
    "architecture mismatch: image=",
    "image length ",
    "image CRC mismatch",
    "slot ",
    "unexpected operand slot at ",
    "bad dst register r",
    "unresolved map relocation",
    "map address ",
    "unresolved helper relocation",
    "helper address ",
    "LDDW second half missing",
    "truncated operand slot",
    "expected operand slot",
)


def test_corpus_is_the_pinned_one():
    assert list(ROWS) == list(ORACLE)


@pytest.mark.parametrize("name", ORACLE)
def test_row_decodes_as_pinned(name):
    image, arch = ROWS[name]
    assert outcome(decode_image, image, arch) == ORACLE[name]


def test_every_crash_site_has_a_row():
    messages = [value for value in ORACLE.values() if isinstance(value, str)]
    for shape in CRASH_SITES:
        assert any(text.startswith(shape) for text in messages), shape
    assert any(not isinstance(value, str) for value in ORACLE.values())


def test_reference_decoder_reproduces_the_table():
    """The model the differential runs against is the one that made
    the table."""
    for name, (image, arch) in ROWS.items():
        assert outcome(reference_decode, image, arch) == ORACLE[name], name


# -- hypothesis differential --------------------------------------------------

_SMALL = [name for name, key in BASES.items() if key[0] == 64]

_byte_edit = st.tuples(
    st.just("byte"),
    st.floats(0, 1, exclude_max=True),  # which slot, as a share of the image
    st.integers(0, 9),
    st.one_of(st.sampled_from(LOADED_BYTES), st.integers(0, 255)),
    st.booleans(),  # re-checksum the slot
)
_slot_edit = st.tuples(
    st.sampled_from(("drop", "double", "operand", "lddw", "map-lddw", "call")),
    st.floats(0, 1, exclude_max=True),
    st.integers(0, 0xFF),
)
_near_reloc = st.tuples(
    st.just("near-reloc"),
    st.integers(-2, 3),
    st.integers(0, 9),
    st.one_of(st.sampled_from(LOADED_BYTES), st.integers(0, 255)),
)


def _apply(image, arch, edit):
    insn, operand = ARCHES[arch]
    count = slot_count(image)
    kind = edit[0]
    if kind == "byte":
        _kind, share, offset, value, whole = edit
        if not count:
            return
        slot = int(share * count)
        image[HEADER + slot * SLOT + offset] = value
        if whole:
            rechecksum(image, slot)
    elif kind == "near-reloc":
        _kind, delta, offset, value = edit
        relocs = [
            index for index, slot in enumerate(slots_of(image))
            if slot[1] in (op.LDDW, *_CALL_OPCODES)
        ]
        if not relocs:
            return
        slot = min(max(relocs[0] + delta, 0), count - 1)
        image[HEADER + slot * SLOT + offset] = value
        rechecksum(image, slot)
    else:
        _kind, share, regs = edit
        slots = slots_of(image)
        index = int(share * len(slots)) if slots else 0
        if kind == "drop":
            del slots[index : index + 1]
        elif kind == "double":
            slots[index:index] = slots[index : index + 1]
        elif kind == "operand":
            slots.insert(index, operand_slot(operand, ADDRESSES["stress_map"]))
        elif kind == "lddw":
            slots.insert(index, make_slot(insn, op.LDDW, regs & 0xEF))
        elif kind == "map-lddw":
            slots.insert(index, make_slot(insn, op.LDDW, 0x10 | regs & 0x0F))
        else:
            slots.insert(index, make_slot(insn, _CALL_OPCODES[regs & 1], regs))
        image[HEADER:-4] = b"".join(slots)
        image[4:8] = len(slots).to_bytes(4, "little")


@given(
    st.one_of(st.sampled_from(_SMALL), st.sampled_from(sorted(BASES))),
    st.lists(st.one_of(_byte_edit, _slot_edit, _near_reloc), max_size=4),
    st.integers(0, 7).map(bool),  # mostly resealed, to get past the CRC
)
@settings(deadline=None)
def test_agrees_with_the_per_slot_decoder(name, edits, whole):
    arch = BASES[name][3]
    image = bytearray(IMAGES[name])
    for edit in edits:
        _apply(image, arch, edit)
    if whole:
        reseal(image)
    image = bytes(image)
    assert outcome(decode_image, image, arch) == outcome(
        reference_decode, image, arch
    )


if __name__ == "__main__":
    print("ORACLE = {")
    for name, (image, arch) in ROWS.items():
        print(f"    {name!r}: {outcome(decode_image, image, arch)!r},")
    print("}")
