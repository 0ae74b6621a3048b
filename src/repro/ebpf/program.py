"""Program objects and the `struct bpf_program`-like metadata block.

The paper's §3.1 stresses that an extension is far more than its code:
``struct bpf_program`` carries 30+ fields that local agents fill in
from local context.  We model that metadata explicitly because RDX's
management stubs exist precisely to avoid handcrafting it remotely.
"""

from __future__ import annotations

import enum
import hashlib
import itertools
from dataclasses import dataclass, field, fields, replace
from typing import Callable, Iterable, Optional

from repro.ebpf.insn import Insn, encode_program

#: Process-wide: a program is a value that outlives any one simulation.
_prog_ids = itertools.count(1)


class ProgramIdentity:
    """What a deployable program is known by: its image and its tag.

    Mixin for the program dataclasses (:class:`BpfProgram`, the Wasm
    module).  Their ``__post_init__`` calls :meth:`_seal`, which freezes
    ``insns`` to a tuple and derives image and tag from it, once.  From
    then on ``insns`` cannot be rebound and a tuple cannot be edited in
    place, so the pair can never describe other instructions than the
    program holds -- every cache, signature and journal record keyed by
    ``tag()`` leans on that.  An edited program is a new object
    (``dataclasses.replace(program, insns=...)``) with its own tag.
    """

    insns: tuple

    def __setattr__(self, name: str, value) -> None:
        if name == "insns" and "_tag" in self.__dict__:
            raise AttributeError(
                f"{type(self).__name__}.insns is immutable: build a new "
                "program with dataclasses.replace(program, insns=...)"
            )
        object.__setattr__(self, name, value)

    def _seal(
        self, encode: Callable[[Iterable], bytes], salt: bytes = b""
    ) -> None:
        self.insns = tuple(self.insns)
        self._image = encode(self.insns)
        self._tag = hashlib.sha1(salt + self._image).hexdigest()[:16]

    def image(self) -> bytes:
        """The flat bytecode image (what a verifier/JIT consumes)."""
        return self._image

    def tag(self) -> str:
        """Kernel-style 8-byte program tag (truncated SHA-1 of the image)."""
        return self._tag

    def __len__(self) -> int:
        return len(self.insns)

    def size_bytes(self) -> int:
        return len(self._image)


class ProgType(enum.Enum):
    """Program types (hook families) the simulator supports."""

    SOCKET_FILTER = "socket_filter"
    XDP = "xdp"
    TRACEPOINT = "tracepoint"
    CGROUP_SKB = "cgroup_skb"


@dataclass
class BpfProgMetadata:
    """The descriptor a loader must populate (cf. `struct bpf_program`).

    Field names follow libbpf where a counterpart exists.  Every field
    the agent fills locally must be fillable by RDX remotely -- that is
    the §3.1 challenge this reproduction exercises.
    """

    name: str = ""
    prog_type: ProgType = ProgType.SOCKET_FILTER
    insn_cnt: int = 0
    license: str = "GPL"
    kern_version: int = 0x050F00
    prog_flags: int = 0
    expected_attach_type: int = 0
    attach_hook: str = ""
    ifindex: int = 0
    log_level: int = 0
    prog_fd: int = -1
    jited: bool = False
    jited_len: int = 0
    xlated_len: int = 0
    load_time_ns: int = 0
    uid: int = 0
    map_slots: tuple[int, ...] = ()
    btf_id: int = 0
    func_cnt: int = 1
    verified_insns: int = 0
    tag: str = ""
    gpl_compatible: bool = True
    run_ctx_addr: int = 0
    jit_addr: int = 0
    got_base: int = 0
    ref_count: int = 0
    priority: int = 0
    sleepable: bool = False
    exception_cb: int = 0
    recursion_ok: bool = False
    stats_enabled: bool = False

    @classmethod
    def field_count(cls) -> int:
        """The paper cites 'no less than 30 variables'; we match that."""
        return len(fields(cls))


@dataclass
class BpfProgram(ProgramIdentity):
    """An eBPF program: instructions + declared map slots + metadata."""

    insns: tuple[Insn, ...]
    name: str = "prog"
    prog_type: ProgType = ProgType.SOCKET_FILTER
    #: Names of maps the program references, indexed by map slot.
    map_names: tuple[str, ...] = ()
    prog_id: int = field(default_factory=lambda: next(_prog_ids))
    metadata: Optional[BpfProgMetadata] = None

    def __post_init__(self):
        self._seal(encode_program)
        if self.metadata is None:
            self.metadata = BpfProgMetadata(
                name=self.name,
                prog_type=self.prog_type,
                insn_cnt=len(self.insns),
                map_slots=tuple(range(len(self.map_names))),
                tag=self.tag(),
            )
        elif self.metadata.tag != self.tag():
            # ``dataclasses.replace(program, insns=...)`` hands over the
            # original's descriptor; the copy must not share it.
            self.metadata = replace(
                self.metadata, insn_cnt=len(self.insns), tag=self.tag()
            )
