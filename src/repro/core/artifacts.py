"""The control plane's artifact store (§3.2 "validate once, deploy anywhere").

One artifact in three LRU :class:`Stage`s -- ``registry`` (verified +
compiled), ``linked`` (linked for one layout), ``pinned`` (the warm
pool) -- with one key (:func:`verdict_key`, the only code that puts map
geometry into a key), one recall (:meth:`ArtifactStore.invalidate`) and
one warm-reboot rule: nothing is dropped, because layout fingerprints
are recomputed on every look-up.  DESIGN.md §3.4 has the details.
"""

from __future__ import annotations

import operator
import zlib
from dataclasses import dataclass
from typing import Callable, Generator, NamedTuple, Optional, Sequence

from repro import params
from repro.ebpf.jit import JitBinary, RelocKind
from repro.ebpf.program import BpfProgram
from repro.ebpf.verifier import VerifierStats
from repro.errors import DeployError
from repro.obs.spans import Span

#: What the verifier reads of a map.
_map_geometry = operator.attrgetter("key_size", "value_size")


def verdict_key(
    program: BpfProgram, arch: str, maps: Sequence = (), ctx_size: int = 256
) -> tuple:
    """``(tag, arch, map names, map geometry, ctx size)``: everything a
    verdict and its image were reached under.  The image depends on the
    arch and the map names (its relocation symbols), the verdict also
    on each map's ``(key_size, value_size)`` and the context window."""
    return (
        program.tag(), arch, tuple(program.map_names),
        tuple(map(_map_geometry, maps)), ctx_size,
    )


def target_maps(codeflow, program: BpfProgram) -> list:
    """The maps ``program`` names, as deployed on ``codeflow``'s target
    (an XState's spec, or a boot-time GOT export's map); raises
    :class:`DeployError` when one is not deployed there."""
    maps = []
    for name in program.map_names:
        handle = codeflow.scratchpad.by_name(name)
        if handle is not None:
            maps.append(handle.spec)
            continue
        symbol = codeflow.sandbox.got.lookup(name)
        if symbol is None or not 0 <= symbol.token < len(codeflow.sandbox.maps):
            raise DeployError(
                f"program references map {name!r} but no XState of that name "
                f"is deployed on {codeflow.sandbox.name} (deploy_xstate first)"
            )
        maps.append(codeflow.sandbox.maps[symbol.token])
    return maps


def _content(binary: JitBinary) -> int:
    # The payload only: crc32(data + crc32(data)) is one residue for
    # every image, so the trailing CRC32 would collapse every key.
    return zlib.crc32(binary.code[:-4]) & 0xFFFFFFFF


@dataclass
class RegistryEntry:
    """Stage 1: one program's verdict and compiled image."""

    stats: VerifierStats
    binary: JitBinary


class Pin(NamedTuple):
    """Stage 3: one linked image pinned for serving."""

    linked: JitBinary
    link_key: tuple
    #: ``(RelocKind, symbol)`` pairs re-fingerprinted at every probe.
    relocs: tuple[tuple[RelocKind, str], ...]


class _Flight(NamedTuple):
    """One registry miss in flight, as its leader left it."""

    #: Fires with the :class:`RegistryEntry` -- the verdict -- or the
    #: compile's failure.
    done: object
    #: The image the JIT's work produced, and -- JIT under the verifier
    #: -- its charge process; the image may ship once that charge ran
    #: to its end, while the verifier's still runs.
    binary: Optional[JitBinary] = None
    jit: object = None


class Stage:
    """The one LRU: a dict whose order is recency, at most ``cap``
    entries.  :meth:`put` stores in place when the key is resident;
    every removal is an eviction, counted and handed to ``on_evict``.
    ``hits`` and ``misses`` are the owner's to count."""

    def __init__(self, cap: int, on_evict: Optional[Callable] = None):
        self.cap = cap
        self.entries: dict = {}
        self.hits = self.misses = self.evictions = 0
        self._on_evict = on_evict

    def __len__(self) -> int:
        return len(self.entries)

    def get(self, key):
        """``key``'s entry, touched as the most recent; None on a miss."""
        entry = self.entries.pop(key, None)
        if entry is not None:
            self.entries[key] = entry
        return entry

    def put(self, key, entry) -> None:
        self.entries[key] = entry
        while len(self.entries) > self.cap:
            self._evict(next(iter(self.entries)))

    def drop(self, doomed: Callable[[tuple], bool]) -> int:
        victims = [key for key in self.entries if doomed(key)]
        for key in victims:
            self._evict(key)
        return len(victims)

    def _evict(self, key) -> None:
        entry = self.entries.pop(key)
        self.evictions += 1
        if self._on_evict is not None:
            self._on_evict(key, entry)


class PinStage(Stage):
    """Stage 3, the warm pool: hits, misses by reason and evictions
    are counted and mirrored into the serve segment, if attached."""

    def __init__(self, store: "ArtifactStore"):
        super().__init__(params.WARM_POOL_CAP, on_evict=self._unpinned)
        self.store = store
        self.miss_reasons: dict[str, int] = {}
        self.segment = None
        #: verdict key -> fingerprints pinned for it (one probe reads
        #: one entry); holds each resident pin once.
        self._layouts: dict[tuple, set[int]] = {}

    def probe(
        self, codeflow, program: BpfProgram, parent_span: Optional[Span] = None
    ) -> Generator:
        """Process body: the :class:`Pin` serving ``program`` on
        ``codeflow``, or None, for one control-plane probe."""
        store = self.store
        yield from store.plane.host.cpu.run(params.RDX_WARM_POOL_LOOKUP_US)
        try:
            verdict = store.target_key(codeflow, program)
        except DeployError:  # the cold path raises the precise error
            return self._miss("unresolved")
        layouts = self._layouts.get(verdict)
        if not layouts:
            return self._miss("absent")
        # Every pin of one verdict has the same relocation symbols.
        relocs = self.entries[verdict + (next(iter(layouts)),)].relocs
        fingerprint = codeflow.layout_fingerprint(relocs)
        if fingerprint is None:
            return self._miss("unresolved")
        pin = self.get(verdict + (fingerprint,))
        if pin is None:
            return self._miss("layout-changed")
        self.hits += 1
        store.obs.counter("rdx.serve.warm.hit").inc()
        if self.segment is not None:
            self.segment.inc("warm.hit")
        if parent_span is not None:
            parent_span.attrs["warm"] = "hit"
        return pin

    def _miss(self, reason: str) -> None:
        self.misses += 1
        self.miss_reasons[reason] = self.miss_reasons.get(reason, 0) + 1
        self.store.obs.counter("rdx.serve.warm.miss", reason=reason).inc()
        if self.segment is not None:
            self.segment.inc("warm.miss")

    def admit(self, codeflow, program: BpfProgram, binary: JitBinary) -> None:
        """Pin the link a cold deploy just used, unless already pinned."""
        link_key = codeflow._last_link_key
        if link_key is None:
            return
        key = self.store.target_key(codeflow, program) + (link_key[2],)
        linked = self.store.linked.entries.get(link_key)
        if key not in self.entries and linked is not None:
            self._pin(key, link_key, binary, linked)

    def prewarm(
        self, codeflow, program: BpfProgram, maps=(), principal=None
    ) -> Generator:
        """Process body: prepare, link and pin ``program`` for
        ``codeflow``'s layout; returns whether it was pinned."""
        entry = yield from self.store.plane.prepare_for(
            codeflow, program, maps=maps, principal=principal
        )
        linked = yield from codeflow.link_code(entry.binary)
        link_key = codeflow._last_link_key
        if link_key is None:
            return False
        key = self.store.target_key(codeflow, program) + (link_key[2],)
        self._pin(key, link_key, entry.binary, linked)
        return True

    def invalidate(self, tag: Optional[str] = None) -> int:
        """:meth:`ArtifactStore.invalidate`, the pool's recall hook."""
        return self.store.invalidate(tag)

    def _pin(
        self, key: tuple, link_key: tuple, binary: JitBinary, linked: JitBinary
    ) -> None:
        self._layouts.setdefault(key[:-1], set()).add(key[-1])
        self.store.obs.counter("rdx.serve.warm.admit").inc()
        relocs = tuple((reloc.kind, reloc.symbol) for reloc in binary.relocations)
        self.put(key, Pin(linked, link_key, relocs))

    def _unpinned(self, key: tuple, _pin: Pin) -> None:
        layouts = self._layouts[key[:-1]]
        layouts.discard(key[-1])
        if not layouts:
            del self._layouts[key[:-1]]
        self.store.obs.counter("rdx.serve.warm.evict").inc()
        if self.segment is not None:
            self.segment.inc("warm.evict")


class ArtifactStore:
    """The three stages of the §3.2 artifact, owned by one control plane."""

    def __init__(self, plane):
        self.plane = plane
        self.obs = plane.obs
        self.registry = Stage(
            params.RDX_REGISTRY_CAP,
            on_evict=lambda _key, _entry: self.obs.counter("rdx.cache.evict").inc(),
        )
        self.linked = Stage(params.RDX_LINK_CACHE_CAP)
        self.pinned = PinStage(self)
        #: Verdict key -> the leader's :class:`_Flight` (single flight).
        self._inflight: dict[tuple, _Flight] = {}
        self.prepare_coalesced = 0
        #: Set by :meth:`serve`: ``inject`` then uses the pin stage.
        self.serving = False

    def serve(self, segment=None) -> PinStage:
        """Turn the pin stage on, mirrored into ``segment``; returns it."""
        self.serving = True
        self.pinned.segment = segment
        return self.pinned

    @staticmethod
    def target_key(codeflow, program: BpfProgram) -> tuple:
        """``program``'s verdict key with ``codeflow``'s target's maps."""
        return verdict_key(
            program, codeflow.manifest.arch, target_maps(codeflow, program)
        )

    def prepare(
        self, program: BpfProgram, maps: Sequence = (), arch: str = "x86_64",
        ctx_size: int = 256, principal=None, parent_span: Optional[Span] = None,
    ) -> Generator:
        """Process body: validate + compile through the registry; returns
        a :class:`RegistryEntry`.  Concurrent misses on one key share the
        first one's compile, and its failure.

        The schedule's ``jit_under_verify`` picks how a miss is
        charged, not what it runs: the verifier's work always comes
        first, so a rejected program raises at zero sim time without
        entering the JIT.  Both charges are built before either runs,
        so the flight is whole before this first yields.  The JIT's
        then runs after the verifier's, or on a second control-host
        core under it, which claims its core first -- on one core the
        two still add up.  Its image may then ship (:meth:`shippable`)
        once the JIT's charge ends, while the verifier's still runs.
        """
        key = verdict_key(program, arch, maps, ctx_size)
        entry = self.registry.get(key)
        if entry is not None:
            self.registry.hits += 1
            self.obs.counter("rdx.cache.hit").inc()
            return entry
        pending = self._inflight.get(key)
        if pending is not None:
            self.prepare_coalesced += 1
            self.obs.counter("rdx.prepare.coalesced").inc()
            entry = yield pending.done
            return entry
        self.registry.misses += 1
        self.obs.counter("rdx.cache.miss").inc()
        plane = self.plane
        done = plane.sim.event()
        try:
            stats, verify_charge = plane.validate(
                program, maps, ctx_size, principal, parent_span
            )
            binary, jit_charge = plane.jit(program, arch, principal, parent_span)
            jit = None
            if plane.config.schedule.jit_under_verify:
                jit = plane.sim.spawn(jit_charge, name="jit")
            self._inflight[key] = _Flight(done, binary, jit)
            try:
                yield from verify_charge
                if jit is None:
                    yield from jit_charge
                else:
                    yield jit
            except BaseException:
                if jit is not None:
                    jit.interrupt("compile abandoned")
                raise
        except BaseException as err:
            self._inflight.pop(key, None)
            done.fail(err)
            raise
        entry = RegistryEntry(stats, binary)
        self.registry.put(key, entry)
        self._inflight.pop(key, None)
        done.succeed(entry)
        return entry

    def shippable(self, key: tuple, verdict) -> Generator:
        """Process body: the image under verdict ``key`` once it may
        ship, or None.  A pipelined miss in flight ships when its JIT's
        charge ends, while the verifier's may still run; anything else
        (a registry hit, a rejected program, the serial arm) waits for
        ``verdict`` -- a prepare of ``key`` already started -- and ships
        its entry's image."""
        flight = self._inflight.get(key)
        if flight is not None and flight.jit is not None:
            yield flight.jit
            return flight.binary
        entry = yield verdict
        return None if entry is None else entry.binary

    def holds_verdict(self, codeflow, program: BpfProgram) -> bool:
        """Whether a verdict of ``program`` for ``codeflow``'s target is
        resident -- a registry entry, or a pin under its verdict key --
        looked up at zero sim time with no LRU touch and no count.
        False when the program's maps do not resolve there."""
        try:
            key = self.target_key(codeflow, program)
        except DeployError:
            return False
        return key in self.registry.entries or key in self.pinned._layouts

    def compiled_image(self, codeflow, program: BpfProgram) -> Optional[JitBinary]:
        """The registry's image of ``program`` as verified for
        ``codeflow``'s target (not touched), or None."""
        try:
            entry = self.registry.entries.get(self.target_key(codeflow, program))
        except DeployError:
            return None
        return None if entry is None else entry.binary

    @staticmethod
    def link_key(codeflow, binary: JitBinary) -> Optional[tuple]:
        """``(content CRC, arch, GOT-layout fingerprint)``, or None when
        a symbol does not resolve (the linker then raises)."""
        fingerprint = codeflow.layout_fingerprint(
            (reloc.kind, reloc.symbol) for reloc in binary.relocations
        )
        if fingerprint is None:
            return None
        return (_content(binary), binary.arch, fingerprint)

    def linked_image(self, key: tuple) -> Optional[JitBinary]:
        """The link stage's image under ``key`` (touched, counted), or None."""
        linked = self.linked.get(key)
        if linked is None:
            self.linked.misses += 1
            self.obs.counter("rdx.link.cache_miss").inc()
        else:
            self.linked.hits += 1
            self.obs.counter("rdx.link.cache_hit").inc()
        return linked

    def invalidate(self, tag: Optional[str] = None) -> int:
        """Recall ``tag`` (every program when None) from every stage,
        the link stage by the images the tag's other entries name;
        returns the pins dropped."""

        def recalled(key: tuple) -> bool:
            return tag is None or key[0] == tag

        images = {
            _content(entry.binary)
            for key, entry in self.registry.entries.items() if recalled(key)
        }
        images.update(
            pin.link_key[0]
            for key, pin in self.pinned.entries.items() if recalled(key)
        )
        self.registry.drop(recalled)
        self.linked.drop(lambda key: tag is None or key[0] in images)
        return self.pinned.drop(recalled)
