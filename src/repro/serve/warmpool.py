"""The warm linked-image pool (KubeCodeRun-style warm path).

The PR-4 linked-image cache removes per-relocation rewriting from a
repeat deploy, but its key needs the *compiled* binary (content CRC),
so a cache hit still walks prepare: policy checks, registry probe,
span bookkeeping.  The warm pool extends that cache one level up: it
keys pre-linked popular extensions by ``(program tag, arch, map
geometry, GOT-layout fingerprint)`` -- all derivable from the deploy
request and the target's own books -- so a warm hit resolves to
ready-to-ship bytes before validate, JIT, or link ever run, and the
deploy rides the pipelined WR chain directly.

A hit skips validation, so the key carries everything the verdict
depended on: the tag (instructions) and the ``(key_size, value_size)``
of every map the program names *on this target*, exactly as the
compile registry does.  A same-named map of another shape at the same
address is a miss, not a stale verdict.

Staleness has the same contract as the link cache: the fingerprint
covers *resolved addresses*, and the pool recomputes it against the
target's live layout on every lookup.  Address churn (warm reboot,
scratchpad reuse) changes the fingerprint, so a stale entry can never
be served -- it just misses (reason ``layout-changed``), exactly like
``test_address_reuse_after_warm_reboot_misses`` pins for the cache.

Every hit, miss (by reason), and eviction is counted in the metrics
registry and mirrored into the serve telemetry segment so an external
monitor can scrape them with one-sided READs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generator, Optional

from repro import params
from repro.core.control_plane import target_map_geometry
from repro.ebpf.jit import JitBinary, RelocKind
from repro.errors import DeployError
from repro.obs import telemetry_of
from repro.obs.spans import Span


@dataclass
class WarmImage:
    """One pre-linked extension resident in the pool."""

    #: The ready-to-deploy linked image.
    linked: JitBinary
    #: Full link-cache key ``(content CRC, arch, fingerprint)`` --
    #: stamped onto the codeflow on a hit so downstream consumers
    #: (stub-rendezvous skip, delta certification) behave exactly as
    #: they would after a link-cache hit.
    link_key: tuple
    #: ``(RelocKind, symbol)`` pairs re-resolved at lookup time; the
    #: recomputed fingerprint must match the one in the entry's pool
    #: key for it to be served.
    relocs: tuple[tuple[RelocKind, str], ...] = ()
    hits: int = 0


#: Max entries the pool retains by default (LRU).  One entry per
#: popular extension per distinct target layout, so this bounds
#: control-plane memory the way ``RDX_LINK_CACHE_CAP`` does.
WARM_POOL_CAP = 512
#: Cold deploys of one (tag, arch, layout) before the pool admits it.
#: 1 = admit on first sight; higher values reserve pool slots for
#: genuinely popular extensions.
WARM_POOL_ADMIT_DEPLOYS = 1


class WarmLinkedImagePool:
    """LRU pool of pre-linked popular extensions on a control plane.

    Install with :meth:`attach` (or via
    :class:`repro.serve.DeployService`, which does it for you); the
    control plane's ``inject`` then probes the pool before running the
    cold pipeline and feeds completed cold deploys back through
    :meth:`note_deploy` for popularity-based admission.
    """

    def __init__(
        self,
        control_plane,
        cap: int = WARM_POOL_CAP,
        admit_after: int = WARM_POOL_ADMIT_DEPLOYS,
        segment=None,
    ):
        self.control_plane = control_plane
        self.sim = control_plane.sim
        self.obs = telemetry_of(self.sim)
        self.cap = cap
        self.admit_after = admit_after
        #: Optional serve telemetry segment mirror (one-sided scrape).
        self.segment = segment
        #: (tag, arch, geometry, fingerprint) -> WarmImage; dict order
        #: is the LRU recency list, same idiom as the registry + link
        #: cache.
        self.entries: dict[tuple, WarmImage] = {}
        #: (tag, arch, geometry) -> fingerprints resident for that
        #: program, so a lookup probes one index entry instead of
        #: scanning the pool.
        self._by_prog: dict[tuple, set[int]] = {}
        #: pool key -> cold deploys observed; admission threshold
        #: counter.
        self._popularity: dict[tuple, int] = {}
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        #: reason -> count; every miss is attributed.
        self.miss_reasons: dict[str, int] = {}

    def __len__(self) -> int:
        return len(self.entries)

    def attach(self) -> "WarmLinkedImagePool":
        """Install this pool on its control plane; returns self."""
        self.control_plane.warm_pool = self
        return self

    # -- the warm path -----------------------------------------------------

    def lookup(
        self, codeflow, program, parent_span: Optional[Span] = None
    ) -> Generator:
        """Process body: probe the pool for ``program`` on ``codeflow``.

        Returns the pre-linked :class:`JitBinary` on a hit (with the
        codeflow's link-cache state stamped, so the deploy skips
        the stub rendezvous and delta eligibility still certifies), or
        ``None`` on a miss.  Charges one control-plane probe
        (:data:`~repro.params.RDX_WARM_POOL_LOOKUP_US`): an index
        lookup plus re-fingerprinting the entry's relocations against
        the target's current layout.
        """
        yield from self.control_plane.host.cpu.run(
            params.RDX_WARM_POOL_LOOKUP_US
        )
        try:
            identity = self._identity(codeflow, program)
        except DeployError:
            # A named map is not deployed here; the cold path raises
            # the precise error.
            return self._miss("unresolved")
        fingerprints = self._by_prog.get(identity)
        if not fingerprints:
            return self._miss("absent")
        # Every entry of one identity shares the same relocation
        # symbols (same program, same JIT), so one candidate's relocs
        # resolve the target's current fingerprint for all of them.
        candidate = self.entries[identity + (next(iter(fingerprints)),)]
        fingerprint = codeflow.layout_fingerprint(candidate.relocs)
        if fingerprint is None:
            return self._miss("unresolved")
        if fingerprint not in fingerprints:
            # Layout churn (e.g. warm reboot reused addresses): the
            # resident image would be byte-wrong here.  Same semantics
            # as a link-cache miss after reboot.
            return self._miss("layout-changed")
        key = identity + (fingerprint,)
        entry = self.entries[key]
        self.entries[key] = self.entries.pop(key)  # LRU touch
        entry.hits += 1
        self.hits += 1
        self.obs.counter("rdx.serve.warm.hit").inc()
        if self.segment is not None:
            self.segment.inc("warm.hit")
        if parent_span is not None:
            parent_span.attrs["warm"] = "hit"
        # Stamp the link-cache state a fresh link would have produced:
        # the pipelined deploy skips the stub rendezvous, and a delta
        # redeploy can certify the layout from _last_link_key.
        codeflow._last_link_cached = True
        codeflow._last_link_key = entry.link_key
        return entry.linked

    @staticmethod
    def _identity(codeflow, program) -> tuple:
        """``(tag, arch, map geometry)``: what one verdict + compile
        may be reused for on ``codeflow``'s target."""
        return (
            program.tag(),
            codeflow.manifest.arch,
            target_map_geometry(codeflow, program),
        )

    def _miss(self, reason: str) -> None:
        self.misses += 1
        self.miss_reasons[reason] = self.miss_reasons.get(reason, 0) + 1
        self.obs.counter("rdx.serve.warm.miss", reason=reason).inc()
        if self.segment is not None:
            self.segment.inc("warm.miss")
        return None

    # -- admission ----------------------------------------------------------

    def note_deploy(self, program, codeflow, binary: JitBinary) -> None:
        """Feed one completed *cold* deploy into popularity accounting.

        Called by the control plane after the full pipeline ran.  Once
        a ``(tag, arch, geometry, layout)`` has been cold-deployed
        ``admit_after`` times, its freshly linked image (already in
        the link cache) is promoted into the pool.
        """
        key = codeflow._last_link_key
        if key is None:
            return
        pool_key = self._identity(codeflow, program) + (key[2],)
        count = self._popularity.get(pool_key, 0) + 1
        self._popularity[pool_key] = count
        if count < self.admit_after or pool_key in self.entries:
            return
        linked = self.control_plane.linked_images.get(key)
        if linked is None:
            return
        self._admit(pool_key, key, binary, linked)

    def prewarm(self, codeflow, program, maps=(), principal=None) -> Generator:
        """Process body: pre-link ``program`` for ``codeflow``'s layout.

        The off-critical-path admission: runs prepare + link (cached,
        single-flight) without deploying, then force-admits the result
        regardless of popularity.  A fleet's dominant layouts can be
        warmed at service start so even a program's *first* deploy to
        a target is a warm hit.
        """
        entry = yield from self.control_plane.prepare_for(
            codeflow, program, maps=maps, principal=principal
        )
        linked = yield from codeflow.link_code(entry.binary)
        key = codeflow._last_link_key
        if key is None:
            return False
        self._admit(
            self._identity(codeflow, program) + (key[2],), key,
            entry.binary, linked,
        )
        return True

    def _admit(
        self, pool_key: tuple, link_key: tuple, binary: JitBinary,
        linked: JitBinary,
    ) -> None:
        self.entries[pool_key] = WarmImage(
            linked=linked,
            link_key=link_key,
            relocs=tuple(
                (reloc.kind, reloc.symbol) for reloc in binary.relocations
            ),
        )
        self._by_prog.setdefault(pool_key[:-1], set()).add(pool_key[-1])
        self.obs.counter("rdx.serve.warm.admit").inc()
        while len(self.entries) > self.cap:
            victim_key = next(iter(self.entries))
            self._evict(victim_key)

    def _evict(self, pool_key: tuple) -> None:
        self.entries.pop(pool_key)
        identity, fingerprint = pool_key[:-1], pool_key[-1]
        survivors = self._by_prog.get(identity)
        if survivors is not None:
            survivors.discard(fingerprint)
            if not survivors:
                del self._by_prog[identity]
        self.evictions += 1
        self.obs.counter("rdx.serve.warm.evict").inc()
        if self.segment is not None:
            self.segment.inc("warm.evict")

    def invalidate(self, tag: Optional[str] = None) -> int:
        """Drop entries (all, or one program's); returns the count.

        Operational hook for explicit invalidation (a recalled
        extension version); counted as evictions so the scrape-side
        totals stay truthful.
        """
        victims = [
            key for key in self.entries if tag is None or key[0] == tag
        ]
        for key in victims:
            self._evict(key)
        return len(victims)
