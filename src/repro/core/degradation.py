"""User-defined degradation policies (Section III-E, automated).

The paper observes that when a secondary crashes "the primary can adjust
the predicate to eliminate the impact" — but leaves *what* adjustment to
the system designer.  A :class:`DegradationPolicy` is that designer hook:
the Stabilizer invokes it when the failure detector suspects a peer and
again when the peer recovers, and the policy decides how registered
predicates degrade and re-strengthen.

:class:`MaskSuspectedPolicy` is the stock policy most applications want:
it rewrites every dependent predicate through the existing
``change_predicate`` path so the suspected node stops gating stability
(a set-difference rewrite), and restores the pristine definitions once
every suspected node has recovered.  The gap rule keeps monitors silent
while a restored, stricter predicate catches back up — so re-inclusion
never shows a frontier regression to the application.

Install with :meth:`repro.core.stabilizer.Stabilizer.set_degradation_policy`;
every transition is timestamped in the stabilizer's degradation log and
counted in ``stats()``.
"""

from __future__ import annotations

import re
from typing import Dict, List, Set, TYPE_CHECKING

from repro.errors import DslSemanticError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.stabilizer import Stabilizer


class DegradationPolicy:
    """Decides how predicates degrade when peers fail.

    Subclass and override both hooks; the base class is a no-op (suspicion
    is still tracked and logged, predicates are left alone — the
    pre-policy behaviour where strict predicates simply stop advancing).
    """

    def on_suspect(self, stabilizer: "Stabilizer", peer: str) -> None:
        """``peer`` is suspected dead: degrade predicates as desired."""

    def on_recover(self, stabilizer: "Stabilizer", peer: str) -> None:
        """``peer`` is alive again: undo the degradation for it."""

    def excluded_nodes(self) -> Set[str]:
        """Nodes this policy currently excludes from predicates."""
        return set()


class MaskSuspectedPolicy(DegradationPolicy):
    """Mask suspected nodes out of every dependent predicate.

    When a peer is suspected, every registered predicate that *depends
    on* it is re-registered with the peer's contribution masked out (see
    :meth:`_mask`); when no peer remains suspected, the pristine
    definitions are restored.  A policy binds to the first stabilizer
    that calls it and serves only that one.

    Parameters
    ----------
    protect:
        Predicate keys never to rewrite (e.g. an exact quorum the
        application reasons about itself).
    """

    def __init__(self, protect: Set[str] = frozenset()):
        self.protect = set(protect)
        self.stabilizer = None  # bound by the first hook
        self._originals: Dict[str, str] = {}  # key -> pristine source
        self._masked: Set[str] = set()  # currently masked-out node names
        self.adjustments = 0
        self.restorations = 0

    def _bind(self, stabilizer: "Stabilizer") -> "Stabilizer":
        if self.stabilizer is None:
            self.stabilizer = stabilizer
        elif self.stabilizer is not stabilizer:
            raise ValueError("one MaskSuspectedPolicy serves one Stabilizer")
        return stabilizer

    def on_suspect(self, stabilizer: "Stabilizer", peer: str) -> None:
        """Exclude ``peer`` from every unprotected dependent predicate.

        A peer outside the stabilizer's node list is out of scope — under
        partial replication a shard view only contains the shard's owner
        set, and suspicion of a non-owner is not evidence about this
        shard — so the call is a no-op rather than a config error."""
        if peer in self._bind(stabilizer).config.node_names:
            self._masked.add(peer)
            self._rewrite_all()

    def on_recover(self, stabilizer: "Stabilizer", peer: str) -> None:
        """Re-include ``peer``; restores pristine predicate definitions
        once no node remains masked.  Out-of-scope peers are a no-op,
        mirroring :meth:`on_suspect`."""
        if peer in self._bind(stabilizer).config.node_names:
            self._masked.discard(peer)
            self._rewrite_all()

    def excluded_nodes(self) -> Set[str]:
        return set(self._masked)

    def adjusted_keys(self) -> List[str]:
        return sorted(self._originals)

    # ------------------------------------------------------------------ masking
    def _masked_names(self, source: str) -> List[str]:
        """The masked nodes ``source`` depends on, sorted."""
        compile = self.stabilizer.engine.compiler.compile
        node_index = self.stabilizer.config.node_index
        return [
            name for name in sorted(self._masked)
            if compile(source).depends_on(node_index(name))
        ]

    def _rewrite_all(self) -> None:
        engine = self.stabilizer.engine
        for key in list(engine.predicate_keys()):
            if key in self.protect:
                continue
            original = self._originals.get(key, engine.predicate(key).source)
            if not self._masked:
                # Everyone healthy: restore pristine definitions.
                if key in self._originals:
                    engine.change_predicate(key, original)
                    del self._originals[key]
                    self.restorations += 1
                continue
            masked_names = self._masked_names(original)
            if not masked_names:
                continue
            try:
                engine.change_predicate(key, self._mask(original, masked_names))
            except DslSemanticError:
                # Masking would empty a set (e.g. the whole AZ is down);
                # leave the predicate alone — it simply cannot advance.
                continue
            if key not in self._originals:
                self._originals[key] = original
            self.adjustments += 1
        # Re-evaluate against current tables so waiters blocked on the
        # crashed peer release immediately.
        for origin in self.stabilizer.tables:
            engine.reevaluate(origin)

    @staticmethod
    def _mask(source: str, names: List[str]) -> str:
        """Rewrite ``source`` so the given nodes stop gating stability.

        Every ``$ALLWNODES`` (and ``$MYAZWNODES``, ``$SHARDWNODES``,
        ``$SHARDNODES``) becomes ``($ALLWNODES - $WNODE_a - ...)``, and
        explicit references to a masked node are replaced by
        ``$MYWNODE``, whose row always holds the origin's high-water mark
        for its own stream — the set-difference rewrite, applied to the
        source so arbitrarily complex predicates are handled.
        """
        out = source
        # Named references first (before we introduce our own $WNODE_x
        # terms in the subtractions); word-boundary substitution so
        # $WNODE_a does not match $WNODE_ab.
        for name in names:
            out = re.sub(
                rf"\$WNODE_{re.escape(name)}(?![A-Za-z0-9_])",
                "$MYWNODE",
                out,
            )
        subtraction = "".join(f" - $WNODE_{name}" for name in names)
        out = out.replace("$ALLWNODES", f"($ALLWNODES{subtraction})")
        out = out.replace("$MYAZWNODES", f"($MYAZWNODES{subtraction})")
        out = out.replace("$SHARDWNODES", f"($SHARDWNODES{subtraction})")
        out = out.replace("$SHARDNODES", f"($SHARDNODES{subtraction})")
        return out

    def rebase_original(self, key: str, source: str) -> str:
        """Adopt ``source`` as ``key``'s new pristine definition and
        return the variant to install *right now*.

        The composition hook for controllers that legitimately redefine
        predicates while masking may be active (the SLA controller's
        relaxation ladder): without it, a level change would either
        clobber the masking rewrite or be clobbered by the next
        unmask-restore.  With it, the policy records ``source`` as what
        restoration should return to, and hands back the masked variant
        when nodes are currently masked (the pristine source otherwise,
        or when masking it would empty a set).
        """
        if key in self.protect or not self._masked:
            self._originals.pop(key, None)
            return source
        masked_names = self._masked_names(source)
        if not masked_names:
            self._originals.pop(key, None)
            return source
        masked = self._mask(source, masked_names)
        try:
            self.stabilizer.engine.compiler.compile(masked)
        except DslSemanticError:
            self._originals.pop(key, None)
            return source
        self._originals[key] = source
        return masked
