"""Automatic predicate adjustment on suspected failures (Section III-E).

"The crashed secondary node can be observed by a predicate update timer
or the data transmission failure information.  The primary can adjust the
predicate to eliminate the impact."  The paper leaves the adjustment to
the system designer; :class:`PredicateAutoAdjuster` is the rewrite behind
the common policy:

- when a peer is suspected, every registered predicate that *depends on*
  that peer is re-registered with the peer's table row masked out of the
  evaluation (its cells read as "infinitely acknowledged", so MIN/KTH
  reductions skip it — the set-difference rewrite, applied at the IR
  level so arbitrarily complex predicates are handled);
- when the peer is heard from again, the original predicates are
  restored (the paper's gap rule means monitors stay silent until the
  restored, stricter predicate catches up).

The stock :class:`~repro.core.degradation.MaskSuspectedPolicy` drives it:
install that with :meth:`~repro.core.stabilizer.Stabilizer.set_degradation_policy`
(every transition then lands in the degradation log and ``stats()``), and
reach the policy's adjuster with
:meth:`~repro.core.degradation.MaskSuspectedPolicy.adjuster_for`.
"""

from __future__ import annotations

import re
from typing import Dict, List, Set

from repro.core.stabilizer import Stabilizer
from repro.errors import DslSemanticError


class PredicateAutoAdjuster:
    """See module docstring."""

    def __init__(self, stabilizer: Stabilizer, protect: Set[str] = frozenset()):
        self.stabilizer = stabilizer
        #: predicate keys never to touch (e.g. an exact quorum the
        #: application reasons about itself).
        self.protect = set(protect)
        self._originals: Dict[str, str] = {}  # key -> pristine source
        self._masked: Set[str] = set()  # currently masked-out node names
        self.adjustments = 0
        self.restorations = 0

    # ------------------------------------------------------------------ events
    def mask_node(self, peer: str) -> None:
        """Exclude ``peer`` from every unprotected dependent predicate
        (the degradation policy calls it on suspicion).

        A peer outside this stabilizer's node list is out of scope — under
        partial replication a shard view only contains the shard's owner
        set, and suspicion of a non-owner is not evidence about this
        shard — so the call is a no-op rather than a config error."""
        if peer not in self.stabilizer.config.node_names:
            return
        self._masked.add(peer)
        self._rewrite_all()

    def unmask_node(self, peer: str) -> None:
        """Re-include ``peer``; restores pristine predicate definitions
        once no node remains masked.  Out-of-scope peers are a no-op,
        mirroring :meth:`mask_node`."""
        if peer not in self.stabilizer.config.node_names:
            return
        self._masked.discard(peer)
        self._rewrite_all()

    # ------------------------------------------------------------------ rewriting
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
            masked_names = [
                name
                for name in sorted(self._masked)
                if engine.compiler.compile(original).depends_on(
                    self.stabilizer.config.node_index(name)
                )
            ]
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

    def _mask(self, source: str, names: List[str]) -> str:
        """Rewrite ``source`` so the given nodes stop gating stability.

        The semantics-preserving trick: take MAX of the original value and
        a *relaxed* variant where each suspected node's contribution is
        replaced by the stream's local high-water mark.  Implemented
        textually as a set-difference wrapper when the source permits, and
        otherwise by substituting ``$WNODE_x`` terms — both covered by
        tests.  Simple and predictable: every ``$ALLWNODES`` becomes
        ``($ALLWNODES - $WNODE_a - ...)`` and explicit references to a
        masked node are replaced by ``$MYWNODE`` (whose row always holds
        the origin's high-water mark for its own stream).
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
        unmask-restore.  With it, the adjuster records ``source`` as what
        restoration should return to, and hands back the masked variant
        when nodes are currently masked (the pristine source otherwise,
        or when masking it would empty a set).
        """
        if key in self.protect or not self._masked:
            self._originals.pop(key, None)
            return source
        masked_names = [
            name
            for name in sorted(self._masked)
            if self.stabilizer.engine.compiler.compile(source).depends_on(
                self.stabilizer.config.node_index(name)
            )
        ]
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

    # ------------------------------------------------------------------ inspection
    def masked_nodes(self) -> Set[str]:
        return set(self._masked)

    def adjusted_keys(self) -> List[str]:
        return sorted(self._originals)
