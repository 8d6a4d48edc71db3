"""The frontier engine: predicate registry, monitors, and waiters.

Each incoming stability report drives "the re-evaluation of stability
frontier predicates, with each WAN site independently evaluating its
predicates as they evolve over time" (Section I).  The engine owns:

- the predicate registry (``register_predicate`` / ``change_predicate``);
- the *active* predicate key applications switch between;
- frontier values per (origin stream, predicate key);
- monitors — callbacks fired with each new frontier value;
- waiters — one-shot callbacks released once a frontier reaches a target.

Evaluation is **incremental**.  The paper keeps stability tracking off
the critical path by making each predicate "one cheap call"; we go
further and avoid most calls entirely:

- A reverse dependency index maps each ACK-table cell ``(node, type)``
  to the predicates that read it, so a one-cell control report touches
  only those predicates (``skipped_by_index`` counts the rest).
- Algebraic short-circuits derived from the compiled IR skip or replace
  full evaluations (``skipped_by_shortcircuit`` / ``fast_advances``):
  a tree of ``MAX`` advances directly to the new cell value when it
  exceeds the cached frontier and is untouched otherwise; any other
  arithmetic-free tree of ``MIN`` / ``MAX`` / ``KTH_*``, nested or not,
  is re-evaluated only when an updated cell is in the *witness set* —
  the cells whose value was ``<=`` the last result (the lemma is at
  :func:`~repro.dsl.compiler.classify_shortcircuit`).  Both rules rely
  on the ACK table's monotonicity (cells never regress); anything the
  IR cannot prove (arithmetic) falls back to a full evaluation.
- Waiters live in a per-``(origin, key)`` min-heap keyed on sequence
  number, so a release pops only the released waiters instead of
  scanning every pending one.

A report names the row it moved and its risen cells; a full pass names
neither and evaluates every observed predicate.  An observed slot has
one value, in ``_frontiers``.  Its entry in ``_slots`` — the witness set
of its last full evaluation, or None for a predicate without one — says
that value was evaluated under the key's current definition, so the
short-circuits may trust it.  A redefinition (``change_predicate``) and
a restore (``restore_frontiers``) drop those entries, and the next
report over such a slot evaluates it in full.

``FrontierEngine(..., incremental=False)`` keeps the pre-index behaviour
(scan every predicate, evaluate every dependent one) as the brute-force
baseline for the equivalence tests and the ``hotpath`` experiment.

Evaluation is also **demand-driven**.  The paper's interface to stability
is three calls — ``waitfor``, ``monitor_stability_frontier``,
``get_stability_frontier`` — so a frontier only has to be *pushed* where
one of them is listening.  A slot ``(origin, key)`` is **observed** when
its key has a monitor, the slot has a pending waiter, the origin is the
local node (the send→stable instruments hang off its advances), or a
tracer is bound (every advance is an event).  Observed slots run the
eager incremental path above on every table update.  Every other slot is
a *pull* value: an update for an origin nobody observes costs its writer
one membership test in :attr:`FrontierEngine.watched` and the engine no
call at all (``reevaluate`` itself returns at its first line for such an
origin), and ``frontier()``, ``add_waiter``,
the first monitor and the snapshots evaluate ``predicate(table)`` when
they ask.  A slot that becomes observed is seeded — value, witness and
monitor high-water mark — from that evaluation, so the eager path
continues from a correct cache; a slot whose last waiter is released
drops its cache and is pulled again.  This is why the engine holds the
node's table map instead of being handed a table per call.

The engine is deliberately runtime-agnostic: it never touches the
simulator.  The Stabilizer facade adapts waiters to events.
"""

from __future__ import annotations

import heapq
from types import MappingProxyType
from typing import (
    Callable,
    Dict,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.dsl.compiler import CompiledPredicate, PredicateCompiler
from repro.dsl.semantics import DslContext
from repro.errors import PredicateNotFound, StabilizerError
from repro.obs.tracer import NULL_TRACER

MonitorFn = Callable[[str, int, int], None]  # (origin, frontier, old_frontier)
WaiterFn = Callable[[], None]

Cell = Tuple[int, int]  # (node, type_id)
CellUpdate = Tuple[int, int]  # (type_id, new_seq) for the updated node
Slot = Tuple[str, str]  # (origin, predicate key)

#: ``watched[origin]`` when every registered key of the origin is observed.
_EVERY_KEY = object()
#: What ``reevaluate`` returns when nothing was evaluated: shared and
#: read-only, so the unobserved path allocates nothing.
_NO_ADVANCE: Mapping[str, int] = MappingProxyType({})


class FrontierEngine:
    """See module docstring.  One engine per Stabilizer instance."""

    def __init__(
        self,
        ctx: DslContext,
        tables: Mapping[str, AckTable],
        incremental: bool = True,
    ):
        self.ctx = ctx
        #: The node's live per-origin ACK tables (held, never copied).
        self.tables = tables
        self.compiler = PredicateCompiler(ctx)
        self.incremental = incremental
        self._local = ctx.local
        self._predicates: Dict[str, CompiledPredicate] = {}
        self._active_key: Optional[str] = None
        # frontier[(origin, key)] -> last evaluated value.  Observed
        # slots only: an unobserved slot has no entry here or in _slots.
        self._frontiers: Dict[Slot, int] = {}
        # Highest value ever reported to monitors per slot.  The raw
        # frontier may regress after change_predicate (the gap rule);
        # monitors must stay silent until the new definition catches back
        # up past everything they already saw.
        self._monitor_high: Dict[Slot, int] = {}
        # slot -> witness set (None without one): its value is the current
        # definition's, so the short-circuits may trust it.
        self._slots: Dict[Slot, Optional[Set[Cell]]] = {}
        # Reverse dependency index: cell -> keys, node -> keys.
        self._cell_index: Dict[Cell, List[str]] = {}
        self._node_index: Dict[int, List[str]] = {}
        self._monitors: Dict[str, List[MonitorFn]] = {}
        # Waiter min-heaps: (seq, insertion tiebreak, callback).
        self._waiters: Dict[Slot, List[Tuple[int, int, WaiterFn]]] = {}
        self._waiter_counter = 0
        self._observe_all = False
        #: origin -> its observed keys (a set, or every key); an origin
        #: with no observed slot is absent — so ``origin in watched`` is
        #: whether a table update for ``origin`` is worth a
        #: :meth:`reevaluate` call.  Derived by ``_rewatch`` from the
        #: monitors, the pending waiters, the local origin and the tracer
        #: binding, which *replaces* the dict: read it, never keep it.
        self.watched: Dict[str, object] = {}
        #: Predicate calls performed, eager and on read alike.
        self.evaluations = 0
        #: The share of ``evaluations`` made for an unobserved slot because
        #: someone asked (a read, a first waiter or monitor, a snapshot).
        self.evaluations_on_read = 0
        self.skipped_by_index = 0
        self.skipped_by_shortcircuit = 0
        self.fast_advances = 0
        # Observability: optional advance callback (the Stabilizer wires
        # its stability-latency instruments here) and a tracer.  Both
        # default to inert so the engine stays runtime-agnostic and the
        # hot path pays one flag/None check per advance.
        self.on_advance: Optional[Callable[[str, str, int], None]] = None
        # Demand, for whoever routes by it (the ACK-table engine asks its
        # peers for live reports about observed origins only): called
        # after the set of observed slots changed, and with the origin
        # when an unobserved slot is read.
        self.on_watch_change: Optional[Callable[[], None]] = None
        self.on_unobserved_read: Optional[Callable[[str], None]] = None
        self._tracer = NULL_TRACER
        self._trace_node = ""
        self._rewatch()

    def bind_obs(self, tracer, node: str) -> None:
        """Attach a :class:`~repro.obs.tracer.Tracer` (emits under ``node``).

        A bound tracer observes every slot, enabled or not: its flag can
        be flipped at any instant, and from then on each
        ``frontier.advance`` must carry the value the slot really had
        before — which only a cache that never missed an update can give.
        """
        self._tracer = tracer
        self._trace_node = node
        if tracer is not NULL_TRACER and not self._observe_all:
            for slot, value in self._unobserved_values():
                self._seed(slot, value)
            self._observe_all = True
            self._rewatch()

    # -- registry ---------------------------------------------------------------
    def register_predicate(self, key: str, source: str) -> CompiledPredicate:
        """JIT-compile ``source`` and install it under ``key``.

        Registering an existing key is an error; use
        :meth:`change_predicate` to redefine.
        """
        if key in self._predicates:
            raise StabilizerError(
                f"predicate {key!r} already registered; use change_predicate"
            )
        predicate = self.compiler.compile(source)
        self._predicates[key] = predicate
        self._rebuild_index()
        if self._active_key is None:
            self._active_key = key
        return predicate

    def change_predicate(self, key: str, source: Optional[str] = None) -> None:
        """Switch the active predicate to ``key``; optionally redefine it.

        With ``source`` given, the predicate under ``key`` is recompiled —
        the dynamic-reconfiguration path of Section VI-D.  The paper notes
        a redefinition may move the frontier backwards ("there might be a
        gap when the predicate shifts"); monitors stay silent until the new
        frontier exceeds the highest value already reported.
        """
        if source is not None:
            predicate = self.compiler.compile(source)
            self._drop_slots(key)
            self._predicates[key] = predicate
            self._rebuild_index()
        elif key not in self._predicates:
            raise PredicateNotFound(f"no predicate registered under {key!r}")
        self._active_key = key

    def _drop_slots(self, key: str) -> None:
        """``key``'s current definition is about to go: forget what was
        cached under it.

        An unobserved slot has no cache to forget, but the gap rule still
        covers it — a monitor attached later must stay silent up to
        whatever the outgoing definition had reached, exactly as if the
        slot had been evaluated all along.  So that value is folded into
        the monitor high-water mark here, while the definition can still
        be asked.
        """
        for slot in [s for s in self._slots if s[1] == key]:
            del self._slots[slot]
        for slot, value in self._unobserved_values((key,)):
            self._raise_monitor_high(slot, value)

    def _raise_monitor_high(self, slot: Slot, value: int) -> None:
        if value > self._monitor_high.get(slot, 0):
            self._monitor_high[slot] = value

    def _rebuild_index(self) -> None:
        """Recompute cell -> predicates and node -> predicates.

        Registration and redefinition are cold-path events; a full O(P·L)
        rebuild keeps the hot path free of incremental bookkeeping.  The
        watch map names registered keys only, so it is rebuilt with it.
        """
        cell_index: Dict[Cell, List[str]] = {}
        node_index: Dict[int, List[str]] = {}
        for key, predicate in self._predicates.items():
            for cell in predicate.cells:
                cell_index.setdefault(cell, []).append(key)
            for node in predicate.nodes:
                node_index.setdefault(node, []).append(key)
        self._cell_index = cell_index
        self._node_index = node_index
        self._rewatch()

    # -- observation ---------------------------------------------------------------
    def _observed(self, origin: str, key: str) -> bool:
        """Whether anyone is listening to slot ``(origin, key)``."""
        return (
            self._observe_all
            or origin == self._local
            or key in self._monitors
            or (origin, key) in self._waiters
        )

    def _rewatch(self) -> None:
        """Recompute ``origin -> observed keys``, the map ``reevaluate``
        consults first.  Runs when a monitor, a waiter heap, a predicate
        or the tracer binding comes or goes — never per table update."""
        if self._observe_all:
            watched: Dict[str, object] = dict.fromkeys(self.tables, _EVERY_KEY)
        else:
            monitored = [key for key in self._predicates if key in self._monitors]
            watched = {}
            if monitored:
                watched = {origin: set(monitored) for origin in self.tables}
            for origin, key in self._waiters:
                if origin in self.tables and key in self._predicates:
                    watched.setdefault(origin, set()).add(key)
            if self._local in self.tables:
                watched[self._local] = _EVERY_KEY
        self.watched = watched
        if self.on_watch_change is not None:
            self.on_watch_change()

    def _evaluate_on_read(self, origin: str, key: str) -> int:
        """The pull path: ``predicate(table)`` now, for an unobserved slot.
        Zero for an unknown origin or key, as a never-evaluated slot reads."""
        predicate = self._predicates.get(key)
        table = self.tables.get(origin)
        if predicate is None or table is None:
            return 0
        self.evaluations += 1
        self.evaluations_on_read += 1
        return predicate.evaluate(table.table)

    def _seed(self, slot: Slot, value: int) -> None:
        """``slot`` is becoming observed and ``value`` was just evaluated
        for it: install the cache the eager path would hold had it run
        all along.  The monitor high-water mark rises to ``value`` because
        those advances happened, unreported — a monitor is told what
        moves from now on, not what it missed."""
        origin, key = slot
        predicate = self._predicates.get(key)
        table = self.tables.get(origin)
        if predicate is None or table is None:
            return  # e.g. a waiter on a stream this node does not carry
        self._frontiers[slot] = value
        self._slots[slot] = self._witness(predicate, table.table, value)
        self._raise_monitor_high(slot, value)

    def _unobserved_values(
        self, keys: Optional[Sequence[str]] = None
    ) -> Iterator[Tuple[Slot, int]]:
        """``(slot, value)`` for every slot of ``keys`` (default: every
        registered key) that nobody observes, evaluated now."""
        for origin in self.tables:
            for key in self._predicates if keys is None else keys:
                if not self._observed(origin, key):
                    yield (origin, key), self._evaluate_on_read(origin, key)

    @property
    def active_key(self) -> Optional[str]:
        return self._active_key

    def predicate(self, key: str) -> CompiledPredicate:
        predicate = self._predicates.get(key)
        if predicate is None:
            raise PredicateNotFound(f"no predicate registered under {key!r}")
        return predicate

    def predicate_keys(self) -> List[str]:
        return list(self._predicates)

    def _resolve_key(self, key: Optional[str]) -> str:
        if key is not None:
            return key
        if self._active_key is None:
            raise PredicateNotFound("no predicates registered")
        return self._active_key

    # -- monitors and waiters ------------------------------------------------------
    def monitor_stability_frontier(self, key: str, fn: MonitorFn) -> None:
        """Call ``fn(origin, frontier, old)`` whenever ``key`` advances.

        The first monitor on a key makes every origin's slot of that key
        observed; each is seeded from one evaluation, and ``fn`` hears of
        advances from here on (never a catch-up call)."""
        self.predicate(key)  # validate
        monitors = self._monitors.get(key)
        if monitors is not None:
            monitors.append(fn)
            return
        for slot, value in self._unobserved_values((key,)):
            self._seed(slot, value)
        self._monitors[key] = [fn]
        self._rewatch()

    def add_waiter(
        self, origin: str, seq: int, callback: WaiterFn, key: Optional[str] = None
    ) -> None:
        """Run ``callback`` once frontier(origin, key) >= seq.

        Fires immediately (synchronously) if already satisfied.
        """
        key = self._resolve_key(key)
        self.predicate(key)
        slot = (origin, key)
        observed = self._observed(origin, key)
        if observed:
            value = self._frontiers.get(slot, 0)
        else:
            value = self._evaluate_on_read(origin, key)
        if value >= seq:
            callback()
            return
        if not observed:
            # First pending waiter: the slot turns eager and carries on
            # from the evaluation just made.
            self._seed(slot, value)
            self._waiters[slot] = []
            self._rewatch()
        self._waiter_counter += 1
        heapq.heappush(
            self._waiters.setdefault(slot, []),
            (seq, self._waiter_counter, callback),
        )

    def frontier(self, origin: str, key: Optional[str] = None) -> int:
        """The current frontier of ``(origin, key)``: the cached value of
        an observed slot, one evaluation of the table otherwise."""
        key = self._resolve_key(key)
        if self._observed(origin, key):
            return self._frontiers.get((origin, key), 0)
        if self.on_unobserved_read is not None:
            self.on_unobserved_read(origin)
        return self._evaluate_on_read(origin, key)

    # -- evaluation --------------------------------------------------------------
    def reevaluate(
        self,
        origin: str,
        updated_node: Optional[int] = None,
        updated_cells: Optional[Sequence[CellUpdate]] = None,
    ) -> Mapping[str, int]:
        """``origin``'s table moved: re-run its *observed* predicates.

        A report names the row it moved, ``updated_node``, and its risen
        cells, ``updated_cells`` — ``(type_id, new_seq)`` pairs of that
        row: only the predicates reading one of them are looked at, and
        the algebraic short-circuits apply.  A full pass names neither
        and evaluates every observed predicate.  Returns the keys that
        advanced with their new frontier values.  An origin with no
        observed slot returns at the first line: its frontiers are
        evaluated when somebody asks (see the module docstring).
        """
        watch = self.watched.get(origin)
        if watch is None:
            return _NO_ADVANCE
        rows = self.tables[origin].table
        if not self.incremental:
            return self._reevaluate_brute(origin, rows, watch, updated_node)
        predicates = self._predicates
        if not predicates:
            return _NO_ADVANCE
        total = len(predicates) if watch is _EVERY_KEY else len(watch)
        # ``one``: the value of a one-cell update, whose cell is ``cell``.
        one = cell = None
        if updated_node is None:
            keys = list(predicates)
        elif updated_node not in self._node_index:
            # Nobody reads the row (at its origin, a send's own row).
            self.skipped_by_index += total
            return _NO_ADVANCE
        elif len(updated_cells) == 1:
            type_id, one = updated_cells[0]
            cell = (updated_node, type_id)
            keys = self._cell_index.get(cell, ())
        else:
            keys = self._keys_for_cells(updated_node, updated_cells)
        if watch is not _EVERY_KEY:
            keys = [key for key in keys if key in watch]
        self.skipped_by_index += total - len(keys)
        if not keys:
            return _NO_ADVANCE
        advanced: Dict[str, int] = {}
        frontiers = self._frontiers
        slots = self._slots
        for key in keys:
            predicate = predicates[key]
            slot = (origin, key)
            kind = predicate.shortcircuit
            if updated_node is not None and slot in slots:
                if kind == "witness":
                    bottleneck = slots[slot]
                    if cell is not None:
                        touched = cell in bottleneck
                    else:
                        touched = False
                        for type_id, _seq in updated_cells:
                            if (updated_node, type_id) in bottleneck:
                                touched = True
                                break
                    if not touched:
                        self.skipped_by_shortcircuit += 1
                        continue
                elif kind == "max":
                    if cell is not None:
                        new_high = one
                    else:
                        new_high = 0
                        cells = predicate.cells
                        for type_id, seq in updated_cells:
                            if seq > new_high and (updated_node, type_id) in cells:
                                new_high = seq
                    old = frontiers.get(slot, 0)
                    if new_high <= old:
                        self.skipped_by_shortcircuit += 1
                        continue
                    # A tree of MAX over monotone cells: the new result is
                    # exactly the updated value — no evaluation needed.
                    self.fast_advances += 1
                    self._report(slot, key, origin, new_high, old, advanced)
                    continue
            self.evaluations += 1
            value = predicate.evaluate(rows)
            slots[slot] = (
                self._witness(predicate, rows, value) if kind == "witness" else None
            )
            old = frontiers.get(slot, 0)
            if value != old:
                self._report(slot, key, origin, value, old, advanced)
        return advanced

    def _keys_for_cells(
        self, node: int, cells: Sequence[CellUpdate]
    ) -> List[str]:
        """The keys reading any of ``node``'s ``cells``, each once, in the
        order the index lists them."""
        index = self._cell_index
        keys: Dict[str, None] = {}
        for type_id, _seq in cells:
            for key in index.get((node, type_id), ()):
                keys[key] = None
        return list(keys)

    @staticmethod
    def _witness(
        predicate: CompiledPredicate, rows, value: int
    ) -> Optional[Set[Cell]]:
        """Bottleneck cells after a full evaluation of a ``witness``
        predicate.

        A later update to a cell *outside* this set had an old value
        strictly above the result, and (by monotonicity) raising such a
        cell cannot move the result — so it is safe to skip.
        """
        if predicate.shortcircuit != "witness":
            return None
        return {cell for cell in predicate.cells if rows[cell[0]][cell[1]] <= value}

    def _report(
        self,
        slot: Tuple[str, str],
        key: str,
        origin: str,
        value: int,
        old: int,
        advanced: Dict[str, int],
    ) -> None:
        """``slot`` moved from ``old`` to ``value`` (the two differ)."""
        self._frontiers[slot] = value
        if value < old:
            return  # predicate was redefined; hold reports until caught up
        advanced[key] = value
        if self.on_advance is not None:
            self.on_advance(key, origin, value)
        tracer = self._tracer
        if tracer.enabled:
            tracer.emit(
                self._trace_node,
                "frontier.advance",
                origin=origin,
                key=key,
                frontier=value,
                old=old,
            )
        # Monitors only ever see increasing values: a redefinition (mask /
        # restore) may drop the raw frontier, and partial re-advances
        # below the old high-water mark stay silent (the gap rule).
        high = self._monitor_high.get(slot, 0)
        if value > high:
            self._monitor_high[slot] = value
            monitors = self._monitors.get(key, ())
            if monitors and tracer.enabled:
                tracer.emit(
                    self._trace_node,
                    "monitor.fire",
                    origin=origin,
                    key=key,
                    frontier=value,
                    old=high,
                    monitors=len(monitors),
                )
            for monitor in monitors:
                monitor(origin, value, high)
        self._release_waiters(slot, value)

    def _reevaluate_brute(
        self,
        origin: str,
        rows,
        watch,
        updated_node: Optional[int] = None,
    ) -> Dict[str, int]:
        """The pre-index engine: scan all predicates, evaluate dependents.

        Kept as the baseline that the ``hotpath`` experiment and the
        randomized equivalence tests compare the incremental path against.
        """
        advanced: Dict[str, int] = {}
        for key, predicate in self._predicates.items():
            if watch is not _EVERY_KEY and key not in watch:
                continue
            if updated_node is not None and not any(
                leaf.node == updated_node for leaf in predicate.leaves
            ):
                continue
            self.evaluations += 1
            value = predicate.evaluate(rows)
            slot = (origin, key)
            old = self._frontiers.get(slot, 0)
            if value != old:
                self._report(slot, key, origin, value, old, advanced)
        return advanced

    def _release_waiters(self, slot: Tuple[str, str], frontier: int) -> None:
        heap = self._waiters.get(slot)
        if not heap:
            return
        tracing = self._tracer.enabled
        while heap and heap[0][0] <= frontier:
            seq, _tie, callback = heapq.heappop(heap)
            if tracing:
                self._tracer.emit(
                    self._trace_node,
                    "waiter.wake",
                    origin=slot[0],
                    key=slot[1],
                    seq=seq,
                    frontier=frontier,
                )
            callback()
        if not heap:
            del self._waiters[slot]
            if not self._observed(*slot):
                # The last listener left: the slot is a pull value again.
                self._frontiers.pop(slot, None)
                self._slots.pop(slot, None)
                self._rewatch()

    def pending_waiters(self) -> int:
        return sum(len(ws) for ws in self._waiters.values())

    # -- persistence ----------------------------------------------------------------
    def snapshot_frontiers(self) -> Dict[str, Dict[str, int]]:
        out: Dict[str, Dict[str, int]] = {}
        for (origin, key), value in self._frontiers.items():
            out.setdefault(origin, {})[key] = value
        for (origin, key), value in self._unobserved_values():
            if value:
                out.setdefault(origin, {})[key] = value
        return out

    def snapshot_monitor_high(self) -> Dict[str, Dict[str, int]]:
        """The per-slot monitor high-water marks.

        Persisted separately from the raw frontiers: after a predicate
        redefinition the raw value may sit *below* what monitors already
        reported, and a restarted node must not re-report the gap.
        An unobserved slot's mark is brought up to its frontier first —
        the advances an eager pass would have counted."""
        for slot, value in self._unobserved_values():
            self._raise_monitor_high(slot, value)
        out: Dict[str, Dict[str, int]] = {}
        for (origin, key), value in self._monitor_high.items():
            out.setdefault(origin, {})[key] = value
        return out

    def restore_monitor_high(self, data: Dict[str, Dict[str, int]]) -> None:
        for origin, per_key in data.items():
            for key, value in per_key.items():
                self._raise_monitor_high((origin, key), value)

    def restore_frontiers(self, data: Dict[str, Dict[str, int]]) -> None:
        restored = []
        for origin, per_key in data.items():
            for key, value in per_key.items():
                slot = (origin, key)
                # An unobserved slot keeps no value: it is read off the
                # restored tables when somebody asks.
                if self._observed(origin, key) and value > self._frontiers.get(
                    slot, 0
                ):
                    self._frontiers[slot] = value
                    restored.append((slot, value))
                # The pre-crash incarnation already reported up to here;
                # monitors resume above it, never below.
                self._raise_monitor_high(slot, value)
        # Restored frontiers may sit above anything the current tables
        # support; forget every slot's witness so the next report takes a
        # full pass instead of short-circuiting against it.
        self._slots.clear()
        # Waiters registered before the restore whose target the restored
        # frontier already covers must release now — nothing may ever be
        # blocked behind a frontier that has already passed its target.
        for slot, value in restored:
            self._release_waiters(slot, value)
