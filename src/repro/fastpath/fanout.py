"""Vectorized broadcast fan-out (vectorized engine, fault-free fast path).

Profiling the dense workload shows the reporting phase dominated not by
the reports themselves but by their *reactions*: every server broadcast
is delivered receiver by receiver through ``SimulatedTransport._deliver``
-> ``MobiEyesClient.on_downlink``, ~100 scalar handler invocations per
broadcast.  For the high-volume broadcast types those handlers perform a
per-receiver table poke that can be applied in bulk:

- ``VelocityChangeBroadcast``: rewrite ``focal_state`` / ``ptm`` on each
  receiver's LQT entry for the broadcast's queries.
- ``QueryInstallBroadcast`` / ``QueryUpdateBroadcast``: refresh or drop
  the entry of each holding receiver, install on covered non-holders.
- ``QueryRemoveBroadcast``: drop the entry of each holding receiver.

:class:`BroadcastFanout` keeps a query-id -> holders index (maintained
push-style through the LQT's entry-watcher hooks) so a broadcast touches
exactly the entries it affects, and computes the receiver set as one
boolean store-row mask (:meth:`VectorizedCoverageIndex.receiver_mask`)
instead of a Python set.

Equivalence to the per-receiver loop:

- The per-receiver handlers are mutually independent (each touches only
  its own client's LQT), so applying them grouped by query instead of
  ordered by receiver id is unobservable -- except for the *leave*
  reports an update broadcast provokes, which are collected per receiver
  in descriptor order and emitted in ascending receiver order, exactly
  the reference interleaving of uplinks.
- Message and energy accounting uses the same ledger call with the same
  receiver membership.
- The fan-out declines (falls back to the scalar loop) whenever per-
  receiver semantics matter: jitter, loss rolls, reliability sequencing,
  trace logging, detached radios, or a lazy-propagation velocity
  broadcast carrying descriptors.

Under a jitter-free downlink delay the transport parks an accepted
broadcast as one envelope carrying its receivers; :meth:`open_broadcast`
applies it in bulk when the envelope opens.  The argument above carries
over unchanged: the per-receiver envelopes it replaces were contiguous in
the drain order, so their handlers ran back to back against the same
delivery-time state the appliers read.
"""

from __future__ import annotations

from time import perf_counter
from typing import TYPE_CHECKING

from repro.core.messages import (
    QueryInstallBroadcast,
    QueryRemoveBroadcast,
    QueryUpdateBroadcast,
    VelocityChangeBroadcast,
)
from repro.core.tables import LqtEntry

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.query import QueryId
    from repro.fastpath.runtime import FastpathRuntime
    from repro.mobility.model import ObjectId


class BroadcastFanout:
    """Bulk application of region broadcasts for one vectorized system."""

    def __init__(self, runtime: "FastpathRuntime") -> None:
        self.runtime = runtime
        system = runtime.system
        self.transport = system.transport
        self.store = runtime.store
        self.np = runtime.np
        self.coverage = runtime.coverage
        self.clients = system.clients
        self.evaluator = runtime.evaluator
        # qid -> {holder oid -> that holder's LqtEntry}.
        self.holders: dict["QueryId", dict["ObjectId", LqtEntry]] = {}
        for client in runtime.clients_in_order:
            for entry in client.lqt.entries():
                self.holders.setdefault(entry.qid, {})[client.oid] = entry
            client.lqt.watch_entries(self, client.oid)
        self._appliers = {
            VelocityChangeBroadcast: self._apply_velocity,
            QueryInstallBroadcast: self._apply_query,
            QueryUpdateBroadcast: self._apply_query,
            QueryRemoveBroadcast: self._apply_remove,
        }

    # --------------------------------------------- LQT entry-watcher hooks

    def entry_installed(self, oid: "ObjectId", entry: LqtEntry) -> None:
        """An LQT gained (or replaced) an entry; index it."""
        self.holders.setdefault(entry.qid, {})[oid] = entry

    def entry_removed(self, oid: "ObjectId", entry: LqtEntry) -> None:
        """An LQT dropped an entry; unindex it."""
        bucket = self.holders.get(entry.qid)
        if bucket is not None:
            bucket.pop(oid, None)
            if not bucket:
                del self.holders[entry.qid]

    # ------------------------------------------------------------ dispatch

    def _applier_for(self, message):
        """The bulk applier for ``message``, or None to stay per receiver."""
        if type(message) is VelocityChangeBroadcast and message.descriptors:
            # Lazy propagation: receivers may install from the expanded
            # descriptors; keep the scalar per-receiver path.
            return None
        return self._appliers.get(type(message))

    def try_broadcast(self, station_ids, region, message) -> bool:
        """Apply one region broadcast in bulk (inline at a zero downlink
        delay, else parked as one broadcast envelope); False declines to
        the transport's per-receiver loop."""
        applier = self._applier_for(message)
        if applier is None:
            return False
        transport = self.transport
        delay = transport.bulk_downlink_delay()
        if delay is None or len(transport._clients) != self.store.n:
            return False
        mask = self.coverage.receiver_mask(station_ids, region)
        receivers = self.store.oids[mask].tolist()
        meter = transport.meter_serialization
        t0 = perf_counter() if meter else 0.0
        transport.ledger.record_downlink(
            type(message).__name__,
            message.bits,
            receivers=receivers,
            broadcasts=len(station_ids),
        )
        if meter:
            transport.serialization_seconds += perf_counter() - t0
        if delay:
            transport.park_broadcast(message, sorted(receivers), delay)
            return True
        applier(message, mask, set(receivers))
        return True

    def open_broadcast(self, message, receivers: list["ObjectId"]) -> bool:
        """Apply one opened broadcast envelope in bulk to its carried
        receivers; False declines to the transport's per-receiver loop
        (no applier, or a receiver's radio detached while in flight)."""
        applier = self._applier_for(message)
        if applier is None:
            return False
        attached = self.transport._clients
        if any(oid not in attached for oid in receivers):
            return False
        store = self.store
        row_of = store.row_of
        mask = self.np.zeros(store.n, dtype=bool)
        mask[[row_of[oid] for oid in receivers]] = True
        applier(message, mask, set(receivers))
        return True

    # ------------------------------------------------------------ appliers

    def _apply_velocity(self, message: VelocityChangeBroadcast, mask, recv: set) -> None:
        """Fresh focal motion state for each holding receiver's entries.

        The arena bookkeeping inlines the evaluator's ``state_changed``
        hook: collect the group slots whose cached dead-reckoning basis the
        in-place ``focal_state`` rewrites invalidate, then rewrite them all
        in one shot (every receiver got the same state).
        """
        state = message.state
        ev = self.evaluator
        stale = ev._stale
        blocks = ev._blocks
        slots: list[int] = []
        append = slots.append
        for qid in message.qids:
            bucket = self.holders.get(qid)
            if not bucket:
                continue
            for oid, entry in bucket.items():
                if oid in recv:
                    entry.focal_state = state
                    entry.ptm = 0.0  # prediction basis changed: re-evaluate
                    if oid not in stale:  # else rebuilt with the fresh state
                        block = blocks.get(oid)
                        if block is not None:
                            li = block.first_local.get(qid)
                            if li is not None:  # else not a prediction basis
                                append(block.g_lo + li)
        self._write_basis(slots, state)

    def _write_basis(self, slots: list[int], state) -> None:
        """Rewrite the cached per-group prediction basis of ``slots``."""
        if not slots:
            return
        ev = self.evaluator
        pos = state.pos
        vel = state.vel
        ev.g_sx[slots] = pos.x
        ev.g_sy[slots] = pos.y
        ev.g_svx[slots] = vel.x
        ev.g_svy[slots] = vel.y
        ev.g_srec[slots] = state.recorded_at

    def _apply_remove(self, message: QueryRemoveBroadcast, mask, recv: set) -> None:
        """Drop each removed query from its holding receivers (no leave
        reports: the reference remove handler sends none)."""
        clients = self.clients
        for qid in message.qids:
            bucket = self.holders.get(qid)
            if not bucket:
                continue
            hit = [oid for oid in bucket if oid in recv]
            for oid in hit:  # removal mutates the bucket via the hooks
                clients[oid].lqt.remove(qid)

    def _apply_query(self, message, mask, recv: set) -> None:
        """Install / refresh / drop per the broadcast descriptors."""
        np = self.np
        store = self.store
        clients = self.clients
        runtime = self.runtime
        ev = self.evaluator
        stale = ev._stale
        blocks = ev._blocks
        rows = np.nonzero(mask)[0]
        recv_i = runtime.last_i[rows]
        recv_j = runtime.last_j[rows]
        recv_oids = store.oids[rows].tolist()
        # Leave reports accumulate per receiver in descriptor order and are
        # sent last, ascending by receiver -- the exact uplink sequence of
        # the sorted per-receiver loop (only these reports are externally
        # visible; every other effect is receiver-local).
        leaves: dict["ObjectId", dict["QueryId", bool]] = {}
        for desc in message.queries:
            qid = desc.qid
            region = desc.mon_region
            focal = desc.oid
            bucket = self.holders.get(qid)
            held = list(bucket.items()) if bucket else ()
            slots: list[int] = []
            for oid, entry in held:
                if oid not in recv or oid == focal:
                    continue
                client = clients[oid]
                # `last_cell` equals the runtime's cell mirror at every
                # broadcast moment, and the tuple read beats two array
                # lookups in this scalar loop.
                ci, cj = client.last_cell
                if region.lo_i <= ci <= region.hi_i and region.lo_j <= cj <= region.hi_j:
                    entry.focal_state = desc.focal_state
                    entry.focal_max_speed = desc.focal_max_speed
                    entry.mon_region = region
                    entry.ptm = 0.0  # focal moved: the safe period is void
                    client.lqt.tighten_hull(region)
                    if oid not in stale:  # else rebuilt with the fresh state
                        block = blocks.get(oid)
                        if block is not None:
                            li = block.first_local.get(qid)
                            if li is not None:  # else not a prediction basis
                                slots.append(block.g_lo + li)
                else:
                    removed = client.lqt.remove(qid)
                    if removed is not None and removed.is_target:
                        leaves.setdefault(oid, {})[qid] = False
            self._write_basis(slots, desc.focal_state)
            covered = (
                (recv_i >= region.lo_i)
                & (recv_i <= region.hi_i)
                & (recv_j >= region.lo_j)
                & (recv_j <= region.hi_j)
            )
            if covered.any():
                held_oids = {oid for oid, _ in held}
                for idx in np.nonzero(covered)[0].tolist():
                    oid = recv_oids[idx]
                    if oid == focal or oid in held_oids:
                        continue
                    client = clients[oid]
                    if desc.filter.matches(client.obj.props):
                        client.lqt.install(LqtEntry.from_descriptor(desc))
        for oid in sorted(leaves):
            clients[oid]._send_result_changes(leaves[oid])
