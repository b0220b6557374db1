"""Bi-directional ring interconnect: control (8 B) and data (64 B) rings.

Every core has a ring stop shared with its LLC slice; the memory
controller(s) occupy additional stops.  A message takes the shorter
direction, paying per-link latency plus queueing where links are busy —
enough contention fidelity to reproduce the paper's on-chip-delay effects
without flit-level simulation.  Timing, stats, and the snapshot protocol
live in :class:`~repro.interconnect.base.Interconnect`; this class only
routes.
"""

from __future__ import annotations

from typing import List

from .base import Interconnect


class Ring(Interconnect):
    """A pair of bi-directional rings connecting ``num_stops`` stops.

    Routing takes the shorter direction around the ring (clockwise on a
    tie); the link between stop ``i`` and ``i+1`` is indexed ``i`` in
    both directions.
    """

    topology = "ring"

    def _route(self, src: int, dst: int) -> tuple:
        """Return (direction, hop_count) along the shorter way."""
        if src == dst:
            return 1, 0
        clockwise = (dst - src) % self.num_stops
        counter = (src - dst) % self.num_stops
        if clockwise <= counter:
            return 1, clockwise
        return -1, counter

    def _links_on_path(self, src: int, direction: int,
                       hops: int) -> List[int]:
        links = []
        stop = src
        for _ in range(hops):
            if direction == 1:
                links.append(stop)
                stop = (stop + 1) % self.num_stops
            else:
                stop = (stop - 1) % self.num_stops
                links.append(stop)
        return links

    def _links(self, src: int, dst: int, kind: str) -> List[tuple]:
        # Link key: (ring, direction, link_index); direction +1 is
        # clockwise, so opposite directions never contend.
        direction, hops = self._route(src, dst)
        return [(kind, direction, link)
                for link in self._links_on_path(src, direction, hops)]
