"""On-chip interconnect fabrics: abstract interface, topologies, registry."""

from ..sim.events import EventWheel
from ..uarch.params import TOPOLOGIES, FabricConfig
from .base import FabricStats, Interconnect
from .mesh import Mesh2D
from .ring import Ring

__all__ = [
    "Interconnect",
    "FabricStats",
    "Ring",
    "Mesh2D",
    "build_interconnect",
]


def build_interconnect(num_stops: int, cfg: FabricConfig,
                       wheel: EventWheel) -> Interconnect:
    """Instantiate the fabric named by ``cfg.topology``."""
    kind = cfg.topology
    if kind == "ring":
        return Ring(num_stops, cfg, wheel)
    if kind == "mesh":
        return Mesh2D(num_stops, cfg, wheel)
    raise ValueError(f"unknown topology: {kind!r} "
                     f"(known: {', '.join(TOPOLOGIES)})")
