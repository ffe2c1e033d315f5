"""Interconnect substrate: shared buses and bus-mapped relations.

Models the "communications network" dimension of the paper's design
space: inter-processor messages cross an arbitrated shared bus with
setup and per-byte costs, so communication contention shows up in the
simulated timing like every other platform effect.
"""

from .._exports import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(globals(), {
    "bus": ("Bus", "Transfer"),
    "remote": ("RemoteQueue",),
})
