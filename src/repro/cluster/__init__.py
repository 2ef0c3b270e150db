"""Simulated cluster: workers, links, and traffic accounting.

Stands in for the multi-machine testbeds of the surveyed systems (see
DESIGN.md, *Substitutions*).  The tutorial's distributed claims are about
communication volume, balance, and overlap — quantities this simulator
measures exactly.
"""

from .._exports import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "comm": ("CommStats", "Message", "Network"),
    "links": ("LinkTopology", "ethernet_topology", "nvlink_topology"),
})
