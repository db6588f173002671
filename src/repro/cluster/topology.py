"""Interconnect topology: node placement and hop counts.

The paper's testbed (Hopper) uses a Cray Gemini network arranged as a
mesh/torus.  For cost purposes the simulator only needs the number of
router hops a message crosses, which feeds the per-hop latency term of
the cost model.  Nodes are laid out row-major on a 2-D grid.
"""

from __future__ import annotations

from typing import Tuple

from ..errors import ConfigError


class MeshTopology:
    """A 2-D mesh (optionally torus) of ``nodes`` placed row-major.

    Parameters
    ----------
    nodes:
        Number of occupied grid positions.
    shape:
        Grid extent ``(nx, ny)``; must satisfy ``nx * ny >= nodes``.
    torus:
        If True, distance wraps around each axis (Gemini-style torus).
    """

    def __init__(self, nodes: int, shape: Tuple[int, int], torus: bool = True) -> None:
        nx, ny = shape
        if nodes < 1:
            raise ConfigError(f"need >= 1 node, got {nodes}")
        if nx < 1 or ny < 1 or nx * ny < nodes:
            raise ConfigError(f"mesh shape {shape} cannot hold {nodes} nodes")
        self.nodes = nodes
        self.shape = (nx, ny)
        self.torus = torus

    def coords(self, node: int) -> Tuple[int, int]:
        """Grid coordinates of ``node`` (row-major placement)."""
        if not 0 <= node < self.nodes:
            raise ConfigError(f"node {node} out of range [0, {self.nodes})")
        nx, _ny = self.shape
        return (node % nx, node // nx)

    def _axis_distance(self, a: int, b: int, extent: int) -> int:
        d = abs(a - b)
        if self.torus:
            d = min(d, extent - d)
        return d

    def hops(self, src: int, dst: int) -> int:
        """Router hops between two nodes (dimension-ordered routing).

        Same-node communication reports 0 hops; distinct nodes report at
        least 1 (the NIC-to-NIC link).
        """
        if src == dst:
            return 0
        (ax, ay), (bx, by) = self.coords(src), self.coords(dst)
        nx, ny = self.shape
        manhattan = self._axis_distance(ax, bx, nx) + self._axis_distance(ay, by, ny)
        return max(1, manhattan)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        kind = "torus" if self.torus else "mesh"
        return f"<MeshTopology {self.shape[0]}x{self.shape[1]} {kind} nodes={self.nodes}>"
