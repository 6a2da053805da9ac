"""QCCD device model: traps, junctions and shuttle segments.

A device is an undirected graph whose nodes are either *traps* (hold up
to ``capacity`` ions, degree at most 2, can run one gate at a time) or
*junctions* (hold no ions, degree up to 4, allow path changes at a
degree-dependent crossing cost).  Edges are shuttle segments traversed
at the ``move`` cost.  Ions live in traps; the device tracks occupancy
so compilers can detect capacity violations and trigger rebalances.
Shortest paths and trap distances are memoized per device, because the
graph never changes after construction.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field

import networkx as nx

__all__ = ["Trap", "Junction", "QCCDDevice"]


@dataclass(frozen=True)
class Trap:
    """A linear trapping zone holding an ion chain."""

    node_id: str
    capacity: int
    position: tuple[float, float] = (0.0, 0.0)

    def __post_init__(self) -> None:
        if self.capacity < 1:
            raise ValueError("trap capacity must be at least 1")


@dataclass(frozen=True)
class Junction:
    """A switching element; ions transit but do not idle here.

    ``l_shaped`` marks the simple two-way corner junctions used by the
    alternate grid and by Cyclone's ring: regardless of how many
    segments meet the node in the abstract graph, an ion passes through
    on a fixed L-shaped path and pays only the degree-2 crossing cost.
    """

    node_id: str
    position: tuple[float, float] = (0.0, 0.0)
    l_shaped: bool = False


@dataclass
class QCCDDevice:
    """A QCCD machine: the trap/junction graph plus ion occupancy.

    The graph is frozen after construction: the lookup tables and the
    routing memos below are derived from it once, so callers must not
    add or remove nodes or edges afterwards.

    Attributes
    ----------
    name:
        Topology name (``"baseline_grid"``, ``"ring"``, ...).
    graph:
        ``networkx.Graph`` whose nodes carry the ``element`` attribute
        (a :class:`Trap` or :class:`Junction`).
    dac_count:
        Number of independent DAC control channels the topology needs
        (the paper's control-overhead metric: one per trap for a grid,
        a constant for Cyclone thanks to broadcast wiring).
    """

    name: str
    graph: nx.Graph
    dac_count: int
    metadata: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        # Static lookup tables, in graph node order.
        self._trap_capacity: dict[str, int] = {}
        self._crossing_degree: dict[str, int] = {}
        for node, element in self.graph.nodes(data="element"):
            if isinstance(element, Trap):
                self._trap_capacity[node] = element.capacity
            elif isinstance(element, Junction):
                self._crossing_degree[node] = (
                    2 if element.l_shaped else self.graph.degree[node]
                )
        # Routing memos, filled on first use.
        self._paths: dict[tuple[str, str], tuple[str, ...]] = {}
        self._distances: dict[str, dict[str, int]] = {}
        self._traps_by_distance: dict[str, list[str]] = {}
        self.clear_ions()

    # ------------------------------------------------------------------
    # Structure queries
    # ------------------------------------------------------------------
    def element(self, node_id: str):
        return self.graph.nodes[node_id]["element"]

    def is_trap(self, node_id: str) -> bool:
        return node_id in self._trap_capacity

    def is_junction(self, node_id: str) -> bool:
        return node_id in self._crossing_degree

    def trap_ids(self) -> list[str]:
        return list(self._trap_capacity)

    def junction_ids(self) -> list[str]:
        return list(self._crossing_degree)

    @property
    def num_traps(self) -> int:
        return len(self._trap_capacity)

    @property
    def num_junctions(self) -> int:
        return len(self._crossing_degree)

    @property
    def num_segments(self) -> int:
        return self.graph.number_of_edges()

    def junction_degree(self, node_id: str) -> int:
        if not self.is_junction(node_id):
            raise ValueError(f"{node_id} is not a junction")
        return self.graph.degree[node_id]

    def junction_crossing_degree(self, node_id: str) -> int:
        """Degree used for pricing a crossing (2 for L-shaped junctions)."""
        try:
            return self._crossing_degree[node_id]
        except KeyError:
            raise ValueError(f"{node_id} is not a junction") from None

    def trap_capacity(self, node_id: str) -> int:
        try:
            return self._trap_capacity[node_id]
        except KeyError:
            raise ValueError(f"{node_id} is not a trap") from None

    def total_capacity(self) -> int:
        return sum(self._trap_capacity.values())

    def validate_degrees(self) -> bool:
        """Traps may connect to at most two shuttling paths; junctions to four."""
        for node in self.graph.nodes:
            degree = self.graph.degree[node]
            if self.is_trap(node) and degree > 2:
                return False
            if self.is_junction(node) and degree > 4:
                return False
        return True

    # ------------------------------------------------------------------
    # Ion occupancy
    # ------------------------------------------------------------------
    def place_ion(self, ion: int, trap_id: str, enforce_capacity: bool = True) -> None:
        """Place (or move) an ion into a trap."""
        if not self.is_trap(trap_id):
            raise ValueError(f"{trap_id} is not a trap")
        if enforce_capacity and len(self._occupancy[trap_id]) >= \
                self.trap_capacity(trap_id):
            raise ValueError(f"trap {trap_id} is at capacity")
        previous = self._ion_location.get(ion)
        if previous is not None:
            self._occupancy[previous].remove(ion)
        self._occupancy[trap_id].append(ion)
        self._ion_location[ion] = trap_id

    def remove_ion(self, ion: int) -> None:
        location = self._ion_location.pop(ion, None)
        if location is not None:
            self._occupancy[location].remove(ion)

    def ion_location(self, ion: int) -> str:
        return self._ion_location[ion]

    def ions_in(self, trap_id: str) -> list[int]:
        return list(self._occupancy[trap_id])

    def occupancy(self, trap_id: str) -> int:
        return len(self._occupancy[trap_id])

    def chain_length(self, trap_id: str) -> int:
        """Current ion-chain length in a trap (minimum 2 for gate timing)."""
        return max(len(self._occupancy[trap_id]), 2)

    def free_space(self, trap_id: str) -> int:
        return self.trap_capacity(trap_id) - len(self._occupancy[trap_id])

    def clear_ions(self) -> None:
        self._occupancy: dict[str, list[int]] = {
            node: [] for node in self._trap_capacity
        }
        self._ion_location: dict[int, str] = {}

    # ------------------------------------------------------------------
    # Routing (memoized per device: the graph never changes)
    # ------------------------------------------------------------------
    def shortest_path(self, source: str, target: str) -> tuple[str, ...]:
        """Shortest node path between two traps (inclusive of endpoints).

        Exactly ``nx.shortest_path`` (same tie-breaks), computed once per
        pair and returned as the shared, immutable memo entry.
        """
        key = (source, target)
        path = self._paths.get(key)
        if path is None:
            path = tuple(nx.shortest_path(self.graph, source, target))
            self._paths[key] = path
        return path

    def distances_from(self, node: str) -> Mapping[str, int]:
        """Hop distance from ``node`` to every reachable node.

        The shared memo entry: read it, never modify it.
        """
        lengths = self._distances.get(node)
        if lengths is None:
            lengths = nx.single_source_shortest_path_length(self.graph, node)
            self._distances[node] = lengths
        return lengths

    def nearest_trap_with_space(self, trap: str) -> str | None:
        """The closest other trap with free space, ties broken by node id.

        ``None`` when every other reachable trap is full.
        """
        order = self._traps_by_distance.get(trap)
        if order is None:
            lengths = self.distances_from(trap)
            order = sorted(
                (node for node in lengths
                 if node != trap and node in self._trap_capacity),
                key=lambda node: (lengths[node], node),
            )
            self._traps_by_distance[trap] = order
        for node in order:
            if self.free_space(node) > 0:
                return node
        return None

    def path_junction_degrees(self, path: Sequence[str]) -> list[int]:
        """Degrees of the junctions traversed by a node path."""
        return [
            self.graph.degree[node] for node in path if self.is_junction(node)
        ]

    def path_intermediate_traps(self, path: Sequence[str]) -> list[str]:
        """Traps strictly inside a node path (potential roadblocks)."""
        return [node for node in path[1:-1] if self.is_trap(node)]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"QCCDDevice({self.name}, traps={self.num_traps}, "
            f"junctions={self.num_junctions}, segments={self.num_segments})"
        )
