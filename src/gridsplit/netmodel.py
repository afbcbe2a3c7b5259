"""Switchable zone-graph model for two-stage feeder restoration.

Zones are load groups bounded by sectionalizing switches; every edge is a
switch. A subset of nodes hosts grid-forming resources (battery plus diesel)
that can anchor an islanded microgrid. The predicates here are pure graph
queries shared by the partition optimizer, the enumeration oracle and the
rolling-horizon coordinator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Iterable, NamedTuple


@dataclass(frozen=True)
class ZoneNode:
    """One load group (zone) of a feeder."""

    id: int
    feeder_id: int
    is_critical: bool = False
    peak_load_kw: float = 0.0
    has_gfm: bool = False

    def __post_init__(self) -> None:
        if not 0 <= self.peak_load_kw < math.inf:
            raise ValueError(f"peak_load_kw {self.peak_load_kw!r} must be "
                             f"finite and non-negative")


@dataclass(frozen=True)
class SwitchEdge:
    """Sectionalizing or tie switch between two zones.

    ``normally_open`` marks feeder-interconnection ties. ``flow_limit_kw``
    bounds real power transfer in either direction when closed.
    """

    id: int
    tail: int
    head: int
    normally_open: bool = False
    flow_limit_kw: float = 0.0

    def __post_init__(self) -> None:
        if not 0 <= self.flow_limit_kw < math.inf:
            raise ValueError(f"flow_limit_kw {self.flow_limit_kw!r} must be "
                             f"finite and non-negative")


@dataclass(frozen=True)
class GridFormingResource:
    """Battery + diesel unit able to form an island at one zone."""

    node_id: int
    battery_power_kw: float
    battery_energy_kwh: float
    battery_soc0: float = 1.0
    battery_efficiency: float = 0.95
    diesel_power_kw: float = 0.0
    diesel_fuel_kwh: float = 0.0

    def __post_init__(self) -> None:
        for name in ("battery_power_kw", "battery_energy_kwh",
                     "diesel_power_kw", "diesel_fuel_kwh"):
            if not 0 <= getattr(self, name) < math.inf:
                raise ValueError(f"{name} {getattr(self, name)!r} must be "
                                 f"finite and non-negative")
        if not 0 <= self.battery_soc0 <= 1:
            raise ValueError(f"battery_soc0 {self.battery_soc0!r} must lie "
                             f"in [0, 1]")
        if not 0 < self.battery_efficiency <= 1:
            raise ValueError(f"battery_efficiency {self.battery_efficiency!r} "
                             f"must lie in (0, 1]")


@dataclass(frozen=True)
class LateralPolicy:
    """Restriction on the fictitious-commodity flow leaving a GFM on one edge.

    ``min_downstream_nodes >= 1`` forces the edge closed with at least that
    many zones fed through it, which pins the nearest zones of the lateral to
    the GFM's microgrid. ``force_zero`` instead forbids any commodity on the
    edge, so zones behind it must be reached another way or not at all.
    """

    gfm_node_id: int
    edge_id: int
    min_downstream_nodes: int = 0
    force_zero: bool = False


class RadialCheck(NamedTuple):
    is_radial: bool
    trees: dict[int, frozenset[int]]     # GFM -> its tree, in GFM order


@dataclass(frozen=True)
class ZoneGraph:
    """Immutable zone graph with switch edges, resources and faults."""

    nodes: tuple[ZoneNode, ...]
    edges: tuple[SwitchEdge, ...]
    resources: tuple[GridFormingResource, ...] = ()
    faulted_edges: frozenset[int] = field(default_factory=frozenset)
    lateral_policies: tuple[LateralPolicy, ...] = ()

    def __post_init__(self) -> None:
        nmap, emap, rmap = self._node_map, self._edge_map, self._resource_map
        if len(nmap) != len(self.nodes):
            raise ValueError("duplicate node ids")
        if len(emap) != len(self.edges):
            raise ValueError("duplicate edge ids")
        for e in self.edges:
            if e.tail not in nmap or e.head not in nmap:
                raise ValueError(f"edge {e.id} references unknown node")
            if e.tail == e.head:
                raise ValueError(f"edge {e.id} is a self-loop")
        if len(rmap) != len(self.resources):
            raise ValueError("more than one resource at a node")
        for n in self.nodes:
            if n.has_gfm != (n.id in rmap):
                raise ValueError(
                    f"node {n.id}: has_gfm flag does not match resource placement"
                )
        for eid in self.faulted_edges:
            if eid not in emap:
                raise ValueError(f"faulted edge {eid} does not exist")
        for p in self.lateral_policies:
            if p.edge_id not in emap:
                raise ValueError(f"policy references unknown edge {p.edge_id}")
            e = emap[p.edge_id]
            if p.gfm_node_id not in (e.tail, e.head):
                raise ValueError(
                    f"policy edge {p.edge_id} is not incident to node {p.gfm_node_id}"
                )
            if p.gfm_node_id not in rmap:
                raise ValueError(f"policy node {p.gfm_node_id} hosts no resource")
            if p.force_zero and p.min_downstream_nodes != 0:
                raise ValueError("force_zero policy cannot carry a minimum count")
            if p.min_downstream_nodes < 0:
                raise ValueError("policy minimum count must be nonnegative")

    # -- lookups -------------------------------------------------------------

    def node(self, node_id: int) -> ZoneNode:
        return self._node_map[node_id]

    def edge(self, edge_id: int) -> SwitchEdge:
        return self._edge_map[edge_id]

    def resource_at(self, node_id: int) -> GridFormingResource:
        return self._resource_map[node_id]

    @cached_property
    def _node_map(self) -> dict[int, ZoneNode]:
        return {n.id: n for n in self.nodes}

    @cached_property
    def _edge_map(self) -> dict[int, SwitchEdge]:
        return {e.id: e for e in self.edges}

    @cached_property
    def _resource_map(self) -> dict[int, GridFormingResource]:
        return {r.node_id: r for r in self.resources}

    @cached_property
    def gfm_nodes(self) -> tuple[int, ...]:
        return tuple(sorted(n.id for n in self.nodes if n.has_gfm))

    def active_edges(self) -> tuple[SwitchEdge, ...]:
        """Edges that survived faults, in id order."""
        return self._active_edges

    @cached_property
    def _active_edges(self) -> tuple[SwitchEdge, ...]:
        return tuple(e for e in sorted(self.edges, key=lambda e: e.id)
                     if e.id not in self.faulted_edges)

    @cached_property
    def island_zones(self) -> frozenset[int]:
        """Zones of every load island (see ``load_islands``)."""
        return frozenset().union(*load_islands(self))

    def with_faulted(self, edge_ids: Iterable[int]) -> "ZoneGraph":
        return replace(self, faulted_edges=frozenset(edge_ids))

    def adjacency(self, closed: frozenset[int] | set[int] | None = None) -> dict[int, list[tuple[int, int]]]:
        """node -> [(neighbor, edge_id)] over the given closed set.

        ``closed=None`` means every non-faulted edge, i.e. the hypothetical
        all-switches-closed network used for island detection.
        """
        adj: dict[int, list[tuple[int, int]]] = {n.id: [] for n in self.nodes}
        for e in self._active_edges:
            if closed is not None and e.id not in closed:
                continue
            adj[e.tail].append((e.head, e.id))
            adj[e.head].append((e.tail, e.id))
        return adj


def walk(adj: dict[int, list[tuple[int, int]]], root: int, *,
         within: frozenset[int] | set[int] | None = None,
         skip: int | None = None) -> tuple[list[int], dict[int, tuple[int, int] | None]]:
    """Breadth-first walk from ``root`` over an ``adjacency`` map.

    Neighbours are visited in sorted (zone, edge) order. ``within`` limits
    the walk to a set of zones and ``skip`` leaves out one edge. Returns the
    visit order and each reached zone's (parent, edge); the root maps to None.
    """
    parent: dict[int, tuple[int, int] | None] = {root: None}
    order = [root]
    for u in order:             # grows as the walk reaches new zones
        for v, eid in sorted(adj[u]):
            if v not in parent and eid != skip and (within is None or v in within):
                parent[v] = (u, eid)
                order.append(v)
    return order, parent


def subtrees(g: ZoneGraph, adj: dict[int, list[tuple[int, int]]],
             root: int) -> dict[int, tuple[float, list[int]]]:
    """Each edge of the tree ``root`` reaches over ``adj``, with +1.0 if its
    tail is on the root's side, else -1.0, and the zones beyond it."""
    order, parent = walk(adj, root)
    beyond = {u: [u] for u in order}
    out = {}
    for u in reversed(order[1:]):      # children before their parent
        pu, eid = parent[u]
        beyond[pu] += beyond[u]
        out[eid] = (1.0 if g.edge(eid).tail == pu else -1.0, beyond[u])
    return out


def _components(adj: dict[int, list[tuple[int, int]]]) -> list[frozenset[int]]:
    seen: set[int] = set()
    comps: list[frozenset[int]] = []
    for start in sorted(adj):
        if start not in seen:
            comps.append(frozenset(walk(adj, start)[0]))
            seen |= comps[-1]
    return comps


def load_islands(g: ZoneGraph) -> frozenset[frozenset[int]]:
    """Components that cannot reach any GFM even with every switch closed.

    Faulted edges are removed first; everything else is treated as closed.
    Zones in a load island cannot be restored by any switching plan.
    """
    gfms = set(g.gfm_nodes)
    return frozenset(c for c in _components(g.adjacency()) if not c & gfms)


class Census(NamedTuple):
    trees: dict[int, frozenset[int]]     # GFM -> its tree, in GFM order
    dark: tuple[frozenset[int], ...]     # components without a GFM


def forest_census(g: ZoneGraph, closed: frozenset[int]) -> Census | None:
    """The components of the closed switches, or None unless each is a tree
    (closed edges = zones - 1) holding at most one GFM."""
    adj = g.adjacency(closed)
    gfms = set(g.gfm_nodes)
    trees: dict[int, frozenset[int]] = {}
    dark: list[frozenset[int]] = []
    for comp in _components(adj):
        anchors = comp & gfms
        # every closed edge inside comp appears twice among its adjacencies
        if sum(len(adj[u]) for u in comp) != 2 * (len(comp) - 1) or len(anchors) > 1:
            return None
        if anchors:
            trees[min(anchors)] = comp
        else:
            dark.append(comp)
    return Census(dict(sorted(trees.items())), tuple(dark))


def is_radial_forest(g: ZoneGraph, closed: Iterable[int]) -> RadialCheck:
    """Check that a closed-edge set is a valid radial partition.

    The set must be acyclic, every component holding a GFM must hold exactly
    one, and every zone outside a load island must sit in some GFM component.
    Returns the trees keyed by their GFM, in GFM order; none if not radial.
    """
    closed_set = frozenset(closed)
    emap = g._edge_map
    for eid in closed_set:
        if eid not in emap:
            raise ValueError(f"unknown edge id {eid}")
        if eid in g.faulted_edges:
            raise ValueError(f"edge {eid} is faulted and cannot be closed")
    census = forest_census(g, closed_set)
    # a GFM-less component is legal only inside a load island
    if census is None or any(not c <= g.island_zones for c in census.dark):
        return RadialCheck(False, {})
    return RadialCheck(True, census.trees)
