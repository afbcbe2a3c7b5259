import pytest

from gridsplit import (
    GridFormingResource,
    SwitchEdge,
    ZoneGraph,
    ZoneNode,
    is_radial_forest,
    load_islands,
)


def _node(i, gfm=False, critical=False, feeder=1):
    return ZoneNode(id=i, feeder_id=feeder, is_critical=critical,
                    peak_load_kw=100.0, has_gfm=gfm)


def _res(i):
    return GridFormingResource(node_id=i, battery_power_kw=100.0,
                               battery_energy_kwh=400.0)


def chain_graph(n=3, gfm=1):
    """1-2-...-n path; edge i joins i and i+1."""
    nodes = tuple(_node(i, gfm=(i == gfm)) for i in range(1, n + 1))
    edges = tuple(SwitchEdge(i, i, i + 1, False, 1000.0)
                  for i in range(1, n))
    return ZoneGraph(nodes, edges, (_res(gfm),))


class TestGraphValidation:
    def test_duplicate_node_ids_rejected(self):
        with pytest.raises(ValueError, match="duplicate node"):
            ZoneGraph((_node(1), _node(1)), ())

    def test_edge_to_unknown_node_rejected(self):
        with pytest.raises(ValueError, match="unknown node"):
            ZoneGraph((_node(1, gfm=True),),
                      (SwitchEdge(1, 1, 2, False, 10.0),), (_res(1),))

    def test_self_loop_rejected(self):
        with pytest.raises(ValueError, match="self-loop"):
            ZoneGraph((_node(1, gfm=True),),
                      (SwitchEdge(1, 1, 1, False, 10.0),), (_res(1),))

    def test_gfm_flag_must_match_resource(self):
        with pytest.raises(ValueError, match="has_gfm"):
            ZoneGraph((_node(1, gfm=True),), ())

    def test_unknown_faulted_edge_rejected(self):
        with pytest.raises(ValueError, match="faulted edge"):
            ZoneGraph((_node(1, gfm=True),), (), (_res(1),),
                      faulted_edges=frozenset({9}))

    def test_policy_must_touch_its_gfm(self):
        g = chain_graph(3)
        from gridsplit import LateralPolicy
        with pytest.raises(ValueError, match="not incident"):
            ZoneGraph(g.nodes, g.edges, g.resources,
                      lateral_policies=(LateralPolicy(1, 2, 1),))

    def test_force_zero_excludes_minimum(self):
        from gridsplit import LateralPolicy
        g = chain_graph(3)
        with pytest.raises(ValueError, match="force_zero"):
            ZoneGraph(g.nodes, g.edges, g.resources,
                      lateral_policies=(
                          LateralPolicy(1, 1, 2, force_zero=True),))


class TestLoadIslands:
    def test_fixture_has_no_islands(self, scenario):
        assert load_islands(scenario.graph) == frozenset()

    def test_cutting_both_edges_at_zone_five_makes_an_island(self, scenario):
        g = scenario.graph
        cut = g.with_faulted(g.faulted_edges | {4, 9})
        assert load_islands(cut) == frozenset({frozenset({5})})

    def test_lone_gfm_node_is_not_an_island(self):
        g = ZoneGraph((_node(1, gfm=True),), (), (_res(1),))
        assert load_islands(g) == frozenset()


class TestRadialForest:
    def test_fixture_default_topology_is_radial(self, scenario):
        check = is_radial_forest(scenario.graph, range(1, 9))
        assert check.is_radial
        assert check.trees == {1: frozenset({1, 2, 3, 4, 5}),
                               7: frozenset({6, 7, 8, 9, 10})}

    def test_cycle_is_rejected(self, scenario):
        # edges 1,2,3,10 plus tie 9 and 4 close the loop 1-2-10-9-... no:
        # simplest cycle is 3-4-5-6-7-8-9-10-2-1 ring via both ties.
        closed = {1, 2, 3, 4, 9, 5, 6, 7, 8, 10}
        assert not is_radial_forest(scenario.graph, closed).is_radial

    def test_two_gfms_in_one_tree_is_rejected(self, scenario):
        # all default edges plus tie 9: acyclic but spans both sources
        closed = set(range(1, 9)) | {9}
        assert not is_radial_forest(scenario.graph, closed).is_radial

    def test_stranded_zone_outside_island_is_rejected(self, scenario):
        # zone 5 left out while reachable: not a legal partition
        closed = {1, 2, 3, 5, 6, 7, 8}
        assert not is_radial_forest(scenario.graph, closed).is_radial

    def test_closing_a_faulted_edge_is_an_error(self, scenario):
        with pytest.raises(ValueError, match="faulted"):
            is_radial_forest(scenario.graph, {11})

    def test_cycle_inside_a_load_island_is_rejected(self, ring_island_graph):
        # both trees are fine, but 4, 5, 6 and 7 close the ring 5-8-7-6
        # inside the island behind the faulted edge 10
        check = is_radial_forest(ring_island_graph, {1, 3, 4, 5, 6, 7})
        assert not check.is_radial
        assert is_radial_forest(ring_island_graph, {1, 3, 4, 5, 6}).is_radial

    def test_island_component_may_go_dark(self, scenario):
        g = scenario.graph
        cut = g.with_faulted(g.faulted_edges | {4, 9})
        check = is_radial_forest(cut, {1, 2, 3, 5, 6, 7, 8})
        assert check.is_radial
        assert frozenset({5}) not in check.trees.values()
