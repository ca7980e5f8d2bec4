"""Quorum arithmetic of the crash and Byzantine failure models."""

import pytest

from crowdreg.errors import ConfigError
from crowdreg.topology import FailureModel, PlatformSpec, Topology, make_topology

# (model, f, nodes a platform needs, local majority)
CASES = [
    (FailureModel.CRASH, 1, 3, 2),
    (FailureModel.CRASH, 2, 5, 3),
    (FailureModel.BYZANTINE, 1, 4, 3),
    (FailureModel.BYZANTINE, 2, 7, 5),
]


def roster(n):
    return tuple(f"p1:n{j}" for j in range(n))


@pytest.mark.parametrize("model,f,nodes,majority", CASES)
class TestFailureModels:
    def test_required_node_count(self, model, f, nodes, majority):
        assert len(PlatformSpec("p1", roster(nodes), model, f).nodes) == nodes
        for wrong in (nodes - 1, nodes + 1):
            with pytest.raises(ConfigError):
                PlatformSpec("p1", roster(wrong), model, f)

    def test_local_majority(self, model, f, nodes, majority):
        assert PlatformSpec("p1", roster(nodes), model, f).local_majority == majority
        topology = make_topology(3, model, f)
        assert [len(topology.nodes_of(p)) for p in topology.platform_ids] == [nodes] * 3
        assert [topology.local_majority(p) for p in topology.platform_ids] == [majority] * 3

    def test_global_platform_quorum(self, model, f, nodes, majority):
        assert make_topology(3, model, f).global_platform_quorum() == 3
        assert make_topology(4, model, f).global_platform_quorum() == 3


def test_a_repeated_platform_or_node_is_a_config_error():
    p1 = PlatformSpec("p1", roster(3), FailureModel.CRASH, 1)
    p2 = PlatformSpec("p2", tuple(f"p2:n{j}" for j in range(3)), FailureModel.CRASH, 1)
    assert Topology([p1, p2]).platform_ids == ["p1", "p2"]
    with pytest.raises(ConfigError, match="duplicate platform id p1"):
        Topology([p1, p1])
    shares_a_node = PlatformSpec("p2", ("p2:n0", "p2:n1", "p1:n2"), FailureModel.CRASH, 1)
    with pytest.raises(ConfigError, match="node p1:n2 listed twice"):
        Topology([p1, shares_a_node])
