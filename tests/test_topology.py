"""Quorum arithmetic of the crash and Byzantine failure models."""

import pytest

from crowdreg.topology import FailureModel, PlatformSpec, make_topology

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
            with pytest.raises(ValueError):
                PlatformSpec("p1", roster(wrong), model, f)

    def test_local_majority(self, model, f, nodes, majority):
        assert PlatformSpec("p1", roster(nodes), model, f).local_majority == majority
        topology = make_topology(3, model, f)
        assert [len(topology.nodes_of(p)) for p in topology.platform_ids] == [nodes] * 3
        assert [topology.local_majority(p) for p in topology.platform_ids] == [majority] * 3

    def test_global_platform_quorum(self, model, f, nodes, majority):
        assert make_topology(3, model, f).global_platform_quorum() == 3
        assert make_topology(4, model, f).global_platform_quorum() == 3
