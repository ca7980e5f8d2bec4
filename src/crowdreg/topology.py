"""Platform rosters, failure models, and quorum arithmetic.

The ledger reads them to check that a commit certificate carries a quorum
of node votes.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Dict, Iterable, List, Tuple

from .errors import ConfigError


class FailureModel(str, Enum):
    CRASH = "crash"
    BYZANTINE = "byzantine"


def node_count(failure_model: FailureModel, f: int) -> int:
    """Nodes a platform needs to tolerate `f` faults: 2f+1 crash, 3f+1 Byzantine."""
    return 2 * f + 1 if failure_model == FailureModel.CRASH else 3 * f + 1


@dataclass(frozen=True, slots=True)
class PlatformSpec:
    pid: str
    nodes: Tuple[str, ...]
    failure_model: FailureModel
    f: int

    def __post_init__(self):
        need = node_count(self.failure_model, self.f)
        if len(self.nodes) != need:
            raise ConfigError(
                f"platform {self.pid}: {self.failure_model.value} with f={self.f} "
                f"needs {need} nodes, got {len(self.nodes)}"
            )

    @property
    def local_majority(self) -> int:
        return self.f + 1 if self.failure_model == FailureModel.CRASH else 2 * self.f + 1


class Topology:
    """Immutable map of platforms to node rosters."""

    def __init__(self, platforms: Iterable[PlatformSpec]):
        self.platforms: Dict[str, PlatformSpec] = {}
        self.node_platform: Dict[str, str] = {}
        for spec in platforms:
            if spec.pid in self.platforms:
                raise ConfigError(f"duplicate platform id {spec.pid}")
            self.platforms[spec.pid] = spec
            for node in spec.nodes:
                if node in self.node_platform:
                    raise ConfigError(f"node {node} listed twice")
                self.node_platform[node] = spec.pid

    @property
    def platform_ids(self) -> List[str]:
        return sorted(self.platforms)

    def nodes_of(self, pid: str) -> Tuple[str, ...]:
        return self.platforms[pid].nodes

    def all_nodes(self) -> List[str]:
        return [n for pid in self.platform_ids for n in self.platforms[pid].nodes]

    def local_majority(self, pid: str) -> int:
        return self.platforms[pid].local_majority

    def global_platform_quorum(self) -> int:
        """Platform-level two-thirds quorum for verification commits."""
        return (2 * len(self.platforms)) // 3 + 1


def make_topology(
    count: int,
    failure_model: FailureModel = FailureModel.CRASH,
    f: int = 1,
) -> Topology:
    """Uniform topology p1..pN, every platform with the same model and f."""
    specs = []
    for i in range(1, count + 1):
        pid = f"p{i}"
        nodes = tuple(f"{pid}:n{j}" for j in range(node_count(failure_model, f)))
        specs.append(PlatformSpec(pid, nodes, failure_model, f))
    return Topology(specs)
