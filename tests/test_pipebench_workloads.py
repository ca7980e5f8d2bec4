"""Every pipebench workload runs clean: a short seeded round fails no operation."""

import pytest

from pipebench.pipeline import Round
from pipebench.workloads import WORKLOADS, make_inputs


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_short_round_fails_no_operation(workload):
    result = Round(make_inputs(WORKLOADS[workload], 3, 80)).run()
    assert result.outcomes.attempted > 0
    assert dict(result.outcomes.failed) == {}
