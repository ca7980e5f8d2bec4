"""Regulated multi-platform crowdworking, at desk scale.

A regulation compiler, anonymous e-token and v-token budgets, per-platform
DAG ledger views whose blocks carry quorum commit certificates, v-token
proofs of participation, and relay and platform-failure alerts adjudicated by
the registration authority. `deployment.Deployment` builds all of them from
participant ids, regulation texts and a seed, and runs each process through
spend, check and a certified commit to every ledger view.
"""

__version__ = "0.1.0"
