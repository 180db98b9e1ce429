"""The paper's primary contribution.

- :mod:`repro.core.checkpoint` / :mod:`repro.core.contract_graph` —
  asynchronous checkpoints, contracts, and the contract graph (Section 3).
- :mod:`repro.core.strategies` — the DumpState/GoBack suspend-plan space
  and its validity rules (Sections 3.2 and 5).
- :mod:`repro.core.suspended_query` — the SuspendedQuery structure.
- :mod:`repro.core.costs` — suspend-time cost constants (d, g, c).
- :mod:`repro.core.optimizer` — the Section 5 suspend-plan program and
  its one exact solver, a budget-aware tree DP (no MIP library).
- :mod:`repro.core.static_optimizer` — the offline baseline of Figure 12.
- :mod:`repro.core.lifecycle` — the execute/suspend/resume query lifecycle.
"""

from repro.core.checkpoint import Checkpoint, Contract
from repro.core.contract_graph import ContractGraph
from repro.core.lifecycle import ExecutionResult, QuerySession, QueryStatus
from repro.core.optimizer import choose_suspend_plan
from repro.core.strategies import OpDecision, Strategy, SuspendPlan
from repro.core.suspended_query import OpSuspendEntry, SuspendedQuery

__all__ = [
    "Checkpoint",
    "Contract",
    "ContractGraph",
    "ExecutionResult",
    "OpDecision",
    "OpSuspendEntry",
    "QuerySession",
    "QueryStatus",
    "Strategy",
    "SuspendPlan",
    "SuspendedQuery",
    "choose_suspend_plan",
]
