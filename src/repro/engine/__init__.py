"""Iterator-based query engine with the paper's extended interface.

Every physical operator implements ``open``/``next``/``close`` plus the
paper's extensions (Table 1): ``SignContract(Ckpt)``, ``Suspend()``,
``Suspend(Ctr)``, and ``Resume()`` — here ``sign_contract``,
``do_suspend``, ``do_suspend_to``, and ``do_resume``.
"""

from repro.engine.base import Operator
from repro.engine.config import EngineConfig
from repro.engine.runtime import (
    Runtime,
    SuspendContext,
    SuspendController,
    SuspendTrigger,
)
from repro.engine.plan import (
    FilterSpec,
    HybridHashJoinSpec,
    IndexNLJSpec,
    GroupAggSpec,
    HashGroupAggSpec,
    DupElimSpec,
    MergeJoinSpec,
    NLJSpec,
    PlanSpec,
    ProjectSpec,
    ScanSpec,
    SimpleHashJoinSpec,
    SortSpec,
    instantiate_plan,
    plan_operator_count,
)
from repro.engine.validate import PlanValidationError, validate_plan_spec

__all__ = [
    "DupElimSpec",
    "EngineConfig",
    "FilterSpec",
    "GroupAggSpec",
    "HashGroupAggSpec",
    "HybridHashJoinSpec",
    "IndexNLJSpec",
    "MergeJoinSpec",
    "NLJSpec",
    "Operator",
    "PlanSpec",
    "PlanValidationError",
    "ProjectSpec",
    "Runtime",
    "ScanSpec",
    "SimpleHashJoinSpec",
    "SortSpec",
    "SuspendContext",
    "SuspendController",
    "SuspendTrigger",
    "instantiate_plan",
    "plan_operator_count",
    "validate_plan_spec",
]
