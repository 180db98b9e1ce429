"""Experiment harness regenerating the paper's tables and figures."""

from repro.harness.experiments import (
    OverheadResult,
    measure_suspend_overhead,
    run_reference_to_milestone,
)
from repro.harness.report import format_table
from repro.harness.scheduling import (
    DEFAULT_POLICIES,
    compare_policies,
    policy_comparison_rows,
)

__all__ = [
    "DEFAULT_POLICIES",
    "OverheadResult",
    "compare_policies",
    "format_table",
    "measure_suspend_overhead",
    "policy_comparison_rows",
    "run_reference_to_milestone",
]
