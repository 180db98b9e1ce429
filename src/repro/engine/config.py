"""Engine configuration knobs.

Defaults match the paper's full system; the ablation benchmarks flip the
optional features off to quantify their contribution.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class EngineConfig:
    """Tunables for the checkpoint/contract machinery.

    Attributes:
        contract_migration: enable Section 3.4 contract migration (re-point
            a contract to a newer checkpoint when no output was produced in
            between, plus the filter's saved-tuple variant).
        check_invariants: assert contract-graph invariants (Theorem 1
            bound) after every checkpoint. Cheap for realistic plans; can
            be disabled for very large stress runs.
        proactive_checkpointing: enable proactive checkpoints at
            minimal-heap-state points. Disabling degrades every GoBack to
            the initial checkpoints only — used by ablations.

    Which execution path runs is not a tunable: sessions drive
    ``Operator.next_batch``, and each operator takes its vectorized loop
    unless a suspend condition is armed, in which case it runs row by
    row. Both count the same integer events, so they agree on the
    virtual clock by construction.
    """

    contract_migration: bool = True
    check_invariants: bool = True
    proactive_checkpointing: bool = True
