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
        proactive_checkpointing: enable proactive checkpoints at
            minimal-heap-state points. Disabling degrades every GoBack to
            the initial checkpoints only — used by ablations.

    How execution is batched is not a tunable: sessions drive
    ``Operator.next_batch``, each operator has one body, and batch size
    is invisible to the virtual clock (integer events, counted the same
    in any grouping).
    """

    contract_migration: bool = True
    proactive_checkpointing: bool = True
