"""Exception hierarchy for the suspend/resume reproduction.

``SuspendRequested`` is the Python analogue of the paper's *suspend
exception* (Section 3.2): the DBMS raises it in the thread running the
query, it unwinds to the executor at a safe point, and the query enters its
suspend phase.
"""


class ReproError(Exception):
    """Base class for every error raised by this package."""


class StorageError(ReproError):
    """Raised for invalid storage-layer operations (bad page, bad handle)."""


class ContractError(ReproError):
    """Raised when the checkpoint/contract protocol is violated.

    Examples: enforcing a contract that was pruned from the contract graph,
    or signing a contract against a checkpoint that no longer exists.
    """


class InvalidSuspendPlanError(ReproError):
    """Raised when a suspend plan violates the validity constraints.

    The constraints are the ones encoded in Equations (3)-(6) of the paper:
    an operator goes back to at most one ancestor, a child may only go back
    to an ancestor its parent also goes back to, and an operator whose
    latest checkpoint postdates the contract target cannot dump state.
    """


class SuspendBudgetInfeasibleError(ReproError):
    """Raised when no valid suspend plan fits within the suspend budget."""


class LifecycleError(ReproError, RuntimeError):
    """Raised when a query's lifecycle protocol is violated.

    Examples: unbalanced suppress/unsuppress of the suspend controller, or
    a harness expecting a suspend trigger that never fired.

    Subclasses ``RuntimeError`` because these conditions were raised as
    bare ``RuntimeError`` before they were typed; callers catching the old
    class keep working.
    """


class InvalidTriggerError(ReproError, ValueError):
    """Raised when a suspend trigger could never fire in the query it is
    armed on: it names an operator the plan does not have, a counter that
    operator does not keep (``fill`` on an operator without a buffer,
    ``position`` on anything but a table scan), or a negative threshold.
    """


class ShardError(ReproError):
    """Raised for invalid sharded-execution operations.

    Examples: a plan shape the shard planner cannot partition, a shard id
    out of range, or a coordinator driven outside its state machine.
    """


class InconsistentCutError(ShardError):
    """Raised when a shard set does not form a consistent global cut.

    A global suspend commits N per-shard images, then one cut image
    holding the exchange-channel state and the member list; resuming
    from a shard set whose cut image is missing/torn, or whose member
    images cannot all be recovered or belong to another cut, raises this
    error rather than silently resuming a subset of shards against a cut
    they do not share.
    """


class TraceFileError(ReproError):
    """Raised when a JSONL trace file cannot be read as a trace.

    Examples: an empty file, a torn tail from a crashed writer, or a line
    that is not a JSON object. Carries enough context (path, line number)
    for the CLI to print a clean one-line diagnosis and exit nonzero
    instead of dumping a JSON decoder traceback.
    """

    def __init__(self, path: str, reason: str, line: int = 0):
        detail = f"{path}: {reason}"
        if line:
            detail = f"{path}:{line}: {reason}"
        super().__init__(detail)
        self.path = path
        self.reason = reason
        self.line = line


class SuspendRequested(ReproError):
    """Control-flow exception: a suspend request fired at a safe point.

    Operators poll the suspend controller at points where their in-memory
    state is internally consistent; when a request is pending the controller
    raises this exception, which unwinds to the executor.
    """

    def __init__(self, reason: str = "suspend requested"):
        super().__init__(reason)
        self.reason = reason
