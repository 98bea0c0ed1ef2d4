"""Symbolic gait coding, rhythmic-cycle dissection and passtensors.

The pipeline: load multi-sensor accelerometer recordings (``ingest``),
code them symbolically (``symbolic``, ``hca``, ``l1g2``), compare codings
by sequence complexity (``complexity``), identify subjects from state
occupancy (``pssa``), slice walks into rhythmic cycles (``landmark``) and
stack phase-aligned cycles into comparable tensors (``passtensor``).
"""

__version__ = "0.1.0"

from .complexity import SymbolSequence, couple_naive, lz76_complexity
from .errors import CodeBookMismatchError, ConfigError, DataError, GaitError
from .hca import ColumnClustering, assign_nearest, cluster_columns
from .ingest import (
    SyntheticWalk,
    TimeSeriesFrame,
    load_hugadb,
    load_marea,
    synthesize_walker,
)
from .l1g2 import (
    CoupledStateSequence,
    LocalCode,
    couple,
    encode_subsystem,
    fit_local_code,
    stack_lr,
)
from .landmark import (
    CyclePartition,
    RunStatistics,
    partition_cycles,
    run_statistics,
    select_landmark,
)
from .passtensor import (
    Passtensor,
    PasstensorDiff,
    build_passtensor,
    compare_passtensors,
    render_cylinder,
    render_rings,
    skeleton,
)
from .pssa import (
    KeyPssModel,
    ProportionMatrix,
    SystemStateTable,
    build_proportion_matrix,
    build_state_table,
    classify_matrix,
    cluster_sigma,
    coverage_curve,
    segment_proportions,
    select_pss,
    train_key_pss,
)
from .symbolic import (
    StateVectorSequence,
    TernaryCoding,
    encode_ternary,
    fit_ternary,
    resultant_acceleration,
)
