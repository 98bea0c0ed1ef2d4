"""Symbolic gait coding, rhythmic-cycle dissection and passtensors.

The pipeline: load multi-sensor accelerometer recordings (``ingest``),
code them symbolically (``symbolic``, ``hca``, ``l1g2``), compare codings
by sequence complexity (``complexity``), identify subjects from state
occupancy (``pssa``), slice walks into rhythmic cycles (``landmark``) and
stack phase-aligned cycles into comparable tensors (``passtensor``).
"""

__version__ = "0.1.0"
