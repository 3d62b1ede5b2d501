"""Alignment of environment, hardware, and job logs on a shared clock/topology."""

from .correlate import CorrelationReport, correlate_with_hardware, correlate_with_jobs
from .report import AlignmentReport, build_alignment_report
from .timeline import Timeline, bin_events, event_presence_matrix, job_activity_matrix
from .zscore_map import NodeZScores, map_zscores_to_nodes, reduce_by_node

__all__ = [
    "CorrelationReport",
    "correlate_with_hardware",
    "correlate_with_jobs",
    "AlignmentReport",
    "build_alignment_report",
    "Timeline",
    "bin_events",
    "event_presence_matrix",
    "job_activity_matrix",
    "NodeZScores",
    "map_zscores_to_nodes",
    "reduce_by_node",
]
