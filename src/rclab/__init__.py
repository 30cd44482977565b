"""Deterministic simulator and exhaustive checker for recoverable
consensus algorithms in asynchronous shared memory with crash-recovery
failures."""

from .config import ExperimentConfig
from .core import (
    BOTTOM,
    Frame,
    StepLabel,
    StepRecord,
    SystemState,
    Trace,
    crash,
    digest,
    ordinary,
)
from .experiment import Experiment

__version__ = "0.1.0"

__all__ = [
    "BOTTOM",
    "Experiment",
    "ExperimentConfig",
    "Frame",
    "StepLabel",
    "StepRecord",
    "SystemState",
    "Trace",
    "crash",
    "digest",
    "ordinary",
    "__version__",
]
