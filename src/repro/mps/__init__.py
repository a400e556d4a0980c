"""Matrix Product State tensor networks and the TN(rho0, P) approximator."""

from .mps import MPS
from .truncation import TruncationInfo, split_theta
from .approximator import LocalPredicate, MPSApproximator

__all__ = [
    "MPS",
    "TruncationInfo",
    "split_theta",
    "LocalPredicate",
    "MPSApproximator",
]
