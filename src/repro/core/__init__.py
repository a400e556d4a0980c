"""Gleipnir core: the (rho_hat, delta) error logic, analyzer, and baselines."""

from .predicate import LocalPredicate, trivial_local_predicate
from .judgment import Judgment
from .derivation import Derivation, DerivationNode, GateContribution
from .rules import (
    absorb_continuations,
    gate_rule,
    meas_rule,
    seq_rule,
    skip_rule,
    weaken_rule,
)
from .analyzer import AnalysisResult, GleipnirAnalyzer, analyze_program
from .scheduler import BoundScheduler, SchedulerReport
from .baselines import (
    BaselineOutcome,
    exact_error,
    lqr_full_simulation_bound,
    worst_case_bound,
)

__all__ = [name for name in dir() if not name.startswith("_")]
