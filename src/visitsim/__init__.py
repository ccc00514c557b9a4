"""Simulation and estimation toolkit for longitudinal panels whose visit
times are driven by (possibly informative) observation processes."""

__version__ = "0.1.0"

from .dgm import Family, ScenarioConfig, draw_weibull_gap, simulate_panel
from .domain import FitResult, GapRecord, PanelDataset, build_panel, read_panel_csv, write_panel_csv
from .errors import ConfigError, EstimationError, ValidationError, VisitsimError
from .harness import (DatasetDescription, EstimatesTable, InformativenessDiagnostics,
                      PerformanceTable, StudyConfig, describe_datasets,
                      diagnose_informativeness, fit_model, run_study, summarize)
from .iivw import compute_iiv_weights, fit_iivw, fit_wgee
from .jointfit import fit_joint, joint_loglik, recurrent_frailty_loglik
from .lmm import Adjustment, fit_lmm, lmm_loglik
from .survfit import CoxFit, cox_partial_loglik, fit_andersen_gill, fit_weibull_ph

__all__ = [
    "__version__",
    "Adjustment", "ConfigError", "CoxFit", "DatasetDescription", "EstimatesTable",
    "EstimationError", "Family", "FitResult", "GapRecord", "InformativenessDiagnostics",
    "PanelDataset", "PerformanceTable", "ScenarioConfig", "StudyConfig", "ValidationError",
    "VisitsimError", "build_panel", "compute_iiv_weights", "cox_partial_loglik",
    "describe_datasets", "diagnose_informativeness", "draw_weibull_gap", "fit_andersen_gill",
    "fit_iivw", "fit_joint", "fit_lmm", "fit_model", "fit_weibull_ph", "fit_wgee",
    "joint_loglik", "lmm_loglik", "read_panel_csv", "recurrent_frailty_loglik", "run_study",
    "simulate_panel", "summarize", "write_panel_csv",
]
