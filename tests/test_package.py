import os
import subprocess
import sys

import visitsim


def test_star_import_resolves_every_public_name():
    namespace = {}
    exec("from visitsim import *", namespace)
    for name in visitsim.__all__:
        assert name in namespace, name
        assert namespace[name] is getattr(visitsim, name)
    assert len(set(visitsim.__all__)) == len(visitsim.__all__)


def test_joint_fit_options_are_gone():
    # model A's one setting is the quadrature order, passed as fit_joint's ``order``
    assert "JointFitOptions" not in visitsim.__all__
    assert not hasattr(visitsim, "JointFitOptions")


def test_weight_table_is_gone():
    assert "WeightTable" not in visitsim.__all__
    assert not hasattr(visitsim, "WeightTable")


def test_quadrature_rule_is_gone():
    # model A's rule is the (nodes, weights) pair of ``jointfit.gauss_hermite(order)``
    assert "QuadratureRule" not in visitsim.__all__
    assert not hasattr(visitsim, "QuadratureRule")
    assert not hasattr(visitsim.jointfit, "QuadratureRule")


def test_per_family_simulators_and_config_file_reader_are_gone():
    # one simulator entry point, ``simulate_panel``; configs are read with ``parse_scenario_text``
    for name in ("simulate_joint_model", "simulate_gamma_process", "parse_scenario_config"):
        assert name not in visitsim.__all__, name
        assert not hasattr(visitsim, name), name
        assert not hasattr(visitsim.dgm, name), name


def test_subject_and_joint_params_records_are_gone():
    # build_panel takes a panel's columns; model A's likelihoods take a name -> value mapping
    for name in ("Subject", "JointParams"):
        assert name not in visitsim.__all__, name
        for namespace in (visitsim, visitsim.domain, visitsim.jointfit):
            assert not hasattr(namespace, name), (namespace.__name__, name)


def test_cli_import_leaves_scipy_optimize_and_stats_out():
    # only the diagnostics import scipy.stats, and no fit needs scipy.optimize
    assert "scipy" not in vars(visitsim.jointfit) and "scipy" not in vars(visitsim.lmm)
    code = "import sys, visitsim.cli; print([m for m in ('scipy.optimize', 'scipy.stats') if m in sys.modules])"
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(visitsim.__file__))}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"
