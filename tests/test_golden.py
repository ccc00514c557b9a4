"""Golden outputs: SHA-256 digests of the simulated panel CSV and of a
3-replication study's estimates.csv for every shipped preset, each at the
preset's own seed, and of the ``diagnose --permutations 99`` JSON for the
simulated panels of three presets.  One more panel digest covers the
additive scheduled-visit mode (``regular_resets_process = false``), which
no preset reaches.  Three more cover the ``fit`` command on the jm_g15_l030
panel: model A at ``--gh-order 15`` with its ``--dump-loglik`` CSV, and
model C.

A refactor that is meant to leave the numbers alone must leave these
digests alone.  A change that moves results on purpose updates the table
and says why.
"""

import hashlib

import pytest

from visitsim import cli

PANEL_SHA256 = {
    "gamma_psi0": "17c56854cad6039f32a5abf3e4ce712c1896ec9ff32963be26e6c5c7522e5829",
    "gamma_psi2": "2466f15d5051c0d19bf5f3336dc2c39b550dc25f6a29206024f4714cd2bd2b4e",
    "gamma_lagy": "99c81cf832cb7df105bd7d75f6f321775ef558da64c0bcc54b737e70c808e02b",
    "jm_g0_l010": "7869387ca1a5e60eb04929028dda2daff1a7b3dcbb8f41c4a39ed3a2d358e7e3",
    "jm_g0_l030": "e538e016568cc8db75537551ee009ebb3e03c26ce7ec9bc634efbe04f026e302",
    "jm_g0_l100": "9f98abc7f7c4262d282e5929bea7d70854f9a2c6191cc992de61f26b242fa262",
    "jm_g15_l010": "11956d0c29d0ff1fe952836fb457dafd1d21ac91a6600a9ecc5422a818b518a4",
    "jm_g15_l030": "9991ee2b24a4cd62438e22a46d3a326819b216a77a8e273a4dfd5eeb2ce4f9b9",
    "jm_g15_l100": "450fa16906633e7e34070929df4c16352514709151789751a3c91d6404b93b40",
    "jm_g30_l005_regular": "4a8ff4b45b35ebe915b9b8bf5ca5389bd9482ffc7477a26835f6dc48560e99df",
}

# jm_g30_l005_regular with the process clock kept across scheduled visits
ADDITIVE_CFG = """\
[scenario]
family = joint_model
weibull_scale = 0.05
gamma = 3.0
regular_visits = true
regular_resets_process = false
seed = 230005
tag = jm_g30_l005_additive
"""
ADDITIVE_PANEL_SHA256 = "b55742525c482ecb5b585f529e98f0cfedee5585052d926846a62eee62390b86"

ESTIMATES_SHA256 = {
    "gamma_psi0": "2187a68b89289a37e6a1677dfc8cd2ee3ae1dea27d49081961326691eff06ab7",
    "gamma_psi2": "73be973bcfaece8d5bba1249e68e981f9176b141e8ae7ce2c865f67cfb0690bf",
    "gamma_lagy": "24cf64d520d9b34d983be3e44bc8ea2f91e1bf8396927a1ed7b7481fc806cd6a",
    "jm_g0_l010": "68a6a880e83303f965d862af430c79d195d3c5eaae3bee7bec24cb87546aa359",
    "jm_g0_l030": "c62d38c76a748401c00aa79e1fd38a77a500791a465175e4f878f80b7c21de2b",
    "jm_g0_l100": "94a7c0b667ce4c63ee312351cebec451092025742696335fca0b08e2dc81d6af",
    "jm_g15_l010": "b5a82c3faf752837d4b301c47bd958b61b13cf87e574e95bdcff7b8f6bb1f597",
    "jm_g15_l030": "1c430cc8b2568f6977508fd1c1e523817405e46741fc04603747efb51165ec6f",
    "jm_g15_l100": "b72ab1c430c7d1abe4b9a4e6c51026e3c0f973aadedeed206e8854fc14c6e795",
    "jm_g30_l005_regular": "ee99069a03bd379d3c14c4dbcafa39bf843f66feac545d857c773246216606da",
}

DIAGNOSE_SHA256 = {
    "jm_g15_l030": "a6f7ba459395f9a7d8584a6fdc5698e31a39cd769e19a82535276da9c834bb8c",
    "gamma_psi2": "f070c0c11357bef004733bac3ce389dac284f50d1ea955249446497ebe62290d",
    "jm_g0_l100": "7f886b0723754e2c98729bf5d3286e08e382ac1ad3392d4e412ef8e46c5adab2",
}

FIT_SHA256 = {
    "fit_A.json": "6eda5ec14ecdfab8fc4f92ed6e0b091f1537d484cb900dced48d6fe121f2115e",
    "loglik_A.csv": "83d10960f06f8db553a31245fa4ef1c0d3ad7200e3982ee8dcba67ea67de5fda",
    "fit_C.json": "bc685fbb95abf08713a2ba3ed9690c31b73f698fd582618e29fbedd53ed2a7ae",
}


def _sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def panel_digest(preset: str, tmp_path) -> str:
    out = tmp_path / "panel.csv"
    assert cli.main(["simulate", "--config", preset, "--out", str(out)]) == cli.EXIT_OK
    return _sha256(out)


def estimates_digest(preset: str, tmp_path) -> str:
    argv = ["run-study", "--config", preset, "--reps", "3", "--threads", "1",
            "--out-dir", str(tmp_path)]
    assert cli.main(argv) == cli.EXIT_OK
    return _sha256(tmp_path / "estimates.csv")


def diagnose_digest(preset: str, tmp_path) -> str:
    panel_digest(preset, tmp_path)
    out = tmp_path / "diagnose.json"
    argv = ["diagnose", "--panel", str(tmp_path / "panel.csv"), "--permutations", "99",
            "--out", str(out)]
    assert cli.main(argv) == cli.EXIT_OK
    return _sha256(out)


@pytest.fixture(autouse=True)
def _preset_seed(monkeypatch):
    monkeypatch.delenv("VISITSIM_SEED", raising=False)


@pytest.mark.parametrize("preset", cli.PRESETS)
def test_panel_csv(preset, tmp_path):
    assert panel_digest(preset, tmp_path) == PANEL_SHA256[preset]


def test_additive_regular_visits_panel_csv(tmp_path):
    cfg = tmp_path / "additive.cfg"
    cfg.write_text(ADDITIVE_CFG)
    assert panel_digest(str(cfg), tmp_path) == ADDITIVE_PANEL_SHA256


@pytest.mark.parametrize("preset", cli.PRESETS)
def test_study_estimates_csv(preset, tmp_path):
    assert estimates_digest(preset, tmp_path) == ESTIMATES_SHA256[preset]


@pytest.mark.parametrize("preset", sorted(DIAGNOSE_SHA256))
def test_diagnose_json(preset, tmp_path):
    assert diagnose_digest(preset, tmp_path) == DIAGNOSE_SHA256[preset]


def test_fit_outputs(tmp_path):
    panel_digest("jm_g15_l030", tmp_path)
    panel = str(tmp_path / "panel.csv")
    assert cli.main(["fit", "--panel", panel, "--model", "A", "--gh-order", "15",
                     "--out", str(tmp_path / "fit_A.json"),
                     "--dump-loglik", str(tmp_path / "loglik_A.csv")]) == cli.EXIT_OK
    assert cli.main(["fit", "--panel", panel, "--model", "C",
                     "--out", str(tmp_path / "fit_C.json")]) == cli.EXIT_OK
    assert {name: _sha256(tmp_path / name) for name in FIT_SHA256} == FIT_SHA256
