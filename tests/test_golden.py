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
    "gamma_psi0": "582805caa2fc63676eb1fdc573f6fb26a527d2d09df8b53cce6246321b0d54f7",
    "gamma_psi2": "741c26767e142eed81486a874d52718127fbe7780927cdaf8dc291ea3fcecc49",
    "gamma_lagy": "5c6cde95442d58b766772d6950ee83e5df51c280c9274e804cc3dbf4d907777c",
    "jm_g0_l010": "2dda8c2a16953f5aed88d6af6ce5e3dbb0ae782c06919dc447c26be0a5cc07bc",
    "jm_g0_l030": "b581757b0703fcf8b32deec0db66ee90596ee549c18bf90083b911dbf0ea8e2a",
    "jm_g0_l100": "2c24042bcefaefdc87a7be9c4a46f2afbd9706c06f4e24e8643c71b932e6c04e",
    "jm_g15_l010": "c6e520eeefede2e575db5e2264672cff7314ca5879067bb79a9f109012791368",
    "jm_g15_l030": "f0e84a3b6454c29999b6870a6a4c9fd9050018cda089c7bf159e0d3fbebe25df",
    "jm_g15_l100": "8b7a3f4f650dc17a0fd0294db700730abc93f77a633906b2ec5e02fc725dbd48",
    "jm_g30_l005_regular": "57138f04e5e86d5341e306caabb216c89609b7a29a4bc8df07409071b34a7b04",
}

DIAGNOSE_SHA256 = {
    "jm_g15_l030": "a6f7ba459395f9a7d8584a6fdc5698e31a39cd769e19a82535276da9c834bb8c",
    "gamma_psi2": "f070c0c11357bef004733bac3ce389dac284f50d1ea955249446497ebe62290d",
    "jm_g0_l100": "7f886b0723754e2c98729bf5d3286e08e382ac1ad3392d4e412ef8e46c5adab2",
}

FIT_SHA256 = {
    "fit_A.json": "5cf33797b57e27498054dd2bf30853c364bdb41f132dc41f75a038369278c1ff",
    "loglik_A.csv": "98a20e9b18e105f93760a8bcf4300f4bfb288e58c180883e597b7dac4aa1cfcd",
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
