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
    "gamma_psi0": "34384030a02d7778f6ff21189d6f7b4c40695d3db7e77cd025371298edc6b292",
    "gamma_psi2": "2a4ed82208c5c2f6fcfe04ae0f37981a21d43bc7a40556f35446ba2eb409a2e3",
    "gamma_lagy": "e7cb4a2ad1918114098667682123f96f36eb743282b182a7e79b188928933fcd",
    "jm_g0_l010": "42b7b9f6982e5f3ec4d2b201a76d1d360a49e63886686857cef41f5ee395b9a7",
    "jm_g0_l030": "ed0107c1781ad4cac0f8c75d56e8ad29c7301c165804dee787647242a6e1a4ef",
    "jm_g0_l100": "7eedb8a0e4076477e82190436b64e62ecb54edc14821105e362a7028f06ef3ad",
    "jm_g15_l010": "d9e319d21021dfd848715e8b188440b72a66c16f4cd5f03fd2cc6aa71d1b26b6",
    "jm_g15_l030": "4fc2a15aeae0ef69571d984d5b23129dc41c846f949ed6a0d23515300c3c4059",
    "jm_g15_l100": "9e5868297b63a48ea89f0dc07ed182aac985d23ccdc96ac7577208c846e71b72",
    "jm_g30_l005_regular": "ec321ae35970e4069412e70fc513a92519a020711b1249dee1005072689de4b0",
}

DIAGNOSE_SHA256 = {
    "jm_g15_l030": "a6f7ba459395f9a7d8584a6fdc5698e31a39cd769e19a82535276da9c834bb8c",
    "gamma_psi2": "f070c0c11357bef004733bac3ce389dac284f50d1ea955249446497ebe62290d",
    "jm_g0_l100": "7f886b0723754e2c98729bf5d3286e08e382ac1ad3392d4e412ef8e46c5adab2",
}

FIT_SHA256 = {
    "fit_A.json": "6f49fb2c892217086f292ba07ac3a3f33a2b8b972f2aa6f16cd20bd0e3ad94dd",
    "loglik_A.csv": "a21a149b30d83ed3679689d2723636adfabde7f4af8468a41fe0e5df7bcfe4af",
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
