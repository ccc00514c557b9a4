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
    "gamma_psi0": "d76578022a194a797d7f64a1638caf66ff07ac05cf4b8b38cf606f2d865695a6",
    "gamma_psi2": "9ba3df01167936a3b86cb9c87df7a03a4f683e1901d2fc000137814ab5a6ee8b",
    "gamma_lagy": "23dedcc68bd8ef6f05506b377c753bcd2657353117c22c97c60cebd303e91e84",
    "jm_g0_l010": "2dbf4f2d90a04e9e4b69351af362318222e9ff65800901c5eb74c4427f6520c2",
    "jm_g0_l030": "85198e23d13a6b21e52517ca55cc2a6ba9260e199128e7764d45bd15c7da2239",
    "jm_g0_l100": "8daaed7d17903d930c0829d296978d824d8e37c7a6ff4f6ebe34ad6a5a4db8a1",
    "jm_g15_l010": "8e289fa92454bf9a8e532579d71674014e8fbaf022955e591b52128619f05805",
    "jm_g15_l030": "4bdfc122bf2ca9a90dfb8e42d60ba9ad80da82f1acda46decdb70ea76b066938",
    "jm_g15_l100": "a27e631c33014fdceb9374d61ec18f983f7e3d34cbc8ff94391841cb81f7bddd",
    "jm_g30_l005_regular": "7c424b46d3891d779bf6ce22e6a96ad9168fcb2004b9f557580bd126960e934d",
}

DIAGNOSE_SHA256 = {
    "jm_g15_l030": "a6f7ba459395f9a7d8584a6fdc5698e31a39cd769e19a82535276da9c834bb8c",
    "gamma_psi2": "aeb24e9993c13947c2e9ceb639a669fc75be4a459cb21eafdc61923d54fda4d0",
    "jm_g0_l100": "7f886b0723754e2c98729bf5d3286e08e382ac1ad3392d4e412ef8e46c5adab2",
}

FIT_SHA256 = {
    "fit_A.json": "99ae0c7f318ae2fb5494a8ffdd9bb7bee8eaa6e7d183b35594b2f25ae5e780f0",
    "loglik_A.csv": "7274ac2645ed6440ce7f23a523413f059dc5ba8249f604821d3d62e82321f522",
    "fit_C.json": "0896b99cd11cb69a2fb536b2b90724725ee88c85c5f870891ac7c86ae7dfa84a",
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
