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
    "gamma_psi0": "5c132f6a310da7e45bdb2040400361b889f70ba69f4ab854f5b720658d369a93",
    "gamma_psi2": "529d5fb5b179476b8a399c130bbbc1ab6d5babacd9fca055d858884961cf0ce8",
    "gamma_lagy": "f36b078b37c57200194f1d4461278f243dffe608bdd78adbbcfc8ef277acac8b",
    "jm_g0_l010": "454131ea668eb9b94d86a157d9668543e328de0546614f8b72e870a3ff465e24",
    "jm_g0_l030": "49e7b435485cc269e3e5ca29c00c277ec4dbcb2f2dc26ea9d4b3ea39d534b679",
    "jm_g0_l100": "5ed38cc5088fad65be6e52e9276379527d18fa6bed65983c8f55d2134d16bfdb",
    "jm_g15_l010": "64a750486cca1fda2f1b5ee2a0025b7feb2c69fa4e9444cd07cdc83ae1f61c65",
    "jm_g15_l030": "26467824844b6825ffd445b51d755ec043ff6aad98ee5ae457fda11552ecc76c",
    "jm_g15_l100": "51e8728aba88d3fb52475ac56fe5952840df75c65aedda8ec8f23008a19827d2",
    "jm_g30_l005_regular": "b796120b488294a84b1f0dff8a9615a32c9d1c39d4850766227fc56a64b91425",
}

DIAGNOSE_SHA256 = {
    "jm_g15_l030": "a6f7ba459395f9a7d8584a6fdc5698e31a39cd769e19a82535276da9c834bb8c",
    "gamma_psi2": "f070c0c11357bef004733bac3ce389dac284f50d1ea955249446497ebe62290d",
    "jm_g0_l100": "7f886b0723754e2c98729bf5d3286e08e382ac1ad3392d4e412ef8e46c5adab2",
}

FIT_SHA256 = {
    "fit_A.json": "a8e00e0fd34e9eee6860010408bcab43da889ca26c7d34ac81d24617a491fd9a",
    "loglik_A.csv": "a1930e0ccfe9bbce687034315c2ee9e3a46f92300531748d5fac8772dae41ba2",
    "fit_C.json": "60c651e041e874efdaa3dca4f1e0be6a1da5d9d2b1f817877884b813a38212e8",
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
