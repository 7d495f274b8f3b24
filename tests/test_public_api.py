"""The public surface of `crosswise` and the README examples that use it.

Adding or removing a public name fails `test_public_names` until the list
below is edited, so every change to the surface shows up as a reviewed diff.
"""

import contextlib
import io
import json
import re
from pathlib import Path

import crosswise
from crosswise import cli

README = Path(__file__).resolve().parents[1] / "README.md"

PUBLIC_NAMES = [
    "ConfigError", "CounterRng", "CrosswiseWeights", "Dataset", "DivergenceError",
    "EpochRecord", "FeatureMap", "IdentityCheck", "IdentityReport", "LayerSpec",
    "McKernelBlock", "MultCounts", "Network", "NetworkSpec", "ParamCounts",
    "ParameterError", "SamplingError", "ShapeError", "SingularMatrixError", "TrainConfig",
    "apply_zhat", "block_count", "build_network", "cli", "count_mults", "count_weights",
    "crosswise_backward", "crosswise_forward", "datasets", "derive_seed", "diagonal",
    "errors", "expand_to_dense", "feature_map_apply", "features", "fwht", "gen_blobs",
    "gen_xor", "hadamard", "init_crosswise", "invert", "kernel_exact", "khatri_rao",
    "kronecker", "linalg", "load_csv", "loss_eval", "mix64", "model_from_json",
    "model_to_json", "network", "network_backward", "network_forward",
    "next_power_of_two", "pinv_full_rank", "products", "rng", "sample_block",
    "sample_feature_map", "save_csv", "sgd_step", "train", "train_network",
    "verify_identities", "word_at",
]


def readme_block(heading: str, lang: str) -> str:
    """The first fenced `lang` block after the README line `heading`."""
    text = README.read_text(encoding="utf-8")
    start = text.index(f"\n{heading}\n")
    return re.search(rf"```{lang}\n(.*?)```", text[start:], re.DOTALL).group(1)


def test_public_names():
    # `cli` is listed because this module imports it; the submodules appear
    # as attributes of the package once imported.
    assert sorted(n for n in dir(crosswise) if not n.startswith("_")) == PUBLIC_NAMES


def test_readme_quick_start_runs():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(readme_block("## Quick start (library)", "python"), {})
    accuracy, weights = out.getvalue().split()
    assert weights == "16"
    assert 0.0 <= float(accuracy) <= 1.0


def test_readme_run_config_parses():
    net_spec, train_cfg, data_doc, out_doc = cli.parse_config(
        json.loads(readme_block("### train", "json"))
    )
    assert [layer.kind for layer in net_spec.layers] == ["crosswise_mixed"] * 2
    assert train_cfg.epochs == 50
    assert data_doc["kind"] == "blobs"
    assert out_doc == {"history": "history.csv", "model": "model.json"}
