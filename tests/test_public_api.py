"""The public surface of `crosswise` and the README examples that use it.

Adding or removing a public name fails `test_public_names` until the list
below is edited, so every change to the surface shows up as a reviewed diff.
"""

import contextlib
import io
import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import crosswise
from crosswise import cli

README = Path(__file__).resolve().parents[1] / "README.md"

PUBLIC_NAMES = [
    "ConfigError", "CounterRng", "Counts", "CrosswiseWeights", "Dataset", "DivergenceError",
    "EpochRecord", "FeatureMap", "IdentityCheck", "IdentityReport", "LayerSpec",
    "McKernelBlock", "Network", "NetworkSpec",
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


def test_readme_cli_examples_run(tmp_path):
    """Every command line under `## CLI` exits 0 (optional `[...]` parts
    dropped), and every CSV it writes has the header its section states."""
    text = README.read_text(encoding="utf-8")
    cli_text = text[text.index("\n## CLI\n"):]
    cli_text = cli_text[:cli_text.index("\n## ", 1)]
    (tmp_path / "run.json").write_text(readme_block("### train", "json"), encoding="utf-8")
    history = json.loads(readme_block("### train", "json"))["out"]["history"]
    # The commands run in tmp_path, so the package is found by an absolute path.
    package_root = str(Path(crosswise.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [package_root, os.environ.get("PYTHONPATH")]))}
    commands = 0
    for section in cli_text.split("\n### ")[1:]:
        stated = set(re.findall(r"`([^`\s]*,[^`\s]*)`", section))
        for block in re.findall(r"```sh\n(.*?)```", section, re.DOTALL):
            for line in block.splitlines():
                argv = shlex.split(re.sub(r"\s*\[[^]]*\]", "", line))
                assert argv[0] == "crosswise", line
                result = subprocess.run([sys.executable, "-m", "crosswise", *argv[1:]],
                                        capture_output=True, text=True, cwd=tmp_path, env=env)
                assert result.returncode == 0, (line, result.stderr)
                out = argv[argv.index("--out") + 1] if "--out" in argv else history
                header = (tmp_path / out).read_text(encoding="utf-8").splitlines()[0]
                cells = header.split(",")
                if cells == [f"f{j}" for j in range(len(cells) - 1)] + ["label"]:
                    header = "f0,...,f{d-1},label"  # a dataset CSV, as the README writes it
                assert header in stated, (line, header, stated)
                commands += 1
    assert commands == 6


def test_import_leaves_the_thread_pool_out():
    """`import crosswise` does not import `concurrent.futures`: only a block
    draw that splits its chi(n) draw across threads pays for it.  Nor does it
    import the command line (`crosswise.cli`, `argparse`), so a change there
    cannot move the import time of a program that uses the library."""
    package_root = str(Path(crosswise.__file__).resolve().parents[1])
    probe = ("import sys, crosswise; print(sorted(m for m in sys.modules "
             "if m.startswith(('concurrent', 'crosswise.cli', 'argparse'))))")
    result = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                            env={**os.environ, "PYTHONPATH": package_root}, check=True)
    assert result.stdout.strip() == "[]"
