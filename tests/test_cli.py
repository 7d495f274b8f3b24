"""End-to-end CLI behavior: commands, CSV artifacts, and all five exit codes."""

import json
import subprocess
import sys

import numpy as np
import pytest

from crosswise import cli
from crosswise.network import model_from_json, model_to_json
from crosswise.products import IdentityCheck, IdentityReport
from crosswise.rng import _MAX_COUNT, CounterRng


def run_cli(*args, cwd=None):
    return subprocess.run(
        [sys.executable, "-m", "crosswise", *args],
        capture_output=True, text=True, cwd=cwd,
    )


def base_config(tmp_path, **overrides):
    cfg = {
        "version": 1,
        "network": {
            "layers": [
                {"kind": "dense", "in": 4, "out": 8, "activation": "relu"},
                {"kind": "dense", "in": 8, "out": 2, "activation": "softmax_output"},
            ],
            "seed": 0,
        },
        "train": {"lr": 0.1, "epochs": 3, "batch": 16, "loss": "cross_entropy", "seed": 0},
        "data": {"kind": "blobs", "seed": 1, "samples_per_class": 100, "dims": 4,
                  "classes": 2, "spread": 0.3},
        "out": {"history": str(tmp_path / "history.csv"),
                "model": str(tmp_path / "model.json")},
    }
    cfg.update(overrides)
    return cfg


def write_config(tmp_path, cfg):
    path = tmp_path / "run.json"
    path.write_text(json.dumps(cfg))
    return str(path)


def test_train_end_to_end(tmp_path):
    cfg = base_config(tmp_path)
    result = run_cli("train", "--config", write_config(tmp_path, cfg))
    assert result.returncode == 0, result.stderr
    history = (tmp_path / "history.csv").read_text().splitlines()
    assert history[0] == "epoch,loss,accuracy,wall_ms"
    assert len(history) == 1 + 3  # header + one row per epoch
    text = (tmp_path / "model.json").read_text()
    model = json.loads(text)
    assert model["version"] == 1
    assert len(model["layers"]) == 2
    assert text == json.dumps(model_to_json(model_from_json(model)), indent=1) + "\n"


def test_train_missing_config(tmp_path):
    result = run_cli("train", "--config", str(tmp_path / "nope.json"))
    assert result.returncode == 2
    assert "nope.json" in result.stderr


def test_train_invalid_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert run_cli("train", "--config", str(path)).returncode == 2
    # Bytes that are not UTF-8, and an integer beyond Python's 4,300-digit conversion limit,
    # which `json.load` refuses with a plain ValueError.
    for text in (b'{"version": \xff}', b'{"version": ' + b"7" * 5000 + b"}"):
        path.write_bytes(text)
        result = run_cli("train", "--config", str(path))
        assert result.returncode == 2 and "Traceback" not in result.stderr, result.stderr
        assert result.stderr.startswith(f"error: config {path} is not valid JSON: ")


def test_train_rejects_unknown_key(tmp_path):
    cfg = base_config(tmp_path)
    cfg["train"]["momentum"] = 0.9
    result = run_cli("train", "--config", write_config(tmp_path, cfg))
    assert result.returncode == 2
    assert "momentum" in result.stderr


def test_train_rejects_wrong_version(tmp_path):
    for version in (2, True, 1.0, "1"):
        cfg = base_config(tmp_path, version=version)
        result = run_cli("train", "--config", write_config(tmp_path, cfg))
        assert result.returncode == 2, version
        assert "config" in result.stderr and "version" in result.stderr, result.stderr
        assert not (tmp_path / "history.csv").exists()


def test_train_divergence_exit_code(tmp_path):
    cfg = base_config(tmp_path)
    cfg["network"]["layers"][1]["activation"] = "identity"
    cfg["train"].update(lr=100.0, loss="mse")
    result = run_cli("train", "--config", write_config(tmp_path, cfg))
    assert result.returncode == 3
    assert "epoch 1" in result.stderr


def test_train_unwritable_output(tmp_path):
    cfg = base_config(tmp_path)
    cfg["out"]["history"] = str(tmp_path / "missing_dir" / "history.csv")
    result = run_cli("train", "--config", write_config(tmp_path, cfg))
    assert result.returncode == 4


def test_train_checks_output_paths_before_training(tmp_path):
    (tmp_path / "a_dir").mkdir()
    for model, named in ((tmp_path / "missing_dir" / "model.json", "missing_dir"),
                         (tmp_path / "a_dir", "is a directory")):
        cfg = base_config(tmp_path)
        cfg["out"]["model"] = str(model)
        result = run_cli("train", "--config", write_config(tmp_path, cfg))
        assert result.returncode == 4
        assert named in result.stderr
        assert not (tmp_path / "history.csv").exists()
        assert list((tmp_path / "a_dir").iterdir()) == []


def test_train_refuses_one_file_for_both_outputs(tmp_path):
    (tmp_path / "sub").mkdir()
    (tmp_path / "link.out").symlink_to(tmp_path / "same.out")
    for model in (tmp_path / "sub" / ".." / "same.out", tmp_path / "link.out"):
        cfg = base_config(tmp_path)
        cfg["out"] = {"history": str(tmp_path / "same.out"), "model": str(model)}
        result = run_cli("train", "--config", write_config(tmp_path, cfg))
        assert result.returncode == 2, result.stderr
        assert "config.out.history" in result.stderr and "config.out.model" in result.stderr
        assert not (tmp_path / "same.out").exists()


def _in_cli(name):
    return lambda monkeypatch, refuse: monkeypatch.setattr(cli, name, refuse)


# (command line, what puts `refuse` where the command looks up the call that does its work).
# gen-data calls the builder that `cli._DATA_KINDS` holds for its --kind.
EARLY_OUTPUT_CHECKS = {
    "bench": (["bench", "--dims", "1024x1024"], _in_cli("build_network")),
    "kernel-check": (["kernel-check", "--d", "1024", "--blocks", "1,64"],
                     _in_cli("sample_feature_map")),
    "algebra-check": (["algebra-check"], _in_cli("verify_identities")),
    "gen-data": (["gen-data", "--kind", "xor"], lambda monkeypatch, refuse: monkeypatch.setitem(
        cli._DATA_KINDS, "xor", (refuse, cli._DATA_KINDS["xor"][1]))),
}


@pytest.mark.parametrize("command", sorted(EARLY_OUTPUT_CHECKS))
def test_output_path_checked_before_work(tmp_path, monkeypatch, capsys, command):
    """A missing --out directory exits 4 before any work, and creates no file."""
    argv, install = EARLY_OUTPUT_CHECKS[command]

    def refuse(*args, **kwargs):
        raise AssertionError(f"{command} did its work before checking --out")

    install(monkeypatch, refuse)
    assert cli.main([*argv, "--out", str(tmp_path / "missing_dir" / "out.csv")]) == 4
    assert "missing_dir" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []
    # An --out that is an existing directory is refused the same way.
    (tmp_path / "a_dir").mkdir()
    assert cli.main([*argv, "--out", str(tmp_path / "a_dir")]) == 4
    assert "a_dir: it is a directory" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == [tmp_path / "a_dir"]
    assert list((tmp_path / "a_dir").iterdir()) == []


def test_train_csv_dataset_roundtrip(tmp_path):
    data_path = tmp_path / "data.csv"
    gen = run_cli("gen-data", "--kind", "blobs", "--seed", "1", "--per-class", "50",
                  "--dims", "4", "--classes", "2", "--spread", "0.3",
                  "--out", str(data_path))
    assert gen.returncode == 0
    cfg = base_config(tmp_path)
    cfg["data"] = {"kind": "csv", "path": str(data_path)}
    assert run_cli("train", "--config", write_config(tmp_path, cfg)).returncode == 0


def test_train_refuses_a_data_path_that_is_not_a_string(tmp_path):
    """A csv `path` of another JSON type exits 2, writes no file and never
    reads stdin (0 would be the stdin file descriptor)."""
    for path in (None, 0, True, 1.5, ["data.csv"]):
        cfg = base_config(tmp_path)
        cfg["data"] = {"kind": "csv", "path": path}
        result = subprocess.run(
            [sys.executable, "-m", "crosswise", "train", "--config", write_config(tmp_path, cfg)],
            capture_output=True, text=True, input="f0,label\n1.0,0\n1.0,1\n",
        )
        assert result.returncode == 2, (path, result.stderr)
        assert "config.data.path must be a path string" in result.stderr
        assert "Traceback" not in result.stderr
        assert sorted(p.name for p in tmp_path.iterdir()) == ["run.json"]


def test_train_rejects_threads_below_one(tmp_path):
    config = write_config(tmp_path, base_config(tmp_path))
    for threads in ("0", "-5"):
        result = run_cli("train", "--config", config, "--threads", threads)
        assert result.returncode == 2, result.stderr
        assert f"error: --threads must be an integer >= 1, got {threads}" in result.stderr


def test_train_rejects_non_finite_csv(tmp_path):
    cases = {
        "features": ("f0,f1,label\n1.0,nan,0\n0.5,0.5,1\n", 2, "softmax_output", "cross_entropy"),
        "regression labels": ("f0,f1,label\n1.0,0.0,0.5\n0.5,0.5,inf\n", 1, "identity", "mse"),
    }
    for what, (text, out, activation, loss) in cases.items():
        data_path = tmp_path / "data.csv"
        data_path.write_text(text)
        cfg = base_config(tmp_path)
        cfg["network"]["layers"] = [
            {"kind": "dense", "in": 2, "out": out, "activation": activation},
        ]
        cfg["train"].update(batch=1, loss=loss)
        cfg["data"] = {"kind": "csv", "path": str(data_path)}
        result = run_cli("train", "--config", write_config(tmp_path, cfg))
        assert result.returncode == 2, result.stderr
        assert f"{what} must be finite" in result.stderr


def test_train_rejects_malformed_csv(tmp_path):
    for text, where in ((b"f0,f1,label\n1.0,abc,0\n", ":2: "), (b"f0,f1,label\n", ":1: "),
                        (b"f0,f1,label\n\xff,0,0\n", ": not UTF-8"),
                        (b"f0,f1,label\n1.0,2.0,-1\n1.0,2.0,0\n1.0,2.0,1\n", ":2: "),
                        (b"f0,f1,label\n1.0,2.0,0\n1.0,2.0,99999999999999999999\n", ":3: ")):
        data_path = tmp_path / "data.csv"
        data_path.write_bytes(text)
        cfg = base_config(tmp_path)
        cfg["data"] = {"kind": "csv", "path": str(data_path)}
        result = run_cli("train", "--config", write_config(tmp_path, cfg))
        assert result.returncode == 2, result.stderr
        assert f"data.csv{where}" in result.stderr
        assert "Traceback" not in result.stderr



def test_train_refuses_cross_entropy_without_classes(tmp_path):
    """Labels written as floats are regression targets; cross_entropy needs
    classes, so the run is refused before training and writes no file."""
    data_path = tmp_path / "data.csv"
    data_path.write_text("f0,f1,label\n1.0,0.0,1.0\n0.5,0.5,1.0\n0.0,1.0,1.0\n")
    cfg = base_config(tmp_path)
    cfg["network"]["layers"] = [
        {"kind": "dense", "in": 2, "out": 1, "activation": "softmax_output"},
    ]
    cfg["train"].update(batch=1)
    cfg["data"] = {"kind": "csv", "path": str(data_path)}
    result = run_cli("train", "--config", write_config(tmp_path, cfg))
    assert result.returncode == 2, result.stderr
    assert "cross_entropy needs a dataset with classes" in result.stderr
    assert not (tmp_path / "history.csv").exists()
    assert not (tmp_path / "model.json").exists()

def test_bench_counts_and_report(tmp_path):
    out = tmp_path / "bench.csv"
    result = run_cli("bench", "--dims", "4x8", "--reps", "10", "--out", str(out))
    assert result.returncode == 0, result.stderr
    lines = out.read_text().splitlines()
    assert lines[0] == "layer_kind,n,m,weights,mults,median_ns,reps"
    rows = [line.split(",") for line in lines[1:]]
    assert len(rows) == 2
    dense = next(r for r in rows if r[0] == "dense")
    cross = next(r for r in rows if r[0] == "crosswise")
    assert dense[3] == "32" and dense[4] == "32"
    assert cross[3] == "8" and cross[4] == "8"
    assert int(dense[5]) > 0 and int(cross[5]) > 0


def test_bench_rejects_low_reps(tmp_path):
    result = run_cli("bench", "--dims", "4x8", "--reps", "5",
                     "--out", str(tmp_path / "b.csv"))
    assert result.returncode == 2


# (command line before the list flag, the flag, its value, the exit code).  One parser
# reads both flags: every entry a positive integer, spaces around it allowed.
LIST_FLAGS = [
    *((["bench", "--reps", "10"], "--dims", value, 2)
      for value in ("4", "4x", "ax8", "0x8", "4x8x", "")),
    *((["bench", "--reps", "10"], "--dims", value, 0) for value in ("4x8", "4X8", " 4x8")),
    *((["kernel-check", "--d", "4", "--pairs", "2"], "--blocks", value, 2)
      for value in ("0", "", "a", "1,,4", "1,64,")),
    *((["kernel-check", "--d", "4", "--pairs", "2"], "--blocks", value, 0)
      for value in ("1,64", " 1, 4")),
]


@pytest.mark.parametrize("argv, flag, value, code", LIST_FLAGS,
                         ids=[f"{flag}={value!r}" for _, flag, value, _ in LIST_FLAGS])
def test_list_flags_take_positive_integers_only(tmp_path, capsys, argv, flag, value, code):
    out = tmp_path / "out.csv"
    assert cli.main([*argv, flag, value, "--out", str(out)]) == code
    err = capsys.readouterr().err
    assert out.exists() == (code == 0)
    if code:
        assert flag in err and repr(value) in err


def test_kernel_check_report(tmp_path):
    out = tmp_path / "kernel.csv"
    result = run_cli("kernel-check", "--d", "4", "--sigma", "1.0", "--blocks", "1,4",
                     "--pairs", "10", "--seed", "0", "--out", str(out))
    assert result.returncode == 0, result.stderr
    lines = out.read_text().splitlines()
    assert lines[0] == "blocks,pair,exact,approx,abs_error"
    assert len(lines) == 1 + 2 * 10
    for line in lines[1:]:
        cells = line.split(",")
        assert abs(float(cells[2]) - float(cells[3])) == pytest.approx(float(cells[4]))


def test_kernel_check_approx_matches_row_by_row(tmp_path):
    # The command maps all points in one call per map; each pair's `approx`
    # must still be the row-by-row phi(x) @ phi(y), to the last bit.
    from crosswise.features import feature_map_apply, sample_feature_map
    from crosswise.rng import CounterRng, derive_seed

    d, pairs, seed = 5, 6, 4
    out = tmp_path / "kernel.csv"
    result = run_cli("kernel-check", "--d", str(d), "--sigma", "0.8", "--blocks", "1,3",
                     "--pairs", str(pairs), "--seed", str(seed), "--out", str(out))
    assert result.returncode == 0, result.stderr
    raw = CounterRng(seed, stream=0).normal(2 * pairs * d).reshape(2 * pairs, d)
    points = raw / np.linalg.norm(raw, axis=1)[:, None]
    expected = []
    for blocks in (1, 3):
        fm = sample_feature_map(derive_seed(seed, blocks), d, 0.8, blocks)
        for i in range(pairs):
            phi_x = feature_map_apply(fm, points[2 * i])
            phi_y = feature_map_apply(fm, points[2 * i + 1])
            expected.append(repr(float(phi_x @ phi_y)))
    lines = out.read_text().splitlines()[1:]
    assert [line.split(",")[3] for line in lines] == expected


def test_kernel_check_rejects_zero_pairs(tmp_path):
    result = run_cli("kernel-check", "--pairs", "0", "--out", str(tmp_path / "k.csv"))
    assert result.returncode == 2


def test_kernel_check_refuses_a_degenerate_pair_draw(tmp_path, monkeypatch, capsys):
    """A point drawn at the origin has no direction: exit 1, and no CSV."""
    monkeypatch.setattr(CounterRng, "normal", lambda self, count: np.zeros(count))
    out = tmp_path / "k.csv"
    assert cli.main(["kernel-check", "--pairs", "2", "--out", str(out)]) == 1
    assert capsys.readouterr().err == "error: degenerate pair draw; use a different seed\n"
    assert not out.exists()


def test_algebra_check_passes(tmp_path):
    out = tmp_path / "algebra.csv"
    result = run_cli("algebra-check", "--seed", "7", "--max-dim", "4",
                     "--out", str(out))
    assert result.returncode == 0, result.stderr
    lines = out.read_text().splitlines()
    assert lines[0] == "identity_id,residual,pass"
    assert len(lines) == 6
    assert all(line.endswith(",true") for line in lines[1:])


def test_algebra_check_rejects_max_dim_one(tmp_path):
    result = run_cli("algebra-check", "--max-dim", "1", "--out", str(tmp_path / "a.csv"))
    assert result.returncode == 2


def test_algebra_check_failure_exit_code(tmp_path, monkeypatch, capsys):
    # A deliberately wrong identity result must surface as exit 1 and name
    # the failing check; patched in-process since the real math passes.
    def fake_verify(seed, max_dim):
        return IdentityReport(seed=seed, max_dim=max_dim, draws=1, checks=(
            IdentityCheck(identity_id="khatri_rao_gram", residual=0.5,
                          threshold=1e-8, passed=False),
        ))

    monkeypatch.setattr(cli, "verify_identities", fake_verify)
    code = cli.main(["algebra-check", "--seed", "0", "--max-dim", "4",
                     "--out", str(tmp_path / "a.csv")])
    assert code == 1
    assert "khatri_rao_gram" in capsys.readouterr().err
    assert (tmp_path / "a.csv").read_text().splitlines()[1].endswith(",false")


def test_gen_data_blobs(tmp_path):
    out = tmp_path / "blobs.csv"
    result = run_cli("gen-data", "--kind", "blobs", "--seed", "0", "--per-class", "100",
                     "--dims", "4", "--classes", "2", "--spread", "0.3",
                     "--out", str(out))
    assert result.returncode == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "f0,f1,f2,f3,label"
    assert len(lines) == 201


def test_gen_data_byte_identical(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for out in (a, b):
        assert run_cli("gen-data", "--kind", "xor", "--seed", "5", "--samples", "64",
                       "--noise", "0.05", "--out", str(out)).returncode == 0
    assert a.read_bytes() == b.read_bytes()


def test_gen_data_unknown_kind(tmp_path):
    result = run_cli("gen-data", "--kind", "spiral", "--out", str(tmp_path / "x.csv"))
    assert result.returncode == 2


def test_gen_data_write_failure(tmp_path):
    result = run_cli("gen-data", "--kind", "xor", "--samples", "8",
                     "--out", str(tmp_path / "no_dir" / "x.csv"))
    assert result.returncode == 4


def test_gen_data_bad_params(tmp_path):
    result = run_cli("gen-data", "--kind", "xor", "--samples", "2",
                     "--out", str(tmp_path / "x.csv"))
    assert result.returncode == 2


# (gen-data arguments, the refusal): it names the flag as typed, not the builder parameter.
GEN_DATA_REFUSALS = [
    (["--kind", "blobs", "--classes", "0"], "--classes must be an integer >= 1, got 0"),
    (["--kind", "blobs", "--per-class", "0"], "--per-class must be an integer >= 1, got 0"),
    (["--kind", "blobs", "--spread", "-1"], "--spread must be >= 0 and finite, got -1.0"),
    (["--kind", "xor", "--samples", "2"], "--samples must be an integer >= 4, got 2"),
]


@pytest.mark.parametrize("argv, message", GEN_DATA_REFUSALS,
                         ids=[argv[2] for argv, _ in GEN_DATA_REFUSALS])
def test_gen_data_refusals_name_the_flag(tmp_path, capsys, argv, message):
    out = tmp_path / "x.csv"
    assert cli.main(["gen-data", *argv, "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def test_gen_data_refuses_a_count_numpy_cannot_index(tmp_path, capsys):
    """Exit 2 with the draw's refusal, not NumPy's ValueError: 10**22 samples are 2 * 10**22
    uniforms."""
    out = tmp_path / "x.csv"
    assert cli.main(["gen-data", "--kind", "xor", "--samples", str(10**22),
                     "--out", str(out)]) == 2
    assert capsys.readouterr().err == (f"error: word count must be at most {_MAX_COUNT}, "
                                       f"got {2 * 10**22}\n")
    assert not out.exists()


XOR_DATA = {"kind": "xor", "seed": 1, "samples": 64, "noise": 0.1}


def _config_with(tmp_path, section, key, value):
    """The base config with `section`'s `key` set to `value`, and the section's name in a
    refusal.  Section "xor" is the data section of an xor dataset."""
    cfg = base_config(tmp_path)
    if section == "xor":
        cfg["data"], section = dict(XOR_DATA), "data"
    doc = cfg["network"]["layers"][0] if section == "network.layers[0]" else cfg[section]
    doc[key] = value
    return cfg, section


def _row_ids(rows, name):
    """`name(row)` for each row; a name's later rows add the type of their value, row[2]."""
    ids, seen = [], set()
    for row in rows:
        ids.append(f"{name(row)}-{type(row[2]).__name__}" if name(row) in seen else name(row))
        seen.add(name(row))
    return ids


# (config section, key, value, the refusal): it names the key as typed.  A wrong type
# gets the built object's refusal, which states the bound.
CONFIG_REFUSALS = [
    ("data", "classes", 0, "config.data.classes must be an integer >= 1, got 0"),
    ("data", "samples_per_class", 0,
     "config.data.samples_per_class must be an integer >= 1, got 0"),
    ("train", "lr", -0.1, "config.train.lr must be positive and finite, got -0.1"),
    ("train", "batch", 0, "config.train.batch must be an integer >= 1, got 0"),
    ("train", "lr", "x", "config.train.lr must be positive and finite, got 'x'"),
    ("train", "lr", 10**400, f"config.train.lr must be positive and finite, got {10**400}"),
    ("train", "epochs", 1.5, "config.train.epochs must be an integer >= 0, got 1.5"),
    ("train", "batch", "16", "config.train.batch must be an integer >= 1, got '16'"),
    ("data", "samples_per_class", 2.5,
     "config.data.samples_per_class must be an integer >= 1, got 2.5"),
    ("data", "dims", True, "config.data.dims must be an integer >= 1, got True"),
    ("data", "classes", None, "config.data.classes must be an integer >= 1, got None"),
    ("data", "spread", "0.3", "config.data.spread must be >= 0 and finite, got '0.3'"),
    ("data", "spread", 10**400, f"config.data.spread must be >= 0 and finite, got {10**400}"),
    ("xor", "samples", 64.0, "config.data.samples must be an integer >= 4, got 64.0"),
    ("xor", "noise", [], "config.data.noise must be >= 0 and finite, got []"),
]


@pytest.mark.parametrize("section, key, value, message", CONFIG_REFUSALS,
                         ids=_row_ids(CONFIG_REFUSALS, lambda row: f"{row[0]}.{row[1]}"))
def test_train_config_refusals_name_the_key(tmp_path, capsys, section, key, value, message):
    cfg, _ = _config_with(tmp_path, section, key, value)
    assert cli.main(["train", "--config", write_config(tmp_path, cfg)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "history.csv").exists()


# (layer, key, value, the refusal): `LayerSpec`'s refusal names the layer's key as typed.
LAYER_REFUSALS = [
    (0, "kind", "conv", "config.network.layers[0].kind must be one of "
                        "('dense', 'crosswise', 'crosswise_mixed'), got 'conv'"),
    (0, "in", 0, "config.network.layers[0].in must be an integer >= 1, got 0"),
    (1, "out", -2, "config.network.layers[1].out must be an integer >= 1, got -2"),
    (0, "in", "4", "config.network.layers[0].in must be an integer >= 1, got '4'"),
    (1, "out", 2.0, "config.network.layers[1].out must be an integer >= 1, got 2.0"),
]


@pytest.mark.parametrize("layer, key, value, message", LAYER_REFUSALS,
                         ids=_row_ids(LAYER_REFUSALS, lambda row: row[1]))
def test_train_layer_refusals_name_the_key(tmp_path, capsys, layer, key, value, message):
    cfg = base_config(tmp_path)
    cfg["network"]["layers"][layer][key] = value
    assert cli.main(["train", "--config", write_config(tmp_path, cfg)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "history.csv").exists()


# (section, key, the refusal) of a count of 10**22: 2 * 10**22 blobs of 4 normals, and the
# first dense layer's 10**22 * 8 weights.
OVERSIZED_COUNTS = [
    ("data", "samples_per_class", "config.data: normal count"),
    ("network.layers[0]", "in", "config.network: word count"),
]


@pytest.mark.parametrize("section, key, refusal", OVERSIZED_COUNTS,
                         ids=[key for _, key, _ in OVERSIZED_COUNTS])
def test_train_refuses_a_count_numpy_cannot_index(tmp_path, capsys, section, key, refusal):
    """Exit 2 with the draw's refusal, not NumPy's ValueError, and no output."""
    cfg, _ = _config_with(tmp_path, section, key, 10**22)
    assert cli.main(["train", "--config", write_config(tmp_path, cfg)]) == 2
    assert capsys.readouterr().err == (f"error: {refusal} must be at most {_MAX_COUNT}, "
                                       f"got {8 * 10**22}\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["run.json"]


# (section, key, whether it is an integer) for every key of the network, layer, train and
# data sections, the blobs and the xor ones.
CONFIG_KEYS = [
    ("network", "layers", False), ("network", "seed", True),
    *(("network.layers[0]", key, key in ("in", "out"))
      for key in ("kind", "in", "out", "activation")),
    *(("train", key, key in ("epochs", "batch", "seed"))
      for key in ("lr", "epochs", "batch", "loss", "seed")),
    *(("data", key, key not in ("kind", "spread"))
      for key in ("kind", "seed", "samples_per_class", "dims", "classes", "spread")),
    *(("xor", key, key != "noise") for key in ("seed", "samples", "noise")),
]
WRONG_VALUES = [
    (section, key, value) for section, key, integer in CONFIG_KEYS
    for value in (True, "1", None, [], *((1.5,) if integer else ()))
]


@pytest.mark.parametrize("section, key, value", WRONG_VALUES,
                         ids=[f"{s}.{k}={json.dumps(v)}" for s, k, v in WRONG_VALUES])
def test_every_config_key_refuses_a_wrong_value_naming_the_key(tmp_path, capsys, section,
                                                                key, value):
    """Each exits 2 before any work, whichever check refuses it: the CLI's own (the layer
    list, the data kind) or that of the object the section builds."""
    cfg, name = _config_with(tmp_path, section, key, value)
    assert cli.main(["train", "--config", write_config(tmp_path, cfg)]) == 2
    assert capsys.readouterr().err.startswith(f"error: config.{name}.{key} must ")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["run.json"]


def test_no_subcommand_is_usage_error():
    assert run_cli().returncode == 2


def test_help_exits_zero():
    result = run_cli("--help")
    assert result.returncode == 0
    assert "train" in result.stdout and "bench" in result.stdout
