"""Results that the README calls exact everywhere do not move with NumPy's SIMD level.

One probe script runs twice in fresh interpreters: once with NumPy's default
CPU dispatch, and once with its AVX-512 targets turned off through
`NPY_DISABLE_CPU_FEATURES`, naming only the targets that this NumPy dispatches
and this CPU has (naming any other makes the NumPy import warn), as the CI's
trained-bytes step does.  Every value the probe hashes must be bit-identical
across the two runs.  The Box-Muller normals are not in the list: NumPy's
AVX-512 and AVX2 `log`/`exp` round some results 1 ulp apart, so they follow
the dispatch level.
"""

import json
import os
import subprocess
import sys

import pytest

PROBE = r"""
import hashlib
import json

import numpy as np

from crosswise.datasets import gen_xor
from crosswise.features import fwht
from crosswise.network import (LayerSpec, NetworkSpec, TrainConfig, build_network,
                               model_to_json, network_forward, train_network)
from crosswise.rng import CounterRng


def sha(value):
    data = value.encode() if isinstance(value, str) else np.ascontiguousarray(value).tobytes()
    return hashlib.sha256(data).hexdigest()


def net(*layers, seed):
    return build_network(NetworkSpec(layers=tuple(LayerSpec(*layer) for layer in layers),
                                     seed=seed))


rng = CounterRng(11, stream=3)
rows = CounterRng(12).uniform(32 * 60, -1.0, 1.0).reshape(32, 60)
mixed = net(("crosswise_mixed", 60, 64), ("crosswise", 64, 16, "identity"), seed=5)
xor = gen_xor(seed=3, samples=64, noise=0.0)
trained = net(("crosswise_mixed", 2, 16), ("dense", 16, 2, "identity"), seed=2)
history = train_network(trained, TrainConfig(0.05, 3, 8, "mse", 1), xor)
print(json.dumps({
    "words": sha(rng.words(1000)),
    "uniforms": sha(rng.uniform(1000, -2.0, 3.0)),
    "signs": sha(rng.rademacher(1000)),
    "permutation": sha(rng.permutation(257)),
    "init": sha(json.dumps(model_to_json(
        net(("dense", 8, 16), ("crosswise", 16, 8), ("crosswise_mixed", 8, 4), seed=9)))),
    "mixed->crosswise forward": sha(network_forward(mixed, rows)),
    "batched fwht": sha(fwht(CounterRng(13).uniform(16 * 256).reshape(16, 256))),
    "single-row fwht": sha(fwht(CounterRng(14).uniform(1024))),
    "odd-level fwht": sha(fwht(CounterRng(15).uniform(3 * 512).reshape(3, 512))),
    "gen_xor(noise=0)": sha(xor.features) + sha(xor.labels),
    "mse training": sha(json.dumps([[r.train_loss.hex(), r.train_accuracy] for r in history]
                                   + [model_to_json(trained)])),
}))
"""


def _avx512_targets() -> str:
    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:  # NumPy < 2
        from numpy.core import _multiarray_umath as umath
    return " ".join(name for name in ("X86_V4", "AVX512_ICL", "AVX512_SPR")
                    if name in umath.__cpu_dispatch__ and umath.__cpu_features__.get(name))


def _probe(disabled):
    env = {key: value for key, value in os.environ.items() if key != "NPY_DISABLE_CPU_FEATURES"}
    if disabled is not None:
        env["NPY_DISABLE_CPU_FEATURES"] = disabled
    result = subprocess.run([sys.executable, "-c", PROBE], capture_output=True, text=True,
                            env=env)
    assert result.returncode == 0, result.stderr
    return json.loads(result.stdout)


def test_exact_results_match_with_and_without_avx512_dispatch():
    targets = _avx512_targets()
    if not targets:
        pytest.skip("this NumPy dispatches no AVX-512 target that this CPU has, "
                    "so there is no second dispatch level to compare")
    default, without = _probe(None), _probe(targets)
    assert default.keys() == without.keys()
    assert sorted(name for name in default if without[name] != default[name]) == []
