"""Seeded training runs keep their exact bytes.

Each case trains a 64-wide net for 2 epochs on seeded blobs and pins the
sha256 of its `model_to_json` output and its per-epoch losses (as float hex)
and accuracies.  The values were recorded before the FWHT's working layout
became rows-innermost; a change to a memory layout can move a row sum from
sequential to pairwise or change the bits of a following BLAS product while
every tolerance-based test still passes.

The dense products (BLAS) and `exp`/`log` round differently on other BLAS
builds and SIMD targets.  A probe of those operations on fixed inputs runs
first: where its digest differs from the one recorded with the pinned
values, the pinned values do not apply and the cases are skipped.
"""

import hashlib
import json

import numpy as np
import pytest

from crosswise.datasets import gen_blobs
from crosswise.network import (
    LayerSpec,
    NetworkSpec,
    TrainConfig,
    build_network,
    model_to_json,
    train_network,
)

PROBE_DIGEST = "9fec052cb112f5c817186175d3a41d5efdb31dab8d7e6e7cfae1dd8b6be9ce80"

LAYERS = {
    "mixed+mixed": (("crosswise_mixed", 64, 256), ("crosswise_mixed", 256, 4)),
    "mixed+dense": (("crosswise_mixed", 64, 256), ("dense", 256, 4)),
    "dense+mixed": (("dense", 64, 256), ("crosswise_mixed", 256, 4)),
    "crosswise+mixed": (("crosswise", 64, 256), ("crosswise_mixed", 256, 4)),
    "mixed(M<N)+dense": (("crosswise_mixed", 64, 16), ("dense", 16, 4)),
}

# (layers, batch) -> (sha256 of the model JSON, [(loss hex, accuracy) per epoch])
PINNED = {
    ("mixed+mixed", 32): (
        "039015c4ec0b21289390bf2493410a04f990dabb9afa7f57dd1452fe9de72403",
        [("0x1.63f18d3964039p+0", 0.25), ("0x1.63e40f064ba6ep+0", 0.25)],
    ),
    ("mixed+mixed", 7): (
        "4b16439145972a27de8874925ff5fa3a008225dce8104f53c521a45d488e39b1",
        [("0x1.663ec32be12f7p+0", 0.25), ("0x1.5f1e404f1f57fp+0", 0.5433333333333333)],
    ),
    ("mixed+dense", 32): (
        "1f08360d9c33eb4303f68ff6af26d18e5b50825287b2b7646adb7c5ac806dfcc",
        [("0x1.5ed7e6fb7a61fp+0", 0.6966666666666667), ("0x1.3b490fd3dcdcfp+0", 0.99)],
    ),
    ("mixed+dense", 7): (
        "e6717db971aeac776ebd45ff8a79ab406d6fd13ebdefec6d8a8cd8e4af5f57fa",
        [("0x1.edddd40d1163ap-1", 0.9866666666666667), ("0x1.191f847259402p-3", 0.99)],
    ),
    ("dense+mixed", 32): (
        "ee2762a1660fe77f3e75731fa77a7c484bcea1dcdd686370f35ded85d16713bf",
        [("0x1.62c0c9d156a15p+0", 0.43333333333333335),
         ("0x1.44856dcd15c8cp+0", 0.9733333333333334)],
    ),
    ("dense+mixed", 7): (
        "2779ee43282e27941fb25e34850eb6b9eb4d2703e429f0c4c1a64f5e334d6bcb",
        [("0x1.77d308758db50p-1", 0.9966666666666667), ("0x1.a9d24f873586dp-6", 1.0)],
    ),
    ("crosswise+mixed", 32): (
        "a177d69dcfa6c5e72087ad50b4af12be612d5e22ea55a1d2bd714e40f0d64257",
        [("0x1.6418a8f87455fp+0", 0.25), ("0x1.64227af692921p+0", 0.25)],
    ),
    ("crosswise+mixed", 7): (
        "26ccf432f1c2f2e28840bf9a9eb5bc6112222f78aef4124eb579625692876560",
        [("0x1.66ae15074f08ap+0", 0.25), ("0x1.6341057c32ebep+0", 0.25)],
    ),
    ("mixed(M<N)+dense", 32): (
        "af92d2806457c88f5e9fe8f74114b169b3b78e9448bf52dd9175e10a5c35ce5a",
        [("0x1.62c29334ddad8p+0", 0.33), ("0x1.5c96a70e0a5e3p+0", 0.44666666666666666)],
    ),
    ("mixed(M<N)+dense", 7): (
        "631cd1c273a5de71e7cbd7e64d3112983339c46e31233bb0d5dfd36869f32ce7",
        [("0x1.52446dc1af6f5p+0", 0.6066666666666667), ("0x1.d8dce2aa772e0p-1", 0.69)],
    ),
}


def _probe_digest():
    """Digest of BLAS products in the shapes the dense layers use, and of exp/log."""
    a = (np.arange(32 * 64) % 97 - 48.0).reshape(32, 64) / 7.0
    w = (np.arange(256 * 64) % 89 - 44.0).reshape(256, 64) / 13.0
    h = a @ w.T
    parts = (h, a[:7] @ w.T, h.T @ a, h[:, :4] @ w[:4], np.exp(h / 500.0),
             np.log(np.abs(h) + 1.0))
    return hashlib.sha256(b"".join(p.tobytes() for p in parts)).hexdigest()


@pytest.mark.parametrize("layers, batch", sorted(PINNED))
def test_seeded_training_keeps_model_bytes_and_history(layers, batch):
    if _probe_digest() != PROBE_DIGEST:
        pytest.skip("this platform's BLAS or exp/log rounds differently from the "
                    "one the pinned values were recorded on")
    *hidden, (kind, in_dim, out_dim) = LAYERS[layers]
    specs = [LayerSpec(*layer, "relu") for layer in hidden]
    specs.append(LayerSpec(kind, in_dim, out_dim, "softmax_output"))
    net = build_network(NetworkSpec(layers=tuple(specs), seed=5))
    data = gen_blobs(seed=11, samples_per_class=75, dims=64, class_count=4, spread=0.5)
    history = train_network(net, TrainConfig(0.5, 2, batch, "cross_entropy", 3), data)
    digest = hashlib.sha256(json.dumps(model_to_json(net)).encode()).hexdigest()
    expected_digest, expected_history = PINNED[layers, batch]
    assert [(r.train_loss.hex(), r.train_accuracy) for r in history] == expected_history
    assert digest == expected_digest
