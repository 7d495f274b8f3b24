"""Seeded training runs keep their exact bytes.

Each case trains a net for 2 epochs on 300 seeded blobs as wide as its first
layer and pins the sha256 of its `model_to_json` output and its per-epoch
losses (as float hex) and accuracies.  The values of the 64-wide mixed cases
were recorded before the FWHT's working layout became rows-innermost, the
60-wide ones before training staged a first mixed layer once per call, and
the cases with a plain last layer with M < N before training skipped the
units that nothing reads; a change to a memory layout or an operand's width
can move a row sum from sequential to pairwise or change the bits of a
following BLAS product while every tolerance-based test still passes.

The dense products (BLAS) and `exp`/`log` round differently on other BLAS
builds and SIMD targets.  A probe of those operations on fixed inputs runs
first, and the cases check the pin set recorded under the same probe digest:
`PINNED` with NumPy's AVX-512 dispatch, `PINNED_WITHOUT_AVX512` with it
turned off by `NPY_DISABLE_CPU_FEATURES="X86_V4 AVX512_ICL AVX512_SPR"` on
the same machine (NumPy 2.4, OpenBLAS with AVX-512 kernels; the blob features
and the cross-entropy histories follow NumPy's `exp`/`log`), and
`PINNED_AVX2` with `OPENBLAS_CORETYPE=Haswell` added, which makes OpenBLAS
use its AVX2 kernels: the arithmetic of a CPU without AVX-512.  Each variable
acts on one process only.  On a probe digest with no recorded set the cases
are skipped.
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
    # A first layer of width 60 is zero-padded to 64 by its mixing stage.
    "mixed(60)+dense": (("crosswise_mixed", 60, 256), ("dense", 256, 4)),
    "mixed(60)+mixed": (("crosswise_mixed", 60, 256), ("crosswise_mixed", 256, 4)),
    "mixed(60)": (("crosswise_mixed", 60, 4),),
    # A plain last layer with M < N reads only its first M inputs, so the
    # units behind the rest are dead.
    "crosswise+crosswise": (("crosswise", 64, 256), ("crosswise", 256, 4)),
    "mixed+crosswise": (("crosswise_mixed", 64, 256), ("crosswise", 256, 4)),
    "dense+crosswise+crosswise": (("dense", 64, 64), ("crosswise", 64, 256),
                                  ("crosswise", 256, 4)),
    "crosswise(60)+crosswise": (("crosswise", 60, 16), ("crosswise", 16, 4)),
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
    ("mixed(60)+dense", 32): (
        "4e29b853d4376e139811943cdb995f639451da5089b86158471da718d0afacaa",
        [("0x1.5b1c7fa760eb7p+0", 0.7633333333333333),
         ("0x1.3149248c3d70fp+0", 0.9833333333333333)],
    ),
    ("mixed(60)+dense", 7): (
        "bef7ae30ea768fd4e6c2eb4f9e7b9700482d742d620df038466be1f8426af970",
        [("0x1.d8e764cf593b5p-1", 0.9966666666666667), ("0x1.96237c69f589dp-4", 1.0)],
    ),
    ("mixed(60)+mixed", 32): (
        "ddfbba3e91b7bd03bd7e0a18fe51ac8fc1b9caf9fea170d3095c3cf671eb2279",
        [("0x1.641e1aa761816p+0", 0.25), ("0x1.64221ef60d110p+0", 0.25)],
    ),
    ("mixed(60)+mixed", 7): (
        "23761d9b527034a239b60ca1dd9c92532e8ebedc0055fbade5816474d8fa9ebe",
        [("0x1.669f1423f5ca3p+0", 0.25), ("0x1.624c0dcea64d6p+0", 0.25333333333333335)],
    ),
    ("mixed(60)", 32): (
        "0f8c60934b6e67161c56c75ed43059f0f0c14ed683d39e877ea7e98fb792c7cf",
        [("0x1.5e20c03fb361cp+0", 0.4), ("0x1.4f6caa50396f0p+0", 0.3933333333333333)],
    ),
    # Batch 300 is the whole dataset, one mini-batch per epoch.
    ("mixed(60)", 300): (
        "bc9f949173afc62e14f5c064174d2621dd931dc497883fe1fb51f0b85be48445",
        [("0x1.65d6cdf823bedp+0", 0.22333333333333333),
         ("0x1.634966c0ab687p+0", 0.38333333333333336)],
    ),
    ("mixed+dense", 300): (
        "ea702cedc65ff9065420a4d22816070ae21e7019df0013fd8109681084cfffb0",
        [("0x1.6549c0a16e87dp+0", 0.19333333333333333),
         ("0x1.635799cef6f59p+0", 0.38333333333333336)],
    ),
    ("mixed(60)+mixed", 300): (
        "2b469c37fc968b39d26096c77ff968107b3d4aa8fae71619428fcbc1c24f764e",
        [("0x1.62ecabe4f257ap+0", 0.23), ("0x1.62ea02ba2865ep+0", 0.22666666666666666)],
    ),
    ("crosswise+crosswise", 32): (
        "14f7c614c4db1267b5e8eb1334119f27644fb298e050af60ba0542824972b760",
        [("0x1.64228cec993d4p+0", 0.25), ("0x1.6406b3e34f6f3p+0", 0.25)],
    ),
    ("crosswise+crosswise", 7): (
        "9812b5ba6eb005f6fa6a40dd1db13d707f8b06b44907e6bdd4a4b64b6fe349c3",
        [("0x1.662009cd64197p+0", 0.30333333333333334), ("0x1.4b3d8385e1f6cp+0", 0.56)],
    ),
    ("mixed+crosswise", 32): (
        "3c4b93709cb42c67838531bc2080988e54a8ff18d08b4be0ca582c889fcf16e7",
        [("0x1.6412e9bbe9ed1p+0", 0.25), ("0x1.641054102006fp+0", 0.25)],
    ),
    ("mixed+crosswise", 7): (
        "efff101b66e449db175d7b26c0ce1911e97ce221b6dd515f8d17a1a60e8e22ee",
        [("0x1.666cb294b3419p+0", 0.25), ("0x1.526dd10f70013p+0", 0.5533333333333333)],
    ),
    ("dense+crosswise+crosswise", 32): (
        "4b4b5a0dc82b5fb10b0920c0c3427a5bb43c0ed22db5214c8adabd31227b1e30",
        [("0x1.64204ce37bccap+0", 0.25), ("0x1.6441ea72d97a2p+0", 0.25)],
    ),
    ("dense+crosswise+crosswise", 7): (
        "55137903b8cf8a640739804852057b22a7f59c1187dcec4615a81675ef15a7b8",
        [("0x1.66edf8e37bc25p+0", 0.25), ("0x1.67001103a3ea6p+0", 0.25)],
    ),
    ("crosswise(60)+crosswise", 32): (
        "6f981ff68fbbf709c9be82588d4e985d39a2ee6fda329b3dd4c99a216b239894",
        [("0x1.6379e730600e7p+0", 0.31), ("0x1.628c486c8b313p+0", 0.2966666666666667)],
    ),
    ("crosswise(60)+crosswise", 7): (
        "1ce216011ccfc4cbcb25a680c1af7ef8ebba3892ebf5663cba9ff4a6496df9de",
        [("0x1.62e0579b5caa6p+0", 0.36333333333333334),
         ("0x1.4d87007ed1029p+0", 0.36666666666666664)],
    ),
}


# The same cases, recorded with NumPy's AVX-512 dispatch turned off.
PINNED_WITHOUT_AVX512 = {
    ("mixed+mixed", 32): (
        "dc0844779f9718ca4167073e5f5effccec532a45dc9a19517dd999e69f91e678",
        [("0x1.63f18d3964039p+0", 0.25), ("0x1.63e40f064ba6ep+0", 0.25)],
    ),
    ("mixed+mixed", 7): (
        "f63a31c30004b60c0dd8f4b52717c436856328c89a8ed3eabe18052d77586d84",
        [("0x1.663ec32be12f7p+0", 0.25), ("0x1.5f1e404f1f57fp+0", 0.5433333333333333)],
    ),
    ("mixed+dense", 32): (
        "3f48218790b41f6bdd08913e7245b103a221721275db27a24cc2e8729d571da5",
        [("0x1.5ed7e6fb7a61fp+0", 0.6966666666666667), ("0x1.3b490fd3dcdcfp+0", 0.99)],
    ),
    ("mixed+dense", 7): (
        "dad86c57fcd1080a87c4b13ac4b156c5a603b00ec9cd18a221aac5c1f7b44bd1",
        [("0x1.edddd40d1163ap-1", 0.9866666666666667), ("0x1.191f847259403p-3", 0.99)],
    ),
    ("dense+mixed", 32): (
        "171004fdbb945c8800eef9184072daa2266abbf52332bc0a5d07c55940ffa2a6",
        [("0x1.62c0c9d156a15p+0", 0.43333333333333335),
         ("0x1.44856dcd15c8cp+0", 0.9733333333333334)],
    ),
    ("dense+mixed", 7): (
        "2935851cffdd7ae76bfd6aaf6142f1685c6405e9388a772c5e72de34cad9785b",
        [("0x1.77d308758db50p-1", 0.9966666666666667), ("0x1.a9d24f873586dp-6", 1.0)],
    ),
    ("crosswise+mixed", 32): (
        "2beefb01f6b98d1fbf2754733ae5f54c53a9072a237384da2f54668dd0a9e9e3",
        [("0x1.6418a8f87455fp+0", 0.25), ("0x1.64227af692921p+0", 0.25)],
    ),
    ("crosswise+mixed", 7): (
        "5879a042a427bc9503cec3a4588c410fce97f32aa16cc72f2a123babbf55e7d4",
        [("0x1.66ae15074f08ap+0", 0.25), ("0x1.6341057c32ebep+0", 0.25)],
    ),
    ("mixed(M<N)+dense", 32): (
        "1e44081176dd3e6e2f5c957f590094f9d4d203966d02844950e7582a01f7ebb5",
        [("0x1.62c29334ddadap+0", 0.33), ("0x1.5c96a70e0a5e3p+0", 0.44666666666666666)],
    ),
    ("mixed(M<N)+dense", 7): (
        "d52b48f89553e525e149aacc033ab780b31a45d8772f12095973f94a0a4df3e0",
        [("0x1.52446dc1af6f5p+0", 0.6066666666666667), ("0x1.d8dce2aa772e0p-1", 0.69)],
    ),
    ("mixed(60)+dense", 32): (
        "f2bede663375d0cdda572d8d9b010f5ad6de608cb7792cb3e2561409d82c824c",
        [("0x1.5b1c7fa760eb7p+0", 0.7633333333333333),
         ("0x1.3149248c3d70fp+0", 0.9833333333333333)],
    ),
    ("mixed(60)+dense", 7): (
        "f4245f78acda9e72086890a0c3bf72bbccdba564e072fe293556d2a162fdc1de",
        [("0x1.d8e764cf593b3p-1", 0.9966666666666667), ("0x1.96237c69f589ap-4", 1.0)],
    ),
    ("mixed(60)+mixed", 32): (
        "374784a7aaa86505606b1dbecaf601806ecbdcefb78d520cab51993c5a73595d",
        [("0x1.641e1aa761816p+0", 0.25), ("0x1.64221ef60d110p+0", 0.25)],
    ),
    ("mixed(60)+mixed", 7): (
        "619ffdfd8cbb0337a1504f49c4ea31d314e4ae5c869575530bc7e36c5df2faee",
        [("0x1.669f1423f5ca3p+0", 0.25), ("0x1.624c0dcea64d7p+0", 0.25333333333333335)],
    ),
    ("mixed(60)", 32): (
        "f7b490921b2ad78ab7124006a8ebaa081d8b47ff32b0379f13d7aad6d6ac8182",
        [("0x1.5e20c03fb361cp+0", 0.4), ("0x1.4f6caa50396f0p+0", 0.3933333333333333)],
    ),
    ("mixed(60)", 300): (
        "71c3ecda146db03b89af42483447c62c38c3868c7a64b3f834b3cc9750563421",
        [("0x1.65d6cdf823beep+0", 0.22333333333333333),
         ("0x1.634966c0ab687p+0", 0.38333333333333336)],
    ),
    ("mixed+dense", 300): (
        "0f26bb5a1e71ae8647ab5ee1c0f75424f401ca319f7c7b9431d73ee423f821ae",
        [("0x1.6549c0a16e87dp+0", 0.19333333333333333),
         ("0x1.635799cef6f59p+0", 0.38333333333333336)],
    ),
    ("mixed(60)+mixed", 300): (
        "08a5388f207d815b8f0661c219e65399e4542031c05814ea25216ca647e02a5e",
        [("0x1.62ecabe4f257ap+0", 0.23), ("0x1.62ea02ba2865ep+0", 0.22666666666666666)],
    ),
    ("crosswise+crosswise", 32): (
        "4463a9b6055510201460409aa88c20548ff89fcff605a053316f4d3908ca8502",
        [("0x1.64228cec993d4p+0", 0.25), ("0x1.6406b3e34f6f3p+0", 0.25)],
    ),
    ("crosswise+crosswise", 7): (
        "7f918fd3cedcbb05d5860dda889493e28dba86e0a40deba94165a1cd78ab37f5",
        [("0x1.662009cd64197p+0", 0.30333333333333334), ("0x1.4b3d8385e1f6cp+0", 0.56)],
    ),
    ("mixed+crosswise", 32): (
        "75fb25ae6ee638ee675c460a27976713a4649d6ca29355068b0b92641fc99d90",
        [("0x1.6412e9bbe9ed1p+0", 0.25), ("0x1.6410541020071p+0", 0.25)],
    ),
    ("mixed+crosswise", 7): (
        "a46378f4a760d2806acafcb922381027c289d36856cb731519f56d5fe101c7d5",
        [("0x1.666cb294b3419p+0", 0.25), ("0x1.526dd10f70013p+0", 0.5533333333333333)],
    ),
    ("dense+crosswise+crosswise", 32): (
        "4b4b5a0dc82b5fb10b0920c0c3427a5bb43c0ed22db5214c8adabd31227b1e30",
        [("0x1.64204ce37bccap+0", 0.25), ("0x1.6441ea72d97a2p+0", 0.25)],
    ),
    ("dense+crosswise+crosswise", 7): (
        "c7356de338766be9c257a887a0087cb4e97417b29226a11f3816eb538840e318",
        [("0x1.66edf8e37bc25p+0", 0.25), ("0x1.67001103a3ea6p+0", 0.25)],
    ),
    ("crosswise(60)+crosswise", 32): (
        "65f616a3cf24ce9ea8c7041da845e6085e98b1b874a77f2838c563b14973c527",
        [("0x1.6379e730600e7p+0", 0.31), ("0x1.628c486c8b313p+0", 0.2966666666666667)],
    ),
    ("crosswise(60)+crosswise", 7): (
        "b42b30d29f5e9143d4cc0d736053a656451cfdb828d97f308e7ff8aeb7eb9477",
        [("0x1.62e0579b5caa6p+0", 0.36333333333333334),
         ("0x1.4d87007ed102bp+0", 0.36666666666666664)],
    ),
}


# The same cases, recorded with NumPy's AVX-512 dispatch turned off and
# OPENBLAS_CORETYPE=Haswell, which makes OpenBLAS use its AVX2 kernels.
PINNED_AVX2 = {
    ("mixed+mixed", 32): (
        "dc0844779f9718ca4167073e5f5effccec532a45dc9a19517dd999e69f91e678",
        [("0x1.63f18d3964039p+0", 0.25), ("0x1.63e40f064ba6ep+0", 0.25)],
    ),
    ("mixed+mixed", 7): (
        "f63a31c30004b60c0dd8f4b52717c436856328c89a8ed3eabe18052d77586d84",
        [("0x1.663ec32be12f7p+0", 0.25), ("0x1.5f1e404f1f57fp+0", 0.5433333333333333)],
    ),
    ("mixed+dense", 32): (
        "3f48218790b41f6bdd08913e7245b103a221721275db27a24cc2e8729d571da5",
        [("0x1.5ed7e6fb7a61fp+0", 0.6966666666666667), ("0x1.3b490fd3dcdcfp+0", 0.99)],
    ),
    ("mixed+dense", 7): (
        "154281ae6cebfea3625c437fae5c440dddd03ffa10ac7cb5b13ce6a7b4ac340f",
        [("0x1.edddd40d1163ap-1", 0.9866666666666667), ("0x1.191f847259403p-3", 0.99)],
    ),
    ("dense+mixed", 32): (
        "171004fdbb945c8800eef9184072daa2266abbf52332bc0a5d07c55940ffa2a6",
        [("0x1.62c0c9d156a15p+0", 0.43333333333333335),
         ("0x1.44856dcd15c8cp+0", 0.9733333333333334)],
    ),
    ("dense+mixed", 7): (
        "6bc4bb3b13ef700c1ee74f2234d38930fb07ec3cebc52c000ece9d9e4af97144",
        [("0x1.77d308758db50p-1", 0.9966666666666667), ("0x1.a9d24f873586cp-6", 1.0)],
    ),
    ("crosswise+mixed", 32): (
        "2beefb01f6b98d1fbf2754733ae5f54c53a9072a237384da2f54668dd0a9e9e3",
        [("0x1.6418a8f87455fp+0", 0.25), ("0x1.64227af692921p+0", 0.25)],
    ),
    ("crosswise+mixed", 7): (
        "5879a042a427bc9503cec3a4588c410fce97f32aa16cc72f2a123babbf55e7d4",
        [("0x1.66ae15074f08ap+0", 0.25), ("0x1.6341057c32ebep+0", 0.25)],
    ),
    ("mixed(M<N)+dense", 32): (
        "1e44081176dd3e6e2f5c957f590094f9d4d203966d02844950e7582a01f7ebb5",
        [("0x1.62c29334ddadap+0", 0.33), ("0x1.5c96a70e0a5e3p+0", 0.44666666666666666)],
    ),
    ("mixed(M<N)+dense", 7): (
        "d8209d5784560b51d9d892cdf202c52c170dbcb162d7d1f68f39fa11e534456e",
        [("0x1.52446dc1af6f5p+0", 0.6066666666666667), ("0x1.d8dce2aa772e0p-1", 0.69)],
    ),
    ("mixed(60)+dense", 32): (
        "f2bede663375d0cdda572d8d9b010f5ad6de608cb7792cb3e2561409d82c824c",
        [("0x1.5b1c7fa760eb7p+0", 0.7633333333333333),
         ("0x1.3149248c3d70fp+0", 0.9833333333333333)],
    ),
    ("mixed(60)+dense", 7): (
        "9be8c9d6a720131a60a7ba83eb561324f024045b6340aed5070843b54bfddc94",
        [("0x1.d8e764cf593b5p-1", 0.9966666666666667), ("0x1.96237c69f589fp-4", 1.0)],
    ),
    ("mixed(60)+mixed", 32): (
        "374784a7aaa86505606b1dbecaf601806ecbdcefb78d520cab51993c5a73595d",
        [("0x1.641e1aa761816p+0", 0.25), ("0x1.64221ef60d110p+0", 0.25)],
    ),
    ("mixed(60)+mixed", 7): (
        "619ffdfd8cbb0337a1504f49c4ea31d314e4ae5c869575530bc7e36c5df2faee",
        [("0x1.669f1423f5ca3p+0", 0.25), ("0x1.624c0dcea64d7p+0", 0.25333333333333335)],
    ),
    ("mixed(60)", 32): (
        "f7b490921b2ad78ab7124006a8ebaa081d8b47ff32b0379f13d7aad6d6ac8182",
        [("0x1.5e20c03fb361cp+0", 0.4), ("0x1.4f6caa50396f0p+0", 0.3933333333333333)],
    ),
    ("mixed(60)", 300): (
        "71c3ecda146db03b89af42483447c62c38c3868c7a64b3f834b3cc9750563421",
        [("0x1.65d6cdf823beep+0", 0.22333333333333333),
         ("0x1.634966c0ab687p+0", 0.38333333333333336)],
    ),
    ("mixed+dense", 300): (
        "07df4003ce27ba271f19b0396e00028ad3647e6d6f542839d96b3f59c6b83d2b",
        [("0x1.6549c0a16e87dp+0", 0.19333333333333333),
         ("0x1.635799cef6f5ap+0", 0.38333333333333336)],
    ),
    ("mixed(60)+mixed", 300): (
        "08a5388f207d815b8f0661c219e65399e4542031c05814ea25216ca647e02a5e",
        [("0x1.62ecabe4f257ap+0", 0.23), ("0x1.62ea02ba2865ep+0", 0.22666666666666666)],
    ),
    ("crosswise+crosswise", 32): (
        "4463a9b6055510201460409aa88c20548ff89fcff605a053316f4d3908ca8502",
        [("0x1.64228cec993d4p+0", 0.25), ("0x1.6406b3e34f6f3p+0", 0.25)],
    ),
    ("crosswise+crosswise", 7): (
        "7f918fd3cedcbb05d5860dda889493e28dba86e0a40deba94165a1cd78ab37f5",
        [("0x1.662009cd64197p+0", 0.30333333333333334), ("0x1.4b3d8385e1f6cp+0", 0.56)],
    ),
    ("mixed+crosswise", 32): (
        "75fb25ae6ee638ee675c460a27976713a4649d6ca29355068b0b92641fc99d90",
        [("0x1.6412e9bbe9ed1p+0", 0.25), ("0x1.6410541020071p+0", 0.25)],
    ),
    ("mixed+crosswise", 7): (
        "a46378f4a760d2806acafcb922381027c289d36856cb731519f56d5fe101c7d5",
        [("0x1.666cb294b3419p+0", 0.25), ("0x1.526dd10f70013p+0", 0.5533333333333333)],
    ),
    ("dense+crosswise+crosswise", 32): (
        "4b4b5a0dc82b5fb10b0920c0c3427a5bb43c0ed22db5214c8adabd31227b1e30",
        [("0x1.64204ce37bccap+0", 0.25), ("0x1.6441ea72d97a2p+0", 0.25)],
    ),
    ("dense+crosswise+crosswise", 7): (
        "c7356de338766be9c257a887a0087cb4e97417b29226a11f3816eb538840e318",
        [("0x1.66edf8e37bc25p+0", 0.25), ("0x1.67001103a3ea6p+0", 0.25)],
    ),
    ("crosswise(60)+crosswise", 32): (
        "65f616a3cf24ce9ea8c7041da845e6085e98b1b874a77f2838c563b14973c527",
        [("0x1.6379e730600e7p+0", 0.31), ("0x1.628c486c8b313p+0", 0.2966666666666667)],
    ),
    ("crosswise(60)+crosswise", 7): (
        "b42b30d29f5e9143d4cc0d736053a656451cfdb828d97f308e7ff8aeb7eb9477",
        [("0x1.62e0579b5caa6p+0", 0.36333333333333334),
         ("0x1.4d87007ed102bp+0", 0.36666666666666664)],
    ),
}

PIN_SETS = {
    PROBE_DIGEST: PINNED,
    "3f190f6ead067f10c1daaea23c1342592b87f92e9f865205671d3a8625bcba87": PINNED_WITHOUT_AVX512,
    "99bc724d1151aadebd38d75fb41c0196d1f322054da40c19ae6b6055fb324cd5": PINNED_AVX2,
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
    pinned = PIN_SETS.get(_probe_digest())
    if pinned is None:
        pytest.skip("this platform's BLAS or exp/log rounds differently from every "
                    "platform a pin set was recorded on")
    *hidden, (kind, in_dim, out_dim) = LAYERS[layers]
    specs = [LayerSpec(*layer, "relu") for layer in hidden]
    specs.append(LayerSpec(kind, in_dim, out_dim, "softmax_output"))
    net = build_network(NetworkSpec(layers=tuple(specs), seed=5))
    dims = LAYERS[layers][0][1]
    data = gen_blobs(seed=11, samples_per_class=75, dims=dims, class_count=4, spread=0.5)
    history = train_network(net, TrainConfig(0.5, 2, batch, "cross_entropy", 3), data)
    digest = hashlib.sha256(json.dumps(model_to_json(net)).encode()).hexdigest()
    expected_digest, expected_history = pinned[layers, batch]
    assert [(r.train_loss.hex(), r.train_accuracy) for r in history] == expected_history
    assert digest == expected_digest
