"""The 20-epoch training of the default scene, pinned bit for bit per host,
and the `augment` sweep, pinned as one digest on every host.

`TestWorkflowBytes` pins a 2-epoch `train` stdout, losses to six digits.
This pins the weights and every epoch's loss exactly, for default seeds 7
and 9 under both anchor samplings. Their bits rest on OpenBLAS's products
and on numpy's float64 `exp` and `log`, whose AVX-512 kernels round
differently from the others, so a digest is pinned per host key: the
OpenBLAS kernel, and whether numpy dispatches to its AVX-512 kernels.
"""

import contextlib
import hashlib
import io

import numpy as np

from test_simulator import openblas_core
from uatrack import cli
from uatrack.contrastive import TrainConfig, train_embedder
from uatrack.simulator import ScenarioConfig, generate

# sha256 of `training_digest()` per `host_key()`, each computed on an
# AVX-512 x86-64 host under OPENBLAS_CORETYPE=SkylakeX, Haswell, Sandybridge,
# Nehalem and Prescott (which reads Katmai), with and without
# NPY_DISABLE_CPU_FEATURES=X86_V4 (which turns AVX512_SKX off).
TRAINING_DIGESTS = {
    "OpenBLAS SkylakeX, AVX512_SKX True":
        "6338a6b55e05fedfd6031705c53472ace3750685945a43358eaff169382ecbda",
    "OpenBLAS SkylakeX, AVX512_SKX False":
        "7818c61cf15fc26463b2aa27d933e465cdc384a89d7b060a29a4bcf9e80d909f",
    "OpenBLAS Haswell, AVX512_SKX True":
        "661b4279de3ece54a1f0495aaf8491b96e7c462eae061d298d66d643c93d4a1e",
    "OpenBLAS Haswell, AVX512_SKX False":
        "67e87edb5b49a4bd24c871b8da7529ecbdcaf2145e6ac99d848019401c21701b",
    "OpenBLAS Sandybridge, AVX512_SKX True":
        "53bfd3c524dbeccde883b0b655e1750ec67c40f80ded28e3b21bc3418f4c10c3",
    "OpenBLAS Sandybridge, AVX512_SKX False":
        "17398dd0b177233832554fdd6bc3be7f994668d214d7b39a3e25aa2f3f5a6362",
    "OpenBLAS Nehalem, AVX512_SKX True":
        "de6dbf24741e81d29569f44989fa8a1dd3942fef6796e0a9c870416392003573",
    "OpenBLAS Nehalem, AVX512_SKX False":
        "c68c9e6c98a3b490cf9d37bd17648a28bdec8a35699c332c0d36df89880f8a30",
    "OpenBLAS Katmai, AVX512_SKX True":
        "11e73ee480be5aa3619b35caff27ab7a86494c6bd9f31174aefbab95d47efb3d",
    "OpenBLAS Katmai, AVX512_SKX False":
        "6bb2d49cfb469af5d28b1be21edc2ee672617212ecc9b21107ad77deecc8f8f1",
}


def numpy_avx512() -> str:
    """Whether numpy dispatches to its AVX-512 (Skylake-X) kernels, read
    from its private CPU-feature table; "unknown" where that is missing."""
    try:
        from numpy._core._multiarray_umath import __cpu_features__
    except ImportError:   # numpy < 2
        try:
            from numpy.core._multiarray_umath import __cpu_features__
        except ImportError:
            return "unknown"
    return str(__cpu_features__.get("AVX512_SKX", "unknown"))


def host_key() -> str:
    return f"OpenBLAS {openblas_core()}, AVX512_SKX {numpy_avx512()}"


def training_digest() -> str:
    """sha256 over the weights and per-epoch losses of four default
    20-epoch trainings: seeds 7 and 9, each under both samplings."""
    h = hashlib.sha256()
    for seed in (7, 9):
        frames, _ = generate(ScenarioConfig(seed=seed))
        for sampling in ("uncertainty", "random"):
            embedder, losses = train_embedder(frames, TrainConfig(anchor_sampling=sampling))
            h.update(embedder.weights.tobytes())
            h.update(np.array(losses, dtype=np.float64).tobytes())
    return h.hexdigest()


def test_training_bits_pinned():
    key, digest = host_key(), training_digest()
    assert key in TRAINING_DIGESTS, f"no training digest pinned for {key!r}; it gives {digest}"
    assert TRAINING_DIGESTS[key] == digest, (
        f"{key!r} gives training digest {digest}; pinned: {TRAINING_DIGESTS[key]}")


# sha256 of `augment_digest()`. Its text prints six digits, and it gave this
# digest under every kernel and dispatch that TRAINING_DIGESTS names.
AUGMENT_DIGEST = "d59821798009bdba134c6abe7444bf8f421107a82a1762ce73946f466dc09e73"


def augment_digest(directory) -> str:
    """sha256 over `augment`'s stdout on the default seed-7 bundle, written
    to `directory`, at frames 85, 103 and 126 with --seed 0-39."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(["simulate", "--out", str(directory)]) == 0
        for frame in (85, 103, 126):
            for seed in range(40):
                assert cli.main(["augment", "--bundle", str(directory), "--frame", str(frame),
                                 "--seed", str(seed)]) == 0
    return hashlib.sha256(out.getvalue().encode()).hexdigest()


def test_augment_sweep_pinned(tmp_path):
    digest = augment_digest(tmp_path)
    assert digest == AUGMENT_DIGEST, f"the augment sweep gives {digest}"
