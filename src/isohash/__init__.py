"""isohash: binary hash codes minimizing worst-case pairwise distance distortion.

The library learns an embedding matrix whose sign-quantized projections
preserve all pairwise l2 distances up to a single worst-case bound, via an
ADMM solver (`admm.train_nibh`) and a memory-frugal column-generation variant
(`colgen.train_nibh_cg`), plus the evaluation metrics, baselines, and theory
checks that go with it.
"""

from .core import (
    BinaryCodes,
    Dataset,
    HashModel,
    SecantBatch,
    SecantRef,
    hash_codes,
    secant_count,
)

__version__ = "0.1.0"

__all__ = [
    "BinaryCodes",
    "Dataset",
    "HashModel",
    "SecantBatch",
    "SecantRef",
    "hash_codes",
    "secant_count",
    "__version__",
]
