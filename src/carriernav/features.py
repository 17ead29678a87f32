"""Deterministic text features and similarity math.

The default embedder is a hashed bag-of-words: tokens are hashed into a
fixed number of buckets, counts are accumulated, and the vector is
L2-normalized.  It is fully deterministic across processes and platforms,
which the benchmark layer relies on.
"""

from __future__ import annotations

import re
from typing import List, NamedTuple

import numpy as np

DEFAULT_EMBEDDING_DIM = 256

# FNV-1a 64-bit, fixed so bucket assignment never depends on the process.
_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_FNV_MASK = 0xFFFFFFFFFFFFFFFF

_TOKEN_RE = re.compile(r"[a-z0-9]+")

# Prefix marking an opaque image token, e.g. "img:red_alarm_clock".
IMAGE_TOKEN_PREFIX = "img:"


def tokenize(text: str) -> List[str]:
    """Lowercase and split on non-alphanumeric runs."""
    return _TOKEN_RE.findall(text.lower())


def token_bucket(token: str, dim: int) -> int:
    h = _FNV_OFFSET
    for byte in token.encode("utf-8"):
        h ^= byte
        h = (h * _FNV_PRIME) & _FNV_MASK
    return h % dim


def embed_text(text: str, dim: int = DEFAULT_EMBEDDING_DIM) -> np.ndarray:
    """Embed ``text`` as an L2-normalized hashed bag-of-words vector.

    Empty or tokenless input returns the all-zero sentinel vector; callers
    treat that as "no feature" rather than a valid direction.
    """
    if dim <= 0:
        raise ValueError(f"embedding dim must be positive, got {dim}")
    vec = np.zeros(dim, dtype=np.float64)
    for token in tokenize(text):
        vec[token_bucket(token, dim)] += 1.0
    norm = float(np.linalg.norm(vec))
    if norm == 0.0:
        return vec
    return vec / norm


class Feature(NamedTuple):
    """A feature vector with its L2 norm and zero-sentinel flag."""

    vec: np.ndarray
    norm: float
    zero: bool

    @classmethod
    def of(cls, vec: np.ndarray) -> "Feature":
        norm = float(np.linalg.norm(vec))
        # a positive norm needs a non-zero entry; a zero one may have underflowed
        return cls(vec, norm, norm == 0.0 and is_zero_feature(vec))


def cosine(a: Feature, b: Feature) -> float:
    """Cosine similarity from stored norms; both must be non-zero.

    This is the one similarity rule: :func:`cosine_similarity` validates
    its inputs and then applies it.
    """
    return float(np.dot(a.vec, b.vec) / (a.norm * b.norm))


def cosine_similarity(a: np.ndarray, b: np.ndarray) -> float:
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.ndim != 1 or b.ndim != 1:
        raise ValueError("cosine_similarity expects 1-D vectors")
    if a.shape[0] != b.shape[0]:
        raise ValueError(f"dimension mismatch: {a.shape[0]} vs {b.shape[0]}")
    if not np.all(np.isfinite(a)) or not np.all(np.isfinite(b)):
        raise ValueError("feature vectors must be finite")
    fa, fb = Feature.of(a), Feature.of(b)
    if fa.norm == 0.0 or fb.norm == 0.0:
        raise ValueError("cosine similarity undefined for zero-norm input")
    return cosine(fa, fb)


def is_zero_feature(vec: np.ndarray) -> bool:
    return not np.asarray(vec).any()


def strip_image_prefix(token: str) -> str:
    if token.startswith(IMAGE_TOKEN_PREFIX):
        return token[len(IMAGE_TOKEN_PREFIX):]
    return token
