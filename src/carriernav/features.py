"""Deterministic text features and similarity math.

The default embedder is a hashed bag-of-words: tokens are hashed into a
fixed number of buckets, counts are accumulated, and the vector is
L2-normalized.  It is fully deterministic across processes and platforms,
which the benchmark layer relies on.

:func:`text_feature` is the embedding the package reads: queries, the
carrier reference, image tokens and every derived object feature.  Its
answers are facts of content (see ``facts``), kept for the process under a
bound, not per scene: the vocabulary is small and recurs across scenes,
so each token sequence is embedded once, and a text read before is not
even tokenized.  That cannot change a result: an answer is a pure function
of the text and the dimension, and its vector is read-only.

Each :class:`Feature` knows its support: the bitmask of its non-zero
buckets, bit ``i`` for entry ``i``.  The embedder sets a bit per token
bucket as it counts; :meth:`Feature.of` reads the bits off a vector.  A
vector with an entry whose sign bit is set (a negative entry or a
``-0.0``), or whose norm is not finite, has every bit set.

The dot rule of :func:`cosine` is ``a.vec.dot(b.vec) / norms``: the
vector's own ``dot`` method, the product ``np.dot`` computes without its
function dispatch, and a numpy quotient, so a zero norm product gives
``inf`` or NaN, never a ``ZeroDivisionError``.  :func:`cosine` returns
``0.0`` with no dot product for two features that share no bucket when
their norm product is positive.  Those are the dot rule's bits: every
product in the dot is then ``+0.0`` (a finite non-negative entry times
``+0.0``), so the dot is ``+0.0`` in any summation order, and so is its
quotient by a positive norm product.  With a sign bit a product could be
``-0.0``, and an infinite or NaN entry times zero is NaN; a norm product
that is zero (a zero feature, or a norm whose squares underflowed) or NaN
makes the quotient NaN or infinite.  Those cases are left to the dot
rule.
"""

from __future__ import annotations

import math
import re
from typing import List, NamedTuple, Sequence, Tuple

import numpy as np

from . import facts

DEFAULT_EMBEDDING_DIM = 256

# FNV-1a 64-bit, fixed so bucket assignment never depends on the process.
_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_FNV_MASK = 0xFFFFFFFFFFFFFFFF

_TOKEN_RE = re.compile(r"[a-z0-9]+")

# Prefix marking an opaque image token, e.g. "img:red_alarm_clock".
IMAGE_TOKEN_PREFIX = "img:"

# The support of a vector that may share a bucket with any other: every bit set.
ALL_BUCKETS = -1


def tokenize(text: str) -> List[str]:
    """Lowercase and split on non-alphanumeric runs."""
    return _TOKEN_RE.findall(text.lower())


def token_bucket(token: str, dim: int) -> int:
    h = _FNV_OFFSET
    for byte in token.encode("utf-8"):
        h ^= byte
        h = (h * _FNV_PRIME) & _FNV_MASK
    return h % dim


def _embed(tokens: Sequence[str], dim: int) -> Tuple[np.ndarray, int]:
    """(vector, support) of ``tokens``: each token's bucket counted and set
    in the support in one pass, then the counts divided by their L2 norm.
    The dot of a count vector with itself is exact, so its norm is the one
    ``np.linalg.norm`` gives."""
    if dim <= 0:
        raise ValueError(f"embedding dim must be positive, got {dim}")
    vec = np.zeros(dim, dtype=np.float64)
    support = 0
    for token in tokens:
        bucket = token_bucket(token, dim)
        vec[bucket] += 1.0
        support |= 1 << bucket
    if support:
        vec /= math.sqrt(vec.dot(vec))
    return vec, support


class Feature(NamedTuple):
    """A feature vector with its L2 norm, zero-sentinel flag and support
    (see the module docstring)."""

    vec: np.ndarray
    norm: float
    zero: bool
    support: int

    @classmethod
    def of(cls, vec: np.ndarray) -> "Feature":
        """The feature of a 1-D float64 ``vec``: its norm is the one
        ``np.linalg.norm`` gives, the square root of its flat dot with itself."""
        flat = vec.ravel(order="K")
        norm = math.sqrt(flat.dot(flat))
        if not math.isfinite(norm) or np.signbit(vec).any():
            support = ALL_BUCKETS
        else:
            support = int.from_bytes(np.packbits(vec != 0, bitorder="little").tobytes(), "little")
        # a positive norm needs a non-zero entry; a zero one may have underflowed
        return cls(vec, norm, norm == 0.0 and is_zero_feature(vec), support)


def text_feature(text: str, dim: int) -> Feature:
    """``text`` embedded at ``dim``, with a read-only vector.  The process
    keeps one answer per (token sequence, dim), a fact of content (see
    ``facts``), and the answer each (text, dim) read: a text read before is
    neither tokenized nor embedded again.  An embedding reads only the
    tokens, so texts that tokenize alike (an image token and its caption)
    share one ``Feature``."""
    return facts.pure_answer(("spelling", text, dim), _spelled_feature, text, dim)


def _spelled_feature(text: str, dim: int) -> Feature:
    tokens = tuple(tokenize(text))
    return facts.pure_answer(("text", tokens, dim), _text_feature, tokens, dim)


def text_tokens(text: str) -> Tuple[str, ...]:
    """:func:`tokenize` of ``text`` as a tuple.  The process keeps one
    answer per spelling, a fact of content (see ``facts``), so a text read
    before is not tokenized again."""
    return facts.pure_answer(("spelling", text), _spelling_tokens, text)


def _spelling_tokens(text: str) -> Tuple[str, ...]:
    return tuple(tokenize(text))


def _text_feature(tokens: Tuple[str, ...], dim: int) -> Feature:
    vec, support = _embed(tokens, dim)
    vec.setflags(write=False)
    return Feature(vec, math.sqrt(vec.dot(vec)), not support, support)


def cosine(a: Feature, b: Feature) -> float:
    """Cosine similarity from stored norms; both must be non-zero and of
    one dimension.  Two features that share no bucket have cosine ``+0.0``
    with no dot product when their norm product is positive (see the
    module docstring).

    This is the one similarity rule.  The dot is the vector's own ``dot``
    method; the quotient stays numpy's, so a zero or NaN norm product gives
    an infinite or NaN cosine (with numpy's warning), not a Python
    ``ZeroDivisionError``.
    """
    norms = a.norm * b.norm
    if a.support & b.support or not norms > 0.0:
        return float(a.vec.dot(b.vec) / norms)
    return 0.0


def is_zero_feature(vec: np.ndarray) -> bool:
    return not np.asarray(vec).any()


def strip_image_prefix(token: str) -> str:
    if token.startswith(IMAGE_TOKEN_PREFIX):
        return token[len(IMAGE_TOKEN_PREFIX):]
    return token
