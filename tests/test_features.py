"""Embedder and similarity checks, pinned against hand-derived values."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from carriernav.features import (
    DEFAULT_EMBEDDING_DIM,
    Feature,
    cosine,
    cosine_similarity,
    embed_text,
    is_zero_feature,
    strip_image_prefix,
    token_bucket,
    tokenize,
)
from carriernav.graph import DEFAULT_CARRIER_REFERENCE
from carriernav.scenarios import ATTRIBUTES, CARRIER_KINDS, ITEM_KINDS

import oracles


def fnv1a_bucket(token: str, dim: int) -> int:
    # independent 64-bit FNV-1a, written from the published constants
    h = 0xCBF29CE484222325
    for b in token.encode("utf-8"):
        h ^= b
        h = (h * 0x100000001B3) % 2**64
    return h % dim


def test_tokenize_lowercases_and_splits():
    assert tokenize("Red CUP, on the   table!") == ["red", "cup", "on", "the", "table"]
    assert tokenize("") == []
    assert tokenize("--- ///") == []


def test_token_bucket_matches_independent_fnv():
    vocab = ["table", "cup", "red", "furniture", "img", "x", "controller"]
    for w in vocab:
        assert token_bucket(w, 256) == fnv1a_bucket(w, 256)
    # frozen spot values so an accidental constant change cannot hide
    assert token_bucket("table", 256) == 63
    assert token_bucket("cup", 256) == 175
    assert token_bucket("red", 256) == 28
    assert token_bucket("furniture", 256) == 5


def test_generator_vocabulary_is_collision_free():
    """Every word the scenario generator can emit gets its own bucket.

    This is what lets exact token-count cosines stand in as an oracle for
    the hashed-feature cosines everywhere else in the suite.
    """
    vocab = set(ATTRIBUTES) | set(CARRIER_KINDS) | set(ITEM_KINDS)
    vocab |= set(tokenize(DEFAULT_CARRIER_REFERENCE))
    buckets = {w: token_bucket(w, DEFAULT_EMBEDDING_DIM) for w in vocab}
    assert len(set(buckets.values())) == len(vocab)


def test_embed_text_is_unit_norm_and_deterministic():
    v1 = embed_text("red cup on the table")
    v2 = embed_text("red cup on the table")
    assert np.array_equal(v1, v2)
    assert math.isclose(float(np.linalg.norm(v1)), 1.0, abs_tol=1e-12)
    assert v1.shape == (DEFAULT_EMBEDDING_DIM,)
    assert np.all(v1 >= 0.0)


def test_embed_text_empty_returns_zero_sentinel():
    v = embed_text("")
    assert is_zero_feature(v)
    assert not is_zero_feature(embed_text("cup"))
    # similarity against the sentinel is undefined; callers must gate on
    # is_zero_feature instead of relying on a silent zero
    with pytest.raises(ValueError):
        cosine_similarity(v, embed_text("cup"))


def test_embed_text_rejects_bad_dim():
    with pytest.raises(ValueError):
        embed_text("cup", 0)


# Closed forms: captions are collision-free, so the hashed cosine must
# equal the exact token-count cosine.  "brown table table" against the
# carrier reference (4 glue words + 6 kinds repeated 4x) is 8/(sqrt(5)*10).
FROZEN_COSINES = [
    ("brown table table", DEFAULT_CARRIER_REFERENCE, 0.8 / math.sqrt(5)),   # 0.357771
    ("table", DEFAULT_CARRIER_REFERENCE, 0.4),
    ("red cup red cup cup", "red cup red cup cup", 1.0),
    ("red cup red cup cup", "blue cup blue cup cup", 9.0 / 13.0),           # 0.692308
    ("red cup", "red cup red cup cup", 5.0 / math.sqrt(26.0)),              # 0.980581
    ("red cup", "blue cup blue cup cup", 3.0 / math.sqrt(26.0)),            # 0.588348
    ("red cup red cup cup", "red book red book book", 4.0 / 13.0),
    ("red cup red cup cup", DEFAULT_CARRIER_REFERENCE, 0.0),
]


@pytest.mark.parametrize("text_a,text_b,expected", FROZEN_COSINES)
def test_cosine_frozen_values(text_a, text_b, expected):
    got = cosine_similarity(embed_text(text_a), embed_text(text_b))
    assert got == pytest.approx(expected, abs=1e-12)
    assert got == pytest.approx(oracles.bag_cosine(text_a, text_b), abs=1e-12)


def test_carrier_reference_norm_is_ten():
    # 4 glue words (1 each) + 6 kinds (4 each): sqrt(4 + 6*16) = 10 exactly
    counts = {}
    for tok in tokenize(DEFAULT_CARRIER_REFERENCE):
        counts[tok] = counts.get(tok, 0) + 1
    assert math.sqrt(sum(v * v for v in counts.values())) == pytest.approx(10.0)


WORDS = st.lists(
    st.sampled_from(sorted(set(ATTRIBUTES) | set(CARRIER_KINDS) | set(ITEM_KINDS))),
    min_size=1, max_size=6,
)


@settings(max_examples=60, deadline=None)
@given(WORDS, WORDS)
def test_cosine_symmetric_and_bounded(words_a, words_b):
    a = embed_text(" ".join(words_a))
    b = embed_text(" ".join(words_b))
    s_ab = cosine_similarity(a, b)
    s_ba = cosine_similarity(b, a)
    assert s_ab == pytest.approx(s_ba, abs=1e-12)
    assert -1e-12 <= s_ab <= 1.0 + 1e-12  # counts are non-negative
    assert s_ab == pytest.approx(
        oracles.bag_cosine(" ".join(words_a), " ".join(words_b)), abs=1e-12
    )


@settings(max_examples=40, deadline=None)
@given(WORDS)
def test_self_similarity_is_one(ws):
    v = embed_text(" ".join(ws))
    assert cosine_similarity(v, v) == pytest.approx(1.0, abs=1e-12)


FINITE = st.floats(min_value=-1e100, max_value=1e100, allow_nan=False, allow_infinity=False)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 64).flatmap(lambda n: st.tuples(st.lists(FINITE, min_size=n, max_size=n),
                                                       st.lists(FINITE, min_size=n, max_size=n))))
def test_stored_norm_cosine_is_bit_equal(pair):
    a, b = (np.array(v) for v in pair)
    fa, fb = Feature.of(a), Feature.of(b)
    assert fa.zero == is_zero_feature(a) and fb.zero == is_zero_feature(b)
    assert fa.norm == float(np.linalg.norm(a))
    if fa.norm == 0.0 or fb.norm == 0.0:
        with pytest.raises(ValueError):
            cosine_similarity(a, b)
    else:
        # bit for bit, not approximately
        assert cosine(fa, fb) == cosine_similarity(a, b)


def test_strip_image_prefix():
    assert strip_image_prefix("img:red_cup") == "red_cup"
    assert strip_image_prefix("red cup") == "red cup"
    assert strip_image_prefix("img:") == ""
