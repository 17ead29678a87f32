"""Embedder and similarity checks, pinned against hand-derived values."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from carriernav import facts
from carriernav.features import (
    ALL_BUCKETS,
    DEFAULT_EMBEDDING_DIM,
    Feature,
    cosine,
    cosine_similarity,
    embed_text,
    is_zero_feature,
    strip_image_prefix,
    text_feature,
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


# The token path and the support skip, bit for bit against the rules they
# replaced: the accumulating embedder and one dot product per cosine.
# Small dimensions make buckets collide, so counts above one and shared
# buckets are common.
VOCAB = sorted(set(ATTRIBUTES) | set(CARRIER_KINDS) | set(ITEM_KINDS))
TEXTS = st.one_of(st.lists(st.sampled_from(VOCAB), max_size=8).map(" ".join),
                  st.text(alphabet="abcxyz019 _-!?ABC", max_size=24))
DIMS = st.sampled_from([1, 2, 3, 7, 16, DEFAULT_EMBEDDING_DIM])


@settings(max_examples=300, deadline=None)
@given(TEXTS, DIMS)
def test_embed_text_is_the_accumulating_embedder(text, dim):
    got, want = embed_text(text, dim), oracles.embed_text_accumulating(text, dim)
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


@settings(max_examples=300, deadline=None)
@given(TEXTS, DIMS, st.booleans())
def test_text_feature_is_the_accumulating_embedder(text, dim, kept):
    # texts kept across examples, or none
    if not kept:
        facts.release_facts()
    got, want = text_feature(text, dim), oracles.embed_text_accumulating(text, dim)
    assert got.vec.tobytes() == want.tobytes()
    assert got.norm.hex() == float(np.linalg.norm(want)).hex()
    assert got.zero == is_zero_feature(want)
    assert got.support == oracles.support_bits(want)


# Entries that test each part of the skip: zeros of both signs, negatives,
# squares that underflow (so a non-zero vector can have a zero norm),
# squares that overflow, and entries that are not finite.
ENTRIES = st.one_of(st.sampled_from([0.0, -0.0]), st.floats(0.01, 100.0),
                    st.floats(-100.0, -0.01),
                    st.sampled_from([5e-324, 1e-200, 3e-162, 1e-160, 1e150, 1e160,
                                     math.inf, -math.inf, math.nan]))
ZEROS = st.sampled_from([0.0, 0.0, 0.0, -0.0])


@st.composite
def vector_pairs(draw):
    """Two vectors of one length, each entry owned by one, both or neither
    of them (a zero where not owned); half the pairs own no entry together."""
    n = draw(st.integers(1, 8))
    disjoint = draw(st.booleans())
    a, b = [], []
    for _ in range(n):
        owner = draw(st.sampled_from(["a", "b", "neither"] if disjoint
                                     else ["a", "b", "both", "neither"]))
        a.append(draw(ENTRIES if owner in ("a", "both") else ZEROS))
        b.append(draw(ENTRIES if owner in ("b", "both") else ZEROS))
    return np.array(a), np.array(b)


@settings(max_examples=400, deadline=None)
@given(vector_pairs())
def test_feature_of_is_the_norm_and_its_support(pair):
    with np.errstate(all="ignore"):
        for vec in pair:
            feat = Feature.of(vec)
            assert feat.norm.hex() == float(np.linalg.norm(vec)).hex()
            assert feat.zero == (feat.norm == 0.0 and is_zero_feature(vec))
            assert feat.support == oracles.support_bits(vec)


@settings(max_examples=400, deadline=None)
@given(vector_pairs())
def test_cosine_is_the_per_call_dot(pair):
    with np.errstate(all="ignore"):
        fa, fb = (Feature.of(v) for v in pair)
        assert cosine(fa, fb).hex() == oracles.cosine_per_call_dot(fa, fb).hex()
        assert cosine(fb, fa).hex() == oracles.cosine_per_call_dot(fb, fa).hex()


@settings(max_examples=300, deadline=None)
@given(TEXTS, TEXTS, DIMS, st.booleans())
def test_text_cosines_are_the_per_call_dot(text_a, text_b, dim, read_off):
    # a kept text feature against one whose support is read off its vector,
    # as a query meets a scene object, or two kept ones
    facts.release_facts()
    a = text_feature(text_a, dim)
    b = text_feature(text_b, dim)
    if read_off:
        b = Feature.of(oracles.embed_text_accumulating(text_b, dim))
    with np.errstate(all="ignore"):
        assert cosine(a, b).hex() == oracles.cosine_per_call_dot(a, b).hex()


def test_a_zero_norm_product_is_left_to_the_dot_rule():
    # no shared bucket, but a norm of zero: the dot rule's 0/0 is NaN
    tiny, one = Feature.of(np.array([1e-200, 0.0])), Feature.of(np.array([0.0, 1.0]))
    assert tiny.norm == 0.0 and not tiny.zero and not tiny.support & one.support
    zero = Feature.of(np.zeros(2))
    with np.errstate(all="ignore"):
        assert math.isnan(cosine(tiny, one)) and math.isnan(cosine(zero, one))
    # the smallest positive norms still have a positive product
    small = Feature.of(np.array([3e-162, 0.0]))
    assert small.norm * Feature.of(np.array([0.0, 3e-162])).norm > 0.0


def test_a_sign_bit_or_a_non_finite_entry_shares_every_bucket():
    for vec in ([-0.0, 1.0], [-1.0, 0.0], [math.inf, 0.0], [math.nan, 0.0], [1e160, 0.0]):
        with np.errstate(all="ignore"):
            assert Feature.of(np.array(vec)).support == ALL_BUCKETS, vec
    assert Feature.of(np.array([0.0, 2.0, 0.0, 1.0])).support == 0b1010


def test_features_that_share_no_bucket_take_no_dot_product():
    # each operand is a view whose ``dot`` records the call
    dots = []

    class Counting(np.ndarray):
        def dot(self, other, *args):
            dots.append(other)
            return np.ndarray.dot(self, other, *args)

    cup, table, red = (text_feature(text, 256) for text in ("red cup", "table", "red"))
    cup, table, red = (f._replace(vec=f.vec.view(Counting)) for f in (cup, table, red))
    assert cosine(cup, table) == 0.0 and dots == []
    assert cosine(cup, red) == pytest.approx(math.sqrt(0.5)) and len(dots) == 1
