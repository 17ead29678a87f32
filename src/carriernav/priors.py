"""Carrier prior oracles.

An oracle answers three commonsense questions the navigation stack cannot
answer geometrically: is this thing the kind of furniture that holds other
objects, which carriers are plausible homes for a given target, and how
alike are two images.  The default implementation is a deterministic
keyword table so benchmarks never depend on a network service; an HTTP
chat backend can be swapped in (see ``llm_adapter``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from .features import (DEFAULT_EMBEDDING_DIM, cosine, strip_image_prefix, text_feature,
                       tokenize)


class OracleError(RuntimeError):
    """Raised when a prior backend fails or returns garbage."""


@dataclass(frozen=True)
class CarrierSummary:
    """What the policy shows the oracle about one carrier."""

    id: str
    captions: Tuple[str, ...]
    room: str = ""


# Furniture words accepted as carriers.  Deliberately broader than the
# similarity reference list: the similarity stage is the coarse gate, this
# one encodes which furniture classes plausibly hold loose objects.
CARRIER_KEYWORDS = frozenset(
    {
        "table", "desk", "shelf", "shelves", "bookshelf", "cabinet", "counter",
        "countertop", "bed", "nightstand", "dresser", "sofa", "couch", "bench",
        "stand", "rack", "chair", "stool",
    }
)

# For each item word: carrier kinds ordered from most to least plausible.
# Rankings drive exploration order, so ties are broken by carrier id later.
AFFINITY_RANKINGS: Dict[str, Tuple[str, ...]] = {
    "cup": ("counter", "table", "desk", "cabinet", "shelf", "bed"),
    "mug": ("counter", "table", "desk", "cabinet", "shelf", "bed"),
    "bottle": ("counter", "cabinet", "table", "desk", "shelf", "bed"),
    "book": ("shelf", "desk", "table", "bed", "cabinet", "counter"),
    "clock": ("desk", "shelf", "table", "bed", "cabinet", "counter"),
    "lamp": ("desk", "table", "shelf", "counter", "cabinet", "bed"),
    "phone": ("desk", "table", "counter", "bed", "shelf", "cabinet"),
    "controller": ("table", "desk", "shelf", "bed", "cabinet", "counter"),
    "plant": ("shelf", "counter", "table", "desk", "cabinet", "bed"),
}

DEFAULT_AFFINITY: Tuple[str, ...] = ("table", "desk", "shelf", "counter", "cabinet", "bed")


class CarrierPriorOracle:
    """Interface for commonsense priors used by graph building and policy;
    a suite's ``report.json`` records the ``name`` of the one that ran."""

    name = "custom"

    def is_carrier(self, captions: Sequence[str]) -> bool:
        raise NotImplementedError

    def rank_carriers(
        self, carriers: Sequence[CarrierSummary], target_descriptor: str
    ) -> List[str]:
        raise NotImplementedError

    def compare_images(self, candidate_token: str, target_token: str) -> float:
        raise NotImplementedError


class KeywordPriorOracle(CarrierPriorOracle):
    """Deterministic table-driven prior.

    ``is_carrier`` looks for furniture words in the first three captions.
    ``rank_carriers`` orders carriers by the affinity table for the first
    recognized item word in the descriptor.  ``compare_images`` scores two
    opaque tokens by the cosine of their hashed bag-of-words text features
    (``features.text_feature``), which lands in [0, 1] because the count
    vectors are non-negative.
    """

    name = "keyword"

    def is_carrier(self, captions: Sequence[str]) -> bool:
        for caption in list(captions)[:3]:
            if any(tok in CARRIER_KEYWORDS for tok in tokenize(caption)):
                return True
        return False

    def _affinity_for(self, target_descriptor: str) -> Tuple[str, ...]:
        for tok in tokenize(strip_image_prefix(target_descriptor)):
            ranking = AFFINITY_RANKINGS.get(tok)
            if ranking is not None:
                return ranking
        return DEFAULT_AFFINITY

    @staticmethod
    def _carrier_kind(summary: CarrierSummary) -> str:
        for caption in summary.captions:
            for tok in tokenize(caption):
                if tok in CARRIER_KEYWORDS:
                    return tok
        return ""

    def rank_carriers(
        self, carriers: Sequence[CarrierSummary], target_descriptor: str
    ) -> List[str]:
        ranking = self._affinity_for(target_descriptor)
        rank_of = {kind: i for i, kind in enumerate(ranking)}

        def key(summary: CarrierSummary):
            kind = self._carrier_kind(summary)
            return (rank_of.get(kind, len(ranking)), summary.id)

        return [s.id for s in sorted(carriers, key=key)]

    def compare_images(self, candidate_token: str, target_token: str) -> float:
        a = text_feature(strip_image_prefix(candidate_token), DEFAULT_EMBEDDING_DIM)
        b = text_feature(strip_image_prefix(target_token), DEFAULT_EMBEDDING_DIM)
        if a.zero or b.zero:
            return 0.0
        return max(0.0, min(1.0, cosine(a, b)))
