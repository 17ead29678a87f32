"""Optional remote-model backend for the carrier prior oracle.

Disabled unless CARRIERNAV_LLM_ENDPOINT is set; everything in the package
and the benchmark defaults to the deterministic keyword oracle.  When
enabled, carrier ranking is delegated to a chat-completion endpoint while
the carrier test and image comparison stay local, so results remain
reproducible where determinism matters.

Environment variables:
    CARRIERNAV_LLM_ENDPOINT  chat-completions URL (enables the adapter)
    CARRIERNAV_LLM_API_KEY   bearer token, optional
    CARRIERNAV_LLM_MODEL     model name, default "default"
"""

from __future__ import annotations

import http.client
import json
import os
import urllib.error
import urllib.parse
import urllib.request
from typing import List, Optional, Sequence

from .priors import CarrierPriorOracle, CarrierSummary, KeywordPriorOracle, OracleError

ENDPOINT_VAR = "CARRIERNAV_LLM_ENDPOINT"
API_KEY_VAR = "CARRIERNAV_LLM_API_KEY"
MODEL_VAR = "CARRIERNAV_LLM_MODEL"


class LlmPriorOracle(KeywordPriorOracle):
    """The keyword oracle with remote ranking: carriers are ranked by a chat
    endpoint, while the carrier test and image comparison stay the keyword
    oracle's, so graph construction and confirmation stay deterministic.

    Any transport or parse failure raises OracleError; callers already
    treat that as "fall back to the nearest carrier", so a flaky endpoint
    degrades gracefully instead of crashing an episode.
    """

    name = "llm"

    def __init__(self, endpoint: str, api_key: Optional[str] = None,
                 model: str = "default", timeout: float = 20.0):
        if not endpoint:
            raise OracleError("empty endpoint")
        self.endpoint = endpoint
        self.api_key = api_key
        self.model = model
        self.timeout = timeout

    def rank_carriers(self, carriers: Sequence[CarrierSummary],
                      target_descriptor: str) -> List[str]:
        if not carriers:
            return []
        listing = "\n".join(
            f"- id={c.id} captions={list(c.captions)} room={c.room}" for c in carriers
        )
        prompt = (
            "You rank furniture by how likely it holds a target object.\n"
            f"Target: {target_descriptor}\n"
            f"Furniture:\n{listing}\n"
            "Reply with the ids only, most likely first, one per line."
        )
        payload = {
            "model": self.model,
            "messages": [{"role": "user", "content": prompt}],
        }
        text = self._post(payload)
        known = {c.id for c in carriers}
        ranked = [line.strip().strip("-").strip() for line in text.splitlines()]
        ranked = [r for r in ranked if r in known]
        if not ranked:
            raise OracleError("endpoint reply contained no known carrier id")
        # anything the model skipped goes last, in stable id order
        ranked += sorted(known - set(ranked))
        return ranked

    def _post(self, payload: dict) -> str:
        headers = {"Content-Type": "application/json"}
        if self.api_key:
            headers["Authorization"] = f"Bearer {self.api_key}"
        try:
            req = urllib.request.Request(self.endpoint, data=json.dumps(payload).encode(),
                                         headers=headers, method="POST")
            with urllib.request.urlopen(req, timeout=self.timeout) as resp:
                tree = json.loads(resp.read().decode())
        except (urllib.error.URLError, OSError, ValueError, http.client.HTTPException) as exc:
            raise OracleError(f"endpoint request failed: {exc}") from exc
        try:
            return tree["choices"][0]["message"]["content"]
        except (KeyError, IndexError, TypeError) as exc:
            raise OracleError(f"unexpected endpoint reply shape: {exc}") from exc


def _is_http_url(text: str) -> bool:
    """Whether ``text`` is an http(s) URL with a host, and a valid port if any."""
    try:
        url = urllib.parse.urlsplit(text)
        url.port  # reading it raises ValueError for a bad port
    except ValueError:
        return False
    return url.scheme in ("http", "https") and bool(url.hostname)


def oracle_from_env(env=os.environ) -> CarrierPriorOracle:
    """The keyword oracle, unless an endpoint is configured.  An endpoint
    that is not an http(s) URL with a host raises ``ValueError``."""
    endpoint = env.get(ENDPOINT_VAR, "").strip()
    if not endpoint:
        return KeywordPriorOracle()
    if not _is_http_url(endpoint):
        raise ValueError(f"{ENDPOINT_VAR}={endpoint!r} is not an http(s) URL")
    return LlmPriorOracle(
        endpoint=endpoint,
        api_key=env.get(API_KEY_VAR) or None,
        model=env.get(MODEL_VAR, "default"),
    )
