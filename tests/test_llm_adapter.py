"""Remote prior oracle adapter: env gating, reply parsing, local fallbacks."""

import pytest

from carriernav.llm_adapter import (
    API_KEY_VAR,
    ENDPOINT_VAR,
    MODEL_VAR,
    LlmPriorOracle,
    oracle_from_env,
)
from carriernav.priors import CarrierSummary, KeywordPriorOracle, OracleError


def summaries(*ids):
    return [CarrierSummary(id=i, captions=(f"brown {i.split('_')[0]}",), room="r")
            for i in ids]


class TestOracleFromEnv:
    def test_default_is_local_keyword_oracle(self):
        oracle = oracle_from_env(env={})
        assert type(oracle) is KeywordPriorOracle

    def test_blank_endpoint_stays_local(self):
        oracle = oracle_from_env(env={ENDPOINT_VAR: "   "})
        assert type(oracle) is KeywordPriorOracle

    def test_configured_endpoint_enables_adapter(self):
        env = {ENDPOINT_VAR: "http://localhost:9/v1/chat",
               API_KEY_VAR: "sk-test", MODEL_VAR: "ranker"}
        oracle = oracle_from_env(env=env)
        assert isinstance(oracle, LlmPriorOracle)
        assert oracle.endpoint == "http://localhost:9/v1/chat"
        assert oracle.api_key == "sk-test"
        assert oracle.model == "ranker"

    def test_empty_api_key_becomes_none(self):
        oracle = oracle_from_env(env={ENDPOINT_VAR: "http://x", API_KEY_VAR: ""})
        assert oracle.api_key is None

    @pytest.mark.parametrize("endpoint", ["notaurl", "ftp://x", "http://", "http://x:abc",
                                          "http://x:99999", "http://["])
    def test_an_endpoint_that_is_no_http_url_is_rejected(self, endpoint):
        with pytest.raises(ValueError, match=ENDPOINT_VAR):
            oracle_from_env(env={ENDPOINT_VAR: endpoint})


@pytest.fixture
def oracle():
    return LlmPriorOracle(endpoint="http://127.0.0.1:9/v1/chat")


def canned(oracle, text):
    oracle._post = lambda payload: text
    return oracle


class TestRankCarriers:
    def test_parses_ordered_id_lines(self, oracle):
        canned(oracle, "shelf_0\ntable_1\ntable_0\n")
        out = oracle.rank_carriers(summaries("table_0", "table_1", "shelf_0"), "book")
        assert out == ["shelf_0", "table_1", "table_0"]

    def test_tolerates_bullet_prefixes_and_noise(self, oracle):
        canned(oracle, "Sure, ranked:\n- shelf_0\n- table_0\n")
        out = oracle.rank_carriers(summaries("table_0", "shelf_0"), "book")
        assert out == ["shelf_0", "table_0"]

    def test_skipped_ids_append_in_id_order(self, oracle):
        canned(oracle, "table_2\n")
        out = oracle.rank_carriers(
            summaries("table_0", "table_1", "table_2"), "cup")
        assert out == ["table_2", "table_0", "table_1"]

    def test_unknown_ids_are_dropped(self, oracle):
        canned(oracle, "sofa_99\ntable_0\n")
        out = oracle.rank_carriers(summaries("table_0"), "cup")
        assert out == ["table_0"]

    def test_garbage_reply_raises(self, oracle):
        canned(oracle, "I cannot help with that.")
        with pytest.raises(OracleError):
            oracle.rank_carriers(summaries("table_0"), "cup")

    def test_empty_carrier_list_short_circuits(self, oracle):
        calls = []
        oracle._post = lambda payload: calls.append(payload)
        assert oracle.rank_carriers([], "cup") == []
        assert calls == []

    def test_prompt_carries_target_and_ids(self, oracle):
        seen = {}

        def spy(payload):
            seen.update(payload)
            return "table_0\n"

        oracle._post = spy
        oracle.rank_carriers(summaries("table_0"), "blue bottle")
        content = seen["messages"][0]["content"]
        assert "blue bottle" in content
        assert "id=table_0" in content

    def test_transport_failure_raises_oracle_error(self, oracle):
        # nothing listens on the local discard port; the refused connection
        # must surface as OracleError
        with pytest.raises(OracleError):
            oracle.rank_carriers(summaries("table_0"), "cup")

    def test_a_request_that_cannot_be_built_raises_oracle_error(self):
        with pytest.raises(OracleError, match="unknown url type"):
            LlmPriorOracle(endpoint="notaurl").rank_carriers(summaries("table_0"), "cup")


class TestLocalDelegation:
    def test_is_carrier_matches_keyword_oracle(self, oracle):
        local = KeywordPriorOracle()
        for captions in (["wooden table"], ["red cup"], ["shelf"], ["thing"]):
            assert oracle.is_carrier(captions) == local.is_carrier(captions)

    def test_compare_images_matches_keyword_oracle(self, oracle):
        local = KeywordPriorOracle()
        assert oracle.compare_images("img:red_cup", "img:red_cup") == \
            local.compare_images("img:red_cup", "img:red_cup")

    def test_empty_endpoint_rejected(self):
        with pytest.raises(OracleError):
            LlmPriorOracle(endpoint="")
