import json
import re
import threading
import time
from http.server import BaseHTTPRequestHandler, HTTPServer

import pytest

from ragrade.corpus import Scheme
from ragrade.glm import (
    AuthError,
    GenParams,
    GlmError,
    MockBackend,
    NonRetryableError,
    ParseFailure,
    RateLimiter,
    RemoteBackend,
    ReplayBackend,
    RetryExhausted,
    ScriptedBackend,
    make_backend,
    parse_judgment,
    prompt_digest,
)

PARAMS = GenParams()


class TestMockBackend:
    def test_echoes_first_example_judgment(self):
        prompt = "intro\nExample 1:\nAnswer: something\nJudgment: correct\n\nExample 2:\nAnswer: other\nJudgment: irrelevant\n\nrest"
        assert MockBackend().complete(prompt, PARAMS) == "<judgment>correct</judgment>"

    def test_no_examples_defaults_incorrect(self):
        assert MockBackend().complete("grade this please", PARAMS) == "<judgment>incorrect</judgment>"

    def test_deterministic(self):
        prompt = "Example 1:\nAnswer: a\nJudgment: contradictory\n"
        backend = MockBackend()
        assert backend.complete(prompt, PARAMS) == backend.complete(prompt, PARAMS)

    def test_multiline_answer_text(self):
        prompt = "Example 1:\nAnswer: line one\nline two\nJudgment: non-domain\n"
        assert MockBackend().complete(prompt, PARAMS) == "<judgment>non-domain</judgment>"


class TestParseJudgment:
    def test_simple_span(self):
        j = parse_judgment("<judgment>correct</judgment>", Scheme.THREE_WAY)
        assert j.label == "correct"
        assert j.raw == "correct"

    def test_long_label_with_case_and_padding(self):
        j = parse_judgment(
            "<judgment> Partially Correct but Incomplete </judgment>", Scheme.FIVE_WAY
        )
        assert j.label == "partially correct but incomplete"

    def test_no_span_fails(self):
        with pytest.raises(ParseFailure):
            parse_judgment("I think the answer is fine.", Scheme.THREE_WAY)

    def test_failure_carries_raw_text(self):
        raw = "no tags anywhere"
        with pytest.raises(ParseFailure) as err:
            parse_judgment(raw, Scheme.TWO_WAY)
        assert err.value.raw == raw

    def test_last_span_wins(self):
        raw = "<judgment>correct</judgment> wait <judgment>contradictory</judgment>"
        assert parse_judgment(raw, Scheme.THREE_WAY).label == "contradictory"

    def test_incorrect_not_mistaken_for_correct(self):
        assert parse_judgment("<judgment>incorrect</judgment>", Scheme.TWO_WAY).label == "incorrect"

    def test_longest_match_beats_substring(self):
        raw = "<judgment>partially correct but incomplete</judgment>"
        assert parse_judgment(raw, Scheme.FIVE_WAY).label != "correct"

    def test_longest_match_within_longer_text(self):
        # any span containing the long label must never resolve to "correct"
        raw = "<judgment>i would call this partially correct but incomplete overall</judgment>"
        assert parse_judgment(raw, Scheme.FIVE_WAY).label == "partially correct but incomplete"

    def test_round_trip_every_label_every_scheme(self):
        for scheme in Scheme:
            for label in scheme.labels():
                j = parse_judgment(f"<judgment>{label}</judgment>", scheme)
                assert j.label == label

    def test_unresolvable_verdict(self):
        with pytest.raises(ParseFailure, match="matches no"):
            parse_judgment("<judgment>splendid</judgment>", Scheme.THREE_WAY)

    def test_dspy_marker(self):
        raw = "Question: q\n...\nJudgment of the New Answer: contradictory"
        assert parse_judgment(raw, Scheme.THREE_WAY, style="dspy").label == "contradictory"

    def test_dspy_missing_marker(self):
        with pytest.raises(ParseFailure, match="marker"):
            parse_judgment("correct", Scheme.THREE_WAY, style="dspy")

    def test_normalization_strips_punctuation(self):
        j = parse_judgment('<judgment>"Non-Domain".</judgment>', Scheme.FIVE_WAY)
        assert j.label == "non-domain"


class _GlmHandler(BaseHTTPRequestHandler):
    # class-level script, consumed per request: a status code, or a
    # (status, headers) pair for a failure that sends headers
    script: list[int | tuple[int, dict]] = []
    requests_seen: list[dict] = []

    def do_POST(self):
        length = int(self.headers.get("content-length", 0))
        body = json.loads(self.rfile.read(length)) if length else {}
        type(self).requests_seen.append(
            {"body": body, "auth": self.headers.get("authorization")}
        )
        status = type(self).script.pop(0) if type(self).script else 200
        status, extra_headers = status if isinstance(status, tuple) else (status, {})
        if status != 200:
            self.send_response(status)
            for name, value in extra_headers.items():
                self.send_header(name, value)
            self.send_header("content-length", "0")
            self.end_headers()
            return
        payload = json.dumps(
            {"choices": [{"text": f"echo:{body.get('prompt', '')[:20]}"}]}
        ).encode()
        self.send_response(200)
        self.send_header("content-type", "application/json")
        self.send_header("content-length", str(len(payload)))
        self.end_headers()
        self.wfile.write(payload)

    def log_message(self, *args):
        pass


@pytest.fixture
def glm_server():
    _GlmHandler.script = []
    _GlmHandler.requests_seen = []
    server = HTTPServer(("127.0.0.1", 0), _GlmHandler)
    thread = threading.Thread(target=server.serve_forever, kwargs={"poll_interval": 0.01}, daemon=True)
    thread.start()
    yield f"http://127.0.0.1:{server.server_port}/complete"
    server.shutdown()
    server.server_close()
    thread.join()


def fast_backend(endpoint, **kwargs):
    sleeps = []
    backend = RemoteBackend(
        endpoint,
        api_key="secret-key",
        text_path="choices.0.text",
        sleep=sleeps.append,
        limiter=RateLimiter(requests_per_second=10_000, max_in_flight=8),
        **kwargs,
    )
    return backend, sleeps


class TestRemoteBackend:
    def test_echoes_body(self, glm_server):
        backend, _ = fast_backend(glm_server)
        out = backend.complete("hello prompt", PARAMS)
        assert out == "echo:hello prompt"
        sent = _GlmHandler.requests_seen[-1]
        assert sent["body"]["model"] == "default"
        assert sent["body"]["temperature"] == 0.0
        assert sent["auth"] == "Bearer secret-key"

    def test_two_429s_then_success(self, glm_server):
        _GlmHandler.script = [429, 429]
        backend, sleeps = fast_backend(glm_server)
        assert backend.complete("p", PARAMS).startswith("echo:")
        assert len(sleeps) == 2  # one backoff sleep before each retry
        assert sleeps[1] > sleeps[0]  # exponential

    def test_backoff_jitter_keeps_each_delay_in_its_band(self, glm_server):
        firsts = []
        for _ in range(8):
            _GlmHandler.script = [500, 503]
            backend, sleeps = fast_backend(glm_server)
            assert backend.complete("p", PARAMS).startswith("echo:")
            assert 0.5 <= sleeps[0] < 0.75 and 1.0 <= sleeps[1] < 1.5
            firsts.append(sleeps[0])
        assert len(set(firsts)) > 1  # concurrent callers do not retry in lockstep

    @pytest.mark.parametrize("status", [429, 503])
    def test_retry_after_longer_than_backoff_is_honoured(self, glm_server, status):
        _GlmHandler.script = [(status, {"Retry-After": "7"}), (status, {"Retry-After": " 3 "})]
        backend, sleeps = fast_backend(glm_server)
        assert backend.complete("p", PARAMS).startswith("echo:")
        assert sleeps == [7.0, 3.0]

    @pytest.mark.parametrize(
        "status, value",
        [
            (429, "0"),
            (429, "Wed, 21 Oct 2026 07:28:00 GMT"),
            (503, "soon"),
            (503, "-5"),
            (429, "1.5"),
            (500, "9"),
        ],
        ids=["zero", "http-date", "word", "negative", "fraction", "not-429-or-503"],
    )
    def test_retry_after_shorter_or_unusable_leaves_the_backoff(self, glm_server, status, value):
        _GlmHandler.script = [(status, {"Retry-After": value})]
        backend, sleeps = fast_backend(glm_server)
        assert backend.complete("p", PARAMS).startswith("echo:")
        assert len(sleeps) == 1 and 0.5 <= sleeps[0] < 0.75

    def test_always_500_exhausts_after_three_attempts(self, glm_server):
        _GlmHandler.script = [500, 500, 500, 500]
        backend, _ = fast_backend(glm_server)
        with pytest.raises(RetryExhausted, match="3 attempts"):
            backend.complete("p", PARAMS)
        assert len(_GlmHandler.requests_seen) == 3

    def test_auth_failure_not_retried(self, glm_server):
        _GlmHandler.script = [401]
        backend, sleeps = fast_backend(glm_server)
        with pytest.raises(AuthError):
            backend.complete("p", PARAMS)
        assert sleeps == []
        assert len(_GlmHandler.requests_seen) == 1

    def test_client_error_not_retried(self, glm_server):
        _GlmHandler.script = [404]
        backend, _ = fast_backend(glm_server)
        with pytest.raises(NonRetryableError, match="404"):
            backend.complete("p", PARAMS)

    def test_missing_field_path(self, glm_server):
        backend, _ = fast_backend(glm_server)
        backend.text_path = "missing.field"
        with pytest.raises(NonRetryableError, match="field path"):
            backend.complete("p", PARAMS)

    def test_no_endpoint_configured(self, monkeypatch):
        monkeypatch.delenv("RAGRADE_GLM_ENDPOINT", raising=False)
        from ragrade.glm import GlmError

        with pytest.raises(GlmError, match="RAGRADE_GLM_ENDPOINT"):
            RemoteBackend()

    def test_env_configuration(self, glm_server, monkeypatch):
        monkeypatch.setenv("RAGRADE_GLM_ENDPOINT", glm_server)
        monkeypatch.setenv("RAGRADE_GLM_API_KEY", "from-env")
        monkeypatch.setenv("RAGRADE_GLM_TEXT_PATH", "choices.0.text")
        backend = RemoteBackend(limiter=RateLimiter(requests_per_second=10_000))
        assert backend.complete("p", PARAMS).startswith("echo:")
        assert _GlmHandler.requests_seen[-1]["auth"] == "Bearer from-env"

    def test_env_model_sent_when_none_given(self, glm_server, monkeypatch, tmp_path):
        monkeypatch.setenv("RAGRADE_GLM_MODEL", "model-from-env")
        log = tmp_path / "log.jsonl"
        backend, _ = fast_backend(glm_server, log_path=log)
        backend.complete("p", PARAMS)
        assert _GlmHandler.requests_seen[-1]["body"]["model"] == "model-from-env"
        assert json.loads(log.read_text())["model"] == "model-from-env"

    def test_explicit_model_beats_env(self, glm_server, monkeypatch):
        monkeypatch.setenv("RAGRADE_GLM_MODEL", "model-from-env")
        backend, _ = fast_backend(glm_server)
        backend.complete("p", GenParams(model_id="chosen"))
        assert _GlmHandler.requests_seen[-1]["body"]["model"] == "chosen"

    def test_logs_for_replay(self, glm_server, tmp_path):
        log = tmp_path / "log.jsonl"
        backend, _ = fast_backend(glm_server, log_path=log)
        first = backend.complete("a prompt to remember", PARAMS)
        replay = ReplayBackend(log)
        assert replay.complete("a prompt to remember", PARAMS) == first
        from ragrade.glm import GlmError

        with pytest.raises(GlmError, match="no recorded completion"):
            replay.complete("never seen", PARAMS)


class TestReplayBackend:
    """Replay serves a completion only for the prompt, model and temperature it was made with."""

    def test_keys_on_model_and_temperature(self, tmp_path):
        log = tmp_path / "log.jsonl"
        digest = prompt_digest("p")
        records = [
            {"prompt_sha256": digest, "model": "m1", "temperature": 0.0, "completion": "m1 cold"},
            {"prompt_sha256": digest, "model": "m2", "temperature": 0.0, "completion": "m2 cold"},
            {"prompt_sha256": digest, "model": "m1", "temperature": 0.7, "completion": "m1 warm"},
        ]
        log.write_text("".join(json.dumps(r) + "\n" for r in records))
        replay = ReplayBackend(log)
        assert replay.complete("p", GenParams(model_id="m1")) == "m1 cold"
        assert replay.complete("p", GenParams(model_id="m2")) == "m2 cold"
        assert replay.complete("p", GenParams(temperature=0.7, model_id="m1")) == "m1 warm"

    @pytest.mark.parametrize(
        "params",
        [GenParams(model_id="m2"), GenParams(temperature=0.7, model_id="m1")],
        ids=["other-model", "other-temperature"],
    )
    def test_mismatch_has_no_recorded_completion(self, glm_server, tmp_path, params):
        log = tmp_path / "log.jsonl"
        backend, _ = fast_backend(glm_server, log_path=log)
        backend.complete("p", GenParams(model_id="m1"))
        with pytest.raises(GlmError, match="no recorded completion"):
            ReplayBackend(log).complete("p", params)

    def test_keys_on_max_tokens(self, glm_server, tmp_path):
        log = tmp_path / "log.jsonl"
        backend, _ = fast_backend(glm_server, log_path=log)
        first = backend.complete("p", PARAMS)
        assert json.loads(log.read_text())["max_tokens"] == PARAMS.max_tokens
        replay = ReplayBackend(log)
        assert replay.complete("p", PARAMS) == first
        with pytest.raises(GlmError, match="no recorded completion"):
            replay.complete("p", GenParams(max_tokens=8))

    def test_record_without_max_tokens_counts_as_the_default(self, tmp_path):
        log = tmp_path / "log.jsonl"
        record = {"prompt_sha256": prompt_digest("p"), "completion": "done"}
        log.write_text(json.dumps(record) + "\n")
        replay = ReplayBackend(log)
        assert replay.complete("p", GenParams(max_tokens=64)) == "done"
        with pytest.raises(GlmError, match="no recorded completion"):
            replay.complete("p", GenParams(max_tokens=8))

    def test_model_resolved_like_remote(self, glm_server, tmp_path, monkeypatch):
        monkeypatch.setenv("RAGRADE_GLM_MODEL", "model-from-env")
        log = tmp_path / "log.jsonl"
        backend, _ = fast_backend(glm_server, log_path=log)
        first = backend.complete("p", PARAMS)
        replay = ReplayBackend(log)
        assert replay.complete("p", PARAMS) == first
        assert replay.complete("p", GenParams(model_id="model-from-env")) == first
        monkeypatch.delenv("RAGRADE_GLM_MODEL")
        with pytest.raises(GlmError, match="no recorded completion"):
            replay.complete("p", PARAMS)


    def test_identical_repeats_are_accepted_and_differing_ones_refused(self, tmp_path):
        log = tmp_path / "log.jsonl"
        record = {"prompt_sha256": prompt_digest("p"), "completion": "done"}
        other = {"prompt_sha256": prompt_digest("q"), "completion": "other"}
        log.write_text("".join(json.dumps(r) + "\n" for r in (record, other, record)))
        assert ReplayBackend(log).complete("p", PARAMS) == "done"
        log.write_text("".join(json.dumps(r) + "\n" for r in (record, other, {**record, "completion": "undone"})))
        with pytest.raises(GlmError, match=re.escape(f"{log}:3: completion differs from line 1's")):
            ReplayBackend(log)

    @pytest.mark.parametrize(
        "line",
        [
            b"{not json",
            b'"a string"',
            b'{"completion": "c"}',
            b'{"prompt_sha256": "ab"}',
            b'{"prompt_sha256": "ab", "completion": 3}',
            b'{"prompt_sha256": "ab", "completion": "c", "temperature": [0]}',
            b'{"prompt_sha256": "ab", "completion": "c\xff"}',
        ],
        ids=["not-json", "not-object", "no-digest", "no-completion", "number-completion",
             "list-temperature", "not-utf8"],
    )
    def test_malformed_record_names_file_and_line(self, tmp_path, line):
        log = tmp_path / "log.jsonl"
        good = {"prompt_sha256": prompt_digest("p"), "completion": "ok"}
        log.write_bytes(json.dumps(good).encode() + b"\n\n" + line + b"\n")
        with pytest.raises(GlmError, match=re.escape(f"{log}:3: bad replay record")):
            ReplayBackend(log)


class TestRateLimiter:
    def test_spaces_out_requests(self):
        limiter = RateLimiter(requests_per_second=200.0, max_in_flight=4)
        start = time.monotonic()
        for _ in range(5):
            with limiter:
                pass
        # 5 starts at 5ms spacing: at least ~20ms total
        assert time.monotonic() - start >= 0.015

    def test_caps_in_flight(self):
        limiter = RateLimiter(requests_per_second=10_000.0, max_in_flight=2)
        active = []
        peak = []
        lock = threading.Lock()

        def work():
            with limiter:
                with lock:
                    active.append(1)
                    peak.append(len(active))
                time.sleep(0.02)
                with lock:
                    active.pop()

        threads = [threading.Thread(target=work) for _ in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert max(peak) <= 2


class TestBackendSelector:
    def test_mock(self):
        assert isinstance(make_backend("mock"), MockBackend)

    def test_scripted(self, tmp_path):
        path = tmp_path / "script.json"
        path.write_text(json.dumps(["<judgment>correct</judgment>"]))
        backend = make_backend(f"scripted:{path}")
        assert isinstance(backend, ScriptedBackend)
        assert backend.complete("x", PARAMS) == "<judgment>correct</judgment>"
        # repeats the last completion once exhausted
        assert backend.complete("x", PARAMS) == "<judgment>correct</judgment>"

    def test_replay(self, tmp_path):
        log = tmp_path / "log.jsonl"
        log.write_text(
            json.dumps({"prompt_sha256": prompt_digest("p"), "completion": "done"}) + "\n"
        )
        assert make_backend(f"replay:{log}").complete("p", PARAMS) == "done"

    def test_unknown(self):
        with pytest.raises(ValueError, match="unknown backend"):
            make_backend("quantum")
