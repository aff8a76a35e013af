"""Generative grading backends and verdict parsing.

Backends share one interface: complete(prompt, params) -> raw text.  A
deterministic mock echoes the first retrieved example's judgment (turning
the whole pipeline into a 1-NN classifier, which tests exploit as an
exact oracle), a remote client talks JSON-over-HTTP with retries and
rate limiting, a replay backend serves recorded completions, and a
scripted backend plays back a fixed list.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import random
import re
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from .corpus import Scheme, _normalize_label_text

ENV_ENDPOINT = "RAGRADE_GLM_ENDPOINT"
ENV_API_KEY = "RAGRADE_GLM_API_KEY"
ENV_MODEL = "RAGRADE_GLM_MODEL"
ENV_TEXT_PATH = "RAGRADE_GLM_TEXT_PATH"


@dataclass(frozen=True)
class GenParams:
    temperature: float = 0.0
    max_tokens: int = 64
    model_id: str | None = None  # None: $RAGRADE_GLM_MODEL, else "default"

    def __post_init__(self):
        if self.temperature < 0:
            raise ValueError("temperature must be non-negative")


@dataclass(frozen=True)
class Judgment:
    label: str  # canonical string of the active scheme
    raw: str  # matched text before normalization


class GlmError(Exception):
    pass


class AuthError(GlmError):
    pass


class NonRetryableError(GlmError):
    pass


class RetryExhausted(GlmError):
    pass


class ParseFailure(GlmError):
    """The raw completion yielded no resolvable judgment."""

    def __init__(self, message: str, raw: str):
        super().__init__(message)
        self.raw = raw


class GlmBackend:
    # requests harness.grade_responses may keep in flight; 1 runs every
    # call inline on the calling thread, in response order
    concurrency = 1

    def complete(self, prompt: str, params: GenParams) -> str:
        raise NotImplementedError


_EXAMPLE1_RE = re.compile(r"Example 1:\nAnswer: .*?\nJudgment: (.*?)\n", re.DOTALL)


class MockBackend(GlmBackend):
    """Deterministic grader: echo the first example's judgment.

    Prompts whose examples block starts with "Example 1:" get that
    example's judgment back; prompts without examples always get
    "incorrect".  The verdict comes in the form the prompt's template
    style parses: after the dspy marker when the prompt holds it, else
    inside <judgment> tags.
    """

    def complete(self, prompt: str, params: GenParams) -> str:
        match = _EXAMPLE1_RE.search(prompt)
        label = match.group(1) if match else "incorrect"
        if _DSPY_MARKER in prompt:
            return f"{_DSPY_MARKER} {label}"
        return f"<judgment>{label}</judgment>"


class ScriptedBackend(GlmBackend):
    """Plays back a fixed list of completions in order (then repeats the last)."""

    def __init__(self, completions: list[str]):
        if not completions:
            raise ValueError("scripted backend needs at least one completion")
        self.completions = list(completions)
        self.calls = 0

    def complete(self, prompt: str, params: GenParams) -> str:
        text = self.completions[min(self.calls, len(self.completions) - 1)]
        self.calls += 1
        return text


class RateLimiter:
    """Token bucket on request starts plus a cap on in-flight requests."""

    def __init__(self, requests_per_second: float = 10.0, max_in_flight: int = 4):
        if requests_per_second <= 0 or max_in_flight < 1:
            raise ValueError("requests_per_second must be > 0 and max_in_flight >= 1")
        self.interval = 1.0 / requests_per_second
        self.max_in_flight = max_in_flight
        self._lock = threading.Lock()
        self._next_start = time.monotonic()
        self._slots = threading.BoundedSemaphore(max_in_flight)

    def __enter__(self):
        self._slots.acquire()
        with self._lock:
            now = time.monotonic()
            wait = self._next_start - now
            self._next_start = max(self._next_start, now) + self.interval
        if wait > 0:
            time.sleep(wait)
        return self

    def __exit__(self, *exc):
        self._slots.release()
        return False


def _lookup_path(obj, dotted: str):
    """Walk a JSON object by a dotted path; integer parts index lists."""
    node = obj
    for part in dotted.split("."):
        if isinstance(node, list):
            node = node[int(part)]
        elif isinstance(node, dict):
            node = node[part]
        else:
            raise KeyError(dotted)
    return node


MAX_ATTEMPTS = 3  # per request, the first one included
BACKOFF_BASE = 0.5  # seconds before the first retry, doubled before each later one
RETRYABLE_STATUS = (408, 429, 500, 502, 503, 504, 529)


def _retry_after(resp) -> float:
    """Seconds a 429 or 503 asks the client to wait (RFC 9110 §10.2.3).

    Only the delta-seconds form is read; a missing header, an HTTP-date
    or anything else that is not a non-negative integer counts as 0, as
    does a response object from an injected session that has no headers.
    """
    if resp.status_code not in (429, 503):
        return 0.0
    value = (getattr(resp, "headers", {}).get("Retry-After") or "").strip()
    return float(value) if value.isascii() and value.isdigit() else 0.0


def post_json(endpoint, payload, timeout, api_key=None, session=None, limiter=None, sleep=None):
    """POST payload as JSON to endpoint and return the status-200 response.

    Transient failures are retried up to MAX_ATTEMPTS total attempts,
    after an exponential backoff from BACKOFF_BASE scaled by a random
    factor in [1, 1.5) so that concurrent callers do not retry in
    lockstep, or after a longer Retry-After sent with a 429 or 503;
    401/403 raise AuthError immediately and other non-retryable statuses
    raise NonRetryableError.  A limiter, if given, paces each attempt.
    """
    import requests

    headers = {"content-type": "application/json"}
    if api_key:
        headers["authorization"] = f"Bearer {api_key}"
    # module-level requests.post is safe for concurrent callers; an
    # injected session (tests, custom transports) is used as given
    post = session.post if session is not None else requests.post
    last_failure, retry_after = None, 0.0
    for attempt in range(1, MAX_ATTEMPTS + 1):
        if attempt > 1:
            backoff = BACKOFF_BASE * 2 ** (attempt - 2) * (1 + 0.5 * random.random())
            (sleep or time.sleep)(max(backoff, retry_after))
        try:
            with limiter or contextlib.nullcontext():
                resp = post(endpoint, json=payload, headers=headers, timeout=timeout)
        except requests.RequestException as exc:
            last_failure, retry_after = f"transport error: {exc}", 0.0
            continue
        if resp.status_code in (401, 403):
            raise AuthError(f"authentication failed with status {resp.status_code}")
        if resp.status_code in RETRYABLE_STATUS:
            last_failure = f"status {resp.status_code}"
            retry_after = _retry_after(resp)
            continue
        if resp.status_code != 200:
            raise NonRetryableError(f"unexpected status {resp.status_code}: {resp.text[:200]}")
        return resp
    raise RetryExhausted(f"giving up after {MAX_ATTEMPTS} attempts; last failure: {last_failure}")


class RemoteBackend(GlmBackend):
    """JSON-over-HTTP completion client.

    Request: {"model", "prompt", "temperature", "max_tokens"}, sent by
    post_json; the completion text is extracted from the response JSON at
    a dotted field path (default "text").  Endpoint, credential, model,
    and field path come from arguments or the RAGRADE_GLM_* environment variables.

    The limiter's max_in_flight is also the backend's concurrency, so an
    injected session must be safe for concurrent post calls.
    """

    def __init__(
        self,
        endpoint: str | None = None,
        api_key: str | None = None,
        text_path: str | None = None,
        timeout: float = 60.0,
        limiter: RateLimiter | None = None,
        log_path: str | Path | None = None,
        session=None,
        sleep=time.sleep,
    ):
        self.endpoint = endpoint or os.environ.get(ENV_ENDPOINT)
        if not self.endpoint:
            raise GlmError(f"no endpoint configured (set {ENV_ENDPOINT})")
        self.api_key = api_key or os.environ.get(ENV_API_KEY)
        self.text_path = text_path or os.environ.get(ENV_TEXT_PATH, "text")
        self.timeout = timeout
        self.limiter = limiter or RateLimiter()
        self.log_path = Path(log_path) if log_path else None
        self._log_lock = threading.Lock()
        self._session = session
        self._sleep = sleep

    @property
    def concurrency(self) -> int:
        return self.limiter.max_in_flight

    def complete(self, prompt: str, params: GenParams) -> str:
        payload = {
            "model": _model_sent(params.model_id),
            "prompt": prompt,
            "temperature": params.temperature,
            "max_tokens": params.max_tokens,
        }
        resp = post_json(
            self.endpoint, payload, self.timeout, self.api_key, self._session, self.limiter, self._sleep
        )
        try:
            text = str(_lookup_path(resp.json(), self.text_path))
        except (ValueError, KeyError, IndexError) as exc:
            raise NonRetryableError(
                f"response JSON lacks field path {self.text_path!r}: {exc}"
            ) from exc
        self._log(payload, text)
        return text

    def _log(self, payload: dict, completion: str) -> None:
        if self.log_path is None:
            return
        record = {
            "prompt_sha256": prompt_digest(payload["prompt"]),
            "prompt": payload["prompt"],
            "model": payload["model"],
            "temperature": payload["temperature"],
            "max_tokens": payload["max_tokens"],
            "completion": completion,
        }
        with self._log_lock, self.log_path.open("a", encoding="utf-8") as fh:
            fh.write(json.dumps(record, ensure_ascii=False) + "\n")


def prompt_digest(prompt: str) -> str:
    return hashlib.sha256(prompt.encode("utf-8")).hexdigest()


def _model_sent(model_id: str | None) -> str:
    """The model RemoteBackend requests: model_id, else $RAGRADE_GLM_MODEL, else "default"."""
    return model_id or os.environ.get(ENV_MODEL, "default")


class ReplayBackend(GlmBackend):
    """Serves completions recorded by RemoteBackend.

    A completion is keyed on the prompt hash, the model sent, the
    temperature and max_tokens, so a run with other settings is refused
    rather than served a completion made for different ones.  A record
    without a model, temperature or max_tokens counts as made with the
    defaults RemoteBackend would send.  Keys do not depend on the order
    of the log's lines, which is completion order when requests overlap.
    A key recorded with two different completions (a sampled multi-seed
    run) is refused, naming both lines; identical repeats are accepted.
    """

    def __init__(self, log_path: str | Path):
        self.completions: dict[tuple[str, str, float, int], str] = {}
        line_of: dict[tuple[str, str, float, int], int] = {}
        with Path(log_path).open("rb") as fh:  # json.loads decodes, inside the try
            for lineno, line in enumerate(fh, 1):
                if not line.strip():
                    continue
                try:
                    record = json.loads(line)
                    completion, digest = record["completion"], record["prompt_sha256"]
                    if not (isinstance(completion, str) and isinstance(digest, str)):
                        raise TypeError("prompt_sha256 and completion must be strings")
                    key = (
                        digest,
                        _model_sent(record.get("model")),
                        record.get("temperature", GenParams.temperature),
                        record.get("max_tokens", GenParams.max_tokens),
                    )
                    first = line_of.setdefault(key, lineno)  # TypeError if a field is unhashable
                except (ValueError, KeyError, TypeError) as exc:
                    raise GlmError(f"{log_path}:{lineno}: bad replay record: {exc!r}") from None
                if self.completions.setdefault(key, completion) != completion:
                    raise GlmError(
                        f"{log_path}:{lineno}: completion differs from line {first}'s "
                        "for the same prompt, model, temperature and max_tokens"
                    )

    def complete(self, prompt: str, params: GenParams) -> str:
        key = (
            prompt_digest(prompt),
            _model_sent(params.model_id),
            params.temperature,
            params.max_tokens,
        )
        if key not in self.completions:
            raise GlmError(
                f"no recorded completion for prompt hash {key[0][:12]}... "
                f"with model {key[1]!r} at temperature {key[2]} and max_tokens {key[3]}"
            )
        return self.completions[key]


# ---------------------------------------------------------------------------
# Verdict parsing
# ---------------------------------------------------------------------------

_JUDGMENT_SPAN_RE = re.compile(r"<judgment>(.*?)</judgment>", re.IGNORECASE | re.DOTALL)
_DSPY_MARKER = "Judgment of the New Answer:"


def parse_judgment(raw: str, scheme: Scheme, style: str = "cpg") -> Judgment:
    """Extract the categorical verdict from a raw completion.

    cpg style reads the last <judgment>...</judgment> span; dspy style
    reads the text after the final "Judgment of the New Answer:" marker.
    The span is normalized and resolved against the scheme's canonical
    labels by longest-substring match, so "partially correct but
    incomplete" can never be mistaken for "correct".
    """
    if style == "cpg":
        spans = _JUDGMENT_SPAN_RE.findall(raw)
        if not spans:
            raise ParseFailure("no <judgment> span found", raw)
        span = spans[-1].strip()
    elif style == "dspy":
        idx = raw.rfind(_DSPY_MARKER)
        if idx < 0:
            raise ParseFailure(f"no {_DSPY_MARKER!r} marker found", raw)
        span = raw[idx + len(_DSPY_MARKER) :].strip()
    else:
        raise ValueError(f"unknown template style {style!r}")

    normalized = _normalize_label_text(span)
    best = None
    for label in scheme.labels():
        if _normalize_label_text(label) in normalized:
            if best is None or len(label) > len(best):
                best = label
    if best is None:
        raise ParseFailure(f"verdict {span!r} matches no {scheme.value} label", raw)
    return Judgment(label=best, raw=span)


def make_backend(spec: str) -> GlmBackend:
    """Backend from a selector string: mock, remote, replay:PATH, scripted:PATH."""
    if spec == "mock":
        return MockBackend()
    if spec == "remote":
        return RemoteBackend()
    if spec.startswith("replay:"):
        return ReplayBackend(spec.split(":", 1)[1])
    if spec.startswith("scripted:"):
        completions = json.loads(Path(spec.split(":", 1)[1]).read_text(encoding="utf-8"))
        return ScriptedBackend(completions)
    raise ValueError(f"unknown backend selector {spec!r}")
