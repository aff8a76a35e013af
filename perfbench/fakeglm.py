"""An in-process stand-in for a hosted grading model, behind the real client.

`FakeSession` is passed to `ragrade.glm.RemoteBackend(session=...)`, so
every grading request goes through the real client: payload building,
the rate limiter, status handling and the JSON field lookup.  The session
answers each request a fixed latency after it arrives, like a hosted model
whose service time does not depend on this program's CPU speed.  It starts
no thread and opens no socket.

Verdict rule:

- a prompt with examples gets the first example's judgment back, the rule
  of `ragrade.glm.MockBackend`, which makes grading an exact 1-NN
  classifier;
- a prompt without examples gets the collapsed gold label of the answer
  it carries, looked up in the corpus the benchmark generated.
"""

from __future__ import annotations

import re
import time

LATENCY_S = 0.020
ENDPOINT = "http://fake-model.invalid/v1/complete"

_FIRST_EXAMPLE_RE = re.compile(r"Example 1:\nAnswer: [^\n]*\nJudgment: ([^\n]*)\n")
_NEW_ANSWER_RE = re.compile(r"<new_answer>\n\n([^\n]*)\n\n</new_answer>")


class FirstRequest(Exception):
    """Raised by a session made with stop_at_first, when the first request arrives."""


class FakeResponse:
    status_code = 200

    def __init__(self, text: str):
        self._body = {"text": text}
        self.text = text

    def json(self) -> dict:
        return self._body


class FakeSession:
    """Answers `post` after LATENCY_S and records what each request carried.

    gold maps an answer text to the label a grader without examples
    should return for it.  With stop_at_first the first request is
    recorded and answered with FirstRequest, which ends the job there:
    that times set-up alone.
    """

    def __init__(self, gold: dict[str, str], stop_at_first: bool = False):
        self.gold = gold
        self.stop_at_first = stop_at_first
        self.arrivals: list[float] = []  # time.perf_counter() at each request
        self.models: list[str] = []  # the payload's "model" field, per request

    def post(self, url, json=None, headers=None, timeout=None):
        arrival = time.perf_counter()
        self.arrivals.append(arrival)
        self.models.append(json["model"])
        if self.stop_at_first:
            raise FirstRequest()
        prompt = json["prompt"]
        example = _FIRST_EXAMPLE_RE.search(prompt)
        if example:
            verdict = example.group(1)
        else:
            verdict = self.gold[_NEW_ANSWER_RE.search(prompt).group(1)]
        remaining = arrival + LATENCY_S - time.perf_counter()
        if remaining > 0:
            time.sleep(remaining)
        return FakeResponse(f"<judgment>{verdict}</judgment>")
