"""Pluggable chat-completion provider with retry and prompt templates.

Production distillation and evaluation go through a generic chat interface
configured by environment variables (MEMGOV_LLM_ENDPOINT, MEMGOV_LLM_API_KEY,
MEMGOV_LLM_MODEL); no specific model is bundled. Prompt templates are plain
text files with {{field}} placeholders, shipped under memgov/prompts and
overridable per deployment.
"""

from __future__ import annotations

import json
import os
import re
import threading
import time
from importlib import resources
from pathlib import Path
from typing import Callable, Protocol, TypeVar

import requests

from .errors import ConfigError, MalformedOutputError, ProviderError, SourceError

ENV_LLM_ENDPOINT = "MEMGOV_LLM_ENDPOINT"
ENV_LLM_API_KEY = "MEMGOV_LLM_API_KEY"
ENV_LLM_MODEL = "MEMGOV_LLM_MODEL"

DEFAULT_MAX_INFLIGHT = 8

_PLACEHOLDER = re.compile(r"\{\{(\w+)\}\}")

T = TypeVar("T")


class ChatProvider(Protocol):
    def complete(self, prompt: str) -> str:
        """Return the model's text completion for one prompt."""
        ...


def retry_call(
    fn: Callable[[], T],
    retries: int = 3,
    backoff: float = 0.5,
    sleep: Callable[[float], None] = time.sleep,
) -> T:
    """Call fn, retrying retryable ProviderErrors and SourceErrors with
    exponential backoff.

    Non-retryable errors (including malformed output) propagate at once.
    """
    attempt = 0
    while True:
        try:
            return fn()
        except (ProviderError, SourceError) as exc:
            if not exc.retryable or attempt >= retries:
                raise
            sleep(backoff * (2 ** attempt))
            attempt += 1


class PromptTemplate:
    """A text template with {{name}} placeholders."""

    def __init__(self, text: str):
        self.text = text
        self.fields = set(_PLACEHOLDER.findall(text))

    @classmethod
    def load(cls, name: str, search_dir: str | Path | None = None) -> "PromptTemplate":
        """Load a template by stage name, preferring ``search_dir`` over the
        packaged defaults."""
        filename = f"{name}.txt"
        if search_dir is not None:
            candidate = Path(search_dir) / filename
            if candidate.is_file():
                return cls(candidate.read_text())
        ref = resources.files("memgov").joinpath("prompts").joinpath(filename)
        if not ref.is_file():
            raise ConfigError(f"no prompt template named {name!r}")
        return cls(ref.read_text())

    def render(self, values: dict[str, str]) -> str:
        def sub(m: re.Match) -> str:
            key = m.group(1)
            if key not in values:
                raise ConfigError(f"prompt template placeholder {{{{{key}}}}} not provided")
            return values[key]

        return _PLACEHOLDER.sub(sub, self.text)


class HttpChatProvider:
    """Chat-completions client over HTTP (OpenAI-compatible payloads).

    Endpoint and credentials come from arguments or the MEMGOV_LLM_*
    environment variables. A semaphore bounds in-flight requests so the
    provider can be shared by parallel pipeline workers. Requests and
    responses can optionally be appended to a JSONL log for audit.
    """

    def __init__(
        self,
        endpoint: str | None = None,
        api_key: str | None = None,
        model: str | None = None,
        max_inflight: int = DEFAULT_MAX_INFLIGHT,
        timeout: float = 120.0,
        request_log: str | Path | None = None,
    ):
        self.endpoint = endpoint or os.environ.get(ENV_LLM_ENDPOINT, "")
        if not self.endpoint:
            raise ConfigError(f"no LLM endpoint configured (set {ENV_LLM_ENDPOINT})")
        self.api_key = api_key if api_key is not None else os.environ.get(ENV_LLM_API_KEY)
        self.model = model or os.environ.get(ENV_LLM_MODEL, "")
        if not self.model:
            raise ConfigError(f"no LLM model configured (set {ENV_LLM_MODEL})")
        self._gate = threading.Semaphore(max_inflight)
        self.timeout = timeout
        self.request_log = Path(request_log) if request_log else None
        self._log_lock = threading.Lock()
        self.session = requests.Session()

    def complete(self, prompt: str) -> str:
        payload = {
            "model": self.model,
            "messages": [{"role": "user", "content": prompt}],
            "temperature": 0,
        }
        headers = {"Content-Type": "application/json"}
        if self.api_key:
            headers["Authorization"] = f"Bearer {self.api_key}"
        with self._gate:
            try:
                resp = self.session.post(
                    self.endpoint, json=payload, headers=headers, timeout=self.timeout
                )
            except requests.RequestException as exc:
                raise ProviderError(f"provider unreachable: {exc}") from exc
        if resp.status_code == 429 or resp.status_code >= 500:
            raise ProviderError(f"provider returned {resp.status_code}")
        if resp.status_code >= 400:
            raise ProviderError(f"provider returned {resp.status_code}", retryable=False)
        try:
            body = resp.json()
            text = body["choices"][0]["message"]["content"]
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            raise MalformedOutputError(f"provider response shape unexpected: {exc}") from exc
        self._log(prompt, text)
        return text

    def _log(self, prompt: str, response: str) -> None:
        if self.request_log is None:
            return
        record = json.dumps({"model": self.model, "prompt": prompt, "response": response})
        with self._log_lock:
            with self.request_log.open("a") as fh:
                fh.write(record + "\n")


def extract_json_object(text: str) -> dict:
    """Pull the first top-level JSON object out of a completion.

    Providers often wrap JSON in prose or code fences; anything that does
    not contain a parseable object is malformed output.
    """
    start = text.find("{")
    if start == -1:
        raise MalformedOutputError("no JSON object in provider output")
    decoder = json.JSONDecoder()
    for i in range(start, len(text)):
        if text[i] != "{":
            continue
        try:
            obj, _ = decoder.raw_decode(text, i)
        except ValueError:
            continue
        if isinstance(obj, dict):
            return obj
    raise MalformedOutputError("no parseable JSON object in provider output")
