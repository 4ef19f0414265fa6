"""One closed-loop agent over HTTP, following the paper's loop per issue:
create a session, search (each search refining the last), browse the top
one or two hits, ask for a transfer brief, read the session log.

Every response is checked as it arrives; see checks.py for what each check
computes. The agent never reads the program's files.
"""

from __future__ import annotations

import http.client
import json
import socket
import struct
import time

import checks
from gen import AGENT_TOP_K, AgentIssue


_RESET_ON_CLOSE = struct.pack("ii", 1, 0)


class Client:
    def __init__(self, port: int):
        self.port = port
        self.rtt_ms: dict[str, list[float]] = {}
        self.attempted = 0
        self.failed = 0

    def call(self, endpoint: str, method: str, path: str, body: dict | None = None):
        """(status, parsed body); the round trip is timed per endpoint."""
        self.attempted += 1
        payload = None if body is None else json.dumps(body).encode()
        headers = {"Content-Type": "application/json"} if payload is not None else {}
        start = time.perf_counter()
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=60)
        try:
            conn.connect()
            # Close with a reset: the server answers one request per
            # connection, and a closed loop at this rate would otherwise
            # fill the host's TIME_WAIT table and slow every later connect.
            conn.sock.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, _RESET_ON_CLOSE)
            conn.request(method, path, body=payload, headers=headers)
            resp = conn.getresponse()
            raw = resp.read()
        except (OSError, http.client.HTTPException):
            self.failed += 1
            return 0, None
        finally:
            conn.close()
        self.rtt_ms.setdefault(endpoint, []).append((time.perf_counter() - start) * 1e3)
        if resp.status != 200:
            self.failed += 1
            return resp.status, None
        return resp.status, json.loads(raw)


class Agent:
    def __init__(self, client: Client, card_count: int):
        self.client = client
        self.card_count = card_count
        self.errors: list[str] = []
        self.sessions = 0  # completed
        self.attempted_sessions = 0

    def _check(self, problems: list[str], where: str) -> None:
        self.errors.extend(f"{where}: {p}" for p in problems)

    def session(self, issue: AgentIssue) -> bool:
        """One issue end to end; False when a request failed."""
        self.attempted_sessions += 1
        c = self.client
        _, body = c.call("session", "POST", "/v1/session", {})
        if body is None:
            return False
        self._check(checks.session_created(body), "session")
        sid = body["session_id"]
        rounds: list[tuple[str, str, str]] = []
        hits = []
        for query in issue.queries():
            _, body = c.call(
                "search", "POST", "/v1/search",
                {"query": query, "top_k": AGENT_TOP_K, "session_id": sid},
            )
            if body is None:
                return False
            self._check(checks.search_response(body, AGENT_TOP_K, self.card_count), "search")
            hits = body["hits"]
            rounds.append(checks.search_round(query, AGENT_TOP_K, [h["card_id"] for h in hits]))
        browsed = []
        for hit in hits[: issue.browses]:
            _, body = c.call(
                "browse", "POST", "/v1/browse", {"card_id": hit["card_id"], "session_id": sid}
            )
            if body is None:
                return False
            self._check(checks.browse_response(body, hit["card_id"], hit["preview"]), "browse")
            browsed.append(body)
            rounds.append(checks.browse_round(hit["card_id"]))
        ids = [card["card_id"] for card in browsed]
        _, body = c.call(
            "transfer_brief", "POST", "/v1/transfer_brief", {"session_id": sid, "card_ids": ids}
        )
        if body is None:
            return False
        self._check(checks.brief_response(body, browsed), "transfer_brief")
        _, body = c.call("session_get", "GET", f"/v1/session/{sid}")
        if body is None:
            return False
        self._check(checks.session_log(body, sid, rounds), "session_get")
        self.sessions += 1
        return True
