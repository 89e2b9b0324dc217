"""REST client for fetching repository metadata and popularity timelines.

Endpoints used (GitHub-compatible):
  /repos/{owner}/{name}             repository metadata snapshot
  /users/{owner}                    owner follower count
  /users/{owner}/followers          owner follower logins (for the graph)
  /repos/{owner}/{name}/stargazers  star timeline, star-timestamp media type
  /repos/{owner}/{name}/forks       fork timeline, sorted oldest-first

The client enforces a shared hourly request cap across all endpoints and
retries rate-limited calls up to the configured limit, but refuses a
Retry-After over an hour. Platforms cap deep pagination (stargazers stop
listing after 40k entries), so a fetched history shorter than the snapshot
count flags the result as truncated instead of passing silently.
"""

from __future__ import annotations

import json
import math
import time
from collections import deque
from contextlib import contextmanager
from http.client import HTTPException
from typing import Callable, Iterator
from urllib.error import HTTPError
from urllib.parse import quote, urlencode, urlsplit
from urllib.request import HTTPRedirectHandler, Request, build_opener

from .dataset import parse_timestamp
from .errors import ApiError, AuthFailure, NotFound, RateLimited
from .model import (EventKind, PopularityEvent, RepoRecord, _check_string, _integer_field,
                    record, replace)

_STAR_MEDIA_TYPE = "application/vnd.github.star+json"
_DEFAULT_MEDIA_TYPE = "application/vnd.github+json"
# The window of the hourly request cap, in seconds; no retry waits longer.
_WINDOW_S = 3600.0


@record
class ApiClientConfig:
    """Connection and throttling settings for the REST client."""

    base_url: str = "https://api.github.com"
    auth_token: str | None = None
    requests_per_hour_cap: int = 5000
    page_size: int = 100
    retry_limit: int = 2
    fetch_follower_ids: bool = True

    def __post_init__(self) -> None:
        if _integer_field(self, "requests_per_hour_cap") <= 0:
            raise ValueError("requests_per_hour_cap must be positive")
        if not 1 <= _integer_field(self, "page_size") <= 100:
            raise ValueError("page_size must be within [1, 100]")
        if _integer_field(self, "retry_limit") < 0:
            raise ValueError("retry_limit must be >= 0")
        if self.auth_token is not None:
            _check_visible_ascii("auth_token", self.auth_token)
        if not isinstance(self.fetch_follower_ids, bool):
            raise ValueError(
                f"fetch_follower_ids must be a bool, got {self.fetch_follower_ids!r}"
            )
        _check_visible_ascii("base_url", self.base_url)
        url = urlsplit(self.base_url)
        if url.scheme not in ("http", "https") or not url.hostname:
            raise ValueError(
                f"base_url must be an http or https URL with a host: {self.base_url!r}"
            )


def _check_visible_ascii(name: str, value) -> None:
    """Refuse a string that a request line or header cannot carry as it is."""
    _check_string(name, value)
    if not all("!" <= char <= "~" for char in value):
        raise ValueError(f"{name} must be visible ASCII, without spaces or control characters")


class _SameOriginRedirect(HTTPRedirectHandler):
    """Follow redirects to http and https only, sending the token on only
    while the origin stays the same.

    The token is an unredirected header, which ``HTTPRedirectHandler`` never
    copies; the headers it does copy go to any host. The base class would
    follow ``ftp`` too.
    """

    def redirect_request(self, req, fp, code, msg, headers, newurl):
        if urlsplit(newurl).scheme not in ("http", "https"):
            raise HTTPError(req.full_url, code, f"redirect to {newurl} refused", headers, fp)
        new = super().redirect_request(req, fp, code, msg, headers, newurl)
        token = req.unredirected_hdrs.get("Authorization")
        if token and urlsplit(new.full_url)[:2] == urlsplit(req.full_url)[:2]:
            new.add_unredirected_header("Authorization", token)
        return new


class RestClient:
    """REST client on ``urllib`` with rate-cap accounting and retry.

    ``clock`` and ``sleep`` are injectable so throttling is testable without
    real waiting; the request-timestamp window is shared across all endpoint
    calls made through this client.
    """

    def __init__(
        self,
        config: ApiClientConfig,
        clock: Callable[[], float] = time.monotonic,
        sleep: Callable[[float], None] = time.sleep,
    ):
        self.config = config
        self._opener = build_opener(_SameOriginRedirect)
        self._clock = clock
        self._sleep = sleep
        self._sent: deque[float] = deque()

    def _prune(self, now: float) -> None:
        """Forget the requests sent an hour or more before ``now``."""
        while self._sent and self._sent[0] <= now - _WINDOW_S:
            self._sent.popleft()

    def _throttle(self) -> None:
        now = self._clock()
        self._prune(now)
        if len(self._sent) >= self.config.requests_per_hour_cap:
            wait = self._sent[0] + _WINDOW_S - now
            if wait > 0:
                self._sleep(wait)
            self._prune(self._clock())
        self._sent.append(self._clock())

    def _request(self, url: str, media_type: str) -> Request:
        request = Request(url, headers={"Accept": media_type})
        if self.config.auth_token:
            request.add_unredirected_header("Authorization",
                                            f"Bearer {self.config.auth_token}")
        return request

    def get_json(
        self,
        path: str,
        params: dict | None = None,
        media_type: str = _DEFAULT_MEDIA_TYPE,
    ):
        """GET a JSON payload, throttling and retrying rate limits.

        Raises:
            NotFound: HTTP 404.
            AuthFailure: HTTP 401, or 403 without rate-limit markers.
            RateLimited: rate limits past retry_limit, or a Retry-After over an hour.
            ApiError: any other non-2xx status, a body that is not JSON, a
                request that fails without a response, or a response that
                breaks off.
        """
        url = self.config.base_url.rstrip("/") + path
        if params:
            url += "?" + urlencode(params)
        attempts = self.config.retry_limit + 1
        for attempt in range(attempts):
            self._throttle()
            try:
                with self._opener.open(self._request(url, media_type)) as response:
                    body = response.read()
            except HTTPError as error:
                error.close()
                status, headers = error.code, error.headers
            except (OSError, HTTPException) as exc:
                # A failed connection is an OSError and a broken response (a
                # body cut short, say) an HTTPException; neither may pass as
                # a filesystem error.
                raise ApiError(f"request to {path} failed: {exc}") from None
            else:
                try:
                    return json.loads(body)
                except ValueError:
                    raise ApiError(f"response from {path} is not JSON") from None
            if status == 404:
                raise NotFound(f"{path} not found")
            if status == 401:
                raise AuthFailure(f"authentication rejected for {path}")
            if _is_rate_limited(status, headers):
                retry_after = _retry_after_seconds(headers)
                if retry_after > _WINDOW_S:
                    raise RateLimited(f"rate limited on {path}: Retry-After of {retry_after:g}"
                                      f" s exceeds the {_WINDOW_S:g} s window",
                                      retry_after=retry_after)
                if attempt + 1 < attempts:
                    self._sleep(retry_after)
                    continue
                raise RateLimited(
                    f"rate limited on {path} after {attempts} attempts",
                    retry_after=retry_after,
                )
            if status == 403:
                raise AuthFailure(f"access forbidden for {path}")
            raise ApiError(f"unexpected status {status} for {path}")
        raise ApiError(f"retry loop exhausted for {path}")  # pragma: no cover

    def paginate(
        self,
        path: str,
        params: dict | None = None,
        media_type: str = _DEFAULT_MEDIA_TYPE,
    ) -> Iterator[dict]:
        """Yield items across page/per_page pagination until a short page."""
        page = 1
        while True:
            batch = self.get_json(
                path,
                params={**(params or {}), "per_page": self.config.page_size, "page": page},
                media_type=media_type,
            )
            if not isinstance(batch, list):
                raise ApiError(f"expected a JSON array from {path}")
            yield from batch
            if len(batch) < self.config.page_size:
                return
            page += 1


def _is_rate_limited(status: int, headers) -> bool:
    if status == 429:
        return True
    return status == 403 and headers.get("X-RateLimit-Remaining") == "0"


def _retry_after_seconds(headers) -> float:
    """Retry-After in seconds; 60 when it is absent, unparsable or not finite."""
    try:
        seconds = float(headers.get("Retry-After", "nan"))
    except ValueError:
        seconds = math.nan
    return max(0.0, seconds) if math.isfinite(seconds) else 60.0


@record
class FetchResult:
    """One fetched repository: record, event timeline, truncation flag."""

    repo: RepoRecord
    events: tuple[PopularityEvent, ...]
    truncated_history: bool


@contextmanager
def _payload_of(path: str):
    """Report a payload from ``path`` that lacks a field, or has one of the
    wrong type or value, as an ApiError naming the endpoint."""
    try:
        yield
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise ApiError(
            f"malformed response from {path}: {type(exc).__name__}: {exc}"
        ) from None


def split_repo_spec(owner_and_name: str) -> tuple[str, str]:
    """Split ``OWNER/NAME`` into its two parts; ValueError unless each is
    non-empty and neither is a dot segment (``.`` or ``..``)."""
    owner, _, name = owner_and_name.partition("/")
    if not owner or not name or "/" in name or {owner, name} & {".", ".."}:
        raise ValueError(f"expected 'owner/name', got {owner_and_name!r}")
    return owner, name


def fetch_repo(
    config: ApiClientConfig,
    owner_and_name: str,
    clock: Callable[[], float] = time.monotonic,
    sleep: Callable[[float], None] = time.sleep,
) -> FetchResult:
    """Fetch one repository's record and fork/star event timelines.

    Star events carry the per-star timestamps exposed by the star media
    type; fork events use each fork's creation time. ``events`` holds the
    stars, then the forks, each oldest-first as fetched; ``Corpus.build``
    puts them in canonical order. Watchers have no timeline anywhere, so the
    watcher count is captured as a snapshot only.

    ``truncated_history`` is set when the fetched timeline is shorter than
    the snapshot count, which is what capped pagination looks like. A
    payload that lacks a field or has one of the wrong type or value raises
    ApiError naming its endpoint.
    """
    owner, name = (quote(part, safe="") for part in split_repo_spec(owner_and_name))
    client = RestClient(config, clock=clock, sleep=sleep)

    repo_path = f"/repos/{owner}/{name}"
    with _payload_of(repo_path):
        repo_json = client.get_json(repo_path)
        # RepoRecord checks the payload's values; only an integer id is converted.
        repo_id = repo_json["id"]
        record = RepoRecord(
            repo_id=str(repo_id) if type(repo_id) is int else repo_id,
            full_name=repo_json["full_name"],
            created_at=parse_timestamp(repo_json["created_at"]),
            primary_language=repo_json.get("language"),
            size_kb=repo_json.get("size", 0),
            forks_total=repo_json.get("forks_count", 0),
            stars_total=repo_json.get("stargazers_count", 0),
            watchers_total=repo_json.get("subscribers_count",
                                         repo_json.get("watchers_count", 0)),
        )
    # Fields from the other endpoints go in through ``replace``, which runs
    # RepoRecord's checks again inside the block of the endpoint they came from.
    user_path = f"/users/{owner}"
    with _payload_of(user_path):
        user_json = client.get_json(user_path)
        record = replace(record, owner_followers=user_json.get("followers", 0))
    if config.fetch_follower_ids:
        with _payload_of(f"{user_path}/followers"):
            record = replace(record, follower_ids=tuple(
                entry["login"] for entry in client.paginate(f"{user_path}/followers")
            ))

    def timeline(path: str, kind: EventKind, key: str, **kwargs) -> list[PopularityEvent]:
        with _payload_of(path):
            return [PopularityEvent(record.repo_id, kind, parse_timestamp(entry[key]))
                    for entry in client.paginate(path, **kwargs)]

    star_events = timeline(f"{repo_path}/stargazers", EventKind.STAR, "starred_at",
                           media_type=_STAR_MEDIA_TYPE)
    fork_events = timeline(f"{repo_path}/forks", EventKind.FORK, "created_at",
                           params={"sort": "oldest"})
    truncated = (len(star_events) < record.stars_total
                 or len(fork_events) < record.forks_total)
    return FetchResult(repo=record, events=(*star_events, *fork_events),
                       truncated_history=truncated)
