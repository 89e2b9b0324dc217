import json
import math
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import parse_qs, urlparse

import numpy as np
import pytest
import requests

from wtps import ApiError, AuthFailure, NotFound, RateLimited
from wtps.api import ApiClientConfig, RestClient, fetch_repo
from wtps import load_corpus
from wtps.cli import EXIT_API, EXIT_OK, main
from wtps.dataset import parse_timestamp
from wtps.model import EventKind

OWNER = "octo"
NAME = "widget"

STAR_TIMES = ["2018-02-01T10:00:00Z", "2018-02-15T11:30:00Z", "2018-03-01T09:15:00Z"]
FORK_TIMES = ["2018-02-20T08:00:00Z", "2018-04-02T16:45:00Z"]


class _State:
    """Mutable canned-response state shared between a test and its server."""

    def __init__(self):
        self.repo = {
            "id": 777,
            "full_name": f"{OWNER}/{NAME}",
            "created_at": "2018-01-15T00:00:00Z",
            "language": "Python",
            "size": 321,
            "forks_count": len(FORK_TIMES),
            "stargazers_count": len(STAR_TIMES),
            "watchers_count": len(STAR_TIMES),
            "subscribers_count": 4,
        }
        self.user = {"login": OWNER, "followers": 11}
        self.stars = list(STAR_TIMES)
        self.forks = list(FORK_TIMES)
        self.followers = ["ada", "brin", "curie"]
        self.scripted: list[tuple[str, int, dict]] = []   # (path_suffix, status, headers)
        self.requests: list[tuple[str, dict, dict]] = []  # (path, query, headers)


def _make_handler(state: _State):
    class Handler(BaseHTTPRequestHandler):
        def log_message(self, *args):
            pass

        def _send(self, payload, status=200, headers=None):
            body = json.dumps(payload).encode()
            self.send_response(status)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(body)))
            for key, value in (headers or {}).items():
                self.send_header(key, value)
            self.end_headers()
            self.wfile.write(body)

        def _page(self, items):
            query = parse_qs(urlparse(self.path).query)
            per_page = int(query.get("per_page", ["30"])[0])
            page = int(query.get("page", ["1"])[0])
            start = (page - 1) * per_page
            return items[start:start + per_page]

        def do_GET(self):
            parsed = urlparse(self.path)
            query = {k: v[0] for k, v in parse_qs(parsed.query).items()}
            state.requests.append((parsed.path, query, dict(self.headers)))

            for i, (suffix, status, headers) in enumerate(state.scripted):
                if parsed.path.endswith(suffix):
                    state.scripted.pop(i)
                    self._send({"message": "scripted"}, status=status, headers=headers)
                    return

            if parsed.path == f"/repos/{OWNER}/{NAME}":
                self._send(state.repo)
            elif parsed.path == f"/users/{OWNER}":
                self._send(state.user)
            elif parsed.path == f"/users/{OWNER}/followers":
                self._send([{"login": login} for login in self._page(state.followers)])
            elif parsed.path == f"/repos/{OWNER}/{NAME}/stargazers":
                self._send(
                    [{"starred_at": ts, "user": {"login": f"fan{i}"}}
                     for i, ts in enumerate(self._page(state.stars))]
                )
            elif parsed.path == f"/repos/{OWNER}/{NAME}/forks":
                self._send([{"created_at": ts} for ts in self._page(state.forks)])
            else:
                self._send({"message": "Not Found"}, status=404)

    return Handler


@pytest.fixture()
def mock_api():
    state = _State()
    server = ThreadingHTTPServer(("127.0.0.1", 0), _make_handler(state))
    thread = threading.Thread(
        target=lambda: server.serve_forever(poll_interval=0.02), daemon=True
    )
    thread.start()
    base_url = f"http://127.0.0.1:{server.server_address[1]}"
    yield base_url, state
    server.shutdown()
    server.server_close()


def _config(base_url, **overrides):
    defaults = dict(base_url=base_url, requests_per_hour_cap=1000, page_size=100,
                    retry_limit=1)
    defaults.update(overrides)
    return ApiClientConfig(**defaults)


class TestFetchRepo:
    def test_three_stars_with_known_timestamps(self, mock_api):
        base_url, state = mock_api
        result = fetch_repo(_config(base_url), f"{OWNER}/{NAME}")
        stars = [e for e in result.events if e.kind is EventKind.STAR]
        assert [e.occurred_at for e in stars] == sorted(
            parse_timestamp(ts) for ts in STAR_TIMES
        )
        assert all(e.delta == 1 for e in stars)
        assert not result.truncated_history

    def test_record_fields_populated(self, mock_api):
        base_url, state = mock_api
        result = fetch_repo(_config(base_url), f"{OWNER}/{NAME}")
        record = result.repo
        assert record.repo_id == "777"
        assert record.full_name == f"{OWNER}/{NAME}"
        assert record.primary_language == "Python"
        assert record.size_kb == 321
        assert record.owner_followers == 11
        assert record.stars_total == 3
        assert record.forks_total == 2
        assert record.watchers_total == 4  # true watcher snapshot, no timeline
        assert record.follower_ids == ("ada", "brin", "curie")

    def test_fork_events_use_fork_creation_times(self, mock_api):
        base_url, state = mock_api
        result = fetch_repo(_config(base_url), f"{OWNER}/{NAME}")
        forks = [e for e in result.events if e.kind is EventKind.FORK]
        assert [e.occurred_at for e in forks] == sorted(
            parse_timestamp(ts) for ts in FORK_TIMES
        )
        fork_requests = [
            (path, query) for path, query, _ in state.requests if path.endswith("/forks")
        ]
        assert fork_requests and fork_requests[0][1]["sort"] == "oldest"

    def test_star_media_type_sent(self, mock_api):
        base_url, state = mock_api
        fetch_repo(_config(base_url), f"{OWNER}/{NAME}")
        star_headers = [
            headers for path, _, headers in state.requests
            if path.endswith("/stargazers")
        ]
        assert star_headers
        assert all("star+json" in h.get("Accept", "") for h in star_headers)

    def test_zero_activity_repo(self, mock_api):
        base_url, state = mock_api
        state.stars = []
        state.forks = []
        state.repo["stargazers_count"] = 0
        state.repo["forks_count"] = 0
        result = fetch_repo(_config(base_url), f"{OWNER}/{NAME}")
        assert result.events == ()
        assert not result.truncated_history

    def test_capped_pagination_sets_truncated_flag(self, mock_api):
        base_url, state = mock_api
        state.repo["stargazers_count"] = 50  # snapshot far beyond listable stars
        result = fetch_repo(_config(base_url), f"{OWNER}/{NAME}")
        assert result.truncated_history

    def test_pagination_walks_pages(self, mock_api):
        base_url, state = mock_api
        state.stars = [f"2018-02-01T00:{i:02d}:00Z" for i in range(25)]
        state.repo["stargazers_count"] = 25
        result = fetch_repo(_config(base_url, page_size=10), f"{OWNER}/{NAME}")
        stars = [e for e in result.events if e.kind is EventKind.STAR]
        assert len(stars) == 25
        star_pages = [
            query["page"] for path, query, _ in state.requests
            if path.endswith("/stargazers")
        ]
        assert star_pages == ["1", "2", "3"]

    def test_follower_listing_can_be_skipped(self, mock_api):
        base_url, state = mock_api
        result = fetch_repo(
            _config(base_url, fetch_follower_ids=False), f"{OWNER}/{NAME}"
        )
        assert result.repo.follower_ids == ()
        assert not any(path.endswith("/followers") for path, _, _ in state.requests)

    def test_auth_token_sent_as_bearer(self, mock_api):
        base_url, state = mock_api
        fetch_repo(_config(base_url, auth_token="sekrit"), f"{OWNER}/{NAME}")
        assert all(
            headers.get("Authorization") == "Bearer sekrit"
            for _, _, headers in state.requests
        )

    @pytest.mark.parametrize("bad", ["justowner", "a/b/c", "/name", "owner/"])
    def test_malformed_repo_spec_rejected(self, mock_api, bad):
        base_url, _ = mock_api
        with pytest.raises(ValueError):
            fetch_repo(_config(base_url), bad)


class TestMalformedPayload:
    """A payload with a missing field, or a field of the wrong type or value,
    is an ApiError (exit 4) naming its endpoint, and nothing is written."""

    @pytest.mark.parametrize("breaks,endpoint", [
        (lambda s: s.stars.__setitem__(0, "yesterday"), "/stargazers"),
        (lambda s: s.repo.update(created_at=None), f"/repos/{OWNER}/{NAME}:"),
        (lambda s: s.repo.update(size=None), f"/repos/{OWNER}/{NAME}:"),
        (lambda s: s.repo.update(size=-5), f"/repos/{OWNER}/{NAME}:"),
        (lambda s: s.repo.pop("id"), f"/repos/{OWNER}/{NAME}:"),
        (lambda s: s.user.update(followers="many"), f"/users/{OWNER}:"),
        (lambda s: s.repo.update(forks_count=2**63), f"/repos/{OWNER}/{NAME}:"),
        (lambda s: s.repo.update(language=False), f"/repos/{OWNER}/{NAME}:"),
        (lambda s: s.repo.update(size=1.5), f"/repos/{OWNER}/{NAME}:"),
        (lambda s: s.repo.update(full_name=None), f"/repos/{OWNER}/{NAME}:"),
        (lambda s: s.repo.update(id=None), f"/repos/{OWNER}/{NAME}:"),
    ], ids=["bad-starred-at", "null-created-at", "null-size", "negative-size",
            "missing-id", "followers-not-a-number", "forks-count-past-int64",
            "language-false", "fractional-size", "null-full-name", "null-id"])
    def test_fetch_exits_with_api_error(self, mock_api, tmp_path, capsys, breaks, endpoint):
        base_url, state = mock_api
        breaks(state)
        out = tmp_path / "fetched.jsonl"
        code = main(["fetch", "--repo", f"{OWNER}/{NAME}", "--output", str(out),
                     "--base-url", base_url])
        assert code == EXIT_API
        error = json.loads(capsys.readouterr().err.strip())
        assert error["error"] == "ApiError"
        assert "malformed response from /" in error["message"]
        assert endpoint in error["message"]
        assert list(tmp_path.iterdir()) == []

    def test_body_that_is_not_json(self):
        class HtmlSession:
            def get(self, url, params=None, headers=None):
                response = requests.Response()
                response.status_code = 200
                response._content = b"<html>busy</html>"
                return response

        with pytest.raises(ApiError, match=f"^response from /repos/{OWNER}/{NAME} is not JSON$"):
            fetch_repo(_config("http://127.0.0.1:9"), f"{OWNER}/{NAME}", session=HtmlSession())


class TestFetchCommand:
    """``wtps fetch`` end to end against the mock server."""

    def _fetch(self, base_url, out):
        return main(["fetch", "--repo", f"{OWNER}/{NAME}", "--output", str(out),
                     "--base-url", base_url])

    def test_failed_request_exits_with_api_error(self, tmp_path, capsys, monkeypatch):
        def refuse(session, url, **kwargs):
            raise requests.ConnectionError("connection refused")

        monkeypatch.setattr(requests.Session, "get", refuse)
        out = tmp_path / "fetched.jsonl"
        assert main(["fetch", "--repo", f"{OWNER}/{NAME}", "--output", str(out),
                     "--base-url", "http://127.0.0.1:9", "--retry-limit", "0"]) == EXIT_API
        assert json.loads(capsys.readouterr().err.strip()) == {
            "error": "ApiError",
            "exit_code": EXIT_API,
            "message": f"request to /repos/{OWNER}/{NAME} failed: connection refused",
        }
        assert list(tmp_path.iterdir()) == []

    def test_fetched_repository_is_saved_with_its_sidecar(self, mock_api, tmp_path, capsys):
        base_url, _ = mock_api
        out = tmp_path / "fetched.jsonl"
        assert self._fetch(base_url, out) == EXIT_OK
        assert capsys.readouterr().err == ""
        manifest = json.loads(out.read_text(encoding="utf-8").splitlines()[0])
        assert manifest["source"] == "live_api"
        corpus = load_corpus(out)
        assert corpus.repo_ids == ("777",)
        assert len(corpus.event_time) == len(STAR_TIMES) + len(FORK_TIMES)
        sidecar = json.loads((tmp_path / "fetched.jsonl.meta.json").read_text(encoding="utf-8"))
        assert sidecar["command"] == "fetch"
        assert sidecar["truncated_history"] is False
        assert sidecar["provenance"]["event_count"] == 5
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "fetched.jsonl", "fetched.jsonl.meta.json"]

    def test_retry_after_beyond_the_hour_exits_with_api_error(self, mock_api, tmp_path, capsys):
        base_url, state = mock_api
        state.scripted.append((f"/repos/{OWNER}/{NAME}", 429, {"Retry-After": "1e12"}))
        out = tmp_path / "fetched.jsonl"
        assert self._fetch(base_url, out) == EXIT_API
        error = json.loads(capsys.readouterr().err.strip())
        assert error["error"] == "RateLimited"
        assert error["exit_code"] == EXIT_API
        assert "Retry-After of 1e+12 s exceeds the 3600 s window" in error["message"]
        assert list(tmp_path.iterdir()) == []

    def test_truncated_history_is_warned_and_recorded(self, mock_api, tmp_path, capsys):
        base_url, state = mock_api
        state.repo["stargazers_count"] = 50
        out = tmp_path / "fetched.jsonl"
        assert self._fetch(base_url, out) == EXIT_OK
        warning = json.loads(capsys.readouterr().err)
        assert warning["warning"] == "TruncatedHistory"
        assert f"{OWNER}/{NAME}" in warning["message"]
        sidecar = json.loads((tmp_path / "fetched.jsonl.meta.json").read_text(encoding="utf-8"))
        assert sidecar["truncated_history"] is True


class TestErrorMapping:
    def test_not_found(self, mock_api):
        base_url, _ = mock_api
        with pytest.raises(NotFound):
            fetch_repo(_config(base_url), f"{OWNER}/missing")

    def test_auth_failure(self, mock_api):
        base_url, state = mock_api
        state.scripted.append((f"/repos/{OWNER}/{NAME}", 401, {}))
        with pytest.raises(AuthFailure):
            fetch_repo(_config(base_url), f"{OWNER}/{NAME}")

    def test_server_error_is_api_error(self, mock_api):
        base_url, state = mock_api
        state.scripted.append((f"/repos/{OWNER}/{NAME}", 500, {}))
        with pytest.raises(ApiError) as caught:
            fetch_repo(_config(base_url), f"{OWNER}/{NAME}")
        assert str(caught.value) == f"unexpected status 500 for /repos/{OWNER}/{NAME}"

    def test_failed_request_is_api_error(self):
        # requests' errors are OSErrors; they must not pass as filesystem errors.
        class UnreachableSession:
            def get(self, url, params=None, headers=None):
                raise requests.ConnectionError("connection refused")

        with pytest.raises(ApiError) as caught:
            fetch_repo(_config("http://127.0.0.1:9"), f"{OWNER}/{NAME}",
                       session=UnreachableSession())
        assert type(caught.value) is ApiError
        assert str(caught.value) == f"request to /repos/{OWNER}/{NAME} failed: connection refused"

    def test_page_that_is_not_an_array_is_api_error(self, mock_api):
        base_url, _ = mock_api
        with requests.Session() as session, pytest.raises(ApiError) as caught:
            list(RestClient(_config(base_url), session=session).paginate(f"/users/{OWNER}"))
        assert str(caught.value) == f"expected a JSON array from /users/{OWNER}"

    def test_forbidden_without_rate_markers_is_auth_failure(self, mock_api):
        base_url, state = mock_api
        state.scripted.append((f"/repos/{OWNER}/{NAME}", 403, {}))
        with pytest.raises(AuthFailure):
            fetch_repo(_config(base_url), f"{OWNER}/{NAME}")

    def test_rate_limit_retries_then_succeeds(self, mock_api):
        base_url, state = mock_api
        state.scripted.append((f"/users/{OWNER}", 429, {"Retry-After": "7"}))
        sleeps = []
        result = fetch_repo(
            _config(base_url, retry_limit=1),
            f"{OWNER}/{NAME}",
            sleep=sleeps.append,
        )
        assert result.repo.owner_followers == 11
        assert 7.0 in sleeps

    @pytest.mark.parametrize("header", ["inf", "1e400", "-inf", "nan", "soon"])
    def test_retry_after_that_is_not_a_finite_number_waits_60s(self, mock_api, header):
        base_url, state = mock_api
        state.scripted.append((f"/users/{OWNER}", 429, {"Retry-After": header}))
        sleeps = []
        fetch_repo(_config(base_url, retry_limit=1), f"{OWNER}/{NAME}", sleep=sleeps.append)
        assert 60.0 in sleeps
        assert all(math.isfinite(s) for s in sleeps)

    def test_retry_after_of_the_whole_hour_is_waited(self, mock_api):
        base_url, state = mock_api
        state.scripted.append((f"/users/{OWNER}", 429, {"Retry-After": "3600"}))
        sleeps = []
        fetch_repo(_config(base_url, retry_limit=1), f"{OWNER}/{NAME}", sleep=sleeps.append)
        assert sleeps == [3600.0]

    @pytest.mark.parametrize("header", ["3600.5", "1e12"])
    def test_retry_after_beyond_the_hour_is_refused_without_sleeping(self, mock_api, header):
        base_url, state = mock_api
        state.scripted.append((f"/users/{OWNER}", 429, {"Retry-After": header}))

        def sleep(seconds):
            raise AssertionError(f"slept {seconds} s")

        with pytest.raises(RateLimited, match="exceeds the 3600 s window") as excinfo:
            fetch_repo(_config(base_url, retry_limit=2), f"{OWNER}/{NAME}", sleep=sleep)
        assert excinfo.value.retry_after == float(header)

    def test_rate_limit_exhausts_retries(self, mock_api):
        base_url, state = mock_api
        state.scripted.append((f"/repos/{OWNER}/{NAME}", 429, {"Retry-After": "13"}))
        with pytest.raises(RateLimited) as excinfo:
            fetch_repo(_config(base_url, retry_limit=0), f"{OWNER}/{NAME}")
        assert excinfo.value.retry_after == 13.0

    def test_403_with_zero_remaining_is_rate_limit(self, mock_api):
        base_url, state = mock_api
        state.scripted.append(
            (f"/repos/{OWNER}/{NAME}", 403, {"X-RateLimit-Remaining": "0"})
        )
        with pytest.raises(RateLimited):
            fetch_repo(_config(base_url, retry_limit=0), f"{OWNER}/{NAME}")


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def sleep(self, seconds):
        assert seconds >= 0
        self.now += seconds


class TestRateCap:
    def test_hourly_cap_never_exceeded(self, mock_api):
        base_url, _ = mock_api
        clock = FakeClock()
        session = requests.Session()
        send_times = []
        real_get = session.get

        def logging_get(*args, **kwargs):
            send_times.append(clock.now)
            return real_get(*args, **kwargs)

        session.get = logging_get
        client = RestClient(
            _config(base_url, requests_per_hour_cap=3),
            session=session,
            clock=clock,
            sleep=clock.sleep,
        )
        for _ in range(7):
            client.get_json(f"/repos/{OWNER}/{NAME}")

        assert len(send_times) == 7
        for i, moment in enumerate(send_times):
            in_window = [t for t in send_times[: i + 1] if moment - t < 3600.0]
            assert len(in_window) <= 3

    def test_config_validation(self):
        with pytest.raises(ValueError):
            ApiClientConfig(page_size=0)
        with pytest.raises(ValueError):
            ApiClientConfig(page_size=101)
        with pytest.raises(ValueError):
            ApiClientConfig(requests_per_hour_cap=0)
        with pytest.raises(ValueError):
            ApiClientConfig(retry_limit=-1)
        for url in ("notaurl", "ftp://example.com", "http://", "https:///path", "example.com"):
            with pytest.raises(ValueError):
                ApiClientConfig(base_url=url)
        ApiClientConfig(base_url="http://127.0.0.1:9/api")

    @pytest.mark.parametrize("name,value", [
        ("page_size", True), ("page_size", 2.5), ("page_size", "5"),
        ("retry_limit", 1.5), ("requests_per_hour_cap", "5"),
        ("fetch_follower_ids", "no"), ("fetch_follower_ids", 1),
        ("auth_token", 5), ("base_url", 5), ("base_url", None),
    ])
    def test_config_fields_refuse_wrong_types(self, name, value):
        with pytest.raises(ValueError, match=f"^{name} must be "):
            ApiClientConfig(**{name: value})

    def test_config_stores_numpy_integers_as_int(self):
        config = ApiClientConfig(requests_per_hour_cap=np.int64(10), page_size=np.int32(50),
                                 retry_limit=np.uint8(1))
        values = (config.requests_per_hour_cap, config.page_size, config.retry_limit)
        assert values == (10, 50, 1) and {type(v) for v in values} == {int}
