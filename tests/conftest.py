from __future__ import annotations

import pyarrow.parquet as pq
import pytest
import ray


@pytest.fixture(scope="session", autouse=True)
def ray_session():
    ray.init(
        address="local",
        num_cpus=4,
        include_dashboard=False,
        ignore_reinit_error=True,
        logging_level="ERROR",
    )
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False
    yield
    ray.shutdown()


@pytest.fixture(scope="session")
def corpus_dir():
    from horizon_ocr_python_ray import ensure_corpus

    return ensure_corpus(0.001)


@pytest.fixture(scope="session")
def golden_map(corpus_dir):
    t = pq.read_table(corpus_dir + "/golden.parquet")
    return {r["url"]: r for r in t.to_pylist()}


@pytest.fixture
def udf_calls(monkeypatch, tmp_path):
    """``udf_calls(module, name)`` wraps ``module.name`` so that every
    call, in any worker process, appends one line to a file under
    ``tmp_path``; it returns ``take()``, which reports the calls since
    the last ``take()``. Trip tests use it to show that a fall-through
    plan consumes the partials already produced instead of re-running
    the upstream map."""

    def wrap(module, name):
        log = tmp_path / f"{module.__name__}.{name}.calls"
        log.write_text("")
        orig = getattr(module, name)

        def counted(*args, **kwargs):
            with open(log, "a") as f:
                f.write("call\n")
            return orig(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)

        def take() -> int:
            n = len(log.read_text().splitlines())
            log.write_text("")
            return n

        return take

    return wrap
