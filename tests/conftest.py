"""Shared fixtures. Ray is initialised ONCE per pytest session, lazily —
only tests that request the ``ray_session`` fixture pay for it."""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np
import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
if str(REPO_ROOT) not in sys.path:
    sys.path.insert(0, str(REPO_ROOT))


@pytest.fixture(scope="session")
def ray_session():
    import ray

    if not ray.is_initialized():
        ray.init(
            address="local",
            num_cpus=4,
            include_dashboard=False,
            ignore_reinit_error=True,
            logging_level="ERROR",
        )
    from ray.data import DataContext

    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False
    yield ray
    # Quiesce Ray Data executor threads before shutdown: the streaming
    # executor finalizes asynchronously after the consuming call
    # returns, and a finalizer thread touching the core worker after
    # ray.shutdown() hard-exits the process with code 1 ("The core
    # worker has already been shutdown"), eating pytest's summary. GC
    # drops the last Dataset's executor; the short sleep lets its
    # threads finish their final core-worker calls.
    import gc
    import time

    gc.collect()
    time.sleep(1.0)
    ray.shutdown()


@pytest.fixture(scope="session")
def sf_tiny() -> str:
    """The sf0.001 registry tables (TESTDATA.md), which sit beside the
    benchmark's sf directory."""
    from bench import SF_DIR

    return str(Path(SF_DIR).with_name("sf0.001"))


@pytest.fixture()
def rng():
    return np.random.default_rng(17)
