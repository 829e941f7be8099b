import os

import numpy as np
import pytest

from mcflab.jacobi import assemble
from mcflab.minimal_surface import integrate_profile


@pytest.fixture(scope="session")
def profile_cache():
    """Memoized minimal-profile constructions shared across the suite."""
    cache = {}

    def get(n, b, r_max, tol=1e-10):
        key = (n, b, r_max, tol)
        if key not in cache:
            cache[key] = integrate_profile(n, b, r_max, tol=tol)
        return cache[key]

    return get


@pytest.fixture(scope="session")
def mp4(profile_cache):
    """n=4, b=1 profile with the long tail used by the Jacobi chain.

    tol=1e-12: sampled-value noise enters second derivatives amplified by
    1/(h r)^2, so the Jacobi residual checks need the tightest integration.
    """
    return profile_cache(4, 1.0, 10.0**3.5, tol=1e-12)


@pytest.fixture(scope="session")
def jd4(mp4):
    return assemble(mp4)


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20260809)


@pytest.fixture(autouse=True)
def no_child_process_left():
    """Fail any test that leaves a child process running or unreaped.

    Where os.fork does not exist (Windows), neither does waitpid(-1); there
    the check is skipped.
    """
    yield
    if not hasattr(os, "fork"):
        return
    try:
        pid, status = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:  # no child at all
        return
    pytest.fail("a child process is still running" if pid == 0 else
                f"child process {pid} was left unreaped (wait status {status})")
