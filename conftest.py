"""Shared by the test suites of ``tests`` and ``bench``."""
import pytest


@pytest.fixture(scope="session", autouse=True)
def private_episodes_cache(tmp_path_factory):
    """The episodes cache (``$XDG_CACHE_HOME/adx``) in a temporary directory
    for the whole session, for the tests and every ``adx`` child they start,
    so that no test reads or writes the user's cache."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv("XDG_CACHE_HOME", str(tmp_path_factory.mktemp("xdg-cache")))
        yield
