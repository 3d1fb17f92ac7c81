import shutil

import pytest

from galmag import _native, cli

NO_COMPILER = "no C compiler (cc) on PATH, so the native %.17g converter cannot be built"


@pytest.fixture(scope="session", autouse=True)
def _session_native_cache(tmp_path_factory):
    """Build native code into a cache of this test session, not the user's."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("XDG_CACHE_HOME", str(tmp_path_factory.mktemp("xdg-cache")))
        yield


@pytest.fixture(scope="module")
def g17():
    """The native converter, built afresh from the current cache; skips without a compiler."""
    cli._g17_native.cache_clear()
    g17 = cli._g17_native()
    if g17 is None:
        if shutil.which("cc") is None:
            pytest.skip(NO_COMPILER)
        pytest.fail("cc is on PATH, but the native %.17g converter did not build or load")
    yield g17
    cli._g17_native.cache_clear()


@pytest.fixture(scope="module", params=["native", "fallback"])
def csv_formatter(request):
    """Write CSV through the native converter, then through Python's % alone."""
    with pytest.MonkeyPatch.context() as mp:
        if request.param == "native":
            request.getfixturevalue("g17")
        else:
            mp.setattr(_native, "load", lambda *args: None)
            cli._g17_native.cache_clear()
            assert cli._g17_native() is None
        yield request.param
    cli._g17_native.cache_clear()
