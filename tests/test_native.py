"""The native %.17g converter and the loader that builds it.

The converter must give every value Python's own '%.17g' text, or leave it
to Python; the loader must fall back to Python, silently and with the same
output bytes, wherever it cannot build or load the converter.
"""

import math
import os
import shutil
import struct
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from conftest import NO_COMPILER
from galmag import _native, cli

SRC = Path(__file__).resolve().parent.parent / "src"
MAX = sys.float_info.max
# a helix frenet table: literal, negated, few-valued and formatted columns
FRENET = ["frenet", "--mode=magnetic", "--v=1,0.5,0.7", "--ic=Z0=1", "--range=0:20",
          "--samples=3000"]


def native_range(x: float) -> bool:
    """The values the converter formats itself; it leaves the others to Python."""
    return x == 0 or 1e-16 <= abs(x) < 2.0**128


def ulps_away(x: float, n: int) -> float:
    for _ in range(abs(n)):
        x = math.nextafter(x, math.inf if n > 0 else -math.inf)
    return x


def carries_into_the_next_decade() -> list[float]:
    """Each double below 10^k whose 17 significant digits round up to 10^k."""
    found = []
    for k in range(-323, 309):
        x = float(f"1e{k}")
        if Fraction(x) > Fraction(10) ** k:
            x = math.nextafter(x, 0.0)
        if Fraction(x) < Fraction(10) ** k and float("%.17g" % x) == float(f"1e{k}"):
            found.append(x)
    return found


CARRIES = carries_into_the_next_decade()

DECADE_EDGES = [ulps_away(float(f"1e{k}"), n) for k in range(-17, 40) for n in range(-3, 4)]


def from_bits(bits: int) -> float:
    return struct.unpack("<d", struct.pack("<Q", bits))[0]


@st.composite
def ties(draw):
    """An exact half-way case: m / 2^n = m * 5^n / 10^n with 18 significant digits."""
    n = draw(st.integers(2, 25))
    lo, hi = -(-10**17 // 5**n), min((10**18 - 1) // 5**n, 2**53 - 1)
    m = draw(st.integers(lo // 2, (hi - 1) // 2)) * 2 + 1  # odd, so m * 5^n ends in 5
    return m / 2.0**n


edges_of_the_format = st.sampled_from(
    [0.0, 5e-324, 2.2250738585072009e-308, 2.2250738585072014e-308, MAX, 1e-16,
     ulps_away(1e-16, -1), 2.0**128, ulps_away(2.0**128, -1), *CARRIES])
values = st.builds(lambda x, negate: -x if negate else x,
                   st.one_of(st.integers(0, 2**64 - 1).map(from_bits).filter(math.isfinite),
                             st.sampled_from(DECADE_EDGES), ties(), edges_of_the_format,
                             st.integers(1, 2**52 - 1).map(from_bits)),  # subnormals
                   st.booleans())


def test_the_drawn_cases_occur():
    assert 1e-14 in CARRIES  # the double nearest 1e-14 lies below it
    assert "%.17g" % 2**-25 == "2.9802322387695312e-08"  # a tie, rounded to even
    assert "%.17g" % 1e-16 == "9.9999999999999998e-17"  # below the decade of 1e-16


@given(st.lists(values, min_size=1, max_size=40))
@example(xs=DECADE_EDGES + [-x for x in DECADE_EDGES])
def test_converter_equals_python(g17, xs):
    texts, left = g17(np.array(xs))
    assert len(texts) == len(xs)
    assert left == sum(not native_range(x) for x in xs)
    for x, text in zip(xs, texts):
        assert text == ("%.17g" % x if native_range(x) else ""), x
    assert cli._g17_strings(np.array(xs)) == ["%.17g" % x for x in xs]


def test_converter_longest_texts(g17):
    # sign, 17 digits, point and exponent: 23 bytes, the most a text takes
    xs = [-1e-16, -ulps_away(1e-16, 1), -0.00012345678901234567,
          -ulps_away(2.0**128, -1)]
    texts, left = g17(np.array(xs * 300))
    assert left == 0
    assert texts == ["%.17g" % x for x in xs * 300]
    assert max(map(len, texts)) == 23


# The loader: each case runs in a cache directory of its own.

def reference_csv(tmp_path) -> bytes:
    out = tmp_path / "reference.csv"
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_native, "load", lambda *args: None)
        cli._g17_native.cache_clear()
        assert cli.main([*FRENET, f"--output={out}"]) == 0
    cli._g17_native.cache_clear()
    return out.read_bytes()


def fake_cc(directory: Path, script: str) -> str:
    """A directory, for PATH, holding only a `cc` that runs script."""
    directory.mkdir()
    cc = directory / "cc"
    cc.write_text("#!/bin/sh\n" + script)
    cc.chmod(0o755)
    return str(directory)


def test_cold_cache_compiles_once(tmp_path, monkeypatch):
    real = shutil.which("cc")
    if real is None:
        pytest.skip(NO_COMPILER)
    log = tmp_path / "cc.log"
    wrapper = fake_cc(tmp_path / "bin", f'echo run >> "{log}"\nexec "{real}" "$@"\n')
    monkeypatch.setenv("PATH", wrapper + os.pathsep + os.environ["PATH"])  # gcc finds as, ld
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
    cache = tmp_path / "cache" / "galmag"
    try:
        cli._g17_native.cache_clear()
        assert cli._g17_native() is not None
        assert log.read_text() == "run\n"
        assert [p.suffix for p in cache.iterdir()] == [".so"]
        assert cache.stat().st_mode & 0o777 == 0o700
        cli._g17_native.cache_clear()
        assert cli._g17_native() is not None  # warm: loaded, never compiled
        assert log.read_text() == "run\n"
        built = next(cache.iterdir())
        cut = tmp_path / "cut.so"  # a new file: cutting the loaded one in place kills the process
        cut.write_bytes(built.read_bytes()[:1000])
        os.replace(cut, built)
        cli._g17_native.cache_clear()
        assert cli._g17_native() is not None  # a cut file is built again, not loaded
        assert log.read_text() == "run\nrun\n"
    finally:
        cli._g17_native.cache_clear()


def no_compiler(tmp_path, cache):
    (tmp_path / "empty").mkdir()
    return {"PATH": str(tmp_path / "empty")}


def failing_compile(tmp_path, cache):
    return {"PATH": fake_cc(tmp_path / "bin", 'echo "error: broken" >&2\nexit 1\n')}


def unwritable_directory(tmp_path, cache):
    (tmp_path / "cache").write_text("a file where the cache directory would go")
    return {}


def group_writable_directory(tmp_path, cache):
    cache.mkdir(parents=True)
    cache.chmod(0o770)
    return {}


def world_writable_directory(tmp_path, cache):
    cache.mkdir(parents=True)
    cache.chmod(0o707)
    return {}


def truncated_object(tmp_path, cache):
    # a cut copy of the session's build, under a path that dlopen reads afresh
    built = sorted((Path(os.environ["XDG_CACHE_HOME"]) / "galmag").glob("g17-*.so"))
    cache.mkdir(parents=True)
    (cache / built[0].name).write_bytes(built[0].read_bytes()[:1000])
    return no_compiler(tmp_path, cache)  # else it is built again


@pytest.mark.parametrize("setup", [no_compiler, failing_compile, unwritable_directory,
                                   group_writable_directory, world_writable_directory,
                                   truncated_object])
def test_fallback_writes_the_same_bytes_silently(tmp_path, monkeypatch, capfd, request, setup):
    expected = reference_csv(tmp_path)
    if setup is truncated_object:
        request.getfixturevalue("g17")  # the session cache holds a build
    env = setup(tmp_path, tmp_path / "cache" / "galmag")
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
    for key, value in env.items():
        monkeypatch.setenv(key, value)
    capfd.readouterr()
    out = tmp_path / "out.csv"
    try:
        cli._g17_native.cache_clear()
        assert cli.main([*FRENET, f"--output={out}"]) == 0
        assert cli._g17_native() is None
    finally:
        cli._g17_native.cache_clear()
    assert capfd.readouterr() == ("", "")
    assert out.read_bytes() == expected


def subprocess_env(cache_home: Path) -> dict:
    env = dict(os.environ, XDG_CACHE_HOME=str(cache_home))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    return env


def test_concurrent_cold_builds_leave_one_object(tmp_path):
    if shutil.which("cc") is None:
        pytest.skip(NO_COMPILER)
    expected = reference_csv(tmp_path)
    env = subprocess_env(tmp_path / "cache")
    procs = [subprocess.Popen([sys.executable, "-m", "galmag.cli", *FRENET,
                               f"--output={tmp_path / f'out{i}.csv'}"],
                              env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
             for i in range(4)]
    for proc in procs:
        out, err = proc.communicate(timeout=120)
        assert (proc.returncode, out, err) == (0, b"", b"")
    assert all((tmp_path / f"out{i}.csv").read_bytes() == expected for i in range(4))
    assert [p.suffix for p in (tmp_path / "cache" / "galmag").iterdir()] == [".so"]


def test_import_builds_nothing(tmp_path):
    log = tmp_path / "cc.log"
    env = subprocess_env(tmp_path / "cache")
    env["PATH"] = fake_cc(tmp_path / "bin", f'echo run >> "{log}"\n') + os.pathsep + env["PATH"]
    code = ("import sys\n"
            "sys.modules['ctypes'] = None  # importing ctypes now raises ImportError\n"
            "import galmag.cli\n"
            "assert 'galmag._native' not in sys.modules\n")
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=60)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert not log.exists()
    assert not (tmp_path / "cache").exists()
