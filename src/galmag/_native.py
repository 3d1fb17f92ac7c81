"""Compile, cache and load the C sources shipped with galmag.

``load`` builds a source with the system C compiler on first use, caches
the shared object per user and loads it with ctypes.  Nothing here runs at
import: callers import this module inside the function that first needs
native code, so ``import galmag.cli`` starts no compiler.

Every failure returns None and prints nothing, and the caller keeps its
Python path, which gives the same results.
"""

from __future__ import annotations

import contextlib
import ctypes
import os
import shutil
import tempfile
from importlib.util import source_hash

FLAGS = ("-O2", "-fPIC", "-shared")  # no -ffast-math: IEEE arithmetic as written
COMPILE_TIMEOUT_S = 60


def _cache_dir() -> str | None:
    """$XDG_CACHE_HOME/galmag (default ~/.cache/galmag), made 0o700 if missing.

    None unless the current user owns it and no one else may write to it:
    a file in it is loaded as code.
    """
    base = os.environ.get("XDG_CACHE_HOME", "")
    if not os.path.isabs(base):  # the XDG rule: unset, empty or relative means the default
        base = os.path.join(os.path.expanduser("~"), ".cache")
        if not os.path.isabs(base):
            return None
    path = os.path.join(base, "galmag")
    os.makedirs(path, mode=0o700, exist_ok=True)
    st = os.stat(path)
    if st.st_uid != os.getuid() or st.st_mode & 0o022:
        return None
    return path


def _intact(path: str) -> bool:
    """Whether path holds a whole build: its last 8 bytes are the source_hash of the rest.

    dlopen of a cut shared object can kill the process (SIGBUS) instead of
    failing, so a missing, cut or damaged file is built again.
    """
    try:
        with open(path, "rb") as f:
            data = f.read()
    except FileNotFoundError:
        return False
    return source_hash(data[:-8]) == data[-8:]


def _compile(source: str, path: str) -> bool:
    """Build source into path through a temporary file in its directory."""
    compiler = shutil.which("cc")
    if compiler is None:
        return False
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path),
                               prefix=os.path.basename(path) + ".", suffix=".tmp")
    os.close(fd)
    import subprocess  # 4-7 ms: only a cold cache pays for it

    try:
        proc = subprocess.run([compiler, *FLAGS, "-x", "c", "-", "-o", tmp], input=source,
                              text=True, capture_output=True, timeout=COMPILE_TIMEOUT_S)
        if proc.returncode != 0:
            return False
        with open(tmp, "rb+") as f:  # a loader ignores bytes past the sections
            f.write(source_hash(f.read()))
        # atomic: a process that builds the same file at once loads one complete copy
        os.replace(tmp, path)
        return True
    except subprocess.TimeoutExpired:
        return False
    finally:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)


def load(name: str, source: str, signatures: dict) -> ctypes.CDLL | None:
    """The shared object built from the C text source, or None where it cannot be had.

    It is cached as <cache dir>/<name>-<key>.so, the key being a hash of
    source, FLAGS and the machine type, so the compiler runs once per source
    and cache.  The hash is importlib's source_hash, which also changes with
    the Python version; hashlib would add 5 ms of imports to every process
    that loads the file.  signatures maps each function to use to (restype,
    argtypes), which are set on it.  No compiler, a failing or timed-out
    compile, an unusable cache directory and a file that will not load all
    give None.
    """
    try:
        directory = _cache_dir()
        if directory is None:
            return None
        key = "\0".join((source, *FLAGS, os.uname().machine))  # a home may serve two machines
        path = os.path.join(directory, f"{name}-{source_hash(key.encode()).hex()}.so")
        if not _intact(path) and not _compile(source, path):
            return None
        lib = ctypes.CDLL(path)
        for function, (restype, argtypes) in signatures.items():
            getattr(lib, function).restype = restype
            getattr(lib, function).argtypes = argtypes
        return lib
    except (OSError, ValueError, AttributeError):
        return None
