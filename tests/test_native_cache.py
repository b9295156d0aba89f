"""The native backend's per-user build cache and the default selection.

Each scenario runs in fresh interpreters with ``TMPDIR`` pointed at a
private directory, so the cache starts empty and a compiled object
loaded by one interpreter can never be reused by the next through the
dynamic loader's per-process handle cache.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.kernels import BACKEND_ENV_VAR, native_available, use_backend
from repro.kernels import native as native_module
from repro.sketches import FagmsSketch

SRC = Path(repro.__file__).resolve().parents[1]

needs_compiler = pytest.mark.skipif(not native_available(), reason="no C compiler")


def _run(tmpdir: Path, code: str, **env_overrides: str) -> str:
    """Run *code* in a fresh interpreter with *tmpdir* as TMPDIR."""
    env = dict(os.environ)
    for name in (BACKEND_ENV_VAR, "CC", native_module.THREADS_ENV_VAR):
        env.pop(name, None)
    env["TMPDIR"] = str(tmpdir)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env.update(env_overrides)
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


def _resolved_backend(tmpdir: Path, **env_overrides: str) -> str:
    """The default backend a fresh interpreter picks with *tmpdir* as TMPDIR."""
    return _run(
        tmpdir,
        "from repro.kernels import backend_name; print(backend_name())",
        **env_overrides,
    )


def _cached_objects(tmpdir: Path) -> list:
    return sorted((tmpdir / f"repro-kernels-{os.getuid()}").glob("*.so"))


def test_no_compiler_and_empty_cache_resolves_numpy(tmp_path):
    assert _resolved_backend(tmp_path, CC="false") == "numpy"


@needs_compiler
def test_cached_build_serves_a_process_without_a_compiler(tmp_path):
    assert _resolved_backend(tmp_path) == "native"
    (cached,) = _cached_objects(tmp_path)
    assert (cached.parent.stat().st_mode & 0o777) == 0o700
    assert _resolved_backend(tmp_path, CC="false") == "native"
    assert _cached_objects(tmp_path) == [cached]


@needs_compiler
def test_truncated_cached_object_never_crashes(tmp_path):
    assert _resolved_backend(tmp_path) == "native"
    (cached,) = _cached_objects(tmp_path)
    cached.write_bytes(cached.read_bytes()[:256])
    # No compiler: the broken object is skipped and numpy takes over.
    assert _resolved_backend(tmp_path, CC="false") == "numpy"
    # With a compiler the backend still comes up (a private build), and
    # the broken object is gone so the next process rebuilds the cache.
    assert _resolved_backend(tmp_path) == "native"
    assert _resolved_backend(tmp_path, CC="false") == "numpy"
    assert _resolved_backend(tmp_path) == "native"
    assert _resolved_backend(tmp_path, CC="false") == "native"


def _refused_dir(tmp_path, monkeypatch, kind: str) -> Path:
    """Plant a cache directory the current user must not trust."""
    monkeypatch.setattr("tempfile.tempdir", str(tmp_path))
    uid = os.getuid()
    if kind == "foreign":
        # Pretend to be another user: the directory on disk is then not
        # owned by the caller.
        monkeypatch.setattr(os, "getuid", lambda: uid + 1)
        path = tmp_path / f"repro-kernels-{uid + 1}"
        path.mkdir(mode=0o700)
    elif kind == "symlink":
        target = tmp_path / "elsewhere"
        target.mkdir(mode=0o700)
        path = tmp_path / f"repro-kernels-{uid}"
        path.symlink_to(target)
    else:
        path = tmp_path / f"repro-kernels-{uid}"
        path.mkdir()
        path.chmod(0o770 if kind == "group-writable" else 0o757)
    return path


@pytest.mark.parametrize(
    "kind", ["foreign", "group-writable", "world-writable", "symlink"]
)
def test_untrusted_cache_directory_is_refused(tmp_path, monkeypatch, kind):
    _refused_dir(tmp_path, monkeypatch, kind)
    assert native_module._cache_dir() is None


@needs_compiler
def test_refused_cache_directory_falls_back_to_a_private_build(tmp_path, monkeypatch):
    planted = _refused_dir(tmp_path, monkeypatch, "world-writable")
    native_module._build()
    assert list(planted.iterdir()) == []


def test_trusted_cache_directory_is_created_private(tmp_path, monkeypatch):
    monkeypatch.setattr("tempfile.tempdir", str(tmp_path))
    path = native_module._cache_dir()
    assert path == tmp_path / f"repro-kernels-{os.getuid()}"
    assert path.stat().st_mode & 0o777 == 0o700
    assert native_module._cache_dir() == path


@needs_compiler
def test_more_threads_are_bit_identical():
    keys = np.arange(200_000) * 7919 % 1_000_003
    single = FagmsSketch(1024, 5, seed=3)
    threaded = FagmsSketch(1024, 5, seed=3)
    with use_backend("native"):
        single.update(keys)
        try:
            threads = native_module.set_native_threads(2)
            threaded.update(keys)
        finally:
            native_module.set_native_threads(1)
    assert threads == (2 if native_module.native_openmp() else 1)
    assert np.array_equal(single.counters, threaded.counters)


@needs_compiler
def test_fresh_build_that_will_not_load_is_not_recompiled(tmp_path):
    # A noexec temp dir, say: the object compiles but never loads.
    assert _run(
        tmp_path,
        """
from repro.kernels import backend_name, native
def refuse(shared):
    raise OSError("cannot map " + str(shared))
native._load = refuse
print(backend_name())
""",
    ) == "numpy"
    cache = tmp_path / f"repro-kernels-{os.getuid()}"
    assert _cached_objects(tmp_path) == []
    (marker,) = cache.glob("*.failed")
    assert "cannot map" in marker.read_text()
    # The next process sees the marker and compiles nothing.
    assert _run(
        tmp_path,
        """
from repro.kernels import backend_name, native
def compile_(*args):
    raise SystemExit("compiled again")
native._compile = compile_
print(backend_name())
""",
    ) == "numpy"
    # Removing the marker retries the build.
    marker.unlink()
    assert _resolved_backend(tmp_path) == "native"
