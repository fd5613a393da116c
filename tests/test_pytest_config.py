"""The repository's pytest settings, checked on a session of their own."""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

TWO_TESTS = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 0


def test_passes():
    assert True
'''


def test_failing_property_test_does_not_end_the_session(tmp_path):
    # hypothesis's failure report imports libcst, which warns of a deprecation;
    # under `error::DeprecationWarning` that once ended the session (exit 3)
    # before the passing test ran
    (tmp_path / "test_two.py").write_text(TWO_TESTS)
    done = subprocess.run([sys.executable, "-m", "pytest", "-p", "no:cacheprovider",
                           "-c", str(PYPROJECT), "--rootdir", str(tmp_path), "test_two.py"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode == 1, done.stdout + done.stderr
    assert "1 failed, 1 passed" in done.stdout


THREAD_TEST = '''
import threading


def test_thread_fails():
    def fail():
        raise ValueError("raised on a thread")

    thread = threading.Thread(target=fail)
    thread.start()
    thread.join(timeout=30)
    assert not thread.is_alive()
'''


def test_exception_ending_a_thread_fails_the_test(tmp_path):
    # pytest reports it only as a warning, which would let a worker thread's
    # failure pass unseen
    (tmp_path / "test_thread.py").write_text(THREAD_TEST)
    done = subprocess.run([sys.executable, "-m", "pytest", "-p", "no:cacheprovider",
                           "-c", str(PYPROJECT), "--rootdir", str(tmp_path), "test_thread.py"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode == 1, done.stdout + done.stderr
    assert "1 failed" in done.stdout and "raised on a thread" in done.stdout
