import tempfile
from pathlib import Path


def pytest_configure(config):
    # The property tests keep no example database, but hypothesis still
    # caches constants it scans from local modules while tests are collected;
    # keep that cache out of the source tree.
    try:
        from hypothesis.configuration import set_hypothesis_home_dir
    except ImportError:  # the property tests skip themselves
        return
    set_hypothesis_home_dir(Path(tempfile.gettempdir()) / "hashnet-hypothesis")
