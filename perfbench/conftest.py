import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

# The benchmark's tests import isingcoupler from this checkout's sources.
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))


@pytest.fixture
def pkg():
    """The imported isingcoupler modules by short name, as run.py passes them.
    Unlike a run's set-up it does not purge and re-import the package, so the
    other tests in the session keep the same module objects."""
    import run

    return SimpleNamespace(**run.package_modules())
