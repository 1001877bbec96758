import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(__file__))


@pytest.fixture(autouse=True)
def _package_names_stay_home():
    """Fail the test that leaves a public name in ``nbcolor``'s module dict
    bound to anything but its home module's object (say, a counting wrapper
    read through the package's lazy ``__getattr__`` while it was patched).
    The stale binding is dropped, so later tests read the real object."""
    yield
    package = sys.modules.get("nbcolor")
    if package is None:
        return
    cached = vars(package)
    leaked = [
        name for name, home in package._HOME.items()
        if name in cached
        and cached[name] is not getattr(sys.modules[f"nbcolor.{home}"], name)
    ]
    for name in leaked:
        del cached[name]
    if leaked:
        pytest.fail(f"names bound to a foreign object in nbcolor: {leaked}", pytrace=False)
