import warnings

import pytest

from fkdv.reproduce import derive

# hypothesis's pytest plugin imports hypothesis.extra._patching to report a
# failing example, and one of that module's dependencies raises a
# DeprecationWarning on import.  Under the warnings-as-errors policy that
# turns the report into a pytest INTERNALERROR.  Importing the module once
# here, with DeprecationWarning ignored for this import only, keeps the
# report readable while every other warning still fails its test.  Without
# libcst the module cannot be imported and the plugin skips it as well.
with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:
        pass


@pytest.fixture(scope="session")
def tanh_system():
    _, system = derive("tanh")
    return system


@pytest.fixture(scope="session")
def pre_system():
    _, system = derive("pre")
    return system
