import pytest

from fkdv.reproduce import derive


@pytest.fixture(scope="session")
def tanh_system():
    _, system = derive("tanh")
    return system


@pytest.fixture(scope="session")
def pre_system():
    _, system = derive("pre")
    return system
