import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from dunklpd import make_config, transform

# quadrature-heavy properties cannot meet the default deadline; determinism
# comes from the fixed seeds below, not from hypothesis' database
settings.register_profile(
    "package",
    deadline=None,
    max_examples=50,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("package")


@pytest.fixture(scope="session")
def cfg_free():
    return make_config(1, [0.0])


@pytest.fixture(scope="session")
def cfg_half():
    return make_config(1, [0.5])


@pytest.fixture(scope="session")
def cfg_heavy():
    return make_config(1, [2.0])


@pytest.fixture(scope="session")
def cfg_plane():
    return make_config(2, [1.0, 0.0])


@pytest.fixture()
def rng():
    return np.random.default_rng(20260816)


# transform._axis_matrices keeps recent phase matrices; each test starts from
# an empty store, so that no test reads a matrix another one built and a spy
# on the kernel sees every evaluation its own calls ask for
@pytest.fixture(autouse=True)
def _empty_phase_store():
    transform._STORE.clear()
    yield
    transform._STORE.clear()
