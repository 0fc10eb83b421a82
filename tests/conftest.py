import pytest

from growthforge.growth import poly_geometric, table_spec
from growthforge.construction import (
    build_free_power_system,
    build_plain,
    build_uniformly_recurrent,
)
from growthforge import analyzer

TOY_TABLE = {1: 2, 2: 4, 4: 8, 8: 16}


def factor_words(engine: analyzer.FactorEngine, n: int) -> frozenset[str]:
    """F(n) from the structural route, decoded for comparison with the string oracle."""
    return frozenset(engine.decode(c, n) for c in engine.distinct(n).tolist())


@pytest.fixture(scope="session")
def toy_system():
    return build_plain(table_spec(TOY_TABLE), "lex", 3)


@pytest.fixture(scope="session")
def poly_spec():
    return poly_geometric("1/10")


@pytest.fixture(scope="session")
def poly_plain5(poly_spec):
    return build_plain(poly_spec, "lex", 5)


@pytest.fixture(scope="session")
def captured4(poly_spec):
    return build_uniformly_recurrent(poly_spec, depth=4, capture_budget=2,
                                     mu_offset=0, horizon=12)


@pytest.fixture(scope="session")
def captured7(poly_spec):
    return build_uniformly_recurrent(poly_spec, depth=7, capture_budget=2,
                                     mu_offset=0, horizon=12)


@pytest.fixture(scope="session")
def captured7_dims(captured7):
    return analyzer.dim_series(captured7, 64)


@pytest.fixture(scope="session")
def free_system_eps1():
    return build_free_power_system(1, 4)
