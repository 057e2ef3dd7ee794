import pytest
from hypothesis import HealthCheck, settings

from invlat.catalog import catalog_names, get_entry
from invlat.groups import group_from_json

from generated_groups import CARTAN_A4, CARTAN_B3, GENERATED, in_generic_basis, weyl_from_cartan

settings.register_profile(
    "exact",
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("exact")


@pytest.fixture(scope="session")
def s3():
    return get_entry("S3-standard").group()


@pytest.fixture(scope="session")
def s4():
    return get_entry("S4-standard").group()


@pytest.fixture(scope="session")
def b2():
    return get_entry("WeylB2").group()


@pytest.fixture(scope="session")
def g4():
    return get_entry("G4").group()


@pytest.fixture(scope="session")
def q8():
    return get_entry("Q8").group()


@pytest.fixture(scope="session")
def c5():
    return get_entry("C5-zeta5").group()


@pytest.fixture(scope="session")
def oracle_groups():
    """(name, group) for the 9 catalog groups, every generated group, the
    Weyl group A4 from its Cartan matrix and the Weyl group B3 in a generic
    basis: the inputs the oracle comparisons run on."""
    out = [
        (name, get_entry(name).group())
        for name in catalog_names()
        if get_entry(name).kind == "group"
    ]
    out += [(name, group_from_json(obj)) for name, (obj, _) in GENERATED.items()]
    out.append(("WeylA4", group_from_json(weyl_from_cartan(CARTAN_A4))))
    out.append(
        ("WeylB3-generic", group_from_json(in_generic_basis(weyl_from_cartan(CARTAN_B3))))
    )
    assert len(out) == 9 + len(GENERATED) + 2
    return out
