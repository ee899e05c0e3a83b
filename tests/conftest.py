import os

import pytest

from voxelflight import parse_shape

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")


@pytest.fixture
def reference_flyer():
    with open(os.path.join(FIXTURES, "reference_flyer.shape")) as fh:
        return parse_shape(fh.read())


@pytest.fixture
def fixtures_dir():
    return FIXTURES
