import pytest

from nclil import stream_rng


@pytest.fixture
def rng():
    return stream_rng(20240817)
