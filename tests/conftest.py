import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))  # makes naive_reference importable

from streamcache import SimConfig, TokenFactory


@pytest.fixture
def cfg():
    return SimConfig()


@pytest.fixture
def factory():
    return TokenFactory()


@pytest.fixture
def rng():
    return np.random.default_rng(0)
