from __future__ import annotations

import numpy as np
import pytest

from armkit import model


@pytest.fixture(scope="session")
def arm() -> model.ArmDescription:
    """The built-in six-axis arm description shared by the whole suite."""
    return model.default_arm()


@pytest.fixture()
def rng() -> np.random.Generator:
    """Fresh deterministic generator per test."""
    return np.random.default_rng(20260814)
