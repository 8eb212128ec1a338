"""Every name the package exports resolves."""
import pytest

import hstarkit


@pytest.mark.parametrize("name", hstarkit.__all__)
def test_exported_name_resolves(name):
    assert getattr(hstarkit, name) is not None
