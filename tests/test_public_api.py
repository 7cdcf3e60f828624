"""The package's public surface."""

import depca


def test_every_exported_name_resolves():
    missing = [name for name in depca.__all__ if not hasattr(depca, name)]
    assert missing == []
    assert len(set(depca.__all__)) == len(depca.__all__)
