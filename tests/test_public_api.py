"""The package's declared public names."""

import qgas


def test_every_exported_name_resolves():
    missing = [name for name in qgas.__all__ if not hasattr(qgas, name)]
    assert missing == []
    assert len(set(qgas.__all__)) == len(qgas.__all__)
