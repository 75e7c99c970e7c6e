"""The package's public names."""

import paretoscape


def test_every_public_name_resolves():
    names = paretoscape.__all__
    assert len(names) == len(set(names))
    assert [n for n in names if not hasattr(paretoscape, n)] == []
