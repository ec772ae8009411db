"""The package's public names."""

import pathpca


def test_every_exported_name_resolves_once():
    names = pathpca.__all__
    assert sorted(n for n in set(names) if names.count(n) > 1) == []
    assert [n for n in names if not hasattr(pathpca, n)] == []
