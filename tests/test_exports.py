import modesub


def test_every_export_resolves_on_the_package():
    assert [name for name in modesub.__all__ if not hasattr(modesub, name)] == []


def test_exports_sorted_without_duplicates():
    assert modesub.__all__ == sorted(set(modesub.__all__))
