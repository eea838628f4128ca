import magbell


def test_every_exported_name_resolves():
    missing = [name for name in magbell.__all__ if not hasattr(magbell, name)]
    assert missing == []
