import feedrank


def test_every_exported_name_resolves():
    missing = [name for name in feedrank.__all__ if not hasattr(feedrank, name)]
    assert missing == []
    assert len(set(feedrank.__all__)) == len(feedrank.__all__)
