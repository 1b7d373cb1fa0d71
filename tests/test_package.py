import clcd


def test_every_export_resolves():
    missing = [name for name in clcd.__all__ if not hasattr(clcd, name)]
    assert missing == []
    assert len(set(clcd.__all__)) == len(clcd.__all__)
